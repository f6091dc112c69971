"""Test-only references for site data: frame vectors one at a time, the
word derivative by the product rule, the fundamental tangent of the
conjugation action, the 2-form of a chain of word pairs, and two
consistency residuals of a momentum word and of a dual bivector/2-form
pair."""

import numpy as np

from qpois.duals import Dual
from qpois.fields import FormField, PairTerm, differential
from qpois.groupgeom import Tangent, parse_word, word_eval
from qpois.quasi import component_linear


def frame_vector(frame, a):
    """Frame vector a as a Tangent, with its lift on a class factor."""
    for i, (vecs, rows) in enumerate(zip(frame.per_factor, frame.rows)):
        k = a - rows.start
        if 0 <= k < len(vecs):
            comps = [None] * frame.site.nfac
            comps[i] = vecs[k]
            lifts = {} if frame.lifts[i] is None else {i: frame.lifts[i][k]}
            return Tangent(comps, lifts)
    raise IndexError(a)


def frame_vectors(frame):
    return [frame_vector(frame, a) for a in range(frame.dim)]


def product_rule_tangent(word, mats, tangent):
    """Derivative of word_eval along an ambient tangent (list or array of
    factor components, None for zero) by the product rule: letter i's
    derivative, -t v t for an inverse letter t, multiplied on the left by
    letters i-1, ..., 0, then on the right by letters i+1, ..., L-1, and the
    pieces summed in letter order.  These are the products, in the order,
    that `SitePoint.word_differentials` takes."""
    terms = [mats[f] if p == 1 else np.linalg.inv(mats[f]) for f, p in word]
    out = np.zeros(np.shape(mats[0])[-2:], dtype=complex)
    for i, (f, p) in enumerate(word):
        v = tangent[f]
        if v is None:
            continue
        piece = v if p == 1 else -(terms[i] @ v @ terms[i])
        for j in range(i - 1, -1, -1):
            piece = terms[j] @ piece
        for j in range(i + 1, len(terms)):
            piece = piece @ terms[j]
        out = out + piece
    return out


def fund_tangent(site, point, x_coeffs, factors=None):
    """Fundamental tangent of the conjugation action, q X - X q on each of
    the given factors (default all)."""
    x = site.model.from_coeffs(np.asarray(x_coeffs))
    comps = [None] * site.nfac
    for i in range(site.nfac) if factors is None else factors:
        q = point.mats[i]
        comps[i] = q @ x - x @ q
    return Tangent(comps)


def two_chain_form(site, chain):
    """2-form of a formal chain: list of (coef, word_text_u, word_text_v)."""
    return FormField(site, pair_terms=[
        PairTerm(0.5 * coef, parse_word(site, u), parse_word(site, v))
        for coef, u, v in chain])


def momentum_pullback_residual(desc, point, fn):
    """Residual of P#(d(f o Phi)) against the push of the one-factor field.

    fn is a scalar function of a single group matrix; only meaningful for a
    single-component conjugation momentum.
    """
    site = desc.site
    model = site.model
    comp = desc.momentum[0]
    lin = component_linear(point, comp)

    def f_pull(mats):
        return fn(word_eval(comp.word, mats))

    alpha = differential(point, f_pull)
    lhs = desc.bivector.frame_matrix(point).T @ alpha
    # algebra-valued target field: (1/2) eta (grad_L f + grad_R f) at g,
    # pushed through the action
    g, _ = point.word_value(comp.word)
    basis = model.basis
    grad = fn(Dual(g, g @ basis)).eps + fn(Dual(g, basis @ g)).eps
    x_alg = 0.5 * (site.pairing.eta_upper @ grad)
    return float(np.abs(lhs - lin.action @ x_alg).max())


def dual_pair_residuals(qp, qh, f, h, point):
    """Consistency of a dual bivector/2-form pair on invariant functions.

    Returns residuals of the gradient identity (flat of the field recovers
    df) and of the bracket tie  form(X_f, X_h) = dh . Pmat . df, stated at
    the single-contraction (matrix) level; against the full-pairing function
    bracket this reads  form(X_f, X_h) = {h, f} / 2.
    """
    pmat = qp.bivector.frame_matrix(point)
    smat = qh.form.frame_matrix(point)
    df = differential(point, f)
    dh = differential(point, h)
    xf = pmat.T @ df
    xh = pmat.T @ dh
    grad = float(np.abs(smat.T @ xf - df).max())
    tie = abs((xf @ smat @ xh) - (dh @ pmat @ df))
    return {"gradient": grad, "tie": float(tie)}
