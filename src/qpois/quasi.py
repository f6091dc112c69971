"""Structured bivectors/2-forms with group-valued momentum words.

This module assembles the standard one-factor structure, the double and its
internal fusion, conjugacy-class pairs, and genus-(l)/puncture-(n) surface
sites; and it measures the residuals of the defining laws: momentum
conditions in both modes, duality, reconstruction, non-degeneracy ranks,
quasi-closedness, and equivariance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .duals import Dual, dtrace
from .errors import (
    BadSignature,
    IncompatibleActions,
    NotEpimorphism,
    NotTangent,
)
from .fields import (
    Bivector,
    FormField,
    PairTerm,
    Section,
    TauTerm,
    eval_lambda,
    exterior_d3,
    jacobiator,
    op_L,
    op_R,
    op_apply,
    op_fund,
    section_value,
)
from .groupgeom import (
    Factor,
    Site,
    Tangent,
    conjugate_point,
    dual_lift,
    parse_word,
    word_differentials,
    word_eval,
    word_tangent,
)
from .liealg import adjoint_matrix, cartan3

__all__ = [
    "MomentumComponent",
    "QuasiPoissonDescriptor",
    "QuasiHamiltonianDescriptor",
    "pg_descriptor",
    "class_descriptors",
    "double_descriptors",
    "internally_fused",
    "fuse_bivector",
    "fuse_form",
    "assemble_surface_site",
    "relator_word",
    "surface_letters",
    "momentum_residual",
    "rho_matrix",
    "duality_residual",
    "reconstruct_dual",
    "nondegeneracy_check",
    "quasi_closed_residual",
    "cn1_residual",
    "jacobiator_vs_phi",
    "eval_phi_actions",
    "equivariance_residual",
    "restrict_to_class",
    "momentum_pullback_residual",
]


@dataclass
class MomentumComponent:
    """One group-valued momentum component with its infinitesimal action."""

    word: tuple                 # parsed word over the site letters
    action: tuple               # VecOp of the matching action
    lift_factors: tuple = ()    # factors where the action is plain conjugation


@dataclass
class QuasiPoissonDescriptor:
    site: Site
    bivector: Bivector
    momentum: list
    name: str = ""


@dataclass
class QuasiHamiltonianDescriptor:
    site: Site
    form: FormField
    momentum: list
    name: str = ""


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def _conj_component(site, word_text, factors):
    return MomentumComponent(parse_word(site, word_text), op_fund(factors),
                             tuple(sorted(factors)))


def _pg_terms(i):
    # (1/2) eta^{jk} e_j^R wedge e_k^L
    return [(0.5, op_R(i), op_L(i)), (-0.5, op_L(i), op_R(i))]


def pg_descriptor(site, factor=0, name="standard"):
    """The one-factor bivector with the factor's letter as momentum word."""
    biv = Bivector(site, _pg_terms(factor))
    mom = [_conj_component(site, site.letter(factor), [factor])]
    return QuasiPoissonDescriptor(site, biv, mom, name)


def class_descriptors(site, factor=0):
    """Conjugacy-class pair: restricted bivector and the tau 2-form, momentum
    the inclusion letter."""
    if site.factors[factor].kind != "class":
        raise BadSignature("class pair needs a class factor")
    mom = [_conj_component(site, site.letter(factor), [factor])]
    qp = QuasiPoissonDescriptor(site, Bivector(site, _pg_terms(factor)), mom,
                                "class")
    qh = QuasiHamiltonianDescriptor(site, FormField(site, tau_terms=[TauTerm(factor)]),
                                    mom, "class")
    return qp, qh


def _double_momentum(site, i, j):
    a, b = site.letter(i), site.letter(j)
    act1 = ((-1.0, "R", i), (1.0, "L", j))      # x . (q1,q2) = (x q1, q2 x^-1)
    act2 = ((1.0, "L", i), (-1.0, "R", j))      # y . (q1,q2) = (q1 y^-1, y q2)
    return [MomentumComponent(parse_word(site, a + b), act1),
            MomentumComponent(parse_word(site, a.upper() + b.upper()), act2)]


def double_descriptors(site, i=0, j=1):
    """The two-factor double: bivector (1/2)(L1^R2 + R1^L2) and 2-form
    -(1/2)(omega1 . omegabar2 + omegabar1 . omega2), with the product and the
    inverse-product words as momentum pair."""
    biv = Bivector(site, [
        (0.5, op_L(i), op_R(j)), (-0.5, op_R(j), op_L(i)),
        (0.5, op_R(i), op_L(j)), (-0.5, op_L(j), op_R(i)),
    ])
    wa = parse_word(site, site.letter(i))
    wb = parse_word(site, site.letter(j))
    form = FormField(site, pair_terms=[
        PairTerm(-0.5, wa, "omega", wb, "omegabar"),
        PairTerm(0.5, wb, "omega", wa, "omegabar"),
    ])
    mom = _double_momentum(site, i, j)
    return (QuasiPoissonDescriptor(site, biv, mom, "double"),
            QuasiHamiltonianDescriptor(site, form, mom, "double"))


def _chi_bivector(site, act1, act2):
    """(1/2) act1 wedge act2 contracted through the 2-tensor."""
    return Bivector(site, [(0.5, act1, act2), (-0.5, act2, act1)])


def _word_concat(w1, w2):
    return tuple(w1) + tuple(w2)


def fuse_bivector(site, biv, comp1, comp2):
    """Fuse two action components: subtract chi and multiply the words."""
    if comp1 is comp2:
        raise IncompatibleActions("cannot fuse a component with itself")
    fused = biv + _chi_bivector(site, comp1.action, comp2.action).scaled(-1.0)
    action = tuple(comp1.action) + tuple(comp2.action)
    merged = MomentumComponent(
        _word_concat(comp1.word, comp2.word), action,
        tuple(sorted(set(comp1.lift_factors) | set(comp2.lift_factors))))
    return fused, merged


def fuse_form(site, form, comp1, comp2):
    """Form-mode fusion: subtract half the pulled-back mixed pairing."""
    corr = FormField(site, pair_terms=[
        PairTerm(-0.5, comp1.word, "omega", comp2.word, "omegabar")])
    merged = MomentumComponent(
        _word_concat(comp1.word, comp2.word),
        tuple(comp1.action) + tuple(comp2.action),
        tuple(sorted(set(comp1.lift_factors) | set(comp2.lift_factors))))
    return form + corr, merged


def internally_fused(site, i=0, j=1):
    """Fuse the double's two action components into one conjugation action."""
    qp, qh = double_descriptors(site, i, j)
    biv, merged = fuse_bivector(site, qp.bivector, qp.momentum[0], qp.momentum[1])
    form, merged_f = fuse_form(site, qh.form, qh.momentum[0], qh.momentum[1])
    # the two twisted actions add up to plain conjugation on both factors
    merged = MomentumComponent(merged.word, merged.action, (i, j))
    merged_f = MomentumComponent(merged_f.word, merged_f.action, (i, j))
    return (QuasiPoissonDescriptor(site, biv, [merged], "internally-fused"),
            QuasiHamiltonianDescriptor(site, form, [merged_f], "internally-fused"))


def surface_letters(genus, npunct):
    gens = [chr(ord("a") + k) for k in range(2 * genus + npunct)]
    blocks = []
    for k in range(genus):
        x, y = gens[2 * k], gens[2 * k + 1]
        blocks.append(x + y + x.upper() + y.upper())
    blocks.extend(gens[2 * genus:])
    return gens, blocks


def relator_word(site, genus, npunct):
    _, blocks = surface_letters(genus, npunct)
    return parse_word(site, "".join(blocks))


def assemble_surface_site(model, pairing, genus, class_reps, variant="classes"):
    """Site plus quasi-Poisson/quasi-Hamiltonian pair for a surface signature.

    genus >= 0 torus blocks, one factor per class representative; variant
    "fullgroups" replaces class factors by full group factors (bivector only
    when punctures are present).
    """
    npunct = len(class_reps)
    if genus == 0 and npunct < 3:
        raise BadSignature("genus zero needs at least three punctures")
    if variant not in ("classes", "fullgroups"):
        raise BadSignature(f"unknown variant {variant!r}")
    factors = [Factor("group") for _ in range(2 * genus)]
    for rep in class_reps:
        if variant == "classes":
            factors.append(Factor("class", rep))
        else:
            factors.append(Factor("group"))
    site = Site(model, pairing, factors)

    units = []          # (bivector, form or None, component)
    for k in range(genus):
        qp, qh = internally_fused(site, 2 * k, 2 * k + 1)
        units.append((qp.bivector, qh.form, qp.momentum[0]))
    for idx in range(npunct):
        f = 2 * genus + idx
        mom = _conj_component(site, site.letter(f), [f])
        biv = Bivector(site, _pg_terms(f))
        form = FormField(site, tau_terms=[TauTerm(f)]) if variant == "classes" else None
        units.append((biv, form, mom))

    biv, form, comp = units[0]
    for nbiv, nform, ncomp in units[1:]:
        if form is not None and nform is not None:
            form, _ = fuse_form(site, form + nform, comp, ncomp)
        else:
            form = None
        biv, comp = fuse_bivector(site, biv + nbiv, comp, ncomp)
    name = f"surface-{genus}-{npunct}-{variant}"
    qp = QuasiPoissonDescriptor(site, biv, [comp], name)
    qh = None
    if form is not None:
        qh = QuasiHamiltonianDescriptor(site, form, [comp], name)
    return site, qp, qh


# ---------------------------------------------------------------------------
# frame-level data shared by the residual computations
# ---------------------------------------------------------------------------

def _action_columns(site, point, frame, action):
    """Frame components of the action on each basis element; (frame.dim, d)."""
    basis = np.stack(site.model.basis)
    return frame.components(op_apply(action, point.mats, basis)).T


def _fund_lift_tangent(site, point, comp, x_coeffs):
    """Tangent of an action component with class lifts where applicable."""
    x = site.model.from_coeffs(x_coeffs)
    comps = op_apply(comp.action, point.mats, x)
    lifts = {f: np.asarray(x_coeffs, dtype=complex) for f in comp.lift_factors
             if site.factors[f].kind == "class"}
    return Tangent(comps, lifts)


def momentum_residual(desc, point, mode):
    """Deviation from the momentum law, by mode.

    bivector: max over components and basis covectors of
      || 2 P#((dPhi)* beta) - action(psi_H((L* + R*) beta)) ||;
    twoform: max over components, basis X, and frame vectors of
      | sigma(action(X), v) - (1/2) X . ((omega + omegabar)(dPhi v)) |.
    """
    site = desc.site
    model = site.model
    frame = point.frame()
    worst = 0.0
    if mode == "bivector":
        h = site.pairing.require_upper()
        pmat = desc.bivector.frame_matrix(point, frame)
        for comp in desc.momentum:
            dw, _, g0 = word_differentials(frame, comp.word)
            ainv = adjoint_matrix(model, np.linalg.inv(g0))
            fund_cols = _action_columns(site, point, frame, comp.action)
            for j in range(model.d):
                lhs = 2.0 * (pmat.T @ dw[:, j])
                cov = np.eye(model.d)[j] + ainv.T @ np.eye(model.d)[j]
                rhs = fund_cols @ (h @ cov)
                worst = max(worst, float(np.abs(lhs - rhs).max()))
    elif mode == "twoform":
        smat = site.pairing.eta_lower
        vecs = frame.vectors()
        for comp in desc.momentum:
            left, right, _ = word_differentials(frame, comp.word)
            for j in range(model.d):
                xc = np.eye(model.d)[j]
                ft = _fund_lift_tangent(site, point, comp, xc)
                for v, wsum in zip(vecs, left + right):
                    lhs = desc.form.evaluate(point.mats, ft, v)
                    rhs = 0.5 * (xc @ smat @ wsum)
                    worst = max(worst, float(abs(lhs - rhs)))
    else:
        raise BadSignature(f"unknown mode {mode!r}")
    return worst


def momentum_pullback_residual(desc, point, fn):
    """Residual of P#(d(f o Phi)) against the push of the one-factor field.

    fn is a scalar function of a single group matrix; only meaningful for a
    single-component conjugation momentum.
    """
    site = desc.site
    model = site.model
    frame = point.frame()
    comp = desc.momentum[0]
    g0 = word_eval(comp.word, point.mats)

    def f_pull(mats):
        return fn(word_eval(comp.word, mats))

    alpha = np.array([dual_lift(f_pull, point, frame.vector(a))
                      for a in range(frame.dim)])
    pmat = desc.bivector.frame_matrix(point, frame)
    lhs = pmat.T @ alpha

    # algebra-valued target field: (1/2) eta (grad_L f + grad_R f) at g0
    h = site.pairing.require_upper()
    d = model.d
    grad = np.zeros(d, dtype=complex)
    for j in range(d):
        ej = model.from_coeffs(np.eye(d)[j])
        left = fn(Dual(g0, g0 @ ej)).eps
        right = fn(Dual(g0, ej @ g0)).eps
        grad[j] = left + right
    x_alg = 0.5 * (h @ grad)
    # push through the action: the fundamental tangent of that algebra element
    rhs_t = _fund_lift_tangent(site, point, comp, x_alg)
    rhs = frame.components(rhs_t)
    return float(np.abs(lhs - rhs).max())


def rho_matrix(desc, point, frame=None):
    """Frame matrix of the composite action((L^-1 - R^-1) dPhi)."""
    model = desc.site.model
    frame = frame or point.frame()
    out = np.zeros((frame.dim, frame.dim), dtype=complex)
    for comp in desc.momentum:
        left, right, _ = word_differentials(frame, comp.word)
        img = op_apply(comp.action, point.mats, model.from_coeffs(left - right))
        out += frame.components(img).T
    return out


def duality_residual(qp, qh, point):
    """max of || P# sigma_b - (Id - rho/4) || and the transposed identity."""
    site = qp.site
    site.pairing.require_invertible()
    frame = point.frame()
    pmat = qp.bivector.frame_matrix(point, frame)
    smat = qh.form.frame_matrix(point, frame)
    rho = rho_matrix(qp, point, frame)
    eye = np.eye(frame.dim)
    r1 = pmat.T @ smat.T - (eye - 0.25 * rho)
    r2 = smat.T @ pmat.T - (eye - 0.25 * rho.T)
    return float(max(np.abs(r1).max(), np.abs(r2).max()))


def _stacked_kernel(mat, tol=1e-8):
    u, s, vh = np.linalg.svd(mat)
    rank = int(np.sum(s > tol * (s[0] if s.size else 1.0)))
    return vh[rank:].conj().T, s


def reconstruct_dual(desc, point, direction):
    """Rebuild the dual tensor at a point from the momentum identities.

    direction "P-from-sigma" consumes a QuasiHamiltonianDescriptor; direction
    "sigma-from-P" consumes a QuasiPoissonDescriptor.  Returns (frame matrix,
    kernel residual).
    """
    site = desc.site
    model = site.model
    s_low, h_up = site.pairing.require_invertible()
    frame = point.frame()
    nfr = frame.dim
    rho = rho_matrix(desc, point, frame)
    eye = np.eye(nfr)
    comps = desc.momentum
    d = model.d

    dws, ainvs, ads, funds = [], [], [], []
    for comp in comps:
        dw, _, g0 = word_differentials(frame, comp.word)
        dws.append(dw)
        ainvs.append(adjoint_matrix(model, np.linalg.inv(g0)))
        ads.append(adjoint_matrix(model, g0))
        funds.append(_action_columns(site, point, frame, comp.action))

    if direction == "P-from-sigma":
        smat = desc.form.frame_matrix(point, frame)
        stacked = np.concatenate([*(dw for dw in dws), smat.T], axis=1)

        def rhs_of(z):
            val = np.zeros(nfr, dtype=complex)
            for i in range(len(comps)):
                alpha = z[i * d:(i + 1) * d]
                val += 0.5 * funds[i] @ (h_up @ (alpha + ainvs[i].T @ alpha))
            v = z[len(comps) * d:]
            return val + (eye - 0.25 * rho) @ v
    elif direction == "sigma-from-P":
        pmat = desc.bivector.frame_matrix(point, frame)
        stacked = np.concatenate([*(f for f in funds), pmat.T], axis=1)

        def rhs_of(z):
            val = np.zeros(nfr, dtype=complex)
            for i in range(len(comps)):
                x = z[i * d:(i + 1) * d]
                val += 0.5 * dws[i] @ ((np.eye(d) + ads[i].T) @ (s_low @ x))
            beta = z[len(comps) * d:]
            return val + (eye - 0.25 * rho.T) @ beta
    else:
        raise BadSignature(f"unknown direction {direction!r}")

    sv = np.linalg.svd(stacked, compute_uv=False)
    if sv.size == 0 or sv.min() <= 1e-10 * sv.max() or stacked.shape[1] < nfr:
        raise NotEpimorphism("stacked momentum map is rank-deficient at this point")
    pinv = np.linalg.pinv(stacked)
    cols = []
    for b in range(nfr):
        z = pinv @ np.eye(nfr)[b]
        cols.append(rhs_of(z))
    out = np.stack(cols, axis=1).T     # row/column convention: transpose map

    kernel, _ = _stacked_kernel(stacked)
    kresid = 0.0
    for k in range(kernel.shape[1]):
        kresid = max(kresid, float(np.linalg.norm(rhs_of(kernel[:, k]))))
    return out, kresid


def nondegeneracy_check(desc, point, mode):
    """Rank certificates for the momentum-relative non-degeneracy notions."""
    site = desc.site
    frame = point.frame()
    nfr = frame.dim
    dws = []
    for comp in desc.momentum:
        dw, _, _ = word_differentials(frame, comp.word)
        dws.append(dw)
    dphi_stack = np.concatenate([dw.T for dw in dws], axis=0)  # (md, N)

    if mode == "twoform":
        smat = desc.form.frame_matrix(point, frame)
        stacked = np.concatenate([smat.T, dphi_stack], axis=0)
        sv = np.linalg.svd(stacked, compute_uv=False)
        min_sv = float(sv[min(nfr - 1, sv.size - 1)]) if nfr else 0.0
        ker_s, _ = _stacked_kernel(smat.T)
        ker_d, _ = _stacked_kernel(dphi_stack)
        if ker_s.shape[1] and ker_d.shape[1]:
            both = np.concatenate([ker_s, ker_d], axis=1)
            svb = np.linalg.svd(both, compute_uv=False)
            rb = int(np.sum(svb > 1e-8 * svb[0]))
            inter = ker_s.shape[1] + ker_d.shape[1] - rb
        else:
            inter = 0
        return {"min_singular": min_sv, "rank": int(np.sum(sv > 1e-8 * (sv[0] if sv.size else 1))),
                "dim": nfr, "intersection_dim": int(inter)}
    if mode == "bivector":
        pmat = desc.bivector.frame_matrix(point, frame)
        funds = [_action_columns(site, point, frame, c.action) for c in desc.momentum]
        stacked = np.concatenate([pmat.T, *funds], axis=1)
        sv = np.linalg.svd(stacked, compute_uv=False)
        rank = int(np.sum(sv > 1e-8 * (sv[0] if sv.size else 1)))
        min_sv = float(sv[nfr - 1]) if sv.size >= nfr else 0.0
        return {"min_singular": min_sv, "rank": rank, "dim": nfr,
                "deficit": nfr - rank}
    raise BadSignature(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# quasi-closedness and the structural calibration identity
# ---------------------------------------------------------------------------

def _random_sections(site, rng, count=3):
    secs = []
    for _ in range(count):
        f = int(rng.integers(site.nfac))
        kind = "left" if site.factors[f].kind == "group" else "fund"
        x = rng.standard_normal(site.model.d) + 1j * rng.standard_normal(site.model.d)
        secs.append(Section(f, kind, x))
    return secs


def quasi_closed_residual(desc, points, seed=0, triples=8):
    """max |d sigma (S1,S2,S3) - sum_i lambda(dPhi_i S1, dPhi_i S2, dPhi_i S3)|."""
    site = desc.site
    model = site.model
    rng = np.random.Generator(np.random.PCG64(seed))
    worst = 0.0
    for point in points:
        for _ in range(triples):
            s1, s2, s3 = _random_sections(site, rng)
            lhs = exterior_d3(site, desc.form, point, s1, s2, s3)
            rhs = 0.0
            t1 = section_value(site, s1, point.mats)
            t2 = section_value(site, s2, point.mats)
            t3 = section_value(site, s3, point.mats)
            for comp in desc.momentum:
                g0 = word_eval(comp.word, point.mats)
                dv = [word_tangent(comp.word, point.mats, t) for t in (t1, t2, t3)]
                rhs = rhs + eval_lambda(model, site.pairing, g0, *dv)
            worst = max(worst, float(abs(lhs - rhs)))
    return worst


def cn1_residual(site, points, seed=0, triples=8):
    """Calibration: half the exterior derivative of the mixed pairing equals
    the two factor pullbacks of the cubic form minus its product pullback."""
    if site.nfac < 2:
        raise BadSignature("needs two group factors")
    model = site.model
    wa = parse_word(site, "a")
    wb = parse_word(site, "b")
    wab = parse_word(site, "ab")
    form = FormField(site, pair_terms=[PairTerm(0.5, wa, "omega", wb, "omegabar")])
    rng = np.random.Generator(np.random.PCG64(seed))
    worst = 0.0
    for point in points:
        q1, q2 = point.mats[0], point.mats[1]
        for _ in range(triples):
            s1, s2, s3 = _random_sections(site, rng)
            lhs = exterior_d3(site, form, point, s1, s2, s3)
            ts = [section_value(site, s, point.mats) for s in (s1, s2, s3)]
            v1 = [t.comps[0] if t.comps[0] is not None else np.zeros_like(q1)
                  for t in ts]
            v2 = [t.comps[1] if t.comps[1] is not None else np.zeros_like(q2)
                  for t in ts]
            vm = [word_tangent(wab, point.mats, t) for t in ts]
            rhs = (eval_lambda(model, site.pairing, q1, *v1)
                   + eval_lambda(model, site.pairing, q2, *v2)
                   - eval_lambda(model, site.pairing, word_eval(wab, point.mats), *vm))
            worst = max(worst, float(abs(lhs - rhs)))
    return worst


# ---------------------------------------------------------------------------
# the quasi-Poisson law and equivariance
# ---------------------------------------------------------------------------

def eval_phi_actions(desc, point, phi, alpha, beta, gamma, frame=None):
    """Half-contraction of the cubic tensor through every action component."""
    site = desc.site
    frame = frame or point.frame()
    total = 0.0
    for comp in desc.momentum:
        cols = _action_columns(site, point, frame, comp.action)
        a = np.asarray(alpha) @ cols
        b = np.asarray(beta) @ cols
        c = np.asarray(gamma) @ cols
        total = total + 0.5 * np.einsum("jks,j,k,s->", phi, a, b, c)
    return total


def jacobiator_vs_phi(desc, point, fns, phi=None):
    """|Jacobiator(f1,f2,f3) - 2 phi_M(df1,df2,df3)| at the point."""
    site = desc.site
    if phi is None:
        phi = cartan3(site.model, site.pairing)
    frame = point.frame()
    jac = jacobiator(desc.bivector, point, *fns)
    covs = []
    for fn in fns:
        covs.append(np.array([dual_lift(fn, point, frame.vector(a))
                              for a in range(frame.dim)]))
    rhs = 2.0 * eval_phi_actions(desc, point, phi, *covs, frame=frame)
    return float(abs(jac - rhs))


def equivariance_residual(desc, point, g, seed=0, probes=6, mode="bivector"):
    """Tensor invariance under simultaneous conjugation, probed pointwise."""
    site = desc.site
    cpoint = conjugate_point(point, g)
    gi = np.linalg.inv(g)
    rng = np.random.Generator(np.random.PCG64(seed))
    worst = 0.0
    if mode == "bivector":
        biv = desc.bivector
        from .fields import bracket_funcs

        for _ in range(probes):
            i1, i2 = int(rng.integers(site.nfac)), int(rng.integers(site.nfac))
            c1 = rng.standard_normal((site.model.n, site.model.n))
            c2 = rng.standard_normal((site.model.n, site.model.n))

            def f1(mats, i=i1, c=c1):
                return dtrace(c @ mats[i])

            def f2(mats, i=i2, c=c2):
                return dtrace(c @ mats[i])

            def f1c(mats, i=i1, c=c1):
                return dtrace(c @ (gi @ mats[i] @ g))

            def f2c(mats, i=i2, c=c2):
                return dtrace(c @ (gi @ mats[i] @ g))

            base = bracket_funcs(biv, point, f1, f2)
            moved = bracket_funcs(biv, cpoint, f1c, f2c)
            worst = max(worst, float(abs(base - moved)))
        return worst
    if mode == "twoform":
        model = site.model
        frame = point.frame()
        for _ in range(probes):
            a = int(rng.integers(frame.dim))
            b = int(rng.integers(frame.dim))
            va, vb = frame.vector(a), frame.vector(b)
            base = desc.form.evaluate(point.mats, va, vb)

            def move(t):
                comps = [None if c is None else g @ c @ gi for c in t.comps]
                lifts = {f: model.coeffs(g @ model.from_coeffs(x) @ gi)
                         for f, x in t.lifts.items()}
                return Tangent(comps, lifts)

            moved = desc.form.evaluate(cpoint.mats, move(va), move(vb))
            worst = max(worst, float(abs(base - moved)))
        return worst
    raise BadSignature(f"unknown mode {mode!r}")


def restrict_to_class(biv, point, factor, tol=1e-8):
    """Class-frame matrix of an ambient bivector plus the tangency residual."""
    site = biv.site
    if site.factors[factor].kind != "class":
        raise BadSignature("restriction target must be a class factor")
    frame = point.frame()
    n = site.model.n
    pamb = biv.ambient_matrix(point)
    # sharp image lives in the row space of pamb^T; project factor block
    vecs = frame.per_factor[factor]
    if vecs:
        umat = np.stack([v.reshape(-1) for v in vecs], axis=1)
        proj = umat @ umat.conj().T
    else:
        proj = np.zeros((n * n, n * n), dtype=complex)
    rows = slice(factor * n * n, (factor + 1) * n * n)
    image_rows = pamb.T[rows, :]
    resid = float(np.abs(image_rows - proj @ image_rows).max())
    if resid > tol * (1 + float(np.abs(pamb).max())):
        raise NotTangent(f"bivector image leaves the class tangents "
                         f"(residual {resid:.3e})")
    return biv.frame_matrix(point, frame), resid
