"""Pointwise tensor calculus on sites.

Tensor fields are kept in structured form.  A bivector is one coefficient
matrix K over the atoms -- the left and right translations L_f, R_f of every
factor f -- contracted through the invariant 2-tensor H, so that
P = sum K[alpha, beta] (op_alpha (x) op_beta)(H) and fusion only updates K.
A 2-form is a list of pullback pairings of trivialization forms plus class
terms.  Both evaluate transparently at Dual-perturbed points, which is what
makes exact exterior derivatives and Jacobiators cheap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .duals import Dual, dinv, apply_linear
from .errors import BadSignature, LiftFailed
from .groupgeom import Tangent, word_differentials, word_eval, word_tangent

__all__ = [
    "VecOp",
    "op_L",
    "op_R",
    "op_fund",
    "op_apply",
    "Bivector",
    "PairTerm",
    "TauTerm",
    "FormField",
    "Section",
    "section_value",
    "section_bracket",
    "exterior_d3",
    "eval_lambda",
    "two_chain_form",
    "bracket_funcs",
    "jacobiator",
    "dual_vdot",
]


# ---------------------------------------------------------------------------
# structured tangent-vector operators: sums of (coef, side, factor)
# ---------------------------------------------------------------------------

VecOp = tuple  # of (coef, "L"|"R", factor)


def op_L(factor, coef=1.0):
    return ((coef, "L", factor),)


def op_R(factor, coef=1.0):
    return ((coef, "R", factor),)


def op_fund(factors):
    """Conjugation direction q X - X q over a set of factors."""
    out = []
    for f in sorted(factors):
        out.append((1.0, "L", f))
        out.append((-1.0, "R", f))
    return tuple(out)


def op_apply(op, mats, x):
    """Apply the operator to algebra element x at the given factor matrices.

    Returns a per-factor component list (None = zero); Dual-transparent in mats.
    """
    comps = [None] * len(mats)
    for coef, side, f in op:
        term = (mats[f] @ x) if side == "L" else (x @ mats[f])
        term = coef * term
        comps[f] = term if comps[f] is None else comps[f] + term
    return comps


# ---------------------------------------------------------------------------
# bivector fields
# ---------------------------------------------------------------------------

def _atom_vector(site, op):
    """Coefficients of a VecOp over the atoms L_0, R_0, L_1, R_1, ..."""
    vec = np.zeros(2 * site.nfac, dtype=complex)
    for coef, side, f in op:
        vec[2 * f + (side == "R")] += coef
    return vec


def _atom_dirs(site, f, x):
    """op_alpha(e_j) on factor f at factor value x, for every atom alpha and
    basis index j (alpha-major rows, matching kron(K, H)).

    x may carry leading batch axes: the result has shape (2 nfac d, ..., n, n)
    and is zero on the rows of the other factors' atoms.  Linear in x.
    """
    basis = np.stack(site.model.basis)
    d = len(basis)
    basis = basis.reshape((d,) + (1,) * (np.ndim(x) - 2) + basis.shape[1:])
    out = np.zeros((2 * site.nfac * d,) + np.shape(x), dtype=complex)
    out[2 * f * d:(2 * f + 1) * d] = x @ basis
    out[(2 * f + 1) * d:(2 * f + 2) * d] = basis @ x
    return out


class Bivector:
    """sum K[alpha, beta] (op_alpha (x) op_beta)(H), H the invariant 2-tensor.

    terms are (coef, op1, op2) triples over VecOps; each adds
    coef * outer(op1, op2) to the atom coefficient matrix K (no
    antisymmetrization), whose shape (2 nfac, 2 nfac) is fixed by the site.
    """

    def __init__(self, site, terms):
        self.site = site
        self.kmat = np.zeros((2 * site.nfac, 2 * site.nfac), dtype=complex)
        for c, op1, op2 in terms:
            self.kmat += complex(c) * np.outer(_atom_vector(site, op1),
                                               _atom_vector(site, op2))

    def _with_kmat(self, kmat):
        out = Bivector(self.site, ())
        out.kmat = kmat
        return out

    def __add__(self, other):
        if other.site is not self.site:
            raise BadSignature("bivectors live on different sites")
        return self._with_kmat(self.kmat + other.kmat)

    def scaled(self, c):
        return self._with_kmat(c * self.kmat)

    def _atom_tensor(self):
        """kron(K, H): the tensor on the atom directions op_alpha(e_j)."""
        return np.kron(self.kmat, self.site.pairing.require_upper())

    def frame_matrix(self, point, frame=None):
        """Antisymmetric coefficient matrix P^{ab} in the frame at the point."""
        frame = frame or point.frame()
        # rows: frame components of every atom direction, (2 nfac d, N)
        b = frame.components([_atom_dirs(self.site, f, q)
                              for f, q in enumerate(point.mats)])
        return b.T @ self._atom_tensor() @ b

    def ambient_matrix(self, point):
        """The 2-tensor on vec'd ambient tangents, (nfac n^2, nfac n^2)."""
        nrows = 2 * self.site.nfac * self.site.model.d
        v = np.concatenate([_atom_dirs(self.site, f, q).reshape(nrows, -1)
                            for f, q in enumerate(point.mats)], axis=1)
        return v.T @ self._atom_tensor() @ v


# ---------------------------------------------------------------------------
# 2-form fields
# ---------------------------------------------------------------------------

@dataclass
class PairTerm:
    """coef * (u, v)-pullback of (omega_1 . omegabar_2) style pairings."""

    coef: complex
    word_u: tuple
    side_u: str          # "omega" | "omegabar"
    word_v: tuple
    side_v: str


@dataclass
class TauTerm:
    """Class-factor 2-form: half the lift paired against both trivializations."""

    factor: int
    coef: complex = 1.0


def dual_vdot(smat, a, b):
    """a^T S b on coefficient vectors, Dual-transparent in a and b."""
    if isinstance(a, Dual):
        if isinstance(b, Dual):
            return Dual(dual_vdot(smat, a.re, b.re),
                        dual_vdot(smat, a.re, b.eps) + dual_vdot(smat, a.eps, b.re))
        return Dual(dual_vdot(smat, a.re, b), dual_vdot(smat, a.eps, b))
    if isinstance(b, Dual):
        return Dual(dual_vdot(smat, a, b.re), dual_vdot(smat, a, b.eps))
    return np.einsum("...j,jk,...k->...", a, smat, b)


def _lift_plain(model, q, v, tol=1e-8):
    cols = [(q @ b - b @ q).reshape(-1) for b in model.basis]
    fmat = np.stack(cols, axis=1)
    flat = np.asarray(v, dtype=complex).reshape(-1)
    c, *_ = np.linalg.lstsq(fmat, flat, rcond=None)
    if np.linalg.norm(fmat @ c - flat) > tol * (1 + np.linalg.norm(flat)):
        raise LiftFailed("tangent is not a conjugation direction on this factor")
    return c


class FormField:
    """2-form as pullback-pairing terms plus class-factor terms."""

    def __init__(self, site, pair_terms=(), tau_terms=()):
        self.site = site
        self.pair_terms = list(pair_terms)
        self.tau_terms = list(tau_terms)

    def __add__(self, other):
        if other.site is not self.site:
            raise BadSignature("forms live on different sites")
        return FormField(self.site, self.pair_terms + other.pair_terms,
                         self.tau_terms + other.tau_terms)

    def scaled(self, c):
        return FormField(
            self.site,
            [PairTerm(c * t.coef, t.word_u, t.side_u, t.word_v, t.side_v)
             for t in self.pair_terms],
            [TauTerm(t.factor, c * t.coef) for t in self.tau_terms])

    def _theta(self, word, side, mats, tangent):
        """Trivialized coefficients of the word-derivative of a tangent."""
        model = self.site.model
        g = word_eval(word, mats)
        dv = word_tangent(word, mats, tangent)
        gi = dinv(g)
        m = gi @ dv if side == "omega" else dv @ gi
        return apply_linear(model.basis_pinv, m)

    def evaluate(self, mats, t1, t2):
        """Value on two Tangents; Dual-transparent (class lifts must be known
        on Dual inputs, and are solved least-squares on plain ones)."""
        model = self.site.model
        smat = self.site.pairing.eta_lower
        total = 0.0
        for term in self.pair_terms:
            a1 = self._theta(term.word_u, term.side_u, mats, t1)
            b2 = self._theta(term.word_v, term.side_v, mats, t2)
            a2 = self._theta(term.word_u, term.side_u, mats, t2)
            b1 = self._theta(term.word_v, term.side_v, mats, t1)
            total = total + term.coef * (dual_vdot(smat, a1, b2) - dual_vdot(smat, a2, b1))
        for term in self.tau_terms:
            f = term.factor
            total = total + term.coef * self._tau_value(f, mats, t1, t2)
        return total

    def _tau_value(self, f, mats, t1, t2):
        model = self.site.model
        smat = self.site.pairing.eta_lower
        v = t1.comps[f] if isinstance(t1, Tangent) else t1[f]
        w = t2.comps[f] if isinstance(t2, Tangent) else t2[f]
        if v is None or w is None:
            return 0.0
        if isinstance(t1, Tangent) and f in t1.lifts:
            x = t1.lifts[f]
        elif isinstance(v, Dual):
            raise LiftFailed("class lift required for Dual tangents")
        else:
            x = _lift_plain(model, np.asarray(mats[f]), v)
        q = mats[f]
        qi = dinv(q)
        wl = apply_linear(model.basis_pinv, qi @ w)
        wr = apply_linear(model.basis_pinv, w @ qi)
        return 0.5 * dual_vdot(smat, x, wl + wr)

    def frame_matrix(self, point, frame=None):
        """Antisymmetric coefficient matrix sigma_{ab} in the frame at the
        point, from the trivialized word differentials of all frame vectors."""
        frame = frame or point.frame()
        model = self.site.model
        smat = self.site.pairing.eta_lower
        diffs = {}

        def theta(word, side):
            if word not in diffs:
                diffs[word] = word_differentials(frame, word)
            left, right, _ = diffs[word]
            return left if side == "omega" else right

        full = np.zeros((frame.dim, frame.dim), dtype=complex)
        for term in self.pair_terms:
            tu = theta(term.word_u, term.side_u)
            cross = tu @ smat @ theta(term.word_v, term.side_v).T
            full += term.coef * (cross - cross.T)
        for term in self.tau_terms:
            f = term.factor
            vecs = frame.per_factor[f]
            if not vecs:
                continue
            q = point.mats[f]
            lifts = frame.lifts[f] or [_lift_plain(model, q, v) for v in vecs]
            qi = np.linalg.inv(q)
            stack = np.stack(vecs)
            # both trivializations of every class frame vector, summed
            w = apply_linear(model.basis_pinv, qi @ stack + stack @ qi)
            rows = slice(frame.offsets[f], frame.offsets[f] + len(vecs))
            full[rows, rows] += term.coef * 0.5 * (np.stack(lifts) @ smat @ w.T)
        # the pairs a < b, as a pairwise evaluation would visit them
        upper = np.triu(full, 1)
        return upper - upper.T


# ---------------------------------------------------------------------------
# sections and the pointwise exterior derivative
# ---------------------------------------------------------------------------

@dataclass
class Section:
    """Constant-coefficient section: left-invariant or conjugation direction."""

    factor: int
    kind: str            # "left" | "fund"
    x: np.ndarray        # algebra coefficients

    def __post_init__(self):
        if self.kind not in ("left", "fund"):
            raise BadSignature(f"unknown section kind {self.kind!r}")
        self.x = np.asarray(self.x, dtype=complex)


def section_value(site, sec, mats):
    """Tangent of the section at the (possibly Dual) factor matrices."""
    x = site.model.from_coeffs(sec.x)
    comps = [None] * site.nfac
    q = mats[sec.factor]
    if sec.kind == "left":
        comps[sec.factor] = q @ x
        return Tangent(comps)
    comps[sec.factor] = q @ x - x @ q
    return Tangent(comps, lifts={sec.factor: sec.x})


def section_bracket(site, s1, s2):
    """Lie bracket of two sections (None when they commute for shape reasons)."""
    if s1.factor != s2.factor:
        return None
    if s1.kind != s2.kind:
        raise BadSignature("mixed section kinds on one factor are not closed")
    x = site.model.bracket_coeffs(s1.x, s2.x)
    return Section(s1.factor, s1.kind, x)


def _section_derivative(site, form, point, dsec, s1, s2):
    """Derivative along dsec of the scalar p -> form_p(s1(p), s2(p))."""
    base = section_value(site, dsec, point.mats)
    mats = []
    for i, q in enumerate(point.mats):
        v = base.comps[i]
        mats.append(q if v is None else Dual(q, v))
    t1 = section_value(site, s1, mats)
    t2 = section_value(site, s2, mats)
    out = form.evaluate(mats, t1, t2)
    return out.eps if isinstance(out, Dual) else 0.0


def exterior_d3(site, form, point, s1, s2, s3):
    """Pointwise d(form) on three constant sections.

    X s(Y,Z) - Y s(X,Z) + Z s(X,Y) - s([X,Y],Z) + s([X,Z],Y) - s([Y,Z],X).
    """
    d1 = _section_derivative(site, form, point, s1, s2, s3)
    d2 = _section_derivative(site, form, point, s2, s1, s3)
    d3 = _section_derivative(site, form, point, s3, s1, s2)
    total = d1 - d2 + d3

    def ev(sa, sb):
        ta = section_value(site, sa, point.mats)
        tb = section_value(site, sb, point.mats)
        return form.evaluate(point.mats, ta, tb)

    b12 = section_bracket(site, s1, s2)
    b13 = section_bracket(site, s1, s3)
    b23 = section_bracket(site, s2, s3)
    if b12 is not None:
        total = total - ev(b12, s3)
    if b13 is not None:
        total = total + ev(b13, s2)
    if b23 is not None:
        total = total - ev(b23, s1)
    return total


# ---------------------------------------------------------------------------
# the cubic form, its pullbacks, and 2-chain forms
# ---------------------------------------------------------------------------

def eval_lambda(model, pairing, g, v1, v2, v3):
    """Trilinear trivialized form at a group matrix on three ambient tangents."""
    gi = np.linalg.inv(g)
    w1 = model.coeffs(gi @ v1)
    w2 = model.coeffs(gi @ v2)
    w3 = model.coeffs(gi @ v3)
    smat = pairing.eta_lower
    val = (np.einsum("j,jk,k->", model.bracket_coeffs(w1, w2), smat, w3)
           + np.einsum("j,jk,k->", model.bracket_coeffs(w2, w3), smat, w1)
           + np.einsum("j,jk,k->", model.bracket_coeffs(w3, w1), smat, w2))
    return val / 6.0


def two_chain_form(site, chain):
    """2-form of a formal chain: list of (coef, word_text_u, word_text_v)."""
    from .groupgeom import parse_word

    terms = []
    for coef, u, v in chain:
        terms.append(PairTerm(0.5 * coef, parse_word(site, u), "omega",
                              parse_word(site, v), "omegabar"))
    return FormField(site, pair_terms=terms)


# ---------------------------------------------------------------------------
# brackets and the Jacobiator (batched nested duals)
# ---------------------------------------------------------------------------

def _atom_gradient(site, mats, fn):
    """fn's derivative along every atom direction at the point: (2 nfac d,)."""
    lifted = [Dual(q, _atom_dirs(site, f, q)) for f, q in enumerate(mats)]
    out = fn(lifted)
    nrows = 2 * site.nfac * site.model.d
    if not isinstance(out, Dual):
        return np.zeros(nrows, dtype=complex)
    return np.broadcast_to(np.asarray(out.eps), (nrows,)).copy()


def _atom_hessian(site, mats, fn):
    """fn's gradient g along the atom direction fields and its derivative
    W[r, s] along the atom direction s, by one nested-dual evaluation.

    W includes the change of the direction field r itself (q e_j moves with
    q), so D_s {fa, fb} = 2 (W_a^T M g_b + W_b^T M^T g_a)[s] for M the atom
    tensor.  Returns (g (B,), W (B, B)), B = 2 nfac d.
    """
    nrows = 2 * site.nfac * site.model.d
    lifted = []
    for f, q in enumerate(mats):
        e = _atom_dirs(site, f, q)          # outer batch (s)
        # inner batch (r) at the outer-perturbed point: axes (r, s, n, n)
        lifted.append(Dual(Dual(q, e), Dual(e[:, None], _atom_dirs(site, f, e))))
    out = fn(lifted)
    if not isinstance(out, Dual):
        return np.zeros(nrows, dtype=complex), np.zeros((nrows, nrows), dtype=complex)
    grad = out.eps
    if not isinstance(grad, Dual):
        raise AssertionError("nested dual structure was lost")
    at_base = np.broadcast_to(np.asarray(grad.re), (nrows, 1))[:, 0].copy()
    mixed = np.broadcast_to(np.asarray(grad.eps), (nrows, nrows)).copy()
    return at_base, mixed


# The bracket of two functions pairs the bivector's antisymmetric tensor with
# the full tensor da (x) db - db (x) da, so each +/- term pair of the tensor is
# met in both slot orders: the result is twice the single-contraction value
# da . Pmat . db.  Maps derived from the tensor itself (P-sharp, duality,
# momentum) stay single-contraction; only function brackets carry this weight.
PAIR_WEIGHT = 2.0


def bracket_funcs(biv, point, f1, f2):
    """Bracket {f1, f2} of two scalar functions at a point (full pairing)."""
    m = biv._atom_tensor()
    g1 = _atom_gradient(biv.site, point.mats, f1)
    g2 = _atom_gradient(biv.site, point.mats, f2)
    return PAIR_WEIGHT * (g1 @ m @ g2)


def jacobiator(biv, point, f1, f2, f3):
    """Cyclic sum {{f1,f2},f3} + {{f2,f3},f1} + {{f3,f1},f2}.

    Each function is differentiated once, to second order along the atom
    directions; the outer derivative of each inner bracket is exact.
    """
    m = biv._atom_tensor()
    grads, mixed = zip(*(_atom_hessian(biv.site, point.mats, fn) for fn in (f1, f2, f3)))
    total = 0.0
    for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        d_inner = mixed[a].T @ m @ grads[b] + mixed[b].T @ m.T @ grads[a]
        total = total + d_inner @ m @ grads[c]
    # inner and outer bracket each carry the full-pairing weight
    return PAIR_WEIGHT * PAIR_WEIGHT * total
