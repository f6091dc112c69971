"""Pointwise tensor calculus on sites.

Tangent operators are coefficient vectors over the atoms -- the left and
right translations L_f, R_f of every factor f, in the order L_0, R_0, L_1,
R_1, ... -- and one notation serves actions and bivector slots alike.  A
bivector is one coefficient matrix K over the same atoms, contracted through
the invariant 2-tensor H, so that P = sum K[alpha, beta] (op_alpha (x)
op_beta)(H); `wedge` builds K from operators and fusion only updates it,
and each bivector builds its atom tensor kron(K, H) once.
A 2-form is a list of pullback pairings of trivialization forms plus class
terms.  Both evaluate transparently at Dual-perturbed points, which is what
makes exact exterior derivatives and Jacobiators cheap.
Constant sections are arrays of factor indices and algebra coefficients, of
the kind their factor gives them (`section_value`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .duals import Dual, apply_linear, dtrace, matmul
from .errors import BadSignature, LiftFailed
from .groupgeom import Tangent, Words

__all__ = [
    "op_L",
    "op_R",
    "op_fund",
    "op_apply",
    "wedge",
    "Bivector",
    "PairTerm",
    "TauTerm",
    "FormField",
    "section_value",
    "exterior_d3",
    "eval_lambda",
    "differential",
    "bracket_funcs",
    "jacobiator",
    "dual_vdot",
]


# ---------------------------------------------------------------------------
# tangent operators: coefficient vectors over the atoms L_0, R_0, L_1, R_1, ...
# ---------------------------------------------------------------------------

def op_L(site, factor):
    """The atom L_f: q -> q x on factor f."""
    return np.eye(2 * site.nfac)[2 * factor]


def op_R(site, factor):
    """The atom R_f: q -> x q on factor f."""
    return np.eye(2 * site.nfac)[2 * factor + 1]


def op_fund(site, factors):
    """Conjugation direction q X - X q over a set of factors: the sum of
    L_f - R_f."""
    return sum(op_L(site, f) - op_R(site, f) for f in factors)


def op_apply(op, mats, x):
    """Apply the operator to algebra element x at the given factor matrices:
    c_L q x + c_R x q on every factor q, from its two atom coefficients.

    Returns a per-factor component list (None = zero); Dual-transparent in mats.
    """
    comps = [None] * len(mats)
    for f, q in enumerate(mats):
        c_left, c_right = op[2 * f], op[2 * f + 1]
        if c_left:
            comps[f] = c_left * (q @ x)
        if c_right:
            term = c_right * (x @ q)
            comps[f] = term if comps[f] is None else comps[f] + term
    return comps


def wedge(a, b):
    """(1/2)(a (x) b - b (x) a): the atom coefficient matrix of a ^ b."""
    return 0.5 * (np.outer(a, b) - np.outer(b, a))


# ---------------------------------------------------------------------------
# bivector fields
# ---------------------------------------------------------------------------

def _atom_dirs(basis, k, nlift, x):
    """op_alpha(e_j) on the k-th of nlift lifted factors, at its factor value
    x, for every atom alpha of those factors and basis index j (alpha-major
    rows, matching kron(K, H) on their atoms).

    x may carry leading batch axes: the result has shape (2 nlift d, ..., n,
    n) and is zero on the rows of the other factors' atoms.  Linear in x.  On
    a stack of matrices x each side is one GEMM (`duals.matmul`).
    """
    d = len(basis)
    basis = basis.reshape((d,) + (1,) * (np.ndim(x) - 2) + basis.shape[1:])
    out = np.zeros((2 * nlift * d,) + np.shape(x), dtype=complex)
    out[2 * k * d:(2 * k + 1) * d] = matmul(x, basis)
    out[(2 * k + 1) * d:(2 * k + 2) * d] = matmul(basis, x)
    return out


class Bivector:
    """sum K[alpha, beta] (op_alpha (x) op_beta)(H), H the invariant 2-tensor.

    kmat is the atom coefficient matrix K, of the shape (2 nfac, 2 nfac)
    fixed by the site; sums of `wedge` terms build it.  atom_tensor is
    kron(K, H), the tensor on the atom directions op_alpha(e_j).
    """

    def __init__(self, site, kmat):
        self.site = site
        self.kmat = np.asarray(kmat, dtype=complex)
        self.atom_tensor = np.kron(self.kmat, site.pairing.eta_upper)

    def __add__(self, other):
        if other.site is not self.site:
            raise BadSignature("bivectors live on different sites")
        return Bivector(self.site, self.kmat + other.kmat)

    def frame_matrix(self, point):
        """Antisymmetric coefficient matrix P^{ab} in the frame at the point,
        built once per batch of points (read-only)."""
        return point.memo(self, self._frame_matrix)

    def _frame_matrix(self, batch):
        frame, basis = batch.frame(), self.site.model.basis
        d = len(basis)
        # rows: frame components of every atom direction, (S, 2 nfac d, N);
        # factor f's atoms have components on f's frame rows only
        b = np.zeros((len(batch.mats), 2 * self.site.nfac * d, frame.dim),
                     dtype=complex)
        for f, q in enumerate(batch.mats.swapaxes(0, 1)):
            q = q[:, None]
            dirs = [None] * self.site.nfac
            dirs[f] = np.concatenate([q @ basis, basis @ q], axis=1)
            b[:, 2 * f * d:(2 * f + 2) * d] = frame.components(dirs)
        return b.swapaxes(-1, -2) @ self.atom_tensor @ b

    def ambient_matrix(self, point):
        """The 2-tensor on vec'd ambient tangents, (nfac n^2, nfac n^2)."""
        nfac, basis = self.site.nfac, self.site.model.basis
        v = np.concatenate([_atom_dirs(basis, f, nfac, q).reshape(-1, q.size)
                            for f, q in enumerate(point.mats)], axis=1)
        return v.T @ self.atom_tensor @ v


# ---------------------------------------------------------------------------
# 2-form fields
# ---------------------------------------------------------------------------

@dataclass
class PairTerm:
    """coef * (omega_u . omegabar_v): the left-trivialized form pulled back
    through word_u paired with the right-trivialized form through word_v."""

    coef: complex
    word_u: tuple
    word_v: tuple


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

    def evaluate(self, mats, t1, t2):
        """Value on two Tangents; Dual-transparent.  A class term reads the
        first tangent's lift on its factor (LiftFailed when it has none).

        Tangent components and lifts may carry leading batch axes, the same
        on both tangents, against which the factor matrices (and a Dual
        factor's perturbation) broadcast; the value then has one entry per
        batch entry.  One `Words` store per call inverts each factor read
        inverted and each word's value once and sweeps the words along both
        tangents at once.
        """
        model = self.site.model
        smat = self.site.pairing.eta_lower
        words, pair = Words(mats, None), {0: t1, 1: t2}
        thetas = {}

        def theta(word, side, i):
            """Trivialized coefficients of the word-derivative of tangent i,
            left (side 0, omega) or right (side 1, omegabar)."""
            key = (word, side, i)
            if key not in thetas:
                dv = words.derivative(word, pair, i)
                gi = words.inverse(word)
                m = matmul(gi, dv) if side == 0 else matmul(dv, gi)
                thetas[key] = apply_linear(model.basis_pinv, m)
            return thetas[key]

        total = 0.0
        for term in self.pair_terms:
            a1 = theta(term.word_u, 0, 0)
            b2 = theta(term.word_v, 1, 1)
            a2 = theta(term.word_u, 0, 1)
            b1 = theta(term.word_v, 1, 0)
            total = total + term.coef * (dual_vdot(smat, a1, b2) - dual_vdot(smat, a2, b1))
        for term in self.tau_terms:
            total = total + term.coef * self._tau_value(
                term.factor, words.inverses, t1, t2)
        return total

    def _tau_value(self, f, inverses, t1, t2):
        model = self.site.model
        smat = self.site.pairing.eta_lower
        w = t2.comps[f]
        if t1.comps[f] is None or w is None:
            return 0.0
        if f not in t1.lifts:
            raise LiftFailed("a class term needs the tangent's lift")
        x = t1.lifts[f]
        qi = inverses[f]
        wl = apply_linear(model.basis_pinv, qi @ w)
        wr = apply_linear(model.basis_pinv, w @ qi)
        return 0.5 * dual_vdot(smat, x, wl + wr)

    def frame_matrix(self, point):
        """Antisymmetric coefficient matrix sigma_{ab} in the frame at the
        point, from the trivialized word differentials of all frame vectors;
        built once per batch of points (read-only)."""
        return point.memo(self, self._frame_matrix)

    def _frame_matrix(self, batch):
        frame = batch.frame()
        model = self.site.model
        smat = self.site.pairing.eta_lower
        full = np.zeros((len(batch.mats), frame.dim, frame.dim), dtype=complex)
        for term in self.pair_terms:
            tu = batch.word_differentials(term.word_u)[0]
            tv = batch.word_differentials(term.word_v)[1]
            cross = tu @ smat @ tv.swapaxes(-1, -2)
            full += term.coef * (cross - cross.swapaxes(-1, -2))
        for term in self.tau_terms:
            f = term.factor
            vecs, rows = frame.per_factor[f], frame.rows[f]
            qi = batch.inverses()[:, f, None]
            # both trivializations of every class frame vector, summed
            w = apply_linear(model.basis_pinv, qi @ vecs + vecs @ qi)
            full[:, rows, rows] += term.coef * 0.5 * (
                frame.lifts[f] @ smat @ w.swapaxes(-1, -2))
        # the pairs a < b, as a pairwise evaluation would visit them
        upper = np.triu(full, 1)
        return upper - upper.swapaxes(-1, -2)


# ---------------------------------------------------------------------------
# constant sections and the pointwise exterior derivative
# ---------------------------------------------------------------------------

def section_value(site, fac, x, mats):
    """Tangent of a stack of constant sections, given by their factor
    indices fac (...,) and algebra coefficients x (..., d), as one batched
    Tangent with fac's axes (entry k zero on the factors other than fac[k]),
    at the (possibly Dual) factor matrices, which broadcast against those
    axes.  A section's kind is its factor's: the left-invariant q x on a
    group factor, the conjugation direction q x - x q on a class factor,
    whose lifts x are stacked per factor."""
    model = site.model
    comps, lifts = [None] * site.nfac, {}
    for f in set(np.ravel(fac).tolist()):
        on = fac == f
        left = np.zeros(on.shape + (model.n, model.n), dtype=complex)
        left[on] = model.from_coeffs(x[on])
        q = mats[f]
        if site.factors[f].kind == "class":
            comps[f] = q @ left - matmul(left, q)
            lifts[f] = np.where(on[..., None], x, 0j)
        else:
            comps[f] = q @ left
    return Tangent(comps, lifts)


def exterior_d3(site, form, mats, fac, x):
    """Pointwise d(form) on triples (X, Y, Z) of constant sections:

    X s(Y,Z) - Y s(X,Z) + Z s(X,Y) - s([X,Y],Z) + s([X,Z],Y) - s([Y,Z],X),

    at P points at once: mats is the (P, nfac, n, n) stack of their factor
    matrices, and each point's T triples are the rows of the factor indices
    fac (P, T, 3) and the coefficients x (P, T, 3, d) (`section_value`).
    Returns one value per triple, point by point.

    The derivative terms are the rows of one Dual evaluation laid out as
    (point, row): each factor, its inverse, each word's value and its
    running product once per point, as (P, 1, n, n) stacks, and the
    perturbations and section tangents per row, as (P, R, n, n) stacks;
    each row perturbs its point along its own derivative section only.  Two
    sections bracket to zero unless they share a factor, where
    `bracket_coeffs` gives the bracket; the bracket terms are the flat rows
    of one plain evaluation, each at its own point's factors.
    """
    npts, ntrip = fac.shape[:2]
    at = np.swapaxes(mats, 0, 1)[:, :, None]

    def rows(slots):
        """Per point the sections in these slots of its triples, triple by
        triple, as (P, 3T) rows."""
        return (fac[:, :, slots].reshape(npts, 3 * ntrip),
                x[:, :, slots].reshape(npts, 3 * ntrip, -1))

    base = section_value(site, *rows([0, 1, 2]), at)
    dmats = [q if v is None else Dual(q, v) for q, v in zip(at, base.comps)]
    out = form.evaluate(dmats, section_value(site, *rows([1, 0, 0]), dmats),
                        section_value(site, *rows([2, 2, 1]), dmats))
    d = np.broadcast_to(out.eps if isinstance(out, Dual) else 0.0,
                        (npts, 3 * ntrip)).reshape(-1, 3)
    total = np.array(d[:, 0] - d[:, 1] + d[:, 2], dtype=complex)

    # per bracket term: its sign, its two bracketed slots and its other slot
    sign, a, b, other = np.array([(-1, 0, 1, 2), (1, 0, 2, 1), (-1, 1, 2, 0)]).T
    # every bracket term that can be nonzero, in (point, triple, term) order
    p, t, k = np.nonzero(fac[:, :, a] == fac[:, :, b])
    if len(p):
        flat = np.swapaxes(mats[p], 0, 1)
        brx = site.model.bracket_coeffs(x[p, t, a[k]], x[p, t, b[k]])
        vals = np.broadcast_to(form.evaluate(
            flat, section_value(site, fac[p, t, a[k]], brx, flat),
            section_value(site, fac[p, t, other[k]], x[p, t, other[k]], flat)),
            p.shape)
        # in order per triple, as the terms are written above
        np.add.at(total, p * ntrip + t, np.where(sign[k] < 0, -vals, vals))
    return total


# ---------------------------------------------------------------------------
# the cubic form, its pullbacks, and 2-chain forms
# ---------------------------------------------------------------------------

def eval_lambda(model, pairing, gi, v1, v2, v3):
    """Trilinear trivialized form at a group matrix, given by its inverse gi,
    on three ambient tangents (leading batch axes allowed, one value per
    entry)."""
    w1 = model.coeffs(gi @ v1)
    w2 = model.coeffs(gi @ v2)
    w3 = model.coeffs(gi @ v3)
    smat = pairing.eta_lower

    def cyclic(x, y, z):
        br = np.einsum("kuv,...u,...v->...k", model.struct, x, y)
        return np.einsum("...j,jk,...k->...", br, smat, z)

    val = cyclic(w1, w2, w3) + cyclic(w2, w3, w1) + cyclic(w3, w1, w2)
    return val / 6.0


# ---------------------------------------------------------------------------
# differentials, brackets and the Jacobiator
# ---------------------------------------------------------------------------

def differential(point, fn):
    """Frame components of df at the point.  The trace of a non-empty word
    (a function with a `word`, as `charvar.TraceFunction`) reads
    d tr(W) = tr(dW) from the sweep of the point's batch
    (`SitePoint.word_derivative`); any other function takes one Dual
    evaluation that carries every frame vector as a batch of
    perturbations."""
    word = getattr(fn, "word", None)
    if word:
        return dtrace(point.word_derivative(word)[1])
    frame = point.frame()
    out = fn([Dual(q, v) for q, v in zip(point.mats, frame.stacked)])
    if not isinstance(out, Dual):
        return np.zeros(frame.dim, dtype=complex)
    return np.broadcast_to(np.asarray(out.eps), (frame.dim,)).astype(complex)


class _FactorReads:
    """Factor matrices by index, as a function reads them (indexing or
    iteration): records every index read, and raises LiftFailed on an index
    it does not hold."""

    def __init__(self, mats, nfac):
        self.mats, self.nfac, self.read = mats, nfac, set()

    def __getitem__(self, f):
        f = range(self.nfac)[f]
        if f not in self.mats:
            raise LiftFailed(f"the function read factor {f}, which its probe "
                             f"evaluation did not read")
        self.read.add(f)
        return self.mats[f]


def _atom_hessian(site, mats, fn):
    """fn's gradient g along the atom direction fields and its derivative
    W[r, s] along the atom direction s, by one nested-dual evaluation.

    A plain probe evaluation finds the factors fn reads, and only those are
    lifted, on their own atom rows: the outer perturbation runs over the atom
    directions s, the inner over the atom direction fields r, moved along s
    (axes (r, s, n, n)).  The rows of the other factors' atoms are zero in g
    and W; a lifted evaluation that reads another factor raises LiftFailed.
    W includes the change of the direction field r itself (q e_j moves with
    q), so D_s {fa, fb} = 2 (W_a^T M g_b + W_b^T M^T g_a)[s] for M the atom
    tensor.  Returns (g (B,), W (B, B)), B = 2 nfac d.
    """
    basis, d = site.model.basis, site.model.d
    probe = _FactorReads(dict(enumerate(mats)), site.nfac)
    fn(probe)
    read = sorted(probe.read)
    lifted = {}
    for k, f in enumerate(read):
        e = _atom_dirs(basis, k, len(read), mats[f])
        lifted[f] = Dual(Dual(mats[f], e),
                         Dual(e[:, None], _atom_dirs(basis, k, len(read), e)))
    out = fn(_FactorReads(lifted, site.nfac))
    nrows = 2 * site.nfac * d
    at_base = np.zeros(nrows, dtype=complex)
    mixed = np.zeros((nrows, nrows), dtype=complex)
    if not isinstance(out, Dual):
        return at_base, mixed
    grad = out.eps
    if not isinstance(grad, Dual):
        raise AssertionError("nested dual structure was lost")
    rows = np.concatenate([np.arange(2 * f * d, 2 * (f + 1) * d) for f in read])
    at_base[rows] = np.broadcast_to(np.asarray(grad.re), (len(rows), 1))[:, 0]
    mixed[np.ix_(rows, rows)] = np.broadcast_to(np.asarray(grad.eps),
                                                (len(rows), len(rows)))
    return at_base, mixed


# The bracket of two functions pairs the bivector's antisymmetric tensor with
# the full tensor da (x) db - db (x) da, so each +/- term pair of the tensor is
# met in both slot orders: the result is twice the single-contraction value
# da . Pmat . db.  Maps derived from the tensor itself (P-sharp, duality,
# momentum) stay single-contraction; only function brackets carry this weight.
PAIR_WEIGHT = 2.0


def bracket_funcs(biv, point, f1, f2):
    """Bracket {f1, f2} of two scalar functions at a point (full pairing):
    2 df1 . P . df2 with P the bivector's frame matrix.

    On class factors the frame spans the class tangents only, so this is the
    bracket of the tensor as restricted to the class; the shipped bivectors
    are tangent to the classes (`restrict_to_class` measures it).
    """
    pmat = biv.frame_matrix(point)
    return PAIR_WEIGHT * (differential(point, f1) @ pmat @ differential(point, f2))


def jacobiator(biv, point, f1, f2, f3):
    """Cyclic sum {{f1,f2},f3} + {{f2,f3},f1} + {{f3,f1},f2}.

    Each function is differentiated once, to second order along the atom
    directions of the factors it reads (`_atom_hessian`); the outer
    derivative of each inner bracket is exact.  It reads
    the atom tensor, not the frame matrix P, since it needs the derivative of
    the atom direction fields, and so stays independent of P.
    """
    m = biv.atom_tensor
    grads, mixed = zip(*(_atom_hessian(biv.site, point.mats, fn)
                         for fn in (f1, f2, f3)))
    total = 0.0
    for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        d_inner = mixed[a].T @ m @ grads[b] + mixed[b].T @ m.T @ grads[a]
        total = total + d_inner @ m @ grads[c]
    # inner and outer bracket each carry the full-pairing weight
    return PAIR_WEIGHT * PAIR_WEIGHT * total
