"""Matrix Lie algebra models, invariant pairings, and the cubic tensor identities.

A model is a concrete basis of n-by-n complex matrices closed under the
commutator; everything downstream (coefficients, adjoint matrices, the cubic
tensor phi) is computed against that basis by exact linear algebra with
explicit residual guards.  Random group elements come from one draw,
`random_group_elements`: one block of normals for all their coefficients,
exponentiated as one grouped exponential; `seeded_group_elements` stacks
the blocks that several seeds' generators draw, and exponentiates them as
one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .duals import _dexpm_rows
from .errors import (
    DegeneratePairing,
    NotClosed,
    NotConvenient,
    NotInSpan,
    RankDeficient,
)

__all__ = [
    "LieAlgebraModel",
    "PairingData",
    "build_lie_algebra",
    "trace_pairing",
    "adjoint_matrix",
    "random_group_elements",
    "seeded_group_elements",
    "ad_invariance_residual",
    "cubic_alternation",
    "cartan3",
    "verify_chi_identity",
]

_SPAN_TOL = 1e-8            # coefficient expansion: span residual, relative
_BLOCK_TOL = 1e-10          # a basis matrix is traceless on a block below this, relative
_CLOSURE_TOL = 1e-10        # commutators leave the span above this, relative
_SYMMETRY_TOL = 1e-10       # pairing tensors and cubic tensor alternation
_SAMPLE_SCALE = 0.35        # std of the real and imaginary part of a random coefficient
_RANK_TOL = 1e-8            # the rank rule's cut, relative to the largest singular value
_AD_SAMPLES = 16            # adjoint actions sampled by ad_invariance_residual


class LieAlgebraModel:
    """Basis, structure constants and coefficient extraction for one algebra."""

    def __init__(self, basis, struct, basis_mat, basis_pinv, closure_residual):
        self.basis = basis                      # (d, n, n) complex, read-only
        self.struct = struct                    # (d, d, d): [e_u, e_v] = struct[k,u,v] e_k
        self.basis_mat = basis_mat              # (n*n, d) flattened basis columns
        self.basis_pinv = basis_pinv            # (d, n*n) least-squares extractor
        self.closure_residual = closure_residual
        self.d, self.n = basis.shape[:2]
        # the diagonal blocks: a block ends where no basis matrix couples the
        # rows before it with the rows after it
        support = np.any(basis != 0, axis=0)
        cuts = [0] + [k for k in range(1, self.n)
                      if not (support[:k, k:].any() or support[k:, :k].any())]
        self.blocks = [slice(a, b) for a, b in zip(cuts, cuts[1:] + [self.n])]
        # those where every basis matrix is traceless (SL, sl(2) of sl2_abelian)
        scale = _BLOCK_TOL * (1 + np.abs(basis).max(axis=(1, 2)))
        self.traceless_blocks = [blk for blk in self.blocks if np.all(
            np.abs(np.trace(basis[:, blk, blk], axis1=1, axis2=2)) <= scale)]

    def coeffs(self, mat):
        """Expand n-by-n matrices (leading batch axes allowed) in the basis;
        NotInSpan when the span residual exceeds _SPAN_TOL (relative)."""
        mat = np.asarray(mat, dtype=complex)
        flat = mat.reshape(mat.shape[:-2] + (mat.shape[-2] * mat.shape[-1],))
        # a stack of matrix-vector products rounds like the unbatched one
        c = (self.basis_pinv @ flat[..., None])[..., 0]
        resid = np.linalg.norm((self.basis_mat @ c[..., None])[..., 0] - flat,
                               axis=-1)
        if np.any(resid > _SPAN_TOL * (1.0 + np.linalg.norm(flat, axis=-1))):
            raise NotInSpan(f"matrix outside algebra span "
                            f"(residual {np.max(resid):.3e})")
        return c

    def from_coeffs(self, c):
        """Matrix of a coefficient vector; leading batch axes are kept."""
        c = np.asarray(c, dtype=complex)
        return np.einsum("...j,jab->...ab", c, self.basis)

    def bracket_coeffs(self, x, y):
        """Structure-constant bracket of two coefficient vectors; leading
        batch axes, the same on both, are kept."""
        return np.einsum("kuv,...u,...v->...k", self.struct, x, y)


def build_lie_algebra(basis):
    """Structure constants by least squares against the flattened basis.

    Raises RankDeficient for dependent bases and NotClosed when some commutator
    leaves the span by more than _CLOSURE_TOL (relative to its size).
    """
    mats = [np.asarray(b, dtype=complex) for b in basis]
    n = mats[0].shape[0]
    if any(b.shape != (n, n) for b in mats):
        raise RankDeficient("basis matrices must share one square shape")
    basis = np.stack(mats)
    basis.setflags(write=False)
    d = len(basis)
    bmat = np.ascontiguousarray(basis.reshape(d, n * n).T)
    sv = np.linalg.svd(bmat, compute_uv=False)
    if d > n * n or sv[-1] <= 1e-12 * sv[0]:
        raise RankDeficient("basis matrices are linearly dependent")
    pinv = np.linalg.pinv(bmat)
    # [e_u, e_v] for u < v, expanded as one stack of matrix-vector products
    # (which rounds like the unbatched one)
    u, v = np.triu_indices(d, 1)
    flat = (basis[u] @ basis[v] - basis[v] @ basis[u]).reshape(len(u), n * n)
    c = (pinv @ flat[..., None])[..., 0]
    resid = np.linalg.norm((bmat @ c[..., None])[..., 0] - flat, axis=-1)
    worst = float(np.max(resid / (1.0 + np.linalg.norm(flat, axis=-1)),
                         initial=0.0))
    struct = np.zeros((d, d, d), dtype=complex)
    struct[:, u, v] = c.T
    struct[:, v, u] = -c.T
    if worst > _CLOSURE_TOL:
        raise NotClosed(f"commutators leave the span (residual {worst:.3e})")
    return LieAlgebraModel(basis, struct, bmat, pinv, worst)


@dataclass
class PairingData:
    """Coefficient matrices of the invariant form (lower) and 2-tensor (upper),
    mutually inverse or, for a degenerate form, mutual pseudo-inverses."""

    eta_lower: np.ndarray
    eta_upper: np.ndarray

    def __post_init__(self):
        for name in ("eta_lower", "eta_upper"):
            m = np.asarray(getattr(self, name), dtype=complex)
            setattr(self, name, m)
            if np.abs(m - m.T).max() > _SYMMETRY_TOL * (1 + np.abs(m).max()):
                raise NotConvenient(f"{name} is not symmetric")
        s, h = self.eta_lower, self.eta_upper
        self._invertible = bool(np.abs(s @ h - np.eye(s.shape[0])).max() <= 1e-10)
        if not self._invertible:
            # degenerate pair: still require pseudo-inverse consistency
            scale = 1 + np.abs(s).max() + np.abs(h).max()
            bad = max(np.abs(s @ h @ s - s).max(), np.abs(h @ s @ h - h).max())
            if bad > 1e-10 * scale:
                raise NotConvenient(
                    f"eta_upper is not a (pseudo-)inverse of eta_lower "
                    f"(residual {bad:.3e})")

    @property
    def invertible(self):
        return self._invertible

    def require_invertible(self):
        """The two tensors when mutually inverse; DegeneratePairing otherwise."""
        if not self._invertible:
            raise DegeneratePairing(
                "operation needs a non-degenerate pairing (mutually inverse "
                "eta_lower / eta_upper)")
        return self.eta_lower, self.eta_upper


def trace_pairing(model, scale, mask):
    """eta_lower[j,k] = scale * tr(e_j e_k) * m_j * m_k, with m the mask (all
    ones when None); eta_upper is its inverse, or its pseudo-inverse when
    eta_lower is singular."""
    basis = model.basis
    s = scale * np.trace(basis[:, None] @ basis[None], axis1=2, axis2=3)
    if mask is not None:
        m = np.asarray(mask, dtype=float)
        s = s * np.outer(m, m)
    sv = np.linalg.svd(s, compute_uv=False)
    upper = np.linalg.inv(s) if sv[-1] > 1e-10 * sv[0] else np.linalg.pinv(s)
    return PairingData(eta_lower=s, eta_upper=upper)


def _rank(sv):
    """The rank rule: the number of singular values (in descending order)
    above _RANK_TOL times the largest; 0 for a zero or empty matrix.  It
    serves every kernel, span and rank count of the package and sizes the
    conjugacy-class frames."""
    return int(np.sum(sv > _RANK_TOL * sv[0])) if sv.size and sv[0] > 0 else 0


def adjoint_matrix(model, q, q_inv):
    """d-by-d matrix of Ad_q in the model basis, given q's inverse; q may
    carry leading axes, which the result keeps."""
    return np.swapaxes(model.coeffs(q[..., None, :, :] @ model.basis
                                    @ q_inv[..., None, :, :]), -1, -2)


def random_group_elements(model, rng, shape):
    """The one draw of random group elements: a (*shape, n, n) stack of
    exponentials of algebra elements, each row (first index) scaled as in a
    one-row call.  One normal block gives every element, in order, d real
    parts and then d imaginary parts, each drawn at _SAMPLE_SCALE."""
    return _exponentials(model, _draw(model, rng, shape))


def seeded_group_elements(model, seeds, shape):
    """(len(seeds), *shape, n, n): per seed, the elements that
    `random_group_elements` draws from np.random.default_rng(seed) with
    shape (1, *shape), each seed's block a row of one exponential."""
    return _exponentials(model, np.stack(
        [_draw(model, np.random.default_rng(seed), shape) for seed in seeds]))


def _draw(model, rng, shape):
    """One normal block: per element d real parts, then d imaginary parts."""
    return _SAMPLE_SCALE * rng.standard_normal((*shape, 2, model.d))


def _exponentials(model, x):
    return _dexpm_rows(model.from_coeffs(x[..., 0, :] + 1j * x[..., 1, :]))


def ad_invariance_residual(model, pairing, seed):
    """Max deviation of eta_lower / eta_upper under the adjoint actions of
    _AD_SAMPLES `random_group_elements`, drawn from the seed (the caller's
    to record); NaN if any deviation is NaN."""
    rng = np.random.Generator(np.random.PCG64(seed))
    g = random_group_elements(model, rng, (_AD_SAMPLES,))
    a = adjoint_matrix(model, g, np.linalg.inv(g))
    at, s, h = a.swapaxes(-1, -2), pairing.eta_lower, pairing.eta_upper
    # np.max, not max(): a NaN at any sample must show
    return float(np.max([np.abs(at @ s @ a - s), np.abs(a @ h @ at - h)],
                        initial=0.0))


def cubic_alternation(model, pairing):
    """The cubic tensor phi[j,k,s] = eta^{j,u} c^k_{u,v} eta^{v,s} and its
    alternation residual, max |phi + phi^t| over the slot transpositions t."""
    h = pairing.eta_upper
    phi = np.einsum("ju,kuv,vs->jks", h, model.struct, h)
    return phi, max(float(np.abs(phi + np.transpose(phi, t)).max())
                    for t in ((1, 0, 2), (0, 2, 1), (2, 1, 0)))


def cartan3(model, pairing):
    """Cubic tensor phi[j,k,s] = eta^{j,u} c^k_{u,v} eta^{v,s}; must alternate."""
    phi, resid = cubic_alternation(model, pairing)
    if resid > _SYMMETRY_TOL * (1.0 + float(np.abs(phi).max())):
        raise NotConvenient("cubic tensor is not alternating; "
                            "pairing is not invariant for this model")
    return phi


# the six permutations of three tensor slots, with their signs
_SLOT_PERMUTATIONS = (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                      ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1))


def verify_chi_identity(model, pairing):
    """Residual of the doubled-algebra trivector identity.

    Left side: 4 [chi, chi], the wedges e_j ^ f_k ^ f_s and f_j ^ e_k ^ e_s
    of the doubled basis with coefficient phi[j,k,s]: phi on the two mixed
    blocks of one array, antisymmetrized by the signed sum of its six slot
    permutations.  Right side: diagonal push of the cubic tensor minus its
    two pure-block copies.  Both sides are (2d)^3 coefficient arrays;
    returns the max difference.
    """
    phi = cartan3(model, pairing)
    d = model.d
    mixed = np.zeros((2 * d,) * 3, dtype=complex)
    mixed[:d, d:, d:] = phi
    mixed[d:, :d, :d] = phi
    lhs = 0.25 * sum(sign * np.transpose(mixed, perm)
                     for perm, sign in _SLOT_PERMUTATIONS)

    # pure blocks cancel against the two copies
    rhs = np.tile(0.5 * phi, (2, 2, 2))
    rhs[:d, :d, :d] = 0.0
    rhs[d:, d:, d:] = 0.0
    return float(np.abs(lhs - rhs).max())
