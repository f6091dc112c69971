"""Matrix Lie algebra models, invariant pairings, and the cubic tensor identities.

A model is a concrete basis of n-by-n complex matrices closed under the
commutator; everything downstream (coefficients, adjoint matrices, the cubic
tensor phi) is computed against that basis by exact linear algebra with
explicit residual guards.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    "ad_invariance_residual",
    "cubic_alternation",
    "cartan3",
    "verify_chi_identity",
]

_SPAN_TOL = 1e-8            # coefficient expansion: span residual, relative
_TRACE_TOL = 1e-12          # a basis matrix counts as traceless below this
_CLOSURE_TOL = 1e-10        # commutators leave the span above this, relative
_SYMMETRY_TOL = 1e-10       # pairing tensors and cubic tensor alternation
_SAMPLE_SCALE = 0.35        # std of the real and imaginary part of a random coefficient
_RANK_TOL = 1e-8            # the rank rule's cut, relative to the largest singular value


class LieAlgebraModel:
    """Basis, structure constants and coefficient extraction for one algebra."""

    def __init__(self, basis, struct, basis_mat, basis_pinv, closure_residual):
        self.basis = basis                      # (d, n, n) complex, read-only
        self.struct = struct                    # (d, d, d): [e_u, e_v] = struct[k,u,v] e_k
        self.basis_mat = basis_mat              # (n*n, d) flattened basis columns
        self.basis_pinv = basis_pinv            # (d, n*n) least-squares extractor
        self.closure_residual = closure_residual
        self.d, self.n = basis.shape[:2]

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
        """Structure-constant bracket of two coefficient vectors."""
        return np.einsum("kuv,u,v->k", self.struct, x, y)

    def is_traceless(self):
        return all(abs(np.trace(b)) <= _TRACE_TOL * (1 + np.abs(b).max())
                   for b in self.basis)


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
    struct = np.zeros((d, d, d), dtype=complex)
    worst = 0.0
    for u in range(d):
        for v in range(u + 1, d):
            br = basis[u] @ basis[v] - basis[v] @ basis[u]
            flat = br.reshape(-1)
            c = pinv @ flat
            resid = np.linalg.norm(bmat @ c - flat)
            worst = max(worst, resid / (1.0 + np.linalg.norm(flat)))
            struct[:, u, v] = c
            struct[:, v, u] = -c
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


def trace_pairing(model, scale=1.0, mask=None):
    """eta_lower[j,k] = scale * tr(e_j e_k) * m_j * m_k, with m the mask (all
    ones when None); eta_upper is its inverse, or its pseudo-inverse when
    eta_lower is singular."""
    d = model.d
    s = np.empty((d, d), dtype=complex)
    for j in range(d):
        for k in range(d):
            s[j, k] = scale * np.trace(model.basis[j] @ model.basis[k])
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
    """d-by-d matrix of Ad_q in the model basis, given q's inverse."""
    return model.coeffs(q @ model.basis @ q_inv).T


def random_algebra_element(model, rng):
    """Coefficients with real and imaginary parts drawn at _SAMPLE_SCALE."""
    return _SAMPLE_SCALE * (rng.standard_normal(model.d)
                           + 1j * rng.standard_normal(model.d))


def ad_invariance_residual(model, pairing, samples=32, seed=0):
    """Max deviation of eta_lower / eta_upper under sampled adjoint actions.

    Group elements are exponentials of random algebra elements; the seed is the
    caller's to record.  NaN if any deviation is NaN.
    """
    from .duals import dexpm

    rng = np.random.Generator(np.random.PCG64(seed))
    gaps = []
    for _ in range(samples):
        g = dexpm(model.from_coeffs(random_algebra_element(model, rng)))
        a = adjoint_matrix(model, g, np.linalg.inv(g))
        s, h = pairing.eta_lower, pairing.eta_upper
        gaps += [np.abs(a.T @ s @ a - s).max(), np.abs(a @ h @ a.T - h).max()]
    # np.max, not max(): a NaN at any sample must show
    return float(np.max(gaps, initial=0.0))


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


def _add_wedge3(arr, idx, coeff):
    """Accumulate coeff * e_a ^ e_b ^ e_c as a full antisymmetrized 3-tensor."""
    a, b, c = idx
    arr[a, b, c] += coeff
    arr[b, c, a] += coeff
    arr[c, a, b] += coeff
    arr[a, c, b] -= coeff
    arr[c, b, a] -= coeff
    arr[b, a, c] -= coeff


def verify_chi_identity(model, pairing):
    """Residual of the doubled-algebra trivector identity.

    Left side: 4 [chi, chi] expanded over mixed wedges of the doubled basis;
    right side: diagonal push of the cubic tensor minus its two pure-block
    copies.  Both sides are (2d)^3 coefficient arrays; returns the max
    difference.
    """
    phi = cartan3(model, pairing)
    d = model.d
    lhs = np.zeros((2 * d,) * 3, dtype=complex)
    for j in range(d):
        for k in range(d):
            for s in range(d):
                c = phi[j, k, s]
                if c == 0:
                    continue
                _add_wedge3(lhs, (j, d + k, d + s), c)
                _add_wedge3(lhs, (d + j, k, s), c)
    lhs *= 0.25

    rhs = np.zeros((2 * d,) * 3, dtype=complex)
    half_phi = 0.5 * phi
    for oa in (0, d):
        for ob in (0, d):
            for oc in (0, d):
                if oa == ob == oc:
                    continue  # pure blocks cancel against the two copies
                rhs[oa:oa + d, ob:ob + d, oc:oc + d] += half_phi
    return float(np.abs(lhs - rhs).max())
