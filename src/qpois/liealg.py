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
    "pairing_from_lower",
    "adjoint_coeffs",
    "adjoint_matrix",
    "ad_invariance_residual",
    "cartan3",
    "chi2",
    "verify_chi_identity",
    "ideal_of_H",
]

_SPAN_TOL = 1e-8


class LieAlgebraModel:
    """Basis, structure constants and coefficient extraction for one algebra."""

    def __init__(self, basis, struct, basis_mat, basis_pinv, closure_residual):
        self.basis = basis                      # list of (n, n) complex arrays
        self.struct = struct                    # (d, d, d): [e_u, e_v] = struct[k,u,v] e_k
        self.basis_mat = basis_mat              # (n*n, d) flattened basis columns
        self.basis_pinv = basis_pinv            # (d, n*n) least-squares extractor
        self.closure_residual = closure_residual
        self.n = basis[0].shape[0]
        self.d = len(basis)

    def coeffs(self, mat, check=True, tol=_SPAN_TOL):
        """Expand n-by-n matrices (leading batch axes allowed) in the basis;
        guard the span residual."""
        mat = np.asarray(mat, dtype=complex)
        flat = mat.reshape(mat.shape[:-2] + (-1,))
        # a stack of matrix-vector products rounds like the unbatched one
        c = (self.basis_pinv @ flat[..., None])[..., 0]
        if check:
            resid = np.linalg.norm((self.basis_mat @ c[..., None])[..., 0] - flat,
                                   axis=-1)
            scale = 1.0 + np.linalg.norm(flat, axis=-1)
            if np.any(resid > tol * scale):
                raise NotInSpan(f"matrix outside algebra span "
                                f"(residual {np.max(resid):.3e})")
        return c

    def from_coeffs(self, c):
        """Matrix of a coefficient vector; leading batch axes are kept."""
        c = np.asarray(c, dtype=complex)
        return np.einsum("...j,jab->...ab", c, np.stack(self.basis))

    def bracket_coeffs(self, x, y):
        """Structure-constant bracket of two coefficient vectors."""
        return np.einsum("kuv,u,v->k", self.struct, x, y)

    def is_traceless(self, tol=1e-12):
        return all(abs(np.trace(b)) <= tol * (1 + np.abs(b).max()) for b in self.basis)


def build_lie_algebra(basis, closure_tol=1e-10):
    """Structure constants by least squares against the flattened basis.

    Raises RankDeficient for dependent bases and NotClosed when some commutator
    leaves the span by more than closure_tol (relative to its size).
    """
    basis = [np.asarray(b, dtype=complex) for b in basis]
    n = basis[0].shape[0]
    if any(b.shape != (n, n) for b in basis):
        raise RankDeficient("basis matrices must share one square shape")
    d = len(basis)
    bmat = np.stack([b.reshape(-1) for b in basis], axis=1)
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
    if worst > closure_tol:
        raise NotClosed(f"commutators leave the span (residual {worst:.3e})")
    return LieAlgebraModel(basis, struct, bmat, pinv, worst)


@dataclass
class PairingData:
    """Coefficient matrices of the invariant form (lower) and 2-tensor (upper)."""

    eta_lower: np.ndarray | None = None
    eta_upper: np.ndarray | None = None

    def __post_init__(self, tol=1e-10):
        for name in ("eta_lower", "eta_upper"):
            m = getattr(self, name)
            if m is None:
                continue
            m = np.asarray(m, dtype=complex)
            setattr(self, name, m)
            if np.abs(m - m.T).max() > tol * (1 + np.abs(m).max()):
                raise NotConvenient(f"{name} is not symmetric")
        self._invertible = False
        if self.eta_lower is not None and self.eta_upper is not None:
            s, h = self.eta_lower, self.eta_upper
            eye = np.eye(s.shape[0])
            self._invertible = bool(np.abs(s @ h - eye).max() <= 1e-10)
            if not self._invertible:
                # degenerate pair: still require pseudo-inverse consistency
                scale = 1 + np.abs(s).max() + np.abs(h).max()
                bad = max(np.abs(s @ h @ s - s).max(), np.abs(h @ s @ h - h).max())
                if bad > 1e-10 * scale:
                    raise NotConvenient(
                        f"eta_upper is not a (pseudo-)inverse of eta_lower "
                        f"(residual {bad:.3e})")
        elif self.eta_upper is not None and self.eta_lower is None:
            h = self.eta_upper
            sv = np.linalg.svd(h, compute_uv=False)
            self._invertible = bool(sv.size and sv[-1] > 1e-10 * sv[0])

    @property
    def invertible(self):
        return self._invertible

    def require_invertible(self):
        """Both tensors present and mutually inverse; DegeneratePairing otherwise."""
        if self.eta_lower is None or self.eta_upper is None or not self._invertible:
            raise DegeneratePairing(
                "operation needs a non-degenerate pairing (mutually inverse "
                "eta_lower / eta_upper)")
        return self.eta_lower, self.eta_upper

    def lower_inverse(self):
        """Inverse of eta_lower; DegeneratePairing when singular."""
        if self.eta_lower is None:
            raise DegeneratePairing("no eta_lower supplied")
        sv = np.linalg.svd(self.eta_lower, compute_uv=False)
        if sv[-1] <= 1e-10 * sv[0]:
            raise DegeneratePairing(
                f"eta_lower singular (sv ratio {sv[-1] / sv[0]:.3e})")
        return np.linalg.inv(self.eta_lower)

    def require_upper(self):
        if self.eta_upper is None:
            raise DegeneratePairing("no eta_upper supplied")
        return self.eta_upper


def trace_pairing(model, scale=1.0):
    """eta_lower[j,k] = scale * tr(e_j e_k), eta_upper its inverse when it exists."""
    d = model.d
    s = np.empty((d, d), dtype=complex)
    for j in range(d):
        for k in range(d):
            s[j, k] = scale * np.trace(model.basis[j] @ model.basis[k])
    return pairing_from_lower(s)


def pairing_from_lower(eta_lower):
    s = np.asarray(eta_lower, dtype=complex)
    sv = np.linalg.svd(s, compute_uv=False)
    upper = np.linalg.inv(s) if sv[-1] > 1e-10 * sv[0] else None
    return PairingData(eta_lower=s, eta_upper=upper)


def adjoint_coeffs(model, q, x_coeffs):
    """Coefficients of q X q^{-1} for X given by coefficients."""
    x = model.from_coeffs(x_coeffs)
    return model.coeffs(q @ x @ np.linalg.inv(q))


def adjoint_matrix(model, q):
    """d-by-d matrix of Ad_q in the model basis."""
    qi = np.linalg.inv(q)
    cols = [model.coeffs(q @ b @ qi) for b in model.basis]
    return np.stack(cols, axis=1)


def random_algebra_element(model, rng, scale=0.35):
    c = scale * (rng.standard_normal(model.d) + 1j * rng.standard_normal(model.d))
    return c


def ad_invariance_residual(model, pairing, samples=32, seed=0):
    """Max deviation of eta_lower / eta_upper under sampled adjoint actions.

    Group elements are exponentials of random algebra elements; the seed is the
    caller's to record.
    """
    from .duals import dexpm

    rng = np.random.Generator(np.random.PCG64(seed))
    worst = 0.0
    for _ in range(samples):
        g = dexpm(model.from_coeffs(random_algebra_element(model, rng)))
        a = adjoint_matrix(model, g)
        if pairing.eta_lower is not None:
            s = pairing.eta_lower
            worst = max(worst, float(np.abs(a.T @ s @ a - s).max()))
        if pairing.eta_upper is not None:
            h = pairing.eta_upper
            worst = max(worst, float(np.abs(a @ h @ a.T - h).max()))
    return worst


def cartan3(model, pairing, tol=1e-10):
    """Cubic tensor phi[j,k,s] = eta^{j,u} c^k_{u,v} eta^{v,s}; must alternate."""
    h = pairing.require_upper()
    phi = np.einsum("ju,kuv,vs->jks", h, model.struct, h)
    scale = 1.0 + float(np.abs(phi).max())
    for perm, sign in (((1, 0, 2), -1), ((0, 2, 1), -1), ((2, 1, 0), -1)):
        if np.abs(phi - sign * np.transpose(phi, perm)).max() > tol * scale:
            raise NotConvenient("cubic tensor is not alternating; "
                                "pairing is not invariant for this model")
    return phi


@dataclass
class ChiBlocks:
    """Mixed-block data of the canonical 2-tensor on the doubled algebra."""

    block_12: np.ndarray   # coefficient of e1_j (x) e2_k
    block_21: np.ndarray   # coefficient of e2_k (x) e1_j


def chi2(model, pairing):
    h = pairing.require_upper()
    return ChiBlocks(block_12=0.5 * h, block_21=-0.5 * h.T)


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


@dataclass
class IdealData:
    basis: np.ndarray            # (d, r) coefficient columns spanning the image
    restricted_form: np.ndarray  # (r, r) induced pairing on the image
    min_singular: float          # non-degeneracy certificate of restricted_form
    ideal_residual: float        # bracket of algebra with image stays in image
    membership_residual: float   # 2-tensor lies in image (x) image


def ideal_of_H(model, pairing, tol=1e-10):
    """Image of the 2-tensor's musical map, with its induced pairing."""
    h = pairing.require_upper()
    d = model.d
    u, s, _ = np.linalg.svd(h)
    r = int(np.sum(s > tol * (s[0] if s.size else 1.0)))
    b = u[:, :r]
    hp = np.linalg.pinv(h)
    restricted = b.T @ hp @ b
    sv = np.linalg.svd(restricted, compute_uv=False)
    min_sing = float(sv[-1]) if sv.size else 0.0
    proj = b @ b.conj().T
    ideal_res = 0.0
    for uu in range(d):
        for col in range(r):
            br = np.einsum("kv,v->k", model.struct[:, uu, :], b[:, col])
            ideal_res = max(ideal_res, float(np.linalg.norm(br - proj @ br)))
    mem = max(float(np.abs(h - proj @ h @ proj.T).max()), 0.0)
    return IdealData(b, restricted, min_sing, ideal_res, mem)
