"""Forward-mode dual-number arithmetic over complex matrices.

A :class:`Dual` carries a value and the first-order coefficient of a nilpotent
perturbation; nesting Duals (components that are themselves Duals) yields exact
mixed second derivatives.  Components are numpy arrays whose *last two* axes are
the matrix axes; any leading axes are broadcast batch axes, so a single
evaluation can push many directions (or direction pairs, when nested) through a
word at once.

A product of stacks costs numpy one tiny GEMM per matrix slice.
:func:`matmul` runs the products that have one GEMM form as one GEMM per
batch row.  A row fold, where the right factor is one matrix per batch row
and the left stack is folded into the GEMM's rows, (..., n, k) @ (k, m) or
(S, R, n, k) @ (S, 1, k, m), gives every slice the bits of ``np.matmul``:
the GEMM forms each output row from its own left row and the one right
matrix.  A column fold, where a single left matrix meets a stack laid side
by side in the GEMM's columns, agrees with ``np.matmul`` only to roundoff;
only the Jacobiator's nested parts, whose batch has two direction axes, take
column folds (a matrix times a two-axis stack, and the outer product of two
one-axis stacks, (K, n, k) @ (M, 1, k, m), or its mirror).  A shared left
factor over one batch axis, (S, 1, n, k) @ (S, R, k, m), stays on
``np.matmul``.

All derivative evaluation in this package is exact forward-mode differentiation
of polynomial/inverse matrix expressions; finite differences appear only in
tests as cross-checks.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "Dual",
    "dtrace",
    "dinv",
    "dexpm",
    "apply_linear",
    "matmul",
    "value",
]


def _is_dual(x):
    return isinstance(x, Dual)


def _gemm_rows(a, b):
    """(..., n, k) @ (k, m) with the leading axes of a folded into the rows."""
    n, k = a.shape[-2:]
    return (a.reshape(-1, k) @ b).reshape(a.shape[:-2] + (n, b.shape[-1]))


def _as_columns(b):
    """(..., k, m) -> (k, prod(...) m): the stack laid side by side."""
    k, m = b.shape[-2:]
    return np.moveaxis(b, -2, 0).reshape(k, math.prod(b.shape[:-2]) * m)


def matmul(a, b):
    """a @ b, with one GEMM per batch row where the product has that form.

    Row folds, which keep the bits of ``np.matmul``: (..., n, k) @ (k, m),
    every leading axis of a folded into the rows, and (..., R, n, k) @
    (..., 1, k, m), a's R slices folded into the rows of one GEMM per entry
    of the leading axes, which the operands share.  Column folds, which
    agree with ``np.matmul`` to roundoff only, for plain arrays whose
    broadcast batch has two axes: a single matrix times a two-axis stack,
    and the outer product (K, n, k) @ (M, 1, k, m) -> (M, K, n, m) and its
    mirror (M, 1, n, k) @ (K, k, m).  Anything else, Duals included (their
    parts come back here), is ``@``."""
    if isinstance(a, Dual) or isinstance(b, Dual):
        return a @ b
    if b.ndim == 2:
        return _gemm_rows(a, b) if a.ndim > 2 else a @ b
    if a.ndim == b.ndim and b.shape[-3] == 1 and a.shape[:-3] == b.shape[:-3]:
        n, k = a.shape[-2:]
        out = a.reshape(a.shape[:-3] + (-1, k)) @ b[..., 0, :, :]
        return out.reshape(a.shape[:-2] + (n, b.shape[-1]))
    if max(a.ndim, b.ndim) < 4:
        return a @ b
    if a.ndim == 2:
        # (n, k) @ (k, P m)
        out = (a @ _as_columns(b)).reshape(a.shape[:1] + b.shape[:-2]
                                           + b.shape[-1:])
        return np.moveaxis(out, 0, -2)
    if a.ndim == 3 and b.ndim == 4 and b.shape[1] == 1:
        # out[i, j] = a[j] @ b[i, 0], from (K n, k) @ (k, M m)
        out = _gemm_rows(a, _as_columns(b)).reshape(
            a.shape[:2] + (len(b), b.shape[-1]))
        return out.transpose(2, 0, 1, 3)
    if a.ndim == 4 and a.shape[1] == 1 and b.ndim == 3:
        # out[i, j] = a[i, 0] @ b[j], from (M n, k) @ (k, K m)
        out = _gemm_rows(a[:, 0], _as_columns(b)).reshape(
            a.shape[:1] + a.shape[2:3] + (len(b), b.shape[-1]))
        return out.transpose(0, 2, 1, 3)
    return a @ b


class Dual:
    """Value plus first-order perturbation: ``re + eps*t`` with ``t**2 == 0``."""

    __slots__ = ("re", "eps")
    # keep numpy from absorbing Dual operands; defer to the reflected methods
    __array_ufunc__ = None

    def __init__(self, re, eps):
        self.re = re
        self.eps = eps

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if _is_dual(other):
            return Dual(self.re + other.re, self.eps + other.eps)
        return Dual(self.re + other, self.eps)

    def __radd__(self, other):
        return Dual(other + self.re, self.eps)

    def __sub__(self, other):
        if _is_dual(other):
            return Dual(self.re - other.re, self.eps - other.eps)
        return Dual(self.re - other, self.eps)

    def __neg__(self):
        return Dual(-self.re, -self.eps)

    def __mul__(self, other):
        # elementwise / scalar product
        if _is_dual(other):
            return Dual(self.re * other.re, self.re * other.eps + self.eps * other.re)
        return Dual(self.re * other, self.eps * other)

    def __rmul__(self, other):
        return Dual(other * self.re, other * self.eps)

    def __matmul__(self, other):
        if _is_dual(other):
            return Dual(matmul(self.re, other.re),
                        matmul(self.re, other.eps) + matmul(self.eps, other.re))
        return Dual(matmul(self.re, other), matmul(self.eps, other))

    def __rmatmul__(self, other):
        return Dual(matmul(other, self.re), matmul(other, self.eps))

    def __repr__(self):
        return f"Dual(re={self.re!r}, eps={self.eps!r})"


def value(x):
    """Innermost value part (plain ndarray / scalar) of a possibly nested Dual."""
    while _is_dual(x):
        x = x.re
    return x


def dtrace(x):
    """Matrix trace over the last two axes, Dual-transparent."""
    if _is_dual(x):
        return Dual(dtrace(x.re), dtrace(x.eps))
    return np.trace(x, axis1=-2, axis2=-1)


def dinv(x):
    """Matrix inverse, Dual-transparent: (a + t b)^-1 = a^-1 - t a^-1 b a^-1."""
    if _is_dual(x):
        ai = dinv(x.re)
        return Dual(ai, -matmul(ai @ x.eps, ai))
    return np.linalg.inv(x)


def apply_linear(lmat, x):
    """Apply a plain linear map (rows act on vec'd matrices) through Duals.

    ``lmat`` has shape (k, n*n); ``x`` has matrix shape (..., n, n).  Returns
    shape (..., k) components, preserving Dual structure.
    """
    if _is_dual(x):
        return Dual(apply_linear(lmat, x.re), apply_linear(lmat, x.eps))
    flat = x.reshape(x.shape[:-2] + (x.shape[-2] * x.shape[-1],))
    return np.einsum("ij,...j->...i", lmat, flat)


# Degree-13 diagonal Pade coefficients for the matrix exponential.
_PADE13 = (
    64764752532480000.0,
    32382376266240000.0,
    7771770303897600.0,
    1187353796428800.0,
    129060195264000.0,
    10559470521600.0,
    670442572800.0,
    33522128640.0,
    1323241920.0,
    40840800.0,
    960960.0,
    16380.0,
    182.0,
    1.0,
)
_THETA13 = 5.371920351148152


def _one_norm(a):
    # max over batch of the induced 1-norm
    m = np.abs(a).sum(axis=-2)
    return float(np.max(m)) if m.size else 0.0


def _squarings(nrm):
    """The scaling power s of a batch whose largest 1-norm is nrm: the least
    s >= 0 with nrm / 2^s <= theta_13."""
    if nrm > _THETA13:
        return max(0, int(math.ceil(math.log2(nrm / _THETA13))))
    return 0


def dexpm(a):
    """Matrix exponential by scaling-and-squaring with a degree-13 Pade step.

    Works on a complex matrix or a stack of them; the scaling power is chosen
    from the largest 1-norm of the stack, so every member is squared the same
    number of times.
    """
    return _scaled_pade(a, _squarings(_one_norm(a)))


def _scaled_pade(a, s):
    """exp(a) as the Pade step at a / 2^s, squared s times."""
    eye = np.eye(a.shape[-1], dtype=complex)
    if s:
        a = a * (0.5**s)
    b = _PADE13
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    r = np.linalg.inv(v - u) @ (v + u)
    for _ in range(s):
        r = r @ r
    return r


def _dexpm_rows(a):
    """dexpm of every row of a (B, ..., n, n) stack, each row scaled by the
    power of its own largest 1-norm (all from one column-sum reduction), as
    in a one-row call: the rows that share a power go together, the whole
    stack when all of them do, and their power goes to the Pade step as it
    is."""
    powers = [_squarings(nrm) for nrm in np.abs(a).sum(axis=-2).max(
        axis=tuple(range(1, a.ndim - 1)), initial=0.0).tolist()]
    if len(set(powers)) == 1:
        return _scaled_pade(a, powers[0])
    out = np.empty_like(a)
    for s in set(powers):
        rows = [b for b, p in enumerate(powers) if p == s]
        out[rows] = _scaled_pade(a[rows], s)
    return out
