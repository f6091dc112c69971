"""Forward-mode dual-number arithmetic over complex matrices.

A :class:`Dual` carries a value and the first-order coefficient of a nilpotent
perturbation; nesting Duals (components that are themselves Duals) yields exact
mixed second derivatives.  Components are numpy arrays whose *last two* axes are
the matrix axes; any leading axes are broadcast batch axes, so a single
evaluation can push many directions (or direction pairs, when nested) through a
word at once.

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
    "value",
]


def _is_dual(x):
    return isinstance(x, Dual)


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
            return Dual(self.re @ other.re, self.re @ other.eps + self.eps @ other.re)
        return Dual(self.re @ other, self.eps @ other)

    def __rmatmul__(self, other):
        return Dual(other @ self.re, other @ self.eps)

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
        return Dual(ai, -(ai @ x.eps @ ai))
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
    # max over batch of the induced 1-norm of the value part
    m = np.abs(a).sum(axis=-2)
    return float(np.max(m)) if m.size else 0.0


def dexpm(a):
    """Matrix exponential by scaling-and-squaring with a degree-13 Pade step.

    Works on plain complex matrices and on (nested, batched) Duals; the scaling
    power is chosen from the innermost value part so every batch member is
    squared the same number of times.
    """
    val = value(a)
    n = val.shape[-1]
    eye = np.eye(n, dtype=complex)
    nrm = _one_norm(val)
    s = 0
    if nrm > _THETA13:
        s = max(0, int(math.ceil(math.log2(nrm / _THETA13))))
        a = a * (0.5**s)
    b = _PADE13
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    r = dinv(v - u) @ (v + u)
    for _ in range(s):
        r = r @ r
    return r
