"""Concrete algebra models and pairings used by the test-bed and the CLI.

All matrices are complex; the desk-scale catalog is sl(2), gl(2), sl(3),
diagonal abelian algebras, and sl(2) plus a central line in 3x3 block form
with the pairing supported on the sl(2) block only (the degenerate case).
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .liealg import PairingData, build_lie_algebra, trace_pairing

__all__ = [
    "sl_basis",
    "gl_basis",
    "abelian_basis",
    "sl2",
    "gl2",
    "sl3",
    "abelian",
    "sl2_abelian",
    "model_from_config",
]


def _e(n, i, j):
    m = np.zeros((n, n), dtype=complex)
    m[i, j] = 1.0
    return m


def sl_basis(n):
    """Cartan generators E_ii - E_{i+1,i+1} followed by off-diagonal units."""
    basis = [_e(n, i, i) - _e(n, i + 1, i + 1) for i in range(n - 1)]
    for i in range(n):
        for j in range(n):
            if i != j:
                basis.append(_e(n, i, j))
    return basis


def gl_basis(n):
    return [_e(n, i, j) for i in range(n) for j in range(n)]


def abelian_basis(n):
    return [_e(n, i, i) for i in range(n)]


def sl2():
    """sl(2) in the order H, E, F with the trace pairing."""
    h = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    e = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    f = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    model = build_lie_algebra([h, e, f])
    return model, trace_pairing(model)


def gl2():
    model = build_lie_algebra(gl_basis(2))
    return model, trace_pairing(model)


def sl3():
    model = build_lie_algebra(sl_basis(3))
    return model, trace_pairing(model)


def abelian(n=2):
    """Diagonal torus algebra; trace pairing is the identity matrix."""
    model = build_lie_algebra(abelian_basis(n))
    return model, trace_pairing(model)


def sl2_abelian():
    """sl(2) + central line inside 3x3 matrices; pairing zero on the line.

    eta_lower is the trace form masked to the sl(2) block, eta_upper its
    blockwise pseudo-inverse; the pair is deliberately non-invertible.
    """
    h = np.diag([1.0, -1.0, 0.0]).astype(complex)
    e = _e(3, 0, 1)
    f = _e(3, 1, 0)
    z = _e(3, 2, 2)
    model = build_lie_algebra([h, e, f, z])
    d = model.d
    full = np.empty((d, d), dtype=complex)
    for j in range(d):
        for k in range(d):
            full[j, k] = np.trace(model.basis[j] @ model.basis[k])
    mask = np.array([1.0, 1.0, 1.0, 0.0])
    lower = full * np.outer(mask, mask)
    upper = np.zeros_like(lower)
    upper[:3, :3] = np.linalg.inv(lower[:3, :3])
    return model, PairingData(eta_lower=lower, eta_upper=upper)


def model_from_config(spec):
    """Build (model, pairing) from a config mapping.

    Keys: family in {SL, GL, abelian, sl2_abelian}; n; trace_scale (optional).
    """
    family = spec.get("family")
    if family == "sl2_abelian":
        return sl2_abelian()
    n = int(spec.get("n", 2))
    if family == "SL":
        model = build_lie_algebra(sl_basis(n))
    elif family == "GL":
        model = build_lie_algebra(gl_basis(n))
    elif family == "abelian":
        model = build_lie_algebra(abelian_basis(n))
    else:
        raise ConfigError(f"unknown group family {family!r}")
    scale = float(spec.get("trace_scale", 1.0))
    return model, trace_pairing(model, scale=scale)
