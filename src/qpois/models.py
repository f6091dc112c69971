"""The (model, pairing) pair every check reads, built from the run config.

`model_from_config(group, pairing=None)` is the one place where the `group`
and `pairing` config objects become a matrix Lie algebra model and its
invariant pairing, and the one place where they are checked.

- `group.family` is `SL`, `GL`, `abelian` (diagonal matrices) or
  `sl2_abelian` (`product` is an alias): sl(2) plus a central line, in 3x3
  block form.  `group.n` sizes the matrices, an integer of at least 2 for
  `SL` and at least 1 otherwise; `sl2_abelian` ignores its value.
- The pairing is the scaled, masked trace form
  eta_lower[j, k] = trace_scale * tr(e_j e_k) * m_j * m_k, with
  `group.trace_scale` finite and non-zero (default 1) and m = `pairing.mask`,
  d finite numbers.  The default mask (absent or null) is all ones, and
  (1, 1, 1, 0) on `sl2_abelian`, whose pairing is therefore zero on the
  central line.
  eta_upper is the inverse of eta_lower, or its pseudo-inverse when
  eta_lower is singular (see `liealg.trace_pairing`).
"""

from __future__ import annotations

import numpy as np

from .errors import expect, is_finite_number
from .liealg import build_lie_algebra, trace_pairing

__all__ = [
    "DEFAULT_GROUP",
    "sl2",
    "sl2_abelian",
    "model_from_config",
]

# least matrix size per family; sl2_abelian is always 3x3
_LEAST_N = {"SL": 2, "GL": 1, "abelian": 1, "sl2_abelian": 1}
_SL2_ABELIAN_MASK = (1.0, 1.0, 1.0, 0.0)

DEFAULT_GROUP = {"family": "SL", "n": 2}     # of a config with no group


def _e(n, i, j):
    m = np.zeros((n, n), dtype=complex)
    m[i, j] = 1.0
    return m


def _basis(family, n):
    if family == "SL":
        # Cartan generators E_ii - E_{i+1,i+1}, then the off-diagonal units
        return ([_e(n, i, i) - _e(n, i + 1, i + 1) for i in range(n - 1)]
                + [_e(n, i, j) for i in range(n) for j in range(n) if i != j])
    if family == "GL":
        return [_e(n, i, j) for i in range(n) for j in range(n)]
    if family == "abelian":
        return [_e(n, i, i) for i in range(n)]
    # sl2_abelian: H, E, F of sl(2) in the upper block, then E_22
    return [np.pad(b, (0, 1)) for b in _basis("SL", 2)] + [_e(3, 2, 2)]


def model_from_config(group, pairing=None):
    """Build (model, pairing) from the `group` and `pairing` config objects;
    ConfigError names the offending key."""
    expect(isinstance(group, dict), "group", "must be an object")
    family = group.get("family")
    if family == "product":
        family = "sl2_abelian"
    expect(isinstance(family, str) and family in _LEAST_N, "group.family",
           f"unknown group family {family!r} (known: SL, GL, abelian, "
           f"sl2_abelian)")
    n, least = group.get("n", 2), _LEAST_N[family]
    expect(isinstance(n, int) and not isinstance(n, bool) and n >= least,
           "group.n", f"must be an integer of at least {least} for {family}")
    scale = group.get("trace_scale", 1.0)
    expect(is_finite_number(scale) and scale != 0, "group.trace_scale",
           "must be a finite non-zero number")

    pairing = {} if pairing is None else pairing
    expect(isinstance(pairing, dict), "pairing", "must be an object")
    for key in pairing:
        expect(key != "trace_scale", "pairing.trace_scale",
               "not a pairing key; group.trace_scale scales the trace form")
        expect(key == "mask", f"pairing.{key}", "unknown key (known: mask)")

    model = build_lie_algebra(_basis(family, n))
    mask = pairing.get("mask")
    if mask is None and family == "sl2_abelian":
        mask = _SL2_ABELIAN_MASK
    expect(mask is None or (isinstance(mask, (list, tuple))
                            and len(mask) == model.d
                            and all(map(is_finite_number, mask))),
           "pairing.mask", f"must be a list of {model.d} finite numbers")
    return model, trace_pairing(model, scale=float(scale), mask=mask)


def sl2():
    """sl(2) in the order H, E, F with the trace pairing."""
    return model_from_config({"family": "SL", "n": 2})


def sl2_abelian():
    """sl(2) + central line in 3x3 matrices, pairing zero on the line."""
    return model_from_config({"family": "sl2_abelian"})
