"""Slow reference derivative for tests: one Dual evaluation per direction."""

import numpy as np

from qpois.duals import Dual
from qpois.groupgeom import Tangent


def dual_lift(fn, point, tangent):
    """Directional derivative of a scalar function of the factor matrices."""
    comps = tangent.comps if isinstance(tangent, Tangent) else tangent
    mats = []
    for q, v in zip(point.mats, comps):
        if v is None:
            mats.append(q)
        else:
            mats.append(Dual(q, np.asarray(v, dtype=complex)))
    out = fn(mats)
    if isinstance(out, Dual):
        return out.eps
    return 0.0 * out
