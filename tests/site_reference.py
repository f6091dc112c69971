"""Test-only references for site data: frame vectors one at a time, the
fundamental tangent of the conjugation action, and the 2-form of a chain of
word pairs."""

import numpy as np

from qpois.fields import FormField, PairTerm
from qpois.groupgeom import Tangent, parse_word


def frame_vector(frame, a):
    """Frame vector a as a Tangent, with its lift on a class factor."""
    for i, vecs in enumerate(frame.per_factor):
        k = a - frame.offsets[i]
        if 0 <= k < len(vecs):
            comps = [None] * frame.site.nfac
            comps[i] = vecs[k]
            lifts = {} if frame.lifts[i] is None else {i: frame.lifts[i][k]}
            return Tangent(comps, lifts)
    raise IndexError(a)


def frame_vectors(frame):
    return [frame_vector(frame, a) for a in range(frame.dim)]


def fund_tangent(site, point, x_coeffs, factors=None):
    """Fundamental tangent of the conjugation action, q X - X q on each of
    the given factors (default all)."""
    x = site.model.from_coeffs(np.asarray(x_coeffs))
    comps = [None] * site.nfac
    for i in range(site.nfac) if factors is None else factors:
        q = point.mats[i]
        comps[i] = q @ x - x @ q
    return Tangent(comps)


def two_chain_form(site, chain):
    """2-form of a formal chain: list of (coef, word_text_u, word_text_v)."""
    return FormField(site, pair_terms=[
        PairTerm(0.5 * coef, parse_word(site, u), "omega",
                 parse_word(site, v), "omegabar")
        for coef, u, v in chain])
