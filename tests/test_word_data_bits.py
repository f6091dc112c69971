"""The per-point word data is bit for bit what the plain constructions give.

`SitePoint.word_differentials` is one `word_tangent` sweep of the word along
every factor of it at once, formed on those factors' frame rows,
`SitePoint.inverses` inverts the
factors in one batch, `adjoint_matrix` expands the whole conjugated basis in
one call, and `random_point` exponentiates the factors as one batch.  Each is compared with
`np.array_equal` against a construction written out here: one `word_tangent`
pass over the stacked frame, `frame.stacked`, whose factor entries are zero
outside their own rows, at letters inverted one factor at a time, per-factor
inversion, a column loop and a per-factor loop.
"""

import numpy as np
import pytest

import qpois.groupgeom as groupgeom
from qpois import models
from qpois.duals import dexpm
from qpois.groupgeom import random_point, word_eval, word_tangent
from qpois.liealg import adjoint_matrix
from qpois.quasi import assemble_surface_site, relator_word
from site_reference import algebra_element

SITES = pytest.mark.parametrize("build,genus,reps", [
    (models.sl2, 2, []),
    (models.sl2, 1, [np.diag([2.0, 0.5]), np.diag([3.0, 1.0 / 3.0])]),
    (lambda: models.model_from_config({"family": "SL", "n": 3}), 1, []),
    (models.sl2_abelian, 3, []),
    (models.sl2, 1, [-np.eye(2)]),
], ids=["sl2-g2", "sl2-g1-2punct", "sl3-g1", "sl2ab-g3", "sl2-g1-central"])


def _site(build, genus, reps):
    model, pairing = build()
    site, _, qh = assemble_surface_site(model, pairing, genus, reps)
    return site, qh, relator_word(site, genus, len(reps))


def _words(word, qh):
    """Every segment of the relator (the 2-form's words are segments) and
    the momentum words."""
    segments = {word[i:j] for i in range(len(word))
                for j in range(i, len(word) + 1)}
    return sorted(segments | {comp.word for comp in qh.momentum})


def _reference_differentials(point, word):
    """word_tangent over frame.stacked (zero for the empty word), then both
    trivializations."""
    model, frame = point.site.model, point.frame()
    gi = np.linalg.inv(word_eval(word, point.mats))
    letters = [point.mats[f] if p == 1 else np.linalg.inv(point.mats[f])
               for f, p in word]
    dv = (word_tangent(word, letters, [frame.stacked])[-1][1] if word
          else np.zeros((frame.dim, model.n, model.n), dtype=complex))
    return model.coeffs(gi @ dv), model.coeffs(dv @ gi)


def _reference_random_point(site, rng):
    """One exponential and one inversion per factor, in factor order."""
    mats = []
    for fac in site.factors:
        xi = site.model.from_coeffs(algebra_element(site.model, rng))
        g = dexpm(xi)
        if fac.kind == "group":
            mats.append(groupgeom._retract(site, g))
        else:
            mats.append(g @ fac.class_rep @ np.linalg.inv(g))
    return mats


@SITES
def test_word_data_equals_the_word_tangent_construction(build, genus, reps):
    site, qh, word = _site(build, genus, reps)
    rng = np.random.default_rng(11)
    for _ in range(3):
        point = random_point(site, rng)
        for w in _words(word, qh):
            assert np.array_equal(point.word_value(w)[0],
                                  word_eval(w, point.mats)), w
            got = point.word_differentials(w)
            ref = _reference_differentials(point, w)
            assert all(np.array_equal(a, b) for a, b in zip(got, ref)), w


@SITES
def test_adjoint_matrix_equals_its_column_loop(build, genus, reps):
    site, qh, word = _site(build, genus, reps)
    model = site.model
    rng = np.random.default_rng(12)
    point = random_point(site, rng)
    qs = [dexpm(model.from_coeffs(algebra_element(model, rng)))
          for _ in range(4)]
    qs += [point.word_value(comp.word)[0] for comp in qh.momentum]
    for q in qs:
        qi = np.linalg.inv(q)
        ref = np.stack([model.coeffs(q @ b @ qi) for b in model.basis], axis=1)
        assert np.array_equal(adjoint_matrix(model, q, qi), ref)


@SITES
def test_random_point_equals_its_factor_loop(build, genus, reps):
    site, _, _ = _site(build, genus, reps)
    for seed in range(50):
        got = random_point(site, np.random.default_rng(seed)).mats
        ref = _reference_random_point(site, np.random.default_rng(seed))
        assert all(np.array_equal(a, b) for a, b in zip(got, ref)), seed


@SITES
def test_inverses_equal_per_factor_inversion_and_are_read_only(build, genus,
                                                               reps):
    site, _, _ = _site(build, genus, reps)
    point = random_point(site, np.random.default_rng(13))
    inverses = point.inverses()
    assert inverses.shape == (site.nfac, site.model.n, site.model.n)
    for q, qi in zip(point.mats, inverses):
        assert np.array_equal(qi, np.linalg.inv(q))
    assert point.inverses() is inverses
    with pytest.raises(ValueError):
        inverses[0, 0, 0] = 0.0
