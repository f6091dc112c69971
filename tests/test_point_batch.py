"""A batch's points read the bits of their one-point builds.

`random_points` draws a check's points as batches, and every entry of the
memo is built for the whole batch from (S, ...) stacks.  At every point of a
batch each entry equals, by `np.array_equal`, the entry built at
`PointBatch(site, [p.mats])`, a batch of one: the frame's arrays and
extractors, the factor inverses, each word's value, adjoints and
differentials, the frame matrices P and Sigma, and each component's
linearization.  The draws themselves are those of one `random_point` call
per point.  The equivariance check's conjugated points and the solved rows
of a relator solve are batches too, with the bits of their batches of one.
"""

from types import SimpleNamespace

import numpy as np
import pytest

import qpois.cli as cli
from qpois import models
from qpois.charvar import RepSample, solve_relator, solve_relators
from qpois.groupgeom import PointBatch, SitePoint, random_point, random_points
from qpois.quasi import (
    assemble_surface_site,
    component_linear,
    equivariance_residual,
    relator_word,
)

SITES = pytest.mark.parametrize("build,genus,reps", [
    (models.sl2, 2, []),
    (models.sl2, 1, [np.diag([2.0, 0.5]), np.diag([3.0, 1.0 / 3.0])]),
    (lambda: models.model_from_config({"family": "SL", "n": 3}), 1, []),
    (models.sl2_abelian, 3, []),
], ids=["sl2-g2", "sl2-g1-2punct", "sl3-g1", "sl2ab-g3"])


def _site(build, genus, reps):
    model, pairing = build()
    site, qp, qh = assemble_surface_site(model, pairing, genus, reps)
    return site, qp, qh, relator_word(site, genus, len(reps))


def _words(site, qh, relator):
    """Every segment of the relator, the 2-form's words and the momentum
    words."""
    segments = {relator[i:j] for i in range(len(relator))
                for j in range(i, len(relator) + 1)}
    form = {w for t in qh.form.pair_terms for w in (t.word_u, t.word_v)}
    return sorted(segments | form | {comp.word for comp in qh.momentum})


def _equal(a, b):
    return a.shape == b.shape and np.array_equal(a, b)


def _alone(point):
    """The point as a batch of one."""
    return PointBatch(point.site, [point.mats]).points()[0]


def _frame_arrays(frame):
    return ([frame.stacked, *frame.per_factor, *frame._extract]
            + [lf for lf in frame.lifts if lf is not None])


@SITES
def test_every_entry_equals_its_batch_of_one(build, genus, reps):
    site, qp, qh, relator = _site(build, genus, reps)
    words = _words(site, qh, relator)
    points = random_points(site, np.random.default_rng(21), 5)
    assert len({id(p._batch) for p in points}) == 1
    probe = np.random.default_rng(22).standard_normal(
        (site.nfac, 2, site.model.n, site.model.n))
    for p in points:
        lone = _alone(p)
        frame, ref = p.frame(), lone.frame()
        assert frame.dim == ref.dim and frame.rows == ref.rows
        assert all(map(_equal, _frame_arrays(frame), _frame_arrays(ref)))
        assert _equal(frame.components(probe), ref.components(probe))
        assert _equal(p.inverses(), lone.inverses())
        for w in words:
            for entry in (SitePoint.word_value, SitePoint.word_ad,
                          SitePoint.word_differentials):
                got, want = entry(p, w), entry(lone, w)
                assert all(map(_equal, got, want)), (entry.__name__, w)
        assert _equal(qp.bivector.frame_matrix(p), qp.bivector.frame_matrix(lone))
        assert _equal(qh.form.frame_matrix(p), qh.form.frame_matrix(lone))
        for comp in qp.momentum:
            got, want = component_linear(p, comp), component_linear(lone, comp)
            assert all(map(_equal, got, want))


@SITES
def test_random_points_are_random_point_calls(build, genus, reps):
    site, _, _, _ = _site(build, genus, reps)
    for seed in range(4):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        points = random_points(site, rng, 7)
        for p in points:
            assert _equal(p.mats, random_point(site, ref_rng).mats), seed
            with pytest.raises(ValueError):
                p.mats[0, 0, 0] = 0.0
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_batches_hold_at_most_64_points():
    site, _, _, _ = _site(models.sl2, 1, [])
    points = random_points(site, np.random.default_rng(0), 130)
    sizes = [len(p._batch.mats) for p in points]
    assert sizes == [64] * 128 + [2] * 2
    assert points[63]._batch is points[0]._batch
    assert points[64]._batch is not points[0]._batch


@SITES
def test_conjugated_points_share_one_batch(build, genus, reps, monkeypatch):
    """The equivariance check conjugates all its points into one batch, and
    each residual is the one at the points' batches of one."""
    site, qp, qh, _ = _site(build, genus, reps)
    seen = []

    def spy(*args):
        seen.append((args, equivariance_residual(*args)))
        return seen[-1][1]

    monkeypatch.setattr(cli, "equivariance_residual", spy)
    setup = SimpleNamespace(site=site, model=site.model, qp=qp, qh=qh,
                            samples=8)
    cli._chk_equivariance(setup, np.random.default_rng(23))
    assert len(seen) == 4
    assert len({id(args[3]._batch) for args, _ in seen}) == 1
    for (_, _, p, cp, g, gi), got in seen:
        assert _equal(cp.mats, g @ p.mats @ gi)
        assert got == equivariance_residual(qp, qh, _alone(p), _alone(cp),
                                            g, gi)


@SITES
def test_solved_points_share_one_batch(build, genus, reps):
    """The solved rows of one solve_relators call are one PointBatch whose
    matrices are each row's one-row solve, bit for bit."""
    site, _, _, relator = _site(build, genus, reps)
    eye = np.eye(site.model.n)
    seeds = list(range(5))
    solved = [(seed, out) for seed, out in
              zip(seeds, solve_relators(site, relator, eye, seeds))
              if isinstance(out, RepSample)]
    assert len(solved) >= 2
    batch = solved[0][1].point._batch
    assert all(out.point._batch is batch for _, out in solved)
    assert len(batch.mats) == len(solved)
    for seed, out in solved:
        assert _equal(out.point.mats,
                      solve_relator(site, relator, eye, seed=seed).point.mats)
