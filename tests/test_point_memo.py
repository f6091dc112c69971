"""Per-point data is built once per batch and shared read-only.

Frame matrices, component linearizations and the per-word entries (value
and inverse, adjoints, frame differentials) live in the memo of the point's
batch, so residuals that read the same data at the points of one batch --
directly, through another residual, or through both tensors of a dual pair
-- differentiate each word once, and no caller can change what another
caller reads.
"""

import gc
import weakref
from collections import Counter

import numpy as np
import pytest

import qpois.fields as fields
import qpois.groupgeom as groupgeom
import qpois.quasi as quasi
from qpois import models
from qpois.dirac import cartan_dirac_fibers, dirac_booleans, projections_pq
from qpois.groupgeom import Factor, Site, Tangent, random_point, random_points
from qpois.quasi import (
    assemble_surface_site,
    component_linear,
    duality_residual,
    internally_fused,
    momentum_residual,
    reconstruct_dual,
)


def _two_puncture(seed=15):
    model, pairing = models.sl2()
    reps = [np.diag([2.0, 0.5]), np.diag([3.0, 1.0 / 3.0])]
    site, qp, qh = assemble_surface_site(model, pairing, 1, reps)
    return site, qp, qh, random_point(site, np.random.default_rng(seed))


def _prefixes(words):
    return {w[:k] for w in words for k in range(1, len(w) + 1)}


def _counting_steps(monkeypatch):
    """Wraps `groupgeom.word_tangent`; the returned list counts each
    letter step that moves a derivative, one per prefix and tangent whose
    derivative is set there."""
    steps = [0]
    orig = groupgeom.word_tangent

    def counted(word, letters, tangents, start):
        states = orig(word, letters, tangents, start)
        steps[0] += sum(d is not None for _, *derivs in states for d in derivs)
        return states

    monkeypatch.setattr(groupgeom, "word_tangent", counted)
    return steps


def test_each_word_is_differentiated_once_per_batch(monkeypatch):
    """Residuals at every point of a batch build each entry once, for the
    whole batch, and step the letter of each prefix of the words they
    differentiate once along each factor it reads, in whatever order they
    ask for the words; no point builds its own entry."""
    site, qp, qh, _ = _two_puncture()
    points = random_points(site, np.random.default_rng(16), 3)
    batch = points[0]._batch
    counts, builds = Counter(), Counter()
    orig_diff = groupgeom._word_differentials
    orig_memo = groupgeom.PointBatch.memo

    def counted(batch, word):
        counts[word] += 1
        return orig_diff(batch, word)

    def memo(self, key, build):
        if key not in self._memo:
            builds[id(self), key] += 1
        return orig_memo(self, key, build)

    monkeypatch.setattr(groupgeom, "_word_differentials", counted)
    steps = _counting_steps(monkeypatch)
    monkeypatch.setattr(groupgeom.PointBatch, "memo", memo)
    for p in points:
        momentum_residual(qh, p)
        duality_residual(qp, qh, p)
        reconstruct_dual(qh, p)
        reconstruct_dual(qp, p)
        dirac_booleans(qh, p, 0)
    assert qh.momentum[0].word in counts
    assert counts and set(counts.values()) == {1}, counts
    words = {w for w in counts if w}
    prefixes = _prefixes(words)
    assert steps[0] == sum(len({f for f, _ in p}) for p in prefixes)
    # fewer steps than one sweep per word from its first letter
    assert steps[0] < sum(len({f for f, _ in w[:k]}) for w in words
                          for k in range(1, len(w) + 1))
    assert {owner for owner, _ in builds} == {id(batch)}
    assert set(builds.values()) == {1}
    assert qp.bivector in batch._memo and qh.form in batch._memo


def test_dirac_fibers_read_word_entries_without_a_frame():
    """The canonical projections and fibers need only Ad of the word; the
    component's linearization reads the same word entries."""
    _, qp, _, p = _two_puncture()
    comp = qp.momentum[0]
    projections_pq(p, comp)
    cartan_dirac_fibers(p, comp)
    assert "frame" not in p._memo
    assert comp not in p._memo
    lin = component_linear(p, comp)
    ad, ad_inv = p.word_ad(comp.word)
    # the linearization reads the word's entries, not copies of them
    assert np.shares_memory(lin.ad, ad) and np.shares_memory(lin.ad_inv, ad_inv)
    assert np.shares_memory(lin.left, p.word_differentials(comp.word)[0])
    arrays = [*p.word_value(comp.word), ad, ad_inv,
              *p.word_differentials(comp.word)]
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0


def test_shared_arrays_are_read_only():
    _, qp, qh, p = _two_puncture()
    pmat = qp.bivector.frame_matrix(p)
    smat = qh.form.frame_matrix(p)
    lin = component_linear(p, qh.momentum[0])
    assert qp.bivector.frame_matrix(p) is pmat
    assert qh.form.frame_matrix(p) is smat
    for arr in (pmat, smat, lin.left, lin.right, lin.action, lin.ad, lin.ad_inv):
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0
    with pytest.raises(ValueError):
        pmat += 1.0


def test_dual_descriptors_share_one_linearization():
    _, qp, qh, p = _two_puncture()
    assert component_linear(p, qp.momentum[0]) is component_linear(p, qh.momentum[0])
    # the internally fused pair builds its components separately; they are
    # equal values, so they key the same linearization
    model, pairing = models.sl2()
    site = Site(model, pairing, [Factor("group"), Factor("group")])
    fqp, fqh = internally_fused(site, 0, 1)
    assert fqp.momentum[0] is not fqh.momentum[0]
    assert fqp.momentum[0] == fqh.momentum[0]
    q = random_point(site, np.random.default_rng(3))
    assert component_linear(q, fqp.momentum[0]) is component_linear(q, fqh.momentum[0])


def test_point_with_built_memo_is_freed_without_the_collector():
    _, qp, qh, p = _two_puncture()
    qp.bivector.frame_matrix(p)
    qh.form.frame_matrix(p)
    component_linear(p, qh.momentum[0])
    assert p.frame().dim > 0
    ref = weakref.ref(p)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del p
        # no reference cycle through the memo: freed by reference counting
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_batch_points_are_freed_without_the_collector():
    site, qp, qh, _ = _two_puncture()
    points = random_points(site, np.random.default_rng(17), 3)
    for p in points:
        qp.bivector.frame_matrix(p)
        component_linear(p, qh.momentum[0])
    refs = [weakref.ref(p) for p in points]
    batch = weakref.ref(points[0]._batch)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del p, points
        # the batch refers to no point: all are freed by reference counting,
        # and the batch with them
        assert [ref() for ref in refs] == [None] * 3
        assert batch() is None
    finally:
        if enabled:
            gc.enable()


def test_closedness_residuals_make_two_evaluations_per_point(monkeypatch):
    """All derivative terms of every point's triples share one Dual
    evaluation and all bracket terms one plain evaluation, so a residual
    makes two evaluations, not two per point."""
    calls = Counter()
    orig = fields.FormField.evaluate

    def counted(self, mats, t1, t2):
        calls["evaluate"] += 1
        return orig(self, mats, t1, t2)

    monkeypatch.setattr(fields.FormField, "evaluate", counted)
    site, _, qh, _ = _two_puncture()
    pts = [random_point(site, np.random.default_rng(s)) for s in range(3)]
    quasi.quasi_closed_residual(qh, pts, seed=4)
    assert calls["evaluate"] == 2

    calls.clear()
    model, pairing = models.sl2()
    site, _, _ = assemble_surface_site(model, pairing, 2, [])
    pts = [random_point(site, np.random.default_rng(s)) for s in range(3)]
    quasi.cn1_residual(site, pts, seed=5)
    assert calls["evaluate"] == 2


def test_one_evaluation_differentiates_each_word_once_per_tangent(monkeypatch):
    """One evaluation steps the letter of each prefix of its words once
    along each tangent: a word continues the sweep of its longest swept
    prefix, whatever the order of the terms."""
    model, pairing = models.sl2_abelian()
    site, _, qh = assemble_surface_site(model, pairing, 3, [])
    words = ({t.word_u for t in qh.form.pair_terms}
             | {t.word_v for t in qh.form.pair_terms})
    steps = _counting_steps(monkeypatch)
    p = random_point(site, np.random.default_rng(6))
    frame = p.frame()
    probes = Tangent(frame.stacked)
    qh.form.evaluate(p.mats, probes, probes)
    # a, ab and abAB begin abABcdCD, c and cd begin cdCD, e and ef begin efEF
    assert steps[0] == 2 * len(_prefixes(words))
    assert steps[0] < 2 * sum(map(len, words))
