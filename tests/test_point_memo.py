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


def _chains(words):
    """The words that begin no other word of the set: every word of the set
    is a prefix of one of them."""
    return {w for w in words
            if not any(len(v) > len(w) and v[:len(w)] == w for v in words)}


def test_each_word_is_differentiated_once_per_batch(monkeypatch):
    """Residuals at every point of a batch build each entry once, for the
    whole batch, and step each chain's letters once per factor: one
    `word_tangent` sweep per chain, the longest word of the chain, along
    every factor of it at once, whose prefix states give the chain's other
    words; no point builds its own entry."""
    site, qp, qh, _ = _two_puncture()
    points = random_points(site, np.random.default_rng(16), 3)
    batch = points[0]._batch
    counts, sweeps, builds = Counter(), Counter(), Counter()
    orig_diff, orig_tangent = groupgeom._word_differentials, groupgeom.word_tangent
    orig_memo = groupgeom.PointBatch.memo

    def counted(batch, word):
        counts[word] += 1
        return orig_diff(batch, word)

    def counted_tangent(word, letters, tangents):
        sweeps[word, len(tangents)] += 1
        return orig_tangent(word, letters, tangents)

    def memo(self, key, build):
        if key not in self._memo:
            builds[id(self), key] += 1
        return orig_memo(self, key, build)

    monkeypatch.setattr(groupgeom, "_word_differentials", counted)
    monkeypatch.setattr(groupgeom, "word_tangent", counted_tangent)
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
    # one sweep per chain, once, along each factor of its word
    assert sweeps == {(w, len({f for f, _ in w})): 1 for w in _chains(words)}, sweeps
    assert len(sweeps) < len(words)
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
    fqp, fqh = internally_fused(site)
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
    """One evaluation steps each chain's letters once per tangent: one
    letter list and one `word_tangent` sweep along both tangents per chain,
    whose prefix states give the chain's other words."""
    model, pairing = models.sl2_abelian()
    site, _, qh = assemble_surface_site(model, pairing, 3, [])
    words = ({t.word_u for t in qh.form.pair_terms}
             | {t.word_v for t in qh.form.pair_terms})
    letter_lists, sweeps = Counter(), Counter()
    orig_letters, orig_tangent = fields._letters, fields.word_tangent

    def counted_letters(word, mats, inverses):
        letter_lists[word] += 1
        return orig_letters(word, mats, inverses)

    def counted_tangent(word, letters, tangents):
        sweeps[word, len(tangents)] += 1
        return orig_tangent(word, letters, tangents)

    monkeypatch.setattr(fields, "_letters", counted_letters)
    monkeypatch.setattr(fields, "word_tangent", counted_tangent)
    p = random_point(site, np.random.default_rng(6))
    frame = p.frame()
    probes = Tangent(frame.stacked)
    qh.form.evaluate(p.mats, probes, probes)
    chains = _chains(words)
    # abABcdCD carries abAB, ab and a; cdCD carries cd and c; efEF ef and e
    assert len(chains) == len(words) - 7
    assert letter_lists == {w: 1 for w in chains}
    assert sweeps == {(w, 2): 1 for w in chains}
