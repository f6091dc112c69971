import numpy as np
import pytest

from qpois import models
from qpois.errors import DegeneratePairing, NotEpimorphism
from qpois.groupgeom import Factor, Site, parse_word, random_point, word_eval
from qpois.quasi import (
    assemble_surface_site,
    class_descriptors,
    cn1_residual,
    double_descriptors,
    duality_residual,
    internally_fused,
    momentum_residual,
    nondegeneracy_check,
    pg_descriptor,
    quasi_closed_residual,
    reconstruct_dual,
    rho_matrix,
)

from site_reference import two_chain_form

REP = np.diag([2.0, 0.5]).astype(complex)


def _points(site, count, base_seed=0):
    return [random_point(site, np.random.default_rng(base_seed + k))
            for k in range(count)]


def test_rho_vanishes_where_word_is_central():
    """At a point whose momentum value is the identity the defect rho is 0."""
    model, pairing = models.sl2()
    site = Site(model, pairing, [Factor("group"), Factor("group")])
    qp, _ = internally_fused(site, 0, 1)
    # commuting matrices: [x, y] = identity
    x = np.diag([2.0, 0.5]).astype(complex)
    y = np.diag([3.0, 1 / 3.0]).astype(complex)
    from qpois.groupgeom import PointBatch
    p = PointBatch(site, [[x, y]]).points()[0]
    assert np.abs(rho_matrix(qp, p)).max() < 1e-12


def test_duality_double():
    model, pairing = models.sl2()
    site = Site(model, pairing, [Factor("group"), Factor("group")])
    qp, qh = double_descriptors(site, 0, 1)
    for p in _points(site, 4):
        assert duality_residual(qp, qh, p) <= 1e-9


def test_duality_class_pair():
    model, pairing = models.sl2()
    site = Site(model, pairing, [Factor("class", REP)])
    qp, qh = class_descriptors(site)
    for p in _points(site, 4):
        assert duality_residual(qp, qh, p) <= 1e-9


def test_duality_internally_fused():
    model, pairing = models.sl2()
    site = Site(model, pairing, [Factor("group"), Factor("group")])
    qp, qh = internally_fused(site, 0, 1)
    for p in _points(site, 4):
        assert duality_residual(qp, qh, p) <= 1e-9


@pytest.mark.parametrize("sig", [(1, 1), (2, 0)])
def test_duality_surface(sig):
    genus, npunct = sig
    model, pairing = models.sl2()
    site, qp, qh = assemble_surface_site(model, pairing, genus, [REP] * npunct)
    for p in _points(site, 2):
        assert duality_residual(qp, qh, p) <= 1e-8


def test_duality_gl2_and_sl3():
    for group in ({"family": "GL", "n": 2}, {"family": "SL", "n": 3}):
        model, pairing = models.model_from_config(group)
        site = Site(model, pairing, [Factor("group"), Factor("group")])
        qp, qh = internally_fused(site, 0, 1)
        for p in _points(site, 2):
            assert duality_residual(qp, qh, p) <= 1e-8


def test_duality_refuses_degenerate():
    model, pairing = models.sl2_abelian()
    site = Site(model, pairing, [Factor("group"), Factor("group")])
    qp, qh = double_descriptors(site, 0, 1)
    p = random_point(site, np.random.default_rng(0))
    with pytest.raises(DegeneratePairing):
        duality_residual(qp, qh, p)


def test_reconstruct_bivector_from_form():
    model, pairing = models.sl2()
    site = Site(model, pairing, [Factor("group"), Factor("group")])
    qp, qh = double_descriptors(site, 0, 1)
    for p in _points(site, 3):
        rec, kr = reconstruct_dual(qh, p)
        ref = qp.bivector.frame_matrix(p)
        assert np.abs(rec - ref).max() <= 1e-8
        assert kr <= 1e-8


def test_reconstruct_form_from_bivector():
    model, pairing = models.sl2()
    site = Site(model, pairing, [Factor("group"), Factor("group")])
    qp, qh = double_descriptors(site, 0, 1)
    for p in _points(site, 3):
        rec, kr = reconstruct_dual(qp, p)
        ref = qh.form.frame_matrix(p)
        assert np.abs(rec - ref).max() <= 1e-8
        assert kr <= 1e-8


def test_reconstruct_surface_11():
    model, pairing = models.sl2()
    site, qp, qh = assemble_surface_site(model, pairing, 1, [REP])
    for p in _points(site, 2):
        rec, kr = reconstruct_dual(qh, p)
        ref = qp.bivector.frame_matrix(p)
        assert np.abs(rec - ref).max() <= 1e-8
        assert kr <= 1e-8
        rec2, kr2 = reconstruct_dual(qp, p)
        ref2 = qh.form.frame_matrix(p)
        assert np.abs(rec2 - ref2).max() <= 1e-8
        assert kr2 <= 1e-8


def test_reconstruct_not_epimorphism_guard():
    """A single group factor with the identity word: fund + P# do not span."""
    model, pairing = models.sl2()
    site = Site(model, pairing, [Factor("group")])
    desc = pg_descriptor(site)
    from qpois.groupgeom import PointBatch
    p = PointBatch(site, [[np.eye(2)]]).points()[0]  # everything degenerates at the identity
    with pytest.raises(NotEpimorphism):
        reconstruct_dual(desc, p)


def test_nondegeneracy_double_full_rank():
    model, pairing = models.sl2()
    site = Site(model, pairing, [Factor("group"), Factor("group")])
    qp, qh = double_descriptors(site, 0, 1)
    p = random_point(site, np.random.default_rng(3))
    assert nondegeneracy_check(qp, p) == 0
    assert nondegeneracy_check(qh, p) == 0


def test_nondegeneracy_degenerate_double_deficit():
    """With a central direction killed by the pairing, the bivector range
    misses it, and the two twisted actions only add the anti-diagonal central
    line: exactly one tangent direction stays unreachable."""
    model, pairing = models.sl2_abelian()
    site = Site(model, pairing, [Factor("group"), Factor("group")])
    qp, _ = double_descriptors(site, 0, 1)
    for seed in (4, 5):
        p = random_point(site, np.random.default_rng(seed))
        assert nondegeneracy_check(qp, p) == 1


def test_quasi_closed_double():
    model, pairing = models.sl2()
    site = Site(model, pairing, [Factor("group"), Factor("group")])
    _, qh = double_descriptors(site, 0, 1)
    pts = _points(site, 3)
    assert quasi_closed_residual(qh, pts, seed=11) <= 1e-7


def test_quasi_closed_class():
    model, pairing = models.sl2()
    site = Site(model, pairing, [Factor("class", REP)])
    _, qh = class_descriptors(site)
    pts = _points(site, 3)
    assert quasi_closed_residual(qh, pts, seed=12) <= 1e-7


def test_quasi_closed_surface_11():
    model, pairing = models.sl2()
    site, _, qh = assemble_surface_site(model, pairing, 1, [REP])
    pts = _points(site, 2)
    assert quasi_closed_residual(qh, pts, seed=13) <= 1e-7


def test_cn1_calibration():
    model, pairing = models.sl2()
    site = Site(model, pairing, [Factor("group"), Factor("group")])
    pts = _points(site, 4)
    assert cn1_residual(site, pts, seed=14) <= 1e-7


def test_cn1_gl2():
    model, pairing = models.model_from_config({"family": "GL", "n": 2})
    site = Site(model, pairing, [Factor("group"), Factor("group")])
    pts = _points(site, 2)
    assert cn1_residual(site, pts, seed=15) <= 1e-7


def test_torus_chain_reproduces_fused_form():
    """The alternating sum of square chains attached to the commutator word
    evaluates to the internally fused 2-form."""
    model, pairing = models.sl2()
    site = Site(model, pairing, [Factor("group"), Factor("group")])
    _, qh = internally_fused(site, 0, 1)
    chain = [
        (-1.0, "a", "b"),
        (-1.0, "A", "B"),
        (-1.0, "ab", "AB"),
        (1.0, "a", "A"),
        (1.0, "b", "B"),
    ]
    cform = two_chain_form(site, chain)
    rng = np.random.default_rng(16)
    for p in _points(site, 3):
        ref = qh.form.frame_matrix(p)
        got = cform.frame_matrix(p)
        assert np.abs(ref - got).max() <= 1e-10


def test_inverse_pair_chains_vanish():
    """[w | w^-1] square chains contribute the zero 2-form."""
    model, pairing = models.sl2()
    site = Site(model, pairing, [Factor("group"), Factor("group")])
    for u, v in (("a", "A"), ("b", "B"), ("ab", "BA")):
        cform = two_chain_form(site, [(1.0, u, v)])
        for p in _points(site, 2):
            assert np.abs(cform.frame_matrix(p)).max() <= 1e-12


def test_degenerate_model_momentum_still_holds():
    model, pairing = models.sl2_abelian()
    site = Site(model, pairing, [Factor("group"), Factor("group")])
    qp, qh = double_descriptors(site, 0, 1)
    for p in _points(site, 2):
        assert momentum_residual(qp, p) <= 1e-9
        assert momentum_residual(qh, p) <= 1e-9
