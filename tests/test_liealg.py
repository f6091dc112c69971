import numpy as np
import pytest

from qpois import liealg, models
from qpois.charvar import _INVARIANCE_PROBES, TraceFunction, invariance_residual
from qpois.duals import _dexpm_rows, dexpm
from qpois.errors import DegeneratePairing, NotClosed, NotConvenient, NotInSpan, RankDeficient
from qpois.groupgeom import random_point
from qpois.liealg import (
    _AD_SAMPLES,
    PairingData,
    ad_invariance_residual,
    adjoint_matrix,
    build_lie_algebra,
    cartan3,
    random_group_elements,
    trace_pairing,
    verify_chi_identity,
)
from qpois.quasi import assemble_surface_site
from site_reference import algebra_element

GROUPS = [{"family": "SL", "n": 2}, {"family": "GL", "n": 2},
          {"family": "SL", "n": 3}, {"family": "sl2_abelian"},
          {"family": "abelian", "n": 2}]


def abelian2():
    return models.model_from_config({"family": "abelian", "n": 2})


def test_sl2_structure_constants():
    model, _ = models.sl2()
    # order H, E, F: [H,E] = 2E, [H,F] = -2F, [E,F] = H
    assert abs(model.struct[1, 0, 1] - 2) < 1e-12
    assert abs(model.struct[2, 0, 2] + 2) < 1e-12
    assert abs(model.struct[0, 1, 2] - 1) < 1e-12
    # everything else in those slices vanishes
    br = model.bracket_coeffs(np.array([1, 0, 0]), np.array([0, 1, 0]))
    assert np.allclose(br, [0, 2, 0])
    assert model.closure_residual <= 1e-10


def test_closure_reconstruction_all_models():
    for group in GROUPS:
        model, _ = models.model_from_config(group)
        for u in range(model.d):
            for v in range(model.d):
                lhs = model.basis[u] @ model.basis[v] - model.basis[v] @ model.basis[u]
                rhs = model.from_coeffs(model.struct[:, u, v])
                assert np.abs(lhs - rhs).max() <= 1e-10


def test_abelian_struct_zero():
    model, _ = abelian2()
    assert np.abs(model.struct).max() == 0.0


def test_dependent_basis_rejected():
    h = np.diag([1.0, -1.0])
    with pytest.raises(RankDeficient):
        build_lie_algebra([h, 2 * h])


def test_not_closed_rejected():
    # span{E11, E12} in gl2 is not closed under commutator with... E12,E21 pair
    e12 = np.array([[0.0, 1.0], [0.0, 0.0]])
    e21 = np.array([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(NotClosed):
        build_lie_algebra([e12, e21])


def test_coeffs_span_guard():
    model, _ = models.sl2()
    with pytest.raises(NotInSpan):
        model.coeffs(np.eye(2))  # identity is not traceless


def test_adjoint_diag_action():
    model, _ = models.sl2()
    t = 1.7
    q = np.diag([t, 1 / t]).astype(complex)
    amat = adjoint_matrix(model, q, np.linalg.inv(q))
    assert np.allclose(amat @ np.array([0, 1.0, 0]), [0, t * t, 0])


def test_abelian_adjoint_trivial():
    model, _ = abelian2()
    q = np.diag([2.0, 5.0]).astype(complex)
    x = np.array([0.3, -1.2])
    assert np.allclose(adjoint_matrix(model, q, np.linalg.inv(q)) @ x, x)


def test_trace_pairing_sl2():
    model, pairing = models.sl2()
    expect = np.array([[2.0, 0, 0], [0, 0, 1], [0, 1, 0]])
    assert np.allclose(pairing.eta_lower, expect)
    expect_up = np.array([[0.5, 0, 0], [0, 0, 1], [0, 1, 0]])
    assert np.allclose(pairing.eta_upper, expect_up)
    assert pairing.invertible


def test_ad_invariance():
    for group in GROUPS:
        model, pairing = models.model_from_config(group)
        assert ad_invariance_residual(model, pairing, seed=3) <= 1e-10


def test_ad_invariance_detects_perturbation():
    model, pairing = models.sl2()
    bad = np.array(pairing.eta_lower)
    bad[0, 1] += 1e-3
    bad[1, 0] += 1e-3
    broken = PairingData(bad, np.linalg.inv(bad))
    r = ad_invariance_residual(model, broken, seed=3)
    assert 1e-5 < r < 1e-1


def test_ad_invariance_nan_at_a_later_sample_shows(monkeypatch):
    import qpois.liealg as liealg

    model, pairing = models.sl2()
    real, calls = liealg.adjoint_matrix, []

    def third_sample_nan(*args):
        calls.append(1)
        out = real(*args)
        out[2] = np.nan
        return out

    monkeypatch.setattr(liealg, "adjoint_matrix", third_sample_nan)
    assert np.isnan(ad_invariance_residual(model, pairing, seed=3))
    assert len(calls) == 1


@pytest.mark.parametrize("build", [
    lambda: models.model_from_config({"family": "SL", "n": 2})[0],
    lambda: models.model_from_config({"family": "SL", "n": 3})[0],
    lambda: models.model_from_config({"family": "sl2_abelian"})[0],
    # large draws: the rows need different numbers of squarings
    lambda: build_lie_algebra(40 * models.sl2()[0].basis),
], ids=["sl2", "sl3", "sl2ab", "sl2-x40"])
@pytest.mark.parametrize("shape", [(6,), (6, 3)], ids=["elements", "points"])
def test_random_group_elements_are_one_dexpm_per_row(build, shape,
                                                     monkeypatch):
    """The one normal block gives the algebra elements of prod(shape)
    per-element draws bit for bit, and each row is the dexpm of its own:
    one element, or one point's stack of factors; the generator ends where
    those per-element draws leave it."""
    model = build()
    drawn = []

    def recorded(a):
        drawn.append(a)
        return _dexpm_rows(a)

    monkeypatch.setattr(liealg, "_dexpm_rows", recorded)
    for seed in range(4):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = random_group_elements(model, rng, shape)
        assert got.shape == shape + (model.n, model.n)
        xi = np.reshape([algebra_element(model, ref)
                         for _ in range(int(np.prod(shape)))],
                        shape + (model.d,))
        assert np.array_equal(drawn.pop(), model.from_coeffs(xi)), seed
        for row, row_xi in zip(got, xi):
            assert np.array_equal(row, dexpm(model.from_coeffs(row_xi))), seed
        assert rng.bit_generator.state == ref.bit_generator.state


def _ad_invariance_loop(model, pairing, seed):
    """The pairing's invariance gate, one sample at a time."""
    rng = np.random.Generator(np.random.PCG64(seed))
    gaps = []
    for _ in range(_AD_SAMPLES):
        g = dexpm(model.from_coeffs(algebra_element(model, rng)))
        a = adjoint_matrix(model, g, np.linalg.inv(g))
        s, h = pairing.eta_lower, pairing.eta_upper
        gaps += [np.abs(a.T @ s @ a - s).max(), np.abs(a @ h @ a.T - h).max()]
    return float(np.max(gaps, initial=0.0))


def _invariance_loop(fn, point, rng):
    """The invariance probes of a function, one probe at a time."""
    model = point.site.model
    base = complex(fn(point.mats))
    gaps = []
    for _ in range(_INVARIANCE_PROBES):
        g = dexpm(model.from_coeffs(algebra_element(model, rng)))
        gaps.append(abs(complex(fn(g @ point.mats @ np.linalg.inv(g))) - base))
    return float(np.max(gaps, initial=0.0))


@pytest.mark.parametrize("group", [
    {"family": "SL", "n": 2}, {"family": "SL", "n": 3},
    {"family": "sl2_abelian"}], ids=["sl2", "sl3", "sl2ab"])
def test_batched_probes_equal_the_per_sample_loops(group):
    model, pairing = models.model_from_config(group)
    bad = np.array(pairing.eta_lower)
    bad[0, 1] += 1e-3
    bad[1, 0] += 1e-3
    broken = PairingData(bad, np.linalg.pinv(bad))
    site, _, _ = assemble_surface_site(model, pairing, 1, [])
    fns = [TraceFunction(site, "abAB"), lambda mats: mats[0][0, 1]]
    for seed in range(6):
        for pair in (pairing, broken):
            assert (ad_invariance_residual(model, pair, seed)
                    == _ad_invariance_loop(model, pair, seed)), seed
        p = random_point(site, np.random.default_rng(seed))
        for fn in fns:
            got = invariance_residual(fn, p, np.random.default_rng(seed + 10))
            assert got == _invariance_loop(fn, p, np.random.default_rng(seed + 10))


def test_cartan3_sl2_oracle():
    model, pairing = models.sl2()
    phi = cartan3(model, pairing)
    # eta^{H,E,F} = 1 and total antisymmetry
    assert abs(phi[0, 1, 2] - 1) < 1e-12
    assert abs(phi[1, 2, 0] - 1) < 1e-12
    assert abs(phi[1, 0, 2] + 1) < 1e-12
    assert np.count_nonzero(np.abs(phi) > 1e-12) == 6


def test_cartan3_abelian_zero():
    model, pairing = abelian2()
    assert np.abs(cartan3(model, pairing)).max() == 0.0


def test_cartan3_degenerate_supported_on_block():
    model, pairing = models.sl2_abelian()
    phi = cartan3(model, pairing)
    assert np.abs(phi[3, :, :]).max() < 1e-12
    assert np.abs(phi[:, 3, :]).max() < 1e-12
    assert np.abs(phi[:, :, 3]).max() < 1e-12
    assert abs(phi[0, 1, 2] - 1) < 1e-12


def test_cartan3_noninvariant_rejected():
    model, _ = models.sl2()
    upper = np.diag([1.0, 1.0, 2.0])
    bad = PairingData(np.linalg.inv(upper), upper)
    with pytest.raises(NotConvenient):
        cartan3(model, bad)


def test_chi_identity_all_models():
    for group in GROUPS:
        model, pairing = models.model_from_config(group)
        assert verify_chi_identity(model, pairing) <= 1e-10


def test_degenerate_pairing_flags():
    _, pairing = models.sl2_abelian()
    assert not pairing.invertible
    with pytest.raises(DegeneratePairing):
        pairing.require_invertible()


def test_pairing_from_lower_degenerate():
    # a singular eta_lower gets its pseudo-inverse as eta_upper
    model, _ = abelian2()
    p = trace_pairing(model, scale=3.0, mask=[1.0, 0.0])
    assert np.array_equal(p.eta_lower, np.diag([3.0, 0.0]))
    assert np.allclose(p.eta_upper, np.diag([1 / 3, 0.0]))
    assert not p.invertible
    with pytest.raises(DegeneratePairing):
        p.require_invertible()
