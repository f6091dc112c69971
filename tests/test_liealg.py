import numpy as np
import pytest

from qpois import models
from qpois.errors import DegeneratePairing, NotClosed, NotConvenient, NotInSpan, RankDeficient
from qpois.liealg import (
    PairingData,
    ad_invariance_residual,
    adjoint_matrix,
    build_lie_algebra,
    cartan3,
    trace_pairing,
    verify_chi_identity,
)

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

    def third_call_nan(*args):
        calls.append(1)
        out = real(*args)
        return np.full_like(out, np.nan) if len(calls) == 3 else out

    monkeypatch.setattr(liealg, "adjoint_matrix", third_call_nan)
    assert np.isnan(ad_invariance_residual(model, pairing, seed=3))
    assert len(calls) == 16


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
