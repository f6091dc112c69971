import numpy as np
import pytest
import scipy.linalg

from qpois.duals import Dual, apply_linear, dexpm, dinv, dtrace, value


def rand(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_value_and_arithmetic():
    rng = np.random.default_rng(0)
    a, b = rand(rng, 3, 3), rand(rng, 3, 3)
    u, v = rand(rng, 3, 3), rand(rng, 3, 3)
    x = Dual(a, u)
    y = Dual(b, v)
    z = x @ y
    assert np.allclose(z.re, a @ b)
    assert np.allclose(z.eps, u @ b + a @ v)
    s = x + 2.0 * y - b
    assert np.allclose(s.re, a + 2 * b - b)
    assert np.allclose(s.eps, u + 2 * v)
    p = x * 3.0
    assert np.allclose(p.eps, 3 * u)
    assert np.allclose(value(z), a @ b)
    assert np.allclose(value(a), a)


def test_matmul_first_order_fd():
    rng = np.random.default_rng(1)
    a, u = rand(rng, 3, 3), rand(rng, 3, 3)
    # f(q) = q @ q @ q, derivative along u
    x = Dual(a, u)
    exact = (x @ x @ x).eps
    t = 1e-7
    fd = (((a + t * u) @ (a + t * u) @ (a + t * u)) - a @ a @ a) / t
    assert np.abs(exact - fd).max() < 1e-5


def test_dinv_exact():
    rng = np.random.default_rng(2)
    a = rand(rng, 3, 3) + 3 * np.eye(3)
    u = rand(rng, 3, 3)
    z = dinv(Dual(a, u))
    ainv = np.linalg.inv(a)
    assert np.allclose(z.re, ainv)
    assert np.allclose(z.eps, -ainv @ u @ ainv)
    # product with the original is constant identity
    w = Dual(a, u) @ z
    assert np.abs(w.eps).max() < 1e-12


def test_dtrace_and_apply_linear():
    rng = np.random.default_rng(3)
    a, u = rand(rng, 2, 2), rand(rng, 2, 2)
    z = dtrace(Dual(a, u))
    assert np.allclose(z.re, np.trace(a))
    assert np.allclose(z.eps, np.trace(u))
    lmat = rand(rng, 3, 4)
    v = rand(rng, 2, 2)
    out = apply_linear(lmat, v)
    assert np.allclose(out, lmat @ v.reshape(-1))
    dz = apply_linear(lmat, Dual(a, u))
    assert np.allclose(dz.eps, lmat @ u.reshape(-1))


def test_dexpm_matches_scipy():
    rng = np.random.default_rng(4)
    for scale in (0.1, 1.0, 4.0):
        a = scale * rand(rng, 3, 3)
        assert np.abs(dexpm(a) - scipy.linalg.expm(a)).max() < 1e-11 * np.exp(scale)


def test_dexpm_batch_shares_one_scaling_power():
    """A stack whose members need no scaling (1-norm 0.01) and three
    squarings (1-norm 40) is squared alike, and each member still matches
    scipy."""
    rng = np.random.default_rng(8)
    a = rand(rng, 2, 3, 3)
    norms = np.abs(a).sum(axis=-2).max(axis=-1)      # induced 1-norms
    a *= (np.array([0.01, 40.0]) / norms)[:, None, None]
    got = dexpm(a)
    for k in range(2):
        ref = scipy.linalg.expm(a[k])
        assert np.abs(got[k] - ref).max() <= 1e-14 * np.abs(ref).max()

def test_dexpm_derivative_fd():
    rng = np.random.default_rng(5)
    a, u = rand(rng, 3, 3), rand(rng, 3, 3)
    z = dexpm(Dual(a, u))
    t = 1e-8
    fd = (scipy.linalg.expm(a + t * u) - scipy.linalg.expm(a)) / t
    assert np.abs(z.eps - fd).max() < 1e-5
    # Frechet derivative from scipy as a sharper oracle
    _, frechet = scipy.linalg.expm_frechet(a, u)
    assert np.abs(z.eps - frechet).max() < 1e-10


def test_batched_broadcast():
    rng = np.random.default_rng(6)
    a = rand(rng, 3, 3)
    us = rand(rng, 5, 3, 3)
    z = Dual(a, us) @ Dual(a, us) - a @ a
    assert z.eps.shape == (5, 3, 3)
    single = (Dual(a, us[2]) @ Dual(a, us[2])).eps
    assert np.allclose(z.eps[2], single)


def test_nested_second_derivative():
    rng = np.random.default_rng(7)
    a, u, w = rand(rng, 3, 3), rand(rng, 3, 3), rand(rng, 3, 3)
    # f(q) = tr(q^3): D2 f[u,w] = 3 tr(uwq + uqw) at q = a... use nested duals
    inner = Dual(Dual(a, u), Dual(w, np.zeros((3, 3), dtype=complex)))
    out = dtrace(inner @ inner @ inner)
    mixed = out.eps.eps
    exact = 3 * np.trace(w @ u @ a + w @ a @ u + u @ w @ a)
    # D2 tr(q^3)[u,w] = sum over placements of u and w in q q q
    exact = (np.trace(u @ w @ a) + np.trace(u @ a @ w) + np.trace(w @ u @ a)
             + np.trace(a @ u @ w) + np.trace(w @ a @ u) + np.trace(a @ w @ u))
    assert abs(mixed - exact) < 1e-10


def test_division_by_dual_rejected():
    a = np.eye(2)
    d = Dual(a, a)
    with pytest.raises(TypeError):
        _ = 1.0 / d
