import numpy as np
import pytest
import scipy.linalg

from qpois.duals import Dual, apply_linear, dexpm, dinv, dtrace, matmul, value


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


# ---------------------------------------------------------------------------
# products over two-axis batches as single GEMMs
# ---------------------------------------------------------------------------

def _slice_norm(x):
    """Largest Frobenius norm over the matrix slices of x."""
    return float(np.linalg.norm(x, axis=(-2, -1)).max())


@pytest.mark.parametrize("a_shape, b_shape", [
    ((3, 3), (48, 48, 3, 3)),          # single matrix times a two-axis stack
    ((3, 3), (48, 1, 3, 3)),
    ((4, 3), (5, 6, 3, 2)),
    ((48, 48, 3, 3), (3, 3)),          # two-axis stack times a single matrix
    ((5, 6, 2, 3), (3, 4)),
    ((48, 3, 3), (48, 1, 3, 3)),       # outer product of two stacks
    ((7, 2, 3), (5, 1, 3, 4)),
    ((48, 1, 3, 3), (48, 3, 3)),       # its mirror
    ((5, 1, 2, 3), (7, 3, 4)),
])
def test_folded_products_match_matmul(a_shape, b_shape):
    rng = np.random.default_rng(20)
    a, b = rand(rng, *a_shape), rand(rng, *b_shape)
    ref = np.matmul(a, b)
    got = matmul(a, b)
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= 1e-15 * _slice_norm(a) * _slice_norm(b)
    # mixed real and complex operands, as a coordinate function's matrix
    assert np.abs(matmul(a.real, b) - np.matmul(a.real, b)).max() <= (
        1e-15 * _slice_norm(a.real) * _slice_norm(b))


@pytest.mark.parametrize("a_shape, b_shape", [
    ((3, 3), (3, 3)),
    ((48, 3, 3), (3, 3)),
    ((3, 3), (48, 3, 3)),
    ((48, 3, 3), (48, 3, 3)),
    ((48, 48, 3, 3), (48, 48, 3, 3)),   # no GEMM form: np.matmul as before
    ((48, 1, 3, 3), (48, 48, 3, 3)),
])
def test_other_products_are_bit_identical(a_shape, b_shape):
    rng = np.random.default_rng(21)
    a, b = rand(rng, *a_shape), rand(rng, *b_shape)
    assert np.array_equal(matmul(a, b), np.matmul(a, b))


def test_first_order_dual_products_keep_matmul_bits():
    rng = np.random.default_rng(22)
    a, b, c = rand(rng, 3, 3), rand(rng, 3, 3), rand(rng, 3, 3)
    us, vs = rand(rng, 24, 3, 3), rand(rng, 24, 3, 3)
    z = c @ (Dual(a, us) @ Dual(b, vs))
    assert np.array_equal(z.re, c @ (a @ b))
    assert np.array_equal(z.eps, np.matmul(c, np.matmul(a, vs) + np.matmul(us, b)))
    assert np.array_equal(dtrace(Dual(a, us)).eps, np.trace(us, axis1=-2, axis2=-1))


def test_nested_dual_product_matches_per_slice_matmul():
    """A product of two nested Duals over (s, r) direction pairs, the
    shapes the Jacobiator lifts carry, agrees part by part with the product
    taken slice by slice."""
    rng = np.random.default_rng(23)

    def nested():
        return Dual(Dual(rand(rng, 3, 3), rand(rng, 12, 3, 3)),
                    Dual(rand(rng, 12, 1, 3, 3), rand(rng, 12, 12, 3, 3)))

    x, y = nested(), nested()
    z = x @ y
    ref_re = Dual(x.re.re @ y.re.re,
                  np.matmul(x.re.re, y.re.eps) + np.matmul(x.re.eps, y.re.re))
    ref_eps = (Dual(np.matmul(x.re.re, y.eps.re),
                    np.matmul(x.re.re, y.eps.eps) + np.matmul(x.re.eps, y.eps.re))
               + Dual(np.matmul(x.eps.re, y.re.re),
                      np.matmul(x.eps.re, y.re.eps) + np.matmul(x.eps.eps, y.re.re)))
    for got, ref in ((z.re.re, ref_re.re), (z.re.eps, ref_re.eps),
                     (z.eps.re, ref_eps.re), (z.eps.eps, ref_eps.eps)):
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


def _watched_jacobiator_batches(monkeypatch, fold):
    """Broadcast batch shapes of every matmul a Jacobiator on sl2_abelian
    genus 3 makes on its lifted data: the point's matrices and the atom
    directions are watched arrays, and so is everything computed from them.
    Without fold every Dual product is a plain ``@``, slice by slice."""
    from qpois import duals, fields, models
    from qpois.charvar import TraceFunction
    from qpois.groupgeom import random_point
    from qpois.quasi import assemble_surface_site

    batches = []

    class Watched(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            plain = [np.asarray(x) if isinstance(x, Watched) else x
                     for x in inputs]
            if ufunc is np.matmul:
                batches.append(np.broadcast_shapes(
                    *(np.shape(x)[:-2] for x in plain)))
            out = getattr(ufunc, method)(*plain, **kwargs)
            return out.view(Watched) if isinstance(out, np.ndarray) else out

    atom_dirs = fields._atom_dirs
    monkeypatch.setattr(fields, "_atom_dirs",
                        lambda *args: atom_dirs(*args).view(Watched))
    if not fold:
        monkeypatch.setattr(duals, "matmul", lambda a, b: a @ b)
    model, pairing = models.sl2_abelian()
    site, qp, _ = assemble_surface_site(model, pairing, 3, [])
    rng = np.random.default_rng(24)
    point = random_point(site, rng)
    point.mats = [q.view(Watched) for q in point.mats]
    coord = rand(rng, 3, 3)
    fns = [TraceFunction(site, "ab"), TraceFunction(site, "cDe"),
           lambda mats: dtrace(coord @ mats[4])]
    fields.jacobiator(qp.bivector, point, *fns)
    return batches


def test_jacobiator_makes_no_per_slice_product_over_two_axes(monkeypatch):
    folded = _watched_jacobiator_batches(monkeypatch, fold=True)
    assert folded and max(len(b) for b in folded) <= 1
    # the watch sees the per-slice products when nothing is folded
    monkeypatch.undo()
    plain = _watched_jacobiator_batches(monkeypatch, fold=False)
    assert sum(len(b) >= 2 for b in plain) >= 10
