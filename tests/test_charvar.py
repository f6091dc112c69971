import numpy as np
import pytest

from qpois import models
from qpois.charvar import (
    RepSample,
    TraceFunction,
    _apply_step,
    _damped_steps,
    _real_stack,
    _relator_gap,
    _relator_jacobian,
    _step_parts,
    bracket,
    hamiltonian_field,
    invariance_residual,
    jacobi_invariants,
    level_tangency_residual,
    poisson_ideal_residual,
    solve_relator,
    solve_relators,
)
from qpois.duals import Dual
from qpois.errors import MaxIters, NotInvariant, SolverStopped, Stalled
from qpois.fields import Bivector, differential
from qpois.groupgeom import Factor, PointBatch, Site, random_point, word_tangent
from qpois.quasi import (
    assemble_surface_site,
    internally_fused,
    pg_descriptor,
    relator_word,
)

from site_reference import dual_pair_residuals, frame_vector

REP = np.diag([2.0, 0.5]).astype(complex)


def fused_sl2():
    model, pairing = models.sl2()
    site = Site(model, pairing, [Factor("group"), Factor("group")])
    qp, qh = internally_fused(site, 0, 1)
    return site, qp, qh


def entry_fn(i, j, factor=0):
    def pick(m):
        if isinstance(m, Dual):
            return Dual(pick(m.re), pick(m.eps))
        return m[..., i, j]

    return lambda mats: pick(mats[factor])


def test_trace_function_invariance():
    site, _, _ = fused_sl2()
    p = random_point(site, np.random.default_rng(0))
    f = TraceFunction(site, "ab")
    assert invariance_residual(f, p, np.random.default_rng(1)) < 1e-12
    assert "ab" in repr(f)


def test_entry_function_not_invariant():
    site, qp, _ = fused_sl2()
    p = random_point(site, np.random.default_rng(0))
    g = entry_fn(0, 1)
    assert invariance_residual(g, p, np.random.default_rng(1)) > 1e-3
    with pytest.raises(NotInvariant):
        hamiltonian_field(qp.bivector, g, p, 0)


def test_nan_probe_fails_invariance_and_hamiltonian_field():
    site, qp, _ = fused_sl2()
    p = random_point(site, np.random.default_rng(0))
    f = TraceFunction(site, "ab")
    calls = []

    def third_call_nan(mats):
        calls.append(1)
        return complex("nan") if len(calls) == 3 else f(mats)

    assert np.isnan(invariance_residual(third_call_nan, p, np.random.default_rng(1)))
    calls.clear()
    with pytest.raises(NotInvariant):
        hamiltonian_field(qp.bivector, third_call_nan, p, 0)


def test_bracket_antisymmetry_and_zero_field():
    site, qp, _ = fused_sl2()
    p = random_point(site, np.random.default_rng(2))
    f = TraceFunction(site, "a")
    h = TraceFunction(site, "ab")
    assert abs(bracket(qp.bivector, f, f, p)) <= 1e-12
    zero = Bivector(site, np.zeros((2 * site.nfac, 2 * site.nfac)))
    assert bracket(zero, f, h, p) == 0.0
    val = bracket(qp.bivector, f, h, p)
    assert abs(val + bracket(qp.bivector, h, f, p)) <= 1e-12 * (1 + abs(val))


def test_bracket_leibniz():
    site, qp, _ = fused_sl2()
    p = random_point(site, np.random.default_rng(3))
    f = TraceFunction(site, "a")
    h = TraceFunction(site, "b")
    k = TraceFunction(site, "ab")

    def hk(mats):
        return h(mats) * k(mats)

    lhs = bracket(qp.bivector, f, hk, p)
    rhs = (bracket(qp.bivector, f, h, p) * k(p.mats)
           + h(p.mats) * bracket(qp.bivector, f, k, p))
    assert abs(lhs - rhs) <= 1e-9


def test_single_factor_invariant_field_vanishes():
    """On one conjugation factor the gradient of an invariant function is
    fixed by the adjoint action of the point, so its field is zero."""
    model, pairing = models.sl2()
    site = Site(model, pairing, [Factor("group")])
    qp = pg_descriptor(site)
    f = TraceFunction(site, "a")
    for seed in range(4):
        p = random_point(site, np.random.default_rng(seed))
        xf = hamiltonian_field(qp.bivector, f, p, 0)
        assert xf.shape == (1, 2, 2)
        assert np.abs(xf).max() <= 1e-10
        h = TraceFunction(site, "aa")
        assert abs(bracket(qp.bivector, f, h, p)) <= 1e-10


def test_constant_function_zero_field():
    site, qp, _ = fused_sl2()
    p = random_point(site, np.random.default_rng(5))
    xf = hamiltonian_field(qp.bivector, lambda mats: 3.5, p, 0)
    assert xf.shape == (site.nfac, 2, 2)
    assert np.abs(xf).max() <= 1e-14


def test_level_tangency_fused():
    site, qp, _ = fused_sl2()
    for seed in range(4):
        p = random_point(site, np.random.default_rng(seed))
        for text in ("a", "ab", "abAB"):
            f = TraceFunction(site, text)
            assert level_tangency_residual(qp, f, p, 0) <= 1e-9


def test_level_tangency_surface():
    model, pairing = models.sl2()
    site, qp, _ = assemble_surface_site(model, pairing, 1, [REP])
    for seed in range(3):
        p = random_point(site, np.random.default_rng(seed))
        f = TraceFunction(site, "ab")
        assert level_tangency_residual(qp, f, p, 0) <= 1e-9


def test_dual_pair_identities():
    site, qp, qh = fused_sl2()
    f = TraceFunction(site, "a")
    h = TraceFunction(site, "ab")
    for seed in range(4):
        p = random_point(site, np.random.default_rng(seed))
        out = dual_pair_residuals(qp, qh, f, h, p)
        assert out["gradient"] <= 1e-8
        assert out["tie"] <= 1e-8


def test_dual_pair_surface():
    model, pairing = models.sl2()
    site, qp, qh = assemble_surface_site(model, pairing, 1, [REP])
    f = TraceFunction(site, "a")
    h = TraceFunction(site, "ba")
    for seed in range(3):
        p = random_point(site, np.random.default_rng(seed))
        out = dual_pair_residuals(qp, qh, f, h, p)
        assert out["gradient"] <= 1e-8
        assert out["tie"] <= 1e-8


def test_jacobi_invariant_traces():
    site, qp, _ = fused_sl2()
    pts = [random_point(site, np.random.default_rng(s)) for s in range(16)]
    f = TraceFunction(site, "a")
    h = TraceFunction(site, "b")
    k = TraceFunction(site, "ab")
    assert jacobi_invariants(qp.bivector, f, h, k, pts) <= 1e-7


def test_jacobi_noninvariant_nonzero():
    site, qp, _ = fused_sl2()
    p = random_point(site, np.random.default_rng(11))
    g1 = entry_fn(0, 0, 0)
    g2 = entry_fn(0, 1, 1)
    g3 = entry_fn(1, 0, 0)
    assert jacobi_invariants(qp.bivector, g1, g2, g3, [p]) > 1e-4


def test_poisson_ideal_at_level_points():
    site, qp, _ = fused_sl2()
    target = -np.eye(2, dtype=complex)
    pts = [solve_relator(site, "abAB", target, seed=s).point for s in range(3)]
    f = TraceFunction(site, "ab")
    assert poisson_ideal_residual(qp.bivector, "abAB", f, pts) <= 1e-7

    # f equal to one of the vanishing functions: antisymmetry gives zero
    rel = TraceFunction(site, "abAB")

    def f_vanishing(mats):
        return rel(mats) - np.trace(target)

    assert poisson_ideal_residual(
        qp.bivector, "abAB", f_vanishing, pts) <= 1e-10


def test_poisson_ideal_detects_noninvariance():
    site, qp, _ = fused_sl2()
    p = random_point(site, np.random.default_rng(13))
    g = entry_fn(0, 1)
    assert poisson_ideal_residual(qp.bivector, "abAB", g, [p]) > 1e-4


def test_solver_commuting_start_already_solved(monkeypatch):
    import qpois.charvar as charvar

    site, _, _ = fused_sl2()
    a = np.diag([2.0, 0.5]).astype(complex)
    b = np.diag([3.0, 1 / 3.0]).astype(complex)
    start = PointBatch(site, [[a, b]]).points()[0]
    monkeypatch.setattr(charvar, "random_point", lambda site, rng: start)
    out = solve_relator(site, "abAB", np.eye(2))
    assert isinstance(out, RepSample)
    assert out.iters == 0
    assert out.residual <= 1e-12


def test_solver_central_target():
    site, _, _ = fused_sl2()
    for seed in range(4):
        out = solve_relator(site, "abAB", -np.eye(2), seed=seed)
        assert out.residual <= 1e-10
        assert out.iters <= 200
        got = np.linalg.multi_dot([
            out.point.mats[0], out.point.mats[1],
            np.linalg.inv(out.point.mats[0]), np.linalg.inv(out.point.mats[1])])
        assert np.abs(got + np.eye(2)).max() <= 1e-9


def test_solver_identity_target():
    site, _, _ = fused_sl2()
    out = solve_relator(site, "abAB", np.eye(2), seed=7)
    assert out.residual <= 1e-10


def test_solver_determinism():
    site, _, _ = fused_sl2()
    o1 = solve_relator(site, "abAB", -np.eye(2), seed=3)
    o2 = solve_relator(site, "abAB", -np.eye(2), seed=3)
    assert o1.residual == o2.residual
    assert o1.iters == o2.iters
    for m1, m2 in zip(o1.point.mats, o2.point.mats):
        assert np.array_equal(m1, m2)


def test_solver_class_factor_preserves_spectrum():
    model, pairing = models.sl2()
    site, _, _ = assemble_surface_site(model, pairing, 1, [REP])
    out = solve_relator(site, "abABc", np.eye(2), seed=1)
    assert out.residual <= 1e-10
    ev = np.sort_complex(np.linalg.eigvals(out.point.mats[2]))
    assert np.abs(ev - np.array([0.5, 2.0])).max() <= 1e-10


def _jacobian_loop(site, word, mats, target_inv):
    """The Jacobian one step direction at a time: one word_tangent call and
    a real and an imaginary column per direction."""
    cols = []
    for i, fac in enumerate(site.factors):
        q = mats[i]
        for b in site.model.basis:
            v = q @ b if fac.kind == "group" else b @ q - q @ b
            comps = [None] * site.nfac
            comps[i] = v
            letters = [mats[f] if p == 1 else np.linalg.inv(mats[f])
                       for f, p in word]
            delta = (word_tangent(word, letters, [comps], None)[-1][1]
                     @ target_inv).reshape(-1)
            cols.append(np.concatenate([delta.real, delta.imag]))
            cols.append(np.concatenate([-delta.imag, delta.real]))
    return np.stack(cols, axis=1)


JACOBIAN_SITES = pytest.mark.parametrize("build,genus,reps", [
    (models.sl2, 2, []),
    (models.sl2, 1, [np.diag([2.0, 0.5]), np.diag([3.0, 1.0 / 3.0])]),
    (lambda: models.model_from_config({"family": "SL", "n": 3}), 1, []),
    (models.sl2_abelian, 2, []),
], ids=["sl2-g2", "sl2-g1-2punct", "sl3-g1", "sl2ab-g2"])


@JACOBIAN_SITES
def test_batched_jacobian_matches_direction_loop(build, genus, reps):
    model, pairing = build()
    site, _, _ = assemble_surface_site(model, pairing, genus, reps)
    word = relator_word(site, genus, len(reps))
    rng = np.random.default_rng(5)
    target_inv = np.linalg.inv(random_point(site, rng).mats[0])
    mats = np.stack([random_point(site, rng).mats for _ in range(3)])
    invs = np.linalg.inv(mats)
    prefixes = _relator_gap(word, mats, invs, target_inv)[1]
    got = _relator_jacobian(site, word, mats, invs, prefixes, target_inv)
    assert got.shape == (3, 2 * model.n ** 2, 2 * model.d * site.nfac)
    for row, row_mats in zip(got, mats):
        ref = _jacobian_loop(site, word, row_mats, target_inv)
        assert np.abs(row - ref).max() <= 1e-15 * np.abs(ref).max()


def _prefix_sweep_jacobian(site, word, mats, invs, target_inv):
    """The complex Jacobian blocks from a sweep of their own prefix
    products, I t_0 t_1 ..., one letter's term at a time."""
    n, d = site.model.n, site.model.d
    terms = [t[:, None] for t in (mats[:, f] if p == 1 else invs[:, f]
                                  for f, p in word)]
    prefix = [np.eye(n, dtype=complex)]
    for t in terms:
        prefix.append(prefix[-1] @ t)
    suffix = [target_inv]
    for t in reversed(terms):
        suffix.append(t @ suffix[-1])
    suffix.reverse()
    qs = mats[:, :, None]
    directions = [qs[:, f] @ site.model.basis if fac.kind == "group"
                  else site.model.basis @ qs[:, f] - qs[:, f] @ site.model.basis
                  for f, fac in enumerate(site.factors)]
    delta = np.zeros((len(mats), site.nfac, d, n, n), dtype=complex)
    for i, (f, p) in enumerate(word):
        if p == 1:
            delta[:, f] += prefix[i] @ directions[f] @ suffix[i + 1]
        else:
            delta[:, f] -= prefix[i + 1] @ directions[f] @ suffix[i]
    return delta.reshape(len(mats), site.nfac * d, -1)


@JACOBIAN_SITES
def test_jacobian_from_gap_prefixes_equals_the_prefix_sweep(build, genus, reps):
    """The Jacobian reads the prefix products its gap folded, and forms all
    letters' terms in two stacked products, with the bits of a sweep of
    its own prefixes that forms one letter's term at a time."""
    model, pairing = build()
    site, _, _ = assemble_surface_site(model, pairing, genus, reps)
    word = relator_word(site, genus, len(reps))
    rng = np.random.default_rng(7)
    target_inv = np.linalg.inv(random_point(site, rng).mats[0])
    for rows in (1, 8):
        mats = np.stack([random_point(site, rng).mats for _ in range(rows)])
        invs = np.linalg.inv(mats)
        prefixes = _relator_gap(word, mats, invs, target_inv)[1]
        got = _relator_jacobian(site, word, mats, invs, prefixes, target_inv)
        delta = _prefix_sweep_jacobian(site, word, mats, invs, target_inv)
        assert np.array_equal(got[..., 0::2].swapaxes(1, 2),
                              np.concatenate([delta.real, delta.imag], axis=2))
        assert np.array_equal(got[..., 1::2].swapaxes(1, 2),
                              np.concatenate([-delta.imag, delta.real], axis=2))


@JACOBIAN_SITES
def test_retraction_carries_the_factor_inverses(build, genus, reps):
    """The carried inverses stay inverses, to roundoff, over many steps."""
    model, pairing = build()
    site, _, _ = assemble_surface_site(model, pairing, genus, reps)
    rng = np.random.default_rng(6)
    mats = np.stack([random_point(site, rng).mats for _ in range(3)])
    invs = np.linalg.inv(mats)
    for _ in range(20):
        steps = 0.1 * rng.standard_normal((3, 2 * site.nfac * model.d))
        mats, invs = _apply_step(site, mats, invs, steps)
    eye = np.eye(model.n)
    assert np.abs(mats @ invs - eye).max() <= 1e-13


@JACOBIAN_SITES
def test_solver_inverts_no_letter(build, genus, reps, monkeypatch):
    """Besides the target, every inversion in a solve is of a stack of
    factors: the start point's (1, nfac, n, n) factor exponentials and its
    (1, ncls, n, n) class factors, a batch of one in `random_points`, and
    the batch of one's (1, nfac, n, n) start factors and step exponentials.
    A letter inverted alone, (n, n), or across the batch, (1, n, n), is none
    of these."""
    model, pairing = build()
    site, _, _ = assemble_surface_site(model, pairing, genus, reps)
    word = relator_word(site, genus, len(reps))
    shapes = []
    inv = np.linalg.inv

    def recorded(a):
        shapes.append(np.shape(a))
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", recorded)
    solve_relator(site, word, np.eye(model.n), seed=1)
    n, cls = model.n, site.class_indices()
    start = [(1, len(cls), n, n)] if cls else []
    assert shapes.count((n, n)) == 1
    assert shapes.count((1, site.nfac, n, n)) >= 3
    assert sorted(s for s in shapes
                  if s not in ((n, n), (1, site.nfac, n, n))) == sorted(start)


@JACOBIAN_SITES
def test_damped_step_solves_the_normal_equations(build, genus, reps):
    """The solver's step x at damping mu solves (J^T J + mu I) x = -J^T r
    with a relative backward error near roundoff, over the whole damping
    range the solver walks."""
    model, pairing = build()
    site, _, _ = assemble_surface_site(model, pairing, genus, reps)
    word = relator_word(site, genus, len(reps))
    rng = np.random.default_rng(5)
    target_inv = np.linalg.inv(random_point(site, rng).mats[0])
    mats = np.stack([random_point(site, rng).mats for _ in range(2)])
    invs = np.linalg.inv(mats)
    gaps, prefixes = _relator_gap(word, mats, invs, target_inv)
    jmats = _relator_jacobian(site, word, mats, invs, prefixes, target_inv)
    rvecs = _real_stack(gaps)
    parts = _step_parts(jmats, rvecs)
    for mu in 10.0 ** np.arange(-14, 14):
        steps = _damped_steps(*parts, np.full(2, mu))
        for jmat, rvec, x in zip(jmats, rvecs, steps):
            lhs = jmat.T @ jmat + mu * np.eye(len(x))
            rhs = -jmat.T @ rvec
            err = (np.linalg.norm(lhs @ x - rhs)
                   / (np.linalg.norm(lhs, 2) * np.linalg.norm(x)
                      + np.linalg.norm(rhs)))
            assert err <= 1e-14, mu

def test_solver_failure_modes(monkeypatch):
    import qpois.charvar as charvar

    site, _, _ = fused_sl2()
    with monkeypatch.context() as m:
        m.setattr(charvar, "_MAX_ITERS", 1)
        with pytest.raises(MaxIters) as exc:
            solve_relator(site, "abAB", -np.eye(2), seed=0)
    assert exc.value.best_residual > 0
    assert exc.value.iters == 1

    # one conjugacy-class factor can never reach these targets: the solve
    # ends at a stationary point of |r|^2, where the steps are tiny and the
    # predicted drop as a difference |r|^2 - |r + J x|^2 would cancel to
    # zero; it must still stop with Stalled, after a step tried in every
    # iteration.  A one-row solve makes one Jacobian per iteration and one
    # step per trial; test_solver_batch_rows_equal_one_row_solves shows each
    # row of a batch ends as its one-row solve does
    trials = []
    jacobian, damped_steps = charvar._relator_jacobian, charvar._damped_steps

    def counted_jacobian(*args):
        trials.append(0)
        return jacobian(*args)

    def counted_steps(*args):
        trials[-1] += 1
        return damped_steps(*args)

    monkeypatch.setattr(charvar, "_relator_jacobian", counted_jacobian)
    monkeypatch.setattr(charvar, "_damped_steps", counted_steps)
    model, pairing = models.sl2()
    csite = Site(model, pairing, [Factor("class", REP)])
    for target in (np.eye(2), np.diag([3.0, 1.0 / 3.0])):
        for seed in range(6):
            trials.clear()
            with pytest.raises(Stalled) as exc2:
                solve_relator(csite, "a", target, seed=seed)
            assert exc2.value.best_residual > 0.1
            assert len(trials) == exc2.value.iters and min(trials) >= 1


def _one_row(site, word, target, seed):
    try:
        return solve_relator(site, word, target, seed=seed)
    except SolverStopped as exc:
        return exc


def _assert_same_outcome(out, ref):
    """The same factors, residual and iterations, or the same stop."""
    assert type(out) is type(ref)
    if isinstance(out, RepSample):
        assert (out.residual, out.iters) == (ref.residual, ref.iters)
        assert np.array_equal(out.point.mats, ref.point.mats)
    else:
        assert str(out) == str(ref)
        assert (out.best_residual, out.iters) == (ref.best_residual, ref.iters)


def _two_puncture():
    model, pairing = models.sl2()
    reps = [np.diag([2.0, 0.5]), np.diag([3.0, 1.0 / 3.0])]
    site, _, _ = assemble_surface_site(model, pairing, 1, reps)
    return site, relator_word(site, 1, 2), np.eye(2)


def _surface(build, genus, target):
    model, pairing = build()
    site, _, _ = assemble_surface_site(model, pairing, genus, [])
    return site, relator_word(site, genus, 0), target


def _one_class_factor(target):
    model, pairing = models.sl2()
    return Site(model, pairing, [Factor("class", REP)]), "a", target


OMEGA = np.exp(2j * np.pi / 3)


@pytest.mark.parametrize("make,seeds,stops", [
    (lambda: _surface(models.sl2, 2, -np.eye(2)), range(14, 26),
     {17: MaxIters, 22: MaxIters}),
    (lambda: _one_class_factor(np.eye(2)), range(6), {s: Stalled for s in range(6)}),
    (lambda: _one_class_factor(np.diag([3.0, 1.0 / 3.0])), range(6),
     {s: Stalled for s in range(6)}),
    (_two_puncture, range(8), {}),
    (lambda: _surface(models.sl2_abelian, 2, np.eye(3)), range(8), {}),
    (lambda: _surface(lambda: models.model_from_config({"family": "SL", "n": 3}),
                      1, OMEGA * np.eye(3)), range(8), {}),
], ids=["sl2-g2-minus-I", "class-identity", "class-diag", "sl2-g1-2punct",
        "sl2ab-g2", "sl3-g1-omega"])
def test_solver_batch_rows_equal_one_row_solves(make, seeds, stops):
    """Each row of a lockstep batch ends as the one-row solve of its seed:
    the same factors, residual and iterations, or the same stop."""
    site, word, target = make()
    outs = solve_relators(site, word, target, list(seeds))
    assert len(outs) == len(seeds)
    for seed, out in zip(seeds, outs):
        one = _one_row(site, word, target, seed)
        assert type(out) is type(one) is stops.get(seed, RepSample), seed
        _assert_same_outcome(out, one)
    if MaxIters in stops.values():
        assert {out.iters for out in outs if isinstance(out, MaxIters)} == {200}


def test_solver_chunks_keep_every_row(monkeypatch):
    """Seeds beyond one chunk solve in further lockstep batches of at most
    `groupgeom._BATCH_POINTS` rows, and every row, stops included, ends as
    it does in one batch."""
    import qpois.charvar as charvar
    site, word, target = _surface(models.sl2, 2, -np.eye(2))
    seeds = list(range(14, 22))
    whole = solve_relators(site, word, target, seeds)
    sizes = []
    lockstep = charvar._solve_lockstep

    def recorded(site, word, target_inv, chunk):
        sizes.append(len(chunk))
        return lockstep(site, word, target_inv, chunk)

    monkeypatch.setattr(charvar, "_BATCH_POINTS", 3)
    monkeypatch.setattr(charvar, "_solve_lockstep", recorded)
    chunked = solve_relators(site, word, target, seeds)
    assert sizes == [3, 3, 2]
    assert [type(out) for out in chunked] == [type(out) for out in whole]
    assert isinstance(chunked[3], MaxIters)
    for out, ref in zip(chunked, whole):
        _assert_same_outcome(out, ref)


@JACOBIAN_SITES
def test_batched_retraction_rows_equal_one_row_retractions(build, genus, reps):
    """Rows whose steps need different scaling powers in the exponential
    retract as they do alone."""
    model, pairing = build()
    site, _, _ = assemble_surface_site(model, pairing, genus, reps)
    rng = np.random.default_rng(7)
    mats = np.stack([random_point(site, rng).mats for _ in range(4)])
    invs = np.linalg.inv(mats)
    steps = (np.array([[0.1], [20.0], [0.5], [200.0]])
             * rng.standard_normal((4, 2 * site.nfac * model.d)))
    moved, moved_inv = _apply_step(site, mats, invs, steps)
    for b in range(4):
        one, one_inv = _apply_step(site, mats[b:b + 1], invs[b:b + 1],
                                   steps[b:b + 1])
        assert np.array_equal(moved[b], one[0])
        assert np.array_equal(moved_inv[b], one_inv[0])


def test_differential_matches_finite_difference():
    site, _, _ = fused_sl2()
    p = random_point(site, np.random.default_rng(17))
    f = TraceFunction(site, "abA")
    frame = p.frame()
    df = differential(p, f)
    eps = 1e-7
    for a in range(0, frame.dim, 2):
        t = frame_vector(frame, a)
        moved = [m + eps * (c if c is not None else 0)
                 for m, c in zip(p.mats, t.comps)]
        fd = (f(moved) - f(p.mats)) / eps
        assert abs(fd - df[a]) <= 1e-5 * (1 + abs(df[a]))
