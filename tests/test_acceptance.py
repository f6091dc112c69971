"""End-to-end acceptance run: one test per shipped guarantee.

Each test prints a single [PASS]/[FAIL] summary line (visible under
``pytest tests/test_acceptance.py -v -s``) and asserts both the numerical
tolerance and the wall-time budget of that guarantee.  Scale is deliberately
small (2x2 and 3x3 groups, complex double precision) so the whole file runs
in well under the summed budgets on a laptop.
"""

import time

import numpy as np
import pytest

from qpois import models
from qpois.charvar import (
    TraceFunction,
    jacobi_invariants,
    poisson_ideal_residual,
    solve_relator,
)
from qpois.cli import canonical_json, compute_brackets, run_suite
from qpois.dirac import cartan_dirac_fibers, dirac_booleans, projections_pq
from qpois.duals import dtrace
from qpois.errors import DegeneratePairing
from qpois.groupgeom import Factor, Site, random_point
from qpois.liealg import cartan3, verify_chi_identity
from qpois.quasi import (
    assemble_surface_site,
    class_descriptors,
    cn1_residual,
    double_descriptors,
    duality_residual,
    intersection_dim,
    jacobiator_vs_phi,
    momentum_residual,
    pg_descriptor,
    quasi_closed_residual,
    reconstruct_dual,
)

REP2 = np.diag([2.0, 0.5]).astype(complex)
REP3 = np.diag([2.0, 0.5, 1.0]).astype(complex)


def _report(num, name, residual, tol, t0, budget, ok=True, note=""):
    elapsed = time.perf_counter() - t0
    passed = ok and residual <= tol and elapsed <= budget
    line = (
        f"[{'PASS' if passed else 'FAIL'}] criterion {num:02d} {name}: "
        f"max residual {residual:.3e} (tol {tol:g}), "
        f"{elapsed:.2f}s (budget {budget:g}s)"
    )
    if note:
        line += f" -- {note}"
    print(line)
    assert ok, line
    assert residual <= tol, line
    assert elapsed <= budget, line


def _coord_fn(rng, site):
    """Trace of a fixed random matrix against one factor: a non-invariant
    coordinate function that is transparent to dual-number lifting."""
    i = int(rng.integers(site.nfac))
    c = rng.standard_normal((site.model.n, site.model.n))
    return lambda mats: dtrace(c @ mats[i])


def _mixed_fns(rng, site, words):
    fns = []
    for _ in range(3):
        if rng.integers(2) and words:
            w = words[int(rng.integers(len(words)))]
            fns.append(TraceFunction(site, w))
        else:
            fns.append(_coord_fn(rng, site))
    return fns


def _points(site, seed, count):
    rng = np.random.default_rng(seed)
    return [random_point(site, rng) for _ in range(count)]


def _sl3():
    return models.model_from_config({"family": "SL", "n": 3})


def _group_site(maker, nfac):
    model, pairing = maker()
    return Site(model, pairing, [Factor("group")] * nfac)


# ---------------------------------------------------------------------------
# 1. antisymmetry of the cubic tensor
# ---------------------------------------------------------------------------

def test_01_cubic_tensor_antisymmetry():
    t0 = time.perf_counter()
    worst = 0.0
    for maker in (models.sl2, _sl3, models.sl2_abelian):
        model, pairing = maker()
        h = pairing.eta_upper
        phi = np.einsum("ju,kuv,vs->jks", h, model.struct, h)
        for perm in ((1, 0, 2), (0, 2, 1), (2, 1, 0)):
            worst = max(
                worst, float(np.abs(phi + np.transpose(phi, perm)).max()))
    _report(1, "cubic tensor antisymmetry", worst, 1e-10, t0, 1.0)


# ---------------------------------------------------------------------------
# 2. coalgebra bracket identity for the quadratic element
# ---------------------------------------------------------------------------

def test_02_quadratic_element_bracket():
    t0 = time.perf_counter()
    worst = 0.0
    for maker in (models.sl2, _sl3, models.sl2_abelian,
                  lambda: models.model_from_config({"family": "GL", "n": 2})):
        model, pairing = maker()
        worst = max(worst, float(verify_chi_identity(model, pairing)))
    _report(2, "quadratic element bracket identity", worst, 1e-10, t0, 1.0)


# ---------------------------------------------------------------------------
# 3. jacobiator = twice the cubic-tensor trivector, all shipped bivectors
# ---------------------------------------------------------------------------

def test_03_jacobiator_vs_cubic_tensor():
    t0 = time.perf_counter()
    m2, p2 = models.sl2()
    cases = []

    s_one3 = _group_site(_sl3, 1)
    cases.append(("one-factor (3x3)", s_one3, pg_descriptor(s_one3), ["a"]))

    s_two = _group_site(models.sl2, 2)
    qp_two, _ = double_descriptors(s_two, 0, 1)
    cases.append(("two-factor", s_two, qp_two, ["a", "b", "ab"]))

    s_f10, qp_f10, _ = assemble_surface_site(m2, p2, 1, [])
    cases.append(("fused genus 1", s_f10, qp_f10, ["a", "b", "ab"]))

    s_g11, qp_g11, _ = assemble_surface_site(
        m2, p2, 1, [REP2], variant="fullgroups")
    cases.append(("full-group genus 1 + 1", s_g11, qp_g11, ["a", "b", "ab"]))

    s_g22, qp_g22, _ = assemble_surface_site(
        m2, p2, 2, [REP2, REP2], variant="fullgroups")
    cases.append(("full-group genus 2 + 2", s_g22, qp_g22, ["a", "b", "ab"]))

    worst = 0.0
    for k, (label, site, qp, words) in enumerate(cases):
        phi = cartan3(site.model, site.pairing)
        rng = np.random.default_rng([3, k])
        for p in _points(site, [30, k], 16):
            fns = _mixed_fns(rng, site, words)
            worst = max(worst, float(jacobiator_vs_phi(qp, p, fns, phi=phi)))
    _report(3, "jacobiator vs cubic tensor", worst, 1e-7, t0, 30.0)


# ---------------------------------------------------------------------------
# 4. momentum laws, bivector and 2-form modes
# ---------------------------------------------------------------------------

def test_04_momentum_laws():
    t0 = time.perf_counter()
    m2, p2 = models.sl2()
    biv_cases, form_cases = [], []

    for maker in (models.sl2, _sl3):
        s = _group_site(maker, 1)
        biv_cases.append(("one-factor", s, pg_descriptor(s)))

    s_two = _group_site(models.sl2, 2)
    qp_two, qh_two = double_descriptors(s_two, 0, 1)
    biv_cases.append(("two-factor", s_two, qp_two))
    form_cases.append(("two-factor", s_two, qh_two))

    for genus, reps in ((1, []), (1, [REP2]), (2, [])):
        s, qp, qh = assemble_surface_site(m2, p2, genus, reps)
        label = f"surface {genus}+{len(reps)}"
        biv_cases.append((label, s, qp))
        form_cases.append((label, s, qh))

    s_cls = Site(m2, p2, [Factor("class", REP2)])
    qp_cls, qh_cls = class_descriptors(s_cls)
    form_cases.append(("class", s_cls, qh_cls))

    worst = 0.0
    for k, (label, site, desc) in enumerate(biv_cases):
        for p in _points(site, [40, k], 4):
            worst = max(worst, float(momentum_residual(desc, p)))
    for k, (label, site, desc) in enumerate(form_cases):
        for p in _points(site, [41, k], 4):
            worst = max(worst, float(momentum_residual(desc, p)))
    _report(4, "momentum laws", worst, 1e-9, t0, 30.0)


# ---------------------------------------------------------------------------
# 5. quasi-closedness of the shipped 2-forms
# ---------------------------------------------------------------------------

def test_05_quasi_closedness():
    t0 = time.perf_counter()
    m2, p2 = models.sl2()

    s_two = _group_site(models.sl2, 2)
    calib = float(cn1_residual(s_two, _points(s_two, 50, 16), seed=5))

    _, qh_two = double_descriptors(s_two, 0, 1)
    s_cls = Site(m2, p2, [Factor("class", REP2)])
    _, qh_cls = class_descriptors(s_cls)
    s_11, _, qh_11 = assemble_surface_site(m2, p2, 1, [REP2])

    worst = calib
    for k, (site, qh) in enumerate(
            ((s_two, qh_two), (s_cls, qh_cls), (s_11, qh_11))):
        pts = _points(site, [51, k], 6)
        worst = max(worst, float(quasi_closed_residual(qh, pts, seed=5)))
    _report(5, "quasi-closedness", worst, 1e-7, t0, 60.0,
            note=f"mixed-pairing calibration {calib:.1e}")


# ---------------------------------------------------------------------------
# 6. duality between each bivector and its companion 2-form
# ---------------------------------------------------------------------------

def _shipped_pairs():
    m2, p2 = models.sl2()
    s_cls = Site(m2, p2, [Factor("class", REP2)])
    qp_cls, qh_cls = class_descriptors(s_cls)
    s_two = _group_site(models.sl2, 2)
    qp_two, qh_two = double_descriptors(s_two, 0, 1)
    s_11, qp_11, qh_11 = assemble_surface_site(m2, p2, 1, [REP2])
    return (
        ("class", s_cls, qp_cls, qh_cls),
        ("two-factor", s_two, qp_two, qh_two),
        ("surface 1+1", s_11, qp_11, qh_11),
    )


def test_06_duality():
    t0 = time.perf_counter()
    worst = 0.0
    for k, (label, site, qp, qh) in enumerate(_shipped_pairs()):
        for p in _points(site, [60, k], 16):
            worst = max(worst, float(duality_residual(qp, qh, p)))
    _report(6, "bivector/2-form duality", worst, 1e-8, t0, 30.0)


# ---------------------------------------------------------------------------
# 7. reconstruction round trip through the momentum identities
# ---------------------------------------------------------------------------

def test_07_reconstruction_round_trip():
    t0 = time.perf_counter()
    worst = 0.0
    pairs = [c for c in _shipped_pairs() if c[0] != "class"]
    for k, (label, site, qp, qh) in enumerate(pairs):
        for p in _points(site, [70, k], 8):
            pmat, ker_p = reconstruct_dual(qh, p)
            smat, ker_s = reconstruct_dual(qp, p)
            worst = max(
                worst,
                float(np.abs(pmat - qp.bivector.frame_matrix(p)).max()),
                float(np.abs(smat - qh.form.frame_matrix(p)).max()),
                float(ker_p),
                float(ker_s),
            )
    _report(7, "reconstruction round trip", worst, 1e-8, t0, 30.0)


# ---------------------------------------------------------------------------
# 8. splitting projections, canonical fibers, four-clause agreement
# ---------------------------------------------------------------------------

def test_08_dirac_geometry():
    t0 = time.perf_counter()
    worst = 0.0
    agree = True
    for k, (label, site, qp, qh) in enumerate(_shipped_pairs()):
        d = site.model.d
        eye = np.eye(2 * d)
        for p in _points(site, [80, k], 16):
            for ci, comp in enumerate(qh.momentum):
                pp, qq = projections_pq(p, comp)
                worst = max(
                    worst,
                    float(np.abs(pp @ pp - pp).max()),
                    float(np.abs(qq @ qq - qq).max()),
                    float(np.abs(pp + qq - eye).max()),
                )
                e_fib, f_fib = cartan_dirac_fibers(p, comp)
                worst = max(worst, float(e_fib.isotropy_residual),
                            float(f_fib.isotropy_residual))
                if (e_fib.basis.shape[1] + f_fib.basis.shape[1] != 2 * d
                        or intersection_dim(e_fib.basis, f_fib.basis) != 0):
                    agree = False
                flags = dirac_booleans(qh, p, component=ci)
                if len({flags[x] for x in "abcd"}) != 1:
                    agree = False
    _report(8, "splitting and fiber geometry", worst, 1e-10, t0, 30.0,
            ok=agree, note="four clauses agree at every point" if agree
            else "clause disagreement")


# ---------------------------------------------------------------------------
# 9. reduction: brackets of invariants at relator-solved points
# ---------------------------------------------------------------------------

def test_09_reduction_on_relator_levels():
    t0 = time.perf_counter()
    m2, p2 = models.sl2()
    site, qp, _ = assemble_surface_site(m2, p2, 1, [])
    f, h, kf = (TraceFunction(site, w) for w in ("a", "b", "ab"))

    worst_solver = 0.0
    worst_jac = 0.0
    worst_ideal = 0.0
    iters_ok = True
    targets = [np.eye(2, dtype=complex), -np.eye(2, dtype=complex)]
    for target in targets:
        samples = [solve_relator(site, "abAB", target, seed=s)
                   for s in (0, 1, 2)]
        for out in samples:
            worst_solver = max(worst_solver, float(out.residual))
            iters_ok = iters_ok and out.iters <= 200
        pts = [out.point for out in samples]
        worst_jac = max(worst_jac,
                        float(jacobi_invariants(qp.bivector, f, h, kf, pts)))
        for g in (f, kf):
            worst_ideal = max(worst_ideal, float(poisson_ideal_residual(
                qp.bivector, "abAB", g, pts)))
    worst = max(worst_jac, worst_ideal)
    _report(9, "reduction at relator levels", worst, 1e-7, t0, 120.0,
            ok=(worst_solver <= 1e-10 and iters_ok),
            note=f"solver residual {worst_solver:.1e} within 200 iterations")


# ---------------------------------------------------------------------------
# 10. degenerate-pairing regression: structure holds, inverses refuse
# ---------------------------------------------------------------------------

def test_10_degenerate_pairing_regression():
    t0 = time.perf_counter()
    model, pairing = models.sl2_abelian()

    # criterion 1: antisymmetry
    h = pairing.eta_upper
    phi_t = np.einsum("ju,kuv,vs->jks", h, model.struct, h)
    worst = max(
        float(np.abs(phi_t + np.transpose(phi_t, perm)).max())
        for perm in ((1, 0, 2), (0, 2, 1), (2, 1, 0)))
    ok = worst <= 1e-10

    # criterion 2: quadratic element bracket
    chi = float(verify_chi_identity(model, pairing))
    ok = ok and chi <= 1e-10

    # criterion 3: jacobiator on the shipped bivectors over this model
    s_one = Site(model, pairing, [Factor("group")])
    s_two = Site(model, pairing, [Factor("group"), Factor("group")])
    s_f, qp_f, qh_f = assemble_surface_site(model, pairing, 1, [])
    qp_two, qh_two = double_descriptors(s_two, 0, 1)
    s_cls = Site(model, pairing, [Factor("class", REP3)])
    qp_cls, qh_cls = class_descriptors(s_cls)
    jac_worst = 0.0
    phi = cartan3(model, pairing)
    for k, (site, qp, words) in enumerate((
            (s_one, pg_descriptor(s_one), ["a"]),
            (s_two, qp_two, ["a", "b", "ab"]),
            (s_f, qp_f, ["a", "b", "ab"]))):
        rng = np.random.default_rng([10, k])
        for p in _points(site, [101, k], 4):
            fns = _mixed_fns(rng, site, words)
            jac_worst = max(jac_worst,
                            float(jacobiator_vs_phi(qp, p, fns, phi=phi)))
    ok = ok and jac_worst <= 1e-7

    # criterion 4: momentum laws of both descriptor types
    mom_worst = 0.0
    for k, (site, desc) in enumerate((
            (s_one, pg_descriptor(s_one)),
            (s_two, qp_two),
            (s_f, qp_f),
            (s_two, qh_two),
            (s_f, qh_f),
            (s_cls, qh_cls))):
        for p in _points(site, [102, k], 3):
            mom_worst = max(mom_worst, float(momentum_residual(desc, p)))
    ok = ok and mom_worst <= 1e-9

    # criterion 9: reduction at relator-solved points (identity target and
    # the central-block analogue of -I, which inverts the simple block only)
    f, hf, kf = (TraceFunction(s_f, w) for w in ("a", "b", "ab"))
    red_worst = 0.0
    solver_worst = 0.0
    for target in (np.eye(3, dtype=complex),
                   np.diag([-1.0, -1.0, 1.0]).astype(complex)):
        samples = [solve_relator(s_f, "abAB", target, seed=s) for s in (0, 2)]
        solver_worst = max(solver_worst,
                           max(float(out.residual) for out in samples))
        pts = [out.point for out in samples]
        red_worst = max(
            red_worst,
            float(jacobi_invariants(qp_f.bivector, f, hf, kf, pts)),
            float(poisson_ideal_residual(qp_f.bivector, "abAB", f, pts)))
    ok = ok and red_worst <= 1e-7 and solver_worst <= 1e-10

    # inverse-dependent machinery must refuse, not silently degrade
    p_two = _points(s_two, 103, 1)[0]
    with pytest.raises(DegeneratePairing):
        duality_residual(qp_two, qh_two, p_two)
    with pytest.raises(DegeneratePairing):
        reconstruct_dual(qh_two, p_two)
    with pytest.raises(DegeneratePairing):
        cartan_dirac_fibers(p_two, qh_two.momentum[0])
    cfg = {"group": {"family": "sl2_abelian"},
           "site": {"genus": 1, "class_reps": []}, "seed": 2, "samples": 2}
    refused = True
    for suite in ("duality", "dirac"):
        report = run_suite(cfg, suite, jobs=1)
        for record in report["checks"]:
            if (record["status"] != "skipped"
                    or "DegeneratePairing" not in (record["reason"] or "")):
                refused = False
    ok = ok and refused

    # each part normalized by its own tolerance; <= 1 means inside budget
    margin = max(worst / 1e-10, chi / 1e-10, jac_worst / 1e-7,
                 mom_worst / 1e-9, red_worst / 1e-7, solver_worst / 1e-10)
    _report(10, "degenerate-pairing regression", margin, 1.0, t0, 60.0,
            ok=ok, note=(f"worst part at {margin:.1e} of its tolerance; "
                         f"inverse users refused: {refused}"))


# ---------------------------------------------------------------------------
# 11. byte-identical reports for identical config and seed
# ---------------------------------------------------------------------------

def test_11_determinism():
    t0 = time.perf_counter()
    cfg = {"group": {"family": "SL", "n": 2},
           "site": {"genus": 1, "class_reps": []},
           "seed": 5, "samples": 2}
    rep_a = canonical_json(run_suite(cfg, "core")).encode()
    rep_b = canonical_json(run_suite(cfg, "core")).encode()
    tab_a = canonical_json(compute_brackets(cfg)).encode()
    tab_b = canonical_json(compute_brackets(cfg)).encode()
    ok = rep_a == rep_b and tab_a == tab_b
    _report(11, "deterministic reports", 0.0 if ok else 1.0, 0.5, t0, 10.0,
            ok=ok, note="verification and bracket reports byte-identical"
            if ok else "reports differ between runs")
