"""Batch driver: config handling, report determinism, exit codes."""

import json
import re
import threading
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from qpois.charvar import TraceFunction, bracket as bracket_value
from qpois.cli import (
    build_setup,
    canonical_json,
    compute_brackets,
    load_config,
    main,
    run_suite,
    sample_points,
    write_report,
)
from qpois.errors import ConfigError, IoError, Stalled
from qpois.groupgeom import SitePoint, conjugate_point, parse_word, word_eval


def torus_cfg(**over):
    cfg = {
        "group": {"family": "SL", "n": 2},
        "site": {"genus": 1, "class_reps": [], "variant": "fullgroups"},
        "seed": 7,
        "samples": 3,
    }
    cfg.update(over)
    return cfg


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def invoke(args, env=None):
    return CliRunner(env=env).invoke(main, args)


def by_id(report):
    return {c["check_id"]: c for c in report["checks"]}


# -- suites ------------------------------------------------------------------

def test_core_suite_passes_on_torus():
    report = run_suite(torus_cfg(), "core")
    assert report["overall_pass"]
    assert not report["empty"]
    assert len(report["checks"]) == 11
    assert all(c["status"] == "passed" for c in report["checks"])


def test_all_suites_via_cli(tmp_path):
    cfg = write_cfg(tmp_path, torus_cfg())
    out = str(tmp_path / "rep.json")
    result = invoke(["verify", "all", "--config", cfg, "--seed", "7",
                     "--out", out])
    assert result.exit_code == 0, result.output + result.stderr
    report = json.loads(open(out).read())
    assert len(report["checks"]) == 23
    assert report["overall_pass"]


def test_reports_byte_identical_across_runs_and_jobs(tmp_path):
    cfg = write_cfg(tmp_path, torus_cfg())
    outs = []
    for name in ("r1.json", "r2.json"):
        out = str(tmp_path / name)
        result = invoke(["verify", "core", "--config", cfg, "--seed", "7",
                         "--out", out])
        assert result.exit_code == 0
        outs.append(open(out, "rb").read())
    assert outs[0] == outs[1]


def test_seed_changes_samples_not_outcome(tmp_path):
    a = run_suite(torus_cfg(), "core", seed=1)
    b = run_suite(torus_cfg(), "core", seed=2)
    assert a["overall_pass"] and b["overall_pass"]
    assert canonical_json(a) != canonical_json(b)
    assert a["seed"] == 1 and b["seed"] == 2


def test_config_seed_used_without_flag():
    report = run_suite(torus_cfg(seed=9), "core")
    assert report["seed"] == 9


# -- negative controls -------------------------------------------------------

def test_noninvariant_pairing_fails_invariance_and_tangency(tmp_path):
    cfg = write_cfg(tmp_path, torus_cfg(pairing={"mask": [1.0, 1.0, 2.0]}))
    out = str(tmp_path / "rep.json")
    result = invoke(["verify", "core", "--config", cfg, "--seed", "3",
                     "--out", out])
    assert result.exit_code == 1
    assert "FAILED pairing_ad_invariance" in result.stderr
    assert "FAILED class_restriction_tangency" in result.stderr
    checks = by_id(json.loads(open(out).read()))
    assert checks["pairing_ad_invariance"]["status"] == "failed"
    assert checks["class_restriction_tangency"]["status"] == "failed"
    others = [c for cid, c in checks.items()
              if cid not in ("pairing_ad_invariance",
                             "class_restriction_tangency", "basis_closure")]
    assert others and all(c["status"] == "skipped" for c in others)
    assert all("not ad-invariant" in c["reason"] for c in others)


def test_noninvariant_pairing_level_tangency_fails():
    report = run_suite(torus_cfg(pairing={"mask": [1.0, 1.0, 2.0]}), "moduli",
                       seed=3)
    checks = by_id(report)
    assert checks["invariant_level_tangency"]["status"] == "failed"
    assert checks["jacobi_at_level"]["status"] == "skipped"
    assert not report["overall_pass"]


def test_degenerate_pairing_refusals_exit_zero(tmp_path):
    cfg = write_cfg(tmp_path, {
        "group": {"family": "sl2_abelian"},
        "site": {"genus": 1, "class_reps": [], "variant": "fullgroups"},
        "samples": 3,
    })
    out = str(tmp_path / "rep.json")
    result = invoke(["verify", "all", "--config", cfg, "--seed", "5",
                     "--out", out])
    assert result.exit_code == 0, result.output + result.stderr
    report = json.loads(open(out).read())
    assert report["overall_pass"]
    for c in report["checks"]:
        if c["suite"] in ("duality", "dirac"):
            assert c["status"] == "skipped"
            assert "DegeneratePairing" in c["reason"]
        else:
            assert c["status"] == "passed", c


def test_abelian_residuals_machine_zero():
    report = run_suite({
        "group": {"family": "abelian", "n": 2},
        "site": {"genus": 1, "class_reps": [], "variant": "fullgroups"},
        "samples": 3,
    }, "all", seed=1)
    assert report["overall_pass"]
    for c in report["checks"]:
        if c["max_residual"] is not None:
            assert c["max_residual"] <= 1e-12, c


def test_fullgroups_with_punctures_skips_form_checks():
    rep = [[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]
    report = run_suite({
        "group": {"family": "SL", "n": 2},
        "site": {"genus": 1, "class_reps": [rep], "variant": "fullgroups"},
        "samples": 3,
    }, "all", seed=2)
    checks = by_id(report)
    for cid in ("momentum_form_law", "quasi_closedness", "duality_identity",
                "reconstruction_round_trip", "reconstruction_kernel",
                "quasi_nondegeneracy", "strongness_agreement",
                "rank_certificate_chain"):
        assert checks[cid]["status"] == "skipped"
        assert "2-form" in checks[cid]["reason"]
    assert checks["momentum_bivector_law"]["status"] == "passed"
    assert checks["projection_idempotency"]["status"] == "passed"
    assert report["overall_pass"]


def test_empty_check_filter_is_vacuously_green(tmp_path):
    cfg = write_cfg(tmp_path, torus_cfg(checks=[]))
    out = str(tmp_path / "rep.json")
    result = invoke(["verify", "all", "--config", cfg, "--seed", "0",
                     "--out", out])
    assert result.exit_code == 0
    report = json.loads(open(out).read())
    assert report["empty"] is True
    assert report["checks"] == []
    assert report["overall_pass"]


def test_check_filter_selects_subset():
    report = run_suite(torus_cfg(checks=["basis_closure",
                                         "momentum_bivector_law"]), "all")
    assert [c["check_id"] for c in report["checks"]] == [
        "basis_closure", "momentum_bivector_law"]


# -- runner ------------------------------------------------------------------

TWO_PUNCTURES = [[[[2, 0], [0, 0]], [[0, 0], [0.5, 0]]],
                 [[[3, 0], [0, 0]], [[0, 0], [1 / 3, 0]]]]


def test_run_suite_starts_no_thread(monkeypatch):
    def refuse(self):
        raise RuntimeError("run_suite started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    report = run_suite(torus_cfg(site={"genus": 1, "class_reps": []}), "all")
    assert len(report["checks"]) == 23
    assert report["overall_pass"], report["checks"]


@pytest.mark.parametrize("cfg", [
    {"group": {"family": "SL", "n": 2},
     "site": {"genus": 1, "class_reps": TWO_PUNCTURES}},
    {"group": {"family": "sl2_abelian"},
     "site": {"genus": 2, "class_reps": []}},
], ids=["two-punctures", "sl2_abelian-g2"])
def test_per_point_records_alone_match_suite(cfg):
    import qpois.cli as cli

    cfg = dict(cfg, seed=3, samples=3)
    together = by_id(run_suite(cfg, "all"))
    per_point = [c.check_id for c in cli._ALL_CHECKS if c.points is not None]
    assert len(per_point) == 12
    for cid in per_point:
        alone = run_suite(dict(cfg, checks=[cid]), "all")["checks"]
        assert canonical_json(alone) == canonical_json([together[cid]]), cid


@pytest.mark.parametrize("module, name, check_id, poison", [
    ("cli", "momentum_residual", "momentum_bivector_law",
     lambda out: float("nan")),
    ("cli", "restrict_to_class", "class_restriction_tangency",
     lambda out: (out[0], float("nan"))),
    ("quasi", "exterior_d3", "quasi_closedness",
     lambda out: np.full_like(out, np.nan)),
    ("charvar", "word_tangent", "invariant_level_tangency",
     lambda out: np.full_like(out, np.nan)),
    ("charvar", "jacobiator", "jacobi_at_level", lambda out: complex("nan")),
    ("charvar", "bracket_funcs", "poisson_ideal", lambda out: complex("nan")),
], ids=["runner", "class_tangency", "quasi_worst", "level_tangency",
        "jacobi_invariants", "poisson_ideal"])
def test_nan_at_a_later_sample_fails_the_check(monkeypatch, module, name,
                                               check_id, poison):
    import importlib

    mod = importlib.import_module(f"qpois.{module}")
    real = getattr(mod, name)
    calls = []

    def second_call_nan(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append(name)
        return poison(out) if len(calls) == 2 else out

    monkeypatch.setattr(mod, name, second_call_nan)
    report = run_suite(torus_cfg(site={"genus": 1, "class_reps": []},
                                 checks=[check_id]), "all")
    (record,) = report["checks"]
    assert len(calls) > 2
    assert record["status"] == "failed", record
    assert np.isnan(record["max_residual"])
    assert not report["overall_pass"]


def test_nan_invariance_gate_skips_invariant_checks(monkeypatch):
    import qpois.cli as cli

    monkeypatch.setattr(cli, "ad_invariance_residual",
                        lambda *args, **kwargs: float("nan"))
    checks = by_id(run_suite(torus_cfg(), "core"))
    assert checks["pairing_ad_invariance"]["status"] == "failed"
    assert checks["cubic_antisymmetry"]["status"] == "skipped"
    assert "not ad-invariant" in checks["cubic_antisymmetry"]["reason"]


# -- config validation -------------------------------------------------------

def test_unknown_family_exit_2(tmp_path):
    cfg = write_cfg(tmp_path, {"group": {"family": "XX"}})
    result = invoke(["verify", "core", "--config", cfg, "--seed", "0",
                     "--out", str(tmp_path / "x.json")])
    assert result.exit_code == 2
    assert "group" in result.stderr


def test_matrix_literal_error_names_location(tmp_path):
    cfg = write_cfg(tmp_path, {"site": {"class_reps": [[[1, 0]]]}})
    result = invoke(["verify", "core", "--config", cfg, "--seed", "0",
                     "--out", str(tmp_path / "x.json")])
    assert result.exit_code == 2
    assert "site.class_reps[0][0][0]" in result.stderr


@pytest.mark.parametrize("over, loc", [
    ({"site": {"genus": 1, "class_reps": [
        [[[2, 0], [0, 0]], [[0, 0], [float("nan"), 0]]]]}},
     "site.class_reps[0][1][1]"),
    ({"targets": [[[[float("inf"), 0], [0, 0]], [[0, 0], [1, 0]]]]},
     "targets[0][0][0]"),
    ({"group": {"family": "SL", "n": 2, "trace_scale": float("nan")}},
     "group.trace_scale"),
    ({"group": {"family": "SL", "n": 2, "trace_scale": 10 ** 400}},
     "group.trace_scale"),
    ({"pairing": {"mask": [1, float("-inf"), 1]}}, "pairing.mask"),
    ({"tolerances": {"linear": float("inf")}}, "tolerances.linear"),
], ids=["class_rep", "target", "trace_scale", "trace_scale_overflow", "mask",
        "tolerance"])
def test_non_finite_config_numbers_exit_2(tmp_path, over, loc):
    # json.dumps writes NaN and Infinity, which json.loads reads back
    cfg = write_cfg(tmp_path, torus_cfg(**over))
    result = invoke(["verify", "all", "--config", cfg, "--seed", "0",
                     "--out", str(tmp_path / "x.json")])
    assert result.exit_code == 2, result.output + result.stderr
    assert loc in result.stderr
    assert "finite" in result.stderr


@pytest.mark.parametrize("group, loc", [
    ({"family": "SL", "n": 1}, "group.n"),
    ({"family": "GL", "n": 0}, "group.n"),
    ({"family": "SL", "n": 1.5}, "group.n"),
    ({"family": "SL", "n": True}, "group.n"),
    ({"family": "abelian", "n": "x"}, "group.n"),
    ({"family": "SL", "n": 2, "trace_scale": float("nan")}, "group.trace_scale"),
], ids=["sl_n1", "gl_n0", "n_float", "n_bool", "n_string", "trace_scale_nan"])
def test_invalid_group_exit_2(tmp_path, group, loc):
    cfg = write_cfg(tmp_path, torus_cfg(group=group))
    result = invoke(["verify", "core", "--config", cfg, "--seed", "0",
                     "--out", str(tmp_path / "x.json")])
    assert result.exit_code == 2, result.output + result.stderr
    assert loc in result.stderr


def test_pairing_trace_scale_refused_exit_2(tmp_path):
    cfg = write_cfg(tmp_path, torus_cfg(pairing={"trace_scale": 3.0}))
    result = invoke(["verify", "core", "--config", cfg, "--seed", "0",
                     "--out", str(tmp_path / "x.json")])
    assert result.exit_code == 2, result.output + result.stderr
    assert "group.trace_scale" in result.stderr


def test_group_trace_scale_applies_with_a_mask():
    setup = build_setup(torus_cfg(
        group={"family": "SL", "n": 2, "trace_scale": 3.0},
        pairing={"mask": [1, 1, 2]}))
    want = 3.0 * np.array([[2, 0, 0], [0, 0, 2], [0, 2, 0]])
    assert np.array_equal(setup.pairing.eta_lower, want)


def test_sl2_abelian_trace_scale_keeps_the_skip_set():
    plain = {"group": {"family": "sl2_abelian"},
             "site": {"genus": 1, "class_reps": []}, "seed": 2, "samples": 2}
    scaled = dict(plain, group={"family": "sl2_abelian", "trace_scale": 3.0})
    assert np.array_equal(build_setup(scaled).pairing.eta_lower,
                          3.0 * build_setup(plain).pairing.eta_lower)
    assert not build_setup(scaled).pairing.invertible
    skips = []
    for cfg in (plain, scaled):
        report = run_suite(cfg, "all")
        assert report["overall_pass"], report["checks"]
        skips.append({c["check_id"] for c in report["checks"]
                      if c["status"] == "skipped"})
    assert skips[0] == skips[1] and len(skips[0]) == 8


def test_smallest_group_sizes_accepted():
    for family in ("GL", "abelian"):
        assert build_setup(torus_cfg(group={"family": family, "n": 1})).model.n == 1


def test_unwritable_report_exit_2(tmp_path):
    cfg = write_cfg(tmp_path, torus_cfg(samples=1))
    out = str(tmp_path / "missing" / "x.json")
    result = invoke(["sample", "--config", cfg, "--seed", "0", "--out", out])
    assert result.exit_code == 2, result.output + result.stderr
    assert "cannot write report" in result.stderr


def test_invalid_json_names_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    result = invoke(["verify", "core", "--config", str(path), "--seed", "0",
                     "--out", str(tmp_path / "x.json")])
    assert result.exit_code == 2
    assert "line" in result.stderr


def test_minus_identity_refused_outside_group(tmp_path):
    sl3 = {"group": {"family": "SL", "n": 3}, "targets": ["minus_identity"]}
    cfg = write_cfg(tmp_path, sl3)
    result = invoke(["sample", "--config", cfg, "--seed", "0",
                     "--out", str(tmp_path / "x.json")])
    assert result.exit_code == 2
    assert "targets[0]" in result.stderr
    setup = build_setup(torus_cfg(targets=["identity", "minus_identity"]))
    assert np.allclose(setup.targets[1][1], -np.eye(2))


def _literal(mat):
    return [[[float(v.real), float(v.imag)] for v in row] for row in mat]


@pytest.mark.parametrize("command", ["sample", "bracket"])
def test_singular_target_refused(tmp_path, command):
    cfg = write_cfg(tmp_path, torus_cfg(targets=[_literal(np.zeros((2, 2)))]))
    result = invoke([command, "--config", cfg, "--seed", "0",
                     "--out", str(tmp_path / "x.json")])
    assert result.exit_code == 2, result.output + result.stderr
    assert "targets[0]: singular matrix" in result.stderr
    assert not (tmp_path / "x.json").exists()


def test_singular_class_rep_refused(tmp_path):
    cfg = write_cfg(tmp_path, torus_cfg(site={"genus": 1, "class_reps": [
        _literal(np.diag([1.0, 0.0]))]}))
    result = invoke(["verify", "all", "--config", cfg, "--seed", "0",
                     "--out", str(tmp_path / "x.json")])
    assert result.exit_code == 2, result.output + result.stderr
    assert "site.class_reps[0]: singular matrix" in result.stderr


@pytest.mark.parametrize("over, loc", [
    ({"targets": [_literal(2 * np.eye(2))]}, "targets[0]"),
    ({"site": {"genus": 1, "class_reps": [_literal(np.diag([2.0, 1.0]))]}},
     "site.class_reps[0]"),
    # sl2_abelian: determinant 1 on the sl(2) block; the relator keeps it
    # there, so this target stalled every sample row
    ({"group": {"family": "sl2_abelian"},
      "targets": [_literal(np.diag([2.0, 1.0, 1.0]))]}, "targets[0]"),
    ({"group": {"family": "sl2_abelian"}, "site": {
        "genus": 1, "class_reps": [_literal(np.diag([2.0, 1.0, 1.0]))]}},
     "site.class_reps[0]"),
])
def test_determinant_outside_sl_refused(tmp_path, over, loc):
    cfg = write_cfg(tmp_path, torus_cfg(**over))
    result = invoke(["sample", "--config", cfg, "--seed", "0",
                     "--out", str(tmp_path / "x.json")])
    assert result.exit_code == 2, result.output + result.stderr
    assert f"{loc}: determinant" in result.stderr
    assert "outside SL(2)" in result.stderr


@pytest.mark.parametrize("cfg, loc", [
    # abelian is diagonal matrices: this target stalled every sample row
    ({"group": {"family": "abelian", "n": 2}, "site": {"genus": 1},
      "targets": [_literal([[1, 1], [0, 1]])]}, "targets[0]"),
    # sl2_abelian is block diagonal: sl(2) plus a central line
    ({"group": {"family": "sl2_abelian"}, "site": {"genus": 1, "class_reps": [
        _literal([[1, 0, 1], [0, 1, 0], [0, 0, 1]])]}}, "site.class_reps[0]"),
])
def test_matrix_outside_model_span_refused(tmp_path, cfg, loc):
    cfg = write_cfg(tmp_path, cfg)
    result = invoke(["sample", "--config", cfg, "--seed", "0",
                     "--out", str(tmp_path / "x.json")])
    assert result.exit_code == 2, result.output + result.stderr
    assert f"{loc}: outside the span" in result.stderr
    assert not (tmp_path / "x.json").exists()

def test_group_elements_accepted_as_written_in_floats():
    omega = np.exp(2j * np.pi / 3)
    sl3 = build_setup({"group": {"family": "SL", "n": 3},
                       "targets": [_literal(omega * np.eye(3))]})
    assert np.allclose(sl3.targets[0][1], omega * np.eye(3))
    setup = build_setup(torus_cfg(
        site={"genus": 1, "class_reps": [_literal(np.diag([3.0, 1.0 / 3.0]))]},
        targets=[_literal(np.diag([3.0, 1.0 / 3.0]))]))
    assert np.allclose(setup.class_reps[0], np.diag([3.0, 1.0 / 3.0]))
    # off the traceless models only invertibility is required
    gl = build_setup({"group": {"family": "GL", "n": 2},
                      "targets": [_literal(2 * np.eye(2))]})
    assert np.allclose(gl.targets[0][1], 2 * np.eye(2))
    # in the span of the identity and the basis, though not in the basis span
    ab = build_setup({"group": {"family": "sl2_abelian"}, "site": {
        "genus": 1, "class_reps": [_literal(np.diag([2.0, 0.5, 1.0]))]}})
    assert np.allclose(ab.class_reps[0], np.diag([2.0, 0.5, 1.0]))


def test_readme_config_and_class_rep_literal_accepted():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    cfg = json.loads(re.search(r"```json\n(.*?)```", text, re.S).group(1))
    build_setup(cfg)
    literal = json.loads(re.search(r"`(\[\[\[.*?\]\]\])`", text).group(1))
    setup = build_setup(dict(cfg, site={"genus": 1, "class_reps": [literal]}))
    assert np.allclose(setup.class_reps[0], np.diag([2.0, 0.5]))


def _readme_config():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return json.loads(re.search(r"```json\n(.*?)```", text, re.S).group(1))


def test_readme_config_stall_is_reported_once():
    checks = by_id(run_suite(_readme_config(), "moduli"))
    solver = checks["relator_solver"]
    assert solver["status"] == "failed"
    assert solver["reason"] == (
        "solver failed for target minus_identity (sample 0): no descent "
        "direction (residual 1.947e+00); best residual 1.947e+00")
    # the moduli checks read the converged points of the same solves
    for cid in ("jacobi_at_level", "poisson_ideal"):
        assert checks[cid]["status"] == "passed", checks[cid]
        assert 0 < checks[cid]["samples"] < 6


def test_moduli_checks_share_one_solved_set(monkeypatch):
    import qpois.cli as cli

    calls = []
    solve = cli.solve_relator

    def counted(*args, **kwargs):
        calls.append(kwargs.get("seed"))
        return solve(*args, **kwargs)

    monkeypatch.setattr(cli, "solve_relator", counted)
    report = run_suite(torus_cfg(
        samples=8, site={"genus": 1, "class_reps": []},
        targets=["identity", [[[2, 0], [0, 0]], [[0, 0], [0.5, 0]]]]),
        "moduli")
    assert report["overall_pass"], report["checks"]
    # min(samples, 4) solves per target, read by relator_solver,
    # jacobi_at_level and poisson_ideal alike
    assert len(calls) == 8
    assert len(set(calls)) == 8
    checks = by_id(report)
    assert checks["relator_solver"]["samples"] == 8
    assert checks["jacobi_at_level"]["samples"] == 6
    assert checks["poisson_ideal"]["samples"] == 6


def test_one_stalled_solve_is_reported_once(monkeypatch):
    """A solver stop fails relator_solver alone; jacobi_at_level and
    poisson_ideal read the converged solves of the same set."""
    import qpois.cli as cli

    solve = cli.solve_relator
    seeds = []

    def stall_first(*args, **kwargs):
        seeds.append(kwargs["seed"])
        if kwargs["seed"] == seeds[0]:
            raise Stalled("no descent direction (residual 5.000e-01)",
                          best_residual=0.5, iters=3)
        return solve(*args, **kwargs)

    monkeypatch.setattr(cli, "solve_relator", stall_first)
    checks = by_id(run_suite(torus_cfg(
        samples=8, site={"genus": 1, "class_reps": []}, targets=["identity"]),
        "moduli"))
    assert len(seeds) == len(set(seeds)) == 4
    solver = checks["relator_solver"]
    assert solver["status"] == "failed"
    assert solver["reason"] == (
        "solver failed for target identity (sample 0): no descent direction "
        "(residual 5.000e-01); best residual 5.000e-01")
    # min(samples, 3) = 3 solves per target, one of them stalled
    for cid in ("jacobi_at_level", "poisson_ideal"):
        assert checks[cid]["status"] == "passed", checks[cid]
        assert checks[cid]["samples"] == 2
        assert checks[cid]["reason"] is None


def test_every_command_refuses_jobs(tmp_path):
    cfg = write_cfg(tmp_path, torus_cfg(samples=1))
    for command in (["verify", "core"], ["bracket"], ["sample"]):
        result = invoke(command + ["--config", cfg, "--seed", "0",
                                   "--out", str(tmp_path / "x.json"),
                                   "--jobs", "2"])
        assert result.exit_code == 2, command
        assert "--jobs" in result.stderr
    assert not (tmp_path / "x.json").exists()


def test_unknown_check_id_rejected():
    with pytest.raises(ConfigError, match="unknown check id"):
        run_suite(torus_cfg(checks=["no_such_check"]), "all")


def test_unknown_suite_rejected():
    with pytest.raises(ConfigError, match="unknown suite"):
        run_suite(torus_cfg(), "everything")


def test_unknown_tolerance_tier_rejected():
    with pytest.raises(ConfigError, match="tolerances"):
        run_suite(torus_cfg(tolerances={"quux": 1e-3}), "core")


# -- bracket and sample ------------------------------------------------------

def test_bracket_diagonal_pair_is_zero():
    report = compute_brackets(torus_cfg(
        bracket_pairs=[["a", "a"], ["a", "b"]], samples=3))
    assert report["overall_pass"]
    assert report["relator"] == "abAB"
    for row in report["rows"]:
        assert not row["solver_failed"]
        re, im = row["values"]["tr[a],tr[a]"]
        assert abs(complex(re, im)) <= 1e-12


def test_bracket_values_conjugation_invariant():
    cfg = torus_cfg(samples=2)
    setup = build_setup(cfg)
    sampled = sample_points(cfg)
    rng = np.random.default_rng(41)
    fu = TraceFunction(setup.site, "a")
    fv = TraceFunction(setup.site, "ab")
    for row in sampled["rows"]:
        mats = [np.array([[complex(*e) for e in r] for r in lit])
                for lit in row["mats"]]
        point = SitePoint(setup.site, mats)
        base = bracket_value(setup.qp.bivector, fu, fv, point)
        g = np.linalg.qr(rng.standard_normal((2, 2))
                         + 1j * rng.standard_normal((2, 2)))[0]
        g = g / np.sqrt(np.linalg.det(g))
        moved = bracket_value(setup.qp.bivector, fu, fv,
                              conjugate_point(point, g))
        assert abs(complex(base) - complex(moved)) <= 1e-8


def test_bracket_solver_failures_flagged_not_dropped(tmp_path, monkeypatch):
    import qpois.cli as cli

    def stalled(*args, **kwargs):
        raise Stalled("no descent direction (residual 5.000e-01)",
                      best_residual=0.5, iters=3)

    monkeypatch.setattr(cli, "solve_relator", stalled)
    cfg = write_cfg(tmp_path, torus_cfg(samples=2))
    out = str(tmp_path / "rep.json")
    result = invoke(["bracket", "--config", cfg, "--seed", "1", "--out", out])
    assert result.exit_code == 1
    report = json.loads(open(out).read())
    assert len(report["rows"]) == 2
    for row in report["rows"]:
        assert row["solver_failed"] is True
        assert row["reason"]
        assert row["residual"] is not None and row["residual"] > 1e-3
        assert row["values"] is None
    assert not report["overall_pass"]


def test_sample_round_trip_satisfies_relator(tmp_path):
    cfg = write_cfg(tmp_path, torus_cfg(samples=2))
    out = str(tmp_path / "rep.json")
    result = invoke(["sample", "--config", cfg, "--seed", "7", "--out", out])
    assert result.exit_code == 0
    report = json.loads(open(out).read())
    setup = build_setup(torus_cfg(samples=2))
    word = parse_word(setup.site, "abAB")
    for row in report["rows"]:
        assert not row["solver_failed"]
        mats = [np.array([[complex(*e) for e in r] for r in lit])
                for lit in row["mats"]]
        value = word_eval(word, mats)
        assert np.abs(value - np.eye(2)).max() <= 1e-8
        assert abs(np.linalg.det(mats[0]) - 1.0) <= 1e-9


def test_bracket_reports_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, torus_cfg(samples=2))
    reads = []
    for name in ("b1.json", "b2.json"):
        out = str(tmp_path / name)
        result = invoke(["bracket", "--config", cfg, "--seed", "4",
                         "--out", out])
        assert result.exit_code == 0
        reads.append(open(out, "rb").read())
    assert reads[0] == reads[1]


# -- serialization -----------------------------------------------------------

def test_canonical_json_sorted_keys_and_float_format():
    text = canonical_json({"b": 1.0 / 3.0, "a": [True, None, 2]})
    assert text == '{"a":[true,null,2],"b":0.33333333333333331}'
    assert float("0.33333333333333331") == 1.0 / 3.0


def test_canonical_json_non_finite_quoted():
    text = canonical_json([float("nan"), float("inf"), float("-inf")])
    assert text == '["NaN","Infinity","-Infinity"]'


def test_canonical_json_complex_as_pair():
    assert canonical_json(complex(1.5, -2.0)) == "[1.5,-2]"


def test_write_report_unwritable_path_raises(tmp_path):
    with pytest.raises(IoError, match="cannot write"):
        write_report({"x": 1}, str(tmp_path / "missing" / "rep.json"))


def test_load_config_missing_file_raises(tmp_path):
    with pytest.raises(IoError, match="cannot read"):
        load_config(str(tmp_path / "nope.json"))


def test_log_env_values_accepted(tmp_path):
    cfg = write_cfg(tmp_path, torus_cfg(checks=["basis_closure"]))
    for value in ("debug", "bogus"):
        out = str(tmp_path / f"rep_{value}.json")
        result = invoke(["verify", "core", "--config", cfg, "--seed", "0",
                         "--out", out], env={"QPOIS_LOG": value})
        assert result.exit_code == 0


def test_genus_zero_three_punctures_core():
    rep1 = [[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]
    rep2 = [[[3.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0 / 3.0, 0.0]]]
    report = run_suite({
        "group": {"family": "SL", "n": 2},
        "site": {"genus": 0, "class_reps": [rep1, rep2, rep1],
                 "variant": "classes"},
        "samples": 3,
    }, "core", seed=6)
    assert report["overall_pass"], [c for c in report["checks"]
                                    if c["status"] != "passed"]
