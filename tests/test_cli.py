"""Batch driver: config handling, report determinism, exit codes."""

import json
import re
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
from qpois.errors import ConfigError, IoError
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
    for name, jobs in (("r1.json", "1"), ("r2.json", "1"), ("r3.json", "4")):
        out = str(tmp_path / name)
        result = invoke(["verify", "core", "--config", cfg, "--seed", "7",
                         "--out", out, "--jobs", jobs])
        assert result.exit_code == 0
        outs.append(open(out, "rb").read())
    assert outs[0] == outs[1]
    assert outs[0] == outs[2]


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
                "strongness_agreement"):
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


def test_readme_config_and_class_rep_literal_accepted():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    cfg = json.loads(re.search(r"```json\n(.*?)```", text, re.S).group(1))
    build_setup(cfg)
    literal = json.loads(re.search(r"`(\[\[\[.*?\]\]\])`", text).group(1))
    setup = build_setup(dict(cfg, site={"genus": 1, "class_reps": [literal]}))
    assert np.allclose(setup.class_reps[0], np.diag([2.0, 0.5]))


def test_jobs_is_a_verify_option_only(tmp_path):
    cfg = write_cfg(tmp_path, torus_cfg(samples=1))
    result = invoke(["bracket", "--config", cfg, "--seed", "0",
                     "--out", str(tmp_path / "x.json"), "--jobs", "2"])
    assert result.exit_code == 2
    assert "--jobs" in result.stderr


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


def test_bracket_solver_failures_flagged_not_dropped(tmp_path):
    bad_target = [[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    cfg = write_cfg(tmp_path, torus_cfg(targets=[bad_target], samples=2))
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
