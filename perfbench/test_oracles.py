"""Tests of the benchmark's own output checks.

    python3 -m pytest -q perfbench

Each oracle must accept what the program emits and reject a perturbed
matrix, a sign-flipped bracket value and a changed report byte.
"""

import copy
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import oracles  # noqa: E402
from workloads import PAIRS_G2, README_CONFIG, config  # noqa: E402
from qpois.cli import build_setup, canonical_json, compute_brackets, sample_points  # noqa: E402
from qpois.charvar import TraceFunction, bracket, solve_relator  # noqa: E402
from qpois.groupgeom import random_point  # noqa: E402
from qpois.quasi import relator_word  # noqa: E402

G2 = config("SL", 2, 2, 3, words=["a", "b", "ab", "c", "cd"], pairs=PAIRS_G2)


def _literal(mat):
    return [[[z.real, z.imag] for z in row] for row in mat]


@pytest.fixture(scope="module")
def sample_report():
    return sample_points(dict(README_CONFIG, samples=3))


@pytest.fixture(scope="module")
def bracket_values():
    """Bracket values at one random point of SL(2) genus 2, with its mats."""
    setup = build_setup(G2)
    point = random_point(setup.site, np.random.default_rng(5))
    got = {}
    for u, v, _ in PAIRS_G2:
        val = complex(bracket(setup.qp.bivector, TraceFunction(setup.site, u),
                              TraceFunction(setup.site, v), point))
        got[f"tr[{u}],tr[{v}]"] = [val.real, val.imag]
    return got, list(point.mats)


def test_relator_matches_program_convention():
    assert oracles.relator(1, 0) == "abAB"
    assert oracles.relator(2, 1) == "abABcdCDe"


def test_sample_rows_accepted(sample_report):
    ok = [r for r in sample_report["rows"] if not r["solver_failed"]]
    assert ok
    for row in ok:
        assert oracles.sample_row_problems(row, README_CONFIG, "row") == []


def test_sample_rejects_perturbed_matrix(sample_report):
    row = copy.deepcopy(next(r for r in sample_report["rows"]
                             if not r["solver_failed"]))
    row["mats"][1][0][1][0] += 1e-6
    assert oracles.sample_row_problems(row, README_CONFIG, "row")


def test_sample_rejects_wrong_class_trace():
    """Genus 0 with three punctures diag(2, 1/2): the relator is abc."""
    rep = np.diag([2.0, 0.5])
    cfg = config("SL", 2, 0, 0, class_reps=[_literal(rep)] * 3)
    row = {"mats": [_literal(rep)] * 3, "target": "identity"}
    problems = oracles.sample_row_problems(row, cfg, "row")
    assert any("relator gap" in p for p in problems)
    assert not any("trace" in p for p in problems)
    row["mats"][2] = _literal(np.diag([3.0, 1 / 3]))
    assert any("trace" in p for p in oracles.sample_row_problems(row, cfg, "row"))


def test_goldman_accepts_program_brackets(bracket_values):
    got, mats = bracket_values
    assert oracles.goldman_problems(got, mats, PAIRS_G2, "SL", "pt") == []


def test_goldman_rejects_sign_flip(bracket_values):
    got, mats = bracket_values
    for key in ("tr[a],tr[b]", "tr[a],tr[ab]"):
        flipped = dict(got, **{key: [-x for x in got[key]]})
        assert oracles.goldman_problems(flipped, mats, PAIRS_G2, "SL", "pt")


def test_goldman_rejects_nonzero_disjoint_bracket(bracket_values):
    got, mats = bracket_values
    bad = dict(got, **{"tr[a],tr[c]": [1e-3, 0.0]})
    assert oracles.goldman_problems(bad, mats, PAIRS_G2, "SL", "pt")


def test_goldman_on_solved_bracket_rows():
    report = compute_brackets(dict(README_CONFIG, samples=2))
    setup = build_setup(README_CONFIG)
    word = relator_word(setup.site, 1, 0)
    for row in report["rows"]:
        out = solve_relator(setup.site, word, np.eye(2), seed=row["solver_seed"])
        mats = list(out.point.mats)
        pairs = [("a", "b", 1), ("a", "ab", 1)]
        assert oracles.goldman_problems(row["values"], mats, pairs, "SL", "r") == []
        flipped = {k: [-x for x in v] for k, v in row["values"].items()}
        assert oracles.goldman_problems(flipped, mats, pairs, "SL", "r")


def test_digests_reject_changed_byte(sample_report):
    data = (canonical_json(sample_report) + "\n").encode()
    digests = oracles.ReportDigests()
    assert digests.problems("r", data) == []
    assert digests.problems("r", data) == []
    changed = bytearray(data)
    changed[len(changed) // 2] ^= 1
    assert digests.problems("r", bytes(changed))


def test_verify_problems_names_unexpected_failure_and_skips():
    rec = {"check_id": "x", "status": "failed", "max_residual": 1.0,
           "tolerance": 0.1, "reason": "residual exceeds tolerance"}
    report = {"checks": [rec]}
    assert oracles.verify_problems(report, frozenset({"x"}), frozenset(), "w") == []
    assert oracles.verify_problems(report, frozenset(), frozenset(), "w")
    skip = dict(rec, status="skipped", reason="DegeneratePairing: no inverse")
    assert oracles.verify_problems({"checks": [skip]}, frozenset(),
                                   frozenset({"x"}), "w") == []
    assert oracles.verify_problems({"checks": [skip]}, frozenset(),
                                   frozenset(), "w")
