"""`report_set.py --diff` on two hand-written report directories."""

import json

import pytest

import report_set


def _verify(*checks):
    return {"kind": "verify", "overall_pass": True, "checks": [
        {"check_id": cid, "status": status, "max_residual": resid,
         "reason": None} for cid, status, resid in checks]}


def _rows(*rows):
    return {"kind": "sample", "overall_pass": True, "rows": [
        {"sample": k, "solver_failed": failed, "residual": resid}
        for k, (failed, resid) in enumerate(rows)]}


OLD = {
    "same.json": _verify(("duality_identity", "passed", 1e-13)),
    "moved.json": _verify(("duality_identity", "passed", 1e-13),
                          ("equivariance", "passed", 2e-13),
                          ("quasi_nondegeneracy", "passed", 0.0)),
    "rows.json": _rows((False, 1e-14), (False, 3e-14)),
    "header.json": {**_verify(("equivariance", "passed", 2e-13)), "seed": 0},
    "gone.json": _rows((False, 1e-14)),
}

NEW = {
    "same.json": _verify(("duality_identity", "passed", 1e-13)),
    "moved.json": _verify(("duality_identity", "passed", 1e-13),
                          ("equivariance", "passed", 3e-13),
                          ("quasi_nondegeneracy", "failed", 1.0)),
    "rows.json": _rows((False, 1e-14), (True, 0.5), (False, 2e-14)),
    "header.json": {**_verify(("equivariance", "passed", 2e-13)), "seed": 1},
    "added.json": _verify(),
}


def _write(path, reports):
    path.mkdir()
    for name, report in reports.items():
        (path / name).write_text(json.dumps(report, sort_keys=True) + "\n",
                                 encoding="utf-8")


def test_diff_names_moved_reports_and_records(tmp_path, capsys):
    old, new = tmp_path / "old", tmp_path / "new"
    _write(old, OLD)
    _write(new, NEW)
    with pytest.raises(SystemExit) as exited:
        report_set.main(["--diff", str(old), str(new)])
    assert exited.value.code == 1
    assert capsys.readouterr().out.splitlines() == [
        "added.json: only in NEW",
        "gone.json: only in OLD",
        "header.json:",
        "  no check or row moved",
        "moved.json:",
        "  equivariance: passed 2e-13 -> passed 3e-13",
        "  quasi_nondegeneracy: passed 0.0 -> failed 1.0",
        "rows.json:",
        "  row 1: solved 3e-14 -> failed 0.5",
        "  row 2: absent None -> solved 2e-14",
        "5 of 6 reports moved",
    ]


def test_diff_of_equal_directories_exits_zero(tmp_path, capsys):
    old, new = tmp_path / "old", tmp_path / "new"
    _write(old, OLD)
    _write(new, OLD)
    with pytest.raises(SystemExit) as exited:
        report_set.main(["--diff", str(old), str(new)])
    assert exited.value.code == 0
    assert capsys.readouterr().out.splitlines() == ["0 of 5 reports moved"]
