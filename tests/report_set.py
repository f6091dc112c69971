"""Write a fixed set of canonical reports, for byte-identity checks.

    python tests/report_set.py OUTDIR
    python tests/report_set.py --diff OLD NEW

writes 90 reports into OUTDIR, each with its `environment` field nulled so
that two checkouts on one host can be compared file by file:

- every benchmark unit (`perfbench/workloads.py`) at seeds 0-4, each under
  its own command (60 reports);
- ten more configs under `verify all`, `sample` and `bracket` (30 reports):
  the README example, the three configs of `test_reachability.py`, SL(2)
  genus 2 at seed 3 with 16 samples, SL(3) genus 2, SL(2) genus 3 with 70
  samples (two batches of points), a central class -I, GL(2) genus 1 and
  SL(2) genus 1 with `trace_scale` 2.5.

To check that a change keeps every report byte, run it from both
checkouts and compare the two directories with `diff -r`, or with `--diff`:
it prints every report whose bytes moved and, under it, each check record
or solve row that moved, with both statuses and both residuals, and exits
1 when any report moved and 0 otherwise.  The digits depend on the numpy
and BLAS build, so only reports written on the same host and installation
compare.  The package is imported from the `src`
directory next to this file, and nothing is written outside OUTDIR.
"""

import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]

from qpois import cli  # noqa: E402
from test_reachability import CONFIGS as REACHABILITY  # noqa: E402
from workloads import WORKLOADS, diag_literal  # noqa: E402

SEEDS = range(5)
COMMANDS = {
    "verify": lambda cfg: cli.run_suite(cfg, "all"),
    "sample": cli.sample_points,
    "bracket": cli.compute_brackets,
}


def _readme_config():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return json.loads(re.search(r"```json\n(.*?)```", text, re.S).group(1))


def extra_configs():
    """The ten configs every command runs, by name."""
    return {
        "readme": _readme_config(),
        **{f"reach-{name}": cfg for name, cfg in REACHABILITY.items()},
        "sl2-g2-s3-16": {"site": {"genus": 2}, "seed": 3, "samples": 16},
        "sl3-g2": {"group": {"family": "SL", "n": 3}, "site": {"genus": 2}},
        "sl2-g3-70": {"site": {"genus": 3}, "samples": 70},
        "sl2-g1-minus-class": {"site": {"genus": 1,
                                        "class_reps": [diag_literal(-1, -1)]}},
        "gl2-g1": {"group": {"family": "GL", "n": 2}, "site": {"genus": 1}},
        "sl2-g1-scale": {"group": {"family": "SL", "n": 2, "trace_scale": 2.5},
                         "site": {"genus": 1}},
    }


def runs():
    """(file name, command, config) of every report, in a fixed order."""
    for seed in SEEDS:
        for wname, make in WORKLOADS.items():
            for unit in make(seed).units:
                yield (f"{wname}-{unit.name}-{unit.kind}-s{seed}", unit.kind,
                       unit.config)
    for name, cfg in extra_configs().items():
        for kind in COMMANDS:
            yield f"{name}-{kind}", kind, cfg


def _records(report):
    """{label: record} of a report's check records or solve rows."""
    if "checks" in report:
        return {rec["check_id"]: rec for rec in report["checks"]}
    return {f"row {k}": row for k, row in enumerate(report.get("rows", []))}


def _outcome(rec):
    """'status residual' of a check record or a solve row."""
    if rec is None:
        return "absent None"
    if "status" in rec:
        return f"{rec['status']} {rec['max_residual']}"
    return f"{'failed' if rec['solver_failed'] else 'solved'} {rec['residual']}"


def diff_lines(old_dir, new_dir):
    """Per report whose bytes moved between two directories its name, then
    each moved record as 'label: old -> new'; last, the count."""
    dirs = Path(old_dir), Path(new_dir)
    names = sorted({p.name for d in dirs for p in d.glob("*.json")})
    lines, moved = [], 0
    for name in names:
        texts = [(d / name).read_bytes() if (d / name).exists() else None
                 for d in dirs]
        if texts[0] == texts[1]:
            continue
        moved += 1
        if None in texts:
            lines.append(f"{name}: only in {'NEW' if texts[0] is None else 'OLD'}")
            continue
        lines.append(f"{name}:")
        was, now = (_records(json.loads(text)) for text in texts)
        keys = list(dict.fromkeys([*was, *now]))
        recs = [f"  {key}: {_outcome(was.get(key))} -> {_outcome(now.get(key))}"
                for key in keys if was.get(key) != now.get(key)]
        lines.extend(recs or ["  no check or row moved"])
    lines.append(f"{moved} of {len(names)} reports moved")
    return lines


def main(argv):
    if len(argv) == 3 and argv[0] == "--diff":
        lines = diff_lines(argv[1], argv[2])
        print("\n".join(lines))
        # every line but the last, the count, names a moved report
        sys.exit(int(len(lines) > 1))
    if len(argv) != 1:
        sys.exit("usage: python tests/report_set.py OUTDIR\n"
                 "       python tests/report_set.py --diff OLD NEW")
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    count = 0
    for name, kind, cfg in runs():
        report = COMMANDS[kind](json.loads(json.dumps(cfg)))
        report["environment"] = None
        cli.write_report(report, out / f"{name}.json")
        count += 1
    print(f"{count} reports -> {out}")


if __name__ == "__main__":
    main(sys.argv[1:])
