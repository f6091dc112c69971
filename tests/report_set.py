"""Write a fixed set of canonical reports, for byte-identity checks.

    python tests/report_set.py OUTDIR

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
checkouts and compare the two directories with `diff -r`.  The digits
depend on the numpy and BLAS build, so only reports written on the same
host and installation compare.  The package is imported from the `src`
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


def main(argv):
    if len(argv) != 1:
        sys.exit("usage: python tests/report_set.py OUTDIR")
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
