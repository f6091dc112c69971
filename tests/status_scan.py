"""Write the status of every check over a fixed scan of seeds, one line each.

    python tests/status_scan.py OUTFILE

runs `verify all` on each (config, seed) below and writes one sorted line
per (config, seed, check_id): the status, `repr` of the max residual and
the reason, tab-separated.  The configs:

- every verify unit of the benchmark (`perfbench/workloads.py`) at seeds
  0-9, with its check filter dropped (a unit with a fixed seed runs once);
- the two-puncture site, SL(2) genus 1 with classes diag(2, 1/2) and
  diag(3, 1/3), at seeds 0-39;
- SL(2) genus 2 at seeds 0-59 and SL(3) genus 1 at seeds 0-29;
- SL(2) genus 5, SL(3) genus 3 and SL(4) genus 1 at seeds 0-2.

To check that a change moves no status and no reason, run it from both
checkouts and `diff` the two files.  Residual digits depend on the numpy
and BLAS build, so only files written on the same host and installation
compare.  The package is imported from the `src` directory next to this
file, and nothing is written but OUTFILE.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from qpois import cli  # noqa: E402
from workloads import TWO_PUNCTURES, WORKLOADS, config  # noqa: E402

BENCH_SEEDS = range(10)
SCANS = [
    # (name, family, n, genus, class reps, seeds)
    ("sl2-g1-2punct", "SL", 2, 1, TWO_PUNCTURES, range(40)),
    ("sl2-g2", "SL", 2, 2, (), range(60)),
    ("sl3-g1", "SL", 3, 1, (), range(30)),
    ("sl2-g5", "SL", 2, 5, (), range(3)),
    ("sl3-g3", "SL", 3, 3, (), range(3)),
    ("sl4-g1", "SL", 4, 1, (), range(3)),
]


def runs():
    """{(name, seed): config} of every scanned run, each once."""
    out = {}
    for seed in BENCH_SEEDS:
        for make in WORKLOADS.values():
            for unit in make(seed).units:
                if unit.kind == "verify":
                    cfg = dict(unit.config)
                    cfg.pop("checks", None)
                    out[unit.name, cfg["seed"]] = cfg
    for name, family, n, genus, reps, seeds in SCANS:
        for seed in seeds:
            out[name, seed] = config(family, n, genus, seed, class_reps=reps)
    return out


def main(argv):
    if len(argv) != 1:
        sys.exit("usage: python tests/status_scan.py OUTFILE")
    lines = []
    scanned = runs()
    for (name, seed), cfg in scanned.items():
        for rec in cli.run_suite(cfg, "all")["checks"]:
            lines.append("\t".join([
                name, str(seed), rec["check_id"], rec["status"],
                repr(rec["max_residual"]), str(rec["reason"])]))
    Path(argv[0]).write_text("".join(f"{line}\n" for line in sorted(lines)),
                             encoding="utf-8")
    print(f"{len(scanned)} runs, {len(lines)} lines -> {argv[0]}")


if __name__ == "__main__":
    main(sys.argv[1:])
