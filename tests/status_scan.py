"""Write the status of every check over a fixed scan of seeds, one line each.

    python tests/status_scan.py OUTFILE
    python tests/status_scan.py --diff OLD NEW

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
checkouts and compare the two files with `--diff`: it prints every (config,
seed, check) whose status or reason moved, with both residuals, and then
the number of failing runs of each check on each side.  Residual digits
depend on the numpy and BLAS build, so only files written on the same host
and installation compare.  The package is imported from the `src` directory next to this
file, and nothing is written but OUTFILE.
"""

import sys
from collections import Counter
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


def _read(path):
    """{(config, seed, check_id): (status, residual, reason)} of a scan file."""
    out = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        name, seed, cid, status, resid, reason = line.split("\t")
        out[name, int(seed), cid] = (status, resid, reason)
    return out


def diff_lines(old_path, new_path):
    """The moved (config, seed, check) lines of two scan files, then per
    check that fails on either side its failure counts, old -> new."""
    old, new = _read(old_path), _read(new_path)
    absent = ("absent", "None", "None")
    lines, moved = [], 0
    for key in sorted(old.keys() | new.keys()):
        was, now = old.get(key, absent), new.get(key, absent)
        if (was[0], was[2]) != (now[0], now[2]):
            moved += 1
            line = (f"{key[0]} {key[1]} {key[2]}: {was[0]} {was[1]} -> "
                    f"{now[0]} {now[1]}")
            if was[2] != now[2]:
                line += f" | reason {was[2]} -> {now[2]}"
            lines.append(line)
    was, now = (Counter(cid for (_, _, cid), (status, _, _) in scan.items()
                        if status == "failed") for scan in (old, new))
    lines.append(f"{moved} moved; failing runs per check, old -> new:")
    for cid in sorted(was.keys() | now.keys()):
        lines.append(f"  {cid}: {was[cid]} -> {now[cid]}")
    lines.append(f"  total: {sum(was.values())} -> {sum(now.values())}")
    return lines


def main(argv):
    if len(argv) == 3 and argv[0] == "--diff":
        print("\n".join(diff_lines(argv[1], argv[2])))
        return
    if len(argv) != 1:
        sys.exit("usage: python tests/status_scan.py OUTFILE\n"
                 "       python tests/status_scan.py --diff OLD NEW")
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
