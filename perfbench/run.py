"""qpois benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload verify-nondeg --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout.  Each unit of work goes through the
calls the `qpois` command makes (`run_suite(..., jobs=1)`, `sample_points` or
`compute_brackets`, then `write_report`) on configs generated from the seed.
Whole rounds of units run until `--seconds` have passed.  The last line of
standard output is the result JSON: with `--trace 0` the end-to-end metrics,
with `--trace 1` the per-layer metrics of a separate, traced run.  Timed
metrics are process CPU seconds, scaled to a reference host speed by a fixed
kernel timed between units.  The `host-context` line before the result is
not a metric.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# Small matrices: BLAS threads only add scheduling noise.  Set before numpy
# is imported, here and in every child interpreter.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter, process_time

import numpy as np

import oracles
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.getcwd(), "src")
OUT = os.path.join(HERE, "out")
SETUP_STARTS = 9
SETUP_CHILD = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from qpois.cli import build_setup, load_config\n"
    "for path in sys.argv[2:]:\n"
    "    build_setup(load_config(path))\n"
)
_INV = np.linalg.inv        # the reference kernel must not be traced
# The reference kernel's CPU time on the host of perfbench/README.md.  Timed
# metrics are scaled to a host on which the kernel takes this long.
REF_KERNEL_CPU_S = 0.011
KERNEL_EVERY_S = 0.25       # one kernel sample per this much unit CPU time


def parse_args(argv):
    ap = argparse.ArgumentParser(description="qpois benchmark, one run")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


# ---------------------------------------------------------------------------
# host context (printed, never a metric)
# ---------------------------------------------------------------------------

def read_host_counters():
    """(steal seconds, cpu-pressure 'some' seconds); None where unreadable."""
    steal = pressure = None
    try:
        with open("/proc/stat") as fh:
            steal = int(fh.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        pass
    try:
        with open("/proc/pressure/cpu") as fh:
            pressure = int(fh.readline().split()[-1].split("=")[1]) / 1e6
    except (OSError, IndexError, ValueError):
        pass
    return steal, pressure


def reference_kernel():
    """(wall, CPU) seconds of a fixed mix of small-matrix numpy calls and
    Python loops, the kind of work the program does."""
    a = np.array([[1.1, 0.2j], [0.3, 0.9]])
    c0, t0 = process_time(), perf_counter()
    acc = 0.0
    for k in range(1000):
        acc += abs((_INV(a) @ a)[0, 0]) + k % 7
    return perf_counter() - t0, process_time() - c0


def host_context(start, end, kernel_s):
    delta = [None if a is None or b is None else round(b - a, 3)
             for a, b in zip(start, end)]
    rates = sorted(1.0 / s for s in kernel_s)
    return {
        "steal_s": delta[0],
        "cpu_pressure_some_s": delta[1],
        "ref_kernel_per_s": {"median": round(statistics.median(rates), 1),
                             "min": round(rates[0], 1),
                             "max": round(rates[-1], 1), "n": len(rates)},
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


# ---------------------------------------------------------------------------
# units and rounds
# ---------------------------------------------------------------------------

def write_configs(workload, run_dir):
    """One file per distinct config; returns [(unit, config path, report path)]."""
    paths = {}
    plan = []
    for unit in workload.units:
        text = json.dumps(unit.config, sort_keys=True)
        if text not in paths:
            paths[text] = os.path.join(run_dir, f"cfg-{unit.name}.json")
            with open(paths[text], "w") as fh:
                fh.write(text + "\n")
        plan.append((unit, paths[text],
                     os.path.join(run_dir, f"{unit.kind}-{unit.name}.json")))
    return plan


def children_cpu_s():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup(config_paths):
    """Cold starts: fresh interpreter, import qpois, build_setup for every
    config of the workload.  Returns the median CPU seconds of a start (user
    plus system time of the child), the median wall seconds, and the CPU
    seconds of reference-kernel samples taken after each start."""
    cpu, wall, kernel = [], [], []
    for _ in range(SETUP_STARTS):
        c0, t0 = children_cpu_s(), perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CHILD, SRC, *config_paths],
                       check=True, stdout=subprocess.DEVNULL)
        wall.append(perf_counter() - t0)
        cpu.append(children_cpu_s() - c0)
        kernel += [reference_kernel()[1] for _ in range(3)]
    return statistics.median(cpu), statistics.median(wall), kernel


def tally(unit, report):
    """(points, operations, failed operations) of one unit's report."""
    if unit.kind == "verify":
        recs = report["checks"]
        return (sum(r["samples"] for r in recs), len(recs),
                sum(r["status"] == "failed" for r in recs))
    rows = report["rows"]
    return len(rows), len(rows), sum(r["solver_failed"] for r in rows)


class Rounds:
    """Runs whole rounds of a workload's units; keeps times and tallies."""

    def __init__(self, cli, plan):
        self.cli, self.plan = cli, plan
        self.unit_s = [[] for _ in plan]     # per unit: wall seconds of each round
        self.unit_cpu_s = [[] for _ in plan]  # per unit: CPU seconds of each round
        self.points = [0] * len(plan)
        self.ops = self.failed = 0
        self.reports = [None] * len(plan)
        self.digests = oracles.ReportDigests()
        self.problems = []
        self.kernel_s = []                   # wall seconds, every round
        self.kernel_cpu_s = []               # CPU seconds, timed rounds

    def run_unit(self, i, jobs):
        unit, cfg_path, out_path = self.plan[i]
        c0, t0 = process_time(), perf_counter()
        if unit.kind == "verify":
            report = self.cli.run_suite(cfg_path, "all", jobs=jobs)
        elif unit.kind == "sample":
            report = self.cli.sample_points(cfg_path)
        else:
            report = self.cli.compute_brackets(cfg_path)
        self.cli.write_report(report, out_path)
        seconds, cpu_s = perf_counter() - t0, process_time() - c0
        with open(out_path, "rb") as fh:
            self.problems += self.digests.problems(os.path.basename(out_path),
                                                   fh.read())
        self.reports[i] = report
        return seconds, cpu_s, report

    def one(self, jobs=1, timed=True):
        """One round; returns the seconds spent inside its units."""
        busy = 0.0
        for i, (unit, _, _) in enumerate(self.plan):
            seconds, cpu_s, report = self.run_unit(i, jobs)
            busy += seconds
            if timed:
                self.unit_s[i].append(seconds)
                self.unit_cpu_s[i].append(cpu_s)
                points, ops, failed = tally(unit, report)
                self.points[i] = points
                self.ops += ops
                self.failed += failed
            # samples in proportion to unit time, so that their median
            # follows the host's speed over the whole timed section
            for _ in range(max(1, round(cpu_s / KERNEL_EVERY_S))):
                wall, cpu = reference_kernel()
                self.kernel_s.append(wall)
                if timed:
                    self.kernel_cpu_s.append(cpu)
        return busy

    def timed(self, seconds, before_round=None, after_round=None):
        start = perf_counter()
        while True:
            if before_round:
                before_round()
            self.one()
            if after_round:
                after_round()
            if perf_counter() - start >= seconds:
                return

    def points_per_s(self, per_unit):
        """Points of all timed rounds over the seconds spent in their units."""
        rounds = len(per_unit[0])
        return rounds * sum(self.points) / sum(map(sum, per_unit))


# ---------------------------------------------------------------------------
# output checks (after the timed section)
# ---------------------------------------------------------------------------

def check_outputs(workload, plan, reports):
    from qpois.charvar import TraceFunction, bracket, solve_relator
    from qpois.cli import build_setup
    from qpois.groupgeom import random_point
    from qpois.quasi import relator_word

    problems = []
    for (unit, _, _), report in zip(plan, reports):
        where = f"{unit.kind}-{unit.name}"
        cfg = unit.config
        family = cfg["group"]["family"]
        if unit.kind == "verify":
            problems += oracles.verify_problems(
                report, unit.known_failures, workload.expect_skips, where)
            # Goldman's closed form at a few random points of the config
            setup = build_setup(cfg)
            rng = np.random.default_rng([cfg["seed"], 0x60])
            for k in range(3):
                point = random_point(setup.site, rng)
                got = {}
                for u, v, _ in unit.pairs:
                    val = complex(bracket(setup.qp.bivector,
                                          TraceFunction(setup.site, u),
                                          TraceFunction(setup.site, v), point))
                    got[f"tr[{u}],tr[{v}]"] = [val.real, val.imag]
                problems += oracles.goldman_problems(
                    got, point.mats, unit.pairs, family, f"{where} point {k}")
            continue
        setup = build_setup(cfg)
        word = relator_word(setup.site, setup.genus, len(setup.class_reps))
        for row in report["rows"]:
            label = row.get("target", report.get("target"))
            rwhere = f"{where} row {label}/{row['sample']}"
            if row["solver_failed"]:
                if label not in unit.known_failures:
                    problems.append(f"{rwhere}: solver failed: {row['reason']}")
            elif unit.kind == "sample":
                problems += oracles.sample_row_problems(row, cfg, rwhere)
            else:
                # the bracket's point, re-solved from the row's solver seed
                target = oracles.target_matrix(label, setup.model.n)
                out = solve_relator(setup.site, word, target,
                                    seed=row["solver_seed"])
                mats = list(out.point.mats)
                problems += oracles.point_problems(mats, cfg, label, rwhere)
                problems += oracles.goldman_problems(
                    row["values"], mats, unit.pairs, family, rwhere)
    return problems


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qpois", "cli.py")):
        print(f"error: no qpois sources under {SRC}; run from the root of a "
              f"qpois checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    run_dir = os.path.join(OUT, f"{workload.name}-{args.seed}-t{args.trace}")
    os.makedirs(run_dir, exist_ok=True)
    plan = write_configs(workload, run_dir)

    host_start = read_host_counters()
    setup_cpu_s, setup_wall_s, setup_kernel_s = measure_setup(
        sorted({cfg for _, cfg, _ in plan}))

    sys.path.insert(0, SRC)
    import qpois
    from qpois import cli
    if not os.path.abspath(qpois.__file__).startswith(SRC + os.sep):
        print(f"error: imported qpois from {qpois.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    rounds = Rounds(cli, plan)

    if args.trace:
        from tracing import METRICS, Tracer
        # Untraced and traced rounds alternate, so that host drift does not
        # masquerade as tracing overhead.
        tracer = Tracer()
        untraced = []
        per_round = []

        def before_round():
            untraced.append(rounds.one(timed=False))
            tracer.reset()
            tracer.install()

        def after_round():
            tracer.uninstall()
            per_round.append(tracer.snapshot())

        try:
            rounds.timed(args.seconds, before_round, after_round)
        finally:
            tracer.uninstall()
        metrics = {}
        for name, unit, _ in METRICS:
            if unit == "s":
                value = statistics.median(r[name] for r in per_round)
            else:
                value = per_round[-1][name]
            metrics[name] = {"value": value, "unit": unit}
        traced = [sum(t) for t in zip(*rounds.unit_s)]
        print("trace-overhead " + json.dumps({
            "untraced_round_s_median": round(statistics.median(untraced), 4),
            "traced_round_s_median": round(statistics.median(traced), 4),
            "round_pairs": len(traced)}))
        with open(os.path.join(run_dir, "trace.json"), "w") as fh:
            json.dump({"workload": workload.name, "seed": args.seed,
                       "rounds": per_round}, fh, indent=1, sort_keys=True)
    else:
        rounds.timed(args.seconds)
        # host speed: REF_KERNEL_CPU_S over the kernel's median CPU time
        speed_setup = REF_KERNEL_CPU_S / statistics.median(setup_kernel_s)
        speed_rounds = REF_KERNEL_CPU_S / statistics.median(rounds.kernel_cpu_s)
        points_per_cpu_s = rounds.points_per_s(rounds.unit_cpu_s)
        metrics = {
            "points_per_ref_s": {"value": points_per_cpu_s / speed_rounds,
                                 "unit": "1/s"},
            "setup_s": {"value": setup_cpu_s * speed_setup, "unit": "s"},
            "peak_rss_mib": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MiB"},
        }
        print("rounds " + json.dumps({
            "round_s": [round(sum(t), 4) for t in zip(*rounds.unit_s)],
            "round_cpu_s": [round(sum(t), 4) for t in zip(*rounds.unit_cpu_s)],
            "points_per_round": sum(rounds.points),
            "points_per_wall_s": round(rounds.points_per_s(rounds.unit_s), 3),
            "points_per_cpu_s": round(points_per_cpu_s, 3),
            "host_speed_rounds": round(speed_rounds, 4),
            "setup_cpu_s": round(setup_cpu_s, 4),
            "setup_wall_s": round(setup_wall_s, 4),
            "host_speed_setup": round(speed_setup, 4)}), file=sys.stderr)

    # Outside timing, and after peak RSS is read (the pool's threads get
    # malloc arenas of their own): one round with two jobs per verify unit,
    # whose report bytes must repeat those of the first round.
    rounds.one(jobs=2, timed=False)

    problems = rounds.problems + check_outputs(workload, plan, rounds.reports)
    for p in problems:
        print(f"INCORRECT {p}", file=sys.stderr)
    print("host-context " + json.dumps(host_context(
        host_start, read_host_counters(), rounds.kernel_s)))
    print(json.dumps({"correct": not problems, "attempted": rounds.ops,
                      "failed": rounds.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
