"""Benchmark for the gainlab CLI.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N] [--seconds S] [--trace 0|1]   # all four

Every measured call is a real gainlab CLI child process (the CLI string
below, which runs `python -m gainlab` and reports its own peak RSS) with
PYTHONPATH=src, run one at a time from this process; its wall time comes
from the clock around spawn and wait, its CPU time from os.wait4.  Each
child has a timeout, and a timeout, a nonzero exit or an output that fails
the independent check in checker.py counts as a failed call.  A pass is
the list of calls workloads.pass_calls gives (one CLI run for a box
workload, 100 for oneshot).  Passes repeat back to back while less than
--seconds has been used, so a run overshoots by at most one pass.  All
passes of a run must print the same bytes, and at seed 0 a box workload
must print the bytes pinned in manifest.json.

--trace 0 prints the end-to-end metrics.  On a host whose cores are
shared with other tenants the speed of the same code holds for a second
or more, then jumps between levels up to 1.6x apart, and drifts over
minutes; a virtual machine often exposes no hardware counters.  So every
time on this side is scaled to a host of fixed speed: the run alternates
the measured calls with a short calibration program (CALIBRATION, which
imports nothing of gainlab, so no change to gainlab moves it) and
multiplies each call's wall time by CALIBRATION_REF_S over the mean time
of the calibrations just before and after it.  A box workload calibrates
after every call, oneshot after every CALLS_PER_CALIBRATION calls.  A
call's latency is the median of its scaled times over the run's passes;
wall_s is the sum of the latencies of a pass's calls, latency_p50_ms and
latency_p90_ms are percentiles over those calls (equal to wall_s on a box
workload, whose pass is one call), peak_rss_mb is the largest RSS of any
call, and setup_s is the median scaled start-up time of 16 fresh
interpreters that only import gainlab.cli.  The unscaled wall time and
the host's speed (unscaled over scaled wall time) are printed beside
them, outside the result line, and the raw time of every call,
calibration and start-up probe is written to
.perfbench/samples-WORKLOAD-seedN.json.

--trace 1 instead pairs each untraced pass with a traced one, in which
every call runs in a fresh process under tracer.py, and prints the
per-layer metrics: counts from the pairs (they repeat exactly), times as
the median over the pairs.  The spans of the last traced pass are written
to .perfbench/trace-WORKLOAD-seedN.json.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import checker
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

WORKLOADS = ("survey", "hunt_high_n", "search_fixed_k", "oneshot")
SETUP_ROUNDS = 4
SETUP_PROBES = 4
CALLS_PER_CALIBRATION = 20
BOX_TIMEOUT_S = 150
CALL_TIMEOUT_S = 30
# Past this many seconds a run starts no new pass and cuts child timeouts
# short, so that it always ends within 180 seconds.
RUN_DEADLINE_S = 165

END_TO_END = {
    "wall_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "search.run_s": "s",
    "search.self_s": "s",
    "search.cells": "count",
    "search.solutions": "count",
    "search.yield": "ratio",
    "bigmath.nth_root_floor.calls": "count",
    "bigmath.ln_cached.calls": "count",
    "bigmath.ln_cached.misses": "count",
    "bigmath.ln_cached.hit_ratio": "ratio",
    "bigmath.ln_cached.s": "s",
    "bigmath.ln_cache.entries": "count",
    "factor.radical_of_product.calls": "count",
    "factor.radical_of_product.s": "s",
    "factor.factorize.calls": "count",
    "factor.factorize.misses": "count",
    "factor.factorize.hit_ratio": "ratio",
    "factor.factorize.s": "s",
    "factor.is_prime.calls": "count",
    "factor.budget_exceeded": "count",
    "factor.cache.entries": "count",
    "gains.validate_solution.calls": "count",
    "gains.validate_solution.s": "s",
    "gains.compute_gains.calls": "count",
    "gains.compute_gains.s": "s",
    "gains.build_s": "s",
    "gains.partial_reports": "count",
    "cli.solution_report.calls": "count",
    "cli.solution_report.s": "s",
    "cli.emit_s": "s",
    "cli.stdout_bytes": "bytes",
    "corpus.verify_entry.calls": "count",
    "proc.import_s": "s",
    "proc.cpu_s": "s",
    "proc.tracing_overhead": "ratio",
}

# `python -m gainlab ARGV` that also prints its own peak RSS (VmHWM) to
# stderr at exit.  The ru_maxrss that os.wait4 returns cannot be used:
# Linux carries the parent's peak RSS over through fork and exec, and this
# process, with sympy loaded, is larger than most calls it measures.
CLI = """
import atexit, runpy, sys
def report_peak_rss():
    with open("/proc/self/status") as status:
        kb = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    print("perfbench-vmhwm-kb", kb, file=sys.stderr)
atexit.register(report_peak_rss)
sys.argv[0] = "gainlab"
runpy.run_module("gainlab", run_name="__main__", alter_sys=True)
"""
HWM_TAG = b"perfbench-vmhwm-kb "

# The calibration program: a fixed mix of the kinds of work gainlab does
# (64-digit Decimal logarithms, big-integer modular squaring as in Brent
# rho, building, sorting and JSON-encoding many small dicts).  On the
# 2-CPU Xeon VM the benchmark was written on it took 0.25 to 0.45 s, median
# about CALIBRATION_REF_S, so scaled times read close to unscaled ones
# there.  That host's speed holds for a second or more and then jumps
# between levels as far as 1.6x apart, so one short probe next to a call
# tracks it better than a long one further away.
CALIBRATION = """
import json, math
from decimal import Decimal, getcontext
getcontext().prec = 70
s = Decimal(0)
for i in range(2, 500):
    s += Decimal(i).ln()
m = (1 << 127) - 1
x = 2
for i in range(75000):
    x = (x * x + 1) % m
rows = []
for i in range(20000):
    a = i * i + 7
    rows.append({"n": str(i % 5), "x": str(a), "k": str(a ** 3 - 1),
                 "g": math.gcd(a, 30030), "q": str(Decimal(a) / 7)})
rows.sort(key=lambda r: r["q"])
assert len(json.dumps(rows, indent=2)) > 500000
"""
CALIBRATION_REF_S = 0.35

# Printed with the per-layer table but left out of the result line: each
# is exactly 0 on some workload (hunt never calls nth_root_floor, no box
# workload reaches the corpus, search_fixed_k never needs is_prime).
PER_LAYER_PRINTED_ONLY = {
    "bigmath.nth_root_floor.s": "s",
    "factor.is_prime.s": "s",
    "corpus.verify_entry.s": "s",
}


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    exit_code: int | None  # None when the timeout killed it
    stdout: bytes
    stderr: bytes

    @property
    def peak_rss_mb(self) -> float:
        """The peak RSS a CLI call reported for itself, 0 if it did not."""
        for line in reversed(self.stderr.splitlines()):
            if line.startswith(HWM_TAG):
                return int(line[len(HWM_TAG):]) / 1024
        return 0.0


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "GAINLAB_FACTOR_BUDGET"}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(cmd: list[str], timeout: float) -> Child:
    """Run one child to completion, or kill it after timeout seconds."""
    out_path, err_path = WORK / "stdout", WORK / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        expired = threading.Event()

        def expire():
            expired.set()
            proc.kill()

        timer = threading.Timer(max(timeout, 0.1), expire)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            wall = perf_counter() - start
            timer.cancel()
            timer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        exit_code=None if expired.is_set() else proc.returncode,
        stdout=out_path.read_bytes(),
        stderr=err_path.read_bytes(),
    )


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile of a nonempty sample."""
    s = sorted(values)
    pos = (len(s) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def check(kind: str, expected, stdout: bytes, seed: int) -> tuple[list[str], int, int]:
    """Violations in one call's output, plus the cells and solutions it reports."""
    if kind == "box":
        return checker.check_box(stdout, expected, seed)
    if kind == "analyze":
        return checker.check_analyze(stdout, expected), 0, 0
    if kind == "bounds":
        return checker.check_bounds(stdout, expected), 0, 0
    return checker.check_corpus(stdout), 0, 0


class Run:
    """One benchmark run of one workload at one seed."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.calls = workloads.pass_calls(workload, seed)
        self.started = perf_counter()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: list[str] | None = None
        self.calibration: float | None = None  # the last one a scaled pass ran
        # (call index, start, wall), (start, wall) and (start, wall), in seconds
        self.samples = {"calls": [], "cal": [], "setup": []}
        pinned = json.loads((HERE / "manifest.json").read_text())["seed0_stdout_sha256"]
        self.pinned = pinned.get(workload) if seed == 0 else None

    def left(self) -> float:
        return RUN_DEADLINE_S - (perf_counter() - self.started)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(message)

    def timeout(self, kind: str) -> float:
        return min(BOX_TIMEOUT_S if kind == "box" else CALL_TIMEOUT_S, self.left())

    def run_pass(self, scaled: bool = False) -> tuple[list[Child], int, int, list[float]]:
        """One untraced pass; every call is checked and counted.

        With scaled, calibrations run before the first call (unless the
        previous scaled pass ended with one) and after every
        CALLS_PER_CALIBRATION calls, and the last item holds each call's
        scaled wall time; otherwise it is empty.
        """
        children, digests = [], []
        cells = solutions = 0
        calibrations = [self.calibration or self.calibrate()] if scaled else []
        for i, (kind, expected, argv) in enumerate(self.calls):
            t0 = perf_counter() - self.started
            child = spawn([sys.executable, "-c", CLI, *argv], self.timeout(kind))
            self.samples["calls"].append((i, t0, child.wall_s))
            children.append(child)
            digests.append(hashlib.sha256(child.stdout).hexdigest())
            c, s = self.check_call(i, kind, expected, argv, child, digests[-1])
            cells += c
            solutions += s
            if scaled and ((i + 1) % CALLS_PER_CALIBRATION == 0 or i + 1 == len(self.calls)):
                calibrations.append(self.calibrate())
        if self.digests is None:
            self.digests = digests
        if scaled:
            self.calibration = calibrations[-1]
        scaled_s = []
        for i, child in enumerate(children if scaled else []):
            j = i // CALLS_PER_CALIBRATION
            speed = (calibrations[j] + calibrations[j + 1]) / 2 / CALIBRATION_REF_S
            scaled_s.append(child.wall_s / speed)
        return children, cells, solutions, scaled_s

    def check_call(self, i: int, kind: str, expected, argv: list[str], child: Child,
                   digest: str) -> tuple[int, int]:
        """Count call i and any failure; return the cells and solutions it reports."""
        self.attempted += 1
        if child.exit_code != 0:
            self.fail(f"{argv[0]}: exit code {child.exit_code}")
            return 0, 0
        errors, cells, solutions = check(kind, expected, child.stdout, self.seed)
        if errors:
            self.fail(f"{argv[0]}: {errors[0]}")
        elif self.pinned is not None and digest != self.pinned:
            self.fail(f"{argv[0]}: stdout differs from the seed-0 pin")
        elif self.digests is not None and digest != self.digests[i]:
            self.fail(f"{argv[0]}: stdout differs from an earlier pass")
        return cells, solutions

    def traced_pass(self) -> tuple[list[Child], list[dict]]:
        """The same calls, each in a fresh process under tracer.py."""
        children, reports = [], []
        out = WORK / "trace-call.json"
        for i, (kind, _, argv) in enumerate(self.calls):
            out.unlink(missing_ok=True)
            child = spawn([sys.executable, str(HERE / "tracer.py"), str(out), *argv],
                          self.timeout(kind))
            children.append(child)
            self.attempted += 1
            if child.exit_code != 0 or not out.exists():
                self.fail(f"traced {argv[0]}: exit code {child.exit_code}")
                continue
            report = json.loads(out.read_text())
            report["argv"] = argv
            reports.append(report)
            if report["stdout_sha256"] != self.digests[i]:
                self.fail(f"traced {argv[0]}: stdout differs from the untraced call")
        return children, reports

    def calibrate(self) -> float:
        """Wall time of one run of the calibration program."""
        t0 = perf_counter() - self.started
        child = spawn([sys.executable, "-c", CALIBRATION], CALL_TIMEOUT_S)
        if child.exit_code != 0:
            raise RuntimeError("the calibration program failed")
        self.samples["cal"].append((t0, child.wall_s))
        return child.wall_s

    def repeat(self, one_pass) -> list:
        """Passes back to back while less than --seconds is used (at least one)."""
        results, walls = [], []
        start = perf_counter()
        while True:
            t = perf_counter()
            results.append(one_pass())
            walls.append(perf_counter() - t)
            if perf_counter() - start >= self.seconds or self.left() < max(walls):
                return results


def setup_s(run: Run) -> float:
    """Median scaled start-up time of a fresh interpreter that imports gainlab.cli.

    SETUP_ROUNDS rounds of SETUP_PROBES probes run between calibrations;
    the last calibration also opens the run's first pass.
    """
    cmd = [sys.executable, "-c", "import gainlab.cli"]
    spawn(cmd, CALL_TIMEOUT_S)  # fills the bytecode cache; not timed
    before = run.calibrate()
    times = []
    for _ in range(SETUP_ROUNDS):
        probes = []
        for _ in range(SETUP_PROBES):
            t0 = perf_counter() - run.started
            child = spawn(cmd, CALL_TIMEOUT_S)
            if child.exit_code != 0:
                raise RuntimeError("import gainlab.cli failed")
            probes.append(child.wall_s)
            run.samples["setup"].append((t0, child.wall_s))
        after = run.calibrate()
        speed = (before + after) / 2 / CALIBRATION_REF_S
        times += [t / speed for t in probes]
        before = after
    run.calibration = before
    return statistics.median(times)


def end_to_end(run: Run) -> tuple[dict, dict]:
    setup = setup_s(run)
    passes = run.repeat(lambda: run.run_pass(scaled=True))
    n = len(run.calls)
    latencies = [statistics.median(p[3][i] for p in passes) for i in range(n)]
    wall = sum(latencies)
    metrics = {
        "wall_s": wall,
        "latency_p50_ms": 1000 * percentile(latencies, 50),
        "latency_p90_ms": 1000 * percentile(latencies, 90),
        "peak_rss_mb": max(c.peak_rss_mb for p in passes for c in p[0]),
        "setup_s": setup,
    }
    WORK.joinpath(f"samples-{run.workload}-seed{run.seed}.json").write_text(json.dumps(run.samples))
    raw = sum(statistics.median(p[0][i].wall_s for p in passes) for i in range(n))
    extra = {"passes": (len(passes), "count"), "unscaled_wall_s": (raw, "s"),
             "host_speed": (raw / wall, "ratio")}
    if run.workload != "oneshot":
        extra["cells_per_s"] = (passes[0][1] / wall, "cells/s")
    return metrics, extra


def layer_metrics(untraced: tuple, traced: tuple) -> dict:
    """Per-layer metrics of one pair of an untraced and a traced pass."""
    (plain, cells, solutions, _), (children, reports) = untraced, traced

    def stat(name: str, field: str) -> float:
        return sum(r["stats"].get(name, {}).get(field, 0) for r in reports)

    def grown(cache: str) -> int:
        return sum(r[cache][1] - r[cache][0] for r in reports)

    ln_calls = stat("bigmath.ln_cached", "calls")
    fz_calls = stat("factor.factorize", "calls")
    runners = ("search.enumerate_fixed_k", "search.hunt_derived_k")
    return {
        "search.run_s": sum(stat(r, "s") for r in runners),
        "search.self_s": sum(stat(r, "self_s") for r in runners),
        "search.cells": cells,
        "search.solutions": solutions,
        "search.yield": solutions / cells if cells else 0.0,
        "bigmath.nth_root_floor.calls": stat("bigmath.nth_root_floor", "calls"),
        "bigmath.nth_root_floor.s": stat("bigmath.nth_root_floor", "s"),
        "bigmath.ln_cached.calls": ln_calls,
        "bigmath.ln_cached.misses": grown("ln_cache"),
        "bigmath.ln_cached.hit_ratio": 1 - grown("ln_cache") / ln_calls if ln_calls else 0.0,
        "bigmath.ln_cached.s": stat("bigmath.ln_cached", "s"),
        "bigmath.ln_cache.entries": sum(r["ln_cache"][1] for r in reports),
        "factor.radical_of_product.calls": stat("factor.radical_of_product", "calls"),
        "factor.radical_of_product.s": stat("factor.radical_of_product", "s"),
        "factor.factorize.calls": fz_calls,
        "factor.factorize.misses": grown("factor_cache"),
        "factor.factorize.hit_ratio": 1 - grown("factor_cache") / fz_calls if fz_calls else 0.0,
        "factor.factorize.s": stat("factor.factorize", "s"),
        "factor.is_prime.calls": stat("factor.is_prime", "calls"),
        "factor.is_prime.s": stat("factor.is_prime", "s"),
        "factor.budget_exceeded": stat("factor.factorize", "raised"),
        "factor.cache.entries": sum(r["factor_cache"][1] for r in reports),
        "gains.validate_solution.calls": stat("gains.validate_solution", "calls"),
        "gains.validate_solution.s": stat("gains.validate_solution", "s"),
        "gains.compute_gains.calls": stat("gains.compute_gains", "calls"),
        "gains.compute_gains.s": stat("gains.compute_gains", "s"),
        "gains.build_s": stat("gains.compute_gains", "self_s"),
        "gains.partial_reports": stat("gains.compute_gains_partial", "calls"),
        "cli.solution_report.calls": stat("cli.solution_report", "calls"),
        "cli.solution_report.s": stat("cli.solution_report", "s"),
        "cli.emit_s": stat("cli.main", "self_s"),
        "cli.stdout_bytes": sum(r["stdout_bytes"] for r in reports),
        "corpus.verify_entry.calls": stat("corpus.verify_entry", "calls"),
        "corpus.verify_entry.s": stat("corpus.verify_entry", "s"),
        "proc.import_s": statistics.median([r["import_s"] for r in reports]) if reports else 0.0,
        "proc.cpu_s": sum(c.cpu_s for c in plain),
        "proc.tracing_overhead": sum(c.wall_s for c in children) / sum(c.wall_s for c in plain),
    }


def per_layer(run: Run) -> tuple[dict, dict]:
    pairs = run.repeat(lambda: (run.run_pass(), run.traced_pass()))
    each = [layer_metrics(u, t) for u, t in pairs]
    merged = {name: statistics.median([m[name] for m in each]) for name in each[0]}
    WORK.joinpath(f"trace-{run.workload}-seed{run.seed}.json").write_text(
        json.dumps([{k: r[k] for k in ("argv", "stats", "spans")} for r in pairs[-1][1][1]])
    )
    printed = {name: (merged[name], unit) for name, unit in PER_LAYER_PRINTED_ONLY.items()}
    return {name: merged[name] for name in PER_LAYER}, printed


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    run = Run(workload, seed, seconds)
    if trace:
        metrics, extra = per_layer(run)
        units = PER_LAYER
    else:
        metrics, extra = end_to_end(run)
        units = END_TO_END
    extra["fail_rate"] = (run.failed / max(run.attempted, 1), "ratio")
    for name, value in metrics.items():
        print(f"{workload:<15} {name:<32} {value:>16.6g} {units[name]}")
    for name, (value, unit) in extra.items():
        print(f"{workload:<15} {name:<32} {value:>16.6g} {unit}")
    for message in run.errors:
        print(f"{workload}: FAILED {message}", file=sys.stderr)
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: all four in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=22)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gainlab" / "cli.py").is_file():
        print(f"error: no gainlab sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    if args.workload:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    else:
        result = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in WORKLOADS}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
