"""Benchmark of the schmidt CLI, timed from outside the package.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Every repetition runs one CLI command in a fresh worker process, one worker
at a time (a closed loop with a single client), because every real CLI call
pays for the interpreter, the import and a cold factorial table. Repetitions
run until S seconds have passed: at least three, or with tracing at least
two of each kind. Every output is checked by an oracle that shares no code
with the package.

With `--trace 0` the last stdout line is a JSON object with the end-to-end
metrics. With `--trace 1` untraced and traced repetitions alternate, and
the metrics are the per-layer counts and self times of the traced ones
plus the tracing overhead. Lines before the JSON give every metric by name
with its unit and sample count, and `failed_frac`, the share of
invocations that exited nonzero, raised or failed their output check.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, Invocation, checks_run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
TRACE_DIR = ROOT / ".perfbench_out"
WORKER_TIMEOUT_S = 170
MIN_UNTRACED = 3
MIN_TRACED = 2
WARM_UP_ARGV = ["compute", "--r", "2", "--n-max", "2"]

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# The timings report the fastest repetition: the cores of the shared machine
# this was tuned on slow down by up to ~40% for seconds to minutes at a time,
# and across runs the minimum repeats several times better than the median
# (README.md has the figures). Set-up and memory report the median.
STATISTIC = {"wall_s": min, "cpu_s": min, "setup_s": statistics.median, "peak_rss_mb": statistics.median}

PER_LAYER = {
    "combinatorics.binomial.calls": "count",
    "combinatorics.binomial.self_s": "s",
    "combinatorics.factorial.calls": "count",
    "combinatorics.central_binomial.calls": "count",
    "combinatorics.exact_divide.calls": "count",
    "combinatorics.pochhammer.calls": "count",
    "combinatorics.pochhammer.self_s": "s",
    "combinatorics.table_cap": "count",
    "legendre.triangular_solve.self_s": "s",
    "legendre.legendre_inverse.self_s": "s",
    "legendre.legendre_coefficient.calls": "count",
    "legendre.legendre_forward.calls": "count",
    "core.lhs_sum.calls": "count",
    "core.lhs_sum.self_s": "s",
    "core.c_by_definition.calls": "count",
    "core.c_general.self_s": "s",
    "core.c2_closed.self_s": "s",
    "core.t_general.self_s": "s",
    "core.t_sum.calls": "count",
    "core.t_sum.self_s": "s",
    "core.integrality_ratio.calls": "count",
    "core.c_from_t.calls": "count",
    "hypergeometric.eval_terminating.calls": "count",
    "hypergeometric.eval_terminating.self_s": "s",
    "hypergeometric.andrews_rhs.self_s": "s",
    "hypergeometric.dougall_rhs.self_s": "s",
    "hypergeometric.whipple_rhs.self_s": "s",
    "hypergeometric.sample_accept_ratio": "ratio",
    "cli.main.self_s": "s",
    "cli.checks_run": "count",
    "cli.stdout_bytes": "bytes",
    "cli.max_bits": "bits",
    "trace.overhead_s": "s",
}


class Rep:
    """One worker invocation: its measurements and the oracle's verdict."""

    def __init__(self, spawned: float, result: dict | None, failure: str | None) -> None:
        self.result = result
        self.failure = failure
        if result is not None:
            self.setup_s = result["ready"] - spawned
            self.wall_s = result["end"] - result["start"]

    @property
    def stdout(self) -> str:
        return self.result["stdout"] if self.result else ""


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def invoke(argv: list[str], trace_path: Path | None = None) -> tuple[float, dict | None, str | None]:
    """Run one worker to completion; returns (spawn time, result, failure)."""
    spawned = _clock()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), str(trace_path) if trace_path else "-", "--", *argv],
            cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return spawned, None, f"worker exceeded {WORKER_TIMEOUT_S} s"
    if proc.returncode != 0:
        return spawned, None, f"worker exited {proc.returncode}: {proc.stderr.strip()[-500:]}"
    try:
        return spawned, json.loads(proc.stdout), None
    except json.JSONDecodeError:
        return spawned, None, f"worker printed no result: {proc.stdout[-200:]!r}"


def run_rep(argv, oracle, reference_stdout: str | None, trace_path: Path | None = None) -> Rep:
    spawned, result, failure = invoke(argv, trace_path)
    if result is not None:
        failure = oracle(Invocation(result["code"], result["stdout"], result["stderr"], result["raised"]))
        if failure is None and reference_stdout is not None and result["stdout"] != reference_stdout:
            failure = "stdout differs between repetitions of the same input"
    return Rep(spawned, result, failure)


def samples(reps: list[Rep]) -> dict[str, list[float]]:
    """Every end-to-end measurement of the repetitions that produced one."""
    measured = [rep for rep in reps if rep.result is not None]
    return {
        "wall_s": [rep.wall_s for rep in measured],
        "cpu_s": [rep.result["cpu_s"] for rep in measured],
        "setup_s": [rep.setup_s for rep in measured],
        "peak_rss_mb": [rep.result["peak_rss_kb"] / 1024 for rep in measured],
    }


def end_to_end(reps: list[Rep]) -> dict[str, float]:
    return {metric: STATISTIC[metric](values) for metric, values in samples(reps).items()}


def layer_counts(rep: Rep) -> dict[str, int]:
    return {name: entry["calls"] for name, entry in rep.result["layers"].items()}


def per_layer(traced: list[Rep], untraced: list[Rep]) -> dict[str, float]:
    """Counts from the first traced repetition, self times as medians over all of them."""
    first = traced[0]
    counts = layer_counts(first)
    self_s = {
        name: statistics.median([rep.result["layers"].get(name, {}).get("self_s", 0.0) for rep in traced])
        for name in first.result["layers"]
    }
    integers = [int(token) for token in re.findall(r"\d+", first.stdout)]
    special = {
        "combinatorics.table_cap": first.result["table_cap"],
        "hypergeometric.sample_accept_ratio": (
            counts.get("hypergeometric.sample_well_poised", 0) / counts["hypergeometric.spec_pole_free"]
            if counts.get("hypergeometric.spec_pole_free") else 0.0
        ),
        "cli.checks_run": checks_run(first.stdout),
        "cli.stdout_bytes": len(first.stdout.encode()),
        "cli.max_bits": max((value.bit_length() for value in integers), default=0),
        "trace.overhead_s": (
            statistics.median([rep.wall_s for rep in traced])
            - statistics.median([rep.wall_s for rep in untraced])
        ),
    }
    out = {}
    for metric in PER_LAYER:
        if metric in special:
            out[metric] = special[metric]
        elif metric.endswith(".calls"):
            out[metric] = counts.get(metric.removesuffix(".calls"), 0)
        else:
            out[metric] = self_s.get(metric.removesuffix(".self_s"), 0.0)
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    """Measure one workload; returns (reps, metrics, problems that make the run incorrect)."""
    workload = WORKLOADS[name]
    argv = workload.argv(seed)
    oracle = workload.oracle()
    trace_path = TRACE_DIR / f"trace-{name}-seed{seed}.json"
    untraced: list[Rep] = []
    traced: list[Rep] = []
    reference = None
    deadline = _clock() + seconds
    while True:
        # Traced repetitions only ever follow untraced ones, so a traced run
        # always has an untraced baseline for the overhead.
        enough = len(traced) >= MIN_TRACED if trace else len(untraced) >= MIN_UNTRACED
        if _clock() >= deadline and enough:
            break
        take_traced = trace and len(traced) < len(untraced)
        rep = run_rep(argv, oracle, reference, trace_path if take_traced else None)
        (traced if take_traced else untraced).append(rep)
        if reference is None and rep.failure is None:
            reference = rep.stdout

    reps = untraced + traced
    problems = [f"{name}: {rep.failure}" for rep in reps if rep.failure]
    if not any(rep.result for rep in untraced) or (trace and not any(rep.result for rep in traced)):
        return reps, None, problems
    if not trace:
        return reps, end_to_end(untraced), problems
    measured = [rep for rep in traced if rep.result is not None]
    if any(layer_counts(rep) != layer_counts(measured[0]) for rep in measured):
        problems.append(f"{name}: per-layer call counts differ between traced repetitions")
    baseline = [rep for rep in untraced if rep.result is not None]
    return reps, per_layer(measured, baseline), problems


def _describe(name: str, metrics: dict[str, float], reps: list[Rep], trace: bool) -> None:
    if trace:
        traced = sum(1 for rep in reps if rep.result is not None and "layers" in rep.result)
        for metric, value in metrics.items():
            unit = PER_LAYER[metric]
            how = f"median of {traced}" if unit == "s" else f"same in all {traced}"
            print(f"{name}  {metric} = {value:.6g} {unit}  ({how})")
    else:
        measured = samples(reps)
        for metric, value in metrics.items():
            values = measured[metric]
            q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            print(
                f"{name}  {metric} = {value:.6g} {END_TO_END[metric]}  ({STATISTIC[metric].__name__} of "
                f"{len(values)}; median {median:.6g}, quartiles {q1:.6g} to {q3:.6g})"
            )
    failed = sum(1 for rep in reps if rep.failure)
    print(f"{name}  failed_frac = {failed / len(reps):.6g}  ({failed} of {len(reps)} invocations)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "schmidt" / "cli.py").is_file():
        print(f"no schmidt sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    # Compiles the bytecode and warms the file cache, which users do not pay
    # on every call; also proves the worker can import the package at all.
    _, result, failure = invoke(WARM_UP_ARGV)
    if result is None or result["code"] != 0:
        print(f"warm-up invocation failed: {failure or result}", file=sys.stderr)
        return 1

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    units = PER_LAYER if args.trace else END_TO_END
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    problems: list[str] = []
    for name in names:
        reps, values, found = run_workload(name, args.seed, args.seconds, bool(args.trace))
        attempted += len(reps)
        failed += sum(1 for rep in reps if rep.failure)
        problems += found
        if values is None:
            print("\n".join(problems), file=sys.stderr)
            print(f"{name}: no repetition produced measurements", file=sys.stderr)
            return 1
        _describe(name, values, reps, bool(args.trace))
        prefix = f"{name}." if len(names) > 1 else ""
        for metric, value in values.items():
            metrics[prefix + metric] = {"value": value, "unit": units[metric]}
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
