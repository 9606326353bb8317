"""The benchmark's workloads and the output oracles that judge them.

Each workload is one `schmidt` CLI command. The oracles share no code with
the package: Franel numbers come from `math.comb`, the r=16 values from a
stored reference file, and the two sweep commands are judged by their own
check-count arithmetic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import comb
from pathlib import Path
from typing import Callable

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass(frozen=True)
class Invocation:
    """What one worker process saw: exit code (None if it raised) and output."""

    code: int | None
    stdout: str
    stderr: str
    raised: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    argv: Callable[[int], list[str]]
    # Builds the per-run oracle once, before any timing; the returned
    # callable maps one invocation to a failure reason, or None if correct.
    oracle: Callable[[], Callable[[Invocation], str | None]]


def franel(n_max: int) -> list[int]:
    """Franel numbers sum_j C(n,j)^3, which are c(n, 2)."""
    return [sum(comb(n, j) ** 3 for j in range(n + 1)) for n in range(n_max + 1)]


def franel_recurrence_holds(values: list[int]) -> bool:
    """(n+1)^2 f(n+1) = (7n^2+7n+2) f(n) + 8n^2 f(n-1) at every interior n."""
    return all(
        (n + 1) ** 2 * values[n + 1] == (7 * n * n + 7 * n + 2) * values[n] + 8 * n * n * values[n - 1]
        for n in range(1, len(values) - 1)
    )


def _basic_failure(run: Invocation) -> str | None:
    if run.raised is not None:
        return f"raised {run.raised}"
    if run.code != 0:
        return f"exit code {run.code}"
    if any(line.startswith("FAIL") for line in run.stderr.splitlines()):
        return "FAIL line on stderr"
    return None


def exact_stdout(expected: str) -> Callable[[Invocation], str | None]:
    def check(run: Invocation) -> str | None:
        failure = _basic_failure(run)
        if failure is None and run.stdout != expected:
            failure = "stdout differs from the oracle"
        return failure

    return check


def _franel_oracle(n_max: int) -> Callable[[Invocation], str | None]:
    values = franel(n_max)
    if not franel_recurrence_holds(values):
        raise AssertionError("the benchmark's own Franel numbers fail Franel's recurrence")
    return exact_stdout(" ".join(map(str, values)) + "\n")


def _reference_oracle(name: str) -> Callable[[Invocation], str | None]:
    return exact_stdout((REFERENCE_DIR / f"{name}.txt").read_text())


_GROUP = re.compile(r"^(\S+): (\d+) checks$")
_TOTAL = re.compile(r"^all (\d+) checks passed$")


def checks_run(stdout: str) -> int:
    """N from the `all N checks passed` line, or 0 when there is none."""
    for line in stdout.splitlines():
        match = _TOTAL.match(line)
        if match:
            return int(match.group(1))
    return 0


def sweep_failure(run: Invocation) -> str | None:
    """Exit 0, every group line counted, and `all N checks passed` with N their sum.

    N itself is not pinned: a sweep that legitimately drops duplicate
    checks stays correct as long as its own arithmetic adds up.
    """
    failure = _basic_failure(run)
    if failure is not None:
        return failure
    groups, total = [], None
    for line in run.stdout.splitlines():
        if match := _GROUP.match(line):
            groups.append(int(match.group(2)))
        elif match := _TOTAL.match(line):
            total = int(match.group(1))
        else:
            return f"unexpected stdout line {line!r}"
    if total is None or not groups:
        return "no group counts or no `all N checks passed` line"
    if total != sum(groups):
        return f"total {total} != sum of group counts {sum(groups)}"
    return None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "r2-routes",
            lambda seed: ["compute", "--r", "2", "--n-max", "300"],
            lambda: _franel_oracle(300),
        ),
        Workload(
            "closed-r16",
            lambda seed: ["compute", "--r", "16", "--n-max", "16", "--routes", "closed"],
            lambda: _reference_oracle("closed-r16"),
        ),
        Workload(
            "verify-sweep",
            lambda seed: ["verify", "--r-max", "10", "--n-max", "22"],
            lambda: sweep_failure,
        ),
        Workload(
            "identities",
            lambda seed: ["identities", "--trials", "300", "--m-max", "8", "--seed", str(seed)],
            lambda: sweep_failure,
        ),
    )
}
