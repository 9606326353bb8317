"""Tests of the benchmark itself: oracles, failure accounting, trace determinism.

Run from the repository root:

    python3 -m pytest perfbench/tests -q

The traced tests run real workers on the `identities` workload and take
about half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from workloads import (  # noqa: E402
    REFERENCE_DIR,
    WORKLOADS,
    Invocation,
    Workload,
    exact_stdout,
    franel,
    franel_recurrence_holds,
    sweep_failure,
)


def _perturbed(line: str, index: int) -> str:
    values = line.split()
    values[index] = str(int(values[index]) + 1)
    return " ".join(values) + "\n"


def test_benchmark_json_matches_the_driver():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_franel_oracle_is_sound():
    values = franel(40)
    assert values[:5] == [1, 2, 10, 56, 346]
    assert franel_recurrence_holds(values)
    values[17] += 1
    assert not franel_recurrence_holds(values)


def test_closed_r16_reference_solves_the_defining_system():
    # Independent of the package: solve sum_k C(n,k)C(n+k,k) c_k = a_n with math.comb.
    stored = [int(v) for v in (REFERENCE_DIR / "closed-r16.txt").read_text().split()]
    solved: list[int] = []
    for n in range(17):
        a_n = sum((comb(n, k) * comb(n + k, k)) ** 16 for k in range(n + 1))
        partial = sum(comb(n, k) * comb(n + k, k) * solved[k] for k in range(n))
        quotient, remainder = divmod(a_n - partial, comb(2 * n, n))
        assert remainder == 0
        solved.append(quotient)
    assert stored == solved


@pytest.mark.parametrize("name", ["r2-routes", "closed-r16"])
def test_one_value_off_by_one_is_a_failure(name):
    check = WORKLOADS[name].oracle()
    expected = (
        " ".join(map(str, franel(300))) + "\n"
        if name == "r2-routes"
        else (REFERENCE_DIR / "closed-r16.txt").read_text()
    )
    assert check(Invocation(0, expected, "")) is None
    assert check(Invocation(0, _perturbed(expected, 7), "")) is not None
    assert check(Invocation(1, expected, "")) is not None
    assert check(Invocation(None, "", "", raised="ZeroDivisionError")) is not None


def test_sweep_oracle():
    good = "a: 2 checks\nb: 3 checks\nall 5 checks passed\n"
    assert sweep_failure(Invocation(0, good, "elapsed 1 ms\n")) is None
    assert sweep_failure(Invocation(0, good.replace("all 5", "all 6"), "")) is not None
    assert sweep_failure(Invocation(0, good, "FAIL x witness=y\n")) is not None
    assert sweep_failure(Invocation(1, good, "")) is not None
    assert sweep_failure(Invocation(0, "a: 2 checks\n1 of 2 checks FAILED\n", "")) is not None


def test_perturbed_output_counts_in_failed(monkeypatch):
    wrong = " ".join(map(str, franel(10))) + "\n"
    workload = Workload(
        "tiny",
        lambda seed: ["compute", "--r", "2", "--n-max", "10"],
        lambda: exact_stdout(_perturbed(wrong, 4)),
    )
    monkeypatch.setitem(WORKLOADS, "tiny", workload)
    reps, metrics, problems = run.run_workload("tiny", seed=0, seconds=0, trace=False)
    assert len(reps) == run.MIN_UNTRACED
    assert all(rep.failure == "stdout differs from the oracle" for rep in reps)
    assert len(problems) == len(reps)
    assert metrics["wall_s"] > 0


@pytest.fixture(scope="module")
def traced_identities():
    return {seed: run.run_workload("identities", seed=seed, seconds=0, trace=True) for seed in (0, 1)}


def test_traced_runs_repeat_their_call_counts(traced_identities):
    reps, metrics, problems = traced_identities[0]
    assert problems == []
    traced = [rep for rep in reps if "layers" in rep.result]
    assert len(traced) == 2
    assert run.layer_counts(traced[0]) == run.layer_counts(traced[1])
    assert metrics["hypergeometric.sample_accept_ratio"] == 2100 / 2665


def test_seed_reaches_identities(traced_identities):
    assert WORKLOADS["identities"].argv(7)[-2:] == ["--seed", "7"]
    (_, first, _), (_, second, _) = traced_identities[0], traced_identities[1]
    assert first["cli.checks_run"] == second["cli.checks_run"] == 2105
    assert first["combinatorics.pochhammer.calls"] != second["combinatorics.pochhammer.calls"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / BENCH.name / "run.py"), "--workload", "r2-routes",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
