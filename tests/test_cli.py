"""End-to-end checks of the command line interface.

Happy paths run the installed module in a subprocess so the argv parsing,
exit codes, and stream separation are exercised exactly as a shell user
would see them. Failure injection for exit code 1 is done in-process with
monkeypatching, since the real computations never disagree.
"""

import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from schmidt import cli, combinatorics, legendre
from schmidt.combinatorics import DivisibilityError
from schmidt.legendre import _forward_row


WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "schmidt", *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_compute_plain_franel_prefix():
    result = run_cli("compute", "--r", "2", "--n-max", "4")
    assert result.returncode == 0
    assert result.stdout == "1 2 10 56 346\n"


def test_compute_plain_r1_is_all_ones():
    result = run_cli("compute", "--r", "1", "--n-max", "3")
    assert result.returncode == 0
    assert result.stdout == "1 1 1 1\n"


def test_compute_json_document():
    result = run_cli("compute", "--r", "4", "--n-max", "2", "--format", "json")
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["command"] == "compute"
    assert doc["params"]["r"] == 4
    assert doc["results"]["routes_agree"] is True
    routes = {entry["route"]: entry["values"] for entry in doc["results"]["routes"]}
    assert set(routes) == {"definition", "inverse", "closed"}
    for values in routes.values():
        assert values == [{"n": n, "c": c} for n, c in enumerate(["1", "8", "424"])]
    assert doc["failures"] == []
    # stdout is the canonical indent-2 rendering, so it round-trips bytewise
    assert json.dumps(doc, indent=2) == result.stdout.rstrip("\n")


def test_compute_csv():
    result = run_cli("compute", "--r", "3", "--n-max", "2", "--format", "csv")
    assert result.returncode == 0
    lines = result.stdout.strip().splitlines()
    assert lines == ["n,c", "0,1", "1,4", "2,68"]


def test_compute_subset_of_routes():
    result = run_cli("compute", "--r", "2", "--n-max", "3", "--routes", "definition,closed")
    assert result.returncode == 0
    assert result.stdout == "1 2 10 56\n"


def test_compute_requires_r():
    result = run_cli("compute", "--n-max", "3")
    assert result.returncode == 2


def test_compute_rejects_r_zero():
    result = run_cli("compute", "--r", "0", "--n-max", "3")
    assert result.returncode == 2


def test_compute_rejects_unknown_route():
    result = run_cli("compute", "--r", "2", "--routes", "definition,magic")
    assert result.returncode == 2


def test_compute_rejects_repeated_route():
    result = run_cli("compute", "--r", "2", "--routes", "closed,inverse,closed")
    assert result.returncode == 2
    assert result.stdout == ""
    assert "route 'closed' given more than once" in result.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--r", "2", "--n-max", "3"],
        ["compute", "--r", "2", "--n-max", "300", "--routes", "closed", "--format", "json"],
    ],
    ids=["small", "large"],
)
def test_closed_stdout_exits_141_without_traceback(argv):
    # the read end is closed before the child starts, so its first write to
    # stdout meets a broken pipe; buffering stays on, as in a shell pipeline,
    # so the small report reaches the pipe only when _emit flushes it
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    try:
        result = subprocess.run(
            [sys.executable, "-m", "schmidt", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
            env=env,
        )
    finally:
        os.close(write_end)
    assert result.returncode == 141
    assert "Traceback" not in result.stderr
    assert "Exception ignored" not in result.stderr
    assert re.fullmatch(r"elapsed \d+ ms", result.stderr.splitlines()[-1])


def test_unknown_command_exits_two():
    result = run_cli("frobnicate")
    assert result.returncode == 2


def test_t_table_plain():
    result = run_cli("t-table", "--r", "3", "--n-max", "2")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines[0] == "n=0: t = 1 ; ratio = 1"
    assert lines[1] == "n=1: t = 0 1 ; ratio = 0 1"
    assert lines[2] == "n=2: t = 0 24 1 ; ratio = 0 8 1"


def test_t_table_csv():
    result = run_cli("t-table", "--r", "2", "--n-max", "2", "--format", "csv")
    assert result.returncode == 0
    lines = result.stdout.strip().splitlines()
    assert lines[0] == "n,j,t,ratio"
    assert "2,1,6,2" in lines


def test_t_table_json_uses_decimal_strings():
    result = run_cli("t-table", "--r", "5", "--n-max", "3", "--format", "json")
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    rows = doc["results"]["rows"]
    assert {"n": 2, "j": 1, "t": "240", "ratio": "80"} in rows


def test_verify_small_sweep():
    result = run_cli("verify", "--r-max", "4", "--n-max", "6")
    assert result.returncode == 0
    assert "FAILED" not in result.stdout
    assert result.stdout.rstrip().endswith("checks passed")
    assert result.stderr.splitlines()[0] == (
        "note: r=1 scaled ratios integral for 28/28 pairs (not asserted)"
    )


def test_verify_r_max_one_still_passes():
    result = run_cli("verify", "--r-max", "1", "--n-max", "5")
    assert result.returncode == 0


def test_identities_seeded_run_passes():
    result = run_cli("identities", "--trials", "20", "--m-max", "4", "--seed", "11")
    assert result.returncode == 0
    assert result.stdout.rstrip().endswith("checks passed")


def test_identities_stdout_reproducible_for_fixed_seed():
    first = run_cli("identities", "--trials", "15", "--seed", "5")
    second = run_cli("identities", "--trials", "15", "--seed", "5")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_identities_zero_trials_checks_fixed_specs():
    result = run_cli("identities", "--trials", "0")
    assert result.returncode == 0
    assert "all 5 checks passed" in result.stdout


def test_identities_json_group_counts():
    result = run_cli("identities", "--trials", "10", "--format", "json")
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    groups = {entry["name"]: entry["checks"] for entry in doc["results"]["groups"]}
    assert groups["dougall"] == 10
    assert groups["whipple"] == 10
    assert groups["andrews-s1"] == 10
    assert groups["reduction-chain"] == 20
    assert doc["failures"] == []


def _stderr_times(err: str) -> list[str]:
    """Names of the `time <name>: N ms` lines, after checking stderr ends with `elapsed`."""
    lines = err.splitlines()
    assert re.fullmatch(r"elapsed \d+ ms", lines[-1])
    timed = [re.fullmatch(r"time (\S+): \d+ ms", line) for line in lines if line.startswith("time ")]
    return [match.group(1) for match in timed]


_SWEEPS = {
    "identities": (
        ["identities", "--trials", "2", "--m-max", "3", "--seed", "0"],
        {"trials": 2, "m_max": 3, "seed": 0},
        [("structural-reductions", 5), ("dougall", 2), ("whipple", 2), ("andrews-s1", 2),
         ("andrews-s2", 2), ("andrews-s3", 2), ("reduction-chain", 4)],
    ),
    "verify": (
        ["verify", "--r-max", "3", "--n-max", "4"],
        {"r_max": 3, "n_max": 4},
        [("route-agreement", 20), ("ratio-integrality", 30), ("n-independence", 10),
         ("t-closed-agreement", 30), ("trivial-exponent", 1)],
    ),
}


@pytest.mark.parametrize("fmt", cli.FORMATS)
@pytest.mark.parametrize("command", sorted(_SWEEPS))
def test_group_times_go_to_stderr_only(command, fmt, capsys):
    argv, params, groups = _SWEEPS[command]
    assert cli.main([*argv, "--format", fmt]) == 0
    captured = capsys.readouterr()
    total = sum(count for _, count in groups)
    if fmt == "json":
        doc = {
            "command": command,
            "params": {**params, "format": fmt},
            "results": {
                "checks_run": total,
                "groups": [{"name": name, "checks": count} for name, count in groups],
            },
            "failures": [],
        }
        expected = json.dumps(doc, indent=2) + "\n"
    elif fmt == "csv":
        expected = "group,checks\n" + "".join(f"{name},{count}\n" for name, count in groups)
    else:
        expected = "".join(f"{name}: {count} checks\n" for name, count in groups)
        expected += f"all {total} checks passed\n"
    assert captured.out == expected
    assert _stderr_times(captured.err) == [name for name, _ in groups]
    assert not any(line.startswith("FAIL") for line in captured.err.splitlines())


_FRANEL = [1, 2, 10, 56]


@pytest.mark.parametrize("fmt", cli.FORMATS)
@pytest.mark.parametrize("closed", [_FRANEL, [0, 0, 0, 0]], ids=["agree", "disagree"])
def test_compute_stdout_bytes(closed, fmt, monkeypatch, capsys):
    monkeypatch.setattr(cli.core, "c_general", lambda n, r: closed[n])
    code = cli.main(["compute", "--r", "2", "--n-max", "3", "--format", fmt])
    captured = capsys.readouterr()
    per_route = {"definition": _FRANEL, "inverse": _FRANEL, "closed": closed}
    agree = closed == _FRANEL
    failures = [] if agree else [
        {"description": "routes definition and closed disagree", "witness": "(r=2, n=0): 1 != 0"}
    ]
    if fmt == "json":
        doc = {
            "command": "compute",
            "params": {"r": 2, "n_max": 3, "routes": list(per_route), "format": fmt},
            "results": {
                "routes": [
                    {"route": route, "values": [{"n": n, "c": str(c)} for n, c in enumerate(values)]}
                    for route, values in per_route.items()
                ],
                "routes_agree": agree,
            },
            "failures": failures,
        }
        expected = json.dumps(doc, indent=2) + "\n"
    elif fmt == "csv" and agree:
        expected = "n,c\n0,1\n1,2\n2,10\n3,56\n"
    elif fmt == "csv":
        expected = "n,route,c\n" + "".join(
            f"{n},{route},{c}\n" for route, values in per_route.items() for n, c in enumerate(values)
        )
    elif agree:
        expected = "1 2 10 56\n"
    else:
        expected = "definition: 1 2 10 56\ninverse: 1 2 10 56\nclosed: 0 0 0 0\n"
    assert captured.out == expected
    assert code == (0 if agree else 1)
    fails = [line for line in captured.err.splitlines() if line.startswith("FAIL")]
    assert fails == [f"FAIL {f['description']} witness={f['witness']}" for f in failures]
    assert _stderr_times(captured.err) == list(per_route)


def test_compute_route_disagreement_exits_one(monkeypatch, capsys):
    monkeypatch.setattr(cli.core, "c_general", lambda n, r: 0)
    code = cli.main(["compute", "--r", "2", "--n-max", "3"])
    captured = capsys.readouterr()
    assert code == 1
    assert "FAIL routes definition and closed disagree witness=(r=2, n=0): 1 != 0" in (
        captured.err.splitlines()
    )


def test_compute_non_integral_inverse_exits_one(monkeypatch, capsys):
    monkeypatch.setattr(cli, "legendre_inverse", lambda a, n: Fraction(1, 2))
    code = cli.main(["compute", "--r", "2", "--n-max", "3"])
    captured = capsys.readouterr()
    assert code == 1
    fails = [line for line in captured.err.splitlines() if line.startswith("FAIL")]
    assert fails == ["FAIL inverse route produced a non-integer witness=2 does not divide 1"]
    assert captured.out == "definition: 1 2 10 56\nclosed: 1 2 10 56\n"


def test_compute_shares_one_a_n_and_closed_still_disagrees(monkeypatch, capsys):
    # adding the k = 3 forward coefficient to every a_n with n >= 3 is the
    # forward transform of c_3 + 1, so definition and inverse, which read the
    # same a_n, both print 57; closed never reads a_n and still prints 56
    true_lhs = cli.core.lhs_sum

    def shifted_lhs(n, r):
        return true_lhs(n, r) + (_forward_row(n)[3] if n >= 3 else 0)

    monkeypatch.setattr(cli.core, "lhs_sum", shifted_lhs)
    code = cli.main(["compute", "--r", "2", "--n-max", "5"])
    captured = capsys.readouterr()
    assert code == 1
    fails = [line for line in captured.err.splitlines() if line.startswith("FAIL")]
    assert fails == ["FAIL routes definition and closed disagree witness=(r=2, n=3): 57 != 56"]
    assert captured.out == (
        "definition: 1 2 10 57 346 2252\n"
        "inverse: 1 2 10 57 346 2252\n"
        "closed: 1 2 10 56 346 2252\n"
    )


@pytest.mark.parametrize(
    "routes, calls",
    [("definition,inverse,closed", 6), ("inverse,closed,definition", 6), ("closed", 0)],
)
def test_compute_builds_a_n_once(routes, calls, monkeypatch, capsys):
    true_lhs = cli.core.lhs_sum
    seen = []

    def counted_lhs(n, r):
        seen.append((n, r))
        return true_lhs(n, r)

    monkeypatch.setattr(cli.core, "lhs_sum", counted_lhs)
    assert cli.main(["compute", "--r", "2", "--n-max", "5", "--routes", routes]) == 0
    assert capsys.readouterr().out == "1 2 10 56 346 2252\n"
    assert len(seen) == calls


def test_shared_inverse_row_fault_is_caught_by_every_reader(monkeypatch, capsys):
    # legendre_inverse and core.t_row read the same signed D row; the closed
    # forms and the defining solve never do, so one wrong entry must fail the
    # inverse route of compute and the inner-sum and closed-form checks of verify
    true_row = legendre._inverse_row

    def faulty_row(n):
        row = true_row(n)
        if n == 5:
            row[2] += 1
        return row

    for module in (legendre, cli.core):
        monkeypatch.setattr(module, "_inverse_row", faulty_row)

    code = cli.main(["compute", "--r", "2", "--n-max", "6"])
    captured = capsys.readouterr()
    assert code == 1
    fails = [line for line in captured.err.splitlines() if line.startswith("FAIL")]
    assert fails == ["FAIL inverse route produced a non-integer witness=252 does not divide 567577"]
    assert captured.out == "definition: 1 2 10 56 346 2252 15184\nclosed: 1 2 10 56 346 2252 15184\n"
    assert "Traceback" not in captured.err

    code = cli.main(["verify", "--r-max", "3", "--n-max", "6"])
    captured = capsys.readouterr()
    assert code == 1
    fails = [line for line in captured.err.splitlines() if line.startswith("FAIL")]
    assert [line for line in fails if "inner-sum" in line] == [
        "FAIL inner-sum route disagrees (non-integral) witness=(r=2, n=5): "
        "252 does not divide 567577",
        "FAIL inner-sum route disagrees (non-integral) witness=(r=3, n=5): "
        "252 does not divide 417792241",
    ]
    assert [line for line in fails if "closed form" in line] == [
        f"FAIL closed form disagrees witness=(r={r}, n=5, j={j})" for j in range(3) for r in (2, 3)
    ]
    assert "Traceback" not in captured.err
    assert "FAILED" in captured.out


def test_nest_fault_is_caught_by_both_closed_checks(monkeypatch, capsys):
    # route-agreement and t-closed-agreement read the same closed row; the
    # oracles (the defining solve and t_row) never call the nest, so one wrong
    # nest value must fail both closed checks at exactly its (r, n, j) and
    # nothing else
    true_nest = cli.core._nest

    def faulty_nest(n, j, s, odd):
        return true_nest(n, j, s, odd) + ((n, j, s, odd) == (5, 2, 2, False))

    monkeypatch.setattr(cli.core, "_nest", faulty_nest)
    code = cli.main(["verify", "--r-max", "4", "--n-max", "6"])
    captured = capsys.readouterr()
    assert code == 1
    fails = [line for line in captured.err.splitlines() if line.startswith("FAIL")]
    assert fails == [
        "FAIL closed route disagrees witness=(r=4, n=5)",
        "FAIL closed form disagrees witness=(r=4, n=5, j=2)",
    ]
    assert "Traceback" not in captured.err
    assert "FAILED" in captured.out

    code = cli.main(["compute", "--r", "4", "--n-max", "6", "--routes", "definition,closed"])
    captured = capsys.readouterr()
    assert code == 1
    fails = [line for line in captured.err.splitlines() if line.startswith("FAIL")]
    assert len(fails) == 1
    assert fails[0].startswith("FAIL routes definition and closed disagree witness=(r=4, n=5): ")
    assert "Traceback" not in captured.err


_T3_ROWS = [(0, 0, 1, 1), (1, 0, 0, 0), (1, 1, 1, 1), (2, 0, 0, 0), (2, 1, 24, 8), (2, 2, 1, 1)]


@pytest.mark.parametrize("fmt", cli.FORMATS)
def test_t_table_stdout_bytes(fmt, capsys):
    assert cli.main(["t-table", "--r", "3", "--n-max", "2", "--format", fmt]) == 0
    captured = capsys.readouterr()
    if fmt == "json":
        doc = {
            "command": "t-table",
            "params": {"r": 3, "n_max": 2, "format": fmt},
            "results": {
                "rows": [
                    {"n": n, "j": j, "t": str(t), "ratio": str(ratio)} for n, j, t, ratio in _T3_ROWS
                ]
            },
            "failures": [],
        }
        expected = json.dumps(doc, indent=2) + "\n"
    elif fmt == "csv":
        expected = "n,j,t,ratio\n" + "".join(
            f"{n},{j},{t},{ratio}\n" for n, j, t, ratio in _T3_ROWS
        )
    else:
        expected = (
            "n=0: t = 1 ; ratio = 1\n"
            "n=1: t = 0 1 ; ratio = 0 1\n"
            "n=2: t = 0 24 1 ; ratio = 0 8 1\n"
        )
    assert captured.out == expected
    assert _stderr_times(captured.err) == []


def test_t_table_failure_still_emits_document(monkeypatch, capsys):
    def failing_table(r, n_max):
        raise DivisibilityError(7, 2)

    monkeypatch.setattr(cli.core, "t_table", failing_table)
    code = cli.main(["t-table", "--r", "3", "--n-max", "2", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 1
    doc = json.loads(captured.out)
    assert doc["results"] == {"rows": []}
    assert doc["failures"] == [
        {"description": "scaled inner number non-integral", "witness": "2 does not divide 7"}
    ]
    assert "FAIL scaled inner number non-integral witness=2 does not divide 7" in (
        captured.err.splitlines()
    )


def test_verify_reports_failures_and_exits_one(monkeypatch, capsys):
    monkeypatch.setattr(cli.core, "t_row", lambda n, r: [1] * (n + 1))
    code = cli.main(["verify", "--r-max", "2", "--n-max", "4"])
    captured = capsys.readouterr()
    assert code == 1
    assert "FAILED" in captured.out


def test_verify_catches_one_wrong_inner_number(monkeypatch, capsys):
    # every group shares one t-row per (n, r); the closed forms never read it,
    # so a single wrong entry must still surface as a disagreement
    true_row = cli.core.t_row

    def faulty_row(n, r):
        row = true_row(n, r)
        if (n, r) == (5, 4):
            row[2] += 1
        return row

    monkeypatch.setattr(cli.core, "t_row", faulty_row)
    code = cli.main(["verify", "--r-max", "5", "--n-max", "6"])
    captured = capsys.readouterr()
    assert code == 1
    fails = [line for line in captured.err.splitlines() if line.startswith("FAIL")]
    # each reader of the row flags it on its own: c_from_t, the ratio, the closed form
    assert fails == [
        "FAIL inner-sum route disagrees (non-integral) witness=(r=4, n=5): "
        "252 does not divide 257621972112",
        "FAIL scaled inner number non-integral witness=(r=4, n=5, j=2): "
        "252 does not divide 6400806",
        "FAIL closed form disagrees witness=(r=4, n=5, j=2)",
    ]
    assert "Traceback" not in captured.err
    assert "FAILED" in captured.out


def test_verify_solver_failure_is_reported_not_raised(monkeypatch, capsys):
    def failing_solve(r, n_max):
        raise DivisibilityError(7, 2)

    monkeypatch.setattr(cli.core, "c_by_definition", failing_solve)
    code = cli.main(["verify", "--r-max", "3", "--n-max", "3"])
    captured = capsys.readouterr()
    assert code == 1
    assert "FAIL defining solve non-integral witness=(r=2): 2 does not divide 7" in captured.err
    assert "FAIL defining solve non-integral witness=(r=3): 2 does not divide 7" in captured.err
    assert "FAIL exponent-1 family is not all ones (non-integral) witness=" in captured.err
    assert "n-independence: 0 checks" in captured.out


def test_main_returns_zero_in_process():
    assert cli.main(["compute", "--r", "2", "--n-max", "3"]) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--r", "2", "--n-max", "80"],
        ["compute", "--r", "3", "--n-max", "70"],
        ["t-table", "--r", "3", "--n-max", "100"],
        ["verify", "--r-max", "3", "--n-max", "65"],
    ],
    ids=["compute-r2", "compute-r3", "t-table", "verify"],
)
def test_compute_and_t_table_leave_the_factorial_table_alone(argv, monkeypatch, capsys):
    # binomials come from math.comb and walked rows, so none of these commands
    # reads a factorial; a fresh table must keep its size through the whole
    # run. At n_max = 65 a factorial prefactor would need (2n)! = 130! > 128!
    table = combinatorics.CombinatoricsTable()
    monkeypatch.setattr(combinatorics, "_SHARED", table)
    before = table.cap
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert table.cap == before


@pytest.mark.parametrize(
    "argv, layer",
    [
        (["compute", "--r", "2", "--n-max", "5"], "core.lhs_sum"),
        (["verify", "--r-max", "3", "--n-max", "4"], "core.t_row"),
    ],
    ids=["compute", "verify"],
)
def test_traced_benchmark_worker_runs(argv, layer, tmp_path):
    # the benchmark's tracer hooks the package's layers by name, so a renamed
    # or removed hook target kills every traced run; this runs one traced worker
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    result = subprocess.run(
        [sys.executable, str(WORKER), str(tmp_path / "t.json"), "--", *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    doc = json.loads(result.stdout)
    assert doc["code"] == 0
    assert doc["raised"] is None
    assert doc["layers"][layer]["calls"] > 0
    assert doc["table_cap"] > 0
    assert (tmp_path / "t.json").exists()
