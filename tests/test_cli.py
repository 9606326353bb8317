"""End-to-end checks of the command line interface.

Happy paths run the installed module in a subprocess so the argv parsing,
exit codes, and stream separation are exercised exactly as a shell user
would see them. Failure injection for exit code 1 is done in-process with
monkeypatching, since the real computations never disagree.
"""

import json
import re
import subprocess
import sys

import pytest

from schmidt import cli
from schmidt.combinatorics import DivisibilityError


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
    assert "note: r=1 scaled ratios integral" in result.stderr


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
         ("t-closed-agreement", 15), ("trivial-exponent", 1)],
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
    lines = captured.err.splitlines()
    timed = [re.fullmatch(r"time (\S+): \d+ ms", line) for line in lines if line.startswith("time ")]
    assert [match.group(1) for match in timed] == [name for name, _ in groups]
    assert not any(line.startswith("FAIL") for line in lines)


def test_compute_route_disagreement_exits_one(monkeypatch, capsys):
    monkeypatch.setattr(cli.core, "c_general", lambda n_max, r: [0] * (n_max + 1))
    code = cli.main(["compute", "--r", "2", "--n-max", "3"])
    captured = capsys.readouterr()
    assert code == 1
    assert "FAIL" in captured.err


def test_verify_reports_failures_and_exits_one(monkeypatch, capsys):
    monkeypatch.setattr(cli.core, "t_sum", lambda n, j, r: 1)
    code = cli.main(["verify", "--r-max", "2", "--n-max", "4"])
    captured = capsys.readouterr()
    assert code == 1
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
