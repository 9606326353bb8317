"""End-to-end checks of the command line interface.

Happy paths run the installed module in a subprocess so the argv parsing,
exit codes, and stream separation are exercised exactly as a shell user
would see them. Failure injection for exit code 1 is done in-process with
monkeypatching, since the real computations never disagree.
"""

import itertools
import json
import os
import re
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

from schmidt import cli, combinatorics, legendre
from schmidt import hypergeometric as hyp
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


def test_closed_stderr_exits_141_with_stdout_intact():
    # a passing run whose diagnostics cannot be written is still no failed
    # mathematical check: exit 141, never 1, with all of stdout written
    argv = ["compute", "--r", "2", "--n-max", "4"]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "schmidt", *argv],
            stdout=subprocess.PIPE,
            stderr=write_end,
            text=True,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert result.returncode == 141
    assert result.stdout == run_cli(*argv).stdout == "1 2 10 56 346\n"


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
    monkeypatch.setattr(cli.core, "c_closed", lambda r, n_max: closed[: n_max + 1])
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
    monkeypatch.setattr(cli.core, "c_closed", lambda r, n_max: [0] * (n_max + 1))
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
    # legendre_inverse and core.t_rows read the same signed D row; the closed
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
        f"FAIL closed form disagrees witness=(r={r}, n=5, j={j})" for r in (2, 3) for j in range(3)
    ]
    assert "Traceback" not in captured.err
    assert "FAILED" in captured.out


def test_nest_fault_is_caught_by_both_closed_checks(monkeypatch, capsys):
    # route-agreement and t-closed-agreement read the same closed rows; the
    # oracles (the defining solve and t_rows) never build a nest column, so one
    # wrong nest value, nest(5, 2) at r = 4, must fail both closed checks at
    # exactly its (r, n, j) and nothing else
    true_column = cli.core._nest_column

    def faulty_column(j, s, odd, n_max):
        column = true_column(j, s, odd, n_max)
        if (j, s, odd) == (2, 2, False) and n_max >= 5:
            column[5 - j] += 1
        return column

    monkeypatch.setattr(cli.core, "_nest_column", faulty_column)
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


def _identity_fails(monkeypatch, capsys, name, fake):
    monkeypatch.setattr(hyp, name, fake)
    code = cli.main(["identities", "--trials", "3", "--m-max", "4", "--seed", "0"])
    captured = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in captured.err
    assert "FAILED" in captured.out
    return [line for line in captured.err.splitlines() if line.startswith("FAIL")]


def test_series_nest_fault_fails_only_its_own_depth(monkeypatch, capsys):
    # only Andrews's nest at s = 3 is wrong; the s = 1 and s = 2 checks and
    # the reductions to Dougall and Whipple never see it
    true_pair = hyp._nest_pair

    def faulty_pair(spec):
        num, den = true_pair(spec)
        return (num + den, den) if spec.s == 3 else (num, den)

    fails = _identity_fails(monkeypatch, capsys, "_nest_pair", faulty_pair)
    assert fails
    assert all("s=3" in line for line in fails), fails


def test_series_pole_is_one_failure_with_a_witness(monkeypatch, capsys):
    true_eval = hyp._series_pair
    calls = []

    def pole_once(top, bottom, m):
        calls.append((top, bottom, m))
        if len(calls) == 1:
            raise hyp.PoleError("injected")
        return true_eval(top, bottom, m)

    fails = _identity_fails(monkeypatch, capsys, "_series_pair", pole_once)
    assert len(fails) == 1
    assert fails[0].endswith(": pole: injected"), fails
    assert len(calls) > 1


def test_identity_failure_lines_are_pinned(monkeypatch, capsys):
    # every check fails, alternately by a False and by a PoleError, so each
    # lazily formatted witness, with and without its pole suffix, is pinned
    calls = itertools.count()

    def fake(*args):
        if next(calls) % 2:
            raise hyp.PoleError("injected")
        return False

    for name in ("check_dougall", "check_whipple", "check_andrews"):
        monkeypatch.setattr(hyp, name, fake)
    monkeypatch.setattr(cli, "_reduces", fake)
    assert cli.main(["identities", "--trials", "1", "--m-max", "4", "--seed", "0"]) == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("FAIL")] == [
        "FAIL s=1 nest does not reduce to the 5F4 evaluation"
        " witness=(a=1/2, pairs=[(1/3, 1/4)], m=2)",
        "FAIL s=1 multiple transformation failed"
        " witness=(a=1/2, pairs=[(1/3, 1/4)], m=2): pole: injected",
        "FAIL s=2 nest does not reduce to the 7F6 transform"
        " witness=(a=-7/2, pairs=[(1/2, -1/3), (2/5, 1)], m=3)",
        "FAIL s=2 multiple transformation failed"
        " witness=(a=-7/2, pairs=[(1/2, -1/3), (2/5, 1)], m=3): pole: injected",
        "FAIL s=3 multiple transformation failed"
        " witness=(a=3, pairs=[(1/6, -2/3), (1/2, 5/6), (-1/4, 2)], m=2)",
        "FAIL 5F4 summation failed witness=(a=-2/3, c=2/5, d=3/4, m=2): pole: injected",
        "FAIL 7F6 transformation failed witness=(a=1/4, b=-3/4, c=-4, d=3/2, e=3/4, m=1)",
        "FAIL multiple transformation failed at s=1"
        " witness=(a=-2/5, pairs=[(-2/3, -6/5)], m=3): pole: injected",
        "FAIL multiple transformation failed at s=2"
        " witness=(a=-1/6, pairs=[(1/4, 2/5), (6, -1)], m=4)",
        "FAIL multiple transformation failed at s=3"
        " witness=(a=2, pairs=[(0, -5/4), (0, -6), (-1/6, -5/4)], m=2): pole: injected",
        "FAIL s=1 reduction disagrees with the 5F4 evaluation"
        " witness=(a=-5/4, pairs=[(-3, 5/3)], m=4)",
        "FAIL s=2 reduction disagrees with the 7F6 transform"
        " witness=(a=-4/3, pairs=[(-3/5, -5/6), (0, -3)], m=2): pole: injected",
    ]


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
    monkeypatch.setattr(
        cli.core, "t_rows", lambda r, n_max: [[1] * (n + 1) for n in range(n_max + 1)]
    )
    code = cli.main(["verify", "--r-max", "2", "--n-max", "4"])
    captured = capsys.readouterr()
    assert code == 1
    assert "FAILED" in captured.out


def test_verify_catches_one_wrong_inner_number(monkeypatch, capsys):
    # every group shares one t-row per (n, r); the closed forms never read it,
    # so a single wrong entry must still surface as a disagreement
    true_rows = cli.core.t_rows

    def faulty_rows(r, n_max):
        rows = true_rows(r, n_max)
        if r == 4:
            rows[5][2] += 1
        return rows

    monkeypatch.setattr(cli.core, "t_rows", faulty_rows)
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


def test_verify_drops_each_exponents_rows_before_the_next(monkeypatch, capsys):
    # verify holds one exponent's t-rows at a time: when a row is built, no
    # row of another exponent may still be alive
    class Row(list):
        pass

    true_rows = cli.core.t_rows
    built: list[tuple[int, weakref.ref]] = []
    stale = []

    def tracked_rows(r, n_max):
        stale.extend((r, other) for other, ref in built if other != r and ref() is not None)
        rows = [Row(row) for row in true_rows(r, n_max)]
        built.extend((r, weakref.ref(row)) for row in rows)
        return rows

    monkeypatch.setattr(cli.core, "t_rows", tracked_rows)
    assert cli.main(["verify", "--r-max", "4", "--n-max", "5"]) == 0
    capsys.readouterr()
    assert {r for r, _ in built} == {1, 2, 3, 4}
    assert stale == []


def test_verify_closed_rows_failure_is_one_witness(monkeypatch, capsys):
    # a closed build that fails at one exponent is one witness; that exponent
    # skips its closed checks, and every other exponent is still checked
    true_rows = cli.core.t_closed_rows

    def failing_at_four(r, n_max):
        if r == 4:
            raise DivisibilityError(7, 2)
        return true_rows(r, n_max)

    monkeypatch.setattr(cli.core, "t_closed_rows", failing_at_four)
    code = cli.main(["verify", "--r-max", "5", "--n-max", "6"])
    captured = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in captured.err
    fails = [line for line in captured.err.splitlines() if line.startswith("FAIL")]
    assert fails == ["FAIL closed rows non-integral witness=(r=4): 2 does not divide 7"]
    assert captured.out.splitlines() == [
        # 4 x 7 inner-sum checks, 7 closed-route checks at each of r = 2, 3, 5
        # and the failed build
        "route-agreement: 50 checks",
        "ratio-integrality: 112 checks",
        "n-independence: 28 checks",
        # 28 at each of r = 2, 3, 5
        "t-closed-agreement: 84 checks",
        "trivial-exponent: 1 checks",
        "1 of 275 checks FAILED",
    ]


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
        (["verify", "--r-max", "3", "--n-max", "4"], "core.t_rows"),
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
