"""End-to-end checks of the command line interface.

Happy paths run the installed module in a subprocess so the argv parsing,
exit codes, and stream separation are exercised exactly as a shell user
would see them. Failure injection for exit code 1 is done in-process with
monkeypatching, since the real computations never disagree.
"""

import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import weakref
from collections import Counter
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
    # the error lists the route table's keys; inner-sum is not one of them,
    # since its sum is the inverse route's numerator summed the other way round
    for routes, unknown in (("definition,magic", "magic"), ("inner-sum", "inner-sum")):
        result = run_cli("compute", "--r", "2", "--routes", routes)
        assert result.returncode == 2
        assert result.stdout == ""
        assert f"unknown route '{unknown}'; choose from definition, inverse, closed" in (
            result.stderr
        )


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["compute", "--r", "2", "--routes", ","], "need at least one route"),
        (["identities", "--seed", "-1"], "must be in [0, 18446744073709551616)"),
        (["identities", "--seed", str(2**64)], "must be in [0, 18446744073709551616)"),
        (["verify", "--n-max", "-1"], "must be in [0, inf)"),
        (["compute", "--r", "1.5"], "invalid int value"),
    ],
    ids=["no-route", "negative-seed", "seed-past-64-bits", "negative-n-max", "non-integer-r"],
)
def test_usage_errors_exit_two_in_process(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert message in captured.err


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
    # stderr holds the group times and the elapsed line, nothing else
    names = _stderr_times(result.stderr)
    assert names == ["legendre-inversion", "route-agreement", "t-closed-agreement"]
    assert len(result.stderr.splitlines()) == len(names) + 1


def test_verify_r_max_one_still_passes():
    result = run_cli("verify", "--r-max", "1", "--n-max", "5")
    assert result.returncode == 0


@pytest.mark.parametrize("fmt", ["plain", "json"])
def test_verify_r_max_zero_reports_every_group(fmt, capsys):
    # a sweep with no exponent still lists the three groups of every other
    # sweep, and checks only the inversion, which holds for every r: its 10
    # entries (n, k) with k <= n <= 3
    assert cli.main(["verify", "--r-max", "0", "--n-max", "3", "--format", fmt]) == 0
    captured = capsys.readouterr()
    groups = [("legendre-inversion", 10), ("route-agreement", 0), ("t-closed-agreement", 0)]
    if fmt == "json":
        doc = {
            "command": "verify",
            "params": {"r_max": 0, "n_max": 3, "format": fmt},
            "results": {"checks_run": 10,
                        "groups": [{"name": n, "checks": count} for n, count in groups]},
            "failures": [],
        }
        expected = json.dumps(doc, indent=2) + "\n"
    else:
        expected = "".join(f"{name}: {count} checks\n" for name, count in groups)
        expected += "all 10 checks passed\n"
    assert captured.out == expected
    assert _stderr_times(captured.err) == [name for name, _ in groups]


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
        [("legendre-inversion", 15), ("route-agreement", 15), ("t-closed-agreement", 30)],
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
    monkeypatch.setitem(cli.core.ROUTES, "closed", lambda inputs: closed[: inputs.n_max + 1])
    code = cli.main(["compute", "--r", "2", "--n-max", "3", "--format", fmt])
    captured = capsys.readouterr()
    per_route = {"definition": _FRANEL, "inverse": _FRANEL, "closed": closed}
    agree = closed == _FRANEL
    # every entry of closed differs from definition's, and each is one witness
    failures = [] if agree else [
        {"description": "closed route disagrees with definition", "witness": f"(r=2, n={n})"}
        for n in range(4)
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


@pytest.mark.parametrize("route", list(cli.core.ROUTES))
def test_every_route_is_a_compute_route(route, capsys):
    for r in range(1, 6):
        assert cli.main(["compute", "--r", str(r), "--n-max", "10", "--routes", route]) == 0
        expected = " ".join(map(str, cli.core.c_by_definition(r, 10)))
        assert capsys.readouterr().out == expected + "\n"


def test_wrong_inverse_value_fails_compute(monkeypatch, capsys):
    # compute checks the inverse route against definition at every exponent
    # it is given, r = 1 included, so one wrong, still integral, c_3 (its
    # numerator C(6,3) c_3 one C(6,3) too large) fails it at n = 3 alone.
    # verify never runs the inverse route, so it never reads the fault
    true_numerator = cli.core._inverse_numerator

    def off_by_one(a, n):
        return true_numerator(a, n) + (n == 3) * math.comb(6, 3)

    monkeypatch.setattr(cli.core, "_inverse_numerator", off_by_one)
    for r in (1, 2, 3, 4):
        assert cli.main(["compute", "--r", str(r), "--n-max", "6"]) == 1
        captured = capsys.readouterr()
        fails = [line for line in captured.err.splitlines() if line.startswith("FAIL")]
        assert fails == [f"FAIL inverse route disagrees with definition witness=(r={r}, n=3)"]
    assert cli.main(["verify", "--r-max", "4", "--n-max", "6"]) == 0
    capsys.readouterr()


def test_compute_route_disagreement_exits_one(monkeypatch, capsys):
    monkeypatch.setitem(cli.core.ROUTES, "closed", lambda inputs: [0] * (inputs.n_max + 1))
    code = cli.main(["compute", "--r", "2", "--n-max", "3"])
    captured = capsys.readouterr()
    assert code == 1
    assert "FAIL closed route disagrees with definition witness=(r=2, n=0)" in (
        captured.err.splitlines()
    )


@pytest.mark.parametrize("fmt", cli.FORMATS)
def test_compute_non_integral_inverse_exits_one(fmt, monkeypatch, capsys):
    # the route that raised is missing from every format's output; a
    # numerator of 1 at every order first fails at n = 1, where C(2,1) = 2
    monkeypatch.setattr(cli.core, "_inverse_numerator", lambda a, n: 1)
    code = cli.main(["compute", "--r", "2", "--n-max", "3", "--format", fmt])
    captured = capsys.readouterr()
    assert code == 1
    fails = [line for line in captured.err.splitlines() if line.startswith("FAIL")]
    assert fails == ["FAIL inverse route non-integral witness=(r=2): 2 does not divide 1"]
    shown = ("definition", "closed")
    if fmt == "json":
        doc = {
            "command": "compute",
            "params": {"r": 2, "n_max": 3, "routes": list(cli.DEFAULT_ROUTES), "format": fmt},
            "results": {
                "routes": [
                    {"route": route, "values": [{"n": n, "c": str(c)} for n, c in enumerate(_FRANEL)]}
                    for route in shown
                ],
                "routes_agree": False,
            },
            "failures": [
                {"description": "inverse route non-integral",
                 "witness": "(r=2): 2 does not divide 1"}
            ],
        }
        expected = json.dumps(doc, indent=2) + "\n"
    elif fmt == "csv":
        expected = "n,route,c\n" + "".join(
            f"{n},{route},{c}\n" for route in shown for n, c in enumerate(_FRANEL)
        )
    else:
        expected = "definition: 1 2 10 56\nclosed: 1 2 10 56\n"
    assert captured.out == expected


def test_inverse_route_witness_names_the_unreduced_pair(monkeypatch, capsys):
    # a_5 two too large leaves C(10,5) c_5 + 2 = 567506 over C(10,5) = 252:
    # the inverse route divides that pair as it stands, as the definition
    # route's solve step does, not the pair 283753 / 126 reduced by their gcd
    true_lhs = cli.core.lhs_sum
    monkeypatch.setattr(
        cli.core, "lhs_sum", lambda n, r, row=None: true_lhs(n, r, row) + 2 * (n == 5)
    )
    code = cli.main(["compute", "--r", "2", "--n-max", "6", "--routes", "definition,inverse"])
    captured = capsys.readouterr()
    assert code == 1
    fails = [line for line in captured.err.splitlines() if line.startswith("FAIL")]
    assert fails == [
        f"FAIL {route} route non-integral witness=(r=2): 252 does not divide 567506"
        for route in ("definition", "inverse")
    ]


def test_compute_shares_one_a_n_and_closed_still_disagrees(monkeypatch, capsys):
    # adding the k = 3 forward coefficient to every a_n with n >= 3 is the
    # forward transform of c_3 + 1, so definition and inverse, which read the
    # same a_n, both print 57; closed never reads a_n and still prints 56
    true_lhs = cli.core.lhs_sum

    def shifted_lhs(n, r, row=None):
        return true_lhs(n, r, row) + (_forward_row(n)[3] if n >= 3 else 0)

    monkeypatch.setattr(cli.core, "lhs_sum", shifted_lhs)
    code = cli.main(["compute", "--r", "2", "--n-max", "5"])
    captured = capsys.readouterr()
    assert code == 1
    fails = [line for line in captured.err.splitlines() if line.startswith("FAIL")]
    assert fails == ["FAIL closed route disagrees with definition witness=(r=2, n=3)"]
    assert captured.out == (
        "definition: 1 2 10 57 346 2252\n"
        "inverse: 1 2 10 57 346 2252\n"
        "closed: 1 2 10 56 346 2252\n"
    )


def test_routes_that_finish_are_compared_when_the_reference_raises(monkeypatch, capsys):
    # definition raises at every exponent and closed is one too large at
    # n = 3: compute still compares closed with inverse, the first route that
    # finished, so the wrong closed value is a witness of its own
    def raising_definition(inputs):
        raise DivisibilityError(7, 2)

    true_closed = cli.core.ROUTES["closed"]

    def off_by_one_closed(inputs):
        return [c + (n == 3) for n, c in enumerate(true_closed(inputs))]

    monkeypatch.setitem(cli.core.ROUTES, "definition", raising_definition)
    monkeypatch.setitem(cli.core.ROUTES, "closed", off_by_one_closed)

    for r in (1, 2, 3):
        assert cli.main(["compute", "--r", str(r), "--n-max", "5"]) == 1
        captured = capsys.readouterr()
        fails = [line for line in captured.err.splitlines() if line.startswith("FAIL")]
        assert fails == [
            f"FAIL definition route non-integral witness=(r={r}): 2 does not divide 7",
            f"FAIL closed route disagrees with inverse witness=(r={r}, n=3)",
        ]
    assert captured.out == "inverse: 1 4 68 1732 51076 1657904\nclosed: 1 4 68 1733 51076 1657904\n"

    # verify runs no inverse route, so where definition raises, closed has
    # nothing to compare with: each exponent is the one raising route
    assert cli.main(["verify", "--r-max", "3", "--n-max", "5"]) == 1
    captured = capsys.readouterr()
    fails = [line for line in captured.err.splitlines() if line.startswith("FAIL")]
    assert fails == [
        f"FAIL definition route non-integral witness=(r={r}): 2 does not divide 7"
        for r in (1, 2, 3)
    ]
    assert "route-agreement: 3 checks" in captured.out.splitlines()
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "routes, calls",
    [
        ("definition,inverse,closed", 6),
        ("inverse,closed,definition", 6),
        ("closed", 0),
        ("closed,definition,inverse", 6),
    ],
)
def test_compute_builds_a_n_once(routes, calls, monkeypatch, capsys):
    # definition builds each forward row once, for a_n and for the solve step
    # that takes c_n from it, and leaves a_n for the inverse route; after the
    # inverse route built a_n by lhs_sum, definition solves from rows of its own
    rows_per_n = {"closed": 0, "inverse,closed,definition": 2}.get(routes, 1)
    true_lhs, true_row = cli.core.lhs_sum, legendre._forward_row
    seen = []
    rows = Counter()

    def counted_lhs(n, r, row=None):
        seen.append((n, r))
        return true_lhs(n, r, row)

    def counted_row(n):
        rows[n] += 1
        return true_row(n)

    monkeypatch.setattr(cli.core, "lhs_sum", counted_lhs)
    for module in (legendre, cli.core):
        monkeypatch.setattr(module, "_forward_row", counted_row)
    assert cli.main(["compute", "--r", "2", "--n-max", "5", "--routes", routes]) == 0
    assert capsys.readouterr().out == "1 2 10 56 346 2252\n"
    assert len(seen) == calls
    assert rows == Counter({n: rows_per_n for n in range(6)})


@pytest.mark.parametrize("r", [2, 3])
def test_compute_prints_the_same_under_every_route_order(r, capsys):
    # whichever of definition and inverse runs first builds a_n, and the
    # other reads it
    outputs = set()
    for order in itertools.permutations(cli.DEFAULT_ROUTES):
        assert cli.main(["compute", "--r", str(r), "--n-max", "40", "--routes", ",".join(order)]) == 0
        outputs.add(capsys.readouterr().out)
    assert len(outputs) == 1
    (out,) = outputs
    assert out == " ".join(map(str, cli.core.c_by_definition(r, 40))) + "\n"


def _patch_everywhere(patch, name, true_fn, fn):
    # fn in place of true_fn in every module of the package that bound the
    # name, so that each reader sees fn; returns those modules
    bound = [module for key, module in list(sys.modules.items())
             if key.split(".")[0] == "schmidt" and getattr(module, name, None) is true_fn]
    for module in bound:
        patch.setattr(module, name, fn)
    return bound


@pytest.mark.parametrize("r", [3, 4, 9, 16])
def test_closed_route_divides_by_nothing(r, monkeypatch, capsys):
    # c(n, r) = sum_j C(2j,j)^(r-1) C(n,j)^(1+[r odd]) nest_r(n, j) is a sum
    # of products: with every exact division raising, the closed route still
    # prints what it prints without the fault
    argv = ["compute", "--r", str(r), "--n-max", "20", "--routes", "closed"]
    assert cli.main(argv) == 0
    expected = capsys.readouterr().out

    def refuse(a, b):
        raise AssertionError(f"exact_divide({a}, {b}) on the closed route")

    _patch_everywhere(monkeypatch, "exact_divide", combinatorics.exact_divide, refuse)
    assert cli.core.exact_divide is refuse
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == expected


def test_compute_definition_failure_leaves_the_inverse_route_whole(monkeypatch, capsys):
    # a solve step that raises at n = 3 stops the definition route's pass
    # before a_4, so the inverse route builds all of a_0..a_N itself
    true_step = cli.core._solve_step

    def failing_step(a_n, row, c):
        if len(c) == 3:
            raise DivisibilityError(7, 2)
        return true_step(a_n, row, c)

    monkeypatch.setattr(cli.core, "_solve_step", failing_step)
    assert cli.main(["compute", "--r", "2", "--n-max", "5"]) == 1
    captured = capsys.readouterr()
    fails = [line for line in captured.err.splitlines() if line.startswith("FAIL")]
    assert fails == ["FAIL definition route non-integral witness=(r=2): 2 does not divide 7"]
    assert captured.out == "inverse: 1 2 10 56 346 2252\nclosed: 1 2 10 56 346 2252\n"


def test_shared_inverse_row_fault_is_caught_by_every_reader(monkeypatch, capsys):
    # the inverse route, verify's inversion check and core.t_rows read the
    # same signed D row, which verify builds once per sweep for every
    # exponent; the closed forms and the defining solve never read it, so one
    # wrong entry, S[5][2], must fail the inverse route of compute, and in
    # verify the inversion at row 5 up to k = 2 and the closed-form checks
    # at each exponent
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
    assert fails == ["FAIL inverse route non-integral witness=(r=2): 252 does not divide 567577"]
    assert captured.out == "definition: 1 2 10 56 346 2252 15184\nclosed: 1 2 10 56 346 2252 15184\n"
    assert "Traceback" not in captured.err

    code = cli.main(["verify", "--r-max", "3", "--n-max", "6"])
    captured = capsys.readouterr()
    assert code == 1
    fails = [line for line in captured.err.splitlines() if line.startswith("FAIL")]
    assert fails == [
        *(f"FAIL Legendre inversion fails witness=(n=5, k={k})" for k in range(3)),
        *(f"FAIL closed form disagrees witness=(r={r}, n=5, j={j})" for r in (2, 3) for j in range(3)),
    ]
    assert "Traceback" not in captured.err
    assert "FAILED" in captured.out


def test_nest_fault_is_caught_by_both_closed_checks(monkeypatch, capsys):
    # route-agreement and t-closed-agreement read the same closed rows; the
    # oracles (the defining solve and t_rows) never build a nest column, so one
    # wrong nest value, nest(5, 2) at r = 4, must fail both closed checks at
    # exactly its (r, n, j) and nothing else. The fault sits in the chain that
    # both verify's sweep and compute's single exponent read
    true_column = cli.core._NestChain.column

    def faulty_column(chain, s, odd):
        column = true_column(chain, s, odd)
        if (chain.j, s, odd) == (2, 2, False) and chain.length > 5 - chain.j:
            column[5 - chain.j] += 1  # an even-r column is built fresh per call
        return column

    monkeypatch.setattr(cli.core._NestChain, "column", faulty_column)
    code = cli.main(["verify", "--r-max", "4", "--n-max", "6"])
    captured = capsys.readouterr()
    assert code == 1
    fails = [line for line in captured.err.splitlines() if line.startswith("FAIL")]
    assert fails == [
        "FAIL closed route disagrees with definition witness=(r=4, n=5)",
        "FAIL closed form disagrees witness=(r=4, n=5, j=2)",
    ]
    assert "Traceback" not in captured.err
    assert "FAILED" in captured.out

    code = cli.main(["compute", "--r", "4", "--n-max", "6", "--routes", "definition,closed"])
    captured = capsys.readouterr()
    assert code == 1
    fails = [line for line in captured.err.splitlines() if line.startswith("FAIL")]
    assert fails == ["FAIL closed route disagrees with definition witness=(r=4, n=5)"]
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

    # dougall and whipple check the sampled spec itself through check_classical
    for name in ("check_classical", "check_andrews", "check_reduction"):
        monkeypatch.setattr(hyp, name, fake)
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


@pytest.mark.parametrize("fmt", cli.FORMATS)
def test_t_table_failure_names_its_entry(fmt, monkeypatch, capsys):
    # one wrong t(5, 2, 3) makes C(4,2) t / C(10,5) non-integral; the witness
    # names that entry as verify's witnesses do
    true_rows = cli.core.t_rows

    def faulty_rows(r, n_max, **held):
        rows = true_rows(r, n_max, **held)
        rows[5][2] += 1
        return rows

    monkeypatch.setattr(cli.core, "t_rows", faulty_rows)
    assert cli.main(["t-table", "--r", "3", "--n-max", "6", "--format", fmt]) == 1
    captured = capsys.readouterr()
    witness = "(r=3, n=5, j=2): 252 does not divide 100806"
    fails = [line for line in captured.err.splitlines() if line.startswith("FAIL")]
    assert fails == [f"FAIL scaled inner number non-integral witness={witness}"]
    if fmt == "json":
        assert json.loads(captured.out)["failures"] == [
            {"description": "scaled inner number non-integral", "witness": witness}
        ]


def test_verify_reports_failures_and_exits_one(monkeypatch, capsys):
    monkeypatch.setattr(
        cli.core, "t_rows", lambda r, n_max, **held: [[1] * (n + 1) for n in range(n_max + 1)]
    )
    code = cli.main(["verify", "--r-max", "2", "--n-max", "4"])
    captured = capsys.readouterr()
    assert code == 1
    assert "FAILED" in captured.out


def test_verify_catches_one_wrong_inner_number(monkeypatch, capsys):
    # every group shares one t-row per (n, r); the closed forms never read it,
    # so a single wrong entry must still surface as a disagreement
    true_rows = cli.core.t_rows

    def faulty_rows(r, n_max, **held):
        rows = true_rows(r, n_max, **held)
        if r == 4:
            rows[5][2] += 1
        return rows

    monkeypatch.setattr(cli.core, "t_rows", faulty_rows)
    code = cli.main(["verify", "--r-max", "5", "--n-max", "6"])
    captured = capsys.readouterr()
    assert code == 1
    fails = [line for line in captured.err.splitlines() if line.startswith("FAIL")]
    # the one reader of the row, the closed-form check, flags that entry alone
    assert fails == ["FAIL closed form disagrees witness=(r=4, n=5, j=2)"]
    assert "Traceback" not in captured.err
    assert "FAILED" in captured.out


# legendre-inversion: the 28 entries (n, k) with k <= n <= 6, once;
# route-agreement: closed, 7 checks, at each of r = 1..5;
# t-closed-agreement: the 28 entries (n, j) with j <= n <= 6 at each of r = 2..5
_FAILED_SWEEP = [("legendre-inversion", 28), ("route-agreement", 35), ("t-closed-agreement", 112)]


@pytest.mark.parametrize("fmt", cli.FORMATS)
def test_failed_sweep_stdout_bytes(fmt, monkeypatch, capsys):
    # the fault of test_verify_catches_one_wrong_inner_number, pinned in every format
    true_rows = cli.core.t_rows

    def faulty_rows(r, n_max, **held):
        rows = true_rows(r, n_max, **held)
        if r == 4:
            rows[5][2] += 1
        return rows

    monkeypatch.setattr(cli.core, "t_rows", faulty_rows)
    code = cli.main(["verify", "--r-max", "5", "--n-max", "6", "--format", fmt])
    captured = capsys.readouterr()
    assert code == 1
    failures = [{"description": "closed form disagrees", "witness": "(r=4, n=5, j=2)"}]
    if fmt == "json":
        doc = {
            "command": "verify",
            "params": {"r_max": 5, "n_max": 6, "format": fmt},
            "results": {
                "checks_run": 175,
                "groups": [{"name": name, "checks": count} for name, count in _FAILED_SWEEP],
            },
            "failures": failures,
        }
        expected = json.dumps(doc, indent=2) + "\n"
    elif fmt == "csv":
        expected = "group,checks\n" + "".join(f"{name},{count}\n" for name, count in _FAILED_SWEEP)
    else:
        expected = "".join(f"{name}: {count} checks\n" for name, count in _FAILED_SWEEP)
        expected += "1 of 175 checks FAILED\n"
    assert captured.out == expected
    fails = [line for line in captured.err.splitlines() if line.startswith("FAIL")]
    assert fails == [f"FAIL {f['description']} witness={f['witness']}" for f in failures]


def test_inverse_route_wrong_only_at_r1_fails_compute(monkeypatch, capsys):
    # r = 1 runs through the route table like every other exponent, so an
    # inverse route that is wrong there alone fails at r = 1 and nowhere else
    true_inverse = cli.core.ROUTES["inverse"]

    def faulty_inverse(inputs):
        values = true_inverse(inputs)
        if inputs.r == 1:
            values[4] += 1
        return values

    monkeypatch.setitem(cli.core.ROUTES, "inverse", faulty_inverse)
    for r in (1, 2, 3):
        assert cli.main(["compute", "--r", str(r), "--n-max", "6"]) == (r == 1)
        captured = capsys.readouterr()
        fails = [line for line in captured.err.splitlines() if line.startswith("FAIL")]
        assert fails == ["FAIL inverse route disagrees with definition witness=(r=1, n=4)"] * (r == 1)
        assert "Traceback" not in captured.err


def test_wrong_held_inverse_entry_fails_the_inversion_check(monkeypatch, capsys):
    # one entry S[5][0] of the sweep's held inverse rows one too large: it
    # multiplies forward row 0, whose one entry is F[0][0] = 1, so row 5 of
    # S F is wrong at k = 0 alone, and verify fails in legendre-inversion
    # with that entry's (n, k). No route reads held inverse rows, so
    # route-agreement stays clean
    def fault(held):
        held.inverse[5][0] += 1

    _patch_sweep(monkeypatch, fault)
    assert cli.main(["verify", "--r-max", "1", "--n-max", "6"]) == 1
    captured = capsys.readouterr()
    fails = [line for line in captured.err.splitlines() if line.startswith("FAIL")]
    assert fails == ["FAIL Legendre inversion fails witness=(n=5, k=0)"]
    assert captured.out.splitlines() == [
        "legendre-inversion: 28 checks",
        "route-agreement: 7 checks",
        "t-closed-agreement: 0 checks",
        "1 of 35 checks FAILED",
    ]
    assert "Traceback" not in captured.err


def test_verify_solver_failure_is_reported_not_raised(monkeypatch, capsys):
    # the oracle failed: verify reports it at each exponent and still runs
    # every other group; closed, its one other route, has nothing to be
    # compared with there
    def failing_solve(a, forward=None):
        raise DivisibilityError(7, 2)

    monkeypatch.setattr(cli.core, "triangular_solve", failing_solve)
    code = cli.main(["verify", "--r-max", "3", "--n-max", "3"])
    captured = capsys.readouterr()
    assert code == 1
    fails = [line for line in captured.err.splitlines() if line.startswith("FAIL")]
    assert fails == [
        f"FAIL definition route non-integral witness=(r={r}): 2 does not divide 7"
        for r in (1, 2, 3)
    ]
    # the inversion's 10 entries; definition's failure at each of r = 1, 2, 3;
    # the 10 entries (n, j) at each of r = 2, 3
    assert captured.out.splitlines() == [
        "legendre-inversion: 10 checks",
        "route-agreement: 3 checks",
        "t-closed-agreement: 20 checks",
        "3 of 33 checks FAILED",
    ]

    # in compute the routes that still run, inverse (which built a_n first,
    # so that definition solves through triangular_solve) and closed, are
    # compared with each other and agree
    argv = ["compute", "--r", "3", "--n-max", "3", "--routes", "inverse,definition,closed"]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    fails = [line for line in captured.err.splitlines() if line.startswith("FAIL")]
    assert fails == ["FAIL definition route non-integral witness=(r=3): 2 does not divide 7"]
    assert captured.out == "inverse: 1 4 68 1732\nclosed: 1 4 68 1732\n"


def test_verify_drops_each_exponents_rows_before_the_next(monkeypatch, capsys):
    # verify holds one exponent's t-rows at a time: when a row is built, no
    # row of another exponent may still be alive. Every exponent reads the
    # same held inverse rows, and its columns C(k+j, 2j)^r come to t_rows
    # already raised, by running products
    class Row(list):
        pass

    true_rows = cli.core.t_rows
    built: list[tuple[int, weakref.ref]] = []
    stale = []
    inverse_held = set()

    def tracked_rows(r, n_max, **held):
        stale.extend((r, other) for other, ref in built if other != r and ref() is not None)
        inverse_held.add(id(held["inverse"]))
        assert held["powers"] == cli.core._column_powers(n_max, r)
        rows = [Row(row) for row in true_rows(r, n_max, **held)]
        built.extend((r, weakref.ref(row)) for row in rows)
        return rows

    monkeypatch.setattr(cli.core, "t_rows", tracked_rows)
    assert cli.main(["verify", "--r-max", "4", "--n-max", "5"]) == 0
    capsys.readouterr()
    assert {r for r, _ in built} == {2, 3, 4}
    assert stale == []
    assert len(inverse_held) == 1


def test_verify_builds_each_r_independent_row_once_per_sweep(monkeypatch, capsys):
    # the forward, inverse and central rows do not depend on r, so a sweep
    # builds each once for all exponents, r = 1 included. The one
    # central row C(0,0)..C(2N,N) serves every order n <= N. The closed
    # route reads none of the held rows: it walks its own C(0,0)..C(2N,N)
    # for its weights C(2j,j)^(r-1) at r = 1 and each r >= 3 (r = 2 sums
    # Franel's cubes), and its nest chains share no list with the held rows,
    # so a fault in a held row cannot reach it.
    built = {"_forward_row": Counter(), "_inverse_row": Counter(), "_central_row": Counter()}

    def counted(name, true_fn):
        def fn(n):
            caller = sys._getframe(1).f_code.co_name
            built[name][n, "closed" if caller == "_closed" else "sweep"] += 1
            return true_fn(n)

        return fn

    for name in built:
        for module in (legendre, cli.core):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    sweeps = []
    _patch_sweep(monkeypatch, sweeps.append)
    assert cli.main(["verify", "--r-max", "6", "--n-max", "8"]) == 0
    capsys.readouterr()
    once = Counter({(n, "sweep"): 1 for n in range(9)})
    assert built["_forward_row"] == once
    assert built["_inverse_row"] == once
    assert built["_central_row"] == Counter({(8, "sweep"): 1, (8, "closed"): 5})
    # no list the closed route's chains hold is one of the held rows
    (held,) = sweeps
    assert [chain.j for chain in held.chains] == list(range(9))
    held_ids = {id(held.central), *map(id, held.forward), *map(id, held.inverse),
                *map(id, held.bases)}
    closed_lists = []
    for chain in held.chains:
        closed_lists += [chain.stretched, chain.chain, chain.over, *chain.band, *chain.outer]
    assert not held_ids & set(map(id, closed_lists))


def _patch_sweep(monkeypatch, built):
    # core.Sweep, with built(sweep) called on every sweep verify builds, as built
    class PatchedSweep(cli.core.Sweep):
        def __init__(self, n_max):
            super().__init__(n_max)
            built(self)

    monkeypatch.setattr(cli.core, "Sweep", PatchedSweep)


def test_verify_builds_each_exponents_inputs_once(monkeypatch, capsys):
    # every group and route of one exponent reads the same a_n, t-rows and
    # closed ratio columns, built once; a_0..a_N are the sums of the sweep's
    # forward powers, set once per exponent, and never come from lhs_sum;
    # r = 1 builds no t row, and its ratio columns are the chain starts. At
    # r >= 3 the closed route and t-closed-agreement both read the ratio
    # columns, and each chain builds its column once
    built = Counter()

    def counted(name, true_fn):
        def fn(*args, **kwargs):
            # r is lhs_sum's second argument, after n
            key = (name, args[1]) if name == "lhs_sum" else (name, args[0])
            built[key] += 1
            return true_fn(*args, **kwargs)

        return fn

    for name in ("lhs_sum", "t_rows"):
        monkeypatch.setattr(cli.core, name, counted(name, getattr(cli.core, name)))

    class CountedInputs(cli.core.RouteInputs):
        def __setattr__(self, name, value):
            if name == "a":
                built["a", self.r] += 1
            super().__setattr__(name, value)

    monkeypatch.setattr(cli.core, "RouteInputs", CountedInputs)
    chain = cli.core._NestChain
    true_column = chain.column

    def counted_column(self, s, odd):
        # a nest column is read only where its ratio column is built
        built["ratio column", 2 * s + odd] += 1
        return true_column(self, s, odd)

    monkeypatch.setattr(chain, "column", counted_column)
    assert cli.main(["verify", "--r-max", "6", "--n-max", "8"]) == 0
    capsys.readouterr()
    assert built == Counter(
        {
            **{("a", r): 1 for r in range(1, 7)},
            **{("t_rows", r): 1 for r in range(2, 7)},
            # one per chain j = 0..8
            **{("ratio column", r): 9 for r in range(1, 7)},
        }
    )


def test_held_central_fault_leaves_the_closed_route_agreeing(monkeypatch, capsys):
    # t-closed-agreement scales both of its sides by the sweep's held central
    # row; the closed route walks its own, so with C(10,5) wrong in the held
    # row the closed-form checks fail at every exponent, the inversion fails
    # on its diagonal at n = 5 and closed still agrees
    def fault(held):
        held.central[5] += 1

    _patch_sweep(monkeypatch, fault)
    code = cli.main(["verify", "--r-max", "4", "--n-max", "6"])
    captured = capsys.readouterr()
    assert code == 1
    fails = [line for line in captured.err.splitlines() if line.startswith("FAIL")]
    for r in (2, 3, 4):
        assert any(f"(r={r}, n=5, j=" in line for line in fails), (r, fails)
    assert [line for line in fails if "inversion" in line] == [
        "FAIL Legendre inversion fails witness=(n=5, k=5)"
    ]
    kinds = {line.partition(" witness=")[0] for line in fails}
    assert kinds == {"FAIL closed form disagrees", "FAIL Legendre inversion fails"}
    assert not [line for line in fails if "closed route disagrees" in line]
    assert "Traceback" not in captured.err


def test_closed_central_fault_leaves_every_other_check_clean(monkeypatch, capsys):
    # the reverse of test_held_central_fault_leaves_the_closed_route_agreeing:
    # C(10,5) negated in the central row that the closed route walks for its
    # weights, and in no other. The closed route divides by nothing, so its
    # values can only disagree, and every check that reads the held rows,
    # t-closed-agreement included, must stay clean. The weight
    # C(10,5)^(r-1) keeps the sign at even r only, and r = 2 sums Franel's
    # cubes, so the route disagrees at r = 4 alone
    true_closed, true_central = cli.core.ROUTES["closed"], cli.core._central_row

    def negated_central(n):
        row = true_central(n)
        row[5] = -row[5]
        return row

    def faulty_closed(inputs):
        with monkeypatch.context() as patch:
            patch.setattr(cli.core, "_central_row", negated_central)
            return true_closed(inputs)

    monkeypatch.setitem(cli.core.ROUTES, "closed", faulty_closed)
    code = cli.main(["verify", "--r-max", "4", "--n-max", "6"])
    captured = capsys.readouterr()
    assert code == 1
    fails = [line for line in captured.err.splitlines() if line.startswith("FAIL")]
    assert fails == [
        "FAIL closed route disagrees with definition witness=(r=4, n=5)",
        "FAIL closed route disagrees with definition witness=(r=4, n=6)",
    ]
    assert "Traceback" not in captured.err


def test_compute_holds_one_nest_chain_at_a_time(monkeypatch, capsys):
    # a single exponent's closed route builds the chain at j, reads its ratio
    # column and drops the chain before the one at j + 1 is built, so however
    # large n_max is, one chain, O(n_max) integers, is alive at a time. Each
    # column is added into the partial sums and dropped as the next forms, so
    # at most two columns are alive, not the whole ratio table
    live, alive_at_build = weakref.WeakSet(), []
    live_columns, columns_at_build = weakref.WeakSet(), []
    chain = cli.core._NestChain
    true_init, true_ratios = chain.__init__, chain.ratios

    def tracked_init(self, j, n_max):
        true_init(self, j, n_max)
        live.add(self)
        alive_at_build.append(len(live))

    class Column(list):  # a list that a WeakSet can track, hashed by identity
        __hash__ = object.__hash__

    def tracked_ratios(self, r):
        column = Column(true_ratios(self, r))
        live_columns.add(column)
        columns_at_build.append(len(live_columns))
        return column

    monkeypatch.setattr(chain, "__init__", tracked_init)
    monkeypatch.setattr(chain, "ratios", tracked_ratios)
    for r in (3, 4, 7):
        assert cli.main(["compute", "--r", str(r), "--n-max", "20", "--routes", "closed"]) == 0
        assert capsys.readouterr().out == " ".join(map(str, cli.core.c_by_definition(r, 20))) + "\n"
    assert alive_at_build == [1] * 63
    assert len(columns_at_build) == 63
    assert max(columns_at_build) <= 2


@pytest.mark.parametrize(
    "edit, n", [(lambda values: values[:-1], 4), (lambda values: [*values, 0], 5)],
    ids=["truncated", "extended"],
)
def test_route_of_wrong_length_fails_at_each_unmatched_order(monkeypatch, capsys, edit, n):
    # every index of the longer list is a check, so a closed route that drops
    # its last value, or appends one, fails at that order in compute and at
    # every exponent of verify, where the shorter list has no entry
    true_closed = cli.core.ROUTES["closed"]
    monkeypatch.setitem(cli.core.ROUTES, "closed", lambda inputs: edit(true_closed(inputs)))
    code = cli.main(["compute", "--r", "3", "--n-max", "4"])
    captured = capsys.readouterr()
    assert code == 1
    fails = [line for line in captured.err.splitlines() if line.startswith("FAIL")]
    assert fails == [f"FAIL closed route disagrees with definition witness=(r=3, n={n})"]
    assert "Traceback" not in captured.err

    code = cli.main(["verify", "--r-max", "3", "--n-max", "4"])
    captured = capsys.readouterr()
    assert code == 1
    fails = [line for line in captured.err.splitlines() if line.startswith("FAIL")]
    assert fails == [
        f"FAIL closed route disagrees with definition witness=(r={r}, n={n})" for r in (1, 2, 3)
    ]
    # 60 checks with the route intact; an appended value is one more at each r
    assert captured.out.splitlines()[-1] == f"3 of {60 + 3 * (n - 4)} checks FAILED"
    assert "Traceback" not in captured.err


def test_verify_chains_each_nest_once(monkeypatch, capsys):
    # a sweep to r = 12 runs, per j, the odd chain's band levels for
    # r = 3, 5, ..., 11 and one outer level for each of r = 2, 4, ..., 12,
    # where building each column afresh runs s - 1 levels and the outer one
    # per exponent
    levels = Counter()
    true_level = cli.core._nest_level

    def counted_level(kernel, weights, chain):
        owner = sys._getframe(1).f_locals["self"]
        levels[owner.j, "band" if kernel is owner.band[0] else "outer"] += 1
        return true_level(kernel, weights, chain)

    monkeypatch.setattr(cli.core, "_nest_level", counted_level)
    assert cli.main(["verify", "--r-max", "12", "--n-max", "10"]) == 0
    capsys.readouterr()
    assert levels == Counter({**{(j, "band"): 5 for j in range(11)},
                              **{(j, "outer"): 6 for j in range(11)}})


def _faulty_verify(monkeypatch, capsys, argv, whole):
    # one verify run, with the whole-row shortcut (whole) or every row walked
    # entry by entry; its stdout and FAIL lines
    if not whole:
        monkeypatch.setattr(cli.Report, "check_whole", lambda self, ok, count: False)
    code = cli.main(argv)
    captured = capsys.readouterr()
    monkeypatch.undo()
    assert code == 1
    assert "Traceback" not in captured.err
    return captured.out, [line for line in captured.err.splitlines() if line.startswith("FAIL")]


def _wrong_route_value(monkeypatch):
    true_closed = cli.core.ROUTES["closed"]

    def faulty_closed(inputs):
        values = true_closed(inputs)
        if inputs.r == 3:
            values[4] += 1
        return values

    monkeypatch.setitem(cli.core.ROUTES, "closed", faulty_closed)


def _wrong_t_entry(monkeypatch):
    true_rows = cli.core.t_rows

    def faulty_rows(r, n_max, **held):
        rows = true_rows(r, n_max, **held)
        if r == 4:
            rows[5][2] += 1
        return rows

    monkeypatch.setattr(cli.core, "t_rows", faulty_rows)


def _wrong_held_ratio(monkeypatch):
    def fault(held):
        held.central[3] += 1

    _patch_sweep(monkeypatch, fault)


def _wrong_inversion_entry(monkeypatch):
    def fault(held):
        held.inverse[4][2] += 1

    _patch_sweep(monkeypatch, fault)


@pytest.mark.parametrize(
    "fault, witness",
    [
        (_wrong_route_value, "FAIL closed route disagrees with definition witness=(r=3, n=4)"),
        (_wrong_t_entry, "FAIL closed form disagrees witness=(r=4, n=5, j=2)"),
        (_wrong_held_ratio, "FAIL closed form disagrees witness=(r=2, n=3, j=2)"),
        (_wrong_inversion_entry, "FAIL Legendre inversion fails witness=(n=4, k=2)"),
    ],
    ids=["route-value", "t-entry", "held-ratio", "inversion-entry"],
)
@pytest.mark.parametrize("fmt", cli.FORMATS)
def test_whole_row_checks_match_the_entry_walk(fault, witness, fmt, monkeypatch, capsys):
    # every group compares whole lists and walks their entries only on a
    # mismatch, so a fault must give the report,
    # counts and witnesses in order, that walking every entry gives
    argv = ["verify", "--r-max", "5", "--n-max", "6", "--format", fmt]
    fault(monkeypatch)
    whole = _faulty_verify(monkeypatch, capsys, argv, whole=True)
    fault(monkeypatch)
    walked = _faulty_verify(monkeypatch, capsys, argv, whole=False)
    assert whole == walked
    assert witness in whole[1]


@pytest.mark.parametrize(
    "argv",
    [["t-table", "--r", "3", "--n-max", "30"], ["verify", "--r-max", "3", "--n-max", "4"]],
    ids=["t-table", "verify"],
)
def test_json_document_is_written_in_chunks(argv, monkeypatch):
    # the document is streamed from the encoder, never built as one string,
    # and the chunks join to exactly what json.dumps would have printed
    class Recorder(io.StringIO):
        def __init__(self):
            super().__init__()
            self.sizes = []

        def write(self, text):
            self.sizes.append(len(text))
            return super().write(text)

    out = Recorder()
    monkeypatch.setattr(sys, "stdout", out)
    monkeypatch.setattr(sys, "stderr", io.StringIO())
    assert cli.main([*argv, "--format", "json"]) == 0
    text = out.getvalue()
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
    assert len(out.sizes) > 10
    assert max(out.sizes) < len(text) / 10


@pytest.mark.parametrize("r_max", [0, 1])
def test_verify_below_r2_builds_no_chain_or_column_base(r_max, monkeypatch, capsys):
    # the columns C(k+j, 2j) are read only from r = 2 on, so a sweep that
    # stops below it builds none; the nest chains are read from r = 1 on,
    # where each reads only its C(n, j) column and walks no kernel and no
    # stretched column. A sweep that goes on builds each once
    built, chains = Counter(), []
    true_init, true_bases = cli.core._NestChain.__init__, cli.core._column_bases

    def counting_init(self, *args):
        built["chain"] += 1
        chains.append(self)
        true_init(self, *args)

    def counting_bases(*args):
        built["bases"] += 1
        return true_bases(*args)

    monkeypatch.setattr(cli.core._NestChain, "__init__", counting_init)
    monkeypatch.setattr(cli.core, "_column_bases", counting_bases)
    assert cli.main(["verify", "--r-max", str(r_max), "--n-max", "12"]) == 0
    assert built == (Counter(chain=13) if r_max else Counter())
    for chain in chains:
        assert not {"band", "stretched", "outer"} & set(vars(chain)), chain.j
    built.clear()
    assert cli.main(["verify", "--r-max", "3", "--n-max", "12"]) == 0
    assert built == Counter(chain=13, bases=1)
    capsys.readouterr()


def test_verify_closed_columns_failure_is_one_witness(monkeypatch, capsys):
    # a closed build that fails at one exponent is one witness; that exponent
    # skips its closed checks, and every other exponent is still checked
    true_columns = cli.core.closed_ratio_columns

    def failing_at_four(r, n_max, chains=None):
        if r == 4:
            raise DivisibilityError(7, 2)
        return true_columns(r, n_max, chains)

    monkeypatch.setattr(cli.core, "closed_ratio_columns", failing_at_four)
    code = cli.main(["verify", "--r-max", "5", "--n-max", "6"])
    captured = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in captured.err
    fails = [line for line in captured.err.splitlines() if line.startswith("FAIL")]
    assert fails == ["FAIL closed route non-integral witness=(r=4): 2 does not divide 7"]
    assert captured.out.splitlines() == [
        "legendre-inversion: 28 checks",
        # 7 closed-route checks at each of r = 1, 2, 3, 5 and the failed route
        "route-agreement: 29 checks",
        # 28 at each of r = 2, 3, 5
        "t-closed-agreement: 84 checks",
        "1 of 141 checks FAILED",
    ]



# The fault matrix: every primitive that more than one reader shares, in the
# module that defines it, with the arguments of the one call it gets wrong
# and the checks of `verify --r-max 6 --n-max 12` whose FAIL lines must then
# show. The README's route-by-primitive table reads off the same matrix; a
# new shared primitive joins it here.
_SHARED_PRIMITIVES = {
    "_binomial_row(9)": (
        combinatorics, "_binomial_row", lambda *args: args == (9,),
        {"closed route disagrees with definition"},
    ),
    "_binomial_column(top=14)": (
        combinatorics, "_binomial_column", lambda top, k: top == 14,
        {"closed form disagrees"},
    ),
    "_central_row(12)": (
        combinatorics, "_central_row", lambda n: n == 12,
        {"Legendre inversion fails", "closed route disagrees with definition",
         "closed form disagrees"},
    ),
    "_forward_row(7)": (
        legendre, "_forward_row", lambda n: n == 7,
        {"Legendre inversion fails", "definition route non-integral"},
    ),
    "_inverse_row(7)": (
        legendre, "_inverse_row", lambda n: n == 7,
        {"Legendre inversion fails", "closed form disagrees"},
    ),
    "binomial(9,4)": (
        combinatorics, "binomial", lambda n, k: (n, k) == (9, 4),
        {"Legendre inversion fails", "definition route non-integral"},
    ),
    "exact_divide(>10**6)": (
        combinatorics, "exact_divide", lambda a, b: abs(a) > 10**6,
        {"definition route non-integral", "closed route disagrees with definition"},
    ),
}


@pytest.mark.parametrize("primitive", list(_SHARED_PRIMITIVES))
def test_shared_primitive_fault_fails_verify(primitive, monkeypatch, capsys):
    # the last entry of every call with the given arguments is one too large,
    # in every module of the package that bound the name, so that each
    # reader sees the same wrong value; verify must still exit 1 with a
    # witness, since no shared primitive may make every route agree
    home, name, hit, kinds = _SHARED_PRIMITIVES[primitive]
    true_fn = getattr(home, name)

    def faulty(*args):
        value = true_fn(*args)
        if not hit(*args):
            return value
        if isinstance(value, list):
            return [*value[:-1], value[-1] + 1]
        return value + 1

    # shared: defined in one module, read from another
    assert len(_patch_everywhere(monkeypatch, name, true_fn, faulty)) > 1
    code = cli.main(["verify", "--r-max", "6", "--n-max", "12"])
    captured = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in captured.err
    fails = [line for line in captured.err.splitlines() if line.startswith("FAIL ")]
    assert fails
    assert {line[len("FAIL "):].partition(" witness=")[0] for line in fails} == kinds


# Every shared primitive whose calls the exhaustive scan below records, by the
# module that defines it
_SCANNED_PRIMITIVES = (
    (combinatorics, "_binomial_row"),
    (combinatorics, "_binomial_column"),
    (combinatorics, "_central_row"),
    (combinatorics, "binomial"),
    (legendre, "_forward_row"),
    (legendre, "_inverse_row"),
)


def _verify_fingerprint(monkeypatch, argv):
    # verify's exit code, and every pair of lists it compared: each route it
    # runs, the t rows, the closed columns and the inversion products all
    # reach _agree as one side of a comparison, so these pairs are every
    # value the sweep computes
    compared = []
    true_agree = cli._agree

    def recording_agree(report, got, expected, *rest):
        compared.append((list(got), list(expected)))
        true_agree(report, got, expected, *rest)

    with monkeypatch.context() as patch:
        patch.setattr(cli, "_agree", recording_agree)
        code = cli.main(argv)
    return code, compared


@pytest.mark.parametrize(
    "r_max, n_max, entries",
    [(6, 12, lambda size: {0, size // 2, size - 1}), (5, 10, range)],
    ids=["first-middle-last", "every-entry"],
)
def test_every_single_entry_fault_fails_verify_or_changes_nothing(
    r_max, n_max, entries, monkeypatch, capsys
):
    # Each argument tuple with which the sweep calls a shared primitive, with
    # one entry of its result one too large (a scalar is its own one entry),
    # in every module that bound the name: verify must exit 1, or compute
    # exactly what it computes unfaulted, so that no single wrong entry can
    # make every check pass on wrong values
    argv = ["verify", "--r-max", str(r_max), "--n-max", str(n_max)]
    true_fns = {name: getattr(home, name) for home, name in _SCANNED_PRIMITIVES}
    calls = {}  # (name, args) -> the length of the list it returned, None for a scalar
    with monkeypatch.context() as patch:
        for name, true_fn in true_fns.items():
            def recording(*args, name=name, true_fn=true_fn):
                value = true_fn(*args)
                calls[name, args] = len(value) if isinstance(value, list) else None
                return value

            _patch_everywhere(patch, name, true_fn, recording)
        clean = _verify_fingerprint(monkeypatch, argv)
    assert clean[0] == 0

    blind, caught = [], set()
    for (name, args), size in calls.items():
        for i in [None] if size is None else sorted(entries(size)):
            def faulty(*call, true_fn=true_fns[name], args=args, i=i):
                value = true_fn(*call)
                if call != args:
                    return value
                if i is None:
                    return value + 1
                value[i] += 1
                return value

            with monkeypatch.context() as patch:
                _patch_everywhere(patch, name, true_fns[name], faulty)
                result = _verify_fingerprint(monkeypatch, argv)
            capsys.readouterr()
            if result[0] == 1:
                caught.add(name)
            elif result != clean:
                blind.append((name, args, i))
    assert blind == []
    # the faults took effect: some fault in each primitive the sweep calls fails it
    assert caught == {name for name, _ in calls}


def test_main_returns_zero_in_process():
    assert cli.main(["compute", "--r", "2", "--n-max", "3"]) == 0


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
    assert (tmp_path / "t.json").exists()
