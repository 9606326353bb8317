"""Command-line front end for the Schmidt number computations.

Commands:
    compute     c_0..c_n for one exponent, by one or more independent routes
    t-table     the inner numbers t(n, j) with their scaled integral ratios
    verify      exhaustive route-agreement and integrality sweep
    identities  seeded random checks of the classical summation identities

Every command fills one `Report`, and `_emit` prints it in the chosen
format. Results go to stdout, also when a check fails; diagnostics, failure
witnesses and timing go to stderr, which ends with `elapsed N ms`. Exit
codes: 0 every check passed, 1 a mathematical check failed, 2 bad usage,
141 stdout or stderr was closed before the whole report was written
(`... | head`).
For a fixed seed the stdout report is byte-identical across runs; elapsed
time is only ever written to stderr.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import random
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from . import core
from . import hypergeometric as hyp
from .combinatorics import DivisibilityError, exact_divide
from .legendre import legendre_forward, legendre_inverse, triangular_solve

ROUTES = ("definition", "inverse", "closed")
FORMATS = ("plain", "json", "csv")


@dataclass
class Report:
    """One command's outcome, held once for all three output formats.

    `results` is the JSON `results` object, `table` the CSV header and rows,
    and `lines` the plain output. `notes` are informational stderr lines.
    Each group is (name, checks, elapsed ms); the times go to stderr only.
    """

    results: dict = field(default_factory=dict)
    table: list[tuple] = field(default_factory=list)
    lines: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    checks_run: int = 0
    groups: dict[str, list] = field(default_factory=dict)
    failures: list[dict[str, str]] = field(default_factory=list)

    def fail(self, description: str, witness: str) -> None:
        self.failures.append({"description": description, "witness": witness})

    def check(self, ok: bool, description: str, witness: str) -> None:
        self.checks_run += 1
        if not ok:
            self.fail(description, witness)


@contextmanager
def _group(report: Report, name: str):
    before = report.checks_run
    start = time.perf_counter()
    yield
    entry = report.groups.setdefault(name, [0, 0.0])
    entry[0] += report.checks_run - before
    entry[1] += time.perf_counter() - start


def summarize_groups(report: Report) -> None:
    """Fill the three renderings of a check sweep from its group counts."""
    counts = [(name, count) for name, (count, _) in report.groups.items()]
    report.results = {
        "checks_run": report.checks_run,
        "groups": [{"name": name, "checks": count} for name, count in counts],
    }
    report.table = [("group", "checks"), *counts]
    report.lines = [f"{name}: {count} checks" for name, count in counts]
    if report.failures:
        report.lines.append(f"{len(report.failures)} of {report.checks_run} checks FAILED")
    else:
        report.lines.append(f"all {report.checks_run} checks passed")


def _emit(command: str, params: dict, report: Report, elapsed_ms: int) -> int:
    if params["format"] == "json":
        doc = {
            "command": command,
            "params": params,
            "results": report.results,
            "failures": report.failures,
        }
        out = [json.dumps(doc, indent=2)]
    elif params["format"] == "csv":
        out = [",".join(map(str, row)) for row in report.table]
    else:
        out = report.lines
    err = [*report.notes]
    err += [f"FAIL {fail['description']} witness={fail['witness']}" for fail in report.failures]
    err += [f"time {name}: {int(sec * 1000)} ms" for name, (_, sec) in report.groups.items()]
    err.append(f"elapsed {elapsed_ms} ms")
    code = 1 if report.failures else 0
    for stream, lines in ((sys.stdout, out), (sys.stderr, err)):
        try:
            for line in lines:
                print(line, file=stream)
            # a small report sits in the buffer until this flush; unflushed,
            # a closed pipe would only fail at interpreter shutdown, past
            # this guard
            stream.flush()
        except BrokenPipeError:
            # the reader went away; point the stream at devnull so that the
            # shutdown flush of what is still buffered cannot raise again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, stream.fileno())
            os.close(devnull)
            code = 141
    return code


def _route_values(route: str, r: int, n_max: int, lhs: Callable[[], list[int]]) -> list[int]:
    if route == "definition":
        return triangular_solve(lhs())
    if route == "inverse":
        a = lhs()
        values = []
        for n in range(n_max + 1):
            c_n = legendre_inverse(a, n)
            values.append(exact_divide(c_n.numerator, c_n.denominator))
        return values
    if route == "closed":
        return core.c_closed(r, n_max)
    raise ValueError(f"unknown route {route!r}")


def run_compute(args: argparse.Namespace) -> Report:
    report = Report()
    # a_0..a_N is built once, inside the first route group that needs it, and
    # definition and inverse read the same list; closed never reads it, so a
    # fault in a_n still shows up as a disagreement with closed
    lhs = functools.cache(lambda: [core.lhs_sum(n, args.r) for n in range(args.n_max + 1)])
    per_route: dict[str, list[int]] = {}
    for route in args.routes:
        with _group(report, route):
            try:
                per_route[route] = _route_values(route, args.r, args.n_max, lhs)
            except DivisibilityError as exc:
                report.fail(f"{route} route produced a non-integer", str(exc))
    reference_route = args.routes[0]
    if not report.failures:
        reference = per_route[reference_route]
        for route in args.routes[1:]:
            for n, (x, y) in enumerate(zip(reference, per_route[route])):
                if x != y:
                    report.fail(
                        f"routes {reference_route} and {route} disagree",
                        f"(r={args.r}, n={n}): {x} != {y}",
                    )
                    break

    digits = {route: [str(v) for v in values] for route, values in per_route.items()}
    report.results = {
        "routes": [
            {"route": route, "values": [{"n": n, "c": c} for n, c in enumerate(values)]}
            for route, values in digits.items()
        ],
        "routes_agree": not report.failures,
    }
    if report.failures:
        report.table = [("n", "route", "c")] + [
            (n, route, c) for route, values in digits.items() for n, c in enumerate(values)
        ]
        report.lines = [f"{route}: " + " ".join(values) for route, values in digits.items()]
    else:
        report.table = [("n", "c"), *enumerate(digits[reference_route])]
        report.lines = [" ".join(digits[reference_route])]
    return report


def run_t_table(args: argparse.Namespace) -> Report:
    report = Report()
    try:
        values = core.t_table(args.r, args.n_max)
    except DivisibilityError as exc:
        report.fail("scaled inner number non-integral", str(exc))
        values = []
    header = ("n", "j", "t", "ratio")
    rows = [(v.n, v.j, str(v.value), str(v.ratio)) for v in values]
    report.results = {"rows": [dict(zip(header, row)) for row in rows]}
    report.table = [header, *rows]
    # t_table yields the rows n by n, so one pass groups them
    for n, group in itertools.groupby(rows, key=lambda row: row[0]):
        _, _, ts, ratios = zip(*group)
        report.lines.append(f"n={n}: t = {' '.join(ts)} ; ratio = {' '.join(ratios)}")
    return report


def _checked_equal(report: Report, description: str, witness: str, fn, expected) -> None:
    try:
        report.check(fn() == expected, description, witness)
    except DivisibilityError as exc:
        report.check(False, f"{description} (non-integral)", f"{witness}: {exc}")


def _build(report: Report, what: str, r: int, build):
    """build(), or None after one failed check if it raised DivisibilityError."""
    try:
        return build()
    except DivisibilityError as exc:
        report.check(False, f"{what} non-integral", f"(r={r}): {exc}")
        return None


def _verify_exponent(report: Report, r: int, n_max: int) -> None:
    # Exponent r's solve, t-rows and closed rows are built once, in the first
    # group, read by every group and dropped on return, so a sweep holds one
    # exponent's rows, O(n_max^2) integers. The oracles never read the closed
    # rows, so a fault in either still shows as a disagreement. A build that
    # failed is reported once, and the checks of its route are skipped.
    with _group(report, "route-agreement"):
        rows = core.t_rows(r, n_max)
        oracle = _build(report, "defining solve", r, lambda: core.c_by_definition(r, n_max))
        closed = _build(report, "closed rows", r, lambda: list(core.t_closed_rows(r, n_max)))
        for n, expected in enumerate(oracle or ()):
            _checked_equal(
                report, "inner-sum route disagrees", f"(r={r}, n={n})",
                lambda: core.c_from_t(n, r, rows[n]), expected,
            )
            if closed:
                _checked_equal(
                    report, "closed route disagrees", f"(r={r}, n={n})",
                    lambda: core.c2_closed(n) if r == 2 else core.c_from_t(n, r, closed[n]),
                    expected,
                )

    with _group(report, "ratio-integrality"):
        for n, row in enumerate(rows):
            for j in range(n + 1):
                try:
                    core.integrality_ratio(n, j, r, row)
                    report.check(True, "", "")
                except DivisibilityError as exc:
                    report.check(
                        False, "scaled inner number non-integral",
                        f"(r={r}, n={n}, j={j}): {exc}",
                    )

    with _group(report, "n-independence"):
        for n in range(n_max + 1) if oracle else ():
            report.check(
                legendre_forward(oracle, n) == core.lhs_sum(n, r),
                "defining identity fails", f"(r={r}, n={n})",
            )

    with _group(report, "t-closed-agreement"):
        for n, closed_row in enumerate(closed or ()):
            for j, value in enumerate(closed_row):
                report.check(
                    value == rows[n][j], "closed form disagrees", f"(r={r}, n={n}, j={j})"
                )


def run_verify(args: argparse.Namespace) -> Report:
    # registered up front, so a sweep with r_max < 2 still reports each group
    groups = ("route-agreement", "ratio-integrality", "n-independence", "t-closed-agreement")
    report = Report(groups={name: [0, 0.0] for name in groups})
    n_max = args.n_max
    for r in range(2, args.r_max + 1):
        _verify_exponent(report, r, n_max)

    if args.r_max >= 1:
        with _group(report, "trivial-exponent"):
            _checked_equal(
                report, "exponent-1 family is not all ones", f"(n_max={n_max})",
                lambda: core.c_by_definition(1, n_max), [1] * (n_max + 1),
            )
        # informational only: the scaled ratios at r=1 are reported, never asserted
        integral = total = 0
        for n, row in enumerate(core.t_rows(1, n_max)):
            for j in range(n + 1):
                total += 1
                try:
                    core.integrality_ratio(n, j, 1, row)
                    integral += 1
                except DivisibilityError:
                    pass
        report.notes.append(
            f"note: r=1 scaled ratios integral for {integral}/{total} pairs (not asserted)"
        )

    summarize_groups(report)
    return report


# Fixed pole-free parameter sets for the structural reduction checks; these
# run even with --trials 0 so the reduction chain is always exercised.
_FIXED_SPECS = (
    hyp.WellPoisedSpec(Fraction(1, 2), ((Fraction(1, 3), Fraction(1, 4)),), 2),
    hyp.WellPoisedSpec(
        Fraction(-7, 2), ((Fraction(1, 2), Fraction(-1, 3)), (Fraction(2, 5), Fraction(1))), 3
    ),
    hyp.WellPoisedSpec(
        Fraction(3),
        ((Fraction(1, 6), Fraction(-2, 3)), (Fraction(1, 2), Fraction(5, 6)),
         (Fraction(-1, 4), Fraction(2))),
        2,
    ),
)


def _spec_witness(spec: hyp.WellPoisedSpec) -> str:
    pairs = ", ".join(f"({b}, {c})" for b, c in spec.pairs)
    return f"(a={spec.a}, pairs=[{pairs}], m={spec.m})"


# What Andrews's nest reduces to at s = 1 and s = 2
_REDUCTIONS = {1: "5F4 evaluation", 2: "7F6 transform"}


def _reduces(spec: hyp.WellPoisedSpec) -> bool:
    """Does Andrews's value equal Dougall's evaluation (s = 1) or Whipple's transform (s = 2)?"""
    value = hyp._andrews_pair(spec)
    a, _, *flat, _ = spec._numerator_pairs
    closed = hyp._prefactor_pair if spec.s == 1 else hyp._whipple_pair
    return hyp._equal(value, closed(a, *flat, spec.m))


def _identity_check(report: Report, description: str, witness: Callable[[], str], fn) -> None:
    # the witness is formatted only for a check that fails: ~2,100 checks
    # pass per benchmark-size run
    try:
        ok, pole = fn(), ""
    except hyp.PoleError as exc:
        ok, pole = False, f": pole: {exc}"
    report.check(ok, description, "" if ok else witness() + pole)


def run_identities(args: argparse.Namespace) -> Report:
    report = Report()

    with _group(report, "structural-reductions"):
        for spec in _FIXED_SPECS:
            if spec.s in _REDUCTIONS:
                _identity_check(
                    report, f"s={spec.s} nest does not reduce to the {_REDUCTIONS[spec.s]}",
                    lambda: _spec_witness(spec), lambda: _reduces(spec),
                )
            _identity_check(
                report, f"s={spec.s} multiple transformation failed",
                lambda: _spec_witness(spec), lambda: hyp.check_andrews(spec),
            )

    with _group(report, "dougall"):
        rng = random.Random(f"{args.seed}/dougall")
        for _ in range(args.trials):
            a, c, d, m = hyp.sample_dougall(rng, args.m_max)
            _identity_check(
                report, "5F4 summation failed", lambda: f"(a={a}, c={c}, d={d}, m={m})",
                lambda: hyp.check_dougall(a, c, d, m),
            )

    with _group(report, "whipple"):
        rng = random.Random(f"{args.seed}/whipple")
        for _ in range(args.trials):
            a, b, c, d, e, m = hyp.sample_whipple(rng, args.m_max)
            _identity_check(
                report, "7F6 transformation failed",
                lambda: f"(a={a}, b={b}, c={c}, d={d}, e={e}, m={m})",
                lambda: hyp.check_whipple(a, b, c, d, e, m),
            )

    for s in (1, 2, 3):
        with _group(report, f"andrews-s{s}"):
            rng = random.Random(f"{args.seed}/andrews/{s}")
            for _ in range(args.trials):
                spec = hyp.sample_well_poised(rng, s, args.m_max)
                _identity_check(
                    report, f"multiple transformation failed at s={s}",
                    lambda: _spec_witness(spec), lambda: hyp.check_andrews(spec),
                )

    with _group(report, "reduction-chain"):
        rng = random.Random(f"{args.seed}/reduction")
        for _ in range(args.trials):
            for s, reduction in _REDUCTIONS.items():
                spec = hyp.sample_well_poised(rng, s, args.m_max)
                _identity_check(
                    report, f"s={s} reduction disagrees with the {reduction}",
                    lambda: _spec_witness(spec), lambda: _reduces(spec),
                )

    summarize_groups(report)
    return report


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _seed(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in 64 unsigned bits")
    return value


def _routes(text: str) -> tuple[str, ...]:
    parts = tuple(part.strip() for part in text.split(",") if part.strip())
    if not parts:
        raise argparse.ArgumentTypeError("need at least one route")
    for part in parts:
        if part not in ROUTES:
            raise argparse.ArgumentTypeError(
                f"unknown route {part!r}; choose from {', '.join(ROUTES)}"
            )
        if parts.count(part) > 1:
            raise argparse.ArgumentTypeError(f"route {part!r} given more than once")
    return parts


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="schmidt", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="print c_0..c_n for one exponent")
    compute.add_argument("--r", type=_positive_int, required=True, help="exponent, >= 1")
    compute.add_argument("--n-max", type=_non_negative_int, default=12)
    compute.add_argument(
        "--routes", type=_routes, default=ROUTES,
        help="comma-separated subset of definition,inverse,closed",
    )

    t_table = sub.add_parser("t-table", help="print the inner numbers and scaled ratios")
    t_table.add_argument("--r", type=_positive_int, required=True, help="exponent, >= 1")
    t_table.add_argument("--n-max", type=_non_negative_int, default=12)

    verify = sub.add_parser("verify", help="exhaustive route-agreement and integrality sweep")
    verify.add_argument("--r-max", type=_non_negative_int, default=8)
    verify.add_argument("--n-max", type=_non_negative_int, default=12)

    identities = sub.add_parser("identities", help="seeded random identity checks")
    identities.add_argument("--trials", type=_non_negative_int, default=100)
    identities.add_argument("--m-max", type=_non_negative_int, default=5)
    identities.add_argument("--seed", type=_seed, default=0)

    for command in (compute, t_table, verify, identities):
        command.add_argument("--format", choices=FORMATS, default="plain")
    return parser


_RUNNERS = {
    "compute": run_compute,
    "t-table": run_t_table,
    "verify": run_verify,
    "identities": run_identities,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    report = _RUNNERS[args.command](args)
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    params = {name: value for name, value in vars(args).items() if name != "command"}
    return _emit(args.command, params, report, elapsed_ms)


if __name__ == "__main__":
    sys.exit(main())
