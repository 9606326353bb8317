"""Command-line front end for the Schmidt number computations.

Commands:
    compute     c_0..c_n for one exponent, by one or more independent routes
    t-table     the inner numbers t(n, j) with their scaled integral ratios
    verify      the Legendre inversion once, then at each r = 1..r-max closed
                against definition and C(2j,j) t(n, j, r) = C(2n,n) ratio
    identities  seeded random checks of the classical summation identities

Every command fills one `Report` with its rows, or a sweep's group counts;
`_render` builds only the chosen format, and `_emit` writes it. Results go
to stdout, also when a check fails; diagnostics, failure witnesses and
timing go to stderr, which ends with `elapsed N ms`. Exit codes: 0 every
check passed, 1 a mathematical check failed, 2 bad usage, 141 stdout or
stderr was closed before the whole report was written (`... | head`).
For a fixed seed the stdout report is byte-identical across runs; elapsed
time is only ever written to stderr.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from operator import getitem, mul
from typing import Iterable

from . import core
from . import hypergeometric as hyp
from .combinatorics import DivisibilityError

# what `compute` runs without --routes; every key of core.ROUTES is accepted
DEFAULT_ROUTES = ("definition", "inverse", "closed")
FORMATS = ("plain", "json", "csv")


@dataclass
class Report:
    """One command's outcome: its table once, with big integers as decimal strings.

    `rows` holds one tuple per CSV line under the column names in `header`.
    A check sweep leaves both empty and is rendered from `groups`, each
    (name, checks, elapsed seconds); the times go to stderr only. A witness
    given with `fields` is a format string, filled in only for a check that
    fails.
    """

    header: tuple[str, ...] = ()
    rows: list[tuple] = field(default_factory=list)
    checks_run: int = 0
    groups: dict[str, list] = field(default_factory=dict)
    failures: list[dict[str, str]] = field(default_factory=list)

    def fail(self, description: str, witness: str) -> None:
        self.failures.append({"description": description, "witness": witness})

    def check(self, ok: bool, description: str, witness: str, *fields) -> None:
        self.checks_run += 1
        if not ok:
            self.fail(description, witness.format(*fields) if fields else witness)

    def check_whole(self, ok: bool, count: int) -> bool:
        """`count` checks at once, which all pass if `ok`, a verdict on a whole row.

        Returns `ok`; on False nothing is counted, and the caller walks the
        row entry by entry with `check`, so that every count and witness is
        that of the walk.
        """
        if ok:
            self.checks_run += count
        return ok


@contextmanager
def _group(report: Report, name: str):
    before = report.checks_run
    start = time.perf_counter()
    yield
    entry = report.groups.setdefault(name, [0, 0.0])
    entry[0] += report.checks_run - before
    entry[1] += time.perf_counter() - start


def _lines(lines: Iterable[str]) -> Iterable[str]:
    return (line + "\n" for line in lines)


def _render(command: str, params: dict, report: Report) -> Iterable[str]:
    """The stdout text of `report` in params["format"], the only format built, chunk by chunk.

    CSV is `header` then `rows`, with a sweep's group counts as its rows; the
    JSON `results` object and the plain lines are formed from the same rows.
    The JSON document comes straight from the encoder's chunks, so it is
    never held as one string.
    """
    header, rows, fmt = report.header, report.rows, params["format"]
    if not header:
        header = ("group", "checks")
        rows = [(name, count) for name, (count, _) in report.groups.items()]
    if fmt == "csv":
        return _lines(",".join(map(str, row)) for row in (header, *rows))
    if command == "t-table":
        if fmt == "json":
            results = {"rows": [dict(zip(header, row)) for row in rows]}
        else:
            lines = []
            # the rows run n by n, so one pass groups them
            for n, group in itertools.groupby(rows, key=lambda row: row[0]):
                _, _, ts, ratios = zip(*group)
                lines.append(f"n={n}: t = {' '.join(ts)} ; ratio = {' '.join(ratios)}")
            return _lines(lines)
    elif command == "compute":
        agree = not report.failures
        if agree:  # the one sequence every route computed
            by_route = [(route, rows) for route in params["routes"]]
        else:  # each route that finished, route by route
            by_route = itertools.groupby(rows, key=lambda row: row[1])
        if fmt == "json":
            routes = [
                {"route": route, "values": [{"n": n, "c": c} for n, *_, c in values]}
                for route, values in by_route
            ]
            results = {"routes": routes, "routes_agree": agree}
        elif agree:
            return _lines([" ".join(c for _, c in rows)])
        else:
            return _lines(
                f"{route}: " + " ".join(c for *_, c in values) for route, values in by_route
            )
    elif fmt == "json":
        groups = [{"name": name, "checks": count} for name, count in rows]
        results = {"checks_run": report.checks_run, "groups": groups}
    else:
        verdict = f"all {report.checks_run} checks passed"
        if report.failures:
            verdict = f"{len(report.failures)} of {report.checks_run} checks FAILED"
        return _lines([*(f"{name}: {count} checks" for name, count in rows), verdict])
    doc = {"command": command, "params": params, "results": results, "failures": report.failures}
    return itertools.chain(json.JSONEncoder(indent=2).iterencode(doc), ["\n"])


def _emit(command: str, params: dict, report: Report, elapsed_ms: int) -> int:
    out = _render(command, params, report)
    err = [f"FAIL {fail['description']} witness={fail['witness']}" for fail in report.failures]
    err += [f"time {name}: {int(sec * 1000)} ms" for name, (_, sec) in report.groups.items()]
    err.append(f"elapsed {elapsed_ms} ms")
    code = 1 if report.failures else 0
    for stream, chunks in ((sys.stdout, out), (sys.stderr, _lines(err))):
        try:
            stream.writelines(chunks)
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


def _route(report: Report, name: str, inputs: core.RouteInputs) -> list | None:
    # route `name` on inputs; a DivisibilityError falsifies integrality at r,
    # so it is one failed check, and the caller skips the route's checks at r
    try:
        return core.ROUTES[name](inputs)
    except DivisibilityError as exc:
        report.check(False, f"{name} route non-integral", f"(r={inputs.r}): {exc}")
        return None


def run_compute(args: argparse.Namespace) -> Report:
    report = Report()
    # the routes share one set of inputs, each built in the first group that
    # needs it: definition and inverse read one a_0..a_N; closed never reads
    # it, so a fault in a_n still shows up as a disagreement with closed
    inputs = core.RouteInputs(args.r, args.n_max)
    per_route: dict[str, list[int]] = {}
    for route in args.routes:
        with _group(report, route):
            values = _route(report, route, inputs)
        if values is not None:
            per_route[route] = values
    _compare_routes(report, args.r, per_route)

    # each value is stringified once: the agreed sequence once for all routes
    if report.failures:
        report.header = ("n", "route", "c")
        report.rows = [
            (n, route, str(c)) for route, values in per_route.items() for n, c in enumerate(values)
        ]
    else:
        report.header = ("n", "c")
        report.rows = [(n, str(c)) for n, c in enumerate(per_route[args.routes[0]])]
    return report


def run_t_table(args: argparse.Namespace) -> Report:
    report = Report(header=("n", "j", "t", "ratio"))
    try:
        table = core.t_table(args.r, args.n_max)
    except DivisibilityError as exc:
        report.fail("scaled inner number non-integral", str(exc))
        return report
    report.rows = [(n, j, str(t), str(ratio)) for n, j, t, ratio in table]
    return report


def _agree(report: Report, got: list, expected: list, description: str, witness: str,
           *fields) -> None:
    # one check per entry of the longer list, got[i] == expected[i], with i
    # the witness's last field; an entry one list lacks is None, and fails.
    # The lists are compared whole, and walked only on a mismatch
    if not report.check_whole(got == expected, len(expected)):
        for i, (x, y) in enumerate(itertools.zip_longest(got, expected)):
            report.check(x == y, description, witness, *fields, i)


def _compare_routes(report: Report, r: int, values: dict[str, list | None]) -> None:
    # every route that finished (not None) against the first route that
    # finished, entry by entry, so a route that raised leaves the others
    # still compared with each other
    finished = [(name, got) for name, got in values.items() if got is not None]
    for name, got in finished[1:]:
        reference, expected = finished[0]
        _agree(report, got, expected, f"{name} route disagrees with {reference}", "(r={}, n={})", r)


def _verify_exponent(report: Report, inputs: core.RouteInputs, powers: list | None) -> None:
    # Exponent r's t rows are built once, from its columns `powers`, read by
    # every group that needs them and dropped on return, so a sweep holds one
    # exponent's rows, O(n_max^2) integers, besides its core.Sweep.
    r, n_max, held = inputs.r, inputs.n_max, inputs.held
    with _group(report, "route-agreement"):
        # not the inverse route: the Legendre inversion, checked once per sweep,
        # fixes its agreement with definition for every integer a_n and every r
        values = {name: _route(report, name, inputs) for name in ("definition", "closed")}
        _compare_routes(report, r, values)
    # at r = 1, C(2j,j) t(n, j, 1) = C(2n,n) [j = n] is the Legendre inversion,
    # checked once per sweep; a closed route that failed leaves no ratio columns
    if r == 1 or values["closed"] is None:
        return

    with _group(report, "t-closed-agreement"):
        # the strong integrality, as C(2j,j) t(n, j, r) == C(2n,n) ratio with
        # an integer ratio, so no remainder test is needed. The ratios are
        # the columns that the closed route left in the held chains, each
        # ending at its last nonzero entry and padded here with the zeros
        # past it; both sides are scaled by the held central row
        central = held.central
        columns = list(core.closed_ratio_columns(r, n_max, held.chains))
        columns = [column + [0] * (n_max - j + 1 - len(column)) for j, column in enumerate(columns)]
        rows = core.t_rows(r, n_max, inverse=held.inverse, powers=powers)
        for n, row in enumerate(rows):
            ratios = map(getitem, columns, range(n, -1, -1))  # columns[j][n - j], j = 0..n
            _agree(report, [central[n] * x for x in ratios], list(map(mul, central, row)),
                   "closed form disagrees", "(r={}, n={}, j={})", r, n)


def run_verify(args: argparse.Namespace) -> Report:
    # registered up front, so every sweep reports the same groups, also one with r_max < 2
    groups = ("legendre-inversion", "route-agreement", "t-closed-agreement")
    report = Report(groups={name: [0, 0.0] for name in groups})
    # the inversion (r_max = 0 included) and every exponent read one sweep's
    # r-independent rows, running powers and closed-route chains, built once here
    held = core.Sweep(args.n_max)
    with _group(report, "legendre-inversion"):
        # S F = diag(C(2n,n)) for S[n][k] = (-1)^(n-k) D(n,k), F[n][k] = C(n,k) C(n+k,k):
        # row n of S F is a t row's dot product, over F's columns F[k..N][k]
        columns = [[f[k] for f in held.forward[k:]] for k in range(args.n_max + 1)]
        for n, row in enumerate(held.inverse):
            _agree(report, core._inner_row(row, columns), [0] * n + [held.central[n]],
                   "Legendre inversion fails", "(n={}, k={})", n)
    for inputs, powers in held.exponents(args.r_max):
        _verify_exponent(report, inputs, powers)
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


def _spec_witness(spec: hyp.WellPoisedSpec, names: str) -> str:
    # the spec as its pairs, or with names, as a then b_1, c_1, ... by those names
    if names:
        flat = (spec.a, *(x for pair in spec.pairs for x in pair), spec.m)
        return "(" + ", ".join(f"{name}={x}" for name, x in zip(names + "m", flat)) + ")"
    pairs = ", ".join(f"({b}, {c})" for b, c in spec.pairs)
    return f"(a={spec.a}, pairs=[{pairs}], m={spec.m})"


def _identity_check(report: Report, description: str, check, spec, names: str) -> None:
    # the witness is formatted only for a check that fails: ~2,100 checks
    # pass per benchmark-size run
    try:
        ok, pole = check(spec), ""
    except hyp.PoleError as exc:
        ok, pole = False, f": pole: {exc}"
    report.check(ok, description, "" if ok else _spec_witness(spec, names) + pole)


# The sampled groups in report order: name, random stream, the s of each spec
# drawn per trial, the check's name in hyp (looked up when the group runs, so
# that a replaced check is the one called), its failure description with
# fields s and form, and the witness's parameter names (none: the spec's pairs)
_SAMPLED_GROUPS = (
    ("dougall", "dougall", (1,), "check_classical", "5F4 summation failed", "acd"),
    ("whipple", "whipple", (2,), "check_classical", "7F6 transformation failed", "abcde"),
    *((f"andrews-s{s}", f"andrews/{s}", (s,), "check_andrews",
       "multiple transformation failed at s={s}", "") for s in (1, 2, 3)),
    ("reduction-chain", "reduction", tuple(hyp.CLASSICAL_FORMS), "check_reduction",
     "s={s} reduction disagrees with the {form}", ""),
)


def run_identities(args: argparse.Namespace) -> Report:
    report = Report()

    with _group(report, "structural-reductions"):
        for spec in _FIXED_SPECS:
            if spec.s in hyp.CLASSICAL_FORMS:
                form = hyp.CLASSICAL_FORMS[spec.s]
                _identity_check(report, f"s={spec.s} nest does not reduce to the {form}",
                                hyp.check_reduction, spec, "")
            _identity_check(report, f"s={spec.s} multiple transformation failed",
                            hyp.check_andrews, spec, "")

    for name, stream, depths, check, description, names in _SAMPLED_GROUPS:
        check = getattr(hyp, check)
        descriptions = [description.format(s=s, form=hyp.CLASSICAL_FORMS.get(s)) for s in depths]
        with _group(report, name):
            rng = random.Random(f"{args.seed}/{stream}")
            for _ in range(args.trials):
                for s, text in zip(depths, descriptions):
                    spec = hyp.sample_well_poised(rng, s, args.m_max)
                    _identity_check(report, text, check, spec, names)

    return report


def _bounded_int(low: int, stop: float = float("inf")):
    # the parser of an integer option in [low, stop); argparse names it in
    # its message for a non-integer, "invalid int value"
    def parse(text: str) -> int:
        value = int(text)
        if not low <= value < stop:
            raise argparse.ArgumentTypeError(f"must be in [{low}, {stop})")
        return value

    parse.__name__ = "int"
    return parse


def _routes(text: str) -> tuple[str, ...]:
    parts = tuple(part.strip() for part in text.split(",") if part.strip())
    if not parts:
        raise argparse.ArgumentTypeError("need at least one route")
    for part in parts:
        if part not in core.ROUTES:
            raise argparse.ArgumentTypeError(
                f"unknown route {part!r}; choose from {', '.join(core.ROUTES)}"
            )
        if parts.count(part) > 1:
            raise argparse.ArgumentTypeError(f"route {part!r} given more than once")
    return parts


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="schmidt", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="print c_0..c_n for one exponent")
    compute.add_argument("--r", type=_bounded_int(1), required=True, help="exponent, >= 1")
    compute.add_argument("--n-max", type=_bounded_int(0), default=12)
    compute.add_argument(
        "--routes", type=_routes, default=DEFAULT_ROUTES,
        help=f"comma-separated subset of {','.join(core.ROUTES)}",
    )

    t_table = sub.add_parser("t-table", help="print the inner numbers and scaled ratios")
    t_table.add_argument("--r", type=_bounded_int(1), required=True, help="exponent, >= 1")
    t_table.add_argument("--n-max", type=_bounded_int(0), default=12)

    verify = sub.add_parser("verify", help="exhaustive route-agreement and integrality sweep")
    verify.add_argument("--r-max", type=_bounded_int(0), default=8)
    verify.add_argument("--n-max", type=_bounded_int(0), default=12)

    identities = sub.add_parser("identities", help="seeded random identity checks")
    identities.add_argument("--trials", type=_bounded_int(0), default=100)
    identities.add_argument("--m-max", type=_bounded_int(0), default=5)
    identities.add_argument("--seed", type=_bounded_int(0, 2**64), default=0)

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
