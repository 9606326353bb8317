"""Command-line front end for the Schmidt number computations.

Commands:
    compute     c_0..c_n for one exponent, by one or more independent routes
    t-table     the inner numbers t(n, j) with their scaled integral ratios
    verify      exhaustive route-agreement and integrality sweep
    identities  seeded random checks of the classical summation identities

Results go to stdout; diagnostics, failure witnesses and timing go to
stderr. Exit codes: 0 every check passed, 1 a mathematical check failed,
2 bad usage. For a fixed seed the stdout report is byte-identical across
runs; elapsed time is only ever written to stderr.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction

from . import core
from . import hypergeometric as hyp
from .combinatorics import DivisibilityError
from .legendre import legendre_forward, legendre_inverse

ROUTES = ("definition", "inverse", "closed")
FORMATS = ("plain", "json", "csv")


@dataclass
class RunConfig:
    """One invocation's parameters; unset fields keep their defaults."""

    command: str
    r: int = 2
    r_max: int = 8
    n_max: int = 12
    m_max: int = 5
    trials: int = 100
    seed: int = 0
    format: str = "plain"
    routes: tuple[str, ...] = ROUTES


@dataclass
class VerificationReport:
    """Aggregated sweep outcome; group counts make the rendering deterministic.

    Each group is (name, checks, elapsed ms); the times go to stderr only.
    """

    checks_run: int = 0
    groups: list[tuple[str, int, int]] = field(default_factory=list)
    failures: list[dict[str, str]] = field(default_factory=list)
    elapsed_ms: int = 0

    def check(self, ok: bool, description: str, witness: str) -> None:
        self.checks_run += 1
        if not ok:
            self.failures.append({"description": description, "witness": witness})


@contextmanager
def _group(report: VerificationReport, name: str):
    before = report.checks_run
    start = time.perf_counter()
    yield
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    report.groups.append((name, report.checks_run - before, elapsed_ms))


def _emit_report(command: str, params: dict, report: VerificationReport, fmt: str) -> int:
    if fmt == "json":
        doc = {
            "command": command,
            "params": params,
            "results": {
                "checks_run": report.checks_run,
                "groups": [{"name": name, "checks": count} for name, count, _ in report.groups],
            },
            "failures": report.failures,
        }
        print(json.dumps(doc, indent=2))
    elif fmt == "csv":
        print("group,checks")
        for name, count, _ in report.groups:
            print(f"{name},{count}")
    else:
        for name, count, _ in report.groups:
            print(f"{name}: {count} checks")
        if report.failures:
            print(f"{len(report.failures)} of {report.checks_run} checks FAILED")
        else:
            print(f"all {report.checks_run} checks passed")
    for failure in report.failures:
        print(f"FAIL {failure['description']} witness={failure['witness']}", file=sys.stderr)
    for name, _, elapsed_ms in report.groups:
        print(f"time {name}: {elapsed_ms} ms", file=sys.stderr)
    print(f"elapsed {report.elapsed_ms} ms", file=sys.stderr)
    return 1 if report.failures else 0


def _route_values(route: str, r: int, n_max: int) -> list[int]:
    if route == "definition":
        return core.c_by_definition(r, n_max)
    if route == "inverse":
        a = [core.lhs_sum(n, r) for n in range(n_max + 1)]
        values = []
        for n in range(n_max + 1):
            c_n = legendre_inverse(a, n)
            if c_n.denominator != 1:
                raise DivisibilityError(c_n.numerator, c_n.denominator)
            values.append(c_n.numerator)
        return values
    if route == "closed":
        return [core.c_general(n, r) for n in range(n_max + 1)]
    raise ValueError(f"unknown route {route!r}")


def run_compute(config: RunConfig) -> int:
    per_route: dict[str, list[int]] = {}
    failures: list[dict[str, str]] = []
    for route in config.routes:
        try:
            per_route[route] = _route_values(route, config.r, config.n_max)
        except DivisibilityError as exc:
            failures.append(
                {"description": f"{route} route produced a non-integer", "witness": str(exc)}
            )
    reference_route = config.routes[0]
    if not failures:
        reference = per_route[reference_route]
        for route in config.routes[1:]:
            for n, (x, y) in enumerate(zip(reference, per_route[route])):
                if x != y:
                    failures.append(
                        {
                            "description": f"routes {reference_route} and {route} disagree",
                            "witness": f"(r={config.r}, n={n}): {x} != {y}",
                        }
                    )
                    break
    routes_agree = not failures

    if config.format == "json":
        doc = {
            "command": "compute",
            "params": {
                "r": config.r,
                "n_max": config.n_max,
                "routes": list(config.routes),
                "format": config.format,
            },
            "results": {
                "routes": [
                    {
                        "route": route,
                        "values": [{"n": n, "c": str(v)} for n, v in enumerate(values)],
                    }
                    for route, values in per_route.items()
                ],
                "routes_agree": routes_agree,
            },
            "failures": failures,
        }
        print(json.dumps(doc, indent=2))
    elif config.format == "csv":
        if routes_agree:
            print("n,c")
            for n, v in enumerate(per_route[reference_route]):
                print(f"{n},{v}")
        else:
            print("n,route,c")
            for route, values in per_route.items():
                for n, v in enumerate(values):
                    print(f"{n},{route},{v}")
    else:
        if routes_agree:
            print(" ".join(str(v) for v in per_route[reference_route]))
        else:
            for route, values in per_route.items():
                print(f"{route}: " + " ".join(str(v) for v in values))
    for failure in failures:
        print(f"FAIL {failure['description']} witness={failure['witness']}", file=sys.stderr)
    return 1 if failures else 0


def run_t_table(config: RunConfig) -> int:
    try:
        values = core.t_table(config.r, config.n_max)
    except DivisibilityError as exc:
        print(f"FAIL scaled inner number non-integral witness={exc}", file=sys.stderr)
        return 1
    if config.format == "json":
        doc = {
            "command": "t-table",
            "params": {"r": config.r, "n_max": config.n_max, "format": config.format},
            "results": {
                "rows": [
                    {"n": v.n, "j": v.j, "t": str(v.value), "ratio": str(v.ratio)}
                    for v in values
                ]
            },
            "failures": [],
        }
        print(json.dumps(doc, indent=2))
    elif config.format == "csv":
        print("n,j,t,ratio")
        for v in values:
            print(f"{v.n},{v.j},{v.value},{v.ratio}")
    else:
        for n in range(config.n_max + 1):
            row = [v for v in values if v.n == n]
            ts = " ".join(str(v.value) for v in row)
            ratios = " ".join(str(v.ratio) for v in row)
            print(f"n={n}: t = {ts} ; ratio = {ratios}")
    return 0


def _checked_equal(report: VerificationReport, description: str, witness: str, fn, expected) -> None:
    try:
        report.check(fn() == expected, description, witness)
    except DivisibilityError as exc:
        report.check(False, f"{description} (non-integral)", f"{witness}: {exc}")


def run_verify(config: RunConfig) -> int:
    start = time.perf_counter()
    report = VerificationReport()
    n_max = config.n_max
    exponents = range(2, config.r_max + 1)

    # one solve per exponent, shared by route-agreement and n-independence;
    # an exponent whose solve failed is reported once and skipped afterwards
    oracles: dict[int, list[int]] = {}
    with _group(report, "route-agreement"):
        for r in exponents:
            try:
                oracle = oracles[r] = core.c_by_definition(r, n_max)
            except DivisibilityError as exc:
                report.check(False, "defining solve non-integral", f"(r={r}): {exc}")
                continue
            for n in range(n_max + 1):
                _checked_equal(
                    report, "inner-sum route disagrees", f"(r={r}, n={n})",
                    lambda n=n, r=r: core.c_from_t(n, r), oracle[n],
                )
                _checked_equal(
                    report, "closed route disagrees", f"(r={r}, n={n})",
                    lambda n=n, r=r: core.c_general(n, r), oracle[n],
                )

    with _group(report, "ratio-integrality"):
        for r in exponents:
            for n in range(n_max + 1):
                for j in range(n + 1):
                    try:
                        core.integrality_ratio(n, j, r)
                        report.check(True, "", "")
                    except DivisibilityError as exc:
                        report.check(
                            False, "scaled inner number non-integral",
                            f"(r={r}, n={n}, j={j}): {exc}",
                        )

    with _group(report, "n-independence"):
        for r, c in oracles.items():
            for n in range(n_max + 1):
                report.check(
                    legendre_forward(c, n) == core.lhs_sum(n, r),
                    "defining identity fails", f"(r={r}, n={n})",
                )

    with _group(report, "t-closed-agreement"):
        for n in range(n_max + 1):
            for j in range(n + 1):
                reference = {r: core.t_sum(n, j, r) for r in exponents}
                if config.r_max >= 3:
                    _checked_equal(
                        report, "r=3 closed form disagrees", f"(n={n}, j={j})",
                        lambda n=n, j=j: core.t3_closed(n, j), reference[3],
                    )
                for r in range(4, config.r_max + 1):
                    _checked_equal(
                        report, "nested closed form disagrees", f"(r={r}, n={n}, j={j})",
                        lambda n=n, j=j, r=r: core.t_general(n, j, r), reference[r],
                    )

    if config.r_max >= 1:
        with _group(report, "trivial-exponent"):
            _checked_equal(
                report, "exponent-1 family is not all ones", f"(n_max={n_max})",
                lambda: core.c_by_definition(1, n_max), [1] * (n_max + 1),
            )
        # informational only: the scaled ratios at r=1 are reported, never asserted
        integral = total = 0
        for n in range(n_max + 1):
            for j in range(n + 1):
                total += 1
                try:
                    core.integrality_ratio(n, j, 1)
                    integral += 1
                except DivisibilityError:
                    pass
        print(f"note: r=1 scaled ratios integral for {integral}/{total} pairs (not asserted)",
              file=sys.stderr)

    report.elapsed_ms = int((time.perf_counter() - start) * 1000)
    params = {"r_max": config.r_max, "n_max": config.n_max, "format": config.format}
    return _emit_report("verify", params, report, config.format)


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


def _identity_check(report: VerificationReport, description: str, witness: str, fn) -> None:
    try:
        ok = fn()
    except hyp.PoleError as exc:
        ok = False
        witness = f"{witness}: pole: {exc}"
    report.check(ok, description, witness)


def run_identities(config: RunConfig) -> int:
    start = time.perf_counter()
    report = VerificationReport()

    with _group(report, "structural-reductions"):
        one, two, three = _FIXED_SPECS
        ((c, d),) = one.pairs
        _identity_check(
            report, "s=1 nest does not reduce to the 5F4 evaluation", _spec_witness(one),
            lambda: hyp.andrews_rhs(one) == hyp.dougall_rhs(one.a, c, d, one.m),
        )
        _identity_check(report, "s=1 multiple transformation failed", _spec_witness(one),
                        lambda: hyp.check_andrews(one))
        (b, c2), (d2, e) = two.pairs
        _identity_check(
            report, "s=2 nest does not reduce to the 7F6 transform", _spec_witness(two),
            lambda: hyp.andrews_rhs(two) == hyp.whipple_rhs(two.a, b, c2, d2, e, two.m),
        )
        _identity_check(report, "s=2 multiple transformation failed", _spec_witness(two),
                        lambda: hyp.check_andrews(two))
        _identity_check(report, "s=3 multiple transformation failed", _spec_witness(three),
                        lambda: hyp.check_andrews(three))

    with _group(report, "dougall"):
        rng = random.Random(f"{config.seed}/dougall")
        for _ in range(config.trials):
            a, c, d, m = hyp.sample_dougall(rng, config.m_max)
            _identity_check(
                report, "5F4 summation failed", f"(a={a}, c={c}, d={d}, m={m})",
                lambda a=a, c=c, d=d, m=m: hyp.check_dougall(a, c, d, m),
            )

    with _group(report, "whipple"):
        rng = random.Random(f"{config.seed}/whipple")
        for _ in range(config.trials):
            a, b, c, d, e, m = hyp.sample_whipple(rng, config.m_max)
            _identity_check(
                report, "7F6 transformation failed",
                f"(a={a}, b={b}, c={c}, d={d}, e={e}, m={m})",
                lambda a=a, b=b, c=c, d=d, e=e, m=m: hyp.check_whipple(a, b, c, d, e, m),
            )

    for s in (1, 2, 3):
        with _group(report, f"andrews-s{s}"):
            rng = random.Random(f"{config.seed}/andrews/{s}")
            for _ in range(config.trials):
                spec = hyp.sample_well_poised(rng, s, config.m_max)
                _identity_check(
                    report, f"multiple transformation failed at s={s}", _spec_witness(spec),
                    lambda spec=spec: hyp.check_andrews(spec),
                )

    with _group(report, "reduction-chain"):
        rng = random.Random(f"{config.seed}/reduction")
        for _ in range(config.trials):
            spec = hyp.sample_well_poised(rng, 1, config.m_max)
            ((c, d),) = spec.pairs
            _identity_check(
                report, "s=1 reduction disagrees with the 5F4 evaluation", _spec_witness(spec),
                lambda spec=spec, c=c, d=d: hyp.andrews_rhs(spec)
                == hyp.dougall_rhs(spec.a, c, d, spec.m),
            )
            spec = hyp.sample_well_poised(rng, 2, config.m_max)
            (b, c), (d, e) = spec.pairs
            _identity_check(
                report, "s=2 reduction disagrees with the 7F6 transform", _spec_witness(spec),
                lambda spec=spec, b=b, c=c, d=d, e=e: hyp.andrews_rhs(spec)
                == hyp.whipple_rhs(spec.a, b, c, d, e, spec.m),
            )

    report.elapsed_ms = int((time.perf_counter() - start) * 1000)
    params = {
        "trials": config.trials,
        "m_max": config.m_max,
        "seed": config.seed,
        "format": config.format,
    }
    return _emit_report("identities", params, report, config.format)


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
    config = RunConfig(command=args.command, format=args.format)
    for name in ("r", "r_max", "n_max", "m_max", "trials", "seed", "routes"):
        if hasattr(args, name):
            setattr(config, name, getattr(args, name))
    return _RUNNERS[config.command](config)


if __name__ == "__main__":
    sys.exit(main())
