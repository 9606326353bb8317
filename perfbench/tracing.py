"""Per-layer tracing of the schmidt package, installed from outside it.

`install()` wraps the public functions of the four library layers and
`schmidt.cli.main` in timing wrappers and puts each wrapper into every
`schmidt` module namespace that bound the original, because
`from .combinatorics import binomial` binds the name early and patching
`schmidt.combinatorics` alone would miss the calls made from `core` and
`legendre`. Factorial lookups are counted on `CombinatoricsTable.factorial`
at class level, because `binomial` reaches them through `self`.

Functions called thousands to millions of times per run (the HOT set) are
aggregated per (name, parent span) and never stored one span per call;
every other wrapped call is kept as a span and written out with the
aggregates when the run ends. A span's self time is its duration minus the time of the
wrapped calls directly under it.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from pathlib import Path

LAYERS = ("combinatorics", "legendre", "core", "hypergeometric")

HOT = frozenset(
    {
        "combinatorics.binomial",
        "combinatorics.central_binomial",
        "combinatorics.exact_divide",
        "combinatorics.pochhammer",
        "legendre.legendre_coefficient",
        "core.reciprocal_factorial",
        "hypergeometric.pochhammer_vanishes",
        "hypergeometric.sample_rational",
    }
)

# Counted at class level instead; wrapping the module-level function as well
# would count every lookup twice.
SKIP = frozenset({"combinatorics.factorial"})

ROOT = "<root>"


class Tracer:
    def __init__(self) -> None:
        # A frame is [name, time spent in wrapped children, span id].
        self.stack: list[list] = [[ROOT, 0.0, None]]
        # (name, parent name) -> [calls, total seconds, self seconds]
        self.aggregates: dict[tuple[str, str], list] = {}
        # (span id, parent span id, name, start, end, self seconds)
        self.spans: list[tuple | None] = []

    def timed(self, name: str, fn):
        stack, aggregates, spans, clock = self.stack, self.aggregates, self.spans, time.perf_counter
        keep_span = name not in HOT

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if keep_span:
                frame = [name, 0.0, len(spans)]
                spans.append(None)
            else:
                frame = [name, 0.0, parent[2]]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                own = elapsed - frame[1]
                parent[1] += elapsed
                entry = aggregates.get((name, parent[0]))
                if entry is None:
                    aggregates[(name, parent[0])] = [1, elapsed, own]
                else:
                    entry[0] += 1
                    entry[1] += elapsed
                    entry[2] += own
                if keep_span:
                    spans[frame[2]] = (frame[2], parent[2], name, start, end, own)

        return wrapper

    def counted(self, name: str, fn):
        """Count calls per parent without timing them; their time stays in the parent's self time."""
        stack, aggregates = self.stack, self.aggregates

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = (name, stack[-1][0])
            entry = aggregates.get(key)
            if entry is None:
                aggregates[key] = [1, 0.0, 0.0]
            else:
                entry[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def totals(self) -> dict[str, dict[str, float]]:
        """Per wrapped name: calls and self seconds summed over all parents."""
        out: dict[str, dict[str, float]] = {}
        for (name, _parent), (calls, _total, own) in self.aggregates.items():
            entry = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += calls
            entry["self_s"] += own
        return out

    def write(self, path: Path, argv: list[str]) -> None:
        doc = {
            "argv": argv,
            "aggregates": [
                {"name": name, "parent": parent, "calls": calls, "total_s": total, "self_s": own}
                for (name, parent), (calls, total, own) in sorted(self.aggregates.items())
            ],
            "span_fields": ["id", "parent", "name", "start", "end", "self_s"],
            "spans": self.spans,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc))


def install(tracer: Tracer) -> None:
    """Wrap every public layer function wherever a schmidt module bound it."""
    import schmidt.cli
    import schmidt.combinatorics

    wrappers = {}
    for layer in LAYERS:
        module = sys.modules[f"schmidt.{layer}"]
        for attr, obj in vars(module).items():
            name = f"{layer}.{attr}"
            if (
                inspect.isfunction(obj)
                and obj.__module__ == module.__name__
                and not attr.startswith("_")
                and name not in SKIP
            ):
                wrappers[obj] = tracer.timed(name, obj)
    # run_* are reached through the CLI's dispatch table, so main's self time
    # covers argument parsing, the command bodies' own code and rendering.
    wrappers[schmidt.cli.main] = tracer.timed("cli.main", schmidt.cli.main)

    modules = [m for key, m in list(sys.modules.items()) if key == "schmidt" or key.startswith("schmidt.")]
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(module, attr, wrappers[obj])

    table = schmidt.combinatorics.CombinatoricsTable
    table.factorial = tracer.counted("combinatorics.factorial", table.factorial)


def table_cap() -> int:
    """Size of the shared factorial table, or 0 if the package no longer has one."""
    import schmidt.combinatorics

    shared = getattr(schmidt.combinatorics, "_SHARED", None)
    return getattr(shared, "cap", 0)
