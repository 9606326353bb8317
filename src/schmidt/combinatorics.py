"""Exact integer and rational combinatorial primitives.

Everything computes with unbounded Python ints and fractions.Fraction, so
no rounding ever occurs. A shared memoized factorial table backs the
binomial helpers; callers that need a whole row or column of binomials walk
it by recurrence instead (`_binomial_row`, `_binomial_column`). The zero
convention C(n, k) = 0 for k outside [0, n] is what truncates all the
implicitly bounded sums in the rest of the package; a negative upper index
is a domain error, never a value.
"""

from __future__ import annotations

import threading
from fractions import Fraction

__all__ = [
    "CombinatoricsTable",
    "DivisibilityError",
    "binomial",
    "central_binomial",
    "exact_divide",
    "factorial",
    "pochhammer",
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
    """Memoized factorials with the binomial helpers built on top.

    The table only ever appends (geometric growth under a lock), so values
    already handed out never change and concurrent readers are safe.
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
            # doubling keeps amortized extension cost linear in the values produced
            target = max(n, 2 * (len(self._factorials) - 1))
            while len(self._factorials) <= target:
                self._factorials.append(len(self._factorials) * self._factorials[-1])

    def factorial(self, n: int) -> int:
        if n < 0:
            raise ValueError(f"factorial of negative argument {n}")
        if n >= len(self._factorials):
            self._grow(n)
        return self._factorials[n]

    def binomial(self, n: int, k: int) -> int:
        """C(n, k) for n >= 0; zero whenever k < 0 or k > n."""
        if n < 0:
            raise ValueError(f"binomial with negative upper index {n}")
        if k < 0 or k > n:
            return 0
        return self.factorial(n) // (self.factorial(k) * self.factorial(n - k))

    def central_binomial(self, n: int) -> int:
        return self.binomial(2 * n, n)


_SHARED = CombinatoricsTable()


def factorial(n: int) -> int:
    """n! from the shared table."""
    return _SHARED.factorial(n)


def binomial(n: int, k: int) -> int:
    """C(n, k) from the shared table; zero outside 0 <= k <= n, error for n < 0."""
    return _SHARED.binomial(n, k)


def central_binomial(n: int) -> int:
    """C(2n, n) from the shared table."""
    return _SHARED.central_binomial(n)


# The row and column walks below use no table: each value comes from the one
# before it by one multiply and one exact division by a small int, where a
# table binomial costs three factorial lookups and a big-integer division.


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
        raise ValueError(f"pochhammer length must be non-negative, got {m}")
    p, q = x.numerator, x.denominator
    nums, dens = [1], [1]
    for i in range(m):
        nums.append(nums[-1] * (p + i * q))
        dens.append(dens[-1] * q)
    return nums, dens


def pochhammer(x: Fraction | int, m: int) -> Fraction:
    """Rising product x (x+1) ... (x+m-1); the empty product (m = 0) is 1.

    The result is 0 exactly when x is an integer in {0, -1, ..., -(m-1)}.
    """
    nums, dens = _rising_pairs(Fraction(x), m)
    return Fraction(nums[m], dens[m])


def exact_divide(a: int, b: int) -> int:
    """a / b when b divides a exactly; DivisibilityError otherwise."""
    if b == 0:
        raise ZeroDivisionError("exact_divide by zero")
    quotient, remainder = divmod(a, b)
    if remainder:
        raise DivisibilityError(a, b)
    return quotient
