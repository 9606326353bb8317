"""The Schmidt numbers c(n, r) and their inner companions t(n, j, r).

For an exponent r >= 1 the family c(., r) is pinned down by requiring

    sum_k C(n,k)^r C(n+k,k)^r  =  sum_k C(n,k) C(n+k,k) c(k, r)

to hold at every order n simultaneously; c_by_definition solves that
triangular system exactly and is the oracle for every other route here.
The inner numbers

    t(n, j, r) = sum_{k=j..n} (-1)^(n-k) D(n,k) C(k+j,k-j)^r

regroup the inversion so that C(2n,n) c(n, r) = sum_j C(2j,j)^r t(n, j, r),
and they admit closed binomial multi-sums for every r. Two integrality
statements are exposed for verification rather than assumed: every
c(n, r) is an integer, and so is every C(2j,j) t(n, j, r) / C(2n,n).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .combinatorics import (
    _binomial_column,
    _binomial_row,
    _central_row,
    central_binomial,
    exact_divide,
)
from .legendre import _forward_row, _inverse_row, triangular_solve


def _require_order(n: int, j: int = 0) -> None:
    if not 0 <= j <= n:
        raise ValueError(f"need 0 <= j <= n, got n={n}, j={j}")


def _require_exponent(r: int) -> None:
    if r < 1:
        raise ValueError(f"exponent must be >= 1, got r={r}")


def lhs_sum(n: int, r: int) -> int:
    """sum_k C(n,k)^r C(n+k,k)^r, the power-sum side of the defining identity."""
    _require_exponent(r)
    _require_order(n)
    return sum(f**r for f in _forward_row(n))


def c_by_definition(r: int, n_max: int) -> list[int]:
    """c(0, r)..c(n_max, r) by solving the defining system directly.

    Propagates DivisibilityError from the solver; such an error would
    falsify the integrality statement, so it is never swallowed.
    """
    _require_exponent(r)
    return triangular_solve([lhs_sum(n, r) for n in range(n_max + 1)])


def t_row(n: int, r: int) -> list[int]:
    """t(n, 0, r), ..., t(n, n, r) by the defining alternating sum.

    The signed coefficients (-1)^(n-k) D(n,k) are the Legendre layer's
    inverse row, built from one C(2n, .) row, and C(k+j,k-j) = C(k+j, 2j)
    is walked down its column along k, so the row makes no scalar binomial
    calls and costs O(n^2) big-integer products per (n, r). This is the
    oracle for the closed forms.
    """
    _require_order(n)
    _require_exponent(r)
    signed = _inverse_row(n)
    return [
        sum(d * c**r for d, c in zip(signed[j:], _binomial_column(n + j, 2 * j)))
        for j in range(n + 1)
    ]


def t_sum(n: int, j: int, r: int) -> int:
    """t(n, j, r), read from t_row(n, r)."""
    _require_order(n, j)
    return t_row(n, r)[j]


def integrality_ratio(n: int, j: int, r: int, row: list[int] | None = None) -> int:
    """C(2j,j) t(n, j, r) / C(2n,n), divided out exactly.

    Integrality of this ratio is the strong form of the integrality
    statement; a DivisibilityError here is a counterexample witness.
    `row` is t_row(n, r) when the caller already holds it.
    """
    _require_order(n, j)
    if row is None:
        row = t_row(n, r)
    return exact_divide(central_binomial(j) * row[j], central_binomial(n))


def c_from_t(n: int, r: int, row: list[int] | None = None) -> int:
    """c(n, r) = [sum_j C(2j,j)^r t(n, j, r)] / C(2n,n), divided out exactly.

    `row` is t(n, ., r) from t_row or t_closed_rows when the caller already holds it.
    """
    _require_exponent(r)
    if row is None:
        row = t_row(n, r)
    central = _central_row(n)
    acc = sum(c**r * t for c, t in zip(central, row))
    return exact_divide(acc, central[n])


def t3_closed(n: int, j: int) -> int:
    """t(n, j, 3) = (2n)! / ((3j-n)! (n-j)!^3); zero exactly when 3j < n."""
    return t_general(n, j, 3)


def c2_closed(n: int) -> int:
    """c(n, 2) = sum_j C(n,j)^3, the Franel numbers, from one walked C(n, .) row.

    The equivalent form sum_j C(n,j)^2 C(2j,n) is checked against this one
    by the acceptance suite, not on every call.
    """
    return sum(x**3 for x in _binomial_row(n))


def t4_closed(n: int, j: int) -> int:
    """t(n, j, 4) = (2n)! j! / (n! (n-j)! (2j)!) * sum_k C(k+j,k-j) C(j,n-k) C(k,j) C(2j,k-j)."""
    return t_general(n, j, 4)


def t5_closed(n: int, j: int) -> int:
    """t(n, j, 5) = (2n)! / ((2j)! (n-j)!^2) * sum_k C(k+j,k-j)^2 C(2j,n-k) C(2j,k-j)."""
    return t_general(n, j, 5)


def _nest_column(j: int, s: int, odd: bool, n_max: int) -> list[int]:
    # nest(n, j) for n = j..n_max, indexed by n - j: the (s-1)-fold sum behind
    # t_closed_rows over chained indices n >= k_1 >= ... >= k_{s-1} >= j. Each
    # level contributes C(2j,k_{L-1}-k_L) C(k_L+j,k_L-j)^2 (the even-r outer
    # level C(j,n-k_1) C(k_1,j) C(k_1+j,k_1-j) instead) and C(2j,k_{s-1}-j)
    # closes the chain. With i = k - j each level is one banded convolution
    # chain'[i] = sum_d kernel[d] weights[i-d] chain[i-d] that never reads n,
    # so one column serves every order. Odd r starts from the closing factor,
    # even r from [1, 0, ...], which the first level turns into it. A kernel
    # C(m, .) vanishes past m, so a column costs O(s n_max min(n_max, 2j)).
    length = n_max - j + 1
    band = _binomial_row(2 * j)
    stretched = _binomial_column(n_max + j, 2 * j)  # C(k+j, k-j) for k = j..n_max
    levels = [(band, [x * x for x in stretched])] * (s - 1)
    chain = ((band if odd else [1]) + [0] * length)[:length]
    if not odd:
        over = _binomial_column(n_max, j)  # C(k, j) for k = j..n_max
        levels.append((_binomial_row(j), [x * y for x, y in zip(over, stretched)]))
    for kernel, weights in levels:
        weighted = [x * y for x, y in zip(weights, chain)]
        chain = [
            sum(kernel[d] * weighted[i - d] for d in range(min(len(kernel) - 1, i) + 1))
            for i in range(length)
        ]
    return chain


def t_closed_rows(r: int, n_max: int) -> Iterator[list[int]]:
    """t(n, 0..n, r) for n = 0..n_max by the nested multi-sum route, for every r >= 2.

    For r = 2s or r = 2s + 1 each entry is a prefactor, written only here,
    times the (s-1)-fold nest. Odd r: (2n)! / ((2j)! (n-j)!^2) =
    C(2n,2j) C(2n-2j,n-j), an integer, so there is no division at all. Even
    r: (2n)! j! / (n! (n-j)! (2j)!) = C(2n,n) C(n,j) / C(2j,j), divided out
    exactly after the product with the nest. The nest columns, O(s n_max^3)
    work, are built up front and held; the rows are yielded one at a time.
    """
    _require_order(n_max)
    if r < 2:
        raise ValueError(f"no closed route below r=2, got r={r}")
    s, odd = divmod(r, 2)
    columns = [_nest_column(j, s, odd, n_max) for j in range(n_max + 1)]

    def row(n: int) -> list[int]:
        central = _central_row(n)
        if odd:
            wide = _binomial_row(2 * n)
            return [wide[2 * j] * central[n - j] * columns[j][n - j] for j in range(n + 1)]
        return [
            exact_divide(central[n] * c * columns[j][n - j], central[j])
            for j, c in enumerate(_binomial_row(n))
        ]

    return map(row, range(n_max + 1))


def c_closed(r: int, n_max: int) -> list[int]:
    """c(0, r)..c(n_max, r) by the closed multi-sum route, for every r >= 1.

    For r >= 3 each value is c_from_t over its closed row from
    t_closed_rows(r, n_max): sum_j C(2j,j)^r t(n, j, r) with one exact
    division by C(2n,n). Each row is dropped once read.
    """
    _require_exponent(r)
    _require_order(n_max)
    if r == 1:
        return [1] * (n_max + 1)
    if r == 2:
        # The s = 1 nest form sum_j C(2j,j) C(n,j) C(j,n-j) gives Franel's
        # numbers too, but its columns cost O(n_max^3) products against the
        # O(n_max^2) cubes of one walked row per n.
        return [c2_closed(n) for n in range(n_max + 1)]
    return [c_from_t(n, r, row) for n, row in enumerate(t_closed_rows(r, n_max))]


def t_general(n: int, j: int, r: int) -> int:
    """t(n, j, r) by the nested multi-sum route, read from t_closed_rows(r, n)."""
    _require_order(n, j)
    return list(t_closed_rows(r, n))[n][j]


def c_general(n: int, r: int) -> int:
    """c(n, r) by the closed multi-sum route, read from c_closed(r, n)."""
    return c_closed(r, n)[n]


@dataclass(frozen=True)
class TnjValue:
    """Inner number at (n, j) with its scaled ratio; C(2n,n) ratio == C(2j,j) value."""

    n: int
    j: int
    r: int
    value: int
    ratio: int


def t_table(r: int, n_max: int) -> list[TnjValue]:
    """Every inner number and scaled ratio for 0 <= j <= n <= n_max, row by row."""
    _require_exponent(r)
    out: list[TnjValue] = []
    for n in range(n_max + 1):
        row = t_row(n, r)
        out.extend(
            TnjValue(n, j, r, value, integrality_ratio(n, j, r, row))
            for j, value in enumerate(row)
        )
    return out
