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

from dataclasses import dataclass

from .combinatorics import (
    _binomial_column,
    _binomial_row,
    binomial,
    central_binomial,
    exact_divide,
    factorial,
)
from .legendre import _forward_row, _inverse_row, triangular_solve


def _require_order(n: int, j: int) -> None:
    if not 0 <= j <= n:
        raise ValueError(f"need 0 <= j <= n, got n={n}, j={j}")


def _require_exponent(r: int) -> None:
    if r < 1:
        raise ValueError(f"exponent must be >= 1, got r={r}")


def lhs_sum(n: int, r: int) -> int:
    """sum_k C(n,k)^r C(n+k,k)^r, the power-sum side of the defining identity."""
    _require_exponent(r)
    if n < 0:
        raise ValueError(f"order must be >= 0, got n={n}")
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
    if n < 0:
        raise ValueError(f"order must be >= 0, got n={n}")
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

    `row` is t_row(n, r) when the caller already holds it.
    """
    _require_exponent(r)
    if row is None:
        row = t_row(n, r)
    acc = sum(central_binomial(j) ** r * t for j, t in enumerate(row))
    return exact_divide(acc, central_binomial(n))


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


def _nest(n: int, j: int, s: int, odd: bool) -> int:
    # The (s-1)-fold integer sum behind both t_general and c_general, over
    # chained indices n >= k_1 >= k_2 >= ... >= k_{s-1} >= j. The outer
    # level contributes C(2j,n-k_1) C(k_1+j,k_1-j)^2 for odd r and
    # C(j,n-k_1) C(k_1,j) C(k_1+j,k_1-j) for even r; every inner level L
    # contributes C(2j,k_{L-1}-k_L) C(k_L+j,k_L-j)^2; the trailing
    # C(2j,k_{s-1}-j) closes the chain. At s = 1 there is no index and the
    # nest is the single closing factor C(2j,n-j) for odd r, C(j,n-j) for
    # even r. What lies below a level depends only on that level's index,
    # so the chain is built bottom-up as one list per level, indexed by
    # k - j. C(2j, d) vanishes for d > 2j, so each level costs
    # O(n min(n, 2j)) and the whole nest O(s n^2) per (n, j). Every binomial
    # row and column is walked by recurrence, not looked up.
    if s == 1:
        return binomial(2 * j if odd else j, n - j)
    band = _binomial_row(2 * j)
    stretched = _binomial_column(n + j, 2 * j)  # C(k+j, k-j) for k = j..n
    sq = [x * x for x in stretched]
    chain = band[: n - j + 1] + [0] * (n - 3 * j)  # C(2j, i) for i = 0..n-j
    for _ in range(s - 2):
        weighted = [x * y for x, y in zip(sq, chain)]
        chain = [
            sum(band[d] * weighted[i - d] for d in range(min(2 * j, i) + 1))
            for i in range(n - j + 1)
        ]
    if odd:
        return sum(
            band[n - k] * sq[k - j] * chain[k - j] for k in range(max(j, n - 2 * j), n + 1)
        )
    low = _binomial_row(j)
    over = _binomial_column(n, j)  # C(k, j) for k = j..n
    return sum(
        low[n - k] * over[k - j] * stretched[k - j] * chain[k - j]
        for k in range(max(j, n - j), n + 1)
    )


def t_general(n: int, j: int, r: int) -> int:
    """t(n, j, r) by the nested multi-sum route, for every r >= 2.

    For r = 2s or r = 2s + 1 the value is a rational prefactor times an
    (s-1)-fold nested binomial sum; the inner integer sum is computed first
    and the prefactor divided out exactly. At s = 1 the nest is a single
    binomial, which gives t(n, j, 2) = (2n)! j! C(j,n-j) / (n! (n-j)! (2j)!)
    and t(n, j, 3) = (2n)! C(2j,n-j) / ((2j)! (n-j)!^2).
    """
    _require_order(n, j)
    if r < 2:
        raise ValueError(f"no closed route below r=2, got r={r}")
    s, odd = divmod(r, 2)
    inner = _nest(n, j, s, bool(odd))
    if odd:
        return exact_divide(factorial(2 * n) * inner, factorial(2 * j) * factorial(n - j) ** 2)
    return exact_divide(
        factorial(2 * n) * factorial(j) * inner,
        factorial(n) * factorial(n - j) * factorial(2 * j),
    )


def c_general(n: int, r: int) -> int:
    """c(n, r) by the closed multi-sum route; r = 1 and r = 2 delegate.

    For r = 2s or r = 2s + 1 this is a pure integer multi-sum (no division
    at all): an outer sum over j weights the same (s-1)-fold nest as
    t_general, so the cost is O(s n^3).
    """
    if n < 0:
        raise ValueError(f"order must be >= 0, got n={n}")
    _require_exponent(r)
    if r == 1:
        return 1
    if r == 2:
        # The s = 1 nest form sum_j C(2j,j) C(n,j) C(j,n-j) also gives
        # Franel's numbers, but the cubes of one walked row are ~10x
        # cheaper: for n = 0..300, ~30 against ~300 ms (CPython 3.11,
        # shared 2-vCPU machine), which is ~5% of a whole
        # `compute --r 2 --n-max 300`.
        return c2_closed(n)
    s, odd = divmod(r, 2)
    total = 0
    for j in range(n + 1):
        weight = binomial(n, j) ** 2 if odd else binomial(n, j)
        total += central_binomial(j) ** (r - 1) * weight * _nest(n, j, s, bool(odd))
    return total


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
