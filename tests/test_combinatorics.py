"""Binomial conventions, Pochhammer products, exact division."""

import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from reference import pochhammer
from schmidt.combinatorics import (
    DivisibilityError,
    binomial,
    exact_divide,
    _binomial_column,
    _binomial_row,
    _central_row,
)
from schmidt.hypergeometric import _vanishes


def test_binomial_examples():
    assert binomial(5, 2) == 10
    assert binomial(0, 0) == 1
    assert binomial(4, -1) == 0
    assert binomial(3, 7) == 0


def test_binomial_rejects_negative_upper_index():
    with pytest.raises(ValueError):
        binomial(-1, 0)
    with pytest.raises(ValueError):
        binomial(-4, -2)


def test_pascal_identity():
    for n in range(1, 61):
        for k in range(1, n):
            assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


def test_binomial_symmetry():
    for n in range(61):
        for k in range(n + 1):
            assert binomial(n, k) == binomial(n, n - k)


@given(st.integers(min_value=0, max_value=700).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(min_value=-3, max_value=n + 3))
))
def test_binomial_matches_math_comb(nk):
    # binomial is math.comb itself, so the oracle shares no code with it: a
    # falling product over k!, which is 0 for k > n; out-of-range k must give 0
    n, k = nk
    expected = math.prod(range(n - k + 1, n + 1)) // math.factorial(k) if k >= 0 else 0
    assert binomial(n, k) == expected


def test_binomial_rows_match_math_comb_exhaustively_up_to_64():
    for m in range(65):
        assert _binomial_row(m) == [math.comb(m, k) for k in range(m + 1)]
        for k in range(m + 1):
            assert _binomial_column(m, k) == [math.comb(i, k) for i in range(k, m + 1)]


def test_central_row_matches_math_comb():
    # every C(2m, m) of the package, the inverse divisors included, is read from this walk
    for n in range(65):
        assert _central_row(n) == [math.comb(2 * m, m) for m in range(n + 1)]
    assert _central_row(300) == [math.comb(2 * m, m) for m in range(301)]


@given(st.integers(min_value=0, max_value=700))
@example(0)
@example(700)
def test_binomial_row_matches_math_comb(m):
    # the t-rows and the closed-form nests walk their binomials by these
    # recurrences instead of the table, so they get their own oracle
    assert _binomial_row(m) == [math.comb(m, k) for k in range(m + 1)]


@given(st.integers(min_value=0, max_value=700).flatmap(
    lambda top: st.tuples(st.just(top), st.integers(min_value=0, max_value=top))
))
@example((700, 0))
@example((700, 350))
@example((700, 700))
def test_binomial_column_matches_math_comb(top_k):
    top, k = top_k
    assert _binomial_column(top, k) == [math.comb(m, k) for m in range(k, top + 1)]


@pytest.mark.parametrize("q", range(12))
def test_pochhammer_at_negative_integers(q):
    # (-q)_m = (-1)^m q! / (q-m)! for m <= q and 0 afterwards: math.factorial
    # against the rising-product reference the hypergeometric tests read, and
    # the hypergeometric layer's vanishing predicate on the same values
    for m in range(q + 5):
        value = pochhammer(-q, m)
        if m > q:
            assert value == 0
        else:
            assert value == (-1) ** m * math.factorial(q) // math.factorial(q - m)
        assert _vanishes(-q, 1, m) == (m > q), m


def test_exact_divide_values():
    assert exact_divide(12, 6) == 2
    assert exact_divide(0, 7) == 0
    assert exact_divide(-12, 4) == -3


def test_exact_divide_remainder_raises_with_witness():
    with pytest.raises(DivisibilityError) as info:
        exact_divide(7, 2)
    assert info.value.numerator == 7
    assert info.value.divisor == 2


def test_exact_divide_by_zero():
    with pytest.raises(ZeroDivisionError):
        exact_divide(5, 0)
