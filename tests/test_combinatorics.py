"""Factorial table, binomial conventions, Pochhammer products, exact division."""

import math
import threading
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from reference import pochhammer
from schmidt.combinatorics import (
    CombinatoricsTable,
    DivisibilityError,
    binomial,
    central_binomial,
    exact_divide,
    factorial,
    _binomial_column,
    _binomial_row,
    _rising_pairs,
)


def test_factorial_small_values():
    assert factorial(0) == 1
    assert factorial(5) == 120
    assert factorial(10) == 3628800


def test_factorial_matches_stdlib():
    for n in range(0, 200, 7):
        assert factorial(n) == math.factorial(n)


def test_factorial_rejects_negative():
    with pytest.raises(ValueError):
        factorial(-1)


def test_table_values_are_stable_across_growth():
    table = CombinatoricsTable(cap=4)
    before = table.factorial(3)
    table.factorial(300)
    assert table.factorial(3) == before == 6
    assert table.cap >= 300


def test_table_grows_only_to_the_largest_n_asked_for():
    table = CombinatoricsTable(cap=128)
    table.factorial(129)
    assert table.cap == 129
    table.factorial(100)
    assert table.cap == 129


def test_table_concurrent_extension():
    table = CombinatoricsTable(cap=2)
    results = []

    def worker():
        results.append(table.factorial(400))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results == [math.factorial(400)] * 8


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


def test_central_binomial_values():
    assert central_binomial(0) == 1
    assert central_binomial(2) == 6
    assert central_binomial(5) == 252
    for n in range(30):
        assert central_binomial(n) == binomial(2 * n, n)


@given(st.integers(min_value=0, max_value=700).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(min_value=-3, max_value=n + 3))
))
def test_binomial_matches_math_comb(nk):
    # binomial is math.comb itself, so the oracle shares no code with it: a
    # falling product over k!, which is 0 for k > n; out-of-range k must give 0
    n, k = nk
    expected = math.prod(range(n - k + 1, n + 1)) // math.factorial(k) if k >= 0 else 0
    assert binomial(n, k) == expected


@given(st.integers(min_value=0, max_value=700))
def test_central_binomial_matches_math_comb(n):
    # (2n)! / n!^2, independent of math.comb
    assert central_binomial(n) == math.factorial(2 * n) // math.factorial(n) ** 2


def test_binomial_rows_match_math_comb_exhaustively_up_to_64():
    for m in range(65):
        assert _binomial_row(m) == [math.comb(m, k) for k in range(m + 1)]
        for k in range(m + 1):
            assert _binomial_column(m, k) == [math.comb(i, k) for i in range(k, m + 1)]


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


def rising(x, m):
    """(x)_m read from the last entry of _rising_pairs(x, m)."""
    nums, dens = _rising_pairs(x, m)
    return Fraction(nums[m], dens[m])


def test_pochhammer_empty_product():
    assert _rising_pairs(Fraction(7, 3), 0) == ([1], [1])
    assert _rising_pairs(-5, 0) == ([1], [1])


def test_pochhammer_examples():
    assert rising(Fraction(1, 2), 2) == Fraction(3, 4)
    assert rising(-3, 5) == 0
    assert rising(-3, 3) == -6
    assert rising(1, 6) == factorial(6)


def test_pochhammer_rejects_negative_length():
    with pytest.raises(ValueError):
        _rising_pairs(Fraction(1, 2), -1)


@given(
    st.fractions(min_value=-10, max_value=10, max_denominator=20),
    st.integers(min_value=0, max_value=30),
)
def test_pochhammer_recurrence(x, m):
    nums, dens = _rising_pairs(x, m + 1)
    for l in range(m + 1):
        assert Fraction(nums[l + 1], dens[l + 1]) == Fraction(nums[l], dens[l]) * (x + l)


def test_rising_pairs_are_unreduced():
    # (x)_l = nums[l] / dens[l] with dens[l] = Q^l, so a vanishing product
    # shows in nums alone
    nums, dens = _rising_pairs(Fraction(-3, 2), 4)
    assert nums == [1, -3, 3, 3, 9]
    assert dens == [1, 2, 4, 8, 16]
    nums, dens = _rising_pairs(-2, 4)
    assert nums == [1, -2, 2, 0, 0]
    assert dens == [1] * 5
    for x in (-2, Fraction(-3, 2), Fraction(5, 7)):
        nums, dens = _rising_pairs(x, 6)
        assert [Fraction(p, q) for p, q in zip(nums, dens)] == [pochhammer(x, l) for l in range(7)]


@pytest.mark.parametrize("q", range(12))
def test_pochhammer_at_negative_integers(q):
    # (-q)_m = (-1)^m q! / (q-m)! for m <= q and 0 afterwards
    for m in range(q + 5):
        value = rising(-q, m)
        if m > q:
            assert value == 0
        else:
            assert value == (-1) ** m * factorial(q) // factorial(q - m)


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
