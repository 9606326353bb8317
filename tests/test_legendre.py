"""Forward/inverse transform pair, inversion coefficients, triangular solver."""

import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from reference import legendre_forward_central
from schmidt import combinatorics
from schmidt.combinatorics import DivisibilityError, binomial
from schmidt.legendre import (
    _forward_row,
    _inverse_row,
    legendre_forward,
    legendre_inverse,
    triangular_solve,
)

sequences = st.lists(st.integers(min_value=-100, max_value=100), min_size=1, max_size=11)


def test_forward_of_ones_gives_central_delannoy():
    ones = [1] * 6
    assert [legendre_forward(ones, n) for n in range(6)] == [1, 3, 13, 63, 321, 1683]


def test_forward_franel_coefficients_give_apery():
    assert legendre_forward([1, 2, 10], 2) == 73
    # independently: the squared-binomial power sum at n = 2
    assert sum(binomial(2, k) ** 2 * binomial(2 + k, k) ** 2 for k in range(3)) == 73


def test_forward_single_entry():
    assert legendre_forward([1], 0) == 1


def test_forward_index_error():
    with pytest.raises(IndexError):
        legendre_forward([1], 1)
    with pytest.raises(IndexError):
        legendre_inverse([1, 2], 2)


@given(sequences)
def test_forward_forms_agree(c):
    for n in range(len(c)):
        assert legendre_forward(c, n) == legendre_forward_central(c, n)


ROW_ORDERS = [*range(65), 150, 300]


def test_forward_row_matches_comb():
    for n in ROW_ORDERS:
        expected = [math.comb(n, k) * math.comb(n + k, k) for k in range(n + 1)]
        assert _forward_row(n) == expected, n


def _inverse_row_by_comb(n):
    # (-1)^(n-k) D(n,k), with C(2n, -1) = 0 at k = n spelled out
    return [
        (-1) ** (n - k) * (math.comb(2 * n, n - k) - (math.comb(2 * n, n - k - 1) if k < n else 0))
        for k in range(n + 1)
    ]


def test_inverse_row_matches_comb():
    for n in [*range(201), 300]:
        assert _inverse_row(n) == _inverse_row_by_comb(n), n


def test_inverse_row_reads_no_binomial(monkeypatch):
    # the row is walked down from D(n,n) = 1 by its own two-term step, so with
    # every binomial primitive raising, in every module that bound it, it is
    # still the oracle's row
    def refuse(*args):
        raise AssertionError(f"binomial primitive called with {args}")

    for name in ("binomial", "_binomial_row", "_binomial_column", "_central_row"):
        true_fn = getattr(combinatorics, name)
        for key, module in list(sys.modules.items()):
            if key.split(".")[0] == "schmidt" and getattr(module, name, None) is true_fn:
                monkeypatch.setattr(module, name, refuse)
    for n in range(61):
        assert _inverse_row(n) == _inverse_row_by_comb(n), n


def test_coefficient_values():
    # D(n,k) = (-1)^(n-k) times the k-th entry of the inverse row
    assert [(-1) ** (2 - k) * d for k, d in enumerate(_inverse_row(2))] == [2, 3, 1]
    for n in range(21):
        assert _inverse_row(n)[n] == 1


def test_coefficient_closed_forms_agree():
    # (2k+1) C(2n,n-k) == (n+k+1) D(n,k), as an integer identity
    for n in range(41):
        row = _inverse_row(n)
        for k in range(n + 1):
            lhs = (2 * k + 1) * binomial(2 * n, n - k)
            assert lhs == (n + k + 1) * (-1) ** (n - k) * row[k]


def test_inverse_examples():
    assert legendre_inverse([1], 0) == 1
    assert legendre_inverse([1, 5, 73], 2) == Fraction(10)


def test_inverse_can_be_non_integral():
    assert legendre_inverse([0, 1, 0], 2) == Fraction(-1, 2)


def test_inverse_roundtrip_small():
    c = [1, 2, 3]
    a = [legendre_forward(c, n) for n in range(3)]
    for n in range(3):
        assert legendre_inverse(a, n) == c[n]


def test_impulse_and_ones_are_dual():
    # forward of the unit impulse is all ones, so inverting all ones
    # recovers the impulse; equivalently the signed coefficient rows
    # sum to zero for n >= 1
    impulse = [1] + [0] * 10
    assert all(legendre_forward(impulse, n) == 1 for n in range(11))
    ones = [1] * 11
    for n in range(11):
        assert legendre_inverse(ones, n) == (1 if n == 0 else 0)


def test_triangular_solve_examples():
    assert triangular_solve([1, 5, 73]) == [1, 2, 10]
    assert triangular_solve([1, 9, 433]) == [1, 4, 68]
    assert triangular_solve([1]) == [1]


def test_triangular_solve_divisibility_error():
    with pytest.raises(DivisibilityError):
        triangular_solve([1, 2])


@given(sequences)
def test_roundtrip_inverse(c):
    a = [legendre_forward(c, n) for n in range(len(c))]
    for n in range(len(c)):
        assert legendre_inverse(a, n) == c[n]


@given(sequences)
def test_roundtrip_triangular_solve(c):
    a = [legendre_forward(c, n) for n in range(len(c))]
    assert triangular_solve(a) == c


def test_forward_readers_take_held_rows():
    held = [_forward_row(n) for n in range(9)]
    c = [3, -1, 4, 1, -5, 9, 2, -6, 5]
    a = [legendre_forward(c, n) for n in range(9)]
    assert triangular_solve(a, held) == triangular_solve(a) == c


def test_roundtrip_seeded_batch():
    rng = random.Random(20260816)
    for _ in range(100):
        c = [rng.randint(-100, 100) for _ in range(rng.randint(1, 11))]
        a = [legendre_forward(c, n) for n in range(len(c))]
        assert triangular_solve(a) == c
