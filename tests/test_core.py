"""Schmidt numbers by each route, inner numbers, closed forms, integrality."""

from fractions import Fraction
from math import comb
from operator import mul

import pytest

from reference import inner_number, nest
from schmidt import core
from schmidt.combinatorics import DivisibilityError, _central_row, binomial
from schmidt.legendre import _forward_row, _inverse_row, legendre_forward, legendre_inverse


def test_lhs_sum_values():
    assert core.lhs_sum(2, 2) == 73
    assert core.lhs_sum(2, 3) == 433
    assert core.lhs_sum(0, 5) == 1


def test_lhs_sum_rejects_bad_input():
    with pytest.raises(ValueError):
        core.lhs_sum(2, 0)
    with pytest.raises(ValueError):
        core.lhs_sum(-1, 2)


def test_c_by_definition_franel_prefix():
    assert core.c_by_definition(2, 4) == [1, 2, 10, 56, 346]


def test_c_by_definition_trivial_exponent():
    assert core.c_by_definition(1, 3) == [1, 1, 1, 1]


def test_c_by_definition_r5():
    assert core.c_by_definition(5, 2) == [1, 16, 2576]


def test_t_sum_values():
    assert core.t_sum(2, 1, 3) == 24
    assert core.t_sum(2, 1, 2) == 6
    assert core.t_sum(2, 0, 3) == 0
    for n in range(8):
        for r in range(1, 6):
            assert core.t_sum(n, n, r) == 1


def _reference_t_terms(n, j):
    # the defining sum's terms (-1)^(n-k) D(n,k) and C(k+j,k-j), from math.comb
    # alone so that the check shares no code with the package
    for k in range(j, n + 1):
        d = comb(2 * n, n - k) - (comb(2 * n, n - k - 1) if k < n else 0)
        yield (-1) ** (n - k) * d, comb(k + j, k - j)


def test_t_row_matches_math_comb_reference():
    terms = [[list(_reference_t_terms(n, j)) for j in range(n + 1)] for n in range(41)]

    def expected(n, r):
        return [sum(d * c**r for d, c in row) for row in terms[n]]

    for n in range(41):
        for r in range(1, 7):
            assert core.t_row(n, r) == expected(n, r), (n, r)
    # t_rows raises each column entry once for every order it serves
    for r in range(1, 11):
        rows = [expected(n, r) for n in range(31)]
        for n_max in (0, 1, 2, 13, 30):
            assert core.t_rows(r, n_max) == rows[: n_max + 1], (r, n_max)


def test_t_row_rejects_bad_input():
    with pytest.raises(ValueError):
        core.t_row(-1, 2)
    with pytest.raises(ValueError):
        core.t_row(3, 0)
    with pytest.raises(ValueError):
        core.t_rows(0, 3)
    with pytest.raises(ValueError):
        core.t_rows(2, -1)
    with pytest.raises(ValueError):
        core.closed_ratio_columns(0, 3)
    with pytest.raises(ValueError):
        core.closed_ratio_columns(2, -1)


@pytest.mark.parametrize(
    "reader",
    [
        lambda: core.c2_closed(-1),
        lambda: legendre_forward([1], -1),
        lambda: legendre_inverse([1], -1),
    ],
    ids=["c2_closed", "legendre_forward", "legendre_inverse"],
)
def test_public_readers_reject_a_negative_order(reader):
    # a negative order is a domain error, never a value or an index from the end
    with pytest.raises(ValueError, match="-1"):
        reader()


def test_t_sum_rejects_bad_indices():
    with pytest.raises(ValueError):
        core.t_sum(2, 3, 2)
    with pytest.raises(ValueError):
        core.t_sum(2, 1, 0)


def test_integrality_ratio_values():
    assert core.integrality_ratio(2, 1, 2) == 2
    assert core.integrality_ratio(2, 1, 3) == 8
    for n in range(6):
        assert core.integrality_ratio(n, n, 4) == 1


def test_integrality_ratio_consistency():
    # ratio * C(2n,n) == C(2j,j) * t, reconstructed exactly
    for r in (2, 3, 4):
        for n in range(9):
            for j in range(n + 1):
                ratio = core.integrality_ratio(n, j, r)
                assert ratio * comb(2 * n, n) == comb(2 * j, j) * core.t_sum(n, j, r)


def test_c_from_t_values():
    assert core.c_from_t(2, 2) == 10
    assert core.c_from_t(2, 3) == 68
    assert core.c_from_t(0, 7) == 1



@pytest.mark.parametrize("r, n_max", [(2, 40), (3, 60), (5, 30)])
def test_inner_sum_is_the_inverse_numerator(r, n_max):
    # C(2j,j) C(k+j,2j) = C(k,j) C(k+j,j), so sum_j C(2j,j)^r t(n, j, r) is
    # the inverse route's numerator sum_k (-1)^(n-k) D(n,k) a_k, term for
    # term with the double sum swapped; that is why the inner sum is no
    # route of its own. c_from_t divides that same sum by C(2n,n)
    a = [core.lhs_sum(n, r) for n in range(n_max + 1)]
    for n, row in enumerate(core.t_rows(r, n_max)):
        numerator = sum(map(mul, _inverse_row(n), a))
        assert sum(comb(2 * j, j) ** r * t for j, t in enumerate(row)) == numerator, n
        assert core.c_from_t(n, r) * comb(2 * n, n) == numerator, n


def test_t_rows_at_r1_are_the_identity():
    # t(n, j, 1) = [j = n]: the inverse transform of a unit column gives that
    # column back, so every scaled ratio at r = 1 is integral
    n_max = 60
    assert core.t_rows(1, n_max) == [[int(j == n) for j in range(n + 1)] for n in range(n_max + 1)]


def test_row_readers_take_a_held_row():
    for r in (1, 2, 5):
        for n in range(7):
            row = core.t_row(n, r)
            for j in range(n + 1):
                assert core.t_sum(n, j, r) == row[j]
                if r > 1:
                    assert core.integrality_ratio(n, j, r, row) == core.integrality_ratio(n, j, r)


def test_readers_take_held_sweep_rows():
    # each reader gives the same value from rows its caller holds as from the
    # rows it builds itself; a central row serves every order up to its own
    held = core.Sweep(12)
    central = _central_row(12)
    assert held.central == central
    for r in (1, 2, 5):
        oracle = core.c_by_definition(r, 12)
        for name, route in core.ROUTES.items():
            assert route(core.RouteInputs(r, 12, held)) == oracle, (name, r)
        for n in range(13):
            assert core.lhs_sum(n, r, held.forward[n]) == core.lhs_sum(n, r)
            row = core.t_row(n, r)
            assert core.c_from_t(n, r) == oracle[n], (n, r)
            for j in range(n + 1):
                assert core.integrality_ratio(n, j, r, row, central) * central[n] == (
                    central[j] * row[j]
                )


def test_running_power_t_rows_match_t_row_and_reference():
    # verify's t-rows: held inverse rows, and each exponent's columns
    # C(k+j, 2j)^r as the previous exponent's times the bases; r = 1 has
    # none, and t_rows raises its own there
    n_max = 20
    held = core.Sweep(n_max)
    for inputs, powers in held.exponents(12):
        r = inputs.r
        if r == 1:
            assert powers is None
        else:
            assert powers == core._column_powers(n_max, r), r
        rows = core.t_rows(r, n_max, inverse=held.inverse, powers=powers)
        for n, row in enumerate(rows):
            assert row == core.t_row(n, r), (n, r)
            assert row == [inner_number(n, j, r) for j in range(n + 1)], (n, r)
    assert r == 12


def test_running_forward_powers_match_fresh_powers(monkeypatch):
    # verify's a_n: each exponent's forward powers as the previous exponent's
    # times the forward rows, summed row by row. r = 1 steps nothing: its
    # forward powers are the forward rows themselves and it has no column
    # powers, so r = 2 multiplies the forward rows and the bases by themselves
    n_max = 20
    held = core.Sweep(n_max)
    steps = []
    true_times = core._times

    def recording_times(rows, bases):
        steps.append((rows, bases, true_times(rows, bases)))
        return steps[-1][2]

    monkeypatch.setattr(core, "_times", recording_times)
    forward = held.forward
    for inputs, powers in held.exponents(12):
        r = inputs.r
        assert inputs.held is held
        if r == 1:
            assert (powers, steps) == (None, [])
        else:
            # r's two steps, the forward powers and then the columns
            (rows, bases, forward), column_step = steps[-2:]
            assert (rows is held.forward) == (r == 2)
            assert bases is held.forward
            assert column_step[2] is powers
        assert forward == [[f**r for f in _forward_row(n)] for n in range(n_max + 1)], r
        assert inputs.a == list(map(sum, forward)), r
        assert inputs.a == [core.lhs_sum(n, r) for n in range(n_max + 1)], r
    assert len(steps) == 2 * 11
    assert steps[1][0] is steps[1][1] is held.bases


def test_t3_closed_values():
    assert core.t3_closed(2, 1) == 24
    assert core.t3_closed(2, 0) == 0
    for n in range(8):
        assert core.t3_closed(n, n) == 1


def test_t3_vanishing_pattern():
    for n in range(13):
        for j in range(n + 1):
            assert (core.t3_closed(n, j) == 0) == (3 * j < n)
    # at every r, t(n, j, r) = 0 exactly when n > r j, where each closed
    # ratio column ends; at r = 3 that is Strehl's 3j < n
    for r in range(1, 9):
        for n, row in enumerate(core.t_rows(r, 30)):
            assert [t == 0 for t in row] == [n > r * j for j in range(n + 1)], (r, n)


def _padded(column, length):
    # a column stored to its last nonzero entry, with the zeros past it up to
    # `length` entries, so that comparing it compares the support and the zeros
    assert len(column) <= length
    return column + [0] * (length - len(column))


def test_t3_matches_defining_sum():
    for n in range(11):
        for j in range(n + 1):
            assert core.t3_closed(n, j) == core.t_sum(n, j, 3)


def test_c2_closed_values():
    assert core.c2_closed(0) == 1
    assert core.c2_closed(2) == 10
    assert core.c2_closed(3) == 56


def test_c2_closed_matches_oracle():
    assert [core.c2_closed(n) for n in range(13)] == core.c_by_definition(2, 12)


def test_t4_closed():
    assert core.t4_closed(2, 1) == 78 == core.t_sum(2, 1, 4)
    for n in range(9):
        for j in range(n + 1):
            assert core.t4_closed(n, j) == core.t_sum(n, j, 4)


def test_t5_closed():
    assert core.t5_closed(2, 1) == 240 == core.t_sum(2, 1, 5)
    for n in range(9):
        for j in range(n + 1):
            assert core.t5_closed(n, j) == core.t_sum(n, j, 5)


def test_t_general_delegations():
    assert core.t_general(2, 1, 2) == core.t_sum(2, 1, 2)
    assert core.t_general(2, 0, 3) == core.t3_closed(2, 0)
    with pytest.raises(ValueError):
        core.t_general(2, 1, 0)
    with pytest.raises(ValueError):
        core.t_general(1, 2, 4)


def test_t_general_matches_defining_sum():
    # the closed ratio columns scaled back, C(2n,n) ratio(n, j) = C(2j,j) t(n, j, r),
    # entry by entry against the defining rows, and t_general, which divides
    # C(2j,j) out of the left side, against the same rows. The columns read
    # from a sweep's held chains are those built one chain at a time. nest(n, j)
    # is nonzero exactly for n - j <= (r-1) j, so column j stops at its last
    # nonzero entry, n - j = min(N - j, (r-1) j)
    central = _central_row(30)
    held = core.Sweep(30)
    for r in range(1, 13):
        defining = core.t_rows(r, 30)
        columns = list(core.closed_ratio_columns(r, 30))
        assert list(map(len, columns)) == [min(30 - j, (r - 1) * j) + 1 for j in range(31)], r
        assert all(column[-1] for column in columns), r
        assert list(core.closed_ratio_columns(r, 30, held.chains)) == columns, r
        columns = [_padded(column, 31 - j) for j, column in enumerate(columns)]
        for n, row in enumerate(defining):
            ratios = [columns[j][n - j] for j in range(n + 1)]
            assert [central[n] * x for x in ratios] == list(map(mul, central, row)), (r, n)
            if n <= 16:
                for j in range(n + 1):
                    assert core.t_general(n, j, r) == row[j], (r, n, j)


@pytest.mark.parametrize(
    "r, form",
    [
        (3, lambda n, j: comb(n, j) ** 2 * comb(2 * j, n - j)),
        (2, lambda n, j: comb(n, j) * comb(j, n - j)),
    ],
    ids=["strehl-r3", "franel-r2"],
)
def test_closed_ratio_columns_are_strehl_and_franel_forms(r, form):
    # at r = 3 the ratio C(2j,j) t(n, j, 3) / C(2n,n) is C(n,j)^2 C(2j, n-j),
    # so c(n, 3) = sum_j C(n,j)^2 C(2j,j)^2 C(2j, n-j), Strehl's single sum;
    # at r = 2 it is C(n,j) C(j, n-j), so c(n, 2) = sum_j C(n,j) C(2j,j)
    # C(j, n-j), a third form of the Franel numbers. Both from math.comb only,
    # column by column, and summed over each order n
    columns = [_padded(column, 61 - j) for j, column in enumerate(core.closed_ratio_columns(r, 60))]
    for j, column in enumerate(columns):
        assert column == [form(n, j) for n in range(j, 61)], j
    for n, c in enumerate(core.c_by_definition(r, 60)):
        assert sum(comb(2 * j, j) ** (r - 1) * columns[j][n - j] for j in range(n + 1)) == c, n


@pytest.mark.parametrize("r", range(2, 10))
def test_nest_column_matches_brute_force_nest(r):
    # s <= 4, odd and even r: every level of the banded convolution against
    # the chained sum written out term by term
    s, odd = divmod(r, 2)
    for j in range(9):
        column = core._NestChain(j, 14).column(s, odd)
        assert _padded(column, 15 - j) == [nest(n, j, r) for n in range(j, 15)], j


def test_chained_nest_columns_match_fresh_columns():
    # one chain per j, asked for every exponent of a sweep r = 2..14 in turn,
    # gives each column that a fresh chain run to that r alone gives, and for
    # s <= 4 the chained sum written out term by term; a request for a
    # smaller s after s = 7 starts the chain over
    n_max = 14
    for j in range(n_max + 1):
        chain = core._NestChain(j, n_max)
        for r in [*range(2, 15), 5, 2, 9, 8]:
            s, odd = divmod(r, 2)
            column = chain.column(s, odd)
            assert column == core._NestChain(j, n_max).column(s, odd), (j, r)
            if s <= 4:
                assert _padded(column, n_max + 1 - j) == [
                    nest(n, j, r) for n in range(j, n_max + 1)
                ], (j, r)
        assert chain.s == 3  # r = 8 reads the odd chain for s = 3, restarted from s = 4


def test_closed_route_at_r1_is_the_chain_start(monkeypatch):
    # r = 1 is s = 0: the nest is the start [1], so every ratio column is
    # the unit column [n = j], stored as its one nonzero entry, and the closed sum gives
    # c(n, 1) = 1 from one read of each chain j = 0..N; r = 0 is no exponent
    reads = []
    true_ratios = core._NestChain.ratios

    def counted_ratios(self, r):
        reads.append((self.j, r))
        return true_ratios(self, r)

    monkeypatch.setattr(core._NestChain, "ratios", counted_ratios)
    for n_max in range(31):
        columns = list(core.closed_ratio_columns(1, n_max))
        assert columns == [[1]] * (n_max + 1), n_max
        assert [_padded(column, n_max + 1 - j) for j, column in enumerate(columns)] == [
            [1] + [0] * (n_max - j) for j in range(n_max + 1)
        ], n_max
        reads.clear()
        assert core.c_closed(1, n_max) == [1] * (n_max + 1)
        assert reads == [(j, 1) for j in range(n_max + 1)], n_max
    with pytest.raises(ValueError):
        core.c_closed(0, 3)


def test_t_general_at_r1_is_the_identity():
    # C(2j,j) t(n, j, 1) = C(2n,n) [j = n], the Legendre inversion itself
    for n in range(21):
        assert [core.t_general(n, j, 1) for j in range(n + 1)] == [0] * n + [1], n


def test_chain_walks_its_kernels_only_where_read():
    # a chain read only at r <= 2 walks no C(2j, .) kernel, and each kernel
    # C(m, .) is walked to d = n_max - j, the last entry a level reads. A
    # level on the start is its own kernel, so the levels of r = 2 and 3
    # build no weights and walk no C(k+j, k-j) column; r = 4 builds them
    n_max = 12
    built = {"band", "outer", "weights"}
    for j in range(n_max + 1):
        chain = core._NestChain(j, n_max)
        chain.ratios(1)
        assert vars(chain).keys() & built == set(), j
        chain.ratios(2)
        assert vars(chain).keys() & built == {"outer"}, j
        assert chain.outer == [comb(j, d) for d in range(min(j, n_max - j) + 1)], j
        chain.ratios(3)
        assert vars(chain).keys() & built == {"outer", "band"}, j
        assert chain.band == [comb(2 * j, d) for d in range(min(2 * j, n_max - j) + 1)], j
        chain.ratios(4)
        assert vars(chain).keys() & built == built, j


def test_t_general_deep_nest_example():
    assert core.t_general(3, 1, 7) == core.t_sum(3, 1, 7)


def test_c_general_delegations_and_values():
    assert [core.c_general(n, 3) for n in (1, 2)] == [4, 68]
    assert [core.c_general(n, 4) for n in (0, 1, 2)] == [1, 8, 424]
    assert [core.c_general(n, 5) for n in (0, 1, 2)] == [1, 16, 2576]
    assert core.c_general(2, 7) == core.c_by_definition(7, 2)[2]
    assert core.c_general(5, 1) == 1
    assert core.c_general(4, 2) == core.c2_closed(4)
    with pytest.raises(ValueError):
        core.c_general(3, 0)


@pytest.mark.parametrize("r", range(3, 21))
def test_c_general_matches_definition_at_high_order(r):
    assert core.c_closed(r, 60) == core.c_by_definition(r, 60)
    if r in (3, 4, 16):
        # the single-value form is a read of the sequence
        assert [core.c_general(n, r) for n in range(21)] == core.c_closed(r, 20)


def test_route_agreement_small():
    for r in range(2, 7):
        oracle = core.c_by_definition(r, 8)
        for n in range(9):
            assert core.c_from_t(n, r) == oracle[n]
            assert core.c_general(n, r) == oracle[n]


def test_n_independence_small():
    # the solved prefix reproduces the power sums at every order at once
    for r in range(2, 7):
        c = core.c_by_definition(r, 10)
        for n in range(11):
            assert legendre_forward(c, n) == core.lhs_sum(n, r)


def test_c1_is_power_of_two():
    for r in range(1, 11):
        assert core.c_by_definition(r, 1)[1] == 2 ** (r - 1)


def test_t_table_rows():
    assert [(n, j, t, ratio) for n, j, t, ratio in core.t_table(3, 2)] == [
        (0, 0, 1, 1),
        (1, 0, 0, 0),
        (1, 1, 1, 1),
        (2, 0, 0, 0),
        (2, 1, 24, 8),
        (2, 2, 1, 1),
    ]


def test_inverse_divides_by_the_central_binomial():
    # the unit impulse at order n has inverse numerator D(n,n) = 1 there and 0
    # below, so legendre_inverse is 1 / C(2n,n), and the inverse route's one
    # remainder is the pair (1, C(2n,n))
    for n in range(1, 41):
        a = [0] * n + [1]
        assert legendre_inverse(a, n) == Fraction(1, comb(2 * n, n))
        inputs = core.RouteInputs(1, n)
        inputs.a = a
        with pytest.raises(DivisibilityError) as caught:
            core.ROUTES["inverse"](inputs)
        assert (caught.value.numerator, caught.value.divisor) == (1, comb(2 * n, n))


def test_t_table_ratio_consistency():
    for n, j, t, ratio in core.t_table(4, 7):
        assert ratio * comb(2 * n, n) == comb(2 * j, j) * t


def test_binomial_product_identity():
    # C(2j,j) C(k+j,k-j) == C(k,j) C(k+j,j), the regrouping behind c_from_t
    for k in range(13):
        for j in range(k + 1):
            assert comb(2 * j, j) * binomial(k + j, k - j) == binomial(k, j) * binomial(k + j, j)
