"""Terminating series evaluation, the classical identities, the t route."""

import gc
import math
import random
from fractions import Fraction

import pytest

from reference import (
    pochhammer,
    sample_rational_by_randint,
    sample_well_poised_by_randint,
    well_poised_pole_free,
)
from schmidt.combinatorics import binomial
from schmidt.core import t3_closed, t_sum
from schmidt.hypergeometric import (
    HypSeries,
    PoleError,
    WellPoisedSpec,
    andrews_rhs,
    check_andrews,
    check_dougall,
    check_reduction,
    check_whipple,
    dougall_rhs,
    eval_terminating,
    sample_dougall,
    sample_well_poised,
    sample_whipple,
    spec_pole_free,
    t_as_hypergeometric,
    whipple_rhs,
    _below,
    _vanishes,
)


def rising(x: Fraction, l: int) -> Fraction:
    """(x)_l as a plain product of Fractions, independent of the package."""
    out = Fraction(1)
    for i in range(l):
        out *= x + i
    return out


def brute_force_sum(series: HypSeries) -> Fraction:
    """Independent oracle: sum the terms straight from the Pochhammer quotient."""
    total = Fraction(0)
    for l in range(series.m + 1):
        num = Fraction(1)
        for p in series.numerator:
            num *= rising(p, l)
        den = rising(Fraction(1), l)
        for q in series.denominator:
            den *= rising(q, l)
        total += num / den
    return total


# Reference implementations: the Fraction-per-operation evaluators that the
# integer-pair code replaced. They define the pole policy, including which
# PoleError message each pole-bearing spec raises.


def reference_eval_terminating(series: HypSeries) -> Fraction:
    total = term = Fraction(1)
    for l in range(series.m):
        num = Fraction(1)
        for p in series.numerator:
            num *= p + l
        if num == 0:
            break
        den = Fraction(l + 1)
        for q in series.denominator:
            den *= q + l
        if den == 0:
            raise PoleError(f"denominator parameter hit zero at term {l + 1}")
        term = term * num / den
        total += term
    return total


def reference_nest(spec: WellPoisedSpec) -> Fraction:
    a, m, pairs = spec.a, spec.m, spec.pairs
    b_last, c_last = pairs[-1]

    def table(x: Fraction) -> list[Fraction]:
        out = [Fraction(1)]
        for i in range(m):
            out.append(out[-1] * (x + i))
        return out

    trailing_num = table(Fraction(-m))
    trailing_den = table(b_last + c_last - a - m)
    levels = []
    for (b_i, c_i), (b_next, c_next) in zip(pairs, pairs[1:]):
        local = [x / math.factorial(l) for l, x in enumerate(table(1 + a - b_i - c_i))]
        num = [x * y for x, y in zip(table(b_next), table(c_next))]
        den = [x * y for x, y in zip(table(1 + a - b_i), table(1 + a - c_i))]
        levels.append((local, num, den))

    memo: dict[tuple[int, int], Fraction] = {}

    def node(level: int, partial: int) -> Fraction:
        key = (level, partial)
        if key in memo:
            return memo[key]
        if level == len(pairs):
            num, den = trailing_num[partial], trailing_den[partial]
            if den == 0:
                if num != 0:
                    raise PoleError("trailing denominator Pochhammer vanished in the nest")
                total = Fraction(0)
            else:
                total = num / den
        else:
            local, num, den = levels[level - 1]
            total = Fraction(0)
            for l in range(m - partial + 1):
                cum = partial + l
                if local[l] == 0 or num[cum] == 0:
                    continue
                if den[cum] == 0:
                    raise PoleError(f"denominator Pochhammer vanished in the nest at level {level}")
                total += local[l] * num[cum] / den[cum] * node(level + 1, cum)
        memo[key] = total
        return total

    return node(1, 0)


def reference_series(spec: WellPoisedSpec) -> HypSeries:
    a, m = spec.a, spec.m
    flat = [x for pair in spec.pairs for x in pair]
    return HypSeries(
        (a, 1 + a / 2, *flat, Fraction(-m)),
        (a / 2, *(1 + a - x for x in flat), 1 + a + m),
        m,
    )


def reference_prefactor(a, b, c, m: int) -> Fraction:
    den = rising(1 + a - b, m) * rising(1 + a - c, m)
    if den == 0:
        raise PoleError("denominator Pochhammer of the prefactor vanishes")
    return rising(1 + a, m) * rising(1 + a - b - c, m) / den


def reference_whipple_rhs(a, b, c, d, e, m: int) -> Fraction:
    prefactor = reference_prefactor(a, d, e, m)
    series = HypSeries((1 + a - b - c, d, e, -m), (1 + a - b, 1 + a - c, d + e - a - m), m)
    return prefactor * reference_eval_terminating(series)


def reference_andrews_rhs(spec: WellPoisedSpec) -> Fraction:
    b_last, c_last = spec.pairs[-1]
    return reference_prefactor(spec.a, b_last, c_last, spec.m) * reference_nest(spec)


# The checks as compositions of the references, each evaluating its left
# side first, so that the first pole met decides the message.


def reference_check_dougall(a, c, d, m: int) -> bool:
    series = reference_series(WellPoisedSpec(a, ((c, d),), m))
    return reference_eval_terminating(series) == reference_prefactor(a, c, d, m)


def reference_check_whipple(a, b, c, d, e, m: int) -> bool:
    series = reference_series(WellPoisedSpec(a, ((b, c), (d, e)), m))
    return reference_eval_terminating(series) == reference_whipple_rhs(a, b, c, d, e, m)


def reference_reduces(spec: WellPoisedSpec) -> bool:
    value = reference_andrews_rhs(spec)
    flat = [x for pair in spec.pairs for x in pair]
    if spec.s == 1:
        return value == reference_prefactor(spec.a, *flat, spec.m)
    return value == reference_whipple_rhs(spec.a, *flat, spec.m)


def reference_spec_pole_free(spec: WellPoisedSpec) -> bool:
    return well_poised_pole_free(spec.a, spec.pairs, spec.m)


def test_eval_m0_is_one():
    assert eval_terminating(HypSeries((0, Fraction(5, 7)), (Fraction(1, 3),), 0)) == 1


def test_eval_chu_vandermonde():
    value = eval_terminating(HypSeries((-2, Fraction(1, 2)), (1,), 2))
    assert value == Fraction(3, 8)
    assert value == pochhammer(Fraction(1, 2), 2) / pochhammer(1, 2)


def test_eval_alternating_cancellation():
    assert eval_terminating(HypSeries((-2, 1), (1,), 2)) == 0


def test_eval_matches_brute_force_on_random_parameters():
    rng = random.Random(99)
    for _ in range(150):
        m = rng.randint(0, 6)
        numerator = [Fraction(-m)] + [
            Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(rng.randint(1, 3))
        ]
        denominator = []
        for _ in range(rng.randint(1, 3)):
            while True:
                q = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
                if not _vanishes(q.numerator, q.denominator, m):
                    break
            denominator.append(q)
        series = HypSeries(tuple(numerator), tuple(denominator), m)
        assert eval_terminating(series) == brute_force_sum(series)


def test_series_requires_terminating_parameter():
    with pytest.raises(ValueError):
        HypSeries((-2, Fraction(1, 2)), (1,), 3)
    with pytest.raises(ValueError):
        HypSeries((Fraction(1, 2),), (1,), -1)


def test_eval_pole_error():
    with pytest.raises(PoleError):
        eval_terminating(HypSeries((-3, Fraction(1, 2)), (-1,), 3))


def test_numerator_truncation_wins_over_later_pole():
    # numerator dies at l = 2, denominator would die at l = 3
    series = HypSeries((-1, Fraction(1, 2), -3), (-2,), 3)
    value = eval_terminating(series)
    assert value == 1 + Fraction((-1) * Fraction(1, 2) * (-3), (1) * (-2))


def test_well_poised_expansion_pairing():
    for spec in (
        WellPoisedSpec(Fraction(2, 3), ((Fraction(1, 2), Fraction(-1, 5)),
                                        (Fraction(3), Fraction(1, 7))), 4),
        # an int a still expands to the exact Fraction 1 + a/2, never a float
        WellPoisedSpec(-3, ((1, Fraction(1, 2)), (2, -4)), 3),
    ):
        series = spec.expand()
        assert len(series.numerator) == len(series.denominator) + 1
        assert series.numerator[0] == spec.a
        assert type(series.numerator[1]) is Fraction
        assert series.numerator[1] == 1 + spec.a / 2
        # the leading column pairs with the implicit l! parameter 1
        assert series.numerator[0] + 1 == 1 + spec.a
        for p, q in zip(series.numerator[1:], series.denominator):
            assert p + q == 1 + spec.a


def test_well_poised_rejects_zero_a():
    with pytest.raises(ValueError):
        WellPoisedSpec(Fraction(0), ((Fraction(1, 2), Fraction(1, 3)),), 2)


def test_well_poised_requires_pairs():
    with pytest.raises(ValueError):
        WellPoisedSpec(Fraction(1, 2), (), 2)


def test_dougall_m0():
    assert dougall_rhs(Fraction(1, 3), Fraction(1, 2), Fraction(1, 5), 0) == 1
    assert check_dougall(Fraction(1, 3), Fraction(1, 2), Fraction(1, 5), 0)


def test_dougall_worked_example():
    assert check_dougall(Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), 2)


def test_dougall_random_rationals():
    rng = random.Random(20260501)
    for _ in range(200):
        a, c, d, m = sample_dougall(rng, 5)
        assert check_dougall(a, c, d, m), (a, c, d, m)


def test_dougall_pole_configuration_raises():
    # 1 + a - c == 0 vanishes at the first step; Whipple's and Andrews's
    # prefactors over the same last pair raise the same message
    b, c = Fraction(1, 3), Fraction(1, 5)
    message = r"^denominator Pochhammer of the prefactor vanishes$"
    with pytest.raises(PoleError, match=message):
        dougall_rhs(1, 2, Fraction(1, 2), 2)
    with pytest.raises(PoleError, match=message):
        whipple_rhs(1, b, c, 2, Fraction(1, 2), 2)
    with pytest.raises(PoleError, match=message):
        andrews_rhs(WellPoisedSpec(1, ((b, c), (2, Fraction(1, 2))), 2))
    with pytest.raises(PoleError):
        check_dougall(1, 2, Fraction(1, 2), 2)


def test_dougall_reproduces_r3_closed_form():
    for n in range(8):
        for j in range(n + 1):
            a = -(2 * n + 1)
            value = binomial(n + j, n - j) ** 3 * dougall_rhs(a, -(n - j), -(n - j), n - j)
            assert value == t3_closed(n, j)


def test_whipple_m0():
    args = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), Fraction(-1, 4), Fraction(2, 7))
    assert whipple_rhs(*args, 0) == 1
    assert check_whipple(*args, 0)


def test_whipple_random_rationals():
    rng = random.Random(20260502)
    for _ in range(200):
        a, b, c, d, e, m = sample_whipple(rng, 5)
        assert check_whipple(a, b, c, d, e, m), (a, b, c, d, e, m)


def test_whipple_specialization_even_route():
    # b = (1+a)/2 makes the 7F6 collapse to the series behind the r = 4
    # closed form; the transform stays pole-free whenever 3j >= n
    for n in range(7):
        for j in range(n + 1):
            if 3 * j < n:
                continue
            a = -(2 * n + 1)
            x = -(n - j)
            value = binomial(n + j, n - j) ** 4 * whipple_rhs(a, -n, x, x, x, n - j)
            assert value == t_sum(n, j, 4), (n, j)


def test_whipple_specialization_odd_route():
    for n in range(7):
        for j in range(n + 1):
            if 3 * j < n:
                continue
            a = -(2 * n + 1)
            x = -(n - j)
            assert check_whipple(a, x, x, x, x, n - j)
            value = binomial(n + j, n - j) ** 5 * whipple_rhs(a, x, x, x, x, n - j)
            assert value == t_sum(n, j, 5), (n, j)


def test_whipple_degenerate_parameters_hit_pole_policy():
    # at 3j < n the balanced 4F3 has a vanishing denominator Pochhammer
    n, j = 7, 2
    a = -(2 * n + 1)
    x = -(n - j)
    with pytest.raises(PoleError):
        whipple_rhs(a, x, x, x, x, n - j)


def test_andrews_random_specs():
    rng = random.Random(20260503)
    for s in (1, 2, 3):
        for _ in range(100):
            spec = sample_well_poised(rng, s, 4)
            assert check_andrews(spec), spec


def test_andrews_reduction_chain():
    rng = random.Random(20260504)
    for _ in range(100):
        spec = sample_well_poised(rng, 1, 5)
        ((c, d),) = spec.pairs
        assert andrews_rhs(spec) == dougall_rhs(spec.a, c, d, spec.m)
        spec = sample_well_poised(rng, 2, 5)
        (b, c), (d, e) = spec.pairs
        assert andrews_rhs(spec) == whipple_rhs(spec.a, b, c, d, e, spec.m)


def test_check_reduction_rejects_s_past_two():
    # Andrews's nest has a classical closed form only at s = 1 and s = 2
    spec = WellPoisedSpec(
        Fraction(3),
        ((Fraction(1, 6), Fraction(-2, 3)), (Fraction(1, 2), Fraction(5, 6)),
         (Fraction(-1, 4), Fraction(2))),
        2,
    )
    with pytest.raises(ValueError, match="beyond s=2, got s=3"):
        check_reduction(spec)
    # the guard comes before Andrews's value, whose nest would meet a pole here
    pole_bearing = WellPoisedSpec(
        1, ((Fraction(1, 3), Fraction(1, 5)), (Fraction(1, 6), Fraction(2, 7)),
            (2, Fraction(1, 2))), 2,
    )
    with pytest.raises(PoleError):
        andrews_rhs(pole_bearing)
    with pytest.raises(ValueError, match="beyond s=2, got s=3"):
        check_reduction(pole_bearing)


def test_dougall_and_whipple_checks_validate_as_the_spec_does():
    with pytest.raises(ValueError, match=r"^a = 0 would put a zero parameter in the denominator$"):
        check_dougall(0, Fraction(1, 2), Fraction(1, 3), 2)
    with pytest.raises(ValueError, match=r"^termination index must be >= 0, got -1$"):
        check_whipple(Fraction(1, 2), 1, Fraction(1, 3), Fraction(1, 4), Fraction(1, 5), -1)


@pytest.mark.parametrize(
    "spec, message",
    [
        # 1 + a - b_1 = 0: the level-1 denominator dies at cum = 1 while
        # (1 + a - b_1 - c_1) b_2 c_2 does not
        (
            WellPoisedSpec(Fraction(1, 2), ((Fraction(3, 2), Fraction(1, 3)),
                                            (Fraction(1, 5), Fraction(1, 7))), 2),
            "nest at level 1",
        ),
        # b_2 + c_2 - a - m = 0: the trailing denominator dies at partial = 1
        (
            WellPoisedSpec(Fraction(1, 2), ((Fraction(1, 5), Fraction(1, 7)),
                                            (Fraction(1, 3), Fraction(13, 6))), 2),
            "trailing denominator",
        ),
    ],
)
def test_andrews_nested_pole_raises(spec, message):
    with pytest.raises(PoleError, match=message):
        andrews_rhs(spec)


@pytest.mark.parametrize(
    "spec, raises",
    [
        (
            WellPoisedSpec(Fraction(-7, 2), ((Fraction(1, 2), Fraction(-1, 3)),
                                             (Fraction(2, 5), Fraction(1))), 3),
            False,
        ),
        (
            WellPoisedSpec(Fraction(1, 2), ((Fraction(3, 2), Fraction(1, 3)),
                                            (Fraction(1, 5), Fraction(1, 7))), 2),
            True,
        ),
    ],
)
def test_andrews_nest_leaves_no_cyclic_garbage(spec, raises):
    # the nest's tables must be freed by reference counting, on the value
    # path and on the pole path alike, not left for the cyclic collector
    gc.collect()
    gc.disable()
    try:
        try:
            andrews_rhs(spec)
        except PoleError:
            assert raises
        else:
            assert not raises
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_andrews_nested_zero_over_zero_is_skipped():
    # 1 + a - b_1 = 0 and b_2 = 0: numerator and denominator vanish together
    # at every cum >= 1, so only the l = 0 term survives; the prefactor is
    # (1+a)_m (1+a-c_2)_m / ((1+a)_m (1+a-c_2)_m) = 1
    spec = WellPoisedSpec(Fraction(1, 2), ((Fraction(3, 2), Fraction(1, 3)),
                                           (Fraction(0), Fraction(1, 7))), 3)
    assert andrews_rhs(spec) == 1


def _as_given(x: Fraction) -> Fraction | int:
    # an integral parameter passed as the int a caller would write
    return x.numerator if x.denominator == 1 else x


def _outcome(fn, *args):
    try:
        return "value", fn(*args)
    except PoleError as exc:
        return "pole", str(exc)


@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_integer_pair_code_matches_fraction_reference_with_poles(s):
    # 700 specs per s, drawn without the pole-free filter: a pole-bearing
    # spec must raise the same PoleError message as the reference, never
    # give a value or a ZeroDivisionError. The same spec with its integral
    # parameters passed as ints must give the same value or message. At
    # s = 1 and 2 the checks that compare integer pairs, Dougall's or
    # Whipple's and the CLI's reduction, must give the reference's bool or
    # message too, and at s = 1 Dougall's check must give Andrews's.
    rng = random.Random(f"reference/{s}")
    closed = {1: dougall_rhs, 2: whipple_rhs}.get(s)
    check, reference_check = {
        1: (check_dougall, reference_check_dougall),
        2: (check_whipple, reference_check_whipple),
    }.get(s, (None, None))
    seen = set()
    specs = int_given = 0
    while specs < 700:
        a = sample_rational_by_randint(rng)
        pairs = tuple(
            (sample_rational_by_randint(rng), sample_rational_by_randint(rng)) for _ in range(s)
        )
        m = rng.randint(0, 8)
        if a == 0:
            continue
        specs += 1
        spec = WellPoisedSpec(a, pairs, m)
        assert spec_pole_free(spec) == reference_spec_pole_free(spec), spec
        series = spec.expand()
        assert series == reference_series(spec), spec
        flat = (a, *(x for pair in pairs for x in pair))
        compared = [
            ("series", eval_terminating, reference_eval_terminating, (series,)),
            ("andrews", andrews_rhs, reference_andrews_rhs, (spec,)),
        ]
        if check:
            compared += [
                ("check", check, reference_check, (*flat, m)),
                ("reduces", check_reduction, reference_reduces, (spec,)),
            ]
        if s == 1:
            # Dougall's check is Andrews's at s = 1
            compared.append(
                ("dougall-is-andrews", check_dougall, lambda *_: check_andrews(spec), (*flat, m))
            )
        for name, new, reference, args in compared:
            outcome = _outcome(new, *args)
            assert outcome == _outcome(reference, *args), (name, spec)
            seen.add((name, outcome[0]))
        given = tuple(map(_as_given, flat))
        int_given += any(type(x) is int for x in given)
        given_spec = WellPoisedSpec(given[0], tuple(zip(given[1::2], given[2::2])), m)
        for fn, as_fractions, as_given in (
            (eval_terminating, (series,), (given_spec.expand(),)),
            (check_andrews, (spec,), (given_spec,)),
            *([(closed, (*flat, m), (*given, m))] if closed else []),
        ):
            assert _outcome(fn, *as_given) == _outcome(fn, *as_fractions), (fn, spec)
    assert int_given
    names = [name for name, *_ in compared]
    assert seen == {(name, kind) for name in names for kind in ("value", "pole")}


@pytest.mark.parametrize("s", [2, 3])
def test_nest_matches_fraction_reference_past_m8(s):
    # m up to 12, past the m = 8 of the identities benchmark, where the
    # running products of Andrews's nest grow longest: the nest must give
    # the reference's value or PoleError message on pole-bearing specs too
    rng = random.Random(f"nest/{s}")
    seen = set()
    specs = 0
    while specs < 300:
        a = sample_rational_by_randint(rng)
        pairs = tuple(
            (sample_rational_by_randint(rng), sample_rational_by_randint(rng)) for _ in range(s)
        )
        m = rng.randint(0, 12)
        if a == 0:
            continue
        specs += 1
        spec = WellPoisedSpec(a, pairs, m)
        outcome = _outcome(andrews_rhs, spec)
        assert outcome == _outcome(reference_andrews_rhs, spec), spec
        seen.add((outcome[0], m > 8))
    assert seen == {(kind, past) for kind in ("value", "pole") for past in (False, True)}


def test_andrews_m0():
    spec = WellPoisedSpec(Fraction(5, 3), ((1, 2), (Fraction(1, 2), Fraction(7, 5))), 0)
    assert andrews_rhs(spec) == 1
    assert check_andrews(spec)


def test_sampler_is_deterministic():
    first = sample_well_poised(random.Random(7), 3, 5)
    second = sample_well_poised(random.Random(7), 3, 5)
    assert first == second


class _Draws:
    """A generator stand-in whose randint returns the queued draws in order."""

    def __init__(self, *draws: int) -> None:
        self.draws = list(draws)

    def randint(self, low: int, high: int) -> int:
        value = self.draws.pop(0)
        assert low <= value <= high
        return value


def test_sampler_draw_order_is_pinned():
    # These values fix the generator call order that every seeded identities
    # report depends on: numerator before denominator, a before the pairs,
    # the pairs in order, m last. The randint reference that
    # test_sampler_stream_matches_randint_reference holds the sampler to
    # draws numerator before denominator.
    for p in range(-6, 7):
        for q in range(1, 7):
            draws = _Draws(p, q)
            assert sample_rational_by_randint(draws) == Fraction(p, q)
            assert draws.draws == []
    rng = random.Random("0/andrews/3")
    assert [sample_well_poised(rng, 3, 8) for _ in range(3)] == [
        WellPoisedSpec(
            Fraction(2),
            ((Fraction(0), Fraction(-5, 4)), (Fraction(0), Fraction(-6)),
             (Fraction(-1, 6), Fraction(-5, 4))),
            5,
        ),
        WellPoisedSpec(
            Fraction(1, 4),
            ((Fraction(0), Fraction(2, 3)), (Fraction(-5, 2), Fraction(-3)),
             (Fraction(1, 5), Fraction(1))),
            2,
        ),
        WellPoisedSpec(
            Fraction(-5, 2),
            ((Fraction(0), Fraction(3)), (Fraction(-4, 5), Fraction(1)),
             (Fraction(-1), Fraction(-1, 3))),
            4,
        ),
    ]
    rng = random.Random("0/dougall")
    assert [sample_dougall(rng, 8) for _ in range(3)] == [
        (Fraction(-2, 3), Fraction(2, 5), Fraction(3, 4), 4),
        (Fraction(2), Fraction(-2), Fraction(-5, 4), 5),
        (Fraction(-1, 4), Fraction(-3, 2), Fraction(3), 8),
    ]


def test_sampler_stream_matches_randint_reference():
    # sample_well_poised draws through getrandbits; it must return the specs
    # of the randint sampler it replaced, draw for draw, hand each spec the
    # pairs that spec would compute itself, and leave the generator in the
    # same state
    specs = 0
    for seed in ("0", "1", "stream"):
        for s in (1, 2, 3, 4):
            for m_max in (0, 1, 8, 12):
                rng = random.Random(f"{seed}/{s}/{m_max}")
                reference = random.Random(f"{seed}/{s}/{m_max}")
                for _ in range(110):
                    spec = sample_well_poised(rng, s, m_max)
                    expected = WellPoisedSpec(*sample_well_poised_by_randint(reference, s, m_max))
                    assert spec == expected
                    assert spec._numerator_pairs == expected._numerator_pairs
                    assert spec._denominator_pairs == expected._denominator_pairs
                    specs += 1
                assert rng.getstate() == reference.getstate()
    assert specs >= 5000


def test_draw_helper_matches_randint():
    for n in range(1, 17):
        rng, reference = random.Random(f"below/{n}"), random.Random(f"below/{n}")
        for _ in range(200):
            assert _below(rng.getrandbits, n) == reference.randint(0, n - 1)
        assert rng.getstate() == reference.getstate()
    # a width-1 draw has one value but still spends one getrandbits(1), or
    # more while they read 1; from a seed whose first bit is 0, exactly one
    seed = next(x for x in range(100) if random.Random(x).getrandbits(1) == 0)
    rng, reference = random.Random(seed), random.Random(seed)
    assert _below(rng.getrandbits, 1) == 0
    reference.getrandbits(1)
    assert rng.getstate() == reference.getstate() != random.Random(seed).getstate()


def test_pochhammer_vanishes_predicate():
    # _vanishes reads an unreduced pair (P, Q), Q > 0, as the rational P/Q
    assert _vanishes(0, 1, 1)
    assert _vanishes(-2, 1, 3)
    assert _vanishes(-4, 2, 3)
    assert not _vanishes(-3, 1, 3)
    assert not _vanishes(-1, 2, 5)
    assert not _vanishes(2, 1, 4)
    for m in range(6):
        for p in range(-8, 3):
            for q in (1, 2, 3):
                assert _vanishes(p, q, m) == (pochhammer(Fraction(p, q), m) == 0), (p, q, m)


def test_t_as_hypergeometric_examples():
    assert t_as_hypergeometric(2, 1, 3) == 24
    assert t_as_hypergeometric(3, 1, 2) == t_sum(3, 1, 2)
    for n in range(5):
        for r in (2, 4, 7):
            assert t_as_hypergeometric(n, n, r) == 1


def test_t_as_hypergeometric_matches_defining_sum():
    for n in range(8):
        for j in range(n + 1):
            for r in range(2, 8):
                assert t_as_hypergeometric(n, j, r) == t_sum(n, j, r), (n, j, r)


def test_t_as_hypergeometric_rejects_bad_indices():
    with pytest.raises(ValueError):
        t_as_hypergeometric(1, 2, 3)
