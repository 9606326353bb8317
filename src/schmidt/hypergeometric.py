"""Terminating hypergeometric sums at unit argument, evaluated exactly.

A series here is the finite sum over l = 0..m of

    prod_i (p_i)_l / ( l! * prod_j (q_j)_l ),

with some numerator parameter equal to -m so that every later term is
zero; the argument is always 1 and stays implicit. Pole policy: a
denominator Pochhammer that vanishes at an index whose numerator product
is still nonzero raises PoleError, while a vanishing numerator merely
truncates the sum early. Nothing is regularized.

The classical evaluations checked against these series are Dougall's
very-well-poised 5F4 summation, Whipple's 7F6-to-4F3 transformation, and
Andrews's terminating multiple-series generalization of the latter.

Arithmetic: every rational is carried as an unreduced integer pair
(P, Q), parameters with Q > 0, from the sampled parameters to the final
comparison, which cross-multiplies the two sides. No gcd is taken on the
way; a Fraction is built only for a public return value (the `*_rhs`
functions wrap a pair evaluator) or a witness, and `t_as_hypergeometric`
divides its pair out exactly to an int. Every identity check reads a
`WellPoisedSpec`, and Dougall's and Whipple's checks build one from their
parameters. A spec's expanded pairs are written once (`_well_poised_top`
and `_well_poised_bottom`), by the sampler that drew it or on first use.
Andrews's nest tabulates its Pochhammer quotients as running products,
one loop per level.

Sampling: `sample_well_poised` draws from `rng.getrandbits` by the stdlib's
own rejection loop, so it consumes exactly the stream that `randint` calls
in the same order would, and it builds each candidate as integer pairs from
a table of the 78 possible rationals. The pole test reads a spec, so every
candidate with a != 0 is built as a `WellPoisedSpec` holding those pairs,
rejected draws included.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .combinatorics import _binomial_row, exact_divide
from .core import _require_exponent, _require_order

Rational = Fraction | int
Pair = tuple[int, int]


class PoleError(ArithmeticError):
    """A denominator Pochhammer vanished before the series terminated."""


def _pair(x: Rational) -> Pair:
    return x.numerator, x.denominator


def _equal(x: Pair, y: Pair) -> bool:
    # two unreduced pairs with nonzero denominators, compared by cross-multiplication
    return x[0] * y[1] == y[0] * x[1]


def _well_poised_top(a: Pair, flat: Sequence[Pair], m: int) -> tuple[Pair, ...]:
    # a, 1+a/2, b_1, c_1, ..., b_s, c_s, -m: the expanded series' numerators
    an, ad = a
    return ((an, ad), (an + 2 * ad, 2 * ad), *flat, (-m, 1))


def _well_poised_bottom(top: Sequence[Pair]) -> tuple[Pair, ...]:
    # a/2, then 1+a-x for every numerator x after 1+a/2: 1+a-b_1, 1+a-c_1,
    # ..., 1+a-b_s, 1+a-c_s, 1+a+m
    an, ad = top[0]
    shift = an + ad
    return ((an, 2 * ad), *[(shift * q - p * ad, ad * q) for p, q in top[2:]])


@dataclass(frozen=True)
class WellPoisedSpec:
    """Very-well-poised parameter set: base a, the (b_i, c_i) pairs, and m.

    The expanded series adds the (1 + a/2, a/2) special pair and the
    terminating column itself; callers never supply them. a = 0 would put a
    zero parameter in the denominator and is rejected outright. Pairs are
    int or Fraction; a is stored as a Fraction so that a / 2 stays exact.
    """

    a: Fraction
    pairs: tuple[tuple[Rational, Rational], ...]
    m: int

    def __post_init__(self) -> None:
        if not isinstance(self.a, Fraction):
            object.__setattr__(self, "a", Fraction(self.a))
        if not self.pairs:
            raise ValueError("need at least one (b, c) pair")
        if self.m < 0:
            raise ValueError(f"termination index must be >= 0, got {self.m}")
        if not self.a:
            raise ValueError("a = 0 would put a zero parameter in the denominator")

    @property
    def s(self) -> int:
        return len(self.pairs)

    # The expanded series' parameters as unreduced integer pairs (P, Q) with
    # Q > 0, computed once per spec: the pole check, the series, the
    # prefactor and the nest all read them. A sampled spec is handed the
    # pairs its sampler already computed.

    @cached_property
    def _numerator_pairs(self) -> tuple[Pair, ...]:
        flat = [_pair(x) for pair in self.pairs for x in pair]
        return _well_poised_top(_pair(self.a), flat, self.m)

    @cached_property
    def _denominator_pairs(self) -> tuple[Pair, ...]:
        return _well_poised_bottom(self._numerator_pairs)


def _series_pair(top: Sequence[Pair], bottom: Sequence[Pair], m: int) -> Pair:
    # The series with numerator parameters `top` and denominators `bottom`,
    # all unreduced pairs (P, Q), as an unreduced pair (num, den != 0).
    # A parameter P/Q contributes the integer P + l*Q to the l-th ratio and
    # its Q to the other side. One forward scan finds the truncation index
    # and any pole; the sum is then nested, S = 1 + r_0 (1 + r_1 (1 + ...)),
    # and folded from the inside out without a gcd.
    top_scale = bottom_scale = 1
    for _, q in bottom:
        top_scale *= q
    for _, q in top:
        bottom_scale *= q
    ratios = []
    for l in range(m):
        num = top_scale
        for p, q in top:
            num *= p + l * q
        if num == 0:
            break
        den = (l + 1) * bottom_scale
        for p, q in bottom:
            den *= p + l * q
        if den == 0:
            raise PoleError(f"denominator parameter hit zero at term {l + 1}")
        ratios.append((num, den))
    total_num = total_den = 1
    for num, den in reversed(ratios):
        total_num, total_den = den * total_den + num * total_num, den * total_den
    return total_num, total_den


def _expanded_pair(spec: WellPoisedSpec) -> Pair:
    # the spec's expanded series, summed on its pairs
    return _series_pair(spec._numerator_pairs, spec._denominator_pairs, spec.m)


def _shifts(a: Pair, b: Pair, c: Pair) -> tuple[Pair, Pair, Pair, Pair]:
    # 1+a, 1+a-b, 1+a-c and 1+a-b-c as unreduced pairs over the denominators
    # Q_a, Q_a Q_b, Q_a Q_c and Q_a Q_b Q_c
    (an, ad), (bn, bd), (cn, cd) = a, b, c
    top = an + ad
    minus_b = top * bd - bn * ad
    return (
        (top, ad),
        (minus_b, ad * bd),
        (top * cd - cn * ad, ad * cd),
        (minus_b * cd - cn * ad * bd, ad * bd * cd),
    )


def _closing_pair(a: Pair, b: Pair, c: Pair, m: int) -> Pair:
    # b+c-a-m = 1-m-(1+a-b-c): the last denominator of Whipple's 4F3 in
    # (d, e) and of the trailing ratio that closes Andrews's nest
    p, q = _shifts(a, b, c)[3]
    return (1 - m) * q - p, q


def _prefactor_pair(a: Pair, b: Pair, c: Pair, m: int) -> Pair:
    # (1+a)_m (1+a-b-c)_m / ((1+a-b)_m (1+a-c)_m) as an unreduced integer
    # pair, raising PoleError when (1+a-b)_m or (1+a-c)_m vanishes. Over the
    # denominators of _shifts the powers Q^m of the two sides are equal, so
    # only the rising numerators are multiplied.
    (top, top_q), (minus_b, b_q), (minus_c, c_q), (minus_bc, bc_q) = _shifts(a, b, c)
    num = den = 1
    for i in range(m):
        num *= (top + i * top_q) * (minus_bc + i * bc_q)
        den *= (minus_b + i * b_q) * (minus_c + i * c_q)
    if den == 0:
        raise PoleError("denominator Pochhammer of the prefactor vanishes")
    return num, den


def dougall_rhs(a: Rational, c: Rational, d: Rational, m: int) -> Fraction:
    """Dougall's evaluation (1+a)_m (1+a-c-d)_m / ((1+a-c)_m (1+a-d)_m)."""
    return Fraction(*_prefactor_pair(_pair(a), _pair(c), _pair(d), m))


def check_dougall(a: Rational, c: Rational, d: Rational, m: int) -> bool:
    """Does the very-well-poised 5F4 sum to Dougall's closed form?"""
    return check_classical(WellPoisedSpec(a, ((c, d),), m))


def _whipple_pair(a: Pair, b: Pair, c: Pair, d: Pair, e: Pair, m: int) -> Pair:
    pre_num, pre_den = _prefactor_pair(a, d, e, m)
    _, minus_b, minus_c, minus_bc = _shifts(a, b, c)
    num, den = _series_pair(
        [minus_bc, d, e, (-m, 1)], [minus_b, minus_c, _closing_pair(a, d, e, m)], m
    )
    return pre_num * num, pre_den * den


def whipple_rhs(
    a: Rational, b: Rational, c: Rational, d: Rational, e: Rational, m: int
) -> Fraction:
    """Whipple's transform: a Dougall-style prefactor in (d, e) times the
    balanced 4F3 with parameters (1+a-b-c, d, e, -m; 1+a-b, 1+a-c, d+e-a-m)."""
    return Fraction(*_whipple_pair(*map(_pair, (a, b, c, d, e)), m))


def check_whipple(
    a: Rational, b: Rational, c: Rational, d: Rational, e: Rational, m: int
) -> bool:
    """Does the very-well-poised 7F6 equal Whipple's prefactor times 4F3?"""
    return check_classical(WellPoisedSpec(a, ((b, c), (d, e)), m))


def _nest_pair(spec: WellPoisedSpec) -> Pair:
    # Level i < s sums over l_i, with partial = l_1 + ... + l_{i-1} and
    # cum = partial + l_i. It keeps its own local Pochhammer
    # (1+a-b_i-c_i)_{l_i} but raises the next pair and its own denominators
    # to the cumulative index; past the last level the trailing ratio
    # (-m)_partial / (b_s+c_s-a-m)_partial closes the chain. Beyond
    # partial = m the trailing (-m) Pochhammer kills every continuation,
    # which bounds each loop, and up to it (-m)_partial is nonzero. Every
    # quotient is tabulated over 0..m as running products of integer pairs.
    # A level's value depends only on partial, so the levels are summed
    # bottom-up, each into one list over partial = 0..m (partial 0 alone at
    # level 1). A vanishing denominator is stored as its PoleError message
    # and raised only if the root reads it: a pole fails exactly the sums
    # that reach it, never one that a vanishing numerator skips. At s = 1
    # there is no level and the trailing ratio is read at partial 0: 1.
    if spec.s == 1:
        return 1, 1
    m = spec.m
    a, _, *flat, _ = spec._numerator_pairs
    pairs = list(zip(flat[::2], flat[1::2]))
    p, q = _closing_pair(a, *pairs[-1], m)
    below: list[Pair | str] = [(1, 1)]
    num = den = scale = 1
    for i in range(m):
        num *= i - m
        den *= p + i * q
        scale *= q
        below.append(
            (num * scale, den) if den else "trailing denominator Pochhammer vanished in the nest"
        )
    for level in range(len(pairs) - 1, 0, -1):
        (b_i, c_i), ((bn, bd), (cn, cd)) = pairs[level - 1], pairs[level]
        _, (en, ed), (fn, fd), (gn, gd) = _shifts(a, b_i, c_i)
        # local[l] = (1+a-b_i-c_i)_l / l! and step[cum] = (b_next)_cum
        # (c_next)_cum / ((1+a-b_i)_cum (1+a-c_i)_cum) times below[cum], each
        # kept only while its numerator is nonzero: a running product that
        # vanishes stays zero, and a zero term is skipped, never read
        local: list[Pair] = [(1, 1)]
        step = [below[0]]
        local_num = local_den = ratio_num = ratio_den = 1
        for i in range(m):
            local_num *= gn + i * gd
            local_den *= (i + 1) * gd
            if local_num:
                local.append((local_num, local_den))
            ratio_num *= (bn + i * bd) * (cn + i * cd) * ed * fd
            ratio_den *= bd * cd * (en + i * ed) * (fn + i * fd)
            if ratio_num:
                entry = below[i + 1]
                if not ratio_den:
                    entry = f"denominator Pochhammer vanished in the nest at level {level}"
                elif not isinstance(entry, str):
                    entry = (ratio_num * entry[0], ratio_den * entry[1])
                step.append(entry)
        values: list[Pair | str] = []
        for partial in range(m + 1 if level > 1 else 1):
            total_num, total_den = 0, 1
            for (num, den), entry in zip(local, step[partial:]):
                if isinstance(entry, str):
                    values.append(entry)
                    break
                num *= entry[0]
                den *= entry[1]
                total_num, total_den = total_num * den + num * total_den, total_den * den
            else:
                values.append((total_num, total_den))
        below = values
    if isinstance(below[0], str):
        raise PoleError(below[0])
    return below[0]


def _andrews_pair(spec: WellPoisedSpec) -> Pair:
    a, _, *flat, _ = spec._numerator_pairs
    pre_num, pre_den = _prefactor_pair(a, flat[-2], flat[-1], spec.m)
    num, den = _nest_pair(spec)
    return pre_num * num, pre_den * den


def andrews_rhs(spec: WellPoisedSpec) -> Fraction:
    """Andrews's multiple-series value for the expanded spec.

    A Dougall-style prefactor in the last pair multiplies an (s-1)-fold
    nested sum; check_reduction compares it with the closed forms at s <= 2.
    """
    return Fraction(*_andrews_pair(spec))


def check_andrews(spec: WellPoisedSpec) -> bool:
    """Does the expanded very-well-poised series equal the multiple-sum value?"""
    return _equal(_expanded_pair(spec), _andrews_pair(spec))


# The classical closed form of the series with s pairs, by s: Dougall's
# evaluation of the 5F4 and Whipple's transform of the 7F6
CLASSICAL_FORMS = {1: "5F4 evaluation", 2: "7F6 transform"}


def _equals_classical(spec: WellPoisedSpec, value: Callable[[WellPoisedSpec], Pair]) -> bool:
    # value(spec) against the closed form CLASSICAL_FORMS names: Dougall's
    # prefactor at s = 1, Whipple's prefactor times 4F3 at s = 2. The s guard
    # comes first and value(spec) next, so its first pole decides the message.
    if spec.s not in CLASSICAL_FORMS:
        raise ValueError(f"no classical reduction beyond s=2, got s={spec.s}")
    a, _, *flat, _ = spec._numerator_pairs
    closed = _prefactor_pair if spec.s == 1 else _whipple_pair
    return _equal(value(spec), closed(a, *flat, spec.m))


def check_classical(spec: WellPoisedSpec) -> bool:
    """Does the expanded series equal its classical closed form, at s = 1 or 2?"""
    return _equals_classical(spec, _expanded_pair)


def check_reduction(spec: WellPoisedSpec) -> bool:
    """Does Andrews's value reduce to its classical closed form, at s = 1 or 2?

    At s = 1 the nest is empty and Andrews's value is Dougall's prefactor
    times (1, 1), so the check only confirms that the nest is 1. At s = 2 it
    compares the prefactor times the nest with Whipple's 4F3 transform.
    """
    return _equals_classical(spec, _andrews_pair)


def t_as_hypergeometric(n: int, j: int, r: int) -> int:
    """t(n, j, r) as C(n+j,n-j)^r times a terminating (r+2)F(r+1) at unit argument.

    Numerator parameters are (-(2n+1), -(2n-1)/2) plus r copies of -(n-j);
    denominators are (-(2n+1)/2) plus r copies of -(n+j). Termination at
    m = n - j strictly precedes the first possible denominator zero at
    index n + j + 1, so the evaluation can never pole; the halved
    parameters are never integers at integer offsets. The series is summed
    on integer pairs and the result is asserted integral by an exact
    division.
    """
    _require_order(n, j)
    _require_exponent(r)
    a = -(2 * n + 1)
    top = ((a, 1), (a + 2, 2), *[(j - n, 1)] * r)
    bottom = ((a, 2), *[(-(n + j), 1)] * r)
    num, den = _series_pair(top, bottom, n - j)
    return exact_divide(_binomial_row(n + j, n - j)[-1] ** r * num, den)


def _vanishes(p: int, q: int, m: int) -> bool:
    # (p/q)_m == 0 for an unreduced pair with q > 0: p/q is an integer in
    # {0, -1, ..., -(m-1)}
    return p % q == 0 and -m * q < p <= 0


def spec_pole_free(spec: WellPoisedSpec) -> bool:
    """No denominator Pochhammer of the series, the prefactor, or the nested
    sums can vanish at or before the termination index."""
    m = spec.m
    # the series' own denominators, then the nest's trailing b_s+c_s-a-m
    a, *_, b, c, _ = spec._numerator_pairs
    candidates = (*spec._denominator_pairs, _closing_pair(a, b, c, m))
    return not any(_vanishes(p, q, m) for p, q in candidates)


# Every sampled parameter P/Q, numerator P in [-6, 6] and denominator Q in
# [1, 6], at 6 (P + 6) + (Q - 1), and the same values as reduced integer pairs
_SAMPLES = tuple(Fraction(p, q) for p in range(-6, 7) for q in range(1, 7))
_SAMPLE_PAIRS = tuple(map(_pair, _SAMPLES))


def _below(getrandbits, n: int) -> int:
    # rng.randint(0, n - 1) from rng.getrandbits by the stdlib's own rejection
    # loop, so that it consumes the same stream: a k-bit draw, repeated while
    # it is >= n. At n = 1 it still spends one getrandbits(1).
    k = n.bit_length()
    x = getrandbits(k)
    while x >= n:
        x = getrandbits(k)
    return x


def _sample_index(getrandbits) -> int:
    # the index in _SAMPLES of P/Q, from randint(-6, 6) for P, then randint(1, 6) for Q
    return 6 * _below(getrandbits, 13) + _below(getrandbits, 6)


def sample_well_poised(rng: random.Random, s: int, m_max: int) -> WellPoisedSpec:
    """Rejection-sample a pole-free spec with s pairs and m <= m_max.

    Deterministic for a given generator state: candidates with a = 0 or a
    vanishing denominator Pochhammer are discarded and the draw repeats.
    Each of a, then b_1, c_1, ..., b_s, c_s, is P/Q from randint(-6, 6) for
    P, then randint(1, 6) for Q; then randint(0, m_max) gives m. All draws
    are taken from rng.getrandbits, as randint would take them.
    """
    if s < 1:
        raise ValueError(f"need at least one pair, got s={s}")
    if m_max < 0:
        raise ValueError(f"m_max must be >= 0, got {m_max}")
    getrandbits = rng.getrandbits
    while True:
        a = _sample_index(getrandbits)
        drawn = [_sample_index(getrandbits) for _ in range(2 * s)]
        m = _below(getrandbits, m_max + 1)
        if not _SAMPLE_PAIRS[a][0]:
            continue
        values = [_SAMPLES[i] for i in drawn]
        spec = WellPoisedSpec(_SAMPLES[a], tuple(zip(values[::2], values[1::2])), m)
        top = _well_poised_top(_SAMPLE_PAIRS[a], [_SAMPLE_PAIRS[i] for i in drawn], m)
        # the cached properties read the instance dict first
        vars(spec).update(_numerator_pairs=top, _denominator_pairs=_well_poised_bottom(top))
        if spec_pole_free(spec):
            return spec


def sample_dougall(rng: random.Random, m_max: int) -> tuple[Fraction, Fraction, Fraction, int]:
    """A pole-free (a, c, d, m) tuple for Dougall's summation."""
    spec = sample_well_poised(rng, 1, m_max)
    ((c, d),) = spec.pairs
    return spec.a, c, d, spec.m


def sample_whipple(
    rng: random.Random, m_max: int
) -> tuple[Fraction, Fraction, Fraction, Fraction, Fraction, int]:
    """A pole-free (a, b, c, d, e, m) tuple for Whipple's transformation."""
    spec = sample_well_poised(rng, 2, m_max)
    (b, c), (d, e) = spec.pairs
    return spec.a, b, c, d, e, spec.m
