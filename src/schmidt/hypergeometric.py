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
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .combinatorics import _rising_pairs, binomial, exact_divide, factorial
from .core import _require_exponent, _require_order

Rational = Fraction | int


class PoleError(ArithmeticError):
    """A denominator Pochhammer vanished before the series terminated."""


@dataclass(frozen=True)
class HypSeries:
    """Numerator/denominator parameters (int or Fraction) and termination index m."""

    numerator: tuple[Rational, ...]
    denominator: tuple[Rational, ...]
    m: int

    def __post_init__(self) -> None:
        if self.m < 0:
            raise ValueError(f"termination index must be >= 0, got {self.m}")
        if -self.m not in self.numerator:
            raise ValueError(f"no numerator parameter equals -m = {-self.m}")


@dataclass(frozen=True)
class WellPoisedSpec:
    """Very-well-poised parameter set: base a, the (b_i, c_i) pairs, and m.

    Expansion inserts the (1 + a/2, a/2) special pair and the terminating
    column itself; callers never supply them. a = 0 would put a zero
    parameter in the denominator and is rejected outright. Pairs are int or
    Fraction; a is stored as a Fraction so that a / 2 stays exact.
    """

    a: Fraction
    pairs: tuple[tuple[Rational, Rational], ...]
    m: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", Fraction(self.a))
        if not self.pairs:
            raise ValueError("need at least one (b, c) pair")
        if self.m < 0:
            raise ValueError(f"termination index must be >= 0, got {self.m}")
        if self.a == 0:
            raise ValueError("a = 0 would put a zero parameter in the denominator")

    @property
    def s(self) -> int:
        return len(self.pairs)

    def _denominator_pairs(self) -> list[tuple[int, int]]:
        # a/2, 1+a-b_1, 1+a-c_1, ..., 1+a-b_s, 1+a-c_s, 1+a+m, in the order
        # of the expanded series, as unreduced integer pairs (P, Q) with Q > 0
        an, ad = self.a.numerator, self.a.denominator
        out = [(an, 2 * ad)]
        for pair in self.pairs:
            for x in pair:
                out.append(((ad + an) * x.denominator - x.numerator * ad, ad * x.denominator))
        out.append((an + (1 + self.m) * ad, ad))
        return out

    def expand(self) -> HypSeries:
        """The full series: every numerator/denominator pair sums to 1 + a."""
        a = self.a
        numerator = [a, 1 + a / 2]
        for b, c in self.pairs:
            numerator += [b, c]
        numerator.append(-self.m)
        denominator = tuple(Fraction(p, q) for p, q in self._denominator_pairs())
        return HypSeries(tuple(numerator), denominator, self.m)


def eval_terminating(series: HypSeries) -> Fraction:
    """Sum the series exactly from its consecutive-term ratios.

    The l-th ratio is prod(p_i + l) / ((l + 1) prod(q_j + l)). A zero
    numerator factor zeroes every later term and truncates the sum; a zero
    denominator factor met while the numerator side is still nonzero is a
    pole. The arithmetic runs on integer pairs and builds one Fraction at
    the end.
    """
    # A parameter P/Q contributes the integer P + l*Q to the l-th ratio and
    # its Q to the other side. One forward scan finds the truncation index
    # and any pole; the sum is then nested, S = 1 + r_0 (1 + r_1 (1 + ...)),
    # and folded from the inside out without a gcd.
    top = [(p.numerator, p.denominator) for p in series.numerator]
    bottom = [(q.numerator, q.denominator) for q in series.denominator]
    top_scale = bottom_scale = 1
    for _, q in bottom:
        top_scale *= q
    for _, q in top:
        bottom_scale *= q
    ratios = []
    for l in range(series.m):
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
    return Fraction(total_num, total_den)


def _prefactor_pair(a: Rational, b: Rational, c: Rational, m: int) -> tuple[int, int]:
    # (1+a)_m (1+a-b-c)_m / ((1+a-b)_m (1+a-c)_m) as an unreduced integer
    # pair, raising PoleError when (1+a-b)_m or (1+a-c)_m vanishes
    top = 1 + a
    (n1, d1), (n2, d2), (n3, d3), (n4, d4) = (
        (nums[m], dens[m])
        for nums, dens in (_rising_pairs(x, m) for x in (top, top - b - c, top - b, top - c))
    )
    den = d1 * d2 * n3 * n4
    if den == 0:
        raise PoleError("denominator Pochhammer of the prefactor vanishes")
    return n1 * n2 * d3 * d4, den


def dougall_rhs(a: Rational, c: Rational, d: Rational, m: int) -> Fraction:
    """Dougall's evaluation (1+a)_m (1+a-c-d)_m / ((1+a-c)_m (1+a-d)_m)."""
    return Fraction(*_prefactor_pair(a, c, d, m))


def check_dougall(a: Rational, c: Rational, d: Rational, m: int) -> bool:
    """Does the very-well-poised 5F4 sum to Dougall's closed form?"""
    series = WellPoisedSpec(a, ((c, d),), m).expand()
    return eval_terminating(series) == dougall_rhs(a, c, d, m)


def whipple_rhs(
    a: Rational, b: Rational, c: Rational, d: Rational, e: Rational, m: int
) -> Fraction:
    """Whipple's transform: a Dougall-style prefactor in (d, e) times the
    balanced 4F3 with parameters (1+a-b-c, d, e, -m; 1+a-b, 1+a-c, d+e-a-m)."""
    pre_num, pre_den = _prefactor_pair(a, d, e, m)
    series = HypSeries(
        (1 + a - b - c, d, e, -m),
        (1 + a - b, 1 + a - c, d + e - a - m),
        m,
    )
    value = eval_terminating(series)
    return Fraction(pre_num * value.numerator, pre_den * value.denominator)


def check_whipple(
    a: Rational, b: Rational, c: Rational, d: Rational, e: Rational, m: int
) -> bool:
    """Does the very-well-poised 7F6 equal Whipple's prefactor times 4F3?"""
    series = WellPoisedSpec(a, ((b, c), (d, e)), m).expand()
    return eval_terminating(series) == whipple_rhs(a, b, c, d, e, m)


def _nest_pair(spec: WellPoisedSpec) -> tuple[int, int]:
    # Level i < s sums over l_i, with partial = l_1 + ... + l_{i-1} and
    # cum = partial + l_i. It keeps its own local Pochhammer
    # (1+a-b_i-c_i)_{l_i} but raises the next pair and its own denominators
    # to the cumulative index; past the last level the trailing ratio
    # (-m)_partial / (b_s+c_s-a-m)_partial closes the chain. Beyond
    # partial = m the trailing (-m) Pochhammer kills every continuation,
    # which bounds each loop. Every Pochhammer is tabulated once over 0..m
    # as integer pairs, and every value is an integer pair.
    # A level's value depends only on partial, so the levels are summed
    # bottom-up, each into one list over partial = 0..m (partial 0 alone at
    # level 1). A vanishing denominator is stored as its PoleError message
    # and raised only if the root reads it: a pole fails exactly the sums
    # that reach it, never one that a vanishing numerator skips.
    a, m, pairs = spec.a, spec.m, spec.pairs
    b_last, c_last = pairs[-1]
    trailing_num, _ = _rising_pairs(-m, m)
    trailing_den, trailing_scale = _rising_pairs(b_last + c_last - a - m, m)
    below: list[tuple[int, int] | str] = [
        (num * scale, den) if den
        else ("trailing denominator Pochhammer vanished in the nest" if num else (0, 1))
        for num, den, scale in zip(trailing_num, trailing_den, trailing_scale)
    ]
    top = 1 + a
    for level in range(len(pairs) - 1, 0, -1):
        (b_i, c_i), (b_next, c_next) = pairs[level - 1], pairs[level]
        local_num, local_den = _rising_pairs(top - b_i - c_i, m)
        local_den = [x * factorial(l) for l, x in enumerate(local_den)]
        (bn, bd), (cn, cd), (en, ed), (fn, fd) = (
            _rising_pairs(x, m) for x in (b_next, c_next, top - b_i, top - c_i)
        )
        # ratio[cum] = (b_next)_cum (c_next)_cum / ((1+a-b_i)_cum (1+a-c_i)_cum)
        ratio_num = [w * x * y * z for w, x, y, z in zip(bn, cn, ed, fd)]
        ratio_den = [w * x * y * z for w, x, y, z in zip(bd, cd, en, fn)]
        values: list[tuple[int, int] | str] = []
        for partial in range(m + 1 if level > 1 else 1):
            total_num, total_den = 0, 1
            for l in range(m - partial + 1):
                cum = partial + l
                if local_num[l] == 0 or ratio_num[cum] == 0:
                    continue
                entry = below[cum] if ratio_den[cum] else (
                    f"denominator Pochhammer vanished in the nest at level {level}"
                )
                if isinstance(entry, str):
                    values.append(entry)
                    break
                below_num, below_den = entry
                num = local_num[l] * ratio_num[cum] * below_num
                den = local_den[l] * ratio_den[cum] * below_den
                total_num, total_den = total_num * den + num * total_den, total_den * den
            else:
                values.append((total_num, total_den))
        below = values
    if isinstance(below[0], str):
        raise PoleError(below[0])
    return below[0]


def andrews_rhs(spec: WellPoisedSpec) -> Fraction:
    """Andrews's multiple-series value for the expanded spec.

    A Dougall-style prefactor in the last pair multiplies an (s-1)-fold
    nested sum; the nest collapses to 1 for s = 1 and reproduces Whipple's
    4F3 parameter for parameter at s = 2.
    """
    b_last, c_last = spec.pairs[-1]
    pre_num, pre_den = _prefactor_pair(spec.a, b_last, c_last, spec.m)
    num, den = _nest_pair(spec)
    return Fraction(pre_num * num, pre_den * den)


def check_andrews(spec: WellPoisedSpec) -> bool:
    """Does the expanded very-well-poised series equal the multiple-sum value?"""
    return eval_terminating(spec.expand()) == andrews_rhs(spec)


def t_as_hypergeometric(n: int, j: int, r: int) -> int:
    """t(n, j, r) as C(n+j,n-j)^r times a terminating (r+2)F(r+1) at unit argument.

    Numerator parameters are (-(2n+1), -(2n-1)/2) plus r copies of -(n-j);
    denominators are (-(2n+1)/2) plus r copies of -(n+j). Termination at
    m = n - j strictly precedes the first possible denominator zero at
    index n + j + 1, so the evaluation can never pole; the halved
    parameters are never integers at integer offsets. The result is
    asserted integral before being returned.
    """
    _require_order(n, j)
    _require_exponent(r)
    a = Fraction(-(2 * n + 1))
    series = HypSeries(
        (a, 1 + a / 2) + (-(n - j),) * r,
        (a / 2,) + (-(n + j),) * r,
        n - j,
    )
    value = binomial(n + j, n - j) ** r * eval_terminating(series)
    return exact_divide(value.numerator, value.denominator)


def _vanishes(p: int, q: int, m: int) -> bool:
    # (p/q)_m == 0 for an unreduced pair with q > 0: p/q is an integer in
    # {0, -1, ..., -(m-1)}
    return p % q == 0 and -m * q < p <= 0


def spec_pole_free(spec: WellPoisedSpec) -> bool:
    """No denominator Pochhammer of the series, the prefactor, or the nested
    sums can vanish at or before the termination index."""
    m = spec.m
    an, ad = spec.a.numerator, spec.a.denominator
    (bn, bd), (cn, cd) = ((x.numerator, x.denominator) for x in spec.pairs[-1])
    # the series' own denominators, then the nest's trailing b_s+c_s-a-m
    candidates = spec._denominator_pairs()
    candidates.append(((bn * cd + cn * bd - m * bd * cd) * ad - an * bd * cd, ad * bd * cd))
    return not any(_vanishes(p, q, m) for p, q in candidates)


def sample_rational(rng: random.Random) -> Fraction:
    """Numerator uniform in [-6, 6], denominator uniform in [1, 6]."""
    return Fraction(rng.randint(-6, 6), rng.randint(1, 6))


def sample_well_poised(rng: random.Random, s: int, m_max: int) -> WellPoisedSpec:
    """Rejection-sample a pole-free spec with s pairs and m <= m_max.

    Deterministic for a given generator state: candidates with a = 0 or a
    vanishing denominator Pochhammer are discarded and the draw repeats.
    """
    if s < 1:
        raise ValueError(f"need at least one pair, got s={s}")
    if m_max < 0:
        raise ValueError(f"m_max must be >= 0, got {m_max}")
    while True:
        a = sample_rational(rng)
        pairs = tuple((sample_rational(rng), sample_rational(rng)) for _ in range(s))
        m = rng.randint(0, m_max)
        if a == 0:
            continue
        spec = WellPoisedSpec(a, pairs, m)
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
