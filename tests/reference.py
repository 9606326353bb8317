"""Reference forms the tests compare the package against.

Each one is written independently of the package, from `math.comb` and
`Fraction` alone, so that a bug in the code under test cannot also sit in
its oracle.
"""

from fractions import Fraction
from math import comb


def pochhammer(x, m):
    """Rising product x (x+1) ... (x+m-1) as a Fraction; the empty product (m = 0) is 1."""
    value = Fraction(1)
    for i in range(m):
        value *= x + i
    return value


def legendre_forward_central(c, n):
    """a_n = sum_k C(2k,k) C(n+k,n-k) c_k, the central-binomial form of the forward transform."""
    return sum(comb(2 * k, k) * comb(n + k, n - k) * c[k] for k in range(n + 1))


def nest(n, j, r):
    """The (s-1)-fold nest of the closed t(n, j, r), r = 2s or 2s + 1, term by term.

    Over chained indices n = k_0 >= k_1 >= ... >= k_{s-1} >= j, level L
    contributes C(2j, k_{L-1}-k_L) C(k_L+j, k_L-j)^2, except that the outer
    level of an even r contributes C(j, n-k_1) C(k_1, j) C(k_1+j, k_1-j), and
    C(2j, k_{s-1}-j) closes the chain. At s = 1 the nest is the closing
    factor alone, C(2j, n-j) for odd r and C(j, n-j) for even r.
    """
    s, odd = divmod(r, 2)
    if s == 1:
        return comb(2 * j, n - j) if odd else comb(j, n - j)

    def below(level, k):
        if level == s:
            return comb(2 * j, k - j)
        total = 0
        for inner in range(j, k + 1):
            if level == 1 and not odd:
                factor = comb(j, k - inner) * comb(inner, j) * comb(inner + j, inner - j)
            else:
                factor = comb(2 * j, k - inner) * comb(inner + j, inner - j) ** 2
            total += factor * below(level + 1, inner)
        return total

    return below(1, n)


def well_poised_pole_free(a, pairs, m):
    """No denominator of the expanded very-well-poised series (a/2, 1+a-b_i, 1+a-c_i, 1+a+m),
    nor the trailing b_s+c_s-a-m of Andrews's nest, is an integer in (-m, 0]."""
    b_last, c_last = pairs[-1]
    candidates = [a / 2, 1 + a + m, b_last + c_last - a - m]
    for b, c in pairs:
        candidates += [1 + a - b, 1 + a - c]
    return not any(x.denominator == 1 and -m < x <= 0 for x in candidates)


def sample_rational_by_randint(rng):
    """Numerator uniform in [-6, 6], denominator uniform in [1, 6], in that order."""
    p = rng.randint(-6, 6)
    return Fraction(p, rng.randint(1, 6))


def sample_well_poised_by_randint(rng, s, m_max):
    """A pole-free (a, pairs, m) by randint draws: a, then b_1, c_1, ..., b_s, c_s, then m.

    A draw with a = 0 or a vanishing denominator is discarded and the draws repeat.
    """
    while True:
        a = sample_rational_by_randint(rng)
        pairs = tuple(
            (sample_rational_by_randint(rng), sample_rational_by_randint(rng)) for _ in range(s)
        )
        m = rng.randint(0, m_max)
        if a != 0 and well_poised_pole_free(a, pairs, m):
            return a, pairs, m
