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
