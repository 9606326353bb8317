"""Forward and inverse Legendre transforms of integer sequences.

The forward transform of a sequence c is

    a_n = sum_k C(n,k) C(n+k,k) c_k = sum_k C(2k,k) C(n+k,n-k) c_k,

and it is inverted through the coefficients

    D(n,k) = C(2n,n-k) - C(2n,n-k-1):

    C(2n,n) c_n = sum_k (-1)^(n-k) D(n,k) a_k.

They satisfy the integer identity (n+k+1) D(n,k) = (2k+1) C(2n,n-k), so
D(n,k) = D(n,k+1) (2k+1)(n+k+2) / ((2k+3)(n-k)) exactly: the inverse row is
walked down from D(n,n) = 1 and reads no binomial, and the divisor C(2n,n)
is read from the walked `combinatorics._central_row`.

Sequences are dense prefixes, plain lists indexed 0..N. Each kernel is
written once, as a whole row: `_forward_row(n)` holds C(n,k) C(n+k,k) and
`_inverse_row(n)` holds (-1)^(n-k) D(n,k), for k = 0..n. Every reader of
either kernel in the package, `core.lhs_sum` and `core.t_row` included,
goes through these two rows. Neither row depends on anything but n, so the
forward readers and `core.t_rows` take rows a sweep already holds. The solve
step of `triangular_solve` is written once too, as `_solve_step`, so that a
caller which builds forward row n for a reader of its own, as the definition
route builds a_n, takes c_n from that row without building it again.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Sequence

from .combinatorics import _central_row, binomial, exact_divide


def _check_prefix(seq: Sequence[int], n: int) -> None:
    if n < 0:
        raise ValueError(f"order must be >= 0, got n={n}")
    if n >= len(seq):
        raise IndexError(f"sequence prefix ends at index {len(seq) - 1}, needed {n}")


def _forward_row(n: int) -> list[int]:
    """C(n,k) C(n+k,k) for k = 0..n, from the scalar binomial (math.comb)."""
    return [binomial(n, k) * binomial(n + k, k) for k in range(n + 1)]


def _inverse_row(n: int) -> list[int]:
    """(-1)^(n-k) D(n,k) for k = 0..n, walked down from D(n,n) = 1 by the two-term step."""
    row = [1] * (n + 1)
    for k in range(n - 1, -1, -1):
        row[k] = -row[k + 1] * (2 * k + 1) * (n + k + 2) // ((2 * k + 3) * (n - k))
    return row


def legendre_forward(c: Sequence[int], n: int) -> int:
    """a_n = sum_k C(n,k) C(n+k,k) c_k."""
    _check_prefix(c, n)
    return sum(f * c_k for f, c_k in zip(_forward_row(n), c))


def legendre_inverse(a: Sequence[int], n: int) -> Fraction:
    """c_n = [sum_k (-1)^(n-k) D(n,k) a_k] / C(2n,n), as an exact rational.

    Defined for arbitrary integer input. Integrality of particular families
    is a statement to verify downstream, not a precondition, so no
    divisibility is enforced here.
    """
    return Fraction(_inverse_numerator(a, n), _central_row(n)[n])


def _inverse_numerator(a: Sequence[int], n: int) -> int:
    """sum_k (-1)^(n-k) D(n,k) a_k = C(2n,n) c_n, legendre_inverse's numerator before any gcd."""
    _check_prefix(a, n)
    return sum(map(mul, _inverse_row(n), a))


def triangular_solve(a: Sequence[int], forward: Sequence[list[int]] | None = None) -> list[int]:
    """Solve a_n = sum_k C(n,k) C(n+k,k) c_k for integer c, index by index.

    The diagonal coefficient is C(n,n) C(2n,n), the last entry of the
    forward row, so step n subtracts the already-known part and divides by
    it exactly. A remainder raises DivisibilityError, meaning the input is
    not the forward transform of any integer sequence. This solver is
    deliberately brute force: it is the oracle everything faster is
    measured against. `forward` holds _forward_row(n) for n = 0, 1, ...
    when the caller already holds those rows.
    """
    c: list[int] = []
    for n, a_n in enumerate(a):
        c.append(_solve_step(a_n, _forward_row(n) if forward is None else forward[n], c))
    return c


def _solve_step(a_n: int, row: list[int], c: list[int]) -> int:
    """c_n from a_n, its forward row and c = c_0..c_{n-1}: one step of triangular_solve."""
    # c holds c_0..c_{n-1}, so zip stops short of the diagonal
    partial = sum(f * c_k for f, c_k in zip(row, c))
    return exact_divide(a_n - partial, row[-1])
