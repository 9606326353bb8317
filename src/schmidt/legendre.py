"""Forward and inverse Legendre transforms of integer sequences.

The forward transform of a sequence c is

    a_n = sum_k C(n,k) C(n+k,k) c_k = sum_k C(2k,k) C(n+k,n-k) c_k,

and it is inverted through the coefficients

    D(n,k) = C(2n,n-k) - C(2n,n-k-1),

which also satisfy the integer identity (n+k+1) D(n,k) = (2k+1) C(2n,n-k):

    C(2n,n) c_n = sum_k (-1)^(n-k) D(n,k) a_k.

Sequences are dense prefixes, plain lists indexed 0..N. Each kernel is
written once, as a whole row: `_forward_row(n)` holds C(n,k) C(n+k,k) and
`_inverse_row(n)` holds (-1)^(n-k) D(n,k), for k = 0..n. Every reader of
either kernel in the package, `core.lhs_sum` and `core.t_row` included,
goes through these two rows. Neither row depends on anything but n, so a
reader also takes rows its caller already holds, as a sweep over many
exponents does. The solve step of `triangular_solve` is written once too,
as `_solve_step`, so that a caller which builds forward row n for a reader
of its own, as the definition route builds a_n, takes c_n from that row
without building it again.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Sequence

from .combinatorics import _binomial_row, binomial, central_binomial, exact_divide


def _check_prefix(seq: Sequence[int], n: int) -> None:
    if n < 0:
        raise ValueError(f"order must be >= 0, got n={n}")
    if n >= len(seq):
        raise IndexError(f"sequence prefix ends at index {len(seq) - 1}, needed {n}")


def _forward_row(n: int) -> list[int]:
    """C(n,k) C(n+k,k) for k = 0..n, from the scalar binomial (math.comb)."""
    return [binomial(n, k) * binomial(n + k, k) for k in range(n + 1)]


def _inverse_row(n: int) -> list[int]:
    """(-1)^(n-k) D(n,k) for k = 0..n, all from one C(2n, .) row.

    C(2n, -1) = 0 closes the row at k = n, where D(n,n) = 1.
    """
    row = _binomial_row(2 * n)
    return [
        (-1) ** (n - k) * (row[n - k] - (row[n - k - 1] if k < n else 0)) for k in range(n + 1)
    ]


def legendre_forward(c: Sequence[int], n: int) -> int:
    """a_n = sum_k C(n,k) C(n+k,k) c_k."""
    _check_prefix(c, n)
    return sum(f * c_k for f, c_k in zip(_forward_row(n), c))


def legendre_inverse(a: Sequence[int], n: int, row: list[int] | None = None) -> Fraction:
    """c_n = [sum_k (-1)^(n-k) D(n,k) a_k] / C(2n,n), as an exact rational.

    Defined for arbitrary integer input. Integrality of particular families
    is a statement to verify downstream, not a precondition, so no
    divisibility is enforced here. `row` is _inverse_row(n) when the caller
    already holds it.
    """
    _check_prefix(a, n)
    if row is None:
        row = _inverse_row(n)
    acc = sum(map(mul, row, a))
    return Fraction(acc, central_binomial(n))


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
