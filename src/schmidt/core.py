"""The Schmidt numbers c(n, r) and their inner companions t(n, j, r).

For an exponent r >= 1 the family c(., r) is pinned down by requiring

    sum_k C(n,k)^r C(n+k,k)^r  =  sum_k C(n,k) C(n+k,k) c(k, r)

to hold at every order n simultaneously; c_by_definition solves that
triangular system exactly and is the oracle for every other route here.
The inner numbers

    t(n, j, r) = sum_{k=j..n} (-1)^(n-k) D(n,k) C(k+j,k-j)^r

regroup the inversion so that C(2n,n) c(n, r) = sum_j C(2j,j)^r t(n, j, r).
The strong integrality statement, that every C(2j,j) t(n, j, r) / C(2n,n)
is an integer, is manifest in the closed route: for r = 2s or 2s + 1 that
ratio is C(n,j)^(1+[r odd]) times an (s-1)-fold nest of binomials, so

    c(n, r) = sum_j C(2j,j)^(r-1) C(n,j)^(1+[r odd]) nest_r(n, j)

is a sum of products of binomials with no division anywhere, for every
r >= 1, by the same nest chains at every r: at r = 1, s = 0, the nest is
[n = j] and the sum is 1. The defining t rows stay as the oracle.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from functools import cached_property
from itertools import repeat
from operator import add, mul

from .combinatorics import (
    DivisibilityError,
    _binomial_column,
    _binomial_row,
    _central_row,
    exact_divide,
)
from .legendre import (
    _forward_row,
    _inverse_numerator,
    _inverse_row,
    _solve_step,
    triangular_solve,
)


def _require_order(n: int, j: int = 0) -> None:
    if not 0 <= j <= n:
        raise ValueError(f"need 0 <= j <= n, got n={n}, j={j}")


def _require_exponent(r: int) -> None:
    if r < 1:
        raise ValueError(f"exponent must be >= 1, got r={r}")


def lhs_sum(n: int, r: int, row: list[int] | None = None) -> int:
    """sum_k C(n,k)^r C(n+k,k)^r, the power-sum side of the defining identity.

    `row` is the forward row _forward_row(n) when the caller already holds it.
    """
    _require_exponent(r)
    _require_order(n)
    if row is None:
        row = _forward_row(n)
    return sum(f**r for f in row)


def c_by_definition(r: int, n_max: int) -> list[int]:
    """c(0, r)..c(n_max, r) by solving the defining system directly: the definition route."""
    return ROUTES["definition"](RouteInputs(r, n_max))


def _inner_row(signed: list[int], powers: list[list[int]]) -> list[int]:
    # t(n, j, r) for j = 0..n, from the inverse row (-1)^(n-k) D(n,k) and
    # powers[j] = C(k+j, 2j)^r for k = j, j+1, ... at least up to n: the dot
    # product of the inverse row's tail from k = j with that column, which
    # map stops at k = n.
    return [sum(map(mul, signed[j:], powers[j])) for j in range(len(signed))]


def _column_bases(top: int) -> list[list[int]]:
    # C(k+j, k-j) = C(k+j, 2j) for k = j..top, walked down each column, for j = 0..top
    return [_binomial_column(top + j, 2 * j) for j in range(top + 1)]


def _column_powers(top: int, r: int) -> list[list[int]]:
    # the columns of _column_bases(top), each entry raised to r once
    return [[c**r for c in column] for column in _column_bases(top)]


def t_row(n: int, r: int) -> list[int]:
    """t(n, 0, r), ..., t(n, n, r) by the defining alternating sum.

    The signed coefficients (-1)^(n-k) D(n,k) are the Legendre layer's
    walked inverse row, and C(k+j,k-j) = C(k+j, 2j) is walked down its
    column along k, so the row makes no scalar binomial calls and costs
    O(n^2) powers and big-integer products. A whole sequence of rows is
    cheaper from t_rows, which raises each column entry to r once. This is
    the oracle for the closed forms.
    """
    _require_order(n)
    _require_exponent(r)
    return _inner_row(_inverse_row(n), _column_powers(n, r))


def t_rows(
    r: int,
    n_max: int,
    inverse: Sequence[list[int]] | None = None,
    powers: list[list[int]] | None = None,
) -> list[list[int]]:
    """t_row(n, r) for n = 0..n_max, all held.

    Every row reads the same columns C(k+j, 2j)^r, k = j..n_max, so each is
    walked and raised to r once for the whole sequence: O(n_max^2) powers
    and O(n_max^3) big-integer products, where n_max + 1 calls of t_row
    would raise O(n_max^3) powers. `inverse` holds _inverse_row(n) for
    n = 0..n_max and `powers` those columns when the caller already holds
    them, as a sweep over exponents does.
    """
    _require_exponent(r)
    _require_order(n_max)
    if powers is None:
        powers = _column_powers(n_max, r)
    signed_rows = map(_inverse_row, range(n_max + 1)) if inverse is None else inverse[: n_max + 1]
    return [_inner_row(signed, powers) for signed in signed_rows]


def t_sum(n: int, j: int, r: int) -> int:
    """t(n, j, r), read from t_row(n, r)."""
    _require_order(n, j)
    return t_row(n, r)[j]


def integrality_ratio(
    n: int, j: int, r: int, row: list[int] | None = None, central: list[int] | None = None
) -> int:
    """C(2j,j) t(n, j, r) / C(2n,n), divided out exactly.

    Integrality of this ratio is the strong form of the integrality
    statement; a DivisibilityError here is a counterexample witness, whose
    message starts with the entry, "(r=..., n=..., j=...): ".
    `row` is t_row(n, r) when the caller already holds it, and `central`
    the walked central binomials C(0,0)..C(2m,m), m >= n (_central_row(n),
    built here otherwise).
    """
    _require_order(n, j)
    if row is None:
        row = t_row(n, r)
    if central is None:
        central = _central_row(n)
    try:
        return exact_divide(central[j] * row[j], central[n])
    except DivisibilityError as exc:
        raise DivisibilityError(exc.numerator, exc.divisor, f"(r={r}, n={n}, j={j}): ") from None


def c_from_t(n: int, r: int) -> int:
    """c(n, r) = [sum_j C(2j,j)^r t(n, j, r)] / C(2n,n), divided out exactly."""
    central = _central_row(n)
    return exact_divide(sum(c**r * t for c, t in zip(central, t_row(n, r))), central[n])


def t3_closed(n: int, j: int) -> int:
    """t(n, j, 3) = (2n)! / ((3j-n)! (n-j)!^3); zero exactly when 3j < n."""
    return t_general(n, j, 3)


def c2_closed(n: int) -> int:
    """c(n, 2) = sum_j C(n,j)^3, the Franel numbers, from one walked C(n, .) row.

    No route calls it. The acceptance suite checks the equivalent form
    sum_j C(n,j)^2 C(2j,n) against it, and the tests the closed route's.
    """
    _require_order(n)
    return sum(x**3 for x in _binomial_row(n))


def t4_closed(n: int, j: int) -> int:
    """t(n, j, 4) = (2n)! j! / (n! (n-j)! (2j)!) * sum_k C(k+j,k-j) C(j,n-k) C(k,j) C(2j,k-j)."""
    return t_general(n, j, 4)


def t5_closed(n: int, j: int) -> int:
    """t(n, j, 5) = (2n)! / ((2j)! (n-j)!^2) * sum_k C(k+j,k-j)^2 C(2j,n-k) C(2j,k-j)."""
    return t_general(n, j, 5)


class _NestChain:
    """The nest columns at one j to order n_max, chained across exponents.

    nest(n, j) for r = 2s or 2s + 1 is the (s-1)-fold sum behind the closed
    ratio over chained indices n >= k_1 >= ... >= k_{s-1} >= j.
    Each level contributes C(2j,k_{L-1}-k_L) C(k_L+j,k_L-j)^2 (the even-r
    outer level C(j,n-k_1) C(k_1,j) C(k_1+j,k_1-j) instead) and
    C(2j,k_{s-1}-j) closes the chain. With i = k - j each level is one
    banded convolution (_nest_level) that never reads n, so one column,
    indexed by n - j, serves every order. Read from the inside out, the
    closing factor is one band level on the start [1], so the odd chain for
    s, the column of r = 2s + 1, is s band levels on the start, and the
    column of r = 2s is the outer level on the odd chain for s - 1; at
    r = 1, s = 0, it is the start itself. A band level widens a column by
    2j and the outer level by j, so each column is stored to n - j =
    min(n_max - j, (r-1) j), its last nonzero entry and t(n, j, r)'s.
    The chain holds only the latest odd chain: a sweep over r = 1, 2, ...
    runs one level per exponent, ~r_max levels per j where building each
    column afresh runs ~r_max^2 / 4, and a request for a smaller s starts
    over. A level reads a kernel C(m, .) only to d = n_max - j, so it is
    walked that far, and a level costs O(n_max min(n_max, 2j)) products.
    `over`, the column C(n, j) for n = j..n_max, weights the outer level
    and scales the nest into the closed ratio (ratios). Kernels and weights
    are built once, on first read; a level on the start is its own kernel,
    so a chain read only at r = 1 holds `over` alone, and one read only at
    r <= 3 builds no weights. The last ratio column, keyed by r, is kept,
    so two reads at one exponent build it once; never change it.
    """

    def __init__(self, j: int, n_max: int) -> None:
        self.j, self.length = j, n_max - j + 1
        self.s, self.chain = 0, [1]  # the odd chain for s, at s = 0 the start
        self.last = None, None  # r and the ratio column built for it

    @cached_property
    def over(self) -> list[int]:
        return _binomial_column(self.j + self.length - 1, self.j)  # C(k, j) for k = j..n_max

    @cached_property
    def band(self) -> list[int]:  # the band level's kernel C(2j, d)
        return _binomial_row(2 * self.j, self.length - 1)

    @cached_property
    def outer(self) -> list[int]:  # the outer level's kernel C(j, d)
        return _binomial_row(self.j, self.length - 1)

    @cached_property
    def weights(self) -> tuple[list[int], list[int]]:
        # the band and outer weights C(k+j, k-j)^2 and C(k, j) C(k+j, k-j), k = j..n_max
        stretched = _binomial_column(2 * self.j + self.length - 1, 2 * self.j)
        return [x * x for x in stretched], list(map(mul, self.over, stretched))

    def column(self, s: int, odd: bool) -> list[int]:
        """nest(n, j) to its last nonzero entry, at r = 2s + 1 (odd) or 2s; never change it."""
        target = s if odd else s - 1
        if target < self.s:
            self.s, self.chain = 0, [1]
        # every weights[0] is 1, so on the start [1] a level is its own kernel
        while self.s < target:
            self.chain = _nest_level(self.band, self.weights[0], self.chain) if self.s else self.band
            self.s += 1
        if odd:
            return self.chain
        return _nest_level(self.outer, self.weights[1], self.chain) if self.s else self.outer

    def ratios(self, r: int) -> list[int]:
        """The closed ratio C(n,j)^(1+[r odd]) nest(n, j), as long as the nest column, at r >= 1."""
        if self.last[0] != r:
            nests = self.column(*divmod(r, 2))
            self.last = r, [c ** (1 + r % 2) * nest for c, nest in zip(self.over, nests)]
        return self.last[1]


def _nest_level(kernel: list[int], weights: list[int], chain: list[int]) -> list[int]:
    # chain'[i] = sum_d kernel[d] weights[i-d] chain[i-d], to the convolution's
    # natural length, capped at the weights' end
    length = min(len(kernel) + len(chain) - 1, len(weights))
    # zero past the chain's end, so that weighted[i::-1] runs i - d for
    # d = 0, 1, ...; map stops at the kernel's end
    weighted = [*map(mul, weights, chain), *repeat(0, length - len(chain))]
    return [sum(map(mul, kernel, weighted[i::-1])) for i in range(length)]


def closed_ratio_columns(
    r: int, n_max: int, chains: Sequence[_NestChain] | None = None
) -> Iterator[list[int]]:
    """C(2j,j) t(n, j, r) / C(2n,n) for n = j..n_max, one column per j = 0..n_max, by the nested sums.

    For r = 2s or r = 2s + 1 (every r >= 1) the ratio is C(n,j)^(1+[r odd])
    times the (s-1)-fold nest, a product of walked binomials with no
    division: at r = 3 it is Strehl's C(n,j)^2 C(2j, n-j), at r = 2
    C(n,j) C(j, n-j), at r = 1 [n = j]. The columns come lazily; entry
    (n, j) is column j's entry n - j, stored up to n = r j, past which it is
    0. `chains` holds the _NestChain per j to order n_max when the caller
    sweeps over exponents; otherwise each chain is built as its column is
    asked for, and dropped with it, O(s n_max^3) work in all.
    """
    _require_order(n_max)
    _require_exponent(r)
    if chains is None:
        chains = map(_NestChain, range(n_max + 1), repeat(n_max))
    # map keeps no reference to a chain once its column is read, so a built
    # chain lives only as long as its column
    return map(_NestChain.ratios, chains, repeat(r))


def _times(rows: list[list[int]], bases: list[list[int]]) -> list[list[int]]:
    # every entry of rows times the entry of bases in its place: one step of
    # a running power, one product per entry where a fresh power is raised
    return [list(map(mul, row, base)) for row, base in zip(rows, bases)]


class Sweep:
    """What a sweep over exponents reads at every r to order n_max, each built once.

    forward[n] is _forward_row(n) and inverse[n] is _inverse_row(n), for
    n = 0..n_max; central is _central_row(n_max), whose prefix to C(2n,n)
    serves every order n; bases are the columns C(k+j, 2j), k = j..n_max,
    for j = 0..n_max. Together O(n_max^2) integers. exponents(r_max) raises
    the forward rows and the bases to r = 1, 2, ..., r_max as running
    products. chains[j] is the closed route's own _NestChain at j, built
    apart from every other field (see ROUTES) and held so that each nest
    level runs once per sweep and each exponent's ratio column is built
    once. Both are built on first read: a sweep that reads no exponent
    builds neither, and one that stops at r = 1 only chains that hold their
    C(n, j) columns.
    """

    def __init__(self, n_max: int) -> None:
        self.n_max = n_max
        self.forward = [_forward_row(n) for n in range(n_max + 1)]
        self.inverse = [_inverse_row(n) for n in range(n_max + 1)]
        self.central = _central_row(n_max)

    @cached_property
    def bases(self) -> list[list[int]]:
        return _column_bases(self.n_max)

    @cached_property
    def chains(self) -> list[_NestChain]:
        return [_NestChain(j, self.n_max) for j in range(self.n_max + 1)]

    def exponents(self, r_max: int) -> Iterator[tuple[RouteInputs, list[list[int]] | None]]:
        """(r's RouteInputs, the columns C(k+j, 2j)^r) for r = 1..r_max, in order.

        Each exponent's forward powers (C(n,k) C(n+k,k))^r and columns are
        the previous exponent's times the forward rows and the bases, and
        only the latest are held. At r = 1 the forward powers are the
        forward rows themselves and the columns are None, so a sweep that
        stops there builds no base. r's a_n, the sum of row n's forward
        powers, is set on its RouteInputs. Read the columns, never change them.
        """
        forward, powers = self.forward, None
        for r in range(1, r_max + 1):
            if r > 1:
                forward = _times(forward, self.forward)
                powers = _times(self.bases if powers is None else powers, self.bases)
            inputs = RouteInputs(r, self.n_max, self)
            inputs.a = list(map(sum, forward))
            yield inputs, powers


class RouteInputs:
    """What the routes read at exponent r to order n_max: `a`, a_0..a_N, built once, on first use.

    A sweep over exponents passes its Sweep as `held`, whose forward rows
    the definition route reads and whose nest chains the closed route
    reads; Sweep.exponents sets `a` from its forward powers. Otherwise no
    row is kept: the definition route builds `a` in its own pass, one
    forward row at a time, unless the inverse route already built it by
    lhs_sum, and the closed route builds one nest chain at a time. No route
    reads held inverse rows or t rows.
    """

    def __init__(self, r: int, n_max: int, held: Sweep | None = None) -> None:
        _require_exponent(r)
        _require_order(n_max)
        self.r, self.n_max, self.held = r, n_max, held

    @cached_property
    def a(self) -> list[int]:
        return list(map(lhs_sum, range(self.n_max + 1), repeat(self.r)))


def _definition(inputs: RouteInputs) -> list[int]:
    if inputs.held is not None or "a" in vars(inputs):  # held rows, or inverse ran first
        return triangular_solve(inputs.a, None if inputs.held is None else inputs.held.forward)
    # one pass: each forward row is built once, for a_n and for the solve step
    # that takes c_n from it, and a_0..a_N are left for the inverse route. A
    # solve step that raises leaves no a, and the inverse route builds its own.
    a: list[int] = []
    c: list[int] = []
    for n in range(inputs.n_max + 1):
        row = _forward_row(n)
        a.append(lhs_sum(n, inputs.r, row))
        c.append(_solve_step(a[n], row, c))
    inputs.a = a
    return c


def _inverse(inputs: RouteInputs) -> list[int]:
    # no Fraction: a remainder's witness is the pair itself, not reduced by a gcd
    a = inputs.a
    central = _central_row(inputs.n_max)
    return [exact_divide(_inverse_numerator(a, n), central[n]) for n in range(len(a))]


def _closed(inputs: RouteInputs) -> list[int]:
    # c(n, r) = sum_j C(2j,j)^(r-1) ratio(n, j): each column j is added into
    # the partial sums c(j..) it reaches as it forms, c[j + i] += C(2j,j)^(r-1)
    # column[i], and dropped, so no ratio table is held. No division
    r, n_max = inputs.r, inputs.n_max
    weights = [c ** (r - 1) for c in _central_row(n_max)]
    chains = None if inputs.held is None else inputs.held.chains
    c = [0] * (n_max + 1)
    for j, column in enumerate(closed_ratio_columns(r, n_max, chains)):
        end = j + len(column)
        c[j:end] = map(add, c[j:end], map(mul, repeat(weights[j]), column))
    return c


# Every route to c(0..N, r), each its own formula: the defining solve, the
# inverse transform of a_n, and the closed multi-sum ratio columns. The inner
# sum sum_j C(2j,j)^r t(n, j, r) over t_rows is not a route: since
# C(2j,j) C(k+j,2j) = C(k,j) C(k+j,j), it is the inverse route's numerator
# sum_k (-1)^(n-k) D(n,k) a_k with its double sum swapped. Independence
# rule: closed reads no field of a Sweep but its `chains`, nor any other
# route's input, and walks its own central binomials for its weights, so a
# fault in one still shows as a disagreement with it.
ROUTES = {"definition": _definition, "inverse": _inverse, "closed": _closed}


def c_closed(r: int, n_max: int) -> list[int]:
    """c(0, r)..c(n_max, r) by the closed multi-sum route, for every r >= 1."""
    return ROUTES["closed"](RouteInputs(r, n_max))


def t_general(n: int, j: int, r: int) -> int:
    """t(n, j, r) by the nested multi-sum route, from the one ratio column at j.

    The column runs over orders j..n, O(s n min(n, 2j)) products, and only
    its entry n - j, the closed ratio at (n, j), is read, 0 past its end
    (n > r j); t is C(2n,n) ratio / C(2j,j), the one exact division.
    """
    _require_order(n, j)
    _require_exponent(r)
    central = _central_row(n)
    column = _NestChain(j, n).ratios(r)
    ratio = column[-1] if len(column) > n - j else 0
    return exact_divide(central[n] * ratio, central[j])


def c_general(n: int, r: int) -> int:
    """c(n, r) by the closed multi-sum route, read from c_closed(r, n)."""
    return c_closed(r, n)[n]


def t_table(r: int, n_max: int) -> list[tuple[int, int, int, int]]:
    """(n, j, t(n, j, r), C(2j,j) t(n, j, r) / C(2n,n)) for 0 <= j <= n <= n_max, row by row.

    Every ratio reads its C(2j,j) and C(2n,n) from one walked central row.
    """
    central = _central_row(n_max)
    return [
        (n, j, value, integrality_ratio(n, j, r, row, central))
        for n, row in enumerate(t_rows(r, n_max))
        for j, value in enumerate(row)
    ]
