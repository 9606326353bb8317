"""Exact computation of the Schmidt number family and the identities behind it."""

from .combinatorics import (
    CombinatoricsTable,
    DivisibilityError,
    binomial,
    central_binomial,
    exact_divide,
    factorial,
)
from .core import (
    c2_closed,
    c_by_definition,
    c_from_t,
    c_general,
    integrality_ratio,
    lhs_sum,
    t3_closed,
    t4_closed,
    t5_closed,
    t_general,
    t_sum,
    t_table,
)
from .hypergeometric import (
    HypSeries,
    PoleError,
    WellPoisedSpec,
    andrews_rhs,
    check_andrews,
    check_classical,
    check_dougall,
    check_reduction,
    check_whipple,
    dougall_rhs,
    eval_terminating,
    t_as_hypergeometric,
    whipple_rhs,
)
from .legendre import (
    legendre_forward,
    legendre_inverse,
    triangular_solve,
)

__version__ = "0.1.0"
