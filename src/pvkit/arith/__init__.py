"""Exact arithmetic kernel: cyclotomic numbers, polynomials, rational functions."""
from .cyclo import CycloNum, CycloField, QQ, bounded_multiplicative_order
from .poly import Poly, RatFunc, RatFuncField
from .ops import (
    resultant,
    integer_roots,
    dispersion,
)

__all__ = [
    "CycloNum",
    "CycloField",
    "QQ",
    "bounded_multiplicative_order",
    "Poly",
    "RatFunc",
    "RatFuncField",
    "resultant",
    "integer_roots",
    "dispersion",
]
