"""Exact arithmetic kernel: cyclotomic numbers, polynomials, rational functions."""
from .cyclo import CycloNum, CycloField, QQ, bounded_multiplicative_order
from .poly import Poly, RatFunc, RatFuncField
from .ops import (
    poly_gcd,
    substitute_shift,
    substitute_scale,
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
    "poly_gcd",
    "substitute_shift",
    "substitute_scale",
    "resultant",
    "integer_roots",
    "dispersion",
]
