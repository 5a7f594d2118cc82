"""Interpolated resultants, an oracle for the power-sum route of
``arith.ops``.

Each resultant in t or u is interpolated from its values at deg p * deg r
+ 1 integer points, each a Euclidean ``resultant`` over the constants, and
the norm N(R) of a cyclotomic R from its values N(R(u)) at integer u.  This
costs deg p * deg r + 1 resultants and one Newton interpolation per
polynomial, so keep inputs small.
"""
from __future__ import annotations

from fractions import Fraction

from pvkit.arith.cyclo import QQ, euler_phi
from pvkit.arith.ops import _int_poly_eval, resultant
from pvkit.arith.poly import Poly


def interpolate(values, start: int, field) -> Poly:
    """The polynomial of degree < len(values) taking values[i] at start + i
    (Newton's divided differences on unit-spaced points)."""
    coef = list(values)
    n = len(coef)
    for j in range(1, n):
        inv = field.coerce(Fraction(1, j))
        for i in range(n - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) * inv
    out = Poly.zero(field)
    for i in range(n - 1, -1, -1):
        out = out * Poly(field, (-(start + i), 1)) + coef[i]
    return out


def shift_resultant(p: Poly, r: Poly) -> Poly:
    """R(t) = res_x(p(x), r(x + t)) from its values at t = 0, 1, ...,
    deg p * deg r; each r(x + t) is one unit shift of the last."""
    shifted = r
    values = [resultant(p, shifted)]
    for _ in range(p.degree() * r.degree()):
        shifted = shifted.shift_arg(1)
        values.append(resultant(p, shifted))
    return interpolate(values, 0, p.field)


def qshift_resultant(p: Poly, r: Poly) -> Poly:
    """R(u) = res_x(r(u x), p(x)) from its values at u = 1, 2, ...,
    deg p * deg r + 1 (at u = 0, r(u x) would drop its degree)."""
    values = [resultant(r.scale_arg(u), p)
              for u in range(1, p.degree() * r.degree() + 2)]
    return interpolate(values, 1, p.field)


def norm_coeffs(coeffs) -> list[Fraction]:
    """The coefficients of N(R) in Q[u] for R = sum coeffs[i] u^i over one
    cyclotomic field: N(R)(u) = N(R(u)) at integer u, which every
    conjugation fixes, interpolated at phi * deg R + 1 points."""
    points = (len(coeffs) - 1) * euler_phi(coeffs[-1].conductor) + 1
    values = [QQ.coerce(_int_poly_eval(coeffs, u).norm())
              for u in range(1, points + 1)]
    return [c.rational_value() for c in interpolate(values, 1, QQ).coeffs]
