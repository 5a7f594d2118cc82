"""Named polynomial operations: resultant, integer roots, dispersion. These
are the primitives the rational-solution machinery is assembled from, next
to the gcd and substitutions of ``Poly``; everything is exact.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd

from ..errors import NonRationalCoefficients, ZeroInput
from .cyclo import CycloNum
from .poly import Poly, RatFunc, RatFuncField


def resultant(a: Poly, b: Poly):
    """Sylvester resultant.

    Convention: the first deg(b) rows carry a's coefficients (highest first),
    the next deg(a) rows carry b's. For monic linear inputs this gives
    res(x - u, x - v) = v - u, e.g. res(x-2, x-3) = -1.
    """
    if a.is_zero() or b.is_zero():
        raise ZeroInput("resultant of the zero polynomial")
    n, m = a.degree(), b.degree()
    field = a.field
    if n + m == 0:
        return field.one
    size = n + m
    rows = []
    arow = [a.nth(n - i) for i in range(n + 1)]
    brow = [b.nth(m - i) for i in range(m + 1)]
    for i in range(m):
        rows.append([field.zero] * i + arow + [field.zero] * (size - n - 1 - i))
    for i in range(n):
        rows.append([field.zero] * i + brow + [field.zero] * (size - m - 1 - i))
    return _determinant(rows, field)


def _determinant(rows, field):
    n = len(rows)
    det = field.one
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if not _value_is_zero(rows[r][col]):
                pivot = r
                break
        if pivot is None:
            return field.zero
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        pv = rows[col][col]
        det = det * pv
        inv = field.one / pv
        for r in range(col + 1, n):
            factor = rows[r][col] * inv
            if _value_is_zero(factor):
                continue
            for c in range(col, n):
                rows[r][c] = rows[r][c] - factor * rows[col][c]
    return det


def _value_is_zero(v) -> bool:
    if isinstance(v, (int, Fraction)):
        return v == 0
    if hasattr(v, "is_zero"):
        return v.is_zero()
    return not v


def _value_is_rational(v) -> bool:
    if isinstance(v, (int, Fraction)):
        return True
    if isinstance(v, CycloNum):
        return v.is_rational()
    if isinstance(v, RatFunc):
        return v.is_const() and _value_is_rational(v.const_value())
    return False


def _as_fraction(v) -> Fraction:
    if isinstance(v, (int, Fraction)):
        return Fraction(v)
    if isinstance(v, CycloNum):
        return v.rational_value()
    if isinstance(v, RatFunc):
        return _as_fraction(v.const_value())
    raise NonRationalCoefficients("coefficient is not rational")


def integer_roots(p: Poly) -> set[int]:
    """All integer roots of a rational-coefficient polynomial.

    >>> from pvkit.arith.cyclo import QQ
    >>> sorted(integer_roots(Poly(QQ, (2, -3, 1))))
    [1, 2]
    """
    if p.is_zero():
        raise ZeroInput("integer roots of the zero polynomial")
    for c in p.coeffs:
        if not _value_is_rational(c):
            raise NonRationalCoefficients(
                "integer_roots needs rational coefficients")
    return _integer_roots_any(p)


def _integer_roots_any(p: Poly) -> set[int]:
    """Integer roots over any supported coefficient field.

    Candidates come from the first nonzero rational slice of the coefficient
    list (a true root kills every slice simultaneously), then each candidate
    is verified by exact evaluation of p itself.
    """
    if p.is_zero():
        raise ZeroInput("integer roots of the zero polynomial")
    slice_poly = None
    for sl in p.field.qq_slices(list(p.coeffs)):
        if any(c != 0 for c in sl):
            slice_poly = sl
            break
    if slice_poly is None:
        raise ZeroInput("integer roots of the zero polynomial")
    candidates = _rational_slice_integer_roots(slice_poly)
    out = set()
    for r in candidates:
        if _value_is_zero(p.eval(p.field.coerce(r))):
            out.add(r)
    return out


def _rational_slice_integer_roots(coeffs: list[Fraction]) -> set[int]:
    den_lcm = 1
    for c in coeffs:
        den_lcm = den_lcm * c.denominator // int_gcd(den_lcm, c.denominator)
    ints = [int(c * den_lcm) for c in coeffs]
    roots = set()
    low = 0
    while low < len(ints) and ints[low] == 0:
        low += 1
    if low > 0:
        roots.add(0)
    ints = ints[low:]
    if not ints:
        return roots
    const = abs(ints[0])
    for d in _divisors(const):
        for cand in (d, -d):
            if _int_poly_eval(ints, cand) == 0:
                roots.add(cand)
    return roots


def _divisors(n: int) -> list[int]:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return out


def _int_poly_eval(coeffs: list[int], v: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * v + c
    return acc


# ---------------------------------------------------------------------------
# Dispersion

_QSHIFT_SCAN_CAP = 128


def dispersion(p: Poly, r: Poly, sigma) -> int | None:
    """Largest j >= 0 at which p meets the j-th translate of r.

    Shift: largest j with deg gcd(p(x), r(x+j)) > 0. q-shift: largest j with
    a root of p equal to q^j times a root of r, i.e. deg gcd(p(q^j x), r) > 0.
    Shared powers of x are stripped first in the q case (they would meet at
    every j). Returns None when no j exists.
    """
    value, _complete = dispersion_with_flag(p, r, sigma)
    return value


def dispersion_with_flag(p: Poly, r: Poly, sigma) -> tuple[int | None, bool]:
    """Like dispersion, plus a flag saying the candidate set was provably
    complete (always true for shift; true for q-shift with rational q)."""
    if p.is_zero() or r.is_zero():
        raise ZeroInput("dispersion of the zero polynomial")
    if sigma.kind == "shift":
        return _shift_dispersion(p, r), True
    return _qshift_dispersion(p, r, sigma.q)


def _shift_dispersion(p: Poly, r: Poly) -> int | None:
    field = p.field
    if p.degree() == 0 or r.degree() == 0:
        return None
    ft = RatFuncField(field, "t")
    t = RatFunc.x(field)
    p_t = Poly(ft, [ft.coerce(c) for c in p.coeffs])
    x_plus_t = Poly(ft, (ft.coerce(t), ft.one))
    r_t = Poly.zero(ft)
    for c in reversed(r.coeffs):
        r_t = r_t * x_plus_t + ft.coerce(c)
    res = resultant(p_t, r_t)
    if res.is_zero():
        raise ZeroInput("shift dispersion degenerate: arguments share every translate")
    candidates = {j for j in _integer_roots_any(res.num) if j >= 0}
    best = None
    for j in sorted(candidates):
        if p.gcd(r.shift_arg(j)).degree() > 0:
            best = j
    return best


def _qshift_dispersion(p: Poly, r: Poly, q) -> tuple[int | None, bool]:
    field = p.field
    q = field.coerce(q)
    # strip shared x-powers: they meet at every j and carry no orbit data
    p = _strip_x(p)
    r = _strip_x(r)
    if p.degree() == 0 or r.degree() == 0:
        return None, True
    candidates, complete = _qshift_candidates(p, r, q)
    best = None
    for j in sorted(candidates):
        if j < 0:
            continue
        if p.scale_arg(q ** j).gcd(r).degree() > 0:
            best = j
    return best, complete


def _strip_x(p: Poly) -> Poly:
    k = 0
    while k <= p.degree() and _value_is_zero(p.nth(k)):
        k += 1
    return Poly(p.field, p.coeffs[k:])


def _qshift_candidates(p: Poly, r: Poly, q) -> tuple[set[int], bool]:
    field = p.field
    ft = RatFuncField(field, "u")
    u = ft.coerce(RatFunc.x(field))
    p_u = Poly(ft, [ft.coerce(c) * u ** i for i, c in enumerate(p.coeffs)])
    r_u = Poly(ft, [ft.coerce(c) for c in r.coeffs])
    res = resultant(p_u, r_u)
    if res.is_zero():
        return set(), True
    coeffs = res.num.coeffs
    rationals = []
    for c in coeffs:
        if not _value_is_rational(c):
            rationals = None
            break
        rationals.append(_as_fraction(c))
    q_rat = _value_is_rational(q)
    if rationals is not None and q_rat:
        qv = _as_fraction(q)
        prime = _uneven_prime(qv)
        if prime is not None:
            vq = _padic(qv, prime)
            vals = [(i, _padic(c, prime)) for i, c in enumerate(rationals) if c != 0]
            cands = set()
            for i, vi in vals:
                for k, vk in vals:
                    if k == i:
                        continue
                    num = vi - vk
                    den = (k - i) * vq
                    if num % den == 0:
                        j = num // den
                        if j >= 0:
                            cands.add(j)
            return cands, True
    # non-rational q: no effective bound on q-power roots; bounded scan
    return set(range(_QSHIFT_SCAN_CAP + 1)), False


def _uneven_prime(q: Fraction) -> int | None:
    n = abs(q.numerator)
    d = q.denominator
    m = n * d
    p = 2
    while p * p <= m:
        if m % p == 0:
            if _padic(q, p) != 0:
                return p
            while m % p == 0:
                m //= p
        p += 1
    if m > 1 and _padic(q, m) != 0:
        return m
    return None


def _padic(q: Fraction, p: int) -> int:
    if q == 0:
        raise ZeroInput("valuation of zero")
    v = 0
    n = q.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = q.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v
