"""Dense univariate polynomials and reduced rational functions, field-generic.

A Poly stores its coefficient field handle plus a low-to-high tuple of
coefficients. The field handle only has to provide ``zero``, ``one``,
``coerce`` and (for root extraction / slicing hooks) ``nth_root`` and
``qq_slices``; elements do their own arithmetic through operators. The same
class therefore serves Q(zeta_N)[x], k[Y] with k = Q(zeta_N)(x), and
resultant computations over Q(zeta_N)(t).

RatFunc is the reduced quotient of two Polys with monic denominator;
RatFuncField wraps a RatFunc domain as a coefficient field so towers like
Q(zeta_N)(t1)(x) compose out of the same parts.
"""
from __future__ import annotations

from fractions import Fraction

from ..errors import InternalInvariantError, ZeroInput


class Poly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        cs = [field.coerce(c) for c in coeffs]
        while cs and _is_zero(cs[-1]):
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    # -- constructors -------------------------------------------------------

    @classmethod
    def const(cls, field, c) -> "Poly":
        return cls(field, (c,))

    @classmethod
    def zero(cls, field) -> "Poly":
        return cls(field, ())

    @classmethod
    def one(cls, field) -> "Poly":
        return cls(field, (field.one,))

    @classmethod
    def x(cls, field) -> "Poly":
        return cls(field, (field.zero, field.one))

    # -- structure ----------------------------------------------------------

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def lc(self):
        if not self.coeffs:
            raise ZeroInput("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def nth(self, k: int):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return self.field.zero

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.field.one

    def monic(self) -> "Poly":
        if self.is_zero() or self.is_monic():
            return self
        inv = self.field.one / self.lc()
        return Poly(self.field, tuple(c * inv for c in self.coeffs))

    # -- arithmetic ---------------------------------------------------------

    def _wrap(self, other) -> "Poly | None":
        if isinstance(other, Poly):
            return other
        try:
            return Poly.const(self.field, self.field.coerce(other))
        except (InternalInvariantError, TypeError, ValueError):
            return None

    def __add__(self, other):
        other = self._wrap(other)
        if other is None:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.field, tuple(self.nth(i) + other.nth(i) for i in range(n)))

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.field, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = self._wrap(other)
        if other is None:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.field, tuple(self.nth(i) - other.nth(i) for i in range(n)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._wrap(other)
        if other is None:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Poly.zero(self.field)
        out = [self.field.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if _is_zero(a):
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(self.field, tuple(out))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ZeroInput("negative power of a polynomial")
        result = Poly.one(self.field)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __divmod__(self, other):
        other = self._wrap(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        q = [self.field.zero] * max(0, len(rem) - len(other.coeffs) + 1)
        inv = self.field.one / other.lc()
        while len(rem) >= len(other.coeffs):
            k = len(rem) - len(other.coeffs)
            c = rem[-1] * inv
            q[k] = c
            for i, b in enumerate(other.coeffs):
                rem[k + i] = rem[k + i] - c * b
            while rem and _is_zero(rem[-1]):
                rem.pop()
            if not rem:
                break
        return Poly(self.field, tuple(q)), Poly(self.field, tuple(rem))

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other) -> "Poly":
        q, r = divmod(self, other)
        if not r.is_zero():
            raise InternalInvariantError("expected exact polynomial division")
        return q

    def __eq__(self, other):
        other = self._wrap(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    __hash__ = None

    # -- gcd family ---------------------------------------------------------

    def gcd(self, other: "Poly") -> "Poly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def xgcd(self, other: "Poly"):
        """(g, s, t) with s*self + t*other = g, g monic (or zero)."""
        r0, r1 = self, other
        s0, s1 = Poly.one(self.field), Poly.zero(self.field)
        t0, t1 = Poly.zero(self.field), Poly.one(self.field)
        while not r1.is_zero():
            q, r = divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, s0 - q * s1
            t0, t1 = t1, t0 - q * t1
        if r0.is_zero():
            return r0, s0, t0
        inv = self.field.one / r0.lc()
        scale = Poly.const(self.field, inv)
        return r0.monic(), s0 * scale, t0 * scale

    # -- substitutions ------------------------------------------------------

    def shift_arg(self, c) -> "Poly":
        """p(x + c)."""
        c = self.field.coerce(c)
        result = Poly.zero(self.field)
        xc = Poly(self.field, (c, self.field.one))
        for coeff in reversed(self.coeffs):
            result = result * xc + coeff
        return result

    def scale_arg(self, c) -> "Poly":
        """p(c*x)."""
        c = self.field.coerce(c)
        out = []
        power = self.field.one
        for coeff in self.coeffs:
            out.append(coeff * power)
            power = power * c
        return Poly(self.field, tuple(out))

    def eval(self, point):
        """Horner evaluation; the point may live in a larger ring."""
        acc = None
        for coeff in reversed(self.coeffs):
            acc = coeff if acc is None else acc * point + coeff
        if acc is None:
            return self.field.zero
        return acc

    def nth_root(self, d: int) -> "Poly | None":
        """Exact d-th root of a monic polynomial, or None.

        Coefficients are found top-down (each new one enters linearly with
        factor d), then the candidate is verified by exact powering.
        """
        if d == 1:
            return self
        if self.is_zero() or not self.is_monic():
            raise ZeroInput("nth_root expects a monic nonzero polynomial")
        if self.degree() % d != 0:
            return None
        k = self.degree() // d
        root = [self.field.zero] * k + [self.field.one]  # low-to-high
        dd = self.field.coerce(d)
        for j in range(1, k + 1):
            cur = Poly(self.field, tuple(root)) ** d
            target = self.nth(d * k - j)
            root[k - j] = (target - cur.nth(d * k - j)) / dd
        candidate = Poly(self.field, tuple(root))
        if candidate ** d == self:
            return candidate
        return None

    # -- display ------------------------------------------------------------

    def __repr__(self):
        return f"Poly({self.coeffs!r})"


def _is_zero(v) -> bool:
    if isinstance(v, (int, Fraction)):
        return v == 0
    if hasattr(v, "is_zero"):
        return v.is_zero()
    return not v


class RatFunc:
    """Reduced fraction of two Polys; denominator monic and coprime to numerator."""

    __slots__ = ("num", "den")
    __hash__ = None

    def __init__(self, num: Poly, den: Poly):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            num = Poly.zero(num.field)
            den = Poly.one(num.field)
        else:
            g = num.gcd(den)
            if g.degree() > 0:
                num = num.exact_div(g)
                den = den.exact_div(g)
            if not den.is_monic():
                inv = Poly.const(num.field, num.field.one / den.lc())
                num = num * inv
                den = den * inv
        self.num = num
        self.den = den

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_poly(cls, p: Poly) -> "RatFunc":
        return cls(p, Poly.one(p.field))

    @classmethod
    def const(cls, field, c) -> "RatFunc":
        return cls(Poly.const(field, c), Poly.one(field))

    @classmethod
    def x(cls, field) -> "RatFunc":
        return cls(Poly.x(field), Poly.one(field))

    # -- structure ----------------------------------------------------------

    @property
    def field(self):
        return self.num.field

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    def is_const(self) -> bool:
        return self.num.degree() <= 0 and self.den.degree() == 0

    def const_value(self):
        if not self.is_const():
            raise InternalInvariantError("rational function is not constant")
        return self.num.nth(0)

    def degree_balance(self) -> int:
        """deg(num) - deg(den); 0 for every sigma-quotient."""
        return self.num.degree() - self.den.degree()

    def lc_ratio(self):
        """Leading coefficient of num over that of den (den is monic)."""
        return self.num.lc()

    # -- arithmetic ---------------------------------------------------------

    def _wrap(self, other) -> "RatFunc | None":
        if isinstance(other, RatFunc) and other.field == self.field:
            return other
        if isinstance(other, Poly) and other.field == self.field:
            return RatFunc.from_poly(other)
        # anything else (including a rational function over the inner field of
        # a tower) embeds as a constant if the coefficient field accepts it
        try:
            return RatFunc.const(self.field, self.field.coerce(other))
        except (InternalInvariantError, TypeError, ValueError):
            return None

    def __add__(self, other):
        other = self._wrap(other)
        if other is None:
            return NotImplemented
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        other = self._wrap(other)
        if other is None:
            return NotImplemented
        return RatFunc(self.num * other.den - other.num * self.den, self.den * other.den)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._wrap(other)
        if other is None:
            return NotImplemented
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._wrap(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = self._wrap(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, e: int):
        if e >= 0:
            return RatFunc(self.num ** e, self.den ** e)
        if self.is_zero():
            raise ZeroDivisionError("negative power of zero")
        return RatFunc(self.den ** (-e), self.num ** (-e))

    def __eq__(self, other):
        other = self._wrap(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def inverse(self) -> "RatFunc":
        return self ** (-1)

    def __repr__(self):
        return f"RatFunc({self.num!r}, {self.den!r})"


class RatFuncField:
    """Field handle whose elements are RatFunc over an inner coefficient field."""

    def __init__(self, inner, var: str):
        self.inner = inner
        self.var = var
        self.zero = RatFunc(Poly.zero(inner), Poly.one(inner))
        self.one = RatFunc(Poly.one(inner), Poly.one(inner))

    def coerce(self, value) -> RatFunc:
        # A RatFunc/Poly built over this field's inner ring is an element of
        # this field; anything else embeds as a constant (recursing down the
        # tower). Lifting an element across towers is deliberately not done
        # here — the shapes are ambiguous — see lift_ratfunc in base code.
        if isinstance(value, RatFunc):
            if value.field == self.inner:
                return value
        elif isinstance(value, Poly):
            if value.field == self.inner:
                return RatFunc.from_poly(value)
        else:
            return RatFunc.const(self.inner, self.inner.coerce(value))
        return RatFunc.const(self.inner, self.inner.coerce(value))

    def x(self) -> RatFunc:
        return RatFunc.x(self.inner)

    def __eq__(self, other):
        return (isinstance(other, RatFuncField)
                and other.inner == self.inner and other.var == self.var)

    def __repr__(self):
        return f"RatFuncField({self.inner!r}, {self.var!r})"

    # hooks used by generic code --------------------------------------------

    def qq_slices(self, coeffs):
        """Parallel rational slices after clearing inner denominators."""
        coeffs = [self.coerce(c) for c in coeffs]
        common = Poly.one(self.inner)
        for c in coeffs:
            common = common * c.den
        nums = [c.num * common.exact_div(c.den) for c in coeffs]
        top = max((n.degree() for n in nums), default=-1)
        for d in range(top + 1):
            yield from self.inner.qq_slices([n.nth(d) for n in nums])

    def nth_root(self, value, d: int):
        value = self.coerce(value)
        if value.is_zero():
            return self.zero
        c = value.num.lc()
        croot = self.inner.nth_root(c, d)
        if croot is None:
            return None
        nroot = value.num.monic().nth_root(d)
        droot = value.den.nth_root(d)
        if nroot is None or droot is None:
            return None
        return RatFunc(nroot * Poly.const(self.inner, croot), droot)


# -- canonical display -------------------------------------------------------

def _coeff_needs_parens(s: str) -> bool:
    return " + " in s or " - " in s


def format_poly(p: Poly, var: str) -> str:
    """Deterministic text form, highest degree first, parser round-trippable."""
    if p.is_zero():
        return "0"
    pieces = []
    for k in range(p.degree(), -1, -1):
        c = p.nth(k)
        if _is_zero(c):
            continue
        if isinstance(c, RatFunc):
            cs = format_ratfunc(c, p.field.var)
            is_one = c == p.field.one
            is_minus_one = c == -p.field.one
        else:
            cs = str(c)
            is_one = cs == "1"
            is_minus_one = cs == "-1"
        mono = var if k == 1 else f"{var}^{k}"
        if k == 0:
            body = f"({cs})" if _coeff_needs_parens(cs) else cs
        elif is_one:
            body = mono
        elif is_minus_one:
            body = f"-{mono}"
        else:
            coeff = f"({cs})" if _coeff_needs_parens(cs) else cs
            body = f"{coeff}*{mono}"
        pieces.append(body)
    out = pieces[0]
    for body in pieces[1:]:
        if body.startswith("-") and not body.startswith("(-"):
            out += " - " + body[1:]
        else:
            out += " + " + body
    return out


def format_ratfunc(r: RatFunc, var: str) -> str:
    num = format_poly(r.num, var)
    if r.den.degree() == 0:
        return num
    den = format_poly(r.den, var)
    if " + " in den or " - " in den or "*" in den:
        den = f"({den})"
    if " + " in num or " - " in num or "*" in num or num.startswith("-"):
        num = f"({num})"
    return f"{num}/{den}"
