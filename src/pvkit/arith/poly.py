"""Dense univariate polynomials and reduced rational functions, field-generic.

A Poly stores its coefficient field handle plus a low-to-high tuple of
coefficients. The field handle only has to provide ``zero``, ``one``,
``coerce`` and ``qq_slices``; elements do their own arithmetic through
operators. The same class therefore serves C[x] for the constants
C = Q(zeta_N), possibly with transcendental constants adjoined, and k[Y]
with k = C(x).

Results of Poly arithmetic (``+``, ``-``, negation, ``*``, ``**``,
``divmod``, ``monic``) are built by the trusted constructor ``_trusted``,
which only trims trailing zeros: arithmetic on elements of one field never
leaves that field, so coercing each result coefficient again would prove
nothing.  Everything else goes through the coercing ``Poly.__init__``:
external construction, and an operand that ``_wrap`` has to bring into the
field (a scalar, or a Poly over another field, whose coefficients the
field must accept or reject).  ``divmod`` computes no result it knows in
advance: a monic divisor of degree 0 returns the dividend, and each step
pops the leading remainder coefficient as the quotient coefficient (over a
field it cancels exactly) and updates only the divisor's nonzero lower
terms.  Every coefficient type (int, Fraction, CycloNum, RatFunc) defines
``__bool__``, so a zero test is a truth test.

RatFunc is the reduced quotient of two Polys with monic denominator;
RatFuncField wraps a RatFunc domain as a coefficient field so towers like
Q(zeta_N)(t1)(x) compose out of the same parts.  RatFunc arithmetic keeps
the reduced form by Henrici's method (Knuth, TAOCP vol. 2, 4.5.1): each
operation divides out only the factors its reduced operands can share.
"""
from __future__ import annotations

from ..errors import InternalInvariantError, ZeroInput

_new = object.__new__


class Poly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        cs = [field.coerce(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    # -- constructors -------------------------------------------------------

    @classmethod
    def _trusted(cls, field, cs: list) -> "Poly":
        """A result of arithmetic on elements of ``field``: trailing zeros
        are trimmed, nothing is coerced."""
        while cs and not cs[-1]:
            cs.pop()
        out = _new(cls)
        out.field = field
        out.coeffs = tuple(cs)
        return out

    @classmethod
    def const(cls, field, c) -> "Poly":
        return cls(field, (c,))

    @classmethod
    def zero(cls, field) -> "Poly":
        return cls._trusted(field, [])

    @classmethod
    def one(cls, field) -> "Poly":
        return cls._trusted(field, [field.one])

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
        if not self.coeffs:
            return False
        lc, one = self.coeffs[-1], self.field.one
        return lc is one or lc == one

    def monic(self) -> "Poly":
        if self.is_zero() or self.is_monic():
            return self
        inv = self.field.one / self.lc()
        return Poly._trusted(self.field, [c * inv for c in self.coeffs])

    # -- arithmetic ---------------------------------------------------------

    def _wrap(self, other) -> "Poly | None":
        """other as a Poly over this field, or None.  A Poly over another
        field is rebuilt by coercion, so a coefficient the field cannot
        hold raises instead of leaking into a trusted result."""
        if isinstance(other, Poly):
            if other.field is self.field or other.field == self.field:
                return other
            return Poly(self.field, other.coeffs)
        try:
            return Poly._trusted(self.field, [self.field.coerce(other)])
        except (InternalInvariantError, TypeError, ValueError):
            return None

    def __add__(self, other):
        other = self._wrap(other)
        if other is None:
            return NotImplemented
        xs, ys = self.coeffs, other.coeffs
        if len(xs) < len(ys):
            xs, ys = ys, xs
        return Poly._trusted(self.field,
                             [a + b for a, b in zip(xs, ys)] + list(xs[len(ys):]))

    __radd__ = __add__

    def __neg__(self):
        return Poly._trusted(self.field, [-c for c in self.coeffs])

    def __sub__(self, other):
        other = self._wrap(other)
        if other is None:
            return NotImplemented
        xs, ys = self.coeffs, other.coeffs
        out = [a - b for a, b in zip(xs, ys)]
        if len(xs) > len(ys):
            out += xs[len(ys):]
        else:
            out += [-b for b in ys[len(xs):]]
        return Poly._trusted(self.field, out)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._wrap(other)
        if other is None:
            return NotImplemented
        xs, ys = self.coeffs, other.coeffs
        if not xs or not ys:
            return Poly._trusted(self.field, [])
        if len(ys) == 1:
            xs, ys = ys, xs
        if len(xs) == 1:
            a = xs[0]
            return Poly._trusted(self.field, [a * b for b in ys])
        # each output coefficient starts at its first product, never at zero
        out = [None] * (len(xs) + len(ys) - 1)
        ys = [(j, b) for j, b in enumerate(ys) if b]
        for i, a in enumerate(xs):
            if not a:
                continue
            for j, b in ys:
                c = out[i + j]
                out[i + j] = a * b if c is None else c + a * b
        zero = self.field.zero
        return Poly._trusted(self.field, [zero if c is None else c for c in out])

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ZeroInput("negative power of a polynomial")
        result = None
        base = self
        while e:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if e:
                base = base * base
        return Poly.one(self.field) if result is None else result

    def __divmod__(self, other):
        other = self._wrap(other)
        if other is None:
            return NotImplemented
        ys = other.coeffs
        if not ys:
            raise ZeroDivisionError("polynomial division by zero")
        monic = other.is_monic()
        if monic and len(ys) == 1:
            return self, Poly._trusted(self.field, [])
        n = len(ys) - 1
        rem = list(self.coeffs)
        q = [self.field.zero] * max(0, len(rem) - n)
        inv = None if monic else self.field.one / ys[-1]
        low = [(i, b) for i, b in enumerate(ys[:-1]) if b]
        # over a field the leading term cancels exactly: it is popped as
        # the quotient coefficient, and only the lower terms are updated
        while len(rem) > n:
            c = rem.pop()
            k = len(rem) - n
            if inv is not None:
                c = c * inv
            q[k] = c
            for i, b in low:
                rem[k + i] = rem[k + i] - c * b
            while rem and not rem[-1]:
                rem.pop()
        return Poly._trusted(self.field, q), Poly._trusted(self.field, rem)

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
        # a Poly over another field compares coefficient by coefficient,
        # without coercion, as coefficient equality crosses fields
        if not isinstance(other, Poly):
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
        """p(x + c), by the in-place Taylor shift on one coefficient list;
        a constant, and any p at c = 0, is its own translate."""
        if len(self.coeffs) <= 1:
            return self
        c = self.field.coerce(c)
        if c == self.field.zero:
            return self
        unit = c == self.field.one
        cs = list(self.coeffs)
        for i in range(len(cs) - 1):
            for j in range(len(cs) - 2, i - 1, -1):
                cs[j] = cs[j] + (cs[j + 1] if unit else c * cs[j + 1])
        return Poly._trusted(self.field, cs)

    def scale_arg(self, c) -> "Poly":
        """p(c*x); a constant, and any p at c = 1, is its own image."""
        if len(self.coeffs) <= 1:
            return self
        c = self.field.coerce(c)
        if c == self.field.one:
            return self
        out = [self.coeffs[0]]
        power = self.field.one
        for coeff in self.coeffs[1:]:
            power = power * c
            out.append(coeff * power)
        return Poly._trusted(self.field, out)

    def eval(self, point):
        """Horner evaluation; the point may live in a larger ring."""
        acc = None
        for coeff in reversed(self.coeffs):
            acc = coeff if acc is None else acc * point + coeff
        if acc is None:
            return self.field.zero
        return acc

    # -- display ------------------------------------------------------------

    def __repr__(self):
        return f"Poly({self.coeffs!r})"


def _monic_den(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """num/den rescaled to a monic denominator; zero becomes 0/1."""
    if num.is_zero():
        return Poly.zero(num.field), Poly.one(num.field)
    if den.is_monic():
        return num, den
    inv = num.field.one / den.lc()
    return num * inv, den * inv


def _cancel(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """a and b divided by their gcd; no gcd is run when either is constant."""
    if a.degree() <= 0 or b.degree() <= 0:
        return a, b
    g = a.gcd(b)
    if g.degree() == 0:
        return a, b
    return a.exact_div(g), b.exact_div(g)


class RatFunc:
    """Reduced fraction of two Polys; denominator monic and coprime to numerator."""

    __slots__ = ("num", "den")
    __hash__ = None

    def __init__(self, num: Poly, den: Poly):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        self.num, self.den = _monic_den(*_cancel(num, den))

    # -- constructors -------------------------------------------------------

    @classmethod
    def _reduced(cls, num: Poly, den: Poly) -> "RatFunc":
        """num/den for a pair already known to be coprime, den nonzero: only
        makes the denominator monic."""
        return cls._trusted(*_monic_den(num, den))

    @classmethod
    def _trusted(cls, num: Poly, den: Poly) -> "RatFunc":
        """num/den already reduced: coprime, den monic."""
        out = _new(cls)
        out.num, out.den = num, den
        return out

    @classmethod
    def from_poly(cls, p: Poly) -> "RatFunc":
        return cls._reduced(p, Poly.one(p.field))

    @classmethod
    def const(cls, field, c) -> "RatFunc":
        return cls._reduced(Poly.const(field, c), Poly.one(field))

    @classmethod
    def x(cls, field) -> "RatFunc":
        return cls._reduced(Poly.x(field), Poly.one(field))

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
        if isinstance(other, RatFunc) and (other.num.field is self.num.field
                                           or other.field == self.field):
            return other
        if isinstance(other, Poly) and other.field == self.field:
            return RatFunc.from_poly(other)
        # anything else (including a rational function over the inner field of
        # a tower) embeds as a constant if the coefficient field accepts it
        try:
            return RatFunc.const(self.field, self.field.coerce(other))
        except (InternalInvariantError, TypeError, ValueError):
            return None

    def _plus(self, c: Poly, d: Poly) -> "RatFunc":
        """self + c/d for coprime c, d.  With g = gcd(b, d), the numerator
        t = a*(d/g) + c*(b/g) can share with (b/g)*(d/g)*g only factors
        of g; for d = b that is a/b + c/b = (a + c)/b, and g = b."""
        a, b = self.num, self.den
        # a monic denominator of degree 0 is 1, and multiplies nothing
        if b.degree() == 0:
            return (RatFunc._trusted(a + c, b) if d.degree() == 0
                    else RatFunc._reduced(a * d + c, d))
        if d.degree() == 0:
            return RatFunc._reduced(a + c * b, b)
        if d == b:
            return RatFunc._reduced(*_cancel(a + c, b))
        g = b.gcd(d)
        if g.degree() > 0:
            b_g, d_g = b.exact_div(g), d.exact_div(g)
            t, g = _cancel(a * d_g + c * b_g, g)
            return RatFunc._reduced(t, b_g * d_g * g)
        return RatFunc._reduced(a * d + c * b, b * d)

    def _times(self, c: Poly, d: Poly) -> "RatFunc":
        """self * c/d for coprime c, d (d nonzero, not necessarily monic):
        only a with d and c with b can share factors."""
        a, d = _cancel(self.num, d)
        c, b = _cancel(c, self.den)
        if b.degree() == 0:
            den = d
        elif d.degree() == 0 and d.is_monic():
            den = b
        else:
            den = b * d
        return RatFunc._reduced(a * c, den)

    def __add__(self, other):
        other = self._wrap(other)
        if other is None:
            return NotImplemented
        return self._plus(other.num, other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc._trusted(-self.num, self.den)

    def __sub__(self, other):
        other = self._wrap(other)
        if other is None:
            return NotImplemented
        return self._plus(-other.num, other.den)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._wrap(other)
        if other is None:
            return NotImplemented
        if self.den.degree() == 0 == other.den.degree():
            return RatFunc._trusted(self.num * other.num, self.den)
        return self._times(other.num, other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._wrap(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return self._times(other.den, other.num)

    def __rtruediv__(self, other):
        other = self._wrap(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, e: int):
        # powers of coprime polynomials stay coprime; a monic denominator
        # of degree 0 is 1, and so is each of its powers
        unit = self.den.degree() == 0
        if e >= 0:
            return RatFunc._reduced(self.num ** e,
                                    self.den if unit else self.den ** e)
        if self.is_zero():
            raise ZeroDivisionError("negative power of zero")
        return RatFunc._reduced(self.den if unit else self.den ** (-e),
                                self.num ** (-e))

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
        if isinstance(value, RatFunc) and value.field == self.inner:
            return value
        if isinstance(value, Poly) and value.field == self.inner:
            return RatFunc.from_poly(value)
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
        if not c:
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
