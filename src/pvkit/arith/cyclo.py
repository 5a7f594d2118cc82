"""Cyclotomic number arithmetic.

Elements of Q(zeta_N) are stored densely in the power basis
1, zeta, ..., zeta^(phi(N)-1) as integer coordinates over one positive
common denominator (Cohen, A Course in Computational Algebraic Number
Theory, 4.2). The form is canonical: the denominator is positive, it shares
no factor with all the coordinates together, and zero is all-zero
coordinates over 1, so two elements of one conductor are equal exactly when
their coordinates and denominators are.
The N-th cyclotomic polynomial is monic with integer coefficients, so every
power of zeta has integer coordinates and the arithmetic runs on Python
ints. Elements of different conductors lift to the least common multiple
before combining. Conductor 1 is plain Q: a conductor-1 element is one
integer over its denominator, and ``coeffs`` reads it back as one Fraction.
Only two irrational operands take the full power-basis product: a rational
operand scales the other's coordinates by one integer, and 1 returns the
other operand itself.

>>> z = CycloNum.zeta(4)
>>> z * z == -1
True
>>> (z + 1) * (z - 1)
CycloNum(4, (Fraction(-2, 1), Fraction(0, 1)))
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from ..errors import InternalInvariantError, OutputTooLarge, ZeroInput


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


@lru_cache(maxsize=None)
def cyclotomic_coeffs(n: int) -> tuple[int, ...]:
    """Integer coefficients (low to high) of the n-th cyclotomic polynomial.

    >>> cyclotomic_coeffs(6)
    (1, -1, 1)
    """
    ring = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            # exact division by the monic Phi_d
            div = cyclotomic_coeffs(d)
            quot = [0] * (len(ring) - len(div) + 1)
            for k in range(len(quot) - 1, -1, -1):
                c = quot[k] = ring[k + len(div) - 1]
                for i, y in enumerate(div):
                    ring[k + i] -= c * y
            if any(ring):
                raise InternalInvariantError("cyclotomic division left a remainder")
            ring = quot
    return tuple(ring)


@lru_cache(maxsize=None)
def _powers(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    # row e: the nonzero integer coordinates (i, c) of zeta_n^e, 0 <= e < n;
    # zeta^phi = -(the low part of the monic Phi_n) starts the carries
    phi = euler_phi(n)
    low = cyclotomic_coeffs(n)[:phi]
    rows = []
    row = [1] + [0] * (phi - 1)
    for _ in range(n):
        rows.append(tuple((i, c) for i, c in enumerate(row) if c))
        top = row[-1]
        row = [0] + row[:-1]
        if top:
            row = [r - top * c for r, c in zip(row, low)]
    return tuple(rows)


@lru_cache(maxsize=None)
def _overflow_rows(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    # row k: zeta_n^(phi + k), for the degrees a product of two reduced
    # elements can reach beyond the basis
    phi = euler_phi(n)
    powers = _powers(n)
    return tuple(powers[(phi + k) % n] for k in range(phi - 1))


def _combine(num, rows, out: list[int]) -> list[int]:
    # out += sum_k num[k] * rows[k], each row sparse (i, c)
    for c, row in zip(num, rows):
        if c:
            for i, r in row:
                out[i] += c * r
    return out


def _product(n: int, x, y) -> list[int]:
    # integer coordinates of (sum x_i zeta^i)(sum y_j zeta^j) mod Phi_n
    phi = len(x)
    prod = [0] * (2 * phi - 1)
    for i, u in enumerate(x):
        if u:
            for j, v in enumerate(y, i):
                prod[j] += u * v
    return _combine(prod[phi:], _overflow_rows(n), prod[:phi])


_new = object.__new__


def _canonical(conductor: int, num, den: int) -> "CycloNum":
    # num / den with den > 0, divided by the common content
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = [c // g for c in num]
            den //= g
    out = _new(CycloNum)
    out.conductor = conductor
    out._num = tuple(num)
    out._den = den
    return out


class CycloNum:
    """An element of a cyclotomic field, exact and immutable."""

    __slots__ = ("conductor", "_num", "_den")
    __hash__ = None  # equality crosses conductors; do not use as dict keys

    def __init__(self, conductor: int, coeffs):
        if conductor < 1:
            raise ZeroInput("conductor must be a positive integer")
        phi = euler_phi(conductor)
        tup = tuple(Fraction(c) for c in coeffs)
        if len(tup) != phi:
            raise InternalInvariantError(
                f"conductor {conductor} needs {phi} coordinates, got {len(tup)}")
        # over the lcm of reduced denominators the content is already 1
        den = lcm(*(c.denominator for c in tup))
        self.conductor = conductor
        self._num = tuple(c.numerator * (den // c.denominator) for c in tup)
        self._den = den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The rational power-basis coordinates."""
        return tuple(Fraction(c, self._den) for c in self._num)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_rational(cls, value, conductor: int = 1) -> "CycloNum":
        phi = euler_phi(conductor)
        # an integer over 1 is canonical as it stands; the constructor
        # converts anything else, and rejects a conductor below 1
        if type(value) is int and conductor >= 1:
            return _canonical(conductor, (value,) + (0,) * (phi - 1), 1)
        return cls(conductor, (value,) + (0,) * (phi - 1))

    @classmethod
    def zeta(cls, n: int) -> "CycloNum":
        if n <= 0:
            raise ZeroInput("root-of-unity order must be positive")
        if n == 1:
            return cls(1, (1,))
        if n == 2:
            return cls(2, (-1,))
        return cls(n, [int(i == 1) for i in range(euler_phi(n))])

    # -- structure ----------------------------------------------------------

    def lift(self, m: int) -> "CycloNum":
        if m == self.conductor:
            return self
        if m % self.conductor != 0:
            raise InternalInvariantError("lift target must be a conductor multiple")
        # zeta_n^k = zeta_m^(k m/n)
        step = m // self.conductor
        powers = _powers(m)
        rows = [powers[k * step] for k in range(len(self._num))]
        return _canonical(m, _combine(self._num, rows, [0] * euler_phi(m)),
                          self._den)

    def _conjugate(self, k: int) -> list[int]:
        # coordinates (over self._den) of the image under zeta -> zeta^k
        n = self.conductor
        powers = _powers(n)
        rows = [powers[j * k % n] for j in range(len(self._num))]
        return _combine(self._num, rows, [0] * len(rows))

    def is_zero(self) -> bool:
        return not any(self._num)

    def is_rational(self) -> bool:
        return not any(self._num[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise InternalInvariantError("value is not rational")
        return Fraction(self._num[0], self._den)

    def __bool__(self) -> bool:
        return any(self._num)

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(value, conductor: int) -> "CycloNum | None":
        if isinstance(value, CycloNum):
            return value
        if isinstance(value, (int, Fraction)):
            return CycloNum.from_rational(value, conductor)
        return None

    def _pair(self, other):
        if type(other) is CycloNum and other.conductor == self.conductor:
            return self, other
        other = self._coerce(other, self.conductor)
        if other is None:
            return None, None
        if self.conductor == other.conductor:
            return self, other
        m = lcm(self.conductor, other.conductor)
        return self.lift(m), other.lift(m)

    def _add(self, other, sign: int):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        da, db = a._den, b._den
        if da == db:
            num = [u + sign * v for u, v in zip(a._num, b._num)]
        else:
            num = [u * db + sign * v * da for u, v in zip(a._num, b._num)]
            da *= db
        return _canonical(a.conductor, num, da)

    def __add__(self, other):
        return self._add(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _canonical(self.conductor, [-c for c in self._num], self._den)

    def __sub__(self, other):
        return self._add(other, -1)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        x, y = a._num, b._num
        # a becomes the rational operand, and 1 if either operand is
        if any(x[1:]) or (y[0] == b._den == 1 and not any(y[1:])):
            a, b, x, y = b, a, y, x
        if any(x[1:]):
            return _canonical(a.conductor, _product(a.conductor, x, y),
                              a._den * b._den)
        # one integer scales b's coordinates, and 1 leaves b as it is
        if x[0] == a._den == 1:
            return b
        return _canonical(a.conductor, [x[0] * c for c in y], a._den * b._den)

    __rmul__ = __mul__

    def _cofactor(self) -> tuple[tuple[int, ...], int]:
        """(rest, N(num)) for an irrational element: rest is the product
        prod_{k != 1} sigma_k(num) of the other conjugates of the integer
        coordinates num, and num * rest = N(num) is a positive integer.
        A partial product can be rational (zeta_5^2 zeta_5^3 = 1), so the
        products are CycloNum products over denominator 1."""
        n = self.conductor
        rest = None
        for k in range(2, n):
            if gcd(k, n) == 1:
                image = _canonical(n, self._conjugate(k), 1)
                rest = image if rest is None else rest * image
        # positive since Q(zeta_n) has no real embedding for n > 2
        norm = (_canonical(n, self._num, 1) * rest)._num
        if any(norm[1:]) or norm[0] <= 0:
            raise InternalInvariantError("cyclotomic norm is not a positive integer")
        return rest._num, norm[0]

    def norm(self) -> Fraction:
        """N(a), the norm from Q(zeta_n) to Q for the conductor n of a:
        N(num) / den^phi(n)."""
        phi = euler_phi(self.conductor)
        if self.is_rational():
            return Fraction(self._num[0], self._den) ** phi
        return Fraction(self._cofactor()[1], self._den ** phi)

    def inverse(self) -> "CycloNum":
        """1/a = (product of the other Galois conjugates of a) / N(a)."""
        if self.is_zero():
            raise ZeroDivisionError("cyclotomic division by zero")
        n, num, den = self.conductor, self._num, self._den
        if self.is_rational():
            top = num[0]
            if top < 0:
                top, den = -top, -den
            return _canonical(n, (den,) + num[1:], top)
        # 1/a = den * rest / N(num)
        rest, norm = self._cofactor()
        return _canonical(n, [den * c for c in rest], norm)

    def __truediv__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return a * b.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other, self.conductor)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        base = self
        if e < 0:
            base = self.inverse()
            e = -e
        result = None
        while e:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if e:
                base = base * base
        if result is None:
            return CycloNum.from_rational(1, self.conductor)
        return result

    def __eq__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return a._den == b._den and a._num == b._num

    # -- display ------------------------------------------------------------

    def __repr__(self):
        return f"CycloNum({self.conductor}, {self.coeffs!r})"

    def __str__(self):
        try:
            return self._text()
        except ValueError as err:  # Python's limit on printing a long int
            raise OutputTooLarge(f"a constant is too long to print: {err}")

    def _text(self):
        coeffs = self.coeffs
        if self.is_rational():
            return str(coeffs[0])
        parts = []
        for k in range(len(coeffs) - 1, -1, -1):
            c = coeffs[k]
            if c == 0:
                continue
            if k == 0:
                body = str(abs(c))
            else:
                z = f"zeta({self.conductor})" + (f"^{k}" if k > 1 else "")
                body = z if abs(c) == 1 else f"{abs(c)}*{z}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f" + {body}" if c > 0 else f" - {body}")
        return "".join(parts) if parts else "0"


class CycloField:
    """Field handle for Q(zeta_N); elements are CycloNum of this conductor."""

    def __init__(self, conductor: int = 1):
        self.conductor = conductor
        self.zero = CycloNum.from_rational(0, conductor)
        self.one = CycloNum.from_rational(1, conductor)

    def coerce(self, value) -> CycloNum:
        if type(value) is CycloNum:
            if value.conductor == self.conductor:
                return value
            if self.conductor % value.conductor == 0:
                return value.lift(self.conductor)
            raise InternalInvariantError(
                f"cannot place conductor-{value.conductor} value in conductor-{self.conductor} field")
        return CycloNum.from_rational(value, self.conductor)

    def __eq__(self, other):
        return isinstance(other, CycloField) and other.conductor == self.conductor

    def __repr__(self):
        return f"CycloField({self.conductor})"

    # hooks used by generic polynomial code ---------------------------------

    def qq_slices(self, coeffs):
        """Parallel rational-coordinate slices of a coefficient list."""
        lifted = [self.coerce(c) for c in coeffs]
        for i in range(euler_phi(self.conductor)):
            yield [c.coeffs[i] for c in lifted]


QQ = CycloField(1)


def unity_order(n: int) -> int:
    """lcm(2, n), the number of roots of unity in Q(zeta_n)."""
    return lcm(2, n)


def rational_power(u: CycloNum, n: int) -> Fraction | None:
    """u^unity_order(n) for u in Q(zeta_n), or None when no power of u is
    rational: its conjugates are u times roots of unity if one is."""
    power = u ** unity_order(n)
    return power.rational_value() if power.is_rational() else None


def bounded_multiplicative_order(u: CycloNum, cap: int) -> int | None:
    """Least j in [1, cap] with u^j = 1, or None if there is none."""
    acc = u
    one = CycloNum.from_rational(1, u.conductor)
    for j in range(1, cap + 1):
        if acc == one:
            return j
        acc = acc * u
    return None
