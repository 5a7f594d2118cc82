"""Cyclotomic number arithmetic.

Elements of Q(zeta_N) are stored densely in the power basis
1, zeta, ..., zeta^(phi(N)-1) with Fraction coordinates, reduced modulo the
N-th cyclotomic polynomial. Elements of different conductors lift to the
least common multiple before combining. Conductor 1 is plain Q: a conductor-1
element is exactly one Fraction coordinate.

>>> z = CycloNum.zeta(4)
>>> z * z == -1
True
>>> (z + 1) * (z - 1)
CycloNum(4, (Fraction(-2, 1), Fraction(0, 1)))
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from ..errors import InternalInvariantError, ZeroInput


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


# ---------------------------------------------------------------------------
# Plain list-of-Fraction polynomial helpers, used only inside this module to
# bootstrap the number field (the general Poly class lives one level up and
# needs CycloNum already working).

def _trim(c: list[Fraction]) -> list[Fraction]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _pmul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _pdivmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    a = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    inv = 1 / b[-1]
    while len(a) >= len(b):
        k = len(a) - len(b)
        c = a[-1] * inv
        q[k] = c
        for i, y in enumerate(b):
            a[k + i] -= c * y
        _trim(a)
        if not a:
            break
    return _trim(q), a


def _pxgcd(a: list[Fraction], b: list[Fraction]):
    # returns (g, s, t) with s*a + t*b = g
    r0, r1 = list(a), list(b)
    s0, s1 = [Fraction(1)], []
    t0, t1 = [], [Fraction(1)]
    while r1:
        q, r = _pdivmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _trim([x - y for x, y in _zip_pad(s0, _pmul(q, s1))])
        t0, t1 = t1, _trim([x - y for x, y in _zip_pad(t0, _pmul(q, t1))])
    return r0, s0, t0


def _zip_pad(a: list[Fraction], b: list[Fraction]):
    n = max(len(a), len(b))
    for i in range(n):
        x = a[i] if i < len(a) else Fraction(0)
        y = b[i] if i < len(b) else Fraction(0)
        yield x, y


@lru_cache(maxsize=None)
def cyclotomic_coeffs(n: int) -> tuple[Fraction, ...]:
    """Coefficients (low to high) of the n-th cyclotomic polynomial.

    >>> [int(c) for c in cyclotomic_coeffs(6)]
    [1, -1, 1]
    """
    ring = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            q, r = _pdivmod(ring, list(cyclotomic_coeffs(d)))
            if r:
                raise InternalInvariantError("cyclotomic division left a remainder")
            ring = q
    return tuple(ring)


@lru_cache(maxsize=None)
def _reduction_table(n: int) -> tuple[tuple[Fraction, ...], ...]:
    # row k: coordinates of zeta_n^(phi + k) in the power basis, covering the
    # overflow degrees a product of two reduced elements can reach
    phi = euler_phi(n)
    modulus = list(cyclotomic_coeffs(n))
    rows = []
    for k in range(max(0, phi - 1)):
        power = [Fraction(0)] * (phi + k) + [Fraction(1)]
        _, r = _pdivmod(power, modulus)
        r = r + [Fraction(0)] * (phi - len(r))
        rows.append(tuple(r))
    return tuple(rows)


@lru_cache(maxsize=None)
def _lift_table(n: int, m: int) -> tuple[tuple[Fraction, ...], ...]:
    # row k: coordinates of (zeta_n^k lifted into Q(zeta_m)), i.e. of
    # zeta_m^(k*m/n), in the power basis of Q(zeta_m)
    phi_n = euler_phi(n)
    phi_m = euler_phi(m)
    modulus = list(cyclotomic_coeffs(m))
    step = m // n
    rows = []
    for k in range(phi_n):
        power = [Fraction(0)] * (k * step) + [Fraction(1)]
        _, r = _pdivmod(power, modulus)
        r = r + [Fraction(0)] * (phi_m - len(r))
        rows.append(tuple(r))
    return tuple(rows)


class CycloNum:
    """An element of a cyclotomic field, exact and immutable."""

    __slots__ = ("conductor", "coeffs")
    __hash__ = None  # equality crosses conductors; do not use as dict keys

    def __init__(self, conductor: int, coeffs):
        if conductor < 1:
            raise ZeroInput("conductor must be a positive integer")
        phi = euler_phi(conductor)
        tup = tuple(Fraction(c) for c in coeffs)
        if len(tup) != phi:
            raise InternalInvariantError(
                f"conductor {conductor} needs {phi} coordinates, got {len(tup)}")
        self.conductor = conductor
        self.coeffs = tup

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_rational(cls, value, conductor: int = 1) -> "CycloNum":
        phi = euler_phi(conductor)
        return cls(conductor, (Fraction(value),) + (Fraction(0),) * (phi - 1))

    @classmethod
    def zeta(cls, n: int) -> "CycloNum":
        if n <= 0:
            raise ZeroInput("root-of-unity order must be positive")
        if n == 1:
            return cls(1, (Fraction(1),))
        if n == 2:
            return cls(2, (Fraction(-1),))
        phi = euler_phi(n)
        coeffs = [Fraction(0)] * phi
        coeffs[1] = Fraction(1)
        return cls(n, tuple(coeffs))

    # -- structure ----------------------------------------------------------

    def lift(self, m: int) -> "CycloNum":
        if m == self.conductor:
            return self
        if m % self.conductor != 0:
            raise InternalInvariantError("lift target must be a conductor multiple")
        table = _lift_table(self.conductor, m)
        phi_m = euler_phi(m)
        out = [Fraction(0)] * phi_m
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            row = table[k]
            for i in range(phi_m):
                out[i] += c * row[i]
        return CycloNum(m, tuple(out))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise InternalInvariantError("value is not rational")
        return self.coeffs[0]

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(value, conductor: int) -> "CycloNum | None":
        if isinstance(value, CycloNum):
            return value
        if isinstance(value, (int, Fraction)):
            return CycloNum.from_rational(value, conductor)
        return None

    def _pair(self, other):
        other = self._coerce(other, self.conductor)
        if other is None:
            return None, None
        if self.conductor == other.conductor:
            return self, other
        m = self.conductor * other.conductor // gcd(self.conductor, other.conductor)
        return self.lift(m), other.lift(m)

    def __add__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return CycloNum(a.conductor, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CycloNum(self.conductor, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return CycloNum(a.conductor, tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        n = a.conductor
        phi = euler_phi(n)
        prod = [Fraction(0)] * (2 * phi - 1)
        for i, x in enumerate(a.coeffs):
            if x == 0:
                continue
            for j, y in enumerate(b.coeffs):
                if y == 0:
                    continue
                prod[i + j] += x * y
        out = list(prod[:phi])
        table = _reduction_table(n)
        for k in range(phi, 2 * phi - 1):
            c = prod[k]
            if c == 0:
                continue
            row = table[k - phi]
            for i in range(phi):
                out[i] += c * row[i]
        return CycloNum(n, tuple(out))

    __rmul__ = __mul__

    def inverse(self) -> "CycloNum":
        if self.is_zero():
            raise ZeroDivisionError("cyclotomic division by zero")
        if self.is_rational():
            return CycloNum.from_rational(1 / self.coeffs[0], self.conductor)
        g, s, _ = _pxgcd(_trim(list(self.coeffs)), list(cyclotomic_coeffs(self.conductor)))
        if len(g) != 1:
            raise InternalInvariantError("cyclotomic element not invertible")
        inv = _pmul(s, [1 / g[0]])
        phi = euler_phi(self.conductor)
        inv = inv + [Fraction(0)] * (phi - len(inv))
        return CycloNum(self.conductor, tuple(inv[:phi]))

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
        result = CycloNum.from_rational(1, base.conductor)
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return a.coeffs == b.coeffs

    # -- display ------------------------------------------------------------

    def __repr__(self):
        return f"CycloNum({self.conductor}, {self.coeffs!r})"

    def __str__(self):
        if self.is_rational():
            return str(self.coeffs[0])
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
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
        if isinstance(value, CycloNum):
            if value.conductor == self.conductor:
                return value
            if self.conductor % value.conductor == 0:
                return value.lift(self.conductor)
            raise InternalInvariantError(
                f"cannot place conductor-{value.conductor} value in conductor-{self.conductor} field")
        return CycloNum.from_rational(Fraction(value), self.conductor)

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

    def nth_root(self, value, d: int):
        """An exact d-th root of ``value`` in this field, or None.

        Only rational values are supported; the construction never needs
        roots of irrational cyclotomic constants (witness constants are
        normalized to 1 before roots are taken).
        """
        value = self.coerce(value)
        if d == 1 or value == self.one:
            return value
        if not value.is_rational():
            raise InternalInvariantError(
                "d-th root of an irrational cyclotomic constant requested")
        root = _fraction_nth_root(value.rational_value(), d)
        if root is None:
            return None
        return self.coerce(root)


QQ = CycloField(1)


def integer_nth_root(n: int, d: int) -> int | None:
    """Exact integer d-th root of n >= 0, or None."""
    if n < 0:
        raise ZeroInput("integer root needs a non-negative argument")
    if n in (0, 1):
        return n
    lo, hi = 0, 1
    while hi ** d <= n:
        hi *= 2
    while lo < hi - 1:
        mid = (lo + hi) // 2
        if mid ** d <= n:
            lo = mid
        else:
            hi = mid
    return lo if lo ** d == n else None


def _fraction_nth_root(q: Fraction, d: int) -> Fraction | None:
    sign = 1
    if q < 0:
        if d % 2 == 0:
            return None
        sign = -1
        q = -q
    a = integer_nth_root(q.numerator, d)
    b = integer_nth_root(q.denominator, d)
    if a is None or b is None:
        return None
    return Fraction(sign * a, b)


def bounded_multiplicative_order(u: CycloNum, cap: int) -> int | None:
    """Least j in [1, cap] with u^j = 1, or None if there is none."""
    acc = u
    one = CycloNum.from_rational(1, u.conductor)
    for j in range(1, cap + 1):
        if acc == one:
            return j
        acc = acc * u
    return None
