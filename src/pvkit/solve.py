"""Exact first-order rational certification over a difference field.

Four questions get decided here, each with a checked witness:

  solve_mult        is r a sigma^s-quotient, i.e. sigma^s(f) = r*f, f in k*?
  solve_add         is b a sigma-difference, i.e. sigma(f) - f = b, f in k?
  torsion_order     least m >= 1 with a^m a sigma-quotient
  relation_lattice  all integer vectors (m_i) with prod a_i^{m_i} a
                    sigma-quotient, as a lattice basis

``torsion_order`` is a public certifier for callers and tests; the Smith
orders of ``relation_lattice`` are the engine's exact torsion orders.

Each is written once for a generic sigma: sigma^j acts on polynomials
only through ``SigmaSpec.translate``, and ``dispersion_set`` reads the same
way for both kinds.  The few facts that depend on the kind sit next to the
step they change: the normalization of factors (monic, or constant term 1
with x split off, ``_normal_parts``), the constant a quotient may carry (1,
or a power of q read off by ``qpower_log``), and in ``solve_add`` the
dilation's poles at x = 0 and its Laurent part, where only the constant
term is not a sigma-difference.

``solve_mult`` and ``relation_lattice`` read one structure: a coprime
factor basis closed under sigma (``FactorBasis``), whose elements fall
into classes of exact sigma-translates of one representative.  A product
is a sigma^s-quotient iff its constant passes and its exponents sum to
zero over each class and residue of the offset mod s; the witness is a
product of telescopes of the representatives, kept as orbit data
(``Factored``).  ``relation_lattice`` takes the
integer kernel of those sums for many characters at once, plus the
valuations of the constants and one discrete log in the roots of unity.
Only constants, or a q, with no rational power leave a bounded search, and
the result says so.

``solve_add`` is Abramov's reduction (S. A. Abramov, USSR Comput. Math.
Math. Phys. 15, 1975) and solves no linear system.  It takes one
self-dispersion set of den(b), then moves poles along their sigma-orbits
with gcds and translates until no two share an orbit; b is a
sigma-difference iff the proper part left over is zero and the Laurent
part is summable.  The telescoped moves are the witness.

Every witness is put back into its defining equation before it is
returned; a failure there raises InternalInvariantError because it would
be a bug in this module, never a property of the input.  Multiplicative
witnesses are checked on their orbit data, as exponent vectors and
constants; two certificates tie that data to the input: each character is
the product of its factorization, and each basis element the translate
its class records.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, prod
from typing import Sequence

from .arith.cyclo import CycloNum, rational_power, unity_order
from .arith.ops import (
    _constant_as_cyclo,
    _padic,
    _strip_x,
    coprime_basis,
    dispersion_set,
    qpower_log,
    square_free_parts,
)
from .arith.poly import Poly, RatFunc
from .base import DiffField, apply_sigma, apply_sigma_power
from .errors import DimensionTooLarge, InternalInvariantError, ZeroInput
from .snf import hermite_normal_form, in_lattice, integer_kernel, matmul


@dataclass(frozen=True)
class MultSolution:
    """Witness for sigma^step(f) = r * f, with f.num monic."""

    witness: RatFunc
    step: int = 1


@dataclass(frozen=True)
class TorsionCert:
    """a**order = sigma(witness)/witness, and order is minimal >= 1."""

    order: int
    witness: RatFunc


class LatticeBasis:
    """Basis (in row Hermite form) of the lattice of exponent vectors m
    with prod a_i^{m_i} a sigma-quotient, each row carrying its witness;
    ``exact`` unless a bounded search decided a constant condition, and
    ``window`` if ``relation_lattice`` left a q-power question to a window.
    ``factor_basis`` is the ``FactorBasis`` the rows were certified over,
    and ``telescopes`` the row witnesses as the ``Factored`` telescopes
    ``relation_lattice`` certified, sigma(g)/g = prod a_i^{v_i} compared
    on exponent vectors; each row witness is the ``expand`` of its
    telescope.  Both are None for a lattice built by hand, which
    ``SigmaIdeal.from_lattice`` refuses."""

    def __init__(self, dim: int, rows, exact: bool = False,
                 factor_basis=None, telescopes=None):
        self.dim = dim
        self.rows = list(rows)  # [(tuple exponent vector, RatFunc witness)]
        self.exact = exact
        self.window = False
        self.factor_basis = factor_basis
        self.telescopes = telescopes

    def vectors(self) -> list[list[int]]:
        return [list(v) for v, _ in self.rows]

    def rank(self) -> int:
        return len(self.rows)

    def contains(self, vec: Sequence[int]) -> bool:
        return in_lattice(self.vectors(), list(vec))

    def __repr__(self):
        return f"LatticeBasis(dim={self.dim}, rows={self.vectors()})"


class Factored:
    """c x^t prod sigma^i(basis[rep])^e, ``exps`` mapping (rep, i) to a
    nonzero e: a character, or a witness kept as orbit data.  A witness is
    fixed up to a constant, so it carries c = 1, and ``expand`` makes its
    numerator monic."""

    __slots__ = ("k", "basis", "const", "xpow", "exps")

    def __init__(self, k: DiffField, basis, const, xpow: int, exps: dict):
        self.k, self.basis = k, basis
        self.const, self.xpow, self.exps = const, xpow, exps

    def _like(self, const, xpow: int, terms) -> "Factored":
        """Another element over the same basis; terms are (key, e) pairs,
        summed."""
        exps = {}
        for key, e in terms:
            exps[key] = exps.get(key, 0) + e
        return Factored(self.k, self.basis, const, xpow,
                        {key: e for key, e in exps.items() if e})

    def __mul__(self, other: "Factored") -> "Factored":
        return self._like(self.const * other.const, self.xpow + other.xpow,
                          [*self.exps.items(), *other.exps.items()])

    def __pow__(self, m: int) -> "Factored":
        return self._like(self.const ** m, self.xpow * m,
                          [(key, e * m) for key, e in self.exps.items()])

    def __eq__(self, other) -> bool:
        return (self.const == other.const and self.xpow == other.xpow
                and self.exps == other.exps)

    __hash__ = None

    def sigma_quotient(self, step: int) -> "Factored":
        """sigma^step(self)/self.  For the shift x is a basis polynomial,
        so a power of x is no orbit datum."""
        k = self.k
        if k.sigma.kind == "shift":
            if self.xpow:
                raise InternalInvariantError(
                    "a shift witness carries a separate power of x")
            const = k.constants.one
        else:
            const = k.constants.coerce(k.sigma.q) ** (step * self.xpow)
        return self._like(const, 0, [
            term for (rep, i), e in self.exps.items()
            for term in (((rep, i + step), e), ((rep, i), -e))])

    def certify(self, target: "Factored", step: int, message: str) -> None:
        """Raise unless sigma^step(self)/self == target."""
        if self.sigma_quotient(step) != target:
            raise InternalInvariantError(message)

    def root(self, d: int) -> "Factored | None":
        """The d-th root of a witness, or None when k holds none: exactly
        when d divides t and every exponent e_i on sigma^i(rep).  The basis
        is square-free, so on one sigma-orbit of roots beta_u, with S the u
        where rep vanishes (rep may meet its translates, as x(x + 1) does),
        beta_u has multiplicity sum_{s in S} e_{u - s}.  For the highest i
        with d not dividing e_i, u = i + min S makes every other term one of
        lower index, so d does not divide that multiplicity.  Classes share
        no orbit, translates have no root at 0, and c = 1 is its own root."""
        if self.xpow % d or any(e % d for e in self.exps.values()):
            return None
        return self._like(self.const, self.xpow // d,
                          [(key, e // d) for key, e in self.exps.items()])

    def expand(self) -> RatFunc:
        """The reduced rational function, with monic numerator.  Only
        translates can share a factor; x^t joins after the gcd."""
        k, basis = self.k, self.basis
        inner = k.constants
        num, den = Poly.one(inner), Poly.one(inner)
        for (rep, i), e in sorted(self.exps.items()):
            p = k.sigma.translate(basis[rep], i) ** abs(e)
            if e > 0:
                num = num * p
            else:
                den = den * p
        f = RatFunc(num, den)
        num, den = f.num, f.den
        if self.xpow > 0:
            num = num * Poly.x(inner) ** self.xpow
        elif self.xpow < 0:
            den = den * Poly.x(inner) ** -self.xpow
        f = RatFunc._reduced(num, den)
        return f / f.num.lc()


class FactorBasis:
    """Characters a_i = c_i x^{v_i} prod_j b_j^{e_ij}, from their
    ``_normal_parts``, over the basis b_j of ``_orbit_basis`` with
    b_j = sigma^d(b_rep) for orbit[j] = (rep, d).  Characters not
    ``involved`` are left out (entries[i] None, zero exponents); each other
    is certified to be the product of its factorization."""

    def __init__(self, k: DiffField, parts, involved):
        self.k = k
        self.basis, self.orbit, self.complete = _orbit_basis(k, [
            p for keep, (*_, num, den) in zip(involved, parts) if keep
            for p in (num, den)])
        zero = [0] * len(self.basis)
        self.exps = [[_multiplicity(num, b) - _multiplicity(den, b)
                      for b in self.basis] if keep else zero
                     for keep, (*_, num, den) in zip(involved, parts)]
        one = Poly.one(k.constants)
        self.entries = []
        for keep, (c, v, num, den), row in zip(involved, parts, self.exps):
            if not keep:
                self.entries.append(None)
                continue
            if (num != _power_product(one, self.basis, row, 1)
                    or den != _power_product(one, self.basis, row, -1)):
                raise InternalInvariantError(
                    "a character is not the product of its factorization")
            self.entries.append(Factored(k, self.basis, c, v, {
                self.orbit[j]: e for j, e in enumerate(row) if e}))

    def one(self) -> Factored:
        return Factored(self.k, self.basis, self.k.constants.one, 0, {})

    def power(self, vec) -> Factored:
        """prod a_i^{vec_i}."""
        return prod((self.entries[i] ** m for i, m in enumerate(vec) if m),
                    start=self.one())

    def telescope(self, vec, t: int, step: int) -> Factored:
        """f with sigma^step(f)/f = prod a_i^{vec_i}, for vec whose exponents
        sum to zero over each class (rep, d mod step): b = sigma^d(rep) of
        exponent E gives E on each factor of the telescope
        T = prod_{i < d // step} sigma^(d mod step + i step)(rep), as
        sigma^step(T)/T = b / sigma^(d mod step)(rep); q^(step t) is
        sigma^step(x^t)/x^t."""
        one = self.one()
        return one._like(one.const, t, [
            ((rep, i), e) for (rep, d), e in self.power(vec).exps.items()
            for i in range(d % step, d, step)])


def _power_product(one: Poly, basis, row, sign: int) -> Poly:
    """prod b_j^(sign e_j) over the j with sign e_j > 0."""
    return prod((b ** (sign * e) for b, e in zip(basis, row) if sign * e > 0),
                start=one)


# ---------------------------------------------------------------------------
# multiplicative: sigma^s(f) = r * f
# ---------------------------------------------------------------------------

def solve_mult(k: DiffField, r, step: int = 1) -> MultSolution | None:
    """Decide whether r = sigma^step(f)/f for some f in k*, exactly.

    r = c x^v num/den as ``_normal_parts`` splits it.  sigma^step(f)/f has
    degree balance 0, for the dilation no root or pole at x = 0 (v = 0),
    and constant c = 1 (shift) or q^(step t) (dilation), so those are
    tested first.  Then r is a quotient iff, over the factor basis of num
    and den closed under sigma (``_orbit_basis``), the exponents sum to
    zero over each class of elements sigma^d(rep) with one rep and one
    d mod step; the witness is x^t times telescopes
    (``FactorBasis.telescope``).

    Proof of the class condition.  Within a class of two or more elements
    no element holds two roots of one sigma-orbit: were its roots alpha
    and sigma^e(alpha), e != 0, then b = sigma^d(c) would partly meet
    sigma^(d + e)(c), and ``_orbit_basis`` leaves no partial match.  The
    step-orbits of such a class's roots therefore meet sigma^d(rep)
    exactly when d lies in one residue mod step, and a lone element
    contributes its exponent times its number of roots there.  A divisor
    on an infinite orbit is sigma^step(D) - D iff it sums to zero on each
    step-orbit.
    """
    if step < 1:
        raise ValueError("step must be a positive integer")
    r = k.coerce(r)
    if r.is_zero():
        raise ZeroInput("a sigma-quotient is a unit; r = 0 is malformed")
    parts = _normal_parts(k, r)
    c, v, num, den = parts
    if v or num.degree() != den.degree():
        return None
    if k.sigma.kind == "shift":
        t = 0 if c == c ** 0 else None
    else:
        z = _constant_as_cyclo(c)
        t = None if z is None else qpower_log(z, k.sigma.q ** step)[0]
    if t is None:
        return None
    fb = FactorBasis(k, [parts], [True])
    if any(_class_sums(fb.orbit, fb.exps[0], step)):
        return None
    f = fb.telescope((1,), t, step)
    f.certify(fb.entries[0], step, "multiplicative witness failed re-check")
    return MultSolution(witness=f.expand(), step=step)


# ---------------------------------------------------------------------------
# additive: sigma(f) - f = b
# ---------------------------------------------------------------------------

def solve_add(k: DiffField, b) -> RatFunc | None:
    """Decide whether b = sigma(f) - f for some f in k, exactly.

    Abramov's reduction (S. A. Abramov, "The rational component of the
    solution of a first-order linear recurrence relation with a rational
    right side", USSR Comput. Math. Math. Phys. 15, 1975).  b is split into
    a Laurent part and a proper part a/d with d(0) != 0 for the dilation
    (``_split_add``).  Poles of the proper part are moved down their
    sigma-orbits onto other poles (``_move_poles``); each move changes b by
    a sigma-difference whose telescoped pieces make up the witness.  Once
    no two poles share an orbit the proper part is summable only if it is
    zero.  The Laurent part is summed termwise (``_sum_laurent``).  The
    witness is normalized so the constant term of its polynomial part is
    zero, making it unique: ker(sigma - id) on k is the constants.

    For the shift, 1/(x(x+1)(x+2)) has poles 0, -1, -2 on one orbit.  The
    pole at 0 is moved to -2 (j = 2), then the one at -1 (j = 1); the
    residues left at -2 cancel, and the telescoped pieces sum to
    f = -1/(2x(x+1)).  The lone pole of 1/x has nowhere to go, so 1/x is
    refused.

    >>> from pvkit.base import DiffField, SigmaSpec
    >>> k = DiffField(SigmaSpec.shift())
    >>> x = k.x()
    >>> k.format(solve_add(k, 1 / (x * (x + 1) * (x + 2))))
    '(-1/2)/(x^2 + x)'
    >>> solve_add(k, 1 / x) is None
    True
    """
    return solve_add_with_flag(k, b)[0]


def solve_add_with_flag(k: DiffField, b) -> tuple[RatFunc | None, bool]:
    """``solve_add`` and whether its answer is certain: not for a None left
    by a pole distance that ``dispersion_set`` searched in a window."""
    b = k.coerce(b)
    field = k.k_field
    if b.is_zero():
        return field.zero, True
    laurent, low, a, d = _split_add(k, b)
    rest, f, complete = _move_poles(k, RatFunc._reduced(a, d))
    if not rest.is_zero():
        return None, complete
    g = _sum_laurent(k, laurent, low)
    if g is None:
        return None, True
    f = f + g
    # strip the free additive constant: zero the constant term of the
    # polynomial part
    quot, _ = divmod(f.num, f.den)
    f = f - quot.nth(0)
    if apply_sigma(k, f) - f != b:
        raise InternalInvariantError("additive witness failed re-check")
    return f, True


def _split_add(k: DiffField, b: RatFunc):
    """(p, e, a, d) with b = p / x^e + a / d, p and a polynomials,
    deg a < deg d, d monic and coprime to a; for the dilation d(0) != 0,
    and e = 0 for the shift.

    Both parts are sigma-stable, so b is summable iff each part is.  The
    dilation's poles at x = 0 are split off with one xgcd: s x^e + t d = 1
    gives a = num * s mod d.
    """
    num, den = b.num, b.den
    d = den if k.sigma.kind == "shift" else _strip_x(den)
    e = den.degree() - d.degree()
    if not e:
        p, a = divmod(num, d)
        return p, 0, a, d
    x_e = den.exact_div(d)
    _, s, _ = x_e.xgcd(d)
    a = num * s % d
    return (num - a * x_e).exact_div(d), e, a, d


def _move_poles(k: DiffField, rest: RatFunc):
    """(rest', f, complete) with rest = rest' + sigma(f) - f and no two
    poles of the proper fraction rest' in one sigma-orbit, unless
    ``dispersion_set`` was not ``complete``.

    The distances j > 0 between poles in one orbit are the self-dispersion
    set of den(rest), taken once: moving a pole only lands it on a pole
    already there, so the set never grows.  For each j, descending, the
    poles whose sigma^j-image (beta - j for the shift, beta / q^j for the
    dilation) is also a pole, the roots of sigma^-j(g) for
    g = gcd(d, sigma^j(d)), are split off with their full multiplicity as
    T = c/U and replaced by sigma^j(T), whose poles are those images:
    T = sigma^j(T) - (sigma - 1) sum_{i<j} sigma^i(T).  One move per j
    suffices: by then no two poles are k apart for any k > j, so no chain
    of poles j apart has three members (its ends would be 2j apart).  Every
    pole is moved, a landing spot or neither, and no two poles are left
    j apart.
    """
    sigma = k.sigma
    f = k.k_field.zero
    if rest.is_zero():
        return rest, f, True
    distances, complete = dispersion_set(rest.den, rest.den, sigma)
    for j in reversed([j for j in distances if j > 0]):
        a, d = rest.num, rest.den
        g = d.gcd(sigma.translate(d, j))
        if g.degree() == 0:
            continue
        u, v = _part_at(d, sigma.translate(g, -j))
        # a/d = c/u + (a - c v)/(u v), with c = a t mod u for s u + t v = 1
        _, _, t = u.xgcd(v)
        c = a * t % u
        part = RatFunc._reduced(c, u)
        for i in range(j):
            f = f - apply_sigma_power(k, part, i)
        rest = (RatFunc._reduced((a - c * v).exact_div(u), v)
                + apply_sigma_power(k, part, j))
        if rest.is_zero():
            break
    return rest, f, complete


def _part_at(d: Poly, h: Poly) -> tuple[Poly, Poly]:
    """(u, d / u) with u the factor of d at the roots of h, each with its
    full multiplicity in d."""
    u = Poly.one(d.field)
    g = d.gcd(h)
    while g.degree() > 0:
        u = u * g
        d = d.exact_div(g)
        g = d.gcd(g)
    return u, d


def _sum_laurent(k: DiffField, p: Poly, e: int) -> RatFunc | None:
    """f with sigma(f) - f = p / x^e, or None.

    Shift (e = 0): top-down, as sigma(x^(m+1)) - x^(m+1) has leading term
    (m+1) x^m.  Dilation: sigma(x^m) - x^m = (q^m - 1) x^m, so every
    coefficient but that of x^0 is divided by q^m - 1, and a nonzero
    x^0 coefficient is not summable.
    """
    inner = k.k_field.inner
    if k.sigma.kind == "shift":
        out = Poly.zero(inner)
        while not p.is_zero():
            m = p.degree() + 1
            lead = p.lc() * inner.coerce(Fraction(1, m))
            term = Poly(inner, [inner.zero] * m + [lead])
            out = out + term
            p = p - (term.shift_arg(1) - term)
        return k.coerce(out)
    q = inner.coerce(k.sigma.q)
    coeffs = []
    for i, c in enumerate(p.coeffs):
        if not c:
            coeffs.append(c)
        elif i == e:
            return None
        else:
            coeffs.append(c / (q ** (i - e) - inner.one))
    return RatFunc(Poly(inner, coeffs), Poly.x(inner) ** e)


# ---------------------------------------------------------------------------
# torsion order and relation lattices of characters
# ---------------------------------------------------------------------------

def torsion_order(k: DiffField, a, m_max: int, step: int = 1) -> TorsionCert | None:
    """Least m in [1, m_max] with a**m a sigma^step-quotient, with witness."""
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    a = k.coerce(a)
    if a.is_zero():
        raise ZeroInput("torsion order of the zero function is malformed")
    if a.degree_balance() != 0:
        return None
    for m in range(1, m_max + 1):
        sol = solve_mult(k, a ** m, step=step)
        if sol is not None:
            return TorsionCert(order=m, witness=sol.witness)
    return None


def relation_lattice(k: DiffField, a_list, m_max: int) -> LatticeBasis:
    """Lattice L of the exponent vectors m with prod a_i^{m_i} a
    sigma-quotient, in row Hermite form, each row with a checked witness.

    Over one coprime basis closed under sigma (``_orbit_basis``), a_i =
    c_i x^{v_i} prod_b b^{e_ib} with every b monic (shift; v_i = 0) or of
    constant term 1 (dilation), which sigma keeps.  So m lies in L iff m is
    in the integer kernel L0 of the exponent sums over each sigma-orbit
    and of the v_i, and prod c_i^{m_i} is 1 (shift) or some q^t.  That is
    exact when each constant L0 involves, and q, has a rational M-th
    power, M = ``unity_order(N)`` for constants Q(zeta_N)
    (``_constant_rows``); others, such as 1 + sqrt(2), are searched for
    |m_i| <= m_max (``_residue_rows``), inexact.  A q-power question left
    to the window of ``qpower_log`` or ``dispersion_set`` sets
    ``window``.  Witnesses are telescopes (``FactorBasis.telescope``),
    each checked on its orbit data against its relation.  Each is
    expanded here, once, into the row witness g of the generator Y^v - g;
    the lattice keeps the telescopes and the factor basis, which the
    engine's Smith pass and idempotent orbit read as they are.
    ``solve_mult`` never runs.  An entry that the degree balance and the
    valuation alone pin to m_i = 0 gets no factor basis.
    """
    a = [k.coerce(ai) for ai in a_list]
    if any(ai.is_zero() for ai in a):
        raise ZeroInput("characters must be nonzero")
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    n = len(a)
    parts = [_normal_parts(k, ai) for ai in a]
    pin = [[num.degree() - den.degree(), v] for _, v, num, den in parts]
    free = integer_kernel(pin)
    fb = FactorBasis(k, parts, [any(r[i] for r in free) for i in range(n)])
    l0 = integer_kernel([_class_sums(fb.orbit, row) + p
                         for row, p in zip(fb.exps, pin)])
    consts = [c for c, *_ in parts]
    rows = _constant_rows(k, consts, l0)
    exact, complete = rows is not None, fb.complete
    if not exact:
        rows, logged = _residue_rows(k, consts, l0, m_max)
        complete = complete and logged
    out, telescopes = [], []
    for row in hermite_normal_form(rows)[0]:
        vec = tuple(row[:n])
        g = fb.telescope(vec, row[n], 1)
        g.certify(fb.power(vec), 1,
                  "telescoped witness does not witness its relation")
        out.append((vec, g.expand()))
        telescopes.append(g)
    lattice = LatticeBasis(n, out, exact, fb, telescopes)
    lattice.window = not complete
    return lattice


def _normal(k: DiffField, p: Poly) -> Poly:
    """p monic (shift) or of constant term 1 (dilation), as sigma keeps."""
    return (p.monic() if k.sigma.kind == "shift"
            else p * (p.field.one / p.nth(0)))


def _normal_parts(k: DiffField, a: RatFunc):
    """(c, v, num, den) with a = c x^v num/den, num and den ``_normal``,
    x-free for the dilation, and v = 0 for the shift."""
    if k.sigma.kind == "shift":
        return a.lc_ratio(), 0, a.num.monic(), a.den
    num, den = _strip_x(a.num), _strip_x(a.den)
    v = a.num.degree() - num.degree() - a.den.degree() + den.degree()
    return num.nth(0) / den.nth(0), v, _normal(k, num), _normal(k, den)


def _multiplicity(p: Poly, b: Poly) -> int:
    """The largest e with b^e dividing p, for b of positive degree."""
    e = 0
    while not p % b:
        p, e = p // b, e + 1
    return e


def _orbit_basis(k: DiffField, polys):
    """(basis, orbit, complete): coprime square-free ``_normal``
    polynomials, each of ``polys`` a product of their powers, with
    gcd(b, sigma^d c) = 1 or b = sigma^d c for any two of them;
    orbit[i] = (rep, d >= 0) with basis[i] = sigma^d(basis[rep]) and rep
    the lowest of its class; and whether every ``dispersion_set`` read was
    complete.

    The square-free parts of ``polys`` go in, so refinement never peels a
    power at a time and every element is square-free.  Factor refinement;
    then each d of ``dispersion_set(b, c)`` for b before c that is no full
    match splits b and c at g = gcd(b, sigma^d c) and sigma^-d(g), and
    refinement runs again (Gerhard, Giesbrecht, Storjohann and Zima, ISSAC
    2003).  Each split adds an element, so this ends.  The signed set of
    one unordered pair gives both orders, and an element is never paired
    with itself: self-pairs change no class sum and no witness.  For once
    every two elements are coprime or a full match, two that meet one
    sigma-orbit are exact translates, so each orbit's exponent sum is the
    number of the element's roots in it times its class sum, zero iff the
    class sum is, whether or not one element holds two roots of that
    orbit.  Each recorded offset is certified on the way out:
    sigma^d(basis[rep]) == basis[i].
    """
    sigma = k.sigma
    basis = [s for p in polys for s in square_free_parts(p)]
    while True:
        basis = [_normal(k, b) for b in
                 coprime_basis(basis, Poly.gcd, lambda p: p.degree() < 1)]
        orbit, pieces = [(i, 0) for i in range(len(basis))], []
        complete = True
        for i, j in itertools.combinations(range(len(basis)), 2):
            b, c = basis[i], basis[j]
            distances, sure = dispersion_set(b, c, sigma)
            complete = complete and sure
            for d in distances:
                moved = sigma.translate(c, d)
                if b != moved:
                    g = b.gcd(moved)
                    pieces += [g, sigma.translate(g, -d)]
                elif d > 0:
                    orbit[i] = max(orbit[i], (j, d), key=lambda o: o[1])
                else:
                    orbit[j] = max(orbit[j], (i, -d), key=lambda o: o[1])
            if pieces:
                break
        if not pieces:
            break
        basis += pieces
    for b, (rep, d) in zip(basis, orbit):
        if d and sigma.translate(basis[rep], d) != b:
            raise InternalInvariantError(
                "a basis element is not the translate its class records")
    return basis, orbit, complete


def _class_sums(orbit, row, step: int = 1) -> list[int]:
    """The sums of the exponents in row over each class (rep, d mod step)
    of ``_orbit_basis``, in one order for every row."""
    keys = sorted({(rep, d % step) for rep, d in orbit})
    return [sum(e for e, (rep, d) in zip(row, orbit) if (rep, d % step) == key)
            for key in keys]


@lru_cache(maxsize=None)
def _roots_of_unity(n: int) -> tuple[CycloNum, ...]:
    """zeta_n^e for 0 <= e < n, built once per n."""
    return tuple(CycloNum.zeta(n) ** e for e in range(n))


def _constant_rows(k: DiffField, consts, l0):
    """Rows (m, t) spanning the m in l0 with prod c_i^{m_i} = q^t (t = 0
    for the shift), or None when a constant that l0 involves, or q, has no
    rational M-th power, M = ``unity_order(N)`` for constants Q(zeta_N).

    With g = (c_1, ..., c_n, 1/q) this is prod g^(m, t) = 1.  Its M-th
    power asks the valuations of the rationals g^M, over a coprime basis of
    their integers (no integer is factored), to cancel: a kernel.  On it
    prod g^(m, t) lies in mu_M, and a discrete log adds one congruence.
    """
    if not l0:
        return []
    shift = k.sigma.kind == "shift"
    n, big = len(consts), unity_order(k.constants_conductor)
    one = CycloNum.from_rational(1)
    gens = [_constant_as_cyclo(c) if any(r[i] for r in l0) else one
            for i, c in enumerate(consts)]
    base = [list(r) for r in l0]
    if not shift:
        gens.append(k.sigma.q.inverse())
        base = [r + [0] for r in base] + [[0] * n + [1]]
    gammas = [None if g is None else rational_power(g, k.constants_conductor)
              for g in gens]
    if None in gammas:
        return None
    primes = coprime_basis([abs(x.numerator) for x in gammas]
                           + [x.denominator for x in gammas],
                           gcd, lambda v: v == 1)
    vals = [[_padic(x, p) for p in primes] for x in gammas]
    w1 = matmul(integer_kernel(matmul(base, vals)), base)
    table = _roots_of_unity(big)
    rhos = [prod((g ** e for g, e in zip(gens, w)), start=one) for w in w1]
    if any(rho not in table for rho in rhos):
        raise InternalInvariantError(
            "constant product on the valuation kernel is no root of unity")
    logs = [[table.index(rho)] for rho in rhos] + [[big]]
    rows = matmul([r[:-1] for r in integer_kernel(logs)], w1)
    return [r + [0] for r in rows] if shift else rows


def _residue_rows(k: DiffField, consts, l0, m_max: int):
    """Rows (m, t) for every m in l0 with |m_i| <= m_max, first nonzero
    entry positive, and prod c_i^{m_i} = q^t (t = 0 for the shift): the
    relation vectors of the box B, and whether every log was certain.  For
    n <= 3 their span L_B is saturated in L, which
    ``engine._cyclic_factors`` needs, so n > 3 is refused.

    Lemma.  For L in Z^n with n <= 3, L_B = L cap span_Q(L_B).

    Proof.  Take independent b_1..b_r in L cap B of least r-volume.  A
    nonzero class of (L cap span_Q L_B)/<b> has a representative
    w = sum c_i b_i with c_i in (-1/2, 1/2].  If sum |c_i| <= 1, then
    |w| <= M, and swapping w for a b_j with c_j != 0 scales the volume by
    |c_j| <= 1/2, against minimality.  For a class of order m, the mean of
    sum_i |rep(t c_i)| over t = 1..m-1 is at most r m / (4 (m - 1)), and at
    most 1 when m = 3, so when m >= 3 or r <= 2 some multiple of the class
    falls in the first case.  That leaves m = 2, r = 3 and
    c = (1/2, 1/2, 1/2): the class holds the four vectors
    (+-b_1 +-b_2 +-b_3)/2 up to sign, and a coordinate can push at most
    the one whose signs all agree with it past M, so with n <= 3
    coordinates one of the four lies in B, and swapping it in halves the
    volume again.  So the quotient is trivial.
    """
    n = len(consts)
    if n > 3:
        raise DimensionTooLarge(
            f"relation search is tuned for <= 3 characters, got {n}")
    box = range(-m_max, m_max + 1)
    tables = [{m: c ** m for m in box} for c in consts]
    rows, complete = [], True
    for vec in itertools.product(box, repeat=n):
        if vec <= (0,) * n or not in_lattice(l0, list(vec)):
            continue
        z = _constant_as_cyclo(prod((t[m] for m, t in zip(vec, tables)),
                                    start=k.constants.one))
        if z is None:
            continue
        t, sure = ((0 if z == 1 else None, True) if k.sigma.kind == "shift"
                   else qpower_log(z, k.sigma.q))
        complete = complete and sure
        if t is not None:
            rows.append(list(vec) + [t])
    return rows, complete
