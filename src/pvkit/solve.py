"""Exact first-order rational certification over a difference field.

Four questions get decided here, each with a checked witness:

  solve_mult        is r a sigma^s-quotient, i.e. sigma^s(f) = r*f, f in k*?
  solve_add         is b a sigma-difference, i.e. sigma(f) - f = b, f in k?
  torsion_order     least m >= 1 with a^m a sigma-quotient
  relation_lattice  all integer vectors (m_i), |m_i| <= m_max, with
                    prod a_i^{m_i} a sigma-quotient, as a lattice basis

``torsion_order`` is a public certifier for callers and tests; the engine
no longer calls it, since the Smith orders of the saturated lattice from
``relation_lattice`` are already the exact torsion orders.

Each is written once for a generic sigma: sigma^j acts on polynomials
only through ``SigmaSpec.translate``, and ``dispersion`` reads the same way
for both kinds.  The few facts that depend on the kind sit next to the step
they change: the shift's leading-coefficient condition (a filter in the
peel, the relation scan and ``torsion_order``) and exact leftover 1, the
dilation's origin filter (in the peel; the relation scan walks it as
x-adic valuation zero), its constant leftover (a power of q, read off by
a discrete log), and in ``solve_add`` its poles at x = 0 and its Laurent
part, where only the constant term is not a sigma-difference.

``solve_add`` is Abramov's reduction (S. A. Abramov, USSR Comput. Math.
Math. Phys. 15, 1975) and solves no linear system.  It takes one
self-dispersion set of den(b), then moves poles along their sigma-orbits
with gcds and translates until no two share an orbit; b is a
sigma-difference iff the proper part left over is zero and the Laurent
part is summable.  The telescoped moves are the witness.

The relation scan generates only the exponent vectors that meet the exact
conditions linear in the vector (degree balance zero, and for the
dilation x-adic valuation zero), shell by shell; the lattice membership
and the shift's leading-coefficient ratio are tested on each generated
vector, and ``solve_mult`` decides the rest.

Every witness is re-substituted into its defining equation before it is
returned; a failure there raises InternalInvariantError because it would
be a bug in this module, never a property of the input.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .arith.cyclo import CycloNum, bounded_multiplicative_order
from .arith.ops import (
    _padic,
    _strip_x,
    _uneven_prime,
    dispersion,
    dispersion_set,
)
from .arith.poly import Poly, RatFunc, _is_zero
from .base import DiffField, SigmaSpec, apply_sigma, apply_sigma_power
from .errors import DimensionTooLarge, InternalInvariantError, ZeroInput
from .snf import hermite_normal_form, hnf_reduce, in_lattice


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
    with prod a_i^{m_i} a sigma-quotient, each row carrying its witness."""

    def __init__(self, dim: int, rows, field):
        self.dim = dim
        self.rows = list(rows)  # [(tuple exponent vector, RatFunc witness)]
        self._field = field

    def vectors(self) -> list[list[int]]:
        return [list(v) for v, _ in self.rows]

    def rank(self) -> int:
        return len(self.rows)

    def contains(self, vec: Sequence[int]) -> bool:
        return in_lattice(self.vectors(), list(vec))

    def witness_for(self, vec: Sequence[int]) -> RatFunc | None:
        """Witness g with prod a_i^{vec_i} = sigma(g)/g, or None when vec
        is outside the lattice."""
        coeffs, residue = hnf_reduce(self.vectors(), list(vec))
        if any(residue):
            return None
        return _combine_witnesses(self._field, self.rows, coeffs)

    def __repr__(self):
        vecs = [list(v) for v, _ in self.rows]
        return f"LatticeBasis(dim={self.dim}, rows={vecs})"


# ---------------------------------------------------------------------------
# multiplicative: sigma^s(f) = r * f
# ---------------------------------------------------------------------------

def solve_mult(k: DiffField, r, step: int = 1) -> MultSolution | None:
    """Decide whether r = sigma^step(f)/f for some f in k*, exactly.

    Strategy: the pole/zero multiset of a sigma-quotient telescopes, so
    matching roots of num and den along the sigma^step-orbit (found through
    the dispersion) peel off a partial witness V; what remains of r after
    the peel must be trivial -- exactly 1 for the shift, a constant equal to
    an exact power of q^step for the q-dilation (absorbed by a power of x).
    """
    if step < 1:
        raise ValueError("step must be a positive integer")
    r = k.coerce(r)
    if r.is_zero():
        raise ZeroInput("a sigma-quotient is a unit; r = 0 is malformed")
    # degree balance: deg num - deg den is sigma-invariant on f, so any
    # quotient sigma^s(f)/f has balance zero
    if r.degree_balance() != 0:
        return None
    f = _solve_mult_peel(k, r, step)
    if f is None:
        return None
    f = _monic_num(f)
    if apply_sigma_power(k, f, step) / f != r:
        raise InternalInvariantError("multiplicative witness failed re-check")
    return MultSolution(witness=f, step=step)


def _solve_mult_peel(k: DiffField, r: RatFunc, step: int) -> RatFunc | None:
    field = k.k_field
    shift = k.sigma.kind == "shift"
    if shift:
        # shifting the argument preserves leading coefficients, so any
        # quotient sigma^s(f)/f has lc ratio exactly 1; the peel cannot
        # repair a constant mismatch, so refuse before paying for dispersions
        lcr = r.lc_ratio()
        if lcr != lcr ** 0:
            return None
    elif r.num.nth(0).is_zero() or r.den.nth(0).is_zero():
        # sigma(f)/f is a unit at the origin (orbits of 0 stay at 0), so an
        # r with a root or pole at x = 0 is never a quotient
        return None
    # the dispersions are taken for sigma^step as a spec, ``per`` of whose
    # translates make one sigma^step: the unit shift with per = step, or
    # q^step with per = 1, so that the bounded window of an irrational q
    # counts sigma^step translates
    spec, per = k.sigma, step
    if not shift and step > 1:
        spec, per = SigmaSpec.qshift(k.sigma.q ** step), 1

    def peel(a: Poly, b: Poly):
        # a root alpha of a against a root of b at sigma^{j*step}(alpha)
        # contributes sigma^step(V)/V with V = prod_{i=1..j} G translated by
        # sigma^{-i*step}; returns the reduced a, b and the product of the
        # V.  The dilation scales leading coefficients, so factors are kept
        # monic and the constant slack lands in the leftover
        telescope = field.one
        j_cap = dispersion(a, b, spec)
        for j in range((j_cap or 0) // per, 0, -1):
            g = a.gcd(spec.translate(b, j * per))
            if g.degree() > 0:
                a = a.exact_div(g)
                b = b.exact_div(spec.translate(g, -j * per).monic())
                for i in range(1, j + 1):
                    telescope = telescope * field.coerce(
                        spec.translate(g, -i * per).monic())
        return a, b, telescope

    num, den = r.num, r.den
    v = field.one
    while True:
        num, den, forward = peel(num, den)
        den, num, reverse = peel(den, num)
        if forward == field.one and reverse == field.one:
            break
        v = v * forward / reverse
    w = r * v / apply_sigma_power(k, v, step)
    if shift:
        # leading coefficients of sigma^s(f) and f agree, so the leftover
        # must be exactly 1 -- no constant slack in the shift case
        return v if w == field.one else None
    # the leftover must be a constant: scaling arguments moves no constants
    if not w.is_const():
        return None
    z = _constant_as_cyclo(w.const_value())
    e = None if z is None else _discrete_log(z, k.sigma.q ** step)
    return None if e is None else v * field.x() ** e


def _monic_num(f: RatFunc) -> RatFunc:
    lead = f.num.lc()
    return f / lead


def _constant_as_cyclo(value) -> CycloNum | None:
    """Walk a constants-tower element down to its cyclotomic floor; None
    when any layer is genuinely transcendental."""
    while isinstance(value, RatFunc):
        if not value.is_const():
            return None
        value = value.const_value()
    if isinstance(value, CycloNum):
        return value
    return None


def _discrete_log(z: CycloNum, q: CycloNum) -> int | None:
    """Exact e with q**e == z, or None.

    For rational q the answer is complete: q is not a root of unity, so
    some prime valuation of q is nonzero and pins e down, after which one
    exact power comparison confirms it.  For irrational q a bounded window
    |e| <= 64 is scanned; exponents beyond it would need witness degrees
    far outside anything this toolkit constructs.
    """
    one = q ** 0
    if z == one:
        return 0
    if z.is_rational() and q.is_rational():
        zf = z.rational_value()
        qf = q.rational_value()
        p = _uneven_prime(qf)
        if p is not None:
            vq = _padic(qf, p)
            vz = _padic(zf, p) if zf != 0 else None
            if vz is None or vz % vq != 0:
                return None
            e = vz // vq
            return e if q ** e == z else None
    # one running power in each direction, +e tried before -e
    up = down = one
    q_inv = q.inverse()
    for e in range(1, 65):
        up = up * q
        if up == z:
            return e
        down = down * q_inv
        if down == z:
            return -e
    return None


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
    b = k.coerce(b)
    field = k.k_field
    if b.is_zero():
        return field.zero
    laurent, low, a, d = _split_add(k, b)
    rest, f = _move_poles(k, RatFunc._reduced(a, d))
    if not rest.is_zero():
        return None
    g = _sum_laurent(k, laurent, low)
    if g is None:
        return None
    f = f + g
    # strip the free additive constant: zero the constant term of the
    # polynomial part
    quot, _ = divmod(f.num, f.den)
    f = f - quot.nth(0)
    if apply_sigma(k, f) - f != b:
        raise InternalInvariantError("additive witness failed re-check")
    return f


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


def _move_poles(k: DiffField, rest: RatFunc) -> tuple[RatFunc, RatFunc]:
    """(rest', f) with rest = rest' + sigma(f) - f and no two poles of the
    proper fraction rest' in one sigma-orbit.

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
        return rest, f
    # for an irrational q the set comes from the same bounded window as
    # the peel's dispersions
    distances, _ = dispersion_set(rest.den, rest.den, sigma)
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
    return rest, f


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
        if _is_zero(c):
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
    stride = 1
    if k.sigma.kind == "shift":
        # shift quotients have leading-coefficient ratio exactly 1, so the
        # lc ratio of a must be a root of unity and m a multiple of its
        # order; in Q(zeta_N) every such order divides lcm(2, N)
        u = _constant_as_cyclo(a.lc_ratio())
        if u is None:
            return None
        stride = bounded_multiplicative_order(u, lcm(2, k.constants_conductor))
        if stride is None:
            return None
    for m in range(stride, m_max + 1, stride):
        sol = solve_mult(k, a ** m, step=step)
        if sol is not None:
            return TorsionCert(order=m, witness=sol.witness)
    return None


def relation_lattice(k: DiffField, a_list, m_max: int) -> LatticeBasis:
    """Lattice of all exponent vectors (|entries| <= m_max) under which the
    characters a_list multiply into a sigma-quotient.

    Vectors are scanned shell by shell in the sup-norm, skipping anything
    already generated, so discovered relations are inclusion-minimal; only
    vectors whose product has degree balance zero (and for the dilation
    x-adic valuation zero) are generated, the rest are tested as
    ``_relation_scan`` says.  The final basis is canonicalized to row
    Hermite form with witnesses recombined through the unimodular
    transform.

    The result is the span L_B of the relation vectors of the box B, and
    for n <= 3 it is saturated: every relation vector in its rational span
    lies in it (the lemma in ``engine._cyclic_factors``).  So the Smith
    orders of the basis are exact torsion orders, and a relation past the
    box can be missing only along a direction the span does not reach.
    """
    a = [k.coerce(ai) for ai in a_list]
    n = len(a)
    if n > 3:
        raise DimensionTooLarge(
            f"relation search is tuned for <= 3 characters, got {n}")
    for ai in a:
        if ai.is_zero():
            raise ZeroInput("characters must be nonzero")
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    found: list[tuple[tuple[int, ...], RatFunc]] = []
    hnf_rows: list[list[int]] = []

    def known(vec) -> bool:
        # read as each vector comes up, so the skip sees every relation
        # found so far
        return bool(hnf_rows) and in_lattice(hnf_rows, list(vec))

    for vec, witness in _relation_scan(k, a, range(1, m_max + 1), known):
        found.append((vec, witness))
        hnf_rows, _ = hermite_normal_form([list(v) for v, _ in found])
    rows = _hermite_rows(k, a, found)
    if len(rows) != len(found):
        raise InternalInvariantError("relation scan admitted a dependent vector")
    return LatticeBasis(dim=n, rows=rows, field=k.k_field)


def _relation_scan(k: DiffField, entries, shells, known):
    """Yield (vec, witness) for every vector on the given sup-norm shells
    that ``known`` does not cover and under which the entries multiply into
    a sigma-quotient, in scan order.

    Exact necessary conditions of ``solve_mult`` that are linear in the
    vector are walked, not tested: ``_orthogonal_shell`` generates only the
    vectors under which the product has degree balance zero and, for the
    dilation, x-adic valuation zero (sigma(f)/f is a unit at the origin).
    Each walked vector is then tested against ``known`` and, for the
    shift, against the leading-coefficient ratio 1, before ``solve_mult``.
    The ratio of a vector is one product per entry out of a table of the
    powers u^m, |m| <= the largest shell, of each entry's ratio u.
    """
    if not shells:
        return
    field = k.k_field
    columns = [[a.degree_balance() for a in entries]]
    tables = None
    if k.sigma.kind == "shift":
        one = k.constants.one
        top = max(shells)
        tables = [_power_table(a.lc_ratio(), one, top) for a in entries]
    else:
        columns.append([_x_order(a.num) - _x_order(a.den) for a in entries])
    for shell in shells:
        for vec in _orthogonal_shell(len(entries), shell, columns):
            if known(vec):
                continue
            if tables is not None:
                prod_lc = None
                for m, table in zip(vec, tables):
                    if m and table is not None:
                        u_m = table[top + m]
                        prod_lc = u_m if prod_lc is None else prod_lc * u_m
                if prod_lc is not None and prod_lc != one:
                    continue
            sol = solve_mult(k, _entry_power(field, entries, vec))
            if sol is not None:
                yield vec, sol.witness


def _power_table(u, one, top: int) -> list | None:
    """[u^-top, ..., u^top], so that u^m sits at index top + m; None when
    u = 1, whose powers are all 1."""
    if u == one:
        return None
    up, down = [u], [u.inverse()]
    for _ in range(top - 1):
        up.append(up[-1] * u)
        down.append(down[-1] * down[0])
    return down[::-1] + [one] + up


def _x_order(p: Poly) -> int:
    """ord_x of a nonzero polynomial."""
    return p.degree() - _strip_x(p).degree()


def _orthogonal_shell(n: int, s: int, columns):
    """Vectors v in Z^n with sup norm exactly s, first nonzero entry
    positive and v . c = 0 for every integer column c, in lexicographic
    order (each generated lattice line once).

    Entries are fixed left to right.  A prefix is cut as soon as entries in
    [-s, s] after it can no longer bring some dot product back to zero, and
    the last entry that any column touches is solved from its dot product
    instead of looped over.
    """
    if s < 1:
        return
    cols = [tuple(c) for c in columns if any(c)]
    last = max((i for c in cols for i, ci in enumerate(c) if ci), default=-1)
    solver = next((j for j, c in enumerate(cols) if c[last]), None)
    # reach[i][j]: the largest |dot with cols[j]| entries i.. can still add
    reach = [[s * sum(abs(ci) for ci in c[i:]) for c in cols]
             for i in range(n + 1)]

    def walk(prefix, dots, full):
        i = len(prefix)
        if i == n:
            if full:
                yield prefix
            return
        if i == last:
            v, rem = divmod(-dots[solver], cols[solver][i])
            values = () if rem else (v,)
        elif i == n - 1 and not full:
            values = (-s, s)
        else:
            values = range(-s, s + 1)
        for v in values:
            if abs(v) > s or (v < 0 and not any(prefix)):
                continue
            nxt = [d + v * c[i] for d, c in zip(dots, cols)]
            if all(abs(d) <= r for d, r in zip(nxt, reach[i + 1])):
                yield from walk(prefix + (v,), nxt, full or abs(v) == s)

    yield from walk((), [0] * len(cols), False)


def _entry_power(field, entries, vec) -> RatFunc:
    """prod entries_i^{vec_i}, skipping zero exponents."""
    acc = field.one
    for m, a in zip(vec, entries):
        if m:
            acc = acc * a ** m
    return acc


def _combine_witnesses(field, rows, coeffs) -> RatFunc:
    """Witness of sum coeffs_i * v_i from the witnesses of rows (v_i, g_i)."""
    acc = field.one
    for c, (_, w) in zip(coeffs, rows):
        if c:
            acc = acc * w ** c
    return _monic_num(acc)


def _hermite_rows(k: DiffField, entries, rows) -> list:
    """Hermite-canonicalize vector/witness pairs, recombining the witnesses
    through the unimodular transform and re-checking each one.  Q-dependent
    input rows are absorbed, so the result may be shorter than ``rows``."""
    field = k.k_field
    h, u = hermite_normal_form([list(v) for v, _ in rows])
    out = []
    for hrow, coeffs in zip(h, u):
        g = _combine_witnesses(field, rows, coeffs)
        if apply_sigma(k, g) / g != _entry_power(field, entries, hrow):
            raise InternalInvariantError(
                "recombined witness does not witness its relation")
        out.append((tuple(hrow), g))
    return out
