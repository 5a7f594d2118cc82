"""Dense reference routes for the cyclic factors, an oracle for
``engine._cyclic_factors``.

The engine keeps every witness as orbit data over one factor basis and
reads the split off its exponents and the stride off the character's
constants.  The routes here work on expanded rational functions instead:
the Smith-combined witness is a product of the dense row witnesses,
re-checked as sigma(g)/g; the split takes exact d-th roots (``nth_root``,
coefficient by coefficient); and the stride asks ``solve_mult`` whether a
power of the telescoped character sigma^{s-1}(a)...a is a
sigma^s-quotient.  ``compute_ell`` and ``compute_m`` re-derive the
invariants of a built presentation along both dense routes.

``assert_sigma_stable`` re-proves densely what the build certifies where
it makes a generator: every generator's sigma-image reduces to zero in
the ideal, for both shapes.  ``certify_by_hand`` copies a lattice built
by hand with the factor basis and row telescopes ``relation_lattice``
attaches, which ``SigmaIdeal.from_lattice`` and the Smith pass read.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm, prod

from pvkit.arith.cyclo import CycloField
from pvkit.arith.ops import _divisors
from pvkit.arith.poly import Poly, RatFunc
from pvkit.base import DiffField, apply_sigma, apply_sigma_power
from pvkit.engine import (
    CyclicFactor,
    PVPresentation,
    SigmaIdeal,
    _assert_primitive_root_of_unity,
)
from pvkit.errors import InternalInvariantError, ZeroInput
from pvkit.snf import smith_normal_form, unimodular_inverse
from pvkit.solve import FactorBasis, LatticeBasis, _normal_parts, solve_mult


def entry_power(field, entries, vec) -> RatFunc:
    """prod entries_i^{vec_i}, skipping zero exponents: the character of
    the monomial Y^vec, expanded."""
    return prod((a ** m for m, a in zip(vec, entries) if m), start=field.one)


def assert_sigma_stable(ideal: SigmaIdeal) -> None:
    """Raise unless the normal form of every generator's sigma-image is
    zero: sigma(Y^v - g) for a lattice row, and sigma(Y12 - f Y11),
    sigma(Y11 - 1), sigma(Y22 - 1) for the unipotent corner."""
    for g in ideal.generators:
        if not ideal.normal_form(ideal.sigma_image(g)).is_zero():
            raise InternalInvariantError(
                "ideal generator has a sigma-image outside the ideal")


def certify_by_hand(k: DiffField, entries, lattice: LatticeBasis) -> LatticeBasis:
    """``lattice`` with a factor basis of the entries its rows involve and
    each row's witness as the telescope of its relation.  The power of x
    is read off the row witness: translates have no root at 0, and for
    the shift it is 0."""
    fb = FactorBasis(k, [_normal_parts(k, a) for a in entries],
                     [any(col) for col in zip(*lattice.vectors())])
    shift = k.sigma.kind == "shift"
    telescopes = [fb.telescope(vec, 0 if shift else _x_valuation(g), 1)
                  for vec, g in lattice.rows]
    out = LatticeBasis(lattice.dim, lattice.rows, lattice.exact, fb,
                       telescopes)
    out.window = lattice.window
    return out


def _x_valuation(f: RatFunc) -> int:
    def low(p):
        return next(i for i, c in enumerate(p.coeffs) if c)
    return low(f.num) - low(f.den)


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


def fraction_nth_root(q: Fraction, d: int) -> Fraction | None:
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


def poly_nth_root(p: Poly, d: int) -> Poly | None:
    """Exact d-th root of a monic polynomial, or None.

    Coefficients are found top-down (each new one enters linearly with
    factor d), then the candidate is verified by exact powering.
    """
    if d == 1:
        return p
    if p.is_zero() or not p.is_monic():
        raise ZeroInput("nth_root expects a monic nonzero polynomial")
    if p.degree() % d != 0:
        return None
    k = p.degree() // d
    root = [p.field.zero] * k + [p.field.one]  # low-to-high
    dd = p.field.coerce(d)
    for j in range(1, k + 1):
        cur = Poly(p.field, tuple(root)) ** d
        target = p.nth(d * k - j)
        root[k - j] = (target - cur.nth(d * k - j)) / dd
    candidate = Poly(p.field, tuple(root))
    if candidate ** d == p:
        return candidate
    return None


def nth_root(field, value, d: int):
    """An exact d-th root of ``value`` in ``field``, or None: a
    ``CycloField``, where only rational values are supported (the
    construction never needs roots of irrational cyclotomic constants,
    as witness constants are normalized to 1 before roots are taken), or
    a ``RatFuncField`` over a field of either kind."""
    value = field.coerce(value)
    if isinstance(field, CycloField):
        if d == 1 or value == field.one:
            return value
        if not value.is_rational():
            raise InternalInvariantError(
                "d-th root of an irrational cyclotomic constant requested")
        root = fraction_nth_root(value.rational_value(), d)
        return None if root is None else field.coerce(root)
    if value.is_zero():
        return field.zero
    croot = nth_root(field.inner, value.num.lc(), d)
    if croot is None:
        return None
    nroot = poly_nth_root(value.num.monic(), d)
    droot = poly_nth_root(value.den, d)
    if nroot is None or droot is None:
        return None
    return RatFunc(nroot * Poly.const(field.inner, croot), droot)


def stride_product(k: DiffField, b, s: int, step: int):
    """prod_{i<s} sigma^{i*step}(b)."""
    return prod((apply_sigma_power(k, b, i * step) for i in range(1, s)),
                start=b)


def stride_degree(k: DiffField, char, order: int, step: int = 1) -> int:
    """Largest s dividing ``order`` along which a relation already closes.

    Scanning exponents t in ascending order, the first t for which the
    telescoped product of s = order/t sigma^step-translates of ``char``,
    raised to the t-th power, is a sigma^{step*s}-quotient yields the
    maximal stride s.  The exponent t = order always works (the original
    witness telescopes), so the search is total.
    """
    for t in _divisors(order):
        s = order // t
        telescoped = stride_product(k, char, s, step)
        if solve_mult(k, telescoped ** t, step=step * s) is not None:
            return s
    raise InternalInvariantError(
        "stride search failed although the full relation is a witness")


def split_witness(k: DiffField, char, order: int, witness):
    """Largest divisor d of ``order`` with an exact d-th root of the dense
    witness: (d, root, marker) with witness = root^d and
    marker = char^{order/d} * root / sigma(root) a primitive d-th root of
    unity."""
    kf = k.k_field
    for d in reversed(_divisors(order)):
        root = nth_root(kf, witness, d)
        if root is None:
            continue
        marker = char ** (order // d) * root / apply_sigma(k, root)
        _assert_primitive_root_of_unity(k, marker, d)
        return d, root, marker
    raise InternalInvariantError("witness splitting fell through d = 1")


def dense_cyclic_factors(k: DiffField, entries, lattice: LatticeBasis) -> tuple:
    """``engine._cyclic_factors`` on expanded rational functions; the
    factors carry the dense witness and, for every split, the dense root."""
    field = k.k_field
    rows = lattice.rows
    if not rows:
        return ()
    d_mat, u_mat, v_mat = smith_normal_form(lattice.vectors())
    coord_mat = unimodular_inverse(v_mat)
    factors = []
    for u in range(len(rows)):
        order = d_mat[u][u]
        coord = tuple(coord_mat[u])
        char = entry_power(field, entries, coord)
        witness = prod((w ** c for c, (_, w) in zip(u_mat[u], rows) if c),
                       start=field.one)
        witness = witness / witness.num.lc()
        # sigma(w)/w == char^order, cross-multiplied: no gcd of the quotient
        moved, power = apply_sigma(k, witness), char ** order
        if (moved.num * witness.den * power.den
                != moved.den * witness.num * power.num):
            raise InternalInvariantError(
                "Smith-combined witness does not witness its relation")
        split, root, marker = split_witness(k, char, order, witness)
        m_factor = stride_degree(k, char, order)
        if split != m_factor:
            raise InternalInvariantError(
                "root-splitting count disagrees with the stride-relation degree")
        factors.append(CyclicFactor(order, coord, witness, split, root,
                                    marker, m_factor))
    return tuple(factors)


def compute_ell(p: PVPresentation) -> int:
    """Number of orbit components, recomputed along both dense routes.

    Route one re-extracts exact roots of the expanded witnesses; route two
    re-runs the stride-relation search.  The two must agree factor by
    factor and their lcm must match the stored value.
    """
    k = p.field
    ell = 1
    for f in p.factors:
        char = entry_power(k.k_field, p.system.entries, f.coord)
        split, _, _ = split_witness(k, char, f.order, f.witness.expand())
        stride = stride_degree(k, char, f.order)
        if split != stride:
            raise InternalInvariantError(
                "splitting route and stride route disagree on a factor")
        ell = lcm(ell, split)
    if ell != p.ell:
        raise InternalInvariantError("recomputed ell differs from the presentation")
    return ell


def compute_m(p: PVPresentation) -> int:
    """Degree of the periodic-element field, with the product cross-check.

    The primary value is the lcm of the per-factor stride degrees.  The
    cross-check recomputes it as ell times the residual degree above one
    component: for each factor the character telescoped along ell steps,
    whose component order is order/split, is fed back into the stride
    search at stride ell.
    """
    k = p.field
    m_inv = 1
    residual = 1
    for f in p.factors:
        char = entry_power(k.k_field, p.system.entries, f.coord)
        m_inv = lcm(m_inv, stride_degree(k, char, f.order))
        comp_order = f.order // f.split
        if comp_order > 1:
            comp_char = stride_product(k, char, p.ell, 1)
            residual = lcm(residual, stride_degree(k, comp_char, comp_order,
                                                   step=p.ell))
    if m_inv != p.ell * residual:
        raise InternalInvariantError(
            "invariant degree fails the component product formula")
    if m_inv != p.m_inv:
        raise InternalInvariantError("recomputed m differs from the presentation")
    return m_inv
