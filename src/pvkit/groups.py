"""Matrix-group identification and transport for presented solution rings.

The automorphisms of a solution ring that commute with sigma and fix the base
field act on a fundamental solution by right multiplication, Y -> Y*X.  The
entries of X that actually occur are cut out by explicit equations over the
constants: substitute Y*X into every ideal generator, reduce to normal form,
and collect the coefficient polynomials of a constants-basis expansion.  For
the binomial ideals produced by the engine this recovers one relation
X^v - 1 per lattice row; for the triangular shape it pins the diagonal and,
when the telescoping corner sum is rational, the corner too.

The group itself is read off the relation lattice: its Smith normal form
gives the finite cyclic part, the corank gives the torus rank, and an
unsolved triangular corner contributes one additive dimension.  Base change
of the constants (a larger cyclotomic field, or adjoined transcendental
constants) rebuilds the presentation once; the transport check takes that
rebuilt presentation and confirms the coordinate equations only change by
coefficient extension.  Connection matrices between two fundamental
solutions of the same one-entry diagonal system are computed in the residue
ring, with the inverse read off the ``Poly.xgcd`` cofactor, and certified
sigma-fixed.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb, lcm
from typing import Optional

from .arith.cyclo import CycloField, CycloNum
from .arith.poly import Poly, RatFunc, RatFuncField
from .base import DiffField, lift_ratfunc
from .engine import (
    PVPresentation,
    build_pv_diagonal,
    build_pv_unipotent,
    check_simple,
)
from .errors import (
    InternalInvariantError,
    NotConstant,
    NotFundamental,
    ShapeMismatch,
    UnsupportedShape,
    UnsupportedSubstitutionShape,
)
from .laurent import LaurentPoly
from .snf import invariant_factors

SIMPLICITY_RECHECK_BOUND = 6


# ---------------------------------------------------------------------------
# descriptors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstantsExtensionDesc:
    """A constants-field extension: a root of unity or new transcendentals."""

    kind: str  # "root-of-unity" | "transcendental"
    amount: int

    def __post_init__(self):
        if self.kind not in ("root-of-unity", "transcendental"):
            raise ValueError(f"unknown extension kind {self.kind!r}")
        if self.amount < 1:
            raise ValueError("extension amount must be a positive integer")

    @classmethod
    def adjoin_root_of_unity(cls, order: int) -> "ConstantsExtensionDesc":
        return cls("root-of-unity", order)

    @classmethod
    def adjoin_transcendental(cls, count: int) -> "ConstantsExtensionDesc":
        return cls("transcendental", count)

    def describe(self) -> str:
        if self.kind == "root-of-unity":
            return f"adjoin a primitive root of unity of order {self.amount}"
        plural = "s" if self.amount != 1 else ""
        return f"adjoin {self.amount} transcendental constant{plural}"


@dataclass(frozen=True, eq=False)
class GroupDesc:
    """Structure of the stabilizer group of a presented solution ring.

    ``coordinate_ideal`` carries the explicit equations in the X variables
    when the substitution is supported, None otherwise; equality of two
    descriptions compares coefficient values across constant fields, so a
    description is unchanged by pure base change.
    ``constants_extension_trivial`` reports whether the presentation needed
    no constants extension beyond the declared field; when it is False the
    lattice-based identification is reported but not certified to agree
    with the points-based one.
    """

    torus_rank: int
    finite_orders: tuple
    unipotent_dim: int
    coordinate_ideal: Optional[tuple]
    coordinate_vars: tuple
    defined_over_conductor: int
    constants_extension_trivial: bool = True

    @property
    def dimension(self) -> int:
        return self.torus_rank + self.unipotent_dim

    def describe(self) -> str:
        parts = []
        if self.torus_rank:
            parts.append(f"torus of rank {self.torus_rank}")
        if self.finite_orders:
            cyclics = " x ".join(f"Z/{d}" for d in self.finite_orders)
            parts.append(f"finite part {cyclics}")
        if self.unipotent_dim:
            parts.append("additive group of dimension 1")
        return " times ".join(parts) if parts else "trivial group"

    def __eq__(self, other):
        if not isinstance(other, GroupDesc):
            return NotImplemented
        if (self.torus_rank, self.finite_orders, self.unipotent_dim,
                self.coordinate_vars, self.defined_over_conductor,
                self.constants_extension_trivial) != (
                other.torus_rank, other.finite_orders, other.unipotent_dim,
                other.coordinate_vars, other.defined_over_conductor,
                other.constants_extension_trivial):
            return False
        return _coordinate_ideals_equal(self.coordinate_ideal,
                                        other.coordinate_ideal)

    __hash__ = None


def _unwrap_constant(v):
    while isinstance(v, RatFunc) and v.is_const():
        v = v.const_value()
    return v


def _constant_values_equal(a, b) -> bool:
    a = _unwrap_constant(a)
    b = _unwrap_constant(b)
    if isinstance(a, CycloNum) and isinstance(b, CycloNum):
        return (a - b).is_zero()
    if type(a) is not type(b):
        return False
    return a == b


def _coordinate_ideals_equal(a, b) -> bool:
    if (a is None) != (b is None):
        return False
    if a is None:
        return True
    if len(a) != len(b):
        return False
    for ga, gb in zip(a, b):
        if sorted(ga.terms) != sorted(gb.terms):
            return False
        for exps, ca in ga.terms.items():
            if not _constant_values_equal(ca.const_value() if ca.is_const() else ca,
                                          gb.terms[exps].const_value()
                                          if gb.terms[exps].is_const()
                                          else gb.terms[exps]):
                return False
    return True


def _value_conductor(v) -> int:
    v = _unwrap_constant(v)
    if isinstance(v, CycloNum):
        return 1 if v.is_rational() else v.conductor
    if isinstance(v, RatFunc):
        n = 1
        for c in list(v.num.coeffs) + list(v.den.coeffs):
            n = lcm(n, _value_conductor(c))
        return n
    return 1


def _ideal_conductor(gens) -> int:
    n = 1
    for g in gens or ():
        for c in g.terms.values():
            n = lcm(n, _value_conductor(c))
    return n


# ---------------------------------------------------------------------------
# coordinate equations of the stabilizer
# ---------------------------------------------------------------------------

def _expand_slots(k: DiffField, x_terms: dict) -> list:
    """Expand a family {X-exponent: k-coefficient} over a constants basis of
    k: clear to a common denominator, then read one X-relation off each
    power of the base variable.  Returns a list of term dicts with constant
    coefficients embedded back into k."""
    field = k.k_field
    inner = field.inner
    den = Poly.one(inner)
    for h in x_terms.values():
        g = den.gcd(h.den)
        den = den * h.den.exact_div(g)
    nums = {w: h.num * den.exact_div(h.den) for w, h in x_terms.items()}
    top = max(n.degree() for n in nums.values())
    out = []
    for d in range(top + 1):
        slot = {}
        for w, n in nums.items():
            c = n.nth(d)
            if not c.is_zero():
                slot[w] = field.coerce(c)
        if slot:
            out.append(slot)
    return out


def _canonical_equation(field, nvars: int, slot: dict) -> LaurentPoly:
    lead = max(slot)
    c = slot[lead]
    return LaurentPoly(field, nvars, {w: v / c for w, v in slot.items()})


def _multiplicative_substitution(p: PVPresentation) -> list:
    """Per generator of a binomial ideal: substitute Y_i -> Y_i X_i, reduce
    the Y part, and return {Y-residue: {X-exponent: coefficient}} maps."""
    ideal = p.ideal
    field = p.field.k_field
    n = ideal.nvars
    per_gen = []
    for gen in ideal.generators:
        acc: dict = {}
        for w, c in gen.terms.items():
            reduced = ideal.normal_form(LaurentPoly.monomial(field, n, w, c))
            for yr, cr in reduced.terms.items():
                key = (yr, w)
                acc[key] = acc.get(key, field.zero) + cr
        by_res: dict = {}
        for (yr, w), cc in acc.items():
            if not cc.is_zero():
                by_res.setdefault(yr, {})[w] = cc
        per_gen.append(by_res)
    return per_gen


def _unipotent_substitution(p: PVPresentation) -> list:
    """The triangular substitution sends the matrix M = [[Y11, Y12], [0, Y22]]
    to M*X with X = [[X11, X12], [0, X22]]; entrywise that is
    Y11 -> Y11*X11, Y12 -> Y11*X12 + Y12*X22, Y22 -> Y22*X22."""
    ideal = p.ideal
    field = p.field.k_field
    per_gen = []
    for gen in ideal.generators:
        per_x: dict = {}
        for (i, j, l), c in gen.terms.items():
            if min(i, j, l) < 0:
                raise UnsupportedSubstitutionShape(
                    "triangular substitution needs polynomial exponents")
            for t in range(j + 1):
                coeff = c * field.coerce(comb(j, t))
                y = (i + t, j - t, l)
                xv = (i, t, (j - t) + l)
                mono = LaurentPoly.monomial(field, 3, y, coeff)
                per_x[xv] = per_x.get(xv, LaurentPoly.zero(field, 3)) + mono
        by_res: dict = {}
        for xv, poly in per_x.items():
            reduced = ideal.normal_form(poly)
            for yr, cr in reduced.terms.items():
                by_res.setdefault(yr, {})[xv] = (
                    by_res.get(yr, {}).get(xv, field.zero) + cr)
        for yr in list(by_res):
            by_res[yr] = {w: cc for w, cc in by_res[yr].items()
                          if not cc.is_zero()}
            if not by_res[yr]:
                del by_res[yr]
        per_gen.append(by_res)
    return per_gen


def coordinate_var_names(p: PVPresentation) -> tuple:
    if p.system.shape == "unipotent2":
        return ("X11", "X12", "X22")
    n = p.ideal.nvars
    if n == 1:
        return ("X",)
    return tuple(f"X{i + 1}" for i in range(n))


def functor_ideal(p: PVPresentation) -> tuple:
    """Equations over the constants cutting out the stabilizer coordinates.

    Substitutes Y -> Y*X into each ideal generator, reduces the Y part to
    normal form, and expands the coefficients over a constants basis; the
    X-polynomials that appear generate the returned ideal (deduplicated,
    each normalized to leading coefficient 1, deterministically ordered).
    An empty tuple means the zero ideal (the full group of the shape).
    """
    shape = p.system.shape
    if shape == "diagonal":
        if p.ideal.characters is None:
            raise UnsupportedSubstitutionShape(
                "presentation carries no reduction data for the substitution")
        per_gen = _multiplicative_substitution(p)
        nvars = p.ideal.nvars
    elif shape == "unipotent2":
        per_gen = _unipotent_substitution(p)
        nvars = 3
    else:
        raise UnsupportedSubstitutionShape(
            f"no substitution rule for shape {shape!r}")
    field = p.field.k_field
    names = coordinate_var_names(p)
    seen = {}
    for by_res in per_gen:
        for x_terms in by_res.values():
            for slot in _expand_slots(p.field, x_terms):
                eq = _canonical_equation(field, nvars, slot)
                seen.setdefault(eq.format(names), eq)
    return tuple(seen[key] for key in sorted(seen))


def evaluate_coordinate_point(k: DiffField, gens, values) -> list:
    """Plug constant values into coordinate equations; zero residues mean
    the point lies in the group.  Roots of unity finer than the coefficient
    field are accommodated by enlarging the scalars first."""
    need = k.constants_conductor
    for v in values:
        if isinstance(v, CycloNum):
            need = lcm(need, v.conductor)
    if need != k.constants_conductor:
        k = extend_field(k, ConstantsExtensionDesc.adjoin_root_of_unity(need))
        gens = [_lift_laurent(g, k) for g in gens]
    vals = [k.coerce(v) for v in values]
    out = []
    for g in gens:
        acc = k.zero()
        for exps, c in g.terms.items():
            term = c
            for v, e in zip(vals, exps):
                term = term * v ** e
            acc = acc + term
        out.append(acc)
    return out


# ---------------------------------------------------------------------------
# identification
# ---------------------------------------------------------------------------

def identify_group(p: PVPresentation) -> GroupDesc:
    """Read the group structure off the presentation.

    The relation lattice delivers the torus rank (corank) and the finite
    cyclic part (Smith invariant factors above 1); an unsolved triangular
    corner contributes one additive dimension.  The computed dimension is
    asserted equal to the presentation's Krull dimension, and the
    coordinate equations are attached whenever the substitution applies.
    """
    if p.system.shape == "unipotent2":
        torus_rank = 0
        orders: tuple = ()
        unipotent_dim = p.krull_dim
    else:
        rows = p.lattice.vectors()
        n = p.ideal.nvars
        torus_rank = n - len(rows)
        orders = tuple(d for d in invariant_factors(rows) if d > 1)
        unipotent_dim = 0
    if torus_rank + unipotent_dim != p.krull_dim:
        raise InternalInvariantError(
            "group dimension disagrees with the Krull dimension",
            torus_rank=torus_rank, unipotent_dim=unipotent_dim,
            krull_dim=p.krull_dim)
    try:
        coords: Optional[tuple] = functor_ideal(p)
    except UnsupportedSubstitutionShape:
        coords = None
    return GroupDesc(
        torus_rank=torus_rank,
        finite_orders=orders,
        unipotent_dim=unipotent_dim,
        coordinate_ideal=coords,
        coordinate_vars=coordinate_var_names(p),
        defined_over_conductor=_ideal_conductor(coords),
        constants_extension_trivial=(p.constants_ext_degree == 1),
    )


# ---------------------------------------------------------------------------
# base change of the constants
# ---------------------------------------------------------------------------

def _enlarged_constants(constants, ext: ConstantsExtensionDesc, reserved):
    if ext.kind == "root-of-unity":
        def bump(c):
            if isinstance(c, RatFuncField):
                return RatFuncField(bump(c.inner), c.var)
            return CycloField(lcm(c.conductor, ext.amount))
        return bump(constants)
    used = set(reserved)
    c = constants
    while isinstance(c, RatFuncField):
        used.add(c.var)
        c = c.inner
    out = constants
    added = 0
    i = 1
    while added < ext.amount:
        name = f"t{i}"
        i += 1
        if name in used:
            continue
        out = RatFuncField(out, name)
        used.add(name)
        added += 1
    return out


def extend_field(k: DiffField, ext: ConstantsExtensionDesc) -> DiffField:
    """The same difference field over the enlarged constants."""
    new_constants = _enlarged_constants(k.constants, ext, {k.var})
    return DiffField(k.sigma, new_constants, k.var)


def _lift_laurent(poly: LaurentPoly, new_k: DiffField) -> LaurentPoly:
    inner = new_k.k_field.inner
    return LaurentPoly(new_k.k_field, poly.nvars,
                       {w: lift_ratfunc(c, inner) for w, c in poly.terms.items()})


def base_change(p: PVPresentation, ext: ConstantsExtensionDesc) -> PVPresentation:
    """Rebuild the presentation over the extended constants.

    Solvability of every search the build runs is stable under constants
    extension (gcds, dispersions, and linear ranks do not change), so the
    rebuilt generator set must be the coefficientwise lift of the old one;
    that is asserted, and the simplicity scan is re-run up to
    SIMPLICITY_RECHECK_BOUND (it covers only the shells beyond the rebuilt
    lattice's ``complete_radius``).
    """
    new_k = extend_field(p.field, ext)
    inner = new_k.k_field.inner
    entries = [lift_ratfunc(e, inner) for e in p.system.entries]
    shape = p.system.shape
    if shape == "diagonal":
        new_p = build_pv_diagonal(new_k, entries, m_max=p.search_bound)
    elif shape == "unipotent2":
        new_p = build_pv_unipotent(new_k, entries[0], m_max=p.search_bound)
    else:
        raise UnsupportedShape(f"no base-change rule for shape {shape!r}")
    old_gens = sorted(
        _lift_laurent(g, new_k).format(p.ideal.var_names)
        for g in p.ideal.generators)
    new_gens = sorted(g.format(new_p.ideal.var_names)
                      for g in new_p.ideal.generators)
    if old_gens != new_gens:
        raise InternalInvariantError(
            "base change altered the generator set",
            before=old_gens, after=new_gens)
    if shape == "diagonal":
        if not check_simple(new_p, SIMPLICITY_RECHECK_BOUND):
            raise InternalInvariantError(
                "base change exposed a missed relation")
    return new_p


def group_transport_check(p: PVPresentation, ext: ConstantsExtensionDesc,
                          changed: PVPresentation) -> bool:
    """True iff the coordinate equations over the extended constants are the
    coefficientwise lift of the original ones, equation by equation.

    ``changed`` is required: it is ``base_change(p, ext)``, built once by
    the caller, and the check never rebuilds it.  A ``changed`` over any
    field other than ``p``'s field extended by ``ext`` is a ValueError.
    """
    if changed.field != extend_field(p.field, ext):
        raise ValueError("changed is not a base change of p by ext")
    old = functor_ideal(p)
    new = functor_ideal(changed)
    names = coordinate_var_names(p)
    lifted = sorted((_lift_laurent(g, changed.field) for g in old),
                    key=lambda g: g.format(names))
    fresh = sorted(new, key=lambda g: g.format(names))
    if len(lifted) != len(fresh):
        return False
    return all(a == b for a, b in zip(lifted, fresh))


# ---------------------------------------------------------------------------
# connection matrices and weak comparisons
# ---------------------------------------------------------------------------

def connection_matrix_check(p: PVPresentation, u_exp: LaurentPoly,
                            v_exp: LaurentPoly) -> LaurentPoly:
    """The constant relating two fundamental solutions of a one-entry
    diagonal system.

    Both residues are normalized, v is inverted in the residue ring, and
    u * v^{-1} is certified sigma-fixed.  Raises NotFundamental when v is
    not a unit (zero, a zero divisor against the modulus, or a non-monomial
    in the free ring) and NotConstant when the ratio moves under sigma.
    """
    if p.system.nvars != 1:
        raise UnsupportedShape(
            "connection matrices are computed for scalar presentations")
    ideal = p.ideal
    field = p.field.k_field
    u = ideal.normal_form(u_exp)
    v = ideal.normal_form(v_exp)
    if u.is_zero() or v.is_zero():
        raise NotFundamental("a fundamental solution must be a unit; got zero")
    rows = p.lattice.vectors()
    if not rows:
        if len(v.terms) != 1:
            raise NotFundamental(
                "not a unit in the free solution ring",
                offender=v.format(ideal.var_names))
        ((e,), c), = v.terms.items()
        v_inv = LaurentPoly.monomial(field, 1, (-e,), field.one / c)
    else:
        m = rows[0][0]
        g = p.lattice.rows[0][1]
        modulus = Poly(field, [-g] + [field.zero] * (m - 1) + [field.one])
        coeffs = [field.zero] * m
        for (e,), c in v.terms.items():
            if not 0 <= e < m:
                raise InternalInvariantError("residue exponent out of range")
            coeffs[e] = c
        common, inv, _ = Poly(field, coeffs).xgcd(modulus)
        if common.degree() > 0:
            raise NotFundamental(
                "shares a factor with the presentation modulus",
                factor=LaurentPoly(
                    field, 1,
                    {(i,): c for i, c in enumerate(common.coeffs)}).format(
                        ideal.var_names))
        v_inv = LaurentPoly(field, 1,
                            {(i,): c for i, c in enumerate(inv.coeffs)})
    ratio = ideal.normal_form(u * v_inv)
    moved = ideal.normal_form(ideal.sigma_image(ratio))
    if moved != ratio:
        raise NotConstant(
            "connection entry is not sigma-fixed",
            entry="(1, 1)", value=ratio.format(ideal.var_names))
    return ratio


def weak_pv_compare(p: PVPresentation, other: PVPresentation) -> bool:
    """Whether two presentations of the same shape have the same group
    structure, comparing across constant-field enlargements."""
    if p.system.shape != other.system.shape:
        raise ShapeMismatch(
            f"cannot compare shapes {p.system.shape!r} and {other.system.shape!r}")
    if p.ideal.nvars != other.ideal.nvars:
        raise ShapeMismatch("presentations have different variable counts")
    ga = identify_group(p)
    gb = identify_group(other)
    return (ga.torus_rank == gb.torus_rank
            and ga.finite_orders == gb.finite_orders
            and ga.unipotent_dim == gb.unipotent_dim)
