"""Matrix-group identification and transport for presented solution rings.

The automorphisms of a solution ring that commute with sigma and fix the base
field act on a fundamental solution by right multiplication, Y -> Y*X.  The
entries of X that actually occur are cut out by explicit equations over the
constants.  For the binomial ideals produced by the engine the substitution
sends each generator Y^v - w, v a Hermite row, to w (X^v - 1), so the
equations are X^v - 1 over the rows, read on exponent vectors with a coset
certificate per row and no normal form.  For the triangular shape the
generators Y11 - 1, Y22 - 1 and, with a rational corner solution f,
Y12 - f Y11 give X11 - 1, X22 - 1 and X12, read off the certified
generators; the dense substitution is a test oracle.

The group itself is read off the relation lattice: the Smith factors the
build already computed give the finite cyclic part, the corank gives the
torus rank, and an unsolved triangular corner contributes one additive
dimension.  Base change of the constants (a larger cyclotomic field, or
adjoined transcendental constants) rebuilds the presentation once, or not
at all when the extension adds no constants; the transport check takes
that presentation and confirms, comparing values, that the coordinate
equations only change by coefficient extension.  Connection matrices
between two fundamental solutions of the same one-entry diagonal system
are computed in the residue ring, with the inverse read off the
``Poly.xgcd`` cofactor, and certified sigma-fixed.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .arith.cyclo import CycloField, CycloNum
from .arith.poly import Poly, RatFunc, RatFuncField
from .base import DiffField, lift_ratfunc
from .engine import (
    PVPresentation,
    build_pv_diagonal,
    build_pv_unipotent,
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

    ``coordinate_ideal`` carries the explicit equations in the X variables,
    canonical for both shapes, so equal groups have equal ideals; equality
    of two descriptions compares coefficient values across constant
    fields, so a description is unchanged by pure base change.
    """

    torus_rank: int
    finite_orders: tuple
    unipotent_dim: int
    coordinate_ideal: tuple
    coordinate_vars: tuple
    defined_over_conductor: int

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
                self.coordinate_vars, self.defined_over_conductor) != (
                other.torus_rank, other.finite_orders, other.unipotent_dim,
                other.coordinate_vars, other.defined_over_conductor):
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
    if len(a) != len(b):
        return False
    for ga, gb in zip(a, b):
        if sorted(ga.terms) != sorted(gb.terms):
            return False
        for exps, ca in ga.terms.items():
            if not _constant_values_equal(ca, gb.terms[exps]):
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
    for g in gens:
        for c in g.terms.values():
            n = lcm(n, _value_conductor(c))
    return n


# ---------------------------------------------------------------------------
# coordinate equations of the stabilizer
# ---------------------------------------------------------------------------

def _diagonal_equations(p: PVPresentation) -> list:
    """X^v - 1 per Hermite row v of the binomial ideal, read on exponent
    vectors.  Substituting Y -> Y*X into Y^v - w gives w X^v Y^v - w, and
    Y^v reduces to w exactly when v is its own coset, (e_r, 0) for row r,
    so the equation is w (X^v - 1): w is never read.  Each row is certified
    to be its own coset and to lead with a positive entry (so X^v is the
    leading term), and its generator to have support {v, 0}."""
    ideal = p.ideal
    nf = ideal._nf
    field = p.field.k_field
    nvars = ideal.nvars
    zero = (0,) * nvars
    if len(ideal.generators) != len(nf.rows):
        raise InternalInvariantError(
            "generators do not match the lattice rows",
            generators=len(ideal.generators), rows=len(nf.rows))
    one, minus_one = field.one, -field.one
    out = []
    for r, (gen, (v, _)) in enumerate(zip(ideal.generators, nf.rows)):
        coeffs, res = nf.coset(v)
        if any(res) or any(c != (i == r) for i, c in enumerate(coeffs)):
            raise InternalInvariantError(
                "lattice row is not its own coset", row=v, coset=coeffs,
                residue=res)
        if not v > zero:
            raise InternalInvariantError(
                "lattice row does not lead with a positive entry", row=v)
        if gen.terms.keys() != {v, zero}:
            raise InternalInvariantError(
                "generator is not the binomial of its row", row=v,
                support=sorted(gen.terms))
        out.append(LaurentPoly._trusted(field, nvars,
                                        {v: one, zero: minus_one}))
    return out


def _unipotent_equations(p: PVPresentation) -> list:
    """X11 - 1, X22 - 1 and, when the corner is solved, X12.  Substituting
    Y -> Y*X sends Y11 - 1 and Y22 - 1 to X11 - 1 and X22 - 1, and
    Y12 - f Y11 to X12 + f (X22 - X11) after reduction.  f is 0 or not
    constant, so the slots of that equation over a constants basis span
    X12 and X22 - X11.  Certified: the generators are, by value, those
    ``SigmaIdeal.from_unipotent`` makes for the presentation's solution,
    the ideal's corner holds that solution, and it is 0 or not constant;
    the generators and the solution are only compared, never reduced."""
    ideal = p.ideal
    field = p.field.k_field
    f = p.unipotent_solution
    one, minus_one = field.one, -field.one
    x11 = {(1, 0, 0): one, (0, 0, 0): minus_one}
    x22 = {(0, 0, 1): one, (0, 0, 0): minus_one}
    x12 = {(0, 1, 0): one}
    made = [x11, x22]
    if f is not None:
        # Y12 - f Y11, whose Y11 term drops for f = 0
        made.insert(0, {**x12, (1, 0, 0): -f} if f else x12)
    if [g.terms for g in ideal.generators] != made:
        raise InternalInvariantError(
            "generators are not those of the corner solution",
            generators=[g.format(ideal.var_names) for g in ideal.generators])
    stored = None if ideal._corner is None else ideal._corner[1]
    if (stored is None) != (f is None) or (f is not None and stored != f):
        raise InternalInvariantError(
            "the ideal's corner solution is not the presentation's")
    if f and f.is_const():
        raise InternalInvariantError(
            "corner solution is a nonzero constant", solution=f)
    eqs = [x11, x22] if f is None else [x11, x22, x12]
    return [LaurentPoly._trusted(field, 3, t) for t in eqs]


def coordinate_var_names(p: PVPresentation) -> tuple:
    """The presentation's own variable names with Y read as X."""
    return tuple("X" + name[1:] for name in p.ideal.var_names)


def functor_ideal(p: PVPresentation) -> tuple:
    """Equations over the constants cutting out the stabilizer coordinates.

    For the diagonal shape every generator Y^v - w, v a Hermite row,
    substitutes to w (X^v - 1), so the ideal is read on exponent vectors:
    X^v - 1 per row, each row certified to be its own coset
    (InternalInvariantError otherwise); no normal form is taken and no
    witness expanded.  An ideal with no characters is a hand-built one
    the substitution does not read (UnsupportedSubstitutionShape).

    For the triangular shape the generators are those of the corner
    solution f, and the ideal is read off them: X11 - 1, X22 - 1 and, when
    the corner is solved, X12, after certifying the generators and f
    (InternalInvariantError otherwise); no normal form is taken and no
    rational function computed.  Equal groups thus get equal ideals.

    Two or more equations are ordered by their printed form, the only use
    of printing here.  An empty tuple means the zero ideal (the full group
    of the shape).  The dense substitution for both shapes is a test
    oracle (``tests/dense_functor.py``).
    """
    shape = p.system.shape
    if shape == "diagonal":
        if p.ideal.characters is None:
            raise UnsupportedSubstitutionShape(
                "presentation carries no reduction data for the substitution")
        kept = _diagonal_equations(p)
    elif shape == "unipotent2":
        kept = _unipotent_equations(p)
    else:
        raise UnsupportedSubstitutionShape(
            f"no substitution rule for shape {shape!r}")
    if len(kept) > 1:
        names = coordinate_var_names(p)
        kept.sort(key=lambda g: g.format(names))
    return tuple(kept)


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

def _structure(p: PVPresentation) -> tuple:
    """(torus_rank, finite_orders, unipotent_dim) of the group, checked
    against the build; no coordinate equations are computed."""
    if p.system.shape == "unipotent2":
        torus_rank = 0
        orders: tuple = ()
        unipotent_dim = p.krull_dim
    else:
        if len(p.factors) != p.lattice.rank():
            raise InternalInvariantError(
                "cyclic factors do not match the relation lattice",
                factors=len(p.factors), rank=p.lattice.rank())
        torus_rank = p.ideal.nvars - p.lattice.rank()
        orders = tuple(f.order for f in p.factors if f.order > 1)
        unipotent_dim = 0
    if torus_rank + unipotent_dim != p.krull_dim:
        raise InternalInvariantError(
            "group dimension disagrees with the Krull dimension",
            torus_rank=torus_rank, unipotent_dim=unipotent_dim,
            krull_dim=p.krull_dim)
    return torus_rank, orders, unipotent_dim


def identify_group(p: PVPresentation) -> GroupDesc:
    """Read the group structure off the presentation.

    The torus rank is the corank of the relation lattice, and the finite
    cyclic part is read off ``p.factors``, the Smith pass the build made
    and certified (orders above 1); no Smith form is run again.  A
    presentation whose factors do not match its lattice rank raises
    InternalInvariantError rather than lose its finite part.  An unsolved
    triangular corner contributes one additive dimension.  The computed
    dimension is asserted equal to the presentation's Krull dimension, and
    the coordinate equations are attached; a presentation made by hand
    that the substitution cannot read raises UnsupportedSubstitutionShape.
    """
    torus_rank, orders, unipotent_dim = _structure(p)
    coords = functor_ideal(p)
    return GroupDesc(
        torus_rank=torus_rank,
        finite_orders=orders,
        unipotent_dim=unipotent_dim,
        coordinate_ideal=coords,
        coordinate_vars=coordinate_var_names(p),
        defined_over_conductor=_ideal_conductor(coords),
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
    that is asserted, and it pins the rebuilt lattice.  An extension that
    adds no constants (a root of unity the constants already hold) returns
    ``p`` itself: the build is deterministic, so a rebuild over the same
    field would only repeat it.
    """
    new_k = extend_field(p.field, ext)
    if new_k == p.field:
        return p
    inner = new_k.k_field.inner
    entries = [lift_ratfunc(e, inner) for e in p.system.entries]
    shape = p.system.shape
    if shape == "diagonal":
        new_p = build_pv_diagonal(new_k, entries, m_max=p.search_bound)
    elif shape == "unipotent2":
        new_p = build_pv_unipotent(new_k, entries[0], m_max=p.search_bound)
    else:
        raise UnsupportedShape(f"no base-change rule for shape {shape!r}")
    old, names = p.ideal.generators, p.ideal.var_names
    if not _transported(old, new_p.ideal.generators, new_k):
        raise InternalInvariantError(
            "base change altered the generator set",
            before=sorted(_lift_laurent(g, new_k).format(names) for g in old),
            after=sorted(g.format(names) for g in new_p.ideal.generators))
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
    return _transported(functor_ideal(p), functor_ideal(changed),
                        changed.field)


def _transported(old, new, new_k: DiffField) -> bool:
    """True iff the equations ``new`` over ``new_k`` are the lifts of
    ``old`` as a multiset, in any order: each lift is paired with an equal
    fresh equation, which is then used up."""
    fresh = list(new)
    if len(fresh) != len(old):
        return False
    for g in old:
        lifted = _lift_laurent(g, new_k)
        for i, h in enumerate(fresh):
            if h == lifted:
                del fresh[i]
                break
        else:
            return False
    return True


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
    structure, comparing across constant-field enlargements.  Only the
    torus rank, the finite orders and the unipotent dimension are read;
    no coordinate equations are computed."""
    if p.system.shape != other.system.shape:
        raise ShapeMismatch(
            f"cannot compare shapes {p.system.shape!r} and {other.system.shape!r}")
    if p.ideal.nvars != other.ideal.nvars:
        raise ShapeMismatch("presentations have different variable counts")
    return _structure(p) == _structure(other)
