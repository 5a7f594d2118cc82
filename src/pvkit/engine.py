"""Universal solution rings for linear difference systems and their
invariants.

For a diagonal system sigma(Y_i) = a_i Y_i (a scalar equation is the
one-entry case) the solution ring is the Laurent-monomial quotient

    k[Y_1^{+-1}, ..., Y_n^{+-1}] / (Y^v - g_v : v a relation vector)

where the relation lattice collects every exponent vector v for which
prod a_i^{v_i} is a sigma-quotient, and g_v is the quotient witness with
monic numerator.  On top of the presentation the engine computes three
numbers:

* ``ell``: how many orbit components the ring splits into.  Detected by
  extracting an exact root of each relation witness; whenever a witness
  g = h^d splits, the marker a^{m/d} h / sigma(h) is a primitive d-th root
  of unity and the component idempotents can be written down explicitly.
* ``m_inv``: the degree over the constants of the field of elements with
  finite sigma-orbit inside the total quotient ring.  Detected by an
  independent search: the least stride s (running over s = order/t) along
  which a power of the telescoped product sigma^{s-1}(a)...a is itself a
  quotient.  Both detection routes are cross-asserted against each other.
* ``krull_dim``: variables minus relation-lattice rank, plus one for an
  upper-triangular corner whose telescoping sum has no rational solution.

The two transport maps at the bottom (``ideal_extend``/``ideal_contract``)
move constant-coefficient ideals between constant fields: contraction
rewrites a sigma-stable span over k into generators with coefficients in
the constants by repeatedly subtracting sigma-images, which provably
shrinks supports; extension is the coefficientwise inclusion.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional

from .arith.poly import RatFunc
from .base import DiffField, apply_sigma, apply_sigma_power, is_constant
from .errors import (
    InternalInvariantError,
    NoExplicitIdempotents,
    NotSigmaStable,
    UnsupportedShape,
    ZeroInput,
)
from .laurent import BinomialNF, LaurentPoly
from .snf import smith_normal_form, unimodular_inverse
from .solve import (
    LatticeBasis,
    _combine_witnesses,
    _entry_power,
    _hermite_rows,
    _sup_norm_shell,
    relation_lattice,
    solve_add,
    solve_mult,
    torsion_order,
)

__all__ = [
    "DiffSystem",
    "SigmaIdeal",
    "PVPresentation",
    "Component",
    "ContractResult",
    "build_pv_scalar",
    "build_pv_diagonal",
    "build_pv_unipotent",
    "compute_ell",
    "compute_m",
    "decompose",
    "check_simple",
    "ideal_extend",
    "ideal_contract",
]

DEFAULT_SEARCH_BOUND = 12


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _prime_divisors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# systems


@dataclass(frozen=True, eq=False)
class DiffSystem:
    """A linear difference system sigma(Y) = A Y in a supported shape."""

    field: DiffField
    shape: str  # "diagonal" (one entry: a scalar equation) | "unipotent2"
    entries: tuple  # diagonal entries, or the single corner entry

    @classmethod
    def diagonal(cls, k: DiffField, entries) -> "DiffSystem":
        coerced = tuple(k.coerce(e) for e in entries)
        if not coerced:
            raise ZeroInput("diagonal system needs at least one entry")
        if any(e.is_zero() for e in coerced):
            raise ZeroInput("diagonal system entries must be invertible")
        return cls(k, "diagonal", coerced)

    @classmethod
    def unipotent2(cls, k: DiffField, b) -> "DiffSystem":
        return cls(k, "unipotent2", (k.coerce(b),))

    @property
    def nvars(self) -> int:
        if self.shape == "unipotent2":
            return 3
        return len(self.entries)

    def var_names(self) -> tuple:
        if self.shape == "unipotent2":
            return ("Y11", "Y12", "Y22")
        if len(self.entries) == 1:
            return ("Y",)
        return tuple(f"Y{i + 1}" for i in range(len(self.entries)))

    def matrix(self) -> list:
        k = self.field
        if self.shape == "unipotent2":
            return [[k.one(), self.entries[0]], [k.zero(), k.one()]]
        n = len(self.entries)
        return [[self.entries[i] if i == j else k.zero() for j in range(n)]
                for i in range(n)]


def _mat_mul(rows_a, rows_b):
    n, mid, m = len(rows_a), len(rows_b), len(rows_b[0])
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = rows_a[i][0] * rows_b[0][j]
            for t in range(1, mid):
                acc = acc + rows_a[i][t] * rows_b[t][j]
            row.append(acc)
        out.append(row)
    return out


def _iterated_step_matrix(k: DiffField, rows, count: int):
    """sigma^{count-1}(A) ... sigma(A) A as an explicit matrix."""
    acc = rows
    for j in range(1, count):
        shifted = [[apply_sigma_power(k, e, j) for e in row] for row in rows]
        acc = _mat_mul(shifted, acc)
    return acc


# ---------------------------------------------------------------------------
# sigma-stable ideals


@dataclass(eq=False)
class SigmaIdeal:
    """A sigma-stable ideal presenting the solution ring.

    For the diagonal shape the data is an exponent lattice with
    witnesses and reduction is binomial rewriting; for the 2x2 unipotent
    shape reduction substitutes the pinned diagonal (and the solved corner
    when the telescoping sum has a rational solution).
    """

    field: DiffField
    shape: str
    var_names: tuple
    generators: tuple
    characters: Optional[tuple] = None
    _nf: Optional[BinomialNF] = None
    _corner: Optional[tuple] = None  # (b, solution or None)

    @property
    def nvars(self) -> int:
        return len(self.var_names)

    @classmethod
    def from_lattice(cls, k: DiffField, characters, rows, var_names) -> "SigmaIdeal":
        characters = tuple(k.coerce(c) for c in characters)
        nvars = len(var_names)
        field = k.k_field
        nf = BinomialNF(field, nvars, list(rows))
        gens = []
        for vec, witness in rows:
            gens.append(LaurentPoly.monomial(field, nvars, vec)
                        - LaurentPoly.const(field, nvars, witness))
        ideal = cls(k, "diagonal", tuple(var_names), tuple(gens), characters,
                    nf, None)
        nf.assert_sigma_stable(k, characters, gens)
        return ideal

    @classmethod
    def from_unipotent(cls, k: DiffField, b: RatFunc, solution) -> "SigmaIdeal":
        field = k.k_field
        names = ("Y11", "Y12", "Y22")
        y11 = LaurentPoly.variable(field, 3, 0)
        y12 = LaurentPoly.variable(field, 3, 1)
        y22 = LaurentPoly.variable(field, 3, 2)
        if solution is None:
            gens = (y11 - 1, y22 - 1)
        else:
            gens = (y12 - LaurentPoly.const(field, 3, solution) * y11,
                    y11 - 1, y22 - 1)
        ideal = cls(k, "unipotent2", names, gens, None, None, (b, solution))
        for g in gens:
            if not ideal.normal_form(ideal.sigma_image(g)).is_zero():
                raise InternalInvariantError(
                    "unipotent ideal is not sigma-stable")
        return ideal

    def sigma_image(self, p: LaurentPoly) -> LaurentPoly:
        if self.shape == "unipotent2":
            return _unipotent_sigma(self.field, self._corner[0], p)
        return p.sigma_image(self.field, self.characters)

    def normal_form(self, p: LaurentPoly) -> LaurentPoly:
        if self.shape == "unipotent2":
            return _unipotent_normal_form(self.field, self._corner[1], p)
        return self._nf.reduce(p)

    def contains(self, p: LaurentPoly) -> bool:
        return self.normal_form(p).is_zero()


def _unipotent_sigma(k: DiffField, b: RatFunc, p: LaurentPoly) -> LaurentPoly:
    """sigma on k[Y11, Y12, Y22] with sigma(Y12) = Y12 + b Y22."""
    field = p.field
    out = LaurentPoly.zero(field, 3)
    y12 = LaurentPoly.variable(field, 3, 1)
    y22mono = LaurentPoly.monomial(field, 3, (0, 0, 1), b)
    for exps in p.support():
        i, j, l = exps
        if j < 0:
            raise InternalInvariantError(
                "negative corner exponent under the unipotent action")
        coeff = apply_sigma(k, p.coeff(exps))
        term = LaurentPoly.monomial(field, 3, (i, 0, l), coeff)
        out = out + term * (y12 + y22mono) ** j
    return out


def _unipotent_normal_form(k: DiffField, solution, p: LaurentPoly) -> LaurentPoly:
    """Substitute Y11 -> 1, Y22 -> 1 and, when solved, Y12 -> the solution."""
    field = p.field
    out = LaurentPoly.zero(field, 3)
    for exps in p.support():
        _, j, _ = exps
        coeff = p.coeff(exps)
        if solution is None:
            out = out + LaurentPoly.monomial(field, 3, (0, j, 0), coeff)
            continue
        if j < 0:
            raise InternalInvariantError(
                "negative corner exponent in the solved unipotent quotient")
        out = out + LaurentPoly.const(field, 3, coeff * solution ** j)
    return out


# ---------------------------------------------------------------------------
# cyclic factor analysis


@dataclass(frozen=True, eq=False)
class CyclicFactor:
    """One cyclic coordinate of the relation lattice after Smith reduction.

    The monomial Z = Y^coord has sigma(Z) = character * Z and Z^order = witness
    in the quotient.  ``split`` counts the orbit components this factor
    contributes (witness = root^split with marker a primitive split-th root
    of unity), and ``m_factor`` is the same number recomputed through the
    stride-relation search; the two are asserted equal.
    """

    order: int
    coord: tuple
    character: RatFunc
    witness: RatFunc
    split: int
    root: RatFunc
    marker: RatFunc
    m_factor: int


def _stride_product(k: DiffField, b: RatFunc, s: int, step: int) -> RatFunc:
    """prod_{i<s} sigma^{i*step}(b)."""
    acc = b
    for i in range(1, s):
        acc = acc * apply_sigma_power(k, b, i * step)
    return acc


def _stride_degree(k: DiffField, char: RatFunc, order: int, step: int = 1) -> int:
    """Largest s dividing ``order`` along which a relation already closes.

    Scanning exponents t in ascending order, the first t for which the
    telescoped product of s = order/t sigma^step-translates of ``char``,
    raised to the t-th power, is a sigma^{step*s}-quotient yields the
    maximal stride s.  The exponent t = order always works (the original
    witness telescopes), so the search is total.
    """
    for t in _divisors(order):
        s = order // t
        prod = _stride_product(k, char, s, step)
        if solve_mult(k, prod ** t, step=step * s) is not None:
            return s
    raise InternalInvariantError(
        "stride search failed although the full relation is a witness")


def _assert_primitive_root_of_unity(k: DiffField, w: RatFunc, d: int) -> None:
    one = k.one()
    if not is_constant(k, w):
        raise InternalInvariantError("splitting marker is not a constant")
    if w ** d != one:
        raise InternalInvariantError("splitting marker is not a d-th root of unity")
    for p in _prime_divisors(d):
        if w ** (d // p) == one:
            raise InternalInvariantError("splitting marker is not primitive")


def _split_witness(k: DiffField, char: RatFunc, order: int, witness: RatFunc):
    """Largest divisor d of ``order`` with an exact d-th root of the witness.

    Returns (d, root, marker) where witness = root^d and
    marker = char^{order/d} * root / sigma(root) is a primitive d-th root of
    unity.  d = 1 always succeeds with marker 1.
    """
    kf = k.k_field
    for d in reversed(_divisors(order)):
        root = kf.nth_root(witness, d)
        if root is None:
            continue
        marker = char ** (order // d) * root / apply_sigma(k, root)
        _assert_primitive_root_of_unity(k, marker, d)
        return d, root, marker
    raise InternalInvariantError("witness splitting fell through d = 1")


def _cyclic_factors(k: DiffField, entries, lattice: LatticeBasis):
    """Split the relation lattice into independent cyclic coordinates.

    Returns (factors, lattice); the lattice comes back extended when a
    Smith coordinate turns out to have a shorter relation than the box scan
    found (a defensive path: the sup-norm box already contains every vector
    whose entries are bounded by the largest coordinate order).
    """
    field = k.k_field
    rows = list(lattice.rows)
    n = lattice.dim
    for _ in range(16):
        if not rows:
            return (), LatticeBasis(n, [], field)
        vecs = [list(v) for v, _ in rows]
        d_mat, u_mat, v_mat = smith_normal_form(vecs)
        coord_mat = unimodular_inverse(v_mat)
        repair = None
        factors = []
        for u in range(len(vecs)):
            order = d_mat[u][u]
            coord = tuple(coord_mat[u])
            char = _entry_power(field, entries, coord)
            witness = _combine_witnesses(field, rows, u_mat[u])
            if apply_sigma(k, witness) / witness != char ** order:
                raise InternalInvariantError(
                    "Smith-combined witness does not witness its relation")
            if order > 1:
                cert = torsion_order(k, char, order)
                if cert is None:
                    raise InternalInvariantError(
                        "coordinate order is not realized by any relation")
                if cert.order < order:
                    repair = (tuple(cert.order * c for c in coord), cert.witness)
                    break
            split, root, marker = _split_witness(k, char, order, witness)
            m_factor = _stride_degree(k, char, order)
            if split != m_factor:
                raise InternalInvariantError(
                    "root-splitting count disagrees with the stride-relation degree")
            factors.append(CyclicFactor(order, coord, char, witness,
                                        split, root, marker, m_factor))
        if repair is None:
            return tuple(factors), LatticeBasis(n, rows, field)
        rows.append(repair)
        rows = _hermite_rows(k, entries, rows)
    raise InternalInvariantError("relation lattice failed to stabilize")


# ---------------------------------------------------------------------------
# presentations


@dataclass(eq=False)
class PVPresentation:
    """A presented solution ring with its invariants.

    ``caveats`` lists everything the finite searches could not certify
    beyond their bounds (for example a presentation exponent that exceeds
    the invariant degree).  ``idempotents`` is the full orbit e_0..e_{ell-1}
    whenever it is explicit, [1] when ell = 1, and None when only partial
    information is available.  ``complete_radius`` is the sup-norm radius
    up to which every relation vector is proven to lie in ``lattice``: the
    builders decide the whole box of radius ``search_bound``, and any other
    construction claims nothing (0).
    """

    field: DiffField
    system: DiffSystem
    ideal: SigmaIdeal
    ell: int
    m_inv: int
    krull_dim: int
    constants_ext_degree: int
    idempotents: Optional[list]
    search_bound: int
    lattice: LatticeBasis
    factors: tuple = ()
    caveats: tuple = ()
    unipotent_solution: Optional[RatFunc] = None
    complete_radius: int = 0


@dataclass(eq=False)
class Component:
    """One sigma-orbit component of a decomposed solution ring."""

    index: int
    idempotent: LaurentPoly
    generators: list
    step_matrix: list


def _orbit_idempotents(k: DiffField, ideal: SigmaIdeal, factors, ell: int,
                       nvars: int) -> list:
    field = k.k_field
    if ell == 1:
        return [LaurentPoly.one(field, nvars)]
    e0 = LaurentPoly.one(field, nvars)
    for f in factors:
        if f.split == 1:
            continue
        scale = k.coerce(Fraction(1, f.split))
        vec = tuple((f.order // f.split) * c for c in f.coord)
        w = LaurentPoly.monomial(field, nvars, vec, k.one() / f.root)
        block = LaurentPoly.zero(field, nvars)
        power = LaurentPoly.one(field, nvars)
        for _ in range(f.split):
            block = block + power
            power = ideal.normal_form(power * w)
        e0 = ideal.normal_form(e0 * block.map_coeffs(lambda c: c * scale))
    orbit = [e0]
    for _ in range(1, ell):
        orbit.append(ideal.normal_form(ideal.sigma_image(orbit[-1])))
    # closing the cycle, idempotency, orthogonality and the partition of 1
    if ideal.normal_form(ideal.sigma_image(orbit[-1])) != orbit[0]:
        raise InternalInvariantError("idempotent orbit does not close")
    total = LaurentPoly.zero(field, nvars)
    for i, e in enumerate(orbit):
        if not ideal.normal_form(e * e - e).is_zero():
            raise InternalInvariantError("orbit element is not idempotent")
        for other in orbit[i + 1:]:
            if not ideal.normal_form(e * other).is_zero():
                raise InternalInvariantError("orbit idempotents are not orthogonal")
        total = total + e
    if not ideal.normal_form(total - LaurentPoly.one(field, nvars)).is_zero():
        raise InternalInvariantError("orbit idempotents do not sum to 1")
    return orbit


def _build_multiplicative(system: DiffSystem, m_max: int) -> PVPresentation:
    k = system.field
    if m_max < 1:
        raise ZeroInput("search bound must be at least 1")
    entries = system.entries
    n = len(entries)
    lattice0 = relation_lattice(k, list(entries), m_max)
    factors, lattice = _cyclic_factors(k, entries, lattice0)
    ideal = SigmaIdeal.from_lattice(k, entries, lattice.rows, system.var_names())
    ell = 1
    m_inv = 1
    split_product = 1
    caveats = []
    for f in factors:
        ell = lcm(ell, f.split)
        m_inv = lcm(m_inv, f.m_factor)
        split_product *= f.split
        if f.m_factor < f.order:
            caveats.append(
                f"presentation exponent {f.order} exceeds the invariant degree "
                f"{f.m_factor}; the reported m follows the degree")
    if split_product == ell:
        constants_ext_degree = 1
        idempotents = _orbit_idempotents(k, ideal, factors, ell, n)
    else:
        # independent markers of non-coprime orders: the orbit of any one
        # component is shorter than ell and explicit idempotents would need
        # new constants.  Unreachable for complete lattices (the box scan
        # always sees the mixing vector), kept as an honest degradation.
        constants_ext_degree = split_product // ell
        idempotents = None
        caveats.append(
            "component orbit is not transitive; idempotents omitted and the "
            f"constants of the ring extend the base by degree {constants_ext_degree}")
    return PVPresentation(
        field=k, system=system, ideal=ideal, ell=ell, m_inv=m_inv,
        krull_dim=n - lattice.rank(), constants_ext_degree=constants_ext_degree,
        idempotents=idempotents, search_bound=m_max, lattice=lattice,
        factors=factors, caveats=tuple(caveats), complete_radius=m_max)


def build_pv_scalar(k: DiffField, a, m_max: int = DEFAULT_SEARCH_BOUND) -> PVPresentation:
    """Solution ring of sigma(Y) = a Y presented as k[Y^{+-1}]/(Y^m - g)."""
    return _build_multiplicative(DiffSystem.diagonal(k, (a,)), m_max)


def build_pv_diagonal(k: DiffField, entries, m_max: int = DEFAULT_SEARCH_BOUND) -> PVPresentation:
    """Solution ring of a diagonal system, cut out by its relation lattice."""
    return _build_multiplicative(DiffSystem.diagonal(k, entries), m_max)


def build_pv_unipotent(k: DiffField, b, m_max: int = DEFAULT_SEARCH_BOUND) -> PVPresentation:
    """Solution ring of sigma(Y) = [[1, b], [0, 1]] Y.

    The diagonal is pinned to 1; the corner entry solves the telescoping
    relation sigma(f) = f + b when a rational solution exists, otherwise it
    stays as a free polynomial generator (one extra Krull dimension).
    """
    if m_max < 1:
        raise ZeroInput("search bound must be at least 1")
    system = DiffSystem.unipotent2(k, b)
    corner = system.entries[0]
    solution = solve_add(k, corner) if not corner.is_zero() else k.zero()
    ideal = SigmaIdeal.from_unipotent(k, corner, solution)
    field = k.k_field
    return PVPresentation(
        field=k, system=system, ideal=ideal, ell=1, m_inv=1,
        krull_dim=0 if solution is not None else 1,
        constants_ext_degree=1,
        idempotents=[LaurentPoly.one(field, 3)],
        search_bound=m_max,
        lattice=LatticeBasis(3, [], field),
        factors=(),
        unipotent_solution=solution)


# ---------------------------------------------------------------------------
# invariants, recomputed and cross-checked


def compute_ell(p: PVPresentation) -> int:
    """Number of orbit components, recomputed along both detection routes.

    Route one re-extracts exact roots of the relation witnesses; route two
    re-runs the stride-relation search.  The two must agree factor by
    factor and their lcm must match the stored value.
    """
    k = p.field
    ell = 1
    for f in p.factors:
        split, _, _ = _split_witness(k, f.character, f.order, f.witness)
        stride = _stride_degree(k, f.character, f.order)
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
        m_inv = lcm(m_inv, _stride_degree(k, f.character, f.order))
        comp_order = f.order // f.split
        if comp_order > 1:
            comp_char = _stride_product(k, f.character, p.ell, 1)
            residual = lcm(residual, _stride_degree(k, comp_char, comp_order,
                                                    step=p.ell))
    if m_inv != p.ell * residual:
        raise InternalInvariantError(
            "invariant degree fails the component product formula")
    if m_inv != p.m_inv:
        raise InternalInvariantError("recomputed m differs from the presentation")
    return m_inv


def decompose(p: PVPresentation) -> list:
    """Split the ring along its idempotent orbit.

    Component i carries the generators of the i-th orbit member (the root
    relation twisted by the i-th power of the marker) and the matrix of the
    sigma^ell system every component is a solution ring of.
    """
    if p.idempotents is None and p.ell > 1:
        raise NoExplicitIdempotents(
            "the component orbit is not explicit for this presentation")
    k = p.field
    field = k.k_field
    step = _iterated_step_matrix(k, p.system.matrix(), max(p.ell, 1))
    if p.ell == 1:
        e0 = (p.idempotents[0] if p.idempotents
              else LaurentPoly.one(field, p.ideal.nvars))
        return [Component(0, e0, list(p.ideal.generators), step)]
    nvars = p.ideal.nvars
    comps = []
    for i in range(p.ell):
        gens = []
        for f in p.factors:
            vec = tuple((f.order // f.split) * c for c in f.coord)
            rhs = f.root * f.marker ** (-i)
            gens.append(LaurentPoly.monomial(field, nvars, vec)
                        - LaurentPoly.const(field, nvars, rhs))
        comps.append(Component(i, p.idempotents[i], gens, step))
    return comps


def check_simple(p: PVPresentation, degree_bound: int) -> bool:
    """Scan for a relation the presentation missed, up to the given bound.

    The quotient by a complete relation lattice is simple; a relation
    vector outside the lattice whose character product is a sigma-quotient
    produces a proper stable subideal.  Scanning sup-norm shells
    ``complete_radius + 1 .. degree_bound`` makes the negative answer a
    bounded certificate.  Shells up to ``complete_radius`` are skipped
    because the builder already decided each of their vectors with the same
    deterministic ``solve_mult`` (or with its balance and leading-coefficient
    filters, which ``solve_mult`` applies first): a vector there is in the
    lattice or is not a sigma-quotient, and the cyclic-factor step only adds
    relations, so a rescan could only agree.
    """
    if degree_bound < 1:
        raise ZeroInput("degree bound must be at least 1")
    if p.system.shape != "diagonal":
        raise UnsupportedShape(
            "simplicity scan covers diagonal shapes only, one-entry "
            "diagonals included")
    if p.idempotents is None and p.ell > 1:
        return False
    k = p.field
    entries = p.system.entries
    for s in range(p.complete_radius + 1, degree_bound + 1):
        for vec in _sup_norm_shell(len(entries), s):
            if p.lattice.contains(vec):
                continue
            if solve_mult(k, _entry_power(k.k_field, entries, vec)) is not None:
                return False
    return True


# ---------------------------------------------------------------------------
# transport of constant-coefficient ideals


@dataclass(frozen=True)
class ContractResult:
    """Canonical constant-coefficient generators plus the instrumented
    difference steps (support size before, after) that produced them."""

    generators: tuple
    steps: tuple


def _require_polynomial_exponents(gens) -> None:
    for g in gens:
        for exps in g.support():
            if any(e < 0 for e in exps):
                raise ValueError(
                    "ideal transport works in the polynomial ring; "
                    "negative exponents are not allowed")


def ideal_extend(k: DiffField, generators) -> list:
    """Include a constant-coefficient ideal into k[Y_1..Y_n].

    Every coefficient must lie in the constants; the generators are rebuilt
    coefficientwise over the target field, so the source may live over a
    smaller constant field.
    """
    _require_polynomial_exponents(generators)
    field = k.k_field
    out = []
    for g in generators:
        terms = {}
        for exps in g.support():
            c = g.coeff(exps)
            if not c.is_const():
                raise ValueError(
                    "ideal extension expects constant coefficients")
            terms[exps] = field.coerce(c.const_value())
        out.append(LaurentPoly(field, g.nvars, terms))
    return out


def _lead_exponent(p: LaurentPoly):
    return max(p.support())


def _echelon_insert(basis: list, p: LaurentPoly) -> bool:
    """Insert p into a reduced echelon basis (leads descending); True when
    the basis grew."""
    while True:
        p = _echelon_reduce(basis, p)
        if p.is_zero():
            return False
        lead = _lead_exponent(p)
        p = p.map_coeffs(lambda c, lc=p.coeff(lead): c / lc)
        pos = 0
        while pos < len(basis) and _lead_exponent(basis[pos]) > lead:
            pos += 1
        basis.insert(pos, p)
        # back-reduce the earlier rows against the new lead
        stale = []
        for i, row in enumerate(basis):
            if i == pos:
                continue
            c = row.coeff(lead)
            if not c.is_zero():
                stale.append(i)
        if not stale:
            return True
        for i in stale:
            basis[i] = basis[i] - p.map_coeffs(lambda cc, c=basis[i].coeff(lead): cc * c)
        return True


def _echelon_reduce(basis: list, p: LaurentPoly) -> LaurentPoly:
    changed = True
    while changed and not p.is_zero():
        changed = False
        for row in basis:
            lead = _lead_exponent(row)
            c = p.coeff(lead)
            if not c.is_zero():
                p = p - row.map_coeffs(lambda cc, c=c: cc * c)
                changed = True
    return p


def _all_coeffs_constant(k: DiffField, p: LaurentPoly) -> bool:
    return all(is_constant(k, p.coeff(e)) for e in p.support())


def ideal_contract(k: DiffField, generators) -> ContractResult:
    """Rewrite a sigma-stable span over k with constant-coefficient
    generators.

    The generators live in the polynomial ring on sigma-fixed variables, so
    sigma moves coefficients only.  After full row reduction, any row that
    still has a nonconstant coefficient is replaced by adding its
    sigma-difference to the span: the lead coefficient is 1, so the
    difference has strictly smaller support (instrumented in ``steps``) and
    is independent of the basis, which bounds the loop.  If the closure
    reaches the unit, the span was not the restriction of a proper stable
    ideal and NotSigmaStable is raised.
    """
    _require_polynomial_exponents(generators)
    basis: list = []
    steps = []
    for g in generators:
        _echelon_insert(basis, g)
    while True:
        pending = next((row for row in basis
                        if not _all_coeffs_constant(k, row)), None)
        if pending is None:
            break
        image = pending.map_coeffs(lambda c: apply_sigma(k, c))
        diff = image - pending
        before = len(pending.support())
        after = len(diff.support())
        if diff.is_zero() or after >= before:
            raise InternalInvariantError(
                "sigma-difference failed to shrink the support")
        steps.append((before, after))
        if not _echelon_insert(basis, diff):
            raise InternalInvariantError(
                "sigma-difference reduced to zero against the basis")
    for row in basis:
        if row.is_const():
            raise NotSigmaStable(
                "the sigma-closure of the span contains a unit")
    return ContractResult(tuple(basis), tuple(steps))
