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
  an exact root of each relation witness, read off its orbit data;
  whenever a witness g = h^d splits, the marker a^{m/d} h / sigma(h) is a
  primitive d-th root of unity.  Then W = Y^{m/d} / h has W^d = 1 and
  sigma(W) = marker W, and the component idempotents are written down in
  closed form: the discrete Fourier idempotents of the group algebra the
  W span, certified on orbit data and expanded only when it is read.
* ``m_inv``: the degree over the constants of the field of elements with
  finite sigma-orbit inside the total quotient ring.  Detected by a
  second route: the largest stride s along which a power of the
  telescoped product sigma^{s-1}(a)...a is a quotient, which the
  constants of a decide.  Both routes are cross-asserted.
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
from math import gcd, lcm, prod
from typing import Optional

from .arith.ops import (
    _QSHIFT_SCAN_CAP,
    _constant_as_cyclo,
    _divisors,
    qpower_log,
)
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
    Factored,
    LatticeBasis,
    relation_lattice,
    solve_add_with_flag,
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
    "decompose",
    "check_simple",
    "ideal_extend",
    "ideal_contract",
]

DEFAULT_SEARCH_BOUND = 12
_WINDOW_CAVEAT = (f"powers of q were searched only up to exponent "
                  f"{_QSHIFT_SCAN_CAP}; a relation past it would be missed")


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

    Sigma-stability is certified where the generators are made, and the
    constructors do not re-prove it.  A row of ``relation_lattice`` has
    sigma(g)/g = prod a_i^{v_i} =: chi, certified on its orbit data, so
    sigma(Y^v - g) = chi (Y^v - g).  ``solve_add_with_flag`` puts its
    solution back into sigma(f) - f = b, so sigma(Y12 - f Y11) =
    (Y12 - f Y11) + b (Y22 - 1) - b (Y11 - 1), and Y11 - 1, Y22 - 1 are
    fixed.  So ``from_lattice`` takes only a lattice that carries the
    telescopes ``relation_lattice`` certified (``NotSigmaStable``
    otherwise), and ``from_unipotent`` takes the solution that
    ``solve_add_with_flag`` checked, or None.  The dense check, which
    reduces the sigma-image of every generator, is a test oracle
    (``tests/dense_witness.py``).
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
    def from_lattice(cls, k: DiffField, characters, lattice: LatticeBasis,
                     var_names) -> "SigmaIdeal":
        if lattice.telescopes is None:
            raise NotSigmaStable(
                "lattice rows carry no certificate from relation_lattice")
        characters = tuple(k.coerce(c) for c in characters)
        nvars = len(var_names)
        field = k.k_field
        nf = BinomialNF(field, nvars, list(lattice.rows))
        # Y^v - w per row; the row witnesses are elements of k already
        one, zero = field.one, (0,) * nvars
        gens = tuple(LaurentPoly._trusted(field, nvars,
                                          {tuple(vec): one, zero: -witness})
                     for vec, witness in lattice.rows)
        return cls(k, "diagonal", tuple(var_names), gens, characters, nf,
                   None)

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
        return cls(k, "unipotent2", names, gens, None, None, (b, solution))

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
    in the quotient; the witness stays orbit data (``solve.Factored``), and
    the character prod entries_i^coord_i is ``FactorBasis.power(coord)``.
    ``split`` counts the orbit components this factor contributes (witness =
    root^split with marker a primitive split-th root of unity); ``root`` is
    that root, orbit data too, when split > 1, else None.  ``m_factor``
    is the same number read off the character's constants; the two are
    asserted equal.
    """

    order: int
    coord: tuple
    witness: Factored
    split: int
    root: Optional[Factored]
    marker: RatFunc
    m_factor: int


def _stride_degree(k: DiffField, char: Factored, order: int) -> int:
    """Largest s dividing ``order`` with (prod_{i<s} sigma^i(char))^(order/s)
    a sigma^s-quotient.  For char = C x^V prod b^E the certified witness of
    char^order makes each class sum of E zero, and each residue class mod s
    of the telescoped product sums to a whole class sum.  So only V = 0 and
    the constant C^order decide: 1 (shift), or in q^(sZ) (dilation).
    """
    shift = k.sigma.kind == "shift"
    z = char.const ** order
    if not shift:
        z = _constant_as_cyclo(z)
    if not char.xpow and z is not None:
        for t in _divisors(order):
            s = order // t
            if (z == k.constants.one if shift
                    else qpower_log(z, k.sigma.q ** s)[0] is not None):
                return s
    raise InternalInvariantError(
        "stride search failed although the full relation is a witness")


def _assert_primitive_root_of_unity(k: DiffField, w: RatFunc, d: int) -> None:
    one = k.one()
    if not is_constant(k, w):
        raise InternalInvariantError("splitting marker is not a constant")
    if w ** d != one:
        raise InternalInvariantError("splitting marker is not a d-th root of unity")
    if any(w ** e == one for e in _divisors(d)[:-1]):
        raise InternalInvariantError("splitting marker is not primitive")


def _split_witness(k: DiffField, char: Factored, order: int,
                   witness: Factored):
    """Largest divisor d of ``order`` with an exact d-th root of the witness,
    read off its orbit data: (d, root, marker), where the constant
    marker = char^{order/d} * root / sigma(root) is a primitive d-th root of
    unity.  d = 1 always succeeds with marker 1.
    """
    for d in reversed(_divisors(order)):
        root = witness.root(d)
        if root is None:
            continue
        marker = char ** (order // d) * root.sigma_quotient(1) ** -1
        if marker.xpow or marker.exps:
            raise InternalInvariantError("splitting marker is not a constant")
        marker = k.coerce(marker.const)
        _assert_primitive_root_of_unity(k, marker, d)
        return d, root, marker
    raise InternalInvariantError("witness splitting fell through d = 1")


def _cyclic_factors(k: DiffField, lattice: LatticeBasis) -> tuple:
    """Split the relation lattice into independent cyclic coordinates, in
    one Smith pass over orbit data.  The lattice must come from
    ``relation_lattice``: the pass reads its ``factor_basis`` and its
    certified row ``telescopes``, as the idempotent orbit does after it.

    Each Smith coordinate's witness combines the row telescopes, certified
    on exponents against char^order; the split is read off its exponents
    and the stride off the character's constants, and the two must agree.

    The lattice must be saturated: every relation vector in its rational
    span lies in it.  ``relation_lattice`` gives that by construction: an
    exact lattice is the full relation lattice L, and the span of a bounded
    search is L cap its rational span (the lemma at
    ``solve._residue_rows``, for n <= 3).

    Hence, with coord_u the Smith coordinates and d_u the Smith orders:

    * no order can shrink: a relation t coord_u with t < d_u would lie in
      the rational span of the lattice but not in it, so each d_u is the
      exact torsion order of its character;
    * no two splits share a prime p: the sigma-fixed
      W_f^{j d_f / p} W_g^{-d_g / p} of two markers of order divisible by
      p would give such a relation vector too.

    A lattice that is not saturated therefore breaks an invariant and is
    never repaired silently: a non-minimal order makes the marker of
    ``_split_witness`` imprimitive, and shared primes are refused before
    the orbit is built by CRT.
    """
    fb, telescopes = lattice.factor_basis, lattice.telescopes
    d_mat, u_mat, v_mat = smith_normal_form(lattice.vectors())
    coord_mat = unimodular_inverse(v_mat)
    factors = []
    for u in range(len(d_mat)):
        order = d_mat[u][u]
        coord = tuple(coord_mat[u])
        char = fb.power(coord)
        witness = prod((w ** c for c, w in zip(u_mat[u], telescopes) if c),
                       start=fb.one())
        witness.certify(char ** order, 1,
                        "Smith-combined witness does not witness its relation")
        split, root, marker = _split_witness(k, char, order, witness)
        m_factor = _stride_degree(k, char, order)
        if split != m_factor:
            raise InternalInvariantError(
                "root-splitting count disagrees with the stride-relation degree")
        factors.append(CyclicFactor(order, coord, witness, split,
                                    root if split > 1 else None, marker,
                                    m_factor))
    return tuple(factors)


# ---------------------------------------------------------------------------
# presentations


class _ExpandedOnRead:
    """A dataclass field that may be given a callable: the first read calls
    it and keeps what it returns."""

    def __set_name__(self, owner, name):
        self.slot = "_" + name

    def __get__(self, obj, owner=None):
        if obj is None:  # no class-level default, so the field stays required
            raise AttributeError(self.slot)
        if callable(value := obj.__dict__[self.slot]):
            value = obj.__dict__[self.slot] = value()
        return value

    def __set__(self, obj, value):
        obj.__dict__[self.slot] = value


@dataclass(eq=False)
class PVPresentation:
    """A presented solution ring with its invariants.

    ``caveats`` lists everything the finite searches could not certify
    beyond their bounds (for example a presentation exponent that exceeds
    the invariant degree).  ``idempotents`` is the full orbit e_0..e_{ell-1},
    [1] when ell = 1; a builder stores the orbit data, which the first read
    expands.  The orbit is always written over C itself: the splits of a
    saturated lattice are pairwise coprime
    (``_cyclic_factors``), so no constants extension is ever needed.  A
    presentation built by hand may carry None, which ``decompose``
    refuses.  ``search_bound`` bounds only a search among constants with
    no rational power (``lattice.exact`` False).
    """

    field: DiffField
    system: DiffSystem
    ideal: SigmaIdeal
    ell: int
    m_inv: int
    krull_dim: int
    idempotents: Optional[list] = _ExpandedOnRead()
    search_bound: int
    lattice: LatticeBasis
    factors: tuple = ()
    caveats: tuple = ()
    unipotent_solution: Optional[RatFunc] = None


@dataclass(eq=False)
class Component:
    """One sigma-orbit component of a decomposed solution ring."""

    index: int
    idempotent: LaurentPoly
    generators: list
    step_matrix: list


def _orbit_idempotents(k: DiffField, ideal: SigmaIdeal, fb, telescopes,
                       factors, ell: int):
    """The orbit e_0..e_{ell-1}, in closed form from the marker group
    algebra and certified on orbit data: a callable that expands it.

    Each splitting factor (d = split > 1) gives W = Y^{(order/d) coord} / root
    with W^d = 1 and sigma(W) = marker W in the quotient, so the W generate
    the group algebra of prod C_d over the constants.  The orbit is its
    discrete Fourier basis,

        e_i = prod_f (1/d_f) sum_{j<d_f} marker_f^{i j} W_f^j,

    a constant combination of the ell = prod d_f normal-formed products
    B_J = prod W_f^{j_f}; the d_f are pairwise coprime
    (``_build_multiplicative`` refuses shared primes), so i -> (i mod d_f)
    runs once through every index by CRT.

    Each B_J is a monomial F Y^u with F ``Factored``, read as F.const times
    ``F.expand()``: ``expand`` only makes a numerator monic, so this reading
    is multiplicative, and the row witnesses are the expanded row
    telescopes.  So the normal form of F Y^u reduces u at the Hermite
    pivots and multiplies F by telescopes, and its sigma-image is
    F sigma(F)/F prod a_i^{u_i} Y^u.  The certificates therefore compare
    exponent vectors and constants, with no product of rational functions:

    * W^d = 1 and sigma(W) = marker W, per factor;
    * the character sums sum_{j<d} marker^{u j} = d [u = 0] for u < d, which
      with W^d = 1 and CRT make the e_i idempotent and pairwise orthogonal;
    * sigma(e_{ell-1}) = e_0, term by term;
    * sum_i e_i = 1, per monomial: the B_J are distinct, so the
      coefficients of B_0 = 1 sum to 1 and those of every other B_J to 0.
    """
    field, nvars, constants = k.k_field, ideal.nvars, k.constants
    if ell == 1:
        return lambda: [LaurentPoly.one(field, nvars)]

    def normal_form(f, u):
        cs, res = ideal._nf.coset(u)
        return (prod((t ** c for c, t in zip(cs, telescopes) if c), start=f),
                tuple(res))

    def const(c):
        return Factored(k, fb.basis, c, 0, {})

    one, zero = fb.one(), (0,) * nvars
    basis = [((), one, zero)]  # (j per factor, F, u) of prod W^j
    marker_powers = []
    for f in factors:
        d = f.split
        if d == 1:
            continue
        vec = tuple((f.order // d) * c for c in f.coord)
        w = f.root ** -1
        if normal_form(w ** d, [d * c for c in vec]) != (one, zero):
            raise InternalInvariantError("orbit generator W has W^d != 1")
        marker = f.marker.const_value()
        if w.sigma_quotient(1) * fb.power(vec) != const(marker):
            raise InternalInvariantError("sigma does not scale W by its marker")
        # the u = 1 sum vanishes only if marker^d = 1, which then lets every
        # later exponent be read mod d
        powers = [marker ** j for j in range(d)]
        for u in range(d):
            total = sum((powers[u * j % d] for j in range(d)), constants.zero)
            if total != constants.coerce(d if u == 0 else 0):
                raise InternalInvariantError(
                    "marker character sums are not d [u = 0]")
        marker_powers.append(powers)
        basis = [(js + (j,), b * w ** j,
                  tuple(a + j * c for a, c in zip(u, vec)))
                 for js, b, u in basis for j in range(d)]
    basis = [(js, *normal_form(b, u)) for js, b, u in basis]
    # (1/prod d_f) prod_f marker_f^{v_f} for each v in prod Z/d_f; e_i takes
    # the one at v_f = i j_f mod d_f as its coefficient of B_J
    table = {(): constants.coerce(Fraction(1, len(basis)))}
    for p in marker_powers:
        table = {v + (t,): c * p[t] if t else c
                 for v, c in table.items() for t in range(len(p))}
    coeffs = [[table[tuple(i * j % len(p) for p, j in zip(marker_powers, js))]
               for js, _, _ in basis] for i in range(ell)]
    for (_, b, u), last, first in zip(basis, coeffs[-1], coeffs[0]):
        if b.sigma_quotient(1) * fb.power(u) * const(last) != const(first):
            raise InternalInvariantError("idempotent orbit does not close")
    if len({u for _, _, u in basis}) < len(basis):
        raise InternalInvariantError("orbit basis monomials are not distinct")
    sums = [sum(col, constants.zero) for col in zip(*coeffs)]
    if basis[0][1:] != (one, zero) or sums != [constants.one] + [
            constants.zero] * (len(basis) - 1):
        raise InternalInvariantError("orbit idempotents do not sum to 1")

    def expand():
        terms = [(u, b.expand(), b.const) for _, b, u in basis]
        return [LaurentPoly._trusted(field, nvars, {
            u: v * (c * kappa) for (u, v, c), kappa in zip(terms, row)})
            for row in coeffs]
    return expand


def _build_multiplicative(system: DiffSystem, m_max: int) -> PVPresentation:
    k = system.field
    if m_max < 1:
        raise ZeroInput("search bound must be at least 1")
    entries = system.entries
    n = len(entries)
    lattice = relation_lattice(k, list(entries), m_max)
    ideal = SigmaIdeal.from_lattice(k, entries, lattice, system.var_names())
    factors = _cyclic_factors(k, lattice)
    ell = 1
    m_inv = 1
    caveats = []
    for f in factors:
        # coprime splits, as saturation guarantees (``_cyclic_factors``),
        # make the orbit of the Fourier idempotents run through all ell
        if gcd(ell, f.split) > 1:
            raise InternalInvariantError(
                "splitting markers share a prime; the relation lattice is "
                "not saturated")
        ell *= f.split
        m_inv = lcm(m_inv, f.m_factor)
        if f.m_factor < f.order:
            caveats.append(
                f"presentation exponent {f.order} exceeds the invariant degree "
                f"{f.m_factor}; the reported m follows the degree")
    if lattice.window:
        caveats.append(_WINDOW_CAVEAT)
    if not lattice.exact:
        caveats.append(
            "constants with no rational power were searched for relations "
            f"only up to --m-max {m_max}; a relation past it would be missed")
    return PVPresentation(
        field=k, system=system, ideal=ideal, ell=ell, m_inv=m_inv,
        krull_dim=n - lattice.rank(),
        idempotents=_orbit_idempotents(k, ideal, lattice.factor_basis,
                                       lattice.telescopes, factors, ell),
        search_bound=m_max, lattice=lattice, factors=factors,
        caveats=tuple(caveats))


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
    solution, complete = solve_add_with_flag(k, corner)
    ideal = SigmaIdeal.from_unipotent(k, corner, solution)
    field = k.k_field
    return PVPresentation(
        field=k, system=system, ideal=ideal, ell=1, m_inv=1,
        krull_dim=0 if solution is not None else 1,
        idempotents=[LaurentPoly.one(field, 3)],
        search_bound=m_max,
        lattice=LatticeBasis(3, []),
        factors=(), caveats=() if complete else (_WINDOW_CAVEAT,),
        unipotent_solution=solution)


# ---------------------------------------------------------------------------
# components and simplicity


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
            rhs = (f.root or f.witness).expand() * f.marker ** (-i)
            gens.append(LaurentPoly.monomial(field, nvars, vec)
                        - LaurentPoly.const(field, nvars, rhs))
        comps.append(Component(i, p.idempotents[i], gens, step))
    return comps


def check_simple(p: PVPresentation, degree_bound: int) -> bool:
    """Whether a presentation built by hand holds every relation, so that
    no relation outside its lattice cuts out a proper stable subideal:
    True for an exact lattice with no ``window``, and for any other
    whether it contains ``relation_lattice`` at ``degree_bound``.  A built
    presentation needs no check: its lattice is exact, or bounded with a
    caveat."""
    if degree_bound < 1:
        raise ZeroInput("degree bound must be at least 1")
    if p.system.shape != "diagonal":
        raise UnsupportedShape(
            "simplicity scan covers diagonal shapes only, one-entry "
            "diagonals included")
    if p.lattice.exact and not p.lattice.window:
        return True
    found = relation_lattice(p.field, p.system.entries, degree_bound)
    return all(p.lattice.contains(v) for v in found.vectors())


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
