"""Solution-ring construction, invariants, decomposition, and the ideal
transport maps.

Golden values in this file were derived by hand from the defining
sigma-quotient recurrences before the engine existed:

* shift, a = -1: a^2 = 1 = sigma(1)/1, so the torsion exponent is 2 with
  witness 1; the witness is a square (1 = 1^2) and the splitting marker is
  a^1 * 1/sigma(1) = -1, a primitive second root of unity.  Two orbit
  components, zero-dimensional ring.
* q-shift on C(s) with q = 2, a = -2: (-2)^2 = 4 = sigma(s^2)/s^2, witness
  s^2 = s * s, marker -2 * s / (2s) = -1.  Mirror of the shift case with a
  nontrivial witness.
* q = 2 over Q(zeta_8), a = sqrt(2): a^2 = 2 = sigma(x)/x, witness x, which
  is not a square, so no splitting; and no product of sigma-translates of a
  along a shorter stride is a quotient until the exponent reaches 2, which
  pins the fixed-field degree at 1, strictly below the torsion exponent.
* q = 8, a = 2: 2^3 = 8 = sigma(x)/x gives torsion 3, witness x, no cube
  root, fixed-field degree 1.
* shift over Q(zeta_3), a = zeta_3 (x+1)/x: a^3 = (x+1)^3/x^3 with witness
  x^3 = (x)^3, marker zeta_3, three components.
* diagonal shift (-1, -(x+1)/x): exponent lattice is spanned by (1,1) with
  witness x and (0,2) with witness x^2; Smith form diag(1,2).
"""

import dataclasses
import functools
import random
from fractions import Fraction

import pytest

from pvkit.arith.cyclo import CycloField, CycloNum
from pvkit.base import DiffField, SigmaSpec, apply_sigma, apply_sigma_power
from pvkit.engine import (
    DiffSystem,
    PVPresentation,
    SigmaIdeal,
    build_pv_diagonal,
    build_pv_scalar,
    build_pv_unipotent,
    check_simple,
    compute_ell,
    compute_m,
    decompose,
    ideal_contract,
    ideal_extend,
)
from pvkit.errors import (
    DimensionTooLarge,
    InternalInvariantError,
    NoExplicitIdempotents,
    NotSigmaStable,
    UnsupportedShape,
    ZeroInput,
)
from pvkit.laurent import BinomialNF, LaurentPoly
from pvkit.snf import unimodular_inverse
from pvkit.solve import LatticeBasis, _sup_norm_shell, solve_mult, torsion_order


def shift_field(conductor=1):
    return DiffField(SigmaSpec.shift(), CycloField(conductor))


def qshift_field(q, conductor=1, var="x"):
    return DiffField(SigmaSpec.qshift(q), CycloField(conductor), var)


def sqrt2_field():
    k = qshift_field(2, conductor=8)
    z = CycloNum.zeta(8)
    root = z + z ** 7
    assert root * root == CycloField(8).coerce(2)
    return k, k.coerce(root)


def mono(k, exps, coeff=1):
    exps = tuple(exps)
    return LaurentPoly.monomial(k.k_field, len(exps), exps, coeff)


def mat_mul(rows_a, rows_b):
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


def iterated_step(k, rows, count):
    """sigma^{count-1}(A) ... sigma(A) A, computed the slow generic way."""
    acc = rows
    for j in range(1, count):
        shifted = [[apply_sigma_power(k, e, j) for e in row] for row in rows]
        acc = mat_mul(shifted, acc)
    return acc


# ---------------------------------------------------------------------------
# Laurent-polynomial layer


class TestLaurentPoly:
    def test_ring_arithmetic(self):
        k = shift_field()
        y = LaurentPoly.variable(k.k_field, 1, 0)
        p = (y + 1) * (y - 1)
        assert p == y ** 2 - 1
        assert p.support() == [(0,), (2,)]
        assert p.coeff((2,)) == k.one()
        assert p.coeff((0,)) == -k.one()
        assert p.coeff((1,)).is_zero()

    def test_negative_exponents_and_power(self):
        k = shift_field()
        u = mono(k, (1, -2), coeff=k.x())
        v = mono(k, (-1, 2))
        assert (u * v).const_value() == k.x()
        assert u ** 3 == mono(k, (3, -6), coeff=k.x() ** 3)
        with pytest.raises(ValueError):
            (u + 1) ** -1

    def test_sigma_image_twists_by_characters(self):
        k = shift_field()
        a = k.coerce(2) * k.x()
        p = mono(k, (1,), coeff=k.x())
        image = p.sigma_image(k, [a])
        # sigma(x Y) = (x+1) * (2x) * Y
        assert image == mono(k, (1,), coeff=(k.x() + 1) * a)

    def test_const_value_requires_constant(self):
        k = shift_field()
        assert LaurentPoly.const(k.k_field, 2, 7).const_value() == k.coerce(7)
        with pytest.raises(InternalInvariantError):
            mono(k, (1, 0)).const_value()

    def test_format_single_variable(self):
        k = shift_field()
        y = LaurentPoly.variable(k.k_field, 1, 0)
        assert "Y" in (y ** 2 - 1).format()


class TestBinomialNF:
    def test_reduce_against_torsion_row(self):
        k = shift_field()
        nf = BinomialNF(k.k_field, 1, [((2,), k.one())])
        y = LaurentPoly.variable(k.k_field, 1, 0)
        assert nf.reduce(y ** 3) == y
        assert nf.reduce(y ** 2 - 1).is_zero()
        assert nf.equal(y ** 3, y)

    def test_reduce_multiplies_witness_powers(self):
        k, root = sqrt2_field()
        nf = BinomialNF(k.k_field, 1, [((2,), k.x())])
        y = LaurentPoly.variable(k.k_field, 1, 0)
        assert nf.reduce(y ** 4).const_value() == k.x() ** 2
        assert nf.reduce(y ** 3) == mono(k, (1,), coeff=k.x())

    def test_sigma_stability_audit(self):
        k = shift_field()
        minus_one = -k.one()
        good = BinomialNF(k.k_field, 1, [((2,), k.one())])
        y = LaurentPoly.variable(k.k_field, 1, 0)
        good.assert_sigma_stable(k, [minus_one], [y ** 2 - 1])
        bad = BinomialNF(k.k_field, 1, [((2,), k.x())])
        with pytest.raises(InternalInvariantError):
            bad.assert_sigma_stable(k, [minus_one], [y ** 2 - k.x()])


class TestLatticeHelpers:
    def test_unimodular_inverse_round_trip(self):
        for m in ([[1, 1], [0, 1]], [[2, 1], [1, 1]], [[1, 0, 2], [0, 1, 3], [0, 0, 1]]):
            inv = unimodular_inverse(m)
            n = len(m)
            prod = [[sum(m[i][t] * inv[t][j] for t in range(n)) for j in range(n)]
                    for i in range(n)]
            assert prod == [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def test_unimodular_inverse_rejects_nonunits(self):
        with pytest.raises(InternalInvariantError):
            unimodular_inverse([[2, 0], [0, 1]])

    def test_torsion_order_along_longer_stride(self):
        k = shift_field()
        cert = torsion_order(k, -k.one(), 6, step=2)
        assert cert.order == 2
        kq = qshift_field(2)
        cert = torsion_order(kq, kq.coerce(4), 6, step=2)
        assert cert.order == 1
        assert apply_sigma_power(kq, cert.witness, 2) / cert.witness == kq.coerce(4)


# ---------------------------------------------------------------------------
# Scalar constructions


class TestScalarShiftMinusOne:
    def build(self):
        k = shift_field()
        return k, build_pv_scalar(k, -1)

    def test_invariants(self):
        k, p = self.build()
        assert (p.ell, p.m_inv, p.krull_dim) == (2, 2, 0)
        assert p.constants_ext_degree == 1
        assert p.caveats == ()
        assert p.system.shape == "diagonal"
        assert p.ideal.var_names == ("Y",)

    def test_ideal_is_y_squared_minus_one(self):
        k, p = self.build()
        y = LaurentPoly.variable(k.k_field, 1, 0)
        assert list(p.ideal.generators) == [y ** 2 - 1]
        assert p.lattice.vectors() == [[2]]
        assert p.ideal.normal_form(y ** 3) == y
        assert p.ideal.contains(y ** 2 - 1)
        assert not p.ideal.contains(y - 1)

    def test_idempotents_split_the_ring(self):
        k, p = self.build()
        half = k.coerce(Fraction(1, 2))
        e0 = LaurentPoly.const(k.k_field, 1, half) + mono(k, (1,), coeff=half)
        e1 = LaurentPoly.const(k.k_field, 1, half) - mono(k, (1,), coeff=half)
        assert p.idempotents == [e0, e1]

    def test_cross_checked_invariants(self):
        k, p = self.build()
        assert compute_ell(p) == 2
        assert compute_m(p) == 2

    def test_components(self):
        k, p = self.build()
        comps = decompose(p)
        y = LaurentPoly.variable(k.k_field, 1, 0)
        assert [c.index for c in comps] == [0, 1]
        assert comps[0].generators == [y - 1]
        assert comps[1].generators == [y + 1]
        assert comps[0].step_matrix == [[k.one()]]

    def test_simplicity(self):
        k, p = self.build()
        assert check_simple(p, 6)


class TestScalarQshiftOnS:
    """q = 2 acting on C(s) by s -> 2s, with a = -2."""

    def build(self):
        k = qshift_field(2, var="s")
        return k, build_pv_scalar(k, -2)

    def test_invariants(self):
        k, p = self.build()
        assert (p.ell, p.m_inv, p.krull_dim) == (2, 2, 0)
        assert p.caveats == ()

    def test_ideal_is_y_squared_minus_s_squared(self):
        k, p = self.build()
        y = LaurentPoly.variable(k.k_field, 1, 0)
        s = k.x()
        assert list(p.ideal.generators) == [y ** 2 - LaurentPoly.const(k.k_field, 1, s * s)]

    def test_residue_satisfies_order_two_recurrence(self):
        # Y/s generates the residue line: sigma(Y/s) = -Y/s.
        k, p = self.build()
        u = mono(k, (1,), coeff=k.one() / k.x())
        image = p.ideal.normal_form(u.sigma_image(k, (k.coerce(-2),)))
        assert image == -u

    def test_idempotents(self):
        k, p = self.build()
        half = k.coerce(Fraction(1, 2))
        e0 = LaurentPoly.const(k.k_field, 1, half) + mono(k, (1,), coeff=half / k.x())
        assert p.idempotents[0] == e0
        assert compute_ell(p) == 2
        assert compute_m(p) == 2

    def test_components(self):
        k, p = self.build()
        comps = decompose(p)
        y = LaurentPoly.variable(k.k_field, 1, 0)
        s = LaurentPoly.const(k.k_field, 1, k.x())
        assert comps[0].generators == [y - s]
        assert comps[1].generators == [y + s]
        assert comps[0].step_matrix == [[k.coerce(4)]]


class TestScalarSqrtTwo:
    """q = 2 with a = sqrt(2): the presentation has degree 2 but the
    invariant collapses to 1, because no stride realizes a shorter relation."""

    def build(self):
        k, root = sqrt2_field()
        return k, build_pv_scalar(k, root)

    def test_presentation_degree_exceeds_invariant(self):
        k, p = self.build()
        y = LaurentPoly.variable(k.k_field, 1, 0)
        assert list(p.ideal.generators) == [y ** 2 - LaurentPoly.const(k.k_field, 1, k.x())]
        assert (p.ell, p.m_inv, p.krull_dim) == (1, 1, 0)
        assert len(p.caveats) == 1
        assert "2" in p.caveats[0] and "1" in p.caveats[0]

    def test_cross_checks_agree_on_the_smaller_value(self):
        k, p = self.build()
        assert compute_ell(p) == 1
        assert compute_m(p) == 1

    def test_dual_route_by_hand(self):
        # Exponent 1 along stride 2 fails; exponent 2 along stride 1 works.
        k, p = self.build()
        a = p.system.entries[0]
        prod = a * apply_sigma(k, a)
        assert prod == k.coerce(2)
        assert solve_mult(k, prod, step=2) is None
        assert solve_mult(k, a * a, step=1) is not None

    def test_single_component(self):
        k, p = self.build()
        comps = decompose(p)
        assert len(comps) == 1
        assert comps[0].generators == list(p.ideal.generators)
        assert comps[0].idempotent == LaurentPoly.one(k.k_field, 1)
        assert check_simple(p, 6)


class TestScalarOrderThreeTorsion:
    """q = 8 with a = 2: torsion exponent 3, invariant 1."""

    def build(self):
        k = qshift_field(8)
        return k, build_pv_scalar(k, 2)

    def test_invariants(self):
        k, p = self.build()
        y = LaurentPoly.variable(k.k_field, 1, 0)
        assert list(p.ideal.generators) == [y ** 3 - LaurentPoly.const(k.k_field, 1, k.x())]
        assert (p.ell, p.m_inv, p.krull_dim) == (1, 1, 0)
        assert len(p.caveats) == 1
        assert compute_ell(p) == 1
        assert compute_m(p) == 1


class TestScalarZetaThreeShift:
    """shift over Q(zeta_3) with a = zeta_3 (x+1)/x: three components."""

    def build(self):
        k = shift_field(conductor=3)
        z3 = k.coerce(CycloNum.zeta(3))
        a = z3 * (k.x() + 1) / k.x()
        return k, z3, build_pv_scalar(k, a)

    def test_invariants(self):
        k, z3, p = self.build()
        assert (p.ell, p.m_inv, p.krull_dim) == (3, 3, 0)
        assert p.caveats == ()
        y = LaurentPoly.variable(k.k_field, 1, 0)
        cube = LaurentPoly.const(k.k_field, 1, k.x() ** 3)
        assert list(p.ideal.generators) == [y ** 3 - cube]
        assert compute_ell(p) == 3
        assert compute_m(p) == 3

    def test_idempotents(self):
        k, z3, p = self.build()
        third = k.coerce(Fraction(1, 3))
        e0 = (LaurentPoly.const(k.k_field, 1, third)
              + mono(k, (1,), coeff=third / k.x())
              + mono(k, (2,), coeff=third / (k.x() * k.x())))
        assert p.idempotents[0] == e0
        e1 = (LaurentPoly.const(k.k_field, 1, third)
              + mono(k, (1,), coeff=third * z3 / k.x())
              + mono(k, (2,), coeff=third * z3 * z3 / (k.x() * k.x())))
        assert p.idempotents[1] == e1

    def test_components_cycle_through_the_cube_roots(self):
        k, z3, p = self.build()
        comps = decompose(p)
        y = LaurentPoly.variable(k.k_field, 1, 0)
        xc = LaurentPoly.const(k.k_field, 1, k.x())
        assert comps[0].generators == [y - xc]
        assert comps[1].generators == [y - xc.map_coeffs(lambda c: c * z3 * z3)]
        assert comps[2].generators == [y - xc.map_coeffs(lambda c: c * z3)]
        # step matrix is the threefold twisted product (x+3)/x
        assert comps[0].step_matrix == [[(k.x() + 3) / k.x()]]


class TestScalarFree:
    def build(self):
        k = shift_field()
        return k, build_pv_scalar(k, shift_field().x())

    def test_no_relations_full_torus(self):
        k, p = self.build()
        assert list(p.ideal.generators) == []
        assert (p.ell, p.m_inv, p.krull_dim) == (1, 1, 1)
        assert p.lattice.rank() == 0
        assert p.idempotents == [LaurentPoly.one(k.k_field, 1)]
        assert compute_ell(p) == 1
        assert compute_m(p) == 1

    def test_decompose_and_simplicity(self):
        k, p = self.build()
        comps = decompose(p)
        assert len(comps) == 1
        assert comps[0].generators == []
        assert comps[0].step_matrix == [[k.x()]]
        assert check_simple(p, 6)


class TestScalarGaugeInvariance:
    def test_twisting_by_a_quotient_preserves_invariants(self):
        k = shift_field()
        p = build_pv_scalar(k, -1)
        twisted = build_pv_scalar(k, -(k.x() + 1) / k.x())
        assert (twisted.ell, twisted.m_inv, twisted.krull_dim) == (p.ell, p.m_inv, p.krull_dim)
        y = LaurentPoly.variable(k.k_field, 1, 0)
        sq = LaurentPoly.const(k.k_field, 1, k.x() ** 2)
        assert list(twisted.ideal.generators) == [y ** 2 - sq]
        half = k.coerce(Fraction(1, 2))
        assert twisted.idempotents[0] == (
            LaurentPoly.const(k.k_field, 1, half) + mono(k, (1,), coeff=half / k.x()))


# ---------------------------------------------------------------------------
# Diagonal constructions


class TestDiagonalPair:
    def build(self):
        k = shift_field()
        a = (-k.one(), -(k.x() + 1) / k.x())
        return k, build_pv_diagonal(k, a)

    def test_lattice_and_ideal(self):
        k, p = self.build()
        assert p.lattice.vectors() == [[1, 1], [0, 2]]
        g0 = mono(k, (1, 1)) - LaurentPoly.const(k.k_field, 2, k.x())
        g1 = mono(k, (0, 2)) - LaurentPoly.const(k.k_field, 2, k.x() ** 2)
        assert list(p.ideal.generators) == [g0, g1]

    def test_equivalent_generator_set_is_contained(self):
        # The same ideal is generated by Y1 Y2^{-1} - 1/x and Y1^2 - 1.
        k, p = self.build()
        alt0 = mono(k, (1, -1)) - LaurentPoly.const(k.k_field, 2, k.one() / k.x())
        alt1 = mono(k, (2, 0)) - LaurentPoly.one(k.k_field, 2)
        assert p.ideal.contains(alt0)
        assert p.ideal.contains(alt1)
        # and conversely the stored generators reduce under the alternative
        # lattice rows, so the two ideals coincide.
        alt = BinomialNF(k.k_field, 2, [((1, -1), k.one() / k.x()), ((0, 2), k.x() ** 2)])
        for g in p.ideal.generators:
            assert alt.reduce(g).is_zero()

    def test_invariants(self):
        k, p = self.build()
        assert (p.ell, p.m_inv, p.krull_dim) == (2, 2, 0)
        assert p.constants_ext_degree == 1
        assert p.caveats == ()
        assert compute_ell(p) == 2
        assert compute_m(p) == 2

    def test_idempotents(self):
        k, p = self.build()
        half = k.coerce(Fraction(1, 2))
        e0 = (LaurentPoly.const(k.k_field, 2, half)
              + mono(k, (0, 1), coeff=half / k.x()))
        e1 = (LaurentPoly.const(k.k_field, 2, half)
              - mono(k, (0, 1), coeff=half / k.x()))
        assert p.idempotents == [e0, e1]

    def test_components(self):
        k, p = self.build()
        comps = decompose(p)
        assert len(comps) == 2
        z1 = mono(k, (1, 1)) - LaurentPoly.const(k.k_field, 2, k.x())
        y2_minus = mono(k, (0, 1)) - LaurentPoly.const(k.k_field, 2, k.x())
        y2_plus = mono(k, (0, 1)) + LaurentPoly.const(k.k_field, 2, k.x())
        assert comps[0].generators == [z1, y2_minus]
        assert comps[1].generators == [z1, y2_plus]
        step = comps[0].step_matrix
        assert step == [[k.one(), k.zero()], [k.zero(), (k.x() + 2) / k.x()]]

    def test_product_route_ingredient(self):
        # the surviving order-2 character along stride 2 is already a
        # quotient, so the residual degree above the component is 1
        k, p = self.build()
        b = -(k.x() + 1) / k.x()
        stride_two_product = b * apply_sigma(k, b)
        assert solve_mult(k, stride_two_product, step=2) is not None

    def test_simplicity(self):
        k, p = self.build()
        assert check_simple(p, 6)


class TestDiagonalRankOne:
    def test_equal_entries_leave_a_torus_factor(self):
        k = shift_field()
        p = build_pv_diagonal(k, (k.x(), k.x()))
        assert p.lattice.vectors() == [[1, -1]]
        assert (p.ell, p.m_inv, p.krull_dim) == (1, 1, 1)
        g = mono(k, (1, -1)) - LaurentPoly.one(k.k_field, 2)
        assert list(p.ideal.generators) == [g]
        assert compute_ell(p) == 1
        assert compute_m(p) == 1
        assert check_simple(p, 6)

    def test_multiplicatively_independent_entries(self):
        k = qshift_field(5)
        p = build_pv_diagonal(k, (2, 3))
        assert p.lattice.rank() == 0
        assert list(p.ideal.generators) == []
        assert (p.ell, p.m_inv, p.krull_dim) == (1, 1, 2)
        assert check_simple(p, 6)


# ---------------------------------------------------------------------------
# Unipotent constructions


class TestUnipotent:
    def test_qshift_with_unreachable_sum_is_free(self):
        k = qshift_field(2)
        p = build_pv_unipotent(k, 1)
        assert (p.ell, p.m_inv, p.krull_dim) == (1, 1, 1)
        assert p.unipotent_solution is None
        names = p.ideal.var_names
        assert names == ("Y11", "Y12", "Y22")
        y11 = LaurentPoly.variable(k.k_field, 3, 0)
        y22 = LaurentPoly.variable(k.k_field, 3, 2)
        assert list(p.ideal.generators) == [y11 - 1, y22 - 1]

    def test_shift_solves_the_telescoping_sum(self):
        k = shift_field()
        p = build_pv_unipotent(k, 1)
        assert (p.ell, p.m_inv, p.krull_dim) == (1, 1, 0)
        assert p.unipotent_solution == k.x()
        y11 = LaurentPoly.variable(k.k_field, 3, 0)
        y12 = LaurentPoly.variable(k.k_field, 3, 1)
        y22 = LaurentPoly.variable(k.k_field, 3, 2)
        xc = LaurentPoly.const(k.k_field, 3, k.x())
        assert list(p.ideal.generators) == [y12 - xc * y11, y11 - 1, y22 - 1]
        assert p.ideal.contains(y12 - xc)

    def test_zero_entry_pins_the_corner(self):
        k = shift_field()
        p = build_pv_unipotent(k, 0)
        assert p.krull_dim == 0
        assert p.unipotent_solution == k.zero()

    def test_sigma_image_in_the_quotient(self):
        k = shift_field()
        p = build_pv_unipotent(k, 1)
        y12 = LaurentPoly.variable(k.k_field, 3, 1)
        image = p.ideal.sigma_image(y12)
        # sigma(Y12) = Y12 + Y22 reduces to x + 1 in the solved quotient
        assert p.ideal.normal_form(image).const_value() == k.x() + 1

    def test_decompose_and_cross_checks(self):
        k = shift_field()
        p = build_pv_unipotent(k, 1)
        comps = decompose(p)
        assert len(comps) == 1
        assert comps[0].step_matrix == [[k.one(), k.one()], [k.zero(), k.one()]]
        assert compute_ell(p) == 1
        assert compute_m(p) == 1

    def test_simplicity_is_out_of_scope(self):
        k = shift_field()
        p = build_pv_unipotent(k, 1)
        with pytest.raises(UnsupportedShape):
            check_simple(p, 6)


# ---------------------------------------------------------------------------
# Cross-route invariant checks on every presentation shape


@functools.lru_cache(maxsize=1)
def all_presentations():
    k1 = shift_field()
    k2 = qshift_field(2, var="s")
    k8, root = sqrt2_field()
    k83 = qshift_field(8)
    k3 = shift_field(conductor=3)
    z3 = k3.coerce(CycloNum.zeta(3))
    kq5 = qshift_field(5)
    out = [
        ("shift-minus-one", build_pv_scalar(k1, -1), 2, 2),
        ("qshift-minus-two", build_pv_scalar(k2, -2), 2, 2),
        ("qshift-sqrt2", build_pv_scalar(k8, root), 1, 1),
        ("qshift-torsion3", build_pv_scalar(k83, 2), 1, 1),
        ("shift-zeta3", build_pv_scalar(k3, z3 * (k3.x() + 1) / k3.x()), 3, 3),
        ("shift-free", build_pv_scalar(k1, k1.x()), 1, 1),
        ("diag-pair", build_pv_diagonal(k1, (-k1.one(), -(k1.x() + 1) / k1.x())), 2, 2),
        ("diag-torus", build_pv_diagonal(k1, (k1.x(), k1.x())), 1, 1),
        ("diag-independent", build_pv_diagonal(kq5, (2, 3)), 1, 1),
        ("unipotent-shift", build_pv_unipotent(k1, 1), 1, 1),
        ("unipotent-qshift", build_pv_unipotent(qshift_field(2), 1), 1, 1),
    ]
    return out


class TestInvariantRoutesAgree:
    @pytest.mark.parametrize("name,p,ell,m", all_presentations(),
                             ids=[row[0] for row in all_presentations()])
    def test_both_routes_on_every_presentation(self, name, p, ell, m):
        assert p.ell == ell
        assert p.m_inv == m
        assert compute_ell(p) == ell
        assert compute_m(p) == m


class TestIdempotentAlgebra:
    @pytest.mark.parametrize("name", ["shift-minus-one", "qshift-minus-two",
                                      "shift-zeta3", "diag-pair"])
    def test_orbit_orthogonality_and_partition(self, name):
        p = dict((row[0], row[1]) for row in all_presentations())[name]
        k = p.field
        ideal = p.ideal
        comps = decompose(p)
        es = [c.idempotent for c in comps]
        assert es[0] == p.idempotents[0]
        one = LaurentPoly.one(k.k_field, ideal.nvars)
        # orbit: e_i = sigma^i(e_0) modulo the ideal
        walker = es[0]
        for i in range(1, len(es)):
            walker = ideal.normal_form(ideal.sigma_image(walker))
            assert walker == es[i]
        # returning once more closes the cycle
        assert ideal.normal_form(ideal.sigma_image(walker)) == es[0]
        total = LaurentPoly.zero(k.k_field, ideal.nvars)
        for i, e in enumerate(es):
            assert ideal.normal_form(e * e - e).is_zero()
            for j in range(i + 1, len(es)):
                assert ideal.normal_form(e * es[j]).is_zero()
            total = total + e
        assert ideal.normal_form(total - one).is_zero()

    @pytest.mark.parametrize("name", ["shift-minus-one", "qshift-minus-two",
                                      "shift-zeta3", "diag-pair",
                                      "unipotent-shift", "shift-free"])
    def test_step_matrix_matches_generic_product(self, name):
        p = dict((row[0], row[1]) for row in all_presentations())[name]
        k = p.field
        comps = decompose(p)
        expected = iterated_step(k, p.system.matrix(), max(p.ell, 1))
        assert comps[0].step_matrix == expected


# ---------------------------------------------------------------------------
# Simplicity scan


class TestCheckSimple:
    def test_detects_a_missing_relation(self):
        # ideal (Y^2 - 1) for the trivial character: Y - 1 generates a
        # proper stable subideal, so the quotient is not simple.
        k = shift_field()
        ideal = SigmaIdeal.from_lattice(k, (k.one(),), [((2,), k.one())], ("Y",))
        lattice = LatticeBasis(1, [((2,), k.one())], k.k_field)
        p = PVPresentation(
            field=k, system=DiffSystem.diagonal(k, (k.one(),)), ideal=ideal,
            ell=1, m_inv=1, krull_dim=0, constants_ext_degree=1,
            idempotents=None, search_bound=12, lattice=lattice)
        assert check_simple(p, 6) is False

    def test_accepts_the_maximal_lattice(self):
        k = shift_field()
        assert check_simple(build_pv_scalar(k, -1), 6) is True

    def test_accepts_the_free_torus(self):
        k = shift_field()
        assert check_simple(build_pv_scalar(k, k.x()), 6) is True

    def test_degree_bound_must_be_positive(self):
        k = shift_field()
        with pytest.raises(ZeroInput):
            check_simple(build_pv_scalar(k, -1), 0)

    def test_builders_record_the_proven_radius(self):
        k = shift_field()
        assert build_pv_scalar(k, -1, m_max=5).complete_radius == 5
        assert build_pv_diagonal(k, [-1, k.x()], m_max=3).complete_radius == 3

    def test_no_rescan_inside_the_proven_radius(self, monkeypatch):
        k = shift_field()
        p = build_pv_diagonal(k, [-1, -(k.x() + 1) / k.x()])

        def refuse(*args, **kwargs):
            raise AssertionError("solve_mult called inside the proven radius")

        monkeypatch.setattr("pvkit.engine.solve_mult", refuse)
        assert check_simple(p, 6) is True
        assert check_simple(p, p.search_bound) is True

    def test_scans_only_the_shells_beyond_the_proven_radius(self, monkeypatch):
        k = shift_field()
        x = k.x()
        entries = [k.coerce(-1), -(x + 1) / x, x]
        p = build_pv_diagonal(k, entries, m_max=2)
        seen = []

        def record(kk, r, step=1):
            seen.append(r)
            return solve_mult(kk, r, step=step)

        monkeypatch.setattr("pvkit.engine.solve_mult", record)
        assert check_simple(p, 3) is True
        expected = []
        for vec in _sup_norm_shell(3, 3):
            if p.lattice.contains(vec):
                continue
            r = k.one()
            for a, m in zip(entries, vec):
                r = r * a ** m
            expected.append(r)
        assert expected and seen == expected


# ---------------------------------------------------------------------------
# Build validation


class TestBuildValidation:
    def test_zero_scalar_rejected(self):
        with pytest.raises(ZeroInput):
            build_pv_scalar(shift_field(), 0)

    def test_zero_diagonal_entry_rejected(self):
        k = shift_field()
        with pytest.raises(ZeroInput):
            build_pv_diagonal(k, (k.one(), k.zero()))

    def test_dimension_cap(self):
        k = shift_field()
        with pytest.raises(DimensionTooLarge):
            build_pv_diagonal(k, (1, 2, 3, 4))

    def test_search_bound_must_be_positive(self):
        with pytest.raises(ZeroInput):
            build_pv_scalar(shift_field(), -1, m_max=0)

    def test_torsion_beyond_bound_is_reported_free(self):
        # order 8 torsion with search bound 5: the relation is out of reach,
        # the build degenerates to the free answer and says so
        k = shift_field(conductor=8)
        z8 = k.coerce(CycloNum.zeta(8))
        p = build_pv_scalar(k, z8, m_max=5)
        assert p.krull_dim == 1
        assert p.lattice.rank() == 0
        assert p.search_bound == 5

    def test_decompose_requires_explicit_idempotents(self):
        k = shift_field()
        p = build_pv_scalar(k, -1)
        crippled = dataclasses.replace(p, idempotents=None, ell=2)
        with pytest.raises(NoExplicitIdempotents):
            decompose(crippled)


# ---------------------------------------------------------------------------
# Constant-coefficient transport: contract and extend


def laurent2(k, terms):
    out = LaurentPoly.zero(k.k_field, 2)
    for exps, c in terms.items():
        out = out + LaurentPoly.monomial(k.k_field, 2, exps, k.coerce(c))
    return out


class TestIdealContract:
    def test_unit_coefficient_normalization(self):
        k = shift_field()
        y = LaurentPoly.variable(k.k_field, 1, 0)
        xc = LaurentPoly.const(k.k_field, 1, k.x())
        res = ideal_contract(k, [xc * y - xc])
        assert list(res.generators) == [y - 1]
        assert res.steps == ()

    def test_shift_pair_collapses_to_coordinates(self):
        k = shift_field()
        f = laurent2(k, {(1, 0): 1}) + laurent2(k, {(0, 1): 1}).map_coeffs(lambda c: c * k.x())
        sf = f.map_coeffs(lambda c: apply_sigma(k, c))
        res = ideal_contract(k, [f, sf])
        y1 = LaurentPoly.variable(k.k_field, 2, 0)
        y2 = LaurentPoly.variable(k.k_field, 2, 1)
        assert list(res.generators) == [y1, y2]

    def test_single_generator_needs_a_difference_step(self):
        k = shift_field()
        f = laurent2(k, {(1, 0): 1}) + laurent2(k, {(0, 1): 1}).map_coeffs(lambda c: c * k.x())
        res = ideal_contract(k, [f])
        y1 = LaurentPoly.variable(k.k_field, 2, 0)
        y2 = LaurentPoly.variable(k.k_field, 2, 1)
        assert list(res.generators) == [y1, y2]
        assert res.steps == ((2, 1),)

    def test_unstable_span_is_rejected(self):
        k = shift_field()
        y = LaurentPoly.variable(k.k_field, 1, 0)
        xc = LaurentPoly.const(k.k_field, 1, k.x())
        with pytest.raises(NotSigmaStable):
            ideal_contract(k, [y - xc])

    def test_negative_exponents_rejected(self):
        k = shift_field()
        bad = LaurentPoly.monomial(k.k_field, 1, (-1,))
        with pytest.raises(ValueError):
            ideal_contract(k, [bad])
        with pytest.raises(ValueError):
            ideal_extend(k, [bad])

    def test_empty_input(self):
        k = shift_field()
        res = ideal_contract(k, [])
        assert res.generators == ()
        assert res.steps == ()


class TestIdealExtend:
    def test_rejects_nonconstant_coefficients(self):
        k = shift_field()
        y = LaurentPoly.variable(k.k_field, 1, 0)
        xc = LaurentPoly.const(k.k_field, 1, k.x())
        with pytest.raises(ValueError):
            ideal_extend(k, [xc * y])

    def test_lifts_into_larger_constants(self):
        k = shift_field()
        k3 = shift_field(conductor=3)
        g = laurent2(k, {(1, 0): 1, (0, 0): Fraction(-1, 2)})
        lifted = ideal_extend(k3, [g])
        assert lifted[0].coeff((0, 0)) == k3.coerce(Fraction(-1, 2))
        assert lifted[0].coeff((1, 0)) == k3.one()


class TestContractExtendRoundTrip:
    def test_twenty_randomized_round_trips(self):
        k = shift_field()
        rng = random.Random(20260818)
        picks = [Fraction(n, d) for n in (-3, -2, -1, 1, 2, 3) for d in (1, 2)]
        for trial in range(20):
            f1 = laurent2(k, {
                (2, 0): rng.choice(picks),
                (0, 1): rng.choice(picks + [0]),
                (0, 0): rng.choice(picks + [0]),
            })
            f2 = laurent2(k, {
                (0, 2): rng.choice(picks),
                (0, 1): rng.choice(picks + [0]),
                (0, 0): rng.choice(picks + [0]),
            })
            canon = ideal_contract(k, [f1, f2])
            assert canon.steps == ()
            # mixing with a nonconstant unit of the coefficient field hides
            # the constant basis; contract must recover it and every
            # difference step must strictly shrink the support
            mixer = k.x() if trial % 2 == 0 else k.x() + trial
            mixed = f1 + f2.map_coeffs(lambda c: c * mixer)
            res = ideal_contract(k, [mixed])
            assert list(res.generators) == list(canon.generators)
            assert len(res.steps) >= 1
            for before, after in res.steps:
                assert after < before
            # a round trip through extend is the identity on the canonical form
            lifted = ideal_extend(k, list(canon.generators))
            again = ideal_contract(k, lifted)
            assert list(again.generators) == list(canon.generators)
