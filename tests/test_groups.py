"""Group identification, coordinate equations, base change, and connection
matrices.

Golden values were derived by hand from the stabilizer substitution
Y -> Y*X before the module existed:

* shift, a = -1, ideal (Y^2 - 1): substituting gives X^2 Y^2 - 1, and
  Y^2 reduces to 1, so the single coordinate equation is X^2 - 1.
* shift, a = (x+1)/x, ideal (Y - x): X Y - x reduces to x(X - 1); the
  group is trivial.
* diagonal shift (-1, -(x+1)/x), rows (1,1) and (0,2) with witnesses
  x and x^2: the equations are X1 X2 - 1 and X2^2 - 1, a group of order
  two embedded antidiagonally in the torus.
* triangular q = 2, b = 1 (no rational telescoping sum): only the pinned
  diagonal contributes, X11 - 1 and X22 - 1, leaving the corner free.
* triangular shift, b = 1, solved by f = x: the corner generator
  Y12 - x*Y11 turns into X12 + x(X22 - X11), whose constants-basis slots
  are X12 (degree 0) and X22 - X11 (degree 1); the group is trivial.
* connection constants on (Y^2 - s^2) over Q(zeta_3), q = 2: the residue
  Y is inverted through Y^2 = s^2, so (zeta_3 Y)^{-1} = zeta_3^2 Y / s^2
  and Y * (zeta_3 Y)^{-1} reduces to zeta_3^2.
"""

import dataclasses

import pytest

import conftest

from pvkit.arith.cyclo import CycloField, CycloNum
from pvkit.arith.poly import RatFuncField
from pvkit.base import DiffField, SigmaSpec
from pvkit.engine import (
    SigmaIdeal,
    build_pv_diagonal,
    build_pv_scalar,
    build_pv_unipotent,
)
from pvkit.errors import (
    NotConstant,
    NotFundamental,
    ShapeMismatch,
    UnsupportedShape,
)
from pvkit.groups import (
    ConstantsExtensionDesc,
    GroupDesc,
    connection_matrix_check,
    coordinate_var_names,
    evaluate_coordinate_point,
    extend_field,
    functor_ideal,
    group_transport_check,
    identify_group,
    weak_pv_compare,
    _coordinate_ideals_equal,
    _lift_laurent,
)
from pvkit.laurent import LaurentPoly
from pvkit.snf import smith_normal_form
from pvkit.solve import LatticeBasis


def shift_field(conductor=1):
    return DiffField(SigmaSpec.shift(), CycloField(conductor))


def qshift_field(q, conductor=1, var="x"):
    return DiffField(SigmaSpec.qshift(q), CycloField(conductor), var)


def mono(k, exps, coeff=1):
    exps = tuple(exps)
    return LaurentPoly.monomial(k.k_field, len(exps), exps, coeff)


def binomial(k, nvars, exps):
    """X^exps - 1 over k, the expected shape of a lattice-row equation."""
    return (LaurentPoly.monomial(k.k_field, nvars, exps)
            - LaurentPoly.one(k.k_field, nvars))


def same_gens(gens, expected):
    key = lambda g: g.format()
    return sorted(gens, key=key) == sorted(expected, key=key)


def example_a():
    return conftest.presentation("scalar-order-two")


def example_b():
    return conftest.presentation("triangular-free-corner")


def example_c(conductor=1):
    if conductor == 1:
        return conftest.presentation("q-scalar-order-two")
    k = qshift_field(2, conductor=conductor, var="s")
    return build_pv_scalar(k, k.coerce(-2))


def diagonal_pair():
    return conftest.presentation("diagonal-pair")


def order_three():
    return conftest.presentation("order-three")


class TestFunctorIdeal:
    def test_order_two_scalar(self):
        p = example_a()
        assert functor_ideal(p) == (binomial(p.field, 1, (2,)),)

    def test_free_scalar_has_no_equations(self):
        k = shift_field()
        p = build_pv_scalar(k, k.coerce(2))
        assert functor_ideal(p) == ()

    def test_trivial_group(self):
        k = shift_field()
        x = k.x()
        p = build_pv_scalar(k, (x + 1) / x)
        assert functor_ideal(p) == (binomial(p.field, 1, (1,)),)

    def test_diagonal_pair(self):
        p = diagonal_pair()
        gens = functor_ideal(p)
        assert same_gens(gens, [binomial(p.field, 2, (1, 1)),
                                binomial(p.field, 2, (0, 2))])

    def test_laurent_equation_for_rank_one_torus(self):
        k = shift_field()
        x = k.x()
        p = build_pv_diagonal(k, [x, x])
        assert functor_ideal(p) == (binomial(p.field, 2, (1, -1)),)

    def test_every_lattice_equation_is_a_binomial(self):
        # the vanishing set is closed under the group law because each
        # equation says one lattice character equals 1
        for p in (example_a(), example_c(), diagonal_pair(), order_three()):
            for g in functor_ideal(p):
                assert len(g.terms) == 2
                const = g.terms[(0,) * g.nvars]
                assert const == -p.field.one()
                lead = max(e for e in g.terms if any(e))
                assert g.terms[lead] == p.field.one()
                assert p.lattice.contains(list(lead))

    def test_unipotent_free(self):
        p = example_b()
        gens = functor_ideal(p)
        names = coordinate_var_names(p)
        assert names == ("X11", "X12", "X22")
        formatted = {g.format(names) for g in gens}
        assert formatted == {"-1 + X11", "-1 + X22"}

    def test_unipotent_solved_pins_the_corner(self):
        k = shift_field()
        p = build_pv_unipotent(k, k.one())
        formatted = {g.format(coordinate_var_names(p))
                     for g in functor_ideal(p)}
        assert formatted == {"-1 + X11", "-1 + X22", "X12", "-X22 + X11"}

    def test_unipotent_zero_corner(self):
        k = shift_field()
        p = build_pv_unipotent(k, k.zero())
        formatted = {g.format(coordinate_var_names(p))
                     for g in functor_ideal(p)}
        assert formatted == {"-1 + X11", "-1 + X22", "X12"}


class TestIdentifyGroup:
    def test_order_two_scalar(self):
        g = identify_group(example_a())
        assert g.torus_rank == 0
        assert g.finite_orders == (2,)
        assert g.unipotent_dim == 0
        assert g.dimension == 0
        assert g.defined_over_conductor == 1
        assert g.constants_extension_trivial is True
        assert g.coordinate_ideal is not None
        assert g.describe() == "finite part Z/2"

    def test_unipotent_free(self):
        g = identify_group(example_b())
        assert g.torus_rank == 0
        assert g.finite_orders == ()
        assert g.unipotent_dim == 1
        assert g.dimension == 1
        assert g.describe() == "additive group of dimension 1"

    def test_unipotent_solved_is_trivial(self):
        k = shift_field()
        g = identify_group(build_pv_unipotent(k, k.one()))
        assert g.dimension == 0
        assert g.describe() == "trivial group"

    def test_qshift_on_s(self):
        g = identify_group(example_c())
        assert g.finite_orders == (2,)
        assert g.dimension == 0

    def test_diagonal_pair_smith_form(self):
        g = identify_group(diagonal_pair())
        assert g.torus_rank == 0
        assert g.finite_orders == (2,)

    def test_free_diagonal_is_a_torus(self):
        k = qshift_field(5)
        p = build_pv_diagonal(k, [k.coerce(2), k.coerce(3)])
        g = identify_group(p)
        assert g.torus_rank == 2
        assert g.finite_orders == ()
        assert g.describe() == "torus of rank 2"

    def test_mixed_torus_and_finite(self):
        k = shift_field()
        x = k.x()
        p = build_pv_diagonal(k, [x, x])
        g = identify_group(p)
        assert g.torus_rank == 1
        assert g.finite_orders == ()

    def test_square_root_of_the_variable(self):
        # ideal (Y^2 - x): the stabilizer negates Y even though the ring
        # has a single component
        g = identify_group(conftest.presentation("square-root-of-x"))
        assert g.finite_orders == (2,)
        assert g.dimension == 0

    def test_torsion_points_satisfy_the_equations(self):
        # for each invariant factor d, the Smith transform names a point of
        # exact order d in the torus; it must satisfy every equation, and
        # its refinement to order 2d must violate at least one
        for p in (example_a(), example_c(), diagonal_pair(), order_three()):
            rows = p.lattice.vectors()
            d_mat, _, v_tr = smith_normal_form(rows)
            gens = functor_ideal(p)
            k = p.field
            for i in range(len(rows)):
                d = d_mat[i][i]
                if d <= 1:
                    continue
                member = [CycloNum.zeta(d) ** v_tr[j][i]
                          for j in range(len(v_tr))]
                assert all(r.is_zero()
                           for r in evaluate_coordinate_point(k, gens, member))
                outside = [CycloNum.zeta(2 * d) ** v_tr[j][i]
                           for j in range(len(v_tr))]
                residues = evaluate_coordinate_point(k, gens, outside)
                assert any(not r.is_zero() for r in residues)


ROOT3 = conftest.EXTENSIONS["zeta3"]
ONE_T = conftest.EXTENSIONS["t1"]


def zeta3_shift():
    return conftest.presentation("zeta3-twisted-shift")


class TestBaseChange:
    @pytest.mark.parametrize("ext_key", ["zeta3", "t1"])
    @pytest.mark.parametrize("name", [
        "scalar-order-two", "triangular-free-corner", "q-scalar-order-two",
        "diagonal-pair", "zeta3-twisted-shift",
    ])
    def test_invariants_and_group_survive(self, name, ext_key):
        p = conftest.presentation(name)
        q = conftest.changed_presentation(name, ext_key)
        ext = conftest.EXTENSIONS[ext_key]
        assert (q.ell, q.m_inv, q.krull_dim) == (p.ell, p.m_inv, p.krull_dim)
        assert q.constants_ext_degree == p.constants_ext_degree
        assert identify_group(q) == identify_group(p)
        assert group_transport_check(p, ext, changed=q) is True

    def test_transport_check_rejects_a_foreign_base_change(self):
        p = example_a()
        q = conftest.changed_presentation("scalar-order-two", "zeta3")
        with pytest.raises(ValueError):
            group_transport_check(p, conftest.EXTENSIONS["t1"], changed=q)

    def test_root_of_unity_merges_conductors(self):
        p = conftest.presentation("square-root-of-x")
        q = conftest.changed_presentation("square-root-of-x", "zeta3")
        assert q.field.constants_conductor == 24
        assert (q.ell, q.m_inv, q.krull_dim) == (p.ell, p.m_inv, p.krull_dim)
        assert identify_group(q) == identify_group(p)

    def test_extension_is_idempotent_on_matching_conductor(self):
        q = conftest.changed_presentation("zeta3-twisted-shift", "zeta3")
        assert q.field.constants_conductor == 3

    def test_transcendental_names_avoid_collisions(self):
        k = extend_field(shift_field(), ONE_T)
        k2 = extend_field(k, ONE_T)
        inner = k2.constants
        names = []
        while isinstance(inner, RatFuncField):
            names.append(inner.var)
            inner = inner.inner
        assert sorted(names) == ["t1", "t2"]

    def test_two_transcendentals_at_once(self):
        k = extend_field(shift_field(),
                         ConstantsExtensionDesc.adjoin_transcendental(2))
        inner = k.constants
        names = []
        while isinstance(inner, RatFuncField):
            names.append(inner.var)
            inner = inner.inner
        assert sorted(names) == ["t1", "t2"]

    def test_extension_validation(self):
        with pytest.raises(ValueError):
            ConstantsExtensionDesc.adjoin_root_of_unity(0)
        with pytest.raises(ValueError):
            ConstantsExtensionDesc("weird", 1)


class TestTransportNegativeControls:
    def test_mismatched_groups_are_detected(self):
        # the comparison the transport check runs must be able to fail:
        # order two against order three over the same extended field
        p2 = example_a()
        p3 = order_three()
        target = extend_field(p3.field, ROOT3)
        lifted2 = tuple(_lift_laurent(g, target) for g in functor_ideal(p2))
        lifted3 = tuple(_lift_laurent(g, target) for g in functor_ideal(p3))
        assert not _coordinate_ideals_equal(lifted2, lifted3)
        assert _coordinate_ideals_equal(lifted3, lifted3)

    def test_group_descriptions_compare_by_value(self):
        assert identify_group(example_a()) != identify_group(order_three())
        assert identify_group(example_a()) == identify_group(example_c())

    def test_weak_compare_rejects_different_orders(self):
        assert weak_pv_compare(example_a(), order_three()) is False

    def test_weak_compare_rejects_different_shapes(self):
        with pytest.raises(ShapeMismatch):
            weak_pv_compare(example_a(), example_b())
        k = qshift_field(5)
        pair = build_pv_diagonal(k, [k.coerce(2), k.coerce(3)])
        with pytest.raises(ShapeMismatch):
            weak_pv_compare(diagonal_pair(), example_a())
        assert weak_pv_compare(pair, pair) is True


class TestWeakPVComparison:
    def test_rescaled_witness_over_new_constants(self):
        # a different fundamental solution t*Y over the enlarged constants
        # presents the same ring with witness t^2; the group must agree
        p = example_a()
        p_ext = conftest.changed_presentation("scalar-order-two", "t1")
        new_k = p_ext.field
        inner = new_k.k_field.inner
        t = new_k.coerce(inner.x())
        scaled = t ** 2 * p_ext.lattice.rows[0][1]
        ideal2 = SigmaIdeal.from_lattice(
            new_k, p_ext.ideal.characters, [((2,), scaled)], ("Y",))
        p_weak = dataclasses.replace(
            p_ext, ideal=ideal2,
            lattice=LatticeBasis(1, [((2,), scaled)], new_k.k_field))
        assert weak_pv_compare(p, p_weak) is True
        assert functor_ideal(p_weak) == functor_ideal(p_ext)

    def test_scalar_is_a_one_entry_diagonal(self):
        k = shift_field()
        assert weak_pv_compare(build_pv_scalar(k, -1),
                               build_pv_diagonal(k, [-1])) is True

    def test_unipotent_weak_copy(self):
        p = example_b()
        q = conftest.changed_presentation("triangular-free-corner", "t1")
        assert weak_pv_compare(p, q) is True
        ga, gb = identify_group(p), identify_group(q)
        assert ga.dimension == gb.dimension == 1


class TestConnectionMatrix:
    def test_sign_flip(self):
        p = example_a()
        y = mono(p.field, (1,))
        ratio = connection_matrix_check(p, y, -y)
        assert ratio == LaurentPoly.const(p.field.k_field, 1, -1)

    def test_identity(self):
        p = example_a()
        y = mono(p.field, (1,))
        assert connection_matrix_check(p, y, y) == LaurentPoly.one(
            p.field.k_field, 1)

    def test_free_ring_rejects_non_constant_ratio(self):
        k = shift_field()
        p = build_pv_scalar(k, k.coerce(2))
        y = mono(k, (1,))
        with pytest.raises(NotConstant) as err:
            connection_matrix_check(p, y, k.x() * y)
        assert "value" in err.value.details

    def test_zero_divisor_is_not_fundamental(self):
        p = example_a()
        y = mono(p.field, (1,))
        with pytest.raises(NotFundamental):
            connection_matrix_check(p, y, y + 1)

    def test_zero_is_not_fundamental(self):
        p = example_a()
        y = mono(p.field, (1,))
        with pytest.raises(NotFundamental):
            connection_matrix_check(p, y, y - y)

    def test_free_ring_needs_a_monomial(self):
        k = shift_field()
        p = build_pv_scalar(k, k.coerce(2))
        y = mono(k, (1,))
        with pytest.raises(NotFundamental):
            connection_matrix_check(p, y, y + 1)

    def test_free_ring_monomial_inverse(self):
        k = shift_field()
        p = build_pv_scalar(k, k.coerce(2))
        y = mono(k, (1,))
        ratio = connection_matrix_check(p, y, -y)
        assert ratio == LaurentPoly.const(k.k_field, 1, -1)

    def test_cocycle_over_conductor_three(self):
        p = example_c(conductor=3)
        k = p.field
        z3 = k.coerce(CycloNum.zeta(3))
        y = mono(k, (1,))
        u, v, w = y, z3 * y, -(z3 * y)
        p_uv = connection_matrix_check(p, u, v)
        p_vw = connection_matrix_check(p, v, w)
        p_uw = connection_matrix_check(p, u, w)
        assert p_uv == LaurentPoly.const(k.k_field, 1, CycloNum.zeta(3) ** 2)
        assert p_vw == LaurentPoly.const(k.k_field, 1, -1)
        assert p.ideal.normal_form(p_uv * p_vw) == p_uw

    def test_residue_against_scaled_solution(self):
        # Y and Y/s both solve the scaled equations of the same ring; their
        # ratio is the non-sigma-fixed residue s, so it must be rejected
        p = example_c()
        k = p.field
        y = mono(k, (1,))
        with pytest.raises(NotConstant):
            connection_matrix_check(p, y, mono(k, (1,), coeff=k.x()))

    def test_unsupported_shape(self):
        p = example_b()
        y = LaurentPoly.variable(p.field.k_field, 3, 0)
        with pytest.raises(UnsupportedShape):
            connection_matrix_check(p, y, y)
        p = diagonal_pair()
        y = LaurentPoly.variable(p.field.k_field, 2, 0)
        with pytest.raises(UnsupportedShape):
            connection_matrix_check(p, y, y)

    def test_one_entry_diagonal(self):
        k = qshift_field(2)
        p = build_pv_diagonal(k, [-2])
        y = mono(k, (1,))
        ratio = connection_matrix_check(p, y, -y)
        assert ratio == LaurentPoly.const(k.k_field, 1, -1)


class TestGroupDescEquality:
    def test_reflexive_and_cross_field(self):
        p = example_a()
        g = identify_group(p)
        assert g == identify_group(p)
        q = conftest.changed_presentation("scalar-order-two", "zeta3")
        assert g == identify_group(q)

    def test_not_equal_to_other_types(self):
        g = identify_group(example_a())
        assert (g == 17) is False or (g != 17)

    def test_describe_composite(self):
        desc = GroupDesc(
            torus_rank=1, finite_orders=(2,), unipotent_dim=0,
            coordinate_ideal=None, coordinate_vars=("X1", "X2"),
            defined_over_conductor=1)
        assert desc.describe() == "torus of rank 1 times finite part Z/2"
