"""Ordered end-to-end acceptance gate: one test per advertised guarantee.

Each test prints a single pass/fail line under ``pytest -v`` and checks
exact frozen values; the derivations live next to the assertions.  The
reference systems come from the shared session cache, so this file adds
almost no build time on top of the unit suites.
"""
from __future__ import annotations

import itertools
import random
from functools import reduce
from math import gcd, lcm

import pytest

import conftest
import test_oracle_corpus as corpus

from pvkit.arith.cyclo import CycloField, CycloNum
from pvkit.base import DiffField, SigmaSpec, apply_sigma_power
from pvkit.engine import (
    build_pv_diagonal,
    build_pv_scalar,
    build_pv_unipotent,
    decompose,
    ideal_contract,
    ideal_extend,
)
from pvkit.errors import NotConstant
from pvkit.groups import (
    connection_matrix_check,
    coordinate_var_names,
    functor_ideal,
    group_transport_check,
    identify_group,
    weak_pv_compare,
)
from pvkit.laurent import LaurentPoly
from pvkit.solve import torsion_order

from dense_witness import compute_ell, compute_m, entry_power

TRANSPORT_NAMES = (
    "scalar-order-two",
    "triangular-free-corner",
    "q-scalar-order-two",
    "diagonal-pair",
    "zeta3-twisted-shift",
)


def formatted(gens, names):
    return sorted(g.format(names) for g in gens)


def mat_mul(a, b):
    n, mid, m = len(a), len(b), len(b[0])
    return [[sum((a[i][t] * b[t][j] for t in range(mid)),
                 start=a[i][0] * b[0][j] * 0)
             for j in range(m)] for i in range(n)]


def test_01_sign_flip_scalar_golden_values():
    # sigma(y) = -y over the shift: y^2 is fixed with witness 1, so the
    # ring is C(x)[Y]/(Y^2 - 1) with two components swapped by sigma, and
    # the stabilizer substitution Y -> Y*X forces X^2 = 1.
    p = conftest.presentation("scalar-order-two")
    assert formatted(p.ideal.generators, p.ideal.var_names) == ["-1 + Y^2"]
    assert p.ell == 2
    assert p.krull_dim == 0
    assert identify_group(p).finite_orders == (2,)
    assert formatted(functor_ideal(p), coordinate_var_names(p)) == ["-1 + X^2"]


def test_02_q_logarithm_free_corner_dimensions():
    # sigma(Y) = [[1, 1], [0, 1]] Y at q = 2: sigma(f) - f kills every
    # constant term, so the corner sum 1 has no rational solution and the
    # corner variable stays free: one additive dimension.
    p = conftest.presentation("triangular-free-corner")
    assert identify_group(p).unipotent_dim == 1
    assert p.krull_dim == 1
    assert p.ell == 1


def test_03_square_root_model_golden_values():
    # sigma(s) = 2s with a = -2: y^2 carries witness s^2 with exact root s
    # and primitive marker -1, giving (Y^2 - s^2) and two components; the
    # residue X = Y/s satisfies sigma(X) = -2Y/(2s) = -X.
    p = conftest.presentation("q-scalar-order-two")
    assert formatted(p.ideal.generators, p.ideal.var_names) == ["-s^2 + Y^2"]
    assert p.ell == 2
    assert identify_group(p).finite_orders == (2,)
    k = p.field
    residue = LaurentPoly.monomial(k.k_field, 1, (1,), k.one() / k.x())
    image = p.ideal.sigma_image(residue)
    assert p.ideal.normal_form(image + residue).is_zero()


def test_04_group_transport_under_constant_extensions():
    # adjoining a cube root of unity or a transcendental leaves every
    # invariant and the group description unchanged, and the transported
    # coordinate equations are the coefficientwise lifts
    for name, ext_key in itertools.product(TRANSPORT_NAMES, conftest.EXTENSIONS):
        p = conftest.presentation(name)
        changed = conftest.changed_presentation(name, ext_key)
        ext = conftest.EXTENSIONS[ext_key]
        assert group_transport_check(p, ext, changed=changed) is True
        assert (changed.ell, changed.m_inv, changed.krull_dim) == (
            p.ell, p.m_inv, p.krull_dim)
        assert identify_group(changed) == identify_group(p)
    # the comparison is falsifiable: structurally different groups differ
    assert weak_pv_compare(conftest.presentation("scalar-order-two"),
                           conftest.presentation("zeta3-twisted-shift")) is False


def test_05_solvers_match_exhaustive_oracle():
    report = corpus.run_corpus()
    assert report.entries >= 50
    assert report.max_degree <= 3
    assert report.ops == {"mult", "add"}
    assert report.kinds == {"shift", "qshift"}
    assert not report.disagreements, report.disagreements
    assert not report.bad_witnesses, report.bad_witnesses
    assert report.witnesses_checked > 0


def test_06_invariant_routes_agree_and_count_components():
    # the component count and the invariant degree are recomputed along
    # both detection routes (root extraction vs stride search) and must
    # match the per-factor aggregation; the constants chosen for each
    # system are large enough that the component count also equals the
    # dimension of the constants algebra of the quotient
    for name in conftest.REGISTRY:
        p = conftest.presentation(name)
        assert compute_ell(p) == p.ell
        assert compute_m(p) == p.m_inv
        assert p.ell == reduce(lcm, (f.split for f in p.factors), 1)
        assert p.m_inv == reduce(lcm, (f.m_factor for f in p.factors), 1)
        assert p.idempotents is not None
        assert len(p.idempotents) == p.ell == p.m_inv
        # the box lattice is saturated, so each Smith order is the exact
        # torsion order of its character and the splits are coprime
        for f in p.factors:
            char = entry_power(p.field.k_field, p.system.entries, f.coord)
            assert torsion_order(p.field, char, f.order).order == f.order
        for f, g in itertools.combinations(p.factors, 2):
            assert gcd(f.split, g.split) == 1
    # enlarging the constants further does not move the invariants
    for name in TRANSPORT_NAMES:
        p = conftest.presentation(name)
        bigger = conftest.changed_presentation(name, "zeta3")
        assert (bigger.ell, bigger.m_inv) == (p.ell, p.m_inv)


def test_07_idempotent_orbit_algebra_and_step_matrix():
    # for every multi-component system: e_i = sigma^i(e_0), e_i^2 = e_i,
    # the e_i are orthogonal and sum to 1 modulo the ideal, and each
    # component solves the iterated system sigma^{ell-1}(A) ... sigma(A) A
    checked = 0
    for name in conftest.REGISTRY:
        p = conftest.presentation(name)
        if p.ell < 2:
            continue
        ideal = p.ideal
        comps = decompose(p)
        es = [c.idempotent for c in comps]
        assert len(es) == p.ell
        walker = es[0]
        for i in range(1, p.ell):
            walker = ideal.normal_form(ideal.sigma_image(walker))
            assert walker == es[i]
        assert ideal.normal_form(ideal.sigma_image(walker)) == es[0]
        total = LaurentPoly.zero(p.field.k_field, ideal.nvars)
        for i, e in enumerate(es):
            assert ideal.normal_form(e * e - e).is_zero()
            for other in es[i + 1:]:
                assert ideal.normal_form(e * other).is_zero()
            total = total + e
        one = LaurentPoly.one(p.field.k_field, ideal.nvars)
        assert ideal.normal_form(total - one).is_zero()
        rows = p.system.matrix()
        expected = rows
        for j in range(1, p.ell):
            shifted = [[apply_sigma_power(p.field, e, j) for e in row]
                       for row in rows]
            expected = mat_mul(shifted, expected)
        for c in comps:
            assert c.step_matrix == expected
        checked += 1
    assert checked == 4


def test_08_group_dimension_equals_krull_dimension():
    sample = [conftest.presentation(name) for name in conftest.REGISTRY]
    sample += [conftest.changed_presentation(name, ext_key)
               for name in TRANSPORT_NAMES for ext_key in conftest.EXTENSIONS]
    k1 = DiffField(SigmaSpec.shift(), CycloField(1))
    x = k1.x()
    k2 = DiffField(SigmaSpec.qshift(2), CycloField(1))
    sample += [
        build_pv_scalar(k1, x),                   # free: a 1-torus
        build_pv_scalar(k1, (x + 1) / x),         # trivial group
        build_pv_diagonal(k1, [x, x]),            # rank-1 diagonal torus
        build_pv_unipotent(k2, k2.x()),           # solved corner, trivial
    ]
    assert len(sample) >= 20
    for p in sample:
        assert identify_group(p).dimension == p.krull_dim


def test_09_constant_ideal_roundtrip_shrinks_support():
    # extending a constant-coefficient ideal into k[Y] and contracting it
    # back is the identity on canonical generators, and re-presenting the
    # same span entangled with nonconstant coefficients is untangled by
    # sigma-difference steps whose support strictly shrinks every time
    rng = random.Random(20260818)
    c = CycloField(1)
    fields = [DiffField(SigmaSpec.shift(), c),
              DiffField(SigmaSpec.qshift(3), c)]
    trials = 0
    for trial in range(20):
        k = fields[trial % 2]
        field = k.k_field
        nvars = 1 + trial % 3
        vectors = sorted(itertools.product(range(3), repeat=nvars))[1:]
        leads = rng.sample(vectors, 2)
        gens = []
        for lead in leads:
            g = LaurentPoly.monomial(field, nvars, lead,
                                     k.coerce(rng.choice([-2, -1, 1, 2, 3])))
            for v in vectors:
                if v < lead and rng.random() < 0.4:
                    g = g + LaurentPoly.monomial(
                        field, nvars, v, k.coerce(rng.choice([-1, 1, 2])))
            gens.append(g)
        canonical = ideal_contract(k, gens)
        assert canonical.steps == ()

        roundtrip = ideal_contract(k, ideal_extend(k, canonical.generators))
        assert roundtrip.generators == canonical.generators
        assert roundtrip.steps == ()

        g1, g2 = ideal_extend(k, canonical.generators)
        u = rng.choice([k.x(), k.x() + 1, k.x() * k.x()])
        entangled = [g1 + LaurentPoly.const(field, nvars, u) * g2]
        recovered = ideal_contract(k, entangled)
        assert recovered.generators == canonical.generators
        assert recovered.steps
        assert all(before > after for before, after in recovered.steps)
        trials += 1
    assert trials == 20


def test_10_connection_constants_and_cocycle():
    # two fundamental solutions of the sign-flip system differ by the
    # constant -1; over Q(zeta_3) the constants compose as a cocycle; a
    # ratio that moves under sigma is rejected
    p = conftest.presentation("scalar-order-two")
    field = p.field.k_field
    y = LaurentPoly.monomial(field, 1, (1,))
    assert connection_matrix_check(p, y, -y) == LaurentPoly.const(field, 1, -1)

    k3 = DiffField(SigmaSpec.qshift(2), CycloField(3), "s")
    p3 = build_pv_scalar(k3, k3.coerce(-2))
    z3 = k3.coerce(CycloNum.zeta(3))
    y3 = LaurentPoly.monomial(k3.k_field, 1, (1,))
    u, v, w = y3, z3 * y3, -(z3 * y3)
    p_uv = connection_matrix_check(p3, u, v)
    p_vw = connection_matrix_check(p3, v, w)
    p_uw = connection_matrix_check(p3, u, w)
    assert p_uv == LaurentPoly.const(k3.k_field, 1, CycloNum.zeta(3) ** 2)
    assert p_vw == LaurentPoly.const(k3.k_field, 1, -1)
    assert p3.ideal.normal_form(p_uv * p_vw) == p_uw

    free = build_pv_scalar(DiffField(SigmaSpec.shift(), CycloField(1)), 2)
    yf = LaurentPoly.monomial(free.field.k_field, 1, (1,))
    drifting = LaurentPoly.monomial(free.field.k_field, 1, (1,),
                                    free.field.x())
    with pytest.raises(NotConstant):
        connection_matrix_check(free, yf, drifting)
