from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pvkit.arith import CycloField, CycloNum, Poly, RatFunc
from pvkit.arith.ops import qpower_log
from pvkit.arith.poly import RatFuncField
from pvkit.base import (
    DiffField,
    SigmaSpec,
    apply_sigma,
    apply_sigma_power,
    is_constant,
)
from pvkit.errors import DimensionTooLarge, ZeroInput
from pvkit.laurent import BinomialNF, LaurentPoly
from pvkit.snf import hermite_normal_form
from pvkit.solve import (
    LatticeBasis,
    MultSolution,
    TorsionCert,
    relation_lattice,
    solve_add,
    solve_mult,
    torsion_order,
)

from dense_add import dense_solve_add
from peel_mult import peel_solve_mult


def shift_field(conductor: int = 1) -> DiffField:
    from pvkit.arith import CycloField

    return DiffField(sigma=SigmaSpec.shift(), constants=CycloField(conductor))


def qshift_field(q, conductor: int = 1, var: str = "x") -> DiffField:
    from pvkit.arith import CycloField

    field = CycloField(conductor)
    return DiffField(
        sigma=SigmaSpec.qshift(field.coerce(q)), constants=field, var=var
    )


def _check_mult(k: DiffField, r, sol, step: int = 1):
    assert sol is not None
    f = sol.witness
    assert apply_sigma_power(k, f, step) / f == k.coerce(r)
    assert f.num.is_monic()


# ---------------------------------------------------------------- solve_mult


def test_mult_shift_basic():
    k = shift_field()
    x = k.x()
    sol = solve_mult(k, (x + 1) / x)
    _check_mult(k, (x + 1) / x, sol)
    assert sol.witness == x


def test_mult_shift_constant_two_has_no_solution():
    k = shift_field()
    assert solve_mult(k, k.coerce(2)) is None


def test_mult_shift_x_has_no_solution():
    k = shift_field()
    assert solve_mult(k, k.x()) is None


def test_mult_shift_one():
    k = shift_field()
    sol = solve_mult(k, k.one())
    assert sol.witness == k.one()


def test_mult_shift_inverse_orbit():
    k = shift_field()
    x = k.x()
    sol = solve_mult(k, x / (x + 1))
    assert sol.witness == 1 / x


def test_mult_shift_orbit_span_two():
    k = shift_field()
    x = k.x()
    sol = solve_mult(k, (x + 2) / x)
    assert sol.witness == x * (x + 1)


def test_mult_shift_squared_orbit():
    k = shift_field()
    x = k.x()
    sol = solve_mult(k, (x + 1) ** 2 / x**2)
    assert sol.witness == x**2


def test_mult_shift_step_two():
    # sigma^2(x)/x = (x+2)/x
    k = shift_field()
    x = k.x()
    sol = solve_mult(k, (x + 2) / x, step=2)
    assert sol.witness == x
    # but (x+1)/x is not a sigma^2-quotient: orbit offset is odd
    assert solve_mult(k, (x + 1) / x, step=2) is None


def test_mult_qshift_q_itself():
    k = qshift_field(2)
    sol = solve_mult(k, k.coerce(2))
    assert sol.witness == k.x()


def test_mult_qshift_power_and_inverse():
    k = qshift_field(2)
    x = k.x()
    assert solve_mult(k, k.coerce(4)).witness == x**2
    k_half = qshift_field(Fraction(1, 2))
    assert solve_mult(k_half, k_half.coerce(2)).witness == 1 / k_half.x()


def test_mult_qshift_non_power_constant():
    k = qshift_field(2)
    assert solve_mult(k, k.coerce(3)) is None


def test_mult_qshift_x_blocked_at_origin():
    # sigma(f)/f is always a unit at x = 0, so r = x is unreachable
    k = qshift_field(2)
    assert solve_mult(k, k.x()) is None


def test_mult_qshift_scaled_orbit():
    k = qshift_field(2)
    x = k.x()
    sol = solve_mult(k, (2 * x + 1) / (x + 1))
    assert sol.witness == x + 1


def test_mult_qshift_step_two():
    k = qshift_field(2)
    sol = solve_mult(k, k.coerce(4), step=2)
    assert sol.witness == k.x()


def test_mult_zero_input():
    k = shift_field()
    with pytest.raises(ZeroInput):
        solve_mult(k, k.zero())


@given(
    num=st.lists(st.integers(-3, 3), min_size=1, max_size=3),
    den=st.lists(st.integers(-3, 3), min_size=1, max_size=3),
    kind=st.sampled_from(["shift", "qshift"]),
)
@settings(max_examples=60, deadline=None)
def test_mult_round_trip_on_sigma_quotients(num, den, kind):
    k = shift_field() if kind == "shift" else qshift_field(2)
    from pvkit.arith import Poly

    pn = Poly(k.k_field.inner, [Fraction(c) for c in num])
    pd = Poly(k.k_field.inner, [Fraction(c) for c in den])
    if pn.degree() < 0 or pd.degree() < 0:
        return
    f = k.coerce(pn) / k.coerce(pd)
    if f.is_zero():
        return
    r = apply_sigma(k, f) / f
    sol = solve_mult(k, r)
    _check_mult(k, r, sol)


_small_roots = st.lists(
    st.tuples(st.sampled_from([-2, -1, 1, 2, 4]), st.integers(-2, 2)),
    max_size=2)


def _dilate(f: RatFunc, s: int) -> RatFunc:
    return RatFunc(f.num.scale_arg(s), f.den.scale_arg(s))


def _from_roots(k: DiffField, pairs):
    f = k.one()
    for root, mult in pairs:
        f = f * (k.x() - root) ** mult
    return f


@given(
    witness=_small_roots,
    noise=_small_roots,
    scale=st.sampled_from([1, -1, 2]),
    step=st.sampled_from([2, 3]),
    kind=st.sampled_from(["shift", "qshift"]),
)
@settings(max_examples=40, deadline=None)
def test_mult_step_agrees_with_the_unit_step(witness, noise, scale, step, kind):
    # sigma^s(f)/f = r with sigma = (x -> x+1) is g(x+1)/g(x) = r(s*x) for
    # g = f(s*x); with sigma = (x -> q*x) it is the same question for q^s
    k = shift_field() if kind == "shift" else qshift_field(2)
    f = _from_roots(k, witness)
    r = apply_sigma_power(k, f, step) / f * _from_roots(k, noise) * scale
    sol = solve_mult(k, r, step=step)
    if kind == "shift":
        unit = solve_mult(k, _dilate(r, step))
        assert (sol is None) == (unit is None)
        if sol is not None:
            g = _dilate(sol.witness, step)
            assert unit.witness == g / g.num.lc()
    else:
        unit = solve_mult(qshift_field(2 ** step), r)
        assert (sol is None) == (unit is None)
        if sol is not None:
            assert sol.witness == unit.witness
    if not noise and scale == 1:
        _check_mult(k, r, sol, step)


_PEEL_SIGMAS = ["shift", 2, 3, Fraction(1, 2), "2 zeta3"]


@st.composite
def _peel_cases(draw):
    """(k, r, step): r = c * sigma^step(f)/f * noise over Q, Q(zeta_3) or
    Q(t1).  f and the noise are products of sigma-translates of small
    factors, repeated ones among them, and of factors holding two roots of
    one orbit, x(x+2) and (x+1/2)(x+5/2) or (x-1)(x-q^2), which the noise
    brings in with no partner; or the noise is a sigma^s-quotient, s =
    1..3, whose offsets may miss the residues mod step.  c is a small
    rational, or over Q(t1) may involve t1.  Half the cases are quotients,
    with no noise and c = 1 or a power of q^step."""
    sigma = draw(st.sampled_from(_PEEL_SIGMAS))
    tower = sigma != "2 zeta3" and draw(st.booleans())
    if tower:
        constants = RatFuncField(CycloField(1), "t1")
    else:
        constants = CycloField(3 if sigma == "2 zeta3" else 1)
    if sigma == "shift":
        spec = SigmaSpec.shift()
    else:
        spec = SigmaSpec.qshift(CycloNum.zeta(3) * 2 if sigma == "2 zeta3"
                                else CycloNum.from_rational(sigma))
    k = DiffField(sigma=spec, constants=constants)
    x = k.x()
    if sigma == "shift":
        bases = [x, x + Fraction(1, 2), x * (x + 2),
                 (x + Fraction(1, 2)) * (x + Fraction(5, 2)), x * x + 1]
    else:
        bases = [x, x - 1, x - 3, (x - 1) * apply_sigma_power(k, x - 1, -2),
                 x * x + 1]
    if tower:
        bases = bases[:4]

    def product(min_size, max_size):
        out = k.one()
        for base, s, e in draw(st.lists(
                st.tuples(st.sampled_from(bases), st.integers(0, 3),
                          st.sampled_from([-2, -1, 1, 2])),
                min_size=min_size, max_size=max_size)):
            out = out * apply_sigma_power(k, base, s) ** e
        return out

    step = draw(st.integers(1, 3))
    f = product(0, 2)
    if draw(st.booleans()):
        # a quotient, with a constant q^(step e) for the dilation
        f = f * x ** (0 if sigma == "shift" else draw(st.integers(-1, 1)))
        return k, apply_sigma_power(k, f, step) / f, step
    # a lone factor, or a sigma^s-quotient, a sigma^step-quotient only
    # for some s
    g = product(1, 1)
    noise = (g if draw(st.booleans())
             else apply_sigma_power(k, g, draw(st.integers(1, 3))) / g)
    c = k.coerce(draw(st.sampled_from([1, -1, 2, 4, Fraction(1, 2)])))
    if tower and draw(st.booleans()):
        t = RatFunc(Poly(constants.inner, (0, 1)),
                    Poly(constants.inner, (1,)))
        c = c * k.coerce(t + constants.one * draw(st.integers(0, 1)))
    return k, c * apply_sigma_power(k, f, step) / f * noise, step


@given(case=_peel_cases())
@settings(max_examples=80, deadline=None)
def test_mult_agrees_with_the_dispersion_peel(case):
    # the dispersion peel (tests/peel_mult.py) decides the same question
    # with no factor basis; both witnesses have a monic numerator, which
    # makes them unique
    k, r, step = case
    sol = solve_mult(k, r, step=step)
    want = peel_solve_mult(k, r, step)
    assert (sol is None) == (want is None)
    if sol is not None:
        assert sol.witness == want
        _check_mult(k, r, sol, step)


# --------------------------------------------------------------- discrete log


def test_discrete_log_agrees_with_brute_force_powers():
    # q = 2 zeta3 has norm 4, so N(q^e) = 4^e fixes e at any size, far
    # past the window of a norm-one q
    q = 2 * CycloNum.zeta(3)
    powers = [q ** e for e in range(-200, 201)]
    for e, z in zip(range(-200, 201), powers):
        assert qpower_log(z, q) == (e, True)
        assert [f for f, power in zip(range(-200, 201), powers)
                if power == z] == [e]
        # zeta3 q^e = q^f would give zeta3 = q^(f-e) of norm 4^(f-e), so
        # f = e and zeta3 = 1: no power of q
        assert qpower_log(CycloNum.zeta(3) * z, q) == (None, True)


def test_discrete_log_window_edges_for_irrational_q():
    # q = (3+4i)/5 has norm 1 and is no root of unity: only the window
    # |e| <= 128 is searched, and a miss there is uncertain
    q = (3 + 4 * CycloNum.zeta(4)) * Fraction(1, 5)
    assert qpower_log(q ** 128, q) == (128, True)
    assert qpower_log(q ** -128, q) == (-128, True)
    assert qpower_log(q ** 129, q) == (None, False)
    assert qpower_log(q ** -129, q) == (None, False)
    # a norm other than 1 is no power of q, at any exponent
    assert qpower_log(2 * q ** 300, q) == (None, True)


def test_discrete_log_rational_q_reads_valuations():
    two = CycloField(1).coerce(2)
    # exponents far outside the window are found by the 2-adic valuation
    assert qpower_log(two ** 100, two) == (100, True)
    assert qpower_log(two ** -100, two) == (-100, True)
    # the valuation fits but the sign does not: -8 is not a power of 2
    assert qpower_log(-(two ** 3), two) == (None, True)
    # 3 has 2-adic valuation 0, which pins e = 0, and 3 != 1
    assert qpower_log(CycloField(1).coerce(3), two) == (None, True)
    # q = 1/4, z = 1/2: valuation -1 is not a multiple of -2
    quarter = CycloField(1).coerce(Fraction(1, 4))
    assert qpower_log(CycloField(1).coerce(Fraction(1, 2)), quarter) == (
        None, True)
    assert qpower_log(quarter ** -7, quarter) == (-7, True)


# ----------------------------------------------------------------- solve_add


def test_add_shift_one():
    k = shift_field()
    assert solve_add(k, k.one()) == k.x()


def test_add_shift_zero():
    k = shift_field()
    assert solve_add(k, k.zero()) == k.zero()


def test_add_shift_telescoping_pole():
    k = shift_field()
    x = k.x()
    b = 1 / (x * (x + 1))
    assert solve_add(k, b) == -1 / x


def test_add_shift_polynomial_rhs():
    k = shift_field()
    x = k.x()
    assert solve_add(k, x) == (x**2 - x) / 2


def test_add_shift_partial_fraction_span():
    k = shift_field()
    x = k.x()
    b = 1 / (x * (x + 2))
    f = solve_add(k, b)
    assert f is not None
    assert apply_sigma(k, f) - f == b
    assert f == -(2 * x + 1) / (2 * x * (x + 1))


def test_add_qshift_constant_has_no_solution():
    k = qshift_field(2)
    assert solve_add(k, k.one()) is None


def test_add_qshift_linear_rhs():
    k = qshift_field(2)
    x = k.x()
    assert solve_add(k, x) == x  # sigma(x) - x = 2x - x = x


def test_add_normalization_zero_constant_term():
    # solutions are unique up to an additive constant; the polynomial part
    # must come back with zero constant term
    k = shift_field()
    x = k.x()
    f = solve_add(k, x + 1)
    assert f is not None
    assert apply_sigma(k, f) - f == x + 1
    quot, _ = divmod(f.num, f.den)
    assert quot.nth(0).is_zero()


@given(
    num=st.lists(st.integers(-3, 3), min_size=1, max_size=3),
    den=st.sampled_from([[1], [0, 1], [1, 1], [0, 1, 1]]),
    kind=st.sampled_from(["shift", "qshift"]),
)
@settings(max_examples=60, deadline=None)
def test_add_round_trip_on_sigma_differences(num, den, kind):
    k = shift_field() if kind == "shift" else qshift_field(2)
    from pvkit.arith import Poly

    pn = Poly(k.k_field.inner, [Fraction(c) for c in num])
    pd = Poly(k.k_field.inner, [Fraction(c) for c in den])
    if pn.degree() < 0:
        return
    f = k.coerce(pn) / k.coerce(pd)
    b = apply_sigma(k, f) - f
    g = solve_add(k, b)
    assert g is not None
    assert apply_sigma(k, g) - g == b


def _product(factors, one):
    out = one
    for f in factors:
        out = out * f
    return out


@pytest.mark.parametrize("n", range(4, 13))
def test_add_rising_factorial_chain_witness(n):
    # b = 1/(x(x+1)...(x+n-1)) and f = -1/((n-1) x(x+1)...(x+n-2)):
    # sigma(f) - f = -(x - (x+n-1)) / ((n-1) x(x+1)...(x+n-1)) = b.  The
    # normalized witness is unique, so it is pinned by value.
    k = shift_field()
    x = k.x()
    den = _product([x + i for i in range(n)], k.one())
    want = -1 / ((n - 1) * _product([x + i for i in range(n - 1)], k.one()))
    assert solve_add(k, 1 / den) == want


@pytest.mark.parametrize("n", range(2, 10))
def test_add_q_chain_witness(n):
    # q = 2 and den = (x-1)(x-2)...(x-2^(n-1)).  f = c/((x-2)...(x-2^(n-1)))
    # has sigma(f) = c 2^(1-n)/((x-1)...(x-2^(n-2))), so
    # sigma(f) - f = c (2^(1-n) - 1) x / den: b = x/den takes
    # c = 1/(2^(1-n) - 1).  b = 1/den is refused: sigma(f) - f vanishes at
    # x = 0 for every f regular there, and 1/den does not.
    k = qshift_field(2)
    x = k.x()
    den = _product([x - 2 ** i for i in range(n)], k.one())
    c = 1 / (Fraction(1, 2 ** (n - 1)) - 1)
    want = c / _product([x - 2 ** i for i in range(1, n)], k.one())
    assert solve_add(k, x / den) == want
    assert solve_add(k, 1 / den) is None


def _field_for(kind, constants):
    """A DiffField over Q, Q(zeta_3) or the tower Q(t1)."""
    if constants == "tower":
        inner = RatFuncField(CycloField(1), "t1")
    else:
        inner = CycloField(3 if constants == "zeta3" else 1)
    sigma = (SigmaSpec.shift() if kind == "shift"
             else SigmaSpec.qshift(CycloField(1).coerce(2)))
    return DiffField(sigma=sigma, constants=inner)


def _constant(k, constants, a, b):
    """a + b*w, with w = zeta_3 or t1 (or 1 over Q)."""
    inner = k.constants
    if constants == "tower":
        t = RatFunc(Poly(inner.inner, (0, 1)), Poly(inner.inner, (1,)))
        return inner.coerce(a) + inner.coerce(b) * t
    w = CycloNum.zeta(3) if constants == "zeta3" else inner.one
    return inner.coerce(a) + inner.coerce(b) * inner.coerce(w)


@st.composite
def _sigma_differences(draw, constants_choices=("qq", "zeta3", "tower"),
                       max_factors=3, max_degree=12):
    """(k, f): the poles of f are sigma^s(p)^e for s in 0..3 and e in 1..2,
    up to ``max_factors`` such factors of total degree <= ``max_degree``,
    with p linear or, over Q and Q(zeta_3), quadratic.  Arithmetic over
    the tower is slow, so its f stays small."""
    kind = draw(st.sampled_from(["shift", "qshift"]))
    constants = draw(st.sampled_from(constants_choices))
    k = _field_for(kind, constants)
    x = k.x()
    # for the dilation, x is fixed up to a constant and brings poles at 0
    bases = ([x, x + Fraction(1, 2), x * x + 1] if kind == "shift"
             else [x, x - 1, x - 3, x * x + 1])
    if constants == "tower":
        bases = bases[:2]
    factors = draw(st.lists(
        st.tuples(st.sampled_from(bases), st.integers(0, 3),
                  st.integers(1, 2)),
        min_size=1, max_size=2 if constants == "tower" else max_factors))
    den = k.one()
    for base, s, mult in factors:
        den = den * apply_sigma_power(k, base, s) ** mult
    assume(den.num.degree() <= max_degree)
    coeffs = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-2, 2)),
                           min_size=1, max_size=3))
    num = k.zero()
    for i, (a, b) in enumerate(coeffs):
        num = num + k.coerce(_constant(k, constants, a, b)) * x ** i
    return k, num / den


@given(case=_sigma_differences())
@settings(max_examples=60, deadline=None)
def test_add_round_trip_on_shift_related_poles(case):
    # b = sigma(f) - f comes back as f, up to the additive constant, for
    # repeated shift-related factors over Q, Q(zeta_3) and Q(t1)
    k, f = case
    b = apply_sigma(k, f) - f
    g = solve_add(k, b)
    assert g is not None
    assert apply_sigma(k, g) - g == b
    assert is_constant(k, g - f)


@given(case=_sigma_differences(), extra=st.integers(0, 1),
       mult=st.integers(1, 2))
@settings(max_examples=40, deadline=None)
def test_add_refuses_a_pole_alone_on_its_orbit(case, extra, mult):
    # b + 1/p^e with the sigma-orbit of p holding no pole of b: after every
    # pole of b is moved, 1/p^e stays alone on its orbit and is no
    # sigma-difference
    k, f = case
    x = k.x()
    if k.sigma.kind == "shift":
        p = [x + Fraction(1, 3), x * x + 2][extra]
    else:
        p = [x - 5, x * x + 3][extra]
    b = apply_sigma(k, f) - f
    assert solve_add(k, b + 1 / p ** mult) is None


@st.composite
def _small_rhs(draw):
    """(k, b) over Q or Q(zeta_3): half the time a sigma-difference, else
    an arbitrary b with a small denominator."""
    # the dense solver's system grows with the square of the degree
    case = draw(_sigma_differences(constants_choices=("qq", "zeta3"),
                                   max_factors=2, max_degree=4))
    k, f = case
    if draw(st.booleans()):
        return k, apply_sigma(k, f) - f
    x = k.x()
    num = k.coerce(draw(st.integers(-3, 3))) + draw(st.integers(-2, 2)) * x
    den = draw(st.sampled_from([x, x + 1, x * (x + 2), (x - 1) * (x - 2),
                                (x - 1) ** 2 * (x - 2), x * x + 1]))
    return k, num / den + draw(st.integers(-2, 2))


@given(case=_small_rhs())
@settings(max_examples=40, deadline=None)
def test_add_agrees_with_the_dense_solver(case):
    # the dense universal-denominator solver (tests/dense_add.py) decides
    # the same question by linear algebra; both return the normalized,
    # unique witness, or both refuse
    k, b = case
    assert solve_add(k, b) == dense_solve_add(k, b)


# ------------------------------------------------------------- torsion_order


def test_torsion_minus_one():
    k = shift_field()
    cert = torsion_order(k, k.coerce(-1), 12)
    assert cert == TorsionCert(order=2, witness=k.one())


def test_torsion_rational_function():
    k = shift_field()
    x = k.x()
    cert = torsion_order(k, -(x + 1) / x, 12)
    assert cert is not None
    assert cert.order == 2
    assert cert.witness == x**2


def test_torsion_none_cases():
    k = shift_field()
    assert torsion_order(k, k.x(), 8) is None
    assert torsion_order(k, k.coerce(2), 12) is None


def test_torsion_fourth_root_of_unity():
    k = shift_field(conductor=4)
    i = k.coerce(CycloNum.zeta(4))
    cert = torsion_order(k, i, 12)
    assert cert is not None and cert.order == 4 and cert.witness == k.one()


def test_torsion_qshift_sqrt_t_model():
    # sigma(s) = 2s on C(s); a = -2 picks up torsion 2 with witness s^2
    k = qshift_field(2, var="s")
    cert = torsion_order(k, k.coerce(-2), 12)
    assert cert is not None
    assert cert.order == 2
    assert cert.witness == k.x() ** 2


def test_torsion_qshift_sqrt_two():
    # a = sqrt(2) inside the 8th cyclotomic field; a^2 = 2 = sigma(x)/x
    k = qshift_field(2, conductor=8)
    z = CycloNum.zeta(8)
    sqrt2 = z - z**3
    assert (sqrt2 * sqrt2).is_rational()
    cert = torsion_order(k, k.coerce(sqrt2), 12)
    assert cert is not None
    assert cert.order == 2
    assert cert.witness == k.x()


def test_torsion_minimality_checked_by_rescan():
    k = shift_field()
    x = k.x()
    cert = torsion_order(k, -(x + 1) / x, 12)
    for j in range(1, cert.order):
        assert solve_mult(k, (-(x + 1) / x) ** j) is None


def test_torsion_zero_input():
    k = shift_field()
    with pytest.raises(ZeroInput):
        torsion_order(k, k.zero(), 4)
    with pytest.raises(ValueError):
        torsion_order(k, k.one(), 0)


# ---------------------------------------------------------- relation_lattice


def _same_lattice(basis: LatticeBasis, rows: list[list[int]]) -> bool:
    h1, _ = hermite_normal_form(basis.vectors())
    h2, _ = hermite_normal_form(rows)
    return h1 == h2


def _reduced(k, basis: LatticeBasis, vec) -> tuple:
    """(coefficient, exponent) of Y^vec reduced modulo the lattice's
    binomials Y^v - g_v, as the build reduces: (g, 0) with g the witness
    of prod a_i^{vec_i} for vec in the lattice, else a nonzero residue."""
    field = k.k_field
    nf = BinomialNF(field, basis.dim, basis.rows)
    ((e, c),) = nf.reduce(LaurentPoly.monomial(field, basis.dim,
                                               vec)).terms.items()
    return c, e


def test_lattice_two_torsion_pair():
    k = shift_field()
    x = k.x()
    a = [k.coerce(-1), -(x + 1) / x]
    basis = relation_lattice(k, a, 4)
    assert _same_lattice(basis, [[1, -1], [2, 0]])
    # every stored row must re-substitute
    for vec, g in basis.rows:
        prod = k.one()
        for ai, mi in zip(a, vec):
            prod = prod * ai**mi
        assert apply_sigma(k, g) / g == prod
    # the witnesses for the reference combination vectors come out exactly
    assert _reduced(k, basis, [1, -1]) == (1 / x, (0, 0))
    assert _reduced(k, basis, [2, 0]) == (k.one(), (0, 0))
    assert _reduced(k, basis, [1, 0])[1] != (0, 0)


def test_lattice_no_relation():
    k = shift_field()
    basis = relation_lattice(k, [k.x()], 6)
    assert basis.rank() == 0
    assert basis.vectors() == []


def test_lattice_single_quotient():
    k = shift_field()
    x = k.x()
    basis = relation_lattice(k, [(x + 1) / x], 6)
    assert basis.vectors() == [[1]]
    assert basis.rows[0][1] == x


def test_lattice_equal_characters():
    k = shift_field()
    x = k.x()
    basis = relation_lattice(k, [x, x], 4)
    assert _same_lattice(basis, [[1, -1]])
    assert _reduced(k, basis, [1, -1]) == (k.one(), (0, 0))


def test_lattice_qshift_independent_pair():
    k = qshift_field(5)
    basis = relation_lattice(k, [k.coerce(2), k.coerce(3)], 4)
    assert basis.rank() == 0


def test_lattice_qshift_power_characters_fill_everything():
    # over q = 2 every power of 2 is already sigma(x^e)/x^e, so the
    # characters (2, 4) admit every exponent vector
    k = qshift_field(2)
    basis = relation_lattice(k, [k.coerce(2), k.coerce(4)], 4)
    assert _same_lattice(basis, [[1, 0], [0, 1]])


def test_lattice_qshift_parity_sublattice():
    # q = 4: 2^m1 * 8^m2 = 4^e forces m1 + 3 m2 = 2e, i.e. m1 + m2 even
    k = qshift_field(4)
    basis = relation_lattice(k, [k.coerce(2), k.coerce(8)], 4)
    assert _same_lattice(basis, [[1, 1], [0, 2]])
    x = k.x()
    assert _reduced(k, basis, [1, 1]) == (x**2, (0, 0))
    assert _reduced(k, basis, [2, 0]) == (x, (0, 0))
    assert _reduced(k, basis, [1, 0])[1] != (0, 0)


def test_lattice_errors():
    k = shift_field()
    with pytest.raises(ZeroInput):
        relation_lattice(k, [k.zero()], 4)
    with pytest.raises(ValueError):
        relation_lattice(k, [k.one()], 0)
    # four trivial characters: every vector is a relation, read off exactly
    basis = relation_lattice(k, [k.one()] * 4, 4)
    assert basis.exact and basis.vectors() == [
        [int(i == j) for j in range(4)] for i in range(4)]
    # the bounded search for a unit like 1 + sqrt(2) keeps the n <= 3 cap
    k8 = shift_field(conductor=8)
    with pytest.raises(DimensionTooLarge):
        relation_lattice(k8, [k8.coerce(_one_plus_sqrt2()), 2, 3, 5], 4)


def test_lattice_row_sums_recombine():
    # coherence: componentwise sums of rows stay realizable with the
    # product witness
    k = shift_field()
    x = k.x()
    a = [k.coerce(-1), -(x + 1) / x]
    basis = relation_lattice(k, a, 4)
    if len(basis.rows) >= 2:
        (v1, g1), (v2, g2) = basis.rows[0], basis.rows[1]
        vec = [c1 + c2 for c1, c2 in zip(v1, v2)]
        g = g1 * g2
        prod = k.one()
        for ai, mi in zip(a, vec):
            prod = prod * ai**mi
        assert apply_sigma(k, g) / g == prod


# ------------------------------------------- cross-checks against the box


def _box_lattice(k: DiffField, entries, m: int) -> list[list[int]]:
    """Hermite form of the lattice spanned by every vector of the box
    |v_i| <= m whose character product ``solve_mult`` certifies."""
    found = []
    for vec in itertools.product(range(-m, m + 1), repeat=len(entries)):
        prod = k.one()
        for a, e in zip(entries, vec):
            prod = prod * a**e
        if any(vec) and solve_mult(k, prod) is not None:
            found.append(list(vec))
    return hermite_normal_form(found)[0]


def _lattice_systems():
    k = shift_field()
    x = k.x()
    yield "shift x, x+1, -1", k, [x, x + 1, k.coerce(-1)], 3
    yield "shift -1, -(x+1)/x, x", k, [k.coerce(-1), -(x + 1) / x, x], 3
    yield ("shift x^2, (x+2)/x, 1/(x(x+1))", k,
           [x**2, (x + 2) / x, 1 / (x * (x + 1))], 3)
    k = qshift_field(2)
    x = k.x()
    yield "q=2 x, -1, x^2+1", k, [x, k.coerce(-1), x**2 + 1], 3
    yield "q=2 x^2, 2/x", k, [x**2, 2 / x], 4
    k = qshift_field(3)
    x = k.x()
    yield ("q=3 x(x+1)/(3x+1), -1, x^3", k,
           [x * (x + 1) / (3 * x + 1), k.coerce(-1), x**3], 3)


@pytest.mark.parametrize(
    "k, entries, m",
    [pytest.param(*case[1:], id=case[0]) for case in _lattice_systems()])
def test_lattice_matches_the_brute_force_box(k, entries, m):
    # entries with nonzero degree balance and, for the dilation, nonzero
    # x-adic valuation: the walk must skip only vectors solve_mult refuses
    basis = relation_lattice(k, entries, m)
    assert hermite_normal_form(basis.vectors())[0] == _box_lattice(
        k, entries, m)


def _one_plus_sqrt2() -> CycloNum:
    # sqrt(2) = zeta8 + zeta8^7, so 1 + sqrt(2) is a unit of Q(zeta_8) of
    # infinite order: no power of it is rational
    z = CycloNum.zeta(8)
    return 1 + z + z ** 7


_BOX_CONSTANTS = {"qq": 1, "zeta3": 3, "i": 4}


@st.composite
def _box_systems(draw):
    """(k, entries): 1..3 characters c * prod p^e, with c a small rational
    times a root of unity of the constants, and p drawn from shifted,
    repeated and quadratic factors (sigma-translates of x, x + 1/2,
    x^2 + 1 and x(x + 2), or for the dilation of x - 1, x^2 + 1 and
    (x - 1)(x - q^2), and x itself); x(x + 2) and (x - 1)(x - q^2) hold two
    roots of one orbit."""
    sigma = draw(st.sampled_from(["shift", 2, 3, Fraction(1, 2)]))
    conductor = _BOX_CONSTANTS[draw(st.sampled_from(sorted(_BOX_CONSTANTS)))]
    k = (shift_field(conductor) if sigma == "shift"
         else qshift_field(sigma, conductor))
    x = k.x()
    bases = ([x, x + Fraction(1, 2), x * x + 1, x * (x + 2)]
             if sigma == "shift" else
             [x, x - 1, x * x + 1, (x - 1) * apply_sigma_power(k, x - 1, -2)])
    entries = []
    for _ in range(draw(st.integers(1, 3))):
        c = k.coerce(draw(st.sampled_from([1, -1, 2, -2, 3, Fraction(1, 2)])))
        c = c * k.coerce(CycloNum.zeta(conductor)) ** draw(st.integers(0, 3))
        for _ in range(draw(st.integers(0, 2))):
            base = apply_sigma_power(k, draw(st.sampled_from(bases)),
                                     draw(st.integers(0, 2)))
            c = c * base ** draw(st.sampled_from([-2, -1, 1, 2]))
        entries.append(c)
    return k, entries


@given(case=_box_systems())
@settings(max_examples=60, deadline=None)
def test_exact_lattice_holds_the_brute_force_box(case):
    # every vector of the box that solve_mult certifies lies in the exact
    # lattice, and when the lattice's own basis fits in the box the two
    # Hermite forms agree
    k, entries = case
    m = 2
    basis = relation_lattice(k, entries, m)
    assert basis.exact
    box = _box_lattice(k, entries, m)
    assert all(basis.contains(v) for v in box)
    if all(abs(c) <= m for v in basis.vectors() for c in v):
        assert hermite_normal_form(basis.vectors())[0] == box
    for vec, g in basis.rows:
        assert g.num.is_monic()
        prod = k.one()
        for a, e in zip(entries, vec):
            prod = prod * a ** e
        assert apply_sigma(k, g) / g == prod


def _check_rows(k, entries, basis):
    for vec, g in basis.rows:
        prod = k.one()
        for a, e in zip(entries, vec):
            prod = prod * a ** e
        assert apply_sigma(k, g) / g == prod
        assert solve_mult(k, prod).witness == g


def test_lattice_with_four_and_five_entries():
    # shift: 2^a 3^b 6^c (-1)^d = 1 asks a = b = -c and d even, and
    # (x+1)/x = sigma(x)/x is a relation on its own
    k = shift_field()
    x = k.x()
    entries = [k.coerce(2), k.coerce(3), k.coerce(6), k.coerce(-1),
               (x + 1) / x]
    basis = relation_lattice(k, entries, 1)
    assert basis.exact
    assert basis.vectors() == [[1, 1, -1, 0, 0], [0, 0, 0, 2, 0],
                               [0, 0, 0, 0, 1]]
    _check_rows(k, entries, basis)
    # q = 2: x has valuation 1 and x^2 + 1 an orbit of its own, so only
    # 2^a (-1)^b in 2^Z is left, which asks b even
    k = qshift_field(2)
    x = k.x()
    entries = [k.coerce(2), k.coerce(-1), x, x * x + 1]
    basis = relation_lattice(k, entries, 1)
    assert basis.vectors() == [[1, 0, 0, 0], [0, 2, 0, 0]]
    assert basis.rows[0][1] == x
    _check_rows(k, entries, basis)


@pytest.mark.parametrize("c, q", [
    (1000000007, None),
    (1000000007 * 9999999967, None),
    (1000000007 * 9999999967, 1000000007),
], ids=["10^9+7", "two 10-digit primes", "two 10-digit primes q=10^9+7"])
def test_large_prime_constants_are_not_factored(c, q):
    # the valuations run over a coprime basis of the integers, so no
    # integer is ever trial-divided
    import time

    k = shift_field() if q is None else qshift_field(q)
    start = time.perf_counter()
    basis = relation_lattice(k, [k.coerce(c)], 12)
    assert time.perf_counter() - start < 1.0
    assert basis.exact and basis.vectors() == []


def test_residue_constants_are_searched_in_the_box():
    # 1 + sqrt(2) and its square 3 + 2 sqrt(2) have no rational power, so
    # the constant condition is searched for |m_i| <= m_max: it finds
    # (2, -1) and says the basis is not exact
    k = shift_field(conductor=8)
    u = k.coerce(_one_plus_sqrt2())
    basis = relation_lattice(k, [u, u * u], 12)
    assert basis.vectors() == [[2, -1]]
    assert not basis.exact
    assert basis.rows[0][1] == k.one()
    assert hermite_normal_form(basis.vectors())[0] == _box_lattice(
        k, [u, u * u], 2)


def test_lattice_runs_no_solve_mult(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("relation_lattice called solve_mult")

    monkeypatch.setattr("pvkit.solve.solve_mult", refuse)
    k = shift_field(conductor=8)
    x = k.x()
    z = k.coerce(CycloNum.zeta(8))
    assert relation_lattice(k, [z * (x + 3) / x, k.coerce(-1), x], 12
                            ).vectors() == [[4, 1, 0], [0, 2, 0]]
    u = k.coerce(_one_plus_sqrt2())
    assert relation_lattice(k, [u, u * u], 12).vectors() == [[2, -1]]
    k = qshift_field(2)
    x = k.x()
    assert relation_lattice(k, [k.coerce(-4) * (2 * x - 1) / (x - 1)], 12
                            ).vectors() == [[2]]


@pytest.mark.parametrize("scale", [1, 2])
def test_lattice_pairs_no_element_with_itself(monkeypatch, scale):
    # x^12 + 1 and 2 x^12 + 2 share one basis element, and an element is
    # never paired with itself, so no resultant is taken
    from pvkit.arith import ops

    calls = []
    real = ops._composed

    def count(f, g, gaps):
        calls.append(1)
        return real(f, g, gaps)

    monkeypatch.setattr(ops, "_composed", count)
    k = shift_field()
    a = k.x() ** 12 + 1
    basis = relation_lattice(k, [a, scale * a], 12)
    assert basis.vectors() == ([[1, -1]] if scale == 1 else [])
    assert calls == []
