"""Trusted LaurentPoly arithmetic against the coercing constructor.

Arithmetic results skip the coercion of ``LaurentPoly.__init__``.  Each
test rebuilds the same result the old way, with zero-seeded sums passed
through the public constructor, and requires the same terms, int
exponents of the right arity and no stored zero coefficient.
"""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pvkit.arith.cyclo import CycloField, CycloNum
from pvkit.base import DiffField, SigmaSpec, apply_sigma
from pvkit.laurent import BinomialNF, LaurentPoly
from pvkit.snf import hermite_normal_form, hnf_reduce

NVARS = 2
K = DiffField(SigmaSpec.shift())
KQ = DiffField(SigmaSpec.qshift(CycloNum.from_rational(2)))
FIELD = K.k_field


def _coeff(a, b, d):
    x = K.x()
    return (a + b * x) / (d * x + 1)


# few distinct coefficients and exponents, so that sums often cancel
_coeffs = st.builds(_coeff, st.integers(-2, 2), st.integers(-1, 1),
                    st.integers(0, 1))
_units = _coeffs.filter(lambda c: not c.is_zero())
_exps = st.tuples(*[st.integers(-2, 2)] * NVARS)
_laurent = st.builds(lambda terms: LaurentPoly(FIELD, NVARS, terms),
                     st.dictionaries(_exps, _coeffs, max_size=4))


def _check(got: LaurentPoly, ref: LaurentPoly) -> None:
    assert got.terms == ref.terms
    assert all(c for c in got.terms.values())
    assert all(len(e) == NVARS and all(type(v) is int for v in e)
               for e in got.terms)


def _ref_add(a, b):
    out = dict(a.terms)
    for e, c in b.terms.items():
        out[e] = out.get(e, FIELD.zero) + c
    return LaurentPoly(FIELD, NVARS, out)


def _ref_neg(a):
    return LaurentPoly(FIELD, NVARS, {e: -c for e, c in a.terms.items()})


def _ref_mul(a, b):
    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(u + v for u, v in zip(e1, e2))
            out[e] = out.get(e, FIELD.zero) + c1 * c2
    return LaurentPoly(FIELD, NVARS, out)


@settings(max_examples=80, deadline=None)
@given(_laurent, _laurent)
def test_ring_operations_match_the_coercing_constructor(a, b):
    _check(a + b, _ref_add(a, b))
    _check(a - b, _ref_add(a, _ref_neg(b)))
    _check(-a, _ref_neg(a))
    _check(a * b, _ref_mul(a, b))
    _check(a + a * -1, LaurentPoly.zero(FIELD, NVARS))


@settings(max_examples=25, deadline=None)
@given(st.dictionaries(_exps, _coeffs, max_size=3))
def test_powers_match_repeated_products(terms):
    a = LaurentPoly(FIELD, NVARS, terms)
    ref = LaurentPoly.one(FIELD, NVARS)
    for n in range(6):
        _check(a ** n, ref)
        ref = _ref_mul(ref, a)


@pytest.mark.parametrize("k", [K, KQ], ids=["shift", "q=2"])
@settings(max_examples=40, deadline=None)
@given(p=_laurent, chars=st.tuples(*[_units] * NVARS))
def test_sigma_image_matches_the_coercing_constructor(k, p, chars):
    out = {}
    for e, c in p.terms.items():
        factor = apply_sigma(k, c)
        for ch, v in zip(chars, e):
            factor = factor * ch ** v
        out[e] = out.get(e, FIELD.zero) + factor
    _check(p.sigma_image(k, chars), LaurentPoly(FIELD, NVARS, out))


@st.composite
def _binomial_nfs(draw):
    """A Hermite basis of a random small lattice with random unit witnesses."""
    vectors = draw(st.lists(st.lists(st.integers(-3, 3), min_size=NVARS,
                                     max_size=NVARS), max_size=2))
    h, _ = hermite_normal_form(vectors)
    return BinomialNF(FIELD, NVARS, [(row, draw(_units)) for row in h])


@settings(max_examples=60, deadline=None)
@given(_binomial_nfs(), _laurent)
def test_binomial_reduce_matches_monomial_by_monomial_sums(nf, p):
    ref = LaurentPoly.zero(FIELD, NVARS)
    for e, c in p.terms.items():
        if nf.rows:
            coeffs, res = hnf_reduce([list(v) for v, _ in nf.rows], list(e))
            for cf, (_, w) in zip(coeffs, nf.rows):
                c = c * w ** cf
            e = res
        ref = _ref_add(ref, LaurentPoly.monomial(FIELD, NVARS, e, c))
    _check(nf.reduce(p), ref)


def test_an_operand_over_another_field_object_is_coerced():
    other = DiffField(SigmaSpec.shift())  # equal to K, not the same object
    a = LaurentPoly.monomial(K.k_field, 1, (1,), K.coerce(Fraction(1, 2)))
    b = LaurentPoly.monomial(other.k_field, 1, (1,),
                             other.coerce(Fraction(1, 2)))
    assert (a + b).field is K.k_field
    assert a + b == LaurentPoly.monomial(K.k_field, 1, (1,), 1)
    # a coefficient the field cannot hold is refused, not trusted
    k3 = DiffField(SigmaSpec.shift(), CycloField(3))
    with pytest.raises(TypeError):
        a + LaurentPoly.monomial(k3.k_field, 1, (0,), CycloNum.zeta(3))
    with pytest.raises(ValueError, match="arity"):
        a + LaurentPoly.one(K.k_field, 2)
