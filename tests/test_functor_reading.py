"""The diagonal coordinate ideal read on exponent vectors, against the
dense substitution of ``dense_functor.py``.

``functor_ideal`` gives X^v - 1 for each Hermite row v after certifying
that the row is its own coset and that its generator is the binomial
Y^v - w; the oracle substitutes Y -> Y*X, normal-forms and expands over a
constants basis.  The two must agree equation for equation, in order,
on the reference systems, on every diagonal workload input and on drawn
systems, as built and after base change of the constants.
"""
from __future__ import annotations

import dataclasses
import importlib
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import conftest

from pvkit.cli import report
from pvkit.errors import InternalInvariantError
from pvkit.groups import (
    ConstantsExtensionDesc,
    base_change,
    coordinate_var_names,
    functor_ideal,
    identify_group,
)
from pvkit.laurent import BinomialNF, LaurentPoly
from pvkit.solve import Factored

from dense_functor import dense_functor_ideal

_ROOT = Path(__file__).resolve().parent.parent

EXTENSIONS = (
    ConstantsExtensionDesc.adjoin_root_of_unity(3),
    ConstantsExtensionDesc.adjoin_root_of_unity(4),
    ConstantsExtensionDesc.adjoin_transcendental(1),
)


def assert_agrees(p):
    got = functor_ideal(p)
    want = dense_functor_ideal(p)
    assert got == want
    names = coordinate_var_names(p)
    assert [g.format(names) for g in got] == [g.format(names) for g in want]


def _with_base_changes(p):
    return [p] + [base_change(p, ext) for ext in EXTENSIONS]


@pytest.mark.parametrize("name", conftest.REGISTRY)
def test_reference_systems_agree_with_the_dense_substitution(name):
    for q in _with_base_changes(conftest.presentation(name)):
        assert_agrees(q)


def _diagonal_workload_requests():
    workloads = importlib.import_module("workloads")
    seen = []
    for items in workloads.WORKLOADS.values():
        for inp in items:
            req = inp.request
            system = req.get("system", "")
            if system.startswith(("scalar", "diag")):
                key = (req.get("sigma", "shift"), req.get("q"), system)
                if key not in seen:
                    seen.append(key)
    return seen


def test_diagonal_workload_inputs_agree_with_the_dense_substitution(
        monkeypatch):
    monkeypatch.syspath_prepend(str(_ROOT / "perfbench"))
    keys = _diagonal_workload_requests()
    assert len(keys) >= 15
    for sigma, q, system in keys:
        p = report._build_presentation(report.Request(
            command="group", sigma=sigma, q=q, system=system))
        for changed in _with_base_changes(p):
            assert_agrees(changed)


@st.composite
def _systems(draw):
    """A shift or q = 2 request with diag(..) of 1..3 entries
    c * prod (x+i)^e, c in {1, -1, 2, -2, zeta(3)}, 0 <= i <= 2 and
    |e| <= 2."""
    q = draw(st.sampled_from([None, "2"]))
    entries = []
    for _ in range(draw(st.integers(1, 3))):
        text = draw(st.sampled_from(["1", "-1", "2", "-2", "zeta(3)"]))
        for i, e in draw(st.lists(st.tuples(st.integers(0, 2),
                                            st.integers(-2, 2)), max_size=2)):
            if e:
                text += f"{'*' if e > 0 else '/'}(x+{i})^{abs(e)}"
        entries.append(text)
    return report.Request(command="group", sigma="qshift" if q else "shift",
                          q=q, system=f"diag({','.join(entries)})")


@seed(24)
@settings(max_examples=40, deadline=None, database=None)
@given(_systems())
def test_drawn_systems_agree_with_the_dense_substitution(req):
    assert_agrees(report._build_presentation(req))


# --- the certificates -------------------------------------------------------

def _with_rows(p, rows, generators):
    ideal = dataclasses.replace(
        p.ideal, generators=tuple(generators),
        _nf=BinomialNF(p.ideal._nf.field, p.ideal.nvars, rows))
    return dataclasses.replace(p, ideal=ideal)


def _binomial(field, nvars, v, w):
    return (LaurentPoly.monomial(field, nvars, v)
            - LaurentPoly.const(field, nvars, w))


def test_a_row_that_is_not_its_own_coset_is_an_error():
    # rows (1,1), (0,2) and their sum (1,3): the sum reduces to
    # (1,1) + (0,2), so its coset is not (e_3, 0)
    p = conftest.presentation("diagonal-pair")
    field = p.field.k_field
    (v1, w1), (v2, w2) = p.ideal._nf.rows
    rows = [(v1, w1), (v2, w2), ((1, 3), w1 * w2)]
    gens = [_binomial(field, 2, v, w) for v, w in rows]
    with pytest.raises(InternalInvariantError, match="own coset"):
        functor_ideal(_with_rows(p, rows, gens))


def test_a_row_with_a_negative_lead_is_an_error():
    p = conftest.presentation("scalar-order-two")
    field = p.field.k_field
    ((v, w),) = p.ideal._nf.rows
    rows = [((-v[0],), w)]
    with pytest.raises(InternalInvariantError, match="positive entry"):
        functor_ideal(_with_rows(p, rows, [_binomial(field, 1, (-v[0],), w)]))


def test_a_generator_with_a_third_term_is_an_error():
    p = conftest.presentation("diagonal-pair")
    field = p.field.k_field
    first, second = p.ideal.generators
    third_term = first + LaurentPoly.monomial(field, 2, (0, 1))
    ideal = dataclasses.replace(p.ideal, generators=(third_term, second))
    with pytest.raises(InternalInvariantError, match="binomial of its row"):
        functor_ideal(dataclasses.replace(p, ideal=ideal))


def test_a_missing_generator_is_an_error():
    p = conftest.presentation("diagonal-pair")
    ideal = dataclasses.replace(p.ideal, generators=p.ideal.generators[:1])
    with pytest.raises(InternalInvariantError, match="lattice rows"):
        functor_ideal(dataclasses.replace(p, ideal=ideal))


def _raise(*args, **kwargs):
    raise AssertionError("the diagonal reading took a dense route")


def test_the_diagonal_reading_normal_forms_and_expands_nothing(monkeypatch):
    presentations = [q for name in conftest.REGISTRY
                     for q in _with_base_changes(conftest.presentation(name))
                     if q.system.shape == "diagonal"]
    assert len(presentations) == 24
    cosets = []

    def counted(self, e, _real=BinomialNF.coset):
        cosets.append(tuple(e))
        return _real(self, e)

    monkeypatch.setattr(BinomialNF, "reduce", _raise)
    monkeypatch.setattr(Factored, "expand", _raise)
    monkeypatch.setattr(BinomialNF, "coset", counted)
    for p in presentations:
        del cosets[:]
        identify_group(p)
        # one coset certificate per row, each of the row itself
        assert cosets == [v for v, _ in p.ideal._nf.rows]


def test_generators_are_the_row_binomials():
    for name in conftest.REGISTRY:
        p = conftest.presentation(name)
        if p.system.shape != "diagonal":
            continue
        field = p.field.k_field
        want = [_binomial(field, p.ideal.nvars, v, w)
                for v, w in p.lattice.rows]
        assert list(p.ideal.generators) == want
