"""The coordinate ideal read off the certified generators, against the
dense substitution of ``dense_functor.py``.

For the diagonal shape ``functor_ideal`` gives X^v - 1 for each Hermite
row v after certifying that the row is its own coset and that its
generator is the binomial Y^v - w; the oracle substitutes Y -> Y*X,
normal-forms and expands over a constants basis.  The two must agree
equation for equation, in order, on the reference systems, on every
diagonal workload input and on drawn systems, as built and after base
change of the constants.

For the triangular shape ``functor_ideal`` gives X11 - 1, X22 - 1 and,
with a solved corner, X12, after certifying the generators and the
corner solution.  The oracle's slots are redundant there, so the two are
compared as ideals: every oracle equation vanishes on the canonical
variety, and the oracle's linear equations have the canonical rank.
"""
from __future__ import annotations

import dataclasses
import importlib
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import conftest

from pvkit.arith.cyclo import CycloField
from pvkit.arith.poly import RatFunc
from pvkit.base import DiffField, SigmaSpec, apply_sigma
from pvkit.cli import report
from pvkit.engine import SigmaIdeal, build_pv_unipotent
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


def _workload_requests(prefixes):
    workloads = importlib.import_module("workloads")
    seen = []
    for items in workloads.WORKLOADS.values():
        for inp in items:
            req = inp.request
            system = req.get("system", "")
            if system.startswith(prefixes):
                key = (req.get("sigma", "shift"), req.get("q"), system)
                if key not in seen:
                    seen.append(key)
    return seen


def test_diagonal_workload_inputs_agree_with_the_dense_substitution(
        monkeypatch):
    monkeypatch.syspath_prepend(str(_ROOT / "perfbench"))
    keys = _workload_requests(("scalar", "diag"))
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
    raise AssertionError("the reading took a dense route")


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


# --- the triangular shape ---------------------------------------------------

CANONICAL = ("-1 + X11", "-1 + X22", "X12")

_X11, _X12, _X22 = (1, 0, 0), (0, 1, 0), (0, 0, 1)


def _vanishes_on_the_group(g, solved) -> bool:
    """g restricted to X11 = X22 = 1 (and X12 = 0 when solved) is zero:
    the canonical ideal is prime, so this is membership in it."""
    field = g.field
    by_corner: dict = {}
    for (_, j, _), c in g.terms.items():
        if not (solved and j):
            by_corner[j] = by_corner.get(j, field.zero) + c
    return all(c.is_zero() for c in by_corner.values())


def _linear_rank(eqs) -> int:
    """The rank of the X-parts of the equations of degree at most 1."""
    rows = [[g.coeff(e) for e in (_X11, _X12, _X22)] for g in eqs
            if all(min(e) >= 0 and sum(e) <= 1 for e in g.terms)]
    rank = 0
    for col in range(3):
        i = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if i is None:
            continue
        rows[rank], rows[i] = rows[i], rows[rank]
        pivot = rows[rank]
        for r in rows[rank + 1:]:
            factor = r[col] / pivot[col]
            r[:] = [a - factor * b for a, b in zip(r, pivot)]
        rank += 1
    return rank


def assert_same_ideal(p):
    """functor_ideal is canonical and generates the oracle's ideal: the
    oracle's equations vanish on the canonical variety, and its linear
    ones, which lie in the canonical ideal, span every canonical
    generator (an affine subspace of codimension r has exactly r
    independent linear equations)."""
    solved = p.unipotent_solution is not None
    names = coordinate_var_names(p)
    got = [g.format(names) for g in functor_ideal(p)]
    assert got == list(CANONICAL if solved else CANONICAL[:2])
    oracle = dense_functor_ideal(p)
    assert all(_vanishes_on_the_group(g, solved) for g in oracle)
    assert _linear_rank(oracle) == len(got)


def test_the_reference_corner_reads_the_canonical_ideal():
    names = [n for n in conftest.REGISTRY
             if conftest.presentation(n).system.shape == "unipotent2"]
    assert names == ["triangular-free-corner"]
    for q in _with_base_changes(conftest.presentation(names[0])):
        assert_same_ideal(q)


def test_unipotent_workload_inputs_read_the_canonical_ideal(monkeypatch):
    monkeypatch.syspath_prepend(str(_ROOT / "perfbench"))
    keys = _workload_requests(("unipotent",))
    assert len(keys) == 2
    solved = 0
    for sigma, q, system in keys:
        p = report._build_presentation(report.Request(
            command="group", sigma=sigma, q=q, system=system))
        solved += p.unipotent_solution is not None
        for changed in _with_base_changes(p):
            assert_same_ideal(changed)
    assert solved == 1


def test_the_acceptance_corner_reads_the_canonical_ideal():
    # the solved corner of test_acceptance.test_08: q = 2, b = x
    k = DiffField(SigmaSpec.qshift(2), CycloField(1))
    p = build_pv_unipotent(k, k.x())
    assert p.unipotent_solution is not None
    for q in _with_base_changes(p):
        assert_same_ideal(q)


@st.composite
def _corners(draw):
    """(field, b, summable): b = sigma(f) - f + c u over the shift or
    q = 2, f = n / prod (x + j) with deg n <= 2, small integer
    coefficients and 0 <= j <= 3, and u = 1/(x + i) for the shift, 1 for
    q = 2, neither of them summable; so b is summable iff c = 0."""
    qshift = draw(st.booleans())
    k = DiffField(SigmaSpec.qshift(2) if qshift else SigmaSpec.shift(),
                  CycloField(1))
    x = k.x()
    num = sum((draw(st.integers(-3, 3)) * x ** i for i in range(3)),
              k.zero())
    den = k.one()
    for j in draw(st.lists(st.integers(0, 3), max_size=2)):
        den = den * (x + j)
    f = num / den
    c = draw(st.sampled_from([0, 1, -2])) if draw(st.booleans()) else 0
    u = k.one() if qshift else 1 / (x + draw(st.integers(0, 3)))
    return k, apply_sigma(k, f) - f + c * u, c == 0


@seed(25)
@settings(max_examples=30, deadline=None, database=None)
@given(_corners())
def test_drawn_corners_read_the_canonical_ideal(corner):
    k, b, summable = corner
    p = build_pv_unipotent(k, b)
    assert (p.unipotent_solution is not None) == summable
    for q in _with_base_changes(p):
        assert_same_ideal(q)


# --- the triangular certificates --------------------------------------------

def _solved_corner():
    k = DiffField(SigmaSpec.shift(), CycloField(1))
    x = k.x()
    return build_pv_unipotent(k, 1 / (x + 1) - 1 / x)


def test_a_tampered_corner_generator_is_an_error():
    p = _solved_corner()
    field = p.field.k_field
    first, *rest = p.ideal.generators
    tampered = first + LaurentPoly.monomial(field, 3, _X11)
    ideal = dataclasses.replace(p.ideal, generators=(tampered, *rest))
    with pytest.raises(InternalInvariantError, match="corner solution"):
        functor_ideal(dataclasses.replace(p, ideal=ideal))


def test_a_missing_corner_generator_is_an_error():
    p = _solved_corner()
    ideal = dataclasses.replace(p.ideal, generators=p.ideal.generators[1:])
    with pytest.raises(InternalInvariantError, match="corner solution"):
        functor_ideal(dataclasses.replace(p, ideal=ideal))


def test_a_corner_the_generators_do_not_carry_is_an_error():
    # the ideal's stored corner lost its solution; the generators still
    # carry the presentation's
    p = _solved_corner()
    ideal = dataclasses.replace(p.ideal, _corner=(p.ideal._corner[0], None))
    with pytest.raises(InternalInvariantError, match="not the presentation"):
        functor_ideal(dataclasses.replace(p, ideal=ideal))


def test_a_nonzero_constant_solution_is_an_error():
    # f = 1 solves sigma(f) - f = 0 too, but its constant term is not
    # zeroed: Y12 - Y11 reads X12 + X22 - X11, whose one slot is not X12
    k = DiffField(SigmaSpec.shift(), CycloField(1))
    p = build_pv_unipotent(k, k.zero())
    ideal = SigmaIdeal.from_unipotent(k, k.zero(), k.one())
    with pytest.raises(InternalInvariantError, match="nonzero constant"):
        functor_ideal(dataclasses.replace(p, ideal=ideal,
                                          unipotent_solution=k.one()))


def test_the_triangular_reading_reduces_and_computes_nothing(monkeypatch):
    presentations = [_solved_corner()]
    presentations += _with_base_changes(
        conftest.presentation("triangular-free-corner"))
    for name in ("_reduced", "_plus", "_times", "__truediv__", "__pow__"):
        monkeypatch.setattr(RatFunc, name, _raise)
    monkeypatch.setattr(SigmaIdeal, "normal_form", _raise)
    for p in presentations:
        assert len(functor_ideal(p)) == 2 + (p.unipotent_solution is not None)
