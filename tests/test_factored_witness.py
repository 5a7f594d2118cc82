"""Witnesses kept as orbit data, against the dense routes.

``relation_lattice`` and ``engine._cyclic_factors`` certify every relation
on exponent vectors over one factor basis, read the split off the
exponents and the stride off the constants, and expand only the row
witnesses; ``engine._orbit_idempotents`` certifies the idempotent orbit
on the same orbit data and expands it only when it is read.  Here the
same systems run through the dense oracles: the dispersion peel for the
row witnesses (``peel_mult``), dense roots and stride searches for the
factors (``dense_witness``) and the orbit on Laurent polynomials
(``dense_orbit``).  Both must give the same factors, the same orbit and
byte-identical reports.
"""
from __future__ import annotations

import importlib
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, seed, settings, strategies as st

import conftest

from pvkit import engine, groups, snf, solve
from pvkit.arith.cyclo import CycloField, CycloNum
from pvkit.arith.poly import Poly, RatFunc, RatFuncField
from pvkit.base import DiffField, SigmaSpec, apply_sigma
from pvkit.cli import report
from pvkit.errors import InternalInvariantError
from pvkit.groups import ConstantsExtensionDesc, base_change
from pvkit.laurent import BinomialNF, LaurentPoly
from pvkit.solve import FactorBasis, LatticeBasis, relation_lattice

from dense_orbit import dense_orbit, dense_orbit_idempotents
from dense_witness import (
    assert_sigma_stable,
    certify_by_hand,
    dense_cyclic_factors,
    entry_power,
)
from peel_mult import peel_solve_mult

_ROOT = Path(__file__).resolve().parent.parent


def _peeled_lattice(k, entries, m_max):
    """``relation_lattice`` with every row witness replaced by the one the
    dispersion peel finds; the entries ride along for ``_dense_factors``.
    The certified factor basis and telescopes stay attached for
    ``SigmaIdeal.from_lattice``; the dense route reads only the rows."""
    lattice = relation_lattice(k, entries, m_max)
    rows = []
    for vec, _ in lattice.rows:
        g = peel_solve_mult(k, entry_power(k.k_field, entries, vec))
        assert g is not None
        rows.append((vec, g))
    dense = LatticeBasis(lattice.dim, rows, lattice.exact,
                         lattice.factor_basis, lattice.telescopes)
    dense.window = lattice.window
    dense.entries = entries
    return dense


def _dense_factors(k, lattice):
    return dense_cyclic_factors(k, lattice.entries, lattice)


def _dense_orbit(k, ideal, fb, telescopes, factors, ell):
    return lambda: dense_orbit_idempotents(k, ideal, factors, ell, ideal.nvars)


def _dense_report(req) -> str:
    with mock.patch.object(engine, "relation_lattice", _peeled_lattice), \
            mock.patch.object(engine, "_cyclic_factors", _dense_factors), \
            mock.patch.object(engine, "_orbit_idempotents", _dense_orbit):
        return report.render_json(report.run(req)[0])


@st.composite
def _systems(draw):
    """A --sigma/--q pair and a diag(..) of 1..3 entries c * prod (x+i)^e,
    c in {1, -1, 2, -2, zeta(3)}, 0 <= i <= 3 and |e| <= 3."""
    q = draw(st.sampled_from([None, "2"]))
    entries = []
    for _ in range(draw(st.integers(1, 3))):
        text = draw(st.sampled_from(["1", "-1", "2", "-2", "zeta(3)"]))
        for i, e in draw(st.lists(st.tuples(st.integers(0, 3),
                                            st.integers(-3, 3)), max_size=2)):
            if e:
                text += f"{'*' if e > 0 else '/'}(x+{i})^{abs(e)}"
        entries.append(text)
    return report.Request(command="group", sigma="qshift" if q else "shift",
                          q=q, system=f"diag({','.join(entries)})")


@settings(max_examples=60, deadline=None)
@given(_systems())
def test_factored_chain_agrees_with_the_dense_oracle(req):
    p = report._build_presentation(req)
    k, entries = p.field, p.system.entries
    dense = _peeled_lattice(k, entries, req.m_max)
    assert p.lattice.rows == dense.rows
    want = dense_cyclic_factors(k, entries, dense)
    assert len(p.factors) == len(want)
    fb = p.lattice.factor_basis
    for got, ref in zip(p.factors, want):
        assert (got.order, got.coord, got.split, got.m_factor) == (
            ref.order, ref.coord, ref.split, ref.m_factor)
        # the built character is orbit data; expand() fixes it up to a
        # constant by making its numerator monic
        char = entry_power(k.k_field, entries, ref.coord)
        assert fb.power(got.coord).expand() == char / char.num.lc()
        assert got.witness.expand() == ref.witness
        assert got.marker == ref.marker
        # only a splitting factor carries a root, as orbit data
        assert (got.root is None) == (got.split == 1)
        assert (got.root or got.witness).expand() == ref.root
    assert_sigma_stable(p.ideal)
    assert report.render_json(report.run(req)[0]) == _dense_report(req)


def _raise(*args, **kwargs):
    raise AssertionError("a dense route ran during a build")


def test_no_build_takes_a_dense_route(monkeypatch):
    # every pvkit module that holds solve_mult gets the raising stand-in
    for name, module in list(sys.modules.items()):
        if name.startswith("pvkit") and hasattr(module, "solve_mult"):
            monkeypatch.setattr(module, "solve_mult", _raise)
    # the dense d-th roots and the dense sigma-stability check live only in
    # the oracle (``dense_witness``)
    assert not any(hasattr(c, "nth_root") for c in (Poly, RatFuncField,
                                                    CycloField))
    assert not hasattr(BinomialNF, "assert_sigma_stable")
    _run_workload_inputs(monkeypatch)


def test_a_build_makes_one_smith_pass_and_the_group_reads_it(monkeypatch):
    # the group's finite part is the build's Smith factors: a diagonal
    # build runs one Smith form, identify_group runs none
    smith_calls = []

    def counted(a, _real=snf.smith_normal_form):
        smith_calls.append(a)
        return _real(a)

    for module in (snf, engine):
        monkeypatch.setattr(module, "smith_normal_form", counted)
    passes = {"build": [], "group": []}

    def spy(kind, real):
        def wrapped(*args, **kwargs):
            before = len(smith_calls)
            out = real(*args, **kwargs)
            passes[kind].append(len(smith_calls) - before)
            return out
        return wrapped

    monkeypatch.setattr(engine, "_build_multiplicative",
                        spy("build", engine._build_multiplicative))
    for name, module in list(sys.modules.items()):
        if name.startswith("pvkit") and hasattr(module, "identify_group"):
            monkeypatch.setattr(module, "identify_group",
                                spy("group", module.identify_group))
    _run_workload_inputs(monkeypatch)
    for name in conftest.REGISTRY:
        p = conftest._BUILDERS[name]()
        for q in (p, *(base_change(p, ext)
                       for ext in conftest.EXTENSIONS.values())):
            groups.identify_group(q)
    assert passes["build"] and set(passes["build"]) == {1}
    assert passes["group"] and set(passes["group"]) == {0}


def _run_workload_inputs(monkeypatch):
    """Run every perfbench workload input and ``KNOWN_SLOW``, each
    checked as the harness checks it."""
    monkeypatch.syspath_prepend(str(_ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    inputs = [inp for items in workloads.WORKLOADS.values() for inp in items]
    inputs.append(workloads.KNOWN_SLOW)
    for inp in inputs:
        rep, code = report.run(report.Request(command=inp.command,
                                              **inp.request))
        assert workloads.check(inp, rep, code) is None, inp.label


@pytest.mark.parametrize("name", conftest.REGISTRY)
def test_reference_ideals_pass_the_dense_stability_oracle(name):
    assert_sigma_stable(conftest.presentation(name).ideal)
    for ext_key in conftest.EXTENSIONS:
        assert_sigma_stable(conftest.changed_presentation(name, ext_key).ideal)


def test_workload_ideals_pass_the_dense_stability_oracle(monkeypatch):
    # every ideal the workload inputs build, base changes included
    ideals = []
    for name in ("from_lattice", "from_unipotent"):
        def recorded(*args, _real=getattr(engine.SigmaIdeal, name)):
            ideals.append(_real(*args))
            return ideals[-1]
        monkeypatch.setattr(engine.SigmaIdeal, name, staticmethod(recorded))
    _run_workload_inputs(monkeypatch)
    assert {i.shape for i in ideals} == {"diagonal", "unipotent2"}
    for ideal in ideals:
        assert_sigma_stable(ideal)


def _shift(conductor=1):
    return DiffField(SigmaSpec.shift(), CycloField(conductor))


def _systems_by_hand():
    k3 = _shift(3)
    x3 = k3.x()
    z3 = k3.coerce(CycloNum.zeta(3))
    kq = DiffField(SigmaSpec.qshift(CycloNum.from_rational(2)))
    k = _shift()
    x = k.x()
    return [(k3, (z3 * (x3 + 1) / x3, k3.coerce(-1))),
            (kq, (kq.coerce(-2), kq.x() + 1)),
            (k, (x * (x + 1), (x + 2) * (x + 3) / x ** 2))]


@pytest.mark.parametrize("k, entries", _systems_by_hand())
def test_a_lattice_without_a_factor_basis_gets_one_from_the_entries(k, entries):
    # the build reads what ``relation_lattice`` certified; a lattice built
    # by hand gets the same factor basis and telescopes from the test
    # helper ``certify_by_hand``, and the same factors
    built = relation_lattice(k, entries, 12)
    bare = LatticeBasis(built.dim, built.rows, built.exact)
    assert bare.factor_basis is None and bare.telescopes is None
    by_hand = certify_by_hand(k, entries, bare)
    assert by_hand.factor_basis.basis == built.factor_basis.basis
    assert by_hand.telescopes == built.telescopes
    got = engine._cyclic_factors(k, by_hand)
    want = engine._cyclic_factors(k, built)
    assert [(f.order, f.coord, f.split, f.m_factor, f.marker,
             f.root and f.root.expand()) for f in got] == [
        (f.order, f.coord, f.split, f.m_factor, f.marker,
         f.root and f.root.expand()) for f in want]
    assert [f.witness.expand() for f in got] == [f.witness.expand()
                                                 for f in want]


def _bump(w):
    """w with the exponent of its first translate, if any, raised by one."""
    if w.exps:
        w.exps[min(w.exps)] += 1
    return w


def _tampered_telescopes(monkeypatch):
    real = FactorBasis.telescope
    monkeypatch.setattr(FactorBasis, "telescope",
                        lambda *args: _bump(real(*args)))


def test_a_tampered_row_exponent_is_refused(monkeypatch):
    k = _shift()
    x = k.x()
    _tampered_telescopes(monkeypatch)
    with pytest.raises(InternalInvariantError, match="does not witness"):
        relation_lattice(k, [(x + 3) / x], 12)


def test_a_tampered_smith_exponent_is_refused():
    k = _shift()
    x = k.x()
    lattice = relation_lattice(k, [(x + 3) / x, k.coerce(-1)], 12)
    for t in lattice.telescopes:
        _bump(t)
    with pytest.raises(InternalInvariantError, match="Smith-combined"):
        engine._cyclic_factors(k, lattice)


def test_a_tampered_quotient_exponent_is_refused(monkeypatch):
    k = _shift()
    x = k.x()
    _tampered_telescopes(monkeypatch)
    with pytest.raises(InternalInvariantError, match="re-check"):
        solve.solve_mult(k, (x + 2) / x)


def test_a_tampered_entry_factorization_is_refused(monkeypatch):
    # (x+1)^2/x^2 is written over x and x + 1; one power too many of each
    # factor it holds no longer multiplies out to the entry
    k = _shift()
    x = k.x()
    real = solve._multiplicity
    monkeypatch.setattr(solve, "_multiplicity",
                        lambda p, b: real(p, b) + (real(p, b) > 0))
    with pytest.raises(InternalInvariantError, match="factorization"):
        relation_lattice(k, [(x + 1) ** 2 / x ** 2], 12)


def test_a_rep_that_meets_its_own_translate_splits_by_the_power_of_x():
    # q = 2: rep = (x-1)(x-2) meets its translate, as 2 = q * 1.  For
    # a = c sigma(g)/g with g = rep^2, a^2 = c^2 sigma(g^2)/g^2; c = -2
    # gives c^2 = q^2 and the witness x^2 g^2, a square, and c = sqrt(2)
    # gives c^2 = q and the witness x g^2, which is not
    z = CycloNum.zeta(8)
    k = DiffField(SigmaSpec.qshift(CycloNum.from_rational(2)), CycloField(8))
    x = k.x()
    g = ((x - 1) * (x - 2)) ** 2
    for c, split in ((k.coerce(-2), 2), (k.coerce(z + z ** 7), 1)):
        a = apply_sigma(k, g) / g * c
        lattice = relation_lattice(k, [a], 12)
        (f,) = engine._cyclic_factors(k, lattice)
        (ref,) = dense_cyclic_factors(k, (a,), lattice)
        assert (f.order, f.split, f.m_factor) == (2, split, split)
        assert (ref.split, ref.m_factor, ref.marker) == (split, split, f.marker)


@st.composite
def _orbit_systems(draw):
    """(request, tower): diag(..) of one or two entries c * f^e * g^h, |e|
    and |h| <= 2, over translates f, g of x (shift) or of x + 1 (q = 2 and
    q = 2 zeta(3)), with c a root of unity or, for the dilation, one times
    q, so that most systems split; tower extends the constants to Q(t1)."""
    q = draw(st.sampled_from([None, "2", "2*zeta(3)"]))
    if q is None:
        translates = ["x", "(x+1)", "(x+2)"]
        consts = ["1", "-1", "zeta(3)", "-zeta(3)", "zeta(4)"]
    else:
        translates = ["(x+1)", f"({q}*x+1)", f"(({q})^2*x+1)"]
        consts = ["1", "-1", "zeta(3)", f"-{q}", f"zeta(4)*{q}"]
    entries = []
    for _ in range(draw(st.integers(1, 2))):
        text = draw(st.sampled_from(consts))
        for f, e in draw(st.lists(st.tuples(st.sampled_from(translates),
                                            st.integers(-2, 2)), max_size=2)):
            if e:
                text += f"{'*' if e > 0 else '/'}{f}^{abs(e)}"
        entries.append(text)
    req = report.Request(command="group", sigma="qshift" if q else "shift",
                         q=q, system=f"diag({','.join(entries)})")
    return req, draw(st.booleans())


_SHIFT = dict(command="group", sigma="shift")


@seed(19)
@settings(max_examples=40, deadline=None, database=None)
@given(_orbit_systems())
# two splitting factors: ell = 6 over Q(zeta_3) and Q(zeta_3)(t1), and
# ell = 10 over Q(zeta_5)
@example((report.Request(system="diag(zeta(3)*(x+1)/x,-1)", **_SHIFT), False))
@example((report.Request(system="diag(zeta(3)*(x+1)/x,-1)", **_SHIFT), True))
@example((report.Request(system="diag(zeta(5)*x,x+1,-1)", **_SHIFT), False))
def test_the_orbit_agrees_with_the_dense_orbit_term_for_term(case):
    req, tower = case
    p = report._build_presentation(req)
    if tower:
        p = base_change(p, ConstantsExtensionDesc.adjoin_transcendental(1))
    want = dense_orbit(p)
    assert len(p.idempotents) == p.ell == len(want)
    assert [e.terms for e in p.idempotents] == [e.terms for e in want]


def _raise_on(monkeypatch, owner, *names):
    for name in names:
        monkeypatch.setattr(owner, name, _raise)


def test_the_orbit_is_certified_without_rational_function_arithmetic(
        monkeypatch):
    # ell = 6 under the shift and ell = 2 under q = 2, where the row
    # telescopes carry leading coefficients q^i
    ps = [report._build_presentation(report.Request(system=s, **kw))
          for s, kw in (("diag(zeta(3)*(x+1)/x,-1)", _SHIFT),
                        ("diag(-(2*x+1)^2/(x+1)^2,zeta(3)*(4*x+1)/(x+1))",
                         dict(command="group", sigma="qshift", q="2")))]
    assert [p.ell for p in ps] == [6, 6]
    args = [(p.field, p.ideal, p.lattice.factor_basis, p.lattice.telescopes,
             engine._cyclic_factors(p.field, p.lattice), p.ell) for p in ps]
    _raise_on(monkeypatch, RatFunc, "__mul__", "__rmul__", "__truediv__",
              "__rtruediv__", "__pow__", "__add__", "__sub__")
    _raise_on(monkeypatch, Poly, "gcd")
    _raise_on(monkeypatch, LaurentPoly, "sigma_image", "__mul__")
    for a in args:
        engine._orbit_idempotents(*a)


def test_the_orbit_is_expanded_only_when_read(monkeypatch):
    expanded = []
    real = engine._orbit_idempotents

    def counted(*args):
        orbit = real(*args)
        return lambda: expanded.append(1) or orbit()

    monkeypatch.setattr(engine, "_orbit_idempotents", counted)
    req = report.Request(system="diag(zeta(3)*(x+1)/x,-1)", **_SHIFT)
    rep, code = report.run(req)
    assert code == 0 and rep["presentation"]["ell"] == 6
    assert expanded == []
    p = report._build_presentation(req)
    assert expanded == []
    assert len(p.idempotents) == 6 and p.idempotents is p.idempotents
    assert expanded == [1]
    comps = engine.decompose(report._build_presentation(req))
    assert len(comps) == 6 and expanded == [1, 1]
