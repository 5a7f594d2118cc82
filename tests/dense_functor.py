"""The stabilizer substitution on Laurent normal forms, an oracle for
``groups.functor_ideal``.

``functor_ideal`` reads both shapes off their certified generators: a
diagonal generator Y^v - w over a Hermite row v gives X^v - 1, and the
triangular generators give X11 - 1, X22 - 1 and, with a solved corner,
X12.  The route here is the substitution itself: Y -> Y*X in every
generator (Y_i -> Y_i X_i for the diagonal shape, the matrix product for
the triangular one), each substituted monomial normal-formed modulo the
ideal (so the witnesses and the corner solution are multiplied in), the
X-coefficients cleared to a common denominator and read off one power of
x at a time, every equation scaled to leading coefficient 1 and kept
once.  For the diagonal shape the two routes agree equation for
equation; for a solved triangular corner the oracle gives redundant
generators of the same ideal.
"""
from __future__ import annotations

from math import comb

from pvkit.arith.poly import Poly, RatFunc
from pvkit.base import DiffField
from pvkit.engine import PVPresentation
from pvkit.errors import UnsupportedSubstitutionShape
from pvkit.groups import coordinate_var_names
from pvkit.laurent import LaurentPoly


def expand_slots(k: DiffField, x_terms: dict) -> list:
    """Expand a family {X-exponent: k-coefficient} over a constants basis of
    k: clear to a common denominator, then read one X-relation off each
    power of the base variable.  A denominator of 1 (monic of degree 0)
    takes no gcd and no division.  Returns a list of {X-exponent:
    constant} dicts; the constants stay in the constants field of k, where
    ``canonical_equation`` divides them."""
    den = Poly.one(k.k_field.inner)
    for h in x_terms.values():
        if h.den.degree() > 0:
            den = (h.den if den.degree() == 0
                   else den * h.den.exact_div(den.gcd(h.den)))
    nums = {}
    for w, h in x_terms.items():
        if h.den.degree() > 0:
            nums[w] = h.num * den.exact_div(h.den)
        else:
            nums[w] = h.num if den.degree() == 0 else h.num * den
    top = max(n.degree() for n in nums.values())
    out = []
    for d in range(top + 1):
        slot = {}
        for w, n in nums.items():
            c = n.nth(d)
            if not c.is_zero():
                slot[w] = c
        if slot:
            out.append(slot)
    return out


def canonical_equation(field, nvars: int, slot: dict) -> LaurentPoly:
    """The X-relation of one slot scaled to leading coefficient 1: divided
    in the constants field, each coefficient then embedded in k once, as
    a constant over 1 (already reduced, so nothing is coerced again)."""
    inner = field.inner
    den = Poly.one(inner)
    inv = 1 / slot[max(slot)]
    return LaurentPoly._trusted(
        field, nvars,
        {w: RatFunc._trusted(Poly._trusted(inner, [v * inv]), den)
         for w, v in slot.items()})


def unipotent_substitution(p: PVPresentation) -> list:
    """The triangular substitution sends the matrix M = [[Y11, Y12], [0, Y22]]
    to M*X with X = [[X11, X12], [0, X22]]; entrywise that is
    Y11 -> Y11*X11, Y12 -> Y11*X12 + Y12*X22, Y22 -> Y22*X22."""
    ideal = p.ideal
    field = p.field.k_field
    per_gen = []
    for gen in ideal.generators:
        per_x: dict = {}
        for (i, j, l), c in gen.terms.items():
            if min(i, j, l) < 0:
                raise UnsupportedSubstitutionShape(
                    "triangular substitution needs polynomial exponents")
            for t in range(j + 1):
                coeff = c * field.coerce(comb(j, t))
                y = (i + t, j - t, l)
                xv = (i, t, (j - t) + l)
                mono = LaurentPoly.monomial(field, 3, y, coeff)
                per_x[xv] = per_x.get(xv, LaurentPoly.zero(field, 3)) + mono
        by_res: dict = {}
        for xv, poly in per_x.items():
            for yr, cr in ideal.normal_form(poly).terms.items():
                by_res.setdefault(yr, {})[xv] = cr
        per_gen.append(by_res)
    return per_gen


def multiplicative_substitution(p: PVPresentation) -> list:
    """Per generator of a binomial ideal: substitute Y_i -> Y_i X_i, reduce
    the Y part, and return {Y-residue: {X-exponent: coefficient}} maps."""
    ideal = p.ideal
    field = p.field.k_field
    n = ideal.nvars
    per_gen = []
    for gen in ideal.generators:
        # each (Y-residue, X-exponent) key occurs once; normal forms hold no 0
        by_res: dict = {}
        for w, c in gen.terms.items():
            reduced = ideal.normal_form(LaurentPoly.monomial(field, n, w, c))
            for yr, cr in reduced.terms.items():
                by_res.setdefault(yr, {})[w] = cr
        per_gen.append(by_res)
    return per_gen


def dense_functor_ideal(p: PVPresentation) -> tuple:
    """The coordinate equations by substitution and constants-basis
    expansion, deduplicated and ordered as ``functor_ideal`` orders them."""
    shape = p.system.shape
    if shape == "diagonal":
        if p.ideal.characters is None:
            raise UnsupportedSubstitutionShape(
                "presentation carries no reduction data for the substitution")
        per_gen = multiplicative_substitution(p)
        nvars = p.ideal.nvars
    elif shape == "unipotent2":
        per_gen = unipotent_substitution(p)
        nvars = 3
    else:
        raise UnsupportedSubstitutionShape(
            f"no substitution rule for shape {shape!r}")
    field = p.field.k_field
    kept = []
    for by_res in per_gen:
        for x_terms in by_res.values():
            for slot in expand_slots(p.field, x_terms):
                eq = canonical_equation(field, nvars, slot)
                if not any(eq == g for g in kept):
                    kept.append(eq)
    if len(kept) > 1:
        names = coordinate_var_names(p)
        kept.sort(key=lambda g: g.format(names))
    return tuple(kept)
