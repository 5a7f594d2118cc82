"""The stabilizer substitution on Laurent normal forms, an oracle for
``groups.functor_ideal``.

``functor_ideal`` reads a diagonal presentation on exponent vectors: each
generator Y^v - w over a Hermite row v gives X^v - 1.  The route here is
the substitution itself: Y_i -> Y_i X_i in every generator, each
substituted monomial normal-formed modulo the ideal (so the witnesses are
multiplied in), the X-coefficients cleared to a common denominator and
read off one power of x at a time, every equation scaled to leading
coefficient 1 and kept once.  The triangular shape has only that route, so
for it the oracle and ``functor_ideal`` agree by construction.
"""
from __future__ import annotations

from pvkit.engine import PVPresentation
from pvkit.errors import UnsupportedSubstitutionShape
from pvkit.groups import (
    _canonical_equation,
    _expand_slots,
    _unipotent_substitution,
    coordinate_var_names,
)
from pvkit.laurent import LaurentPoly


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
        per_gen = _unipotent_substitution(p)
        nvars = 3
    else:
        raise UnsupportedSubstitutionShape(
            f"no substitution rule for shape {shape!r}")
    field = p.field.k_field
    kept = []
    for by_res in per_gen:
        for x_terms in by_res.values():
            for slot in _expand_slots(p.field, x_terms):
                eq = _canonical_equation(field, nvars, slot)
                if not any(eq == g for g in kept):
                    kept.append(eq)
    if len(kept) > 1:
        names = coordinate_var_names(p)
        kept.sort(key=lambda g: g.format(names))
    return tuple(kept)
