"""The idempotent orbit on expanded rational functions, an oracle for
``engine._orbit_idempotents``.

The engine keeps each term of the orbit as a constant times a monomial
with a ``Factored`` coefficient and certifies it by comparing exponent
vectors and constants.  The route here is the closed form on Laurent
polynomials over C(x): W = Y^{(order/d) coord} / root with the root
expanded, as ``dense_witness.dense_cyclic_factors`` gives it, every
product of the W normal-formed modulo the ideal, and every certificate a
normal form of Laurent polynomials.
"""
from __future__ import annotations

from fractions import Fraction

from pvkit.base import DiffField
from pvkit.engine import PVPresentation, SigmaIdeal
from pvkit.errors import InternalInvariantError
from pvkit.laurent import LaurentPoly

from dense_witness import dense_cyclic_factors


def dense_orbit_idempotents(k: DiffField, ideal: SigmaIdeal, factors, ell: int,
                            nvars: int) -> list:
    """The orbit e_0..e_{ell-1} of the Fourier idempotents

        e_i = prod_f (1/d_f) sum_{j<d_f} marker_f^{i j} W_f^j

    over factors with expanded roots, with the four certificates W^d = 1
    and sigma(W) = marker W per factor, the character sums, sum_i e_i = 1
    and sigma(e_{ell-1}) = e_0."""
    field = k.k_field
    constants = k.constants
    one = LaurentPoly.one(field, nvars)
    if ell == 1:
        return [one]
    basis = [((), one)]  # (j per factor, prod W^j before its normal form)
    marker_powers = []
    for f in factors:
        d = f.split
        if d == 1:
            continue
        vec = tuple((f.order // d) * c for c in f.coord)
        w = LaurentPoly.monomial(field, nvars, vec, k.one() / f.root)
        if ideal.normal_form(w ** d) != one:
            raise InternalInvariantError("orbit generator W has W^d != 1")
        if not ideal.normal_form(ideal.sigma_image(w) - w * f.marker).is_zero():
            raise InternalInvariantError("sigma does not scale W by its marker")
        powers = [f.marker.const_value() ** j for j in range(d)]
        for u in range(d):
            total = sum((powers[u * j % d] for j in range(d)), constants.zero)
            if total != constants.coerce(d if u == 0 else 0):
                raise InternalInvariantError(
                    "marker character sums are not d [u = 0]")
        marker_powers.append(powers)
        basis = [(js + (j,), b * w ** j) for js, b in basis for j in range(d)]
    basis = [(js, ideal.normal_form(b)) for js, b in basis]
    scale = constants.coerce(Fraction(1, len(basis)))
    orbit = []
    for i in range(ell):
        e = LaurentPoly.zero(field, nvars)
        for js, b in basis:
            c = scale
            for powers, j in zip(marker_powers, js):
                c = c * powers[i * j % len(powers)]
            e = e + b * c
        orbit.append(e)
    if sum(orbit[1:], orbit[0]) != one:
        raise InternalInvariantError("orbit idempotents do not sum to 1")
    if ideal.normal_form(ideal.sigma_image(orbit[-1])) != orbit[0]:
        raise InternalInvariantError("idempotent orbit does not close")
    return orbit


def dense_orbit(p: PVPresentation) -> list:
    """The orbit of a built presentation, from the dense factors of its
    lattice."""
    k = p.field
    factors = dense_cyclic_factors(k, p.system.entries, p.lattice)
    return dense_orbit_idempotents(k, p.ideal, factors, p.ell, p.ideal.nvars)
