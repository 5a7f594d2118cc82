"""Dispersion-peel reference decider for sigma^s(f) = r f, an oracle for
``solve_mult``.

The pole/zero multiset of a sigma-quotient telescopes, so matching roots of
num and den along their sigma^s-orbits, found through the dispersion, peels
off a partial witness V; what remains of r after the peel must be trivial:
exactly 1 for the shift, or a power of q^s for the q-dilation, absorbed by
a power of x.  The dispersions run for sigma^s as the dilation by q^s, so
any window they fall back to counts sigma^s-translates.  The
witness is normalized as ``solve_mult`` normalizes it: monic numerator.
"""
from __future__ import annotations

from pvkit.arith.ops import _constant_as_cyclo, dispersion, qpower_log
from pvkit.arith.poly import Poly, RatFunc
from pvkit.base import DiffField, SigmaSpec, apply_sigma_power


def peel_solve_mult(k: DiffField, r, step: int = 1) -> RatFunc | None:
    """The f with sigma^step(f) = r f and monic numerator, or None."""
    r = k.coerce(r)
    if r.degree_balance() != 0:
        return None
    f = _peel(k, r, step)
    return None if f is None else f / f.num.lc()


def _peel(k: DiffField, r: RatFunc, step: int) -> RatFunc | None:
    field = k.k_field
    shift = k.sigma.kind == "shift"
    if shift:
        lcr = r.lc_ratio()
        if lcr != lcr ** 0:
            return None
    elif r.num.nth(0).is_zero() or r.den.nth(0).is_zero():
        return None
    # sigma^step is the unit shift taken ``per`` = step times, or the
    # dilation by q^step taken once
    spec, per = k.sigma, step
    if not shift and step > 1:
        spec, per = SigmaSpec.qshift(k.sigma.q ** step), 1

    def peel(a: Poly, b: Poly):
        # a root alpha of a against a root of b at sigma^{j*step}(alpha)
        # contributes sigma^step(V)/V with V = prod_{i=1..j} G translated by
        # sigma^{-i*step}; returns the reduced a, b and the product of the V
        telescope = field.one
        j_cap = dispersion(a, b, spec)
        for j in range((j_cap or 0) // per, 0, -1):
            g = a.gcd(spec.translate(b, j * per))
            if g.degree() > 0:
                a = a.exact_div(g)
                b = b.exact_div(spec.translate(g, -j * per).monic())
                for i in range(1, j + 1):
                    telescope = telescope * field.coerce(
                        spec.translate(g, -i * per).monic())
        return a, b, telescope

    num, den = r.num, r.den
    v = field.one
    while True:
        num, den, forward = peel(num, den)
        den, num, reverse = peel(den, num)
        if forward == field.one and reverse == field.one:
            break
        v = v * forward / reverse
    w = r * v / apply_sigma_power(k, v, step)
    if shift:
        return v if w == field.one else None
    if not w.is_const():
        return None
    z = _constant_as_cyclo(w.const_value())
    e = None if z is None else qpower_log(z, k.sigma.q ** step)[0]
    return None if e is None else v * field.x() ** e
