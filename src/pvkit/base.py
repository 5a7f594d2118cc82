"""The base difference field k = C(x) with its substitution endomorphism.

C is a cyclotomic field Q(zeta_N), optionally extended by transcendental
constants t1, t2, ... (a rational-function tower). The endomorphism is either
the unit shift x -> x+1 or a q-dilation x -> q*x with q not a root of unity;
both fix C pointwise and are invertible.  ``SigmaSpec.translate`` is the one
place that knows what sigma^j does to a polynomial; ``apply_sigma_power``
and the certifiers in ``solve`` and ``arith.ops`` go through it.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property

from .arith.cyclo import CycloField, CycloNum, rational_power
from .arith.poly import Poly, RatFunc, RatFuncField, format_ratfunc
from .errors import RootOfUnityScale, ZeroScale


@dataclass(frozen=True)
class SigmaSpec:
    """Which endomorphism acts on k: the shift or a q-dilation."""

    kind: str  # "shift" | "qshift"
    q: CycloNum | None = None

    @classmethod
    def shift(cls) -> "SigmaSpec":
        return cls("shift", None)

    @classmethod
    def qshift(cls, q: CycloNum) -> "SigmaSpec":
        if not isinstance(q, CycloNum):
            q = CycloNum.from_rational(q)
        if q.is_zero():
            raise ZeroScale("q-dilation with q = 0 is not invertible")
        # roots of unity in Q(zeta_N) have orders dividing unity_order(N)
        if rational_power(q, q.conductor) == 1:
            raise RootOfUnityScale(
                "q-dilation with a root of unity collapses to finitely many translates")
        return cls("qshift", q)

    def __post_init__(self):
        if self.kind not in ("shift", "qshift"):
            raise ValueError(f"unknown sigma kind {self.kind!r}")

    def translate(self, p: Poly, j: int) -> Poly:
        """sigma^j(p): p(x + j) for the shift, p(q^j x) for the dilation."""
        if self.kind == "shift":
            return p.shift_arg(j)
        return p.scale_arg(self.q ** j)

    def describe(self) -> dict:
        if self.kind == "shift":
            return {"variant": "shift"}
        return {"variant": "qshift", "q": str(self.q)}


@dataclass(frozen=True, eq=False)
class DiffField:
    """k = C(x) together with a SigmaSpec; the workhorse context object."""

    sigma: SigmaSpec
    constants: object = dc_field(default_factory=lambda: CycloField(1))
    var: str = "x"

    @property
    def constants_conductor(self) -> int:
        inner = self.constants
        while isinstance(inner, RatFuncField):
            inner = inner.inner
        return inner.conductor

    @cached_property
    def k_field(self) -> RatFuncField:
        return RatFuncField(self.constants, self.var)

    def x(self) -> RatFunc:
        return RatFunc.x(self.constants)

    def coerce(self, value) -> RatFunc:
        return self.k_field.coerce(value)

    def one(self) -> RatFunc:
        return self.k_field.one

    def zero(self) -> RatFunc:
        return self.k_field.zero

    def format(self, f: RatFunc) -> str:
        return format_ratfunc(f, self.var)

    def __eq__(self, other):
        return (isinstance(other, DiffField)
                and self.sigma == other.sigma
                and self.constants == other.constants
                and self.var == other.var)

    __hash__ = None


def apply_sigma(k: DiffField, f: RatFunc) -> RatFunc:
    """sigma(f), in reduced canonical form."""
    return apply_sigma_power(k, f, 1)


def apply_sigma_power(k: DiffField, f: RatFunc, j: int) -> RatFunc:
    """sigma^j(f); j may be negative since sigma is invertible.  sigma is
    an automorphism of C[x], so the translates stay coprime, and it fixes C
    pointwise, so a constant is returned as it is."""
    if j == 0 or is_constant(k, f):
        return f
    return RatFunc._reduced(k.sigma.translate(f.num, j),
                            k.sigma.translate(f.den, j))


def is_constant(k: DiffField, f: RatFunc) -> bool:
    """True iff sigma(f) = f; in reduced form that is zero x-degree."""
    return f.num.degree() <= 0 and f.den.degree() == 0


def lift_ratfunc(f: RatFunc, target_inner) -> RatFunc:
    """Rebuild a rational function coefficient-wise over a larger constants
    field (conductor growth or a transcendental tower).  A field embedding
    keeps num and den coprime and den monic, so the pair is not reduced
    again, and ``Poly`` embeds each coefficient once."""
    num = Poly(target_inner, f.num.coeffs)
    den = Poly(target_inner, f.den.coeffs)
    return RatFunc._trusted(num, den)
