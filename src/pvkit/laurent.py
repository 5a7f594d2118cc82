"""Laurent polynomials in finitely many invertible indeterminates over a
rational function field, plus normal-form reduction modulo a binomial
ideal described by an exponent lattice with witnesses.

This is the ambient algebra for solution-ring presentations: terms are
exponent vectors in Z^n with RatFunc coefficients, and the supported
ideals rewrite a monomial Y^v (v in the lattice) to its witness g_v.

Arithmetic results are built by ``_trusted`` from one accumulated dict, as
for ``Poly``; only the public ``__init__`` coerces.
"""
from __future__ import annotations

from operator import add

from .arith.poly import RatFunc, RatFuncField, format_ratfunc
from .base import apply_sigma
from .errors import InternalInvariantError
from .snf import _reduce_at_pivots, hnf_pivot_columns


class LaurentPoly:
    """sum of coeff * Y1^e1 ... Yn^en with integer (possibly negative)
    exponents and RatFunc coefficients."""

    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field: RatFuncField, nvars: int, terms=None):
        self.field = field
        self.nvars = nvars
        clean = {}
        for exps, c in (terms or {}).items():
            c = field.coerce(c)
            if len(exps) != nvars:
                raise ValueError("exponent arity mismatch")
            if not c.is_zero():
                clean[tuple(int(e) for e in exps)] = c
        self.terms = clean

    # constructors ------------------------------------------------------

    @classmethod
    def _trusted(cls, field, nvars: int, terms: dict) -> "LaurentPoly":
        """A result of arithmetic: ``terms`` maps int tuples of length
        ``nvars`` to elements of ``field``; zeros are dropped, nothing is
        coerced."""
        out = object.__new__(cls)
        out.field, out.nvars = field, nvars
        out.terms = {e: c for e, c in terms.items() if c}
        return out

    @classmethod
    def zero(cls, field, nvars: int) -> "LaurentPoly":
        return cls(field, nvars, {})

    @classmethod
    def const(cls, field, nvars: int, c) -> "LaurentPoly":
        return cls(field, nvars, {(0,) * nvars: field.coerce(c)})

    @classmethod
    def one(cls, field, nvars: int) -> "LaurentPoly":
        return cls.const(field, nvars, 1)

    @classmethod
    def monomial(cls, field, nvars: int, exps, coeff=1) -> "LaurentPoly":
        return cls(field, nvars, {tuple(exps): field.coerce(coeff)})

    @classmethod
    def variable(cls, field, nvars: int, i: int) -> "LaurentPoly":
        exps = [0] * nvars
        exps[i] = 1
        return cls.monomial(field, nvars, exps)

    # queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def support(self):
        return sorted(self.terms)

    def coeff(self, exps) -> RatFunc:
        return self.terms.get(tuple(exps), self.field.zero)

    def is_const(self) -> bool:
        return all(all(e == 0 for e in exps) for exps in self.terms)

    def const_value(self) -> RatFunc:
        if not self.is_const():
            raise InternalInvariantError("not a constant Laurent polynomial")
        return self.coeff((0,) * self.nvars)

    # arithmetic --------------------------------------------------------

    def _wrap(self, other):
        # a LaurentPoly over another field is coerced, as a constant is
        if not isinstance(other, LaurentPoly):
            return LaurentPoly.const(self.field, self.nvars, other)
        if other.nvars != self.nvars:
            raise ValueError("exponent arity mismatch")
        if other.field is self.field or other.field == self.field:
            return other
        return LaurentPoly(self.field, self.nvars, other.terms)

    def __add__(self, other):
        other = self._wrap(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = c if e not in out else out[e] + c
        return LaurentPoly._trusted(self.field, self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._trusted(self.field, self.nvars,
                                    {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._wrap(other))

    def __rsub__(self, other):
        return self._wrap(other) - self

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            c = self.field.coerce(other)
            return LaurentPoly._trusted(self.field, self.nvars,
                                        {e: v * c for e, v in self.terms.items()})
        other = self._wrap(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                out[e] = c1 * c2 if e not in out else out[e] + c1 * c2
        return LaurentPoly._trusted(self.field, self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("Laurent power of a general element needs n >= 0")
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return LaurentPoly.one(self.field, self.nvars) if result is None else result

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            other = self._wrap(other)
        return self.nvars == other.nvars and self.terms == other.terms

    __hash__ = None

    # sigma action ------------------------------------------------------

    def sigma_image(self, k, characters) -> "LaurentPoly":
        """Apply sigma when sigma(Y_i) = characters[i] * Y_i: coefficients
        move by sigma, each monomial picks up the character product."""
        out = {}
        for e, c in self.terms.items():
            factor = apply_sigma(k, c)
            for i, ei in enumerate(e):
                if ei:
                    factor = factor * characters[i] ** ei
            out[e] = factor  # sigma moves no exponent
        return LaurentPoly._trusted(self.field, self.nvars, out)

    def map_coeffs(self, fn) -> "LaurentPoly":
        return LaurentPoly(self.field, self.nvars,
                           {e: fn(c) for e, c in self.terms.items()})

    # formatting --------------------------------------------------------

    def format(self, var_names=None) -> str:
        if not self.terms:
            return "0"
        names = var_names or [f"Y{i + 1}" for i in range(self.nvars)]
        if self.nvars == 1 and var_names is None:
            names = ["Y"]
        parts = []
        for e in self.support():
            c = self.terms[e]
            mono = "*".join(
                (names[i] if ei == 1 else f"{names[i]}^{ei}")
                for i, ei in enumerate(e) if ei != 0)
            cs = format_ratfunc(c, self.field.var)
            if not mono:
                parts.append(cs)
            elif cs == "1":
                parts.append(mono)
            elif cs == "-1":
                parts.append(f"-{mono}")
            else:
                if ("+" in cs[1:] or "-" in cs[1:] or "/" in cs) and not (
                        cs.startswith("(") and cs.endswith(")")):
                    cs = f"({cs})"
                parts.append(f"{cs}*{mono}")
        text = parts[0]
        for p in parts[1:]:
            text += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return text

    def __repr__(self):
        return f"LaurentPoly({self.format()})"


class BinomialNF:
    """Normal form modulo the binomial ideal (Y^v - g_v : rows), where the
    rows are a Hermite-form lattice basis with witnesses.

    A monomial exponent reduces to its canonical coset representative,
    the coefficient picking up the witness product; this is confluent
    because normalized witnesses multiply on the nose (the witness of a
    sum of rows is the product of the row witnesses).
    """

    def __init__(self, field: RatFuncField, nvars: int, rows):
        self.field = field
        self.nvars = nvars
        self.rows = [(tuple(v), w) for v, w in rows]
        self._h = [list(v) for v, _ in self.rows]
        self._pivots = hnf_pivot_columns(self._h)

    def coset(self, e):
        """(coeffs, residue) with e = sum coeffs[r] v_r + residue, the
        residue the canonical representative of e."""
        return _reduce_at_pivots(self._h, self._pivots, e)

    def reduce(self, p: LaurentPoly) -> LaurentPoly:
        out = {}
        for e, c in p.terms.items():
            if self._h:
                coeffs, res = self.coset(e)
                for cf, (_, w) in zip(coeffs, self.rows):
                    if cf:
                        c = c * w ** cf
                e = tuple(res)
            out[e] = c if e not in out else out[e] + c
        return LaurentPoly._trusted(self.field, self.nvars, out)

    def equal(self, p: LaurentPoly, q: LaurentPoly) -> bool:
        return self.reduce(p - q).is_zero()
