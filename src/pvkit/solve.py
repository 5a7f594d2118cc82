"""Exact first-order rational certification over a difference field.

Four questions get decided here, each with a checked witness:

  solve_mult        is r a sigma^s-quotient, i.e. sigma^s(f) = r*f, f in k*?
  solve_add         is b a sigma-difference, i.e. sigma(f) - f = b, f in k?
  torsion_order     least m >= 1 with a^m a sigma-quotient
  relation_lattice  all integer vectors (m_i), |m_i| <= m_max, with
                    prod a_i^{m_i} a sigma-quotient, as a lattice basis

Every witness is re-substituted into its defining equation before it is
returned; a failure there raises InternalInvariantError because it would
be a bug in this module, never a property of the input.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import lcm
from typing import Sequence

from .arith.cyclo import CycloNum, bounded_multiplicative_order
from .arith.ops import _padic, _uneven_prime, dispersion
from .arith.poly import Poly, RatFunc
from .base import DiffField, SigmaSpec, apply_sigma, apply_sigma_power
from .errors import DimensionTooLarge, InternalInvariantError, ZeroInput
from .snf import hermite_normal_form, hnf_reduce, in_lattice


@dataclass(frozen=True)
class MultSolution:
    """Witness for sigma^step(f) = r * f, with f.num monic."""

    witness: RatFunc
    step: int = 1


@dataclass(frozen=True)
class TorsionCert:
    """a**order = sigma(witness)/witness, and order is minimal >= 1."""

    order: int
    witness: RatFunc


class LatticeBasis:
    """Basis (in row Hermite form) of the lattice of exponent vectors m
    with prod a_i^{m_i} a sigma-quotient, each row carrying its witness."""

    def __init__(self, dim: int, rows, field):
        self.dim = dim
        self.rows = list(rows)  # [(tuple exponent vector, RatFunc witness)]
        self._field = field

    def vectors(self) -> list[list[int]]:
        return [list(v) for v, _ in self.rows]

    def rank(self) -> int:
        return len(self.rows)

    def contains(self, vec: Sequence[int]) -> bool:
        return in_lattice(self.vectors(), list(vec))

    def witness_for(self, vec: Sequence[int]) -> RatFunc | None:
        """Witness g with prod a_i^{vec_i} = sigma(g)/g, or None when vec
        is outside the lattice."""
        coeffs, residue = hnf_reduce(self.vectors(), list(vec))
        if any(residue):
            return None
        return _combine_witnesses(self._field, self.rows, coeffs)

    def __repr__(self):
        vecs = [list(v) for v, _ in self.rows]
        return f"LatticeBasis(dim={self.dim}, rows={vecs})"


# ---------------------------------------------------------------------------
# multiplicative: sigma^s(f) = r * f
# ---------------------------------------------------------------------------

def solve_mult(k: DiffField, r, step: int = 1) -> MultSolution | None:
    """Decide whether r = sigma^step(f)/f for some f in k*, exactly.

    Strategy: the pole/zero multiset of a sigma-quotient telescopes, so
    matching roots of num and den along the sigma-orbit (found through the
    dispersion) peel off a partial witness V; what remains of r after the
    peel must be trivial -- exactly 1 for the shift, a constant equal to an
    exact power of q for the q-dilation (absorbed by a power of x).
    """
    if step < 1:
        raise ValueError("step must be a positive integer")
    r = k.coerce(r)
    if r.is_zero():
        raise ZeroInput("a sigma-quotient is a unit; r = 0 is malformed")
    # degree balance: deg num - deg den is sigma-invariant on f, so any
    # quotient sigma^s(f)/f has balance zero
    if r.degree_balance() != 0:
        return None
    if k.sigma.kind == "shift":
        f = _solve_mult_shift(k, r, step)
    else:
        f = _solve_mult_qshift(k, r, step)
    if f is None:
        return None
    f = _monic_num(f)
    if apply_sigma_power(k, f, step) / f != r:
        raise InternalInvariantError("multiplicative witness failed re-check")
    return MultSolution(witness=f, step=step)


def _solve_mult_shift(k: DiffField, r: RatFunc, step: int) -> RatFunc | None:
    field = k.k_field
    # shifting the argument preserves leading coefficients, so any quotient
    # sigma^s(f)/f has lc ratio exactly 1; the peel cannot repair a constant
    # mismatch, so refuse before paying for dispersions
    lcr = r.lc_ratio()
    if lcr != lcr ** 0:
        return None
    num, den = r.num, r.den
    v = field.one
    changed = True
    while changed:
        changed = False
        # forward pairing: a num root at alpha against a den root at
        # alpha + j*step contributes sigma^step(V)/V with
        # V = prod_{i=1..j} G(x - i*step)
        j_cap = dispersion(num, den, k.sigma)
        if j_cap is not None:
            for j in range(j_cap // step, 0, -1):
                g = num.gcd(den.shift_arg(j * step))
                if g.degree() > 0:
                    num = num.exact_div(g)
                    den = den.exact_div(g.shift_arg(-j * step))
                    for i in range(1, j + 1):
                        v = v * field.coerce(g.shift_arg(-i * step))
                    changed = True
        # reverse pairing: den root at beta, num root at beta + j*step;
        # contributes the reciprocal telescope
        j_cap = dispersion(den, num, k.sigma)
        if j_cap is not None:
            for j in range(j_cap // step, 0, -1):
                g = den.gcd(num.shift_arg(j * step))
                if g.degree() > 0:
                    den = den.exact_div(g)
                    num = num.exact_div(g.shift_arg(-j * step))
                    for i in range(1, j + 1):
                        v = v / field.coerce(g.shift_arg(-i * step))
                    changed = True
    # leading coefficients of sigma^s(f) and f agree, so the leftover must
    # be exactly 1 -- no constant slack in the shift case
    if r * v / apply_sigma_power(k, v, step) != field.one:
        return None
    return v


def _solve_mult_qshift(k: DiffField, r: RatFunc, step: int) -> RatFunc | None:
    field = k.k_field
    q = k.sigma.q  # CycloNum, by construction of SigmaSpec.qshift
    q_eff = q ** step
    spec_eff = k.sigma if step == 1 else SigmaSpec.qshift(q_eff)
    num, den = r.num, r.den
    # sigma(f)/f is a unit at the origin (orbits of 0 stay at 0), so an
    # r with a root or pole at x = 0 is never a quotient
    if num.nth(0).is_zero() or den.nth(0).is_zero():
        return None
    v = field.one
    changed = True
    while changed:
        changed = False
        # forward: num root alpha against den root q_eff^j * alpha
        j_cap = dispersion(den, num, spec_eff)
        if j_cap is not None:
            for j in range(j_cap, 0, -1):
                g = num.gcd(den.scale_arg(q_eff ** j))
                if g.degree() > 0:
                    num = num.exact_div(g)
                    den = den.exact_div(g.scale_arg(q_eff ** -j).monic())
                    for i in range(1, j + 1):
                        v = v * field.coerce(g.scale_arg(q_eff ** -i).monic())
                    changed = True
        # reverse: den root beta against num root q_eff^j * beta
        j_cap = dispersion(num, den, spec_eff)
        if j_cap is not None:
            for j in range(j_cap, 0, -1):
                g = den.gcd(num.scale_arg(q_eff ** j))
                if g.degree() > 0:
                    den = den.exact_div(g)
                    num = num.exact_div(g.scale_arg(q_eff ** -j).monic())
                    for i in range(1, j + 1):
                        v = v / field.coerce(g.scale_arg(q_eff ** -i).monic())
                    changed = True
    # after the peel the leftover w must be a constant: scaling arguments
    # moves no constants, and monic factor normalization above dropped the
    # multiplicative slack into w on purpose
    w = r * v / apply_sigma_power(k, v, step)
    if not w.is_const():
        return None
    z = _constant_as_cyclo(w.const_value())
    if z is None:
        return None
    e = _discrete_log(z, q_eff)
    if e is None:
        return None
    return v * field.x() ** e


def _monic_num(f: RatFunc) -> RatFunc:
    lead = f.num.lc()
    return f / lead


def _constant_as_cyclo(value) -> CycloNum | None:
    """Walk a constants-tower element down to its cyclotomic floor; None
    when any layer is genuinely transcendental."""
    while isinstance(value, RatFunc):
        if not value.is_const():
            return None
        value = value.const_value()
    if isinstance(value, CycloNum):
        return value
    return None


def _discrete_log(z: CycloNum, q: CycloNum) -> int | None:
    """Exact e with q**e == z, or None.

    For rational q the answer is complete: q is not a root of unity, so
    some prime valuation of q is nonzero and pins e down, after which one
    exact power comparison confirms it.  For irrational q a bounded window
    |e| <= 64 is scanned; exponents beyond it would need witness degrees
    far outside anything this toolkit constructs.
    """
    if z == q ** 0:
        return 0
    if z.is_rational() and q.is_rational():
        zf = z.rational_value()
        qf = q.rational_value()
        p = _uneven_prime(qf)
        if p is not None:
            vq = _padic(qf, p)
            vz = _padic(zf, p) if zf != 0 else None
            if vz is None or vz % vq != 0:
                return None
            e = vz // vq
            return e if q ** e == z else None
    for e in range(1, 65):
        if q ** e == z:
            return e
        if q ** -e == z:
            return -e
    return None


# ---------------------------------------------------------------------------
# additive: sigma(f) - f = b
# ---------------------------------------------------------------------------

def solve_add(k: DiffField, b) -> RatFunc | None:
    """Decide whether b = sigma(f) - f for some f in k, exactly.

    A universal denominator V is built from the self-dispersion of den(b)
    (every pole of f lies on the backward sigma-orbit of a pole of b, with
    multiplicity no larger than the worst b-pole ahead of it), which turns
    the question into a finite linear system over the constants.  The
    witness is normalized so the constant term of its polynomial part is
    zero, making it unique: ker(sigma - id) on k is the constants.
    """
    b = k.coerce(b)
    field = k.k_field
    if b.is_zero():
        return field.zero
    if k.sigma.kind == "shift":
        den_hat = b.den
        j_cap = dispersion(den_hat, den_hat, k.sigma)
        j_cap = -1 if j_cap is None else j_cap
        v = Poly.one(field.inner)
        for j in range(j_cap + 1):
            v = v * den_hat.shift_arg(j)
        # the polynomial part of f runs one degree above that of b:
        # sigma(x^d) - x^d has degree d - 1
        bound = v.degree() + max(b.degree_balance(), 0) + 1
    else:
        den_hat = b.den
        x_order = 0
        while den_hat.degree() > 0 and den_hat.nth(0).is_zero():
            den_hat = den_hat.exact_div(Poly.x(field.inner))
            x_order += 1
        j_cap = dispersion(den_hat, den_hat, k.sigma)
        j_cap = -1 if j_cap is None else j_cap
        q = k.q_in_constants()
        v = Poly.x(field.inner) ** x_order
        for j in range(j_cap + 1):
            v = v * den_hat.scale_arg(q ** j).monic()
        # no +1 here: sigma(x^d) - x^d = (q^d - 1) x^d never drops degree
        # (q is not a root of unity), so the polynomial parts match
        bound = v.degree() + max(b.degree_balance(), 0)
    f = _solve_add_linear(k, b, v, bound)
    if f is None:
        return None
    # strip the free additive constant: zero the constant term of the
    # polynomial part
    quot, _ = divmod(f.num, f.den)
    f = f - quot.nth(0)
    if apply_sigma(k, f) - f != b:
        raise InternalInvariantError("additive witness failed re-check")
    return f


def _solve_add_linear(k: DiffField, b: RatFunc, v: Poly, bound: int):
    """Solve sigma(u/v) - u/v = b for u polynomial of degree <= bound."""
    field = k.k_field
    inner = field.inner

    def spoly(p: Poly) -> Poly:
        if k.sigma.kind == "shift":
            return p.shift_arg(1)
        return p.scale_arg(k.q_in_constants())

    v_s = spoly(v)
    x = Poly.x(inner)
    x_s = spoly(x)
    # sigma(u) * v * den_b  -  u * sigma(v) * den_b  =  num_b * v * sigma(v)
    cols = []
    mono = Poly.one(inner)
    mono_s = Poly.one(inner)
    for _ in range(bound + 1):
        cols.append(mono_s * v * b.den - mono * v_s * b.den)
        mono = mono * x
        mono_s = mono_s * x_s
    rhs_poly = b.num * v * v_s
    height = max([c.degree() for c in cols] + [rhs_poly.degree()]) + 1
    rows = [[c.nth(d) for c in cols] for d in range(height)]
    rhs = [rhs_poly.nth(d) for d in range(height)]
    sol = _linear_solve(rows, rhs, inner.coerce(1))
    if sol is None:
        return None
    u = Poly(inner, sol)
    return RatFunc(u, v)


def _linear_solve(rows, rhs, one):
    """Gaussian elimination over any exact field whose elements support
    +, -, *, / and is_zero(); returns one solution (free unknowns zero)
    or None when inconsistent."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    aug = [list(rows[i]) + [rhs[i]] for i in range(m)]
    zero = one - one
    pivot_row_of = [-1] * n
    row = 0
    for col in range(n):
        if row == m:
            break
        pivot = None
        for i in range(row, m):
            if not aug[i][col].is_zero():
                pivot = i
                break
        if pivot is None:
            continue
        aug[row], aug[pivot] = aug[pivot], aug[row]
        inv = one / aug[row][col]
        aug[row] = [entry * inv for entry in aug[row]]
        for i in range(m):
            if i != row and not aug[i][col].is_zero():
                factor = aug[i][col]
                aug[i] = [a - factor * p for a, p in zip(aug[i], aug[row])]
        pivot_row_of[col] = row
        row += 1
    for i in range(row, m):
        if not aug[i][-1].is_zero():
            return None
    sol = [zero] * n
    for col in range(n):
        if pivot_row_of[col] >= 0:
            sol[col] = aug[pivot_row_of[col]][-1]
    return sol


# ---------------------------------------------------------------------------
# torsion order and relation lattices of characters
# ---------------------------------------------------------------------------

def torsion_order(k: DiffField, a, m_max: int, step: int = 1) -> TorsionCert | None:
    """Least m in [1, m_max] with a**m a sigma^step-quotient, with witness."""
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    a = k.coerce(a)
    if a.is_zero():
        raise ZeroInput("torsion order of the zero function is malformed")
    if a.degree_balance() != 0:
        return None
    stride = 1
    if k.sigma.kind == "shift":
        # shift quotients have leading-coefficient ratio exactly 1, so the
        # lc ratio of a must be a root of unity and m a multiple of its
        # order; in Q(zeta_N) every such order divides lcm(2, N)
        u = _constant_as_cyclo(a.lc_ratio())
        if u is None:
            return None
        stride = bounded_multiplicative_order(u, lcm(2, k.constants_conductor))
        if stride is None:
            return None
    for m in range(stride, m_max + 1, stride):
        sol = solve_mult(k, a ** m, step=step)
        if sol is not None:
            return TorsionCert(order=m, witness=sol.witness)
    return None


def relation_lattice(k: DiffField, a_list, m_max: int) -> LatticeBasis:
    """Lattice of all exponent vectors (|entries| <= m_max) under which the
    characters a_list multiply into a sigma-quotient.

    Vectors are scanned shell by shell in the sup-norm, skipping anything
    already generated, so discovered relations are inclusion-minimal; the
    final basis is canonicalized to row Hermite form with witnesses
    recombined through the unimodular transform.
    """
    a = [k.coerce(ai) for ai in a_list]
    n = len(a)
    if n > 3:
        raise DimensionTooLarge(
            f"relation search is tuned for <= 3 characters, got {n}")
    for ai in a:
        if ai.is_zero():
            raise ZeroInput("characters must be nonzero")
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    field = k.k_field
    balances = [ai.degree_balance() for ai in a]
    lcrs = None
    if k.sigma.kind == "shift":
        lcrs = [ai.lc_ratio() for ai in a]
        lc_one = lcrs[0] ** 0
    found: list[tuple[tuple[int, ...], RatFunc]] = []
    hnf_rows: list[list[int]] = []
    for shell in range(1, m_max + 1):
        for vec in _sup_norm_shell(n, shell):
            if found and in_lattice(hnf_rows, list(vec)):
                continue
            if sum(m * bal for m, bal in zip(vec, balances)) != 0:
                continue
            if lcrs is not None:
                prod_lc = lc_one
                for m, u in zip(vec, lcrs):
                    prod_lc = prod_lc * u ** m
                if prod_lc != lc_one:
                    continue
            sol = solve_mult(k, _entry_power(field, a, vec))
            if sol is not None:
                found.append((vec, sol.witness))
                hnf_rows, _ = hermite_normal_form([list(v) for v, _ in found])
    rows = _hermite_rows(k, a, found)
    if len(rows) != len(found):
        raise InternalInvariantError("relation scan admitted a dependent vector")
    return LatticeBasis(dim=n, rows=rows, field=field)


def _entry_power(field, entries, vec) -> RatFunc:
    """prod entries_i^{vec_i}, skipping zero exponents."""
    acc = field.one
    for m, a in zip(vec, entries):
        if m:
            acc = acc * a ** m
    return acc


def _combine_witnesses(field, rows, coeffs) -> RatFunc:
    """Witness of sum coeffs_i * v_i from the witnesses of rows (v_i, g_i)."""
    acc = field.one
    for c, (_, w) in zip(coeffs, rows):
        if c:
            acc = acc * w ** c
    return _monic_num(acc)


def _hermite_rows(k: DiffField, entries, rows) -> list:
    """Hermite-canonicalize vector/witness pairs, recombining the witnesses
    through the unimodular transform and re-checking each one.  Q-dependent
    input rows are absorbed, so the result may be shorter than ``rows``."""
    field = k.k_field
    h, u = hermite_normal_form([list(v) for v, _ in rows])
    out = []
    for hrow, coeffs in zip(h, u):
        g = _combine_witnesses(field, rows, coeffs)
        if apply_sigma(k, g) / g != _entry_power(field, entries, hrow):
            raise InternalInvariantError(
                "recombined witness does not witness its relation")
        out.append((tuple(hrow), g))
    return out


def _sup_norm_shell(n: int, s: int):
    """Vectors in Z^n with sup norm exactly s whose first nonzero entry is
    positive, in lexicographic order (each generated lattice line once)."""
    for vec in itertools.product(range(-s, s + 1), repeat=n):
        if max(abs(c) for c in vec) != s:
            continue
        lead = next((c for c in vec if c != 0), 0)
        if lead > 0:
            yield vec
