"""Dense reference solver for sigma(f) - f = b, an oracle for ``solve_add``.

It builds the universal denominator V = prod_{j<=J} sigma^j(den b), where J
is the self-dispersion of den(b): every pole of f lies on the backward
sigma-orbit of a pole of b, with multiplicity no larger than the worst
b-pole ahead of it.  That turns the question into one linear system over
the constants, solved by Gauss-Jordan elimination.  V has degree n^2 for
den b = x(x+1)...(x+n-1), so keep inputs small.  The witness is normalized
as ``solve_add`` normalizes it: the constant term of its polynomial part
is zero.
"""
from __future__ import annotations

from pvkit.arith.ops import _strip_x, dispersion
from pvkit.arith.poly import Poly, RatFunc
from pvkit.base import DiffField


def dense_solve_add(k: DiffField, b) -> RatFunc | None:
    """The normalized f with sigma(f) - f = b, or None when there is none."""
    b = k.coerce(b)
    field = k.k_field
    if b.is_zero():
        return field.zero
    # a pole of b at x = 0 is fixed by the dilation and enters V as is
    den_hat = b.den if k.sigma.kind == "shift" else _strip_x(b.den)
    j_cap = dispersion(den_hat, den_hat, k.sigma)
    v = Poly.x(field.inner) ** (b.den.degree() - den_hat.degree())
    for j in range((-1 if j_cap is None else j_cap) + 1):
        v = v * k.sigma.translate(den_hat, j).monic()
    # the polynomial part of f runs one degree above that of b for the
    # shift, where sigma(x^d) - x^d has degree d - 1; the dilation keeps
    # the degree, as sigma(x^d) - x^d = (q^d - 1) x^d
    slack = 1 if k.sigma.kind == "shift" else 0
    bound = v.degree() + max(b.degree_balance(), 0) + slack
    f = _solve_linear(k, b, v, bound)
    if f is None:
        return None
    quot, _ = divmod(f.num, f.den)
    return f - quot.nth(0)


def _solve_linear(k: DiffField, b: RatFunc, v: Poly, bound: int):
    """Solve sigma(u/v) - u/v = b for u polynomial of degree <= bound."""
    inner = k.k_field.inner
    v_s = k.sigma.translate(v, 1)
    x = Poly.x(inner)
    x_s = k.sigma.translate(x, 1)
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
    sol = _gauss_jordan(rows, rhs, inner.coerce(1))
    if sol is None:
        return None
    return RatFunc(Poly(inner, sol), v)


def _gauss_jordan(rows, rhs, one):
    """One solution of rows * u = rhs (free unknowns zero) over an exact
    field, or None when the system is inconsistent."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    aug = [list(rows[i]) + [rhs[i]] for i in range(m)]
    zero = one - one
    pivot_row_of = [-1] * n
    row = 0
    for col in range(n):
        if row == m:
            break
        pivot = next((i for i in range(row, m) if not aug[i][col].is_zero()),
                     None)
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
    if any(not aug[i][-1].is_zero() for i in range(row, m)):
        return None
    sol = [zero] * n
    for col in range(n):
        if pivot_row_of[col] >= 0:
            sol[col] = aug[pivot_row_of[col]][-1]
    return sol
