"""Integer-lattice helpers that no request reaches, kept as oracles for
``tests/test_snf.py``: an exact determinant by Fraction elimination, the
Smith invariant factors and the index of one lattice in another.
"""
from __future__ import annotations

from fractions import Fraction

from pvkit.errors import InternalInvariantError
from pvkit.snf import hermite_normal_form, hnf_reduce, smith_normal_form


def int_det(a: list[list[int]]) -> int:
    n = len(a)
    if n == 0:
        return 1
    m = [[Fraction(v) for v in row] for row in a]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] * inv
            if f == 0:
                continue
            for c in range(col, n):
                m[r][c] -= f * m[col][c]
    if det.denominator != 1:
        raise InternalInvariantError("integer determinant came out fractional")
    return int(det)


def invariant_factors(a: list[list[int]]) -> list[int]:
    """Diagonal of the Smith form, nonzero entries only."""
    d, _, _ = smith_normal_form(a)
    out = []
    for i in range(min(len(d), len(d[0]) if d else 0)):
        if d[i][i] != 0:
            out.append(d[i][i])
    return out


def lattice_index(sub: list[list[int]], sup: list[list[int]]) -> int:
    """Index [sup : sub] for sublattices of equal rank, both given as
    generating rows; raises if sub is not inside sup or ranks differ."""
    h_sup, _ = hermite_normal_form(sup)
    h_sub, _ = hermite_normal_form(sub)
    if len(h_sub) != len(h_sup):
        raise InternalInvariantError("lattice index needs equal ranks")
    coords = []
    for row in h_sub:
        cf, res = hnf_reduce(h_sup, row)
        if any(res):
            raise InternalInvariantError("claimed sublattice is not contained")
        coords.append(cf)
    det = int_det(coords)
    if det == 0:
        raise InternalInvariantError("rank collapsed in index computation")
    return abs(det)
