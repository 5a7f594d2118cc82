from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import gcd, prod

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from pvkit.snf import (
    exgcd,
    hermite_normal_form,
    hnf_pivot_columns,
    hnf_reduce,
    in_lattice,
    matmul,
    identity,
    smith_normal_form,
    unimodular_inverse,
)

from snf_oracle import int_det, invariant_factors, lattice_index


def test_exgcd_identity():
    for a, b in [(12, 18), (-12, 18), (0, 0), (0, -7), (5, 0), (240, 46)]:
        g, s, t = exgcd(a, b)
        assert g == s * a + t * b
        assert g >= 0
        if a or b:
            assert a % g == 0 and b % g == 0


def test_int_det():
    assert int_det([[1, 1], [1, -1]]) == -2
    assert int_det([[2, 0], [0, 3]]) == 6
    assert int_det([[1, 2], [2, 4]]) == 0
    assert int_det([]) == 1


def test_hnf_of_diagonal_pair_lattice():
    # the lattice spanned by (1,-1) and (2,0); canonical basis (1,1),(0,2)
    h, u = hermite_normal_form([[1, -1], [2, 0]])
    assert h == [[1, 1], [0, 2]]
    # transform really expresses H rows in terms of the input rows
    prod = matmul(u, [[1, -1], [2, 0]])
    assert prod[: len(h)] == h
    assert abs(int_det(u)) == 1
    # first H row must be -1*(1,-1) + 1*(2,0)
    assert u[0] == [-1, 1]


def test_hnf_absorbs_zero_and_dependent_rows():
    h, u = hermite_normal_form([[0, 0], [3, 6], [1, 2]])
    assert h == [[1, 2]]
    prod = matmul(u, [[0, 0], [3, 6], [1, 2]])
    assert prod[0] == [1, 2]
    assert all(all(v == 0 for v in row) for row in prod[1:])


def test_hnf_empty():
    assert hermite_normal_form([]) == ([], [])


def test_hnf_reduce_and_membership():
    h, _ = hermite_normal_form([[1, -1], [2, 0]])
    assert in_lattice(h, [3, 1])  # 2*(1,1) + ... check: (3,1)=(1,1)+(2,0)
    assert in_lattice(h, [0, 2])
    assert not in_lattice(h, [1, 0])
    assert not in_lattice(h, [0, 1])
    coeffs, res = hnf_reduce(h, [3, 1])
    assert res == [0, 0]
    assert coeffs == [3, -1]
    # residues of non-members sit in the fundamental box on pivot columns
    _, res = hnf_reduce(h, [5, 2])
    pcs = hnf_pivot_columns(h)
    for row, pc in zip(h, pcs):
        assert 0 <= res[pc] < row[pc]


def test_smith_form_frozen_cases():
    assert invariant_factors([[1, 1], [1, -1]]) == [1, 2]
    assert invariant_factors([[2, 0], [0, 2]]) == [2, 2]
    assert invariant_factors([[2, 4]]) == [2]
    assert invariant_factors([[6, 0], [0, 10]]) == [2, 30]
    assert invariant_factors([[0, 0]]) == []
    # a diagonal that fails the divisibility chain is folded: gcd, lcm
    assert invariant_factors([[3, 0], [0, 2]]) == [1, 6]
    assert invariant_factors([[0, 2, 0]]) == [2]
    assert invariant_factors([[4], [-6], [10]]) == [2]
    # rank 2 in a 3x3: the third diagonal entry is 0
    rank_two = [[2, 4, 6], [1, 2, 3], [0, 0, 5]]
    d, _, _ = smith_normal_form(rank_two)
    assert [d[i][i] for i in range(3)] == [1, 5, 0]


def test_smith_transforms():
    a = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    d, u, v = smith_normal_form(a)
    assert matmul(matmul(u, a), v) == d
    assert abs(int_det(u)) == 1
    assert abs(int_det(v)) == 1
    diag = [d[i][i] for i in range(3)]
    for i in range(2):
        if diag[i + 1] != 0:
            assert diag[i + 1] % diag[i] == 0


def test_lattice_index():
    # 2Z^2 inside Z^2 has index 4
    assert lattice_index([[2, 0], [0, 2]], [[1, 0], [0, 1]]) == 4
    # the diagonal example lattice inside Z^2 has index 2
    assert lattice_index([[1, -1], [2, 0]], [[1, 0], [0, 1]]) == 2
    assert lattice_index([[1, 0], [0, 1]], [[1, 0], [0, 1]]) == 1


small_mats = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.integers(min_value=1, max_value=4).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=m, max_size=m),
            min_size=n,
            max_size=n,
        )
    )
)


@given(small_mats)
@settings(max_examples=120, deadline=None)
def test_smith_round_trip(a):
    d, u, v = smith_normal_form(a)
    assert matmul(matmul(u, a), v) == d
    assert abs(int_det(u)) == 1
    assert abs(int_det(v)) == 1
    r = min(len(d), len(d[0]))
    diag = [d[i][i] for i in range(r)]
    for i in range(r):
        for j in range(r):
            if i != j:
                assert d[i][j] == 0
    seen_zero = False
    for i in range(r - 1):
        if diag[i] == 0:
            seen_zero = True
        if seen_zero:
            assert diag[i + 1] == 0
        elif diag[i + 1] != 0:
            assert diag[i + 1] % diag[i] == 0
    # d1...dk is the gcd of the k x k minors of a, by definition, with no
    # Hermite form involved
    for k in range(1, r + 1):
        minors = [int_det([[a[i][j] for j in cols] for i in rows])
                  for rows in combinations(range(len(a)), k)
                  for cols in combinations(range(len(a[0])), k)]
        assert prod(diag[:k]) == gcd(*minors)


def _elementary_product(n, ops):
    """The product of elementary matrices: row i += c * row j, a row swap
    (c = 0) or a row negation (i = j)."""
    m = identity(n)
    for i, j, c in ops:
        i, j = i % n, j % n
        if i == j:
            m[i] = [-v for v in m[i]]
        elif c == 0:
            m[i], m[j] = m[j], m[i]
        else:
            m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    return m


@seed(22)
@given(st.integers(min_value=1, max_value=4),
       st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                          st.integers(-5, 5)), max_size=12))
@settings(max_examples=120, deadline=None)
def test_unimodular_inverse_round_trip(n, ops):
    m = _elementary_product(n, ops)
    inv = unimodular_inverse(m)
    assert matmul(inv, m) == identity(n)
    assert matmul(m, inv) == identity(n)


@given(small_mats)
@settings(max_examples=120, deadline=None)
def test_hnf_round_trip(a):
    h, u = hermite_normal_form(a)
    assert abs(int_det(u)) == 1
    prod = matmul(u, a)
    assert prod[: len(h)] == h
    for row in prod[len(h) :]:
        assert all(v == 0 for v in row)
    # staircase shape with positive pivots and reduced columns
    pcs = hnf_pivot_columns(h)
    assert pcs == sorted(pcs)
    assert len(set(pcs)) == len(pcs)
    for i, (row, pc) in enumerate(zip(h, pcs)):
        assert row[pc] > 0
        for k in range(i):
            assert 0 <= h[k][pc] < row[pc]
    # every original row reduces to zero against H
    for row in a:
        assert in_lattice(h, row)


def test_identity_shape():
    assert identity(0) == []
    assert identity(2) == [[1, 0], [0, 1]]


def test_index_error_paths():
    with pytest.raises(Exception):
        lattice_index([[1, 0]], [[2, 0]])  # (1,0) not inside 2Z x 0
    with pytest.raises(Exception):
        lattice_index([[1, 0], [0, 1]], [[1, 0]])  # rank mismatch


def test_fraction_det_stays_exact():
    # entries chosen so naive float pivoting would drift
    a = [[10**9, 1], [1, 10**9]]
    assert int_det(a) == 10**18 - 1
    assert Fraction(int_det(a)) == Fraction(10**18 - 1)


# ------------------------------------------------------------ box saturation
# The engine factors the relation lattice in one Smith pass because of a
# lemma (``pvkit.engine._cyclic_factors``): for L in Z^n with n <= 3 and B
# the sup-norm ball of radius M, the span L_B of L cap B is saturated in L,
# L_B = L cap span_Q(L_B).  Equivalently, written in the coordinates of a
# basis of L, the rows of L_B have Smith invariant factors all 1.


def _box_span_in_lattice_coordinates(rows, radius):
    """HNF rows of span(L cap B) written in an HNF basis of L = span(rows)."""
    basis, _ = hermite_normal_form(rows)
    n = len(rows[0])
    inside = [list(v) for v in product(range(-radius, radius + 1), repeat=n)
              if any(v) and in_lattice(basis, list(v))]
    if not inside:
        return []
    span, _ = hermite_normal_form(inside)
    coords = []
    for row in span:
        c, residue = hnf_reduce(basis, row)
        assert not any(residue)
        coords.append(c)
    return coords


lattice_gens = st.integers(min_value=1, max_value=3).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=-12, max_value=12), min_size=n, max_size=n),
        min_size=1,
        max_size=3,
    )
)


@given(lattice_gens, st.integers(min_value=1, max_value=5))
@settings(max_examples=150, deadline=None)
def test_box_span_is_saturated_up_to_three_dimensions(rows, radius):
    coords = _box_span_in_lattice_coordinates(rows, radius)
    if coords:
        assert all(f == 1 for f in invariant_factors(coords))


def test_box_span_need_not_be_saturated_in_four_dimensions():
    # the hypothesis n <= 3 is needed: b1, b2, b3 below lie in the box of
    # radius 2, and L = <b1, b2, b3, (b1 + b2 + b3)/2>; each of the four
    # vectors (+-b1 +-b2 +-b3)/2 has an entry 3, one per coordinate, and no
    # other vector of the half class fits the box, so L_B = <b1, b2, b3>
    # has index 2 in L
    b1, b2, b3 = [2, 2, 2, -2], [2, 2, -2, 2], [2, -2, 2, 2]
    half = [(x + y + z) // 2 for x, y, z in zip(b1, b2, b3)]
    coords = _box_span_in_lattice_coordinates([b1, b2, b3, half], 2)
    assert invariant_factors(coords) == [1, 1, 2]
