"""Integer matrix normal forms with carried transforms.

Row-style Hermite form canonicalizes relation lattices (pivots positive,
entries below a pivot zero, entries above reduced into [0, pivot)) and is
the one integer-elimination kernel: Smith form, which diagonalizes a
lattice for the component-splitting step, alternates row and column
Hermite passes, and the inverse of a unimodular matrix is its Hermite
transform. All return the unimodular transforms so exponent-vector
bookkeeping (witness products, variable changes) stays exact.
"""
from __future__ import annotations

from .errors import InternalInvariantError


def exgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        qt = old_r // r
        old_r, r = r, old_r - qt * r
        old_s, s = s, old_s - qt * s
        old_t, t = t, old_t - qt * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    if not a or not b:
        return []
    rows, inner, cols = len(a), len(b), len(b[0])
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        for k in range(inner):
            c = ai[k]
            if c == 0:
                continue
            bk = b[k]
            oi = out[i]
            for j in range(cols):
                oi[j] += c * bk[j]
    return out


def hermite_normal_form(rows: list[list[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """Row-style Hermite form of the lattice spanned by ``rows``.

    Returns (H, U) with U unimodular, U @ rows = [H; 0...]: H has one row per
    pivot, positive pivots, zeros below each pivot, and entries above each
    pivot reduced into [0, pivot). Zero input rows are absorbed; H contains
    no zero rows.
    """
    if not rows:
        return [], []
    work = [list(r) for r in rows]
    n = len(work)
    m = len(work[0])
    u = identity(n)
    r = 0
    pivots: list[int] = []
    for col in range(m):
        # combine rows r..n-1 to leave a single positive entry at (r, col)
        nz = [i for i in range(r, n) if work[i][col] != 0]
        if not nz:
            continue
        lead = nz[0]
        for i in nz[1:]:
            g, s, t = exgcd(work[lead][col], work[i][col])
            a_over, b_over = work[lead][col] // g, work[i][col] // g
            row_lead = [s * work[lead][j] + t * work[i][j] for j in range(m)]
            row_i = [-b_over * work[lead][j] + a_over * work[i][j] for j in range(m)]
            work[lead], work[i] = row_lead, row_i
            u_lead = [s * u[lead][j] + t * u[i][j] for j in range(n)]
            u_i = [-b_over * u[lead][j] + a_over * u[i][j] for j in range(n)]
            u[lead], u[i] = u_lead, u_i
        if lead != r:
            work[lead], work[r] = work[r], work[lead]
            u[lead], u[r] = u[r], u[lead]
        if work[r][col] < 0:
            work[r] = [-v for v in work[r]]
            u[r] = [-v for v in u[r]]
        # reduce the entries above the new pivot into [0, pivot)
        p = work[r][col]
        for i in range(r):
            c = work[i][col] // p
            if c != 0:
                work[i] = [work[i][j] - c * work[r][j] for j in range(m)]
                u[i] = [u[i][j] - c * u[r][j] for j in range(n)]
        pivots.append(col)
        r += 1
        if r == n:
            break
    h = [work[i] for i in range(r)]
    return h, u


def hnf_pivot_columns(h: list[list[int]]) -> list[int]:
    cols = []
    for row in h:
        for j, v in enumerate(row):
            if v != 0:
                cols.append(j)
                break
    return cols


def hnf_reduce(h: list[list[int]], v: list[int]) -> tuple[list[int], list[int]]:
    """Reduce v against HNF rows: returns (coeffs, residue) with
    v = sum coeffs[i] * h[i] + residue, and residue's pivot-column entries
    lying in [0, pivot). Membership in the lattice <=> residue == 0."""
    return _reduce_at_pivots(h, hnf_pivot_columns(h), v)


def _reduce_at_pivots(h: list[list[int]], pivots: list[int],
                      v: list[int]) -> tuple[list[int], list[int]]:
    """``hnf_reduce`` with the pivot columns of h already found."""
    res = list(v)
    coeffs = []
    for row, pcol in zip(h, pivots):
        c = res[pcol] // row[pcol]
        coeffs.append(c)
        if c != 0:
            res = [res[j] - c * row[j] for j in range(len(res))]
    return coeffs, res


def in_lattice(h: list[list[int]], v: list[int]) -> bool:
    if not h:
        return all(c == 0 for c in v)
    _, res = hnf_reduce(h, v)
    return all(c == 0 for c in res)


def unimodular_inverse(m: list[list[int]]) -> list[list[int]]:
    """Exact inverse of a unimodular integer matrix, again integral: the
    Hermite form of a unimodular matrix is I, so its transform W has
    W @ m = I.  Any other Hermite form means m was not unimodular."""
    h, w = hermite_normal_form(m)
    if h != identity(len(m)):
        raise InternalInvariantError("inverse is not integral; input was not unimodular")
    return w


def _transpose(a: list[list[int]]) -> list[list[int]]:
    return [list(col) for col in zip(*a)]


def _hermite_pass(d: list[list[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """(H, W) with W @ d = H, the Hermite form padded with zero rows to the
    height of d."""
    h, w = hermite_normal_form(d)
    return h + [[0] * len(d[0]) for _ in range(len(d) - len(h))], w


def _off_diagonal(d: list[list[int]]) -> bool:
    return any(x for i, row in enumerate(d) for j, x in enumerate(row) if i != j)


def smith_normal_form(a: list[list[int]]) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """(D, U, V) with U @ a @ V = D diagonal, d1 | d2 | ..., U, V unimodular.

    Alternating Hermite forms (Kannan and Bachem 1979; Cohen, GTM 138,
    section 2.4): a row pass U <- W U, and while an off-diagonal entry
    remains a column pass, the Hermite form of the transpose, V <- V W^T.
    Once D is diagonal, an entry d_i that does not divide a later d_j takes
    column j in (d_i becomes gcd(d_i, d_j) on the next passes) and the
    passes resume.

    Termination: a row pass leaves the leading entry the gcd of its column
    and a column pass the gcd of its row, so it divides its column or row
    and never grows.  A row pass that keeps it finds (p, 0, ..., 0), the
    row the column pass left, reduced in the row lattice, so by uniqueness
    of the Hermite form that row and its column stay clear: the entry
    splits off and the argument repeats on the trailing block.  A fold
    shrinks the first diagonal entry that divides too little and keeps the
    entries before it, which divide both d_i and d_j.
    """
    if not a:
        return [], [], []
    d, u, v = a, identity(len(a)), identity(len(a[0]))
    while True:
        d, w = _hermite_pass(d)
        u = matmul(w, u)
        if _off_diagonal(d):
            d_t, w = _hermite_pass(_transpose(d))
            d, v = _transpose(d_t), matmul(v, _transpose(w))
            if _off_diagonal(d):
                continue
        diag = [d[i][i] for i in range(min(len(d), len(d[0])))]
        fold = next(((i, j) for i, di in enumerate(diag) if di
                     for j in range(i + 1, len(diag)) if diag[j] % di), None)
        if fold is None:
            return d, u, v
        i, j = fold
        for row in d + v:
            row[i] += row[j]


def integer_kernel(rows: list[list[int]]) -> list[list[int]]:
    """Hermite basis of {m : sum_i m_i rows_i = 0} for integer rows of one
    length: the rows of the Hermite form of [rows | I] that vanish on the
    left block.

    >>> integer_kernel([[2], [3]])
    [[3, -2]]
    """
    width, n = (len(rows[0]) if rows else 0), len(rows)
    h, _ = hermite_normal_form([list(r) + [int(i == j) for j in range(n)]
                                for i, r in enumerate(rows)])
    return [row[width:] for row in h if not any(row[:width])]
