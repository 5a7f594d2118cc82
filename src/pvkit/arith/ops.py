"""Named polynomial operations: resultant, integer roots, dispersion, factor
refinement. These are the primitives the rational-solution machinery is
assembled from, next to the gcd and substitutions of ``Poly``; everything
is exact.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb, gcd as int_gcd, lcm
from operator import floordiv, mul, truediv

from ..errors import InternalInvariantError, NonRationalCoefficients, ZeroInput
from .cyclo import (CycloNum, cyclotomic_coeffs, euler_phi, rational_power,
                    unity_order)
from .poly import Poly, RatFunc, RatFuncField


def resultant(a: Poly, b: Poly):
    """res(a, b) = lc(a)^deg(b) * prod of b over the roots of a.

    Computed by the Euclidean remainder recurrence over the coefficient
    field, res(a, b) = (-1)^(nm) lc(b)^(n - deg r) res(b, r) with
    r = a mod b, n = deg a and m = deg b, ending at res(a, c) = c^n for a
    constant c.  For monic linear inputs res(x - u, x - v) = v - u, e.g.
    res(x-2, x-3) = -1.
    """
    if a.is_zero() or b.is_zero():
        raise ZeroInput("resultant of the zero polynomial")
    res = a.field.one
    while b.degree() > 0:
        n, m = a.degree(), b.degree()
        r = a % b
        if r.is_zero():
            return a.field.zero
        if n * m % 2:
            res = -res
        res = res * b.lc() ** (n - r.degree())
        a, b = b, r
    return res * b.lc() ** a.degree()


def _as_rational(value) -> Fraction | None:
    """A constants-tower element as a Fraction, or None if not rational."""
    z = _constant_as_cyclo(value)
    return z.rational_value() if z is not None and z.is_rational() else None


def integer_roots(p: Poly) -> set[int]:
    """All integer roots of a rational-coefficient polynomial.

    >>> from pvkit.arith.cyclo import QQ
    >>> sorted(integer_roots(Poly(QQ, (2, -3, 1))))
    [1, 2]
    """
    if p.is_zero():
        raise ZeroInput("integer roots of the zero polynomial")
    if any(_as_rational(c) is None for c in p.coeffs):
        raise NonRationalCoefficients(
            "integer_roots needs rational coefficients")
    return _integer_roots_any(p)


def _integer_roots_any(p: Poly) -> set[int]:
    """Integer roots over any supported coefficient field.

    Candidates come from the first nonzero rational slice of the coefficient
    list (a true root kills every slice simultaneously), then each candidate
    is verified by exact evaluation of p itself.
    """
    if p.is_zero():
        raise ZeroInput("integer roots of the zero polynomial")
    slice_poly = None
    for sl in p.field.qq_slices(list(p.coeffs)):
        if any(c != 0 for c in sl):
            slice_poly = sl
            break
    if slice_poly is None:
        raise ZeroInput("integer roots of the zero polynomial")
    candidates = _rational_slice_integer_roots(slice_poly)
    out = set()
    for r in candidates:
        if not p.eval(p.field.coerce(r)):
            out.add(r)
    return out


def _rational_slice_integer_roots(coeffs: list[Fraction]) -> set[int]:
    den_lcm = 1
    for c in coeffs:
        den_lcm = den_lcm * c.denominator // int_gcd(den_lcm, c.denominator)
    ints = [int(c * den_lcm) for c in coeffs]
    roots = set()
    low = 0
    while low < len(ints) and ints[low] == 0:
        low += 1
    if low > 0:
        roots.add(0)
    ints = ints[low:]
    if not ints:
        return roots
    const = abs(ints[0])
    bound = _root_bound(ints)
    d = 1
    while d <= bound and d * d <= const:
        if const % d == 0:
            for mag in (d, const // d):
                if mag <= bound:
                    for cand in (mag, -mag):
                        if _int_poly_eval(ints, cand) == 0:
                            roots.add(cand)
        d += 1
    return roots


def _root_bound(ints: list[int]) -> int:
    """Fujiwara's bound in integers: B >= |z| for every complex root z of
    the polynomial with ascending coefficients ints, lc != 0.  B is
    2 * max_i ceil(|a_(n-i) / a_n|^(1/i)).

    >>> _root_bound([-6, 1, 1])  # (t - 2)(t + 3)
    6
    """
    n = len(ints) - 1
    lead = abs(ints[-1])
    best = 0
    for i in range(1, n + 1):
        a = abs(ints[n - i])
        if a:
            best = max(best, _iroot_ceil(-(-a // lead), i))
    return 2 * best


def _iroot_ceil(m: int, i: int) -> int:
    """The least r >= 0 with r^i >= m, for m >= 0 and i >= 1."""
    if m < 2:
        return m
    # Newton's iteration from above for the floor of the i-th root
    r = 1 << -(-m.bit_length() // i)
    while True:
        nxt = ((i - 1) * r + m // r ** (i - 1)) // i
        if nxt >= r:
            break
        r = nxt
    return r if r ** i >= m else r + 1


def coprime_basis(items, gcd, unit) -> list:
    """Factor refinement (Bach, Driscoll and Shallit, J. Algorithms 15,
    1993): pairwise coprime non-units, each item a product of their powers,
    for integers or polynomials (``gcd`` and ``unit`` say which).  Nothing
    is factored: two elements sharing g become g and the two cofactors.

    >>> from math import gcd
    >>> sorted(coprime_basis([12, 18], gcd, lambda a: a == 1))
    [2, 3]
    """
    basis, work = [], list(items)
    while work:
        a = work.pop()
        if unit(a):
            continue
        for i, b in enumerate(basis):
            g = gcd(a, b)
            if not unit(g):
                del basis[i]
                work += [g, a // g, b // g]
                break
        else:
            basis.append(a)
    return basis


def _divisors(n: int) -> list[int]:
    """The positive divisors of n >= 1, ascending."""
    low, high = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            low.append(d)
            if d != n // d:
                high.append(n // d)
        d += 1
    return low + high[::-1]


def _int_poly_eval(coeffs: list[int], v: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * v + c
    return acc


# ---------------------------------------------------------------------------
# Dispersion

_QSHIFT_SCAN_CAP = 128


def dispersion(p: Poly, r: Poly, sigma) -> int | None:
    """Largest j >= 0 with gcd(p, sigma^j(r)) != 1, or None when no j exists.

    One convention for both kinds: a root alpha of p meets the j-th
    translate of r when r vanishes at sigma^j(alpha), i.e. at alpha + j for
    the shift and at q^j * alpha for the q-dilation.  Shared powers of x are
    stripped first in the q case (they would meet at every j).
    """
    value, _complete = dispersion_with_flag(p, r, sigma)
    return value


def dispersion_with_flag(p: Poly, r: Poly, sigma) -> tuple[int | None, bool]:
    """Like dispersion, plus a flag saying the candidate set was provably
    complete: false only where the q-dilation keeps a window |j| <= 128."""
    js, complete = dispersion_set(p, r, sigma)
    js = [j for j in js if j >= 0]
    return (js[-1] if js else None), complete


def dispersion_set(p: Poly, r: Poly, sigma) -> tuple[list[int], bool]:
    """Every integer j with gcd(p, sigma^j(r)) != 1, ascending, and the
    flag of ``dispersion_with_flag``.

    j runs over both signs, so one call answers for both orders of the
    pair: the set of (r, p) is the negated set of (p, r).  The set depends
    only on the root sets, so it is taken of the square-free parts
    p / gcd(p, p').  Only the candidate set depends on the kind of sigma:
    the integer roots of one resultant in t for the shift, and for the
    q-dilation one discrete log of two linear factors' roots, or else the
    valuations of one resultant's coefficients, or of its norm's, each
    composed from power sums (``_composed``).  A shift candidate is an
    integer root of the composed polynomial lc prod (t - (beta - alpha)),
    confirmed by exact evaluation, so it is a root distance and needs no
    check; a dilation candidate is verified by one gcd.
    """
    if p.is_zero() or r.is_zero():
        raise ZeroInput("dispersion of the zero polynomial")
    if sigma.kind == "qshift":
        # strip shared x-powers: they meet at every j and carry no orbit data
        p, r = _strip_x(p), _strip_x(r)
    if p.degree() == 0 or r.degree() == 0:
        return [], True
    p, r = _descend(p, r)
    p, r = _square_free(p), _square_free(r)
    if p.degree() == r.degree() == 1:
        return _linear_dispersion(p, r, sigma)
    if sigma.kind == "shift":
        return sorted(_shift_candidates(p, r)), True
    candidates, complete = _qshift_candidates(p, r, sigma.q)
    return [j for j in sorted(candidates)
            if p.gcd(sigma.translate(r, j)).degree() > 0], complete


def _descend(p: Poly, r: Poly) -> tuple[Poly, Poly]:
    """p and r over the cyclotomic floor of a constants tower when all their
    coefficients lie there (the roots are the same, and the resultants and
    gcds need no rational-function arithmetic), else as they are."""
    floor = p.field
    while isinstance(floor, RatFuncField):
        floor = floor.inner
    low = [[_constant_as_cyclo(c) for c in s.coeffs] for s in (p, r)]
    if floor is p.field or any(c is None for cs in low for c in cs):
        return p, r
    return Poly(floor, low[0]), Poly(floor, low[1])


def _constant_as_cyclo(value) -> CycloNum | None:
    """Walk a constants-tower element down to its cyclotomic floor; None
    when any layer is genuinely transcendental."""
    while isinstance(value, RatFunc):
        if not value.is_const():
            return None
        value = value.const_value()
    return value if isinstance(value, CycloNum) else None


def _linear_dispersion(p: Poly, r: Poly, sigma) -> tuple[list[int], bool]:
    """``dispersion_set`` of linear p, r from their roots alpha, beta: j =
    beta - alpha (shift), or q^j = beta / alpha (``qpower_log``)."""
    alpha, beta = -p.nth(0) / p.lc(), -r.nth(0) / r.lc()
    if sigma.kind == "shift":
        j = _as_rational(beta - alpha)
        return ([int(j)] if j is not None and j.denominator == 1 else []), True
    z = _constant_as_cyclo(beta / alpha)
    j, complete = (None, True) if z is None else qpower_log(z, sigma.q)
    return ([] if j is None else [j]), complete


def qpower_log(z: CycloNum, q: CycloNum) -> tuple[int | None, bool]:
    """The e with q**e == z, or None, for z != 0 and q no root of unity,
    and whether that answer is certain.  z = q^e gives N(z) = N(q)^e for
    the norm N to Q, so unless N(q) = 1 one valuation (``_uneven_base``)
    fixes e and one power confirms it: every q with a rational power.  For
    N(q) = 1, as for q = (3+4i)/5, only |e| <= 128 is searched.
    """
    m = lcm(z.conductor, q.conductor)
    nz, nq = z.lift(m).norm(), q.lift(m).norm()
    if abs(nq) != 1:
        base = _uneven_base(nq, [nz])
        e, rem = divmod(_padic(nz, base), _padic(nq, base))
        return (e if not rem and q ** e == z else None), True
    if nz != 1:
        return None, True
    up = down = q ** 0
    inverse = q.inverse()
    for e in range(_QSHIFT_SCAN_CAP + 1):
        if z in (up, down):
            return (e if z == up else -e), True
        up, down = up * q, down * inverse
    return None, False


def _derivative(p: Poly) -> Poly:
    return Poly(p.field, [c * i for i, c in enumerate(p.coeffs)][1:])


def _square_free(p: Poly) -> Poly:
    """p / gcd(p, p'): the roots of p, each once."""
    if p.degree() < 2:
        return p
    return p.exact_div(p.gcd(_derivative(p)))


def square_free_parts(p: Poly) -> list[Poly]:
    """The non-constant a_i of p = c prod_i a_i^i, square-free and pairwise
    coprime (Yun, SYMSAC 1976): one gcd with p', then gcds of the small
    cofactors, so a high power costs no more than its square-free part.

    >>> from pvkit.arith.cyclo import QQ
    >>> x = Poly.x(QQ)
    >>> square_free_parts((x + 1) ** 3 * x) == [x, x + 1]
    True
    """
    if p.degree() < 1:
        return []
    dp = _derivative(p)
    g = p.gcd(dp)
    b, c = p.exact_div(g), dp.exact_div(g)
    parts = []
    while b.degree() > 0:
        d = c - _derivative(b)
        a = b.gcd(d)
        if a.degree() > 0:
            parts.append(a)
        b, c = b.exact_div(a), d.exact_div(a)
    return parts


def _power_sums(f: list, count: int) -> list:
    """[P_0, ..., P_count] for the roots of the monic f (ascending
    coefficients), P_k the sum of their k-th powers (Newton's identities).

    >>> _power_sums([2, -3, 1], 3)  # (x - 1)(x - 2)
    [2, 3, 5, 9]
    """
    n = len(f) - 1
    ps = [n]
    for k in range(1, count + 1):
        s = sum(f[n - i] * ps[k - i] for i in range(1, min(k, n + 1)))
        ps.append(-(s + k * f[n - k]) if k <= n else -s)
    return ps


def _from_power_sums(ps: list, div) -> list:
    """The monic polynomial (ascending coefficients) whose roots have the
    power sums ps[1:], by Newton's identities with div(s, k) = s / k."""
    a = [1]  # a[i] is the coefficient of x^(deg - i)
    for k in range(1, len(ps)):
        s = -sum(a[i] * ps[k - i] for i in range(k))
        a.append(div(s, k))
        if a[k] * k != s:
            raise InternalInvariantError("Newton's identities left a remainder")
    return a[::-1]


def _composed(f: Poly, g: Poly, sums: bool) -> tuple[list, int | None]:
    """(c, d): the ascending coefficients c of the monic polynomial whose
    roots are d (alpha + beta), or else d alpha beta, over the roots alpha
    of f and beta of g, from the power sums sum_i C(k, i) P_f(i) P_g(k - i),
    or P_f(k) P_g(k) (Bostan, Flajolet, Salvy and Schost, J. Symbolic
    Comput. 41, 2006).  With rational coefficients, x -> x/D for D the lcm
    of their denominators makes f and g monic over Z: the recurrences run
    on ints, and d = D for the sums, D^2 for the products.  Otherwise d is
    None and the roots are unscaled (``_unscaled`` reads both alike).
    """
    n, m = f.degree(), g.degree()
    cs = f.monic().coeffs + g.monic().coeffs
    rats = [_as_rational(c) for c in cs]
    d, div = None, truediv
    if None not in rats:
        d, div = lcm(*(c.denominator for c in rats)), floordiv
        cs = [c.numerator * d ** ((n if j <= n else n + m + 1) - j)
              // c.denominator for j, c in enumerate(rats)]
    pf, pg = _power_sums(cs[:n + 1], n * m), _power_sums(cs[n + 1:], n * m)
    if sums:  # roots D (alpha + beta)
        ps = [sum(comb(k, i) * pf[i] * pg[k - i] for i in range(k + 1))
              for k in range(n * m + 1)]
    else:  # roots D^2 alpha beta
        ps, d = [a * b for a, b in zip(pf, pg)], d and d * d
    return _from_power_sums(ps, div), d


def _unscaled(c: list, d: int | None) -> list:
    """The monic polynomial whose roots are those of c over d
    (``_composed``)."""
    return c if d is None else [Fraction(a, d ** (len(c) - 1 - j))
                                for j, a in enumerate(c)]


def _shift_resultant(p: Poly, r: Poly) -> Poly:
    """R(t) = res_x(p(x), r(x + t)) = lc(p)^m lc(r)^n prod (t - (beta -
    alpha)) over the roots alpha of p and beta of r, n = deg p and m =
    deg r: a composed sum of p(-x) and r (``_composed``)."""
    scale = p.lc() ** r.degree() * r.lc() ** p.degree()
    composed = _composed(p.scale_arg(-1), r, True)
    return Poly(p.field, _unscaled(*composed)) * scale


def _shift_candidates(p: Poly, r: Poly) -> set[int]:
    """Integer roots j of res_x(p(x), r(x + t)), of either sign: the
    integer beta - alpha.  On the integer path of ``_composed`` (roots
    d (beta - alpha)) they are the integer roots of c(d t), found and
    checked on its integer coefficients."""
    c, d = _composed(p.scale_arg(-1), r, True)
    if d is None:
        return _integer_roots_any(Poly(p.field, c))
    return _rational_slice_integer_roots([a * d ** j for j, a in enumerate(c)])


def _strip_x(p: Poly) -> Poly:
    k = 0
    while k <= p.degree() and not p.nth(k):
        k += 1
    return Poly(p.field, p.coeffs[k:])


def _qshift_resultant(p: Poly, r: Poly) -> Poly:
    """R(u) = res_x(r(u x), p(x)), which vanishes at u = beta / alpha for
    roots alpha != 0 of p and beta of r.  For p = x^z p1 with p1(0) != 0
    and m = deg r, R = lc(r)^(deg p1) p1(0)^m ((-1)^m r(0))^z prod (u -
    beta / alpha): a composed product of the reversal of p1 and r."""
    p1, m = _strip_x(p), r.degree()
    scale = (r.lc() ** p1.degree() * p1.nth(0) ** m
             * (r.nth(0) * (-1) ** m) ** (p.degree() - p1.degree()))
    reversal = Poly(p.field, p1.coeffs[::-1])
    return Poly(p.field, _unscaled(*_composed(reversal, r, False))) * scale


def _norm_coeffs(coeffs: list[CycloNum]) -> list[Fraction]:
    """The coefficients of N(R) in Q[u] for R = sum c_i u^i over Q(zeta_n):
    N(lc R) times the monic polynomial whose roots are the conjugates of
    R's roots, so its power sums are the traces of theirs.  Tr(zeta^j) is
    the j-th power sum of the roots of Phi_n."""
    lc, n = coeffs[-1], coeffs[-1].conductor
    traces = _power_sums(cyclotomic_coeffs(n), euler_phi(n) - 1)
    inv = lc.inverse()
    sums = _power_sums([c * inv for c in coeffs],
                       (len(coeffs) - 1) * euler_phi(n))
    return [c * lc.norm() for c in _from_power_sums(
        [sum(map(mul, s.coeffs, traces)) if k else s
         for k, s in enumerate(sums)], truediv)]


def _qshift_candidates(p: Poly, r: Poly, q: CycloNum) -> tuple[set[int], bool]:
    """Candidates j with q^j = beta / alpha for roots alpha of p and beta
    of r, and the flag of ``dispersion_with_flag``.

    Let q^M be rational, M = ``unity_order`` of q's conductor, and R(u) =
    res_x(r(u x), p(x)) = sum c_i u^i (``_qshift_resultant``), or its norm
    to Q[u] when R is irrational (``_norm_coeffs``), which has the roots
    of R among its own.  Let v be the valuation at an element b of a
    coprime basis of every integer involved with v(q^M) != 0
    (``_uneven_base``): v = v_p / v_p(b) on them for a prime p | b.  Any
    extension w of v_p has w(q) = v_p(q^M) / M, and at a
    root u = q^j of R the least w(c_i) + i j w(q) is taken twice, so
    j = M (v(c_i) - v(c_k)) / ((k - i) v(q^M)) for some i < k.  A q with
    no rational power, or an R off the cyclotomic floor, leaves only the
    window |j| <= 128, and the flag says so.
    """
    coeffs = [_constant_as_cyclo(c) for c in _qshift_resultant(p, r).coeffs]
    qm = rational_power(q, q.conductor)
    if qm is None or any(c is None for c in coeffs):
        return set(range(-_QSHIFT_SCAN_CAP, _QSHIFT_SCAN_CAP + 1)), False
    rationals = ([c.rational_value() for c in coeffs]
                 if all(c.is_rational() for c in coeffs)
                 else _norm_coeffs(coeffs))
    base = _uneven_base(qm, rationals)
    vq, m = _padic(qm, base), unity_order(q.conductor)
    vals = [(i, _padic(c, base)) for i, c in enumerate(rationals) if c]
    return {m * (vi - vk) // ((k - i) * vq)
            for n, (i, vi) in enumerate(vals) for k, vk in vals[n + 1:]
            if m * (vi - vk) % ((k - i) * vq) == 0}, True


def _uneven_base(q: Fraction, values) -> int:
    """An element b of a coprime basis of the numerators and denominators
    of q and the nonzero values with v_b(q) != 0, for q != +-1.  Each of
    them is +-1 times a product of powers of the basis, so v_b is a
    valuation on them, and no integer is factored."""
    nums = [q] + [v for v in values if v]
    ints = [abs(v.numerator) for v in nums] + [v.denominator for v in nums]
    return next(b for b in coprime_basis(ints, int_gcd, lambda v: v == 1)
                if _padic(q, b))


def _padic(q: Fraction, p: int) -> int:
    if q == 0:
        raise ZeroInput("valuation of zero")
    v = 0
    n = q.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = q.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v
