"""The benchmark's workloads and the expected answer of every input.

Every expected value is derived by hand from the relation lattice of the
system (or copied from a hand-written assertion in ``tests/``), never from
what ``pvkit`` prints.  For a scalar or diagonal system the relation
lattice L is the set of exponent vectors v with prod a_i^{v_i} a
sigma-quotient sigma(g)/g.  The group is Z^n / L read through its Smith
form: the torus rank is n - rank L and the finite part is the invariant
factors above 1.  ``krull_dim`` equals the torus rank (plus one for a free
unipotent corner).  ``ell`` (orbit components) and ``m_inv`` (degree of
the periodic elements) equal the order of the finite part when the
constants hold the roots of unity of that order; the two q-shift catalog
systems with a = 2 and a = sqrt(2) have rational constants and keep
ell = m_inv = 1, as the tests assert.

Quotient facts used below:
  shift:  sigma(g)/g has numerator and denominator of equal degree and
          leading-coefficient ratio 1, so a constant c is a quotient only
          if c = 1, and x^k (k != 0) never is; (x+1)/x = sigma(x)/x is.
  qshift: sigma(g)/g = q^k h(qx)/h(x) with h(0) != 0, so the x-adic
          valuation of a quotient is 0 and a constant c is a quotient iff
          c is in q^Z; a factor x^2+1 lies on orbits that never close.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Input:
    """One request of a workload and the answer it must produce."""

    label: str
    command: str
    request: dict
    expected: dict


def _group(system, ell, m_inv, krull_dim, group, sigma="shift", q=None):
    req = {"sigma": sigma, "system": system}
    if q is not None:
        req["q"] = q
    label = system if q is None else f"{system} [q={q}]"
    return Input(label, "group", req,
                 {"ell": ell, "m_inv": m_inv, "krull_dim": krull_dim,
                  "group": group})


# --- lattice-scan: 2-3 entry shift and rational-q diagonal systems --------
LATTICE_SCAN = (
    # -1, -(x+1)/x, x: x^{v3} forces v3 = 0, then (-1)^{v1+v2} = 1.
    # L = {(a, b, 0): a + b even} = <(1,1,0), (0,2,0)>; Z^3/L = Z x Z/2.
    _group("diag(-1,-(x+1)/x,x)", 2, 2, 1,
           "torus of rank 1 times finite part Z/2"),
    # x^{v1+v2} ((x+1)/x)^{v2} (-1)^{v3}: v1 = -v2 and v3 even.
    # L = <(1,-1,0), (0,0,2)>; Z^3/L = Z x Z/2.
    _group("diag(x,x+1,-1)", 2, 2, 1,
           "torus of rank 1 times finite part Z/2"),
    # q = 2: valuation forces v1 = 0, x^2+1 forces v3 = 0, (-1)^{v2} in
    # 2^Z forces v2 even.  L = <(0,2,0)>; Z^3/L = Z^2 x Z/2.
    _group("diag(x,-1,x^2+1)", 2, 2, 2,
           "torus of rank 2 times finite part Z/2", sigma="qshift", q="2"),
    # q = 3: -3x has valuation 1, so v1 = 0; x^2+1 forces v2 = 0.
    # L = 0; Z^2/L = Z^2.
    _group("diag(-3*x,x^2+1)", 1, 1, 2, "torus of rank 2",
           sigma="qshift", q="3"),
    # tests/test_engine.py TestDiagonalPair: L = <(1,1), (0,2)>, (2, 2, 0).
    _group("diag(-1,-(x+1)/x)", 2, 2, 0, "finite part Z/2"),
)

# --- cyclo-dispersion: non-rational constants, repeated and shifted factors
CYCLO_DISPERSION = (
    # zeta5 sigma(x)/x: zeta5^v = 1 iff 5 | v.  L = 5Z.
    _group("scalar(zeta(5)*(x+1)/x)", 5, 5, 0, "finite part Z/5"),
    # x/(x+1) and (x+2)/(x+3) are quotients, so only zeta3^v = 1 counts.
    # L = 3Z.
    _group("scalar(zeta(3)*x*(x+2)/((x+1)*(x+3)))", 3, 3, 0,
           "finite part Z/3"),
    # (x+1)^5/x^5 = sigma(x^5)/x^5 is itself a quotient.  L = Z.
    _group("scalar((x+1)^5/x^5)", 1, 1, 0, "trivial group"),
    # zeta3^{v1} (-1)^{v2} = 1 iff 3 | v1 and 2 | v2.
    # L = <(3,0), (0,2)>; Smith form diag(1, 6), so Z^2/L = Z/6.
    _group("diag(zeta(3)*(x+1)/x,-1)", 6, 6, 0, "finite part Z/6"),
    # 1/(x(x+1)(x+2)(x+3)) = g(x) - g(x+1) with g = 1/(3x(x+1)(x+2)), so
    # f = -g solves sigma(f) - f = b: the corner is pinned, the group is
    # trivial.
    _group("unipotent(1/(x*(x+1)*(x+2)*(x+3)))", 1, 1, 0, "trivial group"),
    # q = 2 zeta3: (-2)^v = q^k needs k = v and (-zeta3^2)^v = 1, and
    # -zeta3^2 is a primitive 6th root of unity.  L = 6Z.
    _group("scalar(-2)", 6, 6, 0, "finite part Z/6",
           sigma="qshift", q="2*zeta(3)"),
)

# Known slow input, left out of CYCLO_DISPERSION: it runs for more than
# 300 s at the default bounds, and a workload input must finish.  A
# dispersion or lattice change that brings it under the per-input cap
# adds it to the workload.
#   zeta5^{v1} x^{v1} (x+1)^{v2} (-1)^{v3}: degree forces v1 = -v2 = a,
#   and then zeta5^a (-1)^{v3} = 1 forces 5 | a and 2 | v3.
#   L = {(5a, -5a, 2b)} = <(5,-5,0), (0,0,2)>; Smith form diag(1, 10), so
#   Z^3/L = Z x Z/10.
KNOWN_SLOW = _group("diag(zeta(5)*x,x+1,-1)", 10, 10, 1,
                    "torus of rank 1 times finite part Z/10")


# --- catalog: the seven reference systems of tests/conftest.py -----------
# Values from tests/test_engine.py and tests/test_acceptance.py; the group
# of each follows from its lattice (2Z, 0 with a free corner, 2Z, the
# diagonal pair, 3Z, 3Z, 2Z).  Base change of the constants leaves the
# lattice, hence every invariant and the group, unchanged.
_CATALOG_SYSTEMS = (
    ("scalar(-1)", "shift", None, 2, 2, 0, "finite part Z/2"),
    ("unipotent(1)", "qshift", "2", 1, 1, 1,
     "additive group of dimension 1"),
    ("scalar(-2)", "qshift", "2", 2, 2, 0, "finite part Z/2"),
    ("diag(-1,-(x+1)/x)", "shift", None, 2, 2, 0, "finite part Z/2"),
    ("scalar(zeta(3)*(x+1)/x)", "shift", None, 3, 3, 0, "finite part Z/3"),
    # q = 8, a = 2: 2^v in 8^Z iff 3 | v.
    ("scalar(2)", "qshift", "8", 1, 1, 0, "finite part Z/3"),
    # q = 2, a = zeta8 + zeta8^7 = sqrt(2): a^2 = 2 = q, a is not in 2^Z.
    ("scalar(zeta(8)+zeta(8)^7)", "qshift", "2", 1, 1, 0, "finite part Z/2"),
)


def _catalog():
    out = []
    for system, sigma, q, ell, m_inv, krull, group in _CATALOG_SYSTEMS:
        base = _group(system, ell, m_inv, krull, group, sigma=sigma, q=q)
        out.append(base)
        for adjoin in ("zeta(3)", "t(1)"):
            out.append(Input(
                f"basechange {base.label} +{adjoin}", "basechange",
                {**base.request, "adjoin": adjoin},
                {**base.expected, "group_unchanged": True,
                 "transport_ok": True}))
    out.append(Input("verify-examples", "verify-examples", {},
                     {"all_passed": True}))
    # u = Y, v = -Y: the ratio is the constant -1.
    out.append(Input(
        "check-connection scalar(-2) [q=2]", "check-connection",
        {"sigma": "qshift", "q": "2", "system": "scalar(-2)",
         "u": "1", "v": "-1"},
        {"status": "constant", "matrix": [["-1"]]}))
    # u = Y, v = xY: sigma(1/x) = 1/(x+1) != 1/x, so the ratio drifts.
    out.append(Input(
        "check-connection scalar(2)", "check-connection",
        {"sigma": "shift", "system": "scalar(2)", "u": "1", "v": "x"},
        {"status": "rejected", "error_code": "not-constant"}))
    return tuple(out)


CATALOG = _catalog()

WORKLOADS = {
    "lattice-scan": LATTICE_SCAN,
    "cyclo-dispersion": CYCLO_DISPERSION,
    "catalog": CATALOG,
}


def _invariants_mismatch(section: dict, expected: dict) -> str | None:
    for key in ("ell", "m_inv", "krull_dim"):
        if section.get(key) != expected[key]:
            return f"{key} {section.get(key)!r} != {expected[key]!r}"
    return None


def check(inp: Input, report: dict, code: int) -> str | None:
    """Why the report differs from the expected answer, or None."""
    if code != 0 or "error" in report:
        return f"exit code {code}, error {report.get('error')!r}"
    exp = inp.expected
    if inp.command == "group":
        problem = _invariants_mismatch(report["presentation"], exp)
        described = report["group"]["description"]
        if problem is None and described != exp["group"]:
            problem = f"group {described!r} != {exp['group']!r}"
        return problem
    if inp.command == "basechange":
        section = report["base_change"]
        for side in ("before", "after"):
            problem = _invariants_mismatch(section[side], exp)
            if problem is None and section[side]["group"] != exp["group"]:
                problem = f"group {section[side]['group']!r} != {exp['group']!r}"
            if problem is not None:
                return f"{side}: {problem}"
        for key in ("group_unchanged", "transport_ok"):
            if section[key] is not exp[key]:
                return f"{key} is {section[key]!r}"
        return None
    if inp.command == "verify-examples":
        if report["verify"]["all_passed"] is not exp["all_passed"]:
            return "verify-examples reported a failing item"
        return None
    section = report["connection"]
    for key, value in exp.items():
        if section[key] != value:
            return f"connection {key} {section[key]!r} != {value!r}"
    return None
