"""Request handling and report construction.

A report is one plain dict; the JSON emitter dumps it with sorted keys
and the text emitter walks the same dict, so both carry identical
content by construction.  Reports are deterministic: timing goes to
stderr as a diagnostic, never into the report body.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import lcm
from typing import Optional

from ..arith.cyclo import CycloField, CycloNum
from ..arith.poly import RatFuncField, format_ratfunc
from ..base import DiffField, SigmaSpec
from ..engine import (
    DEFAULT_SEARCH_BOUND,
    PVPresentation,
    build_pv_diagonal,
    build_pv_unipotent,
)
from ..errors import (
    NotConstant,
    NotFundamental,
    ParseError,
    PvkitError,
    ZeroInput,
)
from ..groups import (
    ConstantsExtensionDesc,
    GroupDesc,
    base_change,
    connection_matrix_check,
    identify_group,
    weak_pv_compare,
    _transported,
)
from ..laurent import LaurentPoly
from .exprparse import evaluate_tree, parse_tree, tree_conductor

SCHEMA_VERSION = 2

DEFAULT_M_MAX = DEFAULT_SEARCH_BOUND

COMMANDS = ("group", "pv", "invariants", "basechange", "check-connection",
            "verify-examples")

# request-level rejections: the input itself is invalid
USAGE_ERROR_CODES = frozenset({
    "parse-error", "division-by-zero-expression", "zero-scale",
    "root-of-unity-scale", "zero-input",
})

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNSUPPORTED = 2
EXIT_GOLDEN_FAILURE = 3


@dataclass
class Request:
    command: str
    sigma: str = "shift"
    q: Optional[str] = None
    system: Optional[str] = None
    adjoin: Optional[str] = None
    u: Optional[str] = None
    v: Optional[str] = None
    m_max: int = DEFAULT_M_MAX
    output: str = "text"


def _split_top_level(text: str) -> list:
    """Split on commas that are not nested inside parentheses."""
    parts = []
    depth = 0
    current = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced ')' in system", position=0)
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if depth != 0:
        raise ParseError("unbalanced '(' in system", position=0)
    parts.append("".join(current))
    return parts


def parse_system(text: str) -> tuple:
    """``scalar(a)`` / ``diag(a1, ..)`` / ``unipotent(b)`` -> (shape, args)."""
    body = text.strip()
    open_at = body.find("(")
    if open_at < 0 or not body.endswith(")"):
        raise ParseError(
            "system must look like scalar(..), diag(..), or unipotent(..)",
            position=0)
    shape = body[:open_at].strip()
    if shape not in ("scalar", "diag", "unipotent"):
        raise ParseError(f"unknown system shape {shape!r}", position=0)
    args = _split_top_level(body[open_at + 1:-1])
    if shape != "diag" and len(args) != 1:
        raise ParseError(f"{shape} takes exactly one entry", position=0)
    return shape, args


def parse_adjoin(text: str) -> ConstantsExtensionDesc:
    """``zeta(N)`` adjoins a root of unity, ``t(COUNT)`` transcendentals."""
    body = text.strip()
    for prefix, build in (
            ("zeta", ConstantsExtensionDesc.adjoin_root_of_unity),
            ("t", ConstantsExtensionDesc.adjoin_transcendental)):
        if body.startswith(prefix + "(") and body.endswith(")"):
            inner = body[len(prefix) + 1:-1].strip()
            if inner.isdigit() and int(inner) >= 1:
                return build(int(inner))
    raise ParseError(
        "extension must be zeta(N) for a root of unity or t(COUNT) for "
        "transcendental constants", position=0)


def _request_trees(req: Request, system_args) -> dict:
    """Each distinct expression of the request parsed once, keyed by its
    text: q, u, v, then the system entries, so a malformed one is
    reported in that order."""
    trees = {}
    for text in [req.q, req.u, req.v] + list(system_args):
        if text is not None and text not in trees:
            trees[text] = parse_tree(text)
    return trees


def _build_field(req: Request, trees: dict, var: str = "x") -> DiffField:
    constants = CycloField(lcm(*map(tree_conductor, trees.values())))
    if req.sigma == "shift":
        if req.q is not None:
            raise ZeroInput("--q only applies to --sigma qshift")
        sigma = SigmaSpec.shift()
    else:
        if req.q is None:
            raise ZeroInput("--sigma qshift requires --q")
        q_value = evaluate_tree(trees[req.q], RatFuncField(constants, var))
        if not q_value.is_const():
            raise ZeroInput("q must be a constant expression")
        sigma = SigmaSpec.qshift(q_value.const_value())
    return DiffField(sigma, constants, var)


def _presented(req: Request, var: str = "x") -> tuple:
    """The request's presentation and the parsed trees of its texts."""
    if req.system is None:
        raise ZeroInput(f"{req.command} requires --system")
    shape, args = parse_system(req.system)
    trees = _request_trees(req, args)
    k = _build_field(req, trees, var)
    entries = [evaluate_tree(trees[a], k.k_field) for a in args]
    if shape == "unipotent":
        p = build_pv_unipotent(k, entries[0], m_max=req.m_max)
    else:
        p = build_pv_diagonal(k, entries, m_max=req.m_max)
    return p, trees


def _build_presentation(req: Request, var: str = "x") -> PVPresentation:
    return _presented(req, var)[0]


def _format_value(p: PVPresentation, f) -> str:
    return format_ratfunc(f, p.field.var)


def _presentation_section(p: PVPresentation) -> dict:
    solution = p.unipotent_solution
    return {
        "shape": "scalar" if p.system.nvars == 1 else p.system.shape,
        "generators": [g.format(p.ideal.var_names)
                       for g in p.ideal.generators],
        "ell": p.ell,
        "m_inv": p.m_inv,
        "krull_dim": p.krull_dim,
        "search_bound": p.search_bound,
        "constants_conductor": p.field.constants_conductor,
        "caveats": list(p.caveats),
        "unipotent_solution": (None if solution is None
                               else _format_value(p, solution)),
    }


def _group_section(desc: GroupDesc) -> dict:
    return {
        "description": desc.describe(),
        "torus_rank": desc.torus_rank,
        "finite_orders": list(desc.finite_orders),
        "unipotent_dim": desc.unipotent_dim,
        "dimension": desc.dimension,
        "coordinate_vars": list(desc.coordinate_vars),
        "coordinate_ideal": [g.format(desc.coordinate_vars)
                             for g in desc.coordinate_ideal],
        "defined_over_conductor": desc.defined_over_conductor,
    }


def _invariants_section(p: PVPresentation, desc: GroupDesc) -> dict:
    return {
        "ell": p.ell,
        "m_inv": p.m_inv,
        "krull_dim": p.krull_dim,
        "group": desc.describe(),
        "group_dimension": desc.dimension,
    }


def _run_group(req: Request, report: dict) -> int:
    p = _build_presentation(req)
    report["presentation"] = _presentation_section(p)
    report["group"] = _group_section(identify_group(p))
    return EXIT_OK


def _run_pv(req: Request, report: dict) -> int:
    p = _build_presentation(req)
    report["presentation"] = _presentation_section(p)
    return EXIT_OK


def _run_invariants(req: Request, report: dict) -> int:
    p = _build_presentation(req)
    report["invariants"] = _invariants_section(p, identify_group(p))
    return EXIT_OK


def _run_basechange(req: Request, report: dict) -> int:
    if req.adjoin is None:
        raise ZeroInput("basechange requires --adjoin")
    ext = parse_adjoin(req.adjoin)
    p = _build_presentation(req)
    before = identify_group(p)
    q = base_change(p, ext)
    # an extension that adds no constants returns p itself
    after = before if q is p else identify_group(q)
    report["presentation"] = _presentation_section(p)
    report["base_change"] = {
        "adjoin": ext.describe(),
        "before": _invariants_section(p, before),
        "after": _invariants_section(q, after),
        "constants_conductor_after": q.field.constants_conductor,
        "transport_ok": _transported(before.coordinate_ideal,
                                     after.coordinate_ideal, q.field),
        "group_unchanged": before == after,
    }
    return EXIT_OK


def _run_check_connection(req: Request, report: dict) -> int:
    if req.u is None or req.v is None:
        raise ZeroInput("check-connection requires --u and --v "
                        "(constant multiples of the residue Y)")
    p, trees = _presented(req)
    report["presentation"] = _presentation_section(p)
    field = p.field.k_field
    u = LaurentPoly.monomial(field, 1, (1,),
                             evaluate_tree(trees[req.u], field))
    v = LaurentPoly.monomial(field, 1, (1,),
                             evaluate_tree(trees[req.v], field))
    try:
        ratio = connection_matrix_check(p, u, v)
    except (NotFundamental, NotConstant) as err:
        report["connection"] = {
            "status": "rejected",
            "error_code": err.code,
            "message": str(err),
            "matrix": None,
        }
        return EXIT_OK
    report["connection"] = {
        "status": "constant",
        "error_code": None,
        "message": None,
        "matrix": [[ratio.format(("Y",))]],
    }
    return EXIT_OK


# --- built-in golden suite --------------------------------------------------

def _golden_scalar_order_two():
    req = Request(command="pv", sigma="shift", system="scalar(-1)")
    p = _build_presentation(req)
    desc = identify_group(p)
    assert (p.ell, p.m_inv, p.krull_dim) == (2, 2, 0), "invariants drifted"
    assert desc.finite_orders == (2,), "group is not order two"
    gens = [g.format(("X",)) for g in desc.coordinate_ideal]
    assert gens == ["-1 + X^2"], f"coordinate ideal drifted: {gens}"
    return "ell 2, m 2, krull 0, coordinate ideal (-1 + X^2)"


def _golden_triangular_free_corner():
    req = Request(command="pv", sigma="qshift", q="2", system="unipotent(1)")
    p = _build_presentation(req)
    desc = identify_group(p)
    assert (p.ell, p.krull_dim) == (1, 1), "invariants drifted"
    assert desc.unipotent_dim == 1 and desc.dimension == 1, \
        "group is not one-dimensional additive"
    return "ell 1, krull 1, additive group of dimension 1"


def _golden_q_scalar_order_two():
    req = Request(command="pv", sigma="qshift", q="2", system="scalar(-2)")
    p = _build_presentation(req, var="s")
    desc = identify_group(p)
    assert p.ell == 2, "component count drifted"
    assert desc.finite_orders == (2,), "group is not order two"
    y = LaurentPoly.monomial(p.field.k_field, 1, (1,))
    ratio = connection_matrix_check(p, y, -y)
    assert ratio == LaurentPoly.const(p.field.k_field, 1, -1), \
        "connection constant drifted"
    return "ell 2, order-two group, connection constant -1"


def _golden_reject_zero_q():
    try:
        SigmaSpec.qshift(0)
    except PvkitError as err:
        assert err.code == "zero-scale", f"wrong rejection: {err.code}"
        return "q = 0 rejected with zero-scale"
    raise AssertionError("q = 0 was accepted")


def _golden_reject_root_of_unity_q():
    try:
        SigmaSpec.qshift(CycloNum.zeta(3))
    except PvkitError as err:
        assert err.code == "root-of-unity-scale", \
            f"wrong rejection: {err.code}"
        return "q = zeta(3) rejected with root-of-unity-scale"
    raise AssertionError("a root-of-unity q was accepted")


def _golden_reject_zero_scalar_entry():
    req = Request(command="pv", sigma="shift", system="scalar(0)")
    try:
        _build_presentation(req)
    except PvkitError as err:
        assert err.code == "zero-input", f"wrong rejection: {err.code}"
        return "scalar(0) rejected with zero-input"
    raise AssertionError("a non-invertible system was accepted")


def _golden_reject_drifting_connection():
    req = Request(command="pv", sigma="shift", system="scalar(2)")
    p = _build_presentation(req)
    field = p.field.k_field
    y = LaurentPoly.monomial(field, 1, (1,))
    xy = LaurentPoly.monomial(field, 1, (1,), p.field.x())
    try:
        connection_matrix_check(p, y, xy)
    except NotConstant:
        return "ratio x between solutions rejected as not sigma-fixed"
    raise AssertionError("a non-constant connection ratio was accepted")


def _golden_distinguish_finite_orders():
    two = _build_presentation(
        Request(command="pv", sigma="shift", system="scalar(-1)"))
    three = _build_presentation(
        Request(command="pv", sigma="qshift", q="8", system="scalar(2)"))
    assert identify_group(three).finite_orders == (3,), \
        "order-three control drifted"
    assert weak_pv_compare(two, three) is False, \
        "weak comparison failed to separate orders 2 and 3"
    return "weak comparison separates orders 2 and 3"


GOLDEN_ITEMS = (
    ("scalar-order-two", _golden_scalar_order_two),
    ("triangular-free-corner", _golden_triangular_free_corner),
    ("q-scalar-order-two", _golden_q_scalar_order_two),
    ("reject-zero-q", _golden_reject_zero_q),
    ("reject-root-of-unity-q", _golden_reject_root_of_unity_q),
    ("reject-zero-scalar-entry", _golden_reject_zero_scalar_entry),
    ("reject-drifting-connection", _golden_reject_drifting_connection),
    ("distinguish-finite-orders", _golden_distinguish_finite_orders),
)


def _run_verify_examples(req: Request, report: dict) -> int:
    items = []
    all_passed = True
    for name, fn in GOLDEN_ITEMS:
        try:
            detail = fn()
            passed = True
        except (AssertionError, PvkitError) as err:
            detail = str(err)
            passed = False
            all_passed = False
        items.append({"name": name, "passed": passed, "detail": detail})
    report["verify"] = {"items": items, "all_passed": all_passed}
    return EXIT_OK if all_passed else EXIT_GOLDEN_FAILURE


_DISPATCH = {
    "group": _run_group,
    "pv": _run_pv,
    "invariants": _run_invariants,
    "basechange": _run_basechange,
    "check-connection": _run_check_connection,
    "verify-examples": _run_verify_examples,
}


def run(req: Request) -> tuple:
    """Execute a request; returns (report dict, exit code)."""
    # the request is flat, so a shallow copy of its fields is a full one
    report = {"schema_version": SCHEMA_VERSION, "request": dict(vars(req))}
    try:
        code = _DISPATCH[req.command](req, report)
    except PvkitError as err:
        report["error"] = {"code": err.code, "message": str(err)}
        code = (EXIT_USAGE if err.code in USAGE_ERROR_CODES
                else EXIT_UNSUPPORTED)
    return report, code


# --- emitters ---------------------------------------------------------------

def render_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _scalar_text(value) -> str:
    if value is None:
        return "(none)"
    if value is True:
        return "true"
    if value is False:
        return "false"
    return str(value)


def _emit(lines: list, key: str, value, indent: int) -> None:
    pad = "  " * indent
    if isinstance(value, dict):
        lines.append(f"{pad}{key}:")
        for k, v in value.items():
            _emit(lines, k, v, indent + 1)
    elif isinstance(value, list):
        if not value:
            lines.append(f"{pad}{key}: (none)")
        elif all(not isinstance(v, (dict, list)) for v in value):
            joined = "; ".join(_scalar_text(v) for v in value)
            lines.append(f"{pad}{key}: {joined}")
        else:
            lines.append(f"{pad}{key}:")
            for i, v in enumerate(value):
                _emit(lines, f"[{i}]", v, indent + 1)
    else:
        lines.append(f"{pad}{key}: {_scalar_text(value)}")


def render_text(report: dict) -> str:
    lines = []
    for key, value in report.items():
        _emit(lines, key, value, 0)
    return "\n".join(lines) + "\n"
