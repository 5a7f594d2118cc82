"""Per-layer tracing from outside the program.

``Tracer`` wraps public functions of ``pvkit`` for the length of a
``with`` block.  A function imported by name into several modules (say
``solve_mult`` in ``pvkit.solve`` and ``pvkit.engine``) is replaced in
every loaded ``pvkit`` module that holds it, so calls through any of
those names are seen, and every replaced attribute is put back on exit.

Timed functions record a span each: name, start, end, parent span and
request id.  Spans stay in memory until ``write_spans``.  Count-only
wrappers on hot arithmetic methods only bump a counter, because a span per
multiplication would cost more than the multiplication.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter

# layer metric -> the (module, function) pairs whose calls it times
TIMED = {
    "arith.resultant": [("pvkit.arith.ops", "resultant")],
    "arith.dispersion": [("pvkit.arith.ops", "dispersion")],
    "solve.solve_mult": [("pvkit.solve", "solve_mult")],
    "solve.relation_lattice": [("pvkit.solve", "relation_lattice")],
    "solve.torsion_order": [("pvkit.solve", "torsion_order")],
    "solve.solve_add": [("pvkit.solve", "solve_add")],
    "snf.hermite_normal_form": [("pvkit.snf", "hermite_normal_form")],
    "snf.smith_normal_form": [("pvkit.snf", "smith_normal_form")],
    "engine.build_pv": [("pvkit.engine", "build_pv_scalar"),
                        ("pvkit.engine", "build_pv_diagonal"),
                        ("pvkit.engine", "build_pv_unipotent")],
    "engine.check_simple": [("pvkit.engine", "check_simple")],
    "groups.base_change": [("pvkit.groups", "base_change")],
    "groups.group_transport_check": [("pvkit.groups",
                                      "group_transport_check")],
    "groups.functor_ideal": [("pvkit.groups", "functor_ideal")],
    "groups.identify_group": [("pvkit.groups", "identify_group")],
    "groups.connection_matrix_check": [("pvkit.groups",
                                        "connection_matrix_check")],
    "cli.parse": [("pvkit.cli.report", "parse_system"),
                  ("pvkit.cli.exprparse", "parse_expression")],
    "cli.run": [("pvkit.cli.report", "run")],
    "cli.render": [("pvkit.cli.report", "render_json")],
}

# layer metric -> the (module, class, method) triples whose calls it counts
COUNTED = {
    "arith.poly_gcd": [("pvkit.arith.poly", "Poly", "gcd")],
    "arith.ratfunc_mul": [("pvkit.arith.poly", "RatFunc", "__mul__")],
    "arith.ratfunc_pow": [("pvkit.arith.poly", "RatFunc", "__pow__")],
    "arith.cyclo_mul": [("pvkit.arith.cyclo", "CycloNum", "__mul__")],
}

# parents by which solve_mult calls are split; any other parent is "other"
SOLVE_MULT_PARENTS = ("solve.relation_lattice", "engine.check_simple",
                      "solve.torsion_order")


def _short(name: str) -> str:
    return name.split(".", 1)[1]


def metric_names() -> list:
    """Every per-layer metric ``totals`` reports, in a fixed order."""
    names = []
    for layer in TIMED:
        names += [f"{layer}.calls", f"{layer}.s", f"{layer}.self_s"]
    names += ["arith.resultant.sylvester_rows", "solve.solve_mult.hits"]
    names += [f"solve.solve_mult.calls.{_short(p)}"
              for p in SOLVE_MULT_PARENTS]
    names.append("solve.solve_mult.calls.other")
    names += [f"{name}.calls" for name in COUNTED]
    return names


def metric_units() -> dict:
    """Unit of every metric a traced run reports."""
    units = {name: "s" if name.endswith((".s", ".self_s")) else "count"
             for name in metric_names()}
    units["trace.overhead_frac"] = "frac"
    return units


def _pvkit_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "pvkit" or name.startswith("pvkit."))]


class Tracer:
    """Installs the wrappers on entry and restores the originals on exit."""

    def __init__(self):
        self.spans = []      # (name, start, end, parent index, request)
        self.counts = Counter()
        self.request = None
        self.installed = []  # (owner, attribute, original)
        self._stack = []

    # --- wrappers --------------------------------------------------------

    def _timed(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.request)
            if name == "arith.resultant":
                counts["arith.resultant.sylvester_rows"] += (
                    args[0].degree() + args[1].degree())
            elif name == "solve.solve_mult" and result is not None:
                counts["solve.solve_mult.hits"] += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def _counted(self, name, fn):
        counts = self.counts
        key = f"{name}.calls"

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # --- install / restore -----------------------------------------------

    def __enter__(self):
        modules = _pvkit_modules()
        replace = {}
        for name, targets in TIMED.items():
            for module, attr in targets:
                fn = getattr(sys.modules[module], attr)
                replace[id(fn)] = (fn, self._timed(name, fn))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._swap(module, attr, hit[1])
        for name, targets in COUNTED.items():
            for module, cls_name, method in targets:
                cls = getattr(sys.modules[module], cls_name)
                fn = cls.__dict__[method]
                wrapper = self._counted(name, fn)
                # aliases such as ``__rmul__ = __mul__`` are counted too
                for attr, value in list(vars(cls).items()):
                    if value is fn:
                        self._swap(cls, attr, wrapper)
        return self

    def _swap(self, owner, attr, wrapper):
        self.installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self.installed):
            setattr(owner, attr, original)
        self.installed.clear()
        return False

    # --- results ---------------------------------------------------------

    def totals(self) -> dict:
        """Per-layer totals over every span and count recorded so far.

        ``.s`` counts a span only when no enclosing span has the same name,
        so nested calls of one function are not timed twice.  ``.self_s``
        is a span's duration minus that of its direct children.
        """
        out = dict.fromkeys(metric_names(), 0)
        spans = self.spans
        child = Counter()
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent, _) in enumerate(spans):
            dur = end - start
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += dur - child[i]
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                out[f"{name}.s"] += dur
            if name == "solve.solve_mult":
                pname = spans[parent][0] if parent >= 0 else None
                key = _short(pname) if pname in SOLVE_MULT_PARENTS else "other"
                out[f"solve.solve_mult.calls.{key}"] += 1
        for key, value in self.counts.items():
            out[key] += value
        return out

    def write_spans(self, fh) -> None:
        """Append every span to ``fh`` as one JSON object per line."""
        for name, start, end, parent, request in self.spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end,
                                 "parent": parent, "request": request}) + "\n")
