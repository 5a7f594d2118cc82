"""Argument parsing and process exit codes.

Exit codes: 0 success, 1 usage error, 2 unsupported input reported by
the engine, 3 built-in golden-suite failure.  Reports go to stdout;
diagnostics (including timing) go to stderr.
"""

from __future__ import annotations

import argparse
import sys
import time

from .report import (
    COMMANDS,
    DEFAULT_M_MAX,
    EXIT_USAGE,
    Request,
    render_json,
    render_text,
    run,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pvkit",
        description=("Construct solution rings of first-order linear "
                     "difference systems over C(x) and identify their "
                     "symmetry groups exactly."))
    sub = parser.add_subparsers(dest="command", metavar="command")
    specs = {
        "group": "build the presentation and identify the group",
        "pv": "build the presentation only",
        "invariants": "print the numeric invariants",
        "basechange": "rebuild over enlarged constants and compare",
        "check-connection": "compare two fundamental solutions",
        "verify-examples": "run the built-in golden suite",
    }
    for name in COMMANDS:
        cmd = sub.add_parser(name, help=specs[name])
        if name != "verify-examples":
            cmd.add_argument("--sigma", choices=("shift", "qshift"),
                             default="shift",
                             help="difference operator (default shift)")
            cmd.add_argument("--q", default=None,
                             help="scale constant for --sigma qshift, "
                                  "e.g. 2 or 1/2 or 2*zeta(3)")
            cmd.add_argument("--system", default=None,
                             help='scalar(a), diag(a1, a2, ..), or '
                                  'unipotent(b); entries use the grammar '
                                  'rationals, x, zeta(N), + - * / ^')
            cmd.add_argument("--m-max", type=int, default=DEFAULT_M_MAX,
                             dest="m_max",
                             help="relation search bound for constants "
                                  "with no rational power; a lattice it "
                                  "limits carries a caveat "
                                  f"(default {DEFAULT_M_MAX})")
        if name == "basechange":
            cmd.add_argument("--adjoin", default=None,
                             help="zeta(N) for a root of unity, t(COUNT) "
                                  "for transcendental constants")
        if name == "check-connection":
            cmd.add_argument("--u", default=None,
                             help="first solution, as a constant multiple "
                                  "of the residue Y")
            cmd.add_argument("--v", default=None,
                             help="second solution, same form")
        cmd.add_argument("--output", choices=("text", "json"),
                         default="text", help="report format (default text)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    started = time.monotonic()
    try:
        ns = parser.parse_args(argv)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    if ns.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    req = Request(
        command=ns.command,
        sigma=getattr(ns, "sigma", "shift"),
        q=getattr(ns, "q", None),
        system=getattr(ns, "system", None),
        adjoin=getattr(ns, "adjoin", None),
        u=getattr(ns, "u", None),
        v=getattr(ns, "v", None),
        m_max=getattr(ns, "m_max", DEFAULT_M_MAX),
        output=ns.output,
    )
    report, code = run(req)
    emit = render_json if req.output == "json" else render_text
    sys.stdout.write(emit(report))
    elapsed_ms = int((time.monotonic() - started) * 1000)
    print(f"elapsed-ms: {elapsed_ms}", file=sys.stderr)
    if "error" in report:
        err = report["error"]
        print(f"error[{err['code']}]: {err['message']}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
