"""Exact expression parsing for the command line.

Grammar (whitespace-insensitive)::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := ('+' | '-')* power
    power  := atom ('^' ['-'] INTEGER)?
    atom   := INTEGER | 'x' | 'zeta' '(' INTEGER ')' | '(' expr ')'

Values are exact rational functions of x whose coefficients live in the
smallest cyclotomic field containing every ``zeta(N)`` mentioned.  The
printer in ``pvkit.arith.poly`` emits exactly this grammar, so formatted
values parse back to themselves.
"""

from __future__ import annotations

from math import lcm

from ..arith.cyclo import CycloField, CycloNum
from ..arith.poly import RatFunc, RatFuncField
from ..errors import DivisionByZeroExpression, ParseError

_SYMBOLS = "+-*/^(),"


def _tokenize(text: str) -> list:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j]), i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        if c in _SYMBOLS:
            tokens.append((c, c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", position=i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    """Recursive descent over the token list, producing a small AST."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind):
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise ParseError(
                f"expected {kind!r}, found {tok[1] or 'end of input'!r}",
                position=tok[2])
        self.pos += 1
        return tok

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected {tok[1]!r}", position=tok[2])
        return node

    def expr(self):
        node = self.term()
        while self.peek()[0] in "+-":
            op = self.take(self.peek()[0])[0]
            rhs = self.term()
            node = (op, node, rhs)
        return node

    def term(self):
        node = self.unary()
        while self.peek()[0] in "*/":
            op = self.take(self.peek()[0])[0]
            rhs = self.unary()
            node = ("mul" if op == "*" else "div", node, rhs)
        return node

    def unary(self):
        sign = 1
        while self.peek()[0] in "+-":
            if self.take(self.peek()[0])[0] == "-":
                sign = -sign
        node = self.power()
        return node if sign == 1 else ("neg", node)

    def power(self):
        node = self.atom()
        if self.peek()[0] == "^":
            self.take("^")
            esign = 1
            if self.peek()[0] == "-":
                self.take("-")
                esign = -1
            tok = self.take("int")
            node = ("pow", node, esign * tok[1])
        return node

    def atom(self):
        tok = self.peek()
        if tok[0] == "int":
            self.take("int")
            return ("int", tok[1])
        if tok[0] == "name":
            self.take("name")
            if tok[1] == "x":
                return ("x",)
            if tok[1] == "zeta":
                self.take("(")
                order = self.take("int")
                if order[1] < 1:
                    raise ParseError("zeta order must be >= 1",
                                     position=order[2])
                self.take(")")
                return ("zeta", order[1])
            raise ParseError(f"unknown symbol {tok[1]!r}", position=tok[2])
        if tok[0] == "(":
            self.take("(")
            node = self.expr()
            self.take(")")
            return node
        raise ParseError(
            f"expected a value, found {tok[1] or 'end of input'!r}",
            position=tok[2])


def tree_conductor(node) -> int:
    """Smallest cyclotomic conductor containing every zeta in a parsed
    expression."""
    kind = node[0]
    if kind == "zeta":
        return node[1]
    if kind in ("int", "x"):
        return 1
    if kind in ("neg",):
        return tree_conductor(node[1])
    if kind == "pow":
        return tree_conductor(node[1])
    return lcm(tree_conductor(node[1]), tree_conductor(node[2]))


def evaluate_tree(node, field: RatFuncField) -> RatFunc:
    """The exact value of a parsed expression in ``field``."""
    kind = node[0]
    if kind == "int":
        # an int takes the integer path of CycloNum.from_rational
        return field.coerce(node[1])
    if kind == "x":
        return field.x()
    if kind == "zeta":
        return field.coerce(CycloNum.zeta(node[1]))
    if kind == "neg":
        return -evaluate_tree(node[1], field)
    if kind == "pow":
        base = evaluate_tree(node[1], field)
        if node[2] < 0 and base.is_zero():
            raise DivisionByZeroExpression(
                "zero raised to a negative exponent")
        return base ** node[2]
    lhs = evaluate_tree(node[1], field)
    rhs = evaluate_tree(node[2], field)
    if kind == "+":
        return lhs + rhs
    if kind == "-":
        return lhs - rhs
    if kind == "mul":
        return lhs * rhs
    if rhs.is_zero():
        raise DivisionByZeroExpression("division by an expression equal to 0")
    return lhs / rhs


def parse_tree(text: str):
    """The syntax tree of ``text``; ``tree_conductor`` and
    ``evaluate_tree`` read it, so a text is tokenized once however often
    its value is needed."""
    return _Parser(text).parse()


def expression_conductor(text: str) -> int:
    """Smallest cyclotomic conductor containing every zeta in ``text``."""
    return tree_conductor(parse_tree(text))


def parse_expression(text: str, field: RatFuncField | None = None) -> RatFunc:
    """Parse ``text`` to an exact rational function of x.

    Without an explicit field the coefficients live in the smallest
    cyclotomic field mentioned by the expression itself.
    """
    ast = parse_tree(text)
    if field is None:
        field = RatFuncField(CycloField(tree_conductor(ast)), "x")
    return evaluate_tree(ast, field)
