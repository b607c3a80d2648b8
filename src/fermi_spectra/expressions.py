"""Arithmetic expression trees for curvature and width descriptions.

Grammar (no implicit multiplication):

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | power
    power   := atom ('^' factor)?
    atom    := number | name | name '(' expr ')' | '(' expr ')'

'^' is right associative and binds tighter than unary minus, so
-2^2 evaluates to -4 and 2^3^2 to 512.  Allowed names are the free
variables declared by the caller, the constants pi and e, and the
function set sin, cos, tan, exp, log, sqrt, abs.  Anything else is
rejected at parse time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParseError

FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
}

CONSTANTS = {
    "pi": np.pi,
    "e": np.e,
}


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    name: str


@dataclass(frozen=True)
class Neg:
    child: object


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    fn: str
    arg: object


_SYMBOLS = set("+-*/^()")


def _tokenize(text):
    """Yield (kind, value, start) triples; kind is 'num', 'name', or 'sym'."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _SYMBOLS:
            tokens.append(("sym", c, i))
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == ".":
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            tokens.append(("num", text[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i, text)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text, variables):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.variables = set(variables)

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_sym(self, sym):
        kind, value, start = self.peek()
        if kind != "sym" or value != sym:
            raise ParseError(f"expected {sym!r}", start, self.text)
        return self.advance()

    def parse(self):
        node = self.expr()
        kind, value, start = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing {value!r}", start, self.text)
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, value, start = self.peek()
            if kind == "sym" and value in "+-":
                self.advance()
                node = BinOp(value, node, self.term())
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, value, start = self.peek()
            if kind == "sym" and value in "*/":
                self.advance()
                node = BinOp(value, node, self.factor())
            else:
                return node

    def factor(self):
        kind, value, start = self.peek()
        if kind == "sym" and value == "-":
            self.advance()
            return Neg(self.factor())
        return self.power()

    def power(self):
        base = self.atom()
        kind, value, start = self.peek()
        if kind == "sym" and value == "^":
            self.advance()
            return BinOp("^", base, self.factor())
        return base

    def atom(self):
        kind, value, start = self.advance()
        if kind == "num":
            return Num(float(value))
        if kind == "name":
            if value in FUNCTIONS:
                self.expect_sym("(")
                arg = self.expr()
                self.expect_sym(")")
                return Call(value, arg)
            if value in self.variables:
                return Var(value)
            if value in CONSTANTS:
                return Const(value)
            raise ParseError(f"unknown identifier {value!r}", start, self.text)
        if kind == "sym" and value == "(":
            node = self.expr()
            self.expect_sym(")")
            return node
        shown = value if value else "end of input"
        raise ParseError(f"expected a value, got {shown}", start, self.text)


def parse_expression(text, variables=("s",)):
    """Parse text into an expression tree.

    variables lists the free-variable names allowed to appear; unknown
    identifiers raise ParseError with the byte offset of the offender.
    """
    if not isinstance(text, str):
        raise ParseError("expression must be a string", 0, repr(text))
    return _Parser(text, variables).parse()


def overflows(node):
    """True when a number literal in the tree overflows a double (reads as inf)."""
    if isinstance(node, Num):
        return math.isinf(node.value)
    if isinstance(node, Neg):
        return overflows(node.child)
    if isinstance(node, Call):
        return overflows(node.arg)
    if isinstance(node, BinOp):
        return overflows(node.left) or overflows(node.right)
    return False


def evaluate(node, env):
    """Evaluate a tree with env mapping variable names to floats or arrays."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Const):
        return CONSTANTS[node.name]
    if isinstance(node, Neg):
        return -evaluate(node.child, env)
    if isinstance(node, Call):
        return FUNCTIONS[node.fn](evaluate(node.arg, env))
    left = evaluate(node.left, env)
    right = evaluate(node.right, env)
    if node.op == "+":
        return left + right
    if node.op == "-":
        return left - right
    if node.op == "*":
        return left * right
    if node.op == "/":
        # numpy semantics: x/0 is inf or nan, which the callers' checks reject.
        return np.divide(left, right)
    return np.power(left, right)


# Precedence levels used by the printer; mirror the grammar above.
_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(node):
    if isinstance(node, BinOp):
        if node.op in "+-":
            return _PREC_ADD
        if node.op in "*/":
            return _PREC_MUL
        return _PREC_POW
    if isinstance(node, Neg):
        return _PREC_NEG
    return _PREC_ATOM


def _wrap(text, need):
    return f"({text})" if need else text


def pretty(node):
    """Render a tree with the fewest parentheses that reparse to it."""
    if isinstance(node, Num):
        value = node.value
        if value == int(value) and abs(value) < 1e16:
            return str(int(value))
        return repr(value)
    if isinstance(node, (Var, Const)):
        return node.name
    if isinstance(node, Neg):
        return "-" + _wrap(pretty(node.child), _prec(node.child) < _PREC_NEG)
    if isinstance(node, Call):
        return f"{node.fn}({pretty(node.arg)})"
    left, right = node.left, node.right
    if node.op in "+-":
        ls = _wrap(pretty(left), _prec(left) < _PREC_ADD)
        rs = _wrap(pretty(right), _prec(right) <= _PREC_ADD)
        return f"{ls} {node.op} {rs}"
    if node.op in "*/":
        ls = _wrap(pretty(left), _prec(left) < _PREC_MUL)
        rs = _wrap(pretty(right), _prec(right) <= _PREC_MUL)
        return f"{ls} {node.op} {rs}"
    # '^': the base must be an atom, the exponent anything a factor allows.
    ls = _wrap(pretty(left), _prec(left) < _PREC_ATOM)
    rs = _wrap(pretty(right), _prec(right) < _PREC_NEG)
    return f"{ls}^{rs}"


def as_function(node, variable, L=None):
    """Wrap a tree as f(values) for one free variable, with L bound when given.

    The result has the shape of values also when the tree does not use the
    variable: a constant is broadcast, so callers that check shapes take it
    as vectorized.
    """
    bound = {} if L is None else {"L": L}

    def f(values):
        values = np.asarray(values, dtype=float)
        out = np.asarray(evaluate(node, {**bound, variable: values}), dtype=float)
        return out if out.shape == values.shape else np.full(values.shape, out)

    return f
