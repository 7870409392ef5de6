"""Recursive-descent parser and evaluator for scalar field expressions.

Grammar: real literals, variables x1..x9, binary + - * / ^ with the usual
precedence (^ binds tightest and is right-associative), unary minus,
parentheses, and the unary functions exp, abs, tanh, sin, cos, sqrt.
Every parse error reports the byte offset where the problem was detected.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import ExpressionError

FUNCTIONS = {
    "exp": np.exp,
    "abs": np.abs,
    "tanh": np.tanh,
    "sin": np.sin,
    "cos": np.cos,
    "sqrt": np.sqrt,
}

_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
)
_VAR_RE = re.compile(r"x([1-9])\Z")


@dataclass(frozen=True)
class Num:
    value: float

    def eval(self, X):
        return np.full(X.shape[0], self.value)


@dataclass(frozen=True)
class Var:
    index: int  # 1-based axis

    def eval(self, X):
        return X[:, self.index - 1]


@dataclass(frozen=True)
class Neg:
    arg: object

    def eval(self, X):
        return -self.arg.eval(X)


@dataclass(frozen=True)
class Bin:
    op: str
    left: object
    right: object

    def eval(self, X):
        a = self.left.eval(X)
        b = self.right.eval(X)
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        if self.op == "*":
            return a * b
        if self.op == "/":
            return a / b
        return np.power(a, b)


@dataclass(frozen=True)
class Call:
    name: str
    arg: object

    def eval(self, X):
        return FUNCTIONS[self.name](self.arg.eval(X))


@dataclass(frozen=True)
class _Token:
    kind: str  # num | name | op | end
    text: str
    pos: int


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    i = 0
    n = len(source)
    while i < n:
        if source[i].isspace():
            i += 1
            continue
        m = _TOKEN_RE.match(source, i)
        if m is None:
            raise ExpressionError(f"unexpected character {source[i]!r}", i)
        kind = m.lastgroup
        tokens.append(_Token(kind, m.group(), i))
        i = m.end()
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, source: str, dim: int):
        self.tokens = _tokenize(source)
        self.pos = 0
        self.dim = dim

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, text: str):
        tok = self.peek()
        if tok.kind == "op" and tok.text == text:
            return self.advance()
        raise ExpressionError(f"expected {text!r}", tok.pos)

    def parse(self):
        node = self.sum()
        tok = self.peek()
        if tok.kind != "end":
            raise ExpressionError("syntax error", tok.pos)
        return node

    def sum(self):
        node = self.term()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.advance()
                node = Bin(tok.text, node, self.term())
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "*/":
                self.advance()
                node = Bin(tok.text, node, self.factor())
            else:
                return node

    def factor(self):
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return Neg(self.factor())
        return self.power()

    def power(self):
        base = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            # right-associative; exponent may carry a unary minus
            return Bin("^", base, self.factor())
        return base

    def atom(self):
        tok = self.advance()
        if tok.kind == "num":
            return Num(float(tok.text))
        if tok.kind == "name":
            if tok.text in FUNCTIONS:
                nxt = self.peek()
                if not (nxt.kind == "op" and nxt.text == "("):
                    raise ExpressionError(
                        f"function {tok.text!r} takes one parenthesized argument", nxt.pos
                    )
                self.advance()
                arg = self.sum()
                self.expect_op(")")
                return Call(tok.text, arg)
            m = _VAR_RE.match(tok.text)
            if m:
                index = int(m.group(1))
                if index > self.dim:
                    raise ExpressionError(
                        f"variable x{index} exceeds dimension {self.dim}", tok.pos
                    )
                return Var(index)
            raise ExpressionError(f"unknown identifier {tok.text!r}", tok.pos)
        if tok.kind == "op" and tok.text == "(":
            node = self.sum()
            self.expect_op(")")
            return node
        raise ExpressionError("syntax error", tok.pos)


def parse_expression(source: str, dim: int):
    """Parse ``source`` into an AST; variables must fit within ``dim``."""
    return _Parser(source, dim).parse()


def uses_abs(node) -> bool:
    """True when the AST contains an abs() call (non-smooth field flag)."""
    if isinstance(node, Call):
        return node.name == "abs" or uses_abs(node.arg)
    if isinstance(node, Neg):
        return uses_abs(node.arg)
    if isinstance(node, Bin):
        return uses_abs(node.left) or uses_abs(node.right)
    return False


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}


def serialize(node) -> str:
    """Canonical textual form; re-parsing yields an equivalent evaluator."""
    return _ser(node, 0)


def _ser(node, parent_prec: int) -> str:
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return f"x{node.index}"
    if isinstance(node, Call):
        return f"{node.name}({_ser(node.arg, 0)})"
    if isinstance(node, Neg):
        text = f"-{_ser(node.arg, 3)}"
        return f"({text})" if parent_prec > 3 else text
    prec = _PREC[node.op]
    # '-' and '/' need a tighter right side; '^' a tighter left (right-assoc)
    left = _ser(node.left, prec + 1 if node.op == "^" else prec)
    right = _ser(node.right, prec if node.op == "^" else prec + 1)
    text = f"{left}{node.op}{right}"
    return f"({text})" if parent_prec > prec else text


def evaluate(node, X: np.ndarray) -> np.ndarray:
    """Evaluate the AST on points X of shape (m, dim).

    Total on the reals: division by zero and domain escapes follow IEEE
    semantics (inf/nan) instead of raising.
    """
    with np.errstate(all="ignore"):
        out = node.eval(X)
    return np.asarray(out, dtype=float)
