"""Recursive-descent parser and forward-mode jet for scalar field expressions.

Grammar: real literals, variables x1..x9, binary + - * / ^ with the usual
precedence (^ binds tightest and is right-associative), unary minus,
parentheses, and the unary functions exp, abs, tanh, sin, cos, sqrt.
Every parse error reports the byte offset where the problem was detected.

Each AST node's ``forward`` pass takes one coordinate array per axis,
broadcasting together, and returns its value together with a sparse dict
{axis: partial} that holds only the axes the subtree depends on.  Values
and partials keep the broadcast shape of the axes they depend on, so on a
grid's row coordinates a subtree of the leading axes alone runs once per
row.  Literals stay numpy scalars with no partials, so an operation with
a constant costs no array.  ``jet`` runs the pass, giving the values and
exact partials in one pass; ``evaluate`` is its values.
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

# d name(a) / da from the argument a and the value v = name(a); abs takes
# sign, which is 0 at the kink (such fields are flagged non-smooth)
DERIVATIVES = {
    "exp": lambda a, v: v,
    "abs": lambda a, v: np.sign(a),
    "tanh": lambda a, v: 1.0 - v * v,
    "sin": lambda a, v: np.cos(a),
    "cos": lambda a, v: -np.sin(a),
    "sqrt": lambda a, v: 0.5 / v,
}

_BINARY = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide, "^": np.power}

_ONE = 1.0  # the partial of a variable by itself: scaling by it is skipped


_SMALL_EXPONENTS = frozenset(range(3, 9))


def _small_exponent(node):
    """The exponent as an int when ``node`` is an integer literal from 3
    to 8, else None.

    Such powers are taken by repeated multiplication: np.power may take a
    slow element-wise path for negative bases, whose results need not
    mirror those for positive ones bit for bit.  A square already has the
    bits of a * a in np.power and keeps it.
    """
    if isinstance(node, Num) and node.value in _SMALL_EXPONENTS:
        return int(node.value)
    return None


def _repeated_product(a, n: int):
    """a^n for an integer n >= 1, multiplied out from the left."""
    v = a
    for _ in range(n - 1):
        v = v * a
    return v


def _scaled(d, w):
    """The partial d scaled by w (None means 1)."""
    return d if w is None else w if d is _ONE else d * w


def _combine(da: dict, s, db: dict, t) -> dict:
    """Partials of s*a + t*b from those of a and b (s or t None means 1);
    where both have an axis, a's term comes first in the sum."""
    out = {k: _scaled(d, s) for k, d in da.items()}
    for k, d in db.items():
        d = _scaled(d, t)
        out[k] = out[k] + d if k in out else d
    return out


_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
)
_VAR_RE = re.compile(r"x([1-9])\Z")


@dataclass(frozen=True)
class Num:
    value: float

    def forward(self, xs):
        return np.float64(self.value), {}


@dataclass(frozen=True)
class Var:
    index: int  # 1-based axis

    def forward(self, xs):
        return xs[self.index - 1], {self.index - 1: _ONE}


@dataclass(frozen=True)
class Neg:
    arg: object

    def forward(self, xs):
        a, da = self.arg.forward(xs)
        return -a, {k: -d for k, d in da.items()}


@dataclass(frozen=True)
class Bin:
    op: str
    left: object
    right: object

    def forward(self, xs):
        a, da = self.left.forward(xs)
        b, db = self.right.forward(xs)
        op = self.op
        n = _small_exponent(self.right) if op == "^" else None
        v = _BINARY[op](a, b) if n is None else _repeated_product(a, n)
        if not (da or db):
            return v, {}
        if op in "+-":
            return v, _combine(da, None, db, None if op == "+" else -1.0)
        if op == "*":
            return v, _combine(da, b, db, a)
        if op == "/":
            r = 1.0 / b
            return v, _combine(da, r, db, -v * r if db else None)
        if n is not None:
            return v, _combine(da, b * _repeated_product(a, n - 1), {}, None)
        if not db:  # constant exponent: power rule, no log; a^0 is constant
            # (an exponent without partials, such as x1^0, may be an array
            # of one value)
            return v, (_combine(da, b * a ** (b - 1.0), {}, None) if np.any(b != 0) else {})
        # d(a^b) = b a^(b-1) da + a^b log(a) db; the log term is 0 where a^b is
        w = np.where(v == 0, 0.0, v * np.log(a))
        return v, _combine(da, b * a ** (b - 1.0) if da else None, db, w)


@dataclass(frozen=True)
class Call:
    name: str
    arg: object

    def forward(self, xs):
        a, da = self.arg.forward(xs)
        v = FUNCTIONS[self.name](a)
        return v, (_combine(da, DERIVATIVES[self.name](a, v), {}, None) if da else {})


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
    """Canonical textual form; re-parsing yields an equivalent AST."""
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


def jet(node, xs) -> tuple:
    """Values and exact partials of the AST at coordinates ``xs``, one
    array per axis that broadcast together, from one forward-mode pass.
    The values broadcast to the coordinates' common shape (a constant
    expression gives a numpy scalar), and the partials are a tuple with
    one entry per axis, each broadcastable to the values' shape, 0.0 for
    an axis the expression does not contain.

    Total on the reals: division by zero, domain escapes and unbounded
    derivatives (sqrt at 0) follow IEEE semantics (inf/nan) instead of
    raising.
    """
    with np.errstate(all="ignore"):
        value, partials = node.forward(xs)
    return value, tuple(partials.get(k, 0.0) for k in range(len(xs)))


def evaluate(node, xs):
    """The values of ``jet``.  Nothing in the package calls it: it is kept
    for perfbench/tracing.py, which rebinds it."""
    return jet(node, xs)[0]
