"""Expression language for finite differential operators.

Surface syntax (whitespace-insensitive, '#' starts a line comment):

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := 'D' '(' int ',' rational ')'   finite derivative
            | 'M' '(' ident ')'              multiplication by a named coefficient
            | 'I'                            identity
            | 'adj' '(' expr ')'             adjoint
            | complex-literal                e.g. 2, 1.5, 2+3i, (-1+0i)
            | '(' expr ')'

A `.fop` file adds a definitions section binding coefficient names to lists
of boxes with rational endpoints (painter's order by default, additive with
the `sum` keyword), plus optional `N = ...` / `M = ...` headers:

    N = 2
    M = 1
    coeff S {
        box [0,1/2) x [0,1) = [[1]]
    }
    operator { M(S) * D(1,1/2) + I }

Lowering picks the minimal grid: p = lcm of every step denominator and every
box endpoint denominator reachable from the expression.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ParseError
from .grid import GridSpec, StepFunction, box_index
from .operators import FiniteOperator


# ---------------------------------------------------------------------------
# AST

@dataclass(frozen=True)
class Identity:
    pass


@dataclass(frozen=True)
class Deriv:
    axis: int
    step: Fraction


@dataclass(frozen=True)
class Mult:
    name: str


@dataclass(frozen=True)
class Adjoint:
    expr: object


@dataclass(frozen=True)
class Scale:
    scalar: complex
    expr: object


@dataclass(frozen=True)
class Product:
    factors: tuple


@dataclass(frozen=True)
class Sum:
    terms: tuple


@dataclass(frozen=True)
class Box:
    intervals: tuple  # per-axis (lo, hi) Fractions, half-open [lo, hi)
    value: np.ndarray


@dataclass(frozen=True)
class CoeffDef:
    name: str
    boxes: tuple
    mode: str = "paint"  # "paint": later boxes overwrite; "sum": additive


@dataclass(frozen=True)
class FopFile:
    N: int
    M: int
    coeffs: dict
    expr: object


# ---------------------------------------------------------------------------
# Lexer

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<comment>#[^\n]*)"
    r"|(?P<num>\d+(\.\d+)?([eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_]\w*)"
    r"|(?P<sym>[+\-*/()\[\]{},=])"
)


@dataclass(frozen=True)
class Token:
    kind: str  # "num", "ident", "sym", "eof"
    text: str
    line: int
    col: int


def _tokenize(source: str):
    tokens = []
    pos, line, col = 0, 1, 1
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ParseError(f"unexpected character {source[pos]!r}", line, col)
        kind = m.lastgroup
        text = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(Token(kind, text, line, col))
        nl = text.count("\n")
        if nl:
            line += nl
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# Parser

class _Parser:
    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.pos = 0

    def peek(self, ahead=0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.peek()
        self.pos += 1
        return tok

    def error(self, message):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col)

    def expect(self, kind, text=None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            self.error(f"expected {want!r}, found {tok.text!r}")
        return self.next()

    def accept(self, kind, text=None):
        tok = self.peek()
        if tok.kind == kind and (text is None or tok.text == text):
            return self.next()
        return None

    # -- numeric literals --------------------------------------------------

    def parse_int(self) -> int:
        sign = -1 if self.accept("sym", "-") else 1
        tok = self.expect("num")
        if "." in tok.text or "e" in tok.text or "E" in tok.text:
            raise ParseError(f"expected integer, found {tok.text!r}", tok.line, tok.col)
        return sign * int(tok.text)

    def parse_rational(self) -> Fraction:
        num = self.parse_int()
        if self.accept("sym", "/"):
            den_tok = self.peek()
            den = self.parse_int()
            if den == 0:
                raise ParseError("zero denominator", den_tok.line, den_tok.col)
            return Fraction(num, den)
        return Fraction(num)

    def _number(self) -> float:
        return float(self.expect("num").text)

    def parse_complex(self, allow_sign=False) -> complex:
        sign = 1.0
        if allow_sign:
            if self.accept("sym", "-"):
                sign = -1.0
            else:
                self.accept("sym", "+")
        a = sign * self._number()
        if self.accept("ident", "i"):
            return complex(0.0, a)
        save = self.pos
        s2 = None
        if self.accept("sym", "+"):
            s2 = 1.0
        elif self.accept("sym", "-"):
            s2 = -1.0
        if s2 is not None and self.peek().kind == "num" and self.peek(1).text == "i":
            b = self._number()
            self.expect("ident", "i")
            return complex(a, s2 * b)
        self.pos = save
        return complex(a, 0.0)

    # -- operator expressions ----------------------------------------------

    def parse_expr(self):
        terms = []
        negate = bool(self.accept("sym", "-"))
        terms.append(self._maybe_negate(self.parse_term(), negate))
        while True:
            if self.accept("sym", "+"):
                terms.append(self.parse_term())
            elif self.accept("sym", "-"):
                terms.append(self._maybe_negate(self.parse_term(), True))
            else:
                break
        return terms[0] if len(terms) == 1 else Sum(tuple(terms))

    @staticmethod
    def _maybe_negate(term, negate):
        if not negate:
            return term
        if isinstance(term, Scale):
            return Scale(-term.scalar, term.expr)
        return Scale(complex(-1.0), term)

    def parse_term(self):
        scalar = None
        ops = []
        while True:
            kind, value = self.parse_factor()
            if kind == "scalar":
                scalar = value if scalar is None else scalar * value
            else:
                ops.append(value)
            if not self.accept("sym", "*"):
                break
        if not ops:
            return Scale(scalar, Identity())
        body = ops[0] if len(ops) == 1 else Product(tuple(ops))
        return body if scalar is None else Scale(scalar, body)

    def parse_factor(self):
        tok = self.peek()
        if tok.kind == "num":
            return "scalar", self.parse_complex()
        if tok.kind == "sym" and tok.text == "(":
            save = self.pos
            self.next()
            if self.peek().kind == "num" or self.peek().text in ("+", "-"):
                try:
                    value = self.parse_complex(allow_sign=True)
                    if self.accept("sym", ")"):
                        return "scalar", value
                except ParseError:
                    pass
                self.pos = save + 1
            inner = self.parse_expr()
            self.expect("sym", ")")
            return "op", inner
        if tok.kind == "ident":
            if tok.text == "D":
                self.next()
                self.expect("sym", "(")
                axis = self.parse_int()
                self.expect("sym", ",")
                step = self.parse_rational()
                self.expect("sym", ")")
                if step == 0:
                    raise ParseError("derivative step must be nonzero", tok.line, tok.col)
                return "op", Deriv(axis, step)
            if tok.text == "M":
                self.next()
                self.expect("sym", "(")
                name = self.expect("ident").text
                self.expect("sym", ")")
                return "op", Mult(name)
            if tok.text == "I":
                self.next()
                return "op", Identity()
            if tok.text == "adj":
                self.next()
                self.expect("sym", "(")
                inner = self.parse_expr()
                self.expect("sym", ")")
                return "op", Adjoint(inner)
        self.error(f"unexpected token {tok.text!r} in expression")

    # -- .fop files ---------------------------------------------------------

    def parse_file(self) -> FopFile:
        N = M = None
        coeffs = {}
        expr = None
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.kind == "ident" and tok.text in ("N", "M") and self.peek(1).text == "=":
                self.next()
                self.next()
                value = self.parse_int()
                if value < 1:
                    raise ParseError(f"{tok.text} must be >= 1", tok.line, tok.col)
                if tok.text == "N":
                    N = value
                else:
                    M = value
            elif tok.kind == "ident" and tok.text == "coeff":
                cdef = self.parse_coeff()
                coeffs[cdef.name] = cdef
            elif tok.kind == "ident" and tok.text == "operator":
                self.next()
                self.expect("sym", "{")
                expr = self.parse_expr()
                self.expect("sym", "}")
            else:
                self.error(f"expected header, 'coeff', or 'operator', found {tok.text!r}")
        if expr is None:
            self.error("missing 'operator' block")
        return FopFile(N or 1, M or 1, coeffs, expr)

    def parse_coeff(self) -> CoeffDef:
        self.expect("ident", "coeff")
        mode = "sum" if self.accept("ident", "sum") else "paint"
        name = self.expect("ident").text
        self.expect("sym", "{")
        boxes = []
        while not self.accept("sym", "}"):
            boxes.append(self.parse_box())
        return CoeffDef(name, tuple(boxes), mode)

    def parse_box(self) -> Box:
        self.expect("ident", "box")
        intervals = [self.parse_interval()]
        while self.accept("ident", "x"):
            intervals.append(self.parse_interval())
        self.expect("sym", "=")
        value = self.parse_matrix()
        return Box(tuple(intervals), value)

    def parse_interval(self):
        tok = self.expect("sym", "[")
        lo = self.parse_rational()
        self.expect("sym", ",")
        hi = self.parse_rational()
        self.expect("sym", ")")
        if not (0 <= lo < hi <= 1):
            raise ParseError(f"interval [{lo},{hi}) not inside [0,1]", tok.line, tok.col)
        return (lo, hi)

    def parse_matrix(self) -> np.ndarray:
        self.expect("sym", "[")
        rows = [self.parse_row()]
        while self.accept("sym", ","):
            rows.append(self.parse_row())
        tok = self.peek()
        self.expect("sym", "]")
        if any(len(r) != len(rows) for r in rows):
            raise ParseError("coefficient matrix must be square", tok.line, tok.col)
        return np.array(rows, dtype=np.complex128)

    def parse_row(self):
        self.expect("sym", "[")
        entries = [self.parse_complex(allow_sign=True)]
        while self.accept("sym", ","):
            entries.append(self.parse_complex(allow_sign=True))
        self.expect("sym", "]")
        return entries


def parse_expression(source: str):
    """Parse an operator expression; raises ParseError with line/column."""
    parser = _Parser(source)
    expr = parser.parse_expr()
    if parser.peek().kind != "eof":
        parser.error(f"trailing input {parser.peek().text!r}")
    return expr


def parse_fop(source: str) -> FopFile:
    """Parse a full .fop file: headers, coeff definitions, operator block."""
    return _Parser(source).parse_file()


# ---------------------------------------------------------------------------
# Printer

def _fmt_num(v: float) -> str:
    return str(int(v)) if v == int(v) and abs(v) < 1e15 else repr(v)


def _fmt_complex(c: complex) -> str:
    sign = "+" if c.imag >= 0 else "-"
    return f"{_fmt_num(c.real)}{sign}{_fmt_num(abs(c.imag))}i"


def print_expression(expr) -> str:
    """Canonical parenthesized form; parse(print(e)) == e structurally."""
    if isinstance(expr, Identity):
        return "I"
    if isinstance(expr, Deriv):
        return f"D({expr.axis},{expr.step})"
    if isinstance(expr, Mult):
        return f"M({expr.name})"
    if isinstance(expr, Adjoint):
        return f"adj({print_expression(expr.expr)})"
    if isinstance(expr, Scale):
        return f"({_fmt_complex(expr.scalar)}) * {_print_term_body(expr.expr)}"
    if isinstance(expr, Product):
        return " * ".join(_print_factor(f) for f in expr.factors)
    if isinstance(expr, Sum):
        return " + ".join(_print_summand(t) for t in expr.terms)
    raise TypeError(f"not an AST node: {expr!r}")


def _print_factor(expr) -> str:
    if isinstance(expr, (Sum, Scale, Product)):
        return f"({print_expression(expr)})"
    return print_expression(expr)


def _print_term_body(expr) -> str:
    # the part after "(scalar) * " — a Product joins bare, a Sum needs parens
    if isinstance(expr, (Sum, Scale)):
        return f"({print_expression(expr)})"
    return print_expression(expr)


def _print_summand(expr) -> str:
    if isinstance(expr, Sum):
        return f"({print_expression(expr)})"
    return print_expression(expr)


# ---------------------------------------------------------------------------
# Lowering

def _walk(expr):
    yield expr
    for child in getattr(expr, "terms", getattr(expr, "factors", ())):
        yield from _walk(child)
    if isinstance(expr, (Adjoint, Scale)):
        yield from _walk(expr.expr)


def select_grid(expr, env, N: int, M: int) -> GridSpec:
    """Minimal grid: lcm of all step and box-endpoint denominators."""
    p = 1
    for node in _walk(expr):
        if isinstance(node, Deriv):
            if not 1 <= node.axis <= N:
                raise ValueError(f"derivative axis {node.axis} outside 1..{N}")
            p = math.lcm(p, node.step.denominator)
        elif isinstance(node, Mult):
            if node.name not in env:
                raise ValueError(f"unknown coefficient {node.name!r}")
            cdef = env[node.name]
            for box in cdef.boxes:
                if len(box.intervals) != N:
                    raise ValueError(
                        f"coefficient {node.name!r} has a {len(box.intervals)}-D box, N={N}"
                    )
                if box.value.shape != (M, M):
                    raise ValueError(
                        f"coefficient {node.name!r} has a {box.value.shape} matrix, M={M}"
                    )
                for lo, hi in box.intervals:
                    p = math.lcm(p, lo.denominator, hi.denominator)
    return GridSpec(N, M, p)


def rasterize(cdef: CoeffDef, grid: GridSpec) -> StepFunction:
    """Evaluate a box-list coefficient on the grid by the midpoint rule.

    A box covers the cells whose midpoints (2c+1)/(2p) lie in it, so the
    result is exact for boxes aligned to the grid.
    """
    vals = np.zeros((grid.num_cells, grid.M, grid.M), dtype=np.complex128)
    for box in cdef.boxes:
        if len(box.intervals) != grid.N:
            raise ValueError(f"coefficient {cdef.name!r} has a "
                             f"{len(box.intervals)}-D box, N={grid.N}")
        cells = box_index(grid.p, box.intervals)
        if cdef.mode == "sum":
            vals[cells] += box.value
        else:
            vals[cells] = box.value
    return StepFunction(grid, vals)


def lower(expr, env, N: int, M: int) -> FiniteOperator:
    """Evaluate an AST to a FiniteOperator on the minimal common grid."""
    grid = select_grid(expr, env, N, M)
    cache = {}

    def coeff(name):
        if name not in cache:
            cache[name] = rasterize(env[name], grid)
        return cache[name]

    def ev(node):
        if isinstance(node, Identity):
            return FiniteOperator.identity(grid)
        if isinstance(node, Deriv):
            return FiniteOperator.derivative(grid, node.axis, node.step)
        if isinstance(node, Mult):
            return FiniteOperator.multiplication(coeff(node.name))
        if isinstance(node, Adjoint):
            return ev(node.expr).adjoint()
        if isinstance(node, Scale):
            return node.scalar * ev(node.expr)
        if isinstance(node, Product):
            acc = ev(node.factors[0])
            for f in node.factors[1:]:
                acc = acc.compose(ev(f))
            return acc
        if isinstance(node, Sum):
            acc = ev(node.terms[0])
            for t in node.terms[1:]:
                acc = acc + ev(t)
            return acc
        raise TypeError(f"not an AST node: {node!r}")

    return ev(expr)


def lower_fop(f: FopFile):
    """Lower a parsed .fop file; returns (operator, grid)."""
    op = lower(f.expr, f.coeffs, f.N, f.M)
    return op, op.grid
