"""Recursive-descent parser and compiler for closed-form utility expressions.

Grammar (whitespace-insensitive):

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' number)?
    atom   := number | identifier | '(' expr ')' | '-' atom

'^' binds tighter than '*', which binds tighter than '+'/'-'; unary minus
binds tighter than '^' (so "-x^2" squares the negated atom — write "-(x^2)"
for the additive inverse of a square). Exponents are numeric literals.
Fractional powers are defined only for nonnegative bases.

compile_utility compiles an expression into the utility itself, and
own_polynomial rewrites it, where it can, as a polynomial in a root of one
player's own strategy, whose best response is then found exactly, and
whose own derivative, where affine in the profile, is kept as a first-order
row for solve_nash's pattern stage.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence, Union

import numpy as np

from .kernel import EvalError


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.position = position


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Add:
    left: "UtilityExpr"
    right: "UtilityExpr"


@dataclass(frozen=True)
class Sub:
    left: "UtilityExpr"
    right: "UtilityExpr"


@dataclass(frozen=True)
class Mul:
    left: "UtilityExpr"
    right: "UtilityExpr"


@dataclass(frozen=True)
class Neg:
    operand: "UtilityExpr"


@dataclass(frozen=True)
class Pow:
    base: "UtilityExpr"
    exponent: float


UtilityExpr = Union[Const, Var, Add, Sub, Mul, Neg, Pow]

_NUMBER = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


class _Parser:
    def __init__(self, source: str):
        self.src = source
        self.pos = 0

    def _skip_ws(self) -> None:
        while self.pos < len(self.src) and self.src[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        self._skip_ws()
        return self.src[self.pos] if self.pos < len(self.src) else ""

    def _expect(self, ch: str) -> None:
        if self._peek() != ch:
            raise ParseError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def parse(self) -> UtilityExpr:
        node = self.expr()
        self._skip_ws()
        if self.pos != len(self.src):
            raise ParseError("unexpected trailing input", self.pos)
        return node

    def expr(self) -> UtilityExpr:
        node = self.term()
        while self._peek() in ("+", "-"):
            op = self.src[self.pos]
            self.pos += 1
            rhs = self.term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def term(self) -> UtilityExpr:
        node = self.factor()
        while self._peek() == "*":
            self.pos += 1
            node = Mul(node, self.factor())
        return node

    def _number(self) -> float | None:
        """The numeric literal at pos, or None; one that overflows is an error."""
        m = _NUMBER.match(self.src, self.pos)
        if not m:
            return None
        value = float(m.group())
        if math.isinf(value):
            raise ParseError(f"numeric literal {m.group()!r} overflows", self.pos)
        self.pos = m.end()
        return value

    def factor(self) -> UtilityExpr:
        node = self.atom()
        if self._peek() == "^":
            self.pos += 1
            self._skip_ws()
            exponent = self._number()
            if exponent is None:
                raise ParseError("expected numeric exponent", self.pos)
            node = Pow(node, exponent)
        return node

    def atom(self) -> UtilityExpr:
        ch = self._peek()
        if ch == "(":
            self.pos += 1
            node = self.expr()
            self._expect(")")
            return node
        if ch == "-":
            self.pos += 1
            return Neg(self.atom())
        value = self._number()
        if value is not None:
            return Const(value)
        m = _IDENT.match(self.src, self.pos)
        if m:
            self.pos = m.end()
            return Var(m.group())
        raise ParseError("expected number, identifier, '(' or '-'", self.pos)


def parse_utility(source: str) -> UtilityExpr:
    """Parse an expression string into an AST; raises ParseError with position."""
    return _Parser(source).parse()


# binary node kinds and their operator symbol
_SYMBOL = {Add: "+", Sub: "-", Mul: "*"}


def _fold(expr: UtilityExpr, leaf: Callable, node: Callable):
    """Fold the AST bottom-up: ``leaf(e)`` at a Const or Var, else
    ``node(e, *folded_children)``, with the children folded left to right."""
    if isinstance(expr, (Const, Var)):
        return leaf(expr)
    if isinstance(expr, (Add, Sub, Mul)):
        return node(expr, _fold(expr.left, leaf, node), _fold(expr.right, leaf, node))
    return node(expr, _fold(expr.operand if isinstance(expr, Neg) else expr.base, leaf, node))


def variables(expr: UtilityExpr) -> set[str]:
    leaf = lambda e: {e.name} if isinstance(e, Var) else set()
    return _fold(expr, leaf, lambda e, *names: set().union(*names))


def _pow(base, exponent: float):
    """base**exponent for a float or an array base; a fractional power of any
    negative base raises EvalError."""
    # np.float64 is a float, so a scalar base takes the plain compare, which
    # is far cheaper than an array test
    if isinstance(base, np.ndarray):
        negative = base[base < 0]
        first = negative[0] if negative.size else None
    else:
        first = base if base < 0 else None
    if first is not None and exponent != int(exponent):
        raise EvalError(f"fractional power of negative base {first!r}")
    try:
        return base**exponent
    except (OverflowError, ZeroDivisionError):
        raise EvalError(f"power overflow: {base!r}^{exponent!r}") from None


def compile_utility(
    expr: UtilityExpr, var_order: Sequence[str]
) -> Callable[[Sequence[float | np.ndarray]], float | np.ndarray]:
    """Compile an AST to a fast callable over a sequence of coordinates.

    var_order fixes the variable-to-coordinate assignment: the callable reads
    variable var_order[j] as v[j]. Every variable in the expression must
    appear in var_order. The coordinates are floats, giving a float, or
    arrays that broadcast together, giving their broadcast shape: an (n,)
    profile, (n, S) profile columns, or a list whose entries differ in
    shape. A fractional power of a negative base anywhere in it, or an
    overflowing power of a base without variables, raises EvalError. An
    expression without variables returns one float.
    """
    index = {name: i for i, name in enumerate(var_order)}
    missing = variables(expr) - set(index)
    if missing:
        raise EvalError(f"undeclared variables {sorted(missing)}")

    def leaf(e):
        return repr(e.value) if isinstance(e, Const) else f"v[{index[e.name]}]"

    def node(e, *code):
        if isinstance(e, Neg):
            return f"(-{code[0]})"
        if isinstance(e, Pow):
            # a base without variables is a float, whose ** raises on overflow
            if e.exponent == int(e.exponent) and variables(e.base):
                return f"({code[0]})**{int(e.exponent)}"
            return f"_fpow({code[0]}, {repr(e.exponent)})"
        return f"({code[0]} {_SYMBOL[type(e)]} {code[1]})"

    src = f"def _u(v):\n    return {_fold(expr, leaf, node)}\n"
    namespace: dict = {"_fpow": _pow}
    exec(compile(src, "<utility>", "exec"), namespace)
    return namespace["_u"]


class Polynomial(NamedTuple):
    """Utility ``own``'s polynomial in w = t**(1/root) of its player's own
    strategy t: the utility is sum_j c_j * w**j, each c_j a function of the
    opponents. coefficients(v, k) gives the (k, d + 1) array of the c_j at
    the opponents' (k,) rows v (v[own] is not read); magnitudes(v, k) gives,
    in the same shape, the c_j with every constant and opponent made
    nonnegative and every subtraction an addition: a bound on the terms
    summed into each c_j. Either raises EvalError where the utility would.
    first_order is the row (g, h) with d/dt of the utility = g . v + h at
    every profile v, or None where that derivative is not affine (see
    _first_order)."""

    own: int
    root: int
    coefficients: Callable[[Sequence[np.ndarray], int], np.ndarray]
    magnitudes: Callable[[Sequence[np.ndarray], int], np.ndarray]
    first_order: tuple[tuple[float, ...], float] | None


# A reduction is kept only for w = t^(1/root) with root <= _MAX_ROOT and a
# degree in w of at most _MAX_DEGREE: the roots of its derivative are the
# eigenvalues of companion matrices of at most _MAX_DEGREE - 1 rows.
_MAX_ROOT = 8
_MAX_DEGREE = 32
# The first-order fold gives up on a subexpression of more monomials than this.
_MAX_MONOMIALS = 64


def _first_order(
    expr: UtilityExpr, index: dict[str, int], own: int
) -> tuple[tuple[float, ...], float] | None:
    """(g, h) with d expr / d v[own] = g . v + h, or None.

    expr folds into monomials, {exponents of v: coefficient}, on Python
    floats: a whole power multiplies out. None for a fractional or negative
    power, more than _MAX_MONOMIALS monomials in a subexpression, a
    coefficient that overflows or is not finite, or a monomial of degree
    above 1 in the derivative, which is then not affine.
    """
    zero = (0,) * len(index)

    def add(a: dict, b: dict, sign: float = 1.0) -> dict | None:
        out = dict(a)
        for p, c in b.items():
            out[p] = out.get(p, 0.0) + sign * c
        return out if len(out) <= _MAX_MONOMIALS else None

    def mul(a: dict, b: dict) -> dict | None:
        out: dict = {}
        for p, x in a.items():
            out = add(out, {tuple(map(sum, zip(p, q))): x * y for q, y in b.items()})
            if out is None:
                return None
        return out

    def leaf(e):
        if isinstance(e, Const):
            return {zero: e.value}
        return {tuple(int(j == index[e.name]) for j in range(len(zero))): 1.0}

    def node(e, *kids):
        if None in kids:
            return None
        if isinstance(e, Neg):
            return {p: -c for p, c in kids[0].items()}
        if isinstance(e, Mul):
            return mul(*kids)
        if isinstance(e, (Add, Sub)):
            return add(*kids, -1.0 if isinstance(e, Sub) else 1.0)
        n = e.exponent
        if n < 0 or n != int(n):
            return None
        if len(kids[0]) == 1:  # a power of one monomial multiplies its exponents: no loop
            ((p, c),) = kids[0].items()
            try:
                return {tuple(int(n) * k for k in p): c ** int(n)}
            except OverflowError:
                return None
        out = {zero: 1.0}  # each factor of several monomials adds one: the cap ends the loop
        for _ in range(int(n)):
            if (out := mul(out, kids[0])) is None:
                return None
        return out

    monomials = _fold(expr, leaf, node)
    if monomials is None or not all(map(math.isfinite, monomials.values())):
        return None
    g, h = [0.0] * len(zero), 0.0
    for p, c in monomials.items():
        if p[own] == 0:
            continue
        rest = list(p)
        rest[own] -= 1
        if sum(rest) > 1:
            return None
        if sum(rest) == 0:
            h += c * p[own]
        else:
            g[rest.index(1)] += c * p[own]
    if not all(map(math.isfinite, g + [h])):
        return None
    return tuple(g), h


def own_polynomial(expr: UtilityExpr, var_order: Sequence[str], own: int) -> Polynomial | None:
    """Rewrite expr as a polynomial in a root of variable var_order[own].

    A Const or another variable is power 0 of t and var_order[own] is power
    1; sums merge powers and products add them. A power of a base with one
    power of t scales that power, and a whole power of a base with several
    is multiplied out. None where the rewrite does not apply: a negative
    power of t, a fractional or negative power of a base with several powers
    of t, such as (x + 1)^0.5, or a root or degree too large to use. A
    fractional power of a base holding t counts in the root although the
    powers it leaves may be whole: (x^2)^0.5 is |x|, a polynomial in
    x^(1/2) for x >= 0 only. The coefficients compile to one function each,
    in one exec, as compile_utility compiles the utility. The reduction
    carries the first-order row of expr (see _first_order).
    """
    index = {name: j for j, name in enumerate(var_order)}
    me = var_order[own]
    roots = [1]  # the denominators of the fractional powers taken of t

    def terms(magnitude: bool):
        """({power of t: coefficient code}, the lines defining its temporaries)."""
        lines: list[str] = []

        def temp(code: str) -> str:
            lines.append(f"    c{len(lines)} = {code}")
            return f"c{len(lines) - 1}"

        def mul(a: dict, b: dict) -> dict | None:
            out: dict = {}
            for p, x in a.items():
                for r, y in b.items():
                    out.setdefault(p + r, []).append(y if x == "1.0" else x if y == "1.0" else f"{x} * {y}")
            if max(out) > _MAX_DEGREE:
                return None
            return {p: t[0] if len(t) == 1 and " " not in t[0] else temp(" + ".join(t)) for p, t in out.items()}

        def leaf(e):
            if isinstance(e, Const):
                return {0.0: repr(abs(e.value) if magnitude else e.value)}
            if e.name == me:
                return {1.0: "1.0"}
            return {0.0: f"abs(v[{index[e.name]}])" if magnitude else f"v[{index[e.name]}]"}

        def node(e, *kids):
            if None in kids:
                return None
            if isinstance(e, Neg):
                return kids[0] if magnitude else {p: temp(f"-{c}") for p, c in kids[0].items()}
            if isinstance(e, Mul):
                return mul(*kids)
            if isinstance(e, (Add, Sub)):
                sign = "-" if isinstance(e, Sub) and not magnitude else "+"
                out = dict(kids[0])
                for p, c in kids[1].items():
                    out[p] = temp(f"{out[p]} {sign} {c}") if p in out else c if sign == "+" else temp(f"-{c}")
                return out
            base, n = kids[0], e.exponent
            whole = n == int(n)
            if len(base) > 1:  # a whole power of a sum in t is multiplied out
                if not (whole and 0 <= max(base) * n <= _MAX_DEGREE):
                    return None
                out = {0.0: "1.0"}
                for _ in range(int(n)):
                    out = mul(out, base)
                return out
            ((p, c),) = base.items()
            if p > 0 and (n < 0 or n.as_integer_ratio()[1] > _MAX_ROOT or p * n > _MAX_DEGREE):
                return None
            if p > 0 and not whole:
                roots.append(n.as_integer_ratio()[1])
            if c == "1.0":
                return {p * n: c}
            # as compile_utility does: an opponent's coefficient is an array,
            # whose ** does not raise, and a constant one a float, whose does
            if whole and variables(e.base) - {me}:
                return {p * n: temp(f"({c})**{int(n)}")}
            return {p * n: temp(f"_fpow({c}, {n!r})")}

        return _fold(expr, leaf, node), lines

    coefficients, lines = terms(False)
    if coefficients is None:
        return None
    magnitudes, magnitude_lines = terms(True)
    # every power is a float k / 2^m, so the least common denominator is the largest
    root = max(roots + [p.as_integer_ratio()[1] for p in coefficients])
    degree = int(max(coefficients) * root)
    if root > _MAX_ROOT or degree > _MAX_DEGREE:
        return None

    def function(name: str, body: list[str], codes: dict) -> list[str]:
        fill = [f"    C[:, {int(p * root)}] = {c}" for p, c in codes.items()]
        return [f"def {name}(v, k):", *body, f"    C = _zeros((k, {degree + 1}))", *fill, "    return C"]

    src = "\n".join(function("_c", lines, coefficients) + function("_a", magnitude_lines, magnitudes)) + "\n"
    namespace: dict = {"_fpow": _pow, "_zeros": np.zeros}
    exec(compile(src, "<polynomial>", "exec"), namespace)
    return Polynomial(own, root, namespace["_c"], namespace["_a"], _first_order(expr, index, own))
