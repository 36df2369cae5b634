"""Reference code for the expression tests: a scalar AST interpreter, the
reference the compiled evaluator must agree with, and a printer whose output
the parser must read back to the same AST."""

from __future__ import annotations

import math
import operator
from typing import Mapping

from splitnash.expr import (
    _SYMBOL,
    Add,
    Const,
    EvalError,
    Mul,
    Neg,
    Pow,
    Sub,
    UtilityExpr,
    _fold,
    _pow,
)

_OPERATOR = {Add: operator.add, Sub: operator.sub, Mul: operator.mul}


def eval_utility(expr: UtilityExpr, bindings: Mapping[str, float]) -> float:
    """Evaluate an AST under variable bindings; result must be finite."""

    def leaf(e):
        if isinstance(e, Const):
            return e.value
        try:
            return float(bindings[e.name])
        except KeyError:
            raise EvalError(f"unbound variable {e.name!r}") from None

    def node(e, *args):
        if isinstance(e, Pow):
            return _pow(args[0], e.exponent)
        return -args[0] if isinstance(e, Neg) else _OPERATOR[type(e)](*args)

    v = _fold(expr, leaf, node)
    if not math.isfinite(v):
        raise EvalError(f"non-finite result {v!r}")
    return v


def _literal(x: float) -> str:
    # emit literals the tokenizer accepts (no sign, no bare exponent forms)
    s = repr(float(x))
    if s.startswith("-") or "inf" in s or "nan" in s:
        raise ValueError(f"cannot print literal {x!r}")
    return s


def _paren(text: str, child: UtilityExpr, kinds: tuple) -> str:
    return f"({text})" if isinstance(child, kinds) else text


def pretty(expr: UtilityExpr) -> str:
    """Print an AST so that parse_utility(pretty(e)) is structurally equal to e."""

    def node(e, *texts):
        if isinstance(e, (Add, Sub)):
            # right operand: parenthesize anything the flat grammar would
            # re-associate into the left spine
            return f"{texts[0]} {_SYMBOL[type(e)]} {_paren(texts[1], e.right, (Add, Sub))}"
        if isinstance(e, Mul):
            return "*".join(_paren(t, c, (Add, Sub, Mul)) for t, c in zip(texts, (e.left, e.right)))
        # '-' is itself an atom prefix, so "-x" is a valid power base
        kinds = (Add, Sub, Mul, Pow)
        if isinstance(e, Neg):
            return f"-{_paren(texts[0], e.operand, kinds)}"
        return f"{_paren(texts[0], e.base, kinds)}^{_literal(e.exponent)}"

    return _fold(expr, lambda e: _literal(e.value) if isinstance(e, Const) else e.name, node)
