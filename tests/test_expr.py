"""Parser and compiler for utility expressions, against the reference
interpreter and printer of _expr_reference."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _expr_reference import eval_utility, pretty
from splitnash.expr import (
    Add,
    Const,
    EvalError,
    Mul,
    Neg,
    ParseError,
    Pow,
    Sub,
    Var,
    compile_utility,
    own_polynomial,
    parse_utility,
    variables,
)
from splitnash.models import E1_UTILITIES, E2_UTILITIES


class TestParse:
    def test_precedence_pow_over_mul(self):
        # x^2*y must be (x^2)*y, not x^(2*y)
        e = parse_utility("x^2*y")
        assert e == Mul(Pow(Var("x"), 2.0), Var("y"))

    def test_precedence_mul_over_add(self):
        e = parse_utility("x + y*z")
        assert e == Add(Var("x"), Mul(Var("y"), Var("z")))

    def test_left_associative_sub(self):
        e = parse_utility("x - y - z")
        assert e == Sub(Sub(Var("x"), Var("y")), Var("z"))

    def test_unary_minus_is_an_atom(self):
        # the grammar puts '-' at atom level, so -x^2 squares the negation
        e = parse_utility("-x^2")
        assert e == Pow(Neg(Var("x")), 2.0)
        assert eval_utility(e, {"x": 3.0}) == 9.0

    def test_parenthesized_negative_square(self):
        e = parse_utility("-(x^2)")
        assert eval_utility(e, {"x": 3.0}) == -9.0

    def test_whitespace_insensitive(self):
        assert parse_utility(" x + 2 * y ") == parse_utility("x+2*y")

    def test_scientific_and_decimal_literals(self):
        assert parse_utility("1e-3") == Const(1e-3)
        assert parse_utility(".5") == Const(0.5)
        assert parse_utility("2.5e2") == Const(250.0)

    @pytest.mark.parametrize(
        "bad",
        ["x /", "x / y", "x ^ y", "1 +", "(x", "x)", "", "x y", "* x", "x ^", "x - 1e999*0", "x^1e999"],
    )
    def test_rejections(self, bad):
        with pytest.raises(ParseError):
            parse_utility(bad)

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as ei:
            parse_utility("x + @")
        assert ei.value.position == 4


class TestEval:
    def test_second_industry_payoff_value(self):
        # x^2*y*z - y^4/8 at (1,2,4): 8 - 2 = 6
        e = parse_utility("x^2*y*z - 0.125*y^4")
        assert eval_utility(e, {"x": 1.0, "y": 2.0, "z": 4.0}) == 6.0

    def test_first_target_industry_payoff_value(self):
        # s*t/2 - s^2/3 at (9,12): 54 - 27 = 27
        e = parse_utility(f"0.5*s*t - {1 / 3!r}*s^2")
        assert eval_utility(e, {"s": 9.0, "t": 12.0}) == pytest.approx(27.0, abs=1e-12)

    def test_fractional_power_of_negative_base_raises(self):
        e = parse_utility("x^0.5")
        with pytest.raises(EvalError):
            eval_utility(e, {"x": -1.0})

    def test_nonfinite_result_raises(self):
        e = parse_utility("x^1000")
        with pytest.raises(EvalError):
            eval_utility(e, {"x": 1e10})

    def test_zero_base_under_negative_exponent_raises(self):
        with pytest.raises(EvalError):
            eval_utility(Pow(Const(0.0), -1.0), {})

    def test_missing_binding_raises(self):
        with pytest.raises(EvalError):
            eval_utility(parse_utility("x + y"), {"x": 1.0})

    def test_variables(self):
        assert variables(parse_utility("x*y - z^2 + 3")) == {"x", "y", "z"}


# --- random ASTs for round-trip and compile agreement -------------------------

_NAMES = st.sampled_from(["x", "y", "z", "s", "t"])


def _consts():
    return st.floats(min_value=0.0, max_value=100.0, allow_nan=False).map(Const)


_ast = st.recursive(
    st.one_of(_consts(), _NAMES.map(Var)),
    lambda kids: st.one_of(
        st.tuples(kids, kids).map(lambda p: Add(*p)),
        st.tuples(kids, kids).map(lambda p: Sub(*p)),
        st.tuples(kids, kids).map(lambda p: Mul(*p)),
        kids.map(Neg),
        st.tuples(kids, st.sampled_from([0.5, 1.0, 2.0, 3.0, 4.0])).map(lambda p: Pow(*p)),
    ),
    max_leaves=12,
)


@given(_ast)
@settings(max_examples=200, deadline=None)
def test_pretty_parse_round_trip(e):
    assert parse_utility(pretty(e)) == e


@given(_ast, st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=100, deadline=None)
def test_compiled_matches_interpreter(e, seed):
    names = sorted(variables(e)) or ["x"]
    f = compile_utility(e, names)
    rg = np.random.default_rng(seed)
    vals = rg.uniform(0.1, 5.0, size=len(names))
    bindings = dict(zip(names, vals))
    try:
        want = eval_utility(e, bindings)
    except EvalError:
        with pytest.raises(EvalError):
            f(vals)
        return
    assert f(vals) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_overflowing_power_of_a_constant_raises():
    # a base without variables is a float, whose ** raises OverflowError
    f = compile_utility(parse_utility("x - 1e300^2"), ["x"])
    for v in (np.array([0.5]), np.full((1, 4), 0.5)):
        with pytest.raises(EvalError, match=r"power overflow: 1e\+300\^2\.0"):
            f(v)


def test_integer_power_of_a_constant_keeps_its_value():
    f = compile_utility(parse_utility("x*(-1.5)^3 + 0.1^2"), ["x"])
    assert f(np.array([2.0])) == 2.0 * (-1.5) ** 3 + 0.1**2
    assert f(np.full((1, 3), 2.0)).tolist() == [2.0 * (-1.5) ** 3 + 0.1**2] * 3


def test_compile_rejects_unlisted_variable():
    with pytest.raises(ValueError):
        compile_utility(parse_utility("x + y"), ["x"])


def test_pretty_handles_division_free_coefficients():
    # the grammar has no '/'; fractional coefficients travel as repr literals
    src = f"{1 / 48!r}*t^4"
    e = parse_utility(src)
    assert eval_utility(e, {"t": 2.0}) == pytest.approx(16.0 / 48.0)
    assert parse_utility(pretty(e)) == e


@pytest.mark.parametrize("sources, names", [(E1_UTILITIES, "xyz"), (E2_UTILITIES, "st")])
def test_compiled_utility_evaluates_profile_columns(sources, names):
    # each utility is "term - term"; the array and scalar evaluations of a
    # term differ by a few ulp at most (numpy's array power is not libm pow),
    # while their difference can cancel to far fewer significant bits
    grid = np.random.default_rng(0).uniform(0.0, 20.0, size=(len(names), 2001))
    for src in sources:
        e = parse_utility(src)
        left, right = (compile_utility(part, names) for part in (e.left, e.right))
        for term in (left, right):
            np.testing.assert_array_max_ulp(term(grid), [term(col) for col in grid.T], maxulp=4)
        values = compile_utility(e, names)(grid)
        assert values.shape == (grid.shape[1],)
        np.testing.assert_array_equal(values, left(grid) - right(grid))


def test_negative_grid_entry_under_a_fractional_power_raises():
    f = compile_utility(parse_utility(E1_UTILITIES[2]), "xyz")
    grid = np.ones((3, 50))
    assert f(grid).shape == (50,)
    grid[1, 37] = -1e-9
    with pytest.raises(EvalError, match="negative base"):
        f(grid)


@pytest.mark.parametrize(
    "source, row",
    [
        ("x*(2*y - 1) - 3*x^2", ((-6.0, 2.0), -1.0)),
        ("-((x - y)^2)", ((-2.0, 2.0), 0.0)),
        ("(2*x)^2*0.25 + x", ((2.0, 0.0), 1.0)),
        ("y^40 + 5", ((0.0, 0.0), 0.0)),
    ],
)
def test_an_affine_own_derivative_is_a_first_order_row(source, row):
    # d/dx of the utility is g . (x, y) + h
    assert own_polynomial(parse_utility(source), ("x", "y"), 0).first_order == row


@pytest.mark.parametrize(
    "expr",
    [
        parse_utility("x*1e300^2"),  # the power overflows
        parse_utility("x*1e200*1e200"),  # the product is infinite
        parse_utility("x^3"),
        parse_utility("x*y*x"),
        parse_utility("x*y^0.5"),
        parse_utility("x*(y + 1)^70"),  # 71 monomials
        Mul(Var("x"), Pow(Var("y"), -1.0)),  # the grammar writes no negative power
    ],
)
def test_no_first_order_row_where_the_derivative_is_not_affine_and_finite(expr):
    reduction = own_polynomial(expr, ("x", "y"), 0)
    assert reduction is not None and reduction.first_order is None
