"""The public names of the package, pinned so that none comes or goes unseen."""

import types

import splitnash

PUBLIC_NAMES = [
    "BertrandModel",
    "EvalError",
    "Game",
    "Interval",
    "LinearOperator",
    "MarkovPriceMatrix",
    "NamedInstance",
    "ParseError",
    "SearchBudget",
    "SplitProblem",
    "TransitionMatrixError",
    "UtilityExpr",
    "VerificationReport",
    "apply_operator",
    "audit_theorem_6_2",
    "bertrand_instance",
    "best_response",
    "cdp_sample_check",
    "check_relatedness",
    "check_surjectivity",
    "diagonal_payoff",
    "enumerate_grid_equilibria",
    "example_4_1",
    "gamma_membership",
    "get_instance",
    "grid_best_response",
    "kkm_intersection_probe",
    "kkm_t_membership",
    "linear_demand",
    "make_repeated_problem",
    "markov_price_transform",
    "maximize_1d",
    "order_leq",
    "parse_utility",
    "profits",
    "quadratic_split_instance",
    "solve_nash",
    "solve_split",
    "validate_transition_matrix",
    "verify_nash",
    "verify_split_equilibrium",
]


def test_public_names_are_pinned():
    # a new export needs a deliberate update of this list
    names = sorted(
        n
        for n, v in vars(splitnash).items()
        if not n.startswith("_") and not isinstance(v, types.ModuleType)
    )
    assert names == PUBLIC_NAMES


def test_test_only_helpers_stay_out():
    removed = ("eval_utility", "pretty", "concavity_sample_check", "nash_regrets", "sales_shares")
    assert [n for n in removed if hasattr(splitnash, n)] == []
    assert not hasattr(splitnash.Game, "random_profile")
    assert not hasattr(splitnash.Game, "payoff")  # row i of Game.payoff_vector
    assert not hasattr(splitnash.kernel, "EvaluatorError")  # merged into EvalError
    assert not hasattr(splitnash.VerificationReport, "max_regret")
    assert not hasattr(splitnash.MarkovPriceMatrix, "matrix")
    assert not hasattr(splitnash.NamedInstance, "reference_claims")
