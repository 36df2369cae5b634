"""Continuous-strategy games, split equilibrium problems, and their audits."""

from .bertrand import (
    BertrandModel,
    MarkovPriceMatrix,
    audit_theorem_6_2,
    enumerate_grid_equilibria,
    grid_best_response,
    linear_demand,
    markov_price_transform,
    profits,
)
from .expr import EvalError, ParseError, UtilityExpr, parse_utility
from .game import (
    Game,
    VerificationReport,
    best_response,
    diagonal_payoff,
    order_leq,
    solve_nash,
    verify_nash,
)
from .kernel import Interval, SearchBudget, maximize_1d
from .models import NamedInstance, bertrand_instance, example_4_1, get_instance, quadratic_split_instance
from .repeated import TransitionMatrixError, make_repeated_problem, validate_transition_matrix
from .split import (
    LinearOperator,
    SplitProblem,
    apply_operator,
    cdp_sample_check,
    check_relatedness,
    check_surjectivity,
    kkm_intersection_probe,
    kkm_t_membership,
    solve_split,
    verify_split_equilibrium,
)

__version__ = "0.1.0"
