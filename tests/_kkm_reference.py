"""Reference code for the deviation-dominance tests: the scalar membership
chain, one (x, z) profile pair per call, and the probe loop that tests each
grid point z against the grid points x in order until one excludes it. The
column forms in splitnash.game and splitnash.split must agree with it."""

from __future__ import annotations

import itertools

import numpy as np

from splitnash.game import Game, diagonal_payoff
from splitnash.kernel import SearchBudget
from splitnash.split import SplitProblem, apply_operator


def order_leq(u, v) -> bool:
    """Component-wise order of two vectors: true iff u_i <= v_i for every i."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise ValueError("dimension mismatch")
    return bool(np.all(u <= v))


def gamma_membership(game: Game, x, z, tolerance: float = 1e-6) -> bool:
    """True iff f_i(x_i, z_{-i}) <= f_i(z) + tolerance for every player i."""
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    return order_leq(diagonal_payoff(game, x, z), diagonal_payoff(game, z, z) + tolerance)


def kkm_t_membership(problem: SplitProblem, x, z, tolerance: float = 1e-6) -> bool:
    """Is (z, Az) dominated by no deviation to x's blocks, in both games?"""
    return gamma_membership(problem.game_n, x, z, tolerance) and gamma_membership(
        problem.game_m, apply_operator(problem.operator, x), apply_operator(problem.operator, z), tolerance
    )


def probe_members(
    problem: SplitProblem, budget: SearchBudget, points_per_axis: int
) -> tuple[list[tuple[float, ...]], int]:
    """The grid points z that every grid point x keeps, in grid order, and the
    number of kkm_t_membership calls made to find them."""
    windows = [iv.truncated(budget.truncation_cap) for iv in problem.game_n.strategy_sets]
    axes = [np.linspace(w.lo, w.hi, points_per_axis) for w in windows]
    grid = [np.array(pt) for pt in itertools.product(*axes)]
    calls = 0

    def member(x, z) -> bool:
        nonlocal calls
        calls += 1
        return kkm_t_membership(problem, x, z, budget.tolerance)

    members = [
        tuple(float(v) for v in z) for z in grid if all(member(x, z) for x in grid)
    ]
    return members, calls
