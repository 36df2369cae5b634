"""Split problems specialized to repeated games.

A repeated problem couples a game with itself through a linear operator,
typically a row-stochastic transition matrix modeling Markov strategy
modification between the two plays.
"""

from __future__ import annotations

import numpy as np

from .game import Game
from .split import LinearOperator, SplitProblem


class TransitionMatrixError(ValueError):
    pass


def validate_transition_matrix(matrix) -> LinearOperator:
    """Validate Markov constraints, naming the first violated one.

    Returns the square nonnegative row-stochastic matrix as an operator.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise TransitionMatrixError(f"matrix must be square, got shape {m.shape}")
    neg = np.argwhere(m < 0)
    if len(neg):
        i, j = neg[0]
        raise TransitionMatrixError(f"negative entry {m[i, j]} at ({i}, {j})")
    sums = m.sum(axis=1)
    bad = np.where(np.abs(sums - 1.0) > 1e-12)[0]
    if len(bad):
        i = int(bad[0])
        raise TransitionMatrixError(f"row {i} sums to {sums[i]}, expected 1")
    return LinearOperator(m)


def make_repeated_problem(game: Game, matrix) -> SplitProblem:
    """Couple a game with itself through the given operator."""
    op = matrix if isinstance(matrix, LinearOperator) else validate_transition_matrix(matrix)
    if op.shape[1] != game.profile_dim:
        raise ValueError(
            f"operator dimension {op.shape[1]} != game profile dimension {game.profile_dim}"
        )
    return SplitProblem(game_n=game, game_m=game, operator=op)
