"""Built-in problem instances, looked up by their CLI identifiers.

The two related economies of example 4.1 and their operator, the quadratic
sanity family, and the price duopolies. An instance holds only its problem:
the values the source claims for it are checked by the example-4.1, bertrand
and thm-6.2 audits of the CLI, which hold their own oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .bertrand import BertrandModel, linear_demand
from .game import Game
from .kernel import Interval
from .split import LinearOperator, SplitProblem


@dataclass(frozen=True)
class NamedInstance:
    identifier: str
    problem: Game | SplitProblem | BertrandModel

    @property
    def kind(self) -> str:
        """The problem's kind: "game", "split" or "bertrand"."""
        return {Game: "game", SplitProblem: "split", BertrandModel: "bertrand"}[type(self.problem)]


# --- the two-economy example -------------------------------------------------

E1_UTILITIES = (
    "x*y*z - 4*x^2",
    "x^2*y*z - 0.125*y^4",
    "x^0.5*y^0.5*z^0.5 - 0.5*z",
)
E2_UTILITIES = (
    f"0.5*s*t - {1 / 3!r}*s^2",
    f"48*s^0.5*t - {1 / 48!r}*t^4",
)
TWO_ECONOMY_MATRIX = np.array([[1.0, 2.0, 1.0], [2.0, 1.0, 2.0]])


def e1_game() -> Game:
    """Three industries on [0, inf) with mixed polynomial/fractional utilities."""
    return Game.from_expressions(
        players=("a", "b", "c"),
        intervals=(Interval(0.0), Interval(0.0), Interval(0.0)),
        sources=E1_UTILITIES,
        variable_names=("x", "y", "z"),
    )


def e2_game() -> Game:
    """Two industries on [0, inf)."""
    return Game.from_expressions(
        players=("d", "e"),
        intervals=(Interval(0.0), Interval(0.0)),
        sources=E2_UTILITIES,
        variable_names=("s", "t"),
    )


def example_4_1() -> NamedInstance:
    """The two related three- and two-industry economies and their 2x3 operator."""
    problem = SplitProblem(
        game_n=e1_game(),
        game_m=e2_game(),
        operator=LinearOperator(TWO_ECONOMY_MATRIX),
    )
    return NamedInstance("example-4.1", problem)


# --- quadratic sanity family -------------------------------------------------


def quadratic_game(targets: Sequence[float], hi: float) -> Game:
    """Dominant-strategy game: player i maximizes -(x_i - a_i)^2 on [0, hi]."""
    players = tuple(f"p{i + 1}" for i in range(len(targets)))
    for p, a in zip(players, targets):
        if not np.isfinite(a):
            raise ValueError(f"target of player {p!r} must be finite, got {float(a)!r}")
    # the outer parentheses negate the square: unary minus binds tighter than ^
    sources = tuple(f"-(({p} - {float(a)!r})^2)" for p, a in zip(players, targets))
    return Game.from_expressions(players, tuple(Interval(0.0, hi) for _ in targets), sources)


def quadratic_split_instance(a: Sequence[float], matrix, b: Sequence[float]) -> NamedInstance:
    """Analytic sanity family: x_hat = a is a split equilibrium iff matrix @ a = b."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    hi = 10.0 * max(float(np.max(np.abs(a))), float(np.max(np.abs(b))), 1.0)
    problem = SplitProblem(
        game_n=quadratic_game(a, hi),
        game_m=quadratic_game(b, hi),
        operator=LinearOperator(matrix),
    )
    return NamedInstance("quadratic-sanity", problem)


def default_quadratic_sanity() -> NamedInstance:
    return quadratic_split_instance(
        a=(1.0, 2.0), matrix=np.array([[0.0, 1.0], [1.0, 0.0]]), b=(2.0, 1.0)
    )


# --- duopoly instances -------------------------------------------------------


def bertrand_instance(c1: float, c2: float) -> NamedInstance:
    """Unit costs c1 and c2 under the demand max(0, 10 - p1 - p2)."""
    model = BertrandModel(c1=c1, c2=c2, demand=linear_demand())
    return NamedInstance(f"bertrand-{c1:g}-{c2:g}", model)


# --- registry ----------------------------------------------------------------


_BUILTINS: dict[str, Callable[[], NamedInstance]] = {
    "example-4.1": example_4_1,
    "example-4.1:E1": lambda: NamedInstance("example-4.1:E1", e1_game()),
    "example-4.1:E2": lambda: NamedInstance("example-4.1:E2", e2_game()),
    "quadratic-sanity": default_quadratic_sanity,
    "bertrand-1-2": lambda: bertrand_instance(1.0, 2.0),
    "bertrand-1-1": lambda: bertrand_instance(1.0, 1.0),
}


def builtin_ids() -> list[str]:
    return list(_BUILTINS)


def get_instance(identifier: str) -> NamedInstance:
    """Look up a built-in instance by its CLI identifier."""
    if identifier not in _BUILTINS:
        raise KeyError(f"unknown builtin instance {identifier!r}; known: {builtin_ids()}")
    return _BUILTINS[identifier]()
