"""Continuous-strategy noncooperative games, one real strategy per player.

A game holds an ordered player list, one interval strategy set per player,
and one utility evaluator per player over the full profile vector, whose
coordinate i is player i's strategy. The module provides the diagonal
payoff map, the component-wise vector order, regret-based Nash
verification, best responses, and a multistart best-response solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from .expr import UtilityExpr, compile_utility, parse_utility, variables
from .kernel import Interval, SearchBudget, maximize_1d

# A utility maps an (n,) profile to a float and an (n, G) array of G profiles,
# one per column, to the (G,) array of their values. Compiled expressions
# broadcast this way; a value that does not depend on the profile may come
# back as one scalar for all G.
UtilityFn = Callable[[np.ndarray], float | np.ndarray]


@dataclass(frozen=True)
class Game:
    """An n-person strategic game with one interval strategy set per player.

    Player order is fixed and shared by all profile and utility indexing:
    coordinate i of a profile is player i's strategy, and ``utilities[i]``
    maps the full profile vector to player i's payoff. Each utility also
    takes an (n, G) array whose columns are profiles and returns their G
    payoffs (see ``UtilityFn``); best responses scan their grid that way.
    """

    players: tuple[str, ...]
    strategy_sets: tuple[Interval, ...]
    utilities: tuple[UtilityFn, ...]

    def __post_init__(self) -> None:
        if len(self.players) < 1:
            raise ValueError("game needs at least one player")
        if len(set(self.players)) != len(self.players):
            raise ValueError("duplicate player identifiers")
        if not (len(self.strategy_sets) == len(self.utilities) == len(self.players)):
            raise ValueError("players, strategy_sets, utilities must align")

    @staticmethod
    def from_expressions(
        players: Sequence[str],
        intervals: Sequence[Interval],
        sources: Sequence[str | UtilityExpr],
        variable_names: Sequence[str] | None = None,
    ) -> "Game":
        """Build a game from utility expressions.

        variable_names maps expression variables onto players positionally;
        by default the player identifiers themselves are the variables.
        """
        if not (len(players) == len(intervals) == len(sources)):
            raise ValueError("players, intervals, utilities must have equal length")
        var_names = tuple(variable_names) if variable_names is not None else tuple(players)
        if len(var_names) != len(players):
            raise ValueError("variable_names must align with players")
        exprs = tuple(
            parse_utility(s) if isinstance(s, str) else s for s in sources
        )
        declared = set(var_names)
        for p, e in zip(players, exprs):
            undeclared = variables(e) - declared
            if undeclared:
                raise ValueError(
                    f"utility of player {p!r} uses undeclared variables {sorted(undeclared)}"
                )
        fns = tuple(compile_utility(e, var_names) for e in exprs)
        return Game(tuple(players), tuple(intervals), fns)

    @property
    def n_players(self) -> int:
        return len(self.players)

    def player_index(self, player: str) -> int:
        try:
            return self.players.index(player)
        except ValueError:
            raise KeyError(f"unknown player {player!r}") from None

    def is_feasible(self, x: np.ndarray, slack: float = 0.0) -> bool:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n_players,):
            return False
        return all(iv.contains(v, slack) for iv, v in zip(self.strategy_sets, x))

    def payoff(self, i: int, x: np.ndarray) -> float:
        return float(self.utilities[i](np.asarray(x, dtype=float)))

    def payoff_vector(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.array([u(x) for u in self.utilities])

    def random_profile(self, rng: np.random.Generator, cap: float) -> np.ndarray:
        """A random feasible profile; unbounded coordinates sampled in [lo, lo+cap]."""
        windows = [iv.truncated(cap) for iv in self.strategy_sets]
        return np.array([rng.uniform(t.lo, t.hi) for t in windows])


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a regret-based equilibrium check at one profile."""

    verdict: bool
    players: tuple[str, ...]
    regrets: tuple[float, ...]
    tolerance: float
    witnesses: Mapping[str, tuple[tuple[float, ...], float]] = field(default_factory=dict)
    notes: tuple[str, ...] = ()

    @property
    def max_regret(self) -> float:
        return max(self.regrets)

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "regrets": {p: r for p, r in zip(self.players, self.regrets)},
            "tolerance": self.tolerance,
            "witnesses": {
                p: {"strategy": list(s), "value": v} for p, (s, v) in self.witnesses.items()
            },
            "notes": list(self.notes),
        }


def order_leq(u: Sequence[float], v: Sequence[float]) -> bool:
    """Component-wise order: true iff u_i <= v_i for every i."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise ValueError("dimension mismatch")
    return bool(np.all(u <= v))


def diagonal_payoff(game: Game, z: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Vector whose i-th entry is f_i at (z_i, x elsewhere)."""
    z = np.asarray(z, dtype=float)
    x = np.asarray(x, dtype=float)
    out = np.empty(game.n_players)
    for i in range(game.n_players):
        mixed = x.copy()
        mixed[i] = z[i]
        out[i] = game.utilities[i](mixed)
    return out


def best_response(
    game: Game, player: str, x: np.ndarray, budget: SearchBudget, truncate: bool = False
) -> tuple[np.ndarray, float]:
    """Maximize player's own payoff against the opponents' strategies in x.

    Returns the maximizer as a length-1 array and the maximal value. With
    truncate=True, an unbounded interval is searched only up to the budget
    cap with no bracket expansion; solver iterations use this to keep
    divergent best-response dynamics bounded.
    """
    i = game.player_index(player)
    mixed = np.array(x, dtype=float)
    u = game.utilities[i]

    def f(v):
        if isinstance(v, np.ndarray):  # the scan's grid: one profile column per point
            grid = np.repeat(mixed[:, None], len(v), axis=1)
            grid[i] = v
            return u(grid)
        mixed[i] = v
        return u(mixed)

    iv = game.strategy_sets[i]
    if truncate:
        iv = iv.truncated(budget.truncation_cap)
    arg, val = maximize_1d(f, iv, budget)
    return np.array([arg]), val


def nash_regrets(game: Game, x: np.ndarray, budget: SearchBudget) -> np.ndarray:
    """Per-player regret: best-response value minus current value, clamped at 0."""
    return np.array(verify_nash(game, x, budget).regrets)


def verify_nash(game: Game, x: np.ndarray, budget: SearchBudget) -> VerificationReport:
    """Regret check at x; verdict true iff every regret is within tolerance."""
    x = np.asarray(x, dtype=float)
    if not game.is_feasible(x, slack=1e-12):
        raise ValueError("profile is not feasible for this game")
    regrets = []
    witnesses: dict[str, tuple[tuple[float, ...], float]] = {}
    for i, p in enumerate(game.players):
        arg, val = best_response(game, p, x, budget)
        eps = max(val - game.payoff(i, x), 0.0)
        regrets.append(eps)
        if eps > budget.tolerance:
            witnesses[p] = (tuple(float(a) for a in arg), float(val))
    verdict = max(regrets) <= budget.tolerance
    return VerificationReport(
        verdict=verdict,
        players=game.players,
        regrets=tuple(regrets),
        tolerance=budget.tolerance,
        witnesses=witnesses,
    )


N_STARTS = 32
DAMPING = 0.5


def solve_nash(game: Game, budget: SearchBudget) -> list[np.ndarray]:
    """Multistart damped simultaneous best-response iteration.

    Runs from N_STARTS seeded random feasible starts, deduplicates fixed
    points within 10x tolerance, and returns only profiles that pass
    verify_nash. May return an empty list; emptiness is a finding.
    """
    rng = np.random.default_rng(budget.seed)
    # golden-section refinement keeps best responses accurate, so the
    # iteration phase can scan coarsely; verification uses the full budget
    iter_budget = replace(budget, grid_step=budget.grid_step * 16)
    found: list[np.ndarray] = []
    for _ in range(N_STARTS):
        x = game.random_profile(rng, budget.truncation_cap)
        for _ in range(budget.max_iterations):
            br = x.copy()
            for i, p in enumerate(game.players):
                arg, _ = best_response(game, p, x, iter_budget, truncate=True)
                br[i] = arg[0]
            nxt = x + DAMPING * (br - x)
            change = float(np.max(np.abs(nxt - x)))
            x = nxt
            if change < budget.tolerance:
                break
        if not any(np.max(np.abs(x - y)) <= 10 * budget.tolerance for y in found):
            found.append(x)
    return [x for x in found if verify_nash(game, x, budget).verdict]


def gamma_membership(
    game: Game, x: np.ndarray, z: np.ndarray, tolerance: float = 1e-6
) -> bool:
    """True iff f_i(x_i, z_{-i}) <= f_i(z) + tolerance for every player i."""
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    diag = diagonal_payoff(game, x, z)
    fz = game.payoff_vector(z)
    return order_leq(diag, fz + tolerance)


@dataclass(frozen=True)
class ConcavityReport:
    samples: int
    violations: tuple[tuple[str, tuple[float, ...], tuple[float, ...], float], ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def concavity_sample_check(
    game: Game, samples: int, seed: int = 0, tolerance: float = 1e-6, cap: float = 1e3
) -> ConcavityReport:
    """Sample own-strategy concavity of each utility with opponents fixed."""
    rng = np.random.default_rng(seed)
    violations = []
    for _ in range(samples):
        x = game.random_profile(rng, cap)
        u = game.random_profile(rng, cap)
        v = game.random_profile(rng, cap)
        lam = rng.uniform(0.0, 1.0)
        lhs = diagonal_payoff(game, lam * u + (1 - lam) * v, x)
        rhs = lam * diagonal_payoff(game, u, x) + (1 - lam) * diagonal_payoff(game, v, x)
        for i in np.flatnonzero(lhs < rhs - tolerance):
            violations.append((game.players[i], (u[i],), (v[i],), float(lam)))
    return ConcavityReport(samples=samples, violations=tuple(violations))
