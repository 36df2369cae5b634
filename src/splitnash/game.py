"""Continuous-strategy noncooperative games, one real strategy per player.

A game holds an ordered player list, one interval strategy set per player,
and one utility evaluator per player over the n coordinates of a profile,
coordinate i being player i's strategy. The module provides the diagonal
payoff map, the component-wise vector order, the one uniform sampler,
regret-based Nash verification, best responses, and a Nash solver: the
first-order patterns of games whose own derivatives are affine, and
multistart damped best responses for the rest.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .expr import Polynomial, UtilityExpr, compile_utility, own_polynomial, parse_utility
from .kernel import EvalError, Interval, SearchBudget, maximize_1d, maximize_polynomial

# A utility maps a sequence of n coordinates, floats or arrays that broadcast
# together, to player i's payoff, of their broadcast shape: an (n,) profile
# gives a float, (n, S) columns give (S,), and best_response's (k, 1)
# opponents with (k, P) candidates give what broadcasts to (k, P): k = 1, with
# one (1, P) row of candidates, where a column is scanned.
# A deviation replaces one entry of the sequence. Compiled expressions read
# coordinate j as v[j]; a value that does not depend on the profile may come
# back as one scalar for all.
UtilityFn = Callable[[Sequence[float | np.ndarray]], float | np.ndarray]


@dataclass(frozen=True)
class Game:
    """An n-person strategic game with one interval strategy set per player.

    Player order is fixed and shared by all profile and utility indexing:
    coordinate i of a profile is player i's strategy, and ``utilities[i]``
    maps the n coordinates of a profile to player i's payoff. A utility reads
    coordinate j as ``v[j]`` of the sequence it is given, whose entries may be
    arrays that broadcast together (see ``UtilityFn``): a deviation replaces
    one entry, and best responses pass their candidates that way.
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
        var_names = tuple(variable_names) if variable_names is not None else tuple(players)
        if len(var_names) != len(players):
            raise ValueError("variable_names must align with players")
        fns = []
        for i, s in enumerate(sources):
            try:
                e = parse_utility(s) if isinstance(s, str) else s
                fn = compile_utility(e, var_names)  # undeclared variables raise EvalError
                # best_response finds it here, or through a wrapper's __wrapped__
                fn.polynomial = own_polynomial(e, var_names, i) if i < len(var_names) else None
            except (EvalError, RecursionError, SyntaxError) as exc:  # a chain of n terms nests n deep
                # a utility past the last player is named by its index; Game rejects it
                who = players[i] if i < len(players) else i
                why = (f"uses {exc}" if isinstance(exc, EvalError)
                       else "is too long or too deeply nested to compile")
                raise ValueError(f"utility of player {who!r} {why}") from None
            fns.append(fn)
        return Game(tuple(players), tuple(intervals), tuple(fns))

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


class Witness(NamedTuple):
    """A player's improving deviation: the best-response strategy and its payoff."""

    strategy: float
    value: float


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a regret-based equilibrium check at one profile."""

    verdict: bool
    players: tuple[str, ...]
    regrets: tuple[float, ...]
    witnesses: Mapping[str, Witness] = field(default_factory=dict)


def _finite(game: Game, out: np.ndarray, z: np.ndarray, x: np.ndarray) -> np.ndarray:
    """out, whose row i holds f_i at (z_i, x elsewhere); EvalError names its
    first non-finite payoff, that payoff's player and its profile."""
    finite = np.isfinite(out)
    if np.count_nonzero(finite) < finite.size:  # cheaper than a .all() call
        i, *at = np.unravel_index(finite.argmin(), finite.shape)
        v = list(x)
        v[i] = z[i]
        profile = [float(np.broadcast_to(c, out.shape[1:])[tuple(at)]) for c in v]
        raise EvalError(
            f"non-finite payoff {float(out[(i, *at)])!r} of player {game.players[i]!r} at {profile}"
        )
    return out


def order_leq(u: np.ndarray, v: np.ndarray) -> bool | np.ndarray:
    """Component-wise order along axis 0: one bool for (n,) vectors, the (S,)
    answers of their columns for (n, S) arrays."""
    return (np.asarray(u) <= np.asarray(v)).all(axis=0)  # the method skips np.all's wrapper


def diagonal_payoff(game: Game, z: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Vector whose i-th entry is f_i at (z_i, x elsewhere).

    z and x are (n,) profiles, giving an (n,) vector, or (n, ...) arrays
    whose coordinates broadcast together, giving n rows of their broadcast
    shape: (n, S) columns give (n, S), column s belonging to column s of z
    and x; an (n,) z deviates every column of an (n, S) x to the same z, and
    an (n, R, S) stack of R deviations against (n, S) columns gives
    (n, R, S). A utility that returns one scalar fills its whole row. A
    non-finite payoff raises EvalError naming it, its player and its profile.
    """
    z = np.asarray(z, dtype=float)
    x = np.asarray(x, dtype=float)
    v = list(x)
    # a profile or columns deviating to their own shape skip np.broadcast's cost
    out = np.empty(x.shape if z.shape == x.shape else (len(v),) + np.broadcast(z[0], v[0]).shape)
    for i, u in enumerate(game.utilities):
        v[i] = z[i]
        out[i] = u(v)
        v[i] = x[i]
    return _finite(game, out, z, x)


def uniform_samples(
    rng: np.random.Generator, samples: int, windows: Sequence[Interval]
) -> np.ndarray:
    """One (samples, k) uniform draw whose column j lies in the bounded windows[j].

    Row s holds the values that k scalar rng.uniform calls per sample, one per
    window in order, would draw for sample s. Every window's width is a float
    (see Interval), as rng.uniform needs.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    lo = [w.lo for w in windows]
    hi = [w.hi for w in windows]
    return rng.uniform(lo, hi, size=(samples, len(windows)))


def _reduction(u: UtilityFn, i: int) -> Polynomial | None:
    """Player i's polynomial reduction of u, on u or on what u wraps (its
    __wrapped__ chain, as a counting wrapper sets it), or None."""
    poly = getattr(u, "polynomial", None)
    while poly is None and hasattr(u, "__wrapped__"):
        u = u.__wrapped__
        poly = getattr(u, "polynomial", None)
    return poly if poly is not None and poly.own == i else None


def _polynomial(u: UtilityFn, i: int, cols: np.ndarray, window: Interval):
    """(coefficients, root, magnitudes or None) of player i's utility u at the
    opponents' (n, k) columns, for maximize_polynomial, or None where u has
    no reduction (see _reduction). A root above 1 needs a nonnegative window,
    and coefficients that raise EvalError or are not finite leave the
    profile to the scan, which reports where the utility itself fails."""
    poly = _reduction(u, i)
    if poly is None or (poly.root > 1 and window.lo < 0):
        return None
    opponents, k = list(cols), cols.shape[1]
    try:
        with np.errstate(all="ignore"):  # a non-finite coefficient is tested for below
            c = poly.coefficients(opponents, k)
            a = None if window.bounded else poly.magnitudes(opponents, k)
    except EvalError:
        return None
    for x in (c,) if a is None else (c, a):
        if np.count_nonzero(np.isfinite(x)) < x.size:  # cheaper than a .all() call
            return None
    return c, poly.root, a


def best_response(game: Game, player: str, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Maximize player's own payoff against the opponents' strategies in x.

    x is an (n,) profile or (n, k) profile columns (k = 1 for a profile). A
    utility from Game.from_expressions that is a polynomial in a root of the
    player's own strategy (see expr.own_polynomial) is maximized exactly by
    one maximize_polynomial call for all k columns: at its window's ends and
    its derivative's roots. The utility then sees the opponents as (k, 1)
    columns and the candidates as (k, P). Any other utility, a Python
    callable among them, is scanned by one maximize_1d call per column, on
    that column's (1, 1) opponents and (1, P) candidates, so that a column's
    result does not depend on the other columns. Neither search reads a
    budget. Returns the (k,) maximizers and their (k,) values; an EvalError
    names the player.
    """
    i = game.player_index(player)
    cols = np.asarray(x, dtype=float).reshape(game.n_players, -1)
    v = list(cols[:, :, None])
    u, window = game.utilities[i], game.strategy_sets[i]

    def f(t: np.ndarray):
        v[i] = t
        return u(v)

    try:
        exact = _polynomial(u, i, cols, window)
        if exact is not None:
            return maximize_polynomial(f, window, *exact)
        out = np.empty((2, cols.shape[1]))
        for r in range(cols.shape[1]):
            v[:] = cols[:, r:r + 1, None]
            out[:, r] = maximize_1d(f, window)
        return out[0], out[1]
    except EvalError as exc:
        raise EvalError(f"{exc} in the best response of player {player!r}") from None


def verify_nash(game: Game, x: np.ndarray, budget: SearchBudget) -> VerificationReport:
    """Regret check at x; verdict true iff every regret is within tolerance."""
    x = np.asarray(x, dtype=float)
    if not game.is_feasible(x, slack=1e-12):
        raise ValueError("profile is not feasible for this game")
    current = diagonal_payoff(game, x, x).tolist()
    regrets = []
    witnesses: dict[str, Witness] = {}
    for i, p in enumerate(game.players):
        arg, val = best_response(game, p, x)
        eps = max(float(val[0]) - current[i], 0.0)
        regrets.append(eps)
        if eps > budget.tolerance:
            witnesses[p] = Witness(float(arg[0]), float(val[0]))
    verdict = max(regrets) <= budget.tolerance
    return VerificationReport(
        verdict=verdict,
        players=game.players,
        regrets=tuple(regrets),
        witnesses=witnesses,
    )


N_STARTS = 32
DAMPING = 0.5


def _distinct(x: np.ndarray, tolerance: float) -> list[int]:
    """Indices of the (n, m) columns of x that merge into no column kept
    before them: column j merges when within 10 * tolerance * max(1, |x_j|_inf)
    of a kept column, distances in the sup norm."""
    kept: list[int] = []
    for j, p in enumerate(x.T):
        radius = 10 * tolerance * max(1.0, float(np.abs(p).max()))
        if not any(np.abs(p - x[:, i]).max() <= radius for i in kept):
            kept.append(j)
    return kept


# The pattern stage enumerates up to 3^n first-order patterns; a game of more
# players takes the damped loop.
_MAX_PATTERN_PLAYERS = 8
# A first-order condition holds within this fraction of the sum of its terms'
# magnitudes, and a singular system is solvable within it.
_SLACK = 1e-9


def _first_order_points(game: Game) -> np.ndarray | None:
    """The (n, m) first-order points of a game whose own derivatives are all
    affine in the profile, or None, where the damped loop decides.

    Player i's own derivative is g_i . x + h_i (Polynomial.first_order). A
    pattern puts each player at lo, at hi (on a bounded window) or inside its
    window; the inside players' square system then fixes their strategies.
    A point is kept when its inside strategies lie in their windows, bounds
    included, and each own derivative is <= 0 at lo and >= 0 at hi, within
    _SLACK. A singular system without a solution gives no point; one with
    solutions is a continuum, and gives None. So does a utility without a
    row, more than _MAX_PATTERN_PLAYERS players, or an own derivative that
    overflows at a point. Every Nash point has its pattern's signs, so each
    isolated one is among the points.
    """
    reductions = [_reduction(u, i) for i, u in enumerate(game.utilities)]
    if game.n_players > _MAX_PATTERN_PLAYERS or any(r is None or r.first_order is None for r in reductions):
        return None
    g = np.array([r.first_order[0] for r in reductions])
    h = np.array([r.first_order[1] for r in reductions])
    windows = game.strategy_sets
    lo, hi = np.array([w.lo for w in windows]), np.array([w.hi for w in windows])
    for p in game.players:  # the loop's deterministic start: its errors are raised as the loop raised them
        best_response(game, p, lo)
    # one row per pattern, in itertools.product order: 0 at lo, 1 at hi, 2 inside
    states = np.array(list(itertools.product(*((0, 1, 2) if w.bounded else (0, 2) for w in windows))))
    inside = states == 2
    x = np.where(states == 1, hi, lo)
    x[inside] = 0.0  # so that the fixed players alone make the right-hand sides
    with np.errstate(all="ignore"):  # overflows are tested for below
        for mask in map(np.array, itertools.product((False, True), repeat=game.n_players)):
            if not mask.any():
                continue
            rows = (inside == mask).all(axis=1)
            a = g[np.ix_(mask, mask)]
            b = -(h[mask, None] + g[mask] @ x[rows].T)  # one column per pattern
            y, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
            if rank == len(a):
                x[np.ix_(rows, mask)] = y.T
                continue
            scale = np.abs(a) @ np.abs(y) + np.abs(h[mask, None]) + np.abs(g[mask]) @ np.abs(x[rows].T)
            if (np.abs(a @ y - b) <= _SLACK * scale).all(axis=0).any():
                return None  # a continuum
            x[rows] = math.nan  # no solution: no point
        d = x @ g.T + h
        slack = _SLACK * (np.abs(x) @ np.abs(g).T + np.abs(h))
        found = np.isfinite(x).all(axis=1)
        if not np.isfinite(d[found]).all():
            return None
        keep = found[:, None] & (lo <= x) & (x <= hi)
        keep &= np.where(states == 0, d - slack <= 0, True) & np.where(states == 1, d + slack >= 0, True)
    return x[keep.all(axis=1)].T


def _equilibria(game: Game, x: np.ndarray, budget: SearchBudget) -> list[np.ndarray]:
    """The (n, m) columns of x that merge into no earlier column (see
    _distinct) and pass verify_nash."""
    return [p for p in x.T[_distinct(x, budget.tolerance)] if verify_nash(game, p, budget).verdict]


def solve_nash(game: Game, budget: SearchBudget) -> list[np.ndarray]:
    """Nash points of game: its first-order points, or the damped loop's.

    Where every utility's own derivative is affine in the profile (a
    first-order row from Game.from_expressions) and there are at most
    _MAX_PATTERN_PLAYERS players, the equilibria come from the first-order
    patterns (see _first_order_points): each player at lo, at hi or inside
    its window, the inside players' linear system solved, and the points
    kept whose own derivatives have the signs a maximum has at a bound.
    First, one best response per player at the windows' lower corner, the
    loop's deterministic start, raises the EvalError the loop would there:
    an unbounded-above best response, say. This stage reads no budget but
    its tolerance. A singular system with solutions is a continuum of
    candidates, and its game takes the damped loop, as do games of more
    players, games whose own derivative overflows at a pattern's point and
    games with a utility whose own derivative is not affine (a fractional
    power, say, or a Python callable); see _damped_loop. The points then
    merge, in pattern or start order (see _distinct), and only those that
    pass verify_nash are returned.
    """
    x = _first_order_points(game)
    return _damped_loop(game, budget) if x is None else _equilibria(game, x, budget)


def _damped_loop(game: Game, budget: SearchBudget) -> list[np.ndarray]:
    """Multistart damped simultaneous best-response iteration.

    Runs from N_STARTS starts in lockstep: N_STARTS - 1 seeded random
    feasible draws, then the lower corner of the windows they are drawn in,
    where a fixed point that repels the damped map, as E2's (0, 0), is found.
    Each iteration makes one best_response call per player on the game
    truncated to those windows, with one column per start still moving; a
    start stops once its change is below tolerance.
    Unbounded strategy sets are thus searched only up to the truncation cap,
    which keeps divergent dynamics bounded. The loop ends when no start moves
    or after max_iterations. The final points then merge once, in start
    order (see _distinct), and only those that pass verify_nash are returned.
    May return an empty list. That is not proof that the game has no
    equilibrium: a start that never settles, as one caught in a 2-cycle of
    the damped map, runs to max_iterations and ends at a point that fails
    verification.
    """
    rng = np.random.default_rng(budget.seed)
    windows = tuple(iv.truncated(budget.truncation_cap) for iv in game.strategy_sets)
    truncated = replace(game, strategy_sets=windows)
    x = np.concatenate([uniform_samples(rng, N_STARTS - 1, windows), [[w.lo for w in windows]]]).T
    moving = np.ones(N_STARTS, dtype=bool)
    for _ in range(budget.max_iterations):
        cur = x[:, moving]
        br = np.empty_like(cur)
        for i, p in enumerate(game.players):
            br[i], _ = best_response(truncated, p, cur)
        nxt = cur + (DAMPING * br - DAMPING * cur)  # the pinned reports hold this form's bits
        x[:, moving] = nxt
        moving[moving] = np.max(np.abs(nxt - cur), axis=0) >= budget.tolerance
        if not moving.any():
            break
    return _equilibria(game, x, budget)
