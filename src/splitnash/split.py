"""Split equilibrium problems for two games related by a linear operator.

A split problem couples a source game, a target game, and a dense matrix
mapping source profiles to target profiles. The module verifies and searches
for split equilibria, checks relatedness of the operator and its surjectivity
on samples (each sample's distance is exact), samples the
convexity-direction-preserved property, and probes the finite-grid
intersection of the deviation-dominance map.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .game import (
    Game,
    VerificationReport,
    diagonal_payoff,
    order_leq,
    solve_nash,
    uniform_samples,
    verify_nash,
)
from .kernel import Interval, SearchBudget


@dataclass(frozen=True)
class LinearOperator:
    """Dense matrix from the source game's profile space to the target's."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2:
            raise ValueError("operator matrix must be two-dimensional")
        if not np.all(np.isfinite(m)):
            raise ValueError("operator matrix entries must be finite")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape


def apply_operator(op: LinearOperator, x: Sequence[float]) -> np.ndarray:
    """The (m,) image of an (n,) profile, or the (m, S) images of (n, S) columns.

    One matrix-vector product per column, stacked into one call, so each
    column's image has the bits of the call on that column alone; the single
    matrix product op.matrix @ columns rounds differently in the last bits.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[0] != op.shape[1]:
        raise ValueError(
            f"operator expects dimension {op.shape[1]}, got {x.shape}"
        )
    rows = np.ascontiguousarray(x.T)
    return np.matmul(op.matrix, rows[..., None])[..., 0].T


@dataclass(frozen=True)
class RelatednessReport:
    """Exact interval-arithmetic containment of the source strategy space's image."""

    holds: bool
    image_intervals: tuple[tuple[float, float], ...]
    failures: tuple[str, ...] = ()


def _image_interval(row: np.ndarray, intervals: Sequence[Interval]) -> tuple[float, float]:
    lo_sum, hi_sum = 0.0, 0.0
    for a, iv in zip(row, intervals):
        if a == 0.0:
            continue  # avoid 0 * inf
        cands = [a * iv.lo, a * iv.hi]
        lo_sum += min(cands)
        hi_sum += max(cands)
    return lo_sum, hi_sum


def check_relatedness(game_n: Game, game_m: Game, op: LinearOperator) -> RelatednessReport:
    """Does the operator map the source strategy space into the target's?"""
    image = tuple(_image_interval(row, game_n.strategy_sets) for row in op.matrix)
    failures = []
    for k, ((lo, hi), iv) in enumerate(zip(image, game_m.strategy_sets)):
        if lo < iv.lo - 1e-12 or hi > iv.hi + 1e-12:
            failures.append(
                f"image coordinate {k} ranges over [{lo}, {hi}], "
                f"outside target interval [{iv.lo}, {iv.hi}]"
            )
    return RelatednessReport(
        holds=not failures, image_intervals=image, failures=tuple(failures)
    )


@dataclass(frozen=True)
class SplitProblem:
    """(source game, target game, operator) with relatedness metadata.

    A relatedness failure is recorded, not raised: the artifact also audits
    instances whose hypotheses fail.
    """

    game_n: Game
    game_m: Game
    operator: LinearOperator
    relatedness: RelatednessReport = field(init=False)

    def __post_init__(self) -> None:
        rows, cols = self.operator.shape
        if cols != self.game_n.n_players or rows != self.game_m.n_players:
            raise ValueError(
                f"operator shape {self.operator.shape} does not match games "
                f"({self.game_m.n_players} x {self.game_n.n_players} expected)"
            )
        object.__setattr__(
            self, "relatedness", check_relatedness(self.game_n, self.game_m, self.operator)
        )


@dataclass(frozen=True)
class SurjectivityReport:
    surjective_on_samples: bool
    samples: int
    max_residual: float
    failures: tuple[tuple[tuple[float, ...], float], ...] = ()


def check_surjectivity(problem: SplitProblem, samples: int, seed: int = 0) -> SurjectivityReport:
    """Sampled surjectivity: can each sampled target profile be reached?

    Each sampled y in the target strategy space gets its exact distance
    min ||Ax - y|| over the source strategy space, both truncated at the
    default budget's cap; surjective-on-samples iff every distance is within
    the default budget's tolerance. Each of the 3^n patterns of free, at-lo
    and at-hi source coordinates solves least squares on the free columns for
    every y at once, clipped into the box. Every candidate is feasible, and
    some optimum has linearly independent free columns, whose pattern returns
    it, so the smallest residual is the distance. At most 8 source players.
    """
    a = problem.operator.matrix
    if a.shape[1] > 8:
        raise ValueError(f"surjectivity check takes at most 8 source players, got {a.shape[1]}")
    budget = SearchBudget()
    windows = [iv.truncated(budget.truncation_cap) for iv in problem.game_m.strategy_sets]
    y = uniform_samples(np.random.default_rng(seed), samples, windows).T
    box = [iv.truncated(budget.truncation_cap) for iv in problem.game_n.strategy_sets]
    lo, hi = np.array([[iv.lo for iv in box], [iv.hi for iv in box]])[..., None]
    residuals = np.full(samples, np.inf)
    for state in itertools.product((0, 1, 2), repeat=len(box)):
        free = np.equal(state, 0)
        x = np.where(np.equal(state, 1)[:, None], lo, hi).repeat(samples, axis=1)
        x[free] = np.linalg.pinv(a[:, free]) @ (y - a[:, ~free] @ x[~free])
        residuals = np.minimum(residuals, np.linalg.norm(a @ np.clip(x, lo, hi) - y, axis=0))
    failed = np.flatnonzero(residuals > budget.tolerance)
    return SurjectivityReport(
        surjective_on_samples=not failed.size,
        samples=samples,
        max_residual=float(residuals.max()),
        failures=tuple((tuple(map(float, y[:, s])), float(residuals[s])) for s in failed[:20]),
    )


@dataclass(frozen=True)
class SplitVerificationReport:
    verdict: bool
    report_n: VerificationReport
    report_m: VerificationReport
    image_profile: tuple[float, ...]


def _target_image(problem: SplitProblem, x: np.ndarray) -> np.ndarray:
    """Ax clipped into the target box; ValueError if it lies more than 1e-9 outside.

    A feasible x can map a rounding error outside the box, which the target
    game's verification would reject; within the slack, its clipped point is
    verified instead.
    """
    y = apply_operator(problem.operator, x)
    if not problem.game_m.is_feasible(y, slack=1e-9):
        raise ValueError(
            f"operator image {y.tolist()} is infeasible in the target game "
            "(relatedness violated at this profile)"
        )
    box = problem.game_m.strategy_sets
    return np.clip(y, [iv.lo for iv in box], [iv.hi for iv in box])


def verify_split_equilibrium(
    problem: SplitProblem, x: np.ndarray, budget: SearchBudget
) -> SplitVerificationReport:
    """Verify x in game N and its (clipped) operator image in game M."""
    x = np.asarray(x, dtype=float)
    y = _target_image(problem, x)
    rep_n = verify_nash(problem.game_n, x, budget)
    rep_m = verify_nash(problem.game_m, y, budget)
    return SplitVerificationReport(
        verdict=rep_n.verdict and rep_m.verdict,
        report_n=rep_n,
        report_m=rep_m,
        image_profile=tuple(float(v) for v in y),
    )


def solve_split(problem: SplitProblem, budget: SearchBudget) -> list[np.ndarray]:
    """Nash candidates of game N whose operator image is Nash in game M.

    solve_nash returns only candidates that pass verify_nash in game N under
    this budget, so only the image is verified here.
    """
    out = []
    for x in solve_nash(problem.game_n, budget):
        try:
            y = _target_image(problem, x)
        except ValueError:
            continue
        if verify_nash(problem.game_m, y, budget).verdict:
            out.append(x)
    return out


class CdpWitness(NamedTuple):
    """A sampled (u, v, lambda) triple, replayable to re-verify its violation."""

    u: tuple[float, ...]
    v: tuple[float, ...]
    lam: float


@dataclass(frozen=True)
class CdpReport:
    """Sampled audit of the convexity-direction-preserved property."""

    samples: int
    joint_cdp_failures: tuple[CdpWitness, ...]
    vector_disjunction_failures: tuple[CdpWitness, ...]
    min_dominance_failures: tuple[CdpWitness, ...]


def cdp_sample_check(
    problem: SplitProblem,
    samples: int,
    seed: int = 0,
    tolerance: float = 1e-6,
    cap: float = 1e3,
) -> CdpReport:
    """Sample (u, v, lambda) triples and record violations of three properties:

    (i) the joint disjunction coupling deviation dominance in both games,
    (ii) the per-game vector disjunctions, and (iii) the per-component
    min-dominance property, which is the only one provable from own-strategy
    concavity alone. A non-finite payoff is no violation, and raises EvalError.
    """
    rng = np.random.default_rng(seed)
    gn, gm = problem.game_n, problem.game_m
    n = gn.n_players
    windows = [iv.truncated(cap) for iv in gn.strategy_sets]
    draw = uniform_samples(rng, samples, windows * 2 + [Interval(0.0, 1.0)])
    u, v, lam = draw[:, :n].T, draw[:, n : 2 * n].T, draw[:, 2 * n]
    w = lam * u + (1 - lam) * v
    # one evaluation per utility and game: an (n, 3, S) stack of deviations
    # to u, to v, and w itself, against w
    z = np.stack([u, v, w], axis=1)
    fu, fv, fw = diagonal_payoff(gn, z, w).swapaxes(0, 1)
    az = apply_operator(problem.operator, z.reshape(n, -1)).reshape(-1, 3, samples)
    gu, gv, gw = diagonal_payoff(gm, az, az[:, 2]).swapaxes(0, 1)

    n_u = order_leq(fu, fw + tolerance)
    n_v = order_leq(fv, fw + tolerance)
    m_u = order_leq(gu, gw + tolerance)
    m_v = order_leq(gv, gw + tolerance)
    mindom = order_leq(np.minimum(fu, fv), fw + tolerance)

    def witnesses(failed: np.ndarray) -> tuple:
        return tuple(
            CdpWitness(tuple(map(float, u[:, s])), tuple(map(float, v[:, s])), float(lam[s]))
            for s in np.flatnonzero(failed)[:50]
        )

    return CdpReport(
        samples=samples,
        joint_cdp_failures=witnesses(~((n_u & m_u) | (n_v & m_v))),
        vector_disjunction_failures=witnesses(~((n_u | n_v) & (m_u | m_v))),
        min_dominance_failures=witnesses(~mindom),
    )


def kkm_t_membership(
    problem: SplitProblem, x: np.ndarray, z: np.ndarray, tolerance: float = 1e-6
) -> bool | np.ndarray:
    """Is (z, Az) dominated by no deviation to the blocks of any column of x, in
    either game? (n, R) x and (n, S) z give (S,) answers. z's images and payoffs
    are computed once; x's columns are then walked in order over the columns
    of z that none before excluded."""
    x = np.asarray(x, dtype=float).reshape(problem.game_n.n_players, -1)
    cols = np.asarray(z, dtype=float).reshape(problem.game_n.n_players, -1)
    a = problem.operator
    sides = ((problem.game_n, x, cols), (problem.game_m, apply_operator(a, x), apply_operator(a, cols)))
    bounds = [diagonal_payoff(game, zs, zs) + tolerance for game, _, zs in sides]
    member = np.ones(cols.shape[1], dtype=bool)
    for r in range(x.shape[1]):
        kept = True
        for (game, xs, zs), bound in zip(sides, bounds):
            deviated = diagonal_payoff(game, xs[:, r], zs[:, member])
            kept = kept & order_leq(deviated, bound[:, member])
        member[member] = kept
        if not member.any():
            break
    return member if np.ndim(z) > 1 else member[0]


@dataclass(frozen=True)
class KkmProbeResult:
    members: tuple[tuple[float, ...], ...]
    grid_points: int
    points_per_axis: int
    cell_diameter: float
    verified: tuple[bool, ...]


def kkm_intersection_probe(
    problem: SplitProblem,
    budget: SearchBudget,
    points_per_axis: int = 8,
) -> KkmProbeResult:
    """Finite-grid probe of the intersection of all deviation-dominance sets.

    Returns every grid point z that stays a member against every grid point
    x, in grid order: each z meets the x of the grid up to the first that
    excludes it. Each member is cross-checked with the split verifier at the
    budget: a player passes with no witness or one within an axis step of its
    coordinate (in game M, the steps' image under |A|): strategy units, not a
    payoff slack. Emptiness is a finding, reported with the grid
    resolution; a non-finite payoff is none, and raises EvalError. An axis
    step or a cell diameter beyond the largest float, from too few points
    on a window wider than it, raises ValueError.
    """
    if points_per_axis < 1:
        raise ValueError(f"points_per_axis must be at least 1, got {points_per_axis}")
    windows = [iv.truncated(budget.truncation_cap) for iv in problem.game_n.strategy_sets]
    # a window wider than the largest float is gridded at half scale, as maximize_1d grids it
    scales = [1.0 if w.hi - w.lo < math.inf else 2.0 for w in windows]
    axes = [np.linspace(w.lo / h, w.hi / h, points_per_axis) * h for w, h in zip(windows, scales)]
    steps = np.array([ax[1] - ax[0] if len(ax) > 1 else 0.0 for ax in axes])
    for player, step in zip(problem.game_n.players, steps):
        if step == math.inf:
            raise ValueError(
                f"the probe's axis step of player {player!r} overflows: take more points per axis"
            )
    # scaled by the longest step's power of two, which is exact, no square overflows
    e = math.frexp(max(steps))[1]
    try:
        cell_diameter = math.ldexp(math.sqrt(sum(math.ldexp(s, -e) ** 2 for s in steps)), e)
    except OverflowError:
        raise ValueError("the probe's cell diameter overflows: take more points per axis") from None
    # (n, G) columns in itertools.product order: the last axis varies fastest
    grid = np.stack(np.meshgrid(*axes, indexing="ij")).reshape(len(axes), -1)
    members = grid[:, kkm_t_membership(problem, grid, grid, budget.tolerance)].T

    def near(report: VerificationReport, profile: Sequence[float], step: np.ndarray) -> bool:
        return all(
            p not in report.witnesses or abs(report.witnesses[p].strategy - c) <= h
            for p, c, h in zip(report.players, profile, step)
        )

    image_steps = np.abs(problem.operator.matrix) @ steps
    reports = [verify_split_equilibrium(problem, z, budget) for z in members]
    verified = tuple(
        near(r.report_n, z, steps) and near(r.report_m, r.image_profile, image_steps)
        for z, r in zip(members, reports)
    )
    return KkmProbeResult(
        members=tuple(tuple(float(v) for v in z) for z in members),
        grid_points=grid.shape[1],
        points_per_axis=points_per_axis,
        cell_diameter=cell_diameter,
        verified=verified,
    )
