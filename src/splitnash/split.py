"""Split equilibrium problems for two games related by a linear operator.

A split problem couples a source game, a target game, and a dense matrix
mapping source profiles to target profiles. The module verifies and searches
for split equilibria, checks relatedness and sampled surjectivity of the
operator, samples the convexity-direction-preserved property, and probes the
finite-grid intersection of the deviation-dominance map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Sequence

import numpy as np

from .game import (
    Game,
    VerificationReport,
    diagonal_payoff,
    gamma_membership,
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

    def image(self, x: np.ndarray) -> np.ndarray:
        return apply_operator(self.operator, x)


@dataclass(frozen=True)
class SurjectivityReport:
    surjective_on_samples: bool
    samples: int
    max_residual: float
    failures: tuple[tuple[tuple[float, ...], float], ...] = ()


def check_surjectivity(problem: SplitProblem, samples: int, seed: int = 0) -> SurjectivityReport:
    """Sampled surjectivity: can each sampled target profile be reached?

    Each sampled y in the target strategy space (unbounded coordinates
    truncated at the default budget's cap) is tested by bounded least squares
    min ||Ax - y|| over the source strategy space; surjective-on-samples iff
    every residual is within the default budget's tolerance.
    """
    budget = SearchBudget()
    windows = [iv.truncated(budget.truncation_cap) for iv in problem.game_m.strategy_sets]
    targets = uniform_samples(np.random.default_rng(seed), samples, windows)
    # imported here so that loading the package does not pay for scipy.optimize
    from scipy.optimize import lsq_linear

    src = problem.game_n.strategy_sets
    lo = np.array([iv.lo for iv in src])
    hi = np.array([iv.truncated(budget.truncation_cap).hi for iv in src])
    failures = []
    max_res = 0.0
    for y in targets:
        res = lsq_linear(problem.operator.matrix, y, bounds=(lo, hi), tol=1e-12)
        residual = float(np.linalg.norm(problem.image(res.x) - y))
        max_res = max(max_res, residual)
        if residual > budget.tolerance:
            failures.append((tuple(float(v) for v in y), residual))
    return SurjectivityReport(
        surjective_on_samples=not failures,
        samples=samples,
        max_residual=max_res,
        failures=tuple(failures[:20]),
    )


@dataclass(frozen=True)
class SplitVerificationReport:
    verdict: bool
    report_n: VerificationReport
    report_m: VerificationReport
    image_profile: tuple[float, ...]
    notes: tuple[str, ...] = ()


def _target_image(problem: SplitProblem, x: np.ndarray) -> np.ndarray:
    """Ax clipped into the target box; ValueError if it lies more than 1e-9 outside.

    A feasible x can map a rounding error outside the box, which the target
    game's verification would reject; within the slack, its clipped point is
    verified instead.
    """
    y = problem.image(x)
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
    """Is (z, Az) dominated by no deviation to x's blocks, in both games? For
    (n, S) columns z, the (S,) answers of its columns against one (n,) x."""
    return gamma_membership(problem.game_n, x, z, tolerance) & gamma_membership(
        problem.game_m, problem.image(x), problem.image(z), tolerance
    )


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
    x, in grid order. x walks the grid in order and is tested only against
    the columns z that no earlier x has excluded, so each z meets the x of
    the grid up to the first that excludes it. Each member is cross-checked
    with the split verifier under a regret slack of twice the grid cell
    diameter. Emptiness is a finding, reported with the grid resolution; a
    non-finite payoff is none, and raises EvalError.
    """
    if points_per_axis < 1:
        raise ValueError(f"points_per_axis must be at least 1, got {points_per_axis}")
    windows = [iv.truncated(budget.truncation_cap) for iv in problem.game_n.strategy_sets]
    axes = [np.linspace(w.lo, w.hi, points_per_axis) for w in windows]
    steps = [ax[1] - ax[0] if len(ax) > 1 else 0.0 for ax in axes]
    cell_diameter = float(math.sqrt(sum(s * s for s in steps)))
    # (n, G) columns in itertools.product order: the last axis varies fastest
    grid = np.stack(np.meshgrid(*axes, indexing="ij")).reshape(len(axes), -1)

    alive = np.arange(grid.shape[1])
    for x in grid.T:
        if not alive.size:
            break
        alive = alive[kkm_t_membership(problem, x, grid[:, alive], budget.tolerance)]
    members = grid[:, alive].T

    slack_budget = replace(budget, tolerance=max(budget.tolerance, 2.0 * cell_diameter))
    verified = tuple(
        verify_split_equilibrium(problem, z, slack_budget).verdict for z in members
    )
    return KkmProbeResult(
        members=tuple(tuple(float(v) for v in z) for z in members),
        grid_points=grid.shape[1],
        points_per_axis=points_per_axis,
        cell_diameter=cell_diameter,
        verified=verified,
    )
