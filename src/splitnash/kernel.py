"""Deterministic low-level numerical routines.

Strategy intervals, profile boxes, search budgets, and one-dimensional
maximization. Everything here is a pure function of its inputs; no global
state, no hidden randomness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


class EvaluatorError(ValueError):
    """A function under optimization returned a non-finite value."""


@dataclass(frozen=True)
class Interval:
    """A closed interval [lo, hi]; hi may be math.inf for an unbounded set."""

    lo: float
    hi: float = math.inf

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        if not math.isfinite(self.lo):
            raise ValueError("interval lower bound must be finite")
        if self.hi < self.lo:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.hi)

    def contains(self, x: float, slack: float = 0.0) -> bool:
        return self.lo - slack <= x and (not self.bounded or x <= self.hi + slack)

    def truncated(self, cap: float) -> "Interval":
        """Finite search window: [lo, hi] or [lo, lo + cap] when unbounded."""
        if self.bounded:
            return self
        return Interval(self.lo, self.lo + cap)


@dataclass(frozen=True)
class Box:
    """A product of intervals, one per coordinate."""

    intervals: tuple[Interval, ...]

    def __post_init__(self) -> None:
        if len(self.intervals) == 0:
            raise ValueError("box must have at least one coordinate")

    @staticmethod
    def of(*bounds: tuple[float, float]) -> "Box":
        return Box(tuple(Interval(lo, hi) for lo, hi in bounds))

    @property
    def dim(self) -> int:
        return len(self.intervals)


@dataclass(frozen=True)
class SearchBudget:
    """Knobs shared by every search routine; all strictly positive but the seed."""

    grid_step: float = 1e-2
    max_iterations: int = 500
    truncation_cap: float = 1e3
    tolerance: float = 1e-6
    seed: int = 0

    def __post_init__(self) -> None:
        if self.grid_step <= 0 or self.truncation_cap <= 0 or self.tolerance <= 0:
            raise ValueError("budget fields must be strictly positive")
        if self.max_iterations <= 0:
            raise ValueError("max_iterations must be positive")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


# Coarse-scan cell count is capped so that wide truncated ranges stay cheap;
# golden-section refinement restores full accuracy on unimodal objectives.
_MAX_SCAN_CELLS = 2000

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0  # 1/phi^2


def _checked(f: Callable[[float], float], x: float) -> float:
    v = float(f(x))
    if not math.isfinite(v):
        raise EvaluatorError(f"non-finite value {v!r} at {x!r}")
    return v


def _expand_cap(f: Callable[[float], float], lo: float, cap: float, budget: SearchBudget) -> float:
    """Double the truncation cap while f is still increasing there."""
    hi = lo + cap
    probe = max(1e-8, 1e-6 * max(1.0, abs(hi)))
    for _ in range(budget.max_iterations):
        if _checked(f, hi) <= _checked(f, hi - probe):
            break
        hi = lo + 2.0 * (hi - lo)
        probe = max(1e-8, 1e-6 * max(1.0, abs(hi)))
    return hi


def _golden_section(
    f: Callable[[float], float], a: float, b: float, budget: SearchBudget
) -> tuple[float, float]:
    """Golden-section maximization on [a, b]; ties drift toward smaller x."""
    c = a + _INVPHI2 * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = _checked(f, c), _checked(f, d)
    width_goal = max(1e-12, budget.tolerance * 1e-4)
    it = 0
    while (b - a) > width_goal and it < budget.max_iterations:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = a + _INVPHI2 * (b - a)
            fc = _checked(f, c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = _checked(f, d)
        it += 1
    # pick the best evaluated point, preferring the smaller coordinate on ties
    candidates = [(a, _checked(f, a)), (c, fc), (d, fd), (b, _checked(f, b))]
    best_x, best_v = candidates[0]
    for x, v in candidates[1:]:
        if v > best_v or (v == best_v and x < best_x):
            best_x, best_v = x, v
    return best_x, best_v


def maximize_1d(
    f: Callable[[float], float], interval: Interval, budget: SearchBudget
) -> tuple[float, float]:
    """Coarse grid scan plus golden-section refinement on the best bracket.

    Unbounded intervals are searched over [lo, lo + truncation_cap] after
    bracket expansion (the cap doubles while f is still increasing at it).
    Deterministic for a fixed budget; argmax ties break toward smaller x.
    """
    lo = interval.lo
    if interval.bounded:
        hi = interval.hi
    else:
        hi = _expand_cap(f, lo, budget.truncation_cap, budget)
    if hi <= lo:
        return lo, _checked(f, lo)

    span = hi - lo
    cells = min(_MAX_SCAN_CELLS, max(1, int(math.ceil(span / budget.grid_step))))
    xs = np.linspace(lo, hi, cells + 1)
    best_i, best_v = 0, _checked(f, xs[0])
    for i in range(1, len(xs)):
        v = _checked(f, xs[i])
        if v > best_v:
            best_i, best_v = i, v

    a = xs[max(0, best_i - 1)]
    b = xs[min(len(xs) - 1, best_i + 1)]
    gx, gv = _golden_section(f, a, b, budget)
    if gv > best_v or (gv == best_v and gx < xs[best_i]):
        return gx, gv
    return float(xs[best_i]), best_v

