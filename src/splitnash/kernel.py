"""Deterministic low-level numerical routines.

Strategy intervals, search budgets, and one-dimensional maximization.
Everything here is a pure function of its inputs; no global state, no
hidden randomness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


class EvalError(ValueError):
    """A utility cannot be evaluated here: a non-finite value, a fractional
    power of a negative base, an overflowing power or an undeclared variable."""


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
        if not self.hi >= self.lo:  # a NaN hi fails too: [lo, nan] holds no point
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.hi)

    def contains(self, x: float, slack: float = 0.0) -> bool:
        """Is x a finite point of [lo - slack, hi + slack]?"""
        return math.isfinite(x) and self.lo - slack <= x <= self.hi + slack

    def truncated(self, cap: float) -> "Interval":
        """Finite search window: [lo, hi] or [lo, lo + cap] when unbounded."""
        if self.bounded:
            return self
        return Interval(self.lo, self.lo + cap)


@dataclass(frozen=True)
class SearchBudget:
    """Search knobs, finite and positive but the seed. maximize_1d reads grid_step,
    tolerance and truncation_cap; max_iterations caps solve_nash alone. One
    budget reaches every search of a call unchanged, but _MAX_SCAN_CELLS
    coarsens grid_step on a window over 2000 steps wide."""

    grid_step: float = 1e-2
    max_iterations: int = 500
    truncation_cap: float = 1e3
    tolerance: float = 1e-6
    seed: int = 0

    def __post_init__(self) -> None:
        # written so that NaN fails too
        if not all(0 < v < math.inf for v in (self.grid_step, self.truncation_cap, self.tolerance)):
            raise ValueError("budget fields must be finite and strictly positive")
        if self.max_iterations <= 0:
            raise ValueError("max_iterations must be positive")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


# Coarse-scan cell count is capped so that wide truncated ranges stay cheap;
# zoomed rescans of the best bracket restore full accuracy on unimodal objectives.
_MAX_SCAN_CELLS = 2000
# Points per zoomed rescan: each rescan narrows a bracket to 2/256 of its width.
_ZOOM_POINTS = 257
_ZOOM_STEPS = np.arange(_ZOOM_POINTS, dtype=float)


def _values(
    f: Callable[[np.ndarray], np.ndarray], t: np.ndarray, k: int, lo: float, hi: float,
    overflow: str = "",
) -> np.ndarray:
    """f at the points t, (k, P) or one (1, P) row shared by all k rows, as a
    (k, P) array; it may be a view that f's next call overwrites. EvalError
    names the first non-finite value, its point (row r of the result reads
    row r of t, or t's one row) and the window [lo, hi], or reads
    `overflow`, when given, if that value is +inf."""
    vs = np.asarray(f(t), dtype=float)
    if vs.shape != (k, t.shape[1]):
        vs = np.broadcast_to(vs, (k, t.shape[1]))
    finite = np.isfinite(vs)
    if np.count_nonzero(finite) < finite.size:  # cheaper than a .all() call
        r, c = np.unravel_index(finite.argmin(), finite.shape)
        value = float(vs[r, c])
        if overflow and value == math.inf:
            raise EvalError(overflow)
        x = t.item(r if len(t) > 1 else 0, c)
        raise EvalError(f"non-finite value {value!r} at {x!r} on [{lo!r}, {hi!r}]")
    return vs


def _expand_cap(
    f: Callable[[np.ndarray], np.ndarray], lo: float, k: int, budget: SearchBudget
) -> float:
    """Double the truncation cap while f is still increasing there in any row;
    hi grows by at least one float a pass, so it ends there or overflows.
    f overflowing to +inf on the way (x^2 near 1.3e154) is unbounded too."""
    unbounded = f"value still increasing as the cap overflows: unbounded above on [{lo!r}, inf)"
    hi = min(lo + budget.truncation_cap, math.nextafter(math.inf, 0.0))  # the largest float
    t = np.empty((1, 2))  # the probes are shared by all rows
    while hi < math.inf:
        t[:] = hi, hi - max(1e-8, 1e-6 * max(1.0, abs(hi)))
        vs = _values(f, t, k, lo, hi, unbounded)
        if (vs[:, 0] <= vs[:, 1]).all():
            return hi
        hi = max(lo + 2.0 * (hi - lo), math.nextafter(hi, math.inf))
    raise EvalError(unbounded)


def maximize_1d(
    f: Callable[[np.ndarray], np.ndarray], interval: Interval, budget: SearchBudget, k: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Maximize k functions of one variable that share an interval.

    f maps points to values that broadcast to (k, P), row r holding problem
    r's (one scalar, when they depend on neither x nor the row). Points shared
    by all rows, the scan grid and the cap probes, arrive as one (1, P) row;
    a rescan's arrive as (k, P), row r holding candidates for problem r.
    Returns the (k,) maximizers and their (k,) values.

    Every row scans one shared grid of at most _MAX_SCAN_CELLS cells in one
    call of f. Each row's ±1-cell bracket around its first maximum (ties go
    to the smaller x) is then refined by zoomed rescans of _ZOOM_POINTS points
    for all rows at once, while it is wider than max(1e-12, tolerance * 1e-4)
    and the last rescan narrowed it: a float width cannot shrink forever, so
    no count bounds the rescans. A row keeps its best point so far unless a
    rescan finds a strictly larger value. A non-finite value raises EvalError
    naming the first such point and the searched window. On a bounded
    interval, row r's result is the k = 1 result for row r alone, bit for bit.

    Unbounded intervals are searched over [lo, lo + cap] after bracket
    expansion: the cap, shared by all rows, doubles while f is still
    increasing at it in any row, and EvalError reports f unbounded above where
    it would overflow. Deterministic for a fixed budget.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    lo = interval.lo
    hi = interval.hi if interval.bounded else _expand_cap(f, lo, k, budget)
    # a degenerate interval scans one cell [lo, lo], whose bracket has width 0
    cells = max(1, math.ceil(min(_MAX_SCAN_CELLS, (hi - lo) / budget.grid_step)))
    # np.linspace(lo, hi, cells + 1), bit for bit, without its call overhead
    xs = np.arange(cells + 1.0)
    xs *= (hi - lo) / cells
    xs += lo
    xs[-1] = hi
    # the scan's points are shared: f sees them once, as one row
    pts = xs[None, :]

    # Pass 0 is the scan; pass p > 0 rescans row r at left[r] + i * step[r]
    # for i < _ZOOM_POINTS - 1, then right[r]: the points of
    # np.linspace(left[r], right[r], _ZOOM_POINTS). A row finished by the scan
    # rescans lo alone (step 0), and a row finished by a rescan repeats that
    # rescan: f sees no new point of a finished row, and nothing of it is
    # read. The bookkeeping is per row in Python: k is small, and a numpy call
    # on k values costs as much as a Python loop over them.
    goal = max(1e-12, budget.tolerance * 1e-4)
    left, step, right = np.full(k, lo), np.zeros(k), np.full(k, lo)
    step_col, left_col = step[:, None], left[:, None]
    x, v, width = [lo] * k, [-math.inf] * k, [math.inf] * k
    active = range(k)
    while True:
        vals = _values(f, pts, k, lo, hi)
        best = vals.argmax(axis=1).tolist()
        last = pts.shape[1] - 1
        shared = len(pts) == 1
        still = []
        for r in active:
            j, q = best[r], 0 if shared else r
            top = vals.item(r, j)
            if top > v[r]:
                x[r], v[r] = pts.item(q, j), top
            a, b = pts.item(q, j - 1 if j else 0), pts.item(q, j + 1 if j < last else j)
            if goal < b - a < width[r]:
                left[r], step[r], right[r], width[r] = a, (b - a) / (_ZOOM_POINTS - 1), b, b - a
                still.append(r)
        active = still
        if not active:
            break
        pts = _ZOOM_STEPS * step_col
        pts += left_col
        pts[:, -1] = right
    return np.array(x), np.array(v)
