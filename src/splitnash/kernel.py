"""Deterministic low-level numerical routines.

Strategy intervals, search budgets, and one-dimensional maximization.
Everything here is a pure function of its inputs; no global state, no
hidden randomness.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np


class EvalError(ValueError):
    """A utility cannot be evaluated here: a non-finite value, a fractional
    power of a negative base, an overflowing power or an undeclared variable."""


@dataclass(frozen=True)
class Interval:
    """A closed interval [lo, hi]; hi may be math.inf for an unbounded set.
    Its width, min(hi, largest float) - lo, must be a finite float: a
    half-line counts up to the largest float, where the scan's cap can grow."""

    lo: float
    hi: float = math.inf

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        if not math.isfinite(self.lo):
            raise ValueError("interval lower bound must be finite")
        if not self.hi >= self.lo:  # a NaN hi fails too: [lo, nan] holds no point
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")
        if min(self.hi, sys.float_info.max) - self.lo == math.inf:
            raise ValueError(f"interval [{self.lo}, {self.hi}] is wider than the largest float")

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.hi)

    def contains(self, x: float, slack: float = 0.0) -> bool:
        """Is x a finite point of [lo - slack, hi + slack]?"""
        return math.isfinite(x) and self.lo - slack <= x <= self.hi + slack

    def truncated(self, cap: float) -> "Interval":
        """Finite search window: [lo, hi], or [lo, lo + cap] up to the largest float."""
        if self.bounded:
            return self
        return Interval(self.lo, min(self.lo + cap, sys.float_info.max))


@dataclass(frozen=True)
class SearchBudget:
    """Search knobs, finite and positive but the seed. tolerance decides every
    verdict and solve_nash's stopping and merging; max_iterations caps
    solve_nash; seed draws its starts and the CLI's CDP samples; truncation_cap
    ends its windows on half-lines, and the probe's and sampled checks', at
    the largest float at most (see Interval.truncated);
    grid_step is the CLI's duopoly grid. No best response reads a budget."""

    grid_step: float = 1e-2
    max_iterations: int = 500
    truncation_cap: float = 1e3
    tolerance: float = 1e-6
    seed: int = 0

    def __post_init__(self) -> None:
        # written so that NaN fails too; a bool, which compares as 0 or 1, is no number here
        reals = (self.grid_step, self.truncation_cap, self.tolerance)
        if not all(0 < v < math.inf and not isinstance(v, (bool, np.bool_)) for v in reals):
            raise ValueError("budget fields must be finite and strictly positive")
        for name, value, least in (("max_iterations", self.max_iterations, 1), ("seed", self.seed, 0)):
            try:
                if isinstance(value, bool):  # operator.index takes it as 0 or 1
                    raise TypeError
                if operator.index(value) < least:  # an int or a numpy integer, not 2.5
                    raise ValueError(f"{name} must be at least {least}, got {value!r}")
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None


# maximize_1d's resolution, which no budget reaches; the cell cap keeps a wide window cheap
_SCAN_STEP = 1e-2
_MAX_SCAN_CELLS = 2000
_ZOOM_GOAL = 1e-10
_ZOOM_POINTS = 257  # a rescan narrows a bracket to 2/256 of its width
_FIRST_CAP = 1e3


def _values(
    f: Callable[[np.ndarray], np.ndarray], t: np.ndarray, lo: float, hi: float, overflow: str = ""
) -> np.ndarray:
    """f at the (k, P) points t, as a (k, P) array that f's next call may
    overwrite. EvalError names the first non-finite value, its point and the
    window [lo, hi], or reads `overflow`, when given, if that value is +inf."""
    vs = np.asarray(f(t), dtype=float)
    if vs.shape != t.shape:
        vs = np.broadcast_to(vs, t.shape)
    finite = np.isfinite(vs)
    if np.count_nonzero(finite) < finite.size:  # cheaper than a .all() call
        r, c = np.unravel_index(finite.argmin(), finite.shape)
        value = float(vs[r, c])
        if overflow and value == math.inf:
            raise EvalError(overflow)
        raise EvalError(f"non-finite value {value!r} at {t.item(r, c)!r} on [{lo!r}, {hi!r}]")
    return vs


def _expand_cap(f: Callable[[np.ndarray], np.ndarray], lo: float) -> float:
    """Double the cap from _FIRST_CAP while f is still increasing there; hi
    grows by at least one float a pass, and a doubling past the largest float
    probes that float, so it ends there or at the largest float. f
    overflowing to +inf on the way (x^2 near 1.3e154) is unbounded too."""
    unbounded = f"value still increasing as the cap overflows: unbounded above on [{lo!r}, inf)"
    hi = lo + _FIRST_CAP  # rounds to at most the largest float
    while True:
        t = np.array([[hi, hi - max(1e-8, 1e-6 * max(1.0, abs(hi)))]])
        vs = _values(f, t, lo, hi, unbounded)
        if vs.item(0) <= vs.item(1):
            return hi
        if hi == sys.float_info.max:
            raise EvalError(unbounded)
        hi = min(max(lo + 2.0 * (hi - lo), math.nextafter(hi, math.inf)), sys.float_info.max)


def maximize_1d(f: Callable[[np.ndarray], np.ndarray], interval: Interval) -> tuple[float, float]:
    """Maximize a function of one variable on an interval.

    f maps one (1, P) row of points to values that broadcast to (1, P) (one
    scalar, when they do not depend on the point). Returns the maximizer and
    its value, as floats.

    The scan reaches f in one call: a grid of cells _SCAN_STEP wide, or
    _MAX_SCAN_CELLS wider ones on a wide window. The ±1-cell bracket around
    its first maximum (ties go to the smaller x) is then refined by zoomed
    rescans of _ZOOM_POINTS points, while it is wider than _ZOOM_GOAL and the
    last rescan narrowed it: a float width cannot shrink forever, so no count
    bounds the rescans. Each pass grids with np.linspace, on a window whose
    width is a float (see Interval). The best point so far is kept
    unless a rescan finds a strictly larger value. A non-finite value raises
    EvalError naming the first such point and the searched window.

    Unbounded intervals are searched over [lo, lo + cap] after bracket
    expansion: the cap doubles from _FIRST_CAP while f is still increasing at
    it, and EvalError reports f unbounded above where it is still increasing
    at the largest float.
    """
    lo = interval.lo
    hi = interval.hi if interval.bounded else _expand_cap(f, lo)
    # a degenerate interval scans one cell [lo, lo], whose bracket has width 0
    cells = max(1, math.ceil(min(_MAX_SCAN_CELLS, (hi - lo) / _SCAN_STEP)))
    x, v, width = lo, -math.inf, math.inf
    a, b, points = lo, hi, cells + 1  # pass 0 is the scan; a later pass rescans the last bracket
    while True:
        pts = np.linspace(a, b, points)[None, :]
        vals = _values(f, pts, lo, hi)
        j = int(vals.argmax())
        if vals.item(j) > v:
            x, v = pts.item(j), vals.item(j)
        a, b = pts.item(j - 1 if j else 0), pts.item(j + 1 if j < pts.shape[1] - 1 else j)
        if not _ZOOM_GOAL < b - a < width:
            return x, v
        width, points = b - a, _ZOOM_POINTS


# A coefficient within this fraction of what it is weighed against reads as
# zero (see maximize_polynomial).
_NEGLIGIBLE = 2.0**-40


def _real_parts(first: list[float]) -> list[float]:
    """The real parts of the roots of w^m = first[0] * w^(m-1) + ... + first[m-1],
    m = 2 or 3, which are the eigenvalues of the companion matrix with first
    row `first`, in closed form on Python floats. A quadratic takes the
    cancellation-free formula, and a complex pair its real part twice. A
    cubic takes one real root, Cardano's where it has one and the largest of
    the trigonometric form's where it has three, polished by one Newton step
    kept where it lowers the residual; dividing it out, from the end where
    that is stable, leaves a quadratic. Coefficients of 2^100 or more are
    first scaled by a power of 2, so that no square or cube overflows."""
    s = 1.0
    if max(map(abs, first)) >= 2.0**100:
        e = min(max(-(-math.frexp(f)[1] // (i + 1)) for i, f in enumerate(first)), 1023)
        first, s = [math.ldexp(f, -e * (i + 1)) for i, f in enumerate(first)], 2.0**e
    out = []
    if len(first) == 2:  # z^2 = a z + b
        a, b = first
    else:  # z^3 = a z^2 + b z + c, which is y^3 + p y + q at z = y + a/3
        a, b, c = first
        shift = a / 3.0
        p = -b - a * shift
        q = -c - shift * (b + 2.0 * shift * shift)
        disc = 0.25 * q * q + p * p * p / 27.0
        if disc > 0.0:  # u^3, the resolvent's root of larger magnitude, is not 0
            v = -0.5 * q - math.copysign(math.sqrt(disc), q)
            u = math.copysign(abs(v) ** (1.0 / 3.0), v)
            y = u - p / (3.0 * u)
        else:  # the largest is r cos(phi), cos(3 phi) = 4|q| / r^3, of the sign opposite to q's
            r = 2.0 * math.sqrt(max(-p / 3.0, 0.0))  # p <= 0 but for rounding
            phi = math.acos(min(1.0, 4.0 * abs(q) / r / r / r)) / 3.0 if r else 0.0
            y = -math.copysign(r * math.cos(phi), q)
        z = y + shift
        residual = ((z - a) * z - b) * z - c
        slope = (3.0 * z - 2.0 * a) * z - b
        if slope:
            n = z - residual / slope
            if abs(((n - a) * n - b) * n - c) < abs(residual):
                z = n
        out.append(z * s)
        # the other two roots solve z'^2 = a z' + b: z divided out from the
        # top, or from the constant term where z is the larger root
        a, b = a - z, b + z * (a - z)
        if z * z > max(a * a, abs(b)):
            a, b = (-c / z - first[1]) / z, -c / z
    disc = a * a + 4.0 * b
    if disc < 0.0:  # a complex pair
        return out + [0.5 * a * s] * 2
    h = 0.5 * (a + math.copysign(math.sqrt(disc), a))
    return out + [h * s, -b / h * s if h else 0.0]


def maximize_polynomial(
    f: Callable[[np.ndarray], np.ndarray],
    interval: Interval,
    c: np.ndarray,
    root: int,
    magnitudes: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Maximize k functions of one variable t that are polynomials in t**(1/root).

    Row r of the (k, d + 1) array c holds problem r's coefficients: f at t
    is sum_j c[r, j] * w**j with w = t**(1/root), and root > 1 needs lo >= 0.
    f is called once, with (k, P) points, row r holding problem r's, and
    gives every value returned; c only says where to look. A polynomial is largest at
    an end of its window or at a real root of its derivative, so each row's
    candidates are the ends and the real parts of all the derivative's m =
    d - 1 roots, clipped to the window. For m <= 3 they are found in closed
    form, row by row on Python floats (see _real_parts); above that, as the
    eigenvalues of (k, m, m) companion matrices in one np.linalg.eigvals
    call. A complex root's real part is one more candidate, scored like the
    rest, so no threshold decides which roots are real. Each row returns its
    candidate of largest value, ties going to the smaller t; a non-finite
    value raises EvalError naming the first such point and the window. Row
    r's result is the k = 1 result for row r alone, bit for bit.

    Zero up to rounding: a coefficient at most 2**-40 times what it is
    weighed against reads as zero. On [lo, inf) it is weighed against
    magnitudes, c's sums with every term made nonnegative, so that a
    leading term cancelled to rounding decides nothing; a positive highest
    nonzero coefficient above degree 0 then raises EvalError, f being
    unbounded above, and otherwise the candidates are lo and the roots. On
    a bounded window the derivative's top coefficient is weighed against
    its other terms where |w| is largest. A top coefficient that reads as
    zero, or whose quotients overflow, is dropped and the row's derivative
    multiplied by w, adding a root at 0: the root dropped lies past the
    window or near the largest float.
    """
    k, n = c.shape
    lo, hi, bounded = interval.lo, interval.hi, interval.bounded
    rows = np.arange(k)
    if not bounded:
        c = np.where(np.abs(c) <= _NEGLIGIBLE * magnitudes, 0.0, c)
        if n > 1:
            # the last nonzero coefficient of each row; a row of zeros reads c[:, -1] = 0
            top = n - 1 - (c[:, :0:-1] != 0).argmax(axis=1)
            lead = c[rows, top]
            if np.count_nonzero(up := lead > 0):
                r = int(up.argmax())
                raise EvalError(
                    f"leading term {float(lead[r])!r}*t^{float(top[r] / root)!r} grows without bound:"
                    f" unbounded above on [{lo!r}, inf)"
                )
    m = n - 2  # the derivative's degree
    # the candidates: lo, hi (lo again on a half-line) and the derivative's m roots
    t = np.empty((k, 2 + max(m, 0)))
    t[:, 0] = lo
    t[:, 1] = hi if bounded else lo
    if m >= 1:
        wlo, whi = (lo, hi) if root == 1 else (lo ** (1.0 / root), hi ** (1.0 / root))
        # the top coefficient reads as zero where some |d[j] / d[m]| * |w|^(j - m),
        # |w| where it is largest, is at least 1 / _NEGLIGIBLE: where the companion
        # row's entry i reaches |w|^(i + 1) / _NEGLIGIBLE (any finite value on a half-line)
        degrees = np.arange(1.0, n)
        with np.errstate(all="ignore"):  # a non-finite quotient or power is handled below
            limit = max(1.0, abs(wlo), abs(whi)) ** degrees[:m] / _NEGLIGIBLE if bounded else math.inf
            d = c[:, 1:] * degrees
            while True:
                # the companion matrix's first row: the lower coefficients over the top one
                first = -d[:, -2::-1] / d[:, -1:]
                small = np.abs(first) < limit  # false where NaN
                if np.count_nonzero(small) == small.size:
                    break
                bad = ~small.all(axis=1)
                d[bad, 1:] = d[bad, :-1]
                d[bad, 0] = 0.0
                d[bad & ~d.any(axis=1), -1] = 1.0  # a row of zeros: w^m, whose roots are 0
            if m == 1:
                w = first
            elif m <= 3:  # per row: a numpy call on a few values costs as much as a loop over them
                roots: list[float] = []
                for row in first.tolist():
                    roots += _real_parts(row)
                w = np.array(roots).reshape(k, m)
            else:
                companion = np.zeros((k, m, m))
                companion[:, 0] = first
                companion[:, np.arange(1, m), np.arange(m - 1)] = 1.0
                w = np.linalg.eigvals(companion).real
            if root > 1:  # w = t^(1/root) on [wlo, whi], lo >= 0
                w = np.minimum(np.maximum(w, wlo), whi) ** root
        t[:, 2:] = w
    # the roots into the window, also where a power of w rounds out of it
    np.minimum(t, hi, out=t)
    np.maximum(t, lo, out=t)
    t.sort(axis=1)  # argmax then takes the smallest of tied candidates
    vals = _values(f, t, lo, hi)
    best = vals.argmax(axis=1)
    return t[rows, best], vals[rows, best]
