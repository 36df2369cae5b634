"""Intervals, budgets, and the one-dimensional maximizer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitnash import kernel
from splitnash.kernel import EvaluatorError, Interval, SearchBudget, maximize_1d


class TestInterval:
    def test_coerces_int_bounds_to_float(self):
        iv = Interval(0, 3)
        assert isinstance(iv.lo, float) and isinstance(iv.hi, float)

    def test_half_line_default(self):
        iv = Interval(0.0)
        assert iv.hi == math.inf and not iv.bounded

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)

    def test_rejects_infinite_lower_bound(self):
        with pytest.raises(ValueError):
            Interval(-math.inf, 0.0)

    def test_contains_and_slack(self):
        iv = Interval(0.0, 1.0)
        assert iv.contains(0.0) and iv.contains(1.0)
        assert not iv.contains(1.0 + 1e-9)
        assert iv.contains(1.0 + 1e-9, slack=1e-8)

    def test_truncated_caps_only_the_infinite_end(self):
        assert Interval(0.0).truncated(8.0) == Interval(0.0, 8.0)
        assert Interval(0.0, 2.0).truncated(8.0) == Interval(0.0, 2.0)


class TestSearchBudget:
    def test_defaults(self):
        bud = SearchBudget()
        assert bud.tolerance == 1e-6 and bud.grid_step == 1e-2
        assert bud.truncation_cap == 1e3 and bud.seed == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            SearchBudget(grid_step=0.0)
        with pytest.raises(ValueError):
            SearchBudget(tolerance=-1.0)
        with pytest.raises(ValueError):
            SearchBudget(seed=-1)
        for field in ("grid_step", "truncation_cap", "tolerance"):
            for bad in (math.nan, math.inf):
                with pytest.raises(ValueError):
                    SearchBudget(**{field: bad})


class TestMaximize1d:
    def test_concave_interior_max(self):
        x, v = maximize_1d(lambda t: -((t - 3.0) ** 2), Interval(0.0, 10.0), SearchBudget())
        assert x == pytest.approx(3.0, abs=1e-6)
        assert v == pytest.approx(0.0, abs=1e-10)

    def test_boundary_max(self):
        x, v = maximize_1d(lambda t: t, Interval(0.0, 2.0), SearchBudget())
        assert x == pytest.approx(2.0, abs=1e-6) and v == pytest.approx(2.0, abs=1e-6)

    def test_half_line_with_bracket_expansion(self):
        # sqrt(2t) - t/2 peaks at t = 2 with value 1
        f = lambda t: np.sqrt(2.0 * t) - 0.5 * t
        x, v = maximize_1d(f, Interval(0.0), SearchBudget())
        assert x == pytest.approx(2.0, abs=1e-5)
        assert v == pytest.approx(1.0, abs=1e-8)

    @given(st.floats(min_value=0.5, max_value=9.5))
    @settings(max_examples=30, deadline=None)
    def test_recovers_random_quadratic_peak(self, peak):
        x, _ = maximize_1d(lambda t: -((t - peak) ** 2), Interval(0.0, 10.0), SearchBudget())
        assert x == pytest.approx(peak, abs=1e-5)

    def test_scans_the_grid_in_one_call(self):
        points = []

        def f(t):
            points.append(np.size(t))
            return -(t - 7.3) * (t - 7.3)

        maximize_1d(f, Interval(0.0, 20.0), SearchBudget())  # 2,000 cells
        assert points.count(2001) == 1
        assert len(points) < 100

    def test_first_non_finite_grid_value_raises(self):
        f = lambda t: np.where(t > 2.505, np.inf, t)
        with pytest.raises(EvaluatorError, match=r"inf at np.float64\(2.51"):
            maximize_1d(f, Interval(0.0, 10.0), SearchBudget())


def reference_maximize_1d(f, interval, budget):
    """The point-by-point scan that maximize_1d vectorises, kept as its reference."""
    lo = interval.lo
    if interval.bounded:
        hi = interval.hi
    else:
        hi = kernel._expand_cap(f, lo, budget.truncation_cap, budget)
    if hi <= lo:
        return lo, kernel._checked(f, lo)
    cells = min(kernel._MAX_SCAN_CELLS, max(1, int(math.ceil((hi - lo) / budget.grid_step))))
    xs = np.linspace(lo, hi, cells + 1)
    best_i, best_v = 0, kernel._checked(f, xs[0])
    for i in range(1, len(xs)):
        v = kernel._checked(f, xs[i])
        if v > best_v:
            best_i, best_v = i, v
    a = xs[max(0, best_i - 1)]
    b = xs[min(len(xs) - 1, best_i + 1)]
    gx, gv = kernel._golden_section(f, a, b, budget)
    if gv > best_v or (gv == best_v and gx < xs[best_i]):
        return gx, gv
    return float(xs[best_i]), best_v


class TestMaximize1dMatchesPointwiseScan:
    # + - * only: they round the same in scalar and array code, where numpy's
    # array ** may differ from libm pow by one ulp
    @staticmethod
    def bump(peak, curvature, tilt):
        return lambda t: tilt * t - curvature * (t - peak) * (t - peak)

    @given(
        lo=st.floats(-50.0, 50.0),
        width=st.floats(0.0, 3000.0),
        peak=st.floats(-100.0, 3000.0),
        curvature=st.floats(0.0, 10.0),
        tilt=st.floats(-1.0, 1.0),
        step=st.sampled_from([1e-3, 1e-2, 0.16, 1.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_bounded(self, lo, width, peak, curvature, tilt, step):
        f = self.bump(peak, curvature, tilt)
        iv, budget = Interval(lo, lo + width), SearchBudget(grid_step=step)
        assert maximize_1d(f, iv, budget) == reference_maximize_1d(f, iv, budget)

    @given(
        lo=st.floats(-50.0, 50.0),
        peak=st.floats(-100.0, 5000.0),
        curvature=st.floats(1e-3, 10.0),
        cap=st.sampled_from([8.0, 1e3]),
    )
    @settings(max_examples=60, deadline=None)
    def test_half_line(self, lo, peak, curvature, cap):
        f = self.bump(peak, curvature, 0.0)
        iv, budget = Interval(lo), SearchBudget(truncation_cap=cap)
        assert maximize_1d(f, iv, budget) == reference_maximize_1d(f, iv, budget)
