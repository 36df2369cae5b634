"""Intervals, budgets, and the one-dimensional maximizer."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitnash.kernel import Interval, SearchBudget, maximize_1d


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
        f = lambda t: math.sqrt(2.0 * t) - 0.5 * t
        x, v = maximize_1d(f, Interval(0.0), SearchBudget())
        assert x == pytest.approx(2.0, abs=1e-5)
        assert v == pytest.approx(1.0, abs=1e-8)

    @given(st.floats(min_value=0.5, max_value=9.5))
    @settings(max_examples=30, deadline=None)
    def test_recovers_random_quadratic_peak(self, peak):
        x, _ = maximize_1d(lambda t: -((t - peak) ** 2), Interval(0.0, 10.0), SearchBudget())
        assert x == pytest.approx(peak, abs=1e-5)

