"""Intervals, budgets, and the one-dimensional maximizer."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitnash import kernel
from splitnash.kernel import EvalError, Interval, SearchBudget, maximize_1d, maximize_polynomial


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

    def test_rejects_a_nan_upper_bound(self):
        # [0, nan] would be neither bounded nor contain any point
        with pytest.raises(ValueError, match=r"^empty interval \[0.0, nan\]$"):
            Interval(0, math.nan)

    def test_contains_and_slack(self):
        iv = Interval(0.0, 1.0)
        assert iv.contains(0.0) and iv.contains(1.0)
        assert not iv.contains(1.0 + 1e-9)
        assert iv.contains(1.0 + 1e-9, slack=1e-8)

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("iv", [Interval(0.0), Interval(0.0, 1.0)])
    def test_contains_no_non_finite_point(self, iv, x):
        assert not iv.contains(x) and not iv.contains(x, slack=1e300)

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

    def test_range_over_grid_step_past_float_range_scans_the_capped_grid(self):
        # (hi - lo) / grid_step is inf: the scan keeps _MAX_SCAN_CELLS cells
        points = []

        def f(t):
            points.append(t.shape[1])
            return -t

        x, v = maximize_1d(f, Interval(0.0), SearchBudget(truncation_cap=1e308))
        assert (x.tolist(), v.tolist()) == ([0.0], [-0.0])
        assert kernel._MAX_SCAN_CELLS + 1 in points

    @pytest.mark.parametrize("lo, shown", [(0.0, "0.0"), (-3.5, "-3.5"), (1e300, "1e+300")])
    def test_a_value_increasing_until_the_cap_overflows_is_unbounded_above(self, lo, shown):
        with pytest.raises(EvalError) as caught:
            maximize_1d(lambda t: t, Interval(lo), SearchBudget())
        assert str(caught.value) == (
            f"value still increasing as the cap overflows: unbounded above on [{shown}, inf)"
        )

    def test_a_value_overflowing_to_inf_while_the_cap_grows_is_unbounded_above(self):
        # t*t is inf from about 1.3e154 on, long before the cap overflows
        with pytest.raises(EvalError) as caught, np.errstate(over="ignore"):
            maximize_1d(lambda t: t * t, Interval(0.0), SearchBudget())
        assert str(caught.value) == (
            "value still increasing as the cap overflows: unbounded above on [0.0, inf)"
        )

    @pytest.mark.parametrize("bad, shown", [(np.nan, "nan"), (-np.inf, "-inf")])
    def test_nan_or_minus_inf_while_the_cap_grows_stays_non_finite(self, bad, shown):
        # the cap doubles from 1e3 to 1000 * 2^24 before a probe passes 1e10;
        # the window named is the one the cap has grown to
        f = lambda t: np.where(t > 1e10, bad, t)
        with pytest.raises(EvalError) as caught:
            maximize_1d(f, Interval(0.0), SearchBudget())
        assert str(caught.value) == (
            f"non-finite value {shown} at 16777216000.0 on [0.0, 16777216000.0]"
        )

    @pytest.mark.parametrize("cap", [1e-300, 1e-3, 1.0])
    def test_no_cap_stops_the_expansion_short_of_the_peak(self, cap):
        # 1e-300 doubles more than 1,000 times before it passes the peak
        f = lambda t: -(t - 5000.0) * (t - 5000.0)
        (x,), _ = maximize_1d(f, Interval(0.0), SearchBudget(truncation_cap=cap))
        assert x == pytest.approx(5000.0, abs=1e-6)

    def test_a_window_past_the_largest_float_ends_at_it(self):
        # 1e308 + 1e308 overflows: the window is [1e308, largest float]
        f = lambda t: -t
        (x,), (v,) = maximize_1d(f, Interval(1e308), SearchBudget(truncation_cap=1e308))
        assert (x, v) == (1e308, -1e308)

    def test_a_cap_below_the_spacing_of_floats_at_lo_still_grows(self):
        # 1e20 + 1e3 is 1e20, so doubling the cap alone would never move it
        peak = 1.00000000001e20
        (x,), _ = maximize_1d(lambda t: -(t - peak) * (t - peak), Interval(1e20), SearchBudget())
        assert abs(x - peak) <= 4 * math.ulp(peak)

    def test_first_non_finite_grid_value_raises(self):
        f = lambda t: np.where(t > 2.505, np.inf, t)
        with pytest.raises(EvalError, match=r"^non-finite value inf at 2\.51000"):
            maximize_1d(f, Interval(0.0, 10.0), SearchBudget())

    def test_non_finite_value_inside_a_zoom_bracket_raises(self):
        # the scan grid (step 0.01) misses the pole; the first rescan of
        # [2.99, 3.01] (step 7.8e-5) hits it
        f = lambda t: np.where(np.abs(t - 3.003) < 1e-4, np.nan, -(t - 3.0) * (t - 3.0))
        with pytest.raises(EvalError, match=r"^non-finite value nan at 3\.00296\d* on \[0\.0, 10\.0\]$"):
            maximize_1d(f, Interval(0.0, 10.0), SearchBudget())

    @pytest.mark.parametrize("peak", [1e6, 5e6])
    def test_refinement_stops_at_float_resolution(self, peak):
        # a 1e-10 bracket is narrower than the float spacing here (1.2e-10 at
        # 1e6), so refinement ends when a rescan stops narrowing the bracket
        calls = []

        def f(t):
            calls.append(np.size(t))
            return -(t - peak) * (t - peak)

        iv, budget = Interval(0.0, 3.0 * peak), SearchBudget()
        x, v = scalar_result(maximize_1d(f, iv, budget))
        assert len(calls) < 60
        assert (x, v) == reference_maximize_1d(f, iv, budget)
        assert abs(x - peak) <= 2 * np.spacing(peak) and v == 0.0

    def test_rows_keep_their_own_maximizers(self):
        # the row peaked below the interval ends at its boundary, with a
        # half-width bracket, before the interior rows
        peaks = np.array([[-1.0], [1.0], [4.25], [9.5]])
        xs, vs = maximize_1d(lambda t: -(t - peaks) * (t - peaks), Interval(0.0, 10.0),
                             SearchBudget(), k=4)
        assert xs.shape == vs.shape == (4,)
        assert xs == pytest.approx([0.0, 1.0, 4.25, 9.5], abs=1e-9)
        assert vs == pytest.approx([-1.0, 0.0, 0.0, 0.0], abs=1e-18)

    @pytest.mark.parametrize(
        "hi, step",
        [
            # cells of 1e-3: the boundary bracket [0, 1e-3] gets under 1e-10
            # after 3 rescans, the interior bracket of 2e-3 after 4
            (1.0, 1e-3),
            # cells of 7.5e-11: the boundary bracket is finished by the scan,
            # the interior one needs a rescan
            (1.5e-7, 1e-12),
        ],
    )
    def test_a_finished_row_is_evaluated_at_no_new_point(self, hi, step):
        # row 0 peaks below the interval and finishes first; it must see only
        # points its own k = 1 call sees, so that an f that raises at some
        # other point (a fractional power, say) cannot fail the shared call
        def recorder(peaks, seen):
            def f(t):
                seen.update(t[0].tolist())
                return -(t - peaks) * (t - peaks)

            return f

        iv, budget = Interval(0.0, hi), SearchBudget(grid_step=step)
        alone, shared = set(), set()
        maximize_1d(recorder(np.array([[-1.0]]), alone), iv, budget)
        maximize_1d(recorder(np.array([[-1.0], [0.425 * hi]]), shared), iv, budget, k=2)
        assert shared <= alone

    def test_the_scan_reaches_f_once_as_one_shared_row(self):
        shapes = []
        peaks = np.arange(1.0, 6.0)[:, None]

        def f(t):
            shapes.append(t.shape)
            return -(t - peaks) * (t - peaks)

        maximize_1d(f, Interval(0.0, 20.0), SearchBudget(), k=5)  # 2,000 cells
        assert shapes[0] == (1, 2001)
        assert shapes[1:] and set(shapes[1:]) == {(5, kernel._ZOOM_POINTS)}

    def test_a_non_finite_value_in_one_row_of_the_shared_scan_names_its_point(self):
        # the scan's points arrive as one row, its values as three: the error
        # reads row 2's value at the column's one point
        bad = np.array([[False], [False], [True]])
        f = lambda t: np.where(bad & (t > 2.505), np.nan, -t)
        with pytest.raises(EvalError) as caught:
            maximize_1d(f, Interval(0.0, 10.0), SearchBudget(), k=3)
        assert str(caught.value) == "non-finite value nan at 2.5100000000000002 on [0.0, 10.0]"

    def test_a_row_free_objective_gives_every_row_the_one_row_result(self):
        # the scan and the cap probes get one (1, P) row of values back for
        # all four rows; the peak at 6.25e6 makes the cap double many times
        f = lambda t: np.sqrt(t) - t / 5000.0
        iv, budget = Interval(0.0), SearchBudget()
        xs, vs = maximize_1d(f, iv, budget, k=4)
        (x,), (v,) = maximize_1d(f, iv, budget)
        assert xs.tobytes() == np.full(4, x).tobytes()
        assert vs.tobytes() == np.full(4, v).tobytes()

    @pytest.mark.parametrize("k", [0, -1])
    def test_rejects_no_rows(self, k):
        with pytest.raises(ValueError, match="k must be"):
            maximize_1d(lambda t: t, Interval(0.0, 1.0), SearchBudget(), k=k)

    @pytest.mark.parametrize("k", [1, 5])
    @pytest.mark.parametrize("a", [0.0, 2.5, -7.125, 1e20])
    def test_a_degenerate_interval_is_evaluated_only_at_its_point(self, a, k):
        seen = set()
        slopes = np.arange(1.0, k + 1.0)[:, None]

        def f(t):
            seen.update(t.ravel().tolist())
            return slopes * t - 1.0

        xs, vs = maximize_1d(f, Interval(a, a), SearchBudget(), k=k)
        assert seen == {a}
        assert xs.tolist() == [a] * k
        assert vs.tolist() == (slopes[:, 0] * a - 1.0).tolist()

    def test_a_scalar_value_fills_every_row(self):
        xs, vs = maximize_1d(lambda t: 3.0, Interval(1.0, 2.0), SearchBudget(), k=4)
        assert xs.tolist() == [1.0] * 4 and vs.tolist() == [3.0] * 4


def reference_maximize_1d(f, interval, budget):
    """maximize_1d for one function, point by point: the scan and the zoomed
    rescans that maximize_1d vectorises, kept as its reference."""

    def value(t):
        v = float(f(t))
        if not math.isfinite(v):
            raise EvalError(f"non-finite value {v!r} at {t!r}")
        return v

    def first_max(vals):
        best = 0
        for i in range(1, len(vals)):
            if vals[i] > vals[best]:
                best = i
        return best

    lo, hi = interval.lo, interval.hi
    if not interval.bounded:
        hi = min(lo + budget.truncation_cap, np.finfo(float).max)
        while True:
            probe = max(1e-8, 1e-6 * max(1.0, abs(hi)))
            if value(hi) <= value(hi - probe):
                break
            hi = max(lo + 2.0 * (hi - lo), math.nextafter(hi, math.inf))
            if hi == math.inf:
                raise EvalError("unbounded above")
    if hi <= lo:
        return lo, value(np.float64(lo))
    cells = min(kernel._MAX_SCAN_CELLS, max(1, int(math.ceil((hi - lo) / budget.grid_step))))
    xs = np.linspace(lo, hi, cells + 1)
    vs = [value(t) for t in xs]
    best = first_max(vs)
    x, v = xs[best], vs[best]
    a, b = xs[max(0, best - 1)], xs[min(cells, best + 1)]
    goal = max(1e-12, budget.tolerance * 1e-4)
    while b - a > goal:
        pts = np.linspace(a, b, kernel._ZOOM_POINTS)
        vals = [value(t) for t in pts]
        j = first_max(vals)
        if vals[j] > v:
            x, v = pts[j], vals[j]
        na, nb = pts[max(0, j - 1)], pts[min(len(pts) - 1, j + 1)]
        if not nb - na < b - a:
            break  # float resolution: the rescan no longer narrows the bracket
        a, b = na, nb
    return float(x), v


def scalar_result(result):
    (x,), (v,) = result
    return float(x), float(v)


# + - * only: they round the same in scalar and array code, where numpy's
# array ** may differ from libm pow by one ulp
def bump(peak, curvature, tilt):
    return lambda t: tilt * t - curvature * (t - peak) * (t - peak)


BOUNDED_BUMPS = {
    "lo": st.floats(-50.0, 50.0),
    "width": st.floats(0.0, 3000.0),
    "peak": st.floats(-100.0, 3000.0),
    "curvature": st.floats(0.0, 10.0),
    "tilt": st.floats(-1.0, 1.0),
    "step": st.sampled_from([1e-3, 1e-2, 0.16, 1.0]),
}
HALF_LINE_BUMPS = {
    "lo": st.floats(-50.0, 50.0),
    "peak": st.floats(-100.0, 5000.0),
    "curvature": st.floats(1e-3, 10.0),
    "cap": st.sampled_from([8.0, 1e3]),
}


class TestMaximize1dMatchesPointwiseScan:
    @given(**BOUNDED_BUMPS)
    @settings(max_examples=60, deadline=None)
    def test_bounded(self, lo, width, peak, curvature, tilt, step):
        f = bump(peak, curvature, tilt)
        iv, budget = Interval(lo, lo + width), SearchBudget(grid_step=step)
        assert scalar_result(maximize_1d(f, iv, budget)) == reference_maximize_1d(f, iv, budget)

    @given(**HALF_LINE_BUMPS)
    @settings(max_examples=60, deadline=None)
    def test_half_line(self, lo, peak, curvature, cap):
        f = bump(peak, curvature, 0.0)
        iv, budget = Interval(lo), SearchBudget(truncation_cap=cap)
        assert scalar_result(maximize_1d(f, iv, budget)) == reference_maximize_1d(f, iv, budget)


class TestMaximize1dReadsNoIterationCount:
    # max_iterations caps solve_nash alone: no value of it stops a search early
    @staticmethod
    def same_at_1_and_500(f, iv, budget):
        one, many = (maximize_1d(f, iv, replace(budget, max_iterations=n)) for n in (1, 500))
        assert scalar_result(one) == scalar_result(many)

    @given(**BOUNDED_BUMPS)
    @settings(max_examples=60, deadline=None)
    def test_bounded(self, lo, width, peak, curvature, tilt, step):
        iv = Interval(lo, lo + width)
        self.same_at_1_and_500(bump(peak, curvature, tilt), iv, SearchBudget(grid_step=step))

    @given(**HALF_LINE_BUMPS)
    @settings(max_examples=60, deadline=None)
    def test_half_line(self, lo, peak, curvature, cap):
        iv = Interval(lo)
        self.same_at_1_and_500(bump(peak, curvature, 0.0), iv, SearchBudget(truncation_cap=cap))


class TestRowsMatchOneRowCalls:
    # row r of a k-row call must equal the k = 1 call on row r's function, bit
    # for bit; the bumps use + - * only, as above
    @staticmethod
    def bumps(peak, curvature, tilt):
        p, c, m = (np.array(a, dtype=float)[:, None] for a in (peak, curvature, tilt))
        return lambda t: m * t - c * (t - p) * (t - p)

    @given(
        lo=st.floats(-50.0, 50.0),
        width=st.floats(0.0, 3000.0),
        rows=st.lists(
            st.tuples(st.floats(-100.0, 3000.0), st.floats(0.0, 10.0), st.floats(-1.0, 1.0)),
            min_size=1,
            max_size=40,
        ),
        step=st.sampled_from([1e-3, 1e-2, 0.16, 1.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_bounded(self, lo, width, rows, step):
        iv, budget = Interval(lo, lo + width), SearchBudget(grid_step=step)
        xs, vs = maximize_1d(self.bumps(*zip(*rows)), iv, budget, k=len(rows))
        for r, row in enumerate(rows):
            (x,), (v,) = maximize_1d(self.bumps(*zip(row)), iv, budget)
            assert (xs[r], vs[r]) == (x, v)


def polynomial(c: np.ndarray, root: int = 1):
    """The function maximize_polynomial scores: row r of c at (k, P) points t."""
    c = np.atleast_2d(np.asarray(c, dtype=float))

    def f(t):
        w = t ** (1.0 / root)
        return sum(c[:, j:j + 1] * w**j for j in range(c.shape[1]))

    return c, f


class TestMaximizePolynomial:
    def test_an_interior_root_of_the_derivative(self):
        c, f = polynomial([[-9.0, 6.0, -1.0]])  # -(t - 3)^2
        assert maximize_polynomial(f, Interval(0.0, 10.0), c, 1) == ([3.0], [0.0])

    def test_a_square_root(self):
        # sqrt(t) - t/2 peaks at t = 1 with value 1/2
        c, f = polynomial([[0.0, 1.0, -0.5]], root=2)
        assert maximize_polynomial(f, Interval(0.0, 4.0), c, 2) == ([1.0], [0.5])

    def test_ties_go_to_the_smaller_point(self):
        c, f = polynomial([[-1.0, 0.0, 2.0, 0.0, -1.0], [5.0, 0.0, 0.0, 0.0, 0.0]])  # -(t^2 - 1)^2, 5
        x, v = maximize_polynomial(f, Interval(-2.0, 2.0), c, 1)
        assert (x.tolist(), v.tolist()) == ([-1.0, -2.0], [0.0, 5.0])

    def test_a_negligible_top_coefficient_adds_no_far_root(self):
        # t^2 - t^3 peaks at 2/3 on [0, 1]; a top term that weighs 1e-196 there
        # would put a root near 1e196 in a companion matrix it spoils
        for top in (6.55e-197, 5e-324, 0.0):
            c, f = polynomial([[0.0, 0.0, 1.0, -1.0, top]])
            (x,), (v,) = maximize_polynomial(f, Interval(0.0, 1.0), c, 1)
            assert x == pytest.approx(2.0 / 3.0, rel=1e-12) and v == pytest.approx(4.0 / 27.0, rel=1e-15)

    def test_rows_match_one_row_calls(self):
        rng = np.random.default_rng(5)
        c = rng.uniform(-3.0, 3.0, (8, 5))
        c[2, 4] = c[5, 3:] = c[6] = 0.0  # lower degrees, and a constant zero
        c, f = polynomial(c)
        x, v = maximize_polynomial(f, Interval(-2.0, 3.0), c, 1)
        for r in range(8):
            cr, fr = polynomial(c[r:r + 1])
            xr, vr = maximize_polynomial(fr, Interval(-2.0, 3.0), cr, 1)
            assert (xr.tobytes(), vr.tobytes()) == (x[r:r + 1].tobytes(), v[r:r + 1].tobytes())
        _, scan = maximize_1d(f, Interval(-2.0, 3.0), SearchBudget(), k=8)
        assert (v >= scan - 1e-12 * np.abs(c).sum(axis=1) * 3.0**4).all()

    def test_a_non_finite_value_names_its_point_and_window(self):
        c, f = polynomial([[0.0, 4.0, -1.0]])  # peaks at t = 2
        with pytest.raises(EvalError, match=r"^non-finite value nan at 2\.0 on \[0\.0, 5\.0\]$"):
            maximize_polynomial(lambda t: np.where(t == 2.0, np.nan, f(t)), Interval(0.0, 5.0), c, 1)

    def test_a_half_line_reads_its_leading_coefficient(self):
        c, f = polynomial([[0.0, 4.0, -1.0], [1.0, 0.0, 0.0]])
        x, v = maximize_polynomial(f, Interval(0.0), c, 1, np.abs(c))
        assert (x.tolist(), v.tolist()) == ([2.0, 0.0], [4.0, 1.0])
        # a tiny leading coefficient is growth all the same, on any row
        c, f = polynomial([[0.0, 4.0, -1.0, 0.0], [0.0, -1.0, 0.0, 1e-300]])
        with pytest.raises(EvalError) as caught:
            maximize_polynomial(f, Interval(-1.0), c, 1, np.abs(c))
        assert str(caught.value) == "leading term 1e-300*t^3.0 grows without bound: unbounded above on [-1.0, inf)"

    def test_on_a_half_line_a_coefficient_within_rounding_of_its_terms_is_zero(self):
        # 0.1 + 0.2 - 0.3 is 5.6e-17, from terms of magnitude 0.6
        top = 0.1 + 0.2 - 0.3
        c = np.array([[0.0, -1.0, top]])
        f = lambda t: top * t * t - t
        assert maximize_polynomial(f, Interval(0.0), c, 1, np.array([[0.0, 1.0, 0.6]])) == ([0.0], [0.0])
        with pytest.raises(EvalError, match="unbounded above"):
            maximize_polynomial(f, Interval(0.0), c, 1, np.array([[0.0, 1.0, 1e-6]]))
