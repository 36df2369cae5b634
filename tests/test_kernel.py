"""Intervals, budgets, and the one-dimensional maximizer."""

import itertools
import math
import re

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

    def test_truncated_ends_at_the_largest_float(self):
        # 1e308 + 1.7e308 overflows to inf: the window ends at the largest float
        big = np.finfo(float).max
        assert Interval(1e308).truncated(1.7e308) == Interval(1e308, big)
        # the lowest half-line accepted, whose lo + cap is a float
        assert Interval(-9.9e291).truncated(1.7e308) == Interval(-9.9e291, -9.9e291 + 1.7e308)

    @pytest.mark.parametrize("hi", [1.7e308, math.inf])
    def test_a_window_wider_than_the_largest_float_is_rejected(self, hi):
        # hi - lo overflows; a half-line's width counts up to the largest float
        message = f"interval [-1e+308, {hi}] is wider than the largest float"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Interval(-1e308, hi)

    def test_a_half_line_is_as_wide_as_the_largest_float_allows(self):
        # the largest float minus lo rounds to inf from lo = -2^970 (about -9.98e291) down
        assert not Interval(-9.9e291).bounded
        with pytest.raises(ValueError, match="wider than the largest float"):
            Interval(-1e292)
        with pytest.raises(ValueError, match="wider than the largest float"):
            Interval(-1.7e308)


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
            # a bool compares as 0 or 1, but it is no step, cap or tolerance
            for bad in (math.nan, math.inf, True, np.True_):
                with pytest.raises(ValueError, match="^budget fields must be finite and strictly positive$"):
                    SearchBudget(**{field: bad})

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("max_iterations", 2.5),
            ("seed", 1.5),
            ("max_iterations", np.float64(3.0)),
            ("seed", None),
            # operator.index takes a bool as 0 or 1
            ("max_iterations", True),
            ("seed", True),
            ("seed", False),
            pytest.param("seed", np.True_, id="seed-numpy-True"),
        ],
    )
    def test_a_count_or_seed_that_is_no_integer_is_rejected_by_name(self, field, bad):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {re.escape(repr(bad))}$"):
            SearchBudget(**{field: bad})

    def test_numpy_integers_are_integers(self):
        bud = SearchBudget(max_iterations=np.int64(3), seed=np.uint32(7))
        assert (bud.max_iterations, bud.seed) == (3, 7)
        with pytest.raises(ValueError, match="^max_iterations must be at least 1, got "):
            SearchBudget(max_iterations=np.int64(0))


class TestMaximize1d:
    def test_concave_interior_max(self):
        x, v = maximize_1d(lambda t: -((t - 3.0) ** 2), Interval(0.0, 10.0))
        assert x == pytest.approx(3.0, abs=1e-6)
        assert v == pytest.approx(0.0, abs=1e-10)

    def test_boundary_max(self):
        x, v = maximize_1d(lambda t: t, Interval(0.0, 2.0))
        assert x == pytest.approx(2.0, abs=1e-6) and v == pytest.approx(2.0, abs=1e-6)

    def test_half_line_with_bracket_expansion(self):
        # sqrt(2t) - t/2 peaks at t = 2 with value 1
        f = lambda t: np.sqrt(2.0 * t) - 0.5 * t
        x, v = maximize_1d(f, Interval(0.0))
        assert x == pytest.approx(2.0, abs=1e-5)
        assert v == pytest.approx(1.0, abs=1e-8)

    @given(st.floats(min_value=0.5, max_value=9.5))
    @settings(max_examples=30, deadline=None)
    def test_recovers_random_quadratic_peak(self, peak):
        x, _ = maximize_1d(lambda t: -((t - peak) ** 2), Interval(0.0, 10.0))
        assert x == pytest.approx(peak, abs=1e-5)

    def test_scans_the_grid_in_one_call(self):
        points = []

        def f(t):
            points.append(np.size(t))
            return -(t - 7.3) * (t - 7.3)

        maximize_1d(f, Interval(0.0, 20.0))  # 2,000 cells
        assert points.count(2001) == 1
        assert len(points) < 100

    def test_range_over_the_cell_width_past_float_range_scans_the_capped_grid(self):
        # (hi - lo) / _SCAN_STEP is inf: the scan keeps _MAX_SCAN_CELLS cells
        points = []

        def f(t):
            points.append(t.shape[1])
            return -t

        assert maximize_1d(f, Interval(0.0, 1e308)) == (0.0, -0.0)
        assert kernel._MAX_SCAN_CELLS + 1 in points

    @pytest.mark.parametrize("lo, shown", [(0.0, "0.0"), (-3.5, "-3.5"), (1e300, "1e+300")])
    def test_a_value_increasing_until_the_cap_overflows_is_unbounded_above(self, lo, shown):
        with pytest.raises(EvalError) as caught:
            maximize_1d(lambda t: t, Interval(lo))
        assert str(caught.value) == (
            f"value still increasing as the cap overflows: unbounded above on [{shown}, inf)"
        )

    def test_a_value_overflowing_to_inf_while_the_cap_grows_is_unbounded_above(self):
        # t*t is inf from about 1.3e154 on, long before the cap overflows
        with pytest.raises(EvalError) as caught, np.errstate(over="ignore"):
            maximize_1d(lambda t: t * t, Interval(0.0))
        assert str(caught.value) == (
            "value still increasing as the cap overflows: unbounded above on [0.0, inf)"
        )

    @pytest.mark.parametrize("bad, shown", [(np.nan, "nan"), (-np.inf, "-inf")])
    def test_nan_or_minus_inf_while_the_cap_grows_stays_non_finite(self, bad, shown):
        # the cap doubles from 1e3 to 1000 * 2^24 before a probe passes 1e10;
        # the window named is the one the cap has grown to
        f = lambda t: np.where(t > 1e10, bad, t)
        with pytest.raises(EvalError) as caught:
            maximize_1d(f, Interval(0.0))
        assert str(caught.value) == (
            f"non-finite value {shown} at 16777216000.0 on [0.0, 16777216000.0]"
        )

    @pytest.mark.parametrize("peak", [5000.0, 1e6, 1e12])
    def test_the_cap_doubles_until_it_passes_the_peak(self, peak):
        # the first cap of 1e3 doubles 3, 10 and 30 times
        f = lambda t: -(t - peak) * (t - peak)
        x, _ = maximize_1d(f, Interval(0.0))
        assert x == pytest.approx(peak, rel=1e-12)

    def test_a_window_from_the_largest_float_is_that_float(self):
        # the largest float plus the first cap rounds to the largest float
        big = np.finfo(float).max
        assert maximize_1d(lambda t: -t, Interval(big)) == (big, -big)

    def test_a_peak_past_the_last_finite_doubling_is_found_below_the_largest_float(self):
        # the cap's next doubling from 1e308 overflows short of the peak, so the
        # window ends at the largest float, which is probed once
        big = np.finfo(float).max
        x, _ = maximize_1d(lambda t: -abs(t - 1.5e308), Interval(1e308))
        assert abs(x - 1.5e308) <= (big - 1e308) / kernel._MAX_SCAN_CELLS

    def test_a_cap_below_the_spacing_of_floats_at_lo_still_grows(self):
        # 1e20 + 1e3 is 1e20, so doubling the cap alone would never move it
        peak = 1.00000000001e20
        x, _ = maximize_1d(lambda t: -(t - peak) * (t - peak), Interval(1e20))
        assert abs(x - peak) <= 4 * math.ulp(peak)

    def test_first_non_finite_grid_value_raises(self):
        f = lambda t: np.where(t > 2.505, np.inf, t)
        with pytest.raises(EvalError, match=r"^non-finite value inf at 2\.51000"):
            maximize_1d(f, Interval(0.0, 10.0))

    def test_non_finite_value_inside_a_zoom_bracket_raises(self):
        # the scan grid (step 0.01) misses the pole; the first rescan of
        # [2.99, 3.01] (step 7.8e-5) hits it
        f = lambda t: np.where(np.abs(t - 3.003) < 1e-4, np.nan, -(t - 3.0) * (t - 3.0))
        with pytest.raises(EvalError, match=r"^non-finite value nan at 3\.00296\d* on \[0\.0, 10\.0\]$"):
            maximize_1d(f, Interval(0.0, 10.0))

    @pytest.mark.parametrize("peak", [1e6, 5e6])
    def test_refinement_stops_at_float_resolution(self, peak):
        # a 1e-10 bracket is narrower than the float spacing here (1.2e-10 at
        # 1e6), so refinement ends when a rescan stops narrowing the bracket
        calls = []

        def f(t):
            calls.append(np.size(t))
            return -(t - peak) * (t - peak)

        iv = Interval(0.0, 3.0 * peak)
        x, v = maximize_1d(f, iv)
        assert len(calls) < 60
        assert (x, v) == reference_maximize_1d(f, iv)
        assert abs(x - peak) <= 2 * np.spacing(peak) and v == 0.0

    def test_each_pass_reaches_f_once_as_one_row(self):
        # the scan's 2,001 points, then each rescan's 257, in one call each
        shapes = []

        def f(t):
            shapes.append(t.shape)
            return -(t - 3.3) * (t - 3.3)

        maximize_1d(f, Interval(0.0, 20.0))  # 2,000 cells
        assert shapes[0] == (1, 2001)
        assert shapes[1:] and set(shapes[1:]) == {(1, kernel._ZOOM_POINTS)}

    @pytest.mark.parametrize(
        "f, interval",
        [
            (lambda t: -(t - 7.3) * (t - 7.3), Interval(0.0, 20.0)),
            (lambda t: t * np.sin(t), Interval(0.0, 50.0)),
            # the cap doubles from 1e3 to 8e3 before the scan
            (lambda t: -(t - 5000.0) * (t - 5000.0), Interval(0.0)),
            # a width of 1.79e308, just below the largest float
            (lambda t: -abs(t / 4 - 1e307), Interval(-1e308, 7.9e307)),
        ],
        ids=["bounded", "t*sin(t)", "half-line", "as-wide-as-a-float"],
    )
    def test_each_pass_is_np_linspace_of_the_last_bracket(self, f, interval):
        passes = []

        def g(t):
            passes.append(t[0].copy())
            return f(t)

        maximize_1d(g, interval)
        # on a half-line the scan follows the cap's two-point probes, the last at hi
        first = 0 if interval.bounded else next(i for i, p in enumerate(passes) if p.size != 2)
        lo, hi = interval.lo, interval.hi if interval.bounded else passes[first - 1][0]
        cells = max(1, math.ceil(min(kernel._MAX_SCAN_CELLS, (hi - lo) / kernel._SCAN_STEP)))
        want = np.linspace(lo, hi, cells + 1)
        assert passes[first].tobytes() == want.tobytes()
        assert len(passes) > first + 1
        for last, pts in zip(passes[first:], passes[first + 1:]):
            j = int(np.argmax(f(last[None, :])))
            a, b = last[max(j - 1, 0)], last[min(j + 1, last.size - 1)]
            assert pts.tobytes() == np.linspace(a, b, kernel._ZOOM_POINTS).tobytes()

    @pytest.mark.parametrize("a", [0.0, 2.5, -7.125, 1e20])
    def test_a_degenerate_interval_is_evaluated_only_at_its_point(self, a):
        seen = set()

        def f(t):
            seen.update(t.ravel().tolist())
            return 3.0 * t - 1.0

        assert maximize_1d(f, Interval(a, a)) == (a, 3.0 * a - 1.0)
        assert seen == {a}

    def test_a_scalar_value_ties_every_point_at_the_lower_bound(self):
        assert maximize_1d(lambda t: 3.0, Interval(1.0, 2.0)) == (1.0, 3.0)

    def test_returns_floats(self):
        x, v = maximize_1d(lambda t: -(t - 1.5) * (t - 1.5), Interval(0.0, 4.0))
        assert type(x) is float and type(v) is float


def reference_maximize_1d(f, interval):
    """maximize_1d for one function, point by point: the scan and the zoomed
    rescans that maximize_1d vectorises, at the kernel's resolution, kept as
    its reference."""

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
        hi = lo + kernel._FIRST_CAP
        while True:
            probe = max(1e-8, 1e-6 * max(1.0, abs(hi)))
            if value(hi) <= value(hi - probe):
                break
            hi = max(lo + 2.0 * (hi - lo), math.nextafter(hi, math.inf))
            if hi == math.inf:
                raise EvalError("unbounded above")
    if hi <= lo:
        return lo, value(np.float64(lo))
    cells = min(kernel._MAX_SCAN_CELLS, max(1, int(math.ceil((hi - lo) / kernel._SCAN_STEP))))
    xs = np.linspace(lo, hi, cells + 1)
    vs = [value(t) for t in xs]
    best = first_max(vs)
    x, v = xs[best], vs[best]
    a, b = xs[max(0, best - 1)], xs[min(cells, best + 1)]
    while b - a > kernel._ZOOM_GOAL:
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


# + - * only: they round the same in scalar and array code, where numpy's
# array ** may differ from libm pow by one ulp
def bump(peak, curvature, tilt):
    return lambda t: tilt * t - curvature * (t - peak) * (t - peak)


# windows of one cell (under 0.01 wide), of cells 0.01 wide (under 20 wide)
# and of 2,000 cells coarsened past 0.01
WIDTHS = st.one_of(st.floats(0.0, 0.05), st.floats(0.0, 20.0), st.floats(0.0, 3000.0))
BOUNDED_BUMPS = {
    "lo": st.floats(-50.0, 50.0),
    "width": WIDTHS,
    "peak": st.floats(-100.0, 3000.0),
    "curvature": st.floats(0.0, 10.0),
    "tilt": st.floats(-1.0, 1.0),
}


class TestMaximize1dMatchesPointwiseScan:
    @given(**BOUNDED_BUMPS)
    @settings(max_examples=60, deadline=None)
    def test_bounded(self, lo, width, peak, curvature, tilt):
        f = bump(peak, curvature, tilt)
        iv = Interval(lo, lo + width)
        assert maximize_1d(f, iv) == reference_maximize_1d(f, iv)

    # peaks up to 5000 keep the first cap of 1e3 or double it up to 3 times
    @given(lo=st.floats(-50.0, 50.0), peak=st.floats(-100.0, 5000.0), curvature=st.floats(1e-3, 10.0))
    @settings(max_examples=60, deadline=None)
    def test_half_line(self, lo, peak, curvature):
        f = bump(peak, curvature, 0.0)
        assert maximize_1d(f, Interval(lo)) == reference_maximize_1d(f, Interval(lo))


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
        scan = [maximize_1d(polynomial(c[r:r + 1])[1], Interval(-2.0, 3.0))[1] for r in range(8)]
        assert (v >= np.array(scan) - 1e-12 * np.abs(c).sum(axis=1) * 3.0**4).all()

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


def eigvals_real_parts(first) -> np.ndarray:
    """The path the closed form replaces: the sorted real parts of the
    eigenvalues of the companion matrix with first row `first`."""
    companion = np.eye(len(first), k=-1)
    companion[0] = first
    return np.sort(np.linalg.eigvals(companion).real)


def first_row(roots) -> list[float]:
    """The companion matrix's first row for the monic polynomial with these roots."""
    return (-np.poly(roots)[1:].real).tolist()


def relative_gap(got, reference) -> float:
    got, reference = np.sort(got), np.asarray(reference)
    return float(np.max(np.abs(got - reference) / np.maximum(1.0, np.abs(reference))))


class TestClosedFormRoots:
    @pytest.mark.parametrize("m", [2, 3])
    def test_seeded_roots_match_eigvals(self, m):
        # roots at scales 1e-3 to 1e3, real or a complex pair, at least a
        # tenth of the scale apart, where eigvals itself is accurate
        rng = np.random.default_rng(20 + m)
        for _ in range(500):
            scale = 10.0 ** rng.uniform(-3.0, 3.0)
            real = scale * (np.cumsum(rng.uniform(0.1, 1.0, m)) - rng.uniform(0.0, m))
            if rng.random() < 0.5:
                pair = scale * complex(rng.uniform(-1.0, 1.0), rng.uniform(0.1, 1.0))
                roots = [*real[:m - 2], pair, pair.conjugate()]
            else:
                roots = list(real)
            first = first_row(roots)
            assert relative_gap(kernel._real_parts(first), eigvals_real_parts(first)) <= 1e-12

    @pytest.mark.parametrize("m", [2, 3])
    def test_pure_powers(self, m):
        # w^m = c, the shape of E1's b and E2's e for m = 3: the real root
        # c^(1/3) and a complex pair whose real part is half its negative
        rng = np.random.default_rng(7)
        for c in np.concatenate([10.0 ** rng.uniform(-9.0, 9.0, 200), [576.0 * 12.0]]):
            for value in (c, -c):
                first = [0.0] * (m - 1) + [value]
                got = kernel._real_parts(first)
                assert relative_gap(got, eigvals_real_parts(first)) <= 1e-12
                if m == 3:
                    root = math.copysign(abs(value) ** (1.0 / 3.0), value)
                    assert relative_gap(got, sorted([root, -root / 2, -root / 2])) <= 1e-15

    def test_multiple_roots(self):
        # double and triple roots of exactly representable coefficients, at
        # scales 2^-10 to 2^10: a double root is fixed only to about sqrt of
        # the float epsilon, and eigvals misses a triple one by about 1e-5
        for k in range(-10, 11, 5):
            for roots in ([1, 1], [-3, -3], [0, 0], [1, 1, 1], [-2, -2, -2], [0, 0, 0],
                          [1, 1, 2], [-4, -1, -1], [-1, -1, -3], [0, 0, 3], [2, 2, -4]):
                exact = np.sort(np.array(roots, dtype=float) * 2.0**k)
                first = first_row(exact)
                got = relative_gap(kernel._real_parts(first), exact)
                assert got <= max(relative_gap(eigvals_real_parts(first), exact) + 1e-12, 1e-7)

    def test_near_triple_roots(self):
        # three roots within 1e-7 of each other, fixed by their rounded
        # coefficients only to about the cube root of the float epsilon: a
        # Newton step where the slope is rounding noise must not be taken
        for r in (1e-3, 0.1, 1.0 / 3.0, 1.1, 3.3, 123.456):
            for roots in itertools.permutations([r * (1.0 - 1e-7), r, r * (1.0 + 1e-7)]):
                assert relative_gap(kernel._real_parts(first_row(roots)), sorted(roots)) <= 1e-4

    def test_three_real_roots_of_a_quartic(self):
        # -(x^4) + 2x^2: its derivative -4x^3 + 4x vanishes at -1, 0 and 1
        assert sorted(kernel._real_parts([0.0, 1.0, 0.0])) == [-1.0, 0.0, 1.0]

    def test_coefficients_whose_cubes_overflow_are_scaled(self):
        for first in ([1e300, 0.0, 0.0], [0.0, 0.0, -1e300], [0.0, -1e300, 0.0], [1e200, -1e300]):
            got = kernel._real_parts(first)
            assert all(map(math.isfinite, got))
            assert relative_gap(got, eigvals_real_parts(first)) <= 1e-12

    @pytest.mark.parametrize("bounded", [True, False])
    def test_maximize_polynomial_scores_no_worse_than_the_eigvals_path(self, monkeypatch, bounded):
        # the same maximization with the closed form swapped for eigvals:
        # quadratic and cubic derivatives at scales 1e-3 to 1e3, with rows
        # whose top coefficient is negligible, or zero, and so is dropped
        rng = np.random.default_rng(3 + bounded)
        for n in (4, 5):
            scale = 10.0 ** rng.uniform(-3.0, 3.0, (40, 1))  # of the roots
            c = rng.uniform(-1.0, 1.0, (40, n)) * scale ** -np.arange(n)
            c[:10, -1] *= 1e-15
            c[10:13, -1] = 0.0
            if not bounded:  # bounded above on a half-line
                c[:, -1] = -np.abs(c[:, -1])
                c[10:13, -2] = -np.abs(c[10:13, -2])
            c, f = polynomial(c)
            window = Interval(-2.0, 3.0) if bounded else Interval(0.5)
            args = (f, window, c, 1) + (() if bounded else (np.abs(c),))
            x, v = maximize_polynomial(*args)
            with monkeypatch.context() as patch:
                patch.setattr(kernel, "_real_parts", lambda first: eigvals_real_parts(first).tolist())
                xe, ve = maximize_polynomial(*args)
            # rounding in f where either maximizer lies
            far = np.maximum.reduce([np.abs(x), np.abs(xe), np.full(40, 3.0)])
            assert (v >= ve - 1e-13 * (np.abs(c) * far[:, None] ** np.arange(n)).sum(axis=1)).all()

    def test_only_a_derivative_above_degree_3_reaches_eigvals(self, monkeypatch):
        def refuse(a):
            raise AssertionError("eigvals called")

        monkeypatch.setattr(np.linalg, "eigvals", refuse)
        rng = np.random.default_rng(9)
        for degree in range(1, 5):  # in w = t^(1/root), root 1 and 2
            for root in (1, 2):
                c, f = polynomial(rng.uniform(-1.0, 1.0, (3, degree + 1)), root)
                maximize_polynomial(f, Interval(0.0, 4.0), c, root)
        c, f = polynomial(rng.uniform(-1.0, 1.0, (3, 6)))
        with pytest.raises(AssertionError, match="eigvals called"):
            maximize_polynomial(f, Interval(0.0, 4.0), c, 1)
