"""Price-competition duopoly: demand splits, profits, grid equilibria, and
the Markov price-modification audit."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitnash import bertrand
from splitnash.bertrand import (
    BertrandModel,
    MarkovPriceMatrix,
    audit_theorem_6_2,
    enumerate_grid_equilibria,
    grid_best_response,
    grid_equilibrium_runs,
    is_grid_equilibrium,
    linear_demand,
    markov_price_transform,
    profits,
    tie_price,
)
from splitnash.models import get_instance


@pytest.fixture
def model() -> BertrandModel:
    return BertrandModel(c1=1.0, c2=2.0, demand=linear_demand(10.0, 1.0, 1.0))


@pytest.fixture
def equal_cost_model() -> BertrandModel:
    return BertrandModel(c1=1.0, c2=1.0, demand=linear_demand(10.0, 1.0, 1.0))


class TestModel:
    def test_cost_ratio(self, model):
        assert model.lam == 0.5

    def test_rejects_inverted_costs(self):
        with pytest.raises(ValueError):
            BertrandModel(c1=2.0, c2=1.0, demand=linear_demand())

    def test_rejects_nonpositive_cost(self):
        with pytest.raises(ValueError):
            BertrandModel(c1=0.0, c2=1.0, demand=linear_demand())

    def test_rejects_market_dead_at_costs(self):
        # demand 10 - p1 - p2 vanishes at p1 + p2 >= 10
        with pytest.raises(ValueError):
            BertrandModel(c1=5.0, c2=5.0, demand=linear_demand(10.0, 1.0, 1.0))


def sales_shares(model, p1, p2):
    """The market split that the profit kernel computes at one price pair."""
    _, s1, s2, _, _ = bertrand._shares_and_profits(model, p1, p2)
    return (float(s1), float(s2))


class TestShares:
    def test_split_at_the_tie_line(self, model):
        # at p1 = lam*p2, firm 1 takes c1/(c1+c2) of the demand
        s1, s2 = sales_shares(model, 1.0, 2.0)
        assert s1 == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert s2 == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_cheaper_relative_price_takes_whole_market(self, model):
        assert sales_shares(model, 0.9, 2.0) == (1.0, 0.0)
        assert sales_shares(model, 1.1, 2.0) == (0.0, 1.0)

    @given(
        st.floats(min_value=0.0, max_value=4.9),
        st.floats(min_value=0.0, max_value=4.9),
    )
    @settings(max_examples=300, deadline=None)
    def test_shares_always_sum_to_one(self, p1, p2):
        m = BertrandModel(c1=1.0, c2=2.0, demand=linear_demand(10.0, 1.0, 1.0))
        s1, s2 = sales_shares(m, p1, p2)
        assert s1 + s2 == 1.0

    def test_market_clearing(self, model, rng):
        # each firm's sales are its share of total demand, so they sum to it
        for _ in range(200):
            p1, p2 = rng.uniform(0, 4.9, size=2)
            d = model.demand(p1, p2)
            s1, s2 = sales_shares(model, p1, p2)
            assert s1 * d + s2 * d == pytest.approx(d, abs=1e-12)


class TestProfits:
    def test_zero_profit_at_costs_is_exact(self, model):
        assert profits(model, 1.0, 2.0) == (0.0, 0.0)

    def test_undercutting_below_cost_loses_money(self, model):
        u1, _ = profits(model, 0.9, 2.0)
        assert u1 == pytest.approx(-0.71, abs=1e-12)

    def test_tie_price_inverts_the_threshold(self, model):
        assert tie_price(model, 1, 2.0) == 1.0
        assert tie_price(model, 2, 1.0) == 2.0


class TestNonFinitePrices:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
    def test_every_price_user_rejects_a_bad_price(self, bad):
        # a NaN or infinite price used to read as a market with no sales:
        # profits (0.0, 0.0) and a grid equilibrium at (nan, 2.0)
        m = get_instance("bertrand-1-2").problem
        grid = [0.5, 1.0, 2.0]
        for p1, p2 in ((bad, 2.0), (1.0, bad)):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                profits(m, p1, p2)
            with pytest.raises(ValueError, match="finite and nonnegative"):
                is_grid_equilibrium(m, p1, p2, price_range=5.0)
        for firm in (1, 2):
            for opponent in (bad, np.array([1.0, bad, 2.0])):
                with pytest.raises(ValueError, match="finite and nonnegative"):
                    grid_best_response(m, firm, opponent, grid)
            with pytest.raises(ValueError, match="finite and nonnegative"):
                grid_best_response(m, firm, 2.0, [*grid, bad])


def spiked_demand(value, p1_at, p2_at):
    """Untruncated demand 10 - p1 - p2, except for value at one price pair."""

    def demand(p1, p2):
        p1, p2 = np.broadcast_arrays(np.asarray(p1, dtype=float), np.asarray(p2, dtype=float))
        return np.where((p1 == p1_at) & (p2 == p2_at), value, 10.0 - p1 - p2)

    return demand


class TestNonFiniteDemand:
    """A demand that is NaN or infinite at a price pair is an input error that
    names the pair; it used to read as a value, so profits(m, 3.0, 1.0) was
    (nan, -inf) at an infinite demand and (0.0, 0.0) at a NaN one."""

    @pytest.fixture(params=[math.inf, -math.inf, math.nan])
    def bad(self, request):
        return request.param

    def model(self, bad, p1_at=3.0, p2_at=1.0):
        return BertrandModel(1.0, 2.0, spiked_demand(bad, p1_at, p2_at))

    def raises(self, bad, p1_at=3.0, p2_at=1.0):
        return pytest.raises(ValueError, match=re.escape(f"demand at prices {(p1_at, p2_at)} is {bad}, not finite"))

    def test_profits(self, bad):
        with self.raises(bad):
            profits(self.model(bad), 3.0, 1.0)
        assert profits(self.model(bad), 3.0, 1.5) == (0.0, (1.5 - 2.0) * 1.0 * 5.5)

    def test_grid_best_response(self, bad):
        grid = [0.5, 1.0, 3.0]
        with self.raises(bad):
            grid_best_response(self.model(bad), 1, 1.0, grid)
        with self.raises(bad):
            grid_best_response(self.model(bad), 2, np.array([0.5, 3.0]), grid)

    def test_is_grid_equilibrium(self, bad):
        with self.raises(bad):
            is_grid_equilibrium(self.model(bad), 3.0, 1.0, grid_step=0.5, price_range=5.0)

    @pytest.mark.parametrize(
        "p1_at, p2_at, region",
        [(3.0, 1.0, "firm 2 alone sells"), (2.0, 4.5, "strip"), (0.5, 3.5, "firm 1 alone sells")],
    )
    def test_enumeration_in_every_region(self, bad, p1_at, p2_at, region):
        m = self.model(bad, p1_at, p2_at)
        g = bertrand._price_grid(5.0, 0.05)
        i, j = np.searchsorted(g, [p1_at, p2_at])
        r = i - i % bertrand._ROW_BLOCK
        a, b = bertrand._strip(m.lam * g, g[r], g[min(r + bertrand._ROW_BLOCK, len(g)) - 1])
        assert region == ("firm 2 alone sells" if j < a else "strip" if j < b else "firm 1 alone sells")
        with self.raises(bad, p1_at, p2_at):
            enumerate_grid_equilibria(m, 0.05, 5.0)
        with self.raises(bad, p1_at, p2_at):
            grid_equilibrium_runs(m, 0.05, 5.0)


def reference_shares_and_profits(model, p1, p2):
    """The profit kernel as it was before its lean rewrite, with a `where`
    pass and both tie fix-ups on every call: the reference the kernel must
    reproduce bit for bit, sign of zero included."""
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    if np.any(p1 < 0) or np.any(p2 < 0):
        raise ValueError("prices must be nonnegative")
    c1, c2 = model.c1, model.c2
    d = np.asarray(model.demand(p1, p2), dtype=float)
    pos = d > 0.0
    diff = p1 - model.lam * p2
    on_tie = pos & (np.abs(diff) <= bertrand.TIE_TOL)
    s1 = np.array(pos & (diff < 0), dtype=float)
    s2 = np.array(pos & (diff > 0), dtype=float)
    s1[on_tie] = c1 / (c1 + c2)
    s2[on_tie] = c2 / (c1 + c2)
    u1 = np.where(pos, (p1 - c1) * s1 * d, 0.0)
    u2 = np.where(pos, (p2 - c2) * s2 * d, 0.0)
    return d, s1, s2, u1, u2


def assert_same_bits(model, p1, p2):
    got = bertrand._shares_and_profits(model, p1, p2)
    want = reference_shares_and_profits(model, p1, p2)
    assert len(got) == len(want) == 5
    for a, b in zip(got, want):
        assert type(a) is type(b) and a.shape == b.shape
        assert np.array_equal(a, b)
        assert np.array_equal(np.signbit(a), np.signbit(b))


def falling_demand(p1, p2):
    """Untruncated linear demand: negative beyond p1 + p2 = 4."""
    return 4.0 - p1 - p2


KERNEL_MODELS = {
    "bertrand-1-2": get_instance("bertrand-1-2").problem,
    "bertrand-1-1": get_instance("bertrand-1-1").problem,
    "slopes": BertrandModel(0.7, 3.1, linear_demand(8.0, 1.5, 0.5)),
    "falling": BertrandModel(1.0, 2.0, falling_demand),
}


class TestLeanKernelMatchesReference:
    """Every returned array keeps its type, shape and bits, on the all-positive
    path and on the zero-demand path, with and without cells on the tie line."""

    @pytest.fixture(params=sorted(KERNEL_MODELS))
    def model(self, request):
        return KERNEL_MODELS[request.param]

    @pytest.mark.parametrize("hi", [5.0, 10.0])
    def test_whole_grid(self, model, hi):
        g = bertrand._price_grid(hi, 0.01)
        assert_same_bits(model, g[:, None], g[None, :])

    def test_row_blocks(self, model):
        g = bertrand._price_grid(5.0, 0.01)
        for r in range(0, len(g), bertrand._ROW_BLOCK):
            assert_same_bits(model, g[r : r + bertrand._ROW_BLOCK, None], g[None, :])

    def test_tie_vectors(self, model):
        g = bertrand._price_grid(5.0, 0.01)
        assert_same_bits(model, model.lam * g, g)
        assert_same_bits(model, g, g / model.lam)

    @pytest.mark.parametrize(
        "p1, p2",
        [(0.0, 0.0), (0.5, 0.1), (0.9, 2.0), (1.0, 2.0), (1.1, 2.0), (2.0, 1.0),
         (1.5, 1.5), (3.0, 6.0), (5.0, 5.0), (4.0, 9.0), (0.1, 0.2 + 1e-13)],
    )
    def test_scalar_prices(self, model, p1, p2):
        assert_same_bits(model, p1, p2)

    def test_random_prices_with_exact_ties(self, model, rng):
        p1 = rng.uniform(0.0, 6.0, size=(40, 1))
        p2 = np.concatenate([rng.uniform(0.0, 6.0, size=40), p1[:5, 0] / model.lam])
        assert_same_bits(model, p1, p2[None, :])

    def test_a_loss_with_no_sales_is_negative_zero(self):
        # firm 1 prices below cost and sells nothing: (0.5 - 1) * 0 * d
        u1, u2 = profits(BertrandModel(1, 2), 0.5, 0.1)
        assert (u1, u2) == (-0.0, (0.1 - 2.0) * 1.0 * 9.4)
        assert math.copysign(1.0, u1) == -1.0

    def test_negative_demand_is_masked_to_zero(self):
        m = KERNEL_MODELS["falling"]
        d, s1, s2, u1, u2 = bertrand._shares_and_profits(m, 3.0, 2.0)
        assert d == -1.0 and (s1, s2, u1, u2) == (0.0, 0.0, 0.0, 0.0)
        assert not np.signbit(u1) and not np.signbit(u2)


class TestGridBestResponse:
    def test_firm_one_best_response_is_the_tie_price(self, model):
        grid = np.round(np.arange(0, 501) * 0.01, 9)
        p, u = grid_best_response(model, 1, 2.0, grid)
        assert p == 1.0 and u == 0.0

    def test_firm_two_best_response_is_the_tie_price(self, model):
        grid = np.round(np.arange(0, 501) * 0.01, 9)
        p, u = grid_best_response(model, 2, 1.0, grid)
        assert p == 2.0 and u == 0.0

    def test_profit_ties_break_toward_lower_price(self, model):
        # every price >= tie gives zero profit for firm 1; lowest must win
        grid = [1.0, 1.5, 2.0]
        p, _ = grid_best_response(model, 1, 2.0, grid)
        assert p == 1.0

    def test_matches_the_candidate_by_candidate_loop(self, model):
        # reference: evaluate each tie-augmented candidate alone, keep the first maximum
        grid = np.round(np.arange(0, 301) * 0.017, 9)
        for firm in (1, 2):
            for opp in (0.0, 0.9, 1.37, 2.0, 4.1):
                cands = sorted([*grid, tie_price(model, firm, opp)])
                values = [
                    profits(model, p, opp)[0] if firm == 1 else profits(model, opp, p)[1]
                    for p in cands
                ]
                k = values.index(max(values))
                assert grid_best_response(model, firm, opp, grid) == (cands[k], values[k])

    def test_rejects_bad_firm_and_empty_grid(self, model):
        with pytest.raises(ValueError):
            grid_best_response(model, 3, 2.0, [1.0])
        with pytest.raises(ValueError):
            grid_best_response(model, 1, 2.0, [])


class TestEnumeration:
    def test_cost_point_is_enumerated_with_zero_profits(self, model):
        eqs = enumerate_grid_equilibria(model, grid_step=0.01, price_range=5.0)
        assert (1.0, 2.0) in eqs
        assert profits(model, 1.0, 2.0) == (0.0, 0.0)

    def test_all_equilibria_cluster_at_the_cost_point(self, model):
        eqs = enumerate_grid_equilibria(model, grid_step=0.01, price_range=5.0)
        assert eqs  # nonempty
        for p1, p2 in eqs:
            assert max(abs(p1 - 1.0), abs(p2 - 2.0)) <= 0.03

    def test_equal_costs_cluster_at_the_shared_cost(self, equal_cost_model):
        eqs = enumerate_grid_equilibria(equal_cost_model, grid_step=0.01, price_range=5.0)
        assert (1.0, 1.0) in eqs
        for p1, p2 in eqs:
            assert max(abs(p1 - 1.0), abs(p2 - 1.0)) <= 0.03

    def test_membership_predicate_agrees_with_enumeration(self, model):
        assert is_grid_equilibrium(model, 1.0, 2.0, grid_step=0.01, price_range=5.0)
        assert not is_grid_equilibrium(model, 1.5, 1.5, grid_step=0.01, price_range=5.0)

    def test_rejects_nonpositive_step(self, model):
        with pytest.raises(ValueError):
            enumerate_grid_equilibria(model, grid_step=0.0)

    @pytest.mark.parametrize(
        "step, hi",
        [
            (0.0, 5.0),
            (-0.01, 5.0),
            (math.inf, 5.0),
            (math.nan, 5.0),
            (0.01, 0.0),
            (0.01, -1.0),
            (0.01, math.inf),
            (0.01, math.nan),
            (0.01, 0.005),  # a range shorter than one step
        ],
    )
    def test_every_grid_user_rejects_a_bad_grid(self, model, step, hi):
        # an empty or degenerate grid would otherwise give [] or [(0.0, 0.0)]
        with pytest.raises(ValueError):
            enumerate_grid_equilibria(model, grid_step=step, price_range=hi)
        with pytest.raises(ValueError):
            is_grid_equilibrium(model, 1.0, 2.0, grid_step=step, price_range=hi)
        with pytest.raises(ValueError):
            audit_theorem_6_2(model, [(1.0, 1.0)], grid_step=step, price_range=hi)
        with pytest.raises(ValueError):
            audit_theorem_6_2(model, [], grid_step=step, price_range=hi)

    @pytest.mark.parametrize("hi, step, last", [(5.0, 0.3, 4.8), (10.0, 0.6, 9.6), (1.0, 0.6, 0.6)])
    def test_a_step_that_does_not_divide_the_range_stops_short_of_it(self, hi, step, last):
        assert bertrand._price_grid(hi, step)[-1] == last

    @given(hi=st.floats(0.01, 20.0), cells=st.integers(1, 3000))
    @settings(max_examples=100, deadline=None)
    def test_a_non_dividing_step_keeps_every_whole_cell_within_the_range(self, hi, cells):
        step = hi / (cells + 0.5)  # half a step short of dividing it
        g = bertrand._price_grid(hi, step)
        assert len(g) == cells + 1 and g[-1] <= hi

    def test_a_range_of_one_step_is_a_two_price_grid(self, model):
        assert enumerate_grid_equilibria(model, grid_step=0.5, price_range=0.5) == (
            reference_enumerate_grid_equilibria(model, 0.5, 0.5)
        )

    def test_enumeration_memory_is_linear_in_the_grid(self):
        # 2,501 prices: the whole (G, G) profit matrices peaked near 300 MB
        m = get_instance("bertrand-1-2").problem
        tracemalloc.start()
        try:
            enumerate_grid_equilibria(m, 0.002, 5.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6

    @pytest.mark.parametrize("ident", ["bertrand-1-2", "bertrand-1-1"])
    def test_enumeration_and_membership_agree_on_the_ring(self, ident):
        # enumeration, membership, and grid best responses share one profit
        # evaluator; members must pass and their grid neighbours must fail
        m = get_instance(ident).problem
        step, hi = 0.01, 5.0
        members = set(enumerate_grid_equilibria(m, grid_step=step, price_range=hi))
        assert members
        ring = {
            (round(p1 + i * step, 9), round(p2 + j * step, 9))
            for p1, p2 in members
            for i in (-1, 0, 1)
            for j in (-1, 0, 1)
        }
        ring = {q for q in ring - members if 0.0 <= min(q) and max(q) <= hi}
        assert ring
        p1, p2 = np.array([*members, *ring]).T
        verdicts = is_grid_equilibrium(m, p1, p2, grid_step=step, price_range=hi)
        assert verdicts.tolist() == [True] * len(members) + [False] * len(ring)

    def test_membership_memory_is_linear_in_the_grid(self):
        # 1,000 pairs on 2,501 prices: each firm's best responses take the
        # opponents in blocks of rows, never one (pairs, G) array
        m = get_instance("bertrand-1-2").problem
        p1, p2 = np.random.default_rng(7).uniform(0.0, 5.0, size=(2, 1000))
        tracemalloc.start()
        try:
            verdicts = is_grid_equilibrium(m, p1, p2, grid_step=0.002, price_range=5.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdicts.shape == (1000,)
        assert peak < 32e6


class TestEquilibriumRuns:
    """grid_equilibrium_runs is the enumeration as maximal runs of one row."""

    @pytest.mark.parametrize("ident", sorted(KERNEL_MODELS))
    @pytest.mark.parametrize("step, hi, tol", [(0.01, None, 1e-6), (0.05, 5.0, 2.0), (0.6, 10.0, 1e-6)])
    def test_runs_expand_to_the_pairs(self, ident, step, hi, tol):
        m = KERNEL_MODELS[ident]
        g = bertrand._price_grid(hi if hi is not None else m.default_price_range(), step)
        runs, count = grid_equilibrium_runs(m, step, hi, tolerance=tol)
        pairs = np.array(enumerate_grid_equilibria(m, step, hi, tolerance=tol))
        assert count == len(pairs) > 0
        p1, first, last = np.array(runs).T
        first, last = np.searchsorted(g, first), np.searchsorted(g, last)
        expanded = np.column_stack([
            np.repeat(p1, last - first + 1),
            np.concatenate([g[a : b + 1] for a, b in zip(first, last)]),
        ])
        assert np.array_equal(expanded, pairs)
        # maximal: a run starts at each pair that does not follow the one before in its row
        i, j = np.searchsorted(g, pairs.T)
        assert len(runs) == np.sum((np.diff(i, prepend=-1) != 0) | (np.diff(j, prepend=-2) != 1))

    def test_a_row_ending_at_the_last_price_and_the_next_starting_at_zero_are_two_runs(self):
        # (9.99, 10.0) and (10.0, 0.0) are adjacent in row-major order
        runs, count = grid_equilibrium_runs(get_instance("bertrand-1-2").problem, 0.01)
        assert runs[-3:] == [[9.99, 8.99, 10.0], [10.0, 0.0, 2.0], [10.0, 8.99, 10.0]]
        assert (len(runs), count) == (507, 46_060)

    def test_no_equilibrium_is_no_run(self, model):
        assert enumerate_grid_equilibria(model, 0.5, 0.5, tolerance=-1.0) == []
        assert grid_equilibrium_runs(model, 0.5, 0.5, tolerance=-1.0) == ([], 0)


def reference_enumerate_grid_equilibria(model, grid_step, price_range=None, tolerance=1e-6):
    """The enumeration on whole (G, G) profit matrices, as it was before the
    row blocks: the reference the blocked enumeration must reproduce exactly."""
    hi = price_range if price_range is not None else model.default_price_range()
    g = bertrand._price_grid(hi, grid_step)
    u1, u2 = bertrand._shares_and_profits(model, g[:, None], g[None, :])[3:]
    u1_tie = bertrand._shares_and_profits(model, model.lam * g, g)[3]
    u2_tie = bertrand._shares_and_profits(model, g, g / model.lam)[4]
    best1 = np.maximum(u1.max(axis=0), u1_tie)
    best2 = np.maximum(u2.max(axis=1), u2_tie)
    mask = (u1 >= best1[None, :] - tolerance) & (u2 >= best2[:, None] - tolerance)
    ii, jj = np.nonzero(mask)
    return [(float(g[i]), float(g[j])) for i, j in zip(ii, jj)]


class TestBlockedEnumerationMatchesFullMatrix:
    @pytest.mark.parametrize("ident", ["bertrand-1-2", "bertrand-1-1"])
    @pytest.mark.parametrize("hi", [3.0, 5.0])
    @pytest.mark.parametrize("extra_rows", [-1, 0, 1])
    def test_grids_around_one_block(self, ident, hi, extra_rows):
        # grids one row short of, equal to, and one row over the block size
        m = get_instance(ident).problem
        rows = bertrand._ROW_BLOCK + extra_rows
        step = hi / (rows - 1)
        assert len(bertrand._price_grid(hi, step)) == rows
        got = enumerate_grid_equilibria(m, step, hi)
        assert got
        assert repr(got) == repr(reference_enumerate_grid_equilibria(m, step, hi))

    @pytest.mark.parametrize("ident", ["bertrand-1-2", "bertrand-1-1"])
    @pytest.mark.parametrize("hi", [3.0, 5.0, None])
    @pytest.mark.parametrize("step", [0.01, 0.0125])
    def test_many_blocks(self, ident, hi, step):
        m = get_instance(ident).problem
        got = enumerate_grid_equilibria(m, step, hi)
        assert got
        assert repr(got) == repr(reference_enumerate_grid_equilibria(m, step, hi))

    def test_loose_tolerance_keeps_row_major_order(self, model):
        # a tolerance of 2 admits grid points across many rows and blocks
        got = enumerate_grid_equilibria(model, 0.01, 5.0, tolerance=2.0)
        assert len({p1 for p1, _ in got}) > 2 * bertrand._ROW_BLOCK
        assert got == sorted(got)
        assert repr(got) == repr(reference_enumerate_grid_equilibria(model, 0.01, 5.0, 2.0))

    def test_the_default_range_of_ten(self):
        # test_many_blocks compares this grid with the reference; the range
        # reaches the zero-demand region p1 + p2 >= 10, which holds all but 4
        # of the equilibria
        m = get_instance("bertrand-1-2").problem
        assert m.default_price_range() == 10.0
        assert len(enumerate_grid_equilibria(m, 0.01)) == 46_060

    def test_unequal_demand_slopes(self):
        m = KERNEL_MODELS["slopes"]
        got = enumerate_grid_equilibria(m, 0.01)
        assert got
        assert repr(got) == repr(reference_enumerate_grid_equilibria(m, 0.01))

    @given(
        c2=st.floats(0.1, 3.0),
        lam=st.one_of(st.just(1.0), st.just(0.01), st.floats(0.01, 1.0)),
        demand=st.sampled_from(["truncated", "falling", "constant"]),
        slopes=st.tuples(st.floats(0.1, 3.0), st.floats(0.1, 3.0)),
        level=st.floats(0.5, 20.0),
        hi=st.one_of(st.none(), st.floats(0.5, 10.0)),
        cells=st.integers(1, 160),
        shortfall=st.sampled_from([0.0, 0.37]),
        tolerance=st.sampled_from([0.0, 1e-6, 2.0, -1.0]),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_models_match_the_reference(
        self, c2, lam, demand, slopes, level, hi, cells, shortfall, tolerance
    ):
        # c1 <= c2 down to a cost ratio of 0.01; demand positive at the costs
        c1 = lam * c2
        if demand == "truncated":
            a, b = slopes
            demand = linear_demand(a * c1 + b * c2 + level, a, b)
        elif demand == "falling":
            demand = lambda p1, p2, k=c1 + c2 + level: k - p1 - p2  # noqa: E731
        else:
            demand = lambda p1, p2: level  # noqa: E731
        m = BertrandModel(c1, c2, demand)
        # a step that divides the range, or falls 0.37 of a step short of it
        step = (hi if hi is not None else m.default_price_range()) / (cells + shortfall)
        got = enumerate_grid_equilibria(m, step, hi, tolerance)
        assert repr(got) == repr(reference_enumerate_grid_equilibria(m, step, hi, tolerance))
        assert grid_equilibrium_runs(m, step, hi, tolerance)[1] == len(got)

    def test_loose_tolerance_in_memory_linear_in_the_kept_cells(self, model):
        # about twice the equilibria pass firm 1's running best profits, so the
        # final filter matters; the whole (G, G) matrices peaked near 77 MB
        tracemalloc.start()
        try:
            got = enumerate_grid_equilibria(model, 0.004, 5.0, tolerance=2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24e6
        assert len(got) == 49_099
        assert repr(got) == repr(reference_enumerate_grid_equilibria(model, 0.004, 5.0, 2.0))


class TestStripEnumeration:
    """Left of the strip around the tie line firm 2 alone sells in every row of
    a block, right of it firm 1 alone; only the strip computes shares."""

    def test_shares_are_computed_on_few_cells(self, monkeypatch):
        cells = []

        def counted(model, p1, p2, _f=bertrand._shares_and_profits):
            out = _f(model, p1, p2)
            cells.append(out[3].size)  # a profit has the broadcast shape
            return out

        monkeypatch.setattr(bertrand, "_shares_and_profits", counted)
        m = get_instance("bertrand-1-2").problem
        assert enumerate_grid_equilibria(m, 0.002, 5.0) == [(1.0, 2.0), (1.002, 2.004)]
        n = len(bertrand._price_grid(5.0, 0.002))
        # whole blocks of rows would be all n * n = 6,255,001 cells
        assert n == 2501 and sum(cells) < 0.05 * n * n

    @pytest.mark.parametrize("ident", sorted(KERNEL_MODELS))
    def test_the_sole_seller_profits_are_the_kernels(self, ident):
        m = KERNEL_MODELS[ident]
        g = bertrand._price_grid(m.default_price_range(), 0.01)
        seen = set()
        for r in range(0, len(g), bertrand._ROW_BLOCK):
            p1 = g[r : r + bertrand._ROW_BLOCK, None]
            a, b = bertrand._strip(m.lam * g, p1[0, 0], p1[-1, 0])
            for cols, seller, margin in ((slice(0, a), 2, g[:a] - m.c2), (slice(b, None), 1, p1 - m.c1)):
                got = bertrand._sole_seller_profit(m, p1, g[cols], margin)
                d, _, _, u1, u2 = bertrand._shares_and_profits(m, p1, g[cols])
                want, other = (u1, u2) if seller == 1 else (u2, u1)
                assert got.shape == want.shape and np.array_equal(got, want)
                sells = d > 0.0
                assert np.array_equal(np.signbit(got)[sells], np.signbit(want)[sells])
                assert not other.any()  # a zero of either sign
                seen.update((seller, bool(x)) for x in np.unique(np.signbit(got)[sells]))
        # both firms sell alone somewhere, at a loss and at a gain
        assert seen == {(1, False), (1, True), (2, False), (2, True)}


def reference_grid_best_response(model, firm, opponent_price, grid):
    """The grid best response as it was before it took arrays of opponent
    prices: the grid plus a finite, nonnegative tie price, sorted, and the
    first maximum. The reference the batched best response must reproduce
    bit for bit, sign of zero included."""
    candidates = np.asarray(grid, dtype=float)
    tie = tie_price(model, firm, opponent_price)
    if math.isfinite(tie) and tie >= 0:
        candidates = np.append(candidates, tie)
    candidates = np.sort(candidates)
    if firm == 1:
        u = bertrand._shares_and_profits(model, candidates, opponent_price)[3]
    else:
        u = bertrand._shares_and_profits(model, opponent_price, candidates)[4]
    best = int(np.argmax(u))
    return float(candidates[best]), float(u[best])


def reference_is_grid_equilibrium(model, p1, p2, grid_step, price_range, tolerance=1e-6):
    """Grid equilibrium of one pair, as it was before the batched best
    responses: scalar profits and one best response per firm."""
    g = bertrand._price_grid(price_range, grid_step)
    cur1, cur2 = profits(model, p1, p2)
    _, best1 = reference_grid_best_response(model, 1, p2, g)
    if best1 > cur1 + tolerance:
        return False
    _, best2 = reference_grid_best_response(model, 2, p1, g)
    return bool(best2 <= cur2 + tolerance)


class TestBatchedGridMatchesScalarReference:
    """Verdicts, best prices and best profits on arrays of prices equal the
    scalar reference's, pair by pair, sign of zero included."""

    STEP = 0.01

    @pytest.fixture(params=sorted(KERNEL_MODELS))
    def case(self, request):
        # on-grid, off-grid, both firms' tie lines, zero demand, equilibria
        m = KERNEL_MODELS[request.param]
        hi = m.default_price_range()
        g = bertrand._price_grid(hi, self.STEP)
        rng = np.random.default_rng(11)
        on_grid = rng.choice(g, size=(2, 40))
        off_grid = rng.uniform(0.0, hi, size=(2, 40))
        tie1 = np.stack([m.lam * on_grid[1], on_grid[1]])
        tie2 = np.stack([off_grid[0], off_grid[0] / m.lam])
        no_demand = rng.uniform(6.0, 12.0, size=(2, 40))
        members = np.array(enumerate_grid_equilibria(m, self.STEP, hi)[:40]).T
        p1, p2 = np.concatenate([on_grid, off_grid, tie1, tie2, no_demand, members], axis=1)
        assert m.demand(no_demand[0], no_demand[1]).max() <= 0.0 and members.shape[1] > 0
        return m, hi, g, p1, p2

    def test_verdicts(self, case):
        m, hi, _, p1, p2 = case
        got = is_grid_equilibrium(m, p1, p2, grid_step=self.STEP, price_range=hi)
        want = [reference_is_grid_equilibrium(m, a, b, self.STEP, hi) for a, b in zip(p1, p2)]
        assert got.dtype == bool and got.tolist() == want
        assert 0 < sum(want) < len(want)
        for a, b, w in zip(p1[::25], p2[::25], want[::25]):
            v = is_grid_equilibrium(m, a, b, grid_step=self.STEP, price_range=hi)
            assert type(v) is bool and v == w

    @pytest.mark.parametrize("firm", [1, 2])
    def test_best_prices_and_profits(self, case, firm):
        m, _, g, p1, p2 = case
        opponents = p2 if firm == 1 else p1
        price, best = grid_best_response(m, firm, opponents, g)
        want = np.array([reference_grid_best_response(m, firm, o, g) for o in opponents])
        assert np.array_equal(price, want[:, 0])
        assert np.array_equal(best, want[:, 1])
        assert np.array_equal(np.signbit(best), np.signbit(want[:, 1]))
        # a best profit of -0.0 (a price below cost with no sales) keeps its sign
        assert (np.signbit(best) & (best == 0.0)).any()
        # a 2-D array of opponents answers in its own shape
        price2, best2 = grid_best_response(m, firm, opponents.reshape(2, -1), g)
        assert price2.shape == best2.shape == (2, len(opponents) // 2)
        assert np.array_equal(price2.ravel(), price) and np.array_equal(best2.ravel(), best)
        for o, (p, u) in zip(opponents[::25], want[::25]):
            got = grid_best_response(m, firm, float(o), g)
            assert type(got[0]) is float and type(got[1]) is float
            assert got == (p, u) and math.copysign(1.0, got[1]) == math.copysign(1.0, u)


class TestMarkovTransform:
    def test_identity_detection(self):
        assert MarkovPriceMatrix(1.0, 1.0).is_identity
        assert not MarkovPriceMatrix(0.9, 1.0).is_identity

    def test_rejects_out_of_range_parameters(self):
        with pytest.raises(ValueError):
            MarkovPriceMatrix(-0.1, 0.5)
        with pytest.raises(ValueError):
            MarkovPriceMatrix(0.5, 1.1)

    def test_averaging_transform_value(self):
        assert markov_price_transform(MarkovPriceMatrix(0.5, 0.5), 1.0, 2.0) == (1.5, 1.5)

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=10.0),
        st.floats(min_value=0.0, max_value=10.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_transform_preserves_price_sum(self, alpha, beta, p1, p2):
        q1, q2 = markov_price_transform(MarkovPriceMatrix(alpha, beta), p1, p2)
        assert q1 + q2 == pytest.approx(p1 + p2, abs=1e-9)

    def test_column_stochastic_matrix(self):
        # the transform's columns are its images of the unit price vectors
        m = MarkovPriceMatrix(0.3, 0.8)
        columns = np.array([markov_price_transform(m, *unit) for unit in ((1.0, 0.0), (0.0, 1.0))])
        assert np.allclose(columns.sum(axis=1), 1.0)


class TestMarkovAudit:
    def test_identity_confirms_the_cost_pair(self, model):
        rep = audit_theorem_6_2(model, [(1.0, 1.0)], price_range=5.0)
        (row,) = rep.rows
        assert row.verdict and row.oracle and row.stated_claim

    def test_equal_costs_any_matrix_confirms(self, equal_cost_model):
        rep = audit_theorem_6_2(equal_cost_model, [(0.4, 0.4)], price_range=5.0)
        (row,) = rep.rows
        assert row.transformed == (1.0, 1.0)
        assert row.verdict and row.oracle and row.stated_claim

    def test_unequal_costs_strict_averaging_breaks_equilibrium(self, model):
        rep = audit_theorem_6_2(model, [(0.9, 0.9)], price_range=5.0)
        (row,) = rep.rows
        assert row.transformed == (1.1, 1.9)
        assert not row.verdict and not row.oracle and not row.stated_claim

    def test_verdicts_match_the_fixed_point_oracle_on_a_grid(self, model, equal_cost_model):
        pts = [(a, b) for a in np.linspace(0, 1, 5) for b in np.linspace(0, 1, 5)]
        for m in (model, equal_cost_model):
            rep = audit_theorem_6_2(m, pts, price_range=5.0)
            assert rep.all_match_oracle
            for row in rep.rows:
                assert type(row.oracle) is bool and type(row.stated_claim) is bool

    def test_one_membership_call_per_model(self, model, monkeypatch):
        # every pair is tested in one call: one best response per firm, and
        # no per-pair grid or scalar profits
        calls = {}
        for name in ("is_grid_equilibrium", "grid_best_response", "profits", "_price_grid"):
            def counted(*args, _f=getattr(bertrand, name), _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _f(*args, **kwargs)

            monkeypatch.setattr(bertrand, name, counted)
        pts = [(a, b) for a in np.linspace(0, 1, 5) for b in np.linspace(0, 1, 5)]
        rep = audit_theorem_6_2(model, pts, price_range=5.0)
        assert len(rep.rows) == 25 and rep.all_match_oracle
        assert calls == {"is_grid_equilibrium": 1, "grid_best_response": 2, "_price_grid": 1}

    def test_non_identity_fixed_points_contradict_the_identity_only_claim(self, model):
        # alpha = 0, beta = 0.5 maps (1, 2) to itself without being the identity
        rep = audit_theorem_6_2(model, [(0.0, 0.5)], price_range=5.0)
        (row,) = rep.rows
        assert row.transformed == (1.0, 2.0)
        assert row.verdict and row.oracle and not row.stated_claim
        assert rep.claim_discrepancies == (row,)
