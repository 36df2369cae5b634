"""Price-competition duopoly: demand splits, profits, grid equilibria, and
the Markov price-modification audit."""

import math
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
    is_grid_equilibrium,
    linear_demand,
    markov_price_transform,
    profits,
    sales_shares,
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
        for p1, p2 in members:
            assert is_grid_equilibrium(m, p1, p2, grid_step=step, price_range=hi)
        ring = {
            (round(p1 + i * step, 9), round(p2 + j * step, 9))
            for p1, p2 in members
            for i in (-1, 0, 1)
            for j in (-1, 0, 1)
        }
        ring = {q for q in ring - members if 0.0 <= min(q) and max(q) <= hi}
        assert ring
        for p1, p2 in ring:
            assert not is_grid_equilibrium(m, p1, p2, grid_step=step, price_range=hi)


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
        m = MarkovPriceMatrix(0.3, 0.8).matrix
        assert np.allclose(m.sum(axis=0), 1.0)


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

    def test_non_identity_fixed_points_contradict_the_identity_only_claim(self, model):
        # alpha = 0, beta = 0.5 maps (1, 2) to itself without being the identity
        rep = audit_theorem_6_2(model, [(0.0, 0.5)], price_range=5.0)
        (row,) = rep.rows
        assert row.transformed == (1.0, 2.0)
        assert row.verdict and row.oracle and not row.stated_claim
        assert rep.claim_discrepancies == (row,)
