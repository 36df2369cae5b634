"""Price-competition duopoly: demand splits, profits, grid equilibria, and
the Markov price-modification audit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
