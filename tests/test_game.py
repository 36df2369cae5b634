"""Game construction, payoffs, order relation, regrets, and the Nash solver."""

import numpy as np
import pytest

from splitnash import (
    Game,
    Interval,
    SearchBudget,
    best_response,
    concavity_sample_check,
    diagonal_payoff,
    gamma_membership,
    nash_regrets,
    order_leq,
    solve_nash,
    verify_nash,
)
from splitnash.game import ConcavityReport
from splitnash.models import default_quadratic_sanity, e1_game, e2_game, quadratic_game

SQRT2 = float(np.sqrt(2.0))


class TestConstruction:
    def test_from_expressions_maps_variables_positionally(self):
        g = Game.from_expressions(
            players=("alice", "bob"),
            intervals=(Interval(0, 4), Interval(0, 4)),
            sources=("x*y", "y - x"),
            variable_names=("x", "y"),
        )
        assert g.payoff_vector(np.array([2.0, 3.0])).tolist() == [6.0, 1.0]

    def test_player_names_double_as_variables_by_default(self):
        g = Game.from_expressions(
            players=("x", "y"), intervals=(Interval(0, 1), Interval(0, 1)), sources=("x*y", "y")
        )
        assert g.payoff(0, np.array([0.5, 0.5])) == 0.25

    def test_undeclared_variable_rejected(self):
        with pytest.raises(ValueError):
            Game.from_expressions(
                players=("a",), intervals=(Interval(0, 1),), sources=("a + ghost",)
            )

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Game.from_expressions(players=("a", "b"), intervals=(Interval(0, 1),), sources=("a",))

    def test_feasibility_and_player_count(self):
        g = quadratic_game((1.0, 2.0), hi=5.0)
        assert g.n_players == 2
        assert g.is_feasible(np.array([0.0, 5.0]))
        assert not g.is_feasible(np.array([0.0, 5.1]))


class TestOrder:
    def test_reflexive_and_antisymmetric_on_samples(self, rng):
        for _ in range(100):
            u = rng.uniform(-5, 5, size=3)
            v = rng.uniform(-5, 5, size=3)
            assert order_leq(u, u)
            if order_leq(u, v) and order_leq(v, u):
                assert np.array_equal(u, v)

    def test_transitive_on_samples(self, rng):
        for _ in range(100):
            u = rng.uniform(-5, 5, size=3)
            v = u + rng.uniform(0, 1, size=3)
            w = v + rng.uniform(0, 1, size=3)
            assert order_leq(u, v) and order_leq(v, w) and order_leq(u, w)

    def test_not_total(self):
        assert not order_leq([0.0, 1.0], [1.0, 0.0])
        assert not order_leq([1.0, 0.0], [0.0, 1.0])


class TestDiagonalPayoff:
    def test_diagonal_equals_payoff_vector(self, rng):
        g = e1_game()
        for _ in range(50):
            x = g.random_profile(rng, cap=20.0)
            assert np.array_equal(diagonal_payoff(g, x, x), g.payoff_vector(x))

    def test_deviation_changes_only_own_component_inputs(self):
        # player a's entry uses z_a with the others' x; player b's entry is
        # b's payoff after b deviates, holding a and c at x
        g = e1_game()
        x = np.array([1.0, 2.0, 4.0])
        z = np.array([2.0, 2.0, 4.0])
        d = diagonal_payoff(g, z, x)
        assert d[0] == g.payoff(0, np.array([2.0, 2.0, 4.0]))
        assert d[1] == g.payoff(1, np.array([1.0, 2.0, 4.0]))


    def test_profile_columns_give_one_column_per_profile(self, rng):
        # the quadratic utilities and the constant-utility game evaluate the
        # same way on arrays and on scalars, so the columns agree exactly
        for g in (quadratic_game((1.0, 2.0, 3.0), hi=5.0), constant_utility_game()):
            z = np.array([g.random_profile(rng, cap=5.0) for _ in range(7)]).T
            x = np.array([g.random_profile(rng, cap=5.0) for _ in range(7)]).T
            d, f = diagonal_payoff(g, z, x), g.payoff_vector(x)
            assert d.shape == f.shape == (g.n_players, 7)
            for s in range(7):
                assert np.array_equal(d[:, s], diagonal_payoff(g, z[:, s], x[:, s]))
                assert np.array_equal(f[:, s], g.payoff_vector(x[:, s]))

    def test_a_scalar_utility_fills_its_row(self):
        g = constant_utility_game()
        x = np.array([[0.0, 1.0, 2.0], [2.0, 1.0, 0.5]])
        assert diagonal_payoff(g, x + 1.0, x).tolist() == [[3.0] * 3, [3.0, 1.0, -0.5]]
        assert g.payoff_vector(x).tolist() == [[3.0] * 3, [2.0, 0.0, -1.5]]


def constant_utility_game() -> Game:
    # player x's utility ignores the profile: compiled, it returns one float
    return Game.from_expressions(("x", "y"), (Interval(0, 2), Interval(0, 2)), ("3", "y - x"))


class TestRecordedValues:
    def test_source_game_payoffs_at_candidate(self):
        got = e1_game().payoff_vector(np.array([1.0, 2.0, 4.0]))
        assert got[0] == pytest.approx(4.0, abs=1e-12)
        assert got[1] == pytest.approx(6.0, abs=1e-12)
        assert got[2] == pytest.approx(2.0 * SQRT2 - 2.0, abs=1e-12)

    def test_target_game_payoffs_at_image(self):
        got = e2_game().payoff_vector(np.array([9.0, 12.0]))
        assert got[0] == pytest.approx(27.0, abs=1e-9)
        assert got[1] == pytest.approx(1296.0, abs=1e-9)

    def test_best_response_of_first_target_player(self, budget):
        s, val = best_response(e2_game(), "d", np.array([0.0, 12.0]), budget)
        assert s[0] == pytest.approx(9.0, abs=1e-4)
        assert val == pytest.approx(27.0, abs=1e-6)

    def test_best_response_of_second_target_player(self, budget):
        t, _ = best_response(e2_game(), "e", np.array([9.0, 0.0]), budget)
        assert t[0] == pytest.approx(12.0, abs=1e-4)

    def test_best_response_of_first_source_player(self, budget):
        x, val = best_response(e1_game(), "a", np.array([0.0, 2.0, 4.0]), budget)
        assert x[0] == pytest.approx(1.0, abs=1e-4)
        assert val == pytest.approx(4.0, abs=1e-6)

    def test_best_response_of_third_source_player_is_product(self, budget):
        # analytic argmax of sqrt(x*y*z) - z/2 over z is z* = x*y = 2, not 4
        z, val = best_response(e1_game(), "c", np.array([1.0, 2.0, 0.0]), budget)
        assert z[0] == pytest.approx(2.0, abs=1e-4)
        assert val == pytest.approx(1.0, abs=1e-6)


class TestRegretsAndVerification:
    def test_target_candidate_is_equilibrium(self, budget):
        rep = verify_nash(e2_game(), np.array([9.0, 12.0]), budget)
        assert rep.verdict
        assert rep.max_regret <= budget.tolerance

    def test_source_candidate_fails_through_third_player(self, budget):
        g = e1_game()
        r = nash_regrets(g, np.array([1.0, 2.0, 4.0]), budget)
        assert r[0] <= 1e-6 and r[1] <= 1e-6
        assert r[2] == pytest.approx(3.0 - 2.0 * SQRT2, abs=1e-4)
        rep = verify_nash(g, np.array([1.0, 2.0, 4.0]), budget)
        assert not rep.verdict
        assert set(rep.witnesses) == {"c"}
        strategy, value = rep.witnesses["c"]
        assert strategy[0] == pytest.approx(2.0, abs=1e-3)
        assert value == pytest.approx(1.0, abs=1e-6)

    def test_regrets_are_never_negative(self, budget, rng):
        g = quadratic_game((1.0, 2.0), hi=5.0)
        for _ in range(20):
            x = g.random_profile(rng, cap=5.0)
            assert np.all(nash_regrets(g, x, budget) >= 0.0)

    def test_infeasible_profile_rejected(self, budget):
        with pytest.raises(ValueError):
            verify_nash(quadratic_game((1.0,), hi=2.0), np.array([3.0]), budget)


class TestSolver:
    def test_dominant_strategy_game(self, budget):
        sols = solve_nash(quadratic_game((1.0, 2.0, 0.5), hi=5.0), budget)
        assert len(sols) == 1
        assert np.allclose(sols[0], [1.0, 2.0, 0.5], atol=1e-4)

    def test_target_game_equilibrium_found(self, budget):
        sols = solve_nash(e2_game(), budget)
        assert len(sols) == 1
        assert np.allclose(sols[0], [9.0, 12.0], atol=1e-3)

    def test_every_returned_profile_verifies(self, budget):
        for x in solve_nash(quadratic_game((0.25, 4.75), hi=5.0), budget):
            assert verify_nash(quadratic_game((0.25, 4.75), hi=5.0), x, budget).verdict

    def test_utility_that_ignores_the_profile(self, budget):
        # x's compiled utility returns one float for a whole scan grid; every
        # grid point ties, and the tie goes to the lower bound
        g = Game.from_expressions(("x", "y"), (Interval(0, 2), Interval(0, 2)), ("3", "y - x"))
        arg, val = best_response(g, "x", np.array([1.0, 1.0]), budget)
        assert (arg.tolist(), val) == ([0.0], 3.0)
        sols = solve_nash(g, budget)
        assert [s.tolist() for s in sols] == [[6.074540017332595e-07, 1.9999993036143433]]

    def test_source_game_origin_equilibrium(self):
        # with a tight cap the damped iteration settles at the origin, which
        # verifies on the unbounded strategy sets as a genuine equilibrium
        bud = SearchBudget(truncation_cap=8.0)
        sols = solve_nash(e1_game(), bud)
        assert any(np.allclose(s, 0.0, atol=1e-4) for s in sols)
        for s in sols:
            assert verify_nash(e1_game(), s, bud).verdict


class TestMembershipAndConcavity:
    def test_gamma_membership_of_self(self, budget, rng):
        g = quadratic_game((1.0, 2.0), hi=5.0)
        for _ in range(50):
            x = g.random_profile(rng, cap=5.0)
            assert gamma_membership(g, x, x, budget.tolerance)

    def test_gamma_membership_rejects_dominated_profile(self, budget):
        g = quadratic_game((1.0,), hi=5.0)
        # z = 4 is dominated by deviating to x = 1
        assert not gamma_membership(g, np.array([1.0]), np.array([4.0]), budget.tolerance)

    def test_own_concavity_of_builtin_games(self):
        for g in (e1_game(), e2_game(), quadratic_game((1.0, 2.0), hi=5.0)):
            rep = concavity_sample_check(g, samples=200, seed=0)
            assert rep.passed, rep

    @pytest.mark.parametrize("samples", [0, -1])
    def test_concavity_check_rejects_no_samples(self, samples):
        with pytest.raises(ValueError, match="samples"):
            concavity_sample_check(e2_game(), samples)

    def test_concavity_violations_of_a_convex_game(self):
        g = Game.from_expressions(
            players=("x", "y"),
            intervals=(Interval(0, 3), Interval(0, 3)),
            sources=("x^2 - x*y", "y^2*x - y"),
        )
        rep = concavity_sample_check(g, samples=100, seed=3, tolerance=1e-6, cap=3.0)
        # reference: the midpoint inequality player by player, one deviation at a time
        rng = np.random.default_rng(3)
        expected = []
        for _ in range(100):
            x, u, v = (g.random_profile(rng, 3.0) for _ in range(3))
            lam = rng.uniform(0.0, 1.0)
            for i, p in enumerate(g.players):
                a, b, mid = x.copy(), x.copy(), x.copy()
                a[i], b[i], mid[i] = u[i], v[i], lam * u[i] + (1 - lam) * v[i]
                if g.payoff(i, mid) < lam * g.payoff(i, a) + (1 - lam) * g.payoff(i, b) - 1e-6:
                    expected.append((p, (u[i],), (v[i],), float(lam)))
        assert not rep.passed and rep.samples == 100
        assert rep.violations == tuple(expected)


def reference_concavity_sample_check(game, samples, seed=0, tolerance=1e-6, cap=1e3):
    """The concavity check as a loop over samples, as it was before the batched
    draw: the reference the batched check must reproduce exactly."""
    rng = np.random.default_rng(seed)
    violations = []
    for _ in range(samples):
        x = game.random_profile(rng, cap)
        u = game.random_profile(rng, cap)
        v = game.random_profile(rng, cap)
        lam = rng.uniform(0.0, 1.0)
        lhs = diagonal_payoff(game, lam * u + (1 - lam) * v, x)
        rhs = lam * diagonal_payoff(game, u, x) + (1 - lam) * diagonal_payoff(game, v, x)
        for i in np.flatnonzero(lhs < rhs - tolerance):
            violations.append((game.players[i], (u[i],), (v[i],), float(lam)))
    return ConcavityReport(samples=samples, violations=tuple(violations))


CONCAVITY_GAMES = {
    "example-4.1:E1": e1_game,
    "example-4.1:E2": e2_game,
    "quadratic-sanity": lambda: default_quadratic_sanity().problem.game_n,
    "quadratic-3": lambda: quadratic_game((1.0, 2.0, 3.0), hi=5.0),
    "constant-utility": constant_utility_game,
    "convex": lambda: Game.from_expressions(
        ("x", "y"), (Interval(0, 3), Interval(0, 3)), ("x^2 - x*y", "y^2*x - y")
    ),
}


class TestBatchedConcavityMatchesPerSampleLoop:
    @pytest.mark.parametrize("ident", sorted(CONCAVITY_GAMES))
    @pytest.mark.parametrize("seed", [0, 1, 7, 2024])
    def test_same_report(self, ident, seed):
        g = CONCAVITY_GAMES[ident]()
        got = concavity_sample_check(g, samples=300, seed=seed, cap=20.0)
        assert repr(got) == repr(reference_concavity_sample_check(g, 300, seed, cap=20.0))

    def test_violations_keep_sample_then_player_order(self):
        g = CONCAVITY_GAMES["convex"]()
        got = concavity_sample_check(g, samples=300, seed=0)
        assert len({p for p, *_ in got.violations}) == 2  # both players violate
        assert repr(got) == repr(reference_concavity_sample_check(g, 300, 0))
