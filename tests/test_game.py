"""Game construction, payoffs, order relation, regrets, and the Nash solver."""

from dataclasses import replace

import numpy as np
import pytest

import splitnash
from splitnash import (
    Game,
    Interval,
    SearchBudget,
    best_response,
    diagonal_payoff,
    gamma_membership,
    order_leq,
    solve_nash,
    verify_nash,
)
from splitnash.game import DAMPING, N_STARTS, _distinct, uniform_samples
from splitnash import kernel
from splitnash.kernel import EvalError, maximize_1d
from splitnash.models import default_quadratic_sanity, e1_game, e2_game, quadratic_game

import _kkm_reference

SQRT2 = float(np.sqrt(2.0))


def random_profile(game, rng, cap):
    """One feasible profile; unbounded coordinates are drawn in [lo, lo + cap]."""
    return uniform_samples(rng, 1, [iv.truncated(cap) for iv in game.strategy_sets])[0]


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
        assert g.payoff_vector(np.array([0.5, 0.5]))[0] == 0.25

    def test_undeclared_variable_rejected(self):
        with pytest.raises(ValueError):
            Game.from_expressions(
                players=("a",), intervals=(Interval(0, 1),), sources=("a + ghost",)
            )

    def test_undeclared_variable_message_names_the_player(self):
        with pytest.raises(ValueError) as caught:
            Game.from_expressions(
                players=("a", "b"), intervals=(Interval(0, 1),) * 2, sources=("a*b", "a + ghost")
            )
        assert type(caught.value) is ValueError
        assert str(caught.value) == "utility of player 'b' uses undeclared variables ['ghost']"

    def test_a_utility_past_the_last_player_is_named_by_its_index(self):
        # a spec may list more utilities than players; Game would reject it
        with pytest.raises(ValueError, match=r"^utility of player 1 uses undeclared variables \['ghost'\]$"):
            Game.from_expressions(players=("a",), intervals=(Interval(0, 1),), sources=("a", "ghost"))

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
            x = random_profile(g, rng, cap=20.0)
            assert np.array_equal(diagonal_payoff(g, x, x), g.payoff_vector(x))

    def test_deviation_changes_only_own_component_inputs(self):
        # player a's entry uses z_a with the others' x; player b's entry is
        # b's payoff after b deviates, holding a and c at x
        g = e1_game()
        x = np.array([1.0, 2.0, 4.0])
        z = np.array([2.0, 2.0, 4.0])
        d = diagonal_payoff(g, z, x)
        assert d[0] == g.payoff_vector(np.array([2.0, 2.0, 4.0]))[0]
        assert d[1] == g.payoff_vector(np.array([1.0, 2.0, 4.0]))[1]


    def test_profile_columns_give_one_column_per_profile(self, rng):
        # the quadratic utilities and the constant-utility game evaluate the
        # same way on arrays and on scalars, so the columns agree exactly
        for g in (quadratic_game((1.0, 2.0, 3.0), hi=5.0), constant_utility_game()):
            z = np.array([random_profile(g, rng, cap=5.0) for _ in range(7)]).T
            x = np.array([random_profile(g, rng, cap=5.0) for _ in range(7)]).T
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


class TestNonFinitePayoffsRaise:
    """Both profile-payoff evaluators name the first non-finite payoff, its
    player and the profile it was computed at."""

    @staticmethod
    def _game() -> Game:
        # player a's payoff is +inf where a > 1, player b's is nan where b > 6
        return Game(
            ("a", "b"),
            (Interval(0, 10), Interval(0, 10)),
            (lambda v: np.where(v[0] > 1, np.inf, v[0]), lambda v: np.where(v[1] > 6, np.nan, v[1])),
        )

    def test_payoff_vector_names_the_column(self):
        x = np.array([[0.0, 0.5, 3.0], [5.0, 7.0, 2.0]])
        with pytest.raises(EvalError, match=r"^non-finite payoff inf of player 'a' at \[3.0, 2.0\]$"):
            self._game().payoff_vector(x)

    def test_diagonal_payoff_names_the_deviation(self):
        x = np.array([[0.0, 0.5], [5.0, 6.0]])
        z = np.array([[0.0, 1.0], [5.0, 8.0]])
        with pytest.raises(EvalError, match=r"^non-finite payoff nan of player 'b' at \[0.5, 8.0\]$"):
            diagonal_payoff(self._game(), z, x)

    def test_finite_payoffs_pass(self):
        x = np.array([[0.0, 0.5], [5.0, 6.0]])
        assert self._game().payoff_vector(x).tolist() == [[0.0, 0.5], [5.0, 6.0]]


def test_one_evaluation_error_under_every_name():
    # so the NaN objective of test_kernel.py, the negative base of test_expr.py
    # and the -inf payoff of TestRegretsAndVerification raise splitnash.EvalError
    assert splitnash.EvalError is splitnash.expr.EvalError is kernel.EvalError
    assert issubclass(splitnash.EvalError, ValueError)


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
        assert max(rep.regrets) <= budget.tolerance

    def test_source_candidate_fails_through_third_player(self, budget):
        rep = verify_nash(e1_game(), np.array([1.0, 2.0, 4.0]), budget)
        r = rep.regrets
        assert r[0] <= 1e-6 and r[1] <= 1e-6
        assert r[2] == pytest.approx(3.0 - 2.0 * SQRT2, abs=1e-4)
        assert not rep.verdict
        assert set(rep.witnesses) == {"c"}
        strategy, value = rep.witnesses["c"]
        assert strategy[0] == pytest.approx(2.0, abs=1e-3)
        assert value == pytest.approx(1.0, abs=1e-6)

    def test_regrets_are_never_negative(self, budget, rng):
        g = quadratic_game((1.0, 2.0), hi=5.0)
        for _ in range(20):
            x = random_profile(g, rng, cap=5.0)
            assert all(r >= 0.0 for r in verify_nash(g, x, budget).regrets)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_current_payoff_raises(self, budget):
        # player d's utility 0.5*s*t - s^2/3 overflows to -inf at s = 1e308
        with pytest.raises(EvalError, match=r"payoff -inf of player 'd' at \[1e\+308, 1.0\]"):
            verify_nash(e2_game(), np.array([1e308, 1.0]), budget)

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
        assert (arg.tolist(), val.tolist()) == ([0.0], [3.0])
        sols = solve_nash(g, budget)
        assert [s.tolist() for s in sols] == [[6.074540017332595e-07, 1.9999993036143433]]

    def test_a_utility_that_returns_a_view_of_its_input(self, budget):
        # "y" compiles to y's coordinate itself, which for y's best response
        # is maximize_1d's own array of candidates; "y + 0" computes the same
        # values into a fresh array
        def game(u_y):
            return Game.from_expressions(
                ("x", "y"), (Interval(0, 2), Interval(0, 2)), ("x*(y - x)", u_y)
            )

        view, fresh = game("y"), game("y + 0")
        arg, val = best_response(view, "y", np.array([0.5, 0.5]), budget)
        assert (arg.tolist(), val.tolist()) == ([2.0], [2.0])
        assert repr(solve_nash(view, budget)) == repr(solve_nash(fresh, budget))
        assert np.allclose(solve_nash(view, budget), [[1.0, 2.0]], atol=1e-5)

    def test_source_game_origin_equilibrium(self):
        # with a tight cap the damped iteration settles at the origin, which
        # verifies on the unbounded strategy sets as a genuine equilibrium
        bud = SearchBudget(truncation_cap=8.0)
        sols = solve_nash(e1_game(), bud)
        assert any(np.allclose(s, 0.0, atol=1e-4) for s in sols)
        for s in sols:
            assert verify_nash(e1_game(), s, bud).verdict


# (game, budget, windows the profile columns are drawn in). The rows of one
# call share the expanded cap, so a column matches its profile call only
# where both expand the cap alike. From a cap of 1, every row of these E1
# columns keeps it at 1 for player a and expands it to 4 and 8 for players
# b and c, and every row of these E2 columns expands it to 16.
BEST_RESPONSE_CASES = {
    "E1": (e1_game, SearchBudget(truncation_cap=1.0), [Interval(2.0, 2.5)] * 3),
    "E2": (e2_game, SearchBudget(truncation_cap=1.0), [Interval(9.0, 15.0), Interval(12.0, 20.0)]),
    "quadratic": (
        lambda: quadratic_game((-1.5, 0.0, 1.0 / 3.0), hi=5.0),
        SearchBudget(),
        [Interval(0.0, 5.0)] * 3,
    ),
    "narrow": (
        lambda: Game.from_expressions(
            ("x", "y"),
            (Interval(0.0, 0.05), Interval(0.01, 0.02)),
            ("x*(0.5 + y) - 10*x^2", "y*(0.3 - x) - 10*y^2"),
        ),
        SearchBudget(),
        [Interval(0.0, 0.05), Interval(0.01, 0.02)],
    ),
}


class TestBestResponseColumnsMatchProfileCalls:
    @pytest.mark.parametrize("ident", sorted(BEST_RESPONSE_CASES))
    def test_same_bits(self, ident, monkeypatch):
        caps, expand_cap = [], kernel._expand_cap

        def recording(*args):
            caps.append(expand_cap(*args))
            return caps[-1]

        monkeypatch.setattr(kernel, "_expand_cap", recording)
        make, budget, windows = BEST_RESPONSE_CASES[ident]
        g = make()
        cols = uniform_samples(np.random.default_rng(11), 6, windows).T
        for p in g.players:
            args, vals = best_response(g, p, cols, budget)
            assert args.shape == vals.shape == (6,)
            for s in range(6):
                arg, val = best_response(g, p, cols[:, s], budget)
                assert arg.shape == val.shape == (1,)
                assert arg.tobytes() == args[s:s + 1].tobytes()
                assert val.tobytes() == vals[s:s + 1].tobytes()
            assert len(set(caps[-7:])) <= 1, "each row expands the cap like the shared call"
        assert (max(caps, default=0.0) > budget.truncation_cap) == (ident in ("E1", "E2"))

    def test_solver_best_responses_are_seen_by_a_wrapper(self, monkeypatch):
        # bench/tracer.py counts a layer by replacing its module attribute
        import splitnash.game as game_module

        calls = {"best_response": 0, "maximize_1d": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(game_module, name, counting(name, getattr(game_module, name)))
        solve_nash(e2_game(), SearchBudget())
        assert calls["best_response"] == calls["maximize_1d"]


class TestUtilitiesTakeCoordinates:
    """A utility reads coordinate j as v[j] of a sequence whose entries
    broadcast together, and a deviation replaces one entry: best_response
    passes (k, 1) opponents with (k, P) candidates, and diagonal_payoff
    deviates a stack of profiles against shared columns."""

    def test_an_opponent_only_utility_broadcasts_over_the_candidates(self, budget):
        # x's utility "y" gives one (k, 1) value per column for all candidates,
        # which all tie, so x's best response is its lower bound
        g = Game.from_expressions(("x", "y"), (Interval(0, 2), Interval(0, 2)), ("y", "x*y"))
        cols = uniform_samples(np.random.default_rng(3), 3, g.strategy_sets).T
        args, vals = best_response(g, "x", cols, budget)
        for s in range(3):
            arg, val = best_response(g, "x", cols[:, s], budget)
            assert arg.tobytes() == args[s : s + 1].tobytes()
            assert val.tobytes() == vals[s : s + 1].tobytes()
        assert args.tolist() == [0.0] * 3 and vals.tolist() == cols[1].tolist()

    @pytest.mark.parametrize("ident", ["example-4.1:E1", "example-4.1:E2", "quadratic-3"])
    def test_a_stack_of_deviations_equals_one_call_per_deviation(self, ident):
        g = CONCAVITY_GAMES[ident]()
        windows = [iv.truncated(20.0) for iv in g.strategy_sets]
        rng = np.random.default_rng(5)
        z = np.stack([uniform_samples(rng, 40, windows).T for _ in range(3)], axis=1)
        x = uniform_samples(rng, 40, windows).T
        got = diagonal_payoff(g, z, x)
        assert got.shape == (g.n_players, 3, 40)
        for r in range(3):
            assert got[:, r].tobytes() == diagonal_payoff(g, z[:, r], x).tobytes()

    def test_best_response_passes_opponent_columns_and_candidates(self):
        seen = []

        def recording(u):
            def wrapped(v):
                seen.append((getattr(v, "shape", None), [np.shape(c) for c in v]))
                return u(v)

            return wrapped

        g = e1_game()
        g = replace(g, utilities=tuple(recording(u) for u in g.utilities))
        cols = uniform_samples(np.random.default_rng(2), 4, [Interval(1.0, 3.0)] * 3).T
        for i, p in enumerate(g.players):
            seen.clear()
            best_response(g, p, cols, SearchBudget(truncation_cap=8.0))
            assert len(seen) > 2
            for whole, shapes in seen:
                assert whole is None or len(whole) < 3, "no (n, k, P) profile array"
                assert all(s == (4, 1) for j, s in enumerate(shapes) if j != i)
                assert shapes[i][0] == 4
            assert max(shapes[i][1] for _, shapes in seen) > 1


class TestMembershipAndConcavity:
    def test_gamma_membership_of_self(self, budget, rng):
        g = quadratic_game((1.0, 2.0), hi=5.0)
        for _ in range(50):
            x = random_profile(g, rng, cap=5.0)
            assert gamma_membership(g, x, x, budget.tolerance)

    def test_gamma_membership_rejects_dominated_profile(self, budget):
        g = quadratic_game((1.0,), hi=5.0)
        # z = 4 is dominated by deviating to x = 1
        assert not gamma_membership(g, np.array([1.0]), np.array([4.0]), budget.tolerance)

    def test_own_concavity_of_builtin_games(self):
        for g in (e1_game(), e2_game(), quadratic_game((1.0, 2.0), hi=5.0)):
            violations = reference_concavity_sample_check(g, samples=200, seed=0)
            assert violations == (), violations

    def test_concavity_violations_of_a_convex_game(self):
        g = Game.from_expressions(
            players=("x", "y"),
            intervals=(Interval(0, 3), Interval(0, 3)),
            sources=("x^2 - x*y", "y^2*x - y"),
        )
        violations = reference_concavity_sample_check(g, samples=100, seed=3, cap=3.0)
        assert {p for p, *_ in violations} == {"x", "y"}
        assert violations == per_player_concavity_violations(g, samples=100, seed=3, cap=3.0)


class TestUniformSamplesMatchScalarDraws:
    """The batched draw must equal a scalar rng.uniform loop, sample-major and
    in window order, including one sample and a degenerate window [a, a]."""

    WINDOWS = [Interval(0.0, 1.0), Interval(-3.0, 5.5), Interval(2.5, 2.5), Interval(1e-3, 1e3)]

    @pytest.mark.parametrize("samples", [1, 2, 37])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_same_values(self, samples, seed):
        got = uniform_samples(np.random.default_rng(seed), samples, self.WINDOWS)
        rng = np.random.default_rng(seed)
        want = [[rng.uniform(w.lo, w.hi) for w in self.WINDOWS] for _ in range(samples)]
        assert got.shape == (samples, len(self.WINDOWS))
        assert got.tolist() == want
        assert (got[:, 2] == 2.5).all()

    def test_truncated_windows_are_one_scalar_draw_per_player(self):
        # solve_nash draws its starts in the strategy sets truncated at the cap
        sets = (Interval(0, 2), Interval(1.5, 1.5), Interval(-1))
        got = uniform_samples(np.random.default_rng(5), 1, [iv.truncated(30.0) for iv in sets])
        rng = np.random.default_rng(5)
        want = [rng.uniform(0, 2), rng.uniform(1.5, 1.5), rng.uniform(-1, 29)]
        assert got[0].tolist() == want


def reference_concavity_sample_check(game, samples, seed=0, tolerance=1e-6, cap=1e3):
    """Sample own-strategy concavity of each utility with opponents fixed.

    Each sample draws a profile x, two deviations u and v and a weight lambda;
    returns the violations (player, (u_i,), (v_i,), lambda), in sample order."""
    rng = np.random.default_rng(seed)
    windows = [iv.truncated(cap) for iv in game.strategy_sets]
    violations = []
    for _ in range(samples):
        x, u, v = (np.array([rng.uniform(w.lo, w.hi) for w in windows]) for _ in range(3))
        lam = rng.uniform(0.0, 1.0)
        lhs = diagonal_payoff(game, lam * u + (1 - lam) * v, x)
        rhs = lam * diagonal_payoff(game, u, x) + (1 - lam) * diagonal_payoff(game, v, x)
        for i in np.flatnonzero(lhs < rhs - tolerance):
            violations.append((game.players[i], (u[i],), (v[i],), float(lam)))
    return tuple(violations)


def per_player_concavity_violations(game, samples, seed=0, tolerance=1e-6, cap=1e3):
    """The midpoint inequality player by player, one deviation and one scalar
    payoff at a time, on the draws of reference_concavity_sample_check."""
    rng = np.random.default_rng(seed)
    violations = []
    for _ in range(samples):
        x, u, v = (random_profile(game, rng, cap) for _ in range(3))
        lam = rng.uniform(0.0, 1.0)
        for i, p in enumerate(game.players):
            a, b, mid = x.copy(), x.copy(), x.copy()
            a[i], b[i], mid[i] = u[i], v[i], lam * u[i] + (1 - lam) * v[i]
            rhs = lam * game.payoff_vector(a)[i] + (1 - lam) * game.payoff_vector(b)[i]
            if game.payoff_vector(mid)[i] < rhs - tolerance:
                violations.append((p, (u[i],), (v[i],), float(lam)))
    return tuple(violations)


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


class TestDiagonalConcavityMatchesPerPlayerLoop:
    """diagonal_payoff, one row per player, must flag exactly the violations
    that scalar payoffs with one player's deviation at a time flag."""

    @pytest.mark.parametrize("ident", sorted(CONCAVITY_GAMES))
    @pytest.mark.parametrize("seed", [0, 1, 7, 2024])
    def test_same_violations(self, ident, seed):
        g = CONCAVITY_GAMES[ident]()
        got = reference_concavity_sample_check(g, samples=300, seed=seed, cap=20.0)
        assert got == per_player_concavity_violations(g, samples=300, seed=seed, cap=20.0)

    def test_violations_keep_sample_then_player_order(self):
        g = CONCAVITY_GAMES["convex"]()
        got = reference_concavity_sample_check(g, samples=300, seed=0)
        assert len({p for p, *_ in got}) == 2  # both players violate
        assert got == per_player_concavity_violations(g, samples=300, seed=0)


class TestMembershipColumnsMatchScalarCalls:
    """order_leq and gamma_membership on (n, S) columns must answer, column by
    column, what the scalar reference answers for one pair at a time."""

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_order_leq(self, seed):
        rng = np.random.default_rng(seed)
        # small integers, so that ties and both orders occur in every coordinate
        u, v = rng.integers(0, 3, size=(2, 3, 200)).astype(float)
        want = [_kkm_reference.order_leq(u[:, s], v[:, s]) for s in range(200)]
        assert order_leq(u, v).tolist() == want
        assert [bool(order_leq(u[:, s], v[:, s])) for s in range(200)] == want
        assert any(want) and not all(want)

    @pytest.mark.parametrize("ident", sorted(CONCAVITY_GAMES))
    def test_gamma_membership(self, ident, budget):
        g = CONCAVITY_GAMES[ident]()
        windows = [iv.truncated(20.0) for iv in g.strategy_sets]
        rng = np.random.default_rng(0)
        columns = uniform_samples(rng, 200, windows).T
        answers = []
        for x in uniform_samples(rng, 5, windows):
            z = np.concatenate([columns, x[:, None]], axis=1)  # x keeps itself
            want = [
                _kkm_reference.gamma_membership(g, x, z[:, s], budget.tolerance)
                for s in range(z.shape[1])
            ]
            assert gamma_membership(g, x, z, budget.tolerance).tolist() == want
            assert [bool(gamma_membership(g, x, c, budget.tolerance)) for c in z.T] == want
            answers += want
        assert any(answers)


class TestDistinctFixedPoints:
    def test_points_close_relative_to_their_scale_merge(self):
        x = np.array([800.0, 412.5])
        assert len(_distinct([x, x + 1.2e-5], 1e-6)) == 1

    def test_points_far_relative_to_their_scale_stay(self):
        x = np.array([0.5, 1.0])
        kept = _distinct([x, x + 1e-3, x], 1e-6)
        assert len(kept) == 2 and kept[0] is x


def reference_solve_nash(game, budget):
    """solve_nash one start at a time, each best response a one-row
    maximize_1d call: the reference the lockstep solver must reproduce exactly."""
    rng = np.random.default_rng(budget.seed)
    iter_budget = replace(budget, grid_step=budget.grid_step * 16)

    def best(i, x):
        def f(t):
            grid = np.repeat(x[:, None, None], t.shape[1], axis=2)
            grid[i] = t
            return game.utilities[i](grid)

        (arg,), _ = maximize_1d(f, game.strategy_sets[i].truncated(budget.truncation_cap),
                                iter_budget)
        return arg

    windows = [iv.truncated(budget.truncation_cap) for iv in game.strategy_sets]
    found = []
    for _ in range(N_STARTS):
        x = np.array([rng.uniform(w.lo, w.hi) for w in windows])
        for _ in range(budget.max_iterations):
            br = np.array([best(i, x) for i in range(game.n_players)])
            nxt = x + DAMPING * (br - x)
            change = float(np.max(np.abs(nxt - x)))
            x = nxt
            if change < budget.tolerance:
                break
        scale = max(1.0, float(np.max(np.abs(x))))
        if not any(np.max(np.abs(x - y)) <= 10 * budget.tolerance * scale for y in found):
            found.append(x)
    return [x for x in found if verify_nash(game, x, budget).verdict]


def lq_game(hi, sources):
    names = tuple("xyz"[: len(sources)])
    return Game.from_expressions(names, [Interval(0.0, hi)] * len(sources), sources)


SOLVER_GAMES = {
    "example-4.1:E2": e2_game,
    "quadratic-sanity": lambda: default_quadratic_sanity().problem.game_n,
    "constant-utility": constant_utility_game,
    "lq2-wide": lambda: lq_game(1000.0, ("x*(600 + 0.2*y) - 0.8*x^2", "y*(500 - 0.3*x) - 1.1*y^2")),
    "lq3-narrow": lambda: lq_game(
        10.0,
        (
            "x*(8 + 0.3*y - 0.2*z) - 1.5*x^2",
            "y*(6 - 0.1*x + 0.25*z) - 0.9*y^2",
            "z*(5 + 0.2*x + 0.1*y) - 1.2*z^2",
        ),
    ),
}


class TestLockstepSolverMatchesPerStartLoop:
    @pytest.mark.parametrize("ident", sorted(SOLVER_GAMES))
    def test_same_profiles(self, ident):
        g, budget = SOLVER_GAMES[ident](), SearchBudget()
        got = solve_nash(g, budget)
        assert got, "every game here has an equilibrium the solver finds"
        assert repr(got) == repr(reference_solve_nash(g, budget))
