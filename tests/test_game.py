"""Game construction, payoffs, order relation, regrets, and the Nash solver."""

import inspect
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import splitnash
from splitnash import (
    Game,
    Interval,
    SearchBudget,
    best_response,
    diagonal_payoff,
    order_leq,
    solve_nash,
    verify_nash,
)
from splitnash.game import DAMPING, N_STARTS, _damped_loop, _distinct, _first_order_points, uniform_samples
from splitnash import kernel
from splitnash.expr import own_polynomial, parse_utility
from splitnash.kernel import EvalError
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
        x = np.array([2.0, 3.0])
        assert diagonal_payoff(g, x, x).tolist() == [6.0, 1.0]

    def test_player_names_double_as_variables_by_default(self):
        g = Game.from_expressions(
            players=("x", "y"), intervals=(Interval(0, 1), Interval(0, 1)), sources=("x*y", "y")
        )
        x = np.array([0.5, 0.5])
        assert diagonal_payoff(g, x, x)[0] == 0.25

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

    @pytest.mark.parametrize(
        "source",
        ["+".join(["x"] * 201), "+".join(["x"] * 990), "(" * 260 + "x" + ")" * 260, "-" * 3000 + "x"],
        ids=["201-term-sum", "990-term-sum", "260-parentheses", "3000-minuses"],
    )
    def test_a_utility_too_long_to_compile_is_a_value_error(self, source):
        # Python's parser nests 200 levels at most, and the recursion limit
        # bounds the utility parser and the tree folds
        with pytest.raises(ValueError) as caught:
            Game.from_expressions(("y", "x"), (Interval(0, 1),) * 2, ("y", source))
        assert type(caught.value) is ValueError
        assert str(caught.value) == "utility of player 'x' is too long or too deeply nested to compile"

    def test_a_199_term_sum_compiles(self):
        g = Game.from_expressions(("x",), (Interval(0, 1),), ("+".join(["x"] * 199),))
        assert diagonal_payoff(g, np.array([1.0]), np.array([1.0])).tolist() == [199.0]
        assert g.utilities[0].polynomial is not None

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Game.from_expressions(players=("a", "b"), intervals=(Interval(0, 1),), sources=("a",))

    @pytest.mark.parametrize(
        "players, message", [((), "game needs at least one player"), (("a", "a"), "duplicate player identifiers")]
    )
    def test_players_are_named_once(self, players, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Game(players, (Interval(0, 1),) * len(players), (lambda v: v[0],) * len(players))

    def test_variable_names_must_align_with_players(self):
        with pytest.raises(ValueError, match="^variable_names must align with players$"):
            Game.from_expressions(("a", "b"), (Interval(0, 1),) * 2, ("x", "x"), variable_names=("x",))

    @pytest.mark.parametrize(
        "players, variable_names, message",
        [
            (("x", "x"), None, "duplicate player identifiers"),
            (("x", "x"), ("x", "y"), "duplicate player identifiers"),
            (("a", "b"), ("x", "x"), "duplicate variable names"),
        ],
    )
    def test_repeated_names_are_rejected_before_any_utility_compiles(self, players, variable_names, message):
        # compiled first, a repeated name left the own polynomial's variable
        # index one short: IndexError
        with pytest.raises(ValueError, match=f"^{message}$"):
            Game.from_expressions(players, (Interval(0, 1),) * 2, ("x", "x"), variable_names=variable_names)

    def test_an_unknown_player_is_a_key_error(self):
        with pytest.raises(KeyError, match="unknown player 'z'"):
            quadratic_game((1.0,), hi=1.0).player_index("z")

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
            assert np.array_equal(diagonal_payoff(g, x, x), [u(list(x)) for u in g.utilities])

    def test_deviation_changes_only_own_component_inputs(self):
        # player a's entry uses z_a with the others' x; player b's entry is
        # b's payoff after b deviates, holding a and c at x
        g = e1_game()
        x = np.array([1.0, 2.0, 4.0])
        z = np.array([2.0, 2.0, 4.0])
        d = diagonal_payoff(g, z, x)
        assert d[0] == diagonal_payoff(g, z, z)[0]
        assert d[1] == diagonal_payoff(g, x, x)[1]


    def test_profile_columns_give_one_column_per_profile(self, rng):
        # the quadratic utilities and the constant-utility game evaluate the
        # same way on arrays and on scalars, so the columns agree exactly
        for g in (quadratic_game((1.0, 2.0, 3.0), hi=5.0), constant_utility_game()):
            z = np.array([random_profile(g, rng, cap=5.0) for _ in range(7)]).T
            x = np.array([random_profile(g, rng, cap=5.0) for _ in range(7)]).T
            d, f = diagonal_payoff(g, z, x), diagonal_payoff(g, x, x)
            assert d.shape == f.shape == (g.n_players, 7)
            for s in range(7):
                assert np.array_equal(d[:, s], diagonal_payoff(g, z[:, s], x[:, s]))
                assert np.array_equal(f[:, s], diagonal_payoff(g, x[:, s], x[:, s]))

    def test_a_scalar_utility_fills_its_row(self):
        g = constant_utility_game()
        x = np.array([[0.0, 1.0, 2.0], [2.0, 1.0, 0.5]])
        assert diagonal_payoff(g, x + 1.0, x).tolist() == [[3.0] * 3, [3.0, 1.0, -0.5]]
        assert diagonal_payoff(g, x, x).tolist() == [[3.0] * 3, [2.0, 0.0, -1.5]]


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
            diagonal_payoff(self._game(), x, x)

    def test_diagonal_payoff_names_the_deviation(self):
        x = np.array([[0.0, 0.5], [5.0, 6.0]])
        z = np.array([[0.0, 1.0], [5.0, 8.0]])
        with pytest.raises(EvalError, match=r"^non-finite payoff nan of player 'b' at \[0.5, 8.0\]$"):
            diagonal_payoff(self._game(), z, x)

    def test_finite_payoffs_pass(self):
        x = np.array([[0.0, 0.5], [5.0, 6.0]])
        assert diagonal_payoff(self._game(), x, x).tolist() == [[0.0, 0.5], [5.0, 6.0]]


def test_one_evaluation_error_under_every_name():
    # so the NaN objective of test_kernel.py, the negative base of test_expr.py
    # and the -inf payoff of TestRegretsAndVerification raise splitnash.EvalError
    assert splitnash.EvalError is splitnash.expr.EvalError is kernel.EvalError
    assert issubclass(splitnash.EvalError, ValueError)


class TestRecordedValues:
    def test_source_game_payoffs_at_candidate(self):
        x = np.array([1.0, 2.0, 4.0])
        got = diagonal_payoff(e1_game(), x, x)
        assert got[0] == pytest.approx(4.0, abs=1e-12)
        assert got[1] == pytest.approx(6.0, abs=1e-12)
        assert got[2] == pytest.approx(2.0 * SQRT2 - 2.0, abs=1e-12)

    def test_target_game_payoffs_at_image(self):
        x = np.array([9.0, 12.0])
        got = diagonal_payoff(e2_game(), x, x)
        assert got[0] == pytest.approx(27.0, abs=1e-9)
        assert got[1] == pytest.approx(1296.0, abs=1e-9)

    def test_best_response_of_first_target_player(self):
        s, val = best_response(e2_game(), "d", np.array([0.0, 12.0]))
        assert s[0] == pytest.approx(9.0, abs=1e-4)
        assert val == pytest.approx(27.0, abs=1e-6)

    def test_best_response_of_second_target_player(self):
        t, _ = best_response(e2_game(), "e", np.array([9.0, 0.0]))
        assert t[0] == pytest.approx(12.0, abs=1e-4)

    def test_best_response_of_first_source_player(self):
        x, val = best_response(e1_game(), "a", np.array([0.0, 2.0, 4.0]))
        assert x[0] == pytest.approx(1.0, abs=1e-4)
        assert val == pytest.approx(4.0, abs=1e-6)

    def test_best_response_of_third_source_player_is_product(self):
        # analytic argmax of sqrt(x*y*z) - z/2 over z is z* = x*y = 2, not 4
        z, val = best_response(e1_game(), "c", np.array([1.0, 2.0, 0.0]))
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
        assert isinstance(strategy, float) and strategy == pytest.approx(2.0, abs=1e-3)
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
        # (0, 0) repels the damped map; only the lower-corner start lands on it
        sols = solve_nash(e2_game(), budget)
        assert len(sols) == 2
        assert np.allclose(sols[0], [9.0, 12.0], atol=1e-3)
        assert sols[1].tolist() == [0.0, 0.0]

    def test_every_returned_profile_verifies(self, budget):
        for x in solve_nash(quadratic_game((0.25, 4.75), hi=5.0), budget):
            assert verify_nash(quadratic_game((0.25, 4.75), hi=5.0), x, budget).verdict

    def test_utility_that_ignores_the_profile(self, budget):
        # x's compiled utility returns one float for a whole scan grid; every
        # grid point ties, and the tie goes to the lower bound; each start
        # ends at its last best response, (0, 2)
        g = Game.from_expressions(("x", "y"), (Interval(0, 2), Interval(0, 2)), ("3", "y - x"))
        arg, val = best_response(g, "x", np.array([1.0, 1.0]))
        assert (arg.tolist(), val.tolist()) == ([0.0], [3.0])
        sols = solve_nash(g, budget)
        assert [s.tolist() for s in sols] == [[0.0, 2.0]]

    def test_a_utility_that_returns_a_view_of_its_input(self, budget):
        # "y" compiles to y's coordinate itself, which for y's best response
        # is maximize_1d's own array of candidates; "y + 0" computes the same
        # values into a fresh array
        def game(u_y):
            return Game.from_expressions(
                ("x", "y"), (Interval(0, 2), Interval(0, 2)), ("x*(y - x)", u_y)
            )

        view, fresh = game("y"), game("y + 0")
        arg, val = best_response(view, "y", np.array([0.5, 0.5]))
        assert (arg.tolist(), val.tolist()) == ([2.0], [2.0])
        assert repr(solve_nash(view, budget)) == repr(solve_nash(fresh, budget))
        assert np.allclose(solve_nash(view, budget), [[1.0, 2.0]], atol=1e-5)

    def test_a_window_wider_than_the_largest_float(self, budget):
        # [-1e308, 1.7e308] is rejected; a width of 1.79e308 is a float
        with pytest.raises(ValueError, match="is wider than the largest float"):
            Game.from_expressions(("x",), (Interval(-1e308, 1.7e308),), ("-x",))
        g = Game.from_expressions(("x",), (Interval(-1e308, 7.9e307),), ("-x",))
        assert [s.tolist() for s in solve_nash(g, budget)] == [[-1e308]]

    def test_source_game_origin_found_at_the_default_budget(self):
        # the lower-corner start is E1's (0, 0, 0): every best response
        # against zeros is zero
        sols = solve_nash(e1_game(), SearchBudget())
        assert [s.tolist() for s in sols] == [[0.0, 0.0, 0.0]]

    def test_every_best_response_gets_a_game_a_player_and_a_profile(self, monkeypatch):
        # no budget reaches a best response: each call gets exactly (game, player, x)
        seen = []
        real = splitnash.game.best_response

        def recording(*args, **kwargs):
            seen.append((tuple(type(a) for a in args), kwargs, np.shape(args[-1])))
            return real(*args, **kwargs)

        monkeypatch.setattr(splitnash.game, "best_response", recording)
        solve_nash(e2_game(), SearchBudget(grid_step=0.05, truncation_cap=8.0))
        # the lockstep loop's (n, k) columns and verify_nash's (n,) profiles
        assert {shape for _, _, shape in seen} >= {(2, N_STARTS), (2,)}
        assert all(types == (Game, str, np.ndarray) and not kw for types, kw, _ in seen)

    def test_starts_merge_once_after_the_loop(self, monkeypatch):
        # every lockstep call carries exactly the starts still moving: the
        # calls for E2's 32 starts carry 3,210 columns in all, and the starts
        # merge in one _distinct call
        ks, merges = [], []
        real, distinct = splitnash.game.best_response, splitnash.game._distinct

        def recording(game, player, x):
            if np.ndim(x) == 2:
                ks.append(np.shape(x)[1])
            return real(game, player, x)

        def counting(x, tolerance):
            merges.append(x.shape)
            return distinct(x, tolerance)

        monkeypatch.setattr(splitnash.game, "best_response", recording)
        monkeypatch.setattr(splitnash.game, "_distinct", counting)
        solve_nash(e2_game(), SearchBudget())
        assert merges == [(2, N_STARTS)]
        assert ks[0] == N_STARTS and sum(ks) == 3210
        assert ks == sorted(ks, reverse=True), "a stopped start never moves again"

    def test_source_game_origin_equilibrium(self):
        # with a tight cap the damped iteration settles at the origin, which
        # verifies on the unbounded strategy sets as a genuine equilibrium
        bud = SearchBudget(truncation_cap=8.0)
        sols = solve_nash(e1_game(), bud)
        assert any(np.allclose(s, 0.0, atol=1e-4) for s in sols)
        for s in sols:
            assert verify_nash(e1_game(), s, bud).verdict


def scanned(game: Game) -> Game:
    """game with every utility behind a plain callable, which carries no
    polynomial reduction and no __wrapped__: best_response scans it."""
    return replace(game, utilities=tuple(lambda v, u=u: u(v) for u in game.utilities))


def counting_paths(monkeypatch) -> list[str]:
    """The kernel search, "scan" or "exact", of every best_response call from now on."""
    import splitnash.game as game_module

    paths = []
    for name, path in (("maximize_1d", "scan"), ("maximize_polynomial", "exact")):
        def wrapper(*args, fn=getattr(game_module, name), path=path):
            paths.append(path)
            return fn(*args)

        monkeypatch.setattr(game_module, name, wrapper)
    return paths


# (game, windows the profile columns are drawn in). On the scan path each
# column is its own maximize_1d call, which expands its own cap on a
# half-line: from the first cap of 1e3, these E1 columns expand it to 2e3 for
# player a (x = y*z/8), keep it for player b and expand it to 1.6e4 for
# player c (z = x*y), and these E2 columns expand it to 2e3 for player d
# (s = 0.75*t) and keep it for player e. The exact path expands no cap: on
# E1's and E2's half-lines the sign of the leading coefficient bounds each
# column.
BEST_RESPONSE_CASES = {
    "E1": (e1_game, [Interval(90.0, 100.0)] * 3),
    "E2": (e2_game, [Interval(9.0, 15.0), Interval(1400.0, 2000.0)]),
    "quadratic": (lambda: quadratic_game((-1.5, 0.0, 1.0 / 3.0), hi=5.0), [Interval(0.0, 5.0)] * 3),
    # E2's utilities on solve_nash's [0, 1000] windows: every column scans
    # 2,001 points, whose own-strategy terms are s^2 and t^4
    "wide": (
        lambda: replace(e2_game(), strategy_sets=(Interval(0.0, 1000.0),) * 2),
        [Interval(0.0, 1000.0)] * 2,
    ),
    "narrow": (
        lambda: Game.from_expressions(
            ("x", "y"),
            (Interval(0.0, 0.05), Interval(0.01, 0.02)),
            ("x*(0.5 + y) - 10*x^2", "y*(0.3 - x) - 10*y^2"),
        ),
        [Interval(0.0, 0.05), Interval(0.01, 0.02)],
    ),
}


class TestBestResponseColumnsMatchProfileCalls:
    @pytest.mark.parametrize("path", ["scan", "exact"])
    @pytest.mark.parametrize("ident", sorted(BEST_RESPONSE_CASES))
    def test_same_bits(self, ident, path, monkeypatch):
        caps, expand_cap = [], kernel._expand_cap

        def recording(*args):
            caps.append(expand_cap(*args))
            return caps[-1]

        monkeypatch.setattr(kernel, "_expand_cap", recording)
        paths = counting_paths(monkeypatch)
        make, windows = BEST_RESPONSE_CASES[ident]
        g = make() if path == "exact" else scanned(make())
        cols = uniform_samples(np.random.default_rng(11), 6, windows).T
        for p in g.players:
            before = len(caps)
            args, vals = best_response(g, p, cols)
            assert args.shape == vals.shape == (6,)
            for s in range(6):
                arg, val = best_response(g, p, cols[:, s])
                assert arg.shape == val.shape == (1,)
                assert arg.tobytes() == args[s:s + 1].tobytes()
                assert val.tobytes() == vals[s:s + 1].tobytes()
            columns, profiles = caps[before:before + 6], caps[before + 6:]
            assert columns == profiles, "each column expands the cap its profile call does"
        assert set(paths) == {path}
        if path == "scan":
            assert (max(caps, default=0.0) > kernel._FIRST_CAP) == (ident in ("E1", "E2"))
        else:
            assert caps == []

    @pytest.mark.parametrize("path", ["scan", "exact"])
    def test_solver_best_responses_are_seen_by_a_wrapper(self, path, monkeypatch):
        # bench/tracer.py counts a layer by replacing its module attribute
        import splitnash.game as game_module

        columns = []
        brs = game_module.best_response

        def counting(game, player, x):
            columns.append(np.size(x) // game.n_players)
            return brs(game, player, x)

        paths = counting_paths(monkeypatch)
        monkeypatch.setattr(game_module, "best_response", counting)
        solve_nash(e2_game() if path == "exact" else scanned(e2_game()), SearchBudget())
        # one exact search for all of a call's columns, one scan per column
        searches = len(columns) if path == "exact" else sum(columns)
        assert columns and paths == [path] * searches


def bumps_game(window: Interval) -> Game:
    """Player x's utility m*x - c*(x - p)*(x - p) on window, behind a plain
    callable, so that it is scanned; p, c and m are the other players'
    strategies, which column r of best_response's x sets."""
    def u(v):
        return v[3] * v[0] - v[2] * (v[0] - v[1]) * (v[0] - v[1])

    return Game(("x", "p", "c", "m"), (window,) + (Interval(-1e4, 1e4),) * 3, (u,) + (lambda v: 0.0,) * 3)


class TestScannedColumns:
    """A utility with no reduction is scanned by one maximize_1d call per
    column, so a column's best response does not depend on the other columns."""

    @pytest.mark.parametrize("near", [0, 1])
    def test_half_line_columns_match_one_column_calls(self, near):
        # y = 0 gives a 0.3-wide peak of 2 at 10 and a broad one of 1 at 500;
        # y = 1 peaks at 5e6, past a cap of 4.096e6. A cap shared by both
        # columns grew to 8.192e6, whose grid, 4,096 apart, missed the narrow
        # peak: it returned 500, value 1, where its own call returns 10
        def u(v):
            t = v[0]
            peaks = np.maximum(2.0 - ((t - 10.0) / 0.3) ** 2, 1.0 - ((t - 500.0) / 1000.0) ** 2)
            return np.where(v[1] == 0.0, peaks, -((t - 5e6) / 1e6) ** 2)

        g = Game(("x", "y"), (Interval(0.0), Interval(0.0, 1.0)), (u, lambda v: v[1]))
        cols = np.array([[0.0, 0.0], [1.0, 1.0]])
        cols[1, near] = 0.0
        args, vals = best_response(g, "x", cols)
        for r in range(2):
            arg, val = best_response(g, "x", cols[:, r])
            assert (args[r], vals[r]) == (arg[0], val[0])
        assert (args[near], vals[near]) == (10.0, 2.0)
        assert args[1 - near] == pytest.approx(5e6, rel=1e-12)

    def test_columns_keep_their_own_maximizers(self):
        # the column peaked below the window ends at its boundary
        cols = np.array([[0.0] * 4, [-1.0, 1.0, 4.25, 9.5], [1.0] * 4, [0.0] * 4])
        args, vals = best_response(bumps_game(Interval(0.0, 10.0)), "x", cols)
        assert args == pytest.approx([0.0, 1.0, 4.25, 9.5], abs=1e-9)
        assert vals == pytest.approx([-1.0, 0.0, 0.0, 0.0], abs=1e-18)

    def test_a_non_finite_value_in_one_column_names_its_point_window_and_player(self):
        u = lambda v: np.where((v[1] == 2.0) & (v[0] > 2.505), np.nan, -v[0])
        g = Game(("x", "y"), (Interval(0.0, 10.0), Interval(0.0, 2.0)), (u, lambda v: v[1]))
        with pytest.raises(EvalError) as caught:
            best_response(g, "x", np.array([[0.0] * 3, [0.0, 1.0, 2.0]]))
        assert str(caught.value) == (
            "non-finite value nan at 2.5100000000000002 on [0.0, 10.0] in the best response of player 'x'"
        )

    def test_an_opponent_free_utility_gives_every_column_the_one_row_result(self):
        # one (1, P) row of values whatever the opponents; the peak at 6.25e6
        # makes each column's cap double many times
        f = lambda t: np.sqrt(t) - t / 5000.0
        g = Game(("x", "y"), (Interval(0.0), Interval(0.0, 1.0)), (lambda v: f(v[0]), lambda v: v[1]))
        args, vals = best_response(g, "x", np.array([[0.0] * 4, [0.0, 0.25, 0.5, 1.0]]))
        x, v = kernel.maximize_1d(f, Interval(0.0))
        assert args.tobytes() == np.full(4, x).tobytes()
        assert vals.tobytes() == np.full(4, v).tobytes()

    # column r equals maximize_1d on column r's function alone, bit for bit;
    # the bumps use + - * only, which round alike on arrays and floats.
    # Windows of one cell (under 0.01 wide), of cells 0.01 wide (under 20
    # wide) and of 2,000 cells coarsened past 0.01
    @given(
        lo=st.floats(-50.0, 50.0),
        width=st.one_of(st.floats(0.0, 0.05), st.floats(0.0, 20.0), st.floats(0.0, 3000.0)),
        rows=st.lists(
            st.tuples(st.floats(-100.0, 3000.0), st.floats(0.0, 10.0), st.floats(-1.0, 1.0)),
            min_size=1,
            max_size=40,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_columns_match_one_row_calls(self, lo, width, rows):
        iv = Interval(lo, lo + width)
        cols = np.array([[lo] * len(rows), *zip(*rows)])
        args, vals = best_response(bumps_game(iv), "x", cols)
        for r, (peak, curvature, tilt) in enumerate(rows):
            f = lambda t: tilt * t - curvature * (t - peak) * (t - peak)
            assert (args[r], vals[r]) == kernel.maximize_1d(f, iv)


# a narrow peak of height 0.5002 at 500.2, between the points of a scan of
# [0, 1000] that _MAX_SCAN_CELLS coarsens to a step of 0.5
SPIKE = "0.001*x - (x-10)^2*(x-500.2)^2*((x-10)^2+1)^2*1e-8"


def polynomial_game(coefficients, q: int, lo: float, hi: float) -> Game:
    """Player x's utility sum_j (a_j + b_j*y) * x^(j/q) on [lo, hi]; y's is y on [0, 1]."""
    terms = " + ".join(f"({a!r} + {b!r}*y)*x^{j / q!r}" for j, (a, b) in enumerate(coefficients))
    return Game.from_expressions(("x", "y"), (Interval(lo, hi), Interval(0.0, 1.0)), (terms, "y"))


def underflow_game() -> Game:
    """-((x*1e-200 - 1)^2) on [0, 2e200], which peaks at 1e200 with value 0: its
    x^2 coefficient, 1e-400, underflows to -0.0, dropping the derivative's root."""
    return Game.from_expressions(("x",), (Interval(0.0, 2e200),), ("-((x*1e-200 - 1)^2)",))


class TestExactBestResponses:
    """A utility that is a polynomial in a root of the player's own strategy
    is maximized at its window's ends and its derivative's roots."""

    def test_a_narrow_peak_between_scan_points_is_found(self):
        g = Game.from_expressions(("x",), (Interval(0.0, 1000.0),), (SPIKE,))
        report = verify_nash(g, np.array([10.183]), SearchBudget())
        assert not report.verdict
        assert report.regrets[0] == pytest.approx(0.4901, abs=1e-4)
        assert report.witnesses["x"].strategy == pytest.approx(500.2, abs=1e-9)

    def test_three_real_roots_tie_to_the_smaller_point(self):
        # -(x^4) + 2x^2 has stationary points -1, 0 and 1, and equal peaks at +-1
        g = Game.from_expressions(("x",), (Interval(-2.0, 2.0),), ("-(x^4) + 2*x^2",))
        args, vals = best_response(g, "x", np.array([0.0]))
        assert (args.tolist(), vals.tolist()) == ([-1.0], [1.0])

    @given(
        coefficients=st.lists(st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)), min_size=1, max_size=5),
        q=st.sampled_from([1, 2]),
        lo=st.floats(-10.0, 10.0),
        width=st.floats(0.0, 20.0),
        k=st.integers(1, 6),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_never_below_the_scan_and_inside_the_window(self, coefficients, q, lo, width, k, seed):
        lo = lo if q == 1 else abs(lo)  # a root of t needs t >= 0
        hi = lo + width
        g = polynomial_game(coefficients, q, lo, hi)
        cols = np.stack([np.zeros(k), np.random.default_rng(seed).uniform(0.0, 1.0, k)])
        args, vals = best_response(g, "x", cols)
        _, scan = best_response(scanned(g), "x", cols)
        # rounding at the value's scale: every term at its largest on the window
        reach = max(1.0, abs(lo), abs(hi))
        scale = sum(np.abs(a + b * cols[1]) * reach ** (j / q) for j, (a, b) in enumerate(coefficients))
        assert (vals >= scan - 1e-12 * scale).all()
        assert ((lo <= args) & (args <= hi)).all()
        for s in range(k):
            arg, val = best_response(g, "x", cols[:, s])
            assert arg.tobytes() == args[s:s + 1].tobytes()
            assert val.tobytes() == vals[s:s + 1].tobytes()

    def test_the_underflow_game_pays_more_at_its_peak_than_at_0(self):
        g = underflow_game()
        peak, zero = np.array([1e200]), np.array([0.0])
        assert diagonal_payoff(g, peak, peak).tolist() == [0.0]
        assert diagonal_payoff(g, zero, zero).tolist() == [-1.0]

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="the x^2 coefficient underflows (ROADMAP item 2)")
    def test_an_underflowing_coefficient_certifies_no_false_equilibrium(self):
        report = verify_nash(underflow_game(), np.array([0.0]), SearchBudget())
        assert not report.verdict, report

    def test_only_a_reduction_for_the_players_own_strategy_is_used(self, monkeypatch):
        paths = counting_paths(monkeypatch)
        g = replace(e2_game(), strategy_sets=(Interval(0.0, 20.0),) * 2)

        def wrapped(u):
            def wrapper(v):
                return u(v)

            wrapper.__wrapped__ = u
            return wrapper

        cases = [
            (g, "exact"),
            # a counting wrapper, as bench/tracer.py's, leads to the reduction
            (replace(g, utilities=tuple(map(wrapped, g.utilities))), "exact"),
            # a callable without __wrapped__ is scanned
            (scanned(g), "scan"),
            # player d's slot holding e's utility, whose reduction is in e's strategy
            (replace(g, utilities=g.utilities[::-1]), "scan"),
        ]
        for game, path in cases:
            paths.clear()
            best_response(game, "d", np.array([9.0, 12.0]))
            assert paths == [path]

    def test_a_root_of_the_strategy_is_exact_on_a_nonnegative_window_only(self, monkeypatch):
        paths = counting_paths(monkeypatch)
        # x^0.5 - x peaks at x = 1/4 with value 1/4
        g = Game.from_expressions(("x",), (Interval(0.0, 1.0),), ("x^0.5 - x",))
        assert best_response(g, "x", np.array([0.5])) == ([0.25], [0.25])
        with pytest.raises(EvalError, match="fractional power of negative base"):
            best_response(replace(g, strategy_sets=(Interval(-1.0, 1.0),)), "x", np.array([0.5]))
        assert paths == ["exact", "scan"]

    @pytest.mark.parametrize(
        "utility",
        [
            "x^20*x^20",  # a product past degree 32
            "(x + 1)^0.5",  # a fractional power of a sum in x
            "(((x^0.5)^0.5)^0.5)^0.5",  # root 16, above 8
            "x^8 + x^0.125",  # degree 8 * root 8 = 64 in x^(1/8)
        ],
    )
    def test_a_utility_past_the_reduction_is_scanned(self, utility, monkeypatch):
        paths = counting_paths(monkeypatch)
        assert own_polynomial(parse_utility(utility), ("x",), 0) is None
        g = Game.from_expressions(("x",), (Interval(0.0, 1.0),), (utility,))
        arg, _ = best_response(g, "x", np.array([0.5]))
        assert arg.tolist() == [1.0] and paths == ["scan"]

    def test_a_non_finite_coefficient_leaves_the_profile_to_the_scan(self, monkeypatch):
        # x's coefficient y^2 overflows to inf at y = 1e200; the scan then
        # names the utility's own nan, 0 * inf, at x = 0
        paths = counting_paths(monkeypatch)
        g = Game.from_expressions(("x", "y"), (Interval(0.0, 1.0), Interval(0.0, 1e300)), ("x*y^2 - x^2", "y"))
        with pytest.raises(EvalError) as caught, np.errstate(over="ignore", invalid="ignore"):
            best_response(g, "x", np.array([0.5, 1e200]))
        assert str(caught.value) == (
            "non-finite value nan at 0.0 on [0.0, 1.0] in the best response of player 'x'"
        )
        assert paths == ["scan"]

    def test_a_leading_term_that_cancels_to_rounding_is_no_growth(self):
        # 0.1 + 0.2 - 0.3 is 5.6e-17, far below 2^-40 of the 0.6 summed into it
        g = Game.from_expressions(("x",), (Interval(0.0),), ("0.1*x^2 + 0.2*x^2 - 0.3*x^2 - x",))
        assert best_response(g, "x", np.array([1.0])) == ([0.0], [0.0])

    @pytest.mark.parametrize("utility, grows", [("x", "1.0*t^1.0"), ("x^2*y - x", "0.5*t^2.0")])
    def test_a_positive_leading_term_is_unbounded_above(self, utility, grows):
        g = Game.from_expressions(("x", "y"), (Interval(0.0), Interval(0.0, 1.0)), (utility, "y"))
        with pytest.raises(EvalError) as caught:
            best_response(g, "x", np.array([[1.0, 1.0], [0.0, 0.5]]))
        assert str(caught.value) == (
            f"leading term {grows} grows without bound: unbounded above on [0.0, inf)"
            " in the best response of player 'x'"
        )


class TestScannedHalfLines:
    """A callable's best response on [0, inf) is followed as far as it goes:
    no budget cuts it short, and one that never turns down is unbounded."""

    @staticmethod
    def _game(utility: str) -> Game:
        return scanned(Game.from_expressions(("x",), (Interval(0.0),), (utility,)))

    @pytest.mark.parametrize(
        "budget", [SearchBudget(), SearchBudget(max_iterations=1), SearchBudget(truncation_cap=1e-300)]
    )
    def test_no_budget_cuts_a_best_response_short(self, budget):
        report = verify_nash(self._game("-((x - 5000)^2)"), np.array([2000.0]), budget)
        assert not report.verdict and report.regrets == (9000000.0,)

    @pytest.mark.parametrize("utility", ["x", "x^2"])
    def test_a_value_increasing_until_the_cap_overflows_is_unbounded(self, utility):
        # x^2 reaches +inf at 2.6e154 while the cap doubles: unbounded, not non-finite
        with pytest.raises(EvalError) as caught, np.errstate(over="ignore"):
            verify_nash(self._game(utility), np.array([2.0]), SearchBudget())
        assert str(caught.value) == (
            "value still increasing as the cap overflows: unbounded above on [0.0, inf)"
            " in the best response of player 'x'"
        )

    def test_an_overflowing_scan_names_its_first_non_finite_point(self):
        with pytest.raises(EvalError) as caught, np.errstate(over="ignore", invalid="ignore"):
            solve_nash(scanned(e2_game()), SearchBudget(truncation_cap=1e308))
        assert str(caught.value) == (
            "non-finite value nan at 5e+304 on [0.0, 1e+308] in the best response of player 'd'"
        )


# x^0.3 is a power of x^(1/10), a root above 8: no reduction, so the scan
NON_REDUCIBLE = ("x^0.3*(1+y)^0.5 - 0.5*x", "y^0.3*(1+x)^0.5 - 0.5*y")


class TestVerificationReadsNoSearchKnob:
    """A budget reaches a verification through its tolerance alone: the scan's
    cell width, bracket goal and first cap are the kernel's."""

    @staticmethod
    def _case(ident):
        if ident == "E2-scanned":
            # d's best response 1125 takes the first cap of 1e3 past itself
            return scanned(e2_game()), np.array([3.0, 1500.0])
        g = Game.from_expressions(("x", "y"), (Interval(0.0, 10.0),) * 2, NON_REDUCIBLE)
        return g, uniform_samples(np.random.default_rng(4), 1, g.strategy_sets)[0]

    @pytest.mark.parametrize("ident", ["E2-scanned", "non-reducible"])
    def test_same_report_at_a_coarse_grid_step_and_a_small_cap(self, ident, monkeypatch):
        g, x = self._case(ident)
        paths = counting_paths(monkeypatch)
        default = verify_nash(g, x, SearchBudget())
        coarse = verify_nash(g, x, SearchBudget(grid_step=0.5, truncation_cap=1.0))
        assert set(paths) == {"scan"}
        assert np.array(coarse.regrets).tobytes() == np.array(default.regrets).tobytes()
        assert coarse.witnesses == default.witnesses

    @pytest.mark.parametrize("search", [best_response, kernel.maximize_1d, kernel._expand_cap])
    def test_no_search_takes_a_budget(self, search):
        params = inspect.signature(search).parameters
        assert "budget" not in params
        assert all("SearchBudget" not in str(p.annotation) for p in params.values())


class TestUtilitiesTakeCoordinates:
    """A utility reads coordinate j as v[j] of a sequence whose entries
    broadcast together, and a deviation replaces one entry: best_response
    passes (k, 1) opponents with (k, P) candidates on the exact path and
    (1, 1) ones with (1, P) candidates per scanned column, and
    diagonal_payoff deviates a stack of profiles against shared columns."""

    def test_an_opponent_only_utility_broadcasts_over_the_candidates(self):
        # x's utility "y" gives one (k, 1) value per column for all candidates,
        # which all tie, so x's best response is its lower bound
        g = Game.from_expressions(("x", "y"), (Interval(0, 2), Interval(0, 2)), ("y", "x*y"))
        cols = uniform_samples(np.random.default_rng(3), 3, g.strategy_sets).T
        args, vals = best_response(g, "x", cols)
        for s in range(3):
            arg, val = best_response(g, "x", cols[:, s])
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

    @pytest.mark.parametrize("path", ["scan", "exact"])
    def test_best_response_passes_opponent_columns_and_candidates(self, path):
        seen = []

        def recording(u):
            def wrapped(v):
                seen.append((getattr(v, "shape", None), [np.shape(c) for c in v], [np.ravel(c) for c in v]))
                return u(v)

            if path == "exact":  # the reduction is found through __wrapped__
                wrapped.__wrapped__ = u
            return wrapped

        g = e1_game()
        g = replace(g, utilities=tuple(recording(u) for u in g.utilities))
        cols = uniform_samples(np.random.default_rng(2), 4, [Interval(1.0, 3.0)] * 3).T
        for i, p in enumerate(g.players):
            seen.clear()
            best_response(g, p, cols)
            assert all(whole is None or len(whole) < 3 for whole, _, _ in seen), "no (n, k, P) profile array"
            if path == "exact":
                # one call for all four columns: (4, 1) opponents, (4, P) candidates
                [(_, shapes, _)] = seen
                assert shapes[i][0] == 4 and all(s == (4, 1) for j, s in enumerate(shapes) if j != i)
                continue
            # one scan per column, in column order, on that column's (1, 1)
            # opponents: the half-line's cap probes, one scan call as one
            # (1, P) row, then the rescans
            column = {tuple(np.delete(cols[:, r], i)): r for r in range(4)}
            order = [column[tuple(float(c[0]) for j, c in enumerate(v) if j != i)] for _, _, v in seen]
            assert order == sorted(order) and set(order) == set(range(4))
            for r in range(4):
                calls = [shapes for (_, shapes, _), q in zip(seen, order) if q == r]
                assert all(s == (1, 1) for shapes in calls for j, s in enumerate(shapes) if j != i)
                own = [shapes[i] for shapes in calls]
                probes = own.count((1, 2))
                assert probes and own[:probes] == [(1, 2)] * probes, "the half-line is probed"
                (rows, points), *rescans = own[probes:]
                assert rows == 1 and points > 2, "one scan call, as one (1, P) row"
                assert rescans and rescans == [(1, kernel._ZOOM_POINTS)] * len(rescans)


class TestMembershipAndConcavity:
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
            rhs = lam * diagonal_payoff(game, a, a)[i] + (1 - lam) * diagonal_payoff(game, b, b)[i]
            if diagonal_payoff(game, mid, mid)[i] < rhs - tolerance:
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
    """order_leq on (n, S) columns must answer, column by column, what the
    scalar reference answers for one pair at a time."""

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_order_leq(self, seed):
        rng = np.random.default_rng(seed)
        # small integers, so that ties and both orders occur in every coordinate
        u, v = rng.integers(0, 3, size=(2, 3, 200)).astype(float)
        want = [_kkm_reference.order_leq(u[:, s], v[:, s]) for s in range(200)]
        assert order_leq(u, v).tolist() == want
        assert [bool(order_leq(u[:, s], v[:, s])) for s in range(200)] == want
        assert any(want) and not all(want)


def columns(*points):
    return np.column_stack([np.atleast_1d(np.asarray(p, dtype=float)) for p in points])


class TestDistinctFixedPoints:
    def test_points_close_relative_to_their_scale_merge(self):
        x = np.array([800.0, 412.5])
        assert len(_distinct(columns(x, x + 1.2e-5), 1e-6)) == 1

    def test_points_far_relative_to_their_scale_stay(self):
        x = np.array([0.5, 1.0])
        kept = _distinct(columns(x, x + 1e-3, x), 1e-6)
        assert len(kept) == 2 and kept[0] == 0

    def test_the_earliest_start_of_each_cluster_is_kept(self):
        a, b = np.array([1.0, 2.0]), np.array([5.0, 5.0])
        assert _distinct(columns(a, b, a + 5e-6, b - 5e-6, a), 1e-6) == [0, 1]
        assert _distinct(columns(b - 5e-6, a, b, a + 5e-6), 1e-6) == [0, 1]

    def test_the_radius_is_the_later_points(self):
        # radii 10 * 0.01 * max(1, |x|): 0.1 at 1.0 and 0.1105 at 1.105,
        # and the two are 0.105 apart
        assert _distinct(columns(1.0, 1.105), 0.01) == [0]
        assert _distinct(columns(1.105, 1.0), 0.01) == [0, 1]

    def test_a_chain_merges_into_kept_points_only(self):
        # radius 1e-5 for all three: a ~ b and b ~ c, but not a ~ c
        a, b, c = 0.0, 8e-6, 1.6e-5
        assert _distinct(columns(a, b, c), 1e-6) == [0, 2]  # b retired, so c survives
        assert _distinct(columns(b, c), 1e-6) == [0]  # b kept, so c merges into it
        assert _distinct(columns(a, c), 1e-6) == [0, 1]


def reference_solve_nash(game, budget):
    """solve_nash one start at a time, each best response a one-profile
    best_response call: the reference the lockstep solver must reproduce exactly."""
    rng = np.random.default_rng(budget.seed)
    windows = [iv.truncated(budget.truncation_cap) for iv in game.strategy_sets]
    truncated = replace(game, strategy_sets=tuple(windows))

    def best(i, x):
        (arg,), _ = best_response(truncated, game.players[i], x)
        return arg

    found = []
    starts = [np.array([rng.uniform(w.lo, w.hi) for w in windows]) for _ in range(N_STARTS - 1)]
    for x in starts + [np.array([w.lo for w in windows])]:
        for _ in range(budget.max_iterations):
            br = np.array([best(i, x) for i in range(game.n_players)])
            nxt = x + DAMPING * (br - x)
            if float(np.max(np.abs(nxt - x))) < budget.tolerance:
                x = br  # a start that stops ends at its last best response
                break
            x = nxt
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
    # (0, 0) and (1, 1) split the starts, so a wrong merge drops one of them
    "stag-hunt": lambda: lq_game(1.0, ("x*(2*y - 1)", "y*(2*x - 1)")),
    # every diagonal point is an equilibrium: 32 points come back
    "coordination-continuum": lambda: lq_game(10.0, ("-((x - y)^2)", "-((y - x)^2)")),
    # E2 behind plain callables: the lockstep loop, one maximize_1d call per column
    "example-4.1:E2-scanned": lambda: scanned(e2_game()),
}
# A budget other than SearchBudget() keeps the per-start reference under
# about 0.5 s. 18 of the stag hunt's starts fall into the damped map's
# 2-cycle between (1/3, 2/3) and (2/3, 1/3) and run to the iteration cap:
# 0.7 s at 500 iterations. Its polynomial utilities read no grid step.
SOLVER_BUDGETS = {"stag-hunt": SearchBudget(max_iterations=60)}


class TestLockstepSolverMatchesPerStartLoop:
    """The damped loop itself, which solve_nash skips where every own
    derivative is affine (lq2-wide, lq3-narrow, quadratic-sanity, stag-hunt)."""

    @pytest.mark.parametrize("ident", sorted(SOLVER_GAMES))
    def test_same_profiles(self, ident):
        g, budget = SOLVER_GAMES[ident](), SOLVER_BUDGETS.get(ident, SearchBudget())
        got = _damped_loop(g, budget)
        assert got, "every game here has an equilibrium the solver finds"
        assert repr(got) == repr(reference_solve_nash(g, budget))


def one_player(source: str, lo: float, hi: float) -> Game:
    return Game.from_expressions(("x",), (Interval(lo, hi),), (source,))


# ROADMAP item 1's reproduced misses of damped best-response iteration: a
# point that verifies and that the loop did not return. When a solver
# finds it, the strict xfail fails, and its marker comes off. The
# first-order patterns find the games with affine own derivatives, the
# damped loop's stop at the last best response finds the corners of the
# others, and E1's interior point is left.
SOLVER_MISSES = {
    "E1-interior": (e1_game, (4 ** (1 / 3), 2 * SQRT2, 4 ** (1 / 3) * 2 * SQRT2)),
    # 18 of the 32 starts cycle between (1/3, 2/3) and (2/3, 1/3)
    "stag-hunt": (lambda: lq_game(1.0, ("x*(2*y - 1)", "y*(2*x - 1)")), (0.5, 0.5)),
    # the loop returns []
    "matching-pennies": (lambda: lq_game(1.0, ("x*(2*y - 1)", "-y*(2*x - 1)")), (0.5, 0.5)),
    # corners where the own payoff's slope exceeds 1: the starts stopped about 1e-6
    # inside, where the regret is the slope times that distance; at the lower
    # corner _distinct also kept an earlier start in place of the corner start
    "upper-corner-10x": (lambda: one_player("10*x", 0.0, 10.0), (10.0,)),
    "lower-corner-minus-x2": (lambda: one_player("-(x^2)", 1.0, 10.0), (1.0,)),
    # the same, for own derivatives that are not affine, which the damped loop
    # solves: a start that stops now ends at its last best response, the corner
    "upper-corner-x3": (lambda: one_player("x^3", 0.0, 2.0), (2.0,)),
    "upper-corner-x3-minus-3x": (lambda: one_player("x^3 - 3*x", 0.0, 2.0), (2.0,)),
    "upper-corner-shifted-cube": (lambda: one_player("(x+1)^3", 0.0, 2.0), (2.0,)),
    "upper-corner-x33": (lambda: one_player("x^33", 0.0, 2.0), (2.0,)),
    "lower-corner-minus-x3": (lambda: one_player("-(x^3)", 0.0, 2.0), (0.0,)),
    # its own derivative 2e308*x overflows, so it has no first-order row
    "upper-corner-overflowing-row": (lambda: one_player("1e308*x^2", 0.0, 1.0), (1.0,)),
}
# every point solve_nash returns for the misses it finds, in pattern or start order
FOUND_MISSES = {
    "stag-hunt": [[0.0, 0.0], [1.0, 1.0], [0.5, 0.5]],
    "matching-pennies": [[0.5, 0.5]],
    "upper-corner-10x": [[10.0]],
    "lower-corner-minus-x2": [[1.0]],
    "upper-corner-x3": [[2.0]],
    "upper-corner-x3-minus-3x": [[2.0]],
    "upper-corner-shifted-cube": [[2.0]],
    "upper-corner-x33": [[2.0]],
    "lower-corner-minus-x3": [[0.0]],
    "upper-corner-overflowing-row": [[1.0]],
}


class TestSolverMisses:
    @pytest.mark.parametrize("ident", sorted(SOLVER_MISSES))
    def test_the_missed_point_verifies(self, ident, budget):
        make, point = SOLVER_MISSES[ident]
        assert verify_nash(make(), np.array(point), budget).verdict

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="damped best responses miss it (ROADMAP item 1)")
    @pytest.mark.parametrize("ident", sorted(set(SOLVER_MISSES) - set(FOUND_MISSES)))
    def test_the_solver_finds_the_point(self, ident, budget):
        make, point = SOLVER_MISSES[ident]
        found = solve_nash(make(), budget)
        assert any(np.allclose(x, point, rtol=1e-4, atol=1e-4) for x in found), found

    @pytest.mark.parametrize("ident", sorted(FOUND_MISSES))
    def test_the_solver_returns_exactly_the_equilibria(self, ident, budget):
        assert [x.tolist() for x in solve_nash(SOLVER_MISSES[ident][0](), budget)] == FOUND_MISSES[ident]


def lq_contraction_game(seed: int, n: int, hi: float) -> tuple[Game, np.ndarray]:
    """A seeded n-player game u_i = x_i*(a_i + sum_j b_ij x_j) - c_i x_i^2 on
    [0, hi], |b_ij| <= 0.3 c_i, as the benchmark's LQ games are drawn, and
    the solution of (2C - B) x = a, its one equilibrium, inside the window."""
    rng = np.random.default_rng(seed)
    c = rng.uniform(0.5, 2.0, n)
    b = rng.uniform(-0.3, 0.3, (n, n)) * c[:, None]
    np.fill_diagonal(b, 0.0)
    a = (2.0 * np.diag(c) - b) @ (rng.uniform(0.2, 0.8, n) * min(hi, 1000.0))
    a, b, c = a.tolist(), b.tolist(), c.tolist()
    names = [f"x{i}" for i in range(n)]
    sources = [
        f"{names[i]}*({a[i]!r}" + "".join(f" + {b[i][j]!r}*{names[j]}" for j in range(n) if j != i)
        + f") - {c[i]!r}*{names[i]}^2"
        for i in range(n)
    ]
    game = Game.from_expressions(names, [Interval(0.0, hi)] * n, sources)
    return game, np.linalg.solve(2.0 * np.diag(c) - np.array(b), a)


class TestFirstOrderPatterns:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]), st.sampled_from([10.0, 1000.0, np.inf]))
    def test_a_contraction_game_has_its_linear_solution_alone(self, seed, n, hi):
        game, star = lq_contraction_game(seed, n, hi)
        points = _first_order_points(game)
        assert points.shape == (n, 1)
        np.testing.assert_allclose(points[:, 0], star, rtol=1e-9, atol=0.0)
        assert verify_nash(game, points[:, 0], SearchBudget()).verdict

    @pytest.mark.parametrize("ident", ["lq2-wide", "lq3-narrow", "quadratic-sanity", "stag-hunt", "lq2-half-line"])
    def test_no_search_knob_changes_the_result(self, ident):
        make = {**SOLVER_GAMES, "lq2-half-line": lambda: lq_contraction_game(5, 2, np.inf)[0]}[ident]
        g = make()
        want = [x.tobytes() for x in solve_nash(g, SearchBudget())]
        for budget in (SearchBudget(seed=7), SearchBudget(max_iterations=1), SearchBudget(truncation_cap=1e-3)):
            assert [x.tobytes() for x in solve_nash(g, budget)] == want

    @pytest.mark.parametrize(
        "make",
        [
            constant_utility_game,
            # the constant-source split's source game: every profile is a point
            lambda: Game.from_expressions(("x", "y"), [Interval(0.0, 5.0)] * 2, ("1", "1")),
            SOLVER_GAMES["coordination-continuum"],
        ],
        ids=["ignores-the-profile", "constant-source", "coordination-continuum"],
    )
    def test_a_continuum_takes_the_damped_loop(self, make, budget):
        g = make()
        assert _first_order_points(g) is None
        assert repr(solve_nash(g, budget)) == repr(_damped_loop(g, budget))

    def test_an_overflowing_derivative_takes_the_damped_loop(self):
        # x's own derivative 1e10*y - 2*x overflows with y at lo
        g = Game.from_expressions(
            ("x", "y"), (Interval(0.0, 1e-10), Interval(-1e308, 1e307)), ("1e10*x*y - x^2", "-y")
        )
        assert _first_order_points(g) is None

    def test_overflowing_coefficients_leave_the_best_response_to_the_scan_silently(self):
        # x's coefficient 1e10*y overflows at y = -1e308: no RuntimeWarning, which
        # the suite raises, and the scan finds x = 0
        g = Game.from_expressions(
            ("x", "y"), (Interval(0.0, 1e-10), Interval(-1e308, 1e307)), ("1e10*x*y - x^2", "-y")
        )
        arg, val = best_response(g, "x", np.array([0.0, -1e308]))
        assert (arg.tolist(), val.tolist()) == ([0.0], [-0.0])

    def test_an_overflowing_first_order_row_takes_the_damped_loop(self, budget):
        # the own derivative 2e308*x overflows: no row, and the loop's starts
        # end at their last best response, the corner
        g = one_player("1e308*x^2", 0.0, 1.0)
        assert g.utilities[0].polynomial is not None
        assert g.utilities[0].polynomial.first_order is None
        assert [x.tolist() for x in solve_nash(g, budget)] == [[1.0]]

    def test_more_than_eight_players_take_the_damped_loop(self):
        g = quadratic_game(tuple(range(1, 10)), hi=10.0)
        assert _first_order_points(g) is None
        assert _first_order_points(quadratic_game(tuple(range(1, 9)), hi=10.0)).T.tolist() == [list(range(1, 9))]
