"""Linear operators, split problems, relatedness/surjectivity audits, CDP
sampling, and the deviation-dominance intersection probe."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from splitnash import (
    EvalError,
    Game,
    Interval,
    LinearOperator,
    SearchBudget,
    SplitProblem,
    apply_operator,
    cdp_sample_check,
    check_relatedness,
    check_surjectivity,
    kkm_intersection_probe,
    kkm_t_membership,
    solve_split,
    verify_split_equilibrium,
)
from splitnash import split as split_module
from splitnash.cli import _json_default
from splitnash.game import diagonal_payoff, order_leq, uniform_samples
from splitnash.models import (
    TWO_ECONOMY_MATRIX,
    default_quadratic_sanity,
    e1_game,
    e2_game,
    example_4_1,
    quadratic_game,
)
from splitnash.repeated import make_repeated_problem
from splitnash.split import CdpReport, CdpWitness

import _kkm_reference


class TestOperator:
    def test_candidate_image_is_exact(self):
        op = LinearOperator(TWO_ECONOMY_MATRIX)
        got = apply_operator(op, np.array([1.0, 2.0, 4.0]))
        assert got.tolist() == [9.0, 12.0]

    def test_matrix_is_read_only(self):
        op = LinearOperator(np.array([[1.0, 2.0], [3.0, 4.0]]))
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 9.0

    def test_linearity_on_samples(self, rng):
        op = LinearOperator(TWO_ECONOMY_MATRIX)
        for _ in range(200):
            u = rng.uniform(-10, 10, size=3)
            v = rng.uniform(-10, 10, size=3)
            lam = float(rng.uniform(0, 1))
            lhs = apply_operator(op, lam * u + (1 - lam) * v)
            rhs = lam * apply_operator(op, u) + (1 - lam) * apply_operator(op, v)
            assert np.allclose(lhs, rhs, atol=1e-10)

    def test_dimension_mismatch_rejected(self):
        op = LinearOperator(TWO_ECONOMY_MATRIX)
        with pytest.raises(ValueError):
            apply_operator(op, np.array([1.0, 2.0]))

    @pytest.mark.parametrize(
        "matrix, message",
        [
            ([1.0, 2.0], "operator matrix must be two-dimensional"),
            ([[1.0, float("nan")]], "operator matrix entries must be finite"),
        ],
    )
    def test_a_malformed_matrix_is_rejected(self, matrix, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            LinearOperator(np.array(matrix))


class TestOperatorProducts:
    """apply_operator of a profile must keep the bits of op.matrix @ x, and the
    image of profile columns those of one call per column.

    numpy computes op.matrix @ x for a one-row matrix with at least four
    columns as a dot product, which sums in another order than the stacked
    product: there the two agree up to rounding only.
    """

    @staticmethod
    def _cases(seed, count):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            m, n, s = (int(v) for v in rng.integers(1, 5, size=3))
            scale = 10.0 ** rng.integers(-3, 4)
            yield LinearOperator(rng.normal(size=(m, n)) * scale), rng.uniform(-1e3, 1e3, (n, s))

    def test_profile_image_is_the_matrix_vector_product(self):
        for op, cols in self._cases(3, 2000):
            x = cols[:, 0]
            got, want = apply_operator(op, x), op.matrix @ x
            if op.shape[0] == 1 and op.shape[1] >= 4:
                bound = op.shape[1] * np.finfo(float).eps * (np.abs(op.matrix) @ np.abs(x))
                assert got.shape == want.shape and np.all(np.abs(got - want) <= bound)
            else:
                assert got.tobytes() == want.tobytes()

    def test_column_images_are_the_per_column_images(self):
        for op, cols in self._cases(4, 500):
            want = np.stack([apply_operator(op, cols[:, s]) for s in range(cols.shape[1])], axis=1)
            got = apply_operator(op, cols)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestRelatedness:
    def test_two_economy_instance_holds(self):
        rep = check_relatedness(e1_game(), e2_game(), LinearOperator(TWO_ECONOMY_MATRIX))
        assert rep.holds and not rep.failures

    def test_bounded_image_escaping_target_box_fails(self):
        gn = quadratic_game((1.0,), hi=10.0)
        gm = quadratic_game((1.0,), hi=2.0)  # image of [0,10] under identity is [0,10] ⊄ [0,2]
        rep = check_relatedness(gn, gm, LinearOperator(np.array([[1.0]])))
        assert not rep.holds and rep.failures

    def test_negative_coefficient_flips_interval(self):
        gn = quadratic_game((1.0,), hi=1.0)
        gm = quadratic_game((1.0,), hi=1.0)  # target box [0,1] can't hold [-1,0]
        rep = check_relatedness(gn, gm, LinearOperator(np.array([[-1.0]])))
        assert not rep.holds

    def test_zero_coefficient_on_half_line_is_not_poisoned(self):
        # 0 * [0, inf) must contribute 0, not nan
        rep = check_relatedness(e1_game(), e2_game(), LinearOperator(np.zeros((2, 3))))
        assert rep.holds

    def test_failure_is_recorded_not_raised(self):
        p = SplitProblem(
            game_n=quadratic_game((1.0,), hi=10.0),
            game_m=quadratic_game((1.0,), hi=2.0),
            operator=LinearOperator(np.array([[1.0]])),
        )
        assert not p.relatedness.holds  # constructor survived


class TestSurjectivity:
    def test_permutation_operator_covers_target(self):
        rep = check_surjectivity(default_quadratic_sanity().problem, samples=200, seed=0)
        assert rep.surjective_on_samples
        assert rep.max_residual <= 1e-9

    def test_two_economy_operator_does_not_cover_target(self):
        # e.g. (1, 0) has no nonnegative preimage under the 2x3 operator
        rep = check_surjectivity(example_4_1().problem, samples=500, seed=0)
        assert not rep.surjective_on_samples
        assert rep.failures


class TestVerifyAndSolve:
    def test_quadratic_sanity_verifies_at_dominant_pair(self, budget):
        rep = verify_split_equilibrium(
            default_quadratic_sanity().problem, np.array([1.0, 2.0]), budget
        )
        assert rep.verdict
        assert rep.image_profile == (2.0, 1.0)

    def test_source_equilibrium_with_bad_image_fails(self, budget):
        inst = SplitProblem(
            game_n=quadratic_game((1.0, 2.0), hi=20.0),
            game_m=quadratic_game((5.0, 5.0), hi=20.0),
            operator=LinearOperator(np.eye(2)),
        )
        rep = verify_split_equilibrium(inst, np.array([1.0, 2.0]), budget)
        assert not rep.verdict
        assert rep.report_n.verdict and not rep.report_m.verdict

    def test_solve_quadratic_sanity_finds_unique_profile(self, budget):
        sols = solve_split(default_quadratic_sanity().problem, budget)
        assert len(sols) == 1
        assert np.allclose(sols[0], [1.0, 2.0], atol=1e-4)

    @staticmethod
    def _corner_problem(target_hi: float) -> SplitProblem:
        # (0.56, 0.39) maps the only source profile (1e5, 1e5) to 95000.00000000001
        source = Game.from_expressions(("x", "y"), [Interval(1e5, 1e5)] * 2, ("x", "y"))
        target = Game.from_expressions(("s",), [Interval(0.0, target_hi)], ("s",))
        return SplitProblem(source, target, LinearOperator(np.array([[0.56, 0.39]])))

    def test_image_a_rounding_error_outside_the_box_is_verified_clipped(self, budget):
        problem = self._corner_problem(95000.0)
        assert problem.image(np.array([1e5, 1e5])).tolist() == [95000.00000000001]
        sols = solve_split(problem, budget)
        assert [x.tolist() for x in sols] == [[1e5, 1e5]]
        rep = verify_split_equilibrium(problem, sols[0], budget)
        assert rep.verdict and rep.image_profile == (95000.0,)

    def test_image_beyond_the_slack_is_rejected(self, budget):
        problem = self._corner_problem(94999.0)
        assert solve_split(problem, budget) == []
        with pytest.raises(ValueError, match="infeasible in the target game"):
            verify_split_equilibrium(problem, np.array([1e5, 1e5]), budget)

    @staticmethod
    def _constant_source_problem() -> SplitProblem:
        # every source profile is an equilibrium of the constant game, and
        # the identity maps (1, 2) to the target's equilibrium; every best
        # response in the source is its lower bound, so all starts run to (0, 0)
        source = Game.from_expressions(("x", "y"), [Interval(0.0, 5.0)] * 2, ("1", "1"))
        return SplitProblem(source, quadratic_game((1.0, 2.0), hi=10.0), LinearOperator(np.eye(2)))

    def test_the_constant_source_split_point_verifies(self, budget):
        rep = verify_split_equilibrium(self._constant_source_problem(), np.array([1.0, 2.0]), budget)
        assert rep.verdict

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="damped best responses miss it (ROADMAP item 1)")
    def test_the_constant_source_split_point_is_found(self, budget):
        found = solve_split(self._constant_source_problem(), budget)
        assert any(np.allclose(x, [1.0, 2.0], atol=1e-4) for x in found), found

    def test_two_economy_candidate_fails_split_verification(self, budget):
        rep = verify_split_equilibrium(example_4_1().problem, np.array([1.0, 2.0, 4.0]), budget)
        assert rep.image_profile == (9.0, 12.0)
        assert rep.report_m.verdict  # the image is an equilibrium of the target game
        assert not rep.report_n.verdict  # but the source profile is not one of the source game
        assert not rep.verdict


class TestCdpSampling:
    def test_min_dominance_never_fails_on_own_concave_games(self):
        rep = cdp_sample_check(default_quadratic_sanity().problem, samples=500, seed=0)
        assert rep.min_dominance_failures == ()

    def test_min_dominance_never_fails_on_two_economy_instance(self):
        rep = cdp_sample_check(example_4_1().problem, samples=500, seed=0)
        assert rep.min_dominance_failures == ()

    def test_witnesses_replay(self):
        # any recorded joint failure must actually violate the property
        problem = example_4_1().problem
        rep = cdp_sample_check(problem, samples=300, seed=0)
        gn, gm = problem.game_n, problem.game_m
        for u, v, lam in rep.joint_cdp_failures[:5]:
            u, v = np.array(u), np.array(v)
            w = lam * u + (1 - lam) * v
            fu = order_leq(diagonal_payoff(gn, u, w), gn.payoff_vector(w) + 1e-6)
            fv = order_leq(diagonal_payoff(gn, v, w), gn.payoff_vector(w) + 1e-6)
            aw = problem.image(w)
            gu = order_leq(diagonal_payoff(gm, problem.image(u), aw), gm.payoff_vector(aw) + 1e-6)
            gv = order_leq(diagonal_payoff(gm, problem.image(v), aw), gm.payoff_vector(aw) + 1e-6)
            assert not ((fu and gu) or (fv and gv))

    def test_report_serializes(self):
        rep = cdp_sample_check(default_quadratic_sanity().problem, samples=50, seed=1)
        d = _json_default(rep)
        assert d["samples"] == 50
        assert set(d) == {
            "samples",
            "joint_cdp_failures",
            "vector_disjunction_failures",
            "min_dominance_failures",
        }


def reference_cdp_sample_check(problem, samples, seed=0, tolerance=1e-6, cap=1e3):
    """The CDP check as a loop over samples, as it was before the batched draw:
    the reference the batched check must reproduce exactly."""
    rng = np.random.default_rng(seed)
    gn, gm = problem.game_n, problem.game_m
    windows = [iv.truncated(cap) for iv in gn.strategy_sets]
    joint, vector, mindom = [], [], []
    for _ in range(samples):
        u, v = (np.array([rng.uniform(w.lo, w.hi) for w in windows]) for _ in range(2))
        lam = float(rng.uniform(0.0, 1.0))
        w = lam * u + (1 - lam) * v
        au, av, aw = problem.image(u), problem.image(v), problem.image(w)
        fu = diagonal_payoff(gn, u, w)
        fv = diagonal_payoff(gn, v, w)
        fw = gn.payoff_vector(w)
        gu = diagonal_payoff(gm, au, aw)
        gv = diagonal_payoff(gm, av, aw)
        gw = gm.payoff_vector(aw)
        n_u = order_leq(fu, fw + tolerance)
        n_v = order_leq(fv, fw + tolerance)
        m_u = order_leq(gu, gw + tolerance)
        m_v = order_leq(gv, gw + tolerance)
        witness = CdpWitness(tuple(map(float, u)), tuple(map(float, v)), lam)
        if not ((n_u and m_u) or (n_v and m_v)):
            joint.append(witness)
        if not ((n_u or n_v) and (m_u or m_v)):
            vector.append(witness)
        if not bool(np.all(np.minimum(fu, fv) <= fw + tolerance)):
            mindom.append(witness)
    return CdpReport(
        samples=samples,
        joint_cdp_failures=tuple(joint[:50]),
        vector_disjunction_failures=tuple(vector[:50]),
        min_dominance_failures=tuple(mindom[:50]),
    )


STOCHASTIC_2 = [[0.5, 0.5], [0.25, 0.75]]
STOCHASTIC_3 = [[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.1, 0.1, 0.8]]


def constant_utility_game() -> Game:
    # player x's utility ignores the profile: compiled, it returns one float
    return Game.from_expressions(("x", "y"), (Interval(0, 2), Interval(0, 2)), ("3", "y - x"))


def convex_game() -> Game:
    return Game.from_expressions(
        ("x", "y"), (Interval(0, 3), Interval(0, 3)), ("x^2 - x*y", "y^2*x - y")
    )


CDP_PROBLEMS = {
    "example-4.1": lambda: example_4_1().problem,
    "quadratic-sanity": lambda: default_quadratic_sanity().problem,
    "repeated-quadratic-3": lambda: make_repeated_problem(
        quadratic_game((1.0, 2.0, 3.0), hi=5.0), STOCHASTIC_3
    ),
    "repeated-e1": lambda: make_repeated_problem(e1_game(), STOCHASTIC_3),
    "constant-utility": lambda: make_repeated_problem(constant_utility_game(), STOCHASTIC_2),
    "convex": lambda: make_repeated_problem(convex_game(), STOCHASTIC_2),
}


class TestBatchedCdpMatchesPerSampleLoop:
    @pytest.mark.parametrize("ident", sorted(CDP_PROBLEMS))
    @pytest.mark.parametrize("seed", [0, 1, 7, 2024])
    def test_same_report(self, ident, seed):
        problem = CDP_PROBLEMS[ident]()
        got = cdp_sample_check(problem, samples=400, seed=seed)
        assert repr(got) == repr(reference_cdp_sample_check(problem, 400, seed))

    def test_cases_exercise_every_list_and_the_cap(self):
        reports = {
            k: cdp_sample_check(make(), samples=400, seed=0) for k, make in CDP_PROBLEMS.items()
        }
        assert len(reports["example-4.1"].joint_cdp_failures) == 50
        assert len(reports["example-4.1"].vector_disjunction_failures) == 50
        assert reports["constant-utility"].joint_cdp_failures
        assert reports["convex"].min_dominance_failures

    def test_narrow_cap_and_tolerance(self):
        problem = CDP_PROBLEMS["repeated-e1"]()
        got = cdp_sample_check(problem, samples=200, seed=5, tolerance=1e-3, cap=4.0)
        assert repr(got) == repr(reference_cdp_sample_check(problem, 200, 5, 1e-3, 4.0))

    def test_one_sample(self):
        problem = example_4_1().problem
        got = cdp_sample_check(problem, samples=1, seed=3)
        assert repr(got) == repr(reference_cdp_sample_check(problem, 1, 3))


# SHA-256 of repr(check_surjectivity(problem, 40, seed)): every failing
# target and every residual must keep its bits. A surjective report lists no
# target, so both quadratic-sanity seeds give one digest.
PINNED_SURJECTIVITY = {
    ("example-4.1", 0): "7206718731a0096c84d2998468476eb25d1139cb193e434786f1a3539679dffd",
    ("example-4.1", 7): "235302b9c1ed773488df3cfc465c0bc05efa9e2e2b0608291f48b881aa8ad216",
    ("quadratic-sanity", 0): "b8e1ef9330636e068c769675f77a2bdb191ea459f873170bb3f6e57e796f3f83",
    ("quadratic-sanity", 7): "b8e1ef9330636e068c769675f77a2bdb191ea459f873170bb3f6e57e796f3f83",
    ("repeated-e1", 0): "8c74d43f0bbd980a05b356e3f43a22841a9111fd5225d02bc985db0a5a4a8f8b",
    ("repeated-e1", 7): "a1beab1da056bf3bf0546e72face6a996ace9ce5a946dd56293f4b1233f86927",
    ("repeated-quadratic-3", 0): "747e51e4cee806acbc601c692fdfc527fadfa0bd5f689638b924355acc1c542d",
    ("repeated-quadratic-3", 7): "f3f21b7be5040973ae00bb0afa9c62c4e9d1932e19c36415182cc197dfa293f7",
}


@pytest.mark.parametrize("ident, seed", sorted(PINNED_SURJECTIVITY))
def test_surjectivity_report_matches_its_pinned_digest(ident, seed):
    rep = check_surjectivity(CDP_PROBLEMS[ident](), 40, seed=seed)
    assert hashlib.sha256(repr(rep).encode()).hexdigest() == PINNED_SURJECTIVITY[ident, seed]


def reference_surjectivity(problem: SplitProblem, samples: int, seed: int) -> list:
    """(target, residual) per sample from one scipy lsq_linear solve each, on
    the same draw and truncated boxes as check_surjectivity."""
    lsq_linear = pytest.importorskip("scipy.optimize").lsq_linear
    budget = SearchBudget()
    windows = [iv.truncated(budget.truncation_cap) for iv in problem.game_m.strategy_sets]
    box = [iv.truncated(budget.truncation_cap) for iv in problem.game_n.strategy_sets]
    bounds = ([iv.lo for iv in box], [iv.hi for iv in box])
    out = []
    for y in uniform_samples(np.random.default_rng(seed), samples, windows):
        res = lsq_linear(problem.operator.matrix, y, bounds=bounds, tol=1e-12)
        out.append((tuple(map(float, y)), float(np.linalg.norm(problem.image(res.x) - y))))
    return out


def random_box_problem(seed: int) -> SplitProblem:
    """m, n <= 3 players on random boxes, some unbounded, under a random
    matrix with zero entries and, for every third seed, a repeated column."""
    rng = np.random.default_rng(seed)
    m, n = rng.integers(1, 4, size=2)

    def game(k: int) -> Game:
        lo = rng.uniform(-5, 5, k)
        hi = np.where(rng.random(k) < 0.25, np.inf, lo + rng.uniform(0, 10, k))
        names = tuple(f"p{i}" for i in range(k))
        return Game.from_expressions(names, tuple(map(Interval, lo, hi)), ("0",) * k)

    a = rng.normal(size=(m, n)) * (rng.random((m, n)) < 0.8)
    if seed % 3 == 0:
        a[:, -1] = a[:, 0]
    return SplitProblem(game(n), game(m), LinearOperator(a))


class TestSurjectivityMatchesLsqLinear:
    """Each sample's distance is exact: no residual above scipy's bounded least
    squares beyond 1e-9 relative, and the same failing targets."""

    @staticmethod
    def assert_matches(problem: SplitProblem, samples: int, seed: int):
        ref = reference_surjectivity(problem, samples, seed)
        rep = check_surjectivity(problem, samples, seed=seed)
        failing = [(y, r) for y, r in ref if r > SearchBudget().tolerance]
        assert (rep.surjective_on_samples, rep.samples) == (not failing, samples)
        assert [y for y, _ in rep.failures] == [y for y, _ in failing[:20]]
        for (_, got), (_, want) in zip(rep.failures, failing):
            assert got <= want + 1e-9 * want
        worst = max(r for _, r in ref)
        assert rep.max_residual <= worst + 1e-9 * max(worst, 1.0)

    @pytest.mark.parametrize("ident", sorted(CDP_PROBLEMS))
    @pytest.mark.parametrize("seed", [0, 1, 2024])
    def test_cdp_problems(self, ident, seed):
        self.assert_matches(CDP_PROBLEMS[ident](), 40, seed)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_boxes(self, seed):
        self.assert_matches(random_box_problem(seed), 20, seed)


def test_surjectivity_rejects_more_than_eight_source_players():
    problem = SplitProblem(
        quadratic_game(tuple(range(9)), hi=5.0),
        quadratic_game((1.0,), hi=50.0),
        LinearOperator(np.ones((1, 9))),
    )
    with pytest.raises(ValueError, match="at most 8 source players, got 9"):
        check_surjectivity(problem, 10)


def overflowing_split_problem() -> SplitProblem:
    """x^200 overflows on most of [0, 1000], and inf - inf is nan."""
    box = (Interval(0, 1000), Interval(0, 1000))
    return SplitProblem(
        Game.from_expressions(("x", "y"), box, ("x^200*y - x^201", "y - y^2")),
        Game.from_expressions(("x", "y"), box, ("x - x^2", "y - y^2")),
        LinearOperator(np.eye(2)),
    )


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestNonFinitePayoffsAreNoFinding:
    """A nan payoff compares false, which read as violations and as an empty
    intersection; it is an evaluation error, as on every other path."""

    def test_cdp(self):
        with pytest.raises(EvalError, match=r"^non-finite payoff nan of player 'x' at \[636\.96"):
            cdp_sample_check(overflowing_split_problem(), 20)

    def test_kkm_probe(self, budget):
        with pytest.raises(
            EvalError, match=r"^non-finite payoff nan of player 'x' at \[333\.3333333333333, 0\.0\]$"
        ):
            kkm_intersection_probe(overflowing_split_problem(), budget, points_per_axis=4)


class TestSamplersRejectNoSamples:
    @pytest.mark.parametrize("samples", [0, -1])
    def test_cdp(self, samples):
        with pytest.raises(ValueError, match="samples"):
            cdp_sample_check(default_quadratic_sanity().problem, samples)

    @pytest.mark.parametrize("samples", [0, -1])
    def test_surjectivity(self, samples):
        with pytest.raises(ValueError, match="samples"):
            check_surjectivity(default_quadratic_sanity().problem, samples)


class TestIntersectionProbe:
    def test_self_membership(self, rng, budget):
        problem = default_quadratic_sanity().problem
        windows = [iv.truncated(20.0) for iv in problem.game_n.strategy_sets]
        for _ in range(100):
            x = uniform_samples(rng, 1, windows)[0]
            assert kkm_t_membership(problem, x, x, budget.tolerance)

    def test_dominated_point_is_not_a_member(self, budget):
        problem = default_quadratic_sanity().problem
        # z = (5, 5): deviating to the dominant pair (1, 2) strictly improves
        assert not kkm_t_membership(
            problem, np.array([1.0, 2.0]), np.array([5.0, 5.0]), budget.tolerance
        )

    @staticmethod
    def _bounded_quadratic_pair() -> SplitProblem:
        # the quadratic sanity pair on [0, 5]^2, so the probe grid is [0, 5]^2
        swap = LinearOperator(np.array([[0.0, 1.0], [1.0, 0.0]]))
        return SplitProblem(
            quadratic_game((1.0, 2.0), hi=5.0), quadratic_game((2.0, 1.0), hi=5.0), swap
        )

    def test_probe_members_verify_within_a_grid_step(self, budget):
        res = kkm_intersection_probe(self._bounded_quadratic_pair(), budget, points_per_axis=8)
        assert res.members  # nonempty intersection
        assert all(res.verified)
        assert res.points_per_axis == 8 and res.grid_points == 64

    def test_probe_members_cluster_near_split_equilibrium(self, budget):
        res = kkm_intersection_probe(self._bounded_quadratic_pair(), budget, points_per_axis=8)
        for m in res.members:
            assert np.linalg.norm(np.array(m) - [1.0, 2.0]) <= 2.0 * res.cell_diameter

    def test_no_grid_point_is_an_error(self, budget):
        # an empty grid would read as the finding "empty intersection"
        with pytest.raises(ValueError, match="^points_per_axis must be at least 1, got 0$"):
            kkm_intersection_probe(default_quadratic_sanity().problem, budget, points_per_axis=0)

    @pytest.mark.parametrize("ident", ["example-4.1", "quadratic-sanity", "repeated-e1"])
    def test_membership_columns_match_scalar_calls(self, ident, budget):
        problem = CDP_PROBLEMS[ident]()
        windows = [iv.truncated(20.0) for iv in problem.game_n.strategy_sets]
        rng = np.random.default_rng(0)
        columns = uniform_samples(rng, 200, windows).T
        answers = []
        for x in uniform_samples(rng, 5, windows):
            z = np.concatenate([columns, x[:, None]], axis=1)  # x keeps itself
            want = [
                _kkm_reference.kkm_t_membership(problem, x, z[:, s], budget.tolerance)
                for s in range(z.shape[1])
            ]
            assert kkm_t_membership(problem, x, z, budget.tolerance).tolist() == want
            assert [bool(kkm_t_membership(problem, x, c, budget.tolerance)) for c in z.T] == want
            answers += want
        assert any(answers) and not all(answers)

    @pytest.mark.parametrize(
        "ident, points_per_axis, pairs",
        [
            ("quadratic-sanity", 4, None),
            ("quadratic-sanity", 8, None),
            ("quadratic-sanity", 16, 802),
            ("bounded-quadratic", 4, None),
            ("bounded-quadratic", 8, None),
            ("bounded-quadratic", 16, None),
            ("example-4.1", 3, None),
            ("example-4.1", 4, 127),
            ("repeated-e1", 3, None),
            ("repeated-e1", 4, None),
        ],
    )
    def test_probe_matches_the_scalar_reference(
        self, monkeypatch, budget, ident, points_per_axis, pairs
    ):
        """The same members in the same order, from the same (x, z) pairs: each
        x deviates the same columns in game N, then in game M, and the columns
        add up to the reference's calls."""
        problems = {**CDP_PROBLEMS, "bounded-quadratic": self._bounded_quadratic_pair}
        problem = problems[ident]()
        tested = []

        def counted(game, z, x):
            tested.append(x.shape[1])
            return diagonal_payoff(game, z, x)

        monkeypatch.setattr(split_module, "diagonal_payoff", counted)
        res = kkm_intersection_probe(problem, budget, points_per_axis=points_per_axis)
        members, calls = _kkm_reference.probe_members(problem, budget, points_per_axis)
        assert list(res.members) == members
        assert tested[::2] == tested[1::2]
        assert sum(tested[::2]) == calls
        if pairs is not None:
            assert calls == pairs

    @pytest.mark.parametrize("ident", sorted(CDP_PROBLEMS))
    def test_profiles_answer_as_the_and_of_single_profiles(self, ident, budget):
        problem = CDP_PROBLEMS[ident]()
        windows = [iv.truncated(20.0) for iv in problem.game_n.strategy_sets]
        rng = np.random.default_rng(1)
        x = uniform_samples(rng, 6, windows).T
        z = np.concatenate([uniform_samples(rng, 200, windows).T, x[:, :1]], axis=1)
        single = [kkm_t_membership(problem, c, z, budget.tolerance) for c in x.T]
        for r in range(1, 7):  # every prefix of x, down to one column
            want = np.logical_and.reduce(single[:r]).tolist()
            assert kkm_t_membership(problem, x[:, :r], z, budget.tolerance).tolist() == want
        assert [bool(kkm_t_membership(problem, x, c, budget.tolerance)) for c in z.T] == want
        assert single[0].any() and not single[0].all()

    def test_membership_evaluates_the_grid_once_per_game(self, monkeypatch, budget):
        problem = default_quadratic_sanity().problem
        evaluated = []
        payoff_vector = Game.payoff_vector

        def counted(game, x):
            if np.ndim(x) == 2:
                evaluated.append((game, np.shape(x)))
            return payoff_vector(game, x)

        monkeypatch.setattr(Game, "payoff_vector", counted)
        res = kkm_intersection_probe(problem, budget, points_per_axis=8)
        assert res.members
        assert evaluated == [(problem.game_n, (2, 64)), (problem.game_m, (2, 64))]

    @pytest.mark.parametrize("points_per_axis", [8, 16])
    @pytest.mark.parametrize("factor", [1e3, 1e-3])
    def test_verdicts_do_not_depend_on_the_payoff_unit(self, budget, factor, points_per_axis):
        problem = default_quadratic_sanity().problem

        def scaled(game: Game) -> Game:
            return replace(
                game, utilities=tuple(lambda v, u=u: factor * u(v) for u in game.utilities)
            )

        copy = replace(problem, game_n=scaled(problem.game_n), game_m=scaled(problem.game_m))
        res = kkm_intersection_probe(problem, budget, points_per_axis=points_per_axis)
        got = kkm_intersection_probe(copy, budget, points_per_axis=points_per_axis)
        assert res.members and all(res.verified)
        assert (got.members, got.verified) == (res.members, res.verified)
