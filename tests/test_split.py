"""Linear operators, split problems, relatedness/surjectivity audits, CDP
sampling, and the deviation-dominance intersection probe."""

import numpy as np
import pytest

from splitnash import (
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
from splitnash.cli import _json_default
from splitnash.game import diagonal_payoff, order_leq
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
    joint, vector, mindom = [], [], []
    for _ in range(samples):
        u = gn.random_profile(rng, cap)
        v = gn.random_profile(rng, cap)
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
        for _ in range(100):
            x = problem.game_n.random_profile(rng, cap=20.0)
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

    def test_probe_members_verify_at_grid_slack(self, budget):
        res = kkm_intersection_probe(self._bounded_quadratic_pair(), budget, points_per_axis=8)
        assert res.members  # nonempty intersection
        assert all(res.verified)
        assert res.points_per_axis == 8 and res.grid_points == 64

    def test_probe_members_cluster_near_split_equilibrium(self, budget):
        res = kkm_intersection_probe(self._bounded_quadratic_pair(), budget, points_per_axis=8)
        for m in res.members:
            assert np.linalg.norm(np.array(m) - [1.0, 2.0]) <= 2.0 * res.cell_diameter
