"""Built-in instances and the values the source claims for them."""

import numpy as np
import pytest

from splitnash import apply_operator, verify_nash
from splitnash.bertrand import is_grid_equilibrium
from splitnash.models import (
    bertrand_instance,
    builtin_ids,
    default_quadratic_sanity,
    example_4_1,
    get_instance,
    quadratic_game,
    quadratic_split_instance,
)


def reference_quadratic_utility(i, target):
    """Player i's utility as quadratic_game wrote it by hand before it
    compiled expressions: the reference for the compiled one."""

    def u(x):
        d = x[i] - target
        return -d * d

    return u


class TestRegistry:
    def test_every_builtin_id_resolves(self):
        for ident in builtin_ids():
            inst = get_instance(ident)
            assert inst.kind in ("game", "split", "bertrand")

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError, match=r"unknown builtin instance 'nope'; known: \['example-4.1'"):
            get_instance("nope")

    def test_each_lookup_builds_a_fresh_instance(self):
        assert [get_instance(i).identifier for i in builtin_ids()] == builtin_ids()
        assert get_instance("example-4.1") is not get_instance("example-4.1")

    def test_kinds(self):
        assert get_instance("example-4.1").kind == "split"
        assert get_instance("example-4.1:E1").kind == "game"
        assert get_instance("bertrand-1-2").kind == "bertrand"


class TestTwoEconomyClaims:
    """The values the source claims for the two-economy instance."""

    def test_operator_image_claim(self):
        inst = example_4_1()
        assert apply_operator(inst.problem.operator, np.array([1.0, 2.0, 4.0])).tolist() == [
            9.0,
            12.0,
        ]

    def test_target_regret_claim(self, budget):
        inst = example_4_1()
        r = verify_nash(inst.problem.game_m, np.array([9.0, 12.0]), budget).regrets
        assert all(v <= budget.tolerance for v in r)

    def test_third_player_regret_claim(self, budget):
        inst = example_4_1()
        r = verify_nash(inst.problem.game_n, np.array([1.0, 2.0, 4.0]), budget).regrets
        assert r[2] == pytest.approx(3.0 - 2.0 * np.sqrt(2.0), abs=1e-6)


class TestQuadraticFamily:
    def test_default_operator_maps_a_to_b(self):
        # the swap matrix maps (1,2) to (2,1), so a is a split equilibrium
        m = default_quadratic_sanity().problem.operator.matrix
        assert np.allclose(m @ [1.0, 2.0], [2.0, 1.0])

    def test_identity_operator_does_not_map_a_to_b(self):
        inst = quadratic_split_instance(a=(1.0, 2.0), matrix=np.eye(2), b=(2.0, 1.0))
        assert not np.allclose(inst.problem.operator.matrix @ [1.0, 2.0], [2.0, 1.0])

    def test_matrix_shape_validated(self):
        with pytest.raises(ValueError):
            quadratic_split_instance(a=(1.0, 2.0), matrix=np.eye(3), b=(2.0, 1.0))

    @pytest.mark.parametrize("targets", [(-2.5, 0.0, 1.0 / 3.0), (7.0, -1e-3, 0.1)])
    def test_compiled_utilities_keep_the_hand_written_bits(self, targets):
        g = quadratic_game(targets, hi=10.0)
        refs = [reference_quadratic_utility(i, float(a)) for i, a in enumerate(targets)]
        rng = np.random.default_rng(4)
        # each target itself and -0.0, where the payoff is a signed zero
        cols = np.column_stack([
            rng.uniform(-10.0, 10.0, size=(3, 50)),
            np.array(targets),
            np.full(3, -0.0),
            np.zeros(3),
        ])
        for i, (u, ref) in enumerate(zip(g.utilities, refs)):
            assert np.asarray(u(cols)).tobytes() == np.asarray(ref(cols)).tobytes()
            for x in cols.T:
                assert np.float64(u(x)).tobytes() == np.float64(ref(x)).tobytes()
        assert np.signbit(g.utilities[0](np.array(targets)))

    def test_dominant_strategies_verify(self, budget):
        inst = default_quadratic_sanity()
        assert verify_nash(inst.problem.game_n, np.array([1.0, 2.0]), budget).verdict
        assert verify_nash(inst.problem.game_m, np.array([2.0, 1.0]), budget).verdict


class TestBertrandInstances:
    def test_cost_claims(self):
        inst = bertrand_instance(1.0, 2.0)
        assert (inst.problem.c1, inst.problem.c2) == (1.0, 2.0)
        assert inst.identifier == "bertrand-1-2"
        # the source claims the cost pair is the price equilibrium
        assert is_grid_equilibrium(inst.problem, 1.0, 2.0)
