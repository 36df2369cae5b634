"""Built-in instances and replay of their recorded reference claims."""

import numpy as np
import pytest

from splitnash import SearchBudget, apply_operator, nash_regrets, verify_nash
from splitnash.models import (
    DERIVED,
    PAPER,
    Claim,
    bertrand_instance,
    builtin_ids,
    default_quadratic_sanity,
    example_4_1,
    get_instance,
    quadratic_split_instance,
)


class TestClaim:
    def test_primary_source_claims_require_citation(self):
        with pytest.raises(ValueError):
            Claim("something", 1.0, PAPER)
        Claim("something", 1.0, PAPER, "a citation")

    def test_unknown_provenance_rejected(self):
        with pytest.raises(ValueError):
            Claim("something", 1.0, "GUESSED")


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
    """Replay every recorded claim of the two-economy instance."""

    def test_operator_image_claim(self):
        inst = example_4_1()
        assert apply_operator(inst.problem.operator, np.array([1.0, 2.0, 4.0])).tolist() == [
            9.0,
            12.0,
        ]

    def test_target_regret_claim(self, budget):
        inst = example_4_1()
        r = nash_regrets(inst.problem.game_m, np.array([9.0, 12.0]), budget)
        assert np.all(r <= budget.tolerance)

    def test_third_player_regret_claim(self, budget):
        inst = example_4_1()
        want = next(
            c.value for c in inst.reference_claims if "regret at (1, 2, 4)" in c.description
        )
        r = nash_regrets(inst.problem.game_n, np.array([1.0, 2.0, 4.0]), budget)
        assert r[2] == pytest.approx(want, abs=1e-6)
        assert want == pytest.approx(3.0 - 2.0 * np.sqrt(2.0))

    def test_claim_provenances_are_recorded(self):
        inst = example_4_1()
        assert {c.provenance for c in inst.reference_claims} == {PAPER, DERIVED}


class TestQuadraticFamily:
    def test_default_instance_claim_replays(self):
        inst = default_quadratic_sanity()
        claim = next(c for c in inst.reference_claims if "iff" in c.description)
        m = inst.problem.operator.matrix
        assert claim.value == bool(np.allclose(m @ [1.0, 2.0], [2.0, 1.0]))
        assert claim.value is True  # the swap matrix does map (1,2) to (2,1)

    def test_unsatisfied_operator_claim_is_recorded_as_false(self):
        inst = quadratic_split_instance(a=(1.0, 2.0), matrix=np.eye(2), b=(2.0, 1.0))
        claim = next(c for c in inst.reference_claims if "iff" in c.description)
        assert claim.value is False

    def test_matrix_shape_validated(self):
        with pytest.raises(ValueError):
            quadratic_split_instance(a=(1.0, 2.0), matrix=np.eye(3), b=(2.0, 1.0))

    def test_dominant_strategies_verify(self, budget):
        inst = default_quadratic_sanity()
        assert verify_nash(inst.problem.game_n, np.array([1.0, 2.0]), budget).verdict
        assert verify_nash(inst.problem.game_m, np.array([2.0, 1.0]), budget).verdict


class TestBertrandInstances:
    def test_cost_claims(self):
        inst = bertrand_instance(1.0, 2.0)
        assert inst.problem.c1 == 1.0 and inst.problem.c2 == 2.0
        prices = next(c.value for c in inst.reference_claims if "price equilibrium" in c.description)
        assert prices == (1.0, 2.0)
