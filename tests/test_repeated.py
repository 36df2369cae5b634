"""Transition matrices and repeated-game split problems."""

import numpy as np
import pytest

from splitnash import (
    TransitionMatrixError,
    cdp_sample_check,
    make_repeated_problem,
    validate_transition_matrix,
)
from splitnash.models import quadratic_game
from splitnash.split import LinearOperator


class TestValidation:
    def test_accepts_row_stochastic(self):
        tm = validate_transition_matrix([[0.3, 0.7], [0.9, 0.1]])
        assert isinstance(tm, LinearOperator)
        assert tm.shape == (2, 2)

    def test_accepts_identity_and_permutation(self):
        validate_transition_matrix(np.eye(3))
        validate_transition_matrix([[0.0, 1.0], [1.0, 0.0]])

    def test_accepts_two_parameter_family(self):
        for a in (0.0, 0.25, 1.0):
            for b in (0.0, 0.5, 1.0):
                validate_transition_matrix([[a, 1 - a], [1 - b, b]])

    def test_rejects_non_square(self):
        with pytest.raises(TransitionMatrixError, match="square"):
            validate_transition_matrix([[0.5, 0.5]])

    def test_rejects_negative_entry_with_location(self):
        with pytest.raises(TransitionMatrixError, match=r"\(1, 0\)"):
            validate_transition_matrix([[0.5, 0.5], [-0.1, 1.1]])

    def test_rejects_bad_row_sum_with_row_index(self):
        with pytest.raises(TransitionMatrixError, match="row 1"):
            validate_transition_matrix([[0.5, 0.5], [0.6, 0.6]])

    def test_matrix_is_read_only(self):
        tm = validate_transition_matrix(np.eye(2))
        with pytest.raises(ValueError):
            tm.matrix[0, 0] = 2.0


class TestRepeatedProblem:
    def test_couples_game_with_itself(self):
        g = quadratic_game((1.0, 2.0), hi=5.0)
        p = make_repeated_problem(g, [[0.5, 0.5], [0.5, 0.5]])
        assert p.game_n is g and p.game_m is g

    def test_accepts_prevalidated_matrix_and_raw_operator(self):
        g = quadratic_game((1.0, 2.0), hi=5.0)
        make_repeated_problem(g, validate_transition_matrix(np.eye(2)))
        make_repeated_problem(g, LinearOperator(np.eye(2)))

    def test_rejects_dimension_mismatch(self):
        g = quadratic_game((1.0, 2.0, 3.0), hi=5.0)
        with pytest.raises(ValueError, match=r"operator shape \(2, 2\) does not match games"):
            make_repeated_problem(g, np.eye(2))

    def test_rejects_invalid_raw_matrix(self):
        g = quadratic_game((1.0, 2.0), hi=5.0)
        with pytest.raises(TransitionMatrixError):
            make_repeated_problem(g, [[0.5, 0.6], [0.5, 0.5]])

    def test_identity_matrix_gives_split_equilibrium_at_dominant_pair(self, budget):
        from splitnash import verify_split_equilibrium

        g = quadratic_game((1.0, 2.0), hi=5.0)
        p = make_repeated_problem(g, np.eye(2))
        assert verify_split_equilibrium(p, np.array([1.0, 2.0]), budget).verdict

    def test_averaging_matrix_breaks_split_equilibrium(self, budget):
        from splitnash import verify_split_equilibrium

        g = quadratic_game((1.0, 2.0), hi=5.0)
        p = make_repeated_problem(g, [[0.5, 0.5], [0.5, 0.5]])
        # image of (1,2) is (1.5,1.5), which is not the dominant pair
        assert not verify_split_equilibrium(p, np.array([1.0, 2.0]), budget).verdict


class TestRepeatedCdp:
    def test_min_dominance_holds_on_repeated_quadratic(self):
        g = quadratic_game((1.0, 2.0), hi=5.0)
        p = make_repeated_problem(g, [[0.25, 0.75], [0.5, 0.5]])
        rep = cdp_sample_check(p, samples=300, seed=0)
        assert rep.min_dominance_failures == ()
