"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines. Every criterion carries its own runtime ceiling, measured around the
work it prescribes.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import splitnash
from splitnash import (
    SearchBudget,
    apply_operator,
    best_response,
    diagonal_payoff,
    kkm_intersection_probe,
    kkm_t_membership,
    order_leq,
    solve_split,
    validate_transition_matrix,
    verify_nash,
    verify_split_equilibrium,
)
from _expr_reference import pretty
from splitnash.bertrand import (
    BertrandModel,
    _shares_and_profits,
    audit_theorem_6_2,
    enumerate_grid_equilibria,
    linear_demand,
    profits,
)
from splitnash.expr import (
    Add,
    Const,
    Mul,
    Neg,
    Pow,
    Sub,
    Var,
    parse_utility,
)
from splitnash.models import (
    default_quadratic_sanity,
    e1_game,
    e2_game,
    example_4_1,
)
from splitnash.repeated import TransitionMatrixError
from splitnash.game import uniform_samples
from splitnash.split import cdp_sample_check

BUDGET = SearchBudget()
EXIT_DISCREPANCY = 3


def _line(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {status}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def _cli(*argv: str) -> subprocess.CompletedProcess:
    # the child imports the splitnash this test imported, also from a checkout
    src = str(Path(splitnash.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "splitnash.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_criterion_1_target_game_equilibrium():
    t0 = time.perf_counter()
    game = e2_game()
    rep = verify_nash(game, np.array([9.0, 12.0]), BUDGET)
    regrets_ok = rep.verdict and all(r <= 1e-6 for r in rep.regrets)
    s, _ = best_response(game, "d", np.array([0.0, 12.0]))
    t, _ = best_response(game, "e", np.array([9.0, 0.0]))
    brs_ok = abs(s[0] - 9.0) <= 1e-4 and abs(t[0] - 12.0) <= 1e-4
    elapsed = time.perf_counter() - t0
    _line(
        1,
        regrets_ok and brs_ok and elapsed < 1.0,
        f"regrets {tuple(rep.regrets)} <= 1e-6, best responses "
        f"({s[0]:.6f}, {t[0]:.6f}) within 1e-4 of (9, 12), {elapsed:.2f}s < 1s",
    )


def test_criterion_2_source_game_audit():
    t0 = time.perf_counter()
    r = verify_nash(e1_game(), np.array([1.0, 2.0, 4.0]), BUDGET).regrets
    want = 3.0 - 2.0 * np.sqrt(2.0)

    # independent brute-force oracle for the third player: step 1e-3 on [0, 50]
    z = np.arange(0, 50.0 + 1e-3, 1e-3)
    values = np.sqrt(2.0 * z) - 0.5 * z  # utility of the third player at x=1, y=2
    oracle = float(values.max() - (np.sqrt(8.0) - 2.0))

    proc = _cli("audit", "example-4.1")
    elapsed = time.perf_counter() - t0

    ok = (
        r[0] <= 1e-6
        and r[1] <= 1e-6
        and abs(r[2] - want) <= 1e-4
        and abs(r[2] - oracle) <= 1e-4
        and proc.returncode == EXIT_DISCREPANCY
        and elapsed < 5.0
    )
    _line(
        2,
        ok,
        f"regrets a,b = ({r[0]:.2e}, {r[1]:.2e}) <= 1e-6, regret c = {r[2]:.6f} "
        f"vs 3-2*sqrt(2) = {want:.6f} and grid oracle {oracle:.6f}, "
        f"audit exit code {proc.returncode} == {EXIT_DISCREPANCY}, {elapsed:.2f}s < 5s",
    )


def test_criterion_3_operator_image_exact():
    got = apply_operator(example_4_1().problem.operator, np.array([1.0, 2.0, 4.0]))
    ok = got.tolist() == [9.0, 12.0]
    _line(3, ok, f"operator image of (1, 2, 4) is exactly {tuple(got.tolist())} == (9, 12)")


def test_criterion_4_quadratic_split_instance():
    t0 = time.perf_counter()
    problem = default_quadratic_sanity().problem
    sols = solve_split(problem, BUDGET)
    unique = len(sols) == 1 and bool(np.all(np.abs(sols[0] - [1.0, 2.0]) <= 1e-4))
    verified = unique and verify_split_equilibrium(problem, sols[0], BUDGET).verdict
    elapsed = time.perf_counter() - t0
    found = [s.tolist() for s in sols]
    _line(
        4,
        unique and verified and elapsed < 2.0,
        f"solve-split found exactly {found} within 1e-4 of (1, 2), "
        f"verify-split verdict {verified}, {elapsed:.2f}s < 2s",
    )


def test_criterion_5_price_grid_enumeration():
    t0 = time.perf_counter()
    model = BertrandModel(c1=1.0, c2=2.0, demand=linear_demand(10.0, 1.0, 1.0))
    eqs = enumerate_grid_equilibria(model, grid_step=0.01, price_range=5.0)
    has_cost_point = (1.0, 2.0) in eqs
    zero_profits = profits(model, 1.0, 2.0) == (0.0, 0.0)
    in_band = all(max(abs(p1 - 1.0), abs(p2 - 2.0)) <= 0.03 for p1, p2 in eqs)
    elapsed = time.perf_counter() - t0
    _line(
        5,
        has_cost_point and zero_profits and in_band and elapsed < 30.0,
        f"grid contains (1.00, 2.00) with exact zero profits, all {len(eqs)} "
        f"equilibria within inf-distance 0.03 of (1, 2), {elapsed:.2f}s < 30s",
    )


def test_criterion_6_markov_price_audit():
    t0 = time.perf_counter()
    unequal = BertrandModel(c1=1.0, c2=2.0, demand=linear_demand(10.0, 1.0, 1.0))
    equal = BertrandModel(c1=1.0, c2=1.0, demand=linear_demand(10.0, 1.0, 1.0))
    grid = [(a, b) for a in np.linspace(0, 1, 5) for b in np.linspace(0, 1, 5)]

    rep_unequal = audit_theorem_6_2(unequal, grid, price_range=5.0)
    rep_equal = audit_theorem_6_2(equal, grid, price_range=5.0)
    rows = {(r.alpha, r.beta): r for r in rep_unequal.rows}
    rows_eq = {(r.alpha, r.beta): r for r in rep_equal.rows}

    identity_ok = rows[(1.0, 1.0)].verdict is True
    equal_cost_ok = (
        audit_theorem_6_2(equal, [(0.4, 0.4)], price_range=5.0).rows[0].verdict is True
    )
    averaging_breaks = (
        audit_theorem_6_2(unequal, [(0.9, 0.9)], price_range=5.0).rows[0].verdict is False
    )
    oracle_ok = rep_unequal.all_match_oracle and rep_equal.all_match_oracle
    proc = _cli("audit", "thm-6.2")
    elapsed = time.perf_counter() - t0

    ok = (
        identity_ok
        and equal_cost_ok
        and averaging_breaks
        and oracle_ok
        and proc.returncode == EXIT_DISCREPANCY
        and elapsed < 60.0
    )
    _line(
        6,
        ok,
        "identity fixes (1, 2): True; alpha=beta=0.4 with equal costs: True; "
        "alpha=beta=0.9 with costs (1, 2): False; all verdicts match the "
        f"fixed-point oracle on the 5x5 grid ({len(rows)} + {len(rows_eq)} rows); "
        f"audit exit code {proc.returncode} == {EXIT_DISCREPANCY}; {elapsed:.2f}s < 60s",
    )


def _random_ast(rng: np.random.Generator, depth: int):
    if depth == 0 or rng.uniform() < 0.3:
        if rng.uniform() < 0.5:
            return Const(float(np.round(rng.uniform(0, 100), 6)))
        return Var(str(rng.choice(["x", "y", "z", "s", "t"])))
    kind = rng.integers(0, 5)
    if kind == 0:
        return Add(_random_ast(rng, depth - 1), _random_ast(rng, depth - 1))
    if kind == 1:
        return Sub(_random_ast(rng, depth - 1), _random_ast(rng, depth - 1))
    if kind == 2:
        return Mul(_random_ast(rng, depth - 1), _random_ast(rng, depth - 1))
    if kind == 3:
        return Neg(_random_ast(rng, depth - 1))
    return Pow(_random_ast(rng, depth - 1), float(rng.choice([0.5, 1.0, 2.0, 3.0, 4.0])))


def test_criterion_7_property_suites():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    checks: list[tuple[str, bool]] = []

    # diagonal payoff map agrees bit for bit with each utility evaluated at the
    # profile on its own
    games = [e1_game(), e2_game()]
    problem = default_quadratic_sanity().problem
    games += [problem.game_n, problem.game_m]
    diag_ok = True
    for g in games:
        windows = [iv.truncated(50.0) for iv in g.strategy_sets]
        for _ in range(1000):
            x = uniform_samples(rng, 1, windows)[0]
            if diagonal_payoff(g, x, x).tobytes() != np.array([u(list(x)) for u in g.utilities]).tobytes():
                diag_ok = False
    checks.append(("diagonal payoff identity x4 games x1000 profiles", diag_ok))

    # demand shares always sum to one when the market is alive
    model = BertrandModel(c1=1.0, c2=2.0, demand=linear_demand(10.0, 1.0, 1.0))
    shares_ok = True
    for _ in range(10_000):
        p1 = float(rng.uniform(0, 4.99))
        p2 = float(rng.uniform(0, 4.99))
        _, s1, s2, _, _ = _shares_and_profits(model, p1, p2)
        if float(s1) + float(s2) != 1.0:
            shares_ok = False
    checks.append(("share conservation on 10000 live price pairs", shares_ok))

    # every feasible profile belongs to its own deviation-dominance set
    windows = [iv.truncated(20.0) for iv in problem.game_n.strategy_sets]
    self_ok = all(
        kkm_t_membership(problem, x, x, BUDGET.tolerance)
        for x in (uniform_samples(rng, 1, windows)[0] for _ in range(1000))
    )
    checks.append(("deviation-dominance self-membership x1000", self_ok))

    # per-component min-dominance: zero violations on own-concave built-ins
    mindom_ok = (
        cdp_sample_check(problem, samples=1000, seed=0).min_dominance_failures == ()
        and cdp_sample_check(example_4_1().problem, samples=1000, seed=0).min_dominance_failures
        == ()
    )
    checks.append(("min-dominance zero violations x1000 per instance", mindom_ok))

    # component-wise order: reflexive, antisymmetric, transitive on samples
    order_ok = True
    for _ in range(1000):
        u = rng.uniform(-5, 5, size=3)
        d1 = rng.uniform(0, 1, size=3)
        d2 = rng.uniform(0, 1, size=3)
        v, w = u + d1, u + d1 + d2
        if not (order_leq(u, u) and order_leq(u, v) and order_leq(v, w) and order_leq(u, w)):
            order_ok = False
        if order_leq(u, v) and order_leq(v, u) and not np.array_equal(u, v):
            order_ok = False
    checks.append(("order axioms x1000", order_ok))

    # parser round-trip on 500 random ASTs
    rt_ok = all(
        parse_utility(pretty(e)) == e
        for e in (_random_ast(rng, depth=4) for _ in range(500))
    )
    checks.append(("parser round-trip x500", rt_ok))

    # transition-matrix validation accepts stochastic rows and rejects the rest
    tm_ok = True
    try:
        validate_transition_matrix([[0.3, 0.7], [0.9, 0.1]])
        validate_transition_matrix(np.eye(3))
    except TransitionMatrixError:
        tm_ok = False
    for bad in ([[0.5, 0.5]], [[0.5, 0.6], [0.5, 0.5]], [[-0.1, 1.1], [0.5, 0.5]]):
        try:
            validate_transition_matrix(bad)
            tm_ok = False
        except TransitionMatrixError:
            pass
    checks.append(("transition-matrix accept/reject", tm_ok))

    elapsed = time.perf_counter() - t0
    failing = [name for name, ok in checks if not ok]
    _line(
        7,
        not failing and elapsed < 60.0,
        f"{len(checks)} property suites green ({', '.join(n for n, _ in checks)}), "
        f"{elapsed:.2f}s < 60s"
        + (f"; FAILING: {failing}" if failing else ""),
    )


def test_criterion_8_intersection_probe_consistency():
    t0 = time.perf_counter()
    problem = default_quadratic_sanity().problem
    res = kkm_intersection_probe(problem, BUDGET, points_per_axis=8)
    nonempty = len(res.members) > 0
    all_verified = nonempty and all(res.verified)
    elapsed = time.perf_counter() - t0
    _line(
        8,
        nonempty and all_verified and elapsed < 30.0,
        f"{len(res.members)} members on the 8-per-axis grid, all pass split "
        f"verification with every witness within one grid step, "
        f"{elapsed:.2f}s < 30s",
    )
