"""The four benchmark workloads and the reference each operation is checked against.

Every workload is a closed loop with one caller. A workload is a list of
operations; one round runs each of them once, in order. An operation's
check returns the problems it found (an empty list when the output matches
its reference) and how many known results it recovered, out of `listed`.
Ops call through the public package attributes at call time, so the traced
run's wrappers see every call.
"""

from __future__ import annotations

import io
import json
import math
import os
import subprocess
import sys
import threading
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import splitnash as sn
from lqgames import LQGame, make_lq_game

TOL = 1e-6
# regrets of the checked players must match their analytic values this closely
REGRET_TOL = 1e-6
# a returned equilibrium counts as a known one within this distance
MATCH_TOL = 1e-4
# a second, finer verification budget for re-checking solver output
REVERIFY = sn.SearchBudget(grid_step=0.005, seed=1)


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], tuple[list[str], int]]
    listed: int = 1


@dataclass
class Workload:
    name: str
    ops: list[Op]
    min_rounds: int = 1
    state: dict = field(default_factory=dict)
    in_process: bool = True


def _plain(problems: list[str]) -> tuple[list[str], int]:
    return problems, 0 if problems else 1


def _identity(problem):
    return problem


def lq_to_game(lq: LQGame) -> sn.Game:
    return sn.Game.from_expressions(
        lq.players, [sn.Interval(0.0, lq.hi)] * lq.n, lq.sources, lq.variables
    )


# --- solve -------------------------------------------------------------------

SOLVE_LQ = ((2, "narrow"), (2, "wide"), (2, "unbounded"), (3, "narrow"))


def _solve_check(known, reverify, exact: bool, state: dict, label: str):
    """Every returned profile must re-verify; `exact` demands that the returned
    profiles all lie within MATCH_TOL of the known ones and cover them.

    Extra copies of one equilibrium (the solver deduplicates at 10x its
    tolerance) are counted in state["duplicates"], not failed."""

    def near(x, k) -> bool:
        return float(np.max(np.abs(np.asarray(x) - k))) <= MATCH_TOL

    def check(found) -> tuple[list[str], int]:
        problems = []
        for x in found:
            if not reverify(x):
                problems.append(f"returned profile {np.round(x, 6).tolist()} fails re-verification")
        matched = sum(any(near(x, k) for x in found) for k in known)
        stray = [x for x in found if not any(near(x, k) for k in known)]
        if exact and (stray or matched != len(known)):
            problems.append(
                f"expected exactly {[k.tolist() for k in known]}, got "
                f"{[np.round(x, 6).tolist() for x in found]}"
            )
        extra = len(found) - len(stray) - matched
        if extra > 0:
            state["duplicates"] += extra
            state["notes"].add(f"{label}: {extra} extra copies of a known equilibrium, "
                               f"{[np.round(x, 7).tolist() for x in found]}")
        return problems, matched

    return check


def build_solve(seed: int, wrap=_identity) -> Workload:
    rng = np.random.default_rng(seed)
    budget = sn.SearchBudget()
    e2 = wrap(sn.get_instance("example-4.1:E2").problem)
    ex41 = wrap(sn.get_instance("example-4.1").problem)
    qs = wrap(sn.get_instance("quadratic-sanity").problem)

    state = {"duplicates": 0, "notes": set()}

    def split_ok(problem):
        return lambda x: sn.verify_split_equilibrium(problem, x, REVERIFY).verdict

    ops = [
        Op(
            "solve_nash example-4.1:E2",
            lambda: sn.solve_nash(e2, budget),
            _solve_check(
                [np.array([9.0, 12.0]), np.array([0.0, 0.0])],
                lambda x: sn.verify_nash(e2, x, REVERIFY).verdict,
                exact=False, state=state, label="solve_nash example-4.1:E2",
            ),
            listed=2,
        ),
        Op(
            "solve_split example-4.1",
            lambda: sn.solve_split(ex41, budget),
            _solve_check([np.zeros(3)], split_ok(ex41), False, state, "solve_split example-4.1"),
        ),
        Op(
            "solve_split quadratic-sanity",
            lambda: sn.solve_split(qs, budget),
            _solve_check([np.array([1.0, 2.0])], split_ok(qs), True, state,
                             "solve_split quadratic-sanity"),
        ),
    ]
    for n, width in SOLVE_LQ:
        lq = make_lq_game(rng, n, width)
        game = wrap(lq_to_game(lq))
        label = f"solve_nash {lq.label}"
        ops.append(
            Op(
                label,
                lambda game=game: sn.solve_nash(game, budget),
                _solve_check(
                    [lq.x_star], lambda x, lq=lq: float(np.max(lq.regrets(x))) <= TOL,
                    True, state, label,
                ),
            )
        )
    return Workload("solve", ops, state=state)


# --- verify ------------------------------------------------------------------

# every width for 2 and 3 players, plus a second cheap game so that the median
# latency falls inside a group of similar operations, not between two groups
VERIFY_LQ = ((2, "narrow"), (2, "narrow"), (2, "wide"), (2, "unbounded"),
             (3, "narrow"), (3, "wide"), (3, "unbounded"))


def _regrets(report, side: str):
    if hasattr(report, "report_n"):
        return (report.report_n if side == "n" else report.report_m).regrets
    return report.regrets


def _verify_check(verdict: bool, expected: dict):
    """expected maps (side, player index) to the analytic regret there."""

    def check(report) -> tuple[list[str], int]:
        problems = []
        if report.verdict != verdict:
            problems.append(f"verdict {report.verdict}, reference {verdict}")
        for (side, i), want in expected.items():
            got = _regrets(report, side)[i]
            if abs(got - want) > REGRET_TOL:
                problems.append(f"regret of {side}[{i}] is {got!r}, analytic {want!r}")
        return _plain(problems)

    return check


def build_verify(seed: int, wrap=_identity) -> Workload:
    rng = np.random.default_rng(seed)
    budget = sn.SearchBudget()
    e2 = wrap(sn.get_instance("example-4.1:E2").problem)
    ex41 = wrap(sn.get_instance("example-4.1").problem)
    qs = wrap(sn.get_instance("quadratic-sanity").problem)
    ops = []

    def nash(label, game, x, verdict, expected=None):
        x = np.asarray(x, dtype=float)
        ops.append(
            Op(
                f"verify_nash {label} at {np.round(x, 4).tolist()}",
                lambda: sn.verify_nash(game, x, budget),
                _verify_check(verdict, expected or {}),
            )
        )

    def split(label, problem, x, verdict, expected=None):
        x = np.asarray(x, dtype=float)
        ops.append(
            Op(
                f"verify_split {label} at {np.round(x, 4).tolist()}",
                lambda: sn.verify_split_equilibrium(problem, x, budget),
                _verify_check(verdict, expected or {}),
            )
        )

    def delta() -> float:
        return float(rng.uniform(0.2, 1.0))

    d = delta()
    nash("example-4.1:E2", e2, [9.0, 12.0], True)
    nash("example-4.1:E2", e2, [0.0, 0.0], True)
    # u_d = 0.5*s*t - s^2/3 is quadratic in s with c = 1/3
    nash("example-4.1:E2", e2, [9.0 + d, 12.0], False, {("n", 0): d * d / 3.0})
    split("example-4.1", ex41, [0.0, 0.0, 0.0], True)
    split("example-4.1", ex41, [1.0, 2.0, 4.0], False, {("n", 2): 3.0 - 2.0 * math.sqrt(2.0)})
    d = delta()
    # u_a = x*y*z - 4*x^2 is quadratic in x with c = 4
    split("example-4.1", ex41, [d, 0.0, 0.0], False, {("n", 0): 4.0 * d * d})
    split("quadratic-sanity", qs, [1.0, 2.0], True)
    d = delta()
    split("quadratic-sanity", qs, [1.0 + d, 2.0], False, {("n", 0): d * d, ("m", 1): d * d})
    for n, width in VERIFY_LQ:
        lq = make_lq_game(rng, n, width)
        game = wrap(lq_to_game(lq))
        nash(lq.label, game, lq.x_star, True)
        x = lq.x_star.copy()
        x[int(rng.integers(n))] += delta() * (1.0 if rng.random() < 0.5 else -1.0)
        exact = lq.regrets(x)
        nash(lq.label, game, x, False, {("n", i): float(exact[i]) for i in range(n)})
    return Workload("verify", ops)


# --- audit -------------------------------------------------------------------

# every step divides the costs and the range, so the cost point is on the grid
GRID_STEPS = (0.002, 0.0025, 0.004)
PRICE_RANGE = 5.0
CDP_SAMPLES = 1000
SURJECTIVITY_SAMPLES = 50


def _random_stochastic(rng: np.random.Generator, n: int) -> np.ndarray:
    m = rng.uniform(0.1, 1.0, (n, n))
    return m / m.sum(axis=1, keepdims=True)


def _grid_check(model, step: float):
    def check(eqs) -> tuple[list[str], int]:
        problems = []
        if (model.c1, model.c2) not in eqs:
            problems.append("cost point missing from the grid equilibria")
        band = 3.0 * step
        far = [e for e in eqs if max(abs(e[0] - model.c1), abs(e[1] - model.c2)) > band + 1e-12]
        if far:
            problems.append(f"{len(far)} equilibria outside the band, e.g. {far[0]}")
        return _plain(problems)

    return check


def _fixers_check(model, pairs):
    """all_match_oracle holds and the non-identity fixers are grid equilibria."""

    def fixes(alpha, beta):
        p1 = alpha * model.c1 + (1 - beta) * model.c2
        p2 = (1 - alpha) * model.c1 + beta * model.c2
        return abs(p1 - model.c1) <= 1e-9 and abs(p2 - model.c2) <= 1e-9

    expected = {(float(a), float(b)) for a, b in pairs if fixes(a, b) and (a, b) != (1.0, 1.0)}

    def check(report) -> tuple[list[str], int]:
        problems = []
        if not report.all_match_oracle:
            problems.append("all_match_oracle is false")
        found = {
            (r.alpha, r.beta)
            for r in report.rows
            if r.verdict and (r.alpha, r.beta) != (1.0, 1.0)
        }
        if not expected or found != expected:
            problems.append(f"non-identity fixers {sorted(found)}, expected {sorted(expected)}")
        return _plain(problems)

    return check


def build_audit(seed: int, wrap=_identity) -> Workload:
    rng = np.random.default_rng(seed)
    budget = sn.SearchBudget()
    sample_seed = int(rng.integers(2**31))
    duopoly = {i: sn.get_instance(i).problem for i in ("bertrand-1-1", "bertrand-1-2")}
    qs = wrap(sn.get_instance("quadratic-sanity").problem)
    ex41 = wrap(sn.get_instance("example-4.1").problem)
    ops = []
    model = duopoly["bertrand-1-2"]
    for step in GRID_STEPS:
        ops.append(
            Op(
                f"enumerate_grid_equilibria bertrand-1-2 step {step:g}",
                lambda step=step: sn.enumerate_grid_equilibria(model, step, PRICE_RANGE, tolerance=TOL),
                _grid_check(model, step),
            )
        )
    axis = np.linspace(0.0, 1.0, 5)
    pairs = [(float(a), float(b)) for a in axis for b in axis]
    for ident, m in duopoly.items():
        ops.append(
            Op(
                f"audit_theorem_6_2 {ident}",
                lambda m=m: sn.audit_theorem_6_2(m, pairs, tolerance=TOL),
                _fixers_check(m, pairs),
            )
        )

    def no_min_dominance_failures(report):
        return _plain([f"{len(report.min_dominance_failures)} min-dominance failures"]
                      if report.min_dominance_failures else [])

    repeated = []
    for n in (2, 3):
        lq = make_lq_game(rng, n, "narrow")
        problem = sn.make_repeated_problem(lq_to_game(lq), _random_stochastic(rng, n))
        repeated.append((f"repeated {lq.label}", wrap(problem)))
    for label, problem in [("quadratic-sanity", qs), ("example-4.1", ex41), *repeated]:
        ops.append(
            Op(
                f"cdp_sample_check {label}",
                lambda problem=problem: sn.cdp_sample_check(
                    problem, CDP_SAMPLES, seed=sample_seed, tolerance=TOL
                ),
                no_min_dominance_failures,
            )
        )

    def probe_ok(result):
        return _plain([] if result.members and all(result.verified)
                      else [f"members {result.members}, verified {result.verified}"])

    for k in (8, 16):
        ops.append(
            Op(
                f"kkm_intersection_probe quadratic-sanity {k}",
                lambda k=k: sn.kkm_intersection_probe(qs, budget, points_per_axis=k),
                probe_ok,
            )
        )
    # a permutation maps the box onto itself; the 2x3 operator's image of the
    # nonnegative orthant is a cone strictly inside the target box; a stochastic
    # matrix with no zero entry maps the box onto a strictly smaller polytope
    surjectivity = [("quadratic-sanity", qs, True), ("example-4.1", ex41, False)]
    surjectivity += [(label, problem, False) for label, problem in repeated]
    for label, problem, surjective in surjectivity:
        ops.append(
            Op(
                f"check_surjectivity {label}",
                lambda problem=problem: sn.check_surjectivity(
                    problem, SURJECTIVITY_SAMPLES, seed=sample_seed
                ),
                lambda r, surjective=surjective: _plain(
                    [] if r.surjective_on_samples == surjective
                    else [f"surjective_on_samples is {r.surjective_on_samples}"]
                ),
            )
        )
    return Workload("audit", ops)


# --- cli ---------------------------------------------------------------------

CLI_CALLS = (
    (("audit", "example-4.1"), 3),
    (("audit", "bertrand"), 0),
    (("audit", "thm-6.2"), 3),
    (("audit", "cdp"), 0),
    (("audit", "kkm"), 0),
    (("verify-nash", "example-4.1:E2", "--profile", "9,12"), 0),
    (("verify-split", "quadratic-sanity", "--profile", "1,2"), 0),
    (("solve-split", "quadratic-sanity"), 0),
    (("bertrand-enumerate", "bertrand-1-2"), 0),
)
# the built-in instances those calls load
CLI_INSTANCES = ("example-4.1", "example-4.1:E2", "quadratic-sanity", "bertrand-1-1", "bertrand-1-2")
CLI_TIMEOUT_S = 120.0


def _reject_constant(name):
    raise ValueError(name)


def _cli_check(state: dict, key: int, expected_code: int, out: Path):
    schema = state["schema"]

    def check(code: int) -> tuple[list[str], int]:
        import jsonschema  # here, not at the top, so that setup probes do not pay for it

        problems = []
        if code != expected_code:
            problems.append(f"exit code {code}, documented {expected_code}")
        try:
            data = out.read_bytes()
        except OSError as exc:
            return problems + [f"no report: {exc}"], 0
        state["report_bytes"] += len(data)
        try:
            json.loads(data, parse_constant=_reject_constant)
        except ValueError:
            state["nonstrict_reports"] += 1
        try:
            jsonschema.validate(json.loads(data), schema)
        except (ValueError, jsonschema.ValidationError) as exc:
            problems.append(f"report fails the schema: {str(exc).splitlines()[0]}")
        first = state["first_bytes"].setdefault(key, data)
        if first != data:
            problems.append("report bytes differ from the earlier run of the same argv")
        return _plain(problems)

    return check


def _spawn(cmd, env, cwd, err_path: Path, state: dict) -> int:
    """Run one child to completion, recording its peak resident memory."""
    with open(err_path, "wb") as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err, env=env, cwd=cwd)
        timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    state["max_child_rss_kb"] = max(state["max_child_rss_kb"], usage.ru_maxrss)
    return proc.returncode


def build_cli(seed: int, root: Path, out_dir: Path, env: dict, in_process: bool = False,
              state: dict | None = None) -> Workload:
    """Cold `splitnash` processes, or with in_process=True warm `cli.main` calls."""
    import splitnash.cli as cli

    if state is None:
        state = {
            "schema": json.loads((root / "src" / "splitnash" / "report_schema.json").read_text()),
            "first_bytes": {},
            "report_bytes": 0,
            "nonstrict_reports": 0,
            "max_child_rss_kb": 0,
        }
    out_dir.mkdir(parents=True, exist_ok=True)
    cli_seed = str(seed % 2**31)
    for ident in CLI_INSTANCES:
        sn.get_instance(ident)
    ops = []
    for key, (argv, code) in enumerate(CLI_CALLS):
        out = out_dir / f"report-{key}.json"
        full = [*argv, "--format", "json", "--deterministic", "--seed", cli_seed, "--out", str(out)]

        def run(full=full, out=out, key=key):
            out.unlink(missing_ok=True)
            if in_process:
                with redirect_stdout(io.StringIO()):
                    return cli.main(full)
            cmd = [sys.executable, "-m", "splitnash.cli", *full]
            return _spawn(cmd, env, root, out_dir / f"report-{key}.err", state)

        ops.append(Op("splitnash " + " ".join(argv), run, _cli_check(state, key, code, out)))
    return Workload("cli", ops, min_rounds=1 if in_process else 2, state=state,
                    in_process=in_process)

