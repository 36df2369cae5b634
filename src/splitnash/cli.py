"""Command-line front end.

Verbs: verify-nash, solve-nash, verify-split, solve-split, audit, cdp-check,
kkm-probe, bertrand-enumerate. Every verb and every audit runs on one path:
`main` parses the arguments and builds one `Report`, which validates the
search budget once; the verb (for `audit`, the named audit) takes
``(args, rep)``, fills in the verdict, results and discrepancies from
``rep.budget``, and returns the exit code; `main` then emits the report to
stdout as text or JSON and optionally to a file as JSON. Identical command,
flags, and seed produce byte-identical JSON when --deterministic is set.

Exit codes: 0 success / verdict true / nonempty result; 1 verdict false,
empty result, or unexpected oracle mismatch; 2 input error, including an
invalid budget, seed, sample count, price range or probe resolution and a
malformed spec file, and then no report is written; 3 a documented
source-claim discrepancy was confirmed (distinct from failure). `main`
returns these codes and never raises `SystemExit`: arguments that argparse
rejects return its code 2, and --help returns 0.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import bertrand as bt
from .game import Game, VerificationReport, solve_nash, verify_nash
from .kernel import Interval, SearchBudget
from .models import builtin_ids, get_instance
from .split import (
    CdpReport,
    KkmProbeResult,
    LinearOperator,
    RelatednessReport,
    SplitProblem,
    SplitVerificationReport,
    cdp_sample_check,
    kkm_intersection_probe,
    solve_split,
    verify_split_equilibrium,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_DISCREPANCY = 3


class InputError(Exception):
    pass


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def load_game_spec(data: dict) -> Game:
    if not isinstance(data, dict):
        raise InputError("game spec must be a JSON object")
    try:
        players = data["players"]
        sets = data["strategy_sets"]
        utilities = data["utilities"]
    except KeyError as exc:
        raise InputError(f"game spec missing field {exc}") from None
    for name, value in (("players", players), ("utilities", utilities)):
        if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
            raise InputError(f"game spec field {name!r} must be a list of strings")
    if not isinstance(sets, list):
        raise InputError("game spec field 'strategy_sets' must be a list")
    intervals = []
    try:
        for s in sets:
            lo, hi = (s.get("lo"), s.get("hi")) if isinstance(s, dict) else (None, None)
            if not (_is_number(lo) and (hi is None or _is_number(hi))):
                raise InputError(f"strategy set {s!r} needs a numeric 'lo' and a numeric or null 'hi'")
            intervals.append(Interval(lo, math.inf if hi is None else hi))
        return Game.from_expressions(players, intervals, utilities)
    except ValueError as exc:
        raise InputError(str(exc)) from None


def load_split_spec(data: dict) -> SplitProblem:
    try:
        game_n = load_game_spec(data["game_n"])
        game_m = load_game_spec(data["game_m"])
        entries = data["matrix"]
    except KeyError as exc:
        raise InputError(f"split spec missing field {exc}") from None
    try:
        matrix = np.asarray(entries, dtype=float)
    except TypeError:
        raise InputError("split spec field 'matrix' must hold numbers") from None
    # main reports a ValueError (bad shape or entries) as an input error
    return SplitProblem(game_n=game_n, game_m=game_m, operator=LinearOperator(matrix))


def _load_json(path: str) -> dict:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:  # a missing file or a directory, say
        raise InputError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in {path}: {exc}") from None
    if not isinstance(data, dict):
        raise InputError(f"{path} must hold a JSON object")
    return data


_KINDS = {
    "game": ("a plain game", load_game_spec),
    "split": ("a split problem", load_split_spec),
}


def _resolve(target: str, kind: str):
    """The builtin instance of the given kind, or the spec file at that path."""
    what, load = _KINDS[kind]
    try:
        inst = get_instance(target)
    except KeyError:
        return load(_load_json(target))
    if inst.kind != kind:
        raise InputError(f"builtin {target!r} is not {what} (kind={inst.kind})")
    return inst.problem


def _profile(args, game: Game) -> np.ndarray:
    """The --profile values, which must be a feasible profile of the game."""
    try:
        x = np.array([float(p.strip()) for p in args.profile.split(",")])
    except ValueError as exc:
        raise InputError(f"malformed profile {args.profile!r}: {exc}") from None
    if not game.is_feasible(x, slack=1e-12):
        raise InputError(f"profile {x.tolist()} infeasible for {args.target}")
    return x


def _records(witnesses) -> list[dict]:
    return [w._asdict() for w in witnesses]


# The report layout of every result type. A result is written as an object of
# its fields, less "players", with report_n and report_m renamed; then each key
# in its row below is set, or overwritten, to that function of the result.
_RENAMED = {"report_n": "game_n", "report_m": "game_m"}
_LAYOUT = {
    VerificationReport: {
        "regrets": lambda r: dict(zip(r.players, r.regrets)),
        "witnesses": lambda r: {p: w._asdict() for p, w in r.witnesses.items()},
    },
    SplitVerificationReport: {},
    # strict JSON has no infinity: an infinite bound is written as null
    RelatednessReport: {
        "image_intervals": lambda r: [
            [v if math.isfinite(v) else None for v in iv] for iv in r.image_intervals
        ],
    },
    CdpReport: {
        "joint_cdp_failures": lambda r: _records(r.joint_cdp_failures),
        "vector_disjunction_failures": lambda r: _records(r.vector_disjunction_failures),
        "min_dominance_failures": lambda r: _records(r.min_dominance_failures),
    },
    KkmProbeResult: {},
    bt.MarkovAuditRow: {
        "agrees_with_oracle": lambda r: r.agrees_with_oracle,
        "agrees_with_claim": lambda r: r.agrees_with_claim,
    },
    bt.MarkovAuditReport: {
        "all_match_oracle": lambda r: r.all_match_oracle,
        "claim_discrepancy_count": lambda r: len(r.claim_discrepancies),
    },
}


def _json_default(value):
    """json.dumps' hook for what it cannot write: numpy values and results."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    layout = _LAYOUT.get(type(value))
    if layout is None:
        raise TypeError(f"not JSON serializable: {type(value).__name__}")
    doc = {
        _RENAMED.get(f.name, f.name): getattr(value, f.name)
        for f in dataclasses.fields(value)
        if f.name != "players"
    }
    doc.update((key, derive(value)) for key, derive in layout.items())
    return doc


def _dumps(value, indent: int | None = None) -> str:
    """Strict JSON, keys sorted: a NaN or an infinity raises ValueError."""
    return json.dumps(value, indent=indent, sort_keys=True, allow_nan=False, default=_json_default)


class Report:
    """The one report of a run, holding the budget it was computed with."""

    def __init__(self, args):
        if args.samples < 1:
            raise InputError(f"--samples must be at least 1, got {args.samples}")
        self.budget = SearchBudget(
            grid_step=args.grid_step,
            max_iterations=args.budget_iters,
            truncation_cap=args.cap,
            tolerance=args.tol,
            seed=args.seed,
        )
        if args.range is not None and not self.budget.grid_step <= args.range < math.inf:
            raise InputError(f"--range must be finite and at least --grid-step, got {args.range}")
        if args.points_per_axis < 1:
            raise InputError(f"--points-per-axis must be at least 1, got {args.points_per_axis}")
        self.args = args
        self.verdict: bool | None = None
        self.results: dict = {}
        self.discrepancies: list[str] = []
        self._t0 = time.perf_counter()

    def settle(self, ok: bool, results: dict) -> int:
        """Record the verdict and results; the exit code follows the verdict."""
        self.verdict = ok
        self.results = results
        return EXIT_OK if ok else EXIT_FAIL

    def to_dict(self) -> dict:
        d = {
            "schema_version": 1,
            "command": self.args.verb,
            "instance": self.args.target,
            "budget": {
                **dataclasses.asdict(self.budget),
                "samples": self.args.samples,
                "range": self.args.range,
            },
            "verdict": self.verdict,
            "tolerance": self.budget.tolerance,
            "results": self.results,
            "discrepancies": self.discrepancies,
        }
        if not self.args.deterministic:
            d["duration_sec"] = time.perf_counter() - self._t0
        return d

    def emit(self) -> None:
        """Write the report: JSON text only where --out or --format json asks for it."""
        doc = self.to_dict()
        text = _dumps(doc, indent=2) if self.args.out or self.args.format == "json" else None
        if self.args.out:
            try:
                Path(self.args.out).write_text(text + "\n")
            except OSError as exc:
                raise InputError(f"cannot write {self.args.out}: {exc.strerror}") from None
        if self.args.format == "json":
            print(text)
        else:
            self._emit_text(doc)

    def _emit_text(self, doc: dict) -> None:
        # built whole before printing, so a non-finite value prints nothing
        lines = [
            f"command:  {doc['command']}",
            f"instance: {doc['instance']}",
            f"verdict:  {doc['verdict']} (tolerance {doc['tolerance']:g})",
            *(f"{key}: {_dumps(value)}" for key, value in doc["results"].items()),
            *(f"discrepancy: {note}" for note in doc["discrepancies"]),
        ]
        print("\n".join(lines))


# --- checks shared by a verb and an audit ------------------------------------


def _kkm(problem: SplitProblem, args, rep: Report) -> int:
    result = kkm_intersection_probe(problem, rep.budget, points_per_axis=args.points_per_axis)
    return rep.settle(bool(result.members) and all(result.verified), {"probe": result})


def _cdp(problem: SplitProblem, args, rep: Report) -> CdpReport:
    b = rep.budget
    return cdp_sample_check(
        problem, args.samples, seed=b.seed, tolerance=b.tolerance, cap=b.truncation_cap
    )


def _enumerate(model: bt.BertrandModel, default_range: float, args, rep: Report) -> dict:
    hi = args.range if args.range is not None else default_range
    step = rep.budget.grid_step
    eqs = bt.enumerate_grid_equilibria(model, step, hi, tolerance=rep.budget.tolerance)
    return {"grid_step": step, "price_range": hi, "equilibria": eqs}


# --- verbs -------------------------------------------------------------------


def cmd_verify_nash(args, rep: Report) -> int:
    game = _resolve(args.target, "game")
    x = _profile(args, game)
    vr = verify_nash(game, x, rep.budget)
    return rep.settle(vr.verdict, {"profile": x, "verification": vr})


def cmd_solve_nash(args, rep: Report) -> int:
    sols = solve_nash(_resolve(args.target, "game"), rep.budget)
    return rep.settle(bool(sols), {"equilibria": sols})


def cmd_verify_split(args, rep: Report) -> int:
    problem = _resolve(args.target, "split")
    x = _profile(args, problem.game_n)
    vr = verify_split_equilibrium(problem, x, rep.budget)
    return rep.settle(vr.verdict, {
        "profile": x, "verification": vr, "relatedness": problem.relatedness,
    })


def cmd_solve_split(args, rep: Report) -> int:
    problem = _resolve(args.target, "split")
    sols = solve_split(problem, rep.budget)
    return rep.settle(bool(sols), {"split_equilibria": sols, "relatedness": problem.relatedness})


def cmd_cdp_check(args, rep: Report) -> int:
    report = _cdp(_resolve(args.target, "split"), args, rep)
    return rep.settle(not report.min_dominance_failures, {"cdp": report})


def cmd_kkm_probe(args, rep: Report) -> int:
    return _kkm(_resolve(args.target, "split"), args, rep)


def cmd_bertrand_enumerate(args, rep: Report) -> int:
    inst = get_instance(args.target) if args.target in builtin_ids() else None
    if inst is None or inst.kind != "bertrand":
        raise InputError(f"{args.target!r} is not a builtin duopoly instance")
    results = _enumerate(inst.problem, inst.problem.default_price_range(), args, rep)
    return rep.settle(bool(results["equilibria"]), results)


# --- audits ------------------------------------------------------------------


def _audit_example_4_1(args, rep: Report) -> int:
    inst = get_instance("example-4.1")
    problem: SplitProblem = inst.problem
    tol = rep.budget.tolerance
    x = np.array([1.0, 2.0, 4.0])
    vr = verify_split_equilibrium(problem, x, rep.budget)
    image, regrets_n, regrets_m = vr.image_profile, vr.report_n.regrets, vr.report_m.regrets
    c_expected = 3.0 - 2.0 * math.sqrt(2.0)

    results = {
        "profile": x,
        "image": image,
        "source_regrets": regrets_n,
        "target_regrets": regrets_m,
        "player_c_regret_oracle": c_expected,
        "relatedness": problem.relatedness,
    }
    oracle_failures = {
        "operator image of (1,2,4) is not (9,12)": not np.allclose(image, [9, 12], atol=1e-12),
        "unexpected regret where the oracle predicts zero": max(*regrets_m, *regrets_n[:2]) > tol,
        "player c regret does not match the analytic oracle": abs(regrets_n[2] - c_expected) > 1e-4,
    }
    for failure, failed in oracle_failures.items():
        if failed:
            return rep.settle(False, {**results, "failure": failure})
    rep.discrepancies.append(
        "source claims (1,2,4) is an equilibrium, but player c improves by "
        f"deviating to z = x*y = 2 (regret {regrets_n[2]:.6f} = 3 - 2*sqrt(2))"
    )
    rep.settle(False, results)  # the claimed profile is not a split equilibrium
    return EXIT_DISCREPANCY


def _audit_bertrand(args, rep: Report) -> int:
    model = get_instance("bertrand-1-2").problem
    results = _enumerate(model, 5.0, args, rep)
    eqs = results["equilibria"]
    contains_cost_point = any(
        abs(p1 - model.c1) < 1e-9 and abs(p2 - model.c2) < 1e-9 for p1, p2 in eqs
    )
    band = 3.0 * rep.budget.grid_step
    within = all(
        max(abs(p1 - model.c1), abs(p2 - model.c2)) <= band + 1e-12 for p1, p2 in eqs
    )
    at_costs = bt.profits(model, model.c1, model.c2)
    results.update(
        contains_cost_point=contains_cost_point,
        profits_at_costs=at_costs,
        all_within_band=within,
        band=band,
    )
    return rep.settle(contains_cost_point and within and at_costs == (0.0, 0.0), results)


def _audit_thm_6_2(args, rep: Report) -> int:
    if args.diagonal_only:
        pairs = [(t, t) for t in np.linspace(0.0, 1.0, 5)]
    else:
        axis = np.linspace(0.0, 1.0, 5)
        pairs = [(a, b) for a in axis for b in axis]
    out = {}
    all_oracle = True
    for ident in ("bertrand-1-1", "bertrand-1-2"):
        model = get_instance(ident).problem
        report = bt.audit_theorem_6_2(
            model, pairs, grid_step=rep.budget.grid_step, price_range=args.range,
            tolerance=rep.budget.tolerance,
        )
        out[ident] = report
        all_oracle = all_oracle and report.all_match_oracle
        for row in report.claim_discrepancies:
            rep.discrepancies.append(
                f"{ident}: claim predicts {row.stated_claim} at alpha={row.alpha:g}, "
                f"beta={row.beta:g}, grid verdict is {row.verdict} "
                f"(transform fixes costs: {row.oracle})"
            )
    code = rep.settle(all_oracle, {"audits": out, "all_match_oracle": all_oracle})
    return EXIT_DISCREPANCY if code == EXIT_OK and rep.discrepancies else code


def _audit_cdp(args, rep: Report) -> int:
    reports = {
        ident: _cdp(get_instance(ident).problem, args, rep)
        for ident in ("quadratic-sanity", "example-4.1")
    }
    return rep.settle(
        not any(r.min_dominance_failures for r in reports.values()),
        {"cdp": reports},
    )


def _audit_kkm(args, rep: Report) -> int:
    return _kkm(get_instance("quadratic-sanity").problem, args, rep)


AUDITS = {
    "example-4.1": _audit_example_4_1,
    "bertrand": _audit_bertrand,
    "thm-6.2": _audit_thm_6_2,
    "cdp": _audit_cdp,
    "kkm": _audit_kkm,
}


def cmd_audit(args, rep: Report) -> int:
    if args.target not in AUDITS:
        raise InputError(f"unknown audit {args.target!r}; known: {sorted(AUDITS)}")
    return AUDITS[args.target](args, rep)


# --- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    profile = ("--profile",), {
        "required": True,
        "help": "comma-separated strategy values; write --profile=-1,2 when the first "
        "is negative, so that it is not read as an option",
    }
    diagonal = ("--diagonal-only",), {"action": "store_true", "dest": "diagonal_only"}
    # verb, function, help, target help, options before the common ones
    verbs = (
        ("verify-nash", cmd_verify_nash, "check a profile for Nash equilibrium",
         "builtin game id or game spec JSON file", [profile]),
        ("solve-nash", cmd_solve_nash, "multistart best-response search", None, []),
        ("verify-split", cmd_verify_split, "check a profile and its operator image",
         "builtin split id or split spec JSON file", [profile]),
        ("solve-split", cmd_solve_split, "solve the split equilibrium problem", None, []),
        ("audit", cmd_audit, "run a named source-claim audit", "|".join(sorted(AUDITS)),
         [diagonal]),
        ("cdp-check", cmd_cdp_check, "sample the convexity-direction property", None, []),
        ("kkm-probe", cmd_kkm_probe, "finite-grid intersection probe", None, []),
        ("bertrand-enumerate", cmd_bertrand_enumerate, "grid equilibrium enumeration",
         "builtin duopoly id, e.g. bertrand-1-2", []),
    )
    common = (
        ("--tol", {"type": float, "default": 1e-6}),
        ("--grid-step", {"type": float, "default": 1e-2, "dest": "grid_step"}),
        ("--samples", {"type": int, "default": 1000}),
        ("--seed", {"type": int, "default": 0}),
        ("--budget-iters", {"type": int, "default": 500, "dest": "budget_iters"}),
        ("--cap", {"type": float, "default": 1e3}),
        ("--range", {"type": float, "default": None}),
        ("--points-per-axis", {"type": int, "default": 8, "dest": "points_per_axis"}),
        ("--format", {"choices": ("text", "json"), "default": "text"}),
        ("--out", {"type": str, "default": None}),
        ("--deterministic", {"action": "store_true"}),
    )
    parser = argparse.ArgumentParser(
        prog="splitnash",
        description="Verify, solve, and audit split Nash equilibrium problems.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, func, verb_help, target_help, options in verbs:
        p = sub.add_parser(verb, help=verb_help)
        p.add_argument("target", help=target_help)
        for flags, kwargs in options:
            p.add_argument(*flags, **kwargs)
        for flag, kwargs in common:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on rejected arguments, 0 after --help
        return exc.code
    try:
        # a value that overflows is reported by the finite checks, not by numpy
        with np.errstate(all="ignore"):
            rep = Report(args)
            code = args.func(args, rep)
            try:
                rep.emit()
                sys.stdout.flush()  # a reader that left raises here, not at exit
            except BrokenPipeError:
                # as Python's docs advise: the flush at exit then writes nowhere
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return code
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
