"""Command-line interface: verbs, exit codes, JSON reports, determinism."""

import argparse
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import splitnash
from splitnash.cli import (
    EXIT_DISCREPANCY,
    EXIT_FAIL,
    EXIT_INPUT,
    EXIT_OK,
    _json_default,
    build_parser,
    main,
)
from splitnash.kernel import Interval, SearchBudget


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def run_json(capsys, *argv) -> tuple[int, dict]:
    code, out = run(capsys, *argv, "--format", "json")
    return code, json.loads(out)


def _command(argv) -> str:
    """The command of an argv: its verb, or for audit the verb and the audit's name."""
    return " ".join(argv[:2]) if argv[0] == "audit" else argv[0]


def _child_env() -> dict:
    """The environment of a child Python that imports the splitnash this test imported."""
    src = str(Path(splitnash.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _python(*argv: str) -> subprocess.CompletedProcess:
    """A child Python run on argv that imports the splitnash this test imported."""
    return subprocess.run([sys.executable, *argv], env=_child_env(), capture_output=True, text=True)


@pytest.fixture(scope="module")
def schema() -> dict:
    with resources.files("splitnash").joinpath("report_schema.json").open() as fh:
        return json.load(fh)


class TestExitCodes:
    def test_verified_equilibrium_exits_ok(self, capsys):
        code, _ = run(capsys, "verify-nash", "example-4.1:E2", "--profile", "9,12")
        assert code == EXIT_OK

    def test_failed_verification_exits_fail(self, capsys):
        code, _ = run(capsys, "verify-nash", "example-4.1:E1", "--profile", "1,2,4")
        assert code == EXIT_FAIL

    def test_malformed_profile_is_an_input_error(self, capsys):
        code, _ = run(capsys, "verify-nash", "example-4.1:E2", "--profile", "9,twelve")
        assert code == EXIT_INPUT

    def test_unknown_instance_is_an_input_error(self, capsys):
        code, _ = run(capsys, "verify-nash", "no-such-instance", "--profile", "1")
        assert code == EXIT_INPUT

    def test_wrong_profile_length_is_an_input_error(self, capsys):
        code, _ = run(capsys, "verify-nash", "example-4.1:E2", "--profile", "9,12,13")
        assert code == EXIT_INPUT

    def test_two_economy_audit_reports_the_documented_discrepancy(self, capsys):
        code, out = run(capsys, "audit", "example-4.1")
        assert code == EXIT_DISCREPANCY
        assert "discrepancy" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ("bertrand-enumerate", "bertrand-1-2", "--cap", "0"),
            ("cdp-check", "quadratic-sanity", "--budget-iters", "0"),
            ("audit", "thm-6.2", "--tol", "0"),
            ("verify-nash", "example-4.1:E2", "--profile", "9,12", "--seed", "-1"),
            ("verify-nash", "example-4.1:E2", "--profile", "9,12", "--samples", "0"),
            ("verify-nash", "example-4.1", "--profile", "1,2,4"),
            ("verify-nash", "example-4.1:E2", "--profile", "9,12", "--tol", "nan"),
            ("cdp-check", "quadratic-sanity", "--cap", "inf"),
            ("verify-nash", "example-4.1:E2", "--profile", "9,12", "--grid-step", "inf"),
            # argparse rejects --cap, --budget-iters, --samples and --grid-step on
            # the verbs above, which do not take them; each value check is reached here
            ("solve-nash", "example-4.1:E2", "--cap", "0"),
            ("solve-split", "quadratic-sanity", "--budget-iters", "0"),
            ("cdp-check", "quadratic-sanity", "--samples", "0"),
            ("bertrand-enumerate", "bertrand-1-2", "--grid-step", "inf"),
            ("bertrand-enumerate", "bertrand-1-2", "--range", "inf"),
            ("bertrand-enumerate", "bertrand-1-2", "--range", "-1"),
            ("bertrand-enumerate", "bertrand-1-2", "--range", "0"),
            ("kkm-probe", "quadratic-sanity", "--points-per-axis", "0"),
        ],
    )
    def test_invalid_input_writes_no_report(self, capsys, tmp_path, argv):
        out = tmp_path / "report.json"
        code, _ = run(capsys, *argv, "--out", str(out))
        assert code == EXIT_INPUT
        assert not out.exists()

    @pytest.mark.parametrize("value, shown", [("inf", "inf"), ("-inf", "-inf"), ("nan", "nan")])
    @pytest.mark.parametrize(
        "verb, target, rest",
        [("verify-nash", "example-4.1:E2", ",1"), ("verify-split", "example-4.1", ",1,1")],
    )
    def test_non_finite_profile_is_an_input_error(self, capsys, verb, target, rest, value, shown):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            # "--profile=" so that argparse does not read "-inf" as an option
            code = main([verb, target, f"--profile={value}{rest}"])
        err = capsys.readouterr().err
        assert code == EXIT_INPUT
        ones = ", 1.0" * rest.count(",")
        assert f"profile [{shown}{ones}] infeasible for {target}" in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize(
        "argv, cause",
        [
            (
                # a candidate of the exact best response; tests/test_game.py's
                # TestScannedHalfLines pins the scan's first non-finite point
                ("solve-nash", "example-4.1:E2", "--cap", "1e308"),
                "error: non-finite value nan at 2.0234003532290274e+307 on [0.0, 1e+308]"
                " in the best response of player 'd'",
            ),
            (
                ("verify-nash", "example-4.1:E2", "--profile", "1e308,1"),
                "error: non-finite payoff -inf of player 'd' at [1e+308, 1.0]",
            ),
        ],
    )
    def test_overflowing_evaluation_is_an_input_error(self, tmp_path, argv, cause):
        # in a child process, where numpy's overflow warnings would reach stderr
        out = tmp_path / "report.json"
        done = _python("-m", "splitnash.cli", *argv, "--out", str(out))
        assert done.returncode == EXIT_INPUT
        assert (done.stderr, done.stdout) == (cause + "\n", "")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, cause",
        [
            (
                ("cdp-check", "--samples", "20"),
                "error: non-finite payoff nan of player 'x' at [636.9616873214543, 222.49570666462554]",
            ),
            (
                ("kkm-probe", "--points-per-axis", "4"),
                "error: non-finite payoff nan of player 'x' at [333.3333333333333, 0.0]",
            ),
        ],
    )
    def test_a_non_finite_payoff_is_no_finding(self, tmp_path, argv, cause):
        # x^200 overflows on most of [0, 1000], and inf - inf is nan, which
        # compares false: it read as 20 min-dominance failures and no member
        box = [{"lo": 0, "hi": 1000}, {"lo": 0, "hi": 1000}]
        spec = tmp_path / "split.json"
        spec.write_text(json.dumps({
            "game_n": {"players": ["x", "y"], "strategy_sets": box,
                       "utilities": ["x^200*y - x^201", "y - y^2"]},
            "game_m": {"players": ["x", "y"], "strategy_sets": box,
                       "utilities": ["x - x^2", "y - y^2"]},
            "matrix": [[1, 0], [0, 1]],
        }))
        out = tmp_path / "report.json"
        done = _python("-m", "splitnash.cli", argv[0], str(spec), *argv[1:], "--out", str(out))
        assert done.returncode == EXIT_INPUT
        assert (done.stderr, done.stdout) == (cause + "\n", "")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [("verify-nash", "--profile", "1"), ("solve-nash",)])
    def test_overflowing_power_of_a_constant_is_an_input_error(self, capsys, tmp_path, argv):
        # 1e300^2 has no variable, so it is a float power, which raises on overflow
        spec = tmp_path / "game.json"
        spec.write_text(json.dumps({
            "players": ["x"],
            "strategy_sets": [{"lo": 0, "hi": 1}],
            "utilities": ["x - 1e300^2"],
        }))
        out = tmp_path / "report.json"
        assert main([argv[0], str(spec), *argv[1:], "--out", str(out)]) == EXIT_INPUT
        captured = capsys.readouterr()
        # verify-nash first evaluates the current payoff, solve-nash a best response
        where = " in the best response of player 'x'" if argv[0] == "solve-nash" else ""
        assert captured.err == f"error: power overflow: 1e+300^2.0{where}\n"
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify-split", "example-4.1", "--profile", "-1,2,4"),
            ("verify-nash", "example-4.1:E2"),
            ("no-such-verb", "example-4.1"),
            ("bertrand-enumerate", "bertrand-1-2", "--tol", "two"),
            # the full thm-6.2 audit reports the diagonal's rows with the others
            ("audit", "thm-6.2", "--diagonal-only"),
        ],
    )
    def test_rejected_arguments_return_the_parser_exit_code(self, capsys, argv):
        # main returns argparse's code rather than raising SystemExit
        assert main(list(argv)) == EXIT_INPUT
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, usage, error",
        [
            (("bertrand-enumerate", "bertrand-1-2", "--cap", "0"), "bertrand-enumerate [-h] [--tol TOL]",
             "bertrand-enumerate: error: unrecognized arguments: --cap 0"),
            (("audit", "example-4.1", "--samples", "5"), "audit example-4.1 [-h] [--tol TOL] [--seed SEED]",
             "audit example-4.1: error: unrecognized arguments: --samples 5"),
            (("audit", "kkm", "--grid-step", "0.5"), "audit kkm [-h] [--tol TOL] [--seed SEED] [--cap CAP]",
             "audit kkm: error: unrecognized arguments: --grid-step 0.5"),
        ],
    )
    def test_an_option_the_verb_does_not_take_is_rejected_with_the_verbs_usage(
        self, capsys, tmp_path, argv, usage, error
    ):
        # the usage names the options this verb or audit takes, not the list of verbs
        out = tmp_path / "report.json"
        assert main([*argv, "--out", str(out)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.err.startswith(f"usage: splitnash {usage}")
        assert captured.err.endswith(f"splitnash {error}\n")
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("target", ["foo", "x.json", "example-4.1"])
    def test_bertrand_enumerate_needs_a_builtin_duopoly(self, capsys, target):
        assert main(["bertrand-enumerate", target]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.err == f"error: '{target}' is not a builtin duopoly instance\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "where, reason",
        [("missing/report.json", "No such file or directory"), (".", "Is a directory")],
    )
    def test_an_unwritable_out_path_is_an_input_error(self, capsys, tmp_path, where, reason):
        out = tmp_path / where
        argv = ["verify-nash", "example-4.1:E2", "--profile", "9,12", "--out", str(out)]
        assert main(argv) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot write {out}: {reason}\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "name, reason",
        [
            ("spec-dir", "Is a directory"),
            ("binary.json", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
            ("missing.json", "No such file or directory"),
        ],
    )
    def test_an_unreadable_spec_is_an_input_error(self, capsys, tmp_path, name, reason):
        (tmp_path / "spec-dir").mkdir()
        (tmp_path / "binary.json").write_bytes(b"\xff\xfe{}")
        spec, out = tmp_path / name, tmp_path / "report.json"
        assert main(["verify-nash", str(spec), "--profile", "1", "--out", str(out)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot read {spec}: {reason}\n"
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize(
        "argv, name",
        [
            (("audit", "nope"), "nope"),
            # an option goes after the audit's name: before it, audit reads "2" as the name
            (("audit", "--tol", "2", "bertrand"), "2"),
        ],
    )
    def test_an_unknown_audit_is_an_input_error(self, capsys, tmp_path, argv, name):
        # argparse rejects it, with the usage of audit and the five audits it knows
        out = tmp_path / "report.json"
        assert main([*argv, "--out", str(out)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.err.startswith("usage: splitnash audit [-h] {example-4.1,bertrand,thm-6.2,cdp,kkm}")
        assert f"splitnash audit: error: argument audit: invalid choice: '{name}'" in captured.err
        known = captured.err.split("(choose from ")[1]
        assert all(audit in known for audit in ("example-4.1", "bertrand", "thm-6.2", "cdp", "kkm"))
        assert captured.out == "" and not out.exists()

    def test_a_missing_audit_is_an_input_error(self, capsys):
        assert main(["audit"]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.err.splitlines()[-1] == "splitnash audit: error: the following arguments are required: audit"

    @pytest.mark.parametrize(
        "argv",
        [
            ("cdp-check", "quadratic-sanity", "--samples", "1000000000000"),
            ("kkm-probe", "quadratic-sanity", "--points-per-axis", "10000000"),
            ("bertrand-enumerate", "bertrand-1-2", "--grid-step", "1e-12"),
        ],
    )
    def test_an_allocation_that_cannot_be_met_is_an_input_error(self, tmp_path, argv):
        # arrays of 36.4, 728 and 72.8 TiB: under a 3 GiB address-space limit
        # numpy's allocation fails at once, whatever the host's memory
        out = tmp_path / "report.json"
        probe = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))\n"
            "from splitnash.cli import main\n"
            "sys.exit(main(sys.argv[1:]))"
        )
        child = _python("-c", probe, *argv, "--out", str(out))
        assert (child.returncode, child.stdout, child.stderr.count("\n")) == (EXIT_INPUT, "", 1)
        assert child.stderr.startswith("error: Unable to allocate ") and not out.exists()

    def test_a_leading_minus_needs_the_equals_form(self, capsys):
        # "--profile -1,2" reads "-1,2" as an option; "--profile=-1,2" is a profile
        assert main(["verify-nash", "example-4.1:E2", "--profile", "-1,2"]) == EXIT_INPUT
        assert "argument --profile: expected one argument" in capsys.readouterr().err
        assert main(["verify-nash", "example-4.1:E2", "--profile=-1,2"]) == EXIT_INPUT
        assert "profile [-1.0, 2.0] infeasible for example-4.1:E2" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [("--help",), ("verify-nash", "--help"), ("verify-split", "-h")])
    def test_help_returns_zero(self, capsys, argv):
        assert main(list(argv)) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("usage: splitnash")
        if len(argv) > 1:
            assert "--profile=-1,2" in " ".join(out.split())


@pytest.mark.parametrize("value", [object(), SearchBudget(), Interval(0.0, 1.0), {1, 2}])
def test_report_serializer_rejects_what_is_not_a_result(value):
    with pytest.raises(TypeError, match="not JSON serializable"):
        _json_default(value)


class TestVerbs:
    def test_solve_split_finds_the_quadratic_pair(self, capsys):
        code, doc = run_json(capsys, "solve-split", "quadratic-sanity")
        assert code == EXIT_OK
        (sol,) = doc["results"]["split_equilibria"]
        assert sol == pytest.approx([1.0, 2.0], abs=1e-4)

    def test_solve_split_finds_the_origin_of_example_4_1(self, capsys):
        code, out = run(capsys, "solve-split", "example-4.1", "--format", "json", "--deterministic")
        assert code == EXIT_OK
        assert json.loads(out)["results"]["split_equilibria"] == [[0.0, 0.0, 0.0]]

    def test_verify_split_at_the_pair(self, capsys):
        code, doc = run_json(capsys, "verify-split", "quadratic-sanity", "--profile", "1,2")
        assert code == EXIT_OK and doc["verdict"] is True

    def test_bertrand_enumeration(self, capsys):
        code, doc = run_json(
            capsys, "bertrand-enumerate", "bertrand-1-2", "--grid-step", "0.01", "--range", "5"
        )
        assert code == EXIT_OK
        runs = doc["results"]["equilibrium_runs"]
        assert [1.0, 2.0, 2.0] in runs
        assert all(
            max(abs(p1 - 1.0), abs(first - 2.0), abs(last - 2.0)) <= 0.03
            for p1, first, last in runs
        )

    def test_bertrand_enumeration_lists_no_price_past_the_range(self, capsys):
        # 0.6 does not divide 10: the grid ends at 9.6, not at 10.2
        code, doc = run_json(
            capsys, "bertrand-enumerate", "bertrand-1-2", "--grid-step", "0.6", "--range", "10"
        )
        assert code == EXIT_OK
        assert max(max(run) for run in doc["results"]["equilibrium_runs"]) == 9.6

    def test_cost_audit(self, capsys):
        code, _ = run(capsys, "audit", "bertrand")
        assert code == EXIT_OK

    def test_markov_audit_on_the_diagonal_matches_both_sources(self, capsys):
        code, doc = run_json(capsys, "audit", "thm-6.2")
        assert code == EXIT_DISCREPANCY
        assert doc["results"]["all_match_oracle"] is True
        diagonal = [
            row
            for audit in doc["results"]["audits"].values()
            for row in audit["rows"]
            if row["alpha"] == row["beta"]
        ]
        assert len(diagonal) == 10
        assert all(row["agrees_with_oracle"] and row["agrees_with_claim"] for row in diagonal)

    def test_verify_split_writes_each_verification_fact_once(self, capsys):
        code, out = run(
            capsys, "verify-split", "example-4.1", "--profile", "1,2,4", "--format", "json",
            "--deterministic",
        )
        assert code == EXIT_FAIL
        verification = json.loads(out)["results"]["verification"]
        for side in ("game_n", "game_m"):
            assert set(verification[side]) == {"regrets", "verdict", "witnesses"}
        strategy = verification["game_n"]["witnesses"]["c"]["strategy"]
        assert isinstance(strategy, float) and strategy == pytest.approx(2.0, abs=1e-3)

    def test_the_probe_checks_its_resolution(self, capsys):
        assert main(["kkm-probe", "quadratic-sanity", "--points-per-axis", "0"]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.err == "error: points_per_axis must be at least 1, got 0\n"
        assert captured.out == ""

    def test_a_verb_without_a_probe_rejects_its_resolution(self, capsys):
        argv = ["verify-nash", "example-4.1:E2", "--profile", "9,12", "--points-per-axis", "8"]
        assert main(argv) == EXIT_INPUT
        captured = capsys.readouterr()
        assert "error: unrecognized arguments: --points-per-axis 8" in captured.err
        assert captured.out == ""

    def test_kkm_probe(self, capsys):
        code, doc = run_json(capsys, "kkm-probe", "quadratic-sanity")
        assert code == EXIT_OK
        assert doc["results"]["probe"]["members"]

    def test_cdp_check(self, capsys):
        code, doc = run_json(capsys, "cdp-check", "quadratic-sanity", "--samples", "200")
        assert code == EXIT_OK
        assert doc["results"]["cdp"]["min_dominance_failures"] == []


def _grid_index(g: np.ndarray, price: float) -> int:
    i = int(np.searchsorted(g, price))
    assert g[i] == price  # a report's prices are grid prices, bit for bit
    return i


class TestEquilibriumRuns:
    """A run [p1, p2_first, p2_last] of a bertrand-enumerate report stands for
    every grid price p2 from p2_first to p2_last against p1."""

    @pytest.mark.parametrize("ident", ["bertrand-1-2", "bertrand-1-1"])
    @pytest.mark.parametrize("flags", [
        ("--grid-step", "0.01", "--range", "10"),
        ("--grid-step", "0.6", "--range", "10"),  # a step that does not divide the range
        ("--grid-step", "0.002", "--range", "5"),
        ("--tol", "2"),
    ])
    def test_runs_expand_to_the_enumerated_equilibria(self, capsys, ident, flags):
        code, doc = run_json(capsys, "bertrand-enumerate", ident, *flags)
        res, budget = doc["results"], doc["budget"]
        step, hi = budget["grid_step"], res["price_range"]
        expected = splitnash.enumerate_grid_equilibria(
            splitnash.get_instance(ident).problem, step, hi, tolerance=budget["tolerance"]
        )
        assert code == (EXIT_OK if expected else EXIT_FAIL)
        assert res["equilibrium_count"] == len(expected)
        g = splitnash.bertrand._price_grid(hi, step)
        cells = [
            (_grid_index(g, p1), _grid_index(g, first), _grid_index(g, last))
            for p1, first, last in res["equilibrium_runs"]
        ]
        assert all(first <= last for _, first, last in cells)
        expanded = [(g[i], g[j]) for i, first, last in cells for j in range(first, last + 1)]
        assert expanded == expected  # row-major, as the list of pairs
        # maximal: the next run of a row starts past a gap of at least one price
        assert all(b[0] > a[0] or b[1] > a[2] + 1 for a, b in zip(cells, cells[1:]))

    @pytest.mark.parametrize("flags", [(), ("--grid-step", "0.03"), ("--grid-step", "0.25", "--tol", "1")])
    def test_the_cost_audit_checks_the_runs_as_it_checked_the_pairs(self, capsys, flags):
        # the cost point off the grid at step 0.03, equilibria outside the band at 0.25
        code, doc = run_json(capsys, "audit", "bertrand", *flags)
        res, budget = doc["results"], doc["budget"]
        pairs = splitnash.enumerate_grid_equilibria(
            splitnash.get_instance("bertrand-1-2").problem, budget["grid_step"], 5.0,
            tolerance=budget["tolerance"],
        )
        cost = any(abs(p1 - 1.0) < 1e-9 and abs(p2 - 2.0) < 1e-9 for p1, p2 in pairs)
        within = all(max(abs(p1 - 1.0), abs(p2 - 2.0)) <= res["band"] + 1e-12 for p1, p2 in pairs)
        assert (res["contains_cost_point"], res["all_within_band"]) == (cost, within)
        assert code == (EXIT_OK if cost and within else EXIT_FAIL)

    def test_the_default_report_is_small(self, capsys):
        # 46,060 pairs, almost all in the zero-demand region, were a 2 MB report
        code, out = run(
            capsys, "bertrand-enumerate", "bertrand-1-2", "--format", "json", "--deterministic"
        )
        doc = json.loads(out)["results"]
        assert code == EXIT_OK and len(out.encode()) < 64 * 1024
        assert (len(doc["equilibrium_runs"]), doc["equilibrium_count"]) == (507, 46_060)


class TestReports:
    def test_reports_validate_against_the_schema(self, capsys, tmp_path, schema):
        spec = tmp_path / "game.json"
        spec.write_text(json.dumps({
            "players": ["p", "q"],
            "strategy_sets": [{"lo": 0, "hi": 5}, {"lo": 0, "hi": 5}],
            "utilities": ["0 - (p - 1)^2", "0 - (q - 2)^2"],
        }))
        for argv in (
            ("verify-nash", "example-4.1:E2", "--profile", "9,12"),
            ("verify-nash", "example-4.1:E1", "--profile", "1,2,4"),
            ("solve-nash", str(spec)),
            ("verify-split", "quadratic-sanity", "--profile", "1,2"),
            ("solve-split", "quadratic-sanity"),
            ("audit", "bertrand"),
            ("cdp-check", "quadratic-sanity", "--samples", "50"),
            ("kkm-probe", "quadratic-sanity"),
            ("bertrand-enumerate", "bertrand-1-2", "--grid-step", "0.01", "--range", "5"),
        ):
            _, doc = run_json(capsys, *argv)
            jsonschema.validate(doc, schema)
            assert doc["schema_version"] == 3 and sorted(doc["budget"]) == BUDGET_KEYS[_command(argv)]

    @pytest.mark.parametrize(
        "argv",
        [
            ("solve-split", "example-4.1"),
            ("verify-split", "example-4.1", "--profile", "1,2,4"),
            ("audit", "example-4.1"),
        ],
    )
    def test_reports_are_strict_json(self, capsys, schema, argv):
        # the unbounded source sets map to image intervals [0, inf), whose
        # infinite bound is written as null: no Infinity or NaN token
        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        _, out = run(capsys, *argv, "--format", "json", "--deterministic")
        doc = json.loads(out, parse_constant=reject)
        jsonschema.validate(doc, schema)
        assert sorted(doc["budget"]) == BUDGET_KEYS[_command(argv)] and "tolerance" not in doc
        assert doc["results"]["relatedness"]["image_intervals"] == [[0.0, None], [0.0, None]]

    @pytest.mark.parametrize(
        "flags, documents", [((), 0), (("--format", "json"), 1), (("--out",), 1)]
    )
    def test_only_a_json_report_is_encoded_as_one(
        self, capsys, monkeypatch, tmp_path, flags, documents
    ):
        indents = []
        dumps = json.dumps

        def counted(*args, **kwargs):
            indents.append(kwargs.get("indent"))
            return dumps(*args, **kwargs)

        monkeypatch.setattr(json, "dumps", counted)
        out = (str(tmp_path / "report.json"),) if flags == ("--out",) else ()
        code, _ = run(
            capsys, "bertrand-enumerate", "bertrand-1-2", "--grid-step", "0.05", *flags, *out
        )
        assert code == EXIT_OK
        assert indents.count(2) == documents

    def test_a_text_report_rejects_a_non_finite_value_before_printing(self, capsys, monkeypatch):
        def settle(rep, ok, results):
            rep.verdict, rep.results = ok, {"x": float("inf")}
            return EXIT_OK

        monkeypatch.setattr(splitnash.cli.Report, "settle", settle)
        assert main(["bertrand-enumerate", "bertrand-1-2", "--grid-step", "0.5"]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == "" and "Out of range float values" in captured.err

    @pytest.mark.parametrize("flags", [("--format", "json"), ("--out",), ()])
    def test_a_non_finite_value_in_a_price_row_is_an_input_error(
        self, capsys, monkeypatch, tmp_path, flags
    ):
        def settle(rep, ok, results):
            runs = [[1.0, 2.0, 2.0], [3.0, float("nan"), 4.0]]
            rep.verdict, rep.results = ok, {"equilibrium_runs": runs}
            return EXIT_OK

        monkeypatch.setattr(splitnash.cli.Report, "settle", settle)
        out = tmp_path / "report.json"
        argv = [*flags, str(out)] if flags == ("--out",) else list(flags)
        assert main(["bertrand-enumerate", "bertrand-1-2", "--grid-step", "0.5", *argv]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        # one encoder writes text lines and JSON reports, so one message names the value
        assert captured.err == "error: Out of range float values are not JSON compliant: nan\n"

    def test_deterministic_flag_gives_byte_identical_output(self, capsys):
        _, a = run(
            capsys, "verify-nash", "example-4.1:E2", "--profile", "9,12",
            "--format", "json", "--deterministic",
        )
        _, b = run(
            capsys, "verify-nash", "example-4.1:E2", "--profile", "9,12",
            "--format", "json", "--deterministic",
        )
        assert a == b

    def test_duration_is_omitted_only_under_deterministic(self, capsys):
        _, doc = run_json(capsys, "audit", "bertrand")
        assert "duration_sec" in doc
        _, det = run_json(capsys, "audit", "bertrand", "--deterministic")
        assert "duration_sec" not in det

    def test_out_flag_writes_the_report_file(self, capsys, tmp_path, schema):
        out = tmp_path / "report.json"
        code, _ = run(
            capsys, "verify-nash", "example-4.1:E2", "--profile", "9,12", "--out", str(out)
        )
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        jsonschema.validate(doc, schema)
        assert doc["budget"] == {"seed": 0, "tolerance": 1e-6} and "tolerance" not in doc


# a one-player game spec on [0, 1]
GAME = {"players": ["p"], "strategy_sets": [{"lo": 0, "hi": 1}], "utilities": ["p"]}


class TestFileInputs:
    def test_game_spec_file(self, capsys, tmp_path):
        spec = {
            "players": ["p", "q"],
            "strategy_sets": [{"lo": 0, "hi": 5}, {"lo": 0, "hi": 5}],
            "utilities": ["0 - (p - 1)^2", "0 - (q - 2)^2"],
        }
        path = tmp_path / "game.json"
        path.write_text(json.dumps(spec))
        code, _ = run(capsys, "verify-nash", str(path), "--profile", "1,2")
        assert code == EXIT_OK

    def test_split_spec_file(self, capsys, tmp_path):
        game = {
            "players": ["p", "q"],
            "strategy_sets": [{"lo": 0, "hi": 5}, {"lo": 0, "hi": 5}],
            "utilities": ["0 - (p - 1)^2", "0 - (q - 2)^2"],
        }
        target = {
            "players": ["r", "s"],
            "strategy_sets": [{"lo": 0, "hi": 5}, {"lo": 0, "hi": 5}],
            "utilities": ["0 - (r - 2)^2", "0 - (s - 1)^2"],
        }
        spec = {"game_n": game, "game_m": target, "matrix": [[0, 1], [1, 0]]}
        path = tmp_path / "split.json"
        path.write_text(json.dumps(spec))
        code, _ = run(capsys, "verify-split", str(path), "--profile", "1,2")
        assert code == EXIT_OK

    def test_invalid_json_is_an_input_error(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _ = run(capsys, "verify-nash", str(path), "--profile", "1")
        assert code == EXIT_INPUT

    def test_missing_field_is_an_input_error(self, capsys, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text(json.dumps({"players": ["p"]}))
        code, _ = run(capsys, "verify-nash", str(path), "--profile", "1")
        assert code == EXIT_INPUT

    @pytest.mark.parametrize(
        "spec",
        [
            {"players": ["p"], "strategy_sets": [{"lo": None}], "utilities": ["p"]},
            {"players": ["p"], "strategy_sets": [{"lo": 0, "hi": 1}], "utilities": [5]},
            {"players": ["p"], "strategy_sets": [[0, 1]], "utilities": ["p"]},
            {"players": 3, "strategy_sets": [{"lo": 0, "hi": 1}], "utilities": ["p"]},
            [1, 2],
            {"players": ["p"], "strategy_sets": [{"lo": 0, "hi": 1}], "utilities": ["p - 1e999*0"]},
            {"players": ["p"], "strategy_sets": [{"lo": 0, "hi": 1}], "utilities": ["p^1e999"]},
            {"players": ["p", "q"], "strategy_sets": [{"lo": 0, "hi": 1}], "utilities": ["p"]},
            # numbers no float holds: an integer too large, and an infinity,
            # written as Infinity, which json reads as it reads 1e400; null is
            # the one way to write a half-line, on which p - p^2 would verify
            {"players": ["p"], "strategy_sets": [{"lo": 0, "hi": 10**400}], "utilities": ["p"]},
            {"players": ["p"], "strategy_sets": [{"lo": 0, "hi": math.inf}], "utilities": ["p - p^2"]},
            {"players": ["p"], "strategy_sets": [{"lo": -math.inf, "hi": 1}], "utilities": ["p"]},
        ],
    )
    def test_malformed_spec_is_an_input_error(self, capsys, tmp_path, spec):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "report.json"
        code, _ = run(capsys, "verify-nash", str(path), "--profile", "0.5", "--out", str(out))
        assert code == EXIT_INPUT
        assert not out.exists()

    def test_non_numeric_matrix_is_an_input_error(self, capsys, tmp_path):
        # a string and a bool are no JSON numbers, though numpy reads "0" and
        # true as 0.0 and 1.0: the last of these was read as the swap matrix;
        # nor is an integer too large for a float, or an infinity
        game = {"players": ["p", "q"], "strategy_sets": [{"lo": 0, "hi": 2}] * 2, "utilities": ["p", "q"]}
        path, out = tmp_path / "split.json", tmp_path / "report.json"
        for matrix in (
            {"a": 1}, [["0", 1], [1, 0]], [[0, True], [1, False]], [[10**400, 0], [0, 1]],
            [[math.inf, 0], [0, 1]], [["0", True], ["1", False]],
        ):
            path.write_text(json.dumps({"game_n": game, "game_m": game, "matrix": matrix}))
            code = main(["verify-split", str(path), "--profile", "1,2", "--out", str(out)])
            captured = capsys.readouterr()
            assert code == EXIT_INPUT, matrix
            assert captured.err == "error: split spec field 'matrix' must hold numbers\n"
            assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"game_n": [1, 2], "game_m": GAME, "matrix": [[1]]}, "game spec must be a JSON object"),
            (
                {"game_n": {**GAME, "strategy_sets": {"lo": 0, "hi": 1}}, "game_m": GAME, "matrix": [[1]]},
                "game spec field 'strategy_sets' must be a list",
            ),
            ({"game_n": GAME, "game_m": GAME}, "split spec missing field 'matrix'"),
        ],
    )
    def test_a_malformed_split_spec_is_an_input_error(self, capsys, tmp_path, spec, message):
        path, out = tmp_path / "split.json", tmp_path / "report.json"
        path.write_text(json.dumps(spec))
        assert main(["verify-split", str(path), "--profile", "0.5", "--out", str(out)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == "" and not out.exists()

    def test_a_nan_upper_bound_is_an_input_error(self, capsys, tmp_path):
        # Python's json reads and writes NaN, which strict JSON does not have
        spec = {"players": ["p"], "strategy_sets": [{"lo": 0, "hi": float("nan")}], "utilities": ["p"]}
        path, out = tmp_path / "nan.json", tmp_path / "report.json"
        path.write_text(json.dumps(spec))
        assert main(["solve-nash", str(path), "--out", str(out)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.err == "error: empty interval [0.0, nan]\n"
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize(
        "bounds",
        ['"lo": 0, "hi": 1' + "0" * 400, '"lo": 0, "hi": 1e400', '"lo": -1e400, "hi": 1'],
        ids=["400-digit-hi", "1e400-hi", "-1e400-lo"],
    )
    def test_a_bound_no_float_holds_is_an_input_error(self, capsys, tmp_path, bounds):
        path, out = tmp_path / "big.json", tmp_path / "report.json"
        path.write_text(f'{{"players": ["p"], "strategy_sets": [{{{bounds}}}], "utilities": ["p - p^2"]}}')
        assert main(["verify-nash", str(path), "--profile", "0.5", "--out", str(out)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.err.startswith("error: strategy set {'lo': ")
        assert captured.err.endswith("} needs a numeric 'lo' and a numeric or null 'hi'\n")
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("verb", ["solve-nash", "solve-split", "cdp-check", "kkm-probe"])
    def test_a_window_wider_than_the_largest_float_is_searched(self, capsys, tmp_path, verb):
        # -x on [-1e308, 1.7e308], whose width overflows, alone and through [[1]]
        game = {"players": ["p"], "strategy_sets": [{"lo": -1e308, "hi": 1.7e308}], "utilities": ["-p"]}
        spec = game if verb == "solve-nash" else {"game_n": game, "game_m": game, "matrix": [[1]]}
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(spec))
        code, doc = run_json(capsys, verb, str(path))
        assert code == EXIT_OK
        if verb == "kkm-probe":
            probe = doc["results"]["probe"]
            assert probe["members"] == [[-1e308]] and probe["verified"] == [True]
        elif verb != "cdp-check":
            assert doc["results"]["equilibria" if verb == "solve-nash" else "split_equilibria"] == [[-1e308]]

    @pytest.mark.parametrize(
        "players, points, cause",
        [
            (["p"], "2", "axis step of player 'p' overflows"),
            (["p", "q"], "3", "cell diameter overflows"),
        ],
    )
    def test_a_probe_grid_step_no_float_holds_is_an_input_error(self, capsys, tmp_path, players, points, cause):
        # a step of 2.7e308 over [-1e308, 1.7e308], and a diagonal of two steps of 1.35e308
        game = {
            "players": players,
            "strategy_sets": [{"lo": -1e308, "hi": 1.7e308}] * len(players),
            "utilities": [f"-{p}" for p in players],
        }
        path, out = tmp_path / "wide.json", tmp_path / "report.json"
        path.write_text(json.dumps({"game_n": game, "game_m": game, "matrix": np.eye(len(players)).tolist()}))
        argv = ["kkm-probe", str(path), "--points-per-axis", points, "--out", str(out)]
        assert main(argv) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.err == f"error: the probe's {cause}: take more points per axis\n"
        assert captured.out == "" and not out.exists()

    def test_three_points_on_a_window_wider_than_the_largest_float_probe_it(self, capsys, tmp_path):
        game = {"players": ["p"], "strategy_sets": [{"lo": -1e308, "hi": 1.7e308}], "utilities": ["-p"]}
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"game_n": game, "game_m": game, "matrix": [[1]]}))
        code, doc = run_json(capsys, "kkm-probe", str(path), "--points-per-axis", "3")
        assert code == EXIT_OK
        assert doc["results"]["probe"] == {
            "cell_diameter": 1.35e308, "grid_points": 3, "members": [[-1e308]], "points_per_axis": 3, "verified": [True],
        }

    @pytest.mark.parametrize(
        "utility",
        ["+".join(["x"] * 201), "+".join(["x"] * 990), "(" * 260 + "x" + ")" * 260, "-" * 3000 + "x"],
        ids=["201-term-sum", "990-term-sum", "260-parentheses", "3000-minuses"],
    )
    def test_a_utility_too_long_to_compile_is_an_input_error(self, capsys, tmp_path, utility):
        # a chain of n terms compiles to n nested parentheses
        path, out = tmp_path / "long.json", tmp_path / "report.json"
        path.write_text(json.dumps({"players": ["x"], "strategy_sets": [{"lo": 0, "hi": 1}], "utilities": [utility]}))
        assert main(["verify-nash", str(path), "--profile", "1", "--out", str(out)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.err == "error: utility of player 'x' is too long or too deeply nested to compile\n"
        assert captured.out == "" and not out.exists()

    def test_a_199_term_sum_compiles(self, capsys, tmp_path):
        path = tmp_path / "sum.json"
        utility = "+".join(["x"] * 199)
        path.write_text(json.dumps({"players": ["x"], "strategy_sets": [{"lo": 0, "hi": 1}], "utilities": [utility]}))
        code, doc = run_json(capsys, "verify-nash", str(path), "--profile", "1")
        assert code == EXIT_OK and doc["results"]["verification"]["regrets"] == {"x": 0.0}

    def test_an_internal_key_error_is_not_an_input_error(self, monkeypatch):
        # no input reaches main as a KeyError, so one is a fault to propagate
        def broken(args, rep):
            raise KeyError("internal")

        monkeypatch.setattr(splitnash.cli, "cmd_verify_nash", broken)
        with pytest.raises(KeyError, match="internal"):
            main(["verify-nash", "example-4.1:E2", "--profile", "9,12"])

    def test_unbounded_interval_spelled_as_null(self, capsys, tmp_path):
        spec = {
            "players": ["p"],
            "strategy_sets": [{"lo": 0, "hi": None}],
            "utilities": ["p - 0.5*p^2"],
        }
        path = tmp_path / "halfline.json"
        path.write_text(json.dumps(spec))
        code, _ = run(capsys, "verify-nash", str(path), "--profile", "1")
        assert code == EXIT_OK


class TestHalfLineBestResponses:
    """A best response on [0, inf) is followed as far as it goes: no budget
    cuts it short, and one that never turns down is an input error. These
    utilities are polynomials, so the sign of the leading term decides;
    tests/test_game.py's TestScannedHalfLines holds the scan's cases."""

    @pytest.fixture
    def spec(self, tmp_path):
        def write(utility: str) -> str:
            path = tmp_path / "halfline.json"
            path.write_text(json.dumps({
                "players": ["x"], "strategy_sets": [{"lo": 0, "hi": None}], "utilities": [utility],
            }))
            return str(path)

        return write

    def test_no_budget_cuts_a_best_response_short(self, capsys, spec):
        code, out = run(capsys, "verify-nash", spec("-((x - 5000)^2)"), "--profile", "2000")
        assert code == EXIT_FAIL
        assert "verdict:  False" in out and '"regrets": {"x": 9000000.0}' in out

    @pytest.mark.parametrize("budget", [("--budget-iters", "1"), ("--cap", "1e-300")])
    def test_verify_nash_takes_no_search_budget(self, capsys, tmp_path, spec, budget):
        # tests/test_game.py's TestVerificationReadsNoSearchKnob holds the same
        # regrets at any budget in the library
        out = tmp_path / "report.json"
        argv = ["verify-nash", spec("-((x - 5000)^2)"), "--profile", "2000", *budget, "--out", str(out)]
        assert main(argv) == EXIT_INPUT
        captured = capsys.readouterr()
        assert f"error: unrecognized arguments: {' '.join(budget)}" in captured.err
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("utility, grows", [("x", "1.0*t^1.0"), ("x^2", "1.0*t^2.0")])
    @pytest.mark.parametrize("argv", [("verify-nash", "--profile", "2"), ("solve-nash",)])
    def test_an_unbounded_best_response_is_an_input_error(self, capsys, tmp_path, spec, argv, utility, grows):
        # x^2 is not followed to +inf, where it overflows at 2.6e154
        out = tmp_path / "report.json"
        assert main([argv[0], spec(utility), *argv[1:], "--out", str(out)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: leading term {grows} grows without bound: unbounded above on [0.0, inf)"
            " in the best response of player 'x'\n"
        )
        assert captured.out == "" and not out.exists()


class TestImageOneRoundingErrorOutsideTheTargetBox:
    """(0.56, 0.39) maps the feasible corner (1e5, 1e5) to 95000.00000000001,
    one rounding error above the target box [0, 95000]: it is verified at its
    clipped point."""

    SPEC = {
        "game_n": {
            "players": ["x", "y"],
            "strategy_sets": [{"lo": 0, "hi": 100000}, {"lo": 0, "hi": 100000}],
            "utilities": ["x", "y"],
        },
        "game_m": {"players": ["s"], "strategy_sets": [{"lo": 0, "hi": 95000}], "utilities": ["s"]},
        "matrix": [[0.56, 0.39]],
    }

    @pytest.fixture
    def spec(self, tmp_path) -> str:
        path = tmp_path / "corner.json"
        path.write_text(json.dumps(self.SPEC))
        return str(path)

    def test_verify_split(self, capsys, spec):
        code, doc = run_json(capsys, "verify-split", spec, "--profile", "100000,100000")
        assert code == EXIT_OK and doc["verdict"] is True
        assert doc["results"]["verification"]["image_profile"] == [95000.0]

    def test_kkm_probe(self, capsys, spec):
        code, doc = run_json(capsys, "kkm-probe", spec, "--points-per-axis", "4")
        assert code == EXIT_OK and doc["verdict"] is True
        assert doc["results"]["probe"]["members"] == [[100000.0, 100000.0]]


# SHA-256 of the `--deterministic --seed S` report bytes and the exit code, for
# `verb target` followed by any flags written after the target; the report is
# JSON unless those flags name a `--format`. A change to any of these reports
# must be deliberate: update the digest and say why. Digests rather than files:
# the reports are long, the largest here about 77 KB.
PINNED_REPORTS = {
    ("audit", "bertrand", 0): (0, "5d8001424cd9208d9079ed36fa4b749f28614f5a11fcbd5d5ed9c51a477a3bcd"),
    ("audit", "cdp", 0): (0, "c412ea4d0a36c60d01667006eabfc3db3eaa60e2ff48f959b2f8cc9b941a5570"),
    ("audit", "thm-6.2", 0): (3, "15e0169e03d47202847b1163f0e8e299052d7911c91138846f35ee9c22e7653d"),
    ("bertrand-enumerate", "bertrand-1-2", 0): (
        0, "09ee900585015ee217c381af3adc41f982cbaf7321426b154f9e6e7a6a4043da"
    ),
    ("cdp-check", "example-4.1", 0): (0, "a4108dafab4e90ef26a75be62f890c3a0f01901460bbc4e1f150bfb8b3e11888"),
    ("audit", "bertrand", 7): (0, "0fc6324f1d0865486402ed02f8634847dfbf35cfeda35f473184a378618ceb80"),
    ("audit", "cdp", 7): (0, "b32027b095bdf4ae133c979245745442c0b9d33ae16a89c44cc686abe5a44bd9"),
    ("audit", "thm-6.2", 7): (3, "4abe7986368ec550d1f09ad5276d8c71d6c86c6fba45c6cd5a27502209abae0b"),
    ("bertrand-enumerate", "bertrand-1-2", 7): (
        0, "d4ed0629ec1e13a4d65e9bb8a4021e9515628e5522da08ce56f74232e6ef91b3"
    ),
    ("cdp-check", "example-4.1", 7): (0, "f1ec1ec505220c7bef4c633428ba385bbd0ebeaec261a86096775f90cf3d87e9"),
    ("verify-nash", "example-4.1:E2 --profile 9,12", 0): (
        0, "e096d252f60314f2d99e60f55ba684a814ea45b92be5d98cad8cdab37423dd45"
    ),
    ("solve-nash", "example-4.1:E2", 0): (0, "f7bf32fe44e8b6f9566be4b55c8eae7b560125724d0c880a308638b2bd761ed9"),
    ("verify-split", "example-4.1 --profile 1,2,4", 0): (
        1, "62a5373c18f39283429ea100c4c0080ad22598246a24fe4804eecf030a167930"
    ),
    ("solve-split", "quadratic-sanity", 0): (0, "b0a1220b455de03dc0e9743c6045a2f0d564a6b17feb56a2948b90e15c62203b"),
    ("solve-split", "example-4.1", 0): (0, "82b40a0597680238e9d9cb07a0ae2e1b2edbb2b30862ce53565b4baa7296cbae"),
    ("kkm-probe", "quadratic-sanity", 0): (0, "f115d594fec5a038de5f45acd11015c892820d8898ca9e1c5b96c47daed6f426"),
    ("audit", "example-4.1", 0): (3, "07a9126a073f30c2d1066991ac684771c50c5835b904d4d7d970d059c38b9679"),
    ("audit", "kkm", 0): (0, "365933af4b7467052d0caec2350c2610e36a6936cffdbab020c132504f5b6d6f"),
    ("verify-nash", "example-4.1:E2 --profile 9,12", 7): (
        0, "0ed91bdb9da525c8cae99f46d5eafc487b0e04109956913d81fddb2e379f2937"
    ),
    ("solve-nash", "example-4.1:E2", 7): (0, "565df2893f08f1fe4a148acff96ab0c285b99ae257f5f6eb0bc2aefa14e9c7fa"),
    ("verify-split", "example-4.1 --profile 1,2,4", 7): (
        1, "e1f7c62f3e810126ed92e72616cbc5706893e471e6a0d869074b40fc030fc6bc"
    ),
    ("solve-split", "quadratic-sanity", 7): (0, "7526a7341762d90ef4b1538973e33a169837ad3dbd133b46c1e892133114739e"),
    ("solve-split", "example-4.1", 7): (0, "cb7fd9fdddb354db89a3bb4cb3a1caf00cb958899985efa3fd503d9f50fee85e"),
    ("kkm-probe", "quadratic-sanity", 7): (0, "18caf113026257a1a64f830e8115d7e03e223ac8a6f9efc2e8a44bc9ac3eb9ce"),
    ("audit", "example-4.1", 7): (3, "9f073214a8fa88ca632c948ade7a63ddd6a719c74f89c09cdd4d6504ebb10a28"),
    ("audit", "kkm", 7): (0, "0bde32cac5da1fb1f4c1284529aee1434f34c80d3d7c921d1ea48412d3e602d1"),
    ("verify-split", "example-4.1 --profile 1,2,4 --format text", 0): (
        1, "d9d6f4569197962851e8f1fb93ffec2ca87bb0158d3515f58287e6c6f48abfc9"
    ),
    ("audit", "thm-6.2 --format text", 0): (
        3, "72585f154cc2b56f4edd88bfd0678906d85bb7b0ca902e733fff2ddf804eaf58"
    ),
    ("bertrand-enumerate", "bertrand-1-1", 0): (
        0, "68a17bd9618d3216a6254768781f3a2bfc1a862f703c769799c819b63007f49e"
    ),
    ("bertrand-enumerate", "bertrand-1-2 --grid-step 0.002 --range 5", 0): (
        0, "53a098cbc695a4d9e6e41ed31b0f4cb7e0083ead3224bfa755539b475ca9dd02"
    ),
    ("bertrand-enumerate", "bertrand-1-2 --tol 2", 0): (
        0, "a62f7da5894a3f3df77921a452d1b9a0c7a0b4f46d1a547447ccbaaa58ff5d0d"
    ),
}


@pytest.mark.parametrize("verb, target, seed", sorted(PINNED_REPORTS))
def test_deterministic_report_matches_its_pinned_digest(capsys, verb, target, seed):
    argv = [verb, *target.split(), "--deterministic", "--seed", str(seed)]
    if "--format" not in argv:
        argv += ["--format", "json"]
    code, out = run(capsys, *argv)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == PINNED_REPORTS[verb, target, seed]


# the options each command (a verb, or an audit) takes besides the common ones, which all take
VERB_OPTIONS = {
    "verify-nash": {"--profile"},
    "verify-split": {"--profile"},
    "solve-nash": {"--budget-iters", "--cap"},
    "solve-split": {"--budget-iters", "--cap"},
    "cdp-check": {"--samples", "--cap"},
    "kkm-probe": {"--cap", "--points-per-axis"},
    "bertrand-enumerate": {"--grid-step", "--range"},
    "audit example-4.1": set(),
    "audit bertrand": {"--grid-step", "--range"},
    "audit thm-6.2": {"--grid-step", "--range"},
    "audit cdp": {"--samples", "--cap"},
    "audit kkm": {"--cap", "--points-per-axis"},
}
COMMON_OPTIONS = {"--tol", "--seed", "--format", "--out", "--deterministic"}


def _leaf_parsers(parser, command=""):
    """Each command and the parser that runs it, the one with no subcommands."""
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        yield command, parser
    for action in subparsers:
        for name, sub in action.choices.items():
            yield from _leaf_parsers(sub, f"{command} {name}".strip())


def test_each_verb_takes_the_common_options_and_its_own_alone():
    leaves = dict(_leaf_parsers(build_parser()))
    taken = {
        command: {flag for action in parser._actions for flag in action.option_strings}
        for command, parser in leaves.items()
    }
    assert taken == {command: {"-h", "--help", *COMMON_OPTIONS, *own} for command, own in VERB_OPTIONS.items()}
    # each rejects an argument it does not take with its own usage: it is its own default
    assert all(parser.get_default("parser") is parser for parser in leaves.values())
    # 80 command-option pairs; the 33 of the audits, where each took all 10 audit options (50)
    pairs = {command: len(own | COMMON_OPTIONS) for command, own in VERB_OPTIONS.items()}
    assert (sum(pairs.values()), sum(n for c, n in pairs.items() if c.startswith("audit "))) == (80, 33)


# the keys of each command's budget block: the budget options it takes, at the
# values it ran with, and no other
BUDGET_KEYS = {
    "verify-nash": ["seed", "tolerance"],
    "verify-split": ["seed", "tolerance"],
    "solve-nash": ["max_iterations", "seed", "tolerance", "truncation_cap"],
    "solve-split": ["max_iterations", "seed", "tolerance", "truncation_cap"],
    "cdp-check": ["samples", "seed", "tolerance", "truncation_cap"],
    "kkm-probe": ["seed", "tolerance", "truncation_cap"],
    "bertrand-enumerate": ["grid_step", "range", "seed", "tolerance"],
    "audit example-4.1": ["seed", "tolerance"],
    "audit bertrand": ["grid_step", "range", "seed", "tolerance"],
    "audit thm-6.2": ["grid_step", "range", "seed", "tolerance"],
    "audit cdp": ["samples", "seed", "tolerance", "truncation_cap"],
    "audit kkm": ["seed", "tolerance", "truncation_cap"],
}


@pytest.mark.parametrize("argv", [
    ("verify-nash", "example-4.1:E2", "--profile", "9,12"),
    ("verify-split", "quadratic-sanity", "--profile", "1,2"),
    ("solve-nash", "example-4.1:E2", "--cap", "50"),
    ("solve-split", "quadratic-sanity"),
    ("cdp-check", "quadratic-sanity", "--samples", "20"),
    ("kkm-probe", "quadratic-sanity", "--points-per-axis", "3"),
    ("bertrand-enumerate", "bertrand-1-2", "--grid-step", "0.25"),
    ("audit", "example-4.1"),
    ("audit", "bertrand", "--grid-step", "0.25"),
    ("audit", "thm-6.2", "--grid-step", "0.25"),
    ("audit", "cdp", "--samples", "20"),
    ("audit", "kkm", "--cap", "50", "--points-per-axis", "3"),
], ids=lambda argv: " ".join(argv[:2]))
def test_a_report_states_the_budget_options_its_verb_took(capsys, argv):
    code, doc = run_json(capsys, *argv, "--seed", "3")
    # only an audit confirms a documented discrepancy
    assert code in ((EXIT_OK, EXIT_FAIL, EXIT_DISCREPANCY) if argv[0] == "audit" else (EXIT_OK, EXIT_FAIL))
    budget = doc["budget"]
    assert sorted(budget) == BUDGET_KEYS[_command(argv)] and "tolerance" not in doc
    # each value is the one the run used: the flag's where it was given, else the default
    given = {"--cap": "truncation_cap", "--samples": "samples", "--grid-step": "grid_step"}
    flags = {given[flag]: float(value) for flag, value in zip(argv, argv[1:]) if flag in given}
    defaults = {**dataclasses.asdict(SearchBudget()), "samples": 1000, "range": None}
    assert budget == {key: flags.get(key, defaults[key]) for key in budget} | {"seed": 3}
    # 40 command-key entries; the 17 of the audits, where each wrote 6 (30)
    keys = {command: len(block) for command, block in BUDGET_KEYS.items()}
    assert (sum(keys.values()), sum(n for c, n in keys.items() if c.startswith("audit "))) == (40, 17)


# SHA-256 of the --help text of the parser ("") and of each verb and audit, at 80 columns
PINNED_HELP = {
    "": "b1c85b4aeb2cf0d004a5137d3afee6550395e1409d0ecc19060062092a6dce57",
    "verify-nash": "f65b38497d5ce7a0f152b219b9afa541e28ac88c9bb9b7fca0bc5ead1080a213",
    "solve-nash": "b9351f1adc34b20f4e0f76797271f60d86b2596766f19e75461430f71481fa4e",
    "verify-split": "32c9023f0182e953616bad495557596bfd392ac2b5266043e6fbd608ab5977cd",
    "solve-split": "421e80ec5026e443297ba0f061169da77cdfebb1a2149d20ab099b76eaa00848",
    "audit": "f300b0c56b41e35d5fdfc7ef4c7e4e7bd392c30fc91241fabad16226e15a615d",
    "audit example-4.1": "0f6ee6bc5b15ea4fbcb3b75812275af80b89bd2f14f6875863f25b23bc872250",
    "audit bertrand": "47ffd81634b68bccada079a8211319c0624cbc2213ec62689755489f8d34810b",
    "audit thm-6.2": "a833879c70c11d571857555c25e29cd129a0555ec5e27b46c1765845f3411769",
    "audit cdp": "06ee711002ba11fc610899ba516f6525c20a54cd07c20e8ff0e67b64101a8270",
    "audit kkm": "9ae5a4c1b9d8dee6eb5eda03d307d3723d654aee55589296629a50c24c58a8ea",
    "cdp-check": "65b50bddfdc47a439246d62e60472a3d14005d8465e02b919200bd2f230690e7",
    "kkm-probe": "2d6b7ffefd3eb2803c33d09c0ba7becff566969c68e53dade4bfa85ac2799ff1",
    "bertrand-enumerate": "ae41eda6dcdba2fef6546d30ac6c00bbd15e63dfef413046fe65dab826cd2e4c",
}


@pytest.mark.parametrize("verb", sorted(PINNED_HELP))
def test_help_text_matches_its_pinned_digest(capsys, monkeypatch, verb):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    code, out = run(capsys, *verb.split(), "--help")
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, PINNED_HELP[verb])


def test_the_package_runs_without_scipy():
    # scipy is a test reference only: the child cannot import any of it
    probe = (
        "import sys; sys.modules['scipy'] = None\n"
        "import splitnash, splitnash.cli\n"
        "from splitnash.models import example_4_1\n"
        "rep = splitnash.check_surjectivity(example_4_1().problem, 50)\n"
        "print(rep.surjective_on_samples, len(rep.failures))"
    )
    out = _python("-c", probe)
    assert (out.returncode, out.stdout, out.stderr) == (0, "False 20\n", "")


def test_the_cli_imports_no_stdlib_module_beyond_its_own_imports():
    # a cold process pays for every module the CLI loads: after numpy and the
    # standard modules the package imports by name, splitnash.cli loads no
    # other standard module (fractions, which pulls in decimal, costs 2.3 ms)
    probe = (
        "import sys\n"
        "import numpy, __future__, argparse, dataclasses, itertools, json, math, os, pathlib, re, time, typing\n"
        "before = set(sys.modules)\n"
        "import splitnash.cli\n"
        "print(sorted({m.split('.')[0] for m in set(sys.modules) - before} & sys.stdlib_module_names))"
    )
    out = _python("-c", probe)
    assert (out.returncode, out.stdout, out.stderr) == (0, "[]\n", "")


def test_a_reader_that_leaves_early_gets_no_traceback(tmp_path):
    # a report over twice the 64 KB of a Linux pipe fills it, so the child is
    # still writing when it closes
    out, err = tmp_path / "report.json", tmp_path / "stderr.txt"
    argv = (
        "bertrand-enumerate", "bertrand-1-2", "--grid-step", "0.005", "--tol", "2",
        "--format", "json", "--out", str(out),
    )
    with err.open("w") as stderr:
        child = subprocess.Popen(
            [sys.executable, "-m", "splitnash.cli", *argv],
            env=_child_env(), stdout=subprocess.PIPE, stderr=stderr, text=True,
        )
        first = child.stdout.readline()
        child.stdout.close()
        code = child.wait(timeout=300)
    assert (first, code, err.read_text()) == ("{\n", EXIT_OK, "")
    # --out is written before stdout, so it is complete
    assert json.loads(out.read_text())["command"] == "bertrand-enumerate"
    assert out.stat().st_size > 2 * 64 * 1024
