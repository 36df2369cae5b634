"""Command-line interface: verbs, exit codes, JSON reports, determinism."""

import hashlib
import json
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
    main,
)
from splitnash.kernel import Interval, SearchBudget


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def run_json(capsys, *argv) -> tuple[int, dict]:
    code, out = run(capsys, *argv, "--format", "json")
    return code, json.loads(out)


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

    def test_an_unknown_audit_is_an_input_error(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        assert main(["audit", "nope", "--out", str(out)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.err == (
            "error: unknown audit 'nope'; known: ['bertrand', 'cdp', 'example-4.1', 'kkm', 'thm-6.2']\n"
        )
        assert captured.out == "" and not out.exists()

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

    def test_a_verb_without_a_probe_ignores_its_resolution(self, capsys):
        argv = ["verify-nash", "example-4.1:E2", "--profile", "9,12", "--points-per-axis", "0"]
        assert main(argv) == EXIT_OK

    def test_kkm_probe(self, capsys):
        code, doc = run_json(capsys, "kkm-probe", "quadratic-sanity", "--range", "5")
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
        res = doc["results"]
        step, hi = res["grid_step"], res["price_range"]
        expected = splitnash.enumerate_grid_equilibria(
            splitnash.get_instance(ident).problem, step, hi, tolerance=doc["tolerance"]
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
        res = doc["results"]
        pairs = splitnash.enumerate_grid_equilibria(
            splitnash.get_instance("bertrand-1-2").problem, res["grid_step"], 5.0,
            tolerance=doc["tolerance"],
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
        jsonschema.validate(json.loads(out.read_text()), schema)


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
        game = {"players": ["p"], "strategy_sets": [{"lo": 0, "hi": 1}], "utilities": ["p"]}
        path = tmp_path / "split.json"
        path.write_text(json.dumps({"game_n": game, "game_m": game, "matrix": {"a": 1}}))
        code, _ = run(capsys, "verify-split", str(path), "--profile", "0.5")
        assert code == EXIT_INPUT

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

    @pytest.mark.parametrize("budget", [(), ("--budget-iters", "1"), ("--cap", "1e-300")])
    def test_no_budget_cuts_a_best_response_short(self, capsys, spec, budget):
        code, out = run(capsys, "verify-nash", spec("-((x - 5000)^2)"), "--profile", "2000", *budget)
        assert code == EXIT_FAIL
        assert "verdict:  False" in out and '"regrets": {"x": 9000000.0}' in out

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
    ("audit", "bertrand", 0): (0, "fcf96e671d1285c3eea0d3e4e785651df4576028b7dd4486a16ca3be70e24eed"),
    ("audit", "cdp", 0): (0, "37a217b0ed23c5da66c9899a6f9c6888cbecb6c9edf618299586d9cc18c707cb"),
    ("audit", "thm-6.2", 0): (3, "fe5b82c2a94013ebfb10bbd4d0c411b3c08a8bad6b363722ae343f28fff94f1d"),
    ("bertrand-enumerate", "bertrand-1-2", 0): (
        0, "3ded0e664669b16ad426c0f27a0c34d2f1c95effeccb68617a88c96bb4299e26"
    ),
    ("cdp-check", "example-4.1", 0): (0, "8495123f0c59718bb6359f0945a88f79aae44dee209199d6a8e09d66b298beb9"),
    ("audit", "bertrand", 7): (0, "9908facac3f3e8db01c6d89e5cc88dbc04ca1929c69502f43875b52ba8db2280"),
    ("audit", "cdp", 7): (0, "2739aef2554087c9818b33b2b435c0463955bc2166b88b663af02d26a68d8325"),
    ("audit", "thm-6.2", 7): (3, "54e4a24fe483161040a33c55cd6ae76a7267e016f859120e3152a5593e0babba"),
    ("bertrand-enumerate", "bertrand-1-2", 7): (
        0, "2aab996e6c80ca7fa16b99f73a7b85b213abfdb17258743fa91d8c6aa12f464e"
    ),
    ("cdp-check", "example-4.1", 7): (0, "dd7545fc0ff166a149d7809b9951b71665cb2313b7b48f292981a86392e8fd2d"),
    ("verify-nash", "example-4.1:E2 --profile 9,12", 0): (
        0, "905b7bce27bd2443e2e650e07e7848d07841b6f14acdfdcca0dc3a98b18c913c"
    ),
    ("solve-nash", "example-4.1:E2", 0): (0, "d61604ad1e332ebb00570aab0481c49041fb3e11acc9413bb942acd106e98799"),
    ("verify-split", "example-4.1 --profile 1,2,4", 0): (
        1, "d51d2a8147baddd965cb3ed7a387720f292560e7798c7af3fecdb4348b198e7d"
    ),
    ("solve-split", "quadratic-sanity", 0): (0, "39b8e42f3251ce41017b58463b5cc00bfdec0f45ea81ef367a235a25ca88180b"),
    ("solve-split", "example-4.1", 0): (0, "c0960d57bf07b028437416f52236811cdd6f96f591921af3ca1fef5301952398"),
    ("kkm-probe", "quadratic-sanity", 0): (0, "0b5b6c3b2efac22468d326c89bfdd0b44f5b1ae2eaeb25ce9dd84f9618890947"),
    ("audit", "example-4.1", 0): (3, "1fec2434c48fcae188b1f238c160c0f50a148e436a954ad57f25445cfefcd41b"),
    ("audit", "kkm", 0): (0, "30e07be3597e342073cddf3a8cd7a2fd91964397da3bbe3d5f8d8571feb960b7"),
    ("verify-nash", "example-4.1:E2 --profile 9,12", 7): (
        0, "a763b5eeec7c3459e671cad1c42734b00a6d4f840f6f5841a980e00af8c78013"
    ),
    ("solve-nash", "example-4.1:E2", 7): (0, "c60b4dd8785eb2f570de3dfff82f08de626275f526ff9d7c61d3c99941784e71"),
    ("verify-split", "example-4.1 --profile 1,2,4", 7): (
        1, "84b211252d8b8bcbf4513ac30e5ed67065992cf2163768b6b1c29d9611c1e49f"
    ),
    ("solve-split", "quadratic-sanity", 7): (0, "628760433560e356ce3513c824932ba56bf0c9910292a190ff3fe8eef2fda147"),
    ("solve-split", "example-4.1", 7): (0, "ceb9f98306c835ad29acf11d5e6349f66a5908345238f8f0c031a85a4b762f3b"),
    ("kkm-probe", "quadratic-sanity", 7): (0, "0f67760867d1e5bb740b8c7f36fe2d9201e235d5a624ef2eb5583369505ed6b1"),
    ("audit", "example-4.1", 7): (3, "1ccf7998b41c8c7d5bf90fea3cc09a381e8491d996d13703a3819e39b3ae2473"),
    ("audit", "kkm", 7): (0, "87299b16884b877d087e5aeef90e173b0d5e04f55ef01c40c97463c6e47a4891"),
    ("verify-split", "example-4.1 --profile 1,2,4 --format text", 0): (
        1, "d9d6f4569197962851e8f1fb93ffec2ca87bb0158d3515f58287e6c6f48abfc9"
    ),
    ("audit", "thm-6.2 --format text", 0): (
        3, "72585f154cc2b56f4edd88bfd0678906d85bb7b0ca902e733fff2ddf804eaf58"
    ),
    ("bertrand-enumerate", "bertrand-1-1", 0): (
        0, "b5b641ab816940f46a413aaab4d2b515189b96311a3e6295b67436d8da449cf7"
    ),
    ("bertrand-enumerate", "bertrand-1-2 --grid-step 0.002 --range 5", 0): (
        0, "a74189a4322e5bdb25fd8e59774330329c9acfecf973de1008ecf0dd1a1c82d3"
    ),
    ("bertrand-enumerate", "bertrand-1-2 --tol 2", 0): (
        0, "adbe5740cc8eb8ac525246f36e41033ef4f1bc6d3b66123251473fdcfd0a2be4"
    ),
}


@pytest.mark.parametrize("verb, target, seed", sorted(PINNED_REPORTS))
def test_deterministic_report_matches_its_pinned_digest(capsys, verb, target, seed):
    argv = [verb, *target.split(), "--deterministic", "--seed", str(seed)]
    if "--format" not in argv:
        argv += ["--format", "json"]
    code, out = run(capsys, *argv)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == PINNED_REPORTS[verb, target, seed]


# SHA-256 of the --help text of the parser ("") and of each verb, at 80 columns
PINNED_HELP = {
    "": "b1c85b4aeb2cf0d004a5137d3afee6550395e1409d0ecc19060062092a6dce57",
    "verify-nash": "18501ae171a3eab8ca696c7f07df9b3b0712564ef66d3044ab0a197cbb339c7e",
    "solve-nash": "50a9b6454b49062247bba419b2a1d1aa1f71bcd1bdf4678568d920a2879d3287",
    "verify-split": "437f8b5454dadffd8ff54201dd6ee960f864aec82c19e498ba894a9b7f070e6a",
    "solve-split": "37584e16a3b6145eb841422aa56def103e5d530a8c7228a4a05652497b9f0521",
    "audit": "ff8f924fcd7a02b3f048a1f2fd1eb00f634b04116ac2f9aa5852e2bde89a8d21",
    "cdp-check": "56cd4cbaa0613b0903dc3b6a183082b9a0624b7d25624643ef6ce0e1e69ff17c",
    "kkm-probe": "b8826b75ccb3ea4edef70d9212e9b761e2eba8621e9b480e46511d155c99890d",
    "bertrand-enumerate": "e31300ebda8b4f6e7e740ab0c824177d40648e9ce955eab671f23bb72b066470",
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
