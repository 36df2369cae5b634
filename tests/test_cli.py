"""Command-line interface: verbs, exit codes, JSON reports, determinism."""

import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from importlib import resources
from pathlib import Path
from typing import NamedTuple

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import splitnash
from splitnash.cli import (
    EXIT_DISCREPANCY,
    EXIT_FAIL,
    EXIT_INPUT,
    EXIT_OK,
    _json_default,
    _pretty,
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
            ("audit", "thm-6.2", "--diagonal-only", "--tol", "0"),
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
                ("solve-nash", "example-4.1:E2", "--cap", "1e308"),
                "error: non-finite value nan at 5e+304 in the best response of player 'd'",
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

    def test_verify_split_at_the_pair(self, capsys):
        code, doc = run_json(capsys, "verify-split", "quadratic-sanity", "--profile", "1,2")
        assert code == EXIT_OK and doc["verdict"] is True

    def test_bertrand_enumeration(self, capsys):
        code, doc = run_json(
            capsys, "bertrand-enumerate", "bertrand-1-2", "--grid-step", "0.01", "--range", "5"
        )
        assert code == EXIT_OK
        eqs = doc["results"]["equilibria"]
        assert [1.0, 2.0] in eqs
        assert all(max(abs(p1 - 1.0), abs(p2 - 2.0)) <= 0.03 for p1, p2 in eqs)

    def test_bertrand_enumeration_lists_no_price_past_the_range(self, capsys):
        # 0.6 does not divide 10: the grid ends at 9.6, not at 10.2
        code, doc = run_json(
            capsys, "bertrand-enumerate", "bertrand-1-2", "--grid-step", "0.6", "--range", "10"
        )
        assert code == EXIT_OK
        assert max(max(e) for e in doc["results"]["equilibria"]) == 9.6

    def test_cost_audit(self, capsys):
        code, _ = run(capsys, "audit", "bertrand")
        assert code == EXIT_OK

    def test_markov_audit_on_the_diagonal_matches_both_sources(self, capsys):
        code, doc = run_json(capsys, "audit", "thm-6.2", "--diagonal-only")
        assert code == EXIT_OK
        assert doc["results"]["all_match_oracle"] is True

    def test_kkm_probe(self, capsys):
        code, doc = run_json(capsys, "kkm-probe", "quadratic-sanity", "--range", "5")
        assert code == EXIT_OK
        assert doc["results"]["probe"]["members"]

    def test_cdp_check(self, capsys):
        code, doc = run_json(capsys, "cdp-check", "quadratic-sanity", "--samples", "200")
        assert code == EXIT_OK
        assert doc["results"]["cdp"]["min_dominance_failures"] == []


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
        written = []
        pretty = splitnash.cli._pretty

        def counted(doc):
            written.append(doc)
            return pretty(doc)

        monkeypatch.setattr(splitnash.cli, "_pretty", counted)
        out = (str(tmp_path / "report.json"),) if flags == ("--out",) else ()
        code, _ = run(
            capsys, "bertrand-enumerate", "bertrand-1-2", "--grid-step", "0.05", *flags, *out
        )
        assert code == EXIT_OK
        assert len(written) == documents

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
            rep.verdict, rep.results = ok, {"equilibria": [(1.0, 2.0), (3.0, float("nan"))]}
            return EXIT_OK

        monkeypatch.setattr(splitnash.cli.Report, "settle", settle)
        out = tmp_path / "report.json"
        argv = [*flags, str(out)] if flags == ("--out",) else list(flags)
        assert main(["bertrand-enumerate", "bertrand-1-2", "--grid-step", "0.5", *argv]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        # json's C encoder, which writes text lines, leaves out the value before 3.13
        assert captured.err.startswith("error: Out of range float values are not JSON compliant")

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


def json_dumps_indented(doc) -> str:
    """What the report writer must write, byte for byte: json's own encoder."""
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False, default=_json_default)


class Pair(NamedTuple):
    first: object
    second: object


EDGE_FLOATS = (-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-7, 1e22, 1.7976931348623157e308, 0.1)
FINITE = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
FLOATS = st.one_of(FINITE, st.sampled_from((math.nan, math.inf, -math.inf)))
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    FLOATS,
    st.text(),  # non-ASCII and control characters included
    FLOATS.map(np.float64),  # a float subclass, written by json, not by the hook
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
)


def float_rows(values):
    """Equal-length lists or tuples of floats: the writer's one-call path."""
    return st.integers(1, 3).flatmap(lambda width: st.lists(
        st.one_of(
            st.tuples(*[values] * width),
            st.lists(values, min_size=width, max_size=width),
        ),
        max_size=6,
    ))


ROWS = st.one_of(
    float_rows(FINITE),
    float_rows(FLOATS),
    float_rows(FINITE).map(lambda rows: np.array(rows) if rows else np.zeros((0, 2))),
    st.lists(FLOATS, max_size=5).map(np.array),
    # ragged, or mixing ints, bools and floats: the general path
    st.lists(st.lists(st.one_of(FINITE, st.integers(), st.booleans()), max_size=3), max_size=5),
)
KEYS = st.one_of(st.text(), st.integers(), FLOATS, st.booleans(), st.none())
DOCS = st.recursive(
    st.one_of(SCALARS, ROWS),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.builds(Pair, children, children),
        # keys of one type sort; mixed types raise json's TypeError
        *(st.dictionaries(keys, children, max_size=4) for keys in (st.text(), st.integers(), FINITE)),
        st.dictionaries(KEYS, children, max_size=3),
    ),
    max_leaves=24,
)


class TestReportWriter:
    """cli._pretty writes what json.dumps(doc, indent=2, sort_keys=True,
    allow_nan=False, default=_json_default) writes, and raises what it raises."""

    @settings(max_examples=300, deadline=None)
    @given(DOCS)
    def test_writes_json_dumps_bytes_and_errors(self, doc):
        try:
            expected = json_dumps_indented(doc)
        except (TypeError, ValueError) as exc:
            with pytest.raises(type(exc)) as caught:
                _pretty(doc)
            assert (type(caught.value), str(caught.value)) == (type(exc), str(exc))
        else:
            assert _pretty(doc) == expected

    @pytest.mark.parametrize("doc, shown", [
        ({"rows": [(1.0, 2.0), (math.inf, math.nan)]}, "inf"),
        ({"rows": [[1.0, -math.inf], [math.nan, 2.0]]}, "-inf"),
        ([0.5, [math.nan]], "nan"),
        ({math.nan: 1.0}, "nan"),
        (np.array([[1.0, 2.0], [3.0, np.inf]]), "inf"),
        ([np.float64(np.nan)], repr(np.float64(np.nan))),
    ])
    def test_a_non_finite_value_raises_json_s_error_at_the_first_one(self, doc, shown):
        message = f"Out of range float values are not JSON compliant: {shown}"
        for write in (_pretty, json_dumps_indented):
            with pytest.raises(ValueError) as caught:
                write(doc)
            assert str(caught.value) == message

    def test_float_rows_keep_json_s_layout(self):
        doc = {"equilibria": [(0.0, -0.0), (5e-324, 1e16)], "empty": [[], ()], "one": [(1e-7,)]}
        assert _pretty(doc) == json_dumps_indented(doc)


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
    cuts it short, and one that never turns down is an input error."""

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

    @pytest.mark.parametrize("argv", [("verify-nash", "--profile", "2"), ("solve-nash",)])
    def test_an_unbounded_best_response_is_an_input_error(self, capsys, tmp_path, spec, argv):
        out = tmp_path / "report.json"
        assert main([argv[0], spec("x"), *argv[1:], "--out", str(out)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.err == (
            "error: value still increasing as the cap overflows: unbounded above on [0.0, inf)"
            " in the best response of player 'x'\n"
        )
        assert captured.out == "" and not out.exists()

    def test_a_payoff_overflowing_to_inf_is_unbounded_not_non_finite(self, capsys, spec):
        # x^2 is inf at 2.6e154 while the cap doubles, well short of the largest float
        assert main(["verify-nash", spec("x^2"), "--profile", "1"]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.err == (
            "error: value still increasing as the cap overflows: unbounded above on [0.0, inf)"
            " in the best response of player 'x'\n"
        )
        assert captured.out == ""


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
# the bertrand-enumerate report is 2 MB.
PINNED_REPORTS = {
    ("audit", "bertrand", 0): (0, "7efdd5acd6045ff7033eeb73b75dd04f327cf880a53c0a183eabc07e7697d0fd"),
    ("audit", "cdp", 0): (0, "c56b2c5b3479d5163c1ff0a4b50281688a28477b430668b53803f6547e28299b"),
    ("audit", "thm-6.2", 0): (3, "b4b5ae6bf9ef711055a4ed7f10091768c70f469a8e332a3167d1f7fce780a28e"),
    ("bertrand-enumerate", "bertrand-1-2", 0): (
        0, "b9b9df929d059e688c78671b4499cc5d25d64f1cec82d5d7ae31a667b6f8ddea"
    ),
    ("cdp-check", "example-4.1", 0): (0, "5e79bd42ccc2a305818bccdd7444d3ca573c30a29cb2736ea64ac899ac0f44e5"),
    ("audit", "bertrand", 7): (0, "e0be9baabb477a948eb49e8a5e13c21f401d5a8e842720cc79171e28b41991d0"),
    ("audit", "cdp", 7): (0, "9ef91f996f01ced36ae2da6e691693f3946fb44e81e0482c1c7e3ddcbddd8f47"),
    ("audit", "thm-6.2", 7): (3, "e194c1fff93038a51967d7072b02d1a493bf5e3d226fc4106816bc80d16b336a"),
    ("bertrand-enumerate", "bertrand-1-2", 7): (
        0, "7517508980fcbcadf2dbd890b099db1c7319ec2b03f9cb4c17c22805c70b71dc"
    ),
    ("cdp-check", "example-4.1", 7): (0, "2e9d005c8609e61d2442806e4dc729fc9c9f8947ccce54c328dfbd9435302658"),
    ("verify-nash", "example-4.1:E2 --profile 9,12", 0): (
        0, "8c923d8970f144d162636e7fc436f59eba8abcb650d4f7df2c5c1c657b7328a7"
    ),
    ("solve-nash", "example-4.1:E2", 0): (0, "9fab1dd6838ab13b366b31cd0fa24405318e2c31df2f7b6449fe21a77bbb4077"),
    ("verify-split", "example-4.1 --profile 1,2,4", 0): (
        1, "5be60a021fbf335b67c1745714f113805100b7bee1179b46d070dee8448a3199"
    ),
    ("solve-split", "quadratic-sanity", 0): (0, "81bc073bae41936fb7f4c2ed7a11c5da9cec35a08f56c3eefb08bab5a4d56907"),
    ("solve-split", "example-4.1", 0): (1, "6693859cc9164843fca51dedec050f38bee24b93c8ee6838f41a79a12169d307"),
    ("kkm-probe", "quadratic-sanity", 0): (0, "aabc55efb7ea727650ad3fe6802b1e210ff486d5c5b8e75e465976106134a93e"),
    ("audit", "example-4.1", 0): (3, "b3d73c72f9bdd53aa5c38b7306ad10b2f76cec11dc1a22fe5b6630d4cb9c1600"),
    ("audit", "kkm", 0): (0, "857fa552103b484be9916be466fde6ac5caa7805e9ad1738a4173b48e06ebe8a"),
    ("verify-nash", "example-4.1:E2 --profile 9,12", 7): (
        0, "0fbafe497d3761c008f39a593f9c143911cda50ee44c3d1e3cbae9dd47132be5"
    ),
    ("solve-nash", "example-4.1:E2", 7): (0, "f4cc2428a77c66712b7994c7128576ec63ee5506c1506da898f013c61d1f0af3"),
    ("verify-split", "example-4.1 --profile 1,2,4", 7): (
        1, "3a8c954ae1315259db39ee859326959624f06bf9ca515a16fc7000490482cbf7"
    ),
    ("solve-split", "quadratic-sanity", 7): (0, "e2e8b0a882876941935fd568505a87530a6b03bef425964ebb9b1a38b7128863"),
    ("solve-split", "example-4.1", 7): (1, "ae814bb121f80c2fe54cbde531eb172ec6692c0c4945e9b059c2bf78722ebcd9"),
    ("kkm-probe", "quadratic-sanity", 7): (0, "2ead745c7ae2b94fea83978714c49d7ba779f682f3d6b397e9482a69d57eb1f2"),
    ("audit", "example-4.1", 7): (3, "d036224daa99ff77dc0bebdd0f91484b588ec286beabc60bcb53470f7385c596"),
    ("audit", "kkm", 7): (0, "d44a11342545368a4ab91e7c7987b512fa4196564b17ce79d2da01406ad407c5"),
    ("verify-split", "example-4.1 --profile 1,2,4 --format text", 0): (
        1, "064830fbe378d0e7b839d554b00cdda110e616951d4fdbbaff32a53e6815a9a7"
    ),
    ("audit", "thm-6.2 --format text", 0): (
        3, "72585f154cc2b56f4edd88bfd0678906d85bb7b0ca902e733fff2ddf804eaf58"
    ),
    ("bertrand-enumerate", "bertrand-1-1", 0): (
        0, "8c4fe3ac04ec4767e2ca0c7181154a294229f74c4e059d29da33284e0dc8f3f7"
    ),
    ("bertrand-enumerate", "bertrand-1-2 --grid-step 0.002 --range 5", 0): (
        0, "83983904ca14bbe3bf8bb851bc3ce808d4396382127f8084195c1af7e85e7de4"
    ),
    ("bertrand-enumerate", "bertrand-1-2 --tol 2", 0): (
        0, "556e6dd0fa4ba3f10acd89f4cbcbf55dd804d055ae7ad5d5a93f81eaa87b4cac"
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
    "audit": "11ee59efbdb704b50dc4d1737e72f553e4edc2c5936625a6a415a2c0d7f15a88",
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


def test_a_reader_that_leaves_early_gets_no_traceback(tmp_path):
    # the 2 MB report fills the pipe, so the child is still writing when it closes
    out, err = tmp_path / "report.json", tmp_path / "stderr.txt"
    argv = ("bertrand-enumerate", "bertrand-1-2", "--format", "json", "--out", str(out))
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
