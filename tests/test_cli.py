"""Command-line interface: verbs, exit codes, JSON reports, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import splitnash
from splitnash.cli import (
    EXIT_DISCREPANCY,
    EXIT_FAIL,
    EXIT_INPUT,
    EXIT_OK,
    main,
)


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def run_json(capsys, *argv) -> tuple[int, dict]:
    code, out = run(capsys, *argv, "--format", "json")
    return code, json.loads(out)


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


# SHA-256 of the `--format json --deterministic --seed S` report bytes and the
# exit code. A change to any of these reports must be deliberate: update the
# digest and say why. Digests rather than files: the bertrand-enumerate report
# is 2 MB.
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
}


@pytest.mark.parametrize("verb, target, seed", sorted(PINNED_REPORTS))
def test_deterministic_report_matches_its_pinned_digest(capsys, verb, target, seed):
    code, out = run(
        capsys, verb, target, "--format", "json", "--deterministic", "--seed", str(seed)
    )
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == PINNED_REPORTS[verb, target, seed]


def test_cli_import_does_not_load_scipy_optimize():
    # only check_surjectivity needs scipy.optimize; every CLI call pays the import
    src = str(Path(splitnash.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = "import sys, splitnash.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
