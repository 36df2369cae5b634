"""scripts/run_audits.py: one strict-JSON report per audit, and the worst exit code."""

import importlib.util
import json
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_audits.py"


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def test_run_audits_writes_every_report_and_returns_the_worst_code(monkeypatch, tmp_path):
    spec = importlib.util.spec_from_file_location("run_audits", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), "--deterministic", "--out-dir", str(tmp_path)])
    # example-4.1 and thm-6.2 report their documented discrepancies
    assert script.main() == 3
    reports = sorted(tmp_path.glob("audit-*.json"))
    assert len(reports) == 5
    for path in reports:
        doc = json.loads(path.read_text(), parse_constant=_reject_constant)
        assert doc["command"] == "audit"
