#!/usr/bin/env python3
"""Run every built-in audit and drop one JSON report per target.

Usage:
    python3 scripts/run_audits.py [--out-dir reports] [--deterministic]

Exit code is the maximum exit code across the audits, so a documented
discrepancy (3) anywhere surfaces in the script's own status.
"""

import argparse
import sys
from pathlib import Path

from splitnash.cli import AUDITS, main as cli_main


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="reports")
    ap.add_argument("--deterministic", action="store_true")
    args = ap.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    worst = 0
    for target in AUDITS:
        out = out_dir / f"audit-{target.replace('.', '_')}.json"
        argv = ["audit", target, "--format", "json", "--out", str(out)]
        if args.deterministic:
            argv.append("--deterministic")
        code = cli_main(argv)
        print(f"audit {target}: exit {code}, report {out}", file=sys.stderr)
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    raise SystemExit(main())
