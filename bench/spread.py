#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's median and spread.

Usage, from the root of a checkout:

    python3 bench/spread.py --workloads solve verify audit cli --seeds 10 \\
        [--first-seed 1] [--trace 0|1] [--baseline bench/baseline.json]

Runs are sequential, with the settings in BENCHMARK.json. The spread of a
metric is the distance between the first and third quartile of its values
(statistics.quantiles, n=4) as a share of their median; it is flagged when
it exceeds a third of the metric's bound. With --baseline the medians,
quartiles and raw values are merged into that file together with the
machine facts.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import END_TO_END, WORKLOADS  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402


def check_spec(spec: dict) -> None:
    """BENCHMARK.json must list exactly the metrics the harness reports."""
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if e2e != dict(END_TO_END):
        sys.exit(f"BENCHMARK.json end_to_end {e2e} != harness {dict(END_TO_END)}")
    if layers != {name: unit for name, unit, _, _ in LAYER_METRICS}:
        sys.exit("BENCHMARK.json per_layer differs from tracer.LAYER_METRICS")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        sys.exit("BENCHMARK.json workloads differ from the harness")


def machine() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def program_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() or None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--baseline", type=Path, default=None)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    summary: dict = {}
    for name in args.workloads:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for seed in seeds:
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                sys.exit(f"{name} seed {seed}: exit {proc.returncode}")
            result = json.loads(lines[-1])
            if not result["correct"]:
                print("\n".join(line for line in lines if line.startswith("FAILED")))
            for key, metric in result["metrics"].items():
                values.setdefault(key, []).append(metric["value"])
                units[key] = metric["unit"]
            print(f"{name} seed {seed}: attempted {result['attempted']}, failed {result['failed']}",
                  flush=True)
        summary[name] = {}
        print(f"\n{name}: {len(seeds)} seeds")
        print(f"  {'metric':<40} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for key, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else vs * 3
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(key)
            flag = "  > bound/3" if bound is not None and spread > bound / 3 else ""
            print(f"  {key:<40} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f} "
                  f"{'' if bound is None else bound:>6}{flag}")
            summary[name][key] = {"unit": units[key], "median": med, "q1": q1, "q3": q3,
                                  "spread": spread, "values": vs}
    if args.baseline:
        doc = json.loads(args.baseline.read_text()) if args.baseline.exists() else {}
        doc["machine"] = machine()
        doc["program_commit"] = program_commit()
        doc["run_seconds"] = spec["run_seconds"]
        section = doc.setdefault("per_layer" if args.trace else "end_to_end", {})
        for name, metrics in summary.items():
            section[name] = {"seeds": [seeds.start, seeds.stop - 1], "metrics": metrics}
        args.baseline.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
