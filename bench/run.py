#!/usr/bin/env python3
"""splitnash benchmark: four closed-loop workloads, checked outputs, metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload solve|verify|audit|cli|all \\
        --seed N --seconds S --trace 0|1

With --trace 0 a run measures whole rounds of its workload for about S
seconds (at least one round; `cli` runs at least two, to compare report
bytes) and reports the end-to-end metrics. With --trace 1 it runs exactly
one untraced and one traced round, so every count repeats for a given seed,
and reports the per-layer metrics and the tracing overhead. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
`--workload all` runs the four workloads one after another, each in its own
process, and prints one table of every metric.
"""

import os

# one BLAS thread in this interpreter and every child it starts
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import re
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("solve", "verify", "audit", "cli")
SETUP_PROBES = 5
IMPORT_PROBES = 3
CHILD_TIMEOUT_S = 170.0
# untimed rounds before measuring, for workloads whose rounds are short
WARMUP_ROUNDS = {"verify": 1, "audit": 1}

# name, unit: every end-to-end metric, reported on every workload
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_p90_s", "s"),
    ("peak_rss_mb", "MB"),
    ("recall", "ratio"),
)


def die(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def pin_to_one_cpu() -> None:
    """Keep this process and every child on one CPU, the one whose speed the
    calibration kernel measures."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def import_program():
    """Import splitnash from this checkout's sources, never from elsewhere."""
    if not (SRC / "splitnash" / "__init__.py").is_file():
        die(f"no splitnash sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import splitnash

    if Path(splitnash.__file__).resolve().parent != SRC / "splitnash":
        die(f"imported splitnash from {splitnash.__file__}, not from {SRC}")
    import workloads

    return workloads


def build(w, name: str, seed: int, wrap=None, state=None, in_process: bool = False):
    if name == "cli":
        return w.build_cli(seed, ROOT, OUT / "cli", child_env(), in_process, state)
    make = {"solve": w.build_solve, "verify": w.build_verify, "audit": w.build_audit}[name]
    return make(seed, wrap) if wrap else make(seed)


def percentile(values, q: float) -> float:
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Measurement:
    """Latencies and round times are in reference seconds (see speed.py)."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.raw_latencies: list[float] = []
        self.calibration: tuple[str, float] = ("", 0.0)  # clock, median calibration time
        self.failures: list[tuple[str, int, str]] = []
        self.failed_ops = 0
        self.recovered = 0
        self.listed = 0
        self.misses: dict[str, tuple[int, int]] = {}
        self.rounds = 0
        self.round_seconds: list[float] = []

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def measure(workload, seconds: float, rounds: int | None = None, tracer=None) -> Measurement:
    """Closed loop over whole rounds: stop when the next round would overrun
    `seconds` (after the workload's minimum), or after exactly `rounds`."""
    m = Measurement()
    if workload.in_process:
        clock = speed.Clock(periodic=tracer is None)
    else:
        clock = speed.ChildClock(child_env())
    try:
        _loop(workload, seconds, rounds, tracer, m, clock)
    finally:
        clock.close()
    factor = clock.run_factor()
    m.latencies = [t * factor for t in m.latencies]
    m.round_seconds = [t * factor for t in m.round_seconds]
    m.calibration = (type(clock).__name__, statistics.median(clock.samples))
    return m


def _loop(workload, seconds, rounds, tracer, m: Measurement, clock) -> None:
    begin = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        busy = 0.0
        for op in workload.ops:
            if tracer:
                tracer.op = op.label
            clock.start()
            try:
                result, error = op.run(), None
            except Exception as exc:  # a failing operation is counted, never fatal
                result, error = None, f"{type(exc).__name__}: {exc}"
            raw, elapsed = clock.stop()
            with tracer.paused() if tracer else nullcontext():
                try:
                    problems, recovered = op.check(result) if error is None else ([error], 0)
                except Exception as exc:
                    problems, recovered = [f"check raised {type(exc).__name__}: {exc}"], 0
            m.latencies.append(elapsed)
            m.raw_latencies.append(raw)
            busy += elapsed
            m.recovered += recovered
            m.listed += op.listed
            if recovered < op.listed:
                m.misses[op.label] = (recovered, op.listed)
            if problems:
                m.failed_ops += 1
                m.failures.extend((op.label, m.rounds, p) for p in problems)
        m.rounds += 1
        m.round_seconds.append(busy)
        if rounds is not None:
            if m.rounds >= rounds:
                break
            continue
        now = time.perf_counter()
        if m.rounds >= workload.min_rounds and now - begin + (now - round_start) > seconds:
            break


def run_child(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], env=child_env(), cwd=ROOT, capture_output=True,
        text=True, timeout=CHILD_TIMEOUT_S,
    )


def setup_seconds(name: str, seed: int) -> float:
    """Median time, in reference seconds, of fresh interpreters that import
    splitnash and build the run's inputs."""
    times = []
    clock = speed.ChildClock(child_env())
    for _ in range(SETUP_PROBES):
        clock.start()
        proc = run_child(
            [str(BENCH / "run.py"), "--setup-probe", "--workload", name, "--seed", str(seed)]
        )
        times.append(clock.stop()[1])
        if proc.returncode != 0:
            die(f"setup probe failed: {proc.stderr.strip()}")
    return statistics.median(times) * clock.run_factor()


_IMPORTTIME = re.compile(r"^import time:\s*(\d+)\s*\|\s*(\d+)\s*\|( *)(\S+)$")


def import_seconds() -> tuple[float, float]:
    """Median `-X importtime` cumulative time of splitnash.cli and of scipy.optimize."""
    total, scipy_opt = [], []
    for _ in range(IMPORT_PROBES):
        proc = run_child(["-X", "importtime", "-c", "import splitnash.cli"])
        if proc.returncode != 0:
            die(f"import probe failed: {proc.stderr.strip()}")
        ours = opt = 0
        for line in proc.stderr.splitlines():
            hit = _IMPORTTIME.match(line)
            if not hit:
                continue
            cumulative, indent, module = int(hit.group(2)), hit.group(3), hit.group(4)
            if len(indent) == 1 and module.split(".")[0] == "splitnash":
                ours += cumulative
            if module == "scipy.optimize":
                opt = cumulative
        total.append(ours / 1e6)
        scipy_opt.append(opt / 1e6)
    return statistics.median(total), statistics.median(scipy_opt)


def report_failures(m: Measurement) -> None:
    for label, rnd, problem in m.failures[:20]:
        print(f"FAILED  {label} (round {rnd}): {problem}")
    if len(m.failures) > 20:
        print(f"FAILED  ... {len(m.failures) - 20} more")


def result_line(m: Measurement, metrics: dict) -> str:
    return json.dumps(
        {
            "correct": m.failed_ops == 0,
            "attempted": m.attempted,
            "failed": m.failed_ops,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )


def run_untraced(w, name: str, seed: int, seconds: float) -> str:
    setup = setup_seconds(name, seed)
    workload = build(w, name, seed)
    if name in WARMUP_ROUNDS:
        measure(workload, 0.0, rounds=WARMUP_ROUNDS[name])
    m = measure(workload, seconds)
    if name == "cli":
        rss_kb = workload.state["max_child_rss_kb"]
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": setup,
        "ops_per_s": len(workload.ops) / statistics.median(m.round_seconds),
        "latency_p50_s": percentile(m.latencies, 0.5),
        "latency_p90_s": percentile(m.latencies, 0.9),
        "peak_rss_mb": rss_kb / 1024.0,
        "recall": m.recovered / m.listed,
    }
    print(f"workload {name}, seed {seed}: {m.rounds} rounds of {len(workload.ops)} ops, "
          f"{m.attempted} samples, one closed-loop caller")
    clock, calibration = m.calibration
    reference = speed.REF_S if clock == "Clock" else speed.CHILD_REF_S
    print(f"  times in reference seconds: {clock} calibration median {calibration * 1e3:.4f} ms "
          f"(reference {reference * 1e3:g} ms); raw wall latency "
          f"p50 {percentile(m.raw_latencies, 0.5):.6g} s, p90 {percentile(m.raw_latencies, 0.9):.6g} s")
    for key, unit in END_TO_END:
        print(f"  {key:<15} {values[key]:>14.6g} {unit}")
    print("  median latency per operation:")
    for i, op in enumerate(workload.ops):
        print(f"    {statistics.median(m.latencies[i::len(workload.ops)]):>12.6f} s  {op.label}")
    print(f"  {'failed_ratio':<15} {m.failed_ops / m.attempted:>14.6g} ratio "
          f"({m.failed_ops} of {m.attempted} ops)")
    print(f"  recall base: {m.recovered} of {m.listed} known results returned")
    for label, (got, listed) in m.misses.items():
        print(f"    missed: {label} returned {got} of {listed} per round")
    for note in sorted(workload.state.get("notes", ())):
        print(f"NOTE    {note}")
    report_failures(m)
    return result_line(m, {k: (values[k], u) for k, u in END_TO_END})


def run_traced(w, name: str, seed: int) -> str:
    from tracer import LAYER_METRICS, Tracer

    import_s, scipy_opt_s = import_seconds()
    in_process = name == "cli"
    plain = build(w, name, seed, in_process=in_process)
    if name in WARMUP_ROUNDS:
        measure(plain, 0.0, rounds=WARMUP_ROUNDS[name])
    m_plain = measure(plain, 0.0, rounds=1)
    state = plain.state
    report_bytes = state.get("report_bytes", 0)
    nonstrict = state.get("nonstrict_reports", 0)

    tracer = Tracer()
    tracer.install()
    try:
        tracer.op = "setup"
        traced = build(w, name, seed, wrap=tracer.wrap, state=state, in_process=in_process)
        m = measure(traced, 0.0, rounds=1, tracer=tracer)
    finally:
        tracer.uninstall()

    values = tracer.metrics()
    values.update(
        {
            "cli.import_s": import_s,
            "cli.import.scipy_optimize_s": scipy_opt_s,
            "cli.main_s": sum(m_plain.latencies) if in_process else 0.0,
            "cli.report_bytes": report_bytes,
            "cli.nonstrict_reports": nonstrict,
            "game.solve_nash.duplicates": traced.state.get("duplicates", 0),
            "trace.overhead_ratio": sum(m.latencies) / sum(m_plain.latencies),
        }
    )
    trace_path = OUT / f"trace-{name}-seed{seed}.json"
    tracer.write(trace_path, {"workload": name, "seed": seed, "metrics": values})

    print(f"traced workload {name}, seed {seed}: one round of {len(traced.ops)} ops; "
          f"untraced {sum(m_plain.latencies):.3f} s, traced {sum(m.latencies):.3f} s, "
          f"overhead x{values['trace.overhead_ratio']:.3f}; spans in {trace_path.relative_to(ROOT)}")
    if tracer.missing:
        print(f"  layers not found (counted as 0): {', '.join(tracer.missing)}")
    print(f"  {'op':<58} {'s':>8} {'utility':>10} {'max_1d':>8} {'br':>8} {'verify':>7}")
    for op, seconds in zip(traced.ops, m.latencies):
        spans = tracer.span_stats(op.label)
        util = tracer.counts[op.label]["expr.utility"][0]
        print(f"  {op.label[:58]:<58} {seconds:>8.3f} {util:>10} "
              f"{spans['kernel.maximize_1d'][0]:>8} {spans['game.best_response'][0]:>8} "
              f"{spans['game.verify_nash'][0]:>7}")
    print(f"  {'layer metric':<40} {'value':>14} {'unit':<6} moves")
    for key, unit, _, moves in LAYER_METRICS:
        print(f"  {key:<40} {values[key]:>14.6g} {unit:<6} {moves}")
    report_failures(m_plain)
    report_failures(m)
    combined = Measurement()
    combined.latencies = m_plain.latencies + m.latencies
    combined.failed_ops = m_plain.failed_ops + m.failed_ops
    return result_line(combined, {key: (values[key], unit) for key, unit, _, _ in LAYER_METRICS})


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in its own process, one at a time; one table of all metrics."""
    results = {}
    for name in WORKLOADS:
        cmd = [str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run([sys.executable, *cmd], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            die(f"workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    names = list(results["solve"]["metrics"])
    print(f"\n{'metric':<40} {'unit':<6}" + "".join(f"{n:>14}" for n in WORKLOADS))
    for key in names:
        unit = results["solve"]["metrics"][key]["unit"]
        row = "".join(f"{results[n]['metrics'][key]['value']:>14.6g}" for n in WORKLOADS)
        print(f"{key:<40} {unit:<6}{row}")
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(f"{'failed_ratio':<40} {'ratio':<6}" + "".join(
        f"{results[n]['failed'] / results[n]['attempted']:>14.6g}" for n in WORKLOADS))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    w = import_program()
    pin_to_one_cpu()
    if args.setup_probe:
        if args.workload != "all":
            build(w, args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    if args.trace:
        print(run_traced(w, args.workload, args.seed))
    else:
        print(run_untraced(w, args.workload, args.seed, args.seconds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
