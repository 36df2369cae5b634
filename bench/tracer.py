"""Tracing from outside the program: wrappers around each layer's public calls.

The tracer replaces module attributes (every binding of the same function
object across the `splitnash` modules) with wrappers, and wraps each game's
utilities through `dataclasses.replace`. Span layers record one span per
call; count layers, whose calls number in the millions, keep only a count,
the number of profiles evaluated and their total time. A span's self time
is its duration minus the time its child spans and counted calls cover.
Spans stay in memory until `write` is called.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# (module, attribute, metric prefix) of every call wrapped with spans
SPAN_LAYERS = (
    ("splitnash.game", "solve_nash", "game.solve_nash"),
    ("splitnash.game", "verify_nash", "game.verify_nash"),
    ("splitnash.game", "best_response", "game.best_response"),
    ("splitnash.kernel", "maximize_1d", "kernel.maximize_1d"),
    ("splitnash.split", "solve_split", "split.solve_split"),
    ("splitnash.split", "verify_split_equilibrium", "split.verify_split_equilibrium"),
    ("splitnash.split", "cdp_sample_check", "split.cdp_sample_check"),
    ("splitnash.split", "kkm_intersection_probe", "split.kkm_intersection_probe"),
    ("splitnash.split", "check_surjectivity", "split.check_surjectivity"),
    ("scipy.optimize", "lsq_linear", "split.lsq_linear"),
    ("splitnash.repeated", "make_repeated_problem", "repeated.make_repeated_problem"),
    ("splitnash.bertrand", "enumerate_grid_equilibria", "bertrand.enumerate_grid_equilibria"),
    ("splitnash.bertrand", "audit_theorem_6_2", "bertrand.audit_theorem_6_2"),
    ("splitnash.bertrand", "grid_best_response", "bertrand.grid_best_response"),
    ("splitnash.models", "get_instance", "models.get_instance"),
)
# calls too frequent for one span each
COUNT_LAYERS = (
    ("splitnash.bertrand", "profits", "bertrand.profits"),
    ("splitnash.split", "kkm_t_membership", "split.kkm_t_membership"),
)
UTILITY = "expr.utility"
MODULES = ("expr", "kernel", "game", "split", "repeated", "bertrand", "models")

# name, unit, better, the end-to-end metrics it should move
LAYER_METRICS = (
    ("expr.utility.calls", "count", "lower", "solve.ops_per_s, verify.latency_p50_s"),
    ("expr.utility.points", "count", "lower", "solve.ops_per_s, verify.latency_p50_s"),
    ("expr.utility.self_s", "s", "lower", "solve.ops_per_s, verify.latency_p50_s"),
    ("kernel.maximize_1d.calls", "count", "lower", "solve.ops_per_s"),
    ("kernel.maximize_1d.self_s", "s", "lower", "solve.ops_per_s"),
    ("game.best_response.calls", "count", "lower", "solve.ops_per_s"),
    ("game.best_response.self_s", "s", "lower", "solve.ops_per_s"),
    ("game.best_responses_per_solve", "count", "lower", "solve.latency_p50_s"),
    ("game.verify_nash.calls", "count", "lower", "verify.latency_p50_s, cli.latency_p50_s"),
    ("game.verify_nash.s", "s", "lower", "verify.latency_p50_s, cli.latency_p50_s"),
    ("game.solve_nash.s", "s", "lower", "solve.latency_p90_s"),
    ("game.solve_nash.kept_ratio", "ratio", "higher", "solve.recall"),
    ("game.solve_nash.duplicates", "count", "lower", "solve.recall (extra copies of one equilibrium)"),
    ("split.solve_split.s", "s", "lower", "solve.latency_p90_s"),
    ("split.verify_split_equilibrium.calls", "count", "lower", "verify.latency_p50_s"),
    ("split.verify_split_equilibrium.s", "s", "lower", "verify.latency_p50_s"),
    ("split.cdp_sample_check.s", "s", "lower", "audit.ops_per_s"),
    ("split.kkm_intersection_probe.s", "s", "lower", "audit.ops_per_s"),
    ("split.kkm_t_membership.calls", "count", "lower", "audit.ops_per_s"),
    ("split.check_surjectivity.s", "s", "lower", "audit.ops_per_s"),
    ("split.lsq_linear.calls", "count", "lower", "audit.ops_per_s"),
    ("repeated.make_repeated_problem.s", "s", "lower", "audit.setup_s"),
    ("bertrand.enumerate_grid_equilibria.s", "s", "lower", "audit.latency_p90_s, audit.peak_rss_mb"),
    ("bertrand.grid_cells", "count", "lower", "audit.latency_p90_s, audit.peak_rss_mb"),
    ("bertrand.grid_bytes_computed", "bytes", "lower", "audit.latency_p90_s, audit.peak_rss_mb"),
    ("bertrand.audit_theorem_6_2.s", "s", "lower", "audit.latency_p90_s"),
    ("bertrand.grid_best_response.calls", "count", "lower", "audit.latency_p90_s"),
    ("bertrand.profits.calls", "count", "lower", "audit.latency_p90_s"),
    ("models.get_instance.s", "s", "lower", "solve/verify/audit setup_s"),
    ("cli.import_s", "s", "lower", "cli.latency_p50_s, setup_s on every workload"),
    ("cli.import.scipy_optimize_s", "s", "lower", "cli.latency_p50_s, setup_s on every workload"),
    ("cli.main_s", "s", "lower", "cli.latency_p50_s"),
    ("cli.report_bytes", "bytes", "lower", "none (count only)"),
    ("cli.nonstrict_reports", "count", "lower", "none (count only)"),
    *((f"{m}.raised", "count", "lower", "failed checks") for m in MODULES),
    ("trace.spans", "count", "lower", "none (tracing cost)"),
    ("trace.overhead_ratio", "ratio", "lower", "none (traced round time / untraced round time)"),
)

# bytes of one float64 per grid cell; computed from array sizes, not measured
_CELL_BYTES = 8


def _grid_cells(orig, args, kwargs) -> int:
    bound = inspect.signature(orig).bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    hi = a["price_range"] if a["price_range"] is not None else a["model"].default_price_range()
    side = int(round(hi / a["grid_step"])) + 1
    return side * side


class Tracer:
    def __init__(self) -> None:
        # spans: (id, parent id, op, name, start, end, self seconds)
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [id, child seconds]
        self._next_id = 0
        self.op = ""
        # op -> name -> [calls, points, seconds]
        self.counts: dict[str, dict[str, list]] = defaultdict(lambda: defaultdict(lambda: [0, 0, 0.0]))
        self.raised: dict[str, int] = defaultdict(int)
        self.returned = 0  # profiles returned by solve_nash
        self.grid_cells = 0
        self.missing: list[str] = []
        self._patches: list[tuple] = []
        self._paused = False

    # --- wrappers ---

    def _span(self, name: str, fn, orig):
        module = name.split(".")[0]

        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            if name == "bertrand.enumerate_grid_equilibria":
                self.grid_cells += _grid_cells(orig, args, kwargs)
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            frame = [sid, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.raised[module] += 1
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += end - start
                self.spans.append((sid, parent, self.op, name, start, end, end - start - frame[1]))
            if name == "game.solve_nash":
                self.returned += len(out)
            return out

        return wrapper

    def _count(self, name: str, fn):
        module = name.split(".")[0]

        def wrapper(*args):
            if self._paused:
                return fn(*args)
            cell = self.counts[self.op][name]
            start = time.perf_counter()
            try:
                out = fn(*args)
            except BaseException:
                self.raised[module] += 1
                raise
            finally:
                dt = time.perf_counter() - start
                cell[0] += 1
                cell[2] += dt
                if self._stack:
                    self._stack[-1][1] += dt
            cell[1] += 1 if isinstance(out, float) else int(np.size(out))
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap(self, problem):
        """Return the game or split problem with every utility counted."""
        if hasattr(problem, "utilities"):
            return dataclasses.replace(
                problem,
                utilities=tuple(
                    u if hasattr(u, "__wrapped__") else self._count(UTILITY, u)
                    for u in problem.utilities
                ),
            )
        if hasattr(problem, "game_n"):
            return dataclasses.replace(
                problem, game_n=self.wrap(problem.game_n), game_m=self.wrap(problem.game_m)
            )
        return problem

    def _instance(self, fn):
        """get_instance that hands out instances with counted utilities."""

        def wrapper(*args, **kwargs):
            inst = fn(*args, **kwargs)
            with self.paused():
                return dataclasses.replace(inst, problem=self.wrap(inst.problem))

        return wrapper

    # --- installation ---

    def install(self) -> None:
        for layers, kind in ((SPAN_LAYERS, "span"), (COUNT_LAYERS, "count")):
            for modname, attr, name in layers:
                mod = importlib.import_module(modname)
                orig = getattr(mod, attr, None)
                if orig is None:
                    self.missing.append(f"{modname}.{attr}")
                    continue
                if kind == "count":
                    wrapper = self._count(name, orig)
                elif name == "models.get_instance":
                    wrapper = self._span(name, self._instance(orig), orig)
                else:
                    wrapper = self._span(name, orig, orig)
                self._replace(modname, orig, wrapper)

    def _replace(self, modname: str, orig, wrapper) -> None:
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == modname or name.split(".")[0] == "splitnash"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)
                    self._patches.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()

    @contextmanager
    def paused(self):
        self._paused, was = True, self._paused
        try:
            yield
        finally:
            self._paused = was

    # --- results ---

    def _totals(self) -> dict[str, list]:
        out: dict[str, list] = defaultdict(lambda: [0, 0, 0.0])
        for per_op in self.counts.values():
            for name, (calls, points, secs) in per_op.items():
                cell = out[name]
                cell[0] += calls
                cell[1] += points
                cell[2] += secs
        return out

    def span_stats(self, op: str | None = None) -> dict[str, list]:
        """name -> [calls, total seconds, self seconds], for one op or all."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for _, _, span_op, name, start, end, self_s in self.spans:
            if op is None or span_op == op:
                cell = out[name]
                cell[0] += 1
                cell[1] += end - start
                cell[2] += self_s
        return out

    def metrics(self) -> dict[str, float]:
        stats = self.span_stats()
        counts = self._totals()
        names = {sid: name for sid, _, _, name, _, _, _ in self.spans}
        parents = {sid: parent for sid, parent, *_ in self.spans}

        def under_solve(sid) -> bool:
            sid = parents[sid]
            while sid is not None:
                if names[sid] == "game.solve_nash":
                    return True
                sid = parents[sid]
            return False

        solves = stats["game.solve_nash"][0]
        brs_in_solve = sum(1 for sid, name in names.items()
                           if name == "game.best_response" and under_solve(sid))
        handed = sum(1 for sid, parent, _, name, *_ in self.spans
                     if name == "game.verify_nash" and parent is not None
                     and names[parent] == "game.solve_nash")
        m = {
            "expr.utility.calls": counts[UTILITY][0],
            "expr.utility.points": counts[UTILITY][1],
            "expr.utility.self_s": counts[UTILITY][2],
            "game.best_responses_per_solve": brs_in_solve / solves if solves else 0.0,
            "game.solve_nash.kept_ratio": self.returned / handed if handed else 0.0,
            "bertrand.grid_cells": self.grid_cells,
            "bertrand.grid_bytes_computed": self.grid_cells * _CELL_BYTES,
            "trace.spans": len(self.spans),
        }
        for _, _, name in COUNT_LAYERS:
            m[f"{name}.calls"] = counts[name][0]
        for _, _, name in SPAN_LAYERS:
            calls, total, self_s = stats[name]
            m[f"{name}.calls"] = calls
            m[f"{name}.s"] = total
            m[f"{name}.self_s"] = self_s
        for module in MODULES:
            m[f"{module}.raised"] = self.raised[module]
        return m

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            **meta,
            "span_fields": ["id", "parent", "op", "name", "start_s", "end_s", "self_s"],
            "spans": self.spans,
            "counts": {op: dict(per) for op, per in self.counts.items()},
            "count_fields": ["calls", "points", "seconds"],
            "missing_layers": self.missing,
        }
        path.write_text(json.dumps(doc))
