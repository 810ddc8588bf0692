"""The traced run behind ``--trace 1``: per-layer time and work counts.

The same jobs as the timed run are driven in process through
``cfl.cli.main``.  Every public module-level function of each cfl layer is
wrapped in a span, in every cfl module that binds it (``absorption``
imports ``has_factor`` by name, ``constructions`` imports
``alpha_ell_exact``), plus ``cli._execute`` (one scan point) and
``Config.from_path``.  Search nodes are closures and are never wrapped; the
per-node helpers ``iter_clique_masks``, ``iter_bits`` and ``mask_of`` are
left out on purpose.  Spans stay in memory; the last traced pass is written
to ``.bench_out/trace-<workload>-<seed>.jsonl`` at the end.

A span's self time is its duration minus the time of the spans it called.
Node, call and scan counts come from the functions' return values, so they
repeat exactly.  Traced and untraced in-process passes alternate; the
difference of their medians is the tracing overhead.

Layer metric -> end-to-end metric it should move (workload):

* cli.import_s, config.load_s -> setup_s, report_s.p50 (all)
* graphs.parse_s -> report_s.p50 (tile-deep, select-embed)
* reports.emit_s -> report_s.p50 (all)
* constructions.build_s -> wall_s (tile-deep)
* tiling.max_tiling.self_s, .nodes -> wall_s (tile-deep)
* tiling.has_factor.self_s, .calls -> wall_s (tile-deep, oracle-sweep)
* invariants.alpha_ell_exact.self_s, .calls, .nodes -> wall_s
  (select-embed, oracle-sweep)
* invariants.rtt_oracle.self_s, .graphs_scanned -> wall_s (oracle-sweep)
* absorption.certify_xi_absorbing.self_s, .checked,
  absorption.closedness_report.self_s -> wall_s (oracle-sweep)
* cli.scan.parallel_ratio -> wall_s (oracle-sweep)
* regularity.is_regular_pair.self_s, .calls -> wall_s (select-embed)
* embedding.drc_select.self_s, embedding.embed_clique_in_tuple.self_s,
  embedding.embed.drc_path_ratio, embedding.embed.trials_used -> wall_s
  (select-embed)
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import defaultdict
from typing import Dict, List

from workloads import BUILDERS, Output

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

LAYERS = ("cli", "config", "graphs", "invariants", "tiling", "constructions",
          "bounds", "regularity", "embedding", "absorption", "reports")
UNTRACED = {"graphs.iter_clique_masks", "graphs.iter_bits", "graphs.mask_of"}
PRIVATE_TRACED = {"cli._execute"}
COUNTERS = {
    "tiling.max_tiling": {"nodes": lambda r: r.nodes_explored},
    "invariants.alpha_ell_exact": {"nodes": lambda r: r.nodes_explored},
    "invariants.rtt_oracle": {"graphs_scanned": lambda r: r.graphs_scanned},
    "absorption.certify_xi_absorbing": {"checked": lambda r: r.checked},
    "embedding.embed_clique_in_tuple": {
        "drc_path": lambda r: int(r.path == "drc"),
        "trials_used": lambda r: r.trials_used},
}
IMPORT_REPEATS = 5


class Tracer:
    """Spans as tuples (key, start, end, self, parent key, request, thread,
    counts), appended when they close.  Each thread keeps its own stack."""

    def __init__(self):
        self.spans: List[tuple] = []
        self.request = 0
        self._local = threading.local()

    def wrap(self, key: str, fn):
        counters = COUNTERS.get(key, {})
        spans, local, clock = self.spans, self._local, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            frame = [0.0, key]
            parent = stack[-1][1] if stack else None
            stack.append(frame)
            t0 = clock()
            counts = None
            try:
                result = fn(*args, **kwargs)
                if counters:
                    counts = {c: get(result) for c, get in counters.items()}
                return result
            finally:
                t1 = clock()
                stack.pop()
                if stack:
                    stack[-1][0] += t1 - t0
                spans.append((key, t0, t1, t1 - t0 - frame[0], parent,
                              self.request, threading.get_ident(), counts))

        return traced


def install(tracer: Tracer):
    """Wrap the layers' functions wherever a cfl module binds them; returns
    the (owner, attribute, original) triples that undo it."""
    modules = {name: importlib.import_module(f"cfl.{name}") for name in LAYERS}
    wrapped = {}
    for name, mod in modules.items():
        for attr, obj in vars(mod).items():
            key = f"{name}.{attr}"
            if (not inspect.isfunction(obj) or obj.__module__ != mod.__name__
                    or inspect.isgeneratorfunction(obj) or key in UNTRACED
                    or (attr.startswith("_") and key not in PRIVATE_TRACED)):
                continue
            wrapped[obj] = tracer.wrap(key, obj)
    undo = []
    owners = list(modules.values()) + [importlib.import_module("cfl.rng"),
                                       importlib.import_module("cfl.numbers")]
    for mod in owners:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                undo.append((mod, attr, obj))
                setattr(mod, attr, wrapped[obj])
    config_cls = modules["config"].Config
    original = config_cls.__dict__["from_path"]
    undo.append((config_cls, "from_path", original))
    config_cls.from_path = classmethod(
        tracer.wrap("config.Config.from_path", original.__func__))
    return undo


def uninstall(undo) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def run_pass(jobs, workdir: str, tally, tracer=None) -> float:
    """One in-process pass over the jobs; returns its wall time."""
    import cfl.cli
    total = 0.0
    for request, job in enumerate(jobs):
        if job.clear_dir:
            shutil.rmtree(os.path.join(workdir, job.clear_dir), ignore_errors=True)
        if tracer is not None:
            tracer.request = request
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cfl.cli.main(job.argv)
            except Exception:  # a traceback is a failed invocation, not a crash
                traceback.print_exc()
                code = 1
        total += time.perf_counter() - t0
        tally.record(job, Output(code, out.getvalue(), err.getvalue(), workdir))
    return total


def import_seconds() -> float:
    """Median ``import cfl.cli`` in a fresh interpreter minus a bare one."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    times: Dict[str, List[float]] = {"pass": [], "import cfl.cli": []}
    for _ in range(IMPORT_REPEATS):
        for code in times:
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True,
                           cwd=ROOT, stdout=subprocess.DEVNULL)
            times[code].append(time.perf_counter() - t0)
    return (statistics.median(times["import cfl.cli"])
            - statistics.median(times["pass"]))


def layer_metrics(spans) -> Dict[str, float]:
    agg = defaultdict(lambda: defaultdict(float))
    for key, t0, t1, self_s, _, _, _, counts in spans:
        a = agg[key]
        a["calls"] += 1
        a["self_s"] += self_s
        a["incl_s"] += t1 - t0
        for c, v in (counts or {}).items():
            a[c] += v

    def entry_s(layer: str) -> float:
        prefix = layer + "."
        return sum(t1 - t0 for key, t0, t1, _, parent, *_ in spans
                   if key.startswith(prefix) and not (parent or "").startswith(prefix))

    scans = [(t0, t1) for key, t0, t1, *_ in spans if key == "cli.cmd_scan"]
    points = sum(t1 - t0 for key, t0, t1, *_ in spans if key == "cli._execute"
                 and any(s0 <= t0 and t1 <= s1 for s0, s1 in scans))
    scan_span = sum(s1 - s0 for s0, s1 in scans)
    execute = agg["cli._execute"]["incl_s"]
    tiling_self = (agg["tiling.max_tiling"]["self_s"]
                   + agg["tiling.has_factor"]["self_s"])
    embeds = agg["embedding.embed_clique_in_tuple"]
    return {
        "config.load_s": agg["config.Config.from_path"]["incl_s"],
        "graphs.parse_s": agg["graphs.parse_graph"]["incl_s"],
        "reports.emit_s": entry_s("reports"),
        "cli.execute_s": execute,
        "constructions.build_s": entry_s("constructions"),
        "tiling.max_tiling.self_s": agg["tiling.max_tiling"]["self_s"],
        "tiling.max_tiling.nodes": agg["tiling.max_tiling"]["nodes"],
        "tiling.max_tiling.calls": agg["tiling.max_tiling"]["calls"],
        "tiling.has_factor.self_s": agg["tiling.has_factor"]["self_s"],
        "tiling.has_factor.calls": agg["tiling.has_factor"]["calls"],
        "tiling.solve_share": tiling_self / execute if execute else 0.0,
        "invariants.alpha_ell_exact.self_s": agg["invariants.alpha_ell_exact"]["self_s"],
        "invariants.alpha_ell_exact.calls": agg["invariants.alpha_ell_exact"]["calls"],
        "invariants.alpha_ell_exact.nodes": agg["invariants.alpha_ell_exact"]["nodes"],
        "invariants.rtt_oracle.self_s": agg["invariants.rtt_oracle"]["self_s"],
        "invariants.rtt_oracle.graphs_scanned":
            agg["invariants.rtt_oracle"]["graphs_scanned"],
        "absorption.certify_xi_absorbing.self_s":
            agg["absorption.certify_xi_absorbing"]["self_s"],
        "absorption.certify_xi_absorbing.checked":
            agg["absorption.certify_xi_absorbing"]["checked"],
        "absorption.closedness_report.self_s":
            agg["absorption.closedness_report"]["self_s"],
        "cli.scan.parallel_ratio": points / scan_span if scan_span else 0.0,
        "regularity.is_regular_pair.self_s": agg["regularity.is_regular_pair"]["self_s"],
        "regularity.is_regular_pair.calls": agg["regularity.is_regular_pair"]["calls"],
        "embedding.drc_select.self_s": agg["embedding.drc_select"]["self_s"],
        "embedding.embed_clique_in_tuple.self_s": embeds["self_s"],
        "embedding.embed.drc_path_ratio":
            embeds["drc_path"] / embeds["calls"] if embeds["calls"] else 0.0,
        "embedding.embed.trials_used": embeds["trials_used"],
    }


UNITS = {"_s": "s", "nodes": "count", "calls": "count", "scanned": "count",
         "checked": "count", "trials_used": "count", "ratio": "ratio",
         "share": "ratio"}


def unit_of(name: str) -> str:
    return next(u for suffix, u in UNITS.items() if name.endswith(suffix))


def measure_layers(workload: str, seed: int, seconds: float, workdir: str,
                   tally) -> dict:
    """The traced in-process loop; returns {metric: (value, unit)}."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.environ.pop("CFL_NODE_BUDGET", None)
    import cfl.cli  # noqa: F401  (every layer module, before wrapping)

    import_s = import_seconds()
    jobs = BUILDERS[workload](seed, workdir)
    cwd = os.getcwd()
    os.chdir(workdir)
    plain: List[float] = []
    traced: List[float] = []
    per_pass: List[Dict[str, float]] = []
    try:
        run_pass(jobs, workdir, tally)   # warm-up
        start = time.perf_counter()
        while not traced or time.perf_counter() - start < seconds:
            # alternate which side goes first
            if len(traced) % 2 == 0:
                plain.append(run_pass(jobs, workdir, tally))
            tracer = Tracer()
            undo = install(tracer)
            try:
                traced.append(run_pass(jobs, workdir, tally, tracer))
            finally:
                uninstall(undo)
            if len(traced) % 2 == 0:
                plain.append(run_pass(jobs, workdir, tally))
            per_pass.append(layer_metrics(tracer.spans))
    finally:
        os.chdir(cwd)
    out_path = os.path.join(ROOT, ".bench_out", f"trace-{workload}-{seed}.jsonl")
    with open(out_path, "w", encoding="utf-8") as fh:
        names = ("name", "start", "end", "self", "parent", "request", "thread",
                 "counts")
        for span in tracer.spans:
            fh.write(json.dumps(dict(zip(names, span))) + "\n")
    print(f"traced passes: {len(traced)}; spans in the last: {len(tracer.spans)} "
          f"-> {os.path.relpath(out_path, ROOT)}")
    metrics = {name: (statistics.median(p[name] for p in per_pass), unit_of(name))
               for name in per_pass[0]}
    metrics["cli.import_s"] = (import_s, "s")
    metrics["inprocess.pass_s"] = (statistics.median(plain), "s")
    metrics["trace.overhead_s"] = (statistics.median(traced)
                                   - statistics.median(plain), "s")
    return metrics
