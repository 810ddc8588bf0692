"""The ``cfl`` command line: config-driven experiment runs with JSON reports.

Grammar::

    cfl <kind> --config PATH [--out DIR] [--seed N] [--threads N]
    cfl scan   --config PATH [--out DIR] [--seed N] [--threads N]
    cfl graph convert --from FMT --to FMT [--in PATH] [--out PATH]

``parse_args`` reads every command line.  Each option is spelled out and
followed by its value; a repeated option keeps its last value.  A value
may start with '-' only where argparse would take it as a value ('-'
alone or a negative number, so ``--seed -1`` works).  ``-h`` or
``--help`` anywhere prints ``USAGE`` (this grammar) on stdout and exits 0;
any other line outside the grammar (an abbreviated option, ``--opt=value``,
``--``, a missing or bad value) prints ``USAGE`` and ``cfl: error: <why>``
on stderr and exits 2.

Kinds: construct, alpha, tile, factor, cover, regcheck, drc, embed, absorb,
rtt, thresholds, bounds.  Exit codes: 0 success, 2 config error, 3 input
error (including an unreadable or unwritable path, or an input file that
is not UTF-8, or a search deeper than the interpreter's recursion limit,
such as a clique of about a thousand vertices), 4 resource cap hit
(partial results written); a failed self-check
(``graphs.SelfCheckError``) is a defect in cfl, exit 1.  The
environment variable CFL_NODE_BUDGET overrides ``[run] node_budget``; only
alpha, tile, factor and embed (its auto alpha and its fallback search) pass
the budget on.  Every other kind ignores it: most run uncapped, but rtt past
n = 7 stops each barrier member's factor search at a fixed 2,000 nodes and
skips the member.  A feasible answer there is a lower bound either way; a
run that skipped a member and found none sets ``cap_hit`` (exit 4), so
rtt never answers a plain ``feasible: false`` after a skip.  ``--threads``
is accepted and ignored: scan points run in sequence.  A finished run or
scan warns on stderr about each config key that nothing read; the exit code
and the report stay as they are.

Each parameter's range is checked once, by the solver that takes it: a
bad value raises ``graphs.ParameterError``, whose ``key`` is the parameter's
config name, and ``_execute`` reports it as the config error ``[<kind>]
<key>`` (exit 2), for a run and for each scan point.  A handler checks only
what no solver sees: counts such as ``samples`` and ``trials``, vertex ids
against the graph, mode strings, overflow guards, and keys that reach a
solver only in derived form (absorb's ``r`` outside the gadget).

Each kind handler gets the effective node budget (None for none) as
``node_cap`` and returns its result and its flags; ``_execute`` turns them
into the finished report.  Most handlers return their solver's result
record (``records.Record``) as it is, or spread its fields (``vars``) into
the result dict beside the few keys the solver does not know, so report
keys are field names.  Until report schema 2, these still copy fields by
hand under their own key names: tile, factor, cover, absorb's gadget,
absorber and reachable certificates, and regcheck's pairs.  Each handler imports its own solver modules on its first
line, so a run loads only the solvers its kind uses.  No key picks a
certifier's mode: each runs exhaustive within its module's size cap,
sampled beyond it, and says which.

A process (``python -m cfl.cli`` or the ``cfl`` script) runs ``entry``:
when ``main`` returns its code, ``entry`` flushes stdout and stderr and ends
the process with ``os._exit``, skipping interpreter teardown, so no atexit
handler runs after ``main``, help and usage errors included.  Only an
uncaught exception still ends the process normally, with its traceback
and exit 1.  ``main`` flushes stdout itself, so a closed stdout pipe is an
input error (exit 3) in process too; it never ends the process, so
callers in one process, such as the tests, can call it repeatedly.
"""

from __future__ import annotations

import math
import os
import sys
import time
from types import SimpleNamespace
from typing import Dict, List, Optional

from . import graphs, reports
from .config import Config, ConfigError, parse_vertex_list, read_int
from .graphs import Graph, GraphFormatError, ParameterError, VertexSet
from .numbers import exact_fraction, number
from .rng import sha256

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INPUT = 3
EXIT_CAP = 4

class InputError(Exception):
    pass


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def load_graph(cfg: Config, section: str, key: str = "graph",
               seed: int = 0) -> Graph:
    """A graph parameter is either a readable file (edge list or graph6) or
    a generator spec like ``gnp:30,0.5`` / ``petersen``."""
    raw = cfg.get_str(section, key)
    looks_like_path = os.path.exists(raw) or os.sep in raw or raw.endswith(
        (".g6", ".el", ".edges", ".txt"))
    if looks_like_path:
        text = _read_file(raw)
        try:
            return graphs.parse_graph(text)
        except GraphFormatError as exc:
            raise InputError(f"{raw}: {exc}") from exc
    from . import constructions
    try:
        return constructions.graph_from_spec(raw, seed=seed)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}", str(exc)) from exc


def _vertices(raw: str, field: str, g: Graph) -> VertexSet:
    return VertexSet.of(g, parse_vertex_list(raw, field, g.n))


def _vertex_set(cfg: Config, section: str, key: str, g: Graph) -> VertexSet:
    return _vertices(cfg.get_str(section, key), f"[{section}] {key}", g)


def _user_error(exc: Exception, where: str = "") -> int:
    """Print a config or input error on stderr; return its exit code."""
    if isinstance(exc, ConfigError):
        print(f"{where}config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"{where}input error: {exc}", file=sys.stderr)
    return EXIT_INPUT


def _vertex(cfg: Config, section: str, key: str, g: Graph) -> int:
    v = cfg.get_int(section, key)
    if not 0 <= v < g.n:
        raise ConfigError(f"[{section}] {key}",
                          f"expected a vertex id in 0..{g.n - 1}, got {v}")
    return v


def _node_budget(cfg: Config) -> Optional[int]:
    env = os.environ.get("CFL_NODE_BUDGET")
    if env is not None:
        return read_int("CFL_NODE_BUDGET", env, low=0)
    if cfg.has("run", "node_budget"):
        return cfg.get_int("run", "node_budget", low=0)
    return None


# -- kind handlers: (config, seed, node_cap, outdir) -> (result, flags) ------


def run_alpha(cfg, seed, node_cap, outdir):
    from . import invariants
    g = load_graph(cfg, "alpha", seed=seed)
    ell = cfg.get_int("alpha", "ell")
    mode = cfg.get_str("alpha", "mode", "exact")
    if mode == "exact":
        res = invariants.alpha_ell_exact(g, ell, node_cap=node_cap)
        flags = {"exhaustive": res.exact, "cap_hit": not res.exact}
    elif mode == "greedy":
        res = invariants.alpha_ell_greedy(g, ell, seed)
        flags = {"exhaustive": False, "cap_hit": False}
    else:
        raise ConfigError("[alpha] mode", f"expected exact|greedy, got {mode!r}")
    return res, flags


def run_tile(cfg, seed, node_cap, outdir):
    from . import tiling
    g = load_graph(cfg, "tile", seed=seed)
    r = cfg.get_int("tile", "r")
    res = tiling.max_tiling(g, r, node_cap=node_cap)
    result = {"r": r, "tiles": res.best.members,
              "count": len(res.best), "deficiency": res.deficiency,
              "optimal": res.optimal, "nodes_explored": res.nodes_explored,
              "valid": tiling.verify_tiling(g, res.best)}
    return result, {"exhaustive": res.optimal, "cap_hit": not res.optimal}


def run_factor(cfg, seed, node_cap, outdir):
    from . import tiling
    g = load_graph(cfg, "factor", seed=seed)
    r = cfg.get_int("factor", "r")
    res = tiling.has_factor(g, r, node_cap=node_cap)
    result = {"r": r, "status": res.status,
              "factor": res.tiling.members if res.tiling else None,
              "valid": tiling.verify_tiling(g, res.tiling) if res.tiling else None}
    return result, {"cap_hit": res.status == "cap"}


def run_cover(cfg, seed, node_cap, outdir):
    from . import invariants
    g = load_graph(cfg, "cover", seed=seed)
    v = _vertex(cfg, "cover", "vertex", g)
    r = cfg.get_int("cover", "r")
    forbidden = (_vertex_set(cfg, "cover", "forbidden", g)
                 if cfg.has("cover", "forbidden") else None)
    res = invariants.has_clique_cover(g, v, r, forbidden)
    return {"vertex": v, "r": r, "cover": res}, {"cap_hit": False}


def run_construct(cfg, seed, node_cap, outdir):
    from . import constructions
    family = cfg.get_str("construct", "family")
    section = "construct"
    if family == "lower-bound":
        n, ell, r = (cfg.get_int(section, key) for key in ("n", "ell", "r"))
        inner = load_graph(cfg, section, "inner", seed=seed)
        # eta and clique_size both set |X1|; a refusal of either names the
        # one the config gave (the builder refuses an n below 1 before it
        # uses eta)
        x1_key = "clique_size" if cfg.has(section, "clique_size") else "eta"
        from fractions import Fraction
        eta = (Fraction(cfg.get_int(section, "clique_size"), max(n, 1))
               if x1_key == "clique_size" else cfg.get_fraction(section, "eta"))
        try:
            build = constructions.build_lower_bound_graph(n, r, ell, eta, inner)
        except ParameterError as exc:
            if exc.key in ("eta", "clique_size"):
                exc.key = x1_key
            raise
        result = {"family": family, **vars(build)}
        built = build.graph
    elif family == "cover-threshold":
        n, r = cfg.get_int(section, "n"), cfg.get_int(section, "r")
        inner = load_graph(cfg, section, "inner", seed=seed)
        build = constructions.build_cover_threshold_graph(
            n, r, cfg.get_fraction(section, "x"), inner)
        result = {"family": family, **vars(build)}
        built = build.graph
    elif family == "spec":
        built = load_graph(cfg, section, "graph", seed=seed)
        result = {"family": family, "graph": built,
                  "min_degree": built.min_degree(), "edges": built.edge_count}
    else:
        raise ConfigError("[construct] family",
                          f"expected lower-bound|cover-threshold|spec, got "
                          f"{family!r}; a K_{{l+1}}-free graph of small "
                          "l-independence is family = spec with graph = "
                          "circulant:N,D1,D2,...")
    if cfg.has(section, "graph_out"):
        path = cfg.get_str(section, "graph_out")
        if outdir:
            top = os.path.normpath(path).split(os.sep)[0]
            if os.path.isabs(path) or top == os.pardir:
                raise ConfigError("[construct] graph_out",
                                  f"{path!r} leaves the output directory {outdir}")
            path = os.path.join(outdir, path)
        text = (graphs.format_graph6(built) + "\n" if path.endswith(".g6")
                else graphs.format_edgelist(built))
        reports.write_text_atomic(path, text)
        result["graph_path"] = path
    return result, {"cap_hit": False}


def run_regcheck(cfg, seed, node_cap, outdir):
    from . import regularity
    g = load_graph(cfg, "regcheck", seed=seed)
    ppath = cfg.get_str("regcheck", "partition")
    try:
        part = regularity.parse_partition(_read_file(ppath), g)
    except ValueError as exc:      # PartitionFormatError included
        raise InputError(f"{ppath}: {exc}") from exc
    eps = cfg.get_fraction("regcheck", "epsilon")
    if eps >= 1:    # the checkers take it, but it makes every pair regular
        raise ConfigError("[regcheck] epsilon", f"expected a rational in (0, 1), "
                          f"got {eps}")
    d = cfg.get_fraction("regcheck", "d")
    samples = cfg.get_int("regcheck", "samples", 10_000, low=1)
    check_super = cfg.get_bool("regcheck", "super", False)
    m = part.cluster_size
    # every pair has sides m and m, so the one rule gives every pair's mode
    mode = "exhaustive" if regularity.exhaustive_fits(m, m, eps) else "sampled"
    red = regularity.reduced_graph(g, part, d)
    pair_results = {}
    for i in range(part.k):
        for j in range(i + 1, part.k):
            if check_super:
                sv = regularity.is_super_regular(
                    g, part.clusters[i], part.clusters[j], eps, d,
                    samples=samples, seed=seed)
                rv = sv.regularity
                row = {"super_regular": sv.ok, "reason": sv.reason}
            else:
                rv = regularity.is_regular_pair(
                    g, part.clusters[i], part.clusters[j], eps,
                    samples=samples, seed=seed)
                row = {"regular": rv.regular, "violation": rv.violation}
            pair_results[f"{i}-{j}"] = {"density": rv.base_density,
                                        "mode": rv.mode, **row}
    result = {"k": part.k, "cluster_size": m, "mode": mode,
              "pairs": pair_results,
              "reduced_edges": {f"{i}-{j}": w for (i, j), w in red.weights.items()},
              "reduced_min_degree": red.min_degree()}
    return result, {"exhaustive": mode == "exhaustive", "cap_hit": False}


def run_drc(cfg, seed, node_cap, outdir):
    from . import bounds, embedding
    g = load_graph(cfg, "drc", seed=seed)
    target = _vertex_set(cfg, "drc", "target", g)
    witness = _vertex_set(cfg, "drc", "witness", g)
    # the condition's n is |target| + |witness|
    if not target.mask | witness.mask:
        raise ConfigError("[drc] target", "target and witness are both empty")
    t, r, m = (cfg.get_int("drc", key) for key in ("t", "r", "m"))
    trials = cfg.get_int("drc", "trials", 8, low=1)
    out = embedding.drc_select(g, target, witness, t, r, m, seed=seed,
                               max_trials=trials)
    slack = bounds.drc_condition(len(target) + len(witness),
                                 2 * g.edge_count / max(1, g.n), t, r, m,
                                 a=len(out.selected))
    if not math.isfinite(slack):
        # -inf: C(n, r) (m/n)^t dominates; +inf: d^t / n^(t-1) does
        raise ConfigError("[drc] m" if slack < 0 else "[drc] t",
                          f"the condition's slack at m = {m}, t = {t}, "
                          f"r = {r} overflows a double; a report cannot hold it")
    result = {"size": len(out.selected), **vars(out),
              "condition_slack_at_size": slack}
    return result, {"cap_hit": False}


def run_embed(cfg, seed, node_cap, outdir):
    from . import embedding, invariants
    g = load_graph(cfg, "embed", seed=seed)
    class_specs = cfg.get_str("embed", "classes").split(";")
    classes = [_vertices(spec, f"[embed] classes[{i}]", g)
               for i, spec in enumerate(class_specs)]
    p = cfg.get_int("embed", "p")
    alpha_capped = False
    if cfg.get_str("embed", "alpha_bound", "auto") == "auto":
        alphas = [invariants.alpha_ell_exact(g, max(2, p), within=c,
                                             node_cap=node_cap)
                  for c in classes]
        alpha_bound = max(res.value for res in alphas)
        # a capped search gives only a lower bound on alpha
        alpha_capped = not all(res.exact for res in alphas)
    else:
        alpha_bound = cfg.get_int("embed", "alpha_bound")
    res = embedding.embed_clique_in_tuple(
        g, classes, p, alpha_bound, seed=seed, s=cfg.get_int("embed", "s", 2),
        trials=cfg.get_int("embed", "trials", 8, low=0),
        fallback_node_cap=(embedding.FALLBACK_NODE_CAP if node_cap is None
                           else node_cap))
    return res, {"cap_hit": alpha_capped
                 or {"fallback": "cap"} in res.telemetry}


def run_absorb(cfg, seed, node_cap, outdir):
    from . import absorption
    task = cfg.get_str("absorb", "task")
    r = cfg.get_int("absorb", "r")
    if task == "gadget":
        gad = absorption.build_reachable_gadget(r)
        cert = absorption.certify_reachable(gad.graph, gad.u, gad.v,
                                            gad.reach_set, r)
        result = {"task": task, "r": r, **vars(gad), "certified": cert is not None,
                  "factor_u": cert.factor_u.members if cert else None,
                  "factor_v": cert.factor_v.members if cert else None}
        return result, {"cap_hit": False}
    # the certifiers below take r as it is: xi divides by it, and closedness
    # looks for (r-1)-cliques
    if r < 2:
        raise ConfigError("[absorb] r", f"expected an integer >= 2, got {r}")
    g = load_graph(cfg, "absorb", seed=seed)
    if task == "absorber":
        s = _vertex_set(cfg, "absorb", "s_set", g)
        a = _vertex_set(cfg, "absorb", "a_set", g)
        t = cfg.get_int("absorb", "t", low=1)
        cert = absorption.certify_absorber(g, s, a, r, t)
        result = {"task": task, "certified": cert is not None,
                  "factor_of_a": cert.factor_of_a.members if cert else None,
                  "factor_of_a_union_s":
                      cert.factor_of_a_union_s.members if cert else None}
    elif task == "reachable":
        u = _vertex(cfg, "absorb", "u", g)
        v = _vertex(cfg, "absorb", "v", g)
        s = _vertex_set(cfg, "absorb", "s_set", g)
        cert = absorption.certify_reachable(g, u, v, s, r)
        result = {"task": task, "certified": cert is not None,
                  "factor_u": cert.factor_u.members if cert else None,
                  "factor_v": cert.factor_v.members if cert else None}
    elif task == "xi":
        a = _vertex_set(cfg, "absorb", "a_set", g)
        xi = cfg.get_fraction("absorb", "xi")
        if xi < 0:
            raise ConfigError("[absorb] xi", f"expected a rational >= 0, got {xi}")
        samples = cfg.get_int("absorb", "samples", 2000, low=1)
        verdict = absorption.certify_xi_absorbing(g, a, r, xi, samples=samples,
                                                  seed=seed)
        result = {"task": task, **vars(verdict)}
    elif task == "closedness":
        raw = cfg.get_str("absorb", "u_set", "all")
        u_set = (VertexSet(g, g.full_mask()) if raw == "all"
                 else _vertices(raw, "[absorb] u_set", g))
        if len(u_set) < 2:
            raise ConfigError("[absorb] u_set", f"expected at least two vertices, "
                              f"got {len(u_set)}")
        t = cfg.get_int("absorb", "t", 1, low=1)
        budget = cfg.get_int("absorb", "pair_budget", 64, low=1)
        inner = cfg.get_bool("absorb", "inner", False)
        limit = cfg.get_int("absorb", "limit", 8, low=1)
        rep = absorption.closedness_report(g, u_set, r, t, budget,
                                           inner=inner, per_pair_limit=limit,
                                           seed=seed)
        result = {"task": task, "report": rep}
    else:
        raise ConfigError("[absorb] task",
                          f"expected absorber|reachable|xi|closedness|gadget, "
                          f"got {task!r}")
    return result, {"cap_hit": False}


def run_rtt(cfg, seed, node_cap, outdir):
    from . import invariants
    res = invariants.rtt_oracle(*(cfg.get_int("rtt", key)
                                  for key in ("n", "r", "ell", "alpha_bound")))
    # no member passed, but a skipped one might have: not a plain "infeasible"
    return res, {"exhaustive": res.exhaustive, "degenerate": res.degenerate,
                 "cap_hit": res.members_skipped > 0}


def run_thresholds(cfg, seed, node_cap, outdir):
    from . import bounds
    result: Dict[str, object] = {}
    if cfg.has("thresholds", "parts"):
        parts = cfg.get_int_list("thresholds", "parts")
        c = bounds.chi_cr(parts)
        result["parts"] = parts
        result["chi_cr"] = c
        result["chi_cr_degenerate"] = c == 0
        if c != 0:
            result["komlos_threshold"] = bounds.komlos_threshold(parts)
    if cfg.has("thresholds", "r") and cfg.has("thresholds", "ell"):
        ell, r = cfg.get_int("thresholds", "ell"), cfg.get_int("thresholds", "r")
        n = cfg.get_int("thresholds", "n", 1)
        rho = cfg.get_fraction("thresholds", "rho_star", exact_fraction(0))
        result["degree_thresholds"] = bounds.degree_thresholds(n, r, ell, rho)
        if cfg.has("thresholds", "profile_c"):
            c = cfg.get_float("thresholds", "profile_c")
            npts = cfg.get_int("thresholds", "profile_n", n if n > 1 else 100)
            try:
                value = bounds.alpha_profile(npts, r, ell, c)
            except ParameterError as exc:      # alpha_profile's n is profile_n
                raise ConfigError("[thresholds] profile_n", str(exc)) from exc
            except OverflowError as exc:
                raise ConfigError("[thresholds] profile_c",
                                  f"profile at n = {npts} overflows: {exc}") from exc
            result["alpha_profile"] = {"c": c, "n": npts, "value": value}
    if not result:
        raise ConfigError("[thresholds]", "nothing to compute: give parts "
                          "and/or r, ell")
    return result, {"cap_hit": False}


def run_bounds(cfg, seed, node_cap, outdir):
    from . import bounds
    formula = cfg.get_str("bounds", "formula")
    if formula == "fkg":
        n, ell = cfg.get_int("bounds", "n"), cfg.get_int("bounds", "ell")
        p = cfg.get_float("bounds", "p")
        try:
            log_lb = bounds.fkg_lower_bound(n, ell, p)
        except OverflowError as exc:
            raise ConfigError("[bounds] n", f"C(n, ell + 1) at n = {n}, "
                              f"ell = {ell} overflows a double: {exc}") from exc
        if log_lb == -math.inf:
            raise ConfigError("[bounds] p", f"at p = {p} the lower bound is 0 "
                              "and its log, -inf, has no JSON form")
        result = {"formula": formula, "n": n, "ell": ell, "p": p,
                  "log_lower_bound": log_lb, "lower_bound": math.exp(log_lb)}
    elif formula == "janson":
        ell, a = cfg.get_int("bounds", "ell"), cfg.get_int("bounds", "a_size")
        p = cfg.get_float("bounds", "p")
        where = f"a_size = {a}, ell = {ell}, p = {p}"
        try:
            rep = bounds.janson_bound(a, ell, p)
        except OverflowError as exc:
            raise ConfigError("[bounds] a_size", f"E[X] or Delta at {where} "
                              "overflows a double") from exc
        try:
            delta_exact = reports.jsonable(bounds.janson_delta_exact(a, ell, p))
        except ValueError as exc:   # past Python's int-to-str digit limit
            raise ConfigError("[bounds] a_size", f"the exact Delta at {where} "
                              "has too many digits for a report") from exc
        result = {"formula": formula, **vars(rep), "delta_exact": delta_exact}
    elif formula == "drc-condition":
        n, t, r = (cfg.get_int("bounds", key) for key in ("n", "t", "r"))
        d, m, a = (cfg.get_float("bounds", key) for key in ("avg_degree", "m", "a"))
        slack = bounds.drc_condition(n, d, t, r, m, a)
        if not math.isfinite(slack):
            # +inf: d^t / n^(t-1) dominates; -inf: C(n, r) (m/n)^t does
            raise ConfigError("[bounds] avg_degree" if slack > 0 else "[bounds] m",
                              f"the slack overflows a double (avg_degree = {d}, "
                              f"m = {m}, n = {n}, t = {t}, r = {r}, a = {a}); "
                              "a report cannot hold it")
        result = {"formula": formula, "slack": slack, "holds": slack >= 0}
    else:
        raise ConfigError("[bounds] formula",
                          f"expected fkg|janson|drc-condition, got {formula!r}")
    return result, {"cap_hit": False}


HANDLERS = {
    "construct": run_construct,
    "alpha": run_alpha,
    "tile": run_tile,
    "factor": run_factor,
    "cover": run_cover,
    "regcheck": run_regcheck,
    "drc": run_drc,
    "embed": run_embed,
    "absorb": run_absorb,
    "rtt": run_rtt,
    "thresholds": run_thresholds,
    "bounds": run_bounds,
}


def _execute(kind: str, cfg: Config, seed: int, outdir: Optional[str]) -> dict:
    """Run one kind handler and return its finished report."""
    node_cap = _node_budget(cfg)
    t0 = time.perf_counter()
    try:
        result, flags = HANDLERS[kind](cfg, seed, node_cap, outdir)
    except ParameterError as exc:
        raise ConfigError(f"[{kind}] {exc.key}", str(exc)) from exc
    except RecursionError as exc:
        raise InputError(f"{kind}: the search goes deeper than the "
                         f"interpreter's recursion limit ({exc})") from exc
    timings = {"total_s": time.perf_counter() - t0}
    return reports.build_report(kind, seed, cfg.flat(), result, flags,
                                {"node_budget": node_cap}, timings)


def _report_stem(outdir: str, kind: str, cfg: Config, seed: int,
                 prefix: str = "report") -> str:
    """A run's report path without ``.json``.  Its digest covers the config
    file's hash, the seed and the effective node budget, since ``--seed``
    and CFL_NODE_BUDGET override the file; runs that differ in any of them
    never share a file."""
    key = f"{reports.config_hash(cfg.flat())}\n{seed}\n{_node_budget(cfg)}"
    digest = sha256(key.encode()).hexdigest()
    return os.path.join(outdir, f"{prefix}-{kind}-{digest[:12]}")


def _warn_unread(*cfgs: Config) -> None:
    """One stderr line per config key that the run never consulted, such as
    a misspelled optional key; the exit code and the report stay as they
    are."""
    unread = dict.fromkeys(pair for cfg in cfgs for pair in cfg.unread_keys())
    for section, key in unread:
        print(f"warning: [{section}] {key} was never read", file=sys.stderr)


def cmd_run(kind: str, args) -> int:
    cfg = Config.from_path(args.config)
    declared = cfg.get_str("run", "kind", kind)
    if declared != kind:
        raise ConfigError("[run] kind",
                          f"config declares {declared!r}, command line says {kind!r}")
    seed = args.seed if args.seed is not None else cfg.get_int("run", "seed", 0)
    # the run's own files (construct's graph_out) go in a directory named
    # after its report, so runs that never share a report share no file
    stem = args.out and _report_stem(args.out, kind, cfg, seed)
    report = _execute(kind, cfg, seed, stem)
    if args.out:
        path = stem + ".json"
        reports.write_report_atomic(path, report)
        print(path)
    else:
        sys.stdout.write(reports.dump_report(report))
    _warn_unread(cfg)
    return EXIT_CAP if report["flags"].get("cap_hit") else EXIT_OK


def cmd_scan(args) -> int:
    """Sweep one parameter.  A point that raises a user error gets no report
    and its row in scan.csv says so; the scan still writes every other point.
    Exit code: the first failing point's, else 4 if any point capped, else 0.
    Points run one after another, in index order.  A point's own files
    (construct's ``graph_out``) go under ``point-NNN/``, so no two points
    share one; a ``graph_out`` that leaves it is a config error."""
    cfg = Config.from_path(args.config)
    kind = cfg.get_str("run", "kind")
    if kind not in HANDLERS:
        raise ConfigError("[run] kind", f"unknown kind {kind!r}")
    param = cfg.get_str("scan", "param")
    if "." not in param:
        raise ConfigError("[scan] param", "expected '<section>.<key>'")
    section, _, key = param.partition(".")
    raw_values = cfg.get_str("scan", "values", "")
    # semicolons separate values that themselves contain commas
    splitter = ";" if ";" in raw_values else ","
    values = [v.strip() for v in raw_values.split(splitter) if v.strip()]
    points = [cfg.scan_point(section, key, value) for value in values]
    outdir = args.out or "cfl-scan-out"
    os.makedirs(outdir, exist_ok=True)

    rows = []
    for idx, point in enumerate(points):
        try:
            seed = (args.seed if args.seed is not None
                    else point.get_int("run", "seed", 0))
            report = _execute(kind, point, seed,
                              os.path.join(outdir, f"point-{idx:03d}"))
        except (ConfigError, InputError, OSError) as exc:
            code = _user_error(exc, f"point {idx} ({param} = {values[idx]}): ")
            rows.append(("error", code, {}))
            continue
        path = _report_stem(outdir, kind, point, seed, f"point-{idx:03d}")
        reports.write_report_atomic(path + ".json", report)
        if report["flags"].get("cap_hit"):
            rows.append(("cap", EXIT_CAP, report["result"]))
        else:
            rows.append(("ok", EXIT_OK, report["result"]))
    scalar_keys: List[str] = []
    for _, _, result in rows:
        for k, v in result.items():
            if isinstance(v, (int, float, str, bool)) and k not in scalar_keys:
                scalar_keys.append(k)
    fixed = ["index", "param", "param_value", "status", "exit_code"]
    csv_rows = [[idx, param, values[idx], status, code]
                + [result.get(k) for k in scalar_keys]
                for idx, (status, code, result) in enumerate(rows)]
    csv_path = os.path.join(outdir, "scan.csv")
    reports.write_csv_atomic(
        csv_path, fixed + [f"result.{k}" if k in fixed else k for k in scalar_keys],
        csv_rows)
    print(csv_path)
    _warn_unread(cfg, *points)
    failed = [code for status, code, _ in rows if status == "error"]
    if failed:
        return failed[0]
    return EXIT_CAP if any(status == "cap" for status, _, _ in rows) else EXIT_OK


def cmd_convert(args) -> int:
    formats = ("edgelist", "graph6")
    if args.from_fmt not in formats or args.to_fmt not in formats:
        raise ConfigError("--from/--to", f"formats are {formats}")
    if args.infile:
        text = _read_file(args.infile)
    else:
        try:
            text = sys.stdin.read()
        except UnicodeDecodeError as exc:
            raise InputError(f"cannot read stdin: {exc}") from exc
    try:
        g = (graphs.parse_edgelist(text) if args.from_fmt == "edgelist"
             else graphs.parse_graph6(text))
    except GraphFormatError as exc:
        raise InputError(str(exc)) from exc
    out = (graphs.format_edgelist(g) if args.to_fmt == "edgelist"
           else graphs.format_graph6(g) + "\n")
    if args.outfile:
        reports.write_text_atomic(args.outfile, out)
    else:
        sys.stdout.write(out)
    return EXIT_OK


class UsageError(Exception):
    """A command line outside the grammar (exit 2)."""


USAGE = """\
usage: cfl <kind> --config PATH [--out DIR] [--seed N] [--threads N]
       cfl scan   --config PATH [--out DIR] [--seed N] [--threads N]
       cfl graph convert --from FMT --to FMT [--in PATH] [--out PATH]
kinds: """ + ", ".join(HANDLERS) + "\n"

# each command's options, mapped to their attributes
_RUN_OPTIONS = {"--config": "config", "--out": "out", "--seed": "seed",
                "--threads": "threads"}
_CONVERT_OPTIONS = {"--from": "from_fmt", "--to": "to_fmt", "--in": "infile",
                    "--out": "outfile"}


def _is_option(token: str) -> bool:
    """argparse's rule: a token that starts with '-' is an option unless it
    is '-' alone, a negative number or holds a space."""
    if token[:1] != "-" or len(token) == 1 or " " in token:
        return False
    import re
    return not re.match(r"^-\d+$|^-\d*\.\d+$", token)


def parse_args(argv: List[str]) -> SimpleNamespace:
    """``argv``'s arguments, named as argparse named them, or a UsageError
    that says why ``argv`` is outside the grammar."""
    if argv[:2] == ["graph", "convert"]:
        options, required, rest = _CONVERT_OPTIONS, ("--from", "--to"), argv[2:]
        fixed = {"command": "graph", "graph_command": "convert"}
    elif argv[:1] and (argv[0] in HANDLERS or argv[0] == "scan"):
        options, required, rest = _RUN_OPTIONS, ("--config",), argv[1:]
        fixed = {"command": argv[0], "threads": 1}
    else:
        command = " ".join(argv[:2] if argv[:1] == ["graph"] else argv[:1])
        raise UsageError(f"unknown command {command!r}" if argv
                         else "a command is required")
    args = {**dict.fromkeys(options.values()), **fixed}
    for name, value in zip(rest[::2], rest[1::2] + [None]):
        if name not in options:
            raise UsageError(f"unrecognized argument {name!r}")
        if value is None or _is_option(value):
            raise UsageError(f"argument {name}: expected one argument")
        if name in ("--seed", "--threads"):
            try:
                value = number(value)
            except ValueError:
                raise UsageError(f"argument {name}: invalid int value: "
                                 f"{value!r}") from None
        args[options[name]] = value
    missing = [name for name in required if args[options[name]] is None]
    if missing:
        raise UsageError("the following arguments are required: "
                         + ", ".join(missing))
    return SimpleNamespace(**args)


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        if "-h" in argv or "--help" in argv:
            sys.stdout.write(USAGE)
            code = EXIT_OK
        else:
            args = parse_args(argv)
            code = (cmd_convert(args) if args.command == "graph"
                    else cmd_scan(args) if args.command == "scan"
                    else cmd_run(args.command, args))
        # a closed stdout fails here, as an input error, whether or not
        # the stream is buffered
        sys.stdout.flush()
        return code
    except UsageError as exc:
        sys.stderr.write(f"{USAGE}cfl: error: {exc}\n")
        return EXIT_CONFIG
    except (ConfigError, InputError, OSError) as exc:
        return _user_error(exc)


def entry() -> None:
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        # only output that main already reported as unwritable is left;
        # a failed flush never turns into success
        code = code or EXIT_INPUT
    os._exit(code)


if __name__ == "__main__":
    entry()
