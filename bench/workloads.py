"""The three workloads: the cfl invocations they make and the checks on each
report.

A workload is a list of jobs.  A job is one ``cfl`` command line over files
the benchmark wrote, plus a check that rejects a wrong report.  Checks use
the benchmark's own graph copy and its own combinatorics
(``inputs.has_clique``, ``inputs.max_matching``, Hajnal-Szemeredi and the
regularity construction), never cfl's code.  A check returns the values
pinned for the default seed (``pins.json``).

Why these workloads:

* ``tile-deep``: lower-bound graphs at n = 16..18, where the tiling layer's
  deep branch and bound does almost all of the in-process work.
* ``oracle-sweep``: thousands of shallow exact calls (the n = 6 oracle's
  32,768 alpha calls, absorbing-set scans, a threaded ``cfl scan``), where
  per-call set-up dominates and deep-search pruning barely matters.
* ``select-embed``: exact alpha, exhaustive regularity, dependent random
  choice and clique embedding; it never touches the tiling layer, so a
  tiling change should leave it unchanged.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Dict, List, Optional

from inputs import (certified_clusters, edgelist, gnp, has_clique,
                    is_clique, klfree_process, max_matching, near_complete,
                    stream, vertex_list)

WORKLOADS = ("tile-deep", "oracle-sweep", "select-embed")


class CheckFailed(Exception):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass
class Output:
    """What one invocation left behind, read relative to the work dir."""
    code: int
    stdout: str
    stderr: str
    workdir: str


@dataclass
class Job:
    name: str
    argv: List[str]
    # returns (text whose SHA-256 is the reproducibility digest, pinned values)
    check: Callable[[Output], "tuple[str, dict]"]
    clear_dir: Optional[str] = None


def canonical(report: dict) -> str:
    stripped = {k: v for k, v in report.items() if k != "timings"}
    return json.dumps(stripped, sort_keys=True)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_report(out: Output, kind: str) -> dict:
    require(out.code == 0, f"exit code {out.code}: {out.stderr.strip()[-300:]}")
    require("Traceback" not in out.stderr, "traceback on stderr")
    try:
        report = json.loads(out.stdout)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"report is not JSON: {exc}") from exc
    require(report.get("schema") == 1, "schema is not 1")
    require(report.get("kind") == kind, f"kind {report.get('kind')!r} != {kind!r}")
    require(not report["flags"].get("cap_hit"), "cap hit")
    return report


def write(workdir: str, name: str, text: str) -> str:
    with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
        fh.write(text)
    return name


def config(workdir: str, name: str, kind: str, seed: int,
           section: Dict[str, object], extra: str = "") -> str:
    lines = ["[run]", f"kind = {kind}", f"seed = {seed}", "", f"[{kind}]"]
    lines += [f"{k} = {v}" for k, v in section.items()]
    return write(workdir, name, "\n".join(lines) + "\n" + extra)


def run_seed(seed: int, *labels: object) -> int:
    return stream(seed, "run-seed", *labels).randrange(2 ** 32)


def check_clique_family(adj, sets, r: int, universe: int) -> None:
    used = 0
    for s in sets:
        mask = sum(1 << v for v in s)
        require(len(s) == r and mask.bit_count() == r, f"{s} is not an {r}-set")
        require(not mask & used, f"{s} overlaps another tile")
        require(not mask & ~universe, f"{s} leaves the vertex set")
        require(is_clique(adj, s), f"{s} is not a clique")
        used |= mask


# -- the no-op invocation behind setup_s -------------------------------------

NOOP_PARTS = (2, 3, 3)


def noop_job(workdir: str) -> Job:
    cfg = config(workdir, "noop.ini", "thresholds", 0,
                 {"parts": ", ".join(map(str, NOOP_PARTS))})
    k, total, sigma = len(NOOP_PARTS), sum(NOOP_PARTS), min(NOOP_PARTS)
    chi = Fraction((k - 1) * total, total - sigma)

    def check(out: Output):
        rep = load_report(out, "thresholds")
        require(rep["result"]["chi_cr"] == f"{chi.numerator}/{chi.denominator}",
                f"chi_cr {rep['result']['chi_cr']} != {chi}")
        return canonical(rep), {}

    return Job("noop", ["thresholds", "--config", cfg], check)


# -- tile-deep -----------------------------------------------------------------

# (n, r, |X1|) with ell = 2 and |X1| one or two below the (r-ell)n/r ceiling.
# Left out: (17, 4, 8) and (18, 4, 8), whose cost jumps sixfold with the
# inner graph's matching number (when the n//r-tile ceiling is out of
# reach), and (20, 4, 8), at 9-12 s per call too long to repeat.
LOWER_BOUND_SPECS = ((16, 4, 7), (17, 4, 7), (18, 4, 7), (16, 4, 6),
                     (16, 3, 5), (17, 3, 5), (18, 3, 5), (18, 3, 4))
TILE_ELL = 2


def lower_bound_optimum(inner_adj, n_inner: int, r: int, x1: int) -> int:
    """Maximum K_r-tiling of the lower-bound graph with ell = 2.  The inner
    graph is triangle-free, so a tile takes j <= 2 inner vertices (an inner
    edge when j = 2) and r - j vertices of the clique X1."""
    nu = max_matching(inner_adj, (1 << n_inner) - 1)
    best = 0
    for a in range(nu + 1):
        for b in range(n_inner - 2 * a + 1):
            left = x1 - a * (r - 2) - b * (r - 1)
            if left >= 0:
                best = max(best, a + b + left // r)
    return best


def tile_deep(seed: int, workdir: str) -> List[Job]:
    jobs = []
    for n, r, x1 in LOWER_BOUND_SPECS:
        tag = f"{n}-{r}-{x1}"
        m = n - x1
        inner = klfree_process(m, TILE_ELL + 1, stream(seed, "tile-deep", tag),
                               max_edges=m)
        adj = [((1 << n) - 1) & ~(1 << v) for v in range(x1)]
        for v in range(m):
            adj.append(((1 << x1) - 1) | (inner[v] << x1))
        inner_file = write(workdir, f"lb-{tag}-inner.el", edgelist(inner))
        graph_file = f"lb-{tag}.el"
        expected_graph = edgelist(adj)
        optimum = lower_bound_optimum(inner, m, r, x1)
        cfg = config(workdir, f"construct-{tag}.ini", "construct",
                     run_seed(seed, "construct", tag),
                     {"family": "lower-bound", "n": n, "r": r, "ell": TILE_ELL,
                      "clique_size": x1, "inner": inner_file,
                      "graph_out": graph_file})

        def check_construct(out, adj=adj, expected=expected_graph,
                            graph_file=graph_file, x1=x1, r=r):
            rep = load_report(out, "construct")
            res = rep["result"]
            require(res["graph_path"] == graph_file, "graph_out path differs")
            with open(os.path.join(out.workdir, graph_file), encoding="utf-8") as fh:
                require(fh.read() == expected, "built graph differs from X1 + join + inner")
            require(res["min_degree"] == min(a.bit_count() for a in adj),
                    "min_degree is wrong")
            limit = Fraction(x1, r - TILE_ELL)
            require(res["tiling_size_limit"] == f"{limit.numerator}/{limit.denominator}",
                    "tiling_size_limit is wrong")
            require(res["alpha_audit"]["holds"] is True, "alpha audit fails")
            return canonical(rep), {}

        def check_tile(out, adj=adj, r=r, optimum=optimum, n=n):
            rep = load_report(out, "tile")
            res = rep["result"]
            check_clique_family(adj, res["tiles"], r, (1 << n) - 1)
            require(res["count"] == len(res["tiles"]) == optimum,
                    f"tile count {res['count']} != optimum {optimum}")
            require(res["optimal"] is True and rep["flags"]["exhaustive"] is True,
                    "exact tiling not flagged optimal/exhaustive")
            require(res["deficiency"] == n - r * optimum, "deficiency is wrong")
            return canonical(rep), {"count": res["count"]}

        def check_factor(out, adj=adj, r=r, optimum=optimum, n=n):
            rep = load_report(out, "factor")
            res = rep["result"]
            if optimum * r == n:
                require(res["status"] == "found", f"status {res['status']}, a factor exists")
                check_clique_family(adj, res["factor"], r, (1 << n) - 1)
            else:
                require(res["status"] == "none" and res["factor"] is None,
                        f"status {res['status']}, but no factor exists")
            return canonical(rep), {"status": res["status"]}

        jobs.append(Job(f"construct-{tag}", ["construct", "--config", cfg],
                        check_construct))
        tile_cfg = config(workdir, f"tile-{tag}.ini", "tile", 0,
                          {"graph": graph_file, "r": r})
        jobs.append(Job(f"tile-{tag}", ["tile", "--config", tile_cfg], check_tile))
        if n % r == 0:
            factor_cfg = config(workdir, f"factor-{tag}.ini", "factor", 0,
                                {"graph": graph_file, "r": r})
            jobs.append(Job(f"factor-{tag}", ["factor", "--config", factor_cfg],
                            check_factor))
    return jobs


# -- oracle-sweep --------------------------------------------------------------

RTT_N = 6                 # the full n = 7 scan takes about 90 s
XI_EXHAUSTIVE = ((3, 6), (2, 8))           # (r, |A|) at n = 16, xi = 1/4
XI_SAMPLED = ((3, 9), (4, 12))             # (r, |A|) at n in 18..24, xi = 1/3
XI_SAMPLES = 2000
SCAN_XI = ("1/16", "1/8", "3/16", "1/4")


def xi_checked(n: int, a_size: int, r: int, xi: Fraction) -> int:
    """Leftover sets an exhaustive xi check visits when nothing fails."""
    outside = n - a_size
    return sum(math.comb(outside, s) for s in range(int(xi * n) + 1)
               if (a_size + s) % r == 0 and s <= outside)


def check_xi(rep: dict, mode: str, expected_checked: int) -> dict:
    res = rep["result"]
    require(res["task"] == "xi" and res["mode"] == mode, "wrong absorb task or mode")
    # every leftover leaves min degree >= m-2 >= (1-1/r)m: Hajnal-Szemeredi
    require(res["absorbing"] is True and res["witness_r"] is None,
            "absorbing set rejected, but every leftover has a factor")
    require(res["checked"] == expected_checked,
            f"checked {res['checked']} leftovers, expected {expected_checked}")
    return {"absorbing": res["absorbing"], "checked": res["checked"]}


def oracle_sweep(seed: int, workdir: str) -> List[Job]:
    jobs = []
    rng = stream(seed, "oracle-sweep", "rtt")
    rtt_r = rng.choice((2, 3))

    def check_rtt(out):
        # alpha_2 <= 1 forces K_6, which has a K_r-factor for r | 6, so no
        # graph is feasible and all 2^15 labeled graphs are scanned
        rep = load_report(out, "rtt")
        res = rep["result"]
        require(res["exhaustive"] is True, "n <= 7 oracle not exhaustive")
        require(res["feasible"] is False and res["value"] is None,
                "oracle found a graph where none exists")
        require(res["graphs_scanned"] == 2 ** (RTT_N * (RTT_N - 1) // 2),
                f"scanned {res['graphs_scanned']} graphs")
        return canonical(rep), {"value": res["value"], "feasible": res["feasible"]}

    cfg = config(workdir, "rtt.ini", "rtt", 0,
                 {"n": RTT_N, "r": rtt_r, "ell": 2, "alpha_bound": 1})
    jobs.append(Job("rtt", ["rtt", "--config", cfg], check_rtt))

    n = 16
    adj16 = near_complete(n, stream(seed, "oracle-sweep", "xi-graph"))
    g16 = write(workdir, "xi-16.el", edgelist(adj16))
    for r, a_size in XI_EXHAUSTIVE:
        a_set = stream(seed, "oracle-sweep", "xi-a", r).sample(range(n), a_size)
        expected = xi_checked(n, a_size, r, Fraction(1, 4))

        def check(out, expected=expected):
            rep = load_report(out, "absorb")
            return canonical(rep), check_xi(rep, "exhaustive", expected)

        cfg = config(workdir, f"xi-ex-{r}.ini", "absorb", 0,
                     {"task": "xi", "graph": g16, "r": r, "a_set": vertex_list(a_set),
                      "xi": "1/4", "mode": "exhaustive"})
        jobs.append(Job(f"xi-exhaustive-{r}", ["absorb", "--config", cfg], check))

    for r, a_size in XI_SAMPLED:
        rng = stream(seed, "oracle-sweep", "xi-sampled", r)
        ns = rng.randrange(18, 25)
        g = write(workdir, f"xi-s-{r}.el", edgelist(near_complete(ns, rng)))
        a_set = rng.sample(range(ns), a_size)

        def check(out):
            rep = load_report(out, "absorb")
            return canonical(rep), check_xi(rep, "sampled", XI_SAMPLES)

        cfg = config(workdir, f"xi-s-{r}.ini", "absorb", run_seed(seed, "xi", r),
                     {"task": "xi", "graph": g, "r": r, "a_set": vertex_list(a_set),
                      "xi": "1/3", "mode": "sampled", "samples": XI_SAMPLES})
        jobs.append(Job(f"xi-sampled-{r}", ["absorb", "--config", cfg], check))

    budget, limit = 64, 8

    def check_closedness(out):
        rep = load_report(out, "absorb")
        cr = rep["result"]["report"]
        pairs = n * (n - 1) // 2
        require(cr["pairs_evaluated"] == min(pairs, budget)
                and cr["all_pairs"] == (pairs <= budget), "wrong pair count")
        counts = [c for _, _, c in cr["per_pair"]]
        require(len(counts) == cr["pairs_evaluated"], "per-pair list length")
        require(cr["min_count"] == min(counts) and cr["max_count"] == max(counts)
                and cr["max_count"] <= limit, "closedness summary is inconsistent")
        return canonical(rep), {}

    cfg = config(workdir, "closedness.ini", "absorb", run_seed(seed, "closedness"),
                 {"task": "closedness", "graph": g16, "r": 3, "t": 2,
                  "pair_budget": budget, "limit": limit})
    jobs.append(Job("closedness", ["absorb", "--config", cfg], check_closedness))

    rng = stream(seed, "oracle-sweep", "cover")
    cover_adj = gnp(40, 0.5, rng)
    vertex = rng.randrange(40)
    forbidden = rng.sample([v for v in range(40) if v != vertex], 5)
    fmask = sum(1 << v for v in forbidden)
    cover_r = 4

    def check_cover(out):
        rep = load_report(out, "cover")
        cover = rep["result"]["cover"]
        if cover is None:
            require(not has_clique(cover_adj, cover_r - 1, cover_adj[vertex] & ~fmask),
                    "no cover reported, but one exists")
        else:
            require(vertex in cover and len(cover) == cover_r, "cover misses vertex")
            require(is_clique(cover_adj, cover), "cover is not a clique")
            require(not any(v in forbidden for v in cover), "cover uses a forbidden vertex")
        return canonical(rep), {}

    cfg = config(workdir, "cover.ini", "cover", 0,
                 {"graph": write(workdir, "cover.el", edgelist(cover_adj)),
                  "vertex": vertex, "r": cover_r, "forbidden": vertex_list(forbidden)})
    jobs.append(Job("cover", ["cover", "--config", cfg], check_cover))

    scan_r, scan_a = XI_EXHAUSTIVE[0]
    scan_set = stream(seed, "oracle-sweep", "scan-a").sample(range(n), scan_a)
    scan_dir = "scan-out"

    def check_scan(out):
        require(out.code == 0, f"scan exit code {out.code}: {out.stderr.strip()[-300:]}")
        require("Traceback" not in out.stderr, "traceback on stderr")
        require(out.stdout.strip() == os.path.join(scan_dir, "scan.csv"),
                "scan did not print its csv path")
        base = os.path.join(out.workdir, scan_dir)
        points = sorted(f for f in os.listdir(base) if f.startswith("point-"))
        require(len(points) == len(SCAN_XI), f"{len(points)} point reports")
        parts = []
        for i, name in enumerate(points):
            with open(os.path.join(base, name), encoding="utf-8") as fh:
                rep = json.load(fh)
            xi = Fraction(SCAN_XI[i])
            check_xi(rep, "exhaustive", xi_checked(n, scan_a, scan_r, xi))
            parts.append(name + canonical(rep))
        with open(os.path.join(base, "scan.csv"), encoding="utf-8") as fh:
            table = fh.read()
        rows = list(csv.reader(io.StringIO(table)))
        require(len(rows) == 1 + len(SCAN_XI), "scan.csv row count")
        return "".join(parts) + table, {}

    extra = ("\n[scan]\nparam = absorb.xi\nvalues = " + ", ".join(SCAN_XI) + "\n")
    cfg = config(workdir, "scan.ini", "absorb", 0,
                 {"task": "xi", "graph": g16, "r": scan_r,
                  "a_set": vertex_list(scan_set), "mode": "exhaustive"}, extra)
    jobs.append(Job("scan", ["scan", "--config", cfg, "--out", scan_dir,
                             "--threads", "2"], check_scan, clear_dir=scan_dir))
    return jobs


# -- select-embed --------------------------------------------------------------

# Deep calls: exact alpha (ell = 3), side-14 regularity and a q = 4 embed.
# Shallow calls: selection, q = 2 embeds, greedy alpha and the bounds; there
# are more of them than deep ones, so report_s.p50 stays a per-call cost.
ALPHA_GNP_N = (41, 42, 43)          # G(n, 1/2): 0.3-0.9 s each
ALPHA_SPARSE_N = (34, 34)           # saturated K4-free process
ALPHA_ELL = 3
REG_K, REG_M, REG_EXTRA = 2, 14, 2
REG_EPS = Fraction(1, 4)            # 1 / ceil(eps * 14) = 1/4 <= eps
EMBEDS = ((2, 40, 0.9), (2, 60, 0.9), (2, 80, 0.9), (4, 80, 0.8))  # (q, n, density)
EMBED_P = 2
DRC_N = 200
DRC_SPECS = ((2, 2, 10), (2, 3, 8), (3, 2, 5))     # (t, r, m)


def check_alpha(out: Output, adj, exact: bool) -> "tuple[str, dict]":
    rep = load_report(out, "alpha")
    res = rep["result"]
    wit = res["witness"]
    require(len(wit) == res["value"], "witness size != value")
    require(not has_clique(adj, ALPHA_ELL, sum(1 << v for v in wit)),
            f"witness contains a K_{ALPHA_ELL}")
    require(res["exact"] is exact and rep["flags"]["exhaustive"] is exact,
            "exact/exhaustive flags do not match the mode")
    return canonical(rep), {"alpha": res["value"]} if exact else {}


def select_embed(seed: int, workdir: str) -> List[Job]:
    jobs = []
    alpha_inputs = ([("gnp", i, n) for i, n in enumerate(ALPHA_GNP_N)]
                    + [("k4free", i, n) for i, n in enumerate(ALPHA_SPARSE_N)])
    for family, i, n in alpha_inputs:
        rng = stream(seed, "select-embed", family, i)
        adj = gnp(n, 0.5, rng) if family == "gnp" else klfree_process(n, 4, rng)
        tag = f"{family}-{i}"
        cfg = config(workdir, f"alpha-{tag}.ini", "alpha", 0,
                     {"graph": write(workdir, f"alpha-{tag}.el", edgelist(adj)),
                      "ell": ALPHA_ELL, "mode": "exact"})
        jobs.append(Job(f"alpha-{tag}", ["alpha", "--config", cfg],
                        lambda out, adj=adj: check_alpha(out, adj, True)))

    reg_adj = certified_clusters(REG_K, REG_M, REG_EXTRA,
                                 stream(seed, "select-embed", "regularity"))
    clusters = [list(range(i * REG_M, (i + 1) * REG_M)) for i in range(REG_K)]
    exceptional = list(range(REG_K * REG_M, len(reg_adj)))
    partition = "\n".join([f"{REG_K} {REG_M} {len(exceptional)}"]
                          + [" ".join(map(str, c)) for c in clusters]
                          + [" ".join(map(str, exceptional))]) + "\n"

    def check_regcheck(out):
        rep = load_report(out, "regcheck")
        res = rep["result"]
        require(res["mode"] == "exhaustive" and rep["flags"]["exhaustive"] is True,
                "side-14 check not exhaustive")
        pairs = res["pairs"]
        require(len(pairs) == REG_K * (REG_K - 1) // 2, "wrong number of pairs")
        for key, pr in pairs.items():
            require(pr["regular"] is True and pr["violation"] is None,
                    f"pair {key} rejected, but it is regular by construction")
        return canonical(rep), {"regular": {k: v["regular"] for k, v in pairs.items()}}

    cfg = config(workdir, "regcheck.ini", "regcheck", 0,
                 {"graph": write(workdir, "regcheck.el", edgelist(reg_adj)),
                  "partition": write(workdir, "regcheck.part", partition),
                  "epsilon": f"{REG_EPS.numerator}/{REG_EPS.denominator}",
                  "d": "1/2"})
    jobs.append(Job("regcheck", ["regcheck", "--config", cfg], check_regcheck))

    drc_adj = gnp(DRC_N, 0.5, stream(seed, "select-embed", "drc"))
    drc_graph = write(workdir, "drc.el", edgelist(drc_adj))
    half = DRC_N // 2
    witness = (1 << DRC_N) - (1 << half)
    for t, r, m in DRC_SPECS:
        def check_drc(out, r=r, m=m):
            rep = load_report(out, "drc")
            res = rep["result"]
            sel = res["selected"]
            require(res["size"] == len(sel) and all(v < half for v in sel),
                    "selection outside the target class")
            for subset in combinations(sel, r):
                common = witness
                for v in subset:
                    common &= drc_adj[v]
                require(common.bit_count() >= m,
                        f"{subset} has {common.bit_count()} < {m} common witnesses")
            require(res["certified"] is True, "selection not certified")
            return canonical(rep), {}

        cfg = config(workdir, f"drc-{t}{r}.ini", "drc", run_seed(seed, "drc", t, r),
                     {"graph": drc_graph, "target": f"0-{half - 1}",
                      "witness": f"{half}-{DRC_N - 1}", "t": t, "r": r, "m": m})
        jobs.append(Job(f"drc-t{t}-r{r}", ["drc", "--config", cfg], check_drc))

    cfg = config(workdir, "alpha-greedy.ini", "alpha", run_seed(seed, "greedy"),
                 {"graph": drc_graph, "ell": ALPHA_ELL, "mode": "greedy"})
    jobs.append(Job("alpha-greedy", ["alpha", "--config", cfg],
                    lambda out: check_alpha(out, drc_adj, False)))

    for q, n, density in EMBEDS:
        adj = gnp(n, density, stream(seed, "select-embed", "embed", q, n))
        size = n // q
        classes = [set(range(i * size, (i + 1) * size)) for i in range(q)]

        def check_embed(out, adj=adj, classes=classes):
            rep = load_report(out, "embed")
            res = rep["result"]
            require(res["success"] is True, "no embedding found")
            require(res["path"] in ("drc", "fallback"), f"path {res['path']}")
            per = res["per_class"]
            require(len(per) == len(classes), "wrong number of classes")
            for part, cls in zip(per, classes):
                require(len(part) == EMBED_P and set(part) <= cls,
                        f"{part} is not {EMBED_P} vertices of its class")
            union = sorted(v for part in per for v in part)
            require(union == res["vertices"], "vertices != union of classes")
            require(is_clique(adj, union), "embedded vertices are not a clique")
            return canonical(rep), {}

        classes_text = ";".join(f"{i * size}-{(i + 1) * size - 1}" for i in range(q))
        cfg = config(workdir, f"embed-{q}-{n}.ini", "embed",
                     run_seed(seed, "embed", q, n),
                     {"graph": write(workdir, f"embed-{q}-{n}.el", edgelist(adj)),
                      "classes": classes_text, "p": EMBED_P})
        jobs.append(Job(f"embed-q{q}-n{n}", ["embed", "--config", cfg], check_embed))

    rng = stream(seed, "select-embed", "bounds")
    a_size, fkg_n, cond_n = rng.randrange(8, 21), rng.randrange(20, 61), rng.randrange(100, 301)
    cond = {"n": cond_n, "avg_degree": cond_n / 2, "t": 2, "r": 2, "m": 10, "a": 5}

    def check_bounds(out, formula):
        rep = load_report(out, "bounds")
        res = rep["result"]
        if formula == "janson":
            expected = math.comb(a_size, 3) * 0.5 ** 3
            require(math.isclose(res["expected_x"], expected, rel_tol=1e-9),
                    "expected count differs from C(a,3) p^3")
            require(0.0 <= res["upper_bound"] <= 1.0 and res["log_upper_bound"] <= 0.0,
                    "upper bound is not a probability")
        elif formula == "fkg":
            expected = math.comb(fkg_n, 4) * math.log1p(-(0.5 ** 6))
            require(math.isclose(res["log_lower_bound"], expected, rel_tol=1e-9),
                    "log bound differs from C(n,4) log(1 - p^6)")
        else:
            n, d, m = cond["n"], cond["avg_degree"], cond["m"]
            expected = d ** 2 / n - math.comb(n, 2) * (m / n) ** 2 - cond["a"]
            require(math.isclose(res["slack"], expected, rel_tol=1e-9, abs_tol=1e-9)
                    and res["holds"] == (res["slack"] >= 0), "selector slack differs")
        return canonical(rep), {}

    for formula, params in (("janson", {"a_size": a_size, "ell": 3, "p": 0.5}),
                            ("fkg", {"n": fkg_n, "ell": 3, "p": 0.5}),
                            ("drc-condition", cond)):
        cfg = config(workdir, f"bounds-{formula}.ini", "bounds", 0,
                     {"formula": formula, **params})
        jobs.append(Job(f"bounds-{formula}", ["bounds", "--config", cfg],
                        lambda out, f=formula: check_bounds(out, f)))
    return jobs


BUILDERS = {"tile-deep": tile_deep, "oracle-sweep": oracle_sweep,
            "select-embed": select_embed}
