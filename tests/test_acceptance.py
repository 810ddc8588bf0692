"""Acceptance battery: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest tests/test_acceptance.py
-v -s`` to see them inline).  Budgeted criteria also assert their runtime.
"""

import math
import time
from fractions import Fraction
from itertools import combinations

import numpy as np

from cfl import absorption, bounds, constructions, embedding, invariants
from cfl import regularity, tiling
from cfl.graphs import (Graph, VertexSet, complete_multipartite, cycle_graph,
                        empty_graph, random_gnp,
                        random_graph_with_min_degree)
from cfl.invariants import _graph_from_pair_mask, alpha_ell_exact, rtt_oracle
from cfl.numbers import round_half_up
from cfl.rng import SplitMix64, derive_seed

from conftest import (covered, naive_alpha, naive_has_factor,
                      naive_max_tiling_count)
from support import bulk_random, make_super_regular, strip_cliques
from test_bounds import brute_delta
from test_regularity import definitional_regular


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {detail}")
    assert ok, f"criterion {num}: {detail}"


# -- 1: alpha oracle equivalence ------------------------------------------------

def test_criterion_01_alpha_oracle_equivalence():
    t0 = time.monotonic()
    rng = SplitMix64(derive_seed(1, "acceptance-alpha"))
    mismatches = 0
    for i in range(200):
        n = 4 + rng.randrange(11)            # 4..14
        p = (2 + rng.randrange(7)) / 10      # 0.2..0.8
        g = random_gnp(n, p, rng.next_u64())
        for ell in (2, 3, 4):
            if alpha_ell_exact(g, ell).value != naive_alpha(g, ell):
                mismatches += 1
    elapsed = time.monotonic() - t0
    ok = mismatches == 0 and elapsed < 60.0
    report(1, ok, f"alpha solver vs full-subset oracle: 200 graphs x 3 ell, "
                  f"{mismatches} mismatches, {elapsed:.1f}s (< 60s)")


# -- 2: tiling oracle equivalence --------------------------------------------------

def test_criterion_02_tiling_oracle_equivalence():
    t0 = time.monotonic()
    rng = SplitMix64(derive_seed(1, "acceptance-tiling"))
    mismatches = 0
    for i in range(200):
        n = 4 + rng.randrange(9)             # 4..12
        p = (2 + rng.randrange(7)) / 10
        g = random_gnp(n, p, rng.next_u64())
        for r in (3, 4):
            res = tiling.max_tiling(g, r)
            if not res.optimal or len(res.best) != naive_max_tiling_count(g, r):
                mismatches += 1
            if not tiling.verify_tiling(g, res.best):
                mismatches += 1
    elapsed = time.monotonic() - t0
    ok = mismatches == 0 and elapsed < 120.0
    report(2, ok, f"tiling solver vs exhaustive packing: 200 graphs x r in "
                  f"{{3,4}}, {mismatches} mismatches, {elapsed:.1f}s (< 120s)")


# -- 3: high-min-degree factors ----------------------------------------------------

def test_criterion_03_min_degree_two_thirds_forces_factor():
    rng = SplitMix64(derive_seed(1, "acceptance-hs"))
    failures = 0
    for i in range(100):
        n = 12 if i % 2 == 0 else 24
        target = (2 * n) // 3
        g = random_graph_with_min_degree(n, target, rng.next_u64(), p=0.6)
        if g.min_degree() < target:
            failures += 1
            continue
        res = tiling.has_factor(g, 3)
        if res.status != "found" or not tiling.verify_tiling(g, res.tiling):
            failures += 1
    report(3, failures == 0,
           f"min degree >= (1-1/3)n forces a triangle factor: 100 graphs "
           f"(n in {{12,24}}), {failures} failures")


# -- 4: lower-bound construction ceiling ---------------------------------------------

def test_criterion_04_lower_bound_tiling_ceiling():
    build = constructions.build_lower_bound_graph(7, 3, 2, Fraction(2, 7),
                                                  cycle_graph(5))
    res = tiling.max_tiling(build.graph, 3)
    desk_ok = res.optimal and (7 - res.deficiency) <= 6

    rng = SplitMix64(derive_seed(1, "acceptance-lower"))
    violations = 0
    built = 0
    while built < 50:
        r = 3 + rng.randrange(3)             # 3..5
        ell = 2 + rng.randrange(r - 2)       # 2..r-1
        n = 8 + rng.randrange(13)            # 8..20
        max_x1 = (n * (r - ell)) // r
        if max_x1 < 2:
            continue
        x1 = 1 + rng.randrange(max_x1 - 1)
        inner = strip_cliques(
            random_gnp(n - x1, 0.45, rng.next_u64()), ell + 1, seed=built)
        b = constructions.build_lower_bound_graph(n, r, ell, Fraction(x1, n),
                                                  inner)
        built += 1
        t = tiling.max_tiling(b.graph, r)
        covered = n - t.deficiency
        if not t.optimal or Fraction(covered) > Fraction(r * x1, r - ell):
            violations += 1
    ok = desk_ok and violations == 0
    report(4, ok, f"every tiling respects covered <= r|X1|/(r-ell): desk "
                  f"instance covers {7 - res.deficiency}/7 (<= 6), 50 seeded "
                  f"specs, {violations} violations")


# -- 5: cover-threshold construction ---------------------------------------------------

def test_criterion_05_cover_threshold_hub_never_covered():
    rng = SplitMix64(derive_seed(1, "acceptance-cover"))
    violations = 0
    built = 0
    while built < 20:
        r = 4 + rng.randrange(2)             # 4 or 5
        n = 12 + rng.randrange(9)            # 12..20
        x = Fraction(35 + rng.randrange(26), 100)   # 0.35..0.60
        size = round_half_up(x * n)
        if size < 1 or n - size - 1 < 1:
            continue
        inner = strip_cliques(
            random_gnp(size, 0.5, rng.next_u64()), r - 1, seed=built)
        b = constructions.build_cover_threshold_graph(n, r, x, inner)
        built += 1
        if invariants.has_clique_cover(b.graph, b.hub, r) is not None:
            violations += 1
    report(5, violations == 0,
           f"no clique of order r covers the hub: 20 seeded specs "
           f"(r in {{4,5}}), {violations} violations")


# -- 6: directional Monte Carlo for the probability bounds -----------------------------

def _sample_edge_masks(n_samples: int, npairs: int, p: float, seed: int):
    draws = bulk_random(seed, n_samples * npairs).reshape(n_samples, npairs)
    hit = draws < p
    powers = (1 << np.arange(npairs, dtype=np.uint64))
    return (hit.astype(np.uint64) * powers).sum(axis=1)


def test_criterion_06_fkg_janson_monte_carlo():
    n, ell = 8, 3
    samples = 100_000
    npairs = n * (n - 1) // 2
    pair_index = {}
    k = 0
    for u in range(n):
        for v in range(u + 1, n):
            pair_index[(u, v)] = k
            k += 1

    def subset_edge_mask(vs):
        m = 0
        for i in range(len(vs)):
            for j in range(i + 1, len(vs)):
                m |= 1 << pair_index[(vs[i], vs[j])]
        return m

    k4_masks = np.array([subset_edge_mask(c)
                         for c in combinations(range(n), 4)], dtype=np.uint64)
    failures = []
    for p in (0.2, 0.3, 0.5):
        masks = _sample_edge_masks(samples, npairs,
                                   p, derive_seed(1, "acceptance-mc", p))
        k4free = np.ones(samples, dtype=bool)
        for m in k4_masks:
            k4free &= (masks & m) != m
        emp_free = k4free.mean()
        fkg = math.exp(bounds.fkg_lower_bound(n, ell, p))
        se_free = math.sqrt(max(emp_free * (1 - emp_free), 1e-12) / samples)
        if emp_free < fkg - 4 * se_free:
            failures.append(f"fkg p={p}")

        tri_masks = np.array([subset_edge_mask(c)
                              for c in combinations(range(6), 3)],
                             dtype=np.uint64)
        trifree = np.ones(samples, dtype=bool)
        for m in tri_masks:
            trifree &= (masks & m) != m
        emp_tri = trifree.mean()
        jb = bounds.janson_bound(6, 3, p).upper_bound
        se_tri = math.sqrt(max(emp_tri * (1 - emp_tri), 1e-12) / samples)
        if emp_tri > jb + 4 * se_tri:
            failures.append(f"janson p={p}")

    delta_ok = all(
        bounds.janson_delta_exact(a, ell_, Fraction(pp)) ==
        brute_delta(a, ell_, Fraction(pp))
        for a in range(3, 10) for ell_ in (2, 3, 4) if a >= ell_
        for pp in (0.2, 0.3, 0.5))
    if not delta_ok:
        failures.append("delta brute force")
    report(6, not failures,
           f"product lower bound / exponential upper bound vs 1e5-sample "
           f"Monte Carlo at p in {{0.2,0.3,0.5}} and exact-Delta cross-check: "
           f"{'; '.join(failures) if failures else 'all within 4 SE'}")


# -- 7: selector certification -----------------------------------------------------------

def test_criterion_07_drc_certified_selection():
    slack = bounds.drc_condition(100, 50, 2, 2, 5, 12)
    assert slack > 0
    hits = 0
    scan_failures = 0
    for trial in range(100):
        g = random_gnp(200, 0.5, derive_seed(1, "acceptance-drc", trial))
        x = VertexSet.of(g, range(100))
        y = VertexSet.of(g, range(100, 200))
        out = embedding.drc_select(g, x, y, t=2, r=2, m=5,
                                   seed=derive_seed(2, "drc-run", trial),
                                   max_trials=1)
        # independent exhaustive pair scan of the certificate
        vs = out.selected.vertices()
        for i in range(len(vs)):
            for j in range(i + 1, len(vs)):
                common = (g.adj[vs[i]] & g.adj[vs[j]] & y.mask).bit_count()
                if common < 5:
                    scan_failures += 1
        if len(out.selected) >= 12:
            hits += 1
    ok = hits >= 95 and scan_failures == 0
    report(7, ok, f"selector on the positive-slack instance (slack="
                  f"{slack:.3f}): {hits}/100 trials reached size 12 "
                  f"(need >= 95), {scan_failures} pair-scan violations")


# -- 8: embedder on dense regular-ish tuples ------------------------------------------------

def test_criterion_08_embedding_two_classes():
    successes = 0
    verify_failures = 0
    fallback_failures = 0
    for trial in range(20):
        g = random_gnp(80, 0.9, derive_seed(1, "acceptance-embed", trial))
        cls = [VertexSet.of(g, range(40)), VertexSet.of(g, range(40, 80))]
        ab = max(alpha_ell_exact(g, 2, within=c).value for c in cls)
        res = embedding.embed_clique_in_tuple(g, cls, p=2, alpha_bound=ab,
                                              seed=derive_seed(2, "em", trial))
        if res.success:
            union = res.vertices.mask
            if not (g.is_clique(union)
                    and all(len(a) == 2 and not a.mask & ~c.mask
                            for a, c in zip(res.per_class, cls))):
                verify_failures += 1
            else:
                successes += 1
        if embedding.multipartite_clique_search(g, cls, 2) is None:
            fallback_failures += 1
    ok = successes >= 18 and verify_failures == 0 and fallback_failures == 0
    report(8, ok, f"two 40-vertex classes at density 0.9: {successes}/20 "
                  f"embeddings (need >= 18), {verify_failures} bad "
                  f"certificates, {fallback_failures} instances where brute "
                  f"force finds nothing")


# -- 9: regularity checker ground truth -------------------------------------------------------

def test_criterion_09_regularity_ground_truth():
    rng = SplitMix64(derive_seed(1, "acceptance-reg"))
    disagreements = 0
    for i in range(100):
        a = 4 + rng.randrange(5)             # 4..8
        b = 4 + rng.randrange(5)
        g = random_gnp(a + b, (1 + rng.randrange(9)) / 10, rng.next_u64())
        x = VertexSet.of(g, range(a))
        y = VertexSet.of(g, range(a, a + b))
        for eps in (Fraction(1, 10), Fraction(3, 10), Fraction(1, 2)):
            got = regularity.is_regular_pair(g, x, y, eps)
            want = definitional_regular(g, x, y, eps)
            if got.regular != want:
                disagreements += 1

    extreme_ok = True
    kb = complete_multipartite([8, 8])
    e16 = empty_graph(16)
    for eps in (Fraction(1, 10), Fraction(3, 10)):
        for g2 in (kb, e16):
            x2 = VertexSet.of(g2, range(8))
            y2 = VertexSet.of(g2, range(8, 16))
            if not regularity.is_regular_pair(g2, x2, y2, eps).regular:
                extreme_ok = False

    # planted instance: trimming restores per-vertex floors, re-certified
    size, kcl = 10, 3
    weak = {0, size, 2 * size}
    edges = []
    for i in range(kcl):
        for j in range(i + 1, kcl):
            for u in range(i * size, (i + 1) * size):
                for v in range(j * size, (j + 1) * size):
                    if u not in weak and v not in weak:
                        edges.append((u, v))
    gp = Graph(size * kcl, edges)
    clusters = [VertexSet.of(gp, range(i * size, (i + 1) * size))
                for i in range(kcl)]
    out = make_super_regular(gp, clusters, Fraction(1, 10))
    planted_ok = out.all_ok and all(
        sorted(out.removed[i].vertices()) == [i * size] for i in range(kcl))

    ok = disagreements == 0 and extreme_ok and planted_ok
    report(9, ok, f"exhaustive checker vs definitional enumeration on 100 "
                  f"seeded pairs (|X|,|Y| <= 8): {disagreements} "
                  f"disagreements; extreme pairs regular: {extreme_ok}; "
                  f"planted trim re-certifies: {planted_ok}")


# -- 10: critical chromatic number family ---------------------------------------------------------

def test_criterion_10_chi_cr_family_and_degree_thresholds():
    bad = []
    for ell in range(2, 12):
        for x in range(1, 12):
            for y in range(1, ell + 1):
                r = x * ell + y
                if r > 12:
                    continue
                parts = [y] + [ell] * x
                if bounds.chi_cr(parts) != Fraction(r, ell):
                    bad.append((ell, x, y))
    thr_ok = all(
        bounds.degree_thresholds(10, ell + 1, ell, 0).threshold == Fraction(1, 2)
        for ell in range(2, 10))
    ok = not bad and thr_ok
    report(10, ok, f"chi_cr of one light part plus ell-blocks equals r/ell "
                   f"for all r <= 12 ({'ok' if not bad else bad}); "
                   f"r = ell+1 threshold is 1/2: {thr_ok}")


# -- 11: absorption certificates ---------------------------------------------------------------------

def test_criterion_11_absorption_certificates():
    r = 3
    gad = absorption.build_reachable_gadget(r)
    g = gad.graph
    size_ok = len(gad.reach_set) == 11
    cert = absorption.certify_reachable(g, gad.u, gad.v, gad.reach_set, r)
    named = tiling.CliqueTiling(r, [
        VertexSet.of(g, [gad.u] + list(gad.parts["tail_u"])),
        VertexSet.of(g, [x for x in gad.parts["clique_left"] if x != 3 * r]),
        VertexSet.of(g, [x for x in gad.parts["clique_right"] if x != 4 * r]),
        VertexSet.of(g, [4 * r] + list(gad.parts["tail_v"])),
    ])
    gadget_ok = (size_ok and cert is not None
                 and tiling.verify_tiling(g, named)
                 and covered(named) == gad.reach_set.mask | (1 << gad.u))

    rng = SplitMix64(derive_seed(1, "acceptance-absorb"))
    disagreements = 0
    for i in range(10):
        n = 9 + 3 * (i % 2)                 # 9 or 12
        gp = random_gnp(n, 0.45 + 0.05 * (i % 4), rng.next_u64())
        a = VertexSet.of(gp, range(6))
        xi = Fraction(1, 4)
        ex = absorption.certify_xi_absorbing(gp, a, 3, xi)
        sa = absorption._xi_sampled(gp, a, 3, xi, samples=600, seed=i)
        if ex.absorbing != sa.absorbing:
            disagreements += 1
        if not sa.absorbing:
            rm = sa.witness_r.mask | a.mask
            if tiling.has_factor(gp, 3,
                                 within=VertexSet(gp, rm)).tiling is not None:
                disagreements += 1
    ok = gadget_ok and disagreements == 0
    report(11, ok, f"explicit reachable gadget (|E| = 11) certifies with the "
                   f"four named cliques: {gadget_ok}; exhaustive vs sampled "
                   f"absorbing verdicts on 10 planted n <= 12 instances: "
                   f"{disagreements} disagreements")


# -- 12: tiny-n oracle exhaustiveness -------------------------------------------------------------------

def test_criterion_12_rtt_oracle_matches_naive_enumeration():
    t0 = time.monotonic()
    mismatches = []
    for n in (3, 4, 5, 6):
        npairs = n * (n - 1) // 2
        table = []
        for mask in range(1 << npairs):
            gg = _graph_from_pair_mask(n, mask)
            table.append((gg.min_degree(), naive_alpha(gg, 2),
                          naive_has_factor(gg, 3)))
        for bound in (1, 2, n):
            feasible = [d for (d, alpha, fact) in table
                        if alpha <= bound and not fact]
            want = max(feasible) if feasible else None
            got = rtt_oracle(n, 3, 2, bound)
            if got.value != want or not got.exhaustive:
                mismatches.append((n, bound, got.value, want))
    elapsed = time.monotonic() - t0
    ok = not mismatches and elapsed < 600.0
    report(12, ok, f"oracle vs prune-free enumeration for n <= 6, r=3, "
                   f"ell=2, bounds {{1,2,n}}: "
                   f"{mismatches if mismatches else 'exact match'}, "
                   f"{elapsed:.1f}s (< 600s)")
