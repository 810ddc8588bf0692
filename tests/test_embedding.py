"""Dependent random choice selectors and the cascade embedder."""

import tracemalloc
from itertools import combinations, product

import pytest

from cfl import embedding
from cfl.bounds import drc_condition
from cfl.graphs import (Graph, VertexSet, complete_multipartite, empty_graph,
                        iter_bits, iter_clique_masks, random_gnp)
from cfl.embedding import (SearchCapExceeded, drc_select,
                           embed_clique_in_tuple, multipartite_clique_search)
from cfl.invariants import alpha_ell_exact
from cfl.reports import jsonable
from cfl.rng import SplitMix64, derive_seed


def exhaustive_pair_floor(g, selected, witness, r, m):
    """Independent check: every r-subset of the selected set has >= m
    common neighbors inside the witness class."""
    vs = sorted(selected.vertices())
    wset = set(witness.vertices())
    for sub in combinations(vs, r):
        common = set(range(g.n))
        for v in sub:
            common &= {u for u in range(g.n) if g.adj[u] >> v & 1}
        if len(common & wset) < m:
            return False
    return True


def halves(g, a):
    return (VertexSet.of(g, range(a)), VertexSet.of(g, range(a, 2 * a)))


def first_violating_subset(g, umask, witness_mask, r, m):
    """Brute force: the lexicographically first r-subset of ``umask`` with
    fewer than m common neighbours in ``witness_mask``, as a mask."""
    for sub in combinations(iter_bits(umask), r):
        common = witness_mask
        for v in sub:
            common &= g.adj[v]
        if common.bit_count() < m:
            return sum(1 << v for v in sub)
    return None


def test_certify_scan_finds_the_first_violating_subset():
    rng = SplitMix64(0xCE27)
    outcomes = {True: 0, False: 0}
    for _ in range(400):
        n = 4 + rng.randrange(9)
        g = random_gnp(n, 0.3 + 0.6 * rng.random(), rng.next_u64())
        umask = rng.randrange(1 << n)
        witness_mask = rng.randrange(1 << n) & ~umask
        r, m = 2 + rng.randrange(3), 1 + rng.randrange(3)
        want = first_violating_subset(g, umask, witness_mask, r, m)
        assert embedding._certify_scan(g, umask, witness_mask, r, m) == want
        outcomes[want is None] += 1
    assert min(outcomes.values()) >= 50


def test_drc_complete_bipartite_keeps_everything():
    kb = complete_multipartite([20, 20])
    x, y = halves(kb, 20)
    out = drc_select(kb, x, y, t=1, r=2, m=20, seed=0)
    assert out.selected.mask == x.mask
    assert out.certified
    assert exhaustive_pair_floor(kb, out.selected, y, 2, 20)


def test_drc_empty_graph_selects_nothing():
    g = empty_graph(12)
    out = drc_select(g, VertexSet.of(g, range(6)), VertexSet.of(g, range(6, 12)),
                     t=1, r=2, m=1, seed=0)
    assert len(out.selected) == 0 and out.certified


def test_drc_positive_slack_instance():
    slack = drc_condition(100, 50, 2, 2, 5, 12)
    assert slack > 0
    g = random_gnp(200, 0.5, seed=314159)
    x = VertexSet.of(g, range(100))
    y = VertexSet.of(g, range(100, 200))
    out = drc_select(g, x, y, t=2, r=2, m=5, seed=4, max_trials=1)
    assert len(out.selected) >= 12
    assert exhaustive_pair_floor(g, out.selected, y, 2, 5)


def test_drc_deterministic_per_seed():
    g = random_gnp(60, 0.4, seed=8)
    x = VertexSet.of(g, range(30))
    y = VertexSet.of(g, range(30, 60))
    a = drc_select(g, x, y, t=2, r=2, m=3, seed=13)
    b = drc_select(g, x, y, t=2, r=2, m=3, seed=13)
    assert a.selected == b.selected and a.trials == b.trials
    c = drc_select(g, x, y, t=2, r=2, m=3, seed=14)
    assert c.certified  # may differ from a, but stays certified
    assert exhaustive_pair_floor(g, c.selected, y, 2, 3)


def test_drc_deletion_loop_reaches_certified_state():
    # sparse cross edges force deletions
    g = random_gnp(40, 0.25, seed=21)
    x = VertexSet.of(g, range(20))
    y = VertexSet.of(g, range(20, 40))
    out = drc_select(g, x, y, t=1, r=2, m=4, seed=2)
    assert out.certified
    assert exhaustive_pair_floor(g, out.selected, y, 2, 4)


def test_drc_input_validation():
    g = empty_graph(4)
    a, b = VertexSet.of(g, [0, 1]), VertexSet.of(g, [1, 2])
    with pytest.raises(ValueError):
        drc_select(g, a, b, 1, 2, 1)     # overlap
    with pytest.raises(ValueError):
        drc_select(g, VertexSet.of(g, [0]), VertexSet.of(g, [1]), 1, 1, 1)


# -- the cascade against a materialising reference ----------------------------

def hyper_classes(g, sizes):
    out = []
    start = 0
    for s in sizes:
        out.append(VertexSet.of(g, range(start, start + s)))
        start += s
    return out


def transversal_cliques(g, classes):
    """Every class-transversal clique of g, lexicographic by tuple."""
    out = [()]
    for c in classes:
        out = [t + (v,) for t in out for v in c.vertices()
               if all(g.adj[u] >> v & 1 for u in t)]
    return out


def reference_attempt(seen):
    """A cascade pass that builds every level as its edge list: level 0 is
    the capped list of transversal cliques, and a step keeps the tails that
    every sampled head extends by explicit link intersection.  It takes the
    place of ``embedding._drc_attempt`` and ignores the level-0 summary that
    the real pass gets; ``seen`` collects which cut cases it met."""

    def attempt(g, classes, _level0, p, m, seed, note, *, s):
        q = len(classes)
        full = transversal_cliques(g, classes)
        level = full[:embedding.HYPERGRAPH_CAP]
        note["h0_edges"] = len(level)
        note["h0_truncated"] = len(full) > len(level)
        if not level:
            note["stage"] = "no cross K_2" if q == 2 else "no transversal cliques"
            return None
        # step 1 samples the heads before the first head with a cut edge,
        # and that head too when the cap keeps some of its edges
        heads = classes[0].vertices()
        partial = None
        if len(full) > len(level):
            stop = full[len(level)][0]
            partial = stop if level[-1][0] == stop else None
            heads = [w for w in heads if w < stop or w == partial]
            seen.add("cut")
            if partial is None and level[-1][0] < heads[-1]:
                seen.add("cut at a head boundary before tail-less heads")
        else:
            seen.add("no cut")
        levels = [level]
        for step in range(1, q - 1):
            first = heads if step == 1 else classes[step - 1].vertices()
            rng = SplitMix64(derive_seed(derive_seed(seed, "step", step),
                                         "hdrc-sample"))
            kept = None
            for _ in range(s):
                w = first[rng.randrange(len(first))]
                if step == 1 and partial is not None:
                    seen.add(f"partial head sampled: {w == partial}")
                link = {e[1:] for e in levels[-1] if e[0] == w}
                kept = link if kept is None else kept & link
            levels.append(sorted(kept))
            note[f"h{step}_edges"] = len(kept)
            if not kept:
                note["stage"] = f"link intersection empty at step {step}"
                return None
        edge_sets = [set(level) for level in levels]
        target, witness = classes[q - 2], classes[q - 1]
        drc = drc_select(Graph(g.n, levels[-1]), target, witness, t=s,
                         r=max(2, p), m=m, seed=derive_seed(seed, "select"),
                         max_trials=1)
        note["selected"] = len(drc.selected)
        if len(drc.selected) < p:
            note["stage"] = "selected set smaller than p"
            return None
        a_target = next(iter_clique_masks(g, p, drc.selected.mask), None)
        if a_target is None:
            note["stage"] = "no p-clique in selected set"
            return None
        a_target = VertexSet(g, a_target).vertices()
        pool = [v for v in witness.vertices()
                if all((u, v) in edge_sets[-1] for u in a_target)]
        note["back_pool"] = len(pool)
        a_witness = next(iter_clique_masks(g, p, VertexSet.of(g, pool).mask),
                         None)
        if a_witness is None:
            note["stage"] = "no p-clique in common neighborhood"
            return None
        chosen = [a_target, VertexSet(g, a_witness).vertices()]
        for i in range(q - 3, -1, -1):
            extenders = [v for v in classes[i].vertices()
                         if all((v,) + t in edge_sets[i]
                                for t in product(*chosen))]
            note[f"extenders_{i}"] = len(extenders)
            a_i = next(iter_clique_masks(
                g, p, VertexSet.of(g, extenders).mask), None)
            if a_i is None:
                note["stage"] = f"no p-clique among extenders of class {i}"
                return None
            chosen.insert(0, VertexSet(g, a_i).vertices())
        note["stage"] = "assembled"
        return [VertexSet.of(g, c) for c in chosen]

    return attempt


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_the_cascade_matches_a_materialising_reference(monkeypatch, q):
    seen = set()
    instances = drc_paths = 0
    for graph_seed in range(10):
        size = 4 + graph_seed % 3
        g = random_gnp(size * q, (0.55, 0.7, 0.85, 0.95)[graph_seed % 4],
                       seed=100 * q + graph_seed)
        cls = hyper_classes(g, [size] * q)
        full = transversal_cliques(g, cls)
        # cuts at the first six head boundaries and inside the heads
        # between them, the whole level, and no cut
        ends = [0] + [i + 1 for i in range(len(full) - 1)
                      if full[i][0] != full[i + 1][0]][:6]
        caps = sorted({1, *ends[1:], *((a + b) // 2 for a, b
                                       in zip(ends, ends[1:])),
                       len(full), len(full) + 1} - {0})
        for cap in caps:
            monkeypatch.setattr(embedding, "HYPERGRAPH_CAP", cap)
            for p, embed_seed in product((1, 2), range(2)):
                args = (g, cls, p, graph_seed % 3, embed_seed)
                kwargs = {"s": 1 + (graph_seed + embed_seed) % 3, "trials": 3}
                got = jsonable(embed_clique_in_tuple(*args, **kwargs))
                with monkeypatch.context() as m:
                    m.setattr(embedding, "_drc_attempt", reference_attempt(seen))
                    want = jsonable(embed_clique_in_tuple(*args, **kwargs))
                assert got == want, (graph_seed, cap, p, embed_seed)
                instances += 1
                drc_paths += got["path"] == "drc"
    assert instances >= 250 and drc_paths
    assert {"no cut", "cut"} <= seen
    if q > 2:
        assert {"partial head sampled: True", "partial head sampled: False",
                "cut at a head boundary before tail-less heads"} <= seen


def test_level0_bound_is_the_last_kept_edge():
    for q in (2, 3, 4):
        g = random_gnp(5 * q, 0.7, seed=q)
        cls = hyper_classes(g, [5] * q)
        full = transversal_cliques(g, cls)
        for k in range(1, len(full) + 1):
            assert embedding._nth_transversal_clique(g, cls, -1, k) == full[k - 1]
            assert embedding._count_transversal_cliques(
                g, cls, -1, bound=full[k - 1]) == k
            heads, edges, truncated, bound = embedding._level0(g, cls, k)
            assert (edges, truncated) == (k, k < len(full))
            assert bound == (full[k - 1] if k < len(full) else None)
        heads, edges, truncated, bound = embedding._level0(g, cls, len(full))
        assert heads == list(cls[0].vertices())


def test_truncated_level0_samples_only_the_counted_heads(monkeypatch):
    # K_{6,6,6}: every head extends all 36 tails, so a cap of 40 keeps head
    # 0 whole and 4 tails of head 1; a step-1 sample of any later head
    # would empty the link intersection
    monkeypatch.setattr(embedding, "HYPERGRAPH_CAP", 40)
    g = complete_multipartite([6, 6, 6])
    cls = hyper_classes(g, [6, 6, 6])
    assert embedding._level0(g, cls, embedding.HYPERGRAPH_CAP) == (
        [0, 1], 40, True, (1, 6, 15))
    for seed in range(10):
        res = embed_clique_in_tuple(g, cls, p=1, alpha_bound=0, seed=seed)
        assert (res.success, res.path) == (True, "drc")
        for note in res.telemetry:
            assert note["h0_edges"] == 40
            assert note["h1_edges"] in (4, 36)


def test_embed_never_holds_level0_in_memory():
    # 42,725 transversal 4-cliques: a materialised level 0 and its indexes
    # peaked near 12 MB
    g = random_gnp(80, 0.8, 7)
    cls = hyper_classes(g, [20] * 4)
    tracemalloc.start()
    try:
        res = embed_clique_in_tuple(g, cls, p=2, alpha_bound=3, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.telemetry[0]["h0_edges"] == 42_725
    assert peak < 3 * 2**20


def test_a_five_class_embed_holds_no_level_in_memory():
    # level 0 is cut at 500,000 transversal 5-cliques; a materialised level
    # 1 (15,177 tails of four vertices) and its indexes peaked near 49 MB
    g = random_gnp(100, 0.85, 7)
    cls = hyper_classes(g, [20] * 5)
    tracemalloc.start()
    try:
        res = embed_clique_in_tuple(g, cls, p=2, alpha_bound=3, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    note = res.telemetry[0]
    assert (note["h0_edges"], note["h0_truncated"]) == (500_000, True)
    assert note["h1_edges"] == 15_177
    assert peak < 2**20


def test_zero_trials_skip_the_level0_count(monkeypatch):
    def refuse(*args):
        raise AssertionError("level 0 was counted")

    monkeypatch.setattr(embedding, "_count_transversal_cliques", refuse)
    g = complete_multipartite([3, 3, 3])
    res = embed_clique_in_tuple(g, hyper_classes(g, [3, 3, 3]), p=1,
                                alpha_bound=0, trials=0)
    assert res.success and res.path == "fallback" and res.telemetry == []


def test_a_cascade_answer_that_fails_the_final_check_falls_back(monkeypatch):
    # each trial's answer is no clique: the trial records the stage
    # "verification", and the fallback search supplies the clique if any
    def not_a_clique(g, classes, level0, p, m, seed, note, *, s):
        note["stage"] = "assembled"
        return [VertexSet(g, 1 << 1), VertexSet(g, 1 << 3)]

    monkeypatch.setattr(embedding, "_drc_attempt", not_a_clique)
    for edges, found in [([(0, 2)], [0, 2]), ([], None)]:
        g = Graph(4, edges)
        classes = [VertexSet.of(g, [0, 1]), VertexSet.of(g, [2, 3])]
        res = embed_clique_in_tuple(g, classes, p=1, alpha_bound=0, trials=2)
        assert [note["stage"] for note in res.telemetry] == ["verification"] * 2
        assert res.trials_used == 2
        if found is None:
            assert not res.success and res.path == "none"
            assert res.stage == "verification"
        else:
            assert res.success and res.path == "fallback"
            assert res.vertices == VertexSet.of(g, found)


# -- embedder -----------------------------------------------------------------------

def test_embed_complete_multipartite_any_p():
    g = complete_multipartite([5, 5, 5])
    cls = hyper_classes(g, [5, 5, 5])
    res = embed_clique_in_tuple(g, cls, p=1, alpha_bound=0, seed=0)
    assert res.success
    # p = 1 per class: a transversal triangle
    assert len(res.vertices) == 3


def test_embed_two_dense_classes():
    g = random_gnp(80, 0.9, seed=1001)
    cls = [VertexSet.of(g, range(40)), VertexSet.of(g, range(40, 80))]
    ab = max(alpha_ell_exact(g, 2, within=c).value for c in cls)
    res = embed_clique_in_tuple(g, cls, p=2, alpha_bound=ab, seed=3)
    assert res.success
    assert g.is_clique(res.vertices.mask)
    for i, part in enumerate(res.per_class):
        assert len(part) == 2 and not part.mask & ~cls[i].mask
    # brute-force fallback agrees that an embedding exists
    assert multipartite_clique_search(g, cls, 2) is not None


def test_embed_failure_stage_no_cross_edges():
    g = Graph(8, [(0, 1), (2, 3), (4, 5), (6, 7)])
    cls = [VertexSet.of(g, range(4)), VertexSet.of(g, range(4, 8))]
    res = embed_clique_in_tuple(g, cls, p=1, alpha_bound=3, seed=0)
    assert not res.success
    assert res.stage == "no cross K_2"
    assert res.path == "none"


def test_embed_fallback_cap_is_recorded():
    g = Graph(8, [(0, 1), (2, 3), (4, 5), (6, 7)])
    cls = [VertexSet.of(g, range(4)), VertexSet.of(g, range(4, 8))]
    with pytest.raises(SearchCapExceeded):
        multipartite_clique_search(g, cls, 1, node_cap=2)
    assert multipartite_clique_search(g, cls, 1) is None
    res = embed_clique_in_tuple(g, cls, p=1, alpha_bound=3, seed=0,
                                fallback_node_cap=2)
    assert not res.success and res.path == "none"
    assert res.telemetry[-1] == {"fallback": "cap"}


def test_embed_three_classes_drc_path_agrees_with_fallback():
    g = random_gnp(45, 0.93, seed=77)
    cls = hyper_classes(g, [15, 15, 15])
    ab = max(alpha_ell_exact(g, 2, within=c).value for c in cls)
    res = embed_clique_in_tuple(g, cls, p=2, alpha_bound=ab, seed=5)
    assert res.success
    assert g.is_clique(res.vertices.mask)
    assert multipartite_clique_search(g, cls, 2) is not None


def test_embed_fallback_on_tiny_structured_instance():
    # cross edges exist but are too sparse for the selector; the
    # brute-force fallback still finds the embedding
    edges = [(0, 2), (0, 3), (1, 2), (1, 3), (0, 1), (2, 3)]
    g = Graph(4, edges)
    cls = [VertexSet.of(g, [0, 1]), VertexSet.of(g, [2, 3])]
    res = embed_clique_in_tuple(g, cls, p=2, alpha_bound=1, seed=0,
                                trials=2)
    assert res.success and res.path in ("drc", "fallback")
    assert res.vertices.mask == 0b1111


def test_embed_deterministic_per_seed():
    g = random_gnp(60, 0.85, seed=31)
    cls = [VertexSet.of(g, range(30)), VertexSet.of(g, range(30, 60))]
    a = embed_clique_in_tuple(g, cls, p=2, alpha_bound=4, seed=9)
    b = embed_clique_in_tuple(g, cls, p=2, alpha_bound=4, seed=9)
    assert a.success == b.success
    if a.success:
        assert a.vertices == b.vertices and a.path == b.path


def test_embed_input_validation():
    g = complete_multipartite([3, 3, 3])
    cls = hyper_classes(g, [3, 3, 3])
    with pytest.raises(ValueError):
        embed_clique_in_tuple(g, cls[:1], p=1, alpha_bound=0)
    with pytest.raises(ValueError):
        embed_clique_in_tuple(g, [cls[0], cls[0]], p=1, alpha_bound=0)
    with pytest.raises(ValueError):
        embed_clique_in_tuple(g, cls, p=1, alpha_bound=0,
                              s=0)


def test_multipartite_search_finds_lexicographic_min():
    g = complete_multipartite([3, 3])
    cls = hyper_classes(g, [3, 3])
    found = multipartite_clique_search(g, cls, 1)
    assert [s.vertices() for s in found] == [(0,), (3,)]


def test_verify_embedding_refuses_tampered_certificates():
    """The final check refuses a per-class set of the wrong size or outside
    its class, sets that share a vertex, and a union that is no clique;
    each case breaks one condition only."""
    g = complete_multipartite([3, 3, 3])
    cls = hyper_classes(g, [3, 3, 3])
    res = embed_clique_in_tuple(g, cls, p=1, alpha_bound=0)
    check = embedding._verify_embedding
    assert res.success and check(g, cls, res.per_class, 1)
    first = res.per_class[0]
    assert not check(g, cls, res.per_class, 2)
    k6 = complete_multipartite([1] * 6)
    pair = [VertexSet.of(k6, [0, 1]), VertexSet.of(k6, [2, 3])]
    assert check(k6, pair, [VertexSet.of(k6, [0]), VertexSet.of(k6, [2])], 1)
    assert not check(k6, pair, [VertexSet.of(k6, [4]), VertexSet.of(k6, [2])], 1)
    assert not check(g, [cls[0], cls[0]], [first, first], 1)
    # vertices 0 and 2 lie in one part of K_{3,3,3}, so they are not adjacent
    split = [VertexSet.of(g, [0, 1]), VertexSet.of(g, [2, 3])]
    assert not check(g, split, [VertexSet.of(g, [0]), VertexSet.of(g, [2])], 1)
