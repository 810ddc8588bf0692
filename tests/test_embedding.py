"""Dependent random choice selectors and the cascade embedder."""

import tracemalloc
from itertools import combinations, product

import pytest

from cfl import embedding
from cfl.bounds import drc_condition
from cfl.graphs import (Graph, VertexSet, complete_multipartite, empty_graph,
                        random_gnp)
from cfl.embedding import (EmbedConfig, PartiteHypergraph, SearchCapExceeded,
                           _ImplicitLevel0, _link_intersection, drc_select,
                           embed_clique_in_tuple, hypergraph_drc_step,
                           multipartite_clique_search,
                           transversal_clique_hypergraph)
from cfl.invariants import alpha_ell_exact


def exhaustive_pair_floor(g, selected, witness, r, m):
    """Independent check: every r-subset of the selected set has >= m
    common neighbors inside the witness class."""
    vs = sorted(selected.vertices())
    wset = set(witness.vertices())
    for sub in combinations(vs, r):
        common = set(range(g.n))
        for v in sub:
            common &= {u for u in range(g.n) if g.has_edge(u, v)}
        if len(common & wset) < m:
            return False
    return True


def halves(g, a):
    return (VertexSet.of(g, range(a)), VertexSet.of(g, range(a, 2 * a)))


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


# -- hypergraph step ---------------------------------------------------------------

def hyper_classes(g, sizes):
    out = []
    start = 0
    for s in sizes:
        out.append(VertexSet.of(g, range(start, start + s)))
        start += s
    return out


def test_transversal_hypergraph_of_complete_multipartite():
    k333 = complete_multipartite([3, 3, 3])
    cls = hyper_classes(k333, [3, 3, 3])
    h, truncated = transversal_clique_hypergraph(k333, cls)
    assert len(h.edges) == 27 and not truncated
    hcap, trunc2 = transversal_clique_hypergraph(k333, cls, cap=10)
    assert len(hcap.edges) == 10 and trunc2


def test_step_on_complete_hypergraph_is_complete():
    k333 = complete_multipartite([3, 3, 3])
    cls = hyper_classes(k333, [3, 3, 3])
    h, _ = transversal_clique_hypergraph(k333, cls)
    out, _ = hypergraph_drc_step(h, s=2, seed=0)
    assert sorted(out.edges) == [(a, b) for a in (3, 4, 5) for b in (6, 7, 8)]


def test_step_on_empty_hypergraph():
    g = empty_graph(9)
    h = PartiteHypergraph(classes=hyper_classes(g, [3, 3, 3]), edges=[])
    out, sampled = hypergraph_drc_step(h, s=1, seed=0)
    assert out.edges == [] and len(sampled) == 1


def test_step_planted_single_extender():
    # only vertex 0 of the first class extends anything
    g = empty_graph(9)
    cls = hyper_classes(g, [3, 3, 3])
    edges = [(0, t, u) for t in (3, 4, 5) for u in (6, 7, 8)]
    h = PartiteHypergraph(classes=cls, edges=edges)
    outcomes = []
    for seed in range(6):
        out, sampled = hypergraph_drc_step(h, s=1, seed=seed)
        outcomes.append(len(out.edges))
        # nonempty output iff the special vertex was sampled
        assert len(out.edges) == (9 if sampled == (0,) else 0)
    assert 9 in outcomes and 0 in outcomes


def test_step_output_is_exactly_link_intersection():
    g = random_gnp(18, 0.6, seed=5)
    cls = hyper_classes(g, [6, 6, 6])
    h, _ = transversal_clique_hypergraph(g, cls)
    out, sampled = hypergraph_drc_step(h, s=2, seed=9)
    # re-derive the definition from the recorded samples
    edge_set = set(h.edges)
    expected = None
    for w in sampled:
        link = {e[1:] for e in edge_set if e[0] == w}
        expected = link if expected is None else expected & link
    assert sorted(expected) == out.edges
    out2, sampled2 = hypergraph_drc_step(h, s=2, seed=9)
    assert out.edges == out2.edges
    assert sampled == sampled2


def test_step_validation():
    g = empty_graph(4)
    h = PartiteHypergraph(classes=[VertexSet.of(g, [0, 1])], edges=[])
    with pytest.raises(ValueError):
        hypergraph_drc_step(h, s=1)
    h2 = PartiteHypergraph(classes=hyper_classes(g, [2, 2]), edges=[(0, 2)])
    with pytest.raises(ValueError):
        hypergraph_drc_step(h2, s=0)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_implicit_level0_matches_the_materialised_hypergraph(q):
    # the cascade never builds level 0; its per-head view must be exactly
    # the capped lexicographic hypergraph grouped by head
    seen = set()
    for graph_seed in range(3):
        g = random_gnp(5 * q, 0.8, seed=100 * q + graph_seed)
        cls = hyper_classes(g, [5] * q)
        full, _ = transversal_clique_hypergraph(g, cls)
        for cap in (5, 20, 60, None):
            h, truncated = transversal_clique_hypergraph(g, cls, cap)
            level0 = _ImplicitLevel0(g, cls, cap)
            assert (level0.edge_count, level0.truncated) == (len(h.edges),
                                                             truncated)
            seen.add((truncated, level0.partial is not None))
            by_head = {}
            for e in h.edges:
                by_head.setdefault(e[0], set()).add(e[1:])
            edge_set = set(h.edges)
            # the count reaches a head when the capped level keeps one of
            # its tails or every edge up to and including its own
            counted = [w for w in cls[0].vertices() if w in by_head
                       or all(e in edge_set for e in full.edges if e[0] <= w)]
            assert level0.heads == counted
            if not truncated:
                assert level0.heads == list(cls[0].vertices())
            for w in cls[0].vertices():
                assert level0.tails(w) == by_head.get(w, set())
                for t in product(*(c.vertices() for c in cls[1:])):
                    assert level0.extends(w, [t]) == ((w,) + t in edge_set)
            for seed in range(3):
                out, sampled = hypergraph_drc_step(h, s=2, seed=seed)
                assert _link_intersection(cls[0].vertices(), level0.tails,
                                          2, seed) == (out.edges, sampled)
            if q == 2:
                assert (level0.bipartite_graph.adj
                        == h.to_bipartite_graph(g.n).adj)
    assert (False, False) in seen and (True, True) in seen


def test_truncated_level0_samples_only_the_counted_heads(monkeypatch):
    # K_{6,6,6}: every head extends all 36 tails, so a cap of 40 keeps head
    # 0 whole and 4 tails of head 1; a step-1 sample of any later head
    # would empty the link intersection
    monkeypatch.setattr(embedding, "HYPERGRAPH_CAP", 40)
    g = complete_multipartite([6, 6, 6])
    cls = hyper_classes(g, [6, 6, 6])
    level0 = _ImplicitLevel0(g, cls, embedding.HYPERGRAPH_CAP)
    assert (level0.heads, level0.partial, level0.truncated) == ([0, 1], 1,
                                                                 True)
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


def test_zero_trials_skip_the_level0_count(monkeypatch):
    def refuse(*args):
        raise AssertionError("level 0 was counted")

    monkeypatch.setattr(embedding, "_count_transversal_cliques", refuse)
    g = complete_multipartite([3, 3, 3])
    res = embed_clique_in_tuple(g, hyper_classes(g, [3, 3, 3]), p=1,
                                alpha_bound=0, config=EmbedConfig(trials=0))
    assert res.success and res.path == "fallback" and res.telemetry == []


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
                                config=EmbedConfig(fallback_node_cap=2))
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
                                config=EmbedConfig(trials=2))
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


def test_multipartite_search_finds_lexicographic_min():
    g = complete_multipartite([3, 3])
    cls = hyper_classes(g, [3, 3])
    found = multipartite_clique_search(g, cls, 1)
    assert [s.vertices() for s in found] == [(0,), (3,)]
