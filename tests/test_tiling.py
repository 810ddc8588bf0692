"""Exact tiling solver and factor decisions."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cfl import tiling
from cfl.constructions import build_lower_bound_graph
from cfl.graphs import (Graph, SelfCheckError, VertexSet, complete_graph,
                        complete_multipartite, cycle_graph, has_clique,
                        iter_bits, iter_clique_masks, mask_of, random_gnp)
from cfl.rng import SplitMix64
from cfl.tiling import (CliqueTiling, _factor_masks, _free_sets, has_factor,
                        max_tiling, verify_tiling)

from conftest import (covered, naive_has_factor, naive_max_tiling_count,
                      small_graphs)
from support import reference_verify_tiling


def test_max_tiling_examples():
    k333 = complete_multipartite([3, 3, 3])
    res = max_tiling(k333, 3)
    assert res.deficiency == 0 and res.optimal
    assert verify_tiling(k333, res.best)

    c6 = cycle_graph(6)
    res = max_tiling(c6, 3)
    assert len(res.best) == 0 and res.deficiency == 6

    k345 = complete_multipartite([3, 4, 5])
    res = max_tiling(k345, 3)
    assert len(res.best) == 3 and res.deficiency == 3
    assert naive_max_tiling_count(k345, 3) == 3


def test_max_tiling_matches_packing_oracle(small_graph_battery):
    for g in small_graph_battery[:20]:
        for r in (3, 4):
            res = max_tiling(g, r)
            assert res.optimal
            assert len(res.best) == naive_max_tiling_count(g, r)
            assert verify_tiling(g, res.best)
            assert res.deficiency == g.n - r * len(res.best)


def test_max_tiling_within_view():
    k6 = complete_graph(6)
    inside = VertexSet.of(k6, [0, 1, 2, 3])
    res = max_tiling(k6, 3, within=inside)
    assert len(res.best) == 1 and res.deficiency == 1
    assert covered(res.best) & ~inside.mask == 0


def test_tiling_certificate_is_canonical():
    g = complete_graph(9)
    members = max_tiling(g, 3).best.members
    assert [m.vertices() for m in members] == sorted(m.vertices() for m in members)


def test_has_factor_examples():
    assert has_factor(complete_graph(6), 3).status == "found"
    k6_minus_pm = Graph(6, [(u, v) for u in range(6) for v in range(u + 1, 6)
                            if v != u + 3])
    res = has_factor(k6_minus_pm, 3)
    assert res.status == "found" and verify_tiling(k6_minus_pm, res.tiling)
    assert has_factor(complete_graph(7), 3).status == "divisibility"
    assert has_factor(cycle_graph(6), 3).status == "none"


def test_has_factor_matches_oracle(small_graph_battery):
    for g in small_graph_battery[:20]:
        for r in (3, 4):
            res = has_factor(g, r)
            if g.n % r:
                assert res.status == "divisibility"
            else:
                assert (res.status == "found") == naive_has_factor(g, r)
            if res.tiling is not None:
                assert verify_tiling(g, res.tiling)
                assert covered(res.tiling) == g.full_mask()


def test_factor_absent_implies_positive_deficiency(small_graph_battery):
    for g in small_graph_battery[:10]:
        if g.n % 3 == 0 and has_factor(g, 3).status == "none":
            assert max_tiling(g, 3).deficiency > 0


def test_hajnal_szemeredi_threshold_small():
    # min degree >= (1 - 1/r) n guarantees a factor
    from cfl.graphs import random_graph_with_min_degree
    for seed in range(8):
        g = random_graph_with_min_degree(12, 8, seed, p=0.55)
        assert g.min_degree() >= 8
        assert has_factor(g, 3).status == "found"


def test_node_cap_marks_incomplete():
    g = random_gnp(24, 0.3, seed=77)
    res = max_tiling(g, 3, node_cap=2)
    full = max_tiling(g, 3)
    assert len(res.best) <= len(full.best)
    if len(res.best) < len(full.best):
        assert not res.optimal


def test_max_tiling_cap_counts_the_first_node_past_it():
    g = random_gnp(24, 0.28, 4)
    full = max_tiling(g, 3)
    assert full.optimal and full.nodes_explored > 6
    for cap in (0, 1, 2, 5):
        capped = max_tiling(g, 3, node_cap=cap)
        assert not capped.optimal
        assert capped.nodes_explored == cap + 1
        assert verify_tiling(g, capped.best)


def test_has_factor_cap_leaves_existence_undecided():
    g = random_gnp(24, 0.28, 4)
    assert has_factor(g, 3).status == "none"
    for cap in (0, 1, 5):
        capped = has_factor(g, 3, node_cap=cap)
        assert capped.status == "cap" and capped.tiling is None
    k9 = complete_graph(9)
    assert has_factor(k9, 3, node_cap=4).status == "found"
    assert has_factor(k9, 3, node_cap=3).status == "cap"


def test_rejects_bad_r():
    with pytest.raises(ValueError):
        max_tiling(complete_graph(4), 1)
    with pytest.raises(ValueError):
        has_factor(complete_graph(4), 0)


# -- the free-set bound against a prune-free reference ------------------------

def reference_max_tiling(g, r, universe):
    """Same branching order as ``max_tiling`` with no bound at all: the
    first tiling of each strictly larger size wins; stops at n // r."""
    ceiling = universe.bit_count() // r
    best = []

    def search(active, tiles):
        nonlocal best
        if len(tiles) > len(best):
            best = tiles.copy()
        if len(best) == ceiling or not active:
            return
        low = active & -active
        for cm in iter_clique_masks(g, r - 1, active & g.adj[low.bit_length() - 1]):
            tiles.append(cm | low)
            search(active & ~(cm | low), tiles)
            tiles.pop()
            if len(best) == ceiling:
                return
        search(active ^ low, tiles)

    search(universe, [])
    return best


def reference_factor(g, r, universe):
    """First perfect tiling in ``has_factor``'s branching order, or None."""
    def search(active, tiles):
        if not active:
            return tiles.copy()
        low = active & -active
        for cm in iter_clique_masks(g, r - 1, active & g.adj[low.bit_length() - 1]):
            tiles.append(cm | low)
            found = search(active & ~(cm | low), tiles)
            tiles.pop()
            if found is not None:
                return found
        return None

    return search(universe, [])


def assert_matches_reference(g, r, within):
    universe = g.full_mask() if within is None else within.mask
    res = max_tiling(g, r, within=within)
    ref = sorted(reference_max_tiling(g, r, universe),
                 key=lambda m: VertexSet(g, m).vertices())
    assert [m.mask for m in res.best.members] == ref
    assert res.optimal
    assert res.deficiency == universe.bit_count() - r * len(ref)

    fac = has_factor(g, r, within=within)
    if universe.bit_count() % r:
        assert fac.status == "divisibility" and fac.tiling is None
        return
    found = reference_factor(g, r, universe)
    assert fac.status == ("found" if found is not None else "none")
    if found is None:
        assert fac.tiling is None
    else:
        expect = sorted(found, key=lambda m: VertexSet(g, m).vertices())
        assert [m.mask for m in fac.tiling.members] == expect


@st.composite
def triangle_free_graphs(draw, n):
    """Random triangle-free graph: candidate edges in drawn order, each kept
    unless it closes a triangle."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    order = draw(st.permutations(pairs))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    adj = [0] * n
    edges = []
    for (u, v), k in zip(order, keep):
        if k and not adj[u] & adj[v]:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            edges.append((u, v))
    return Graph(n, edges)


@st.composite
def lower_bound_graphs(draw):
    r = draw(st.integers(3, 4))
    n = draw(st.integers(r + 2, 14))
    x1 = draw(st.integers(1, (n * (r - 2) - 1) // r))   # |X1| / n < (r-2)/r
    inner = draw(triangle_free_graphs(n - x1))
    return build_lower_bound_graph(n, r, 2, Fraction(x1, n), inner).graph, r


@settings(max_examples=150, deadline=None)
@given(small_graphs(), st.integers(2, 5), st.integers(0, 2**12 - 1),
       st.booleans())
def test_free_set_bound_keeps_certificates_on_random_graphs(g, r, sub, whole):
    within = None if whole else VertexSet(g, sub & g.full_mask())
    assert_matches_reference(g, r, within)


@settings(max_examples=60, deadline=None)
@given(lower_bound_graphs())
def test_free_set_bound_keeps_certificates_on_lower_bound_graphs(case):
    g, r = case
    assert_matches_reference(g, r, None)


@settings(max_examples=100, deadline=None)
@given(small_graphs(), st.integers(2, 6), st.integers(0, 2**12 - 1))
def test_free_sets_are_clique_free_and_maximal(g, r, sub):
    universe = sub & g.full_mask()
    sets = _free_sets(g, r, universe)
    assert len(sets) == r - 1
    for ell, s in enumerate(sets, 1):
        assert s & ~universe == 0
        assert not has_clique(g, ell + 1, s)
        for v in range(g.n):
            if universe >> v & 1 and not s >> v & 1:
                assert has_clique(g, ell + 1, s | 1 << v)


def test_free_set_bound_node_count_on_criterion_4_instance():
    # the (n, r, ell, |X1|) = (20, 4, 2, 9) spec of acceptance criterion 4,
    # whose optimality proof took 12.3M nodes without the free-set bound
    inner = Graph(11, [(0, 3), (0, 6), (1, 2), (1, 3), (1, 4), (2, 6), (2, 7),
                       (3, 5), (3, 9), (3, 10), (4, 7), (4, 9), (5, 6), (6, 8),
                       (6, 9), (7, 10), (8, 10)])
    g = build_lower_bound_graph(20, 4, 2, Fraction(9, 20), inner).graph
    res = max_tiling(g, 4)
    assert res.optimal and len(res.best) == 4
    assert verify_tiling(g, res.best)
    assert res.nodes_explored <= 10**4


def test_verify_tiling_refuses_tampered_certificates():
    """The independent checker refuses a tile of the wrong size, two tiles
    that overlap, a tile outside ``within`` and a tile that is no clique."""
    k6 = complete_graph(6)
    tiles = max_tiling(k6, 3).best
    a, b = tiles.members
    assert verify_tiling(k6, tiles)
    assert verify_tiling(k6, tiles, within=VertexSet(k6, k6.full_mask()))
    assert not verify_tiling(k6, CliqueTiling(3, [a, VertexSet.of(k6, [3, 4])]))
    assert not verify_tiling(k6, CliqueTiling(3, [a, a]))
    assert not verify_tiling(k6, tiles, within=a)
    holed = Graph(6, [e for e in k6.edges() if e != (4, 5)])
    assert not verify_tiling(holed, CliqueTiling(3, [VertexSet(holed, a.mask),
                                                     VertexSet(holed, b.mask)]))


def tiling_cases(count, seed):
    """(g, tiling, within) on n <= 12 vertices, r = 1 .. 4: disjoint
    r-cliques of g, kept in a shuffled order, then one flaw or none."""
    rng = SplitMix64(seed)
    for _ in range(count):
        n = 2 + rng.randrange(11)
        g = random_gnp(n, 0.4 + 0.5 * rng.random(), rng.next_u64())
        r = 1 + rng.randrange(4)
        cliques = list(iter_clique_masks(g, r))
        rng.shuffle(cliques)
        tiles, union = [], 0
        for c in cliques:
            if not c & union:
                tiles.append(c)
                union |= c
        within = g.full_mask() if rng.random() < 0.5 else None
        flaw = rng.randrange(6) if tiles else 0
        i = rng.randrange(len(tiles)) if tiles else 0
        v = 1 << rng.randrange(n)
        if flaw == 1:       # a tile twice
            tiles.append(tiles[i])
        elif flaw == 2:     # its lowest vertex swapped for any vertex
            tiles[i] = tiles[i] & tiles[i] - 1 | v
        elif flaw == 3:     # a vertex short
            tiles[i] &= tiles[i] - 1
        elif flaw == 4:     # a vertex more, unless v is in it
            tiles[i] |= v
        elif flaw == 5:     # a covered vertex outside within
            within = union & ~(tiles[i] & -tiles[i])
        members = [VertexSet(g, t) for t in tiles]
        rng.shuffle(members)
        yield (g, CliqueTiling(r, members),
               None if within is None else VertexSet(g, within))


def test_verify_tiling_agrees_with_the_pairwise_reference():
    """On 400 seeded tilings, valid and flawed, ``verify_tiling`` (one
    ``_clique_union``) answers as the pairwise checker it replaced."""
    verdicts = []
    for g, t, within in tiling_cases(400, 4001):
        expected = reference_verify_tiling(g, t, within)
        assert verify_tiling(g, t, within) == expected, (g.adj, t, within)
        verdicts.append(expected)
    assert 100 <= sum(verdicts) <= 300, sum(verdicts)


def test_a_searched_factor_is_rechecked(monkeypatch):
    """With the first descent switched off, a search whose clique generator
    hands out the whole neighbourhood (one tile of K_6) or two vertices of
    one part (non-cliques of K_{2,2,2}) raises SelfCheckError instead of
    returning that factor."""
    def neighbourhood(g, k, within):
        yield within

    def lowest(g, k, within):
        yield mask_of(list(iter_bits(within))[:k])

    for g, fake in ((complete_graph(6), neighbourhood),
                    (complete_multipartite([2, 2, 2]), lowest)):
        assert has_factor(g, 3).status == "found"
        with monkeypatch.context() as m:
            m.setattr(tiling, "_lex_greedy_masks", lambda g, r, active: [])
            m.setattr(tiling, "iter_clique_masks", fake)
            with pytest.raises(SelfCheckError, match="failed re-verification"):
                has_factor(g, 3)


# -- the bare-mask factor search and its first descent ------------------------

def first_descent(g, r, universe):
    """The factor search's first path: the lowest active vertex with the
    first listed (r-1)-clique of its active neighbourhood, until one is
    missing (None) or the universe is covered (the tiles)."""
    tiles = []
    active = universe
    while active:
        low = active & -active
        cm = next(iter_clique_masks(g, r - 1, active & g.adj[low.bit_length() - 1]),
                  None)
        if cm is None:
            return None
        tiles.append(cm | low)
        active &= ~(cm | low)
    return tiles


def random_factor_cases(count, seed):
    """(g, r, universe) on n <= 14 vertices, r 2..4, random universes."""
    rng = SplitMix64(seed)
    for _ in range(count):
        n = 1 + rng.randrange(14)
        g = random_gnp(n, 0.3 + 0.6 * rng.random(), rng.next_u64())
        yield g, 2 + rng.randrange(3), rng.randrange(1 << n)


def test_factor_masks_are_has_factors_tiling_in_search_order():
    seen = {"found": 0, "none": 0, "divisibility": 0}
    for g, r, universe in random_factor_cases(600, 2901):
        masks = _factor_masks(g, r, universe)
        fac = has_factor(g, r, within=VertexSet(g, universe))
        seen[fac.status] += 1
        if masks is None:
            assert fac.tiling is None and fac.status in ("none", "divisibility")
            assert (fac.status == "divisibility") == bool(universe.bit_count() % r)
            continue
        assert fac.status == "found"
        assert masks == reference_factor(g, r, universe)
        assert [s.mask for s in fac.tiling.members] == sorted(
            masks, key=lambda m: VertexSet(g, m).vertices())
    assert min(seen.values()) >= 50, seen


def test_free_sets_of_the_whole_graph_keep_every_first_factor():
    """Free sets built over all of g, handed in as ``_free``, still bound
    every sub-universe's search: the same factor, or None, on each."""
    for g, r, universe in random_factor_cases(600, 3303):
        whole = _free_sets(g, r, g.full_mask())
        assert (_factor_masks(g, r, universe, _free=whole)
                == _factor_masks(g, r, universe))


def test_a_first_descent_factor_takes_one_node_per_tile_plus_one():
    k9 = complete_graph(9)
    assert _factor_masks(k9, 3, k9.full_mask(), node_cap=4) == [0b111, 0b111000,
                                                              0b111000000]
    first = backtracked = 0
    for g, r, universe in random_factor_cases(600, 2902):
        full = has_factor(g, r, within=VertexSet(g, universe))
        if full.status != "found":
            continue
        k = universe.bit_count() // r
        capped = has_factor(g, r, within=VertexSet(g, universe), node_cap=k + 1)
        if first_descent(g, r, universe) is not None:
            first += 1
            assert capped == full
            below = has_factor(g, r, within=VertexSet(g, universe), node_cap=k)
            assert below.status == "cap" and below.tiling is None
        else:
            # the search left its first path, so it took more than k + 1 nodes
            backtracked += 1
            assert capped.status == "cap" and capped.tiling is None
    assert first >= 50 and backtracked >= 5, (first, backtracked)
