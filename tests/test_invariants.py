"""Clique-independence solvers, cover checks, and the tiny-n oracle."""

import pytest
from hypothesis import given, settings, strategies as st

import numpy as np

from cfl import tiling
from cfl.graphs import (Graph, VertexSet, complete_graph, cycle_graph, empty_graph,
                        format_graph6, has_clique, iter_clique_masks,
                        petersen_graph, random_gnp)
from cfl import invariants
from cfl.invariants import (_clique_partition, _feasible_candidates,
                            _graph_from_pair_mask, _kn_factor_pair_masks,
                            _pair_index_masks, _rtt_barriers, _rtt_exhaustive,
                            alpha_ell_exact, alpha_ell_greedy,
                            has_clique_cover, rtt_oracle)
from cfl.rng import SplitMix64

from conftest import (contains_clique, naive_alpha, naive_has_factor,
                      seeded_graphs, small_graphs)
from support import reference_feasible_candidates


def test_alpha_examples():
    assert alpha_ell_exact(complete_graph(4), 3).value == 2
    assert alpha_ell_exact(empty_graph(7), 3).value == 7
    assert alpha_ell_exact(empty_graph(7), 2).value == 7
    assert alpha_ell_exact(petersen_graph(), 2).value == 4
    assert naive_alpha(petersen_graph(), 2) == 4


def test_alpha_witness_is_valid(small_graph_battery):
    for g in small_graph_battery[:15]:
        for ell in (2, 3):
            res = alpha_ell_exact(g, ell)
            assert res.exact
            assert len(res.witness) == res.value
            assert not has_clique(g, ell, res.witness.mask)


def test_alpha_matches_naive(small_graph_battery):
    for g in small_graph_battery[:15]:
        for ell in (2, 3, 4):
            assert alpha_ell_exact(g, ell).value == naive_alpha(g, ell)


def test_greedy_is_sandwiched(small_graph_battery):
    assert alpha_ell_greedy(complete_graph(4), 3, seed=1).value == 2
    assert alpha_ell_greedy(cycle_graph(5), 2, seed=9).value == 2
    for g in small_graph_battery[:10]:
        exact = alpha_ell_exact(g, 3).value
        for seed in (0, 1, 2):
            got = alpha_ell_greedy(g, 3, seed)
            assert got.value <= exact
            assert not has_clique(g, 3, got.witness.mask)
            assert got.value == len(got.witness)
            # maximal: every outside vertex would complete a triangle
            for v in range(g.n):
                if v not in got.witness:
                    assert contains_clique(g, got.witness.vertices() + (v,), 3)
            # and it is the first fit over the seed's shuffled order
            order = list(range(g.n))
            SplitMix64(seed).shuffle(order)
            first_fit = []
            for v in order:
                if not contains_clique(g, first_fit + [v], 3):
                    first_fit.append(v)
            assert got.witness.vertices() == tuple(sorted(first_fit))


def test_greedy_stops_at_a_clique_too_large_for_the_set():
    # each vertex once walked every subset of the set's part of its
    # neighbourhood, looking for a K_{ell-1} among fewer vertices: 0.2 s on
    # K_26 at ell = 21, and no end in sight on K_40 at ell = 33
    assert alpha_ell_greedy(complete_graph(26), 21, 0).value == 20
    assert alpha_ell_greedy(complete_graph(40), 33, 0).value == 32


def test_greedy_on_seeded_graph_below_exact():
    g = random_gnp(30, 0.5, 77)
    assert alpha_ell_greedy(g, 3, seed=5).value <= alpha_ell_exact(g, 3).value


def test_alpha_monotone_in_ell(small_graph_battery):
    for g in small_graph_battery[:12]:
        values = [alpha_ell_exact(g, ell).value for ell in (2, 3, 4)]
        assert values == sorted(values)


def test_alpha_deletion_monotonicity(small_graph_battery):
    for g in small_graph_battery[:8]:
        if g.n < 2:
            continue
        base = alpha_ell_exact(g, 2).value
        for v in range(min(g.n, 4)):
            rest = VertexSet(g, g.full_mask() & ~(1 << v))
            sub = alpha_ell_exact(g, 2, within=rest).value
            assert sub in (base - 1, base)


def test_alpha_node_cap_flags_partial():
    g = random_gnp(24, 0.5, 42)
    capped = alpha_ell_exact(g, 2, node_cap=5)
    assert not capped.exact
    assert capped.value <= alpha_ell_exact(g, 2).value
    assert not has_clique(g, 2, capped.witness.mask)


def test_alpha_node_cap_counts_the_first_node_past_it():
    g = random_gnp(24, 0.5, 3)
    assert alpha_ell_exact(g, 3).nodes_explored > 51
    for cap in (0, 1, 5, 50):
        capped = alpha_ell_exact(g, 3, node_cap=cap)
        assert not capped.exact
        assert capped.nodes_explored == cap + 1


def test_alpha_rejects_bad_ell():
    with pytest.raises(ValueError):
        alpha_ell_exact(complete_graph(3), 1)


# -- the clique-cover bound ---------------------------------------------------


def reference_alpha(g, ell, universe):
    """The exact search without any bound, in the solver's branch order: at
    each node the parts of ``_clique_partition`` (read for their order only,
    never for their caps) from last to first, each from its highest vertex
    down; each vertex joins a child and then leaves the candidates, and the
    incumbent is replaced only by a strictly larger set.  A sound bound
    prunes only subtrees that cannot beat the incumbent, so the pruned search
    must return this value and this witness."""
    best = [0, 0]

    def branch(chosen, size, cand):
        if size > best[0]:
            best[:] = [size, chosen]
        order = [v for part, _ in reversed(_clique_partition(g.adj, chosen, cand, ell))
                 for v in range(g.n - 1, -1, -1) if part >> v & 1]
        for v in order:
            cand &= ~(1 << v)
            keep = chosen | 1 << v
            feasible = 0
            for u in range(g.n):
                if cand >> u & 1 and not has_clique(g, ell, keep | 1 << u):
                    feasible |= 1 << u
            branch(keep, size + 1, feasible)

    branch(0, 0, universe)
    return best[0], best[1]


@settings(max_examples=300, deadline=None)
@given(small_graphs(), st.integers(2, 5), st.integers(0, 2**12 - 1),
       st.booleans())
def test_alpha_matches_unpruned_search(g, ell, sub, whole):
    within = None if whole else VertexSet(g, sub & g.full_mask())
    universe = g.full_mask() if whole else within.mask
    res = alpha_ell_exact(g, ell, within=within)
    assert res.exact
    assert (res.value, res.witness.mask) == reference_alpha(g, ell, universe)


@settings(max_examples=300, deadline=None)
@given(small_graphs(max_n=10), st.integers(2, 5), st.data())
def test_clique_cover_bound_is_at_least_the_optimum(g, ell, data):
    # a random K_ell-free chosen set, grown in a drawn order
    chosen = 0
    for v in data.draw(st.permutations(range(g.n))):
        if data.draw(st.booleans()) and not has_clique(g, ell, chosen | 1 << v):
            chosen |= 1 << v
    feasible = [v for v in range(g.n) if not chosen >> v & 1
                and not has_clique(g, ell, chosen | 1 << v)]
    cand = 0
    for v in feasible:
        if data.draw(st.booleans()):
            cand |= 1 << v
    parts = _clique_partition(g.adj, chosen, cand, ell)
    covered = 0
    for part, cum in parts:
        # the parts are disjoint cliques that cover cand
        assert part and part & covered == 0
        assert has_clique(g, part.bit_count(), part)
        covered |= part
        best = max(sub.bit_count() for sub in range(1 << g.n)
                   if sub & ~covered == 0 and not has_clique(g, ell, chosen | sub))
        assert cum >= best
    assert covered == cand


def test_feasible_candidates_match_the_per_candidate_filter():
    """The one-pass filter keeps exactly the candidates u with chosen | {v, u}
    K_ell-free, as the filter with one K_{ell-2} test per candidate does, on
    random graphs, ell 2..5, K_ell-free chosen sets and feasible v and
    candidates."""
    rng = SplitMix64(0xF1173)
    dropped = dict.fromkeys(range(2, 6), 0)
    for _ in range(800):
        n = 1 + rng.randrange(22)
        g = random_gnp(n, rng.random(), rng.next_u64())
        ell = 2 + rng.randrange(4)
        order = list(range(n))
        rng.shuffle(order)
        chosen = 0
        for v in order:
            if rng.random() < 0.6 and not has_clique(g, ell, chosen | 1 << v):
                chosen |= 1 << v
        feasible = [v for v in range(n) if not chosen >> v & 1
                    and not has_clique(g, ell, chosen | 1 << v)]
        if not feasible:
            continue
        v = rng.choice(feasible)
        cand = sum(1 << u for u in feasible if u != v and rng.random() < 0.8)
        got = _feasible_candidates(g.adj, ell, chosen, cand, v)
        assert got == reference_feasible_candidates(g.adj, ell, chosen, cand, v)
        keep = chosen | 1 << v
        assert got == sum(1 << u for u in range(n) if cand >> u & 1
                          and not has_clique(g, ell, keep | 1 << u))
        dropped[ell] += got != cand
    assert all(dropped.values()), dropped


@pytest.mark.parametrize("n, ell, cap", [(42, 3, 4_000), (34, 4, 3_500)])
def test_alpha_node_counts_with_the_chosen_clique_cap(n, ell, cap):
    # 3,896 and 3,364 nodes; before colour-ordered branching 7,373 and 17,995
    # (caps 10,000 and 25,000), before the chosen-clique cap 44,457 and 206,583
    res = alpha_ell_exact(random_gnp(n, 0.5, 1), ell)
    assert res.exact
    assert res.nodes_explored <= cap


# -- clique covers -----------------------------------------------------------


def test_clique_cover_examples():
    k5 = complete_graph(5)
    cover = has_clique_cover(k5, 0, 3)
    assert cover is not None and 0 in cover and len(cover) == 3
    assert has_clique_cover(cycle_graph(5), 0, 3) is None


def test_clique_cover_respects_forbidden():
    k5 = complete_graph(5)
    forbidden = VertexSet.of(k5, [1, 2])
    cover = has_clique_cover(k5, 0, 3, forbidden)
    assert cover is not None and not (cover.mask & forbidden.mask)
    with pytest.raises(ValueError):
        has_clique_cover(k5, 1, 3, forbidden)


def test_clique_cover_agrees_with_enumeration(small_graph_battery):
    for g in small_graph_battery[:15]:
        for r in (3, 4):
            through = any(c & 1 for c in iter_clique_masks(g, r))
            got = has_clique_cover(g, 0, r)
            assert (got is not None) == through
            if got is not None:
                assert contains_clique(g, got.vertices(), r)


# -- tiny-n oracle -------------------------------------------------------------


def test_rtt_n3_factor_free_max_degree_one():
    res = rtt_oracle(3, 3, 2, alpha_bound=3)
    assert res.exhaustive and res.feasible
    assert res.value == 1   # K_3 has a factor; best factor-free graph is P_3


def test_rtt_n6_unbounded_alpha():
    res = rtt_oracle(6, 3, 2, alpha_bound=6)
    assert res.exhaustive and res.feasible
    assert res.value == 3   # K_{3,3}: min degree 3, triangle-free
    assert res.witness is not None and res.witness.min_degree() == 3


def test_rtt_infeasible_alpha_one():
    res = rtt_oracle(6, 3, 2, alpha_bound=1)
    assert res.exhaustive and not res.feasible and res.value is None


def test_rtt_degenerate_divisibility():
    res = rtt_oracle(5, 3, 2, alpha_bound=5)
    assert res.degenerate and res.feasible
    assert res.value == 4   # K_5 itself: no factor question applies


def reference_rtt_exhaustive(n, r, ell, alpha_bound):
    """The per-graph scan the level filter replaced: every labeled graph, in
    stable decreasing-min-degree order, becomes a Graph and runs the exact
    alpha solver.  Returns (value, feasible, graphs_scanned, witness)."""
    degenerate = n % r != 0
    total = 1 << (n * (n - 1) // 2)
    pair_masks = _pair_index_masks(n)
    masks_arr = np.arange(total, dtype=np.uint32)
    mindeg = np.full(total, 255, dtype=np.uint8)
    for v in range(n):
        dv = np.bitwise_count(masks_arr & np.uint32(pair_masks[v])).astype(np.uint8)
        np.minimum(mindeg, dv, out=mindeg)
    order = np.argsort(-mindeg.astype(np.int16), kind="stable")
    scanned = 0
    for idx in order:
        scanned += 1
        g = _graph_from_pair_mask(n, int(idx))
        if alpha_ell_exact(g, ell).value > alpha_bound:
            continue
        if not degenerate and tiling.has_factor(g, r).tiling is not None:
            continue
        return g.min_degree(), True, scanned, g
    return None, False, scanned, None


def assert_matches_reference(n, r, ell, alpha_bound):
    res = rtt_oracle(n, r, ell, alpha_bound)
    value, feasible, scanned, witness = reference_rtt_exhaustive(n, r, ell,
                                                                 alpha_bound)
    assert res.exhaustive
    assert (res.value, res.feasible, res.graphs_scanned) == (value, feasible,
                                                             scanned)
    assert (format_graph6(res.witness) if res.witness else None) == (
        format_graph6(witness) if witness else None)


@pytest.mark.parametrize("n, r, count", [
    (1, 2, 0), (4, 2, 3), (4, 3, 0), (6, 2, 15), (6, 3, 10), (6, 4, 0),
    (6, 6, 1), (7, 2, 0), (7, 7, 1),
])
def test_factor_masks_count_the_factors_of_kn(n, r, count):
    masks = _kn_factor_pair_masks(n, r)
    assert len(masks) == len(set(masks)) == count
    pair_masks = _pair_index_masks(n)
    for f in masks:
        # r-sets of vertices: each vertex meets r-1 of the factor's pairs
        assert all((f & pm).bit_count() == r - 1 for pm in pair_masks)


def test_factor_mask_membership_agrees_with_has_factor():
    graphs = seeded_graphs(400, (2, 7), seed=0xFAC7,
                           p_choices=(0.5, 0.7, 0.8, 0.9, 0.95))
    graphs += [complete_graph(n) for n in range(2, 8)]
    seen = {True: 0, False: 0}
    for g in graphs:
        pair_masks = _pair_index_masks(g.n)
        m = sum(pair_masks[u] & pair_masks[v] for u, v in g.edges())
        assert _graph_from_pair_mask(g.n, m) == g
        for r in range(2, g.n + 1):
            if g.n % r:
                continue
            has = any(m & f == f for f in _kn_factor_pair_masks(g.n, r))
            assert has == (tiling.has_factor(g, r).tiling is not None)
            seen[has] += 1
    assert min(seen.values()) >= 100


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_rtt_level_filter_matches_the_per_graph_scan(data):
    n = data.draw(st.integers(1, 5), label="n")
    r = data.draw(st.integers(2, n + 1), label="r")
    ell = data.draw(st.integers(2, 4), label="ell")
    alpha_bound = data.draw(st.integers(-1, n + 1), label="alpha_bound")
    assert_matches_reference(n, r, ell, alpha_bound)


def test_rtt_level_filter_matches_the_per_graph_scan_at_n6():
    assert_matches_reference(6, 3, 2, 1)


@pytest.mark.parametrize("r, ell, alpha_bound", [
    (2, 2, 2),    # value 2 at graph 2,445; K_6 has 15 perfect matchings
    (2, 3, 3),    # value 0 at graph 29,616
    (3, 2, 2),    # value 3 at graph 87
    (3, 3, 3),    # value 1 at graph 15,195
])
def test_rtt_feasible_answers_match_the_per_graph_scan_at_n6(r, ell, alpha_bound):
    assert_matches_reference(6, r, ell, alpha_bound)


def test_rtt_n7_infeasible_full_scan():
    res = rtt_oracle(7, 7, 2, 1)
    assert res.exhaustive and res.feasible is False and res.value is None
    assert res.graphs_scanned == 2 ** 21


def assert_certified(res):
    """The witness is a simple graph on n vertices whose min degree is the
    value, whose alpha_ell is at most the bound, and which has no K_r-factor
    (r not dividing n: none can exist)."""
    g = res.witness
    assert g.n == res.n and Graph(g.n, g.edges()) == g
    assert g.min_degree() == res.value
    assert alpha_ell_exact(g, res.ell).value <= res.alpha_bound
    assert tiling.has_factor(g, res.r).status == (
        "divisibility" if res.degenerate else "none")


def _rtt_grid(n):
    return [(n, r, ell, b) for r in range(2, n + 1) for ell in range(2, 5)
            for b in range(n + 1)]


def test_rtt_barriers_match_the_exhaustive_oracle_below_n8():
    # every triple up to n = 6, and a seeded sample of n = 7 (its 144
    # exhaustive runs take about 1.6 s)
    sevens = _rtt_grid(7)
    SplitMix64(0xBA44).shuffle(sevens)
    for n, r, ell, b in [t for n in range(2, 7) for t in _rtt_grid(n)] + sevens[:24]:
        exact = _rtt_exhaustive(n, r, ell, b, n % r != 0)
        scan = _rtt_barriers(n, r, ell, b, n % r != 0)
        assert (scan.value, scan.feasible) == (exact.value, exact.feasible), (n, r, ell, b)
        if scan.feasible:
            assert_certified(scan)


@pytest.mark.parametrize("n, r, ell, alpha_bound, value", [
    (8, 2, 2, 2, 2), (8, 4, 3, 3, 2), (8, 2, 3, 3, 0), (8, 4, 4, 4, 2),
    (8, 4, 2, 2, 5),
])
def test_rtt_barriers_reach_the_exact_n8_values(n, r, ell, alpha_bound, value):
    # the exact values, from the exhaustive oracle run at n = 8
    res = _rtt_barriers(n, r, ell, alpha_bound, n % r != 0)
    assert not res.exhaustive and res.feasible and res.value == value
    assert_certified(res)


@pytest.mark.parametrize("n, r, ell, alpha_bound, value", [
    (12, 3, 3, 3, 1), (12, 4, 3, 3, 2), (12, 4, 4, 4, 2),
])
def test_rtt_barriers_find_the_witnesses_a_root_bound_refutes(
        n, r, ell, alpha_bound, value):
    # each witness's factor search used to pass the member cap before its
    # free-set bound was built; the witness is checked by brute force
    res = rtt_oracle(n, r, ell, alpha_bound)
    assert res.feasible and res.value == value
    g = res.witness
    assert g.min_degree() == value
    assert naive_alpha(g, ell) <= alpha_bound
    assert not naive_has_factor(g, r)


def test_rtt_barriers_refuse_graphs_past_the_alpha_bound():
    # alpha_2 <= 1 holds only for K_9, which has a K_3-factor
    res = rtt_oracle(9, 3, 2, alpha_bound=1)
    assert not res.exhaustive and not res.degenerate
    assert not res.feasible and res.value is None and res.witness is None
    assert res.graphs_scanned > 0


def test_rtt_barriers_on_a_degenerate_n_skip_the_factor_check():
    # 4 does not divide 9 and alpha_bound = n binds nothing, so K_9 passes
    res = rtt_oracle(9, 4, 2, alpha_bound=9)
    assert not res.exhaustive and res.degenerate and res.feasible
    assert res.value == 8 and res.witness == complete_graph(9)
    assert res.graphs_scanned == 1


def test_rtt_barriers_are_certified():
    res = rtt_oracle(9, 3, 2, alpha_bound=9)
    assert not res.exhaustive and res.feasible
    assert_certified(res)


def test_rtt_barriers_never_report_a_member_whose_factor_search_is_capped(
        monkeypatch):
    # with no factor-search nodes every member is undecided, so none passes
    scanned = _rtt_barriers(8, 2, 2, 8, False).graphs_scanned
    monkeypatch.setattr(invariants, "_MEMBER_CAP", 0)
    res = _rtt_barriers(8, 2, 2, 8, False)
    assert not res.feasible and res.witness is None
    assert res.graphs_scanned > scanned
    # alpha_2 <= 8 holds on every member, so each one was skipped
    assert res.members_skipped == res.graphs_scanned
