"""Clique-independence solvers, cover checks, and the tiny-n oracle."""

import pytest

from cfl.graphs import (VertexSet, complete_graph, cycle_graph, empty_graph,
                        has_clique, iter_clique_masks, petersen_graph,
                        random_gnp)
from cfl.invariants import (alpha_ell_exact, alpha_ell_greedy,
                            has_clique_cover, rtt_oracle)

from conftest import contains_clique, naive_alpha


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
    g = random_gnp(20, 0.5, 3)
    assert alpha_ell_exact(g, 3).nodes_explored > 51
    for cap in (0, 1, 5, 50):
        capped = alpha_ell_exact(g, 3, node_cap=cap)
        assert not capped.exact
        assert capped.nodes_explored == cap + 1


def test_alpha_rejects_bad_ell():
    with pytest.raises(ValueError):
        alpha_ell_exact(complete_graph(3), 1)


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


def test_rtt_search_mode_is_certified():
    res = rtt_oracle(9, 3, 2, alpha_bound=9, seed=5, tries=40)
    assert not res.exhaustive
    assert res.feasible
    g = res.witness
    assert g.min_degree() == res.value
    assert alpha_ell_exact(g, 2).value <= 9
    from cfl.tiling import has_factor
    assert has_factor(g, 3).tiling is None
