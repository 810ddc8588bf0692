"""The extremal family builders and the sparse clique-free sampler."""

from fractions import Fraction
from functools import partial

import pytest

from cfl import constructions
from cfl.constructions import (build_cover_threshold_graph,
                               build_lower_bound_graph, graph_from_spec,
                               sample_sparse_klfree, sparse_gamma_limit)
from cfl.graphs import (ParameterError, SelfCheckError, VertexSet,
                        complete_graph, cycle_graph, empty_graph, has_clique,
                        iter_clique_masks, petersen_graph, random_gnp)
from cfl.invariants import alpha_ell_exact, has_clique_cover
from cfl.tiling import max_tiling
from cfl.rng import SplitMix64

from support import strip_cliques


# -- lower-bound family --------------------------------------------------------

def test_lower_bound_desk_instance():
    b = build_lower_bound_graph(7, 3, 2, Fraction(2, 7), cycle_graph(5))
    assert b.min_degree >= 2
    res = max_tiling(b.graph, 3)
    assert res.optimal
    assert 7 - res.deficiency <= 6          # at most 6 of 7 vertices coverable
    assert b.alpha_audit and b.alpha_audit["holds"]


def test_lower_bound_every_clique_meets_x1():
    b = build_lower_bound_graph(12, 4, 2, Fraction(2, 12), petersen_graph())
    for c in iter_clique_masks(b.graph, 4):
        assert (c & b.clique_part.mask).bit_count() >= 2   # r - ell
    res = max_tiling(b.graph, 4)
    assert 12 - res.deficiency <= 4


def test_lower_bound_rejects_bad_specs():
    with pytest.raises(ParameterError):
        build_lower_bound_graph(7, 3, 2, Fraction(0, 7), cycle_graph(7))
    with pytest.raises(ParameterError):    # inner has a triangle
        build_lower_bound_graph(7, 3, 2, Fraction(2, 7), complete_graph(5))
    with pytest.raises(ParameterError):    # size mismatch
        build_lower_bound_graph(7, 3, 2, Fraction(2, 7), cycle_graph(4))
    with pytest.raises(ParameterError):    # eta above (r-ell)/r
        build_lower_bound_graph(6, 3, 2, Fraction(1, 2), cycle_graph(3))


def test_lower_bound_seeded_specs_respect_ceiling():
    rng = SplitMix64(99)
    for i in range(12):
        r = 3 + rng.randrange(2)
        ell = 2
        n = 9 + rng.randrange(8)
        x1 = 1 + rng.randrange(max(1, (n * (r - ell)) // r - 1))
        inner = strip_cliques(random_gnp(n - x1, 0.4, rng.next_u64()), ell + 1,
                              seed=i)
        b = build_lower_bound_graph(n, r, ell, Fraction(x1, n), inner)
        assert b.min_degree >= x1 - 1
        res = max_tiling(b.graph, r)
        assert res.optimal
        covered = n - res.deficiency
        assert Fraction(covered) <= r * b.tiling_size_limit
        assert b.alpha_audit["holds"]


# -- cover-threshold family ------------------------------------------------------

def test_cover_threshold_desk_instance():
    b = build_cover_threshold_graph(16, 4, Fraction(1, 2), cycle_graph(8))
    assert has_clique_cover(b.graph, b.hub, 4) is None
    assert b.min_degree == 8
    assert b.degree_breakdown == {"hub": 8, "neighborhood_min": 10,
                                  "clique_min": 14}


def test_cover_threshold_structure():
    b = build_cover_threshold_graph(16, 4, Fraction(1, 2), cycle_graph(8))
    g = b.graph
    for c in b.clique_part:
        assert not g.adj[b.hub] >> c & 1         # hub isolated from the clique
        for w in b.neighborhood:
            assert g.adj[c] >> w & 1             # clique complete to neighborhood
        for c2 in b.clique_part:
            assert c == c2 or g.adj[c] >> c2 & 1


def test_cover_threshold_r3_forces_empty_inner():
    b = build_cover_threshold_graph(10, 3, Fraction(1, 2), empty_graph(5))
    assert has_clique_cover(b.graph, 0, 3) is None
    with pytest.raises(ParameterError):    # any edge is a K_2 = K_{r-1}
        build_cover_threshold_graph(10, 3, Fraction(1, 2), cycle_graph(5))


def test_cover_threshold_recheck_raises_without_assert(monkeypatch):
    monkeypatch.setattr(constructions, "has_clique_cover",
                        lambda g, v, r: VertexSet(g, 1 << v))
    with pytest.raises(SelfCheckError, match="hub is covered"):
        build_cover_threshold_graph(16, 4, Fraction(1, 2), cycle_graph(8))
    assert not issubclass(SelfCheckError, AssertionError)


def test_cover_threshold_rejects_kr1_inner():
    with pytest.raises(ParameterError):
        build_cover_threshold_graph(16, 4, Fraction(1, 2), complete_graph(8))


@pytest.mark.parametrize("spec, key", [
    (partial(build_lower_bound_graph, 7, 2, 2, Fraction(2, 7), cycle_graph(5)), "r"),
    (partial(build_lower_bound_graph, 10, 3, 2, Fraction(9, 10), empty_graph(1)),
     "eta"),
    (partial(build_lower_bound_graph, 4, 3, 2, Fraction(1, 10), empty_graph(4)),
     "clique_size"),
    (partial(build_lower_bound_graph, 7, 3, 2, Fraction(2, 7), cycle_graph(4)),
     "inner"),
    (partial(build_lower_bound_graph, 7, 3, 2, Fraction(2, 7), complete_graph(5)),
     "inner"),
    (partial(build_cover_threshold_graph, 16, 1, Fraction(1, 2), cycle_graph(8)),
     "r"),
    (partial(build_cover_threshold_graph, 16, 4, Fraction(3, 2), cycle_graph(8)),
     "x"),
    (partial(build_cover_threshold_graph, 4, 3, Fraction(1, 10), empty_graph(1)),
     "x"),
    (partial(build_cover_threshold_graph, 4, 3, Fraction(9, 10), empty_graph(4)),
     "x"),
    (partial(build_cover_threshold_graph, 16, 4, Fraction(1, 2), cycle_graph(7)),
     "inner"),
    (partial(build_cover_threshold_graph, 16, 4, Fraction(1, 2), complete_graph(8)),
     "inner"),
])
def test_each_refusal_names_its_spec_field(spec, key):
    with pytest.raises(ParameterError) as info:
        spec()
    assert info.value.key == key


# -- sparse sampler --------------------------------------------------------------

def test_sparse_sampler_density_formula():
    s = sample_sparse_klfree(30, 3, 0.05, seed=11, max_tries=6)
    assert s.exponent == pytest.approx((2 - 0.05) / 4)
    assert s.p == pytest.approx(30 ** -0.4875)


def test_sparse_sampler_rejects_ell_two():
    with pytest.raises(ValueError, match="R\\(3,n\\)"):
        sample_sparse_klfree(30, 2, 0.05, seed=1)


def test_sparse_sampler_gamma_range():
    assert sparse_gamma_limit(3) == Fraction(2, 15)
    with pytest.raises(ValueError):
        sample_sparse_klfree(30, 3, 0.2, seed=1)


def test_sparse_sampler_postconditions_and_determinism():
    a = sample_sparse_klfree(24, 3, 0.1, seed=7, max_tries=10)
    b = sample_sparse_klfree(24, 3, 0.1, seed=7, max_tries=10)
    assert len(a.attempts) == len(b.attempts)
    if a.accepted:
        assert b.graph == a.graph
        assert not has_clique(a.graph, 4)
        assert alpha_ell_exact(a.graph, 3).value <= a.alpha_target
        assert a.attempts[-1].reason == "accepted"
    for attempt in a.attempts[:-1]:
        assert attempt.reason in ("contains-clique", "alpha-too-large")


# -- helpers ----------------------------------------------------------------------

def test_strip_cliques_produces_free_graph():
    g = strip_cliques(random_gnp(14, 0.7, 5), 3, seed=2)
    assert not has_clique(g, 3)
    g4 = strip_cliques(random_gnp(14, 0.7, 5), 4, seed=2)
    assert not has_clique(g4, 4)


def test_graph_from_spec():
    assert graph_from_spec("c5") == cycle_graph(5)
    assert graph_from_spec("petersen") == petersen_graph()
    assert graph_from_spec("complete:4") == complete_graph(4)
    assert graph_from_spec("gnp:10,0.5,3") == random_gnp(10, 0.5, 3)
    assert graph_from_spec("multipartite:2,3").edge_count == 6
    with pytest.raises(ParameterError):
        graph_from_spec("dodecahedron")
