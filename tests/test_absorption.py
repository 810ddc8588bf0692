"""Absorber, reachable-set and absorbing-set certifiers; the explicit gadget."""

from support import replace
import statistics
from fractions import Fraction
from itertools import combinations

import pytest

from cfl import absorption, tiling
from cfl.absorption import (AbsorbingVerdict, build_reachable_gadget,
                            certify_absorber, certify_reachable,
                            certify_xi_absorbing, closedness_report,
                            find_disjoint_reachable_sets, verify_absorber,
                            verify_reachable)
from cfl.graphs import (Graph, SelfCheckError, VertexSet, complete_graph,
                        cycle_graph, iter_bits, iter_clique_masks, mask_of,
                        random_gnp)
from cfl.rng import SplitMix64
from cfl.tiling import CliqueTiling, has_factor, verify_tiling

from conftest import covered, subset_is_clique


def exhaustive_max_disjoint_reachable(g, u, v, r, within_mask=None):
    """Exact maximum packing of size-(r-1) reachable sets (test oracle):
    candidates are (r-1)-cliques adjacent to both endpoints, packed by
    backtracking."""
    universe = (within_mask if within_mask is not None else g.full_mask())
    universe &= ~((1 << u) | (1 << v))
    cands = []
    for combo in combinations(sorted(i for i in range(g.n) if universe >> i & 1),
                              r - 1):
        if not subset_is_clique(g, combo):
            continue
        if all(g.adj[u] >> w & 1 for w in combo) and \
                all(g.adj[v] >> w & 1 for w in combo):
            cands.append(mask_of(combo))

    best = 0

    def pack(idx, used, count):
        nonlocal best
        best = max(best, count)
        if count + (len(cands) - idx) <= best:
            return
        for i in range(idx, len(cands)):
            if not cands[i] & used:
                pack(i + 1, used | cands[i], count + 1)

    pack(0, 0, 0)
    return best


# -- absorbers ----------------------------------------------------------------

def test_absorber_on_complete_graph():
    k6 = complete_graph(6)
    cert = certify_absorber(k6, VertexSet.of(k6, [0, 1, 2]),
                            VertexSet.of(k6, [3, 4, 5]), r=3, t=1)
    assert cert is not None
    assert verify_absorber(k6, cert)
    assert len(cert.factor_of_a.members) == 1
    assert len(cert.factor_of_a_union_s.members) == 2


def test_absorber_divisibility_absent():
    k6 = complete_graph(6)
    assert certify_absorber(k6, VertexSet.of(k6, [0, 1, 2]),
                            VertexSet.of(k6, [3, 4]), r=3, t=1) is None


def test_absorber_size_cap_absent():
    k9 = complete_graph(9)
    assert certify_absorber(k9, VertexSet.of(k9, [0, 1, 2]),
                            VertexSet.of(k9, range(3, 9)), r=3, t=1) is None
    assert certify_absorber(k9, VertexSet.of(k9, [0, 1, 2]),
                            VertexSet.of(k9, range(3, 9)), r=3, t=2) is not None


def test_absorber_preconditions():
    k6 = complete_graph(6)
    with pytest.raises(ValueError):
        certify_absorber(k6, VertexSet.of(k6, [0, 1]), VertexSet.of(k6, [3, 4, 5]),
                         r=3, t=1)
    with pytest.raises(ValueError):
        certify_absorber(k6, VertexSet.of(k6, [0, 1, 2]),
                         VertexSet.of(k6, [2, 3, 4]), r=3, t=1)


# -- reachable sets ------------------------------------------------------------

def test_reachable_on_k4():
    k4 = complete_graph(4)
    cert = certify_reachable(k4, 0, 1, VertexSet.of(k4, [2, 3]), r=3)
    assert cert is not None and verify_reachable(k4, cert)


def test_certificate_checks_raise_without_assert(monkeypatch):
    k6 = complete_graph(6)
    monkeypatch.setattr(absorption, "verify_absorber", lambda g, cert: False)
    with pytest.raises(SelfCheckError):
        certify_absorber(k6, VertexSet.of(k6, [0, 1, 2]),
                         VertexSet.of(k6, [3, 4, 5]), r=3, t=1)
    k4 = complete_graph(4)
    monkeypatch.setattr(absorption, "verify_reachable", lambda g, cert: False)
    with pytest.raises(SelfCheckError):
        certify_reachable(k4, 0, 1, VertexSet.of(k4, [2, 3]), r=3)


def test_reachable_wrong_size_absent():
    k4 = complete_graph(4)
    assert certify_reachable(k4, 0, 1, VertexSet.of(k4, [2]), r=3) is None


def test_reachable_preconditions():
    k4 = complete_graph(4)
    with pytest.raises(ValueError):
        certify_reachable(k4, 0, 0, VertexSet.of(k4, [2, 3]), r=3)
    with pytest.raises(ValueError):
        certify_reachable(k4, 0, 1, VertexSet.of(k4, [1, 2]), r=3)


# -- the explicit gadget ---------------------------------------------------------

@pytest.mark.parametrize("r", [2, 3, 4])
def test_gadget_certifies_with_four_cliques(r):
    gad = build_reachable_gadget(r)
    g = gad.graph
    assert g.n == 4 * r + 1
    assert len(gad.reach_set) == 4 * r - 1
    cert = certify_reachable(g, gad.u, gad.v, gad.reach_set, r)
    assert cert is not None
    assert len(cert.factor_u.members) == 4
    assert len(cert.factor_v.members) == 4

    # the four structurally named cliques, side u:
    tiles_u = CliqueTiling(r, [
        VertexSet.of(g, [gad.u] + list(gad.parts["tail_u"])),
        VertexSet.of(g, [x for x in gad.parts["clique_left"] if x != 3 * r]),
        VertexSet.of(g, [x for x in gad.parts["clique_right"] if x != 4 * r]),
        VertexSet.of(g, [4 * r] + list(gad.parts["tail_v"])),
    ])
    assert verify_tiling(g, tiles_u)
    assert covered(tiles_u) == gad.reach_set.mask | (1 << gad.u)
    # side v, mirrored
    tiles_v = CliqueTiling(r, [
        VertexSet.of(g, [gad.v] + list(gad.parts["tail_v"])),
        VertexSet.of(g, [x for x in gad.parts["clique_right"] if x != 3 * r]),
        VertexSet.of(g, [x for x in gad.parts["clique_left"] if x != 2 * r]),
        VertexSet.of(g, [2 * r] + list(gad.parts["tail_u"])),
    ])
    assert verify_tiling(g, tiles_v)
    assert covered(tiles_v) == gad.reach_set.mask | (1 << gad.v)


def test_gadget_endpoints_not_adjacent_to_far_side():
    gad = build_reachable_gadget(3)
    assert not (gad.graph.adj[gad.u] >> gad.v & 1)


# -- disjoint reachable sets ------------------------------------------------------

def test_disjoint_reachable_on_clique():
    k12 = complete_graph(12)
    sets = find_disjoint_reachable_sets(k12, 0, 1, r=3, t=1, limit=100)
    assert len(sets) == 5          # floor((12-2)/2) disjoint pairs
    used = 0
    for s in sets:
        assert not s.mask & used
        used |= s.mask
        assert verify_reachable(k12, certify_reachable(k12, 0, 1, s, 3))


def test_disjoint_reachable_respects_limit():
    k12 = complete_graph(12)
    assert len(find_disjoint_reachable_sets(k12, 0, 1, 3, 1, limit=2)) == 2


def test_disjoint_reachable_disconnected_endpoints():
    g = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    assert find_disjoint_reachable_sets(g, 0, 3, r=3, t=1, limit=5) == []
    assert find_disjoint_reachable_sets(g, 0, 3, r=2, t=1, limit=5) == []


def test_disjoint_reachable_greedy_vs_exhaustive_packing():
    g = random_gnp(20, 0.8, seed=606)
    for (u, v) in [(0, 1), (2, 9), (5, 17)]:
        certs = find_disjoint_reachable_sets(g, u, v, r=3, t=1, limit=50)
        exact = exhaustive_max_disjoint_reachable(g, u, v, 3)
        assert len(certs) <= exact
        # greedy first-fit over cliques loses at most a constant factor;
        # on dense instances it routinely matches, and with a small limit
        # it matches exactly
        small = find_disjoint_reachable_sets(g, u, v, r=3, t=1, limit=3)
        assert len(small) == min(3, exact)


def test_disjoint_reachable_larger_sizes():
    # path endpoints at distance 2 in a sparse graph have no common
    # (r-1)-clique, but a 5-set with factors on both sides can exist
    k6 = complete_graph(6)
    sets = find_disjoint_reachable_sets(k6, 0, 1, r=3, t=2, limit=4)
    sizes = sorted(len(s) for s in sets)
    assert sizes and sizes[0] == 2
    for s in sets:
        assert len(s) in (2, 5)
        assert verify_reachable(k6, certify_reachable(k6, 0, 1, s, 3))


def reference_disjoint_reachable_sets(g, u, v, r, t, limit, within=None):
    """find_disjoint_reachable_sets as it was when it built certificates:
    every candidate through certify_reachable, which builds both canonical
    tilings and re-verifies them."""
    universe = (g.full_mask() if within is None else within.mask)
    universe &= ~((1 << u) | (1 << v))
    out, used = [], 0

    def candidates():
        yield from iter_clique_masks(g, r - 1, universe & g.adj[u] & g.adj[v])
        for k in range(2, t + 1):
            avail = list(iter_bits(universe & ~used))
            if len(avail) < k * r - 1:
                return
            for combo in combinations(avail, k * r - 1):
                yield mask_of(combo)

    budget = absorption.CANDIDATE_BUDGET
    for cm in candidates():
        if budget <= 0 or len(out) >= limit:
            break
        budget -= 1
        if cm & used:
            continue
        cert = certify_reachable(g, u, v, VertexSet(g, cm), r)
        if cert is not None:
            out.append(cert)
            used |= cm
    return out


def test_closedness_counts_what_certificates_count():
    """Each pair's count equals the certificate-building search's, on
    seeded G(n, p), n 8..14, r 2..4, t 1..2, closed and inner-closed."""
    rng = SplitMix64(3301)
    nonzero = 0
    for _ in range(40):
        n = 8 + rng.randrange(7)
        g = random_gnp(n, 0.45 + 0.45 * rng.random(), rng.next_u64())
        r, t = 2 + rng.randrange(3), 1 + rng.randrange(2)
        u_set = VertexSet.of(g, rng.sample(range(n), 2 + rng.randrange(n - 1)))
        inner = rng.randrange(2) == 1
        rep = closedness_report(g, u_set, r, t, pair_budget=5, inner=inner,
                                per_pair_limit=4, seed=rng.randrange(100))
        for (a, b, count) in rep.per_pair:
            want = reference_disjoint_reachable_sets(
                g, a, b, r, t, 4, within=u_set if inner else None)
            assert count == len(want), (n, r, t, inner, a, b)
            nonzero += count > 0
    assert nonzero >= 20


def test_reachable_sets_are_those_the_certificates_hold():
    g = random_gnp(12, 0.7, 33)
    for (u, v, r, t) in ((0, 1, 3, 2), (2, 9, 2, 2), (4, 7, 4, 1)):
        sets = find_disjoint_reachable_sets(g, u, v, r, t, limit=6)
        certs = reference_disjoint_reachable_sets(g, u, v, r, t, 6)
        assert sets == [c.s for c in certs]


def test_a_tampered_reachable_factor_is_a_defect(monkeypatch):
    """Vertices 2..6 form a K_5; u = 0 sees 2 and 3, v = 1 sees 4 and 5, so
    {2, .., 6} is the one reachable set (t = 2).  A first descent that
    returns as many tiles as a factor needs, but tiles that overlap, that
    are no cliques or that have the wrong sizes, raises SelfCheckError in
    every check that searches for a factor."""
    k5 = [(i, j) for i in range(2, 7) for j in range(i + 1, 7)]
    g = Graph(7, k5 + [(0, 2), (0, 3), (1, 4), (1, 5)])
    assert find_disjoint_reachable_sets(g, 0, 1, 3, 2, limit=4) == [
        VertexSet.of(g, range(2, 7))]
    real = tiling._lex_greedy_masks

    def overlapping(g, r, active):        # the first tile, over and over
        tiles = real(g, r, active)
        return tiles[:1] * len(tiles)

    def ascending_chunks(g, r, active):   # {1, 2, 3} is no clique
        vs = list(iter_bits(active))
        return [mask_of(vs[i:i + r]) for i in range(0, len(vs), r)]

    def resized(g, r, active):            # cliques of r - 1 and r + 1 vertices
        tiles = real(g, r, active)
        if len(tiles) < 2:
            return tiles
        top = 1 << tiles[0].bit_length() - 1
        return [tiles[0] ^ top, tiles[1] | top] + tiles[2:]

    a = VertexSet.of(g, range(2, 7))
    for tampered in (overlapping, ascending_chunks, resized):
        monkeypatch.setattr(tiling, "_lex_greedy_masks", tampered)
        for check in (
                lambda: has_factor(g, 3, within=VertexSet.of(g, range(1, 7))),
                lambda: find_disjoint_reachable_sets(g, 0, 1, 3, 2, limit=4),
                lambda: closedness_report(g, VertexSet.of(g, [0, 1]), 3, 2,
                                          pair_budget=1),
                lambda: certify_xi_absorbing(g, a, 3, Fraction(1, 7))):
            with pytest.raises(SelfCheckError, match="failed re-verification"):
                check()


# -- absorbing sets ------------------------------------------------------------------

def test_xi_absorbing_complete_graph():
    k12 = complete_graph(12)
    a = VertexSet.of(k12, range(6))
    verdict = certify_xi_absorbing(k12, a, r=3, xi=Fraction(1, 4))
    assert verdict.absorbing and verdict.mode == "exhaustive"
    assert verdict.checked > 0


def test_xi_absorbing_refuted_on_triangle_free():
    c6 = cycle_graph(6)
    verdict = certify_xi_absorbing(c6, VertexSet(c6, 0), r=3, xi=Fraction(1, 2))
    assert not verdict.absorbing
    assert verdict.witness_r is not None
    assert has_factor(c6, 3, within=verdict.witness_r).tiling is None


def test_xi_absorbing_modes_agree_on_planted_instances():
    rng = SplitMix64(1234)
    for i in range(6):
        g = random_gnp(12, 0.5 + 0.04 * i, rng.next_u64())
        a = VertexSet.of(g, range(6))
        ex = certify_xi_absorbing(g, a, r=3, xi=Fraction(1, 4))
        sa = absorption._xi_sampled(g, a, r=3, xi=Fraction(1, 4),
                                    samples=400, seed=i)
        if ex.absorbing:
            assert sa.absorbing   # sampled can never refute a true absorber
        if not sa.absorbing:
            assert not ex.absorbing
            assert has_factor(g, 3,
                              within=VertexSet(g, a.mask | sa.witness_r.mask)
                              ).tiling is None


def test_xi_absorbing_past_the_cap_samples():
    # n = 20 and floor(xi * n) = 10 are both past the exhaustive cap, so the
    # check samples instead of refusing, and says so
    g = random_gnp(20, 0.5, 1)
    verdict = certify_xi_absorbing(g, VertexSet.of(g, range(6)), 3,
                                   Fraction(1, 2), samples=30)
    assert verdict.mode == "sampled"
    assert 1 <= verdict.checked <= 30


@pytest.mark.parametrize("n", [15, 16, 17])
@pytest.mark.parametrize("size", [4, 5])
def test_the_size_cap_picks_the_xi_path(n, size):
    # exhaustive exactly when n <= 16 and floor(xi * n) <= 4
    g = complete_graph(n)
    a = VertexSet.of(g, range(6))
    xi = Fraction(size, n)
    verdict = certify_xi_absorbing(g, a, 3, xi, samples=40, seed=5)
    outside = n - 6
    if n <= 16 and size <= 4:
        assert verdict.mode == "exhaustive"
        # every leftover of size 0 or 3 (|A| + s divisible by 3)
        assert verdict.checked == 1 + len(list(combinations(range(outside), 3)))
    else:
        assert verdict.mode == "sampled"
        want = absorption._xi_sampled(g, a, 3, xi, samples=40, seed=5)
        assert (verdict.checked, verdict.witness_r) == (want.checked, None)
        assert verdict.checked == 40
    assert verdict.absorbing


def test_leftover_checks_build_no_factor_record(monkeypatch):
    """The xi checks ask only whether each leftover has a factor: with
    ``has_factor`` and the canonical tiling made to raise, they return the
    same verdicts, and refute at the same leftover after the same count."""
    def refuse(*args, **kwargs):
        raise AssertionError("a leftover check built a factor record")

    monkeypatch.setattr(tiling, "has_factor", refuse)
    monkeypatch.setattr(absorption, "has_factor", refuse)
    monkeypatch.setattr(tiling, "_canonical_tiling", refuse)
    k12 = complete_graph(12)
    assert certify_xi_absorbing(k12, VertexSet.of(k12, range(6)), 3,
                                Fraction(1, 4)) == AbsorbingVerdict(
        True, "exhaustive", 1 + len(list(combinations(range(6), 3))))
    k20 = complete_graph(20)
    assert certify_xi_absorbing(k20, VertexSet.of(k20, range(6)), 3,
                                Fraction(1, 2), samples=30) == AbsorbingVerdict(
        True, "sampled", 30)
    # checked counts and witnesses as the record-building check found them
    for seed, exhaustive, sampled in ((12, (17, (7, 10, 11)), (22, (7, 10, 11))),
                                      (95, (21, (9, 10, 11)), (16, (9, 10, 11)))):
        g = random_gnp(12, 0.7, seed)
        a = VertexSet.of(g, range(6))
        ex = certify_xi_absorbing(g, a, 3, Fraction(1, 3))
        sa = absorption._xi_sampled(g, a, 3, Fraction(1, 3), samples=300, seed=7)
        assert (ex.absorbing, ex.mode) == (False, "exhaustive")
        assert (sa.absorbing, sa.mode) == (False, "sampled")
        assert (ex.checked, ex.witness_r.vertices()) == exhaustive
        assert (sa.checked, sa.witness_r.vertices()) == sampled


def reference_absorbs_every(g, a, r, mode, leftovers):
    """_absorbs_every with a search of its own per leftover: no memo, and
    each search builds its own free sets."""
    checked = 0
    for combo in leftovers:
        checked += 1
        rm = mask_of(combo)
        if tiling._factor_masks(g, r, a.mask | rm) is None:
            return AbsorbingVerdict(False, mode, checked,
                                    witness_r=VertexSet(g, rm))
    return AbsorbingVerdict(True, mode, checked)


def xi_cases():
    """(g, A, r, xi) on seeded G(n, p) and K_n minus a perfect matching,
    n 12..18, r 3..4, |A| = 2r, xi 1/4..5/8."""
    rng = SplitMix64(3302)
    for i in range(24):
        n, r = 12 + rng.randrange(7), 3 + rng.randrange(2)
        if i % 4 == 3:
            n += n % 2
            g = Graph(n, [(x, y) for x in range(n) for y in range(x + 1, n)
                          if (x, y) != (x & ~1, x | 1)])
        else:
            g = random_gnp(n, 0.55 + 0.35 * rng.random(), rng.next_u64())
        a = VertexSet.of(g, rng.sample(range(n), 2 * r))
        yield g, a, r, Fraction(1 + rng.randrange(4), 8) + Fraction(1, 8)


def test_xi_checks_match_a_search_per_leftover(monkeypatch):
    """Same verdict, ``checked`` and witness as one search per leftover,
    exhaustive and sampled, with refuting leftovers among the cases."""
    got = [(certify_xi_absorbing(g, a, r, xi, samples=300, seed=4),
            absorption._xi_sampled(g, a, r, xi, samples=300, seed=5))
           for g, a, r, xi in xi_cases()]
    monkeypatch.setattr(absorption, "_absorbs_every", reference_absorbs_every)
    want = [(certify_xi_absorbing(g, a, r, xi, samples=300, seed=4),
             absorption._xi_sampled(g, a, r, xi, samples=300, seed=5))
            for g, a, r, xi in xi_cases()]
    assert got == want
    verdicts = [v for pair in got for v in pair]
    assert sum(not v.absorbing for v in verdicts) >= 8
    assert sum(v.absorbing for v in verdicts) >= 8
    assert {v.mode for v in verdicts} == {"exhaustive", "sampled"}


def test_xi_checks_search_each_distinct_leftover_once(monkeypatch):
    """One factor search per distinct leftover up to the verdict, while
    ``checked`` counts every draw."""
    calls = []
    drawn = []
    real_search, real_every = absorption._factor_masks, absorption._absorbs_every

    def counting(g, r, universe, **kwargs):
        calls.append(universe)
        return real_search(g, r, universe, **kwargs)

    def recording(g, a, r, mode, leftovers):
        drawn.append(list(leftovers))
        return real_every(g, a, r, mode, drawn[-1])

    monkeypatch.setattr(absorption, "_factor_masks", counting)
    monkeypatch.setattr(absorption, "_absorbs_every", recording)
    repeated = 0
    for g, a, r, xi in xi_cases():
        calls.clear()
        verdict = absorption._xi_sampled(g, a, r, xi, samples=300, seed=6)
        seen = [mask_of(c) for c in drawn[-1][:verdict.checked]]
        assert verdict.checked == (300 if verdict.absorbing else len(seen))
        assert calls == [a.mask | rm for rm in dict.fromkeys(seen)]
        repeated += len(seen) - len(calls)
    assert repeated > 1000


def test_absorbing_composition_yields_factor():
    # certified absorbing set + near-perfect tiling of the rest = factor
    k12 = complete_graph(12)
    a = VertexSet.of(k12, range(6))
    verdict = certify_xi_absorbing(k12, a, r=3, xi=Fraction(1, 4))
    assert verdict.absorbing
    outside = VertexSet(k12, k12.full_mask() & ~a.mask)
    tiling = CliqueTiling(3, [VertexSet.of(k12, [6, 7, 9]),
                              VertexSet.of(k12, [8, 10, 11])])
    leftover = outside.mask & ~covered(tiling)
    assert leftover.bit_count() <= 3   # within the absorbing tolerance
    res = has_factor(k12, 3, within=VertexSet(k12, a.mask | leftover))
    assert res.tiling is not None
    combined = CliqueTiling(3, tiling.members + res.tiling.members)
    assert verify_tiling(k12, combined)
    assert covered(combined) == k12.full_mask()


# -- closedness -----------------------------------------------------------------------

def test_closedness_on_complete_graph():
    n = 10
    kn = complete_graph(n)
    rep = closedness_report(kn, VertexSet(kn, kn.full_mask()), r=3, t=1,
                            pair_budget=100)
    assert rep.all_pairs
    assert rep.min_count >= (n - 2) // 2
    assert rep.implied_beta == Fraction(rep.min_count, n)


def test_closedness_disconnected_graph():
    g = Graph(8, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3),
                  (4, 5), (4, 6), (5, 6), (4, 7), (5, 7), (6, 7)])
    rep = closedness_report(g, VertexSet(g, g.full_mask()), r=3, t=1,
                            pair_budget=100)
    assert rep.min_count == 0


def test_closedness_inner_variant_restricts_sets():
    k12 = complete_graph(12)
    u = VertexSet.of(k12, range(6))
    rep = closedness_report(k12, u, r=3, t=1, pair_budget=100, inner=True)
    assert rep.variant == "inner-closed"
    # inside a 6-set, two endpoints leave four vertices: two disjoint pairs
    assert rep.min_count == 2


def test_closedness_pair_budget_sampling():
    k12 = complete_graph(12)
    rep = closedness_report(k12, VertexSet(k12, k12.full_mask()), r=3, t=1,
                            pair_budget=10, seed=3)
    assert not rep.all_pairs and rep.pairs_evaluated == 10


def test_closedness_on_lower_bound_construction_is_observational():
    # the report is computed and the implied beta recorded; no target value
    # is asserted, only internal consistency
    from cfl.constructions import build_lower_bound_graph
    b = build_lower_bound_graph(12, 3, 2, Fraction(3, 12), cycle_graph(9))
    g = b.graph
    rep = closedness_report(g, VertexSet(g, g.full_mask()), r=3, t=1,
                            pair_budget=20, seed=1)
    assert rep.pairs_evaluated == 20
    assert 0 <= rep.min_count <= rep.median_count <= rep.max_count
    assert rep.implied_beta == Fraction(rep.min_count, 12)


@pytest.mark.parametrize("budget", [5, 6, 7, 8])
def test_closedness_median_is_the_statistics_median(budget):
    # an odd pair count takes the middle count, an even one the mean of two
    g = random_gnp(12, 0.6, 5)
    rep = closedness_report(g, VertexSet(g, g.full_mask()), r=3, t=1,
                            pair_budget=budget, seed=2)
    counts = [c for (_, _, c) in rep.per_pair]
    assert rep.pairs_evaluated == budget == len(counts)
    assert rep.median_count == float(statistics.median(counts))
    assert type(rep.median_count) is float
    assert (rep.min_count, rep.max_count) == (min(counts), max(counts))


def test_verifiers_refuse_tampered_certificates():
    """verify_absorber and verify_reachable re-check what the certifiers
    built: sets that overlap, an A larger than r t, or a tiling that does
    not cover its set fails."""
    k6 = complete_graph(6)
    cert = certify_absorber(k6, VertexSet.of(k6, [0, 1, 2]),
                            VertexSet.of(k6, [3, 4, 5]), r=3, t=1)
    assert verify_absorber(k6, cert)
    # A = S: both tilings are the one triangle S, but A meets S
    triangle = CliqueTiling(3, [cert.s])
    assert not verify_absorber(k6, replace(cert, a=cert.s, factor_of_a=triangle,
                                           factor_of_a_union_s=triangle))
    assert not verify_absorber(k6, replace(cert, t=0))          # |A| > r t
    assert not verify_absorber(k6, replace(cert, factor_of_a=cert.factor_of_a_union_s))
    k4 = complete_graph(4)
    reach = certify_reachable(k4, 0, 1, VertexSet.of(k4, [2, 3]), r=3)
    assert verify_reachable(k4, reach)
    # S holds both endpoints, and both tilings cover it
    both = CliqueTiling(2, [VertexSet.of(k4, [0, 1]), VertexSet.of(k4, [2, 3])])
    assert not verify_reachable(k4, replace(reach, s=VertexSet(k4, 15), r=2,
                                            factor_u=both, factor_v=both))
    assert not verify_reachable(k4, replace(reach, factor_u=reach.factor_v))
