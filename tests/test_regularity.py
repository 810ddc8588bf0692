"""Regularity certification against definitional enumeration."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cfl import regularity
from cfl.graphs import (Graph, SelfCheckError, VertexSet,
                        complete_multipartite, empty_graph, iter_bits,
                        random_gnp)
from cfl.regularity import (Partition, PartitionFormatError, is_regular_pair,
                            is_super_regular, pair_density, parse_partition,
                            reduced_graph)
from cfl.rng import SplitMix64

from support import make_super_regular


def definitional_regular(g, x, y, eps: Fraction):
    """Literal quantifier sweep over all qualifying subset pairs, with a
    subset-sum table for the edge counts."""
    xs, ys = x.vertices(), y.vertices()
    a, b = len(xs), len(ys)
    d0 = pair_density(g, x, y)
    min_x = max(1, -((-eps * a).__floor__()))   # ceil(eps*a)
    min_y = max(1, -((-eps * b).__floor__()))
    for xm in range(1, 1 << a):
        ax = xm.bit_count()
        if ax < min_x:
            continue
        degs = []
        for j, yy in enumerate(ys):
            degs.append(sum(1 for i, xx in enumerate(xs)
                            if xm >> i & 1 and g.adj[xx] >> yy & 1))
        esum = [0] * (1 << b)
        for ym in range(1, 1 << b):
            low = ym & -ym
            esum[ym] = esum[ym ^ low] + degs[low.bit_length() - 1]
        for ym in range(1, 1 << b):
            ay = ym.bit_count()
            if ay < min_y:
                continue
            if abs(Fraction(esum[ym], ax * ay) - d0) > eps:
                return False
    return True


def full_scan_exhaustive(g, x, y, eps: Fraction):
    """The exhaustive checker before the minimum-size reduction: every
    qualifying X' (all 2^|X| masks, ascending) against the top-q and
    bottom-q vertices of Y for every q >= min_y, comparing Fractions."""
    d0 = pair_density(g, x, y)
    xs = x.vertices()
    ys = y.vertices()
    a, b = len(xs), len(ys)
    min_x = regularity._qualifying_min(eps, a)
    min_y = regularity._qualifying_min(eps, b)
    ydeg_masks = []
    xpos = {v: i for i, v in enumerate(xs)}
    for yv in ys:
        m = 0
        for v in iter_bits(g.adj[yv] & x.mask):
            m |= 1 << xpos[v]
        ydeg_masks.append(m)
    lo = d0 - eps
    hi = d0 + eps
    for xmask in range(1, 1 << a):
        ax = xmask.bit_count()
        if ax < min_x:
            continue
        degs = sorted(((ydeg_masks[j] & xmask).bit_count(), j)
                      for j in range(b))
        prefix = [0]
        for dgt, _ in degs:
            prefix.append(prefix[-1] + dgt)
        total = prefix[-1]
        for q in range(min_y, b + 1):
            top = total - prefix[b - q]
            if Fraction(top, ax * q) > hi:
                sel = [j for _, j in degs[b - q:]]
                return regularity._violation(g, x, y, xs, ys, xmask, sel, eps,
                                             d0, ax, q, top)
            bot = prefix[q]
            if Fraction(bot, ax * q) < lo:
                sel = [j for _, j in degs[:q]]
                return regularity._violation(g, x, y, xs, ys, xmask, sel, eps,
                                             d0, ax, q, bot)
    return regularity.RegularityVerdict(epsilon=eps, mode="exhaustive",
                                        regular=True, base_density=d0)


def split_pair(g, a, b):
    return VertexSet.of(g, range(a)), VertexSet.of(g, range(a, a + b))


def test_pair_density_examples():
    kb = complete_multipartite([4, 4])
    x, y = split_pair(kb, 4, 4)
    assert pair_density(kb, x, y) == 1
    e8 = empty_graph(8)
    assert pair_density(e8, *split_pair(e8, 4, 4)) == 0
    k4 = complete_multipartite([1, 1, 1, 1])
    assert pair_density(k4, VertexSet.of(k4, [0, 1]), VertexSet.of(k4, [2, 3])) == 1


def test_pair_density_symmetric_and_guarded(small_graph_battery):
    for g in small_graph_battery[:10]:
        if g.n < 6:
            continue
        x = VertexSet.of(g, range(3))
        y = VertexSet.of(g, range(3, 6))
        assert pair_density(g, x, y) == pair_density(g, y, x)
    kb = complete_multipartite([2, 2])
    with pytest.raises(ValueError):
        pair_density(kb, VertexSet.of(kb, [0, 1]), VertexSet.of(kb, [1, 2]))
    with pytest.raises(ValueError):
        pair_density(kb, VertexSet(kb, 0), VertexSet.of(kb, [1]))


def test_complete_and_empty_pairs_regular():
    kb = complete_multipartite([10, 10])
    x, y = split_pair(kb, 10, 10)
    for eps in (0.1, 0.3):
        assert is_regular_pair(kb, x, y, eps).regular
    e = empty_graph(20)
    for eps in (0.1, 0.3):
        assert is_regular_pair(e, *split_pair(e, 10, 10), eps).regular


def test_single_cross_edge_is_irregular_with_witness():
    g = Graph(20, [(0, 10)])
    x, y = split_pair(g, 10, 10)
    v = is_regular_pair(g, x, y, 0.2)
    assert not v.regular
    wx, wy = v.violation
    assert 0 in wx and 10 in wy
    assert abs(pair_density(g, wx, wy) - v.base_density) > Fraction(1, 5)
    assert v.violation_density == pair_density(g, wx, wy)


def test_witness_check_raises_without_assert(monkeypatch):
    g = Graph(20, [(0, 10)])
    x, y = split_pair(g, 10, 10)
    monkeypatch.setattr(regularity, "pair_density", lambda g, wx, wy: Fraction(-1))
    with pytest.raises(SelfCheckError):
        is_regular_pair(g, x, y, 0.2)


def test_float_epsilon_is_read_at_its_shortest_decimal():
    # K_{10,10} minus one edge: at eps = 1/5 the 2x2 corner around the
    # missing edge (density 3/4 against 99/100) qualifies and breaks
    # regularity; at the binary double of 0.2, just above 1/5, subsets need
    # 3 vertices a side and the pair is regular.
    g = Graph(20, [(u, v) for u in range(10) for v in range(10, 20)
                   if (u, v) != (0, 10)])
    x, y = split_pair(g, 10, 10)
    as_float = is_regular_pair(g, x, y, 0.2)
    as_fraction = is_regular_pair(g, x, y, Fraction(1, 5))
    assert as_float.epsilon == Fraction(1, 5)
    assert as_float == as_fraction and not as_float.regular
    assert is_regular_pair(g, x, y, Fraction(0.2)).regular


def test_exhaustive_matches_definitional_enumeration():
    rng = SplitMix64(2718)
    for i in range(25):
        a = 4 + rng.randrange(4)
        b = 4 + rng.randrange(4)
        g = random_gnp(a + b, (1 + rng.randrange(8)) / 10, rng.next_u64())
        x, y = split_pair(g, a, b)
        for eps in (Fraction(1, 10), Fraction(1, 4), Fraction(1, 2)):
            got = is_regular_pair(g, x, y, eps)
            assert got.regular == definitional_regular(g, x, y, eps)
            if not got.regular:
                wx, wy = got.violation
                assert len(wx) >= eps * a and len(wy) >= eps * b
                assert abs(pair_density(g, wx, wy) - got.base_density) > eps


@settings(max_examples=300, deadline=None)
@given(a=st.integers(1, 10), b=st.integers(1, 10),
       p=st.integers(0, 10), graph_seed=st.integers(0, 2 ** 32),
       eps=st.integers(1, 36).map(lambda k: Fraction(k, 24)))
def test_min_size_scan_matches_the_full_scan(a, b, p, graph_seed, eps):
    # eps up to 3/2 makes min_x > |X| (nothing qualifies) occur too
    g = random_gnp(a + b, p / 10, graph_seed)
    x, y = split_pair(g, a, b)
    got = is_regular_pair(g, x, y, eps)
    want = full_scan_exhaustive(g, x, y, eps)
    assert got.regular == want.regular
    assert got.violation_density == want.violation_density
    if not got.regular:
        assert [s.mask for s in got.violation] == [s.mask for s in want.violation]


def test_side_twenty_pair_is_exhaustive_and_finds_a_min_size_violation():
    # K_{20,20} minus a perfect matching is 1/4-regular: subsets of at
    # least 5 a side miss at most min(|X'|, |Y'|) edges, so their density is
    # at least 4/5 against 19/20.  Emptying one 5 x 5 corner plants a
    # violation that only the minimum qualifying sizes show.
    eps = Fraction(1, 4)
    assert regularity.exhaustive_fits(20, 20, eps)
    assert not regularity.exhaustive_fits(22, 22, eps)
    full = [(u, 20 + v) for u in range(20) for v in range(20) if u != v]
    g = Graph(40, full)
    x, y = split_pair(g, 20, 20)
    v = is_regular_pair(g, x, y, eps)
    assert v.regular and v.mode == "exhaustive"
    g = Graph(40, [(u, w) for u, w in full if u >= 5 or w >= 25])
    v = is_regular_pair(g, x, y, eps)
    assert v.mode == "exhaustive" and not v.regular
    assert v.regular == definitional_regular(g, x, y, eps)
    assert [s.vertices() for s in v.violation] == [tuple(range(5)),
                                                   tuple(range(20, 25))]
    assert v.violation_density == 0


def test_past_the_work_bound_the_check_samples():
    # C(40, 10) * 40 subset scans is far past the exhaustive work bound, so
    # the check samples instead of refusing, and says so
    g = empty_graph(80)
    v = is_regular_pair(g, *split_pair(g, 40, 40), Fraction(1, 4), samples=50)
    assert v.mode == "sampled"
    assert v.regular and v.samples_used == 50


@pytest.mark.parametrize("side, mode", [(20, "exhaustive"), (22, "sampled")])
def test_the_work_bound_picks_the_path(side, mode):
    # side 20 at eps = 1/4: C(20, 5) * 20 = 310,080 <= 2^19; side 22:
    # C(22, 6) * 22 = 1,642,256 is past it
    eps = Fraction(1, 4)
    assert regularity.exhaustive_fits(side, side, eps) == (mode == "exhaustive")
    g = random_gnp(2 * side, 0.5, 7)
    x, y = split_pair(g, side, side)
    v = is_regular_pair(g, x, y, eps, samples=200, seed=3)
    assert v.mode == mode
    if mode == "sampled":
        # the same verdict as the sampled check run directly
        want = regularity._regular_sampled(g, x, y, eps, 200, 3)
        assert (v.regular, v.samples_used, v.violation_density) == \
            (want.regular, want.samples_used, want.violation_density)
    sv = is_super_regular(g, x, y, eps, 0, samples=200, seed=3)
    assert sv.regularity.mode == mode


def test_sampled_mode_is_one_sided():
    kb = complete_multipartite([20, 20])
    v = regularity._regular_sampled(kb, *split_pair(kb, 20, 20), 0.1,
                                    samples=500, seed=11)
    assert v.regular and v.mode == "sampled" and v.samples_used == 500
    g = Graph(40, [(0, 20)])
    v2 = regularity._regular_sampled(g, *split_pair(g, 20, 20), 0.01,
                                     samples=4000, seed=11)
    if not v2.regular:     # one-sided: refutation carries a verified witness
        wx, wy = v2.violation
        assert abs(pair_density(g, wx, wy) - v2.base_density) > Fraction(1, 100)


def test_sampled_agrees_with_exhaustive_on_small_pairs():
    rng = SplitMix64(515)
    for _ in range(10):
        g = random_gnp(16, 0.5, rng.next_u64())
        x, y = split_pair(g, 8, 8)
        eps = Fraction(1, 4)
        ex = is_regular_pair(g, x, y, eps)
        sa = regularity._regular_sampled(g, x, y, eps, samples=3000,
                                         seed=rng.next_u64())
        if not sa.regular:
            assert not ex.regular    # sampled never refutes a regular pair


# -- super-regularity -------------------------------------------------------------

def test_super_regular_complete_pair():
    kb = complete_multipartite([8, 8])
    v = is_super_regular(kb, *split_pair(kb, 8, 8), 0.1, 1)
    assert v.ok


def test_super_regular_flags_isolated_vertex():
    edges = [(u, v) for u in range(8) for v in range(8, 16) if u != 3]
    g = Graph(16, edges)
    v = is_super_regular(g, *split_pair(g, 8, 8), 0.3, 0.5)
    assert not v.ok and v.reason == "degree" and v.witness_vertex == 3


def test_super_regular_refuses_a_sparse_pair_and_a_low_degree_in_y():
    # an empty pair is regular at every eps, but its density 0 is below d
    e = empty_graph(16)
    v = is_super_regular(e, *split_pair(e, 8, 8), Fraction(1, 4), Fraction(1, 2))
    assert not v.ok and v.reason == "density" and v.regularity.regular
    assert v.witness_vertex is None
    # every X vertex keeps 7 of 8, but vertex 11 of Y sees no X vertex
    g = Graph(16, [(u, w) for u in range(8) for w in range(8, 16) if w != 11])
    v = is_super_regular(g, *split_pair(g, 8, 8), 0.3, 0.5)
    assert not v.ok and v.reason == "degree" and v.witness_vertex == 11


def test_super_regular_sampled_random_pair():
    # At eps = 0.1 the minimum qualifying subsets (7 of 64) of a p = 0.5
    # pair genuinely fluctuate past the tolerance, so honest min-size
    # sampling finds a real, re-verified violation.  At eps = 0.35 the same
    # pair reports a clean run.
    g = random_gnp(128, 0.5, 999)
    x = VertexSet.of(g, range(64))
    y = VertexSet.of(g, range(64, 128))
    # both eps put the 64 x 64 pair past the exhaustive work bound
    tight = is_super_regular(g, x, y, 0.1, 0.3, samples=2000,
                             seed=5)
    assert not tight.ok and tight.reason == "irregular"
    wx, wy = tight.regularity.violation
    assert abs(pair_density(g, wx, wy) - tight.regularity.base_density) > \
        Fraction(1, 10)
    loose = is_super_regular(g, x, y, 0.35, 0.3, samples=2000,
                             seed=5)
    assert loose.ok and loose.regularity.mode == "sampled"
    assert loose.witness_vertex is None     # every degree floor holds


def test_make_super_regular_complete_multipartite_removes_nothing():
    g = complete_multipartite([6, 6, 6])
    clusters = [VertexSet.of(g, range(i * 6, (i + 1) * 6)) for i in range(3)]
    out = make_super_regular(g, clusters, 0.1)
    assert all(len(r) == 0 for r in out.removed)
    assert [r.mask for r in out.refined] == [c.mask for c in clusters]
    assert out.all_ok


def test_make_super_regular_trims_planted_weak_vertices():
    # clusters of 12 joined completely except one vertex per cluster with
    # zero cross-degree
    size, k = 12, 3
    n = size * k
    weak = {0, size, 2 * size}
    edges = []
    for i in range(k):
        for j in range(i + 1, k):
            for u in range(i * size, (i + 1) * size):
                for v in range(j * size, (j + 1) * size):
                    if u in weak or v in weak:
                        continue
                    edges.append((u, v))
    g = Graph(n, edges)
    clusters = [VertexSet.of(g, range(i * size, (i + 1) * size)) for i in range(k)]
    out = make_super_regular(g, clusters, Fraction(1, 10))
    for i in range(k):
        assert sorted(out.removed[i].vertices()) == [i * size]
        assert len(out.refined[i]) == size - 1
    assert out.all_ok


def test_make_super_regular_precondition():
    g = complete_multipartite([4] * 8)
    clusters = [VertexSet.of(g, range(i * 4, (i + 1) * 4)) for i in range(8)]
    with pytest.raises(ValueError):
        make_super_regular(g, clusters, Fraction(1, 8))   # t = 7 >= 1/(2 eps) = 4


# -- partitions and reduced graphs -------------------------------------------------

def make_partition(g, k, m, exceptional=()):
    clusters = [VertexSet.of(g, range(i * m, (i + 1) * m)) for i in range(k)]
    return Partition(graph=g, exceptional=VertexSet.of(g, exceptional),
                     clusters=clusters)


def test_partition_roundtrip_and_validation():
    g = complete_multipartite([3, 3, 3])
    p = make_partition(g, 3, 3)
    p.validate()
    back = parse_partition("3 3 0\n0 1 2\n3 4 5\n6 7 8\n\n", g)
    assert [c.mask for c in back.clusters] == [c.mask for c in p.clusters]
    with pytest.raises(PartitionFormatError):
        parse_partition("junk\n", g)
    with pytest.raises(PartitionFormatError):
        parse_partition("2 3 0\n0 1 2\n", g)
    with pytest.raises(PartitionFormatError):   # empty clusters have no density
        parse_partition("2 0 9\n\n\n0 1 2 3 4 5 6 7 8\n", g)
    bad = Partition(graph=g, exceptional=VertexSet(g, 0),
                    clusters=[VertexSet.of(g, [0, 1, 2]),
                              VertexSet.of(g, [2, 3, 4]),
                              VertexSet.of(g, [5, 6, 7])])
    with pytest.raises(ValueError):
        bad.validate()


def test_partition_with_exceptional_set_roundtrip():
    g = random_gnp(11, 0.5, 3)
    p = Partition(graph=g, exceptional=VertexSet.of(g, [9, 10]),
                  clusters=[VertexSet.of(g, [0, 1, 2]),
                            VertexSet.of(g, [3, 4, 5]),
                            VertexSet.of(g, [6, 7, 8])])
    p.validate()
    back = parse_partition("3 3 2\n0 1 2\n3 4 5\n6 7 8\n9 10\n", g)
    assert back.exceptional.mask == p.exceptional.mask


def test_reduced_graph_extremes():
    g = complete_multipartite([3, 3, 3])
    p = make_partition(g, 3, 3)
    red = reduced_graph(g, p, Fraction(1, 2))
    assert red.min_degree() == 2 and len(red.weights) == 3
    e = empty_graph(9)
    red0 = reduced_graph(e, make_partition(e, 3, 3), Fraction(1, 2))
    assert red0.min_degree() == 0 and not red0.weights


def test_reduced_graph_planted_cycle():
    # densities ~0.9 along a 4-cycle of clusters, 0 elsewhere
    size, k = 5, 4
    n = size * k
    rng = SplitMix64(77)
    edges = []
    ring = {(0, 1), (1, 2), (2, 3), (0, 3)}
    for i in range(k):
        for j in range(i + 1, k):
            if (i, j) not in ring:
                continue
            for u in range(i * size, (i + 1) * size):
                for v in range(j * size, (j + 1) * size):
                    if rng.random() < 0.9:
                        edges.append((u, v))
    g = Graph(n, edges)
    red = reduced_graph(g, make_partition(g, k, size), Fraction(1, 2))
    assert set(red.weights) == ring
    assert red.min_degree() == 2


def test_reduced_min_degree_inequality_on_dichotomous_partition():
    # complete multipartite: every pair has density exactly 0 or 1, the
    # regime where the reduced-graph degree inequality is exact
    for k, m in ((4, 3), (5, 2)):
        g = complete_multipartite([m] * k)
        p = make_partition(g, k, m)
        red = reduced_graph(g, p, Fraction(1, 2))
        n = g.n
        c = Fraction(g.min_degree(), n)
        eps = Fraction(1, 100)
        d = Fraction(1, 2)
        assert red.min_degree() >= (c - 2 * eps - d) * k
