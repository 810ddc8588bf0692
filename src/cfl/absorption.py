"""Certifiers and small-scale searchers for absorption-method objects.

The objects certified here:

* absorber for a set S: a disjoint set A with both G[A] and G[A u S]
  admitting clique factors;
* reachable set for a vertex pair {u, v}: a set S with both G[{u} u S] and
  G[{v} u S] admitting clique factors;
* absorbing set: a set A swallowing every small leftover R (G[A u R] has a
  factor whenever |R| is small and divisibility permits);
* closedness: statistics of how many disjoint reachable sets connect the
  pairs of a vertex set.

Every factor comes from ``tiling._factor_masks``, which re-checks each one
it returns with ``tiling._clique_union`` (pairwise-disjoint r-cliques
covering exactly their set) or raises ``graphs.SelfCheckError`` (a defect
in cfl); nothing here checks a factor a second way.  A certificate stores
its factor tilings, and ``verify_absorber`` and ``verify_reachable`` hold
stored tilings to that same union test, so a tampered certificate is
refused.  The absorbing-set and closedness checks build no certificate:
they read only the bare factor masks.  An absorbing-set check searches each
distinct leftover once, and every search shares free sets built once over
the whole graph.  Searches are greedy first-fit over candidates in
lexicographic order: the counts are honest lower bounds, and exact packing
lives only in the test oracles.
"""

from __future__ import annotations

from itertools import combinations
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from .graphs import (Graph, ParameterError, SelfCheckError, VertexSet,
                     iter_bits, iter_clique_masks, mask_of)
from .numbers import exact_fraction
from .records import Record
from .rng import SplitMix64, derive_seed
from .tiling import (CliqueTiling, _clique_union, _factor_masks, _free_sets,
                     has_factor)

if TYPE_CHECKING:
    from fractions import Fraction


class AbsorberCertificate(Record):
    """A set A (at most r*t vertices, disjoint from S) such that both A and
    A u S carry perfect clique tilings; the tilings are the certificate."""
    s: VertexSet
    a: VertexSet
    r: int
    t: int
    factor_of_a: CliqueTiling
    factor_of_a_union_s: CliqueTiling


class ReachableCertificate(Record):
    """A set S such that {u} u S and {v} u S both carry perfect clique
    tilings."""
    u: int
    v: int
    s: VertexSet
    r: int
    factor_u: CliqueTiling
    factor_v: CliqueTiling


def _factors(g: Graph, r: int, masks) -> Optional[List[CliqueTiling]]:
    """A K_r-factor of each mask in turn, or None at the first without one."""
    out = []
    for mask in masks:
        out.append(has_factor(g, r, within=VertexSet(g, mask)).tiling)
        if out[-1] is None:
            return None
    return out


def _is_factor_of(g: Graph, tiling: CliqueTiling, mask: int) -> bool:
    """Whether the tiling's tiles are pairwise-disjoint r-cliques whose
    union is exactly mask."""
    return _clique_union(g, tiling.r, [s.mask for s in tiling.members]) == mask


def verify_absorber(g: Graph, cert: AbsorberCertificate) -> bool:
    if (cert.a.mask & cert.s.mask or len(cert.a) > cert.r * cert.t
            or len(cert.a) % cert.r):
        return False
    return (_is_factor_of(g, cert.factor_of_a, cert.a.mask)
            and _is_factor_of(g, cert.factor_of_a_union_s,
                              cert.a.mask | cert.s.mask))


def verify_reachable(g: Graph, cert: ReachableCertificate) -> bool:
    um, vm = 1 << cert.u, 1 << cert.v
    if cert.s.mask & (um | vm):
        return False
    return (_is_factor_of(g, cert.factor_u, cert.s.mask | um)
            and _is_factor_of(g, cert.factor_v, cert.s.mask | vm))


def certify_absorber(g: Graph, s: VertexSet, a: VertexSet, r: int,
                     t: int) -> Optional[AbsorberCertificate]:
    """Certificate iff both factor queries succeed; size or divisibility
    failure returns None (not an error)."""
    if len(s) != r:
        raise ParameterError("s_set", f"expected exactly r = {r} vertices")
    if a.mask & s.mask:
        raise ParameterError("a_set", "meets s_set")
    if len(a) > r * t or len(a) % r != 0:
        return None
    factors = _factors(g, r, (a.mask, a.mask | s.mask))
    if factors is None:
        return None
    cert = AbsorberCertificate(s, a, r, t, *factors)
    if not verify_absorber(g, cert):
        raise SelfCheckError(f"absorber certificate for S={s.vertices()} "
                             "failed re-verification")
    return cert


def certify_reachable(g: Graph, u: int, v: int, s: VertexSet,
                      r: int) -> Optional[ReachableCertificate]:
    if u == v:
        raise ParameterError("v", "equals u")
    if u in s or v in s:
        raise ParameterError("s_set", "contains u or v")
    if (len(s) + 1) % r != 0:
        return None
    factors = _factors(g, r, (s.mask | (1 << u), s.mask | (1 << v)))
    if factors is None:
        return None
    cert = ReachableCertificate(u, v, s, r, *factors)
    if not verify_reachable(g, cert):
        raise SelfCheckError(f"reachable certificate for ({u}, {v}) "
                             "failed re-verification")
    return cert


# The most candidate sets one find_disjoint_reachable_sets call examines.
CANDIDATE_BUDGET = 50_000


def find_disjoint_reachable_sets(g: Graph, u: int, v: int, r: int, t: int,
                                 limit: int, within: Optional[VertexSet] = None
                                 ) -> List[VertexSet]:
    """Greedy first-fit collection of pairwise-disjoint reachable sets for
    {u, v}, sizes r-1, 2r-1, ..., rt-1 in that order, candidates in
    lexicographic order.  The count is a lower bound on the true maximum.

    Size r-1 has a fast path: such a set works iff it is an (r-1)-clique
    adjacent to both endpoints.  Larger sizes enumerate the subsets of the
    vertices still unused when that size starts.  At most CANDIDATE_BUDGET
    candidates are examined in all.  A candidate S is kept when S u {u} and
    S u {v} both have a factor; the sets come back bare, and
    ``certify_reachable`` builds the certificate of any one of them.
    """
    universe = (g.full_mask() if within is None else within.mask)
    universe &= ~((1 << u) | (1 << v))
    out: List[VertexSet] = []
    used = 0

    def candidates():
        yield from iter_clique_masks(g, r - 1, universe & g.adj[u] & g.adj[v])
        for k in range(2, t + 1):
            size = k * r - 1
            avail = list(iter_bits(universe & ~used))
            if len(avail) < size:
                return
            for combo in combinations(avail, size):
                yield mask_of(combo)

    budget = CANDIDATE_BUDGET
    for cm in candidates():
        if budget <= 0 or len(out) >= limit:
            break
        budget -= 1
        if cm & used:
            continue
        if (_factor_masks(g, r, cm | (1 << u)) is not None
                and _factor_masks(g, r, cm | (1 << v)) is not None):
            out.append(VertexSet(g, cm))
            used |= cm
    return out


class AbsorbingVerdict(Record):
    """Exhaustive verdicts are ground truth; sampled verdicts are one-sided
    (absorbing=True means "no violating leftover found in checked trials")."""
    absorbing: bool
    mode: str
    checked: int
    witness_r: Optional[VertexSet] = None


EXHAUSTIVE_ABSORB_N_CAP = 16
EXHAUSTIVE_ABSORB_SIZE_CAP = 4


def _leftover_space(g: Graph, a: VertexSet, r: int, xi):
    """The vertices outside A and the leftover sizes s <= floor(xi*n) with
    |A| + s divisible by r."""
    outside = [w for w in range(g.n) if w not in a]
    sizes = [s for s in range(0, int(exact_fraction(xi) * g.n) + 1)
             if (len(a) + s) % r == 0 and s <= len(outside)]
    return outside, sizes


def certify_xi_absorbing(g: Graph, a: VertexSet, r: int, xi,
                         samples: int = 2000, seed: int = 0) -> AbsorbingVerdict:
    """Check that every qualifying leftover R (|R| <= xi*n, |A u R|
    divisible by r, R outside A) leaves G[A u R] with a clique factor.

    Exhaustive, over every leftover, when n <= EXHAUSTIVE_ABSORB_N_CAP and
    floor(xi*n) <= EXHAUSTIVE_ABSORB_SIZE_CAP; otherwise ``samples`` seeded
    draws, and the verdict says "sampled"."""
    if (g.n > EXHAUSTIVE_ABSORB_N_CAP
            or int(exact_fraction(xi) * g.n) > EXHAUSTIVE_ABSORB_SIZE_CAP):
        return _xi_sampled(g, a, r, xi, samples, seed)
    outside, sizes = _leftover_space(g, a, r, xi)
    leftovers = (c for s in sizes for c in combinations(outside, s))
    return _absorbs_every(g, a, r, "exhaustive", leftovers)


def _xi_sampled(g: Graph, a: VertexSet, r: int, xi, samples: int,
                seed: int) -> AbsorbingVerdict:
    """The one-sided check: ``samples`` leftovers, each a uniform size then
    a uniform set of that size.  ``certify_xi_absorbing`` runs it past the
    exhaustive cap; tests call it directly on small graphs."""
    outside, sizes = _leftover_space(g, a, r, xi)
    rng = SplitMix64(derive_seed(seed, "xi-absorb"))
    leftovers = (rng.sample(outside, sizes[rng.randrange(len(sizes))])
                 for _ in range(samples if sizes else 0))
    return _absorbs_every(g, a, r, "sampled", leftovers)


def _absorbs_every(g: Graph, a: VertexSet, r: int, mode: str,
                   leftovers) -> AbsorbingVerdict:
    """Test each leftover in turn; the first without a factor refutes.

    ``checked`` counts every leftover, but a leftover met before is not
    searched again.  The searches share one set of free sets, built over
    the whole graph (A and every vertex outside it): restricted to A u R
    they are still free, so every verdict is that of a search of its own."""
    free = _free_sets(g, r, g.full_mask())
    absorbed = set()
    checked = 0
    for combo in leftovers:
        checked += 1
        rm = mask_of(combo)
        if rm in absorbed:
            continue
        if _factor_masks(g, r, a.mask | rm, _free=free) is None:
            return AbsorbingVerdict(False, mode, checked,
                                    witness_r=VertexSet(g, rm))
        absorbed.add(rm)
    return AbsorbingVerdict(True, mode, checked)


class ClosednessReport(Record):
    """Disjoint-reachable-set counts over sampled (or all) pairs of U.
    implied_beta is min_count / |U|, an observational quantity."""
    r: int
    t: int
    variant: str                  # "closed" | "inner-closed"
    pairs_evaluated: int
    all_pairs: bool
    min_count: int
    median_count: float
    max_count: int
    implied_beta: Fraction
    per_pair: List[Tuple[int, int, int]]


def closedness_report(g: Graph, u_set: VertexSet, r: int, t: int,
                      pair_budget: int, inner: bool = False,
                      per_pair_limit: int = 8, seed: int = 0
                      ) -> ClosednessReport:
    """Greedy disjoint-reachable counts across pairs of U, which needs at
    least two vertices.  The inner variant restricts the reachable sets
    themselves to U."""
    verts = u_set.vertices()
    pairs = [(verts[i], verts[j]) for i in range(len(verts))
             for j in range(i + 1, len(verts))]
    all_pairs = len(pairs) <= pair_budget
    if not all_pairs:
        # sampled pairs run in lexicographic order, as all pairs do
        rng = SplitMix64(derive_seed(seed, "closedness"))
        pairs = sorted(rng.sample(pairs, pair_budget))
    within = u_set if inner else None
    counts: List[Tuple[int, int, int]] = []
    for (a, b) in pairs:
        sets = find_disjoint_reachable_sets(
            g, a, b, r, t, limit=per_pair_limit, within=within)
        counts.append((a, b, len(sets)))
    values = sorted(c for (_, _, c) in counts)
    half = len(values) // 2   # values[~half] is values[half - 1] for an even count
    from fractions import Fraction
    return ClosednessReport(
        r=r, t=t, variant="inner-closed" if inner else "closed",
        pairs_evaluated=len(pairs), all_pairs=all_pairs,
        min_count=values[0],
        median_count=(values[half] + values[~half]) / 2,
        max_count=values[-1],
        implied_beta=Fraction(values[0], len(u_set)),
        per_pair=counts)


# -- the explicit reachable-set gadget ------------------------------------------


class ReachGadget(Record):
    """Two endpoint vertices plus a (4r-1)-vertex reachable set built from
    two (r+1)-cliques sharing one vertex and two clique tails hanging off
    the endpoints."""
    graph: Graph
    u: int
    v: int
    reach_set: VertexSet
    parts: Dict[str, VertexSet]


def build_reachable_gadget(r: int) -> ReachGadget:
    """Assemble the explicit gadget on 4r+1 vertices.

    Layout: u=0, v=1; tail C = 2..r (clique joined to u and to the left
    anchor); tail D = r+1..2r-1 (clique joined to v and to the right
    anchor); left clique = 2r..3r with anchor 2r; right clique = 3r..4r
    with anchor 4r; the two big cliques share vertex 3r.  The reachable set
    is everything except u and v; G[set + u] and G[set + v] decompose into
    four r-cliques each.
    """
    ParameterError.at_least("r", r, 2)
    u, v = 0, 1
    tail_u = list(range(2, r + 1))
    tail_v = list(range(r + 1, 2 * r))
    left = list(range(2 * r, 3 * r + 1))
    right = list(range(3 * r, 4 * r + 1))
    anchor_u, anchor_v = 2 * r, 4 * r
    cliques = (tail_u + [u], tail_u + [anchor_u], tail_v + [v],
               tail_v + [anchor_v], left, right)
    n = 4 * r + 1
    g = Graph(n, (e for vs in cliques for e in combinations(vs, 2)))
    reach = VertexSet.of(g, range(2, n))
    parts = {
        "tail_u": VertexSet.of(g, tail_u),
        "tail_v": VertexSet.of(g, tail_v),
        "clique_left": VertexSet.of(g, left),
        "clique_right": VertexSet.of(g, right),
    }
    return ReachGadget(graph=g, u=u, v=v, reach_set=reach, parts=parts)
