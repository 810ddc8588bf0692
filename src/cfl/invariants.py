"""Clique-independence invariants and the tiny-n degree-threshold oracle.

The central quantity is the l-independence number: the maximum size of a
vertex subset inducing no K_l (l=2 recovers the ordinary independence
number).  The exact solver is a branch-and-bound over (chosen, candidate)
bitsets; the upper bound partitions the candidates into cliques greedily.
Each part Q is built beside a clique K of chosen vertices, inside their
common neighbourhood, and contributes at most l-1-|K| vertices: with the
final set S, (S & Q) | K is a clique of the K_l-free S.  For l = 2 no
candidate has a chosen neighbour, so K is empty and the cap is l-1.

Resource caps are node counts, not wall clock, so capped results are
machine-independent and reproducible.  As in every exact search of the
package, the recursion counts its nodes in a local ``nodes`` and raises
``graphs.SearchCapExceeded`` on the first node past ``node_cap``; the entry
point catches it and returns the incumbent with ``exact=False`` and
``nodes_explored = node_cap + 1``.

The tiny-n oracle never runs that solver for n <= 7.  It decides
alpha_l(G) <= b for all labeled graphs of one minimum-degree level at once:
that holds exactly when every (b+1)-subset of the vertices contains a K_l,
which is a handful of mask tests on the graphs' pair-bit encodings.  Only
the graphs that pass are built and checked for a K_r-factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import List, Optional

from .graphs import (Graph, SearchCapExceeded, VertexSet, _has_clique,
                     iter_bits, iter_clique_masks)
from .rng import SplitMix64


@dataclass
class AlphaResult:
    """Outcome of an l-independence computation.

    ``exact`` is False when a node cap stopped the search; the witness is
    then the best K_l-free set found, a valid lower bound.
    """
    value: int
    witness: VertexSet
    exact: bool
    nodes_explored: int
    ell: int


def _clique_cover_bound(adj, chosen: int, mask: int, ell: int) -> int:
    """Upper bound on how many vertices of ``mask`` a K_ell-free superset of
    ``chosen`` can add, from a greedy clique partition of ``mask``.

    Each part is seeded at its lowest vertex v.  A clique K is first grown
    greedily inside ``chosen & N(v)``, lowest index first, and the part then
    extends only inside the common neighbourhood of K.  For a K_ell-free
    S containing ``chosen``, (S & Q) | K is a clique of S for the part Q,
    so Q contributes at most min(|Q|, ell-1-|K|) vertices.  That cap is at
    least 1, because every candidate v keeps ``chosen | {v}`` K_ell-free,
    so |K| + 1 <= ell - 1.
    """
    bound = 0
    rest = mask
    while rest:
        low = rest & -rest
        v = low.bit_length() - 1
        avail = rest & adj[v]
        cap = ell - 1
        common = chosen & adj[v]
        while common:
            w = (common & -common).bit_length() - 1
            common &= adj[w]
            avail &= adj[w]
            cap -= 1
        clique = low
        size = 1
        while avail:
            ulow = avail & -avail
            u = ulow.bit_length() - 1
            clique |= ulow
            size += 1
            avail &= adj[u]
        rest &= ~clique
        bound += size if size < cap else cap
    return bound


def _feasible_candidates(adj, ell: int, chosen: int, cand: int, v: int) -> int:
    """Filter ``cand`` after v joins ``chosen``: drop any u whose addition
    would complete a K_ell (i.e. a K_{ell-2} sits in chosen & N(u) & N(v))."""
    out = cand
    for u in iter_bits(cand & adj[v]):
        if _has_clique(adj, ell - 2, chosen & adj[u] & adj[v]):
            out &= ~(1 << u)
    return out


def alpha_ell_exact(g: Graph, ell: int, node_cap: Optional[int] = None,
                    within: Optional[VertexSet] = None) -> AlphaResult:
    """Exact maximum K_ell-free subset, with witness.

    Branches on a maximum-degree candidate (degree inside the candidate
    set); include branch first.  A node cap turns the result into a flagged
    lower bound instead of raising.
    """
    if ell < 2:
        raise ValueError("ell must be >= 2")
    adj = g.adj
    universe = g.full_mask() if within is None else within.mask
    nodes = 0
    best_mask = 0
    best_size = 0

    def branch(chosen: int, size: int, cand: int) -> None:
        nonlocal nodes, best_mask, best_size
        nodes += 1
        if node_cap is not None and nodes > node_cap:
            raise SearchCapExceeded
        if size > best_size:
            best_size, best_mask = size, chosen
        if not cand:
            return
        if size + _clique_cover_bound(adj, chosen, cand, ell) <= best_size:
            return
        # highest degree inside cand, ties to the higher index
        v = -1
        vdeg = -1
        rest = cand
        while rest:
            low = rest & -rest
            rest ^= low
            u = low.bit_length() - 1
            d = (adj[u] & cand).bit_count()
            if d >= vdeg:
                v, vdeg = u, d
        branch(chosen | (1 << v), size + 1,
               _feasible_candidates(adj, ell, chosen, cand & ~(1 << v), v))
        branch(chosen, size, cand & ~(1 << v))

    try:
        branch(0, 0, universe)
        exact = True
    except SearchCapExceeded:
        exact = False
    return AlphaResult(value=best_size, witness=VertexSet(g, best_mask),
                       exact=exact, nodes_explored=nodes, ell=ell)


def alpha_ell_greedy(g: Graph, ell: int, seed: int,
                     within: Optional[VertexSet] = None) -> AlphaResult:
    """Randomized greedy K_ell-free set: one shuffled pass, keep a vertex
    whenever the set stays K_ell-free.  Always a valid lower bound."""
    if ell < 2:
        raise ValueError("ell must be >= 2")
    adj = g.adj
    universe = g.full_mask() if within is None else within.mask
    order = list(iter_bits(universe))
    SplitMix64(seed).shuffle(order)
    chosen = 0
    for v in order:
        if not _has_clique(adj, ell - 1, chosen & adj[v]):
            chosen |= 1 << v
    return AlphaResult(value=chosen.bit_count(), witness=VertexSet(g, chosen),
                       exact=False, nodes_explored=len(order), ell=ell)


def has_clique_cover(g: Graph, v: int, r: int,
                     forbidden: Optional[VertexSet] = None) -> Optional[VertexSet]:
    """First (lexicographic) K_r through v avoiding ``forbidden``, else None."""
    banned = forbidden.mask if forbidden is not None else 0
    if banned >> v & 1:
        raise ValueError("distinguished vertex may not be forbidden")
    if r < 1:
        raise ValueError("r must be >= 1")
    if r == 1:
        return VertexSet(g, 1 << v)
    pool = g.adj[v] & ~banned
    for m in iter_clique_masks(g, r - 1, pool):
        return VertexSet(g, m | (1 << v))
    return None


# -- the tiny-n oracle ----------------------------------------------------


@dataclass
class RttResult:
    """Largest minimum degree over n-vertex graphs that satisfy the
    clique-independence ceiling yet have no K_r-factor."""
    n: int
    r: int
    ell: int
    alpha_bound: int
    value: Optional[int]
    witness: Optional[Graph]
    exhaustive: bool
    degenerate: bool
    feasible: bool
    graphs_scanned: int


_EXHAUSTIVE_LIMIT = 7


def _pair_index_masks(n: int) -> List[int]:
    """For each vertex, the incidence mask over the C(n,2) pair slots."""
    masks = [0] * n
    k = 0
    for u in range(n):
        for v in range(u + 1, n):
            masks[u] |= 1 << k
            masks[v] |= 1 << k
            k += 1
    return masks


def _graph_from_pair_mask(n: int, mask: int) -> Graph:
    edges = []
    k = 0
    for u in range(n):
        for v in range(u + 1, n):
            if mask >> k & 1:
                edges.append((u, v))
            k += 1
    return Graph(n, edges)


def rtt_oracle(n: int, r: int, ell: int, alpha_bound: int, seed: int = 0,
               tries: int = 2000) -> RttResult:
    """Maximize min degree subject to "clique-independence <= alpha_bound"
    and "no K_r-factor".

    n <= 7: exhaustive over all 2^C(n,2) labeled graphs, scanned in
    decreasing-min-degree order, ascending pair mask within a degree
    (isomorph rejection is unnecessary for exhaustiveness).  Each degree
    level is filtered at once by the test "every (alpha_bound+1)-subset
    holds a K_ell"; only the survivors, in order, run ``has_factor``, and
    ``graphs_scanned`` counts graphs up to the answer in that order.  Larger
    n: seeded randomized search, flagged non-exhaustive.  r not dividing n
    is accepted but flagged degenerate (no graph has a factor, so the factor
    constraint is vacuous).
    """
    if n < 1 or r < 2 or ell < 2:
        raise ValueError("need n >= 1, r >= 2, ell >= 2")
    degenerate = n % r != 0
    if n <= _EXHAUSTIVE_LIMIT:
        return _rtt_exhaustive(n, r, ell, alpha_bound, degenerate)
    return _rtt_search(n, r, ell, alpha_bound, degenerate, seed, tries)


def _rtt_exhaustive(n: int, r: int, ell: int, alpha_bound: int,
                    degenerate: bool) -> RttResult:
    import numpy as np

    from . import tiling

    npairs = n * (n - 1) // 2
    total = 1 << npairs
    pair_masks = _pair_index_masks(n)
    masks_arr = np.arange(total, dtype=np.uint32)
    mindeg = np.full(total, 255, dtype=np.uint8)
    for v in range(n):
        dv = np.bitwise_count(masks_arr & np.uint32(pair_masks[v])).astype(np.uint8)
        np.minimum(mindeg, dv, out=mindeg)
    # pair bits of each ell-clique; the pair slot of u < v is the one bit
    # their incidence masks share
    clique_masks = {t: np.uint32(sum(pair_masks[u] & pair_masks[v]
                                     for u, v in combinations(t, 2)))
                    for t in combinations(range(n), ell)}
    scanned = 0
    for degree in range(n - 1, -1, -1):
        level = masks_arr[mindeg == degree]   # ascending, as a stable sort keeps it
        alive = np.arange(len(level))   # positions in the level still passing
        cand = level
        # a graph m passes when each (alpha_bound+1)-set holds an ell-set t
        # with m & K_t == K_t; the empty set holds none, so a negative
        # alpha_bound passes nothing
        for s in combinations(range(n), max(alpha_bound + 1, 0)):
            hit = np.zeros(len(cand), dtype=bool)
            for t in combinations(s, ell):
                k = clique_masks[t]
                hit |= (cand & k) == k
            alive, cand = alive[hit], cand[hit]
            if not len(cand):
                break
        for pos, mask in zip(alive.tolist(), cand.tolist()):
            g = _graph_from_pair_mask(n, mask)
            if degenerate or tiling.has_factor(g, r).tiling is None:
                return RttResult(n, r, ell, alpha_bound, value=degree, witness=g,
                                 exhaustive=True, degenerate=degenerate,
                                 feasible=True, graphs_scanned=scanned + pos + 1)
        scanned += len(level)
    return RttResult(n, r, ell, alpha_bound, value=None, witness=None,
                     exhaustive=True, degenerate=degenerate, feasible=False,
                     graphs_scanned=scanned)


def _rtt_search(n: int, r: int, ell: int, alpha_bound: int, degenerate: bool,
                seed: int, tries: int) -> RttResult:
    """Random sampling plus a min-degree hill climb; every incumbent is
    re-certified by the exact solvers before acceptance."""
    from . import tiling
    from .graphs import random_gnp

    rng = SplitMix64(seed)
    best: Optional[Graph] = None
    best_val = -1
    scanned = 0

    def feasible(g: Graph) -> bool:
        if alpha_ell_exact(g, ell).value > alpha_bound:
            return False
        if degenerate:
            return True
        return tiling.has_factor(g, r).tiling is None

    for t in range(tries):
        p = 0.2 + 0.6 * rng.random()
        g = random_gnp(n, p, rng.next_u64())
        scanned += 1
        if not feasible(g):
            continue
        g = _climb(g, feasible)
        if g.min_degree() > best_val:
            best_val = g.min_degree()
            best = g
    return RttResult(n, r, ell, alpha_bound,
                     value=best_val if best is not None else None,
                     witness=best, exhaustive=False, degenerate=degenerate,
                     feasible=best is not None, graphs_scanned=scanned)


def _climb(g: Graph, feasible) -> Graph:
    """Add edges at a minimum-degree vertex while feasibility survives."""
    current = g
    for _ in range(200):
        degs = current.degrees()
        v = min(range(current.n), key=lambda i: (degs[i], i))
        non = [u for u in range(current.n)
               if u != v and not current.has_edge(u, v)]
        if not non:
            break
        non.sort(key=lambda u: (degs[u], u))
        improved = False
        for u in non:
            candidate = Graph(current.n, list(current.edges()) + [(min(u, v), max(u, v))])
            if feasible(candidate):
                current = candidate
                improved = True
                break
        if not improved:
            break
    return current
