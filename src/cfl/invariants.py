"""Clique-independence invariants and the tiny-n degree-threshold oracle.

The central quantity is the l-independence number: the maximum size of a
vertex subset inducing no K_l (l=2 recovers the ordinary independence
number).  The exact solver is a branch-and-bound over (chosen, candidate)
bitsets with colour-ordered branching, as in Tomita's MCS: one greedy clique
partition of each node's candidates both bounds the node and orders its
children.  Each part Q is built beside a clique K of chosen vertices, inside
their common neighbourhood, and contributes at most l-1-|K| vertices: with
the final set S, (S & Q) | K is a clique of the K_l-free S.  For l = 2 no
candidate has a chosen neighbour, so K is empty and the cap is l-1.

Resource caps are node counts, not wall clock, so capped results are
machine-independent and reproducible.  As in every exact search of the
package, the recursion counts its nodes in a local ``nodes`` and raises
``graphs.SearchCapExceeded`` on the first node past ``node_cap``; the entry
point catches it and returns the incumbent with ``exact=False`` and
``nodes_explored = node_cap + 1``.

The tiny-n oracle never runs that solver for n <= 7.  It holds each set of
labeled graphs as one Python int, bit m standing for the graph with pair
mask m, and decides every graph at once with whole-int operations: a
bit-sliced count gives the minimum-degree levels, alpha_l(G) <= b holds
exactly when every (b+1)-subset of the vertices contains a K_l, and G has a
K_r-factor exactly when it contains one of the few factors of K_n.  Only the
answer's witness is built as a ``Graph``.  Past n = 7 the oracle scans a
fixed family of barrier graphs instead, each certified by the exact solvers,
so its answer is a seed-free lower bound.  A member whose factor search
passes ``_MEMBER_CAP`` nodes is skipped; an answer "infeasible" after a
skip counts its skips in ``members_skipped``, which the CLI reports as a
cap hit.
"""

from __future__ import annotations

from itertools import combinations
from typing import List, Optional, Tuple

from .graphs import (Graph, ParameterError, SearchCapExceeded, VertexSet,
                     _first_clique, _greedy_clique_free, iter_bits)
from .records import Record
from .rng import SplitMix64


class AlphaResult(Record):
    """Outcome of an l-independence computation.

    ``exact`` is False when a node cap stopped the search; the witness is
    then the best K_l-free set found, a valid lower bound.
    """
    value: int
    witness: VertexSet
    exact: bool
    nodes_explored: int
    ell: int


def _clique_partition(adj, chosen: int, cand: int, ell: int) -> List[Tuple[int, int]]:
    """Greedy clique partition of ``cand`` as (part, cum) pairs in build
    order, where ``cum`` bounds how many vertices of that part and the ones
    before it a K_ell-free superset of ``chosen`` can add.

    Each part Q is seeded at its lowest vertex v.  A clique K is first grown
    greedily inside ``chosen & N(v)``, lowest index first, and Q then extends
    only inside the common neighbourhood of K, so Q adds at most
    min(|Q|, ell-1-|K|).  That cap is at least 1, because every candidate v
    keeps ``chosen | {v}`` K_ell-free, so |K| + 1 <= ell - 1.
    """
    parts = []
    cum = 0
    rest = cand
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
            clique |= ulow
            size += 1
            avail &= adj[ulow.bit_length() - 1]
        rest ^= clique
        cum += size if size < cap else cap
        parts.append((clique, cum))
    return parts


def _clique_reach(adj, k: int, near: int, rest: int) -> int:
    """The vertices of ``rest`` adjacent to every vertex of some k-clique
    inside ``near``: the union, over those cliques, of their common
    neighbourhoods within ``rest``.  A partial clique whose common
    neighbourhood adds nothing new is not extended."""
    if k == 0:
        return rest
    reach = 0
    while near:
        low = near & -near
        near ^= low
        w = low.bit_length() - 1
        left = rest & adj[w] & ~reach
        if left:
            reach |= left if k == 1 else _clique_reach(adj, k - 1, near & adj[w], left)
    return reach


def _feasible_candidates(adj, ell: int, chosen: int, cand: int, v: int) -> int:
    """Filter ``cand`` after v joins ``chosen``: drop any u whose addition
    would complete a K_ell, i.e. every u of cand & N(v) that sees all of a
    K_{ell-2} in chosen & N(v), found in one pass over those cliques."""
    return cand ^ _clique_reach(adj, ell - 2, chosen & adj[v], cand & adj[v])


def alpha_ell_exact(g: Graph, ell: int, node_cap: Optional[int] = None,
                    within: Optional[VertexSet] = None) -> AlphaResult:
    """Exact maximum K_ell-free subset, with witness.

    Each node takes its candidates' clique partition once and branches on
    its parts from last to first, each from the highest vertex down: the
    vertex joins ``chosen`` in a child, then leaves the candidates.  What is
    left lies in parts 1..j, so the node stops once its size plus part j's
    ``cum`` cannot beat the incumbent, which only a strictly larger set
    replaces.  A node cap turns the result into a flagged lower bound.
    """
    ParameterError.at_least("ell", ell, 2)
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
        for part, cum in reversed(_clique_partition(adj, chosen, cand, ell)):
            while part:
                if size + cum <= best_size:
                    return
                v = part.bit_length() - 1
                bit = 1 << v
                part ^= bit
                cand ^= bit
                branch(chosen | bit, size + 1,
                       _feasible_candidates(adj, ell, chosen, cand, v))

    try:
        branch(0, 0, universe)
        exact = True
    except SearchCapExceeded:
        exact = False
    return AlphaResult(value=best_size, witness=VertexSet(g, best_mask),
                       exact=exact, nodes_explored=nodes, ell=ell)


def alpha_ell_greedy(g: Graph, ell: int, seed: int) -> AlphaResult:
    """Randomized greedy K_ell-free set: one shuffled pass, keep a vertex
    whenever the set stays K_ell-free.  Always a valid lower bound."""
    ParameterError.at_least("ell", ell, 2)
    order = list(range(g.n))
    SplitMix64(seed).shuffle(order)
    chosen = _greedy_clique_free(g.adj, ell, order)
    return AlphaResult(value=chosen.bit_count(), witness=VertexSet(g, chosen),
                       exact=False, nodes_explored=len(order), ell=ell)


def has_clique_cover(g: Graph, v: int, r: int,
                     forbidden: Optional[VertexSet] = None) -> Optional[VertexSet]:
    """First (lexicographic) K_r through v avoiding ``forbidden``, else None."""
    ParameterError.at_least("r", r, 1)
    banned = forbidden.mask if forbidden is not None else 0
    if banned >> v & 1:
        raise ParameterError("forbidden", f"contains the distinguished vertex {v}")
    if r == 1:
        return VertexSet(g, 1 << v)
    m = _first_clique(g.adj, r - 1, g.adj[v] & ~banned)
    return None if m is None else VertexSet(g, m | (1 << v))


# -- the tiny-n oracle ----------------------------------------------------


class RttResult(Record):
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
    # barrier members skipped at _MEMBER_CAP by a scan that found none; not
    # a field, so not a report key, until report schema 2
    members_skipped = 0


_EXHAUSTIVE_LIMIT = 7


def _pair_index_masks(n: int) -> List[int]:
    """For each vertex, the incidence mask over the C(n,2) pair slots."""
    masks = [0] * n
    for k, (u, v) in enumerate(combinations(range(n), 2)):
        masks[u] |= 1 << k
        masks[v] |= 1 << k
    return masks


def _clique_pairs(pair_masks: List[int], t) -> int:
    """Pair slots of the clique on the vertices ``t``; the slot of u < v is
    the one bit their incidence masks share."""
    pairs = 0
    for u, v in combinations(t, 2):
        pairs |= pair_masks[u] & pair_masks[v]
    return pairs


def _graph_from_pair_mask(n: int, mask: int) -> Graph:
    return Graph(n, (e for k, e in enumerate(combinations(range(n), 2))
                     if mask >> k & 1))


def rtt_oracle(n: int, r: int, ell: int, alpha_bound: int) -> RttResult:
    """Maximize min degree subject to "clique-independence <= alpha_bound"
    and "no K_r-factor".

    n <= 7: exhaustive over all 2^C(n,2) labeled graphs, scanned in
    decreasing-min-degree order, ascending pair mask within a degree
    (isomorph rejection is unnecessary for exhaustiveness); the answer is
    the first graph in that order that passes "every (alpha_bound+1)-subset
    holds a K_ell" and contains no K_r-factor of K_n, and ``graphs_scanned``
    counts graphs up to it.  Larger n: the first member of a fixed barrier
    family that the exact solvers certify (``_rtt_barriers``), a lower bound
    flagged non-exhaustive, with ``graphs_scanned`` counting members up to
    it.  r not dividing n is accepted but flagged degenerate (no graph has a
    factor, so the factor constraint is vacuous).
    """
    ParameterError.at_least("n", n, 1)
    ParameterError.at_least("r", r, 2)
    ParameterError.at_least("ell", ell, 2)
    degenerate = n % r != 0
    if n <= _EXHAUSTIVE_LIMIT:
        return _rtt_exhaustive(n, r, ell, alpha_bound, degenerate)
    return _rtt_barriers(n, r, ell, alpha_bound, degenerate)


def _kn_factor_pair_masks(n: int, r: int) -> List[int]:
    """Pair masks of the K_r-factors of K_n, none when r does not divide n.

    Each factor is built around the lowest vertex not yet covered, so every
    partition of the vertices into r-sets appears once.
    """
    pair_masks = _pair_index_masks(n)
    out: List[int] = []

    def extend(rest: List[int], acc: int) -> None:
        if not rest:
            out.append(acc)
            return
        low, tail = rest[0], rest[1:]
        for others in combinations(tail, r - 1):
            extend([v for v in tail if v not in others],
                   acc | _clique_pairs(pair_masks, (low,) + others))

    if n % r == 0:
        extend(list(range(n)), 0)
    return out


def _rtt_exhaustive(n: int, r: int, ell: int, alpha_bound: int,
                    degenerate: bool) -> RttResult:
    # A set of labeled graphs is one int: bit m stands for the graph whose
    # pair mask is m, so every filter below is a handful of whole-int ops.
    npairs = n * (n - 1) // 2
    total = 1 << npairs
    everything = (1 << total) - 1
    slots = []   # slots[k]: the graphs holding pair slot k
    for k in range(npairs):
        # m has bit k set on the upper half of each 2^(k+1)-block of masks:
        # one block, doubled up to the full 2^npairs bits
        width = 2 << k
        block = ((1 << (1 << k)) - 1) << (1 << k)
        while width < total:
            block |= block << width
            width <<= 1
        slots.append(block)

    def holding(pairs: int) -> int:
        """The graphs that hold every pair slot of ``pairs``."""
        out = everything
        for k in iter_bits(pairs):
            out &= slots[k]
        return out

    pair_masks = _pair_index_masks(n)
    # at_least[j]: the graphs of min degree >= j, from a bit-sliced count of
    # each vertex's pairs (count[j]: at least j of the slots seen so far)
    at_least = [everything] * n + [0]
    for v in range(n):
        count = [everything] + [0] * (n - 1)
        for seen, k in enumerate(iter_bits(pair_masks[v]), 1):
            for j in range(seen, 0, -1):
                count[j] |= count[j - 1] & slots[k]
        for j in range(1, n):
            at_least[j] &= count[j]
    # alpha_ell(G) <= b exactly when each (b+1)-set holds an ell-set t with
    # K_t in G; the empty set holds none, so a negative b passes nothing
    cliques = {t: holding(_clique_pairs(pair_masks, t))
               for t in combinations(range(n), ell)}
    passing = everything
    for s in combinations(range(n), max(alpha_bound + 1, 0)):
        hit = 0
        for t in combinations(s, ell):
            hit |= cliques[t]
        passing &= hit
    with_factor = 0   # K_n has no factor when degenerate
    for f in _kn_factor_pair_masks(n, r):
        with_factor |= holding(f)
    scanned = 0
    for degree in range(n - 1, -1, -1):
        level = at_least[degree] & ~at_least[degree + 1]
        found = level & passing & ~with_factor
        if found:
            # ascending pair mask within a level
            m = (found & -found).bit_length() - 1
            scanned += (level & ((1 << m) - 1)).bit_count() + 1
            return RttResult(n, r, ell, alpha_bound, value=degree,
                             witness=_graph_from_pair_mask(n, m),
                             exhaustive=True, degenerate=degenerate,
                             feasible=True, graphs_scanned=scanned)
        scanned += level.bit_count()
    return RttResult(n, r, ell, alpha_bound, value=None, witness=None,
                     exhaustive=True, degenerate=degenerate, feasible=False,
                     graphs_scanned=scanned)


_MEMBER_CAP = 2000   # factor-search nodes per barrier member


def _rtt_barriers(n: int, r: int, ell: int, alpha_bound: int,
                  degenerate: bool) -> RttResult:
    """The first member of H v (K_{n_1} u ... u K_{n_k}), by descending min
    degree d, then ascending adjacency tuple, with alpha_ell <= alpha_bound
    and no K_r-factor, both decided exactly (a factor search past
    ``_MEMBER_CAP`` nodes skips the member, and an infeasible answer counts
    the skips in ``members_skipped``).  H is T(a, q) on 0..a-1 (v in
    part v mod q; T(0, 1) is empty) or C_a, a >= 4; the cliques follow,
    largest first, in k <= alpha_bound parts (one vertex each is independent)
    of at least d + 1 - a vertices at level d.  H = K_s, one clique and parts
    (c, 1) give the divisibility, space and cover barriers."""
    from . import tiling

    def cliques(h: int, start: int, most: int, low: int, top: int = n):
        if start == n:
            yield []
        for size in range(min(n - start, top), low - 1, -1) if most > 0 else ():
            block = ((1 << size) - 1) << start
            own = [h | block ^ 1 << v for v in range(start, start + size)]
            yield from (own + t for t in cliques(h, start + size, most - 1, low, size))

    cores = []   # cores[a]: the neighbour masks of each H on a vertices
    for a in range(n + 1):
        full, rest = (1 << a) - 1, (1 << n) - (1 << a)
        cores.append([[full ^ sum(1 << u for u in range(v % q, a, q)) | rest
                       for v in range(a)] for q in range(1, max(a, 1) + 1)])
        if a >= 4:
            cores[a].append([1 << (v - 1) % a | 1 << (v + 1) % a | rest
                             for v in range(a)])
    scanned = skipped = 0
    for degree in range(n - 1, -1, -1):
        level = set()
        for a, hs in enumerate(cores):
            for tail in cliques((1 << a) - 1, a, alpha_bound, max(degree + 1 - a, 1)):
                level.update(adj for adj in (tuple(h + tail) for h in hs)
                             if min(map(int.bit_count, adj)) == degree)
        for adj in sorted(level):
            scanned += 1
            g = Graph._from_adj(list(adj))
            try:
                if alpha_ell_exact(g, ell).value <= alpha_bound and (degenerate or
                        tiling._factor_masks(g, r, g.full_mask(), _MEMBER_CAP) is None):
                    return RttResult(n, r, ell, alpha_bound, value=degree,
                                     witness=g, exhaustive=False, degenerate=degenerate,
                                     feasible=True, graphs_scanned=scanned)
            except SearchCapExceeded:
                skipped += 1
    res = RttResult(n, r, ell, alpha_bound, value=None, witness=None,
                    exhaustive=False, degenerate=degenerate, feasible=False,
                    graphs_scanned=scanned)
    res.members_skipped = skipped
    return res
