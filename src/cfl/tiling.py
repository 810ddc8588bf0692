"""Exact maximum clique tilings and factor decisions.

A K_r-tiling is a family of pairwise-disjoint r-cliques; its deficiency is
the number of vertices left uncovered; a factor is a tiling of deficiency
zero.  The solver branches on the lowest-indexed uncovered vertex: cover it
with one of its r-cliques (enumerated lazily, lexicographically) or declare
it uncovered.

Pruning rules of ``max_tiling`` (a node holds ``tiles`` and the uncovered
set ``active``; a pruned subtree cannot strictly beat the incumbent):

* ceiling: stop once the incumbent has n // r tiles;
* free set: if S is K_{l+1}-free, every K_r meets S in at most l vertices,
  so a tiling of ``active`` has at most |active & ~S| // (r - l) tiles; prune
  when ``len(tiles)`` plus the least such count over l = 1 .. r-1 cannot
  exceed the incumbent;
* coverable: only vertices with r-1 active neighbors can be covered, so at
  most (their number) // r more tiles fit.

``has_factor`` wraps ``_factor_masks``, the clique masks of the first factor
found, or None.  That first runs the greedy tiling: if it skips no vertex, it
is the search's first descent and finds the factor in |U|/r + 1 nodes, so it
runs whenever ``node_cap`` allows that many.

``_clique_union`` is the one test of what a tiling is: pairwise-disjoint
r-cliques, by ``Graph.is_clique``.  ``verify_tiling`` is that test inside
``within``, and ``_factor_masks`` passes every factor it returns, greedy or
searched, through it before returning it: one that is not a factor of its
universe raises ``graphs.SelfCheckError``, a defect in cfl.  So every caller
(``has_factor``, the absorption certifiers and checks, the rtt oracle) gets
factors that have been re-checked once.

Pruning rules of the factor search (a pruned subtree holds no factor):

* stranded: the lowest active vertex has fewer than r-1 active neighbors;
* free set: a factor of ``active`` puts at least r - l vertices outside S in
  every tile, so it needs r * |active & ~S| >= (r - l) * |active|.

The free sets S_1 .. S_{r-1} are built once per call, inside the call's
universe (``_free_sets``), each by ``graphs._greedy_clique_free`` over
one ascending-degree order.  A subset of a K_{l+1}-free set is
K_{l+1}-free, so S restricted to any deeper ``active`` still qualifies and
the root sets serve every node at r-1 popcounts each.  For the same reason
free sets built over a larger set serve too: the absorbing-set checks build
them once over the whole graph and hand them to every leftover's search
(``_factor_masks``' private ``_free``).  ``max_tiling`` builds
them only when the greedy incumbent misses the ceiling; the factor search
only at its first dead end, so queries answered on the first descent never pay
for them, and re-tests a node's bound after each failed child, because the
sets may have been built below it.  Neither rule changes the branching
order, so certificates, ``optimal`` and ``status`` are those of the unpruned
search; only ``nodes_explored`` shrinks.

Node caps: each search counts its nodes in a local ``nodes`` and raises
``graphs.SearchCapExceeded`` on the first node past ``node_cap`` (so a
capped ``max_tiling`` reports ``nodes_explored = node_cap + 1``).  The entry
point catches it once: ``max_tiling`` keeps its incumbent with
``optimal=False`` (unless the incumbent already meets the ceiling), and
``has_factor`` returns ``status="cap"``.
"""

from __future__ import annotations

from typing import List, Optional

from .graphs import (Graph, ParameterError, SearchCapExceeded, SelfCheckError,
                     VertexSet, _first_clique, _greedy_clique_free, iter_bits,
                     iter_clique_masks)
from .records import Record


class CliqueTiling(Record):
    """Pairwise-disjoint vertex sets, each inducing a complete graph of
    order r."""
    r: int
    members: List[VertexSet]

    def __len__(self) -> int:
        return len(self.members)


def _canonical_tiling(g: Graph, r: int, masks: List[int]) -> CliqueTiling:
    """The tiling of the clique ``masks``, its tiles in lexicographic order."""
    return CliqueTiling(r, sorted((VertexSet(g, m) for m in masks),
                                  key=lambda s: s.vertices()))


class TilingResult(Record):
    best: CliqueTiling
    optimal: bool
    deficiency: int
    nodes_explored: int


class FactorResult(Record):
    """``tiling`` is None unless a perfect tiling was found; ``status`` is
    one of found / none / divisibility / cap (cap = search truncated,
    existence undecided)."""
    tiling: Optional[CliqueTiling]
    status: str


def _clique_union(g: Graph, r: int, masks) -> Optional[int]:
    """The union of ``masks`` if they are pairwise-disjoint r-cliques of g,
    else None: the one test of what a K_r-tiling is."""
    union = 0
    for m in masks:
        if m.bit_count() != r or m & union or not g.is_clique(m):
            return None
        union |= m
    return union


def _checked(g: Graph, r: int, universe: int, masks: List[int]) -> List[int]:
    """``masks`` if they form a K_r-factor of ``universe``, else
    SelfCheckError (a defect in the search that found them)."""
    if _clique_union(g, r, masks) != universe:
        raise SelfCheckError(f"factor of {VertexSet(g, universe).vertices()} "
                             "failed re-verification")
    return masks


def verify_tiling(g: Graph, t: CliqueTiling, within: Optional[VertexSet] = None) -> bool:
    """Whether ``t`` is a K_r-tiling of g, inside ``within`` if given."""
    union = _clique_union(g, t.r, [s.mask for s in t.members])
    return union is not None and (within is None or not union & ~within.mask)


def _coverable_bound(adj, active: int, r: int) -> int:
    """Vertices with fewer than r-1 active neighbors can never be covered."""
    count = 0
    for v in iter_bits(active):
        if (adj[v] & active).bit_count() >= r - 1:
            count += 1
    return count // r


def _free_sets(g: Graph, r: int, universe: int) -> List[int]:
    """Greedy K_{l+1}-free sets S_l inside ``universe`` for l = 1 .. r-1.

    Vertices are visited by ascending degree within ``universe`` (ties by
    index): on a lower-bound graph that picks up the K_{l+1}-free inner part
    before the clique.
    """
    adj = g.adj
    order = sorted(iter_bits(universe),
                   key=lambda v: ((adj[v] & universe).bit_count(), v))
    return [_greedy_clique_free(adj, ell + 1, order) for ell in range(1, r)]


def _lex_greedy_masks(g: Graph, r: int, active: int) -> List[int]:
    """First fit: the incumbent of max_tiling, the first descent of _factor_masks."""
    adj = g.adj
    out = []
    rest = active
    while rest:
        low = rest & -rest
        cm = _first_clique(adj, r - 1, rest & adj[low.bit_length() - 1])
        if cm is None:
            rest ^= low
        else:
            out.append(cm | low)
            rest &= ~(cm | low)
    return out


def max_tiling(g: Graph, r: int, within: Optional[VertexSet] = None,
               node_cap: Optional[int] = None) -> TilingResult:
    """Maximum K_r-tiling by branch and bound; certificate canonicalized."""
    ParameterError.at_least("r", r, 2)
    universe = g.full_mask() if within is None else within.mask
    adj = g.adj
    n_active = universe.bit_count()
    ceiling = n_active // r

    best: List[int] = _lex_greedy_masks(g, r, universe)
    nodes = 0
    free = _free_sets(g, r, universe) if len(best) < ceiling else []

    def search(active: int, tiles: List[int]) -> None:
        nonlocal best, nodes
        nodes += 1
        if node_cap is not None and nodes > node_cap:
            raise SearchCapExceeded
        if len(tiles) > len(best):
            best = tiles.copy()
        if len(best) == ceiling or not active:
            return
        need = len(best) - len(tiles)
        for ell, s in enumerate(free, 1):
            if (active & ~s).bit_count() // (r - ell) <= need:
                return
        if len(tiles) + _coverable_bound(adj, active, r) <= len(best):
            return
        low = active & -active
        v = low.bit_length() - 1
        for cm in iter_clique_masks(g, r - 1, active & adj[v]):
            clique = cm | low
            tiles.append(clique)
            search(active & ~clique, tiles)
            tiles.pop()
            if len(best) == ceiling:
                return
        search(active ^ low, tiles)

    try:
        search(universe, [])
        complete = True
    except SearchCapExceeded:
        complete = False
    til = _canonical_tiling(g, r, best)
    deficiency = n_active - r * len(best)
    # first incumbent of optimal size may have been found mid-branch; the
    # optimum value is exact whenever the search ran to completion or hit
    # the ceiling
    optimal = complete or len(best) == ceiling
    return TilingResult(best=til, optimal=optimal, deficiency=deficiency,
                        nodes_explored=nodes)


def _factor_masks(g: Graph, r: int, universe: int,
                  node_cap: Optional[int] = None,
                  _free: Optional[List[int]] = None) -> Optional[List[int]]:
    """The first K_r-factor of ``universe`` in search order as clique masks,
    or None (r not dividing |U| included); SearchCapExceeded past node_cap.

    ``_free``, if given, are free sets S_1 .. S_{r-1} over a superset of
    ``universe``, used at the first dead end in place of building them."""
    n_active = universe.bit_count()
    if n_active % r:
        return None
    if node_cap is None or node_cap > n_active // r:
        tiles = _lex_greedy_masks(g, r, universe)   # the first descent
        if len(tiles) * r == n_active:
            return _checked(g, r, universe, tiles)
    adj = g.adj
    nodes = 0
    found: Optional[List[int]] = None
    free: Optional[List[int]] = None   # built at the first dead end

    def dead_end() -> None:
        nonlocal free
        if free is None:
            free = _free_sets(g, r, universe) if _free is None else _free

    def hopeless(active: int) -> bool:
        """Free-set bound: ``active`` has no factor."""
        size = active.bit_count()
        for ell, s in enumerate(free, 1):
            if (r - ell) * size > r * (active & ~s).bit_count():
                return True
        return False

    def search(active: int, tiles: List[int]) -> None:
        nonlocal found, nodes
        nodes += 1
        if node_cap is not None and nodes > node_cap:
            raise SearchCapExceeded
        if not active:
            found = tiles.copy()
            return
        if free is not None and hopeless(active):
            return
        low = active & -active
        v = low.bit_length() - 1
        # every remaining vertex must keep r-1 active neighbors
        if (adj[v] & active).bit_count() < r - 1:
            dead_end()
            return
        for cm in iter_clique_masks(g, r - 1, active & adj[v]):
            clique = cm | low
            tiles.append(clique)
            search(active & ~clique, tiles)
            tiles.pop()
            # once a child has failed, the free sets exist
            if found is not None or hopeless(active):
                return
        dead_end()

    search(universe, [])
    return None if found is None else _checked(g, r, universe, found)


def has_factor(g: Graph, r: int, within: Optional[VertexSet] = None,
               node_cap: Optional[int] = None) -> FactorResult:
    """Perfect K_r-tiling decision by ``_factor_masks``, tiling canonical."""
    ParameterError.at_least("r", r, 2)
    universe = g.full_mask() if within is None else within.mask
    if universe.bit_count() % r:
        return FactorResult(None, "divisibility")
    try:
        found = _factor_masks(g, r, universe, node_cap)
    except SearchCapExceeded:
        return FactorResult(None, "cap")
    if found is None:
        return FactorResult(None, "none")
    return FactorResult(_canonical_tiling(g, r, found), "found")
