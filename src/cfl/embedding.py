"""Executable dependent random choice and the regular-tuple clique embedder.

Two parts:

* drc_select: the classical selector on a graph.  Sample t vertices from a
  witness class with repetition, intersect their neighborhoods inside a
  target class, then delete a vertex from every r-subset whose common
  neighborhood in the witness class is smaller than m, until a complete
  r-subset scan comes back clean.  The returned set is certified by that
  final scan, never by the expectation argument.

* embed_clique_in_tuple: the cascade.  Its level 0 is the hypergraph of
  class-transversal cliques, capped at HYPERGRAPH_CAP edges in
  lexicographic order.  A step samples s heads from the level's first
  class with repetition and keeps the tails that every one of them
  extends (the link intersection), reducing the arity by one.  No level
  is ever held as an edge list: level i is the transversal cliques of
  classes i.. inside a vertex mask, at or below a lexicographic bound
  when the cap cut level 0, so a step only cuts the mask to the heads'
  common neighborhood, and membership and edge counts are computed from
  the graph.  One counting pass per call finds level 0's size, its last
  kept edge and the heads step 1 samples; when the cap cuts the level, no
  sample falls on a head left without tails.  Reduce arity down to 2, run
  the selector on the resulting bipartite structure, find a p-clique
  inside the selected set (any set larger than the caller's independence
  budget must contain one), back-extend through common links, and verify
  the final p-per-class clique directly; a result's clique is the union
  that check accepted.  A bounded brute-force multipartite search is the
  fallback; reports name which path succeeded, and failure is a
  structured outcome with the stage reached.

The asymptotic parameter schedule behind these procedures is meaningless at
desk scale; s, the trial count and the fallback node cap are explicit
arguments of embed_clique_in_tuple.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .graphs import (Graph, ParameterError, SearchCapExceeded, VertexSet,
                     _first_clique, iter_bits, iter_clique_masks)
from .records import Record
from .rng import SplitMix64, derive_seed


class DrcOutcome(Record):
    """A selected set in which every r-subset has at least m common
    neighbors inside the witness class, verified by complete scan."""
    selected: VertexSet
    certified: bool
    trials: int
    deletions: int
    initial_size: int


def _certify_scan(g: Graph, umask: int, witness_mask: int, r: int, m: int
                  ) -> Optional[int]:
    """First r-subset (lexicographic) violating the common-neighbor floor,
    as a mask; None when the set is certified.

    Common neighborhoods only shrink with depth, so a prefix already below
    the floor is completed immediately with the next indices, and a prefix
    at or above it must still be explored."""
    verts = list(iter_bits(umask))
    nv = len(verts)
    if nv < r:
        return None
    adj = g.adj

    def rec(start: int, chosen_mask: int, common: int, depth: int) -> Optional[int]:
        for i in range(start, nv - (r - depth) + 1):
            v = verts[i]
            c2 = common & adj[v]
            if (c2 & witness_mask).bit_count() < m:
                fill = chosen_mask | (1 << v)
                for j in range(i + 1, i + r - depth):
                    fill |= 1 << verts[j]
                return fill
            # a full r-subset that passed the floor test needs no call
            if depth + 1 < r:
                found = rec(i + 1, chosen_mask | (1 << v), c2, depth + 1)
                if found is not None:
                    return found
        return None

    return rec(0, 0, -1, 0)


def drc_select(g: Graph, target_class: VertexSet, witness_class: VertexSet,
               t: int, r: int, m: int, seed: int = 0,
               max_trials: int = 8) -> DrcOutcome:
    """Dependent random choice on ``g`` between two disjoint classes.

    Returns the best certified set across trials (ties to the earliest
    trial).  A small or empty selection is a valid outcome, not an error.
    """
    ParameterError.at_least("t", t, 1)
    ParameterError.at_least("r", r, 2)
    ParameterError.at_least("m", m, 1)
    if target_class.mask & witness_class.mask:
        raise ParameterError("witness", "meets target")
    witness_verts = witness_class.vertices()
    best_mask = 0
    best_deletions = 0
    best_initial = 0
    trials_run = 0
    for trial in range(1, max_trials + 1):
        trials_run = trial
        rng = SplitMix64(derive_seed(seed, "drc-trial", trial))
        if not witness_verts:
            break
        umask = target_class.mask
        for _ in range(t):
            w = witness_verts[rng.randrange(len(witness_verts))]
            umask &= g.adj[w]
        initial = umask.bit_count()
        deletions = 0
        while True:
            bad = _certify_scan(g, umask, witness_class.mask, r, m)
            if bad is None:
                break
            drop = min(iter_bits(bad),
                       key=lambda v: ((g.adj[v] & witness_class.mask).bit_count(), -v))
            umask &= ~(1 << drop)
            deletions += 1
        if umask.bit_count() > best_mask.bit_count():
            best_mask, best_deletions, best_initial = umask, deletions, initial
    return DrcOutcome(selected=VertexSet(g, best_mask), certified=True,
                      trials=trials_run, deletions=best_deletions,
                      initial_size=best_initial)


# -- cascade levels -------------------------------------------------------------


def _count_transversal_cliques(g: Graph, classes: Sequence[VertexSet],
                               within: int, limit: Optional[int] = None,
                               bound: Optional[Tuple[int, ...]] = None) -> int:
    """How many class-transversal cliques of ``classes`` lie inside the
    vertex mask ``within`` and, when ``bound`` is set, at or below it in
    lexicographic order.  Once the count passes ``limit`` it stops and
    returns a value above the limit."""
    adj = g.adj
    last = len(classes) - 1
    total = 0

    def rec(i: int, common: int, tight: bool) -> bool:
        # tight: the clique so far is bound's prefix, so bound[i] caps vertex i
        nonlocal total
        pool = classes[i].mask & common
        if tight:
            pool &= (2 << bound[i]) - 1
        if i == last:
            total += pool.bit_count()
            return limit is None or total <= limit
        for v in iter_bits(pool):
            if not rec(i + 1, common & adj[v], tight and v == bound[i]):
                return False
        return True

    rec(0, within, bound is not None)
    return total


def _nth_transversal_clique(g: Graph, classes: Sequence[VertexSet],
                            within: int, k: int) -> Tuple[int, ...]:
    """The k-th (from 1) class-transversal clique of ``classes`` inside
    ``within``, in lexicographic order; there must be at least k."""
    clique = []
    for i, c in enumerate(classes):
        rest = classes[i + 1:]
        for v in iter_bits(c.mask & within):
            below = (_count_transversal_cliques(g, rest, within & g.adj[v], k)
                     if rest else 1)
            if k <= below:
                break
            k -= below
        clique.append(v)
        within &= g.adj[v]
    return tuple(clique)


def _level0(g: Graph, classes: Sequence[VertexSet], cap: int
            ) -> Tuple[List[int], int, bool, Optional[Tuple[int, ...]]]:
    """The counting pass over level 0: the heads step 1 samples, the level's
    edge count, whether the cap cut it, and its last edge when it did.

    Level 0 is the class-transversal cliques of all the classes, capped at
    ``cap`` in lexicographic order.  The pass counts the tails of each head
    of the first class (the transversal cliques of the other classes inside
    its neighborhood) in increasing order and stops at the first head past
    the cap.  The heads before it, plus that head when the cap keeps some of
    its tails, are the heads step 1 samples: all of the first class when
    nothing is cut, and never a head the cap left without tails."""
    heads: List[int] = []
    total = 0
    for w in iter_bits(classes[0].mask):
        room = cap - total
        count = _count_transversal_cliques(g, classes[1:], g.adj[w], room)
        if count > room:
            if room:
                heads.append(w)
            return heads, cap, True, _nth_transversal_clique(g, classes, -1, cap)
        heads.append(w)
        total += count
    return heads, total, False, None


# -- the cascade embedder -------------------------------------------------------


HYPERGRAPH_CAP = 500_000        # level-0 edges the cascade keeps
FALLBACK_NODE_CAP = 2_000_000   # fallback search nodes when no budget is set


class EmbedResult(Record):
    success: bool
    vertices: Optional[VertexSet]
    per_class: Optional[List[VertexSet]]
    path: str                      # "drc" | "fallback" | "none"
    stage: str                     # furthest stage reached (or "done")
    alpha_bound: int
    trials_used: int
    telemetry: List[dict]


def multipartite_clique_search(g: Graph, classes: Sequence[VertexSet], p: int,
                               node_cap: Optional[int] = None
                               ) -> Optional[List[VertexSet]]:
    """Deterministic brute-force search for a clique with exactly p vertices
    in each class (lexicographic).  None when none exists; raises
    SearchCapExceeded when the node budget runs out first."""
    q = len(classes)
    adj = g.adj
    nodes = 0

    def rec(i: int, chosen: List[int], common: int) -> Optional[List[List[int]]]:
        nonlocal nodes
        nodes += 1
        if node_cap is not None and nodes > node_cap:
            raise SearchCapExceeded()
        if i == q:
            return [chosen[j:j + p] for j in range(0, len(chosen), p)]
        pool = classes[i].mask & common
        for cm in iter_clique_masks(g, p, pool):
            inner_common = common
            for v in iter_bits(cm):
                inner_common &= adj[v]
            found = rec(i + 1, chosen + list(iter_bits(cm)), inner_common)
            if found is not None:
                return found
        return None

    found = rec(0, [], -1)
    if found is None:
        return None
    return [VertexSet.of(g, c) for c in found]


def _verify_embedding(g: Graph, classes: Sequence[VertexSet],
                      per_class: List[VertexSet], p: int) -> int:
    """``per_class``'s union if it is a clique with p per class, else 0."""
    union = 0
    for i, a in enumerate(per_class):
        if len(a) != p or a.mask & ~classes[i].mask:
            return 0
        union |= a.mask
    ok = union.bit_count() == p * len(classes) and g.is_clique(union)
    return union if ok else 0


def embed_clique_in_tuple(g: Graph, classes: Sequence[VertexSet], p: int,
                          alpha_bound: int, seed: int = 0, *, s: int = 2,
                          trials: int = 8,
                          fallback_node_cap: int = FALLBACK_NODE_CAP
                          ) -> EmbedResult:
    """Find a clique with exactly p vertices in each of q classes.

    ``alpha_bound`` is the caller's certificate budget: any vertex set
    larger than it must contain a p-clique, so the selector floor is
    m = alpha_bound + 1.  Pairwise density/regularity context is the
    caller's responsibility and is not enforced here.  Each of ``trials``
    cascade passes samples ``s`` heads per reduction (s is also the
    selector's exponent); the brute-force fallback stops past
    ``fallback_node_cap`` nodes.
    """
    q = len(classes)
    if q < 2:
        raise ParameterError("classes", "expected at least two classes")
    seen = 0
    for i, c in enumerate(classes):
        if c.mask & seen:
            raise ParameterError(f"classes[{i}]", "meets an earlier class")
        seen |= c.mask
    ParameterError.at_least("p", p, 1)
    ParameterError.at_least("alpha_bound", alpha_bound, 0)
    ParameterError.at_least("s", s, 1)
    m = alpha_bound + 1
    telemetry: List[dict] = []
    stage = "start"
    trials_used = 0
    level0 = _level0(g, classes, HYPERGRAPH_CAP) if trials else ()

    for trial in range(1, trials + 1):
        trials_used = trial
        tseed = derive_seed(seed, "embed-trial", trial)
        note: dict = {"trial": trial}
        per_class = _drc_attempt(g, classes, level0, p, m, tseed, note, s=s)
        telemetry.append(note)
        stage = note.get("stage", stage)
        if per_class is not None:
            union = _verify_embedding(g, classes, per_class, p)
            if union:
                return EmbedResult(True, VertexSet(g, union), per_class,
                                   path="drc", stage="done",
                                   alpha_bound=alpha_bound, trials_used=trial,
                                   telemetry=telemetry)
            note["stage"] = stage = "verification"

    try:
        fallback = multipartite_clique_search(g, classes, p,
                                              node_cap=fallback_node_cap)
    except SearchCapExceeded:
        fallback = None
        telemetry.append({"fallback": "cap"})
    union = _verify_embedding(g, classes, fallback, p) if fallback else 0
    if union:
        return EmbedResult(True, VertexSet(g, union), fallback,
                           path="fallback", stage="done",
                           alpha_bound=alpha_bound, trials_used=trials_used,
                           telemetry=telemetry)
    return EmbedResult(False, None, None, path="none", stage=stage,
                       alpha_bound=alpha_bound, trials_used=trials_used,
                       telemetry=telemetry)


def _drc_attempt(g: Graph, classes: Sequence[VertexSet], level0: tuple,
                 p: int, m: int, seed: int, note: dict, *, s: int
                 ) -> Optional[List[VertexSet]]:
    """One cascade pass; fills ``note`` with per-stage telemetry.

    Level i holds the class-transversal cliques of ``classes[i:]`` inside a
    vertex mask W_i, at or below a lexicographic bound B_i when one is set:
    ``levels[i] = (W_i, B_i)``.  A step keeps the tails that every sampled
    head extends, so W_{i+1} is W_i cut to the heads' common neighborhood,
    and B_i's tail still binds only when the largest head is B_i's head."""
    q = len(classes)
    heads, edge_count, truncated, bound = level0
    note["h0_edges"] = edge_count
    note["h0_truncated"] = truncated
    if not edge_count:
        note["stage"] = ("no cross K_2" if q == 2
                         else "no transversal cliques")
        return None
    levels: List[Tuple[int, Optional[Tuple[int, ...]]]] = [(-1, bound)]
    for step in range(1, q - 1):
        within, bound = levels[-1]
        first = heads if step == 1 else classes[step - 1].vertices()
        rng = SplitMix64(derive_seed(derive_seed(seed, "step", step),
                                     "hdrc-sample"))
        sampled = [first[rng.randrange(len(first))] for _ in range(s)]
        top = max(sampled)
        count = 0
        if ((bound is None or top <= bound[0])
                and all(within >> h & 1 for h in sampled)):
            for h in sampled:
                within &= g.adj[h]
            bound = bound[1:] if bound is not None and top == bound[0] else None
            count = _count_transversal_cliques(g, classes[step:], within,
                                               bound=bound)
        note[f"h{step}_edges"] = count
        if not count:
            note["stage"] = f"link intersection empty at step {step}"
            return None
        levels.append((within, bound))

    within, bound = levels[-1]
    target, witness = classes[q - 2], classes[q - 1]
    bip = Graph(g.n, ((u, v) for u in iter_bits(target.mask & within)
                      for v in iter_bits(witness.mask & within & g.adj[u])
                      if bound is None or (u, v) <= bound))
    drc = drc_select(bip, target, witness, t=s, r=max(2, p), m=m,
                     seed=derive_seed(seed, "select"), max_trials=1)
    note["selected"] = len(drc.selected)
    if len(drc.selected) < p:
        note["stage"] = "selected set smaller than p"
        return None
    a_target = _first_clique(g.adj, p, drc.selected.mask)
    if a_target is None:
        note["stage"] = "no p-clique in selected set"
        return None
    common = -1
    for v in iter_bits(a_target):
        common &= bip.adj[v]
    pool = common & witness.mask
    note["back_pool"] = pool.bit_count()
    a_witness = _first_clique(g.adj, p, pool)
    if a_witness is None:
        note["stage"] = "no p-clique in common neighborhood"
        return None

    chosen = [0] * q
    chosen[q - 2] = a_target
    chosen[q - 1] = a_witness
    common = -1                 # common neighborhood of the chosen vertices
    for v in iter_bits(a_target | a_witness):
        common &= g.adj[v]
    for i in range(q - 3, -1, -1):
        # v extends when (v, *t) is a level-i edge for every transversal t
        # of the chosen p-sets, each already a clique inside W_i: v lies in
        # W_i, sees every chosen vertex, and (v, the sets' maxima) <= B_i
        within, bound = levels[i]
        extenders = classes[i].mask & within & common
        if bound is not None:
            top = tuple(chosen[j].bit_length() - 1 for j in range(i + 1, q))
            extenders &= (1 << (bound[0] + (top <= bound[1:]))) - 1
        note[f"extenders_{i}"] = extenders.bit_count()
        a_i = _first_clique(g.adj, p, extenders)
        if a_i is None:
            note["stage"] = f"no p-clique among extenders of class {i}"
            return None
        chosen[i] = a_i
        for v in iter_bits(a_i):
            common &= g.adj[v]
    note["stage"] = "assembled"
    return [VertexSet(g, cm) for cm in chosen]
