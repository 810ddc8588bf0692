"""Executable dependent random choice and the regular-tuple clique embedder.

Three layers:

* drc_select: the classical selector on a graph.  Sample t vertices from a
  witness class with repetition, intersect their neighborhoods inside a
  target class, then delete a vertex from every r-subset whose common
  neighborhood in the witness class is smaller than m, until a complete
  r-subset scan comes back clean.  The returned set is certified by that
  final scan, never by the expectation argument.

* hypergraph_drc_step: one arity-reduction step on an r-partite r-uniform
  hypergraph.  Sample s heads from the first class with repetition and
  keep the tails, the (r-1)-edges, that every sampled head extends (the
  link intersection).

* embed_clique_in_tuple: the cascade.  Its level 0 is the hypergraph of
  class-transversal cliques, capped at HYPERGRAPH_CAP edges in
  lexicographic order, and it is never held in memory.  One counting pass
  per call gives each head of the first class its share of the capped
  level; step 1 samples only the heads that count reached, so when the cap
  cuts the level no sample falls on a head left without tails.  A head's
  tails, the transversal cliques of the other classes inside its
  neighborhood, are enumerated only when step 1 samples it (or, with two
  classes, once to build the bipartite graph), and back-extension into the
  first class tests membership head by head.  Levels 1 and up
  are small and are held as edge lists.  Reduce arity down to 2, run the
  selector on the resulting bipartite structure, find a p-clique inside the
  selected set (any set larger than the caller's independence budget must
  contain one), back-extend through common links, and verify the final
  p-per-class clique directly.  A bounded brute-force multipartite search
  is the fallback; reports name which path succeeded, and failure is a
  structured outcome with the stage reached.

The asymptotic parameter schedule behind these procedures is meaningless at
desk scale; s, the trial count and the fallback node cap are explicit
configuration (EmbedConfig).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .graphs import (Graph, SearchCapExceeded, VertexSet, iter_bits,
                     iter_clique_masks, mask_of)
from .rng import SplitMix64, derive_seed


@dataclass
class DrcOutcome:
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
        if depth == r:
            if (common & witness_mask).bit_count() < m:
                return chosen_mask
            return None
        for i in range(start, nv - (r - depth) + 1):
            v = verts[i]
            c2 = common & adj[v]
            if (c2 & witness_mask).bit_count() < m:
                fill = chosen_mask | (1 << v)
                for j in range(i + 1, i + r - depth):
                    fill |= 1 << verts[j]
                return fill
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
    if m < 1 or t < 1 or r < 2:
        raise ValueError("need m >= 1, t >= 1, r >= 2")
    if target_class.mask & witness_class.mask:
        raise ValueError("target and witness classes must be disjoint")
    witness_verts = witness_class.vertices()
    best_mask = 0
    best_trial = 0
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
            best_mask, best_trial = umask, trial
            best_deletions, best_initial = deletions, initial
    return DrcOutcome(selected=VertexSet(g, best_mask), certified=True,
                      trials=trials_run, deletions=best_deletions,
                      initial_size=best_initial)


# -- partite hypergraphs -------------------------------------------------------


@dataclass
class PartiteHypergraph:
    """r-partite r-uniform hypergraph: one vertex per class per edge.
    Edge tuples are ordered by class."""
    classes: List[VertexSet]
    edges: List[Tuple[int, ...]]

    @property
    def arity(self) -> int:
        return len(self.classes)

    def to_bipartite_graph(self, n: int) -> Graph:
        if self.arity != 2:
            raise ValueError("only arity-2 hypergraphs convert to graphs")
        return Graph(n, [(min(u, v), max(u, v)) for u, v in self.edges])


def transversal_clique_hypergraph(g: Graph, classes: Sequence[VertexSet],
                                  cap: Optional[int] = None, within: int = -1
                                  ) -> Tuple[PartiteHypergraph, bool]:
    """All class-transversal cliques of g inside the vertex mask ``within``
    (every vertex by default) as hypergraph edges, lexicographic by tuple;
    the flag reports cap truncation."""
    q = len(classes)
    edges: List[Tuple[int, ...]] = []
    truncated = False
    adj = g.adj

    def rec(i: int, chosen: Tuple[int, ...], common: int) -> bool:
        nonlocal truncated
        if i == q:
            if cap is not None and len(edges) >= cap:
                truncated = True
                return False
            edges.append(chosen)
            return True
        for v in iter_bits(classes[i].mask & common):
            if not rec(i + 1, chosen + (v,), common & adj[v]):
                return False
        return True

    rec(0, (), within)
    return PartiteHypergraph(classes=list(classes), edges=edges), truncated


def _count_transversal_cliques(g: Graph, classes: Sequence[VertexSet],
                               within: int, limit: Optional[int]) -> int:
    """How many edges ``transversal_clique_hypergraph(g, classes,
    within=within)`` would have, without building them.  Once the count
    passes ``limit`` it stops and returns a value above the limit."""
    adj = g.adj
    last = len(classes) - 1
    total = 0

    def rec(i: int, common: int) -> bool:
        nonlocal total
        if i == last:
            total += (classes[i].mask & common).bit_count()
            return limit is None or total <= limit
        for v in iter_bits(classes[i].mask & common):
            if not rec(i + 1, common & adj[v]):
                return False
        return True

    rec(0, within)
    return total


def _link_intersection(first: Sequence[int], tails_of: Callable[[int], set],
                       s: int, seed: int
                       ) -> Tuple[List[Tuple[int, ...]], Tuple[int, ...]]:
    """Sample s heads from ``first`` (with repetition) and intersect their
    tail sets; returns the kept tails, sorted, and the sampled heads."""
    if s < 1:
        raise ValueError("s must be >= 1")
    rng = SplitMix64(derive_seed(seed, "hdrc-sample"))
    kept: Optional[set] = None
    sampled: List[int] = []
    if first:
        for _ in range(s):
            w = first[rng.randrange(len(first))]
            sampled.append(w)
            tails = tails_of(w)
            kept = set(tails) if kept is None else kept & tails
    return (sorted(kept) if kept else []), tuple(sampled)


def hypergraph_drc_step(h: PartiteHypergraph, s: int, seed: int = 0
                        ) -> Tuple[PartiteHypergraph, Tuple[int, ...]]:
    """One link-intersection step: sample s vertices from the first class
    (with repetition) and keep the tails extended by all of them.  Returns
    the reduced hypergraph and the sampled heads."""
    if h.arity < 2:
        raise ValueError("arity must be >= 2")
    tails_by_head: Dict[int, set] = {}
    for e in h.edges:
        tails_by_head.setdefault(e[0], set()).add(e[1:])
    edges, sampled = _link_intersection(
        h.classes[0].vertices(), lambda w: tails_by_head.get(w, set()), s, seed)
    return PartiteHypergraph(classes=list(h.classes[1:]), edges=edges), sampled


class _ImplicitLevel0:
    """The capped hypergraph of class-transversal cliques, without its edges.

    Its edges, lexicographic, are the tuples (w, *tail) where a head w of
    the first class meets a tail, a transversal clique of the other classes
    inside N(w).  One counting pass over the heads in increasing order
    gives each head its share of the capped level, clamp(cap - tails of
    earlier heads, 0, its tail count): exactly the lexicographic prefix that
    ``transversal_clique_hypergraph(g, classes, cap)`` keeps.  The count
    stops at the first head past the cap, the one head (``partial``) that
    may keep only part of its tails.  ``heads`` lists the heads before that
    stop, plus ``partial``: all of the first class when nothing is
    truncated, and never a head the cap left without tails."""

    def __init__(self, g: Graph, classes: Sequence[VertexSet],
                 cap: Optional[int]):
        self.g = g
        self.tail_classes = list(classes[1:])
        self.shares: Dict[int, int] = {}      # heads with a nonzero share
        self.heads: List[int] = []            # heads step 1 samples from
        self.partial: Optional[int] = None
        self.truncated = False
        total = 0
        for w in iter_bits(classes[0].mask):
            room = None if cap is None else cap - total
            count = _count_transversal_cliques(g, self.tail_classes,
                                               g.adj[w], room)
            if room is not None and count > room:
                self.truncated = True
                if room:
                    self.shares[w] = room
                    self.heads.append(w)
                    self.partial = w
                total += room
                break
            if count:
                self.shares[w] = count
            self.heads.append(w)
            total += count
        self.edge_count = total

    def tails(self, w: int) -> set:
        """The tails of head w that the capped level keeps."""
        share = self.shares.get(w, 0)
        if not share:
            return set()
        h, _ = transversal_clique_hypergraph(self.g, self.tail_classes,
                                             cap=share, within=self.g.adj[w])
        return set(h.edges)

    def extends(self, v: int, tails: Sequence[Tuple[int, ...]]) -> bool:
        """True when (v, *t) is an edge for every t in ``tails``, each of
        which must be transversal to the tail classes.  A head that keeps
        all its tails extends exactly the tails that are cliques in N(v)."""
        if v == self.partial or v not in self.shares:
            kept = self.tails(v)
            return all(t in kept for t in tails)
        return all(self.g.is_clique(mask_of(t) | 1 << v) for t in tails)

    @cached_property
    def bipartite_graph(self) -> Graph:
        """With two classes, the level itself as a graph on g's vertices."""
        return Graph(self.g.n, ((w, u) for w in self.shares
                                for (u,) in self.tails(w)))


# -- the cascade embedder -------------------------------------------------------


HYPERGRAPH_CAP = 500_000        # level-0 edges the cascade keeps


@dataclass
class EmbedConfig:
    s: int = 2                     # sample count per reduction / selector exponent
    trials: int = 8
    fallback_node_cap: int = 2_000_000


@dataclass
class EmbedResult:
    success: bool
    vertices: Optional[VertexSet]
    per_class: Optional[List[VertexSet]]
    path: str                      # "drc" | "fallback" | "none"
    stage: str                     # furthest stage reached (or "done")
    alpha_bound: int
    trials_used: int
    telemetry: List[dict] = field(default_factory=list)


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
                      per_class: List[VertexSet], p: int) -> bool:
    union = 0
    for i, a in enumerate(per_class):
        if len(a) != p or a.mask & ~classes[i].mask:
            return False
        union |= a.mask
    if union.bit_count() != p * len(classes):
        return False
    return g.is_clique(union)


def embed_clique_in_tuple(g: Graph, classes: Sequence[VertexSet], p: int,
                          alpha_bound: int, seed: int = 0,
                          config: Optional[EmbedConfig] = None) -> EmbedResult:
    """Find a clique with exactly p vertices in each of q classes.

    ``alpha_bound`` is the caller's certificate budget: any vertex set
    larger than it must contain a p-clique, so the selector floor is
    m = alpha_bound + 1.  Pairwise density/regularity context is the
    caller's responsibility and is not enforced here.
    """
    if config is None:
        config = EmbedConfig()
    q = len(classes)
    if q < 2 or p < 1:
        raise ValueError("need at least two classes and p >= 1")
    seen = 0
    for c in classes:
        if c.mask & seen:
            raise ValueError("classes must be pairwise disjoint")
        seen |= c.mask
    m = alpha_bound + 1
    telemetry: List[dict] = []
    stage = "start"
    trials_used = 0
    level0 = (_ImplicitLevel0(g, classes, HYPERGRAPH_CAP) if config.trials
              else None)

    for trial in range(1, config.trials + 1):
        trials_used = trial
        tseed = derive_seed(seed, "embed-trial", trial)
        note: dict = {"trial": trial}
        per_class = _drc_attempt(g, classes, level0, p, m, tseed, config, note)
        telemetry.append(note)
        stage = note.get("stage", stage)
        if per_class is not None:
            if _verify_embedding(g, classes, per_class, p):
                union = 0
                for a in per_class:
                    union |= a.mask
                return EmbedResult(True, VertexSet(g, union), per_class,
                                   path="drc", stage="done",
                                   alpha_bound=alpha_bound, trials_used=trial,
                                   telemetry=telemetry)
            note["stage"] = "verification"
            stage = "verification"

    try:
        fallback = multipartite_clique_search(g, classes, p,
                                              node_cap=config.fallback_node_cap)
    except SearchCapExceeded:
        fallback = None
        telemetry.append({"fallback": "cap"})
    if fallback is not None and _verify_embedding(g, classes, fallback, p):
        union = 0
        for a in fallback:
            union |= a.mask
        return EmbedResult(True, VertexSet(g, union), fallback,
                           path="fallback", stage="done",
                           alpha_bound=alpha_bound, trials_used=trials_used,
                           telemetry=telemetry)
    return EmbedResult(False, None, None, path="none", stage=stage,
                       alpha_bound=alpha_bound, trials_used=trials_used,
                       telemetry=telemetry)


def _drc_attempt(g: Graph, classes: Sequence[VertexSet],
                 level0: _ImplicitLevel0, p: int, m: int, seed: int,
                 config: EmbedConfig, note: dict
                 ) -> Optional[List[VertexSet]]:
    """One cascade pass; fills ``note`` with per-stage telemetry."""
    q = len(classes)
    note["h0_edges"] = level0.edge_count
    note["h0_truncated"] = level0.truncated
    if not level0.edge_count:
        note["stage"] = ("no cross K_2" if q == 2
                         else "no transversal cliques")
        return None
    levels: List[PartiteHypergraph] = []    # levels[i - 1] is level i
    for step in range(1, q - 1):
        step_seed = derive_seed(seed, "step", step)
        if levels:
            h, _ = hypergraph_drc_step(levels[-1], config.s, seed=step_seed)
        else:
            edges, _ = _link_intersection(level0.heads, level0.tails,
                                          config.s, step_seed)
            h = PartiteHypergraph(classes=list(classes[1:]), edges=edges)
        note[f"h{step}_edges"] = len(h.edges)
        if not h.edges:
            note["stage"] = f"link intersection empty at step {step}"
            return None
        levels.append(h)

    bip = (levels[-1].to_bipartite_graph(g.n) if levels
           else level0.bipartite_graph)
    target, witness = classes[q - 2], classes[q - 1]
    drc = drc_select(bip, target, witness, t=config.s, r=max(2, p), m=m,
                     seed=derive_seed(seed, "select"), max_trials=1)
    note["selected"] = len(drc.selected)
    if len(drc.selected) < p:
        note["stage"] = "selected set smaller than p"
        return None
    a_target = None
    for cm in iter_clique_masks(g, p, drc.selected.mask):
        a_target = cm
        break
    if a_target is None:
        note["stage"] = "no p-clique in selected set"
        return None
    common = -1
    for v in iter_bits(a_target):
        common &= bip.adj[v]
    pool = common & witness.mask
    note["back_pool"] = pool.bit_count()
    a_witness = None
    for cm in iter_clique_masks(g, p, pool):
        a_witness = cm
        break
    if a_witness is None:
        note["stage"] = "no p-clique in common neighborhood"
        return None

    chosen: List[Optional[int]] = [None] * q
    chosen[q - 2] = a_target
    chosen[q - 1] = a_witness
    for i in range(q - 3, -1, -1):
        # level i lives on classes i..q-1; v extends when every
        # transversal tuple of the already-chosen p-sets lifts to an edge
        tuples = _transversals([chosen[j] for j in range(i + 1, q)])
        if i:
            edge_set = set(levels[i - 1].edges)
            extenders = mask_of(v for v in iter_bits(classes[i].mask)
                                if all((v,) + t in edge_set for t in tuples))
        else:
            extenders = mask_of(v for v in iter_bits(classes[0].mask)
                                if level0.extends(v, tuples))
        note[f"extenders_{i}"] = extenders.bit_count()
        a_i = None
        for cm in iter_clique_masks(g, p, extenders):
            a_i = cm
            break
        if a_i is None:
            note["stage"] = f"no p-clique among extenders of class {i}"
            return None
        chosen[i] = a_i
    note["stage"] = "assembled"
    return [VertexSet(g, cm) for cm in chosen]  # type: ignore[arg-type]


def _transversals(masks: List[int]) -> List[Tuple[int, ...]]:
    out: List[Tuple[int, ...]] = [()]
    for m in masks:
        verts = list(iter_bits(m))
        out = [t + (v,) for t in out for v in verts]
    return out
