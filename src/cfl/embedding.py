"""Executable dependent random choice and the regular-tuple clique embedder.

Three layers:

* drc_select: the classical selector on a graph.  Sample t vertices from a
  witness class with repetition, intersect their neighborhoods inside a
  target class, then delete a vertex from every r-subset whose common
  neighborhood in the witness class is smaller than m, until a complete
  r-subset scan comes back clean.  The returned set is certified by that
  final scan, never by the expectation argument.

* hypergraph_drc_step: one arity-reduction step on an r-partite r-uniform
  hypergraph.  Sample s vertices from the first class; keep the (r-1)-edges
  extended by every sampled vertex (the link intersection).  An optional
  audit enumerates small edge sets (at most AUDIT_DELTA_CAP edges spanning
  at most AUDIT_WEIGHT_CAP vertices) and flags the "dangerous" ones whose
  extender count in the first class falls below beta * N.

* embed_clique_in_tuple: the cascade.  Reduce arity down to 2, run the
  selector on the resulting bipartite structure, find a p-clique inside the
  selected set (any set larger than the caller's independence budget must
  contain one), back-extend through common links, and verify the final
  p-per-class clique directly.  A bounded brute-force multipartite search
  is the fallback; reports name which path succeeded, and failure is a
  structured outcome with the stage reached.

The asymptotic parameter schedule behind these procedures is meaningless at
desk scale; s, beta, the trial count and the fallback node cap are explicit
configuration (EmbedConfig).  The audit caps are module constants, and the
cascade runs its steps without the audit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .graphs import (Graph, SearchCapExceeded, VertexSet, iter_bits,
                     iter_clique_masks)
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

    def validate(self) -> None:
        seen = 0
        for c in self.classes:
            if c.mask & seen:
                raise ValueError("classes must be pairwise disjoint")
            seen |= c.mask
        for e in self.edges:
            if len(e) != self.arity:
                raise ValueError(f"edge {e} has wrong arity")
            for i, v in enumerate(e):
                if v not in self.classes[i]:
                    raise ValueError(f"edge {e} is not transversal at slot {i}")

    def to_bipartite_graph(self, n: int) -> Graph:
        if self.arity != 2:
            raise ValueError("only arity-2 hypergraphs convert to graphs")
        return Graph(n, [(min(u, v), max(u, v)) for u, v in self.edges])


def transversal_clique_hypergraph(g: Graph, classes: Sequence[VertexSet],
                                  cap: Optional[int] = None
                                  ) -> Tuple[PartiteHypergraph, bool]:
    """All class-transversal cliques of g as hypergraph edges (lexicographic
    by tuple); the flag reports cap truncation."""
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

    rec(0, (), -1)
    return PartiteHypergraph(classes=list(classes), edges=edges), truncated


@dataclass
class DangerousSet:
    edge_indices: Tuple[int, ...]
    weight: int
    extenders: int


@dataclass
class DangerAudit:
    """Extender audit of small edge sets of the reduced hypergraph.
    Exhaustive only within AUDIT_BUDGET sets; otherwise sampled and
    labeled as such.  ``sampled_vertices`` are the link centers the step
    intersected, recorded so the output can be re-derived."""
    mode: str                      # "exhaustive" | "sampled" | "skipped"
    threshold: float               # beta * N
    sets_checked: int
    dangerous: List[DangerousSet]
    dangerous_by_weight: Dict[int, int]
    sampled_vertices: Tuple[int, ...] = ()

    @property
    def dangerous_count(self) -> int:
        return sum(self.dangerous_by_weight.values())


AUDIT_DELTA_CAP = 4          # largest edge set the audit inspects
AUDIT_WEIGHT_CAP = 12        # most vertices an audited edge set may span
AUDIT_BUDGET = 20_000        # sets checked before the audit turns sampled


def hypergraph_drc_step(h: PartiteHypergraph, s: int, beta: float,
                        seed: int = 0, audit: bool = True
                        ) -> Tuple[PartiteHypergraph, DangerAudit]:
    """One link-intersection step: sample s vertices from the first class
    (with repetition) and keep the tails extended by all of them."""
    if h.arity < 2:
        raise ValueError("arity must be >= 2")
    if s < 1:
        raise ValueError("s must be >= 1")
    if not 0 < beta < 1:
        raise ValueError("beta must lie in (0, 1)")
    first = h.classes[0].vertices()
    tails_by_head: Dict[int, set] = {}
    heads_by_tail: Dict[Tuple[int, ...], set] = {}
    for e in h.edges:
        head, tail = e[0], e[1:]
        tails_by_head.setdefault(head, set()).add(tail)
        heads_by_tail.setdefault(tail, set()).add(head)
    rng = SplitMix64(derive_seed(seed, "hdrc-sample"))
    kept: Optional[set] = None
    sampled: List[int] = []
    if first:
        for _ in range(s):
            w = first[rng.randrange(len(first))]
            sampled.append(w)
            tails = tails_by_head.get(w, set())
            kept = tails.copy() if kept is None else kept & tails
    out_edges = sorted(kept) if kept else []
    out = PartiteHypergraph(classes=list(h.classes[1:]), edges=out_edges)

    n_first = len(first)
    threshold = beta * n_first
    if not audit or not out_edges:
        report = DangerAudit(mode="skipped" if not audit else "exhaustive",
                             threshold=threshold, sets_checked=0,
                             dangerous=[], dangerous_by_weight={},
                             sampled_vertices=tuple(sampled))
        return out, report

    ecount = len(out_edges)
    total_sets = 0
    from math import comb
    for size in range(1, AUDIT_DELTA_CAP + 1):
        total_sets += comb(ecount, size)
    exhaustive = total_sets <= AUDIT_BUDGET
    dangerous: List[DangerousSet] = []
    by_weight: Dict[int, int] = {}
    checked = 0

    def audit_set(indices: Tuple[int, ...]) -> None:
        nonlocal checked
        checked += 1
        verts = set()
        exts: Optional[set] = None
        for idx in indices:
            tail = out_edges[idx]
            verts.update(tail)
            hs = heads_by_tail.get(tail, set())
            exts = hs.copy() if exts is None else exts & hs
        w = len(verts)
        if w > AUDIT_WEIGHT_CAP:
            return
        count = len(exts) if exts else 0
        if count < threshold:
            by_weight[w] = by_weight.get(w, 0) + 1
            if len(dangerous) < 200:
                dangerous.append(DangerousSet(indices, w, count))

    if exhaustive:
        from itertools import combinations
        for size in range(1, AUDIT_DELTA_CAP + 1):
            for indices in combinations(range(ecount), size):
                audit_set(indices)
    else:
        arng = SplitMix64(derive_seed(seed, "hdrc-audit"))
        for _ in range(AUDIT_BUDGET):
            size = 1 + arng.randrange(AUDIT_DELTA_CAP)
            picks = sorted({arng.randrange(ecount) for _ in range(size)})
            audit_set(tuple(picks))
    report = DangerAudit(mode="exhaustive" if exhaustive else "sampled",
                         threshold=threshold, sets_checked=checked,
                         dangerous=dangerous, dangerous_by_weight=by_weight,
                         sampled_vertices=tuple(sampled))
    return out, report


# -- the cascade embedder -------------------------------------------------------


HYPERGRAPH_CAP = 500_000        # transversal cliques kept per cascade pass


@dataclass
class EmbedConfig:
    s: int = 2                     # sample count per reduction / selector exponent
    beta: float = 0.1
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

    for trial in range(1, config.trials + 1):
        trials_used = trial
        tseed = derive_seed(seed, "embed-trial", trial)
        note: dict = {"trial": trial}
        per_class = _drc_attempt(g, classes, p, m, tseed, config, note)
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


def _drc_attempt(g: Graph, classes: Sequence[VertexSet], p: int, m: int,
                 seed: int, config: EmbedConfig, note: dict
                 ) -> Optional[List[VertexSet]]:
    """One cascade pass; fills ``note`` with per-stage telemetry."""
    q = len(classes)
    h, truncated = transversal_clique_hypergraph(g, classes, cap=HYPERGRAPH_CAP)
    note["h0_edges"] = len(h.edges)
    note["h0_truncated"] = truncated
    if not h.edges:
        note["stage"] = ("no cross K_2" if q == 2
                         else "no transversal cliques")
        return None
    levels = [h]
    for step in range(1, q - 1):
        h, _ = hypergraph_drc_step(h, config.s, config.beta,
                                   seed=derive_seed(seed, "step", step),
                                   audit=False)
        note[f"h{step}_edges"] = len(h.edges)
        if not h.edges:
            note["stage"] = f"link intersection empty at step {step}"
            return None
        levels.append(h)

    bip = levels[-1].to_bipartite_graph(g.n)
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
        # levels[i] lives on classes i..q-1; v extends when every
        # transversal tuple of the already-chosen p-sets lifts to an edge
        edge_set = set(levels[i].edges)
        tuples = _transversals([chosen[j] for j in range(i + 1, q)])
        extenders = 0
        for v in iter_bits(classes[i].mask):
            if all((v,) + t in edge_set for t in tuples):
                extenders |= 1 << v
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
