"""Helpers that only the tests use, kept out of the ``cfl`` package.

``strip_timings`` drops the one report field that differs between reruns,
so the golden and reproducibility tests can compare reports.

``bulk_u64`` and ``bulk_random`` are the vectorised (numpy) form of the
package's SplitMix64 stream.  The stream is counter-based, so they give the
same values as repeated ``SplitMix64(seed).next_u64()`` and ``.random()``
calls; criterion 6 and the ``random_gnp`` reference test draw from them.

``reference_shuffle`` is ``SplitMix64.shuffle`` as it was before it mixed
its draws in bulk: one 64-bit draw mixed at a time, each rejected or used
inline.  The shuffle's equivalence tests hold the package's to it.

``make_super_regular`` (with its result, ``SuperRegularization``) and
``strip_cliques`` build the inputs of two proof steps that ``cfl`` only
certifies: clusters trimmed toward super-regularity (criterion 9 and the
regularity tests) and K_k-free inner graphs for the extremal constructions
(criteria 4 and 5 and the construction tests).  No ``cfl`` kind builds
either, so they live here.

``reference_parse_graph6`` and ``reference_format_graph6`` are the graph6
codec as it was before it went linear: one C(n, 2)-bit int, shifted once per
pair.  The codec's equivalence test holds the package's pair to them.

``reference_parse_edgelist`` is the edge-list parser as it was before it
decoded well-formed payloads in bulk: one line at a time, each field
checked as ASCII digits and each edge as it is read, into bitsets keyed by
vertex.  The parser's equivalence tests hold ``parse_edgelist`` to it.

``reference_feasible_candidates`` is the exact alpha search's candidate
filter as it was before it found the dropped candidates in one pass: one
K_{ell-2} test per candidate.  The filter's equivalence test holds
``invariants._feasible_candidates`` to it.

``reference_parser`` is the argparse parser that read ``cfl`` command
lines before ``cli.parse_args`` became the only reader.  The reader's
equivalence test holds ``parse_args`` to it on every command line it takes
without an abbreviated option, ``--opt=value`` or ``--``.

``reference_verify_tiling`` is ``tiling.verify_tiling`` as it was before
the one tiling check, ``tiling._clique_union``, replaced it: each tile's
size, each vertex against the ones seen and against ``within``, and each
pair of a tile by its adjacency bit.  The tiling check's equivalence test
holds ``verify_tiling`` to it.

``reference_empty``, ``reference_complete`` and ``reference_cycle`` are
the edge-list builders of ``graphs.empty_graph``, ``complete_graph`` and
``cycle_graph`` as they were before all three became circulants
(``graphs.circulant_graph``).  The circulant tests hold the package's
builders to them.

``replace`` copies a result record with some fields changed, as
``dataclasses.replace`` did for dataclasses; the certificate-tampering
tests use it.  No ``cfl`` code needs it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from cfl.graphs import (MAX_EDGELIST_N, DuplicateEdgeError, EdgeSyntaxError,
                        Graph, Graph6Error, HeaderError, LoopError,
                        VertexRangeError, VertexSet, _first_clique, iter_bits,
                        iter_clique_masks)
from cfl.cli import HANDLERS
from cfl.numbers import decimal_fields, exact_fraction, number
from cfl.regularity import SuperRegularVerdict, is_super_regular, pair_density
from cfl.rng import _GOLDEN, _MASK, SplitMix64
from cfl.tiling import CliqueTiling


def bulk_u64(seed: int, count: int, start: int = 0) -> np.ndarray:
    """Outputs [start, start+count) of the SplitMix64 stream, vectorised.

    Identical values to repeated SplitMix64(seed).next_u64() calls.
    """
    idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = np.uint64(seed) + idx * np.uint64(_GOLDEN)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def bulk_random(seed: int, count: int, start: int = 0) -> np.ndarray:
    """Uniform floats in [0,1), matching SplitMix64.random() bit-for-bit."""
    return (bulk_u64(seed, count, start) >> np.uint64(11)) * 2.0**-53


def reference_shuffle(rng: SplitMix64, items: list) -> None:
    """Fisher-Yates, in place, with each ``randrange(i + 1)`` inline."""
    state = rng._state
    for i in range(len(items) - 1, 0, -1):
        z = 2**64                   # no draw yet
        while z >= 2**64 - 2**64 % (i + 1):
            state = (state + _GOLDEN) & _MASK
            z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
            z ^= z >> 31
        j = z % (i + 1)
        items[i], items[j] = items[j], items[i]
    rng._state = state


def replace(record, **changes):
    """A new record of ``record``'s class, with ``changes`` over its fields."""
    return type(record)(**{**vars(record), **changes})


def strip_timings(report: Mapping) -> Dict:
    out = dict(report)
    out.pop("timings", None)
    return out


@dataclass
class SuperRegularization:
    """Result of trimming clusters toward super-regularity: the refined
    subsets, what was removed, the per-pair targets actually realized, and
    (when requested) re-certification verdicts instead of trust."""
    refined: List[VertexSet]
    removed: List[VertexSet]
    pair_targets: Dict[Tuple[int, int], Tuple[Fraction, Fraction]]
    verdicts: Dict[Tuple[int, int], SuperRegularVerdict] = field(default_factory=dict)

    @property
    def all_ok(self) -> bool:
        return all(v.ok for v in self.verdicts.values())


def make_super_regular(g: Graph, clusters: Sequence[VertexSet], epsilon,
                       samples: int = 10_000, seed: int = 0
                       ) -> SuperRegularization:
    """Trim each cluster by its low-cross-degree vertices so every pair
    becomes (2 eps, d_ij - (t+1) eps)-super-regular, d_ij the original pair
    density and t+1 the number of clusters.

    Requires t < 1/(2 eps).  Callers assert pairwise eps-regularity of the
    input; realized super-regularity is re-certified here (exhaustive when
    sizes permit, sampled otherwise), not trusted.
    """
    eps = exact_fraction(epsilon)
    t = len(clusters) - 1
    if t < 1:
        raise ValueError("need at least two clusters")
    if not 2 * eps * t < 1:
        raise ValueError(f"precondition t < 1/(2 eps) violated: t={t}, eps={eps}")
    k = len(clusters)
    dens: Dict[Tuple[int, int], Fraction] = {}
    for i in range(k):
        for j in range(i + 1, k):
            dens[(i, j)] = pair_density(g, clusters[i], clusters[j])
    refined_masks = []
    removed_masks = []
    for i in range(k):
        bad = 0
        for j in range(k):
            if i == j:
                continue
            dij = dens[(min(i, j), max(i, j))]
            floor_ = (dij - eps) * len(clusters[j])
            for v in clusters[i]:
                if Fraction((g.adj[v] & clusters[j].mask).bit_count()) < floor_:
                    bad |= 1 << v
        refined_masks.append(clusters[i].mask & ~bad)
        removed_masks.append(clusters[i].mask & bad)
    refined = [VertexSet(g, m) for m in refined_masks]
    removed = [VertexSet(g, m) for m in removed_masks]
    targets = {}
    out = SuperRegularization(refined=refined, removed=removed, pair_targets=targets)
    for i in range(k):
        for j in range(i + 1, k):
            dij = dens[(i, j)]
            targets[(i, j)] = (2 * eps, dij - (t + 1) * eps)
    for (i, j), (e2, dt) in targets.items():
        a, b = refined[i], refined[j]
        if len(a) == 0 or len(b) == 0:
            continue
        out.verdicts[(i, j)] = is_super_regular(
            g, a, b, e2, max(dt, Fraction(0)), samples=samples, seed=seed)
    return out


def strip_cliques(g: Graph, k: int, seed: int = 0) -> Graph:
    """Delete one random edge from the first k-clique until none remain.
    Deterministic per seed; handy for manufacturing certified K_k-free
    inner graphs."""
    rng = SplitMix64(seed)
    current = g
    while True:
        clique = None
        for m in iter_clique_masks(current, k):
            clique = m
            break
        if clique is None:
            return current
        verts = list(iter_bits(clique))
        pairs = [(verts[i], verts[j]) for i in range(len(verts))
                 for j in range(i + 1, len(verts))]
        drop = pairs[rng.randrange(len(pairs))]
        edges = [e for e in current.edges() if e != drop]
        current = Graph(current.n, edges)


def reference_empty(n: int) -> Graph:
    return Graph(n)


def reference_complete(n: int) -> Graph:
    return Graph(n, ((u, v) for u in range(n) for v in range(u + 1, n)))


def reference_cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(n, [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)])


def reference_parse_edgelist(text: str) -> Graph:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise HeaderError("empty payload", line=1)
    head = lines[0].split(" ")
    if len(head) != 2 or not decimal_fields(head):
        raise HeaderError(f"expected 'n m' header, got {lines[0]!r}", line=1)
    n, m = int(head[0]), int(head[1])
    if n > MAX_EDGELIST_N:
        raise HeaderError(f"n = {n} exceeds the limit {MAX_EDGELIST_N}", line=1)
    if len(lines) - 1 != m:
        raise HeaderError(
            f"header declares {m} edges but payload has {len(lines) - 1} edge lines",
            line=1)
    adj: Dict[int, int] = {}
    for i, raw in enumerate(lines[1:], start=2):
        parts = raw.split(" ")
        if len(parts) != 2 or not decimal_fields(parts):
            raise EdgeSyntaxError(f"expected 'u v', got {raw!r}", line=i)
        u, v = int(parts[0]), int(parts[1])
        if u == v:
            raise LoopError(f"loop at vertex {u}", line=i)
        if u > v:
            raise EdgeSyntaxError(f"edge must satisfy u < v, got {raw!r}", line=i)
        if v >= n:
            raise VertexRangeError(f"vertex {v} out of range for n={n}", line=i)
        nbrs = adj.get(u, 0)
        if nbrs >> v & 1:
            raise DuplicateEdgeError(f"duplicate edge {u} {v}", line=i)
        adj[u] = nbrs | 1 << v
        adj[v] = adj.get(v, 0) | 1 << u
    return Graph._from_adj([adj.get(v, 0) for v in range(n)])


def reference_feasible_candidates(adj, ell: int, chosen: int, cand: int,
                                  v: int) -> int:
    out = cand
    near = chosen & adj[v]
    rest = cand & adj[v]
    while rest:
        low = rest & -rest
        rest ^= low
        if ell == 2 or _first_clique(
                adj, ell - 2, near & adj[low.bit_length() - 1]) is not None:
            out ^= low
    return out


def reference_verify_tiling(g: Graph, t: CliqueTiling, within=None) -> bool:
    seen: set = set()
    allowed = within.vertices() if within is not None else None
    for s in t.members:
        vs = s.vertices()
        if len(vs) != t.r:
            return False
        for v in vs:
            if v in seen:
                return False
            if allowed is not None and v not in allowed:
                return False
            seen.add(v)
        for i in range(len(vs)):
            for j in range(i + 1, len(vs)):
                if not g.adj[vs[i]] >> vs[j] & 1:
                    return False
    return True


def reference_parse_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise Graph6Error("empty graph6 payload", offset=0)
    data = [ord(c) - 63 for c in s]
    if any(b < 0 or b > 63 for b in data):
        bad = next(i for i, b in enumerate(data) if b < 0 or b > 63)
        raise Graph6Error(f"byte {s[bad]!r} outside graph6 alphabet", offset=bad)
    if data[0] <= 62:
        n, pos = data[0], 1
    elif len(data) >= 4 and data[1] <= 62:
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        pos = 4
    elif len(data) >= 8:
        n = 0
        for b in data[2:8]:
            n = (n << 6) | b
        pos = 8
    else:
        raise Graph6Error("truncated vertex count", offset=0)
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(data) - pos != need:
        raise Graph6Error(
            f"bit field has {len(data) - pos} sextets, expected {need}", offset=pos)
    bits = 0
    for b in data[pos:]:
        bits = (bits << 6) | b
    bits >>= (need * 6 - nbits)
    edges = []
    k = nbits - 1
    for v in range(1, n):
        for u in range(v):
            if bits >> k & 1:
                edges.append((u, v))
            k -= 1
    return Graph(n, edges)


def reference_format_graph6(g: Graph) -> str:
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    elif n <= 258047:
        head = "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    else:
        head = "~~" + "".join(chr(((n >> s) & 63) + 63) for s in (30, 24, 18, 12, 6, 0))
    bits = 0
    nbits = n * (n - 1) // 2
    k = nbits - 1
    for v in range(1, n):
        for u in range(v):
            if g.adj[u] >> v & 1:
                bits |= 1 << k
            k -= 1
    need = (nbits + 5) // 6
    bits <<= need * 6 - nbits
    body = "".join(chr(((bits >> (6 * (need - 1 - i))) & 63) + 63) for i in range(need))
    return head + body


def reference_parser():
    """The ``cfl`` command-line grammar as an argparse parser."""
    import argparse

    def int_option(text):
        return number(text)

    int_option.__name__ = "int"     # so argparse says "invalid int value"
    parser = argparse.ArgumentParser(prog="cfl")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (*HANDLERS, "scan", "graph"):
        p = sub.add_parser(name)
        if name == "graph":
            graph_sub = p.add_subparsers(dest="graph_command", required=True)
            conv = graph_sub.add_parser("convert")
            conv.add_argument("--from", dest="from_fmt", required=True)
            conv.add_argument("--to", dest="to_fmt", required=True)
            conv.add_argument("--in", dest="infile", default=None)
            conv.add_argument("--out", dest="outfile", default=None)
            continue
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int_option, default=None)
        p.add_argument("--threads", type=int_option, default=1)
    return parser
