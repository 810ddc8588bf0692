"""Shared test fixtures: independent brute-force oracles and seeded graph
streams.

The oracles here deliberately avoid the package's solver code paths: clique
membership goes through adjacency-bit loops over itertools.combinations,
maximum tilings through a memoized set-packing recursion over uncovered-set
masks, and graph6 decoding through a from-scratch reimplementation of the
format.  ``covered`` is the union of a tiling's member masks.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, List, Tuple

import pytest
from hypothesis import strategies as st

from cfl.graphs import Graph, mask_of, random_gnp
from cfl.rng import SplitMix64


def subset_is_clique(g: Graph, vs) -> bool:
    vs = list(vs)
    for i in range(len(vs)):
        for j in range(i + 1, len(vs)):
            if not g.adj[vs[i]] >> vs[j] & 1:
                return False
    return True


def covered(tiling) -> int:
    m = 0
    for s in tiling.members:
        m |= s.mask
    return m


def contains_clique(g: Graph, vs, k: int) -> bool:
    for cand in combinations(sorted(vs), k):
        if subset_is_clique(g, cand):
            return True
    return False


def naive_cliques(g: Graph, k: int) -> List[Tuple[int, ...]]:
    """All k-cliques by filtering every k-subset; sorted tuples."""
    return [c for c in combinations(range(g.n), k) if subset_is_clique(g, c)]


def naive_alpha(g: Graph, ell: int) -> int:
    """Maximum K_ell-free subset size by full-subset enumeration."""
    best = 0
    for mask in range(1 << g.n):
        size = mask.bit_count()
        if size <= best:
            continue
        vs = [v for v in range(g.n) if mask >> v & 1]
        if not contains_clique(g, vs, ell):
            best = size
    return best


def naive_max_tiling_count(g: Graph, r: int) -> int:
    """Maximum number of disjoint r-cliques via memoized packing over
    uncovered-set masks."""
    cliques = [mask_of(c) for c in naive_cliques(g, r)]
    by_vertex: Dict[int, List[int]] = {v: [] for v in range(g.n)}
    for cm in cliques:
        low = (cm & -cm).bit_length() - 1
        by_vertex[low].append(cm)
    memo: Dict[int, int] = {0: 0}

    def f(mask: int) -> int:
        if mask in memo:
            return memo[mask]
        v = (mask & -mask).bit_length() - 1
        best = f(mask & (mask - 1))  # leave v uncovered
        for cm in by_vertex[v]:
            if cm & mask == cm:
                best = max(best, 1 + f(mask & ~cm))
        memo[mask] = best
        return best

    return f((1 << g.n) - 1)


def naive_has_factor(g: Graph, r: int) -> bool:
    if g.n % r:
        return False
    return naive_max_tiling_count(g, r) * r == g.n


def independent_graph6_decode(line: str) -> Tuple[int, List[Tuple[int, int]]]:
    """From-scratch graph6 decoder (n <= 258047): returns (n, sorted edges).

    n <= 62 takes one header byte; larger n take "~" and three 6-bit
    digits, most significant first."""
    s = line.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if s[0] == "~":
        n = sum((ord(ch) - 63) << shift for ch, shift in zip(s[1:4], (12, 6, 0)))
        s = s[3:]
    else:
        n = ord(s[0]) - 63
    bits = []
    for ch in s[1:]:
        val = ord(ch) - 63
        bits.extend((val >> shift) & 1 for shift in range(5, -1, -1))
    edges = []
    k = 0
    for col in range(1, n):
        for row in range(col):
            if bits[k]:
                edges.append((row, col))
            k += 1
    return n, sorted(edges)


def seeded_graphs(count: int, n_range: Tuple[int, int], seed: int,
                  p_choices=(0.2, 0.35, 0.5, 0.65, 0.8)):
    """Deterministic stream of (graph, meta) pairs for oracle batteries."""
    rng = SplitMix64(seed)
    out = []
    lo, hi = n_range
    for i in range(count):
        n = lo + rng.randrange(hi - lo + 1)
        p = p_choices[rng.randrange(len(p_choices))]
        out.append(random_gnp(n, p, rng.next_u64()))
    return out


@pytest.fixture(scope="session")
def small_graph_battery():
    return seeded_graphs(40, (4, 11), seed=0xBEEF)


@st.composite
def small_graphs(draw, max_n=12):
    """Hypothesis strategy: a graph on 1..max_n vertices, each pair drawn as
    an edge or not."""
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, k in zip(pairs, keep) if k])
