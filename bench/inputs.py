"""Seeded input generators for the benchmark, in the standard library only.

cfl receives only the files written here, so a change to cfl's own
generators cannot change the load.  Graphs are lists of neighbour bitsets
(``adj[v]`` is an int), the same representation cfl uses, but built and
checked by code that shares nothing with cfl.

Every generator draws from a ``random.Random`` seeded with a string label
path (``stream(seed, "tile-deep", "inner", 16)``), so adding a consumer
never shifts another consumer's stream.  Difficulty is set by family
parameters and instance counts, never by choosing seeds.
"""

from __future__ import annotations

import random
from typing import Iterable, List, Sequence


def stream(seed: int, *labels: object) -> random.Random:
    return random.Random("/".join(str(x) for x in (seed,) + labels))


def bit_list(mask: int) -> List[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def has_clique(adj: Sequence[int], size: int, mask: int) -> bool:
    """True iff ``mask`` spans a clique on ``size`` vertices."""
    if size <= 0:
        return True
    if size == 1:
        return mask != 0
    while mask:
        low = mask & -mask
        mask ^= low
        if has_clique(adj, size - 1, mask & adj[low.bit_length() - 1]):
            return True
    return False


def is_clique(adj: Sequence[int], vertices: Iterable[int]) -> bool:
    vs = list(vertices)
    return all(adj[u] >> v & 1 for i, u in enumerate(vs) for v in vs[i + 1:])


def max_matching(adj: Sequence[int], mask: int) -> int:
    """Matching number of the subgraph induced by ``mask`` (small graphs)."""
    if not mask:
        return 0
    low = mask & -mask
    v = low.bit_length() - 1
    rest = mask ^ low
    best = max_matching(adj, rest)
    for u in bit_list(adj[v] & rest):
        best = max(best, 1 + max_matching(adj, rest & ~(1 << u)))
    return best


def _add_edge(adj: List[int], u: int, v: int) -> None:
    adj[u] |= 1 << v
    adj[v] |= 1 << u


def klfree_process(n: int, k: int, rng: random.Random,
                   max_edges: int = -1) -> List[int]:
    """Random K_k-free process: visit the pairs in random order and add each
    edge that closes no K_k, stopping after ``max_edges`` edges (-1: never)."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    adj = [0] * n
    edges = 0
    for u, v in pairs:
        if edges == max_edges:
            break
        if not has_clique(adj, k - 2, adj[u] & adj[v]):
            _add_edge(adj, u, v)
            edges += 1
    return adj


def gnp(n: int, p: float, rng: random.Random) -> List[int]:
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                _add_edge(adj, u, v)
    return adj


def near_complete(n: int, rng: random.Random) -> List[int]:
    """K_n minus a random (near-)perfect matching.  Every m-vertex subset
    has minimum degree at least m-2, so by Hajnal-Szemeredi it has a
    K_r-factor whenever r divides m and m >= 2r."""
    full = (1 << n) - 1
    adj = [full & ~(1 << v) for v in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    for i in range(0, n - 1, 2):
        u, v = order[i], order[i + 1]
        adj[u] &= ~(1 << v)
        adj[v] &= ~(1 << u)
    return adj


def certified_clusters(k: int, m: int, extra: int,
                       rng: random.Random) -> List[int]:
    """k clusters of m vertices (cluster i is i*m .. i*m+m-1) plus ``extra``
    exceptional vertices.  Each cross-cluster pair is K_{m,m} minus a random
    perfect matching, so every X' x Y' with |X'|, |Y'| >= a0 has density at
    least 1 - 1/a0 against a base density of 1 - 1/m: the pair is
    epsilon-regular whenever 1/ceil(epsilon*m) <= epsilon.  Edges inside
    clusters and at exceptional vertices are G(., 1/2)."""
    n = k * m + extra
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            same = u // m == v // m and v < k * m
            if (u >= k * m or v >= k * m or same) and rng.random() < 0.5:
                _add_edge(adj, u, v)
    for i in range(k):
        for j in range(i + 1, k):
            perm = list(range(m))
            rng.shuffle(perm)
            for a in range(m):
                for b in range(m):
                    if perm[a] != b:
                        _add_edge(adj, i * m + a, j * m + b)
    return adj


def edgelist(adj: Sequence[int]) -> str:
    """cfl's bit-exact edge-list format: ``n m`` then sorted ``u v`` lines."""
    edges = [(u, v) for u in range(len(adj)) for v in bit_list(adj[u]) if u < v]
    return f"{len(adj)} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def vertex_list(vertices: Iterable[int]) -> str:
    return ",".join(str(v) for v in sorted(vertices))
