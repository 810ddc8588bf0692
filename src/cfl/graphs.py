"""Immutable simple graphs over dense integer vertices, with bitset adjacency.

Vertices are 0..n-1 and every neighborhood is a Python int used as a bitset,
so subset intersection (the inner loop of every solver in this package) is a
single ``&``.  Graphs are immutable after construction; vertex subsets are
lightweight (graph, mask) views.

Two wire formats are supported:

* edge list: first line ``n m``, then m lines ``u v`` with 0 <= u < v < n,
  LF line endings, no comments.  Every field is ASCII decimal digits, and
  n is at most MAX_EDGELIST_N, since the graph holds one bitset per vertex.
  The serializer emits edges sorted lexicographically, so parse/serialize
  round-trips are bit-exact.
* graph6: the standard printable encoding, one graph per line, with the
  optional ``>>graph6<<`` header accepted on input.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .numbers import decimal_fields
from .rng import SplitMix64


class ParameterError(ValueError):
    """A parameter value a solver refuses; ``key`` names the parameter as a
    ``cfl`` config names it, so the CLI reports ``[<kind>] <key>``."""

    def __init__(self, key: str, message: str):
        super().__init__(message)
        self.key = key

    @classmethod
    def at_least(cls, key: str, value: int, low: int) -> None:
        """Refuse an integer ``value`` below ``low``."""
        if value < low:
            raise cls(key, f"expected an integer >= {low}, got {value}")


class SelfCheckError(RuntimeError):
    """cfl's own certificate failed its re-check: a defect, not bad input."""


class SearchCapExceeded(Exception):
    """Raised by an exact search on its first node past ``node_cap``; the
    search's public entry point catches it and flags the result."""


class GraphFormatError(ValueError):
    """Malformed graph payload. ``line`` is 1-based; ``offset`` a byte offset."""

    def __init__(self, message: str, line: Optional[int] = None,
                 offset: Optional[int] = None):
        where = []
        if line is not None:
            where.append(f"line {line}")
        if offset is not None:
            where.append(f"byte {offset}")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(message + suffix)
        self.line = line
        self.offset = offset


class HeaderError(GraphFormatError):
    pass


class EdgeSyntaxError(GraphFormatError):
    pass


class VertexRangeError(GraphFormatError):
    pass


class LoopError(GraphFormatError):
    pass


class DuplicateEdgeError(GraphFormatError):
    pass


class Graph6Error(GraphFormatError):
    pass


def iter_bits(mask: int) -> Iterator[int]:
    """Yield set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


class Graph:
    """Immutable simple graph. ``adj[v]`` is the neighbor bitset of v."""

    __slots__ = ("n", "adj", "edge_count")

    def __init__(self, n: int, edges: Iterable[Tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self._fill(adj)

    def _fill(self, adj: List[int]) -> None:
        object.__setattr__(self, "n", len(adj))
        object.__setattr__(self, "adj", tuple(adj))
        object.__setattr__(self, "edge_count", sum(a.bit_count() for a in adj) // 2)

    @classmethod
    def _from_adj(cls, adj: List[int]) -> "Graph":
        """The graph of neighbor bitsets that are symmetric, loop-free and in
        range by construction (the parsers check each edge as they read it);
        nothing is checked again."""
        g = object.__new__(cls)
        g._fill(adj)
        return g

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    # -- basic queries -------------------------------------------------

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def min_degree(self) -> int:
        return min(map(int.bit_count, self.adj), default=0)

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Edges as (u, v) with u < v, lexicographic order."""
        for u in range(self.n):
            rest = self.adj[u] >> (u + 1)
            for off in iter_bits(rest):
                yield (u, u + 1 + off)

    def is_clique(self, mask: int) -> bool:
        """True iff the vertices of ``mask`` are pairwise adjacent."""
        rest = mask
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            rest ^= low
            if rest & ~self.adj[v]:
                return False
        return True

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


class VertexSet:
    """A subset of the vertices of one fixed graph, stored as a bitset."""

    __slots__ = ("graph", "mask")

    def __init__(self, graph: Graph, mask: int):
        if mask < 0 or mask >> graph.n:
            raise ValueError("mask has bits outside the vertex range")
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "mask", mask)

    def __setattr__(self, name, value):
        raise AttributeError("VertexSet is immutable")

    @classmethod
    def of(cls, graph: Graph, vertices: Iterable[int]) -> "VertexSet":
        return cls(graph, mask_of(vertices))

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self) -> Iterator[int]:
        return iter_bits(self.mask)

    def __contains__(self, v: int) -> bool:
        return bool(self.mask >> v & 1)

    def vertices(self) -> Tuple[int, ...]:
        return tuple(iter_bits(self.mask))

    def __eq__(self, other) -> bool:
        return (isinstance(other, VertexSet) and self.mask == other.mask
                and self.graph == other.graph)

    def __hash__(self) -> int:
        return hash((id(self.graph), self.mask))

    def __repr__(self) -> str:
        return f"VertexSet({sorted(self.vertices())})"


# -- parsing and serialization ------------------------------------------

MAX_EDGELIST_N = 1_000_000
_ID_DIGITS = len(str(MAX_EDGELIST_N))   # the most digits of an in-range n or id
# characters per decoded slice of an edge-list body, so the transient lists
# of a large body stay small
_EDGELIST_SLICE = 1 << 13
_NO_DIGITS = str.maketrans("", "", "0123456789")


def _decode_edgelist(text: str) -> Optional[Graph]:
    """The graph of a well-formed edge list, checked and decoded in bulk,
    or None for any payload it cannot vouch for.

    The body must be ASCII and each line two digit fields joined by one
    space, with the final LF: deleting the digits leaves m copies of " \\n",
    and no field is empty.  The integers are then read in slices of about
    ``_EDGELIST_SLICE`` characters, each slice's u < v < n checked over its
    lists before its edges are set.  A repeated edge sets no new bit, so it
    shows as fewer than m edges in the graph.  Its one list of n zeros is
    allocated before any edge is checked, which n <= MAX_EDGELIST_N bounds."""
    if not text.isascii() or not text.endswith("\n"):
        return None
    head, _, body = text.partition("\n")
    fields = head.split(" ")
    if len(fields) != 2 or not decimal_fields(fields):
        return None
    n, m = int(fields[0]), int(fields[1])
    shape = body.translate(_NO_DIGITS)
    if (n > MAX_EDGELIST_N or len(shape) != 2 * m or shape != " \n" * m
            or body.startswith(" ") or "\n " in body or " \n" in body):
        return None
    adj = [0] * n
    start = 0
    while start < len(body):
        end = body.find("\n", start + _EDGELIST_SLICE) + 1 or len(body)
        ends = list(map(int, body[start:end].split()))
        us, vs = ends[0::2], ends[1::2]
        if max(vs) >= n or not all(map(int.__lt__, us, vs)):
            return None
        for u, v in zip(us, vs):
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        start = end
    g = Graph._from_adj(adj)
    return g if g.edge_count == m else None


def parse_edgelist(text: str) -> Graph:
    """Parse the edge-list wire format; errors carry line numbers.

    A well-formed payload is decoded in bulk (``_decode_edgelist``); the
    line-by-line reader below runs only when that declines, and it is the
    only code that raises, so every error names its first bad line."""
    try:
        g = _decode_edgelist(text)
    except ValueError:      # a field past int's digit limit; the reader says where
        g = None
    if g is not None:
        return g
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise HeaderError("empty payload", line=1)
    head = lines[0].split(" ")
    if len(head) != 2 or not decimal_fields(head):
        raise HeaderError(f"expected 'n m' header, got {lines[0]!r}", line=1)
    # a field past every in-range n, or m < n**2, is refused before int reads it
    n, m = (f.lstrip("0") or "0" for f in head)
    if len(n) > _ID_DIGITS or int(n) > MAX_EDGELIST_N:
        raise HeaderError(f"n = {n} exceeds the limit {MAX_EDGELIST_N}", line=1)
    if len(m) > 2 * _ID_DIGITS or int(m) != len(lines) - 1:
        raise HeaderError(
            f"header declares {m} edges but payload has {len(lines) - 1} edge lines",
            line=1)
    n = int(n)
    # keyed by vertex, so an absurd n costs nothing before an edge is refused
    adj: Dict[int, int] = {}
    for i, raw in enumerate(lines[1:], start=2):
        parts = raw.split(" ")
        if len(parts) != 2 or not decimal_fields(parts):
            raise EdgeSyntaxError(f"expected 'u v', got {raw!r}", line=i)
        u, v = (f.lstrip("0") or "0" for f in parts)
        if max(len(u), len(v)) > _ID_DIGITS:   # before int reads it
            raise VertexRangeError(
                f"vertex {max(u, v, key=len)} out of range for n={n}", line=i)
        u, v = int(u), int(v)
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


def format_edgelist(g: Graph) -> str:
    out = [f"{g.n} {g.edge_count}"]
    out.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(out) + "\n"


_G6_HEADER = ">>graph6<<"
_SEXTET_BITS = [f"{b:06b}" for b in range(64)]


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line (length up to 2^36 vertices per the format)."""
    s = text.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):]
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
    # bit k of the field, pair (u, v) with k = v(v-1)/2 + u, is field[k]
    field = "".join([_SEXTET_BITS[b] for b in data[pos:]])
    adj = [0] * n
    for v in range(1, n):
        row = v * (v - 1) // 2
        adj[v] |= int(field[row:row + v][::-1], 2)     # v's low neighbours
        bit = 1 << v
        u = field.find("1", row, row + v)
        while u >= 0:
            adj[u - row] |= bit
            u = field.find("1", u + 1, row + v)
    return Graph._from_adj(adj)


def format_graph6(g: Graph) -> str:
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    elif n <= 258047:
        head = "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    else:
        head = "~~" + "".join(chr(((n >> s) & 63) + 63) for s in (30, 24, 18, 12, 6, 0))
    # row v lists pairs (0, v) .. (v-1, v): v's low neighbours, bit 0 first
    field = "".join([f"{g.adj[v] & ((1 << v) - 1):0{v}b}"[::-1] for v in range(1, n)])
    field += "0" * (-len(field) % 6)
    body = "".join([chr(int(field[i:i + 6], 2) + 63) for i in range(0, len(field), 6)])
    return head + body


def parse_graph(payload) -> Graph:
    """Sniff edge-list vs graph6 and parse.

    Edge lists start with a decimal header line; anything else is treated as
    graph6.  Accepts str or bytes (UTF-8).
    """
    if isinstance(payload, bytes):
        payload = payload.decode("utf-8")
    parts = payload.split("\n", 1)[0].strip().split(" ")
    if len(parts) == 2 and decimal_fields(parts):
        return parse_edgelist(payload)
    return parse_graph6(payload)


# -- generators ----------------------------------------------------------


def circulant_graph(n: int, dists: Iterable[int]) -> Graph:
    """The circulant C_n(D): v ~ v + d and v - d (mod n) for each distance d
    of D, each in 1..n // 2 and none repeated."""
    dists = list(dists)
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if len(set(dists)) < len(dists):
        raise ValueError("a distance is repeated")
    for d in dists:
        if not 1 <= d <= n // 2:
            raise ValueError(f"distance {d} outside 1..{n // 2}")
    zero = mask_of(dists) | mask_of(n - d for d in dists)
    # v's neighbours are vertex 0's, rotated by v
    return Graph._from_adj([(zero << v | zero >> (n - v)) & ((1 << n) - 1)
                            for v in range(n)])


def empty_graph(n: int) -> Graph:
    return circulant_graph(n, ())


def complete_graph(n: int) -> Graph:
    return circulant_graph(n, range(1, n // 2 + 1))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return circulant_graph(n, (1,))


def path_graph(n: int) -> Graph:
    return Graph(n, ((i, i + 1) for i in range(n - 1)))


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges = [(min(u, v), max(u, v)) for u, v in outer + spokes + inner]
    return Graph(10, edges)


def kneser_graph(n: int, k: int) -> Graph:
    """Vertices are the k-subsets of [n]; edges join disjoint subsets."""
    from itertools import combinations

    subsets = list(combinations(range(n), k))
    masks = [mask_of(s) for s in subsets]
    edges = [(i, j) for i in range(len(subsets)) for j in range(i + 1, len(subsets))
             if not masks[i] & masks[j]]
    return Graph(len(subsets), edges)


def complete_multipartite(part_sizes: Sequence[int]) -> Graph:
    """Complete multipartite graph; parts occupy consecutive vertex ranges."""
    if not part_sizes:
        raise ValueError("at least one part required")
    if any(s <= 0 for s in part_sizes):
        raise ValueError("part sizes must be positive")
    bounds = [0]
    for s in part_sizes:
        bounds.append(bounds[-1] + s)
    n = bounds[-1]
    edges = []
    for p in range(len(part_sizes)):
        for u in range(bounds[p], bounds[p + 1]):
            for v in range(bounds[p + 1], n):
                edges.append((u, v))
    return Graph(n, edges)


def random_gnp(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p) under the package's SplitMix64 stream.

    Pair (u, v), u < v in lexicographic order consumes one uniform draw;
    the same seed always yields the identical graph.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p={p} outside [0, 1]")
    draw = SplitMix64(seed).random
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                     if draw() < p])


def random_graph_with_min_degree(n: int, target: int, seed: int,
                                 p: float = 0.5) -> Graph:
    """Sample G(n,p), then raise the minimum degree to ``target`` by adding
    edges at the lowest-degree vertex toward low-degree non-neighbors."""
    g = random_gnp(n, p, seed)
    rng = SplitMix64(seed ^ 0xD06)
    adj = [a for a in g.adj]
    full = (1 << n) - 1
    for _ in range(1000):
        degs = [a.bit_count() for a in adj]
        v = min(range(n), key=lambda i: degs[i])
        if degs[v] >= target:
            break
        candidates = [u for u in iter_bits(full & ~adj[v] & ~(1 << v))]
        if not candidates:
            break
        candidates.sort(key=lambda u: (degs[u], u))
        u = candidates[0] if rng.random() < 0.9 else rng.choice(candidates)
        adj[v] |= 1 << u
        adj[u] |= 1 << v
    return Graph._from_adj(adj)


# -- cliques and neighborhoods --------------------------------------------


def iter_clique_masks(g: Graph, k: int, within: Optional[int] = None) -> Iterator[int]:
    """Yield every k-clique inside ``within`` as a bitmask.

    Lexicographic in the sorted vertex tuple: the recursion extends the
    current clique only with higher-indexed common neighbors, so each clique
    is produced exactly once and the stream order is canonical.
    """
    if k < 1:
        raise ValueError("clique order must be >= 1")
    universe = g.full_mask() if within is None else within
    if k == 1:
        for v in iter_bits(universe):
            yield 1 << v
        return
    adj = g.adj

    def extend(clique_mask: int, cand: int, depth: int) -> Iterator[int]:
        rest = cand
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            rest ^= low
            if depth + 1 == k:
                yield clique_mask | low
            else:
                yield from extend(clique_mask | low, rest & adj[v], depth + 1)

    yield from extend(0, universe, 0)


def _first_clique(adj, k: int, mask: int) -> Optional[int]:
    """The first k-clique (k >= 1) that ``iter_clique_masks`` yields inside
    ``mask`` over the adjacency bitsets ``adj``, or None: the one routine
    that searches a mask for a clique.  A branch stops once fewer than k
    vertices are left.  Private and generator-free, so the exact searches'
    per-node calls stay out of function-level tracing."""
    if k == 1:
        return mask & -mask or None
    while mask.bit_count() >= k:
        low = mask & -mask
        mask ^= low
        found = _first_clique(adj, k - 1, mask & adj[low.bit_length() - 1])
        if found is not None:
            return found | low
    return None


def _greedy_clique_free(adj, k: int, order: Iterable[int]) -> int:
    """The greedy K_k-free set (k >= 2) over ``order``, as a bitmask: a
    vertex joins unless the set's part of its neighbourhood already holds a
    K_{k-1}."""
    chosen = 0
    for v in order:
        if _first_clique(adj, k - 1, chosen & adj[v]) is None:
            chosen |= 1 << v
    return chosen


def has_clique(g: Graph, k: int, within: Optional[int] = None) -> bool:
    """True iff a k-clique exists inside ``within`` (default: all of g);
    the empty clique (k <= 0) always exists."""
    return k <= 0 or _first_clique(
        g.adj, k, g.full_mask() if within is None else within) is not None
