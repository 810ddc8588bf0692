"""Density, regularity and super-regularity certification on explicit graphs.

A pair (X, Y) is epsilon-regular when every pair of subsets X' of X, Y' of
Y with |X'| >= eps|X|, |Y'| >= eps|Y| has |d(X',Y') - d(X,Y)| <= eps.  Only
the minimum sizes min_x = ceil(eps|X|), min_y = ceil(eps|Y|) need checking:
the density of a larger X' is the average over its min_x-subsets, so if it
lies outside the band so does some min_x-subset's, and the same holds for Y'.
At a fixed X' the densest and sparsest Y' of size min_y are the top and
bottom min_y vertices by degree into X'.  The exhaustive checker therefore
scans the C(|X|, min_x) subsets of X of size min_x against those two Y',
and the verdict is exact.  Deciding epsilon-regularity is co-NP-complete
(Alon, Duke, Lefmann, Rödl and Yuster, 1994), so an exact check stays
exponential in general.

Every check runs exhaustive exactly when that scan is affordable:
C(|X|, min_x) * |Y| <= 2^19 (``exhaustive_fits``), which admits every pair
with both sides <= 14 and, for example, sides 20 at eps = 1/4.  Beyond that
the check samples: it can refute regularity with a witness but never
certify it, and the verdict's mode says "sampled".  No caller picks the
mode.  All densities and thresholds are exact rationals, so verdicts carry
no float fuzz; each verdict carries its pair's density (``base_density``),
and an exhaustive witness is re-counted directly before it is reported
(a mismatch raises ``graphs.SelfCheckError``).  A float epsilon is read at
its shortest decimal (``numbers.exact_fraction``): 0.2 means exactly 1/5,
not the binary double just above it.

Partitions here are supplied by builders or files, never produced by a
regularity-lemma algorithm: the package certifies partitions, it does not
search for them.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from .graphs import Graph, ParameterError, SelfCheckError, VertexSet, iter_bits
from .numbers import decimal_fields, exact_fraction as _as_fraction
from .records import Record
from .rng import SplitMix64

if TYPE_CHECKING:
    from fractions import Fraction

# Work bound of an exhaustive check: subsets of X scanned times |Y|.
_EXHAUSTIVE_WORK = 1 << 19


class PartitionFormatError(ValueError):
    def __init__(self, message: str, line: Optional[int] = None):
        suffix = f" (line {line})" if line is not None else ""
        super().__init__(message + suffix)
        self.line = line


def pair_density(g: Graph, x: VertexSet, y: VertexSet) -> Fraction:
    """Exact density e(X, Y) / (|X| |Y|) of a disjoint nonempty pair."""
    if len(x) == 0 or len(y) == 0:
        raise ValueError("density of an empty side is undefined")
    if x.mask & y.mask:
        raise ValueError("sides must be disjoint")
    edges = 0
    ymask = y.mask
    for v in x:
        edges += (g.adj[v] & ymask).bit_count()
    from fractions import Fraction
    return Fraction(edges, len(x) * len(y))


class RegularityVerdict(Record):
    """Outcome of a regularity check.

    ``violation`` carries an offending subset pair when one was found.
    Exhaustive verdicts are ground truth; sampled verdicts are one-sided
    (a clean run means "no violation found in samples_used trials").
    """
    epsilon: Fraction
    mode: str                     # "exhaustive" | "sampled"
    regular: bool
    base_density: Fraction
    violation: Optional[Tuple[VertexSet, VertexSet]] = None
    violation_density: Optional[Fraction] = None
    samples_used: int = 0


def _qualifying_min(eps: Fraction, size: int) -> int:
    return max(1, math.ceil(eps * size))


def exhaustive_fits(a: int, b: int, eps: Fraction) -> bool:
    """Whether the exhaustive check of a pair with |X| = a, |Y| = b fits its
    work bound: C(a, min_x) subsets of X, each costing b degree counts.
    Every check in this module runs exhaustive exactly when this holds."""
    if eps <= 0:
        raise ParameterError("epsilon", f"expected a positive rational, got {eps}")
    return math.comb(a, _qualifying_min(eps, a)) * b <= _EXHAUSTIVE_WORK


def is_regular_pair(g: Graph, x: VertexSet, y: VertexSet, epsilon,
                    samples: int = 10_000, seed: int = 0) -> RegularityVerdict:
    """Check epsilon-regularity of a disjoint pair.

    When ``exhaustive_fits`` admits the pair, every X' of the minimum
    qualifying size is scanned against its extreme Y' (see module
    docstring); the first violation in scan order is the witness, making
    verdicts deterministic.  Otherwise ``samples`` subset pairs are drawn at
    the minimum qualifying sizes, where deviations are largest.
    """
    eps = _as_fraction(epsilon)
    if exhaustive_fits(len(x), len(y), eps):
        return _regular_exhaustive(g, x, y, eps)
    return _regular_sampled(g, x, y, eps, samples, seed)


def _regular_exhaustive(g, x, y, eps):
    """Scan the size-min_x masks of X in ascending order (Gosper's hack),
    each against the top then the bottom min_y vertices of Y.

    The witness is the first violation of the scan over every qualifying X'
    in ascending mask order and every q >= min_y: its X' has exactly min_x
    vertices, since a larger violating X' holds a violating min_x-subset
    with a smaller mask, and its q is min_y, since the top-q average never
    rises and the bottom-q average never falls as q grows.
    """
    d0 = pair_density(g, x, y)
    xs, ys = x.vertices(), y.vertices()
    a, b = len(xs), len(ys)
    min_x, min_y = _qualifying_min(eps, a), _qualifying_min(eps, b)
    # adjacency of each y into X-position space
    xpos = {v: i for i, v in enumerate(xs)}
    ydeg_masks = []
    for yv in ys:
        m = 0
        for v in iter_bits(g.adj[yv] & x.mask):
            m |= 1 << xpos[v]
        ydeg_masks.append(m)
    if min_x <= a and min_y <= b:
        q = min_y
        cells = min_x * q
        # top > (d0 + eps) cells and bot < (d0 - eps) cells, in integers
        top_max = math.floor((d0 + eps) * cells)
        bot_min = math.ceil((d0 - eps) * cells)
        xmask = (1 << min_x) - 1
        while not xmask >> a:
            counts = [(m & xmask).bit_count() for m in ydeg_masks]
            degs = sorted(counts)
            top = sum(degs[b - q:])
            bot = sum(degs[:q])
            if top > top_max or bot < bot_min:
                # rank Y by (degree, index), the witness's tie order
                order = sorted(range(b), key=counts.__getitem__)
                if top > top_max:
                    return _violation(g, x, y, xs, ys, xmask, order[b - q:],
                                      eps, d0, min_x, q, top)
                return _violation(g, x, y, xs, ys, xmask, order[:q], eps, d0,
                                  min_x, q, bot)
            low = xmask & -xmask
            ripple = xmask + low
            xmask = ripple | (((xmask ^ ripple) >> 2) // low)
    return RegularityVerdict(epsilon=eps, mode="exhaustive", regular=True,
                             base_density=d0)


def _violation(g, x, y, xs, ys, xmask, ysel, eps, d0, ax, q, edge_count):
    wx = VertexSet.of(g, (xs[i] for i in iter_bits(xmask)))
    wy = VertexSet.of(g, (ys[j] for j in ysel))
    from fractions import Fraction
    dv = Fraction(edge_count, ax * q)
    # re-verify the witness by direct density computation
    if pair_density(g, wx, wy) != dv:
        raise SelfCheckError(f"witness density {dv} does not match a direct "
                             "count")
    return RegularityVerdict(epsilon=eps, mode="exhaustive", regular=False,
                             base_density=d0, violation=(wx, wy),
                             violation_density=dv)


def _regular_sampled(g, x, y, epsilon, samples, seed):
    """The one-sided check: ``samples`` seeded draws of a min_x-subset of X
    and a min_y-subset of Y.  ``is_regular_pair`` runs it past the
    exhaustive work bound; tests call it directly on small pairs."""
    eps = _as_fraction(epsilon)
    d0 = pair_density(g, x, y)
    xs, ys = x.vertices(), y.vertices()
    min_x, min_y = _qualifying_min(eps, len(xs)), _qualifying_min(eps, len(ys))
    rng = SplitMix64(seed)
    lo = d0 - eps
    hi = d0 + eps
    for trial in range(1, samples + 1):
        wx = VertexSet.of(g, rng.sample(xs, min_x))
        wy = VertexSet.of(g, rng.sample(ys, min_y))
        dv = pair_density(g, wx, wy)
        if dv > hi or dv < lo:
            return RegularityVerdict(epsilon=eps, mode="sampled", regular=False,
                                     base_density=d0, violation=(wx, wy),
                                     violation_density=dv, samples_used=trial)
    return RegularityVerdict(epsilon=eps, mode="sampled", regular=True,
                             base_density=d0, samples_used=samples)


class SuperRegularVerdict(Record):
    """Regularity plus density floor plus per-vertex cross-degree audit.
    ``witness_vertex`` is the first vertex failing its degree floor."""
    epsilon: Fraction
    d: Fraction
    ok: bool
    reason: str                   # "ok" | "density" | "degree" | "irregular"
    regularity: RegularityVerdict
    witness_vertex: Optional[int] = None


def is_super_regular(g: Graph, x: VertexSet, y: VertexSet, epsilon, d,
                     samples: int = 10_000, seed: int = 0) -> SuperRegularVerdict:
    """(eps, d)-super-regularity: eps-regular (exhaustive or sampled as
    ``is_regular_pair`` decides), density >= d, and every vertex keeps
    cross-degree >= d times the opposite side size."""
    eps = _as_fraction(epsilon)
    dd = _as_fraction(d)
    verdict = is_regular_pair(g, x, y, eps, samples=samples, seed=seed)
    if not verdict.regular:
        return SuperRegularVerdict(eps, dd, False, "irregular", verdict)
    if verdict.base_density < dd:
        return SuperRegularVerdict(eps, dd, False, "density", verdict)
    for side, other in ((x, y), (y, x)):
        for v in side:
            if (g.adj[v] & other.mask).bit_count() < dd * len(other):
                return SuperRegularVerdict(eps, dd, False, "degree", verdict,
                                           witness_vertex=v)
    return SuperRegularVerdict(eps, dd, True, "ok", verdict)


# -- partitions and reduced graphs -------------------------------------------


class Partition(Record):
    """Exceptional set plus equal-size clusters covering all vertices."""
    graph: Graph
    exceptional: VertexSet
    clusters: List[VertexSet]

    def validate(self) -> None:
        n = self.graph.n
        union = self.exceptional.mask
        sizes = {len(c) for c in self.clusters}
        if len(self.clusters) == 0:
            raise ValueError("partition needs at least one cluster")
        if len(sizes) > 1:
            raise ValueError(f"clusters must have equal sizes, got {sorted(sizes)}")
        for c in self.clusters:
            if c.mask & union:
                raise ValueError("partition parts overlap")
            union |= c.mask
        if union != (1 << n) - 1:
            raise ValueError("partition does not cover the vertex set")

    @property
    def k(self) -> int:
        return len(self.clusters)

    @property
    def cluster_size(self) -> int:
        return len(self.clusters[0])


def parse_partition(text: str, g: Graph) -> Partition:
    """Parse the partition wire format: ``k m n0``, then one line of m
    vertex ids per cluster, then one line for the exceptional set.  An id
    past the graph, or used before in the file, is refused with its line."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise PartitionFormatError("empty payload", line=1)
    head = lines[0].split()
    if len(head) != 3 or not decimal_fields(head):
        raise PartitionFormatError(f"expected 'k m n0' header, got {lines[0]!r}",
                                   line=1)
    width = len(str(g.n))   # no header value or id has more digits than n
    head = [p.lstrip("0") or "0" for p in head]
    if max(map(len, head)) > width:
        raise PartitionFormatError(f"header past n={g.n}: {lines[0]!r}", line=1)
    k, m, n0 = map(int, head)
    if m < 1:
        raise PartitionFormatError("cluster size m must be at least 1", line=1)
    if len(lines) - 1 < k + (n0 > 0):
        raise PartitionFormatError(
            f"expected {k} cluster lines plus exceptional line", line=len(lines))
    seen, sets = 0, []
    for i, raw in enumerate(lines[1:k + 2]):
        parts, line = raw.split(), 2 + i
        if i < k and (len(parts) != m or not decimal_fields(parts)):
            raise PartitionFormatError(
                f"cluster line must list exactly {m} vertex ids", line=line)
        if i == k and not decimal_fields(parts):
            raise PartitionFormatError("exceptional line must list vertex ids",
                                       line=line)
        if i == k and len(parts) != n0:
            raise PartitionFormatError(
                f"exceptional line lists {len(parts)} ids, header says {n0}",
                line=line)
        start = seen
        for p in parts:
            p = p.lstrip("0") or "0"
            v = int(p) if len(p) <= width else g.n
            if v >= g.n or seen >> v & 1:
                raise PartitionFormatError(
                    f"vertex {p} out of range for n={g.n}" if v >= g.n
                    else f"duplicate vertex {v}", line=line)
            seen |= 1 << v
        sets.append(VertexSet(g, seen ^ start))
    exceptional = sets.pop() if len(sets) > k else VertexSet(g, 0)
    part = Partition(graph=g, exceptional=exceptional, clusters=sets)
    part.validate()
    return part


class ReducedGraph(Record):
    """Cluster graph of a partition: an edge wherever the pair density
    clears the threshold, weighted by that density."""
    k: int
    weights: Dict[Tuple[int, int], Fraction]

    def degree(self, i: int) -> int:
        return sum(1 for e in self.weights if i in e)

    def min_degree(self) -> int:
        return min((self.degree(i) for i in range(self.k)), default=0)


def reduced_graph(g: Graph, partition: Partition, d) -> ReducedGraph:
    partition.validate()
    dd = _as_fraction(d)
    if not 0 <= dd <= 1:
        raise ParameterError("d", f"expected a rational in [0, 1], got {dd}")
    weights = {}
    for i in range(partition.k):
        for j in range(i + 1, partition.k):
            dij = pair_density(g, partition.clusters[i], partition.clusters[j])
            if dij >= dd:
                weights[(i, j)] = dij
    return ReducedGraph(k=partition.k, weights=weights)
