"""Builders for the extremal graph families used throughout the package.

Two deterministic constructions, and the resolver of graph specs:

* lower-bound family: a clique X1, joined completely to a K_{l+1}-free
  inner graph on X2.  Every r-clique must take at least r-l vertices from
  X1, which caps every K_r-tiling at |X1|/(r-l) copies.
* cover-threshold family: a hub vertex v whose neighborhood carries a
  K_{r-1}-free inner graph, plus a clique joined completely to that
  neighborhood but not to v.  No K_r covers v, so no K_r-factor exists.
* ``graph_from_spec``: the inner graphs and every other generated graph,
  named by a compact spec.  Circulants ``circulant:N,D1,D2,...`` are the
  deterministic K_{l+1}-free inner graphs of small l-independence; the
  README lists pinned ones.

Inner graphs are certified clique-free at build time, never trusted, and a
built cover-threshold graph is re-checked (``graphs.SelfCheckError``).
Fractional sizes round to nearest with ties up, and builds report realized
sizes so downstream audits use realized, not nominal, parameters.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from . import graphs as gr
from .graphs import (Graph, ParameterError, SelfCheckError, VertexSet,
                     has_clique)
from .invariants import alpha_ell_exact, has_clique_cover
from .numbers import number, round_half_up
from .records import Record

if TYPE_CHECKING:
    from fractions import Fraction


# -- lower-bound family ----------------------------------------------------


class LowerBoundBuild(Record):
    graph: Graph
    clique_part: VertexSet            # X1
    inner_part: VertexSet             # X2
    min_degree: int
    tiling_size_limit: Fraction       # |X1| / (r - ell)
    nominal_uncovered_fraction: Fraction
    alpha_audit: Optional[dict] = None


def build_lower_bound_graph(n: int, r: int, ell: int, eta: Fraction,
                            inner: Graph) -> LowerBoundBuild:
    """Assemble clique + complete join + inner graph; certify the inner graph.

    ``eta`` in (0, (r-l)/r) fixes |X1| = round(eta*n); the inner graph must
    have exactly n - |X1| vertices and no K_{l+1}.  X1 occupies vertices
    0..|X1|-1, the inner graph sits on the rest in order.  For n <= 32 the
    l-independence bound (ell-1) + alpha_ell(inner) is audited against the
    exact solver.
    """
    ParameterError.at_least("n", n, 1)
    ParameterError.at_least("ell", ell, 2)
    ParameterError.at_least("r", r, ell + 1)
    from fractions import Fraction
    r_minus_l = r - ell
    if not 0 < eta < Fraction(r_minus_l, r):
        raise ParameterError(
            "eta", f"eta={eta} outside (0, (r-ell)/r = {Fraction(r_minus_l, r)})")
    x1 = round_half_up(eta * n)
    if x1 < 1:
        raise ParameterError("clique_size",
                             "clique part X1 must have at least one vertex")
    if inner.n != n - x1:
        raise ParameterError(
            "inner", f"inner graph has {inner.n} vertices, expected {n - x1}")
    if has_clique(inner, ell + 1):
        raise ParameterError("inner", f"inner graph contains a K_{ell + 1}")
    edges = [(u, v) for u in range(x1) for v in range(u + 1, n)]
    # inner edges shifted onto X2
    for u, v in inner.edges():
        edges.append((x1 + u, x1 + v))
    g = Graph(n, edges)
    mu = Fraction(r, r_minus_l) * (Fraction(r_minus_l, r) - eta)
    build = LowerBoundBuild(
        graph=g,
        clique_part=VertexSet.of(g, range(x1)),
        inner_part=VertexSet.of(g, range(x1, n)),
        min_degree=g.min_degree(),
        tiling_size_limit=Fraction(x1, r_minus_l),
        nominal_uncovered_fraction=mu,
    )
    if n <= 32:
        whole = alpha_ell_exact(g, ell)
        inner_alpha = alpha_ell_exact(inner, ell)
        bound = ell - 1 + inner_alpha.value
        build.alpha_audit = {
            "alpha": whole.value,
            "alpha_inner": inner_alpha.value,
            "bound": bound,
            "holds": whole.value <= bound,
        }
    return build


# -- cover-threshold family --------------------------------------------------


class CoverThresholdBuild(Record):
    graph: Graph
    hub: int                      # the distinguished vertex, always 0
    neighborhood: VertexSet
    clique_part: VertexSet
    min_degree: int
    degree_breakdown: dict


def build_cover_threshold_graph(n: int, r: int, x: Fraction,
                                inner: Graph) -> CoverThresholdBuild:
    """Hub = vertex 0; neighborhood = 1..s with s = round(x*n), carrying the
    K_{r-1}-free inner graph; clique = the other n - s - 1 vertices,
    complete to the neighborhood, with no edge to the hub.

    The "no K_r covers the hub" property is re-certified after assembly.
    """
    ParameterError.at_least("n", n, 1)
    ParameterError.at_least("r", r, 2)
    if not 0 < x < 1:
        raise ParameterError("x", f"x={x} outside (0, 1)")
    s = round_half_up(x * n)
    if s < 1:
        raise ParameterError("x", "hub neighborhood must be nonempty")
    if n - s - 1 < 1:
        raise ParameterError("x", "clique part must have at least one vertex")
    if inner.n != s:
        raise ParameterError("inner",
                             f"inner graph has {inner.n} vertices, expected {s}")
    if has_clique(inner, r - 1):
        raise ParameterError("inner", f"inner graph contains a K_{r - 1}")
    edges = [(0, 1 + i) for i in range(s)]
    for u, v in inner.edges():
        edges.append((1 + u, 1 + v))
    clique_lo = 1 + s
    for u in range(clique_lo, n):
        for v in range(1, s + 1):
            edges.append((v, u))
        for v in range(u + 1, n):
            edges.append((u, v))
    g = Graph(n, edges)
    if has_clique_cover(g, 0, r) is not None:
        raise SelfCheckError("construction invariant broken: hub is covered")
    hub_deg = g.degree(0)
    nb = VertexSet.of(g, range(1, s + 1))
    cl = VertexSet.of(g, range(clique_lo, n))
    breakdown = {
        "hub": hub_deg,
        "neighborhood_min": min(g.degree(v) for v in nb),
        "clique_min": min(g.degree(v) for v in cl) if len(cl) else None,
    }
    return CoverThresholdBuild(graph=g, hub=0, neighborhood=nb,
                               clique_part=cl, min_degree=g.min_degree(),
                               degree_breakdown=breakdown)


# -- graph specs ------------------------------------------------------------


def _spec_fields(spec: str, form: str, arg: str, kinds: tuple,
                 optional: int = 0) -> list:
    """``arg``'s comma-separated fields, read by ``kinds`` through ``number``;
    the last ``optional`` may be left out.  Any other count, or a field that
    does not read, is refused with a message naming the expected ``form``."""
    parts = arg.split(",")
    if not len(kinds) - optional <= len(parts) <= len(kinds):
        raise ParameterError("spec", f"expected {form}, got {spec!r}")
    try:
        return [number(text, kind) for text, kind in zip(parts, kinds)]
    except ValueError as exc:
        raise ParameterError("spec", f"{exc}, in {form}") from None


_ONE_COUNT = {"cycle": gr.cycle_graph, "complete": gr.complete_graph,
              "empty": gr.empty_graph, "path": gr.path_graph}


def graph_from_spec(spec: str, seed: int = 0) -> Graph:
    """Resolve a compact graph description.

    Accepted forms: ``c5`` / ``cycle:N``, ``petersen``, ``kneser:N,K``,
    ``complete:N``, ``empty:N``, ``path:N``, ``circulant:N,D1,D2,...``
    (v ~ v +- d mod N; one or more distances, each in 1..N // 2, none
    repeated), ``multipartite:A,B,...``, ``gnp:N,P[,SEED]``,
    ``gnp-min-degree:N,P,TARGET[,SEED]``.  Cycles, complete and empty graphs
    are circulants too.  A spec with more or fewer fields than its form is
    refused.
    """
    s = spec.strip().lower()
    name, colon, arg = s.partition(":")
    if name in ("petersen", "c5", "c_5"):
        if colon:
            raise ParameterError("spec", f"expected {name}, got {spec!r}")
        return gr.petersen_graph() if name == "petersen" else gr.cycle_graph(5)
    if name in _ONE_COUNT:
        return _ONE_COUNT[name](*_spec_fields(spec, f"{name}:N", arg, (int,)))
    if name == "circulant":
        form = "circulant:N,D1,D2,..."
        n, *dists = _spec_fields(spec, form, arg,
                                 (int,) * max(2, arg.count(",") + 1))
        try:
            return gr.circulant_graph(n, dists)
        except ValueError as exc:
            raise ParameterError("spec", f"{exc}, in {form}") from None
    if name == "kneser":
        return gr.kneser_graph(*_spec_fields(spec, "kneser:N,K", arg, (int, int)))
    if name == "multipartite":
        return gr.complete_multipartite(_spec_fields(
            spec, "multipartite:A,B,...", arg, (int,) * (arg.count(",") + 1)))
    if name == "gnp":
        n, p, *s0 = _spec_fields(spec, "gnp:N,P[,SEED]", arg, (int, float, int),
                                 optional=1)
        return gr.random_gnp(n, p, s0[0] if s0 else seed)
    if name == "gnp-min-degree":
        n, p, tgt, *s0 = _spec_fields(spec, "gnp-min-degree:N,P,TARGET[,SEED]",
                                      arg, (int, float, int, int), optional=1)
        return gr.random_graph_with_min_degree(n, tgt, s0[0] if s0 else seed, p=p)
    raise ParameterError("spec", f"unknown graph spec {spec!r}")
