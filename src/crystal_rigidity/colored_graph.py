"""Colored (gain) graphs over a crystallographic group.

A colored graph is a finite directed multigraph with a group element per
edge; it is the quotient description of an infinite symmetric graph.  This
module holds the data model, the file format, spanning forests and the
homomorphism that sends fundamental closed paths to group elements,
per-component subgroup invariants, and finite lifting for rendering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .groups import (
    EMPTY_LATTICE,
    GroupContext,
    GroupElement,
    IDENTITY,
    Lattice,
    SubgroupDescriptor,
    classify_subgroup,
    invariant_t,
    lattice_join,
    rep_of_lattice,
)


class Edge(NamedTuple):
    tail: int
    head: int
    color: GroupElement


@dataclass(frozen=True)
class ColoredGraph:
    """Directed multigraph with a group color per edge.

    Edge identity is the positional index, so parallel edges with equal
    colors are distinct elements.  Self-loops are allowed.
    """

    context: GroupContext
    n: int
    edges: Tuple[Edge, ...]

    def __post_init__(self):
        for idx, e in enumerate(self.edges):
            if not (0 <= e.tail < self.n and 0 <= e.head < self.n):
                raise ValueError(f"edge {idx} has vertex out of range")
            if not 0 <= e.color.s < self.context.k:
                raise ValueError(f"edge {idx} has rotation class out of range")

    @property
    def m(self) -> int:
        return len(self.edges)

    def with_doubled_edge(self, index: int) -> "ColoredGraph":
        """Append a parallel copy of one edge with the same color."""
        return ColoredGraph(self.context, self.n, self.edges + (self.edges[index],))

    def with_edge(self, tail: int, head: int, color: GroupElement) -> "ColoredGraph":
        return ColoredGraph(
            self.context, self.n, self.edges + (Edge(tail, head, GroupElement(*color)),)
        )


def make_graph(k: int, n: int, edges: Iterable[Tuple[int, int, Tuple[int, int, int]]]) -> ColoredGraph:
    """Convenience constructor from (tail, head, (m1, m2, s)) triples."""
    ctx = GroupContext(k)
    return ColoredGraph(
        ctx, n, tuple(Edge(t, h, GroupElement(*c)) for t, h, c in edges)
    )


# Input limits of the file format.  Tokenizing stops at the first line
# past MAX_EDGES edges, and n is checked before anything of size n is
# allocated.  Realizing an edgeless graph takes time and memory quadratic
# in n (a kernel of 2n + 2 dense vectors): 0.5 s and 62 MB at n = 500.
MAX_VERTICES = 500
MAX_EDGES = 2000
MAX_COLOR = 10**6  # bound on |m1| and |m2|

# Limits of ``render``: the radius, and the (2r+1)^2 * k * (n + m) points
# and segments that ``lift_patch`` places.
MAX_RADIUS = 50
MAX_PATCH = 200_000


class GraphParseError(ValueError):
    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


def parse_graph(text: str) -> ColoredGraph:
    """Parse the line-oriented graph format.

    Line 1 is ``gamma <k>``, line 2 ``vertices <n>``, then one
    ``e <tail> <head> <m1> <m2> <s>`` per edge.  ``#`` starts a comment.
    At most MAX_VERTICES vertices and MAX_EDGES edges, and
    |m1|, |m2| <= MAX_COLOR.
    """
    header: List[Tuple[int, List[str]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        content = raw.split("#", 1)[0].strip()
        if content:
            if len(header) == MAX_EDGES + 2:
                raise GraphParseError(lineno, f"more than {MAX_EDGES} edges")
            header.append((lineno, content.split()))
    if not header:
        raise GraphParseError(1, "empty graph file")

    lineno, words = header[0]
    if words[0] != "gamma" or len(words) != 2:
        raise GraphParseError(lineno, "expected 'gamma <k>'")
    try:
        k = int(words[1])
    except ValueError:
        raise GraphParseError(lineno, f"bad group order {words[1]!r}") from None
    if k not in (2, 3, 4, 6):
        raise GraphParseError(lineno, "k must be 2,3,4,6")
    ctx = GroupContext(k)

    if len(header) < 2:
        raise GraphParseError(lineno, "missing 'vertices <n>' line")
    lineno, words = header[1]
    if words[0] != "vertices" or len(words) != 2:
        raise GraphParseError(lineno, "expected 'vertices <n>'")
    try:
        n = int(words[1])
    except ValueError:
        raise GraphParseError(lineno, f"bad vertex count {words[1]!r}") from None
    if n < 0:
        raise GraphParseError(lineno, "vertex count must be non-negative")
    if n > MAX_VERTICES:
        raise GraphParseError(lineno, f"vertex count {n} exceeds the limit {MAX_VERTICES}")

    edges: List[Edge] = []
    for lineno, words in header[2:]:
        if words[0] != "e" or len(words) != 6:
            raise GraphParseError(lineno, "expected 'e <tail> <head> <m1> <m2> <s>'")
        try:
            tail, head, m1, m2, s = (int(w) for w in words[1:])
        except ValueError:
            raise GraphParseError(lineno, "edge fields must be integers") from None
        if not (0 <= tail < n and 0 <= head < n):
            raise GraphParseError(lineno, f"vertex out of range [0, {n})")
        if not 0 <= s < k:
            raise GraphParseError(lineno, f"rotation class out of range [0, {k})")
        if abs(m1) > MAX_COLOR or abs(m2) > MAX_COLOR:
            raise GraphParseError(lineno, f"color magnitude exceeds the limit {MAX_COLOR}")
        edges.append(Edge(tail, head, GroupElement(m1, m2, s)))
    return ColoredGraph(ctx, n, tuple(edges))


def serialize_graph(g: ColoredGraph) -> str:
    """Canonical text form; edge order is preserved."""
    lines = [f"gamma {g.context.k}", f"vertices {g.n}"]
    for e in g.edges:
        c = e.color
        lines.append(f"e {e.tail} {e.head} {c.t1} {c.t2} {c.s}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Components, spanning forests and the fundamental-path homomorphism.
# ---------------------------------------------------------------------------


def _resolve_subset(g: ColoredGraph, edge_subset) -> Tuple[int, ...]:
    if edge_subset is None:
        return tuple(range(g.m))
    subset = tuple(sorted(set(int(i) for i in edge_subset)))
    for i in subset:
        if not 0 <= i < g.m:
            raise ValueError(f"edge index {i} out of range")
    return subset


def components(g: ColoredGraph, edge_subset=None) -> Tuple[Tuple[int, ...], ...]:
    """Vertex partition into connected components of the (sub)graph.

    Components are listed by their smallest vertex, vertices ascending.
    All n vertices participate; isolated vertices form singletons.
    """
    subset = _resolve_subset(g, edge_subset)
    parent = list(range(g.n))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for i in subset:
        e = g.edges[i]
        ra, rb = find(e.tail), find(e.head)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    groups: Dict[int, List[int]] = {}
    for v in range(g.n):
        groups.setdefault(find(v), []).append(v)
    return tuple(tuple(groups[r]) for r in sorted(groups))


@dataclass(frozen=True)
class MarkedGraph:
    """Colored graph with base vertices and a spanning forest.

    ``walk[v]`` caches the color product along the forest path from the
    base vertex of v's component to v, which makes fundamental closed
    paths a three-term product.
    """

    graph: ColoredGraph
    edge_subset: Tuple[int, ...]
    base_vertices: Tuple[int, ...]
    forest: frozenset
    component_of: Tuple[int, ...]
    walk: Tuple[Tuple[int, int, int], ...] = field(repr=False)

    @property
    def component_count(self) -> int:
        return len(self.base_vertices)

    def non_forest_edges(self) -> Tuple[int, ...]:
        return tuple(i for i in self.edge_subset if i not in self.forest)


def spanning_forest(
    g: ColoredGraph,
    edge_subset=None,
    *,
    edge_order: Optional[Sequence[int]] = None,
    bases: Optional[Sequence[int]] = None,
) -> MarkedGraph:
    """Deterministic spanning forest and base vertices.

    The default scans edges in index order, keeping each edge that joins
    two components; the base of a component is its smallest vertex.
    ``edge_order`` and ``bases`` override the choices (the derived
    invariants do not depend on them).
    """
    subset = _resolve_subset(g, edge_subset)
    order = list(subset) if edge_order is None else [int(i) for i in edge_order]
    if sorted(order) != list(subset):
        raise ValueError("edge_order must be a permutation of the edge subset")

    parent = list(range(g.n))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    forest: List[int] = []
    adj: Dict[int, List[Tuple[int, int, bool]]] = {v: [] for v in range(g.n)}
    for i in order:
        e = g.edges[i]
        ra, rb = find(e.tail), find(e.head)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
            forest.append(i)
            adj[e.tail].append((e.head, i, True))
            adj[e.head].append((e.tail, i, False))

    comps = components(g, subset)
    comp_of = [0] * g.n
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = ci
    if bases is None:
        base_list = [comp[0] for comp in comps]
    else:
        base_list = [int(b) for b in bases]
        if len(base_list) != len(comps):
            raise ValueError("need exactly one base vertex per component")
        for ci, b in enumerate(base_list):
            if comp_of[b] != ci:
                raise ValueError(f"base vertex {b} not in component {ci}")

    ctx = g.context
    walk: List[Tuple[int, int, int]] = [IDENTITY] * g.n
    seen = [False] * g.n
    for b in base_list:
        stack = [b]
        seen[b] = True
        while stack:
            v = stack.pop()
            for w, i, forward in adj[v]:
                if seen[w]:
                    continue
                seen[w] = True
                color = g.edges[i].color
                walk[w] = (
                    ctx.compose(walk[v], color)
                    if forward
                    else ctx.compose(walk[v], ctx.invert(color))
                )
                stack.append(w)

    return MarkedGraph(
        graph=g,
        edge_subset=subset,
        base_vertices=tuple(base_list),
        forest=frozenset(forest),
        component_of=tuple(comp_of),
        walk=tuple(walk),
    )


def rho_of_fundamental_path(mg: MarkedGraph, edge_index: int) -> Tuple[int, int, int]:
    """Color product along the fundamental closed path of a non-forest edge.

    The path runs base -> tail along the forest, crosses the edge, and
    returns head -> base, so the image is walk(tail) * color * walk(head)^-1.
    """
    if edge_index in mg.forest:
        raise ValueError("tree edge has no fundamental path")
    if edge_index not in mg.edge_subset:
        raise ValueError(f"edge {edge_index} not in the marked subgraph")
    ctx = mg.graph.context
    e = mg.graph.edges[edge_index]
    return ctx.compose(
        ctx.compose(mg.walk[e.tail], e.color), ctx.invert(mg.walk[e.head])
    )


def component_generators(mg: MarkedGraph) -> Tuple[Tuple[Tuple[int, int, int], ...], ...]:
    """Fundamental-path images grouped by connected component."""
    gens: List[List[Tuple[int, int, int]]] = [[] for _ in range(mg.component_count)]
    for i in mg.non_forest_edges():
        ci = mg.component_of[mg.graph.edges[i].tail]
        gens[ci].append(rho_of_fundamental_path(mg, i))
    return tuple(tuple(gs) for gs in gens)


@dataclass(frozen=True)
class GraphInvariants:
    """Per-component subgroup data and the graph-level translation lattice."""

    component_descriptors: Tuple[SubgroupDescriptor, ...]
    t_list: Tuple[int, ...]
    global_lattice: Optional[Lattice]
    global_nontrivial: bool
    rep_g: int

    @property
    def t_sum(self) -> int:
        return sum(self.t_list)


def graph_invariants(
    g: ColoredGraph, edge_subset=None, marked: Optional[MarkedGraph] = None
) -> GraphInvariants:
    """Classify every component's fundamental-path image.

    The global lattice is the join of the component translation
    subgroups: exact for k = 2, a nontriviality flag otherwise.  The
    values do not depend on the base or forest choice.
    """
    ctx = g.context
    if marked is None:
        marked = spanning_forest(g, edge_subset)
    descriptors = tuple(
        classify_subgroup(ctx, gens) for gens in component_generators(marked)
    )
    t_list = tuple(invariant_t(d) for d in descriptors)
    if ctx.k == 2:
        lat = EMPTY_LATTICE
        for d in descriptors:
            lat = lattice_join(lat, d.lattice)
        return GraphInvariants(descriptors, t_list, lat, lat.rank > 0, rep_of_lattice(ctx, lat))
    nontrivial = any(d.lattice_nontrivial for d in descriptors)
    return GraphInvariants(descriptors, t_list, None, nontrivial, rep_of_lattice(ctx, nontrivial))


# ---------------------------------------------------------------------------
# Finite lifting for rendering.
# ---------------------------------------------------------------------------


class PlacedVertex(NamedTuple):
    vertex: int
    element: Tuple[int, int, int]
    x: float
    y: float


class PlacedSegment(NamedTuple):
    edge: int
    element: Tuple[int, int, int]
    x1: float
    y1: float
    x2: float
    y2: float


@dataclass(frozen=True)
class LiftedPatch:
    points: Tuple[PlacedVertex, ...]
    segments: Tuple[PlacedSegment, ...]
    cell: Tuple[Tuple[float, float], Tuple[float, float]]  # float images of t1, t2


def _rotation_floats(k: int, s: int) -> Tuple[Tuple[float, float], Tuple[float, float]]:
    """R^s for the rotation R by 2*pi/k."""
    theta = 2.0 * math.pi * s / k
    return ((math.cos(theta), -math.sin(theta)), (math.sin(theta), math.cos(theta)))


def check_patch_limits(g: ColoredGraph, radius: int) -> None:
    """Raise ValueError unless 0 <= radius <= MAX_RADIUS and the patch of
    ``lift_patch(g, _, radius)`` has at most MAX_PATCH points and segments."""
    if not 0 <= radius <= MAX_RADIUS:
        raise ValueError(f"radius must be in [0, {MAX_RADIUS}], got {radius}")
    size = (2 * radius + 1) ** 2 * g.context.k * (g.n + g.m)
    if size > MAX_PATCH:
        raise ValueError(f"patch of {size} points and segments exceeds the limit {MAX_PATCH}")


def lift_patch(g: ColoredGraph, realization, radius: int) -> LiftedPatch:
    """Materialize the lift over all (t, s) with |t1|, |t2| <= radius.

    ``realization`` provides points and the translation parameters v1
    (and v2 for k = 2); the placed point for group element gamma and
    vertex i is Phi(gamma) applied to p_i.  Output is floating point and
    intended for rendering only.
    """
    ctx = g.context
    k = ctx.k
    rot_pows = [_rotation_floats(k, s) for s in range(k)]
    v1 = (float(realization.v1[0]), float(realization.v1[1]))
    if k == 2:
        v2 = (float(realization.v2[0]), float(realization.v2[1]))
    else:
        rot = rot_pows[1]
        v2 = (
            rot[0][0] * v1[0] + rot[0][1] * v1[1],
            rot[1][0] * v1[0] + rot[1][1] * v1[1],
        )
    points_f = [(float(p[0]), float(p[1])) for p in realization.points]

    def apply(gamma: Tuple[int, int, int], p: Tuple[float, float]) -> Tuple[float, float]:
        m1, m2, s = gamma
        r = rot_pows[s % k]
        return (
            m1 * v1[0] + m2 * v2[0] + r[0][0] * p[0] + r[0][1] * p[1],
            m1 * v1[1] + m2 * v2[1] + r[1][0] * p[0] + r[1][1] * p[1],
        )

    patch = [
        (a, b, s)
        for a in range(-radius, radius + 1)
        for b in range(-radius, radius + 1)
        for s in range(k)
    ]
    points = []
    for gamma in patch:
        for i, p in enumerate(points_f):
            x, y = apply(gamma, p)
            points.append(PlacedVertex(i, gamma, x, y))
    segments = []
    for idx, e in enumerate(g.edges):
        for gamma in patch:
            x1, y1 = apply(gamma, points_f[e.tail])
            x2, y2 = apply(ctx.compose(gamma, e.color), points_f[e.head])
            segments.append(PlacedSegment(idx, gamma, x1, y1, x2, y2))
    return LiftedPatch(tuple(points), tuple(segments), (v1, v2))
