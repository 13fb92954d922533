"""Colored (gain) graphs over a crystallographic group.

A colored graph is a finite directed multigraph with a group element per
edge; it is the quotient description of an infinite symmetric graph.  This
module holds the data model, the file format, finite lifting for
rendering, and the invariant route that checks the count scan of
``sparsity``: marked spanning forests (which also give the components),
fundamental closed paths mapped to group elements, and per-component
subgroup invariants."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .groups import (
    GroupContext,
    GroupElement,
    IDENTITY,
    SubgroupDescriptor,
    classify_subgroup,
    invariant_t,
    join_rep,
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
        """Append one edge.  The child keeps the union engine that
        ``sparsity`` keeps on this graph, if any: a Laman pass over a
        prefix of the edges, which is a prefix of the child's too."""
        child = ColoredGraph(
            self.context, self.n, self.edges + (Edge(tail, head, GroupElement(*color)),)
        )
        if "_laman_engine" in vars(self):
            object.__setattr__(child, "_laman_engine", self._laman_engine)
        return child


def make_graph(k: int, n: int, edges: Iterable[Tuple[int, int, Tuple[int, int, int]]]) -> ColoredGraph:
    """Convenience constructor from (tail, head, (m1, m2, s)) triples."""
    ctx = GroupContext(k)
    return ColoredGraph(
        ctx, n, tuple(Edge(t, h, GroupElement(*c)) for t, h, c in edges)
    )


# Input limits of the file format.  Tokenizing stops at the first line
# past MAX_EDGES edges, and n is checked before anything of size n is
# allocated.  Realizing an edgeless graph returns 2n + rep kernel rows of
# one entry each: linear in n.
MAX_VERTICES = 500
MAX_EDGES = 2000
MAX_COLOR = 10**6  # bound on |m1| and |m2|
# Bytes read from a graph file, before any parsing: MAX_EDGES edge lines
# of the longest legal form take about 60 KB, so this leaves room for
# comments without letting a huge or endless file be read in whole.
MAX_FILE_BYTES = 1 << 20

# Limits of ``render``: the radius, and the (2r+1)^2 * k * (n + m) points
# and segments that ``lift_patch`` places.
MAX_RADIUS = 50
MAX_PATCH = 200_000

# Limits of the run-time knobs: ``rank --samples`` and ``selftest --scale``
# (a finite scale in (0, MAX_SCALE]).  Run time grows linearly in each.
# ``--bound`` of ``realize``, ``rank`` and ``render`` (in [8, MAX_BOUND]):
# exact elimination slows as the sampled integers grow, on Laman-count
# direction systems and ``render``'s fallback (``realize`` decides the
# others mod P).
MAX_SAMPLES = 1000
MAX_SCALE = 20.0
MAX_BOUND = 10**18


class GraphParseError(ValueError):
    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


def _integers(words: List[str], lineno: int, message: str) -> List[int]:
    """Fields of the file format: decimal integers of ASCII digits with an
    optional leading '-' (``int`` alone also takes '+', '_' and non-ASCII
    digits)."""
    digits = "".join(words).replace("-", "")
    if digits.isascii() and digits.isdigit():
        try:
            return [int(w) for w in words]
        except ValueError:  # a misplaced '-', or past the int <-> str digit limit
            pass
    raise GraphParseError(lineno, message)


def parse_graph(text: str) -> ColoredGraph:
    """Parse the line-oriented graph format.

    Line 1 is ``gamma <k>``, line 2 ``vertices <n>``, then one
    ``e <tail> <head> <m1> <m2> <s>`` per edge, each field a decimal
    integer.  ``#`` starts a comment.  Lines end at '\n' (one '\r' before
    it is dropped) and fields are separated by ASCII spaces and tabs, so
    any other character outside a comment is part of a field, which the
    field checks reject.  At most MAX_VERTICES vertices and MAX_EDGES
    edges, and |m1|, |m2| <= MAX_COLOR.
    """
    header: List[Tuple[int, List[str]]] = []
    for lineno, raw in enumerate(text.replace("\t", " ").split("\n"), start=1):
        words = list(filter(None, raw.removesuffix("\r").split("#", 1)[0].split(" ")))
        if words:
            if len(header) == MAX_EDGES + 2:
                raise GraphParseError(lineno, f"more than {MAX_EDGES} edges")
            header.append((lineno, words))
    if not header:
        raise GraphParseError(1, "empty graph file")

    lineno, words = header[0]
    if words[0] != "gamma" or len(words) != 2:
        raise GraphParseError(lineno, "expected 'gamma <k>'")
    (k,) = _integers(words[1:], lineno, f"bad group order {words[1]!r}")
    if k not in (2, 3, 4, 6):
        raise GraphParseError(lineno, "k must be 2,3,4,6")
    ctx = GroupContext(k)

    if len(header) < 2:
        raise GraphParseError(lineno, "missing 'vertices <n>' line")
    lineno, words = header[1]
    if words[0] != "vertices" or len(words) != 2:
        raise GraphParseError(lineno, "expected 'vertices <n>'")
    (n,) = _integers(words[1:], lineno, f"bad vertex count {words[1]!r}")
    if n < 0:
        raise GraphParseError(lineno, "vertex count must be non-negative")
    if n > MAX_VERTICES:
        raise GraphParseError(lineno, f"vertex count {n} exceeds the limit {MAX_VERTICES}")

    edges: List[Edge] = []
    for lineno, words in header[2:]:
        if words[0] != "e" or len(words) != 6:
            raise GraphParseError(lineno, "expected 'e <tail> <head> <m1> <m2> <s>'")
        tail, head, m1, m2, s = _integers(words[1:], lineno, "edge fields must be integers")
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
# Spanning forests, components and the fundamental-path homomorphism.
# ---------------------------------------------------------------------------


def _resolve_subset(g: ColoredGraph, edge_subset) -> Tuple[int, ...]:
    if edge_subset is None:
        return tuple(range(g.m))
    subset = tuple(sorted(set(int(i) for i in edge_subset)))
    for i in subset:
        if not 0 <= i < g.m:
            raise ValueError(f"edge index {i} out of range")
    return subset


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

    def components(self) -> Tuple[Tuple[int, ...], ...]:
        """Vertex sets of the components, in component order (by smallest
        vertex), vertices ascending; isolated vertices form singletons."""
        groups: List[List[int]] = [[] for _ in self.base_vertices]
        for v, ci in enumerate(self.component_of):
            groups[ci].append(v)
        return tuple(map(tuple, groups))


def spanning_forest(
    g: ColoredGraph,
    edge_subset=None,
    *,
    edge_order: Optional[Sequence[int]] = None,
    bases: Optional[Sequence[int]] = None,
) -> MarkedGraph:
    """Deterministic spanning forest and base vertices.

    The default scans edges in index order, keeping each edge that joins
    two components; the base of a component is its smallest vertex, which
    is also the root of its union-find tree (unions keep the smaller root).
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

    roots: List[int] = []
    comp_of = [0] * g.n
    for v in range(g.n):
        r = find(v)
        if r == v:
            roots.append(v)
        comp_of[v] = len(roots) - 1 if r == v else comp_of[r]
    if bases is None:
        base_list = roots
    else:
        base_list = [int(b) for b in bases]
        if len(base_list) != len(roots):
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
    """Per-component subgroup data and rep of the graph's translation subgroup."""

    component_descriptors: Tuple[SubgroupDescriptor, ...]
    t_list: Tuple[int, ...]
    rep_g: int


def graph_invariants(
    g: ColoredGraph, edge_subset=None, marked: Optional[MarkedGraph] = None
) -> GraphInvariants:
    """Classify every component's fundamental-path image.

    rep_g is the rep of the join of the component translation subgroups.
    The values do not depend on the base or forest choice.
    """
    ctx = g.context
    if marked is None:
        marked = spanning_forest(g, edge_subset)
    descriptors = tuple(
        classify_subgroup(ctx, gens) for gens in component_generators(marked)
    )
    t_list = tuple(invariant_t(d) for d in descriptors)
    return GraphInvariants(descriptors, t_list, join_rep(ctx, descriptors))


# ---------------------------------------------------------------------------
# Finite lifting for rendering.
# ---------------------------------------------------------------------------


class LiftedPatch(NamedTuple):
    """A lifted patch as columns, each coordinate computed once.

    ``xs`` and ``ys`` hold the float x and y of every placed point, in the
    order of ``elements`` with the ``n`` vertices fastest (the point of
    vertex i at element number at is coordinate at * n + i), followed by
    the segment heads that fall outside the patch.  Segment number j is
    the copy of edge j // len(elements) at element j % len(elements); it
    runs from coordinate ``tails[j]`` to coordinate ``heads[j]``.
    ``cell`` holds the float images of t1 and t2.
    """

    elements: Tuple[Tuple[int, int, int], ...]
    n: int
    xs: Tuple[float, ...]
    ys: Tuple[float, ...]
    tails: Tuple[int, ...]
    heads: Tuple[int, ...]
    cell: Tuple[Tuple[float, float], Tuple[float, float]]


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

    The copy at gamma of edge ij runs from the point placed for
    (gamma, i) to Phi(gamma * color) p_j; when gamma * color lies in the
    patch, that head is the point placed for (gamma * color, j), so only
    heads outside the patch are computed.  Every coordinate is evaluated
    as x = ((m1*v1x + m2*v2x) + r00*px) + r01*py (and likewise for y), in
    this fixed order, so the rendered SVG is byte-identical however the
    products are shared.

    Each coordinate is computed once, into the columns of the
    ``LiftedPatch``, where a segment is a tail and a head index.
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
    n = len(points_f)
    # turned[s][i]: the four products of R^s with p_i.
    turned = [
        [(r[0][0] * px, r[0][1] * py, r[1][0] * px, r[1][1] * py) for px, py in points_f]
        for r in rot_pows
    ]
    shifts = range(-radius, radius + 1)
    side = len(shifts)

    # Patch elements in order (a, b, s), s fastest; the element numbered
    # at = ((a + radius) * side + b + radius) * k + s places vertex i at
    # coordinate at * n + i.
    elements = []
    xs: List[float] = []
    ys: List[float] = []
    for a in shifts:
        for b in shifts:
            tx = a * v1[0] + b * v2[0]
            ty = a * v1[1] + b * v2[1]
            for s in range(k):
                elements.append((a, b, s))
                xs += [tx + xx + xy for xx, xy, _, _ in turned[s]]
                ys += [ty + yx + yy for _, _, yx, yy in turned[s]]
    placed = len(xs)

    tails: List[int] = []
    heads: List[int] = []
    for e in g.edges:
        # Heads in patch order.  The copy at gamma = (a, b, s) ends at
        # gamma * color = (a + d1, b + d2, s2), one compose per power s;
        # the elements with power s are every k-th one, from number s.
        tails += range(e.tail, placed, n)
        head = [0] * len(elements)
        for s in range(k):
            d1, d2, s2 = ctx.compose((0, 0, s), e.color)
            xx, xy, yx, yy = turned[s2][e.head]
            at = s
            for a2 in range(d1 - radius, d1 + radius + 1):
                for b2 in range(d2 - radius, d2 + radius + 1):
                    if -radius <= a2 <= radius and -radius <= b2 <= radius:
                        head[at] = (((a2 + radius) * side + b2 + radius) * k + s2) * n + e.head
                    else:
                        head[at] = len(xs)
                        xs.append(a2 * v1[0] + b2 * v2[0] + xx + xy)
                        ys.append(a2 * v1[1] + b2 * v2[1] + yx + yy)
                    at += k
        heads += head
    return LiftedPatch(
        tuple(elements), n, tuple(xs), tuple(ys), tuple(tails), tuple(heads), (v1, v2)
    )
