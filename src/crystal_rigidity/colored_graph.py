"""Colored (gain) graphs over a crystallographic group.

A colored graph is a finite directed multigraph with a group element per
edge; it is the quotient description of an infinite symmetric graph.  This
module holds the data model, the file format and finite lifting for
rendering.  The invariant route that checks the count scan of
``sparsity`` (spanning forests, the fundamental-path homomorphism and
per-component subgroup invariants) is ``selftest``'s own."""

from __future__ import annotations

import math
from typing import Iterable, List, NamedTuple, Tuple

from .groups import GroupContext, GroupElement


class Edge(NamedTuple):
    tail: int
    head: int
    color: GroupElement


class ColoredGraph:
    """Directed multigraph with a group color per edge.

    Edge identity is the positional index, so parallel edges with equal
    colors are distinct elements.  Self-loops are allowed.

    The fields are read-only and the graph compares, hashes and prints by
    their values.  They live in the instance dict beside the union engine
    that ``sparsity`` keeps there (``_laman_engine``), past the
    assignment guard.
    """

    def __init__(self, context: GroupContext, n: int, edges: Tuple[Edge, ...]):
        vars(self).update(context=context, n=n, edges=edges)
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        for idx, e in enumerate(edges):
            self._check_edge(idx, e)

    @classmethod
    def _unchecked(cls, context: GroupContext, n: int, edges: Tuple[Edge, ...]) -> "ColoredGraph":
        """The graph of edges that already passed the constructor's checks,
        or stricter ones (``parse_graph``), built without repeating them."""
        g = object.__new__(cls)
        vars(g).update(context=context, n=n, edges=edges)
        return g

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.context, self.n, self.edges) == (other.context, other.n, other.edges)

    def __hash__(self) -> int:
        return hash((self.context, self.n, self.edges))

    def __repr__(self) -> str:
        return f"ColoredGraph(context={self.context!r}, n={self.n!r}, edges={self.edges!r})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _check_edge(self, idx: int, e: Edge) -> None:
        """Raise ValueError unless edge number ``idx`` has both ends among
        the n vertices and a rotation class below k."""
        if not (0 <= e.tail < self.n and 0 <= e.head < self.n):
            raise ValueError(f"edge {idx} has vertex out of range")
        if not 0 <= e.color.s < self.context.k:
            raise ValueError(f"edge {idx} has rotation class out of range")

    @property
    def m(self) -> int:
        return len(self.edges)

    def with_doubled_edge(self, index: int) -> "ColoredGraph":
        """Append a parallel copy of one edge with the same color."""
        return self._unchecked(self.context, self.n, self.edges + (self.edges[index],))

    def with_edge(self, tail: int, head: int, color: GroupElement) -> "ColoredGraph":
        """Append one edge.  Only the new edge is checked, by the rule the
        constructor checks each edge by: the others passed it on this
        graph.  The child keeps the union engine that ``sparsity`` keeps
        on this graph, if any: a Laman pass over a prefix of the edges,
        which is a prefix of the child's too."""
        edge = Edge(tail, head, GroupElement(*color))
        self._check_edge(len(self.edges), edge)
        child = self._unchecked(self.context, self.n, self.edges + (edge,))
        if "_laman_engine" in vars(self):
            vars(child)["_laman_engine"] = self._laman_engine
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
    # The checks above include the constructor's, with line numbers.
    return ColoredGraph._unchecked(ctx, n, tuple(edges))


def serialize_graph(g: ColoredGraph) -> str:
    """Canonical text form; edge order is preserved."""
    lines = [f"gamma {g.context.k}", f"vertices {g.n}"]
    for e in g.edges:
        c = e.color
        lines.append(f"e {e.tail} {e.head} {c.t1} {c.t2} {c.s}")
    return "\n".join(lines) + "\n"


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
