"""Sparsity counts and independence oracles for colored graphs.

The counting functions f, g, h and h' are evaluated by a single pass of
union-find with group-valued potentials (``_Counts``): merging components
tracks the connecting path element so fundamental-cycle images can be
classified on the fly without rationals.  The potentials are plain
(t1, t2, s) triples combined by the group law of ``GroupContext``.  On top
of the count oracle sit the matroid union engine (two copies of the
g-matroid, augmenting paths in the exchange graph), one Laman pass that
places each edge and tests a parallel copy of it, which decides Laman
sparsity and yields the Laman circuit of the shortest non-sparse prefix
(continuing the engine a graph keeps from a pass over a prefix of its
edges, whose memo of tight sets rejects most non-sparse continuations by
one peek), the g-circuit of the shortest dependent prefix from one growing
count state, decomposition into two spanning g-bases,
generalized-cone oracles read off the scan's forest and potentials, and
the exhaustive brute-force verifier.

The engine reads its exchange arcs from per-side state, not from count
scans.  Each side holds one union-find count state of its edge set
(``_SideState``), replaced only when the side changes, so whether side +
y is independent is one peek at adding y.  The circuit of a dependent
side + y is read off the side's spanning forest: contracting each tree to
its root leaves every count unchanged, so the non-forest part of the
circuit is found on the small quotient gain graph of the non-forest
edges, and a forest edge is in it exactly when side + y minus that edge
is independent on the quotient with the edge's subtree split off.  The
scan, the side states, the quotients and the g-circuit pass all add
edges by the one rule of ``_Counts``."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, NamedTuple, Optional, Tuple

from .colored_graph import ColoredGraph

_IDENT = (0, 0, 0)


@dataclass(frozen=True)
class ComponentCounts:
    vertices: Tuple[int, ...]
    edge_count: int
    has_rotation: bool
    has_translation: bool
    t: int
    cent: int


@dataclass(frozen=True)
class CountReport:
    """Exact values of the counting functions on one edge subset."""

    m: int
    f: int
    g: int
    h: int
    h_prime: int
    rep: int
    components: Tuple[ComponentCounts, ...]


@dataclass(frozen=True)
class UnionCertificate:
    """Outcome of the two-copy matroid union: a partition or a violation.

    Exactly one branch is set; a violating set W satisfies |W| > f(W).
    """

    partition: Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]]
    violating: Optional[Tuple[int, ...]]


class _Counts:
    """Union-find count state of an edge set on n vertices, and the one
    rule that adds an edge to it.

    ``find(v)`` gives v's root and v's potential relative to it.  Per
    root, ``rot`` is the first rotation of the component's image (None
    if it has none), ``trans`` whether the image holds a translation and
    ``size`` the component's edge count.  ``free`` counts the components
    without rotation (T = 2 each) and ``half_rep`` is rep / 2: for k = 2
    the rank of the translation vectors (``gdir`` is the first one), else
    1 if any image holds a translation.  So g = n - free + half_rep and
    f = 2g.  ``forest`` lists the labels of the edges that merged two
    components, in order.
    """

    __slots__ = ("ctx", "n", "parent", "pot", "rot", "trans", "size",
                 "free", "half_rep", "gdir", "forest")

    def __init__(self, ctx, n: int):
        self.ctx = ctx
        self.n = n
        self.parent = list(range(n))
        self.pot: List[Tuple[int, int, int]] = [_IDENT] * n
        self.rot: List[Optional[Tuple[int, int, int]]] = [None] * n
        self.trans = [False] * n
        self.size = [0] * n
        self.free = n
        self.half_rep = 0
        self.gdir = (0, 0)
        self.forest: List[int] = []

    def copy(self) -> "_Counts":
        c = _Counts.__new__(_Counts)
        c.ctx, c.n = self.ctx, self.n
        c.parent, c.pot, c.rot = self.parent[:], self.pot[:], self.rot[:]
        c.trans, c.size, c.forest = self.trans[:], self.size[:], self.forest[:]
        c.free, c.half_rep, c.gdir = self.free, self.half_rep, self.gdir
        return c

    @property
    def g(self) -> int:
        return self.n - self.free + self.half_rep

    def find(self, v: int):
        parent, pot = self.parent, self.pot
        if parent[v] == v:
            return v, _IDENT
        path = [v]
        while parent[path[-1]] != parent[parent[path[-1]]]:
            path.append(parent[path[-1]])
        root = parent[path[-1]]
        acc = pot[path[-1]]
        compose = self.ctx.compose
        for u in reversed(path[:-1]):
            acc = compose(acc, pot[u])
            parent[u] = root
            pot[u] = acc
        return root, pot[v]

    def _fold(self, rot, trans, half, gdir, gen):
        """(rot, trans, half_rep, gdir) after the cycle element ``gen``
        joins the image of a component with rotation ``rot`` and
        translation flag ``trans``."""
        if gen == _IDENT:
            return rot, trans, half, gdir
        k = self.ctx.k
        if gen[2] == 0:
            vec = gen
        elif rot is None:
            return gen, trans, half, gdir
        elif k == 2:
            # two half-turns with different centers give a translation
            vec = (rot[0] - gen[0], rot[1] - gen[1])
            if vec == (0, 0):
                return rot, trans, half, gdir
        elif self.ctx.same_center(rot, gen):
            return rot, trans, half, gdir
        # a translation; for k = 3, 4, 6 its rotated copies span the plane
        if k != 2:
            return rot, True, 1, gdir
        if half == 0:
            return rot, True, 1, (vec[0], vec[1])
        if half == 1 and gdir[0] * vec[1] - gdir[1] * vec[0] != 0:
            return rot, True, 2, gdir
        return rot, True, half, gdir

    def peek(self, tail: int, head: int, color):
        """What adding the edge tail -> head with ``color`` would do:
        (its gain in g, 0 or 1; the changes that ``add`` makes).
        The counts are left unchanged."""
        ctx = self.ctx
        ri, wi = self.find(tail)
        rj, wj = self.find(head)
        gen = ctx.compose(ctx.compose(wi, color), ctx.invert(wj))
        rot_i = self.rot[ri]
        if ri == rj:
            rot, trans, half, gdir = self._fold(rot_i, self.trans[ri], self.half_rep, self.gdir, gen)
            free = self.free - (rot_i is None and rot is not None)
        else:
            rot_j = self.rot[rj]
            rot, trans, half, gdir = rot_i, self.trans[ri] or self.trans[rj], self.half_rep, self.gdir
            if rot_j is not None:
                rot, trans, half, gdir = self._fold(rot, trans, half, gdir, ctx.conjugate(gen, rot_j))
            free = self.free - (rot_i is None) - (rot_j is None) + (rot is None)
        gain = self.free - free + half - self.half_rep
        return gain, (ri, rj, gen, rot, trans, half, gdir, free)

    def add(self, tail: int, head: int, color, label=None) -> int:
        """Add one edge; returns its gain in g.  ``label`` names it in
        ``forest`` if it merges two components."""
        gain, (ri, rj, gen, rot, trans, half, gdir, free) = self.peek(tail, head, color)
        if ri != rj:
            self.parent[rj] = ri
            self.pot[rj] = gen
            self.size[ri] += self.size[rj]
            self.forest.append(label)
        self.size[ri] += 1
        self.rot[ri] = rot
        self.trans[ri] = trans
        self.half_rep, self.gdir, self.free = half, gdir, free
        return gain


class SparsityOracle:
    """Count scans of the edge subsets of one graph, named by edge bitmask."""

    def __init__(self, graph: ColoredGraph):
        ctx = graph.context
        self.ctx = ctx
        self.k = ctx.k
        self.n = graph.n
        # Lists, not tuples: tuples sized by the edge count go to CPython's
        # per-size free lists when an oracle dies, and in a run of queries
        # of growing size (greedy growth) those lists keep filling until a
        # full garbage collection.
        self.tails = [e.tail for e in graph.edges]
        self.heads = [e.head for e in graph.edges]
        self.colors = [(e.color.t1, e.color.t2, e.color.s) for e in graph.edges]
        self.full_mask = (1 << graph.m) - 1

    # -- the scan -----------------------------------------------------------

    def counts(self, mask: int) -> _Counts:
        """One union-find pass over the edges selected by ``mask``."""
        st = _Counts(self.ctx, self.n)
        tails, heads, colors = self.tails, self.heads, self.colors
        rest = mask
        while rest:
            low = rest & -rest
            i = low.bit_length() - 1
            rest ^= low
            st.add(tails[i], heads[i], colors[i], i)
        return st

    def components(self, st: _Counts) -> Tuple[ComponentCounts, ...]:
        """Per-component counts of a scanned state, by smallest vertex."""
        members: Dict[int, List[int]] = {}
        for v in range(self.n):
            members.setdefault(st.find(v)[0], []).append(v)
        details = []
        for r, vertices in members.items():
            has_rot = st.rot[r] is not None
            if has_rot:
                cent = 0 if st.trans[r] else 1
            else:
                cent = 2 if st.trans[r] else 3
            details.append(
                ComponentCounts(
                    vertices=tuple(vertices),
                    edge_count=st.size[r],
                    has_rotation=has_rot,
                    has_translation=st.trans[r],
                    t=0 if has_rot else 2,
                    cent=cent,
                )
            )
        return tuple(details)

    # -- counts -------------------------------------------------------------

    def g_mask(self, mask: int) -> int:
        return self.counts(mask).g

    def f_mask(self, mask: int) -> int:
        return 2 * self.counts(mask).g

    def report_mask(self, mask: int) -> CountReport:
        st = self.counts(mask)
        details = self.components(st)
        rep = 2 * st.half_rep
        f = 2 * st.g
        teich = rep - 1 if rep > 0 else 0
        # h' is evaluated on the spanned subgraph: an isolated vertex would
        # contribute 2 - cent(trivial) = -1, which is not neutral the way it
        # is for f, g and h, and only the spanned convention makes the h and
        # h' sparsity classes coincide.
        spanned = [c for c in details if c.edge_count > 0]
        n_spanned = sum(len(c.vertices) for c in spanned)
        cent_sum = sum(c.cent for c in spanned)
        return CountReport(
            m=mask.bit_count(),
            f=f,
            g=st.g,
            h=f - 1,
            h_prime=2 * n_spanned + teich - cent_sum,
            rep=rep,
            components=details,
        )

    def mask_of(self, edge_subset) -> int:
        if edge_subset is None:
            return self.full_mask
        mask = 0
        for i in edge_subset:
            if not 0 <= i < len(self.tails):
                raise ValueError(f"edge index {i} out of range")
            mask |= 1 << i
        return mask


def _edges_of(mask: int) -> Tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def count_report(g: ColoredGraph, edge_subset=None) -> CountReport:
    """Exact f, g, h and h' counts for the subgraph on all n vertices."""
    oracle = SparsityOracle(g)
    return oracle.report_mask(oracle.mask_of(edge_subset))


# ---------------------------------------------------------------------------
# Matroid union over two copies of the g-matroid.
# ---------------------------------------------------------------------------


class _Forest(NamedTuple):
    """A scan's spanning forest, rooted at the union-find roots: per
    vertex its root, potential, parent and the edge to it (-1 at a
    root); and the edges off the forest."""

    root: List[int]
    pot: List[Tuple[int, int, int]]
    up: List[int]
    up_edge: List[int]
    non_forest: Tuple[int, ...]


class _SideState:
    """The count state of one g-independent edge set S (an engine side),
    answering for a new edge y whether S + y is independent and, if not,
    which edges of S form its unique circuit, memoised by y.

    Independence is one ``peek`` at adding y.  The circuit comes from the
    scan's spanning forest F and the non-forest edges N = S - F.
    Contracting each tree to its root leaves every count unchanged, since
    the potentials are a consistent labelling of F: g(F + X) = |F| +
    g(X on the quotient), each arc with its switched gain.  Splitting the
    subtree below a forest edge x off as a vertex of its own does the same
    for F - x.  An edge x of S is in the circuit exactly when S + y - x is
    independent, so:

    - a parallel copy of an edge of S has that edge as its circuit;
    - z in N is in it when y gains on the quotient of N - z;
    - a forest edge x is in it when y gains on the quotient of N split at
      x.  Only an x that separates endpoints of the circuit's non-forest
      part C_N inside its tree can be: otherwise (F - x) + C_N is as
      dependent as F + C_N.  Edges that split those endpoints alike are
      decided together, by one of them.

    The quotient states of N - z and of N split at x are memoised per
    side as well, so an answer costs a few peeks.
    """

    def __init__(self, oracle: SparsityOracle, mask: int, counts: _Counts):
        self.oracle = oracle
        self.mask = mask
        self.counts = counts
        self._circuits: Dict[int, int] = {}
        self._arcs: Dict[int, tuple] = {}
        self._quotients: Dict[Tuple[Optional[int], Optional[int]], _Counts] = {}

    def plus(self, y: int) -> "_SideState":
        """The state of S + y: one copy and one step."""
        o = self.oracle
        counts = self.counts.copy()
        counts.add(o.tails[y], o.heads[y], o.colors[y], y)
        return _SideState(o, self.mask | 1 << y, counts)

    def independent(self, y: int) -> bool:
        o = self.oracle
        return not self.mask >> y & 1 and self.counts.peek(o.tails[y], o.heads[y], o.colors[y])[0] == 1

    def circuit(self, y: int) -> int:
        """Mask of the circuit of S + y other than y, for a dependent y."""
        c = self._circuits.get(y)
        if c is None:
            c = self._circuits[y] = self._circuit(y)
        return c

    @cached_property
    def _tree(self) -> _Forest:
        o, counts = self.oracle, self.counts
        n = o.n
        found = [counts.find(v) for v in range(n)]
        adjacent: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
        forest_mask = 0
        for e in counts.forest:
            adjacent[o.tails[e]].append((o.heads[e], e))
            adjacent[o.heads[e]].append((o.tails[e], e))
            forest_mask |= 1 << e
        up = [-1] * n
        up_edge = [-1] * n
        stack = [v for v in range(n) if found[v][0] == v]
        while stack:
            v = stack.pop()
            for w, e in adjacent[v]:
                if e != up_edge[v]:
                    up[w], up_edge[w] = v, e
                    stack.append(w)
        return _Forest(
            [f[0] for f in found], [f[1] for f in found], up, up_edge,
            _edges_of(self.mask & ~forest_mask),
        )

    def _arc(self, z: int, cut: Optional[int]):
        """Edge z as an arc of the forest quotient: its endpoints' roots
        (or ``cut`` for endpoints below it) and its gain under the
        potentials."""
        tree = self._tree
        arc = self._arcs.get(z)
        if arc is None:
            o = self.oracle
            ctx = o.ctx
            u, v = o.tails[z], o.heads[z]
            gain = ctx.compose(ctx.compose(tree.pot[u], o.colors[z]), ctx.invert(tree.pot[v]))
            arc = self._arcs[z] = (u, v, tree.root[u], tree.root[v], gain)
        u, v, ru, rv, gain = arc
        if cut is not None:
            ru = cut if self._below(u, cut) else ru
            rv = cut if self._below(v, cut) else rv
        return ru, rv, gain

    def _below(self, u: int, c: int) -> bool:
        up = self._tree.up
        while u >= 0 and u != c:
            u = up[u]
        return u == c

    def contracted_g(self, y: int, drop: Optional[int] = None, cut: Optional[int] = None) -> int:
        """g of S + y, less the non-forest edge ``drop`` or the forest
        edge from ``cut`` to its parent, evaluated on the forest quotient:
        each tree contracted to its root, and the subtree below ``cut``
        to cut.  The quotient of the rest of S is memoised."""
        q = self._quotients.get((drop, cut))
        if q is None:
            q = self._quotients[drop, cut] = _Counts(self.oracle.ctx, self.oracle.n)
            for z in self._tree.non_forest:
                if z != drop:
                    q.add(*self._arc(z, cut))
        forest = len(self.counts.forest) - (cut is not None)
        return forest + q.g + q.peek(*self._arc(y, cut))[0]

    def _splits(self, points) -> List[List[int]]:
        """The forest edges that separate ``points`` inside their tree,
        each named by its lower end, grouped by the points below them:
        the edges of one group split the points alike."""
        root, up = self._tree.root, self._tree.up
        whole: Dict[int, int] = {}
        below: Dict[int, int] = {}
        for i, p in enumerate(points):
            bit = 1 << i
            whole[root[p]] = whole.get(root[p], 0) | bit
            while up[p] >= 0:
                below[p] = below.get(p, 0) | bit
                p = up[p]
        groups: Dict[int, List[int]] = {}
        for c, b in below.items():
            if b != whole[root[c]]:
                groups.setdefault(b, []).append(c)
        return list(groups.values())

    def _circuit(self, y: int) -> int:
        if self.mask >> y & 1:
            return 1 << y  # a parallel copy and its original
        o = self.oracle
        size = self.mask.bit_count()
        part = [z for z in self._tree.non_forest if self.contracted_g(y, drop=z) == size]
        out = 0
        for z in part:
            out |= 1 << z
        part.append(y)
        points = {o.tails[z] for z in part} | {o.heads[z] for z in part}
        for group in self._splits(points):
            if self.contracted_g(y, cut=group[0]) == size:
                for c in group:
                    out |= 1 << self._tree.up_edge[c]
        return out


class _UnionEngine:
    """Greedy insertion with augmenting paths over two g-matroid copies.

    The sides hold edge indices, and each side's ``_SideState`` of its
    edge mask, in ``states``, answers the exchange-arc queries by edge.
    ``_search`` looks for an augmenting path from a new copy of an edge,
    kept apart from the placed edges, and changes nothing; a copy of a
    placed edge shares its mask bit, which makes the two dependent
    together.  ``insert`` places a new edge: by one ``plus`` step on a
    side that takes it as it is, else by walking back along the path,
    after which both sides are re-checked by one count scan each.
    ``reach`` runs the same search for a parallel copy of a placed edge
    and never places it, which is all a doubling test asks.  Both return
    0 if a path exists, else the edge mask the search reached: the one
    union-matroid circuit of the placed edges plus the copy.  ``tight``
    holds tight sets of placed edges, each with its count state, which
    ``_laman_pass`` records from failed passes and peeks before any
    search.
    """

    def __init__(self, oracle: SparsityOracle):
        self.oracle = oracle
        self.sides: List[List[int]] = [[], []]
        empty = _SideState(oracle, 0, _Counts(oracle.ctx, oracle.n))
        self.states = [empty, empty]
        self.tight: List[Tuple[int, _Counts]] = []

    def handed_to(self, oracle: SparsityOracle) -> "_UnionEngine":
        """A copy of this engine over ``oracle``, whose graph has this
        engine's placed edges as a prefix, for placing the rest.  The side
        lists and the list of tight sets are copied, and each side state is
        wrapped anew with empty memos: they are keyed by edge index, and an
        index past the prefix names a different edge in each graph that
        continues it.  The count states are shared, since only path
        compression changes them."""
        engine = _UnionEngine.__new__(_UnionEngine)
        engine.oracle = oracle
        engine.sides = [self.sides[0][:], self.sides[1][:]]
        engine.states = [_SideState(oracle, st.mask, st.counts) for st in self.states]
        engine.tight = self.tight[:]
        return engine

    def remember(self, mask: int) -> None:
        """Add the tight set ``mask`` of placed edges to ``tight``, merged
        with each set there that it has a tight union with."""
        o = self.oracle
        counts, kept = None, []
        for other in self.tight:
            union = mask | other[0]
            joined = o.counts(union)
            if union.bit_count() == 2 * joined.g - 1:
                mask, counts = union, joined
            else:
                kept.append(other)
        kept.append((mask, o.counts(mask) if counts is None else counts))
        self.tight[:] = kept

    def _check_side(self, s: int) -> None:
        mask = 0
        for x in self.sides[s]:
            mask |= 1 << x
        st = _SideState(self.oracle, mask, self.oracle.counts(mask))
        if st.counts.g != len(self.sides[s]):
            raise AssertionError("augmenting path produced a dependent side")
        self.states[s] = st

    def _search(self, y: int):
        """Breadth-first search of the exchange graph from a new copy of
        edge y.  Returns (end, pred): end is (u, s) when side s takes u as
        it stands, u the last placed edge of an augmenting path or None
        for the copy itself, and None when no path exists; pred maps each
        placed edge reached to its predecessor, None for the copy.

        The copy is tried on both sides first.  Then each queued (u, s)
        walks the circuit of side s + u in side order, and a placed edge
        reached for the first time is tried once, at once, on the other
        side.  The first to pass is the first in queue order with a free
        side, and no circuit is built for the edges queued ahead of it."""
        states, sides = self.states, self.sides
        pred: Dict[int, Optional[int]] = {}
        for s in (0, 1):
            if states[s].independent(y):
                return (None, s), pred
        queue: List[Tuple[Optional[int], int]] = [(None, 0), (None, 1)]
        for u, s in queue:
            rest = states[s].circuit(y if u is None else u)
            for x in sides[s]:
                if rest >> x & 1 and x not in pred:
                    pred[x] = u
                    if states[1 - s].independent(x):
                        return (x, 1 - s), pred
                    queue.append((x, 1 - s))
        return None, pred

    def reach(self, edge: int) -> int:
        """0 if a parallel copy of the placed ``edge`` has an augmenting
        path, else the edge mask the search reached.  Changes nothing."""
        end, pred = self._search(edge)
        return 0 if end else 1 << edge | sum(1 << x for x in pred)

    def insert(self, edge: int) -> int:
        """Place ``edge`` and return 0; or return the edge mask the failed
        search reached, and change nothing."""
        end, pred = self._search(edge)
        if end is None:
            return 1 << edge | sum(1 << x for x in pred)
        u, s = end
        if u is None:
            self.states[s] = self.states[s].plus(edge)
            self.sides[s].append(edge)
            return 0
        # Walk back along the augmenting path, shifting each edge into the
        # side vacated by its successor; the new edge fills the last one.
        # The states still hold the sides as they were before the walk.
        while u is not None:
            t = 0 if self.states[0].mask >> u & 1 else 1
            self.sides[t].remove(u)
            self.sides[s].append(u)
            s, u = t, pred[u]
        self.sides[s].append(edge)
        self._check_side(0)
        self._check_side(1)
        return 0


def _union_run(oracle: SparsityOracle, mask: int):
    """Insert all edges of mask; return the engine and the failed
    insertion's reached mask (0 if every edge was placed)."""
    engine = _UnionEngine(oracle)
    for i in _edges_of(mask):
        reached = engine.insert(i)
        if reached:
            return engine, reached
    return engine, 0


def _violating(oracle: SparsityOracle, reached: int, laman: bool) -> int:
    """The mask of a witness W, once one count scan has re-checked it:
    |W| >= f(W) for the Laman count, |W| > f(W) for the Gamma-(2,2) count."""
    if reached.bit_count() + laman <= oracle.f_mask(reached):
        raise AssertionError("witness does not violate the Laman count" if laman
                             else "count re-check found a non-violating witness")
    return reached


def union_certificate(g: ColoredGraph, edge_subset=None) -> UnionCertificate:
    """Partition into two g-independent sets, or a set W with |W| > f(W)."""
    oracle = SparsityOracle(g)
    engine, reached = _union_run(oracle, oracle.mask_of(edge_subset))
    if reached:
        return UnionCertificate(partition=None, violating=_edges_of(_violating(oracle, reached, False)))
    return UnionCertificate(partition=tuple(tuple(sorted(side)) for side in engine.sides), violating=None)


def is_gamma22_sparse(g: ColoredGraph, edge_subset=None) -> bool:
    """Whether every edge subset W has |W| <= f(W).  A False answer is
    re-checked by one count scan of a W with |W| > f(W).

    Since f(W) <= 2n + rep(Gamma), a mask of more edges than that is
    itself such a W, and no union engine is built.  Otherwise a union run
    decides: the set a failed insertion reached is the W.
    """
    oracle = SparsityOracle(g)
    mask = oracle.mask_of(edge_subset)
    over = mask.bit_count() > 2 * oracle.n + oracle.ctx.full_translation_rep
    reached = mask if over else _union_run(oracle, mask)[1]
    if reached:
        _violating(oracle, reached, False)
    return not reached


def is_gamma22(g: ColoredGraph) -> bool:
    return g.m == 2 * g.n + g.context.full_translation_rep and is_gamma22_sparse(g)


def _laman_pass(g: ColoredGraph, edge_subset, gate: bool) -> int:
    """The mask of the Laman circuit of the shortest non-sparse prefix of
    the subset, re-checked by one count scan, or 0.  With ``gate``, a mask
    of at least 2n + rep >= f(W) edges is returned whole, as its own
    witness.

    Each edge e is placed by ``insert(e) or reach(e)``.  A set violating
    the Laman count in P + e, for a Laman-sparse P, contains e and
    violates f once e is doubled, so both steps succeed exactly when
    P + e is Laman-sparse.  If ``reach`` fails, the set it reached is the
    one circuit of the union matroid in P + e + copy, and so the unique
    Laman circuit of P + e; if ``insert`` fails, e is a loop with trivial
    color and a circuit alone.

    A graph may keep one engine that has run this pass over a prefix of
    its edges, as many as it has placed; ``with_edge`` passes it on
    unchanged.  A whole-graph pass takes it, places the rest on a copy
    and keeps the engine if every step succeeds.

    The kept engine also keeps a few tight sets T of placed edges, each
    with its count state: nonempty, with |T| = f(T) - 1.  Tightness is a
    property of T alone, so a tight set of P is tight in every graph that
    continues P, and an edge e with f(T + e) = f(T) makes T + e a
    violating set, |T + e| = f(T + e).  The Laman count f = 2g is monotone
    and submodular, so two tight sets that share an edge have a tight
    union, and a few sets cover what the rejections found.  With ``gate``,
    each edge past the prefix is peeked on each tight set before any
    engine work, and a gain of 0 returns T + e, re-checked by its count
    scan like every witness.  A pass that fails at e reaches the Laman
    circuit C of P + e, and C - e is tight since f(C - e) = f(C) = |C|.  A
    continued pass records a nonempty C - e inside the prefix on the kept
    engine, which siblings share, merged with each set whose union with it
    scans tight.  A copy of the engine copies the list: a set recorded
    past the prefix names different edges in the prefix's other
    continuations.  The memo only ever answers False, and only for
    ``is_laman_sparse``: ``find_laman_circuit`` must return the exact
    circuit.
    """
    oracle = SparsityOracle(g)
    mask = oracle.mask_of(edge_subset)
    kept = vars(g).pop("_laman_engine", None) if edge_subset is None else None
    if gate and mask.bit_count() >= 2 * oracle.n + oracle.ctx.full_translation_rep:
        return _violating(oracle, mask, True)
    if kept is None:
        engine, edges = _UnionEngine(oracle), _edges_of(mask)
    else:
        placed = len(kept.sides[0]) + len(kept.sides[1])
        edges = range(placed, g.m)
        if gate:
            for e in edges:
                edge = oracle.tails[e], oracle.heads[e], oracle.colors[e]
                for tight, counts in kept.tight:
                    if counts.peek(*edge)[0] == 0:
                        return _violating(oracle, tight | 1 << e, True)
        engine = kept if placed == g.m else kept.handed_to(oracle)
    for e in edges:
        reached = engine.insert(e) or engine.reach(e)
        if reached:
            _violating(oracle, reached, True)
            tight = reached & ~(1 << e)
            if kept is not None and 0 < tight < 1 << placed:
                kept.remember(tight)
            return reached
    if edge_subset is None:
        object.__setattr__(g, "_laman_engine", engine)
    return 0


def is_laman_sparse(g: ColoredGraph, edge_subset=None) -> bool:
    """Whether every nonempty edge subset W has |W| < f(W).  A False
    answer is re-checked by one count scan of a W with |W| >= f(W).

    Since f(W) <= 2n + rep(Gamma), a mask of at least that many edges is
    itself such a W, and only the re-check scans it; the gate never fires
    on the empty mask, as 2n + rep >= 2.  On greedy growth it takes the
    candidates offered to a complete basis: 518 of the 2,880 queries of
    bench ``grow`` seed 1.  A smaller mask goes through ``_laman_pass``,
    so a graph grown by ``with_edge`` from one proved sparse places only
    its new edges, and a graph proved sparse answers again at once.  Its
    memo of tight sets answers 217 of the 335 rejections below the gate
    on that seed by one peek each, with no engine work.
    """
    return not _laman_pass(g, edge_subset, gate=True)


def is_laman(g: ColoredGraph) -> bool:
    """Whether the graph is a basis of the Laman family: count plus sparsity."""
    target = 2 * g.n + g.context.full_translation_rep - 1
    return g.m == target and is_laman_sparse(g)


def find_laman_circuit(g: ColoredGraph, edge_subset=None) -> Optional[Tuple[int, ...]]:
    """The Laman circuit of the shortest non-Laman-sparse prefix, or None.

    One ``_laman_pass`` over the edges in index order, keeping the prefix
    Laman-sparse; the first failed step reaches the unique Laman circuit
    of the prefix.  Of all Laman circuits in the subset, this is the one
    whose largest edge index is smallest; removing any one of its edges
    restores sparsity.
    """
    reached = _laman_pass(g, edge_subset, gate=False)
    return _edges_of(reached) if reached else None


def find_g_circuit(g: ColoredGraph, edge_subset=None) -> Optional[Tuple[int, ...]]:
    """The g-circuit of the shortest g-dependent prefix, or None.

    One count state grows over the edges in index order while they stay
    independent.  The first edge e without gain closes the unique circuit
    of the prefix P + e, read off P's spanning forest by ``_SideState``.
    Of all g-circuits in the subset, this is the one whose largest edge
    index is smallest, as for ``find_laman_circuit``.
    """
    oracle = SparsityOracle(g)
    counts = _Counts(oracle.ctx, oracle.n)
    prefix = 0
    for e in _edges_of(oracle.mask_of(edge_subset)):
        edge = oracle.tails[e], oracle.heads[e], oracle.colors[e]
        if counts.peek(*edge)[0] == 0:
            circuit = _SideState(oracle, prefix, counts).circuit(e) | 1 << e
            if circuit.bit_count() <= oracle.g_mask(circuit):
                raise AssertionError("forest circuit is not g-dependent")
            return _edges_of(circuit)
        counts.add(*edge, e)
        prefix |= 1 << e
    return None


# ---------------------------------------------------------------------------
# Gamma-(1,1) verification, decomposition, and generalized cone graphs.
# ---------------------------------------------------------------------------


def is_gamma11_counts(g: ColoredGraph, edge_subset=None) -> bool:
    """Basis test in the g-matroid: independent with full size."""
    oracle = SparsityOracle(g)
    mask = oracle.mask_of(edge_subset)
    size = mask.bit_count()
    return (
        size == g.n + g.context.full_translation_rep // 2
        and size == oracle.g_mask(mask)
    )


def is_gamma11_structural(g: ColoredGraph, edge_subset=None) -> bool:
    """Structural definition: spanning map-graph plus rep/2 extra edges,
    a rotation in every component image, and the full translation rep."""
    oracle = SparsityOracle(g)
    mask = oracle.mask_of(edge_subset)
    st = oracle.counts(mask)
    if 2 * st.half_rep != g.context.full_translation_rep:
        return False
    if st.free != 0:
        return False
    if mask.bit_count() != g.n + st.half_rep:
        return False
    # A spanning map-graph exists iff every component carries a cycle.
    return all(c.edge_count >= len(c.vertices) for c in oracle.components(st))


def decompose11(g: ColoredGraph) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Split a 2n + rep edge graph into two spanning g-matroid bases.

    Both parts are verified against the count-based and the structural
    characterizations before returning.
    """
    if g.m != 2 * g.n + g.context.full_translation_rep:
        raise ValueError("not a basis: wrong edge count")
    return verified_parts(g, union_certificate(g))


def verified_parts(
    g: ColoredGraph, cert: UnionCertificate
) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """The two parts of a union certificate of a 2n + rep edge graph,
    each verified to be a spanning g-matroid basis by both
    characterizations (``decompose11`` without its own union run)."""
    if cert.partition is None:
        raise ValueError(f"not a basis: violating set {list(cert.violating)}")
    x, y = cert.partition
    for part in (x, y):
        if not is_gamma11_counts(g, part) or not is_gamma11_structural(g, part):
            raise AssertionError("decomposition part failed verification")
    return x, y


def gc11_spanning_subgraph(g: ColoredGraph, edge_subset=None) -> Tuple[int, ...]:
    """A spanning generalized cone-(1,1) subgraph of a Gamma-(1,1) graph.

    Per component: the scan's spanning tree plus the first edge whose cycle
    image under the scan's potentials is a rotation (a tree edge's is the
    identity).
    """
    oracle = SparsityOracle(g)
    mask = oracle.mask_of(edge_subset)
    st = oracle.counts(mask)
    ctx = oracle.ctx
    chosen: Dict[int, int] = {}
    for i in _edges_of(mask):
        root, wt = st.find(oracle.tails[i])
        image = ctx.compose(ctx.compose(wt, oracle.colors[i]), ctx.invert(st.find(oracle.heads[i])[1]))
        if image[2] != 0:
            chosen.setdefault(root, i)
    if len(chosen) != g.n - len(st.forest):
        raise ValueError("some component image contains no rotation")
    return tuple(sorted(set(st.forest) | set(chosen.values())))


def is_gen_cone11(g: ColoredGraph, edge_subset=None) -> bool:
    """Map-graph whose per-component cycle image is a rotation."""
    oracle = SparsityOracle(g)
    mask = oracle.mask_of(edge_subset)
    return all(
        c.edge_count == len(c.vertices) and c.has_rotation
        for c in oracle.components(oracle.counts(mask))
    )


def gen_cone11_rank(g: ColoredGraph, edge_subset=None) -> int:
    """Rank n - sum(T)/2 of the generalized cone-(1,1) matroid."""
    oracle = SparsityOracle(g)
    return g.n - oracle.counts(oracle.mask_of(edge_subset)).free


# ---------------------------------------------------------------------------
# Brute-force oracle.
# ---------------------------------------------------------------------------


_BRUTE_FORCE_MAX_EDGES = 20


def brute_force_sparse(g: ColoredGraph, count="f", strict: bool = False, edge_subset=None) -> bool:
    """Exhaustive sparsity check over every nonempty edge subset, as the
    submasks of the edge mask, largest first.

    ``count`` is "f" or "g"; ``strict`` demands m' < bound instead of <=.
    """
    oracle = SparsityOracle(g)
    mask = oracle.mask_of(edge_subset)
    mm = mask.bit_count()
    if mm > _BRUTE_FORCE_MAX_EDGES:
        raise ValueError(f"refusing brute force on {mm} > {_BRUTE_FORCE_MAX_EDGES} edges")
    scale = {"f": 2, "g": 1}[count]
    sub = mask
    while sub:
        size = sub.bit_count()
        bound = scale * oracle.counts(sub).g
        if size > bound or (strict and size == bound):
            return False
        sub = (sub - 1) & mask
    return True
