"""Sparsity counts and independence oracles for colored graphs.

The counting functions f, g, h and h' are evaluated by a single pass of
union-find with group-valued potentials (``_Counts``): merging components
tracks the connecting path element so fundamental-cycle images can be
classified on the fly without rationals.  The potentials are plain
(t1, t2, s) triples combined by the group law of ``GroupContext``.  On top
of the count oracle sit the matroid union engine (two copies of the
g-matroid, augmenting paths in the exchange graph), one Laman pass, which
decides Laman sparsity and yields the Laman circuit of the shortest
non-sparse prefix, the g-circuit of the shortest dependent prefix from one
growing count state, decomposition into two spanning g-bases, and
generalized-cone oracles read off the scan's forest and potentials.  The
exhaustive brute-force verifier is an oracle, kept in ``selftest``.

The Laman pass from nothing inserts the edges and closes the exchange
graph (once below 32 edges): a reverse breadth-first search from the free sides
(a side that takes an edge as it stands).  A parallel copy of an edge has
an augmenting path iff the edge reaches a free side, so the unreached set
U holds every Laman violator, is itself tight (|U| = f(U)), and is empty
iff the placed edges are Laman-sparse: one search answers every doubling
test.  A nonempty U holds the circuit, which doubling searches inside U
alone then find.  A graph grown from one that keeps an engine continues it
by per-edge steps instead, placing each new edge and testing a parallel
copy of it, and the engine's memo of tight sets rejects most non-sparse
continuations by one peek.

The engine reads its exchange arcs from per-side state, not from count
scans.  Each side holds one union-find count state of its edge set
(``_SideState``), replaced only when the side changes, so whether side +
y is independent is one peek at adding y; the copies of a kept engine
share it, with its forest, walk and quotients.  The circuit of a dependent
side + y is asked one member at a time, only for the edges the search
has not reached, off the side's spanning forest: contracting each tree
to its root leaves every count unchanged, so a non-forest edge is in the
circuit exactly when y gains on the small quotient gain graph of the
other non-forest edges, and a forest edge exactly when side + y minus it
is independent on the quotient with its subtree split off (a vertex is
in it by its depth-first interval), one test for all forest edges that
split the endpoints of y and of the non-forest edges alike.  The scan,
the side states, the quotients and the g-circuit pass all add edges by
the one rule of ``_Counts``, each cycle element one ``GroupContext.ratio``."""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Collection, Dict, List, NamedTuple, Optional, Tuple

from .colored_graph import ColoredGraph

_IDENT = (0, 0, 0)


class ComponentCounts(NamedTuple):
    vertices: Tuple[int, ...]
    edge_count: int
    has_rotation: bool
    has_translation: bool
    t: int
    cent: int


class CountReport(NamedTuple):
    """Exact values of the counting functions on one edge subset."""

    m: int
    f: int
    g: int
    h: int
    h_prime: int
    rep: int
    components: Tuple[ComponentCounts, ...]


class UnionCertificate(NamedTuple):
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
        r = parent[v]
        if parent[r] == r:
            return r, pot[v]  # a root's potential is the identity
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
        parent = self.parent
        ri, wi = (tail, _IDENT) if parent[tail] == tail else self.find(tail)
        rj, wj = (head, _IDENT) if parent[head] == head else self.find(head)
        gen = color if wi is _IDENT and wj is _IDENT else self.ctx.ratio(wi, color, wj)
        rot_i = self.rot[ri]
        if ri == rj:
            if gen == _IDENT:
                return 0, (ri, rj, gen, rot_i, self.trans[ri], self.half_rep, self.gdir, self.free)
            rot, trans, half, gdir = self._fold(rot_i, self.trans[ri], self.half_rep, self.gdir, gen)
            free = self.free - (rot_i is None and rot is not None)
        else:
            rot_j = self.rot[rj]
            rot, trans, half, gdir = rot_i, self.trans[ri] or self.trans[rj], self.half_rep, self.gdir
            if rot_j is not None:
                rot, trans, half, gdir = self._fold(rot, trans, half, gdir, self.ctx.ratio(gen, rot_j, gen))
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
    """Count scans of the edge subsets of one graph, named by edge bitmask.
    The constructor appends the graph's edges to empty columns; a graph
    grown from one that keeps a union engine extends the engine's oracle
    instead (``extended``, ``_laman_pass``)."""

    def __init__(self, graph: ColoredGraph):
        ctx = graph.context
        self.ctx = ctx
        self.k = ctx.k
        self.n = graph.n
        # Lists, not tuples: tuples sized by the edge count go to CPython's
        # per-size free lists when an oracle dies, and in a run of queries
        # of growing size (greedy growth) those lists keep filling until a
        # full garbage collection.
        self.tails: List[int] = []
        self.heads: List[int] = []
        self.colors: List[Tuple[int, int, int]] = []
        self._append(graph.edges)

    def extended(self, edges) -> "SparsityOracle":
        """The oracle of this graph continued by ``edges``."""
        o = SparsityOracle.__new__(SparsityOracle)
        o.ctx, o.k, o.n = self.ctx, self.k, self.n
        o.tails, o.heads, o.colors = self.tails[:], self.heads[:], self.colors[:]
        o._append(edges)
        return o

    def _append(self, edges) -> None:
        if edges:
            tails, heads, colors = zip(*edges)
            self.tails += tails
            self.heads += heads
            self.colors += map(tuple, colors)  # exact tuples, not GroupElement
        self.full_mask = (1 << len(self.tails)) - 1

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
    vertex its root, potential, parent, the edge to it (-1 at a root) and
    its depth-first interval [enter, leave), which holds the enter of
    every vertex in its subtree; and the edges off the forest."""

    root: List[int]
    pot: List[Tuple[int, int, int]]
    up: List[int]
    up_edge: List[int]
    enter: List[int]
    leave: List[int]
    non_forest: Tuple[int, ...]


_Key = Tuple[Optional[int], Optional[int]]  # names an edge of S: see ``_exchanges``


class _SideState:
    """The count state of one g-independent edge set S (an engine side),
    answering for a new edge y whether S + y is independent and, if not,
    whether an edge x of S is in its unique circuit, one x at a time.

    Independence is one ``peek`` at adding y.  Membership comes from the
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
      dependent as F + C_N.  So the plan of y groups the forest edges by
      how they split the endpoints of y and of all of N, a finer split:
      one test decides a group, and an edge in no group is no member.

    Each question about y builds the plan of y and keeps its answers for
    itself alone.  The walk of N's endpoints up the forest, the quotient
    states of N - z and of N split at x, and the arcs serve every plan and
    test, so an answer costs a few peeks.  The forest's depth-first
    intervals place an endpoint u below x, on the quotient split at x, by
    one comparison: enter[x] <= enter[u] < leave[x].

    Memos of S are shared; arcs stay per state.  The forest, the walk and
    the quotients depend on S alone, so ``over`` hands them by reference
    to the state of S over a graph that continues this one, and all such
    states add to one dict of quotients.  The arcs are keyed by an edge
    index y that may lie past S, where two graphs that continue the same
    prefix name different edges.
    """

    _OWN_MEMOS = ("_tree", "_walked", "_quotients")  # the memos of S alone, which ``over`` shares

    def __init__(self, oracle: SparsityOracle, mask: int, counts: _Counts):
        self.oracle = oracle
        self.mask = mask
        self.counts = counts
        self._arcs: Dict[int, tuple] = {}
        self._quotients: Dict[_Key, _Counts] = {}

    def over(self, oracle: SparsityOracle) -> "_SideState":
        """This state of S over ``oracle``, whose graph continues this
        state's graph: it shares the count state and the memos of S alone,
        and its arcs start empty."""
        st = _SideState(oracle, self.mask, self.counts)
        memo = vars(self)
        vars(st).update((name, memo[name]) for name in self._OWN_MEMOS if name in memo)
        return st

    def plus(self, y: int) -> "_SideState":
        """The state of S + y: one copy and one step."""
        o = self.oracle
        counts = self.counts.copy()
        counts.add(o.tails[y], o.heads[y], o.colors[y], y)
        return _SideState(o, self.mask | 1 << y, counts)

    def independent(self, y: int) -> bool:
        o = self.oracle
        return not self.mask >> y & 1 and self.counts.peek(o.tails[y], o.heads[y], o.colors[y])[0] == 1

    def member(self, y: int) -> Tuple[Collection[int], Callable[[int], bool]]:
        """For a dependent y, the circuit of S + y asked one edge at a
        time: the edges of S that may be in it, and the test of one of
        those.  The plan of y is built on each call, and each of its
        answers is kept for this call alone."""
        tests = self._plan(y)
        answers: Dict[Optional[_Key], bool] = {None: True}  # a parallel copy and its original

        def test(x: int) -> bool:
            key = tests[x]
            got = answers.get(key)
            if got is None:
                got = answers[key] = self._exchanges(key)(y)
            return got

        return tests, test

    def circuit(self, y: int) -> int:
        """Mask of the circuit of S + y other than y, for a dependent y."""
        maybe, member = self.member(y)
        return sum(1 << x for x in maybe if member(x))

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
        order: List[int] = []
        stack = [v for v in range(n) if found[v][0] == v]
        while stack:
            v = stack.pop()
            order.append(v)
            for w, e in adjacent[v]:
                if e != up_edge[v]:
                    up[w], up_edge[w] = v, e
                    stack.append(w)
        # The walk is a depth-first preorder: a subtree is a run of it.
        enter = [0] * n
        for i, v in enumerate(order):
            enter[v] = i
        leave = [i + 1 for i in enter]
        for v in reversed(order):
            if up[v] >= 0:
                leave[up[v]] = max(leave[up[v]], leave[v])
        return _Forest(
            [f[0] for f in found], [f[1] for f in found], up, up_edge,
            enter, leave, _edges_of(self.mask & ~forest_mask),
        )

    def _arc(self, z: int, cut: Optional[int]):
        """Edge z as an arc of the forest quotient: its endpoints' roots
        (or ``cut`` for endpoints below it) and its gain under the
        potentials."""
        tree = self._tree
        arc = self._arcs.get(z)
        if arc is None:
            o = self.oracle
            u, v = o.tails[z], o.heads[z]
            gain = o.ctx.ratio(tree.pot[u], o.colors[z], tree.pot[v])
            arc = self._arcs[z] = (tree.enter[u], tree.enter[v], tree.root[u], tree.root[v], gain)
        eu, ev, ru, rv, gain = arc
        if cut is not None:
            lo, hi = tree.enter[cut], tree.leave[cut]
            ru = cut if lo <= eu < hi else ru
            rv = cut if lo <= ev < hi else rv
        return ru, rv, gain

    def _quotient(self, drop: Optional[int], cut: Optional[int]) -> _Counts:
        """The memoised forest quotient of S less the non-forest edge
        ``drop`` or the forest edge from ``cut`` to its parent: each tree
        contracted to its root, and the subtree below ``cut`` to cut."""
        q = self._quotients.get((drop, cut))
        if q is None:
            q = self._quotients[drop, cut] = _Counts(self.oracle.ctx, self.oracle.n)
            for z in self._tree.non_forest:
                if z != drop:
                    q.add(*self._arc(z, cut))
        return q

    def _exchanges(self, key: _Key) -> Callable[[int], bool]:
        """The test of whether S - x + y is independent for y off S, x the
        edge of S that ``key`` names: (x, None) for a non-forest x, (None,
        c) for the forest edge from c to its parent.  S - x is independent,
        so it is one peek: whether y gains on the forest quotient of S - x."""
        drop, cut = key
        q, arc = self._quotient(drop, cut), self._arc
        return lambda y: q.peek(*arc(y, cut))[0] == 1

    @cached_property
    def _cuts(self) -> Dict[int, int]:
        """Each forest edge's lower end."""
        return {e: v for v, e in enumerate(self._tree.up_edge) if e >= 0}

    def swaps(self, z: int) -> Callable[[int], bool]:
        """For an edge z of S, the test of whether S - z + y is
        independent for an edge y off S: for a dependent y, whether z is
        in the circuit of S + y.  It is ``member``'s test with z's key."""
        cut = self._cuts.get(z)
        return self._exchanges((None, cut) if cut is not None else (z, None))

    def _walk(self, points, whole: Dict[int, int], below: Dict[int, int], first: int):
        """Marks point i by bit first + i at its tree's root in ``whole``
        and at each vertex on its way up, the root excepted, in ``below``."""
        root, up = self._tree.root, self._tree.up
        for i, p in enumerate(points, first):
            bit = 1 << i
            whole[root[p]] = whole.get(root[p], 0) | bit
            while up[p] >= 0:
                below[p] = below.get(p, 0) | bit
                p = up[p]
        return whole, below

    @cached_property
    def _walked(self) -> Tuple[Dict[int, int], Dict[int, int]]:
        """The walk of the endpoints of N, as bits 2, 3, ...; each plan
        adds the endpoints of its y as bits 0 and 1."""
        o = self.oracle
        return self._walk({p for z in self._tree.non_forest for p in (o.tails[z], o.heads[z])}, {}, {}, 2)

    def _plan(self, y: int) -> Dict[int, Optional[_Key]]:
        """Per edge of S that may be in the circuit of S + y, the key of
        its test.  The forest edges that separate the endpoints of y and
        of N inside their tree, each named by its lower end, are grouped
        by the points below them, and one key serves a group: its edges
        split the points alike."""
        if self.mask >> y & 1:
            return {y: None}  # a parallel copy and its original
        o, tree = self.oracle, self._tree
        whole, below = self._walked
        whole, below = self._walk((o.tails[y], o.heads[y]), dict(whole), dict(below), 0)
        tests: Dict[int, Optional[_Key]] = {z: (z, None) for z in tree.non_forest}
        groups: Dict[int, Tuple[None, int]] = {}
        for c, b in below.items():
            if b != whole[tree.root[c]]:
                tests[tree.up_edge[c]] = groups.setdefault(b, (None, c))
        return tests


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
    and never places it, which is all a doubling test asks; ``_closure``
    answers every doubling test at once.  Both return
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
        wrapped anew by ``_SideState.over``: memos of S are shared; arcs
        stay per state.  The wrapper shares the count state (only path
        compression changes it) and the forest, walk and quotients of the
        side's own edges, so a side the rest leaves alone builds no second
        forest.  Its arcs start empty: they are keyed by edge index, and an
        index past the prefix names a different edge in each graph that
        continues it."""
        engine = _UnionEngine.__new__(_UnionEngine)
        engine.oracle = oracle
        engine.sides = [self.sides[0][:], self.sides[1][:]]
        engine.states = [st.over(oracle) for st in self.states]
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
        asks, in side order, whether each placed edge of side s not yet
        reached is in the circuit of side s + u, and a member is tried
        once, at once, on the other side.  The first to pass is the first
        in queue order with a free side; no membership is asked past it,
        none for an edge already reached, and no circuit is built whole."""
        states, sides = self.states, self.sides
        pred: Dict[int, Optional[int]] = {}
        for s in (0, 1):
            if states[s].independent(y):
                return (None, s), pred
        queue: List[Tuple[Optional[int], int]] = [(None, 0), (None, 1)]
        for u, s in queue:
            maybe, member = states[s].member(y if u is None else u)
            for x in sides[s]:
                if x in maybe and x not in pred and member(x):
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


def _closure(engine: _UnionEngine) -> Tuple[int, Dict[int, Tuple[int, Optional[int]]]]:
    """One reverse breadth-first search of the exchange graph of the
    placed edges P from the free sides: (the mask U of the placed edges
    that cannot reach a side that takes them as they stand, and per
    reached edge its level and the next edge of a shortest chain to a
    free side, None at level 0).

    An edge x of side s reaches a free side when side 1 - s takes it, or
    when some z in the circuit of side 1 - s plus x does; the search asks
    that of each unreached x by one ``swaps`` peek per reached z.  A
    parallel copy of x has the arcs of x and one to x, so P + x' is
    f-sparse iff x is reached, and P is Laman-sparse iff U is empty (see
    ``_laman_pass``)."""
    states, sides = engine.states, engine.sides
    toward: Dict[int, Tuple[int, Optional[int]]] = {}
    rest: List[List[int]] = [[], []]
    for s in (0, 1):
        for x in sides[s]:
            if states[1 - s].independent(x):
                toward[x] = (0, None)
            else:
                rest[s].append(x)
    queue = list(toward)
    for z in queue:
        if not (rest[0] or rest[1]):
            break
        s = states[1].mask >> z & 1
        if rest[1 - s]:
            swaps, level, keep = states[s].swaps(z), toward[z][0] + 1, []
            for x in rest[1 - s]:
                if swaps(x):
                    toward[x] = (level, z)
                    queue.append(x)
                else:
                    keep.append(x)
            rest[1 - s] = keep
    return sum(1 << x for x in rest[0] + rest[1]), toward


def _check_chains(oracle: SparsityOracle, sides, toward) -> None:
    """Re-check a LAMAN certificate: P's two sides and ``_closure``'s
    chains of an engine that reached every edge.  Both sides, and for each
    edge e both sides of P + e' once e's chain is applied (each edge of it
    moves to its other side, and e' takes the place of e), must be
    g-independent by count scans: 2m + 2 scans that share nothing with
    the search.  Raises AssertionError otherwise.  No command prints the
    certificate yet; the tests run this check."""
    masks = [sum(1 << x for x in side) for side in sides]
    for mask in masks:
        if oracle.counts(mask).g != mask.bit_count():
            raise AssertionError("a side of the certificate is dependent")
    for e in (x for side in sides for x in side):
        moved, x = list(masks), e
        while x is not None:
            s = masks[1] >> x & 1
            moved[s] ^= 1 << x
            moved[1 - s] |= 1 << x
            level, nxt = toward[x]
            if nxt is not None and toward[nxt][0] != level - 1:
                raise AssertionError("a chain does not fall one level per edge")
            x = nxt
        moved[masks[1] >> e & 1] |= 1 << e  # the copy e'
        for mask in moved:
            if oracle.counts(mask).g != mask.bit_count():
                raise AssertionError(f"the chain of edge {e} leaves a dependent side")


def _closed_pass(engine: _UnionEngine, edges, gate: bool) -> int:
    """Place ``edges`` by insertion alone and decide them by ``_closure``:
    0 if they are Laman-sparse, else a witness as ``_laman_pass`` returns
    it, not yet re-checked.  With ``gate`` the witness is the set a failed
    insertion reached or U, else the circuit of the shortest non-sparse
    prefix, by doubling searches over the edges of U alone.

    The closures run at prefixes of doubling length, the first of 16-31
    edges, and the last at all of them (one closure below 32 edges), and
    a failed insertion closes the edges placed before it: a violator
    among the first i edges stops the insertions after at most 2i + 31,
    as the per-edge pass stops at i."""
    ends = [len(edges)]
    while ends[-1] >= 32:
        ends.append(ends[-1] // 2)
    placed = failed = 0
    for end in reversed(ends):
        while placed < end and not failed:
            failed = engine.insert(edges[placed])
            placed += not failed
        if failed and gate:
            return failed
        unreached = _closure(engine)[0]
        if unreached or failed:
            break
    if not unreached or gate:
        return unreached or failed
    side, prefix = engine.states[1].mask, _UnionEngine(engine.oracle)
    for e in edges[:placed]:
        if unreached >> e & 1:
            s = side >> e & 1
            prefix.states[s] = prefix.states[s].plus(e)
            prefix.sides[s].append(e)
            reached = prefix.reach(e)
            if reached:
                return reached
    raise AssertionError("no doubling search failed inside the unreached set")


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
    """The mask of a witness W that the subset is not Laman-sparse,
    re-checked by one count scan, or 0.  Without ``gate`` W is the Laman
    circuit of the shortest non-sparse prefix; with ``gate`` it is some W
    with |W| >= f(W), and a mask of at least 2n + rep >= f(W) edges is
    returned whole, as its own witness.

    A per-edge step places e by ``insert(e) or reach(e)``.  A set violating
    the Laman count in P + e, for a Laman-sparse P, contains e and
    violates f once e is doubled, so both steps succeed exactly when
    P + e is Laman-sparse.  If ``reach`` fails, the set it reached is the
    one circuit of the union matroid in P + e + copy, and so the unique
    Laman circuit of P + e; if ``insert`` fails, e is a loop with trivial
    color and a circuit alone.

    A pass from no kept engine is decided by closures instead
    (``_closed_pass``): it inserts the edges, all of them for
    ``is_laman_sparse`` and all but the last for ``find_laman_circuit``,
    and runs ``_closure`` on prefixes of doubling length, one closure
    below 32 edges, so that an early violator stops the insertions early
    as it stops the per-edge pass.  Let the placed edges P be f-sparse, as
    sides P_0 and P_1.  P is Laman-sparse iff P + e' is f-sparse for every
    edge e, e' a parallel copy of e; the copy's arcs in the exchange graph
    are those of e and one to e, so e' has an augmenting path iff e
    reaches a free side (Edmonds, "Minimum partition of a matroid into
    independent subsets", 1965; Knuth, "Matroid partitioning", 1973).
    The set U the search leaves unreached is tight: the circuit of each x
    of U in the other side lies in U, so each side's part of U spans U in
    the g-matroid and |U| = 2 g(U) = f(U).  A Laman violator W of P has
    |W| = f(W), so each side holds a g-basis of W, the circuits of its
    edges lie in W, and W lies in U.  So U is empty iff P is Laman-sparse,
    and a nonempty U, the largest violator, is ``is_laman_sparse``'s
    witness.  For ``find_laman_circuit`` the doubling searches then resume
    inside U, from the closure's partition cut down to U: in index order,
    each edge of U joins its side by one ``plus`` step, with no second
    insertion, and is doubled.  An f-sparse engine holding U's part of a
    prefix decides that prefix, since every violator of the prefix lies in
    U, and the first failed search reaches the circuit of the per-edge
    pass.  A failed insertion ends the insertions: what it reached is a
    witness for ``is_laman_sparse``, and the circuit if the edges placed
    before it close empty, for then they are Laman-sparse.

    The engine a closure that reaches every edge leaves is the per-edge
    pass's own, since ``reach`` changes nothing, and ``find_laman_circuit``
    gives its last edge the per-edge step: so a basis, a basis minus two
    edges and a basis plus one edge appended last are each decided by the
    closures and no other search.  Per-edge steps still run on a kept
    engine, and wherever the closure would cover 2n + rep edges or more,
    which cannot be sparse, or a single edge, whose closure is its own
    doubling search.  So on bench seed 1 every ``find_laman_circuit`` call
    of ``diagnose`` and ``certify`` takes the closure (100 %), and no
    ``grow`` query does (0 %): each stream's first query has one edge, and
    the rest continue kept engines.

    A graph may keep one engine that has run this pass over a prefix of
    its edges, as many as it has placed; ``with_edge`` passes it on
    unchanged.  A whole-graph pass takes it before any oracle is built:
    the graph's oracle is the engine's own when no edge was added, else a
    copy of it extended by the rest.  The pass places the rest on a copy
    of the engine (``handed_to``) and keeps that copy if every step
    succeeds.

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
    kept = vars(g).pop("_laman_engine", None) if edge_subset is None else None
    if kept is None:
        oracle = SparsityOracle(g)
        mask = oracle.mask_of(edge_subset)
    else:
        placed = len(kept.sides[0]) + len(kept.sides[1])
        oracle = kept.oracle if placed == g.m else kept.oracle.extended(g.edges[placed:])
        mask = oracle.full_mask
    if gate and mask.bit_count() >= 2 * oracle.n + oracle.ctx.full_translation_rep:
        return _violating(oracle, mask, True)
    if kept is None:
        engine, edges = _UnionEngine(oracle), _edges_of(mask)
        closed = len(edges) - (not gate)
        if 1 < closed < 2 * oracle.n + oracle.ctx.full_translation_rep:
            reached = _closed_pass(engine, edges[:closed], gate)
            if reached:
                return _violating(oracle, reached, True)
            edges = edges[closed:]
    else:
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
    bench ``grow`` seed 1.  A smaller mask goes through ``_laman_pass``.
    From nothing, the pass inserts every edge and closes the exchange
    graph (once below 32 edges); the W is the set left unreached, which
    is tight, or what a failed insertion reached.  A graph grown by ``with_edge`` from one
    proved sparse instead places only its new edges by per-edge steps,
    and a graph proved sparse answers again at once.  Its memo of tight
    sets answers 217 of the 335 rejections below the gate on that seed by
    one peek each, with no engine work.
    """
    return not _laman_pass(g, edge_subset, gate=True)


def is_laman(g: ColoredGraph) -> bool:
    """Whether the graph is a basis of the Laman family: count plus sparsity."""
    target = 2 * g.n + g.context.full_translation_rep - 1
    return g.m == target and is_laman_sparse(g)


def find_laman_circuit(g: ColoredGraph, edge_subset=None) -> Optional[Tuple[int, ...]]:
    """The Laman circuit of the shortest non-Laman-sparse prefix, or None.

    One ``_laman_pass`` over the edges in index order: the first failed
    doubling search reaches the unique Laman circuit of the prefix.  Of all
    Laman circuits in the subset, this is the one whose largest edge index
    is smallest; removing any one of its edges restores sparsity.  From
    nothing, all edges but the last are inserted and closed; if every edge
    is reached, the last edge's per-edge step decides, else the searches
    run over the unreached set alone, which holds the circuit.
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
    identity), re-checked by one count scan (``is_gen_cone11``).
    """
    oracle = SparsityOracle(g)
    mask = oracle.mask_of(edge_subset)
    st = oracle.counts(mask)
    chosen: Dict[int, int] = {}
    for i in _edges_of(mask):
        root, wt = st.find(oracle.tails[i])
        image = oracle.ctx.ratio(wt, oracle.colors[i], st.find(oracle.heads[i])[1])
        if image[2] != 0:
            chosen.setdefault(root, i)
    if len(chosen) != g.n - len(st.forest):
        raise ValueError("some component image contains no rotation")
    core = tuple(sorted(set(st.forest) | set(chosen.values())))
    if not is_gen_cone11(g, core):
        raise AssertionError("cone-core re-check found a component that is no cone")
    return core


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
