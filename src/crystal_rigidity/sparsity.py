"""Sparsity counts and independence oracles for colored graphs.

The counting functions f, g, h and h' are evaluated by a single pass of
union-find with group-valued potentials: merging components tracks the
connecting path element so fundamental-cycle images can be classified on
the fly without rationals.  The potentials are plain (t1, t2, s) triples
combined by the group law of ``GroupContext``.  On top of the count
oracle sit the matroid union engine (two copies of the g-matroid,
augmenting paths in the exchange graph), the Laman family tests via edge
doubling, the Laman circuit of the shortest non-sparse prefix from one
incremental engine pass (the reachable set of the first failed doubling),
g-circuits by a deletion filter, decomposition into two spanning g-bases,
generalized-cone oracles, and the exhaustive brute-force verifier."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .colored_graph import ColoredGraph, spanning_forest, rho_of_fundamental_path


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


class SparsityOracle:
    """Count evaluations for one graph, memoized by edge bitmask."""

    def __init__(self, graph: ColoredGraph):
        self.graph = graph
        ctx = graph.context
        self.ctx = ctx
        self.k = ctx.k
        self.n = graph.n
        self.tails = tuple(e.tail for e in graph.edges)
        self.heads = tuple(e.head for e in graph.edges)
        self.colors = tuple((e.color.t1, e.color.t2, e.color.s) for e in graph.edges)
        self.full_mask = (1 << graph.m) - 1
        self.rep_full = ctx.full_translation_rep
        self._g_cache: Dict[int, int] = {}

    # -- the scan -----------------------------------------------------------

    def _scan(self, mask: int, full: bool = False):
        """One union-find pass over the edges selected by ``mask``.

        Returns (t_sum, rep, details) where details is None unless
        ``full`` (then per-root data for component breakdowns).
        """
        n = self.n
        k = self.k
        compose = self.ctx.compose
        invert = self.ctx.invert
        parent = list(range(n))
        pot: List[Tuple[int, int, int]] = [(0, 0, 0)] * n
        rot: List[Optional[Tuple[int, int, int]]] = [None] * n
        has_trans = [False] * n
        edge_cnt = [0] * n if full else None
        grank = 0
        gdir = (0, 0)

        def find(v: int):
            if parent[v] == v:
                return v, (0, 0, 0)
            path = [v]
            while parent[path[-1]] != parent[parent[path[-1]]]:
                path.append(parent[path[-1]])
            root = parent[path[-1]]
            acc = pot[path[-1]]
            for u in reversed(path[:-1]):
                acc = compose(acc, pot[u])
                parent[u] = root
                pot[u] = acc
            return root, pot[v]

        def push_vec(x: int, y: int):
            nonlocal grank, gdir
            if x == 0 and y == 0:
                return
            if grank == 0:
                grank, gdir = 1, (x, y)
            elif grank == 1 and gdir[0] * y - gdir[1] * x != 0:
                grank = 2

        def feed(r: int, gen: Tuple[int, int, int]):
            if gen == (0, 0, 0):
                return
            if gen[2] == 0:
                has_trans[r] = True
                if k == 2:
                    push_vec(gen[0], gen[1])
                return
            w = rot[r]
            if w is None:
                rot[r] = gen
            elif k == 2:
                dx, dy = w[0] - gen[0], w[1] - gen[1]
                if dx or dy:
                    has_trans[r] = True
                    push_vec(dx, dy)
            elif not self.ctx.same_center(w, gen):
                has_trans[r] = True

        rest = mask
        while rest:
            low = rest & -rest
            i = low.bit_length() - 1
            rest ^= low
            ri, wi = find(self.tails[i])
            rj, wj = find(self.heads[i])
            gen = compose(compose(wi, self.colors[i]), invert(wj))
            if ri == rj:
                feed(ri, gen)
                if full:
                    edge_cnt[ri] += 1
            else:
                parent[rj] = ri
                pot[rj] = gen
                if rot[rj] is not None:
                    feed(ri, compose(compose(gen, rot[rj]), invert(gen)))
                has_trans[ri] = has_trans[ri] or has_trans[rj]
                if full:
                    edge_cnt[ri] += edge_cnt[rj] + 1

        roots = [v for v in range(n) if parent[v] == v]
        t_sum = 0
        any_trans = False
        for r in roots:
            if rot[r] is None:
                t_sum += 2
            any_trans = any_trans or has_trans[r]
        rep = 2 * grank if k == 2 else (2 if any_trans else 0)

        if not full:
            return t_sum, rep, None

        members: Dict[int, List[int]] = {r: [] for r in roots}
        for v in range(n):
            members[find(v)[0]].append(v)
        details = []
        for r in sorted(roots, key=lambda r: members[r][0]):
            has_rot = rot[r] is not None
            if has_rot:
                cent = 0 if has_trans[r] else 1
            else:
                cent = 2 if has_trans[r] else 3
            details.append(
                ComponentCounts(
                    vertices=tuple(sorted(members[r])),
                    edge_count=edge_cnt[r],
                    has_rotation=has_rot,
                    has_translation=has_trans[r],
                    t=0 if has_rot else 2,
                    cent=cent,
                )
            )
        return t_sum, rep, tuple(details)

    # -- counts -------------------------------------------------------------

    def g_mask(self, mask: int) -> int:
        cached = self._g_cache.get(mask)
        if cached is not None:
            return cached
        t_sum, rep, _ = self._scan(mask)
        value = self.n + rep // 2 - t_sum // 2
        self._g_cache[mask] = value
        return value

    def f_mask(self, mask: int) -> int:
        t_sum, rep, _ = self._scan(mask)
        return 2 * self.n + rep - t_sum

    def report_mask(self, mask: int) -> CountReport:
        t_sum, rep, details = self._scan(mask, full=True)
        f = 2 * self.n + rep - t_sum
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
            g=self.n + rep // 2 - t_sum // 2,
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
            if not 0 <= i < self.graph.m:
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


class _UnionEngine:
    """Greedy insertion with augmenting paths over two g-matroid copies.

    Items are edge indices; a virtual item duplicates an existing edge
    (used for the doubling tests) and shares its count-mask bit, which
    makes parallel copies automatically dependent together.  Exchange
    arcs are found by probing single-element swaps against the count
    oracle, O(m^2) oracle calls per augmentation; this is the scaling
    bottleneck, acceptable at desk scale.  After a failed insertion,
    ``reachable`` holds every item the search reached: the one
    union-matroid circuit of the inserted items plus the new one.  A
    doubled copy can be taken out again with ``remove``.
    """

    def __init__(self, oracle: SparsityOracle):
        self.oracle = oracle
        self.sides: List[List[int]] = [[], []]
        self.edge_of: Dict[int, int] = {}
        self.reachable: Optional[Tuple[int, ...]] = None

    def snapshot(self):
        return (tuple(self.sides[0]), tuple(self.sides[1]), dict(self.edge_of))

    def restore(self, snap):
        self.sides = [list(snap[0]), list(snap[1])]
        self.edge_of = dict(snap[2])
        self.reachable = None

    def remove(self, item: int) -> None:
        """Drop an inserted item; both sides stay independent."""
        for side in self.sides:
            if item in side:
                side.remove(item)
        del self.edge_of[item]
        self.reachable = None

    def _indep(self, items: Sequence[int]) -> bool:
        mask = 0
        for it in items:
            mask |= 1 << self.edge_of[it]
        return len(items) == self.oracle.g_mask(mask)

    def _circuit_rest(self, side: List[int], y: int) -> List[int]:
        """Elements of the unique circuit of side + y, other than y.

        The mask of side + y is built once and each probe clears x's bit,
        unless y is a parallel copy of x (the bit stays set).  A side is
        g-independent, so no two of its items share a bit.
        """
        edge_of = self.edge_of
        y_bit = 1 << edge_of[y]
        mask = y_bit
        for x in side:
            mask |= 1 << edge_of[x]
        size = len(side)
        g_mask = self.oracle.g_mask
        out = []
        for x in side:
            bit = 1 << edge_of[x]
            if size == g_mask(mask if bit == y_bit else mask & ~bit):
                out.append(x)
        return out

    def insert(self, item: int, edge: int) -> bool:
        self.edge_of[item] = edge
        self.reachable = None
        for side in self.sides:
            if self._indep(side + [item]):
                side.append(item)
                return True
        side_of = {}
        for s, members in enumerate(self.sides):
            for x in members:
                side_of[x] = s
        pred: Dict[int, Optional[int]] = {item: None}
        queue = [item]
        qi = 0
        found = None
        while qi < len(queue) and found is None:
            u = queue[qi]
            qi += 1
            for s in (0, 1):
                if side_of.get(u) == s:
                    continue
                side = self.sides[s]
                if self._indep(side + [u]):
                    found = (u, s)
                    break
                for x in self._circuit_rest(side, u):
                    if x not in pred:
                        pred[x] = u
                        queue.append(x)
        if found is None:
            self.reachable = tuple(pred)
            del self.edge_of[item]
            return False
        u, s = found
        # Walk back along the augmenting path, shifting each element into
        # the side vacated by its successor.
        target = s
        while u is not None:
            prev = pred[u]
            if u != item:
                self.sides[side_of[u]].remove(u)
            self.sides[target].append(u)
            if u != item:
                target = side_of[u]
            u = prev
        if not (self._indep(self.sides[0]) and self._indep(self.sides[1])):
            raise AssertionError("augmenting path produced a dependent side")
        return True


def _union_run(oracle: SparsityOracle, mask: int):
    """Insert all edges of mask; return (engine, failed_item_or_None)."""
    engine = _UnionEngine(oracle)
    for i in _edges_of(mask):
        if not engine.insert(i, i):
            return engine, i
    return engine, None


def _violation_from_engine(engine: _UnionEngine, extra_edge: Optional[int] = None) -> Tuple[int, ...]:
    edges = set()
    for item in engine.reachable:
        edges.add(engine.edge_of[item] if item in engine.edge_of else extra_edge)
    edges.discard(None)
    return tuple(sorted(edges))


def union_certificate(g: ColoredGraph, edge_subset=None) -> UnionCertificate:
    """Partition into two g-independent sets, or a set W with |W| > f(W)."""
    oracle = SparsityOracle(g)
    mask = oracle.mask_of(edge_subset)
    engine, failed = _union_run(oracle, mask)
    if failed is None:
        return UnionCertificate(
            partition=(tuple(sorted(engine.sides[0])), tuple(sorted(engine.sides[1]))),
            violating=None,
        )
    witness = _violation_from_engine(engine, failed)
    if len(witness) <= oracle.f_mask(oracle.mask_of(witness)):
        raise AssertionError("union engine produced a non-violating witness")
    return UnionCertificate(partition=None, violating=witness)


def is_gamma22_sparse(g: ColoredGraph, edge_subset=None) -> bool:
    return union_certificate(g, edge_subset).partition is not None


def is_gamma22(g: ColoredGraph) -> bool:
    return g.m == 2 * g.n + g.context.full_translation_rep and is_gamma22_sparse(g)


def _check_h_violation(oracle: SparsityOracle, witness: Tuple[int, ...]) -> int:
    wmask = oracle.mask_of(witness)
    if len(witness) < oracle.f_mask(wmask):
        raise AssertionError("witness does not violate the Laman count")
    return wmask


def _laman_witness(oracle: SparsityOracle, mask: int) -> Optional[int]:
    """None if the subgraph is Laman-sparse, else the mask of an
    h-violating edge set.

    Implemented per the doubling characterization: the subgraph must be
    f-sparse and must stay so when any single edge is doubled.
    """
    engine, failed = _union_run(oracle, mask)
    if failed is not None:
        return _check_h_violation(oracle, _violation_from_engine(engine, failed))
    base = engine.snapshot()
    virtual = oracle.graph.m  # item id for the doubled copy
    for e in _edges_of(mask):
        engine.restore(base)
        if not engine.insert(virtual, e):
            return _check_h_violation(oracle, _violation_from_engine(engine, e))
    return None


def is_laman_sparse(g: ColoredGraph, edge_subset=None) -> bool:
    oracle = SparsityOracle(g)
    return _laman_witness(oracle, oracle.mask_of(edge_subset)) is None


def is_laman(g: ColoredGraph) -> bool:
    """Whether the graph is a basis of the Laman family: count plus sparsity."""
    target = 2 * g.n + g.context.full_translation_rep - 1
    return g.m == target and is_laman_sparse(g)


def _shrink(mask: int, witness) -> Tuple[int, ...]:
    """Deletion filter: an edge-minimal subset of ``mask`` with a witness.

    ``witness(sub)`` returns a mask inside ``sub`` that still has the
    property (non-sparsity or dependence), or None.  Both properties are
    monotone, so an edge that cannot be deleted now cannot be deleted from
    any later, smaller subset, and one pass in edge order suffices.
    """
    current = mask
    for e in _edges_of(mask):
        sub = current & ~(1 << e)
        if sub != current and sub:
            found = witness(sub)
            if found is not None:
                current = found
    return _edges_of(current)


def find_laman_circuit(g: ColoredGraph, edge_subset=None) -> Optional[Tuple[int, ...]]:
    """The Laman circuit of the shortest non-Laman-sparse prefix, or None.

    One union-engine pass over the edges in index order, keeping the
    prefix P Laman-sparse.  Each edge e is inserted, then a parallel copy
    of it: a set violating the Laman count in P + e must contain e, and
    doubling e makes it violate f, so P + e is Laman-sparse exactly when
    both insertions succeed (the copy is then removed again).  If the copy
    fails, P + e is f-sparse, so P + e + copy holds one circuit of the
    union matroid, the set the failed augmentation reached; its edges are
    the unique Laman circuit of P + e.  If e itself fails, it is a loop
    with trivial color and a circuit alone.  Of all Laman circuits in the
    subset, this is the one whose largest edge index is smallest; removing
    any one of its edges restores sparsity.
    """
    oracle = SparsityOracle(g)
    engine = _UnionEngine(oracle)
    virtual = g.m  # item id for the doubled copy
    for e in _edges_of(oracle.mask_of(edge_subset)):
        if engine.insert(e, e) and engine.insert(virtual, e):
            engine.remove(virtual)
            continue
        circuit = _violation_from_engine(engine, e)
        _check_h_violation(oracle, circuit)
        return circuit
    return None


def find_g_circuit(g: ColoredGraph, edge_subset=None) -> Optional[Tuple[int, ...]]:
    """Minimal g-dependent subset, or None if the subset is independent."""
    oracle = SparsityOracle(g)

    def dependent(mask: int) -> Optional[int]:
        return mask if mask.bit_count() > oracle.g_mask(mask) else None

    start = dependent(oracle.mask_of(edge_subset))
    return None if start is None else _shrink(start, dependent)


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
    t_sum, rep, details = oracle._scan(mask, full=True)
    if rep != g.context.full_translation_rep:
        return False
    if t_sum != 0:
        return False
    if mask.bit_count() != g.n + rep // 2:
        return False
    # A spanning map-graph exists iff every component carries a cycle.
    return all(c.edge_count >= len(c.vertices) for c in details)


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

    Per component: the spanning tree plus one non-forest edge whose
    fundamental-path image is a rotation.
    """
    subset = tuple(range(g.m)) if edge_subset is None else tuple(sorted(edge_subset))
    mg = spanning_forest(g, subset)
    chosen: Dict[int, int] = {}
    for i in mg.non_forest_edges():
        comp = mg.component_of[g.edges[i].tail]
        if comp in chosen:
            continue
        if rho_of_fundamental_path(mg, i)[2] != 0:
            chosen[comp] = i
    if len(chosen) != mg.component_count:
        raise ValueError("some component image contains no rotation")
    return tuple(sorted(set(mg.forest) | set(chosen.values())))


def is_gen_cone11(g: ColoredGraph, edge_subset=None) -> bool:
    """Map-graph whose per-component cycle image is a rotation."""
    oracle = SparsityOracle(g)
    mask = oracle.mask_of(edge_subset)
    _, _, details = oracle._scan(mask, full=True)
    return all(
        c.edge_count == len(c.vertices) and c.has_rotation for c in details
    )


def gen_cone11_rank(g: ColoredGraph, edge_subset=None) -> int:
    """Rank n - sum(T)/2 of the generalized cone-(1,1) matroid."""
    oracle = SparsityOracle(g)
    t_sum, _, _ = oracle._scan(oracle.mask_of(edge_subset))
    return g.n - t_sum // 2


# ---------------------------------------------------------------------------
# Brute-force oracle.
# ---------------------------------------------------------------------------


def brute_force_sparse(
    g: ColoredGraph,
    count="f",
    strict: bool = False,
    edge_subset=None,
    max_edges: int = 20,
) -> bool:
    """Exhaustive sparsity check over every nonempty edge subset.

    ``count`` is one of "f", "g", "h" or a callable mapping an edge tuple
    to an integer bound; ``strict`` demands m' < bound instead of <=.
    """
    oracle = SparsityOracle(g)
    mask = oracle.mask_of(edge_subset)
    edges = _edges_of(mask)
    mm = len(edges)
    if mm > max_edges:
        raise ValueError(f"refusing brute force on {mm} > {max_edges} edges")
    if isinstance(count, str):
        h_mask = lambda msk: oracle.f_mask(msk) - 1  # noqa: E731
        fn = {"f": oracle.f_mask, "g": oracle.g_mask, "h": h_mask}[count]
    else:
        fn = lambda msk: count(_edges_of(msk))  # noqa: E731
    for sub in range(1, 1 << mm):
        msk = 0
        rest = sub
        while rest:
            low = rest & -rest
            msk |= 1 << edges[low.bit_length() - 1]
            rest ^= low
        size = sub.bit_count()
        bound = fn(msk)
        if size > bound or (strict and size == bound):
            return False
    return True
