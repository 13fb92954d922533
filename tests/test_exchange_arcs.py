"""The union engine's exchange arcs, read from per-side forest state,
against the probe loop on every query; its search against the pop-time
search on every call; the engine's one count state per side (no mask
scanned twice in one call, failed searches that change nothing,
doubling searches that never change the engine); and the contraction
lemma and the matroid properties of the counts, as hypothesis
properties."""

import random

from hypothesis import given, settings, strategies as st

from crystal_rigidity.colored_graph import ColoredGraph
from crystal_rigidity.generate import random_graph
from crystal_rigidity.groups import GroupContext
from crystal_rigidity.sparsity import (
    SparsityOracle,
    _SideState,
    _UnionEngine,
    _union_run,
    find_laman_circuit,
    is_laman_sparse,
    union_certificate,
)

from probe_oracle import CheckedQueries
from search_oracle import CheckedSearch
from laman_bases import _greedy_laman_basis, _random_edge


def _doubling(g):
    """A union run over the whole graph, whatever its edge count, then one
    doubling search per edge until the first failure: 0, or the mask the
    failed insertion or search reached."""
    oracle = SparsityOracle(g)
    engine, reached = _union_run(oracle, oracle.full_mask)
    for e in range(g.m):
        reached = reached or engine.reach(e)
    return reached


class TestAgainstProbeLoop:
    def test_seeded_random_graphs(self, monkeypatch):
        checked = CheckedQueries(monkeypatch)
        rng = random.Random(610)
        # 40 graphs per k, then 10 more per k from the same stream: the
        # search builds no circuit for the edges queued ahead of a path's
        # end, so the first 160 alone ask fewer parallel-copy circuits
        # than the floor below.
        for per_k in (40, 10):
            for k in (2, 3, 4, 6):
                for _ in range(per_k):
                    n = rng.randint(1, 7)
                    g = random_graph(k, n, rng.randint(0, 2 * n + 6), rng)
                    _doubling(g)
                    find_laman_circuit(g)
                    union_certificate(g)
        assert checked.calls > 10_000 and checked.circuits > 1_000
        assert checked.parallel > 100

    def test_k2_sides_of_translation_rank_2(self, monkeypatch):
        checked = CheckedQueries(monkeypatch)
        rng = random.Random(611)
        for _ in range(40):
            n = rng.randint(1, 4)
            g = random_graph(2, n, 2 * n + 4, rng)
            _doubling(g)
            union_certificate(g)
        assert checked.translation_rank_2 > 50

    def test_greedy_bases_plus_one_edge(self, monkeypatch):
        rng = random.Random(612)
        bases = [_greedy_laman_basis(k, 20, rng) for k in (2, 3, 4, 6)]
        checked = CheckedQueries(monkeypatch)
        for basis in bases:
            extra = _random_edge(basis.context, basis.n, rng)
            g = ColoredGraph(basis.context, basis.n, basis.edges + (extra,))
            assert not is_laman_sparse(g)
            assert find_laman_circuit(g) is not None
        assert checked.circuits > 100


class TestAgainstPopTimeSearch:
    def test_seeded_random_graphs(self, monkeypatch):
        checked = CheckedSearch(monkeypatch)
        rng = random.Random(618)
        for k in (2, 3, 4, 6):
            for _ in range(40):
                n = rng.randint(1, 7)
                g = random_graph(k, n, rng.randint(0, 2 * n + 6), rng)
                _doubling(g)
                find_laman_circuit(g)
                union_certificate(g)
        assert checked.exchanges > 400 and checked.failures > 150

    def test_greedy_bases_plus_one_edge(self, monkeypatch):
        rng = random.Random(619)
        bases = [_greedy_laman_basis(k, 20, rng) for k in (2, 3, 4, 6)]
        checked = CheckedSearch(monkeypatch)
        for basis in bases:
            extra = _random_edge(basis.context, basis.n, rng)
            g = ColoredGraph(basis.context, basis.n, basis.edges + (extra,))
            assert _doubling(g)
            assert find_laman_circuit(g) is not None
            union_certificate(g)
        assert checked.exchanges > 100 and checked.failures >= 8


def _bases_plus_one_edge(seed):
    """Greedy Laman bases at n = 20-22, each with three extra edges, one
    at a time, at random positions."""
    rng = random.Random(seed)
    out = []
    for k in (2, 3, 4, 6):
        basis = _greedy_laman_basis(k, rng.randint(20, 22), rng)
        for _ in range(3):
            edges = list(basis.edges)
            edges.insert(rng.randrange(len(edges) + 1), _random_edge(basis.context, basis.n, rng))
            out.append(ColoredGraph(basis.context, basis.n, tuple(edges)))
    return out


def _mask(edges):
    mask = 0
    for e in edges:
        mask |= 1 << e
    return mask


class TestOneStatePerSide:
    def test_no_mask_scanned_twice_in_one_call(self, monkeypatch):
        graphs = _bases_plus_one_edge(614)
        scanned = []
        counts = SparsityOracle.counts

        def recording_counts(oracle, mask):
            scanned.append(mask)
            return counts(oracle, mask)

        monkeypatch.setattr(SparsityOracle, "counts", recording_counts)
        total = 0
        for g in graphs:
            for query in (find_laman_circuit, union_certificate, is_laman_sparse):
                scanned.clear()
                query(g)
                assert len(set(scanned)) == len(scanned), (query.__name__, g.context.k, g.n)
                total += len(scanned)
        # each candidate of a greedy growth, as the bench grow queries
        rng = random.Random(617)
        grown = 0
        for k in (2, 3, 4, 6):
            ctx = GroupContext(k)
            edges = ()
            while len(edges) < 2 * 12 + ctx.full_translation_rep - 1:
                candidate = ColoredGraph(ctx, 12, edges + (_random_edge(ctx, 12, rng),))
                scanned.clear()
                if is_laman_sparse(candidate):
                    edges = candidate.edges
                assert len(set(scanned)) == len(scanned), (k, len(edges))
                grown += len(scanned)
        assert total > 100 and grown > 30

    def test_failed_insert_returns_the_circuit_and_changes_nothing(self, monkeypatch):
        graphs = _bases_plus_one_edge(615)
        failed = []
        insert, reach = _UnionEngine.insert, _UnionEngine.reach

        def checked(search):
            def wrapped(engine, edge):
                sides = [list(side) for side in engine.sides]
                states = list(engine.states)
                reached = search(engine, edge)
                if reached:
                    assert engine.sides == sides
                    assert all(a is b for a, b in zip(engine.states, states))
                    failed.append(reached)
                return reached

            return wrapped

        monkeypatch.setattr(_UnionEngine, "insert", checked(insert))
        monkeypatch.setattr(_UnionEngine, "reach", checked(reach))
        for g in graphs:
            failed.clear()
            circuit = find_laman_circuit(g)
            assert circuit is not None and failed == [_mask(circuit)]
            failed.clear()
            cert = union_certificate(g)
            assert failed == ([] if cert.violating is None else [_mask(cert.violating)])


def _reach_graphs(seed):
    """Greedy Laman bases at n = 10-22, each also with one edge more and
    two fewer, and random graphs with n <= 6."""
    rng = random.Random(seed)
    out = []
    for k in (2, 3, 4, 6):
        for n in (10, 16, 22):
            basis = _greedy_laman_basis(k, n, rng)
            edges = list(basis.edges)
            plus = list(edges)
            plus.insert(rng.randrange(len(edges) + 1), _random_edge(basis.context, n, rng))
            minus = list(edges)
            for _ in range(2):
                del minus[rng.randrange(len(minus))]
            out += [ColoredGraph(basis.context, n, tuple(e)) for e in (edges, plus, minus)]
    for _ in range(160):
        n = rng.randint(1, 6)
        out.append(random_graph(rng.choice([2, 3, 4, 6]), n, rng.randint(1, 2 * n + 3), rng))
    return out


class TestReach:
    def test_reach_is_read_only_and_decides_the_doubled_graph(self):
        doublings = failures = 0
        for g in _reach_graphs(616):
            oracle = SparsityOracle(g)
            engine, reached = _union_run(oracle, oracle.full_mask)
            if reached:
                continue
            for e in range(g.m):
                sides = [list(side) for side in engine.sides]
                states = list(engine.states)
                got = engine.reach(e)
                assert engine.sides == sides
                assert all(a is b for a, b in zip(engine.states, states))
                cert = union_certificate(g.with_doubled_edge(e))
                if cert.partition is not None:
                    assert got == 0, (g.context.k, g.n, g.edges, e)
                else:
                    want = _mask(e if x == g.m else x for x in cert.violating)
                    assert got == want, (g.context.k, g.n, g.edges, e)
                    failures += 1
                doublings += 1
        assert doublings > 1_000 and failures > 200


def _independent_side(oracle, rng):
    """A random g-independent edge mask, grown greedily in random order."""
    order = list(range(len(oracle.tails)))
    rng.shuffle(order)
    mask = 0
    for e in order:
        if oracle.g_mask(mask | 1 << e) == (mask | 1 << e).bit_count():
            mask |= 1 << e
    return mask


@st.composite
def graphs(draw, max_n=5, max_m=12):
    k = draw(st.sampled_from([2, 3, 4, 6]))
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, max_m))
    return random_graph(k, n, m, random.Random(draw(st.integers(0, 2**32))))


class TestProperties:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(graphs(), st.integers(0, 2**32))
    def test_contraction_lemma(self, g, seed):
        # g(S - x + y) from the forest quotient equals a full count scan
        rng = random.Random(seed)
        oracle = SparsityOracle(g)
        mask = _independent_side(oracle, rng)
        side = _SideState(oracle, mask, oracle.counts(mask))
        forest = set(side.counts.forest)
        up_edge = side._tree.up_edge
        for y in range(g.m):
            if mask >> y & 1:
                continue
            assert side.contracted_g(y) == oracle.g_mask(mask | 1 << y)
            for x in range(g.m):
                if not mask >> x & 1:
                    continue
                want = oracle.g_mask(mask & ~(1 << x) | 1 << y)
                if x in forest:
                    got = side.contracted_g(y, cut=up_edge.index(x))
                else:
                    got = side.contracted_g(y, drop=x)
                assert got == want, (g.context.k, g.n, g.edges, mask, x, y)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(graphs(max_m=10), st.integers(0, 2**32))
    def test_counts_are_submodular_and_monotone(self, g, seed):
        rng = random.Random(seed)
        oracle = SparsityOracle(g)
        a = rng.getrandbits(g.m)
        b = rng.getrandbits(g.m)
        ga, gb = oracle.g_mask(a), oracle.g_mask(b)
        assert ga + gb >= oracle.g_mask(a | b) + oracle.g_mask(a & b)
        for small, big in ((a & b, a), (a, a | b)):
            assert oracle.g_mask(small) <= oracle.g_mask(big)
            assert oracle.f_mask(small) <= oracle.f_mask(big)
        for e in range(g.m):
            assert oracle.g_mask(a | 1 << e) - ga in (0, 1)
