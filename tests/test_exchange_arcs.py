"""The union engine's exchange arcs, read from per-side forest state,
against the probe loop on every query; its search against the pop-time
search on every call; a side state's circuit plan against the probe loop
in any order of questions, with no test run twice in one question and no
reference cycle; its ``swaps`` test against the probe loop and the plan's
test; the engine's one count state per side (no mask scanned twice in one
call, failed searches that change nothing, doubling searches that never
change the engine); and the contraction lemma and the matroid properties
of the counts, as hypothesis properties."""

import gc
import random
import weakref

from hypothesis import given, settings, strategies as st

from crystal_rigidity.colored_graph import ColoredGraph
from crystal_rigidity.generate import random_graph
from crystal_rigidity.groups import GroupContext
from crystal_rigidity.sparsity import (
    SparsityOracle,
    _SideState,
    _UnionEngine,
    _edges_of,
    _union_run,
    find_laman_circuit,
    is_laman_sparse,
    union_certificate,
)

import pass_oracle
from probe_oracle import CheckedQueries, probe_circuit, probe_swaps
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
                pass_oracle.find_laman_circuit(g)
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
            assert pass_oracle.find_laman_circuit(g) is not None
            union_certificate(g)
        assert checked.exchanges > 100 and checked.failures >= 8


def _plan_graphs(seed):
    """Seeded random graphs with n <= 6 for every k, every third with a
    loop of trivial color added, and more k = 2 graphs whose sides can
    reach translation rank 2."""
    rng = random.Random(seed)
    out = []
    for i in range(160):
        k = (2, 3, 4, 6)[i % 4]
        n = rng.randint(1, 6)
        g = random_graph(k, n, rng.randint(1, 2 * n + 4), rng, color_bound=rng.randint(0, 2))
        if i % 3 == 0:
            v = rng.randrange(n)
            g = g.with_edge(v, v, (0, 0, 0))
        out.append(g)
    for _ in range(40):
        n = rng.randint(1, 4)
        out.append(random_graph(2, n, 2 * n + 4, rng))
    return out


class TestPlan:
    def test_every_answer_equals_the_probe_loop_in_any_order(self):
        # Each dependent y, a parallel copy included, is asked about every
        # edge of S in a shuffled order, then again in another, by a plan
        # built anew.
        rng = random.Random(620)
        asked = parallel = rank_2 = loops = 0
        for g in _plan_graphs(621):
            oracle = SparsityOracle(g)
            for _ in range(2):
                mask = _independent_side(oracle, rng)
                side = _SideState(oracle, mask, oracle.counts(mask))
                edges = [x for x in range(g.m) if mask >> x & 1]
                for y in range(g.m):
                    if side.independent(y):
                        continue
                    want = probe_circuit(side, y)
                    for _ in range(2):
                        rng.shuffle(edges)
                        maybe, member = side.member(y)
                        got = 0
                        for x in edges:
                            if x in maybe and member(x):
                                got |= 1 << x
                        assert got == want, (g.context.k, g.n, g.edges, mask, y)
                    assert side.circuit(y) == want
                    asked += len(edges)
                    parallel += bool(mask >> y & 1)
                    rank_2 += g.context.k == 2 and side.counts.half_rep == 2
                    loops += oracle.tails[y] == oracle.heads[y] and oracle.colors[y] == (0, 0, 0)
        assert asked > 10_000 and parallel > 1_000 and rank_2 > 500 and loops > 100

    def test_no_test_runs_twice_for_one_edge(self, monkeypatch):
        # Within one ``member`` call no key is peeked twice: each
        # non-forest edge is dropped at most once, each forest cut is made
        # at most once, and no two cuts split the endpoints of y and of the
        # non-forest edges alike, so one test serves each group.
        runs = []
        calls = []
        exchanges = _SideState._exchanges
        member = _SideState.member

        def recording(state, key):
            test = exchanges(state, key)
            if not calls:  # a ``swaps`` test, made outside any member call
                return test

            def peek(y, call=calls[-1]):
                runs.append((call, state, key, y))
                return test(y)

            return peek

        def numbered(state, y):
            maybe, test = member(state, y)
            call = object()

            def in_call(x):
                calls.append(call)
                try:
                    return test(x)
                finally:
                    calls.pop()

            return maybe, in_call

        monkeypatch.setattr(_SideState, "_exchanges", recording)
        monkeypatch.setattr(_SideState, "member", numbered)
        graphs = _bases_plus_one_edge(622) + _plan_graphs(623)
        for g in graphs:
            _doubling(g)
            find_laman_circuit(g)
            union_certificate(g)
        seen = set()
        splits = {}
        for call, state, (drop, cut), y in runs:
            assert (call, drop, cut) not in seen, (state.mask, y, drop, cut)
            seen.add((call, drop, cut))
            if cut is None:
                continue
            o, tree = state.oracle, state._tree
            points = [o.tails[y], o.heads[y]]
            for z in tree.non_forest:
                points += (o.tails[z], o.heads[z])
            below = frozenset(p for p in points if tree.enter[cut] <= tree.enter[p] < tree.leave[cut])
            key = (call, tree.root[cut], below)
            assert key not in splits, (state.mask, y, splits.get(key), cut)
            splits[key] = cut
        drops = sum(drop is not None for _, _, (drop, _), _ in runs)
        assert drops > 1_000 and len(splits) > 1_000

    def test_a_state_with_plans_is_freed_without_the_cycle_collector(self):
        # A plan holds no reference back to its state, so the states a
        # search leaves behind die with their last reference.
        rng = random.Random(624)
        freed = 0
        gc.disable()
        try:
            for g in _plan_graphs(625)[:40]:
                oracle = SparsityOracle(g)
                mask = _independent_side(oracle, rng)
                side = _SideState(oracle, mask, oracle.counts(mask))
                dependent = [y for y in range(g.m) if not side.independent(y)]
                for y in dependent:
                    side.circuit(y)
                ref = weakref.ref(side)
                del side
                assert ref() is None, (g.context.k, g.n, g.edges, mask)
                freed += bool(dependent)
        finally:
            gc.enable()
        assert freed > 20


class TestSwaps:
    """``swaps(z)`` answers whether S - z + y is independent for every z in
    S and y off S, as the probe loop's count scan does, and agrees with
    the test of ``member(y)``: an edge the plan leaves out swaps only
    when S + y is independent."""

    @staticmethod
    def _check(side, ys, checked):
        """Checks every pair; counts them in ``checked`` by whether S + y
        is dependent (index 1) or not (index 0)."""
        for y in ys:
            maybe, test = side.member(y)
            dependent = not side.independent(y)
            for z in _edges_of(side.mask):
                got = side.swaps(z)(y)
                assert got == probe_swaps(side, z, y), (side.mask, z, y)
                assert got == (test(z) if z in maybe else not dependent), (side.mask, z, y)
                checked[dependent] += 1

    def test_seeded_sides(self):
        rng = random.Random(626)
        checked = [0, 0]
        for g in _plan_graphs(627):
            oracle = SparsityOracle(g)
            for _ in range(2):
                mask = _independent_side(oracle, rng)
                side = _SideState(oracle, mask, oracle.counts(mask))
                self._check(side, [y for y in range(g.m) if not mask >> y & 1], checked)
        assert checked[1] > 5_000, checked

    def test_the_sides_of_bases(self):
        rng = random.Random(628)
        checked = [0, 0]
        for k, n in ((2, 20), (3, 30), (4, 40), (6, 60)):
            basis = _greedy_laman_basis(k, n, rng)
            assert is_laman_sparse(basis)
            engine = vars(basis)["_laman_engine"]
            for s in (0, 1):
                self._check(engine.states[s], engine.sides[1 - s], checked)
        assert checked[1] > 10_000 and checked[0] > 100, checked


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


def _contracted_g(side, y, drop=None, cut=None):
    """g of S + y, less the non-forest edge ``drop`` or the forest edge
    from ``cut`` to its parent, on the side's forest quotient: the forest's
    edges, less the cut one, plus g of the quotient plus y's gain on it."""
    q = side._quotient(drop, cut)
    return len(side.counts.forest) - (cut is not None) + q.g + q.peek(*side._arc(y, cut))[0]


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
            assert _contracted_g(side, y) == oracle.g_mask(mask | 1 << y)
            for x in range(g.m):
                if not mask >> x & 1:
                    continue
                want = oracle.g_mask(mask & ~(1 << x) | 1 << y)
                if x in forest:
                    got = _contracted_g(side, y, cut=up_edge.index(x))
                else:
                    got = _contracted_g(side, y, drop=x)
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
