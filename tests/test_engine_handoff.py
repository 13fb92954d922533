"""The union engine a graph keeps from a Laman pass over a prefix of its
edges, which ``with_edge`` passes on to the child.  Replayed over the
benchmark's library-free ``grow_reference`` streams: every answer equals
both the path from nothing and the reference flag, a child's query leaves
its parent's engine as it was, a whole-graph query places only the edges
past the kept prefix, a dropped basis is freed without the cycle
collector, and only ``with_edge`` children receive an engine.  The tight
sets the engine keeps from rejections are tight, stay in their own
lineage and answer most rejections without an engine call."""

import gc
import random
import weakref

import pytest

from crystal_rigidity import sparsity
from crystal_rigidity.colored_graph import ColoredGraph, make_graph
from crystal_rigidity.sparsity import (
    SparsityOracle, _UnionEngine, brute_force_sparse, find_laman_circuit, is_laman_sparse,
)
from instances import grow_reference
from laman_bases import _greedy_laman_basis

KS = (2, 3, 4, 6)


def _bound(g):
    return 2 * g.n + g.context.full_translation_rep


def _streams(k, length=3):
    """(n, candidates, reference flags) at n = 12 and 30, as the benchmark's
    ``grow`` workload draws them, with ``length`` * n candidates."""
    for n in (12, 30):
        cands, flags, _, _ = grow_reference(k, n, random.Random(f"handoff:{k}:{n}"), length=length * n)
        yield n, cands, flags


def _fresh(g):
    return ColoredGraph(g.context, g.n, g.edges)


def _snapshot(engine):
    return ([list(side) for side in engine.sides],
            [(st.mask, st.counts.g) for st in engine.states])


def _counting(monkeypatch, name):
    """Count calls of ``_UnionEngine.<name>`` from now on."""
    calls = []
    original = getattr(_UnionEngine, name)

    def wrapped(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(_UnionEngine, name, wrapped)
    return calls


class TestAnswers:
    @pytest.mark.parametrize("k", KS)
    def test_children_siblings_and_grandchildren(self, k):
        # From each basis: its rejected children, then the accepted child,
        # whose own children come next.
        handed = rejected = 0
        for n, cands, flags in _streams(k):
            basis = make_graph(k, n, [])
            for j, ((t, h, m1, m2, s), accept) in enumerate(zip(cands, flags)):
                child = basis.with_edge(t, h, (m1, m2, s))
                below = child.m < _bound(child) and "_laman_engine" in vars(child)
                assert is_laman_sparse(child) == is_laman_sparse(_fresh(child)) == accept, (k, n, j)
                assert ("_laman_engine" in vars(child)) == accept
                handed += below
                rejected += below and not accept
                if accept:
                    basis = child
        assert handed > 40 and rejected > 0

    @pytest.mark.parametrize("k", KS)
    def test_parent_engine_unchanged_by_its_children(self, k):
        checked = 0
        for n, cands, flags in _streams(k, length=4):
            basis = make_graph(k, n, [])
            is_laman_sparse(basis)
            before = _snapshot(vars(basis)["_laman_engine"])
            for (t, h, m1, m2, s), accept in zip(cands, flags):
                child = basis.with_edge(t, h, (m1, m2, s))
                is_laman_sparse(child)
                assert _snapshot(vars(basis)["_laman_engine"]) == before
                checked += 1
                if accept:
                    basis = child
                    before = _snapshot(vars(basis)["_laman_engine"])
        assert checked == 4 * (12 + 30)

    def test_one_insert_and_one_reach_per_handed_query(self, monkeypatch):
        inserts, reaches = _counting(monkeypatch, "insert"), _counting(monkeypatch, "reach")
        steps = 0
        for k in KS:
            for n, cands, flags in _streams(k):
                basis = make_graph(k, n, [])
                is_laman_sparse(basis)
                for (t, h, m1, m2, s), accept in zip(cands, flags):
                    child = basis.with_edge(t, h, (m1, m2, s))
                    if child.m >= _bound(child):
                        continue
                    del inserts[:], reaches[:]
                    assert is_laman_sparse(child) == accept
                    step = [(child.m - 1,)]
                    # a rejection by the memo of tight sets calls no engine
                    assert inserts == step or (inserts == [] and accept is False)
                    assert reaches in ([], step)
                    steps += 1
                    if accept:
                        basis = child
        assert steps > 100


class TestLineage:
    """Each whole-graph query continues the engine its graph keeps."""

    def test_grandchild_continues_the_grandparents_engine(self, monkeypatch):
        # No query on the middle graph: the grandchild places both edges.
        inserts, reaches = _counting(monkeypatch, "insert"), _counting(monkeypatch, "reach")
        outcomes = {True: 0, False: 0}
        for k in KS:
            for n, cands, flags in _streams(k):
                basis = make_graph(k, n, [])
                is_laman_sparse(basis)
                for (t, h, m1, m2, s), (t2, h2, *c2), accept in zip(cands, cands[1:], flags):
                    grandchild = basis.with_edge(t, h, (m1, m2, s)).with_edge(t2, h2, c2)
                    if grandchild.m < _bound(grandchild):
                        del inserts[:], reaches[:]
                        sparse = is_laman_sparse(grandchild)
                        new = [(grandchild.m - 2,), (grandchild.m - 1,)]
                        assert inserts == new[:len(inserts)] and (inserts or not sparse)
                        assert len(set(reaches)) == len(reaches) and set(reaches) <= set(inserts)
                        assert sparse <= (inserts == new)
                        assert sparse == is_laman_sparse(_fresh(grandchild))
                        outcomes[sparse] += 1
                    if accept:
                        basis = basis.with_edge(t, h, (m1, m2, s))
                        assert is_laman_sparse(basis)
        assert outcomes[True] > 100 and outcomes[False] > 40

    def test_circuit_of_a_grown_graph_places_only_the_new_edge(self, monkeypatch):
        inserts, reaches = _counting(monkeypatch, "insert"), _counting(monkeypatch, "reach")
        circuits = 0
        for k in KS:
            for n, cands, flags in _streams(k):
                basis = make_graph(k, n, [])
                is_laman_sparse(basis)
                for (t, h, m1, m2, s), accept in zip(cands, flags):
                    child = basis.with_edge(t, h, (m1, m2, s))
                    del inserts[:], reaches[:]
                    circuit = find_laman_circuit(child)
                    assert set(inserts) == {(basis.m,)} and set(reaches) <= {(basis.m,)}
                    assert circuit == find_laman_circuit(_fresh(child))
                    assert (circuit is None) == accept
                    circuits += not accept
                    if accept:
                        basis = child
        assert circuits > 100

    def test_a_proven_graph_answers_again_without_engine_calls(self, monkeypatch):
        names = ("__init__", "handed_to", "insert", "reach")
        calls = [_counting(monkeypatch, name) for name in names]
        proven = 0
        for k in KS:
            for n, cands, flags in _streams(k):
                basis = make_graph(k, n, [])
                for (t, h, m1, m2, s), accept in zip(cands, flags):
                    if accept:
                        basis = basis.with_edge(t, h, (m1, m2, s))
                        assert is_laman_sparse(basis)
                        for log in calls:
                            del log[:]
                        assert is_laman_sparse(basis) and find_laman_circuit(basis) is None
                        assert calls == [[]] * len(names)
                        proven += 1
        assert proven > 100


class TestOwnership:
    def test_a_dropped_basis_is_freed_without_the_collector(self):
        freed = []
        enabled = gc.isenabled()
        gc.disable()
        try:
            for k in KS:
                basis = _greedy_laman_basis(k, 12, random.Random(f"freed:{k}"))
                engine = vars(basis)["_laman_engine"]
                refs = [weakref.ref(basis, lambda _: freed.append("graph")),
                        weakref.ref(engine, lambda _: freed.append("engine"))]
                # queried children keep no reference to the basis's engine
                children = [basis.with_edge(0, 0, (x, 1, 0)) for x in (1, 2)]
                for child in children:
                    is_laman_sparse(child)
                del basis, engine
                assert freed == ["graph", "engine"] and refs[0]() is refs[1]() is None, k
                del freed[:]
        finally:
            if enabled:
                gc.enable()

    def test_only_with_edge_children_are_handed_an_engine(self, monkeypatch):
        rng = random.Random("own-engine")
        builds = _counting(monkeypatch, "__init__")
        queries = 0
        for k in KS:
            basis = _greedy_laman_basis(k, 12, rng)
            parent = ColoredGraph(basis.context, basis.n, basis.edges[:-3])
            is_laman_sparse(parent)
            for tail, head, color in basis.edges[-3:]:
                child = parent.with_edge(tail, head, color)
                del builds[:]
                assert is_laman_sparse(child)
                assert builds == []
                # content-equal, doubled or subset: each builds its own
                for g, subset in ((_fresh(child), None), (child, range(child.m)),
                                  (parent.with_doubled_edge(0), None)):
                    del builds[:]
                    is_laman_sparse(g, subset)
                    assert len(builds) == 1
                parent = child
                queries += 1
        assert queries == 12

    def test_no_module_level_state(self):
        # The engine lives on the graph only: the module holds no
        # container that could keep one alive.
        held = [name for name, value in vars(sparsity).items()
                if isinstance(value, (dict, list, set)) and not name.startswith("__")]
        assert held == []


def _memo(graph):
    return vars(graph)["_laman_engine"].tight


def _hits(oracle, graph, e):
    """Whether a set in ``graph``'s memo peeks edge e of ``oracle`` with
    gain 0, by a fresh scan of the set."""
    edge = oracle.tails[e], oracle.heads[e], oracle.colors[e]
    return any(oracle.counts(mask).peek(*edge)[0] == 0 for mask, _ in _memo(graph))


class TestTightMemo:
    """The tight sets a kept engine records from rejected queries, and
    the rejections they answer by one peek."""

    @pytest.mark.parametrize("k", KS)
    def test_every_memo_set_scans_tight_below_its_basis(self, k):
        seen = 0
        for n, cands, flags in _streams(k):
            basis = make_graph(k, n, [])
            is_laman_sparse(basis)
            for (t, h, m1, m2, s), accept in zip(cands, flags):
                child = basis.with_edge(t, h, (m1, m2, s))
                is_laman_sparse(child)
                oracle = SparsityOracle(basis)
                for mask, counts in _memo(basis):
                    # tight: nonempty with |T| = f(T) - 1, and its own count state
                    assert 0 < mask < 1 << basis.m
                    assert mask.bit_count() == oracle.f_mask(mask) - 1 == 2 * counts.g - 1
                    seen += 1
                if accept:
                    basis = child
        assert seen > 0

    @pytest.mark.parametrize("k", KS)
    def test_a_memo_hit_rejects_without_engine_calls(self, k, monkeypatch):
        names = ("__init__", "handed_to", "insert", "reach")
        calls = [_counting(monkeypatch, name) for name in names]
        hits = rejected = 0
        for n, cands, flags in _streams(k):
            basis = make_graph(k, n, [])
            is_laman_sparse(basis)
            for (t, h, m1, m2, s), accept in zip(cands, flags):
                child = basis.with_edge(t, h, (m1, m2, s))
                if child.m < _bound(child):
                    hit = _hits(SparsityOracle(child), basis, basis.m)
                    for log in calls:
                        del log[:]
                    sparse = is_laman_sparse(child)
                    assert sparse == accept
                    if hit:
                        assert not sparse and calls == [[]] * len(names)
                    else:
                        assert calls[2] == [(basis.m,)]
                    hits += hit
                    rejected += not accept
                if accept:
                    basis = child
        # a memo that is filled but never consulted answers none of them
        assert rejected > 0 and 2 * hits >= rejected, (hits, rejected)

    def test_a_grandchilds_set_stays_out_of_the_grandparents_memo(self):
        # Every ancestor's memo keeps to the ancestor's own edges, though
        # its accepted descendants record sets holding their new edges, and
        # a grandchild with no middle query fails on sets holding both.
        own = 0
        for k in KS:
            for n, cands, flags in _streams(k):
                lineage = [make_graph(k, n, [])]
                is_laman_sparse(lineage[0])
                for (t, h, m1, m2, s), (t2, h2, *c2), accept in zip(cands, cands[1:], flags):
                    child = lineage[-1].with_edge(t, h, (m1, m2, s))
                    is_laman_sparse(child.with_edge(t2, h2, c2))
                    is_laman_sparse(child)
                    for graph in lineage:
                        assert all(mask < 1 << graph.m for mask, _ in _memo(graph)), (k, n)
                    if accept:
                        lineage.append(child)
                for graph in lineage[1:]:
                    own += any(mask >> (graph.m - 1) & 1 for mask, _ in _memo(graph))
        assert own > 0

    @pytest.mark.parametrize("k", KS)
    def test_a_loop_of_trivial_color_records_nothing(self, k):
        for n in (1, 4):
            basis = make_graph(k, n, [(0, n - 1, (1, 0, 0))])
            is_laman_sparse(basis)
            loop = basis.with_edge(n - 1, n - 1, (0, 0, 0))
            assert not is_laman_sparse(loop) and find_laman_circuit(loop) == (1,)
            assert _memo(basis) == []
            # a parallel copy records the tight set it closes a circuit on
            assert not is_laman_sparse(basis.with_edge(0, n - 1, (1, 0, 0)))
            assert [mask for mask, _ in _memo(basis)] == [1]

    @pytest.mark.parametrize("k", KS)
    def test_tight_sets_merge_only_into_a_tight_union(self, k):
        # two edges on disjoint vertex pairs: each is tight, their union is not
        basis = make_graph(k, 4, [(0, 1, (1, 0, 0)), (2, 3, (1, 0, 0))])
        is_laman_sparse(basis)
        for tail, head in ((0, 1), (2, 3)):
            assert not is_laman_sparse(basis.with_edge(tail, head, (1, 0, 0)))
        assert [mask for mask, _ in _memo(basis)] == [0b01, 0b10]


class TestMemoCrossCheck:
    """Seeded random lineages on small graphs, with parallel copies and
    loops of trivial color, against the exhaustive verifier."""

    @pytest.mark.parametrize("k", KS)
    def test_lineages_agree_with_brute_force(self, k, monkeypatch):
        inserts = _counting(monkeypatch, "insert")
        rng = random.Random(f"memo-cross:{k}")
        hits = 0
        for _ in range(30):
            n = rng.randint(1, 7)
            basis = make_graph(k, n, [])
            is_laman_sparse(basis)
            # children of at most 8 edges: the verifier scans at most 255 subsets
            for _ in range(3 * n):
                if basis.m == 8:
                    break
                draw = rng.random()
                if draw < 0.2 and basis.m:
                    tail, head, color = rng.choice(basis.edges)
                elif draw < 0.3:
                    v = rng.randrange(n)
                    tail, head, color = v, v, (0, 0, 0)
                else:
                    tail, head = rng.randrange(n), rng.randrange(n)
                    color = (rng.randint(-1, 1), rng.randint(-1, 1), rng.randrange(k))
                child = basis.with_edge(tail, head, color)
                del inserts[:]
                sparse = is_laman_sparse(child)
                hits += child.m < _bound(child) and inserts == []
                assert sparse == brute_force_sparse(child, strict=True) == is_laman_sparse(_fresh(child))
                if sparse:
                    basis = child
        assert hits > 0
