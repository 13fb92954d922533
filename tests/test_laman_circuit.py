"""The Laman circuit: its brute-force specification, a cross-check against
the counts at scale, and the single union-engine pass that
``find_laman_circuit`` and ``is_laman_sparse`` share."""

import random

from crystal_rigidity import sparsity
from crystal_rigidity.colored_graph import ColoredGraph
from crystal_rigidity.generate import random_graph
from crystal_rigidity.groups import GroupContext
from crystal_rigidity.sparsity import (
    brute_force_sparse,
    count_report,
    find_laman_circuit,
    is_laman_sparse,
)
from laman_bases import _greedy_laman_basis, _random_edge


def _sparse(g, subset):
    return brute_force_sparse(g, "f", strict=True, edge_subset=subset)


def _brute_force_circuit(g):
    """The unique minimal non-sparse subset of the shortest non-sparse
    prefix, by exhaustive enumeration alone, or None if g is sparse."""
    end = next((j for j in range(1, g.m + 1) if not _sparse(g, range(j))), None)
    if end is None:
        return None
    prefix = range(end)
    # Every minimal non-sparse subset of the prefix holds each element
    # whose removal makes the prefix sparse.  If those elements are
    # themselves a minimal non-sparse set, it is the only one.
    core = tuple(x for x in prefix if _sparse(g, [y for y in prefix if y != x]))
    assert not _sparse(g, core)
    for x in core:
        assert _sparse(g, [y for y in core if y != x])
    return core


class TestBruteForceSpecification:
    def test_circuit_of_the_shortest_non_sparse_prefix(self):
        rng = random.Random(60)
        non_sparse = 0
        for _ in range(300):
            g = random_graph(rng.choice([2, 3, 4, 6]), rng.randint(1, 4), rng.randint(0, 10), rng)
            expected = _brute_force_circuit(g)
            assert find_laman_circuit(g) == expected, (g.context.k, g.n, g.edges)
            non_sparse += expected is not None
        assert non_sparse > 100  # both outcomes exercised

    def test_edge_subset_is_its_own_ground_set(self):
        rng = random.Random(61)
        for _ in range(60):
            g = random_graph(rng.choice([2, 3, 4, 6]), rng.randint(1, 3), rng.randint(1, 9), rng)
            subset = [i for i in range(g.m) if rng.random() < 0.7]
            c = find_laman_circuit(g, subset)
            if c is None:
                assert _sparse(g, subset)
                continue
            assert set(c) <= set(subset)
            prefix = [i for i in subset if i <= max(c)]
            assert _sparse(g, prefix[:-1]) and not _sparse(g, prefix)


class TestScaleCrossCheck:
    def test_basis_plus_one_edge(self):
        # The circuit comes from one union-engine pass; every claim about it
        # is checked by the counts and by ``is_laman_sparse`` on subsets.
        rng = random.Random(62)
        for k, n in ((2, 20), (3, 21), (4, 20), (6, 22)):
            basis = _greedy_laman_basis(k, n, rng)
            assert find_laman_circuit(basis) is None
            edges = list(basis.edges)
            at = rng.randrange(len(edges) + 1)
            edges.insert(at, _random_edge(basis.context, n, rng))
            g = ColoredGraph(basis.context, n, tuple(edges))
            c = find_laman_circuit(g)
            assert c is not None and at in c
            report = count_report(g, c)
            assert report.m >= report.f
            for e in c:
                assert is_laman_sparse(g, [x for x in c if x != e]), (k, e)


class TestSinglePass:
    def test_one_insertion_pair_per_edge_and_no_shrink(self, monkeypatch):
        g = random_graph(3, 40, 81, random.Random(63))
        calls = {"insert": [], "reach": []}

        def counting(name):
            original = getattr(sparsity._UnionEngine, name)

            def wrapped(self, edge):
                calls[name].append(edge)
                return original(self, edge)

            return wrapped

        for name in calls:
            monkeypatch.setattr(sparsity._UnionEngine, name, counting(name))
        c = find_laman_circuit(g)
        assert c is not None
        assert len(calls["insert"]) <= g.m and len(calls["reach"]) <= g.m
        monkeypatch.undo()
        report = count_report(g, c)
        assert report.m >= report.f

    def test_is_laman_sparse_runs_the_circuit_pass(self, monkeypatch):
        # Below the count gate, a query from nothing places and doubles
        # the edges in the order of the circuit pass and stops where it
        # does: at the last edge of the circuit.
        rng = random.Random(64)
        graphs = []
        for k in (2, 3, 4, 6):
            for n in (6, 12):
                basis = _greedy_laman_basis(k, n, rng)
                edges = list(basis.edges)
                del edges[rng.randrange(len(edges))]
                del edges[rng.randrange(len(edges))]
                edges.insert(rng.randrange(len(edges) + 1), _random_edge(basis.context, n, rng))
                graphs += [basis, ColoredGraph(basis.context, n, tuple(edges))]
            for _ in range(20):
                n = rng.randint(1, 7)
                bound = 2 * n + GroupContext(k).full_translation_rep
                m = rng.randint(bound // 2, bound - 1)
                graphs.append(random_graph(k, n, m, rng, color_bound=rng.randint(0, 1)))
        calls = []

        def logging(name):
            original = getattr(sparsity._UnionEngine, name)

            def wrapped(self, edge):
                calls.append((name, edge))
                return original(self, edge)

            return wrapped

        for name in ("insert", "reach"):
            monkeypatch.setattr(sparsity._UnionEngine, name, logging(name))
        outcomes = {True: 0, False: 0}
        for g in graphs:
            fresh = ColoredGraph(g.context, g.n, g.edges)
            calls.clear()
            sparse = is_laman_sparse(fresh)
            queried = list(calls)
            calls.clear()
            circuit = find_laman_circuit(ColoredGraph(g.context, g.n, g.edges))
            assert queried == calls, (g.context.k, g.n, g.edges)
            assert sparse == (circuit is None)
            if circuit is not None:
                assert max(edge for _, edge in queried) == max(circuit)
            outcomes[sparse] += 1
        assert outcomes[True] > 40 and outcomes[False] > 30
