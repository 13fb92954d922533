"""The exchange-graph closure that decides Laman sparsity, against the
per-edge pass of ``pass_oracle``: the same decisions, circuits and kept
sides on seeded random graphs and on greedy bases with an edge more or two
fewer; every nonempty unreached set tight, and nonempty exactly when the
graph is not Laman-sparse; and the closure's chains as a LAMAN
certificate that count scans re-check."""

import random

import pytest

from crystal_rigidity import sparsity
from crystal_rigidity.colored_graph import ColoredGraph
from crystal_rigidity.generate import random_graph
from crystal_rigidity.groups import GroupContext
from crystal_rigidity.sparsity import (
    SparsityOracle,
    _check_chains,
    _closure,
    _edges_of,
    _union_run,
    count_report,
    find_laman_circuit,
    is_laman_sparse,
)

import pass_oracle
from laman_bases import _greedy_laman_basis, _random_edge


def _fresh(g):
    return ColoredGraph(g.context, g.n, g.edges)


def _against_oracle(g):
    """Asserts the library's circuit, decision and kept sides equal the
    per-edge pass's; returns the decision."""
    want, engine = pass_oracle.laman_pass(g)
    got = _fresh(g)
    circuit = find_laman_circuit(got)
    assert circuit == (_edges_of(want) if want else None), (g.context.k, g.n, g.edges)
    proved = _fresh(g)
    sparse = is_laman_sparse(proved)
    assert sparse == (not want)
    if not want:
        assert vars(got)["_laman_engine"].sides == engine.sides
        assert vars(proved)["_laman_engine"].sides == engine.sides
    return sparse


def _closed(g):
    """(oracle, engine, unreached mask, chains) of a union run over all of
    g and its closure, or None if g is not f-sparse."""
    oracle = SparsityOracle(g)
    engine, failed = _union_run(oracle, oracle.full_mask)
    if failed:
        return None
    return (oracle, engine) + _closure(engine)


def _random_graphs(seed, count):
    rng = random.Random(seed)
    for i in range(count):
        k = (2, 3, 4, 6)[i % 4]
        n = rng.randint(1, 7)
        m = rng.randint(0, 2 * n + GroupContext(k).full_translation_rep + 4)
        yield random_graph(k, n, m, rng, color_bound=rng.choice((0, 1, 2)))


def _varied_bases(seed, sizes):
    """Greedy bases and, per basis, two fewer edges and one edge more:
    first, in the middle, at a random position and last."""
    rng = random.Random(seed)
    for k in (2, 3, 4, 6):
        for n in sizes:
            basis = _greedy_laman_basis(k, n, rng)
            edges = list(basis.edges)
            minus = list(edges)
            for _ in range(2):
                del minus[rng.randrange(len(minus))]
            extra = _random_edge(basis.context, n, rng)
            positions = (0, len(edges) // 2, rng.randrange(len(edges) + 1), len(edges))
            yield basis
            yield ColoredGraph(basis.context, n, tuple(minus))
            for i in positions:
                yield ColoredGraph(basis.context, n, tuple(edges[:i] + [extra] + edges[i:]))


class TestAgainstThePerEdgePass:
    def test_seeded_random_graphs(self):
        outcomes = {True: 0, False: 0}
        for g in _random_graphs(700, 3200):
            outcomes[_against_oracle(g)] += 1
        assert outcomes[True] > 1000 and outcomes[False] > 1000

    def test_bases_with_an_edge_more_or_two_fewer(self):
        sparse = 0
        for g in _varied_bases(701, (20, 40)):
            sparse += _against_oracle(g)
        assert sparse == 4 * 2 * 2

    @pytest.mark.parametrize("k", (2, 3))
    def test_bases_at_n_120(self, k):
        rng = random.Random(702 + k)
        basis = _greedy_laman_basis(k, 120, rng)
        edges = list(basis.edges)
        extra = _random_edge(basis.context, basis.n, rng)
        for i in (0, len(edges) // 2, rng.randrange(len(edges)), len(edges)):
            _against_oracle(ColoredGraph(basis.context, basis.n, tuple(edges[:i] + [extra] + edges[i:])))


class TestUnreachedSet:
    def test_tight_and_nonempty_exactly_when_not_sparse(self):
        nonempty = 0
        for g in _random_graphs(703, 2400):
            closed = _closed(g)
            if closed is None:
                continue
            oracle, engine, unreached, _ = closed
            assert bool(unreached) == (not is_laman_sparse(_fresh(g)))
            if unreached:
                report = count_report(g, _edges_of(unreached))
                assert report.m == report.f
                nonempty += 1
        assert nonempty > 200

    def test_it_is_the_witness_of_is_laman_sparse(self):
        witnesses = 0
        for g in _random_graphs(704, 1600):
            closed = _closed(g)
            if closed is None or not 1 < g.m < 2 * g.n + g.context.full_translation_rep:
                continue
            assert sparsity._laman_pass(_fresh(g), None, True) == closed[2]
            witnesses += bool(closed[2])
        assert witnesses > 80

    def test_it_holds_the_circuit_of_the_shortest_non_sparse_prefix(self):
        held = 0
        for g in _varied_bases(705, (20,)):
            closed = _closed(ColoredGraph(g.context, g.n, g.edges[:-1]))
            circuit = find_laman_circuit(_fresh(g))
            if circuit is not None and max(circuit) < g.m - 1:
                assert sum(1 << x for x in circuit) & ~closed[2] == 0
                held += 1
        assert held >= 8


class TestLamanCertificate:
    def test_chains_recheck_on_seeded_graphs_and_bases(self):
        checked = longest = 0
        graphs = list(_random_graphs(706, 800)) + [
            g for g in _varied_bases(707, (20, 40, 60)) if g.m < 2 * g.n + g.context.full_translation_rep]
        for g in graphs:
            closed = _closed(g)
            if closed is None or closed[2]:
                continue
            oracle, engine, _, toward = closed
            assert set(toward) == set(range(g.m))
            _check_chains(oracle, engine.sides, toward)
            checked += 1
            longest = max([longest] + [level for level, _ in toward.values()])
        assert checked > 400 and longest >= 3

    def test_a_broken_chain_fails_the_recheck(self):
        broken = 0
        for g in _varied_bases(708, (20,)):
            closed = _closed(g)
            if closed is None or closed[2]:
                continue
            oracle, engine, _, toward = closed
            # a chain cut short: an edge that needs an exchange, and is on
            # no other edge's chain, claimed free; only the scans see it
            inner = {nxt for _, nxt in toward.values()}
            x = next(x for x, (level, _) in toward.items() if level > 0 and x not in inner)
            bad = dict(toward)
            bad[x] = (0, None)
            with pytest.raises(AssertionError, match="dependent side"):
                _check_chains(oracle, engine.sides, bad)
            broken += 1
        assert broken >= 4
