"""The union engine's exchange arcs, read from per-side forest state,
against the probe loop on every query; and the contraction lemma and the
matroid properties of the counts, as hypothesis properties."""

import random

from hypothesis import given, settings, strategies as st

from crystal_rigidity.colored_graph import ColoredGraph
from crystal_rigidity.generate import random_graph
from crystal_rigidity.sparsity import (
    SparsityOracle,
    _SideState,
    find_laman_circuit,
    is_laman_sparse,
    union_certificate,
)

from probe_oracle import CheckedQueries
from test_laman_circuit import _greedy_laman_basis, _random_edge


class TestAgainstProbeLoop:
    def test_seeded_random_graphs(self, monkeypatch):
        checked = CheckedQueries(monkeypatch)
        rng = random.Random(610)
        for k in (2, 3, 4, 6):
            for _ in range(40):
                n = rng.randint(1, 7)
                g = random_graph(k, n, rng.randint(0, 2 * n + 6), rng)
                is_laman_sparse(g)
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
            is_laman_sparse(g)
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


def _independent_side(oracle, rng):
    """A random g-independent edge mask, grown greedily in random order."""
    order = list(range(oracle.graph.m))
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
