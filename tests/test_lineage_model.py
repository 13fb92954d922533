"""A stateful model of the union engine a graph keeps from a Laman pass
(``sparsity._laman_pass``), which ``with_edge`` hands on to its children.

Hypothesis grows trees of graphs from empty ones: each step appends a
random edge, a parallel copy of an edge or a loop of trivial color to any
live graph, queries ``is_laman_sparse`` or ``find_laman_circuit`` on any
live graph (the whole graph or an edge subset), asks an ancestor again
after its descendants were queried, or drops a graph.  The kept engines,
their handoff copies and the tight-set memo the siblings share are the
state under test; every answer must equal the answer on a fresh copy of
the graph, which keeps no engine, and the exhaustive ``brute_force_sparse``
whenever the edges asked about are few enough."""

from hypothesis import settings, strategies as st
from hypothesis.stateful import Bundle, RuleBasedStateMachine, consumes, multiple, rule

from crystal_rigidity.colored_graph import ColoredGraph, make_graph
from crystal_rigidity.selftest import brute_force_sparse
from crystal_rigidity.sparsity import find_laman_circuit, is_laman_sparse

KS = (2, 3, 4, 6)
BRUTE_MAX = 8  # the brute force scans 2^m submasks
MAX_M = 12


def _fresh(g):
    return ColoredGraph(g.context, g.n, g.edges)


def _brute(g, subset):
    return brute_force_sparse(g, strict=True, edge_subset=subset)


class LineageMachine(RuleBasedStateMachine):
    graphs = Bundle("graphs")

    @rule(target=graphs, k=st.sampled_from(KS), n=st.integers(1, 4))
    def empty(self, k, n):
        return make_graph(k, n, [])

    def _child(self, g, data):
        kind = data.draw(st.sampled_from(("random", "parallel", "loop")))
        if kind == "parallel" and g.m:
            e = g.edges[data.draw(st.integers(0, g.m - 1))]
            return g.with_edge(e.tail, e.head, e.color)
        if kind == "loop":
            v = data.draw(st.integers(0, g.n - 1))
            return g.with_edge(v, v, (0, 0, 0))
        tail, head = (data.draw(st.integers(0, g.n - 1)) for _ in range(2))
        t1, t2 = (data.draw(st.integers(-1, 1)) for _ in range(2))
        return g.with_edge(tail, head, (t1, t2, data.draw(st.integers(0, g.context.k - 1))))

    def _subset(self, g, data):
        if g.m == 0 or data.draw(st.booleans()):
            return None
        return sorted(data.draw(st.sets(st.integers(0, g.m - 1))))

    def _check_sparse(self, g, subset):
        got = is_laman_sparse(g, subset)
        assert got == is_laman_sparse(_fresh(g), subset)
        if (g.m if subset is None else len(subset)) <= BRUTE_MAX:
            assert got == _brute(_fresh(g), subset)

    def _check_circuit(self, g, subset):
        got = find_laman_circuit(g, subset)
        fresh = _fresh(g)
        assert got == find_laman_circuit(fresh, subset)
        edges = list(range(g.m)) if subset is None else subset
        if len(edges) > BRUTE_MAX:
            return
        assert (got is None) == _brute(fresh, subset)
        if got is not None:
            # the circuit of the shortest non-sparse prefix: not sparse,
            # sparse without any one edge, and sparse below its last edge
            assert set(got) <= set(edges) and not _brute(fresh, got)
            for e in got:
                assert _brute(fresh, [x for x in got if x != e])
            assert _brute(fresh, [x for x in edges if x < max(got)])

    @rule(target=graphs, g=graphs, data=st.data())
    def with_edge(self, g, data):
        return self._child(g, data) if g.m < MAX_M else multiple()

    @rule(g=graphs, data=st.data())
    def ask_sparse(self, g, data):
        self._check_sparse(g, self._subset(g, data))

    @rule(g=graphs, data=st.data())
    def ask_circuit(self, g, data):
        self._check_circuit(g, self._subset(g, data))

    @rule(target=graphs, g=graphs, depth=st.integers(1, 3), data=st.data())
    def descendants_then_ancestor(self, g, depth, data):
        chain = [g]
        while len(chain) <= depth and chain[-1].m < MAX_M:
            chain.append(self._child(chain[-1], data))
        # top down, each child continues its parent's engine; bottom up,
        # the deepest places every edge past the ancestor's prefix
        for d in chain[1:] if data.draw(st.booleans()) else reversed(chain[1:]):
            ask = self._check_circuit if data.draw(st.booleans()) else self._check_sparse
            ask(d, None)
        self._check_sparse(g, None)
        return multiple(*chain[1:])

    @rule(g=consumes(graphs))
    def drop(self, g):
        """No later step picks ``g``; an engine it kept lives on only in
        the children it was handed to."""


LineageMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None, derandomize=True, database=None,
)
TestLineageModel = LineageMachine.TestCase
