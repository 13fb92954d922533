"""The g-circuit: its brute-force specification and the single count pass."""

import random

from crystal_rigidity import sparsity
from crystal_rigidity.generate import random_graph
from crystal_rigidity.sparsity import brute_force_sparse, find_g_circuit


def _independent(g, subset):
    return brute_force_sparse(g, "g", edge_subset=subset)


def _brute_force_circuit(g, subset):
    """The unique g-circuit of the shortest dependent prefix of the
    subset (in index order), by exhaustive enumeration alone, or None."""
    ground = sorted(subset)
    end = next((j for j in range(1, len(ground) + 1) if not _independent(g, ground[:j])), None)
    if end is None:
        return None
    prefix = ground[:end]
    # An element whose removal makes the prefix independent is in every
    # circuit of it; if those elements are themselves a circuit, it is the
    # only one.
    core = tuple(x for x in prefix if _independent(g, [y for y in prefix if y != x]))
    assert not _independent(g, core)
    for x in core:
        assert _independent(g, [y for y in core if y != x])
    return core


class TestBruteForceSpecification:
    def test_circuit_of_the_shortest_dependent_prefix(self):
        rng = random.Random(70)
        dependent = 0
        for _ in range(300):
            g = random_graph(rng.choice([2, 3, 4, 6]), rng.randint(1, 4), rng.randint(0, 10), rng)
            expected = _brute_force_circuit(g, range(g.m))
            assert find_g_circuit(g) == expected, (g.context.k, g.n, g.edges)
            dependent += expected is not None
        assert 100 < dependent < 300  # both outcomes exercised

    def test_edge_subset_is_its_own_ground_set(self):
        rng = random.Random(71)
        for _ in range(100):
            g = random_graph(rng.choice([2, 3, 4, 6]), rng.randint(1, 3), rng.randint(1, 10), rng)
            subset = [i for i in range(g.m) if rng.random() < 0.7]
            assert find_g_circuit(g, subset) == _brute_force_circuit(g, subset)


class TestSinglePass:
    def test_one_scan_at_the_input_limit(self, monkeypatch):
        # gen 2 500 2000 --seed 1: the only full count scan is the final
        # re-check of the circuit.
        g = random_graph(2, 500, 2000, random.Random(1))
        scans = []
        original_counts = sparsity.SparsityOracle.counts

        def counting_counts(self, mask):
            scans.append(mask)
            return original_counts(self, mask)

        monkeypatch.setattr(sparsity.SparsityOracle, "counts", counting_counts)
        c = find_g_circuit(g)
        monkeypatch.undo()
        assert c is not None
        assert scans == [sum(1 << e for e in c)]
        assert not _independent(g, c)
