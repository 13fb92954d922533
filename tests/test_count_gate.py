"""The count bound that decides over-count queries: f(W) <= 2n + rep for
every edge set W, so a mask of at least 2n + rep edges is not
Laman-sparse and one of more is not f-sparse.  ``is_laman_sparse`` and
``is_gamma22_sparse`` answer such masks after one count scan that
re-checks the whole mask, and build no union engine.  Checked against
brute force on small graphs, with the empty graph and empty subsets, and
by replaying the benchmark's library-free greedy streams."""

import random

import pytest

from crystal_rigidity.colored_graph import ColoredGraph, make_graph
from crystal_rigidity.generate import random_graph
from crystal_rigidity.groups import GroupContext
from crystal_rigidity.selftest import brute_force_sparse
from crystal_rigidity.sparsity import SparsityOracle, _UnionEngine, is_gamma22_sparse, is_laman_sparse
from instances import grow_reference
from laman_bases import _greedy_laman_basis, _random_edge

KS = (2, 3, 4, 6)


def _bound(g):
    return 2 * g.n + g.context.full_translation_rep


def _plus(g, count, rng):
    extra = tuple(_random_edge(g.context, g.n, rng) for _ in range(count))
    return ColoredGraph(g.context, g.n, g.edges + extra)


def _record_scans(monkeypatch):
    """The list of the masks of every count scan from now on, with the
    union engine made to raise."""
    scanned = []
    counts = SparsityOracle.counts

    def recording_counts(oracle, mask):
        scanned.append(mask)
        return counts(oracle, mask)

    def no_engine(engine, oracle):
        raise AssertionError("union engine built for an over-count mask")

    monkeypatch.setattr(SparsityOracle, "counts", recording_counts)
    monkeypatch.setattr(_UnionEngine, "__init__", no_engine)
    return scanned


class TestOverCountGate:
    def test_one_scan_of_the_whole_mask_and_no_engine(self, monkeypatch):
        rng = random.Random(700)
        # (graph, edge subset or None, extra edges over the Laman bound)
        cases = []
        for k in KS:
            for n in (12, 20):
                basis = _greedy_laman_basis(k, n, rng)
                cases += [(_plus(basis, 1, rng), None, 0), (_plus(basis, 2, rng), None, 1)]
            for _ in range(10):
                n = rng.randint(1, 8)
                over = rng.randint(0, 6)
                g = random_graph(k, n, 2 * n + GroupContext(k).full_translation_rep + over, rng)
                cases.append((g, None, over))
                # a subset of at least 2n + rep of its edges
                size = _bound(g) + rng.randint(0, over)
                cases.append((g, sorted(rng.sample(range(g.m), size)), size - _bound(g)))
        scans = _record_scans(monkeypatch)
        for g, subset, over in cases:
            mask = SparsityOracle(g).mask_of(subset)
            scans.clear()
            assert not is_laman_sparse(g, subset)
            assert scans == [mask]
            if over:
                scans.clear()
                assert not is_gamma22_sparse(g, subset)
                assert scans == [mask]

    def test_a_scan_that_misreports_the_count_raises(self, monkeypatch):
        rng = random.Random(701)
        counts = SparsityOracle.counts

        def inflated_counts(oracle, mask):
            st = counts(oracle, mask)
            st.half_rep += mask.bit_count()  # g, and so f, reads larger
            return st

        monkeypatch.setattr(SparsityOracle, "counts", inflated_counts)
        for k in KS:
            g = random_graph(k, 3, 2 * 3 + GroupContext(k).full_translation_rep + 1, rng)
            with pytest.raises(AssertionError, match="does not violate the Laman count"):
                is_laman_sparse(g)
            with pytest.raises(AssertionError, match="non-violating witness"):
                is_gamma22_sparse(g)


class TestAgainstBruteForce:
    def _graphs(self):
        """Small graphs around the bound, each with a random subset, a
        subset of exactly 2n + rep edges when there are that many, and the
        empty subset; and the empty graphs on 0-2 vertices."""
        rng = random.Random(702)
        out = []
        for k in KS:
            for n in (0, 1, 2):
                out.append((make_graph(k, n, []), None))
            for _ in range(12):
                n = rng.randint(1, 3)
                rep = GroupContext(k).full_translation_rep
                g = random_graph(k, n, rng.randint(1, 2 * n + rep + 2), rng)
                out += [(g, None), (g, []), (g, [i for i in range(g.m) if rng.random() < 0.7])]
                if g.m >= _bound(g):
                    out.append((g, sorted(rng.sample(range(g.m), _bound(g)))))
        return out

    def test_laman_sparse(self):
        at_or_over = 0
        for g, subset in self._graphs():
            want = brute_force_sparse(g, "f", strict=True, edge_subset=subset)
            assert is_laman_sparse(g, subset) == want, (g.context.k, g.n, g.edges, subset)
            at_or_over += len(range(g.m) if subset is None else subset) >= _bound(g)
        assert at_or_over > 20

    def test_gamma22_sparse(self):
        over = 0
        for g, subset in self._graphs():
            want = brute_force_sparse(g, "f", edge_subset=subset)
            assert is_gamma22_sparse(g, subset) == want, (g.context.k, g.n, g.edges, subset)
            over += len(range(g.m) if subset is None else subset) > _bound(g)
        assert over > 10

    def test_gamma22_sparse_builds_one_oracle(self, monkeypatch):
        builds = []
        init = SparsityOracle.__init__

        def counting_init(oracle, graph):
            builds.append(graph)
            init(oracle, graph)

        monkeypatch.setattr(SparsityOracle, "__init__", counting_init)
        sides = {True: 0, False: 0}
        for g, subset in self._graphs():
            builds.clear()
            is_gamma22_sparse(g, subset)
            assert builds == [g], (g.context.k, g.n, g.edges, subset)
            sides[len(range(g.m) if subset is None else subset) > _bound(g)] += 1
        assert sides[True] > 10 and sides[False] > 100


class TestLibraryFreeReference:
    """Greedy growth over the benchmark's ``grow_reference`` streams (4n
    candidates, decided by rigidity rows mod p without the library): every
    ``is_laman_sparse`` answer equals the reference flag, with the basis
    following the flags as the benchmark's ``grow`` workload does."""

    @pytest.mark.parametrize("k", KS)
    def test_every_flag(self, k):
        gated = below = 0
        for n in (12, 30):
            rng = random.Random(f"count-gate:{k}:{n}")
            cands, flags, _, _ = grow_reference(k, n, rng, length=4 * n)
            basis = make_graph(k, n, [])
            for j, ((t, h, m1, m2, s), accept) in enumerate(zip(cands, flags)):
                grown = basis.with_edge(t, h, (m1, m2, s))
                assert is_laman_sparse(grown) == accept, (k, n, j)
                gated += grown.m >= _bound(grown)
                below += grown.m < _bound(grown) and not accept
                if accept:
                    basis = grown
        assert gated > 0 and below > 0
