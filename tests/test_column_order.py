"""Exact elimination in a fill-reducing column order against the natural
order.

``realization._exact_kernel`` eliminates the direction system with its
columns in ``_column_order`` (greedy minimum degree of the quotient graph,
lattice columns last) and reads the kernel back in natural column order
(``_natural_kernel``).  Every kernel, of any dimension, must be the one
``rank_and_kernel`` gives on the system as assembled, byte for byte, and
the one of the Gauss-Jordan oracle of ``kernel_oracle``.
"""

import random
from functools import lru_cache

import pytest

from crystal_rigidity import realization as rz
from crystal_rigidity.colored_graph import make_graph, parse_graph
from crystal_rigidity.generate import random_graph
from instances import grow_reference
from kernel_oracle import gauss_jordan_rank_and_kernel
from test_cli import DIM1, UNDER3

BOUND = 10**9


def natural_kernel(g, directions):
    system = rz.assemble_direction_system(g, directions)
    return rz.rank_and_kernel(system.rows, system.ncols)[1]


def oracle_kernel(g, directions):
    system = rz.assemble_direction_system(g, directions)
    return gauss_jordan_rank_and_kernel(system.rows, system.ncols)[1]


def assert_same_kernel(g, directions, label, oracle=True, last=()):
    got = rz._exact_kernel(g, directions, last)
    want = natural_kernel(g, directions)
    # byte for byte: the same rows, entries and key order
    assert repr(got) == repr(want), label
    if oracle:
        assert got == oracle_kernel(g, directions), label
    return got


@lru_cache(maxsize=None)
def variants(k, n):
    """(label, graph, expected kernel dimension) of the ``grow_reference``
    basis at (k, n), the basis plus its first rejected candidate that is
    not a loop of trivial color (whose direction row is zero), and the basis
    minus two seeded edges."""
    rng = random.Random(f"column-order:{k}:{n}")
    cands, flags, _, _ = grow_reference(k, n, rng)
    basis = [(t, h, (m1, m2, s)) for (t, h, m1, m2, s), ok in zip(cands, flags) if ok]
    t, h, m1, m2, s = next(e for e, ok in zip(cands, flags) if not ok and (e[0] != e[1] or any(e[2:])))
    dropped = set(rng.sample(range(len(basis)), 2))
    return (
        ("basis", make_graph(k, n, basis), 1),
        ("basis+1", make_graph(k, n, basis + [(t, h, (m1, m2, s))]), 0),
        ("basis-2", make_graph(k, n, [e for i, e in enumerate(basis) if i not in dropped]), 3),
    )


class TestColumnOrder:
    def test_a_permutation_with_the_lattice_columns_last(self):
        rng = random.Random("column-order-perm")
        for trial in range(40):
            k = (2, 3, 4, 6)[trial % 4]
            n = rng.randint(1, 12)
            g = random_graph(k, n, rng.randint(0, 3 * n), rng)
            order = rz._column_order(g)
            ncols = rz._ncols(g)
            assert sorted(order) == list(range(ncols)), trial
            assert order[2 * n :] == list(range(2 * n, ncols)), trial
            # the two point columns of a vertex are adjacent, x first
            assert all(order[i] % 2 == 0 and order[i + 1] == order[i] + 1 for i in range(0, 2 * n, 2)), trial

    def test_minimum_degree_with_fill(self):
        # Degrees 2, 2, 1, 3, 4, 2 (a loop and a parallel edge add none).
        # Vertex 2 goes first, then 0 and 1, the lowest of degree 2; 1 joins
        # 4 and 5, so 3, 4 and 5 tie at degree 2 and 3 goes before 4, which
        # without that fill would have degree 1 and go first.
        pairs = [(0, 3), (0, 4), (1, 4), (1, 5), (2, 4), (3, 4), (3, 5), (3, 3), (4, 3)]
        g = make_graph(3, 6, [(a, b, (i % 2, 0, 0)) for i, (a, b) in enumerate(pairs)])
        assert rz._column_order(g)[:12:2] == [4, 0, 2, 6, 8, 10]
        # A star with centre 0 and four leaves: the leaves go first until
        # the centre ties with the last one, and the lower vertex wins.
        star = make_graph(4, 5, [(0, i, (0, 0, 0)) for i in (1, 2, 3, 4)])
        assert rz._column_order(star)[:10:2] == [2, 4, 6, 0, 8]

    def test_edgeless_graph_keeps_the_natural_order(self):
        g = make_graph(6, 5, [])
        assert rz._column_order(g) == list(range(rz._ncols(g)))


class TestAgainstTheNaturalOrder:
    @pytest.mark.parametrize("k", [2, 3, 4, 6])
    @pytest.mark.parametrize("n", [20, 60])
    def test_grown_bases(self, k, n):
        for label, g, dim in variants(k, n):
            d = rz.random_directions(g, n, BOUND)
            assert len(assert_same_kernel(g, d, (k, n, label))) == dim, (k, n, label)

    @pytest.mark.parametrize("k", [2, 3, 4, 6])
    def test_grown_bases_at_n_120(self, k):
        # directions at the default bound, to keep the oracle quick
        for label, g, dim in variants(k, 120):
            d = rz.random_directions(g, 120, 100)
            assert len(assert_same_kernel(g, d, (k, label))) == dim, (k, label)

    def test_render_fallback_graphs_and_an_edgeless_graph(self):
        for text, dim in ((UNDER3, 3), (DIM1, 1)):
            g = parse_graph(text)
            for seed in range(5):
                d = rz.random_directions(g, seed, 100)
                assert len(assert_same_kernel(g, d, (text, seed))) == dim
        g = make_graph(3, 40, [])
        kernel = assert_same_kernel(g, [], "edgeless")
        assert kernel == [{j: (1, 0)} for j in range(rz._ncols(g))]

    def test_seeded_random_graphs(self):
        rng = random.Random("column-order-random")
        dims = set()
        for trial in range(300):
            k = (2, 3, 4, 6)[trial % 4]
            n = rng.randint(1, 7)
            g = random_graph(k, n, rng.randint(0, 2 * n + 6), rng, rng.choice((0, 1, 2)))
            for bound in (8, 100):
                d = rz.random_directions(g, rng.randrange(1 << 31), bound)
                dims.add(len(assert_same_kernel(g, d, (trial, bound))))
                # any columns moved last, free or not, and the free columns
                # of the natural order mod P
                moved = rng.sample(range(rz._ncols(g)), rng.randint(1, 4))
                assert_same_kernel(g, d, (trial, bound, moved), oracle=False, last=moved)
                free = rz._decide_mod_p(g, rz._covectors(g, d))[1]
                assert_same_kernel(g, d, (trial, bound, free), oracle=False, last=free)
        assert {0, 1, 2, 3, 4} <= dims

    def test_realize_reads_the_natural_kernel(self):
        for label, g, dim in variants(3, 20):
            d = rz.random_directions(g, 7, BOUND)
            result = rz.realize(g, d)
            if dim == 1:
                (row,) = natural_kernel(g, d)
                assert result == rz.realization_from_vector(g, rz._quotients(row, rz._ncols(g), min(row)))
            else:
                assert result.kernel == tuple(natural_kernel(g, d)), label

    def test_realize_eliminates_the_natural_kernel_rows(self, monkeypatch):
        # ``realize`` decides these systems mod P and puts the free columns
        # of the natural order mod P last: the rows the ordered elimination
        # returns are the natural kernel already, and the read-back only
        # sorts them, clearing and rescaling none.
        read_back = []
        natural = rz._natural_kernel

        def recording(rows):
            given = sorted([dict(row) for row in rows], key=max)
            got = natural(rows)
            read_back.append(given == got)
            return got

        monkeypatch.setattr(rz, "_natural_kernel", recording)
        for k in (2, 3, 4, 6):
            for n in (20, 60):
                label, g, dim = variants(k, n)[2]
                d = rz.random_directions(g, n, BOUND)
                read_back.clear()
                assert rz.realize(g, d).kernel == tuple(natural_kernel(g, d)), (k, n)
                assert read_back == [True], (k, n)
