"""Counting functions, union oracle, Laman family, circuits, decomposition."""

import random

import pytest

from crystal_rigidity.colored_graph import make_graph, rho_of_fundamental_path, spanning_forest
from crystal_rigidity.generate import random_graph
from crystal_rigidity.selftest import counts_via_invariants
from crystal_rigidity.sparsity import (
    brute_force_sparse,
    count_report,
    decompose11,
    find_g_circuit,
    find_laman_circuit,
    gc11_spanning_subgraph,
    gen_cone11_rank,
    is_gamma11_counts,
    is_gamma11_structural,
    is_gamma22,
    is_gamma22_sparse,
    is_gen_cone11,
    is_laman,
    is_laman_sparse,
    union_certificate,
)

ROT = (0, 0, 1)
TR1 = (1, 0, 0)
TR2 = (0, 1, 0)
ROT_T = (1, 0, 1)

LAMAN3 = make_graph(3, 1, [(0, 0, ROT), (0, 0, TR1), (0, 0, ROT_T)])
G22_3 = make_graph(3, 1, [(0, 0, ROT), (0, 0, ROT_T), (0, 0, TR1), (0, 0, TR2)])
TRANS3 = make_graph(3, 1, [(0, 0, TR1), (0, 0, TR2), (0, 0, (1, 1, 0))])


class TestCounts:
    def test_examples(self):
        r = count_report(make_graph(3, 1, [(0, 0, ROT)]))
        assert (r.f, r.g, r.h) == (2, 1, 1)
        r = count_report(make_graph(3, 1, [(0, 0, TR1), (0, 0, TR2)]))
        assert (r.f, r.g, r.h) == (2, 1, 1)
        tree = make_graph(3, 4, [(0, 1, (0, 0, 0)), (1, 2, (0, 0, 0)), (2, 3, (0, 0, 0))])
        assert count_report(tree).g == 3

    def test_identities_on_random_graphs(self):
        rng = random.Random(40)
        for _ in range(150):
            g = random_graph(rng.choice([2, 3, 4, 6]), rng.randint(1, 5), rng.randint(0, 10), rng)
            r = count_report(g)
            assert r.f == 2 * r.g
            assert r.h == r.f - 1
            assert r.m == g.m
            assert r.f == 2 * g.n + r.rep - sum(c.t for c in r.components)

    def test_matches_invariant_route(self):
        rng = random.Random(41)
        for _ in range(100):
            g = random_graph(rng.choice([2, 3, 4, 6]), rng.randint(1, 5), rng.randint(0, 10), rng)
            r = count_report(g)
            assert counts_via_invariants(g) == (r.f, r.g, r.h, r.h_prime)

    def test_subset_counts(self):
        r = count_report(TRANS3, [0, 1])
        assert r.m == 2 and r.f == 2

    def test_isolated_vertices_are_neutral(self):
        g1 = make_graph(3, 1, [(0, 0, ROT)])
        g2 = make_graph(3, 4, [(0, 0, ROT)])
        assert count_report(g1).g + 0 == count_report(g2).g
        assert count_report(g2).f == count_report(g1).f


def g_independent(g, edge_subset=None):
    """Independence in the matroid with rank function g."""
    report = count_report(g, edge_subset)
    return report.m == report.g


class TestIndependence:
    def test_examples(self):
        assert not g_independent(make_graph(3, 1, [(0, 0, (0, 0, 0))]))
        assert g_independent(make_graph(3, 1, [(0, 0, ROT)]))
        par = make_graph(3, 2, [(0, 1, ROT_T), (0, 1, ROT_T)])
        assert not g_independent(par)

    def test_independence_matches_rank(self):
        # |A| = g(A) exactly when every nonempty subset A' has |A'| <= g(A')
        rng = random.Random(42)
        for _ in range(100):
            g = random_graph(rng.choice([2, 3, 4, 6]), rng.randint(1, 4), rng.randint(0, 8), rng)
            subset = [i for i in range(g.m) if rng.random() < 0.6]
            assert g_independent(g, subset) == brute_force_sparse(g, "g", edge_subset=subset)


class TestUnionOracle:
    def test_examples(self):
        assert union_certificate(G22_3).partition is not None
        cert = union_certificate(TRANS3)
        assert cert.violating == (0, 1, 2)
        assert union_certificate(make_graph(3, 2, [])).partition == ((), ())

    def test_partition_parts_are_independent(self):
        rng = random.Random(43)
        for _ in range(120):
            g = random_graph(rng.choice([2, 3, 4, 6]), rng.randint(1, 4), rng.randint(0, 10), rng)
            cert = union_certificate(g)
            if cert.partition is not None:
                x, y = cert.partition
                assert sorted(x + y) == list(range(g.m))
                assert g_independent(g, x) and g_independent(g, y)
            else:
                w = cert.violating
                r = count_report(g, w)
                assert len(w) > r.f
                assert len(w) > 2 * r.g

    def test_gamma22_examples(self):
        assert is_gamma22(G22_3)
        big2 = make_graph(2, 1, [(0, 0, TR1), (0, 0, TR2), (0, 0, ROT),
                                 (0, 0, (1, 0, 1)), (0, 0, (0, 1, 1)), (0, 0, (1, 1, 1))])
        assert big2.m == 2 * 1 + 4
        assert is_gamma22(big2) == brute_force_sparse(big2, "f")
        loop = make_graph(3, 1, [(0, 0, (0, 0, 0))])
        assert not is_gamma22_sparse(loop)


class TestLaman:
    def test_examples(self):
        assert is_laman(LAMAN3)
        assert not is_laman(make_graph(3, 1, [(0, 0, ROT), (0, 0, TR1), (0, 0, TR2)]))
        empty = make_graph(3, 1, [])
        assert not is_laman(empty) and is_laman_sparse(empty)

    def test_doubling_equivalence_fresh_runs(self):
        # cross-check the warm-started doubling oracle against fresh
        # per-edge doubled graphs decided independently
        rng = random.Random(44)
        for _ in range(60):
            g = random_graph(rng.choice([2, 3, 4, 6]), rng.randint(1, 3), rng.randint(0, 7), rng)
            expected = all(
                is_gamma22_sparse(g.with_doubled_edge(i)) for i in range(g.m)
            ) and is_gamma22_sparse(g)
            assert is_laman_sparse(g) == expected

    def test_doubled_brute_force_equivalence_small(self):
        rng = random.Random(45)
        for _ in range(40):
            g = random_graph(rng.choice([2, 3, 4, 6]), rng.randint(1, 3), rng.randint(1, 6), rng)
            doubled_brute = all(
                brute_force_sparse(g.with_doubled_edge(i), "f") for i in range(g.m)
            )
            assert brute_force_sparse(g, "f", strict=True) == doubled_brute

    def test_laman_iff_doubling_gamma22(self):
        rng = random.Random(46)
        for _ in range(40):
            k = rng.choice([2, 3, 4, 6])
            n = rng.randint(1, 3)
            rep = 4 if k == 2 else 2
            g = random_graph(k, n, 2 * n + rep - 1, rng)
            expected = all(is_gamma22(g.with_doubled_edge(i)) for i in range(g.m))
            assert is_laman(g) == expected


class TestCircuits:
    def test_translation_circuit_is_a_pair(self):
        c = find_laman_circuit(TRANS3)
        assert c is not None and len(c) == 2
        assert not brute_force_sparse(TRANS3, "f", strict=True, edge_subset=c)
        for e in c:
            rest = tuple(x for x in c if x != e)
            assert brute_force_sparse(TRANS3, "f", strict=True, edge_subset=rest)

    def test_laman_graph_has_no_circuit(self):
        assert find_laman_circuit(LAMAN3) is None

    def test_doubled_laman_circuit_contains_double(self):
        g = LAMAN3.with_doubled_edge(1)
        c = find_laman_circuit(g)
        assert c is not None and (1 in c or 3 in c)

    def test_circuit_minimality_random(self):
        rng = random.Random(47)
        for _ in range(60):
            g = random_graph(rng.choice([2, 3, 4, 6]), rng.randint(1, 3), rng.randint(0, 8), rng)
            c = find_laman_circuit(g)
            if c is None:
                assert is_laman_sparse(g)
                continue
            assert not is_laman_sparse(g, c)
            for e in c:
                rest = tuple(x for x in c if x != e)
                if rest:
                    assert is_laman_sparse(g, rest)

    def test_g_circuit(self):
        par = make_graph(3, 2, [(0, 1, ROT_T), (0, 1, ROT_T)])
        assert find_g_circuit(par) == (0, 1)
        # a Laman graph exceeds the g-matroid rank by one, so its whole edge
        # set is the minimal dependent set here
        assert find_g_circuit(LAMAN3) == (0, 1, 2)
        assert find_g_circuit(make_graph(3, 1, [(0, 0, ROT)])) is None

    def test_g_circuit_minimality_random(self):
        rng = random.Random(48)
        for _ in range(60):
            g = random_graph(rng.choice([2, 3, 4, 6]), rng.randint(1, 3), rng.randint(0, 8), rng)
            c = find_g_circuit(g)
            if c is None:
                assert brute_force_sparse(g, "g")
                continue
            assert not brute_force_sparse(g, "g", edge_subset=c)
            for e in c:
                rest = tuple(x for x in c if x != e)
                assert brute_force_sparse(g, "g", edge_subset=rest)


class TestDecompose:
    def test_example(self):
        x, y = decompose11(G22_3)
        assert sorted(x + y) == [0, 1, 2, 3]
        for part in (x, y):
            assert is_gamma11_counts(G22_3, part)
            assert is_gamma11_structural(G22_3, part)

    def test_rejects_non_basis(self):
        with pytest.raises(ValueError, match="not a basis"):
            decompose11(make_graph(3, 1, []))
        bad = make_graph(3, 1, [(0, 0, TR1), (0, 0, TR2), (0, 0, (1, 1, 0)), (0, 0, (2, 1, 0))])
        with pytest.raises(ValueError, match="not a basis"):
            decompose11(bad)

    def test_doubled_laman_decomposes(self):
        g = LAMAN3.with_doubled_edge(0)
        x, y = decompose11(g)
        for part in (x, y):
            assert is_gamma11_counts(g, part) and is_gamma11_structural(g, part)
            core = gc11_spanning_subgraph(g, part)
            assert is_gen_cone11(g, core)
            assert set(core) <= set(part)


class TestGamma11Routes:
    def test_counts_and_structural_routes_agree(self):
        # basis-size subsets: independence with full size holds exactly
        # when the map-graph + rotations + full-lattice structure does
        rng = random.Random(50)
        agree_pos = 0
        for _ in range(300):
            k = rng.choice([2, 3, 4, 6])
            n = rng.randint(1, 4)
            rep = 4 if k == 2 else 2
            g = random_graph(k, n, n + rep // 2, rng)
            subset = tuple(range(g.m))
            counts_route = is_gamma11_counts(g, subset)
            structural_route = is_gamma11_structural(g, subset)
            assert counts_route == structural_route, (k, g.edges)
            agree_pos += counts_route
        assert agree_pos > 20  # both outcomes exercised


def _cone_core_via_marked_forest(g, subset):
    """The cone core on the invariant route: the marked spanning forest
    plus, per component, the first non-forest edge whose fundamental
    closed path maps to a rotation."""
    mg = spanning_forest(g, subset)
    chosen = {}
    for i in mg.non_forest_edges():
        if rho_of_fundamental_path(mg, i)[2] != 0:
            chosen.setdefault(mg.component_of[g.edges[i].tail], i)
    if len(chosen) != mg.component_count:
        return None
    return tuple(sorted(set(mg.forest) | set(chosen.values())))


class TestConeCore:
    def test_matches_invariant_route(self):
        rng = random.Random(52)
        cores = 0
        for _ in range(300):
            g = random_graph(rng.choice([2, 3, 4, 6]), rng.randint(1, 5), rng.randint(0, 12), rng)
            subset = [i for i in range(g.m) if rng.random() < 0.8]
            expected = _cone_core_via_marked_forest(g, subset)
            if expected is None:
                with pytest.raises(ValueError, match="no rotation"):
                    gc11_spanning_subgraph(g, subset)
                continue
            assert gc11_spanning_subgraph(g, subset) == expected, (g.context.k, g.n, g.edges, subset)
            cores += 1
        assert 50 < cores < 250  # both outcomes exercised


class TestGenCone:
    def test_examples(self):
        assert is_gen_cone11(make_graph(3, 1, [(0, 0, ROT)]))
        assert not is_gen_cone11(make_graph(3, 1, [(0, 0, TR1)]))
        assert gen_cone11_rank(make_graph(3, 1, [(0, 0, ROT)])) == 1
        tree = make_graph(3, 3, [(0, 1, (0, 0, 0)), (1, 2, (0, 0, 0))])
        assert not is_gen_cone11(tree)
        assert gen_cone11_rank(tree) == 3 - 1  # single rotation-free component

    def test_rank_monotone_and_bounded(self):
        rng = random.Random(48)
        for _ in range(80):
            g = random_graph(rng.choice([2, 3, 4, 6]), rng.randint(1, 4), rng.randint(0, 8), rng)
            full = gen_cone11_rank(g)
            assert 0 <= full <= g.n
            subset = [i for i in range(g.m) if rng.random() < 0.5]
            assert gen_cone11_rank(g, subset) <= full + (g.m - len(subset))


class TestBruteForce:
    def test_examples(self):
        assert brute_force_sparse(make_graph(3, 1, [(0, 0, ROT)]), "f")
        assert not brute_force_sparse(TRANS3, "f")
        assert brute_force_sparse(make_graph(3, 1, []), "f")

    def test_refuses_large(self):
        g = random_graph(3, 2, 21, random.Random(0))
        with pytest.raises(ValueError, match="refusing"):
            brute_force_sparse(g, "f")


class TestHvsHprime:
    def test_basis_class_equivalence(self):
        # the Laman family defined through h equals the one through h'
        rng = random.Random(49)
        checked = 0
        for _ in range(120):
            k = rng.choice([2, 3, 4, 6])
            n = rng.randint(1, 3)
            rep = 4 if k == 2 else 2
            m = 2 * n + rep - 1
            if m > 9:
                continue
            g = random_graph(k, n, m, rng)
            checked += 1
            via_h = all(
                count_report(g, sub).h >= len(sub)
                for sub in _nonempty_subsets(g.m)
            )
            via_hp = all(
                count_report(g, sub).h_prime >= len(sub)
                for sub in _nonempty_subsets(g.m)
            )
            assert via_h == via_hp, (k, n, g.edges)
        assert checked > 50


def _nonempty_subsets(m):
    for mask in range(1, 1 << m):
        yield [i for i in range(m) if mask >> i & 1]
