"""Realizations evaluated over F_P: the rigidity rows of the generic rank,
its early-stopped sampling, and the collapse test of ``realize``, each
against the all-exact route it replaces."""

import random
from fractions import Fraction as F

import pytest

from crystal_rigidity import realization as rz
from crystal_rigidity.colored_graph import make_graph
from crystal_rigidity.generate import random_element, random_graph
from crystal_rigidity.realization import (
    P,
    SQRT3_MOD_P,
    ZERO,
    Realization,
    RealizationDiagnosis,
    Scalar,
    _integral_row,
    collapsed_edges,
    edge_vectors,
    generic_rigidity_rank,
    random_directions,
    random_realization,
    rank_and_kernel,
    rank_mod_p,
    realization_from_vector,
    realize,
    rigidity_matrix,
)
from instances import Echelon, RigidityRows, grow_reference, laman_target, random_edge
from laman_bases import laman_basis
from scalar_oracle import kernel_vector, scalar_rows


def exact_assembly_rank(g, seed, samples, bound):
    """Oracle of ``generic_rigidity_rank``: the rigidity matrix assembled
    over Q(sqrt 3) and cleared of denominators at every one of the
    ``samples`` seeded draws, ranked mod P by ``rank_mod_p``, with no early
    stop."""
    rng = random.Random(seed)
    best = 0
    for _ in range(samples):
        system = rigidity_matrix(g, random_realization(g, rng, bound))
        best = max(best, rank_mod_p(system.rows, system.ncols))
    return best


def exact_collapsed(g, vectors):
    """Oracle of ``collapsed_edges``: the edges whose exact edge vector is
    zero in every vector."""
    per_vector = [edge_vectors(g, realization_from_vector(g, vec)) for vec in vectors]
    return tuple(i for i in range(g.m) if all(not (v[i][0] or v[i][1]) for v in per_vector))


def braced(k, n, rng, extra):
    """A Laman basis plus ``extra`` random edges, or minus ``-extra`` edges."""
    g = laman_basis(k, n, rng)
    for _ in range(extra):
        g = g.with_edge(rng.randrange(n), rng.randrange(n), random_element(g.context, rng))
    if extra < 0:
        keep = sorted(rng.sample(range(g.m), g.m + extra))
        g = make_graph(k, n, [(g.edges[i].tail, g.edges[i].head, tuple(g.edges[i].color)) for i in keep])
    return g


def rotated(real):
    """The infinitesimal rotation (J p, J v) at a realization, J(x, y) = (-y, x)."""
    pairs = list(real.points) + [real.v1] + ([real.v2] if real.k == 2 else [])
    return [c for x, y in pairs for c in (-y, x)]


class TestGenericRank:
    @pytest.mark.parametrize("k", [2, 3, 4, 6])
    def test_equals_exact_assembly_route(self, k):
        rng = random.Random(f"rank-oracle:{k}")
        seen = set()
        for trial in range(30):
            n = rng.randint(2, 6)
            extra = (-2, -1, 0, 1, 2)[trial % 5]
            g = braced(k, n, rng, extra) if trial % 6 else random_graph(k, n, rng.randint(1, 2 * n + 6), rng)
            seed, samples, bound = rng.randrange(10**6), rng.choice([1, 2, 5]), rng.choice([8, 100, 10**9])
            rank = generic_rigidity_rank(g, seed, samples, bound)
            assert rank == exact_assembly_rank(g, seed, samples, bound), (k, trial)
            target = 2 * g.n + g.context.full_translation_rep - 1
            seen.add((g.m > target) - (g.m < target))
        assert seen == {-1, 0, 1}

    def test_stops_at_the_rank_cap(self, monkeypatch):
        draws = []
        draw = rz._random_coordinates

        def counting(g, rng, bound):
            draws.append(bound)
            return draw(g, rng, bound)

        monkeypatch.setattr(rz, "_random_coordinates", counting)
        g = laman_basis(3, 6, random.Random(5))
        assert generic_rigidity_rank(g, 1, 1000, 10**9) == g.m
        assert len(draws) == 1
        # one edge: the cap min(m, 2n + rep - 1) is 1
        draws.clear()
        assert generic_rigidity_rank(make_graph(4, 2, [(0, 1, (0, 0, 0))]), 1, 7) == 1
        assert len(draws) == 1
        # two translation loops give equal rows: the cap 2 is never reached,
        # so every sample is drawn
        draws.clear()
        flexible = make_graph(3, 1, [(0, 0, (1, 0, 0)), (0, 0, (0, 1, 0))])
        assert generic_rigidity_rank(flexible, 1, 7) == 1
        assert len(draws) == 7

    def test_samples_stay_integers(self, monkeypatch):
        # every sample is evaluated from its integer coordinates mod P
        rng = random.Random("integer-samples")
        graphs = [braced(k, 5, rng, extra) for k in (2, 3, 4, 6) for extra in (-1, 0, 1)]
        graphs.append(make_graph(3, 1, [(0, 0, (1, 0, 0)), (0, 0, (0, 1, 0))]))
        want = [generic_rigidity_rank(g, 1, 3, 10**9) for g in graphs]

        def refuse(self, a=0, b=0):
            raise AssertionError("generic_rigidity_rank built a Scalar")

        monkeypatch.setattr(Scalar, "__init__", refuse)
        assert [generic_rigidity_rank(g, 1, 3, 10**9) for g in graphs] == want

    @pytest.mark.parametrize("k", [2, 3, 4, 6])
    def test_infinitesimal_rotation_in_exact_kernel(self, k):
        # the lemma behind the cap: every row vanishes on (J p, J v), so no
        # realization has rigidity rank above 2n + rep - 1
        rng = random.Random(f"rotation-kernel:{k}")
        coordinates = [Scalar(F(rng.randint(-9, 9), rng.randint(1, 5)), F(rng.randint(-3, 3), 2)) for _ in range(40)]
        for _ in range(15):
            g = random_graph(k, rng.randint(1, 5), rng.randint(1, 14), rng)
            ncols = 2 * g.n + g.context.full_translation_rep
            vec = [rng.choice(coordinates) for _ in range(ncols)]
            real = realization_from_vector(g, vec)
            system = rigidity_matrix(g, real)
            for row in scalar_rows(system.rows, ncols):
                acc = ZERO
                for a, b in zip(row, rotated(real)):
                    acc = acc + a * b
                assert acc == ZERO
            assert rank_and_kernel(system.rows, ncols)[0] <= ncols - 1


class TestLibraryFreeReference:
    """``generic_rigidity_rank`` against the benchmark's library-free
    modular reference (``RigidityRows`` at a fresh random point, ranked by
    ``Echelon``) at n = 20, 40 and 60: a ``grow_reference`` Laman basis,
    the basis minus two edges, and the basis plus three edges."""

    @pytest.mark.parametrize("k", [2, 3, 4, 6])
    def test_equal_ranks(self, k):
        for n in (20, 40, 60):
            rng = random.Random(f"library-free-rank:{k}:{n}")
            cands, flags, _, _ = grow_reference(k, n, rng)
            basis = [e for e, ok in zip(cands, flags) if ok]
            dropped = rng.sample(range(len(basis)), 2)
            minus = [e for i, e in enumerate(basis) if i not in dropped]
            extra = [random_edge(k, n, rng) for _ in range(3)]
            # one incremental pass: the minus set, then the basis, then the plus set
            geo, ech = RigidityRows(k, n, rng), Echelon()
            expected = []
            for edges in (minus, [basis[i] for i in dropped], extra):
                for e in edges:
                    ech.add(geo.row(e))
                expected.append(ech.rank)
            target = laman_target(k, n)
            assert expected == [target - 2, target, target], (k, n)
            for edges, rank in zip((minus, basis, basis + extra), expected):
                g = make_graph(k, n, [(t, h, (m1, m2, s)) for t, h, m1, m2, s in edges])
                assert generic_rigidity_rank(g, rng.randrange(10**6), 3, 10**9) == rank, (k, n, g.m)


class TestCollapseTest:
    def test_realize_matches_exact_edge_vectors(self):
        rng = random.Random("collapse-oracle")
        dims = {0: 0, 1: 0, 2: 0}
        partial = {1: 0, 2: 0}  # kernels with some, but not every, edge collapsed
        for trial in range(160):
            k = (2, 3, 4, 6)[trial % 4]
            n = rng.randint(1, 5)
            if trial % 3 == 0:
                g = random_graph(k, n, rng.randint(1, 2 * n + 5), rng)
            elif trial % 3 == 1:
                g = braced(k, max(n, 2), rng, rng.choice([-2, 1, 2]))
            else:
                # the target edge count with one edge doubled: typically a
                # unique solution that collapses the doubled edge's circuit
                g = braced(k, n, rng, -1)
                g = g.with_doubled_edge(rng.randrange(g.m))
            result = realize(g, random_directions(g, rng.randrange(10**6), rng.choice([8, 100])))
            if isinstance(result, Realization):
                continue
            dim = min(result.kernel_dim, 2)
            vectors = [kernel_vector(row, rz._ncols(g)) for row in result.kernel]
            assert result.collapsed_edges == exact_collapsed(g, vectors), trial
            dims[dim] += 1
            if dim and 0 < len(result.collapsed_edges) < g.m:
                partial[dim] += 1
        assert min(dims.values()) >= 5, dims
        assert min(partial.values()) >= 3, partial

    def test_faithful_realizations_have_no_collapsed_edge(self):
        rng = random.Random("collapse-faithful")
        for k in (2, 3, 4, 6):
            g = laman_basis(k, 5, rng)
            real = realize(g, random_directions(g, rng.randrange(10**6), 10**9))
            assert isinstance(real, Realization)
            vec = [c for pair in list(real.points) + [real.v1] + ([real.v2] if k == 2 else []) for c in pair]
            assert collapsed_edges(g, [_integral_row(enumerate(vec))]) == exact_collapsed(g, [vec]) == ()

    @pytest.mark.parametrize(
        "k, x",
        [
            (4, (P, 0)),                # divisible by P
            (3, (-SQRT3_MOD_P, 1)),     # a + b sqrt3 with a = -b * SQRT3_MOD_P
            (2, (2 * P, 21 * P)),       # P/7 + (3P/2) sqrt3 cleared of denominators
        ],
    )
    def test_zero_mod_p_is_checked_exactly(self, k, x):
        # edge 0 has edge vector v1 = (x, 0), zero mod P but not exactly;
        # edge 1 (a rotation loop at p = 0) is collapsed exactly
        g = make_graph(k, 1, [(0, 0, (1, 0, 0)), (0, 0, (0, 0, 1))])
        row = {2: x}
        (vec,) = scalar_rows([row], rz._ncols(g))
        assert rz._edge_vectors_mod_p(g, row, g.edges) == [(0, 0), (0, 0)]
        assert collapsed_edges(g, [row]) == exact_collapsed(g, [vec]) == (1,)

    def test_denominators_divisible_by_p(self):
        g = make_graph(3, 1, [(0, 0, (1, 0, 0)), (0, 0, (0, 1, 1))])
        vec = [Scalar(F(1, P)), ZERO, Scalar(F(1, P)), Scalar(0, F(2, P))]
        assert collapsed_edges(g, [_integral_row(enumerate(vec))]) == exact_collapsed(g, [vec]) == ()

    def test_no_vector_collapses_every_edge(self):
        g = make_graph(6, 2, [(0, 1, (0, 0, 1)), (1, 1, (1, 0, 0))])
        assert collapsed_edges(g, []) == (0, 1)


def counting_eliminations(monkeypatch):
    """A list that records every ``rank_and_kernel`` call ``realize`` makes."""
    calls = []
    exact = rz.rank_and_kernel

    def counting(rows, ncols):
        calls.append(ncols)
        return exact(rows, ncols)

    monkeypatch.setattr(rz, "rank_and_kernel", counting)
    return calls


def exact_diagnosis(g, directions):
    """Oracle of a non-faithful ``realize``: (kernel dimension, collapsed
    edges) of the exact kernel."""
    system = rz.assemble_direction_system(g, directions)
    _, kernel = rank_and_kernel(system.rows, system.ncols)
    return len(kernel), collapsed_edges(g, kernel)


# A square root of -1 mod P (P = 1 mod 4): a direction (1, I_MOD_P) and its
# perpendicular are parallel mod P, but not over Q.
I_MOD_P = next(r for a in range(2, 50) if (r := pow(a, (P - 1) // 4, P)) * r % P == P - 1)


class TestModularDecision:
    """Over- and under-braced direction systems are decided mod P; the
    exact elimination runs for a Laman count, a rank mod P short of its
    bound, an edge in doubt, and a read of the diagnosis's kernel."""

    @pytest.mark.parametrize("k", [2, 3, 4, 6])
    def test_exact_elimination_only_when_needed(self, k, monkeypatch):
        calls = counting_eliminations(monkeypatch)
        rng = random.Random(f"decision-calls:{k}")
        basis = laman_basis(k, 5, rng)
        assert isinstance(realize(basis, random_directions(basis, 1, 10**9)), Realization)
        assert len(calls) == 1
        for extra in (1, -2):
            g = braced(k, 5, rng, extra)
            calls.clear()
            result = realize(g, random_directions(g, 2, 10**9))
            assert result.kernel_dim == (0 if extra > 0 else 3)
            assert calls == []
            kernel = result.kernel
            assert len(kernel) == result.kernel_dim and len(calls) == 1
            assert result.kernel is kernel and len(calls) == 1

    @pytest.mark.parametrize("k", [2, 3, 4, 6])
    def test_rows_vanishing_mod_p_fall_back(self, k, monkeypatch):
        # a direction (P, 0) is the direction (1, 0), but its row is 0 mod P,
        # so the rank mod P falls short of its bound
        calls = counting_eliminations(monkeypatch)
        rng = random.Random(f"decision-vanishing:{k}")
        for extra in (1, -2):
            g = braced(k, 5, rng, extra)
            directions = random_directions(g, 3, 10**9)
            for i, scaled in ((0, (P, 0)), (g.m - 1, (0, -P))):
                plain = list(directions)
                plain[i] = (scaled[0] // P, scaled[1] // P)
                vanishing = list(directions)
                vanishing[i] = scaled
                calls.clear()
                decided = realize(g, plain)
                assert calls == []
                fallback = realize(g, vanishing)
                assert len(calls) == 1
                assert fallback == decided
                assert (fallback.kernel_dim, fallback.collapsed_edges) == exact_diagnosis(g, vanishing)
                assert len(fallback.kernel) == fallback.kernel_dim and len(calls) == 1

    def test_false_suspect_is_cleared_exactly(self, monkeypatch):
        # the parallel row of an edge with direction (1, I_MOD_P) is I_MOD_P
        # times its row mod P, so it never raises the rank mod P; exactly,
        # the edge does not collapse
        calls = counting_eliminations(monkeypatch)
        rng = random.Random("decision-suspect")
        graphs = [make_graph(3, 1, [(0, 0, (0, 0, 1))])]
        graphs += [braced(k, 4, rng, -2) for k in (2, 3, 4, 6)]
        for g in graphs:
            directions = [(1, I_MOD_P)] + random_directions(g, 4, 10**9)[1:]
            system = rz.assemble_direction_system(g, directions)
            assert rank_mod_p(system.rows, system.ncols) == g.m
            assert rz._decide_mod_p(g, rz._covectors(g, directions))[0] is None
            calls.clear()
            result = realize(g, directions)
            assert len(calls) == 1
            assert result.kernel_dim >= 2 and 0 not in result.collapsed_edges
            assert (result.kernel_dim, result.collapsed_edges) == exact_diagnosis(g, directions)

    @pytest.mark.parametrize("k", [2, 4])
    def test_faithful_over_braced_directions_fall_back(self, k, monkeypatch):
        # directions read off a faithful realization of a basis, plus the
        # edge vector of one more edge: that realization solves the
        # over-braced system, of rank ncols - 1 < min(m, ncols)
        calls = counting_eliminations(monkeypatch)
        rng = random.Random(f"decision-faithful:{k}")
        basis = laman_basis(k, 5, rng)
        real = realize(basis, random_directions(basis, 5, 10**9))
        assert isinstance(real, Realization)
        while True:
            g = basis.with_edge(rng.randrange(5), rng.randrange(5), random_element(basis.context, rng))
            directions = [(x.a, y.a) for x, y in edge_vectors(g, real)]
            if any(directions[-1]):
                break
        calls.clear()
        assert realize(g, directions) == real
        assert len(calls) == 1

    def test_kernel_read_checks_the_decided_dimension(self):
        result = RealizationDiagnosis(2, (), "kernel dimension 2", lambda: [{0: (1, 0)}])
        with pytest.raises(ArithmeticError):
            result.kernel

    @pytest.mark.parametrize("k", [2, 3, 4, 6])
    def test_equals_exact_route_at_scale(self, k, monkeypatch):
        # grow_reference bases plus one edge and minus two, n = 20 and 40
        # (and 60 for k = 3): every one is decided mod P, and its exact
        # kernel agrees
        calls = counting_eliminations(monkeypatch)
        for n in (20, 40, 60) if k == 3 else (20, 40):
            rng = random.Random(f"decision-scale:{k}:{n}")
            cands, flags, _, _ = grow_reference(k, n, rng)
            basis = [e for e, ok in zip(cands, flags) if ok]
            dropped = set(rng.sample(range(len(basis)), 2))
            for edges in (basis + [random_edge(k, n, rng)], [e for i, e in enumerate(basis) if i not in dropped]):
                g = make_graph(k, n, [(t, h, (m1, m2, s)) for t, h, m1, m2, s in edges])
                calls.clear()
                result = realize(g, random_directions(g, rng.randrange(10**6), 10**9))
                assert isinstance(result, RealizationDiagnosis) and calls == [], (k, n, g.m)
                assert len(result.kernel) == result.kernel_dim, (k, n, g.m)
                vectors = [kernel_vector(row, rz._ncols(g)) for row in result.kernel]
                assert result.collapsed_edges == exact_collapsed(g, vectors), (k, n, g.m)
