"""Independent cross-checks between unrelated computation routes.

Each test pits one implementation against a structurally different oracle:
the union engine against the matroid-union rank formula, exact ranks
against floating-point ranks, span membership against reachability and
determinant ranks, and the float lift against the exact isometries.
"""

import math
import random

import numpy as np

from crystal_rigidity.colored_graph import lift_patch, make_graph
from crystal_rigidity.generate import random_graph
from crystal_rigidity.groups import GroupElement, in_span, translation_span
from crystal_rigidity.realization import (
    assemble_direction_system,
    random_directions,
    rank_and_kernel,
    realize,
    rigidity_matrix,
    random_realization,
    Realization,
)
from crystal_rigidity.sparsity import SparsityOracle, _UnionEngine
from lift_oracle import as_tuples
from scalar_oracle import scalar_rows


def _union_rank_greedy(g):
    """Size of a maximal set placeable into two independent sides.

    The union of two matroids is a matroid, so greedy insertion in any
    order computes the rank of the whole edge set.
    """
    oracle = SparsityOracle(g)
    engine = _UnionEngine(oracle)
    placed = 0
    for i in range(g.m):
        if not engine.insert(i):
            placed += 1
    return placed


def _union_rank_formula(g):
    """min over subsets W of |E - W| + 2 g(W)."""
    oracle = SparsityOracle(g)
    best = g.m
    for mask in range(1 << g.m):
        value = g.m - mask.bit_count() + 2 * oracle.g_mask(mask)
        best = min(best, value)
    return best


class TestUnionRankFormula:
    def test_engine_matches_min_formula(self):
        rng = random.Random(400)
        for _ in range(120):
            g = random_graph(rng.choice([2, 3, 4, 6]), rng.randint(1, 3), rng.randint(0, 8), rng)
            assert _union_rank_greedy(g) == _union_rank_formula(g)


class TestFloatRankAgreement:
    def test_direction_system_ranks(self):
        rng = random.Random(401)
        for _ in range(60):
            k = rng.choice([2, 3, 4, 6])
            g = random_graph(k, rng.randint(1, 4), rng.randint(1, 8), rng)
            system = assemble_direction_system(g, random_directions(g, rng.randrange(10**6), 50))
            matrix = np.array([[float(x) for x in row] for row in scalar_rows(system.rows, system.ncols)])
            assert rank_and_kernel(system.rows, system.ncols)[0] == np.linalg.matrix_rank(matrix, tol=1e-7)

    def test_rigidity_ranks(self):
        rng = random.Random(402)
        for _ in range(40):
            k = rng.choice([3, 6])  # exercises the sqrt(3) component
            g = random_graph(k, rng.randint(1, 3), rng.randint(1, 6), rng)
            real = random_realization(g, rng, bound=20)
            system = rigidity_matrix(g, real)
            matrix = np.array([[float(x) for x in row] for row in scalar_rows(system.rows, system.ncols)])
            assert rank_and_kernel(system.rows, system.ncols)[0] == np.linalg.matrix_rank(matrix, tol=1e-6)


def _det_rank(vectors):
    """Rank of integer vectors in the plane from exact 2 x 2 determinants."""
    if any(a[0] * b[1] - a[1] * b[0] for a in vectors for b in vectors):
        return 2
    return 1 if any(x for v in vectors for x in v) else 0


class TestLatticeOracles:
    def test_reachable_points_are_members(self):
        # soundness: anything reachable by generator steps is in the span
        rng = random.Random(403)
        for _ in range(80):
            gens = [
                (rng.randint(-2, 2), rng.randint(-2, 2))
                for _ in range(rng.randint(1, 3))
            ]
            span = translation_span(gens)
            reached = {(0, 0)}
            frontier = [(0, 0)]
            while frontier:
                x, y = frontier.pop()
                for gx, gy in gens:
                    for sx, sy in ((gx, gy), (-gx, -gy)):
                        p = (x + sx, y + sy)
                        if p not in reached and abs(p[0]) <= 15 and abs(p[1]) <= 15:
                            reached.add(p)
                            frontier.append(p)
            for p in reached:
                assert in_span(span, p), (gens, p)

    def test_membership_matches_determinant_rank(self):
        # v is in the span iff adding it leaves the determinant rank fixed
        rng = random.Random(404)
        for _ in range(2000):
            bound = rng.choice([1, 3, 10**6])
            gens = [
                (rng.randint(-bound, bound), rng.randint(-bound, bound))
                for _ in range(rng.randint(0, 3))
            ]
            if rng.random() < 0.3 and gens:  # collinear on purpose
                c = rng.randint(-5, 5)
                gens.append((c * gens[0][0], c * gens[0][1]))
                gens = gens[:1] + gens[-1:]
            span = translation_span(gens)
            assert len(span) == _det_rank(gens)
            v = (rng.randint(-bound, bound), rng.randint(-bound, bound))
            if span and rng.random() < 0.5:
                c = rng.randint(-7, 7)
                v = (c * span[0][0], c * span[0][1])
            assert in_span(span, v) == (_det_rank(gens + [v]) == _det_rank(gens)), (gens, v)


class TestLiftConsistency:
    def test_segment_lengths_constant_per_edge(self):
        # all fiber copies of one quotient edge are congruent bars
        g = make_graph(3, 1, [(0, 0, (0, 0, 1)), (0, 0, (1, 0, 0)), (0, 0, (1, 0, 1))])
        real = realize(g, random_directions(g, 17))
        assert isinstance(real, Realization)
        patch = as_tuples(lift_patch(g, real, 2))
        by_edge = {}
        for seg in patch.segments:
            length = math.hypot(seg.x2 - seg.x1, seg.y2 - seg.y1)
            by_edge.setdefault(seg.edge, []).append(length)
        for lengths in by_edge.values():
            assert max(lengths) - min(lengths) < 1e-9
            assert min(lengths) > 1e-9  # faithful: no collapsed bar

    def test_float_and_exact_isometries_agree(self):
        rng = random.Random(405)
        for k in (2, 3, 4, 6):
            g = make_graph(k, 1, [(0, 0, (0, 0, 1))])
            real = random_realization(g, rng, bound=5)
            patch = as_tuples(lift_patch(g, real, 1))
            placed = {p.element: (p.x, p.y) for p in patch.points}
            for element, (x, y) in placed.items():
                ex, ey = real.phi_apply(GroupElement(*element), real.points[0])
                assert abs(float(ex) - x) < 1e-9 and abs(float(ey) - y) < 1e-9
