"""Exact scalars, system assembly, ranks, kernels, and realizations."""

import random
from fractions import Fraction as F

import pytest

from crystal_rigidity.colored_graph import make_graph
from crystal_rigidity.generate import random_graph
from crystal_rigidity.groups import GroupElement
from crystal_rigidity.realization import (
    LinearSystem,
    ONE,
    Realization,
    RealizationDiagnosis,
    Scalar,
    ZERO,
    assemble_direction_system,
    collapsed_dim_bound,
    edge_vectors,
    generic_rigidity_rank,
    random_directions,
    random_realization,
    rank_and_kernel,
    realize,
    rigidity_matrix,
    rotation_powers,
    serialize_realization,
)
from crystal_rigidity.sparsity import count_report, find_laman_circuit
from scalar_oracle import kernel_vector, scalar_direction_rows, scalar_rows

ROT = (0, 0, 1)
TR1 = (1, 0, 0)
TR2 = (0, 1, 0)
ROT_T = (1, 0, 1)

# 10^5000 + 7: 5,001 digits, past the default limit of 4,300 on int -> str.
HUGE = 10**5000 + 7
HUGE_TEXT = "1" + "0" * 4999 + "7"

LAMAN3 = make_graph(3, 1, [(0, 0, ROT), (0, 0, TR1), (0, 0, ROT_T)])
G22_3 = make_graph(3, 1, [(0, 0, ROT), (0, 0, ROT_T), (0, 0, TR1), (0, 0, TR2)])


class TestScalar:
    def test_field_operations(self):
        s = Scalar(F(1, 2), F(-2, 3))
        t = Scalar(F(3), F(1, 5))
        assert (s + t) - t == s
        assert (s * t) / t == s
        assert s - s == ZERO and not (s - s)
        assert s * Scalar(0) == ZERO

    def test_zero_test_is_exact(self):
        # a + b*sqrt3 = 0 iff a = b = 0
        s = Scalar(F(-3), F(1)) * Scalar(F(3), F(1))   # -9 + 3 = -6 ... nonzero
        assert s
        assert not Scalar(0, 0)
        assert Scalar(0, F(1, 7))

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            ONE / ZERO

    def test_str_forms(self):
        assert str(Scalar(F(1, 2))) == "1/2"
        assert str(Scalar(F(1, 2), F(5, 2))) == "1/2+5/2*sqrt3"
        assert str(Scalar(F(0), F(-1, 3))) == "0-1/3*sqrt3"

    def test_float(self):
        assert float(Scalar(1, 1)) == pytest.approx(2.7320508075688772)


class TestRotations:
    @pytest.mark.parametrize("k", [2, 3, 4, 6])
    def test_order_and_orthogonality(self, k):
        r = rotation_powers(k)[1]
        assert r[0][0] * r[1][1] - r[0][1] * r[1][0] == ONE
        # columns orthonormal
        assert r[0][0] * r[0][0] + r[1][0] * r[1][0] == ONE
        assert r[0][0] * r[0][1] + r[1][0] * r[1][1] == ZERO
        pows = rotation_powers(k)
        assert len(pows) == k
        for s in range(1, k):
            assert pows[s] != pows[0]

    @pytest.mark.parametrize("k", [2, 3, 4, 6])
    def test_powers_are_exact_powers_of_the_generator(self, k):
        def mul(a, b):
            return tuple(
                tuple(a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in range(2)) for i in range(2)
            )

        pows = rotation_powers(k)
        power = ((ONE, ZERO), (ZERO, ONE))
        for s in range(k):
            assert pows[s] == power
            power = mul(power, pows[1])
        assert power == pows[0]

    def test_translation_part_examples(self):
        # the translation part of Phi(gamma) is its image of the origin
        zero = (ZERO, ZERO)
        v1 = (Scalar(1), Scalar(0))
        real = Realization(4, (), v1, None)
        assert real.phi_apply(GroupElement(1, 0, 0), zero) == v1
        assert real.phi_apply(GroupElement(0, 1, 0), zero) == (ZERO, ONE)
        for k in (2, 3, 4, 6):
            v2 = zero if k == 2 else None
            assert Realization(k, (), zero, v2).phi_apply(GroupElement(2, -1, 0), zero) == zero

    def test_isometry_assignment_is_a_homomorphism(self):
        # the abstract action on lattice coordinates and the geometric
        # rotations are intertwined by v1, v2 = R v1: acting by a product
        # equals acting twice, exactly
        from crystal_rigidity.groups import GroupContext
        from crystal_rigidity.generate import random_element

        rng = random.Random(500)
        for k in (2, 3, 4, 6):
            ctx = GroupContext(k)
            real = Realization(
                k,
                ((Scalar(F(1, 3)), Scalar(F(-2, 5))),),
                (Scalar(2), Scalar(F(1, 2))),
                (Scalar(-1), Scalar(3)) if k == 2 else None,
            )
            p = real.points[0]
            for _ in range(100):
                a, b = random_element(ctx, rng, 3), random_element(ctx, rng, 3)
                lhs = real.phi_apply(ctx.compose(a, b), p)
                rhs = real.phi_apply(a, real.phi_apply(b, p))
                assert lhs == rhs


class TestAssembly:
    """For integer directions the integral rows are twice the rows over
    Q(sqrt 3) for k = 3, 6 and equal to them for k = 2, 4."""

    def test_rotation_loop_row(self):
        g = make_graph(3, 1, [(0, 0, ROT)])
        system = assemble_direction_system(g, [(1, 0)])
        row = scalar_rows(system.rows, system.ncols)[0]
        r = rotation_powers(3)[1]
        w = (ZERO, ONE)
        two = Scalar(2)
        assert row[0] == two * (r[0][0] * w[0] + r[1][0] * w[1] - w[0])
        assert row[1] == two * (r[0][1] * w[0] + r[1][1] * w[1] - w[1])
        assert row[2:] == (ZERO, ZERO)
        # sqrt 3 and -3 are twice sqrt 3 / 2 and -1/2 - 1
        assert system.rows[0] == {0: (0, 1), 1: (-3, 0)}

    def test_translation_loop_row(self):
        g = make_graph(3, 1, [(0, 0, TR1)])
        system = assemble_direction_system(g, [(1, 0)])
        assert system.rows[0] == {3: (2, 0)}

    def test_empty_graph_kernel(self):
        g = make_graph(3, 2, [])
        system = assemble_direction_system(g, [])
        assert len(system.rows) == 0 and system.ncols == 6
        assert len(rank_and_kernel(system.rows, system.ncols)[1]) == 6

    def test_k2_has_four_rep_columns(self):
        g = make_graph(2, 1, [(0, 0, (1, 1, 0))])
        system = assemble_direction_system(g, [(1, 2)])
        assert system.ncols == 6
        # perp(1, 2) = (-2, 1) in the columns of v1 and of v2
        assert system.rows[0] == {2: (-2, 0), 3: (1, 0), 4: (-2, 0), 5: (1, 0)}

    def test_zero_direction_rejected(self):
        g = make_graph(3, 1, [(0, 0, ROT)])
        with pytest.raises(ValueError, match="zero direction"):
            assemble_direction_system(g, [(0, 0)])


class TestRankKernel:
    def test_examples(self):
        ident = LinearSystem(({0: (1, 0)}, {1: (1, 0)}), 4)
        assert rank_and_kernel(ident.rows, ident.ncols)[0] == 2
        doubled = LinearSystem(({0: (1, 0)}, {0: (2, 0)}), 4)
        assert rank_and_kernel(doubled.rows, doubled.ncols)[0] == 1
        g22sys = assemble_direction_system(G22_3, random_directions(G22_3, 5))
        assert rank_and_kernel(g22sys.rows, g22sys.ncols)[0] == 4

    def test_kernel_residuals_zero(self):
        rng = random.Random(60)
        for _ in range(40):
            g = random_graph(rng.choice([2, 3, 4, 6]), rng.randint(1, 4), rng.randint(1, 8), rng)
            directions = random_directions(g, rng.randrange(10**6))
            system = assemble_direction_system(g, directions)
            rank, kernel = rank_and_kernel(system.rows, system.ncols)
            assert rank + len(kernel) == system.ncols
            for vec in (kernel_vector(row, system.ncols) for row in kernel):
                for row in scalar_direction_rows(g, directions):
                    acc = ZERO
                    for a, b in zip(row, vec):
                        acc = acc + a * b
                    assert acc == ZERO

    def test_scale_equivariance(self):
        rng = random.Random(61)
        for _ in range(20):
            g = random_graph(rng.choice([2, 3, 4, 6]), rng.randint(1, 3), rng.randint(1, 6), rng)
            d = random_directions(g, rng.randrange(10**6))
            scaled = [(3 * x, 3 * y) for x, y in d]
            s1 = assemble_direction_system(g, d)
            s2 = assemble_direction_system(g, scaled)
            r1, k1 = rank_and_kernel(s1.rows, s1.ncols)
            r2, k2 = rank_and_kernel(s2.rows, s2.ncols)
            assert r1 == r2 and k1 == k2


class TestRandomDirections:
    def test_deterministic_and_nonzero(self):
        g = make_graph(3, 2, [(0, 1, ROT), (1, 1, TR1), (0, 0, ROT_T)])
        d1 = random_directions(g, 9)
        d2 = random_directions(g, 9)
        d3 = random_directions(g, 10)
        assert d1 == d2
        assert d1 != d3
        assert all(v != (0, 0) for v in d1)

    def test_bound_validation(self):
        g = make_graph(3, 1, [(0, 0, ROT)])
        with pytest.raises(ValueError):
            random_directions(g, 0, bound=7)


class TestRealize:
    def test_worked_example_faithful(self):
        result = realize(LAMAN3, random_directions(LAMAN3, 11))
        assert isinstance(result, Realization)
        vectors = edge_vectors(LAMAN3, result)
        assert all(v[0] or v[1] for v in vectors)
        assert not result.is_trivial()
        # normalization: first nonzero coordinate is 1
        flat = [result.points[0][0], result.points[0][1], result.v1[0], result.v1[1]]
        lead = next(x for x in flat if x)
        assert lead == ONE

    def test_doubled_collapses(self):
        g = LAMAN3.with_doubled_edge(0)
        diag = realize(g, random_directions(g, 11))
        assert isinstance(diag, RealizationDiagnosis)
        assert diag.kernel_dim == 0
        assert diag.collapsed_edges == (0, 1, 2, 3)
        assert "collapsed" in diag.reason

    def test_non_sparse_reports_circuit(self):
        g = make_graph(3, 1, [(0, 0, TR1), (0, 0, TR2), (0, 0, ROT)])
        diag = realize(g, random_directions(g, 3))
        assert isinstance(diag, RealizationDiagnosis)
        assert find_laman_circuit(g) == (0, 1)

    def test_underbraced_diagnosis(self):
        g = make_graph(3, 1, [(0, 0, ROT)])
        diag = realize(g, random_directions(g, 8))
        assert isinstance(diag, RealizationDiagnosis)
        assert diag.kernel_dim > 1
        assert find_laman_circuit(g) is None

    def test_serialization_format(self):
        real = Realization(
            2,
            ((Scalar(F(1, 2)), Scalar(0)),),
            (ONE, ZERO),
            (ZERO, ONE),
        )
        text = serialize_realization(real)
        assert text == "point 0 1/2 0\nlattice v1 1 0\nlattice v2 0 1\n"

    def test_serialization_past_the_int_digit_limit(self):
        # str() of an int over 4,300 digits raises under the interpreter's
        # default limit, which stays in force for parsing
        real = Realization(3, ((Scalar(HUGE), Scalar(F(-1, HUGE), F(HUGE, 3))),), (ONE, ZERO), None)
        assert serialize_realization(real) == (
            f"point 0 {HUGE_TEXT} -1/{HUGE_TEXT}+{HUGE_TEXT}/3*sqrt3\nlattice v1 1 0\n"
        )


class TestRigidity:
    def test_rows_match_perp_direction_system(self):
        d = random_directions(LAMAN3, 11)
        real = realize(LAMAN3, d)
        rig = rigidity_matrix(LAMAN3, real)
        # the realized framework is infinitesimally rigid: full rank m
        assert rank_and_kernel(rig.rows, rig.ncols)[0] == LAMAN3.m
        perps = [(-Scalar(y), Scalar(x)) for x, y in d]
        for rrow, srow in zip(scalar_rows(rig.rows, rig.ncols), scalar_direction_rows(LAMAN3, perps)):
            ratio = None
            for a, b in zip(rrow, srow):
                if b:
                    ratio = a / b
                    break
            assert ratio is not None and ratio
            for a, b in zip(rrow, srow):
                assert a == ratio * b

    def test_zero_matrix_at_trivial_realization(self):
        g = make_graph(3, 1, [(0, 0, TR1)])
        real = Realization(3, ((ZERO, ZERO),), (ZERO, ZERO), None)
        rig = rigidity_matrix(g, real)
        assert [i for i, row in enumerate(rig.rows) if not row] == [0]
        assert all(not row for row in rig.rows)

    def test_single_identity_edge_rank_one(self):
        g = make_graph(3, 2, [(0, 1, (0, 0, 0))])
        real = Realization(3, ((ZERO, ZERO), (ONE, ZERO)), (ZERO, ZERO), None)
        rig = rigidity_matrix(g, real)
        assert rank_and_kernel(rig.rows, rig.ncols)[0] == 1

    def test_generic_rank_examples(self):
        assert generic_rigidity_rank(LAMAN3, 2, 2) == 3
        assert generic_rigidity_rank(make_graph(3, 1, []), 2, 1) == 0
        flex = make_graph(3, 1, [(0, 0, TR1), (0, 0, TR2), (0, 0, (1, 1, 0))])
        assert generic_rigidity_rank(flex, 2, 3) <= 2
        with pytest.raises(ValueError):
            generic_rigidity_rank(LAMAN3, 2, 0)

    def test_maxwell_bound(self):
        # rank of the rigidity system never exceeds h when no edge is
        # forced to collapse (identity self-loops excluded)
        rng = random.Random(63)
        for _ in range(60):
            g = random_graph(rng.choice([2, 3, 4, 6]), rng.randint(1, 4), rng.randint(1, 8), rng)
            if any(e.tail == e.head and e.color.is_identity() for e in g.edges):
                continue
            real = random_realization(g, rng)
            rig = rigidity_matrix(g, real)
            assert rank_and_kernel(rig.rows, rig.ncols)[0] <= count_report(g).h


class TestCollapsedBound:
    def test_examples(self):
        assert collapsed_dim_bound(make_graph(3, 2, [])) == 2 + 4
        assert collapsed_dim_bound(G22_3) == 0
        assert collapsed_dim_bound(make_graph(2, 1, [(0, 0, TR1)])) == 4

    def test_kernel_dim_meets_bound(self):
        rng = random.Random(64)
        for _ in range(60):
            g = random_graph(rng.choice([2, 3, 4, 6]), rng.randint(1, 4), rng.randint(0, 8), rng)
            if g.m:
                system = assemble_direction_system(g, random_directions(g, rng.randrange(10**6)))
            else:
                system = assemble_direction_system(g, [])
            _, kernel = rank_and_kernel(system.rows, system.ncols)
            assert len(kernel) >= collapsed_dim_bound(g)
