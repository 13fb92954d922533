"""Sparse exact elimination and rank mod P against the dense Fraction oracle.

``dense_rank_and_kernel`` is the dense Gauss-Jordan elimination over
Q(sqrt 3) that ``rank_and_kernel`` replaced; it stays here as the oracle.
The reduced row echelon form is unique, so the two must agree exactly.
"""

import random
from fractions import Fraction as F
from functools import lru_cache

from crystal_rigidity.colored_graph import make_graph
from crystal_rigidity.generate import random_element
from crystal_rigidity.groups import GroupContext
from crystal_rigidity.realization import (
    ONE,
    P,
    SQRT3_MOD_P,
    ZERO,
    RealizationDiagnosis,
    Scalar,
    assemble_direction_system,
    random_directions,
    random_realization,
    rank_and_kernel,
    rank_mod_p,
    realize,
    rigidity_matrix,
)
from crystal_rigidity.sparsity import is_laman_sparse

BOUND = 10**9


def dense_rank_and_kernel(rows, ncols):
    """Dense Gauss-Jordan elimination; exact rank and a kernel basis."""
    mat = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        pv = mat[r][c]
        mat[r] = [x / pv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                factor = mat[i][c]
                mat[i] = [x - factor * y for x, y in zip(mat[i], mat[r])]
        pivots.append((r, c))
        r += 1
    pivot_cols = {c for _, c in pivots}
    kernel = []
    for fc in range(ncols):
        if fc in pivot_cols:
            continue
        vec = [ZERO] * ncols
        vec[fc] = ONE
        for ri, pc in pivots:
            vec[pc] = -mat[ri][fc]
        kernel.append(tuple(vec))
    return r, kernel


def laman_basis(k, n, rng):
    """A Laman basis grown by greedy insertion of random edges."""
    ctx = GroupContext(k)
    g = make_graph(k, n, [])
    target = 2 * n + ctx.full_translation_rep - 1
    for _ in range(50 * target):
        if g.m == target:
            return g
        e = random_element(ctx, rng)
        cand = g.with_edge(rng.randrange(n), rng.randrange(n), e)
        if is_laman_sparse(cand):
            g = cand
    raise AssertionError("greedy growth did not reach a basis")


CASES = [(2, 6), (3, 8), (4, 10), (6, 12), (2, 12), (3, 6)]


@lru_cache(maxsize=None)
def seeded_systems():
    """(label, system, direction-kernel dimension or None) per case:
    direction and rigidity systems of a Laman basis, the basis plus one
    edge and the basis minus two edges."""
    out = []
    for k, n in CASES:
        rng = random.Random(f"elimination:{k}:{n}")
        base = laman_basis(k, n, rng)
        plus = base.with_edge(rng.randrange(n), rng.randrange(n), random_element(base.context, rng))
        drop = set(rng.sample(range(base.m), 2))
        minus = make_graph(
            k, n, [(e.tail, e.head, tuple(e.color)) for i, e in enumerate(base.edges) if i not in drop]
        )
        for label, g, dim in (("basis", base, 1), ("plus", plus, 0), ("minus", minus, 3)):
            seed = rng.randrange(1 << 31)
            tag = f"k={k} n={n} {label}"
            out.append((tag + " direction", assemble_direction_system(g, random_directions(g, seed, BOUND)), dim))
            real = random_realization(g, random.Random(seed), BOUND)
            out.append((tag + " rigidity", rigidity_matrix(g, real), None))
    return out


@lru_cache(maxsize=None)
def oracle_results():
    return [dense_rank_and_kernel(system.rows, system.ncols) for _, system, _ in seeded_systems()]


def with_zero_rows(system):
    zero = (ZERO,) * system.ncols
    rows = [zero]
    for row in system.rows:
        rows += [row, zero]
    return rows


class TestSparseAgainstDenseOracle:
    def test_seeded_systems_identical(self):
        for (label, system, dim), expected in zip(seeded_systems(), oracle_results()):
            rank, kernel = rank_and_kernel(system.rows, system.ncols)
            assert (rank, kernel) == expected, label
            if dim is not None:
                assert len(kernel) == dim, label

    def test_zero_rows_identical(self):
        for label, system, _ in seeded_systems()[::4]:
            rows = with_zero_rows(system)
            result = rank_and_kernel(rows, system.ncols)
            assert result == dense_rank_and_kernel(rows, system.ncols), label
            assert result == rank_and_kernel(system.rows, system.ncols), label

    def test_collapsed_edge_zero_rows(self):
        g = make_graph(3, 2, [(0, 0, (0, 0, 0)), (0, 1, (0, 0, 1)), (1, 1, (1, 0, 0))])
        rig = rigidity_matrix(g, random_realization(g, random.Random(3)))
        assert rig.zero_rows == (0,)
        assert rank_and_kernel(rig.rows, rig.ncols) == dense_rank_and_kernel(rig.rows, rig.ncols)

    def test_empty_system(self):
        for ncols in (0, 1, 6):
            rank, kernel = rank_and_kernel((), ncols)
            assert (rank, kernel) == dense_rank_and_kernel((), ncols)
            assert rank == 0 and len(kernel) == ncols
        zero_only = [(ZERO,) * 4] * 3
        assert rank_and_kernel(zero_only, 4) == dense_rank_and_kernel(zero_only, 4)

    def test_irrational_entries(self):
        rng = random.Random(70)
        for _ in range(30):
            ncols = rng.randint(1, 5)
            rows = [
                tuple(
                    Scalar(F(rng.randint(-3, 3), rng.randint(1, 3)), F(rng.randint(-2, 2), 2))
                    if rng.random() < 0.6
                    else ZERO
                    for _ in range(ncols)
                )
                for _ in range(rng.randint(0, 5))
            ]
            assert rank_and_kernel(rows, ncols) == dense_rank_and_kernel(rows, ncols)


def _is_prime(n):
    """Deterministic Miller-Rabin for n < 3.3e24 (bases: the primes to 41)."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2:
        return False
    for p in bases:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class TestRankModP:
    def test_constants(self):
        assert P == 2**61 - 31
        assert P % 12 == 1
        assert SQRT3_MOD_P * SQRT3_MOD_P % P == 3
        assert _is_prime(P)
        assert not _is_prime(P + 2) and not _is_prime(561)

    def test_equals_oracle_rank(self):
        for (label, system, _), expected in zip(seeded_systems(), oracle_results()):
            assert rank_mod_p(system.rows, system.ncols) == expected[0], label

    def test_zero_rows_and_empty(self):
        for label, system, _ in seeded_systems()[::4]:
            assert rank_mod_p(with_zero_rows(system), system.ncols) == rank_mod_p(system.rows, system.ncols)
        assert rank_mod_p((), 5) == 0
        assert rank_mod_p([(ZERO, ZERO)], 2) == 0

    def test_one_sided(self):
        rows = [(Scalar(P), ZERO), (ZERO, ONE)]
        assert dense_rank_and_kernel(rows, 2)[0] == 2
        assert rank_mod_p(rows, 2) == 1
        # sqrt 3 maps to a root of x^2 - 3, so a + b sqrt3 with a = -b * SQRT3_MOD_P vanishes mod P
        rows = [(Scalar(-SQRT3_MOD_P, 1), ZERO), (ZERO, ONE)]
        assert dense_rank_and_kernel(rows, 2)[0] == 2
        assert rank_mod_p(rows, 2) == 1

    def test_never_above_exact_rank(self):
        rng = random.Random(71)
        entries = [ZERO, ONE, Scalar(P), Scalar(2 * P, -P), Scalar(F(1, P)), Scalar(F(P, 3), 1),
                   Scalar(F(1, 2), F(1, 2)), Scalar(-3, 1)]
        for _ in range(200):
            ncols = rng.randint(1, 4)
            rows = [tuple(rng.choice(entries) for _ in range(ncols)) for _ in range(rng.randint(0, 4))]
            assert rank_mod_p(rows, ncols) <= dense_rank_and_kernel(rows, ncols)[0]

    def test_denominator_divisible_by_p(self):
        assert rank_mod_p([(Scalar(F(1, P)), ONE)], 2) == 1
        assert rank_mod_p([(Scalar(F(1, P)), ZERO), (ZERO, Scalar(0, F(1, P)))], 2) == 2


class TestRealizeDimZero:
    def test_basis_plus_edge_collapses_every_edge(self):
        for k, n in CASES[:4]:
            rng = random.Random(f"realize0:{k}:{n}")
            base = laman_basis(k, n, rng)
            g = base.with_edge(rng.randrange(n), rng.randrange(n), random_element(base.context, rng))
            directions = random_directions(g, rng.randrange(1 << 31), BOUND)
            system = assemble_direction_system(g, directions)
            exact_dim = len(dense_rank_and_kernel(system.rows, system.ncols)[1])
            diag = realize(g, directions)
            assert isinstance(diag, RealizationDiagnosis)
            assert diag.kernel_dim == exact_dim == 0
            assert diag.collapsed_edges == tuple(range(g.m))
            assert diag.reason == "collapsed (kernel dim 0)"
