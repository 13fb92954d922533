"""Fraction-free exact elimination and rank mod P against the dense
Fraction oracle.

``dense_rank_and_kernel`` is a dense Gauss-Jordan elimination in
``Scalar`` arithmetic over Q(sqrt 3); it stays here as the oracle of
``rank_and_kernel``, which eliminates integral rows (``{column: (a, b)}``
over Z[sqrt 3]) in integer arithmetic.  The dense oracle reads them
through ``scalar_rows``, and ``Scalar`` rows reach ``rank_and_kernel``
and ``rank_mod_p`` through ``_integral_row``.  ``rank_and_kernel``
returns each kernel vector as a primitive integer row, read back by
``kernel_vector`` (which checks that contract) as the vector of reduced
row echelon form.  That form is unique, so the two must agree exactly.
At n = 20-30, where the dense oracle is too slow for most systems, every
kernel vector is checked against every row in ``Scalar`` arithmetic, and
the kernel dimension against the rank mod P.

``assemble_direction_system`` builds its rows over Z or Z[sqrt 3] from
integer directions, and ``realize`` divides its kernel row in integers
before building rationals; they are checked against the ``Scalar`` rows
of the oracle ``scalar_direction_rows`` and against
``normalize_kernel_vector``, a ``Scalar`` division.
"""

import random
from fractions import Fraction as F
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from crystal_rigidity.colored_graph import make_graph
from crystal_rigidity.generate import random_element, random_graph
from crystal_rigidity.groups import GroupContext
from crystal_rigidity import realization as rz
from crystal_rigidity.realization import (
    ONE,
    P,
    SQRT3_MOD_P,
    ZERO,
    Realization,
    RealizationDiagnosis,
    Scalar,
    _divide_content,
    _divided,
    _integral_row,
    assemble_direction_system,
    random_directions,
    random_realization,
    rank_and_kernel,
    rank_mod_p,
    realize,
    rigidity_matrix,
)
from instances import grow_reference, random_edge
from kernel_oracle import gauss_jordan_rank_and_kernel
from laman_bases import laman_basis
from scalar_oracle import kernel_vector, scalar_direction_rows, scalar_rows

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
        # Zero entries stay as they are: x / pv and x - factor * 0 are x.
        mat[r] = [x / pv if x else x for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                factor = mat[i][c]
                mat[i] = [x - factor * y if y else x for x, y in zip(mat[i], mat[r])]
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
    return [dense(system) for _, system, _ in seeded_systems()]


def dense(system):
    """The dense oracle on the ``Scalar`` view of a system's rows."""
    return dense_rank_and_kernel(scalar_rows(system.rows, system.ncols), system.ncols)


def with_zero_rows(system):
    rows = [{}]
    for row in system.rows:
        rows += [row, {}]
    return rows


def eliminated(rows, ncols):
    """``rank_and_kernel`` with its kernel rows read by ``kernel_vector``,
    as the dense oracle returns them."""
    rank, kernel = rank_and_kernel(rows, ncols)
    return rank, [kernel_vector(row, ncols) for row in kernel]


def integral(rows):
    """``Scalar`` rows cleared of denominators, as ``rank_and_kernel`` and
    ``rank_mod_p`` read them."""
    return [_integral_row(enumerate(row)) for row in rows]


class TestSparseAgainstDenseOracle:
    def test_seeded_systems_identical(self):
        for (label, system, dim), expected in zip(seeded_systems(), oracle_results()):
            assert all(a or b for row in system.rows for a, b in row.values()), label
            rank, kernel = eliminated(system.rows, system.ncols)
            assert (rank, kernel) == expected, label
            if dim is not None:
                assert len(kernel) == dim, label

    def test_zero_rows_identical(self):
        for label, system, _ in seeded_systems()[::4]:
            rows = with_zero_rows(system)
            assert eliminated(rows, system.ncols) == dense_rank_and_kernel(scalar_rows(rows, system.ncols), system.ncols), label
            assert rank_and_kernel(rows, system.ncols) == rank_and_kernel(system.rows, system.ncols), label

    def test_input_rows_unchanged(self):
        # elimination works on copies: a second call on the same rows gives
        # the same result, and the system's rows stay as assembled
        for label, system, _ in seeded_systems():
            before = [dict(row) for row in system.rows]
            first = rank_and_kernel(system.rows, system.ncols)
            assert [dict(row) for row in system.rows] == before, label
            assert rank_and_kernel(system.rows, system.ncols) == first, label

    def test_kernel_rows_do_not_depend_on_the_row_order(self):
        # the kernel rows are read off the unique reduced echelon form, so
        # two calls, and a shuffled row order, give identical rows
        rng = random.Random(74)
        for label, system, _ in seeded_systems():
            first = rank_and_kernel(system.rows, system.ncols)
            assert rank_and_kernel(system.rows, system.ncols) == first, label
            rows = list(system.rows)
            rng.shuffle(rows)
            assert rank_and_kernel(rows, system.ncols) == first, label

    def test_collapsed_edge_zero_rows(self):
        g = make_graph(3, 2, [(0, 0, (0, 0, 0)), (0, 1, (0, 0, 1)), (1, 1, (1, 0, 0))])
        rig = rigidity_matrix(g, random_realization(g, random.Random(3)))
        assert [i for i, row in enumerate(rig.rows) if not row] == [0]
        assert eliminated(rig.rows, rig.ncols) == dense(rig)

    def test_empty_system(self):
        for ncols in (0, 1, 6):
            rank, kernel = eliminated((), ncols)
            assert (rank, kernel) == dense_rank_and_kernel((), ncols)
            assert rank == 0 and len(kernel) == ncols
        zero_only = [(ZERO,) * 4] * 3
        assert eliminated(integral(zero_only), 4) == dense_rank_and_kernel(zero_only, 4)

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
            assert eliminated(integral(rows), ncols) == dense_rank_and_kernel(rows, ncols)


def S(a, b=0):
    return Scalar(F(a), F(b))


SQRT3 = S(0, 1)


def oracle_checked(rows, ncols):
    result = eliminated(integral(rows), ncols)
    assert result == dense_rank_and_kernel(rows, ncols)
    return result


class TestZSqrt3EdgeCases:
    """Pivots and rows of Z[sqrt 3] elimination that rationalizing a pivot
    row (times the conjugate of its pivot) must handle."""

    def test_pure_sqrt3_pivot(self):
        # 2 sqrt3 and sqrt3 pivots: a = 0, norm -12 and -3
        rows = [(S(0, 2), S(1), S(F(1, 3), 1)), (S(0, 1), ZERO, S(5, -1))]
        assert oracle_checked(rows, 3)[0] == 2
        assert oracle_checked([(S(0, 1), S(0, 1)), (S(0, 1), S(3))], 2)[0] == 2

    def test_negative_norm_pivot(self):
        # 1 + sqrt3 has norm 1 - 3 = -2; 2 + 3 sqrt3 has norm -23
        rows = [(S(1, 1), S(2), S(0, 1), S(1)), (S(2, 3), S(-1, 1), ZERO, S(4)), (S(7), S(1, 1), S(1), ZERO)]
        rank, kernel = oracle_checked(rows, 4)
        assert rank == 3 and len(kernel) == 1

    def test_norm_sharing_a_factor_with_its_row(self):
        # 3 + sqrt3 has norm 6, and its row (the shortest in column 0, so the
        # pivot row) times 3 - sqrt3 is 6 * (1, 2, 6 - 2 sqrt3, 0)
        pivot_row = (S(3, 1), S(6, 2), S(12), ZERO)
        rows = [pivot_row, (S(1), S(5, 1), S(0, 2), S(1)), (S(2, 1), ZERO, S(1), S(-1, 1))]
        assert oracle_checked(rows, 4)[0] == 3
        assert oracle_checked([pivot_row, (S(3, -1), S(1), ZERO, S(2))], 4)[0] == 2

    def test_denominators(self):
        rows = [
            (Scalar(F(1, 2), F(1, 3)), Scalar(F(5, 6)), ZERO, Scalar(F(1, P), F(-1, 6))),
            (Scalar(F(-2, 3)), Scalar(F(1, 6), F(1, 2)), Scalar(0, F(1, P)), ONE),
            (ZERO, Scalar(F(7, 2)), Scalar(F(1, 3), F(1, 3)), Scalar(F(P, 6))),
        ]
        assert oracle_checked(rows, 4)[0] == 3
        rational = [tuple(Scalar(x.a) for x in row) for row in rows]
        assert oracle_checked(rational, 4)[0] == 3

    def test_zero_rows(self):
        zero = (ZERO,) * 3
        rows = [zero, (S(1, 1), S(0, 2), S(3)), zero, (S(2), S(1, -1), ZERO), zero]
        assert oracle_checked(rows, 3)[0] == 2
        assert oracle_checked([zero, zero], 3) == (0, [tuple(ONE if i == j else ZERO for i in range(3)) for j in range(3)])

    def test_sqrt3_multiple_of_a_row_is_dependent(self):
        row = (S(1), S(2, 1), Scalar(F(1, 2), -3), ZERO)
        rows = [row, tuple(SQRT3 * x for x in row)]
        rank, kernel = oracle_checked(rows, 4)
        assert rank == 1 and len(kernel) == 3
        # over Q, the rows' rational and sqrt 3 parts side by side have rank 2
        split = [tuple(Scalar(x.a) for x in r) + tuple(Scalar(x.b) for x in r) for r in rows]
        assert oracle_checked(split, 8)[0] == 2

    def test_several_free_columns(self):
        r1 = (S(1), ZERO, S(0, 1), S(2), ZERO, S(1, 1), ZERO)
        r2 = (ZERO, S(0, 3), S(1), ZERO, S(-1), ZERO, S(2, -1))
        r3 = tuple(x * S(2, -1) + y * S(F(1, 2)) for x, y in zip(r1, r2))
        for system in ([r1, r2, r3], [r3, r1, r2, r3], [r1, r2]):
            rank, kernel = oracle_checked(system, 7)
            assert rank == 2 and len(kernel) == 5
        ints = [tuple(Scalar(x.a) for x in r) for r in (r1, r2)]
        ints.append(tuple(x * S(-3) + y * S(F(2, 3)) for x, y in zip(*ints)))
        assert oracle_checked(ints, 7)[0] == 2


_PARTS = st.tuples(st.integers(-6, 6), st.sampled_from((1, 2, 3, 6)))


@st.composite
def small_matrices(draw):
    ncols = draw(st.integers(1, 5))
    irrational = draw(st.booleans())
    entry = st.one_of(
        st.just(ZERO),
        st.builds(
            lambda a, b: Scalar(F(*a), F(*b) if irrational else 0), _PARTS, _PARTS
        ),
    )
    rows = draw(st.lists(st.tuples(*[entry] * ncols), max_size=5))
    if rows and draw(st.booleans()):
        # a combination of two rows, so the rank is deficient more often
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        c = S(draw(st.integers(-2, 2)), draw(st.integers(-1, 1)) if irrational else 0)
        rows.append(tuple(x + c * y for x, y in zip(rows[i], rows[j])))
    return rows, ncols


class TestSmallMatrices:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(small_matrices())
    def test_equals_dense_oracle_and_rank_mod_p(self, matrix):
        rows, ncols = matrix
        rank, kernel = oracle_checked(rows, ncols)
        assert rank + len(kernel) == ncols
        # every minor's norm is far below P here, so no minor vanishes mod P
        assert rank_mod_p(integral(rows), ncols) == rank


SCALE_CASES = [(2, 20), (3, 26), (4, 22), (6, 28)]


@lru_cache(maxsize=None)
def scale_systems():
    """(label, system, expected kernel dimension) per k: the direction
    systems of a Laman basis at n = 20-30 and of the basis minus two edges,
    and the basis's rigidity system."""
    out = []
    for k, n in SCALE_CASES:
        rng = random.Random(f"elimination-scale:{k}:{n}")
        base = laman_basis(k, n, rng)
        drop = set(rng.sample(range(base.m), 2))
        minus = make_graph(
            k, n, [(e.tail, e.head, tuple(e.color)) for i, e in enumerate(base.edges) if i not in drop]
        )
        for label, g, dim in ((f"k={k} n={n} basis", base, 1), (f"k={k} n={n} minus", minus, 3)):
            seed = rng.randrange(1 << 31)
            out.append((label + " direction", assemble_direction_system(g, random_directions(g, seed, BOUND)), dim))
        real = random_realization(base, random.Random(rng.randrange(1 << 31)), BOUND)
        out.append((f"k={k} n={n} basis rigidity", rigidity_matrix(base, real), 1))
    return out


class TestAtScale:
    def test_kernels_satisfy_every_row_exactly(self):
        for label, system, dim in scale_systems():
            rank, kernel = eliminated(system.rows, system.ncols)
            assert len(kernel) == dim, label
            # the rank mod P bounds the exact rank from below, so a kernel of
            # ncols - rank_mod_p independent solutions is the whole kernel
            assert rank == system.ncols - len(kernel) == rank_mod_p(system.rows, system.ncols), label
            # the last nonzero of each vector is a 1 in its own free column
            lasts = [max(j for j, x in enumerate(vec) if x) for vec in kernel]
            assert lasts == sorted(set(lasts)), label
            for last, vec in zip(lasts, kernel):
                assert vec[last] == ONE, label
                for row in scalar_rows(system.rows, system.ncols):
                    total = ZERO
                    for x, y in zip(row, vec):
                        if x and y:
                            total = total + x * y
                    assert not total, label

    @pytest.mark.parametrize("index", [0, 1])
    def test_dense_oracle_at_n_20(self, index):
        label, system, _ = scale_systems()[index]
        assert eliminated(system.rows, system.ncols) == dense(system), label


class TestBackSubstitutionOracle:
    """``rank_and_kernel``, one back substitution per free column, against
    the Gauss-Jordan back substitution of ``kernel_oracle`` on the same
    echelon rows: the same rank and the same kernel rows, in the same
    order and with the same dict key order."""

    @staticmethod
    def same(system, label):
        got = rank_and_kernel(system.rows, system.ncols)
        want = gauss_jordan_rank_and_kernel(system.rows, system.ncols)
        assert got[0] == want[0], label
        assert [list(row.items()) for row in got[1]] == [list(row.items()) for row in want[1]], label
        return got

    @pytest.mark.parametrize("k", [2, 3, 4, 6])
    def test_grown_bases_at_scale(self, k):
        # grow_reference bases, plus one edge and minus two, n = 20 and 40
        # (and 60 for k = 3)
        for n in (20, 40, 60) if k == 3 else (20, 40):
            rng = random.Random(f"back-substitution:{k}:{n}")
            cands, flags, _, _ = grow_reference(k, n, rng)
            basis = [e for e, ok in zip(cands, flags) if ok]
            dropped = set(rng.sample(range(len(basis)), 2))
            minus = [e for i, e in enumerate(basis) if i not in dropped]
            for edges, dim in ((basis, 1), (basis + [random_edge(k, n, rng)], 0), (minus, 3)):
                g = make_graph(k, n, [(t, h, (m1, m2, s)) for t, h, m1, m2, s in edges])
                system = assemble_direction_system(g, random_directions(g, rng.randrange(10**6), BOUND))
                assert len(self.same(system, (k, n, g.m))[1]) == dim, (k, n, g.m)

    def test_seeded_random_systems(self):
        rng = random.Random("back-substitution:random")
        dims = set()
        for trial in range(500):
            k = (2, 3, 4, 6)[trial % 4]
            n = rng.randint(1, 7)
            g = random_graph(k, n, rng.randint(0, 2 * n + 4), rng, rng.choice([1, 2, 4]))
            bound = (8, 100, BOUND)[trial % 3]
            system = assemble_direction_system(g, random_directions(g, rng.randrange(10**6), bound))
            dims.add(len(self.same(system, trial)[1]))
        assert set(range(11)) <= dims


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
        assert rank_mod_p([{}], 2) == 0

    def test_one_sided(self):
        rows = [(Scalar(P), ZERO), (ZERO, ONE)]
        assert dense_rank_and_kernel(rows, 2)[0] == 2
        assert rank_mod_p(integral(rows), 2) == 1
        # sqrt 3 maps to a root of x^2 - 3, so a + b sqrt3 with a = -b * SQRT3_MOD_P vanishes mod P
        rows = [(Scalar(-SQRT3_MOD_P, 1), ZERO), (ZERO, ONE)]
        assert dense_rank_and_kernel(rows, 2)[0] == 2
        assert rank_mod_p(integral(rows), 2) == 1

    def test_never_above_exact_rank(self):
        rng = random.Random(71)
        entries = [ZERO, ONE, Scalar(P), Scalar(2 * P, -P), Scalar(F(1, P)), Scalar(F(P, 3), 1),
                   Scalar(F(1, 2), F(1, 2)), Scalar(-3, 1)]
        for _ in range(200):
            ncols = rng.randint(1, 4)
            rows = [tuple(rng.choice(entries) for _ in range(ncols)) for _ in range(rng.randint(0, 4))]
            assert rank_mod_p(integral(rows), ncols) <= dense_rank_and_kernel(rows, ncols)[0]

    def test_denominator_divisible_by_p(self):
        assert rank_mod_p(integral([(Scalar(F(1, P)), ONE)]), 2) == 1
        assert rank_mod_p(integral([(Scalar(F(1, P)), ZERO), (ZERO, Scalar(0, F(1, P)))]), 2) == 2


class TestRealizeDimZero:
    def test_basis_plus_edge_collapses_every_edge(self):
        for k, n in CASES[:4]:
            rng = random.Random(f"realize0:{k}:{n}")
            base = laman_basis(k, n, rng)
            g = base.with_edge(rng.randrange(n), rng.randrange(n), random_element(base.context, rng))
            directions = random_directions(g, rng.randrange(1 << 31), BOUND)
            exact_dim = len(dense_rank_and_kernel(scalar_direction_rows(g, directions), rz._ncols(g))[1])
            diag = realize(g, directions)
            assert isinstance(diag, RealizationDiagnosis)
            assert diag.kernel_dim == exact_dim == 0
            assert diag.collapsed_edges == tuple(range(g.m))
            assert diag.reason == "collapsed (kernel dim 0)"


def normalize_kernel_vector(vec):
    """Oracle of ``realize``'s division (``_divided`` by the first nonzero
    entry): the vector times the inverse of its first nonzero entry, in
    ``Scalar`` arithmetic."""
    inv = ONE / next(x for x in vec if x)
    return tuple(x * inv for x in vec)


def primitive(row):
    """A ``{column: (a, b)}`` row divided by its content."""
    return _divide_content(dict(row), True) if row else {}


def fractional(directions, rng):
    return [(F(x, rng.randint(1, 9)), F(y, rng.randint(1, 9))) for x, y in directions]


def coordinates(real):
    flat = [x for p in real.points for x in p] + list(real.v1)
    return tuple(flat + list(real.v2)) if real.k == 2 else tuple(flat)


class TestIntegerDirectionRows:
    def test_primitive_rows_equal_scalar_rows(self):
        rng = random.Random(72)
        for k in (2, 3, 4, 6):
            ctx = GroupContext(k)
            # loops with every rotation color, a parallel pair with equal
            # colors and one with different colors, then random edges
            edges = [(0, 0, (1, -1, s)) for s in range(k)]
            edges += [(0, 1, (2, 0, 1)), (0, 1, (2, 0, 1)), (1, 2, (0, 0, 0)), (1, 2, (-1, 2, k - 1))]
            g = make_graph(k, 3, edges)
            graphs = [g, random_graph(k, 4, 12, rng)]
            for g in graphs:
                for bound in (8, 10**18):
                    d = random_directions(g, rng.randrange(1 << 31), bound)
                    for directions in (d, fractional(d, rng)):
                        rows = assemble_direction_system(g, directions).rows
                        exact_rows = scalar_direction_rows(g, directions)
                        assert len(rows) == len(exact_rows) == g.m
                        # rows hold their nonzero entries only, loops merged
                        assert all(a or b for row in rows for a, b in row.values()), (k, bound)
                        for i, (row, exact) in enumerate(zip(rows, exact_rows)):
                            assert primitive(row) == primitive(_integral_row(enumerate(exact))), (k, bound, i)
                        if k == 2:
                            assert any(2 * g.n + 3 in row for row in rows)

    def test_rejected_directions(self):
        g = make_graph(3, 1, [(0, 0, (0, 0, 1))])
        with pytest.raises(ValueError, match="one direction per edge"):
            realize(g, [])
        with pytest.raises(ValueError, match="zero direction"):
            realize(g, [(F(0), 0)])
        with pytest.raises(ValueError, match="directions must be rational"):
            assemble_direction_system(g, [(Scalar(1), 0)])


@lru_cache(maxsize=None)
def realize_bases():
    """(label, graph, integer directions) of seeded Laman bases at n = 10
    for every k, and of each basis plus one edge."""
    out = []
    for k in (2, 3, 4, 6):
        rng = random.Random(f"realize-int:{k}")
        base = laman_basis(k, 10, rng)
        plus = base.with_edge(rng.randrange(10), rng.randrange(10), random_element(base.context, rng))
        for label, g in ((f"k={k} basis", base), (f"k={k} plus", plus)):
            out.append((label, g, random_directions(g, rng.randrange(1 << 31), BOUND)))
    return out


class TestNormalizedKernel:
    def test_equals_scalar_division_at_scale(self):
        irrational_leads = 0
        for label, system, dim in scale_systems():
            if dim != 1:
                continue
            (row,) = rank_and_kernel(system.rows, system.ncols)[1]
            vec = kernel_vector(row, system.ncols)
            assert _divided(row, system.ncols, min(row)) == normalize_kernel_vector(vec), label
            # divided by its free-column entry, the row is the reduced echelon vector
            assert _divided(row, system.ncols, max(row)) == vec, label
            irrational_leads += bool(next(x for x in vec if x).b)
        assert irrational_leads

    def test_realize_equals_scalar_route(self):
        irrational_leads = 0
        for label, g, directions in realize_bases():
            ncols = rz._ncols(g)
            _, kernel = eliminated(integral(scalar_direction_rows(g, directions)), ncols)
            result = realize(g, directions)
            if label.endswith("basis"):
                assert isinstance(result, Realization), label
                assert coordinates(result) == normalize_kernel_vector(kernel[0]), label
                irrational_leads += bool(next(x for x in kernel[0] if x).b)
            else:
                assert isinstance(result, RealizationDiagnosis), label
                assert [kernel_vector(row, ncols) for row in result.kernel] == kernel, label
        assert irrational_leads

    def test_fraction_directions(self):
        rng = random.Random(73)
        for label, g, directions in realize_bases():
            frac = fractional(directions, rng)
            cleared = []
            for x, y in frac:
                den = x.denominator * y.denominator
                cleared.append((int(x * den), int(y * den)))
            assert realize(g, frac) == realize(g, cleared), label

    def test_one_elimination_and_no_scalar_route(self, monkeypatch):
        # a faithful realize eliminates once and does no Scalar arithmetic:
        # its rows are integral and its kernel is scaled from integers
        rng = random.Random("realize-no-scalar")
        bases = [(k, laman_basis(k, 10, rng)) for k in (2, 3, 4, 6) for _ in range(5)]
        directions = [random_directions(g, rng.randrange(1 << 31), BOUND) for _, g in bases]
        calls = []
        eliminate = rz.rank_and_kernel

        def counting(rows, ncols):
            calls.append(ncols)
            return eliminate(rows, ncols)

        def forbidden(*args):
            raise AssertionError("realize did Scalar arithmetic")

        monkeypatch.setattr(rz, "rank_and_kernel", counting)
        for op in ("__add__", "__sub__", "__mul__", "__rmul__", "__truediv__", "__neg__"):
            monkeypatch.setattr(Scalar, op, forbidden)
        for (k, g), d in zip(bases, directions):
            calls.clear()
            assert isinstance(rz.realize(g, d), Realization), k
            assert len(calls) == 1, k

    def test_faithful_realize_builds_at_most_ncols_scalars(self, monkeypatch):
        # the kernel row stays integral: the one division by its first
        # nonzero entry builds one Scalar per nonzero coordinate
        rng = random.Random("realize-scalar-count")
        bases = [laman_basis(k, 10, rng) for k in (2, 3, 4, 6) for _ in range(5)]
        directions = [random_directions(g, rng.randrange(1 << 31), BOUND) for g in bases]
        for k in (2, 3, 4, 6):
            rz.rotation_powers(k)  # the cached rotation tables are built once
        built = []
        init = Scalar.__init__

        def counting(self, a=0, b=0):
            built.append(None)
            init(self, a, b)

        monkeypatch.setattr(Scalar, "__init__", counting)
        for g, d in zip(bases, directions):
            built.clear()
            assert isinstance(realize(g, d), Realization), g.context.k
            assert 0 < len(built) <= rz._ncols(g), (g.context.k, len(built))
