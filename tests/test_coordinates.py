"""Coordinates read off an integer kernel row against the reduced
``Fraction`` route.

``realization._quotients`` divides a coordinate row by its entry at one
column as ``_Quotient``s: integers over one positive denominator, whose
``float`` is one int true division per part and whose ``str`` is one gcd
per part.  ``realize`` and ``render`` read their coordinates that way.
Both must equal ``float`` and ``str`` of the reduced ``Scalar``s of
``scalar_oracle.divided``, the route they replaced, bit for bit (zero signs
included) and character for character, and the quotients must equal those
``Scalar``s.
"""

import random

import pytest

from crystal_rigidity import realization as rz
from crystal_rigidity.cli import _pick_render_realization, _svg_document
from crystal_rigidity.colored_graph import lift_patch, make_graph, parse_graph
from instances import grow_reference
from scalar_oracle import divided
from test_cli import DIM1, HUGE, HUGE_TEXT, UNDER3

BOUND = 10**9


def float_bits(x):
    """float(x) as its hex form, which tells -0.0 from 0.0, or the error
    it raises."""
    try:
        return float(x).hex()
    except OverflowError as ex:
        return repr(ex)


def assert_same_coordinates(row, ncols, j, label):
    got = rz._quotients(row, ncols, j)
    want = divided(row, ncols, j)
    assert [float_bits(x) for x in got] == [float_bits(x) for x in want], label
    assert [str(x) for x in got] == [str(x) for x in want], label
    assert [bool(x) for x in got] == [bool(x) for x in want], label
    assert tuple(got) == want, label
    return got


def coordinate_strs(real):
    """``str`` of every coordinate of a realization, points then lattice."""
    return [str(x) for p in (*real.points, real.v1, real.v2 or ()) for x in p]


def oracle_realization(g, row, j):
    return rz.realization_from_vector(g, divided(row, rz._ncols(g), j))


def basis(k, n):
    cands, flags, _, _ = grow_reference(k, n, random.Random(f"coordinates:{k}:{n}"))
    return make_graph(k, n, [(t, h, (m1, m2, s)) for (t, h, m1, m2, s), ok in zip(cands, flags) if ok])


class TestSeededBases:
    @pytest.mark.parametrize("k", [2, 3, 4, 6])
    @pytest.mark.parametrize("n", [10, 30, 60])
    def test_every_divisor_route(self, k, n):
        g = basis(k, n)
        ncols = rz._ncols(g)
        d = rz.random_directions(g, n, BOUND)
        (row,) = rz._exact_kernel(g, d)
        rng = random.Random(f"coordinates-columns:{k}:{n}")
        # realize's first nonzero entry, the echelon fallback's free column,
        # and a few others
        for j in {min(row), max(row), *rng.sample(sorted(row), 2)}:
            assert_same_coordinates(row, ncols, j, (k, n, j))
        real = rz.realize(g, d)
        want = oracle_realization(g, row, min(row))
        assert real == want
        assert coordinate_strs(real) == coordinate_strs(want)

    @pytest.mark.parametrize("k", [2, 3, 4, 6])
    def test_the_drawing_of_a_faithful_realization(self, k):
        g = basis(k, 10)
        d = rz.random_directions(g, 1, BOUND)
        (row,) = rz._exact_kernel(g, d)
        real = _pick_render_realization(g, 1, BOUND)
        want = oracle_realization(g, row, min(row))
        assert _svg_document(lift_patch(g, real, 1)) == _svg_document(lift_patch(g, want, 1))

    def test_the_drawing_of_the_echelon_fallback(self):
        for text in (UNDER3, DIM1):
            g = parse_graph(text)
            for seed in range(4):
                real = _pick_render_realization(g, seed, 100)
                result = rz.realize(g, rz.random_directions(g, seed, 100))
                row = next(r for r in result.kernel if rz.echelon_realization(g, r) == real)
                assert_same_coordinates(row, rz._ncols(g), max(row), (text, seed))
                want = oracle_realization(g, row, max(row))
                assert _svg_document(lift_patch(g, real, 2)) == _svg_document(lift_patch(g, want, 2))


class TestHandMadeRows:
    def test_negative_norm(self):
        # 1 + sqrt 3 has norm 1 - 3 = -2
        row = {0: (1, 1), 1: (5, -2), 3: (0, 7), 4: (-6, 0), 6: (-3, 11)}
        for j in row:
            assert_same_coordinates(row, 8, j, j)
        assert rz._quotients(row, 8, 0)[1].d == 2

    def test_zero_parts(self):
        # (2 + 2 sqrt 3) / (1 + sqrt 3) = 2 and (3 + sqrt 3) / (1 + sqrt 3)
        # = sqrt 3; columns 2 and 5 are zero
        row = {0: (1, 1), 1: (2, 2), 3: (3, 1), 4: (-3, -1), 6: (0, 1)}
        got = assert_same_coordinates(row, 7, 0, "zero parts")
        assert [str(x) for x in got] == ["1", "2", "0", "0+1*sqrt3", "0-1*sqrt3", "0", "3/2-1/2*sqrt3"]

    def test_rows_with_no_sqrt3_part(self):
        row = {0: (-4, 0), 2: (6, 0), 5: (-10, 0), 6: (7, 0)}
        for j in row:
            got = assert_same_coordinates(row, 7, j, j)
            # divided by |a|, not by the norm a^2
            assert {x.d for x in got if isinstance(x, rz._Quotient)} == {abs(row[j][0])}
        # a rational divisor in a row over Z[sqrt 3]
        row = {0: (3, 0), 1: (2, 5), 2: (-9, 6)}
        got = assert_same_coordinates(row, 3, 0, "rational divisor")
        assert [str(x) for x in got] == ["1", "2/3+5/3*sqrt3", "-3+2*sqrt3"]

    def test_past_the_int_digit_limit(self):
        row = {0: (HUGE, 1), 1: (3, -HUGE), 2: (1, 0), 3: (0, HUGE)}
        for j in row:
            assert_same_coordinates(row, 4, j, j)
        # over the entry 1 at column 2 the coordinates are the entries
        got = rz._quotients(row, 4, 2)
        assert str(got[1]) == f"3-{HUGE_TEXT}*sqrt3"
        assert float_bits(got[0]) == float_bits(rz.Scalar(HUGE, 1))

    def test_zero_signs_past_underflow(self):
        # Over 10^400 (1 + sqrt 3), of norm -2 * 10^800, the entries
        # -/+ (3 + sqrt 3) are -/+ 10^-400 sqrt 3: a rational part that is
        # exactly 0 and a sqrt 3 part that underflows to a signed zero.
        # float(Scalar) reads 0.0 + (-0.0) = 0.0, so a zero rational part
        # must be +0.0: its division has to be by a positive N.
        big = 10**400
        row = {0: (big, big), 1: (-3, -1), 2: (3, 1)}
        got = assert_same_coordinates(row, 3, 0, "underflow")
        assert [float_bits(x) for x in got[1:]] == ["0x0.0p+0", "0x0.0p+0"]


class TestQuotient:
    def test_scalar_arithmetic_and_hashing(self):
        q = rz._Quotient(6, -4, 8)
        s = rz.Scalar(rz.Fraction(3, 4), rz.Fraction(-1, 2))
        assert q == s and s == q and hash(q) == hash(s)
        assert q + rz.ONE == s + rz.ONE and q * q == s * s and 3 * q == 3 * s and -q == -s
        assert repr(q) == repr(s) and str(q) == str(s) == "3/4-1/2*sqrt3"
        assert float(q) == float(s)
        assert not rz._Quotient(0, 0, 5) and rz._Quotient(0, 0, 5) == rz.ZERO
        with pytest.raises(AttributeError):
            q.c
