"""``cli._svg_document`` against the dict-keyed writer of ``svg_oracle``.

The writer reads the columns of ``lift_patch``; the oracle reads the
``PlacedVertex`` / ``PlacedSegment`` tuples of ``lift_oracle``.  Their SVG
bytes must be equal, at every radius and for heads inside and outside the
patch, which the digest corpus (radius 1, n <= 12) does not reach.
"""

import random

import pytest

from crystal_rigidity import realization as rz
from crystal_rigidity.cli import _pick_render_realization, _svg_document
from crystal_rigidity.colored_graph import lift_patch, make_graph
from crystal_rigidity.generate import random_graph
from laman_bases import laman_basis
from lift_oracle import lift_patch_oracle
from svg_oracle import svg_document_oracle


class _Real:
    def __init__(self, points, v1, v2=None):
        self.points = points
        self.v1 = v1
        self.v2 = v2


def _float_real(rng, k, n):
    pts = [(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(n)]
    v1 = (rng.uniform(0.5, 2), rng.uniform(-1, 1))
    v2 = (rng.uniform(-1, 1), rng.uniform(0.5, 2)) if k == 2 else None
    return _Real(pts, v1, v2)


def _first_difference(got, want):
    """(line number, got line, wanted line) of the first line that differs:
    a short report in place of a text diff of two large documents."""
    got, want = got.splitlines(), want.splitlines()
    for i, (a, b) in enumerate(zip(got, want)):
        if a != b:
            return i, a, b
    return min(len(got), len(want)), len(got), len(want)


def _assert_same_svg(g, real, radius):
    got = _svg_document(lift_patch(g, real, radius))
    want = svg_document_oracle(lift_patch_oracle(g, real, radius))
    same = got == want
    assert same, _first_difference(got, want)
    assert got.count("<line") == len(g.edges) * (2 * radius + 1) ** 2 * g.context.k


@pytest.mark.parametrize("k", [2, 3, 4, 6])
@pytest.mark.parametrize("radius", [0, 1, 2, 3])
def test_seeded_graphs(k, radius):
    rng = random.Random(f"svg:{k}:{radius}")
    for _ in range(4):
        n = rng.randint(1, 5)
        g = random_graph(k, n, rng.randint(0, 2 * n + 4), rng, rng.choice([1, 2, 4]))
        _assert_same_svg(g, _float_real(rng, k, n), radius)
        _assert_same_svg(g, rz.random_realization(g, rng), radius)


@pytest.mark.parametrize("k", [2, 3, 4, 6])
def test_loops_and_far_colors(k):
    # Loops, and colors with |m1| or |m2| > 2r, whose heads fall outside
    # the patch for every element in it.
    rng = random.Random(f"svg-far:{k}")
    for radius in range(4):
        far = 2 * radius + 1
        g = make_graph(k, 3, [
            (0, 0, (1, 0, 0)),
            (1, 1, (0, 0, k - 1)),
            (0, 1, (far, 0, 0)),
            (1, 2, (0, -far, k - 1)),
            (2, 0, (far + 3, -far - 2, 1 % k)),
            (2, 1, (-10**6, 10**6, 0)),
        ])
        _assert_same_svg(g, _float_real(rng, k, 3), radius)
        _assert_same_svg(g, rz.random_realization(g, rng), radius)


@pytest.mark.parametrize("k", [2, 3, 4, 6])
def test_faithful_and_echelon_realizations(k):
    # What ``render`` draws: the faithful realization of a Laman basis,
    # and the echelon fallback of the basis minus two edges.
    rng = random.Random(f"svg-render:{k}")
    basis = laman_basis(k, 4, rng)
    dropped = set(rng.sample(range(basis.m), 2))
    under = make_graph(
        k, 4, [(e.tail, e.head, tuple(e.color)) for i, e in enumerate(basis.edges) if i not in dropped]
    )
    seed = rng.randrange(10**6)
    faithful = _pick_render_realization(basis, seed, 10**9)
    fallback = _pick_render_realization(under, seed, 10**9)
    assert isinstance(faithful, rz.Realization)
    assert not isinstance(rz.realize(under, rz.random_directions(under, seed, 10**9)), rz.Realization)
    for radius in range(4):
        _assert_same_svg(basis, faithful, radius)
        _assert_same_svg(under, fallback, radius)


def test_edgeless_graph():
    g = make_graph(3, 2, [])
    _assert_same_svg(g, _float_real(random.Random("svg-edgeless"), 3, 2), 1)
