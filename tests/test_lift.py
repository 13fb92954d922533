"""``lift_patch`` against the segment-by-segment lift of ``lift_oracle``.

The comparison is exact (float ``==``, no tolerance): ``lift_patch``
shares points and products but keeps the oracle's float evaluation order,
which is what keeps ``render``'s SVG bytes fixed.
"""

import random

import pytest

from crystal_rigidity import realization as rz
from crystal_rigidity.cli import _pick_render_realization
from crystal_rigidity.colored_graph import lift_patch, make_graph
from crystal_rigidity.generate import random_graph
from lift_oracle import as_tuples, lift_patch_oracle
from laman_bases import laman_basis


class _Real:
    def __init__(self, points, v1, v2=None):
        self.points = points
        self.v1 = v1
        self.v2 = v2


def _float_real(rng, k, n):
    pts = [(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(n)]
    v1 = (rng.uniform(0.5, 2), rng.uniform(-1, 1))
    # k = 2 has an independent second lattice vector.
    v2 = (rng.uniform(-1, 1), rng.uniform(0.5, 2)) if k == 2 else None
    return _Real(pts, v1, v2)


def _assert_same(g, real, radius):
    assert as_tuples(lift_patch(g, real, radius)) == lift_patch_oracle(g, real, radius)


@pytest.mark.parametrize("k", [2, 3, 4, 6])
@pytest.mark.parametrize("radius", [0, 1, 2, 3])
def test_seeded_graphs_match_oracle(k, radius):
    rng = random.Random(f"lift:{k}:{radius}")
    for _ in range(6):
        n = rng.randint(1, 5)
        g = random_graph(k, n, rng.randint(0, 2 * n + 4), rng, rng.choice([1, 2, 4]))
        _assert_same(g, _float_real(rng, k, n), radius)
        _assert_same(g, rz.random_realization(g, rng), radius)


@pytest.mark.parametrize("k", [2, 3, 4, 6])
def test_loops_and_far_colors(k):
    # Loops (tail == head), and colors with |m1| or |m2| > 2r, whose heads
    # fall outside the patch for every gamma in it.
    rng = random.Random(f"far:{k}")
    for radius in range(4):
        far = 2 * radius + 1
        g = make_graph(k, 3, [
            (0, 0, (1, 0, 0)),
            (1, 1, (0, 0, k - 1)),
            (2, 2, (-1, 1, 1 % k)),
            (0, 1, (far, 0, 0)),
            (1, 2, (0, -far, k - 1)),
            (2, 0, (far + 3, -far - 2, 1 % k)),
            (2, 1, (-10**6, 10**6, 0)),
        ])
        _assert_same(g, _float_real(rng, k, 3), radius)
        _assert_same(g, rz.random_realization(g, rng), radius)


@pytest.mark.parametrize("k", [2, 3, 4, 6])
def test_faithful_realizations(k):
    rng = random.Random(f"lift-faithful:{k}")
    for n in (1, 3, 5):
        g = laman_basis(k, n, rng)
        real = rz.realize(g, rz.random_directions(g, rng.randrange(10**6), 10**9))
        assert isinstance(real, rz.Realization)
        for radius in range(4):
            _assert_same(g, real, radius)


def test_fallback_render_realizations():
    # The kernel vectors ``render`` draws when no faithful realization
    # exists (``_pick_render_realization``).
    rng = random.Random("lift-pick")
    fallbacks = 0
    for trial in range(40):
        k = (2, 3, 4, 6)[trial % 4]
        n = rng.randint(1, 4)
        g = random_graph(k, n, rng.randint(1, 2 * n + 5), rng)
        seed = rng.randrange(10**6)
        real = _pick_render_realization(g, seed, 100)
        if real is None or isinstance(rz.realize(g, rz.random_directions(g, seed, 100)), rz.Realization):
            continue
        fallbacks += 1
        for radius in range(4):
            _assert_same(g, real, radius)
    assert fallbacks >= 10
