"""The segment-by-segment lift, kept as a test oracle for ``lift_patch``.

Every point is placed by its own float isometry, and every segment head
by one ``GroupContext.compose`` and one more isometry, in the float
evaluation order ``lift_patch`` promises to keep:
x = ((m1*v1x + m2*v2x) + r00*px) + r01*py, and likewise for y.

The oracle describes a patch as one tuple per placed point and segment
(``PlacedPatch``); ``as_tuples`` expands the columns of a ``LiftedPatch``
into the same form, so the two compare exactly.
"""

from typing import NamedTuple, Tuple

from crystal_rigidity.colored_graph import LiftedPatch, _rotation_floats


class PlacedVertex(NamedTuple):
    vertex: int
    element: Tuple[int, int, int]
    x: float
    y: float


class PlacedSegment(NamedTuple):
    edge: int
    element: Tuple[int, int, int]
    x1: float
    y1: float
    x2: float
    y2: float


class PlacedPatch(NamedTuple):
    points: Tuple[PlacedVertex, ...]
    segments: Tuple[PlacedSegment, ...]
    cell: Tuple[Tuple[float, float], Tuple[float, float]]  # float images of t1, t2


def as_tuples(patch: LiftedPatch) -> PlacedPatch:
    """The placed points and segments that the columns of ``patch`` hold."""
    elements, n, xs, ys, tails, heads, cell = patch
    points = tuple(
        PlacedVertex(i % n, elements[i // n], xs[i], ys[i]) for i in range(len(elements) * n)
    )
    segments = tuple(
        PlacedSegment(j // len(elements), elements[j % len(elements)], xs[t], ys[t], xs[h], ys[h])
        for j, (t, h) in enumerate(zip(tails, heads))
    )
    return PlacedPatch(points, segments, cell)


def lift_patch_oracle(g, realization, radius: int) -> PlacedPatch:
    ctx = g.context
    k = ctx.k
    rot_pows = [_rotation_floats(k, s) for s in range(k)]
    v1 = (float(realization.v1[0]), float(realization.v1[1]))
    if k == 2:
        v2 = (float(realization.v2[0]), float(realization.v2[1]))
    else:
        rot = rot_pows[1]
        v2 = (
            rot[0][0] * v1[0] + rot[0][1] * v1[1],
            rot[1][0] * v1[0] + rot[1][1] * v1[1],
        )
    points_f = [(float(p[0]), float(p[1])) for p in realization.points]

    def apply(gamma, p):
        m1, m2, s = gamma
        r = rot_pows[s % k]
        return (
            m1 * v1[0] + m2 * v2[0] + r[0][0] * p[0] + r[0][1] * p[1],
            m1 * v1[1] + m2 * v2[1] + r[1][0] * p[0] + r[1][1] * p[1],
        )

    patch = [
        (a, b, s)
        for a in range(-radius, radius + 1)
        for b in range(-radius, radius + 1)
        for s in range(k)
    ]
    points = []
    for gamma in patch:
        for i, p in enumerate(points_f):
            x, y = apply(gamma, p)
            points.append(PlacedVertex(i, gamma, x, y))
    n = len(points_f)
    segments = []
    for idx, e in enumerate(g.edges):
        for at, gamma in enumerate(patch):
            tail = points[at * n + e.tail]
            x2, y2 = apply(ctx.compose(gamma, e.color), points_f[e.head])
            segments.append(PlacedSegment(idx, gamma, tail.x, tail.y, x2, y2))
    return PlacedPatch(tuple(points), tuple(segments), (v1, v2))
