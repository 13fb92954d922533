"""Output checks, with the benchmark's own exact arithmetic.

Scalars of Q(sqrt 3) are pairs (a, b) of Fractions meaning a + b sqrt 3.
Nothing here imports the library under test.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from instances import Edge, counts, rep_full

Q = Tuple[Fraction, Fraction]
ZERO: Q = (Fraction(0), Fraction(0))
_HALF = Fraction(1, 2)
# (cos, sin) of 2 pi / k in Q(sqrt 3).
_COS_SIN = {
    2: ((Fraction(-1), Fraction(0)), ZERO),
    3: ((-_HALF, Fraction(0)), (Fraction(0), _HALF)),
    4: (ZERO, (Fraction(1), Fraction(0))),
    6: ((_HALF, Fraction(0)), (Fraction(0), _HALF)),
}
_SCALAR = re.compile(r"^(-?\d+(?:/\d+)?)(?:([+-])(\d+(?:/\d+)?)\*sqrt3)?$")


def parse_scalar(text: str) -> Q:
    """Parse the library's printed form: ``p/q`` or ``p/q+r/s*sqrt3``."""
    m = _SCALAR.match(text.strip())
    if not m:
        raise ValueError(f"bad scalar {text!r}")
    b = Fraction(m.group(3)) if m.group(3) else Fraction(0)
    return (Fraction(m.group(1)), -b if m.group(2) == "-" else b)


def add(x: Q, y: Q) -> Q:
    return (x[0] + y[0], x[1] + y[1])


def mul(x: Q, y: Q) -> Q:
    return (x[0] * y[0] + 3 * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def scale(c: int, x: Q) -> Q:
    return (c * x[0], c * x[1])


def _mat_vec(r, v):
    return (add(mul(r[0][0], v[0]), mul(r[0][1], v[1])),
            add(mul(r[1][0], v[0]), mul(r[1][1], v[1])))


def _rotation_powers(k: int):
    c, s = _COS_SIN[k]
    r = ((c, scale(-1, s)), (s, c))
    one = (Fraction(1), Fraction(0))
    out = [((one, ZERO), (ZERO, one))]
    for _ in range(k - 1):
        a = out[-1]
        out.append(tuple(
            tuple(add(mul(r[i][0], a[0][j]), mul(r[i][1], a[1][j])) for j in range(2))
            for i in range(2)
        ))
    return out


def realization_ok(k: int, n: int, edges: Sequence[Edge], directions, payload: dict) -> bool:
    """A faithful realization of the direction network: every edge vector
    is nonzero and parallel to its direction, and the lattice is nontrivial."""
    pts = [(parse_scalar(x), parse_scalar(y)) for x, y in payload["points"]]
    v1 = (parse_scalar(payload["v1"][0]), parse_scalar(payload["v1"][1]))
    rot = _rotation_powers(k)
    if k == 2:
        v2 = (parse_scalar(payload["v2"][0]), parse_scalar(payload["v2"][1]))
    else:
        v2 = _mat_vec(rot[1], v1)
    if len(pts) != n or len(directions) != len(edges):
        return False
    if all(c == ZERO for c in v1 + v2):
        return False
    for (t, h, m1, m2, s), (dx, dy) in zip(edges, directions):
        q = _mat_vec(rot[s], pts[h])
        w = tuple(
            add(add(q[i], scale(m1, v1[i])), add(scale(m2, v2[i]), scale(-1, pts[t][i])))
            for i in range(2)
        )
        if w[0] == ZERO and w[1] == ZERO:
            return False
        if add(scale(dy, w[0]), scale(-dx, w[1])) != ZERO:
            return False
    return True


def partition_ok(k: int, n: int, edges: Sequence[Edge], partition) -> bool:
    """Two disjoint parts covering every edge, each a basis of the g-matroid."""
    x, y = partition
    if sorted(list(x) + list(y)) != list(range(len(edges))):
        return False
    size = n + rep_full(k) // 2
    for part in (x, y):
        _, g = counts(k, n, [edges[i] for i in part])
        if len(part) != size or g != size:
            return False
    return True


def circuit_of(payload: dict) -> Optional[list]:
    c = payload.get("circuit")
    return None if c is None else sorted(c)
