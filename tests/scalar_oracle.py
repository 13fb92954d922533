"""Test oracle of the exact systems: the direction system over Q(sqrt 3) in
``Scalar`` arithmetic, and a ``Scalar`` view of integral rows.

``assemble_direction_system`` builds its rows in integers over Z[sqrt 3],
each a positive multiple of its row over Q(sqrt 3).  ``scalar_direction_rows``
is that row over Q(sqrt 3): the library's row loop ``_rows`` over the exact
rotation table with ``Scalar`` covectors perp(d) = (-y, x), for rational or
Q(sqrt 3) directions.  ``scalar_rows`` reads rows in the format of
``LinearSystem`` as tuples of ``Scalar``, for the dense elimination oracle
and the floating-point cross-checks.
"""

from crystal_rigidity.realization import ZERO, Scalar, _rows, rotation_powers


def scalar_direction_rows(g, directions):
    """The direction system of ``g`` over Q(sqrt 3), one tuple per row."""
    covectors = []
    for d in directions:
        x, y = (v if isinstance(v, Scalar) else Scalar(v) for v in d)
        covectors.append((-y, x))
    return [tuple(row) for row in _rows(g, covectors, rotation_powers(g.context.k), ZERO)]


def scalar_rows(rows, ncols):
    """``{column: (a, b)}`` rows as tuples of ``Scalar(a, b)``."""
    out = []
    for row in rows:
        vec = [ZERO] * ncols
        for j, (a, b) in row.items():
            vec[j] = Scalar(a, b)
        out.append(tuple(vec))
    return out
