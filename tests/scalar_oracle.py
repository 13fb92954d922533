"""Test oracle of the exact systems: the direction system over Q(sqrt 3) in
``Scalar`` arithmetic, and a ``Scalar`` view of integral rows.

``assemble_direction_system`` builds its rows in integers over Z[sqrt 3],
each a positive multiple of its row over Q(sqrt 3).  ``scalar_direction_rows``
is that row over Q(sqrt 3), assembled here by its own dense loop over the
exact rotation table with ``Scalar`` covectors perp(d) = (-y, x), for
rational or Q(sqrt 3) directions; it shares no assembly code with the
library.  ``scalar_rows`` reads rows in the format of ``LinearSystem`` as
tuples of ``Scalar``, for the dense elimination oracle and the
floating-point cross-checks.  ``kernel_vector`` reads a kernel row of
``rank_and_kernel`` as the ``Scalar`` vector of reduced row echelon form,
after checking the row's contract.  ``divided`` is the division of a
coordinate row by one of its entries in reduced ``Fraction``s, the route
``realize`` and ``render`` took before they read their coordinates off
the integers (``realization._quotients``).
"""

from fractions import Fraction
from itertools import chain
from math import gcd

from crystal_rigidity.realization import ZERO, Scalar, rotation_powers


def _transposed(m, w):
    return (m[0][0] * w[0] + m[1][0] * w[1], m[0][1] * w[0] + m[1][1] * w[1])


def scalar_direction_rows(g, directions):
    """The direction system of ``g`` over Q(sqrt 3), one tuple per row:
    <Phi(gamma_ij) x_j - x_i, perp(d_ij)> in the unknowns
    [p_0 .. p_{n-1}, v1(, v2)], each term added into a dense row."""
    k, n = g.context.k, g.n
    pows = rotation_powers(k)
    ncols = 2 * n + (4 if k == 2 else 2)
    rows = []
    for e, d in zip(g.edges, directions):
        x, y = (v if isinstance(v, Scalar) else Scalar(v) for v in d)
        w = (-y, x)
        row = [ZERO] * ncols
        rw = _transposed(pows[e.color.s], w)
        row[2 * e.head] = row[2 * e.head] + rw[0]
        row[2 * e.head + 1] = row[2 * e.head + 1] + rw[1]
        row[2 * e.tail] = row[2 * e.tail] - w[0]
        row[2 * e.tail + 1] = row[2 * e.tail + 1] - w[1]
        m1, m2 = e.color.t1, e.color.t2
        if k == 2:
            row[2 * n] = row[2 * n] + m1 * w[0]
            row[2 * n + 1] = row[2 * n + 1] + m1 * w[1]
            row[2 * n + 2] = row[2 * n + 2] + m2 * w[0]
            row[2 * n + 3] = row[2 * n + 3] + m2 * w[1]
        else:
            rtw = _transposed(pows[1], w)
            row[2 * n] = row[2 * n] + m1 * w[0] + m2 * rtw[0]
            row[2 * n + 1] = row[2 * n + 1] + m1 * w[1] + m2 * rtw[1]
        rows.append(tuple(row))
    return rows


def scalar_rows(rows, ncols):
    """``{column: (a, b)}`` rows as tuples of ``Scalar(a, b)``."""
    out = []
    for row in rows:
        vec = [ZERO] * ncols
        for j, (a, b) in row.items():
            vec[j] = Scalar(a, b)
        out.append(tuple(vec))
    return out


def kernel_vector(row, ncols):
    """A kernel row ``{column: (a, b)}`` of ``rank_and_kernel`` as the
    kernel vector of reduced row echelon form, tuples of ``Scalar``.

    Checks the row's contract first: only nonzero entries, integer parts
    with gcd 1, and a last entry that is a positive integer with no sqrt 3
    part; the vector is the row divided by that entry.
    """
    assert row and all(a or b for a, b in row.values()), row
    assert gcd(*chain.from_iterable(row.values())) == 1, row
    _, (p, q) = max(row.items())
    assert p > 0 and q == 0, row
    vec = [ZERO] * ncols
    for j, (a, b) in row.items():
        vec[j] = Scalar(Fraction(a, p), Fraction(b, p))
    return tuple(vec)


def divided(row, ncols, j):
    """The coordinate row divided by its entry a + b*sqrt(3) at column j:
    each entry times the conjugate a - b*sqrt(3), over the norm
    a^2 - 3b^2, with one reduced Fraction per part."""
    a, b = row[j]
    norm = a * a - 3 * b * b
    vec = [ZERO] * ncols
    for i, (x, y) in row.items():
        vec[i] = Scalar(Fraction(x * a - 3 * y * b, norm), Fraction(y * a - x * b, norm))
    return tuple(vec)
