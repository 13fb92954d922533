"""Exact direction-network and infinitesimal-rigidity linear systems.

Every row, exact or mod P, is a sparse ``{column: entry}`` dict from one
row loop, and every system is eliminated by one pivot loop with a row
operation per field.  Exact systems (``LinearSystem``) have integer rows
over Z[sqrt 3].  Every rotation table is read off one source, the integer
parts of 2 R_k^s.  Direction rows are assembled in integers from rational
directions cleared of denominators; rigidity rows over Q(sqrt 3)
(``Scalar``), cleared of denominators once.  Kernels come from exact
fraction-free elimination over Z or Z[sqrt 3], so realizations never lose
genericity to floating point: the echelon rows of either ring are read
over Z[sqrt 3] and back-substituted by one routine, once per free column,
in integers (the loop of the kernel mod P); each kernel vector is an
integer row in the same format.  A direction system is eliminated in a
fill-reducing column order, with its free columns mod P last when it has
been decided mod P, and its kernel read back as the natural order gives
it.  A realization's coordinates stay integers over one positive
denominator (``_Quotient``): its ``str`` costs a gcd per part, drawing
it an int division per part, and rationals are built only for
arithmetic on it.  The generic
rigidity rank only needs to be certified from below, so it is computed
mod the prime P = 2^61 - 31 instead: a nonzero minor mod P is a nonzero
minor over Q(sqrt 3), so rank mod P never exceeds the exact rank and the
error is one-sided.  Edge vectors are evaluated mod P too, to rule out
collapsed edges: the map of an integer kernel row into F_P is a ring
homomorphism, so an edge vector that is nonzero mod P is nonzero; one
that vanishes mod P is checked exactly.  A direction system that cannot
have a unique faithful solution (m != ncols - 1 rows) is decided mod P
too, with exact elimination only as a fallback: a rank r_P mod P that
reaches min(m, ncols) is the exact rank, since r_P <= r <= min(m, ncols);
and an edge collapses iff its parallel row (covector d instead of perp d)
lies in the row space, so a parallel row that raises the rank mod P
raises the exact rank, and its edge does not collapse.  The systems are
homogeneous in the unknowns (p_1 .. p_n, v_1 (, v_2)) with the rotation
center pinned at the origin and the orientation sign fixed to +1.
"""

from __future__ import annotations

import random
from decimal import Decimal
from fractions import Fraction
from functools import cache, cached_property, partial
from heapq import heapify, heappop, heappush
from itertools import chain
from math import gcd, lcm
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import sparsity
from .colored_graph import MAX_BOUND, MAX_SAMPLES, ColoredGraph, Edge
from .groups import GroupElement


def _rational_str(p: int, q: int) -> str:
    """str(Fraction(p, q)) of a reduced p / q with q > 0, also past the
    interpreter's limit on the digits of an int converted to text (a limit
    for parsing): ``Decimal`` formats ints of any size with the same
    characters as ``str``."""
    num = str(Decimal(p))
    return num if q == 1 else f"{num}/{Decimal(q)}"


def _scalar_str(ap: int, aq: int, bp: int, bq: int) -> str:
    """str(Scalar) of ap/aq + (bp/bq)*sqrt(3), both parts reduced."""
    if bp == 0:
        return _rational_str(ap, aq)
    sign = "-" if bp < 0 else "+"
    return f"{_rational_str(ap, aq)}{sign}{_rational_str(abs(bp), bq)}*sqrt3"


class Scalar:
    """Element a + b*sqrt(3) of Q(sqrt 3) with exact rational parts."""

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        self.a = a if isinstance(a, Fraction) else Fraction(a)
        self.b = b if isinstance(b, Fraction) else Fraction(b)

    def __add__(self, other: "Scalar") -> "Scalar":
        return Scalar(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "Scalar") -> "Scalar":
        return Scalar(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "Scalar":
        return Scalar(-self.a, -self.b)

    def __rmul__(self, m: int) -> "Scalar":
        """m * self for an integer m."""
        return Scalar(self.a * m, self.b * m)

    def __mul__(self, other: "Scalar") -> "Scalar":
        a, b, c, d = self.a, self.b, other.a, other.b
        return Scalar(a * c + 3 * b * d, a * d + b * c)

    def __truediv__(self, other: "Scalar") -> "Scalar":
        norm = other.a * other.a - 3 * other.b * other.b
        if norm == 0:
            raise ZeroDivisionError("division by zero scalar")
        return self * Scalar(other.a / norm, -other.b / norm)

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    def __eq__(self, other) -> bool:
        return isinstance(other, Scalar) and self.a == other.a and self.b == other.b

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * 1.7320508075688772

    def __repr__(self) -> str:
        return f"Scalar({self.a!r}, {self.b!r})"

    def __str__(self) -> str:
        a, b = self.a, self.b
        return _scalar_str(a.numerator, a.denominator, b.numerator, b.denominator)


class _Quotient(Scalar):
    """The Scalar (x + y*sqrt(3)) / d for integers x, y and d > 0, as read
    off an integer kernel row: ``float`` is one correctly rounded int
    division per part, equal to that of the reduced parts, and ``str`` one
    gcd per part.  The rational parts ``a`` and ``b`` are built on first
    read, so the arithmetic of ``Scalar`` applies unchanged."""

    __slots__ = ("x", "y", "d")

    def __init__(self, x: int, y: int, d: int):
        self.x, self.y, self.d = x, y, d

    def __getattr__(self, name: str):
        # Reached only while the slots a and b are unset.
        if name not in ("a", "b"):
            raise AttributeError(name)
        self.a, self.b = Fraction(self.x, self.d), Fraction(self.y, self.d)
        return getattr(self, name)

    def __float__(self) -> float:
        return self.x / self.d + self.y / self.d * 1.7320508075688772

    def __str__(self) -> str:
        x, y, d = self.x, self.y, self.d
        ga, gb = gcd(x, d), gcd(y, d)
        return _scalar_str(x // ga, d // ga, y // gb, d // gb)


ZERO = Scalar(0)
ONE = Scalar(1)

# P = 2^61 - 31 is prime and P = 1 (mod 12), so 3 is a square mod P.
P = 2305843009213693921
SQRT3_MOD_P = 1357490219032204553  # SQRT3_MOD_P ** 2 % P == 3
_HALF_MOD_P = (P + 1) // 2

# 2 (cos, sin) at 0, 30 and 60 degrees, as its rational and sqrt 3 parts.
_COS_SIN_2 = ((2, 0), (0, 1), (1, 0))
_COS_SIN_2_SQRT3 = ((0, 0), (1, 0), (0, 1))


def _rotations(k: int, cos_sin):
    """The matrices ((c, -n), (n, c)) for s = 0..k-1 from a (cos, sin)
    table: 12s/k steps of 30 degrees, that is, quarter turns plus 0, 30 or
    60 degrees.  Linear in the table."""
    powers = []
    for s in range(k):
        quarters, rest = divmod(12 * s // k, 3)
        c, n = cos_sin[rest]
        for _ in range(quarters):
            c, n = -n, c
        powers.append(((c, -n), (n, c)))
    return tuple(powers)


@cache
def _rotation_parts(k: int):
    """(A, B): the integer matrices with 2 R_k^s = A_s + sqrt(3) B_s for
    s = 0..k-1, where R_k is the counterclockwise rotation by 2*pi/k.  B is
    zero for k = 2, 4.  Every rotation table is read off these."""
    return _rotations(k, _COS_SIN_2), _rotations(k, _COS_SIN_2_SQRT3)


def _halved(k: int, entry):
    """R_k^s for s = 0..k-1 with each entry ``entry(a, b)`` for the entry
    (a + b*sqrt(3)) / 2 of R_k^s."""
    return tuple(
        tuple(tuple(map(entry, ra, rb)) for ra, rb in zip(ma, mb))
        for ma, mb in zip(*_rotation_parts(k))
    )


@cache
def rotation_powers(k: int):
    """R_k^s for s = 0..k-1, exact."""
    return _halved(k, lambda a, b: Scalar(Fraction(a, 2), Fraction(b, 2)))


@cache
def _rotation_powers_mod_p(k: int):
    """The images of ``rotation_powers(k)`` in F_P (1/2 -> (P+1)/2,
    sqrt 3 -> SQRT3_MOD_P)."""
    return _halved(k, lambda a, b: (a + b * SQRT3_MOD_P) * _HALF_MOD_P % P)


def _mat_vec(m, v):
    return (m[0][0] * v[0] + m[0][1] * v[1], m[1][0] * v[0] + m[1][1] * v[1])


def _mat_t_vec(m, v):
    return (m[0][0] * v[0] + m[1][0] * v[1], m[0][1] * v[0] + m[1][1] * v[1])


def _lattice(k: int, pows, v1, v2):
    """The images (v1, v2) of t1 and t2; v2 is R_k v1 unless k = 2."""
    return (v1, v2) if k == 2 else (v1, _mat_vec(pows[1], v1))


def _phi(pows, gamma, p, lattice):
    """Phi(gamma) p = m1*v1 + m2*v2 + R^s p over the field of the rotation
    table ``pows``: Scalar entries for Q(sqrt 3), or ints for F_P (left
    unreduced)."""
    (v1, v2), (m1, m2, s) = lattice, gamma
    r = _mat_vec(pows[s % len(pows)], p)
    return (m1 * v1[0] + m2 * v2[0] + r[0], m1 * v1[1] + m2 * v2[1] + r[1])


# {column: (a, b)} over the nonzero entries a + b*sqrt(3) of a row over Z[sqrt 3].
Row = Dict[int, Tuple[int, int]]


class LinearSystem(NamedTuple):
    """Homogeneous exact system in ``ncols`` unknowns (``_ncols``).

    Each row is a ``Row``, a positive multiple of the row over Q(sqrt 3)
    that defines it, so the rank and kernel are those of the system over
    Q(sqrt 3).
    """

    rows: Tuple[Row, ...]
    ncols: int


def _ncols(g: ColoredGraph) -> int:
    """Unknowns [p_0 .. p_{n-1}, v1(, v2)]: 2n + rep of the full lattice."""
    return 2 * g.n + g.context.full_translation_rep


def _rows(g: ColoredGraph, row_vectors, pows) -> List[dict]:
    """Rows <Phi(gamma_ij) x_j - x_i, w_ij> = 0 for given covectors w, as
    ``{column: entry}``, over the field of the rotation table ``pows`` (as
    in ``_phi``), or over Z with an integer table: R_k^s for k = 2, 4, or
    one integer part of 2 R_k^s (``_rotation_parts``).  Entries may be
    zero; each caller drops them.

    Every term reads the table, the tail and translation terms through
    ``pows[0]`` (the identity of a field), so the rows are linear in the
    table and one part of a table gives that part of the rows.
    """
    k = g.context.k
    t = 2 * g.n
    rows: List[dict] = []
    for e, w in zip(g.edges, row_vectors):
        rw = _mat_t_vec(pows[e.color.s], w)
        iw = _mat_t_vec(pows[0], w)
        h, i = 2 * e.head, 2 * e.tail
        if h == i:
            row = {h: rw[0] - iw[0], h + 1: rw[1] - iw[1]}
        else:
            row = {h: rw[0], h + 1: rw[1], i: -iw[0], i + 1: -iw[1]}
        m1, m2 = e.color.t1, e.color.t2
        if k == 2:
            row[t], row[t + 1] = m1 * iw[0], m1 * iw[1]
            row[t + 2], row[t + 3] = m2 * iw[0], m2 * iw[1]
        else:
            rtw = _mat_t_vec(pows[1], w)
            row[t] = m1 * iw[0] + m2 * rtw[0]
            row[t + 1] = m1 * iw[1] + m2 * rtw[1]
        rows.append(row)
    return rows


def _covectors(g: ColoredGraph, directions) -> List[Tuple[int, int]]:
    """perp(d) = (-y, x) of each rational direction d = (x, y) cleared of
    denominators, a positive multiple of d; scaling a direction does not
    change the network."""
    if len(directions) != g.m:
        raise ValueError("need one direction per edge")
    covectors = []
    for d in directions:
        try:
            x, y = (v if isinstance(v, int) else Fraction(v) for v in d)
        except TypeError:
            raise ValueError("directions must be rational") from None
        if not (x or y):
            raise ValueError("zero direction rejected")
        den = lcm(x.denominator, y.denominator)
        covectors.append((-y.numerator * (den // y.denominator), x.numerator * (den // x.denominator)))
    return covectors


def assemble_direction_system(g: ColoredGraph, directions) -> LinearSystem:
    """System whose kernel is the pinned realization space of the network.

    ``_rows`` runs over the integer directions (``_covectors``) once per
    part of 2 R_k^s (``_rotation_parts``), so each row is 2 lcm(denominators
    of its direction) times the row over Q(sqrt 3).  For k = 2, 4, R_k^s is
    integral; the rows are assembled once over it, at half that multiple.
    """
    k = g.context.k
    covectors = _covectors(g, directions)
    if k in (2, 4):
        rows_a = _rows(g, covectors, _halved(k, lambda a, _: a // 2))
        rows = ({j: (a, 0) for j, a in row.items() if a} for row in rows_a)
    else:
        a_pows, b_pows = _rotation_parts(k)
        rows = (
            {j: (a, rb[j]) for j, a in ra.items() if a or rb[j]}
            for ra, rb in zip(_rows(g, covectors, a_pows), _rows(g, covectors, b_pows))
        )
    return LinearSystem(tuple(rows), _ncols(g))


def _eliminate(pending: List[dict], ncols: int, prepare, clear) -> List[Tuple[int, dict]]:
    """The pivot loop of every elimination, over sparse ``{column: entry}``
    rows, which it consumes: (column, pivot row) in column order.

    Each column takes its pivot from the shortest candidate row
    (Markowitz's rule), readied by ``prepare(row, c)``, and ``clear(row,
    pivot, c)`` removes column c, in place, from every other row that has
    it, touching only the pivot row's nonzeros and dropping zeros.
    """
    reduced: List[Tuple[int, dict]] = []
    for c in range(ncols):
        hits = [i for i, row in enumerate(pending) if c in row]
        if not hits:
            continue
        pivot = prepare(pending.pop(min(hits, key=lambda i: len(pending[i]))), c)
        for row in pending:
            if c in row:
                clear(row, pivot, c)
        reduced.append((c, pivot))
    return reduced


def rank_and_kernel(rows: Sequence[Row], ncols: int) -> Tuple[int, List[Row]]:
    """Exact rank and kernel basis by fraction-free sparse elimination and
    back substitution.

    The rows are copied, never changed.  When no entry has a sqrt 3 part
    they are eliminated as ``{column: a}`` over Z.  The pivot loop is
    ``_eliminate``; a row operation replaces a row by an integer
    combination of it and the pivot row that clears the pivot column
    (``_clear_ints`` / ``_clear_pairs``), and divides out the row's integer
    content.  Over Z[sqrt 3] each pivot row is first multiplied by the
    conjugate of its pivot (``_rationalize``), so every pivot is a positive
    integer.  At full column rank the kernel is empty and back substitution
    is skipped; otherwise echelon rows over Z become ``Row``s with positive
    pivots (``_as_pairs``), and one back substitution over Z[sqrt 3]
    (``_kernel``) gives the basis, one kernel row per free column.
    """
    pending = [row for row in rows if row]
    pairs = any(b for row in pending for _, b in row.values())
    if pairs:
        pending = [_divide_content(dict(row), True) for row in pending]
        prepare, clear = _rationalize, _clear_pairs
    else:
        pending = [_divide_content({j: a for j, (a, _) in row.items()}, False) for row in pending]
        prepare, clear = (lambda row, _: row), _clear_ints
    reduced = _eliminate(pending, ncols, prepare, clear)
    if len(reduced) == ncols:
        return ncols, []
    if not pairs:
        reduced = [(c, _as_pairs(row, c)) for c, row in reduced]
    return len(reduced), _kernel(reduced, ncols)


def _as_pairs(row: dict, c: int) -> Row:
    """The row over Z as a ``Row``, negated if its entry at c is negative."""
    if row[c] < 0:
        return {j: (-a, 0) for j, a in row.items()}
    return {j: (a, 0) for j, a in row.items()}


def _free_columns(reduced: List[Tuple[int, dict]], ncols: int):
    """(fc, the echelon rows of pivot columns before fc, last first) for each
    free column fc of the echelon rows ``reduced``, in column order.  Rows
    of later pivot columns vanish on the kernel vector with 0 at the free
    columns other than fc."""
    pivot_cols = [c for c, _ in reduced]
    above = 0
    for fc in range(ncols):
        if above < len(pivot_cols) and pivot_cols[above] == fc:
            above += 1
        else:
            yield fc, reduced[above - 1 :: -1] if above else ()


def _kernel(reduced: List[Tuple[int, Row]], ncols: int) -> List[Row]:
    """The kernel basis of echelon rows over Z[sqrt 3] with positive integer
    pivots: per free column fc, in column order, x = {fc: 1} solved upward
    (the loop of the kernel mod P), x[pc] = -s / p for the pivot p of row
    pc and s the sum of row[j] x[j], with x first scaled by p / g,
    g = gcd(p, both parts of s), so it stays integral; then divided by its
    content.  As p > 0, x[fc] stays positive: x is the one primitive
    integer multiple of the reduced echelon kernel vector (1 at fc, 0 at
    the other free columns) positive at fc, whatever the pivot order."""
    kernel = []
    for fc, rows in _free_columns(reduced, ncols):
        x = {fc: (1, 0)}
        for pc, row in rows:
            sa = sb = 0
            for j, (a, b) in row.items():
                if j in x:
                    c, d = x[j]
                    sa += a * c + 3 * b * d
                    sb += a * d + b * c
            if sa or sb:
                p = row[pc][0]
                g = gcd(p, sa, sb)
                if p != g:
                    m = p // g
                    for j, (a, b) in x.items():
                        x[j] = (a * m, b * m)
                x[pc] = (-sa // g, -sb // g)
        g = gcd(*chain.from_iterable(x.values()))
        kernel.append({j: (x[j][0] // g, x[j][1] // g) for j in sorted(x)})
    return kernel


def _natural_kernel(rows: List[Row]) -> List[Row]:
    """The kernel basis ``rank_and_kernel`` returns, read off the primitive
    rows of any basis of the same kernel, which it consumes.

    That basis is the reduced row echelon form of the kernel with each
    row's pivot at its last column: the pivots are the free columns of the
    natural order, and the row of free column fc is the kernel vector with
    0 past fc and at the other free columns.  Each row is cleared at its
    last column while that is an earlier row's pivot (``_clear_pairs``),
    then rationalized there (``_rationalize``); then, from the lowest pivot
    up, every row is cleared at the lower pivots it holds, by rows already
    reduced, which add no pivot column.  So every row is a
    positive integer multiple of its vector, made primitive by its row
    operations.  A 1-dimensional kernel only rationalizes its row at its
    last column.
    """
    pivots: Dict[int, Row] = {}
    for row in rows:
        c = max(row)
        while c in pivots:
            _clear_pairs(row, pivots[c], c)
            c = max(row)
        pivots[c] = _rationalize(row, c)
    free = sorted(pivots)
    for c in free:
        row = pivots[c]
        for q in [j for j in row if j != c and j in pivots]:
            _clear_pairs(row, pivots[q], q)
    return [{j: pivots[c][j] for j in sorted(pivots[c])} for c in free]


def _divide_content(row: dict, pairs: bool) -> dict:
    """The row divided by the gcd of its integer parts, in place."""
    g = gcd(*chain.from_iterable(row.values())) if pairs else gcd(*row.values())
    if g != 1:
        if pairs:
            for j, (a, b) in row.items():
                row[j] = (a // g, b // g)
        else:
            for j, a in row.items():
                row[j] = a // g
    return row


def _rationalize(row: dict, c: int) -> dict:
    """The row over Z[sqrt 3] times the conjugate of its entry at c, divided
    by its content and signed so that entry is a positive integer."""
    pa, pb = row[c]
    if pb:
        row = _divide_content(
            {j: (a * pa - 3 * b * pb, b * pa - a * pb) for j, (a, b) in row.items()}, True
        )
    if row[c][0] < 0:
        row = {j: (-a, -b) for j, (a, b) in row.items()}
    return row


def _clear_ints(row: dict, pivot: dict, c: int) -> None:
    """row <- (p/g)*row - (f/g)*pivot in place, with p and f the entries at c
    and g = gcd(p, f), then divided by its content; zeros are dropped."""
    p, f = pivot[c], row[c]
    g = gcd(p, f)
    if g != 1:
        p, f = p // g, f // g
    if p != 1:
        for j, a in row.items():
            row[j] = a * p
    for j, x in pivot.items():
        v = row.get(j, 0) - f * x
        if v:
            row[j] = v
        else:
            del row[j]
    if row:
        _divide_content(row, False)


def _clear_pairs(row: dict, pivot: dict, c: int) -> None:
    """``_clear_ints`` over Z[sqrt 3], for a pivot row whose entry at c is
    the positive integer p: row <- (p/g)*row - (f/g)*pivot with
    g = gcd(p, f_a, f_b)."""
    p, (fa, fb) = pivot[c][0], row[c]
    g = gcd(p, fa, fb)
    if g != 1:
        p, fa, fb = p // g, fa // g, fb // g
    if p != 1:
        for j, (a, b) in row.items():
            row[j] = (a * p, b * p)
    for j, (xa, xb) in pivot.items():
        y = row.get(j)
        ma, mb = fa * xa + 3 * fb * xb, fa * xb + fb * xa
        if y is None:
            row[j] = (-ma, -mb)
        else:
            a, b = y[0] - ma, y[1] - mb
            if a or b:
                row[j] = (a, b)
            else:
                del row[j]
    if row:
        _divide_content(row, True)


def _integral_row(entries) -> Row:
    """The (column, Scalar) ``entries`` times the lcm of their
    denominators, as a ``Row``; zeros are dropped."""
    nonzero = [(j, x.a, x.b) for j, x in entries if x.a or x.b]
    den = 1
    for _, a, b in nonzero:
        den = lcm(den, a.denominator, b.denominator)
    return {
        j: (a.numerator * (den // a.denominator), b.numerator * (den // b.denominator))
        for j, a, b in nonzero
    }


def _mod_p(entries) -> Dict[int, int]:
    """``{column: x mod P}`` of (column, integer) ``entries``, with the
    entries that vanish mod P dropped."""
    return {j: v for j, x in entries if (v := x % P)}


def _row_mod_p(row: Row) -> Dict[int, int]:
    """The row mapped into F_P by sqrt 3 -> SQRT3_MOD_P, a ring
    homomorphism on Z[sqrt 3]."""
    return _mod_p((j, a + b * SQRT3_MOD_P) for j, (a, b) in row.items())


def _monic_mod_p(row: dict, c: int) -> dict:
    """The row over F_P scaled so its entry at c is 1."""
    inv = pow(row[c], -1, P)
    return {j: x * inv % P for j, x in row.items()}


def _clear_mod_p(row: dict, pivot: dict, c: int) -> None:
    """row <- row - f*pivot over F_P in place, for a pivot row with 1 at c
    and f the row's entry at c; zeros are dropped."""
    f = row[c]
    for j, x in pivot.items():
        v = (row.get(j, 0) - f * x) % P
        if v:
            row[j] = v
        else:
            del row[j]


def rank_mod_p(rows: Sequence[Row], ncols: int) -> int:
    """Rank over F_P of the rows (``_row_mod_p``), by the pivot loop of
    ``rank_and_kernel`` with a row operation over F_P.

    Every minor mod P is the image of a minor over Z[sqrt 3], so this is a
    lower bound on the exact rank, equal to it unless P divides the
    relevant minors.  The rank does not depend on the pivot order.
    """
    return len(_eliminate([_row_mod_p(row) for row in rows], ncols, _monic_mod_p, _clear_mod_p))


def _kernel_mod_p(reduced: List[Tuple[int, dict]], ncols: int) -> List[Dict[int, int]]:
    """A kernel basis over F_P of the monic echelon rows ``reduced`` (from
    ``_eliminate``), by back substitution: per free column fc, the vector
    with 1 at fc, 0 at the other free columns."""
    basis = []
    for fc, rows in _free_columns(reduced, ncols):
        x = {fc: 1}
        for c, row in rows:
            if v := -sum(a * x[j] for j, a in row.items() if j in x) % P:
                x[c] = v
        basis.append(x)
    return basis


def _check_bound(bound: int) -> None:
    if not 8 <= bound <= MAX_BOUND:
        raise ValueError(f"bound must be at least 8 and at most {MAX_BOUND}, got {bound}")


def random_directions(g: ColoredGraph, seed: int, bound: int = 100):
    """Seeded integer directions, uniform in [-bound, bound], never zero."""
    _check_bound(bound)
    rng = random.Random(seed)
    out = []
    for _ in range(g.m):
        while True:
            d = (rng.randint(-bound, bound), rng.randint(-bound, bound))
            if d != (0, 0):
                break
        out.append(d)
    return out


# ---------------------------------------------------------------------------
# Realizations.
# ---------------------------------------------------------------------------


class Realization(NamedTuple):
    """Points plus translation parameters; w = 0 and epsilon = +1 pinned."""

    k: int
    points: Tuple[Tuple[Scalar, Scalar], ...]
    v1: Tuple[Scalar, Scalar]
    v2: Optional[Tuple[Scalar, Scalar]]

    def phi_apply(self, gamma: GroupElement, p) -> Tuple[Scalar, Scalar]:
        """Phi(gamma) applied to a point; every coordinate must be a Scalar."""
        pows = rotation_powers(self.k)
        return _phi(pows, gamma, p, _lattice(self.k, pows, self.v1, self.v2))

    def is_trivial(self) -> bool:
        """Whether the representation sends every translation to zero."""
        if self.v1[0] or self.v1[1]:
            return False
        if self.k == 2 and (self.v2[0] or self.v2[1]):
            return False
        return True


class RealizationDiagnosis:
    """Why no faithful realization was produced.

    ``kernel_dim`` and ``collapsed_edges`` are exact, though ``realize``
    may decide them mod P: a rank r_P mod P that reaches its bound min(rows,
    ncols) is the exact rank, since r_P <= r <= that bound; and an edge
    whose parallel row raises the rank mod P raises the exact rank, so that
    row is not in the row space and the edge does not collapse.

    ``kernel`` is the exact kernel basis of the direction system as
    elimination returns it, computed on first read if ``realize`` did not
    need it: one ``Row`` per free column, the primitive integer vector
    whose last entry, at that column, is a positive integer
    (``rank_and_kernel``).  A read raises if its length is not
    ``kernel_dim``.

    The fields are read-only; the diagnosis compares, hashes and prints by
    all of them but ``exact_kernel``, the function ``kernel`` calls.
    """

    def __init__(self, kernel_dim: int, collapsed_edges: Tuple[int, ...], reason: str,
                 exact_kernel: Callable[[], Sequence[Row]]):
        vars(self).update(kernel_dim=kernel_dim, collapsed_edges=collapsed_edges, reason=reason,
                          exact_kernel=exact_kernel)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.kernel_dim, self.collapsed_edges, self.reason)
                == (other.kernel_dim, other.collapsed_edges, other.reason))

    def __hash__(self) -> int:
        return hash((self.kernel_dim, self.collapsed_edges, self.reason))

    def __repr__(self) -> str:
        return (f"RealizationDiagnosis(kernel_dim={self.kernel_dim!r}, "
                f"collapsed_edges={self.collapsed_edges!r}, reason={self.reason!r})")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    @cached_property
    def kernel(self) -> Tuple[Row, ...]:
        kernel = tuple(self.exact_kernel())
        if len(kernel) != self.kernel_dim:
            raise ArithmeticError(f"exact kernel dimension {len(kernel)} != decided {self.kernel_dim}")
        return kernel


def realization_from_vector(g: ColoredGraph, vec: Sequence[Scalar]) -> Realization:
    k = g.context.k
    n = g.n
    points = tuple((vec[2 * i], vec[2 * i + 1]) for i in range(n))
    v1 = (vec[2 * n], vec[2 * n + 1])
    v2 = (vec[2 * n + 2], vec[2 * n + 3]) if k == 2 else None
    return Realization(k, points, v1, v2)


def _edge_vectors(real: Realization, edges: Sequence[Edge], pows) -> list:
    """Phi(gamma_ij) p_j - p_i for the given edges, over the field of the
    rotation table ``pows`` (as in ``_phi``)."""
    lattice = _lattice(real.k, pows, real.v1, real.v2)
    out = []
    for e in edges:
        q = _phi(pows, e.color, real.points[e.head], lattice)
        p = real.points[e.tail]
        out.append((q[0] - p[0], q[1] - p[1]))
    return out


def edge_vectors(g: ColoredGraph, real: Realization) -> List[Tuple[Scalar, Scalar]]:
    """Phi(gamma_ij) p_j - p_i for every edge."""
    return _edge_vectors(real, g.edges, rotation_powers(real.k))


def _edge_vectors_mod_p(g: ColoredGraph, row: Row, edges: Sequence[Edge]):
    """The edge vectors, in F_P, of the realization with coordinate row
    ``row`` (``_row_mod_p``).

    That map is a ring homomorphism on Z[sqrt 3], and edge vectors are
    linear in the coordinates, so an edge vector that is nonzero here is
    nonzero exactly.
    """
    vec = _row_mod_p(row)
    real = realization_from_vector(g, [vec.get(j, 0) for j in range(_ncols(g))])
    out = _edge_vectors(real, edges, _rotation_powers_mod_p(real.k))
    return [(x % P, y % P) for x, y in out]


def collapsed_edges(g: ColoredGraph, rows: Sequence[Row]) -> Tuple[int, ...]:
    """The edges whose edge vector is zero in the realization of every one
    of the coordinate ``rows`` (kernel rows of the direction system, say);
    every edge when there is none.

    An edge that is nonzero mod P in some row (``_edge_vectors_mod_p``) is
    not collapsed; only the rest are checked with exact arithmetic, on the
    row read as ``Scalar``s: scaling a vector does not change which edges
    are zero.
    """
    pows = rotation_powers(g.context.k)
    suspects = list(range(g.m))
    for exact in (False, True):
        for row in rows:
            if not suspects:
                return ()
            edges = [g.edges[i] for i in suspects]
            if exact:
                vec = [ZERO] * _ncols(g)
                for j, (a, b) in row.items():
                    vec[j] = Scalar(a, b)
                out = _edge_vectors(realization_from_vector(g, vec), edges, pows)
            else:
                out = _edge_vectors_mod_p(g, row, edges)
            suspects = [i for i, v in zip(suspects, out) if not (v[0] or v[1])]
    return tuple(suspects)


def _quotients(row: Row, ncols: int, j: int) -> List[Scalar]:
    """The coordinate row divided by its entry a + b*sqrt(3) at column j,
    as ``_Quotient``s over one denominator N: each entry times the
    conjugate a - b*sqrt(3), over the norm N = a^2 - 3b^2, or over N = a
    itself when b = 0, with N made positive first."""
    a, b = row[j]
    ca, cb, d = (a, -b, a * a - 3 * b * b) if b else (1, 0, a)
    if d < 0:
        ca, cb, d = -ca, -cb, -d
    vec = [ZERO] * ncols
    for i, (x, y) in row.items():
        vec[i] = _Quotient(x * ca + 3 * y * cb, y * ca + x * cb, d)
    return vec


def echelon_realization(g: ColoredGraph, row: Row) -> Realization:
    """The realization of a kernel row of ``realize``'s diagnosis divided by
    its last entry, at its free column: the kernel vector of the reduced
    row echelon form, 1 at that column."""
    return realization_from_vector(g, _quotients(row, _ncols(g), max(row)))


def _decide_mod_p(g: ColoredGraph, covectors) -> Tuple[Optional[Tuple[int, Tuple[int, ...]]], List[int]]:
    """((kernel dimension, collapsed edges), free columns) of the direction
    system decided mod P (module docstring), with None for the decision
    when a rank mod P below min(m, ncols) or an edge whose parallel row
    does not raise it leaves exact elimination to decide.  The free
    columns are those of the natural order mod P, which ``_exact_kernel``
    puts last.

    The rows are assembled over F_P by ``_rows`` with
    ``_rotation_powers_mod_p``: each is the ``_row_mod_p`` image of the
    exact row up to the unit 1/2 or 1.  A parallel row raises the rank mod
    P iff it is nonzero on some vector of the kernel mod P.
    """
    ncols = _ncols(g)
    pows = _rotation_powers_mod_p(g.context.k)
    rows = [_mod_p(row.items()) for row in _rows(g, covectors, pows)]
    reduced = _eliminate(rows, ncols, _monic_mod_p, _clear_mod_p)
    pivots = {c for c, _ in reduced}
    free = [c for c in range(ncols) if c not in pivots]
    if len(reduced) < min(g.m, ncols):
        return None, free
    if not free:
        return (0, collapsed_edges(g, ())), free
    kernel = _kernel_mod_p(reduced, ncols)
    for row in _rows(g, [(y, -x) for x, y in covectors], pows):
        if not any(sum(a * x.get(j, 0) for j, a in row.items()) % P for x in kernel):
            return None, free
    return (len(kernel), ()), free


def _column_order(g: ColoredGraph) -> List[int]:
    """A fill-reducing order of the columns of ``g``'s systems: the point
    columns of each vertex in greedy minimum-degree order of the quotient
    graph, ties to the lower vertex, then the lattice columns.  Eliminating
    a vertex joins its remaining neighbours, as its pivot rows fill in the
    rows of theirs (Markowitz; George and Liu)."""
    adj = [set() for _ in range(g.n)]
    for e in g.edges:
        if e.tail != e.head:
            adj[e.tail].add(e.head)
            adj[e.head].add(e.tail)
    # (degree, vertex) entries, stale once the vertex is placed or its
    # degree changes
    heap = [(len(nbrs), v) for v, nbrs in enumerate(adj)]
    heapify(heap)
    placed = [False] * g.n
    order: List[int] = []
    while heap:
        degree, v = heappop(heap)
        if placed[v] or degree != len(adj[v]):
            continue
        placed[v] = True
        order += (2 * v, 2 * v + 1)
        for u in adj[v]:
            joined = adj[u]
            joined |= adj[v]
            joined.discard(u)
            joined.discard(v)
            heappush(heap, (len(joined), u))
    return order + list(range(2 * g.n, _ncols(g)))


def _exact_kernel(g: ColoredGraph, directions, last: Sequence[int] = ()) -> List[Row]:
    """The kernel rows of the direction system, by exact elimination in the
    order of ``_column_order`` with the columns ``last`` moved to its end,
    as the natural order gives them (``_natural_kernel``).  With ``last``
    the free columns of the natural order, those columns come out free,
    and each kernel row is already the natural one: clearing kernel rows
    against each other, which the read-back otherwise does, multiplies
    their entries before their content is divided out."""
    moved = set(last)
    order = [c for c in _column_order(g) if c not in moved] + list(last)
    at = {c: i for i, c in enumerate(order)}
    rows = [{at[j]: x for j, x in row.items()} for row in assemble_direction_system(g, directions).rows]
    kernel = rank_and_kernel(rows, len(order))[1]
    return _natural_kernel([{order[j]: x for j, x in row.items()} for row in kernel])


def realize(g: ColoredGraph, directions):
    """Solve the direction network; a faithful Realization or a diagnosis.

    A unique solution needs rank ncols - 1: a system of m < ncols - 1 rows
    has none, and one of m >= ncols rows only at a rank below min(m,
    ncols), which its decision mod P falls back on.  So a system of
    m = ncols - 1 rows (``assemble_direction_system``) is eliminated
    exactly over Z or Z[sqrt 3] at once; a 1-dimensional kernel is checked for
    faithfulness (no collapsed edge, a nonzero entry in a lattice column
    j >= 2n) and, if faithful, divided by its first nonzero coordinate, so
    that coordinate is 1, in integers (``_quotients``).  Any other
    system is decided mod P when it can be (``_decide_mod_p``): a rank r_P
    mod P that reaches min(m, ncols) is exact, since r_P <= r <= min(m,
    ncols); and an edge whose parallel row raises the rank mod P raises the
    exact rank, so it does not collapse.  Otherwise it too is eliminated
    exactly, with the free columns mod P last (``_exact_kernel``).
    Anything but a faithful solution is explained by the kernel dimension
    and the edges that collapse in every kernel row; the diagnosis
    computes the exact kernel only when it is read.  Finding a Laman
    circuit is left to ``sparsity.find_laman_circuit``.
    """
    directions = tuple(directions)
    ncols = _ncols(g)
    decided, free = _decide_mod_p(g, _covectors(g, directions)) if g.m != ncols - 1 else (None, ())
    if decided is None:
        kernel = _exact_kernel(g, directions, free)
        decided = len(kernel), collapsed_edges(g, kernel)
        if decided == (1, ()) and max(kernel[0]) >= 2 * g.n:
            return realization_from_vector(g, _quotients(kernel[0], ncols, min(kernel[0])))
        exact_kernel = partial(tuple, kernel)
    else:
        exact_kernel = partial(_exact_kernel, g, directions, free)
    dim, collapsed = decided
    if dim == 1:
        reason = "unique solution is not faithful"
    elif dim == 0:
        reason = f"collapsed (kernel dim {dim})"
    else:
        reason = f"kernel dimension {dim}, realization not unique up to scale"
    return RealizationDiagnosis(dim, collapsed, reason, exact_kernel)


# ---------------------------------------------------------------------------
# Infinitesimal rigidity.
# ---------------------------------------------------------------------------


def rigidity_matrix(g: ColoredGraph, real: Realization) -> LinearSystem:
    """Differentiated length system at a realization.

    Row ij is <Phi(gamma_ij) p_j - p_i, Phi'(gamma_ij) q_j - q_i> in the
    unknowns (q, u), assembled over Q(sqrt 3) and cleared of denominators
    (``_integral_row``); a collapsed edge yields an empty row.
    """
    rows = _rows(g, edge_vectors(g, real), rotation_powers(real.k))
    return LinearSystem(tuple(_integral_row(row.items()) for row in rows), _ncols(g))


def _random_coordinates(g: ColoredGraph, rng: random.Random, bound: int) -> List[int]:
    """Seeded integer coordinates [p_0 .. p_{n-1}, v1(, v2)] in [-bound, bound]."""
    return [rng.randint(-bound, bound) for _ in range(_ncols(g))]


def random_realization(g: ColoredGraph, rng: random.Random, bound: int = 100) -> Realization:
    return realization_from_vector(g, [Scalar(x) for x in _random_coordinates(g, rng, bound)])


def generic_rigidity_rank(g: ColoredGraph, seed: int, samples: int, bound: int = 100) -> int:
    """Max rank mod P of the rigidity system over seeded integer samples.

    Each draw is a lower bound on the generic rank: the rank mod P never
    exceeds the exact rank at the sample point, which never exceeds the
    generic rank.  So the error is one-sided: a reported full rank is
    certain, and a deficient one is wrong only if every sample is
    non-generic (each with probability at most deg / (2 * bound + 1) by
    Schwartz's lemma) or P divides every maximal nonzero minor of the
    sample.

    The rows are assembled over F_P from the ``random_realization`` draws,
    kept as integers, and ranked as ``rank_mod_p`` ranks.
    Sampling stops once the rank reaches min(m, 2n + rep - 1), which no
    sample can exceed: the infinitesimal rotation (J p, J v) is in the
    exact kernel at every realization.  So ``samples`` is a maximum, and
    the result equals the maximum over all of them.
    """
    if not 1 <= samples <= MAX_SAMPLES:
        raise ValueError(f"samples must be in [1, {MAX_SAMPLES}], got {samples}")
    _check_bound(bound)
    ncols = _ncols(g)
    cap = min(g.m, ncols - 1)
    pows = _rotation_powers_mod_p(g.context.k)
    rng = random.Random(seed)
    best = 0
    for _ in range(samples):
        real = realization_from_vector(g, _random_coordinates(g, rng, bound))
        w = [(x % P, y % P) for x, y in _edge_vectors(real, g.edges, pows)]
        rows = [_mod_p(row.items()) for row in _rows(g, w, pows)]
        best = max(best, len(_eliminate(rows, ncols, _monic_mod_p, _clear_mod_p)))
        if best >= cap:
            break
    return best


def collapsed_dim_bound(g: ColoredGraph) -> int:
    """Guaranteed dimension of collapsed solutions of any direction system."""
    report = sparsity.count_report(g)
    t_sum = sum(c.t for c in report.components)
    return g.context.full_translation_rep - report.rep + t_sum
