"""Exact direction-network and infinitesimal-rigidity linear systems.

Every row, exact or mod P, is a sparse ``{column: entry}`` dict from one
row loop, and every system is eliminated by one pivot loop with a row
operation per field.  Exact systems (``LinearSystem``) have integer rows
over Z[sqrt 3].  Every rotation table is read off one source, the integer
parts of 2 R_k^s.  Direction rows are assembled in integers from rational
directions cleared of denominators; rigidity rows over Q(sqrt 3)
(``Scalar``), cleared of denominators once.  Kernels come from exact
fraction-free elimination over Z or Z[sqrt 3], so realizations never lose
genericity to floating point: the echelon rows are back-substituted once
per free column, in integers (the loop of the kernel mod P), and each
kernel vector is returned as an integer row in the same format; the only
rationals built are those of the realization a caller prints, by one
division.  The generic rigidity rank only needs to be
certified from below, so it is computed mod the prime P = 2^61 - 31
instead: a nonzero minor mod P is a nonzero minor over Q(sqrt 3), so rank
mod P never exceeds the exact rank and the error is one-sided.  Edge
vectors are evaluated mod P too, to rule out collapsed edges: the map of
an integer kernel row into F_P is a ring homomorphism, so an edge vector
that is nonzero mod P is nonzero; one that vanishes mod P is checked
exactly.  A direction system that cannot have a unique faithful solution
(m != ncols - 1 rows) is decided mod P too, with exact elimination only as
a fallback: a rank r_P mod P that reaches min(m, ncols) is the exact rank,
since r_P <= r <= min(m, ncols); and an edge collapses iff its parallel
row (covector d instead of perp d) lies in the row space, so a parallel
row that raises the rank mod P raises the exact rank, and its edge does
not collapse.  The systems are homogeneous in the unknowns (p_1 .. p_n,
v_1 (, v_2)) with the rotation center pinned at the origin and the
orientation sign fixed to +1.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from functools import cache, cached_property, partial
from itertools import chain
from math import gcd, lcm
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import sparsity
from .colored_graph import MAX_BOUND, MAX_SAMPLES, ColoredGraph, Edge
from .groups import GroupElement


def _rational_str(x: Fraction) -> str:
    """str(x), also past the interpreter's limit on the digits of an int
    converted to text (a limit for parsing): ``Decimal`` formats ints of any
    size with the same characters as ``str``."""
    num = str(Decimal(x.numerator))
    return num if x.denominator == 1 else f"{num}/{Decimal(x.denominator)}"


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
        if self.b == 0:
            return _rational_str(self.a)
        if self.b < 0:
            return f"{_rational_str(self.a)}-{_rational_str(-self.b)}*sqrt3"
        return f"{_rational_str(self.a)}+{_rational_str(self.b)}*sqrt3"


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


@dataclass(frozen=True)
class LinearSystem:
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
    integer.  The kernel basis is one ``Row`` per free column fc, in column
    order, solved from the echelon rows by ``_kernel_ints`` /
    ``_kernel_pairs``: the kernel vector of the reduced row echelon form (1
    at fc, 0 at the other free columns) as the primitive integer vector
    whose entry at fc, its last, is positive.  That vector is unique, so
    the basis does not depend on the pivot order, and no rational is
    built.  At full column rank the kernel is empty, and back substitution
    is skipped.
    """
    pending = [row for row in rows if row]
    pairs = any(b for row in pending for _, b in row.values())
    if pairs:
        pending = [_divide_content(dict(row), True) for row in pending]
        prepare, clear, solve = _rationalize, _clear_pairs, _kernel_pairs
    else:
        pending = [_divide_content({j: a for j, (a, _) in row.items()}, False) for row in pending]
        prepare, clear, solve = (lambda row, _: row), _clear_ints, _kernel_ints
    reduced = _eliminate(pending, ncols, prepare, clear)
    if len(reduced) == ncols:
        return ncols, []
    return len(reduced), solve(reduced, ncols)


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


def _kernel_ints(reduced: List[Tuple[int, dict]], ncols: int) -> List[Row]:
    """The kernel basis of ``rank_and_kernel`` from echelon rows over Z: per
    free column, x = {fc: 1} solved upward, x[pc] = -(sum of row[j] x[j]) / p
    for the pivot p of row pc, with x first scaled by p / gcd(p, sum) so it
    stays integral; then divided by its content and signed so x[fc] > 0."""
    kernel = []
    for fc, rows in _free_columns(reduced, ncols):
        x = {fc: 1}
        for pc, row in rows:
            s = sum(a * x[j] for j, a in row.items() if j in x)
            if s:
                p = row[pc]
                g = gcd(p, s)
                if p != g:
                    m = p // g
                    for j in x:
                        x[j] *= m
                x[pc] = -s // g
        g = gcd(*x.values())
        if x[fc] < 0:
            g = -g
        kernel.append({j: (x[j] // g, 0) for j in sorted(x)})
    return kernel


def _kernel_pairs(reduced: List[Tuple[int, dict]], ncols: int) -> List[Row]:
    """``_kernel_ints`` over Z[sqrt 3], for echelon rows whose pivots are
    positive integers (``_rationalize``): x is scaled by p / g with
    g = gcd(p, both parts of the sum)."""
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


@dataclass(frozen=True)
class Realization:
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


@dataclass(frozen=True)
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
    """

    kernel_dim: int
    collapsed_edges: Tuple[int, ...]
    reason: str
    exact_kernel: Callable[[], Sequence[Row]] = field(repr=False, compare=False)

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


def _divided(row: Row, ncols: int, j: int) -> Tuple[Scalar, ...]:
    """The coordinate row divided by its entry a + b*sqrt(3) at column j:
    each entry times the conjugate a - b*sqrt(3), over the norm
    a^2 - 3b^2, with one reduced Fraction per part."""
    a, b = row[j]
    norm = a * a - 3 * b * b
    vec = [ZERO] * ncols
    for i, (x, y) in row.items():
        vec[i] = Scalar(Fraction(x * a - 3 * y * b, norm), Fraction(y * a - x * b, norm))
    return tuple(vec)


def echelon_realization(g: ColoredGraph, row: Row) -> Realization:
    """The realization of a kernel row of ``realize``'s diagnosis divided by
    its last entry, at its free column: the kernel vector of the reduced
    row echelon form, 1 at that column."""
    return realization_from_vector(g, _divided(row, _ncols(g), max(row)))


def _decide_mod_p(g: ColoredGraph, covectors) -> Optional[Tuple[int, Tuple[int, ...]]]:
    """(kernel dimension, collapsed edges) of the direction system decided
    mod P (module docstring), or None when a rank mod P below min(m, ncols)
    or an edge whose parallel row does not raise it leaves exact
    elimination to decide.

    The rows are assembled over F_P by ``_rows`` with
    ``_rotation_powers_mod_p``: each is the ``_row_mod_p`` image of the
    exact row up to the unit 1/2 or 1.  A parallel row raises the rank mod
    P iff it is nonzero on some vector of the kernel mod P.
    """
    ncols = _ncols(g)
    pows = _rotation_powers_mod_p(g.context.k)
    rows = [_mod_p(row.items()) for row in _rows(g, covectors, pows)]
    reduced = _eliminate(rows, ncols, _monic_mod_p, _clear_mod_p)
    if len(reduced) < min(g.m, ncols):
        return None
    if len(reduced) == ncols:
        return 0, collapsed_edges(g, ())
    kernel = _kernel_mod_p(reduced, ncols)
    for row in _rows(g, [(y, -x) for x, y in covectors], pows):
        if not any(sum(a * x.get(j, 0) for j, a in row.items()) % P for x in kernel):
            return None
    return len(kernel), ()


def _exact_kernel(g: ColoredGraph, directions) -> List[Row]:
    """The kernel rows of the direction system, by exact elimination."""
    return rank_and_kernel(assemble_direction_system(g, directions).rows, _ncols(g))[1]


def realize(g: ColoredGraph, directions):
    """Solve the direction network; a faithful Realization or a diagnosis.

    A unique solution needs rank ncols - 1: a system of m < ncols - 1 rows
    has none, and one of m >= ncols rows only at a rank below min(m,
    ncols), which its decision mod P falls back on.  So a system of
    m = ncols - 1 rows (``assemble_direction_system``) is eliminated
    exactly over Z or Z[sqrt 3] at once; a 1-dimensional kernel is checked for
    faithfulness (no collapsed edge, a nonzero entry in a lattice column
    j >= 2n) and, if faithful, divided by its first nonzero coordinate, so
    that coordinate is 1; its rationals are the only ones built.  Any other
    system is decided mod P when it can be (``_decide_mod_p``): a rank r_P
    mod P that reaches min(m, ncols) is exact, since r_P <= r <= min(m,
    ncols); and an edge whose parallel row raises the rank mod P raises the
    exact rank, so it does not collapse.  Otherwise it too is eliminated
    exactly.  Anything but a faithful solution is explained by the kernel
    dimension and the edges that collapse in every kernel row; the
    diagnosis computes the exact kernel only when it is read.  Finding a
    Laman circuit is left to ``sparsity.find_laman_circuit``.
    """
    directions = tuple(directions)
    ncols = _ncols(g)
    decided = _decide_mod_p(g, _covectors(g, directions)) if g.m != ncols - 1 else None
    if decided is None:
        kernel = _exact_kernel(g, directions)
        decided = len(kernel), collapsed_edges(g, kernel)
        if decided == (1, ()) and max(kernel[0]) >= 2 * g.n:
            return realization_from_vector(g, _divided(kernel[0], ncols, min(kernel[0])))
        exact_kernel = partial(tuple, kernel)
    else:
        exact_kernel = partial(_exact_kernel, g, directions)
    dim, collapsed = decided
    if dim == 1:
        reason = "unique solution is not faithful"
    elif dim == 0:
        reason = f"collapsed (kernel dim {dim})"
    else:
        reason = f"kernel dimension {dim}, realization not unique up to scale"
    return RealizationDiagnosis(dim, collapsed, reason, exact_kernel)


def serialize_realization(real: Realization) -> str:
    lines = []
    for i, p in enumerate(real.points):
        lines.append(f"point {i} {p[0]} {p[1]}")
    lines.append(f"lattice v1 {real.v1[0]} {real.v1[1]}")
    if real.k == 2:
        lines.append(f"lattice v2 {real.v2[0]} {real.v2[1]}")
    return "\n".join(lines) + "\n"


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
