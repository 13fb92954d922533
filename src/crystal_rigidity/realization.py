"""Exact direction-network and infinitesimal-rigidity linear systems.

Systems are assembled in Q or Q(sqrt 3), represented as pairs of
rationals, and kernels come from exact sparse Gauss-Jordan elimination,
so realizations never lose genericity to floating point.  The generic
rigidity rank only needs to be certified from below, so it is computed
mod the prime P = 2^61 - 31 instead: a nonzero minor mod P is a nonzero
minor over Q(sqrt 3), so rank mod P never exceeds the exact rank and the
error is one-sided.  The systems are homogeneous in the unknowns
(p_1 .. p_n, v_1 (, v_2)) with the rotation center pinned at the origin
and the orientation sign fixed to +1.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import List, Optional, Sequence, Tuple

from . import sparsity
from .colored_graph import ColoredGraph
from .groups import GroupElement


_FZERO = Fraction(0)


class Scalar:
    """Element a + b*sqrt(3) of Q(sqrt 3) with exact rational parts."""

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        self.a = a if isinstance(a, Fraction) else Fraction(a)
        self.b = b if isinstance(b, Fraction) else Fraction(b)

    # Entries of the k = 2, 4 systems, and many of the k = 3, 6 ones, have
    # a zero sqrt 3 part; skipping Fraction arithmetic on it makes exact
    # elimination and assembly markedly faster.

    def __add__(self, other: "Scalar") -> "Scalar":
        if not (self.b or other.b):
            return Scalar(self.a + other.a, _FZERO)
        return Scalar(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "Scalar") -> "Scalar":
        if not (self.b or other.b):
            return Scalar(self.a - other.a, _FZERO)
        return Scalar(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "Scalar":
        return Scalar(-self.a, -self.b)

    def __mul__(self, other: "Scalar") -> "Scalar":
        a, b, c, d = self.a, self.b, other.a, other.b
        if not b:
            return Scalar(a * c, a * d if d else _FZERO)
        if not d:
            return Scalar(a * c, b * c)
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
            return str(self.a)
        if self.b < 0:
            return f"{self.a}-{-self.b}*sqrt3"
        return f"{self.a}+{self.b}*sqrt3"


ZERO = Scalar(0)
ONE = Scalar(1)
HALF = Scalar(Fraction(1, 2))
HALF_SQRT3 = Scalar(0, Fraction(1, 2))

# Exact counterclockwise rotation by 2*pi/k.
_GEOM_ROTATION = {
    2: ((-ONE, ZERO), (ZERO, -ONE)),
    3: ((-HALF, -HALF_SQRT3), (HALF_SQRT3, -HALF)),
    4: ((ZERO, -ONE), (ONE, ZERO)),
    6: ((HALF, -HALF_SQRT3), (HALF_SQRT3, HALF)),
}

_ROT_POWERS: dict = {}


def geom_rotation(k: int):
    return _GEOM_ROTATION[k]


def rotation_powers(k: int):
    """R_k^s for s = 0..k-1, exact."""
    if k not in _ROT_POWERS:
        ident = ((ONE, ZERO), (ZERO, ONE))
        powers = [ident]
        r = _GEOM_ROTATION[k]
        for _ in range(k - 1):
            last = powers[-1]
            powers.append(
                (
                    (
                        r[0][0] * last[0][0] + r[0][1] * last[1][0],
                        r[0][0] * last[0][1] + r[0][1] * last[1][1],
                    ),
                    (
                        r[1][0] * last[0][0] + r[1][1] * last[1][0],
                        r[1][0] * last[0][1] + r[1][1] * last[1][1],
                    ),
                )
            )
        _ROT_POWERS[k] = tuple(powers)
    return _ROT_POWERS[k]


def _mat_vec(m, v):
    return (m[0][0] * v[0] + m[0][1] * v[1], m[1][0] * v[0] + m[1][1] * v[1])


def _mat_t_vec(m, v):
    return (m[0][0] * v[0] + m[1][0] * v[1], m[0][1] * v[0] + m[1][1] * v[1])


def _scalar_pair(v) -> Tuple[Scalar, Scalar]:
    return (
        v[0] if isinstance(v[0], Scalar) else Scalar(v[0]),
        v[1] if isinstance(v[1], Scalar) else Scalar(v[1]),
    )


def perp(v) -> Tuple[Scalar, Scalar]:
    x, y = _scalar_pair(v)
    return (-y, x)


def translation_part(
    k: int, gamma: GroupElement, v1, v2=None
) -> Tuple[Scalar, Scalar]:
    """Translation vector of Phi(gamma) with the rotation center pinned.

    k = 2 uses m1*v1 + m2*v2; otherwise the image of t2 is R_k v1, giving
    m1*v1 + m2*R_k v1.
    """
    v1 = _scalar_pair(v1)
    m1, m2 = Scalar(gamma[0]), Scalar(gamma[1])
    if k == 2:
        v2 = _scalar_pair(v2)
        return (m1 * v1[0] + m2 * v2[0], m1 * v1[1] + m2 * v2[1])
    rv1 = _mat_vec(geom_rotation(k), v1)
    return (m1 * v1[0] + m2 * rv1[0], m1 * v1[1] + m2 * rv1[1])


@dataclass(frozen=True)
class LinearSystem:
    """Homogeneous exact system; columns are [p_0 .. p_{n-1}, v1(, v2)]."""

    k: int
    n: int
    rows: Tuple[Tuple[Scalar, ...], ...]
    zero_rows: Tuple[int, ...] = ()

    @property
    def ncols(self) -> int:
        return 2 * self.n + (4 if self.k == 2 else 2)

    @property
    def nrows(self) -> int:
        return len(self.rows)


def _assemble(g: ColoredGraph, row_vectors: Sequence[Tuple[Scalar, Scalar]]) -> LinearSystem:
    """Rows <Phi(gamma_ij) x_j - x_i, w_ij> = 0 for given covectors w."""
    k = g.context.k
    n = g.n
    ncols = 2 * n + (4 if k == 2 else 2)
    pows = rotation_powers(k)
    rows: List[Tuple[Scalar, ...]] = []
    zero_rows = []
    for idx, e in enumerate(g.edges):
        w = row_vectors[idx]
        row = [ZERO] * ncols
        m1, m2, s = e.color.t1, e.color.t2, e.color.s
        rw = _mat_t_vec(pows[s], w)
        row[2 * e.head] = row[2 * e.head] + rw[0]
        row[2 * e.head + 1] = row[2 * e.head + 1] + rw[1]
        row[2 * e.tail] = row[2 * e.tail] - w[0]
        row[2 * e.tail + 1] = row[2 * e.tail + 1] - w[1]
        sm1, sm2 = Scalar(m1), Scalar(m2)
        if k == 2:
            row[2 * n] = row[2 * n] + sm1 * w[0]
            row[2 * n + 1] = row[2 * n + 1] + sm1 * w[1]
            row[2 * n + 2] = row[2 * n + 2] + sm2 * w[0]
            row[2 * n + 3] = row[2 * n + 3] + sm2 * w[1]
        else:
            rtw = _mat_t_vec(geom_rotation(k), w)
            row[2 * n] = row[2 * n] + sm1 * w[0] + sm2 * rtw[0]
            row[2 * n + 1] = row[2 * n + 1] + sm1 * w[1] + sm2 * rtw[1]
        if not any(row):
            zero_rows.append(idx)
        rows.append(tuple(row))
    return LinearSystem(k, n, tuple(rows), tuple(zero_rows))


def assemble_direction_system(g: ColoredGraph, directions) -> LinearSystem:
    """System whose kernel is the pinned realization space of the network."""
    if len(directions) != g.m:
        raise ValueError("need one direction per edge")
    covectors = []
    for d in directions:
        dv = _scalar_pair(d)
        if not (dv[0] or dv[1]):
            raise ValueError("zero direction rejected")
        covectors.append(perp(dv))
    return _assemble(g, covectors)


def rank_and_kernel(
    rows: Sequence[Sequence[Scalar]], ncols: int
) -> Tuple[int, List[Tuple[Scalar, ...]]]:
    """Exact rank and kernel basis by sparse Gauss-Jordan elimination.

    Rows are held as ``{column: Scalar}`` with zeros dropped, and a row
    operation touches only the pivot row's nonzeros.  Each column takes
    its pivot from the shortest candidate row.  The reduced row echelon
    form is unique, so the kernel basis (one vector per free column, 1 in
    that column, in column order) does not depend on that choice.
    """
    pending = [{c: x for c, x in enumerate(row) if x} for row in rows]
    reduced: List[Tuple[int, dict]] = []
    for c in range(ncols):
        hits = [i for i, row in enumerate(pending) if c in row]
        if not hits:
            continue
        pivot = pending.pop(min(hits, key=lambda i: len(pending[i])))
        pv = pivot[c]
        if pv != ONE:
            pivot = {j: x / pv for j, x in pivot.items()}
        for row in pending:
            if c in row:
                _subtract_multiple(row, pivot, row[c])
        reduced.append((c, pivot))
    # Back substitution: clear each pivot column above its pivot row.
    for i in range(len(reduced) - 1, 0, -1):
        c, pivot = reduced[i]
        for _, row in reduced[:i]:
            if c in row:
                _subtract_multiple(row, pivot, row[c])
    pivot_cols = {c for c, _ in reduced}
    kernel = {fc: [ZERO] * ncols for fc in range(ncols) if fc not in pivot_cols}
    for fc, vec in kernel.items():
        vec[fc] = ONE
    for pc, row in reduced:
        for fc, x in row.items():
            if fc != pc:
                kernel[fc][pc] = -x
    return len(reduced), [tuple(vec) for vec in kernel.values()]


def _subtract_multiple(row: dict, pivot: dict, factor: Scalar) -> None:
    """row -= factor * pivot in place, dropping entries that become zero."""
    for j, x in pivot.items():
        y = row.get(j)
        v = -(factor * x) if y is None else y - factor * x
        if v:
            row[j] = v
        elif y is not None:
            del row[j]


# P = 2^61 - 31 is prime and P = 1 (mod 12), so 3 is a square mod P.
P = 2305843009213693921
SQRT3_MOD_P = 1357490219032204553  # SQRT3_MOD_P ** 2 % P == 3


def _row_mod_p(row: Sequence[Scalar]) -> List[int]:
    """The row times the lcm of its denominators, an element of Z[sqrt 3]^n,
    mapped into F_P by sqrt 3 -> SQRT3_MOD_P.

    Scaling does not change the rank over Q(sqrt 3), and the map is a ring
    homomorphism defined on every entry, whatever the denominators.
    """
    den = 1
    for x in row:
        if x:
            den = lcm(den, x.a.denominator, x.b.denominator)
    return [
        (
            x.a.numerator * (den // x.a.denominator)
            + x.b.numerator * (den // x.b.denominator) * SQRT3_MOD_P
        )
        % P
        for x in row
    ]


def rank_mod_p(rows: Sequence[Sequence[Scalar]], ncols: int) -> int:
    """Rank over F_P of the rows cleared of denominators (``_row_mod_p``).

    Every minor mod P is the image of a minor over Z[sqrt 3], so this is a
    lower bound on the exact rank, equal to it unless P divides the
    relevant minors.
    """
    pending = [_row_mod_p(row) for row in rows]
    rank = 0
    for c in range(ncols):
        i = next((i for i, row in enumerate(pending) if row[c]), None)
        if i is None:
            continue
        pivot = pending.pop(i)
        inv = pow(pivot[c], -1, P)
        for row in pending:
            if row[c]:
                f = row[c] * inv % P
                for j in range(c, ncols):
                    if pivot[j]:
                        row[j] = (row[j] - f * pivot[j]) % P
        rank += 1
    return rank


def random_directions(g: ColoredGraph, seed: int, bound: int = 100):
    """Seeded integer directions, uniform in [-bound, bound], never zero."""
    if bound < 8:
        raise ValueError("bound must be at least 8")
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
        """Phi(gamma) applied to a point."""
        p = _scalar_pair(p)
        rp = _mat_vec(rotation_powers(self.k)[gamma[2] % self.k], p)
        tr = translation_part(self.k, gamma, self.v1, self.v2)
        return (tr[0] + rp[0], tr[1] + rp[1])

    def is_trivial(self) -> bool:
        """Whether the representation sends every translation to zero."""
        if self.v1[0] or self.v1[1]:
            return False
        if self.k == 2 and (self.v2[0] or self.v2[1]):
            return False
        return True


@dataclass(frozen=True)
class RealizationDiagnosis:
    """Why no faithful realization was produced."""

    kernel_dim: int
    collapsed_edges: Tuple[int, ...]
    reason: str


def realization_from_vector(g: ColoredGraph, vec: Sequence[Scalar]) -> Realization:
    k = g.context.k
    n = g.n
    points = tuple((vec[2 * i], vec[2 * i + 1]) for i in range(n))
    v1 = (vec[2 * n], vec[2 * n + 1])
    v2 = (vec[2 * n + 2], vec[2 * n + 3]) if k == 2 else None
    return Realization(k, points, v1, v2)


def edge_vectors(g: ColoredGraph, real: Realization) -> List[Tuple[Scalar, Scalar]]:
    """Phi(gamma_ij) p_j - p_i for every edge."""
    out = []
    for e in g.edges:
        q = real.phi_apply(e.color, real.points[e.head])
        p = real.points[e.tail]
        out.append((q[0] - p[0], q[1] - p[1]))
    return out


def _normalize_kernel_vector(vec: Sequence[Scalar]) -> Tuple[Scalar, ...]:
    lead = next((x for x in vec if x), None)
    if lead is None:
        return tuple(vec)
    return tuple(x / lead for x in vec)


def realize(g: ColoredGraph, directions):
    """Solve the direction network; a faithful Realization or a diagnosis.

    A 1-dimensional kernel is scaled so its first nonzero coordinate is 1
    and checked for faithfulness (no collapsed edge, nontrivial
    translation representation).  Anything else is explained by the
    kernel dimension and the edges that collapse in every kernel vector
    (scaling a vector does not change which edges collapse).  Finding a
    Laman circuit is left to ``sparsity.find_laman_circuit``.
    """
    system = assemble_direction_system(g, directions)
    _, kernel = rank_and_kernel(system.rows, system.ncols)
    dim = len(kernel)
    if dim == 1:
        kernel = [_normalize_kernel_vector(kernel[0])]
    reals = [realization_from_vector(g, vec) for vec in kernel]
    per_vector = [edge_vectors(g, real) for real in reals]
    collapsed = tuple(
        i
        for i in range(g.m)
        if all(not (vecs[i][0] or vecs[i][1]) for vecs in per_vector)
    )
    if dim == 1:
        if not collapsed and not reals[0].is_trivial():
            return reals[0]
        reason = "unique solution is not faithful"
    elif dim == 0:
        reason = f"collapsed (kernel dim {dim})"
    else:
        reason = f"kernel dimension {dim}, realization not unique up to scale"
    return RealizationDiagnosis(kernel_dim=dim, collapsed_edges=collapsed, reason=reason)


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
    unknowns (q, u); a collapsed edge yields a flagged zero row.
    """
    return _assemble(g, edge_vectors(g, real))


def random_realization(g: ColoredGraph, rng: random.Random, bound: int = 100) -> Realization:
    k = g.context.k
    coords = [Scalar(rng.randint(-bound, bound)) for _ in range(2 * g.n)]
    points = tuple((coords[2 * i], coords[2 * i + 1]) for i in range(g.n))
    v1 = (Scalar(rng.randint(-bound, bound)), Scalar(rng.randint(-bound, bound)))
    v2 = (
        (Scalar(rng.randint(-bound, bound)), Scalar(rng.randint(-bound, bound)))
        if k == 2
        else None
    )
    return Realization(k, points, v1, v2)


def generic_rigidity_rank(
    g: ColoredGraph, seed: int, samples: int, bound: int = 100
) -> int:
    """Max rank mod P of the rigidity system over seeded integer samples.

    Each draw is a lower bound on the generic rank: the rank mod P never
    exceeds the exact rank at the sample point, which never exceeds the
    generic rank.  So the error is one-sided: a reported full rank is
    certain, and a deficient one is wrong only if every sample is
    non-generic (each with probability at most deg / (2 * bound + 1) by
    Schwartz's lemma) or P divides every maximal nonzero minor of the
    sample.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    rng = random.Random(seed)
    best = 0
    for _ in range(samples):
        real = random_realization(g, rng, bound)
        system = rigidity_matrix(g, real)
        best = max(best, rank_mod_p(system.rows, system.ncols))
    return best


def collapsed_dim_bound(g: ColoredGraph) -> int:
    """Guaranteed dimension of collapsed solutions of any direction system."""
    report = sparsity.count_report(g)
    t_sum = sum(c.t for c in report.components)
    return g.context.full_translation_rep - report.rep + t_sum
