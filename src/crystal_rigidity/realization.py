"""Exact direction-network and infinitesimal-rigidity linear systems.

All arithmetic happens in Q or Q(sqrt 3) represented as pairs of
rationals, so rank and kernel computations are exact and genericity is
never lost to floating point.  The systems are homogeneous in the
unknowns (p_1 .. p_n, v_1 (, v_2)) with the rotation center pinned at the
origin and the orientation sign fixed to +1.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from . import sparsity
from .colored_graph import ColoredGraph
from .groups import GroupElement


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

    def __mul__(self, other: "Scalar") -> "Scalar":
        return Scalar(
            self.a * other.a + 3 * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

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
    """Gauss-Jordan elimination; returns exact rank and a kernel basis."""
    mat = [list(r) for r in rows]
    pivots: List[Tuple[int, int]] = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(mat)):
            if mat[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        pv = mat[r][c]
        mat[r] = [x / pv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                factor = mat[i][c]
                mat[i] = [x - factor * y for x, y in zip(mat[i], mat[r])]
        pivots.append((r, c))
        r += 1
    pivot_cols = {c for _, c in pivots}
    kernel = []
    for fc in range(ncols):
        if fc in pivot_cols:
            continue
        vec = [ZERO] * ncols
        vec[fc] = ONE
        for ri, pc in pivots:
            vec[pc] = -mat[ri][fc]
        kernel.append(tuple(vec))
    return r, kernel


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
    """Max exact rank of the rigidity system over seeded integer samples.

    Each draw is a lower bound on the generic rank and equals it with
    probability one.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    rng = random.Random(seed)
    best = 0
    for _ in range(samples):
        real = random_realization(g, rng, bound)
        system = rigidity_matrix(g, real)
        best = max(best, rank_and_kernel(system.rows, system.ncols)[0])
    return best


def collapsed_dim_bound(g: ColoredGraph) -> int:
    """Guaranteed dimension of collapsed solutions of any direction system."""
    report = sparsity.count_report(g)
    t_sum = sum(c.t for c in report.components)
    return g.context.full_translation_rep - report.rep + t_sum
