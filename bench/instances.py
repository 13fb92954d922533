"""Seeded benchmark instances with reference labels, built without the library.

Every instance comes from the benchmark seed alone, through code that does
not import ``crystal_rigidity``: a change to the library can never change
the inputs it is measured on, and two commits given the same seed get the
same instance set (compare the digests).

Independence is decided geometrically.  By the paper's rigidity theorem a
colored graph is Laman-sparse exactly when the rows of its rigidity matrix
at a generic realization are independent.  The rows are evaluated at a
uniformly random point over the prime field F_p with p = 1 (mod 12), where
sqrt 3 exists; a nonzero minor mod p is a nonzero minor over Q(sqrt 3), so
a row accepted here is independent generically, and a generically
independent row is rejected with probability below deg / p ~ 1e-16.
Counts f and g are computed by a separate spanning-tree pass with the
benchmark's own group law.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

P = 2305843009213693921  # prime, P % 12 == 1
SQRT3 = 1357490219032204553  # SQRT3 ** 2 % P == 3
assert P % 12 == 1 and SQRT3 * SQRT3 % P == 3 and pow(2, P - 1, P) == 1
INV2 = (P + 1) // 2

Edge = Tuple[int, int, int, int, int]  # tail, head, m1, m2, s

# Action of the rotation generator on the translation lattice (basis v1,
# R v1 for k = 3, 4, 6; v1, v2 for k = 2), as in the paper.
ACTION = {
    2: ((-1, 0), (0, -1)),
    3: ((0, -1), (1, -1)),
    4: ((0, -1), (1, 0)),
    6: ((0, -1), (1, 1)),
}

# Counterclockwise rotation by 2 pi / k over F_p: (cos, sin).
_COS_SIN = {
    2: (P - 1, 0),
    3: (P - INV2, SQRT3 * INV2 % P),
    4: (0, 1),
    6: (INV2, SQRT3 * INV2 % P),
}

COLOR_BOUND = 2


def rep_full(k: int) -> int:
    return 4 if k == 2 else 2


def laman_target(k: int, n: int) -> int:
    """Edge count 2n + rep - 1 of a Laman basis, which is also its generic rank."""
    return 2 * n + rep_full(k) - 1


def ncols(k: int, n: int) -> int:
    return 2 * n + (4 if k == 2 else 2)


def graph_text(k: int, n: int, edges: Sequence[Edge]) -> str:
    """The library's documented line-oriented graph format."""
    lines = [f"gamma {k}", f"vertices {n}"]
    lines += [f"e {t} {h} {m1} {m2} {s}" for t, h, m1, m2, s in edges]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Rigidity rows over F_p.
# ---------------------------------------------------------------------------


def _rot_powers(k: int):
    c, s = _COS_SIN[k]
    r = ((c, P - s), (s, c))
    out = [((1, 0), (0, 1))]
    for _ in range(k - 1):
        a = out[-1]
        out.append(tuple(
            tuple(sum(r[i][x] * a[x][j] for x in range(2)) % P for j in range(2))
            for i in range(2)
        ))
    return out


class RigidityRows:
    """Rigidity-matrix rows of colored edges at one random realization mod p.

    Columns are (p_0 .. p_{n-1}, v1 (, v2)) with the rotation center pinned,
    matching the unknowns of the paper's crystallographic rigidity system.
    """

    def __init__(self, k: int, n: int, rng: random.Random):
        self.k, self.n = k, n
        self.rot = _rot_powers(k)
        self.points = [(rng.randrange(P), rng.randrange(P)) for _ in range(n)]
        self.v1 = (rng.randrange(P), rng.randrange(P))
        if k == 2:
            self.v2 = (rng.randrange(P), rng.randrange(P))
        else:
            r = self.rot[1]
            self.v2 = ((r[0][0] * self.v1[0] + r[0][1] * self.v1[1]) % P,
                       (r[1][0] * self.v1[0] + r[1][1] * self.v1[1]) % P)

    def row(self, edge: Edge) -> List[int]:
        k, n = self.k, self.n
        t, h, m1, m2, s = edge
        rs = self.rot[s]
        pj, pi = self.points[h], self.points[t]
        w = [(rs[i][0] * pj[0] + rs[i][1] * pj[1] + m1 * self.v1[i] + m2 * self.v2[i] - pi[i]) % P
             for i in range(2)]
        row = [0] * ncols(k, n)
        for i in range(2):
            row[2 * h + i] += rs[0][i] * w[0] + rs[1][i] * w[1]
            row[2 * t + i] -= w[i]
        if k == 2:
            for i in range(2):
                row[2 * n + i] += m1 * w[i]
                row[2 * n + 2 + i] += m2 * w[i]
        else:
            r = self.rot[1]
            for i in range(2):
                row[2 * n + i] += m1 * w[i] + m2 * (r[0][i] * w[0] + r[1][i] * w[1])
        return [x % P for x in row]


class Echelon:
    """Incremental row echelon form over F_p with pivots scaled to 1."""

    def __init__(self):
        self.rows: List[Tuple[int, List[int]]] = []

    def reduce(self, row: Sequence[int]) -> List[int]:
        vec = list(row)
        for piv, r in self.rows:
            c = vec[piv]
            if c:
                vec = [(a - c * b) % P for a, b in zip(vec, r)]
        return vec

    def add(self, row: Sequence[int]) -> bool:
        """Insert a row; False (and no change) if it is dependent."""
        vec = self.reduce(row)
        piv = next((i for i, x in enumerate(vec) if x), None)
        if piv is None:
            return False
        inv = pow(vec[piv], P - 2, P)
        self.rows.append((piv, [x * inv % P for x in vec]))
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)


def fundamental_circuit(rows: Sequence[Sequence[int]], extra: Sequence[int]) -> Tuple[int, ...]:
    """Indices of the rows in the unique dependency of independent ``rows``
    plus ``extra`` (index len(rows)), or () if ``extra`` is independent."""
    m = len(rows)
    ech: List[Tuple[int, List[int], List[int]]] = []  # pivot, row, combination
    for idx, row in enumerate(list(rows) + [list(extra)]):
        vec, comb = list(row), [0] * (m + 1)
        comb[idx] = 1
        for piv, r, rc in ech:
            c = vec[piv]
            if c:
                vec = [(a - c * b) % P for a, b in zip(vec, r)]
                comb = [(a - c * b) % P for a, b in zip(comb, rc)]
        piv = next((i for i, x in enumerate(vec) if x), None)
        if piv is None:
            if idx != m:
                raise ValueError("base rows are dependent")
            return tuple(i for i, c in enumerate(comb) if c)
        inv = pow(vec[piv], P - 2, P)
        ech.append((piv, [x * inv % P for x in vec], [x * inv % P for x in comb]))
    return ()


# ---------------------------------------------------------------------------
# Counts f and g with the benchmark's own group law.
# ---------------------------------------------------------------------------


def _group(k: int):
    a = ACTION[k]
    pows = [((1, 0), (0, 1))]
    for _ in range(k - 1):
        b = pows[-1]
        pows.append(tuple(
            tuple(sum(a[i][x] * b[x][j] for x in range(2)) for j in range(2))
            for i in range(2)
        ))

    def mul(x, y):
        m = pows[x[2]]
        return (x[0] + m[0][0] * y[0] + m[0][1] * y[1],
                x[1] + m[1][0] * y[0] + m[1][1] * y[1], (x[2] + y[2]) % k)

    def inv(x):
        s = -x[2] % k
        m = pows[s]
        return (-(m[0][0] * x[0] + m[0][1] * x[1]), -(m[1][0] * x[0] + m[1][1] * x[1]), s)

    return mul, inv


def counts(k: int, n: int, edges: Sequence[Edge]) -> Tuple[int, int]:
    """(f, g) of an edge set on all n vertices.

    f = 2n + rep - sum T and g = n + rep/2 - sum T / 2, where T is 2 for a
    component whose image has no rotation and 0 otherwise, and rep is the
    dimension of the translation representation of the images.
    """
    mul, inv = _group(k)
    adj: List[List[Tuple[int, tuple]]] = [[] for _ in range(n)]
    for t, h, m1, m2, s in edges:
        col = (m1, m2, s)
        adj[t].append((h, col))
        adj[h].append((t, inv(col)))
    pot: List[Optional[tuple]] = [None] * n
    comp = [0] * n
    ncomp = 0
    for root in range(n):
        if pot[root] is not None:
            continue
        pot[root] = (0, 0, 0)
        comp[root] = ncomp
        stack = [root]
        while stack:
            u = stack.pop()
            for v, col in adj[u]:
                if pot[v] is None:
                    pot[v] = mul(pot[u], col)
                    comp[v] = ncomp
                    stack.append(v)
        ncomp += 1
    gens: List[List[tuple]] = [[] for _ in range(ncomp)]
    for t, h, m1, m2, s in edges:
        gamma = mul(mul(pot[t], (m1, m2, s)), inv(pot[h]))
        if gamma != (0, 0, 0):
            gens[comp[t]].append(gamma)
    t_sum = 0
    any_trans = False
    vectors = []
    for gs in gens:
        rots = [x for x in gs if x[2]]
        vectors += [(x[0], x[1]) for x in gs if not x[2]]
        if not rots:
            t_sum += 2
        elif k == 2:
            # Two half-turns compose to the translation by their difference.
            vectors += [(x[0] - rots[0][0], x[1] - rots[0][1]) for x in rots[1:]]
        elif any(mul(rots[0], x) != mul(x, rots[0]) for x in rots[1:]):
            any_trans = True  # rotations about different centers
    vectors = [v for v in vectors if v != (0, 0)]
    if k == 2:
        rank = 0
        if vectors:
            a = vectors[0]
            rank = 2 if any(a[0] * b[1] - a[1] * b[0] for b in vectors) else 1
        rep = 2 * rank
    else:
        rep = 2 if any_trans or vectors else 0
    return 2 * n + rep - t_sum, n + rep // 2 - t_sum // 2


# ---------------------------------------------------------------------------
# Instances.
# ---------------------------------------------------------------------------


def random_edge(k: int, n: int, rng: random.Random) -> Edge:
    b = COLOR_BOUND
    return (rng.randrange(n), rng.randrange(n), rng.randint(-b, b), rng.randint(-b, b),
            rng.randrange(k))


def grow_reference(k: int, n: int, rng: random.Random, length: Optional[int] = None):
    """A seeded candidate stream and its greedy accept/reject sequence.

    Without ``length``, candidates are drawn until the accepted edges reach
    the generic rank 2n + rep - 1, so they form a Laman basis.
    Returns (candidates, accepted flags, rigidity rows of the accepted
    edges, the realization used).
    """
    geo = RigidityRows(k, n, rng)
    ech = Echelon()
    target = laman_target(k, n)
    cands: List[Edge] = []
    flags: List[bool] = []
    basis_rows = []
    while len(cands) < length if length is not None else ech.rank < target:
        if len(cands) > 50 * target:
            raise RuntimeError("candidate stream did not reach full rank")
        e = random_edge(k, n, rng)
        row = geo.row(e)
        ok = ech.add(row)
        cands.append(e)
        flags.append(ok)
        if ok:
            basis_rows.append(row)
    return cands, flags, basis_rows, geo


@dataclass
class Base:
    """A grown Laman basis and, for ``diagnose``, its perturbations."""

    k: int
    n: int
    edges: List[Edge]
    cli_seed: int
    over: Optional[List[Edge]] = None  # basis plus one edge (Gamma-(2,2) count)
    circuit: Optional[Tuple[int, ...]] = None  # its unique Laman circuit
    under: Optional[List[Edge]] = None  # basis minus two edges

    def to_json(self):
        return {"k": self.k, "n": self.n, "edges": self.edges, "cli_seed": self.cli_seed,
                "over": self.over, "circuit": self.circuit, "under": self.under}


@dataclass
class Stream:
    """A ``grow`` candidate stream with its reference decisions."""

    k: int
    n: int
    candidates: List[Edge]
    accept: List[bool]

    def to_json(self):
        return {"k": self.k, "n": self.n, "candidates": self.candidates, "accept": self.accept}


def _make_base(k: int, n: int, rng: random.Random, perturb: bool) -> Base:
    cands, flags, rows, geo = grow_reference(k, n, rng)
    edges = [e for e, ok in zip(cands, flags) if ok]
    assert len(edges) == laman_target(k, n)
    base = Base(k, n, edges, rng.randrange(1 << 31))
    if perturb:
        while True:
            extra = random_edge(k, n, rng)
            circuit = fundamental_circuit(rows, geo.row(extra))
            if len(circuit) >= 2:
                break
        base.over = edges + [extra]
        base.circuit = circuit
        f, _ = counts(k, n, [base.over[i] for i in circuit])
        if len(circuit) < f:
            raise AssertionError("reference circuit does not violate the Laman count")
        drop = set(rng.sample(range(len(edges)), 2))
        base.under = [e for i, e in enumerate(edges) if i not in drop]
    return base


@dataclass
class InstanceSet:
    workload: str
    seed: int
    bases: List[Base] = field(default_factory=list)
    streams: List[Stream] = field(default_factory=list)

    def digest(self) -> str:
        blob = json.dumps(
            {"workload": self.workload, "seed": self.seed,
             "bases": [b.to_json() for b in self.bases],
             "streams": [s.to_json() for s in self.streams]},
            sort_keys=True, separators=(",", ":"),
        )
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def make_instances(workload: str, seed: int, schedule: Sequence[Tuple[int, int]]) -> InstanceSet:
    """One instance per (k, n) in ``schedule``, all drawn from ``seed``.

    A ``grow`` stream has 3n candidates, as in growing a basis from the
    edges of a random graph with 3n edges.
    """
    rng = random.Random(f"{workload}:{seed}")
    out = InstanceSet(workload, seed)
    for k, n in schedule:
        if workload == "grow":
            cands, flags, _, _ = grow_reference(k, n, rng, length=3 * n)
            out.streams.append(Stream(k, n, cands, flags))
        else:
            out.bases.append(_make_base(k, n, rng, perturb=workload == "diagnose"))
    return out
