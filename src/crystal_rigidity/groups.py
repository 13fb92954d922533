"""Exact arithmetic in the orientation-preserving crystallographic groups.

The groups handled here are the semidirect products Z^2 x| Z/k for
k = 2, 3, 4, 6: every element is a pair (t, s) of an integer translation
vector t and a rotation class s.  On top of the raw group arithmetic the
module provides classification of finitely generated subgroups, the
dimension invariants T / rep / cent, closure membership, and the rank
function g1 of the matroid whose ground set consists of n labeled copies
of the group.  Translation subgroups are kept as their rational spans,
which is all that rep (a rank) and the k = 2 closure (a saturation) read.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, NamedTuple, Optional, Sequence, Tuple

Vec = Tuple[int, int]
# A 2x2 integer matrix ((a, b), (c, d)) stored flat as (a, b, c, d).
Mat = Tuple[int, int, int, int]

SUPPORTED_ORDERS = (2, 3, 4, 6)

# Action of the order-k generator on the translation lattice.
_ACTION = {
    2: (-1, 0, 0, -1),
    3: (0, -1, 1, -1),
    4: (0, -1, 1, 0),
    6: (0, -1, 1, 1),
}


class GroupElement(NamedTuple):
    """Element (t, s) with translation part (t1, t2) and rotation class s."""

    t1: int
    t2: int
    s: int

    def is_identity(self) -> bool:
        return self.t1 == 0 and self.t2 == 0 and self.s == 0

    def is_translation(self) -> bool:
        """Nontrivial translation: trivial rotation class, nonzero vector."""
        return self.s == 0 and (self.t1 != 0 or self.t2 != 0)

    def is_rotation(self) -> bool:
        return self.s != 0


IDENTITY = GroupElement(0, 0, 0)
T1 = GroupElement(1, 0, 0)
T2 = GroupElement(0, 1, 0)


def _mat_mul(a: Mat, b: Mat) -> Mat:
    return (
        a[0] * b[0] + a[1] * b[2], a[0] * b[1] + a[1] * b[3],
        a[2] * b[0] + a[3] * b[2], a[2] * b[1] + a[3] * b[3],
    )


_IDENTITY_MAT: Mat = (1, 0, 0, 1)


class GroupContext:
    """Fixed group order k together with precomputed action-matrix powers.

    This is the one implementation of the group law.  ``compose`` and
    ``invert`` take any (t1, t2, s) triples with 0 <= s < k, such as
    GroupElement, and return plain tuples, which compare equal to the
    GroupElement with the same fields; the count scan calls them in its
    inner loop.
    """

    __slots__ = ("k", "powers")

    def __init__(self, k: int):
        if k not in SUPPORTED_ORDERS:
            raise ValueError(f"k must be one of {SUPPORTED_ORDERS}, got {k}")
        self.k = k
        powers = [_IDENTITY_MAT]
        for _ in range(k - 1):
            powers.append(_mat_mul(powers[-1], _ACTION[k]))
        if _mat_mul(powers[-1], _ACTION[k]) != _IDENTITY_MAT:
            raise AssertionError("action matrix does not have order k")
        self.powers: Tuple[Mat, ...] = tuple(powers)

    def __repr__(self) -> str:
        return f"GroupContext(k={self.k})"

    def __eq__(self, other) -> bool:
        return isinstance(other, GroupContext) and other.k == self.k

    def __hash__(self) -> int:
        return hash(("GroupContext", self.k))

    @property
    def full_translation_rep(self) -> int:
        """rep of the full translation lattice Z^2: 4 for k=2, else 2."""
        return 4 if self.k == 2 else 2

    def compose(self, a, b) -> Tuple[int, int, int]:
        a1, a2, s = a
        b1, b2, t = b
        m0, m1, m2, m3 = self.powers[s]
        return (a1 + m0 * b1 + m1 * b2, a2 + m2 * b1 + m3 * b2, (s + t) % self.k)

    def invert(self, a) -> Tuple[int, int, int]:
        a1, a2, s = a
        s = -s % self.k
        m0, m1, m2, m3 = self.powers[s]
        return (-(m0 * a1 + m1 * a2), -(m2 * a1 + m3 * a2), s)

    def conjugate(self, g, x) -> Tuple[int, int, int]:
        """g * x * g^-1."""
        return self.compose(self.compose(g, x), self.invert(g))

    def same_center(self, a, b) -> bool:
        """Whether two rotations fix the same point (integer-only test).

        Two rotations of the group share a fixed point exactly when they
        commute, so no rational arithmetic is needed.
        """
        return self.compose(a, b) == self.compose(b, a)


# ---------------------------------------------------------------------------
# Translation subgroups up to their rational span.
# ---------------------------------------------------------------------------


Span = Tuple[Vec, ...]
_PLANE: Span = ((1, 0), (0, 1))


def translation_span(vectors: Iterable[Vec]) -> Span:
    """Basis of the rational span of integer vectors: () if all are zero,
    (v,) for collinear ones with v primitive and its first nonzero
    coordinate positive, else the unit basis."""
    first = None
    for x, y in vectors:
        if first is None:
            if x or y:
                d = gcd(x, y)
                if x < 0 or (x == 0 and y < 0):
                    d = -d
                first = (x // d, y // d)
        elif first[0] * y - first[1] * x:
            return _PLANE
    return () if first is None else (first,)


def in_span(span: Span, v: Vec) -> bool:
    """Whether v lies in the rational span with the basis ``span``."""
    return len(translation_span(span + (v,))) == len(span)


# ---------------------------------------------------------------------------
# Subgroup classification and dimension invariants.
# ---------------------------------------------------------------------------

TRIVIAL = "trivial"
CYCLIC_ROTATION = "cyclic-rotation"
TRANSLATION_ONLY = "translation-only"
MIXED = "mixed"


@dataclass(frozen=True)
class SubgroupDescriptor:
    """Classified finitely generated subgroup.

    ``span`` is the rational span of the translation subgroup, as from
    ``translation_span``.  A mixed subgroup for k = 3, 4, 6 has the full
    span: its translation subgroup is nontrivial and invariant under a
    rotation of order >= 3, so it has rank 2.
    """

    context: GroupContext
    kind: str
    span: Span
    rotation_witness: Optional[GroupElement]

    @property
    def has_rotation(self) -> bool:
        return self.kind in (CYCLIC_ROTATION, MIXED)


def classify_subgroup(
    ctx: GroupContext, generators: Sequence[GroupElement]
) -> SubgroupDescriptor:
    """Classify the subgroup generated by the given elements.

    For k = 2 the translation subgroup is generated by the translations
    and the differences of the half-turns' vectors (translation subgroups
    are normal there).
    """
    gens = tuple(GroupElement(*g) for g in generators)
    translations = [g for g in gens if g.is_translation()]
    rotations = [g for g in gens if g.is_rotation()]

    if not translations and not rotations:
        return SubgroupDescriptor(ctx, TRIVIAL, (), None)

    if not rotations:
        span = translation_span((g.t1, g.t2) for g in translations)
        return SubgroupDescriptor(ctx, TRANSLATION_ONLY, span, None)

    rho0 = rotations[0]
    cyclic = not translations and all(
        ctx.same_center(rho0, r) for r in rotations[1:]
    )
    if cyclic:
        return SubgroupDescriptor(ctx, CYCLIC_ROTATION, (), rho0)

    if ctx.k == 2:
        vectors = [(g.t1, g.t2) for g in translations]
        vectors += [(rho0.t1 - r.t1, rho0.t2 - r.t2) for r in rotations[1:]]
        return SubgroupDescriptor(ctx, MIXED, translation_span(vectors), rho0)
    return SubgroupDescriptor(ctx, MIXED, _PLANE, rho0)


def invariant_t(d: SubgroupDescriptor) -> int:
    """Dimension of translations commuting with the subgroup: 0 or 2."""
    return 0 if d.has_rotation else 2


def join_rep(ctx: GroupContext, descriptors: Iterable[SubgroupDescriptor]) -> int:
    """rep of the translation subgroup generated by the translation
    subgroups of classified subgroups.

    For k = 2 it is twice the rank of the joined spans; for k = 3, 4, 6
    any nontrivial translation subgroup has rep = 2.
    """
    if ctx.k == 2:
        return 2 * len(translation_span(v for d in descriptors for v in d.span))
    return 2 if any(d.span for d in descriptors) else 0


def rep_dim(d: SubgroupDescriptor) -> int:
    """rep of the translation subgroup of a classified subgroup."""
    return join_rep(d.context, (d,))


def cent_of(d: SubgroupDescriptor) -> int:
    """Dimension of the centralizer of the represented subgroup."""
    return {MIXED: 0, CYCLIC_ROTATION: 1, TRANSLATION_ONLY: 2, TRIVIAL: 3}[d.kind]


def in_closure(ctx: GroupContext, gamma: GroupElement, d: SubgroupDescriptor) -> bool:
    """Membership of gamma in the closure of the classified subgroup.

    The closure is the largest supergroup with the same rep and T
    invariants; the case analysis differs between k = 2 and k = 3, 4, 6.
    """
    gamma = GroupElement(*gamma)
    if d.kind == TRIVIAL:
        return gamma.is_identity()
    if ctx.k == 2:
        # gamma * w^-1 (w the identity or the subgroup's rotation witness) is
        # a translation, in the closure exactly when it lies in the saturation
        # of the translation subgroup: for an integer vector, in its span.
        w = IDENTITY if gamma.s == 0 else d.rotation_witness
        return w is not None and in_span(d.span, (gamma.t1 - w.t1, gamma.t2 - w.t2))
    if d.kind == CYCLIC_ROTATION:
        return gamma.is_identity() or (
            gamma.is_rotation() and ctx.same_center(gamma, d.rotation_witness)
        )
    if d.kind == TRANSLATION_ONLY:
        return gamma.s == 0
    return True  # mixed: closure is the whole group


# ---------------------------------------------------------------------------
# The matroid on n labeled copies of the group.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IndexedSubset:
    """Finite multiset of (element, part) pairs with parts 1..n.

    Repeated identical pairs are genuine parallel copies: they contribute
    to the size but never to the rank, so any repeat makes the set
    dependent.
    """

    n: int
    elements: Tuple[Tuple[GroupElement, int], ...]

    def __post_init__(self):
        for _, i in self.elements:
            if not 1 <= i <= self.n:
                raise ValueError(f"part index {i} out of range 1..{self.n}")

    def part(self, i: int) -> Tuple[GroupElement, ...]:
        return tuple(g for g, j in self.elements if j == i)

    def parts(self) -> Tuple[Tuple[GroupElement, ...], ...]:
        return tuple(self.part(i) for i in range(1, self.n + 1))

    def nonempty_parts(self) -> Tuple[int, ...]:
        return tuple(sorted({i for _, i in self.elements}))

    @property
    def size(self) -> int:
        return len(self.elements)

    def c(self) -> int:
        return len(self.nonempty_parts())

    def add(self, gamma: GroupElement, i: int) -> "IndexedSubset":
        return IndexedSubset(self.n, self.elements + ((GroupElement(*gamma), i),))


def g1_rank(ctx: GroupContext, a: IndexedSubset) -> int:
    """Matroid rank n + rep(Lambda(A))/2 - sum_i T(Gamma_{A,i})/2."""
    descriptors = [classify_subgroup(ctx, part) for part in a.parts() if part]
    t_sum = 2 * (a.n - len(descriptors)) + sum(invariant_t(d) for d in descriptors)
    return a.n + join_rep(ctx, descriptors) // 2 - t_sum // 2


def is_independent(ctx: GroupContext, a: IndexedSubset) -> bool:
    return a.size == g1_rank(ctx, a)


def is_tight(ctx: GroupContext, a: IndexedSubset) -> bool:
    return is_independent(ctx, a) and a.size == a.c() + ctx.full_translation_rep // 2


def is_spanning(ctx: GroupContext, a: IndexedSubset) -> bool:
    """Whether A contains a tight subset on all of its nonempty parts.

    Equivalent to g1(A) reaching the maximum c(A) + rep(Lambda(Gamma_k))/2
    over sets supported on the same parts: in that case every nonempty
    part has a rotation and a tight subset can be grown greedily from one
    rotation per part.
    """
    return g1_rank(ctx, a) == a.c() + ctx.full_translation_rep // 2


def conjugate_subset(
    ctx: GroupContext, a: IndexedSubset, gammas: Sequence[GroupElement]
) -> IndexedSubset:
    """Conjugate part i by gammas[i]: each element becomes g^-1 x g."""
    parts = a.nonempty_parts()
    if len(gammas) != len(parts):
        raise ValueError("invalid transform: need one conjugator per nonempty part")
    by_part = dict(zip(parts, gammas))
    new_elements = []
    for x, i in a.elements:
        g = by_part[i]
        new_elements.append((GroupElement(*ctx.conjugate(ctx.invert(g), x)), i))
    return IndexedSubset(a.n, tuple(new_elements))


def separate_subset(
    a: IndexedSubset, i: int, j: int, moved: Sequence[GroupElement]
) -> IndexedSubset:
    """Move a chosen sub-multiset of part i to the empty part j."""
    if not 1 <= j <= a.n or a.part(j):
        raise ValueError("invalid transform: target part must exist and be empty")
    remaining = list(moved)
    new_elements = []
    for x, p in a.elements:
        if p == i and x in remaining:
            remaining.remove(x)
            new_elements.append((x, j))
        else:
            new_elements.append((x, p))
    if remaining:
        raise ValueError("invalid transform: moved elements not contained in part i")
    return IndexedSubset(a.n, tuple(new_elements))


def fuse_subset(a: IndexedSubset, i: int, j: int) -> IndexedSubset:
    """Merge part j into part i; both must be nonempty."""
    if not (a.part(i) and a.part(j)) or i == j:
        raise ValueError("invalid transform: fuse needs two distinct nonempty parts")
    return IndexedSubset(
        a.n, tuple((x, i if p == j else p) for x, p in a.elements)
    )
