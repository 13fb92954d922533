"""Exact arithmetic in the orientation-preserving crystallographic groups.

The groups handled here are the semidirect products Z^2 x| Z/k for
k = 2, 3, 4, 6: every element is a pair (t, s) of an integer translation
vector t and a rotation class s.  The module holds only the group law;
the paper's subgroup invariants and its matroid on n labeled copies of
the group are oracles, kept in ``selftest``.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

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

    This is the one implementation of the group law: ``compose``,
    ``invert`` and ``ratio`` (a * c * b^-1 in one step, which
    ``conjugate`` and the count scan's cycle elements use).  They take any
    (t1, t2, s) triples with 0 <= s < k, such as GroupElement, and return
    plain tuples, which compare equal to the GroupElement with the same
    fields; the count scan calls them in its inner loop.
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

    def ratio(self, a, c, b) -> Tuple[int, int, int]:
        """a * c * b^-1 in one step: for classes s, t, u, the translation
        a + M^s c - M^(s+t-u) b and the class s + t - u."""
        (a1, a2, s), (c1, c2, t), (b1, b2, u) = a, c, b
        r = (s + t - u) % self.k
        m0, m1, m2, m3 = self.powers[s]
        n0, n1, n2, n3 = self.powers[r]
        return (a1 + m0 * c1 + m1 * c2 - n0 * b1 - n1 * b2,
                a2 + m2 * c1 + m3 * c2 - n2 * b1 - n3 * b2, r)

    def conjugate(self, g, x) -> Tuple[int, int, int]:
        """g * x * g^-1."""
        return self.ratio(g, x, g)

    def same_center(self, a, b) -> bool:
        """Whether two rotations fix the same point (integer-only test).

        Two rotations of the group share a fixed point exactly when they
        commute: when a * b and b * a, of one class, have the same
        translation, a + M^s b = b + M^u a.
        """
        (a1, a2, s), (b1, b2, u) = a, b
        m0, m1, m2, m3 = self.powers[s]
        n0, n1, n2, n3 = self.powers[u]
        return (a1 + m0 * b1 + m1 * b2 == b1 + n0 * a1 + n1 * a2
                and a2 + m2 * b1 + m3 * b2 == b2 + n2 * a1 + n3 * a2)
