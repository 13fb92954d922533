"""Randomized verification suites shared by the CLI selftest and the tests.

Every suite is deterministic for a given seed and returns a SuiteResult;
the acceptance test module runs them at the full documented scale while
``crystal-rigidity selftest`` runs scaled-down versions.  The module also
holds the oracles the suites check the library against, which no other
command loads: the paper's subgroup invariants (T, rep, cent, closure)
and its matroid on n labeled copies of the group, with seeded random sets
of it; the exhaustive brute-force sparsity verifier; and the invariant
route, which recomputes the counts of the scan in ``sparsity`` from the
subgroup invariants.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import gcd
from typing import Iterable, List, Optional, Sequence, Tuple

from . import realization as rz
from . import sparsity as sp
from .colored_graph import MAX_SCALE, ColoredGraph, parse_graph, serialize_graph
from .generate import (
    random_element,
    random_generators,
    random_graph,
    random_rotation,
    random_translation,
)
from .groups import IDENTITY, SUPPORTED_ORDERS, GroupContext, GroupElement

CONTEXTS = {k: GroupContext(k) for k in SUPPORTED_ORDERS}

# Extra seeded draws the theorem suites give a Laman graph before calling
# its draw non-generic.
RESEEDS = 3


@dataclass
class SuiteResult:
    name: str
    passed: bool
    checked: int
    failures: List[str] = field(default_factory=list)


def _result(name: str, checked: int, failures: List[str]) -> SuiteResult:
    return SuiteResult(name, not failures, checked, failures[:5])


# ---------------------------------------------------------------------------
# Translation subgroups up to their rational span, which is all that rep
# (a rank) and the k = 2 closure (a saturation) read.
# ---------------------------------------------------------------------------


Vec = Tuple[int, int]
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


def random_indexed_subset(ctx: GroupContext, rng: random.Random, n: int, size: int) -> IndexedSubset:
    elements = tuple((random_element(ctx, rng), rng.randint(1, n)) for _ in range(size))
    return IndexedSubset(n, elements)


TIGHT_ATTEMPTS = 200


def random_tight_set(ctx: GroupContext, rng: random.Random, n: int) -> Optional[IndexedSubset]:
    """A random tight independent set: one rotation per chosen part plus
    rep/2 extra elements, resampled until the tightness test passes (at
    most ``TIGHT_ATTEMPTS`` times)."""
    q = ctx.full_translation_rep // 2
    for _ in range(TIGHT_ATTEMPTS):
        c = rng.randint(1, n)
        parts = rng.sample(range(1, n + 1), c)
        elements: List[Tuple[GroupElement, int]] = [
            (random_rotation(ctx, rng), i) for i in parts
        ]
        for _ in range(q):
            part = rng.choice(parts)
            if rng.random() < 0.7:
                elements.append((random_translation(ctx, rng), part))
            else:
                elements.append((random_rotation(ctx, rng), part))
        candidate = IndexedSubset(n, tuple(elements))
        if is_tight(ctx, candidate):
            return candidate
    return None


# ---------------------------------------------------------------------------
# Group-matroid suites.
# ---------------------------------------------------------------------------


def suite_matroid_axioms(per_k: int, seed: int) -> SuiteResult:
    """Non-negativity, monotonicity, unit increments and local submodularity
    of the rank function on random indexed subsets."""
    failures: List[str] = []
    checked = 0
    for k in SUPPORTED_ORDERS:
        ctx = CONTEXTS[k]
        rng = random.Random(f"{seed}-axioms-{k}")
        for _ in range(per_k):
            checked += 1
            n = rng.randint(1, 4)
            big = random_indexed_subset(ctx, rng, n, rng.randint(0, 8))
            sub_elems = tuple(e for e in big.elements if rng.random() < 0.5)
            small = IndexedSubset(n, sub_elems)
            x = (random_element(ctx, rng), rng.randint(1, n))
            gb, ga = g1_rank(ctx, big), g1_rank(ctx, small)
            gbx = g1_rank(ctx, big.add(*x))
            gax = g1_rank(ctx, small.add(*x))
            if gb < 0 or ga < 0:
                failures.append(f"k={k} negative rank")
            if ga > gb:
                failures.append(f"k={k} monotonicity broken")
            if gbx - gb not in (0, 1) or gax - ga not in (0, 1):
                failures.append(f"k={k} non-unit increment")
            if gax - ga < gbx - gb:
                failures.append(f"k={k} submodularity broken")
    return _result("matroid rank axioms", checked, failures)


def suite_closure_dichotomy(per_k: int, seed: int) -> SuiteResult:
    """Adding an element raises rep - T by exactly 2 iff it leaves the closure."""
    failures: List[str] = []
    checked = 0
    for k in SUPPORTED_ORDERS:
        ctx = CONTEXTS[k]
        rng = random.Random(f"{seed}-closure-{k}")
        for _ in range(per_k):
            checked += 1
            gens = random_generators(ctx, rng)
            gamma = random_element(ctx, rng)
            before = classify_subgroup(ctx, gens)
            after = classify_subgroup(ctx, gens + [gamma])
            delta = (rep_dim(after) - invariant_t(after)) - (
                rep_dim(before) - invariant_t(before)
            )
            expected = 0 if in_closure(ctx, gamma, before) else 2
            if delta != expected:
                failures.append(f"k={k} gens={gens} gamma={gamma}: {delta} != {expected}")
    return _result("closure dichotomy", checked, failures)


def _translation_rep_rank(k: int, gens) -> int:
    """Exact rank of the map from the full translation representation to
    the images of the translation generators.

    The unknowns are v1 and v2 for k = 2, else v1 alone with v2 = R_k v1;
    a generator (a, b, 0) is represented by a*v1 + b*v2, two rows.
    """
    rows = []
    ra, rb = (part[1] for part in rz._rotation_parts(k))
    for a, b, _ in gens:
        if k == 2:
            dense = [[(a, 0), (0, 0), (b, 0), (0, 0)], [(0, 0), (a, 0), (0, 0), (b, 0)]]
        else:
            # 2 (a + b R_k) = 2a + b (A_1 + sqrt(3) B_1), a row over Z[sqrt 3]
            dense = [[(2 * a * (i == j) + b * ra[i][j], b * rb[i][j]) for j in (0, 1)] for i in (0, 1)]
        rows += ({j: x for j, x in enumerate(row) if x != (0, 0)} for row in dense)
    return rz.rank_and_kernel(rows, 4 if k == 2 else 2)[0]


def suite_group_relations(per_k: int, seed: int) -> SuiteResult:
    """Centralizer / Teichmueller dimension relations on random subgroups.

    Checks cent >= T, the translation/rotation split of T vs cent, rep of
    a translation subgroup against the exact rank of its representation
    map, and the per-subgroup identity rep - T - 1 = teich - cent.
    """
    failures: List[str] = []
    checked = 0
    for k in SUPPORTED_ORDERS:
        ctx = CONTEXTS[k]
        rng = random.Random(f"{seed}-relations-{k}")
        for _ in range(per_k):
            checked += 1
            gens = random_generators(ctx, rng)
            d = classify_subgroup(ctx, gens)
            t = invariant_t(d)
            cent = cent_of(d)
            rep = rep_dim(d)
            teich = rep - 1 if rep > 0 else 0
            if cent < t:
                failures.append(f"k={k} cent<T for {d.kind}")
            has_translation = d.kind in ("translation-only", "mixed")
            if has_translation and t != cent:
                failures.append(f"k={k} (A) fails for {d.kind}")
            if not has_translation and t != cent - 1:
                failures.append(f"k={k} (A) fails for {d.kind}")
            if d.kind == "translation-only" and rep != _translation_rep_rank(k, gens):
                failures.append(f"k={k} (B) fails for {gens}")
            if d.kind == "trivial" and (teich != 0 or rep != 0):
                failures.append(f"k={k} (C) fails")
            if rep - t - 1 != teich - cent:
                failures.append(f"k={k} (D) fails for {d.kind}")
    return _result("cent/teich relations", checked, failures)


def _matches_tight_type(ctx: GroupContext, a: IndexedSubset) -> bool:
    q = ctx.full_translation_rep // 2
    parts = [(i, a.part(i)) for i in a.nonempty_parts()]
    if any(not any(g.is_rotation() for g in part) for _, part in parts):
        return False
    extras = {i: len(part) - 1 for i, part in parts}
    big = [i for i, e in extras.items() if e > 0]
    if sum(extras.values()) != q:
        return False
    if len(big) == 1:
        d = classify_subgroup(ctx, a.part(big[0]))
        return rep_dim(d) == ctx.full_translation_rep
    if len(big) == 2 and ctx.k == 2:
        joint = classify_subgroup(ctx, a.part(big[0]) + a.part(big[1]))
        return rep_dim(joint) == ctx.full_translation_rep
    return False


def suite_transforms(count: int, seed: int) -> SuiteResult:
    """Conjugation and separation preserve independence; fusing a tight set
    yields a spanning set with one fewer part; tight sets match the two
    structural types (the two-part type only for k = 2)."""
    failures: List[str] = []
    checked = 0
    rng = random.Random(f"{seed}-transforms")
    ks = list(SUPPORTED_ORDERS)
    while checked < count:
        k = ks[checked % 4]
        ctx = CONTEXTS[k]
        n = rng.randint(2, 4)
        tight = random_tight_set(ctx, rng, n)
        if tight is None:
            failures.append(f"k={k}: could not build a tight set")
            break
        checked += 1
        if not _matches_tight_type(ctx, tight):
            failures.append(f"k={k} tight set matches no structural type: {tight}")
        sub = IndexedSubset(n, tuple(e for e in tight.elements if rng.random() < 0.7))
        gammas = [random_element(ctx, rng) for _ in sub.nonempty_parts()]
        conj = conjugate_subset(ctx, sub, gammas)
        if not is_independent(ctx, conj):
            failures.append(f"k={k} conjugation broke independence")
        empty_parts = [i for i in range(1, n + 1) if not sub.part(i)]
        if empty_parts and sub.nonempty_parts():
            src = rng.choice(sub.nonempty_parts())
            dst = rng.choice(empty_parts)
            moved = [g for g in sub.part(src) if rng.random() < 0.5]
            sep = separate_subset(sub, src, dst, moved)
            if not is_independent(ctx, sep):
                failures.append(f"k={k} separation broke independence")
            if not moved and sep != sub:
                failures.append(f"k={k} empty separation changed the set")
        nonempty = tight.nonempty_parts()
        if len(nonempty) >= 2:
            i, j = rng.sample(nonempty, 2)
            fused = fuse_subset(tight, i, j)
            if fused.c() != tight.c() - 1 or not is_spanning(ctx, fused):
                failures.append(f"k={k} fuse of tight set not spanning")
    return _result("conjugate/separate/fuse", checked, failures)


# ---------------------------------------------------------------------------
# Graph suites.
# ---------------------------------------------------------------------------


def sparsity_suite_graphs(per_k: int, seed: int):
    """Random graphs for the oracle-equivalence suite, biased so that the
    near-tight edge counts are well represented."""
    out = []
    for k in SUPPORTED_ORDERS:
        rng = random.Random(f"{seed}-sparsegraphs-{k}")
        rep = CONTEXTS[k].full_translation_rep
        for _ in range(per_k):
            n = rng.randint(1, 4)
            pick = rng.random()
            if pick < 0.4:
                m = rng.randint(0, 12)
            elif pick < 0.7:
                m = min(2 * n + rep, 12)
            else:
                m = min(2 * n + rep - 1, 12)
            out.append(random_graph(k, n, m, rng))
    return out


def suite_oracle_equivalence(per_k: int, seed: int) -> SuiteResult:
    """Union-oracle decisions equal exhaustive enumeration for the
    Gamma-(2,2) and Laman sparsity families."""
    failures: List[str] = []
    graphs = sparsity_suite_graphs(per_k, seed)
    for idx, g in enumerate(graphs):
        laman = brute_force_sparse(g, "f", strict=True)
        # Laman-sparse implies f-sparse, so only a failure needs the f run
        if sp.is_gamma22_sparse(g) != (laman or brute_force_sparse(g, "f")):
            failures.append(f"graph {idx}: (2,2)-sparse disagreement")
        if sp.is_laman_sparse(g) != laman:
            failures.append(f"graph {idx}: Laman-sparse disagreement")
    return _result("oracle equivalence", len(graphs), failures)


def direction_suite_graphs(per_k: int, seed: int):
    """Graphs with the Laman edge count m = 2n + rep - 1, with the
    combinatorial Laman decision attached."""
    out = []
    for k in SUPPORTED_ORDERS:
        rng = random.Random(f"{seed}-directiongraphs-{k}")
        rep = CONTEXTS[k].full_translation_rep
        for _ in range(per_k):
            n = rng.randint(1, 4)
            g = random_graph(k, n, 2 * n + rep - 1, rng)
            out.append((g, sp.is_laman(g)))
    return out


def suite_direction_theorem(graphs, seed: int) -> SuiteResult:
    """Laman graphs are exactly those whose direction system has a unique
    faithful solution for random integer directions (up to ``RESEEDS``
    more draws for a Laman graph).

    Full rank alone is not an equivalent test: a Laman-count graph with a
    tight (but not violating) subgraph still reaches rank m, and only the
    faithfulness check exposes the forced collapsed edges.
    """
    failures: List[str] = []
    for idx, (g, laman) in enumerate(graphs):
        for attempt in range(1 + RESEEDS if laman else 1):
            directions = rz.random_directions(g, seed + idx + 104729 * attempt)
            found = isinstance(rz.realize(g, directions), rz.Realization)
            if found:
                break
        if laman != found:
            failures.append(f"graph {idx}: laman={laman} faithful={found}")
    return _result("direction network theorem", len(graphs), failures)


def suite_rigidity_theorem(graphs, seed: int) -> SuiteResult:
    """Laman graphs are exactly those of full generic rigidity rank."""
    failures: List[str] = []
    for idx, (g, laman) in enumerate(graphs):
        rank = rz.generic_rigidity_rank(g, seed + idx, samples=1)
        if laman and rank < g.m:
            rank = max(rank, rz.generic_rigidity_rank(g, seed + idx + 1, samples=RESEEDS))
        if laman != (rank == g.m):
            failures.append(f"graph {idx}: laman={laman} rank={rank} m={g.m}")
    return _result("rigidity theorem", len(graphs), failures)


def suite_crystal_collapse(graphs, seed: int) -> SuiteResult:
    """Every Gamma-(2,2) graph collapses: kernel dimension 0 once pinned."""
    failures: List[str] = []
    checked = 0
    for idx, g in enumerate(graphs):
        if not sp.is_gamma22(g):
            continue
        checked += 1
        dim = None
        for attempt in range(3):
            system = rz.assemble_direction_system(g, rz.random_directions(g, seed + idx + 31 * attempt))
            rank, kernel = rz.rank_and_kernel(system.rows, system.ncols)
            dim = len(kernel)
            if dim == 0:
                break
        if dim != 0:
            failures.append(f"graph {idx}: kernel dim {dim} != 0")
    return _result("crystal collapse", checked, failures)


def suite_collapsed_bound(per_k: int, seed: int) -> SuiteResult:
    """Kernel dimension always meets the collapsed-realization bound, and
    ``realize``, which may decide it mod P, reports the exact kernel
    dimension and collapsed edges."""
    failures: List[str] = []
    checked = 0
    for k in SUPPORTED_ORDERS:
        rng = random.Random(f"{seed}-collapsedbound-{k}")
        for i in range(per_k):
            checked += 1
            n = rng.randint(1, 4)
            g = random_graph(k, n, rng.randint(0, 12), rng)
            directions = rz.random_directions(g, seed + i)
            system = rz.assemble_direction_system(g, directions)
            rank, kernel = rz.rank_and_kernel(system.rows, system.ncols)
            if len(kernel) < rz.collapsed_dim_bound(g):
                failures.append(f"k={k} graph {i}: dim {len(kernel)} below bound")
            result = rz.realize(g, directions)
            got = (1, ()) if isinstance(result, rz.Realization) else (result.kernel_dim, result.collapsed_edges)
            exact = (len(kernel), rz.collapsed_edges(g, kernel))
            if got != exact:
                failures.append(f"k={k} graph {i}: realize (dim, collapsed) {got} != exact {exact}")
    return _result("collapsed dimension bound", checked, failures)


def suite_decomposition(graphs, direction_graphs, seed: int) -> SuiteResult:
    """decompose11 outputs pass both characterizations and each part
    contains a spanning generalized cone-(1,1) subgraph."""
    failures: List[str] = []
    rng = random.Random(f"{seed}-decomp")
    supply: List[ColoredGraph] = []
    for g, laman in direction_graphs:
        if laman:
            supply.append(g.with_doubled_edge(rng.randrange(g.m)))
    supply.extend(g for g in graphs if sp.is_gamma22(g))
    checked = 0
    for idx, g in enumerate(supply):
        checked += 1
        try:
            x, y = sp.decompose11(g)
        except (ValueError, AssertionError) as ex:
            failures.append(f"graph {idx}: decompose failed: {ex}")
            continue
        for part in (x, y):
            if not sp.is_gamma11_counts(g, part) or not sp.is_gamma11_structural(g, part):
                failures.append(f"graph {idx}: part fails a characterization")
                continue
            try:
                core = sp.gc11_spanning_subgraph(g, part)
            except ValueError as ex:
                failures.append(f"graph {idx}: no cone core: {ex}")
                continue
            if not sp.is_gen_cone11(g, core):
                failures.append(f"graph {idx}: cone core invalid")
            if set(core) - set(part):
                failures.append(f"graph {idx}: cone core not a subgraph")
    return _result("decomposition validity", checked, failures)


# ---------------------------------------------------------------------------
# Brute-force oracle.
# ---------------------------------------------------------------------------


_BRUTE_FORCE_MAX_EDGES = 20


def brute_force_sparse(g: ColoredGraph, count="f", strict: bool = False, edge_subset=None) -> bool:
    """Exhaustive sparsity check over every nonempty edge subset, as the
    submasks of the edge mask, largest first.

    ``count`` is "f" or "g"; ``strict`` demands m' < bound instead of <=.
    """
    oracle = sp.SparsityOracle(g)
    mask = oracle.mask_of(edge_subset)
    mm = mask.bit_count()
    if mm > _BRUTE_FORCE_MAX_EDGES:
        raise ValueError(f"refusing brute force on {mm} > {_BRUTE_FORCE_MAX_EDGES} edges")
    scale = {"f": 2, "g": 1}[count]
    sub = mask
    while sub:
        size = sub.bit_count()
        bound = scale * oracle.counts(sub).g
        if size > bound or (strict and size == bound):
            return False
        sub = (sub - 1) & mask
    return True


# ---------------------------------------------------------------------------
# The invariant route: f, g, h, h' as the paper defines them, from the
# fundamental-closed-path homomorphism rho and the per-component subgroup
# invariants T, rep and cent.  It shares no code with the count scan of
# ``sparsity``, which it checks.
# ---------------------------------------------------------------------------


def marked_forest(g: ColoredGraph, order=None, bases=None):
    """A spanning forest, base vertices and the color walk to every vertex.

    The edges are scanned in ``order`` (index order by default), each kept
    when it joins two components.  Returns (component_of, bases, forest,
    walk): components are numbered by smallest vertex, each based at
    ``bases[c]`` (by default its smallest vertex), ``forest`` is the set
    of kept edges, and ``walk[v]`` is the color product along the forest
    path from the base of v's component to v.
    """
    parent = list(range(g.n))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    ctx = g.context
    forest = set()
    adj = [[] for _ in range(g.n)]
    for i in range(g.m) if order is None else order:
        tail, head, color = g.edges[i]
        ra, rb = find(tail), find(head)
        if ra != rb:  # unions keep the smaller root, so roots are smallest vertices
            parent[max(ra, rb)] = min(ra, rb)
            forest.add(i)
            adj[tail].append((head, color))
            adj[head].append((tail, ctx.invert(color)))
    roots = [v for v in range(g.n) if find(v) == v]
    number = {r: ci for ci, r in enumerate(roots)}
    component_of = [number[find(v)] for v in range(g.n)]
    bases = roots if bases is None else list(bases)
    walk = [IDENTITY] * g.n
    for b in bases:
        stack, seen = [b], {b}
        while stack:
            v = stack.pop()
            for w, color in adj[v]:
                if w not in seen:
                    seen.add(w)
                    walk[w] = ctx.compose(walk[v], color)
                    stack.append(w)
    return component_of, bases, forest, walk


def component_images(g: ColoredGraph, marked):
    """Per component, rho of the fundamental closed path of every
    non-forest edge in it, in edge order: the path runs base -> tail along
    the forest, crosses the edge and returns head -> base."""
    component_of, bases, forest, walk = marked
    ctx = g.context
    images = [[] for _ in bases]
    for i, (tail, head, color) in enumerate(g.edges):
        if i not in forest:
            rho = ctx.compose(ctx.compose(walk[tail], color), ctx.invert(walk[head]))
            images[component_of[tail]].append(rho)
    return images


def counts_via_invariants(g: ColoredGraph, order=None, bases=None):
    """f, g, h, h' recomputed from full per-component descriptors; the
    values do not depend on the forest ``order`` or the ``bases``."""
    ctx = g.context
    marked = marked_forest(g, order, bases)
    component_of = marked[0]
    descriptors = [classify_subgroup(ctx, gens) for gens in component_images(g, marked)]
    rep = join_rep(ctx, descriptors)
    f = 2 * g.n + rep - sum(map(invariant_t, descriptors))
    teich = rep - 1 if rep else 0
    spanned = {component_of[e.tail] for e in g.edges}
    cent_sum = sum(cent_of(descriptors[ci]) for ci in spanned)
    n_spanned = sum(ci in spanned for ci in component_of)
    return f, f // 2, f - 1, 2 * n_spanned + teich - cent_sum


def suite_rebase(count: int, seed: int) -> SuiteResult:
    """All counts agree between the scan engine and per-component
    descriptors computed from two independent random base/forest choices."""
    failures: List[str] = []
    rng = random.Random(f"{seed}-rebase")
    ks = list(SUPPORTED_ORDERS)
    for idx in range(count):
        k = ks[idx % 4]
        n = rng.randint(1, 5)
        g = random_graph(k, n, rng.randint(0, 10), rng)
        report = sp.count_report(g)
        lean = (report.f, report.g, report.h, report.h_prime)
        component_of, roots, _, _ = marked_forest(g)
        comps = [[v for v, c in enumerate(component_of) if c == ci] for ci in range(len(roots))]
        for trial in range(2):
            order = list(range(g.m))
            rng.shuffle(order)
            bases = [rng.choice(comp) for comp in comps]
            if counts_via_invariants(g, order, bases) != lean:
                failures.append(f"graph {idx} trial {trial}: counts changed under rebase")
    return _result("base/forest invariance", count, failures)


def suite_roundtrip(count: int, seed: int) -> SuiteResult:
    """Serialize/parse round trips are byte identical."""
    failures: List[str] = []
    rng = random.Random(f"{seed}-roundtrip")
    ks = list(SUPPORTED_ORDERS)
    for idx in range(count):
        k = ks[idx % 4]
        g = random_graph(k, rng.randint(1, 6), rng.randint(0, 12), rng, color_bound=3)
        text = serialize_graph(g)
        if serialize_graph(parse_graph(text)) != text:
            failures.append(f"graph {idx}: round trip not identical")
    return _result("format round trip", count, failures)


def run_selftest(scale: float = 1.0, seed: int = 0) -> List[SuiteResult]:
    """Scaled-down versions of the acceptance suites, one result each."""
    if not 0 < scale <= MAX_SCALE:  # also false for NaN; infinity is too large
        raise ValueError(f"scale must be a finite number in (0, {MAX_SCALE:g}], got {scale}")

    def sc(base: int) -> int:
        return max(1, int(base * scale))

    graphs = sparsity_suite_graphs(sc(50), seed)
    direction_graphs = direction_suite_graphs(sc(20), seed)
    return [
        suite_matroid_axioms(sc(100), seed),
        suite_closure_dichotomy(sc(100), seed),
        suite_group_relations(sc(100), seed),
        suite_transforms(sc(50), seed),
        suite_oracle_equivalence(sc(50), seed),
        suite_direction_theorem(direction_graphs, seed),
        suite_rigidity_theorem(direction_graphs, seed),
        suite_crystal_collapse(graphs, seed),
        suite_collapsed_bound(sc(50), seed),
        suite_decomposition(graphs, direction_graphs, seed),
        suite_rebase(sc(50), seed),
        suite_roundtrip(sc(25), seed),
    ]
