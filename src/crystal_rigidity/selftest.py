"""Randomized verification suites shared by the CLI selftest and the tests.

Every suite is deterministic for a given seed and returns a SuiteResult;
the acceptance test module runs them at the full documented scale while
``crystal-rigidity selftest`` runs scaled-down versions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List

from . import realization as rz
from . import sparsity as sp
from .colored_graph import (
    MAX_SCALE,
    ColoredGraph,
    graph_invariants,
    parse_graph,
    serialize_graph,
    spanning_forest,
)
from .generate import (
    random_element,
    random_generators,
    random_graph,
    random_indexed_subset,
    random_tight_set,
)
from .groups import (
    GroupContext,
    IndexedSubset,
    SUPPORTED_ORDERS,
    cent_of,
    classify_subgroup,
    conjugate_subset,
    fuse_subset,
    g1_rank,
    in_closure,
    invariant_t,
    is_independent,
    is_spanning,
    rep_dim,
    separate_subset,
)

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

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f" ({self.failures[0]})" if self.failures else ""
        return f"{status} {self.name}: {self.checked} checks{extra}"


def _result(name: str, checked: int, failures: List[str]) -> SuiteResult:
    return SuiteResult(name, not failures, checked, failures[:5])


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
        laman = sp.brute_force_sparse(g, "f", strict=True)
        # Laman-sparse implies f-sparse, so only a failure needs the f run
        if sp.is_gamma22_sparse(g) != (laman or sp.brute_force_sparse(g, "f")):
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


def counts_via_invariants(g: ColoredGraph, marked=None):
    """f, g, h, h' recomputed from full per-component descriptors."""
    if marked is None:
        marked = spanning_forest(g)
    inv = graph_invariants(g, marked=marked)
    f = 2 * g.n + inv.rep_g - sum(inv.t_list)
    teich = inv.rep_g - 1 if inv.rep_g else 0
    spanned = {marked.component_of[g.edges[e].tail] for e in marked.edge_subset}
    cent_sum = sum(cent_of(inv.component_descriptors[ci]) for ci in spanned)
    n_spanned = sum(ci in spanned for ci in marked.component_of)
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
        for trial in range(2):
            order = list(range(g.m))
            rng.shuffle(order)
            bases = [rng.choice(comp) for comp in spanning_forest(g).components()]
            marked = spanning_forest(g, edge_order=order, bases=bases)
            if counts_via_invariants(g, marked) != lean:
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
