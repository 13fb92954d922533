"""Seeded random instances: group elements, subgroups, graphs, matroid sets."""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from .colored_graph import ColoredGraph, Edge
from .groups import GroupContext, GroupElement, IndexedSubset, is_tight

TIGHT_ATTEMPTS = 200


def random_element(ctx: GroupContext, rng: random.Random, bound: int = 2) -> GroupElement:
    return GroupElement(
        rng.randint(-bound, bound), rng.randint(-bound, bound), rng.randrange(ctx.k)
    )


def random_rotation(ctx: GroupContext, rng: random.Random, bound: int = 2) -> GroupElement:
    return GroupElement(
        rng.randint(-bound, bound),
        rng.randint(-bound, bound),
        rng.randint(1, ctx.k - 1),
    )


def random_translation(ctx: GroupContext, rng: random.Random, bound: int = 2) -> GroupElement:
    while True:
        t1, t2 = rng.randint(-bound, bound), rng.randint(-bound, bound)
        if t1 or t2:
            return GroupElement(t1, t2, 0)


def random_generators(ctx: GroupContext, rng: random.Random, max_gens: int = 3) -> List[GroupElement]:
    return [random_element(ctx, rng) for _ in range(rng.randint(0, max_gens))]


def random_graph(
    k: int, n: int, m: int, rng: random.Random, color_bound: int = 2
) -> ColoredGraph:
    ctx = GroupContext(k)
    edges = []
    for _ in range(m):
        tail, head = rng.randrange(n), rng.randrange(n)
        color = GroupElement(
            rng.randint(-color_bound, color_bound),
            rng.randint(-color_bound, color_bound),
            rng.randrange(k),
        )
        edges.append(Edge(tail, head, color))
    return ColoredGraph(ctx, n, tuple(edges))


def random_indexed_subset(ctx: GroupContext, rng: random.Random, n: int, size: int) -> IndexedSubset:
    elements = tuple((random_element(ctx, rng), rng.randint(1, n)) for _ in range(size))
    return IndexedSubset(n, elements)


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
