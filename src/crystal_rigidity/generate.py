"""Seeded random instances: group elements, generator lists and colored
graphs.  The random sets of the labeled-copies matroid live in
``selftest``, next to that matroid."""

from __future__ import annotations

import random
from typing import List

from .colored_graph import ColoredGraph, Edge
from .groups import GroupContext, GroupElement


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
        edges.append(Edge(tail, head, random_element(ctx, rng, color_bound)))
    return ColoredGraph(ctx, n, tuple(edges))
