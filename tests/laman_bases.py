"""Seeded Laman bases and random edges shared by the test modules, so that
no test module imports another.

``laman_basis`` grows a basis by greedy insertion of ``random_element``
colors; ``_greedy_laman_basis`` grows one by ``with_edge`` from
``_random_edge`` draws (colors in [-2, 2]).  Each keeps the random draws
of its test, so every seeded graph stays the same.
"""

from crystal_rigidity.colored_graph import ColoredGraph, Edge, make_graph
from crystal_rigidity.generate import random_element
from crystal_rigidity.groups import GroupContext, GroupElement
from crystal_rigidity.sparsity import is_laman_sparse


def laman_basis(k, n, rng):
    """A Laman basis grown by greedy insertion of random edges."""
    ctx = GroupContext(k)
    g = make_graph(k, n, [])
    target = 2 * n + ctx.full_translation_rep - 1
    for _ in range(50 * target):
        if g.m == target:
            return g
        e = random_element(ctx, rng)
        cand = g.with_edge(rng.randrange(n), rng.randrange(n), e)
        if is_laman_sparse(cand):
            g = cand
    raise AssertionError("greedy growth did not reach a basis")


def _random_edge(ctx, n, rng):
    color = GroupElement(rng.randint(-2, 2), rng.randint(-2, 2), rng.randrange(ctx.k))
    return Edge(rng.randrange(n), rng.randrange(n), color)


def _greedy_laman_basis(k, n, rng):
    """Random edges kept while ``is_laman_sparse`` says sparse, up to
    2n + rep - 1 edges, grown by ``with_edge``: each accepted graph passes
    the union engine it keeps on to the next candidate."""
    ctx = GroupContext(k)
    basis = ColoredGraph(ctx, n, ())
    while basis.m < 2 * n + ctx.full_translation_rep - 1:
        tail, head, color = _random_edge(ctx, n, rng)
        candidate = basis.with_edge(tail, head, color)
        if is_laman_sparse(candidate):
            basis = candidate
    return basis
