"""Colored-graph model, file format, forests, the rho map, and lifting."""

import math
import random

import pytest

from crystal_rigidity.colored_graph import (
    Edge,
    GraphParseError,
    component_generators,
    graph_invariants,
    lift_patch,
    make_graph,
    parse_graph,
    rho_of_fundamental_path,
    serialize_graph,
    spanning_forest,
)
from crystal_rigidity.generate import random_graph
from crystal_rigidity.groups import (
    GroupElement,
    IDENTITY,
    IndexedSubset,
    conjugate_subset,
    fuse_subset,
)
from lift_oracle import as_tuples


class TestFormat:
    def test_parse_basic(self):
        g = parse_graph("gamma 3\nvertices 1\ne 0 0 0 0 1\n")
        assert g.n == 1 and g.edges[0] == Edge(0, 0, GroupElement(0, 0, 1))

    def test_bad_group_order(self):
        with pytest.raises(GraphParseError, match="k must be 2,3,4,6") as err:
            parse_graph("gamma 5\nvertices 1\n")
        assert err.value.line == 1

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(GraphParseError) as err:
            parse_graph("gamma 3\nvertices 2\ne 0 5 0 0 0\n")
        assert err.value.line == 3
        with pytest.raises(GraphParseError):
            parse_graph("gamma 3\nvertices 2\ne 0 1 0 0 3\n")
        with pytest.raises(GraphParseError):
            parse_graph("")
        with pytest.raises(GraphParseError):
            parse_graph("vertices 2\ngamma 3\n")
        with pytest.raises(GraphParseError):
            parse_graph("gamma 3\nvertices 2\nedge 0 1\n")

    def test_comments_and_blank_lines(self):
        text = "# a graph\ngamma 2\n\nvertices 2  # two\ne 0 1 1 0 1 # colored\n"
        g = parse_graph(text)
        assert g.m == 1 and g.context.k == 2

    def test_round_trip_random(self):
        rng = random.Random(55)
        for _ in range(100):
            g = random_graph(rng.choice([2, 3, 4, 6]), rng.randint(1, 6), rng.randint(0, 12), rng)
            text = serialize_graph(g)
            assert serialize_graph(parse_graph(text)) == text

    def test_vertex_range_validation(self):
        with pytest.raises(ValueError):
            make_graph(3, 1, [(0, 1, (0, 0, 0))])

    def test_zero_vertex_graph(self):
        g = parse_graph("gamma 3\nvertices 0\n")
        assert g.n == 0 and g.m == 0
        assert spanning_forest(g).components() == ()
        assert spanning_forest(g).base_vertices == ()
        assert serialize_graph(g) == "gamma 3\nvertices 0\n"


class TestForest:
    def test_edgeless(self):
        g = make_graph(3, 3, [])
        assert spanning_forest(g).components() == ((0,), (1,), (2,))
        mg = spanning_forest(g)
        assert mg.base_vertices == (0, 1, 2) and mg.forest == frozenset()

    def test_path_and_triangle(self):
        path = make_graph(3, 3, [(0, 1, (0, 0, 0)), (1, 2, (0, 0, 0))])
        assert spanning_forest(path).components() == ((0, 1, 2),)
        assert spanning_forest(path).forest == frozenset({0, 1})
        tri = make_graph(3, 3, [(0, 1, (0, 0, 0)), (1, 2, (0, 0, 0)), (2, 0, (0, 0, 0))])
        assert spanning_forest(tri).forest == frozenset({0, 1})

    def test_alternative_choices_validated(self):
        tri = make_graph(3, 3, [(0, 1, (0, 0, 0)), (1, 2, (0, 0, 0)), (2, 0, (0, 0, 0))])
        mg = spanning_forest(tri, edge_order=[2, 1, 0], bases=[1])
        assert mg.forest == frozenset({2, 1}) and mg.base_vertices == (1,)
        with pytest.raises(ValueError):
            spanning_forest(tri, edge_order=[0, 1])
        with pytest.raises(ValueError):
            spanning_forest(tri, bases=[0, 1])


def _walk_image(g, walk):
    """rho of an explicit edge walk [(edge, +1|-1), ...]."""
    ctx = g.context
    acc = IDENTITY
    for idx, sign in walk:
        color = g.edges[idx].color
        acc = ctx.compose(acc, color if sign > 0 else ctx.invert(color))
    return acc


def _fundamental_walk(mg, edge_index):
    """The fundamental closed path of a non-forest edge as an edge walk."""
    g = mg.graph
    adj = {v: [] for v in range(g.n)}
    for i in mg.forest:
        e = g.edges[i]
        adj[e.tail].append((e.head, i, 1))
        adj[e.head].append((e.tail, i, -1))
    base = mg.base_vertices[mg.component_of[g.edges[edge_index].tail]]

    def path_from_base(target):
        prev = {base: None}
        stack = [base]
        while stack:
            v = stack.pop()
            if v == target:
                break
            for w, i, sign in adj[v]:
                if w not in prev:
                    prev[w] = (v, i, sign)
                    stack.append(w)
        walk = []
        v = target
        while prev[v] is not None:
            u, i, sign = prev[v]
            walk.append((i, sign))
            v = u
        return list(reversed(walk))

    e = g.edges[edge_index]
    walk = path_from_base(e.tail)
    walk.append((edge_index, 1))
    walk += [(i, -sign) for i, sign in reversed(path_from_base(e.head))]
    return walk


class TestRho:
    def test_examples(self):
        loop = make_graph(4, 1, [(0, 0, (1, 0, 1))])
        assert rho_of_fundamental_path(spanning_forest(loop), 0) == GroupElement(1, 0, 1)
        par = make_graph(4, 2, [(0, 1, (1, 0, 1)), (0, 1, (0, 1, 0))])
        mg = spanning_forest(par)
        ctx = par.context
        assert rho_of_fundamental_path(mg, 1) == ctx.compose(
            GroupElement(0, 1, 0), ctx.invert(GroupElement(1, 0, 1))
        )
        ident = make_graph(2, 2, [(0, 1, (0, 0, 0)), (1, 0, (0, 0, 0))])
        assert rho_of_fundamental_path(spanning_forest(ident), 1) == IDENTITY
        with pytest.raises(ValueError, match="tree edge"):
            rho_of_fundamental_path(spanning_forest(ident), 0)

    def test_matches_explicit_walk_product(self):
        rng = random.Random(70)
        for _ in range(60):
            g = random_graph(rng.choice([2, 3, 4, 6]), rng.randint(1, 5), rng.randint(1, 10), rng)
            mg = spanning_forest(g)
            for i in mg.non_forest_edges():
                assert rho_of_fundamental_path(mg, i) == _walk_image(g, _fundamental_walk(mg, i))

    def test_homomorphism_on_concatenated_walks(self):
        rng = random.Random(71)
        for _ in range(40):
            g = random_graph(rng.choice([2, 3, 4, 6]), rng.randint(1, 4), rng.randint(2, 10), rng)
            mg = spanning_forest(g)
            nf = [i for i in mg.non_forest_edges()
                  if mg.component_of[g.edges[i].tail] == mg.component_of[g.edges[mg.non_forest_edges()[0]].tail]]
            if len(nf) < 2:
                continue
            w1, w2 = _fundamental_walk(mg, nf[0]), _fundamental_walk(mg, nf[1])
            lhs = _walk_image(g, w1 + w2)
            rhs = g.context.compose(_walk_image(g, w1), _walk_image(g, w2))
            assert lhs == rhs


class TestInvariants:
    def test_examples(self):
        inv = graph_invariants(make_graph(3, 1, [(0, 0, (0, 0, 1))]))
        assert inv.component_descriptors[0].kind == "cyclic-rotation"
        assert inv.t_list == (0,) and inv.rep_g == 0
        inv = graph_invariants(make_graph(2, 1, [(0, 0, (1, 0, 0)), (0, 0, (0, 1, 0))]))
        assert inv.rep_g == 4 and inv.t_list == (2,)
        inv = graph_invariants(make_graph(4, 3, [(0, 1, (0, 0, 0)), (1, 2, (0, 0, 0))]))
        assert inv.component_descriptors[0].kind == "trivial" and inv.rep_g == 0

    def test_invariants_independent_of_marking(self):
        rng = random.Random(72)
        for _ in range(60):
            g = random_graph(rng.choice([2, 3, 4, 6]), rng.randint(1, 5), rng.randint(0, 10), rng)
            inv0 = graph_invariants(g)
            order = list(range(g.m))
            rng.shuffle(order)
            bases = [rng.choice(c) for c in spanning_forest(g).components()]
            inv1 = graph_invariants(g, marked=spanning_forest(g, edge_order=order, bases=bases))
            assert inv0.rep_g == inv1.rep_g
            assert inv0.t_list == inv1.t_list
            kinds0 = [d.kind for d in inv0.component_descriptors]
            kinds1 = [d.kind for d in inv1.component_descriptors]
            assert kinds0 == kinds1

    def test_adding_in_component_edge_adds_one_element(self):
        rng = random.Random(73)
        for _ in range(50):
            g = random_graph(rng.choice([2, 3, 4, 6]), rng.randint(1, 4), rng.randint(1, 8), rng)
            mg = spanning_forest(g)
            tail, head = rng.randrange(g.n), rng.randrange(g.n)
            if mg.component_of[tail] != mg.component_of[head]:
                continue
            color = GroupElement(rng.randint(-2, 2), rng.randint(-2, 2), rng.randrange(g.context.k))
            g2 = g.with_edge(tail, head, color)
            # keep the old forest: list old edges first
            mg2 = spanning_forest(g2, edge_order=list(range(g.m + 1)))
            assert mg2.forest == mg.forest
            gens, gens2 = component_generators(mg), component_generators(mg2)
            comp = mg.component_of[tail]
            for ci in range(len(gens)):
                if ci == comp:
                    assert gens2[ci][:-1] == gens[ci]
                    assert gens2[ci][-1] == rho_of_fundamental_path(mg2, g.m)
                else:
                    assert gens2[ci] == gens[ci]

    def test_connecting_edge_is_conjugate_then_fuse(self):
        rng = random.Random(74)
        checked = 0
        while checked < 30:
            g = random_graph(rng.choice([2, 3, 4, 6]), rng.randint(2, 5), rng.randint(0, 6), rng)
            mg = spanning_forest(g)
            pairs = [
                (t, h)
                for t in range(g.n)
                for h in range(g.n)
                if mg.component_of[t] != mg.component_of[h]
            ]
            if not pairs:
                continue
            checked += 1
            tail, head = rng.choice(pairs)
            color = GroupElement(rng.randint(-2, 2), rng.randint(-2, 2), rng.randrange(g.context.k))
            g2 = g.with_edge(tail, head, color)
            mg2 = spanning_forest(g2, edge_order=list(range(g.m + 1)))
            assert g.m in mg2.forest  # the connector joins two components
            gens, gens2 = component_generators(mg), component_generators(mg2)
            ctx = g.context
            # Build the indexed set of the old graph, conjugate the absorbed
            # component by the new walk to its old base, fuse, and compare.
            c_old = len(gens)
            a_old = IndexedSubset(
                c_old,
                tuple((x, ci + 1) for ci, gs in enumerate(gens) for x in gs),
            )
            ci_t, ci_h = mg.component_of[tail], mg.component_of[head]
            keep, absorb = min(ci_t, ci_h), max(ci_t, ci_h)
            eta = mg2.walk[mg.base_vertices[absorb]]
            conjugators = {
                i + 1: IDENTITY for i in range(c_old) if gens[i]
            }
            if absorb + 1 in conjugators:
                conjugators[absorb + 1] = ctx.invert(eta)
            if conjugators:
                a_conj = conjugate_subset(
                    ctx, a_old, [conjugators[i] for i in sorted(conjugators)]
                )
            else:
                a_conj = a_old
            if a_old.part(keep + 1) and a_old.part(absorb + 1):
                a_fused = fuse_subset(a_conj, keep + 1, absorb + 1)
            else:
                a_fused = IndexedSubset(
                    c_old,
                    tuple((x, keep + 1 if p == absorb + 1 else p) for x, p in a_conj.elements),
                )
            # Map new component indices onto old ones via their vertex sets.
            new_elems = []
            for ci, gs in enumerate(gens2):
                base2 = mg2.base_vertices[ci]
                old_ci = mg.component_of[base2]
                old_part = keep if old_ci in (ci_t, ci_h) else old_ci
                for x in gs:
                    new_elems.append((x, old_part + 1))
            a_new = IndexedSubset(c_old, tuple(new_elems))
            assert sorted(a_new.elements) == sorted(a_fused.elements)

    def test_invariants_on_subsets(self):
        g = make_graph(3, 2, [(0, 0, (0, 0, 1)), (1, 1, (1, 0, 0)), (0, 1, (0, 0, 0))])
        inv = graph_invariants(g, edge_subset=[0, 1])
        assert [d.kind for d in inv.component_descriptors] == ["cyclic-rotation", "translation-only"]


def _apply_float_isometry(k, element, v1, v2, point):
    theta = 2 * math.pi / k
    def rot(p, s):
        for _ in range(s % k):
            p = (math.cos(theta) * p[0] - math.sin(theta) * p[1],
                 math.sin(theta) * p[0] + math.cos(theta) * p[1])
        return p
    m1, m2, s = element
    p = rot(point, s)
    return (p[0] + m1 * v1[0] + m2 * v2[0], p[1] + m1 * v1[1] + m2 * v2[1])


class TestLiftPatch:
    class _Real:
        def __init__(self, points, v1, v2=None):
            self.points = points
            self.v1 = v1
            self.v2 = v2

    def test_radius_zero_count(self):
        g = make_graph(3, 2, [(0, 1, (0, 0, 1))])
        patch = as_tuples(lift_patch(g, self._Real([(0.2, 0.3), (1.1, -0.4)], (1.0, 0.0)), 0))
        assert len(patch.points) == 2 * 3
        assert len(patch.segments) == 3

    def test_identity_element_fixes_points(self):
        g = make_graph(4, 1, [])
        pts = [(0.25, -0.75)]
        patch = as_tuples(lift_patch(g, self._Real(pts, (1.0, 0.5)), 1))
        placed = {p.element: (p.x, p.y) for p in patch.points}
        assert placed[(0, 0, 0)] == pytest.approx(pts[0])

    def test_patch_symmetric_under_generators(self):
        rng = random.Random(90)
        for k in (2, 3, 4, 6):
            g = random_graph(k, 2, 3, rng)
            v1 = (1.0, 0.25)
            v2 = (0.125, 1.5) if k == 2 else None
            real = self._Real([(0.3, 0.7), (-0.4, 0.2)], v1, v2)
            patch_big = as_tuples(lift_patch(g, real, 2))
            patch_small = as_tuples(lift_patch(g, real, 1))
            big = [(p.x, p.y) for p in patch_big.points]
            v2f = patch_big.cell[1]
            for generator in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]:
                for p in patch_small.points:
                    gx, gy = _apply_float_isometry(k, generator, v1, v2f, (p.x, p.y))
                    assert any(
                        abs(gx - qx) < 1e-9 and abs(gy - qy) < 1e-9 for qx, qy in big
                    ), (k, generator)

    def test_gamma2_patch_centrally_symmetric(self):
        # with the rotation center pinned at the origin the point set of a
        # full patch is invariant under p -> -p
        g = make_graph(2, 1, [(0, 0, (1, 0, 0))])
        patch = as_tuples(lift_patch(g, self._Real([(0.3, 0.45)], (1.0, 0.0), (0.0, 1.0)), 2))
        pts = [(p.x, p.y) for p in patch.points]
        for x, y in pts:
            assert any(abs(x + qx) < 1e-9 and abs(y + qy) < 1e-9 for qx, qy in pts)
