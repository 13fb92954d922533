"""Colored-graph model, file format and lifting, and the invariant route
of ``selftest``: forests, the rho map and per-component invariants."""

import math
import random

import pytest

from crystal_rigidity.colored_graph import (
    ColoredGraph,
    Edge,
    GraphParseError,
    lift_patch,
    make_graph,
    parse_graph,
    serialize_graph,
)
from crystal_rigidity.generate import random_graph
from crystal_rigidity.groups import GroupElement, IDENTITY
from crystal_rigidity.selftest import (
    IndexedSubset,
    classify_subgroup,
    component_images,
    conjugate_subset,
    fuse_subset,
    invariant_t,
    join_rep,
    marked_forest,
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

    def test_negative_vertex_count_is_rejected(self):
        with pytest.raises(ValueError, match="vertex count must be non-negative"):
            make_graph(3, -1, [])
        with pytest.raises(ValueError, match="vertex count must be non-negative"):
            ColoredGraph(make_graph(2, 0, []).context, -2, ())

    def test_with_edge_equals_the_constructor(self):
        rng = random.Random(56)
        for _ in range(100):
            g = random_graph(rng.choice([2, 3, 4, 6]), rng.randint(1, 6), rng.randint(0, 12), rng)
            tail, head = rng.randrange(g.n), rng.randrange(g.n)
            color = (rng.randint(-3, 3), rng.randint(-3, 3), rng.randrange(g.context.k))
            child = g.with_edge(tail, head, color)
            want = ColoredGraph(g.context, g.n, g.edges + (Edge(tail, head, GroupElement(*color)),))
            assert child == want and hash(child) == hash(want) and repr(child) == repr(want)
            assert type(child.edges[-1].color) is GroupElement
            assert vars(child).keys() == vars(want).keys()

    def test_with_edge_checks_the_new_edge_by_the_constructors_rule(self):
        g = make_graph(3, 2, [(0, 1, (1, 0, 1)), (1, 1, (0, 2, 2))])
        for tail, head, color in ((2, 0, (0, 0, 0)), (0, -1, (0, 0, 0)),
                                  (1, 0, (0, 0, 3)), (1, 0, (0, 0, -1))):
            with pytest.raises(ValueError) as built:
                ColoredGraph(g.context, g.n, g.edges + (Edge(tail, head, GroupElement(*color)),))
            with pytest.raises(ValueError) as grown:
                g.with_edge(tail, head, color)
            assert str(grown.value) == str(built.value)
            assert str(grown.value).startswith("edge 2 has ")

    def test_zero_vertex_graph(self):
        g = parse_graph("gamma 3\nvertices 0\n")
        assert g.n == 0 and g.m == 0
        component_of, bases, _, _ = marked_forest(g)
        assert component_of == [] and bases == []
        assert serialize_graph(g) == "gamma 3\nvertices 0\n"


class TestForest:
    def test_edgeless(self):
        component_of, bases, forest, _ = marked_forest(make_graph(3, 3, []))
        assert component_of == [0, 1, 2]
        assert bases == [0, 1, 2] and forest == set()

    def test_path_and_triangle(self):
        path = make_graph(3, 3, [(0, 1, (0, 0, 0)), (1, 2, (0, 0, 0))])
        component_of, _, forest, _ = marked_forest(path)
        assert component_of == [0, 0, 0] and forest == {0, 1}
        tri = make_graph(3, 3, [(0, 1, (0, 0, 0)), (1, 2, (0, 0, 0)), (2, 0, (0, 0, 0))])
        assert marked_forest(tri)[2] == {0, 1}

    def test_alternative_choices(self):
        tri = make_graph(3, 3, [(0, 1, (0, 0, 0)), (1, 2, (0, 0, 0)), (2, 0, (0, 0, 0))])
        _, bases, forest, _ = marked_forest(tri, [2, 1, 0], [1])
        assert forest == {2, 1} and bases == [1]


def _rho_by_edge(g, marked):
    """Edge index -> rho of its fundamental closed path, read back from
    the per-component images (each in edge order)."""
    component_of, _, forest, _ = marked
    images = [iter(gens) for gens in component_images(g, marked)]
    return {i: next(images[component_of[e.tail]]) for i, e in enumerate(g.edges) if i not in forest}


def _invariants(g, order=None, bases=None):
    """(descriptors, T per component, rep of the join) on the route."""
    descriptors = [
        classify_subgroup(g.context, gens)
        for gens in component_images(g, marked_forest(g, order, bases))
    ]
    return descriptors, [invariant_t(d) for d in descriptors], join_rep(g.context, descriptors)


def _walk_image(g, walk):
    """rho of an explicit edge walk [(edge, +1|-1), ...]."""
    ctx = g.context
    acc = IDENTITY
    for idx, sign in walk:
        color = g.edges[idx].color
        acc = ctx.compose(acc, color if sign > 0 else ctx.invert(color))
    return acc


def _fundamental_walk(g, marked, edge_index):
    """The fundamental closed path of a non-forest edge as an edge walk."""
    component_of, bases, forest, _ = marked
    adj = {v: [] for v in range(g.n)}
    for i in forest:
        e = g.edges[i]
        adj[e.tail].append((e.head, i, 1))
        adj[e.head].append((e.tail, i, -1))
    base = bases[component_of[g.edges[edge_index].tail]]

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
        assert _rho_by_edge(loop, marked_forest(loop))[0] == GroupElement(1, 0, 1)
        par = make_graph(4, 2, [(0, 1, (1, 0, 1)), (0, 1, (0, 1, 0))])
        ctx = par.context
        assert _rho_by_edge(par, marked_forest(par))[1] == ctx.compose(
            GroupElement(0, 1, 0), ctx.invert(GroupElement(1, 0, 1))
        )
        ident = make_graph(2, 2, [(0, 1, (0, 0, 0)), (1, 0, (0, 0, 0))])
        assert _rho_by_edge(ident, marked_forest(ident)) == {1: IDENTITY}

    def test_matches_explicit_walk_product(self):
        rng = random.Random(70)
        for _ in range(60):
            g = random_graph(rng.choice([2, 3, 4, 6]), rng.randint(1, 5), rng.randint(1, 10), rng)
            marked = marked_forest(g)
            for i, rho in _rho_by_edge(g, marked).items():
                assert rho == _walk_image(g, _fundamental_walk(g, marked, i))

    def test_homomorphism_on_concatenated_walks(self):
        rng = random.Random(71)
        for _ in range(40):
            g = random_graph(rng.choice([2, 3, 4, 6]), rng.randint(1, 4), rng.randint(2, 10), rng)
            marked = marked_forest(g)
            component_of, _, forest, _ = marked
            non_forest = [i for i in range(g.m) if i not in forest]
            nf = [i for i in non_forest
                  if component_of[g.edges[i].tail] == component_of[g.edges[non_forest[0]].tail]]
            if len(nf) < 2:
                continue
            w1, w2 = _fundamental_walk(g, marked, nf[0]), _fundamental_walk(g, marked, nf[1])
            lhs = _walk_image(g, w1 + w2)
            rhs = g.context.compose(_walk_image(g, w1), _walk_image(g, w2))
            assert lhs == rhs


class TestInvariants:
    def test_examples(self):
        descriptors, t_list, rep = _invariants(make_graph(3, 1, [(0, 0, (0, 0, 1))]))
        assert descriptors[0].kind == "cyclic-rotation"
        assert t_list == [0] and rep == 0
        _, t_list, rep = _invariants(make_graph(2, 1, [(0, 0, (1, 0, 0)), (0, 0, (0, 1, 0))]))
        assert rep == 4 and t_list == [2]
        descriptors, _, rep = _invariants(make_graph(4, 3, [(0, 1, (0, 0, 0)), (1, 2, (0, 0, 0))]))
        assert descriptors[0].kind == "trivial" and rep == 0

    def test_invariants_independent_of_marking(self):
        rng = random.Random(72)
        for _ in range(60):
            g = random_graph(rng.choice([2, 3, 4, 6]), rng.randint(1, 5), rng.randint(0, 10), rng)
            descriptors0, t_list0, rep0 = _invariants(g)
            order = list(range(g.m))
            rng.shuffle(order)
            component_of, roots, _, _ = marked_forest(g)
            comps = [[v for v, c in enumerate(component_of) if c == ci] for ci in range(len(roots))]
            bases = [rng.choice(c) for c in comps]
            descriptors1, t_list1, rep1 = _invariants(g, order, bases)
            assert rep0 == rep1
            assert t_list0 == t_list1
            assert [d.kind for d in descriptors0] == [d.kind for d in descriptors1]

    def test_adding_in_component_edge_adds_one_element(self):
        rng = random.Random(73)
        for _ in range(50):
            g = random_graph(rng.choice([2, 3, 4, 6]), rng.randint(1, 4), rng.randint(1, 8), rng)
            marked = marked_forest(g)
            component_of = marked[0]
            tail, head = rng.randrange(g.n), rng.randrange(g.n)
            if component_of[tail] != component_of[head]:
                continue
            color = GroupElement(rng.randint(-2, 2), rng.randint(-2, 2), rng.randrange(g.context.k))
            g2 = g.with_edge(tail, head, color)
            # the old forest is kept: the new edge is scanned last
            marked2 = marked_forest(g2)
            assert marked2[2] == marked[2]
            gens, gens2 = component_images(g, marked), component_images(g2, marked2)
            comp = component_of[tail]
            for ci in range(len(gens)):
                if ci == comp:
                    assert gens2[ci][:-1] == gens[ci]
                    assert gens2[ci][-1] == _rho_by_edge(g2, marked2)[g.m]
                else:
                    assert gens2[ci] == gens[ci]

    def test_connecting_edge_is_conjugate_then_fuse(self):
        rng = random.Random(74)
        checked = 0
        while checked < 30:
            g = random_graph(rng.choice([2, 3, 4, 6]), rng.randint(2, 5), rng.randint(0, 6), rng)
            marked = marked_forest(g)
            component_of, bases, _, _ = marked
            pairs = [
                (t, h)
                for t in range(g.n)
                for h in range(g.n)
                if component_of[t] != component_of[h]
            ]
            if not pairs:
                continue
            checked += 1
            tail, head = rng.choice(pairs)
            color = GroupElement(rng.randint(-2, 2), rng.randint(-2, 2), rng.randrange(g.context.k))
            g2 = g.with_edge(tail, head, color)
            marked2 = marked_forest(g2)
            _, bases2, forest2, walk2 = marked2
            assert g.m in forest2  # the connector joins two components
            gens, gens2 = component_images(g, marked), component_images(g2, marked2)
            ctx = g.context
            # Build the indexed set of the old graph, conjugate the absorbed
            # component by the new walk to its old base, fuse, and compare.
            c_old = len(gens)
            a_old = IndexedSubset(
                c_old,
                tuple((x, ci + 1) for ci, gs in enumerate(gens) for x in gs),
            )
            ci_t, ci_h = component_of[tail], component_of[head]
            keep, absorb = min(ci_t, ci_h), max(ci_t, ci_h)
            eta = walk2[bases[absorb]]
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
                old_ci = component_of[bases2[ci]]
                old_part = keep if old_ci in (ci_t, ci_h) else old_ci
                for x in gs:
                    new_elems.append((x, old_part + 1))
            a_new = IndexedSubset(c_old, tuple(new_elems))
            assert sorted(a_new.elements) == sorted(a_fused.elements)

    def test_invariants_on_subsets(self):
        g = make_graph(3, 2, [(0, 0, (0, 0, 1)), (1, 1, (1, 0, 0)), (0, 1, (0, 0, 0))])
        sub = ColoredGraph(g.context, g.n, g.edges[:2])  # the subgraph of edges 0 and 1
        descriptors, _, _ = _invariants(sub)
        assert [d.kind for d in descriptors] == ["cyclic-rotation", "translation-only"]


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
