"""The value records of the command path: ``ColoredGraph``,
``ComponentCounts``, ``CountReport``, ``UnionCertificate``,
``LinearSystem``, ``Realization`` and ``RealizationDiagnosis``.

Each is built by position or by keyword, refuses assignment, compares and
hashes by value and prints the ``repr`` a frozen dataclass of the same
fields prints (the strings below).  ``ColoredGraph`` also keeps an
instance dict and weak references; ``RealizationDiagnosis`` leaves
``exact_kernel`` out of eq, hash and repr, and computes ``kernel`` once.
"""

import random
import weakref
from fractions import Fraction

import pytest

from crystal_rigidity.colored_graph import (
    ColoredGraph,
    Edge,
    GraphParseError,
    make_graph,
    parse_graph,
    serialize_graph,
)
from crystal_rigidity.generate import random_graph
from crystal_rigidity.groups import GroupContext, GroupElement
from crystal_rigidity.realization import (
    ONE,
    ZERO,
    LinearSystem,
    Realization,
    RealizationDiagnosis,
    Scalar,
)
from crystal_rigidity.sparsity import ComponentCounts, CountReport, UnionCertificate

EDGES = (Edge(0, 1, GroupElement(1, 0, 1)), Edge(1, 1, GroupElement(0, -2, 2)))
COMPONENT = ComponentCounts((0, 1), 2, True, False, 0, 1)
REASON = "kernel dimension 2, realization not unique up to scale"


def _no_kernel():
    raise AssertionError("the kernel was read")


# (class, field values in order, its repr)
SAMPLES = [
    (ColoredGraph, (GroupContext(3), 2, EDGES),
     "ColoredGraph(context=GroupContext(k=3), n=2, edges=(Edge(tail=0, head=1, "
     "color=GroupElement(t1=1, t2=0, s=1)), Edge(tail=1, head=1, color=GroupElement(t1=0, t2=-2, s=2))))"),
    (ColoredGraph, (GroupContext(2), 0, ()), "ColoredGraph(context=GroupContext(k=2), n=0, edges=())"),
    (ComponentCounts, ((0, 1), 2, True, False, 0, 1),
     "ComponentCounts(vertices=(0, 1), edge_count=2, has_rotation=True, has_translation=False, t=0, cent=1)"),
    (CountReport, (2, 4, 2, 1, 0, 2, (COMPONENT,)),
     "CountReport(m=2, f=4, g=2, h=1, h_prime=0, rep=2, components=(ComponentCounts(vertices=(0, 1), "
     "edge_count=2, has_rotation=True, has_translation=False, t=0, cent=1),))"),
    (UnionCertificate, (((0, 2), (1,)), None), "UnionCertificate(partition=((0, 2), (1,)), violating=None)"),
    (UnionCertificate, (None, (0, 1, 2)), "UnionCertificate(partition=None, violating=(0, 1, 2))"),
    (LinearSystem, (({0: (1, 0)}, {1: (2, -3), 3: (0, 1)}), 4),
     "LinearSystem(rows=({0: (1, 0)}, {1: (2, -3), 3: (0, 1)}), ncols=4)"),
    (Realization, (3, ((Scalar(Fraction(1, 2)), Scalar(0, -1)),), (ONE, ZERO), None),
     "Realization(k=3, points=((Scalar(Fraction(1, 2), Fraction(0, 1)), Scalar(Fraction(0, 1), "
     "Fraction(-1, 1))),), v1=(Scalar(Fraction(1, 1), Fraction(0, 1)), Scalar(Fraction(0, 1), "
     "Fraction(0, 1))), v2=None)"),
    (Realization, (2, (), (ONE, ZERO), (ZERO, Scalar(3))),
     "Realization(k=2, points=(), v1=(Scalar(Fraction(1, 1), Fraction(0, 1)), Scalar(Fraction(0, 1), "
     "Fraction(0, 1))), v2=(Scalar(Fraction(0, 1), Fraction(0, 1)), Scalar(Fraction(3, 1), Fraction(0, 1))))"),
    (RealizationDiagnosis, (2, (0, 3), REASON, _no_kernel),
     "RealizationDiagnosis(kernel_dim=2, collapsed_edges=(0, 3), "
     "reason='kernel dimension 2, realization not unique up to scale')"),
]
FIELDS = {
    ColoredGraph: ("context", "n", "edges"),
    ComponentCounts: ("vertices", "edge_count", "has_rotation", "has_translation", "t", "cent"),
    CountReport: ("m", "f", "g", "h", "h_prime", "rep", "components"),
    UnionCertificate: ("partition", "violating"),
    LinearSystem: ("rows", "ncols"),
    Realization: ("k", "points", "v1", "v2"),
    RealizationDiagnosis: ("kernel_dim", "collapsed_edges", "reason", "exact_kernel"),
}
IDS = [f"{cls.__name__}-{i}" for i, (cls, _, _) in enumerate(SAMPLES)]


@pytest.mark.parametrize("cls, values, text", SAMPLES, ids=IDS)
class TestEveryRecord:
    def test_by_position_and_by_keyword(self, cls, values, text):
        by_position = cls(*values)
        by_keyword = cls(**dict(zip(FIELDS[cls], values)))
        for record in (by_position, by_keyword):
            assert [getattr(record, name) for name in FIELDS[cls]] == list(values)
        assert by_position == by_keyword

    def test_a_missing_or_extra_field_is_a_type_error(self, cls, values, text):
        with pytest.raises(TypeError):
            cls(*values[:-1])
        with pytest.raises(TypeError):
            cls(*values, None)
        with pytest.raises(TypeError):
            cls(*values, extra=None)

    def test_assignment_is_refused(self, cls, values, text):
        record = cls(*values)
        for name in FIELDS[cls]:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert [getattr(record, name) for name in FIELDS[cls]] == list(values)

    def test_equal_values_compare_and_hash_equal(self, cls, values, text):
        a, b = cls(*values), cls(*values)
        assert a == b and not a != b
        if cls is LinearSystem:
            with pytest.raises(TypeError):  # its rows are dicts, as before
                hash(a)
        else:
            assert hash(a) == hash(b)

    def test_repr_is_the_dataclass_repr(self, cls, values, text):
        assert repr(cls(*values)) == text


class TestColoredGraph:
    def test_each_field_decides_equality(self):
        g = make_graph(3, 2, [(0, 1, (1, 0, 1)), (1, 1, (0, -2, 2))])
        others = [
            make_graph(4, 2, [(0, 1, (1, 0, 1)), (1, 1, (0, -2, 2))]),
            make_graph(3, 3, [(0, 1, (1, 0, 1)), (1, 1, (0, -2, 2))]),
            make_graph(3, 2, [(0, 1, (1, 0, 1))]),
        ]
        for other in others:
            assert g != other and other != g and not g == other
        assert g != (g.context, g.n, g.edges) and g != EDGES

    def test_instance_dict_and_weak_references(self):
        g = make_graph(3, 2, [(0, 1, (1, 0, 1))])
        assert vars(g) == {"context": GroupContext(3), "n": 2, "edges": (EDGES[0],)}
        object.__setattr__(g, "_laman_engine", "memo")
        assert vars(g)["_laman_engine"] == "memo"
        assert g == make_graph(3, 2, [(0, 1, (1, 0, 1))])
        assert "memo" not in repr(g)
        freed = []
        ref = weakref.ref(g, lambda _: freed.append(True))
        assert ref() is g
        del g
        assert freed == [True] and ref() is None

    def test_a_parsed_graph_equals_the_checked_constructor(self):
        rng = random.Random(35)
        for _ in range(100):
            g = random_graph(rng.choice([2, 3, 4, 6]), rng.randint(1, 6), rng.randint(0, 12), rng)
            parsed = parse_graph(serialize_graph(g))
            assert parsed == g and hash(parsed) == hash(g) and repr(parsed) == repr(g)
            assert vars(parsed) == vars(g) and type(parsed) is ColoredGraph
            doubled = g.with_doubled_edge(0) if g.m else g
            assert doubled == ColoredGraph(g.context, g.n, g.edges + g.edges[:1])

    def test_the_parser_rejects_every_edge_the_constructor_rejects(self):
        # The parser builds the graph without the constructor's checks, so
        # its own must cover them, each with the edge's line number.
        for tail, head, s in ((2, 0, 0), (0, 2, 0), (-1, 0, 0), (0, -1, 0), (0, 0, 3), (0, 0, -1)):
            with pytest.raises(ValueError):
                make_graph(3, 2, [(0, 1, (0, 0, 0)), (tail, head, (0, 0, s))])
            text = f"gamma 3\nvertices 2\ne 0 1 0 0 0\ne {tail} {head} 0 0 {s}\n"
            with pytest.raises(GraphParseError, match="^line 4: "):
                parse_graph(text)
        with pytest.raises(GraphParseError, match="^line 2: vertex count must be non-negative"):
            parse_graph("gamma 3\nvertices -1\n")


class TestRealizationDiagnosis:
    def test_exact_kernel_is_out_of_eq_hash_and_repr(self):
        a = RealizationDiagnosis(2, (0, 3), REASON, _no_kernel)
        b = RealizationDiagnosis(2, (0, 3), REASON, lambda: [{0: (1, 0)}, {1: (1, 0)}])
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert "exact_kernel" not in repr(a)
        for changed in ((1, (0, 3), REASON), (2, (0,), REASON), (2, (0, 3), "collapsed (kernel dim 0)")):
            assert RealizationDiagnosis(*changed, _no_kernel) != a

    def test_the_kernel_is_computed_once(self):
        calls = []

        def exact_kernel():
            calls.append(1)
            return [{0: (1, 0)}, {1: (1, 0)}]

        diag = RealizationDiagnosis(2, (), REASON, exact_kernel)
        assert calls == []
        assert diag.kernel == ({0: (1, 0)}, {1: (1, 0)}) and diag.kernel is diag.kernel
        assert calls == [1]
        assert diag == RealizationDiagnosis(2, (), REASON, _no_kernel)

    def test_a_kernel_of_the_wrong_dimension_raises(self):
        diag = RealizationDiagnosis(3, (), REASON, lambda: [{0: (1, 0)}])
        with pytest.raises(ArithmeticError):
            diag.kernel
