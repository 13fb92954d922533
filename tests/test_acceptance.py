"""Acceptance suite: every criterion at its stated scale and tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them on
success).  Randomized suites are deterministic for the fixed seed.  All
checks are exact; the only numerical tolerance anywhere is the 1e-9
float tolerance on rendered patch symmetry in criterion 11.
"""

import math
import time
import xml.etree.ElementTree as ET

import pytest

from crystal_rigidity import realization as rz
from crystal_rigidity import sparsity as sp
from crystal_rigidity.cli import main
from crystal_rigidity.colored_graph import lift_patch, make_graph, parse_graph, serialize_graph
from crystal_rigidity.selftest import (
    brute_force_sparse,
    direction_suite_graphs,
    sparsity_suite_graphs,
    suite_closure_dichotomy,
    suite_collapsed_bound,
    suite_crystal_collapse,
    suite_decomposition,
    suite_direction_theorem,
    suite_group_relations,
    suite_matroid_axioms,
    suite_oracle_equivalence,
    suite_rebase,
    suite_rigidity_theorem,
    suite_roundtrip,
    suite_transforms,
)
from lift_oracle import as_tuples

SEED = 20260808


def _report(number: int, result, elapsed: float, budget: float = None):
    line = f"ACCEPTANCE {number} {'PASS' if result.passed else 'FAIL'} {result.name}: {result.checked} checks in {elapsed:.1f}s"
    print(line)
    assert result.passed, result.failures
    if budget is not None:
        assert elapsed < budget, f"criterion {number} overran its {budget}s budget"


@pytest.fixture(scope="module")
def suite3_graphs():
    return sparsity_suite_graphs(500, SEED)


@pytest.fixture(scope="module")
def suite4_graphs():
    return direction_suite_graphs(200, SEED)


def test_criterion_1_matroid_axioms():
    t0 = time.time()
    result = suite_matroid_axioms(1000, SEED)
    _report(1, result, time.time() - t0, budget=10.0)


def test_criterion_2_closure_dichotomy():
    t0 = time.time()
    result = suite_closure_dichotomy(1000, SEED)
    _report(2, result, time.time() - t0, budget=10.0)


def test_criterion_3_oracle_equivalence():
    t0 = time.time()
    result = suite_oracle_equivalence(500, SEED)
    _report(3, result, time.time() - t0, budget=60.0)


def test_criterion_4_direction_theorem(suite4_graphs):
    # Laman iff the direction system has a unique faithful solution.
    # Full rank alone is not equivalent: a tight subgraph forces collapsed
    # edges in the solution without costing rank.
    t0 = time.time()
    positives = sum(1 for _, laman in suite4_graphs if laman)
    result = suite_direction_theorem(suite4_graphs, SEED)
    elapsed = time.time() - t0
    print(f"  (criterion 4 sample: {positives} Laman positives of {len(suite4_graphs)})")
    _report(4, result, elapsed, budget=300.0)


def test_criterion_5_crystal_collapse(suite3_graphs):
    t0 = time.time()
    result = suite_crystal_collapse(suite3_graphs, SEED)
    assert result.checked > 0
    _report(5, result, time.time() - t0)


def test_criterion_6_rigidity_theorem(suite4_graphs):
    t0 = time.time()
    result = suite_rigidity_theorem(suite4_graphs, SEED)
    _report(6, result, time.time() - t0, budget=300.0)


def test_criterion_7_collapsed_dimension_bound():
    t0 = time.time()
    result = suite_collapsed_bound(500, SEED)
    _report(7, result, time.time() - t0)


def test_criterion_8_decomposition(suite3_graphs, suite4_graphs):
    t0 = time.time()
    result = suite_decomposition(suite3_graphs, suite4_graphs, SEED)
    assert result.checked > 100
    _report(8, result, time.time() - t0)


def test_criterion_9_worked_example():
    t0 = time.time()
    g = make_graph(3, 1, [(0, 0, (0, 0, 1)), (0, 0, (1, 0, 0)), (0, 0, (1, 0, 1))])
    # brute-force oracle confirmation precedes the oracle claims
    assert brute_force_sparse(g, "f", strict=True)
    assert g.m == 2 * g.n + 2 - 1
    assert sp.is_laman(g)
    result = rz.realize(g, rz.random_directions(g, SEED))
    assert isinstance(result, rz.Realization)
    bigger = g.with_edge(0, 0, (0, 1, 0))
    assert brute_force_sparse(bigger, "f")
    assert sp.is_gamma22(bigger)
    system = rz.assemble_direction_system(bigger, rz.random_directions(bigger, SEED))
    rank, kernel = rz.rank_and_kernel(system.rows, system.ncols)
    assert len(kernel) == 0
    print(f"ACCEPTANCE 9 PASS worked example: 6 checks in {time.time() - t0:.1f}s")


def test_criterion_10_invariance_suites():
    t0 = time.time()
    rebase = suite_rebase(200, SEED)
    transforms = suite_transforms(500, SEED)
    relations = suite_group_relations(1000, SEED)
    elapsed = time.time() - t0
    ok = rebase.passed and transforms.passed and relations.passed
    checks = rebase.checked + transforms.checked + relations.checked
    print(
        f"ACCEPTANCE 10 {'PASS' if ok else 'FAIL'} invariance suites: "
        f"{checks} checks in {elapsed:.1f}s (includes the per-subgroup "
        f"identity rep - T - 1 = teich - cent)"
    )
    assert rebase.passed, rebase.failures
    assert transforms.passed, transforms.failures
    assert relations.passed, relations.failures


def test_criterion_11_cli_and_format(tmp_path, capsys):
    t0 = time.time()
    result = suite_roundtrip(100, SEED)
    assert result.passed, result.failures

    # 100 CLI-generated files round trip byte-identically
    for i in range(100):
        out = tmp_path / f"gen{i}.graph"
        code = main(
            ["gen", str([2, 3, 4, 6][i % 4]), str(1 + i % 5), str(i % 13),
             "--seed", str(i), "--out", str(out)]
        )
        assert code == 0
        text = out.read_text()
        assert serialize_graph(parse_graph(text)) == text

    # rendered SVG is well-formed and the emitted point set is symmetric
    # under the realized generators to 1e-9 (checked on the patch that the
    # SVG plots; file coordinates themselves are rounded for output)
    laman = tmp_path / "laman.graph"
    laman.write_text(
        "gamma 3\nvertices 1\ne 0 0 0 0 1\ne 0 0 1 0 0\ne 0 0 1 0 1\n"
    )
    svg_path = tmp_path / "patch.svg"
    assert main(["render", str(laman), "--out", str(svg_path), "--seed", "5", "--radius", "2"]) == 0
    capsys.readouterr()
    root = ET.fromstring(svg_path.read_text())
    assert root.tag.endswith("svg")
    circles = [el for el in root.iter() if el.tag.endswith("circle")]
    assert len(circles) >= 3 * 25

    g = parse_graph(laman.read_text())
    real = rz.realize(g, rz.random_directions(g, 5))
    assert isinstance(real, rz.Realization)
    big = as_tuples(lift_patch(g, real, 2))
    small = as_tuples(lift_patch(g, real, 1))
    points = [(p.x, p.y) for p in big.points]
    k = 3
    theta = 2 * math.pi / k
    v1, v2 = big.cell

    def apply_gen(gen, p):
        m1, m2, s = gen
        x, y = p
        for _ in range(s):
            x, y = (
                math.cos(theta) * x - math.sin(theta) * y,
                math.sin(theta) * x + math.cos(theta) * y,
            )
        return (x + m1 * v1[0] + m2 * v2[0], y + m1 * v1[1] + m2 * v2[1])

    for gen in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]:
        for p in small.points:
            gx, gy = apply_gen(gen, (p.x, p.y))
            assert any(
                abs(gx - qx) < 1e-9 and abs(gy - qy) < 1e-9 for qx, qy in points
            ), gen
    print(
        f"ACCEPTANCE 11 PASS cli/format: {result.checked + 100} round trips "
        f"+ SVG symmetry in {time.time() - t0:.1f}s"
    )
