"""Command-line interface: exit codes, certificates, formats, rendering."""

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

import pytest

from crystal_rigidity import realization as rz
from crystal_rigidity.cli import _pick_render_realization, main
from crystal_rigidity.colored_graph import (
    GraphParseError,
    MAX_BOUND,
    MAX_COLOR,
    MAX_EDGES,
    MAX_FILE_BYTES,
    MAX_PATCH,
    MAX_RADIUS,
    MAX_SAMPLES,
    MAX_SCALE,
    MAX_VERTICES,
    check_patch_limits,
    make_graph,
    parse_graph,
)
from crystal_rigidity.generate import random_graph
from crystal_rigidity.groups import GroupContext
from crystal_rigidity.sparsity import count_report, is_laman_sparse
from instances import graph_text, grow_reference, random_edge
from scalar_oracle import kernel_vector

LAMAN = "gamma 3\nvertices 1\ne 0 0 0 0 1\ne 0 0 1 0 0\ne 0 0 1 0 1\n"
BAD = "gamma 3\nvertices 1\ne 0 0 1 0 0\ne 0 0 0 1 0\ne 0 0 0 0 1\n"
G22 = "gamma 3\nvertices 1\ne 0 0 0 0 1\ne 0 0 1 0 0\ne 0 0 1 0 1\ne 0 0 0 1 0\n"
G11 = "gamma 3\nvertices 1\ne 0 0 0 0 1\ne 0 0 1 0 0\n"
UNDER = "gamma 3\nvertices 1\ne 0 0 0 0 1\n"
# 10^5000 + 7: 5,001 digits, past the default limit of 4,300 on int -> str.
HUGE = 10**5000 + 7
HUGE_TEXT = "1" + "0" * 4999 + "7"
# Subprocesses run this checkout's package, installed or not.
CHECKOUT_ENV = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in [("laman", LAMAN), ("bad", BAD), ("g22", G22), ("g11", G11), ("under", UNDER)]:
        p = tmp_path / f"{name}.graph"
        p.write_text(text)
        paths[name] = str(p)
    return paths


class TestCheck:
    def test_laman_positive(self, files, capsys):
        assert main(["check", files["laman"], "--family", "laman"]) == 0
        assert "LAMAN" in capsys.readouterr().out

    def test_laman_negative_prints_circuit(self, files, capsys):
        assert main(["check", files["bad"], "--family", "laman"]) == 1
        out = capsys.readouterr().out
        assert "NOT-LAMAN" in out
        circuit_line = next(l for l in out.splitlines() if l.startswith("circuit"))
        circuit = [int(x) for x in circuit_line.split()[1:]]
        g = parse_graph(BAD)
        # the printed certificate re-validates
        assert not is_laman_sparse(g, circuit)
        for e in circuit:
            rest = [x for x in circuit if x != e]
            if rest:
                assert is_laman_sparse(g, rest)

    def test_gamma22_partition_revalidates(self, files, capsys):
        assert main(["check", files["g22"], "--family", "22"]) == 0
        out = capsys.readouterr().out
        g = parse_graph(G22)
        for line in out.splitlines():
            if line.startswith("part-"):
                part = [int(x) for x in line.split()[1:]]
                assert count_report(g, part).g == len(part)

    def test_gamma22_negative(self, files, capsys):
        assert main(["check", files["bad"], "--family", "22"]) == 1
        assert "NOT-GAMMA-22" in capsys.readouterr().out

    def test_family_11_and_gencone(self, files, capsys, tmp_path):
        g11 = tmp_path / "g11.graph"
        g11.write_text("gamma 3\nvertices 1\ne 0 0 0 0 1\ne 0 0 1 0 0\n")
        assert main(["check", str(g11), "--family", "11"]) == 0
        out = capsys.readouterr().out
        assert "GAMMA-11" in out and "cone-core" in out
        cone = tmp_path / "cone.graph"
        cone.write_text("gamma 3\nvertices 1\ne 0 0 0 0 1\n")
        assert main(["check", str(cone), "--family", "gencone11"]) == 0
        assert "rank 1" in capsys.readouterr().out

    def test_missing_file_is_usage_error(self, capsys):
        assert main(["check", "/nonexistent.graph"]) == 2

    def test_parse_error_exit_code(self, tmp_path, capsys):
        p = tmp_path / "bad.graph"
        p.write_text("gamma 5\nvertices 1\n")
        assert main(["check", str(p)]) == 2
        assert "k must be 2,3,4,6" in capsys.readouterr().err

    def test_json_payload(self, files, capsys):
        assert main(["check", files["g22"], "--family", "22", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["decision"] is True
        assert sorted(payload["partition"][0] + payload["partition"][1]) == [0, 1, 2, 3]


class TestRealizeRank:
    def test_realize_success(self, files, capsys):
        assert main(["realize", files["laman"], "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("point 0 ")
        assert "lattice v1" in out

    def test_realize_collapse(self, files, capsys):
        assert main(["realize", files["g22"], "--seed", "7"]) == 1
        assert "collapsed (kernel dim 0)" in capsys.readouterr().out

    def test_realize_circuit_diagnosis(self, files, capsys):
        assert main(["realize", files["bad"], "--seed", "7"]) == 1
        out = capsys.readouterr().out
        assert "diagnosis" in out and "circuit" in out

    def test_realize_past_the_int_digit_limit(self, files, capsys, monkeypatch):
        real = rz.Realization(3, ((rz.Scalar(HUGE), rz.Scalar(Fraction(1, 3), -HUGE)),), (rz.ONE, rz.ZERO), None)
        monkeypatch.setattr(rz, "realize", lambda g, directions: real)
        assert main(["realize", files["laman"], "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["points"] == [[HUGE_TEXT, f"1/3-{HUGE_TEXT}*sqrt3"]]
        assert payload["v1"] == ["1", "0"]
        assert main(["realize", files["laman"]]) == 0
        assert capsys.readouterr().out == f"point 0 {HUGE_TEXT} 1/3-{HUGE_TEXT}*sqrt3\nlattice v1 1 0\n"

    def test_rank_verdicts(self, files, capsys):
        assert main(["rank", files["laman"], "--seed", "5"]) == 0
        assert "MINIMALLY-RIGID" in capsys.readouterr().out
        assert main(["rank", files["bad"], "--seed", "5"]) == 1
        assert "FLEXIBLE" in capsys.readouterr().out

    def test_rank_flexible_translation_loops(self, tmp_path, capsys):
        p = tmp_path / "trans.graph"
        p.write_text("gamma 3\nvertices 1\ne 0 0 1 0 0\ne 0 0 0 1 0\ne 0 0 1 1 0\n")
        assert main(["rank", str(p), "--seed", "5"]) == 1
        assert "FLEXIBLE" in capsys.readouterr().out

    def test_rank_overbraced(self, tmp_path, capsys):
        over = tmp_path / "over.graph"
        over.write_text(LAMAN + "e 0 0 0 1 0\ne 0 0 0 1 1\n")
        assert main(["rank", str(over), "--seed", "5"]) == 1
        assert "OVERBRACED" in capsys.readouterr().out

    def test_rank_json(self, files, capsys):
        assert main(["rank", files["laman"], "--seed", "5", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "MINIMALLY-RIGID"
        assert payload["rank"] == payload["m"] == payload["target"] == 3


class TestRender:
    def test_svg_well_formed_and_counts(self, files, tmp_path, capsys):
        out = tmp_path / "patch.svg"
        assert main(["render", files["laman"], "--out", str(out), "--seed", "3", "--radius", "2"]) == 0
        doc = out.read_text()
        root = ET.fromstring(doc)
        assert root.tag.endswith("svg")
        circles = [el for el in root.iter() if el.tag.endswith("circle")]
        assert len(circles) >= 3 * (2 * 2 + 1) ** 2

    def test_radius_zero_point_count(self, files, tmp_path, capsys):
        out = tmp_path / "p0.svg"
        assert main(["render", files["laman"], "--out", str(out), "--seed", "3", "--radius", "0"]) == 0
        root = ET.fromstring(out.read_text())
        circles = [el for el in root.iter() if el.tag.endswith("circle")]
        assert len(circles) == 1 * 3

    def test_deterministic_output(self, files, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        main(["render", files["laman"], "--out", str(a), "--seed", "9"])
        main(["render", files["laman"], "--out", str(b), "--seed", "9"])
        assert a.read_bytes() == b.read_bytes()

    def test_collapsed_only_graph_fails(self, files, tmp_path, capsys):
        out = tmp_path / "c.svg"
        assert main(["render", files["g22"], "--out", str(out), "--seed", "3"]) == 1
        assert "collapsed" in capsys.readouterr().out

    def test_non_laman_fallback_renders(self, tmp_path, capsys):
        under = tmp_path / "under.graph"
        under.write_text("gamma 3\nvertices 1\ne 0 0 0 0 1\n")
        out = tmp_path / "u.svg"
        assert main(["render", str(under), "--out", str(out), "--seed", "3"]) == 0
        ET.fromstring(out.read_text())


# Exact stdout and exit code per command; "@name" is the fixture file.
GOLDEN = [
    (["check", "@laman"], 0, "LAMAN\n"),
    (["check", "@laman", "--json"], 0,
     '{\n  "command": "check",\n  "decision": true,\n  "family": "laman",\n'
     '  "m": 3,\n  "n": 1,\n  "target_edges": 3\n}\n'),
    (["check", "@bad"], 1, "NOT-LAMAN\ncircuit 0 1\n"),
    (["check", "@bad", "--json"], 1,
     '{\n  "circuit": [\n    0,\n    1\n  ],\n  "command": "check",\n  "decision": false,\n'
     '  "family": "laman",\n  "m": 3,\n  "n": 1,\n  "target_edges": 3\n}\n'),
    (["check", "@g22", "--family", "22"], 0, "GAMMA-22\npart-X 0 1\npart-Y 2 3\n"),
    (["check", "@g22", "--family", "22", "--json"], 0,
     '{\n  "command": "check",\n  "decision": true,\n  "family": "22",\n  "m": 4,\n  "n": 1,\n'
     '  "partition": [\n    [\n      0,\n      1\n    ],\n    [\n      2,\n      3\n    ]\n  ],\n'
     '  "target_edges": 4\n}\n'),
    (["check", "@bad", "--family", "22"], 1, "NOT-GAMMA-22\nedge count 3 != 4\n"),
    (["check", "@g11", "--family", "11"], 0, "GAMMA-11\ncone-core 0\n"),
    (["check", "@bad", "--family", "11"], 1, "NOT-GAMMA-11\ndependent 0 1\n"),
    (["realize", "@laman", "--seed", "7"], 0,
     "point 0 1 -558/359-521/359*sqrt3\n"
     "lattice v1 -26865/1027817-30845/1027817*sqrt3 -1773090/1027817-2035770/1027817*sqrt3\n"),
    (["realize", "@g22", "--seed", "7"], 1,
     "diagnosis collapsed (kernel dim 0)\ncollapsed 0 1 2 3\ncircuit 1 3\n"),
    (["realize", "@bad", "--seed", "7"], 1,
     "diagnosis unique solution is not faithful\ncollapsed 0 1\ncircuit 0 1\n"),
    (["realize", "@under", "--seed", "7"], 1,
     "diagnosis kernel dimension 3, realization not unique up to scale\n"),
    (["realize", "@bad", "--seed", "7", "--json"], 1,
     '{\n  "circuit": [\n    0,\n    1\n  ],\n  "collapsed_edges": [\n    0,\n    1\n  ],\n'
     '  "command": "realize",\n  "faithful": false,\n  "kernel_dim": 1,\n'
     '  "reason": "unique solution is not faithful"\n}\n'),
    (["rank", "@laman"], 0, "rank 3\nm 3\ntarget 3\nMINIMALLY-RIGID\n"),
    (["rank", "@bad", "--seed", "5", "--json"], 1,
     '{\n  "command": "rank",\n  "m": 3,\n  "rank": 2,\n  "samples": 3,\n  "target": 3,\n'
     '  "verdict": "FLEXIBLE"\n}\n'),
]


class TestGolden:
    @pytest.mark.parametrize(
        "argv, code, stdout", GOLDEN, ids=[" ".join(argv) for argv, _, _ in GOLDEN]
    )
    def test_stdout_and_exit_code(self, files, capsys, monkeypatch, argv, code, stdout):
        monkeypatch.delenv("CR_SEED", raising=False)
        argv = [files[a[1:]] if a.startswith("@") else a for a in argv]
        assert main(argv) == code
        assert capsys.readouterr().out == stdout

    def test_readme_render_svg_bytes(self, files, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("CR_SEED", raising=False)
        out = tmp_path / "patch.svg"
        assert main(["render", files["laman"], "--out", str(out), "--radius", "2"]) == 0
        assert capsys.readouterr().out == f"wrote {out}: 75 points, 225 segments\n"
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "79a3b8eeafadf6fd298b4b32ba6e55561146cf719c083e189d932f2c951e240d"


# Graphs without a faithful realization at seed 0, from a seeded search over
# random_graph: under-braced (kernel dim 3) and non-faithful (kernel dim 1).
UNDER3 = "gamma 3\nvertices 2\ne 0 1 -2 1 1\ne 1 1 -1 -2 1\ne 0 1 1 2 0\n"
DIM1 = (
    "gamma 2\nvertices 3\ne 2 2 0 -1 1\ne 0 1 1 0 1\ne 2 2 -1 2 0\ne 2 2 -1 1 1\n"
    "e 0 1 -1 -2 0\ne 0 2 0 1 0\ne 0 0 2 -1 0\ne 1 1 -2 1 0\ne 2 1 2 2 0\n"
)


class TestRenderFallback:
    """``render`` of graphs whose direction network has no faithful solution."""

    @pytest.mark.parametrize(
        "text, segments, digest",
        [
            (UNDER3, 225, "3da1a2b3ebff7afaac07062c58f18e10cd407e7a0ad88b0bae2569bee2753bd1"),
            (DIM1, 450, "bce9ab0ecf2ef9130b4fc63ed3fb0fd4728cf719176da7c3d274eb13b42acbeb"),
        ],
        ids=["kernel-dim-3", "kernel-dim-1"],
    )
    def test_svg_bytes(self, tmp_path, capsys, text, segments, digest):
        path, out = tmp_path / "g.graph", tmp_path / "g.svg"
        path.write_text(text)
        assert main(["render", str(path), "--out", str(out), "--seed", "0", "--radius", "2"]) == 0
        assert capsys.readouterr().out == f"wrote {out}: 150 points, {segments} segments\n"
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_one_elimination_per_render(self, tmp_path, capsys, monkeypatch):
        calls = []
        eliminate = rz.rank_and_kernel

        def counting(rows, ncols):
            calls.append(ncols)
            return eliminate(rows, ncols)

        monkeypatch.setattr(rz, "rank_and_kernel", counting)
        path, out = tmp_path / "g.graph", tmp_path / "g.svg"
        path.write_text(UNDER3)
        assert main(["render", str(path), "--out", str(out), "--seed", "0"]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("k", [2, 3, 4, 6])
    def test_eliminations_per_render_of_a_grown_basis(self, tmp_path, capsys, monkeypatch, k):
        # A Laman basis eliminates once, for its faithful realization.  Plus
        # one edge, ``realize`` decides kernel dimension 0 mod P, and the
        # empty kernel is not eliminated to find that nothing can be drawn.
        calls = []
        eliminate = rz.rank_and_kernel

        def counting(rows, ncols):
            calls.append(ncols)
            return eliminate(rows, ncols)

        monkeypatch.setattr(rz, "rank_and_kernel", counting)
        rng = random.Random(f"render-calls:{k}")
        cands, flags, _, _ = grow_reference(k, 10, rng)
        basis = [e for e, ok in zip(cands, flags) if ok]
        path, out = tmp_path / "g.graph", tmp_path / "g.svg"
        for edges, code, eliminations in ((basis, 0, 1), (basis + [random_edge(k, 10, rng)], 1, 0)):
            path.write_text(graph_text(k, 10, edges))
            calls.clear()
            assert main(["render", str(path), "--out", str(out), "--seed", "1", "--bound", str(10**9)]) == code
            assert len(calls) == eliminations, len(edges)
        assert capsys.readouterr().out.endswith("cannot render: only fully collapsed solutions\n")

    def test_one_echelon_realization_per_render(self, monkeypatch):
        # An edgeless graph's kernel rows are its 2n point columns, each
        # fully collapsed, then its lattice columns: only the pick is built.
        calls = []
        echelon = rz.echelon_realization

        def counting(g, row):
            calls.append(max(row))
            return echelon(g, row)

        monkeypatch.setattr(rz, "echelon_realization", counting)
        g = make_graph(3, 300, [])
        real = _pick_render_realization(g, 0, 100)
        assert calls == [600] and not real.is_trivial()


# Laman bases at n = 10, one per k, grown by greedy insertion of random
# edges (color bound 2); each has a faithful realization at seed 0.
BASE10 = {
    2: "gamma 2\nvertices 10\ne 3 3 -2 -2 1\ne 8 4 2 -2 0\ne 3 1 -2 -2 0\ne 0 4 1 0 1\n"
       "e 4 5 1 -2 0\ne 9 6 -2 2 1\ne 1 2 1 -2 1\ne 4 2 0 2 0\ne 7 0 0 1 0\ne 4 6 -2 -1 1\n"
       "e 1 9 -2 -2 1\ne 6 9 0 -1 1\ne 5 7 -1 -1 1\ne 5 8 0 -1 1\ne 9 3 -1 2 1\ne 0 0 -2 2 1\n"
       "e 5 8 -2 2 0\ne 3 4 0 -2 0\ne 7 7 -1 -1 0\ne 3 2 0 0 1\ne 4 8 1 0 0\ne 5 1 -2 -1 0\n"
       "e 2 7 1 2 1\n",
    3: "gamma 3\nvertices 10\ne 3 2 0 0 2\ne 3 1 -1 -2 0\ne 0 3 -1 -2 0\ne 7 7 2 -1 0\n"
       "e 3 1 -1 1 0\ne 9 6 -2 1 2\ne 7 8 -1 -2 1\ne 9 8 -2 0 1\ne 1 7 0 -1 2\ne 8 3 -2 -1 2\n"
       "e 1 5 0 0 2\ne 5 1 1 0 1\ne 9 5 -2 -2 2\ne 6 8 1 -2 2\ne 6 9 -1 1 2\ne 4 5 0 0 1\n"
       "e 1 6 1 -1 1\ne 5 6 1 0 2\ne 2 4 2 0 0\ne 4 0 -1 -1 1\ne 8 2 2 2 2\n",
    4: "gamma 4\nvertices 10\ne 5 4 2 0 1\ne 6 3 2 0 3\ne 0 8 1 0 2\ne 2 6 1 -2 3\n"
       "e 6 0 1 2 3\ne 4 6 -1 0 1\ne 3 2 0 -1 2\ne 2 7 -1 2 2\ne 1 6 -1 0 0\ne 0 2 -1 -1 1\n"
       "e 2 4 -2 2 0\ne 6 9 0 1 2\ne 4 3 -1 0 2\ne 4 2 1 1 3\ne 8 4 -2 -1 0\ne 9 4 0 -2 3\n"
       "e 5 5 1 -1 3\ne 7 9 1 -2 2\ne 4 0 -1 2 0\ne 9 4 1 0 1\ne 1 6 2 -1 3\n",
    6: "gamma 6\nvertices 10\ne 3 1 2 1 2\ne 8 9 0 1 1\ne 8 6 -2 1 1\ne 5 7 2 2 5\n"
       "e 1 2 -1 2 0\ne 8 0 -2 -2 3\ne 4 7 1 -1 5\ne 4 2 -2 1 3\ne 7 4 2 0 1\ne 9 7 1 1 5\n"
       "e 6 5 1 -2 3\ne 7 8 0 -1 4\ne 8 3 -1 2 4\ne 5 9 0 1 1\ne 2 1 -1 -1 0\ne 1 5 0 -1 1\n"
       "e 0 8 -2 -2 2\ne 6 5 1 -1 5\ne 7 9 0 1 0\ne 4 5 -1 2 1\ne 4 7 1 -2 4\n",
}


class TestRenderBase10:
    """``render --radius 2`` of the n = 10 bases: SVG bytes, and the group
    law used once per (edge, power), never per placed segment."""

    @pytest.mark.parametrize(
        "k, points, segments, digest",
        [
            (2, 500, 1150, "37cccdef407b59885edfec731bdd72b3e25ee8f57baaf5847c7af37c83a1e9c9"),
            (3, 750, 1575, "0b8052321b7f13de3716595f2e7c5f2404e2f4a67a05d09bcb50bed5a256b6e7"),
            (4, 1000, 2100, "1f0e1f198a3296a43a0f0aff629f44be79216b214666586b906f652bc01cb40a"),
            (6, 1500, 3150, "a780c1a1a1876fe0f2f2abc28962342fd8d58a17278a5e6f100295df616cebe9"),
        ],
        ids=["k2", "k3", "k4", "k6"],
    )
    def test_svg_bytes(self, tmp_path, capsys, k, points, segments, digest):
        path, out = tmp_path / "g.graph", tmp_path / "g.svg"
        path.write_text(BASE10[k])
        assert main(["render", str(path), "--out", str(out), "--seed", "0", "--radius", "2"]) == 0
        assert capsys.readouterr().out == f"wrote {out}: {points} points, {segments} segments\n"
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_compose_once_per_edge_and_power(self, tmp_path, capsys, monkeypatch):
        calls = []
        compose = GroupContext.compose

        def counting(self, a, b):
            calls.append(None)
            return compose(self, a, b)

        monkeypatch.setattr(GroupContext, "compose", counting)
        path, out = tmp_path / "g.graph", tmp_path / "g.svg"
        path.write_text(BASE10[6])
        assert main(["render", str(path), "--out", str(out), "--seed", "0", "--radius", "2"]) == 0
        assert capsys.readouterr().out == f"wrote {out}: 1500 points, 3150 segments\n"
        assert len(calls) <= 6 * 21


def exact_render_pick(g, seed, bound):
    """Oracle of ``_pick_render_realization``: the same candidates, each
    tested with every exact edge vector."""
    result = rz.realize(g, rz.random_directions(g, seed, bound))
    if isinstance(result, rz.Realization):
        return result
    if not result.kernel:
        return None
    kernel = [kernel_vector(row, rz._ncols(g)) for row in result.kernel]
    rng = random.Random(seed)
    candidates = [list(vec) for vec in kernel]
    for _ in range(20):
        combo = [rz.ZERO] * len(kernel[0])
        for vec in kernel:
            c = rz.Scalar(rng.randint(-5, 5))
            combo = [a + c * b for a, b in zip(combo, vec)]
        candidates.append(combo)
    for vec in candidates:
        real = rz.realization_from_vector(g, vec)
        if not real.is_trivial() or any(v[0] or v[1] for v in rz.edge_vectors(g, real)):
            return real
    return None


def test_render_pick_matches_exact_route():
    rng = random.Random("render-pick")
    outcomes = set()
    for trial in range(120):
        k = (2, 3, 4, 6)[trial % 4]
        n = rng.randint(1, 4)
        g = random_graph(k, n, rng.randint(1, 2 * n + 5), rng)
        seed = rng.randrange(10**6)
        pick = _pick_render_realization(g, seed, 100)
        assert pick == exact_render_pick(g, seed, 100), trial
        if pick is None:
            outcomes.add("none")
        elif isinstance(rz.realize(g, rz.random_directions(g, seed, 100)), rz.Realization):
            outcomes.add("faithful")
        else:
            outcomes.add("fallback")
    assert outcomes == {"none", "faithful", "fallback"}


def test_parser_built_once_per_process(files, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert main(["check", files["laman"]]) == 0
    assert main(["check", files["bad"]]) == 1
    assert built.count("crystal-rigidity") <= 1


class TestGenSelftest:
    def test_gen_deterministic(self, capsys):
        assert main(["gen", "3", "2", "5", "--seed", "12"]) == 0
        first = capsys.readouterr().out
        assert main(["gen", "3", "2", "5", "--seed", "12"]) == 0
        assert capsys.readouterr().out == first
        g = parse_graph(first)
        assert g.n == 2 and g.m == 5

    def test_gen_bad_k_exit_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["gen", "5", "2", "5"])
        assert err.value.code == 2

    def test_gen_writes_file(self, tmp_path):
        out = tmp_path / "g.graph"
        assert main(["gen", "4", "3", "6", "--seed", "1", "--out", str(out)]) == 0
        parse_graph(out.read_text())

    def test_cr_seed_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("CR_SEED", "12")
        assert main(["gen", "3", "2", "5"]) == 0
        via_env = capsys.readouterr().out
        assert main(["gen", "3", "2", "5", "--seed", "12"]) == 0
        assert capsys.readouterr().out == via_env

    def test_cr_seed_env_invalid(self, files, capsys, monkeypatch):
        monkeypatch.setenv("CR_SEED", "twelve")
        assert main(["gen", "3", "2", "5"]) == 2
        err = capsys.readouterr().err
        assert err == "error: CR_SEED must be an integer, got 'twelve'\n"
        # an explicit --seed wins, and check takes no seed at all
        assert main(["gen", "3", "2", "5", "--seed", "12"]) == 0
        assert main(["check", files["laman"]]) == 0

    def test_selftest_small(self, capsys):
        assert main(["selftest", "--scale", "0.05", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_module_runs_from_checkout(self):
        proc = subprocess.run(
            [sys.executable, "-m", "crystal_rigidity", "gen", "2", "1", "2", "--seed", "0"],
            capture_output=True,
            text=True,
            env=CHECKOUT_ENV,
        )
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout.startswith("gamma 2")

    def test_only_gen_and_selftest_load_their_modules(self, files):
        # Every other command runs without importing the generators or the
        # verification suites.
        script = (
            "import sys\n"
            "from crystal_rigidity.cli import main\n"
            f"for argv in {[['check', files['laman']], ['rank', files['laman']], ['gen', '2', '1', '2']]!r}:\n"
            "    main(argv)\n"
            "    print('loaded', argv[0], sorted(m for m in sys.modules if m.endswith(('.generate', '.selftest'))))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=CHECKOUT_ENV)
        assert proc.returncode == 0, proc.stderr
        assert [line for line in proc.stdout.splitlines() if line.startswith("loaded ")] == [
            "loaded check []", "loaded rank []", "loaded gen ['crystal_rigidity.generate']"]

    def test_entry_point_installed(self):
        proc = subprocess.run(
            [sys.executable, "-m", "crystal_rigidity.cli", "gen", "2", "1", "2", "--seed", "0"],
            capture_output=True,
            text=True,
            env=CHECKOUT_ENV,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("gamma 2")


class TestInputLimits:
    """Oversized inputs exit 2 with one error line, before any large allocation."""

    @pytest.mark.parametrize(
        "command, text, fragment",
        [
            ("check", f"gamma 3\nvertices {10**12}\n", f"vertex count {10**12} exceeds the limit {MAX_VERTICES}"),
            ("realize", f"gamma 3\nvertices {MAX_VERTICES + 1}\n", "exceeds the limit"),
            ("check", "gamma 2\nvertices 1\n" + "e 0 0 0 0 0\n" * (MAX_EDGES + 1), f"more than {MAX_EDGES} edges"),
            ("check", f"gamma 4\nvertices 1\ne 0 0 {MAX_COLOR + 1} 0 1\n", "color magnitude"),
            ("rank", f"gamma 6\nvertices 1\ne 0 0 0 {-MAX_COLOR - 1} 1\n", "color magnitude"),
        ],
    )
    def test_graph_file_limits(self, tmp_path, capsys, command, text, fragment):
        path = tmp_path / "big.graph"
        path.write_text(text)
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "error: " in captured.err
        assert fragment in captured.err

    def test_limits_are_inclusive(self):
        g = parse_graph(f"gamma 3\nvertices {MAX_VERTICES}\ne 0 1 {MAX_COLOR} {-MAX_COLOR} 0\n")
        assert g.n == MAX_VERTICES and g.edges[0].color.t1 == MAX_COLOR
        g = parse_graph("gamma 2\nvertices 1\n" + "e 0 0 1 0 0\n" * MAX_EDGES)
        assert g.m == MAX_EDGES

    def test_edge_limit_reports_first_line_past_it(self):
        text = "gamma 2\nvertices 1\n" + "e 0 0 0 0 0\n" * (MAX_EDGES + 5)
        with pytest.raises(GraphParseError) as info:
            parse_graph(text)
        assert info.value.line == MAX_EDGES + 3
        assert f"more than {MAX_EDGES} edges" in str(info.value)

    @pytest.mark.parametrize(
        "text, radius, fragment",
        [
            (LAMAN, -1, f"radius must be in [0, {MAX_RADIUS}], got -1"),
            (LAMAN, MAX_RADIUS + 1, "radius must be in"),
            ("gamma 6\nvertices 10\n", MAX_RADIUS, f"exceeds the limit {MAX_PATCH}"),
        ],
    )
    def test_render_limits(self, tmp_path, capsys, text, radius, fragment):
        path, out = tmp_path / "g.graph", tmp_path / "p.svg"
        path.write_text(text)
        assert main(["render", str(path), "--out", str(out), "--radius", str(radius)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and fragment in err
        assert not out.exists()

    def test_patch_limits_are_inclusive(self):
        g = parse_graph(LAMAN)  # (2r+1)^2 k (n + m) = 101^2 * 3 * 4 at r = 50
        check_patch_limits(g, 0)
        check_patch_limits(g, MAX_RADIUS)

    def test_gen_limits(self, capsys):
        assert main(["gen", "3", str(MAX_VERTICES + 1), "0"]) == 2
        assert main(["gen", "3", "1", str(MAX_EDGES + 1)]) == 2
        assert main(["gen", "3", "1", "1", "--color-bound", str(MAX_COLOR + 1)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 3 and all(line.startswith("error: limits are") for line in err)

    @pytest.mark.parametrize(
        "argv, err",
        [
            (["gen", "3", "0", "2"], "error: n must be positive\n"),
            (["gen", "3", "1", "-1"], "error: m and color bound must be non-negative\n"),
            (["gen", "3", "1", "1", "--color-bound", "-2"], "error: m and color bound must be non-negative\n"),
        ],
    )
    def test_gen_usage_errors(self, capsys, argv, err):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == err

    def test_edge_field_past_the_int_digit_limit(self, tmp_path, capsys):
        # printing lifts the limit on int <-> str digits; parsing keeps it
        path = tmp_path / "digits.graph"
        path.write_text(f"gamma 3\nvertices 1\ne 0 0 {'1' * 5000} 0 0\n")
        assert main(["check", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "parse error: line 3: edge fields must be integers\n"

    @pytest.mark.parametrize(
        "text, err",
        [
            ("gamma 3\nvertices 1_0\n", "line 2: bad vertex count '1_0'"),
            ("gamma 3\nvertices \u0661\n", "line 2: bad vertex count '\u0661'"),
            ("gamma +2\nvertices 1\n", "line 1: bad group order '+2'"),
            ("gamma \uff13\nvertices 1\n", "line 1: bad group order '\uff13'"),
            ("gamma 3\nvertices 2\ne 0 1 +1 0 0\n", "line 3: edge fields must be integers"),
            ("gamma 3\nvertices 2\ne 0 1 1_000 0 0\n", "line 3: edge fields must be integers"),
            ("gamma 3\nvertices 2\ne 0 \u0661 0 0 0\n", "line 3: edge fields must be integers"),
            ("gamma 3\nvertices 2\ne 0 1 0 -- 0\n", "line 3: edge fields must be integers"),
            ("gamma 3\nvertices 2\ne 0 1 0 - 0\n", "line 3: edge fields must be integers"),
        ],
    )
    def test_fields_are_ascii_decimal_integers(self, tmp_path, capsys, text, err):
        # Python's int also reads '+', '_' separators and non-ASCII digits
        path = tmp_path / "field.graph"
        path.write_text(text, encoding="utf-8")
        assert main(["check", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"parse error: {err}\n"

    @pytest.mark.parametrize(
        "text, err",
        [
            ("gamma 3\nvertices 2\ne\u30000 1 0 0 0\n", "line 3: expected 'e <tail> <head> <m1> <m2> <s>'"),
            ("gamma 3\nvertices 2\ne 0\u00a01 0 0 0\n", "line 3: expected 'e <tail> <head> <m1> <m2> <s>'"),
            ("gamma 3\x0b\nvertices 2\n", "line 1: bad group order '3\\x0b'"),
            ("gamma 3\nvertices 2\x0c\n", "line 2: bad vertex count '2\\x0c'"),
            ("gamma 3\nvertices 2\ne 0 1 0 0 0\x1c\n", "line 3: edge fields must be integers"),
            ("gamma 3\u2028vertices 2\n", "line 1: expected 'gamma <k>'"),
            ("gamma 3\x1cvertices 2\n", "line 1: expected 'gamma <k>'"),
            ("gamma 3\nvertices 2\n\u3000\n", "line 3: expected 'e <tail> <head> <m1> <m2> <s>'"),
            ("gamma 3\r\r\nvertices 2\n", "line 1: bad group order '3\\r'"),
        ],
        ids=["u3000", "u00a0", "x0b", "x0c", "x1c-field", "u2028-line", "x1c-line", "u3000-line", "two-cr"],
    )
    def test_separators_are_ascii_spaces_and_tabs(self, tmp_path, capsys, text, err):
        # str.split() and str.splitlines() also split at these characters
        path = tmp_path / "sep.graph"
        path.write_bytes(text.encode("utf-8"))
        assert main(["check", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"parse error: {err}\n"

    def test_crlf_tabs_and_utf8_comments_parse(self, tmp_path, capsys):
        text = "gamma 3\r\nvertices 1 # d\u00e9j\u00e0 vu \u3000\x0b\r\n\te\t0  0 0 0 1 \r\ne 0 0 1 0 0\ne 0 0 1 0 1\r"
        g = parse_graph(text)
        assert g.edges == parse_graph(LAMAN).edges and g.n == 1
        path = tmp_path / "crlf.graph"
        path.write_bytes(text.encode("utf-8"))
        assert main(["check", str(path)]) == 0
        assert capsys.readouterr().out == "LAMAN\n"

    def test_edgeless_graph_at_the_vertex_limit(self, tmp_path, capsys):
        # 2n + rep kernel rows of one entry each, one per coordinate
        text = f"gamma 3\nvertices {MAX_VERTICES}\n"
        result = rz.realize(parse_graph(text), [])
        assert result.kernel_dim == 2 * MAX_VERTICES + 2
        assert list(result.kernel) == [{j: (1, 0)} for j in range(2 * MAX_VERTICES + 2)]
        path, out = tmp_path / "edgeless.graph", tmp_path / "p.svg"
        path.write_text(text)
        assert main(["realize", str(path)]) == 1
        assert capsys.readouterr().out == "diagnosis kernel dimension 1002, realization not unique up to scale\n"
        assert main(["render", str(path), "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote {out}: 37500 points, 0 segments\n"

    def test_signed_and_zero_padded_fields_parse(self):
        g = parse_graph("gamma 03\nvertices 002\ne 0 01 -0 -3 2\n")
        assert (g.context.k, g.n) == (3, 2)
        assert g.edges[0] == (0, 1, (0, -3, 2))

    def test_graph_file_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "binary.graph"
        path.write_bytes(b"\xffgamma 3\nvertices 1\n")
        assert main(["check", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"parse error: line 0: cannot read {path}: not UTF-8 (invalid start byte at byte 0)\n"

    def test_graph_file_over_the_byte_limit(self, tmp_path, capsys):
        # a valid header and nothing but comment bytes after it
        path = tmp_path / "long.graph"
        head = b"gamma 3\nvertices 1\n#"
        path.write_bytes(head + b"x" * (MAX_FILE_BYTES + 1 - len(head)))
        assert path.stat().st_size == MAX_FILE_BYTES + 1
        assert main(["check", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"parse error: line 0: cannot read {path}: larger than the limit of {MAX_FILE_BYTES} bytes\n"
        )
        path.write_bytes(head + b"x" * (MAX_FILE_BYTES - len(head)))
        assert main(["check", str(path)]) == 1  # at the limit it is read and parsed

    def test_gen_out_in_missing_directory(self, tmp_path, capsys):
        out = tmp_path / "missing" / "g.graph"
        assert main(["gen", "3", "1", "2", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot write {out}: No such file or directory\n"

    def test_render_out_is_a_directory(self, files, tmp_path, capsys):
        assert main(["render", files["laman"], "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot write {tmp_path}: Is a directory\n"

    @pytest.mark.parametrize(
        "argv, fragment",
        [
            (["--bound", "0"], "bound must be at least 8"),
            (["--bound", "-5"], "bound must be at least 8"),
            (["--bound", "7"], "bound must be at least 8"),
            (["--samples", "0"], f"samples must be in [1, {MAX_SAMPLES}], got 0"),
            (["--samples", str(MAX_SAMPLES + 1)], f"samples must be in [1, {MAX_SAMPLES}]"),
            (["--samples", "100000000"], f"samples must be in [1, {MAX_SAMPLES}]"),
        ],
    )
    def test_rank_limits(self, files, capsys, argv, fragment):
        assert main(["rank", files["laman"]] + argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert fragment in captured.err

    @pytest.mark.parametrize("command", ["realize", "rank", "render"])
    @pytest.mark.parametrize("bound", ["7", str(MAX_BOUND + 1), "9" * 4000])
    def test_bound_limits(self, files, tmp_path, capsys, command, bound):
        out = tmp_path / "p.svg"
        extra = ["--out", str(out)] if command == "render" else []
        assert main([command, files["laman"], "--bound", bound] + extra) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith(f"error: bound must be at least 8 and at most {MAX_BOUND}, got ")
        assert not out.exists()

    @pytest.mark.parametrize("bound", [8, MAX_BOUND])
    def test_bound_limits_are_inclusive(self, files, tmp_path, capsys, bound):
        assert main(["realize", files["laman"], "--bound", str(bound)]) == 0
        assert main(["rank", files["laman"], "--bound", str(bound)]) == 0
        assert main(["render", files["laman"], "--out", str(tmp_path / "p.svg"), "--bound", str(bound)]) == 0

    def test_rank_limits_are_inclusive(self, files, capsys):
        assert main(["rank", files["laman"], "--bound", "8", "--samples", "1"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "MINIMALLY-RIGID"

    @pytest.mark.parametrize("scale", ["inf", "nan", "0", "-1", "-0.5", str(MAX_SCALE * 1.5), "1e400"])
    def test_selftest_scale_limits(self, capsys, scale):
        assert main(["selftest", f"--scale={scale}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: scale must be a finite number in (0, ")
        assert captured.err.count("\n") == 1

    def test_subprocess_no_traceback(self, tmp_path):
        path = tmp_path / "huge.graph"
        path.write_text(f"gamma 3\nvertices {10**15}\n")
        proc = subprocess.run(
            [sys.executable, "-m", "crystal_rigidity.cli", "realize", str(path)],
            capture_output=True,
            text=True,
            env=CHECKOUT_ENV,
        )
        assert proc.returncode == 2
        assert proc.stderr.count("\n") == 1 and "error: " in proc.stderr
        assert "Traceback" not in proc.stderr
