"""Command-line interface: exit codes, certificates, formats, rendering."""

import hashlib
import json
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

from crystal_rigidity.cli import main
from crystal_rigidity.colored_graph import (
    GraphParseError,
    MAX_COLOR,
    MAX_EDGES,
    MAX_PATCH,
    MAX_RADIUS,
    MAX_VERTICES,
    check_patch_limits,
    parse_graph,
)
from crystal_rigidity.sparsity import is_g11_independent, is_laman_sparse

LAMAN = "gamma 3\nvertices 1\ne 0 0 0 0 1\ne 0 0 1 0 0\ne 0 0 1 0 1\n"
BAD = "gamma 3\nvertices 1\ne 0 0 1 0 0\ne 0 0 0 1 0\ne 0 0 0 0 1\n"
G22 = "gamma 3\nvertices 1\ne 0 0 0 0 1\ne 0 0 1 0 0\ne 0 0 1 0 1\ne 0 0 0 1 0\n"
G11 = "gamma 3\nvertices 1\ne 0 0 0 0 1\ne 0 0 1 0 0\n"
UNDER = "gamma 3\nvertices 1\ne 0 0 0 0 1\n"


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
                assert is_g11_independent(g, part)

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

    def test_entry_point_installed(self):
        proc = subprocess.run(
            [sys.executable, "-m", "crystal_rigidity.cli", "gen", "2", "1", "2", "--seed", "0"],
            capture_output=True,
            text=True,
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

    def test_subprocess_no_traceback(self, tmp_path):
        path = tmp_path / "huge.graph"
        path.write_text(f"gamma 3\nvertices {10**15}\n")
        proc = subprocess.run(
            [sys.executable, "-m", "crystal_rigidity.cli", "realize", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stderr.count("\n") == 1 and "error: " in proc.stderr
        assert "Traceback" not in proc.stderr
