"""Command-line front end: crystal-rigidity <check|realize|rank|render|gen|selftest>.

Exit codes: 0 for a passing decision, 1 for a failing one, 2 for usage or
parse errors.  All randomized commands are deterministic given --seed
(default: the CR_SEED environment variable if set, else 0; a CR_SEED that
is not an integer is a usage error).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from typing import List, Optional

from . import realization as rz
from . import sparsity as sp
from .colored_graph import (
    MAX_COLOR,
    MAX_EDGES,
    MAX_VERTICES,
    ColoredGraph,
    GraphParseError,
    check_patch_limits,
    lift_patch,
    parse_graph,
    serialize_graph,
)
from .generate import random_graph
from .selftest import run_selftest


def _default_seed() -> int:
    text = os.environ.get("CR_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"CR_SEED must be an integer, got {text!r}") from None


def _load_graph(path: str) -> ColoredGraph:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_graph(fh.read())
    except OSError as ex:
        raise GraphParseError(0, f"cannot read {path}: {ex.strerror}") from None


def _emit(payload: dict, text_lines: List[str], as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def _cmd_check(args) -> int:
    g = _load_graph(args.path)
    family = args.family
    target22 = 2 * g.n + g.context.full_translation_rep
    lines: List[str] = []
    payload = {"command": "check", "family": family, "n": g.n, "m": g.m}
    ok: bool

    if family == "laman":
        ok = sp.is_laman(g)
        payload["target_edges"] = target22 - 1
        if ok:
            lines.append("LAMAN")
        else:
            lines.append("NOT-LAMAN")
            if g.m != target22 - 1:
                lines.append(f"edge count {g.m} != {target22 - 1}")
            circuit = sp.find_laman_circuit(g)
            payload["circuit"] = list(circuit) if circuit else None
            if circuit:
                lines.append("circuit " + " ".join(str(i) for i in circuit))
    elif family == "22":
        ok = sp.is_gamma22(g)
        payload["target_edges"] = target22
        if ok:
            x, y = sp.decompose11(g)
            payload["partition"] = [list(x), list(y)]
            lines.append("GAMMA-22")
            lines.append("part-X " + " ".join(str(i) for i in x))
            lines.append("part-Y " + " ".join(str(i) for i in y))
        else:
            lines.append("NOT-GAMMA-22")
            if g.m != target22:
                lines.append(f"edge count {g.m} != {target22}")
            cert = sp.union_certificate(g)
            payload["violating"] = list(cert.violating) if cert.violating else None
            if cert.violating:
                lines.append("violating " + " ".join(str(i) for i in cert.violating))
    elif family == "11":
        ok = sp.is_gamma11_counts(g)
        payload["target_edges"] = g.n + g.context.full_translation_rep // 2
        if ok:
            core = sp.gc11_spanning_subgraph(g)
            payload["cone_core"] = list(core)
            lines.append("GAMMA-11")
            lines.append("cone-core " + " ".join(str(i) for i in core))
        else:
            lines.append("NOT-GAMMA-11")
            circuit = sp.find_g_circuit(g)
            payload["circuit"] = list(circuit) if circuit else None
            if circuit:
                lines.append("dependent " + " ".join(str(i) for i in circuit))
            elif g.m != payload["target_edges"]:
                lines.append(f"edge count {g.m} != {payload['target_edges']}")
    else:  # gencone11
        ok = sp.is_gen_cone11(g)
        rank = sp.gen_cone11_rank(g)
        payload["rank"] = rank
        lines.append("GEN-CONE-11" if ok else "NOT-GEN-CONE-11")
        lines.append(f"rank {rank}")

    payload["decision"] = ok
    _emit(payload, lines, args.json)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# realize / rank
# ---------------------------------------------------------------------------


def _cmd_realize(args) -> int:
    g = _load_graph(args.path)
    directions = rz.random_directions(g, args.seed, args.bound)
    result = rz.realize(g, directions)
    if isinstance(result, rz.Realization):
        payload = {
            "command": "realize",
            "faithful": True,
            "points": [[str(p[0]), str(p[1])] for p in result.points],
            "v1": [str(result.v1[0]), str(result.v1[1])],
        }
        if result.v2 is not None:
            payload["v2"] = [str(result.v2[0]), str(result.v2[1])]
        _emit(payload, rz.serialize_realization(result).rstrip("\n").splitlines(), args.json)
        return 0
    circuit = sp.find_laman_circuit(g)
    payload = {
        "command": "realize",
        "faithful": False,
        "kernel_dim": result.kernel_dim,
        "collapsed_edges": list(result.collapsed_edges),
        "circuit": list(circuit) if circuit else None,
        "reason": result.reason,
    }
    lines = [f"diagnosis {result.reason}"]
    if result.collapsed_edges:
        lines.append("collapsed " + " ".join(str(i) for i in result.collapsed_edges))
    if circuit:
        lines.append("circuit " + " ".join(str(i) for i in circuit))
    _emit(payload, lines, args.json)
    return 1


def _cmd_rank(args) -> int:
    g = _load_graph(args.path)
    rank = rz.generic_rigidity_rank(g, args.seed, args.samples, args.bound)
    target = 2 * g.n + g.context.full_translation_rep - 1
    if rank == target and g.m == target:
        verdict = "MINIMALLY-RIGID"
    elif rank == target:
        verdict = "OVERBRACED"
    else:
        verdict = "FLEXIBLE"
    payload = {
        "command": "rank",
        "rank": rank,
        "m": g.m,
        "target": target,
        "samples": args.samples,
        "verdict": verdict,
    }
    lines = [f"rank {rank}", f"m {g.m}", f"target {target}", verdict]
    _emit(payload, lines, args.json)
    return 0 if verdict == "MINIMALLY-RIGID" else 1


# ---------------------------------------------------------------------------
# render
# ---------------------------------------------------------------------------


def _pick_render_realization(g: ColoredGraph, seed: int, bound: int):
    """The faithful realization if it exists, else any kernel vector that
    is not fully collapsed (some edge realized or a nontrivial lattice)."""
    directions = rz.random_directions(g, seed, bound)
    result = rz.realize(g, directions)
    if isinstance(result, rz.Realization):
        return result
    system = rz.assemble_direction_system(g, directions)
    _, kernel = rz.rank_and_kernel(system.rows, system.ncols)
    if not kernel:
        return None
    rng = random.Random(seed)
    candidates = [list(vec) for vec in kernel]
    for _ in range(20):
        combo = [rz.ZERO] * system.ncols
        for vec in kernel:
            c = rz.Scalar(rng.randint(-5, 5))
            combo = [a + c * b for a, b in zip(combo, vec)]
        candidates.append(combo)
    for vec in candidates:
        real = rz.realization_from_vector(g, vec)
        vectors = rz.edge_vectors(g, real)
        if not real.is_trivial() or any(v[0] or v[1] for v in vectors):
            return real
    return None


def _svg_document(g: ColoredGraph, patch, size: int = 800) -> str:
    xs = [p.x for p in patch.points] or [0.0]
    ys = [p.y for p in patch.points] or [0.0]
    lo_x, hi_x = min(xs), max(xs)
    lo_y, hi_y = min(ys), max(ys)
    span = max(hi_x - lo_x, hi_y - lo_y, 1e-9)
    pad = 0.05 * span

    def sx(x: float) -> float:
        return (x - lo_x + pad) / (span + 2 * pad) * size

    def sy(y: float) -> float:
        return size - (y - lo_y + pad) / (span + 2 * pad) * size

    palette = [
        "#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd",
        "#8c564b", "#17becf", "#e377c2", "#7f7f7f", "#bcbd22",
    ]
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size}" height="{size}" viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    v1, v2 = patch.cell
    cell_pts = [(0.0, 0.0), v1, (v1[0] + v2[0], v1[1] + v2[1]), v2]
    path = " ".join(f"{sx(x):.3f},{sy(y):.3f}" for x, y in cell_pts)
    out.append(
        f'<polygon points="{path}" fill="none" stroke="#aaaaaa" '
        'stroke-width="1" stroke-dasharray="6,4"/>'
    )
    for seg in patch.segments:
        out.append(
            f'<line x1="{sx(seg.x1):.3f}" y1="{sy(seg.y1):.3f}" '
            f'x2="{sx(seg.x2):.3f}" y2="{sy(seg.y2):.3f}" '
            'stroke="#555555" stroke-width="1.2"/>'
        )
    r = max(2.5, size * 0.006)
    for p in patch.points:
        color = palette[p.vertex % len(palette)]
        out.append(
            f'<circle cx="{sx(p.x):.3f}" cy="{sy(p.y):.3f}" r="{r:.2f}" '
            f'fill="{color}" stroke="black" stroke-width="0.5"/>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _cmd_render(args) -> int:
    g = _load_graph(args.path)
    check_patch_limits(g, args.radius)
    real = _pick_render_realization(g, args.seed, args.bound)
    if real is None:
        print("cannot render: only fully collapsed solutions")
        return 1
    patch = lift_patch(g, real, args.radius)
    doc = _svg_document(g, patch)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(doc)
    print(f"wrote {args.out}: {len(patch.points)} points, {len(patch.segments)} segments")
    return 0


# ---------------------------------------------------------------------------
# gen / selftest
# ---------------------------------------------------------------------------


def _cmd_gen(args) -> int:
    if args.n < 1:
        print("n must be positive", file=sys.stderr)
        return 2
    if args.m < 0 or args.color_bound < 0:
        print("m and color bound must be non-negative", file=sys.stderr)
        return 2
    if args.n > MAX_VERTICES or args.m > MAX_EDGES or args.color_bound > MAX_COLOR:
        print(
            f"error: limits are n <= {MAX_VERTICES}, m <= {MAX_EDGES}, "
            f"color bound <= {MAX_COLOR}",
            file=sys.stderr,
        )
        return 2
    rng = random.Random(args.seed)
    g = random_graph(args.k, args.n, args.m, rng, args.color_bound)
    text = serialize_graph(g)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_selftest(args) -> int:
    results = run_selftest(scale=args.scale, seed=args.seed)
    for result in results:
        print(result.line())
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# Argument parsing.
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crystal-rigidity",
        description="Minimal rigidity of planar frameworks with crystallographic symmetry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    seed_kw = dict(type=int, default=None)

    p = sub.add_parser("check", help="decide a sparsity family membership")
    p.add_argument("path")
    p.add_argument("--family", choices=["laman", "22", "11", "gencone11"], default="laman")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("realize", help="realize a direction network with random directions")
    p.add_argument("path")
    p.add_argument("--seed", **seed_kw)
    p.add_argument("--bound", type=int, default=100)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_realize)

    p = sub.add_parser("rank", help="generic rigidity rank and verdict")
    p.add_argument("path")
    p.add_argument("--seed", **seed_kw)
    p.add_argument("--samples", type=int, default=3)
    p.add_argument("--bound", type=int, default=100)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("render", help="render a lifted patch to SVG")
    p.add_argument("path")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", **seed_kw)
    p.add_argument("--radius", type=int, default=2)
    p.add_argument("--bound", type=int, default=100)
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("gen", help="emit a random graph file")
    p.add_argument("k", type=int, choices=[2, 3, 4, 6])
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("--color-bound", type=int, default=2)
    p.add_argument("--seed", **seed_kw)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("selftest", help="run the randomized verification suites")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--seed", **seed_kw)
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", 0) is None:
            args.seed = _default_seed()
        return args.func(args)
    except GraphParseError as ex:
        print(f"parse error: {ex}", file=sys.stderr)
        return 2
    except ValueError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
