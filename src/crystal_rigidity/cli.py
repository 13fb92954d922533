"""Command-line front end: crystal-rigidity <check|realize|rank|render|gen|selftest>.

Exit codes: 0 for a passing decision, 1 for a failing one, 2 for usage or
parse errors.  All randomized commands are deterministic given --seed
(default: the CR_SEED environment variable if set, else 0; a CR_SEED that
is not an integer is a usage error).

``check``, ``realize`` and ``rank`` each build one result record, the
dict that ``--json`` prints; their text form is printed from that record
alone (``_text``).  Only this module prints: the library returns
records, and ``gen`` writes the graph format of ``serialize_graph``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from itertools import chain
from typing import List, Optional

from . import realization as rz
from . import sparsity as sp
from .colored_graph import (
    MAX_COLOR,
    MAX_EDGES,
    MAX_FILE_BYTES,
    MAX_VERTICES,
    ColoredGraph,
    GraphParseError,
    check_patch_limits,
    lift_patch,
    parse_graph,
    serialize_graph,
)


def _default_seed() -> int:
    text = os.environ.get("CR_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"CR_SEED must be an integer, got {text!r}") from None


def _load_graph(path: str) -> ColoredGraph:
    try:
        with open(path, "rb") as fh:
            data = fh.read(MAX_FILE_BYTES + 1)
    except OSError as ex:
        raise GraphParseError(0, f"cannot read {path}: {ex.strerror}") from None
    if len(data) > MAX_FILE_BYTES:
        raise GraphParseError(0, f"cannot read {path}: larger than the limit of {MAX_FILE_BYTES} bytes")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as ex:
        raise GraphParseError(0, f"cannot read {path}: not UTF-8 ({ex.reason} at byte {ex.start})") from None
    return parse_graph(text)


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as ex:
        raise ValueError(f"cannot write {path}: {ex.strerror}") from None


# The verdict word of each check family; a failing check prints NOT-<word>.
_VERDICTS = {"laman": "LAMAN", "22": "GAMMA-22", "11": "GAMMA-11", "gencone11": "GEN-CONE-11"}


def _text(record: dict) -> str:
    """The text form of a ``check``, ``realize`` or ``rank`` record, read
    off the record alone, so it carries nothing ``--json`` does not.  Each
    certificate list prints as ``<label> i j k``, and only when nonempty;
    family 11 names its g-circuit ``dependent`` and then prints no edge
    count."""
    command = record["command"]
    if command == "rank":
        lines = [f"rank {record['rank']}", f"m {record['m']}", f"target {record['target']}", record["verdict"]]
    elif command == "realize" and record["faithful"]:
        lines = [f"point {i} {x} {y}" for i, (x, y) in enumerate(record["points"])]
        lines += [f"lattice {v} {record[v][0]} {record[v][1]}" for v in ("v1", "v2") if v in record]
    elif command == "realize":
        lines = [f"diagnosis {record['reason']}"]
    else:
        family, m = record["family"], record["m"]
        lines = [("" if record["decision"] else "NOT-") + _VERDICTS[family]]
        if family == "gencone11":
            lines.append(f"rank {record['rank']}")
        # A passing check has its target edge count.
        elif m != record["target_edges"] and not (family == "11" and record.get("circuit")):
            lines.append(f"edge count {m} != {record['target_edges']}")
    parts = record.get("partition") or (None, None)
    certificates = (
        ("collapsed", record.get("collapsed_edges")),
        ("dependent" if record.get("family") == "11" else "circuit", record.get("circuit")),
        ("part-X", parts[0]),
        ("part-Y", parts[1]),
        ("violating", record.get("violating")),
        ("cone-core", record.get("cone_core")),
    )
    lines += [label + "".join(f" {i}" for i in items) for label, items in certificates if items]
    return "".join(line + "\n" for line in lines)


def _emit(record: dict, as_json: bool) -> None:
    """Print a result record: as JSON, or as its ``_text``."""
    if as_json:
        print(json.dumps(record, indent=2, sort_keys=True))
    else:
        sys.stdout.write(_text(record))


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def _cmd_check(args) -> int:
    g = _load_graph(args.path)
    family = args.family
    target22 = 2 * g.n + g.context.full_translation_rep
    record = {"command": "check", "family": family, "n": g.n, "m": g.m}

    if family == "laman":
        # A Laman basis is a sparse graph with the target count, so the one
        # circuit search decides and certifies together.
        circuit = sp.find_laman_circuit(g)
        ok = circuit is None and g.m == target22 - 1
        record["target_edges"] = target22 - 1
        if not ok:
            record["circuit"] = list(circuit) if circuit else None
    elif family == "22":
        cert = sp.union_certificate(g)
        ok = g.m == target22 and cert.partition is not None
        record["target_edges"] = target22
        if ok:
            record["partition"] = [list(part) for part in sp.verified_parts(g, cert)]
        else:
            record["violating"] = list(cert.violating) if cert.violating else None
    elif family == "11":
        ok = sp.is_gamma11_counts(g)
        record["target_edges"] = g.n + g.context.full_translation_rep // 2
        if ok:
            record["cone_core"] = list(sp.gc11_spanning_subgraph(g))
        else:
            circuit = sp.find_g_circuit(g)
            record["circuit"] = list(circuit) if circuit else None
    else:  # gencone11
        ok = sp.is_gen_cone11(g)
        record["rank"] = sp.gen_cone11_rank(g)

    record["decision"] = ok
    _emit(record, args.json)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# realize / rank
# ---------------------------------------------------------------------------


def _cmd_realize(args) -> int:
    g = _load_graph(args.path)
    directions = rz.random_directions(g, args.seed, args.bound)
    result = rz.realize(g, directions)
    if isinstance(result, rz.Realization):
        record = {
            "command": "realize",
            "faithful": True,
            "points": [[str(x), str(y)] for x, y in result.points],
            "v1": [str(result.v1[0]), str(result.v1[1])],
        }
        if result.v2 is not None:
            record["v2"] = [str(result.v2[0]), str(result.v2[1])]
        _emit(record, args.json)
        return 0
    circuit = sp.find_laman_circuit(g)
    record = {
        "command": "realize",
        "faithful": False,
        "kernel_dim": result.kernel_dim,
        "collapsed_edges": list(result.collapsed_edges),
        "circuit": list(circuit) if circuit else None,
        "reason": result.reason,
    }
    _emit(record, args.json)
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
    record = {
        "command": "rank",
        "rank": rank,
        "m": g.m,
        "target": target,
        "samples": args.samples,
        "verdict": verdict,
    }
    _emit(record, args.json)
    return 0 if verdict == "MINIMALLY-RIGID" else 1


# ---------------------------------------------------------------------------
# render
# ---------------------------------------------------------------------------


def _pick_render_realization(g: ColoredGraph, seed: int, bound: int):
    """The faithful realization if it exists, else that of the first kernel
    basis vector, in reduced row echelon form, that is not fully collapsed
    (a nonzero lattice column j >= 2n, or some edge realized).  Every edge
    vector and the lattice are linear in the kernel vector, so when each
    basis vector is fully collapsed, so is the whole kernel.  A kernel of
    dimension 0 is not read: it has no vector to draw."""
    result = rz.realize(g, rz.random_directions(g, seed, bound))
    if isinstance(result, rz.Realization):
        return result
    if result.kernel_dim == 0:
        return None
    for row in result.kernel:
        if max(row) >= 2 * g.n or len(rz.collapsed_edges(g, [row])) < g.m:
            return rz.echelon_realization(g, row)
    return None


SVG_SIZE = 800  # width and height of the rendered document, in px


def _svg_document(patch) -> str:
    """The SVG of a ``LiftedPatch``, read off its columns: each
    coordinate is formatted once, by index, and each kind of element is
    written by one format of a repeated template."""
    elements, n, xs, ys, tails, heads, (v1, v2) = patch
    placed = len(elements) * n
    lo_x, hi_x = min(xs[:placed], default=0.0), max(xs[:placed], default=0.0)
    lo_y, hi_y = min(ys[:placed], default=0.0), max(ys[:placed], default=0.0)
    span = max(hi_x - lo_x, hi_y - lo_y, 1e-9)
    pad = 0.05 * span
    width = span + 2 * pad

    # The cell corners follow the points and heads, from index len(xs).
    corners = ((0.0, 0.0), v1, (v1[0] + v2[0], v1[1] + v2[1]), v2)
    px = tuple([(x - lo_x + pad) / width * SVG_SIZE for x in chain(xs, (x for x, _ in corners))])
    py = tuple([SVG_SIZE - (y - lo_y + pad) / width * SVG_SIZE for y in chain(ys, (y for _, y in corners))])
    sx = ("%.3f " * len(px) % px).split()
    sy = ("%.3f " * len(py) % py).split()

    palette = [
        "#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd",
        "#8c564b", "#17becf", "#e377c2", "#7f7f7f", "#bcbd22",
    ]
    path = " ".join(f"{sx[i]},{sy[i]}" for i in range(len(xs), len(sx)))
    head = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{SVG_SIZE}" height="{SVG_SIZE}" viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">',
        f'<rect width="{SVG_SIZE}" height="{SVG_SIZE}" fill="white"/>',
        f'<polygon points="{path}" fill="none" stroke="#aaaaaa" '
        'stroke-width="1" stroke-dasharray="6,4"/>',
    ]
    ends = [None] * (4 * len(tails))
    ends[0::4] = [sx[t] for t in tails]
    ends[1::4] = [sy[t] for t in tails]
    ends[2::4] = [sx[h] for h in heads]
    ends[3::4] = [sy[h] for h in heads]
    line = '<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="#555555" stroke-width="1.2"/>\n'
    dots = [None] * (3 * placed)
    dots[0::3] = sx[:placed]
    dots[1::3] = sy[:placed]
    dots[2::3] = [palette[i % len(palette)] for i in range(n)] * len(elements)
    r = f"{max(2.5, SVG_SIZE * 0.006):.2f}"
    circle = f'<circle cx="%s" cy="%s" r="{r}" fill="%s" stroke="black" stroke-width="0.5"/>\n'
    return (
        "\n".join(head) + "\n" + line * len(tails) % tuple(ends)
        + circle * placed % tuple(dots) + "</svg>\n"
    )


def _cmd_render(args) -> int:
    g = _load_graph(args.path)
    check_patch_limits(g, args.radius)
    real = _pick_render_realization(g, args.seed, args.bound)
    if real is None:
        print("cannot render: only fully collapsed solutions")
        return 1
    patch = lift_patch(g, real, args.radius)
    _write_text(args.out, _svg_document(patch))
    print(f"wrote {args.out}: {len(patch.elements) * patch.n} points, {len(patch.tails)} segments")
    return 0


# ---------------------------------------------------------------------------
# gen / selftest: each imports its module when run, so that the other
# commands do not load the generators and the verification suites.
# ---------------------------------------------------------------------------


def _cmd_gen(args) -> int:
    if args.n < 1:
        raise ValueError("n must be positive")
    if args.m < 0 or args.color_bound < 0:
        raise ValueError("m and color bound must be non-negative")
    if args.n > MAX_VERTICES or args.m > MAX_EDGES or args.color_bound > MAX_COLOR:
        raise ValueError(
            f"limits are n <= {MAX_VERTICES}, m <= {MAX_EDGES}, color bound <= {MAX_COLOR}"
        )
    from .generate import random_graph

    rng = random.Random(args.seed)
    g = random_graph(args.k, args.n, args.m, rng, args.color_bound)
    text = serialize_graph(g)
    if args.out:
        _write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_selftest(args) -> int:
    from .selftest import run_selftest

    results = run_selftest(scale=args.scale, seed=args.seed)
    for r in results:
        extra = f" ({r.failures[0]})" if r.failures else ""
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.checked} checks{extra}")
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# Argument parsing.
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process (parsing does not change it)."""
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
    args = _build_parser().parse_args(argv)
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
