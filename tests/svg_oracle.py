"""The dict-keyed SVG writer, kept as a test oracle for ``cli._svg_document``.

It reads a patch of ``PlacedVertex`` / ``PlacedSegment`` tuples (from
``lift_oracle.lift_patch_oracle``, say), formats each distinct float
coordinate once into a dict keyed by the float, and writes every element
by lookups in those dicts.
"""

from crystal_rigidity.cli import SVG_SIZE


def svg_document_oracle(patch) -> str:
    xs = [p.x for p in patch.points] or [0.0]
    ys = [p.y for p in patch.points] or [0.0]
    lo_x, hi_x = min(xs), max(xs)
    lo_y, hi_y = min(ys), max(ys)
    span = max(hi_x - lo_x, hi_y - lo_y, 1e-9)
    pad = 0.05 * span
    width = span + 2 * pad

    v1, v2 = patch.cell
    cell_pts = [(0.0, 0.0), v1, (v1[0] + v2[0], v1[1] + v2[1]), v2]
    others = [(seg.x2, seg.y2) for seg in patch.segments] + cell_pts
    sx = {x: f"{(x - lo_x + pad) / width * SVG_SIZE:.3f}" for x in {*xs, *(x for x, _ in others)}}
    sy = {y: f"{SVG_SIZE - (y - lo_y + pad) / width * SVG_SIZE:.3f}" for y in {*ys, *(y for _, y in others)}}

    palette = [
        "#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd",
        "#8c564b", "#17becf", "#e377c2", "#7f7f7f", "#bcbd22",
    ]
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{SVG_SIZE}" height="{SVG_SIZE}" viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">',
        f'<rect width="{SVG_SIZE}" height="{SVG_SIZE}" fill="white"/>',
    ]
    path = " ".join(f"{sx[x]},{sy[y]}" for x, y in cell_pts)
    out.append(
        f'<polygon points="{path}" fill="none" stroke="#aaaaaa" '
        'stroke-width="1" stroke-dasharray="6,4"/>'
    )
    out.extend(
        f'<line x1="{sx[x1]}" y1="{sy[y1]}" x2="{sx[x2]}" y2="{sy[y2]}" '
        'stroke="#555555" stroke-width="1.2"/>'
        for _, _, x1, y1, x2, y2 in patch.segments
    )
    r = f"{max(2.5, SVG_SIZE * 0.006):.2f}"
    out.extend(
        f'<circle cx="{sx[x]}" cy="{sy[y]}" r="{r}" '
        f'fill="{palette[vertex % len(palette)]}" stroke="black" stroke-width="0.5"/>'
        for vertex, _, x, y in patch.points
    )
    out.append("</svg>")
    return "\n".join(out) + "\n"
