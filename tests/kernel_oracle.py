"""The Gauss-Jordan back substitution, kept as a test oracle for
``rank_and_kernel``.

The forward pass is the library's (``_eliminate`` with ``_rationalize`` /
``_clear_pairs`` / ``_clear_ints``).  Back substitution then clears every
pivot column above its pivot row with the same row operation, so each
pivot row has entries only at its pivot and at free columns after it (the
reduced row echelon form up to a positive scale per row), and the kernel
row of free column fc is read off column fc of those rows: scaled by the
lcm of the pivots, then divided by its content.
"""

from math import lcm

from crystal_rigidity.realization import (
    _clear_ints,
    _clear_pairs,
    _divide_content,
    _eliminate,
    _rationalize,
)


def gauss_jordan_rank_and_kernel(rows, ncols):
    pending = [row for row in rows if row]
    pairs = any(b for row in pending for _, b in row.values())
    if pairs:
        pending = [_divide_content(dict(row), True) for row in pending]
        prepare, clear = _rationalize, _clear_pairs
    else:
        pending = [_divide_content({j: a for j, (a, _) in row.items()}, False) for row in pending]
        prepare, clear = (lambda row, _: row), _clear_ints
    reduced = _eliminate(pending, ncols, prepare, clear)
    if len(reduced) == ncols:
        return ncols, []
    for i in range(len(reduced) - 1, 0, -1):
        c, pivot = reduced[i]
        for _, row in reduced[:i]:
            if c in row:
                clear(row, pivot, c)
    pivot_cols = {c for c, _ in reduced}
    columns = {fc: [] for fc in range(ncols) if fc not in pivot_cols}
    for pc, row in reduced:
        p = row.pop(pc)
        for fc, x in row.items():
            columns[fc].append((pc, p[0], x) if pairs else (pc, p, (x, 0)))
    kernel = []
    for fc, entries in columns.items():
        den = lcm(*(p for _, p, _ in entries))
        vec = {pc: (-a * (den // p), -b * (den // p)) for pc, p, (a, b) in entries}
        vec[fc] = (den, 0)
        kernel.append(_divide_content(vec, True))
    return len(reduced), kernel
