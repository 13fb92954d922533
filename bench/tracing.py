"""Spans and counters recorded around calls into the library's public API.

Wrappers are installed only for traced cycles and removed afterwards, so
untraced cycles run the library unmodified.  Each benchmark operation is a
root span; a wrapped call made inside an operation becomes a child span
(name, start, end, parent, operation id).  Hot, tiny functions get a
counter instead of a span.  All spans stay in memory until the run ends.
"""

from __future__ import annotations

import sys
import weakref
from collections import Counter
from time import perf_counter
from typing import Callable, Dict, List, Optional

# (module, attribute path): functions and methods timed as spans.
SPAN_TARGETS = [
    ("colored_graph", "parse_graph"),
    ("colored_graph", "lift_patch"),
    ("colored_graph", "ColoredGraph.with_edge"),
    ("sparsity", "is_laman"),
    ("sparsity", "is_laman_sparse"),
    ("sparsity", "find_laman_circuit"),
    ("sparsity", "union_certificate"),
    ("sparsity", "decompose11"),
    ("realization", "realize"),
    ("realization", "generic_rigidity_rank"),
    ("realization", "rank_and_kernel"),
    ("realization", "assemble_direction_system"),
    ("realization", "rigidity_matrix"),
]

# (module, attribute path, counter name): calls counted, not timed.
COUNT_TARGETS = [
    ("groups", "GroupContext.compose", "compose_calls"),
    ("groups", "GroupContext.invert", "compose_calls"),
    ("sparsity", "SparsityOracle.__init__", "oracle_builds"),
    ("sparsity", "SparsityOracle.f_mask", "f_mask_calls"),
]

# Span index fields.
OP, PARENT, NAME, START, END, EXTRA = range(6)


class Tracer:
    def __init__(self, package: str):
        self.package = package
        self.spans: List[list] = []
        self.counters: Counter = Counter()
        self.missing: List[str] = []
        self._stack: List[int] = []
        self._op = -1
        self._restore: List[Callable[[], None]] = []
        self._masks: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    # -- operations -------------------------------------------------------

    def begin_op(self, name: str) -> None:
        self._op += 1
        self.spans.append([self._op, None, "op:" + name, 0.0, 0.0, None])
        self._stack = [len(self.spans) - 1]

    def end_op(self, start: float, end: float) -> None:
        root = self.spans[self._stack[0]]
        root[START], root[END] = start, end
        self._stack = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn: Callable, extra: Optional[Callable] = None) -> Callable:
        spans = self.spans

        def wrapped(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            rec = [self._op, self._stack[-1], name, 0.0, 0.0, None]
            spans.append(rec)
            self._stack.append(len(spans) - 1)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                self._stack.pop()
            if extra is not None:
                rec[EXTRA] = extra(args, result)
            return result

        return wrapped

    def _count(self, counter: str, fn: Callable) -> Callable:
        counters = self.counters

        def wrapped(*args, **kwargs):
            if self._stack:
                counters[counter] += 1
            return fn(*args, **kwargs)

        return wrapped

    def _g_mask(self, fn: Callable) -> Callable:
        counters, masks = self.counters, self._masks
        last = [None, None]  # most recent oracle and its seen masks

        def wrapped(oracle, mask):
            if self._stack:
                counters["g_mask_calls"] += 1
                if last[0] is not oracle:
                    last[0], last[1] = oracle, masks.setdefault(oracle, set())
                seen = last[1]
                if mask in seen:
                    counters["g_mask_repeats"] += 1
                else:
                    seen.add(mask)
            return fn(oracle, mask)

        return wrapped

    def _insert(self, fn: Callable) -> Callable:
        counters = self.counters

        def wrapped(*args, **kwargs):
            ok = fn(*args, **kwargs)
            if self._stack:
                counters["union_inserts"] += 1
                counters["union_insert_ok"] += bool(ok)
            return ok

        return wrapped

    # -- installation -----------------------------------------------------

    def _patch(self, module: str, path: str, make: Callable[[Callable], Callable]) -> None:
        """Replace module.path by make(original) everywhere the package binds it."""
        mod = sys.modules.get(f"{self.package}.{module}")
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            self.missing.append(f"{module}.{path}")
            return
        wrapper = make(original)
        if owner_name:
            setattr(owner, attr, wrapper)
            self._restore.append(lambda: setattr(owner, attr, original))
            return
        # Functions are also bound by name in importing modules.
        for name, m in list(sys.modules.items()):
            if m is None or not (name == self.package or name.startswith(self.package + ".")):
                continue
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapper)
                    self._restore.append(lambda m=m, key=key: setattr(m, key, original))

    def install(self) -> None:
        self.missing = []
        for module, path in SPAN_TARGETS:
            name = path.rpartition(".")[2]
            extra = _rank_extra if name == "rank_and_kernel" else None
            self._patch(module, path, lambda fn, n=name, x=extra: self._span(n, fn, x))
        for module, path, counter in COUNT_TARGETS:
            self._patch(module, path, lambda fn, c=counter: self._count(c, fn))
        self._patch("sparsity", "SparsityOracle.g_mask", self._g_mask)
        self._patch("sparsity", "_UnionEngine.insert", self._insert)

    def uninstall(self) -> None:
        for undo in reversed(self._restore):
            undo()
        self._restore = []


def _rank_extra(args, result):
    """(rank, rows * cols) of one elimination."""
    try:
        rows, ncols = args[0], args[1]
        return (int(result[0]), len(rows) * int(ncols))
    except (IndexError, TypeError, ValueError):
        return None


# ---------------------------------------------------------------------------
# Per-layer metrics from spans and counters.
# ---------------------------------------------------------------------------

# metric -> (source, should move, on workloads)
LAYER_METRICS: Dict[str, tuple] = {
    "cli.self_s": ("op time outside library spans", "every time", "all"),
    "groups.compose_calls": ("GroupContext.compose + invert", "ops_per_s (render)", "certify"),
    "colored_graph.parse_s": ("parse_graph", "setup_s", "all"),
    "colored_graph.lift_patch_s": ("lift_patch", "ops_per_s (render)", "certify"),
    "sparsity.is_laman_s": ("is_laman", "ops_per_s (check)", "certify"),
    "sparsity.is_laman_sparse_s": ("is_laman_sparse", "ops_per_s", "grow"),
    "sparsity.find_laman_circuit_s": ("find_laman_circuit", "ops_per_s (check, realize)", "diagnose"),
    "sparsity.find_laman_circuit_calls": ("find_laman_circuit", "ops_per_s (check, realize)", "diagnose"),
    "sparsity.union_certificate_s": ("union_certificate", "ops_per_s (check)", "diagnose"),
    "sparsity.decompose11_s": ("decompose11", "ops_per_s (check)", "diagnose"),
    "sparsity.oracle_builds": ("SparsityOracle()", "ops_per_s (check)", "grow, diagnose"),
    "sparsity.g_mask_calls": ("SparsityOracle.g_mask", "ops_per_s", "grow"),
    "sparsity.g_mask_repeat_ratio": ("g_mask on a seen (oracle, mask)", "ops_per_s", "grow"),
    "sparsity.f_mask_calls": ("SparsityOracle.f_mask", "ops_per_s (check)", "diagnose"),
    "sparsity.union_inserts": ("_UnionEngine.insert", "ops_per_s (check)", "grow, diagnose"),
    "sparsity.union_insert_ok_ratio": ("_UnionEngine.insert", "ops_per_s (check)", "grow, diagnose"),
    "realization.rank_and_kernel_s": ("rank_and_kernel", "ops_per_s", "certify, diagnose"),
    "realization.rank_and_kernel_calls": ("rank_and_kernel", "ops_per_s", "certify, diagnose"),
    "realization.eliminated_cells": ("rank_and_kernel rows x cols", "ops_per_s", "certify, diagnose"),
    "realization.assemble_s": ("assemble_direction_system + rigidity_matrix", "ops_per_s", "certify"),
    "realization.rank_samples": ("rank_and_kernel under generic_rigidity_rank", "ops_per_s (rank)", "certify"),
    "realization.rank_samples_raising": ("samples that raised the running max", "ops_per_s (rank)", "certify"),
    "realization.realize_self_s": ("realize minus rank_and_kernel, find_laman_circuit", "ops_per_s (realize)", "certify, diagnose"),
    "trace.overhead": ("1 - traced / untraced throughput, same instances", "none", "all"),
}

# Metrics that need a wrapped name, for reporting a missing wrapper.
_NEEDS = {
    "colored_graph.parse_s": "colored_graph.parse_graph",
    "colored_graph.lift_patch_s": "colored_graph.lift_patch",
    "sparsity.is_laman_s": "sparsity.is_laman",
    "sparsity.is_laman_sparse_s": "sparsity.is_laman_sparse",
    "sparsity.find_laman_circuit_s": "sparsity.find_laman_circuit",
    "sparsity.find_laman_circuit_calls": "sparsity.find_laman_circuit",
    "sparsity.union_certificate_s": "sparsity.union_certificate",
    "sparsity.decompose11_s": "sparsity.decompose11",
    "groups.compose_calls": "groups.GroupContext.compose",
    "sparsity.oracle_builds": "sparsity.SparsityOracle.__init__",
    "sparsity.g_mask_calls": "sparsity.SparsityOracle.g_mask",
    "sparsity.g_mask_repeat_ratio": "sparsity.SparsityOracle.g_mask",
    "sparsity.f_mask_calls": "sparsity.SparsityOracle.f_mask",
    "sparsity.union_inserts": "sparsity._UnionEngine.insert",
    "sparsity.union_insert_ok_ratio": "sparsity._UnionEngine.insert",
    "realization.rank_and_kernel_s": "realization.rank_and_kernel",
    "realization.rank_and_kernel_calls": "realization.rank_and_kernel",
    "realization.eliminated_cells": "realization.rank_and_kernel",
    "realization.assemble_s": "realization.assemble_direction_system",
    "realization.rank_samples": "realization.generic_rigidity_rank",
    "realization.rank_samples_raising": "realization.generic_rigidity_rank",
    "realization.realize_self_s": "realization.realize",
}


def layer_metrics(tracer: Tracer, ops: int) -> Dict[str, float]:
    """Per-layer values: times in seconds per operation, counts per
    operation, ratios over their own base.  Metrics whose wrapped name is
    missing are left out."""
    spans = tracer.spans
    children: Dict[int, List[int]] = {}
    for i, s in enumerate(spans):
        if s[PARENT] is not None:
            children.setdefault(s[PARENT], []).append(i)

    def ancestors(i):
        p = spans[i][PARENT]
        while p is not None:
            yield p
            p = spans[p][PARENT]

    def dur(i):
        return spans[i][END] - spans[i][START]

    total: Counter = Counter()
    calls: Counter = Counter()
    for i, s in enumerate(spans):
        if s[PARENT] is None:
            continue
        calls[s[NAME]] += 1
        if all(spans[a][NAME] != s[NAME] for a in ancestors(i)):
            total[s[NAME]] += dur(i)

    cli_self = sum(dur(i) - sum(dur(c) for c in children.get(i, ()))
                   for i, s in enumerate(spans) if s[PARENT] is None)

    realize_self = 0.0
    for i, s in enumerate(spans):
        if s[NAME] != "realize":
            continue
        inner, todo = 0.0, list(children.get(i, ()))
        while todo:
            c = todo.pop()
            if spans[c][NAME] in ("rank_and_kernel", "find_laman_circuit"):
                inner += dur(c)
            else:
                todo += children.get(c, ())
        realize_self += dur(i) - inner

    cells = samples = raising = 0
    best: Dict[int, int] = {}
    for i, s in enumerate(spans):
        if s[NAME] != "rank_and_kernel" or s[EXTRA] is None:
            continue
        cells += s[EXTRA][1]
        owner = next((a for a in ancestors(i) if spans[a][NAME] == "generic_rigidity_rank"), None)
        if owner is not None:
            samples += 1
            if s[EXTRA][0] > best.get(owner, -1):
                raising += 1
                best[owner] = s[EXTRA][0]

    c = tracer.counters
    per = 1.0 / max(ops, 1)
    out = {
        "cli.self_s": cli_self * per,
        "groups.compose_calls": c["compose_calls"] * per,
        "colored_graph.parse_s": total["parse_graph"] * per,
        "colored_graph.lift_patch_s": total["lift_patch"] * per,
        "sparsity.is_laman_s": total["is_laman"] * per,
        "sparsity.is_laman_sparse_s": total["is_laman_sparse"] * per,
        "sparsity.find_laman_circuit_s": total["find_laman_circuit"] * per,
        "sparsity.find_laman_circuit_calls": calls["find_laman_circuit"] * per,
        "sparsity.union_certificate_s": total["union_certificate"] * per,
        "sparsity.decompose11_s": total["decompose11"] * per,
        "sparsity.oracle_builds": c["oracle_builds"] * per,
        "sparsity.g_mask_calls": c["g_mask_calls"] * per,
        "sparsity.g_mask_repeat_ratio": c["g_mask_repeats"] / max(c["g_mask_calls"], 1),
        "sparsity.f_mask_calls": c["f_mask_calls"] * per,
        "sparsity.union_inserts": c["union_inserts"] * per,
        "sparsity.union_insert_ok_ratio": c["union_insert_ok"] / max(c["union_inserts"], 1),
        "realization.rank_and_kernel_s": total["rank_and_kernel"] * per,
        "realization.rank_and_kernel_calls": calls["rank_and_kernel"] * per,
        "realization.eliminated_cells": cells * per,
        "realization.assemble_s": (total["assemble_direction_system"] + total["rigidity_matrix"]) * per,
        "realization.rank_samples": samples * per,
        "realization.rank_samples_raising": raising * per,
        "realization.realize_self_s": realize_self * per,
    }
    missing = set(tracer.missing)
    return {k: v for k, v in out.items() if _NEEDS.get(k) not in missing}
