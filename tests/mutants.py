"""Named mutants of the library and the test files expected to kill them.

Each mutant is a file under ``src/``, an exact snippet that occurs there
once, its replacement and the test files that should fail on it: one
file that does, so the matrix stays quick.  Run from the repository
root::

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # some of them

Each mutant is applied to a fresh copy of the tree in a temporary
directory, its test files run there under pytest, and a kill matrix is
printed: the mutant, its result, the seconds taken and the first failing
test.  Only a failing test kills a mutant: pytest exit 1 with a
``FAILED`` line.  Exit 0 is SURVIVED; any other exit, a collection error
say, is ``ERROR`` with its exit code, since it shows nothing about the
mutant.  A run longer than ``TIMEOUT_S`` is stopped and counts as
killed, as a hang would fail CI.  The exit status is 1 if any mutant
survives or errs.  Standard library only; ``tests/test_mutants.py``
checks in Tier-1 that every snippet still occurs exactly once, so the
list cannot rot, and ``.github/workflows/mutants.yml`` runs the matrix
whenever ``src/``, this file or a test file named here changes.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COLORED_GRAPH = "src/crystal_rigidity/colored_graph.py"
SPARSITY = "src/crystal_rigidity/sparsity.py"
REALIZATION = "src/crystal_rigidity/realization.py"
CLI = "src/crystal_rigidity/cli.py"
# Seconds a mutant's test files may run; the slowest file takes about 7 s.
TIMEOUT_S = 120
KILLED, SURVIVED, TIMEOUT = "killed", "SURVIVED", "TIMEOUT"


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    snippet: str
    replacement: str
    tests: Tuple[str, ...]


MUTANTS = (
    Mutant(
        "closure-own-side-free", SPARSITY,
        "            if states[1 - s].independent(x):\n                toward[x] = (0, None)",
        "            if states[s].independent(x):\n                toward[x] = (0, None)",
        ("tests/test_closure.py",),
    ),
    Mutant(
        "closure-one-round", SPARSITY,
        "                    toward[x] = (level, z)\n                    queue.append(x)\n",
        "                    toward[x] = (level, z)\n",
        ("tests/test_closure.py",),
    ),
    Mutant(
        "chain-check-no-scans", SPARSITY,
        "        for mask in moved:\n",
        "        for mask in ():\n",
        ("tests/test_closure.py",),
    ),
    Mutant(
        "lattice-column", REALIZATION,
        "max(kernel[0]) >= 2 * g.n:",
        "max(kernel[0]) >= 2 * g.n - 1:",
        ("tests/test_realization.py",),
    ),
    Mutant(
        "peek-fast-path-or", SPARSITY,
        "gen = color if wi is _IDENT and wj is _IDENT else",
        "gen = color if wi is _IDENT or wj is _IDENT else",
        ("tests/test_sparsity.py",),
    ),
    Mutant(
        "fold-k2-parallel-dropped", SPARSITY,
        "if half == 1 and gdir[0] * vec[1] - gdir[1] * vec[0] != 0:",
        "if half == 1:",
        ("tests/test_sparsity.py",),
    ),
    Mutant(
        "remember-merge-le", SPARSITY,
        "if union.bit_count() == 2 * joined.g - 1:",
        "if union.bit_count() <= 2 * joined.g - 1:",
        ("tests/test_engine_handoff.py",),
    ),
    Mutant(
        "same-center-rotation-part", SPARSITY,
        "elif self.ctx.same_center(rot, gen):",
        "elif rot[2] == gen[2]:",
        ("tests/test_sparsity.py",),
    ),
    Mutant(
        "plan-groups-split-y-only", SPARSITY,
        "if b != whole[tree.root[c]]:",
        "if b & 3 != whole[tree.root[c]] & 3:",
        ("tests/test_exchange_arcs.py",),
    ),
    Mutant(
        "handed-to-shares-sides", SPARSITY,
        "engine.sides = [self.sides[0][:], self.sides[1][:]]",
        "engine.sides = self.sides",
        ("tests/test_engine_handoff.py",),
    ),
    Mutant(
        "over-shares-arcs", SPARSITY,
        "        memo = vars(self)\n",
        "        st._arcs = self._arcs\n        memo = vars(self)\n",
        ("tests/test_engine_handoff.py",),
    ),
    Mutant(
        "fold-k2-first-translation-lost", SPARSITY,
        "return rot, True, 1, (vec[0], vec[1])",
        "return rot, True, 0, (vec[0], vec[1])",
        ("tests/test_sparsity.py",),
    ),
    Mutant(
        "cone-core-non-rotation", SPARSITY,
        "if image[2] != 0:",
        "if image[2] == 0:",
        ("tests/test_sparsity.py",),
    ),
    Mutant(
        "decide-mod-p-le", REALIZATION,
        "if len(reduced) < min(g.m, ncols):",
        "if len(reduced) <= min(g.m, ncols):",
        ("tests/test_modular_evaluation.py",),
    ),
    Mutant(
        "parallel-row-first-kernel-vector", REALIZATION,
        "% P for x in kernel):",
        "% P for x in kernel[:1]):",
        ("tests/test_modular_evaluation.py",),
    ),
    Mutant(
        "z-pivot-sign-kept", REALIZATION,
        "        return {j: (-a, 0) for j, a in row.items()}",
        "        return {j: (a, 0) for j, a in row.items()}",
        ("tests/test_elimination.py",),
    ),
    Mutant(
        "quotient-norm-sign-kept", REALIZATION,
        "    if d < 0:\n        ca, cb, d = -ca, -cb, -d\n",
        "",
        ("tests/test_coordinates.py",),
    ),
    Mutant(
        "ordered-kernel-unmapped", REALIZATION,
        "    return _natural_kernel([{order[j]: x for j, x in row.items()} for row in kernel])",
        "    return [{order[j]: x for j, x in row.items()} for row in kernel]",
        ("tests/test_column_order.py",),
    ),
    Mutant(
        "free-columns-not-last", REALIZATION,
        "        exact_kernel = partial(_exact_kernel, g, directions, free)\n",
        "        exact_kernel = partial(_exact_kernel, g, directions)\n",
        ("tests/test_column_order.py",),
    ),
    Mutant(
        "natural-kernel-not-reduced", REALIZATION,
        "        for q in [j for j in row if j != c and j in pivots]:\n",
        "        for q in []:\n",
        ("tests/test_column_order.py",),
    ),
    Mutant(
        "graph-eq-ignores-context", COLORED_GRAPH,
        "        return (self.context, self.n, self.edges) == (other.context, other.n, other.edges)",
        "        return (self.n, self.edges) == (other.n, other.edges)",
        ("tests/test_records.py",),
    ),
    Mutant(
        "graph-assignment-allowed", COLORED_GRAPH,
        "        raise AttributeError(f\"cannot assign to field {name!r}\")",
        "        object.__setattr__(self, name, value)",
        ("tests/test_records.py",),
    ),
    Mutant(
        "parse-skips-rotation-check", COLORED_GRAPH,
        "        if not 0 <= s < k:\n            raise GraphParseError(",
        "        if False:\n            raise GraphParseError(",
        ("tests/test_records.py",),
    ),
    Mutant(
        "family-11-circuit-unlabelled", CLI,
        '"dependent" if record.get("family") == "11" else "circuit"',
        '"circuit"',
        ("tests/test_cli.py",),
    ),
)


def occurrences(mutant: Mutant, root: str = ROOT) -> int:
    with open(os.path.join(root, mutant.path), encoding="utf-8") as f:
        return f.read().count(mutant.snippet)


def _copy_tree(dest: str) -> None:
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", "out", "*.egg-info")
    for name in ("src", "tests", "bench", "pyproject.toml"):
        source = os.path.join(ROOT, name)
        if os.path.isdir(source):
            shutil.copytree(source, os.path.join(dest, name), ignore=ignore)
        else:
            shutil.copy(source, dest)


def outcome(returncode: int, stdout: str) -> Tuple[str, str]:
    """(result, first failing test) of a finished pytest run of a mutant's
    test files: ``KILLED`` for exit 1 with a ``FAILED`` line, ``SURVIVED``
    for exit 0, else ``ERROR <exit code>``."""
    failed = re.search(r"^FAILED (\S+)", stdout, re.MULTILINE)
    if returncode == 1 and failed:
        return KILLED, failed.group(1)
    if returncode == 0:
        return SURVIVED, ""
    return f"ERROR {returncode}", ""


def run(mutant: Mutant) -> Tuple[str, float, str]:
    """(result, seconds, first failing test) of one mutant."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        _copy_tree(tmp)
        path = os.path.join(tmp, mutant.path)
        with open(path, encoding="utf-8") as f:
            text = f.read()
        if text.count(mutant.snippet) != 1:
            raise SystemExit(f"{mutant.name}: snippet does not occur exactly once in {mutant.path}")
        with open(path, "w", encoding="utf-8") as f:
            f.write(text.replace(mutant.snippet, mutant.replacement))
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        start = time.perf_counter()
        try:
            done = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests],
                cwd=tmp, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            result, first = TIMEOUT, ""
        else:
            result, first = outcome(done.returncode, done.stdout)
        seconds = time.perf_counter() - start
    return result, seconds, first


def main(argv=None) -> int:
    names = sys.argv[1:] if argv is None else argv
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        raise SystemExit(f"unknown mutants: {', '.join(sorted(unknown))}")
    killed = 0
    print(f"{'mutant':34} {'result':9} {'seconds':>7}  first failing test")
    for mutant in chosen:
        result, seconds, first = run(mutant)
        killed += result in (KILLED, TIMEOUT)
        print(f"{mutant.name:34} {result:9} {seconds:7.1f}  {first}", flush=True)
    print(f"{killed} of {len(chosen)} killed")
    return 1 if killed < len(chosen) else 0


if __name__ == "__main__":
    sys.exit(main())
