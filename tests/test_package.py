"""The package's public surface and its dependencies."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import crystal_rigidity


def test_every_export_resolves():
    missing = [name for name in crystal_rigidity.__all__ if not hasattr(crystal_rigidity, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from crystal_rigidity import *", namespace)
    assert set(crystal_rigidity.__all__) <= set(namespace)


def test_library_imports_only_the_standard_library():
    # The library is dependency-free: every import in its modules is of a
    # standard-library module or of the package itself.
    package = Path(crystal_rigidity.__file__).parent
    outside = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # not an import, or a relative one
            for name in names:
                top = name.split(".")[0]
                if top not in sys.stdlib_module_names and top != "crystal_rigidity":
                    outside.append(f"{path.name}: {name}")
    assert outside == []


# The paper's subgroup invariants, its matroid on n labeled copies of the
# group and the brute-force verifier are oracles: they live in ``selftest``,
# off the path every command loads.
MOVED_FROM_GROUPS = (
    "translation_span", "in_span", "TRIVIAL", "CYCLIC_ROTATION", "TRANSLATION_ONLY", "MIXED",
    "SubgroupDescriptor", "classify_subgroup", "invariant_t", "join_rep", "rep_dim", "cent_of",
    "in_closure", "IndexedSubset", "g1_rank", "is_independent", "is_tight", "is_spanning",
    "conjugate_subset", "separate_subset", "fuse_subset",
)
MOVED_FROM_SPARSITY = ("brute_force_sparse", "_BRUTE_FORCE_MAX_EDGES")
MOVED_FROM_GENERATE = ("random_indexed_subset", "random_tight_set", "TIGHT_ATTEMPTS")
# Standard-library modules no command needs, each costly to import.
UNUSED_BY_COMMANDS = ("dataclasses", "inspect", "ast")
DROPPED_EXPORTS = (
    "IndexedSubset", "SubgroupDescriptor", "classify_subgroup", "g1_rank", "in_closure",
    "brute_force_sparse",
)


def test_cli_import_loads_only_what_every_command_needs():
    # ``gen`` and ``selftest`` import their modules only when run, so the
    # import of the CLI, which every command pays, leaves them unloaded;
    # the modules it does load define none of the oracles.  Its records are
    # built without dataclasses, so it loads neither ``dataclasses`` nor
    # the ``inspect`` and ``ast`` that module imports.
    path = [str(Path(crystal_rigidity.__file__).parent.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    script = (
        "import json, sys, crystal_rigidity.cli\n"
        "modules = sorted(m for m in sys.modules if m.split('.')[0] == 'crystal_rigidity')\n"
        "groups, sparsity = sys.modules['crystal_rigidity.groups'], sys.modules['crystal_rigidity.sparsity']\n"
        f"print(json.dumps([modules, [n for n in {MOVED_FROM_GROUPS!r} if hasattr(groups, n)], "
        f"[n for n in {MOVED_FROM_SPARSITY!r} if hasattr(sparsity, n)], "
        f"[n for n in {UNUSED_BY_COMMANDS!r} if n in sys.modules]]))"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout
    modules, in_groups, in_sparsity, unused = json.loads(out)
    assert modules == [
        "crystal_rigidity",
        "crystal_rigidity.cli",
        "crystal_rigidity.colored_graph",
        "crystal_rigidity.groups",
        "crystal_rigidity.realization",
        "crystal_rigidity.sparsity",
    ]
    assert in_groups == [] and in_sparsity == []
    assert unused == []


def test_oracles_live_in_selftest():
    from crystal_rigidity import generate, selftest

    assert [n for n in DROPPED_EXPORTS if n in crystal_rigidity.__all__ or hasattr(crystal_rigidity, n)] == []
    assert [n for n in MOVED_FROM_GENERATE if hasattr(generate, n)] == []
    moved = MOVED_FROM_GROUPS + MOVED_FROM_SPARSITY + MOVED_FROM_GENERATE
    assert [n for n in moved if not hasattr(selftest, n)] == []
