"""The package's public surface and its dependencies."""

import ast
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


def test_cli_import_loads_only_what_every_command_needs():
    # ``gen`` and ``selftest`` import their modules only when run, so the
    # import of the CLI, which every command pays, leaves them unloaded.
    path = [str(Path(crystal_rigidity.__file__).parent.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    script = (
        "import sys, crystal_rigidity.cli\n"
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'crystal_rigidity')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert out == [
        "crystal_rigidity",
        "crystal_rigidity.cli",
        "crystal_rigidity.colored_graph",
        "crystal_rigidity.groups",
        "crystal_rigidity.realization",
        "crystal_rigidity.sparsity",
    ]
