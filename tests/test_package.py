"""The package's public surface."""

import crystal_rigidity


def test_every_export_resolves():
    missing = [name for name in crystal_rigidity.__all__ if not hasattr(crystal_rigidity, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from crystal_rigidity import *", namespace)
    assert set(crystal_rigidity.__all__) <= set(namespace)
