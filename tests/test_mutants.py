"""The mutation list of ``tests/mutants.py`` cannot rot: every snippet
occurs exactly once in its file under ``src/``, each mutant changes it,
and every test file it names exists.  The kill matrix itself runs on
demand (``python tests/mutants.py``), not here."""

import os

from mutants import MUTANTS, ROOT, occurrences


def test_every_snippet_occurs_exactly_once_in_src():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for mutant in MUTANTS:
        assert mutant.path.startswith("src/"), mutant.name
        assert mutant.snippet != mutant.replacement, mutant.name
        assert occurrences(mutant) == 1, mutant.name
        assert mutant.tests and all(os.path.isfile(os.path.join(ROOT, t)) for t in mutant.tests), mutant.name
