"""The mutation list of ``tests/mutants.py`` cannot rot: every snippet
occurs exactly once in its file under ``src/``, each mutant changes it,
and every test file it names exists and triggers the kill-matrix
workflow.  The kill matrix itself runs on demand (``python
tests/mutants.py``) and in that workflow, not here."""

import os
import re

from mutants import MUTANTS, ROOT, occurrences


def test_every_snippet_occurs_exactly_once_in_src():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for mutant in MUTANTS:
        assert mutant.path.startswith("src/"), mutant.name
        assert mutant.snippet != mutant.replacement, mutant.name
        assert occurrences(mutant) == 1, mutant.name
        assert mutant.tests and all(os.path.isfile(os.path.join(ROOT, t)) for t in mutant.tests), mutant.name


def test_the_workflow_runs_when_a_named_test_file_changes():
    with open(os.path.join(ROOT, ".github", "workflows", "mutants.yml"), encoding="utf-8") as f:
        paths = set(re.findall(r'^ +- "([^"]+)"$', f.read(), re.MULTILINE))
    named = {t for m in MUTANTS for t in m.tests}
    assert paths == {"src/**", "tests/mutants.py"} | named
