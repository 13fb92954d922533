"""The mutation list of ``tests/mutants.py`` cannot rot: every snippet
occurs exactly once in its file under ``src/``, each mutant changes it,
and every test file it names exists and triggers the kill-matrix
workflow.  The harness counts only a failing test as a kill, checked on
synthetic pytest results.  The kill matrix itself runs on demand
(``python tests/mutants.py``) and in that workflow, not here."""

import os
import re

import mutants
from mutants import KILLED, MUTANTS, ROOT, SURVIVED, TIMEOUT, occurrences, outcome


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


FAILED_RUN = """F
=========================== short test summary info ============================
FAILED tests/test_elimination.py::TestSparseAgainstDenseOracle::test_seeded_systems_identical - AssertionError
!!!!!!!!!!!!!!!!!!!!!!!!!! stopping after 1 failures !!!!!!!!!!!!!!!!!!!!!!!!!!!
1 failed in 2.31s
"""


class TestOutcome:
    def test_a_failing_test_kills(self):
        assert outcome(1, FAILED_RUN) == (
            KILLED, "tests/test_elimination.py::TestSparseAgainstDenseOracle::test_seeded_systems_identical"
        )

    def test_a_passing_run_survives(self):
        assert outcome(0, "....\n4 passed in 0.10s\n") == (SURVIVED, "")

    def test_a_collection_error_is_no_kill(self):
        stdout = (
            "ERROR tests/test_elimination.py - SyntaxError: invalid syntax\n"
            "!!!!!!!!!!!!!!!!!!! Interrupted: 1 error during collection !!!!!!!!!!!!!!!!!!!\n"
            "1 error in 0.21s\n"
        )
        assert outcome(2, stdout) == ("ERROR 2", "")

    def test_no_tests_collected_is_no_kill(self):
        assert outcome(5, "\nno tests ran in 0.01s\n") == ("ERROR 5", "")

    def test_internal_and_usage_errors_are_no_kill(self):
        assert outcome(3, "INTERNALERROR> Traceback\n") == ("ERROR 3", "")
        assert outcome(4, "ERROR: file or directory not found: tests/x.py\n") == ("ERROR 4", "")

    def test_exit_1_without_a_failed_line_is_no_kill(self):
        assert outcome(1, "E\nERROR tests/test_x.py::test_y - RuntimeError\n1 error in 0.1s\n") == ("ERROR 1", "")

    def test_a_failed_line_with_another_exit_is_no_kill(self):
        assert outcome(2, FAILED_RUN) == ("ERROR 2", "")


class TestExitStatus:
    """``main`` exits 0 only when every chosen mutant is killed or timed out."""

    @staticmethod
    def status(monkeypatch, results):
        chosen = MUTANTS[: len(results)]
        by_name = {m.name: r for m, r in zip(chosen, results)}
        monkeypatch.setattr(mutants, "run", lambda m: (by_name[m.name], 0.0, ""))
        return mutants.main([m.name for m in chosen])

    def test_kills_and_timeouts_pass(self, monkeypatch, capsys):
        assert self.status(monkeypatch, [KILLED, TIMEOUT]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "2 of 2 killed"

    def test_a_survivor_fails(self, monkeypatch):
        assert self.status(monkeypatch, [KILLED, SURVIVED]) == 1

    def test_an_error_fails(self, monkeypatch, capsys):
        assert self.status(monkeypatch, [KILLED, "ERROR 2"]) == 1
        assert capsys.readouterr().out.splitlines()[-1] == "1 of 2 killed"
