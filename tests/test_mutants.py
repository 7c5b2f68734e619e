"""The standing mutant list in ``tests/mutants.py`` follows the code.

The full run (``python tests/mutants.py``) applies each mutant to a copy
of the tree and runs its tests; here only its preconditions are checked:
each fragment occurs exactly once in its module, each swap changes it,
and each named test exists.  The selection of mutants by name is checked
with a fake in place of the pytest runs.
"""

import re
from pathlib import Path

import pytest

import mutants

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_each_mutant_fragment_occurs_exactly_once(mutant):
    assert mutants.occurrences(mutant) == 1
    assert mutant.replacement != mutant.fragment


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_each_mutant_names_tests_that_exist(mutant):
    assert mutant.tests
    for node in mutant.tests:
        path, name = node.split("::")
        source = (ROOT / path).read_text()
        assert re.search(rf"^def {re.escape(name)}\(", source, re.MULTILINE), node


def test_mutant_names_are_unique():
    names = [m.name for m in mutants.MUTANTS]
    assert len(names) == len(set(names))


def test_named_mutants_run_alone_after_their_tests_pass_unmutated(monkeypatch):
    # a fake run in place of pytest: the unmutated tests pass, every mutant is caught
    runs = []
    monkeypatch.setattr(
        mutants, "run",
        lambda tests, mutant=None: runs.append((tests, mutant)) or (int(mutant is not None), 0.0, ""),
    )
    first, second = mutants.MUTANTS[-1], mutants.MUTANTS[0]
    assert mutants.main([first.name, second.name, first.name]) == 0
    assert runs == [
        (list(dict.fromkeys(first.tests + second.tests)), None),
        (list(first.tests), first),
        (list(second.tests), second),
    ]
    runs.clear()
    assert mutants.main([]) == 0
    assert [mutant for _, mutant in runs] == [None, *mutants.MUTANTS]
    runs.clear()
    assert mutants.main([first.name, "no-such-mutant"]) == 2
    assert runs == []
