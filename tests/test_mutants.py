"""The mutation table (``tests/mutants.py``) stays in step with the code:
each mutant's snippet occurs exactly once in its file, and each test it
names exists.  Running the mutants is ``tests/run_mutants.py``'s job."""

import ast
from pathlib import Path

import pytest

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parent.parent


def test_mutant_ids_are_unique():
    ids = [m.id for m in MUTANTS]
    assert len(ids) == len(set(ids))


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.id)
def test_snippet_occurs_once_in_its_file(mutant):
    assert mutant.replacement != mutant.snippet
    assert (ROOT / mutant.file).read_text().count(mutant.snippet) == 1


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.id)
def test_named_tests_exist(mutant):
    assert mutant.tests
    for test_id in mutant.tests:
        file, name = test_id.split("::")
        tree = ast.parse((ROOT / file).read_text())
        assert name in {node.name for node in tree.body
                        if isinstance(node, ast.FunctionDef)}, test_id
