"""The kill-list in `tests/mutants.py` still applies: each mutant's old text
occurs exactly once in its file, and its tests exist. Nothing is run; the
kill-list itself runs as `python3 tests/mutants.py`."""

import re

import pytest

from mutants import MUTANTS, ROOT, apply


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_applies_once_and_names_its_tests(mutant):
    text = (ROOT / mutant.path).read_text()
    assert apply(text, mutant) != text
    assert mutant.tests
    for test_id in mutant.tests:
        path, _, name = test_id.partition("::")
        source = (ROOT / path).read_text()
        assert re.search(rf"^def {re.escape(name)}\(", source, re.M), test_id
