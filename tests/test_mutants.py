"""The kill-list in `tests/mutants.py` still applies: each mutant's old text
occurs exactly once in its file, and its tests exist; and the runner picks
mutants by name. Nothing is run; the kill-list itself runs as
`python3 tests/mutants.py`."""

import re

import pytest

from mutants import MUTANTS, ROOT, apply, main, select


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_applies_once_and_names_its_tests(mutant):
    text = (ROOT / mutant.path).read_text()
    assert apply(text, mutant) != text
    assert mutant.tests
    for test_id in mutant.tests:
        path, _, name = test_id.partition("::")
        source = (ROOT / path).read_text()
        assert re.search(rf"^def {re.escape(name)}\(", source, re.M), test_id


def test_named_mutants_run_in_kill_list_order():
    assert select([]) == MUTANTS
    assert select([MUTANTS[2].name, MUTANTS[0].name]) == [MUTANTS[0],
                                                          MUTANTS[2]]
    assert len({mutant.name for mutant in MUTANTS}) == len(MUTANTS)


def test_unknown_mutant_name_is_refused_before_any_run(capsys):
    assert main([MUTANTS[0].name, "no-such-mutant", "nor-this"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "unknown mutant: no-such-mutant, nor-this\n"
