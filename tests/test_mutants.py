"""The committed mutants still apply to the code (``python tests/mutants.py`` runs them)."""

import re

import pytest

from mutants import ROOT, load

MUTANTS = load()


def test_mutant_ids_are_unique():
    ids = [m["id"] for m in MUTANTS]
    assert len(ids) == len(set(ids))


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m["id"])
def test_each_mutant_replaces_one_exact_text_and_names_existing_tests(mutant):
    assert mutant["file"].startswith("src/")
    text = (ROOT / mutant["file"]).read_text(encoding="utf-8")
    assert text.count(mutant["old"]) == 1
    assert mutant["new"] != mutant["old"]
    assert mutant["tests"]
    for test in mutant["tests"]:
        path, name = test.split("::")
        source = (ROOT / path).read_text(encoding="utf-8")
        assert re.search(rf"^def {name}\(", source, re.M), test
