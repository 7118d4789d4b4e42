"""`tools/mutants.py` replays each named source mutant against the tests meant
to kill it, which takes minutes.  A mutant whose old text or test ids went
stale would only show there, so tier-1 imports the list without running it
and checks that every entry still applies."""

import importlib.util
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def mutants(monkeypatch):
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolves the string annotations through sys.modules
    monkeypatch.setitem(sys.modules, "mutants", module)
    spec.loader.exec_module(module)
    return module.MUTANTS


def test_mutant_names_are_unique(mutants):
    names = [m.name for m in mutants]
    assert len(set(names)) == len(names)


def test_each_old_text_occurs_exactly_once(mutants):
    for m in mutants:
        text = (ROOT / "src" / "qact" / m.file).read_text()
        assert text.count(m.old) == 1, m.name


def test_each_test_id_names_an_existing_test_function(mutants):
    for m in mutants:
        assert m.tests, m.name
        for node in m.tests:
            path, _, func = node.partition("::")
            func = func.partition("[")[0]
            test_file = ROOT / path
            assert test_file.is_file(), (m.name, node)
            assert re.search(rf"^def {re.escape(func)}\(", test_file.read_text(), re.M), (m.name, node)
