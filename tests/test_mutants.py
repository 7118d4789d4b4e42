"""`tools/mutants.py` replays each named source mutant against the tests meant
to kill it, which takes minutes.  A mutant whose old text or test ids went
stale would only show there, so tier-1 imports the list without running it
and checks that every entry still applies, and checks the verdict each pytest
exit status gives with `subprocess.run` stubbed."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def tool(monkeypatch):
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolves the string annotations through sys.modules
    monkeypatch.setitem(sys.modules, "mutants", module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def mutants(tool):
    return tool.MUTANTS


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


COLLECTION_ERROR = "___ ERROR collecting tests/test_groups.py ___\nERROR: found no collectors for tests/test_groups.py::t\n"
NOT_FOUND = "ERROR: not found: tests/test_groups.py::t\n"


@pytest.mark.parametrize("code, stdout, verdict", [
    (0, "", "survived"),
    (1, "", "killed"),
    (2, "", "killed"),
    (4, COLLECTION_ERROR, "killed"),
    (4, NOT_FOUND, None),
    (5, "", None),
], ids=["passed", "failed", "interrupted", "module-failed-to-import", "test-not-found", "nothing-collected"])
def test_pytest_exit_status_maps_to_a_verdict(tool, monkeypatch, code, stdout, verdict):
    """pytest's exit status and output give the verdict; no pytest runs."""
    monkeypatch.setattr(tool, "_patched_tree", lambda mutant, dest: None)
    monkeypatch.setattr(tool.subprocess, "run", lambda *a, **k: subprocess.CompletedProcess(a, code, stdout, ""))
    mutant = tool.MUTANTS[0]
    if verdict is None:
        with pytest.raises(ValueError, match=f"pytest exited {code}"):
            tool.run(mutant)
    else:
        assert tool.run(mutant) == verdict
