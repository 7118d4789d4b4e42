"""The benchmark's tracer names qact methods by string; a renamed or removed
method would make `layertrace.install` raise KeyError and end every traced
benchmark run, so tier-1 checks the names without running the benchmark."""

import importlib
import importlib.util
from pathlib import Path


def _layertrace():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"
    spec = importlib.util.spec_from_file_location("layertrace", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_method_is_defined_on_its_class():
    for key in _layertrace().METHODS:
        layer, cls_name, attr = key.split(".")
        cls = getattr(importlib.import_module(f"qact.{layer}"), cls_name)
        assert attr in vars(cls), key
