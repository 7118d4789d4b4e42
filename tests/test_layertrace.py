"""The benchmark's tracer and its per-layer metrics name qact functions and
methods by string.  A renamed or removed method would make
`layertrace.install` raise KeyError and end every traced benchmark run, and a
renamed function would read 0 in its metrics, so tier-1 checks the names
without running the benchmark."""

import importlib
import importlib.util
import json
from pathlib import Path


def _layertrace():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"
    spec = importlib.util.spec_from_file_location("layertrace", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_cached_group_builders_are_traced():
    """The catalogue builders are `functools.cache` objects; the tracer must
    still see them as public functions of `groups`, so that it wraps and
    rebinds them."""
    import qact.groups

    names = dict(_layertrace()._public_functions(qact.groups))
    assert names["groups.build_quaternion"] is qact.groups.build_quaternion


def test_every_traced_method_is_defined_on_its_class():
    for key in _layertrace().METHODS:
        layer, cls_name, attr = key.split(".")
        cls = getattr(importlib.import_module(f"qact.{layer}"), cls_name)
        assert attr in vars(cls), key


# per-layer names in BENCHMARK.json whose function has left the package: they
# read 0 until the benchmark's files are next changed (ROADMAP item 1)
STALE_PER_LAYER = {
    "actions.iter_valid_tuples",
    "decomp.multiplicities_from_quotient_genera",
    "reptheory.fixed_subspace_dim",
    "reptheory.rep_matrix",
}


def _names_a_span(name, layertrace):
    """True if `name` is `<span>.<stat>` for a `METHODS` span or a public
    function of its layer, or a layer aggregate such as `groups.self_s`."""
    if name == "trace.overhead_s":
        return True
    span, _, stat = name.rpartition(".")
    if span in layertrace.LAYERS:
        return stat in ("self_s", "errors")
    if span in layertrace.METHODS.values():
        return True
    layer, _, attr = span.partition(".")
    if layer not in layertrace.LAYERS or attr.startswith("_"):
        return False
    return callable(getattr(importlib.import_module(f"qact.{layer}"), attr, None))


def test_every_per_layer_metric_names_a_span():
    """A renamed function would zero its benchmark metric silently; this
    fails instead."""
    layertrace = _layertrace()
    path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    names = [metric["name"] for metric in json.loads(path.read_text())["per_layer"]]
    unresolved = {name.rpartition(".")[0] for name in names if not _names_a_span(name, layertrace)}
    assert unresolved == STALE_PER_LAYER
