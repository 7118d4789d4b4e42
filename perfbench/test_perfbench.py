"""Tests of the qact benchmark itself:

    python3 -m pytest perfbench -q

They run the workloads in fresh processes, traced and untraced, and check that
the traced counts agree with the counts in the reports, that tracing changes
no byte of a report, that the seed changes no result, and that the benchmark
refuses a tree that holds no qact.  About half a minute on one core.
"""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import layertrace
import run

HERE = Path(__file__).resolve().parent


def sample(workload: str, traced: bool, seed: int = 0) -> run.Sample:
    run.WORK.mkdir(parents=True, exist_ok=True)
    runner = run.Runner(run.WORKLOADS[workload], seed, deadline=time.monotonic() + run.RUN_LIMIT_S)
    s = runner.sample(traced)
    assert s.ok, (workload, traced, s.exit_code)
    return s


def test_census_counts_agree_with_the_report():
    plain, traced = sample("census-n5", False), sample("census-n5", True)
    report = json.loads(traced.report_bytes)["results"]["report"]
    stats = traced.trace["stats"]
    ske_total = sum(f["ske_count"] for f in report["families"])
    assert stats["actions.classify"]["nodes"] == 20352 == ske_total
    assert stats["groups.automorphisms"]["size"] == 128
    assert stats["groups.automorphisms"]["calls"] == 1
    assert traced.report_bytes == plain.report_bytes


def test_scan_counts_agree_with_the_report():
    plain, traced = sample("scan-n6", False), sample("scan-n6", True)
    scan = json.loads(traced.report_bytes)["results"]["exhaustive_scan"]
    stats = traced.trace["stats"]
    assert stats["actions.iter_valid_tuples"]["yielded"] == 1535488 == scan["skes_checked"]
    assert stats["actions.genus_zero_exhaustive_scan"]["calls"] == 1
    assert traced.report_bytes == plain.report_bytes


def test_fixtures_counts_agree_with_the_report():
    plain, traced = sample("fixtures-n3", False), sample("fixtures-n3", True)
    report = json.loads(traced.report_bytes)["results"]["report"]
    stats = traced.trace["stats"]
    assert stats["actions.classify"]["nodes"] == sum(f["ske_count"] for f in report["families"]) == 264
    assert stats["siegel.mat_mul"]["calls"] > 0
    assert all(layer["errors"] == 0 for layer in traced.trace["layers"].values())
    assert traced.report_bytes == plain.report_bytes


def test_seed_changes_no_result():
    a, b = sample("fixtures-n3", False, seed=1), sample("fixtures-n3", False, seed=2)
    assert json.loads(a.report_bytes)["inputs"]["seed"] == 1
    assert run.results_digest(a.report_bytes) == run.results_digest(b.report_bytes)


def test_wrappers_sit_at_every_binding():
    probe = """
import json, layertrace, qact.groups as g, qact.actions as a, qact.reproduce as r, qact.reptheory as rt, qact.cli as c
original = g.build_quaternion
tracer = layertrace.Tracer("probe")
layertrace.install(tracer)
G = a.build_quaternion(3)
G.maximal_subgroups()
spans = tracer.to_json()["spans"]
outer = next(sp for sp in spans if sp["name"] == "groups.build_quaternion")
children = [sp for sp in spans if sp["parent"] == outer["id"]]
stats = tracer.to_json()["stats"]
print(json.dumps({
    "same": g.build_quaternion is a.build_quaternion is r.build_quaternion is rt.build_quaternion,
    "wrapped": g.build_quaternion is not original and g.build_quaternion.__wrapped__ is original,
    "cmd_unwrapped": not hasattr(c.cmd_reproduce, "__wrapped__"),
    "main_wrapped": c.main.__wrapped__.__name__ == "main",
    "build_is_child": "groups.build" in {sp["name"] for sp in children},
    "self_plus_children": round(stats["groups.build_quaternion"]["self_s"] * 1e9)
    + sum(sp["end_ns"] - sp["start_ns"] for sp in children) == outer["end_ns"] - outer["start_ns"],
    "lattice_calls": stats["groups.maximal_subgroups"]["calls"],
}))
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(run.ROOT / "src"), str(HERE)]))
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {
        "same": True, "wrapped": True, "cmd_unwrapped": True, "main_wrapped": True,
        "build_is_child": True, "self_plus_children": True, "lattice_calls": 1,
    }


def test_generator_spans_count_yields_and_errors():
    tracer = layertrace.Tracer("unit")

    def gen(n):
        yield from range(n)

    def fails():
        raise KeyError("x")

    traced_gen = tracer.wrap_function("actions.gen", gen)
    traced_fail = tracer.wrap_function("actions.fails", fails)
    assert list(traced_gen(4)) == [0, 1, 2, 3]
    try:
        traced_fail()
    except KeyError:
        pass
    out = tracer.to_json()
    assert out["stats"]["actions.gen"]["calls"] == 1
    assert out["stats"]["actions.gen"]["yielded"] == 4
    assert out["span_count"] == 5 + 1  # four yields, the exhausting resumption, the failing call
    assert out["stats"]["actions.fails"]["errors"] == 1
    assert out["layers"]["actions"]["errors"] == 1
    assert len(tracer.stack) == 1


def test_metric_lists_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END.items())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(n, run.unit_of(n)) for n in run.PER_LAYER]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)


def test_refuses_a_tree_without_qact(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fixtures-n3", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
