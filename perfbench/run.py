"""The qact benchmark: fresh-process `qact` runs, verified, with per-layer spans.

    python3 perfbench/run.py --workload census-n5 --seed 1 --seconds 40 --trace 0

Run from the root of a source tree (the one holding `src/qact`).  A run is a
closed loop with one client: it starts one fresh `qact` process, waits for its
report, verifies it, and only then starts the next, until `--seconds` have
been spent (at least `MIN_SAMPLES` processes).  Everything runs serially, so a
run uses one core.

Other tenants of the machine slow every process down by up to 1.8x, in
spells of seconds to minutes.  So the run times a fixed reference loop
(`reference_s`) before the first process and after each one, and divides each
time of a process by the slowdown the two loops next to it saw (`Sample.speed`).
Times are therefore seconds at the speed where the loop takes
`REFERENCE_NOMINAL_S`; the raw medians are printed beside them.

With `--trace 0` the last line of standard output carries the end-to-end
metrics, each the median over the run's processes.  With `--trace 1` the run
alternates untraced and traced processes (see layertrace.py) and the last line
carries the per-layer metrics.  The lines before it give quartiles, sample
counts and provenance; perfbench/NOTES.md explains the workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from layertrace import LAYERS

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_build" / "perfbench"
LAUNCH = Path(__file__).resolve().parent / "launch.py"

MIN_SAMPLES = 3
RUN_LIMIT_S = 170  # a run must end within 180 s; no process may outlive it
WARMUP_TIMEOUT_S = 60
REFERENCE_ROUNDS = 100
REFERENCE_NOMINAL_S = 0.4  # the loop's time on an idle 2.1 GHz Xeon vCPU

SCAN_SIGNATURES = 224
SCAN_SKES = 1535488


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    golden_n: int | None  # reproduce workloads are checked against this golden

    def check(self, report: dict, goldens: dict) -> int | None:
        """The number of valid skes the report accounts for, or None if the
        report is wrong."""
        results = report.get("results", {})
        if self.golden_n is not None:
            if results.get("matches_expected") is not True or results.get("report") != goldens[self.golden_n]:
                return None
            return sum(f["ske_count"] for f in results["report"]["families"])
        scan = results.get("exhaustive_scan", {})
        if (
            scan.get("ok") is not True
            or scan.get("signatures_checked") != SCAN_SIGNATURES
            or scan.get("skes_checked") != SCAN_SKES
        ):
            return None
        return scan["skes_checked"]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("census-n5", ("reproduce", "--n", "5"), 5),
        Workload("scan-n6", ("genus-zero", "--n", "6", "--exhaustive", "--max-periods", "5"), None),
        Workload("fixtures-n3", ("reproduce", "--n", "3"), 3),
    )
}

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "skes_per_s": "1/s",
    "ok_ratio": "ratio",
}

PER_LAYER = (
    "groups.build.calls",
    "groups.build.self_s",
    "groups.maximal_subgroups.self_s",
    "groups.automorphisms.self_s",
    "groups.automorphisms.size",
    "groups.find_isomorphism.self_s",
    "actions.iter_valid_tuples.self_s",
    "actions.iter_valid_tuples.yielded",
    "actions.genus_zero_exhaustive_scan.self_s",
    "actions.classify.self_s",
    "actions.classify.nodes",
    "actions.classify.orbits",
    "actions.check_extension.self_s",
    "actions.quotient_data.calls",
    "actions.quotient_data.self_s",
    "decomp.is_trivial_decomposition.self_s",
    "decomp.factor_dimensions.self_s",
    "decomp.multiplicities_from_quotient_genera.self_s",
    "reptheory.rep_matrix.calls",
    "reptheory.rep_matrix.self_s",
    "reptheory.irreducible_characters.self_s",
    "reptheory.fixed_subspace_dim.calls",
    "cyclo.Cyclotomic.mul.calls",
    "cyclo.Cyclotomic.add.calls",
    "cyclo.Cyclotomic.inverse.calls",
    "cyclo.PolyMatrix.matmul.self_s",
    "siegel.mat_mul.calls",
    "siegel.mat_mul.self_s",
    "siegel.verify_group_data.self_s",
    "siegel.verify_fixed_family.self_s",
    "siegel.fixed_locus_dimension.self_s",
    "curves.verify_automorphisms.self_s",
    "curves.point_map_group_order.self_s",
    "curves.branch_configuration.self_s",
    "cli.main.self_s",
    "reproduce.load_expected.self_s",
) + tuple(
    f"{layer}.{field}"
    for layer in LAYERS
    for field in ("self_s", "errors")
) + ("trace.overhead_s",)


@dataclass
class Sample:
    wall_s: float
    setup_s: float
    cpu_s: float
    peak_rss_mb: float
    skes: int | None
    exit_code: int
    report_bytes: bytes
    trace: dict | None
    # REFERENCE_NOMINAL_S over the mean reference time around this process
    speed: float = 1.0

    @property
    def ok(self) -> bool:
        return self.exit_code == 0 and self.skes is not None


class Runner:
    """Spawns and verifies the `qact` processes of one run."""

    def __init__(self, workload: Workload, seed: int, deadline: float):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )
        # numpy's BLAS must not add threads: a run uses one core
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"
        self.goldens = {
            n: json.loads((ROOT / f"src/qact/fixtures/expected/reproduce_n{n}.json").read_text())
            for n in {w.golden_n for w in WORKLOADS.values()} - {None}
        }
        self.prefix = WORK / f"{workload.name}-seed{seed}"

    def warm_up(self) -> dict:
        """Import qact once, untimed (byte-compiles it, fills the page cache),
        and report the interpreter and numpy versions the samples use."""
        probe = (
            "import json, sys, numpy, qact.cli; "
            "print(json.dumps({'python': sys.version.split()[0], 'numpy': numpy.__version__}))"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe], cwd=ROOT, env=self.env,
            capture_output=True, text=True, timeout=WARMUP_TIMEOUT_S,
        )
        if done.returncode != 0:
            raise RuntimeError(f"cannot import qact: {done.stderr.strip().splitlines()[-1:]}")
        return json.loads(done.stdout)

    def sample(self, traced: bool) -> Sample:
        out = self.prefix.with_suffix(".report.json")
        stamp = self.prefix.with_suffix(".stamp")
        trace_path = self.prefix.with_suffix(".trace.json")
        for p in (out, stamp, trace_path):
            p.unlink(missing_ok=True)
        cmd = [sys.executable, str(LAUNCH), str(stamp)]
        if traced:
            cmd += ["--trace", str(trace_path)]
        cmd += ["--", *self.workload.argv, "--seed", str(self.seed), "--out", str(out)]
        with open(self.prefix.with_suffix(".stderr"), "wb") as err:
            t0 = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL, stderr=err)
            killer = threading.Timer(max(1.0, self.deadline - t0), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
                killer.join()
            proc.returncode = os.waitstatus_to_exitcode(status)
            report_bytes = out.read_bytes() if out.exists() else b""
            skes = None
            if proc.returncode == 0:
                try:
                    skes = self.workload.check(json.loads(report_bytes), self.goldens)
                except (ValueError, KeyError, TypeError, AttributeError):
                    pass  # an unreadable report fails the check
            t1 = time.monotonic()
        setup = float(stamp.read_text()) - t0 if stamp.exists() else float("nan")
        trace = json.loads(trace_path.read_text()) if traced and trace_path.exists() else None
        return Sample(
            wall_s=t1 - t0,
            setup_s=setup,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024,
            skes=skes,
            exit_code=proc.returncode,
            report_bytes=report_bytes,
            trace=trace,
        )


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def reference_s() -> float:
    """Time a fixed pure-Python workload shaped like qact's own: a depth-first
    walk over a 64 x 64 multiplication table that yields tuples, and updates
    of a dict keyed by tuples.  Nothing in it depends on qact."""
    t0 = time.perf_counter()
    n = 64
    table = [[(i * 37 + j * 11 + i * j) % n for j in range(n)] for i in range(n)]
    counts: dict[tuple[int, int], int] = {}

    def walk(depth: int, prod: int, prefix: tuple[int, ...]):
        row = table[prod]
        if depth == 0:
            for g in range(n):
                if not row[g] & 3:
                    yield prefix + (g, row[g])
            return
        for g in range(0, n, 4):
            yield from walk(depth - 1, row[g], prefix + (g,))

    for start in range(REFERENCE_ROUNDS):
        for t in walk(2, start % n, ()):
            key = (t[0], t[-1])
            counts[key] = counts.get(key, 0) + 1
    for i in range(REFERENCE_ROUNDS * 8000):
        key = (i % 97, i % 89)
        counts[key] = counts.get(key, 0) + 1
    return time.perf_counter() - t0


def end_to_end(samples: list[Sample]) -> dict[str, list[float]]:
    good = [s for s in samples if s.ok]
    return {
        "wall_s": [s.wall_s * s.speed for s in good],
        "setup_s": [s.setup_s * s.speed for s in good],
        "cpu_s": [s.cpu_s * s.speed for s in good],
        "peak_rss_mb": [s.peak_rss_mb for s in good],
        "skes_per_s": [s.skes / (s.wall_s * s.speed) for s in good],
        "ok_ratio": [len(good) / len(samples)],
    }


def per_layer(traced: list[Sample], overhead_s: float) -> dict[str, list[float]]:
    """Each per-layer metric across the traced processes: a layer name reads
    the layer totals, any other prefix reads that span's aggregate."""
    out: dict[str, list[float]] = {}
    for name in PER_LAYER:
        prefix, field = name.rsplit(".", 1)
        if prefix == "trace":
            out[name] = [overhead_s]
            continue
        values = []
        for s in traced:
            table = s.trace["layers"] if prefix in s.trace["layers"] else s.trace["stats"]
            value = table.get(prefix, {}).get(field, 0)
            values.append(value * s.speed if field.endswith("_s") else value)
        out[name] = values
    return out


def unit_of(name: str) -> str:
    return "s" if name.endswith("_s") else "count"


def counts_repeat(traces: list[dict]) -> bool:
    """Calls and counts must be identical in every traced process."""
    def counts(tr):
        return {name: {k: v for k, v in st.items() if k != "self_s"} for name, st in tr["stats"].items()}

    return all(counts(tr) == counts(traces[0]) for tr in traces[1:])


def git_sha() -> str:
    """The commit of the tree, read from .git without leaving the tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((ROOT / "src" / "qact").rglob("*")):
        if p.is_file() and p.suffix in (".py", ".json"):
            h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def results_digest(report_bytes: bytes) -> str:
    results = json.loads(report_bytes)["results"]
    return hashlib.sha256(json.dumps(results, sort_keys=True).encode()).hexdigest()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    started = time.monotonic()
    if not (ROOT / "src" / "qact" / "cli.py").is_file():
        print(f"error: no qact source tree under {ROOT}", file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    cpus_allowed = sorted(os.sched_getaffinity(0))
    # the reference loop and every qact process share one CPU
    os.sched_setaffinity(0, {cpus_allowed[0]})
    workload = WORKLOADS[args.workload]
    runner = Runner(workload, args.seed, deadline=started + RUN_LIMIT_S)
    load_before = os.getloadavg()
    try:
        versions = runner.warm_up()
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    # closed loop, one client; with tracing, untraced and traced alternate
    plan = [False, True] if args.trace else [False]
    samples: list[Sample] = []
    references = [reference_s()]
    t_loop = time.monotonic()
    while True:
        for traced in plan:
            sample = runner.sample(traced)
            references.append(reference_s())
            sample.speed = REFERENCE_NOMINAL_S / statistics.mean(references[-2:])
            samples.append(sample)
        elapsed = time.monotonic() - t_loop
        rounds = len(samples) // len(plan)
        per_round = elapsed / rounds
        if rounds * len(plan) >= MIN_SAMPLES and elapsed + per_round > args.seconds:
            break
        if time.monotonic() + per_round > runner.deadline:
            break
    load_after = os.getloadavg()

    failed = sum(not s.ok for s in samples)
    good = [s for s in samples if s.ok]
    reports = {s.report_bytes for s in good}
    # every verified report of the run is byte-identical, traced or not
    correct = failed == 0 and len(reports) == 1
    untraced = [s for s in good if s.trace is None]
    traced = [s for s in good if s.trace is not None]

    if args.trace:
        correct = correct and len(traced) > 0 and counts_repeat([s.trace for s in traced])
        overhead = (
            statistics.median(s.wall_s * s.speed for s in traced)
            - statistics.median(s.wall_s * s.speed for s in untraced)
            if traced and untraced else 0.0
        )
        series = per_layer(traced, overhead) if traced else {}
        names = PER_LAYER
    else:
        series = end_to_end(samples)
        names = tuple(END_TO_END)

    print(f"# {workload.name}: qact {' '.join(workload.argv)} --seed {args.seed}")
    print(f"# {len(samples)} processes, {failed} failed, {len(traced)} traced")
    print("# wall_s per process, in order: " + " ".join(
        f"{s.wall_s:.3f}{'t' if s.trace is not None else ''}{'' if s.ok else '!'}" for s in samples
    ))
    print(f"# {'metric':<52} {'unit':>6} {'median':>12} {'q1':>12} {'q3':>12} {'n':>4}")
    metrics = {}
    for name in names:
        unit = END_TO_END.get(name) or unit_of(name)
        values = series.get(name) or [0.0]
        q1, med, q3 = quartiles(values)
        metrics[name] = {"value": med, "unit": unit}
        print(f"  {name:<52} {unit:>6} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {len(values):>4}")
    if good:
        print(f"# raw, before the speed correction: wall_s median {statistics.median(s.wall_s for s in good):.6g},"
              f" cpu_s median {statistics.median(s.cpu_s for s in good):.6g}")

    provenance = {
        "workload": workload.name,
        "argv": ["qact", *workload.argv, "--seed", str(args.seed)],
        "seed": args.seed,
        "trace": args.trace,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "results_sha256": results_digest(good[0].report_bytes) if good else None,
        "python": versions["python"],
        "numpy": versions["numpy"],
        "nproc": os.cpu_count(),
        "cpus_allowed": len(cpus_allowed),
        "pinned_cpu": cpus_allowed[0],
        "loadavg_before": load_before,
        "loadavg_after": load_after,
        "exit_codes": sorted({s.exit_code for s in samples}),
        "reference_s": {"median": statistics.median(references), "min": min(references), "max": max(references)},
    }
    print("# provenance " + json.dumps(provenance, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": len(samples), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
