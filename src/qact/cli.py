"""Command-line front end: subcommands for every verification surface, with
JSON (default), markdown and CSV emitters and golden-file reproduction.

Exit codes: 0 success, 1 a verification ran and failed, 2 usage or input
error.
Reports are deterministic for fixed inputs and --seed; wall-clock timings are
only attached when --timings is passed so that byte-level comparison of
reports stays meaningful.
Only `groups` is imported at the top, since `main` catches its `GroupError`
and `BudgetExceeded`; every other layer is imported inside the handlers that
use it, so a process loads only what its subcommand runs: `genus-zero`,
`classify`, `families`, `quotient` and `extend` load `actions`, `chars` loads
`reptheory` (and with it `cyclo`), `decompose` loads `decomp` (and `actions`
for `--ske` only), `siegel`, `curve` and `reproduce` their own layers, and
`groups` nothing more.  numpy loads only for `siegel locus`, whose
Gauss-Newton estimator imports it.  `build_parser` is cached, so a process
that parses its arguments before calling `main` builds the parser once.
Every record is a `typing.NamedTuple` (the arithmetic types are `__slots__`
classes), so no process imports the standard library's data classes module,
with its `inspect`, `ast` and `dis`.  A record enters a report only through
its `to_json` (a record whose JSON is its fields calls the shared
`groups.record_json`); there is no fallback converter, so `json.dumps`
itself raises `TypeError` on any type JSON does not know.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from functools import cache
from typing import TYPE_CHECKING

from . import __version__
from .groups import (
    BudgetExceeded, GroupError, build_named, build_quaternion, named_subgroups, read_int, subgroup_by_label,
)

if TYPE_CHECKING:
    from .actions import Signature


def _parse_signature(text: str) -> Signature:
    from .actions import Signature

    head, _, tail = text.partition(":")
    return Signature(read_int(head, "--signature"), _parse_ints(tail, "--signature"))


def _parse_ints(text: str, field: str) -> tuple[int, ...]:
    return tuple(read_int(v, field) for v in text.split(",") if v != "")


# each sigma_b witness holds b + 3 names, so the census's time, memory and
# report grow as max_b^2; at this ceiling an n = 6 census takes about a second
MAX_B = 500
# the exhaustive scan counts each signature's skes by a closed formula and
# caches nothing; at this ceiling an n = 6 scan took 0.21-0.24 s and 17 MB
# peak RSS in a fresh process (2-vCPU Xeon VM, Python 3.11)
MAX_PERIODS = 12


def _int_in_range(low: int, high: int | None = None):
    """An argparse type for integers no smaller than `low` and, unless `high`
    is None, no larger than `high`."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be between {low} and {high}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _positive_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value) or value <= 0:
        raise argparse.ArgumentTypeError(f"must be a finite number above 0, got {text}")
    return value


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh, parse_int=lambda text: read_int(text, path))


# ---------------------------------------------------------------------------
# subcommands: each returns (exit_code, results_dict)
# ---------------------------------------------------------------------------


def cmd_groups(args) -> tuple[int, dict]:
    G = build_named(args.name, n=args.n, m=args.m)
    out = {
        "group": G.to_json(),
        "order": G.order,
        "generators": [G.names[g] for g in G.generators],
        "order_histogram": dict(
            (str(k), v) for k, v in G.order_histogram()
        ),
        "center_size": len(G.center()),
        "conjugacy_classes": len(G.conjugacy_classes()),
    }
    if G.kind == "quaternion":
        subs = named_subgroups(G)
        out["named_subgroups"] = {
            lbl: [G.names[i] for i in sorted(K)] for lbl, K in sorted(subs.items())
        }
    return 0, out


def cmd_chars(args) -> tuple[int, dict]:
    from .reptheory import class_data, irreducible_characters, rational_irreducibles

    cd = class_data(args.n)
    G = cd.group
    chars = irreducible_characters(args.n)
    rats = rational_irreducibles(args.n)
    return 0, {
        "n": args.n,
        "class_representatives": [G.names[r] for r in cd.reps],
        "class_sizes": list(cd.sizes),
        "irreducibles": [
            {
                "label": ch.label,
                "degree": int(ch.degree),
                "values": [repr(v.reduce_conductor()) for v in ch.values],
                "values_exact": [v.to_json() for v in ch.values],
            }
            for ch in chars
        ],
        "rational_irreducibles": [
            {
                "label": r.label,
                "constituents": list(r.constituents),
                "schur_index": r.schur_index,
                "degree": int(r.character.degree),
            }
            for r in rats
        ],
    }


def cmd_decompose(args) -> tuple[int, dict]:
    from .decomp import MultiplicityVector, factor_dimensions, is_trivial_decomposition, multiplicities

    if args.ske:
        from .actions import ske_from_json, validate_ske

        ske = ske_from_json(_load_json(args.ske))
        ok, msg = validate_ske(ske)
        if not ok:
            return 1, {"error": f"invalid ske: {msg}"}
        mv = multiplicities(ske)
        source = {"ske": ske.to_json()}
    else:
        if args.a is None or args.b is None:
            raise ValueError("decompose needs either --ske or both --a and --b")
        mv = MultiplicityVector(args.n, _parse_ints(args.a, "--a"), _parse_ints(args.b, "--b"))
        source = {}
    table = factor_dimensions(mv)
    trivial = is_trivial_decomposition(mv)
    return 0, {
        **source,
        "multiplicities": mv.to_json(),
        "factor_table": table.to_json(),
        "triviality": trivial.to_json(),
    }


def cmd_classify(args) -> tuple[int, dict]:
    from .actions import classify

    G = build_quaternion(args.n)
    sig = _parse_signature(args.signature)
    report = classify(G, sig, max_candidates=args.budget)
    return 0, {"n": args.n, **report.to_json()}


def cmd_families(args) -> tuple[int, dict]:
    from .actions import one_dimensional_families

    fams = one_dimensional_families(args.n)
    return 0, {
        "n": args.n,
        "count": len(fams),
        "families": [f.to_json() for f in fams],
    }


def cmd_genus_zero(args) -> tuple[int, dict]:
    from .actions import genus_zero_actions, genus_zero_exhaustive_scan

    recs = genus_zero_actions(args.n, args.max_b)
    ok = all(r.witness_valid and r.witness_genus_zero for r in recs)
    out = {
        "n": args.n,
        "max_b": args.max_b,
        "records": [r.to_json() for r in recs],
        "all_witnesses_ok": ok,
    }
    if args.exhaustive:
        scan = genus_zero_exhaustive_scan(args.n, args.max_periods)
        out["exhaustive_scan"] = scan.to_json()
        ok = ok and scan.ok
    return (0 if ok else 1), out


def cmd_quotient(args) -> tuple[int, dict]:
    from .actions import quotient_data, ske_from_json, validate_ske

    ske = ske_from_json(_load_json(args.ske))
    ok, msg = validate_ske(ske)
    if not ok:
        return 1, {"error": f"invalid ske: {msg}"}
    K = subgroup_by_label(ske.group, args.subgroup)
    qd = quotient_data(ske, K)
    return 0, {
        "ske": ske.to_json(),
        "subgroup": args.subgroup,
        "quotient": qd.to_json(),
    }


def cmd_extend(args) -> tuple[int, dict]:
    from .actions import check_extension, extension_data, family_label, family_labels, ske_from_json

    ske = ske_from_json(_load_json(args.ske)) if args.ske else None
    if ske is not None and ske.group.kind != "quaternion":
        raise ValueError(f"extend --ske needs a Q(2^n) ske, not one of {ske.group.name}")
    n = ske.group.params["n"] if ske else args.n
    if n is None:
        raise ValueError("extend needs --ske or --n")
    build_quaternion(n)  # refuses an n out of range before the family table is built
    fam = args.family or (family_label(n, ske.signature) if ske else None)
    if fam is None:
        raise ValueError("cannot determine the family; pass --family")
    if fam not in family_labels(n):
        raise ValueError(f"no family {fam} at n={n}; the families are {', '.join(family_labels(n))}")
    theta, theta_prime, words = extension_data(n, fam, args.super)
    if ske is not None:
        theta = ske
    report = check_extension(theta, theta_prime, words)
    return (0 if report.ok else 1), {
        "n": n,
        "family": fam,
        "supergroup": args.super,
        "theta": theta.to_json(),
        "theta_prime": theta_prime.to_json(),
        "report": report.to_json(),
    }


def cmd_siegel(args) -> tuple[int, dict]:
    from . import siegel as sg

    fx = sg.load_fixture(args.fixture)
    gens = fx.generators
    out = {"fixture": fx.name, "sha256": fx.sha256}
    if args.action == "verify":
        fx.require("family", "period_matrix")
        code = 0
        if fx.family is not None:
            rep = sg.verify_fixed_family(gens, fx.family)
            out["fixed_family"] = rep.to_json()
            if fx.family_variant is not None:
                out["fixed_family_variant"] = sg.verify_fixed_family(gens, fx.family_variant).to_json()
            if not rep.ok:
                out["erratum"] = "printed family is not exactly fixed by the generators"
                code = 1
        if fx.period_matrix is not None:
            residual = sg.verify_fixed_point_numeric(gens, fx.period_matrix)
            out["period_matrix_residual_below_tol"] = bool(residual < args.tol)
            out["tolerance"] = args.tol
            if residual >= args.tol:
                out["erratum"] = "printed period matrix is not numerically fixed"
                code = 1
        return code, out
    if args.action == "group":
        target = build_named(fx.target_group) if fx.target_group else None
        rep = sg.verify_group_data(gens, fx.relations, target, gen_names=fx.generator_names)
        # after the closure: generators that never close report that first
        fx.require("expected_order")
        out["group_data"] = rep.to_json()
        out["expected_order"] = fx.expected_order
        code = 0 if (rep.ok and rep.order == fx.expected_order) else 1
        return code, out
    # args.action == "locus": argparse admits no other action
    fx.require("expected_dimension")
    rep = sg.fixed_locus_dimension(
        gens, starts=args.starts, rank_tol=args.tol, rng_seed=args.seed
    )
    loc = rep.to_json()
    loc["point"] = None  # keep reports deterministic across BLAS variants
    loc["singular_values"] = None
    loc["max_residual"] = None if rep.max_residual is None else bool(rep.max_residual < 1e-9)
    out["locus"] = loc
    out["expected_dimension"] = fx.expected_dimension
    code = 0 if rep.dimension == fx.expected_dimension else 1
    return code, out


def cmd_curve(args) -> tuple[int, dict]:
    # a trailing i is the imaginary unit; "inf" and "nan" keep their letters
    t = complex(args.t[:-1] + "j" if args.t.endswith("i") else args.t) if args.t else None
    if args.verify and t is None:
        raise ValueError("--verify needs a numeric --t")
    from . import curves as cv

    model = cv.build_model(args.n, t)
    out = {"model": model.to_json()}
    code = 0
    if args.verify:
        try:
            rep = cv.verify_automorphisms(model, samples=args.samples, seed=args.seed)
            order = cv.point_map_group_order(model)
        except OverflowError as exc:
            raise ValueError(f"t = {args.t} overflows the numeric checks ({exc})") from None
        out["automorphisms"] = rep.to_json()
        out["residual_below_tol"] = bool(rep.max_residual < 1e-8)
        bc = cv.branch_configuration(args.n, t)
        out["branch_count"] = bc.count
        out["branch_orbit_sizes"] = bc.orbit_sizes()
        out["point_map_group_order"] = order
        if not (rep.max_residual < 1e-8 and rep.rotation_exact and order == 2**args.n):
            code = 1
    return code, out


def cmd_reproduce(args) -> tuple[int, dict]:
    from .reproduce import reproduce_report, load_expected

    report = reproduce_report(args.n)
    expected = load_expected(args.n)
    matches = report == expected
    out = {
        "n": args.n,
        "matches_expected": matches,
        "report": report,
    }
    if not matches:
        out["diff_hint"] = _first_diff(expected, report)
    return (0 if matches else 1), out


def _first_diff(a, b, path="$"):
    if type(a) is not type(b):
        return f"{path}: type {type(a).__name__} != {type(b).__name__}"
    if isinstance(a, dict):
        for k in sorted(set(a) | set(b)):
            if k not in a:
                return f"{path}.{k}: unexpected"
            if k not in b:
                return f"{path}.{k}: missing"
            d = _first_diff(a[k], b[k], f"{path}.{k}")
            if d:
                return d
        return None
    if isinstance(a, list):
        if len(a) != len(b):
            return f"{path}: length {len(a)} != {len(b)}"
        for i, (x, y) in enumerate(zip(a, b)):
            d = _first_diff(x, y, f"{path}[{i}]")
            if d:
                return d
        return None
    if a != b:
        return f"{path}: {a!r} != {b!r}"
    return None


# ---------------------------------------------------------------------------
# emitters
# ---------------------------------------------------------------------------


def _emit_markdown(results: dict) -> str:
    lines = []

    def walk(obj, depth=0):
        if isinstance(obj, dict):
            for k, v in obj.items():
                if _is_table(v):
                    lines.append(f"{'#' * (depth + 2)} {k}")
                    lines.extend(_table_lines(v))
                elif isinstance(v, dict) and v:
                    lines.append(f"{'#' * (depth + 2)} {k}")
                    walk(v, depth + 1)
                elif isinstance(v, list) and v and any(isinstance(x, (dict, list)) for x in v):
                    lines.append(f"{'#' * (depth + 2)} {k}")
                    walk(v, depth + 1)
                else:
                    lines.append(f"- **{k}**: {v}")
        elif isinstance(obj, list):
            for item in obj:
                walk(item, depth)

    walk(results)
    return "\n".join(lines) + "\n"


def _is_table(v) -> bool:
    return (
        isinstance(v, list)
        and v
        and all(isinstance(r, dict) for r in v)
        and len({tuple(sorted(r)) for r in v}) == 1
    )


def _table_lines(rows: list[dict]) -> list[str]:
    # machine-form duplicates (keys ending in _exact) stay JSON-only
    cols = [c for c in rows[0] if not c.endswith("_exact")]
    out = ["| " + " | ".join(cols) + " |", "|" + "---|" * len(cols)]
    for r in rows:
        out.append("| " + " | ".join(str(r[c]) for c in cols) + " |")
    return out


def _emit_csv(results: dict) -> str:
    import csv
    import io

    table = next((v for v in results.values() if _is_table(v)), None)
    buf = io.StringIO()
    if table is None:
        w = csv.writer(buf)
        w.writerow(["key", "value"])
        for k, v in results.items():
            if not isinstance(v, (dict, list)):
                w.writerow([k, v])
    else:
        w = csv.DictWriter(buf, fieldnames=list(table[0]))
        w.writeheader()
        for row in table:
            w.writerow({k: json.dumps(v) if isinstance(v, (dict, list)) else v for k, v in row.items()})
    return buf.getvalue()


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


@cache
def build_parser() -> argparse.ArgumentParser:
    """The qact argument parser, built once per process: parsing never
    changes it."""
    p = argparse.ArgumentParser(
        prog="qact",
        description="Exact verification suite for generalized quaternion group actions.",
    )
    p.add_argument("--version", action="version", version=f"qact {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="JSON output (default)")
    common.add_argument("--markdown", action="store_true", help="markdown output")
    common.add_argument("--csv", action="store_true", help="CSV output")
    common.add_argument("--out", help="write the report to this path")
    common.add_argument("--seed", type=int, default=0, help="seed for randomized numerics")
    common.add_argument("--jobs", type=_int_in_range(1), default=1,
                        help="accepted and echoed in the report; the scan runs serially")
    common.add_argument("--timings", action="store_true", help="attach wall-clock runtime")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("groups", parents=[common], help="build and describe a named group")
    q.add_argument("--name", required=True)
    q.add_argument("--n", type=int)
    q.add_argument("--m", type=int)
    q.set_defaults(fn=cmd_groups)

    q = sub.add_parser("chars", parents=[common], help="exact character table of Q(2^n)")
    q.add_argument("--n", type=int, required=True)
    q.set_defaults(fn=cmd_chars)

    q = sub.add_parser("decompose", parents=[common], help="isogeny factor dimension table")
    q.add_argument("--n", type=int, default=4)
    q.add_argument("--a", help="a1,a2,a3,a4")
    q.add_argument("--b", help="b1,...,b_(2^(n-2)-1)")
    q.add_argument("--ske", help="ske JSON file (multiplicities by the Chevalley-Weil formula)")
    q.set_defaults(fn=cmd_decompose)

    q = sub.add_parser("classify", parents=[common], help="braid x Aut orbit classification")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--signature", required=True, help="gamma:k1,k2,...")
    q.add_argument("--budget", type=_int_in_range(1), default=5_000_000)
    q.set_defaults(fn=cmd_classify)

    q = sub.add_parser("families", parents=[common], help="one-dimensional family census")
    q.add_argument("--n", type=int, required=True)
    q.set_defaults(fn=cmd_families)

    q = sub.add_parser("genus-zero", parents=[common], help="sigma_b census with witnesses")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--max-b", type=_int_in_range(0, MAX_B), default=4,
                   help=f"largest b of the sigma_b census, 0..{MAX_B}")
    q.add_argument("--exhaustive", action="store_true",
                   help="also scan every valid ske up to --max-periods periods")
    q.add_argument("--max-periods", type=_int_in_range(3, MAX_PERIODS), default=7,
                   help=f"most periods of a scanned signature, 3..{MAX_PERIODS}")
    q.set_defaults(fn=cmd_genus_zero)

    q = sub.add_parser("quotient", parents=[common], help="quotient genus and branch data")
    q.add_argument("--ske", required=True)
    q.add_argument("--subgroup", required=True)
    q.set_defaults(fn=cmd_quotient)

    q = sub.add_parser("extend", parents=[common], help="verify extension to a supergroup")
    q.add_argument("--ske")
    q.add_argument("--n", type=int)
    q.add_argument("--family", choices=["F0", "F1", "F2"])
    q.add_argument("--super", required=True, choices=["G1", "G2"])
    q.set_defaults(fn=cmd_extend)

    q = sub.add_parser("siegel", parents=[common], help="symplectic fixture verification")
    q.add_argument("action", choices=["verify", "group", "locus"])
    q.add_argument("--fixture", required=True)
    q.add_argument("--starts", type=_int_in_range(0), default=8)
    q.add_argument("--tol", type=_positive_float, default=1e-9,
                   help="verify: bound on the largest entry of A Z + B - Z (C Z + D) at the "
                        "period matrix; locus: relative rank tolerance")
    q.set_defaults(fn=cmd_siegel)

    q = sub.add_parser("curve", parents=[common], help="hyperelliptic model verification")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--t", help="complex parameter, e.g. -1 or 0.3+1.1i")
    q.add_argument("--verify", action="store_true")
    q.add_argument("--samples", type=_int_in_range(1), default=200)
    q.set_defaults(fn=cmd_curve)

    q = sub.add_parser("reproduce", parents=[common], help="regenerate and diff golden tables")
    q.add_argument("--n", type=int, required=True, choices=[3, 4, 5])
    q.set_defaults(fn=cmd_reproduce)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.time()
    try:
        code, results = args.fn(args)
        text = _render(args, results, t0)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
    except (GroupError, ValueError, OSError, BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not args.out:
        sys.stdout.write(text)
    return code


def _render(args, results: dict, t0: float) -> str:
    report = {
        "command": args.command,
        "version": __version__,
        "schema": 1,
        "inputs": {
            k: v
            for k, v in sorted(vars(args).items())
            if k not in ("fn", "command") and not k.startswith("_") and v is not None
        },
        "results": results,
    }
    if "sha256" in results:
        report["fixtures"] = {results.get("fixture", "fixture"): results["sha256"]}
    if args.timings:
        report["runtime_s"] = round(time.time() - t0, 3)
    if args.markdown:
        return _emit_markdown(report["results"])
    if args.csv:
        return _emit_csv(report["results"])
    return json.dumps(report, indent=1, sort_keys=True) + "\n"


if __name__ == "__main__":
    raise SystemExit(main())
