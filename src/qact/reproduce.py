"""Regenerate every paper-facing table from scratch, as plain JSON data.

The output is deliberately exact (ints, bools, strings) so that reports are
byte-stable and can be diffed against the committed golden files under
fixtures/expected/.  The golden files are regression anchors; the factual
content itself is asserted against independently computed values in the
acceptance test suite.  `siegel` and `curves` are imported inside `_siegel`
and `_curves`, so that `reproduce --n 5` loads neither.  No `reproduce` run
loads numpy: `_siegel` takes each fixture's fixed-locus dimension from the
analytic character at its printed fixed point (`siegel.character_dimension`),
not from Gauss-Newton.
"""

from __future__ import annotations

import json
from importlib import resources

from .groups import build_named, build_quaternion, named_subgroups, subgroup_by_label
from .decomp import factor_dimensions, is_trivial_decomposition, multiplicities
from .actions import (
    check_extension,
    extension_data,
    family_labels,
    family_representative,
    genus_zero_actions,
    one_dimensional_families,
    quotient_data,
)


def _normalize(obj):
    return json.loads(json.dumps(obj, sort_keys=True))


def reproduce_report(n: int) -> dict:
    out: dict = {"n": n}
    if n in (3, 4):
        out["genus_zero"] = [
            {
                "b": r.b,
                "periods": list(r.signature.periods),
                "genus": r.genus,
                "witness_valid": r.witness_valid,
                "witness_genus_zero": r.witness_genus_zero,
                "witness": r.witness.element_names()["elliptic"],
            }
            for r in genus_zero_actions(n, 4)
        ]
    out["families"] = [
        {
            "label": f.label,
            "gamma": f.signature.gamma,
            "periods": list(f.signature.sorted_periods()),
            "genus": f.genus,
            "orbit_count": f.orbit_count,
            "ske_count": f.ske_count,
            "stratum_bound": f.stratum_bound,
        }
        for f in one_dimensional_families(n)
    ]
    out["dimension_tables"] = _dimension_tables(n)
    if n >= 4:
        out["extensions"] = _extensions(n)
    if n in (3, 4):
        out["curves"] = _curves(n)
    if n == 3:
        out["siegel"] = _siegel()
    return _normalize(out)


def _dimension_tables(n: int) -> dict:
    G = build_quaternion(n)
    subs = named_subgroups(G)
    labels = sorted(subs)
    tables = {}
    for fam in family_labels(n):
        ske = family_representative(n, fam)
        mv = multiplicities(ske)
        table = factor_dimensions(mv)
        trivial = is_trivial_decomposition(mv)
        quot = {lbl: quotient_data(ske, subs[lbl]).to_json() for lbl in labels}
        tables[fam] = {
            "representative": ske.element_names(),
            "surface_genus": quotient_data(ske, subgroup_by_label(G, "1")).genus,
            "multiplicities": mv.to_json(),
            "factors": table.to_json(),
            "quotients": quot,
            "trivial_decomposition": trivial.agree and trivial.dim_AZ_zero,
        }
    return tables


def _extensions(n: int) -> dict:
    out = {}
    for fam, sup in (("F0", "G1"), ("F1", "G1"), ("F2", "G1"), ("F2", "G2")):
        theta, theta_prime, words = extension_data(n, fam, sup)
        rep = check_extension(theta, theta_prime, words).to_json()
        out[f"{fam}->{sup}"] = {k: rep[k] for k in ("ok", "index", "mu_ratio", "restriction")}
    return out


def _curves(n: int) -> dict:
    from . import curves as cv

    model = cv.build_model(n, complex(2.0))
    rep = cv.verify_automorphisms(model, samples=200, seed=0)
    bc = cv.branch_configuration(n, complex(2.0))
    return {
        "t_minus_one_collapse": cv.t_minus_one_collapse(n),
        "rotation_identity": rep.rotation_exact,
        "genus": model.genus,
        "degree": model.degree,
        "residual_below_1e8": bool(rep.max_residual < 1e-8),
        "branch_count": bc.count,
        "branch_orbit_sizes": bc.orbit_sizes(),
        "point_map_group_order": cv.point_map_group_order(model),
    }


def _siegel() -> dict:
    from . import siegel as sg

    out = {}
    for name in ("thm10", "thm11", "prop13"):
        fx = sg.load_fixture(name)
        gens = fx.generators
        grp = sg.verify_group_data(
            gens, fx.relations, build_named(fx.target_group), gen_names=fx.generator_names
        )
        rep = grp.to_json()
        entry: dict = {"sha256": fx.sha256}
        for key in ("generators_symplectic", "order", "relations_hold",
                    "isomorphic_to_target", "presentation_witness"):
            entry[key] = rep[key]
        if fx.family is not None:
            entry["family_fixed"] = sg.verify_fixed_family(gens, fx.family).ok
            if fx.family_variant is not None:
                entry["variant_fixed"] = sg.verify_fixed_family(gens, fx.family_variant).ok
        if fx.period_matrix is not None:
            entry["period_matrix_in_H4"] = sg.in_upper_half(fx.period_matrix)
            entry["residual_below_1e9"] = bool(
                sg.verify_fixed_point_numeric(gens, fx.period_matrix) < 1e-9
            )
        point = fx.family if fx.family is not None else fx.period_matrix
        entry["fixed_locus_dimension"] = sg.character_dimension(gens, point)
        out[name] = entry
    return out


def load_expected(n: int) -> dict:
    ref = resources.files("qact").joinpath(f"fixtures/expected/reproduce_n{n}.json")
    if not ref.is_file():
        raise FileNotFoundError(f"no golden file for n={n}")
    return json.loads(ref.read_text())
