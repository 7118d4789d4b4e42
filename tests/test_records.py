"""The record contract.  Records are `typing.NamedTuple`s and the arithmetic
types `__slots__` classes, so that no run imports `dataclasses`; each keeps
the constructor, field order, immutability and repr it had as a frozen
dataclass, and the two validated records keep their checks and messages.
The records whose JSON is exactly their fields share one converter,
`groups.record_json`; the JSON contract below pins what it writes."""

import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

import qact
from qact.actions import (
    ExtensionReport, FamilyRecord, GenusZeroRecord, GenusZeroScan, OrbitReport, QuotientData, Signature, Ske,
)
from qact.curves import AutomorphismReport, BranchConfiguration, HyperellipticModel
from qact.cyclo import Cyclotomic, CycloPoly, PolyMatrix
from qact.decomp import FactorTable, InvalidMultiplicities, MultiplicityVector, TrivialityReport
from qact.groups import MAX_N, build_quaternion
from qact.reptheory import Character, ClassData, RationalIrreducible, irreducible_characters
from qact.siegel import FixedFamilyReport, Fixture, GroupDataReport, LocusReport

G = build_quaternion(3)
SIG = Signature(0, (4, 4, 4, 4))
SKE = Ske(G, SIG, (), (2, 4, 3, 5))
CHI = irreducible_characters(3)[1]
POLY = CycloPoly(1, (((1,), Cyclotomic.one(4)),))

# each former dataclass with one value per field, in field order
RECORDS = [
    (Signature, {"gamma": 0, "periods": (4, 4, 4, 4)}),
    (Ske, {"group": G, "signature": SIG, "hyperbolic": (), "elliptic": (2, 4, 3, 5)}),
    (OrbitReport, {"signature": SIG, "total": 8, "orbit_count": 1, "representatives": (SKE,),
                   "orbit_sizes": (8,)}),
    (QuotientData, {"genus": 0, "periods": (2, 2)}),
    (GenusZeroRecord, {"b": 0, "signature": SIG, "genus": 2, "witness": SKE, "witness_valid": True,
                       "witness_genus_zero": True}),
    (GenusZeroScan, {"n": 3, "max_periods": 4, "signatures_checked": 1, "skes_checked": 8,
                     "sigma_b_values_seen": [0], "mismatches": []}),
    (FamilyRecord, {"label": "F1", "signature": SIG, "genus": 3, "stratum_bound": 1, "orbit_count": 1,
                    "ske_count": 8, "representative": SKE}),
    (ExtensionReport, {"ok": True, "index": 2, "mu_ratio": Fraction(2), "mu_ratio_ok": True,
                       "subgroup_isomorphic": True, "restriction_valid": True, "equivalent_to_theta": True,
                       "restriction": ("x", "y")}),
    (FixedFamilyReport, {"generator_ok": (True, False)}),
    (GroupDataReport, {"order": 8, "generators_symplectic": (True,), "relations_hold": (True,),
                       "isomorphic_to_target": None, "target": None, "presentation_witness": None}),
    (LocusReport, {"dimension": 1, "point": None, "max_residual": 0.0, "singular_values": [1.0],
                   "validated_directions": 1, "in_upper_half": True, "converged_starts": 8}),
    (Fixture, {"name": "thm10", "sha256": "0" * 64, "generators": (((0, 1), (-1, 0)),),
               "generator_names": None, "relations": None, "target_group": None, "expected_order": 4,
               "expected_dimension": None, "family": None, "family_variant": None, "period_matrix": None}),
    (MultiplicityVector, {"n": 3, "a": (0, 0, 0, 0), "b": (1,)}),
    (FactorTable, {"n": 3, "dim_AG": 0, "dim_prym_N": (0, 0, 0), "dim_prym_A_over_AZ": 2, "dim_prym_H": (),
                   "total": 2}),
    (TrivialityReport, {"decomposition_trivial": True, "dim_AZ_zero": True, "all_dim_AK_zero": True,
                        "multiplicity_pattern": True, "fixed_point_free": False}),
    (ClassData, {"group": G, "reps": (0, 2), "sizes": (1, 1), "class_of": (0, 1)}),
    (Character, {"n": 3, "label": "chi2", "values": CHI.values}),
    (RationalIrreducible, {"n": 3, "label": "chi2", "constituents": ("chi2",), "schur_index": 1,
                           "character": CHI}),
    (HyperellipticModel, {"n": 3, "t": None, "f_coeffs": None, "xi": 1j, "lam": None, "eta": None}),
    (AutomorphismReport, {"n": 3, "samples": 2, "max_on_curve_x": 0.0, "max_on_curve_y": 0.0,
                          "max_rel_x_order": 0.0, "max_rel_y_square": 0.0, "max_rel_conjugation": 0.0,
                          "max_hyperelliptic": 0.0, "rotation_exact": True}),
    (BranchConfiguration, {"n": 3, "zero": [0j], "infinity": ["inf"], "unit_roots": [1 + 0j], "t_roots": [],
                           "sqrt_t_roots": [], "neg_sqrt_t_roots": [], "lambda_sign_identity": 0.0}),
    (CycloPoly, {"nvars": 1, "terms": POLY.terms}),
    (PolyMatrix, {"rows": 1, "cols": 1, "entries": ((POLY,),)}),
]

CUSTOM_REPRS = {
    Ske: "Ske(0; 4,4,4,4)(x, x^2, x*y, x^2*y)",
    Character: "Character(chi2, n=3)",
}

# records with no equality of their own: class functions compare by values
BY_VALUES = {Character}


@pytest.mark.parametrize("cls, fields", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_record_contract(cls, fields):
    record, twin = cls(*fields.values()), cls(**fields)
    assert record.values == twin.values if cls in BY_VALUES else record == twin
    for name, value in fields.items():
        assert getattr(record, name) is value
        with pytest.raises(AttributeError):
            setattr(record, name, value)
    expected = f"{cls.__name__}({', '.join(f'{k}={v!r}' for k, v in fields.items())})"
    assert repr(record) == CUSTOM_REPRS.get(cls, expected)


@pytest.mark.parametrize("gamma, periods", [(-1, ()), (0, (1,)), (1, (4, 1, 2))])
def test_signature_refuses_a_negative_genus_or_a_period_below_two(gamma, periods):
    with pytest.raises(ValueError, match=re.escape(f"bad signature ({gamma}; {periods})")):
        Signature(gamma, periods)
    with pytest.raises(ValueError, match="bad signature"):
        Signature(gamma=gamma, periods=periods)


@pytest.mark.parametrize("n, a, b, message", [
    (2, (0, 0, 0, 0), (), "n must be >= 3"),
    (MAX_N + 1, (0, 0, 0, 0), (1,), f"n must be in 3..{MAX_N} (groups of order up to 64), got {MAX_N + 1}"),
    (10**9, (0, 0, 0, 0), (1,), f"n must be in 3..{MAX_N} (groups of order up to 64), got {10**9}"),
    (4, (0, 0, 0), (1, 1, 1), "need 4 a-values and 3 b-values for n=4"),
    (4, (0, 0, 0, 0), (1, 1), "need 4 a-values and 3 b-values for n=4"),
    (4, (0, 0, 0, -1), (1, 1, 1), "multiplicities must be non-negative"),
    (4, (0, 0, 0, 0), (1, -1, 1), "multiplicities must be non-negative"),
], ids=["n-2", "n-above-max", "n-huge", "a-short", "b-short", "a-negative", "b-negative"])
def test_multiplicity_vector_refuses_what_it_refused(n, a, b, message):
    with pytest.raises(InvalidMultiplicities) as err:
        MultiplicityVector(n, a, b)
    assert str(err.value) == message


def test_arithmetic_types_are_not_sequences():
    """As tuples, `M * 2` would repeat the fields and `len` would count them."""
    M = PolyMatrix(1, 1, ((POLY,),))
    with pytest.raises(TypeError):
        M * 2
    with pytest.raises(TypeError):
        len(CHI)
    with pytest.raises(TypeError):
        POLY < POLY


def test_validated_records_are_never_rebuilt_unchecked():
    """NamedTuple's `_replace` and `_make` skip `__new__`, so nothing in the
    package may call them (on a Signature or MultiplicityVector above all)."""
    src = Path(qact.__file__).resolve().parent
    calls = [
        f"{path.name}:{i}" for path in sorted(src.glob("*.py"))
        for i, line in enumerate(path.read_text().splitlines(), start=1)
        if "._replace(" in line or "._make(" in line
    ]
    assert calls == []


# the records whose JSON is their fields, with the keys each appends
FIELD_JSON = {
    QuotientData: (), GenusZeroRecord: (), FamilyRecord: (), MultiplicityVector: (), ExtensionReport: (),
    GenusZeroScan: ("ok",), GroupDataReport: ("ok",), TrivialityReport: ("agree",),
    AutomorphismReport: ("max_residual",),
}
FIELD_RECORDS = [(cls, fields) for cls, fields in RECORDS if cls in FIELD_JSON]


@pytest.mark.parametrize("cls, fields", FIELD_RECORDS, ids=[cls.__name__ for cls, _ in FIELD_RECORDS])
def test_a_field_record_json_is_its_fields(cls, fields):
    """Keys in field order, then the extras; a tuple or list field as a list,
    a nested record as its own `to_json`; and plain JSON, with no converter."""
    record = cls(**fields)
    out = record.to_json()
    assert list(out) == [*fields, *FIELD_JSON[cls]]
    for name, value in fields.items():
        if hasattr(value, "to_json"):
            assert out[name] == value.to_json()
        elif isinstance(value, (tuple, list)):
            assert type(out[name]) is list and out[name] == list(value)
        elif name != "mu_ratio":
            assert out[name] is value
    for name in FIELD_JSON[cls]:
        assert out[name] == getattr(record, name)
    json.dumps(out)


def test_an_override_replaces_a_field_in_place():
    """`mu_ratio` is written as a string, and keeps its place as the third key."""
    out = ExtensionReport(**dict(RECORDS)[ExtensionReport]).to_json()
    assert list(out)[2] == "mu_ratio"
    assert out["mu_ratio"] == "2"
