import json
import time
from importlib import resources

import pytest

import qact.curves
from qact.cli import build_parser, main
from qact.actions import Signature, Ske, extension_data, family_representative
from qact.groups import MAX_DIGITS, MAX_ORDER, build_named, build_quaternion
from qact.siegel import fixture_checksum, mat_mul, symplectic_form


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_groups_command(capsys):
    code, rep = run_json(capsys, "groups", "--name", "Q16")
    assert code == 0
    assert rep["results"]["order"] == 16
    assert "H2" in rep["results"]["named_subgroups"]


def test_groups_usage_error(capsys):
    assert main(["groups", "--name", "NotAGroup"]) == 2


def test_groups_dihedral_parameter(capsys):
    code, rep = run_json(capsys, "groups", "--name", "Dihedral", "--m", "8")
    assert code == 0
    assert rep["results"]["order"] == 16


@pytest.mark.parametrize("argv, message", [
    (["--name", "Q16", "--n", "5"], "Q16 takes no parameter n, got n=5"),
    (["--name", "Q16", "--m", "7"], "Q16 takes no parameter m, got m=7"),
    (["--name", "Q32", "--n", "5"], "Q32 takes no parameter n, got n=5"),
    (["--name", "QD16", "--n", "4"], "QD16 takes no parameter n, got n=4"),
    (["--name", "G1", "--n", "3", "--m", "2"], "G1 takes no parameter m, got m=2"),
    (["--name", "Dihedral", "--n", "3", "--m", "4"], "Dihedral takes no parameter n, got n=3"),
    (["--name", "Q", "--n", "4"], "unknown group name 'Q'"),
    (["--name", "G2", "--m", "3"], "G2 needs the parameter n"),
])
def test_groups_refuses_a_parameter_the_name_does_not_take(capsys, argv, message):
    """A parameter is refused, not echoed into a report of another group;
    Q<2^n> names its order, so there is no ('Q', n) form."""
    code = main(["groups", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]


LONG_Q = "Q" + "1" * 5000

# Q names whose digits `int` would refuse or read as another number
BAD_Q_NAMES = [
    (LONG_Q, f"{LONG_Q}: order exceeds supported maximum 64"),
    ("Q" + "0" * 5000 + "128", "Q" + "0" * 5000 + "128: order exceeds supported maximum 64"),
    ("Q128", "Q128: order exceeds supported maximum 64"),
    ("Q²", "unknown group name 'Q²'"),
    ("Q٨", "unknown group name 'Q٨'"),
]


@pytest.mark.parametrize("name, message", BAD_Q_NAMES, ids=["5000-digits", "zero-padded", "Q128", "superscript",
                                                            "arabic-indic"])
def test_a_q_name_with_long_or_non_ascii_digits_names_the_group(capsys, name, message):
    """Only ASCII digits spell an order, and the digit count bounds it before
    `int` reads them: no name reaches Python's own conversion message."""
    code = main(["groups", "--name", name])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("name, order", [("Q064", 64), ("Q" + "0" * 5000 + "16", 16)], ids=["Q064", "5000-zeros"])
def test_a_zero_padded_q_name_is_its_group(capsys, name, order):
    code, rep = run_json(capsys, "groups", "--name", name)
    assert code == 0
    assert rep["results"]["order"] == order


LONG_NUMBER = "1" * 5000


@pytest.mark.parametrize("argv, field", [
    (["classify", "--n", "4", "--signature", f"0:4,4,{LONG_NUMBER}"], "--signature"),
    (["decompose", "--n", "4", "--a", f"1,0,0,{LONG_NUMBER}", "--b", "1,1,1"], "--a"),
], ids=["signature", "multiplicities"])
def test_a_number_longer_than_max_digits_names_its_field(capsys, argv, field):
    """One digit check refuses what `int` would refuse with the
    interpreter's own message."""
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {field}: a number has more than {MAX_DIGITS} digits"]


@pytest.mark.parametrize("argv, message", [
    (["classify", "--n", "3", "--signature", "abc"], "--signature: 'abc' is not an integer"),
    (["classify", "--n", "3", "--signature", "0:4,x,4"], "--signature: 'x' is not an integer"),
    (["decompose", "--n", "4", "--a", "x", "--b", "1,1,1"], "--a: 'x' is not an integer"),
    (["decompose", "--n", "4", "--a", "1,0,0,0", "--b", "1,1.5,1"], "--b: '1.5' is not an integer"),
], ids=["signature-genus", "signature-period", "a", "b"])
def test_a_non_integer_names_its_field(capsys, argv, message):
    """Not `int`'s own message, which names no field."""
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]


def test_a_ske_element_with_a_long_exponent_names_it(tmp_path, capsys):
    data = family_representative(4, "F1").to_json()
    data["elliptic"][0] = f"x^{LONG_NUMBER}"
    path = tmp_path / "ske.json"
    path.write_text(json.dumps(data))
    code = main(["quotient", "--ske", str(path), "--subgroup", "Z"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.splitlines() == [f"error: the exponent of x in Q16: a number has more than {MAX_DIGITS} digits"]


@pytest.mark.parametrize("digits", [MAX_DIGITS + 1, 5000], ids=["max-plus-one", "5000"])
def test_a_ske_file_with_a_long_integer_names_the_file(tmp_path, capsys, digits):
    """An integer of more than MAX_DIGITS digits anywhere in a ske file is
    refused while the file is read, naming it; at 4,300 digits and more the
    interpreter would otherwise refuse it with its own message."""
    text = json.dumps(family_representative(4, "F1").to_json())
    assert text.count('"genus": 0') == 1
    path = tmp_path / "ske.json"
    path.write_text(text.replace('"genus": 0', f'"genus": {"1" * digits}'))
    code = main(["quotient", "--ske", str(path), "--subgroup", "Z"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {path}: a number has more than {MAX_DIGITS} digits"]


@pytest.mark.parametrize("digits", [MAX_DIGITS + 1, 5000], ids=["max-plus-one", "5000"])
@pytest.mark.parametrize("action", ["verify", "group", "locus"])
def test_a_fixture_file_with_a_long_integer_names_the_file(tmp_path, capsys, action, digits):
    raw = {**_packaged("thm10"), "extra": 0}
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(raw).replace('"extra": 0', f'"extra": {"1" * digits}'))
    code = main(["siegel", action, "--fixture", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {path}: a number has more than {MAX_DIGITS} digits"]


@pytest.mark.parametrize("name, message", [BAD_Q_NAMES[0], BAD_Q_NAMES[3]], ids=["5000-digits", "superscript"])
@pytest.mark.parametrize("n", [None, 4])
def test_a_ske_file_with_a_bad_q_name_names_the_group(tmp_path, capsys, name, message, n):
    data = family_representative(4, "F1").to_json()
    data["group"] = {"name": name} if n is None else {"name": name, "n": n}
    path = tmp_path / "ske.json"
    path.write_text(json.dumps(data))
    code = main(["quotient", "--ske", str(path), "--subgroup", "Z"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.splitlines() == [f"error: {message}"]


def test_chars_command(capsys):
    code, rep = run_json(capsys, "chars", "--n", "4")
    assert code == 0
    irr = rep["results"]["irreducibles"]
    assert len(irr) == 7
    assert [c["degree"] for c in irr] == [1, 1, 1, 1, 2, 2, 2]


def test_chars_markdown(capsys):
    code, out = run(capsys, "chars", "--n", "3", "--markdown")
    assert code == 0
    assert "| label |" in out or "label" in out


def test_chars_csv(capsys):
    code, out = run(capsys, "chars", "--n", "3", "--csv")
    assert code == 0
    assert out.splitlines()[0].startswith("label,")


def test_decompose_flags(capsys):
    code, rep = run_json(capsys, "decompose", "--n", "4", "--a", "1,0,0,0", "--b", "1,1,1")
    assert code == 0
    assert rep["results"]["factor_table"]["total_dimension"] == 7


def test_decompose_from_ske(tmp_path, capsys):
    ske = family_representative(4, "F1")
    path = tmp_path / "ske.json"
    path.write_text(json.dumps(ske.to_json()))
    code, rep = run_json(capsys, "decompose", "--ske", str(path))
    assert code == 0
    assert rep["results"]["multiplicities"]["a"] == [0, 1, 0, 0]
    assert rep["results"]["multiplicities"]["b"] == [2, 0, 2]


def test_classify_command(capsys):
    code, rep = run_json(capsys, "classify", "--n", "4", "--signature", "0:4,4,4,4")
    assert code == 0
    assert rep["results"]["orbit_count"] == 1
    assert rep["results"]["valid_skes"] == 384


def test_families_command(capsys):
    code, rep = run_json(capsys, "families", "--n", "3")
    assert code == 0
    assert rep["results"]["count"] == 3


def test_genus_zero_command(capsys):
    code, rep = run_json(capsys, "genus-zero", "--n", "3", "--max-b", "2")
    assert code == 0
    assert rep["results"]["all_witnesses_ok"]


def test_genus_zero_exhaustive_with_jobs(capsys):
    argv = ("genus-zero", "--n", "3", "--max-b", "1", "--exhaustive", "--max-periods", "4")
    code, rep = run_json(capsys, *argv, "--jobs", "2")
    assert code == 0
    scan = rep["results"]["exhaustive_scan"]
    assert scan["ok"] and scan["mismatches"] == []
    # --jobs is accepted and echoed, and changes nothing else in the report
    assert rep["inputs"]["jobs"] == 2
    default_code, default = run_json(capsys, *argv)
    assert default_code == 0 and default["inputs"].pop("jobs") == 1
    rep["inputs"].pop("jobs")
    assert rep == default


def test_report_echoes_inputs_and_fixture_checksums(capsys):
    code, rep = run_json(capsys, "siegel", "verify", "--fixture", "thm10")
    assert code == 0
    assert rep["inputs"]["fixture"] == "thm10"
    assert rep["schema"] == 1
    assert "thm10" in rep["fixtures"]


def test_quotient_command(tmp_path, capsys):
    ske = family_representative(4, "F1")
    path = tmp_path / "ske.json"
    path.write_text(json.dumps(ske.to_json()))
    code, rep = run_json(capsys, "quotient", "--ske", str(path), "--subgroup", "Z")
    assert code == 0
    assert rep["results"]["quotient"]["genus"] == 1
    assert rep["results"]["quotient"]["periods"] == [2] * 16


def test_extend_command(tmp_path, capsys):
    ske = family_representative(4, "F0")
    path = tmp_path / "ske.json"
    path.write_text(json.dumps(ske.to_json()))
    code, rep = run_json(capsys, "extend", "--ske", str(path), "--super", "G1")
    assert code == 0
    assert rep["results"]["report"]["ok"]


@pytest.mark.parametrize("name, m", [("Dihedral", 4), ("QD16", None)])
def test_extend_on_a_ske_of_another_group_exits_2(tmp_path, capsys, name, m):
    G = build_named(name, m=m)
    ske = Ske(G, Signature(0, (2, 2)), (), (G.generators[1], G.generators[1]))
    path = tmp_path / "ske.json"
    path.write_text(json.dumps(ske.to_json()))
    code = main(["extend", "--ske", str(path), "--super", "G1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.splitlines() == [f"error: extend --ske needs a Q(2^n) ske, not one of {G.name}"]


def test_extend_on_a_non_generating_ske_is_inequivalent(tmp_path, capsys):
    """A theta that does not generate Q16 has no valid ske in its orbit: the
    report says so and the run exits 1."""
    G = build_quaternion(4)
    ske = Ske(G, Signature(0, (8, 8, 4, 4)), (), tuple(map(G.element, ["x", "x^3", "x^2", "x^2"])))
    path = tmp_path / "ske.json"
    path.write_text(json.dumps(ske.to_json()))
    code, rep = run_json(capsys, "extend", "--ske", str(path), "--super", "G1")
    assert code == 1
    assert rep["results"]["family"] == "F2"
    assert rep["results"]["report"] == {
        "equivalent_to_theta": False,
        "index": 2,
        "mu_ratio": "2",
        "mu_ratio_ok": True,
        "ok": False,
        "restriction": ["x^7", "x", "x^3*y", "x^7*y"],
        "restriction_valid": True,
        "subgroup_isomorphic": True,
    }


def test_extend_by_family_flag(capsys):
    code, rep = run_json(capsys, "extend", "--n", "5", "--family", "F2", "--super", "G2")
    assert code == 0
    assert rep["results"]["report"]["ok"]


@pytest.mark.parametrize("sup", ["G1", "G2"])
def test_extend_of_f2_at_n_3_exits_2(capsys, sup):
    """The census has F2 only for n >= 4: at n = 3 its signature is F1's."""
    code = main(["extend", "--n", "3", "--family", "F2", "--super", sup])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: no family F2 at n=3; the families are F0, F1, C2"]


def test_siegel_verify_commands(capsys):
    code, rep = run_json(capsys, "siegel", "verify", "--fixture", "thm10")
    assert code == 0
    assert rep["results"]["fixed_family"]["ok"]
    assert not rep["results"]["fixed_family_variant"]["ok"]

    code, rep = run_json(capsys, "siegel", "verify", "--fixture", "thm11")
    assert code == 0

    code, rep = run_json(capsys, "siegel", "verify", "--fixture", "prop13")
    assert code == 0
    assert rep["results"]["period_matrix_residual_below_tol"]


def test_siegel_verify_tol_bounds_the_residual_only(capsys):
    """A loose --tol must not reach the Siegel-membership test of Z0, whose
    least squared Cholesky pivot is about 0.54."""
    code, rep = run_json(capsys, "siegel", "verify", "--fixture", "prop13", "--tol", "1")
    assert code == 0
    assert rep["results"]["period_matrix_residual_below_tol"] is True
    assert rep["results"]["tolerance"] == 1.0


def test_siegel_verify_flags_nonzero_residual_as_erratum(tmp_path, capsys):
    """A family that is not exactly fixed must fail `verify` with a
    diagnostic (exit 1), not crash: exercised on a perturbed fixture."""
    raw = _packaged("thm10")
    entry = raw["data"]["family"]["entries"][0][0]
    entry[0]["re"] = "3/2"  # perturb one constant term
    raw["sha256"] = fixture_checksum(raw["data"])
    path = tmp_path / "perturbed.json"
    path.write_text(json.dumps(raw))
    code, rep = run_json(capsys, "siegel", "verify", "--fixture", str(path))
    assert code == 1
    assert not rep["results"]["fixed_family"]["ok"]
    assert "erratum" in rep["results"]


def test_siegel_group_flags_prop13_erratum(capsys):
    """The printed prop13 generators fail the literal u,v relations, so the
    group check exits 1 with the erratum visible in the report."""
    code, rep = run_json(capsys, "siegel", "group", "--fixture", "prop13")
    assert code == 1
    gd = rep["results"]["group_data"]
    assert gd["order"] == 32
    assert gd["relations_hold"] == [True, False, False]
    assert gd["isomorphic_to_target"]
    assert gd["presentation_witness"] == ["A", "A*B"]


def test_siegel_group_thm10_ok(capsys):
    code, rep = run_json(capsys, "siegel", "group", "--fixture", "thm10")
    assert code == 0
    assert rep["results"]["group_data"]["ok"]


def test_siegel_locus_command(capsys):
    code, rep = run_json(capsys, "siegel", "locus", "--fixture", "thm10", "--tol", "1e-7")
    assert code == 0
    assert rep["results"]["locus"]["dimension"] == 1


def test_curve_command(capsys):
    code, rep = run_json(capsys, "curve", "--n", "3", "--t", "-1", "--verify", "--samples", "50")
    assert code == 0
    assert rep["results"]["residual_below_tol"]
    assert rep["results"]["branch_count"] == 10
    assert rep["results"]["point_map_group_order"] == 8


def test_reproduce_matches_golden(capsys):
    code, rep = run_json(capsys, "reproduce", "--n", "3")
    assert code == 0
    assert rep["results"]["matches_expected"]


def test_reports_byte_identical(capsys):
    _, out1 = run(capsys, "families", "--n", "3", "--seed", "7")
    _, out2 = run(capsys, "families", "--n", "3", "--seed", "7")
    assert out1 == out2
    _, loc1 = run(capsys, "siegel", "locus", "--fixture", "prop13", "--seed", "3")
    _, loc2 = run(capsys, "siegel", "locus", "--fixture", "prop13", "--seed", "3")
    assert loc1 == loc2


def test_out_flag(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = main(["chars", "--n", "3", "--out", str(path)])
    assert code == 0
    data = json.loads(path.read_text())
    assert data["command"] == "chars"


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["chars", "--n", "3", "--bogus"])
    assert err.value.code == 2


def test_missing_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


def test_timings_flag_adds_runtime(capsys):
    code, rep = run_json(capsys, "families", "--n", "3", "--timings")
    assert code == 0
    assert "runtime_s" in rep


def test_ske_file_without_signature_exits_2(tmp_path, capsys):
    data = family_representative(4, "F1").to_json()
    del data["signature"]
    path = tmp_path / "ske.json"
    path.write_text(json.dumps(data))
    code = main(["quotient", "--ske", str(path), "--subgroup", "Z"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.splitlines() == ["error: ske JSON has no 'signature' key"]


def test_decompose_on_a_printed_supergroup_ske_exits_2(tmp_path, capsys):
    """The theta_prime ske of `qact extend` reads back; decomposition is for Q(2^n)."""
    _, theta_prime, _ = extension_data(4, "F2", "G1")
    path = tmp_path / "ske.json"
    path.write_text(json.dumps(theta_prime.to_json()))
    code = main(["decompose", "--ske", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.splitlines() == ["error: multiplicities are defined for Q(2^n) actions"]


@pytest.mark.parametrize("n, message", [
    ("2", "error: n must be >= 3"),
    ("7", "error: n must be in 3..6 (groups of order up to 64), got 7"),
    ("100000", "error: n must be in 3..6 (groups of order up to 64), got 100000"),
])
def test_decompose_refuses_n_outside_the_supported_range(capsys, n, message):
    """n is bounded before the 2^(n-2) b-values are counted, so a huge n
    fails at once with one error line."""
    code = main(["decompose", "--n", n, "--a", "1,1,1,1", "--b", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [message]


HUGE_N = str(10**9)


@pytest.mark.parametrize("argv, message", [
    (["chars", "--n", HUGE_N], f"order 2^{HUGE_N} exceeds supported maximum 64"),
    (["classify", "--n", HUGE_N, "--signature", "0:4,4,4,4"], f"order 2^{HUGE_N} exceeds supported maximum 64"),
    (["genus-zero", "--n", HUGE_N], f"order 2^{HUGE_N} exceeds supported maximum 64"),
    (["curve", "--n", HUGE_N], "n out of supported range"),
    (["groups", "--name", "G1", "--n", HUGE_N], f"order 2^{10**9 + 1} exceeds supported maximum 64"),
    (["extend", "--n", HUGE_N, "--family", "F0", "--super", "G1"],
     f"order 2^{HUGE_N} exceeds supported maximum 64"),
    (["extend", "--n", "2", "--family", "F0", "--super", "G1"], "quaternion group needs n >= 3, got 2"),
    (["chars", "--n", "7"], "order 2^7 exceeds supported maximum 64"),
    (["curve", "--n", "8"], "n out of supported range"),
    (["groups", "--name", "G2", "--n", "6"], "order 2^7 exceeds supported maximum 64"),
], ids=["chars", "classify", "genus-zero", "curve", "groups-G1", "extend", "extend-n-2", "chars-n-7", "curve-n-8",
        "groups-G2-n-6"])
def test_n_outside_the_supported_range_is_refused_at_once(capsys, argv, message):
    """Range checks compare exponents, and `extend` checks n before it builds
    the family table, so n = 10^9 fails with one error line before any 2^n
    is formed."""
    t0 = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - t0
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]
    assert elapsed < 0.5


def test_a_period_matrix_with_a_singular_denominator_fails_verify(tmp_path, capsys):
    """J = symplectic_form(2) at about 1.03e-7 i I, a point of H_g at which
    C Z + D = -Z has determinant about 1e-14: the residual I + Z^2 is about 1,
    so verify reports the erratum (exit 1) with nothing inverted."""
    tiny, zero = ["0", "0", "1/400000", "0"], ["0", "0", "0", "0"]  # i * lambda / 400000, and 0
    data = {"generators": [[list(row) for row in symplectic_form(2)]],
            "period_matrix": [[tiny, zero], [zero, tiny]]}
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(_signed_fixture(data)))
    code = main(["siegel", "verify", "--fixture", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    results = json.loads(captured.out)["results"]
    assert results["erratum"] == "printed period matrix is not numerically fixed"
    assert results["period_matrix_residual_below_tol"] is False


def test_ske_file_not_an_object_exits_2(tmp_path, capsys):
    path = tmp_path / "ske.json"
    path.write_text("[1, 2]")
    code = main(["quotient", "--ske", str(path), "--subgroup", "Z"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.splitlines() == ["error: ske JSON must be an object, not an array"]


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("signature", 3, "'signature' must be an object, not an integer"),
        ("signature", {"genus": 0, "periods": 4}, "'signature.periods' must be an array, not an integer"),
        ("group", "Q16", "'group' must be an object, not a string"),
        ("elliptic", [1, 2, 3, 4], "'elliptic[0]' must be a string, not an integer"),
        ("signature", {"genus": "0", "periods": [4, 4, 4, 4]}, "'signature.genus' must be an integer, not a string"),
        ("group", {"name": 16}, "'group.name' must be a string, not an integer"),
        ("group", {"name": "G1", "n": "4"}, "'group.n' must be an integer, not a string"),
    ],
)
def test_ske_file_with_wrong_json_type_exits_2(tmp_path, capsys, key, value, message):
    data = family_representative(4, "F1").to_json()
    data[key] = value
    path = tmp_path / "ske.json"
    path.write_text(json.dumps(data))
    code = main(["quotient", "--ske", str(path), "--subgroup", "Z"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.splitlines() == [f"error: ske JSON key {message}"]


def test_dihedral_with_m_below_2_exits_2(capsys):
    code = main(["groups", "--name", "Dihedral", "--m", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.splitlines() == ["error: dihedral parameter 1 out of range 2..32"]


def test_exceeded_budget_exits_2(capsys):
    code = main(["classify", "--n", "4", "--signature", "0:4,4,4,4", "--budget", "10"])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error:") and "budget" in err


def test_genus_one_budget_counts_the_pairs(capsys):
    """Over a genus-one quotient the candidates are the |G|^2 pairs (a, b)."""
    code = main(["classify", "--n", "4", "--signature", "1:4", "--budget", "10"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "error: 256 candidates exceed budget 10\n"


def test_budget_refuses_before_listing_the_arrangements(capsys):
    """Thirteen periods have 13! orderings; the third distinct one in lex
    order is the first over budget, and the walk stops there."""
    code = main(["classify", "--n", "4", "--signature", "0:" + ",".join(["2"] * 11 + ["4", "4"]),
                 "--budget", "10"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "error: 100 candidates exceed budget 10\n"


def test_the_budget_refuses_a_signature_the_frattini_test_rules_out(capsys):
    """No element of Q8 has order 8, so the signature carries no ske and is
    not walked; its first arrangement's 6^9 candidates still exceed the
    budget, as they did when every signature was walked."""
    code = main(["classify", "--n", "3", "--signature", "0:4,4,4,4,4,4,4,4,4,8"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "error: 10077696 candidates exceed budget 5000000\n"


@pytest.mark.parametrize("signature", ["0:", "0:2,2", "1:"])
def test_classify_with_mu_at_most_0_exits_2(capsys, signature):
    """2g - 2 = |G| * mu <= 0 leaves no surface of genus >= 2 to classify."""
    code = main(["classify", "--n", "4", "--signature", signature])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:") and "mu <= 0" in err


def _packaged(name):
    """The packaged fixture file as raw JSON."""
    return json.loads(resources.files("qact").joinpath(f"fixtures/{name}.json").read_text())


def _signed_fixture(data):
    return {"name": "x", "sha256": fixture_checksum(data), "data": data}


_MALFORMED_FIXTURES = {
    "array": ([1, 2], "not an object with a name and a data object"),
    "no-data": ({"name": "x", "sha256": "0"}, "not an object with a name and a data object"),
    "no-generators": (_signed_fixture({"g": 1}), "needs data.generators"),
    "ragged-generator": (_signed_fixture({"generators": [[[1, 0], [0]]]}), "needs data.generators"),
    "null-entry": (_signed_fixture({"generators": [[[1, 0], [0, None]]]}), "needs data.generators"),
}


def _broken(action, fixture, field, malform, case):
    """A case for a packaged fixture with one optional field malformed, re-signed."""
    raw = _packaged(fixture)
    malform(raw["data"])
    raw["sha256"] = fixture_checksum(raw["data"])
    return pytest.param(action, raw, f"fixture {fixture} has a malformed data.{field}", id=f"{action}-{case}")


@pytest.mark.parametrize("action, raw, message", [
    *[pytest.param(action, raw, message, id=f"{action}-{case}")
      for case, (raw, message) in _MALFORMED_FIXTURES.items()
      for action in ("group", "verify", "locus")],
    # [[1, 1], [0, 1]] generates an infinite group
    pytest.param("group", _signed_fixture({"generators": [[[1, 1], [0, 1]]]}),
                 "matrix group closure exceeded budget 64", id="group-over-budget"),
    _broken("group", "thm10", "generator_names", lambda d: d["generator_names"].pop(), "names-short"),
    _broken("group", "thm10", "generator_names", lambda d: d.update(generator_names=7), "names-not-a-list"),
    _broken("group", "prop13", "relations", lambda d: d.update(relations=[[[5, 1]]]), "relation-slot-5"),
    _broken("group", "thm10", "relations", lambda d: d.update(relations=[[7]]), "relation-not-pairs"),
    _broken("group", "thm10", "target_group", lambda d: d.update(target_group=5), "target-int"),
    _broken("group", "thm10", "target_group", lambda d: d.update(target_group=""), "target-empty"),
    _broken("group", "thm10", "target_group", lambda d: d.update(target_group=" "), "target-blank"),
    _broken("verify", "thm10", "family", lambda d: d["family"].pop("entries"), "family-no-entries"),
    _broken("verify", "thm10", "family", lambda d: d["family"].update(params=2), "family-int-params"),
    _broken("verify", "thm10", "family_variant", lambda d: d["family_variant"].update(row=99), "variant-row-99"),
    _broken("verify", "thm10", "family_variant", lambda d: d["family_variant"].update(row=-1, col=-1),
            "variant-negative-index"),
    _broken("verify", "thm10", "family_variant", lambda d: d["family_variant"].update(row=True), "variant-bool-row"),
    _broken("group", "prop13", "expected_order", lambda d: d.update(expected_order="32"), "order-str"),
    _broken("locus", "prop13", "expected_dimension", lambda d: d.update(expected_dimension="0"), "dimension-str"),
    # inexact numbers never enter the exact checks: only an int or a string
    # is a rational, only an int a matrix entry, and a row holds g quadruples
    _broken("verify", "thm10", "family", lambda d: d["family"]["entries"][0][0][0].update(re=1.0),
            "family-float-coefficient"),
    _broken("verify", "thm10", "family", lambda d: d["family"]["entries"][0][1][0].update(re=True),
            "family-bool-coefficient"),
    _broken("verify", "prop13", "period_matrix",
            lambda d: d["period_matrix"][0][0].__setitem__(2, 23.0), "period-matrix-float-entry"),
    _broken("verify", "prop13", "period_matrix",
            lambda d: d["period_matrix"][0].append(["0", "0", "0", "0"]), "period-matrix-fifth-quadruple"),
    # exact rationals past the largest float: one overflows float(), the
    # other two sum to inf in p + q*sqrt2
    *[_broken(action, "prop13", "period_matrix", lambda d: d["period_matrix"][1][2].__setitem__(0, "1e400"),
              "period-matrix-overflow") for action in ("verify", "group", "locus")],
    _broken("verify", "prop13", "period_matrix",
            lambda d: d["period_matrix"][0][0].__setitem__(slice(0, 2), ["1e308", "1e308"]),
            "period-matrix-infinite-entry"),
    pytest.param("group",
                 _signed_fixture({"generators": [[[False, True], [True, False]]], "expected_order": 2}),
                 "needs data.generators", id="group-bool-generators"),
])
def test_malformed_fixture_exits_2(tmp_path, capsys, action, raw, message):
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(raw))
    code = main(["siegel", action, "--fixture", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error:")
    assert message in captured.err


def _rotations(g, minus=()):
    """One commuting symplectic 2g x 2g generator per symplectic pair
    (e_i, f_i): it acts on that pair as [[0, -1], [1, 0]], of order 4, or as
    -I, of order 2, for i in `minus`, and as the identity elsewhere."""
    gens = []
    for i in range(g):
        M = [[int(r == c) for c in range(2 * g)] for r in range(2 * g)]
        if i in minus:
            M[i][i] = M[g + i][g + i] = -1
        else:
            M[i][i] = M[g + i][g + i] = 0
            M[i][g + i], M[g + i][i] = -1, 1
        gens.append(M)
    return gens


def _cycles(*lengths):
    """One permutation matrix that cycles each block of `lengths` points."""
    n = sum(lengths)
    M = [[0] * n for _ in range(n)]
    start = 0
    for k in lengths:
        for i in range(k):
            M[start + (i + 1) % k][start + i] = 1
        start += k
    return [M]


def _blocks_of_order_6_and_3():
    """Four 2 x 2 blocks of order 6 and one of order 3: C6^4 x C3, 3,888
    elements."""
    gens = []
    for b, blk in enumerate([[[1, -1], [1, 0]]] * 4 + [[[0, -1], [1, -1]]]):
        M = [[int(r == c) for c in range(10)] for r in range(10)]
        for r in range(2):
            M[2 * b + r][2 * b:2 * b + 2] = blk[r]
        gens.append(M)
    return gens


@pytest.mark.parametrize("gens, order", [
    (_rotations(3), 64),
    (_cycles(5, 13), 65),
    (_rotations(4, minus=(3,)), 128),
    (_blocks_of_order_6_and_3(), 3888),
], ids=["C4^3", "C65", "C4^3xC2", "C6^4xC3"])
def test_matrix_group_closure_stops_at_max_order(tmp_path, capsys, monkeypatch, gens, order):
    """A matrix group of MAX_ORDER = 64 elements is accepted; the closure of
    a larger one stops at its 65th element, before any Cayley table is
    built, even one of order 65 (which a closure admitting one more element
    would hand to FiniteGroup) or of 3,888.  The closure multiplies at most
    MAX_ORDER elements by each generator, through the generator's
    `_right_multiplier`, and the symplectic check forms two products per
    generator by `mat_mul`; both are counted."""
    products = []
    right_multiplier = qact.siegel._right_multiplier

    def counting_mat_mul(X, Y):
        products.append(None)
        return mat_mul(X, Y)

    def counting_right_multiplier(B):
        times = right_multiplier(B)

        def counted(M):
            products.append(None)
            return times(M)

        return counted

    monkeypatch.setattr(qact.siegel, "mat_mul", counting_mat_mul)
    monkeypatch.setattr(qact.siegel, "_right_multiplier", counting_right_multiplier)
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(_signed_fixture({"generators": gens, "expected_order": order})))
    code = main(["siegel", "group", "--fixture", str(path)])
    out, err = capsys.readouterr()
    assert len(products) <= (MAX_ORDER + 2) * len(gens)
    if order <= 64:
        assert (code, err) == (0, "")
        assert json.loads(out)["results"]["group_data"]["order"] == order
    else:
        assert (code, out) == (2, "")
        assert err == "error: matrix group closure exceeded budget 64\n"


@pytest.mark.parametrize("action, missing", [
    ("verify", "data.family or data.period_matrix"),
    ("group", "data.expected_order"),
    ("locus", "data.expected_dimension"),
], ids=["verify", "group", "locus"])
def test_fixture_without_what_the_action_checks_exits_2(tmp_path, capsys, action, missing):
    # generators alone: a rotation of order 4, so the closure itself succeeds
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(_signed_fixture({"generators": [[[0, -1], [1, 0]]]})))
    code = main(["siegel", action, "--fixture", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: fixture x has no {missing} to check"]


@pytest.mark.parametrize("argv, flag", [
    (["curve", "--n", "3", "--t", "2", "--verify", "--samples", "0"], "--samples"),
    (["curve", "--n", "3", "--t", "2", "--verify", "--samples", "-4"], "--samples"),
    (["genus-zero", "--n", "3", "--max-b", "-1"], "--max-b"),
    (["genus-zero", "--n", "3", "--exhaustive", "--max-periods", "2"], "--max-periods"),
    (["genus-zero", "--n", "3", "--exhaustive", "--max-periods", "-1"], "--max-periods"),
    (["siegel", "locus", "--fixture", "thm10", "--starts", "-3"], "--starts"),
    (["genus-zero", "--n", "6", "--max-b", "501"], "--max-b"),
    (["genus-zero", "--n", "6", "--exhaustive", "--max-periods", "13"], "--max-periods"),
    (["classify", "--n", "4", "--signature", "0:4,4,4,4", "--budget", "0"], "--budget"),
    (["classify", "--n", "4", "--signature", "0:4,4,4,4", "--budget", "-1"], "--budget"),
])
def test_counts_that_would_check_nothing_exit_2(capsys, argv, flag):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1 and flag in errors[0]


@pytest.mark.parametrize("argv", [
    ["decompose", "--n", "4"],
    ["extend", "--super", "G1"],
    ["extend", "--n", "4", "--super", "G1"],
    ["curve", "--n", "3", "--verify"],
])
def test_missing_inputs_exit_2_with_one_error_line(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_genus_zero_with_max_b_0_checks_one_record(capsys):
    code, rep = run_json(capsys, "genus-zero", "--n", "3", "--max-b", "0")
    assert code == 0
    assert [r["b"] for r in rep["results"]["records"]] == [0]


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_exits_2(capsys, jobs):
    with pytest.raises(SystemExit) as err:
        main(["genus-zero", "--n", "3", "--jobs", jobs])
    assert err.value.code == 2
    assert "--jobs" in capsys.readouterr().err



def test_ske_path_that_is_a_directory_exits_2(tmp_path, capsys):
    code = main(["quotient", "--ske", str(tmp_path), "--subgroup", "Z"])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error:") and "Is a directory" in err


def test_out_path_in_a_missing_directory_exits_2(tmp_path, capsys):
    code = main(["groups", "--name", "Q16", "--out", str(tmp_path / "missing" / "x.json")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error:")
    assert "No such file or directory" in captured.err


@pytest.mark.parametrize("t", ["nan", "1e400", "-inf", "inf+1i", "1-nani"])
@pytest.mark.parametrize("verify", [False, True])
def test_curve_with_a_non_finite_t_exits_2(capsys, t, verify):
    argv = ["curve", "--n", "3", f"--t={t}"] + (["--verify", "--samples", "5"] if verify else [])
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: t must be finite")


@pytest.mark.parametrize("t, code, order", [
    ("1e-6", 0, 8),   # near the degenerate t = 0 the orbit points stay apart
    ("1e6", 0, 8),
])
def test_curve_exit_code_reads_the_point_map_group_order(capsys, t, code, order):
    got, rep = run_json(capsys, "curve", "--n", "3", "--t", t, "--verify", "--samples", "20")
    assert got == code
    assert rep["results"]["point_map_group_order"] == order


def test_curve_exits_1_when_the_point_maps_miss_the_group_order(capsys, monkeypatch):
    monkeypatch.setattr(qact.curves, "point_map_group_order", lambda model: 6)
    got, rep = run_json(capsys, "curve", "--n", "3", "--t", "2", "--verify", "--samples", "20")
    assert got == 1
    assert rep["results"]["point_map_group_order"] == 6


def test_curve_whose_numerics_overflow_exits_2(capsys):
    code = main(["curve", "--n", "3", "--t", "1e150", "--verify", "--samples", "20"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: t = 1e150 overflows")


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-9", "tiny"])
def test_siegel_tol_must_be_finite_and_positive(capsys, tol):
    with pytest.raises(SystemExit) as err:
        main(["siegel", "verify", "--fixture", "prop13", "--tol", tol])
    assert err.value.code == 2
    assert "--tol" in capsys.readouterr().err


def _fresh_env() -> dict:
    """The environment of a fresh interpreter that imports this qact."""
    import os
    from pathlib import Path

    import qact

    src = str(Path(qact.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _run_fresh(tmp_path, commands, watched):
    """Run `commands` in one fresh interpreter; their exit codes and which of
    the modules `watched` it loaded."""
    import subprocess
    import sys

    outs = [tmp_path / f"{'-'.join(cmd[:2])}.json" for cmd in commands]
    argvs = [cmd + ["--out", str(out)] for cmd, out in zip(commands, outs)]
    script = (
        "import json, sys\n"
        "from qact.cli import main\n"
        "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "watched = json.loads(sys.argv[2])\n"
        "print(json.dumps({'codes': codes, 'loaded': [m for m in watched if m in sys.modules]}))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(argvs), json.dumps(watched)],
        capture_output=True, text=True, env=_fresh_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert all(json.loads(out.read_text())["results"] for out in outs)
    return json.loads(proc.stdout)


def test_census_commands_load_no_numpy(tmp_path):
    """The census, scan, classify and character commands import neither
    numpy nor the numeric layers: one fresh interpreter runs them all and
    reports which of those modules it loaded.  `reproduce --n 3|4` checks
    the curve models, so the census run here is `reproduce --n 5`."""
    commands = [
        ["reproduce", "--n", "5"],
        ["families", "--n", "4"],
        ["genus-zero", "--n", "4", "--exhaustive", "--max-periods", "4"],
        ["classify", "--n", "4", "--signature", "0:4,4,4,4"],
        ["chars", "--n", "4"],
    ]
    got = _run_fresh(tmp_path, commands, ["numpy", "qact.siegel", "qact.curves"])
    assert got == {"codes": [0] * len(commands), "loaded": []}


def test_census_commands_load_no_cyclotomics(tmp_path):
    """Only the character values need `qact.cyclo`: the census, scan and
    classify commands never load it, and `chars` does."""
    commands = [
        ["reproduce", "--n", "5"],
        ["families", "--n", "4"],
        ["genus-zero", "--n", "4", "--exhaustive", "--max-periods", "4"],
        ["classify", "--n", "4", "--signature", "0:4,4,4,4"],
    ]
    got = _run_fresh(tmp_path, commands, ["qact.cyclo"])
    assert got == {"codes": [0] * len(commands), "loaded": []}
    got = _run_fresh(tmp_path, [["chars", "--n", "4"]], ["qact.cyclo"])
    assert got == {"codes": [0], "loaded": ["qact.cyclo"]}


def test_fixture_commands_load_no_numpy(tmp_path):
    """Only Gauss-Newton (`siegel locus`) needs numpy: the fixed-locus
    dimension in `reproduce --n 3` comes from the analytic character, and
    the fixed-point and group checks are plain Python."""
    commands = [
        ["reproduce", "--n", "3"],
        ["reproduce", "--n", "4"],
        ["siegel", "verify", "--fixture", "prop13"],
        ["siegel", "group", "--fixture", "thm11"],
    ]
    got = _run_fresh(tmp_path, commands, ["numpy"])
    assert got == {"codes": [0] * len(commands), "loaded": []}


def _loaded_beyond_bare(tmp_path, commands, watched) -> list[str]:
    """The modules of `watched` that one fresh interpreter running `commands`
    loads and a bare one under the same environment does not: what a bare
    interpreter loads (a site hook, say) is not held against qact."""
    import subprocess
    import sys

    script = "import json, sys; print(json.dumps([m for m in sys.argv[1:] if m in sys.modules]))"
    bare = subprocess.run(
        [sys.executable, "-c", script, *watched], capture_output=True, text=True, env=_fresh_env(), check=True,
    )
    got = _run_fresh(tmp_path, commands, watched)
    assert got["codes"] == [0] * len(commands)
    return [m for m in got["loaded"] if m not in json.loads(bare.stdout)]


def test_no_run_imports_dataclasses(tmp_path):
    """Records are NamedTuples and the arithmetic types `__slots__` classes,
    so no run imports `dataclasses`, which brings `inspect`, `ast` and `dis`
    (about 10 ms), or builds classes with `exec`.  `reproduce --n 3` loads
    every layer."""
    commands = [["reproduce", "--n", "3"], ["genus-zero", "--n", "6", "--exhaustive", "--max-periods", "5"]]
    assert _loaded_beyond_bare(tmp_path, commands, ["dataclasses", "inspect"]) == []


def test_the_scan_imports_no_fractions(tmp_path):
    """The scan, the census and the action commands build no Fraction, so
    they load neither `fractions` nor the `decimal` that `fractions` brings
    (about 5 ms): mu is compared in integers, an integral mu ratio is an
    int, and the report needs no fallback JSON converter.  `reproduce` at
    n = 3 and 4 checks curve models in `cyclo`, whose coefficients are
    Fractions."""
    commands = [
        ["genus-zero", "--n", "6", "--exhaustive", "--max-periods", "5"],
        ["reproduce", "--n", "5"],
        ["families", "--n", "5"],
        ["classify", "--n", "4", "--signature", "0:4,4,8,8"],
        ["extend", "--n", "4", "--family", "F2", "--super", "G2"],
    ]
    assert _loaded_beyond_bare(tmp_path, commands, ["fractions", "decimal"]) == []


LAYER_MODULES = [f"qact.{m}" for m in (
    "groups", "cyclo", "reptheory", "decomp", "actions", "siegel", "curves", "reproduce",
)] + ["numpy"]


@pytest.mark.parametrize("command, loaded", [
    (["groups", "--name", "Q16"], ["qact.groups"]),
    (["genus-zero", "--n", "6", "--exhaustive", "--max-periods", "5"], ["qact.groups", "qact.actions"]),
    (["classify", "--n", "4", "--signature", "0:4,4,4,4"], ["qact.groups", "qact.actions"]),
    (["extend", "--n", "4", "--family", "F1", "--super", "G1"], ["qact.groups", "qact.actions"]),
    (["chars", "--n", "4"], ["qact.groups", "qact.cyclo", "qact.reptheory"]),
    (["decompose", "--n", "4", "--a", "1,0,0,0", "--b", "1,1,1"],
     ["qact.groups", "qact.reptheory", "qact.decomp"]),
    (["siegel", "group", "--fixture", "thm11"], ["qact.groups", "qact.cyclo", "qact.siegel"]),
], ids=["groups", "genus-zero", "classify", "extend", "chars", "decompose", "siegel-group"])
def test_each_subcommand_loads_only_its_layers(tmp_path, command, loaded):
    """`qact.cli` imports only `groups` at the top; each handler imports the
    layers it runs, so the scan loads no decomposition, character,
    cyclotomic or fixture code, and `siegel` no action code."""
    got = _run_fresh(tmp_path, [command], LAYER_MODULES)
    assert got == {"codes": [0], "loaded": loaded}


def test_the_parser_is_built_once():
    assert build_parser() is build_parser()
