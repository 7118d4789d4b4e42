"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Criterion 10 is split.  10a checks the matrix data.  10b evaluates the
literal relations u^16 = v^2 = 1 and v u v = u^7 under u -> A, v -> B on the
printed integer matrices and asserts the erratum verdict they give: only
u^16 = 1 holds, because the printed B has order four (B^2 = -I = A^8) and
B A B^-1 = A^7.  This is one of the transcription findings that the README
says are flagged in reports rather than silently corrected.  10c asserts the
corrected correspondence (u, v) -> (A, A*B) realizing the quasi-dihedral
presentation.
"""

import functools
import random
import time

import numpy as np

from qact.groups import build_named, build_quaternion, named_subgroups
from qact.reptheory import fixed_dims, irreducible_characters, rational_irreducibles
from qact.decomp import (
    dim_fixed_subvariety,
    factor_dimensions,
    is_trivial_decomposition,
)
from qact.actions import (
    Signature,
    check_extension,
    extension_data,
    family_representative,
    genus_from_signature,
    genus_zero_exhaustive_scan,
    one_dimensional_families,
    quotient_data,
    sigma_b,
    validate_ske,
    witness_eta,
)
from qact import siegel as sg
from qact import curves as cv

from oracles import (
    fixed_dim_by_averaging,
    from_orbit_values,
    inner_product,
    multiplicities_from_quotient_genera,
    permutation_character,
    random_valid,
)
from paper_tables import (
    expected_multiplicities,
    expected_prym_dims,
    expected_quotients,
    family_genus,
    family_labels,
)


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.monotonic()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                print(f"\nACCEPTANCE {num:>3} [{desc}]: FAIL ({exc})")
                raise
            dt = time.monotonic() - t0
            print(f"\nACCEPTANCE {num:>3} [{desc}]: PASS ({dt:.1f}s)")
            return out

        return wrapper

    return deco


def _whole(G):
    return frozenset(range(G.order))


@criterion("1", "character theory, n = 3..6")
def test_acceptance_01_character_theory():
    t0 = time.monotonic()
    for n in (3, 4, 5, 6):
        G = build_quaternion(n)
        chars = irreducible_characters(n)
        assert len(chars) == 2 ** (n - 2) + 3
        assert sum(int(c.degree) ** 2 for c in chars) == 2**n
        for i, a in enumerate(chars):
            for j, b in enumerate(chars):
                assert inner_product(a, b) == (1 if i == j else 0)
        # the eight induced-character decomposition identities
        subs = named_subgroups(G)
        bylabel = {c.label: c for c in chars}
        rats = {r.label: r.character for r in rational_irreducibles(n)}
        rho = {lbl: permutation_character(G, K) for lbl, K in subs.items()}
        rho["G"] = permutation_character(G, _whole(G))
        rho["1"] = permutation_character(G, frozenset({0}))
        for j in range(2, n):
            expect = bylabel["chi1"] + bylabel["chi3"]
            for l in range(max(j, 2), n - 1):
                expect = expect + rats[f"W{l}"]
            assert rho[f"H{j}"].values == expect.values
        for j in range(2, n - 1):
            assert rho[f"H{j}"].values == (rho[f"H{j + 1}"] + rats[f"W{j}"]).values
            assert rho[f"Ht{j}"].values == (rho[f"Ht{j + 1}"] + rats[f"W{j}"]).values
            assert rho[f"K{j}"].values == (rho[f"K{j + 1}"] + 2 * rats[f"W{j}"]).values
        assert rho["1"].values == (rho["Z"] + rats["W1"]).values
        for i, chi in ((1, "chi2"), (2, "chi3"), (3, "chi4")):
            assert rho[f"N{i}"].values == (rho["G"] + bylabel[chi]).values
    assert time.monotonic() - t0 < 5.0


@criterion("2", "dimension table vs inner-product oracle")
def test_acceptance_02_dimension_table():
    rng = random.Random(20240)
    for n in (3, 4, 5):
        G = build_quaternion(n)
        subs = named_subgroups(G)
        whole, triv = _whole(G), frozenset({0})
        for _ in range(200):
            mv = random_valid(n, rng)
            table = factor_dimensions(mv)
            dims = {lbl: dim_fixed_subvariety(mv, K) for lbl, K in subs.items()}
            dims["G"] = dim_fixed_subvariety(mv, whole)
            dims["1"] = dim_fixed_subvariety(mv, triv)
            assert table.dim_AG == dims["G"]
            for i in (1, 2, 3):
                assert table.dim_prym_N[i - 1] == dims[f"N{i}"] - dims["G"]
            assert table.dim_prym_A_over_AZ == dims["1"] - dims["Z"]
            for j, d in table.dim_prym_H:
                assert d == dims[f"H{j}"] - dims[f"H{j + 1}"]
    # matrix-averaging rank cross-check at n = 4
    n = 4
    subs = dict(named_subgroups(build_quaternion(n)))
    subs["G"] = _whole(build_quaternion(n))
    subs["1"] = frozenset({0})
    for lbl, K in subs.items():
        dims = fixed_dims(n, K)
        for i, ch in enumerate(irreducible_characters(n)):
            assert dims[i] == fixed_dim_by_averaging(n, ch.label, K)


@criterion("3", "triviality equivalences")
def test_acceptance_03_triviality_flags():
    rng = random.Random(777)
    for n in (3, 4, 5):
        for _ in range(1000):
            mv = random_valid(n, rng, max_mult=3)
            rep = is_trivial_decomposition(mv)
            assert rep.agree, (mv, rep.flags())


@criterion("4", "genus-zero actions are exactly sigma_b")
def test_acceptance_04_genus_zero():
    t0 = time.monotonic()
    for n in (3, 4, 5, 6):
        scan = genus_zero_exhaustive_scan(n, max_periods=7)
        assert scan.ok, scan.mismatches[:3]
        assert scan.sigma_b_values_seen[:5] == [0, 1, 2, 3, 4]
        G = build_quaternion(n)
        for b in range(5):
            w = witness_eta(G, b)
            ok, msg = validate_ske(w)
            assert ok, msg
            assert genus_from_signature(G.order, sigma_b(n, b)) == 2 ** (n - 2) * (b + 1)
    assert time.monotonic() - t0 < 120.0


@criterion("5", "one-dimensional family census")
def test_acceptance_05_family_census():
    t0 = time.monotonic()
    fams = {f.label: f for f in one_dimensional_families(4)}
    assert len(fams) == 5
    assert fams["F0"].signature == Signature(1, (4,))
    assert fams["F1"].signature.sorted_periods() == (4, 4, 4, 4)
    assert fams["F2"].signature.sorted_periods() == (4, 4, 8, 8)
    assert fams["C2"].signature.sorted_periods() == (4, 4, 4, 8)
    assert fams["C3"].signature.sorted_periods() == (2, 4, 4, 8)
    assert {l: f.genus for l, f in fams.items()} == {
        "F0": 7, "F1": 9, "F2": 11, "C2": 10, "C3": 8,
    }
    assert fams["F0"].orbit_count == 1
    assert fams["F1"].orbit_count == 1
    assert fams["C3"].orbit_count == 1
    assert fams["F2"].orbit_count <= 4
    assert fams["C2"].orbit_count <= 2
    fams3 = one_dimensional_families(3)
    assert len(fams3) == 3
    assert all(f.orbit_count == 1 for f in fams3)
    assert time.monotonic() - t0 < 300.0


@criterion("6", "extension to the order-2^(n+1) supergroups")
def test_acceptance_06_extensions():
    for n in (4, 5):
        for fam, sup in (("F0", "G1"), ("F1", "G1"), ("F2", "G1"), ("F2", "G2")):
            theta, theta_prime, words = extension_data(n, fam, sup)
            rep = check_extension(theta, theta_prime, words)
            assert rep.ok, (n, fam, sup, rep)
            assert rep.mu_ratio == rep.index == 2


@criterion("7", "quotient genera, branch data, Prym dimensions")
def test_acceptance_07_quotient_tables():
    for n in (3, 4, 5):
        G = build_quaternion(n)
        subs = named_subgroups(G)
        triv = frozenset({0})
        for label in family_labels(n):
            ske = family_representative(n, label)
            ok, msg = validate_ske(ske)
            assert ok, msg
            g = quotient_data(ske, triv).genus
            assert g == family_genus(n, label)
            for sub_label, (genus, periods) in expected_quotients(n, label).items():
                qd = quotient_data(ske, subs[sub_label])
                assert qd.genus == genus, (n, label, sub_label)
                if periods is not None:
                    assert list(qd.periods) == sorted(periods), (n, label, sub_label)
            dims = expected_prym_dims(n, label)
            assert g - quotient_data(ske, subs["Z"]).genus == dims["Z"]
            # multiplicities recovered from the genera match, and their factor
            # table reproduces the total dimension = surface genus
            mv = multiplicities_from_quotient_genera(ske)
            a, orbit_b = expected_multiplicities(n, label)
            assert mv.a == a
            assert mv == from_orbit_values(n, a, orbit_b)
            assert factor_dimensions(mv).total == g


@criterion("8", "dimension-three family: symplectic data and fixed family")
def test_acceptance_08_thm10():
    t0 = time.monotonic()
    fx = sg.load_fixture("thm10")
    gens = fx.generators
    assert all(sg.is_symplectic(R) for R in gens)
    grp = sg.verify_group_data(
        gens, fx.relations, build_named("C4xC2_rtimes_C2"),
        gen_names=fx.generator_names,
    )
    assert grp.order == 16
    assert all(grp.relations_hold)
    assert grp.isomorphic_to_target
    main_ok = sg.verify_fixed_family(gens, fx.family).ok
    var_ok = sg.verify_fixed_family(gens, fx.family_variant).ok
    assert main_ok != var_ok, "exactly one printed diagonal variant is fixed"
    assert main_ok  # recorded: the theorem-statement diagonal (i + (i-1)t/2)
    locus = sg.fixed_locus_dimension(gens, starts=8, rank_tol=1e-7, rng_seed=0)
    assert locus.dimension == 1
    assert time.monotonic() - t0 < 30.0


@criterion("9", "dimension-five family: symplectic data and fixed family")
def test_acceptance_09_thm11():
    fx = sg.load_fixture("thm11")
    gens = fx.generators
    assert all(sg.is_symplectic(R) for R in gens)
    grp = sg.verify_group_data(gens, [], build_named("D4xC2_rtimes_C2"))
    assert grp.order == 32
    assert grp.isomorphic_to_target  # recorded isomorphism verdict
    report = sg.verify_fixed_family(gens, fx.family)
    assert report.generator_ok == (True, True, True)  # expected-zero residuals
    locus = sg.fixed_locus_dimension(gens, starts=8, rank_tol=1e-7, rng_seed=0)
    assert locus.dimension == 2


@criterion("10a", "order-32 action on the genus-four Jacobian: matrix data")
def test_acceptance_10a_prop13_group_and_point():
    t0 = time.monotonic()
    fx = sg.load_fixture("prop13")
    gens = fx.generators
    A, B = (np.array(m) for m in gens)
    assert all(sg.is_symplectic(R) for R in gens)
    assert np.array_equal(np.linalg.matrix_power(A, 16), np.eye(8, dtype=int))
    grp = sg.verify_group_data(gens, [], build_named("QD16"),
                               gen_names=fx.generator_names)
    assert grp.order == 32
    assert grp.isomorphic_to_target
    Z0 = fx.period_matrix
    assert sg.in_upper_half(Z0)
    assert sg.verify_fixed_point_numeric(gens, Z0) < 1e-9
    locus = sg.fixed_locus_dimension(gens, starts=8, rng_seed=0)
    assert locus.dimension == 0
    assert time.monotonic() - t0 < 5.0


def _relation_matrix(word, mats, J):
    """Exact integer image of [(gen_slot, exponent), ...]; a negative power
    uses the symplectic inverse M^-1 = -J M^T J."""
    out = np.eye(len(J), dtype=int)
    for slot, exp in word:
        M = mats[slot] if exp >= 0 else -J @ mats[slot].T @ J
        out = out @ np.linalg.matrix_power(M, abs(exp))
    return out


@criterion("10b", "literal relations under u -> A, v -> B: erratum verdict (True, False, False)")
def test_acceptance_10b_prop13_literal_relations():
    """As stated: u^16 = v^2 = 1 and v u v = u^7 under u -> A, v -> B for the
    printed matrices, evaluated by exact integer products.

    Only u^16 = 1 holds: the printed B has order four (B^2 = -I = A^8) and
    B A B = A^15, i.e. B A B^-1 = A^7, so B is the image of v*u^k with k odd
    rather than of v.  The verdict is asserted as computed, and the program's
    relation evaluator must agree with it; see the README's paragraph on
    transcription findings.  10c asserts the corrected correspondence.
    """
    fx = sg.load_fixture("prop13")
    gens = fx.generators
    mats = [np.array(m) for m in gens]
    A, B = mats
    I8 = np.eye(8, dtype=int)
    J = np.array(sg.symplectic_form(4))
    for M in mats:
        assert np.array_equal(M @ (-J @ M.T @ J), I8)

    by_hand = tuple(np.array_equal(_relation_matrix(word, mats, J), I8)
                    for word in fx.relations)
    assert by_hand == (True, False, False)
    assert np.array_equal(B @ B, -I8)
    assert np.array_equal(np.linalg.matrix_power(A, 8), -I8)
    assert np.array_equal(B @ A @ B, np.linalg.matrix_power(A, 15))
    # B^-1 = -B, since B^2 = -I
    assert np.array_equal(B @ A @ (-B), np.linalg.matrix_power(A, 7))

    grp = sg.verify_group_data(gens, fx.relations, build_named("QD16"),
                               gen_names=fx.generator_names)
    assert grp.relations_hold == by_hand


@criterion("10c", "quasi-dihedral presentation via corrected correspondence")
def test_acceptance_10c_prop13_corrected_relations():
    fx = sg.load_fixture("prop13")
    gens = fx.generators
    A, B = (np.array(m) for m in gens)
    I8 = np.eye(8, dtype=int)
    grp = sg.verify_group_data(gens, fx.relations, build_named("QD16"),
                               gen_names=fx.generator_names)
    # the documented u -> A, v -> B correspondence fails exactly as analyzed
    assert list(grp.relations_hold) == [True, False, False]
    assert np.array_equal(B @ B, -I8)
    assert np.array_equal(np.linalg.matrix_power(A, 8), -I8)
    # witness found by the isomorphism search: u -> A, v -> A*B
    assert grp.presentation_witness == ("A", "A*B")
    V = A @ B
    assert np.array_equal(V @ V, I8)
    assert np.array_equal(V @ A @ V, np.linalg.matrix_power(A, 7))


@criterion("11", "hyperelliptic models and their automorphisms")
def test_acceptance_11_curves():
    for n in (3, 4, 5):
        assert cv.t_minus_one_collapse(n)
        assert cv.rotation_identity_holds(n)
        model = cv.build_model(n, complex(2.0))
        rep = cv.verify_automorphisms(model, samples=200, seed=0)
        assert rep.max_residual < 1e-8
        # genus of the model = genus of the C_(n,n-1) family from the census
        ske = family_representative(n, f"C{n - 1}")
        g = quotient_data(ske, frozenset({0})).genus
        assert model.genus == g == 2 ** (n - 1)
