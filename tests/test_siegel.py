import json
import random

import numpy as np
import pytest

from qact.cyclo import Cyclotomic, CycloPoly, PolyMatrix
from qact.groups import build_named, find_isomorphism
from qact import siegel
from qact.siegel import (
    FixtureError,
    _jacobian,
    _sym_basis,
    act,
    as_int_matrix,
    blocks,
    family_from_fixture,
    family_with_variant,
    fixture_generators,
    fixed_locus_dimension,
    identity_matrix,
    in_upper_half,
    is_symplectic,
    load_fixture,
    mat_mul,
    matrix_group_as_finite_group,
    matrix_group_closure,
    prop13_period_matrix,
    symplectic_form,
    verify_fixed_family,
    verify_fixed_point_numeric,
    verify_group_data,
)

from oracles import is_symmetric, jacobian_per_basis, mat_mul_by_index, sym_basis_list


def test_j_is_symplectic():
    for g in (2, 3, 4, 5):
        assert is_symplectic(symplectic_form(g))


def test_identity_plus_offdiagonal_not_symplectic():
    M = [list(row) for row in identity_matrix(6)]
    M[0][1] = 1
    assert not is_symplectic(M)
    with pytest.raises(ValueError):
        is_symplectic([[1, 0], [0, 1], [0, 0]])


def test_fixture_generators_symplectic():
    for name in ("thm10", "thm11", "prop13"):
        gens = fixture_generators(load_fixture(name)["data"])
        assert all(is_symplectic(g) for g in gens)


def test_symplectic_closure_under_products_and_inverses():
    gens = fixture_generators(load_fixture("thm10")["data"])
    elems, _, _ = matrix_group_closure(gens)
    for M in elems:
        assert is_symplectic(M)


def test_act_identity_and_inversion_fixed_point():
    Z = np.array([[1j, 0.2], [0.2, 1.5j]])
    I4 = identity_matrix(4)
    assert np.allclose(act(I4, Z), Z)
    J = symplectic_form(2)
    Zi = 1j * np.eye(2)
    assert np.allclose(act(J, Zi), Zi)


def test_act_is_group_action_numerically():
    rng = random.Random(0)
    gens = fixture_generators(load_fixture("thm10")["data"])
    words = []
    for _ in range(12):
        w = identity_matrix(6)
        for _ in range(rng.randint(1, 5)):
            w = mat_mul(w, gens[rng.randrange(3)])
        words.append(w)
    nprng = np.random.default_rng(1)
    for _ in range(12):
        X = nprng.normal(size=(3, 3))
        W = nprng.normal(size=(3, 3))
        Z = (X + X.T) / 2 + 1j * (W @ W.T + np.eye(3))
        R1, R2 = rng.choice(words), rng.choice(words)
        lhs = act(mat_mul(R1, R2), Z)
        rhs = act(R1, act(R2, Z))
        assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_act_preserves_upper_half():
    gens = fixture_generators(load_fixture("thm10")["data"])
    Z = np.array([[0.3 + 1j, 0.1, 0.0], [0.1, 1.2j, -0.2], [0.0, -0.2, 0.9j]])
    assert in_upper_half(Z)
    for R in gens:
        assert in_upper_half(act(R, Z))


def test_singular_denominator_raises():
    g = 1
    R = [[0, 1], [-1, 0]]  # acts by Z -> -1/Z
    with pytest.raises(ZeroDivisionError):
        act(R, np.array([[0.0 + 0.0j]]))


# -- exact fixed families ------------------------------------------------------


def test_identity_fixes_everything():
    t = CycloPoly.variable(1, 0)
    one = CycloPoly.constant(1, Cyclotomic.one(4))
    Z = PolyMatrix.make([[t, one], [one, t * t]])
    rep = verify_fixed_family([identity_matrix(4)], Z)
    assert rep.ok


def test_thm10_family_fixed_and_variant_discrepancy():
    data = load_fixture("thm10")["data"]
    gens = fixture_generators(data)
    assert verify_fixed_family(gens, family_from_fixture(data)).ok
    variant = verify_fixed_family(gens, family_with_variant(data))
    assert not variant.ok  # the other printed diagonal entry is the typo


def test_thm11_family_fixed_exactly():
    data = load_fixture("thm11")["data"]
    gens = fixture_generators(data)
    fam = family_from_fixture(data)
    assert is_symmetric(fam)
    assert verify_fixed_family(gens, fam).ok


def test_random_matrix_not_fixed():
    data = load_fixture("thm10")["data"]
    gens = fixture_generators(data)
    bad = PolyMatrix.make(
        [
            [CycloPoly.constant(1, Cyclotomic.from_rational(k + 3 * j, 4)) for j in range(3)]
            for k in range(3)
        ]
    )
    bad = PolyMatrix.make([[bad.entries[min(i, j)][max(i, j)] for j in range(3)] for i in range(3)])
    assert not verify_fixed_family(gens, bad).ok


# -- group data -----------------------------------------------------------------


def test_thm10_group_data():
    data = load_fixture("thm10")["data"]
    rep = verify_group_data(
        fixture_generators(data),
        data["relations"],
        build_named("C4xC2_rtimes_C2"),
        gen_names=data["generator_names"],
    )
    assert rep.order == 16
    assert all(rep.relations_hold)
    assert rep.isomorphic_to_target
    assert rep.ok


def test_thm11_group_data():
    data = load_fixture("thm11")["data"]
    rep = verify_group_data(
        fixture_generators(data), [], build_named("D4xC2_rtimes_C2")
    )
    assert rep.order == 32
    assert rep.isomorphic_to_target


def test_prop13_group_data_records_erratum():
    """The printed generators generate QD16 (order 32) but B itself has order
    four with B^2 = -I = A^8; the literal relations v^2 and v u v u^-7 fail
    under u -> A, v -> B, and the report names a corrected correspondence."""
    data = load_fixture("prop13")["data"]
    gens = fixture_generators(data)
    rep = verify_group_data(
        gens, data["relations"], build_named("QD16"), gen_names=data["generator_names"]
    )
    assert rep.order == 32
    assert rep.isomorphic_to_target
    assert list(rep.relations_hold) == [True, False, False]
    assert rep.presentation_witness is not None
    # the witness realizes the presentation: its images satisfy the relations
    A, B = (np.array(m) for m in gens)
    words = {"A": A, "B": B}
    img = []
    for w in rep.presentation_witness:
        M = np.eye(8, dtype=int)
        for factor in w.split("*"):
            M = M @ words[factor]
        img.append(M)
    U, V = img
    assert np.array_equal(np.linalg.matrix_power(U, 16), np.eye(8, dtype=int))
    assert np.array_equal(V @ V, np.eye(8, dtype=int))
    assert np.array_equal(V @ U @ V, np.linalg.matrix_power(U, 7))
    # the structural facts behind the failure
    assert np.array_equal(B @ B, -np.eye(8, dtype=int))
    assert np.array_equal(np.linalg.matrix_power(A, 8), -np.eye(8, dtype=int))


def _bfs_depths(gens):
    """Word length of every matrix in the generated group, by a BFS of its own."""
    ident = identity_matrix(len(gens[0]))
    depth = {ident: 0}
    frontier = [ident]
    while frontier:
        nxt = []
        for M in frontier:
            for g in gens:
                P = mat_mul(M, g)
                if P not in depth:
                    depth[P] = depth[M] + 1
                    nxt.append(P)
        frontier = nxt
    return depth


@pytest.mark.parametrize("name", ["thm10", "thm11", "prop13"])
def test_cayley_table_from_the_tree_matches_matrix_products(name):
    gens = fixture_generators(load_fixture(name)["data"])
    Gm, _ = matrix_group_as_finite_group(gens)
    elems, _, _ = matrix_group_closure(gens)
    index = {M: i for i, M in enumerate(elems)}
    assert Gm.generators == [index[g] for g in gens]
    for a, A in enumerate(elems):
        assert Gm.cayley[a] == [index[mat_mul(A, B)] for B in elems], (name, a)


@pytest.mark.parametrize("name", ["thm10", "thm11", "prop13"])
def test_tree_steps_and_witness_words_are_shortest_products(name):
    data = load_fixture(name)["data"]
    gens = fixture_generators(data)
    names = data["generator_names"]
    elems, _, tree = matrix_group_closure(gens)
    depth = _bfs_depths(gens)
    assert len(depth) == len(elems)
    for i, (p, j) in enumerate(tree[1:], start=1):
        assert elems[i] == mat_mul(elems[p], gens[j])
        assert depth[elems[i]] == depth[elems[p]] + 1
    target = build_named(data["target_group"])
    rep = verify_group_data(gens, [], target, gen_names=names)
    back = find_isomorphism(target, matrix_group_as_finite_group(gens)[0])
    assert len(rep.presentation_witness) == len(target.generators)
    for g, word in zip(target.generators, rep.presentation_witness):
        M = identity_matrix(len(gens[0]))
        for factor in word.split("*"):
            M = mat_mul(M, gens[names.index(factor)])
        assert M == elems[back[g]], (name, word)
        assert len(word.split("*")) == depth[M], (name, word)


# -- prop13 period matrix ---------------------------------------------------------


def test_prop13_period_matrix_fixed():
    data = load_fixture("prop13")["data"]
    gens = fixture_generators(data)
    Z0 = prop13_period_matrix(data)
    assert in_upper_half(Z0)
    assert verify_fixed_point_numeric(gens, Z0) < 1e-9


def test_prop13_sensitivity_probe():
    data = load_fixture("prop13")["data"]
    gens = fixture_generators(data)
    Z0 = prop13_period_matrix(data)
    E = np.zeros((4, 4))
    E[0, 0] = 1e-3
    res = verify_fixed_point_numeric(gens, Z0 + E)
    assert res > 1e-4


def test_inversion_fixes_i_identity_numerically():
    g = 3
    res = verify_fixed_point_numeric([symplectic_form(g)], 1j * np.eye(g))
    assert res < 1e-12


def test_verify_fixed_point_requires_upper_half():
    data = load_fixture("prop13")["data"]
    gens = fixture_generators(data)
    with pytest.raises(ValueError):
        verify_fixed_point_numeric(gens, -1j * np.eye(4))


# -- locus dimensions --------------------------------------------------------------


@pytest.mark.parametrize("name,dim", [("thm10", 1), ("thm11", 2), ("prop13", 0)])
def test_fixed_locus_dimensions(name, dim):
    data = load_fixture(name)["data"]
    rep = fixed_locus_dimension(fixture_generators(data), starts=8, rng_seed=0)
    assert rep.dimension == dim
    assert rep.max_residual < 1e-10
    assert rep.validated_directions == dim


def _complex_blocks(gens):
    g = len(gens[0]) // 2
    return [tuple(np.array(blk, dtype=complex) for blk in blocks(as_int_matrix(R), g)) for R in gens]


@pytest.mark.parametrize("name", ["thm10", "thm11", "prop13"])
def test_stacked_jacobian_equals_the_per_basis_jacobian(name):
    """Bit for bit, at the converged point and at 50 random points of H_g."""
    gens = fixture_generators(load_fixture(name)["data"])
    gb = _complex_blocks(gens)
    g = len(gens[0]) // 2
    basis = _sym_basis(g)
    assert np.array_equal(basis, np.array(sym_basis_list(g)))
    point = fixed_locus_dimension(gens, starts=8, rng_seed=0).point
    rng = np.random.default_rng(5)
    points = [point]
    for _ in range(50):
        X = rng.normal(size=(g, g))
        W = rng.normal(size=(g, g))
        points.append((X + X.T) / 2 + 1j * (W @ W.T + 0.5 * np.eye(g)))
    for Z in points:
        assert in_upper_half(Z)
        J = _jacobian(gb, Z, basis)
        ref = jacobian_per_basis(gb, Z, sym_basis_list(g))
        assert J.shape == ref.shape and J.strides == ref.strides
        assert np.array_equal(J, ref)


@pytest.mark.parametrize("name", ["thm10", "thm11", "prop13"])
def test_locus_report_is_unchanged_under_the_per_basis_jacobian(name, monkeypatch):
    gens = fixture_generators(load_fixture(name)["data"])
    fast = fixed_locus_dimension(gens, starts=3, rng_seed=7).to_json()
    monkeypatch.setattr(siegel, "_jacobian", lambda gb, Z, basis: jacobian_per_basis(gb, Z, list(basis)))
    assert fixed_locus_dimension(gens, starts=3, rng_seed=7).to_json() == fast


def test_mat_mul_matches_the_indexed_product():
    rng = random.Random(13)
    for _ in range(200):
        n, k, m = (rng.randint(1, 8) for _ in range(3))
        bound = rng.choice((3, 100, 10**30))
        A = tuple(tuple(rng.randint(-bound, bound) for _ in range(k)) for _ in range(n))
        B = tuple(tuple(rng.randint(-bound, bound) for _ in range(m)) for _ in range(k))
        assert mat_mul(A, B) == mat_mul_by_index(A, B)
    for name in ("thm10", "thm11", "prop13"):
        elems, _, _ = matrix_group_closure(fixture_generators(load_fixture(name)["data"]))
        for A, B in zip(elems, elems[1:] + elems[:1]):
            assert mat_mul(A, B) == mat_mul_by_index(A, B)


# -- fixtures and checksums ----------------------------------------------------------


def test_fixture_checksum_guard(tmp_path):
    raw = load_fixture("thm10")
    raw["data"]["g"] = 99
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(raw))
    with pytest.raises(FixtureError):
        load_fixture(str(bad))
    with pytest.raises(FixtureError):
        load_fixture("does_not_exist")


def test_make_fixtures_rewrites_the_committed_fixtures(tmp_path, monkeypatch):
    """tools/make_fixtures.py still writes exactly the packaged fixtures."""
    import importlib.util
    from pathlib import Path

    import qact

    tool = Path(__file__).resolve().parent.parent / "tools" / "make_fixtures.py"
    spec = importlib.util.spec_from_file_location("make_fixtures", tool)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "OUT", tmp_path)
    module.main()
    committed = Path(qact.__file__).resolve().parent / "fixtures"
    written = sorted(p.name for p in tmp_path.glob("*.json"))
    assert written == sorted(p.name for p in committed.glob("*.json")) == ["prop13.json", "thm10.json", "thm11.json"]
    for name in written:
        assert (tmp_path / name).read_bytes() == (committed / name).read_bytes(), name


@pytest.mark.parametrize("arg", ["--help", "x.json"])
def test_make_fixtures_with_an_argument_exits_2_and_writes_nothing(tmp_path, arg):
    """A copy of the tool writes next to itself (tmp/src/qact/fixtures), so
    running the copy exercises the real entry point without touching the
    package."""
    import os
    import shutil
    import subprocess
    import sys
    from pathlib import Path

    import qact

    repo = Path(__file__).resolve().parent.parent
    tool = tmp_path / "tools" / "make_fixtures.py"
    tool.parent.mkdir()
    shutil.copy(repo / "tools" / "make_fixtures.py", tool)
    env = {**os.environ, "PYTHONPATH": str(Path(qact.__file__).resolve().parent.parent)}
    proc = subprocess.run([sys.executable, str(tool), arg], capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage: make_fixtures.py")
    assert not (tmp_path / "src").exists()
