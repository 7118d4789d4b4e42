import itertools
import json
import math
import random
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest

from qact.cyclo import Cyclotomic, CycloPoly, PolyMatrix
from qact.groups import build_named, find_isomorphism
from qact import siegel
from qact.siegel import (
    CHARACTER_TOL,
    Fixture,
    FixtureError,
    _jacobian,
    _sym_basis,
    as_int_matrix,
    blocks,
    character_dimension,
    fixed_locus_dimension,
    identity_matrix,
    in_upper_half,
    is_symplectic,
    load_fixture,
    mat_mul,
    matrix_group,
    symplectic_form,
    verify_fixed_family,
    verify_fixed_point_numeric,
    verify_group_data,
)

from oracles import (
    fixed_family_by_lifted_blocks,
    in_upper_half_numpy,
    is_symmetric,
    jacobian_per_basis,
    mat_mul_by_index,
    poly_eval,
    sym_basis_list,
)


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
        gens = load_fixture(name).generators
        assert all(is_symplectic(g) for g in gens)


def test_symplectic_closure_under_products_and_inverses():
    gens = load_fixture("thm10").generators
    _, elems, _ = matrix_group(gens)
    for M in elems:
        assert is_symplectic(M)


def test_one_closure_per_generator_tuple():
    """The group checks and the character route of a fixture share one
    matrix group, built once per generator tuple however the generators are
    spelled; its elements and tree are immutable."""
    fx = load_fixture("thm11")
    siegel._matrix_group.cache_clear()
    verify_group_data(fx.generators)
    character_dimension(fx.generators, fx.family)
    info = siegel._matrix_group.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    Gm, elems, tree = matrix_group(fx.generators)
    as_lists = [[list(row) for row in M] for M in fx.generators]
    assert matrix_group(as_lists)[0] is Gm
    assert matrix_group([np.array(M) for M in as_lists])[0] is Gm
    assert verify_group_data(as_lists) == verify_group_data(fx.generators)
    assert character_dimension(as_lists, fx.family) == character_dimension(fx.generators, fx.family)
    assert type(elems) is type(tree) is tuple and Gm.order == len(elems) == len(tree)


def _is_point(Z, g):
    """Whether Z is a g x g tuple of tuples of complex numbers."""
    return (type(Z) is tuple and len(Z) == g
            and all(type(row) is tuple and len(row) == g and all(type(v) is complex for v in row) for row in Z))


def test_identity_residual_is_exactly_zero():
    Z = ((1j, 0.2), (0.2, 1.5j))
    assert verify_fixed_point_numeric([identity_matrix(4)], Z) == 0.0


def test_a_singular_denominator_is_a_failed_check():
    """J acts by Z -> -Z^-1, and C Z + D = -Z is nearly singular at a small
    multiple of i I; the residual I + Z^2 there is about 1, with nothing
    inverted."""
    J = symplectic_form(2)
    for eps in (1e-4, 1.03e-7, 2e-10):
        Z = ((eps * 1j, 0j), (0j, eps * 1j))
        assert in_upper_half(Z)
        assert verify_fixed_point_numeric([J], Z) == pytest.approx(1.0, abs=1e-6), eps


def _random_point(rng, g, scale=1.0):
    X = rng.normal(size=(g, g))
    W = rng.normal(size=(g, g))
    return scale * ((X + X.T) / 2 + 1j * (W @ W.T + 0.1 * np.eye(g)))


def test_residual_matches_the_numpy_residual():
    """On pairs of fixture words at random points of H_g at three scales, the
    plain residual is the largest entry modulus of Gauss-Newton's numpy
    residual A Z + B - Z (C Z + D)."""
    rng = np.random.default_rng(3)
    prng = random.Random(3)
    for name in ("thm10", "thm11", "prop13"):
        _, elems, _ = matrix_group(load_fixture(name).generators)
        g = len(elems[0]) // 2
        for scale in (1e-3, 1.0, 1e3):
            for _ in range(12):
                words = [prng.choice(elems), prng.choice(elems)]
                Z = _random_point(rng, g, scale)
                gens_blocks = [tuple(np.array(b, dtype=complex) for b in blocks(R, g)) for R in words]
                expected = float(np.max(np.abs(siegel._residual(gens_blocks, Z))))
                assert verify_fixed_point_numeric(words, Z) == pytest.approx(expected, rel=1e-12, abs=0), name


def test_in_upper_half_matches_the_numpy_route():
    """At random points, points with a tiny or negative imaginary
    eigenvalue, and asymmetries on both sides of np.allclose's tolerances."""
    rng = np.random.default_rng(4)
    cases = []
    for g in (1, 2, 3, 4, 5):
        for _ in range(20):
            cases.append(_random_point(rng, g))
            Z = _random_point(rng, g)
            lam = np.linalg.eigvalsh(Z.imag)[0]
            for shift in (lam - 1e-12, lam - 1e-5, lam + 1e-3):
                cases.append(Z - 1j * shift * np.eye(g))
        if g > 1:
            for delta in (1e-9, 5e-9, 2e-8, 1e-6, 1e-3):
                Z = _random_point(rng, g)
                Z[0, 1] += delta * (1 + 1j)
                cases.append(Z)
                Z = 1e4 * _random_point(rng, g)
                Z[1, 0] *= 1 + delta
                cases.append(Z)
    verdicts = [in_upper_half(Z) for Z in cases]
    assert verdicts == [in_upper_half_numpy(Z) for Z in cases]
    assert 0 < sum(verdicts) < len(verdicts)


@pytest.mark.parametrize("bad", [complex("nan"), complex(0, math.inf)], ids=["nan", "inf"])
def test_non_finite_points_are_not_in_the_upper_half(bad):
    """Python's max would drop a NaN where numpy's kept it, so a non-finite
    entry is refused outright; numpy accepted i*inf on the diagonal."""
    Z = [[1j, 0, 0], [0, 1j, 0], [0, 0, 1j]]
    for i, j in ((0, 0), (0, 1)):
        P = [row[:] for row in Z]
        P[i][j] = P[j][i] = bad
        assert not in_upper_half(P)
        with pytest.raises(ValueError):
            verify_fixed_point_numeric([symplectic_form(3)], P)


def test_a_non_finite_residual_is_never_below_tolerance(monkeypatch):
    # for J, A Z + B - Z (C Z + D) is 1 + Z^2, and Z^2 overflows
    Z = ((complex(1.5e308, 1.5e308),),)
    assert in_upper_half(Z)
    assert verify_fixed_point_numeric([symplectic_form(1)], Z) == math.inf
    # a NaN residual entry after a finite one: max(0.0, nan) would keep 0.0
    nan = complex("nan")
    monkeypatch.setattr(siegel, "mat_mul", lambda Z, W: ((Z[0][0], nan), (nan, Z[1][1])))
    res = verify_fixed_point_numeric([identity_matrix(4)], 1j * np.eye(2))
    assert not res < 1e-9


# -- exact fixed families ------------------------------------------------------


def test_identity_fixes_everything():
    t = CycloPoly.variable(1, 0)
    one = CycloPoly.constant(1, Cyclotomic.one(4))
    Z = PolyMatrix.make([[t, one], [one, t * t]])
    rep = verify_fixed_family([identity_matrix(4)], Z)
    assert rep.ok


def test_thm10_family_fixed_and_variant_discrepancy():
    fx = load_fixture("thm10")
    gens = fx.generators
    assert verify_fixed_family(gens, fx.family).ok
    variant = verify_fixed_family(gens, fx.family_variant)
    assert not variant.ok  # the other printed diagonal entry is the typo


def test_thm11_family_fixed_exactly():
    fx = load_fixture("thm11")
    gens = fx.generators
    fam = fx.family
    assert is_symmetric(fam)
    assert verify_fixed_family(gens, fam).ok


def test_random_matrix_not_fixed():
    fx = load_fixture("thm10")
    gens = fx.generators
    bad = PolyMatrix.make(
        [
            [CycloPoly.constant(1, Cyclotomic.from_rational(k + 3 * j, 4)) for j in range(3)]
            for k in range(3)
        ]
    )
    bad = PolyMatrix.make([[bad.entries[min(i, j)][max(i, j)] for j in range(3)] for i in range(3)])
    assert not verify_fixed_family(gens, bad).ok


def _random_symmetric_family(rng, g, nvars):
    """A g x g symmetric family whose entries have up to three terms of
    degree at most one in each of `nvars` parameters, with small Gaussian
    rational coefficients; about one entry in four is zero."""
    exps = list(itertools.product((0, 1), repeat=nvars))
    entries = [[None] * g for _ in range(g)]
    for i in range(g):
        for j in range(i, g):
            terms = {} if rng.random() < 0.25 else {
                e: Cyclotomic.gauss(rng.randint(-3, 3), rng.choice((0, 1, Fraction(-1, 2))))
                for e in rng.sample(exps, min(3, len(exps)))
            }
            entries[i][j] = entries[j][i] = CycloPoly.make(nvars, terms)
    return PolyMatrix.make(entries)


@pytest.mark.parametrize("name", ["thm10", "thm11", "prop13"])
def test_exact_residual_matches_the_lifted_block_route(name):
    """Per generator, on every printed family and variant of g x g and on
    seeded random symmetric families, with the fixture's generators and
    with every element of its matrix group as the generators."""
    fx = load_fixture(name)
    _, elems, _ = matrix_group(fx.generators)
    g = len(elems[0]) // 2
    rng = random.Random(g)
    packaged = [F for other in ("thm10", "thm11")
                for F in (load_fixture(other).family, load_fixture(other).family_variant)
                if F is not None and F.rows == g]
    families = packaged + [_random_symmetric_family(rng, g, nvars) for nvars in (1, 2)]
    verdicts = set()
    for F in families:
        for gens in (fx.generators, elems):
            flags = verify_fixed_family(gens, F).generator_ok
            assert flags == fixed_family_by_lifted_blocks(gens, F), name
            verdicts.update(flags)
    # the identity fixes every family, and a random family is not fixed
    assert verdicts == {True, False}


def _sampled_points(rng, family, count, scale):
    """`count` parameter values at which the family lies in H_g, and the
    family's values there."""
    nv = family.entries[0][0].nvars
    out = []
    for _ in range(500):
        pt = [complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale)) for _ in range(nv)]
        Z = tuple(tuple(poly_eval(p, pt) for p in row) for row in family.entries)
        if in_upper_half(Z):
            out.append((pt, Z))
            if len(out) == count:
                return out
    raise AssertionError("too few sampled points in H_g")


@pytest.mark.parametrize("name, scale", [("thm10", 1.0), ("thm11", 3.0)])
def test_exact_and_numeric_residuals_agree_at_sampled_parameters(name, scale):
    """At parameter values where the printed family lies in H_g, the numeric
    residual of every generator is below 1e-9.  thm10's variant lies outside
    H_g there, so verify_fixed_point_numeric refuses it; the same residual
    formula puts it at or above 1e-9 for exactly the generators the exact
    check finds it not fixed by."""
    fx = load_fixture(name)
    points = _sampled_points(random.Random(11), fx.family, 6, scale)
    for _, Z in points:
        for R in fx.generators:
            assert verify_fixed_point_numeric([R], Z) < 1e-9, name
    if fx.family_variant is None:
        return
    flags = verify_fixed_family(fx.generators, fx.family_variant).generator_ok
    assert not all(flags)
    g = fx.family.rows
    for pt, _ in points:
        V = tuple(tuple(poly_eval(p, pt) for p in row) for row in fx.family_variant.entries)
        with pytest.raises(ValueError):
            verify_fixed_point_numeric(fx.generators, V)
        for R, fixed in zip(fx.generators, flags):
            A, B, C, D = blocks(R, g)
            W = zip(siegel._affine(A, V, B), mat_mul(V, siegel._affine(C, V, D)))
            residual = max(abs(w - z) for row, zrow in W for w, z in zip(row, zrow))
            assert (residual < 1e-9) == fixed, name


# -- group data -----------------------------------------------------------------


def test_thm10_group_data():
    fx = load_fixture("thm10")
    rep = verify_group_data(
        fx.generators,
        fx.relations,
        build_named("C4xC2_rtimes_C2"),
        gen_names=fx.generator_names,
    )
    assert rep.order == 16
    assert all(rep.relations_hold)
    assert rep.isomorphic_to_target
    assert rep.ok


def test_thm11_group_data():
    fx = load_fixture("thm11")
    rep = verify_group_data(
        fx.generators, [], build_named("D4xC2_rtimes_C2")
    )
    assert rep.order == 32
    assert rep.isomorphic_to_target


def test_prop13_group_data_records_erratum():
    """The printed generators generate QD16 (order 32) but B itself has order
    four with B^2 = -I = A^8; the literal relations v^2 and v u v u^-7 fail
    under u -> A, v -> B, and the report names a corrected correspondence."""
    fx = load_fixture("prop13")
    gens = fx.generators
    rep = verify_group_data(
        gens, fx.relations, build_named("QD16"), gen_names=fx.generator_names
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
    gens = load_fixture(name).generators
    Gm, elems, _ = matrix_group(gens)
    index = {M: i for i, M in enumerate(elems)}
    assert Gm.generators == [index[g] for g in gens]
    for a, A in enumerate(elems):
        assert Gm.cayley[a] == [index[mat_mul(A, B)] for B in elems], (name, a)


@pytest.mark.parametrize("name", ["thm10", "thm11", "prop13"])
def test_tree_steps_and_witness_words_are_shortest_products(name):
    fx = load_fixture(name)
    gens = fx.generators
    names = fx.generator_names
    _, elems, tree = matrix_group(gens)
    depth = _bfs_depths(gens)
    assert len(depth) == len(elems)
    for i, (p, j) in enumerate(tree[1:], start=1):
        assert elems[i] == mat_mul(elems[p], gens[j])
        assert depth[elems[i]] == depth[elems[p]] + 1
    target = build_named(fx.target_group)
    rep = verify_group_data(gens, [], target, gen_names=names)
    back = find_isomorphism(target, matrix_group(gens)[0])
    assert len(rep.presentation_witness) == len(target.generators)
    for g, word in zip(target.generators, rep.presentation_witness):
        M = identity_matrix(len(gens[0]))
        for factor in word.split("*"):
            M = mat_mul(M, gens[names.index(factor)])
        assert M == elems[back[g]], (name, word)
        assert len(word.split("*")) == depth[M], (name, word)


# -- prop13 period matrix ---------------------------------------------------------


def test_prop13_period_matrix_fixed():
    fx = load_fixture("prop13")
    gens = fx.generators
    Z0 = fx.period_matrix
    assert in_upper_half(Z0)
    assert verify_fixed_point_numeric(gens, Z0) < 1e-9


def test_prop13_residual_is_bit_identical_to_the_dense_products():
    """The residual of the printed prop13 point, as the dense integer
    products (every term, zeros included) gave it."""
    fx = load_fixture("prop13")
    assert verify_fixed_point_numeric(fx.generators, fx.period_matrix).hex() == "0x1.1e3779b97f4a8p-52"


def test_prop13_sensitivity_probe():
    fx = load_fixture("prop13")
    gens = fx.generators
    Z0 = fx.period_matrix
    E = np.zeros((4, 4))
    E[0, 0] = 1e-3
    res = verify_fixed_point_numeric(gens, Z0 + E)
    assert res > 1e-4


def test_inversion_fixes_i_identity_numerically():
    g = 3
    res = verify_fixed_point_numeric([symplectic_form(g)], 1j * np.eye(g))
    assert res < 1e-12


def test_verify_fixed_point_requires_upper_half():
    fx = load_fixture("prop13")
    gens = fx.generators
    with pytest.raises(ValueError):
        verify_fixed_point_numeric(gens, -1j * np.eye(4))


# -- locus dimensions --------------------------------------------------------------


def _fixed_point(fx):
    return fx.family if fx.family is not None else fx.period_matrix


@pytest.mark.parametrize("name", ["thm10", "thm11", "prop13"])
def test_character_dimension_matches_newton(name):
    """The exact (thm10, thm11) or numeric (prop13) character average equals
    the printed dimension and Gauss-Newton's count."""
    fx = load_fixture(name)
    dim = character_dimension(fx.generators, _fixed_point(fx))
    assert type(dim) is int
    assert dim == fx.expected_dimension == fixed_locus_dimension(fx.generators, starts=8, rng_seed=0).dimension


def test_character_dimension_refuses_the_unfixed_variant():
    """thm10's other printed diagonal entry is not fixed: its traces are
    constant, but their average is 40/32."""
    fx = load_fixture("thm10")
    with pytest.raises(ValueError, match="not a dimension"):
        character_dimension(fx.generators, fx.family_variant)


def test_character_dimension_refuses_a_varying_trace():
    """thm10's family with t added at (0, 0): some trace depends on t, though
    its constant part, and so its average, is the fixed family's."""
    fx = load_fixture("thm10")
    entries = [list(row) for row in fx.family.entries]
    entries[0][0] = CycloPoly.combination(1, [(1, entries[0][0]), (1, CycloPoly.variable(1, 0))])
    with pytest.raises(ValueError, match="varies along the family"):
        character_dimension(fx.generators, PolyMatrix.make(entries))


@pytest.mark.parametrize("eps", [1e-3, 1e-5])
def test_character_dimension_refuses_a_perturbed_period_matrix(eps):
    """prop13's period matrix moved by eps at (0, 0): the average moves by
    about 0.46 eps, past CHARACTER_TOL."""
    fx = load_fixture("prop13")
    Z = [list(row) for row in fx.period_matrix]
    Z[0][0] += eps
    assert eps * 0.4 > CHARACTER_TOL
    with pytest.raises(ValueError, match="not within"):
        character_dimension(fx.generators, Z)


@pytest.mark.parametrize("name,dim", [("thm10", 1), ("thm11", 2), ("prop13", 0)])
def test_fixed_locus_dimensions(name, dim):
    """At seeds 0-3 and both rank tolerances.  The one SVD's singular values
    agree with a values-only SVD at the report's point and count the same
    number below the tolerance."""
    fx = load_fixture(name)
    assert fx.expected_dimension == dim
    gens = fx.generators
    gb = _complex_blocks(gens)
    basis = _sym_basis(len(gens[0]) // 2)
    for seed, rank_tol in itertools.product(range(4), (1e-7, 1e-9)):
        rep = fixed_locus_dimension(gens, starts=8, rank_tol=rank_tol, rng_seed=seed)
        assert rep.dimension == dim
        assert rep.max_residual < 1e-10
        assert rep.validated_directions == dim
        sv = np.linalg.svd(_jacobian(gb, rep.point, basis), compute_uv=False)
        assert np.allclose(rep.singular_values, sv, rtol=0, atol=1e-12 * sv[0])
        assert int(np.sum(sv < rank_tol * sv[0])) == dim


@pytest.mark.parametrize("g", [3, 4, 5])
def test_contracting_the_sym_basis_places_each_coefficient(g):
    """v[k] lands at (i, j) and (j, i) for the k-th row-major pair i <= j."""
    rng = np.random.default_rng(g)
    pairs = [(i, j) for i in range(g) for j in range(i, g)]
    v = rng.normal(size=len(pairs)) + 1j * rng.normal(size=len(pairs))
    Z = np.tensordot(v, _sym_basis(g), axes=1)
    expected = np.zeros((g, g), dtype=complex)
    for k, (i, j) in enumerate(pairs):
        expected[i, j] = expected[j, i] = v[k]
    assert np.array_equal(Z, expected)


def _complex_blocks(gens):
    g = len(gens[0]) // 2
    return [tuple(np.array(blk, dtype=complex) for blk in blocks(as_int_matrix(R), g)) for R in gens]


@pytest.mark.parametrize("name", ["thm10", "thm11", "prop13"])
def test_stacked_jacobian_equals_the_per_basis_jacobian(name):
    """Bit for bit, at the converged point and at 50 random points of H_g."""
    gens = load_fixture(name).generators
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
    gens = load_fixture(name).generators
    fast = fixed_locus_dimension(gens, starts=3, rng_seed=7).to_json()
    monkeypatch.setattr(siegel, "_jacobian", lambda gb, Z, basis: jacobian_per_basis(gb, Z, list(basis)))
    assert fixed_locus_dimension(gens, starts=3, rng_seed=7).to_json() == fast


def test_mat_mul_matches_the_indexed_product():
    """`mat_mul` and each generator's `_right_multiplier` skip the right
    factor's zeros; on integer matrices (one entry of 5,000 digits, past
    int-to-str's limit) and on complex points with zero entries they still
    give the product by index."""
    rng = random.Random(13)
    for _ in range(200):
        n, k, m = (rng.randint(1, 8) for _ in range(3))
        bound = rng.choice((3, 100, 10**30))
        A = tuple(tuple(rng.randint(-bound, bound) for _ in range(k)) for _ in range(n))
        B = tuple(tuple(rng.choice((0, rng.randint(-bound, bound))) for _ in range(m)) for _ in range(k))
        assert mat_mul(A, B) == mat_mul_by_index(A, B)
        if k == m:
            assert siegel._right_multiplier(B)(A) == mat_mul_by_index(A, B)
    huge = ((10**4999, -1), (0, 2))
    assert siegel._right_multiplier(huge)(huge) == mat_mul(huge, huge) == mat_mul_by_index(huge, huge)
    for _ in range(100):
        n, k, m = (rng.randint(1, 6) for _ in range(3))
        entry = lambda: rng.choice((0j, complex(rng.gauss(0, 1), rng.gauss(0, 1))))
        Z = tuple(tuple(entry() for _ in range(k)) for _ in range(n))
        W = tuple(tuple(entry() for _ in range(m)) for _ in range(k))
        assert mat_mul(Z, W) == mat_mul_by_index(Z, W)
    for name in ("thm10", "thm11", "prop13"):
        _, elems, _ = matrix_group(load_fixture(name).generators)
        for A, B in zip(elems, elems[1:] + elems[:1]):
            assert mat_mul(A, B) == mat_mul_by_index(A, B)


# -- fixtures and checksums ----------------------------------------------------------


def _packaged(name):
    """The packaged fixture file as raw JSON."""
    return json.loads(resources.files("qact").joinpath(f"fixtures/{name}.json").read_text())


@pytest.mark.parametrize("name, family, variant, period", [
    ("thm10", PolyMatrix, PolyMatrix, None),
    ("thm11", PolyMatrix, None, None),
    ("prop13", None, None, tuple),
], ids=["thm10", "thm11", "prop13"])
def test_packaged_fixtures_parse_into_typed_fields(name, family, variant, period):
    fx = load_fixture(name)
    raw = _packaged(name)
    assert isinstance(fx, Fixture)
    assert (fx.name, fx.sha256) == (raw["name"], raw["sha256"])
    g = raw["data"]["g"]
    assert type(fx.generators) is tuple and len(fx.generators) == len(raw["data"]["generators"])
    for M in fx.generators:
        assert type(M) is tuple and len(M) == 2 * g
        assert all(type(row) is tuple and len(row) == 2 * g for row in M)
        assert all(type(v) is int for row in M for v in row)
    assert type(fx.generator_names) is tuple and all(type(s) is str for s in fx.generator_names)
    assert type(fx.relations) is tuple
    assert all(type(slot) is int and type(exp) is int for word in fx.relations for slot, exp in word)
    assert type(fx.target_group) is str
    assert type(fx.expected_order) is int and type(fx.expected_dimension) is int
    for value, kind in ((fx.family, family), (fx.family_variant, variant), (fx.period_matrix, period)):
        if kind is None:
            assert value is None
        else:
            assert isinstance(value, kind)
    for F in (fx.family, fx.family_variant):
        if F is not None:
            assert (F.rows, F.cols) == (g, g)
    if period is not None:
        assert _is_point(fx.period_matrix, g)


def test_family_variant_differs_in_exactly_the_printed_entry():
    fx = load_fixture("thm10")
    var = _packaged("thm10")["data"]["family_variant"]
    differ = [
        (i, j)
        for i, (row, vrow) in enumerate(zip(fx.family.entries, fx.family_variant.entries))
        for j, (a, b) in enumerate(zip(row, vrow))
        if a != b
    ]
    assert differ == [(var["row"], var["col"])]


@pytest.mark.parametrize("fields", [
    ("family",),
    ("family", "period_matrix"),
    ("generator_names", "relations", "target_group"),
], ids="-".join)
def test_require_names_every_field_it_was_given(fields):
    fx = load_fixture("prop13")
    fx.require("period_matrix", *fields)
    bare = fx._replace(**{f: None for f in fields})
    with pytest.raises(FixtureError) as err:
        bare.require(*fields)
    assert str(err.value) == f"fixture prop13 has no {' or '.join('data.' + f for f in fields)} to check"


def test_fixture_checksum_guard(tmp_path):
    raw = _packaged("thm10")
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
