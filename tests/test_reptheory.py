from qact.actions import family_representative, ske_from_json
from qact.cyclo import Cyclotomic
from qact.groups import build_quaternion, named_subgroups
import pytest

from qact.reptheory import (
    class_data,
    fixed_dims,
    galois_orbit,
    irreducible_characters,
    rational_irreducibles,
)

from oracles import (
    fixed_dim_by_averaging,
    fixed_subspace_dim,
    inner_product,
    permutation_character,
    rep_matrix,
    two_generated_subgroups,
)


def _subs(n):
    return named_subgroups(build_quaternion(n))


def _whole(n):
    return frozenset(range(build_quaternion(n).order))


def test_counts_and_degrees():
    for n in (3, 4, 5, 6):
        chars = irreducible_characters(n)
        assert len(chars) == 2 ** (n - 2) + 3
        assert sum(int(c.degree) ** 2 for c in chars) == 2**n
    degrees = [int(c.degree) for c in irreducible_characters(4)]
    assert degrees == [1, 1, 1, 1, 2, 2, 2]


def test_theta_at_central_involution():
    for n in (3, 4, 5):
        G = build_quaternion(n)
        theta1 = irreducible_characters(n)[4]
        central = G.power(G.generators[0], 2 ** (n - 2))
        assert theta1.values[class_data(n).class_of[central]] == Cyclotomic.from_rational(-2, 2)


def test_chi3_values():
    n = 4
    G = build_quaternion(n)
    chi3 = irreducible_characters(n)[2]
    x, y = (chi3.values[class_data(n).class_of[g]] for g in G.generators)
    assert x == Cyclotomic.from_rational(-1, 2)
    assert y == Cyclotomic.from_rational(1, 2)


def test_class_count_matches_irreducibles():
    for n in (3, 4, 5, 6):
        assert len(class_data(n).reps) == 2 ** (n - 2) + 3


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_class_data_is_the_conjugacy_partition(n):
    """The classes read off the normal form are `conjugacy_classes`, each
    labelled by the class of its representative and sized by its count."""
    cd = class_data(n)
    G = cd.group
    classes = G.conjugacy_classes()
    for c, r in enumerate(cd.reps):
        cls = next(cls for cls in classes if r in cls)
        assert tuple(g for g in G if cd.class_of[g] == c) == cls
        assert cd.sizes[c] == len(cls)
    assert len(cd.reps) == len(classes)


def test_rational_irreducibles_constituents():
    rats4 = {r.label: r for r in rational_irreducibles(4)}
    assert rats4["W1"].constituents == ("theta1", "theta3")
    assert rats4["W2"].constituents == ("theta2",)
    assert rats4["W1"].schur_index == 2
    assert rats4["W2"].schur_index == 1
    rats5 = {r.label: r for r in rational_irreducibles(5)}
    assert rats5["W2"].constituents == ("theta2", "theta6")


def test_galois_orbit_sizes():
    for n in (4, 5, 6):
        assert len(galois_orbit(n, 1)) == 2 ** (n - 3)
        for j in range(2, n - 1):
            assert len(galois_orbit(n, 2 ** (j - 1))) == 2 ** (n - j - 2)


def test_permutation_characters_extremes():
    n = 4
    G = build_quaternion(n)
    rho_G = permutation_character(G, _whole(n))
    assert all(v == Cyclotomic.from_rational(1, 2) for v in rho_G.values)
    rho_1 = permutation_character(G, frozenset({0}))
    assert int(rho_1.degree) == G.order
    assert all(v.is_zero() for v in rho_1.values[1:])


def test_permutation_character_of_a_ske_read_from_json():
    # the ske's group is rebuilt from its JSON descriptor: the same object
    ske = ske_from_json(family_representative(4, "F1").to_json())
    G = build_quaternion(4)
    assert ske.group is G
    rho_z = permutation_character(G, named_subgroups(ske.group)["Z"])
    assert int(rho_z.degree) == 8
    assert inner_product(rho_z, irreducible_characters(4)[0]) == 1


def test_rho_N1_decomposition():
    for n in (4, 5):
        G = build_quaternion(n)
        subs = _subs(n)
        chars = irreducible_characters(n)
        rho_n1 = permutation_character(G, subs["N1"])
        rho_g = permutation_character(G, _whole(n))
        assert rho_n1.values == (rho_g + chars[1]).values


def test_inner_product_examples():
    n = 4
    G = build_quaternion(n)
    chars = irreducible_characters(n)
    subs = _subs(n)
    theta1 = chars[4]
    assert inner_product(theta1, theta1) == 1
    rho_h2 = permutation_character(G, subs["H2"])
    assert inner_product(theta1, rho_h2) == 0
    # <Theta_(2^(l-1)), rho_(H_j)> = 1 iff l >= j
    for n2 in (4, 5):
        G2 = build_quaternion(n2)
        chars2 = irreducible_characters(n2)
        subs2 = _subs(n2)
        for l in range(2, n2 - 1):
            theta = chars2[4 + 2 ** (l - 1) - 1]
            for j in range(2, n2 - 1):
                rho = permutation_character(G2, subs2[f"H{j}"])
                assert inner_product(theta, rho) == (1 if l >= j else 0)


def test_orthogonality_small():
    for n in (3, 4):
        chars = irreducible_characters(n)
        for i, a in enumerate(chars):
            for j, b in enumerate(chars):
                assert inner_product(a, b) == (1 if i == j else 0)


def test_regular_character_decomposition():
    for n in (3, 4, 5):
        G = build_quaternion(n)
        rho_1 = permutation_character(G, frozenset({0}))
        for ch in irreducible_characters(n):
            assert inner_product(rho_1, ch) == ch.degree


def test_fixed_subspace_dims():
    n = 4
    subs = _subs(n)
    chars = {c.label: c for c in irreducible_characters(n)}
    for lbl, K in subs.items():
        assert fixed_subspace_dim(chars["chi1"], K) == 1
    assert fixed_subspace_dim(chars["theta2"], subs["H2"]) == 1
    assert fixed_subspace_dim(chars["theta1"], subs["Z"]) == 0


def test_eight_rho_K_identities():
    """The displayed induced-character decompositions, as exact class functions."""
    for n in (3, 4, 5):
        G = build_quaternion(n)
        subs = _subs(n)
        chars = {c.label: c for c in irreducible_characters(n)}
        rats = {r.label: r.character for r in rational_irreducibles(n)}
        rho = {lbl: permutation_character(G, K) for lbl, K in subs.items()}
        rho["G"] = permutation_character(G, _whole(n))
        rho["1"] = permutation_character(G, frozenset({0}))

        # rho_(H_j) = chi1 + chi3 + sum_(l >= j) W_l   (j = 2..n-1)
        for j in range(2, n):
            expect = chars["chi1"] + chars["chi3"]
            for l in range(max(j, 2), n - 1):
                expect = expect + rats[f"W{l}"]
            assert rho[f"H{j}"].values == expect.values
        # rho_(H_j) = rho_(H_(j+1)) + W_j and the Ht twin   (j = 2..n-2)
        for j in range(2, n - 1):
            assert rho[f"H{j}"].values == (rho[f"H{j + 1}"] + rats[f"W{j}"]).values
            assert rho[f"Ht{j}"].values == (rho[f"Ht{j + 1}"] + rats[f"W{j}"]).values
        # rho_1 = rho_Z + W1
        assert rho["1"].values == (rho["Z"] + rats["W1"]).values
        # rho_(N_i) = rho_G + chi_(i+1)
        for i, chi in ((1, "chi2"), (2, "chi3"), (3, "chi4")):
            assert rho[f"N{i}"].values == (rho["G"] + chars[chi]).values
        # rho_(K_i) = rho_(K_(i+1)) + 2 W_i   (i = 2..n-2)
        for i in range(2, n - 1):
            assert rho[f"K{i}"].values == (rho[f"K{i + 1}"] + 2 * rats[f"W{i}"]).values


# every subgroup of Q(2^n) is cyclic or generalized quaternion, so the
# closures of all element pairs are all of them
SUBGROUP_COUNTS = {3: 6, 4: 11, 5: 20, 6: 37}


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_fixed_dims_match_the_character_average(n):
    """The integer closed form == the exact cyclotomic average of each
    character over K, for every irreducible and every subgroup."""
    subgroups = two_generated_subgroups(build_quaternion(n))
    assert len(subgroups) == SUBGROUP_COUNTS[n]
    chars = irreducible_characters(n)
    for K in subgroups:
        assert fixed_dims(n, K) == tuple(fixed_subspace_dim(ch, K) for ch in chars), sorted(K)


def test_matrix_averaging_cross_check():
    """dim V^K from `fixed_dims` == rank of the exact averaged projector, for
    every irreducible and every subgroup."""
    for n in (3, 4, 5):
        for K in two_generated_subgroups(build_quaternion(n)):
            dims = fixed_dims(n, K)
            for i, ch in enumerate(irreducible_characters(n)):
                assert dims[i] == fixed_dim_by_averaging(n, ch.label, K), (ch.label, sorted(K))


def test_galois_invariance_of_fixed_dims():
    for n in (4, 5):
        subs = _subs(n)
        chars = {c.label: c for c in irreducible_characters(n)}
        for l in range(1, n - 1):
            orbit = galois_orbit(n, 2 ** (l - 1))
            for lbl, K in subs.items():
                dims = {fixed_subspace_dim(chars[f"theta{s}"], K) for s in orbit}
                assert len(dims) == 1


def test_rep_matrices_match_characters():
    n = 4
    G = build_quaternion(n)
    for ch in irreducible_characters(n):
        for g in range(G.order):
            M = rep_matrix(n, ch.label, g)
            trace = M[0][0] if len(M) == 1 else M[0][0] + M[1][1]
            assert trace == ch.values[class_data(n).class_of[g]]


def test_character_values_constant_on_classes():
    n = 5
    G = build_quaternion(n)
    cd = class_data(n)
    for ch in irreducible_characters(n):
        for g in range(G.order):
            for h in range(G.order):
                conj = G.conjugate(g, h)
                assert cd.class_of[conj] == cd.class_of[g]
        break  # class structure itself suffices; one character exercise is plenty
