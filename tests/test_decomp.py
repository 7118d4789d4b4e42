import random

import pytest

from qact.cyclo import Cyclotomic
from qact.decomp import (
    InvalidMultiplicities,
    MultiplicityVector,
    _fixed_point_free,
    dim_fixed_subvariety,
    factor_dimensions,
    is_trivial_decomposition,
    multiplicities,
)
from qact.groups import GroupError, build_quaternion, named_subgroups
from qact.reptheory import irreducible_characters
from qact.actions import (
    Signature,
    Ske,
    family_representative,
    witness_eta,
)

from oracles import (
    from_orbit_values,
    iter_valid_tuples,
    multiplicities_from_quotient_genera,
    random_valid,
    rep_matrix,
)
from paper_tables import family_labels


def _subs(n):
    return named_subgroups(build_quaternion(n))


def test_factor_dimensions_thm8_1():
    mv = MultiplicityVector(4, (1, 0, 0, 0), (1, 1, 1))
    t = factor_dimensions(mv)
    assert t.dim_AG == 1
    assert t.dim_prym_N == (0, 0, 0)
    assert t.dim_prym_A_over_AZ == 4
    assert dict(t.dim_prym_H) == {2: 1}
    assert t.total == 7


def test_factor_dimensions_thm8_3():
    mv = MultiplicityVector(4, (0, 0, 0, 1), (2, 1, 2))
    t = factor_dimensions(mv)
    assert t.dim_prym_A_over_AZ == 8
    assert dict(t.dim_prym_H) == {2: 1}
    assert t.dim_prym_N == (0, 0, 1)
    assert t.total == 0 + 0 + 0 + 1 + 8 + 2 * 1


def test_all_zero_vector():
    mv = MultiplicityVector(4, (0, 0, 0, 0), (0, 0, 0))
    t = factor_dimensions(mv)
    assert t.total == 0 and all(d == 0 for _, d, _, _ in t.factors())


def test_n3_table():
    mv = MultiplicityVector(3, (1, 0, 0, 0), (1,))
    t = factor_dimensions(mv)
    assert t.dim_prym_A_over_AZ == 2
    assert t.dim_prym_H == ()
    assert t.total == 3


def test_galois_constraint_enforced():
    with pytest.raises(InvalidMultiplicities):
        factor_dimensions(MultiplicityVector(4, (0, 0, 0, 0), (1, 0, 2)))
    mv = from_orbit_values(5, (0, 0, 0, 0), [3, 1, 2])
    assert mv.b == (3, 1, 3, 2, 3, 1, 3)


def test_dimension_conservation_random():
    rng = random.Random(42)
    for n in (3, 4, 5, 6):
        for _ in range(200):
            mv = random_valid(n, rng)
            t = factor_dimensions(mv)
            weighted = (
                t.dim_AG
                + sum(t.dim_prym_N)
                + t.dim_prym_A_over_AZ
                + 2 * sum(d for _, d in t.dim_prym_H)
            )
            assert weighted == t.total == mv.total_dimension()


def test_dim_fixed_subvariety_examples():
    n = 4
    subs = _subs(n)
    G = build_quaternion(n)
    mv = MultiplicityVector(4, (0, 1, 0, 0), (2, 0, 2))  # the (0;4,4,4,4) family
    whole = frozenset(range(G.order))
    triv = frozenset({0})
    assert dim_fixed_subvariety(mv, triv) == mv.total_dimension()
    assert dim_fixed_subvariety(mv, whole) == mv.a[0]
    assert dim_fixed_subvariety(mv, subs["Z"]) == 1
    assert dim_fixed_subvariety(mv, subs["N1"]) == 1


def test_dim_fixed_subvariety_unlabeled_subgroup():
    n = 4
    G = build_quaternion(n)
    mv = MultiplicityVector(4, (1, 0, 0, 0), (1, 1, 1))
    conj = G.closure([G.conjugate(G.generators[1], G.generators[0])])
    named = _subs(n)["H2"]
    assert dim_fixed_subvariety(mv, conj) == dim_fixed_subvariety(mv, named)


def test_dim_fixed_subvariety_reads_the_element_set():
    mv = MultiplicityVector(4, (1, 1, 1, 1), (1, 1, 1))
    assert dim_fixed_subvariety(mv, frozenset({0})) == mv.total_dimension() == 10
    assert dim_fixed_subvariety(mv, _subs(4)["Z"]) == 6


def test_dim_fixed_subvariety_rejects_a_foreign_group():
    mv = MultiplicityVector(4, (1, 1, 1, 1), (1, 1, 1))
    # Q32's Z, whose index 16 is no element of Q16, and Q8's <x>, whose
    # indices are elements of Q16 but not closed under its products
    for K in (frozenset({0, 16}), frozenset({0, 2, 4, 6})):
        with pytest.raises(GroupError, match="Q16"):
            dim_fixed_subvariety(mv, K)


def test_triviality_flags_agree_on_random_vectors():
    rng = random.Random(7)
    for n in (3, 4, 5):
        for _ in range(1000):
            mv = random_valid(n, rng, max_mult=3)
            rep = is_trivial_decomposition(mv)
            assert rep.agree, (mv, rep.flags())


def _has_eigenvalue_one(n, label, g):
    """det(rho(g) - I) = 0, from the explicit matrices."""
    M = rep_matrix(n, label, g)
    minus_one = Cyclotomic.from_rational(-1, 2)
    if len(M) == 1:
        return M[0][0] == 1
    return (M[0][0] + minus_one) * (M[1][1] + minus_one) == M[0][1] * M[1][0]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_fixed_vectors_from_characters_match_determinants(n):
    G = build_quaternion(n)
    for ch in irreducible_characters(n):
        expected = tuple(g for g in range(1, G.order) if _has_eigenvalue_one(n, ch.label, g))
        a = tuple(int(ch.label == f"chi{i}") for i in range(1, 5))
        b = tuple(int(ch.label == f"theta{s}") for s in range(1, 2 ** (n - 2)))
        mv = MultiplicityVector(n, a, b)
        fixed = tuple(
            g for g in range(1, G.order) if dim_fixed_subvariety(mv, G.closure([g]))
        )
        assert fixed == expected, ch.label
        assert _fixed_point_free(mv) == (not expected), ch.label


def test_triviality_specific_cases():
    # a = 0, b supported on the odd orbit only: trivial
    mv = from_orbit_values(4, (0, 0, 0, 0), [2, 0])
    rep = is_trivial_decomposition(mv)
    assert rep.agree and all(rep.flags())
    # a1 = 1: nontrivial
    mv = MultiplicityVector(4, (1, 0, 0, 0), (0, 0, 0))
    rep = is_trivial_decomposition(mv)
    assert rep.agree and not any(rep.flags())
    # n = 3 genus-four case: a = 0, b = 2
    mv = MultiplicityVector(3, (0, 0, 0, 0), (2,))
    rep = is_trivial_decomposition(mv)
    assert rep.agree and all(rep.flags())


def test_multiplicities_from_family_representatives():
    expected = {
        ("F0", 4): ((1, 0, 0, 0), (1, 1, 1)),
        ("F1", 4): ((0, 1, 0, 0), (2, 0, 2)),
        ("F2", 4): ((0, 0, 0, 1), (2, 1, 2)),
        ("C2", 4): ((0, 0, 0, 0), (2, 1, 2)),
        ("C3", 4): ((0, 0, 0, 0), (2, 0, 2)),
        ("F0", 3): ((1, 0, 0, 0), (1,)),
        ("F1", 3): ((0, 1, 0, 0), (2,)),
        ("C2", 3): ((0, 0, 0, 0), (2,)),
    }
    for (fam, n), (a, b) in expected.items():
        mv = multiplicities(family_representative(n, fam))
        assert (mv.a, mv.b) == (a, b), (fam, n, mv)


def test_c42_dimension_claims():
    mv = multiplicities(family_representative(4, "C2"))
    subs = _subs(4)
    assert dim_fixed_subvariety(mv, subs["H2"]) == 1
    t = factor_dimensions(mv)
    assert t.dim_prym_A_over_AZ == 8


def _oracle_skes():
    """The census representatives and the sigma_b witnesses (b = 0..3) for
    n = 3..6, then every valid tuple of a few genus-zero signatures."""
    for n in (3, 4, 5, 6):
        G = build_quaternion(n)
        for label in family_labels(n):
            yield family_representative(n, label)
        for b in range(4):
            yield witness_eta(G, b)
    for n, periods in (
        (3, (4, 4, 4)), (3, (2, 4, 4, 4)), (3, (4, 4, 4, 4)),
        (4, (4, 4, 8)), (4, (2, 4, 4, 8)), (4, (4, 4, 4, 4)),
        (5, (4, 4, 16)),
    ):
        G = build_quaternion(n)
        for t in iter_valid_tuples(G, periods):
            yield Ske(G, Signature(0, periods), (), t)


def test_chevalley_weil_matches_the_quotient_genera_oracle():
    count = 0
    for ske in _oracle_skes():
        assert multiplicities(ske) == multiplicities_from_quotient_genera(ske), ske
        count += 1
    assert count == 37 + 768


def test_multiplicities_raise_on_an_odd_doubled_multiplicity():
    # gamma = 1 and one elliptic image x of order 4: not a ske, and
    # d_V - dim V^<x> = 1 is odd for chi3
    G = build_quaternion(3)
    x = G.generators[0]
    with pytest.raises(RuntimeError, match="odd doubled multiplicities"):
        multiplicities(Ske(G, Signature(1, (4,)), (0, 0), (x,)))


def test_isogeny_bookkeeping_K_vs_H_chains():
    """dim Prym(A_(K_j)/A_(K_(j+1))) = 2 dim Prym(A_(H_j)/A_(H_(j+1)))
    = 2 dim Prym(A_(Ht_j)/A_(Ht_(j+1))), via fixed-subvariety differences."""
    rng = random.Random(3)
    for n in (4, 5, 6):
        subs = _subs(n)
        for _ in range(50):
            mv = random_valid(n, rng)
            for j in range(2, n - 1):
                dk = dim_fixed_subvariety(mv, subs[f"K{j}"]) - dim_fixed_subvariety(
                    mv, subs[f"K{j + 1}"]
                )
                dh = dim_fixed_subvariety(mv, subs[f"H{j}"]) - dim_fixed_subvariety(
                    mv, subs[f"H{j + 1}"]
                )
                dht = dim_fixed_subvariety(mv, subs[f"Ht{j}"]) - dim_fixed_subvariety(
                    mv, subs[f"Ht{j + 1}"]
                )
                assert dk == 2 * dh == 2 * dht


def test_factor_table_oracle_against_inner_products():
    """Closed-form factor dimensions == inner-product oracle differences."""
    rng = random.Random(12)
    for n in (3, 4, 5):
        G = build_quaternion(n)
        subs = _subs(n)
        whole = frozenset(range(G.order))
        triv = frozenset({0})
        for _ in range(60):
            mv = random_valid(n, rng)
            t = factor_dimensions(mv)
            dims = {lbl: dim_fixed_subvariety(mv, K) for lbl, K in subs.items()}
            dims["G"] = dim_fixed_subvariety(mv, whole)
            dims["1"] = dim_fixed_subvariety(mv, triv)
            assert t.dim_AG == dims["G"]
            for i in (1, 2, 3):
                assert t.dim_prym_N[i - 1] == dims[f"N{i}"] - dims["G"]
            assert t.dim_prym_A_over_AZ == dims["1"] - dims["Z"]
            for j, d in t.dim_prym_H:
                assert d == dims[f"H{j}"] - dims[f"H{j + 1}"]
