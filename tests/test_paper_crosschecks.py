"""Cross-checks tying the n = 3 supergroup actions to the family data.

The order-16 group (C4xC2):C2 acts with signature (0; 2,2,2,4) through the
printed ske (a, b, a b c^-1, c^-1); restricting to its quaternion subgroup
<ca, ba> must reproduce the genus-one family's quotient data (1; 2), and the
finer elliptic-factor claims are quotient-genus facts checkable on cosets.
The (D4xC2):C2 analogue is not printed as a tuple, so existence is recorded:
some valid (0; 2,2,2,4) ske restricts to the (0; 4,4,4,4) family on
<ra, rb> with the stated elliptic quotients.
"""

import pytest

from qact.actions import (
    Signature,
    Ske,
    classify,
    quotient_data,
    sigma_b,
    validate_ske,
)
from qact.groups import build_named, build_quaternion

from oracles import iter_valid_tuples


def test_printed_ske_for_order16_supergroup():
    G = build_named("C4xC2_rtimes_C2")
    a, b, c = (G.element(s) for s in "abc")
    theta = Ske(
        G,
        Signature(0, (2, 2, 2, 4)),
        (),
        (a, b, G.cayley[G.cayley[a][b]][G.inv[c]], G.inv[c]),
    )
    ok, msg = validate_ske(theta)
    assert ok, msg
    # genus of the covered surface: the genus-three family member
    assert quotient_data(theta, frozenset({0})).genus == 3
    # restriction to the quaternion subgroup <ca, ba> has the (1; 2) data
    H = G.closure([G.element("c*a"), G.element("b*a")])
    assert len(H) == 8
    qd = quotient_data(theta, H)
    assert (qd.genus, qd.periods) == (1, (2,))
    # the two elliptic factors of the finer decomposition: S_<a> and S_<ab>
    assert quotient_data(theta, G.closure([a])).genus == 1
    assert quotient_data(theta, G.closure([G.cayley[a][b]])).genus == 1


def test_order32_supergroup_action_exists_with_stated_quotients():
    Gp = build_named("D4xC2_rtimes_C2")
    H = Gp.closure([Gp.element("r*a"), Gp.element("r*b")])
    assert len(H) == 8
    r_sub = Gp.closure([Gp.element("r")])
    sa_sub = Gp.closure([Gp.element("s"), Gp.element("a")])
    found = None
    for t in iter_valid_tuples(Gp, (2, 2, 2, 4)):
        theta = Ske(Gp, Signature(0, (2, 2, 2, 4)), (), t)
        qd = quotient_data(theta, H)
        if (qd.genus, tuple(qd.periods)) == (0, (4, 4, 4, 4)):
            found = theta
            break
    assert found is not None, "no (0;2,2,2,4) action restricting to the genus-five family"
    assert quotient_data(found, frozenset({0})).genus == 5
    # the elliptic factors E1 ~ JS_<r> and E2 ~ JS_<s,a>
    assert quotient_data(found, r_sub).genus == 1
    assert quotient_data(found, sa_sub).genus == 1


def test_extension_constructions_also_work_at_n3():
    """The n >= 4 extension recipes hold verbatim at n = 3, where G1 is the
    order-16 group of the genus-one family's extension (recorded: they are
    isomorphic) and F1 = F2 merge."""
    from qact.actions import check_extension, extension_data
    from qact.groups import find_isomorphism

    for fam, sup in (("F0", "G1"), ("F1", "G1"), ("F2", "G1"), ("F2", "G2")):
        theta, theta_prime, words = extension_data(3, fam, sup)
        rep = check_extension(theta, theta_prime, words)
        assert rep.ok, (fam, sup)
    G13 = build_named("G1", n=3)
    assert find_isomorphism(G13, build_named("C4xC2_rtimes_C2")) is not None
    # the extended signature at n = 3 is the printed (0; 2,2,2,4)
    theta, theta_prime, _ = extension_data(3, "F0", "G1")
    assert theta_prime.signature.sorted_periods() == (2, 2, 2, 4)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_triangle_action_is_unique(n):
    """The quasiplatonic member: exactly one orbit with signature
    (0; 4, 4, 2^(n-1)), the b = 0 genus-zero signature."""
    G = build_quaternion(n)
    report = classify(G, sigma_b(n, 0))
    assert report.orbit_count == 1


def test_genus_zero_actions_have_trivial_decompositions():
    """Jacobian form of the triviality equivalence: the sigma_b witnesses give
    rho_a = (b+1)(Theta_1 + Theta_3 + ...), all five flags true; the
    non-genus-zero family representatives all come out nontrivial."""
    from qact.actions import family_representative, witness_eta
    from qact.decomp import is_trivial_decomposition, multiplicities
    from paper_tables import family_labels

    for n in (3, 4):
        G = build_quaternion(n)
        for b in range(4):
            mv = multiplicities(witness_eta(G, b))
            assert mv.a == (0, 0, 0, 0)
            for s in range(1, 2 ** (n - 2)):
                assert mv.b_at(s) == ((b + 1) if s % 2 == 1 else 0)
            rep = is_trivial_decomposition(mv)
            assert rep.agree and all(rep.flags())
        for label in family_labels(n):
            mv = multiplicities(family_representative(n, label))
            rep = is_trivial_decomposition(mv)
            assert rep.agree
            expected_trivial = label == f"C{n - 1}"
            assert all(rep.flags()) == expected_trivial, (n, label)


def test_theta_p_tuples_all_valid():
    # every theta_p = (xy, y, x^p y, x^(p+1) y) with even p is a ske
    for n in (4, 5):
        G = build_quaternion(n)
        x, y = G.generators
        for p in range(0, 2 ** (n - 1), 2):
            theta = Ske(
                G,
                Signature(0, (4, 4, 4, 4)),
                (),
                (
                    G.cayley[x][y],
                    y,
                    G.cayley[G.power(x, p)][y],
                    G.cayley[G.power(x, p + 1)][y],
                ),
            )
            ok, msg = validate_ske(theta)
            assert ok, (n, p, msg)
