import hashlib
import itertools
import json
import re

import pytest

from qact import groups
from qact.groups import (
    FiniteGroup,
    GroupError,
    _build_c4xc2_rtimes_c2,
    _build_d4xc2_rtimes_c2,
    _build_g1_g2,
    _build_qd16,
    _generating_tuple,
    _isomorphisms,
    _tree_table,
    automorphisms,
    build_dihedral,
    build_named,
    build_quaternion,
    coset_cycles,
    find_isomorphism,
    group_from_json,
    named_subgroups,
)
from qact.siegel import load_fixture, matrix_group

from oracles import (
    all_subgroups,
    center_by_brute_force,
    commutator_subgroup_by_brute_force,
    is_associative,
    is_normal,
    materialize_by_normal_forms,
    two_generated_subgroups,
)


def test_quaternion_basics():
    G = build_quaternion(3)
    assert G.order == 8
    with pytest.raises(GroupError):
        build_quaternion(2)


def test_budget_exceeded_lives_in_groups():
    """The numeric layers raise BudgetExceeded without loading the census
    module: a fresh interpreter imports them and reports whether
    qact.actions came along.  The census module re-exports the class."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import qact
    from qact import actions, groups

    script = "import sys, qact.siegel, qact.curves\nprint('qact.actions' in sys.modules)\n"
    src = str(Path(qact.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
    assert actions.BudgetExceeded is groups.BudgetExceeded
    assert issubclass(groups.BudgetExceeded, RuntimeError)


def test_unique_involution():
    for n in (3, 4, 5):
        G = build_quaternion(n)
        invs = [g for g in G if G.orders[g] == 2]
        assert invs == [G.power(G.generators[1], 2)]
        assert G.power(G.generators[1], 2) == G.power(G.generators[0], 2 ** (n - 2))


def test_q16_element_orders():
    G = build_quaternion(4)
    x, y = G.generators
    assert G.orders[x] == 8
    assert G.orders[G.cayley[x][y]] == 4
    assert len(G.conjugacy_classes()) == 7


def test_commutator_subgroup_is_x_squared():
    for n in (3, 4, 5):
        G = build_quaternion(n)
        x = G.generators[0]
        assert G.commutator_subgroup() == G.closure([G.power(x, 2)])


def test_cyclic_subgroup_of_index_two_unique():
    G = build_quaternion(4)
    cyclic_index2 = [
        s for s in all_subgroups(G)
        if len(s) == 8 and any(G.orders[g] == 8 for g in s)
    ]
    assert len(cyclic_index2) == 1


def test_named_group_orders():
    assert build_named("G1", n=4).order == 32
    assert build_named("G2", n=4).order == 32
    assert build_named("QD16").order == 32
    assert build_named("C4xC2_rtimes_C2").order == 16
    assert build_named("D4xC2_rtimes_C2").order == 32
    assert build_named("Dihedral", m=4).order == 8
    with pytest.raises(GroupError):
        build_named("nope")


def test_g1_relations():
    G = build_named("G1", n=4)
    x, y, z = (G.element(s) for s in "xyz")
    assert G.cayley[z][x] == G.cayley[x][z]
    zyz = G.cayley[G.cayley[z][y]][z]
    assert zyz == G.inv[y]


def test_qd16_conjugation_rule():
    G = build_named("QD16")
    u, v = (G.element(s) for s in "uv")
    vuv = G.cayley[G.cayley[v][u]][v]
    assert vuv == G.power(u, 7)


def test_c4xc2_contains_quaternion_group():
    G = build_named("C4xC2_rtimes_C2")
    x = G.element("c*a")
    y = G.element("b*a")
    H, pos = _subgroup_group(G, [x, y])
    assert H.order == 8
    assert find_isomorphism(H, build_quaternion(3)) is not None


def test_d4xc2_contains_quaternion_group():
    G = build_named("D4xC2_rtimes_C2")
    x = G.element("r*a")
    y = G.element("r*b")
    H, pos = _subgroup_group(G, [x, y])
    assert H.order == 8
    assert find_isomorphism(H, build_quaternion(3)) is not None


def _subgroup_group(G, gens):
    from qact.actions import subgroup_as_group

    return subgroup_as_group(G, G.closure(gens), gens)


def test_named_subgroups_q16():
    G = build_quaternion(4)
    subs = named_subgroups(G)
    x, y = G.generators
    assert subs["Z"] == {0, G.power(x, 4)}
    assert len(subs["N1"]) == 8
    assert len(subs["H2"]) == 4
    # chain K_i <= K_(i+1); Z below every nontrivial subgroup
    for i in (2, 3):
        assert subs[f"K{i}"] <= subs[f"K{i + 1}"]
    z = subs["Z"]
    for s in all_subgroups(G):
        if len(s) > 1:
            assert z <= s


def test_named_subgroups_cover_lattice_up_to_conjugacy():
    """The H/K/Ht labels hit every proper nontrivial subgroup exactly once up
    to conjugacy (for n >= 4 the H_j, Ht_j with j <= n-2 are not normal)."""
    for n in (3, 4, 5):
        G = build_quaternion(n)
        subs = named_subgroups(G)
        named_sets = {subs[l] for l in subs if l not in ("Z", "N1", "N2", "N3")}
        assert len(named_sets) == 3 * n - 5
        lattice = [s for s in all_subgroups(G) if 1 < len(s) < G.order]
        conj_classes = []
        for s in lattice:
            orbit = frozenset(
                frozenset(G.conjugate(g, h) for g in s) for h in range(G.order)
            )
            if orbit not in conj_classes:
                conj_classes.append(orbit)
        assert len(conj_classes) == 3 * n - 5
        for orbit in conj_classes:
            assert len(named_sets & set(orbit)) == 1


def test_two_generated_enumeration_vs_join_closure():
    """Pairs suffice for Q(2^n) and QD16; G1 has three subgroups (itself and
    two order-16 ones) needing a third generator, which the join pass adds.
    This is the lattice-completeness check behind the enumeration design."""
    for G in (build_quaternion(4), build_quaternion(5), build_named("QD16")):
        assert two_generated_subgroups(G) == all_subgroups(G)
    G1 = build_named("G1", n=4)
    two = two_generated_subgroups(G1)
    full = all_subgroups(G1)
    assert len(full - two) == 3
    assert sorted(len(s) for s in full - two) == [16, 16, 32]
    # join closure is idempotent: re-joining the full lattice adds nothing
    assert all(
        G1.closure(a | b) in full for a in full for b in full
    )


# Every catalogue 2-group, with its number of maximal subgroups 2^d - 1, where
# d is the size of a minimal generating set.
CATALOGUE_2_GROUPS = [
    ("Q8", {}, 3), ("Q16", {}, 3), ("Q32", {}, 3),
    ("G1", {"n": 4}, 7), ("G2", {"n": 4}, 7), ("G1", {"n": 5}, 7), ("G2", {"n": 5}, 7),
    ("QD16", {}, 3), ("C4xC2_rtimes_C2", {}, 7), ("D4xC2_rtimes_C2", {}, 7),
    ("Dihedral", {"m": 2}, 3), ("Dihedral", {"m": 4}, 3), ("Dihedral", {"m": 8}, 3),
]


@pytest.mark.parametrize(
    "name, params, count", CATALOGUE_2_GROUPS,
    ids=[f"{nm}{''.join(f'-{k}{v}' for k, v in p.items())}" for nm, p, _ in CATALOGUE_2_GROUPS],
)
def test_maximal_subgroups_match_the_lattice(name, params, count):
    """The kernels onto C2 are exactly the maximal elements of the brute-force lattice."""
    G = build_named(name, **params)
    proper = [s for s in all_subgroups(G) if len(s) < G.order]
    oracle = {s for s in proper if not any(s < t for t in proper)}
    maximal = G.maximal_subgroups()
    assert len(maximal) == len(set(maximal)) == count
    assert set(maximal) == oracle


def test_maximal_subgroups_q64():
    G = build_quaternion(6)
    assert sorted(len(m) for m in G.maximal_subgroups()) == [32, 32, 32]


def test_maximal_subgroups_need_a_2_group():
    with pytest.raises(GroupError, match="2-groups"):
        build_dihedral(3).maximal_subgroups()


def test_dihedral_needs_m_at_least_2():
    for m in (1, 0, -2):
        with pytest.raises(GroupError, match="out of range"):
            build_dihedral(m)


def test_normality_by_conjugation():
    G = build_quaternion(4)
    subs = named_subgroups(G)
    normal = {l: is_normal(G, subs[l]) for l in subs}
    # cyclic K_i always normal; index-2 subgroups normal; H2/Ht2 not (n=4)
    assert normal["K2"] and normal["K3"] and normal["K4"]
    assert normal["N1"] and normal["N2"] and normal["N3"]
    assert not normal["H2"] and not normal["Ht2"]


def test_automorphism_count_q8():
    auts = automorphisms(build_quaternion(3))
    assert len(auts) == 24


def test_identity_automorphism_and_composition_closure():
    G = build_quaternion(4)
    auts = automorphisms(G)
    perms = set(auts)
    assert tuple(range(G.order)) in perms
    # closed under composition
    import random

    rng = random.Random(0)
    for _ in range(50):
        a, b = rng.choice(auts), rng.choice(auts)
        assert tuple(a[b[i]] for i in range(G.order)) in perms


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_automorphisms_are_the_closed_form_family(n):
    """`automorphisms` reads Aut(Q(2^n)) off the presentation, sorted, and
    the generator-image search gives the same set: 24 maps at n = 3.  For
    n >= 4 it is x -> x^u, y -> x^v y with u odd, which sends x^a y^e
    (index 2a + e) to x^(au + ve) y^e, written here independently."""
    G = build_quaternion(n)
    auts = automorphisms(G)
    assert auts == sorted(auts)
    assert len(auts) == (24 if n == 3 else 2 ** (2 * n - 3))
    assert set(auts) == {tuple(m) for m in _isomorphisms(G, G)}
    assert find_isomorphism(G, G) in map(list, auts)
    if n >= 4:
        half = 2 ** (n - 1)
        closed = {
            tuple(2 * ((a * u + v * e) % half) + e for a in range(half) for e in (0, 1))
            for u in range(1, half, 2)
            for v in range(half)
        }
        assert set(auts) == closed


def test_x_to_x_y_to_xy_is_automorphism():
    G = build_quaternion(4)
    x, y = G.generators
    xy = G.cayley[x][y]
    auts = automorphisms(G)
    assert any((a[x], a[y]) == (x, xy) for a in auts)


def test_isomorphism_basics():
    Q8 = build_quaternion(3)
    assert find_isomorphism(Q8, build_quaternion(3)) is not None
    assert find_isomorphism(Q8, build_dihedral(4)) is None
    assert find_isomorphism(build_quaternion(4), build_named("C4xC2_rtimes_C2")) is None


def test_g1_n3_vs_c4xc2_recorded():
    """G1 exists at n = 3 as well; record its comparison with the order-16
    group extending the genus-one family there: they are isomorphic."""
    G13 = build_named("G1", n=3)
    assert G13.order == 16
    assert find_isomorphism(G13, build_named("C4xC2_rtimes_C2")) is not None


def test_element_products_inverses_and_orders():
    G = build_quaternion(4)
    x, y = G.generators
    assert G.names[G.cayley[x][y]] == "x*y"
    assert G.cayley[y][y] == G.power(x, 4)
    assert G.orders[x] == 8 and G.orders[G.inv[x]] == 8


def test_catalogue_groups_are_built_once():
    assert build_named("Q16") is build_quaternion(4) is build_quaternion(4)
    assert build_named("G1", n=4) is build_named("G1", n=4) is build_named("G1", 4)
    assert build_named("G1", n=4) is not build_named("G2", n=4)
    assert build_named("Dihedral", m=4) is build_dihedral(4) is build_dihedral(4)
    assert build_named("QD16") is build_named("QD16")
    # positional-only parameters give each value one cache key
    with pytest.raises(TypeError):
        build_quaternion(n=4)
    with pytest.raises(TypeError):
        build_dihedral(m=4)


def test_group_from_json_descriptors():
    from qact.groups import group_from_json

    assert group_from_json({"name": "Q16"}).order == 16
    assert group_from_json({"name": "G1", "n": 4}).order == 32
    G = group_from_json({"name": "Q8"})
    assert G.to_json() == {"name": "Q8", "order": 8, "n": 3}


CATALOGUE = (
    [build_quaternion(n) for n in (3, 4, 5, 6)]
    + [build_named(v, n=n) for v in ("G1", "G2") for n in (3, 4, 5)]
    + [build_named(name) for name in ("QD16", "C4xC2_rtimes_C2", "D4xC2_rtimes_C2")]
    + [build_dihedral(m) for m in (2, 3, 4, 8, 32)]
)


@pytest.mark.parametrize("G", CATALOGUE, ids=lambda G: G.name)
def test_group_json_round_trip(G):
    assert group_from_json(G.to_json()) is G


# sha256 of json.dumps([G.names, G.cayley, G.generators]) for each CATALOGUE
# group, recorded from the hand-listed builders that preceded the shared
# normal-form recipe: every element, name and generator keeps its index.
CATALOGUE_DIGESTS = {
    "Q8": "be30e1d755fc1165f2126e38656515a204f2bc498ba887d531a7bac4da64041e",
    "Q16": "1a1b677e7c3e0e75b413544daafdac12ceb0e1fefb61226f3ff2b8bbb625be48",
    "Q32": "21127e26b63c833938d41564a51695e10a195e31cb486b2be64f1a3e00817196",
    "Q64": "8c5c6efdc877e229ed040016b5cd9ac650642a9bdf17f10ee1470311af7823e4",
    "G1(n=3)": "e4ef4c4e443bc98406d4ea21aeb8df67aae21734bd43443b1a07e25168c9b152",
    "G1(n=4)": "37590afae5dc2ef22c49328a2bff2d735fe22ee7756a84da16f86649230a25ad",
    "G1(n=5)": "61060acadb79c2cb992cb93a0b25b9bca796989b0a6cb9e422ad466d8d9f12e6",
    "G2(n=3)": "8b958e5b54d71be403d93c8c4a6a2f6087ffd4cd6f9e0b594e199de7a48f9974",
    "G2(n=4)": "81e9b429870781826b824d42e9aaaf45838c721853f38134bd24887c2cf63288",
    "G2(n=5)": "c2cc2d0e2b352ad193723c53e8b21d5e69c1b81cccf99afac3a7b2c4256efd32",
    "QD16": "3128c6b6541cbd99427caca2938cdffc699ae852fd7363d7e6c8b3e8ced85b93",
    "C4xC2_rtimes_C2": "7c364a17d87935fd1e99b87185dff56d43d3249cc5005fd5dabe1996397ea623",
    "D4xC2_rtimes_C2": "9e116ecffd5f1a55824f32236e4e957215a4d73514465eccabecbb5ee1146c02",
    "D2": "0433ff979a937cdfa26768b72e8845875710165b6e75e26d392ed063ad6a8f8f",
    "D3": "a1d84e60cac49b0a33a9c40068665e81467f46c93195e479df632df0563911df",
    "D4": "0fb36114b6ca669a1c662b34b75541127d54cbba5287296ce610b3a1865a12f1",
    "D8": "7647a8b93eb806898a253373d4f87c92acd093dc7bf33fb6754dc7b4a4541501",
    "D32": "3489d5a4e2ef69921a6b552a21a94756ff1cdf2e326c24bdf385d9b6bfbeaa23",
}


@pytest.mark.parametrize("G", CATALOGUE, ids=lambda G: G.name)
def test_catalogue_tables_are_pinned(G):
    blob = json.dumps([G.names, G.cayley, G.generators]).encode()
    assert hashlib.sha256(blob).hexdigest() == CATALOGUE_DIGESTS[G.name]


# every catalogue constructor with its arguments: Q8..Q64, G1/G2 for n = 3..5,
# QD16, both semidirect products and the dihedral groups D2..D32
BUILDS = (
    [(build_quaternion, (n,)) for n in (3, 4, 5, 6)]
    + [(_build_g1_g2, (n, v)) for v in (1, 2) for n in (3, 4, 5)]
    + [(_build_qd16, ()), (_build_c4xc2_rtimes_c2, ()), (_build_d4xc2_rtimes_c2, ())]
    + [(build_dihedral, (m,)) for m in range(2, 33)]
)


@pytest.mark.parametrize("build, args", [pytest.param(b, a, id=b(*a).name) for b, a in BUILDS])
def test_tree_filled_tables_match_the_normal_form_products(monkeypatch, build, args):
    """Each catalogue table, read along the BFS tree from the products by a
    letter, is the table of every normal-form product, with the same names
    and generators."""
    G = build(*args)
    monkeypatch.setattr(groups, "_materialize", materialize_by_normal_forms)
    H = build.__wrapped__(*args)
    assert H is not G
    assert (G.names, G.cayley, G.generators) == (H.names, H.cayley, H.generators)


def test_tree_table_refuses_generators_that_do_not_generate():
    # C4 = <a> acting on itself by a^2 only: 1 and a^2 are reached, a and a^3 not
    with pytest.raises(GroupError, match="reach 2 of 4"):
        _tree_table([[2], [3], [0], [1]])


def _matrix_group(fixture):
    return matrix_group(load_fixture(fixture).generators)[0]


@pytest.mark.parametrize(
    "G",
    [pytest.param(G, id=G.name) for G in (build(*args) for build, args in BUILDS)]
    + [pytest.param(_matrix_group(f), id=f) for f in ("thm10", "thm11", "prop13")],
)
def test_center_and_commutator_subgroup_from_generators(G):
    assert G.center() == center_by_brute_force(G)
    assert G.commutator_subgroup() == commutator_subgroup_by_brute_force(G)


@pytest.mark.parametrize(
    "G",
    [pytest.param(G, id=G.name) for G in CATALOGUE]
    + [pytest.param(_matrix_group(f), id=f) for f in ("thm10", "thm11", "prop13")],
)
def test_accepted_tables_are_associative(G):
    assert is_associative(G.cayley)


# A Latin square with identity 0 whose every element is an involution but
# which has 36 non-associative triples: a loop that is not a group.
LOOP5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]


def test_the_order_5_loop_is_not_associative():
    n = len(LOOP5)
    bad = [
        (a, b, d) for a in range(n) for b in range(n) for d in range(n)
        if LOOP5[LOOP5[a][b]][d] != LOOP5[a][LOOP5[b][d]]
    ]
    assert len(bad) == 36
    assert not is_associative(LOOP5)


Z4 = [[(i + j) % 4 for j in range(4)] for i in range(4)]


@pytest.mark.parametrize("cayley, generators, relations, message", [
    ([[0, 1], [1, 1]], [1], None, "row 1 of Cayley table is not a permutation"),
    ([[0, 1, 2], [1, 2, 0], [1, 2, 0]], [1], None, "column 0 of Cayley table is not a permutation"),
    ([[(i + j + 1) % 3 for j in range(3)] for i in range(3)], [1], None,
     "index 0 is not a two-sided identity"),
    (Z4, [2], None, "distinguished generators do not generate T"),
    (Z4, [1], [[(0, 2)]], r"defining relation \[\(0, 2\)\] does not hold in T"),
    (LOOP5, [1], None, "Cayley table is not associative"),
    (LOOP5, [2], None, "Cayley table is not associative"),
    (LOOP5, [1, 2], None, "Cayley table is not associative"),
], ids=["row", "column", "identity", "generation", "relation", "loop-1", "loop-2", "loop-12"])
def test_constructor_rejects_a_bad_table(cayley, generators, relations, message):
    names = [f"t{i}" for i in range(len(cayley))]
    with pytest.raises(GroupError, match=f"^{message}$"):
        FiniteGroup("T", names, cayley, generators, relations)


def test_group_from_json_rejects_a_mismatched_parameter():
    with pytest.raises(GroupError, match="unknown group name"):
        group_from_json({"name": "G1(n=4)", "order": 64, "n": 5})
    with pytest.raises(GroupError, match="unknown group name"):
        group_from_json({"name": "D4", "order": 16, "m": 8})
    with pytest.raises(GroupError, match="Q16 takes no parameter n, got n=5"):
        group_from_json({"name": "Q16", "order": 16, "n": 5})
    with pytest.raises(GroupError, match="QD16 takes no parameter m, got m=2"):
        group_from_json({"name": "QD16", "order": 32, "m": 2})


def test_element_name_parsing_roundtrip():
    G = build_named("G1", n=4)
    for g in G:
        assert G.element(G.names[g]) == g
    assert G.element("x^9*y") == G.evaluate_word([(0, 9), (1, 1)])


def test_all_defining_relations_hold():
    groups = [
        build_quaternion(3), build_quaternion(4), build_quaternion(5),
        build_named("G1", n=4), build_named("G2", n=4), build_named("QD16"),
        build_named("C4xC2_rtimes_C2"), build_named("D4xC2_rtimes_C2"),
        build_dihedral(8),
    ]
    for G in groups:
        assert G.relations
        for word in G.relations:
            assert G.evaluate_word(word) == 0, (G.name, word)


def test_latin_square_and_inverses():
    G = build_named("D4xC2_rtimes_C2")
    n = G.order
    for i in range(n):
        assert sorted(G.cayley[i]) == list(range(n))
        assert G.cayley[i][G.inv[i]] == 0 and G.cayley[G.inv[i]][i] == 0


def test_dihedral_quotient_of_quaternion():
    # Q(2^n)/Z is dihedral of order 2^(n-1)
    from qact.actions import subgroup_as_group

    G = build_quaternion(4)
    subs = named_subgroups(G)
    z = subs["Z"]
    # build the quotient on cosets
    reps, seen = [], set()
    for g in range(G.order):
        c = frozenset(G.cayley[g][k] for k in z)
        if c not in seen:
            seen.add(c)
            reps.append(c)
    index = {c: i for i, c in enumerate(reps)}

    def cmul(a, b):
        ga = next(iter(reps[a]))
        gb = next(iter(reps[b]))
        return index[frozenset(G.cayley[G.cayley[ga][gb]][k] for k in z)]

    cayley = [[cmul(a, b) for b in range(len(reps))] for a in range(len(reps))]
    # identity coset must be index 0
    id_pos = next(i for i, c in enumerate(reps) if 0 in c)
    order = list(range(len(reps)))
    order[0], order[id_pos] = order[id_pos], order[0]
    remap = {old: new for new, old in enumerate(order)}
    cayley2 = [
        [remap[cayley[order[i]][order[j]]] for j in range(len(reps))]
        for i in range(len(reps))
    ]
    Q = FiniteGroup("Q/Z", [f"c{i}" for i in range(len(reps))], cayley2,
                    [remap[index[frozenset(G.cayley[G.generators[0]][k] for k in z)]],
                     remap[index[frozenset(G.cayley[G.generators[1]][k] for k in z)]]])
    assert find_isomorphism(Q, build_dihedral(4)) is not None


def _brute_coset_cycles(G, kset, g):
    """Sorted cycle lengths of g acting on explicit coset frozensets."""
    cosets = {frozenset(G.cayley[a][k] for k in kset) for a in range(G.order)}
    image = {c: frozenset(G.cayley[g][a] for a in c) for c in cosets}
    seen, lengths = set(), []
    for c in cosets:
        length = 0
        while c not in seen:
            seen.add(c)
            c = image[c]
            length += 1
        if length:
            lengths.append(length)
    return sorted(lengths), len(cosets)


@pytest.mark.parametrize("name", ["Q16", "D4xC2_rtimes_C2"])
def test_coset_cycles_match_the_action_on_coset_sets(name):
    G = build_named(name)
    for kset in all_subgroups(G):
        cycles = coset_cycles(G, kset)
        assert len(cycles) == G.order
        for g in range(G.order):
            lengths, index = _brute_coset_cycles(G, kset, g)
            assert sorted(cycles[g]) == lengths, (sorted(kset), g)
            assert sum(cycles[g]) == index == len(cycles[0])


def test_coset_cycles_need_a_subgroup():
    G = build_quaternion(3)
    x = G.generators[0]
    with pytest.raises(GroupError, match="not closed under products"):
        coset_cycles(G, frozenset({0, x}))
    # Q32's Z, whose index 16 is no element of Q16, and Q8's <x>, whose
    # indices are elements of Q16 but not closed under its products
    assert named_subgroups(build_quaternion(5))["Z"] == frozenset({0, 16})
    assert G.closure([x]) == frozenset({0, 2, 4, 6})
    for kset in (frozenset({0, 16}), frozenset({0, 2, 4, 6})):
        with pytest.raises(GroupError, match="Q16"):
            coset_cycles(build_quaternion(4), kset)


def test_generating_tuple_is_the_first_generating_combination():
    """The first one- to three-element generating tuple in size and index
    order, as a plain search over closures finds it; the cyclic group takes
    the one-element path."""
    cyclic = FiniteGroup("C8", [str(i) for i in range(8)],
                         [[(i + j) % 8 for j in range(8)] for i in range(8)], [1])
    groups = [build_quaternion(n) for n in (3, 4, 5)] + [
        build_named("G1", n=4), build_named("G2", n=4), build_named("QD16"), build_named("D4xC2_rtimes_C2"),
    ] + [build_dihedral(4), cyclic]
    for G in groups:
        expected = next(
            list(combo)
            for size in (1, 2, 3)
            for combo in itertools.combinations(range(1, G.order), size)
            if len(G.closure(combo)) == G.order
        )
        assert _generating_tuple(G) == expected, G.name
    assert _generating_tuple(cyclic) == [1]


def test_generating_tuple_of_the_trivial_group_is_empty():
    T = FiniteGroup("1", ["1"], [[0]], [])
    assert _generating_tuple(T) == []
    assert [tuple(m) for m in _isomorphisms(T, T)] == [(0,)]


def test_automorphism_search_needs_a_2_group():
    """The generating tuple is found through the maximal subgroups, so the
    search rejects a group whose order is not a power of two;
    `automorphisms` refuses every group but Q(2^n)."""
    D3 = build_dihedral(3)
    with pytest.raises(GroupError, match="2-groups only, not D3"):
        next(_isomorphisms(D3, D3))
    with pytest.raises(GroupError, match="2-groups only, not D3"):
        find_isomorphism(D3, build_dihedral(3))
    # the invariant rejects come first: a non-2-group is not isomorphic to Q8
    assert find_isomorphism(D3, build_quaternion(3)) is None
    for G in (D3, build_dihedral(4), build_named("QD16"), build_named("G1", n=3)):
        with pytest.raises(GroupError, match=rf"Q\(2\^n\) only, not {re.escape(G.name)}"):
            automorphisms(G)
