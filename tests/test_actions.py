import itertools
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from qact import actions
from qact.actions import (
    BudgetExceeded,
    InvalidEmbedding,
    Signature,
    Ske,
    UnsupportedMove,
    _arrangements,
    _braid_moves,
    _canon,
    _class_tuples,
    _generates_mod_frattini,
    _genus_one_classes,
    _genus_one_moves,
    _in_class_orbit,
    _maximal_masks,
    _mu_over_lcm,
    _orbit_moves,
    _pointwise_stabilizer,
    check_extension,
    classify,
    count_valid_tuples,
    extension_data,
    family_label,
    family_representative,
    genus_from_signature,
    genus_zero_actions,
    genus_zero_exhaustive_scan,
    is_genus_zero_action,
    is_sigma_b,
    one_dimensional_families,
    quotient_data,
    sigma_b,
    ske_from_json,
    validate_ske,
    witness_eta,
)
from qact.decomp import multiplicities
from qact.groups import _orbit, automorphisms, build_named, build_quaternion, named_subgroups

from oracles import (
    aut_generators,
    aut_moves,
    classify_by_canon,
    classify_by_filter,
    classify_on_tuples,
    count_by_dp,
    count_by_hall,
    cyclic_count_by_valuation,
    genus_by_fraction,
    iter_genus_one_triples,
    iter_valid_tuples,
    mu_by_fraction,
    multiplicities_from_quotient_genera,
    quaternion_count_by_valuation,
)
from paper_tables import (
    expected_prym_dims,
    expected_quotients,
    family_genus,
    family_labels,
)


def Q(n):
    return build_quaternion(n)


# -- signatures ---------------------------------------------------------------


def test_genus_from_signature_examples():
    assert genus_from_signature(16, Signature(0, (4, 4, 4, 4))) == 9
    assert genus_from_signature(16, Signature(1, (4,))) == 7
    for n in (3, 4, 5):
        for b in range(5):
            g = genus_from_signature(2**n, sigma_b(n, b))
            assert g == 2 ** (n - 2) * (b + 1)
    # non-integral case
    assert genus_from_signature(8, Signature(0, (2, 4, 4))) is None


def test_integer_riemann_hurwitz_matches_the_fraction_oracle():
    """Every signature of at most five periods, including periods that do
    not divide |G|, over group orders with and without odd factors."""
    periods = (2, 3, 4, 5, 6, 8, 16, 64)
    cases = 0
    for order in (1, 2, 6, 8, 12, 16, 32, 64):
        for gamma in (0, 1, 2):
            for s in range(6):
                for ks in itertools.combinations_with_replacement(periods, s):
                    sig = Signature(gamma, ks)
                    assert genus_from_signature(order, sig) == genus_by_fraction(order, sig), (order, sig)
                    cases += 1
    assert cases == 8 * 3 * 1287


def test_signature_mu_and_dimension():
    """mu in integers over the lcm of the periods is the Fraction oracle's,
    and the census's signatures are of dimension 3 gamma - 3 + l = 1."""
    sig = Signature(0, (4, 4, 4, 4))
    assert mu_by_fraction(sig) == Fraction(2 * 0 - 2) + 4 * Fraction(3, 4) == Fraction(*_mu_over_lcm(sig))
    for gamma in (0, 1, 2):
        for s in range(6):
            for ks in itertools.combinations_with_replacement((2, 3, 4, 6, 8, 64), s):
                assert Fraction(*_mu_over_lcm(Signature(gamma, ks))) == mu_by_fraction(Signature(gamma, ks))
    signatures = {f.signature for f in one_dimensional_families(4)}
    assert {3 * s.gamma - 3 + len(s.periods) for s in signatures} == {1}
    assert {sig, Signature(1, (4,))} <= signatures


def test_is_sigma_b():
    assert is_sigma_b(4, Signature(0, (2, 4, 4, 8))) == 1
    assert is_sigma_b(4, Signature(0, (4, 4, 8))) == 0
    assert is_sigma_b(4, Signature(0, (4, 4, 4, 4))) is None
    assert is_sigma_b(3, Signature(0, (4, 4, 4))) == 0


# -- ske validation -----------------------------------------------------------


def test_validate_family_representatives():
    for n in (3, 4, 5):
        for label in family_labels(n):
            ske = family_representative(n, label)
            ok, msg = validate_ske(ske)
            assert ok, (n, label, msg)


@lru_cache(maxsize=None)
def _census(n):
    return one_dimensional_families(n)


def test_family_labels_name_the_census():
    """The family table names the census: its labels are the census labels,
    each representative's signature reads back as its label, and each
    record carries the printed stratum bound.  F2 has no census
    representative below n = 4, where its signature is F1's."""
    for n in (3, 4, 5, 6):
        labels = actions.family_labels(n)
        assert labels == family_labels(n)
        assert sorted(labels) == sorted(f.label for f in _census(n))
        for label in labels:
            assert family_label(n, family_representative(n, label).signature) == label
        printed = {"F0": 1, "F1": 1, "F2": 2 ** (n - 2), **{f"C{k}": 2 ** (n - k - 1) for k in range(2, n)}}
        assert {f.label: f.stratum_bound for f in _census(n)} == {label: printed[label] for label in labels}
    # the genus is part of the key: (1; 4,4,4,4) is not F1
    assert family_label(4, Signature(1, (4, 4, 4, 4))) == "sig(1; 4,4,4,4)"
    with pytest.raises(ValueError, match="no family F2 at n=3"):
        family_representative(3, "F2")


def test_invalid_product_example():
    G = Q(4)
    x, y = G.generators
    ske = Ske(G, Signature(0, (8, 8, 4, 4)), (), (x, x, y, y))
    ok, msg = validate_ske(ske)
    assert not ok and "long relation" in msg


def test_wrong_order_diagnostic():
    G = Q(4)
    x, y = G.generators
    ske = Ske(G, Signature(0, (4, 8, 4, 4)), (), (x, x, y, y))
    ok, msg = validate_ske(ske)
    assert not ok and "order" in msg


def test_non_generating_diagnostic():
    G = Q(4)
    x = G.generators[0]
    ske = Ske(G, Signature(0, (8, 8)), (), (x, G.inv[x]))
    ok, msg = validate_ske(ske)
    assert not ok and "generate" in msg


# -- braid moves ---------------------------------------------------------------


def _braided(ske, i):
    """The ske after the braid move on elliptic slots i, i + 1 (1-indexed)."""
    t = _braid_moves(ske.group, len(ske.elliptic))[i - 1](ske.elliptic)
    return Ske(ske.group, Signature(0, tuple(ske.group.orders[g] for g in t)), (), t)


def test_braid_example_from_theta():
    G = Q(4)
    theta = extension_data(4, "F1", "G1")[0]  # (xy, y, y^-1, x y^-1)
    out = _braided(theta, 1)
    x, y = G.generators
    expected = (
        y,
        G.cayley[G.inv[x]][y],
        G.inv[y],
        G.cayley[x][G.inv[y]],
    )
    assert out.elliptic == expected
    ok, _ = validate_ske(out)
    assert ok


def test_braid_preserves_validity_and_is_orbit_move():
    G = Q(4)
    theta = family_representative(4, "F1")
    t1 = _braided(theta, 2)
    t2 = _braided(t1, 2)
    for t in (t1, t2):
        ok, _ = validate_ske(t)
        assert ok


def test_phi3_squared_shifts_p_by_two():
    for n in (4, 5):
        G = Q(n)
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
            out = _braided(_braided(theta, 3), 3)
            expected = Ske(
                G,
                Signature(0, (4, 4, 4, 4)),
                (),
                (
                    G.cayley[x][y],
                    y,
                    G.cayley[G.power(x, p + 2)][y],
                    G.cayley[G.power(x, p + 3)][y],
                ),
            )
            assert out.elliptic == expected.elliptic


def test_orbit_moves_reject_other_signatures():
    for sig in (Signature(2, ()), Signature(1, (4, 4))):
        with pytest.raises(UnsupportedMove):
            _orbit_moves(Q(4), sig)


# -- classification -------------------------------------------------------------


def test_classification_counts():
    assert classify(Q(4), Signature(0, (4, 4, 4, 4))).orbit_count == 1
    assert classify(Q(3), Signature(0, (4, 4, 4, 4))).orbit_count == 1
    assert classify(Q(4), Signature(1, (4,))).orbit_count == 1
    rep = classify(Q(4), Signature(0, (8, 8, 4, 4)))
    assert 1 <= rep.orbit_count <= 4
    assert rep.orbit_count == 2  # recorded exact value (bound from the census is 4)


def test_classification_is_deterministic():
    a = classify(Q(4), Signature(0, (8, 8, 4, 4)))
    b = classify(Q(4), Signature(0, (8, 8, 4, 4)))
    assert a.orbit_count == b.orbit_count
    assert [r.elliptic for r in a.representatives] == [r.elliptic for r in b.representatives]


def _partition(nodes, moves, order=None):
    """The orbits of `nodes`, by looping the orbit helper over them."""
    parts = []
    unvisited = set(nodes)
    for start in order or nodes:
        if start in unvisited:
            orbit = _orbit(start, moves, nodes)
            unvisited -= orbit
            parts.append(frozenset(orbit))
    return parts


def _union_find_partition(nodes, moves):
    """Reference partition from every edge t -- move(t), without any BFS."""
    parent = {t: t for t in nodes}

    def root(t):
        while parent[t] != t:
            parent[t] = parent[parent[t]]
            t = parent[t]
        return t

    for t in nodes:
        for mv in moves:
            parent[root(t)] = root(mv(t))
    parts = {}
    for t in nodes:
        parts.setdefault(root(t), set()).add(t)
    return {frozenset(p) for p in parts.values()}


def test_orbit_partition_independent_of_enumeration_order():
    G = Q(4)
    nodes = set(iter_valid_tuples(G, (4, 4, 4, 4)))
    moves = _braid_moves(G, 4) + aut_moves(aut_generators(G))
    base = _partition(nodes, moves)
    shuffled = list(nodes)
    random.Random(5).shuffle(shuffled)
    again = _partition(set(shuffled), list(reversed(moves)), order=shuffled)
    assert sorted(map(min, base)) == sorted(map(min, again))


@lru_cache(maxsize=None)
def _census_tuples(n):
    """Every valid tuple of the F1 signature (0; 4,4,4,4) and of the
    genus-one signature (1; 2^(n-2))."""
    G = Q(n)
    return list(iter_valid_tuples(G, (4, 4, 4, 4))) + list(iter_genus_one_triples(G, 2 ** (n - 2)))


@pytest.mark.parametrize("n,order", [(3, 24), (4, 32), (5, 128), (6, 512)])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_canon_is_constant_on_aut_classes(n, order, data):
    """`_canon` gives every Aut-image of a valid tuple the same form, and that
    form is the least Aut-image of the tuple."""
    G = Q(n)
    auts = automorphisms(G)
    assert len(auts) == order
    t = data.draw(st.sampled_from(_census_tuples(n)))
    p = data.draw(st.sampled_from(auts))
    canon = _canon(G, t)
    assert _canon(G, tuple(p[g] for g in t)) == canon
    assert canon == min(tuple(q[g] for g in t) for q in auts)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_classify_matches_the_full_tuple_search(n):
    """On every one-dimensional signature, the search on Aut-classes reports
    what the search on every tuple with Aut-generator moves reports."""
    G = Q(n)
    avail = sorted({G.orders[g] for g in range(1, G.order)})
    sigs = [Signature(0, ks) for ks in itertools.combinations_with_replacement(avail, 4)]
    sigs += [Signature(1, (k,)) for k in avail]
    nonempty = 0
    for sig in sigs:
        if genus_from_signature(G.order, sig) is None:
            continue
        report = classify(G, sig)
        assert report == classify_on_tuples(G, sig), sig
        nonempty += report.total > 0
    assert nonempty == len(one_dimensional_families(n))


def _signature_tuples(G, sig):
    """Every valid tuple of sig, over all arrangements of its periods."""
    if sig.gamma == 1:
        return list(iter_genus_one_triples(G, sig.periods[0]))
    arrangements = sorted(set(itertools.permutations(sig.periods)))
    return [t for arr in arrangements for t in iter_valid_tuples(G, arr)]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_classify_matches_the_canon_route(n):
    """Keeping the tuples that are their own lex-least Aut-image, with each
    orbit's least class as its representative, reports what relabelling
    every tuple by `_canon` and minimising over orbit x Aut(G) reports, on
    every census signature and every genus-one signature."""
    G = Q(n)
    avail = sorted({G.orders[g] for g in range(1, G.order)})
    sigs = [f.signature for f in one_dimensional_families(n)]
    sigs += [Signature(1, (k,)) for k in avail if Signature(1, (k,)) not in sigs]
    for sig in sigs:
        assert classify(G, sig).to_json() == classify_by_canon(G, sig).to_json(), sig


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_classify_matches_the_filter_oracle(n):
    """The stabilizer chain with the class count from `count_valid_tuples`
    reports what walking every valid tuple and keeping its `_canon` fixed
    points reports, on every census signature and every genus-one
    signature."""
    G = Q(n)
    avail = sorted({G.orders[g] for g in range(1, G.order)})
    sigs = [f.signature for f in one_dimensional_families(n)]
    sigs += [Signature(1, (k,)) for k in avail if Signature(1, (k,)) not in sigs]
    for sig in sigs:
        assert classify(G, sig).to_json() == classify_by_filter(G, sig).to_json(), sig


@pytest.mark.parametrize("n,periods", [
    (4, (2, 4, 4, 8, 8)),    # slot 0 is the central involution: H_1 is Aut(G)
    (4, (2, 2, 4, 4, 8)),    # two central slots: H_2 is still Aut(G)
    (4, (4, 4, 4, 4, 4)),    # y, x^2 leave a stabilizer of order 2 for slot 2
    (5, (2, 2, 4, 4, 16)),
    (5, (2, 4, 4, 16, 16)),
    (5, (4, 4, 4, 8, 16)),
])
def test_classify_matches_the_filter_oracle_on_five_periods(n, periods):
    G = Q(n)
    sig = Signature(0, periods)
    report = classify(G, sig)
    assert report.total > 0
    assert report.to_json() == classify_by_filter(G, sig).to_json()


@pytest.mark.parametrize("n", [3, 4, 5])
def test_pointwise_stabilizer_by_brute_force(n):
    """For every set of at most two elements, the stabilizer is the
    automorphisms fixing each of them, in `automorphisms` order (all of
    Aut(G) when nothing is fixed); its orbit minima are the elements no
    member of it lowers; and each element's transversal member lies in the
    stabilizer and takes the least of the element's orbit to it."""
    G = Q(n)
    auts = automorphisms(G)
    for size in (0, 1, 2):
        for fixed in itertools.combinations(range(G.order), size):
            stab, least, link = _pointwise_stabilizer(G, frozenset(fixed))
            assert stab == [p for p in auts if all(p[g] == g for g in fixed)], fixed
            minimum = [min(p[g] for p in stab) for g in G]
            assert least == {g for g in G if minimum[g] == g}, fixed
            members = set(stab)
            for g in G:
                assert link[g] in members and link[g][minimum[g]] == g, (fixed, g)


def _class_nodes(G, sig):
    """The tuples `classify` searches on for sig, one per Aut-class."""
    if sig.gamma == 1:
        return list(_genus_one_classes(G, sig.periods[0]))
    return [t for arrangement in _arrangements(sig.periods) for t in _class_tuples(G, arrangement)]


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("order", ["reversed", "shuffled"])
def test_canon_and_classify_ignore_the_transversal_choice(n, order, monkeypatch):
    """Listing Aut(G) in another order changes which stabilizer member links
    each element to its orbit minimum.  That changes neither `_canon` of any
    census class node or of an Aut-image of it, nor any census report."""
    G = Q(n)
    sigs = [f.signature for f in one_dimensional_families(n)]
    nodes = {sig: _class_nodes(G, sig) for sig in sigs}
    reports = {sig: classify(G, sig).to_json() for sig in sigs}
    auts = automorphisms(G)
    rng = random.Random(7)
    listed = auts[::-1] if order == "reversed" else rng.sample(auts, len(auts))
    try:
        with monkeypatch.context() as patch:
            patch.setattr(actions, "automorphisms", lambda H: listed if H is G else automorphisms(H))
            _pointwise_stabilizer.cache_clear()
            for sig in sigs:
                for t in nodes[sig]:
                    p = rng.choice(auts)
                    assert _canon(G, t) == t, (sig, t)
                    assert _canon(G, tuple(p[g] for g in t)) == t, (sig, t, p)
                assert classify(G, sig).to_json() == reports[sig], sig
    finally:
        _pointwise_stabilizer.cache_clear()


@pytest.mark.parametrize("n", [3, 4, 5])
def test_canon_is_the_least_aut_image(n):
    """`_canon(G, t)` is the least of t's Aut-images, by brute force over
    Aut(G): on every valid tuple of every census signature at n = 3 and 4,
    and at n = 5 on the census class nodes, the tuples that are their own
    `_canon` form, one per |Aut| tuples."""
    G = Q(n)
    auts = automorphisms(G)
    for fam in one_dimensional_families(n):
        tuples = _signature_tuples(G, fam.signature)
        if n == 5:
            nodes = [t for t in tuples if _canon(G, t) == t]
            assert len(nodes) * len(auts) == len(tuples)
            tuples = nodes
        for t in tuples:
            assert _canon(G, t) == min(tuple(p[g] for g in t) for p in auts), t


@pytest.mark.parametrize("n", [3, 4])
def test_generator_orbits_equal_full_aut_orbits(n):
    """For every census signature, the orbits under the Aut generators are
    the orbits under all of Aut(G), and classify reports exactly those."""
    G = Q(n)
    full_aut = aut_moves(automorphisms(G))
    gammas = set()
    for fam in one_dimensional_families(n):
        sig = fam.signature
        nodes = set(_signature_tuples(G, sig))
        base = _braid_moves(G, len(sig.periods)) if sig.gamma == 0 else _genus_one_moves(G)
        reference = _union_find_partition(nodes, base + full_aut)
        assert set(_partition(nodes, base + aut_moves(aut_generators(G)))) == reference, sig
        ordered = sorted(reference, key=min)
        report = classify(G, sig)
        assert report.orbit_sizes == tuple(len(o) for o in ordered)
        assert [r.hyperbolic + r.elliptic for r in report.representatives] == [min(o) for o in ordered]
        gammas.add(sig.gamma)
    assert gammas == {0, 1}


def test_dropped_tuple_fails_the_class_count(monkeypatch):
    """Every Aut-class holds |Aut| valid skes, so a count short by one lost
    ske is caught."""
    G = Q(4)
    real = count_valid_tuples
    monkeypatch.setattr("qact.actions.count_valid_tuples", lambda *args: real(*args) - 1)
    with pytest.raises(RuntimeError, match="do not fill"):
        classify(G, Signature(0, (4, 4, 4, 4)))


def test_orbit_move_leaving_valid_set_raises(monkeypatch):
    G = Q(4)
    sig = Signature(0, (4, 4, 4, 4))
    nodes = {_canon(G, t) for t in iter_valid_tuples(G, sig.periods)}
    start = min(nodes)
    moves = _orbit_moves(G, sig)
    neighbour = next(mv(start) for mv in moves if mv(start) != start)
    with pytest.raises(RuntimeError, match="left the valid ske set"):
        _orbit(start, moves, nodes - {neighbour})

    # a whole Aut-class lost by the chain, and by the count with it, passes
    # the class count, but the search still meets it
    dropped = max(nodes)
    real_chain, real_count = _class_tuples, count_valid_tuples
    monkeypatch.setattr(
        "qact.actions._class_tuples",
        lambda *args: (t for t in real_chain(*args) if t != dropped),
    )
    monkeypatch.setattr(
        "qact.actions.count_valid_tuples",
        lambda *args: real_count(*args) - len(automorphisms(G)),
    )
    with pytest.raises(RuntimeError, match="left the valid ske set"):
        classify(G, sig)


@given(st.lists(st.sampled_from([2, 4, 8]), max_size=6))
def test_arrangements_walk_the_distinct_orderings_in_lex_order(periods):
    periods = tuple(periods)
    assert list(_arrangements(periods)) == sorted(set(itertools.permutations(periods)))


def test_budget_guard():
    """The candidates are the ten order-4 elements of Q16 in each of the
    first three slots; the last is solved from the long relation.  Over a
    genus-one quotient they are the |G|^2 pairs (a, b)."""
    with pytest.raises(BudgetExceeded, match="^1000 candidates exceed budget 10$"):
        classify(Q(4), Signature(0, (4, 4, 4, 4)), max_candidates=10)
    with pytest.raises(BudgetExceeded, match="^256 candidates exceed budget 255$"):
        classify(Q(4), Signature(1, (4,)), max_candidates=255)
    assert classify(Q(4), Signature(1, (4,)), max_candidates=256).orbit_count == 1


def test_enumerator_matches_brute_force():
    """The DFS yields each valid tuple once, and exactly the tuples of the
    order buckets that validate_ske accepts, for every ordered arrangement of
    3 and 4 periods at n = 3 and 4."""
    total = 0
    for n in (3, 4):
        G = Q(n)
        orders = sorted({G.orders[g] for g in range(1, G.order)})
        for s in (3, 4):
            for periods in itertools.product(orders, repeat=s):
                found = list(iter_valid_tuples(G, periods))
                assert len(found) == len(set(found)), periods
                buckets = [[g for g in range(G.order) if G.orders[g] == k] for k in periods]
                brute = {
                    t for t in itertools.product(*buckets)
                    if validate_ske(Ske(G, Signature(0, periods), (), t))[0]
                }
                assert set(found) == brute, periods
                total += len(found)
    assert total == 2664


def _reference_tuples(G, periods):
    """The enumerator before its tail cache, kept as the reference: plain
    recursive DFS, one `yield from` frame per slot, the last slot solved
    from the long relation (its budget check omitted)."""
    s = len(periods)
    if s < 2:
        return
    cayley = G.cayley
    inv = G.inv
    orders = G.orders
    masks, full = _maximal_masks(G)
    buckets = [[g for g in range(G.order) if orders[g] == k] for k in periods]
    if any(not b for b in buckets):
        return
    k_last = periods[-1]

    def rec(slot: int, pre: tuple[int, ...], pr: int, mk: int):
        bucket = buckets[slot]
        if slot == s - 2:
            row = cayley[pr]
            for g in bucket:
                last = inv[row[g]]
                if orders[last] != k_last:
                    continue
                if mk & masks[g] & masks[last]:
                    continue
                yield pre + (g, last)
            return
        for g in bucket:
            yield from rec(slot + 1, pre + (g,), cayley[pr][g], mk & masks[g])

    yield from rec(0, (), 0, full)


def test_enumerator_sequence_matches_the_reference_dfs():
    """Same tuples in the same (lexicographic) order as the plain DFS, for
    every sorted multiset of up to 5 periods at n = 3..5, every ordered
    arrangement of 2 periods, and periods with an empty order bucket."""
    total = 0
    for n in (3, 4, 5):
        G = Q(n)
        orders = sorted({G.orders[g] for g in range(1, G.order)})
        cases = [ms for s in range(1, 6) for ms in itertools.combinations_with_replacement(orders, s)]
        cases += list(itertools.product(orders, repeat=2))
        cases += [(3, 4, 4), (4, 4, 2 * G.order), (4, 3)]
        for periods in cases:
            found = list(iter_valid_tuples(G, periods))
            assert found == list(_reference_tuples(G, periods)), (n, periods)
            assert found == sorted(found), (n, periods)
            total += len(found)
    assert total == 124296


def test_chain_off_walk_is_the_enumerator():
    """With the stabilizer chain off, `_class_tuples` yields the enumerator
    oracle's list, in the same order, for every ordered list of 3 or 4
    periods and every sorted list of 5 at n = 3..5: the scan's mismatch
    listing reads it."""
    lists = 0
    for n in (3, 4, 5):
        G = Q(n)
        orders = sorted({G.orders[g] for g in range(1, G.order)})
        cases = [p for s in (3, 4) for p in itertools.product(orders, repeat=s)]
        cases += list(itertools.combinations_with_replacement(orders, 5))
        for periods in cases:
            walked = list(_class_tuples(G, periods, chain=False))
            assert walked == list(iter_valid_tuples(G, periods)), (n, periods)
            lists += 1
    assert lists == 535


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_genus_one_count_is_the_pair_walk(n):
    """For gamma = 1 the formula counts the triples of the genus-one pair
    walk, for every period k an element has: `classify` takes the gamma = 1
    total from it."""
    G = Q(n)
    for k in sorted(set(G.orders) - {1}):
        walked = sum(1 for _ in iter_genus_one_triples(G, k))
        assert count_valid_tuples(n, Signature(1, (k,))) == walked, k


@pytest.mark.parametrize("periods, walked", [((), 1440), ((2,), 1920), ((4,), 0)])
def test_genus_two_count_at_n3_by_brute_force(periods, walked):
    """The formula holds at any genus: at n = 3 and gamma = 2, the images of
    a_1, b_1, a_2, b_2 and of at most one elliptic generator, over all 8^4
    quadruples, generating with product one."""
    G = Q(3)
    masks, _ = _maximal_masks(G)
    found = 0
    for a1, b1, a2, b2 in itertools.product(range(G.order), repeat=4):
        pr = G.cayley[G.commutator(a1, b1)][G.commutator(a2, b2)]
        mk = masks[a1] & masks[b1] & masks[a2] & masks[b2]
        last = G.inv[pr]
        if periods:
            found += G.orders[last] == periods[0] and not mk & masks[last]
        else:
            found += last == 0 and not mk
    assert found == walked
    assert count_valid_tuples(3, Signature(2, periods)) == walked


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_counter_matches_the_enumerator(data):
    """`count_valid_tuples` is the number of tuples `iter_valid_tuples`
    yields, for drawn period lists of 2 to 5 periods at n = 3..5, in any
    order."""
    n = data.draw(st.integers(3, 5))
    G = Q(n)
    orders = sorted({G.orders[g] for g in range(1, G.order)})
    periods = tuple(data.draw(st.lists(st.sampled_from(orders), min_size=2, max_size=5)))
    assert count_valid_tuples(n, Signature(0, periods)) == sum(1 for _ in iter_valid_tuples(G, periods))


def test_counter_matches_hall_inversion():
    """The closed-form count equals the (product, mask) DP and Hall's Moebius
    inversion, which counts product-one tuples in the subgroups over Phi(G)
    with no generation test, on every sorted signature of 2 to 7 periods at
    n = 3..6, and on period lists with an order no element has."""
    checked = 0
    for n in (3, 4, 5, 6):
        G = Q(n)
        orders = sorted({G.orders[g] for g in range(1, G.order)})
        cases = [ms for s in range(2, 8) for ms in itertools.combinations_with_replacement(orders, s)]
        cases += [(3, 4, 4), (4, 4, 2 * G.order), (4, 3)]
        for periods in cases:
            count = count_valid_tuples(n, Signature(0, periods))
            assert count == count_by_dp(G, periods) == count_by_hall(G, periods), (n, periods)
            checked += 1
    assert checked == 1272


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_counter_matches_the_dp_on_every_census_arrangement(n):
    """On every ordering of every genus-zero signature the census classifies
    (four periods, integral genus, skes or none) the count is the DP's:
    `classify` counts each signature once, for all its arrangements."""
    G = Q(n)
    avail = sorted({G.orders[g] for g in range(1, G.order)})
    arrangements = 0
    for multiset in itertools.combinations_with_replacement(avail, 4):
        sig = Signature(0, multiset)
        if genus_from_signature(G.order, sig) is None:
            continue
        count = count_valid_tuples(n, sig)
        for periods in _arrangements(multiset):
            assert count_by_dp(G, periods) == count, periods
            arrangements += 1
    assert arrangements == {3: 15, 4: 80, 5: 255, 6: 624}[n]


def test_closed_form_matches_the_valuation_loops():
    """Each subgroup's count, with its characters summed in closed form, is
    the sum over the 2-adic valuations of t, for Q(2^m), m = 2..8, and
    C_N, N = 2^(m-1), at gamma = 0..2, on every sorted list of up to 7
    periods from the element orders, and on lists with an order of no
    element (3 or 2^m)."""
    checked = 0
    for m in range(2, 9):
        N = 2 ** (m - 1)
        orders = sorted({2 ** j for j in range(1, m)} | {4})
        cases = [ms for s in range(8) for ms in itertools.combinations_with_replacement(orders, s)]
        cases += [ms + (bad,) for bad in (3, 2 ** m) for s in range(4)
                  for ms in itertools.combinations_with_replacement(orders, s)]
        for periods in cases:
            mult = {k: periods.count(k) for k in set(periods)}
            for gamma in (0, 1, 2):
                assert actions._quaternion_count(m, gamma, mult) == quaternion_count_by_valuation(m, gamma, mult)
                assert actions._cyclic_count(N, gamma, mult) == cyclic_count_by_valuation(N, gamma, mult)
                checked += 1
    assert checked == 21396


# observed, not a theorem: at n = 3..6 the Frattini test rules out every
# empty candidate of the census, 2, 10, 29 and 63 of them
CENSUS_RULED_OUT = {3: 2, 4: 10, 5: 29, 6: 63}


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_the_frattini_test_rules_out_only_empty_signatures(n):
    """Every sorted signature of 3 to 7 periods that `_generates_mod_frattini`
    rules out has no valid tuple by the (product, mask) DP.  On the census's
    four-period candidates of integral genus it rules out the empty ones
    (`CENSUS_RULED_OUT`), so `classify` walks none of them."""
    G = Q(n)
    avail = sorted({G.orders[g] for g in range(1, G.order)})
    for s in range(3, 8):
        for periods in itertools.combinations_with_replacement(avail, s):
            if not _generates_mod_frattini(G, periods):
                assert count_by_dp(G, periods) == 0, periods
    ruled_out = empty = 0
    for periods in itertools.combinations_with_replacement(avail, 4):
        sig = Signature(0, periods)
        if genus_from_signature(G.order, sig) is not None:
            ruled_out += not _generates_mod_frattini(G, periods)
            empty += count_valid_tuples(n, sig) == 0
    assert ruled_out == empty == CENSUS_RULED_OUT[n]


def test_the_frattini_test_needs_the_running_product():
    """(0; 2,2,4,8) is ruled out at n = 4 and n = 5.  At n = 4 an element of
    order 8 maps to x and one of order 4 to y or x y, so the images span
    G/Phi = C2^2 but cannot sum to 0; at n = 5 the elements of order 8 lie
    in Phi and the images cannot span.  (0; 2,4,4,8), the family C3 at
    n = 4, passes."""
    assert not _generates_mod_frattini(Q(4), (2, 2, 4, 8))
    assert not _generates_mod_frattini(Q(5), (2, 2, 4, 8))
    assert _generates_mod_frattini(Q(4), (2, 4, 4, 8))
    assert classify(Q(5), Signature(0, (2, 2, 4, 8))).total == 0


@pytest.mark.parametrize("name", ["C4xC2_rtimes_C2", "D4xC2_rtimes_C2"])
def test_the_frattini_test_refuses_a_quotient_other_than_c2_squared(name):
    with pytest.raises(RuntimeError, match="has 8 elements, not 4"):
        _generates_mod_frattini(build_named(name), (2, 2, 4))


def test_an_inexact_count_raises(monkeypatch):
    """Every division in the count must be exact: a Ramanujan product off
    by one on the multiples of the largest period leaves a remainder, which
    raises instead of rounding."""
    real = actions._ramanujan_classes

    def off_by_one(N, mult):
        K, P, Q = real(N, mult)
        return K, P + 1, Q

    monkeypatch.setattr(actions, "_ramanujan_classes", off_by_one)
    with pytest.raises(RuntimeError, match="is not an integer"):
        count_valid_tuples(4, Signature(0, (4, 8, 8)))


# -- the family census ----------------------------------------------------------


def test_census_n4():
    fams = one_dimensional_families(4)
    by_label = {f.label: f for f in fams}
    assert len(fams) == 5
    assert set(by_label) == {"F0", "F1", "F2", "C2", "C3"}
    assert by_label["F0"].signature == Signature(1, (4,))
    assert by_label["F1"].signature.sorted_periods() == (4, 4, 4, 4)
    assert by_label["F2"].signature.sorted_periods() == (4, 4, 8, 8)
    assert by_label["C2"].signature.sorted_periods() == (4, 4, 4, 8)
    assert by_label["C3"].signature.sorted_periods() == (2, 4, 4, 8)
    genera = {l: by_label[l].genus for l in by_label}
    assert genera == {"F0": 7, "F1": 9, "F2": 11, "C2": 10, "C3": 8}
    assert by_label["F0"].orbit_count == 1
    assert by_label["F1"].orbit_count == 1
    assert by_label["C3"].orbit_count == 1
    assert by_label["F2"].orbit_count <= 4
    assert by_label["C2"].orbit_count <= 2


def test_census_n3():
    fams = one_dimensional_families(3)
    assert len(fams) == 3
    by_label = {f.label: f for f in fams}
    assert set(by_label) == {"F0", "F1", "C2"}
    assert by_label["F0"].genus == 3
    assert by_label["F1"].genus == 5
    assert by_label["C2"].genus == 4
    assert all(f.orbit_count == 1 for f in fams)


def test_census_n6():
    fams = _census(6)
    assert len(fams) == 7
    by_label = {f.label: f for f in fams}
    assert set(by_label) == {"F0", "F1", "F2", "C2", "C3", "C4", "C5"}
    for f in fams:
        if f.stratum_bound is not None:
            assert f.orbit_count <= f.stratum_bound
    assert by_label["F0"].orbit_count == 1
    assert by_label["F1"].orbit_count == 1
    assert by_label["C5"].orbit_count == 1
    # exact values of the full-Aut(G) engine
    orbits = {"F0": 1, "F1": 1, "F2": 5, "C2": 4, "C3": 2, "C4": 1, "C5": 1}
    skes = {"F0": 1536, "F1": 24576, "F2": 49152, "C2": 49152, "C3": 24576, "C4": 12288, "C5": 6144}
    assert {l: f.orbit_count for l, f in by_label.items()} == orbits
    assert {l: f.ske_count for l, f in by_label.items()} == skes


def test_census_excludes_empty_signatures():
    """Admissible one-dimensional signatures outside the census carry no skes."""
    import itertools

    n = 4
    G = Q(n)
    census = {f.signature.sorted_periods() for f in one_dimensional_families(n) if f.signature.gamma == 0}
    avail = sorted({G.orders[g] for g in range(1, G.order)})
    for multiset in itertools.combinations_with_replacement(avail, 4):
        sig = Signature(0, multiset)
        if genus_from_signature(G.order, sig) is None:
            continue
        if multiset in census:
            continue
        assert classify(G, sig).total == 0, multiset


def test_family_representatives_live_in_their_orbits():
    # the two printed F1 skes are braid x Aut equivalent; record that here
    for n in (4, 5):
        a = family_representative(n, "F1")
        b = extension_data(n, "F1", "G1")[0]
        assert _in_class_orbit(b, a)


# -- genus-zero actions ----------------------------------------------------------


def test_witnesses_validate_and_are_genus_zero():
    for n in (3, 4, 5):
        G = Q(n)
        for b in range(5):
            w = witness_eta(G, b)
            ok, msg = validate_ske(w)
            assert ok, (n, b, msg)
            assert is_genus_zero_action(w)
            assert genus_from_signature(G.order, w.signature) == 2 ** (n - 2) * (b + 1)


def test_genus_zero_records():
    recs = genus_zero_actions(3, 4)
    assert [r.genus for r in recs] == [2, 4, 6, 8, 10]
    assert recs[0].signature.sorted_periods() == (4, 4, 4)
    assert all(r.witness_valid and r.witness_genus_zero for r in recs)


def test_z_quotient_period_count_identity():
    """d = a 2^(n-2) + b 2^(n-1) + sum c_k 2^k for the sigma_b witnesses."""
    for n in (3, 4):
        G = Q(n)
        for b in range(5):
            w = witness_eta(G, b)
            d = len(quotient_data(w, named_subgroups(G)["Z"]).periods)
            # sigma_b has a = 2 outside-fours, b twos, c_1 = 1
            assert d == 2 * 2 ** (n - 2) + b * 2 ** (n - 1) + 2


def test_genus_zero_from_s_z_matches_the_subgroup_sweep():
    """The definition as an oracle: on every valid gamma = 0 tuple at n = 3 (up
    to 5 periods) and n = 4 (up to 4), S_K is rational for every named
    subgroup K exactly when is_genus_zero_action (S_Z alone) says so."""
    tuples = 0
    verdicts = set()
    for n, max_periods in ((3, 5), (4, 4)):
        G = Q(n)
        subs = list(named_subgroups(G).values())
        avail = sorted({G.orders[g] for g in range(1, G.order)})
        for s in range(3, max_periods + 1):
            for periods in itertools.combinations_with_replacement(avail, s):
                sig = Signature(0, periods)
                if genus_from_signature(G.order, sig) is None:
                    continue
                for t in iter_valid_tuples(G, periods):
                    ske = Ske(G, sig, (), t)
                    swept = all(quotient_data(ske, K).genus == 0 for K in subs)
                    assert swept == is_genus_zero_action(ske), (n, t)
                    verdicts.add(swept)
                    tuples += 1
    assert tuples == 2088
    assert verdicts == {True, False}


def test_exhaustive_scan_small():
    scan = genus_zero_exhaustive_scan(3, max_periods=5)
    assert scan.ok
    assert scan.sigma_b_values_seen[:3] == [0, 1, 2]


def test_exhaustive_scan_reports_the_first_20_mismatches(monkeypatch):
    """With no signature recognised as a sigma_b, every genus-zero ske is a
    mismatch; the report keeps the first 20 in enumeration order, all from
    the 24 tuples of (0; 4, 4, 4)."""
    monkeypatch.setattr("qact.actions.is_sigma_b", lambda n, sig: None)
    scan = genus_zero_exhaustive_scan(3, max_periods=4)
    assert (scan.skes_checked, scan.ok, scan.sigma_b_values_seen) == (192, False, [])
    skes = [
        "y x x*y", "y x*y x^3", "y x^3 x^3*y", "y x^3*y x",
        "x y x^3*y", "x x*y y", "x x^2*y x*y", "x x^3*y x^2*y",
        "x*y y x", "x*y x x^2*y", "x*y x^2*y x^3", "x*y x^3 y",
        "x^2*y x x^3*y", "x^2*y x*y x", "x^2*y x^3 x*y", "x^2*y x^3*y x^3",
        "x^3 y x*y", "x^3 x*y x^2*y", "x^3 x^2*y x^3*y", "x^3 x^3*y y",
    ]
    assert scan.mismatches == [
        {
            "signature": {"genus": 0, "periods": [4, 4, 4]},
            "ske": ske.split(),
            "genus_zero": True,
            "sigma_b": None,
        }
        for ske in skes
    ]


def test_scan_fast_path_matches_coset_machinery():
    """The scan's per-signature S_Z genus, and the coset-cycle genus at other
    subgroups, agree with quotient_data on every valid tuple of sigma_b and
    non-sigma_b signatures."""
    from qact.actions import _genus_from_cycles, _z_cycles_by_order
    from qact.groups import coset_cycles

    G = Q(4)
    subs = named_subgroups(G)
    zset = subs["Z"]
    zcyc = _z_cycles_by_order(G, zset)
    others = [subs[l] for l in ("H2", "K3", "Ht3")]
    z_genera = {}
    signatures = [
        (4, 4, 8), (2, 4, 4, 8), (2, 2, 4, 4, 8),  # sigma_0, sigma_1, sigma_2
        (4, 4, 4, 4), (4, 4, 4, 8), (4, 4, 8, 8), (2, 4, 4, 4, 8),
    ]
    for periods in signatures:
        gz = _genus_from_cycles(G.order // len(zset), 0, [zcyc[k] for k in periods])
        count = 0
        for t in iter_valid_tuples(G, periods):
            ske = Ske(G, Signature(0, periods), (), t)
            assert quotient_data(ske, zset).genus == gz
            for K in others:
                cycles = coset_cycles(G, K)
                fast = _genus_from_cycles(G.order // len(K), 0, [len(cycles[g]) for g in t])
                assert fast == quotient_data(ske, K).genus
            count += 1
        assert count > 0
        z_genera[periods] = gz
    assert sorted(set(z_genera.values())) == [0, 1, 2, 3]


def test_scan_raises_if_z_cycles_depend_on_more_than_order(monkeypatch):
    from qact import actions

    real = actions.coset_cycles
    G = Q(4)
    x = G.generators[0]
    zset = named_subgroups(G)["Z"]

    def skewed(G, kset):
        table = list(real(G, kset))
        if kset == zset:
            table[x] += (1,)
        return tuple(table)

    monkeypatch.setattr(actions, "coset_cycles", skewed)
    with pytest.raises(RuntimeError, match="not a function of the element order"):
        genus_zero_exhaustive_scan(4, max_periods=4)


def test_scan_raises_on_riemann_hurwitz_parity_failure(monkeypatch):
    """An odd Riemann-Hurwitz numerator is an error, not a floored genus."""
    from qact import actions

    real = actions.coset_cycles
    G = Q(3)
    zset = named_subgroups(G)["Z"]

    def skewed(G, kset):
        # one more cycle for every element of order 4 on G/Z: (0; 4,4,4) goes odd
        table = list(real(G, kset))
        if kset == zset:
            table = [c + (1,) if G.orders[g] == 4 else c for g, c in enumerate(table)]
        return tuple(table)

    monkeypatch.setattr(actions, "coset_cycles", skewed)
    with pytest.raises(RuntimeError, match="Riemann-Hurwitz parity failure"):
        genus_zero_exhaustive_scan(3, max_periods=3)


@pytest.mark.parametrize("max_periods", [2, 0, -1])
def test_scan_needs_at_least_three_periods(max_periods):
    with pytest.raises(ValueError, match=f"at least 3, not {max_periods}$"):
        genus_zero_exhaustive_scan(4, max_periods=max_periods)


@pytest.mark.parametrize("n, max_periods, signatures, skes", [
    # ids name max_periods only where it is not 5
    pytest.param(3, 5, 11, 1320, id="3-11-1320"),
    pytest.param(4, 5, 41, 9440, id="4-41-9440"),
    pytest.param(5, 5, 105, 113536, id="5-105-113536"),
    pytest.param(6, 5, 224, 1535488, id="6-224-1535488"),  # the benchmark's scan-n6 workload
    pytest.param(5, 7, 309, 45149824, id="5-7-309-45149824"),  # as the enumerating scan counted it
    pytest.param(6, 7, 764, 2162268672, id="6-7-764-2162268672"),  # summed from the Hall-checked counts
    pytest.param(6, 12, 6160, 114113008313939968, id="6-12-6160-114113008313939968"),  # the --max-periods ceiling
])
def test_scan_counts(n, max_periods, signatures, skes):
    scan = genus_zero_exhaustive_scan(n, max_periods=max_periods)
    assert scan.ok
    assert (scan.signatures_checked, scan.skes_checked) == (signatures, skes)


def test_non_sigma_b_fails_genus_zero():
    theta = family_representative(4, "F1")
    assert not is_genus_zero_action(theta)
    theta = family_representative(4, "F2")
    assert not is_genus_zero_action(theta)


# -- quotient data ----------------------------------------------------------------


def test_quotient_data_spec_examples():
    n = 4
    subs = named_subgroups(Q(n))
    theta = family_representative(n, "F1")
    qz = quotient_data(theta, subs["Z"])
    assert (qz.genus, qz.periods) == (1, tuple([2] * 16))
    qh = quotient_data(theta, subs["H2"])
    assert qh.genus == 0
    assert qh.periods == tuple(sorted([4, 4, 4, 4] + [2] * 6))


def test_quotient_by_whole_group_returns_signature():
    for n in (3, 4):
        G = Q(n)
        whole = frozenset(range(G.order))
        for label in family_labels(n):
            ske = family_representative(n, label)
            qd = quotient_data(ske, whole)
            assert qd.genus == ske.signature.gamma
            assert qd.periods == tuple(sorted(ske.signature.periods))


def test_quotient_by_trivial_subgroup_is_riemann_hurwitz():
    for n in (3, 4):
        G = Q(n)
        triv = frozenset({0})
        for label in family_labels(n):
            ske = family_representative(n, label)
            qd = quotient_data(ske, triv)
            assert qd.genus == genus_from_signature(G.order, ske.signature)
            assert qd.periods == ()


@pytest.mark.parametrize("n", [3, 4, 5])
def test_quotient_tables_match_paper(n):
    G = Q(n)
    subs = named_subgroups(G)
    for label in family_labels(n):
        ske = family_representative(n, label)
        expected = expected_quotients(n, label)
        for sub_label, (genus, periods) in expected.items():
            qd = quotient_data(ske, subs[sub_label])
            assert qd.genus == genus, (n, label, sub_label, qd)
            if periods is not None:
                assert list(qd.periods) == sorted(periods), (n, label, sub_label)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_prym_dimensions_and_totals(n):
    G = Q(n)
    subs = named_subgroups(G)
    triv = frozenset({0})
    for label in family_labels(n):
        ske = family_representative(n, label)
        g = quotient_data(ske, triv).genus
        assert g == family_genus(n, label)
        dims = expected_prym_dims(n, label)
        gz = quotient_data(ske, subs["Z"]).genus
        assert g - gz == dims["Z"]
        for j in range(2, n - 1):
            gj = quotient_data(ske, subs[f"H{j}"]).genus
            gj1 = quotient_data(ske, subs[f"H{j + 1}"]).genus
            if f"H{j}" in dims:
                assert gj - gj1 == dims[f"H{j}"], (n, label, j)
            if f"JS_H{j}" in dims:
                assert gj == dims[f"JS_H{j}"], (n, label, j)


def _check_riemann_hurwitz(ske):
    """|K| * mu(S_K data) = 2g - 2 for every named subgroup K."""
    G = ske.group
    g = quotient_data(ske, frozenset({0})).genus
    for lbl, K in named_subgroups(G).items():
        qd = quotient_data(ske, K)
        mu = 2 * qd.genus - 2 + sum(Fraction(k - 1, k) for k in qd.periods)
        assert len(K) * mu == 2 * g - 2, (ske, lbl)


@lru_cache(maxsize=None)
def _census_skes(n):
    """Every valid ske of each census signature of Q(2^n), the genus-zero
    periods in the order the signature lists them."""
    G = Q(n)
    out = []
    for label in family_labels(n):
        sig = family_representative(n, label).signature
        if sig.gamma == 0:
            out += [Ske(G, sig, (), t) for t in iter_valid_tuples(G, sig.periods)]
        else:
            out += [Ske(G, sig, (a, b), (c,)) for a, b, c in iter_genus_one_triples(G, sig.periods[0])]
    return out


def test_riemann_hurwitz_multiplicativity():
    """The identity on every family representative of n = 3..5."""
    for n in (3, 4, 5):
        for label in family_labels(n):
            _check_riemann_hurwitz(family_representative(n, label))


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_riemann_hurwitz_multiplicativity_on_drawn_skes(data):
    """The identity on a valid ske drawn from the census signatures of n = 3..5."""
    n = data.draw(st.sampled_from((3, 4, 5)))
    _check_riemann_hurwitz(data.draw(st.sampled_from(_census_skes(n))))


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_chevalley_weil_matches_the_quotient_genera_on_drawn_skes(data):
    """`multiplicities` equals the quotient-genera oracle on a valid ske drawn
    from the census signatures of n = 3..5, the genus-one F0 triples included."""
    n = data.draw(st.sampled_from((3, 4, 5)))
    ske = data.draw(st.sampled_from(_census_skes(n)))
    assert multiplicities(ske) == multiplicities_from_quotient_genera(ske), ske


# -- extensions --------------------------------------------------------------------


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("family,sup", [("F0", "G1"), ("F1", "G1"), ("F2", "G1"), ("F2", "G2")])
def test_extensions(n, family, sup):
    theta, theta_prime, words = extension_data(n, family, sup)
    rep = check_extension(theta, theta_prime, words)
    assert rep.ok
    assert rep.index == 2
    assert rep.mu_ratio == 2


def test_extension_rejects_bad_words():
    theta, theta_prime, words = extension_data(4, "F0", "G1")
    with pytest.raises(InvalidEmbedding):
        check_extension(theta, theta_prime, [[(0, 1)], [(1, 1)], [(3, 2)]])


def test_f2_strata_separated_by_supergroup():
    """The G1 restriction lands in the p = 2^(n-2) stratum and must NOT be
    equivalent to the p = 2 stratum representative (they are distinct orbits)."""
    n = 4
    theta_p2 = extension_data(n, "F2", "G2")[0]
    _, theta_prime, words = extension_data(n, "F2", "G1")
    rep = check_extension(theta_p2, theta_prime, words)
    assert not rep.equivalent_to_theta


# -- serialization ------------------------------------------------------------------


def test_ske_json_roundtrip():
    ske = family_representative(4, "C2")
    data = ske.to_json()
    back = ske_from_json(data)
    assert back.elliptic == ske.elliptic
    assert back.signature == ske.signature
    assert family_label(4, back.signature) == "C2"


@pytest.mark.parametrize("sup", ["G1", "G2"])
def test_supergroup_ske_json_roundtrip(sup):
    """The theta_prime ske that `qact extend` prints reads back as itself."""
    _, theta_prime, _ = extension_data(4, "F2", sup)
    assert ske_from_json(theta_prime.to_json()) == theta_prime
