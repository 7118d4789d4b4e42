"""Surface-kernel epimorphisms of Q(2^n): validation, enumeration, orbits.

A Q(2^n)-action on a surface with signature (gamma; k_1..k_l) is encoded by a
ske: images of the hyperbolic generators (2*gamma of them) and of the elliptic
generators (one per period) subject to the order, long-relation and
surjectivity constraints.  Topological classification over a genus-zero
quotient is the orbit structure under braid moves combined with Aut(G)
relabelings; over a genus-one quotient the two elementary moves
(a,b,g) -> (a, ba, g) and (ab, b, g) are used instead.  Both commute with
Aut(G), which acts freely on generating tuples, so the orbit search runs on
Aut-classes, each held by its lex-least member.  Aut(G) enters through one
stabilizer chain (`_pointwise_stabilizer`), whose level for a set of fixed
elements holds their pointwise stabilizer, the least element of each of its
orbits and a transversal to those minima.  The minima pick the class
members, and the transversals take any tuple to its class member (`_canon`).
Quotient surfaces S_K are handled through the action on cosets G/K: the
cycle structure of each elliptic image determines the branch data and hence
the genus, for any gamma.

One walk builds tuples (`_class_tuples`): element tuples in lexicographic
order with the last slot solved from the long relation, an order filter per
slot and a maximal-subgroup bitmask for the surjectivity check.  With the
chain's orbit minima it yields each Aut-class's lex-least member, which is
what `classify` searches on; with the chain off it yields every valid tuple,
which only the scan's mismatch listing asks for.  Counting needs no walk
and no group: `count_valid_tuples` is an integer formula in n, the
class-multiplication count from the characters of Q(2^n) and its subgroups
over Phi, combined by Hall's Moebius inversion, and the count checks that
the classes hold every valid ske.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple

from .groups import (
    BudgetExceeded,
    FiniteGroup,
    _orbit,
    automorphisms,
    build_named,
    build_quaternion,
    coset_cycles,
    find_isomorphism,
    group_from_json,
    named_subgroups,
    record_json,
)

if TYPE_CHECKING:
    from fractions import Fraction


class UnsupportedMove(ValueError):
    """Orbit moves are defined for signatures (0; k_1..k_s) and (1; k) only."""


# ---------------------------------------------------------------------------
# signatures and Riemann-Hurwitz
# ---------------------------------------------------------------------------


class _SignatureFields(NamedTuple):
    gamma: int
    periods: tuple[int, ...]


class Signature(_SignatureFields):
    """(gamma; k_1..k_l), checked on construction.  `_replace` and `_make`
    skip the check, so nothing calls them on a Signature."""

    __slots__ = ()

    def __new__(cls, gamma: int, periods: tuple[int, ...]):
        if gamma < 0 or any(k < 2 for k in periods):
            raise ValueError(f"bad signature ({gamma}; {periods})")
        return super().__new__(cls, gamma, periods)

    def sorted_periods(self) -> tuple[int, ...]:
        return tuple(sorted(self.periods))

    def __str__(self):
        return f"({self.gamma}; {','.join(map(str, self.periods))})"

    def to_json(self) -> dict:
        return {"genus": self.gamma, "periods": list(self.periods)}


def _mu_over_lcm(sig: Signature) -> tuple[int, int]:
    """(L mu, L), L = lcm(periods): mu = 2 gamma - 2 + sum (1 - 1/k_i) over L."""
    L = math.lcm(*sig.periods)
    return L * (2 * sig.gamma - 2) + sum(L - L // k for k in sig.periods), L


def genus_from_signature(group_order: int, sig: Signature) -> int | None:
    """Genus g with 2g - 2 = |G| * mu, when integral and >= 2; None otherwise.

    In integers: with L = lcm(periods), N = |G| * L * mu is an integer, and
    g exists iff N > 0, L | N and N / L is even; then g = N / (2L) + 1 >= 2.
    """
    num, L = _mu_over_lcm(sig)
    N = group_order * num
    q, r = divmod(N, L)
    if N <= 0 or r or q % 2:
        return None
    return q // 2 + 1


def sigma_b(n: int, b: int) -> Signature:
    """The genus-zero signature (0; 2,..b..,2, 4, 4, 2^(n-1))."""
    return Signature(0, tuple([2] * b + [4, 4, 2 ** (n - 1)]))


def is_sigma_b(n: int, sig: Signature) -> int | None:
    """The b for which sig is sigma_b as a multiset, else None."""
    if sig.gamma != 0:
        return None
    counts = sorted(sig.periods)
    b = sum(1 for k in counts if k == 2)
    if counts == sorted([2] * b + [4, 4, 2 ** (n - 1)]):
        return b
    return None


# ---------------------------------------------------------------------------
# skes
# ---------------------------------------------------------------------------


class Ske(NamedTuple):
    group: FiniteGroup
    signature: Signature
    hyperbolic: tuple[int, ...]
    elliptic: tuple[int, ...]

    def element_names(self) -> dict:
        g = self.group
        return {
            "hyperbolic": [g.names[i] for i in self.hyperbolic],
            "elliptic": [g.names[i] for i in self.elliptic],
        }

    def to_json(self) -> dict:
        return {
            "group": self.group.to_json(),
            "signature": self.signature.to_json(),
            "hyperbolic": self.element_names()["hyperbolic"],
            "elliptic": self.element_names()["elliptic"],
        }

    def __repr__(self):
        names = self.element_names()
        parts = names["hyperbolic"] + names["elliptic"]
        return f"Ske{self.signature}({', '.join(parts)})"


_JSON_TYPES = {
    dict: "an object", list: "an array", str: "a string", int: "an integer",
    float: "a number", bool: "a boolean", type(None): "null",
}


def _json_kind(value) -> str:
    return _JSON_TYPES.get(type(value), type(value).__name__)


def _expect(value, kind: type, key: str):
    """`value` if its JSON type is exactly `kind` (a boolean is no integer)."""
    if type(value) is not kind:
        raise ValueError(f"ske JSON key {key!r} must be {_JSON_TYPES[kind]}, not {_json_kind(value)}")
    return value


def _expect_items(value, kind: type, key: str) -> list:
    """The items of the JSON array `value`, each of JSON type `kind`."""
    return [_expect(item, kind, f"{key}[{i}]") for i, item in enumerate(_expect(value, list, key))]


def ske_from_json(data: dict) -> Ske:
    """Read a ske written by `Ske.to_json`; malformed input raises ValueError."""
    if not isinstance(data, dict):
        raise ValueError(f"ske JSON must be an object, not {_json_kind(data)}")
    try:
        group_data = _expect(data["group"], dict, "group")
        _expect(group_data["name"], str, "group.name")
        for key in ("n", "m"):
            if group_data.get(key) is not None:
                _expect(group_data[key], int, f"group.{key}")
        group = group_from_json(group_data)
        sig_data = _expect(data["signature"], dict, "signature")
        sig = Signature(
            _expect(sig_data["genus"], int, "signature.genus"),
            tuple(_expect_items(sig_data["periods"], int, "signature.periods")),
        )
    except KeyError as exc:
        raise ValueError(f"ske JSON has no {exc.args[0]!r} key") from None
    hyp, ell = (
        tuple(map(group.element, _expect_items(data.get(key, []), str, key)))
        for key in ("hyperbolic", "elliptic")
    )
    return Ske(group, sig, hyp, ell)


def long_relation_value(ske: Ske) -> int:
    """prod [alpha_i, beta_i] * prod x_i evaluated in the group."""
    G = ske.group
    out = 0
    it = iter(ske.hyperbolic)
    for a, b in zip(it, it):
        out = G.cayley[out][G.commutator(a, b)]
    for g in ske.elliptic:
        out = G.cayley[out][g]
    return out


def validate_ske(ske: Ske) -> tuple[bool, str]:
    """Check orders, the long relation and surjectivity; name the first failure."""
    G = ske.group
    if len(ske.hyperbolic) != 2 * ske.signature.gamma:
        return False, "hyperbolic image count does not match 2*gamma"
    if len(ske.elliptic) != len(ske.signature.periods):
        return False, "elliptic image count does not match the period list"
    for g, k in zip(ske.elliptic, ske.signature.periods):
        if G.orders[g] != k:
            return False, f"element {G.names[g]} has order {G.orders[g]}, period is {k}"
    if long_relation_value(ske) != 0:
        return False, "long relation does not evaluate to the identity"
    if len(G.closure(ske.hyperbolic + ske.elliptic)) != G.order:
        return False, "images do not generate the group"
    return True, "ok"


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _maximal_masks(G: FiniteGroup) -> tuple[tuple[int, ...], int]:
    """Per-element bitmask of the maximal subgroups containing it.

    A tuple generates G iff the AND of its masks is zero: otherwise all
    entries sit inside one maximal subgroup.
    """
    maxim = G.maximal_subgroups()
    masks = [0] * G.order
    for bit, sub in enumerate(maxim):
        for g in sub:
            masks[g] |= 1 << bit
    return tuple(masks), (1 << len(maxim)) - 1


def _check_budget(candidates: int, max_candidates: int | None) -> None:
    if max_candidates is not None and candidates > max_candidates:
        raise BudgetExceeded(f"{candidates} candidates exceed budget {max_candidates}")


@lru_cache(maxsize=None)
def _elements_by_order(G: FiniteGroup) -> dict[int, tuple[int, ...]]:
    """The elements of each order of G, in increasing index."""
    out: dict[int, list[int]] = {}
    for g, k in enumerate(G.orders):
        out.setdefault(k, []).append(g)
    return {k: tuple(v) for k, v in out.items()}


def _order_buckets(G: FiniteGroup, periods, max_candidates: int | None) -> list[tuple[int, ...]]:
    """The elements of each period's order, in increasing index, after the
    budget check: the candidates are the tuples over every bucket but the
    last, which the long relation solves."""
    by_order = _elements_by_order(G)
    buckets = [by_order.get(k, ()) for k in periods]
    _check_budget(math.prod(map(len, buckets[:-1])), max_candidates)
    return buckets


@lru_cache(maxsize=None)
def _generates_mod_frattini(G: FiniteGroup, periods: tuple[int, ...]) -> bool:
    """Whether some elements of these orders, one per period, have images in
    G/Phi(G) = C2^2 that span it and sum to 0.  By Burnside's basis theorem
    a tuple of a 2-group generates iff its images in G/Phi span, so a
    signature that fails carries no ske.  An element's image is its
    `_maximal_masks` mask, and a product's mask is read off one
    representative per mask.  A DP over (mask of the running product, AND
    of the masks), one period at a time from (full, full), asks whether
    (full, 0) is reached."""
    masks, full = _maximal_masks(G)
    rep = {mk: g for g, mk in enumerate(masks)}
    if len(rep) != 4:
        raise RuntimeError(f"{G.name} / Phi(G) has {len(rep)} elements, not 4")
    times = {(a, b): masks[G.cayley[rep[a]][rep[b]]] for a in rep for b in rep}
    by_order = _elements_by_order(G)
    states = {(full, full)}
    for k in periods:
        images = {masks[g] for g in by_order.get(k, ())}
        states = {(times[p, mk], a & mk) for p, a in states for mk in images}
    return (full, 0) in states


def _exact(num: int, den: int) -> int:
    """num / den, which must be an integer."""
    q, r = divmod(num, den)
    if r:
        raise RuntimeError(f"ske count {num}/{den} is not an integer")
    return q


def _ramanujan_classes(N: int, mult: dict[int, int]) -> tuple[int, int, int]:
    """The product over the slots, given as {period: slots}, of the Ramanujan
    sums c_k(t), each the sum of psi_t, x -> zeta_N^t, over the elements of
    order k of C_N = <x> (N a power of 2): k/2 when k | t, -k/2 when k/2
    exactly divides t, and 0 otherwise or when k does not divide N.  With K
    the largest period (2 with none) this returns (K, P, Q): the product is
    P = prod (k/2)^e_k when K | t, Q = (-1)^e_K P when t has 2-adic
    valuation log2 K - 1 (N/K residues each), 0 otherwise, and P = Q = 0
    unless every period divides N."""
    if any(N % k for k in mult):
        return 2, 0, 0
    K = max(mult, default=2)
    P = math.prod((k // 2) ** e for k, e in mult.items())
    return K, P, (-1) ** mult.get(K, 0) * P


def _cyclic_count(N: int, gamma: int, mult: dict[int, int]) -> int:
    """`_quaternion_count` for C_N: N^(2 gamma - 1) times the sum over the
    characters psi_t of the product of the c_k(t), which is N/K (P + Q) by
    `_ramanujan_classes`: 2 P N/K when the largest period occurs an even
    number of times, 0 when odd, and N with no periods."""
    K, P, Q = _ramanujan_classes(N, mult)
    return _exact(N ** (2 * gamma) * (N // K) * (P + Q), N)


def _quaternion_count(m: int, gamma: int, mult: dict[int, int]) -> int:
    """The tuples (a_1, b_1, .., a_gamma, b_gamma, c_1..c_s) of Q(2^m), c_i of
    the given orders, with prod [a_i, b_i] prod c_i = 1, by the
    class-multiplication formula |H|^(2 gamma - 1) sum over chi of
    chi(1)^(2 - 2 gamma - s) prod sigma_chi(k_i), sigma_chi(k) the sum of chi
    over the elements of order k (G. A. Jones, Enumeration of homomorphisms
    and surface-coverings, Quart. J. Math. 46, 1995).  With M = 2^(m-1) =
    |<x>|, the characters are:
      - x -> -1, y -> +-1: psi_(M/2) on <x>, 0 summed over the x^a y;
      - x -> 1, y -> +-1: psi_0 on <x>, and the M elements x^a y, all of
        order 4, add +-M at k = 4;
      - Theta_t, t = 1 .. M/2 - 1, of degree 2: psi_t + psi_-t on <x>, 0 off
        it, so sigma = 2 c_k(t).  For K <= M/2, M/2K - 1 of those t give P
        and M/2K give Q (`_ramanujan_classes`): 2^s P (M/K - 1) for e_K
        even, -2^s P for e_K odd; 0 for K >= M.
    At m = 2 there is no Theta_t and the four characters are C4's."""
    s = sum(mult.values())
    M = 1 << (m - 1)
    K, P, Q = _ramanujan_classes(M, mult)
    # psi_(M/2) at t = M/2, a multiple of K unless K = M; psi_0 at t = 0
    linear = 2 * (P if K < M else Q)
    for d in (M, -M):
        linear += math.prod(((k // 2 if M % k == 0 else 0) + (d if k == 4 else 0)) ** e for k, e in mult.items())
    theta = 2 ** s * ((M // (2 * K) - 1) * P + M // (2 * K) * Q) if K < M else 0
    # 1 / chi(1)^(2 - 2 gamma - s) at chi(1) = 2 clears the denominator
    lift = 2 ** (2 * gamma + s - 2)
    return _exact((2 * M) ** (2 * gamma) * (lift * linear + theta), 2 * M * lift)


def count_valid_tuples(n: int, sig: Signature) -> int:
    """The number of valid skes of Q(2^n) with signature sig, from n alone:
    for gamma = 0 the tuples `_class_tuples(G, sig.periods, chain=False)`
    yields, for gamma = 1 the generating triples (a, b, g) with
    [a, b] g = 1 and g of order k.  A tuple generates Q(2^n) iff it lies in no
    maximal subgroup, and each of those contains Phi = <x^2> with quotient
    C2^2, so Hall's Moebius inversion has five terms (P. Hall, The Eulerian
    functions of a group, 1936): G with weight 1, <x> and the two
    Q(2^(n-1)) <x^2, y>, <x^2, x y> (C4 at n = 3) with weight -1, and Phi
    with weight 2.  Each subgroup's count sums its characters in closed
    form (`_ramanujan_classes`), with no loop over them.  The count does
    not depend on the order of the periods."""
    if 2 * sig.gamma + len(sig.periods) < 2:
        return 0
    mult = {k: sig.periods.count(k) for k in set(sig.periods)}
    gamma = sig.gamma
    return (_quaternion_count(n, gamma, mult) - _cyclic_count(2 ** (n - 1), gamma, mult)
            - 2 * _quaternion_count(n - 1, gamma, mult) + 2 * _cyclic_count(2 ** (n - 2), gamma, mult))


# ---------------------------------------------------------------------------
# orbit classification
# ---------------------------------------------------------------------------


class OrbitReport(NamedTuple):
    signature: Signature
    total: int
    orbit_count: int
    representatives: tuple[Ske, ...]
    orbit_sizes: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "signature": self.signature.to_json(),
            "valid_skes": self.total,
            "orbit_count": self.orbit_count,
            "orbit_sizes": list(self.orbit_sizes),
            "representatives": [r.to_json() for r in self.representatives],
        }


def _canon(G: FiniteGroup, t: tuple[int, ...]) -> tuple[int, ...]:
    """The lex-least Aut-image of t, one form for its whole Aut-class.

    A greedy walk down the stabilizer chain (`_pointwise_stabilizer`): once
    slots 0..i-1 are least, H_i fixes them, and the transversal member p of
    H_i for slot i links it to the least element of its H_i-orbit, so p^-1
    (read through `p.index`) takes it there; that slot then joins the fixed
    set.  Two transversal choices differ by an element of H_(i+1), so every
    choice gives the same image.  Aut(G) acts freely on generating tuples,
    so the walk stops once H_i is trivial; on other tuples the last H_i
    fixes every slot."""
    fixed = frozenset()
    for i in range(len(t)):
        stab, _, link = _pointwise_stabilizer(G, fixed)
        if len(stab) == 1:
            break
        p = link[t[i]]
        t = tuple(map(p.index, t))
        fixed |= {t[i]}
    return t


def _arrangements(periods: tuple[int, ...]):
    """The distinct orderings of the multiset `periods` in lex order, as
    `sorted(set(itertools.permutations(periods)))` lists them, one at a time."""
    if not periods:
        yield ()
    for k in sorted(set(periods)):
        i = periods.index(k)
        for tail in _arrangements(periods[:i] + periods[i + 1:]):
            yield (k,) + tail


def _orbit_moves(G: FiniteGroup, sig: Signature):
    """Braids (gamma 0) or the two elementary moves (gamma 1), each followed
    by `_canon`: both commute with Aut(G), so they act on Aut-classes, each
    held by its lex-least member."""
    if sig.gamma == 0:
        moves = _braid_moves(G, len(sig.periods))
    elif sig.gamma == 1 and len(sig.periods) == 1:
        moves = _genus_one_moves(G)
    else:
        raise UnsupportedMove(f"classification not implemented for signature {sig}")
    return [lambda t, mv=mv: _canon(G, mv(t)) for mv in moves]


@lru_cache(maxsize=None)
def _pointwise_stabilizer(G: FiniteGroup, fixed: frozenset) -> tuple[list, frozenset, tuple]:
    """One level of Aut(G)'s stabilizer chain: the automorphisms fixing every
    element of `fixed`, in `automorphisms` order; the least element of each
    of their orbits on G; and a transversal, for each element h one member p
    of the stabilizer with p(m) = h, m the least of h's orbit.  With nothing
    fixed the stabilizer is Aut(G); otherwise the stabilizer of `fixed`
    without its largest element is narrowed.  Elements are met in
    increasing order, so one no earlier orbit reached is the least of its
    own.  Cached per (group, element set), the one home of Aut(G) in this
    module."""
    if fixed:
        g = max(fixed)
        stab = [p for p in _pointwise_stabilizer(G, fixed - {g})[0] if p[g] == g]
    else:
        stab = automorphisms(G)
    least, link = [], [None] * G.order
    for m in range(G.order):
        if link[m] is None:
            least.append(m)
            for p in stab:
                if link[p[m]] is None:
                    link[p[m]] = p
    return stab, frozenset(least), tuple(link)


def _class_tuples(G: FiniteGroup, periods: tuple[int, ...], chain: bool = True):
    """The valid tuples with these exact orders that are their own `_canon`
    form, one per Aut-class, built by a stabilizer chain.

    Slot i takes only the elements of its bucket that are least in their
    orbit under H_i, the pointwise stabilizer in Aut(G) of slots 0..i-1
    (`_pointwise_stabilizer`, which gives each level's orbit minima; H_0 is
    Aut(G)).  The last slot is solved from the long relation and kept when
    its order is right and the masks say the tuple generates.  These are
    exactly the tuples t that are the least of their Aut-images:
      - if p(t) < t for some automorphism p, let i be the first slot where
        they differ; p fixes slots 0..i-1, so p lies in H_i and lowers t_i,
        which is then not least in its H_i-orbit.  The last slot cannot be
        that slot: H_(s-1) fixes the product of the others, and so the last.
      - if t_i is not least in its H_i-orbit, some p in H_i lowers it, and
        p(t) < t.
    Where H_i is trivial every element is least, so the remaining slots run
    as a plain product.  With `chain` off every H_i is taken as trivial,
    and the walk yields every valid tuple with these orders, in lex order.
    `classify` checks the budget on the buckets (`_order_buckets`) first.
    Both callers pass at least three periods: `classify` since mu > 0, the
    scan by its range.
    """
    s = len(periods)
    buckets = _order_buckets(G, periods, None)
    cayley, inv, orders = G.cayley, G.inv, G.orders
    masks, full = _maximal_masks(G)
    k_last = periods[-1]

    def walk(i, prefix, pr, mk, fixed):
        bucket = buckets[i]
        if fixed is not None:
            stab, least, _ = _pointwise_stabilizer(G, fixed)
            if len(stab) == 1:
                fixed = None
            else:
                bucket = [g for g in bucket if g in least]
        row = cayley[pr]
        if i == s - 2:
            for g in bucket:
                last = inv[row[g]]
                if orders[last] == k_last and not mk & masks[g] & masks[last]:
                    yield prefix + (g, last)
            return
        for g in bucket:
            yield from walk(i + 1, prefix + (g,), row[g], mk & masks[g],
                            None if fixed is None else fixed | {g})

    yield from walk(0, (), 0, full, frozenset() if chain else None)


def _genus_one_classes(G: FiniteGroup, k: int):
    """The triples (a, b, g) with [a, b] g = 1, ord(g) = k and <a, b> = G
    that are their own `_canon` form: a least in its Aut-orbit, b least in
    its Stab(a)-orbit, and g forced by the long relation, which
    Stab(a) n Stab(b) fixes.  The argument of `_class_tuples` applies with
    two free slots."""
    masks, _ = _maximal_masks(G)
    for a in sorted(_pointwise_stabilizer(G, frozenset())[1]):
        for b in sorted(_pointwise_stabilizer(G, frozenset({a}))[1]):
            if not masks[a] & masks[b]:
                g = G.inv[G.commutator(a, b)]
                if G.orders[g] == k:
                    yield (a, b, g)


def classify(G: FiniteGroup, sig: Signature, max_candidates: int = 5_000_000) -> OrbitReport:
    """Orbits of valid skes under braids (gamma 0) or the two elementary moves
    (gamma 1), both combined with Aut(G).

    Aut(G) acts freely on valid skes, so each orbit is a union of Aut-classes
    of |Aut| skes, each class held by its lex-least member (`_canon`).  The
    orbit minima of one stabilizer chain (`_pointwise_stabilizer`, whose
    first level gives |Aut|) build those members directly (`_class_tuples`
    per period arrangement, `_genus_one_classes`).  The valid skes are
    counted apart from the chain, by `count_valid_tuples`, once for the
    signature and times the number of arrangements, since the count does
    not depend on the order of the periods; it must be |Aut| times the
    classes.  The orbit search runs on the classes, and an orbit's
    representative, its least ske, is its least class.  The period
    arrangements are taken lazily, each after its budget check, so the
    budget refuses before they are all listed; for gamma 1 the candidates
    are the |G|^2 pairs (a, b).  A gamma = 0 signature that the Frattini
    test `_generates_mod_frattini` rules out gets its budget checks but no
    walk and no orbit moves; its count must then be 0.
    """
    if _mu_over_lcm(sig)[0] <= 0:
        raise ValueError(f"signature {sig} has mu <= 0: no surface of genus >= 2 carries it")
    spans = sig.gamma != 0 or _generates_mod_frattini(G, sig.sorted_periods())
    moves = _orbit_moves(G, sig) if spans else []
    nodes = set()
    if sig.gamma == 0:
        arrangements = 0
        for arrangement in _arrangements(sig.periods):
            _order_buckets(G, arrangement, max_candidates)
            if spans:
                nodes.update(_class_tuples(G, arrangement))
            arrangements += 1
        node_of = lambda t: Ske(G, Signature(0, tuple(G.orders[g] for g in t)), (), t)
    else:
        arrangements = 1
        _check_budget(G.order ** 2, max_candidates)
        nodes.update(_genus_one_classes(G, sig.periods[0]))
        node_of = lambda t: Ske(G, sig, (t[0], t[1]), (t[2],))
    total = arrangements * count_valid_tuples(G.params["n"], sig)
    auts = _pointwise_stabilizer(G, frozenset())[0]
    if total != len(auts) * len(nodes):
        raise RuntimeError(f"{total} valid skes do not fill {len(nodes)} classes of {len(auts)}")
    orbits = []
    unvisited = set(nodes)
    while unvisited:
        orbit = _orbit(unvisited.pop(), moves, nodes)
        unvisited -= orbit
        orbits.append((min(orbit), len(orbit)))
    orbits.sort()
    return OrbitReport(
        signature=sig,
        total=total,
        orbit_count=len(orbits),
        representatives=tuple(node_of(rep) for rep, _ in orbits),
        orbit_sizes=tuple(size * len(auts) for _, size in orbits),
    )


def _braid_moves(G: FiniteGroup, s: int):
    cayley = G.cayley
    inv = G.inv

    def make(i):
        def move(t):
            gi, gj = t[i], t[i + 1]
            return t[:i] + (gj, cayley[cayley[inv[gj]][gi]][gj]) + t[i + 2:]

        return move

    return [make(i) for i in range(s - 1)]


def _genus_one_moves(G: FiniteGroup):
    cayley = G.cayley

    def m1(t):
        a, b, g = t
        return (a, cayley[b][a], g)

    def m2(t):
        a, b, g = t
        return (cayley[a][b], b, g)

    return [m1, m2]


# ---------------------------------------------------------------------------
# quotient data via the coset action
# ---------------------------------------------------------------------------


class QuotientData(NamedTuple):
    genus: int
    periods: tuple[int, ...]

    def to_json(self) -> dict:
        return record_json(self)


def quotient_data(ske: Ske, K: frozenset) -> QuotientData:
    """Genus and branch periods of S_K from the cycle structure on G/K (K an element set)."""
    cycles = coset_cycles(ske.group, K)
    branch: list[int] = []
    for g, k in zip(ske.elliptic, ske.signature.periods):
        for cyc_len in cycles[g]:
            if k % cyc_len != 0:
                raise RuntimeError("cycle length does not divide the period")
            if k // cyc_len > 1:
                branch.append(k // cyc_len)
    counts = [len(cycles[g]) for g in ske.elliptic]
    genus = _genus_from_cycles(len(cycles[0]), ske.signature.gamma, counts)
    return QuotientData(genus, tuple(sorted(branch)))


def _genus_from_cycles(index: int, gamma: int, cycle_counts) -> int:
    """Riemann-Hurwitz for S_K, 2 g_K - 2 = [G:K](2 gamma - 2) + sum([G:K] - c),
    from the number c of cycles of each elliptic image on the [G:K] cosets."""
    rhs = index * (2 * gamma - 2) + sum(index - c for c in cycle_counts)
    if rhs % 2 != 0:
        raise RuntimeError("Riemann-Hurwitz parity failure")
    return rhs // 2 + 1


# ---------------------------------------------------------------------------
# genus-zero actions (sigma_b classification)
# ---------------------------------------------------------------------------


def witness_eta(G: FiniteGroup, b: int) -> Ske:
    """The explicit ske realizing sigma_b: all 2-periods go to y^2, then
    (y, y^-1 x^-1, x) for even b and (x^-1 y, y, x) for odd b."""
    n = G.params["n"]
    x, y = G.generators
    y2 = G.power(y, 2)
    if b % 2 == 0:
        tail = [y, G.inv[G.cayley[x][y]], x]
    else:
        tail = [G.cayley[G.inv[x]][y], y, x]
    return Ske(G, sigma_b(n, b), (), tuple([y2] * b + tail))


def is_genus_zero_action(ske: Ske) -> bool:
    """True iff S_K is rational for every nontrivial subgroup K.

    Z is the unique subgroup of order 2, so it lies in every nontrivial K and
    S_K is a quotient of S_Z; a quotient of a rational curve is rational
    (Lüroth), so the genus of S_Z decides.
    """
    if ske.signature.gamma != 0:
        return False
    return quotient_data(ske, named_subgroups(ske.group)["Z"]).genus == 0


class GenusZeroRecord(NamedTuple):
    b: int
    signature: Signature
    genus: int
    witness: Ske
    witness_valid: bool
    witness_genus_zero: bool

    def to_json(self) -> dict:
        return record_json(self)


def genus_zero_actions(n: int, max_b: int) -> list[GenusZeroRecord]:
    """sigma_b data with validated witnesses for 0 <= b <= max_b."""
    G = build_quaternion(n)
    out = []
    for b in range(max_b + 1):
        sig = sigma_b(n, b)
        genus = genus_from_signature(G.order, sig)
        w = witness_eta(G, b)
        ok, _ = validate_ske(w)
        out.append(
            GenusZeroRecord(
                b=b,
                signature=sig,
                genus=2 ** (n - 2) * (b + 1),
                witness=w,
                witness_valid=ok and genus == 2 ** (n - 2) * (b + 1),
                witness_genus_zero=is_genus_zero_action(w),
            )
        )
    return out


class GenusZeroScan(NamedTuple):
    """Result of the exhaustive genus-zero-iff-sigma_b confirmation."""

    n: int
    max_periods: int
    signatures_checked: int
    skes_checked: int
    sigma_b_values_seen: list[int]
    mismatches: list[dict]

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_json(self) -> dict:
        return record_json(self, ok=self.ok)


def genus_zero_exhaustive_scan(n: int, max_periods: int = 7) -> GenusZeroScan:
    """Confirm over every valid ske with gamma = 0 and at most `max_periods`
    periods that the genus-zero property holds iff the signature is a sigma_b.

    The verdict is the genus of S_Z (see `is_genus_zero_action`).  An
    element's cycle count on G/Z depends on its order alone (checked by
    `_z_cycles_by_order`), so that genus, and the verdict, are computed once
    per signature.  Each signature's skes are counted by
    `count_valid_tuples` from n alone, not generated; only a mismatching
    signature is walked (`_class_tuples` with the chain off), to list the first 20
    mismatching skes of the scan.  Tuples
    in sorted period order suffice: braid moves sort the periods of any
    valid ske without changing the action.
    """
    if max_periods < 3:
        raise ValueError(f"max_periods must be at least 3, not {max_periods}")
    G = build_quaternion(n)
    zcyc = _z_cycles_by_order(G, named_subgroups(G)["Z"])

    avail = sorted({G.orders[g] for g in range(1, G.order)})
    sigs = 0
    checked = 0
    mismatches: list[dict] = []
    seen_b: set[int] = set()
    for s in range(3, max_periods + 1):
        for multiset in itertools.combinations_with_replacement(avail, s):
            sig = Signature(0, multiset)
            genus = genus_from_signature(G.order, sig)
            if genus is None:
                continue
            sigs += 1
            b = is_sigma_b(n, sig)
            expected = b is not None
            genus_zero = _genus_from_cycles(G.order // 2, 0, [zcyc[k] for k in multiset]) == 0
            count = count_valid_tuples(n, sig)
            if genus_zero != expected and len(mismatches) < 20:
                for t in itertools.islice(_class_tuples(G, multiset, chain=False), 20 - len(mismatches)):
                    mismatches.append(
                        {
                            "signature": sig.to_json(),
                            "ske": [G.names[g] for g in t],
                            "genus_zero": genus_zero,
                            "sigma_b": b,
                        }
                    )
            checked += count
            if count and genus_zero and expected:
                seen_b.add(b)
    return GenusZeroScan(
        n=n,
        max_periods=max_periods,
        signatures_checked=sigs,
        skes_checked=checked,
        sigma_b_values_seen=sorted(seen_b),
        mismatches=mismatches,
    )


def _z_cycles_by_order(G: FiniteGroup, zset: frozenset) -> dict[int, int]:
    """The number of cycles on G/Z of an element of each order.

    Z lies in every nontrivial cyclic subgroup, so the count should depend on
    the order alone; this raises unless it does.
    """
    out: dict[int, int] = {}
    for g, cycles in enumerate(coset_cycles(G, zset)):
        if out.setdefault(G.orders[g], len(cycles)) != len(cycles):
            raise RuntimeError("the cycle count on G/Z is not a function of the element order")
    return out


# ---------------------------------------------------------------------------
# the one-dimensional family census
# ---------------------------------------------------------------------------


class FamilyRecord(NamedTuple):
    label: str
    signature: Signature
    genus: int
    stratum_bound: int | None
    orbit_count: int
    ske_count: int
    representative: Ske

    def to_json(self) -> dict:
        return record_json(self)


def _families(n: int) -> dict[str, tuple[Signature, int]]:
    """The one-dimensional families of Q(2^n), in census order: each label's
    signature and the printed bound on its number of equisymmetric strata.
    F2 needs n >= 4, since at n = 3 its signature (0; 4,4,4,4) is F1's."""
    half = 2 ** (n - 1)
    table = {
        "F0": (Signature(1, (2 ** (n - 2),)), 1),
        "F1": (Signature(0, (4, 4, 4, 4)), 1),
    }
    if n >= 4:
        table["F2"] = (Signature(0, (half, half, 4, 4)), 2 ** (n - 2))
    for k in range(2, n):
        table[f"C{k}"] = (Signature(0, (half, 2 ** (n - k), 4, 4)), 2 ** (n - k - 1))
    return table


def family_label(n: int, sig: Signature) -> str:
    """Name a one-dimensional family by its genus and sorted periods; any
    other signature is named `sig<signature>`."""
    key = (sig.gamma, sig.sorted_periods())
    for label, (family_sig, _) in _families(n).items():
        if (family_sig.gamma, family_sig.sorted_periods()) == key:
            return label
    return f"sig{sig}"


def one_dimensional_families(n: int) -> list[FamilyRecord]:
    """Census of signatures with 3*gamma - 3 + l = 1 carrying at least one
    valid ske: (0; k1..k4) and (1; k).  `classify` walks no candidate that
    the Frattini test `_generates_mod_frattini` rules out; at n = 3..6 that
    is every empty gamma = 0 one (2, 10, 29 and 63 of them)."""
    if not 3 <= n <= 6:
        raise ValueError("census supported for 3 <= n <= 6")
    G = build_quaternion(n)
    avail = sorted({G.orders[g] for g in range(1, G.order)})
    sigs = [Signature(0, ks) for ks in itertools.combinations_with_replacement(avail, 4)]
    sigs += [Signature(1, (k,)) for k in avail]
    families = _families(n)
    out = []
    for sig in sigs:
        genus = genus_from_signature(G.order, sig)
        if genus is None:
            continue
        report = classify(G, sig)
        if report.total == 0:
            continue
        label = family_label(n, sig)
        out.append(
            FamilyRecord(
                label=label,
                signature=sig,
                genus=genus,
                stratum_bound=families[label][1] if label in families else None,
                orbit_count=report.orbit_count,
                ske_count=report.total,
                representative=report.representatives[0],
            )
        )
    return sorted(out, key=lambda f: (f.signature.gamma, f.signature.sorted_periods()))


def family_labels(n: int) -> list[str]:
    """The labels of the one-dimensional families of Q(2^n) (`_families`)."""
    return list(_families(n))


def _theta_p(G: FiniteGroup, p: int) -> tuple[int, ...]:
    """The elliptic images (x, x^(p-1+2^(n-2)), y, x^p y) of theta_p, the
    representatives of the F2 strata; F2's own is p = 0."""
    x, y = G.generators
    return (x, G.power(x, p - 1 + G.order // 4), y, G.cayley[G.power(x, p)][y])


def family_representative(n: int, label: str) -> Ske:
    """The paper's explicit representative ske of each family in
    `family_labels(n)`, with the family's signature from `_families`."""
    G = build_quaternion(n)
    x, y = G.generators
    power = G.power
    xy = G.cayley[x][y]
    families = _families(n)
    if label == "F0":
        # (alpha, beta, gamma) -> (y, x y, x^2)
        return Ske(G, families["F0"][0], (y, xy), (power(x, 2),))
    if label == "F1":
        # theta_0 = (x y, y, y, x y)
        return Ske(G, families["F1"][0], (), (xy, y, y, xy))
    if label == "F2":
        if label not in families:
            raise ValueError(f"no family F2 at n={n}: below n = 4 its signature is F1's")
        return Ske(G, families["F2"][0], (), _theta_p(G, 0))
    if label.startswith("C"):
        k = int(label[1:])
        if not 2 <= k <= n - 1:
            raise ValueError(f"C-family index {k} out of range for n={n}")
        alpha = (1 + 2 ** (n - 2) - 2 ** (k - 1)) % 2 ** (n - 1)
        g2 = power(x, 2 ** (k - 1))
        return Ske(G, families[f"C{k}"][0], (), (power(x, alpha), g2, y, xy))
    raise ValueError(f"unknown family label {label!r}")


# ---------------------------------------------------------------------------
# extension to the order-2^(n+1) supergroups
# ---------------------------------------------------------------------------


class ExtensionReport(NamedTuple):
    ok: bool
    index: int
    mu_ratio: int | Fraction
    mu_ratio_ok: bool
    subgroup_isomorphic: bool
    restriction_valid: bool
    equivalent_to_theta: bool
    restriction: tuple[str, ...]

    def to_json(self) -> dict:
        return record_json(self, mu_ratio=str(self.mu_ratio))


class InvalidEmbedding(ValueError):
    """The embedding words do not cut out a subgroup isomorphic to G."""


def subgroup_as_group(Gp: FiniteGroup, elems: frozenset, gens: list[int]) -> tuple[FiniteGroup, dict]:
    """The subgroup on `elems` as a standalone FiniteGroup plus an index map."""
    ordered = [0] + sorted(e for e in elems if e != 0)
    pos = {e: i for i, e in enumerate(ordered)}
    cayley = [[pos[Gp.cayley[a][b]] for b in ordered] for a in ordered]
    names = [Gp.names[e] for e in ordered]
    H = FiniteGroup(f"sub({Gp.name})", names, cayley, [pos[g] for g in gens])
    return H, pos


def check_extension(theta: Ske, theta_prime: Ske, words) -> ExtensionReport:
    """Verify that theta_prime restricts, along the given words, to an action
    equivalent to theta: the word images generate an index-2 subgroup
    isomorphic to theta's group, the restricted tuple is a valid ske of
    theta's signature, it lies in theta's (braid x Aut)-orbit, and the
    Riemann-Hurwitz index identity mu(Delta)/mu(Delta') = [Delta':Delta]
    holds exactly.  The ratio is compared in integers, and is an int when
    it is integral; a Fraction otherwise.
    """
    Gp = theta_prime.group
    ok_prime, msg = validate_ske(theta_prime)
    if not ok_prime:
        raise InvalidEmbedding(f"theta_prime is not a valid ske: {msg}")
    # the words are in the Fuchsian generators of theta_prime's domain
    images = theta_prime.hyperbolic + theta_prime.elliptic
    imgs = [Gp.evaluate_word(word, images) for word in words]
    sub = Gp.closure(imgs)
    index = Gp.order // len(sub)
    (a, L), (b, L_prime) = _mu_over_lcm(theta.signature), _mu_over_lcm(theta_prime.signature)
    mu_ok = a * L_prime == index * b * L
    mu_ratio, r = divmod(a * L_prime, b * L)
    if r:
        from fractions import Fraction
        mu_ratio = Fraction(a * L_prime, b * L)

    H, pos = subgroup_as_group(Gp, sub, imgs)
    iso = find_isomorphism(H, theta.group)
    if iso is None:
        raise InvalidEmbedding("word images do not generate a copy of G")
    mapped = [iso[pos[v]] for v in imgs]
    gamma = theta.signature.gamma
    restricted = Ske(
        theta.group,
        theta.signature,
        tuple(mapped[: 2 * gamma]),
        tuple(mapped[2 * gamma:]),
    )
    valid, _ = validate_ske(restricted)
    equivalent = valid and _in_class_orbit(restricted, theta)
    return ExtensionReport(
        ok=bool(mu_ok and valid and equivalent),
        index=index,
        mu_ratio=mu_ratio,
        mu_ratio_ok=mu_ok,
        subgroup_isomorphic=True,
        restriction_valid=valid,
        equivalent_to_theta=equivalent,
        restriction=tuple(theta.group.names[v] for v in mapped),
    )


def _in_class_orbit(ske: Ske, theta: Ske) -> bool:
    """Whether the valid ske lies in theta's orbit.  The moves keep the
    subgroup a tuple generates, so a theta that does not generate has no
    valid ske in it."""
    G = theta.group
    moves = _orbit_moves(G, theta.signature)
    t = theta.hyperbolic + theta.elliptic
    return _canon(G, ske.hyperbolic + ske.elliptic) in _orbit(_canon(G, t), moves)


def extension_data(n: int, family: str, supergroup: str):
    """The explicit supergroup action and restriction words for each family.

    Returns (theta, theta_prime, words);  theta is the ske of Q(2^n) the
    restriction must be equivalent to: F0's representative, a variant of
    F1's, or the F2 stratum representative theta_p (`_theta_p`).
    """
    G = build_quaternion(n)
    Gp = build_named(supergroup, n=n)
    z = Gp.element("z")
    x = Gp.element("x")
    y = Gp.element("y")
    mul = Gp.cayley
    half = 2 ** (n - 1)
    if family == "F0":
        if supergroup != "G1":
            raise ValueError("F0 extends to G1")
        theta = family_representative(n, "F0")
        tp = Ske(
            Gp,
            Signature(0, (2, 2, 2, half)),
            (),
            (z, mul[y][z], mul[mul[x][y]][z], mul[x][z]),
        )
        words = [
            [(0, 1), (1, 1)],        # alpha' = y1 y2
            [(3, 1), (1, 1)],        # beta'  = y4 y2
            [(3, 2)],                # gamma' = y4^2
        ]
        return theta, tp, words
    if family == "F1":
        if supergroup != "G1":
            raise ValueError("F1 extends to G1")
        # the variant of F1's theta_0 = (x y, y, y, x y) with p = 2^(n-2)
        theta = Ske(G, Signature(0, (4, 4, 4, 4)), (),
                    tuple(map(G.element, ("x*y", "y", "y^-1", "x*y^-1"))))
        tp = Ske(
            Gp,
            Signature(0, (2, 2, 4, 4)),
            (),
            (mul[z][y], mul[mul[x][y]][z], mul[x][y], y),
        )
        words = [
            [(2, 1)],                  # x1' = y3
            [(3, 1)],                  # x2' = y4
            [(0, 1), (3, 1), (0, 1)],  # x3' = y1 y4 y1
            [(1, 1), (2, 1), (1, 1)],  # x4' = y2 y3 y2
        ]
        return theta, tp, words
    if family == "F2":
        p = 2 ** (n - 2) if supergroup == "G1" else 2
        # theta_p lies in F2 for n >= 4 and in F1 at n = 3
        theta = Ske(G, Signature(0, (half, half, 4, 4)), (), _theta_p(G, p))
        tp = Ske(
            Gp,
            Signature(0, (2, 2, 4, half)),
            (),
            (z, mul[z][y], mul[x][Gp.inv[y]], x),
        )
        words = [
            [(1, 1), (3, 1), (1, 1)],                  # x1'' = y2 y4 y2
            [(3, 1)],                                  # x2'' = y4
            [(0, 1), (1, 1), (2, 1), (1, -1), (0, -1)],  # (y1 y2) y3 (y1 y2)^-1
            [(1, 1), (2, 1), (1, 1)],                  # x4'' = y2 y3 y2
        ]
        return theta, tp, words
    raise ValueError(f"no extension data for family {family!r}")
