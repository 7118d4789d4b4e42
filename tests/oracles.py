"""Independent references that the tests compare the program against.

- mu and the genus from Riemann-Hurwitz, 2g - 2 = |G| mu, in Fractions.
  `qact.actions.genus_from_signature` decides it in integers over the lcm
  of the periods, and `classify` and `check_extension` compare mu there.
- The paper's own route to the multiplicities of a Jacobian action:
  dim A_K = <rho_a, rho_K> = genus(S_K) over every named subgroup K, solved
  exactly.  `qact.decomp.multiplicities` uses the Chevalley-Weil formula.
- Permutation characters rho_K and the inner product of class functions, the
  paper's route to <rho_a, rho_K>.  `qact.reptheory.fixed_dims` reads the
  same numbers off fixed-space dimensions.
- Fixed-space dimensions as the average of a character over K, exactly in
  the cyclotomic field.  `qact.reptheory.fixed_dims` counts them in
  integers from the normal form instead.
- Associativity of a Cayley table over all triples.  `qact.groups` checks
  it on the distinguished generators only (Light's test).
- A catalogue group's Cayley table from every product of two normal forms,
  |G|^2 of them.  `qact.groups._materialize` forms only the products by a
  letter and reads the rest along a BFS tree (`_tree_table`).
- The center as the elements commuting with every element, and the
  commutator subgroup as the closure of every commutator.  `qact.groups`
  tests commutation with the generators only, and takes the normal closure
  of the commutators of generator pairs.
- The subgroup lattice, from closures of at most two elements plus pairwise
  joins, and normality by conjugation.  `qact.groups` finds maximal
  subgroups as kernels onto C2 instead.
- Every valid tuple of given orders, by a product over all but the last
  three slots with the valid last two cached per (running product, mask),
  and every generating genus-one triple by a walk over all pairs (a, b).
  `qact.actions._class_tuples` walks slot by slot, with the stabilizer
  chain on or off, and `_genus_one_classes` with the chain on.
- The orbit classification on every valid tuple, with braid (or elementary)
  moves and a generating set of Aut(G) as relabelling moves.
  `qact.actions.classify` searches on Aut-classes instead.
- The classification on Aut-classes with every tuple relabelled by `_canon`
  and each representative the least over orbit x Aut(G).
  `qact.actions.classify` takes each orbit's least class, with no
  relabelling.
- The classification on Aut-classes found by walking every valid tuple and
  keeping those that are their own `_canon` form, with the class count taken
  from the same walk.  `qact.actions.classify` builds the classes by a
  stabilizer chain and counts the tuples apart from it.
- The number of generating product-one tuples of given orders twice: by a
  transfer-matrix DP over (running product, maximal-subgroup mask) states,
  and by Hall's Moebius inversion over the subgroups containing Phi(G),
  each counted by a product of step matrices with no generation test.
  `qact.actions.count_valid_tuples` uses Hall's inversion too, but counts
  each subgroup's tuples from its characters in closed form, from n alone.
- Each subgroup's character sum for that count, summed over the 2-adic
  valuation v of t, one Ramanujan product per v.  `qact.actions` sums the
  valuations in closed form (`_ramanujan_classes`).
- The explicit representing matrices of the irreducibles of Q(2^n), and
  fixed-space dimensions as ranks of averaged projectors.  `qact.reptheory`
  works with characters only.
- Exact squarefreeness of a univariate polynomial over Q(i), by the gcd of f
  and f', and the numeric values of exact cyclotomics and polynomials.
- Multiplicity vectors from one b value per Galois orbit, and random valid
  ones.
- Cyclotomic arithmetic with one Fraction per coefficient.
  `qact.cyclo.Cyclotomic` keeps integer numerators over one reduced
  common denominator.
- The Gauss-Newton Jacobian one basis matrix and one generator at a time,
  and the integer matrix product by index.  `qact.siegel` multiplies each
  generator's blocks into the whole stacked basis at once and sums rows
  against columns with `map`.
- The exact fixed-family residual A F + B - F (C F + D) with the integer
  blocks lifted into constant polynomial matrices, formed by `@` and
  entrywise + and -.  `qact.siegel` applies the integer entries to F's
  entries directly (`_affine`, the formula of the numeric residual too) and
  compares A F + B with F (C F + D).
- The upper half-space test in numpy, by `np.allclose` and
  `np.linalg.cholesky`.  `qact.siegel` does it in plain Python on tuples of
  complex numbers.
"""

from __future__ import annotations

import cmath
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from qact.actions import (
    OrbitReport,
    Signature,
    Ske,
    UnsupportedMove,
    _arrangements,
    _braid_moves,
    _canon,
    _genus_one_moves,
    _maximal_masks,
    _orbit_moves,
    _order_buckets,
    _pointwise_stabilizer,
    quotient_data,
)
from qact.cyclo import Cyclotomic, CycloPoly, PolyMatrix, _is_power_of_two
from qact.decomp import MultiplicityVector
from qact.groups import (
    FiniteGroup,
    _orbit,
    automorphisms,
    coset_cycles,
    named_subgroups,
    subgroup_by_label,
)
from qact.reptheory import Character, class_data, fixed_dims, galois_orbit
from qact.siegel import as_int_matrix, blocks


# ---------------------------------------------------------------------------
# Riemann-Hurwitz in Fractions
# ---------------------------------------------------------------------------


def mu_by_fraction(sig: Signature) -> Fraction:
    """mu = 2 gamma - 2 + sum (1 - 1/k_i)."""
    return 2 * sig.gamma - 2 + sum(Fraction(k - 1, k) for k in sig.periods)


def genus_by_fraction(group_order: int, sig: Signature) -> int | None:
    """Genus g with 2g - 2 = |G| * mu, when integral and >= 2; None otherwise."""
    mu = mu_by_fraction(sig)
    if mu <= 0:
        return None
    val = group_order * mu
    if val.denominator != 1 or val.numerator % 2 != 0:
        return None
    g = val.numerator // 2 + 1
    return g if g >= 2 else None


# ---------------------------------------------------------------------------
# multiplicities from quotient genera
# ---------------------------------------------------------------------------


class UnderdeterminedSystem(ValueError):
    """The quotient-genus system does not pin down the multiplicities."""


def multiplicities_from_quotient_genera(ske) -> MultiplicityVector:
    """Recover (a; b) of a Jacobian action from the genera of its quotients.

    Sets up dim A_K = <rho_a, rho_K> over K in {1, named subgroups, G} with
    dim A_K = genus(S_K) computed by the coset-action machinery, and solves
    the exact linear system in the orbit variables (a_1..a_4, c_1..c_(n-2)).
    Inconsistency means a bug (the genera come from an actual action);
    an underdetermined system is reported as such.
    """
    G = ske.group
    if G.kind != "quaternion":
        raise ValueError("multiplicities are defined for Q(2^n) actions")
    n = G.params["n"]
    subs = dict(named_subgroups(G))
    for lbl in ("1", "G"):
        subs[lbl] = subgroup_by_label(G, lbl)

    unknowns = 4 + (n - 2)
    rows, rhs = [], []
    for lbl, K in sorted(subs.items()):
        dims = fixed_dims(n, K)
        row = [Fraction(d) for d in dims[:4]]
        for l in range(1, n - 1):
            # Theta_s sits at index 3 + s, after chi1..chi4
            row.append(Fraction(sum(dims[3 + s] for s in galois_orbit(n, 2 ** (l - 1)))))
        rows.append(row)
        rhs.append(Fraction(quotient_data(ske, K).genus))
    solution = _solve_exact(rows, rhs, unknowns)
    a = tuple(int(v) for v in solution[:4])
    orbit_b = [int(v) for v in solution[4:]]
    if any(v != int(v) for v in solution) or any(v < 0 for v in solution):
        raise RuntimeError(f"non-integral or negative multiplicities {solution}")
    return from_orbit_values(n, a, orbit_b)


def _solve_exact(rows, rhs, unknowns) -> list[Fraction]:
    """Exact Gaussian elimination; raises on inconsistency/underdetermination."""
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    m = len(aug)
    pivots = []
    r = 0
    for c in range(unknowns):
        pivot = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        pv = aug[r][c]
        aug[r] = [v / pv for v in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [v - f * w for v, w in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    for i in range(r, m):
        if aug[i][unknowns] != 0:
            raise RuntimeError("inconsistent quotient-genus system (internal error)")
    if len(pivots) < unknowns:
        free = [c for c in range(unknowns) if c not in pivots]
        raise UnderdeterminedSystem(f"free variables at positions {free}")
    out = [Fraction(0)] * unknowns
    for i, c in enumerate(pivots):
        out[c] = aug[i][unknowns]
    return out


# ---------------------------------------------------------------------------
# every valid tuple: the tail-cached enumerator and the genus-one pair walk
# ---------------------------------------------------------------------------


def iter_valid_tuples(G, periods, max_candidates: int | None = None):
    """All (g_1..g_s) with the given exact orders, product 1, generating G.

    Each slot ranges over its order bucket in increasing element index, so
    the tuples come in lexicographic order; `_order_buckets` checks the
    budget.  One `itertools.product` runs over the first s - 3 buckets, and
    each prefix folds into its product and its maximal-subgroup mask
    (`_maximal_masks`); the loop over slot s - 3 is inline.  The last two
    slots depend only on (product, mask) after slot s - 3: their valid pairs
    (g, last), with `last` solved from the long relation and kept in bucket
    order, are computed once per key into a per-call tail cache.  Each tuple
    is the prefix through slot s - 3 joined to one cached pair, so it costs
    one generator resumption.
    """
    s = len(periods)
    if s < 2:
        return
    cayley = G.cayley
    inv = G.inv
    orders = G.orders
    buckets = _order_buckets(G, periods, max_candidates)
    masks, full = _maximal_masks(G)
    if any(not b for b in buckets):
        return
    k_last = periods[-1]

    def tail(pr: int, mk: int) -> list[tuple[int, int]]:
        row = cayley[pr]
        pairs = []
        for g in buckets[-2]:
            last = inv[row[g]]
            if orders[last] == k_last and not mk & masks[g] & masks[last]:
                pairs.append((g, last))
        return pairs

    if s == 2:
        yield from tail(0, full)
        return

    tails: dict[tuple[int, int], list[tuple[int, int]]] = {}
    bucket = buckets[s - 3]
    for pre in itertools.product(*buckets[: s - 3]):
        pr, mk = 0, full
        for g in pre:
            pr, mk = cayley[pr][g], mk & masks[g]
        row = cayley[pr]
        for g in bucket:
            key = (row[g], mk & masks[g])
            pairs = tails.get(key)
            if pairs is None:
                pairs = tails[key] = tail(*key)
            if pairs:
                yield from map((pre + (g,)).__add__, pairs)


def iter_genus_one_triples(G, k: int):
    """All (a, b, g) with [alpha,beta]*x = 1, ord(g) = k, <a,b> = G."""
    masks, _ = _maximal_masks(G)
    for a in range(G.order):
        ma = masks[a]
        for b in range(G.order):
            if ma & masks[b]:
                continue
            g = G.inv[G.commutator(a, b)]
            if G.orders[g] == k:
                yield (a, b, g)


# ---------------------------------------------------------------------------
# orbits on full tuples
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def aut_generators(G) -> tuple[tuple[int, ...], ...]:
    """A generating set of Aut(G), picked greedily from `automorphisms(G)`.

    Orbits of a group are the connected components of its Schreier graph on
    any generating set, so these few moves give the orbits of all of Aut(G).
    """
    auts = automorphisms(G)
    identity = tuple(range(G.order))
    gens: list[tuple[int, ...]] = []
    span = {identity}
    for p in auts:
        if p not in span:
            gens.append(p)
            span = _orbit(identity, aut_moves(gens))
    if len(span) != len(auts):
        raise RuntimeError("the chosen automorphisms do not span Aut(G)")
    return tuple(gens)


def aut_moves(perms):
    """Relabelling moves t -> p(t), one per permutation."""
    return [lambda t, p=p: tuple(p[g] for g in t) for p in perms]


def classify_on_tuples(G, sig: Signature, max_candidates: int = 5_000_000) -> OrbitReport:
    """Orbits of every valid ske under braids (gamma 0) or the two elementary
    moves (gamma 1), with the relabellings by `aut_generators` as moves."""
    if sig.gamma == 0:
        base = _braid_moves(G, len(sig.periods))
        nodes = set()
        for arrangement in sorted(set(itertools.permutations(sig.periods))):
            nodes.update(iter_valid_tuples(G, arrangement, max_candidates))
        node_of = lambda t: Ske(G, Signature(0, tuple(G.orders[g] for g in t)), (), t)
    elif sig.gamma == 1 and len(sig.periods) == 1:
        base = _genus_one_moves(G)
        nodes = set(iter_genus_one_triples(G, sig.periods[0]))
        node_of = lambda t: Ske(G, sig, (t[0], t[1]), (t[2],))
    else:
        raise UnsupportedMove(f"classification not implemented for signature {sig}")
    moves = base + aut_moves(aut_generators(G))
    orbits = []
    unvisited = set(nodes)
    while unvisited:
        orbit = _orbit(unvisited.pop(), moves, nodes)
        unvisited -= orbit
        orbits.append(orbit)
    orbits.sort(key=min)
    return OrbitReport(
        signature=sig,
        total=len(nodes),
        orbit_count=len(orbits),
        representatives=tuple(node_of(min(orbit)) for orbit in orbits),
        orbit_sizes=tuple(len(o) for o in orbits),
    )


def classify_by_canon(G, sig: Signature, max_candidates: int = 5_000_000) -> OrbitReport:
    """The search on Aut-classes, with each class found as the `_canon` form
    of its tuples and each representative the least relabelling over its
    orbit's classes."""
    if mu_by_fraction(sig) <= 0:
        raise ValueError(f"signature {sig} has mu <= 0: no surface of genus >= 2 carries it")
    moves = _orbit_moves(G, sig)
    if sig.gamma == 0:
        tuples = itertools.chain.from_iterable(
            iter_valid_tuples(G, arrangement, max_candidates)
            for arrangement in sorted(set(itertools.permutations(sig.periods)))
        )
        node_of = lambda t: Ske(G, Signature(0, tuple(G.orders[g] for g in t)), (), t)
    else:
        tuples = iter_genus_one_triples(G, sig.periods[0])
        node_of = lambda t: Ske(G, sig, (t[0], t[1]), (t[2],))
    auts = automorphisms(G)
    nodes = Counter(_canon(G, t) for t in tuples)
    total = nodes.total()
    if total != len(auts) * len(nodes):
        raise RuntimeError(f"{total} valid skes do not fill {len(nodes)} classes of {len(auts)}")
    orbits = []
    unvisited = set(nodes)
    while unvisited:
        orbit = _orbit(unvisited.pop(), moves, nodes)
        unvisited -= orbit
        orbits.append((min(tuple(p[g] for g in c) for c in orbit for p in auts), len(orbit)))
    orbits.sort()
    return OrbitReport(
        signature=sig,
        total=total,
        orbit_count=len(orbits),
        representatives=tuple(node_of(rep) for rep, _ in orbits),
        orbit_sizes=tuple(size * len(auts) for _, size in orbits),
    )


def classify_by_filter(G, sig: Signature, max_candidates: int = 5_000_000) -> OrbitReport:
    """The search on Aut-classes, with the classes found by walking every
    valid tuple and keeping one whose slot 0 is the least of its Aut-orbit
    and that is its own `_canon` form; the walk also counts the tuples."""
    if mu_by_fraction(sig) <= 0:
        raise ValueError(f"signature {sig} has mu <= 0: no surface of genus >= 2 carries it")
    moves = _orbit_moves(G, sig)
    if sig.gamma == 0:
        tuples = itertools.chain.from_iterable(
            iter_valid_tuples(G, arrangement, max_candidates)
            for arrangement in _arrangements(sig.periods)
        )
        node_of = lambda t: Ske(G, Signature(0, tuple(G.orders[g] for g in t)), (), t)
    else:
        tuples = iter_genus_one_triples(G, sig.periods[0])
        node_of = lambda t: Ske(G, sig, (t[0], t[1]), (t[2],))
    auts, least, _ = _pointwise_stabilizer(G, frozenset())
    total = 0
    nodes = set()
    for t in tuples:
        total += 1
        if t[0] in least and _canon(G, t) == t:
            nodes.add(t)
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


# ---------------------------------------------------------------------------
# generating tuples by a (product, mask) DP and by Hall's Moebius inversion
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _prefix_states(G, periods: tuple[int, ...]) -> dict[tuple[int, int], int]:
    """The number of tuples with the given exact orders per state (product,
    AND of their `_maximal_masks`).  Cached per prefix: signatures met in
    lex order share theirs."""
    masks, full = _maximal_masks(G)
    if not periods:
        return {(0, full): 1}
    cayley = G.cayley
    bucket = [g for g in range(G.order) if G.orders[g] == periods[-1]]
    out: dict[tuple[int, int], int] = {}
    for (pr, mk), count in _prefix_states(G, periods[:-1]).items():
        row = cayley[pr]
        for g in bucket:
            key = (row[g], mk & masks[g])
            out[key] = out.get(key, 0) + count
    return out


def count_by_dp(G, periods) -> int:
    """The number of valid tuples with these exact orders, the tuples
    `iter_valid_tuples` yields, without generating them: a transfer-matrix
    DP over (running product, mask), the last slot solved from the long
    relation."""
    periods = tuple(periods)
    if len(periods) < 2:
        return 0
    masks, _ = _maximal_masks(G)
    total = 0
    for (pr, mk), count in _prefix_states(G, periods[:-1]).items():
        last = G.inv[pr]
        if G.orders[last] == periods[-1] and not mk & masks[last]:
            total += count
    return total


@lru_cache(maxsize=None)
def _frattini_interval(G) -> tuple[tuple[frozenset, int], ...]:
    """The five subgroups H between Phi(G) and G, each with its Moebius value
    mu(H, G) on the subgroup lattice: 1 for G, -1 for each maximal subgroup,
    2 for Phi(G).  G is a 2-group on two generators, so Phi(G) is generated
    by the squares and G/Phi(G) is C2 x C2."""
    phi = G.closure({G.cayley[g][g] for g in range(G.order)})
    maximal = {G.closure(phi | {g}) for g in range(G.order) if g not in phi}
    if 4 * len(phi) != G.order or len(maximal) != 3:
        raise RuntimeError("G/Phi(G) is not C2 x C2")
    return ((frozenset(range(G.order)), 1), *((H, -1) for H in sorted(maximal, key=sorted)), (phi, 2))


@lru_cache(maxsize=None)
def _step_matrix(G, H: frozenset, k: int) -> np.ndarray:
    """T[x, y] = the number of g in H of order k with x * g = y."""
    T = np.zeros((G.order, G.order), dtype=np.int64)
    for g in H:
        if G.orders[g] == k:
            for x in H:
                T[x, G.cayley[x][g]] += 1
    return T


def count_by_hall(G, periods) -> int:
    """The number of tuples of the given orders with product one that
    generate G: sum over H in `_frattini_interval` of mu(H, G) * N_H, N_H the
    number of such product-one tuples inside H, with no generation test
    (P. Hall, The Eulerian functions of a group, 1936).  A tuple generates
    G iff it lies in no maximal subgroup, and each of those contains Phi(G).
    The counts stay below |G|^(s-1) <= 64^6, well inside int64."""
    if len(periods) < 2:
        return 0
    total = 0
    for H, mu in _frattini_interval(G):
        v = np.zeros(G.order, dtype=np.int64)
        v[0] = 1
        for k in periods:
            v = v @ _step_matrix(G, H, k)
        total += mu * int(v[0])
    return total


def _ramanujan(k: int, v: int, N: int) -> int:
    """The sum of psi_t, x -> zeta_N^t, over the elements of order k of C_N
    = <x> (N a power of 2), for any t of 2-adic valuation v (v = log2 N for
    t = 0): the Ramanujan sum c_k(t), which is k/2 when k | t, -k/2 when
    k/2 exactly divides t, and 0 otherwise or when k does not divide N."""
    if N % k:
        return 0
    if k <= 1 << v:
        return k // 2
    if k == 2 << v:
        return -(k // 2)
    return 0


def _ramanujan_product(N: int, v: int, mult: dict[int, int]) -> int:
    """`_ramanujan` multiplied over the slots, given as {period: slots}."""
    return math.prod(_ramanujan(k, v, N) ** e for k, e in mult.items())


def cyclic_count_by_valuation(N: int, gamma: int, mult: dict[int, int]) -> int:
    """`qact.actions._cyclic_count` with the characters psi_t of C_N summed
    by the valuation v of t: N/2^(v+1) residues for v < log2 N, and t = 0."""
    r = N.bit_length() - 1
    z = _ramanujan_product(N, r, mult)
    z += sum((N >> (v + 1)) * _ramanujan_product(N, v, mult) for v in range(r))
    q, rem = divmod(N ** (2 * gamma) * z, N)
    assert rem == 0
    return q


def quaternion_count_by_valuation(m: int, gamma: int, mult: dict[int, int]) -> int:
    """`qact.actions._quaternion_count` with the Theta_t summed by the
    valuation v of t: M/2^(v+2) of the t = 1 .. M/2 - 1 have valuation v,
    M = 2^(m-1)."""
    s = sum(mult.values())
    M = 1 << (m - 1)
    r = m - 1
    linear = 2 * _ramanujan_product(M, r - 1, mult)
    for d in (M, -M):
        linear += math.prod((_ramanujan(k, r, M) + (d if k == 4 else 0)) ** e for k, e in mult.items())
    theta = 2 ** s * sum((M >> (v + 2)) * _ramanujan_product(M, v, mult) for v in range(r - 1))
    lift = 2 ** (2 * gamma + s - 2)
    q, rem = divmod((2 * M) ** (2 * gamma) * (lift * linear + theta), 2 * M * lift)
    assert rem == 0
    return q


# ---------------------------------------------------------------------------
# representing matrices
# ---------------------------------------------------------------------------


def theta_matrices(n: int, s: int):
    """The printed 2x2 matrices of Theta_s on (x, y), over Q(zeta_(2^(n-1)))."""
    m = 2 ** (n - 1)
    zero = Cyclotomic.zero(m)
    one = Cyclotomic.one(m)
    X = ((Cyclotomic.zeta(m, s), zero), (zero, Cyclotomic.zeta(m, -s)))
    Y = ((zero, one if s % 2 == 0 else -one), (one, zero))
    return X, Y


def rep_matrix(n: int, label: str, g: int):
    """The representing matrix of the irreducible `label` at element g."""
    a, e = divmod(g, 2)  # element g is x^a y^e in normal-form order
    if label.startswith("chi"):
        k = int(label[3:])
        sx = -1 if k in (3, 4) else 1
        sy = -1 if k in (2, 4) else 1
        return ((Cyclotomic.from_rational(sx**a * sy**e, 2),),)
    s = int(label[5:])
    X, Y = theta_matrices(n, s)
    M = _mat_pow(X, a, n)
    if e:
        M = _mat_mul(M, Y)
    return M


def _mat_mul(A, B):
    size = len(A)
    return tuple(
        tuple(sum((A[i][k] * B[k][j] for k in range(size)), Cyclotomic.zero(2)) for j in range(size))
        for i in range(size)
    )


def _mat_pow(A, k, n):
    """A^k by square-and-multiply."""
    if k == 0:
        m = 2 ** (n - 1)
        return tuple(
            tuple(Cyclotomic.one(m) if i == j else Cyclotomic.zero(m) for j in range(len(A)))
            for i in range(len(A))
        )
    out = None
    while k:
        if k & 1:
            out = A if out is None else _mat_mul(out, A)
        k >>= 1
        if k:
            A = _mat_mul(A, A)
    return out


def fixed_dim_by_averaging(n: int, label: str, K: frozenset) -> int:
    """Independent cross-check: rank of the exact projector (1/|K|) sum_K rho(k)."""
    mats = [rep_matrix(n, label, k) for k in K]
    size = len(mats[0])
    m = 2 ** (n - 1)
    avg = [[Cyclotomic.zero(m) for _ in range(size)] for _ in range(size)]
    for M in mats:
        for i in range(size):
            for j in range(size):
                avg[i][j] = avg[i][j] + M[i][j]
    inv_k = Fraction(1, len(K))
    avg = [[inv_k * avg[i][j] for j in range(size)] for i in range(size)]
    # rank of a matrix of size <= 2 over a field
    if size == 1:
        return 0 if avg[0][0].is_zero() else 1
    if avg[0][0] * avg[1][1] != avg[0][1] * avg[1][0]:
        return 2
    if any(not avg[i][j].is_zero() for i in range(2) for j in range(2)):
        return 1
    return 0


# ---------------------------------------------------------------------------
# multiplicity vectors
# ---------------------------------------------------------------------------


def from_orbit_values(n: int, a, orbit_b) -> MultiplicityVector:
    """Build from one b value per Galois orbit (orbit of 2^(l-1), l = 1..n-2)."""
    b = [0] * (2 ** (n - 2) - 1)
    for l, val in enumerate(orbit_b, start=1):
        for s in galois_orbit(n, 2 ** (l - 1)):
            b[s - 1] = val
    return MultiplicityVector(n, tuple(a), tuple(b))


def random_valid(n: int, rng, max_mult: int = 5) -> MultiplicityVector:
    a = tuple(rng.randint(0, max_mult) for _ in range(4))
    orbit_b = [rng.randint(0, max_mult) for _ in range(n - 2)]
    return from_orbit_values(n, a, orbit_b)


# ---------------------------------------------------------------------------
# permutation characters, inner products and character averages
# ---------------------------------------------------------------------------


def permutation_character(G: FiniteGroup, K: frozenset) -> Character:
    """The character of the action of G on the left cosets of K: the number
    of cosets each class representative fixes."""
    n = G.params["n"]
    cycles = coset_cycles(G, K)
    values = tuple(Cyclotomic.from_rational(cycles[g].count(1), 2) for g in class_data(n).reps)
    return Character(n, "rho_K", values)


def inner_product(chi: Character, psi: Character) -> Fraction:
    """(1/|G|) sum_g chi(g) psi(g^-1), computed exactly over classes."""
    chi._check(psi)
    cd = class_data(chi.n)
    inverse_class = [cd.class_of[cd.group.inv[r]] for r in cd.reps]
    total = Cyclotomic.zero(2)
    for c in range(len(cd.reps)):
        total = total + cd.sizes[c] * (chi.values[c] * psi.values[inverse_class[c]])
    total = total.reduce_conductor()
    if not total.is_rational():
        raise ValueError("inner product of class functions must be rational here")
    return total.rational_value() / cd.group.order


def fixed_subspace_dim(V: Character, K: frozenset) -> int:
    """dim V^K = (1/|K|) sum_{k in K} V(k) for the element set K, exactly."""
    total = Cyclotomic.zero(2)
    for k in K:
        total = total + V.values[class_data(V.n).class_of[k]]
    total = total.reduce_conductor()
    if not total.is_rational():
        raise ValueError("averaged character value must be rational")
    d = total.rational_value() / len(K)
    if d.denominator != 1 or d < 0:
        raise ValueError(f"fixed-space dimension came out as {d}")
    return int(d)


# ---------------------------------------------------------------------------
# Cayley tables, center, commutator subgroup, associativity and the subgroup
# lattice
# ---------------------------------------------------------------------------


def is_associative(cayley) -> bool:
    """Whether (a b) d = a (b d) for every triple of indices."""
    n = len(cayley)
    return all(
        cayley[cayley[a][b]][d] == cayley[a][cayley[b][d]]
        for a in range(n) for b in range(n) for d in range(n)
    )


def all_subgroups(G: FiniteGroup) -> frozenset[frozenset]:
    """Every subgroup, via closures of <=2-element subsets plus pairwise joins.

    The join pass makes the enumeration complete regardless of whether all
    subgroups are 2-generated; the lattice test compares both stages.
    """
    subs = two_generated_subgroups(G)
    current = set(subs)
    while True:
        new = set()
        for s, t in itertools.combinations(current, 2):
            if s <= t or t <= s:
                continue
            j = G.closure(s | t)
            if j not in current:
                new.add(j)
        if not new:
            break
        current |= new
    return frozenset(current)


def two_generated_subgroups(G: FiniteGroup) -> frozenset[frozenset]:
    subs = {frozenset([0])}
    cyclic = {}
    for g in range(G.order):
        cyclic[g] = G.closure([g])
        subs.add(cyclic[g])
    for g in range(G.order):
        for h in range(g + 1, G.order):
            if h in cyclic[g]:
                continue
            subs.add(G.closure([g, h]))
    return frozenset(subs)


def materialize_by_normal_forms(name, bounds, mult, relations, kind, params) -> FiniteGroup:
    """`qact.groups._materialize` with the Cayley table from every product of
    two normal forms, indexed and named as there."""
    elems = list(itertools.product(*map(range, bounds)))
    index = {e: i for i, e in enumerate(elems)}
    cayley = [[index[mult(a, b)] for b in elems] for a in elems]
    words = [zip(params["letters"], u) for u in elems]
    names = ["*".join(l if e == 1 else f"{l}^{e}" for l, e in w if e) or "1" for w in words]
    units = [tuple(int(i == j) for j in range(len(bounds))) for i in range(len(bounds))]
    return FiniteGroup(name, names, cayley, [index[u] for u in units], relations, kind, params)


def center_by_brute_force(G: FiniteGroup) -> frozenset:
    c = G.cayley
    return frozenset(g for g in G if all(c[g][h] == c[h][g] for h in G))


def commutator_subgroup_by_brute_force(G: FiniteGroup) -> frozenset:
    return G.closure({G.commutator(a, b) for a in G for b in G})


def is_normal(G: FiniteGroup, K: frozenset) -> bool:
    return all(G.conjugate(g, h) in K for g in K for h in range(G.order))


# ---------------------------------------------------------------------------
# exact squarefreeness and numeric values
# ---------------------------------------------------------------------------


def squarefree_exact(poly: CycloPoly) -> bool:
    """gcd(f, f') is constant, for a univariate f over Q(i)."""
    if poly.nvars != 1:
        raise ValueError("exact squarefreeness needs a univariate polynomial")
    f = _dense_from_poly(poly)
    df = [k * c for k, c in enumerate(f)][1:]
    g = _poly_gcd(f, df)
    return len(g) == 1


def _dense_from_poly(p: CycloPoly) -> list[Cyclotomic]:
    deg = max(e[0] for e, _ in p.terms)
    out = [Cyclotomic.zero(4) for _ in range(deg + 1)]
    for e, c in p.terms:
        out[e[0]] = c
    return out


def _poly_gcd(a: list[Cyclotomic], b: list[Cyclotomic]) -> list[Cyclotomic]:
    a, b = list(a), list(b)

    def trim(p):
        while p and p[-1].is_zero():
            p.pop()
        return p

    a, b = trim(a), trim(b)
    while b:
        a, b = b, trim(_poly_mod(a, b))
    lead = a[-1].inverse()
    return [c * lead for c in a]


def _poly_mod(a: list[Cyclotomic], b: list[Cyclotomic]) -> list[Cyclotomic]:
    a = list(a)
    while len(a) >= len(b) and any(not c.is_zero() for c in a):
        if a[-1].is_zero():
            a.pop()
            continue
        factor = -a[-1] * b[-1].inverse()
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] = a[shift + i] + factor * c
        a.pop()
    return a


def embed(c: Cyclotomic) -> complex:
    """Numerical value at zeta_m = exp(2*pi*i/m)."""
    z = cmath.exp(2j * cmath.pi / c.m)
    return sum(float(v) * z**j for j, v in enumerate(c.coeffs) if v)


def poly_eval(p: CycloPoly, point) -> complex:
    pt = list(point)
    total = 0j
    for e, c in p.terms:
        v = embed(c)
        for x, k in zip(pt, e):
            v *= x**k
        total += v
    return total


def is_symmetric(M: PolyMatrix) -> bool:
    return all(
        (M.entries[i][j] - M.entries[j][i]).is_zero()
        for i in range(M.rows)
        for j in range(i)
    )


# ---------------------------------------------------------------------------
# cyclotomic arithmetic on Fraction coefficients
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FractionCyclotomic:
    """An element of Q(zeta_m), m a power of two >= 2, as m/2 Fraction
    coefficients modulo zeta^(m/2) = -1."""

    m: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if not _is_power_of_two(self.m) or self.m < 2:
            raise ValueError(f"conductor must be a power of two >= 2, got {self.m}")
        if len(self.coeffs) != self.m // 2:
            raise ValueError(
                f"need {self.m // 2} coefficients for conductor {self.m}, got {len(self.coeffs)}"
            )

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(m: int = 2) -> FractionCyclotomic:
        return FractionCyclotomic(m, (Fraction(0),) * (m // 2))

    @staticmethod
    def one(m: int = 2) -> FractionCyclotomic:
        return FractionCyclotomic.from_rational(Fraction(1), m)

    @staticmethod
    def from_rational(q, m: int = 2) -> FractionCyclotomic:
        c = [Fraction(0)] * (m // 2)
        c[0] = Fraction(q)
        return FractionCyclotomic(m, tuple(c))

    @staticmethod
    def zeta(m: int, k: int = 1) -> FractionCyclotomic:
        """zeta_m^k, reduced."""
        d = m // 2
        k %= m
        c = [Fraction(0)] * d
        if k < d:
            c[k] = Fraction(1)
        else:
            c[k - d] = Fraction(-1)
        return FractionCyclotomic(m, tuple(c))

    @staticmethod
    def gauss(re, im) -> FractionCyclotomic:
        """re + im*i as an element of Q(i) (conductor 4)."""
        return FractionCyclotomic(4, (Fraction(re), Fraction(im)))

    # -- conductor handling --------------------------------------------------

    def lift(self, m: int) -> FractionCyclotomic:
        """Reinterpret in the larger conductor m (self.m must divide m)."""
        if m == self.m:
            return self
        if m % self.m != 0 or not _is_power_of_two(m):
            raise ValueError(f"cannot lift conductor {self.m} to {m}")
        step = m // self.m
        c = [Fraction(0)] * (m // 2)
        for j, v in enumerate(self.coeffs):
            c[j * step] = v
        return FractionCyclotomic(m, tuple(c))

    @staticmethod
    def common(a: FractionCyclotomic, b: FractionCyclotomic) -> tuple[FractionCyclotomic, FractionCyclotomic]:
        m = max(a.m, b.m)
        return a.lift(m), b.lift(m)

    # -- ring operations -----------------------------------------------------

    def __add__(self, other) -> FractionCyclotomic:
        other = _fraction_coerce(other, self.m)
        a, b = FractionCyclotomic.common(self, other)
        return FractionCyclotomic(a.m, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    def __radd__(self, other) -> FractionCyclotomic:
        return self.__add__(other)

    def __neg__(self) -> FractionCyclotomic:
        return FractionCyclotomic(self.m, tuple(-x for x in self.coeffs))

    def __sub__(self, other) -> FractionCyclotomic:
        return self + (-_fraction_coerce(other, self.m))

    def __rsub__(self, other) -> FractionCyclotomic:
        return _fraction_coerce(other, self.m) - self

    def __mul__(self, other) -> FractionCyclotomic:
        other = _fraction_coerce(other, self.m)
        a, b = FractionCyclotomic.common(self, other)
        d = a.m // 2
        out = [Fraction(0)] * d
        for i, x in enumerate(a.coeffs):
            if not x:
                continue
            for j, y in enumerate(b.coeffs):
                if not y:
                    continue
                k = i + j
                if k < d:
                    out[k] += x * y
                else:
                    out[k - d] -= x * y
        return FractionCyclotomic(a.m, tuple(out))

    def __rmul__(self, other) -> FractionCyclotomic:
        return self.__mul__(other)

    def inverse(self) -> FractionCyclotomic:
        """Field inverse by the tower norm (Pornin-Prest, PKC 2019).

        N(a) = a(zeta) * a(-zeta) is fixed by zeta -> -zeta, so it lies in
        Q(zeta^2), and 1/a = a(-zeta) / N(a) recurses down to Q.
        """
        if self.is_zero():
            raise ZeroDivisionError("division by zero in Q(zeta)")
        if self.m == 2:
            return FractionCyclotomic(2, (1 / self.coeffs[0],))
        conj = self.galois(self.m // 2 + 1)
        norm = self * conj
        if any(norm.coeffs[1::2]):
            raise RuntimeError(f"tower norm of {self} does not lie in Q(zeta_{self.m // 2})")
        return FractionCyclotomic(self.m // 2, norm.coeffs[0::2]).inverse().lift(self.m) * conj

    def __truediv__(self, other) -> FractionCyclotomic:
        other = _fraction_coerce(other, self.m)
        a, b = FractionCyclotomic.common(self, other)
        return a * b.inverse()

    def __rtruediv__(self, other) -> FractionCyclotomic:
        return _fraction_coerce(other, self.m) / self

    def __pow__(self, k: int) -> FractionCyclotomic:
        if k < 0:
            return self.inverse() ** (-k)
        out = FractionCyclotomic.one(self.m)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = FractionCyclotomic.from_rational(other, self.m)
        if not isinstance(other, FractionCyclotomic):
            return NotImplemented
        a, b = FractionCyclotomic.common(self, other)
        return a.coeffs == b.coeffs

    def __hash__(self):
        return hash((self.reduce_conductor().m, self.reduce_conductor().coeffs))

    # -- structure -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

    def reduce_conductor(self) -> FractionCyclotomic:
        """Smallest 2-power conductor containing this element."""
        m = self.m
        c = self.coeffs
        while m > 2:
            half = m // 2
            # lives in conductor m/2 iff all odd-position coefficients vanish
            if any(c[j] for j in range(1, half, 2)):
                break
            c = tuple(c[j] for j in range(0, half, 2))
            m = half
        return FractionCyclotomic(m, c)

    def galois(self, t: int) -> FractionCyclotomic:
        """The field automorphism zeta_m -> zeta_m^t, t odd."""
        if t % 2 == 0:
            raise ValueError(f"galois exponent must be odd, got {t}")
        d = self.m // 2
        out = [Fraction(0)] * d
        for j, v in enumerate(self.coeffs):
            if not v:
                continue
            k = (j * t) % self.m
            if k < d:
                out[k] += v
            else:
                out[k - d] -= v
        return FractionCyclotomic(self.m, tuple(out))

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for j, v in enumerate(self.coeffs):
            if not v:
                continue
            if j == 0:
                parts.append(str(v))
            else:
                head = "" if v == 1 else ("-" if v == -1 else f"{v}*")
                parts.append(f"{head}z{self.m}^{j}" if j > 1 else f"{head}z{self.m}")
        return " + ".join(parts).replace("+ -", "- ")

    # -- JSON ----------------------------------------------------------------

    def to_json(self) -> dict:
        return {"m": self.m, "coeffs": [str(c) for c in self.coeffs]}


def _fraction_coerce(x, m: int) -> FractionCyclotomic:
    if isinstance(x, FractionCyclotomic):
        return x
    if isinstance(x, (int, Fraction)):
        return FractionCyclotomic.from_rational(x, m)
    raise TypeError(f"cannot coerce {type(x)} into Q(zeta)")


# ---------------------------------------------------------------------------
# the Gauss-Newton Jacobian and integer matrix products, one product at a time
# ---------------------------------------------------------------------------


def sym_basis_list(g: int) -> list[np.ndarray]:
    basis = []
    for i in range(g):
        for j in range(i, g):
            E = np.zeros((g, g), dtype=complex)
            E[i, j] = 1.0
            E[j, i] = 1.0
            basis.append(E)
    return basis


def jacobian_per_basis(gens_blocks, Z: np.ndarray, basis) -> np.ndarray:
    cols = []
    for E in basis:
        col = []
        for A, B, C, D in gens_blocks:
            col.append((A @ E - E @ (C @ Z + D) - Z @ (C @ E)).ravel())
        cols.append(np.concatenate(col))
    return np.array(cols).T


def mat_mul_by_index(A, B):
    n = len(A)
    m = len(B[0])
    k = len(B)
    Bt = list(zip(*B))
    return tuple(
        tuple(sum(A[i][t] * Bt[j][t] for t in range(k)) for j in range(m))
        for i in range(n)
    )


# ---------------------------------------------------------------------------
# the exact fixed-family residual on lifted integer blocks
# ---------------------------------------------------------------------------


def _lift(M, nvars: int) -> PolyMatrix:
    """An integer matrix as a matrix of constant polynomials."""
    return PolyMatrix.make(
        [[CycloPoly.constant(nvars, Cyclotomic.from_rational(v, 4)) for v in row] for row in M]
    )


def _plus(p: CycloPoly, q: CycloPoly) -> CycloPoly:
    return CycloPoly.combination(p.nvars, [(1, p), (1, q)])


def _entrywise(op, P: PolyMatrix, Q: PolyMatrix) -> PolyMatrix:
    assert (P.rows, P.cols) == (Q.rows, Q.cols)
    return PolyMatrix.make([list(map(op, r, s)) for r, s in zip(P.entries, Q.entries)])


def fixed_family_by_lifted_blocks(generators, family: PolyMatrix) -> tuple[bool, ...]:
    """Per generator R = [[A, B], [C, D]], whether A F + B - F (C F + D) is
    the zero matrix, with A, B, C, D lifted into constant polynomial matrices
    and the residual formed by `@` and entrywise + and -."""
    g = family.rows
    nv = family.entries[0][0].nvars
    flags = []
    for R in generators:
        A, B, C, D = (_lift(M, nv) for M in blocks(as_int_matrix(R), g))
        lhs = _entrywise(_plus, A @ family, B)
        rhs = family @ _entrywise(_plus, C @ family, D)
        residual = _entrywise(CycloPoly.__sub__, lhs, rhs)
        flags.append(all(e.is_zero() for row in residual.entries for e in row))
    return tuple(flags)


# ---------------------------------------------------------------------------
# the upper half-space test in numpy
# ---------------------------------------------------------------------------


def in_upper_half_numpy(Z) -> bool:
    """Symmetric by np.allclose, with squared Cholesky pivots of Im Z above
    1e-10."""
    Z = np.array(Z, dtype=complex)
    if not np.allclose(Z, Z.T, atol=1e-8):
        return False
    try:
        L = np.linalg.cholesky(np.imag(Z))
    except np.linalg.LinAlgError:
        return False
    return float(np.min(np.diag(L)) ** 2) > 1e-10
