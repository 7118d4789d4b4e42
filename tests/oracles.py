"""Independent references that the tests compare the program against.

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
- The subgroup lattice, from closures of at most two elements plus pairwise
  joins, and normality by conjugation.  `qact.groups` finds maximal
  subgroups as kernels onto C2 instead.
- The orbit classification on every valid tuple, with braid (or elementary)
  moves and a generating set of Aut(G) as relabelling moves.
  `qact.actions.classify` searches on Aut-classes instead.
- The classification on Aut-classes with every tuple relabelled by `_canon`
  and each representative the least over orbit x Aut(G).
  `qact.actions.classify` keeps the least-pair tuples and takes the
  minimum over Aut(G) only where slots 0 and 1 do not generate.
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
"""

from __future__ import annotations

import cmath
import itertools
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
    _aut_table,
    _braid_moves,
    _canon,
    _genus_one_moves,
    _orbit_moves,
    iter_genus_one_triples,
    iter_valid_tuples,
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
    if sig.mu() <= 0:
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
    auts, _ = _aut_table(G)
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
    det = avg[0][0] * avg[1][1] - avg[0][1] * avg[1][0]
    if not det.is_zero():
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
        total = total + V.value_at(k)
    total = total.reduce_conductor()
    if not total.is_rational():
        raise ValueError("averaged character value must be rational")
    d = total.rational_value() / len(K)
    if d.denominator != 1 or d < 0:
        raise ValueError(f"fixed-space dimension came out as {d}")
    return int(d)


# ---------------------------------------------------------------------------
# associativity and the subgroup lattice
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
    lead = a[-1]
    return [c / lead for c in a]


def _poly_mod(a: list[Cyclotomic], b: list[Cyclotomic]) -> list[Cyclotomic]:
    a = list(a)
    while len(a) >= len(b) and any(not c.is_zero() for c in a):
        if a[-1].is_zero():
            a.pop()
            continue
        factor = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] = a[shift + i] - factor * c
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
