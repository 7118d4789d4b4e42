"""Concrete finite 2-groups of order <= 64 with exhaustively verified presentations.

Each named group is built by one recipe, `_materialize`, from a normal form
l1^e1 * ... * lk^ek (a tuple of exponents) and a closed-form product rule read
off its defining relations.  Only the products by a letter are formed: one
routine, `_tree_table`, reads the full Cayley table along a BFS tree from
the generators' right action, for these groups and for the matrix groups of
`siegel` alike.  The constructor then verifies that the table is a Latin
square with identity 0, that it is associative by Light's test on the
generators, that every defining relation evaluates to the identity and that
the generators generate, so a mistake in a product rule cannot survive
construction.  Each catalogue group is built once per parameter value and
shared, because skes and the group-keyed caches compare groups by identity.

Generic machinery (closures, conjugacy classes, the action on cosets, and one
generator-image search for isomorphisms) works on the table alone and is
brute force; that is entirely adequate at order <= 64.  The center and the
commutator subgroup are found from the generators, not from all |G|^2 pairs.
There are two shortcuts.  Maximal subgroups of 2-groups are the kernels of
the maps onto C2 (the tests check them against a brute-force subgroup
lattice): a set generates a 2-group exactly when it lies in no maximal
subgroup, which is how the isomorphism search picks its generating tuple.
Aut(Q(2^n)) is read off the presentation at every n >= 3 (the tests check it
against the search).  The dihedral groups D_m with m not a power of two are
the only non-2-groups here; `maximal_subgroups` and `find_isomorphism`
reject them.  Integers read from input pass one digit check, `read_int`.
"""

from __future__ import annotations

import itertools
from functools import cache, lru_cache


MAX_ORDER = 64
# the largest n with 2^n <= MAX_ORDER: a range check compares exponents, so a
# huge n is refused without forming 2^n
MAX_N = MAX_ORDER.bit_length() - 1
# no interpreter may be set to convert fewer digits (`sys.set_int_max_str_digits`)
MAX_DIGITS = 640


class GroupError(ValueError):
    """Invalid parameter or malformed group data."""


def read_int(text: str, field: str) -> int:
    """`int(text)`, refused naming `field` when it is no integer or has more than MAX_DIGITS digits."""
    if sum(map(str.isdigit, text)) > MAX_DIGITS:
        raise GroupError(f"{field}: a number has more than {MAX_DIGITS} digits")
    try:
        return int(text)
    except ValueError:
        raise GroupError(f"{field}: {text!r} is not an integer") from None


class BudgetExceeded(RuntimeError):
    """An enumeration or a closure would exceed its budget."""


def _orbit(start, moves, valid: set | None = None) -> set:
    """The orbit of `start` under the given bijective moves.

    With `valid`, the moves must stay inside it; leaving it means a bug.
    """
    orbit = {start}
    stack = [start]
    while stack:
        t = stack.pop()
        for mv in moves:
            u = mv(t)
            if u not in orbit:
                if valid is not None and u not in valid:
                    raise RuntimeError("orbit move left the valid ske set")
                orbit.add(u)
                stack.append(u)
    return orbit


def record_json(record, **override) -> dict:
    """The JSON form of a NamedTuple record: its fields in order, a nested
    record as its own `to_json` and a tuple or list as a list.  Each key of
    `override` then replaces that field's value in place, or is appended."""
    out = {}
    for key, value in zip(record._fields, record):
        if hasattr(value, "to_json"):
            value = value.to_json()
        elif isinstance(value, (tuple, list)):
            value = list(value)
        out[key] = value
    out.update(override)
    return out


# ---------------------------------------------------------------------------
# core types
# ---------------------------------------------------------------------------


class FiniteGroup:
    """A finite group given by element names and a Cayley table on indices.

    Index 0 is always the identity.  Instances are immutable after
    construction and safe to share between threads/processes.
    """

    def __init__(self, name, names, cayley, generators, relations=None, kind="generic", params=None):
        self.name = name
        self.names = list(names)
        self.order = len(names)
        self.cayley = [list(row) for row in cayley]
        self.generators = list(generators)
        self.relations = relations or []
        self.kind = kind
        self.params = dict(params or {})
        if self.order > MAX_ORDER:
            raise GroupError(f"group order {self.order} exceeds supported maximum {MAX_ORDER}")
        self._index = {nm: i for i, nm in enumerate(self.names)}
        self._verify_table()
        self.inv = self._inverses()
        self.orders = [self._order_of(i) for i in range(self.order)]
        self._verify_relations()
        self._verify_generation()

    # -- construction checks -------------------------------------------------

    def _verify_table(self):
        n = self.order
        full = set(range(n))
        for i in range(n):
            if set(self.cayley[i]) != full:
                raise GroupError(f"row {i} of Cayley table is not a permutation")
            if {self.cayley[j][i] for j in range(n)} != full:
                raise GroupError(f"column {i} of Cayley table is not a permutation")
        for i in range(n):
            if self.cayley[0][i] != i or self.cayley[i][0] != i:
                raise GroupError("index 0 is not a two-sided identity")
        # Light's test (Clifford and Preston, The Algebraic Theory of
        # Semigroups I, 1961, 1.2): the set S of g with (a g) d = a (g d) for
        # all a, d holds 1 and is closed under products, and
        # `_verify_generation` reaches every element as 1 s1 ... sk in the
        # generators.  So generators in S that generate give S = G: a table
        # passing both checks, in either order, is associative.
        c = self.cayley
        for g in self.generators:
            cg = c[g]
            for a in range(n):
                cag, ca = c[c[a][g]], c[a]
                for d in range(n):
                    if cag[d] != ca[cg[d]]:
                        raise GroupError("Cayley table is not associative")

    def _inverses(self):
        inv = [None] * self.order
        for i in range(self.order):
            row = self.cayley[i]
            j = row.index(0)
            if self.cayley[j][i] != 0:
                raise GroupError("inverses are not two-sided")
            inv[i] = j
        return inv

    def _order_of(self, i: int) -> int:
        k, x = 1, i
        while x != 0:
            x = self.cayley[x][i]
            k += 1
        return k

    def _verify_relations(self):
        for word in self.relations:
            if self.evaluate_word(word) != 0:
                raise GroupError(f"defining relation {word} does not hold in {self.name}")

    def _verify_generation(self):
        if self.closure(self.generators) != frozenset(range(self.order)):
            raise GroupError(f"distinguished generators do not generate {self.name}")

    # -- basic operations ------------------------------------------------------

    def power(self, i: int, k: int) -> int:
        if k < 0:
            i, k = self.inv[i], -k
        out = 0
        while k:
            if k & 1:
                out = self.cayley[out][i]
            i = self.cayley[i][i]
            k >>= 1
        return out

    def conjugate(self, g: int, h: int) -> int:
        """h g h^-1."""
        return self.cayley[self.cayley[h][g]][self.inv[h]]

    def commutator(self, a: int, b: int) -> int:
        """a b a^-1 b^-1."""
        return self.cayley[self.cayley[self.cayley[a][b]][self.inv[a]]][self.inv[b]]

    def evaluate_word(self, word, images=None) -> int:
        """Evaluate [(gen_slot, exponent), ...] at `images` (default: generators)."""
        if images is None:
            images = self.generators
        out = 0
        for slot, exp in word:
            out = self.cayley[out][self.power(images[slot], exp)]
        return out

    def element(self, name: str) -> int:
        """Index of the element written as a product like 'x^3*y'."""
        if name in self._index:
            return self._index[name]
        return self.parse(name)

    def parse(self, expr: str) -> int:
        """Parse a '*'-separated product of powers of generator letters."""
        expr = expr.strip()
        if expr in ("1", "e", ""):
            return 0
        letters = self.params.get("letters", [])
        out = 0
        for part in expr.split("*"):
            part = part.strip()
            if part == "1":
                continue
            if "^" in part:
                sym, _, exp = part.partition("^")
                k = read_int(exp, f"the exponent of {sym} in {self.name}")
            else:
                sym, k = part, 1
            if sym not in letters:
                raise GroupError(f"unknown generator {sym!r} in {self.name}")
            out = self.cayley[out][self.power(self.generators[letters.index(sym)], k)]
        return out

    def __iter__(self):
        return iter(range(self.order))

    def __repr__(self):
        return f"FiniteGroup({self.name}, order {self.order})"

    # -- derived structure -------------------------------------------------------

    def closure(self, seed) -> frozenset:
        """The subgroup generated by `seed`: the orbit of the identity under
        right multiplication by each seed element, which in a finite group
        is the generated subgroup."""
        cayley = self.cayley
        moves = [lambda a, s=s: cayley[a][s] for s in set(seed)]
        return frozenset(_orbit(0, moves))

    @lru_cache(maxsize=None)
    def conjugacy_classes(self) -> tuple[tuple[int, ...], ...]:
        seen = [False] * self.order
        classes = []
        for i in range(self.order):
            if seen[i]:
                continue
            orbit = {self.conjugate(i, h) for h in range(self.order)}
            for x in orbit:
                seen[x] = True
            classes.append(tuple(sorted(orbit)))
        return tuple(classes)

    @lru_cache(maxsize=None)
    def center(self) -> frozenset:
        """The elements that commute with every generator, and so with
        every element."""
        c = self.cayley
        return frozenset(g for g in range(self.order) if all(c[g][s] == c[s][g] for s in self.generators))

    @lru_cache(maxsize=None)
    def commutator_subgroup(self) -> frozenset:
        """The normal closure of the commutators of the generators, since G/N
        is abelian exactly when the generators commute modulo N: their
        closure, grown by each conjugate under a generator that it does not
        hold yet.  Once none is left, every generator maps the closure into
        itself, so it is normal."""
        seed = [self.commutator(a, b) for a, b in itertools.combinations(self.generators, 2)]
        closed = self.closure(seed)
        # seed grows while it is walked
        for s in seed:
            for g in self.generators:
                c = self.conjugate(s, g)
                if c not in closed:
                    seed.append(c)
                    closed = self.closure(seed)
        return closed

    def order_histogram(self) -> tuple[tuple[int, int], ...]:
        hist = {}
        for o in self.orders:
            hist[o] = hist.get(o, 0) + 1
        return tuple(sorted(hist.items()))

    @lru_cache(maxsize=None)
    def maximal_subgroups(self) -> tuple[frozenset, ...]:
        """The kernels of the nonzero homomorphisms G -> C2 (2-groups only).

        Every maximal subgroup of a 2-group is normal of index 2, hence such a
        kernel, and every such kernel has index 2.  A nonzero 0/1 assignment
        on the generators is kept only if `extend_homomorphism` extends it
        across every edge of the Cayley graph.
        """
        if self.order & (self.order - 1):
            raise GroupError(f"maximal subgroups are implemented for 2-groups only, not {self.name}")
        out = []
        for bits in itertools.product((0, 1), repeat=len(self.generators)):
            if not any(bits):
                continue
            phi = extend_homomorphism(self, _C2, self.generators, bits)
            if phi is not None:
                out.append(frozenset(g for g in range(self.order) if phi[g] == 0))
        return tuple(out)

    def to_json(self) -> dict:
        out = {"name": self.name, "order": self.order}
        out.update({k: v for k, v in self.params.items() if k != "letters"})
        return out


_C2 = FiniteGroup("C2", ["1", "t"], [[0, 1], [1, 0]], [1])


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

# The catalogue builders are cached and take positional arguments only, so
# each parameter value has one cache key and one shared group.


def _tree_table(right: list[list[int]]) -> tuple[list[list[int]], list]:
    """The Cayley table of a group from its generators' right action,
    `right[a][j]` the index of a * g_j (index 0 the identity), and the BFS
    tree it is read along: `tree[b] = (p, j)` if b was first reached as
    p * g_j, None at the identity.  Column b of the table is then column p
    moved by g_j, since a * b = (a * p) * g_j, so the table costs |G|^2
    lookups and no product.  GroupError if the generators do not reach
    every index."""
    n = len(right)
    tree: list = [None] * n
    order = [0]
    # order grows while it is walked, so it is the BFS queue
    for p in order:
        for j, b in enumerate(right[p]):
            if b and tree[b] is None:
                tree[b] = (p, j)
                order.append(b)
    if len(order) != n:
        raise GroupError(f"the generators reach {len(order)} of {n} elements")
    moves = [col.__getitem__ for col in zip(*right)]
    columns: list = [None] * n
    columns[0] = range(n)
    for b in order[1:]:
        p, j = tree[b]
        columns[b] = list(map(moves[j], columns[p]))
    return [list(row) for row in zip(*columns)], tree


def _materialize(name, bounds, mult, relations, kind, params):
    """The group on the normal forms l1^e1 * ... * lk^ek, 0 <= ei < bounds[i],
    in the letters `params["letters"]`, with `mult` the product of exponent
    tuples.  Elements are indexed in lexicographic order of their tuples, so
    index 0 is the identity, named "1"; the generators are the letters.  Only
    the products by a letter are formed; `_tree_table` reads the rest."""
    elems = list(itertools.product(*map(range, bounds)))
    index = {e: i for i, e in enumerate(elems)}
    units = [tuple(int(i == j) for j in range(len(bounds))) for i in range(len(bounds))]
    right = [[index[mult(a, u)] for u in units] for a in elems]
    cayley, _ = _tree_table(right)
    words = [zip(params["letters"], u) for u in elems]
    names = ["*".join(l if e == 1 else f"{l}^{e}" for l, e in w if e) or "1" for w in words]
    return FiniteGroup(name, names, cayley, right[0], relations, kind, params)


def quaternion_mul(n: int):
    """Normal-form product for Q(2^n): elements (a, e) standing for x^a y^e.

    (a,0)(b,f) = (a+b, f); (a,1)(b,0) = (a-b, 1); (a,1)(b,1) = (a-b+2^(n-2), 0),
    exponents mod 2^(n-1).  Derived once from y^2 = x^(2^(n-2)), y x y^-1 = x^-1;
    the construction re-checks those relations exhaustively.
    """
    half = 2 ** (n - 1)
    quarter = 2 ** (n - 2)

    def mult(u, v):
        a, e = u
        b, f = v
        if e == 0:
            return ((a + b) % half, f)
        if f == 0:
            return ((a - b) % half, 1)
        return ((a - b + quarter) % half, 0)

    return mult


@cache
def build_quaternion(n: int, /) -> FiniteGroup:
    """The generalized quaternion group of order 2^n, n >= 3."""
    if n < 3:
        raise GroupError(f"quaternion group needs n >= 3, got {n}")
    if n > MAX_N:
        raise GroupError(f"order 2^{n} exceeds supported maximum {MAX_ORDER}")
    half = 2 ** (n - 1)
    quarter = 2 ** (n - 2)
    relations = [
        [(0, half)],                       # x^(2^(n-1))
        [(1, 2), (0, quarter)],            # y^2 x^(2^(n-2))
        [(1, 1), (0, 1), (1, -1), (0, 1)], # y x y^-1 x
    ]
    return _materialize(f"Q{2**n}", (half, 2), quaternion_mul(n), relations,
                        kind="quaternion", params={"n": n, "letters": ["x", "y"]})


@cache
def _build_g1_g2(n: int, variant: int, /) -> FiniteGroup:
    """Supergroups G1/G2 of Q(2^n) of order 2^(n+1): elements x^a y^e z^f.

    Both have z^2 = 1 and z y z = y^-1.  In G1, z centralizes x; in G2,
    z x z = x^(2^(n-2)+1).
    """
    if n < 3:
        raise GroupError(f"G{variant} needs n >= 3, got {n}")
    if n + 1 > MAX_N:
        raise GroupError(f"order 2^{n + 1} exceeds supported maximum {MAX_ORDER}")
    half = 2 ** (n - 1)
    quarter = 2 ** (n - 2)
    t = 1 if variant == 1 else quarter + 1
    qmul = quaternion_mul(n)

    def move_z(b, f):
        # z * x^b y^f = x^(t*b) y^f * (x^(2^(n-2)) if f else 1) * z
        bb = (t * b) % half
        if f:
            bb = (bb + quarter) % half
        return (bb, f)

    def mult(u, v):
        a, e, ff = u
        b, f, gg = v
        if ff:
            b, f = move_z(b, f)
        q = qmul((a, e), (b, f))
        return (q[0], q[1], (ff + gg) % 2)

    conj_x = [(2, 1), (0, 1), (2, 1), (0, -1 if variant == 1 else -(quarter + 1))]
    relations = [
        [(0, half)],
        [(2, 2)],
        [(1, 2), (0, quarter)],
        [(1, 1), (0, 1), (1, -1), (0, 1)],
        conj_x,                                  # z x z x^-1  (resp. z x z x^-(2^(n-2)+1))
        [(2, 1), (1, 1), (2, 1), (1, 1)],        # z y z y
    ]
    return _materialize(f"G{variant}(n={n})", (half, 2, 2), mult, relations,
                        kind=f"g{variant}", params={"n": n, "letters": ["x", "y", "z"]})


@cache
def _build_qd16() -> FiniteGroup:
    """Quasi-dihedral group of order 32: <u,v : u^16, v^2, v u v u^-7>."""
    def mult(p, q):
        a, e = p
        b, f = q
        if e == 0:
            return ((a + b) % 16, f)
        return ((a + 7 * b) % 16, (1 + f) % 2)

    relations = [
        [(0, 16)],
        [(1, 2)],
        [(1, 1), (0, 1), (1, 1), (0, -7)],
    ]
    return _materialize("QD16", (16, 2), mult, relations,
                        kind="qd16", params={"letters": ["u", "v"]})


@cache
def _build_c4xc2_rtimes_c2() -> FiniteGroup:
    """<a,b,c : a^2, b^2, c^4, bcbc^3, acac^3, abac^2b> of order 16.

    The relations force a and b to commute with c and a b a = b c^2, so the
    normal form a^i b^j c^k multiplies by (i,j,k)(i',j',k') =
    (i+i', j+j', k+k'+2*j*i').
    """
    def mult(u, v):
        i, j, k = u
        i2, j2, k2 = v
        return ((i + i2) % 2, (j + j2) % 2, (k + k2 + 2 * j * i2) % 4)

    relations = [
        [(0, 2)],
        [(1, 2)],
        [(2, 4)],
        [(1, 1), (2, 1), (1, 1), (2, 3)],
        [(0, 1), (2, 1), (0, 1), (2, 3)],
        [(0, 1), (1, 1), (0, 1), (2, 2), (1, 1)],
    ]
    return _materialize("C4xC2_rtimes_C2", (2, 2, 4), mult, relations,
                        kind="c4xc2_rtimes_c2", params={"letters": ["a", "b", "c"]})


@cache
def _build_d4xc2_rtimes_c2() -> FiniteGroup:
    """<r,s,a,b> of order 32 with D4 = <r,s>, a central in <r,s,a>, and
    b acting by r -> r, s -> s r a, a -> a r^2.

    Normal form r^p s^q a^i b^j; the product rule moves the left factor's b
    past the right factor before merging, using
      b r = r b,  b s = s r a b,  b a = r^2 a b,  s r = r^-1 s.
    """
    def mult(u, v):
        p1, q1, i1, j1 = u
        p2, q2, i2, j2 = v
        if j1:
            if q2:
                p2, i2 = (p2 - 1 - 2 * i2) % 4, (1 + i2) % 2
            else:
                p2 = (p2 + 2 * i2) % 4
        p = (p1 + (p2 if q1 == 0 else -p2)) % 4
        return (p, (q1 + q2) % 2, (i1 + i2) % 2, (j1 + j2) % 2)

    R, S, A, B = 0, 1, 2, 3
    relations = [
        [(R, 4)],
        [(S, 2)],
        [(A, 2)],
        [(B, 2)],
        [(S, 1), (R, 1), (S, 1), (R, 1)],
        [(A, 1), (R, 1), (A, 1), (R, -1)],
        [(A, 1), (S, 1), (A, 1), (S, 1)],
        [(B, 1), (R, 1), (B, 1), (R, -1)],
        [(B, 1), (S, 1), (B, 1), (A, -1), (R, -1), (S, -1)],   # bsb(sra)^-1
        [(B, 1), (A, 1), (B, 1), (R, -2), (A, -1)],            # bab(ar^2)^-1
    ]
    return _materialize("D4xC2_rtimes_C2", (4, 2, 2, 2), mult, relations,
                        kind="d4xc2_rtimes_c2", params={"letters": ["r", "s", "a", "b"]})


@cache
def build_dihedral(m: int, /) -> FiniteGroup:
    """Dihedral group <r,s : r^m, s^2, (sr)^2> of order 2m, m >= 2."""
    if m < 2 or 2 * m > MAX_ORDER:
        raise GroupError(f"dihedral parameter {m} out of range 2..{MAX_ORDER // 2}")

    def mult(u, v):
        p1, q1 = u
        p2, q2 = v
        return ((p1 + (p2 if q1 == 0 else -p2)) % m, (q1 + q2) % 2)

    relations = [[(0, m)], [(1, 2)], [(1, 1), (0, 1), (1, 1), (0, 1)]]
    return _materialize(f"D{m}", (m, 2), mult, relations,
                        kind="dihedral", params={"m": m, "letters": ["r", "s"]})


# the parameter each catalogue name needs, None for one that takes none;
# Q<2^n> (Q8, Q16, ...) takes none either
_NEEDS = {
    "G1": "n", "G2": "n", "Dihedral": "m",
    "QD16": None, "C4xC2_rtimes_C2": None, "D4xC2_rtimes_C2": None,
}


def _quaternion_order(key: str) -> int | None:
    """The order a Q<2^n> name states in ASCII digits, None for any other
    name.  A name with more digits than MAX_ORDER is refused before `int`
    reads it."""
    digits = key[1:]
    if not (key.upper().startswith("Q") and digits.isascii() and digits.isdigit()):
        return None
    if len(digits.lstrip("0")) > len(str(MAX_ORDER)):
        raise GroupError(f"{key}: order exceeds supported maximum {MAX_ORDER}")
    return int(digits.lstrip("0") or "0")


def build_named(name: str, n: int | None = None, m: int | None = None) -> FiniteGroup:
    """Build a group by its catalogue name.

    Names: Q<2^n> (Q8, Q16, ...), QD16, C4xC2_rtimes_C2 and D4xC2_rtimes_C2,
    which take no parameter; G1 and G2, which need n; Dihedral, which needs
    m.  A parameter the name does not take is refused, not ignored.
    """
    key = name.strip()
    order = _quaternion_order(key)
    if order is None and key not in _NEEDS:
        raise GroupError(f"unknown group name {name!r}")
    needs = _NEEDS.get(key)
    for param, value in (("n", n), ("m", m)):
        if value is not None and param != needs:
            raise GroupError(f"{key} takes no parameter {param}, got {param}={value}")
        if value is None and param == needs:
            raise GroupError(f"{key} needs the parameter {param}")
    if order is not None:
        nn = order.bit_length() - 1
        if 2**nn != order:
            raise GroupError(f"{name}: order must be a power of two")
        return build_quaternion(nn)
    if key in ("G1", "G2"):
        return _build_g1_g2(n, 1 if key == "G1" else 2)
    if key == "QD16":
        return _build_qd16()
    if key == "C4xC2_rtimes_C2":
        return _build_c4xc2_rtimes_c2()
    if key == "D4xC2_rtimes_C2":
        return _build_d4xc2_rtimes_c2()
    return build_dihedral(m)


def group_from_json(data: dict) -> FiniteGroup:
    """The group of a `FiniteGroup.to_json` object or of a catalogue
    descriptor such as {"name": "G1", "n": 4}."""
    name, n, m = data["name"], data.get("n"), data.get("m")
    if name in (f"G1(n={n})", f"G2(n={n})"):
        name = name[:2]
    elif name == f"D{m}":
        name = "Dihedral"
    elif name[:1] == "Q" and (order := _quaternion_order(name)) and n == order.bit_length() - 1:
        n = None  # Q<2^n>'s n restates its name
    return build_named(name, n=n, m=m)


# ---------------------------------------------------------------------------
# the named-subgroup map of Q(2^n)
# ---------------------------------------------------------------------------


def named_subgroups(G: FiniteGroup) -> dict[str, frozenset]:
    """The proper nontrivial subgroups of Q(2^n) as element sets, by label.

    H_j = <x^(2^(n-j)), y>, K_i = <x^(2^(n-i))>, Ht_j = <x^(2^(n-j)), x y>
    for j in 2..n-1 and i in 2..n, plus the aliases Z = K2, N1 = Kn,
    N2 = H_(n-1), N3 = Ht_(n-1).
    """
    if G.kind != "quaternion":
        raise GroupError("named_subgroups is defined for quaternion groups only")
    n = G.params["n"]
    x = G.generators[0]
    y = G.generators[1]
    xy = G.cayley[x][y]
    out: dict[str, frozenset] = {}
    for j in range(2, n):
        xp = G.power(x, 2 ** (n - j))
        out[f"H{j}"] = G.closure((xp, y))
        out[f"Ht{j}"] = G.closure((xp, xy))
    for i in range(2, n + 1):
        out[f"K{i}"] = G.closure((G.power(x, 2 ** (n - i)),))
    out["Z"] = out["K2"]
    out["N1"] = out[f"K{n}"]
    out["N2"] = out[f"H{n - 1}"]
    out["N3"] = out[f"Ht{n - 1}"]
    return out


def subgroup_by_label(G: FiniteGroup, label: str) -> frozenset:
    """Resolve a subgroup by label, allowing '1' and 'G' for the extremes."""
    if label in ("1", "trivial"):
        return frozenset({0})
    if label in ("G", "full"):
        return frozenset(range(G.order))
    table = named_subgroups(G)
    if label not in table:
        raise GroupError(f"unknown subgroup label {label!r}")
    return table[label]


def _check_subgroup(G: FiniteGroup, kset: frozenset) -> None:
    """Raise unless `kset` is a set of elements of G closed under products."""
    if not all(0 <= k < G.order for k in kset):
        raise GroupError(f"K holds an index that is no element of {G.name}")
    if any(G.cayley[a][b] not in kset for a in kset for b in kset):
        raise GroupError(f"K is not closed under products in {G.name}")


# ---------------------------------------------------------------------------
# the action on left cosets
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def coset_cycles(G: FiniteGroup, kset: frozenset) -> tuple[tuple[int, ...], ...]:
    """For each element g, the lengths of g's cycles on the left cosets G/K.

    `kset` is the element set of K.  The identity's row has one 1 per coset,
    so `len(cycles[0])` is the index [G:K]; `cycles[g].count(1)` is the
    number of cosets g fixes.  Quotient genera and the genus-zero scan read
    this one table.
    """
    _check_subgroup(G, kset)
    coset_of = [-1] * G.order
    reps: list[int] = []
    for g in range(G.order):
        if coset_of[g] < 0:
            for k in kset:
                coset_of[G.cayley[g][k]] = len(reps)
            reps.append(g)
    table = []
    for row in G.cayley:
        perm = [coset_of[row[r]] for r in reps]
        seen = [False] * len(perm)
        lengths = []
        for start in range(len(perm)):
            c, length = start, 0
            while not seen[c]:
                seen[c] = True
                c = perm[c]
                length += 1
            if length:
                lengths.append(length)
        table.append(tuple(lengths))
    return tuple(table)


# ---------------------------------------------------------------------------
# homomorphisms, automorphisms, isomorphism testing
# ---------------------------------------------------------------------------


def extend_homomorphism(G: FiniteGroup, H: FiniteGroup, gens, gen_images) -> list[int] | None:
    """Extend gens -> gen_images to a homomorphism G -> H, or None.

    A breadth-first sweep checks phi(g * gen) = phi(g) * phi(gen) across every
    (element, generator) edge of the Cayley graph, which forces the
    homomorphism property on all products.
    """
    m: list[int | None] = [None] * G.order
    m[0] = 0
    queue = [0]
    while queue:
        nxt = []
        for g in queue:
            hg = m[g]
            for gi, hi in zip(gens, gen_images):
                g2 = G.cayley[g][gi]
                h2 = H.cayley[hg][hi]
                if m[g2] is None:
                    m[g2] = h2
                    nxt.append(g2)
                elif m[g2] != h2:
                    return None
        queue = nxt
    if any(v is None for v in m):
        return None
    return m  # type: ignore[return-value]


def _generating_tuple(G: FiniteGroup) -> list[int]:
    """The first generating tuple of a 2-group in increasing size and index
    order; a minimal one keeps isomorphism searches tight.  A set generates
    a 2-group exactly when no maximal subgroup holds all of it."""
    maximal = G.maximal_subgroups()
    for size in range(G.order):
        for combo in itertools.combinations(range(1, G.order), size):
            if not any(M.issuperset(combo) for M in maximal):
                return list(combo)


def _isomorphisms(G: FiniteGroup, H: FiniteGroup):
    """Every isomorphism G -> H as an index map, by brute force over the
    images of a small generating tuple of G, after fast rejects on order,
    element-order histogram, center size and abelianization size."""
    invariants = lambda K: (K.order, K.order_histogram(), len(K.center()), len(K.commutator_subgroup()))
    if invariants(G) != invariants(H):
        return
    gens = _generating_tuple(G)
    cand = [[h for h in range(H.order) if H.orders[h] == G.orders[g]] for g in gens]
    for images in itertools.product(*cand):
        m = extend_homomorphism(G, H, gens, images)
        if m is not None and len(set(m)) == G.order:
            yield m


def automorphisms(G: FiniteGroup) -> list[tuple[int, ...]]:
    """Aut(Q(2^n)), n >= 3, read off the presentation as sorted permutation
    tuples: x -> X, y -> Y extends to an automorphism exactly when X has
    order 2^(n-1) and Y order 4 outside <X>, and sends x^a y^e (index 2a + e)
    to X^a Y^e.  GroupError for any other group."""
    if G.kind != "quaternion":
        raise GroupError(f"automorphisms are written for Q(2^n) only, not {G.name}")
    c, half = G.cayley, G.order // 2
    out = []
    for X in (g for g in G if G.orders[g] == half):
        powers = [G.power(X, a) for a in range(half)]
        out += (tuple(g for p in powers for g in (p, c[p][Y])) for Y in G if G.orders[Y] == 4 and Y not in powers)
    return sorted(out)


def find_isomorphism(G: FiniteGroup, H: FiniteGroup) -> list[int] | None:
    """An explicit isomorphism G -> H as an index map, or None."""
    return next(_isomorphisms(G, H), None)

