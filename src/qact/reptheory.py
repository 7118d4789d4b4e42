"""Character theory of the generalized quaternion group Q(2^n), in closed form.

The complex irreducibles are the four linear characters chi1..chi4 and the
two-dimensional Theta_s (s = 1 .. 2^(n-2)-1) sending x to diag(w^s, w^-s) and
y to [[0, (-1)^s], [1, 0]], with w = exp(2*pi*i/2^(n-1)).  Their values live
in the 2-power cyclotomic field of conductor 2^(n-1), so everything here is
exact.  Rational irreducibles are assembled from Galois orbits of the Theta_s;
the orbit of Theta_1 carries Schur index two.

Class functions are stored by value on a canonical list of conjugacy-class
representatives: x^a for a = 0 .. 2^(n-2), then y, then x*y.  Elements are
in the lexicographic normal-form order of `groups._materialize`, so element
i is x^a y^e with (a, e) = divmod(i, 2), and `class_data` reads the classes
off that normal form (the tests compare `FiniteGroup.conjugacy_classes`).

Fixed-space dimensions dim V^K = <Res_K V, 1> (Serre, *Linear
Representations of Finite Groups*, 1977, Sec. 2) come in integers from the
normal form, with no character values.  A linear chi has dim chi^K = 1 when
chi is 1 on every element of K, and 0 otherwise.  Theta_s vanishes off <x>
and is psi_s + psi_-s on it, where psi_s sends x to w^s; psi_s is trivial on
the order-c subgroup of <x> exactly when c divides s.  So with c = |K & <x>|,
the number of elements of K with e = 0, dim Theta_s^K = (2c/|K|) * [c | s].
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple

from .groups import FiniteGroup, _check_subgroup, build_quaternion

if TYPE_CHECKING:
    from fractions import Fraction

    from .cyclo import Cyclotomic


class ClassData(NamedTuple):
    """Conjugacy classes of Q(2^n) in canonical order."""

    group: FiniteGroup
    reps: tuple[int, ...]
    sizes: tuple[int, ...]
    class_of: tuple[int, ...]


@lru_cache(maxsize=None)
def class_data(n: int) -> ClassData:
    """The classes read off the normal form: x^a is conjugate to x^-a alone,
    and x^a y to x^b y when a = b mod 2 (x^b y x^-b = x^(2b) y)."""
    G = build_quaternion(n)
    half = G.order // 2
    quarter = half // 2
    reps = [2 * a for a in range(quarter + 1)] + [1, 3]
    # element 2a is x^a and element 2a + 1 is x^a y
    class_of = [c for a in range(half) for c in (min(a, half - a), quarter + 1 + a % 2)]
    sizes = [class_of.count(c) for c in range(len(reps))]
    return ClassData(G, tuple(reps), tuple(sizes), tuple(class_of))


_set = object.__setattr__


class Character:
    """A class function on Q(2^n), stored on the canonical class reps.
    Instances are immutable."""

    __slots__ = ("n", "label", "values")

    def __init__(self, n: int, label: str, values: tuple[Cyclotomic, ...]):
        _set(self, "n", n)
        _set(self, "label", label)
        _set(self, "values", values)

    def __setattr__(self, name, value):
        raise AttributeError(f"Character is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Character is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return (Character, (self.n, self.label, self.values))

    @property
    def degree(self) -> Fraction:
        return self.values[0].rational_value()

    def __add__(self, other: "Character") -> "Character":
        self._check(other)
        return Character(self.n, "virtual", tuple(a + b for a, b in zip(self.values, other.values)))

    def __rmul__(self, k: int) -> "Character":
        return Character(self.n, "virtual", tuple(k * v for v in self.values))

    def _check(self, other: "Character"):
        if self.n != other.n:
            raise ValueError("characters of different groups")

    def __repr__(self):
        return f"Character({self.label}, n={self.n})"


# chi1..chi4 send x^a y^e to sx^a * sy^e
_CHI_SIGNS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


@lru_cache(maxsize=None)
def irreducible_characters(n: int) -> tuple[Character, ...]:
    """chi1..chi4 followed by Theta_1..Theta_(2^(n-2)-1).  `qact.cyclo` is
    imported here, so the census and the scan, which need no character
    values, never load it."""
    from .cyclo import Cyclotomic

    m = 2 ** (n - 1)
    reps = [divmod(r, 2) for r in class_data(n).reps]
    chis = [
        Character(n, f"chi{k}", tuple(Cyclotomic.from_rational(sx**a * sy**e, 2) for a, e in reps))
        for k, (sx, sy) in enumerate(_CHI_SIGNS, start=1)
    ]
    thetas = [
        Character(n, f"theta{s}", tuple(
            Cyclotomic.zero(m) if e else Cyclotomic.zeta(m, s * a) + Cyclotomic.zeta(m, -s * a)
            for a, e in reps
        ))
        for s in range(1, m // 2)
    ]
    return tuple(chis + thetas)


# ---------------------------------------------------------------------------
# Galois orbits and rational irreducibles
# ---------------------------------------------------------------------------


def fold_index(s: int, m: int) -> int:
    """Fold an exponent into the Theta index range 1..m/2-1 (Theta_s = Theta_(m-s))."""
    s %= m
    return m - s if s > m // 2 else s


def galois_orbit(n: int, s: int) -> tuple[int, ...]:
    """Indices of the Galois conjugates of Theta_s."""
    m = 2 ** (n - 1)
    orbit = {fold_index(t * s, m) for t in range(1, m, 2)}
    return tuple(sorted(orbit))


class RationalIrreducible(NamedTuple):
    """A rational irreducible of Q(2^n) with its complex constituents."""

    n: int
    label: str
    constituents: tuple[str, ...]
    schur_index: int
    character: Character


def rational_irreducibles(n: int) -> list[RationalIrreducible]:
    """chi1..chi4 and W1..W_(n-2); W1 = 2*(sum of odd Thetas), Wl = Galois orbit
    of Theta_(2^(l-1))."""
    irr = {c.label: c for c in irreducible_characters(n)}
    out = [
        RationalIrreducible(n, f"chi{k}", (f"chi{k}",), 1, irr[f"chi{k}"])
        for k in range(1, 5)
    ]
    for l in range(1, n - 1):
        orbit = galois_orbit(n, 2 ** (l - 1))
        ch = None
        for s in orbit:
            ch = irr[f"theta{s}"] if ch is None else ch + irr[f"theta{s}"]
        schur = 2 if l == 1 else 1
        if schur == 2:
            ch = 2 * ch
        out.append(
            RationalIrreducible(
                n, f"W{l}", tuple(f"theta{s}" for s in orbit), schur,
                Character(n, f"W{l}", ch.values),
            )
        )
    return out


# ---------------------------------------------------------------------------
# fixed-space dimensions
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def fixed_dims(n: int, kset: frozenset) -> tuple[int, ...]:
    """dim V^K for every irreducible V of Q(2^n), in `irreducible_characters`
    order, for the subgroup K with element set `kset`, in integers."""
    _check_subgroup(build_quaternion(n), kset)
    pairs = [divmod(k, 2) for k in kset]
    c = sum(1 for _, e in pairs if e == 0)
    chis = tuple(int(all(sx**a * sy**e == 1 for a, e in pairs)) for sx, sy in _CHI_SIGNS)
    thetas = tuple(2 * c // len(kset) if s % c == 0 else 0 for s in range(1, 2 ** (n - 2)))
    return chis + thetas
