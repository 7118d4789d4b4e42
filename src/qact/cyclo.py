"""Exact arithmetic in 2-power cyclotomic fields and sparse polynomials over
them.  Polynomial arithmetic comes from two primitives, each summing into one
term dict: `CycloPoly.combination` (sum c p, c an integer), behind `-` and
the integer blocks of a symplectic matrix that `siegel` applies to a
family's entries, and `CycloPoly.dot` (sum p q), behind `*` and each entry of
a `PolyMatrix` product.

An element of Q(zeta_m), m a power of two, is the residue class of
sum c_j zeta^j modulo zeta^(m/2) = -1, stored as m/2 integer numerators over
one positive common denominator, reduced so that the denominator and the
numerators have gcd 1.  That relation makes reduction a sign flip, so
products are plain integer convolutions, and the reduced form makes equality
a tuple comparison.  A sum or product of two elements of one conductor, and
an integer combination of polynomials, convert nothing: the numerators are
combined or scaled directly.  Only 2-power conductors are supported; every
exact number appearing in this package (roots of unity, Gaussian rationals,
character values) lives in one.  Coefficients enter and leave as int or
Fraction; any other type (a float above all) is refused.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add
from typing import Mapping

_set = object.__setattr__


def _is_power_of_two(m: int) -> bool:
    return m >= 1 and (m & (m - 1)) == 0


def _check_conductor(m: int) -> None:
    if not _is_power_of_two(m) or m < 2:
        raise ValueError(f"conductor must be a power of two >= 2, got {m}")


def _check_rational(q) -> None:
    if not isinstance(q, (int, Fraction)):
        raise TypeError(f"cyclotomic coefficients must be int or Fraction, got {type(q)}")


def _make(m: int, num, den: int) -> Cyclotomic:
    """The element sum num[j] zeta_m^j / den (den > 0), reduced by the gcd,
    with no check of m or of the coefficient count."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = [c // g for c in num]
            den //= g
    out = object.__new__(Cyclotomic)
    _set(out, "m", m)
    _set(out, "num", tuple(num))
    _set(out, "den", den)
    return out


class _Frozen:
    """Immutable instances: each slot is written once, by `_set`, when the
    instance is made.  Equality, hashing, the repr and pickling read the
    slots in order, as a frozen record's would; `Cyclotomic` overrides all
    four."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot delete {name!r}")

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return (type(self), self._values())


class Cyclotomic(_Frozen):
    """An element of Q(zeta_m) for a 2-power conductor m >= 2.

    `num` and `den` are the reduced integer form; `coeffs` gives the
    coefficients as Fractions.  Instances are immutable."""

    __slots__ = ("m", "num", "den")

    def __init__(self, m: int, coeffs):
        _check_conductor(m)
        if len(coeffs) != m // 2:
            raise ValueError(f"need {m // 2} coefficients for conductor {m}, got {len(coeffs)}")
        for c in coeffs:
            _check_rational(c)
        den = lcm(*(c.denominator for c in coeffs))
        _set(self, "m", m)
        _set(self, "num", tuple(c.numerator * (den // c.denominator) for c in coeffs))
        _set(self, "den", den)

    def __reduce__(self):
        return (Cyclotomic, (self.m, self.coeffs))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        den = self.den
        return tuple(Fraction(c, den) for c in self.num)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(m: int = 2) -> Cyclotomic:
        return Cyclotomic.from_rational(0, m)

    @staticmethod
    def one(m: int = 2) -> Cyclotomic:
        return Cyclotomic.from_rational(1, m)

    @staticmethod
    def from_rational(q, m: int = 2) -> Cyclotomic:
        _check_conductor(m)
        _check_rational(q)
        return _make(m, (q.numerator,) + (0,) * (m // 2 - 1), q.denominator)

    @staticmethod
    def zeta(m: int, k: int = 1) -> Cyclotomic:
        """zeta_m^k, reduced."""
        _check_conductor(m)
        d = m // 2
        k %= m
        c = [0] * d
        if k < d:
            c[k] = 1
        else:
            c[k - d] = -1
        return _make(m, c, 1)

    @staticmethod
    def gauss(re, im) -> Cyclotomic:
        """re + im*i as an element of Q(i) (conductor 4)."""
        return Cyclotomic(4, (re, im))

    # -- conductor handling --------------------------------------------------

    def lift(self, m: int) -> Cyclotomic:
        """Reinterpret in the larger conductor m (self.m must divide m)."""
        if m == self.m:
            return self
        if m % self.m != 0 or not _is_power_of_two(m):
            raise ValueError(f"cannot lift conductor {self.m} to {m}")
        c = [0] * (m // 2)
        c[:: m // self.m] = self.num
        return _make(m, c, self.den)

    @staticmethod
    def common(a: Cyclotomic, b: Cyclotomic) -> tuple[Cyclotomic, Cyclotomic]:
        m = max(a.m, b.m)
        return a.lift(m), b.lift(m)

    # -- ring operations -----------------------------------------------------

    def __add__(self, other) -> Cyclotomic:
        if type(other) is Cyclotomic and other.m == self.m:
            a, b = self, other
        else:
            a, b = Cyclotomic.common(self, _coerce(other, self.m))
        if a.den == b.den:
            return _make(a.m, list(map(add, a.num, b.num)), a.den)
        x, y = a.den, b.den
        return _make(a.m, [p * y + q * x for p, q in zip(a.num, b.num)], x * y)

    def __radd__(self, other) -> Cyclotomic:
        return self.__add__(other)

    def __neg__(self) -> Cyclotomic:
        return _make(self.m, [-c for c in self.num], self.den)

    def __mul__(self, other) -> Cyclotomic:
        if type(other) is Cyclotomic and other.m == self.m:
            a, b = self, other
        else:
            a, b = Cyclotomic.common(self, _coerce(other, self.m))
        d = a.m // 2
        out = [0] * d
        bs = [(j, y) for j, y in enumerate(b.num) if y]
        for i, x in enumerate(a.num):
            if not x:
                continue
            for j, y in bs:
                k = i + j
                if k < d:
                    out[k] += x * y
                else:
                    out[k - d] -= x * y
        return _make(a.m, out, a.den * b.den)

    def __rmul__(self, other) -> Cyclotomic:
        return self.__mul__(other)

    def inverse(self) -> Cyclotomic:
        """Field inverse by the tower norm (Pornin-Prest, PKC 2019).

        N(a) = a(zeta) * a(-zeta) is fixed by zeta -> -zeta, so it lies in
        Q(zeta^2), and 1/a = a(-zeta) / N(a) recurses down to Q.
        """
        if self.is_zero():
            raise ZeroDivisionError("division by zero in Q(zeta)")
        if self.m == 2:
            (c,) = self.num
            return _make(2, (self.den if c > 0 else -self.den,), abs(c))
        conj = self.galois(self.m // 2 + 1)
        norm = self * conj
        if any(norm.num[1::2]):
            raise RuntimeError(f"tower norm of {self} does not lie in Q(zeta_{self.m // 2})")
        return _make(self.m // 2, norm.num[0::2], norm.den).inverse().lift(self.m) * conj

    def __pow__(self, k: int) -> Cyclotomic:
        if k < 0:
            raise ValueError(f"negative exponent {k}: take `inverse` first")
        out = Cyclotomic.one(self.m)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Cyclotomic.from_rational(other, self.m)
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        a, b = Cyclotomic.common(self, other)
        return a.den == b.den and a.num == b.num

    def __hash__(self):
        # a rational element hashes as its Fraction, which it equals
        if self.is_rational():
            return hash(Fraction(self.num[0], self.den))
        r = self.reduce_conductor()
        return hash((r.m, r.num, r.den))

    # -- structure -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self.num[0], self.den)

    def reduce_conductor(self) -> Cyclotomic:
        """Smallest 2-power conductor containing this element."""
        m = self.m
        c = self.num
        # lives in conductor m/2 iff all odd-position coefficients vanish
        while m > 2 and not any(c[1::2]):
            c = c[0::2]
            m //= 2
        return self if m == self.m else _make(m, c, self.den)

    def galois(self, t: int) -> Cyclotomic:
        """The field automorphism zeta_m -> zeta_m^t, t odd."""
        if t % 2 == 0:
            raise ValueError(f"galois exponent must be odd, got {t}")
        d = self.m // 2
        out = [0] * d
        for j, v in enumerate(self.num):
            if not v:
                continue
            k = (j * t) % self.m
            if k < d:
                out[k] += v
            else:
                out[k - d] -= v
        return _make(self.m, out, self.den)

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


def _scaled(x: Cyclotomic, k: int) -> Cyclotomic:
    """k x for an integer k, in conductor max(x.m, 4) as the product with k
    in Q(i) would be, with no product formed."""
    if x.m < 4:
        x = x.lift(4)
    return _make(x.m, [c * k for c in x.num], x.den)


def _coerce(x, m: int) -> Cyclotomic:
    if isinstance(x, Cyclotomic):
        return x
    if isinstance(x, (int, Fraction)):
        return Cyclotomic.from_rational(x, m)
    raise TypeError(f"cannot coerce {type(x)} into Q(zeta)")


# -- sparse multivariate polynomials over Q(zeta) -----------------------------


class CycloPoly(_Frozen):
    """Sparse polynomial in `nvars` parameters with Cyclotomic coefficients.

    Terms map an exponent tuple to a nonzero coefficient.  Entries of the
    printed period-matrix families have degree <= 1 per variable, so the
    sparse map is the natural fit.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: tuple[tuple[tuple[int, ...], Cyclotomic], ...]):
        _set(self, "nvars", nvars)
        _set(self, "terms", terms)

    @staticmethod
    def make(nvars: int, terms: Mapping[tuple[int, ...], Cyclotomic]) -> CycloPoly:
        clean = {e: c for e, c in terms.items() if not c.is_zero()}
        return CycloPoly(nvars, tuple(sorted(clean.items(), key=lambda t: t[0])))

    @staticmethod
    def constant(nvars: int, c: Cyclotomic) -> CycloPoly:
        return CycloPoly.make(nvars, {(0,) * nvars: c})

    @staticmethod
    def variable(nvars: int, idx: int, m: int = 4) -> CycloPoly:
        e = tuple(1 if i == idx else 0 for i in range(nvars))
        return CycloPoly.make(nvars, {e: Cyclotomic.one(m)})

    def is_zero(self) -> bool:
        return not self.terms

    def __sub__(self, other: CycloPoly) -> CycloPoly:
        return CycloPoly.combination(self.nvars, [(1, self), (-1, other)])

    @staticmethod
    def combination(nvars: int, pairs, constant: int = 0) -> CycloPoly:
        """constant + sum c p over the (int c, CycloPoly p) pairs, summed in
        one term dict and made once.  Each coefficient is the one that
        `constant * 1 + c * p + ...` gives, with 1 the unit of Q(i): integers
        enter in conductor 4."""
        acc: dict[tuple[int, ...], Cyclotomic] = {}
        if constant:
            acc[(0,) * nvars] = Cyclotomic.from_rational(constant, 4)
        for c, p in pairs:
            if p.nvars != nvars:
                raise ValueError("variable count mismatch")
            for e, x in p.terms:
                y = _scaled(x, c)
                acc[e] = acc[e] + y if e in acc else y
        return CycloPoly.make(nvars, acc)

    @staticmethod
    def dot(nvars: int, pairs) -> CycloPoly:
        """sum p q over the (CycloPoly p, CycloPoly q) pairs, summed in one
        term dict and made once."""
        acc: dict[tuple[int, ...], Cyclotomic] = {}
        for p, q in pairs:
            if p.nvars != nvars or q.nvars != nvars:
                raise ValueError("variable count mismatch")
            for e1, c1 in p.terms:
                for e2, c2 in q.terms:
                    e = tuple(map(add, e1, e2))
                    prod = c1 * c2
                    acc[e] = acc[e] + prod if e in acc else prod
        return CycloPoly.make(nvars, acc)

    def __mul__(self, other) -> CycloPoly:
        if isinstance(other, (int, Fraction)):
            other = Cyclotomic.from_rational(other, 4)
        if isinstance(other, Cyclotomic):
            other = CycloPoly.constant(self.nvars, other)
        return CycloPoly.dot(self.nvars, [(self, other)])

    __rmul__ = __mul__


class PolyMatrix(_Frozen):
    """Matrix with CycloPoly entries."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: tuple[tuple[CycloPoly, ...], ...]):
        _set(self, "rows", rows)
        _set(self, "cols", cols)
        _set(self, "entries", entries)

    @staticmethod
    def make(entries: list[list[CycloPoly]]) -> PolyMatrix:
        rows = len(entries)
        cols = len(entries[0]) if rows else 0
        if any(len(r) != cols for r in entries):
            raise ValueError("ragged matrix")
        return PolyMatrix(rows, cols, tuple(tuple(r) for r in entries))

    def __matmul__(self, other: PolyMatrix) -> PolyMatrix:
        """The product, each entry summed in one term dict and made once."""
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        nv = self.entries[0][0].nvars if self.rows else 0
        columns = list(zip(*other.entries))
        return PolyMatrix.make([[CycloPoly.dot(nv, zip(row, col)) for col in columns] for row in self.entries])
