"""Hyperelliptic models Y^2 = X (X^q - 1)(X^q - t)(X^(2q) - t), q = 2^(n-2).

These are the hyperelliptic members of the one-dimensional family with
signature (0; 2^(n-1), 2, 4, 4); the quaternion action is generated by
x: (X, Y) -> (xi^2 X, xi Y) and y: (X, Y) -> (lam/X, eta t Y / X^(2^(n-1)+1))
with xi = exp(2 pi i/2^(n-1)), eta^2 = -lam, lam^q = t.  At t = -1 the model
collapses to Y^2 = X(X^(2^n) - 1).

The first generator is verified exactly (a cyclotomic polynomial identity);
everything involving the radicals lam, eta is verified numerically at sample
points, as is the group structure of the two maps acting on the curve.  The
exact squarefreeness of f (gcd(f, f') constant) is a test oracle in
tests/oracles.py.
"""

from __future__ import annotations

import cmath
from typing import NamedTuple

from .groups import MAX_N, BudgetExceeded, record_json
from .cyclo import Cyclotomic, CycloPoly


class DegenerateParameter(ValueError):
    """t in {0, 1} does not give a curve in the family."""


def model_polynomial(n: int, t: Cyclotomic | None, conductor: int = 4) -> CycloPoly:
    """f as an exact polynomial: in X alone (t exact) or in (X, t) (t None)."""
    q = 2 ** (n - 2)
    nv = 2 if t is None else 1
    unit = Cyclotomic.one(conductor)
    rest = (0,) * (nv - 1)
    one = CycloPoly.constant(nv, unit)
    X = CycloPoly.variable(nv, 0, conductor)
    T = CycloPoly.variable(nv, 1, conductor) if t is None else CycloPoly.constant(nv, t)
    Xq = CycloPoly.make(nv, {(q, *rest): unit})
    X2q = CycloPoly.make(nv, {(2 * q, *rest): unit})
    return X * (Xq - one) * (Xq - T) * (X2q - T)


class HyperellipticModel(NamedTuple):
    n: int
    t: complex | None
    f_coeffs: list[complex] | None     # degree-indexed; None for the symbolic family
    xi: complex
    lam: complex | None
    eta: complex | None

    @property
    def degree(self) -> int:
        return 2**self.n + 1

    @property
    def genus(self) -> int:
        return 2 ** (self.n - 1)

    def f_at(self, x: complex) -> complex:
        total = 0j
        for c in reversed(self.f_coeffs):
            total = total * x + c
        return total

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "t": None if self.t is None else [self.t.real, self.t.imag],
            "degree": self.degree,
            "genus": self.genus,
        }


def build_model(n: int, t: complex | None) -> HyperellipticModel:
    """The model at the numeric parameter complex(t), or the symbolic family
    (no coefficients, no radicals) for t None."""
    if n < 3:
        raise ValueError("need n >= 3")
    if n - 1 > MAX_N:  # 2^(n-1) > MAX_ORDER
        raise ValueError("n out of supported range")
    xi = cmath.exp(2j * cmath.pi / 2 ** (n - 1))
    if t is None:
        return HyperellipticModel(n=n, t=None, f_coeffs=None, xi=xi, lam=None, eta=None)
    t = complex(t)
    _check_numeric_t(t)
    lam = cmath.exp(cmath.log(t) / 2 ** (n - 2))
    return HyperellipticModel(n=n, t=t, f_coeffs=_numeric_coeffs(n, t), xi=xi, lam=lam,
                              eta=cmath.sqrt(-lam))


def _check_numeric_t(t: complex):
    if not cmath.isfinite(t):
        raise DegenerateParameter(f"t must be finite, got {t}")
    if abs(t) < 1e-12 or abs(t - 1) < 1e-12:
        raise DegenerateParameter("t must avoid 0 and 1")


def _numeric_coeffs(n: int, t: complex) -> list[complex]:
    q = 2 ** (n - 2)
    # X (X^q - 1)(X^q - t)(X^(2q) - t), multiplied out degree-by-degree
    a = [0j] * (q + 1)
    a[0], a[q] = -1.0 + 0j, 1.0 + 0j
    b = [0j] * (q + 1)
    b[0], b[q] = -t, 1.0 + 0j
    c = [0j] * (2 * q + 1)
    c[0], c[2 * q] = -t, 1.0 + 0j
    ab = _mul_coeffs(a, b)
    abc = _mul_coeffs(ab, c)
    return [0j] + abc


def _mul_coeffs(a, b):
    out = [0j] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


# ---------------------------------------------------------------------------
# exact identities
# ---------------------------------------------------------------------------


def t_minus_one_collapse(n: int) -> bool:
    """Exact identity: the t = -1 member equals Y^2 = X (X^(2^n) - 1)."""
    f = model_polynomial(n, Cyclotomic.from_rational(-1, 4))
    q = 2**n
    expect = CycloPoly.make(
        1,
        {(q + 1,): Cyclotomic.one(4), (1,): -Cyclotomic.one(4)},
    )
    return (f - expect).is_zero()


def rotation_identity_holds(n: int) -> bool:
    """Exact identity f(xi^2 X) = xi^2 f(X) over Q(zeta_(2^(n-1)))(t)."""
    conductor = max(4, 2 ** (n - 1))
    f = model_polynomial(n, None, conductor)
    zeta2 = Cyclotomic.zeta(conductor, 2 * (conductor // 2 ** (n - 1)))
    # substitute X -> xi^2 X: scale each term by xi^(2*degX)
    scaled = {}
    for e, cf in f.terms:
        scaled[e] = cf * (zeta2 ** e[0])
    lhs = CycloPoly.make(2, scaled)
    rhs = f * zeta2
    return (lhs - rhs).is_zero()


# ---------------------------------------------------------------------------
# numeric verification of the automorphisms
# ---------------------------------------------------------------------------


def map_x(model: HyperellipticModel, p: tuple[complex, complex]) -> tuple[complex, complex]:
    X, Y = p
    return (model.xi**2 * X, model.xi * Y)


def map_y(model: HyperellipticModel, p: tuple[complex, complex]) -> tuple[complex, complex]:
    X, Y = p
    return (model.lam / X, model.eta * model.t * Y / X ** (2 ** (model.n - 1) + 1))


def _on_curve_residual(model: HyperellipticModel, p) -> float:
    X, Y = p
    fx = model.f_at(X)
    return abs(Y * Y - fx) / (1.0 + abs(fx) + abs(Y) ** 2)


def _iterate(model, fn, p, k):
    for _ in range(k):
        p = fn(model, p)
    return p


def _pt_dist(p, q) -> float:
    """Relative distance; the Y coordinate can be huge near X = 0."""
    dx = abs(p[0] - q[0]) / (1.0 + abs(p[0]) + abs(q[0]))
    dy = abs(p[1] - q[1]) / (1.0 + abs(p[1]) + abs(q[1]))
    return max(dx, dy)


class AutomorphismReport(NamedTuple):
    n: int
    samples: int
    max_on_curve_x: float
    max_on_curve_y: float
    max_rel_x_order: float       # x^(2^(n-1)) = id
    max_rel_y_square: float      # y^2 = x^(2^(n-2))
    max_rel_conjugation: float   # y x = x^(-1) y as point maps
    max_hyperelliptic: float     # y^2 x^(-2^(n-2)) acts as (X, -Y): identity check
    rotation_exact: bool

    @property
    def max_residual(self) -> float:
        return max(
            self.max_on_curve_x,
            self.max_on_curve_y,
            self.max_rel_x_order,
            self.max_rel_y_square,
            self.max_rel_conjugation,
            self.max_hyperelliptic,
        )

    def to_json(self) -> dict:
        return record_json(self, max_residual=self.max_residual)


def random_curve_point(model: HyperellipticModel, rng) -> tuple[complex, complex]:
    # an annulus around |X| = 1 keeps X^(2^(n-1)+1) well conditioned
    r = rng.uniform(0.7, 1.4)
    theta = rng.uniform(0, 2 * cmath.pi)
    X = r * cmath.exp(1j * theta)
    Y = cmath.sqrt(model.f_at(X))
    return (X, Y)


def verify_automorphisms(model: HyperellipticModel, samples: int = 100, seed: int = 0) -> AutomorphismReport:
    """Sample-point verification that the two printed maps are automorphisms
    of the curve satisfying the Q(2^n) relations, plus the exact rotation
    identity for the first map."""
    import random

    if model.lam is None:
        raise ValueError("numeric verification needs a numeric parameter")
    rng = random.Random(seed)
    n = model.n
    q = 2 ** (n - 2)
    r_ocx = r_ocy = r_xo = r_ys = r_cj = r_he = 0.0
    for _ in range(samples):
        p = random_curve_point(model, rng)
        px = map_x(model, p)
        py = map_y(model, p)
        r_ocx = max(r_ocx, _on_curve_residual(model, px))
        r_ocy = max(r_ocy, _on_curve_residual(model, py))
        r_xo = max(r_xo, _pt_dist(_iterate(model, map_x, p, 2 * q), p))
        yy = map_y(model, py)
        xq = _iterate(model, map_x, p, q)
        r_ys = max(r_ys, _pt_dist(yy, xq))
        # y x = x^(2^(n-1)-1) y
        lhs = map_y(model, map_x(model, p))
        rhs = _iterate(model, map_x, map_y(model, p), 2 * q - 1)
        r_cj = max(r_cj, _pt_dist(lhs, rhs))
        # the central involution y^2 = x^q acts as the hyperelliptic (X, -Y)
        r_he = max(r_he, _pt_dist(yy, (p[0], -p[1])))
    return AutomorphismReport(
        n=n,
        samples=samples,
        max_on_curve_x=r_ocx,
        max_on_curve_y=r_ocy,
        max_rel_x_order=r_xo,
        max_rel_y_square=r_ys,
        max_rel_conjugation=r_cj,
        max_hyperelliptic=r_he,
        rotation_exact=rotation_identity_holds(n),
    )


def point_map_group_order(model: HyperellipticModel) -> int:
    """Order of <map_x, map_y> as permutations of the orbit of a generic point
    (drawn with seed 1; at most 512 points).  A point is new unless each of
    its coordinates is within 1e-6 of one already found, relative to their
    sizes: near X = 0 the partners (X, Y) and (X, -Y) have tiny Y, and an
    absolute margin would merge them."""
    import random

    def same(a, b):
        return a == b or abs(a - b) < 1e-6 * (abs(a) + abs(b))

    rng = random.Random(1)
    base = random_curve_point(model, rng)
    seen = [base]
    frontier = [base]
    while frontier:
        nxt = []
        for p in frontier:
            for fn in (map_x, map_y):
                q = fn(model, p)
                if not any(same(q[0], r[0]) and same(q[1], r[1]) for r in seen):
                    if len(seen) >= 512:
                        raise BudgetExceeded("point-map orbit exceeded its budget of 512 points")
                    seen.append(q)
                    nxt.append(q)
        frontier = nxt
    return len(seen)


# ---------------------------------------------------------------------------
# branch configuration
# ---------------------------------------------------------------------------


class BranchConfiguration(NamedTuple):
    n: int
    zero: list[complex]
    infinity: list[str]
    unit_roots: list[complex]
    t_roots: list[complex]
    sqrt_t_roots: list[complex]
    neg_sqrt_t_roots: list[complex]
    lambda_sign_identity: float    # | lam4^q + lam3^q |

    @property
    def count(self) -> int:
        return (
            len(self.zero)
            + len(self.infinity)
            + len(self.unit_roots)
            + len(self.t_roots)
            + len(self.sqrt_t_roots)
            + len(self.neg_sqrt_t_roots)
        )

    def orbit_sizes(self) -> list[int]:
        """Sizes of the five groups (the two sqrt families form one rotation orbit)."""
        return [
            len(self.zero),
            len(self.infinity),
            len(self.unit_roots),
            len(self.t_roots),
            len(self.sqrt_t_roots) + len(self.neg_sqrt_t_roots),
        ]


def branch_configuration(n: int, t: complex) -> BranchConfiguration:
    """The 2^n + 2 branch values of the degree-two map, grouped by the factor
    of f they annihilate: 0, infinity, the q-th roots of 1, of t, and the
    2q-th roots of t split by the sign of X^q."""
    t = complex(t)
    _check_numeric_t(t)
    q = 2 ** (n - 2)
    w = cmath.exp(2j * cmath.pi / q)
    lam2 = cmath.exp(cmath.log(t) / q)
    sq = cmath.sqrt(t)
    lam3 = cmath.exp(cmath.log(sq) / q)
    lam4 = cmath.exp((cmath.log(sq) + 1j * cmath.pi) / q)
    unit = [w**j for j in range(q)]
    troots = [lam2 * w**j for j in range(q)]
    plus = [lam3 * w**j for j in range(q)]
    minus = [lam4 * w**j for j in range(q)]
    ident = abs(lam4**q + lam3**q)
    return BranchConfiguration(
        n=n,
        zero=[0j],
        infinity=["inf"],
        unit_roots=unit,
        t_roots=troots,
        sqrt_t_roots=plus,
        neg_sqrt_t_roots=minus,
        lambda_sign_identity=ident,
    )
