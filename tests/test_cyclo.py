import copy
import pickle
import random
from fractions import Fraction

import pytest

from qact.cyclo import Cyclotomic, CycloPoly, PolyMatrix

from oracles import FractionCyclotomic, embed, is_symmetric, poly_eval


def rand_cyc(rng, m, height=9):
    return Cyclotomic(
        m,
        tuple(Fraction(rng.randint(-height, height), rng.randint(1, height)) for _ in range(m // 2)),
    )


def test_zeta4_squares_to_minus_one():
    i = Cyclotomic.zeta(4)
    assert i * i == Cyclotomic.from_rational(-1, 4)


def test_real_element_of_conductor_eight():
    # zeta8 + zeta8^-1 squares to 2
    c = Cyclotomic.zeta(8, 1) + Cyclotomic.zeta(8, -1)
    assert c * c == Cyclotomic.from_rational(2, 8)


def test_gaussian_product():
    one_plus_i = Cyclotomic.gauss(1, 1)
    one_minus_i = Cyclotomic.gauss(1, -1)
    assert one_plus_i * one_minus_i == Cyclotomic.from_rational(2, 4)


def test_subtraction_and_division_by_zero():
    a = Cyclotomic.zeta(8)
    z = Cyclotomic.zero(8)
    assert (a - a).is_zero()
    with pytest.raises(ZeroDivisionError):
        a / z


def test_mixed_conductor_lift():
    i4 = Cyclotomic.zeta(4)      # i in conductor 4
    i8 = Cyclotomic.zeta(8, 2)   # i in conductor 8
    assert i4 == i8
    assert (i4 * i8).reduce_conductor() == Cyclotomic.from_rational(-1, 2)


def test_field_axioms_on_random_samples():
    rng = random.Random(7)
    for m in (4, 8, 16):
        for _ in range(60):
            a, b, c = (rand_cyc(rng, m) for _ in range(3))
            assert (a + b) * c == a * c + b * c
            assert a * b == b * a
            assert (a - a).is_zero()


def test_exact_division_roundtrip():
    rng = random.Random(11)
    checked = 0
    while checked < 10_000:
        m = rng.choice((4, 8, 16))
        a = rand_cyc(rng, m, 6)
        b = rand_cyc(rng, m, 6)
        if b.is_zero():
            continue
        assert (a / b) * b == a
        checked += 1


@pytest.mark.parametrize("m", [2, 32, 64])
def test_inverse_at_small_and_large_conductors(m):
    rng = random.Random(m)
    for _ in range(5):
        a = rand_cyc(rng, m, 6)
        if not a.is_zero():
            assert a * a.inverse() == 1
    with pytest.raises(ZeroDivisionError):
        Cyclotomic.zero(m).inverse()


def test_inverse_checks_that_the_tower_norm_lies_in_the_subfield(monkeypatch):
    # with zeta -> -zeta replaced by the identity the "norm" is a^2, which
    # has odd-position coefficients for a = 1 + zeta_8
    monkeypatch.setattr(Cyclotomic, "galois", lambda self, t: self)
    with pytest.raises(RuntimeError, match="tower norm"):
        (Cyclotomic.one(8) + Cyclotomic.zeta(8)).inverse()


def test_embedding_is_ring_homomorphism():
    rng = random.Random(3)
    for _ in range(200):
        m = rng.choice((4, 8, 16, 32))
        a, b = rand_cyc(rng, m, 5), rand_cyc(rng, m, 5)
        assert abs(embed(a * b) - embed(a) * embed(b)) < 1e-10
        assert abs(embed(a + b) - (embed(a) + embed(b))) < 1e-10


def test_galois_identity_and_example():
    c = Cyclotomic.zeta(8) + Cyclotomic.zeta(8, -1)
    assert c.galois(1) == c
    assert c.galois(3) == -c
    with pytest.raises(ValueError):
        c.galois(2)


def test_galois_orbit_of_zeta8_has_size_four():
    z = Cyclotomic.zeta(8)
    orbit = {z.galois(t) for t in (1, 3, 5, 7)}
    assert len(orbit) == 4


def test_galois_is_multiplicative_with_bounded_order():
    rng = random.Random(21)
    m = 16
    for t in (3, 5, 7, 9, 15):
        a, b = rand_cyc(rng, m), rand_cyc(rng, m)
        assert (a * b).galois(t) == a.galois(t) * b.galois(t)
        # order of the automorphism divides phi(m)
        x = Cyclotomic.zeta(m)
        y = x
        for _ in range(m // 2):
            y = y.galois(t)
        assert y == x


def test_reduce_conductor():
    a = Cyclotomic.zeta(16, 4)   # = zeta4
    r = a.reduce_conductor()
    assert r.m == 4 and r == Cyclotomic.zeta(4)


def test_conductor_validation():
    with pytest.raises(ValueError):
        Cyclotomic(6, (Fraction(1), Fraction(0), Fraction(0)))
    with pytest.raises(ValueError):
        Cyclotomic(8, (Fraction(1),))
    for build in (Cyclotomic.zero, Cyclotomic.one, Cyclotomic.zeta, lambda m: Cyclotomic.from_rational(3, m)):
        for m in (1, 6, 12):
            with pytest.raises(ValueError, match="power of two"):
                build(m)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Cyclotomic(4, (0.1, 1)),
        lambda: Cyclotomic(2, ("1",)),
        lambda: Cyclotomic.from_rational(0.1),
        lambda: Cyclotomic.from_rational(1.0, 8),
        lambda: Cyclotomic.gauss(0.5, 1),
        lambda: Cyclotomic.gauss(1, 1.0),
        lambda: Cyclotomic.zeta(4) * 0.5,
    ],
)
def test_inexact_coefficients_are_refused(build):
    with pytest.raises(TypeError):
        build()


def test_elements_are_immutable_and_read_out_as_fractions():
    c = Cyclotomic(8, (Fraction(1, 2), 3, Fraction(-4, 6), 0))
    assert c.coeffs == (Fraction(1, 2), Fraction(3), Fraction(-2, 3), Fraction(0))
    assert all(type(v) is Fraction for v in c.coeffs)
    assert (c.num, c.den) == ((3, 18, -4, 0), 6)
    with pytest.raises(AttributeError):
        c.m = 16
    with pytest.raises(AttributeError):
        c.den = 1
    with pytest.raises(AttributeError):
        del c.num
    assert pickle.loads(pickle.dumps(c)) == c and copy.deepcopy(c) == c


@pytest.mark.parametrize("q", [3, -2, 0, Fraction(3, 4), Fraction(-5, 8)])
def test_rational_elements_hash_as_their_fraction(q):
    for m in (2, 4, 16, 64):
        c = Cyclotomic.from_rational(q, m)
        assert c == q and hash(c) == hash(q) == hash(Fraction(q))
        assert q in {c} and c in {q} and c in {Fraction(q)}
        assert c.lift(128) in {c} and hash(c.lift(128)) == hash(c)


def test_equal_elements_of_different_conductors_hash_alike():
    i_forms = [Cyclotomic.zeta(4), Cyclotomic.zeta(8, 2), Cyclotomic.zeta(64, 16), Cyclotomic.gauss(0, 1)]
    assert len(set(i_forms)) == 1
    a = Cyclotomic(8, (Fraction(1, 3), Fraction(2, 5), 0, 7))
    assert {a, a.lift(32), a.lift(64)} == {a}
    assert hash(a.lift(64)) == hash(a)


# -- the integer form against the Fraction oracle -------------------------------

ORACLE_CONDUCTORS = (2, 4, 8, 16, 32, 64)


def _draw(rng, m):
    coeffs = tuple(
        Fraction(rng.randint(-12, 12), rng.randint(1, 12)) if rng.random() < 0.7 else Fraction(0)
        for _ in range(m // 2)
    )
    return Cyclotomic(m, coeffs), FractionCyclotomic(m, coeffs)


def _agree(x, X):
    assert x.m == X.m and x.coeffs == X.coeffs
    assert x.to_json() == X.to_json() and repr(x) == repr(X)
    # the stored form is the reduced one, which equality and hashing read
    rebuilt = Cyclotomic(x.m, x.coeffs)
    assert (x.num, x.den) == (rebuilt.num, rebuilt.den)
    assert x == rebuilt and hash(x) == hash(rebuilt)


def test_integer_arithmetic_matches_the_fraction_oracle():
    rng = random.Random(19)
    for _ in range(160):
        a, A = _draw(rng, rng.choice(ORACLE_CONDUCTORS))
        b, B = _draw(rng, rng.choice(ORACLE_CONDUCTORS))
        _agree(a, A)
        _agree(a + b, A + B)
        _agree(a - b, A - B)
        _agree(a * b, A * B)
        _agree(-a, -A)
        t = rng.randrange(1, 2 * a.m, 2)
        _agree(a.galois(t), A.galois(t))
        big = rng.choice([m for m in ORACLE_CONDUCTORS if m >= a.m])
        _agree(a.lift(big), A.lift(big))
        _agree(a.reduce_conductor(), A.reduce_conductor())
        q = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        _agree(a * q, A * q)
        _agree(a + q, A + q)
        assert (a == b) == (A == B)
        assert (a == q) == (A == q)
        if not b.is_zero():
            _agree(b.inverse(), B.inverse())
            assert (A * B) * B.inverse() == A
            quotient = (a * b) * b.inverse()
            assert quotient == a and hash(quotient) == hash(a)


# -- polynomials and matrices -------------------------------------------------


def _t_poly():
    return CycloPoly.variable(1, 0)


def test_poly_matrix_zero_detection():
    t = _t_poly()
    one = CycloPoly.constant(1, Cyclotomic.one(4))
    zero_m = PolyMatrix.make([[t - t, CycloPoly.zero(1)], [CycloPoly.zero(1), one - one]])
    assert zero_m.is_zero()
    assert not PolyMatrix.make([[t]]).is_zero()


def test_poly_matrix_products_and_symmetry():
    t = _t_poly()
    one = CycloPoly.constant(1, Cyclotomic.one(4))
    M = PolyMatrix.make([[one, t], [t, one]])
    N = M @ M
    assert is_symmetric(N)
    # (1 + t^2) on the diagonal
    diag = N.entries[0][0]
    assert diag.termdict()[(0,)] == Cyclotomic.one(4)
    assert diag.termdict()[(2,)] == Cyclotomic.one(4)


def test_poly_eval_consistency():
    rng = random.Random(5)
    t = _t_poly()
    one = CycloPoly.constant(1, Cyclotomic.one(4))
    p = (t - one) * (t + one)
    for _ in range(20):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        assert abs(poly_eval(p, [z]) - (z * z - 1)) < 1e-12
