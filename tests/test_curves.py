import cmath

import pytest

from qact.cyclo import Cyclotomic
from qact.curves import (
    DegenerateParameter,
    branch_configuration,
    build_model,
    map_y,
    model_polynomial,
    point_map_group_order,
    rotation_identity_holds,
    t_minus_one_collapse,
    verify_automorphisms,
)
from qact.actions import family_representative, quotient_data

from oracles import poly_eval, squarefree_exact


@pytest.mark.parametrize("n", [3, 4, 5])
def test_t_minus_one_collapse(n):
    assert t_minus_one_collapse(n)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_rotation_identity_exact(n):
    assert rotation_identity_holds(n)


def exact(t: int) -> Cyclotomic:
    return Cyclotomic.from_rational(t, 4)


def test_degree_and_genus():
    for n in (3, 4, 5):
        m = build_model(n, 2)
        assert m.degree == 2**n + 1
        assert m.genus == 2 ** (n - 1)
        assert max(e[0] for e, _ in model_polynomial(n, exact(2)).terms) == m.degree


def test_genus_matches_family_census():
    # the hyperelliptic family is C_(n,n-1); its genus from the ske census
    for n in (3, 4):
        ske = family_representative(n, f"C{n - 1}")
        g = quotient_data(ske, frozenset({0})).genus
        assert g == build_model(n, 2).genus


def test_degenerate_parameters_rejected():
    with pytest.raises(DegenerateParameter):
        build_model(3, 0)
    with pytest.raises(DegenerateParameter):
        build_model(3, 1)
    with pytest.raises(DegenerateParameter):
        build_model(4, complex(1.0))
    with pytest.raises(DegenerateParameter):
        branch_configuration(3, 0j)
    for t in (float("nan"), float("inf"), complex(2.0, float("-inf")), complex(float("nan"), 1.0)):
        with pytest.raises(DegenerateParameter, match="finite"):
            build_model(3, t)
        with pytest.raises(DegenerateParameter, match="finite"):
            branch_configuration(3, t)


def test_squarefree_for_exact_parameters():
    assert squarefree_exact(model_polynomial(3, exact(2)))
    assert squarefree_exact(model_polynomial(3, exact(-1)))
    assert squarefree_exact(model_polynomial(4, exact(-1)))
    assert squarefree_exact(model_polynomial(3, Cyclotomic.gauss(0, 1)))  # t = i


def test_exact_and_numeric_polynomials_agree():
    import random

    rng = random.Random(9)
    for n in (3, 4):
        f = model_polynomial(n, exact(2))
        numeric = build_model(n, complex(2.0))
        for _ in range(10):
            z = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            assert abs(poly_eval(f, [z]) - numeric.f_at(z)) < 1e-8 * (1 + abs(poly_eval(f, [z])))


def test_symbolic_degree():
    f = model_polynomial(4, None)
    assert max(e[0] for e, _ in f.terms) == 2**4 + 1


@pytest.mark.parametrize("n", [3, 4, 5])
def test_numeric_automorphisms(n):
    m = build_model(n, complex(2.0))
    rep = verify_automorphisms(m, samples=100, seed=0)
    assert rep.max_residual < 1e-8


def test_report_fields_and_rotation_flag():
    rep = verify_automorphisms(build_model(3, complex(2.0)), samples=50, seed=1)
    assert rep.rotation_exact
    data = rep.to_json()
    assert data["samples"] == 50
    assert data["max_residual"] < 1e-8


def test_hyperelliptic_involution_via_central_element():
    m = build_model(3, complex(0.5 + 0.5j))
    import random

    rng = random.Random(2)
    from qact.curves import random_curve_point

    p = random_curve_point(m, rng)
    yy = map_y(m, map_y(m, p))
    assert abs(yy[0] - p[0]) < 1e-9
    assert abs(yy[1] + p[1]) < 1e-9


def test_point_map_group_order_recorded():
    """The two maps generate a faithful copy of Q(2^n) on a generic orbit;
    the order-16 triangle action at t = -1 needs automorphisms beyond these
    two maps, so the recorded closure order stays 2^n.  At n = 7 the composed
    maps drift enough that points must be matched by distance, not by
    rounded coordinates.  Near t = 0 the hyperelliptic partners (X, Y) and
    (X, -Y) of an orbit point have tiny Y and must stay apart."""
    for n in (3, 4):
        m = build_model(n, complex(-1.0))
        assert point_map_group_order(m) == 2**n
    assert point_map_group_order(build_model(3, complex(2.0))) == 8
    for t in (2, -1, 0.5 + 0.5j, 3j):
        assert point_map_group_order(build_model(7, t)) == 2**7, t
    for t in (1e-6, 1e-9):
        for n in range(3, 8):
            assert point_map_group_order(build_model(n, complex(t))) == 2**n, (n, t)


def test_branch_configuration_counts():
    for n in (3, 4):
        bc = branch_configuration(n, complex(4.0))
        assert bc.count == 2**n + 2
        assert bc.lambda_sign_identity < 1e-10
        q = 2 ** (n - 2)
        assert bc.orbit_sizes() == [1, 1, q, q, 2 * q]
        assert bc.count == 2 * (build_model(n, 4.0 + 0j).genus + 1)


def test_branch_values_are_roots():
    bc = branch_configuration(3, complex(4.0))
    m = build_model(3, complex(4.0))
    for group in (bc.unit_roots, bc.t_roots, bc.sqrt_t_roots, bc.neg_sqrt_t_roots):
        for z in group:
            assert abs(m.f_at(z)) < 1e-8


def test_branch_example_n3_t4():
    bc = branch_configuration(3, complex(4.0))
    # X^2 = 1 -> {1, -1}; X^2 = 4 -> {2, -2}; X^4 = 4 -> {sqrt2 i^k}
    assert sorted(round(z.real, 6) for z in bc.unit_roots) == [-1.0, 1.0]
    assert sorted(round(z.real, 6) for z in bc.t_roots) == [-2.0, 2.0]
    big = bc.sqrt_t_roots + bc.neg_sqrt_t_roots
    assert all(abs(abs(z) - cmath.sqrt(2).real) < 1e-9 for z in big)
