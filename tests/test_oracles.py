from fractions import Fraction

import pytest

from oracles import UnderdeterminedSystem, _solve_exact


def test_solver_flags_underdetermined_and_inconsistent_systems():
    one, zero = Fraction(1), Fraction(0)
    with pytest.raises(UnderdeterminedSystem):
        _solve_exact([[one, one]], [one], 2)
    with pytest.raises(RuntimeError):
        _solve_exact([[one, zero], [one, zero]], [one, Fraction(2)], 2)
