"""Dimension calculus for the isotypical / group-algebra decompositions.

Given the multiplicities (a_1..a_4; b_s) of the analytic representation of a
Q(2^n)-action on an abelian variety A, this module produces the dimensions of
the geometric factors

    A_G,  Prym(A_N_i / A_G),  Prym(A / A_Z),  Prym(A_H_j / A_H_(j+1))^2,

checks the five equivalent triviality conditions, and reads the
multiplicities of a concrete surface action off its elliptic images c_i by
the Chevalley-Weil formula: mu_1 = gamma, and for nontrivial V

    mu_V = d_V (gamma - 1) + (1/2) sum_i (d_V - dim V^<c_i>).
"""

from __future__ import annotations

from typing import NamedTuple

from .groups import MAX_N, MAX_ORDER, build_quaternion, named_subgroups, record_json
from .reptheory import fixed_dims, galois_orbit


class InvalidMultiplicities(ValueError):
    """Multiplicity vector violates the Galois constraints."""


class _MultiplicityFields(NamedTuple):
    n: int
    a: tuple[int, int, int, int]
    b: tuple[int, ...]


class MultiplicityVector(_MultiplicityFields):
    """Multiplicities (a; b) of rho_a = sum a_j chi_j + sum b_s Theta_s,
    checked on construction.  `_replace` and `_make` skip the check, so
    nothing calls them on a MultiplicityVector."""

    __slots__ = ()

    def __new__(cls, n: int, a: tuple[int, int, int, int], b: tuple[int, ...]):
        if n < 3:
            raise InvalidMultiplicities("n must be >= 3")
        # refused before 2^(n-2) is formed: a huge n would exhaust memory
        if n > MAX_N:
            raise InvalidMultiplicities(
                f"n must be in 3..{MAX_N} (groups of order up to {MAX_ORDER}), got {n}"
            )
        if len(a) != 4 or len(b) != 2 ** (n - 2) - 1:
            raise InvalidMultiplicities(f"need 4 a-values and {2 ** (n - 2) - 1} b-values for n={n}")
        if any(v < 0 for v in a) or any(v < 0 for v in b):
            raise InvalidMultiplicities("multiplicities must be non-negative")
        return super().__new__(cls, n, a, b)

    def b_at(self, s: int) -> int:
        return self.b[s - 1]

    def total_dimension(self) -> int:
        return sum(self.a) + 2 * sum(self.b)

    def check_galois(self) -> None:
        """b_s must be constant on each Galois orbit of Theta indices."""
        for l in range(1, self.n - 1):
            orbit = galois_orbit(self.n, 2 ** (l - 1))
            vals = {self.b_at(s) for s in orbit}
            if len(vals) > 1:
                raise InvalidMultiplicities(
                    f"b is not constant on the Galois orbit {orbit}"
                )

    def to_json(self) -> dict:
        return record_json(self)


class FactorTable(NamedTuple):
    """Dimensions of the factors in the group-algebra decomposition."""

    n: int
    dim_AG: int
    dim_prym_N: tuple[int, int, int]
    dim_prym_A_over_AZ: int
    dim_prym_H: tuple[tuple[int, int], ...]  # (j, dim) for j = 2..n-2
    total: int

    def factors(self) -> list[tuple[str, int, int, str]]:
        """(name, dimension, multiplicity, representation label) per factor."""
        out = [("A_G", self.dim_AG, 1, "chi1")]
        for i, d in enumerate(self.dim_prym_N, start=1):
            out.append((f"Prym(A_N{i}/A_G)", d, 1, f"chi{i + 1}"))
        out.append(("Prym(A/A_Z)", self.dim_prym_A_over_AZ, 1, "W1"))
        for j, d in self.dim_prym_H:
            out.append((f"Prym(A_H{j}/A_H{j + 1})", d, 2, f"W{j}"))
        return out

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "factors": [
                {"name": nm, "dim": d, "multiplicity": mult, "rep": rep}
                for nm, d, mult, rep in self.factors()
            ],
            "total_dimension": self.total,
        }


def factor_dimensions(mv: MultiplicityVector) -> FactorTable:
    """The dimension table: dim A_G = a1, N-Pryms a_(i+1), Z-Prym 2^(n-2) b_1,
    H-step Pryms 2^(n-j-2) b_(2^(j-1)) with multiplicity two."""
    mv.check_galois()
    n = mv.n
    table = FactorTable(
        n=n,
        dim_AG=mv.a[0],
        dim_prym_N=(mv.a[1], mv.a[2], mv.a[3]),
        dim_prym_A_over_AZ=2 ** (n - 2) * mv.b_at(1),
        dim_prym_H=tuple((j, 2 ** (n - j - 2) * mv.b_at(2 ** (j - 1))) for j in range(2, n - 1)),
        total=mv.total_dimension(),
    )
    # conservation: weighted factor dimensions account for the whole of A
    weighted = (
        table.dim_AG
        + sum(table.dim_prym_N)
        + table.dim_prym_A_over_AZ
        + 2 * sum(d for _, d in table.dim_prym_H)
    )
    if weighted != table.total:
        raise RuntimeError("factor dimensions do not sum to the total dimension")
    return table


def dim_fixed_subvariety(mv: MultiplicityVector, K: frozenset) -> int:
    """dim A_K = <rho_a, rho_K>: multiplicities times fixed-space dims (K an element set)."""
    return sum(m * d for m, d in zip((*mv.a, *mv.b), fixed_dims(mv.n, K)))


# ---------------------------------------------------------------------------
# triviality of the decomposition
# ---------------------------------------------------------------------------


class TrivialityReport(NamedTuple):
    """The five equivalent triviality statements, evaluated independently."""

    decomposition_trivial: bool        # every factor other than Prym(A/A_Z) vanishes
    dim_AZ_zero: bool
    all_dim_AK_zero: bool              # over a transversal of nontrivial subgroups
    multiplicity_pattern: bool         # a = 0 and b_s = 0 for even s
    fixed_point_free: bool             # 1 is not an eigenvalue of rho_a(g), g != 1

    def flags(self) -> tuple[bool, bool, bool, bool, bool]:
        return (
            self.decomposition_trivial,
            self.dim_AZ_zero,
            self.all_dim_AK_zero,
            self.multiplicity_pattern,
            self.fixed_point_free,
        )

    @property
    def agree(self) -> bool:
        return len(set(self.flags())) == 1

    def to_json(self) -> dict:
        return record_json(self, agree=self.agree)


def is_trivial_decomposition(mv: MultiplicityVector) -> TrivialityReport:
    mv.check_galois()
    n = mv.n
    table = factor_dimensions(mv)
    flag1 = (
        table.dim_AG == 0
        and all(d == 0 for d in table.dim_prym_N)
        and all(d == 0 for _, d in table.dim_prym_H)
    )
    G = build_quaternion(n)
    subs = named_subgroups(G)
    flag2 = dim_fixed_subvariety(mv, subs["Z"]) == 0
    flag3 = all(
        dim_fixed_subvariety(mv, K) == 0
        for lbl, K in subs.items()
        if lbl not in ("Z",)
    ) and flag2
    flag4 = all(v == 0 for v in mv.a) and all(
        mv.b_at(s) == 0 for s in range(2, 2 ** (n - 2), 2)
    )
    flag5 = _fixed_point_free(mv)
    return TrivialityReport(flag1, flag2, flag3, flag4, flag5)


def _fixed_point_free(mv: MultiplicityVector) -> bool:
    """No rho_a(g), g != 1, has eigenvalue 1: dim A_<g> = 0 for every g != 1.

    dim A_<g> is the sum of m_V dim V^<g> over the irreducibles V of rho_a,
    so it is positive exactly when g fixes a vector; it is read from the same
    fixed-dimension cache as every dim A_K.  Every g != 1 is checked, with no
    shortcut through Z, so this flag stays independent of flag 2.
    """
    G = build_quaternion(mv.n)
    return all(dim_fixed_subvariety(mv, G.closure((g,))) == 0 for g in range(1, G.order))


# ---------------------------------------------------------------------------
# multiplicities of a Jacobian action
# ---------------------------------------------------------------------------


def multiplicities(ske) -> MultiplicityVector:
    """(a; b) of the analytic representation of a Jacobian action, by the
    Chevalley-Weil formula.

    Every irreducible V of Q(2^n) is real-valued, so V occurs in rho_a half
    as often as in H^1(S, C): gamma times if V is trivial, and otherwise
    d_V (gamma - 1) + (1/2) sum_i (d_V - dim V^<c_i>) times, over the
    elliptic images c_i (Rojas, Rev. Mat. Iberoam. 23 (2007); Breuer,
    Characters and Automorphism Groups of Compact Riemann Surfaces (2000)).
    dim V^<c_i> is read from the `fixed_dims` cache.  An odd doubled
    multiplicity means a bug, like a Riemann-Hurwitz parity failure.
    """
    G = ske.group
    if G.kind != "quaternion":
        raise ValueError("multiplicities are defined for Q(2^n) actions")
    n, gamma = G.params["n"], ske.signature.gamma
    degrees = fixed_dims(n, frozenset((0,)))
    fixed = [fixed_dims(n, G.closure((c,))) for c in ske.elliptic]
    doubled = [2 * gamma] + [
        2 * d * (gamma - 1) + sum(d - f[v] for f in fixed) for v, d in enumerate(degrees) if v
    ]
    if any(m % 2 for m in doubled):
        raise RuntimeError(f"odd doubled multiplicities {doubled}")
    mults = [m // 2 for m in doubled]
    return MultiplicityVector(n, tuple(mults[:4]), tuple(mults[4:]))
