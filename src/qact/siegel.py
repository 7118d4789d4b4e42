"""Integer symplectic matrices, the Siegel upper half-space, and exact
verification of fixed period-matrix families.

Every fixed-point identity R.Z = Z is checked as A Z + B = Z (C Z + D), which
inverts nothing: exactly in polynomial arithmetic over Q(i) on a printed
family, as a largest residual entry on a numeric period matrix, and as the
residual Gauss-Newton drives to zero.  One formula (`_affine`) forms M Z + N
for the exact and the numeric check alike: the integer blocks act on Z's
entries directly, and are never lifted into polynomial matrices; on a family
each entry is summed in one term dict (`CycloPoly.combination`).
Group-level claims (closure order, defining relations, isomorphism type) are
checked on the matrix group generated by the printed integer matrices, whose
products are exact Python integers.  One cached `matrix_group` per generator
tuple serves the group checks and the character.  Its closure multiplies by
each generator through a product compiled once from the generator's nonzero
entries (`_right_multiplier`), `groups._tree_table` reads the Cayley table
off those products, and the closure stops at groups.MAX_ORDER elements, the
largest group a FiniteGroup holds.  `mat_mul`, the product for one-off
uses, skips its right factor's zeros: compiling costs about five of its
products, which a closure, applying each generator to every element, pays
back and a one-off product does not.
The dimension of the fixed locus at a known fixed point Z is read off the
character tr(C Z + D) of the analytic representation, summed over that
matrix group (chi(R^2) read off the Cayley table's diagonal): exactly on a
printed family, within a stated tolerance on a numeric period matrix.
Numeric points of H_g are g x g tuples of Python complex numbers, and the
upper half-space test and the fixed-point residual are plain Python.

The Gauss-Newton estimator `fixed_locus_dimension` needs no fixed point:
`siegel locus` runs it, and the tests hold the character route to it.  It is
the one component that needs numpy, and its functions import numpy
themselves, so that no other route loads it.  It runs Gauss-Newton on the
stacked residuals over symmetric complex matrices, then one SVD of the
linearization gives both the singular-value count and the null directions;
these are validated by stepping along them and re-converging.  The Jacobian
multiplies each generator's blocks into the whole stacked basis of
symmetric matrices at once.

Only this module knows the fixture format: `load_fixture` parses each
fixture once into a frozen `Fixture` record, refusing any malformed field.
"""

from __future__ import annotations

import cmath
import json
import hashlib
import itertools
import math
from fractions import Fraction
from functools import lru_cache, partial
from importlib import resources
from operator import mul
from typing import TYPE_CHECKING, NamedTuple

from .cyclo import Cyclotomic, CycloPoly, PolyMatrix
from .groups import MAX_ORDER, BudgetExceeded, FiniteGroup, _tree_table, find_isomorphism, read_int, record_json

if TYPE_CHECKING:
    import numpy as np


IntMatrix = tuple[tuple[int, ...], ...]
# a numeric point of H_g (or any g x g complex matrix)
PointMatrix = tuple[tuple[complex, ...], ...]


def as_int_matrix(rows) -> IntMatrix:
    return tuple(tuple(int(v) for v in row) for row in rows)


def _sparse_columns(B) -> tuple:
    """Each column of B as the (row, entry) pairs of its nonzero entries."""
    return tuple(tuple((k, v) for k, v in enumerate(col) if v) for col in zip(*B))


def mat_mul(A: IntMatrix, B: IntMatrix) -> IntMatrix:
    """A B, for integer matrices and for numeric points alike.  Only B's
    nonzero entries are multiplied: each entry sums the dense product's terms
    in the same order less those by a zero, which leave a sum of finite
    terms unchanged."""
    columns = _sparse_columns(B)
    return tuple(tuple(sum(row[k] * v for k, v in col) for col in columns) for row in A)


def _right_multiplier(B: IntMatrix):
    """M -> M B for integer matrices M, compiled once from B's nonzero
    entries: entry j of each row r of M B is written out as the sum of
    r[k] * B[k][j] over the nonzero B[k][j], so that a closure applying it
    to every element runs no loop per entry.  B's entries are bound as the
    constants c[i], not written into the source, so entries of any size
    compile."""
    columns = _sparse_columns(B)
    consts = tuple(v for col in columns for _, v in col)
    slot = itertools.count()
    sums = [" + ".join(f"r[{k}] * c[{next(slot)}]" for k, _ in col) or "0" for col in columns]
    return eval(f"lambda M: tuple(({', '.join(sums)},) for r in M)", {"c": consts})


def identity_matrix(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def symplectic_form(g: int) -> IntMatrix:
    J = [[0] * (2 * g) for _ in range(2 * g)]
    for i in range(g):
        J[i][g + i] = 1
        J[g + i][i] = -1
    return as_int_matrix(J)


def is_symplectic(R) -> bool:
    """Exact integer check R^T J R = J."""
    R = as_int_matrix(R)
    n = len(R)
    if n % 2 != 0 or any(len(row) != n for row in R):
        raise ValueError("matrix must be square of even dimension")
    J = symplectic_form(n // 2)
    Rt = tuple(zip(*R))
    return mat_mul(mat_mul(Rt, J), R) == J


def blocks(R: IntMatrix, g: int):
    A = tuple(row[:g] for row in R[:g])
    B = tuple(row[g:] for row in R[:g])
    C = tuple(row[:g] for row in R[g:])
    D = tuple(row[g:] for row in R[g:])
    return A, B, C, D


def _complex_matrix(Z) -> PointMatrix:
    return tuple(tuple(complex(v) for v in row) for row in Z)


def _modulus(z: complex) -> float:
    """|z|, inf where abs() would raise OverflowError."""
    return math.hypot(z.real, z.imag)


def _numeric_combination(pairs, n: complex) -> complex:
    """n + sum c z over the (integer c, number z) pairs, summed in order."""
    return sum((c * z for c, z in pairs), n)


def _affine(M: IntMatrix, Z, N: IntMatrix, combine=_numeric_combination):
    """M Z + N for integer M and N, the one formula of every fixed-point
    residual: Z is a numeric point, or a printed family's entries with
    `combine` summing each entry in one term dict
    (`CycloPoly.combination`).  Entry (i, j) combines N[i][j] with the
    pairs (M[i][k], Z[k][j]) in k order; a zero entry of M is skipped."""
    out = []
    for row, nrow in zip(M, N):
        terms = [(c, Z[k]) for k, c in enumerate(row) if c]
        out.append(tuple(combine([(c, zrow[j]) for c, zrow in terms], n) for j, n in enumerate(nrow)))
    return tuple(out)


def in_upper_half(Z) -> bool:
    """Finite, symmetric (to numpy.allclose's tolerances: atol 1e-8, rtol
    1e-5) and with positive-definite imaginary part (squared Cholesky pivots
    above 1e-10)."""
    Z = _complex_matrix(Z)
    g = len(Z)
    if not all(cmath.isfinite(z) for row in Z for z in row):
        return False
    if any(_modulus(Z[i][j] - Z[j][i]) > 1e-8 + 1e-5 * _modulus(Z[j][i])
           for i in range(g) for j in range(g)):
        return False
    # Cholesky of Y = Im Z from its lower triangle; pivots[j] = L[j][j]^2
    L = [[0.0] * g for _ in range(g)]
    pivots = []
    for j in range(g):
        d = Z[j][j].imag - sum(v * v for v in L[j][:j])
        if not d > 0:
            return False
        pivots.append(d)
        L[j][j] = math.sqrt(d)
        for i in range(j + 1, g):
            L[i][j] = (Z[i][j].imag - sum(map(mul, L[i][:j], L[j][:j]))) / L[j][j]
    return min(pivots) > 1e-10


# ---------------------------------------------------------------------------
# exact fixed-family verification
# ---------------------------------------------------------------------------


class FixedFamilyReport(NamedTuple):
    generator_ok: tuple[bool, ...]

    @property
    def ok(self) -> bool:
        return all(self.generator_ok)

    def to_json(self) -> dict:
        return {"per_generator_zero": list(self.generator_ok), "ok": self.ok}


def verify_fixed_family(generators, family: PolyMatrix) -> FixedFamilyReport:
    """For each generator, whether A F + B = F (C F + D) holds exactly."""
    F = family.entries
    combine = partial(CycloPoly.combination, F[0][0].nvars)
    flags = []
    for R in generators:
        A, B, C, D = blocks(as_int_matrix(R), family.rows)
        flags.append(_affine(A, F, B, combine) == (family @ PolyMatrix.make(_affine(C, F, D, combine))).entries)
    return FixedFamilyReport(tuple(flags))


# ---------------------------------------------------------------------------
# matrix group closure and relation/isomorphism checks
# ---------------------------------------------------------------------------


def matrix_group(generators) -> tuple[FiniteGroup, tuple[IntMatrix, ...], tuple]:
    """The group generated by integer matrices, spelled as tuples or lists of
    rows or as arrays; they are converted to tuples of int rows before the
    cache is consulted, so every spelling shares one closure."""
    return _matrix_group(tuple(as_int_matrix(R) for R in generators))


@lru_cache(maxsize=16)
def _matrix_group(gens: tuple[IntMatrix, ...]) -> tuple[FiniteGroup, tuple[IntMatrix, ...], tuple]:
    """The group generated by integer matrices (tuples of int rows), by
    breadth-first closure: the FiniteGroup on the elements in visiting order
    (its generators in input order), the elements, and the BFS tree,
    `tree[i] = (p, j)` if element i was first reached as elems[p] * gens[j].
    Each element is multiplied by each generator through the generator's
    nonzero entries (`_right_multiplier`, compiled once per generator);
    `groups._tree_table` reads the Cayley table off these products with no
    further matrix product.  Cached per generator tuple, so that a fixture's
    group checks and its character share one group.  A closure that reaches
    more than MAX_ORDER elements, the largest group a FiniteGroup holds, is
    refused."""
    ident = identity_matrix(len(gens[0]))
    multipliers = [_right_multiplier(Gm) for Gm in gens]
    elems = [ident]
    index = {ident: 0}
    right = []
    # elems grows while it is walked, so it is the BFS queue
    for M in elems:
        row = []
        for times in multipliers:
            P = times(M)
            if P not in index:
                if len(elems) >= MAX_ORDER:
                    raise BudgetExceeded(f"matrix group closure exceeded budget {MAX_ORDER}")
                index[P] = len(elems)
                elems.append(P)
            row.append(index[P])
        right.append(row)
    # the BFS over `right` visits the elements in index order, so its tree is
    # the closure's own
    cayley, tree = _tree_table(right)
    names = [f"m{i}" for i in range(len(elems))]
    return FiniteGroup("matrix-group", names, cayley, right[0]), tuple(elems), tuple(tree)


class GroupDataReport(NamedTuple):
    order: int
    generators_symplectic: tuple[bool, ...]
    relations_hold: tuple[bool, ...]
    isomorphic_to_target: bool | None
    target: str | None
    presentation_witness: tuple[str, ...] | None

    @property
    def ok(self) -> bool:
        return (
            all(self.generators_symplectic)
            and all(self.relations_hold)
            and self.isomorphic_to_target in (None, True)
        )

    def to_json(self) -> dict:
        return record_json(self, ok=self.ok)


def verify_group_data(generators, relations=None, target: FiniteGroup | None = None,
                      gen_names=None) -> GroupDataReport:
    """Closure order, defining relations under the documented generator
    correspondence, and isomorphism against the named target group.

    When the matrix group is isomorphic to the target, the report also names
    matrix-group elements realizing the target's presentation (words in the
    input generators), which pins down the correspondence even when the
    printed generators themselves fail the literal relations.
    """
    sympl = tuple(is_symplectic(R) for R in generators)
    Gm, _, tree = matrix_group(generators)
    rel_flags = []
    for word in relations or []:
        rel_flags.append(Gm.evaluate_word(word) == 0)
    iso = None
    witness = None
    if target is not None:
        back = find_isomorphism(target, Gm)
        iso = back is not None
        if back is not None:
            names = gen_names or [f"g{i}" for i in range(len(generators))]
            words = ["1"]  # shortest words, read off the BFS tree
            for p, j in tree[1:]:
                words.append(names[j] if p == 0 else f"{words[p]}*{names[j]}")
            witness = tuple(words[back[g]] for g in target.generators)
    return GroupDataReport(
        order=Gm.order,
        generators_symplectic=sympl,
        relations_hold=tuple(rel_flags),
        isomorphic_to_target=iso,
        target=target.name if target is not None else None,
        presentation_witness=witness,
    )


# ---------------------------------------------------------------------------
# numeric fixed points and locus dimension
# ---------------------------------------------------------------------------


def verify_fixed_point_numeric(generators, Z) -> float:
    """max over generators of the largest entry modulus of A Z + B - Z (C Z + D),
    the fixed-point equation R.Z = Z with its denominator cleared, so that
    nothing is inverted; Z must lie in H_g.  A residual entry that is not
    finite makes it inf, so that it never counts as below a tolerance."""
    Z = _complex_matrix(Z)
    if not in_upper_half(Z):
        raise ValueError("Z is not in the Siegel upper half-space")
    res = 0.0
    for R in generators:
        A, B, C, D = blocks(as_int_matrix(R), len(Z))
        for row, zrow in zip(_affine(A, Z, B), mat_mul(Z, _affine(C, Z, D))):
            for w, z in zip(row, zrow):
                d = _modulus(w - z)
                if not math.isfinite(d):
                    return math.inf
                res = max(res, d)
    return res


# a numeric character average is read as the integer it lies this close to
CHARACTER_TOL = 1e-6


def _analytic_trace(R: IntMatrix, Z, combine=_numeric_combination, one=1 + 0j):
    """tr(C Z + D) for the lower blocks C, D of R, by `_affine`'s `combine`:
    the pairs (C[i][j], Z[j][i]) in (i, j) order, summed onto tr D times
    `one`, the unit its sum starts from."""
    g = len(Z)
    pairs = [(c, Z[j][i]) for i in range(g) for j, c in enumerate(R[g + i][:g]) if c]
    return combine(pairs, sum(R[g + i][g + i] for i in range(g)) * one)


def _constant(p: CycloPoly) -> Cyclotomic:
    """The value of a polynomial that must not depend on the parameters."""
    if any(any(e) for e, _ in p.terms):
        raise ValueError("a trace of C Z + D varies along the family, so the family is not fixed")
    return dict(p.terms).get((0,) * p.nvars, Cyclotomic.zero(4))


def character_dimension(generators, point) -> int:
    """The dimension of the fixed locus in H_g of the generated group G, as
    dim (Sym^2 V)^G = (1/2|G|) sum_R (chi(R)^2 + chi(R^2)): V is the analytic
    representation R -> C Z + D at a fixed point Z, whose symmetric square is
    the tangent space of the locus at Z (Birkenhake-Lange, Complex Abelian
    Varieties, the chapter on group actions), and chi(R) = tr(C Z + D).

    `point` is a printed family (a PolyMatrix), whose traces must be constant
    and whose average must be a non-negative integer, or a numeric point
    (g x g complex), whose average must lie within CHARACTER_TOL of one.
    ValueError otherwise, since the point is then not fixed by G."""
    Gm, elems, _ = matrix_group(generators)
    exact = isinstance(point, PolyMatrix)
    if exact:
        combine = partial(CycloPoly.combination, point.entries[0][0].nvars)
        chi = [_constant(_analytic_trace(R, point.entries, combine, 1)) for R in elems]
    else:
        Z = _complex_matrix(point)
        chi = [_analytic_trace(R, Z) for R in elems]
    total = sum(c * c + chi[Gm.cayley[i][i]] for i, c in enumerate(chi))
    if exact:
        avg = total.rational_value() / (2 * len(elems)) if total.is_rational() else None
        if avg is None or avg.denominator != 1 or avg < 0:
            raise ValueError(f"the character average {total} / {2 * len(elems)} is not a dimension, "
                             "so the family is not fixed")
        return int(avg)
    avg = total / (2 * len(elems))
    dim = round(avg.real) if cmath.isfinite(avg) else -1
    if dim < 0 or _modulus(avg - dim) >= CHARACTER_TOL:
        raise ValueError(f"the character average {avg} is not within {CHARACTER_TOL} of a dimension, "
                         "so the point is not fixed")
    return dim


def _sym_basis(g: int) -> np.ndarray:
    """The symmetric unit matrices E_ij + E_ji (i <= j, row-major), stacked
    into one (g(g+1)/2, g, g) array.  A coefficient vector v is the symmetric
    matrix `np.tensordot(v, basis, axes=1)`, with v[k] at (i, j) and (j, i)."""
    import numpy as np

    basis = np.zeros((g * (g + 1) // 2, g, g), dtype=complex)
    for k, (i, j) in enumerate((i, j) for i in range(g) for j in range(i, g)):
        basis[k, i, j] = 1.0
        basis[k, j, i] = 1.0
    return basis


def _residual(gens_blocks, Z: np.ndarray) -> np.ndarray:
    import numpy as np

    vals = []
    for A, B, C, D in gens_blocks:
        vals.append((A @ Z + B - Z @ (C @ Z + D)).ravel())
    return np.concatenate(vals)


def _jacobian(gens_blocks, Z: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Column k is the derivative A E - E (C Z + D) - Z C E of the stacked
    residuals along E = basis[k]; each generator's products run over the
    whole basis stack at once."""
    import numpy as np

    rows = []
    for A, B, C, D in gens_blocks:
        M = C @ Z + D
        dF = np.matmul(A, basis) - np.matmul(basis, M) - np.matmul(Z, np.matmul(C, basis))
        rows.append(dF.reshape(len(basis), -1))
    return np.concatenate(rows, axis=1).T


class LocusReport(NamedTuple):
    dimension: int | None
    point: np.ndarray | None
    max_residual: float | None
    singular_values: list[float]
    validated_directions: int
    in_upper_half: bool
    converged_starts: int

    def to_json(self) -> dict:
        return {
            "dimension": self.dimension,
            "max_residual": self.max_residual,
            "singular_values": self.singular_values,
            "validated_directions": self.validated_directions,
            "point_in_upper_half": self.in_upper_half,
            "converged_starts": self.converged_starts,
            "point": None
            if self.point is None
            else [[(v.real, v.imag) for v in row] for row in self.point.tolist()],
        }


def _newton(gens_blocks, Z0: np.ndarray, basis):
    """Gauss-Newton with step halving: at most 60 steps, converged once the
    largest residual entry is below 1e-11; None if it stalls or runs out."""
    import numpy as np

    Z = Z0.copy()
    for _ in range(60):
        F = _residual(gens_blocks, Z)
        fn = float(np.max(np.abs(F)))
        if fn < 1e-11:
            return Z
        Jm = _jacobian(gens_blocks, Z, basis)
        delta, *_ = np.linalg.lstsq(Jm, -F, rcond=None)
        direction = np.tensordot(delta, basis, axes=1)
        step = 1.0
        improved = False
        for _ in range(30):
            Zt = Z + step * direction
            if float(np.max(np.abs(_residual(gens_blocks, Zt)))) < fn:
                Z = Zt
                improved = True
                break
            step /= 2
        if not improved:
            return None
    F = _residual(gens_blocks, Z)
    return Z if float(np.max(np.abs(F))) < 1e-11 else None


def fixed_locus_dimension(generators, starts: int = 8, rank_tol: float = 1e-7,
                          rng_seed: int = 0) -> LocusReport:
    """Newton-estimated complex dimension of {Z symmetric : R.Z = Z for all R}.

    Starting points are i*I and `starts` random H_g matrices; at a
    converged point the dimension is the number of singular values of the
    linearization below rank_tol * sigma_max, and each null direction of the
    same SVD is cross-validated by stepping along it and re-converging to a
    nearby, distinct fixed point.
    """
    import numpy as np

    g = len(generators[0]) // 2
    gens_blocks = [
        tuple(np.array(blk, dtype=complex) for blk in blocks(as_int_matrix(R), g))
        for R in generators
    ]
    basis = _sym_basis(g)
    rng = np.random.default_rng(rng_seed)
    candidates = [1j * np.eye(g)]
    while len(candidates) < starts + 1:
        X = rng.normal(size=(g, g))
        X = (X + X.T) / 2
        W = rng.normal(size=(g, g)) / np.sqrt(g)
        Y = W @ W.T + 0.5 * np.eye(g)
        candidates.append(X + 1j * Y)

    converged = []
    for Z0 in candidates:
        Z = _newton(gens_blocks, Z0, basis)
        if Z is not None:
            converged.append(Z)
    if not converged:
        return LocusReport(None, None, None, [], 0, False, 0)

    # prefer a representative inside H_g when one exists
    point = next((Z for Z in converged if in_upper_half(Z)), converged[0])
    Jm = _jacobian(gens_blocks, point, basis)
    _, sv, Vh = np.linalg.svd(Jm)
    smax = float(sv[0]) if len(sv) else 0.0
    if smax == 0.0:
        dim = len(basis)
        null_dirs = []
    else:
        dim = int(np.sum(sv < rank_tol * smax))
        null_dirs = [Vh[-(k + 1)].conj() for k in range(dim)]

    validated = 0
    eps = 1e-3 * (1.0 + float(np.max(np.abs(point))))
    for d in null_dirs:
        Zs = point + eps * np.tensordot(d, basis, axes=1)
        Zn = _newton(gens_blocks, Zs, basis)
        if Zn is not None and float(np.max(np.abs(Zn - point))) > eps / 4:
            validated += 1
    residual = float(np.max(np.abs(_residual(gens_blocks, point))))
    return LocusReport(
        dimension=dim,
        point=point,
        max_residual=residual,
        singular_values=[float(s) for s in sv],
        validated_directions=validated,
        in_upper_half=in_upper_half(point),
        converged_starts=len(converged),
    )


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------


class FixtureError(ValueError):
    """Missing or corrupted fixture data."""


class Fixture(NamedTuple):
    """A verification fixture, parsed once by `load_fixture`.  An optional
    field the fixture leaves out (or sets to null) is None."""

    name: str
    sha256: str
    generators: tuple[IntMatrix, ...]
    generator_names: tuple[str, ...] | None
    relations: tuple[tuple[tuple[int, int], ...], ...] | None
    target_group: str | None
    expected_order: int | None
    expected_dimension: int | None
    family: PolyMatrix | None
    family_variant: PolyMatrix | None
    period_matrix: PointMatrix | None

    def require(self, *fields: str) -> None:
        """Raise FixtureError unless the fixture holds one of `fields`, so
        that an action never passes having checked nothing."""
        if all(getattr(self, field) is None for field in fields):
            names = " or ".join(f"data.{field}" for field in fields)
            raise FixtureError(f"fixture {self.name} has no {names} to check")


def fixture_checksum(data: dict) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def _list_of(value, kind: type) -> bool:
    """Whether `value` is a list whose items all have exactly the type `kind`
    (so a boolean is not an int)."""
    return isinstance(value, list) and all(type(v) is kind for v in value)


def _is_int_matrix(m, n: int) -> bool:
    """Whether m is an n x n list of lists of integers."""
    return isinstance(m, list) and len(m) == n and all(_list_of(row, int) and len(row) == n for row in m)


def _checked(ok: bool, value):
    """`value`, or ValueError unless `ok`."""
    if not ok:
        raise ValueError("malformed fixture field")
    return value


def _rational(v) -> Fraction:
    """An exact rational from a JSON integer or string; a float or a boolean
    is refused, so no inexact number enters the exact checks."""
    if type(v) not in (int, str):
        raise TypeError(f"{v!r} is not an integer or a string")
    return Fraction(v)


def _poly(nvars: int, terms: list) -> CycloPoly:
    out = {}
    for t in terms:
        exp = tuple(t["exp"])
        if len(exp) != nvars or not all(type(e) is int and e >= 0 for e in exp):
            raise ValueError(f"exponent {list(exp)} is not {nvars} integers >= 0")
        out[exp] = Cyclotomic.gauss(_rational(t.get("re", "0")), _rational(t.get("im", "0")))
    return CycloPoly.make(nvars, out)


def _family(fam: dict, g: int) -> PolyMatrix:
    nv = len(fam["params"])
    F = PolyMatrix.make([[_poly(nv, cell) for cell in row] for row in fam["entries"]])
    return _checked((F.rows, F.cols) == (g, g), F)


def _with_variant(family: PolyMatrix, var: dict) -> PolyMatrix:
    """The family with the alternative printed entry substituted in; its row
    and column must be integers in 0..g-1 (no boolean, no index from the end)."""
    _checked(all(type(var[k]) is int and 0 <= var[k] < family.rows for k in ("row", "col")), None)
    entries = [list(row) for row in family.entries]
    entries[var["row"]][var["col"]] = _poly(family.entries[0][0].nvars, var["terms"])
    return PolyMatrix.make(entries)


SQRT2 = 2.0 ** 0.5
PROP13_LAMBDA = (500.0 + 146.0 * SQRT2) ** 0.5 / 644.0


def _period_entry(quad: list) -> complex:
    """(p + q*sqrt2) + i*lam*(r + s*sqrt2) from an exact quadruple; a value
    too large for a float (float() overflows, or the sum is infinite) is
    refused."""
    p, q, r, s = (float(_rational(v)) for v in quad)
    z = p + q * SQRT2 + 1j * PROP13_LAMBDA * (r + s * SQRT2)
    return _checked(cmath.isfinite(z), z)


def _period_matrix(quads: list, g: int) -> PointMatrix:
    """Z0 from g rows of g exact quadruples."""
    if len(quads) != g or any(len(row) != g for row in quads):
        raise ValueError(f"the period matrix is not {g} rows of {g} quadruples")
    return tuple(tuple(map(_period_entry, row)) for row in quads)


def load_fixture(name_or_path: str) -> Fixture:
    """Load a verification fixture by name (packaged) or filesystem path and
    parse each field once.  FixtureError names the first fault: the file's
    shape, the generators, the checksum, then the first malformed optional
    field, so that no action trips over it or reads a wrong verdict off it."""
    parse_int = lambda text: read_int(text, name_or_path)
    if name_or_path.endswith(".json") and "/" in name_or_path:
        with open(name_or_path) as fh:
            raw = json.load(fh, parse_int=parse_int)
    else:
        base = name_or_path[:-5] if name_or_path.endswith(".json") else name_or_path
        ref = resources.files("qact").joinpath(f"fixtures/{base}.json")
        if not ref.is_file():
            raise FixtureError(f"no fixture named {base!r}")
        raw = json.loads(ref.read_text(), parse_int=parse_int)
    data = raw.get("data") if isinstance(raw, dict) else None
    if not (isinstance(data, dict) and isinstance(raw.get("name"), str)):
        raise FixtureError(f"fixture {name_or_path} is not an object with a name and a data object")
    name = raw["name"]
    gens = data.get("generators")
    n = len(gens[0]) if isinstance(gens, list) and gens and isinstance(gens[0], list) else 0
    if n == 0 or n % 2 or not all(_is_int_matrix(m, n) for m in gens):
        raise FixtureError(f"fixture {name} needs data.generators: integer matrices of one even size")
    expected = raw.get("sha256")
    actual = fixture_checksum(data)
    if expected != actual:
        raise FixtureError(f"fixture {name} checksum mismatch: {actual} != {expected}")
    k, g = len(gens), n // 2
    pair = lambda p: _list_of(p, int) and len(p) == 2 and 0 <= p[0] < k
    fields = {}
    parsers = {
        "generator_names": lambda v: _checked(_list_of(v, str) and len(v) == k, tuple(v)),
        "relations": lambda v: _checked(_list_of(v, list) and all(all(map(pair, w)) for w in v),
                                        tuple(tuple(map(tuple, w)) for w in v)),
        "target_group": lambda v: _checked(type(v) is str and v.strip() != "", v),
        "expected_order": lambda v: _checked(type(v) is int, v),
        "expected_dimension": lambda v: _checked(type(v) is int, v),
        "family": lambda v: _family(v, g),
        "family_variant": lambda v: _with_variant(fields["family"], v),
        "period_matrix": lambda v: _period_matrix(v, g),
    }
    for field, parse in parsers.items():
        value = data.get(field)
        try:
            fields[field] = None if value is None else parse(value)
        except (AttributeError, KeyError, TypeError, IndexError, ValueError, ZeroDivisionError,
                OverflowError):
            raise FixtureError(f"fixture {name} has a malformed data.{field}") from None
    return Fixture(name, actual, tuple(as_int_matrix(m) for m in gens), **fields)
