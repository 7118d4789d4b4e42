#!/usr/bin/env python3
"""Replay named source mutants of src/qact against the tests meant to kill them.

Each mutant is an exact text patch (a file of src/qact, the old text, the new
text) with the tests expected to fail on it.  For each mutant the tool copies
src/, tests/ and pyproject.toml into a temporary directory, applies the patch
there and runs those tests with `pytest -x`.  A mutant its tests pass on
survives.  A patch whose old text does not occur exactly once in its file is
an error, so the list cannot go stale silently.  The repository itself is
never written.

Usage: python3 tools/mutants.py [NAME ...]   (default: every mutant)
Exit status: 0 every mutant killed, 1 a mutant survived, 2 a patch or a test
id no longer applies.  A mutant that makes a named test's module fail to
import counts as killed.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to src/qact
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


MUTANTS = [
    Mutant(
        "canon-skips-the-stabilizer-filter",
        "actions.py",
        "        fixed |= {t[i]}\n",
        "",
        ("tests/test_actions.py::test_canon_is_the_least_aut_image",
         "tests/test_actions.py::test_canon_is_constant_on_aut_classes"),
    ),
    Mutant(
        "canon-applies-the-transversal-backwards",
        "actions.py",
        "        t = tuple(map(p.index, t))\n",
        "        t = tuple(p[g] for g in t)\n",
        ("tests/test_actions.py::test_canon_and_classify_ignore_the_transversal_choice",
         "tests/test_actions.py::test_canon_is_the_least_aut_image"),
    ),
    Mutant(
        "canon-stops-after-slot-0",
        "actions.py",
        "    for i in range(len(t)):\n",
        "    for i in range(1):\n",
        ("tests/test_actions.py::test_canon_and_classify_ignore_the_transversal_choice",
         "tests/test_actions.py::test_canon_is_the_least_aut_image"),
    ),
    Mutant(
        "transversal-links-the-wrong-way",
        "actions.py",
        "                if link[p[m]] is None:\n"
        "                    link[p[m]] = p\n",
        "                if link[p.index(m)] is None:\n"
        "                    link[p.index(m)] = p\n",
        ("tests/test_actions.py::test_pointwise_stabilizer_by_brute_force",
         "tests/test_actions.py::test_canon_is_the_least_aut_image"),
    ),
    Mutant(
        "chain-slot-skips-its-orbit-minimum-test",
        "actions.py",
        "                bucket = [g for g in bucket if g in least]\n",
        "                pass\n",
        ("tests/test_actions.py::test_classify_matches_the_filter_oracle",),
    ),
    Mutant(
        "chain-stabilizer-not-narrowed",
        "actions.py",
        "        stab = [p for p in _pointwise_stabilizer(G, fixed - {g})[0] if p[g] == g]\n",
        "        stab = list(_pointwise_stabilizer(G, fixed - {g})[0])\n",
        ("tests/test_actions.py::test_pointwise_stabilizer_by_brute_force",
         "tests/test_actions.py::test_classify_matches_the_filter_oracle"),
    ),
    Mutant(
        "genus-one-chain-skips-the-stab-a-minimum-test",
        "actions.py",
        "        for b in sorted(_pointwise_stabilizer(G, frozenset({a}))[1]):\n",
        "        for b in range(G.order):\n",
        ("tests/test_actions.py::test_classify_matches_the_filter_oracle",),
    ),
    Mutant(
        "genus-one-walk-drops-the-generation-mask",
        "actions.py",
        "            if not masks[a] & masks[b]:\n",
        "            if True:\n",
        ("tests/test_actions.py::test_classify_matches_the_filter_oracle",),
    ),
    Mutant(
        # the gamma = 1 total loses the |H|^(2 gamma) of the hyperbolic pair,
        # which leaves every gamma = 0 count as it was
        "genus-one-count-drops-the-hyperbolic-factor",
        "actions.py",
        "    return _exact((2 * M) ** (2 * gamma) * (lift * linear + theta), 2 * M * lift)\n",
        "    return _exact(lift * linear + theta, 2 * M * lift)\n",
        ("tests/test_actions.py::test_genus_one_count_is_the_pair_walk",
         "tests/test_actions.py::test_classify_matches_the_filter_oracle"),
    ),
    Mutant(
        "scan-listing-walks-with-the-chain-on",
        "actions.py",
        "_class_tuples(G, multiset, chain=False)",
        "_class_tuples(G, multiset)",
        ("tests/test_actions.py::test_exhaustive_scan_reports_the_first_20_mismatches",),
    ),
    Mutant(
        # X = x^u for every residue u, not only the odd ones, which have
        # order 2^(n-1)
        "closed-form-aut-lets-u-run-over-even-residues",
        "groups.py",
        "    for X in (g for g in G if G.orders[g] == half):\n",
        "    for X in (g for g in G if g % 2 == 0):\n",
        ("tests/test_groups.py::test_automorphisms_are_the_closed_form_family",),
    ),
    Mutant(
        "aut-lets-y-map-into-the-image-of-x",
        "groups.py",
        " for Y in G if G.orders[Y] == 4 and Y not in powers)\n",
        " for Y in G if G.orders[Y] == 4)\n",
        ("tests/test_groups.py::test_automorphisms_are_the_closed_form_family",),
    ),
    Mutant(
        # every catalogue group fails its relations, so tests/test_groups.py
        # fails to import: pytest exits 4, which counts as killed
        "materialize-takes-the-wrong-generators",
        "groups.py",
        "    return FiniteGroup(name, names, cayley, right[0], relations, kind, params)\n",
        "    return FiniteGroup(name, names, cayley, right[1], relations, kind, params)\n",
        ("tests/test_groups.py::test_quaternion_basics",),
    ),
    Mutant(
        "class-data-swaps-the-parities-of-x-a-y",
        "reptheory.py",
        "(min(a, half - a), quarter + 1 + a % 2)]\n",
        "(min(a, half - a), quarter + 2 - a % 2)]\n",
        ("tests/test_reptheory.py::test_class_data_is_the_conjugacy_partition",
         "tests/test_reptheory.py::test_rep_matrices_match_characters"),
    ),
    Mutant(
        "dot-drops-the-left-exponent",
        "cyclo.py",
        "                    e = tuple(map(add, e1, e2))\n",
        "                    e = e2\n",
        ("tests/test_cyclo.py::test_poly_matrix_products_and_symmetry",
         "tests/test_cyclo.py::test_poly_eval_consistency"),
    ),
    Mutant(
        "negation-keeps-the-sign",
        "cyclo.py",
        "        return CycloPoly.combination(self.nvars, [(1, self), (-1, other)])\n",
        "        return CycloPoly.combination(self.nvars, [(1, self), (1, other)])\n",
        ("tests/test_cyclo.py::test_poly_eval_consistency",),
    ),
    Mutant(
        "arrangements-repeat-an-ordering",
        "actions.py",
        "    for k in sorted(set(periods)):\n",
        "    for k in sorted(periods):\n",
        ("tests/test_actions.py::test_arrangements_walk_the_distinct_orderings_in_lex_order",),
    ),
    Mutant(
        "classify-skips-the-class-count",
        "actions.py",
        "    if total != len(auts) * len(nodes):\n"
        '        raise RuntimeError(f"{total} valid skes do not fill {len(nodes)} classes of {len(auts)}")\n',
        "",
        ("tests/test_actions.py::test_dropped_tuple_fails_the_class_count",),
    ),
    Mutant(
        # Hall's inversion reduced to its first term: no generation test
        "count-drops-the-generation-test",
        "actions.py",
        "    return (_quaternion_count(n, gamma, mult) - _cyclic_count(2 ** (n - 1), gamma, mult)\n"
        "            - 2 * _quaternion_count(n - 1, gamma, mult) + 2 * _cyclic_count(2 ** (n - 2), gamma, mult))\n",
        "    return _quaternion_count(n, gamma, mult)\n",
        ("tests/test_actions.py::test_counter_matches_the_enumerator",
         "tests/test_actions.py::test_counter_matches_hall_inversion"),
    ),
    Mutant(
        "count-skips-the-order-check",
        "actions.py",
        "    if any(N % k for k in mult):\n        return 2, 0, 0\n",
        "",
        ("tests/test_actions.py::test_counter_matches_the_enumerator",
         "tests/test_actions.py::test_counter_matches_hall_inversion",
         "tests/test_actions.py::test_closed_form_matches_the_valuation_loops"),
    ),
    Mutant(
        "hall-weights-phi-by-one",
        "actions.py",
        "+ 2 * _cyclic_count(2 ** (n - 2), gamma, mult))\n",
        "+ _cyclic_count(2 ** (n - 2), gamma, mult))\n",
        ("tests/test_actions.py::test_counter_matches_hall_inversion",),
    ),
    Mutant(
        # psi_(M/2), x -> -1, read with c_M(M/2) = +M/2 in place of -M/2
        "ramanujan-sum-keeps-the-sign",
        "actions.py",
        "    linear = 2 * (P if K < M else Q)\n",
        "    linear = 2 * P\n",
        ("tests/test_actions.py::test_counter_matches_hall_inversion",
         "tests/test_actions.py::test_closed_form_matches_the_valuation_loops"),
    ),
    Mutant(
        # every Ramanujan sum -k/2 read as +k/2, so Q = P.  It changes the
        # product-one counts of every subgroup but, at n = 3..6 and up to 7
        # periods, no gamma = 0 generating count (the enumerator, DP, Hall
        # and scan tests all pass): only the per-subgroup comparison with
        # the valuation loops, the gamma = 1 and gamma = 2 counts and the
        # census, through its gamma = 1 family F0, kill it
        "closed-form-ignores-the-top-parity",
        "actions.py",
        "    return K, P, (-1) ** mult.get(K, 0) * P\n",
        "    return K, P, P\n",
        ("tests/test_actions.py::test_closed_form_matches_the_valuation_loops",
         "tests/test_actions.py::test_genus_one_count_is_the_pair_walk"),
    ),
    Mutant(
        # the DP keeps only the running AND of the masks: images that span
        # G/Phi but cannot sum to 0 pass
        "frattini-test-drops-the-product",
        "actions.py",
        "        states = {(times[p, mk], a & mk) for p, a in states for mk in images}\n",
        "        states = {(full, a & mk) for p, a in states for mk in images}\n",
        ("tests/test_actions.py::test_the_frattini_test_needs_the_running_product",),
    ),
    Mutant(
        "frattini-test-accepts-every-signature",
        "actions.py",
        "    return (full, 0) in states\n",
        "    return True\n",
        ("tests/test_actions.py::test_the_frattini_test_needs_the_running_product",
         "tests/test_actions.py::test_the_frattini_test_rules_out_only_empty_signatures"),
    ),
    Mutant(
        # chi(1)^(2 - 2 gamma - s) read as chi(1)^(2 gamma + s - 2)
        "frobenius-degree-power-inverted",
        "actions.py",
        "    lift = 2 ** (2 * gamma + s - 2)\n",
        "    lift = 2 ** (2 - 2 * gamma - s)\n",
        ("tests/test_actions.py::test_counter_matches_hall_inversion",),
    ),
    Mutant(
        "orbit-leaves-the-valid-set-silently",
        "groups.py",
        "                if valid is not None and u not in valid:\n"
        '                    raise RuntimeError("orbit move left the valid ske set")\n',
        "",
        ("tests/test_actions.py::test_orbit_move_leaving_valid_set_raises",),
    ),
    Mutant(
        "budget-counts-the-solved-slot",
        "actions.py",
        "_check_budget(math.prod(map(len, buckets[:-1])), max_candidates)",
        "_check_budget(math.prod(map(len, buckets)), max_candidates)",
        ("tests/test_actions.py::test_budget_guard",),
    ),
    Mutant(
        "genus-one-classify-ignores-the-budget",
        "actions.py",
        "        _check_budget(G.order ** 2, max_candidates)\n",
        "",
        ("tests/test_actions.py::test_budget_guard",
         "tests/test_cli.py::test_genus_one_budget_counts_the_pairs"),
    ),
    Mutant(
        "riemann-hurwitz-drops-the-divisibility-test",
        "actions.py",
        "    if N <= 0 or r or q % 2:\n",
        "    if N <= 0 or q % 2:\n",
        ("tests/test_actions.py::test_integer_riemann_hurwitz_matches_the_fraction_oracle",),
    ),
    Mutant(
        "riemann-hurwitz-drops-the-parity-test",
        "actions.py",
        "    if N <= 0 or r or q % 2:\n",
        "    if N <= 0 or r:\n",
        ("tests/test_actions.py::test_integer_riemann_hurwitz_matches_the_fraction_oracle",),
    ),
    Mutant(
        "family-key-ignores-gamma",
        "actions.py",
        "if (family_sig.gamma, family_sig.sorted_periods()) == key:",
        "if family_sig.sorted_periods() == key[1]:",
        ("tests/test_actions.py::test_family_labels_name_the_census",),
    ),
    Mutant(
        "wrong-f2-stratum-bound",
        "actions.py",
        'table["F2"] = (Signature(0, (half, half, 4, 4)), 2 ** (n - 2))',
        'table["F2"] = (Signature(0, (half, half, 4, 4)), 2 ** (n - 3))',
        ("tests/test_actions.py::test_family_labels_name_the_census",),
    ),
    Mutant(
        "genus-zero-decided-by-k3",
        "actions.py",
        'return quotient_data(ske, named_subgroups(ske.group)["Z"]).genus == 0',
        'return quotient_data(ske, named_subgroups(ske.group)["K3"]).genus == 0',
        ("tests/test_actions.py::test_genus_zero_from_s_z_matches_the_subgroup_sweep",),
    ),
    Mutant(
        "no-riemann-hurwitz-parity-check",
        "actions.py",
        "    if rhs % 2 != 0:\n"
        '        raise RuntimeError("Riemann-Hurwitz parity failure")\n',
        "",
        ("tests/test_actions.py::test_scan_raises_on_riemann_hurwitz_parity_failure",),
    ),
    Mutant(
        "z-cycle-counts-unchecked",
        "actions.py",
        "        if out.setdefault(G.orders[g], len(cycles)) != len(cycles):\n"
        '            raise RuntimeError("the cycle count on G/Z is not a function of the element order")\n',
        "        out.setdefault(G.orders[g], len(cycles))\n",
        ("tests/test_actions.py::test_scan_raises_if_z_cycles_depend_on_more_than_order",),
    ),
    Mutant(
        "maximal-subgroups-drop-the-last-kernel",
        "groups.py",
        "                out.append(frozenset(g for g in range(self.order) if phi[g] == 0))\n"
        "        return tuple(out)\n",
        "                out.append(frozenset(g for g in range(self.order) if phi[g] == 0))\n"
        "        return tuple(out[:-1])\n",
        ("tests/test_groups.py::test_maximal_subgroups_match_the_lattice",
         "tests/test_groups.py::test_maximal_subgroups_q64"),
    ),
    Mutant(
        "light-test-skipped",
        "groups.py",
        "        for g in self.generators:\n            cg = c[g]\n",
        "        for g in ():\n            cg = c[g]\n",
        ("tests/test_groups.py::test_constructor_rejects_a_bad_table",),
    ),
    Mutant(
        "fixed-dims-without-c-divides-s",
        "reptheory.py",
        "2 * c // len(kset) if s % c == 0 else 0 for s",
        "2 * c // len(kset) for s",
        ("tests/test_reptheory.py::test_fixed_dims_match_the_character_average",),
    ),
    Mutant(
        "chevalley-weil-without-the-elliptic-sum",
        "decomp.py",
        "2 * d * (gamma - 1) + sum(d - f[v] for f in fixed)",
        "2 * d * (gamma - 1)",
        ("tests/test_decomp.py::test_chevalley_weil_matches_the_quotient_genera_oracle",),
    ),
    Mutant(
        "cyclotomic-left-unreduced",
        "cyclo.py",
        "        g = gcd(den, *num)\n        if g != 1:\n",
        "        g = gcd(den, *num)\n        if False:\n",
        ("tests/test_cyclo.py::test_integer_arithmetic_matches_the_fraction_oracle",),
    ),
    Mutant(
        "fixture-rationals-accept-floats",
        "siegel.py",
        "    if type(v) not in (int, str):\n",
        "    if type(v) not in (int, str, float):\n",
        ("tests/test_cli.py::test_malformed_fixture_exits_2[verify-family-float-coefficient]",
         "tests/test_cli.py::test_malformed_fixture_exits_2[verify-period-matrix-float-entry]"),
    ),
    Mutant(
        "siegel-group-requires-no-expected-order",
        "cli.py",
        '        fx.require("expected_order")\n',
        "",
        ("tests/test_cli.py::test_fixture_without_what_the_action_checks_exits_2[group]",),
    ),
    Mutant(
        "character-drops-the-square-term",
        "siegel.py",
        "    total = sum(c * c + chi[Gm.cayley[i][i]] for i, c in enumerate(chi))\n",
        "    total = sum(c * c for c in chi)\n",
        ("tests/test_siegel.py::test_character_dimension_matches_newton",),
    ),
    Mutant(
        "character-skips-the-trace-constancy-check",
        "siegel.py",
        "    if any(any(e) for e, _ in p.terms):\n"
        '        raise ValueError("a trace of C Z + D varies along the family, so the family is not fixed")\n',
        "",
        ("tests/test_siegel.py::test_character_dimension_refuses_a_varying_trace",),
    ),
    Mutant(
        "character-rounds-without-the-tolerance",
        "siegel.py",
        "    if dim < 0 or _modulus(avg - dim) >= CHARACTER_TOL:\n",
        "    if dim < 0:\n",
        ("tests/test_siegel.py::test_character_dimension_refuses_a_perturbed_period_matrix",),
    ),
    Mutant(
        "residual-max-drops-a-nan",
        "siegel.py",
        "                if not math.isfinite(d):\n"
        "                    return math.inf\n",
        "",
        ("tests/test_siegel.py::test_a_non_finite_residual_is_never_below_tolerance",),
    ),
    Mutant(
        "residual-adds-the-two-sides",
        "siegel.py",
        "                d = _modulus(w - z)\n",
        "                d = _modulus(w + z)\n",
        ("tests/test_siegel.py::test_prop13_period_matrix_fixed",
         "tests/test_siegel.py::test_residual_matches_the_numpy_residual"),
    ),
    Mutant(
        "residual-multiplies-z-on-the-right",
        "siegel.py",
        "mat_mul(Z, _affine(C, Z, D))",
        "mat_mul(_affine(C, Z, D), Z)",
        ("tests/test_siegel.py::test_residual_matches_the_numpy_residual",),
    ),
    Mutant(
        "affine-drops-the-constant-block",
        "siegel.py",
        "combine([(c, zrow[j]) for c, zrow in terms], n)",
        "combine([(c, zrow[j]) for c, zrow in terms], 0)",
        ("tests/test_siegel.py::test_thm10_family_fixed_and_variant_discrepancy",
         "tests/test_siegel.py::test_prop13_period_matrix_fixed"),
    ),
    Mutant(
        "affine-keeps-only-the-zero-entries",
        "siegel.py",
        "        terms = [(c, Z[k]) for k, c in enumerate(row) if c]\n",
        "        terms = [(c, Z[k]) for k, c in enumerate(row) if not c]\n",
        ("tests/test_siegel.py::test_exact_residual_matches_the_lifted_block_route",
         "tests/test_siegel.py::test_prop13_period_matrix_fixed"),
    ),
    Mutant(
        "exact-residual-multiplies-the-family-on-the-right",
        "siegel.py",
        "(family @ PolyMatrix.make(_affine(C, F, D, combine))).entries",
        "(PolyMatrix.make(_affine(C, F, D, combine)) @ family).entries",
        ("tests/test_siegel.py::test_exact_residual_matches_the_lifted_block_route",),
    ),
    Mutant(
        "matrix-closure-admits-one-more-element",
        "siegel.py",
        "                if len(elems) >= MAX_ORDER:\n",
        "                if len(elems) > MAX_ORDER:\n",
        ("tests/test_cli.py::test_matrix_group_closure_stops_at_max_order[C65]",),
    ),
    Mutant(
        "quaternion-range-check-admits-one-more-n",
        "groups.py",
        "    if n > MAX_N:\n",
        "    if n > MAX_N + 1:\n",
        ("tests/test_cli.py::test_n_outside_the_supported_range_is_refused_at_once",),
    ),
    Mutant(
        "max-periods-has-no-ceiling",
        "cli.py",
        "type=_int_in_range(3, MAX_PERIODS)",
        "type=_int_in_range(3)",
        ("tests/test_cli.py::test_counts_that_would_check_nothing_exit_2",),
    ),
    Mutant(
        "upper-half-admits-infinity",
        "siegel.py",
        "    if not all(cmath.isfinite(z) for row in Z for z in row):\n"
        "        return False\n",
        "",
        ("tests/test_siegel.py::test_non_finite_points_are_not_in_the_upper_half",),
    ),
    Mutant(
        "closure-tree-records-the-wrong-generator",
        "groups.py",
        "                tree[b] = (p, j)\n",
        "                tree[b] = (p, (j + 1) % len(right[p]))\n",
        ("tests/test_siegel.py::test_cayley_table_from_the_tree_matches_matrix_products",
         "tests/test_siegel.py::test_tree_steps_and_witness_words_are_shortest_products"),
    ),
    Mutant(
        "cayley-row-reads-the-grandparent",
        "groups.py",
        "        columns[b] = list(map(moves[j], columns[p]))\n",
        "        columns[b] = list(map(moves[j], columns[tree[p][0] if p else p]))\n",
        ("tests/test_siegel.py::test_cayley_table_from_the_tree_matches_matrix_products",),
    ),
    Mutant(
        "sparse-column-drops-negative-entries",
        "siegel.py",
        "    return tuple(tuple((k, v) for k, v in enumerate(col) if v) for col in zip(*B))\n",
        "    return tuple(tuple((k, v) for k, v in enumerate(col) if v > 0) for col in zip(*B))\n",
        ("tests/test_siegel.py::test_mat_mul_matches_the_indexed_product",
         "tests/test_siegel.py::test_cayley_table_from_the_tree_matches_matrix_products"),
    ),
    Mutant(
        "same-conductor-sum-ignores-the-denominator",
        "cyclo.py",
        "            a, b = self, other\n"
        "        else:\n"
        "            a, b = Cyclotomic.common(self, _coerce(other, self.m))\n"
        "        if a.den == b.den:\n",
        "            a, b = self, _make(other.m, other.num, self.den)\n"
        "        else:\n"
        "            a, b = Cyclotomic.common(self, _coerce(other, self.m))\n"
        "        if a.den == b.den:\n",
        ("tests/test_cyclo.py::test_integer_arithmetic_matches_the_fraction_oracle",),
    ),
    Mutant(
        "commutator-seed-from-one-generator",
        "groups.py",
        "        seed = [self.commutator(a, b) for a, b in itertools.combinations(self.generators, 2)]\n",
        "        seed = [self.commutator(self.generators[0], b) for b in self.generators]\n",
        ("tests/test_groups.py::test_center_and_commutator_subgroup_from_generators",),
    ),
    Mutant(
        "center-checks-only-the-first-generator",
        "groups.py",
        "if all(c[g][s] == c[s][g] for s in self.generators))",
        "if all(c[g][s] == c[s][g] for s in self.generators[:1]))",
        ("tests/test_groups.py::test_center_and_commutator_subgroup_from_generators",),
    ),
    Mutant(
        "family-variant-is-the-family",
        "siegel.py",
        '    entries[var["row"]][var["col"]] = _poly(family.entries[0][0].nvars, var["terms"])\n',
        "",
        ("tests/test_siegel.py::test_family_variant_differs_in_exactly_the_printed_entry",
         "tests/test_siegel.py::test_thm10_family_fixed_and_variant_discrepancy"),
    ),
    Mutant(
        "signature-admits-period-one",
        "actions.py",
        "        if gamma < 0 or any(k < 2 for k in periods):\n",
        "        if gamma < 0:\n",
        ("tests/test_records.py::test_signature_refuses_a_negative_genus_or_a_period_below_two",),
    ),
    Mutant(
        "multiplicity-vector-admits-n-above-max",
        "decomp.py",
        "        if n > MAX_N:\n",
        "        if False:\n",
        # only the n = MAX_N + 1 case: unchecked, n = 10^9 would form 2^(10^9)
        ("tests/test_records.py::test_multiplicity_vector_refuses_what_it_refused[n-above-max]",),
    ),
    Mutant(
        "named-group-ignores-an-unused-parameter",
        "groups.py",
        "        if value is not None and param != needs:\n",
        "        if False:\n",
        ("tests/test_cli.py::test_groups_refuses_a_parameter_the_name_does_not_take",
         "tests/test_groups.py::test_group_from_json_rejects_a_mismatched_parameter"),
    ),
    Mutant(
        "record-json-drops-the-override",
        "groups.py",
        "    out.update(override)\n",
        "",
        ("tests/test_records.py::test_a_field_record_json_is_its_fields",
         "tests/test_records.py::test_an_override_replaces_a_field_in_place"),
    ),
    Mutant(
        "record-json-keeps-tuples",
        "groups.py",
        "            value = list(value)\n",
        "            pass\n",
        ("tests/test_records.py::test_a_field_record_json_is_its_fields",),
    ),
    Mutant(
        "record-json-skips-nested-to-json",
        "groups.py",
        '        if hasattr(value, "to_json"):\n',
        "        if False:\n",
        ("tests/test_records.py::test_a_field_record_json_is_its_fields",),
    ),
    Mutant(
        "q-name-reads-non-ascii-digits",
        "groups.py",
        " and digits.isascii() and digits.isdigit()",
        " and digits.isdigit()",
        ("tests/test_cli.py::test_a_q_name_with_long_or_non_ascii_digits_names_the_group",
         "tests/test_cli.py::test_a_ske_file_with_a_bad_q_name_names_the_group"),
    ),
    Mutant(
        "q-name-skips-the-digit-count",
        "groups.py",
        '    if len(digits.lstrip("0")) > len(str(MAX_ORDER)):\n',
        "    if False:\n",
        ("tests/test_cli.py::test_a_q_name_with_long_or_non_ascii_digits_names_the_group",
         "tests/test_cli.py::test_a_ske_file_with_a_bad_q_name_names_the_group"),
    ),
]


def _patched_tree(mutant: Mutant, dest: Path) -> None:
    """Copy the source and tests under `dest` and apply the mutant's patch;
    raise ValueError unless its old text occurs exactly once."""
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
    shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)
    shutil.copytree(ROOT / "tests", dest / "tests", ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")
    path = dest / "src" / "qact" / mutant.file
    text = path.read_text()
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"mutant {mutant.name}: old text occurs {count} times in src/qact/{mutant.file}")
    path.write_text(text.replace(mutant.old, mutant.new))


def run(mutant: Mutant) -> str:
    """'killed', 'survived', or raise ValueError when the mutant no longer
    applies: its old text is gone or its tests are not found."""
    with tempfile.TemporaryDirectory(prefix="qact-mutant-") as tmp:
        dest = Path(tmp)
        _patched_tree(mutant, dest)
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
        env.pop("PYTHONPATH", None)
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             *mutant.tests],
            cwd=dest, env=env, capture_output=True, text=True,
        )
    # pytest exits 1 when a test failed and 2 when collection failed (the
    # mutant broke an import).  It exits 4 both when a named test is not
    # found and when the module holding it failed to import; only the second
    # prints "ERROR collecting", and tier-1 checks that every named test
    # exists.  5 means no test was collected.
    if proc.returncode == 0:
        return "survived"
    if proc.returncode in (1, 2) or (proc.returncode == 4 and "ERROR collecting" in proc.stdout):
        return "killed"
    raise ValueError(f"mutant {mutant.name}: pytest exited {proc.returncode}\n{proc.stdout}{proc.stderr}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    args = parser.parse_args(argv)
    by_name = {m.name: m for m in MUTANTS}
    unknown = [name for name in args.names if name not in by_name]
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    chosen = [by_name[name] for name in args.names] or MUTANTS
    survivors = []
    for m in chosen:
        t0 = time.perf_counter()
        try:
            verdict = run(m)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"{verdict:8}  {time.perf_counter() - t0:5.1f} s  {m.name}", flush=True)
        if verdict == "survived":
            survivors.append(m.name)
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} killed"
          + (f"; survivors: {', '.join(survivors)}" if survivors else ""))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
