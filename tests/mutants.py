"""The committed mutation suite: each mutant changes one exact snippet of
one source file, and names the tier-1 tests that must fail on it.

``tests/test_mutants.py`` checks, in the tier-1 run, that each snippet
occurs exactly once in its file and that each named test exists.
``tests/run_mutants.py`` applies the mutants one at a time to a copy of
the source and runs their tests; a mutant whose tests all pass, or any
one of whose named tests passes, survives and is reported.

A test id is ``file::function``: it names every case of a parametrized
test, and fails when any of its cases fails.
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    id: str
    file: str      # relative to the repository root
    snippet: str   # occurs exactly once in ``file``
    replacement: str
    tests: tuple   # the test ids that must fail


MUTANTS = (
    Mutant("nonzeros-counts-h-not-the-entries-present", "src/qcong/series.py",
           "return min(h, len(x)) - operator.countOf(islice(x, h), 0)",
           "return h - operator.countOf(islice(x, h), 0)",
           ("tests/test_series.py::test_nonzero_bound_sends_dense_products_packed_without_supports",)),
    Mutant("inverse-bound-counts-n-outputs", "src/qcong/series.py",
           "(_nonzeros(dc, h) - 1) * (n - h) <= PACKED_CROSSOVER * n",
           "(_nonzeros(dc, h) - 1) * n <= PACKED_CROSSOVER * n",
           ("tests/test_series.py::test_newton_inverse_routes_by_the_nonzero_bound",)),
    Mutant("slot-one-digit-short", "src/qcong/series.py",
           "lo, len(str(bound)), residues)",
           "lo, len(str(bound)) - 1, residues)",
           ("tests/test_series.py::test_packed_slot_is_the_l1_bound",
            "tests/test_series.py::test_packed_slot_holds_the_fullest_slot")),
    Mutant("low-digits-one-slot-short", "src/qcong/series.py",
           "low = Context(prec=k * w,",
           "low = Context(prec=(k - 1) * w,",
           ("tests/test_series.py::test_packed_from_lo_at_the_edges",
            "tests/test_series.py::test_packed_from_lo_is_the_tail_of_the_product")),
    Mutant("packed-slots-unreduced", "src/qcong/series.py",
           "cs = map(m.__rmod__, cs)",
           "cs = map(int, cs)",
           ("tests/test_series.py::test_newton_inverse_matches_divide_block",
            "tests/test_series.py::test_kernel_results_are_in_the_ring",
            "tests/test_series.py::test_kernels_return_residues_and_packed_shares_them")),
    Mutant("residue-list-shifted", "src/qcong/series.py",
           "residues = list(range(m))",
           "residues = [*range(1, m), 0]",
           ("tests/test_series.py::test_packed_matches_convolve_at_the_edges",
            "tests/test_series.py::test_mul_over_z_m_matches_convolve",
            "tests/test_series.py::test_kernels_return_residues_and_packed_shares_them")),
    Mutant("binary-slot-one-byte-short", "src/qcong/series.py",
           "wb = (bound.bit_length() + (m is None) + 7) // 8",
           "wb = (bound.bit_length() + (m is None) - 1) // 8",
           ("tests/test_series.py::test_packed_slot_holds_the_fullest_slot",
            "tests/test_series.py::test_packed_over_z_matches_convolve")),
    Mutant("binary-half-slot-not-subtracted-over-z", "src/qcong/series.py",
           "yield map(half.__rsub__, cs) if half else cs",
           "yield cs",
           ("tests/test_series.py::test_packed_over_z_matches_convolve",
            "tests/test_series.py::test_packed_kernel_on_both_rings_above_the_crossover")),
    Mutant("packed-residues-not-shared", "src/qcong/series.py",
           "out[(j - lo) % d::d] = map(residues.__getitem__, cs) if shared else cs",
           "out[(j - lo) % d::d] = cs",
           ("tests/test_series.py::test_kernels_return_residues_and_packed_shares_them",)),
    Mutant("newton-error-not-negated", "src/qcong/series.py",
           "list(map(m.__rmod__, map(neg, e)))",
           "list(map(m.__rmod__, e))",
           ("tests/test_series.py::test_newton_inverse_matches_divide_block",
            "tests/test_series.py::test_invert_and_divide_over_z_m_match_divide_block")),
    Mutant("square-pairs-not-doubled", "src/qcong/series.py",
           "            c += c\n",
           "",
           ("tests/test_series.py::test_convolve_square_matches_the_general_product",)),
    Mutant("quotient-minus-one-term-added-as-plus-one", "src/qcong/series.py",
           "            s += c[k - j]\n",
           "            s -= c[k - j]\n",
           ("tests/test_series.py::test_divide_block_times_the_divisor_is_the_dividend",
            "tests/test_series.py::test_divide_block_matches_the_loop_it_replaced")),
    Mutant("quotient-term-activated-one-step-late", "src/qcong/series.py",
           """        if k == nxt:
            d = dc[k]
            if d == 1:
                plus.append(k)
            elif d == minus_one:
                minus.append(k)
            else:
                other.append((k, d))
            nxt = next(js, n)
        s = uc[k] if k < lu else 0
        for j in plus:
            s -= c[k - j]
        for j in minus:
            s += c[k - j]
        for j, d in other:
            s -= d * c[k - j]
""",
           """        s = uc[k] if k < lu else 0
        for j in plus:
            s -= c[k - j]
        for j in minus:
            s += c[k - j]
        for j, d in other:
            s -= d * c[k - j]
        if k == nxt:
            d = dc[k]
            if d == 1:
                plus.append(k)
            elif d == minus_one:
                minus.append(k)
            else:
                other.append((k, d))
            nxt = next(js, n)
""",
           ("tests/test_series.py::test_divide_block_times_the_divisor_is_the_dividend",
            "tests/test_series.py::test_divide_block_matches_the_loop_it_replaced")),
    Mutant("quotient-residue-m-minus-one-taken-as-plus-one", "src/qcong/series.py",
           "            if d == 1:\n",
           "            if d == 1 or m and d == m - 1:\n",
           ("tests/test_series.py::test_divide_block_times_the_divisor_is_the_dividend",
            "tests/test_series.py::test_divide_block_matches_the_loop_it_replaced")),
    Mutant("window-check-off-by-one", "src/qcong/series.py",
           "if T > MAX_WINDOW:",
           "if T > MAX_WINDOW + 1:",
           ("tests/test_products.py::test_builders_refuse_a_window_over_the_cap_before_allocating",)),
    Mutant("prefix-cache-serves-past-its-window", "src/qcong/products.py",
           "if s is not None and s.v <= T <= s.known_through:",
           "if s is not None and s.v <= T <= s.known_through + 1:",
           ("tests/test_products.py::test_prefix_cache_serves_what_a_cold_expansion_gives",
            "tests/test_products.py::test_prefix_cache_keeps_the_longest_expansion_of_each_key")),
    Mutant("dissect-asks-through-mT", "src/qcong/expr.py",
           "self.child.expand(max(k * T + k - 1, 0), m)",
           "self.child.expand(max(k * T, 0), m)",
           ("tests/test_identities.py::test_evaluate_reaches_t_and_never_over_claims",
            "tests/test_identities.py::test_dissect_classes_share_one_expansion")),
    Mutant("wrong-slope-6k1-product-form", "src/qcong/products.py",
           '"6k+1", {1: 5, 2: -2})',
           '"6k+1", {1: 5, 2: -3})',
           ("tests/test_products.py::test_theta_block_equals_its_product_form",)),
    Mutant("theta-terms-k-bound-one-short-of-the-root", "src/qcong/products.py",
           "// (2 * A) + 2",
           "// (2 * A) - 1",
           ("tests/test_products.py::test_terms_are_every_term_through_t_in_k_order",
            "tests/test_products.py::test_bilateral_matches_quotient")),
    Mutant("theta-terms-one-sided-sum-taken-over-z", "src/qcong/products.py",
           "range(-K if self.two_sided else 0, K + 1)",
           "range(-K, K + 1)",
           ("tests/test_products.py::test_terms_are_every_term_through_t_in_k_order",
            "tests/test_products.py::test_bilateral_matches_quotient")),
    Mutant("pentweight-kernel-at-scale-27", "src/qcong/theorems.py",
           "(SLOPE_3K1, 54)",
           "(SLOPE_3K1, 27)",
           ("tests/test_theorems.py::test_pentweight_term_set_n0",
            "tests/test_theorems.py::test_k_range_enlargement_is_invariant")),
    Mutant("spec-denominator-scalar-accepted", "src/qcong/cli.py",
           "if sign == -1 and c not in (1, -1):",
           "if sign == -1 and c == 0:",
           ("tests/test_cli.py::test_parse_errors_carry_position",)),
    Mutant("spec-second-fraction-bar-accepted", "src/qcong/cli.py",
           'elif token == "/" and part == "numerator":',
           'elif token == "/":',
           ("tests/test_cli.py::test_parse_errors_carry_position",)),
    Mutant("spec-index-error-one-past-the-digit", "src/qcong/cli.py",
           'm.end("d") - 1, text)',
           'm.end("d"), text)',
           ("tests/test_cli.py::test_parse_errors_carry_position",)),
    Mutant("b-table-oracle-reads-a-short-prefix", "src/qcong/theorems.py",
           "if table[:401] != partitions.count_triples(400):",
           "if table[:7] != partitions.count_triples(400)[:7]:",
           ("tests/test_theorems.py::test_b_table_oracle_check",)),
    Mutant("identity-compares-lhs-with-itself", "src/qcong/identities.py",
           "e = lhs.first_mismatch(rhs, T)",
           "e = lhs.first_mismatch(lhs, T)",
           ("tests/test_identities.py::test_verify_reports_first_mismatch",
            "tests/test_acceptance.py::test_criterion_7_mutation_sensitivity")),
    Mutant("weighted-sum-residue-skips-n0", "src/qcong/theorems.py",
           "if total % claim.modulus:",
           "if total % claim.modulus and n:",
           ("tests/test_theorems.py::test_claim_report_violation_schema",
            "tests/test_theorems.py::test_failing_family_reports_exact_values")),
    Mutant("plan-rest-in-the-long-groups-ring", "src/qcong/theorems.py",
           "two = [table(long), table(rest)] if rest else one",
           "two = [table(long), (table(long)[0], *table(rest)[1:])] if rest else one",
           ("tests/test_theorems.py::test_plan_covers_every_check_in_a_ring_it_divides",
            "tests/test_theorems.py::test_plan_pins_its_tables",
            "tests/test_theorems.py::test_failing_family_under_two_tables_reports_exact_values")),
    Mutant("plan-cost-comparison-inverted", "src/qcong/theorems.py",
           "plan = two if cost(two) < cost(one) else one",
           "plan = two if cost(two) > cost(one) else one",
           ("tests/test_theorems.py::test_plan_pins_its_tables",
            "tests/test_theorems.py::test_families_share_one_residue_table_and_an_exact_prefix",
            "tests/test_theorems.py::test_residue_table_disagreeing_with_the_exact_one_raises")),
    Mutant("plan-cost-drops-the-fixed-cost", "src/qcong/theorems.py",
           "R * len(str(R * (M - 1) ** 2)) + TABLE_FIXED_COST",
           "R * len(str(R * (M - 1) ** 2))",
           ("tests/test_theorems.py::test_plan_pins_its_tables",)),
    Mutant("plan-long-group-coprime-to-the-longest", "src/qcong/theorems.py",
           "if gcd(m, top) > 1]",
           "if gcd(m, top) == 1]",
           ("tests/test_theorems.py::test_plan_covers_every_check_in_a_ring_it_divides",
            "tests/test_theorems.py::test_plan_pins_its_tables",
            "tests/test_theorems.py::test_residue_table_disagreeing_with_the_exact_one_raises")),
    Mutant("prefix-cache-key-drops-the-modulus", "src/qcong/products.py",
           "key = (*args[:at], args[-1])",
           "key = (*args[:at],)",
           ("tests/test_products.py::test_prefix_cache_keys_bind_defaults_and_keywords",
            "tests/test_products.py::test_prefix_cache_serves_what_a_cold_expansion_gives")),
)
