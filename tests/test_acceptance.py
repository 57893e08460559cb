"""Acceptance criteria, one test per criterion.

Every comparison is an exact integer equality (tolerance zero).  Each test
prints a single PASS/FAIL line; run with ``pytest tests/test_acceptance.py
-v -s`` to see them.  Time budgets are asserted alongside correctness.
"""

import time

from qcong import (b_table, count_triples, default_claims, euler_f, fquotient,
                   get, perturbed, run_claims, scan, verify, verify_simple)
from qcong.partitions import FAMILIES

GF_B, GF_B_LIN, GF_P = (FAMILIES[name].gf for name in ("B", "b", "p"))


def _criterion(num, desc, passed, elapsed=None, budget=None):
    stamp = ""
    if elapsed is not None:
        stamp = f" [{elapsed:.1f}s"
        stamp += f" < {budget}s]" if budget is not None else "]"
    line = f"ACCEPTANCE {num} {'PASS' if passed else 'FAIL'}: {desc}{stamp}"
    print(line)
    assert passed, line


def test_criterion_1_oracle_equivalence():
    t0 = time.perf_counter()
    oracle = count_triples(400)
    series = fquotient(GF_B, 400)
    same = oracle == [series.coeff(n) for n in range(401)]
    dt = time.perf_counter() - t0
    _criterion(1, "combinatorial B table equals the f2^4/(f1^2 f4^3) expansion "
                  "through q^400", same and dt < 5, dt, 5)


def test_criterion_2_mod2_and_mod5():
    t0 = time.perf_counter()
    table = b_table(5 * 2000 + 4)
    r2 = verify_simple(2, 1, 2, 2000, table=table)
    r5 = verify_simple(5, 4, 5, 2000, table=table)
    dt = time.perf_counter() - t0
    _criterion(2, "B(2n+1) = 0 (mod 2) and B(5n+4) = 0 (mod 5) for n <= 2000",
               r2.passed and r5.passed and dt < 30, dt, 30)


def test_criterion_3_mod3_27n16():
    t0 = time.perf_counter()
    r = verify_simple(27, 16, 3, 400)
    dt = time.perf_counter() - t0
    _criterion(3, "B(27n+16) = 0 (mod 3) for n <= 400 (B-arguments to 10816)",
               r.passed and dt < 60, dt, 60)


def test_criterion_4_exact_identities():
    for num, name in (("4a", "gf_b_3n2"), ("4b", "eta_triple_balance"),
                      ("4c", "gamma0_28_decomposition")):
        t0 = time.perf_counter()
        r = verify(get(name))
        dt = time.perf_counter() - t0
        bound = ("through q^300" if name != "gamma0_28_decomposition"
                 else "through 150 coefficients above valuation -20")
        _criterion(num, f"exact identity {name} {bound}",
                   r.passed and dt < 60, dt, 60)


def test_criterion_5_modular_identities():
    names = ["altsum_series_mod3", "gf_b_3n1_mod9", "gf_b_9n7_mod9",
             "gf_b_27n16_mod9", "gf_b_7n2_mod7"]
    t0 = time.perf_counter()
    reports = [verify(get(n)) for n in names]
    dt = time.perf_counter() - t0
    ok = all(r.passed for r in reports) and \
        all(r.order == 1000 for r in reports)
    _criterion(5, "congruence identities mod 3/9/9/9/7 through q^1000 "
                  "in the modular ring", ok and dt < 60, dt, 60)


def test_criterion_6_all_claim_families():
    t0 = time.perf_counter()
    printed = []
    reports = run_claims(out=printed.append)
    dt = time.perf_counter() - t0
    claims = default_claims()
    prime_grid = [c for c in claims if c.name.startswith("altsum-prime")]
    full_r_range = all(
        {(p, r) for p in (7, 11, 19, 23) for r in range(1, p)} <=
        set(c.param_space) for c in prime_grid)
    ok = (len(reports) == 7 and all(r.passed for r in reports)
          and full_r_range and printed
          and printed[0].startswith("largest B-argument required:"))
    _criterion(6, "all seven congruence-claim families pass at default ranges "
                  "(primes 7, 11, 19, 23, every r)", ok and dt < 600, dt, 600)


def test_criterion_7_mutation_sensitivity():
    targets = ["gf_b_3n2", "eta_triple_balance", "gf_b_2n1",
               "altsum_series_mod3", "gf_b_7n2_mod7"]
    ok = True
    for name in targets:
        entry = get(name)
        order = 80 if entry.modulus is None else 120
        r = verify(perturbed(entry), order)
        ok = ok and (not r.passed) and r.mismatch_exponent is not None
    _criterion(7, "five designated entries FAIL under a single-coefficient "
                  "perturbation, with the first mismatch exponent reported", ok)


def test_criterion_8_binomial_congruences():
    T = 300
    ok = True
    for p in (2, 3, 5, 7):
        for k in (1, 2):
            mod = p ** k
            for m in (1, 2, 3, 4):
                lhs = euler_f(m, T, mod).pow(mod)
                rhs = euler_f(m * p, T, mod).pow(p ** (k - 1))
                ok = ok and lhs.eq_through(rhs, T)
    _criterion(8, "f_m^(p^k) = f_(mp)^(p^(k-1)) (mod p^k) for p in {2,3,5,7}, "
                  "k in {1,2}, m in {1,2,3,4} through q^300", ok)


def test_criterion_9_scanner_rediscovery():
    runs = [
        (GF_B, 30, {2, 3, 5, 7}, {(2, 1, 2), (5, 4, 5), (27, 16, 3)}),
        (GF_B_LIN, 10, {3}, {(3, 2, 3)}),
        (GF_P, 10, {5, 7}, {(5, 4, 5), (7, 5, 7)}),
    ]
    ok = True
    for gf, amax, moduli, stated in runs:
        hits = scan(gf, amax, moduli, 500)
        marked = {(h.stride, h.residue, h.modulus) for h in hits if h.known}
        found = {(h.stride, h.residue, h.modulus) for h in hits}
        ok = ok and marked == stated and stated <= found
    _criterion(9, "scanner rediscovers and marks exactly the stated congruences "
                  "for the B, b and p generating functions", ok)


def test_criterion_10_throughput_floor():
    t0 = time.perf_counter()
    table = b_table(20000, modulus=63)
    dt = time.perf_counter() - t0
    ok = len(table) == 20001 and all(0 <= c < 63 for c in table) and dt < 10
    _criterion(10, "b_table(20000) over Z/63", ok, dt, 10)
