"""Congruence families: hand-enumerated term sets, sum/series agreement,
prime-parameter integrality, scanner behavior."""

import json
import os
import subprocess
import sys
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import qcong
from qcong import (SeriesError, b_table, count_triples, default_claims,
                   fquotient, get_claim, partitions, scan, theorems,
                   verify_simple, verify_weighted)
from qcong.partitions import FAMILIES
from qcong.theorems import is_sampled_prime, theorem_names


def test_b_table_small():
    assert b_table(5) == [1, 2, 1, 2, 5, 6]


def test_b_table_matches_oracle_through_400():
    assert b_table(400) == count_triples(400)


def test_b_table_modular():
    t = b_table(300)
    tm = b_table(300, modulus=63)
    assert tm == [v % 63 for v in t]


def test_b_table_oracle_check(monkeypatch):
    real, asked = partitions.count_triples, []
    monkeypatch.setattr(partitions, "count_triples",
                        lambda N: asked.append(N) or real(N))
    assert b_table(5) == [1, 2, 1, 2, 5, 6]  # checked through 400, cut to 5
    assert b_table(5) == [1, 2, 1, 2, 5, 6]
    assert b_table(10, 9) == [1, 2, 1, 2, 5, 6, 6, 8, 6, 2, 2]
    assert asked == [400, 400, 400]  # every table, exact or residue
    corrupted = count_triples(400)
    corrupted[7] += 1
    monkeypatch.setattr(partitions, "count_triples", lambda N: corrupted)
    for N in (5, 10, 400, 1000):
        with pytest.raises(SeriesError, match="oracle"):
            b_table(N)
    for N, m in ((5, 3), (300, 63), (1000, 630)):
        with pytest.raises(SeriesError, match="oracle"):
            b_table(N, m)


#: bytes: the tracemalloc peak of a cold b_table(101441, 630) was 5.37 MB
#: on Pythons 3.11-3.13 and 5.68 MB on 3.10 (x86-64), so this leaves a
#: margin of about 20 % (14 % on 3.10); with each product reduced after
#: its kernel returned an unreduced list, the peak was 8.11-8.15 MB
B_MOD_630_PEAK_BYTES = 6_500_000


def test_b_table_mod_630_peak_memory():
    """A fresh interpreter (cold caches, as the command line runs) traces
    the allocations of B mod 630 through q^101441: every product over Z/m
    returns residues read from one list of them, so no unreduced list of
    products sits beside the reduced one."""
    src = Path(qcong.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c",
         "import tracemalloc\nfrom qcong.theorems import b_table\n"
         "tracemalloc.start()\nb_table(101441, 630)\n"
         "print(tracemalloc.get_traced_memory()[1])"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < B_MOD_630_PEAK_BYTES


def test_int_quarter_checks_under_python_O():
    src = Path(qcong.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-O", "-c",
         "from qcong.theorems import _int_quarter; print(_int_quarter(7))"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode != 0 and proc.stdout == ""
    assert "ValueError: 7 is not divisible by 4" in proc.stderr


# -- simple congruences ---------------------------------------------------------

def test_simple_odd_and_5n4():
    assert verify_simple(2, 1, 2, 300).passed
    assert verify_simple(5, 4, 5, 300).passed


def test_simple_counterexample_reporting():
    r = verify_simple(27, 16, 9, 50)
    # the family only holds mod 3; mod 9 breaks immediately at B(16) = 102
    assert not r.passed
    assert r.counterexample == (0, 16, 102)
    assert "FAIL" in str(r)


def test_simple_argument_validation():
    with pytest.raises(ValueError):
        verify_simple(0, 0, 2, 10)
    with pytest.raises(ValueError, match="table too small"):
        verify_simple(2, 1, 2, 100, table=b_table(50))


# -- weighted families -------------------------------------------------------------

def test_quadratic_residue_device_mod5():
    """2(2k+1)^2 + (2l+1)^2 = 0 (mod 5) forces both odd squares to vanish,
    because -2 is a quadratic nonresidue mod 5."""
    for k in range(5):
        for l in range(5):
            if (2 * (2 * k + 1) ** 2 + (2 * l + 1) ** 2) % 5 == 0:
                assert (2 * k + 1) % 5 == 0 and (2 * l + 1) % 5 == 0


def test_seven_claim_families():
    claims = default_claims()
    assert len(claims) == 7
    assert theorem_names() == [*theorems.SIMPLE_CHECKS, *(c.name for c in claims)]


def test_altsum_term_set_n0():
    """j=1, n=0: the only admissible term is k=0, so the sum is B(5) = 6."""
    c = get_claim("altsum-9n-mod3")
    assert c.terms(5) == [(0, 0, 1)]
    t = b_table(5)
    assert t[5] == 6 and t[5] % 3 == 0


def test_pentweight_term_set_n0():
    """n=0: surviving terms are k=0 and k=-1, giving B(70) + 2*B(16)."""
    c = get_claim("pentweight-81n70-mod9")
    t = b_table(70)
    # 54k(3k+2) is 54 at k = -1, where the weight (-1)^k (3k+1) is 2
    assert c.terms(70) == [(-1, 54, 2), (0, 0, 1)]
    s = t[70] + 2 * t[16]
    assert s % 9 == 0
    rep = verify_weighted(c, table=t, n_max=0)
    assert rep.passed and rep.checked == 1


def test_hexweight_term_set_j3_n0():
    """j=3, n=0: arguments 23 - 7k(3k+1) are nonnegative for k in {0, -1},
    so the sum is B(23) - 5*B(9)."""
    t = b_table(44)  # covers j = 6 at n = 0 as well
    s = t[23] - 5 * t[9]
    assert s == 280 and s % 7 == 0
    c = get_claim("hexweight-49n-mod7")
    rep = verify_weighted(c, table=t, n_max=0)
    assert rep.passed and rep.checked == 3  # j in {3, 4, 6}


#: each kernel family's offset s*e(k) and weight w(k), from its description
KERNEL_TERMS = {
    "altsum-9n-mod3": (lambda k: 6 * k * (3 * k + 1),
                       lambda k: (-1) ** abs(k)),
    "pentweight-81n70-mod9": (lambda k: 54 * k * (3 * k + 2),
                              lambda k: (-1) ** abs(k) * (3 * k + 1)),
    "hexweight-49n-mod7": (lambda k: 7 * k * (3 * k + 1), lambda k: 6 * k + 1),
}


def test_k_range_enlargement_is_invariant():
    """Adding more k terms never changes a sum: extra arguments are
    negative.  Each kernel's terms are the family's own, k ascending."""
    for name, (offset, weight) in KERNEL_TERMS.items():
        c = get_claim(name)
        N = c.max_argument(40)
        t = b_table(N)
        terms = c.terms(N)
        K = max(abs(k) for k, _, _ in terms)
        assert terms == [(k, offset(k), weight(k)) for k in range(-K, K + 1)
                         if offset(k) <= N]
        wider = range(-3 * K - 5, 3 * K + 6)
        for params in c.param_space:
            for n in range(41):
                head = c.base(params) + c.stride(params) * n
                s_wide = sum(weight(k) * t[head - offset(k)]
                             for k in wider if head - offset(k) >= 0)
                s_base = sum(w * t[head - off]
                             for _, off, w in terms if off <= head)
                assert s_wide == s_base
        assert verify_weighted(c, table=t, n_max=40).passed


@pytest.mark.parametrize("claim", [c for c in default_claims() if c.kernel],
                         ids=lambda c: c.name)
def test_sums_are_coefficients_of_b_times_the_kernel(claim):
    """Each sum is the coefficient of q^head in B times the kernel's product
    form under q -> q^s: table lookups against the series engine."""
    theta, s = claim.kernel
    factors = dict(FAMILIES["B"].gf.factors)
    for a, e in theta.product:
        factors[s * a] = factors.get(s * a, 0) + e
    grid = claim.param_space[:6]
    heads = [claim.base(p) + claim.stride(p) * n
             for p in grid for n in range(4)]
    N = max(heads)
    t = b_table(N)
    ser = fquotient(factors, N)
    terms = claim.terms(N)
    for head in heads:
        assert (sum(w * t[head - off] for _, off, w in terms if off <= head)
                == ser.coeff(head))


def test_sampled_prime_rule():
    # 2^31 - 1 is prime and = 3 (mod 4); trial division stops at its isqrt
    assert all(is_sampled_prime(p) for p in (7, 11, 19, 23, 71, 2**31 - 1))
    assert not any(is_sampled_prime(p) for p in (1, 3, 5, 9, 13, 15, 35))
    families = {c.name: c for c in default_claims((7, 11))}
    grid = tuple((p, r) for p in (7, 11) for r in range(1, p))
    assert families["altsum-prime-mod3"].param_space == grid
    assert families["altsum-prime-mod9"].param_space == grid
    for primes in ((13,), (7, 9), (), (7, 11, 7)):
        with pytest.raises(ValueError, match="sampled primes"):
            default_claims(primes)


def test_prime_arguments_are_integers():
    for c in default_claims():
        for params in c.param_space:
            assert isinstance(c.base(params), int)
            assert isinstance(c.stride(params), int)


def test_altsum_series_route_matches_sum_route():
    """The signed sums are the coefficients of f2^12 f12^3/(f1^6 f4^9):
    both computations must agree exactly through n = 300."""
    N = 300
    ser = fquotient({2: 12, 12: 3, 1: -6, 4: -9}, N)
    t = b_table(3 * N + 2)
    offs = {k: 18 * k * k + 6 * k for k in range(-10, 11)}
    for n in range(N + 1):
        head = 3 * n + 2
        s = sum((-1 if k & 1 else 1) * t[head - off]
                for k, off in offs.items() if head - off >= 0)
        assert s == ser.coeff(n)


def test_verify_weighted_table_too_small():
    c = get_claim("pentweight-81n70-mod9")
    with pytest.raises(ValueError, match="table too small"):
        verify_weighted(c, table=b_table(100))


def test_claim_families_reduced():
    sizes = []
    names = [c.name for c in default_claims()]
    reports = theorems.verify_families(names, n_max=3, out=sizes.append)
    assert len(reports) == 7 and all(r.passed for r in reports)
    assert sizes and sizes[0].startswith("largest B-argument required:")


def test_claim_report_violation_schema():
    c = get_claim("b-27n16-mod3")
    fake = type(c)(c.name, c.description, 9, None, ((),), 3,
                   stride=c.stride, base=c.base)  # mod 9 version must fail
    rep = verify_weighted(fake)
    assert not rep.passed
    v = rep.violations[0]
    assert set(v) == {"claim", "params", "n", "k_terms", "sum", "modulus", "pass"}
    k, arg, value, w = v["k_terms"][0]
    assert (k, arg, value, w) == (0, 16, 102, 1)


def parent_verify_weighted(claim, table, n_max):
    """The sum loop as it was before the offsets were sorted: every term of
    every sum listed, in k order, with its argument, B value and weight."""
    max_base = claim.max_argument(n_max)
    report = theorems.ClaimReport(claim.name, claim.modulus, n_max, 0, max_base,
                                  True, note=claim.description)
    for params in claim.param_space:
        for n in range(n_max + 1):
            head = claim.base(params) + claim.stride(params) * n
            terms = [(k, head - off, table[head - off], w)
                     for k, off, w in claim.terms(max_base) if head - off >= 0]
            total = sum(w * value for _, _, value, w in terms)
            report.checked += 1
            if total % claim.modulus:
                report.passed = False
                report.violations.append({
                    "claim": claim.name, "params": params, "n": n,
                    "k_terms": terms, "sum": total,
                    "modulus": claim.modulus, "pass": False})
    return report


@pytest.mark.parametrize("modulus", [None, 630])
def test_weighted_sums_report_as_the_term_loop_did(modulus):
    """On tables with one entry perturbed, every family's report (each
    failing sum, its terms in k order, the counts) equals the one the
    per-term loop gave, so the FAIL lines and their JSON do too."""
    claims = [(c, min(c.n_max, 30)) for c in default_claims((7, 11))]
    N = max(c.max_argument(n) for c, n in claims)
    exact = b_table(N, modulus)
    failed = 0
    for arg in (16, 70, 2708, N - 1):
        table = list(exact)
        table[arg] += 1
        for c, n in claims:
            got = verify_weighted(c, table=table, n_max=n)
            assert got == parent_verify_weighted(c, table, n)
            assert got.checked == len(c.param_space) * (n + 1)
            assert str(got) == str(parent_verify_weighted(c, table, n))
            failed += len(got.violations)
    assert failed > 10


def test_b_table_builds_no_long_series_through_the_constructor(monkeypatch):
    """The residue table's theta blocks and kernel results are built in the
    ring: the public constructor, with its ``int`` and ``%`` pass, sees
    nothing longer than the oracle prefix of 401 coefficients."""
    sizes = []
    init = qcong.LaurentSeries.__init__

    def spy(self, coeffs, v=0, modulus=None):
        coeffs = list(coeffs)
        sizes.append(len(coeffs))
        init(self, coeffs, v, modulus)

    monkeypatch.setattr(qcong.LaurentSeries, "__init__", spy)
    b_table(20000, 630)
    assert max(sizes, default=0) <= 401


# -- one residue table for every family --------------------------------------------

def _spy_b_table(monkeypatch):
    """Record (modulus, length) of every exact table built through
    theorems.b_table, where the benchmark's oracle gate reads them, and of
    every residue table built through the checked expansion under it."""
    seen = []
    b_table, checked = theorems.b_table, theorems._checked_b

    def spy_exact(N, modulus=None):
        table = b_table(N, modulus)
        if modulus is None:
            seen.append((modulus, len(table)))
        return table

    def spy_residue(N, modulus, exact):
        table = checked(N, modulus, exact)
        if modulus is not None:
            seen.append((modulus, len(table)))
        return table

    monkeypatch.setattr(theorems, "b_table", spy_exact)
    monkeypatch.setattr(theorems, "_checked_b", spy_residue)
    return seen


def test_families_share_one_residue_table_and_an_exact_prefix(monkeypatch):
    seen = _spy_b_table(monkeypatch)
    reports = theorems.verify_families(theorem_names())
    assert len(reports) == 9 and all(r.passed for r in reports)
    # one table mod lcm(2, 5, 3, 9, 7) = 630 ...
    assert [m for m, _ in seen if m is not None] == [630]
    # ... checked against an exact table the benchmark's oracle gate can read
    assert any(m is None and n >= 401 for m, n in seen)


def test_failing_family_reports_exact_values(monkeypatch):
    claims = theorems.default_claims
    monkeypatch.setattr(theorems, "default_claims", lambda primes: tuple(
        type(c)(**{**vars(c), "modulus": 9}) if c.name == "b-27n16-mod3" else c
        for c in claims(primes)))
    monkeypatch.setitem(theorems.SIMPLE_CHECKS, "b-27n16-mod9", (27, 16, 9, 50))
    seen = _spy_b_table(monkeypatch)
    ok, simple, claim = theorems.verify_families(
        ["b-2n1-mod2", "b-27n16-mod9", "b-27n16-mod3"])
    # B mod lcm(2, 9, 9) through 27 * 400 + 16
    assert [t for t in seen if t[0] is not None] == [(18, 10817)]
    assert ok.passed
    assert simple.counterexample == (0, 16, 102)  # 102 = 3 (mod 18)
    v = claim.violations[0]
    assert v["k_terms"] == [(0, 16, 102, 1)] and v["sum"] == 102
    assert str(claim).endswith("n=0: sum = 102")


def test_residue_table_disagreeing_with_the_exact_one_raises(monkeypatch):
    expand = theorems.expand_factors
    monkeypatch.setattr(theorems, "expand_factors", lambda factors, W, modulus=None: (
        expand(factors, W) if modulus is None else
        expand(factors, W, modulus).scale(2)))
    with pytest.raises(SeriesError, match="mod 630 disagrees with the exact"):
        theorems.verify_families(theorem_names())
    # with 71 the plan splits, and the mod-9 table is built first
    with pytest.raises(SeriesError, match="mod 9 disagrees with the exact"):
        theorems.verify_families(theorem_names(), primes=(7, 11, 19, 71))


# -- the planned tables ------------------------------------------------------------

def _one_table(needs):
    """The plan before tables were planned: one table mod the lcm of every
    modulus, through the largest reach."""
    return [(theorems._ring(m for _, m in needs), max(r for r, _ in needs),
             range(len(needs)))]


@pytest.mark.parametrize("n_max", [None, 1, 30])
@pytest.mark.parametrize("primes", [(7, 11, 19, 23), (7, 11, 19, 71),
                                    (11, 23, 43, 71)])
def test_planned_tables_report_as_one_table_does(monkeypatch, primes, n_max):
    got = theorems.verify_families(theorem_names(), n_max, primes)
    monkeypatch.setattr(theorems, "_plan_tables", _one_table)
    want = theorems.verify_families(theorem_names(), n_max, primes)
    assert got == want
    assert [str(r) for r in got] == [str(r) for r in want]
    assert (json.dumps([vars(r) for r in got])
            == json.dumps([vars(r) for r in want]))


needs_lists = st.lists(st.tuples(
    st.integers(0, 10 ** 6),
    st.one_of(st.integers(2, 12), st.integers(2, 2 ** 33))), min_size=1, max_size=12)


@settings(max_examples=300, deadline=None)
@given(needs_lists)
def test_plan_covers_every_check_in_a_ring_it_divides(needs):
    plan = theorems._plan_tables(needs)
    assert 1 <= len(plan) <= 2
    assert sorted(i for _, _, group in plan for i in group) == list(range(len(needs)))
    assert plan[0][1] == max(r for r, _ in needs)  # the longest table is first
    for ring, reach, group in plan:
        M = lcm(*(needs[i][1] for i in group))
        assert ring == (None if M >= 2 ** 31 else M)
        for i in group:
            assert ring is None or ring % needs[i][1] == 0
            assert reach >= needs[i][0]


@pytest.mark.parametrize("primes, n_max, tables", [
    ((7, 11, 19, 23), None, [(630, 12221)]),
    ((7, 11, 19, 23), 1, [(9, 10506), (70, 654)]),
    ((7, 11, 19, 71), None, [(9, 101442), (70, 10005)]),
])
def test_plan_pins_its_tables(monkeypatch, primes, n_max, tables):
    seen = _spy_b_table(monkeypatch)
    reports = theorems.verify_families(theorem_names(), n_max, primes)
    assert all(r.passed for r in reports)
    assert [t for t in seen if t[0] is not None] == tables
    # every residue table's prefix was checked against one exact prefix
    assert [t for t in seen if t[0] is None] == [(None, 401)]


@pytest.mark.parametrize("primes, n_max", [
    ((7, 11, 19, 23), None), ((7, 11, 19, 23), 1), ((7, 11, 19, 71), None)])
def test_verify_families_asks_the_oracle_once(monkeypatch, primes, n_max):
    real, asked = partitions.count_triples, []
    monkeypatch.setattr(partitions, "count_triples",
                        lambda N: asked.append(N) or real(N))
    reports = theorems.verify_families(theorem_names(), n_max, primes)
    assert all(r.passed for r in reports)
    assert asked == [400]


def test_residue_table_disagreeing_past_its_first_terms_raises(monkeypatch):
    """One residue coefficient wrong at q^400, the last the prefix check
    reads, is caught in a standalone table and in every planned one."""
    expand = theorems.expand_factors

    def corrupted(factors, W, modulus=None):
        ser = expand(factors, W, modulus)
        if modulus is None:
            return ser
        return ser.add(qcong.LaurentSeries([0] * 400 + [1] + [0] * (W - 400),
                                           modulus=modulus))

    monkeypatch.setattr(theorems, "expand_factors", corrupted)
    for N, m in ((5, 3), (400, 63), (1000, 630)):
        with pytest.raises(SeriesError, match=f"mod {m} disagrees with the exact"):
            b_table(N, m)
    with pytest.raises(SeriesError, match="mod 630 disagrees with the exact"):
        theorems.verify_families(theorem_names())
    with pytest.raises(SeriesError, match="mod 9 disagrees with the exact"):
        theorems.verify_families(theorem_names(), 1)


def test_failing_family_under_two_tables_reports_exact_values(monkeypatch):
    names, claims = theorem_names(), theorems.default_claims
    monkeypatch.setattr(theorems, "default_claims", lambda primes: tuple(
        type(c)(**{**vars(c), "modulus": 49}) if c.name == "hexweight-49n-mod7"
        else c for c in claims(primes)))
    seen = _spy_b_table(monkeypatch)
    reports = theorems.verify_families(names, primes=(7, 11, 19, 71))
    assert [t for t in seen if t[0] is not None] == [(9, 101442), (490, 10005)]
    [bad] = [r for r in reports if not r.passed]
    assert bad.name == "hexweight-49n-mod7" and bad.modulus == 49
    exact = b_table(bad.max_argument)
    for v in bad.violations:
        assert all(value == exact[arg] for _, arg, value, _ in v["k_terms"])
        assert v["sum"] == sum(w * value for _, _, value, w in v["k_terms"])
        assert v["sum"] % 49
    assert max(value for v in bad.violations
               for _, _, value, _ in v["k_terms"]) >= 490


# -- scanner ------------------------------------------------------------------------

def test_scan_p_function():
    hits = scan({1: -1}, 10, {5, 7}, 500)
    got = {(h.stride, h.residue, h.modulus) for h in hits if h.known}
    assert got == {(5, 4, 5), (7, 5, 7)}


def test_scan_lin_b():
    hits = scan({2: 2, 1: -1, 4: -3}, 10, {3}, 500)
    known = {(h.stride, h.residue, h.modulus) for h in hits if h.known}
    assert known == {(3, 2, 3)}
    assert all(h.evidence == 501 for h in hits)


def test_scan_validation():
    with pytest.raises(ValueError):
        scan({1: -1}, 61, {5}, 100)
    with pytest.raises(ValueError):
        scan({1: -1}, 0, {5}, 100)
    with pytest.raises(ValueError):
        scan({1: -1}, 10, {5}, 10)
    with pytest.raises(ValueError, match="moduli"):
        scan({1: -1}, 10, {0, 5}, 100)
