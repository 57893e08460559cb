"""Congruence families: hand-enumerated term sets, sum/series agreement,
prime-parameter integrality, scanner behavior."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import qcong
from qcong import (SeriesError, b_table, claim_names, count_triples,
                   default_claims, fquotient, get_claim, partitions,
                   run_claims, scan, theorems, verify_simple, verify_weighted)


def test_b_table_small():
    assert b_table(5) == [1, 2, 1, 2, 5, 6]


def test_b_table_matches_oracle_through_400():
    assert b_table(400) == count_triples(400)


def test_b_table_modular():
    t = b_table(300)
    tm = b_table(300, modulus=63)
    assert tm == [v % 63 for v in t]


def test_b_table_oracle_check(monkeypatch):
    monkeypatch.setattr(theorems, "_b_oracle_checked", False)
    assert b_table(5) == [1, 2, 1, 2, 5, 6]  # checked through 400, cut to 5
    assert theorems._b_oracle_checked
    corrupted = count_triples(400)
    corrupted[7] += 1
    monkeypatch.setattr(partitions, "count_triples", lambda N: corrupted)
    monkeypatch.setattr(theorems, "_b_oracle_checked", False)
    with pytest.raises(SeriesError, match="oracle"):
        b_table(10)
    assert not theorems._b_oracle_checked  # a failed check is run again
    with pytest.raises(SeriesError, match="oracle"):
        b_table(10)


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
    assert claim_names() == [c.name for c in claims]


def test_altsum_term_set_n0():
    """j=1, n=0: the only admissible term is k=0, so the sum is B(5) = 6."""
    c = get_claim("altsum-9n-mod3")
    offs = c.term_offsets(5)
    assert [k for k, off in offs.items() if 5 - off >= 0] == [0]
    t = b_table(5)
    assert t[5] == 6 and t[5] % 3 == 0


def test_pentweight_term_set_n0():
    """n=0: surviving terms are k=0 and k=-1, giving B(70) + 2*B(16)."""
    c = get_claim("pentweight-81n70-mod9")
    t = b_table(70)
    offs = c.term_offsets(70)
    live = sorted(k for k, off in offs.items() if 70 - off >= 0)
    assert live == [-1, 0]
    assert offs[-1] == 54  # 54k(3k+2) at k = -1
    s = t[70] + 2 * t[16]  # weight at k=-1 is (-1)(-2) = 2
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


def test_k_range_enlargement_is_invariant():
    """Adding more k terms never changes a sum: extra arguments are negative."""
    c = get_claim("altsum-9n-mod3")
    t = b_table(c.max_argument())
    base = verify_weighted(c, table=t, n_max=40)
    offs = c.term_offsets(c.max_argument())
    K = max(offs)
    wider = {k: 18 * k * k + 6 * k for k in range(-3 * abs(K) - 5, 3 * abs(K) + 6)}
    for n in range(41):
        for j in (1, 2):
            head = 9 * n + 3 * j + 2
            s_wide = sum((-1 if k & 1 else 1) * t[head - off]
                         for k, off in wider.items() if head - off >= 0)
            s_base = sum((-1 if k & 1 else 1) * t[head - off]
                         for k, off in offs.items() if head - off >= 0)
            assert s_wide == s_base
    assert base.passed


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


def test_run_claims_reduced():
    sizes = []
    reports = run_claims(n_max=3, out=sizes.append)
    assert len(reports) == 7 and all(r.passed for r in reports)
    assert sizes and sizes[0].startswith("largest B-argument required:")


def test_claim_report_violation_schema():
    c = get_claim("b-27n16-mod3")
    fake = type(c)(c.name, c.description, 9, "1", None, ((),), 3,
                   stride=c.stride, base=c.base)  # mod 9 version must fail
    rep = verify_weighted(fake)
    assert not rep.passed
    v = rep.violations[0]
    assert set(v) == {"claim", "params", "n", "k_terms", "sum", "modulus", "pass"}
    k, arg, value, w = v["k_terms"][0]
    assert (k, arg, value, w) == (0, 16, 102, 1)


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
        scan({1: -1}, 10, {5}, 10)
