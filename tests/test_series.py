"""Core Laurent-series arithmetic: windows, ring rules, and the op contracts."""

import random
from bisect import bisect_left
from math import gcd
from operator import mul
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qcong import (CUBE, InsufficientPrecision, LaurentSeries, NotInvertible,
                   RingMismatch, bilateral, euler_f)
from qcong import series as series_module
from qcong.series import (PACKED_CROSSOVER, _convolve, _divide_block, _inverse,
                          _packed, _product, _slot_digits)


def series(coeffs, v=0, mod=None):
    return LaurentSeries(coeffs, v, mod)


# -- add / sub ---------------------------------------------------------------

def test_add_cancellation():
    a = series([1, 1], 0)      # 1 + q
    b = series([1, -1], 0)     # 1 - q
    s = a.add(b)
    assert s.coeffs == (2, 0)
    assert s.v == 0 and s.known_through == 1


def test_add_zero_truncates_to_common_window():
    a = euler_f(1, 200)
    z = LaurentSeries.zero(50)
    s = a.add(z)
    assert s.known_through == 50
    assert s.coeffs == a.coeffs[:51]


def test_add_inverse_element():
    f1 = euler_f(1, 100)
    s = f1.add(f1.neg())
    assert s.is_window_zero()
    assert s.v == 0 and s.known_through == 100


def test_add_disjoint_windows_uses_known_zeros():
    a = series([1, 2], 5)          # q^5 + 2q^6
    b = series([3, 4, 5, 6], 0)    # window [0, 3]
    s = a.add(b)
    assert s.v == 0 and s.known_through == 3
    assert s.coeffs == (3, 4, 5, 6)  # a is exactly zero below q^5


def loop_add(a, b):
    """The exponent-by-exponent loop ``add`` was, kept as the reference."""
    v = min(a.v, b.v)
    T = min(a.known_through, b.known_through)
    out = []
    for e in range(v, T + 1):
        x = a.coeffs[e - a.v] if e >= a.v else 0
        y = b.coeffs[e - b.v] if e >= b.v else 0
        out.append(x + y)
    return LaurentSeries(out, v, a.modulus)


@settings(max_examples=200, deadline=None)
@given(xs=st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=1, max_size=30),
       ys=st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=1, max_size=30),
       va=st.integers(-8, 8), vb=st.integers(-8, 8),
       mod=st.none() | st.integers(2, 50) | st.just(2 ** 31 - 1))
def test_add_and_sub_match_the_loop(xs, ys, va, vb, mod):
    """Different valuations and window lengths, over Z and Z/m: ``add`` is
    the old loop, ``sub`` the old loop with the negated operand."""
    a, b = series(xs, va, mod), series(ys, vb, mod)
    assert a.add(b) == loop_add(a, b)
    assert a.sub(b) == loop_add(a, b.neg())
    assert b.sub(a) == loop_add(b, a.neg())


def test_ring_mismatch_rejected():
    a = series([1, 2])
    b = series([1, 2], mod=7)
    with pytest.raises(RingMismatch, match="incompatible rings"):
        a.add(b)
    with pytest.raises(RingMismatch):
        a.mul(b)
    with pytest.raises(RingMismatch):
        a.eq_through(b, 1)


def test_non_series_operand_rejected():
    a = series([1, 2])
    for op in (a.add, a.sub, a.mul, a.divide):
        with pytest.raises(TypeError, match="cannot combine series with int"):
            op(1)
    with pytest.raises(TypeError):
        a.eq_through(1, 1)


# -- mul -----------------------------------------------------------------------

def test_mul_inverse_roundtrip():
    f1 = euler_f(1, 200)
    prod = f1.mul(f1.invert())
    assert prod.eq_through(LaurentSeries.one(200), 200)


def test_mul_valuation_additivity():
    u = series([1, 4, 7], -3)
    w = series([2, 5], -5)
    prod = u.mul(w)
    assert prod.v == -8
    assert prod.coeff(-8) == 2


def test_mul_matches_brute_convolution():
    """Square of the triangular-number indicator f2^2/f1, coefficients
    checked against a direct double-sum convolution."""
    N = 39
    tri = [0] * (N + 1)
    k = 0
    while k * (k + 1) // 2 <= N:
        tri[k * (k + 1) // 2] = 1
        k += 1
    brute = [sum(tri[i] * tri[n - i] for i in range(n + 1)) for n in range(N + 1)]
    t = series(tri)
    assert list(t.mul(t).coeffs) == brute
    assert brute[:7] == [1, 2, 1, 2, 2, 0, 3]


def test_mul_window_rule():
    a = series([1] * 11, 0)   # known through 10
    b = series([1] * 5, 2)    # 2..6
    prod = a.mul(b)
    assert prod.v == 2
    assert prod.known_through == min(10 + 2, 6 + 0)


@pytest.mark.parametrize("d", [0, -1, 1.0, "2"])
def test_mul_rejects_a_scale_that_is_not_a_positive_integer(d):
    with pytest.raises(ValueError, match="positive integer"):
        series([1, 2, 3]).mul(series([1, 1]), d)


# -- invert / divide -----------------------------------------------------------

def test_invert_geometric():
    s = series([1, -1] + [0] * 18)  # 1 - q through q^19
    assert s.invert().coeffs == (1,) * 20


def test_invert_partition_numbers():
    p = euler_f(1, 12).invert()
    assert p.coeffs == (1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77)


def test_invert_modular_leading_unit():
    s = series([2, 1, 0, 0], mod=9)
    inv = s.invert()
    assert inv.coeffs[0] == 5  # 2 * 5 = 10 = 1 (mod 9)
    assert s.mul(inv).eq_through(LaurentSeries.one(3, 9), 3)


def test_invert_non_unit_rejected():
    with pytest.raises(NotInvertible, match="not invertible"):
        series([2, 1]).invert()
    with pytest.raises(NotInvertible):
        series([3, 1], mod=9).invert()
    with pytest.raises(NotInvertible):
        series([0, 0, 0]).invert()


def test_invert_window_and_valuation():
    h = series([1, 5, 7], 2)  # q^2 (1 + 5q + 7q^2)
    inv = h.invert()
    assert inv.v == -2
    assert inv.known_through == h.known_through - 2 * h.v
    assert h.mul(inv).eq_through(LaurentSeries.one(0), 0)


def test_divide_matches_mul_invert():
    a = euler_f(2, 60)
    b = series([1, 3, -2] + [0] * 57)
    assert a.divide(b).coeffs == a.mul(b.invert()).coeffs


# -- pow -------------------------------------------------------------------------

def test_pow_cube_identity():
    cube = euler_f(1, 12).pow(3)
    want = {0: 1, 1: -3, 3: 5, 6: -7, 10: 9}
    assert dict(cube.terms()) == want


def test_pow_one_and_zero():
    a = series([3, 1, 4], 0)
    assert a.pow(1) is a or a.pow(1).coeffs == a.coeffs
    p0 = a.pow(0)
    assert p0.v == 0 and p0.coeffs == (1, 0, 0)


def test_pow_negative():
    f1 = euler_f(1, 50)
    assert f1.pow(-2).eq_through(f1.invert().mul(f1.invert()), 46)


def test_binomial_congruence_f1_9():
    lhs = euler_f(1, 200, 3).pow(9)
    rhs = euler_f(3, 200, 3).pow(3)
    assert lhs.eq_through(rhs, 200 - 8)


# -- substitute / dissect / shift -------------------------------------------------

def test_substitute_builds_f2():
    assert euler_f(1, 40).substitute(2).coeffs[:81] == euler_f(2, 80).coeffs


def test_substitute_simple():
    s = series([1, 1]).substitute(3)
    assert s.terms() == [(0, 1), (3, 1)]
    assert s.known_through == 5


def test_substitute_through_a_window_is_the_image_truncated():
    s = series([1, 2, 3], 1)            # [1, 3]: its image is known on [2, 7]
    for T in range(2, 8):
        assert s.substitute(2, T) == s.substitute(2).truncate(T)
    assert s.substitute(1, 2) == s.truncate(2)
    assert s.substitute(1, 3) is s
    for k, T in ((2, 1), (2, 8), (1, 4)):
        with pytest.raises(ValueError, match=r"q -> q\^\d is known on"):
            s.substitute(k, T)


def test_substitute_alpha_lattice():
    from qcong import cubic_theta_alpha
    a = cubic_theta_alpha(25)
    a4 = a.substitute(4)
    direct = cubic_theta_alpha(100)
    for e in range(101):
        want = direct.coeff(e) if e % 4 == 0 else None
        if e % 4 == 0:
            assert a4.coeff(e) == direct.coeff(e) == a.coeff(e // 4)
        else:
            assert a4.coeff(e) == 0


def test_dissect_rows():
    s = series([1, 1, 1])  # 1 + q + q^2
    assert s.dissect(3, 0).coeffs == (1,)
    assert s.dissect(3, 1).coeffs == (1,)


def test_dissect_pentagonal_empty_classes_mod7():
    f1 = euler_f(1, 700)
    for j in (3, 4, 6):
        assert f1.dissect(7, j).is_window_zero()
    assert not f1.dissect(7, 0).is_window_zero()


def test_dissect_rejects_laurent_part():
    s = series([1, 2], -1)
    with pytest.raises(ValueError, match="ordinary series"):
        s.dissect(2, 0)


def test_dissect_window_too_short():
    with pytest.raises(InsufficientPrecision):
        series([1, 1, 1]).dissect(7, 3)


def test_shift_roundtrip():
    a = series([1, 2, 3], 4)
    assert a.shift(5).shift(-5) == a
    q3 = LaurentSeries.one(0).shift(-3)
    assert q3.v == -3 and q3.coeffs == (1,)


def test_shift_matches_qshift_spec():
    from qcong import FQuotientSpec, fquotient
    plain = fquotient({4: 4, 14: 2, 2: -2, 28: -4}, 30).shift(-3)
    x28 = fquotient(FQuotientSpec.of({4: 4, 14: 2, 2: -2, 28: -4}, qshift=-3), 27)
    assert plain.eq_through(x28, 27)


# -- coeff / eq_through / reduce_mod / normalize ----------------------------------

def test_coeff_contract():
    a = series([5, 6], 3)
    assert a.coeff(3) == 5
    assert a.coeff(0) == 0  # below the window: exactly zero
    with pytest.raises(InsufficientPrecision, match="insufficient precision"):
        a.coeff(5)


def _coeff_by_coeff(s, lo, T, step):
    try:
        return [s.coeff(e) for e in range(lo, T + 1, step)]
    except InsufficientPrecision as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-9, 9), min_size=1, max_size=12), st.integers(-6, 8),
       st.integers(-10, 20), st.integers(-12, 25), st.integers(1, 6))
def test_coeff_window_reads_what_coeff_reads(xs, v, lo, T, step):
    """One bounds check per window raises for the same exponent, with the
    same message, as one ``coeff`` call per exponent; below the valuation
    the window reads 0."""
    s = series(xs, v)
    try:
        got = s.coeff_window(lo, T, step)
    except InsufficientPrecision as exc:
        got = str(exc)
    assert got == _coeff_by_coeff(s, lo, T, step)


def test_eq_through_requires_coverage():
    a = euler_f(1, 10)
    b = euler_f(1, 200)
    with pytest.raises(InsufficientPrecision, match="insufficient precision"):
        a.eq_through(b, 50)
    assert a.eq_through(b, 10)


def test_eq_through_example():
    f1 = euler_f(1, 400)
    assert f1.mul(f1.invert()).eq_through(LaurentSeries.one(150), 150)


def test_reduce_mod():
    s = series([1, -3, 0, 5])
    r = s.reduce_mod(3)
    assert r.coeffs == (1, 0, 0, 2)
    assert r.modulus == 3
    r2 = series([7, 8], mod=9).reduce_mod(3)
    assert r2.coeffs == (1, 2)
    with pytest.raises(RingMismatch):
        series([1], mod=9).reduce_mod(2)


def test_modulus_validation():
    with pytest.raises(ValueError):
        series([1], mod=1)
    with pytest.raises(ValueError):
        series([1], mod=1 << 31)


def test_normalize_strips_leading_zeros():
    s = series([0, 0, 3, 1], -2)
    n = s.normalize()
    assert n.v == 0 and n.coeffs == (3, 1)
    z = series([0, 0, 0], 5).normalize()
    assert z.coeffs == (0,) and z.known_through == 7


def test_empty_window_rejected():
    with pytest.raises(ValueError):
        LaurentSeries([], 0)


def test_repr_shows_the_first_six_terms():
    """Six nonzero terms or fewer are shown in full; a seventh adds ", ...";
    a window of zeros shows 0."""
    assert repr(series([1, 0, 2, 3, 4, 5, 6], -1, 7)) == (
        "<LaurentSeries [-1,5] mod 7: 1*q^-1, 2*q^1, 3*q^2, 4*q^3, 5*q^4, 6*q^5>")
    assert repr(series([1, 2, 3, 4, 5, 6, 0, 7])) == (
        "<LaurentSeries [0,7]: 1*q^0, 2*q^1, 3*q^2, 4*q^3, 5*q^4, 6*q^5, ...>")
    assert repr(series([0, 9, 0], 2, 9)) == "<LaurentSeries [2,4] mod 9: 0>"


# -- algebraic property tests ------------------------------------------------------

coeff_lists = st.lists(st.integers(-9, 9), min_size=1, max_size=81)


@settings(max_examples=60, deadline=None)
@given(coeff_lists, coeff_lists, coeff_lists)
def test_ring_axioms_exact(xs, ys, zs):
    a, b, c = series(xs), series(ys), series(zs)
    T = min(s.known_through for s in (a, b, c))
    assert a.add(b).eq_through(b.add(a), T)
    assert a.add(b).add(c).eq_through(a.add(b.add(c)), T)
    assert a.mul(b).eq_through(b.mul(a), a.mul(b).known_through)
    lhs = a.mul(b.add(c))
    rhs = a.mul(b).add(a.mul(c))
    assert lhs.eq_through(rhs, lhs.known_through)
    assoc_l = a.mul(b).mul(c)
    assoc_r = a.mul(b.mul(c))
    assert assoc_l.eq_through(assoc_r, assoc_l.known_through)


@settings(max_examples=40, deadline=None)
@given(coeff_lists, coeff_lists, st.integers(2, 97))
def test_ring_axioms_modular(xs, ys, m):
    a, b = series(xs, mod=m), series(ys, mod=m)
    exact = series(xs).mul(series(ys)).reduce_mod(m)
    assert a.mul(b).coeffs == exact.coeffs  # reduction commutes with products


@settings(max_examples=50, deadline=None)
@given(coeff_lists, st.sampled_from([1, -1]), st.integers(-3, 3))
def test_mul_invert_roundtrip(xs, lead, v):
    a = series([lead] + xs, v)
    prod = a.mul(a.invert())
    if v >= 0:
        # ordinary series: the roundtrip window is at least T - 2v
        assert prod.known_through >= a.known_through - 2 * a.v
    T_cmp = prod.known_through
    if T_cmp >= 0:
        assert prod.eq_through(LaurentSeries.one(T_cmp), T_cmp)


@settings(max_examples=40, deadline=None)
@given(coeff_lists, coeff_lists, st.integers(5, 40))
def test_window_soundness(xs, ys, extra):
    """Recomputing with a larger window and truncating changes nothing."""
    a_small, b_small = series(xs), series(ys)
    a_big = series(xs + [3] * extra)
    b_big = series(ys + [7] * extra)
    small = a_small.mul(b_small)
    big = a_big.mul(b_big)
    assert big.truncate(small.known_through).coeffs == small.coeffs
    s_small = a_small.add(b_small)
    s_big = a_big.add(b_big)
    assert s_big.truncate(s_small.known_through).coeffs == s_small.coeffs


@settings(max_examples=50, deadline=None)
@given(coeff_lists, st.integers(2, 7))
def test_dissect_reassemble(xs, m):
    a = series(xs)
    parts = []
    for j in range(m):
        try:
            parts.append(a.dissect(m, j).substitute(m).shift(j))
        except InsufficientPrecision:
            parts.append(None)
    total = None
    T = min(p.known_through for p in parts if p is not None)
    for p in parts:
        if p is not None:
            total = p if total is None else total.add(p)
    assert total.eq_through(a, min(T, a.known_through))


# -- the packed kernel against the sequential one -----------------------------

#: every slot width from one digit (m = 2) to 2^31 - 1, the largest modulus
moduli = st.sampled_from([2, 9, 630, 2 ** 31 - 1]) | st.integers(2, 2 ** 31 - 1)


@st.composite
def blocks(draw, n, m, step=1):
    """n coefficients in [0, m), nonzero at about a drawn fraction of the
    multiples of ``step``: sparse and dense operands."""
    density = draw(st.sampled_from([0.02, 0.1, 0.5, 1.0]))
    rnd = draw(st.randoms(use_true_random=False))
    return [rnd.randrange(m) if i % step == 0 and rnd.random() < density else 0
            for i in range(n)]


def reduced(xs, m):
    """The exact coefficients ``xs`` reduced mod m, as the kernels over Z/m
    return them."""
    return [x % m for x in xs]


@settings(max_examples=40, deadline=None)
@given(st.data(), moduli, st.integers(1, 400))
def test_mul_over_z_m_matches_convolve(data, m, n):
    """Lengths up to 400 put dense products above the crossover and sparse
    ones below it; either way ``mul`` equals the schoolbook kernel mod m."""
    a, b = data.draw(blocks(n, m)), data.draw(blocks(n, m))
    want = reduced(_convolve(a, b, n), m)
    assert _packed([a], b, n, m) == want
    assert list(LaurentSeries(a, 0, m).mul(LaurentSeries(b, 3, m)).coeffs) == want


@settings(max_examples=40, deadline=None)
@given(st.data(), moduli, st.integers(1, 500), st.integers(1, 5), st.integers(-3, 3))
def test_invert_and_divide_over_z_m_match_divide_block(data, m, n, g, v):
    """A divisor in q^g (g = 1 included) with a unit leading coefficient and
    a valuation: ``invert`` and ``divide`` equal the sequential recurrence
    on the normalized divisor."""
    d = data.draw(blocks(n, m, step=g))
    d[0] = next(c for c in (d[0], 1) if c and gcd(c, m) == 1)
    u = data.draw(blocks(n, m))
    den = LaurentSeries(d, v, m)
    assert list(den.invert().coeffs) == _divide_block((1,), d, n, m)
    assert list(LaurentSeries(u, 0, m).divide(den).coeffs) == _divide_block(u, d, n, m)


def test_packed_pads_a_block_shorter_than_n():
    a, b = [3, 0, 5, 1, 2, 4, 0, 6], [6, 5]
    want = reduced(_convolve(a, b, 8), 7)
    assert _packed([a], b, 8, 7) == want
    assert _packed([b], a, 8, 7) == want
    assert _packed([b], [], 8, 7) == [0] * 8


@pytest.mark.parametrize("a,b,n,m", [
    ([5], [6], 1, 7),                                  # n = 1
    ([1] * 9, [1] * 9, 9, 2),                          # slots of 9: one digit
    ([1] * 10, [1] * 10, 10, 2),                       # slots of 10: two digits
    ([2, 0, 1, 0], [1, 2, 2, 0], 4, 3),                # highest slots 0
    ([0, 2, 1, 2], [0, 0, 1, 1], 4, 3),                # lowest slots 0
    ([0, 8, 0, 7, 0], [4, 0, 3, 0, 0], 5, 9),          # both, m > n
    ([], [1, 2, 2], 3, 3),                             # empty block
    ([], [4, 5, 6], 3, 7),                             # empty block, m > n
    ([2 ** 31 - 2] * 6, [2 ** 31 - 2, 0, 1], 6, 2 ** 31 - 1),
], ids=["n1", "width1", "width2", "top0-table", "low0-table", "zeros-format",
        "empty-table", "empty-format", "max-modulus"])
def test_packed_matches_convolve_at_the_edges(a, b, n, m):
    """Both packing routes (a table of slots when m <= n, %-formatting
    when m > n) at the edges of the slot layout; the slot has the digits of
    the largest exact coefficient (a slot one digit short drops a carry of
    10^w, which is 0 mod 2, so the result mod m alone would not show it)."""
    exact = _convolve(a, b, n)
    assert len(str(max(exact))) <= _slot_digits([a], [n], b[:n])
    want = reduced(exact, m)
    assert _packed([a], b, n, m) == want
    assert _packed([b], a, n, m) == want


@pytest.mark.parametrize("n,m", [(15030, 210), (101441, 630)])
def test_packed_matches_convolve_at_the_benchmark_sizes(n, m):
    """The scan's divisors mod 210 and B mod 630: random dense blocks,
    checked against ``_convolve`` on the low coefficients and by direct
    sums at random and top positions, and a dense times a sparse block in
    full."""
    rnd = random.Random(n)
    a, b = ([rnd.randrange(m) for _ in range(n)] for _ in range(2))
    got = _packed([a], b, n, m)
    assert got[:400] == reduced(_convolve(a, b, 400), m)
    for k in rnd.sample(range(n), 20) + [n - 2, n - 1]:
        assert got[k] == sum(map(mul, a[:k + 1], reversed(b[:k + 1]))) % m
    sparse = [0] * n
    for k in rnd.sample(range(n), 12) + [0, n - 1]:
        sparse[k] = rnd.randrange(1, m)
    assert _packed([a], sparse, n, m) == reduced(_convolve(a, sparse, n), m)


# -- the packed slot holds what the product can hold ---------------------------

@st.composite
def full_slots(draw, table_route):
    """(a, b, n, m) with every nonzero entry m - 1: a on t drawn positions
    and b on at least t, t at one side or the other of a digit-length step
    of t (m-1)^2.  A dense b puts t (m-1)^2 itself in slot n - 1.  The
    table route has m <= n, the %-format route m > n."""
    n = draw(st.integers(2, 600))
    m = draw(st.integers(2, n) if table_route else st.integers(n + 1, 10 ** 6))
    sq = (m - 1) ** 2
    digits = [len(str(t * sq)) for t in range(n + 2)]
    edges = [t for t in range(1, n + 1)
             if digits[t] != digits[t + 1] or (t > 1 and digits[t] != digits[t - 1])]
    assume(edges)
    t = draw(st.sampled_from(edges))
    rnd = draw(st.randoms(use_true_random=False))
    a, b = [0] * n, [0] * n
    for i in rnd.sample(range(n), t):
        a[i] = m - 1
    for j in rnd.sample(range(n), draw(st.sampled_from([n, rnd.randint(t, n)]))):
        b[j] = m - 1
    return a, b, n, m


@settings(max_examples=80, deadline=None)
@given(st.data(), st.booleans())
def test_packed_slot_holds_the_fullest_slot(data, table_route):
    a, b, n, m = data.draw(full_slots(table_route))
    exact = _convolve(a, b, n)
    assert len(str(max(exact))) <= _slot_digits([a], [n], b)
    want = reduced(exact, m)
    assert _packed([a], b, n, m) == want
    assert _packed([b], a, n, m) == want
    assert _packed([a], a, n, m) == reduced(_convolve(a, list(a), n), m)


def scaled(classes, b, n):
    """a(q) b(q^d) through q^(n-1) from ``_convolve`` on each class a_j of a."""
    d = len(classes)
    out = [0] * n
    for j, a in enumerate(classes):
        out[j::d] = _convolve(a, b, len(range(j, n, d)))
    return out


def fill(rnd, k, total, top):
    """k entries in [0, top] that sum to ``total`` <= k top, spread at random."""
    out = []
    for left in range(k - 1, -1, -1):
        c = rnd.randint(max(0, total - left * top), min(top, total))
        out.append(c)
        total -= c
    rnd.shuffle(out)
    return out


@st.composite
def l1_slots(draw, table_route, several):
    """(classes, b, n, m, S) with b all m - 1 and the class of slot n - 1
    summing to S, at one side or the other of a digit-length step of
    S (m-1), and every other class to at most S: slot n - 1 is S (m-1),
    the L1 bound min(sum(a_j) max(b), sum(b) max(a_j)) itself.  S >= 10,
    so a slot one digit narrower still holds every residue.  The table
    route has m <= n, the %-format route m > n."""
    n = draw(st.integers(2, 600))
    d = draw(st.integers(2, min(n, 5))) if several else 1
    m = draw(st.integers(2, n) if table_route else st.integers(n + 1, 10 ** 6))
    sizes = [len(range(j, n, d)) for j in range(d)]
    top = (n - 1) % d
    hi = sizes[top] * (m - 1)
    # the least S whose S (m-1) has e + 1 digits, and the S before it
    firsts = [-(-10 ** e // (m - 1)) for e in range(1, len(str(hi * (m - 1))) + 1)]
    edges = sorted({s for f in firsts for s in (f - 1, f) if 10 <= s <= hi})
    assume(edges)
    S = draw(st.sampled_from(edges))
    rnd = draw(st.randoms(use_true_random=False))
    classes = [fill(rnd, k, S if j == top else rnd.randint(0, min(S, k * (m - 1))), m - 1)
               for j, k in enumerate(sizes)]
    return classes, [m - 1] * sizes[0], n, m, S


@settings(max_examples=80, deadline=None)
@given(st.data(), st.booleans(), st.booleans())
def test_packed_slot_is_the_l1_bound(data, table_route, several):
    """Slot n - 1 reaches the L1 bound exactly, on both packing routes, with
    one class and several; a slot one digit narrower than the bound's
    width (patched here only) leaves slot n - 1 wrong.  The narrow slot is
    read at a modulus above the bound, where ``_packed`` reduces nothing
    (a dropped carry of 10^w can be 0 mod m)."""
    classes, b, n, m, S = data.draw(l1_slots(table_route, several))
    sizes = [len(range(j, n, len(classes))) for j in range(len(classes))]
    want = scaled(classes, b, n)
    assert want[n - 1] == S * (m - 1)
    assert _slot_digits(classes, sizes, b) == len(str(S * (m - 1)))
    assert _packed(classes, b, n, m) == reduced(want, m)
    above = max(want[n - 1], n) + 1
    assert _packed(classes, b, n, above) == want
    with patch.object(series_module, "_slot_digits",
                      lambda *args: _slot_digits(*args) - 1):
        assert _packed(classes, b, n, above)[n - 1] != want[n - 1]


def test_scaled_mul_is_the_product_by_the_substituted_series():
    """a.mul(b, d) equals a.mul(b.substitute(d)): coefficients, valuation,
    window and ring, and both equal ``_convolve`` on the substituted
    operand; a square a.mul(a) equals ``_convolve`` too.  Sparse and dense
    operands of lengths 1 to 300 at valuations -6 to 6, over Z and Z/m,
    and two fixed scaled products over Z/m, which a count of ``_packed``
    calls shows take the packed route (dense, above the crossover) and
    the sequential one (sparse, below it) on every seed."""
    calls = []
    packed = series_module._packed

    def counted(*args):
        calls.append(args)
        return packed(*args)

    def check(xs, ys, va, vb, d, m):
        """The equalities above; whether a.mul(b, d) took ``_packed``."""
        a, b = LaurentSeries(xs, va, m), LaurentSeries(ys, vb, m)
        before = len(calls)
        got = a.mul(b, d)
        took_packed = len(calls) > before
        sub = b.substitute(d)
        want = a.mul(sub)
        assert got == want
        assert (got.v, got.known_through, got.modulus) == (want.v, want.known_through, m)
        n = min(len(xs), len(sub.coeffs))
        assert got == LaurentSeries(_convolve(xs, list(sub.coeffs), n), va + d * vb, m)
        assert a.mul(a) == LaurentSeries(_convolve(a.coeffs, list(a.coeffs), len(xs)),
                                         2 * va, m)
        return took_packed

    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.integers(1, 7), st.sampled_from([None, 2, 9, 210, 630, 2 ** 31 - 1]))
    def drawn(data, d, m):
        la, lb = data.draw(st.integers(1, 300)), data.draw(st.integers(1, 300))
        xs, ys = (data.draw(blocks(k, 101 if m is None else m)) for k in (la, lb))
        if m is None:
            xs, ys = ([c - 50 for c in cs] for cs in (xs, ys))
        check(xs, ys, data.draw(st.integers(-6, 6)), data.draw(st.integers(-6, 6)), d, m)

    dense = [(7 * i + 1) % 630 for i in range(300)]
    sparse = [1] + [0] * 298 + [5]
    with patch.object(series_module, "_packed", counted):
        assert check(dense, dense[::-1], -3, 2, 3, 630)
        assert not check(sparse, [2, 0, 0, 7], 0, 1, 2, 9)
        drawn()


@pytest.mark.parametrize("n,m", [(50, 7), (50, 630), (3, 2 ** 31 - 1)])
def test_packed_with_an_all_zero_operand(n, m):
    """t = 0 gives a slot of one digit, on both packing routes."""
    rnd = random.Random(m)
    a = [rnd.randrange(m) for _ in range(n)]
    for z in ([0] * n, [0] * (n // 2), []):
        assert _packed([a], z, n, m) == [0] * n
        assert _packed([z], a, n, m) == [0] * n
        assert _packed([z], z, n, m) == [0] * n


@pytest.mark.parametrize("n,m", [(1000, 630), (630, 630), (300, 9), (300, 2 ** 31 - 1)])
def test_kernels_return_residues_and_packed_shares_them(n, m):
    """Both kernels return residues in [0, m), equal to ``_convolve`` mod m:
    the packed one for dense blocks, the sequential one for a block of two
    nonzeros.  A packed product with n >= m holds at most m distinct int
    objects: mod 630 each coefficient is read from one list of the m
    residues (most of them are above the small ints the interpreter
    shares), and mod 9 each is one of the interpreter's own."""
    rnd = random.Random(n + m)
    a, b = ([rnd.randrange(m) for _ in range(n)] for _ in range(2))
    sparse = [0] * n
    sparse[0] = sparse[n // 3] = m - 1
    packed = _packed([a], b, n, m)
    assert packed == reduced(_convolve(a, b, n), m)
    assert all(0 <= x < m for x in packed)
    if n >= m:
        assert len({id(x) for x in packed}) <= m
    sequential = _product(a, sparse, n, m)
    assert sequential == reduced(_convolve(a, sparse, n), m)
    assert all(0 <= x < m for x in sequential)


def test_packed_sparse_times_dense_at_newtons_first_product():
    """f_1^3 (225 nonzeros) times a dense block at length 25361 mod 630,
    the first Newton product of B's divisor: slots of 8 digits, where
    n (m-1)^2 takes 11.  Checked by direct sums at 22 positions."""
    n, m = 25361, 630
    rnd = random.Random(n)
    sparse = list(bilateral(CUBE, n - 1, m).coeffs)
    dense = [rnd.randrange(m) for _ in range(n)]
    assert len(str((n - sparse.count(0)) * (m - 1) ** 2)) == 8
    got = _packed([sparse], dense, n, m)
    assert got == _packed([dense], sparse, n, m)
    for k in rnd.sample(range(n), 20) + [n - 2, n - 1]:
        assert got[k] == sum(map(mul, sparse[:k + 1], reversed(dense[:k + 1]))) % m


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from([None, 2, 9, 630, 2 ** 31 - 1]), st.integers(1, 300))
def test_convolve_square_matches_the_general_product(data, m, n):
    """``bc is ac`` sums each pair once and doubles it: the same coefficients
    as the product of two equal blocks, over Z (signed) and Z/m."""
    a = (data.draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n))
         if m is None else data.draw(blocks(n, m)))
    want = _convolve(a, list(a), n)
    assert _convolve(a, a, n) == want
    assert _convolve(tuple(a), tuple(a)[:n // 2], n) == _convolve(a, a[:n // 2], n)
    assert LaurentSeries(a, 0, m).pow(2).coeffs == LaurentSeries(want, 0, m).coeffs


def check_route(a, b, n, m, d):
    """``_product(a, b, n, m, d)`` equals ``_convolve`` class by class (mod
    m over Z/m) and, over Z/m, goes packed exactly when twice the bound
    nnz(a_j[:h]) nnz(b[:h]), h = ceil(k_j / 2), summed over the classes
    (computed here without ``_nonzeros``), is above PACKED_CROSSOVER per
    coefficient; over Z never.  Returns whether it went packed."""
    d = min(d, n)
    classes = [a[j:n:d] for j in range(d)]
    taken = []
    packed = series_module._packed
    with patch.object(series_module, "_packed",
                      lambda *args: taken.append(True) or packed(*args)):
        got = _product(a, b, n, m, d)
    want = scaled(classes, b, n)
    assert got == (want if m is None else reduced(want, m))
    bound = 0
    for j, c in enumerate(classes):
        h = (len(range(j, n, d)) + 1) // 2
        bound += sum(1 for x in c[:h] if x) * sum(1 for x in b[:h] if x)
    assert bool(taken) == (m is not None and 2 * bound > PACKED_CROSSOVER * n)
    return bool(taken)


@settings(max_examples=80, deadline=None)
@given(st.data(), st.sampled_from([None, 2, 9, 630, 2 ** 31 - 1]), st.integers(1, 400),
       st.booleans())
def test_product_routes_as_before(data, m, n, square):
    """At scale 1 every product, squares included, equals ``_convolve`` and
    takes the kernel the nonzero bound chooses; over Z never the packed one."""
    a = data.draw(blocks(n, 630 if m is None else m))
    b = a if square else data.draw(blocks(data.draw(st.integers(0, n)), 630 if m is None else m))
    check_route(a, b, n, m, 1)


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(1, 7), st.sampled_from([2, 9, 630, 2 ** 31 - 1]))
def test_nonzero_bound_routes_only_products_above_the_crossover(data, d, m):
    """Over Z/m every product, with blocks of lengths 0 to 300 (b often
    shorter than h), dense or sparse, at scales 1 to 7, goes packed exactly
    when twice its nonzero bound is above the crossover."""
    n = data.draw(st.integers(1, 300))
    a = data.draw(blocks(data.draw(st.integers(0, 300)), m))
    b = data.draw(blocks(data.draw(st.integers(0, 300)), m))
    check_route(a, b, n, m, d)


@pytest.mark.parametrize("d", [1, 4])
def test_nonzero_bound_sends_dense_products_packed_without_supports(d):
    """Dense blocks cross on the bound alone, with no exact count of pairs.
    A dense a by a dense b of 10 entries, shorter than h, stays sequential,
    although h^2 per class (what counting h minus the zeros, not the
    entries present, would give) sums above the crossover."""
    rnd = random.Random(d)
    dense = [rnd.randrange(1, 630) for _ in range(300)]
    assert check_route(dense, dense[::-1], 300, 630, d)
    assert not check_route(dense, dense[:10], 300, 630, d)


@pytest.mark.parametrize("a,b,n,m,lo", [
    ([3, 0, 0, 0, 0, 0], [2, 0, 0, 0, 0, 0], 6, 7, 2),   # read part 0, low part not
    ([3, 0, 0, 0, 0, 0], [2, 0, 0, 0, 0, 0], 6, 5, 2),   # the same, table route
    ([1, 1, 0, 0, 0, 0, 0, 0], [1, 0, 1, 0, 0, 0, 0, 0], 8, 2, 1),  # leading zeros
    ([0] * 8, [1] * 8, 8, 3, 3),                          # all-zero product
    ([0] * 8, [1] * 8, 8, 11, 3),                         # the same, m > n
    ([4, 5, 6], [6, 5, 4], 3, 7, 2),                      # the top slot alone
])
def test_packed_from_lo_at_the_edges(a, b, n, m, lo):
    want = reduced(_convolve(a, b, n), m)[lo:]
    assert _packed([a], b, n, m, lo) == want == _packed([a], b, n, m)[lo:]
    assert _packed([a], a, n, m, lo) == reduced(_convolve(a, list(a), n), m)[lo:]


@settings(max_examples=80, deadline=None)
@given(st.data(), st.booleans(), st.integers(1, 4))
def test_packed_from_lo_is_the_tail_of_the_product(data, table_route, d):
    """``_packed(..., lo)`` is the product from coefficient ``lo`` on, with
    one class and several, on both packing routes (a table of slots when
    m <= n, %-formatting when m > n)."""
    n = data.draw(st.integers(max(2, d), 300))
    m = data.draw(st.integers(2, n) if table_route else st.integers(n + 1, 10 ** 6))
    lo = data.draw(st.integers(0, n - 1))
    classes = [data.draw(blocks(len(range(j, n, d)), m)) for j in range(d)]
    b = data.draw(blocks(data.draw(st.integers(0, n)), m))
    want = reduced(scaled(classes, b, n), m)[lo:]
    assert _packed(classes, b, n, m, lo) == want == _packed(classes, b, n, m)[lo:]


@st.composite
def divisors(draw, m):
    """A divisor over Z/m with leading coefficient 1 and a length n: the
    theta-sparse f_1 and f_1^3 up to length 3000, dense and sparse random
    blocks up to 400, each on both sides of the Newton crossover."""
    kind = draw(st.sampled_from(["f1", "f1^3", "dense", "sparse"]))
    if kind in ("f1", "f1^3"):
        n = draw(st.integers(1, 3000))
        f = euler_f(1, n - 1, m) if kind == "f1" else bilateral(CUBE, n - 1, m)
        return list(f.coeffs), n
    n = draw(st.integers(1, 400))
    d = draw(blocks(n, m))
    d[0] = 1
    return d, n


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from([2, 9, 210, 630, 2 ** 31 - 1]))
def test_newton_inverse_matches_divide_block(data, m):
    """Over Z/m an inverse above the crossover is taken by Newton doubling
    on the packed product; it must equal the sequential recurrence."""
    d, n = data.draw(divisors(m))
    assert _inverse(d, n, m) == _divide_block((1,), d, n, m)
    assert list(LaurentSeries(d, 0, m).invert().coeffs) == _divide_block((1,), d, n, m)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2, 9, 210, 630, 2 ** 31 - 1]).flatmap(
    lambda m: divisors(m).map(lambda dn: (*dn, m))))
@example((list(euler_f(1, 100, 9).coeffs), 101, 9))
def test_newton_inverse_routes_by_the_nonzero_bound(case):
    """``_inverse`` halves the length by Newton doubling exactly while twice
    the bound (nnz(dc[1:h])) (n - h), h = ceil(n/2), is above
    PACKED_CROSSOVER per coefficient, and divides sequentially at the first
    length where it is not: f_1 through q^100 (10 nonzeros below h = 51, a
    bound of 1000 against 1212) is one sequential division."""
    dc, n, m = case
    want = n
    while 2 * sum(1 for x in dc[1:(want + 1) // 2] if x) * (want // 2) \
            > PACKED_CROSSOVER * want:
        want = (want + 1) // 2
    lengths = []
    block = series_module._divide_block
    with patch.object(series_module, "_divide_block",
                      lambda uc, dc, n, m: lengths.append(n) or block(uc, dc, n, m)):
        got = _inverse(dc, n, m)
    assert lengths == [want]
    assert got == _divide_block((1,), dc, n, m)


@pytest.mark.parametrize("n", [5, 300])
def test_newton_inverse_rejects_a_non_unit_leading_coefficient(n):
    d = [3] + [1] * (n - 1)
    h = (n + 1) // 2
    assert (2 * (h - 1) * (n - h) > PACKED_CROSSOVER * n) == (n == 300)
    with pytest.raises(NotInvertible):
        LaurentSeries(d, 0, 9).invert()
    with pytest.raises(NotInvertible):
        LaurentSeries([1] * n, 0, 9).divide(LaurentSeries(d, 0, 9))


def test_packed_kernel_only_over_z_m_above_the_crossover(monkeypatch):
    taken = []
    packed = series_module._packed
    monkeypatch.setattr(series_module, "_packed",
                        lambda *args: taken.append(args[2]) or packed(*args))
    dense = list(range(1, 401))
    LaurentSeries(dense).mul(LaurentSeries(dense))       # over Z: never packed
    # 9.8 sequential multiply-adds per coefficient
    LaurentSeries(dense, 0, 9).mul(euler_f(5, 399, 9))
    assert taken == []
    LaurentSeries(dense, 0, 9).mul(LaurentSeries(dense, 0, 9))
    assert taken == [400]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("k", [1, 2])
def test_binomial_law_spot(p, k):
    """f_m^(p^k) = f_(mp)^(p^(k-1)) (mod p^k), spot-checked at m = 1.

    The full (p, k, m) grid runs in the acceptance suite.
    """
    T = 120
    mod = p ** k
    lhs = euler_f(1, T, mod).pow(mod)
    rhs = euler_f(p, T, mod).pow(p ** (k - 1))
    assert lhs.eq_through(rhs, T)


# -- the sequential quotient against its definition ------------------------------

def loop_divide_block(uc, dc, n, m):
    """The loop ``_divide_block`` was before its active lists, kept as the
    reference: every c_k finds the terms in reach by bisection and
    multiplies each of them, +-1 weights included."""
    inv0 = series_module._unit_inverse(dc[0], m)
    didx = []
    dval = []
    for j in range(1, min(len(dc), n)):
        if dc[j]:
            didx.append(j)
            dval.append(dc[j])
    c = []
    lu = len(uc)
    for k in range(n):
        s = uc[k] if k < lu else 0
        stop = bisect_left(didx, k + 1)
        for t in range(stop):
            s -= dval[t] * c[k - didx[t]]
        if m is not None:
            s = s * inv0 % m
        elif inv0 != 1:
            s = -s
        c.append(s)
    return c


@st.composite
def quotients(draw):
    """(uc, dc, n, m) over Z or Z/m, m in {2, 3, 9, 630, 2^31 - 1}: a unit
    leading coefficient (-1 over Z too), a dividend and a divisor shorter
    or longer than n (a short divisor is zero past its end), often a
    divisor term at j = n - 1, and weights 0, +-1 (residue m - 1), small
    and big; over Z/m the divisor is reduced, as the kernel's callers hand
    it, and the dividend need not be."""
    m = draw(st.sampled_from([None, 2, 3, 9, 630, 2 ** 31 - 1]))
    n = draw(st.integers(1, 120))
    if m is None:
        units, small, big = [1, -1], st.integers(-60, 60), st.integers(-10 ** 40, 10 ** 40)
    else:
        units, small, big = [1, m - 1], st.integers(0, min(m - 1, 60)), st.integers(0, m - 1)
    weight = st.sampled_from([0, 0, 0, *units]) | small | big
    k = draw(st.integers(1, n + 3) | st.integers(n, n + 3))
    dc = draw(st.lists(weight, min_size=k, max_size=k))
    dc[0] = draw(st.sampled_from(units) if m is None else
                 st.sampled_from(units) | big.filter(lambda u: gcd(u, m) == 1))
    if len(dc) >= n > 1 and draw(st.booleans()):
        dc[n - 1] = draw(weight.filter(bool))
    k = draw(st.integers(0, n + 3) | st.integers(n, n + 3))
    uc = draw(st.lists(st.integers(-10 ** 40, 10 ** 40) | st.sampled_from([0, 1, -1]),
                       min_size=k, max_size=k))
    return uc, dc, n, m


#: cases every run covers: pentagonal and cubic weights over Z with a
#: leading -1, a divisor that ends before n or has its last term at
#: j = n - 1, a dividend longer than n, residues 1 and m - 1 (one and the
#: same mod 2), and big residues
QUOTIENT_EDGES = [
    ([1], [-1, 1, 1, 0, 0, -1, 0, -1], 8, None),
    ([1] * 12, [-1, 3, 0, -5, 0, 0, 7], 10, None),
    ([5, -10 ** 30, 7], [1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1], 13, None),
    ([1, 2, 3], [1, 1, 2, 1, 0, 2, 1], 7, 3),
    ([1], [1, 1, 1, 0, 0, 1], 6, 2),
    ([4, 0, 629, 628], [629, 1, 629, 2, 0, 628], 6, 630),
    ([2 ** 31 - 2] * 9, [2 ** 31 - 2, 2 ** 31 - 2, 1, 10 ** 9], 9, 2 ** 31 - 1),
]


def with_quotient_edges(test):
    for case in QUOTIENT_EDGES:
        test = example(case)(test)
    return test


@settings(max_examples=300, deadline=None)
@given(quotients())
@with_quotient_edges
def test_divide_block_times_the_divisor_is_the_dividend(case):
    """The quotient, multiplied back by ``_convolve`` and reduced mod m, is
    the dividend zero-padded or cut to n: a check that does not run the
    recurrence."""
    uc, dc, n, m = case
    u = (uc + [0] * n)[:n]
    back = _convolve(_divide_block(uc, dc, n, m), dc, n)
    if m is not None:
        back, u = reduced(back, m), reduced(u, m)
    assert back == u


@settings(max_examples=300, deadline=None)
@given(quotients())
@with_quotient_edges
def test_divide_block_matches_the_loop_it_replaced(case):
    """The active lists give exactly the old loop's coefficients, on both
    rings: over Z/m the same residues, though a term of residue m - 1 is
    added and not multiplied."""
    assert _divide_block(*case) == loop_divide_block(*case)


# -- results built without the constructor's reduction pass ---------------------

def in_ring(s, want):
    """``s`` holds a tuple of ints in the ring ([0, m) over Z/m) and equals
    ``want``, the public constructor's series from the op's definition."""
    m = s.modulus
    assert type(s.coeffs) is tuple
    assert all(type(c) is int and (m is None or 0 <= c < m) for c in s.coeffs)
    assert s == want


@settings(max_examples=80, deadline=None)
@given(st.data(), st.sampled_from([None, 2, 9, 630, 2 ** 31 - 1]),
       st.sampled_from([0, 10 ** 9]))
def test_kernel_results_are_in_the_ring(data, m, crossover):
    """mul, invert, divide and the reindexing ops skip the constructor's
    ``int`` and ``%`` pass.  A crossover of 0 sends every product over Z/m
    to the packed kernel and every inverse over Z/m to Newton doubling; one
    of 10^9 keeps both sequential."""
    ring = st.integers(-50, 50) if m is None else st.integers(0, m - 1)
    xs = data.draw(st.lists(ring, min_size=1, max_size=120))
    ys = data.draw(st.lists(ring, min_size=1, max_size=120))
    ys[0] = data.draw(st.sampled_from([1, -1] if m is None else [1, m - 1]))
    lead, v, w = (data.draw(st.integers(lo, hi)) for lo, hi in ((0, 3), (-4, 4), (-4, 4)))
    a = LaurentSeries(xs, v, m)
    b = LaurentSeries([0] * lead + ys, w - lead, m)   # leading zeros: normalize
    n = min(len(xs), len(ys))
    with patch.object(series_module, "PACKED_CROSSOVER", crossover):
        in_ring(a.mul(b), LaurentSeries(
            _convolve(a.coeffs, b.coeffs, min(len(xs), len(b.coeffs))), v + w - lead, m))
        in_ring(b.invert(), LaurentSeries(_divide_block((1,), ys, len(ys), m), -w, m))
        in_ring(a.divide(b), LaurentSeries(_divide_block(xs, ys, n, m), v - w, m))
    e, k = data.draw(st.integers(-5, 5)), data.draw(st.integers(1, 4))
    T = data.draw(st.integers(v, v + len(xs) - 1))
    spread = [xs[i // k] if i % k == 0 else 0 for i in range(k * len(xs))]
    in_ring(a.shift(e), LaurentSeries(xs, v + e, m))
    in_ring(a.truncate(T), LaurentSeries(xs[:T - v + 1], v, m))
    in_ring(b.normalize(), LaurentSeries(ys, w, m))
    in_ring(a.substitute(k), LaurentSeries(spread, k * v, m))
    c = LaurentSeries(xs, 0, m)
    j = data.draw(st.integers(0, min(k, len(xs)) - 1))
    in_ring(c.dissect(k, j), LaurentSeries(xs[j::k], 0, m))
    W = k * (len(xs) - 1) + data.draw(st.integers(0, k - 1))
    padded = LaurentSeries(spread[:W + 1] + [0] * (W + 1 - len(spread)), 0, m)
    in_ring(c.substitute(k, W), padded)
    in_ring(c.substitute(k).truncate(W), padded)
