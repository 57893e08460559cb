"""Named-series builders: Euler products, quotients, theta sums, alpha, h."""

import re
from contextlib import contextmanager
from functools import lru_cache
from math import gcd
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

from qcong import (BILATERAL_SUMS, CUBE, PENTAGONAL, SIGNED_PENTAGONAL,
                   SLOPE_3K1, SLOPE_6K1, TRIANGULAR, BilateralSum,
                   FQuotientSpec, LaurentSeries, Named, Parts, Pow, bilateral,
                   count_table, cubic_theta_alpha, euler_f, euler_f_product,
                   evaluate, fquotient, h_level12)
from qcong import products as products_module
from qcong import series as series_module
from qcong import theorems
from qcong.cli import main
from qcong.expr import expr_from_dict, fq
from qcong.partitions import FAMILIES, Family
from qcong.products import (CACHE_KEYS, WEIGHT_RULES, _divisor_inverse,
                            _expand_factors, _prefix_cache, expand_factors,
                            plan_factors)
from qcong.series import MAX_EXPONENT, MAX_WINDOW, PACKED_CROSSOVER


@lru_cache(maxsize=None)
def _product_f(m, T, modulus=None):
    return euler_f_product(m, T, modulus)


def one_factor_at_a_time(factors, T, modulus=None):
    """prod f_d^(r_d) through q^T from the literal product builder, one
    factor f_d per pass: the route the theta planner replaces."""
    r = LaurentSeries.one(T, modulus)
    for d, e in factors:
        f = _product_f(d, T, modulus)
        for _ in range(abs(e)):
            r = r.mul(f) if e > 0 else r.divide(f)
    return r


def test_euler_f_first_terms():
    f1 = euler_f(1, 12)
    assert dict(f1.terms()) == {0: 1, 1: -1, 2: -1, 5: 1, 7: 1, 12: -1}


def test_euler_f4_low_order():
    assert euler_f(4, 3).coeffs == (1, 0, 0, 0)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_pentagonal_vs_product_builder(m):
    assert euler_f(m, 2000).coeffs == euler_f_product(m, 2000).coeffs


def test_fquotient_triple_gf():
    from qcong import count_triples
    s = fquotient({2: 4, 1: -2, 4: -3}, 5)
    assert list(s.coeffs) == count_triples(5) == [1, 2, 1, 2, 5, 6]


def test_fquotient_single_factor_is_euler():
    assert fquotient({1: 1}, 80).coeffs == euler_f(1, 80).coeffs


def test_fquotient_p5n4_values():
    """5 f5^5/f1^6 must list p(5n+4): checked against the partition DP."""
    p = count_table([Parts()], 24)
    s = fquotient({5: 5, 1: -6}, 4).scale(5)
    assert list(s.coeffs) == [p[4], p[9], p[14], p[19], p[24]] == [5, 30, 135, 490, 1575]


def test_fquotient_qshift_validation():
    with pytest.raises(ValueError):
        fquotient(FQuotientSpec.of({1: 1}, qshift=5), 3)
    spec = FQuotientSpec.of({2: 1, 28: -4}, qshift=-3)
    s = fquotient(spec, 0)
    assert s.v == -3 and s.coeff(-3) == 1


def test_fquotient_spec_normalization():
    spec = FQuotientSpec.of({3: 2, 1: 0, 2: -1})
    assert spec.factors == ((2, -1), (3, 2))
    with pytest.raises(ValueError):
        FQuotientSpec.of([(1, 2), (1, 3)])
    with pytest.raises(ValueError):
        FQuotientSpec.of({0: 1})


#: each builds an f-quotient that is not a checked spec: a float, bool or
#: str exponent or shift, or a factor tuple that is unsorted, repeats an
#: index or holds a zero exponent
BAD_SPECS = {
    "float-exponent": lambda make: make({1: 1.5}),
    "bool-exponent": lambda make: make({2: True}),
    "false-exponent": lambda make: make({2: False}),
    "str-exponent": lambda make: make({1: "1"}),
    "float-zero-exponent": lambda make: make({1: 0.0}),
    "float-shift": lambda make: make({1: 1}, 2.0),
    "bool-shift": lambda make: make({1: 1}, True),
    "str-shift": lambda make: make({1: 1}, "3"),
    "bool-index": lambda make: make({True: 1}),
    "str-index": lambda make: make({"x": 1, 2: 1}),
    "repeated-index": lambda make: make([(1, 2), (1, 3)]),
}
#: factor tuples that ``of`` would sort or clean, given to the record itself
BAD_TUPLES = {
    "unsorted": ((2, 1), (1, 1)),
    "repeated": ((1, 1), (1, 1)),
    "zero-exponent": ((1, 0),),
    "zero-exponent-between": ((1, 1), (2, 0), (3, 1)),
    "not-a-pair": ((1, 1, 1),),
    "list-pair": ([1, 1],),
    "list-of-pairs": [(1, 1)],
}
SPEC_MAKERS = {
    "fq": fq,
    "of": FQuotientSpec.of,
    "record": lambda f, s=0: FQuotientSpec(
        tuple(f.items() if isinstance(f, dict) else f), s),
    "fquotient": lambda f, s=0: fquotient(FQuotientSpec.of(f, s) if s else f, 10),
}


@pytest.mark.parametrize("make", SPEC_MAKERS.values(), ids=SPEC_MAKERS)
@pytest.mark.parametrize("bad", BAD_SPECS.values(), ids=BAD_SPECS)
def test_every_spec_constructor_rejects_what_is_not_an_f_quotient(bad, make):
    with pytest.raises(ValueError):
        bad(make)


@pytest.mark.parametrize("factors", BAD_TUPLES.values(), ids=BAD_TUPLES)
def test_spec_record_checks_its_factor_tuple(factors):
    with pytest.raises(ValueError):
        FQuotientSpec(factors)
    with pytest.raises(ValueError):
        FQuotientSpec(factors, 0)


def test_of_sorts_and_drops_zero_integer_exponents():
    assert FQuotientSpec.of([(4, -3), (1, -2), (3, 0), (2, 4)], -1) == \
        FQuotientSpec(((1, -2), (2, 4), (4, -3)), -1)
    spec = FQuotientSpec.of({2: 1})
    assert FQuotientSpec.of(spec) is spec
    assert FQuotientSpec.of(spec, 0) is spec
    assert FQuotientSpec.of({}) == FQuotientSpec(())


@pytest.mark.parametrize("r", [MAX_EXPONENT + 1, -MAX_EXPONENT - 1,
                               10 ** 11, -10 ** 11])
def test_every_spec_constructor_refuses_an_exponent_over_the_cap(r, capsys):
    """Each unit of an exponent is a pass of the expansion, so f_1^(10^11)
    would run for hours: the record, ``fq``, the JSON form and the command
    line (exit 2) all refuse it before expanding anything."""
    cap = rf"exponent {r} of f2 is above the cap \|r_d\| <= {MAX_EXPONENT}"
    for make in (lambda: FQuotientSpec(((1, 3), (2, r))),
                 lambda: fq({1: 3, 2: r}),
                 lambda: expr_from_dict({"op": "fquot",
                                         "factors": {"1": 3, "2": r}})):
        with pytest.raises(ValueError, match=cap):
            make()
    text = f"f1^3*f2^{r}" if r > 0 else f"f1^3/f2^{-r}"
    assert main(["expand", "--spec", text, "--order", "5", "--mod", "7"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and re.fullmatch(f"error: {cap}\n", err)
    # the cap itself is admitted: f_1^7 = f_7 mod 7, and 10^4 = 4 mod 7
    assert fquotient({1: MAX_EXPONENT}, 5, 7) == fquotient({1: 4}, 5, 7)


@pytest.mark.parametrize("qshift", [5, -1, "3", 0.0, True])
def test_of_a_spec_refuses_a_second_shift(qshift):
    """A spec carries its own shift: ``fq(spec, 5)`` is not silently f1."""
    with pytest.raises(ValueError, match="carries its own q-power shift"):
        FQuotientSpec.of(FQuotientSpec(((1, 1),), 0), qshift)
    with pytest.raises(ValueError):
        fq(FQuotientSpec(((1, 1),), 2), qshift)


def test_families_hold_their_specs():
    """Each family's generating function is the spec of the dict it was
    written as."""
    written = {"B": {2: 4, 1: -2, 4: -3}, "b": {2: 2, 1: -1, 4: -3},
               "p": {1: -1}, "a": {1: -1, 2: -1}, "abar": {4: 1, 1: -2, 2: -1}}
    assert list(FAMILIES) == list(written)
    for name, gf in written.items():
        assert type(FAMILIES[name].gf) is FQuotientSpec
        assert FAMILIES[name].gf == FQuotientSpec.of(gf)
    assert Family({1: -1}, None).gf == FQuotientSpec(((1, -1),))
    with pytest.raises(ValueError):
        Family({1: 0.5}, None)


def test_triangular_first_terms():
    t = bilateral(TRIANGULAR, 10)
    assert dict(t.terms()) == {0: 1, 1: 1, 3: 1, 6: 1, 10: 1}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(BILATERAL_SUMS)), st.integers(0, 300))
def test_terms_are_every_term_through_t_in_k_order(name, T):
    """``terms(T)`` is the brute-force list over |k| <= T + |B| + 2 (k >= 0
    for a one-sided sum): every term with exponent <= T, k ascending."""
    spec = BILATERAL_SUMS[name]
    A, B, w = spec.A, spec.B, WEIGHT_RULES[spec.weight]
    K = T + abs(B) + 2
    brute = [(k, (A * k * k + B * k) // 2, w(k))
             for k in range(-K if spec.two_sided else 0, K + 1)
             if (A * k * k + B * k) // 2 <= T]
    assert spec.terms(T) == brute


def test_terms_refuse_an_exponent_rule_that_goes_negative():
    falling = BilateralSum("falling", 1, 3, "1", ((1, 1),))  # k = -1 gives -1
    with pytest.raises(ValueError, match="falling went negative at k=-2"):
        falling.terms(10)
    with pytest.raises(ValueError, match="went negative"):
        bilateral(falling, 10)


@pytest.mark.parametrize("spec,quot", [
    (PENTAGONAL, {1: 1}),
    (CUBE, {1: 3}),
    (TRIANGULAR, {2: 2, 1: -1}),
    (SLOPE_3K1, {2: 5, 1: -2}),
    (SLOPE_6K1, {1: 5, 2: -2}),
    (SIGNED_PENTAGONAL, {2: 3, 1: -1, 4: -1}),
])
def test_bilateral_matches_quotient(spec, quot):
    assert bilateral(spec, 300).eq_through(fquotient(quot, 300), 300)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("name", sorted(BILATERAL_SUMS))
def test_theta_block_equals_its_product_form(name, d):
    spec = BILATERAL_SUMS[name]
    block = bilateral(spec, 2000 // d).substitute(d).truncate(2000)
    scaled = tuple((d * a, e) for a, e in spec.product)
    assert block.coeffs == one_factor_at_a_time(scaled, 2000).coeffs
    assert bilateral(spec, 2000 // d).substitute(d, 2000) == block


def test_b_plan_is_two_gauss_blocks_over_one_jacobi_cube():
    num, den = plan_factors(FQuotientSpec.of({2: 4, 1: -2, 4: -3}).factors)
    assert num == [(TRIANGULAR, 1, 2)]
    assert den == [(CUBE, 4, 1)]


def test_plan_leaves_euler_factors():
    """What no other block takes of r_d is the last block, PENTAGONAL (f_1)
    under q -> q^d, planned with the blocks of its scale."""
    num, den = plan_factors(((1, -1), (2, 3), (4, -1), (7, 2)))
    assert num == [(TRIANGULAR, 1, 1), (PENTAGONAL, 2, 1), (PENTAGONAL, 7, 2)]
    assert den == [(PENTAGONAL, 4, 1)]
    assert plan_factors(((4, -7), (8, 1))) == (
        [(PENTAGONAL, 8, 1)], [(CUBE, 4, 2), (PENTAGONAL, 4, 1)])
    assert plan_factors(((1, 2), (2, -5))) == (
        [], [(TRIANGULAR, 1, 2), (PENTAGONAL, 2, 1)])
    assert plan_factors(((1, -1), (2, -1), (3, 2))) == (
        [(PENTAGONAL, 3, 2)], [(PENTAGONAL, 1, 1), (PENTAGONAL, 2, 1)])


@settings(max_examples=40, deadline=None)
@given(factors=st.dictionaries(st.integers(1, 12), st.integers(-6, 6),
                               min_size=0, max_size=4),
       W=st.integers(0, 300),
       modulus=st.none() | st.integers(2, 100))
def test_fquotient_matches_one_factor_at_a_time(factors, W, modulus):
    spec = FQuotientSpec.of(factors)
    assert fquotient(spec, W, modulus) == one_factor_at_a_time(spec.factors, W, modulus)


@settings(max_examples=30, deadline=None)
@given(factors=st.dictionaries(st.integers(1, 12), st.integers(-6, 6),
                               min_size=1, max_size=4),
       T=st.integers(0, 2000),
       modulus=st.sampled_from([2, 9, 630, 2 ** 31 - 1]) | st.integers(2, 2 ** 31 - 1))
def test_fquotient_mod_m_is_the_exact_series_reduced(factors, T, modulus):
    """Over Z/m the expansion may take the packed kernel and the Newton
    inverse; over Z it never does.  Both must give the same residues."""
    spec = FQuotientSpec.of(factors)
    assert fquotient(spec, T, modulus) == fquotient(spec, T).reduce_mod(modulus)


@pytest.mark.parametrize("modulus", [2, 210, 630, 2 ** 31 - 1])
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_family_series_mod_m_is_the_exact_series_reduced(name, modulus):
    gf = FAMILIES[name].gf
    assert fquotient(gf, 3000, modulus) == fquotient(gf, 3000).reduce_mod(modulus)


@contextmanager
def cold_divisor_cache():
    """Run the block on a cold cache of denominator inverses, which it
    yields; the package's own cache is put back after it."""
    kept = products_module._divisor_inverse
    products_module._divisor_inverse = _prefix_cache(kept.__wrapped__)
    try:
        yield products_module._divisor_inverse
    finally:
        products_module._divisor_inverse = kept


#: the top-level inverse lengths of each family's expansion through q^400
#: over Z/m on a cold cache: B's and b's f_4^3 is the block f_1^3 inverted
#: through q^100, and p, a and abar take 1/f_1 through q^400 (a's and
#: abar's 1/f_2 is its truncation under q -> q^2)
COLD_INVERSES = {"B": [101], "b": [101], "p": [401], "a": [401],
                 "abar": [401], "1/(f2*f4^3)": [201, 101]}


def test_planner_inverts_scale_d_divisors_at_scale_one(monkeypatch):
    """B = (f_2^2/f_1)^2 / f_4^3 through q^400: over Z/9 the planner inverts
    f_4^3 as f_1^3 through q^100 and divides by no series of length 401;
    over Z it divides once by f_4^3 itself.  Over Z/m, on a cold cache,
    each family takes one inverse of its theta divisor at scale 1 and one
    of f_1 for all its Euler factors (``COLD_INVERSES``), and no
    sequential division costs more than the crossover (the rest is Newton
    doubling); once p has run, a and abar take no inverse.  Over Z each
    denominator pass of the plan is one sequential division through
    q^400."""
    divisors = []
    block = series_module._divide_block
    monkeypatch.setattr(series_module, "_divide_block",
                        lambda uc, dc, n, m: divisors.append((dc, n))
                        or block(uc, dc, n, m))
    inverses, depth = [], []
    inverse = series_module._inverse

    def top_level_inverse(dc, n, m):
        if not depth:
            inverses.append(n)
        depth.append(n)
        try:
            return inverse(dc, n, m)
        finally:
            depth.pop()

    monkeypatch.setattr(series_module, "_inverse", top_level_inverse)
    factors = FQuotientSpec.of(FAMILIES["B"].gf).factors
    with cold_divisor_cache():
        mod9 = expand_factors(factors, 400, 9)
    assert [len(dc) for dc, _ in divisors] == [101]
    assert inverses == [101]
    divisors.clear()
    assert expand_factors(factors, 400).reduce_mod(9) == mod9
    assert [len(dc) for dc, _ in divisors] == [401]
    specs = {name: family.gf.factors for name, family in FAMILIES.items()}
    specs["1/(f2*f4^3)"] = ((2, -1), (4, -3))
    for name, want in COLD_INVERSES.items():
        factors = specs[name]
        for m in (9, 210):
            divisors.clear()
            inverses.clear()
            with cold_divisor_cache():
                expand_factors(factors, 400, m)
            assert inverses == want
            assert all(2 * (sum(1 for x in dc[:(n + 1) // 2] if x) - 1) * (n - (n + 1) // 2)
                       <= PACKED_CROSSOVER * n for dc, n in divisors)
        divisors.clear()
        expand_factors(factors, 400)
        passes = sum(n for _, _, n in plan_factors(factors)[1])
        assert [(len(dc), n) for dc, n in divisors] == [(401, 401)] * passes
    inverses.clear()
    with cold_divisor_cache():
        for name in ("p", "a", "abar"):
            expand_factors(specs[name], 400, 210)
    assert inverses == [401]


#: how a drawn denominator part changes the exponents {d: r_d}: Jacobi's
#: f_d^3 and Gauss's f_2d^2/f_d are theta blocks, f_d an Euler factor
DENOMINATOR_PARTS = {"cube": lambda d: {d: -3}, "gauss": lambda d: {d: 1, 2 * d: -2},
                     "euler": lambda d: {d: -1}}


@st.composite
def mixed_denominator_specs(draw):
    """Sorted (d, r_d) pairs with a theta block, an Euler factor and up to
    two more parts in the denominator, at scales up to 6, over a numerator
    of up to two f_d (about 70 % of them plan to divide by a theta block
    and by Euler factors; the rest fold into one kind), so one block's
    inverse is read at several scales, windows and powers."""
    r = draw(st.dictionaries(st.integers(1, 12), st.integers(1, 3), max_size=2))
    # one theta block, one Euler factor, and up to two of any kind
    choices = ([("cube", "gauss"), ("euler",)]
               + [tuple(DENOMINATOR_PARTS)] * draw(st.integers(0, 2)))
    for kinds in choices:
        part = DENOMINATOR_PARTS[draw(st.sampled_from(kinds))]
        for d, e in part(draw(st.integers(1, 6))).items():
            r[d] = r.get(d, 0) + e
    return FQuotientSpec.of(r).factors


@settings(max_examples=40, deadline=None)
@given(specs=st.lists(mixed_denominator_specs(), min_size=1, max_size=3),
       modulus=st.sampled_from([2, 9, 210, 630, 2 ** 31 - 1]),
       windows=st.lists(st.integers(0, 600), min_size=2, max_size=5),
       order=st.sampled_from(["increasing", "decreasing", "random"]))
def test_shared_divisor_inverses_give_the_cold_and_the_exact_series(
        specs, modulus, windows, order):
    """Quotients that share denominator inverses, through windows in
    increasing, decreasing or random order on one warm cache: each result
    equals the expansion on a cold cache and the exact series reduced mod
    m (the route the shared inverses replace)."""
    if order != "random":
        windows.sort(reverse=order == "decreasing")
    with cold_divisor_cache():
        for W in windows:
            for factors in specs:
                got = expand_factors(factors, W, modulus)
                with cold_divisor_cache():
                    assert expand_factors(factors, W, modulus) == got
                assert got == expand_factors(factors, W).reduce_mod(modulus)


def test_a_theta_block_inverse_serves_every_power_of_it(monkeypatch):
    """f_2^12 f_12^3 / (f_1^6 f_4^9) divides by the block f_1^3 under
    q -> q^4 three times.  Once B mod 9 through q^400 has inverted f_1^3
    through q^100, it takes no inverse of its own: the cache is keyed by
    the block, not by its power or the blocks it is divided with."""
    calls = []
    inverse = series_module._inverse
    monkeypatch.setattr(series_module, "_inverse",
                        lambda dc, n, m: calls.append(n) or inverse(dc, n, m))
    factors = FQuotientSpec.of({1: -6, 2: 12, 4: -9, 12: 3}).factors
    with cold_divisor_cache() as cache:
        expand_factors(FAMILIES["B"].gf.factors, 400, 9)
        assert calls[:1] == [101]
        calls.clear()
        got = expand_factors(factors, 400, 9)
        assert calls == []
        assert cache.cache_info()[:2] == (1, 1)
    assert got == expand_factors(factors, 400).reduce_mod(9)


@pytest.mark.parametrize("modulus", [9, 210, 2 ** 31 - 1])
@pytest.mark.parametrize("factors", [
    {1: -1, 2: -1},                     # a: 1/f_1 at q and at q^2
    {4: 1, 1: -2, 2: -1},               # abar: 1/f_1 twice at q, once at q^2
    {2: -2, 6: -1, 4: 1},               # 1/f_1 twice at q^2, once at q^6
    {4: 4, 14: 2, 2: -2, 28: -4},       # a Gauss block twice at q^14
])
def test_mixed_scale_quotient_mod_m_is_the_exact_series_reduced(factors, modulus):
    """Over Z/m the planner divides by each denominator block at its own
    scale d, as one product by the block's inverse at scale 1, raised to
    the plan's power there and substituted q -> q^d."""
    assert (fquotient(factors, 3000, modulus)
            == fquotient(factors, 3000).reduce_mod(modulus))


@contextmanager
def product_lengths():
    """Yield the list of the length n of every ``series._product`` call in
    the block, in call order."""
    lengths = []
    product = series_module._product
    with patch.object(series_module, "_product", lambda ac, bc, n, m, d=1, lo=0:
                      lengths.append(n) or product(ac, bc, n, m, d, lo)):
        yield lengths


#: the kernel and length n of every call a cold ``b_table(101441, 630)``
#: makes, in call order, as the nonzero bound routes them: ψ² (sparse,
#: sequential), 1/f_1^3 through q^25360 by Newton doubling from a
#: sequential inverse at length 100 (each step's product by f_1^3 at
#: length n by shifted adds, under SHIFT_CROSSOVER at every step, and by
#: the error at n - ceil(n/2), packed), the product of four classes, and
#: the exact ``b_table(400)`` of the prefix check
B_MOD_630_KERNELS = [
    ("_convolve", 101442), ("_divide_block", 100), ("_shifted", 199),
    ("_packed", 99), ("_shifted", 397), ("_packed", 198), ("_shifted", 793),
    ("_packed", 396), ("_shifted", 1586), ("_packed", 793), ("_shifted", 3171),
    ("_packed", 1585), ("_shifted", 6341), ("_packed", 3170),
    ("_shifted", 12681), ("_packed", 6340), ("_shifted", 25361),
    ("_packed", 12680), ("_packed", 101442), ("_convolve", 401),
    ("_divide_block", 401)]


def test_b_table_mod_630_takes_the_same_kernels():
    calls = []

    def counted(name, at=2):
        kernel = getattr(series_module, name)
        return lambda *args: calls.append((name, args[at])) or kernel(*args)

    with cold_divisor_cache(), \
            patch.object(series_module, "_packed", counted("_packed")), \
            patch.object(series_module, "_shifted", counted("_shifted", 3)), \
            patch.object(series_module, "_convolve", counted("_convolve")), \
            patch.object(series_module, "_divide_block", counted("_divide_block")):
        theorems.b_table(101441, 630)
    assert calls == B_MOD_630_KERNELS


#: the multiply route of each ``_packed`` call of B_MOD_630_KERNELS, by its
#: length n: binary while the longest class's operand is at most
#: BINARY_CROSSOVER bits (3 or 4 bytes a slot, Newton's products by the
#: error through length 1585), decimal from the one at 3170 on
B_MOD_630_ROUTES = [
    ("_binary", 99), ("_binary", 198), ("_binary", 396), ("_binary", 793),
    ("_binary", 1585), ("_decimal", 3170), ("_decimal", 6340),
    ("_decimal", 12680), ("_decimal", 101442)]


def test_b_table_mod_630_packed_calls_take_the_same_routes():
    lengths, routes = [], []
    packed = series_module._packed

    def counted(name):
        route = getattr(series_module, name)
        return lambda *args: routes.append(name) or route(*args)

    with cold_divisor_cache(), \
            patch.object(series_module, "_packed",
                         lambda *args: lengths.append(args[2]) or packed(*args)), \
            patch.object(series_module, "_binary", counted("_binary")), \
            patch.object(series_module, "_decimal", counted("_decimal")):
        theorems.b_table(101441, 630)
    assert lengths == [n for kernel, n in B_MOD_630_KERNELS if kernel == "_packed"]
    assert list(zip(routes, lengths)) == B_MOD_630_ROUTES


def test_planner_multiplies_a_quotient_in_q4_at_scale_4(monkeypatch):
    """f_4^3 f_12 / f_8^2 is a series in q^4: over Z/9 through q^4000 its
    scale groups 4 and 12 are multiplied and merged at length 1001, and
    the result is the one substitution q -> q^4 through q^4000."""
    substitutions = []
    substitute = LaurentSeries.substitute

    def counted(s, k, T=None):
        if k > 1:
            substitutions.append((k, T))
        return substitute(s, k, T)

    monkeypatch.setattr(LaurentSeries, "substitute", counted)
    factors = FQuotientSpec.of({4: 3, 8: -2, 12: 1}).factors
    W = 4000
    with cold_divisor_cache(), product_lengths() as lengths:
        got = expand_factors(factors, W, 9)
    assert max(lengths) == W // 4 + 1
    assert substitutions == [(4, W)]
    monkeypatch.undo()
    assert got == expand_factors(factors, W).reduce_mod(9)


def test_hexweight_series_takes_one_product_through_the_window():
    """f_1 f_14^3 / (f_7 f_28) mod 7 through q^7006 merges the group at
    q^28 into q^14 (length 501), that into q^7 (1001), and only then
    multiplies by f_1 through the whole window: one product of length
    7007, where multiplying every entry in at scale 1 takes three."""
    factors = FQuotientSpec.of({1: 1, 7: -1, 14: 3, 28: -1}).factors
    with product_lengths() as lengths:
        got = expand_factors(factors, 7006, 7)
    assert lengths.count(7007) == 1
    assert max(lengths) == 7007
    assert got == expand_factors(factors, 7006).reduce_mod(7)


PLAN_SCALES = [1, 2, 3, 4, 6, 7, 12, 14, 28]


@settings(max_examples=40, deadline=None)
@given(num=st.dictionaries(st.sampled_from(PLAN_SCALES), st.integers(1, 3), max_size=3),
       den=st.dictionaries(st.sampled_from(PLAN_SCALES), st.integers(1, 3), max_size=3),
       W=st.integers(0, 1500),
       modulus=st.sampled_from([2, 9, 210, 630, 2 ** 31 - 1]))
@example(num={2: 2, 6: 1}, den={4: 3, 14: 1}, W=1500, modulus=630)
@example(num={14: 3, 1: 1}, den={7: 1, 28: 1}, W=1400, modulus=9)
def test_scale_groups_give_the_exact_series_reduced(num, den, W, modulus):
    """Quotients over scales up to 28, on a cold cache of inverses and then
    on the warm one, equal the exact series reduced mod m; no product is
    longer than W // g + 1, g the gcd of the scales, since each scale
    group is multiplied at its own length and merged at a common one."""
    r = {d: num.get(d, 0) - den.get(d, 0) for d in {*num, *den}}
    factors = FQuotientSpec.of(r).factors
    want = expand_factors(factors, W).reduce_mod(modulus)
    g = gcd(*(d for d, _ in factors)) if factors else 1
    with cold_divisor_cache(), product_lengths() as lengths:
        assert expand_factors(factors, W, modulus) == want
        assert expand_factors(factors, W, modulus) == want
    assert all(n <= W // g + 1 for n in lengths)


def test_alpha_first_coefficients():
    # independent recount of the lattice points m^2 + mn + n^2 = e
    counts = {}
    for mm in range(-40, 41):
        for nn in range(-40, 41):
            e = mm * mm + mm * nn + nn * nn
            counts[e] = counts.get(e, 0) + 1
    a = cubic_theta_alpha(4)
    assert list(a.coeffs) == [counts.get(e, 0) for e in range(5)] == [1, 6, 0, 6, 6]


def test_alpha_multiplicity_of_six():
    a = cubic_theta_alpha(300)
    for e in range(1, 301):
        assert a.coeff(e) % 6 == 0


def test_alpha_eta_quotient_identity():
    a = cubic_theta_alpha(200)
    rhs = fquotient({2: 6, 3: 1, 1: -3, 6: -2}, 200).add(
        fquotient({6: 6, 1: 1, 3: -3, 2: -2}, 199).shift(1).scale(3))
    assert a.eq_through(rhs, 199)


def test_alpha_q4_contraction_identity():
    a = cubic_theta_alpha(200)
    a4 = cubic_theta_alpha(50).substitute(4)
    rhs = a.sub(fquotient({4: 2, 12: 2, 2: -1, 6: -1}, 199).shift(1).scale(6))
    assert a4.eq_through(rhs, 199)


def test_h_valuation_and_inverse():
    h = h_level12(150)
    assert h.v == 1 and h.coeff(1) == 1
    assert h.normalize().v == 1
    assert h.invert().v == -1


def test_h_quotient_identities():
    h = h_level12(154)
    hi = h.invert()  # known through 152
    one = LaurentSeries.one(152)
    pairs = [
        (hi.add(h), {3: 3, 4: 1, 1: -1, 12: -3}),
        (hi.add(h).sub(one), {4: 4, 6: 2, 2: -2, 12: -4}),
        (hi.add(h).sub(one.scale(2)), {1: 1, 4: 2, 6: 9, 2: -3, 3: -3, 12: -6}),
        (hi.add(h).sub(one.scale(4)), {1: 3, 4: 1, 6: 2, 2: -2, 3: -1, 12: -3}),
    ]
    for lhs, quot in pairs:
        rhs = fquotient(FQuotientSpec.of(quot, qshift=-1), 150)
        assert lhs.eq_through(rhs, 150)


def test_bilateral_rejects_negative_order():
    with pytest.raises(ValueError):
        bilateral(TRIANGULAR, -1)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(BILATERAL_SUMS)), st.integers(0, 3000),
       st.sampled_from([2, 9, 630, 2 ** 31 - 1]))
def test_bilateral_builds_in_the_ring(name, T, m):
    """A theta sum over Z/m, built in the ring with only the exponents it
    reaches reduced, is the public constructor's reduction of the sum over
    Z: a tuple of ints in [0, m)."""
    spec = BILATERAL_SUMS[name]
    s = bilateral(spec, T, m)
    assert s == LaurentSeries(bilateral(spec, T).coeffs, 0, m)
    assert type(s.coeffs) is tuple
    assert all(type(c) is int and 0 <= c < m for c in s.coeffs)


@pytest.mark.parametrize("m", [0, 1, 2 ** 31, 9.0, "9"])
def test_bilateral_rejects_a_bad_modulus_as_the_constructor_does(m):
    with pytest.raises(ValueError, match="modulus must be an integer") as built:
        bilateral(PENTAGONAL, 20, m)
    with pytest.raises(ValueError) as constructed:
        LaurentSeries([1], 0, m)
    assert str(built.value) == str(constructed.value)


def test_spec_str_roundtrippable_text():
    spec = FQuotientSpec.of({2: 4, 1: -2, 4: -3})
    assert str(spec) == "f2^4/(f1^2*f4^3)"


# -- the prefix cache of the builders ---------------------------------------------

RINGS = [None, 2, 9, 630, 2 ** 31 - 1]


@settings(max_examples=40, deadline=None)
@given(factors=st.dictionaries(st.integers(1, 12), st.integers(-6, 6),
                               min_size=0, max_size=4),
       modulus=st.sampled_from(RINGS),
       windows=st.lists(st.integers(0, 300), min_size=1, max_size=6),
       order=st.sampled_from(["increasing", "decreasing", "random"]))
def test_prefix_cache_serves_what_a_cold_expansion_gives(factors, modulus,
                                                         windows, order):
    """Every window served, from a cache of its own and from the package's
    caches, equals a cold expansion through that window; a request the
    longest expansion so far reaches is a hit, any other a miss."""
    if order != "random":
        windows.sort(reverse=order == "decreasing")
    factors = FQuotientSpec.of(factors).factors
    d = factors[0][0] if factors else 1
    cache = _prefix_cache(expand_factors)
    longest, hits = -1, 0
    for W in windows:
        cold = expand_factors(factors, W, modulus)
        assert cache(factors, W, modulus) == cold
        assert _expand_factors(factors, W, modulus) == cold
        assert euler_f(d, W, modulus) == euler_f_product(d, W, modulus)
        hits += W <= longest
        longest = max(longest, W)
    assert cache.cache_info() == (hits, len(windows) - hits, CACHE_KEYS, 1)


def test_prefix_cache_keys_bind_defaults_and_keywords(monkeypatch):
    monkeypatch.setattr(products_module, "CACHE_KEYS", 4)
    cache = _prefix_cache(euler_f_product)
    s = cache(3, 60)
    assert cache(3, 60, None) is s
    assert cache(m=3, T=40, modulus=None) == s.truncate(40)
    assert cache(3, 40, 9) == s.truncate(40).reduce_mod(9)
    assert cache(T=50, m=3) == s.truncate(50)
    assert cache.cache_info() == (3, 2, 4, 2)
    # a call the builder would refuse is refused before the cache is read
    for args, kwargs in [((3,), {}), ((3, 60, None, 1), {}),
                         ((3, 60), {"m": 3}), ((3, 60), {"mod": 9})]:
        with pytest.raises(TypeError):
            euler_f_product(*args, **kwargs)
        with pytest.raises(TypeError):
            cache(*args, **kwargs)
    assert cache.cache_info() == (3, 2, 4, 2)


#: each builder that allocates a window, as a function of the window's top
#: exponent T; the cached ones unwrapped, so no entry built by another test
#: answers for them
WINDOW_BUILDERS = {
    "constant": lambda T: LaurentSeries.one(T),
    "substitute": lambda T: LaurentSeries([1]).substitute(T + 1),
    # the image of a window through q^(T // 2) stopped at q^T
    "substitute_through": lambda T: LaurentSeries.one(T // 2).substitute(2, T),
    "bilateral": lambda T: bilateral(PENTAGONAL, T),
    "euler_f_product": lambda T: euler_f_product(1, T),
    "euler_f": lambda T: euler_f.__wrapped__(2, T, 7),
    # the divisor f_1 at length T // 4 is below the cap; the expansion is not
    "expand_factors": lambda T: expand_factors(((4, -1),), T, 9),
    "alpha": lambda T: cubic_theta_alpha.__wrapped__(T),
    "h": lambda T: h_level12.__wrapped__(T),
    "count_table": lambda T: count_table([Parts()], T),
}


@pytest.mark.parametrize("build", WINDOW_BUILDERS.values(), ids=WINDOW_BUILDERS)
def test_builders_refuse_a_window_over_the_cap_before_allocating(build,
                                                                 monkeypatch):
    monkeypatch.setattr(series_module, "MAX_WINDOW", 100)
    build(100)
    with pytest.raises(ValueError, match=r"window through q\^101 is above the "
                                         r"cap q\^100$"):
        build(101)


def test_window_cap_admits_the_prime_families_below_224(monkeypatch):
    """B through q^1005005: every admissible prime below 224, n_max kept."""
    monkeypatch.setattr(theorems, "MAX_SAMPLED_PRIME", 223)
    primes = [p for p in range(5, 224) if theorems.is_sampled_prime(p)]
    need = max(c.max_argument() for c in theorems.default_claims(primes))
    assert need == 1005005 <= MAX_WINDOW


def test_prefix_cache_keeps_the_longest_expansion_of_each_key(monkeypatch):
    monkeypatch.setattr(products_module, "CACHE_KEYS", 4)
    cache = _prefix_cache(euler_f_product)
    cache(1, 50)
    cache(1, 80)                  # past the kept window: rebuilt, replaces it
    assert cache(1, 60) == euler_f_product(1, 60)
    assert cache(1, 80) == euler_f_product(1, 80)
    assert cache.cache_info() == (2, 2, 4, 1)
    assert cache(1, 81) == euler_f_product(1, 81)     # one past it: a miss
    assert cache.cache_info() == (2, 3, 4, 1)
    with pytest.raises(ValueError):
        cache(1, -1)              # below the valuation: the builder raises
    assert cache.cache_info() == (2, 4, 4, 1)


def test_prefix_cache_drops_the_least_recently_used_key(monkeypatch):
    monkeypatch.setattr(products_module, "CACHE_KEYS", 2)
    cache = _prefix_cache(euler_f_product)
    cache(1, 50)
    cache(2, 50)
    cache(1, 20)                  # hit: key 1 is now the most recent
    cache(3, 50)                  # drops key 2
    assert cache.cache_info() == (1, 3, 2, 2)
    cache(1, 50)
    cache(3, 10)
    assert cache.cache_info() == (3, 3, 2, 2)
    assert cache(2, 10) == euler_f_product(2, 10)
    assert cache.cache_info() == (3, 4, 2, 2)


def test_prefix_cache_refuses_a_builder_not_ending_with_modulus():
    """The window is the parameter before ``modulus``: a builder without
    that pair cannot be cached."""
    def no_modulus(m, T):
        return euler_f_product(m, T)

    def modulus_first(modulus, T):
        return euler_f_product(1, T, modulus)

    def modulus_only(modulus):
        return LaurentSeries.one(0, modulus)

    for build in (no_modulus, modulus_first, modulus_only):
        with pytest.raises(TypeError, match="must end with"):
            _prefix_cache(build)


def test_builders_share_one_cache_mechanism():
    """No ``lru_cache`` is left in ``products``: the five cached builders
    keep ``CACHE_KEYS`` keys each, and 1/h, which asks for h through
    q^(T+2), serves h through q^T from the same expansion."""
    caches = (euler_f, _expand_factors, _divisor_inverse, cubic_theta_alpha,
              h_level12)
    assert [c.cache_info().maxsize for c in caches] == [CACHE_KEYS] * 5
    assert not any(hasattr(v, "cache_parameters")   # an lru_cache wrapper
                   for v in vars(products_module).values())
    before = h_level12.cache_info()
    inverse = evaluate(Pow(Named("h"), -1), 300, 1009)
    h = evaluate(Named("h"), 300, 1009)
    after = h_level12.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (1, 1)
    assert h == h_level12(302, 1009).truncate(300)
    assert inverse.mul(h).eq_through(LaurentSeries.one(298, 1009), 298)
