"""The identity catalog: evaluator behavior, registry content, verification,
mutation sensitivity, JSON export."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from qcong import (BILATERAL_SUMS, Add, Dissect, InsufficientPrecision,
                   Literal, Mul, Named, Pow, Scale, SeriesError, Shift, Subst,
                   count_triples, evaluate,
                   expr_from_dict, expr_to_dict, fq, get, perturbed, registry,
                   registry_from_json, registry_to_json, verify, verify_all)
from qcong.expr import NAMED_SERIES, FQuot, SeriesExpr
from qcong.partitions import FAMILIES
from qcong.products import (_expand_factors, bilateral, cubic_theta_alpha,
                            fquotient, h_level12)
from qcong.series import LaurentSeries

B = fq(FAMILIES["B"].gf)


# -- evaluator ----------------------------------------------------------------

def test_evaluate_fquot_matches_oracle():
    s = evaluate(B, 5)
    assert list(s.coeffs[:6]) == count_triples(5)


def test_evaluate_literal():
    s = evaluate(Literal(1), 10)
    assert s.coeff(0) == 1 and s.coeff(7) == 0


def test_evaluate_dissection_consequence():
    lhs = evaluate(Dissect(B, 3, 2), 60)
    rhs = evaluate(fq({2: 12, 12: 3, 1: -6, 4: -10}), 60)
    assert lhs.eq_through(rhs, 60)


def test_dissect_classes_share_one_expansion():
    """Dissect through q^T asks its child for whole blocks, through
    q^(3T + 2) for every class mod 3: the three classes of B are one cache
    entry, and each dissected window is exactly [0, T]."""
    before = _expand_factors.cache_info()
    classes = [evaluate(Dissect(B, 3, j), 100, 1013) for j in (1, 0, 2)]
    after = _expand_factors.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (2, 1)
    whole = evaluate(B, 302, 1013)
    assert classes == [whole.dissect(3, j) for j in (1, 0, 2)]
    assert {s.known_through for s in classes} == {100}


def test_evaluate_modular_ring():
    s = evaluate(B, 50, modulus=5)
    t = count_triples(50)
    assert all(s.coeff(n) == t[n] % 5 for n in range(51))


def test_evaluate_laurent_product():
    expr = Mul((fq({2: 1, 28: -4}, qshift=-3), fq({14: 5}, qshift=-5)))
    s = evaluate(expr, 0)
    assert s.normalize().v == -8


def test_predicted_valuations():
    assert B.valuation() == 0
    assert Named("h").valuation() == 1
    assert Pow(Named("h"), -1).valuation() == -1
    assert fq({28: -4}, qshift=-3).valuation() == -3
    assert Pow(fq({1: 1}, qshift=-3), 6).valuation() == -18
    assert Shift(2, Named("alpha")).valuation() == 2
    assert Subst(4, Named("h")).valuation() == 4


@pytest.mark.parametrize("name", ["alpha", "h", *BILATERAL_SUMS])
def test_named_valuation_is_exact(name):
    assert Named(name).valuation() == \
        evaluate(Named(name), 60).normalize().v


def test_precision_shortfall_is_an_error_not_a_wrong_answer():
    # f1 - 1 has true valuation 1 but is predicted at 0; inverting makes the
    # window fall short of the target, which must surface as an error
    expr = Pow(Add((fq({1: 1}), Literal(-1))), -1)
    with pytest.raises(InsufficientPrecision):
        evaluate(expr, 40)


leaves = st.one_of(
    st.builds(fq, st.dictionaries(st.integers(1, 6), st.integers(-3, 3),
                                  max_size=3), st.integers(-2, 2)),
    st.sampled_from(sorted(NAMED_SERIES)).map(Named),
    st.integers(-3, 3).map(Literal))


def trees(depth):
    """Expression trees over all ten node kinds, at most ``depth`` deep."""
    if depth == 0:
        return leaves
    sub = trees(depth - 1)
    some = st.lists(sub, min_size=1, max_size=3).map(tuple)
    return st.one_of(
        leaves, some.map(Add), some.map(Mul),
        st.builds(Pow, sub, st.integers(-3, 3)),
        st.builds(Scale, st.integers(-3, 3), sub),
        st.builds(Shift, st.integers(-3, 3), sub),
        st.builds(Subst, st.integers(1, 3), sub),
        st.builds(lambda c, k, j: Dissect(c, k, j % k), sub, st.integers(1, 3),
                  st.integers(0, 2)))


@settings(max_examples=200, deadline=None)
@given(trees(3), st.integers(0, 40), st.sampled_from([None, 9]))
def test_evaluate_reaches_t_and_never_over_claims(tree, T, modulus):
    """``evaluate`` raises, or returns a window through q^T whose every
    coefficient an over-precise evaluation also knows is the same."""
    try:
        s = evaluate(tree, T, modulus)
    except (SeriesError, ValueError):
        return
    assert s.known_through >= T
    ref = evaluate(tree, T + 30, modulus)
    assert s.first_mismatch(ref, min(s.known_through, ref.known_through)) is None


def test_pow_of_sum_with_stable_leading_term():
    # 1/h - 2 + h has valuation -1 with leading coefficient 1: invertible
    expr = Pow(Add((Pow(Named("h"), -1), Literal(-2), Named("h"))), -1)
    s = evaluate(expr, 20)
    assert s.normalize().v == 1


# -- the node methods against the isinstance chains they replaced -------------
# ``reference_valuation`` and ``reference_eval`` are the two walks over node
# kinds that ``valuation()`` and ``expand()`` replaced, kept as the slow
# reference route.

def reference_valuation(e):
    if isinstance(e, FQuot):
        return e.spec.qshift
    if isinstance(e, Named):
        return NAMED_SERIES[e.name][0]
    if isinstance(e, Literal):
        return 0
    if isinstance(e, Add):
        return min(reference_valuation(t) for t in e.terms)
    if isinstance(e, Mul):
        return sum(reference_valuation(f) for f in e.factors)
    if isinstance(e, Pow):
        return e.exponent * reference_valuation(e.base)
    if isinstance(e, Scale):
        return reference_valuation(e.child)
    if isinstance(e, Shift):
        return e.by + reference_valuation(e.child)
    if isinstance(e, Subst):
        return e.power * reference_valuation(e.child)
    if isinstance(e, Dissect):
        return 0
    raise TypeError(f"not a series expression: {e!r}")


def reference_eval(e, T, m):
    if isinstance(e, FQuot):
        return fquotient(e.spec, max(T, e.spec.qshift), m)
    if isinstance(e, Named):
        v = NAMED_SERIES[e.name][0]
        T = max(T, v)
        if e.name == "alpha":
            return cubic_theta_alpha(T, m)
        if e.name == "h":
            return h_level12(T, m)
        return bilateral(BILATERAL_SUMS[e.name], T, m)
    if isinstance(e, Literal):
        return LaurentSeries.constant(e.value, max(T, 0), m)
    if isinstance(e, Add):
        parts = [reference_eval(t, T, m) for t in e.terms]
        r = parts[0]
        for p in parts[1:]:
            r = r.add(p)
        return r
    if isinstance(e, Mul):
        vs = [reference_valuation(f) for f in e.factors]
        vtot = sum(vs)
        r = None
        for f, v in zip(e.factors, vs):
            s = reference_eval(f, T - (vtot - v), m)
            r = s if r is None else r.mul(s)
        return r
    if isinstance(e, Pow):
        vb = reference_valuation(e.base)
        if e.exponent == 0:
            return LaurentSeries.one(max(T, 0), m)
        if e.exponent > 0:
            return reference_eval(e.base, T - (e.exponent - 1) * vb,
                                  m).pow(e.exponent)
        n = -e.exponent
        return reference_eval(e.base, (T + 2 * n * vb) - (n - 1) * vb,
                              m).pow(n).invert()
    if isinstance(e, Scale):
        return reference_eval(e.child, T, m).scale(e.by)
    if isinstance(e, Shift):
        return reference_eval(e.child, T - e.by, m).shift(e.by)
    if isinstance(e, Subst):
        return reference_eval(e.child, max(T // e.power, 0),
                              m).substitute(e.power)
    if isinstance(e, Dissect):
        return reference_eval(e.child, max(e.mod * T + e.mod - 1, 0),
                              m).dissect(e.mod, e.residue)
    raise TypeError(f"not a series expression: {e!r}")


def reference_evaluate(e, T, modulus=None):
    s = reference_eval(e, T, modulus)
    if s.known_through < T:
        raise InsufficientPrecision(f"reached q^{s.known_through}, needed q^{T}")
    return s


def outcome(evaluator, e, T, modulus):
    """The series ``evaluator`` returns, or the type of what it raises."""
    try:
        return evaluator(e, T, modulus)
    except Exception as exc:
        return type(exc)


def assert_same_walk(e, T, modulus):
    assert e.valuation() == reference_valuation(e)
    new = outcome(evaluate, e, T, modulus)
    ref = outcome(reference_evaluate, e, T, modulus)
    # LaurentSeries equality: the same v, window, ring and coefficients
    assert new == ref, (e, T, modulus)


@settings(max_examples=300, deadline=None)
@given(trees(3), st.integers(0, 40), st.sampled_from([None, 9]))
def test_node_methods_match_the_reference_walk(tree, T, modulus):
    assert_same_walk(tree, T, modulus)


def test_node_methods_match_the_reference_walk_on_the_catalog():
    for entry in registry():
        for side in (entry.lhs, entry.rhs):
            assert_same_walk(side, entry.default_order, entry.modulus)


def test_node_methods_look_up_builders_and_never_re_enter_evaluate(monkeypatch):
    """The per-layer tracer rebinds these names in ``qcong.expr``: a node
    method that held on to a builder, or called ``evaluate`` itself, would
    hide calls from it or count them twice."""
    from qcong import expr
    calls = []
    for name in ("evaluate", "fquotient", "bilateral", "cubic_theta_alpha",
                 "h_level12"):
        def wrapper(*args, _name=name, _real=getattr(expr, name)):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(expr, name, wrapper)
    # all ten node kinds
    tree = Add((fq({2: 4, 1: -2}, qshift=1), Named("h"), Literal(-2),
                Named("cube"),
                Mul((Pow(Named("alpha"), 2),
                     Scale(3, Shift(1, Subst(4, Dissect(fq({1: 1}), 7, 2))))))))
    expr.evaluate(tree, 30)
    assert sorted(calls) == ["bilateral", "cubic_theta_alpha", "evaluate",
                             "fquotient", "fquotient", "h_level12"]


def subtrees(e):
    """``e`` and every node under it."""
    yield e
    for name in e._fields:
        v = getattr(e, name)
        for child in v if type(v) is tuple else (v,):
            if isinstance(child, SeriesExpr):
                yield from subtrees(child)


def test_valuation_bounds_every_catalog_node():
    """Over its entry's ring, every node of every catalog entry has
    ``valuation()`` at most its actual valuation, and equal to it on
    f-quotient and named leaves."""
    pairs = {(node, e.modulus) for e in registry()
             for side in (e.lhs, e.rhs) for node in subtrees(side)}
    assert len(pairs) > 200
    for node, modulus in pairs:
        s = evaluate(node, max(node.valuation(), 0) + 20, modulus).normalize()
        # a window-zero series collapses to one zero at the window's top
        actual = s.v if s.coeffs[0] else s.v + 1
        assert node.valuation() <= actual, (node, modulus)
        if isinstance(node, (FQuot, Named)):
            assert node.valuation() == actual, (node, modulus)


#: series the catalog names once: (its node, the entries that state it);
#: the entries of one proof chain then read one node
SHARED_SERIES = {
    "altsum": (fq({2: 12, 12: 3, 1: -6, 4: -9}),
               ["altsum_series_exact", "altsum_series_mod3",
                "altsum_class1_vanishes", "altsum_class2_vanishes",
                "altsum_class0_mod3"]),
    "hexweight": (fq({1: 1, 14: 3, 7: -1, 28: -1}),
                  ["hexweight_series_mod7", "hexweight_class3_vanishes",
                   "hexweight_class4_vanishes", "hexweight_class6_vanishes",
                   "hexweight_7n2_mod7"]),
    "1/h + h": (fq({3: 3, 4: 1, 1: -1, 12: -3}, -1),
                ["h_sum_recip", "h_algebra_product", "h_algebra_factored"]),
    "1/h - 1 + h": (fq({4: 4, 6: 2, 2: -2, 12: -4}, -1),
                    ["h_sum_recip_m1", "h_algebra_factored"]),
    "1/h - 2 + h": (fq({1: 1, 4: 2, 6: 9, 2: -3, 3: -3, 12: -6}, -1),
                    ["h_sum_recip_m2", "h_algebra_product", "h_algebra_factored"]),
    "1/h - 4 + h": (fq({1: 3, 4: 1, 6: 2, 2: -2, 3: -1, 12: -3}, -1),
                    ["h_sum_recip_m4", "h_algebra_factored"]),
    "pentweight": (Scale(3, fq({1: 1, 3: 3, 4: 7, 6: 2, 2: -4, 12: -1})),
                   ["weighted_sum_27n16_mod9", "weighted_sum_27n16_reduced"]),
    "contracted": (get("weighted_sum_27n16_reduced").rhs,
                   ["weighted_sum_27n16_reduced", "weighted_sum_class2_vanishes"]),
    "rhs_414": (get("split3_f1f4_over_f2").rhs,
                ["split3_f1f4_over_f2", "gf_b_3n1_9adic_composition"]),
}


@pytest.mark.parametrize("series, names", SHARED_SERIES.values(),
                         ids=SHARED_SERIES)
def test_named_series_are_one_node(series, names):
    """Every node of the catalog equal to the series is one object, and
    it appears in exactly the listed entries."""
    found = {e.name: [n for side in (e.lhs, e.rhs) for n in subtrees(side)
                      if n == series] for e in registry()}
    assert sorted(k for k, v in found.items() if v) == sorted(names)
    assert len({id(n) for v in found.values() for n in v}) == 1


# -- registry content -----------------------------------------------------------

def test_registry_size_and_names():
    entries = registry()
    assert len(entries) >= 30
    names = [e.name for e in entries]
    assert len(names) == len(set(names))
    assert all(e.ref for e in entries)


def test_registry_orders():
    for e in registry():
        if e.name == "gamma0_28_decomposition":
            assert e.default_order == 130  # 150 coefficients above valuation -20
        elif e.modulus is None:
            assert e.default_order == 300
        else:
            assert e.default_order == 1000


def test_get_unknown_name():
    with pytest.raises(KeyError):
        get("no_such_identity")


# -- verification ------------------------------------------------------------------

def test_verify_all_at_reduced_orders():
    reports = []
    for e in registry():
        order = 20 if e.name == "gamma0_28_decomposition" else \
            (48 if e.modulus is None else 72)
        reports.append(verify(e, order))
    failures = [str(r) for r in reports if not r.passed]
    assert not failures, failures


def test_verify_all_helper():
    reports = verify_all(order=25)
    assert len(reports) == len(registry())
    assert [r.name for r in reports] == [e.name for e in registry()]
    assert all(r.passed for r in reports)


def test_verify_reports_first_mismatch():
    entry = get("gf_b_3n2")
    broken = type(entry)(entry.name, entry.lhs,
                         fq({2: 12, 12: 3, 1: -6, 4: -9}),  # exponent off by one
                         entry.modulus, entry.default_order, entry.ref)
    r = verify(broken, 60)
    assert not r.passed
    assert r.mismatch_exponent == 4  # the dropped f4 flips first at q^4
    assert r.lhs_coeff != r.rhs_coeff


MUTATION_TARGETS = ["gf_b_3n2", "eta_triple_balance", "gf_b_2n1",
                    "altsum_series_mod3", "gf_b_7n2_mod7"]


@pytest.mark.parametrize("name", MUTATION_TARGETS)
def test_mutation_sensitivity(name):
    entry = get(name)
    order = 60 if entry.modulus is None else 90
    assert verify(entry, order).passed
    bad = perturbed(entry)
    r = verify(bad, order)
    assert not r.passed
    assert r.mismatch_exponent is not None
    assert r.lhs_coeff != r.rhs_coeff


def test_every_entry_is_mutation_sensitive():
    """A bumped coefficient must break every single catalog entry."""
    for entry in registry():
        order = 24 if entry.name == "gamma0_28_decomposition" else 36
        r = verify(perturbed(entry), order)
        assert not r.passed, f"{entry.name} survived a perturbation"
        assert r.mismatch_exponent is not None


def test_modular_entries_verify_in_modular_ring():
    e = get("gf_b_3n1_mod9")
    r = verify(e, 150)
    assert r.passed and r.modulus == 9


# -- JSON export ---------------------------------------------------------------------

def test_expr_json_roundtrip():
    exprs = [
        B,
        Mul((Subst(4, Named("alpha")), fq({2: 6, 12: 3, 1: -3, 4: -10}))),
        Add((Pow(Named("h"), -1), Literal(-2), Named("h"))),
        Dissect(Scale(3, Shift(1, B)), 3, 2),
        Pow(fq({4: 4, 14: 2, 2: -2, 28: -4}, qshift=-3), 6),
    ]
    for e in exprs:
        assert expr_from_dict(json.loads(json.dumps(expr_to_dict(e)))) == e


def test_expr_json_schema_is_the_documented_one():
    # one tree holding all ten node kinds; a renamed field changes the export
    tree = Add((fq({2: 4, 1: -2}, qshift=1), Named("h"), Literal(-2),
                Mul((Pow(Named("alpha"), 2),
                     Scale(3, Shift(1, Subst(4, Dissect(fq({1: 1}), 7, 2))))))))
    assert expr_to_dict(tree) == {"op": "add", "terms": [
        {"op": "fquot", "factors": {"1": -2, "2": 4}, "qshift": 1},
        {"op": "named", "name": "h"},
        {"op": "literal", "value": -2},
        {"op": "mul", "factors": [
            {"op": "pow", "base": {"op": "named", "name": "alpha"}, "exponent": 2},
            {"op": "scale", "by": 3, "child": {
                "op": "shift", "by": 1, "child": {
                    "op": "subst", "power": 4, "child": {
                        "op": "dissect", "mod": 7, "residue": 2,
                        "child": {"op": "fquot", "factors": {"1": 1}}}}}}]}]}
    assert expr_from_dict(expr_to_dict(tree)) == tree


def test_expr_json_rejects_unknown_input():
    with pytest.raises(ValueError):
        expr_from_dict({"op": "nope"})
    with pytest.raises(ValueError, match="named node: unknown series 'nope'"):
        expr_from_dict({"op": "named", "name": "nope"})
    with pytest.raises(ValueError, match="pow node without exponent"):
        expr_from_dict({"op": "pow", "base": {"op": "named", "name": "h"}})
    with pytest.raises(ValueError, match="fquot node without factors"):
        expr_from_dict({"op": "fquot", "qshift": 1})
    with pytest.raises(TypeError):
        expr_to_dict(B.spec)


H = {"op": "named", "name": "h"}


@pytest.mark.parametrize("node", [
    {"op": "add", "terms": [1]},
    {"op": "fquot", "factors": [1]},
    {"op": "fquot", "factors": {"1": 1.5}},
    {"op": "fquot", "factors": {"1": 1}, "qshift": "1"},
    [H],
    "h",
    {"op": "add", "terms": []},
    {"op": "mul", "factors": []},
    {"op": "add", "terms": H},
    {"op": "subst", "power": 0, "child": H},
    {"op": "subst", "power": -2, "child": H},
    {"op": "scale", "by": 2, "child": 5},
    {"op": "scale", "by": 2, "child": [H]},
    {"op": "scale", "by": 2.0, "child": H},
    {"op": "pow", "base": H, "exponent": "2"},
    {"op": "pow", "base": H, "exponent": True},
    {"op": "literal", "value": None},
    {"op": "named", "name": ["h"]},
    {"op": "dissect", "child": H, "mod": 0, "residue": 0},
    {"op": "dissect", "child": H, "mod": 3, "residue": 3},
    {"op": "dissect", "child": H, "mod": 3, "residue": -1},
    {"op": "fquot", "factors": {"3": 1, "03": 2}},   # two keys name f3
    {"op": "fquot", "factors": {"1_0": 1}},
    {"op": "fquot", "factors": {" 3": 1}},
    {"op": "fquot", "factors": {"+2": 1}},
    {"op": "fquot", "factors": {"\u0663": 1}},       # an Arabic-Indic 3
])
def test_expr_json_rejects_malformed_nodes(node):
    with pytest.raises(ValueError):
        expr_from_dict(node)


def test_registry_json_schema():
    doc = json.loads(registry_to_json())
    assert len(doc) == len(registry())
    for item in doc:
        assert set(item) == {"name", "citation", "modulus", "order", "lhs", "rhs"}
    names = {item["name"] for item in doc}
    assert "gamma0_28_decomposition" in names


def test_registry_json_parses_back():
    parsed = registry_from_json(registry_to_json())
    originals = registry()
    assert len(parsed) == len(originals)
    for p, o in zip(parsed, originals):
        assert p.name == o.name and p.lhs == o.lhs and p.rhs == o.rhs
        assert p.modulus == o.modulus
    r = verify(parsed[0], 40)
    assert r.passed
