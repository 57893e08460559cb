"""The identity catalog: evaluator behavior, registry content, verification,
mutation sensitivity, JSON export."""

import json

import pytest

from qcong import (Add, Dissect, InsufficientPrecision, Literal, Mul, Named,
                   Pow, Scale, Shift, Subst, count_triples, evaluate,
                   expr_from_dict, expr_to_dict, fq, get, perturbed, registry,
                   registry_from_json, registry_to_json, verify, verify_all)
from qcong.expr import predicted_valuation
from qcong.partitions import FAMILIES

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


def test_evaluate_modular_ring():
    s = evaluate(B, 50, modulus=5)
    t = count_triples(50)
    assert all(s.coeff(n) == t[n] % 5 for n in range(51))


def test_evaluate_laurent_product():
    expr = Mul((fq({2: 1, 28: -4}, qshift=-3), fq({14: 5}, qshift=-5)))
    s = evaluate(expr, 0)
    assert s.normalize().v == -8


def test_predicted_valuations():
    assert predicted_valuation(B) == 0
    assert predicted_valuation(Named("h")) == 1
    assert predicted_valuation(Named("h_inv")) == -1
    assert predicted_valuation(fq({28: -4}, qshift=-3)) == -3
    assert predicted_valuation(Pow(fq({1: 1}, qshift=-3), 6)) == -18
    assert predicted_valuation(Shift(2, Named("alpha"))) == 2
    assert predicted_valuation(Subst(4, Named("h"))) == 4


def test_precision_shortfall_is_an_error_not_a_wrong_answer():
    # f1 - 1 has true valuation 1 but is predicted at 0; inverting makes the
    # window fall short of the target, which must surface as an error
    expr = Pow(Add((fq({1: 1}), Literal(-1))), -1)
    with pytest.raises(InsufficientPrecision):
        evaluate(expr, 40)


def test_pow_of_sum_with_stable_leading_term():
    # 1/h - 2 + h has valuation -1 with leading coefficient 1: invertible
    expr = Pow(Add((Named("h_inv"), Literal(-2), Named("h"))), -1)
    s = evaluate(expr, 20)
    assert s.normalize().v == 1


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


def test_verify_all_helper_and_threads():
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
        Add((Named("h_inv"), Literal(-2), Named("h"))),
        Dissect(Scale(3, Shift(1, B)), 3, 2),
        Pow(fq({4: 4, 14: 2, 2: -2, 28: -4}, qshift=-3), 6),
    ]
    for e in exprs:
        assert expr_from_dict(json.loads(json.dumps(expr_to_dict(e)))) == e


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
