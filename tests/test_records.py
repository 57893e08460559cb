"""The value records and reports: construction, equality, hashing,
immutability, repr and the key order of their JSON form."""

import json
import pickle

import pytest

from qcong import (Add, BilateralSum, ClaimReport, Dissect, FQuotientSpec,
                   IdentitySpec, Literal, Mul, Named, Parts, Pow, Scale,
                   ScanHit, Shift, SimpleReport, Subst, VerificationReport, fq,
                   get_claim)
from qcong.cli import main
from qcong.partitions import Family
from qcong.products import PENTAGONAL, SLOPE_3K1

X = fq({2: 2, 1: -1})

#: two records of each frozen class with equal fields, built differently
EQUAL_PAIRS = {
    "Parts": (Parts(4), Parts(d=4, odd=False)),
    "Parts-flags": (Parts(1, True, True), Parts(odd=True, distinct=True)),
    "FQuotientSpec": (FQuotientSpec(((1, 1),), 2),
                      FQuotientSpec.of({1: 1}, qshift=2)),
    "BilateralSum": (PENTAGONAL, BilateralSum(*(getattr(PENTAGONAL, f)
                                                for f in PENTAGONAL._fields))),
    "FQuot": (fq({1: 1, 2: -3}), fq([(2, -3), (1, 1)])),
    "Named": (Named("alpha"), Named(name="alpha")),
    "Literal": (Literal(3), Literal(value=3)),
    "Add": (Add((X, Literal(1))), Add(terms=(X, Literal(1)))),
    "Mul": (Mul((X, X)), Mul(factors=(fq({2: 2, 1: -1}), X))),
    "Pow": (Pow(X, -2), Pow(exponent=-2, base=X)),
    "Scale": (Scale(5, X), Scale(5, child=X)),
    "Shift": (Shift(1, X), Shift(by=1, child=X)),
    "Subst": (Subst(4, Named("alpha")), Subst(power=4, child=Named("alpha"))),
    "Dissect": (Dissect(X, 3, 2), Dissect(X, mod=3, residue=2)),
    "IdentitySpec": (IdentitySpec("e", X, X, None, 30, "ref"),
                     IdentitySpec("e", X, X, modulus=None, default_order=30,
                                  ref="ref")),
    "ScanHit": (ScanHit(5, 4, 5, 501, True), ScanHit(5, 4, 5, 501, known=True)),
}


@pytest.mark.parametrize("a, b", EQUAL_PAIRS.values(), ids=EQUAL_PAIRS)
def test_equal_fields_give_equal_records_and_hashes(a, b):
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_records_differ_by_any_field_and_by_class():
    assert Shift(1, X) != Scale(1, X)
    assert Add((X,)) != Mul((X,))
    assert Subst(2, X) != Shift(2, X) != Scale(2, X)
    assert Dissect(X, 3, 2) != Dissect(X, 3, 1)
    assert FQuotientSpec.of({1: 1}) != FQuotientSpec.of({1: 1}, 1)
    assert Parts(2) != Parts(2, odd=True)
    assert ScanHit(5, 4, 5, 501, True) != ScanHit(5, 4, 5, 501, False)
    assert Literal(1) != 1 and Literal(1) != (1,)
    assert len({Shift(1, X), Scale(1, X), Subst(1, X)}) == 3


@pytest.mark.parametrize("record, field", [
    (Parts(), "d"), (FQuotientSpec.of({1: 1}), "qshift"), (PENTAGONAL, "A"),
    (Shift(1, X), "by"), (Named("h"), "name"), (ScanHit(2, 1, 2, 9, True), "known"),
    (get_claim("b-27n16-mod3"), "modulus"),
    (IdentitySpec("e", X, X, None, 30, "ref"), "lhs"),
    (Family({1: -1}, None), "gf"),
])
def test_fields_cannot_be_assigned_or_deleted(record, field):
    before = vars(record).copy()
    with pytest.raises(AttributeError):
        setattr(record, field, 0)
    with pytest.raises(AttributeError):
        setattr(record, "extra", 0)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert vars(record) == before


def test_construction_binds_positions_keywords_and_defaults():
    assert vars(Parts()) == {"d": 1, "odd": False, "distinct": False}
    assert vars(Parts(3, distinct=True)) == {"d": 3, "odd": False,
                                             "distinct": True}
    assert FQuotientSpec(((1, 1),)).qshift == 0
    for bad in [lambda: Parts(1, 2, 3, 4), lambda: Parts(1, d=1),
                lambda: Parts(size=1), lambda: Shift(1),
                lambda: ScanHit(5, 4, 5, 501)]:
        with pytest.raises(TypeError):
            bad()


def test_post_init_validates():
    with pytest.raises(ValueError, match="part step"):
        Parts(0)
    with pytest.raises(ValueError, match="unknown series"):
        Named("nope")


def test_repr_lists_the_fields_in_order_and_hides_the_hidden_ones():
    assert repr(Parts(4)) == "Parts(d=4, odd=False, distinct=False)"
    assert repr(Shift(1, Literal(2))) == "Shift(by=1, child=Literal(value=2))"
    assert repr(FQuotientSpec.of({2: 1}, 1)) == \
        "FQuotientSpec(factors=((2, 1),), qshift=1)"
    claim = get_claim("b-27n16-mod3")
    assert repr(claim) == (
        "CongruenceClaim(name='b-27n16-mod3', description='B(27n+16) = 0 "
        "(mod 3)', modulus=3, kernel=None, param_space=((),), n_max=400)")
    pentweight = get_claim("pentweight-81n70-mod9")
    assert f"kernel=({SLOPE_3K1!r}, 54)," in repr(pentweight)
    assert claim.stride(()) == 27 and claim.base(()) == 16
    assert repr(SimpleReport(2, 1, 2, 10, True)) == (
        "SimpleReport(stride=2, residue=1, modulus=2, n_max=10, passed=True, "
        "counterexample=None)")


def test_records_survive_pickling():
    for a, _ in EQUAL_PAIRS.values():
        assert pickle.loads(pickle.dumps(a)) == a


def test_reports_are_mutable_and_compare_by_fields():
    a = ClaimReport("c", 3, 5, 0, 20, True)
    b = ClaimReport("c", 3, 5, 0, 20, True)
    assert a == b and a.violations == [] and a.violations is not b.violations
    a.checked += 6
    a.violations.append({"n": 1})
    assert a != b and (a.checked, b.violations) == (6, [])
    assert VerificationReport("e", None, 3, True) != \
        VerificationReport("e", None, 3, False)
    with pytest.raises(TypeError):
        hash(a)


#: each report's JSON keys, in the order the reports declare their fields
REPORT_KEYS = {
    VerificationReport: ["name", "modulus", "order", "passed",
                         "mismatch_exponent", "lhs_coeff", "rhs_coeff"],
    SimpleReport: ["stride", "residue", "modulus", "n_max", "passed",
                   "counterexample"],
    ClaimReport: ["name", "modulus", "n_max", "checked", "max_argument",
                  "passed", "violations", "note"],
    ScanHit: ["stride", "residue", "modulus", "evidence", "known"],
}


def declared_fields(cls):
    """A record's or a report's fields, in declared order."""
    return list(cls._fields)


@pytest.mark.parametrize("argv, kinds", [
    (["verify-identity", "--name", "p_5n4", "--order", "50", "--json"],
     [VerificationReport]),
    (["verify-theorem", "--all", "--nmax", "2", "--json"],
     [SimpleReport] * 2 + [ClaimReport] * 7),
    (["scan", "--name", "B", "--amax", "5", "--nmax", "50", "--json"],
     [ScanHit] * 4),
], ids=["verify-identity", "verify-theorem", "scan"])
def test_json_keys_follow_the_declared_field_order(capsys, argv, kinds):
    assert main(argv) == 0
    reports = json.loads(capsys.readouterr().out)
    assert [list(r) for r in reports] == [REPORT_KEYS[k] for k in kinds]
    assert all(REPORT_KEYS[k] == declared_fields(k) for k in kinds)
