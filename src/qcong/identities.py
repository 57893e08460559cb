"""Catalog of the q-series identities the toolkit verifies.

Every entry pairs two expression trees, optionally a modulus (absent means
exact equality over Z), a default comparison order (an absolute exponent
bound), and a citation describing where the identity comes from.  Exact
entries default to q^300, congruence entries to q^1000 in Z/mZ; the one
deep-Laurent entry compares 150 coefficients above its valuation -20.

``verify`` evaluates both sides and reports the first mismatching exponent
on failure; ``perturbed`` builds a deliberately broken copy of an entry for
mutation-testing the verifier itself.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .expr import (Add, Dissect, Literal, Named, Pow, Scale, SeriesExpr,
                   Shift, Subst, add, alpha_q, evaluate, expr_from_dict,
                   expr_to_dict, fq, mul, poly_in, predicted_valuation)
from .partitions import FAMILIES

EXACT_ORDER = 300
MOD_ORDER = 1000


@dataclass(frozen=True)
class IdentitySpec:
    name: str
    lhs: SeriesExpr
    rhs: SeriesExpr
    modulus: int | None
    default_order: int
    ref: str


@dataclass
class VerificationReport:
    name: str
    modulus: int | None
    order: int
    passed: bool
    mismatch_exponent: int | None = None
    lhs_coeff: int | None = None
    rhs_coeff: int | None = None

    def __str__(self):
        ring = f" mod {self.modulus}" if self.modulus else ""
        if self.passed:
            return f"PASS {self.name}{ring} through q^{self.order}"
        return (f"FAIL {self.name}{ring}: first mismatch at q^{self.mismatch_exponent} "
                f"(lhs {self.lhs_coeff}, rhs {self.rhs_coeff})")


B = fq(FAMILIES["B"].gf)
B_LIN = fq(FAMILIES["b"].gf)

# Basis data for the Gamma0(28) decomposition of the B(7n+2) series: three
# eta quotients of orders -3, -4, -5 at infinity and the integer polynomials
# attaching them.
X28 = fq({4: 4, 14: 2, 2: -2, 28: -4}, qshift=-3)
Y28 = fq({2: 1, 4: 2, 14: 5, 1: -1, 7: -1, 28: -6}, qshift=-4)
Z28 = fq({2: 1, 4: 1, 14: 5, 28: -7}, qshift=-5)
POLY_1 = [0, -2401, -5145, 6860, 882, -175, -21]
POLY_Y = [2401, 0, -7154, -294, 189, 14]
POLY_Z = [0, 3430, 0, -735, -42, 1]


def _entries():
    E = []

    def exact(name, lhs, rhs, ref, order=EXACT_ORDER):
        E.append(IdentitySpec(name, lhs, rhs, None, order, ref))

    def congr(name, lhs, rhs, m, ref, order=MOD_ORDER):
        E.append(IdentitySpec(name, lhs, rhs, m, order, ref))

    # ---- classical single-family dissections ------------------------------

    exact("p_5n4",
          Dissect(fq(FAMILIES["p"].gf), 5, 4),
          Scale(5, fq({5: 5, 1: -6})),
          "Ramanujan: the p(5n+4) generating function")
    exact("p_7n5",
          Dissect(fq(FAMILIES["p"].gf), 7, 5),
          add(Scale(7, fq({7: 3, 1: -4})),
              Scale(49, Shift(1, fq({7: 7, 1: -8})))),
          "Ramanujan: the p(7n+5) generating function")
    exact("cubic_3n2",
          Dissect(fq(FAMILIES["a"].gf), 3, 2),
          Scale(3, fq({3: 3, 6: 3, 1: -4, 2: -4})),
          "Chan: the cubic-partition a(3n+2) generating function")
    exact("overcubic_3n2",
          Dissect(fq(FAMILIES["abar"].gf), 3, 2),
          Scale(6, fq({3: 6, 4: 3, 1: -8, 2: -3})),
          "Kim: the overcubic a(3n+2) generating function")
    exact("lin_b_3n2",
          Dissect(B_LIN, 3, 2),
          Scale(3, Shift(1, fq({2: 6, 12: 6, 1: -3, 4: -11}))),
          "Lin: the b(3n+2) generating function")
    exact("lin_b_3n1",
          Dissect(B_LIN, 3, 1),
          mul(alpha_q(4), fq({2: 6, 12: 3, 1: -3, 4: -10})),
          "Lin: the b(3n+1) generating function via the cubic theta")

    # ---- theta-type series vs their product forms -------------------------

    exact("euler_pentagonal", fq({1: 1}), Named("pentagonal"),
          "Euler's pentagonal number theorem")
    exact("jacobi_cube", fq({1: 3}), Named("cube"),
          "Jacobi: f1^3 as a signed triangular-number series")
    exact("gauss_triangular", fq({2: 2, 1: -1}), Named("triangular"),
          "Gauss: f2^2/f1 as the triangular-number indicator")
    exact("series_slope_3k1", fq({2: 5, 1: -2}), Named("slope_3k1"),
          "f2^5/f1^2 as a bilateral series with weights (-1)^k(3k+1)")
    exact("series_slope_6k1", fq({1: 5, 2: -2}), Named("slope_6k1"),
          "f1^5/f2^2 as a bilateral series with weights 6k+1")
    exact("series_signed_pentagonal", fq({2: 3, 1: -1, 4: -1}),
          Named("signed_pentagonal"),
          "f2^3/(f1 f4): pentagonal series with q -> -q")

    # ---- 2-adic structure of the B series ----------------------------------

    exact("split2_f2_5",
          fq({2: 5, 1: -2, 4: -2}),
          add(fq({8: 5, 4: -2, 16: -2}),
              Scale(2, Shift(1, fq({16: 2, 8: -1})))),
          "2-dissection of f2^5/(f1^2 f4^2)")
    exact("b_gf_2split",
          B,
          add(fq({8: 5, 2: -1, 4: -3, 16: -2}),
              Scale(2, Shift(1, fq({16: 2, 2: -1, 4: -1, 8: -1})))),
          "the B series split into even and odd q-powers")
    exact("gf_b_2n1",
          Dissect(B, 2, 1),
          Scale(2, fq({8: 2, 1: -1, 2: -1, 4: -1})),
          "odd branch of the 2-split: the B(2n+1) generating function")
    exact("gf_b_2n0",
          Dissect(B, 2, 0),
          fq({4: 5, 1: -1, 2: -3, 8: -2}),
          "derived: even branch of the 2-split")
    congr("b_gf_mod5",
          B,
          mul(fq({10: 1, 5: -1, 20: -1}), fq({4: 2, 2: -1}), fq({1: 3})),
          5, "the B series mod 5 after f^5 contraction")
    congr("b_gf_mod5_double_sum",
          B,
          mul(fq({10: 1, 5: -1, 20: -1}),
              Subst(2, Named("triangular")), Named("cube")),
          5, "the mod-5 B series as a double theta sum")

    # ---- 3-adic structure --------------------------------------------------

    rhs_3split_tri = add(fq({6: 1, 9: 2, 3: -1, 18: -1}),
                         Shift(1, fq({18: 2, 9: -1})))
    exact("split3_f2sq_over_f1", fq({2: 2, 1: -1}), rhs_3split_tri,
          "3-dissection of f2^2/f1")

    rhs_3split_invcube = mul(
        fq({9: 3, 3: -10}),
        add(Pow(alpha_q(3), 2),
            Scale(3, Shift(1, mul(fq({9: 3, 3: -1}), alpha_q(3)))),
            Scale(9, Shift(2, fq({9: 6, 3: -2})))))
    exact("split3_inv_f1cubed", fq({1: -3}), rhs_3split_invcube,
          "3-dissection of 1/f1^3 via the cubic theta")

    exact("alpha4_balance",
          add(mul(fq({6: 2, 3: -1}), alpha_q(4)),
              Scale(3, Shift(1, fq({2: 1, 3: 2, 12: 3, 1: -1, 4: -1, 6: -1})))),
          fq({2: 6, 1: -3}),
          "cubic-theta balance for f2^6/f1^3")

    exact("b_gf_3adic_composition",
          B,
          mul(Pow(rhs_3split_tri, 2), Subst(4, rhs_3split_invcube)),
          "the B series rebuilt from the two 3-dissections (q -> q^4 in the cube)")

    exact("gf_b_3n2",
          Dissect(B, 3, 2),
          fq({2: 12, 12: 3, 1: -6, 4: -10}),
          "derived: the B(3n+2) generating function")

    exact("altsum_series_exact",
          fq({2: 12, 12: 3, 1: -6, 4: -9}),
          mul(Dissect(B, 3, 2), Subst(4, Named("pentagonal"))),
          "the B(3n+2) series times f4 generates the signed pentagonal B-sums")

    congr("altsum_series_mod3",
          fq({2: 12, 12: 3, 1: -6, 4: -9}),
          fq({6: 4, 3: -2}),
          3, "the signed-sum series collapses to f6^4/f3^2 mod 3")
    congr("altsum_class1_vanishes",
          Dissect(fq({2: 12, 12: 3, 1: -6, 4: -9}), 3, 1), Literal(0),
          3, "f6^4/f3^2 mod 3 has only cube powers: class 1 is empty")
    congr("altsum_class2_vanishes",
          Dissect(fq({2: 12, 12: 3, 1: -6, 4: -9}), 3, 2), Literal(0),
          3, "f6^4/f3^2 mod 3 has only cube powers: class 2 is empty")
    congr("altsum_class0_mod3",
          Dissect(fq({2: 12, 12: 3, 1: -6, 4: -9}), 3, 0),
          fq({2: 4, 1: -2}),
          3, "cube-power branch of the signed-sum series mod 3")

    # ---- the level-12 h algebra --------------------------------------------

    exact("h_sum_recip",
          add(Named("h_inv"), Named("h")),
          fq({3: 3, 4: 1, 1: -1, 12: -3}, qshift=-1),
          "level-12 continued fraction: 1/h + h as an eta quotient")
    exact("h_sum_recip_m1",
          add(Named("h_inv"), Literal(-1), Named("h")),
          fq({4: 4, 6: 2, 2: -2, 12: -4}, qshift=-1),
          "level-12 continued fraction: 1/h - 1 + h")
    exact("h_sum_recip_m2",
          add(Named("h_inv"), Literal(-2), Named("h")),
          fq({1: 1, 4: 2, 6: 9, 2: -3, 3: -3, 12: -6}, qshift=-1),
          "level-12 continued fraction: 1/h - 2 + h")
    exact("h_sum_recip_m4",
          add(Named("h_inv"), Literal(-4), Named("h")),
          fq({1: 3, 4: 1, 6: 2, 2: -2, 3: -1, 12: -3}, qshift=-1),
          "level-12 continued fraction: 1/h - 4 + h")
    exact("eta_triple_balance",
          add(fq({12: 3, 2: 3, 3: 6}), fq({1: 2, 4: 1, 6: 9})),
          Scale(2, fq({1: 1, 2: 1, 3: 3, 4: 3, 6: 2, 12: 2})),
          "derived: six-eta balance obtained from the h algebra")

    h1 = fq({3: 3, 4: 1, 1: -1, 12: -3}, qshift=-1)          # 1/h + h
    h2e = fq({4: 4, 6: 2, 2: -2, 12: -4}, qshift=-1)         # 1/h - 1 + h
    h3 = fq({1: 1, 4: 2, 6: 9, 2: -3, 3: -3, 12: -6}, qshift=-1)   # 1/h - 2 + h
    h4 = fq({1: 3, 4: 1, 6: 2, 2: -2, 3: -1, 12: -3}, qshift=-1)   # 1/h - 4 + h
    combo = add(Scale(2, h1), Scale(-3, h3), Literal(-3),
                Scale(2, fq({2: 3, 3: 3, 12: 6, 1: -1, 4: -2, 6: -9}, qshift=1)))
    exact("h_algebra_product",
          combo,
          Scale(-1, fq({1: 2, 3: 2, 4: 3, 2: -1, 6: -5, 12: -1}, qshift=-1)),
          "derived: the four-term h combination collapses to a single quotient")
    exact("h_algebra_factored",
          combo,
          Scale(-1, mul(h4, h2e, Pow(h3, -1))),
          "derived: same combination factored through the h algebra")

    # ---- cubic theta expansions --------------------------------------------

    exact("alpha_eta_expansion",
          Named("alpha"),
          add(fq({2: 6, 3: 1, 1: -3, 6: -2}),
              Scale(3, Shift(1, fq({6: 6, 1: 1, 3: -3, 2: -2})))),
          "eta-quotient expansion of the cubic theta")
    exact("alpha_q4_contraction",
          alpha_q(4),
          add(Named("alpha"),
              Scale(-6, Shift(1, fq({4: 2, 12: 2, 2: -1, 6: -1})))),
          "alpha(q^4) in terms of alpha(q)")
    exact("alpha_q4_expansion",
          alpha_q(4),
          add(fq({2: 6, 3: 1, 1: -3, 6: -2}),
              Scale(3, Shift(1, add(fq({6: 6, 1: 1, 3: -3, 2: -2}),
                                    Scale(-2, fq({4: 2, 12: 2, 2: -1, 6: -1})))))),
          "derived: eta-quotient expansion of alpha(q^4)")
    congr("alpha_q4_squared_mod9",
          Pow(alpha_q(4), 2),
          add(fq({2: 12, 3: 2, 1: -6, 6: -4}),
              Scale(6, Shift(1, add(fq({2: 4, 6: 4, 1: -2, 3: -2}),
                                    Scale(-2, fq({2: 5, 3: 1, 4: 2, 12: 2,
                                                  1: -3, 6: -3})))))),
          9, "derived: alpha(q^4)^2 mod 9")

    # ---- mod-9 structure of B(3n+1) and B(9n+7) ----------------------------

    congr("gf_b_3n1_alpha_mod9",
          Dissect(B, 3, 1),
          add(Scale(2, mul(Pow(alpha_q(4), 2),
                           fq({2: 1, 3: 1, 6: 1, 12: 3, 1: -1, 4: -10}))),
              Scale(3, Shift(1, mul(alpha_q(4),
                                    fq({2: 2, 3: 4, 12: 6, 1: -2, 6: -2, 4: -11}))))),
          9, "derived: the B(3n+1) series mod 9, cubic-theta form")
    exact("zero_combination",
          add(fq({2: 5, 6: 5, 12: 3, 1: -3, 3: -1, 4: -10}),
              Scale(-2, fq({2: 6, 3: 2, 12: 5, 1: -4, 4: -8, 6: -2})),
              fq({2: 8, 3: 5, 12: 6, 1: -5, 4: -11, 6: -4})),
          Literal(0),
          "derived: three-quotient combination that vanishes identically")
    congr("gf_b_3n1_mod9",
          Dissect(B, 3, 1),
          Scale(2, fq({1: 2, 2: 4, 4: -1})),
          9, "derived: the B(3n+1) generating function mod 9")

    exact("split3_f1f4_over_f2",
          fq({1: 1, 4: 1, 2: -1}),
          add(fq({3: 1, 12: 1, 18: 5, 6: -2, 9: -2, 36: -2}),
              Scale(-1, Shift(1, fq({9: 1, 36: 1, 18: -1})))),
          "3-dissection of f1 f4/f2")
    exact("split3_f1sq_over_f2",
          fq({1: 2, 2: -1}),
          add(fq({9: 2, 18: -1}),
              Scale(-2, Shift(1, fq({3: 1, 18: 2, 6: -1, 9: -1})))),
          "3-dissection of f1^2/f2")

    rhs_414 = add(fq({3: 1, 12: 1, 18: 5, 6: -2, 9: -2, 36: -2}),
                  Scale(-1, Shift(1, fq({9: 1, 36: 1, 18: -1}))))
    rhs_415_sub2 = add(fq({18: 2, 36: -1}),
                       Scale(-2, Shift(2, fq({6: 1, 36: 2, 12: -1, 18: -1}))))
    congr("gf_b_3n1_9adic_composition",
          Dissect(B, 3, 1),
          Scale(2, mul(Pow(rhs_414, 2), Pow(rhs_415_sub2, 3))),
          9, "the B(3n+1) series mod 9 rebuilt from the two 3-dissections")

    congr("gf_b_9n7_expanded_mod9",
          Dissect(Dissect(B, 3, 1), 3, 2),
          add(Scale(2, fq({3: 2, 6: 4, 12: -1})),
              Scale(-3, fq({1: 2, 4: 1, 6: 13, 2: -3, 3: -4, 12: -4})),
              Scale(-3, Shift(1, fq({1: 1, 6: 4, 12: 2, 3: -1, 4: -1}))),
              Scale(2, Shift(2, fq({2: 3, 3: 2, 12: 8, 4: -3, 6: -5})))),
          9, "derived: four-term form of the B(9n+7) series mod 9")
    congr("gf_b_9n7_mod9",
          Dissect(Dissect(B, 3, 1), 3, 2),
          Scale(-1, fq({1: 3, 3: 1, 4: 2, 12: 1, 2: -1, 6: -1})),
          9, "derived: the B(9n+7) generating function mod 9")

    exact("f1_cubed_3split",
          fq({1: 3}),
          add(mul(alpha_q(3), fq({3: 1})),
              Scale(-3, Shift(1, fq({9: 3})))),
          "3-dissection of f1^3 via the cubic theta")
    congr("gf_b_27n16_mod9",
          Dissect(Dissect(Dissect(B, 3, 1), 3, 2), 3, 1),
          Scale(3, fq({1: 1, 3: 3, 4: 2, 6: 2, 2: -2, 12: -1})),
          9, "derived: the B(27n+16) generating function mod 9")

    # ---- weighted-sum series for the mod-9 and mod-7 families --------------

    congr("weighted_sum_3n1_mod9",
          Scale(2, fq({1: 2, 2: 4})),
          mul(Dissect(B, 3, 1), Subst(4, Named("pentagonal"))),
          9, "the B(3n+1) series times f4 generates the signed pentagonal sums mod 9")
    congr("weighted_sum_27n16_mod9",
          mul(Dissect(Dissect(Dissect(B, 3, 1), 3, 2), 3, 1),
              Subst(2, Named("slope_3k1"))),
          Scale(3, fq({1: 1, 3: 3, 4: 7, 6: 2, 2: -4, 12: -1})),
          9, "the B(27n+16) series times f4^5/f2^2 mod 9")
    congr("weighted_sum_27n16_reduced",
          Scale(3, fq({1: 1, 3: 3, 4: 7, 6: 2, 2: -4, 12: -1})),
          Scale(3, mul(fq({3: 3, 6: 1, 12: 1}), fq({1: 1, 4: 1, 2: -1}))),
          9, "derived: the weighted-sum series contracts to 3 f3^3 f6 f12 f1f4/f2 mod 9")
    congr("weighted_sum_class2_vanishes",
          Dissect(Scale(3, mul(fq({3: 3, 6: 1, 12: 1}), fq({1: 1, 4: 1, 2: -1}))),
                  3, 2),
          Literal(0),
          9, "class 2 mod 3 of the contracted weighted-sum series vanishes mod 9")

    congr("gf_b_7n2_mod7",
          Dissect(B, 7, 2),
          fq({1: 1, 2: 2, 4: 2, 14: 2, 7: -1, 28: -1}),
          7, "derived: the B(7n+2) generating function mod 7")

    exact("gamma0_28_decomposition",
          mul(fq({1: 6, 4: 19, 14: 13, 2: -11, 28: -26}, qshift=-20),
              Dissect(B, 7, 2)),
          add(poly_in(X28, POLY_1),
              mul(Y28, poly_in(X28, POLY_Y)),
              mul(Z28, poly_in(X28, POLY_Z))),
          "modular-function decomposition of the B(7n+2) series on Gamma0(28)",
          order=130)  # 150 coefficients above the common valuation -20

    congr("hexweight_series_mod7",
          fq({1: 1, 14: 3, 7: -1, 28: -1}),
          mul(Dissect(B, 7, 2), Subst(2, Named("slope_6k1"))),
          7, "the B(7n+2) series times f2^5/f4^2 generates the 6k+1-weighted sums mod 7")
    for j in (3, 4, 6):
        congr(f"hexweight_class{j}_vanishes",
              Dissect(fq({1: 1, 14: 3, 7: -1, 28: -1}), 7, j), Literal(0),
              7, f"class {j} mod 7 of the weighted-sum series vanishes mod 7")
    congr("hexweight_7n2_mod7",
          Dissect(fq({1: 1, 14: 3, 7: -1, 28: -1}), 7, 2),
          Scale(-1, fq({2: 3, 7: 1, 1: -1, 4: -1})),
          7, "class 2 mod 7 of the weighted-sum series; the sign comes from "
             "the -q^2 term in the 7-dissection of f1")
    for j in (3, 4, 6):
        exact(f"pentagonal_class{j}_empty",
              Dissect(fq({1: 1}), 7, j), Literal(0),
              f"pentagonal exponents never fall in class {j} mod 7")

    return E


_REGISTRY = None


def registry():
    """The full identity catalog, in a fixed order."""
    global _REGISTRY
    if _REGISTRY is None:
        entries = _entries()
        names = [e.name for e in entries]
        if len(names) != len(set(names)):
            raise ValueError("duplicate registry names")
        _REGISTRY = tuple(entries)
    return _REGISTRY


def names():
    return [e.name for e in registry()]


def get(name):
    for e in registry():
        if e.name == name:
            return e
    raise KeyError(f"no identity named {name!r}")


def verify(entry, order=None):
    """Verify one entry; failure is a report, not an exception."""
    if isinstance(entry, str):
        entry = get(entry)
    T = entry.default_order if order is None else order
    lhs = evaluate(entry.lhs, T, entry.modulus)
    rhs = evaluate(entry.rhs, T, entry.modulus)
    e = lhs.first_mismatch(rhs, T)
    if e is None:
        return VerificationReport(entry.name, entry.modulus, T, True)
    return VerificationReport(entry.name, entry.modulus, T, False,
                              mismatch_exponent=e,
                              lhs_coeff=lhs.coeff(e), rhs_coeff=rhs.coeff(e))


def verify_all(order=None):
    """Verify every entry; results in catalog order."""
    return [verify(e, order) for e in registry()]


def perturbed(entry, exponent=None):
    """Copy of an entry with one coefficient of the right side bumped by 1."""
    if isinstance(entry, str):
        entry = get(entry)
    if exponent is None:
        exponent = max(predicted_valuation(entry.rhs), 0) + 2
    return IdentitySpec(entry.name + "__perturbed", entry.lhs,
                        Add((entry.rhs, Shift(exponent, Literal(1)))),
                        entry.modulus, entry.default_order, entry.ref)


def registry_to_json(indent=2):
    """The catalog as a JSON document (schema documented in the README)."""
    doc = [{"name": e.name,
            "citation": e.ref,
            "modulus": e.modulus,
            "order": e.default_order,
            "lhs": expr_to_dict(e.lhs),
            "rhs": expr_to_dict(e.rhs)}
           for e in registry()]
    return json.dumps(doc, indent=indent)


def registry_from_json(text):
    """Parse a JSON export back into identity specs (for external tooling)."""
    return [IdentitySpec(d["name"], expr_from_dict(d["lhs"]), expr_from_dict(d["rhs"]),
                         d["modulus"], d["order"], d["citation"])
            for d in json.loads(text)]
