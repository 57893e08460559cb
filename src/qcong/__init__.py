"""qcong: exact q-series arithmetic and machine verification of
Ramanujan-type partition congruences.

The toolkit centers on the counting function B(n) of partition triples
(pi1, pi2, pi3) of n in which pi1 and pi2 consist of distinct odd parts
and pi3 of parts divisible by 4, with generating function
f_2^4/(f_1^2 f_4^3).  It provides:

  * exact truncated Laurent arithmetic over Z and Z/mZ (series),
  * builders for Euler products, eta quotients, theta-type sums, the
    cubic lattice theta and the level-12 product h(q) (products),
  * independent combinatorial counting oracles: part lists (Parts)
    folded into one table by knapsack (partitions),
  * a catalog of 60+ exact and modular identities with a verifier
    (identities / expr),
  * congruence-family checks and an affine congruence scanner (theorems),
  * a command-line front end (cli).
"""

from .series import (InsufficientPrecision, LaurentSeries, NotInvertible,
                     RingMismatch, SeriesError)
from .products import (BILATERAL_SUMS, CUBE, PENTAGONAL, SIGNED_PENTAGONAL,
                       SLOPE_3K1, SLOPE_6K1, TRIANGULAR, BilateralSum,
                       FQuotientSpec, bilateral, cubic_theta_alpha, euler_f,
                       euler_f_product, fquotient, h_level12)
from .partitions import Parts, count_family, count_table, count_triples
from .expr import (Add, Dissect, FQuot, Literal, Mul, Named, Pow, Scale,
                   SeriesExpr, Shift, Subst, alpha_q, evaluate, expr_from_dict,
                   expr_to_dict, fq, poly_in)
from .identities import (IdentitySpec, VerificationReport, get, perturbed,
                         registry, registry_from_json, registry_to_json,
                         verify, verify_all)
from .theorems import (ClaimReport, CongruenceClaim, ScanHit, SimpleReport,
                       b_table, default_claims, get_claim, scan,
                       verify_simple, verify_weighted)

__version__ = "0.1.0"

__all__ = [
    "LaurentSeries", "SeriesError", "RingMismatch", "NotInvertible",
    "InsufficientPrecision",
    "FQuotientSpec", "BilateralSum", "euler_f", "euler_f_product", "fquotient",
    "bilateral", "cubic_theta_alpha", "h_level12",
    "PENTAGONAL", "CUBE", "TRIANGULAR", "SLOPE_3K1", "SLOPE_6K1",
    "SIGNED_PENTAGONAL", "BILATERAL_SUMS",
    "Parts", "count_table", "count_triples", "count_family",
    "SeriesExpr", "FQuot", "Named", "Literal", "Add", "Mul", "Pow", "Scale",
    "Shift", "Subst", "Dissect", "fq", "alpha_q", "poly_in", "evaluate",
    "expr_to_dict", "expr_from_dict",
    "IdentitySpec", "VerificationReport", "registry", "get", "verify",
    "verify_all", "perturbed", "registry_to_json", "registry_from_json",
    "b_table", "SimpleReport", "verify_simple", "CongruenceClaim",
    "ClaimReport", "verify_weighted", "default_claims", "get_claim", "scan",
    "ScanHit",
]
