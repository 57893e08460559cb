"""Numerical verification of the congruence families for the triple
counting function B(n), plus an affine congruence scanner.

The weighted sums are recomputed from a plain table of B values (pure
integer lookups), deliberately independent of the dissection machinery in
the identity catalog, so a bug in one route cannot hide in the other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isqrt

from .partitions import FAMILIES
from .products import (CUBE, TRIANGULAR, WEIGHT_RULES, FQuotientSpec,
                       bilateral, fquotient)
from .series import LaurentSeries, SeriesError

_b_oracle_checked = False


def b_table(N, modulus=None):
    """B(0..N) from the series engine.

    Expands (f_2^2/f_1)^2 / f_4^3 with both numerator and denominator in
    sparse theta form, so the table costs O(N^1.5) coefficient operations.
    Exact calls cross-check the prefix [0, 400] against the combinatorial
    triple-counting oracle until one check has passed; while it is pending
    the table is expanded through at least q^400.
    """
    global _b_oracle_checked
    if N < 0:
        raise ValueError("table size must be >= 0")
    check = modulus is None and not _b_oracle_checked
    T = max(N, 400) if check else N
    tri = bilateral(TRIANGULAR, T, modulus)
    f4cubed = bilateral(CUBE, T // 4, modulus).substitute(4) if T >= 4 \
        else LaurentSeries.one(T, modulus)
    ser = tri.mul(tri).divide(f4cubed)
    table = [ser.coeff(n) for n in range(T + 1)]
    if check:
        from .partitions import count_triples
        if table[:401] != count_triples(400):
            raise SeriesError("series engine disagrees with the "
                              "combinatorial B oracle")
        _b_oracle_checked = True
    return table[:N + 1]


# -- simple congruences B(An + r) = 0 (mod m) ---------------------------------

@dataclass
class SimpleReport:
    stride: int
    residue: int
    modulus: int
    n_max: int
    passed: bool
    counterexample: tuple | None = None  # (n, argument, B value)

    def __str__(self):
        claim = f"B({self.stride}n+{self.residue}) = 0 (mod {self.modulus})"
        if self.passed:
            return f"PASS {claim} for n <= {self.n_max}"
        n, arg, val = self.counterexample
        return (f"FAIL {claim}: n={n}, B({arg}) = {val} "
                f"= {val % self.modulus} (mod {self.modulus})")


def verify_simple(stride, residue, modulus, n_max, table=None):
    """Check B(stride*n + residue) = 0 (mod modulus) for 0 <= n <= n_max."""
    if stride < 1 or not 0 <= residue < stride or modulus < 2:
        raise ValueError("need stride >= 1, 0 <= residue < stride, modulus >= 2")
    need = stride * n_max + residue
    if table is None:
        table = b_table(need)
    elif len(table) <= need:
        raise ValueError(f"table too small: need B through {need}, "
                         f"have {len(table) - 1}")
    for n in range(n_max + 1):
        arg = stride * n + residue
        if table[arg] % modulus:
            return SimpleReport(stride, residue, modulus, n_max, False,
                                (n, arg, table[arg]))
    return SimpleReport(stride, residue, modulus, n_max, True)


# -- weighted bilateral sums over pentagonal-type arguments -------------------

@dataclass(frozen=True)
class CongruenceClaim:
    """A family  sum_k weight(k) * B(base(params) + stride(params)*n - quad(k))
    = 0 (mod modulus), checked over a finite parameter grid.

    ``k_quad = (c2, c1)`` describes the offset c2*k^2 + c1*k subtracted from
    the affine part; k ranges over all integers (terms with a negative
    B-argument vanish).  ``k_quad = None`` pins k = 0 (a plain congruence).
    """

    name: str
    description: str
    modulus: int
    weight: str
    k_quad: tuple[int, int] | None
    param_space: tuple
    n_max: int
    # stride/base take one parameter tuple and return integers
    stride: object = field(repr=False, default=None)
    base: object = field(repr=False, default=None)

    def k_range(self, max_base):
        if self.k_quad is None:
            return (0,)
        c2, _ = self.k_quad
        K = isqrt(max(max_base, 0) // c2) + 2
        return range(-K, K + 1)

    def term_offsets(self, max_base):
        if self.k_quad is None:
            return {0: 0}
        c2, c1 = self.k_quad
        return {k: c2 * k * k + c1 * k for k in self.k_range(max_base)}

    def max_argument(self):
        out = 0
        for params in self.param_space:
            out = max(out, self.base(params) + self.stride(params) * self.n_max)
        return out


@dataclass
class ClaimReport:
    name: str
    modulus: int
    n_max: int
    checked: int
    max_argument: int
    passed: bool
    violations: list = field(default_factory=list)
    note: str = ""

    def __str__(self):
        if self.passed:
            return (f"PASS {self.name} (mod {self.modulus}): {self.checked} sums, "
                    f"n <= {self.n_max}, B-arguments <= {self.max_argument}")
        v = self.violations[0]
        return (f"FAIL {self.name} (mod {self.modulus}) at params={v['params']} "
                f"n={v['n']}: sum = {v['sum']}")


def verify_weighted(claim, table=None, n_max=None):
    """Evaluate every sum of the claim family from the B table alone."""
    n_max = claim.n_max if n_max is None else n_max
    weight = WEIGHT_RULES[claim.weight]
    max_base = max(claim.base(p) + claim.stride(p) * n_max
                   for p in claim.param_space)
    if table is None:
        table = b_table(max_base)
    elif len(table) <= max_base:
        raise ValueError(f"table too small: need B through {max_base}, "
                         f"have {len(table) - 1}")
    offsets = claim.term_offsets(max_base)
    report = ClaimReport(claim.name, claim.modulus, n_max, 0, max_base, True,
                         note=claim.description)
    for params in claim.param_space:
        stride = claim.stride(params)
        base = claim.base(params)
        for n in range(n_max + 1):
            head = base + stride * n
            total = 0
            terms = []
            for k, off in offsets.items():
                arg = head - off
                if arg >= 0:
                    w = weight(k)
                    terms.append((k, arg, table[arg], w))
                    total += w * table[arg]
            report.checked += 1
            if total % claim.modulus:
                report.passed = False
                report.violations.append({
                    "claim": claim.name, "params": params, "n": n,
                    "k_terms": terms, "sum": total,
                    "modulus": claim.modulus, "pass": False})
    return report


def _int_quarter(x):
    q, r = divmod(x, 4)
    if r:
        raise ValueError(f"{x} is not divisible by 4: argument would not be "
                         f"an integer")
    return q


def default_claims():
    """The seven built-in congruence-claim families."""
    p_mod3 = (7, 11, 19, 23)   # primes = 3 (mod 4), sampled
    p_mod9 = (7, 11, 19, 23)   # primes = 7 or 11 (mod 12), sampled
    for p in p_mod3:
        if p % 4 != 3 or p < 5:
            raise ValueError(f"sampled prime {p} is not = 3 (mod 4) and >= 5")
        _int_quarter(9 * (p * p - 1))
    for p in p_mod9:
        if p % 12 not in (7, 11):
            raise ValueError(f"sampled prime {p} is not = 7 or 11 (mod 12)")
        _int_quarter(5 * (p * p - 1))

    return (
        CongruenceClaim(
            "b-27n16-mod3", "B(27n+16) = 0 (mod 3)",
            3, "1", None, ((),), 400,
            stride=lambda _: 27, base=lambda _: 16),
        CongruenceClaim(
            "altsum-9n-mod3",
            "sum (-1)^k B(9n+3j+2-6k(3k+1)) = 0 (mod 3), j in {1,2}",
            3, "(-1)^k", (18, 6), ((1,), (2,)), 300,
            stride=lambda p: 9, base=lambda p: 3 * p[0] + 2),
        CongruenceClaim(
            "altsum-prime-mod3",
            "sum (-1)^k B(9p^2 n + 9pr + 9(p^2-1)/4 + 2 - 6k(3k+1)) = 0 (mod 3), "
            "p = 3 (mod 4) prime (sampled), r in 1..p-1",
            3, "(-1)^k", (18, 6),
            tuple((p, r) for p in p_mod3 for r in range(1, p)), 1,
            stride=lambda pr: 9 * pr[0] * pr[0],
            base=lambda pr: 9 * pr[0] * pr[1] + _int_quarter(9 * (pr[0] ** 2 - 1)) + 2),
        CongruenceClaim(
            "altsum-prime-mod9",
            "sum (-1)^k B(3p^2 n + 3pr + 5(p^2-1)/4 + 1 - 6k(3k+1)) = 0 (mod 9), "
            "p = 7 or 11 (mod 12) prime (sampled), r in 1..p-1",
            9, "(-1)^k", (18, 6),
            tuple((p, r) for p in p_mod9 for r in range(1, p)), 2,
            stride=lambda pr: 3 * pr[0] * pr[0],
            base=lambda pr: 3 * pr[0] * pr[1] + _int_quarter(5 * (pr[0] ** 2 - 1)) + 1),
        CongruenceClaim(
            "pentweight-81n70-mod9",
            "sum (-1)^k (3k+1) B(81n+70-54k(3k+2)) = 0 (mod 9)",
            9, "(-1)^k(3k+1)", (162, 108), ((),), 150,
            stride=lambda _: 81, base=lambda _: 70),
        CongruenceClaim(
            "hexweight-49n-mod7",
            "sum (6k+1) B(49n+7j+2-7k(3k+1)) = 0 (mod 7), j in {3,4,6}",
            7, "6k+1", (21, 7), ((3,), (4,), (6,)), 150,
            stride=lambda p: 49, base=lambda p: 7 * p[0] + 2),
        CongruenceClaim(
            "hexweight-343n-mod7",
            "sum (6k+1) B(343n+49j+16-7k(3k+1)) = 0 (mod 7), j in {3,4,6}",
            7, "6k+1", (21, 7), ((3,), (4,), (6,)), 25,
            stride=lambda p: 343, base=lambda p: 49 * p[0] + 16),
    )


def claim_names():
    return [c.name for c in default_claims()]


def get_claim(name):
    for c in default_claims():
        if c.name == name:
            return c
    raise KeyError(f"no claim family named {name!r}")


def run_claims(claims=None, n_max=None, out=None):
    """Verify claim families against one shared B table.

    The largest required B-argument is computed and announced before any
    table is built; reports come back in claim order.
    """
    if claims is None:
        claims = default_claims()
    need = max(c.max_argument() if n_max is None
               else max(c.base(p) + c.stride(p) * n_max for p in c.param_space)
               for c in claims)
    if out is not None:
        out(f"largest B-argument required: {need}")
    table = b_table(need)
    return [verify_weighted(c, table=table, n_max=n_max) for c in claims]


# -- affine congruence scanner ------------------------------------------------

@dataclass(frozen=True)
class ScanHit:
    stride: int
    residue: int
    modulus: int
    evidence: int  # number of n values checked
    known: bool

    def __str__(self):
        mark = "  [known]" if self.known else ""
        return (f"({self.stride}n+{self.residue}) = 0 mod {self.modulus} "
                f"[{self.evidence} values]{mark}")


def scan(gf, stride_max, moduli, n_max):
    """All (A <= stride_max, r < A, m in moduli) with coefficient(An+r) = 0
    (mod m) for every n <= n_max; literature-stated triples are marked."""
    spec = FQuotientSpec.of(gf)
    if stride_max > 60:
        raise ValueError("stride bound capped at 60")
    if n_max < 50:
        raise ValueError("need n_max >= 50 for meaningful evidence")
    T = stride_max * (n_max + 1) - 1
    ser = fquotient(spec, T)
    exact = [ser.coeff(n) for n in range(T + 1)]
    known = next((f.known for f in FAMILIES.values()
                  if FQuotientSpec.of(f.gf) == spec), frozenset())
    hits = []
    for m in sorted(moduli):
        residues = [c % m for c in exact]
        for A in range(1, stride_max + 1):
            for r in range(A):
                if all(residues[A * n + r] == 0 for n in range(n_max + 1)):
                    hits.append(ScanHit(A, r, m, n_max + 1, (A, r, m) in known))
    hits.sort(key=lambda h: (h.stride, h.residue, h.modulus))
    return hits
