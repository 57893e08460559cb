"""Numerical verification of the congruence families for the triple
counting function B(n), plus an affine congruence scanner.

The weighted sums are recomputed from a plain table of B values (pure
integer lookups; B modulo the lcm of the checked moduli, exact for a
failure report), deliberately independent of the dissection machinery in
the identity catalog, so a bug in one route cannot hide in the other.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import partial
from math import isqrt, lcm
from operator import mul

from . import partitions
from .partitions import FAMILIES
from .products import WEIGHT_RULES, FQuotientSpec, expand_factors, fquotient
from .records import FrozenRecord, Record
from .series import MAX_MODULUS, SeriesError


def b_table(N, modulus=None):
    """B(0..N) from the series engine, over Z or Z/modulus.

    Expands B's f-quotient through the theta planner: the plan is
    (f_2^2/f_1)^2 / f_4^3, two sparse theta blocks over a sparse divisor.
    Over Z every pass is sparse and sequential, O(N^1.5) coefficient
    operations.  Over Z/m the planner inverts f_1^3 at length N/4 (Newton
    doubling on the packed product of ``series``) and multiplies the square
    of f_2^2/f_1 by it under q -> q^4, one packed product of four classes
    of N/4 coefficients.  The uncached ``expand_factors`` is used, so no
    cache keeps the big series of B alive after the table is read; the
    inverse of f_1^3 mod m stays in the planner's cache of denominator
    inverses.
    Every call is cross-checked on the prefix [0, 400]: an exact table is
    expanded through at least q^400 and compared with the combinatorial
    triple-counting oracle, a residue table with the exact ``b_table(400)``
    reduced mod m.  A mismatch raises SeriesError.
    """
    if N < 0:
        raise ValueError("table size must be >= 0")
    T = N if modulus is not None else max(N, 400)
    ser = expand_factors(FAMILIES["B"].gf.factors, T, modulus)
    table = ser.coeff_window(0, T)
    if modulus is None:
        if table[:401] != partitions.count_triples(400):
            raise SeriesError("series engine disagrees with the "
                              "combinatorial B oracle")
    elif table[:401] != [b % modulus for b in b_table(400)[:T + 1]]:
        raise SeriesError(f"the B table mod {modulus} disagrees with the "
                          f"exact table")
    return table[:N + 1]


def _ring(moduli):
    """The modulus lcm(moduli) when it is a valid series modulus, else None
    (Z): every residue mod one of the moduli can be read over that ring."""
    M = lcm(*moduli)
    return M if M < MAX_MODULUS else None


# -- simple congruences B(An + r) = 0 (mod m) ---------------------------------

#: name -> (stride, residue, modulus, n_max) of the plain congruences
SIMPLE_CHECKS = {
    "b-2n1-mod2": (2, 1, 2, 2000),
    "b-5n4-mod5": (5, 4, 5, 2000),
}


class SimpleReport(Record):
    def __init__(self, stride, residue, modulus, n_max, passed,
                 counterexample=None):
        self.stride = stride
        self.residue = residue
        self.modulus = modulus
        self.n_max = n_max
        self.passed = passed
        self.counterexample = counterexample  # (n, argument, B value)

    def __str__(self):
        claim = f"B({self.stride}n+{self.residue}) = 0 (mod {self.modulus})"
        if self.passed:
            return f"PASS {claim} for n <= {self.n_max}"
        n, arg, val = self.counterexample
        return (f"FAIL {claim}: n={n}, B({arg}) = {val} "
                f"= {val % self.modulus} (mod {self.modulus})")


def verify_simple(stride, residue, modulus, n_max, table=None):
    """Check B(stride*n + residue) = 0 (mod modulus) for 0 <= n <= n_max."""
    if stride < 1 or not 0 <= residue < stride or modulus < 2 or n_max < 0:
        raise ValueError("need stride >= 1, 0 <= residue < stride, modulus >= 2, "
                         "n_max >= 0")
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

class CongruenceClaim(FrozenRecord):
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
    stride: object = None
    base: object = None
    _hidden = ("stride", "base")  # functions, whose repr is an address

    def term_offsets(self, max_base):
        """k -> offset for every k whose term can have an argument in
        [0, max_base]; terms outside this range have negative arguments."""
        if self.k_quad is None:
            return {0: 0}
        c2, c1 = self.k_quad
        K = isqrt(max(max_base, 0) // c2) + 2
        return {k: c2 * k * k + c1 * k for k in range(-K, K + 1)}

    def max_argument(self, n_max=None):
        """Largest affine B-argument base + stride*n over the parameter grid
        for n <= n_max (default: the claim's own n_max)."""
        n_max = self.n_max if n_max is None else n_max
        if n_max < 0:
            raise ValueError(f"n_max must be >= 0, got {n_max}")
        return max(self.base(p) + self.stride(p) * n_max for p in self.param_space)


class ClaimReport(Record):
    def __init__(self, name, modulus, n_max, checked, max_argument, passed,
                 violations=None, note=""):
        self.name = name
        self.modulus = modulus
        self.n_max = n_max
        self.checked = checked
        self.max_argument = max_argument
        self.passed = passed
        self.violations = [] if violations is None else violations
        self.note = note

    def __str__(self):
        if self.passed:
            return (f"PASS {self.name} (mod {self.modulus}): {self.checked} sums, "
                    f"n <= {self.n_max}, B-arguments <= {self.max_argument}")
        v = self.violations[0]
        return (f"FAIL {self.name} (mod {self.modulus}) at params={v['params']} "
                f"n={v['n']}: sum = {v['sum']}")


def verify_weighted(claim, table=None, n_max=None):
    """Evaluate every sum of the claim family from the B table alone.

    The offsets are sorted and weighted once; the terms of a sum whose
    B-argument is >= 0 are then a prefix of them, found by ``bisect``, and
    summed by one ``sum(map(mul, ...))``.  A failing sum's terms are listed
    in k order for its report."""
    n_max = claim.n_max if n_max is None else n_max
    weight = WEIGHT_RULES[claim.weight]
    max_base = claim.max_argument(n_max)
    if table is None:
        table = b_table(max_base)
    elif len(table) <= max_base:
        raise ValueError(f"table too small: need B through {max_base}, "
                         f"have {len(table) - 1}")
    offsets = claim.term_offsets(max_base)
    ks = sorted(offsets, key=offsets.get)
    offs = [offsets[k] for k in ks]
    ws = [weight(k) for k in ks]
    report = ClaimReport(claim.name, claim.modulus, n_max, 0, max_base, True,
                         note=claim.description)
    for params in claim.param_space:
        stride = claim.stride(params)
        base = claim.base(params)
        for n in range(n_max + 1):
            head = base + stride * n
            live = bisect_right(offs, head)
            total = sum(map(mul, ws, map(table.__getitem__,
                                         map(head.__sub__, offs[:live]))))
            if total % claim.modulus:
                terms = [(k, head - off, table[head - off], weight(k))
                         for k, off in offsets.items() if off <= head]
                report.passed = False
                report.violations.append({
                    "claim": claim.name, "params": params, "n": n,
                    "k_terms": terms, "sum": total,
                    "modulus": claim.modulus, "pass": False})
        report.checked += n_max + 1
    return report


def _int_quarter(x):
    q, r = divmod(x, 4)
    if r:
        raise ValueError(f"{x} is not divisible by 4: argument would not be "
                         f"an integer")
    return q


#: the primes the two prime families are checked at by default
SAMPLED_PRIMES = (7, 11, 19, 23)

#: the largest prime ``default_claims`` accepts: a prime p needs B through
#: N = 20.25 p^2 or so (101441 at p = 71), and the table of B mod 630 is
#: two theta blocks, a Newton inverse at length N/4 and one packed product
#: of four classes, whose cost grows a little faster than N: 0.23-0.31 s
#: at p = 71 and 0.56 s at p = 100 (N = 202500), cold, wall time of three
#: runs each (shared 2-core x86-64, Python 3.11)
MAX_SAMPLED_PRIME = 100


def is_sampled_prime(p):
    """Whether p can parametrize the prime families: a prime p >= 5 with
    p = 3 (mod 4), which for such primes is the same as p = 7 or 11 (mod 12)."""
    return (p >= 5 and p % 4 == 3
            and all(p % d for d in range(3, isqrt(p) + 1, 2)))


def default_claims(primes=SAMPLED_PRIMES):
    """The seven built-in congruence-claim families, with the two prime
    families over the parameters (p, r), p in ``primes``, 1 <= r < p."""
    if any(p > MAX_SAMPLED_PRIME for p in primes):
        raise ValueError(f"sampled primes must be at most {MAX_SAMPLED_PRIME}, "
                         f"got {list(primes)}")
    if not primes or not all(is_sampled_prime(p) for p in primes):
        raise ValueError(f"sampled primes must be primes p >= 5 with "
                         f"p = 3 (mod 4), got {list(primes)}")
    if len(set(primes)) < len(primes):
        raise ValueError(f"sampled primes must be distinct, got {list(primes)}")
    prime_grid = tuple((p, r) for p in primes for r in range(1, p))

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
            3, "(-1)^k", (18, 6), prime_grid, 1,
            stride=lambda pr: 9 * pr[0] * pr[0],
            base=lambda pr: 9 * pr[0] * pr[1] + _int_quarter(9 * (pr[0] ** 2 - 1)) + 2),
        CongruenceClaim(
            "altsum-prime-mod9",
            "sum (-1)^k B(3p^2 n + 3pr + 5(p^2-1)/4 + 1 - 6k(3k+1)) = 0 (mod 9), "
            "p = 7 or 11 (mod 12) prime (sampled), r in 1..p-1",
            9, "(-1)^k", (18, 6), prime_grid, 2,
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


def theorem_names():
    """Every congruence family: the plain ones, then the claim families."""
    return list(SIMPLE_CHECKS) + claim_names()


def get_claim(name):
    for c in default_claims():
        if c.name == name:
            return c
    raise KeyError(f"no claim family named {name!r}")


def _verify(simple, claims, n_max, out):
    """Reports for the plain congruences ``simple`` (stride, residue,
    modulus, n_max), then the claim families, all read from one table of B
    modulo the lcm of their moduli.  A report that FAILs is recomputed from
    the exact table, so the B values and sums it shows are exact.

    The largest B-argument of the claims is announced before any table is
    built.
    """
    if n_max is not None and n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    plain = [(partial(verify_simple, A, r, m, n), A * n + r, m)
             for A, r, m, n in simple]
    sums = [(partial(verify_weighted, c, n_max=n_max), c.max_argument(n_max),
             c.modulus) for c in claims]
    if sums and out is not None:
        out(f"largest B-argument required: {max(need for _, need, _ in sums)}")
    jobs = plain + sums
    if not jobs:
        return []
    table = b_table(max(need for _, need, _ in jobs),
                    _ring(m for _, _, m in jobs))
    reports = [check(table=table) for check, _, _ in jobs]
    failed = [i for i, r in enumerate(reports) if not r.passed]
    if failed:
        exact = b_table(max(jobs[i][1] for i in failed))
        for i in failed:
            reports[i] = jobs[i][0](table=exact)
    return reports


def run_claims(claims=None, n_max=None, out=None):
    """Verify claim families against one shared table of B modulo the lcm
    of their moduli; reports come back in claim order."""
    return _verify((), default_claims() if claims is None else claims, n_max, out)


def verify_families(names, n_max=None, primes=SAMPLED_PRIMES, out=None):
    """Reports for the named families of ``theorem_names()``: the plain
    congruences first, then the claim families, from one shared table.
    ``n_max`` overrides every family's own range."""
    simple = [(A, r, m, nmax if n_max is None else n_max)
              for name, (A, r, m, nmax) in SIMPLE_CHECKS.items() if name in names]
    claims = [c for c in default_claims(primes) if c.name in names]
    return _verify(simple, claims, n_max, out)


# -- affine congruence scanner ------------------------------------------------

class ScanHit(FrozenRecord):
    stride: int
    residue: int
    modulus: int
    evidence: int  # number of n values checked
    known: bool

    def __str__(self):
        mark = "  [known]" if self.known else ""
        return (f"({self.stride}n+{self.residue}) = 0 mod {self.modulus} "
                f"[{self.evidence} values]{mark}")


#: the scan's largest stride A and smallest range of n
MAX_SCAN_STRIDE = 60
MIN_SCAN_NMAX = 50


def scan(gf, stride_max, moduli, n_max, scalar=1):
    """All (A <= stride_max, r < A, m in moduli) with coefficient(An+r) = 0
    (mod m) for every n <= n_max, in the series scalar * gf; literature-stated
    triples are marked when the scalar is +-1.

    The series is expanded over Z/lcm(moduli), where the dense products and
    quotients of the expansion take the packed kernel of ``series``; over Z
    (sparse sequential kernels only) when the lcm is 2^31 or more."""
    spec = FQuotientSpec.of(gf)
    if not 1 <= stride_max <= MAX_SCAN_STRIDE:
        raise ValueError(f"stride bound must be in [1, {MAX_SCAN_STRIDE}], "
                         f"got {stride_max}")
    if n_max < MIN_SCAN_NMAX:
        raise ValueError(f"need n_max >= {MIN_SCAN_NMAX} for meaningful evidence")
    if min(moduli) < 2:
        raise ValueError(f"moduli must be >= 2, got {min(moduli)}")
    T = stride_max * (n_max + 1) - 1
    ser = fquotient(spec, T, _ring(moduli))
    if scalar != 1:
        ser = ser.scale(scalar)
    coeffs = ser.coeff_window(0, T)
    known = next((f.known for f in FAMILIES.values()
                  if scalar in (1, -1) and f.gf == spec),
                 frozenset())
    hits = []
    for m in sorted(moduli):
        residues = [c % m for c in coeffs]
        for A in range(1, stride_max + 1):
            for r in range(A):
                if not any(residues[r:A * n_max + r + 1:A]):
                    hits.append(ScanHit(A, r, m, n_max + 1, (A, r, m) in known))
    hits.sort(key=lambda h: (h.stride, h.residue, h.modulus))
    return hits
