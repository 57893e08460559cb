"""Builders for the named series of the toolkit.

f_m denotes the Euler product prod_{n>=1} (1 - q^(m*n)).  Everything the
identity catalog manipulates is assembled from:

  * f_m itself, expanded through the pentagonal number theorem,
  * finite quotients q^s * prod f_d^(r_d)  (eta quotients without the
    fractional eta prefactors, which always cancel in the catalog),
  * bilateral theta-type sums  sum_k w(k) q^(e(k)),
  * the cubic lattice theta  alpha(q) = sum_{(m,n) in Z^2} q^(m^2+mn+n^2),
  * the level-12 continued-fraction product h(q).

The builders the evaluator calls (``euler_f``, ``fquotient`` through
``_expand_factors``, ``cubic_theta_alpha``, ``h_level12``), and the
inverse over Z/m of each block a quotient's denominator is planned into
(``_divisor_inverse``), are cached by ``_prefix_cache``: one entry per
series and ring, holding its longest expansion, from which every shorter
request is truncated.  A quotient has one denominator rule: each entry
(block, d, n) of its plan is divided out n times, over Z by the sequential
kernel and over Z/m as a product by the n-th power of the block's inverse
at scale 1 under q -> q^d.  Over Z/m the entries of one scale d are
multiplied together through q^(W // d), and the scale groups are merged
from the largest scale down, each pair at the scale of its common factor,
so no product is longer than the operands' scales need.
"""

from __future__ import annotations

from collections import OrderedDict, namedtuple
from functools import wraps
from math import gcd, isqrt

from .records import FrozenRecord, bind
from .series import (MAX_EXPONENT, LaurentSeries, _check_modulus, _check_window,
                     _in_ring)


class FQuotientSpec(FrozenRecord):
    """A finite product q^qshift * prod f_d^(r_d).

    ``factors`` is a tuple of (d, r_d) pairs sorted by d, with distinct
    ints d >= 1 and nonzero ints r_d with |r_d| <= ``MAX_EXPONENT``, and
    ``qshift`` is an int (a bool is not); a record that breaks this raises
    ValueError when built.  The series has valuation exactly qshift: every
    f_d has leading term 1.
    """

    factors: tuple[tuple[int, int], ...]
    qshift: int = 0

    def __post_init__(self):
        fs = self.factors
        if type(self.qshift) is not int:
            raise ValueError(f"q-power shift must be an integer, got {self.qshift!r}")
        if type(fs) is not tuple or not all(type(p) is tuple and len(p) == 2
                                            for p in fs):
            raise ValueError(f"factors must be a tuple of (d, r_d) pairs, got {fs!r}")
        for i, (d, r) in enumerate(fs):
            if type(d) is not int or d < 1:
                raise ValueError(f"f-index must be a positive integer, got {d!r}")
            if type(r) is not int or r == 0:
                raise ValueError(f"exponent of f{d} must be a nonzero integer, "
                                 f"got {r!r}")
            if abs(r) > MAX_EXPONENT:
                raise ValueError(f"exponent {r} of f{d} is above the cap "
                                 f"|r_d| <= {MAX_EXPONENT}")
            if i and d <= fs[i - 1][0]:
                raise ValueError(f"f-indices must be distinct and increasing, "
                                 f"got {fs!r}")

    @classmethod
    def of(cls, factors, qshift=0):
        """The spec of ``{d: r_d}`` or of (d, r_d) pairs, sorted, without
        the int exponents 0; the record checks the rest (0.0, False raise).
        A spec is returned as it is; it carries its own shift, so a second
        one raises ValueError."""
        if isinstance(factors, FQuotientSpec):
            if type(qshift) is not int or qshift:
                raise ValueError(f"{factors} carries its own q-power shift; the "
                                 f"shift passed with it must be 0, got {qshift!r}")
            return factors
        pairs = [(d, r) for d, r in
                 (factors.items() if isinstance(factors, dict) else factors)
                 if r != 0 or type(r) is not int]
        try:
            pairs.sort()
        except TypeError:
            pass  # an index or exponent that is not an int: the record raises
        return cls(tuple(pairs), qshift)

    def __str__(self):
        num = "*".join(f"f{d}" + (f"^{r}" if r != 1 else "")
                       for d, r in self.factors if r > 0) or "1"
        den = "*".join(f"f{d}" + (f"^{-r}" if r != -1 else "")
                       for d, r in self.factors if r < 0)
        s = num if not den else f"{num}/({den})"
        if self.qshift:
            s = f"q^{self.qshift}*{s}"
        return s


def euler_f_product(m, T, modulus=None):
    """f_m through q^T by literally multiplying out prod (1 - q^(m*n)).

    Independent of the theta route of ``euler_f``; kept as its cross-oracle.
    """
    if T < 0:
        raise ValueError("order must be >= 0")
    _check_window(T)
    cs = [0] * (T + 1)
    cs[0] = 1
    j = m
    while j <= T:
        for i in range(T, j - 1, -1):
            cs[i] -= cs[i - j]
        j += m
    return LaurentSeries(cs, 0, modulus)


# -- bilateral theta-type sums ------------------------------------------------

WEIGHT_RULES = {
    "1": lambda k: 1,
    "(-1)^k": lambda k: -1 if k & 1 else 1,
    "(-1)^k(2k+1)": lambda k: -(2 * k + 1) if k & 1 else 2 * k + 1,
    "(-1)^k(3k+1)": lambda k: -(3 * k + 1) if k & 1 else 3 * k + 1,
    "6k+1": lambda k: 6 * k + 1,
    "(-1)^(k(k+1)/2)": lambda k: -1 if (k * (k + 1) // 2) & 1 else 1,
}


class BilateralSum(FrozenRecord):
    """sum_k weight(k) q^((A k^2 + B k)/2), over all of Z or over k >= 0.

    A >= 1 and A = B (mod 2), so every exponent is an integer, and the
    exponents grow on every admitted branch, so truncation at any order is
    finite.  ``product`` is the sum's product form: (d, r_d) pairs with
    sum = prod f_d^(r_d).
    """

    name: str
    A: int
    B: int
    weight: str
    product: tuple[tuple[int, int], ...]
    two_sided: bool = True

    def terms(self, T):
        """(k, exponent, weight) of every term with exponent <= T, k ascending:
        |k| runs to the quadratic formula's bound with a margin, and each term
        is filtered by its exponent; an exponent below 0 raises ValueError."""
        A, B = self.A, self.B
        K = (abs(B) + isqrt(B * B + 8 * A * max(T, 0)) + 1) // (2 * A) + 2
        w = WEIGHT_RULES[self.weight]
        out = []
        for k in range(-K if self.two_sided else 0, K + 1):
            e = (A * k * k + B * k) // 2
            if e < 0:
                raise ValueError(f"exponent rule of {self.name} went negative "
                                 f"at k={k}")
            if e <= T:
                out.append((k, e, w(k)))
        return out


def _bsum(name, A, B, weight, product, two_sided=True):
    return BilateralSum(name, A, B, weight, tuple(sorted(product.items())),
                        two_sided)


#: f_1 = sum (-1)^k q^(k(3k+1)/2)           (Euler)
PENTAGONAL = _bsum("pentagonal", 3, 1, "(-1)^k", {1: 1})
#: f_1^3 = sum_{k>=0} (-1)^k (2k+1) q^(k(k+1)/2)   (Jacobi)
CUBE = _bsum("cube", 1, 1, "(-1)^k(2k+1)", {1: 3}, two_sided=False)
#: f_2^2/f_1 = sum_{k>=0} q^(k(k+1)/2)      (Gauss)
TRIANGULAR = _bsum("triangular", 1, 1, "1", {2: 2, 1: -1}, two_sided=False)
#: f_2^5/f_1^2 = sum (-1)^k (3k+1) q^(k(3k+2))
SLOPE_3K1 = _bsum("slope_3k1", 6, 4, "(-1)^k(3k+1)", {2: 5, 1: -2})
#: f_1^5/f_2^2 = sum (6k+1) q^(k(3k+1)/2)
SLOPE_6K1 = _bsum("slope_6k1", 3, 1, "6k+1", {1: 5, 2: -2})
#: f_2^3/(f_1 f_4) = sum (-1)^(k(k+1)/2) q^(k(3k+1)/2)
SIGNED_PENTAGONAL = _bsum("signed_pentagonal", 3, 1, "(-1)^(k(k+1)/2)",
                          {2: 3, 1: -1, 4: -1})

BILATERAL_SUMS = {s.name: s for s in
                  (PENTAGONAL, CUBE, TRIANGULAR, SLOPE_3K1, SLOPE_6K1,
                   SIGNED_PENTAGONAL)}


def bilateral(spec, T, modulus=None):
    """Expand a bilateral sum through q^T.

    The sum is built in the ring: only the exponents a term reaches (about
    sqrt(T) of the T + 1) are reduced mod ``modulus``, and the result is
    built by ``_in_ring``, not by the public constructor's ``int`` and
    ``%`` pass over every coefficient."""
    if T < 0:
        raise ValueError("order must be >= 0")
    _check_window(T)
    _check_modulus(modulus)
    terms = spec.terms(T)
    cs = [0] * (T + 1)
    for _, e, w in terms:
        cs[e] += w
    if modulus is not None:
        for _, e, _ in terms:
            cs[e] %= modulus
    return _in_ring(cs, 0, modulus)


_CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")

#: the keys each cached builder keeps, the least recently used dropped: the
#: catalog, the claims and a scan leave at most 100, in ``_expand_factors``
CACHE_KEYS = 128


def _prefix_cache(build):
    """Cache a series builder ``build(..., window, modulus)`` by every
    argument except its window, keeping for each key the longest expansion
    made so far; the ``CACHE_KEYS`` least recently used keys are kept.

    A request through q^T that the kept expansion reaches is its
    ``truncate(T)``, which is exact: coefficient k of a product, quotient,
    power or theta sum reads only coefficients <= k of its operands.  A
    request past it (or below its valuation, which raises as the builder
    does) is built and replaces the entry.  Arguments are bound to the
    builder's positional-or-keyword parameters, read from its ``__code__``
    and ``__defaults__``, with no binding step for a call that passes every
    argument by position.  A builder whose last parameter is not
    ``modulus`` raises TypeError.  ``cache_info()`` reads the hits, misses,
    maxsize and currsize, as ``lru_cache``'s does."""
    code = build.__code__
    names = code.co_varnames[:code.co_argcount]
    if len(names) < 2 or names[-1] != "modulus":
        raise TypeError(f"{build.__name__} must end with (window, modulus), "
                        f"got {names}")
    defaults = dict(zip(reversed(names), reversed(build.__defaults__ or ())))
    at = len(names) - 2
    entries = OrderedDict()
    hits = misses = 0

    @wraps(build)
    def cached(*args, **kwargs):
        nonlocal hits, misses
        if kwargs or len(args) != len(names):
            args = bind(build.__name__, names, defaults, args, kwargs)
        key = (*args[:at], args[-1])
        T = args[at]
        s = entries.get(key)
        if s is not None and s.v <= T <= s.known_through:
            entries.move_to_end(key)
            hits += 1
            return s if T == s.known_through else s.truncate(T)
        misses += 1
        s = build(*args)
        entries[key] = s
        entries.move_to_end(key)
        if len(entries) > CACHE_KEYS:
            entries.popitem(last=False)
        return s

    cached.cache_info = lambda: _CacheInfo(hits, misses, CACHE_KEYS, len(entries))
    return cached


@_prefix_cache
def euler_f(m, T, modulus=None):
    """f_m through q^T by Euler's pentagonal number theorem: the bilateral
    sum PENTAGONAL, f_1 = sum_{k in Z} (-1)^k q^(k(3k+1)/2), under q -> q^m.
    The planner's PENTAGONAL entries take f_d from here."""
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"f-index must be a positive integer, got {m!r}")
    _check_window(T)
    return bilateral(PENTAGONAL, T // m, modulus).substitute(m, T)


# -- f-quotients through theta blocks -----------------------------------------

#: the theta blocks f-quotients are rewritten into, tried in this order at
#: each scale d: Gauss f_2^2/f_1 and Jacobi f_1^3, each one sparse pass in
#: place of three Euler passes, then f_1 for what is left.  The slopes and the
#: signed pentagonal would save 0.3 % of the catalog's and scan's multiply-adds.
THETA_BLOCKS = (TRIANGULAR, CUBE, PENTAGONAL)


def plan_factors(factors):
    """Greedy rewrite of prod f_d^(r_d) into theta blocks under q -> q^d.

    Returns the (numerator, denominator) lists of (block, d, n) entries, each
    standing for the product form of the BilateralSum block under q -> q^d,
    raised to the n-th power.  For d ascending, each block of THETA_BLOCKS
    is taken as often as every exponent of its product form fits inside the
    remaining r_(d*a) with the same sign; the last block, PENTAGONAL, is
    f_d and takes what is left of r_d.
    """
    r = dict(factors)
    num, den = [], []
    for d in sorted(r):
        for block in THETA_BLOCKS:
            for sign, out in ((1, num), (-1, den)):
                n = min(sign * r.get(d * a, 0) // e for a, e in block.product)
                if n > 0:
                    for a, e in block.product:
                        r[d * a] -= sign * n * e
                    out.append((block, d, n))
    return num, den


def _plan_series(block, d, W, modulus):
    """One plan entry through q^W: a block under q -> q^d, f_d by euler_f."""
    if block is PENTAGONAL:
        return euler_f(d, W, modulus)
    return bilateral(block, W // d, modulus).substitute(d, W)


@_prefix_cache
def _divisor_inverse(block, W, modulus):
    """1 / the theta block ``block`` at scale 1 through q^W, over
    Z/modulus, by Newton doubling when the block is dense enough.  A
    quotient that divides by the block under q -> q^d reads this inverse
    through q^(W // d), so every scale, window and power of one block
    shares one inverse."""
    return _plan_series(block, 1, W, modulus).invert()


def expand_factors(factors, W, modulus=None):
    """prod f_d^(r_d) through q^W, for sorted (d, r_d) pairs.

    Follows ``plan_factors``: each numerator entry (block, d, n) is
    multiplied in n times, and each denominator entry divided out n times.
    Over Z, in plan order, by series under q -> q^d, with the sequential
    division, so every pass is O(W * nnz(block)); a dense inverse would make
    the product O(W^2).  Each series is built when its entry is reached and
    dropped after its last pass, since a big series built and freed more
    often raises the exact B tables' peak memory.

    Over Z/m an entry at scale d is a series at scale 1 through q^(W // d):
    a numerator block taken n times, or the n-th power of the block's
    inverse from the cache ``_divisor_inverse``, taken once.  A theta
    block's own inverse costs less than a power of 1/f_1 (the README has
    both timings); B's and b's f_4^3 and a bare f_1^3 share one inverse of
    f_1^3, and every f_d of p, a and abar one inverse of f_1.  The entries
    of one scale are multiplied together at that length, in plan order, so
    sparse theta blocks meet before a dense inverse.  Then the group of the
    largest scale d is merged into the group d' with the largest
    g = gcd(d, d'), one that divides d first (it needs no substitution):
    t(q^(d'/g)) times s(q^(d/g)), at scale g through q^(W // g), by
    ``t.mul(s, d // g)``.  The last group is substituted q -> q^d through
    q^W.  The hexweight series f_1 f_14^3/(f_7 f_28) mod 7 through q^7006
    takes products of lengths 501, 1001 and 7007, where multiplying each
    entry into the whole window would take three of 7007.
    """
    _check_window(W)
    num, den = plan_factors(factors)
    plan = [e + (False,) for e in num] + [e + (True,) for e in den]
    r = None
    if modulus is None:
        for block, d, n, inverse in plan:
            s = _plan_series(block, d, W, None)
            for _ in range(n):
                if r is None:
                    r = s.invert() if inverse else s
                else:
                    r = r.divide(s) if inverse else r.mul(s)
    else:
        groups = {}
        for block, d, n, inverse in plan:
            if inverse:
                s, n = _divisor_inverse(block, W // d, modulus).pow(n), 1
            else:
                s = _plan_series(block, 1, W // d, modulus)
            for _ in range(n):
                groups[d] = groups[d].mul(s) if d in groups else s
        while len(groups) > 1:
            d = max(groups)
            s = groups.pop(d)
            e = max(groups, key=lambda c: (gcd(d, c), d % c == 0))
            g, t = gcd(d, e), groups.pop(e)
            if e != g:
                t = t.substitute(e // g, W // g)
            groups[g] = t.mul(s, d // g)
        if groups:
            (d, r), = groups.items()
            r = r.substitute(d, W)
    return LaurentSeries.one(W, modulus) if r is None else r


#: ``expand_factors`` cached by (factors, modulus): the classes of one
#: quotient that ``Dissect`` nodes read, and the windows of one quotient
#: across catalog entries, share one expansion
_expand_factors = _prefix_cache(expand_factors)


def fquotient(spec, T, modulus=None):
    """Exact expansion of an f-quotient through q^T."""
    spec = FQuotientSpec.of(spec)
    if T < spec.qshift:
        raise ValueError(f"order {T} is below the q-power shift {spec.qshift}")
    r = _expand_factors(spec.factors, T - spec.qshift, modulus)
    return r.shift(spec.qshift) if spec.qshift else r


# -- cubic theta and the level-12 product -------------------------------------

@_prefix_cache
def cubic_theta_alpha(T, modulus=None):
    """alpha(q) = sum over (m, n) in Z^2 of q^(m^2 + mn + n^2), through q^T.

    Lattice enumeration is the definition; the eta-quotient expansion for
    alpha is checked against this, never used to build it.
    """
    if T < 0:
        raise ValueError("order must be >= 0")
    _check_window(T)
    # m^2 + mn + n^2 >= (m^2 + n^2)/2, so |m|, |n| <= 2 sqrt(T) + 1 suffices
    R = 2 * isqrt(T) + 3
    cs = [0] * (T + 1)
    for mm in range(-R, R + 1):
        base = mm * mm
        for nn in range(-R, R + 1):
            e = base + mm * nn + nn * nn
            if 0 <= e <= T:
                cs[e] += 1
    return LaurentSeries(cs, 0, modulus)


@_prefix_cache
def h_level12(T, modulus=None):
    """The level-12 analogue of the Rogers-Ramanujan continued fraction:

        h(q) = q * prod_{n>=1} (1-q^(12n-1))(1-q^(12n-11))
                              / ((1-q^(12n-5))(1-q^(12n-7)))

    through q^T.  Valuation exactly 1.  Cached, so h through q^T and 1/h,
    which asks for h through q^(T+2), share one O(T^2) product.
    """
    if T < 1:
        raise ValueError("order must be >= 1")
    _check_window(T)
    W = T  # h/q on [0, T-1]
    cs = [0] * W
    cs[0] = 1
    for j in range(1, W):
        r = j % 12
        if r in (1, 11):
            for i in range(W - 1, j - 1, -1):
                cs[i] -= cs[i - j]
        elif r in (5, 7):
            for i in range(j, W):
                cs[i] += cs[i - j]
    return LaurentSeries(cs, 1, modulus)
