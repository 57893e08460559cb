"""Exact truncated Laurent series in one variable q, over Z or Z/mZ.

A series carries a window [v, T]: the coefficient of q^e is stored exactly
for v <= e <= T, is exactly zero for e < v, and is unknown for e > T.
Every operation propagates the largest T it can guarantee from its inputs,
so a result is never silently wrong -- at worst a comparison raises
InsufficientPrecision.

Coefficients are Python integers (arbitrary precision).  A series over
Z/mZ keeps every stored coefficient reduced to [0, m).  Series are
immutable; all operations return new objects.

Every product runs the sparse sequential kernel ``_convolve``, whose cost
is a multiply-add per pair of nonzero coefficients, except that over Z/mZ a
product whose ``_convolve`` would spend more than ``PACKED_CROSSOVER``
multiply-adds per output coefficient is packed into decimal integers
instead (``_packed``).  Over Z every quotient runs the sparse sequential
kernel ``_divide_block`` of the same cost.  Over Z/mZ a quotient is a
product by the inverse, and an inverse whose ``_divide_block`` would spend
more than ``PACKED_CROSSOVER`` multiply-adds per coefficient is taken by
Newton doubling on ``_product`` (``_inverse``).  A caller that knows a
factor is a series in q^d keeps it at scale 1 and passes d, as the theta
planner of ``products`` does over Z/m: ``a.mul(b, d)`` is a b(q^d), whose
class j mod d is b times the class a[j::d] of a, so b(q^d) is never built.
This module does not look for the scale.  Over Z/mZ ``_product`` first
bounds the count from below by nonzero counts of the operands' low
halves, taken at C speed with no copy, and sends a product whose bound
is already above the crossover to ``_packed`` without finding any
support; otherwise it finds each class's support once, at C speed, and
shares it between the exact count and ``_convolve``, which sums a
square's pairs i < j once.  The packed kernel packs b once, sizes its
slot by an L1 bound on what a slot holds (no slot can carry), and packs
and unpacks slots with C-level string, ``map`` and ``struct`` calls; it
converts only the low digits of each product that hold the slots of its
window, and unpacks only the slots from a first coefficient ``lo`` on,
which Newton doubling sets to skip the coefficients it already knows.
So libmpdec's multiply is most of its time.

The public constructor converts its input with ``int`` and reduces it
mod m, for coefficients from outside.  Results whose coefficients are
already in the ring are built by ``_in_ring``, with no pass over them:
reindexing (``shift``, ``truncate``, ``normalize``, ``dissect``,
``substitute``), the inverse and the Z quotient (``_divide_block`` and
Newton reduce as they go), ``mul``, which reduces its kernel's output
once with ``map(m.__rmod__, ...)``, and the theta sums of
``products.bilateral``, which reduce only the exponents their terms reach.

``coeff`` reads one coefficient and ``coeff_window`` a strided window of
them by slicing; both raise InsufficientPrecision for the same first
unknown exponent, and read 0 below the valuation.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from itertools import accumulate, chain, compress, count, islice
from operator import ne, neg
from struct import Struct

MAX_MODULUS = 1 << 31

#: the highest exponent a series is built through, checked before the list
#: is allocated: ten times the q^10^6 that B mod 630 needs for the prime
#: families at every admissible prime below 224
MAX_WINDOW = 10 ** 7

#: the largest |r_d| of an f-quotient q^s prod f_d^(r_d), checked when its
#: spec is built: ``products.expand_factors`` takes up to one pass per unit
#: of an exponent, so f_1^(10^11) would run for hours; f_1^(10^4) through
#: q^5 mod 7 takes 0.03 s (2-core x86-64, Python 3.11), and the catalog's
#: largest |r_d| is 26
MAX_EXPONENT = 10 ** 4

#: sequential multiply-adds per output coefficient above which a product
#: over Z/m takes the packed kernel, and an inverse over Z/m Newton doubling
#: (measured in CHANGES.md while it also routed divisions by a series in q^g)
PACKED_CROSSOVER = 12


class SeriesError(Exception):
    """Base class for series arithmetic errors."""


class RingMismatch(SeriesError):
    """Operands live over different coefficient rings."""


class NotInvertible(SeriesError):
    """Leading coefficient is not a unit in the coefficient ring."""


class InsufficientPrecision(SeriesError):
    """The known window is too short to answer exactly."""


def _check_modulus(m):
    if m is None:
        return None
    if not isinstance(m, int) or m < 2 or m >= MAX_MODULUS:
        raise ValueError(f"modulus must be an integer in [2, 2^31), got {m!r}")
    return m


def _check_window(T):
    """Refuse a window through q^T above MAX_WINDOW (a ValueError, which
    the command line reports as bad input) before anything is allocated."""
    if T > MAX_WINDOW:
        raise ValueError(f"window through q^{T} is above the cap "
                         f"q^{MAX_WINDOW}")


def _unit_inverse(u, m):
    if m is None:
        if u == 1 or u == -1:
            return u
        raise NotInvertible(f"not invertible: leading coefficient {u} is not a unit over Z")
    try:
        return pow(u, -1, m)
    except ValueError:
        raise NotInvertible(f"not invertible: gcd({u}, {m}) != 1") from None


def _supports(ac, bc, n):
    """The positions below ``n`` of the nonzero entries of each block, found
    at C speed by ``compress``; one list for both when ``bc is ac``."""
    ia = list(compress(range(n), ac))
    return ia, ia if bc is ac else list(compress(range(n), bc))


def _convolve(ac, bc, n, supports=None):
    """First ``n`` coefficients of the Cauchy product of two blocks.

    Schoolbook, but iterates over the nonzero entries of the sparser
    operand, so multiplying by a theta-type series costs O(n * nnz).
    ``supports`` are the blocks' ``_supports`` when the caller has them.
    A square (``bc is ac``) sums each pair i < j once and doubles it.
    """
    ia, ib = supports or _supports(ac, bc, n)
    if len(ib) < len(ia):
        ac, bc, ia, ib = bc, ac, ib, ia
    bval = list(map(bc.__getitem__, ib))
    out = [0] * n
    if bc is ac:
        for s, i in enumerate(ia):
            if 2 * i >= n:
                break
            c = bval[s]
            out[2 * i] += c * c
            c += c
            for t in range(s + 1, bisect_left(ib, n - i)):
                out[i + ib[t]] += c * bval[t]
        return out
    for i in ia:
        c = ac[i]
        for t in range(bisect_left(ib, n - i)):
            out[i + ib[t]] += c * bval[t]
    return out


def _convolve_ops(ia, ib, n):
    """Multiply-adds ``_convolve`` spends on blocks with the supports ``ia``
    and ``ib``, one count per nonzero position i of the sparser block: the
    nonzero positions j of the other with i + j < n.  (A square spends
    about half of that, but is routed by the same count.)"""
    if len(ib) < len(ia):
        ia, ib = ib, ia
    return (bisect_left(ib, n - i) for i in ia)


def _above_crossover(ops, n):
    """Whether the counts ``ops`` sum to more than PACKED_CROSSOVER
    multiply-adds per coefficient of ``n``; reads them only until they do
    (a dense operand crosses within the first few)."""
    cap = PACKED_CROSSOVER * n
    return any(s > cap for s in accumulate(ops))


def _head(x, k):
    """The first ``k`` entries of ``x``: ``x`` itself when it has no more,
    so a block that is already its window's length is not copied."""
    return x if len(x) <= k else x[:k]


def _slot_digits(classes, sizes, b):
    """Digits of the L1 bound of ``_packed`` on every slot it reads."""
    sb, mb = sum(b), max(b, default=0)
    return len(str(max(min(sum(a) * mb, sb * max(a, default=0))
                       for a in map(_head, classes, sizes))))


def _packed(classes, bc, n, m, lo=0):
    """Coefficients ``lo`` to ``n`` - 1 (n > lo >= 0) of a(q) b(q^d),
    a = sum_j q^j a_j(q^d) with a_j = ``classes[j]`` and b = ``bc``, entries
    in [0, m), by Kronecker substitution: each block becomes one decimal
    integer with a slot of w digits per coefficient, b is packed once,
    libmpdec multiplies it by each class, and slot k of a_j b, below the
    class's window len(range(j, n, d)), is coefficient j + d k of the
    product.  A block shorter than its window is zero beyond its end.

    The slot holds B, the largest min(sum(a_j) max(b), sum(b) max(a_j)):
    slot k of a_j b sums terms a_(j,i) b_(k-i) >= 0, so it is at most both
    products, and no slot reaches 10^w or carries into the next.  (B mod
    630's four classes times 1/f_1^3 take 8 digits a slot.)

    Coefficient 0 takes the lowest slot, so a block is packed reversed and
    the k slots of a class's window are the low k w digits of its product.
    Only those digits are converted to a string (a ``shift`` by 0 at
    precision k w drops the high ones), and one ``Struct`` unpacks the
    slots of coefficients >= ``lo`` and skips the rest as pad bytes.  A
    square (one class that is b) is packed once and handed to libmpdec as
    one operand, which it transforms once.  A slot is packed from a table
    of the m formatted residues when m <= n (the table costs no more than
    one block), else by %-formatting (m can be 2^31 - 1)."""
    from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context
    ctx = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)
    d = len(classes)
    sizes = [len(range(j, n, d)) for j in range(d)]
    b = _head(bc, sizes[0])
    w = _slot_digits(classes, sizes, b)
    fmt = f"%0{w}d"
    if m <= n:
        table = list(map(fmt.__mod__, range(m)))

        def slots(cs):
            return "".join(map(table.__getitem__, reversed(cs)))
    else:
        def slots(cs):
            return fmt * len(cs) % tuple(reversed(cs))

    def pack(cs):
        return ctx.create_decimal(slots(cs) or "0")

    pb = pack(b)
    out = [0] * (n - lo)
    for j, (a, k) in enumerate(zip(classes, sizes)):
        low = Context(prec=k * w, Emax=MAX_EMAX, Emin=MIN_EMIN).shift(
            ctx.multiply(pb if a is bc else pack(_head(a, k)), pb), 0)
        s = len(range(j, lo, d))  # the class's slots below lo
        out[(j - lo) % d::d] = map(int, reversed(Struct(
            f"{w}s" * (k - s) + f"{s * w}x").unpack(str(low).zfill(k * w).encode())))
    return out


def _nonzeros(x, h):
    """The nonzero entries among the first ``h`` of ``x``, counted at C
    speed without a slice copy."""
    return min(h, len(x)) - operator.countOf(islice(x, h), 0)


def _product(ac, bc, n, m, d=1, lo=0):
    """Coefficients ``lo`` to ``n`` - 1 of a(q) b(q^d), class by class: one
    crossover count over all classes sends them to ``_convolve`` each or to
    one ``_packed`` call.  Over Z/m the count starts from a lower bound
    that needs no supports: class a_j of window k, h = ceil(k/2), has at
    least nnz(a_j[:h]) nnz(b[:h]) multiply-adds, since every such pair
    i + j < k, so classes whose bounds sum above the crossover go to
    ``_packed`` at once.  Otherwise the supports are found once, for the
    exact count and for ``_convolve``, and dropped before a packed product
    lifts peak memory.  Newton passes ``lo`` for the coefficients it
    reads, and ``_packed`` unpacks no slot below it."""
    d = min(d, n)  # d >= n reads only b_0, as d = n does, and no class is empty
    classes = [ac] if d == 1 else [ac[j:n:d] for j in range(d)]
    sizes = [len(range(j, n, d)) for j in range(d)]
    if m is not None and sum(_nonzeros(a, h) * _nonzeros(bc, h) for a, h in zip(
            classes, ((k + 1) // 2 for k in sizes))) > PACKED_CROSSOVER * n:
        return _packed(classes, bc, n, m, lo)
    supports = [_supports(a, bc, k) for a, k in zip(classes, sizes)]
    if m is not None and _above_crossover(chain.from_iterable(
            _convolve_ops(*s, k) for s, k in zip(supports, sizes)), n):
        del supports
        return _packed(classes, bc, n, m, lo)
    out = [0] * n
    for j, (a, s, k) in enumerate(zip(classes, supports, sizes)):
        out[j::d] = _convolve(a, bc, k, s)
    return out[lo:] if lo else out


def _divide_block(uc, dc, n, m):
    """First ``n`` coefficients of uc/dc; dc[0] must be a unit.

    Standard quotient recurrence c_k = d0^-1 (u_k - sum_{j>=1} d_j c_{k-j}),
    skipping zero d_j, so dividing by a pentagonal-type series costs
    O(n * nnz).  Inverting is the special case uc = (1, 0, 0, ...).
    """
    inv0 = _unit_inverse(dc[0], m)
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
            s = -s  # over Z the unit inv0 is -1; s * 1 would copy a big s
        c.append(s)
    return c


def _divide_ops(dc, n):
    """Multiply-adds ``_divide_block`` spends on ``n`` coefficients, one
    count per nonzero d_j (1 <= j < n): the n - j outputs k >= j."""
    return (n - j for j in compress(range(1, n), dc[1:n]))


def _inverse(dc, n, m):
    """First ``n`` coefficients of 1/dc; dc[0] must be a unit.

    Over Z/m, when ``_divide_block`` would spend more than PACKED_CROSSOVER
    multiply-adds per coefficient, by Newton doubling: with g = 1/dc through
    q^(k-1), k = ceil(n/2), the error e = dc g - 1 vanishes below q^k and
    1/dc = g - g e through q^(n-1), two products by ``_product``, the first
    read from q^k on (``lo``), since its k low coefficients are known.  Over Z
    (where a dense inverse would make every later product dense) and below
    the crossover, by ``_divide_block``.
    """
    if m is None or not _above_crossover(_divide_ops(dc, n), n):
        return _divide_block((1,), dc, n, m)
    k = (n + 1) // 2
    g = _inverse(dc, k, m)
    e = list(map(m.__rmod__, _product(dc, g, n, m, lo=k)))
    g.extend(map(m.__rmod__, map(neg, _product(g, e, n - k, m))))
    return g


def _in_ring(cs, v, modulus):
    """The series with coefficients ``cs`` from q^v on, for int
    coefficients already in the ring ([0, modulus) over Z/m): no ``int``
    and no reduction pass, unlike the public constructor."""
    s = object.__new__(LaurentSeries)
    s._fill(tuple(cs), v, modulus)
    return s


class LaurentSeries:
    """A Laurent series known exactly on the exponent window [v, T]."""

    __slots__ = ("v", "coeffs", "modulus")

    def __init__(self, coeffs, v=0, modulus=None):
        modulus = _check_modulus(modulus)
        if modulus is None:
            cs = tuple(int(c) for c in coeffs)
        else:
            cs = tuple(int(c) % modulus for c in coeffs)
        self._fill(cs, int(v), modulus)

    def _fill(self, cs, v, modulus):
        if not cs:
            raise ValueError("empty coefficient window")
        object.__setattr__(self, "coeffs", cs)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "modulus", modulus)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentSeries is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, c, T, modulus=None):
        """The constant ``c`` on the window [0, T]."""
        if T < 0:
            raise ValueError(f"window bound must be >= 0, got {T}")
        _check_window(T)
        return cls([c] + [0] * T, 0, modulus)

    @classmethod
    def one(cls, T, modulus=None):
        return cls.constant(1, T, modulus)

    @classmethod
    def zero(cls, T, modulus=None):
        return cls.constant(0, T, modulus)

    # -- inspection --------------------------------------------------------

    @property
    def known_through(self):
        """Highest exponent whose coefficient is known exactly."""
        return self.v + len(self.coeffs) - 1

    def coeff(self, n):
        """Exact coefficient of q^n; 0 below the window, error above it."""
        self._require_known(n)
        if n < self.v:
            return 0
        return self.coeffs[n - self.v]

    def coeff_window(self, lo, T, step=1):
        """[coeff(e) for e in range(lo, T + 1, step)] by slicing: one bounds
        check for the whole window raises InsufficientPrecision for the
        first exponent read above the known window, as ``coeff`` would."""
        es = range(lo, T + 1, step)
        if es and es[-1] > self.known_through:
            self._require_known(es[max((self.known_through - lo) // step + 1, 0)])
        out = [0] * len(range(lo, min(T + 1, self.v), step))
        # index in coeffs of the first exponent read at or above v (< 0: none)
        start = max(lo + len(out) * step - self.v, 0)
        out.extend(islice(self.coeffs, start, max(T + 1 - self.v, 0), step))
        return out

    def _require_known(self, n):
        if n > self.known_through:
            raise InsufficientPrecision(
                f"insufficient precision: coefficient of q^{n} unknown "
                f"(window ends at q^{self.known_through})")

    def terms(self):
        """Nonzero (exponent, coefficient) pairs in increasing exponent order."""
        return [(self.v + i, c) for i, c in enumerate(self.coeffs) if c]

    def is_window_zero(self):
        return not any(self.coeffs)

    def __repr__(self):
        head = ", ".join(f"{c}*q^{e}" for e, c in self.terms()[:6]) or "0"
        tail = ", ..." if len(self.terms()) > 6 else ""
        ring = f" mod {self.modulus}" if self.modulus is not None else ""
        return f"<LaurentSeries [{self.v},{self.known_through}]{ring}: {head}{tail}>"

    def __eq__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return (self.v == other.v and self.modulus == other.modulus
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.v, self.modulus, self.coeffs))

    def _require_same_ring(self, other):
        if not isinstance(other, LaurentSeries):
            raise TypeError(f"cannot combine series with {type(other).__name__}")
        if self.modulus != other.modulus:
            raise RingMismatch(
                f"incompatible rings: {self._ring_name()} vs {other._ring_name()}")

    def _ring_name(self):
        return "Z" if self.modulus is None else f"Z/{self.modulus}"

    # -- ring operations ---------------------------------------------------

    def _termwise(self, other, op):
        """op of the coefficients at each exponent from the lower valuation
        up to where either window ends (an operand is 0 below its own)."""
        self._require_same_ring(other)
        v = min(self.v, other.v)
        T = min(self.known_through, other.known_through)
        return LaurentSeries(map(op, self.coeff_window(v, T),
                                 other.coeff_window(v, T)), v, self.modulus)

    def add(self, other):
        return self._termwise(other, operator.add)

    def neg(self):
        return LaurentSeries([-c for c in self.coeffs], self.v, self.modulus)

    def sub(self, other):
        return self._termwise(other, operator.sub)

    def scale(self, c):
        return LaurentSeries([c * x for x in self.coeffs], self.v, self.modulus)

    def mul(self, other, d=1):
        """self times other(q^d), as ``self.mul(other.substitute(d))``."""
        self._require_same_ring(other)
        if not isinstance(d, int) or d < 1:
            raise ValueError(f"substitution power must be a positive integer, got {d!r}")
        n = min(len(self.coeffs), d * len(other.coeffs))
        m = self.modulus
        out = _product(self.coeffs, other.coeffs, n, m, d)
        return _in_ring(out if m is None else map(m.__rmod__, out),
                        self.v + d * other.v, m)

    def divide(self, other):
        """self / other, where other has a unit leading coefficient; over
        Z/m the product by ``other.invert()``."""
        self._require_same_ring(other)
        if self.modulus is not None:
            return self.mul(other.invert())
        den = other.normalize()
        if den.is_window_zero():
            raise NotInvertible("not invertible: zero series")
        n = min(len(self.coeffs), len(den.coeffs))
        out = _divide_block(self.coeffs, den.coeffs, n, None)
        return _in_ring(out, self.v - den.v, None)

    def invert(self):
        """Multiplicative inverse; valuation -v, known through T - 2v."""
        a = self.normalize()
        if a.is_window_zero():
            raise NotInvertible("not invertible: zero series")
        out = _inverse(a.coeffs, len(a.coeffs), self.modulus)
        return _in_ring(out, -a.v, self.modulus)

    def pow(self, e):
        """Repeated-squaring power; e < 0 inverts, e = 0 gives 1 on [0, T-v]."""
        if not isinstance(e, int):
            raise TypeError("exponent must be an integer")
        if e == 0:
            return LaurentSeries.one(len(self.coeffs) - 1, self.modulus)
        if e < 0:
            return self.pow(-e).invert()
        result = None
        base = self
        k = e
        while True:
            if k & 1:
                result = base if result is None else result.mul(base)
            k >>= 1
            if not k:
                return result
            base = base.mul(base)

    # -- reindexing --------------------------------------------------------

    def substitute(self, k, T=None):
        """q -> q^k.  Coefficient of q^(k*e) is the old coefficient of q^e.

        The image is known through q^(k*(t+1) - 1), t this series' top; a
        T in its window stops it at q^T, as ``truncate(T)`` would, without
        building the longer list (so f_d through the window cap comes from
        f_1 through q^(cap // d))."""
        if not isinstance(k, int) or k < 1:
            raise ValueError(f"substitution power must be a positive integer, got {k!r}")
        v, top = k * self.v, k * (self.known_through + 1) - 1
        if T is None:
            T = top
        elif not v <= T <= top:
            raise ValueError(f"q -> q^{k} is known on [{v}, {top}], "
                             f"not through q^{T}")
        if k == 1:
            return self if T == top else self.truncate(T)
        _check_window(T)
        out = [0] * (T - v + 1)
        out[::k] = self.coeffs[:(T - v) // k + 1]
        return _in_ring(out, v, self.modulus)

    def dissect(self, m, j):
        """Extract the residue class j mod m: coefficient of q^n is the
        old coefficient of q^(m*n + j)."""
        if not isinstance(m, int) or m < 1 or not 0 <= j < m:
            raise ValueError(f"bad dissection ({m}, {j})")
        if self.v < 0:
            raise ValueError("dissection requires ordinary series")
        Tp = (self.known_through - j) // m
        if Tp < 0:
            raise InsufficientPrecision(
                f"insufficient precision: no coefficient of the class {j} mod {m} "
                f"lies in the window [{self.v}, {self.known_through}]")
        return _in_ring(self.coeff_window(j, m * Tp + j, m), 0, self.modulus)

    def shift(self, e):
        """Multiply by q^e."""
        return _in_ring(self.coeffs, self.v + e, self.modulus)

    def truncate(self, T):
        """Restrict the window to [v, T]."""
        if T < self.v:
            raise ValueError("cannot truncate below the valuation")
        return _in_ring(self.coeffs[:T - self.v + 1], self.v, self.modulus)

    def normalize(self):
        """Strip leading zeros so coeffs[0] is the true leading coefficient
        (window-zero series collapse to a single zero at the top exponent)."""
        i = 0
        cs = self.coeffs
        while i < len(cs) - 1 and cs[i] == 0:
            i += 1
        if i == 0:
            return self
        return _in_ring(cs[i:], self.v + i, self.modulus)

    # -- ring changes and comparison ----------------------------------------

    def reduce_mod(self, m):
        """Image in Z/mZ (from Z, or from Z/m'Z when m divides m')."""
        m = _check_modulus(m)
        if self.modulus is not None and self.modulus % m != 0:
            raise RingMismatch(
                f"cannot reduce mod {m}: {m} does not divide modulus {self.modulus}")
        return LaurentSeries(self.coeffs, self.v, m)

    def eq_through(self, other, T):
        """Exact coefficient equality for all exponents <= T.

        Raises InsufficientPrecision unless both windows reach T; never
        compares unknown coefficients.
        """
        return self.first_mismatch(other, T) is None

    def first_mismatch(self, other, T):
        """Smallest exponent <= T where the series differ, or None."""
        self._require_same_ring(other)
        if self.known_through < T or other.known_through < T:
            raise InsufficientPrecision(
                f"insufficient precision: comparison through q^{T} needs windows "
                f"through q^{self.known_through} and q^{other.known_through}")
        lo = min(self.v, other.v)
        diff = map(ne, self.coeff_window(lo, T), other.coeff_window(lo, T))
        return next(compress(count(lo), diff), None)
