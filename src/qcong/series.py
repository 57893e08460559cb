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
is a multiply-add per pair of nonzero coefficients, except that a product
is packed into integers (``_packed``, Kronecker substitution) when twice a
lower bound on that cost is above ``PACKED_CROSSOVER`` multiply-adds per
output coefficient, over Z as over Z/mZ.  The bound, from ``_nonzeros`` of
the operands' low halves, is counted at C speed with no copy and no list
of nonzero positions.  Over Z every quotient runs the sparse sequential
kernel ``_divide_block`` of the same cost, which walks only the divisor
terms in reach of each output and adds a +-1 term without a multiply.
Over Z/mZ a quotient is a product by the inverse, and an inverse is taken
by Newton doubling (``_inverse``) when twice the same kind of bound on its
``_divide_block`` cost is above the crossover.  Newton's first product,
by the sparse divisor and read only from the half length on, is a middle
product (Hanrot, Quercia and Zimmermann, 2004): ``_shifted`` packs the
half inverse once and adds one shifted window of it per divisor term,
unless the divisor is dense or very long (``SHIFT_CROSSOVER``), when
``_product`` takes it as it takes the second product.  A caller
that knows a factor is a series in q^d keeps it at scale 1 and passes d,
as the theta planner of ``products`` does over Z/m: ``a.mul(b, d)`` is
a b(q^d), whose class j mod d is b times the class a[j::d] of a, so
b(q^d) is never built.  This module does not look for the scale.
``_convolve`` finds its operands' nonzero positions itself, at C speed,
and sums a square's pairs i < j once.

The packed kernel packs b once, sizes its slot by an L1 bound on what a
slot holds (no slot can carry), and unpacks only the slots from a first
coefficient ``lo`` on, which Newton doubling sets to skip the
coefficients it already knows.  It has two routes, chosen by the size of
its operands.  Up to ``BINARY_CROSSOVER`` bits, and always over Z (where
the largest dense product of the catalog has 302 slots), ``_binary``
packs slots of whole bytes with ``struct`` and multiplies Python ints;
signed slots carry half a slot of offset, so none borrows from the next.
Above it, ``_decimal`` packs slots of decimal digits with C-level string
calls and multiplies with libmpdec, whose transform wins on large
operands, and converts only the low digits of each product that hold the
slots of its window.  Below the crossover, turning coefficients into
digit strings and back costs more than libmpdec's multiply saves.

The public constructor converts its input with ``int`` and reduces it
mod m, for coefficients from outside.  Results whose coefficients are
already in the ring are built by ``_in_ring``, with no pass over them:
reindexing (``shift``, ``truncate``, ``normalize``, ``dissect``,
``substitute``), the inverse, the Z quotient (``_divide_block`` reduces as
it goes), ``mul``, and the theta sums of ``products.bilateral``, which
reduce only the exponents their terms reach.  ``add``, ``sub``, ``neg``
and ``scale`` build theirs the same way, with one ``%`` pass over Z/mZ.
Over Z/mZ a product is reduced in one place, ``_product``: ``_packed``
reduces each slot as it unpacks it, on either route, and when m <= n
reads the residue from one list of the m residues, so every coefficient
it returns is one of m shared int objects; the sequential branch reduces
``_convolve``'s output.  Neither ``mul`` nor
Newton doubling makes a pass of its own, so no unreduced list of a whole
product sits beside the reduced one.  A cold ``b_table(101441, 630)``
peaks at 5.4 MB traced by ``tracemalloc``, and ``b_table(10**6, 630)`` at
75 MB of resident memory, where reducing in each caller took 8.1 and 114
MB (x86-64, Python 3.11).

``coeff`` reads one coefficient and ``coeff_window`` a strided window of
them by slicing; both raise InsufficientPrecision for the same first
unknown exponent, and read 0 below the valuation.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from itertools import compress, count, islice, repeat
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
#: takes the packed kernel, and an inverse over Z/m Newton doubling;
#: the kernels' ``_nonzeros`` bounds count about half of the multiply-adds
#: (the pairs in the operands' low halves), so twice a bound is compared
#: with it (measured in CHANGES.md)
PACKED_CROSSOVER = 12

#: bits of the longest class's operand in byte slots (its slots times 8
#: per byte of a slot) at or below which ``_packed`` multiplies Python
#: ints, and above which decimals: on the Z/m products of the benchmark's
#: three workloads, each replayed on both routes, binary took a median
#: 0.44 of the decimal time up to 2^15 bits, 0.68 up to 2^16, 0.95 up to
#: 10^5 and 1.56 above (measured in CHANGES.md)
BINARY_CROSSOVER = 1 << 16

#: big-int passes of ``_shifted`` (two a term of weight +-1, a shift and
#: an add; three another, with a multiply) whose cube, at or below this
#: times the length n, takes Newton's first product by shifted adds and
#: above it by ``_product``: the product's cost per slot grows about as
#: the cube root of n between n = 10^2 and 10^6, and the shifted adds'
#: as their passes (measured in CHANGES.md)
SHIFT_CROSSOVER = 20000

#: the ``struct`` code of a slot of 1, 2, 4 or 8 bytes
SLOT_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


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


def _convolve(ac, bc, n):
    """First ``n`` coefficients of the Cauchy product of two blocks.

    Schoolbook, but iterates over the nonzero entries of the sparser
    operand, so multiplying by a theta-type series costs O(n * nnz).  The
    nonzero positions are found at C speed by ``compress``, once for a
    square (``bc is ac``), which sums each pair i < j once and doubles it.
    """
    ia = list(compress(range(n), ac))
    ib = ia if bc is ac else list(compress(range(n), bc))
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


def _head(x, k):
    """The first ``k`` entries of ``x``: ``x`` itself when it has no more,
    so a block that is already its window's length is not copied."""
    return x if len(x) <= k else x[:k]


def _slot_bound(classes, sizes, b):
    """The L1 bound of ``_packed`` on every slot it reads, for entries >= 0:
    the largest min(sum(a_j) max(b), sum(b) max(a_j)) over the classes."""
    sb, mb = sum(b), max(b, default=0)
    return max(min(sum(a) * mb, sb * max(a, default=0))
               for a in map(_head, classes, sizes))


def _packed(classes, bc, n, m, lo=0):
    """Coefficients ``lo`` to ``n`` - 1 (n > lo >= 0) of a(q) b(q^d),
    a = sum_j q^j a_j(q^d) with a_j = ``classes[j]`` and b = ``bc``, entries
    in [0, m) (any ints when m is None, over Z), by Kronecker substitution:
    each block becomes one integer with a slot per coefficient, b is
    packed once and multiplied by each class, and slot k of a_j b, below
    the class's window len(range(j, n, d)), is coefficient j + d k of the
    product.  A block shorter than its window is zero beyond its end.

    The slot holds B, the largest min(sum(a_j) max(b), sum(b) max(a_j))
    (of the absolute values over Z): slot k of a_j b sums terms
    a_(j,i) b_(k-i), so its absolute value is at most both products, and
    no slot can carry into the next.  B = 0 only when every product is 0,
    and zeros are returned; otherwise B is at least every entry of b and
    of each nonzero class, so every entry packed fits its slot.

    Two routes multiply, chosen by the longest class's slots times the
    binary slot's bits (``_binary``): at or below BINARY_CROSSOVER, and
    always over Z, CPython's int multiply on slots of whole bytes; above
    it, libmpdec's multiply on slots of decimal digits (``_decimal``).
    Turning coefficients into digit strings and back costs more than
    libmpdec's multiply saves on small operands, and CPython's Karatsuba
    loses to libmpdec's transform on large ones.

    Every slot is reduced mod m here, so the result is in [0, m).  When
    m <= n the residue is read from one list of the m residues, and every
    coefficient returned is one of those m int objects: mod 630, 373 of
    the residues are above 256, the largest int CPython shares, and a
    coefficient equal to one of them would otherwise take an object of
    its own.  When ``%`` returns a shared object for every residue already
    (mod 210 on CPython), the list is not read, since that pass would
    share nothing: it cost the scan of B, b, p, a and abar mod 210 3 % of
    its time.  When m > n it is plain ``%``."""
    d = len(classes)
    sizes = [len(range(j, n, d)) for j in range(d)]
    b = _head(bc, sizes[0])
    if m is None:
        bound = _slot_bound([list(map(abs, a)) for a in classes], sizes, list(map(abs, b)))
    else:
        bound = _slot_bound(classes, sizes, b)
    if not bound:
        return [0] * (n - lo)
    wb = (bound.bit_length() + (m is None) + 7) // 8  # over Z, a sign bit too
    residues = list(range(m)) if m is not None and m <= n else None
    # False when % already returns one shared object per residue
    shared = residues and residues[-1] is not (m - 1) % m
    if m is None or 8 * wb * sizes[0] <= BINARY_CROSSOVER:
        products = _binary(classes, bc, b, sizes, lo, wb, m is None)
    else:
        products = _decimal(classes, bc, b, sizes, lo, len(str(bound)), residues)
    out = [0] * (n - lo)
    for j, cs in enumerate(products):
        if m is not None:
            cs = map(m.__rmod__, cs)
        out[(j - lo) % d::d] = map(residues.__getitem__, cs) if shared else cs
    return out


def _binary(classes, bc, b, sizes, lo, wb, signed):
    """The slots of ``_packed`` from ``lo`` on, class by class, by CPython's
    int multiply: slots of ``wb`` bytes, little-endian, so coefficient 0
    takes the lowest slot and a class's window is the low bytes of its
    product.  ``struct`` packs and unpacks slots of 1, 2, 4 or 8 bytes and
    ``int.to_bytes``/``int.from_bytes`` the others.

    Signed slots (over Z) hold an entry c as c + h, h half a slot, and the
    block's int subtracts h from every slot again, so it is
    sum c_i 2^(8 wb i) exactly.  To read a product, h is added to every
    slot of the window, which puts each in [0, 2^(8 wb)) with no borrow
    from the slot below, and subtracted from each slot read."""
    bits = 8 * wb
    half = 1 << (bits - 1) if signed else 0
    if half:
        halves = _halves(sizes[0], wb)

    def pack(cs):
        k = len(cs)
        x = _to_slots(map(half.__add__, cs) if half else cs, k, wb)
        return x - (halves & ((1 << k * bits) - 1)) if half else x

    pb = pack(b)
    d = len(classes)
    for j, (a, k) in enumerate(zip(classes, sizes)):
        x = pb * (pb if a is bc else pack(_head(a, k)))
        if half:
            x += halves  # the slots above the window are not read
        cs = _from_slots(x, len(range(j, lo, d)), k, wb)  # skips the slots below lo
        yield map(half.__rsub__, cs) if half else cs


def _to_slots(cs, k, wb):
    """The ``k`` ints ``cs``, each in [0, 2^(8 wb)), as one int with a slot
    of ``wb`` bytes each, little-endian: ``struct`` packs slots of 1, 2, 4
    or 8 bytes and ``int.to_bytes`` the others."""
    code = SLOT_CODES.get(wb)
    return int.from_bytes(Struct(f"<{k}{code}").pack(*cs) if code else b"".join(
        map(int.to_bytes, cs, repeat(wb), repeat("little"))), "little")


def _from_slots(x, s, k, wb):
    """Slots ``s`` to ``k`` - 1 of the low ``k`` slots of ``wb`` bytes of
    ``x``, as ints in [0, 2^(8 wb)): one ``Struct`` skips the slots below
    ``s`` as pad bytes."""
    buf = (x & ((1 << 8 * wb * k) - 1)).to_bytes(k * wb, "little")
    code = SLOT_CODES.get(wb)
    if code:
        return Struct(f"<{s * wb}x{k - s}{code}").unpack(buf)
    return map(int.from_bytes, Struct(f"{s * wb}x" + f"{wb}s" * (k - s)).unpack(buf),
               repeat("little"))


def _halves(k, wb):
    """Half a slot of ``wb`` bytes in each of ``k`` slots."""
    return int.from_bytes((1 << (8 * wb - 1)).to_bytes(wb, "little") * k, "little")


def _decimal(classes, bc, b, sizes, lo, w, residues):
    """The slots of ``_packed`` from ``lo`` on, class by class, by libmpdec's
    multiply: slots of ``w`` digits.  Coefficient 0 takes the lowest slot,
    so a block is packed reversed and the k slots of a class's window are
    the low k w digits of its product.  Only those digits are converted
    to a string (a ``shift`` by 0 at precision k w drops the high ones),
    and one ``Struct`` unpacks the slots of coefficients >= ``lo`` and
    skips the rest as pad bytes.  A square (one class that is b) is
    packed once and handed to libmpdec as one operand, which it transforms
    once.  A slot is packed from a table of the m formatted ``residues``
    when m <= n (the table costs no more than one block), else by
    %-formatting (m can be 2^31 - 1).  (B mod 630's four classes times
    1/f_1^3 take 8 digits a slot.)"""
    from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context
    ctx = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)
    fmt = f"%0{w}d"
    if residues:
        table = list(map(fmt.__mod__, residues))

        def slots(cs):
            return "".join(map(table.__getitem__, reversed(cs)))
    else:
        def slots(cs):
            return fmt * len(cs) % tuple(reversed(cs))

    def pack(cs):
        return ctx.create_decimal(slots(cs) or "0")

    pb = pack(b)
    d = len(classes)
    for j, (a, k) in enumerate(zip(classes, sizes)):
        low = Context(prec=k * w, Emax=MAX_EMAX, Emin=MIN_EMIN).shift(
            ctx.multiply(pb if a is bc else pack(_head(a, k)), pb), 0)
        s = len(range(j, lo, d))  # the class's slots below lo
        yield map(int, reversed(Struct(
            f"{w}s" * (k - s) + f"{s * w}x").unpack(str(low).zfill(k * w).encode())))


def _nonzeros(x, h):
    """The nonzero entries among the first ``h`` of ``x``, counted at C
    speed without a slice copy."""
    return min(h, len(x)) - operator.countOf(islice(x, h), 0)


def _product(ac, bc, n, m, d=1, lo=0):
    """Coefficients ``lo`` to ``n`` - 1 of a(q) b(q^d), class by class: one
    bound over all classes sends them to ``_convolve`` each or, over Z as
    over Z/m, to one ``_packed`` call.  Class a_j of window k, h = ceil(k/2), has at
    least nnz(a_j[:h]) nnz(b[:h]) multiply-adds, since every such pair
    i + j < k; the classes go packed when twice the sum of these bounds is
    above PACKED_CROSSOVER per coefficient.  Newton passes ``lo`` for the
    coefficients it reads, and ``_packed`` unpacks no slot below it.

    This is where a product over Z/m is reduced, once: ``_packed`` reduces
    each slot as it unpacks it, and the sequential branch reduces each
    class that ``_convolve`` returns.  Callers take the result as it is."""
    d = min(d, n)  # d >= n reads only b_0, as d = n does, and no class is empty
    classes = [ac] if d == 1 else [ac[j:n:d] for j in range(d)]
    sizes = [len(range(j, n, d)) for j in range(d)]
    if 2 * sum(_nonzeros(a, h) * _nonzeros(bc, h) for a, h in zip(
            classes, ((k + 1) // 2 for k in sizes))) > PACKED_CROSSOVER * n:
        return _packed(classes, bc, n, m, lo)
    out = [0] * n
    for j, (a, k) in enumerate(zip(classes, sizes)):
        c = _convolve(a, bc, k)
        out[j::d] = c if m is None else map(m.__rmod__, c)
    return out[lo:] if lo else out


def _divide_block(uc, dc, n, m):
    """First ``n`` coefficients of uc/dc; dc[0] must be a unit.

    Standard quotient recurrence c_k = d0^-1 (u_k - sum_{j>=1} d_j c_{k-j}),
    skipping zero d_j, so dividing by a pentagonal-type series costs
    O(n * nnz).  Inverting is the special case uc = (1, 0, 0, ...).

    The nonzero d_j, 1 <= j < n, are found once by ``compress``, and each
    joins one of three active lists when k reaches j: the j with d_j = 1,
    the j with d_j = -1 (residue m - 1 over Z/m; 1 is tested first, so
    m = 2 puts its terms with the +1s), and the pairs (j, d_j) of every
    other weight.  So c_k reads only the terms in reach, and a +-1 term is
    a subtraction or an addition of c_(k-j), with no multiply.  Over Z/m
    the sum differs from the recurrence's by a multiple of m, and its
    residue is the same.  Most exact divisors have +-1 weights only: f_1
    and its scalings (126 of the 172 exact quotients of one catalog run).
    The others are Jacobi's ``CUBE`` f_1^3, weights +-(2k+1), and the
    dense divisors of expressions: the level-12 series h of
    ``h_sum_recip*`` and the f-quotient inverted in ``h_algebra_factored``
    (150 to 249 nonzeros through q^301, weights up to 727074).
    """
    inv0 = _unit_inverse(dc[0], m)
    minus_one = -1 if m is None else m - 1
    js = compress(range(1, n), islice(dc, 1, n))
    nxt = next(js, n)
    plus, minus, other = [], [], []
    c = []
    lu = len(uc)
    for k in range(n):
        if k == nxt:
            d = dc[k]
            if d == 1:
                plus.append(k)
            elif d == minus_one:
                minus.append(k)
            else:
                other.append((k, d))
            nxt = next(js, n)
        s = uc[k] if k < lu else 0
        for j in plus:
            s -= c[k - j]
        for j in minus:
            s += c[k - j]
        for j, d in other:
            s -= d * c[k - j]
        if m is not None:
            s = s * inv0 % m
        elif inv0 != 1:
            s = -s  # over Z the unit inv0 is -1; s * 1 would copy a big s
        c.append(s)
    return c


def _terms(dc, n, m):
    """The positions s, 1 <= s < n, of the nonzero entries of ``dc`` over
    Z/m, and their weights balanced in (-m/2, m/2]."""
    ss = list(compress(range(1, n), islice(dc, 1, n)))
    return ss, [w - m if 2 * w > m else w for w in map(dc.__getitem__, ss)]


def _shifted(ss, ws, g, n, m):
    """Coefficients h to n - 1 of dc g over Z/m, h = len(g) <= n and the
    entries of g in [0, m), where dc has the terms w q^s of ``_terms`` and
    a unit dc[0] (which reaches no coefficient >= h): the middle product
    of Newton's first step, by shifted adds of one packed int.

    g is packed once into slots of wb bytes, pg = sum g_i 2^(8 wb i).  A
    term w q^s adds w g_i to coefficient s + i, slot s + i - h of the
    window [h, n).  The part of pg that lands in the window is
    pg >> 8 wb (h - s) when s < h, and the low n - s slots of pg shifted
    up by s - h slots when s >= h.  Each part goes into one of three
    accumulators: the +1 terms' (m = 2 puts its terms there), the -1
    terms', and w times the part for every other weight.  A slot of
    plus - minus + other then holds an integer of absolute value at most
    sum |w| (m - 1), below half a slot, so adding half a slot to each, as
    ``_binary`` does, puts every slot in [0, 2^(8 wb)) with no borrow, and
    one ``Struct`` unpacks the window.  That bound is at least m - 1, so
    every entry of g fits its slot, unless dc has no term, and then the
    window is 0."""
    h = len(g)
    k = n - h
    if not ws:
        return [0] * k
    wb = ((m - 1) * sum(map(abs, ws))).bit_length() // 8 + 1  # and a sign bit
    bits = 8 * wb
    pg = _to_slots(g, h, wb)
    plus = minus = other = 0
    for s, w in zip(ss, ws):
        part = pg >> bits * (h - s) if s < h else (
            pg & ((1 << bits * (n - s)) - 1)) << bits * (s - h)
        if w == 1:
            plus += part
        elif w == -1:
            minus += part
        else:
            other += w * part
    half = 1 << (bits - 1)
    cs = _from_slots(plus - minus + other + _halves(k, wb), 0, k, wb)
    return list(map(m.__rmod__, map(half.__rsub__, cs)))


def _inverse(dc, n, m):
    """First ``n`` coefficients of 1/dc; dc[0] must be a unit.

    Over Z/m, while twice the bound nnz(dc[1:h]) (n - h), h = ceil(n/2),
    is above PACKED_CROSSOVER multiply-adds per coefficient, by Newton
    doubling: each nonzero d_j, 1 <= j < h, costs ``_divide_block`` at
    least the n - h outputs k >= h.  The nonzero terms of dc are found
    once, by ``_terms``, and each step's length halves the last until the
    bound is not above the crossover, where ``_divide_block`` starts.
    With g = 1/dc through q^(h-1), the error e = dc g - 1 vanishes below
    q^h and 1/dc = g - g e through q^(n-1), two products, the first read
    from q^h on, since its h low coefficients are known.  The first is
    ``_shifted``'s shifted adds of g packed once, one per nonzero d_s,
    1 <= s < n, when the cube of their big-int passes (two a +-1 weight,
    three another) is at most SHIFT_CROSSOVER n, and otherwise
    ``_product`` from ``lo`` = h: a dense dc, or a long one with many
    weights other than +-1 (f_1^3 mod 630 at n = 500001).  Both come back
    reduced; the short e is negated before the second product, since
    -(g e) = g (-e), so the second half of 1/dc is ``_product``'s output
    itself, with no pass of its own (read from the shared residues of
    ``_packed`` when it goes packed and n - h >= m).  Over Z (where a
    dense inverse would make every later product dense) and below the
    crossover, by ``_divide_block``.
    """
    if m is None:
        return _divide_block((1,), dc, n, m)
    ss, ws = _terms(dc, n, m)
    lengths = [n]  # each Newton step's length, the longest first
    while True:
        k = lengths[-1]
        h = (k + 1) // 2
        if 2 * bisect_left(ss, h) * (k - h) <= PACKED_CROSSOVER * k:
            break
        lengths.append(h)
    g = _divide_block((1,), dc, lengths.pop(), m)
    for k in reversed(lengths):
        h = len(g)
        t = bisect_left(ss, k)  # the terms below q^k
        below = ws[:t]
        if (3 * t - below.count(1) - below.count(-1)) ** 3 <= SHIFT_CROSSOVER * k:
            e = _shifted(ss[:t], below, g, k, m)
        else:
            e = _product(dc, g, k, m, lo=h)
        g.extend(_product(g, list(map(m.__rmod__, map(neg, e))), k - h, m))
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
        terms = self.terms()
        head = ", ".join(f"{c}*q^{e}" for e, c in terms[:6]) or "0"
        tail = ", ..." if len(terms) > 6 else ""
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

    def _reduced(self, cs, v):
        """The series in this one's ring with int coefficients ``cs`` from
        q^v on, reduced by one pass over Z/m and taken as they are over Z."""
        m = self.modulus
        return _in_ring(cs if m is None else map(m.__rmod__, cs), v, m)

    def _termwise(self, other, op):
        """op of the coefficients at each exponent from the lower valuation
        up to where either window ends (an operand is 0 below its own)."""
        self._require_same_ring(other)
        v = min(self.v, other.v)
        T = min(self.known_through, other.known_through)
        return self._reduced(map(op, self.coeff_window(v, T), other.coeff_window(v, T)), v)

    def add(self, other):
        return self._termwise(other, operator.add)

    def neg(self):
        return self._reduced(map(neg, self.coeffs), self.v)

    def sub(self, other):
        return self._termwise(other, operator.sub)

    def scale(self, c):
        """c times this series, for an integer c."""
        return self._reduced(map(operator.index(c).__mul__, self.coeffs), self.v)

    def mul(self, other, d=1):
        """self times other(q^d), as ``self.mul(other.substitute(d))``."""
        self._require_same_ring(other)
        if not isinstance(d, int) or d < 1:
            raise ValueError(f"substitution power must be a positive integer, got {d!r}")
        n = min(len(self.coeffs), d * len(other.coeffs))
        return _in_ring(_product(self.coeffs, other.coeffs, n, self.modulus, d),
                        self.v + d * other.v, self.modulus)

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
