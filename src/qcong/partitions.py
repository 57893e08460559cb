"""Combinatorial counting of restricted partitions, independent of the
series engine.  These tables are the ground truth the generating-function
expansions are checked against.  ``FAMILIES`` is the one table of the
named counting families.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Unrestricted:
    """All parts, unlimited multiplicity."""


@dataclass(frozen=True)
class DistinctOdd:
    """Odd parts only, each at most once."""


@dataclass(frozen=True)
class MultiplesOf:
    """Parts d, 2d, 3d, ..., unlimited multiplicity."""

    d: int


@dataclass(frozen=True)
class EvenTwoColors:
    """All parts, with even parts available in two colors (cubic partitions)."""


@dataclass(frozen=True)
class OvercubicMarking:
    """Cubic partitions with first occurrences optionally overlined.

    No independent combinatorial table: the overlining bookkeeping is
    error-prone, so this family is counted from its quotient expansion only.
    """


def _unbounded_parts(c, N):
    if isinstance(c, Unrestricted):
        return list(range(1, N + 1))
    if isinstance(c, MultiplesOf):
        if c.d < 1:
            raise ValueError(f"part modulus must be >= 1, got {c.d}")
        return list(range(c.d, N + 1, c.d))
    if isinstance(c, EvenTwoColors):
        # second color of each even part = a second unbounded copy
        return list(range(1, N + 1)) + list(range(2, N + 1, 2))
    return None


def count_table(constraint, N):
    """table[n] = number of partitions of n satisfying the constraint, 0 <= n <= N."""
    if N < 0:
        raise ValueError("table size must be >= 0")
    table = [0] * (N + 1)
    table[0] = 1
    parts = _unbounded_parts(constraint, N)
    if parts is not None:
        for p in parts:
            for n in range(p, N + 1):
                table[n] += table[n - p]
        return table
    if isinstance(constraint, DistinctOdd):
        for p in range(1, N + 1, 2):
            for n in range(N, p - 1, -1):  # 0/1 knapsack
                table[n] += table[n - p]
        return table
    if isinstance(constraint, OvercubicMarking):
        raise ValueError("no combinatorial table for overcubic marking; "
                         "use the series route (count_family('abar', ...))")
    raise ValueError(f"unknown partition constraint {constraint!r}")


def convolve_tables(a, b, N):
    out = [0] * (N + 1)
    for i in range(min(len(a), N + 1)):
        ai = a[i]
        if ai:
            for j in range(min(len(b), N + 1 - i)):
                out[i + j] += ai * b[j]
    return out


def count_triples(N):
    """table[n] = number of triples (pi1, pi2, pi3) with |pi1|+|pi2|+|pi3| = n,
    pi1 and pi2 into distinct odd parts, pi3 into multiples of 4.

    This is the counting function the whole toolkit revolves around; its
    generating function is f_2^4/(f_1^2 f_4^3).
    """
    return count_family("B", N)


@dataclass(frozen=True)
class Family:
    """A counting family: its generating function prod f_d^(r_d) as
    ``{d: r_d}``, the constraints whose oracle tables are convolved (None:
    no oracle, counted from the series) and the literature congruences
    ``(A, r, m)``, coefficient(An + r) = 0 (mod m)."""

    gf: dict
    constraints: tuple | None
    known: frozenset = frozenset()


#: the named counting families, in the order the CLI lists them
FAMILIES = {
    # two distinct-odd lists and one multiples-of-4 list
    "B": Family({2: 4, 1: -2, 4: -3},
                (DistinctOdd(), DistinctOdd(), MultiplesOf(4)),
                frozenset({(2, 1, 2), (5, 4, 5), (27, 16, 3)})),
    # one distinct-odd list and two multiples-of-4 lists
    "b": Family({2: 2, 1: -1, 4: -3},
                (DistinctOdd(), MultiplesOf(4), MultiplesOf(4)),
                frozenset({(3, 2, 3)})),
    # unrestricted partitions
    "p": Family({1: -1}, (Unrestricted(),), frozenset({(5, 4, 5), (7, 5, 7)})),
    # cubic partitions: even parts in two colors
    "a": Family({1: -1, 2: -1}, (EvenTwoColors(),)),
    # overcubic partitions; see OvercubicMarking for why there is no oracle
    "abar": Family({4: 1, 1: -2, 2: -1}, None),
}


def count_family(name, N):
    """table[n] for 0 <= n <= N of a family in FAMILIES, from its oracle,
    or from its series when it has none (abar)."""
    try:
        family = FAMILIES[name]
    except KeyError:
        raise ValueError(f"unknown counting family {name!r}; "
                         f"known: {list(FAMILIES)}") from None
    if N < 0:
        raise ValueError(f"table size must be >= 0, got {N}")
    if family.constraints is None:
        from .products import fquotient
        s = fquotient(family.gf, N)
        return [s.coeff(n) for n in range(N + 1)]
    table = count_table(family.constraints[0], N)
    for c in family.constraints[1:]:
        table = convolve_tables(table, count_table(c, N), N)
    return table
