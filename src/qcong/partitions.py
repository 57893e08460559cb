"""Combinatorial counting of restricted partitions, independent of the
series engine.  These tables are the ground truth the generating-function
expansions are checked against.

A family counts tuples of partitions, one from each of its part lists
(``Parts``); ``count_table`` folds every list's parts into one table by
knapsack.  ``FAMILIES`` is the one table of the named counting families.
"""

from __future__ import annotations

from .products import FQuotientSpec, fquotient
from .records import FrozenRecord
from .series import _check_window


class Parts(FrozenRecord):
    """The parts d, 2d, 3d, ..., only the odd multiples d, 3d, 5d, ... when
    ``odd``, each part used at most once when ``distinct``."""

    d: int = 1
    odd: bool = False
    distinct: bool = False

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"part step must be >= 1, got {self.d}")


def count_table(lists, N):
    """table[n] for 0 <= n <= N: the number of tuples of partitions, one
    from each part list, whose sizes add up to n.

    One knapsack fold: each part p of each list multiplies the table's
    series by 1 + q^p when distinct (n runs downward, so p is used at most
    once) and by 1/(1 - q^p) otherwise (n runs upward)."""
    if N < 0:
        raise ValueError(f"table size must be >= 0, got {N}")
    _check_window(N)
    table = [1] + [0] * N
    for parts in lists:
        for p in range(parts.d, N + 1, 2 * parts.d if parts.odd else parts.d):
            for n in (range(N, p - 1, -1) if parts.distinct else range(p, N + 1)):
                table[n] += table[n - p]
    return table


def count_triples(N):
    """table[n] = number of triples (pi1, pi2, pi3) with |pi1|+|pi2|+|pi3| = n,
    pi1 and pi2 into distinct odd parts, pi3 into multiples of 4.

    This is the counting function the whole toolkit revolves around; its
    generating function is f_2^4/(f_1^2 f_4^3).
    """
    return count_family("B", N)


class Family(FrozenRecord):
    """A counting family: its generating function, given as ``{d: r_d}``
    and held as its ``FQuotientSpec``, the part lists its oracle table is
    folded from (None: no oracle, counted from the series) and the
    literature congruences ``(A, r, m)``, coefficient(An + r) = 0 (mod m)."""

    gf: FQuotientSpec
    parts: tuple | None
    known: frozenset = frozenset()

    def __post_init__(self):
        vars(self)["gf"] = FQuotientSpec.of(self.gf)


DISTINCT_ODD = Parts(odd=True, distinct=True)

#: the named counting families, in the order the CLI lists them
FAMILIES = {
    # two distinct-odd lists and one multiples-of-4 list
    "B": Family({2: 4, 1: -2, 4: -3}, (DISTINCT_ODD, DISTINCT_ODD, Parts(4)),
                frozenset({(2, 1, 2), (5, 4, 5), (27, 16, 3)})),
    # one distinct-odd list and two multiples-of-4 lists
    "b": Family({2: 2, 1: -1, 4: -3}, (DISTINCT_ODD, Parts(4), Parts(4)),
                frozenset({(3, 2, 3)})),
    # unrestricted partitions
    "p": Family({1: -1}, (Parts(),), frozenset({(5, 4, 5), (7, 5, 7)})),
    # cubic partitions: every part, plus the even parts in a second color
    "a": Family({1: -1, 2: -1}, (Parts(), Parts(2))),
    # overcubic partitions: cubic partitions whose first occurrences may be
    # overlined; that bookkeeping is error-prone, so they are counted from
    # their quotient expansion only
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
    if family.parts is None:
        return fquotient(family.gf, N).coeff_window(0, N)
    return count_table(family.parts, N)
