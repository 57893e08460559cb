"""Combinatorial oracles, cross-checked by exhaustive enumeration."""

from collections import Counter
from math import prod

import pytest

from qcong import Parts, count_family, count_table, count_triples, fquotient

ALL = Parts()
DISTINCT_ODD = Parts(odd=True, distinct=True)


def enumerate_partitions(n, parts, distinct=False):
    """All partitions of n from the given part list, by depth-first search."""
    out = []

    def go(rest, idx, current):
        if rest == 0:
            out.append(tuple(current))
            return
        for i in range(idx, len(parts)):
            p = parts[i]
            if p > rest:
                continue
            current.append(p)
            go(rest - p, i + 1 if distinct else i, current)
            current.pop()

    go(n, 0, [])
    return out


def every(n):
    return list(range(1, n + 1))


def odd_parts(n):
    return list(range(1, n + 1, 2))


def fours(n):
    return list(range(4, n + 1, 4))


def count_tuples(n, lists):
    """Tuples of partitions, one from each (parts(n), distinct) list, whose
    sizes add up to n, by enumerating every split of n."""
    if not lists:
        return int(n == 0)
    (parts, distinct), rest = lists[0], lists[1:]
    return sum(len(enumerate_partitions(k, parts(k), distinct))
               * count_tuples(n - k, rest) for k in range(n + 1))


def cubic(n):
    """Cubic partitions of n: plain partitions whose even parts come in two
    colors, so an even part of multiplicity m can be colored in m+1 ways."""
    return sum(prod(m + 1 for part, m in Counter(pi).items() if part % 2 == 0)
               for pi in enumerate_partitions(n, every(n)))


#: every oracle family by its definition, independent of partitions.FAMILIES
ENUMERATED = {
    "B": lambda n: count_tuples(n, [(odd_parts, True), (odd_parts, True),
                                    (fours, False)]),
    "b": lambda n: count_tuples(n, [(odd_parts, True), (fours, False),
                                    (fours, False)]),
    "p": lambda n: len(enumerate_partitions(n, every(n))),
    "a": cubic,
}


@pytest.mark.parametrize("name", ENUMERATED)
def test_family_vs_enumeration(name):
    assert count_family(name, 12) == [ENUMERATED[name](n) for n in range(13)]


def test_parts_lists():
    # parts 3 and 9, each at most once: 0, 3, 9 and 12
    assert count_table([Parts(3, odd=True, distinct=True)], 12) == \
        [1, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 1]
    # parts 2 and 6, unbounded: 2+2+2 and 6 both make 6
    assert count_table([Parts(2, odd=True)], 6) == [1, 0, 1, 0, 1, 0, 2]
    with pytest.raises(ValueError, match="part step"):
        Parts(0)
    with pytest.raises(ValueError, match="table size"):
        count_table([ALL], -1)
    assert count_table([], 3) == [1, 0, 0, 0]


def test_unrestricted_small_values():
    assert count_table([ALL], 6) == [1, 1, 2, 3, 5, 7, 11]


def test_unrestricted_vs_enumeration():
    for n in range(1, 13):
        want = len(enumerate_partitions(n, list(range(1, n + 1))))
        assert count_table([ALL], n)[n] == want


def test_distinct_odd_frozen_row():
    assert count_table([DISTINCT_ODD], 8) == [1, 1, 0, 1, 1, 1, 1, 1, 2]


def test_distinct_odd_vs_enumeration():
    for n in range(1, 26):
        want = len(enumerate_partitions(n, list(range(1, n + 1, 2)), distinct=True))
        assert count_table([DISTINCT_ODD], n)[n] == want


def test_multiples_of_4_rescaling():
    t = count_table([Parts(4)], 40)
    p = count_table([ALL], 10)
    for n in range(41):
        assert t[n] == (p[n // 4] if n % 4 == 0 else 0)


def test_even_two_colors_vs_pair_decomposition():
    """Cubic partitions split uniquely as (plain partition, partition into
    evens), so a(n) = sum_j p(j) * p((n-j)/2) over even n-j."""
    N = 60
    t = count_table([ALL, Parts(2)], N)
    p = count_table([ALL], N)
    for n in range(N + 1):
        want = sum(p[j] * p[(n - j) // 2] for j in range(n + 1) if (n - j) % 2 == 0)
        assert t[n] == want
    s = fquotient({1: -1, 2: -1}, N)
    assert t == [s.coeff(n) for n in range(N + 1)]


def test_cubic_a2_is_3():
    assert count_table([ALL, Parts(2)], 2)[2] == 3  # 2r, 2g, 1+1


def test_count_triples_small_frozen():
    assert count_triples(5) == [1, 2, 1, 2, 5, 6]


def test_count_triples_vs_exhaustive_enumeration():
    for n in range(13):
        total = 0
        for n1 in range(n + 1):
            odd1 = len(enumerate_partitions(n1, list(range(1, n1 + 1, 2)),
                                            distinct=True)) if n1 else 1
            for n2 in range(n + 1 - n1):
                odd2 = len(enumerate_partitions(n2, list(range(1, n2 + 1, 2)),
                                                distinct=True)) if n2 else 1
                n3 = n - n1 - n2
                m4 = len(enumerate_partitions(n3, list(range(4, n3 + 1, 4)))) \
                    if n3 else 1
                total += odd1 * odd2 * m4
        assert count_triples(n)[n] == total


def test_triple_parity_and_mod5():
    t = count_triples(20)
    assert t[4] % 5 == 0
    for n in (1, 3, 5, 7, 9):
        assert t[n] % 2 == 0


def test_count_triples_matches_quotient_through_400():
    s = fquotient({2: 4, 1: -2, 4: -3}, 400)
    assert count_triples(400) == [s.coeff(n) for n in range(401)]


def test_convolution_consistency():
    """The triple table equals the coefficientwise product of the three
    constraint generating series."""
    N = 120
    oo = count_table([DISTINCT_ODD], N)
    m4 = count_table([Parts(4)], N)
    ab = [sum(oo[i] * oo[n - i] for i in range(n + 1)) for n in range(N + 1)]
    abc = [sum(ab[i] * m4[n - i] for i in range(n + 1)) for n in range(N + 1)]
    assert count_triples(N) == abc


def test_triple_lower_bounds():
    t = count_triples(200)
    p = count_table([ALL], 50)
    assert all(v >= 0 for v in t)
    for m in range(51):
        assert t[4 * m] >= p[m]


def test_family_tables():
    p = count_family("p", 10)
    assert p == count_table([ALL], 10)
    a = count_family("a", 302)
    for n in range(101):
        assert a[3 * n + 2] % 3 == 0
    b = count_family("b", 310)
    s = fquotient({2: 2, 1: -1, 4: -3}, 310)
    assert b == [s.coeff(n) for n in range(311)]
    for n in range(100):
        assert b[3 * n + 2] % 3 == 0
    big = count_family("B", 20)
    assert big == count_triples(20)


def test_abar_series_backed():
    abar = count_family("abar", 80)
    s = fquotient({4: 1, 1: -2, 2: -1}, 80)
    assert abar == [s.coeff(n) for n in range(81)]
    for n in range(26):
        assert abar[3 * n + 2] % 6 == 0


def test_unknown_family():
    with pytest.raises(ValueError, match="unknown counting family"):
        count_family("zeta", 5)
