"""Shared fixtures and brute-force oracles.

The oracles deliberately avoid the library's fast paths: norms are computed by
direct double loops over character values, the pattern search enumerates
all ordered row/column triples, and translates, stabilizers, subgroup tests
and canonical forms loop over bits with the scalar Group.mul, so they can
arbitrate the optimized implementations.
"""

import itertools
import random

import numpy as np
import pytest

from idemnorm import (
    builtin_group,
    character_value,
    make_abelian_group,
    subset_elements,
)


@pytest.fixture(scope="session")
def z4():
    return make_abelian_group([4])


@pytest.fixture(scope="session")
def z5():
    return make_abelian_group([5])


@pytest.fixture(scope="session")
def z6():
    return make_abelian_group([6])


@pytest.fixture(scope="session")
def z8():
    return make_abelian_group([8])


@pytest.fixture(scope="session")
def z2z4():
    return make_abelian_group([2, 4])


@pytest.fixture(scope="session")
def s3():
    return builtin_group("S3")


@pytest.fixture(scope="session")
def d4():
    return builtin_group("D4")


@pytest.fixture(scope="session")
def q8():
    return builtin_group("Q8")


def oracle_mu(group, mask):
    """mu by direct summation of conjugated character values."""
    n = group.order
    members = subset_elements(mask)
    return np.array([sum(np.conj(character_value(group, x, s)) for s in members) / n
                     for x in range(n)], dtype=complex)


def oracle_bs_norm(group, mask):
    if mask == 0:
        return 0.0
    return float(np.abs(oracle_mu(group, mask)).sum())


FORBIDDEN = ((1, 1, 1), (1, 1, 0), (1, 0, 1))


def oracle_pattern_search(group, mask):
    """First forbidden-pattern submatrix in (rows, cols) lexicographic order,
    by plain enumeration of all ordered triples."""
    n = group.order
    for rows in itertools.permutations(range(n), 3):
        for cols in itertools.permutations(range(n), 3):
            if all(((mask >> group.mul(group.inv(r), c)) & 1) == FORBIDDEN[i][j]
                   for i, r in enumerate(rows) for j, c in enumerate(cols)):
                return rows, cols
    return None


def all_subgroups(group):
    """Bitmasks of every subgroup, by filtering all subsets (small orders only)."""
    from idemnorm import is_subgroup

    return [m for m in range(1 << group.order) if is_subgroup(group, m)]


def _oracle_elements(group, mask):
    return [s for s in range(group.order) if (mask >> s) & 1]


def oracle_translate_left(group, t, mask):
    """Bitmask of t*S, one scalar product per element."""
    out = 0
    for s in _oracle_elements(group, mask):
        out |= 1 << group.mul(t, s)
    return out


def oracle_translate_right(group, mask, t):
    """Bitmask of S*t, one scalar product per element."""
    out = 0
    for s in _oracle_elements(group, mask):
        out |= 1 << group.mul(s, t)
    return out


def oracle_is_subgroup(group, mask):
    """Contains the identity and every product of two members."""
    if not (mask >> group.identity) & 1:
        return False
    members = _oracle_elements(group, mask)
    return all((mask >> group.mul(a, b)) & 1 for a in members for b in members)


def oracle_stabilizer(group, mask):
    """{t : S t = S and t S = S} by testing every t against every s."""
    members = _oracle_elements(group, mask)
    out = 0
    for t in range(group.order):
        if (all((mask >> group.mul(s, t)) & 1 for s in members)
                and all((mask >> group.mul(t, s)) & 1 for s in members)):
            out |= 1 << t
    return out


def oracle_orbit(group, mask):
    """Left translates (abelian) or two-sided translates t S u (otherwise)."""
    if group.is_abelian:
        return {oracle_translate_left(group, t, mask) for t in range(group.order)}
    return {oracle_translate_right(group, oracle_translate_left(group, t, mask), u)
            for t in range(group.order) for u in range(group.order)}


def oracle_canonical_form(group, mask):
    return min(oracle_orbit(group, mask))


def oracle_class_count(group):
    """Translation classes of subsets by Burnside's lemma: the mean of
    2^(cycles) over the maps x -> t x (abelian) or x -> t x u (otherwise)."""
    n = group.order
    if group.is_abelian:
        maps = [[group.mul(t, x) for x in range(n)] for t in range(n)]
    else:
        maps = [[group.mul(group.mul(t, x), u) for x in range(n)]
                for t in range(n) for u in range(n)]
    total = 0
    for image in maps:
        seen = [False] * n
        cycles = 0
        for x in range(n):
            if not seen[x]:
                cycles += 1
                while not seen[x]:
                    seen[x] = True
                    x = image[x]
        total += 2 ** cycles
    assert total % len(maps) == 0
    return total // len(maps)


def _closure(group, gens):
    """Elements of the subgroup generated by gens, by scalar products."""
    members = {group.identity}
    frontier = [group.identity]
    while frontier:
        fresh = []
        for x in frontier:
            for g in gens:
                y = group.mul(x, g)
                if y not in members:
                    members.add(y)
                    fresh.append(y)
        frontier = fresh
    return members


def random_subgroup(group, rng, size):
    """A subgroup with `size` elements, spanned by random elements."""
    gens_needed = size.bit_length() - 1 if group.factors and max(group.factors) == 2 else 2
    while True:
        gens = [rng.randrange(group.order) for _ in range(rng.randint(1, gens_needed))]
        sub = _closure(group, gens)
        if len(sub) == size:
            return sub


def relative_order(group, c, sub):
    """Smallest q >= 1 with c^q in the subgroup."""
    q, x = 1, c
    while x not in sub:
        x = group.mul(x, c)
        q += 1
    return q


def planted_subsets(group, seed, coset_size, union_size, random_size):
    """Seeded (kind, q, mask) inputs: a coset of a subgroup of order
    coset_size, unions of two cosets of a subgroup of order union_size with
    relative order q in {4, 8} (where the group has elements of order 4), and
    a random set of random_size elements."""
    rng = random.Random(seed)
    out = []
    sub = random_subgroup(group, rng, coset_size)
    a = rng.randrange(group.order)
    out.append(("coset", None, sum(1 << group.mul(a, h) for h in sub)))
    if max(group.factors) > 2:
        for q in (4, 8):
            sub = random_subgroup(group, rng, union_size)
            while True:
                c = rng.randrange(group.order)
                if relative_order(group, c, sub) == q:
                    break
            a = rng.randrange(group.order)
            b = group.mul(a, c)
            out.append(("two_cosets", q, sum(1 << group.mul(r, h)
                                               for r in (a, b) for h in sub)))
    members = rng.sample(range(group.order), random_size)
    out.append(("other", None, sum(1 << x for x in members)))
    return out


def burnside_abelian(group):
    """(1/n) sum_g 2^(n / ord g) for an abelian group."""
    n = group.order
    orders = []
    for g in range(n):
        k, x = 1, g
        while x != group.identity:
            x = group.mul(x, g)
            k += 1
        orders.append(k)
    total = sum(2 ** (n // k) for k in orders)
    assert total % n == 0
    return total // n


def oracle_find_witness(group, mask):
    """First (u, v, w) in lexicographic order with u, v, u+w in S and v+w,
    v-w outside S, by a triple loop over scalar products."""
    members = _oracle_elements(group, mask)
    for u in members:
        for v in members:
            for w in range(group.order):
                if ((mask >> group.mul(u, w)) & 1
                        and not (mask >> group.mul(v, w)) & 1
                        and not (mask >> group.mul(v, group.inv(w))) & 1):
                    return u, v, w
    return None
