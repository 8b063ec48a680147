"""The witness and pattern searches against their earlier numpy forms.

find_witness and forbidden_pattern_search are batches of one over the array
kernels that classify runs over a block of classes (witness._find_witnesses
and multiplier._pattern_searches).  The references below are earlier
numpy passes over one set at a time, kept here as oracles: the witness
kernel is the batched form of numpy_find_witness, and numpy_pattern_search
keeps the per-set column classes of every (r2, r3).  The two must return
the same triple (or None) on every subset of the small groups and on
seeded random subsets up to the order-64 cap, where the brute-force
witness oracle in conftest is too slow to run on many sets.  The pattern
kernel, which tests the row pairs r2 < r3 only, is also held to its
full-pair form (full_pair_pattern_searches) on whole stacks of subsets.
"""

import random

import numpy as np
import pytest

from idemnorm import (
    find_witness,
    forbidden_pattern_search,
    parse_group,
)
from idemnorm.groups import Group, _lowest_bits, _row_masks, _translates
from idemnorm.multiplier import _pattern_searches, _row_flags

from conftest import dihedral_group


def numpy_find_witness(group, mask):
    """First witness in lexicographic (u, v, w) order, from whole-array
    operations on the uint64 translates: A_w = S & (S - w) and
    B_w = S minus ((S - w) | (S + w)) for every w at once."""
    translates = _translates(group, mask)
    s = np.uint64(mask)
    back = translates[group._inverse]
    a = s & back
    b = s & ~(back | translates)
    usable = (a != 0) & (b != 0)
    if not usable.any():
        return None
    u = _lowest(int(np.bitwise_or.reduce(a[usable])))
    usable &= ((a >> np.uint64(u)) & np.uint64(1)) != 0
    v = _lowest(int(np.bitwise_or.reduce(b[usable])))
    w = int(np.argmax(usable & (((b >> np.uint64(v)) & np.uint64(1)) != 0)))
    return u, v, w


def numpy_pattern_search(group, mask):
    """First forbidden-pattern hit with r1 = 0, from the three column classes
    of every (r2, r3) formed as n-by-n uint64 arrays."""
    n = group.order
    if group.is_abelian:
        rows = _translates(group, mask)
    else:
        bits = np.left_shift(np.uint64(1), np.arange(n, dtype=np.uint64))
        rows = _row_flags(group, mask).astype(np.uint64) @ bits
    both = rows[0] & rows
    col1 = both[:, None] & rows
    col2 = both[:, None] & ~rows
    col3 = both & ~rows[:, None]
    hits = (col1 != 0) & (col2 != 0) & (col3 != 0)
    if not hits.any():
        return None
    r2, r3 = np.unravel_index(np.argmax(hits), hits.shape)
    c1, c2, c3 = (int(c[r2, r3]) for c in (col1, col2, col3))
    return (0, int(r2), int(r3)), tuple(_lowest(c) for c in (c1, c2, c3))


def _lowest(mask):
    return (mask & -mask).bit_length() - 1


def _group(spec):
    return dihedral_group(int(spec[1:])) if spec in ("D5", "D32") else parse_group(spec)


def _witness(group, mask):
    found = find_witness(group, mask)
    return None if found is None else (found.u, found.v, found.w)


def _disagreements(group, masks):
    """Masks on which a search and its numpy form disagree."""
    return [mask for mask in masks
            if forbidden_pattern_search(group, mask) != numpy_pattern_search(group, mask)
            or group.is_abelian and _witness(group, mask) != numpy_find_witness(group, mask)]


@pytest.mark.parametrize("spec", ["Z6", "Z8", "Z2xZ4", "Z3xZ3", "Z10", "S3", "D4", "Q8"])
def test_searches_match_numpy_forms_on_every_subset(spec):
    group = parse_group(spec)
    assert _disagreements(group, range(1 << group.order)) == []


def _random_masks(order, count, seed):
    """Seeded subsets of every density: each draws its size uniformly from
    0..order, so sparse sets without a witness or a pattern are common."""
    rng = random.Random(seed)
    return [sum(1 << x for x in rng.sample(range(order), rng.randint(0, order)))
            for _ in range(count)]


@pytest.mark.parametrize("spec", ["Z24", "Z64", "Z8xZ8", "Z2xZ2xZ2xZ2xZ2xZ2", "D32"])
def test_searches_match_numpy_forms_on_random_subsets(spec):
    group = _group(spec)
    masks = _random_masks(group.order, 400, seed=group.order)
    assert _disagreements(group, masks) == []
    # both outcomes of the pattern search are exercised
    found = [forbidden_pattern_search(group, mask) is not None for mask in masks]
    assert any(found) and not all(found)


@pytest.mark.parametrize("spec", ["Z64", "Z8xZ8", "Z2xZ2xZ2xZ2xZ2xZ2", "D32"])
def test_searches_match_numpy_forms_on_order_64_cosets(spec):
    # subgroups and their translates are pattern-free and witness-free, the
    # case where both searches scan every row
    group = _group(spec)
    rng = random.Random(64)
    masks = []
    for _ in range(20):
        gens = rng.sample(range(group.order), rng.randint(1, 3))
        members = {group.identity}
        while True:
            grown = members | {group.mul(x, g) for x in members for g in gens}
            if grown == members:
                break
            members = grown
        t = rng.randrange(group.order)
        masks.append(sum(1 << group.mul(t, x) for x in members))
    assert _disagreements(group, masks) == []
    assert all(forbidden_pattern_search(group, mask) is None for mask in masks)
    if group.is_abelian:
        assert all(find_witness(group, mask) is None for mask in masks)


@pytest.mark.parametrize("spec", ["Z8xZ8", "Z2xZ2xZ2xZ2xZ2xZ2", "D4"])
def test_pattern_search_builds_no_translation_table(spec, monkeypatch):
    # a one-shot search reads the packed product rows s S on every group;
    # the property shadows the table the numpy form cached on the group
    group = _group(spec)
    masks = _random_masks(group.order, 100, seed=5)
    expected = [numpy_pattern_search(group, mask) for mask in masks]

    def refuse(self):
        raise AssertionError("the pattern search built a translation table")

    monkeypatch.setattr(Group, "translation_table", property(refuse))
    assert [forbidden_pattern_search(group, mask) for mask in masks] == expected


def full_pair_pattern_searches(rows):
    """_pattern_searches as it was before it kept the pairs r2 < r3 only:
    the proper overlaps of every ordered row pair (r2, r3), one (B, n, n)
    array, and the first hit in row-major order."""
    count, n = rows.shape
    traces = rows[:, :1] & rows
    first, second = traces[:, :, None], traces[:, None, :]
    both = first & second
    hits = ((both != 0) & ((first ^ both) != 0) & ((second ^ both) != 0)).reshape(count, n * n)
    r2, r3 = np.divmod(hits.argmax(axis=1), n)
    pick = np.arange(count)
    a, b = traces[pick, r2], traces[pick, r3]
    columns = _lowest_bits(np.stack((a & b, a & ~b, b & ~a)))
    return [((0, x2, x3), (c1, c2, c3)) if hit else None for hit, x2, x3, c1, c2, c3
            in zip(hits.any(axis=1).tolist(), r2.tolist(), r3.tolist(), *columns.tolist())]


@pytest.mark.parametrize("spec", ["D4", "Q8", "D5", "Z2xZ4", "Z10"])
def test_pattern_kernel_matches_its_full_pair_form_on_every_subset(spec):
    # the packed multiplier rows of every subset (the translates on an
    # abelian group), one stack: the kernel over r2 < r3 and the full-pair
    # form must find the same first hit, or none, for each
    group = _group(spec)
    rows = np.stack([_translates(group, mask) if group.is_abelian
                     else _row_masks(_row_flags(group, mask))
                     for mask in range(1 << group.order)])
    found = _pattern_searches(rows)
    assert found == full_pair_pattern_searches(rows)
    assert any(hit is None for hit in found) and any(hit is not None for hit in found)
    assert all(hit is None or hit[0][1] < hit[0][2] for hit in found)


def test_pattern_kernel_on_the_group_of_one_element():
    # one row and no row pair: no hit, as the full-pair form finds
    trivial = Group(table=np.zeros((1, 1), dtype=np.int64))
    rows = np.array([[0], [1]], dtype=np.uint64)
    assert _pattern_searches(rows) == full_pair_pattern_searches(rows) == [None, None]
    assert forbidden_pattern_search(trivial, 1) is None
