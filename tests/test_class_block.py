"""The array kernels behind classify against the conftest oracles.

sweep._classify runs the stabilizers, the norm (mu and the character sum
on abelian groups, the cb bracket on Cayley groups), the witness search,
the witness integral and the pattern search as array kernels over a uint64
stack of masks, at most 128 a call, and builds their records.  A sweep
builds each 4096-mask block once, the records of its canonical masks as
one stack, and classify reads a canonical mask's record from the block
held; any other mask, and any mask outside a sweep, is a batch of one.
These tests compare every record and every layer with the brute-force
oracles on every subset of small abelian groups, on every class of small
Cayley groups (whose brackets must equal per-call cb_norm bit for bit) and
on seeded batches at the order-64 cap, check that a stack gives each set
what a batch of one gives it, and query classify in orders a sweep never
uses.
"""

import importlib
import random

import numpy as np
import pytest

from idemnorm import canonical_form, cb_norm, classify, parse_group, stabilizer, sweep
from idemnorm.groups import _lowest, _lowest_bits, _spectra, _translates
from idemnorm.sweep import DEFAULT_TOL_EXACT
from idemnorm.witness import SUP_NORM_F

from conftest import (cayley_table_group, dicyclic_group, dihedral_group,
                      oracle_analyze_cosets, oracle_bs_norm, oracle_find_witness, oracle_mu,
                      oracle_mul, oracle_orbit, oracle_pattern_search, oracle_right_stabilizer,
                      oracle_stabilizer)

sweep_module = importlib.import_module("idemnorm.sweep")

SMALL = ("Z2", "Z3", "Z4", "Z5", "Z6", "Z7", "Z8", "Z9", "Z10",
         "Z2xZ4", "Z3xZ3", "Z2xZ2xZ2", "Z2xZ6")


def _stack(group, masks):
    """The uint64 masks and their translate rows, as _class_layers takes them."""
    return (np.array(masks, dtype=np.uint64),
            np.stack([_translates(group, mask) for mask in masks]))


def _classify(group, masks):
    """The records of one _classify stack of masks, at the default tolerance."""
    return sweep_module._classify(group, np.array(masks, dtype=np.uint64), DEFAULT_TOL_EXACT)


def _oracle_bound(group, mask, triple):
    """|integral| / (9/2) from the memberships alone: 6, plus 1/2 when
    u - w lies in S."""
    u, _, w = triple
    inverse_w = next(x for x in range(group.order) if oracle_mul(group, w, x) == 0)
    return (6.0 + 0.5 * (mask >> oracle_mul(group, u, inverse_w) & 1)) / SUP_NORM_F


def _check_layers(group, mask, layers, mu=None):
    """Compare one set's layers (orbit size, right stabilizer, stabilizer,
    norm lower and upper, witness, bound, pattern) with the oracles: on
    abelian groups the character sum of mu (oracle_mu's unless given) and
    the witness oracle, on Cayley groups a per-call cb_norm, bit for bit,
    and no witness."""
    orbit_size, right, stab, lower, upper, witness, bound, pattern = layers
    assert orbit_size == len(oracle_orbit(group, mask))
    assert right == oracle_right_stabilizer(group, mask)
    assert stab == oracle_stabilizer(group, mask)
    if group.is_abelian:
        assert lower == upper
        assert lower == pytest.approx(oracle_bs_norm(group, mask, mu), abs=1e-12)
        expected = oracle_find_witness(group, mask)
    else:
        bounds = cb_norm(group, mask)
        assert (lower, upper) == (bounds.lower, bounds.upper)
        expected = None
    assert (None if witness is None else (witness.u, witness.v, witness.w)) == expected
    assert bound == (None if expected is None else _oracle_bound(group, mask, expected))
    assert pattern == oracle_pattern_search(group, mask)


def _check_analysis(group, record):
    analysis = record.analysis
    assert (analysis.kind, analysis.subgroup, analysis.rep_a, analysis.rep_b,
            analysis.q) == oracle_analyze_cosets(group, record.subset)


def _layers(group, masks):
    """_class_layers over a stack of masks, in slices of _LAYER_SLICE as
    _classify takes them."""
    stack = np.array(masks, dtype=np.uint64)
    step = sweep_module._LAYER_SLICE
    return [found for lo in range(0, len(stack), step)
            for found in sweep_module._class_layers(group, *_stack(group, stack[lo:lo + step]))]


@pytest.mark.parametrize("spec", SMALL)
def test_records_and_layers_match_oracles_on_every_subset(spec):
    group = parse_group(spec)
    masks = range(1 << group.order)
    # mu of every subset at once, against direct character sums, which the
    # norms are then checked against
    mus = [oracle_mu(group, mask) for mask in masks]
    spectra = _spectra(group, np.array(masks, dtype=np.uint64)) / group.order
    assert np.allclose(spectra, mus, atol=1e-12)
    records = _classify(group, masks)
    for mask, layers, record, mu in zip(masks, _layers(group, masks), records, mus):
        _check_layers(group, mask, layers, mu)
        assert layers[2] == stabilizer(group, mask)
        assert (record.orbit_size, record.norm_lower, record.norm_upper, record.witness,
                record.witness_bound, record.pattern) == tuple(layers[i] for i in (0, 3, 4, 5, 6, 7))
        _check_analysis(group, record)
        assert record.norm_exact


CAYLEY = {"S3": lambda: parse_group("S3"), "D4": lambda: parse_group("D4"),
          "Q8": lambda: parse_group("Q8"), "D5": lambda: dihedral_group(5),
          "Dic3": lambda: dicyclic_group(3), "D8": lambda: dihedral_group(8),
          "cayley-Z12": lambda: cayley_table_group("Z12"),
          "cayley-Z3xZ3": lambda: cayley_table_group("Z3xZ3")}


@pytest.mark.parametrize("name", CAYLEY)
def test_cayley_layers_and_records_match_oracles_on_every_class(name):
    # every class of the group, shuffled into one stack: its stabilizers,
    # brackets and patterns against the oracles and per-call cb_norm, its
    # analysis against oracle_analyze_cosets, and each record equal to the
    # one a batch of one gives.  The Cayley tables of Z12 and Z3xZ3 lay out
    # as k = 1 and k = 3 blocks, the dihedral and dicyclic groups as k = 2
    group = CAYLEY[name]()
    masks = [record.subset for record in sweep(group).records]
    random.Random(5).shuffle(masks)
    records = _classify(group, masks)
    for mask, layers, record in zip(masks, _layers(group, masks), records):
        _check_layers(group, mask, layers)
        assert (record.orbit_size, record.norm_lower, record.norm_upper, record.pattern) == (
            layers[0], layers[3], layers[4], layers[7])
        _check_analysis(group, record)
        assert not record.norm_exact
        assert _classify(group, [mask]) == [record]


def _random_batch(order, seed):
    """Seeded masks of every density, and masks whose bit 63 decides a
    layer: {63}, {0, 63}, a random set with 63, and the whole group."""
    rng = random.Random(seed)
    masks = [sum(1 << x for x in rng.sample(range(order), rng.randint(1, order)))
             for _ in range(24)]
    top = 1 << (order - 1)
    return masks + [top, top | 1, rng.getrandbits(order) | top, (1 << order) - 1]


@pytest.mark.parametrize("spec", ["Z64", "Z8xZ8", "Z2xZ2xZ2xZ2xZ2xZ2"])
def test_layers_match_oracles_on_random_batches_at_order_64(spec):
    group = parse_group(spec)
    masks = _random_batch(group.order, seed=group.order + len(spec))
    layers = sweep_module._class_layers(group, *_stack(group, masks))
    assert len(layers) == len(masks)
    for mask, found in zip(masks, layers):
        _check_layers(group, mask, found)
    # both outcomes of both searches occur
    assert {found[5] is None for found in layers} == {True, False}
    assert {found[7] is None for found in layers} == {True, False}


def test_lowest_bits_is_exact_on_bits_0_to_63():
    rng = random.Random(63)
    masks = ([1 << k for k in range(64)] + [(1 << 64) - (1 << k) for k in range(64)]
             + [rng.getrandbits(64) | 1 << 63 for _ in range(100)])
    found = _lowest_bits(np.array(masks, dtype=np.uint64)).tolist()
    assert found == [_lowest(mask) for mask in masks]
    assert _lowest_bits(np.zeros(3, dtype=np.uint64)).tolist() == [-1, -1, -1]


@pytest.mark.parametrize("spec", ["Z12", "Z2xZ6", "D4"])
def test_a_batch_gives_each_set_what_a_batch_of_one_gives(spec):
    # a sweep stacks only canonical masks; here every mask of each block,
    # canonical or not, is batched together and one at a time, and both
    # must agree with the record _classify builds from a stack of them
    group = parse_group(spec)
    for high in range(max(1, 1 << (group.order - 8))):
        masks = [(high << 8) | v for v in range(min(256, 1 << group.order))]
        together = sweep_module._class_layers(group, *_stack(group, masks))
        for mask, layers, record in zip(masks, together, _classify(group, masks)):
            assert layers == sweep_module._class_layers(group, *_stack(group, [mask]))[0]
            orbit_size, _, stab, lower, upper, witness, bound, pattern = layers
            assert (orbit_size, lower, upper, witness, bound, pattern) == (
                record.orbit_size, record.norm_lower, record.norm_upper, record.witness,
                record.witness_bound, record.pattern)
            assert stab == stabilizer(group, mask)


@pytest.mark.parametrize("spec", ["Z12", "Z2xZ6"])
def test_classify_gives_the_same_records_in_any_query_order(spec):
    # a sweep asks in increasing order, from the block it built; here no
    # block is held, and classify must give the records of one stack of
    # every mask in descending and shuffled order
    group = parse_group(spec)
    masks = list(range(1 << group.order))
    expected = _classify(group, masks)
    shuffled = masks[:]
    random.Random(1).shuffle(shuffled)
    for order in (masks[::-1], shuffled):
        for mask in order:
            assert classify(group, mask) == expected[mask]


def test_classify_keeps_each_group_its_own_block():
    # Z12 and Z2xZ6 share every mask and differ in their classes: with
    # Z12's block held by its sweep, alternating the groups on each mask
    # must not read one group's block for the other
    cyclic, product = parse_group("Z12"), parse_group("Z2xZ6")
    expected = {g: _classify(g, range(1 << 12)) for g in (cyclic, product)}
    assert expected[cyclic] != expected[product]
    sweep(cyclic)
    for mask in range(1 << 12):
        for g in (cyclic, product):
            assert classify(g, mask) == expected[g][mask]


def _count_calls(monkeypatch):
    """Patch sweep._build_block and sweep._classify to log the high part of
    each block built and the size of each stack classified."""
    built, stacks = [], []
    build_block, classify_stack = sweep_module._build_block, sweep_module._classify

    def counting_block(group, high, tol):
        built.append(high)
        return build_block(group, high, tol)

    def counting_stack(group, masks, tol):
        stacks.append(len(masks))
        return classify_stack(group, masks, tol)

    monkeypatch.setattr(sweep_module, "_build_block", counting_block)
    monkeypatch.setattr(sweep_module, "_classify", counting_stack)
    return built, stacks


@pytest.mark.parametrize("spec", ["Z12", "Z14"])
def test_classify_out_of_order_builds_no_block(spec, monkeypatch):
    # outside sweep() nothing builds a block, in any order: canonical_form
    # of every mask in increasing order, then classify of each class in
    # the order a sweep asks, and again shuffled, are one row of translates
    # and one batch of one a call, and give the forms and records the
    # sweep read from its blocks
    ascending = sweep(parse_group(spec)).records
    group = parse_group(spec)
    built, stacks = _count_calls(monkeypatch)
    forms = [canonical_form(group, mask) for mask in range(1 << group.order)]
    assert sorted(set(forms)) == [r.subset for r in ascending]
    shuffled = ascending[:]
    random.Random(2).shuffle(shuffled)
    for order in (ascending, shuffled):
        for record in order:
            assert classify(group, record.subset) == record
    assert built == [] and stacks == [1] * (2 * len(ascending))


@pytest.mark.parametrize("make", [lambda: parse_group("Z14"), lambda: parse_group("D4"),
                                  lambda: dihedral_group(7)], ids=["Z14", "D4", "D7"])
def test_canonical_form_then_classify_in_any_order_builds_each_blocks_records_once(
        make, monkeypatch):
    # a sweep builds each block exactly once, in increasing order, with
    # the records of its canonical masks as one stack; canonical_form and
    # then classify on each class in shuffled order afterwards build
    # nothing, read the last block's records and classify the other
    # blocks' classes one at a time
    group = make()
    built, stacks = _count_calls(monkeypatch)
    records = sweep(group).records
    blocks = max(1, (1 << group.order) >> 12)
    assert built == list(range(blocks))
    assert stacks == [sum(1 for r in records if r.subset >> 12 == high) for high in built]
    built.clear()
    stacks.clear()
    shuffled = records[:]
    random.Random(3).shuffle(shuffled)
    for record in shuffled:
        assert canonical_form(group, record.subset) == record.subset
        assert classify(group, record.subset) == record
    assert built == []
    assert stacks == [1] * sum(1 for r in records if r.subset >> 12 != blocks - 1)
    # a second sweep of the group builds each block once more
    assert sweep(group).records == records and built == list(range(blocks))


@pytest.mark.parametrize("make", [lambda: parse_group("Z14"), lambda: parse_group("D4"),
                                  lambda: dihedral_group(7)], ids=["Z14", "D4", "D7"])
def test_a_shuffled_stack_gives_each_mask_the_record_classify_gives_it(make):
    # _classify takes any masks in any order: a shuffled stack of masks
    # from every block, canonical and not, with repeats, longer than one
    # 128-mask slice, gives each mask the record classify gives it alone
    group = make()
    size = 1 << group.order
    rng = random.Random(4)
    masks = rng.sample(range(size), min(size, 200))
    masks += [canonical_form(group, mask) for mask in masks] + [0, size - 1]
    rng.shuffle(masks)
    assert len(masks) > 256 and len({mask >> 12 for mask in masks}) == max(1, size >> 12)
    assert any(canonical_form(group, m) != m for m in masks)
    assert _classify(group, masks) == [classify(group, mask) for mask in masks]
