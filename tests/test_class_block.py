"""The array kernels behind classify against the conftest oracles.

sweep._class_block runs the stabilizer, mu and the norm, the witness
search, the witness integral and the pattern search as array kernels over
the canonical masks of the 4096-mask block that canonical_form holds, at
most 256 masks a call, and builds their records when classify asks for
the block's lowest canonical mask; classify then reads a canonical mask's
record from there while its block is held, and runs any other mask
through the same kernels as a batch of one.  These tests
compare every record and every layer with the brute-force oracles on
every subset of small groups and on seeded batches at the order-64 cap,
check that a batch gives each set what a batch of one gives it, and query
classify in orders a sweep never uses.
"""

import importlib
import random

import numpy as np
import pytest

from idemnorm import canonical_form, classify, parse_group, stabilizer, sweep
from idemnorm.groups import _lowest, _lowest_bits, _spectra, _translates
from idemnorm.witness import SUP_NORM_F

from conftest import (dihedral_group, oracle_analyze_cosets, oracle_bs_norm,
                      oracle_find_witness, oracle_mu, oracle_mul, oracle_orbit,
                      oracle_pattern_search, oracle_stabilizer)

sweep_module = importlib.import_module("idemnorm.sweep")

SMALL = ("Z2", "Z3", "Z4", "Z5", "Z6", "Z7", "Z8", "Z9", "Z10",
         "Z2xZ4", "Z3xZ3", "Z2xZ2xZ2", "Z2xZ6")


def _stack(group, masks):
    """The uint64 masks and their translate rows, as _class_layers takes them."""
    return (np.array(masks, dtype=np.uint64),
            np.stack([_translates(group, mask) for mask in masks]))


def _oracle_bound(group, mask, triple):
    """|integral| / (9/2) from the memberships alone: 6, plus 1/2 when
    u - w lies in S."""
    u, _, w = triple
    inverse_w = next(x for x in range(group.order) if oracle_mul(group, w, x) == 0)
    return (6.0 + 0.5 * (mask >> oracle_mul(group, u, inverse_w) & 1)) / SUP_NORM_F


def _check_layers(group, mask, layers):
    """Compare one set's layers (orbit size, stabilizer, norm, witness,
    bound, pattern) with the oracles."""
    orbit_size, stab, norm, witness, bound, pattern = layers
    assert orbit_size == len(oracle_orbit(group, mask))
    assert stab == oracle_stabilizer(group, mask)
    assert norm == pytest.approx(oracle_bs_norm(group, mask), abs=1e-12)
    expected = oracle_find_witness(group, mask)
    assert (None if witness is None else (witness.u, witness.v, witness.w)) == expected
    assert bound == (None if expected is None else _oracle_bound(group, mask, expected))
    assert pattern == oracle_pattern_search(group, mask)


@pytest.mark.parametrize("spec", SMALL)
def test_records_and_layers_match_oracles_on_every_subset(spec):
    group = parse_group(spec)
    masks = range(1 << group.order)
    # mu of every subset at once, against direct character sums
    spectra = _spectra(group, np.array(masks, dtype=np.uint64)) / group.order
    assert np.allclose(spectra, [oracle_mu(group, mask) for mask in masks], atol=1e-12)
    for mask in masks:
        record = classify(group, mask)
        layers = (record.orbit_size, stabilizer(group, mask), record.norm_lower,
                  record.witness, record.witness_bound, record.pattern)
        _check_layers(group, mask, layers)
        analysis = record.analysis
        assert (analysis.kind, analysis.subgroup, analysis.rep_a, analysis.rep_b,
                analysis.q) == oracle_analyze_cosets(group, mask)
        assert record.norm_upper == record.norm_lower and record.norm_exact


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
    assert {found[3] is None for found in layers} == {True, False}
    assert {found[5] is None for found in layers} == {True, False}


def test_lowest_bits_is_exact_on_bits_0_to_63():
    rng = random.Random(63)
    masks = ([1 << k for k in range(64)] + [(1 << 64) - (1 << k) for k in range(64)]
             + [rng.getrandbits(64) | 1 << 63 for _ in range(100)])
    found = _lowest_bits(np.array(masks, dtype=np.uint64)).tolist()
    assert found == [_lowest(mask) for mask in masks]
    assert _lowest_bits(np.zeros(3, dtype=np.uint64)).tolist() == [-1, -1, -1]


@pytest.mark.parametrize("spec", ["Z12", "Z2xZ6", "D4"])
def test_a_batch_gives_each_set_what_a_batch_of_one_gives(spec):
    # the block batches only canonical masks; here every mask of each block,
    # canonical or not, is batched together and one at a time, and both
    # must agree with the record classify builds
    group = parse_group(spec)
    for high in range(max(1, 1 << (group.order - 8))):
        masks = [(high << 8) | v for v in range(min(256, 1 << group.order))]
        together = sweep_module._class_layers(group, *_stack(group, masks))
        for mask, layers in zip(masks, together):
            assert layers == sweep_module._class_layers(group, *_stack(group, [mask]))[0]
            orbit_size, stab, norm, witness, bound, pattern = layers
            record = classify(group, mask)
            assert (orbit_size, witness, bound, pattern) == (
                record.orbit_size, record.witness, record.witness_bound, record.pattern)
            if group.is_abelian:
                assert (stab, norm) == (stabilizer(group, mask), record.norm_lower)


@pytest.mark.parametrize("spec", ["Z12", "Z2xZ6"])
def test_classify_gives_the_same_records_in_any_query_order(spec):
    # a sweep asks in increasing order, after canonical_form has built the
    # block; here no block is held, and classify must give the same records
    # in ascending, descending and shuffled order
    group = parse_group(spec)
    masks = list(range(1 << group.order))
    expected = [classify(group, mask) for mask in masks]
    shuffled = masks[:]
    random.Random(1).shuffle(shuffled)
    for order in (masks[::-1], shuffled):
        for mask in order:
            assert classify(group, mask) == expected[mask]


def test_classify_keeps_each_group_its_own_block():
    # Z12 and Z2xZ6 share every mask and differ in their classes:
    # alternating the groups on each mask must not read one group's block
    # for the other
    cyclic, product = parse_group("Z12"), parse_group("Z2xZ6")
    expected = {g: [classify(g, mask) for mask in range(1 << 12)] for g in (cyclic, product)}
    assert expected[cyclic] != expected[product]
    for mask in range(1 << 12):
        for g in (cyclic, product):
            assert classify(g, mask) == expected[g][mask]


@pytest.mark.parametrize("spec", ["Z12", "Z14"])
def test_classify_out_of_order_builds_no_block(spec, monkeypatch):
    # classify never builds a block: with no canonical_form call on the
    # group, each class is one batch of one in any order, and its record
    # is the one the sweep read from its block
    ascending = sweep(parse_group(spec)).records
    group = parse_group(spec)
    built, batches = [], []
    canonical_block, class_layers = sweep_module._canonical_block, sweep_module._class_layers

    def counting_block(g, high):
        built.append(high)
        return canonical_block(g, high)

    def counting_layers(g, masks, rows):
        batches.append(len(masks))
        return class_layers(g, masks, rows)

    monkeypatch.setattr(sweep_module, "_canonical_block", counting_block)
    monkeypatch.setattr(sweep_module, "_class_layers", counting_layers)
    shuffled = ascending[:]
    random.Random(2).shuffle(shuffled)
    for record in shuffled:
        assert classify(group, record.subset) == record
    assert built == [] and batches == [1] * len(ascending)
    # once canonical_form of the first mask holds a block, classify of its
    # lowest canonical mask, the empty set too, builds the block's records
    # by slices of at most 256; the block's masks asked before it, and the
    # other masks, stay batches of one
    batches.clear()
    assert canonical_form(group, 1) == 1 and built == []
    assert canonical_form(group, 0) == 0 and built == [0]
    for record in shuffled:
        assert classify(group, record.subset) == record
    in_block = sum(1 for r in ascending if r.subset >> 12 == 0)  # 352 and 1118
    before = sum(1 for r in shuffled[:shuffled.index(ascending[0])] if r.subset >> 12 == 0)
    slices = [size for size in batches if size > 1]
    assert slices == [256] * (in_block // 256) + [in_block % 256]
    assert len(batches) == len(slices) + len(ascending) - in_block + before and built == [0]


@pytest.mark.parametrize("make", [lambda: parse_group("Z14"), lambda: parse_group("D4"),
                                  lambda: dihedral_group(7)], ids=["Z14", "D4", "D7"])
def test_canonical_form_then_classify_in_any_order_builds_each_blocks_records_once(
        make, monkeypatch):
    # canonical_form on each mask, then classify, in shuffled order: only a
    # block's first mask builds the block, and only its lowest canonical
    # mask builds its records, so each is built at most once
    ascending = sweep(make()).records
    group = make()
    built, classed = [], []
    canonical_block, class_block = sweep_module._canonical_block, sweep_module._class_block

    def counting_block(g, high):
        built.append(high)
        return canonical_block(g, high)

    def counting_class_block(block, tol):
        classed.append(block.high)
        return class_block(block, tol)

    monkeypatch.setattr(sweep_module, "_canonical_block", counting_block)
    monkeypatch.setattr(sweep_module, "_class_block", counting_class_block)
    shuffled = ascending[:]
    random.Random(3).shuffle(shuffled)
    for record in shuffled:
        assert canonical_form(group, record.subset) == record.subset
        assert classify(group, record.subset) == record
    # only canonical masks are asked, so a block is built only when its
    # first mask is one of them
    firsts = sorted(r.subset >> 12 for r in ascending if r.subset & 4095 == 0)
    assert sorted(built) == firsts and len(set(classed)) == len(classed) <= len(firsts)
