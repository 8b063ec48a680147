"""The array kernels behind classify against the conftest oracles.

classify reads the layers of a class from sweep._class_block, which runs
the stabilizer, mu and the norm, the witness search, the witness integral
and the pattern search as array kernels over the canonical masks of a
256-mask block; a mask that is not canonical goes through the same kernels
as a batch of one.  These tests compare every record and every layer with
the brute-force oracles on every subset of small groups and on seeded
batches at the order-64 cap, check that a batch gives each set what a
batch of one gives it, and query classify in orders a sweep never uses.
"""

import importlib
import random

import numpy as np
import pytest

from idemnorm import classify, parse_group, stabilizer
from idemnorm.groups import _lowest, _lowest_bits, _spectra, _translates
from idemnorm.witness import SUP_NORM_F

from conftest import (oracle_analyze_cosets, oracle_bs_norm, oracle_find_witness,
                      oracle_mu, oracle_mul, oracle_orbit, oracle_pattern_search,
                      oracle_stabilizer)

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
    # a sweep asks in increasing order, one block after another; descending
    # walks the blocks backwards, and a shuffled order changes block on
    # almost every call
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
