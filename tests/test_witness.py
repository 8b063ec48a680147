import math

import numpy as np
import pytest

from idemnorm import (
    WitnessTriple,
    analyze_cosets,
    bs_norm,
    envelope_identities,
    find_witness,
    make_abelian_group,
    mu_values,
    parse_group,
    subset_mask,
    sup_norm_check,
    witness_integral,
    witness_norm_bound,
)
from idemnorm import witness
from idemnorm.groups import _translates
from idemnorm.sweep import run_verification
from idemnorm.witness import _witness_integrals

from conftest import oracle_find_witness


def test_find_witness_absent_for_cosets(z6, z8):
    for g in (z6, z8):
        for mask in range(1, 1 << g.order):
            if analyze_cosets(g, mask).kind == "coset":
                assert find_witness(g, mask) is None


def test_find_witness_absent_for_small_q_unions(z4, z6, z8):
    # q = 4: {0,1} in Z4 and {0,2} in Z8 ; q = 3: {0,2} in Z6
    assert find_witness(z4, subset_mask(z4, [0, 1])) is None
    assert find_witness(z8, subset_mask(z8, [0, 2])) is None
    assert find_witness(z6, subset_mask(z6, [0, 2])) is None


def test_find_witness_frozen_outputs(z6, z8):
    w = find_witness(z6, subset_mask(z6, [0, 1, 3]))
    assert (w.u, w.v, w.w) == (0, 1, 3)
    w8 = find_witness(z8, subset_mask(z8, [0, 1, 2, 4]))
    assert (w8.u, w8.v, w8.w) == (0, 1, 2)


@pytest.mark.parametrize("spec", ("Z6", "Z8", "Z2xZ4", "Z3xZ3", "Z2xZ2xZ2", "Z12"))
def test_find_witness_matches_oracle_on_every_subset(spec):
    g = parse_group(spec)
    for mask in range(1 << g.order):
        found = find_witness(g, mask)
        expected = oracle_find_witness(g, mask)
        assert (None if found is None else (found.u, found.v, found.w)) == expected


def test_witness_integral_values(z6, z8):
    mask6 = subset_mask(z6, [0, 1, 3])
    # u - w = -1 = 5 lies outside S, so the integral is plainly 6
    t = WitnessTriple(0, 3, 1)
    assert witness_integral(z6, mask6, t) == pytest.approx(6.0, abs=1e-12)
    # u - w = 0 lies inside S, which adds the extra 1/2
    mask8 = subset_mask(z8, [0, 1, 2, 4])
    t8 = WitnessTriple(1, 4, 1)
    assert witness_integral(z8, mask8, t8) == pytest.approx(6.5, abs=1e-12)


def test_witness_integral_is_6_or_13_2_everywhere(z6, z8):
    for g in (z6, z8):
        for mask in range(1, 1 << g.order):
            w = find_witness(g, mask)
            if w is None:
                continue
            value = witness_integral(g, mask, w)
            assert min(abs(value - 6.0), abs(value - 6.5)) <= 1e-10


def test_witness_bound_values(z6, z8):
    mask6 = subset_mask(z6, [0, 1, 3])
    t = WitnessTriple(0, 3, 1)
    assert witness_norm_bound(z6, mask6, t) == pytest.approx(4 / 3, abs=1e-12)
    mask8 = subset_mask(z8, [0, 1, 2, 4])
    t8 = WitnessTriple(1, 4, 1)
    assert witness_norm_bound(z8, mask8, t8) == pytest.approx(13 / 9, abs=1e-12)


def test_witness_bound_is_sound(z6, z8):
    z7 = make_abelian_group([7])
    for g in (z6, z7, z8):
        for mask in range(1, 1 << g.order):
            w = find_witness(g, mask)
            if w is None:
                continue
            bound = witness_norm_bound(g, mask, w)
            assert bound >= 4 / 3 - 1e-12
            assert bs_norm(g, mask) >= bound - 1e-9


def test_witness_bound_rejects_invalid_triple(z6):
    mask = subset_mask(z6, [0, 1, 3])
    # (0, 0, w) breaks the membership pattern; the others leave 0..5
    for triple in ((0, 0, 0), (0, 0, 1), (6, 3, 1), (0, -3, 1), (0, 3, 6)):
        with pytest.raises(ValueError):
            witness_integral(z6, mask, WitnessTriple(*triple))
        with pytest.raises(ValueError):
            witness_norm_bound(z6, mask, WitnessTriple(*triple))


def test_sup_norm_check_small_grid():
    result = sup_norm_check(1000)
    assert result.max_f == pytest.approx(4.5, abs=1e-12)
    assert result.max_identity_error <= 1e-12


def test_sup_norm_pointwise_values():
    # theta = 0: |2 + 2 + 1/2| + |2 - 1 - 1| = 4.5 + 0
    # theta = pi: |2 - 2 - 1/2| + |2 + 1 + 1| = 0.5 + 4
    for theta, first, second in ((0.0, 4.5, 0.0), (math.pi, 0.5, 4.0)):
        z = complex(math.cos(theta), math.sin(theta))
        a = abs(2 + 2 * z + 0.5 * z.conjugate())
        b = abs(2 - z - z.conjugate())
        assert a == pytest.approx(first, abs=1e-12)
        assert b == pytest.approx(second, abs=1e-12)
        assert a + b == pytest.approx(4.5, abs=1e-12)


ENVELOPE_IDENTITIES = ("u_square", "v_square", "moduli_nonnegative", "envelope")


def test_envelope_identities_hold():
    assert envelope_identities() == dict.fromkeys(ENVELOPE_IDENTITIES, True)


def _envelope_item():
    return next(i for i in run_verification([]).items if i.name == "envelope_constant_9_2")


@pytest.mark.parametrize("name, index, step", [
    (name, index, step) for name, array in witness._ENVELOPE_PROOF.items()
    for index in range(len(array)) for step in (1, -1)])
def test_envelope_item_fails_on_any_changed_coefficient(monkeypatch, name, index, step):
    mutated = witness._ENVELOPE_PROOF[name].copy()
    mutated[index] += step
    monkeypatch.setitem(witness._ENVELOPE_PROOF, name, mutated)
    assert not all(envelope_identities().values())
    item = _envelope_item()
    assert not item.passed and "FAILS" in item.detail


def test_envelope_identities_need_the_signs(monkeypatch):
    # with the v factor 7 + 2c, the moduli -(5 + 4c) and 7 + 2c square to
    # the squared factors and sum to 9, but the first is negative on the
    # circle: only the sign check sees it
    for name, coefficients in (("u_modulus", [-2, -5, -2]), ("v_factor", [1, 7, 1]),
                               ("v_modulus", [1, 7, 1])):
        monkeypatch.setitem(witness._ENVELOPE_PROOF, name, np.array(coefficients, dtype=np.int64))
    identities = envelope_identities()
    assert {name for name, holds in identities.items() if not holds} == {"moduli_nonnegative"}
    assert not _envelope_item().passed


def test_verify_proves_the_envelope_without_a_grid(monkeypatch):
    def no_grid(*args, **kwargs):
        raise AssertionError("verify must not evaluate the envelope on a grid")

    # sup_norm_check's grid is an np.linspace
    monkeypatch.setattr(np, "linspace", no_grid)
    item = _envelope_item()
    assert item.passed and item.detail == (
        "exactly 9/2 by four integer identities: u_square holds; v_square holds; "
        "moduli_nonnegative holds; envelope holds")


def test_sup_norm_check_rejects_tiny_grid():
    with pytest.raises(ValueError):
        sup_norm_check(2)


def test_find_witness_rejects_cayley(s3):
    with pytest.raises(ValueError):
        find_witness(s3, 0b111)


def test_find_witness_rejects_order_65():
    g = make_abelian_group([65])
    mask = 0b1011
    with pytest.raises(ValueError, match="order 64"):
        find_witness(g, mask)
    # (0, 3, 1) is a witness for {0, 1, 3}: only the order is refused
    for check in (witness_integral, witness_norm_bound):
        with pytest.raises(ValueError, match="order 64"):
            check(g, mask, WitnessTriple(0, 3, 1))
    with pytest.raises(ValueError, match="character tables stop at order 64"):
        g.character_table
    assert make_abelian_group([64]).character_table.shape == (64, 64)


def test_witness_integral_rejects_a_perturbed_mu(z6):
    # the numeric side must agree with the membership formula: mu off by
    # 1e-6 at one point, where f = 9/2, moves the integral by 4.5e-6
    mask = subset_mask(z6, [0, 1, 3])
    masks = np.array([mask], dtype=np.uint64)
    rows = _translates(z6, mask)[None]
    triples = np.array([[0, 3, 1]])
    mu = mu_values(z6, mask)[None]
    assert _witness_integrals(z6, masks, rows, triples, mu).tolist() == [6.0]
    mu[0, 0] += 1e-6
    with pytest.raises(ArithmeticError, match="mismatch"):
        _witness_integrals(z6, masks, rows, triples, mu)


def test_witness_integral_catches_a_corrupt_translation_table():
    # the memberships come from the translation table and the numeric side
    # from the character table, so a flipped translate bit cannot fool both:
    # here S + 1 gains 0, which puts u - w = 5 in S and turns 6 into 13/2
    g = make_abelian_group([6])
    mask = subset_mask(g, [0, 1, 3])
    triple = WitnessTriple(0, 3, 1)
    assert witness_integral(g, mask, triple) == 6.0
    table = g.translation_table.copy()
    table[0, mask, 1] ^= np.uint64(1)
    g.translation_table = table
    with pytest.raises(ArithmeticError, match="mismatch"):
        witness_integral(g, mask, triple)
