import math

import numpy as np
import pytest

from idemnorm import (
    THRESHOLDS,
    analyze_cosets,
    annihilator,
    bs_norm,
    make_abelian_group,
    mu_values,
    predicted_norm,
    subset_elements,
    subset_mask,
    translate_left,
    two_coset_norm,
    verify_measure_form,
)

from idemnorm import bs
from idemnorm.bs import measure_form_of
from idemnorm.groups import parse_group
from idemnorm.sweep import run_verification, sweep

from conftest import all_subgroups, oracle_annihilator, oracle_bs_norm, oracle_mu


def test_threshold_ordering():
    t = THRESHOLDS
    assert 1.0 < t.prior_coset_bound < t.coset_bound < t.pattern_witness_value \
        < t.prior_two_coset_bound < t.two_coset_bound
    assert t.coset_bound < t.limit_q_inf < t.pattern_witness_value
    assert t.prior_two_coset_bound < t.pattern_norm < t.two_coset_bound


def test_threshold_values():
    t = THRESHOLDS
    assert t.coset_bound == pytest.approx((1 + math.sqrt(2)) / 2, abs=0)
    assert t.two_coset_bound == pytest.approx(4 / 3, abs=0)
    assert t.pattern_norm == pytest.approx(9 / 7, abs=0)
    assert t.pattern_witness_value == pytest.approx(math.sqrt(26) / 4, abs=0)
    assert t.limit_q_inf == pytest.approx(4 / math.pi, abs=0)


def test_mu_point_and_uniform(z4):
    np.testing.assert_allclose(mu_values(z4, subset_mask(z4, [0])),
                               np.full(4, 0.25), atol=1e-15)
    whole = mu_values(z4, (1 << 4) - 1)
    np.testing.assert_allclose(whole, [1, 0, 0, 0], atol=1e-15)


def test_mu_z4_pair(z4):
    # mu(x) = (1 + i^{-x}) / 4
    expected = np.array([(1 + 1j ** (-x)) / 4 for x in range(4)])
    np.testing.assert_allclose(mu_values(z4, subset_mask(z4, [0, 1])), expected, atol=1e-15)


def test_mu_matches_direct_character_sum(z6, z2z4):
    for g in (z6, z2z4):
        for mask in range(1 << g.order):
            np.testing.assert_allclose(mu_values(g, mask), oracle_mu(g, mask), atol=1e-12)


def test_golden_norms():
    z3 = make_abelian_group([3])
    z4 = make_abelian_group([4])
    assert abs(bs_norm(z3, 0b011) - 4 / 3) <= 1e-12
    assert abs(bs_norm(z4, 0b0011) - (1 + math.sqrt(2)) / 2) <= 1e-12


def test_norm_z6_pair_both_ways(z6):
    # via the character sum, via the closed form with q=6, and via the oracle
    value = bs_norm(z6, 0b000011)
    assert value == pytest.approx((2 + math.sqrt(3)) / 3, abs=1e-12)
    assert value == pytest.approx(two_coset_norm(6), abs=1e-12)
    assert value == pytest.approx(oracle_bs_norm(z6, 0b000011), abs=1e-12)


def test_cosets_have_norm_one(z6, z8):
    for g, masks in ((z6, [0b000001, 0b001001 << 1, 0b010101, 0b111111]),
                     (z8, [0b00010001, 0b11111111])):
        for mask in masks:
            assert bs_norm(g, mask) == pytest.approx(1.0, abs=1e-12)


def test_empty_set_norm_zero(z6):
    assert bs_norm(z6, 0) == 0.0


def test_norm_lower_bound_one(z6):
    for mask in range(1, 1 << 6):
        assert bs_norm(z6, mask) >= 1.0 - 1e-12


def test_norm_invariance(z6, z8):
    for g in (z6, z8):
        for mask in range(1 << g.order):
            value = bs_norm(g, mask)
            negated = subset_mask(g, [g.inv(s) for s in subset_elements(mask)])
            assert bs_norm(g, negated) == pytest.approx(value, abs=1e-12)
            for t in range(g.order):
                assert bs_norm(g, translate_left(g, t, mask)) == pytest.approx(value, abs=1e-12)


def test_norm_matches_oracle(z6, z2z4):
    for g in (z6, z2z4):
        for mask in range(1 << g.order):
            assert bs_norm(g, mask) == pytest.approx(oracle_bs_norm(g, mask), abs=1e-11)


def test_two_coset_norm_values():
    assert two_coset_norm(3) == pytest.approx(4 / 3, abs=1e-15)
    assert two_coset_norm(4) == pytest.approx((1 + math.sqrt(2)) / 2, abs=1e-15)
    assert two_coset_norm(2) == pytest.approx(1.0, abs=1e-15)
    assert two_coset_norm(5) == pytest.approx(2 * (math.sqrt(5) + 1) / 5, abs=1e-15)
    assert two_coset_norm(math.inf) == pytest.approx(4 / math.pi, abs=0)
    with pytest.raises(ValueError):
        two_coset_norm(1)
    with pytest.raises(ValueError):
        two_coset_norm(4.5)


def test_two_coset_norm_parity_monotone_to_limit():
    # even values increase to 4/pi from below; odd values decrease to it from
    # above (the q=3 value 4/3 is the largest of all)
    limit = 4 / math.pi
    evens = [two_coset_norm(q) for q in range(2, 502, 2)]
    odds = [two_coset_norm(q) for q in range(3, 502, 2)]
    assert all(a < b for a, b in zip(evens, evens[1:]))
    assert all(a > b for a, b in zip(odds, odds[1:]))
    assert evens[-1] < limit < odds[-1]
    assert odds[0] == max(odds[0], max(evens), max(odds))


def test_two_coset_norm_matches_every_detected_union():
    for n in range(3, 11):
        g = make_abelian_group([n])
        for mask in range(1, 1 << n):
            a = analyze_cosets(g, mask)
            if a.kind == "two_cosets":
                assert bs_norm(g, mask) == pytest.approx(two_coset_norm(a.q), abs=1e-9)


def test_predicted_norm(z4, z6):
    assert predicted_norm(analyze_cosets(z6, 0)) == 0.0
    assert predicted_norm(analyze_cosets(z6, 0b000001)) == 1.0
    assert predicted_norm(analyze_cosets(z4, 0b0011)) == pytest.approx((1 + math.sqrt(2)) / 2)
    assert predicted_norm(analyze_cosets(z6, 0b001011)) is None


def test_annihilator(z6):
    assert subset_elements(annihilator(z6, subset_mask(z6, [0, 3]))) == [0, 2, 4]
    assert subset_elements(annihilator(z6, subset_mask(z6, [0]))) == list(range(6))


@pytest.mark.parametrize("factors", ([6], [2, 4], [3, 3]))
def test_annihilator_matches_oracle_on_every_subgroup(factors):
    g = make_abelian_group(factors)
    for sub in all_subgroups(g):
        ann = annihilator(g, sub)
        assert ann == oracle_annihilator(g, sub)
        # |H| |annihilator(H)| = |G|
        assert len(subset_elements(sub)) * len(subset_elements(ann)) == g.order


def test_measure_form_z4(z4):
    result = verify_measure_form(z4, subset_mask(z4, [0, 1]))
    assert result.holds
    assert result.max_error <= 1e-12
    assert subset_elements(result.subgroup) == [0, 1, 2, 3]
    assert {result.gamma1, result.gamma2} == {0, 1}


def test_measure_form_z6_two_cosets(z6):
    result = verify_measure_form(z6, subset_mask(z6, [0, 1, 3, 4]))
    assert result.holds
    assert subset_elements(result.subgroup) == [0, 2, 4]


def test_measure_form_rejects_other_kinds(z6):
    with pytest.raises(ValueError):
        verify_measure_form(z6, subset_mask(z6, [0, 1, 3]))
    with pytest.raises(ValueError):
        verify_measure_form(z6, subset_mask(z6, [0, 2, 4]))


def test_measure_form_all_two_cosets(z6, z8, z2z4):
    for g in (z6, z8, z2z4):
        for mask in range(1, 1 << g.order):
            if analyze_cosets(g, mask).kind == "two_cosets":
                assert verify_measure_form(g, mask).holds


@pytest.mark.parametrize("spec", ("Z6", "Z8", "Z2xZ4", "Z12", "Z2xZ6"))
def test_measure_form_of_a_record_matches_the_mask_route(spec):
    group = parse_group(spec)
    records = [r for r in sweep(group).records if r.analysis.kind == "two_cosets"]
    assert records
    for record in records:
        given = measure_form_of(group, record.subset, record.analysis)
        assert given == verify_measure_form(group, record.subset)
        assert given.holds


def test_measure_form_of_rejects_other_kinds(z6):
    for mask in (subset_mask(z6, [0, 1, 3]), subset_mask(z6, [0, 2, 4])):
        with pytest.raises(ValueError):
            measure_form_of(z6, mask, analyze_cosets(z6, mask))


def test_verify_measure_form_items_read_the_record_analysis(monkeypatch):
    def refuse(group, mask):
        raise AssertionError("analyze_cosets called again for a sweep record")

    monkeypatch.setattr(bs, "analyze_cosets", refuse)
    items = {item.name: item for item in run_verification(["Z6", "Z2xZ4"]).items}
    for name in ("measure_form_Z6", "measure_form_Z2xZ4"):
        assert items[name].passed, items[name].detail


def test_bs_norm_rejects_cayley(s3):
    with pytest.raises(ValueError):
        bs_norm(s3, 0b1)
    # the empty set too: mu_values refuses a Cayley group before any mask
    with pytest.raises(ValueError, match="abelian"):
        bs_norm(s3, 0)
