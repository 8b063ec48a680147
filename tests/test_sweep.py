import dataclasses
import math
import random

import numpy as np
import pytest

from idemnorm import (
    canonical_form,
    classify,
    make_abelian_group,
    parse_group,
    run_verification,
    subset_elements,
    subset_mask,
    sweep,
    translate_left,
)
from idemnorm.sweep import _proof_chain_item, orbit

from conftest import burnside_abelian, oracle_canonical_form, oracle_class_count, oracle_orbit


def test_canonical_form_examples(z6):
    assert canonical_form(z6, subset_mask(z6, [2, 3])) == subset_mask(z6, [0, 1])
    assert canonical_form(z6, subset_mask(z6, [1, 4])) == subset_mask(z6, [0, 3])
    for sub in (subset_mask(z6, [0, 3]), subset_mask(z6, [0, 2, 4])):
        assert canonical_form(z6, sub) == sub


def test_canonical_form_idempotent(z6, s3):
    for g in (z6, s3):
        for mask in range(1 << g.order):
            c = canonical_form(g, mask)
            assert canonical_form(g, c) == c


def test_orbit_sizes_partition_power_set(z5, z6, s3):
    for g in (z5, z6, s3):
        reps = [m for m in range(1 << g.order) if canonical_form(g, m) == m]
        assert sum(len(orbit(g, m)) for m in reps) == 1 << g.order


def test_classify_z4_pair(z4):
    record = classify(z4, subset_mask(z4, [0, 1]))
    assert record.analysis.kind == "two_cosets" and record.analysis.q == 4
    assert record.norm_lower == pytest.approx((1 + math.sqrt(2)) / 2, abs=1e-12)
    assert record.predicted == pytest.approx(record.norm_lower, abs=1e-9)
    assert not record.below_coset_bound
    assert record.in_open_interval  # strictly inside (1, 4/3)
    assert record.witness is None


def test_classify_z6_013(z6):
    record = classify(z6, subset_mask(z6, [0, 1, 3]))
    assert record.analysis.kind == "other"
    assert record.norm_lower >= 4 / 3 - 1e-12
    assert record.witness is not None
    assert record.witness_bound == pytest.approx(13 / 9, abs=1e-12)
    assert record.predicted is None


def test_classify_singleton_coset(z5):
    record = classify(z5, subset_mask(z5, [0]))
    assert record.analysis.kind == "coset"
    assert record.norm_lower == pytest.approx(1.0, abs=1e-12)
    assert record.orbit_size == 5


def test_classify_translation_covariant(z6):
    for mask in range(1 << 6):
        base = classify(z6, mask)
        for t in z6.elements():
            moved = classify(z6, translate_left(z6, t, mask))
            assert (base.analysis.kind, base.analysis.q) == (moved.analysis.kind,
                                                             moved.analysis.q)
            assert moved.norm_lower == pytest.approx(base.norm_lower, abs=1e-12)


def test_classify_flags_consistent(z6):
    c1 = (1 + math.sqrt(2)) / 2
    for mask in range(1 << 6):
        r = classify(z6, mask)
        tol = 1e-9
        assert r.below_coset_bound == (r.norm_upper < c1 - tol)
        assert r.in_open_interval == (r.norm_lower > 1 + tol and r.norm_upper < 4 / 3 - tol)


def test_sweep_z6_census(z6):
    report = sweep(z6)
    assert not report.violations
    assert report.subset_total == 64
    assert report.kind_totals["coset"]["subsets"] == 12
    inside = [r for r in report.records if r.in_open_interval]
    assert len(inside) == 1
    assert subset_elements(inside[0].subset) == [0, 1]
    assert inside[0].orbit_size == 6
    assert inside[0].norm_lower == pytest.approx((2 + math.sqrt(3)) / 3, abs=1e-9)


def test_sweep_z4_boundary(z4):
    report = sweep(z4)
    assert not report.violations
    pair = next(r for r in report.records if subset_elements(r.subset) == [0, 1])
    assert not pair.below_coset_bound  # sits exactly on the coset threshold


def test_sweep_s3_schur_mode(s3):
    report = sweep(s3)
    assert report.mode == "schur"
    assert not report.violations
    assert report.subset_total == 64
    # the two classes of kind "other" with norm exactly 4/3 are collected
    assert sorted(subset_elements(m) for m in report.extremal) == [[0, 1, 2], [0, 1, 2, 3]]


def test_sweep_mode_follows_group(z4, s3):
    # on abelian groups the character-sum norm is the cb norm
    assert sweep(z4).mode == "character_sum"
    assert sweep(s3).mode == "schur"


def test_sweep_witness_presence_bookkeeping(z6):
    report = sweep(z6)
    presence = report.witness_presence
    assert presence["coset"]["with_witness"] == 0
    for label, slot in presence.items():
        if label.startswith("two_cosets"):
            assert slot["with_witness"] == 0
    assert presence["other"]["with_witness"] == presence["other"]["classes"]


def test_sweep_rejects_large_order():
    with pytest.raises(ValueError):
        sweep(make_abelian_group([5, 6]))


def test_sweep_zero_tolerance_reports_boundary(z4):
    # with no slack the {0,1} norm sits exactly on the coset threshold and is
    # flagged; open-interval classification needs a tolerance band
    report = sweep(z4, tol=0.0)
    assert report.violations
    assert any(subset_elements(v.subset) == [0, 1] for v in report.violations)


def test_report_round_trip_and_csv(z6):
    report = sweep(z6)
    csv_text = report.to_csv()
    lines = csv_text.strip().splitlines()
    assert len(lines) == 1 + len(report.records)
    assert lines[0].startswith("subset,kind,q,norm_lower")


def test_run_verification_single_group():
    summary = run_verification(["Z3"])
    assert summary.passed
    names = [item.name for item in summary.items]
    assert "sweep_Z3" in names and "pattern_schur_norm" in names


def test_run_verification_empty_group_list():
    summary = run_verification([])
    assert summary.passed
    assert all(not item.name.startswith("sweep_") for item in summary.items)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0, 0.1])
def test_bad_tolerance_raises(z4, tol):
    with pytest.raises(ValueError):
        sweep(z4, tol=tol)
    with pytest.raises(ValueError):
        classify(z4, 1, tol=tol)
    with pytest.raises(ValueError):
        run_verification([], tol=tol)


@pytest.mark.parametrize("spec", ("Z6", "Z8", "Z2xZ4", "S3", "D4", "Q8"))
def test_canonical_form_and_orbit_match_oracles_on_every_subset(spec):
    g = parse_group(spec)
    for mask in range(1 << g.order):
        assert orbit(g, mask) == oracle_orbit(g, mask)
        assert canonical_form(g, mask) == oracle_canonical_form(g, mask)


@pytest.mark.parametrize("spec", ("Z64", "Z2xZ2xZ2xZ2xZ2xZ2", "Z8xZ8"))
def test_canonical_form_matches_oracle_at_order_64(spec):
    g = parse_group(spec)
    rng = random.Random(0)
    for size in (1, 5, 32, 63):
        mask = sum(1 << x for x in rng.sample(range(64), size))
        assert canonical_form(g, mask) == oracle_canonical_form(g, mask)
    assert canonical_form(g, (1 << 64) - 1) == (1 << 64) - 1


def test_canonical_form_rejects_order_above_64():
    with pytest.raises(ValueError, match="order 64"):
        canonical_form(make_abelian_group([65]), 1)


@pytest.mark.parametrize("spec", ("Z2xZ2xZ2xZ2", "Z4xZ4", "Z12", "D4", "Q8"))
def test_class_count_matches_burnside(spec):
    g = parse_group(spec)
    reps = [m for m in range(1 << g.order) if canonical_form(g, m) == m]
    assert sum(len(orbit(g, m)) for m in reps) == 1 << g.order
    assert len(reps) == oracle_class_count(g)
    if g.is_abelian:
        assert len(reps) == burnside_abelian(g)


def test_threshold_ordering_item_checks_three_clauses():
    summary = run_verification([])
    item = next(i for i in summary.items if i.name == "threshold_ordering")
    assert item.passed
    clauses = item.detail.split("; ")
    assert clauses == ["1 < 2/sqrt3 < (1+sqrt2)/2 < sqrt26/4 < (sqrt17+1)/4 < 4/3",
                       "(1+sqrt2)/2 < 4/pi < sqrt26/4",
                       "(sqrt17+1)/4 < 9/7 < 4/3"]


def test_proof_chain_item_passes_on_nonabelian_groups():
    summary = run_verification(["S3", "D4", "Q8"])
    for name in ("S3", "D4", "Q8"):
        item = next(i for i in summary.items if i.name == f"proof_chain_{name}")
        assert item.passed, item.detail
        assert int(item.detail.split()[0]) >= 1  # "<k> chains checked: ..."


def test_proof_chain_item_fails_without_the_pattern(s3):
    # a chain whose class record lost its pattern must fail the item
    records = [dataclasses.replace(r, pattern=None) for r in sweep(s3).records]
    item = _proof_chain_item(s3, records)
    assert not item.passed
    assert "(u, v)" in item.detail


def test_sweep_transforms_each_abelian_class_once(monkeypatch):
    # bs_norm and the witness integral share one mu_values per class
    calls = []
    fftn = np.fft.fftn
    monkeypatch.setattr(np.fft, "fftn", lambda *a, **k: calls.append(1) or fftn(*a, **k))
    report = sweep(parse_group("Z2xZ7"))
    assert len(report.records) == 1182
    assert sum(r.witness is not None for r in report.records) > 0
    assert len(calls) <= len(report.records)
