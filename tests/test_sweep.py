import dataclasses
import importlib
import math
import random

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
from idemnorm import groups, multiplier, schur
from idemnorm.sweep import _proof_chain_item

from conftest import (burnside_abelian, dicyclic_group, oracle_canonical_form,
                      oracle_class_count, oracle_orbit)

sweep_module = importlib.import_module("idemnorm.sweep")


def test_canonical_form_examples(z6):
    assert canonical_form(z6, subset_mask(z6, [2, 3])) == subset_mask(z6, [0, 1])
    assert canonical_form(z6, subset_mask(z6, [1, 4])) == subset_mask(z6, [0, 3])
    for sub in (subset_mask(z6, [0, 3]), subset_mask(z6, [0, 2, 4])):
        assert canonical_form(z6, sub) == sub


def test_canonical_form_idempotent(z6, s3):
    for g in (z6, s3):
        for mask in range(1 << g.order):
            c = canonical_form(g, mask)
            # a Python int from both reductions (z6 has 6 translates, s3 has
            # 36): the JSON writer refuses numpy scalars
            assert type(c) is int
            assert canonical_form(g, c) == c


def test_orbit_sizes_partition_power_set(z5, z6, s3):
    for g in (z5, z6, s3):
        reps = [m for m in range(1 << g.order) if canonical_form(g, m) == m]
        assert sum(classify(g, m).orbit_size for m in reps) == 1 << g.order


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
        for t in range(z6.order):
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


def test_every_witness_bound_of_a_sweep_is_at_least_four_thirds():
    report = sweep(parse_group("Z12"))
    assert report.subset_total == 4096
    bounds = [r.witness_bound for r in report.records if r.witness_bound is not None]
    assert bounds and min(bounds) >= 4 / 3


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


def test_run_verification_proves_9_7_without_the_solver(monkeypatch):
    def no_solver(*args, **kwargs):
        raise AssertionError("verify must not run gamma2")

    monkeypatch.setattr(schur, "gamma2", no_solver)
    monkeypatch.setattr(multiplier, "gamma2", no_solver)
    assert run_verification([]).passed
    # the other items compare floats with tol; this one does not
    for tol in (0.0, 1e-9, 0.09):
        item = next(i for i in run_verification([], tol=tol).items
                    if i.name == "pattern_schur_norm")
        assert item.passed and "FAILS" not in item.detail


@pytest.mark.parametrize("bound", [1.0, 1.4])
def test_witness_integrals_item_reads_the_stored_bound(monkeypatch, bound):
    # Z5's two witness classes, {0, 1, 2} and {0, 1, 3}, have norm 1.494,
    # above both bounds; 4.5 times 1.0 (below 4/3) or 1.4 is neither 6 nor
    # 13/2
    classify_record = sweep_module.classify

    def patched(group, mask, tol):
        record = classify_record(group, mask, tol)
        if record.witness is None:
            return record
        return dataclasses.replace(record, witness_bound=bound)

    monkeypatch.setattr(sweep_module, "classify", patched)
    summary = run_verification(["Z5"])
    failed = [item for item in summary.items if not item.passed]
    assert [item.name for item in failed] == ["witness_integrals_Z5"]
    # the detail names each failing class, not the passing text
    assert "S=[0, 1, 2]: integral" in failed[0].detail
    assert "S=[0, 1, 3]: integral" in failed[0].detail
    assert "bounds below the norm" not in failed[0].detail


def _patch_class(monkeypatch, elements, change):
    """Hand verify the record change(record) for the class of `elements`,
    in place of the one the sweep's classify built."""
    classify_record = sweep_module.classify

    def patched(group, mask, tol):
        record = classify_record(group, mask, tol)
        return change(record) if subset_elements(mask) == elements else record

    monkeypatch.setattr(sweep_module, "classify", patched)


def _failed(summary):
    return [item for item in summary.items if not item.passed]


def test_pattern_soundness_fails_on_a_coset_class_with_a_hit(monkeypatch):
    # subgroups are read from the coset classes, so a hit in a class the
    # record calls a coset fails the item; D4's {0, 1, 2} has a hit
    _patch_class(monkeypatch, [0, 1, 2], lambda r: dataclasses.replace(
        r, analysis=dataclasses.replace(r.analysis, kind="coset")))
    failed = _failed(run_verification(["D4"]))
    assert [item.name for item in failed] == ["pattern_soundness_D4"]
    assert failed[0].detail == "S=[0, 1, 2]: a coset class has a pattern hit"


def test_pattern_soundness_reads_the_recorded_norm(monkeypatch):
    # D4's {0, 1, 4} has a hit and cb norm 1.457; a recorded 1.25 is below 9/7
    _patch_class(monkeypatch, [0, 1, 4],
                 lambda r: dataclasses.replace(r, norm_lower=1.25))
    failed = _failed(run_verification(["D4"]))
    assert [item.name for item in failed] == ["pattern_soundness_D4"]
    assert failed[0].detail == "S=[0, 1, 4]: lower 1.25 < 9/7 - tol"


def test_measure_form_item_names_each_failing_class(monkeypatch):
    measure_form = sweep_module.measure_form_of

    def off(group, mask, analysis):
        return dataclasses.replace(measure_form(group, mask, analysis), holds=False,
                                   max_error=0.5)

    monkeypatch.setattr(sweep_module, "measure_form_of", off)
    failed = _failed(run_verification(["Z6"]))
    assert [item.name for item in failed] == ["measure_form_Z6"]
    two_cosets = [r for r in sweep(parse_group("Z6")).records
                  if r.analysis.kind == "two_cosets"]
    assert failed[0].detail == "; ".join(f"S={subset_elements(r.subset)}: err=5.00e-01"
                                         for r in two_cosets)


def test_amenable_cross_check_covers_every_abelian_class(monkeypatch):
    # Z7's Singer set {0, 1, 3} has no pattern hit, so only the cross check
    # sees a character sum moved off its cb bracket
    _patch_class(monkeypatch, [0, 1, 3],
                 lambda r: dataclasses.replace(r, norm_lower=r.norm_lower + 0.5))
    failed = _failed(run_verification(["Z7"]))
    assert [item.name for item in failed] == ["amenable_cross_check_Z7"]
    assert failed[0].detail.startswith("S=[0, 1, 3]: ")
    assert "outside [" in failed[0].detail and ";" not in failed[0].detail


@pytest.mark.parametrize("spec, classes", [("D4", 28), ("Z7", 20)])
def test_verify_runs_cb_norm_once_per_class(monkeypatch, spec, classes):
    # every cb bracket comes from the stacked kernel: the sweep's stacks on
    # a Cayley group, the cross check's on an abelian one.  Each class
    # passes through it exactly once, and cb_norm is never called
    masks = []
    brackets = sweep_module._cb_brackets
    monkeypatch.setattr(sweep_module, "_cb_brackets",
                        lambda group, stack: masks.extend(stack.tolist()) or brackets(group, stack))
    assert "cb_norm" not in vars(sweep_module)
    summary = run_verification([spec])
    assert summary.passed
    # pattern soundness reads the class records of every group
    assert f"pattern_soundness_{spec}" in [item.name for item in summary.items]
    assert len(masks) == classes
    assert sorted(masks) == [r.subset for r in sweep(parse_group(spec)).records]


def test_run_verification_fails_pattern_item_on_a_broken_identity(monkeypatch):
    broken = schur._PATTERN_PROOF["a"] + 1
    monkeypatch.setitem(schur._PATTERN_PROOF, "a", broken)
    summary = run_verification([])
    item = next(i for i in summary.items if i.name == "pattern_schur_norm")
    assert not summary.passed and not item.passed
    assert "witness_value FAILS" in item.detail


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
        assert classify(g, mask).orbit_size == len(oracle_orbit(g, mask))
        assert canonical_form(g, mask) == oracle_canonical_form(g, mask)


def _oracle_forms(group):
    """oracle_canonical_form of every subset: the orbits partition the
    subsets, so one oracle orbit serves each member."""
    forms = {}
    for mask in range(1 << group.order):
        if mask not in forms:
            members = oracle_orbit(group, mask)
            forms.update(dict.fromkeys(members, min(members)))
    return forms


def test_canonical_form_matches_oracle_on_every_subset_of_dic3():
    g = dicyclic_group(3)  # order 12: 144 two-sided translates
    expected = _oracle_forms(g)
    for mask in range(1 << g.order):
        assert canonical_form(g, mask) == expected[mask]


@pytest.mark.parametrize("spec", ("Z12", "Z3xZ4", "Z2xZ6"))
def test_canonical_form_matches_oracle_in_any_query_order(spec):
    # a sweep asks in increasing order, from the one 4096-mask block of
    # these order-12 groups that it builds: descending and shuffled orders
    # must get the same forms from rows of translates with no block held,
    # and from the block once a sweep of the group holds it
    # (test_sweeps_across_blocks_... crosses blocks)
    g = parse_group(spec)
    expected = _oracle_forms(g)
    masks = list(range(1 << g.order))
    shuffled = masks[:]
    random.Random(0).shuffle(shuffled)
    for hold in (False, True):
        if hold:
            sweep(g)
        for order in (masks[::-1], shuffled):
            for mask in order:
                form = canonical_form(g, mask)
                assert type(form) is int
                assert form == expected[mask]


def test_canonical_form_keeps_each_group_its_own_forms():
    # Z12 and Z2xZ6 have the same masks and different orbits: with Z12's
    # block held by its sweep, alternating the groups on each mask must not
    # read one group's block for the other
    cyclic, product = parse_group("Z12"), parse_group("Z2xZ6")
    expected = {g: _oracle_forms(g) for g in (cyclic, product)}
    assert any(expected[cyclic][m] != expected[product][m] for m in range(1 << 12))
    sweep(cyclic)
    for mask in range(1 << 12):
        for g in (cyclic, product):
            assert canonical_form(g, mask) == expected[g][mask]


@pytest.mark.parametrize("spec", ("Z64", "Z2xZ2xZ2xZ2xZ2xZ2", "Z8xZ8"))
def test_canonical_form_matches_oracle_at_order_64(spec):
    g = parse_group(spec)
    rng = random.Random(0)
    for size in (1, 5, 32, 63):
        mask = sum(1 << x for x in rng.sample(range(64), size))
        assert canonical_form(g, mask) == oracle_canonical_form(g, mask)
    assert canonical_form(g, (1 << 64) - 1) == (1 << 64) - 1
    assert type(canonical_form(g, (1 << 64) - 1)) is int


@pytest.mark.parametrize("spec, mask", [("Z6", 1 << 6), ("Z6", -1), ("Z6", (1 << 9) | 1),
                                        ("Z12", 1 << 12), ("Z12", -(1 << 20))])
def test_canonical_form_refuses_a_mask_out_of_range(spec, mask):
    # the check costs nothing per lookup: low bits beyond an order below 12
    # fall off the held block's list, and other high bits miss the block
    # and meet validate_mask
    g = parse_group(spec)
    sweep(g)
    assert canonical_form(g, 0b110) == 0b11
    with pytest.raises(ValueError, match=f"out of range for order {g.order}"):
        canonical_form(g, mask)
    # the block in use is still the right one
    assert canonical_form(g, 0b110) == 0b11


# masks that validate_mask refuses, as a function of the order n
NOT_A_MASK = {"float": lambda n: 3.0, "str": lambda n: "3", "None": lambda n: None,
              "negative": lambda n: -1, "2^n": lambda n: 1 << n}


@pytest.mark.parametrize("spec", ("Z6", "Z14", "D4"))
@pytest.mark.parametrize("kind", NOT_A_MASK)
def test_canonical_form_and_classify_refuse_what_validate_mask_refuses(spec, kind):
    # a float, a str or None fails the shift that picks the block, and a
    # negative mask or 2^n its range check; each must be validate_mask's
    # ValueError, whether or not the group's first block is held
    g = parse_group(spec)
    mask = NOT_A_MASK[kind](g.order)
    with pytest.raises(ValueError, match="subset mask"):
        groups.validate_mask(g, mask)
    for hold in (False, True):
        if hold:
            sweep_module._build_block(g, 0, sweep_module.DEFAULT_TOL_EXACT)
            assert canonical_form(g, 0b110) == oracle_canonical_form(g, 0b110)
        with pytest.raises(ValueError, match="subset mask"):
            canonical_form(g, mask)
        with pytest.raises(ValueError, match="subset mask"):
            classify(g, mask)


@pytest.mark.parametrize("spec, blocks, classes", [("Z13", 2, 632), ("Z14", 4, 1182),
                                                   ("Z2xZ7", 4, 1182), ("Z16", 16, 4116)])
def test_sweeps_across_blocks_give_each_class_the_record_of_a_batch_of_one(
        spec, blocks, classes, monkeypatch):
    # the sweep builds each 4096-mask block exactly once, in increasing
    # order, and classify reads the canonical masks' records from the
    # block held, 128 masks a kernel call; classify on a fresh group of
    # the same name builds nothing and classifies each mask as a batch of
    # one, which must give the same record, at the block edges (masks
    # within 2 of a multiple of 4096) as everywhere else
    g = parse_group(spec)
    built = []
    build_block = sweep_module._build_block

    def counting(group, high, tol):
        built.append(high)
        return build_block(group, high, tol)

    monkeypatch.setattr(sweep_module, "_build_block", counting)
    report = sweep(g)
    assert built == list(range(blocks))
    assert len(report.records) == classes == burnside_abelian(g)
    assert sum(r.orbit_size for r in report.records) == report.subset_total == 1 << g.order
    assert not report.violations
    edges = [r.subset for r in report.records if min(r.subset % 4096, -r.subset % 4096) <= 2]
    assert len(edges) >= 4 and max(edges) >= 8191
    alone = parse_group(spec)
    for record in report.records:
        assert classify(alone, record.subset) == record
    assert built == list(range(blocks))


def test_canonical_form_rejects_order_above_64():
    with pytest.raises(ValueError, match="order 64"):
        canonical_form(make_abelian_group([65]), 1)


@pytest.mark.parametrize("spec", ("Z2xZ2xZ2xZ2", "Z4xZ4", "Z12", "D4", "Q8"))
def test_class_count_matches_burnside(spec):
    # the forms outside a sweep, one row of translates each, pick out the
    # sweep's classes, whose orbit sizes partition the subsets
    g = parse_group(spec)
    reps = [m for m in range(1 << g.order) if canonical_form(g, m) == m]
    records = sweep(g).records
    assert [r.subset for r in records] == reps
    assert sum(r.orbit_size for r in records) == 1 << g.order
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
    # bs_norm and the witness integral share one mu_values per class; every
    # group transform goes through groups._spectrum_of
    calls = []
    spectrum_of = groups._spectrum_of
    monkeypatch.setattr(groups, "_spectrum_of",
                        lambda *a, **k: calls.append(1) or spectrum_of(*a, **k))
    report = sweep(parse_group("Z2xZ7"))
    assert len(report.records) == 1182
    assert sum(r.witness is not None for r in report.records) > 0
    assert 0 < len(calls) <= len(report.records)
