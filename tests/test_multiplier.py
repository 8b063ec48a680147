import math

import numpy as np
import pytest

from idemnorm import (
    bs_norm,
    cb_norm,
    check_certificate,
    closure_claim_check,
    forbidden_pattern,
    forbidden_pattern_search,
    gamma2,
    is_subgroup,
    load_cayley_group,
    make_abelian_group,
    multiplier_matrix,
    parse_group,
    progression_check,
    subset_elements,
    subset_mask,
    translate_left,
    translate_right,
    witness_lower_bound,
)

from conftest import (
    all_subgroups,
    oracle_closure_claim_check,
    oracle_mul,
    oracle_pattern_search,
    oracle_progression_check,
)


def test_multiplier_identity_and_ones(z6):
    np.testing.assert_array_equal(multiplier_matrix(z6, 0b000001), np.eye(6))
    np.testing.assert_array_equal(multiplier_matrix(z6, 0b111111), np.ones((6, 6)))


def test_multiplier_z3_circulant():
    z3 = make_abelian_group([3])
    np.testing.assert_array_equal(
        multiplier_matrix(z3, 0b011),
        np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=float))


def test_multiplier_rows_are_translates(s3, z6):
    for g in (s3, z6):
        mask = subset_mask(g, [0, 2]) | (1 << (g.order - 1))
        m = multiplier_matrix(g, mask)
        assert set(np.unique(m)) <= {0.0, 1.0}
        for s in g.elements():
            row = {t for t in g.elements() if m[s, t] == 1.0}
            assert row == {oracle_mul(g, s, x) for x in subset_elements(mask)}


def test_cb_norm_subgroup_of_s3_is_one(s3):
    mask = subset_mask(s3, [0, 3, 4])  # the 3-element cyclic subgroup
    assert is_subgroup(s3, mask)
    bounds = cb_norm(s3, mask)
    assert bounds.lower == pytest.approx(1.0, abs=1e-6)
    assert bounds.upper == pytest.approx(1.0, abs=1e-6)


def test_cb_norm_z4_pair_matches_character_sum(z4):
    mask = subset_mask(z4, [0, 1])
    bounds = cb_norm(z4, mask)
    target = (1 + math.sqrt(2)) / 2
    assert bounds.lower - 5e-3 <= target <= bounds.upper + 5e-3
    assert bounds.upper - bounds.lower <= 5e-3


def test_cb_norm_rejects_large_groups():
    big = make_abelian_group([65])
    with pytest.raises(ValueError):
        cb_norm(big, 1)


def test_cb_norm_brackets_bs_norm_for_all_z5_subsets(z5):
    for mask in range(1 << 5):
        bounds = cb_norm(z5, mask)
        value = bs_norm(z5, mask)
        assert bounds.lower - 5e-3 <= value <= bounds.upper + 5e-3


def test_pattern_absent_for_subgroups_and_full_group(z6, s3):
    for g in (z6, s3):
        for sub in all_subgroups(g):
            assert forbidden_pattern_search(g, sub) is None
        assert forbidden_pattern_search(g, (1 << g.order) - 1) is None


def test_pattern_search_matches_oracle_on_z6(z6):
    hits = 0
    for mask in range(1 << 6):
        mine = forbidden_pattern_search(z6, mask)
        ref = oracle_pattern_search(z6, mask)
        assert mine == ref
        hits += mine is not None
    assert hits == 24  # frozen from the enumeration oracle


def test_pattern_search_z6_013_is_absent(z6):
    # {0,1,3} has norm 1 + 1/sqrt(3) > 9/7 yet contains no exact pattern copy
    assert forbidden_pattern_search(z6, subset_mask(z6, [0, 1, 3])) is None


def test_pattern_hit_is_exact_and_raises_lower_bound(z6):
    mask = subset_mask(z6, [0, 2, 3, 4])
    hit = forbidden_pattern_search(z6, mask)
    assert hit is not None
    rows, cols = hit
    m = multiplier_matrix(z6, mask)
    np.testing.assert_array_equal(m[np.ix_(rows, cols)], forbidden_pattern())
    bounds = cb_norm(z6, mask)
    assert bounds.lower >= 9 / 7 - 5e-3


def test_pattern_search_on_nonabelian(s3, q8):
    for g in (s3, q8):
        for mask in range(0, 1 << g.order, 7):  # sampled; full oracle is slow
            assert forbidden_pattern_search(g, mask) == oracle_pattern_search(g, mask)


def test_progression_subgroup_clean(z6, s3):
    for g in (z6, s3):
        for sub in all_subgroups(g):
            assert progression_check(g, sub) == []


def test_progression_z6_pair(z6):
    violations = progression_check(z6, subset_mask(z6, [0, 1]))
    assert violations
    first = violations[0]
    assert (first.side, first.s, first.t, first.n) == ("right", 0, 1, 2)


def test_progression_violations_are_genuine(z6, s3):
    for g in (z6, s3):
        for mask in range(1 << g.order):
            for v in progression_check(g, mask):
                assert (mask >> v.s) & 1
                start = (oracle_mul(g, v.s, v.t) if v.side == "right"
                         else oracle_mul(g, v.t, v.s))
                assert (mask >> start) & 1
                power = g.identity
                for _ in range(v.n):
                    power = oracle_mul(g, power, v.t)
                point = (oracle_mul(g, v.s, power) if v.side == "right"
                         else oracle_mul(g, power, v.s))
                assert not (mask >> point) & 1


def test_progression_s3_example(s3):
    # {e, (12), (13)} in one-line-notation indexing: e=0, (12)=2, (13)=5
    violations = progression_check(s3, subset_mask(s3, [0, 2, 5]))
    assert violations  # the checker output is the oracle; it must be nonempty


@pytest.mark.parametrize("spec", ("Z6", "Z8", "Z2xZ4", "Z3xZ3", "S3", "D4", "Q8"))
def test_progression_and_closure_match_oracles_on_every_subset(spec):
    g = parse_group(spec)
    for mask in range(1 << g.order):
        assert progression_check(g, mask) == oracle_progression_check(g, mask)
        if (mask >> g.identity) & 1:
            assert closure_claim_check(g, mask) == oracle_closure_claim_check(g, mask)


def test_closure_subgroup_clean(z6, s3):
    for g in (z6, s3):
        for sub in all_subgroups(g):
            assert closure_claim_check(g, sub) == []


def test_closure_requires_identity(z6):
    with pytest.raises(ValueError):
        closure_claim_check(z6, subset_mask(z6, [1, 2]))


def test_closure_s3_three_cycle(s3):
    # {e, c} for a 3-cycle c: c*c = c^2 lies outside, so (c, c) is reported
    out = closure_claim_check(s3, subset_mask(s3, [0, 3]))
    assert out == [(3, 3)]


def test_closure_z6_example(z6):
    out = closure_claim_check(z6, subset_mask(z6, [0, 1, 5]))
    assert out == [(1, 1), (5, 5)]


def _progression_holds(g, mask):
    return progression_check(g, mask) == []


def test_closure_violation_with_progression_forces_pattern(z6, z8, s3, d4):
    # for e in S with the progression property, any closure violation (u, v)
    # pins the forbidden pattern at rows (e, u^-1, v^-1), cols (e, u, v)
    found_cases = 0
    for g in (z6, z8, s3, d4):
        e = g.identity
        for mask in range(1 << g.order):
            if not (mask >> e) & 1 or not _progression_holds(g, mask):
                continue
            for u, v in closure_claim_check(g, mask):
                rows = (e, g.inv(u), g.inv(v))
                cols = (e, u, v)
                m = multiplier_matrix(g, mask)
                np.testing.assert_array_equal(m[np.ix_(rows, cols)], forbidden_pattern())
                found_cases += 1
    assert found_cases > 0


def test_pattern_hit_for_closure_violation_example(z6):
    # {0, 2, 3, 4} = <2> u <3> keeps squares of members (2+2, 3+3 stay inside)
    # and violates closure at (2, 3), which pins the forbidden pattern at
    # rows (0, -2, -3) = (0, 4, 3) and cols (0, 2, 3)
    mask = subset_mask(z6, [0, 2, 3, 4])
    assert (2, 3) in closure_claim_check(z6, mask)
    for member in (2, 3):
        assert (mask >> oracle_mul(z6, member, member)) & 1
    m = multiplier_matrix(z6, mask)
    np.testing.assert_array_equal(m[np.ix_((0, 4, 3), (0, 2, 3))], forbidden_pattern())


def test_cb_norm_certificates_verify(z6):
    for mask in (0b000011, 0b011101, 0b111111):
        bounds = cb_norm(z6, mask)
        matrix = multiplier_matrix(z6, mask)
        assert check_certificate(matrix, bounds.certificate.p, bounds.certificate.q,
                                 bounds.certificate.c, tol=1e-8)
        assert witness_lower_bound(matrix, bounds.witness) >= bounds.lower - 1e-12


# a fixed spread of 16 masks on each order-8 group, small enough for gamma2
ORDER_8_MASKS = tuple(range(7, 256, 16))


def test_cb_norm_is_exact_with_certificate_and_witness(s3, d4, q8):
    for g in (s3, d4, q8):
        for mask in range(1 << g.order):
            bounds = cb_norm(g, mask)
            matrix = multiplier_matrix(g, mask)
            assert bounds.upper - bounds.lower <= 1e-12
            assert check_certificate(matrix, bounds.certificate.p, bounds.certificate.q,
                                     bounds.certificate.c, tol=1e-9)
            assert witness_lower_bound(matrix, bounds.witness) >= bounds.lower - 1e-12


def test_gamma2_brackets_exact_cb_norm(s3, d4, q8):
    # the generic solver, run on the multiplier matrix, stays checked against
    # the closed form
    cases = [(s3, mask) for mask in range(1, 1 << 6)]
    cases += [(g, mask) for g in (d4, q8) for mask in ORDER_8_MASKS]
    for g, mask in cases:
        exact = cb_norm(g, mask)
        bracket = gamma2(multiplier_matrix(g, mask), 1e-8)
        assert bracket.upper - bracket.lower <= 1e-8
        assert bracket.lower - 1e-9 <= exact.lower <= exact.upper <= bracket.upper + 1e-9


def test_cb_norm_certificate_checks_at_order_64():
    # D32 = <r, s | r^32, s^2, s r = r^-1 s>, with r^i s^j at index i + 32 j;
    # check_certificate must take the 128 x 128 block
    def mul(a, b):
        i, j, k, l = a % 32, a // 32, b % 32, b // 32
        return (i + (k if j == 0 else -k)) % 32 + 32 * (j ^ l)

    group = load_cayley_group([[mul(a, b) for b in range(64)] for a in range(64)], 0)
    for mask in (0b1011, (1 << 40) - 1 - 0b100100):
        bounds = cb_norm(group, mask)
        matrix = multiplier_matrix(group, mask)
        assert check_certificate(matrix, bounds.certificate.p, bounds.certificate.q,
                                 bounds.certificate.c, tol=1e-8)


def test_cb_norm_two_sided_translation_invariant(s3, d4):
    for g in (s3, d4):
        for mask in (subset_mask(g, [0, 1]), subset_mask(g, [0, 1, 2]),
                     subset_mask(g, [1, 2, 3, 5])):
            base = cb_norm(g, mask)
            for a in g.elements():
                for b in g.elements():
                    moved = cb_norm(g, translate_right(g, translate_left(g, a, mask), b))
                    assert moved.lower == pytest.approx(base.lower, abs=1e-12)
                    assert moved.upper == pytest.approx(base.upper, abs=1e-12)
