import math
import random

import numpy as np
import pytest

from idemnorm import (
    bs_norm,
    builtin_group,
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
    subset_elements,
    subset_mask,
    translate_left,
    witness_lower_bound,
)

from idemnorm.multiplier import _cb_brackets, has_progression_property

from conftest import (
    all_subgroups,
    cayley_table_group,
    dicyclic_group,
    dihedral_group,
    oracle_cb_norm,
    oracle_closure_claim_check,
    oracle_mul,
    oracle_multiplier_matrix,
    oracle_pattern_search,
    oracle_progression_check,
    oracle_translate_right,
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
        for s in range(g.order):
            row = {t for t in range(g.order) if m[s, t] == 1.0}
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


def _relabelled_s3():
    """S3 with element x renamed 5 - x, so that its identity is 5, not 0."""
    s3 = builtin_group("S3")
    assert s3.identity == 0
    table = [[0] * 6 for _ in range(6)]
    for a in range(6):
        for b in range(6):
            table[5 - a][5 - b] = 5 - oracle_mul(s3, a, b)
    return load_cayley_group(table, 5, name="S3'")


# subsets sampled per group: the oracle takes about a second on a subset
# of order 9 without a hit
PATTERN_SAMPLES = {"Z2xZ4": 8, "Z3xZ3": 4, "S3'": 32}


@pytest.mark.parametrize("spec", PATTERN_SAMPLES)
def test_pattern_search_matches_oracle_on_sampled_subsets(spec):
    # the first hit starts at row 0, which is not the identity of S3'
    g = _relabelled_s3() if spec == "S3'" else parse_group(spec)
    rng = random.Random(12)
    for mask in rng.sample(range(1 << g.order), PATTERN_SAMPLES[spec]):
        assert forbidden_pattern_search(g, mask) == oracle_pattern_search(g, mask)


def test_pattern_search_rejects_order_65():
    with pytest.raises(ValueError):
        forbidden_pattern_search(make_abelian_group([65]), 0b111)


def test_progression_subgroup_clean(z6, s3):
    for g in (z6, s3):
        for sub in all_subgroups(g):
            assert has_progression_property(g, sub) == (not oracle_progression_check(g, sub))
            assert has_progression_property(g, sub)


def test_progression_z6_pair(z6):
    # 0 + 1 lies in {0, 1} but 0 + 2 * 1 does not
    assert not has_progression_property(z6, subset_mask(z6, [0, 1]))


def test_progression_s3_example(s3):
    # {e, (12), (13)} in one-line-notation indexing: e=0, (12)=2, (13)=5
    assert not has_progression_property(s3, subset_mask(s3, [0, 2, 5]))


@pytest.mark.parametrize("spec", ("Z6", "Z8", "Z2xZ4", "Z3xZ3", "S3", "D4", "Q8"))
def test_progression_and_closure_match_oracles_on_every_subset(spec):
    g = parse_group(spec)
    for mask in range(1 << g.order):
        assert has_progression_property(g, mask) == (not oracle_progression_check(g, mask))
        if (mask >> g.identity) & 1:
            assert closure_claim_check(g, mask) == oracle_closure_claim_check(g, mask)


@pytest.mark.parametrize("spec", ("Z6", "Z7", "Z8", "Z9", "Z10", "S3", "D4", "Q8"))
def test_progression_property_stops_at_the_first_failure_and_agrees(spec):
    g = parse_group(spec)
    for mask in range(1 << g.order):
        assert has_progression_property(g, mask) == (not oracle_progression_check(g, mask))


@pytest.mark.parametrize("make, m", [(dihedral_group, 5), (dihedral_group, 6),
                                     (dicyclic_group, 3)])
def test_progression_property_needs_only_right_squares_on_larger_cayley_groups(make, m):
    # the oracle walks every power on both sides; the library tests s t^2
    # on the right alone, which D4 and Q8 cannot tell apart from t^2 s
    # because their squares are central
    g = make(m)
    for mask in range(1 << g.order):
        assert has_progression_property(g, mask) == (not oracle_progression_check(g, mask))


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


def test_closure_violation_with_progression_forces_pattern(z6, z8, s3, d4):
    # for e in S with the progression property, any closure violation (u, v)
    # pins the forbidden pattern at rows (e, u^-1, v^-1), cols (e, u, v)
    found_cases = 0
    for g in (z6, z8, s3, d4):
        e = g.identity
        for mask in range(1 << g.order):
            if not (mask >> e) & 1 or not has_progression_property(g, mask):
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


def _assert_cb_norm_exact(group, mask):
    """cb_norm agrees with the dense SVD within 1e-12 max(1, value), its
    certificate checks at 1e-9, and its witness gives back its lower end;
    the certificate and witness matrices are real, as M is."""
    bounds = cb_norm(group, mask)
    assert bounds.upper - bounds.lower <= 1e-12
    assert not any(np.iscomplexobj(x) for x in (bounds.certificate.p, bounds.certificate.q,
                                                 bounds.witness.matrix))
    matrix = oracle_multiplier_matrix(group, mask)
    value = oracle_cb_norm(group, mask)
    assert abs(bounds.lower - value) <= 1e-12 * max(1.0, value)
    assert abs(bounds.upper - value) <= 1e-12 * max(1.0, value)
    assert check_certificate(matrix, bounds.certificate.p, bounds.certificate.q,
                             bounds.certificate.c, tol=1e-9)
    witnessed = witness_lower_bound(matrix, bounds.witness)
    assert abs(witnessed - bounds.lower) <= 1e-12 * max(1.0, value)
    return value


def test_cb_norm_is_exact_with_certificate_and_witness(s3, d4, q8):
    for g in (s3, d4, q8):
        for mask in range(1 << g.order):
            _assert_cb_norm_exact(g, mask)


def _seeded_masks(group, seed, count=6):
    """count random masks at densities 1/4, 1/2 and 3/4 in turn, the
    cyclic subgroup h_1^-1 <g> h_1 that the corner entries of the cyclic
    layout's blocks run through, and the whole group."""
    rng = random.Random(seed)
    masks = [sum(1 << x for x in range(group.order) if rng.random() < (1 + i % 3) / 4)
             for i in range(count)]
    cycle = sum(1 << int(x) for x in set(group.cyclic_layout.gather[:, 0, 0].tolist()))
    return masks + [cycle, (1 << group.order) - 1]


CB_NONABELIAN = {"D8": lambda: dihedral_group(8), "D16": lambda: dihedral_group(16),
                 "D32": lambda: dihedral_group(32)}
CB_NONABELIAN.update({f"Dic{m}": (lambda m=m: dicyclic_group(m)) for m in range(4, 9)})


@pytest.mark.parametrize("name", CB_NONABELIAN)
def test_cb_norm_matches_the_dense_oracle_on_seeded_sets(name):
    group = CB_NONABELIAN[name]()
    for mask in _seeded_masks(group, 16):
        _assert_cb_norm_exact(group, mask)


@pytest.mark.parametrize("factors", [(2,) * 6, (8, 8), (4, 4, 4)],
                         ids=["Z2^6", "Z8xZ8", "Z4^3"])
def test_cb_norm_matches_the_dense_oracle_and_bs_norm_on_abelian_groups(factors):
    # Z2^6 lays out as 32 blocks of 2, the most cosets at the order cap
    group = make_abelian_group(factors)
    for mask in _seeded_masks(group, 16):
        value = _assert_cb_norm_exact(group, mask)
        assert abs(bs_norm(group, mask) - value) <= 1e-12 * max(1.0, value)


STACKED = {"Z12": lambda: parse_group("Z12"), "Z16": lambda: parse_group("Z16"),
           "Z2xZ6": lambda: parse_group("Z2xZ6"), "Z3xZ3": lambda: parse_group("Z3xZ3"),
           "Z2^6": lambda: make_abelian_group((2,) * 6), "D4": lambda: parse_group("D4"),
           "D8": lambda: dihedral_group(8), "Dic3": lambda: dicyclic_group(3),
           "D32": lambda: dihedral_group(32), "cayley-Z12": lambda: cayley_table_group("Z12")}


@pytest.mark.parametrize("name", STACKED)
def test_a_stack_of_cb_brackets_gives_each_mask_what_cb_norm_gives_it(name):
    # one shuffled stack of 300 masks, with repeats, the empty set and the
    # whole group, against per-call cb_norm and batches of one, bit for
    # bit: cyclic layouts of k = 1 (Z12, Z16, the Cayley table of Z12),
    # k = 2, 3 and 32, and dihedral and dicyclic groups up to order 64
    group = STACKED[name]()
    rng = random.Random(group.order + len(name))
    masks = [rng.getrandbits(group.order) for _ in range(149)]
    masks += masks[:149] + [0, (1 << group.order) - 1]
    rng.shuffle(masks)
    lower, upper, circulants, slack = _cb_brackets(group, np.array(masks, dtype=np.uint64))
    for i, mask in enumerate(masks):
        bounds = cb_norm(group, mask)
        assert (lower[i], upper[i]) == (bounds.lower, bounds.upper)
        _, _, one, shortfall = _cb_brackets(group, np.array([mask], dtype=np.uint64))
        assert np.array_equal(one[:, 0], circulants[:, i]) and shortfall[0] == slack[i]


def test_cb_norm_on_the_group_of_order_one():
    group = load_cayley_group([[0]])
    for mask in (0, 1):
        assert _assert_cb_norm_exact(group, mask) == mask


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
            for a in range(g.order):
                for b in range(g.order):
                    moved = cb_norm(g, oracle_translate_right(g, translate_left(g, a, mask), b))
                    assert moved.lower == pytest.approx(base.lower, abs=1e-12)
                    assert moved.upper == pytest.approx(base.upper, abs=1e-12)
