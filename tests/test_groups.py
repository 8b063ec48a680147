import json
from collections import Counter

import numpy as np
import pytest

from idemnorm import (
    GroupAxiomError,
    analyze_cosets,
    builtin_group,
    is_subgroup,
    load_cayley_file,
    load_cayley_group,
    make_abelian_group,
    parse_group,
    stabilizer,
    subset_elements,
    subset_mask,
    translate_left,
    translate_right,
)
from idemnorm.groups import GROUP_ORDER_CAP, character_values, subgroup_generated

from conftest import (
    oracle_character_value,
    oracle_coords,
    oracle_element_order,
    oracle_is_subgroup,
    oracle_mul,
    oracle_stabilizer,
    oracle_translate_left,
    oracle_translate_right,
    planted_subsets,
)


def test_make_abelian_orders():
    assert make_abelian_group([6]).order == 6
    assert make_abelian_group([2, 4]).order == 8
    assert make_abelian_group([3, 3]).order == 9


def test_make_abelian_rejects_small_factor():
    with pytest.raises(ValueError):
        make_abelian_group([1, 4])
    with pytest.raises(ValueError):
        make_abelian_group([])


def test_make_abelian_rejects_overflow():
    for factors in ([4096, 2], [4097], [64, 65]):
        with pytest.raises(ValueError, match="exceeds cap 4096"):
            make_abelian_group(factors)


def test_order_cap_env_override(monkeypatch):
    # IDEMNORM_MAX_ORDER no longer exists: a stale setting neither lowers,
    # raises nor breaks the fixed cap GROUP_ORDER_CAP
    assert GROUP_ORDER_CAP == 4096
    monkeypatch.setenv("IDEMNORM_MAX_ORDER", "10")
    assert make_abelian_group([16]).order == 16
    monkeypatch.setenv("IDEMNORM_MAX_ORDER", "20000")
    assert make_abelian_group([64, 64]).order == 4096
    with pytest.raises(ValueError, match="exceeds cap 4096"):
        make_abelian_group([16384 // 2, 2])
    monkeypatch.setenv("IDEMNORM_MAX_ORDER", "zero")
    assert make_abelian_group([4]).order == 4


def test_mixed_radix_round_trip(z2z4):
    for a in z2z4.elements():
        assert z2z4.index_of(oracle_coords(z2z4, a)) == a
    # last coordinate varies fastest; coordinates are reduced mod the factors
    assert z2z4.index_of((0, 1)) == 1
    assert z2z4.index_of((1, 0)) == 4
    assert z2z4.index_of((3, -1)) == 7


def _assert_mul_matches_oracle(g):
    everything = np.arange(g.order)
    table = g.mul_array(everything[:, None], everything[None, :])
    for a in g.elements():
        assert g.mul_array(a, everything).tolist() == table[a].tolist()
        for b in g.elements():
            assert table[a, b] == g.mul(a, b) == oracle_mul(g, a, b)


def test_abelian_mul_matches_mul_array():
    for spec in ("Z2xZ4", "Z3xZ3", "Z2xZ2xZ3"):
        _assert_mul_matches_oracle(parse_group(spec))


def test_cayley_mul_matches_mul_array():
    for spec in ("S3", "D4", "Q8"):
        _assert_mul_matches_oracle(parse_group(spec))


def test_trivial_cayley_group():
    g = load_cayley_group([[0]], 0)
    assert g.order == 1
    assert g.inv(0) == 0


def test_z2_cayley_group():
    g = load_cayley_group([[0, 1], [1, 0]], 0)
    assert g.order == 2
    assert g.mul(1, 1) == 0


def test_broken_associativity_names_triple():
    # a "table" where 1*1 = 1 breaks associativity/inverses structure
    table = [[0, 1, 2], [1, 1, 0], [2, 0, 1]]
    with pytest.raises(GroupAxiomError) as err:
        load_cayley_group(table, 0)
    assert err.value.triple


def test_bad_identity_rejected():
    with pytest.raises(GroupAxiomError):
        load_cayley_group([[1, 0], [0, 1]], 0)


def test_out_of_range_entry_rejected():
    with pytest.raises(GroupAxiomError):
        load_cayley_group([[0, 1], [1, 2]], 0)


def test_cayley_axioms_hold_for_builtins():
    for name in ("S3", "D4", "Q8"):
        g = builtin_group(name)
        e = g.identity
        for a in g.elements():
            assert g.mul(a, g.inv(a)) == e
            assert g.mul(g.inv(a), a) == e
            for b in g.elements():
                for c in g.elements():
                    assert g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c))


def test_builtin_s3_is_nonabelian_of_order_6(s3):
    assert s3.order == 6
    assert not s3.is_abelian
    assert any(s3.mul(a, b) != s3.mul(b, a)
               for a in s3.elements() for b in s3.elements())


def test_builtin_q8_has_unique_involution(q8):
    census = Counter(oracle_element_order(q8, t) for t in q8.elements())
    assert census == {1: 1, 2: 1, 4: 6}


def test_builtin_d4_order_census(d4):
    # derived by hand from the presentation: e, r^2 and the four reflections
    # have order <= 2; r and r^3 have order 4
    census = Counter(oracle_element_order(d4, t) for t in d4.elements())
    assert census == {1: 1, 2: 5, 4: 2}


def test_builtin_unknown_name():
    with pytest.raises(ValueError):
        builtin_group("A5")


def test_character_values(z4, z2z4):
    assert character_values(z4, 2)[1] == pytest.approx(-1)
    assert character_values(z4, 3)[0] == pytest.approx(1)
    x = z2z4.index_of((1, 1))
    s = z2z4.index_of((1, 2))
    assert character_values(z2z4, s)[x] == pytest.approx(1)


def test_character_value_is_bilinear(z6, z2z4):
    for g in (z6, z2z4):
        rows = character_values(g, np.arange(g.order))
        for s in g.elements():
            for t in g.elements():
                np.testing.assert_allclose(rows[oracle_mul(g, s, t)], rows[s] * rows[t],
                                           rtol=0, atol=1e-12)
        # symmetric in x and s
        np.testing.assert_allclose(rows, rows.T, rtol=0, atol=0)


def test_character_values_match_character_value(z6, z2z4):
    for g in (z6, z2z4, make_abelian_group([2, 2, 3])):
        rows = character_values(g, np.arange(g.order))
        for s in g.elements():
            expected = [oracle_character_value(g, x, s) for x in g.elements()]
            np.testing.assert_allclose(character_values(g, s), expected, rtol=0, atol=1e-15)
            np.testing.assert_allclose(rows[s], expected, rtol=0, atol=1e-15)


def test_character_value_rejects_cayley(s3):
    with pytest.raises(ValueError):
        character_values(s3, 2)


def test_stabilizer_examples(z6):
    whole = (1 << 6) - 1
    assert stabilizer(z6, whole) == whole
    assert stabilizer(z6, subset_mask(z6, [0, 3])) == subset_mask(z6, [0, 3])
    assert stabilizer(z6, subset_mask(z6, [0, 1])) == subset_mask(z6, [0])


def test_stabilizer_is_subgroup(z6, s3):
    for g in (z6, s3):
        for mask in range(1 << g.order):
            assert is_subgroup(g, stabilizer(g, mask))


def test_element_orders(z6, s3, d4, q8):
    assert oracle_element_order(z6, 0) == 1
    assert oracle_element_order(z6, 1) == 6
    transpositions = [t for t in s3.elements() if oracle_element_order(s3, t) == 2]
    assert len(transpositions) == 3
    # the cyclic subgroup <t> has ord(t) elements
    for g in (z6, s3, d4, q8):
        for t in g.elements():
            assert len(subset_elements(subgroup_generated(g, [t]))) == oracle_element_order(g, t)


def test_analyze_examples(z4, z6):
    a = analyze_cosets(z4, subset_mask(z4, [0, 1]))
    assert a.kind == "two_cosets" and a.q == 4
    assert subset_elements(a.subgroup) == [0]
    assert analyze_cosets(z6, subset_mask(z6, [0, 2, 4])).kind == "coset"
    assert analyze_cosets(z6, subset_mask(z6, [0, 1, 3])).kind == "other"
    assert analyze_cosets(z6, 0).kind == "empty"


def test_analyze_two_coset_invariants(z6, z8):
    for g in (z6, z8):
        for mask in range(1, 1 << g.order):
            a = analyze_cosets(g, mask)
            if a.kind == "coset":
                h = a.subgroup
                assert is_subgroup(g, h)
                assert translate_left(g, a.rep_a, h) == mask
            elif a.kind == "two_cosets":
                assert a.q >= 3
                assert a.subgroup == stabilizer(g, mask)
                union = (translate_left(g, a.rep_a, a.subgroup)
                         | translate_left(g, a.rep_b, a.subgroup))
                assert union == mask


def test_analyze_translation_covariant(z6, s3):
    for g in (z6, s3):
        for mask in range(1 << g.order):
            a = analyze_cosets(g, mask)
            for t in g.elements():
                for moved in (translate_left(g, t, mask), translate_right(g, mask, t)):
                    b = analyze_cosets(g, moved)
                    assert (a.kind, a.q) == (b.kind, b.q)


def test_analyze_coset_matches_brute_force(s3):
    subgroups = [m for m in range(1 << s3.order) if is_subgroup(s3, m)]
    for mask in range(1, 1 << s3.order):
        brute = any(translate_left(s3, a, h) == mask
                    for h in subgroups for a in s3.elements())
        assert (analyze_cosets(s3, mask).kind == "coset") == brute


def test_subgroup_generated(z6, q8):
    assert subgroup_generated(z6, [2]) == subset_mask(z6, [0, 2, 4])
    assert subset_elements(subgroup_generated(q8, [2])) == [0, 1, 2, 3]


def test_translate_round_trip(s3):
    mask = subset_mask(s3, [0, 2, 5])
    for t in s3.elements():
        assert translate_left(s3, s3.inv(t), translate_left(s3, t, mask)) == mask
        assert translate_right(s3, translate_right(s3, mask, t), s3.inv(t)) == mask


def test_parse_group():
    assert parse_group("Z6").order == 6
    assert parse_group("z2Xz4").factors == (2, 4)
    assert parse_group("q8").name == "Q8"
    with pytest.raises(ValueError):
        parse_group("Zx")


def test_cayley_file_round_trip(tmp_path, s3):
    path = tmp_path / "s3.json"
    path.write_text(json.dumps({
        "n": 6, "identity": s3.identity,
        "table": [[oracle_mul(s3, a, b) for b in range(6)] for a in range(6)],
    }))
    loaded = load_cayley_file(str(path))
    assert loaded.order == 6
    assert all(loaded.mul(a, b) == oracle_mul(s3, a, b)
               for a in range(6) for b in range(6))


@pytest.mark.parametrize("content", [
    {"table": [[0, "1"], [1, 0]]},
    {"table": [[False]]},
    {"table": [0, 1]},
    {"table": [[0]], "n": "1"},
    {"table": [[0]], "identity": None},
])
def test_load_cayley_file_rejects_malformed_json(tmp_path, content):
    path = tmp_path / "group.json"
    path.write_text(json.dumps(content))
    with pytest.raises(GroupAxiomError):
        load_cayley_file(str(path))


def test_subset_elements_matches_subset_mask(z6):
    mask = 0b101101
    assert subset_elements(mask) == [0, 2, 3, 5]
    assert subset_mask(z6, subset_elements(mask)) == mask
    assert subset_elements(0) == []


ORACLE_GROUPS = ("Z6", "Z8", "Z2xZ4", "S3", "D4", "Q8")


@pytest.mark.parametrize("spec", ORACLE_GROUPS)
def test_set_operations_match_oracles_on_every_subset(spec):
    g = parse_group(spec)
    for mask in range(1 << g.order):
        assert stabilizer(g, mask) == oracle_stabilizer(g, mask)
        assert is_subgroup(g, mask) == oracle_is_subgroup(g, mask)
        for t in g.elements():
            assert translate_left(g, t, mask) == oracle_translate_left(g, t, mask)
            assert translate_right(g, mask, t) == oracle_translate_right(g, mask, t)


@pytest.mark.parametrize("spec", ("Z1024", "Z32xZ32", "x".join(["Z2"] * 10)))
def test_set_operations_match_oracles_on_large_groups(spec):
    g = parse_group(spec)
    # in Z32xZ32 and Z2^10 the elements 0..3n/8-1 are a union of cosets of a
    # subgroup holding the smallest elements, so the first block of rows of
    # is_subgroup and stabilizer leaves the answer open and later blocks decide
    inputs = [("other", None, (1 << (3 * g.order // 8)) - 1)]
    inputs += planted_subsets(g, 0, coset_size=256, union_size=32, random_size=341)
    for kind, _, mask in inputs:
        stab = stabilizer(g, mask)
        assert stab == oracle_stabilizer(g, mask), kind
        assert is_subgroup(g, stab) and oracle_is_subgroup(g, stab)
        assert is_subgroup(g, mask) == oracle_is_subgroup(g, mask)
        a = (mask & -mask).bit_length() - 1
        moved = translate_left(g, g.inv(a), mask)
        assert moved == oracle_translate_left(g, g.inv(a), mask)
        assert is_subgroup(g, moved) == oracle_is_subgroup(g, moved) == (kind == "coset")
        for t in (1, g.order // 3, g.order - 1):
            assert translate_left(g, t, mask) == oracle_translate_left(g, t, mask)
            assert translate_right(g, mask, t) == oracle_translate_right(g, mask, t)


@pytest.mark.parametrize("spec", ("Z4096", "Z64xZ64"))
def test_analyze_cosets_at_the_order_cap(spec):
    g = parse_group(spec)
    planted = planted_subsets(g, 0, coset_size=1024, union_size=256, random_size=1366)
    assert sorted(kind for kind, _, _ in planted) == ["coset", "other", "two_cosets",
                                                      "two_cosets"]
    for kind, q, mask in planted:
        analysis = analyze_cosets(g, mask)
        assert (analysis.kind, analysis.q) == (kind, q)
