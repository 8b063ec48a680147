import hashlib
import json
import random
import re
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
)
from idemnorm import groups
from idemnorm.groups import (
    GROUP_ORDER_CAP,
    Group,
    _bits,
    _cayley_stabilizers,
    _spectrum,
    _translates,
    _spectrum_of,
    character_values,
    subset_text,
    validate_mask,
)

from conftest import (
    ELEMENT_TEXT_MASKS,
    _closure,
    dicyclic_group,
    dihedral_group,
    oracle_analyze_cosets,
    oracle_character_value,
    oracle_coords,
    oracle_element_order,
    oracle_is_subgroup,
    oracle_mul,
    oracle_stabilizer,
    oracle_stabilizer_sides,
    oracle_translate_left,
    oracle_translate_right,
    planted_subsets,
    random_subgroup,
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
    # a float factor is refused, not truncated to Z4
    with pytest.raises(ValueError, match="cyclic factor must be an integer, got 4.9"):
        make_abelian_group([4.9])


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
    for a in range(z2z4.order):
        assert z2z4.index_of(oracle_coords(z2z4, a)) == a
    # last coordinate varies fastest; coordinates are reduced mod the factors
    assert z2z4.index_of((0, 1)) == 1
    assert z2z4.index_of((1, 0)) == 4
    assert z2z4.index_of((3, -1)) == 7
    assert type(z2z4.index_of((np.int64(1), 3))) is int
    # float coordinates are refused, not truncated
    for coords in ((1.7, 2.9), (1, 2.0), (np.float64(1), 0)):
        with pytest.raises(ValueError, match="coordinate must be an integer"):
            z2z4.index_of(coords)


def _assert_mul_matches_oracle(g):
    everything = np.arange(g.order)
    table = g.mul_array(everything[:, None], everything[None, :])
    for a in range(g.order):
        assert g.mul_array(a, everything).tolist() == table[a].tolist()
        for b in range(g.order):
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
    # a table of an abelian group stays on the table path
    assert not g.is_abelian


def test_group_takes_factors_or_a_table_by_keyword():
    with pytest.raises(TypeError):
        Group((2,))
    with pytest.raises(ValueError, match="not both"):
        Group(factors=(2,), table=[[0, 1], [1, 0]])
    assert Group(factors=(2, 3)).is_abelian
    assert Group(table=[[0, 1], [1, 0]]).table.tolist() == [[0, 1], [1, 0]]
    # a group from factors has identity 0; another index is refused, not dropped
    for identity in (3, 2.5):
        with pytest.raises(ValueError, match="identity 0"):
            Group(factors=(4,), identity=identity)
    assert Group(factors=(4,), identity=0).identity == 0


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


@pytest.mark.parametrize("table, identity, message", [
    ([[0, 1]], 0, "Cayley table must be square"),
    (np.zeros((0, 0), dtype=int), 0, "Cayley table must be nonempty"),
    ([[0, 1], [1, 0]], 2, "identity index 2 out of range"),
    ([[0, 1], [1, 0]], -1, "identity index -1 out of range"),
    ([[0, 1], [1, 1]], 0, "element 1 has no two-sided inverse"),
    # what load_cayley_file passes on for {"table": []}
    ([], 0, "Cayley table must be nonempty"),
    # refused, not truncated to the table of Z2
    ([[0, 1.7], [1.2, 0.4]], 0, "Cayley table entries must be integers, got dtype float64"),
    ([[False, True], [True, False]], 0, "Cayley table entries must be integers, got dtype bool"),
    # the row of 0 is the identity's, its column is not
    ([[0, 1], [0, 1]], 0, "0 is not a two-sided identity (fails at 1)"),
])
def test_malformed_cayley_tables_are_rejected(table, identity, message):
    with pytest.raises(GroupAxiomError, match=re.escape(message)):
        load_cayley_group(table, identity)


def test_cayley_identity_must_be_an_integer():
    with pytest.raises(ValueError, match="identity index must be an integer, got 0.0"):
        load_cayley_group([[0, 1], [1, 0]], 0.0)
    # Z2 with 1 as its identity: a numpy integer is an integer
    assert load_cayley_group([[1, 0], [0, 1]], np.int64(1)).identity == 1


def test_cayley_file_declaring_another_order_is_rejected(tmp_path):
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"n": 3, "table": [[0, 1], [1, 0]]}))
    with pytest.raises(GroupAxiomError, match="declared order 3 does not match table size 2"):
        load_cayley_file(str(path))


@pytest.mark.parametrize("mask", [-1, 1 << 6, (1 << 7) - 1])
def test_validate_mask_rejects_masks_out_of_range(z6, mask):
    with pytest.raises(ValueError, match="out of range for order 6"):
        validate_mask(z6, mask)
    assert validate_mask(z6, (1 << 6) - 1) == 63


def test_masks_and_indices_must_be_integers():
    z4 = make_abelian_group([4])
    # floats are refused, not truncated to the mask 6 or 3
    with pytest.raises(ValueError, match="element index must be an integer, got 1.7"):
        subset_mask(z4, [1.7, 2.2])
    with pytest.raises(ValueError, match="subset mask must be an integer, got 3.9"):
        validate_mask(z4, 3.9)
    assert subset_mask(z4, np.array([1, 2])) == 6
    assert validate_mask(z4, np.int64(3)) == 3


def test_subset_mask_keeps_what_it_accepts_and_refuses():
    z4 = make_abelian_group([4])
    # bools index as 0 and 1; a set, a range, an empty list and an
    # unsigned array are collections of indices like any other
    assert subset_mask(z4, [True, 3]) == 0b1010
    assert subset_mask(z4, [False, True]) == 0b11
    assert subset_mask(z4, {0, 2}) == 0b101
    assert subset_mask(z4, range(4)) == 0b1111
    assert subset_mask(z4, []) == 0
    assert subset_mask(z4, np.array([3, 3], dtype=np.uint8)) == 0b1000
    # the first bad index, in order, is the one named
    for indices, message in [
        ([0, -1], "element index -1 out of range for order 4"),
        ([4], "element index 4 out of range for order 4"),
        (np.array([1, 9, -2]), "element index 9 out of range for order 4"),
        ([9, 1.5], "element index 9 out of range for order 4"),
        ([1.5, 9], "element index must be an integer, got 1.5"),
        ([2 ** 70], f"element index {2 ** 70} out of range for order 4"),
        ([-1, 2 ** 63], "element index -1 out of range for order 4"),
        ([[1], [1, 2]], "element index must be an integer, got [1]"),
        ([[1, 2]], "element index must be an integer, got [1, 2]"),
        (["1"], "element index must be an integer, got '1'"),
    ]:
        with pytest.raises(ValueError, match=re.escape(message)):
            subset_mask(z4, indices)


def test_cayley_axioms_hold_for_builtins():
    for name in ("S3", "D4", "Q8"):
        g = builtin_group(name)
        e = g.identity
        for a in range(g.order):
            assert g.mul(a, g.inv(a)) == e
            assert g.mul(g.inv(a), a) == e
            for b in range(g.order):
                for c in range(g.order):
                    assert g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c))


def test_builtin_s3_is_nonabelian_of_order_6(s3):
    assert s3.order == 6
    assert not s3.is_abelian
    assert any(s3.mul(a, b) != s3.mul(b, a)
               for a in range(s3.order) for b in range(s3.order))


def test_builtin_q8_has_unique_involution(q8):
    census = Counter(oracle_element_order(q8, t) for t in range(q8.order))
    assert census == {1: 1, 2: 1, 4: 6}


def test_builtin_d4_order_census(d4):
    # derived by hand from the presentation: e, r^2 and the four reflections
    # have order <= 2; r and r^3 have order 4
    census = Counter(oracle_element_order(d4, t) for t in range(d4.order))
    assert census == {1: 1, 2: 5, 4: 2}


@pytest.mark.parametrize("name, digest", [
    ("S3", "bc3ff83846d7"), ("D4", "b4fddc32be00"), ("Q8", "9a2ee5146c11")])
def test_builtin_tables_are_pinned(name, digest):
    # sha256 prefixes of the int64 tables as first tabulated: S3 composes
    # sorted permutations, D4 puts r^i s^j at i + 4j, and Q8 puts +-1, +-i,
    # +-j, +-k at 2 axis + sign
    table = builtin_group(name).table
    assert table.dtype == np.int64
    assert hashlib.sha256(table.tobytes()).hexdigest().startswith(digest)


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
        for s in range(g.order):
            for t in range(g.order):
                np.testing.assert_allclose(rows[oracle_mul(g, s, t)], rows[s] * rows[t],
                                           rtol=0, atol=1e-12)
        # symmetric in x and s
        np.testing.assert_allclose(rows, rows.T, rtol=0, atol=0)


def test_character_values_match_character_value(z6, z2z4):
    for g in (z6, z2z4, make_abelian_group([2, 2, 3])):
        rows = character_values(g, np.arange(g.order))
        for s in range(g.order):
            expected = [oracle_character_value(g, x, s) for x in range(g.order)]
            np.testing.assert_allclose(character_values(g, s), expected, rtol=0, atol=1e-15)
            np.testing.assert_allclose(rows[s], expected, rtol=0, atol=1e-15)
            np.testing.assert_allclose(g.character_table[s], expected, rtol=0, atol=1e-15)


def test_character_value_rejects_cayley(s3):
    with pytest.raises(ValueError):
        character_values(s3, 2)
    with pytest.raises(ValueError, match="abelian"):
        s3.character_table


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
    transpositions = [t for t in range(s3.order) if oracle_element_order(s3, t) == 2]
    assert len(transpositions) == 3
    # the cyclic subgroup <t> has ord(t) elements, and is its own stabilizer
    for g in (z6, s3, d4, q8):
        for t in range(g.order):
            cyclic = _closure(g, [t])
            assert len(cyclic) == oracle_element_order(g, t)
            assert stabilizer(g, subset_mask(g, cyclic)) == subset_mask(g, cyclic)


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
            for t in range(g.order):
                for moved in (translate_left(g, t, mask), oracle_translate_right(g, mask, t)):
                    b = analyze_cosets(g, moved)
                    assert (a.kind, a.q) == (b.kind, b.q)


def test_analyze_coset_matches_brute_force(s3):
    subgroups = [m for m in range(1 << s3.order) if is_subgroup(s3, m)]
    for mask in range(1, 1 << s3.order):
        brute = any(translate_left(s3, a, h) == mask
                    for h in subgroups for a in range(s3.order))
        assert (analyze_cosets(s3, mask).kind == "coset") == brute


def test_translate_round_trip(s3):
    mask = subset_mask(s3, [0, 2, 5])
    for t in range(s3.order):
        assert translate_left(s3, s3.inv(t), translate_left(s3, t, mask)) == mask


@pytest.mark.parametrize("make", [lambda: parse_group("Z14"), lambda: parse_group("Z2xZ2xZ2xZ2xZ2xZ2"),
                                  lambda: dihedral_group(5)], ids=["Z14", "Z2^6", "D5"])
def test_translates_of_an_int_match_its_row_of_a_stack_and_leave_the_table_unchanged(make):
    # an int's first byte picks a row of the cached translation table
    # itself, a view, so ORing the other bytes into it in place would
    # rewrite the table; each int's row must equal its row of a uint64
    # stack, and the table's bytes must not change
    g = make()
    rng = random.Random(6)
    masks = [0, 1, 0b110, (1 << g.order) - 1] + [rng.getrandbits(g.order) for _ in range(40)]
    before = hashlib.sha256(g.translation_table.tobytes()).hexdigest()
    stack = _translates(g, np.array(masks, dtype=np.uint64))
    assert stack.shape == (len(masks), g.translation_table.shape[2]) and stack.dtype == np.uint64
    for mask, row in zip(masks, stack.tolist()):
        assert _translates(g, mask).tolist() == row
    assert hashlib.sha256(g.translation_table.tobytes()).hexdigest() == before
    assert _translates(g, np.array(masks, dtype=np.uint64)).tolist() == stack.tolist()


def test_parse_group():
    assert parse_group("Z6").order == 6
    assert parse_group("z2Xz4").factors == (2, 4)
    assert parse_group("q8").name == "Q8"
    with pytest.raises(ValueError):
        parse_group("Zx")
    # \d would match the Arabic-Indic three and read it as Z3
    for spec in ("Z\u0663", "Z2xZ\u0663", "Z1_0"):
        with pytest.raises(ValueError, match="cannot parse group spec"):
            parse_group(spec)


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


def _analysis(group, mask):
    a = analyze_cosets(group, mask)
    return (a.kind, a.subgroup, a.rep_a, a.rep_b, a.q)


@pytest.mark.parametrize("build", (lambda: parse_group("S3"), lambda: parse_group("D4"),
                                   lambda: parse_group("Q8"), lambda: dihedral_group(5),
                                   lambda: dicyclic_group(3)),
                         ids=("S3", "D4", "Q8", "D5", "Dic3"))
def test_analyze_cosets_matches_the_span_rule_on_every_subset(build):
    # S3 minus {e, s} is the two left cosets r T, r^2 T of its stabilizer
    # T = {e, s}, which is not normal in <T, r> = S3: kind "other".  In D4,
    # {r, r s} is the left coset r {e, s} of a non-normal subgroup, whose
    # left stabilizer {e, r^2 s} and two-sided stabilizer {e} differ from it
    g = build()
    for mask in range(1 << g.order):
        assert _analysis(g, mask) == oracle_analyze_cosets(g, mask), subset_elements(mask)


def _planted_cosets_and_unions(group, seed, count):
    """Seeded inputs: for random subgroups H, normal or not, a left coset
    a H, a union a H | b H of two left cosets, a double coset H g H and a
    random set."""
    rng = random.Random(seed)
    n = group.order
    out = []
    for _ in range(count):
        sub = _closure(group, [rng.randrange(n) for _ in range(rng.randint(1, 2))])
        a, b, g = (rng.randrange(n) for _ in range(3))
        left_a = {oracle_mul(group, a, h) for h in sub}
        left_b = {oracle_mul(group, b, h) for h in sub}
        double = {oracle_mul(group, oracle_mul(group, h, g), k) for h in sub for k in sub}
        out += [subset_mask(group, x) for x in (left_a, left_a | left_b, double)]
        out.append(subset_mask(group, rng.sample(range(n), rng.randint(1, n - 1))))
    return out


@pytest.mark.parametrize("build, seed, count", [
    (lambda: dihedral_group(8), 8, 100),
    (lambda: dicyclic_group(4), 4, 100),
    (lambda: dihedral_group(32), 32, 60),
    (lambda: dihedral_group(128), 128, 20),
], ids=("D8", "Dic4", "D32", "D128"))
def test_analyze_cosets_matches_the_span_rule_on_planted_sets(build, seed, count):
    g = build()
    m = g.order // 2
    r, s = 1, m
    # {e, s} | r {e, s} and {e, s} r {e, s}, with {e, s} a non-normal
    # subgroup of D_m (in Dic_m the index m holds x, of order 4).  In D_m
    # the second is r T | r^-1 T for its stabilizer T = {e, s}, which
    # c = r^-2 does not normalize: the conjugation makes it "other".  {e, r}
    # is the two cosets of T = {e} with q the order of r
    fixed = [subset_mask(g, {0, s, r, g.mul(r, s)}),
             subset_mask(g, {r, g.mul(r, s), g.mul(s, r), g.mul(g.mul(s, r), s)}),
             subset_mask(g, {0, r})]
    kinds = Counter()
    for mask in fixed + _planted_cosets_and_unions(g, seed, count):
        expected = oracle_analyze_cosets(g, mask)
        assert _analysis(g, mask) == expected, subset_elements(mask)
        kinds[expected[0]] += 1
    assert set(kinds) == {"coset", "two_cosets", "other"}, kinds


def test_dicyclic_group_order_census():
    assert Counter(oracle_element_order(dicyclic_group(2), t) for t in range(8)) == {
        1: 1, 2: 1, 4: 6}
    # Dic4: a^4 is the only involution; a, a^3, a^5, a^7 have order 8
    assert Counter(oracle_element_order(dicyclic_group(4), t) for t in range(16)) == {
        1: 1, 2: 1, 4: 10, 8: 4}


@pytest.mark.parametrize("build", [
    lambda: load_cayley_group([[0]]),
    lambda: make_abelian_group([2, 4]),
    lambda: builtin_group("S3"),
    lambda: builtin_group("Q8"),
    lambda: dicyclic_group(3),
    lambda: dihedral_group(8),
], ids=("trivial", "Z2xZ4", "S3", "Q8", "Dic3", "D8"))
def test_cyclic_layout_matches_its_definition(build):
    g = build()
    n, layout = g.order, g.cyclic_layout
    orders = [oracle_element_order(g, t) for t in range(n)]
    m = max(orders)
    generator = orders.index(m)  # the least element of largest order
    cycle = [g.identity]
    for _ in range(m - 1):
        cycle.append(oracle_mul(g, cycle[-1], generator))
    cosets = sorted({min(oracle_mul(g, c, x) for c in cycle) for x in range(n)})
    inverse = [next(y for y in range(n) if oracle_mul(g, x, y) == g.identity) for x in range(n)]
    assert layout.gather.tolist() == [
        [[oracle_mul(g, inverse[hi], oracle_mul(g, c, hj)) for hj in cosets] for hi in cosets]
        for c in cycle]
    assert layout.gather.reshape(-1)[layout.flat].tolist() == [
        [oracle_mul(g, inverse[x], y) for y in range(n)] for x in range(n)]


def test_subset_elements_matches_subset_mask(z6):
    mask = 0b101101
    assert subset_elements(mask) == [0, 2, 3, 5]
    assert subset_mask(z6, subset_elements(mask)) == mask
    assert subset_elements(0) == []
    for mask in (-1, -(1 << 70)):
        with pytest.raises(ValueError, match="negative"):
            subset_elements(mask)
    # masks below, at and above 64 bits, up to 1024 bits
    rng = random.Random(0)
    big = make_abelian_group([1024])
    for bits in (1, 63, 64, 65, 1024):
        for mask in (1 << (bits - 1), (1 << bits) - 1, rng.getrandbits(bits - 1) | 1 << (bits - 1)):
            elements = subset_elements(mask)
            assert elements == [x for x in range(bits) if mask >> x & 1]
            assert all(type(x) is int for x in elements)
            assert subset_mask(big, elements) == mask


@pytest.mark.parametrize("separator", [" ", ",\n  ", ""])
def test_subset_text_joins_the_elements_of_every_byte(separator):
    # the one per-byte table of the CSV subset field and the JSON element
    # lists, against subset_elements, which reads np.unpackbits and no table
    for mask in ELEMENT_TEXT_MASKS:
        assert subset_text(mask, separator) == separator.join(map(str, subset_elements(mask)))
    for mask in (-1, -(1 << 70)):
        with pytest.raises(ValueError, match="negative"):
            subset_text(mask, separator)


ORACLE_GROUPS = ("Z6", "Z8", "Z2xZ4", "S3", "D4", "Q8")


@pytest.mark.parametrize("spec", ORACLE_GROUPS)
def test_set_operations_match_oracles_on_every_subset(spec):
    g = parse_group(spec)
    for mask in range(1 << g.order):
        assert stabilizer(g, mask) == oracle_stabilizer(g, mask)
        assert is_subgroup(g, mask) == oracle_is_subgroup(g, mask)
        for t in range(g.order):
            assert translate_left(g, t, mask) == oracle_translate_left(g, t, mask)


@pytest.mark.parametrize("spec", ("Z1024", "Z32xZ32", "x".join(["Z2"] * 10),
                                  "x".join(["Z4"] * 5), "Z2xZ512"))
def test_set_operations_match_oracles_on_large_groups(spec):
    g = parse_group(spec)
    # in Z32xZ32 and Z2^10 the elements 0..3n/8-1 are a union of cosets of a
    # subgroup holding the smallest elements, so the first block of rows of
    # is_subgroup leaves the answer open and later blocks decide, and
    # stabilizer adjoins the smallest elements before a candidate fails
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


def test_two_sided_stabilizer_matches_oracle_on_a_cayley_group_of_order_128():
    n = 64
    g = dihedral_group(n)
    assert g.order == 128 and not g.is_abelian
    r, s = 1, n
    # <r^4, s> is not normal: r s r^-1 = r^2 s lies outside it
    sub = subset_mask(g, _closure(g, [4, s]))
    assert sub.bit_count() == 32 and not (sub >> g.mul(g.mul(r, s), g.inv(r))) & 1
    cosets = [translate_left(g, a, sub) for a in (0, r, 3, n + 5)]
    pair = subset_mask(g, _closure(g, [s]))  # {e, s}
    cosets += [translate_left(g, a, pair) for a in (r, 7, n + 2)]
    unions = [cosets[0] | cosets[1], cosets[1] | cosets[2], cosets[4] | cosets[5],
              cosets[4] | cosets[6]]
    rng = np.random.default_rng(13)
    randoms = [subset_mask(g, rng.choice(g.order, size, replace=False)) for size in (20, 50)]
    for mask in cosets + unions + randoms:
        assert stabilizer(g, mask) == oracle_stabilizer(g, mask), subset_elements(mask)
    # the one-sided stabilizer of a left coset a K is K; the two-sided one is
    # K meet a K a^-1, here <r^4>
    assert stabilizer(g, cosets[1]).bit_count() == 16


@pytest.mark.parametrize("build", (lambda: dihedral_group(128), lambda: dihedral_group(256),
                                   lambda: dicyclic_group(128)), ids=("D128", "D256", "Dic128"))
def test_stabilizer_matches_oracle_on_planted_cayley_sets(build):
    g = build()
    n = g.order
    rng = random.Random(0)
    planted = []
    for size in (n // 4, 32):
        sub = random_subgroup(g, rng, size)
        a, b = rng.randrange(n), rng.randrange(n)
        left_a = {oracle_mul(g, a, h) for h in sub}
        left_b = {oracle_mul(g, b, h) for h in sub}
        planted += [subset_mask(g, left_a), subset_mask(g, left_a | left_b)]
    planted.append(subset_mask(g, rng.sample(range(n), n // 3)))
    # all but the identity: its stabilizer is {e}
    planted.append(((1 << n) - 1) ^ 1)
    # and the complements of the first four, above half the group
    planted += [((1 << n) - 1) ^ mask for mask in planted[:4]]
    for mask in planted:
        assert stabilizer(g, mask) == oracle_stabilizer(g, mask), subset_elements(mask)
        assert _cayley_stabilizers(g, mask) == oracle_stabilizer_sides(g, mask)
    assert stabilizer(g, planted[5]) == 1


@pytest.mark.parametrize("spec", ("S3", "D4", "Q8"))
def test_cayley_stabilizer_sides_match_oracle_on_every_subset(spec):
    # R and L apart, on sets below, at and above half the group
    g = parse_group(spec)
    for mask in range(1 << g.order):
        right, left = _cayley_stabilizers(g, mask)
        assert (right, left) == oracle_stabilizer_sides(g, mask), subset_elements(mask)
        assert right & left == oracle_stabilizer(g, mask)


SPECTRUM_SHAPES = ("x".join(["Z2"] * 10), "x".join(["Z2"] * 12), "Z2xZ7", "Z2xZ2xZ3",
                   "Z2xZ8xZ2", "x".join(["Z4"] * 5), "Z2xZ512", "Z32xZ32", "Z4096")


@pytest.mark.parametrize("spec", SPECTRUM_SHAPES)
def test_spectrum_is_fftn_bit_for_bit(spec):
    g = parse_group(spec)
    rng = np.random.default_rng(g.order)
    full = (1 << g.order) - 1
    masks = [0, full, 1 << (g.order - 1)]
    masks += [int.from_bytes(rng.bytes(g.order // 8 + 1), "little") & full for _ in range(5)]
    for mask in masks:
        expected = np.fft.fftn(_bits(mask, g.order).astype(float).reshape(g.factors))
        got = _spectrum(g, mask)
        assert got.dtype == expected.dtype == np.complex128
        assert np.array_equal(got.view(np.uint8), expected.reshape(-1).view(np.uint8))
    values = rng.standard_normal(g.order)
    assert np.array_equal(_spectrum_of(g, values).view(np.uint8),
                          np.fft.fftn(values.reshape(g.factors)).reshape(-1).view(np.uint8))


@pytest.mark.parametrize("spec", ("Z65", "x".join(["Z2"] * 7), "Z8xZ16", "Z3xZ27"))
def test_abelian_stabilizer_matches_oracle_above_order_64(spec):
    g = parse_group(spec)
    full = (1 << g.order) - 1
    planted = _planted_cosets_and_unions(g, g.order, 12)
    for mask in planted + [full ^ mask for mask in planted] + [0, full]:
        assert stabilizer(g, mask) == oracle_stabilizer(g, mask), subset_elements(mask)


def test_stabilizer_refuses_a_non_integral_autocorrelation(monkeypatch):
    g = parse_group("x".join(["Z2"] * 7))
    mask = subset_mask(g, range(0, 128, 4))
    spectrum_of = groups._spectrum_of

    def shift_the_second_transform(shift):
        calls = []

        def shifted(group, values):
            calls.append(1)
            return spectrum_of(group, values) + (shift * group.order if len(calls) == 2 else 0)
        monkeypatch.setattr(groups, "_spectrum_of", shifted)

    # the autocorrelation is the second transform over n, so every count
    # moves by the shift: 0.2 still rounds back, 0.3 is refused
    shift_the_second_transform(0.2)
    assert stabilizer(g, mask) == mask
    shift_the_second_transform(0.3)
    with pytest.raises(ArithmeticError, match="away from an integer"):
        stabilizer(g, mask)


@pytest.mark.parametrize("spec", ("Z4096", "Z64xZ64"))
def test_analyze_cosets_at_the_order_cap(spec):
    g = parse_group(spec)
    planted = planted_subsets(g, 0, coset_size=1024, union_size=256, random_size=1366)
    assert sorted(kind for kind, _, _ in planted) == ["coset", "other", "two_cosets",
                                                      "two_cosets"]
    for kind, q, mask in planted:
        analysis = analyze_cosets(g, mask)
        assert (analysis.kind, analysis.q) == (kind, q)


def test_planted_subsets_rejects_an_unreachable_relative_order():
    # the only subgroup of order 256 in Z1024 is <4>, so relative orders over
    # it stop at 4 and q = 8 cannot be planted; the draw must raise, not loop
    with pytest.raises(ValueError, match="relative order 8"):
        planted_subsets(parse_group("Z1024"), 0, coset_size=256, union_size=256,
                        random_size=341)
