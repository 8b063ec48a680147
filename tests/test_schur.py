import itertools
import math

import numpy as np
import pytest

from idemnorm import (
    Gamma2Bounds,
    WitnessPair,
    check_certificate,
    forbidden_pattern,
    gamma2,
    operator_norm,
    orthogonal_witness,
    symmetric_eigenvalues,
    witness_lower_bound,
)
from idemnorm.schur import as_matrix


def test_as_matrix_validation():
    with pytest.raises(ValueError):
        as_matrix(np.zeros((65, 3)))
    with pytest.raises(ValueError):
        as_matrix([[np.inf]])
    with pytest.raises(ValueError):
        as_matrix([1, 2, 3])


def test_operator_norm_examples():
    assert operator_norm(np.eye(3)) == pytest.approx(1.0, abs=1e-12)
    assert operator_norm(orthogonal_witness().matrix) == pytest.approx(1.0, abs=1e-12)
    assert operator_norm(np.ones((3, 3))) == pytest.approx(3.0, abs=1e-12)


def test_operator_norm_matches_svd():
    rng = np.random.RandomState(7)
    for shape in ((4, 4), (3, 5), (6, 2)):
        a = rng.standard_normal(shape)
        assert operator_norm(a) == pytest.approx(np.linalg.norm(a, 2), abs=1e-10)


def test_symmetric_eigenvalues():
    w, _ = symmetric_eigenvalues(np.eye(3))
    np.testing.assert_allclose(w, [1, 1, 1], atol=1e-14)
    w, _ = symmetric_eigenvalues(np.diag([3.0, 1.0, 2.0]))
    np.testing.assert_allclose(w, [1, 2, 3], atol=1e-14)
    w, _ = symmetric_eigenvalues(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(w, [-1, 1], atol=1e-14)
    with pytest.raises(ValueError):
        symmetric_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_symmetric_eigenvalues_reconstruction():
    rng = np.random.RandomState(11)
    a = rng.standard_normal((8, 8))
    m = a + a.T
    w, v = symmetric_eigenvalues(m)
    np.testing.assert_allclose((v * w) @ v.conj().T, m,
                               atol=1e-10 * np.linalg.norm(m, 2))
    c = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    h = c + c.conj().T
    w, v = symmetric_eigenvalues(h)
    np.testing.assert_allclose((v * w) @ v.conj().T, h,
                               atol=1e-10 * np.linalg.norm(h, 2))


def test_forbidden_pattern_entries():
    p = forbidden_pattern()
    assert p[1, 2] == 0.0 and p[2, 1] == 0.0
    assert p[0, 0] == 1.0
    np.testing.assert_array_equal(p, p.T)
    assert p.sum() == 7


def test_orthogonal_witness_structure():
    w = orthogonal_witness()
    assert np.linalg.norm(w.vector) == pytest.approx(1.0, abs=1e-15)
    np.testing.assert_allclose(w.matrix.T @ w.matrix, np.eye(3), atol=1e-15)
    np.testing.assert_allclose(w.vector, [math.sqrt(2) / 2, 0.5, 0.5], atol=1e-15)


def test_witness_lower_bound_golden():
    value = witness_lower_bound(forbidden_pattern(), orthogonal_witness())
    assert value == pytest.approx(math.sqrt(26) / 4, abs=1e-12)
    assert value > (1 + math.sqrt(2)) / 2


def test_witness_lower_bound_weak_example():
    xi = np.zeros(3)
    xi[0] = 1.0
    weak = WitnessPair(np.ones((3, 3)), xi)
    assert witness_lower_bound(forbidden_pattern(), weak) == pytest.approx(
        math.sqrt(3) / 3, abs=1e-12)


def test_witness_lower_bound_never_exceeds_gamma2_on_all_ones():
    ones = np.ones((3, 3))
    for matrix in (np.eye(3), orthogonal_witness().matrix):
        pair = WitnessPair(matrix, np.ones(3))
        assert witness_lower_bound(ones, pair) <= 1.0 + 1e-12


def test_witness_pair_rejects_zero():
    with pytest.raises(ValueError):
        WitnessPair(np.zeros((2, 2)), np.ones(2))
    with pytest.raises(ValueError):
        WitnessPair(np.ones((2, 2)), np.zeros(2))


def test_check_certificate_rank_one():
    ones = np.ones((3, 3))
    assert check_certificate(ones, ones, ones, 1.0, tol=1e-12)
    zero = np.zeros((2, 2))
    assert check_certificate(zero, zero, zero, 0.0, tol=1e-12)


def test_check_certificate_rejects_too_small_level():
    pattern = forbidden_pattern()
    bounds = gamma2(pattern, 1e-3)
    assert not check_certificate(pattern, bounds.certificate.p, bounds.certificate.q,
                                 1.0, tol=1e-6)
    with pytest.raises(ValueError):
        check_certificate(pattern, np.eye(2), np.eye(3), 1.0)


def test_gamma2_pattern_brackets_9_7():
    bounds = gamma2(forbidden_pattern(), 1e-3)
    assert bounds.lower <= 9 / 7 + 1e-9 <= bounds.upper + 1e-9
    assert bounds.upper - bounds.lower <= 1e-3
    assert bounds.lower >= 9 / 7 - 1e-3
    assert check_certificate(forbidden_pattern(), bounds.certificate.p,
                             bounds.certificate.q, bounds.certificate.c, tol=1e-8)
    recomputed = witness_lower_bound(forbidden_pattern(), bounds.witness)
    assert recomputed >= bounds.lower - 1e-12


def test_gamma2_trivial_cases():
    assert gamma2(np.ones((3, 3))).upper == pytest.approx(1.0, abs=1e-6)
    assert gamma2(np.ones((3, 3))).lower == pytest.approx(1.0, abs=1e-6)
    z = gamma2(np.zeros((2, 2)))
    assert z.lower == 0.0 and z.upper == 0.0
    assert gamma2([[0.5]]).upper == pytest.approx(0.5, abs=1e-12)
    ident = gamma2(np.eye(4))
    assert ident.lower == pytest.approx(1.0, abs=1e-9)
    assert ident.upper == pytest.approx(1.0, abs=1e-9)


def test_gamma2_rank_one_exact():
    rng = np.random.RandomState(3)
    u = rng.standard_normal(4)
    v = rng.standard_normal(5)
    a = np.outer(u, v)
    bounds = gamma2(a)
    expected = np.max(np.abs(u)) * np.max(np.abs(v))
    assert bounds.lower == pytest.approx(expected, abs=1e-10)
    assert bounds.upper == pytest.approx(expected, abs=1e-10)
    assert check_certificate(a, bounds.certificate.p, bounds.certificate.q,
                             bounds.certificate.c, tol=1e-9)


def test_gamma2_size_cap():
    with pytest.raises(ValueError):
        gamma2(np.ones((65, 65)))


@pytest.fixture(scope="module")
def random_cases():
    rng = np.random.RandomState(42)
    cases = [forbidden_pattern()]
    for _ in range(4):
        cases.append(rng.randint(0, 2, size=(4, 4)).astype(float))
    for _ in range(2):
        cases.append(rng.randint(0, 2, size=(6, 5)).astype(float))
    return [(a, gamma2(a, 1e-3)) for a in cases]


def test_gamma2_bracket_and_verification(random_cases):
    for a, bounds in random_cases:
        assert bounds.lower <= bounds.upper + 1e-12
        assert bounds.upper - bounds.lower <= 1e-3
        assert check_certificate(a, bounds.certificate.p, bounds.certificate.q,
                                 bounds.certificate.c, tol=1e-8)
        assert witness_lower_bound(a, bounds.witness) >= bounds.lower - 1e-12
        assert bounds.lower >= np.max(np.abs(a)) - 1e-12


def test_gamma2_permutation_invariance(random_cases):
    rng = np.random.RandomState(5)
    for a, bounds in random_cases[:3]:
        rows = rng.permutation(a.shape[0])
        cols = rng.permutation(a.shape[1])
        other = gamma2(a[np.ix_(rows, cols)], 1e-3)
        assert other.lower <= bounds.upper + 2e-3
        assert bounds.lower <= other.upper + 2e-3


def test_gamma2_unit_scaling_invariance():
    a = forbidden_pattern()
    base = gamma2(a, 1e-3)
    signs = np.diag([1.0, -1.0, 1.0])
    flipped = gamma2(signs @ a @ np.diag([-1.0, 1.0, 1.0]), 1e-3)
    assert flipped.lower <= base.upper + 2e-3
    assert base.lower <= flipped.upper + 2e-3
    phases = np.diag(np.exp(1j * np.array([0.3, 1.1, -0.7])))
    rotated = gamma2(phases @ a.astype(complex), 1e-3)
    assert rotated.lower <= base.upper + 2e-3
    assert base.lower <= rotated.upper + 2e-3


def test_gamma2_compression_monotonicity():
    rng = np.random.RandomState(9)
    a = rng.randint(0, 2, size=(5, 5)).astype(float)
    whole = gamma2(a, 1e-3)
    for k in (2, 3, 4):
        for rows in itertools.combinations(range(5), k):
            sub = gamma2(a[np.ix_(rows, rows)], 1e-3)
            assert sub.lower <= whole.upper + 2e-3
    # non-principal compressions of a smaller seeded matrix, all shapes
    b = rng.randint(0, 2, size=(4, 4)).astype(float)
    whole_b = gamma2(b, 1e-3)
    for nrows in (1, 2, 3):
        for ncols in (1, 2, 3):
            for rows in itertools.combinations(range(4), nrows):
                for cols in itertools.combinations(range(4), ncols):
                    sub = gamma2(b[np.ix_(rows, cols)], 1e-3)
                    assert sub.lower <= whole_b.upper + 2e-3


def test_gamma2_unit_scaling_invariance_random():
    rng = np.random.RandomState(17)
    a = rng.randint(0, 2, size=(4, 4)).astype(float)
    base = gamma2(a, 1e-3)
    left = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 4)))
    right = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 4)))
    scaled = gamma2(left @ a.astype(complex) @ right, 1e-3)
    assert scaled.lower <= base.upper + 2e-3
    assert base.lower <= scaled.upper + 2e-3


def test_gamma2_pattern_witness_below_upper():
    bounds = gamma2(forbidden_pattern(), 1e-3)
    fixed = witness_lower_bound(forbidden_pattern(), orthogonal_witness())
    assert fixed <= bounds.upper + 2e-3


def test_gamma2_complex_entries():
    # [[1, 1], [1, e^{i t}]] has Schur norm cos(t/4) + sin(t/4); at t = pi/2
    # the solver must land on cos(pi/8) + sin(pi/8) from both sides
    a = np.array([[1.0, 1.0j], [1.0, 1.0]])
    bounds = gamma2(a, 1e-3)
    expected = math.cos(math.pi / 8) + math.sin(math.pi / 8)
    assert bounds.lower == pytest.approx(expected, abs=1e-3)
    assert bounds.upper == pytest.approx(expected, abs=1e-3)
    assert check_certificate(a, bounds.certificate.p, bounds.certificate.q,
                             bounds.certificate.c, tol=1e-8)


def test_gamma2_bounds_round_trip():
    bounds = gamma2(forbidden_pattern(), 1e-3)
    back = Gamma2Bounds.from_dict(bounds.to_dict())
    assert back.lower == bounds.lower and back.upper == bounds.upper
    np.testing.assert_allclose(back.certificate.p, bounds.certificate.p, atol=0)
    np.testing.assert_allclose(back.witness.matrix, bounds.witness.matrix, atol=0)
    assert check_certificate(forbidden_pattern(), back.certificate.p,
                             back.certificate.q, back.certificate.c, tol=1e-8)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0, 0.1])
def test_gamma2_rejects_bad_tolerance(tol):
    with pytest.raises(ValueError):
        gamma2(forbidden_pattern(), tol)
