import itertools
import math

import numpy as np
import pytest

from idemnorm import (
    Gamma2Bounds,
    Gamma2ConvergenceError,
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


@pytest.mark.filterwarnings("error")
def test_operator_norm_is_scale_safe():
    # the Gram matrix of 1e200 I overflows unless X is scaled first
    assert operator_norm(1e200 * np.eye(3)) == pytest.approx(1e200, rel=1e-12)
    assert operator_norm(1e-200 * np.ones((2, 3))) == pytest.approx(
        math.sqrt(6) * 1e-200, rel=1e-12)
    assert operator_norm(np.zeros((2, 2))) == 0.0


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


@pytest.mark.filterwarnings("error")
def test_witness_lower_bound_is_scale_safe():
    # ||(A o X) xi|| overflows for A = 1e200 F0 unless A is scaled first
    assert witness_lower_bound(1e200 * forbidden_pattern(), orthogonal_witness()) == \
        pytest.approx(math.sqrt(26) / 4 * 1e200, rel=1e-12)


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


def test_check_certificate_takes_blocks_above_64():
    # the (m + n) x (m + n) block of a 40 x 40 matrix is 80 x 80
    ones = np.ones((40, 40))
    bounds = gamma2(ones)
    assert check_certificate(ones, bounds.certificate.p, bounds.certificate.q,
                             bounds.certificate.c, tol=1e-9)
    assert bounds.upper == pytest.approx(1.0, abs=1e-9)


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


def test_gamma2_honors_tight_tolerance():
    pattern = forbidden_pattern()
    bounds = gamma2(pattern, 1e-8)
    assert bounds.lower <= 9 / 7 <= bounds.upper
    assert bounds.upper - bounds.lower <= 1e-8
    assert check_certificate(pattern, bounds.certificate.p, bounds.certificate.q,
                             bounds.certificate.c, tol=1e-9)
    assert witness_lower_bound(pattern, bounds.witness) == pytest.approx(bounds.lower,
                                                                         rel=1e-12)


@pytest.mark.filterwarnings("error")
def test_gamma2_trivial_cases():
    assert gamma2(np.ones((3, 3))).upper == pytest.approx(1.0, abs=1e-6)
    assert gamma2(np.ones((3, 3))).lower == pytest.approx(1.0, abs=1e-6)
    z = gamma2(np.zeros((2, 2)))
    assert z.lower == 0.0 and z.upper == 0.0
    assert gamma2([[0.5]]).upper == pytest.approx(0.5, abs=1e-12)
    ident = gamma2(np.eye(4))
    assert ident.lower == pytest.approx(1.0, abs=1e-9)
    assert ident.upper == pytest.approx(1.0, abs=1e-9)
    # a zero row drives its weight to the floor: at tol 0 the floor is the
    # machine epsilon alone, and no step may divide by a vanished weight
    a = np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 0.0], [3.0, -1.0, 1.0]])
    try:
        bounds = gamma2(a, 0.0)
    except Gamma2ConvergenceError as exc:
        assert math.isfinite(exc.lower) and math.isfinite(exc.upper)
        assert 3.0 <= exc.lower <= exc.upper
    else:
        assert bounds.lower == 3.0 and bounds.upper == 3.0


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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("a", [
    1e308 * forbidden_pattern(),
    np.full((3, 3), 1.7e308),
    2.0 ** 1001 * np.eye(2),
    np.array([[1.0, 1.5e308j], [0.0, 1.0]]),
], ids=["f0_1e308", "literal_1.7e308", "eye_2^1001", "complex_1.5e308"])
def test_gamma2_rejects_badly_scaled_input(a):
    # its blocks and eigenproblems would overflow; the message names the scale
    with pytest.raises(ValueError, match=r"entries reach .*2\^1000"):
        gamma2(a)


@pytest.mark.filterwarnings("error")
def test_gamma2_takes_entries_up_to_the_bound():
    # 1e300 F0 is inside the bound: the bracket is tight relative to the
    # norm, whether the call closes or ends at the step cap, and no
    # intermediate overflows
    for a in (1e300 * forbidden_pattern(), 2.0 ** 1000 * np.eye(2)):
        try:
            bounds = gamma2(a)
            lower, upper = bounds.lower, bounds.upper
        except Gamma2ConvergenceError as exc:
            lower, upper = exc.lower, exc.upper
        assert math.isfinite(upper)
        assert upper - lower <= 1e-12 * upper


SCALES = (1e-200, 1e-170, 1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("a", [forbidden_pattern(),
                               np.random.RandomState(12).standard_normal((12, 12))],
                         ids=["f0", "gaussian12"])
def test_gamma2_is_scale_equivariant(a):
    tol = 1e-3
    base = gamma2(a, tol)
    for c in SCALES:
        bounds = gamma2(c * a, tol)
        lower, upper = bounds.lower / c, bounds.upper / c
        # the stop rule, upper - lower <= tol * min(1, upper), in units of c
        assert upper - lower <= tol * min(1 / c, upper) * (1 + 1e-9)
        assert lower <= base.upper + tol and base.lower - tol <= upper
        assert witness_lower_bound(c * a, bounds.witness) == pytest.approx(bounds.lower,
                                                                           rel=1e-9)


def test_gamma2_eigh_budget(monkeypatch):
    # every fixed-point step is one numpy.linalg.eigh call; a call at the
    # default tolerance stays under a tenth of the benchmark's per-call budget
    calls = []
    eigh = np.linalg.eigh

    def counted(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    rng = np.random.RandomState(23)
    for n in range(4, 13):
        for _ in range(3):
            a = rng.standard_normal((n, n))
            calls.clear()
            bounds = gamma2(a, 1e-3)
            assert 0 < len(calls) < 1000
            assert bounds.upper - bounds.lower <= 1e-3


def test_gamma2_certifies_optima_with_zero_weights():
    # on small Gaussians the optimal weights often vanish on some rows and
    # columns; the certificate must still close a tight gap there
    for n in range(4, 10):
        for seed in range(6):
            a = np.random.RandomState(seed).standard_normal((n, n))
            bounds = gamma2(a, 1e-6)
            assert bounds.upper - bounds.lower <= 1e-6
            assert check_certificate(a, bounds.certificate.p, bounds.certificate.q,
                                     bounds.certificate.c, tol=1e-8)


def test_gamma2_step_cap_reports_a_tight_bracket():
    # this Gaussian's optimal weights vanish slowly; a call that runs out of
    # steps must still report the bracket of its last steps, not a loose one
    a = np.random.RandomState(500).standard_normal((5, 5))
    reference = gamma2(a, 1e-6)
    try:
        bounds = gamma2(a, 1e-9)
    except Gamma2ConvergenceError as exc:
        assert exc.upper - exc.lower <= 1e-6
        assert exc.lower <= reference.upper and reference.lower <= exc.upper
    else:
        assert bounds.upper - bounds.lower <= 1e-9


def test_gamma2_least_squares_closes_tight_gaps():
    # X by least squares against Y closes this Gaussian at 1e-9 in a few
    # hundred steps; X = D_p^-1/2 U Sigma^1/2, read off the step, loses the
    # rows of small weight to rounding and runs into the step cap
    a = np.random.RandomState(1101).standard_normal((11, 11))
    bounds = gamma2(a, 1e-9)
    assert bounds.upper - bounds.lower <= 1e-9
    assert check_certificate(a, bounds.certificate.p, bounds.certificate.q,
                             bounds.certificate.c, tol=1e-8)


@pytest.fixture
def eigh_calls(monkeypatch):
    """A list that grows by one entry per numpy.linalg.eigh call."""
    calls = []
    eigh = np.linalg.eigh

    def counted(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("c", [1e13, 1e200])
def test_gamma2_closes_where_rounding_exceeds_the_gap(c):
    # at 1e-3 the absolute gap is below the rounding of a norm above about
    # 1e12, so the stop rule accepts 16 ulps there instead of running to the cap
    a = c * forbidden_pattern()
    bounds = gamma2(a)
    assert bounds.upper - bounds.lower <= 16 * math.ulp(bounds.upper)
    assert bounds.lower == pytest.approx(9 / 7 * c, rel=1e-14)
    assert bounds.upper == pytest.approx(9 / 7 * c, rel=1e-14)
    assert witness_lower_bound(a, bounds.witness) == bounds.lower


TAIL_GAUSSIANS = [np.random.RandomState(100 * n + s).standard_normal((n, n))
                  for n in range(4, 13) for s in range(3)]
TAIL_GAUSSIANS.append(np.random.RandomState(500).standard_normal((5, 5)))


def test_gamma2_closes_the_sublinear_tail(eigh_calls):
    # optimal weights that vanish slowly make the plain fixed point sublinear:
    # on these it needs up to 1,125 eigh calls at 1e-6, and 18,213 in all at
    # 1e-9, where two reach the step cap; the mixed weights close every one
    tight = 0
    for a in TAIL_GAUSSIANS:
        eigh_calls.clear()
        bounds = gamma2(a, 1e-6)
        assert len(eigh_calls) <= 600
        assert bounds.upper - bounds.lower <= 1e-6
        eigh_calls.clear()
        bounds = gamma2(a, 1e-9)
        tight += len(eigh_calls)
        assert bounds.upper - bounds.lower <= 1e-9
        assert check_certificate(a, bounds.certificate.p, bounds.certificate.q,
                                 bounds.certificate.c, tol=1e-8)
        assert witness_lower_bound(a, bounds.witness) == pytest.approx(bounds.lower, rel=1e-12)
    assert tight <= 3000


@pytest.mark.parametrize("kind", ["zero-one", "sign", "gaussian"])
def test_gamma2_steps_are_equivariant(kind, eigh_calls):
    # a permuted or transposed copy takes exactly as many steps to the same
    # upper end; the witness vector is the square root of the column weights,
    # so a transposed copy's lower end comes from a different witness
    rng = np.random.RandomState(0)
    a = {"zero-one": lambda: rng.randint(0, 2, size=(8, 8)).astype(float),
         "sign": lambda: rng.choice([-1.0, 1.0], size=(8, 8)),
         "gaussian": lambda: rng.standard_normal((8, 8))}[kind]()
    rows, cols = rng.permutation(8), rng.permutation(8)
    eigh_calls.clear()
    base = gamma2(a, 1e-3)
    steps = len(eigh_calls)
    for copy, transposed in ((a[rows], False), (a[:, cols], False), (a.T, True)):
        eigh_calls.clear()
        other = gamma2(copy, 1e-3)
        assert len(eigh_calls) == steps
        assert other.upper == pytest.approx(base.upper, rel=1e-12)
        if transposed:
            assert base.upper - 1e-3 <= other.lower <= base.upper
        else:
            assert other.lower == pytest.approx(base.lower, rel=1e-12)
