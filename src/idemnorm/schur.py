"""Two-sided Schur-multiplier (gamma2) norm bounds.

The Schur norm of a matrix A is sup ||A o X|| / ||X|| over nonzero X (entrywise
product, operator norms).  It equals the smallest c admitting Hermitian P, Q
with [[P, A], [A*, Q]] positive semidefinite and all diagonal entries <= c,
and, by duality, the largest nuclear norm ||D_p^1/2 A D_q^1/2||_S1 over
diagonal weights p, q in the simplices.  gamma2() runs a multiplicative fixed
point on those weights, one eigh per step, with a floor that keeps every
weight positive and safeguarded Anderson mixing of the log-weights, so that
weights vanishing at the optimum do not slow it down.  It turns a step into
both proofs: an upper bound certified by such a (P, Q, c) triple, built from
one set of Gram vectors for all rows and columns, and a lower bound realized
by an explicit witness pair (X, xi) through witness_lower_bound, so every
reported bracket can be re-verified independently of the solver.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

MAX_MATRIX_DIM = 64
MAX_TOL = 0.1
# largest |entry| gamma2 takes: its blocks and eigenproblems reach about
# 2^11 max|a| at the 64 x 64 cap, which stays finite below 2^1024
MAX_ENTRY = 2.0 ** 1000

_HERMITIAN_RTOL = 1e-12


def validate_tol(tol: float) -> float:
    """A tolerance as a float, or ValueError unless it is finite with
    0 <= tol < MAX_TOL.  NaN must not get through: every comparison with it
    is false, so a NaN tolerance would pass every check it guards."""
    tol = float(tol)
    if not 0.0 <= tol < MAX_TOL:  # also rejects NaN and inf
        raise ValueError(f"tolerance must be finite with 0 <= tol < {MAX_TOL}, got {tol!r}")
    return tol


def as_matrix(data, max_dim: int = MAX_MATRIX_DIM) -> np.ndarray:
    """Coerce to a 2-D float/complex array, enforcing finiteness and the size cap."""
    a = np.asarray(data)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"expected a nonempty 2-D matrix, got shape {a.shape}")
    if a.shape[0] > max_dim or a.shape[1] > max_dim:
        raise ValueError(f"matrix shape {a.shape} exceeds the {max_dim}x{max_dim} cap")
    a = a.astype(complex) if np.iscomplexobj(a) else a.astype(float)
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def symmetric_eigenvalues(m, max_dim: int = MAX_MATRIX_DIM) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a Hermitian matrix."""
    m = as_matrix(m, max_dim=max_dim)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    scale = max(1.0, float(np.max(np.abs(m))))
    if np.max(np.abs(m - m.conj().T)) > _HERMITIAN_RTOL * scale:
        raise ValueError("matrix is not Hermitian")
    w, v = np.linalg.eigh((m + m.conj().T) / 2)
    return w, v


def _binary_exponent(x: np.ndarray) -> int:
    """The exponent e with 2^(e-1) <= max|x| < 2^e (0 for x = 0): 2^-e x
    has entries of order 1, and scaling by a power of two is exact."""
    return max(math.frexp(float(np.max(np.abs(x))))[1], -1000)  # 2^1000 is still finite


def operator_norm(x) -> float:
    """Largest singular value, via the symmetric eigenproblem for X* X.

    X is first scaled by the power of two nearest 1 / max|x|, so the Gram
    matrix neither overflows nor underflows; scaling by a power of two is
    exact, so the value does not depend on it."""
    x = as_matrix(x)
    exponent = _binary_exponent(x)
    x = x * math.ldexp(1.0, -exponent)
    gram = x.conj().T @ x if x.shape[0] >= x.shape[1] else x @ x.conj().T
    w, _ = symmetric_eigenvalues(gram)
    return math.ldexp(float(np.sqrt(max(0.0, float(w[-1])))), exponent)


def forbidden_pattern() -> np.ndarray:
    """The 3x3 zero-one pattern whose Schur norm is 9/7; any matrix containing
    it as a submatrix has Schur norm at least 9/7 > (1 + sqrt 2)/2."""
    return np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 0.0], [1.0, 0.0, 1.0]])


@dataclass(frozen=True)
class WitnessPair:
    """A test matrix and vector; ||(A o X) xi|| / (||X|| ||xi||) never exceeds
    the Schur norm of A, so any pair is a self-verifying lower bound."""

    matrix: np.ndarray
    vector: np.ndarray

    def __post_init__(self):
        x = as_matrix(self.matrix)
        xi = np.asarray(self.vector).reshape(-1)
        if not np.any(x):
            raise ValueError("witness matrix must be nonzero")
        if xi.size != x.shape[1] or not np.any(xi):
            raise ValueError("witness vector must be nonzero with matching length")
        object.__setattr__(self, "matrix", x)
        object.__setattr__(self, "vector", xi.astype(complex))

    def to_dict(self) -> dict:
        return {"matrix": _matrix_to_lists(self.matrix),
                "vector": _matrix_to_lists(self.vector.reshape(1, -1))[0]}

    @staticmethod
    def from_dict(data: dict) -> "WitnessPair":
        return WitnessPair(_lists_to_matrix(data["matrix"]),
                           np.array(_lists_to_matrix([data["vector"]]))[0])


def orthogonal_witness() -> WitnessPair:
    """The fixed orthogonal-matrix witness for the forbidden pattern: it
    certifies a Schur-norm lower bound of sqrt(26)/4 by direct evaluation."""
    u = 0.5 * np.array([
        [0.0, np.sqrt(2.0), np.sqrt(2.0)],
        [np.sqrt(2.0), 1.0, -1.0],
        [np.sqrt(2.0), -1.0, 1.0],
    ])
    xi = 0.5 * np.array([np.sqrt(2.0), 1.0, 1.0])
    return WitnessPair(u, xi)


def witness_lower_bound(a, witness: WitnessPair) -> float:
    """||(A o X) xi|| / (||X||_op ||xi||): a guaranteed Schur-norm lower bound.

    A is first scaled by the power of two nearest 1 / max|a|, as in
    operator_norm, so the value neither overflows nor underflows."""
    a = as_matrix(a)
    x = witness.matrix
    if a.shape != x.shape:
        raise ValueError(f"witness shape {x.shape} does not match matrix {a.shape}")
    exponent = _binary_exponent(a)
    numerator = float(np.linalg.norm((a * math.ldexp(1.0, -exponent) * x) @ witness.vector))
    denominator = operator_norm(x) * float(np.linalg.norm(witness.vector))
    return math.ldexp(numerator / denominator, exponent)


@dataclass(frozen=True)
class Certificate:
    """Hermitian blocks P, Q and a level c; valid iff [[P, A], [A*, Q]] is PSD
    (within tol) with diagonals <= c + tol, proving Schur norm <= c + O(tol)."""

    p: np.ndarray
    q: np.ndarray
    c: float

    def to_dict(self) -> dict:
        return {"p": _matrix_to_lists(self.p), "q": _matrix_to_lists(self.q), "c": self.c}

    @staticmethod
    def from_dict(data: dict) -> "Certificate":
        return Certificate(_lists_to_matrix(data["p"]), _lists_to_matrix(data["q"]),
                           float(data["c"]))


def check_certificate(a, p, q, c: float, tol: float = 1e-9) -> bool:
    """Validate an upper-bound certificate for the Schur norm of A."""
    a = as_matrix(a)
    p = as_matrix(p)
    q = as_matrix(q)
    m, n = a.shape
    if p.shape != (m, m) or q.shape != (n, n):
        raise ValueError(f"certificate blocks {p.shape}/{q.shape} do not fit matrix {a.shape}")
    diag_ok = (np.max(np.real(np.diag(p))) <= c + tol
               and np.max(np.real(np.diag(q))) <= c + tol)
    if not diag_ok:
        return False
    block = np.block([[p, a], [a.conj().T, q]])
    w, _ = symmetric_eigenvalues(block, max_dim=2 * MAX_MATRIX_DIM)
    return bool(w[0] >= -tol)


class Gamma2ConvergenceError(RuntimeError):
    """Raised when STEP_CAP fixed-point steps do not close the bracket;
    carries the certified bounds."""

    def __init__(self, lower: float, upper: float, message: str = ""):
        super().__init__(message or f"gamma2 did not converge: bracket [{lower}, {upper}]")
        self.lower = lower
        self.upper = upper


@dataclass(frozen=True)
class Gamma2Bounds:
    """Two-sided Schur-norm bounds with their verification data."""

    lower: float
    upper: float
    certificate: Certificate
    witness: WitnessPair

    def to_dict(self) -> dict:
        return {"lower": self.lower, "upper": self.upper,
                "certificate": self.certificate.to_dict(),
                "witness": self.witness.to_dict()}

    @staticmethod
    def from_dict(data: dict) -> "Gamma2Bounds":
        return Gamma2Bounds(float(data["lower"]), float(data["upper"]),
                            Certificate.from_dict(data["certificate"]),
                            WitnessPair.from_dict(data["witness"]))


def _matrix_to_lists(m: np.ndarray) -> list:
    if np.iscomplexobj(m):
        return [[[float(z.real), float(z.imag)] for z in row] for row in m]
    return [[float(x) for x in row] for row in np.asarray(m, dtype=float)]


def _lists_to_matrix(rows) -> np.ndarray:
    arr = np.asarray(rows)
    if arr.ndim == 3:  # [re, im] pairs
        return arr[..., 0] + 1j * arr[..., 1]
    return arr.astype(float)


# -- certificates and witnesses ------------------------------------------------------

def _certify_blocks(a: np.ndarray, p: np.ndarray, q: np.ndarray) -> tuple[float, Certificate]:
    """Certified level of the diagonal blocks p, q of a completion of a."""
    p = (p + p.conj().T) / 2
    q = (q + q.conj().T) / 2
    block = np.block([[p, a], [a.conj().T, q]])
    w = np.linalg.eigvalsh((block + block.conj().T) / 2)
    slack = max(0.0, -float(w[0]))
    diag_max = max(float(np.max(np.real(np.diag(p)))), float(np.max(np.real(np.diag(q)))))
    # shift the blocks by the eigenvalue deficit so the stored certificate is
    # PSD on the nose and proves the level it carries
    level = diag_max + slack
    p_shift = p + slack * np.eye(p.shape[0], dtype=p.dtype)
    q_shift = q + slack * np.eye(q.shape[0], dtype=q.dtype)
    return level, Certificate(p=p_shift, q=q_shift, c=level)


def _entry_witness(a: np.ndarray) -> WitnessPair:
    """X = e_ij at a largest entry and xi = e_j: it proves gamma2 >= max|a_ij|,
    the exact value for the zero matrix and for rank-one matrices."""
    i, j = np.unravel_index(int(np.argmax(np.abs(a))), a.shape)
    x = np.zeros(a.shape)
    x[i, j] = 1.0
    return WitnessPair(x, x[i])


# -- the diagonal-weight fixed point ---------------------------------------------------

STEP_CAP = 3000  # fixed-point steps (one eigh each) one gamma2 call may take
ANDERSON_DEPTH = 6  # differences of past steps the weight update mixes in
_RANK_RTOL = 1e-14  # singular values below this fraction of the largest are dropped


def _row_norms(x: np.ndarray) -> np.ndarray:
    return np.sum(np.abs(x) ** 2, axis=1)


def _balanced(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x t and y / t with equal largest squared row norm."""
    t = (float(np.max(_row_norms(y))) / float(np.max(_row_norms(x)))) ** 0.25
    return x * t, y / t


def _gap(tol: float, value: float) -> float:
    """The bracket width the stop rule accepts at value: tol * min(1, value),
    and for tol > 0 at least 16 ulps of value, which rounding alone can leave
    open once the absolute gap drops below them (about 1e12 at tol 1e-3)."""
    return max(tol * min(1.0, value), 16.0 * math.ulp(value)) if tol else 0.0


def _floored(log_weights: np.ndarray, delta: float) -> np.ndarray:
    """The point of the simplex with these log-weights, up to a constant,
    mixed with the floor as in the plain update."""
    weights = np.exp(log_weights - np.max(log_weights))
    return (1.0 - delta) * weights / np.sum(weights) + delta / weights.size


# -- main entry --------------------------------------------------------------------

def gamma2(a, tol: float = 1e-3) -> Gamma2Bounds:
    """Two-sided Schur-norm bounds with upper - lower <= tol * min(1, upper):
    an absolute gap for norms of 1 or more, a relative one below.  For
    tol > 0 the gap is at least 16 ulps of upper, which rounding alone can
    leave open above about 1e12 at tol 1e-3; tol = 0 asks for an exact bracket.

    The solver is a multiplicative fixed point on the diagonal weights of the
    dual gamma2(A) = max over p, q in the simplices of ||D_p^1/2 A D_q^1/2||_S1
    (Linial-Shraibman 2009), run on b = A / max|a| from uniform weights.  Each
    step is one eigh of the Hermitian dilation [[0, B], [B*, 0]] of
    B = D_p^1/2 b D_q^1/2 = U Sigma V*, whose positive eigenpairs are
    (sigma_k, [u_k; v_k] / sqrt 2).  With f = sum(sigma) the step's value,
    rows = diag(U Sigma U*) and cols = diag(V Sigma V*), the next weights are

        p = (1 - delta) rows / f + delta / m,   q likewise with cols and n,

    with delta = max(gap / (4 best), machine eps).  The floor delta / m keeps
    every weight away from 0, so the Gram vectors below are accurate on every
    row and column, and at a fixed point they certify at most f / (1 - delta),
    within a quarter of the gap above f.

    This plain update converges sublinearly where an optimal weight tends to
    0 slowly, so the weights tried are Anderson-mixed (Walker-Ni 2011).  With
    x = (log p, log q), g(x) the log of the plain update and r = g(x) - x,
    the last ANDERSON_DEPTH differences dR, dG of accepted steps give

        gamma = argmin || W (r - dR gamma) ||,   x+ = g(x) - dG gamma,

    where W = diag(sqrt(p), sqrt(q)) weighs the fit in the Fisher-Rao metric
    of the simplices, so that weights at the floor do not steer it; x+ is
    mapped back by exp, normalized on each simplex and floored as above.  A
    safeguard keeps the mixing from wandering: a mixed point whose f falls
    below the last accepted point's is dropped with the history, and the
    plain update of that point is taken instead, whatever its value.

    A step whose Gram vectors promise a closed bracket, and the last step
    allowed, is turned into both proofs:

      * upper: Y = D_q^-1/2 V Sigma^1/2 and X, by least squares, with
        X Y* = b; balanced, their blocks XX* and YY* are re-certified from
        their eigenvalues by _certify_blocks, so the level never depends on
        the solver;
      * lower: the witness pair (conj(U V*), sqrt(q)), evaluated by
        witness_lower_bound, whose value is at least max|a| f.  The entry
        witness at the largest |a_ij| gives the first lower bound, exact for
        zero and rank-one matrices.

    Raises ValueError for a tolerance outside [0, MAX_TOL) or an entry whose
    real or imaginary part exceeds MAX_ENTRY, and Gamma2ConvergenceError,
    carrying the certified bracket, when STEP_CAP steps do not close the gap.
    """
    a = as_matrix(a)
    tol = validate_tol(tol)
    # real and imaginary parts, because |a_ij| itself can overflow
    largest = float(np.max(np.abs(a.view(float))))
    if largest > MAX_ENTRY:
        raise ValueError(f"matrix entries reach {largest:.3e}, above the {MAX_ENTRY:.3e} "
                         "(2^1000) that gamma2 takes; divide the matrix by a constant, "
                         "which divides its norm by the same constant")
    witness = _entry_witness(a)
    lower = witness_lower_bound(a, witness)
    scale = float(np.max(np.abs(a)))
    if scale == 0.0:
        m, n = a.shape
        zero = Certificate(p=np.zeros((m, m)), q=np.zeros((n, n)), c=0.0)
        return Gamma2Bounds(lower=0.0, upper=0.0, certificate=zero, witness=witness)
    b = a / scale
    m, n = b.shape
    p, q = np.full(m, 1.0 / m), np.full(n, 1.0 / n)
    dilation = np.zeros((m + n, m + n), dtype=b.dtype)
    upper, certificate = math.inf, None
    accepted = None  # (value, residual, image, plain update) of the last accepted point
    history = deque(maxlen=ANDERSON_DEPTH)  # differences of residuals and images
    for step in range(STEP_CAP):
        half = np.sqrt(p)[:, None] * b * np.sqrt(q)
        dilation[:m, m:] = half
        dilation[m:, :m] = half.conj().T
        w, vectors = np.linalg.eigh(dilation)
        keep = w > _RANK_RTOL * w[-1]
        root = np.sqrt(w[keep])
        u, v = np.sqrt(2.0) * vectors[:m, keep], np.sqrt(2.0) * vectors[m:, keep]
        rows, cols = _row_norms(u * root), _row_norms(v * root)
        value = float(np.sum(w[keep]))
        best = max(lower, scale * value)
        gap = _gap(tol, best)
        promise = scale * math.sqrt(np.max(rows / p) * np.max(cols / q)) - best
        if promise <= gap or step == STEP_CAP - 1:
            y = v * root / np.sqrt(q)[:, None]
            x = np.linalg.lstsq(y.conj(), b.T, rcond=None)[0].T
            x, y = _balanced(x, y)
            level, cert = _certify_blocks(a, scale * (x @ x.conj().T), scale * (y @ y.conj().T))
            pair = WitnessPair((u @ v.conj().T).conj(), np.sqrt(q))
            witnessed = witness_lower_bound(a, pair)
            if level < upper:
                upper, certificate = level, cert
            if witnessed > lower:
                lower, witness = witnessed, pair
            if upper - lower <= _gap(tol, upper):
                break
        if history and value < accepted[0]:
            # the mixed point lost value: drop it and the history, and take
            # the plain update of the last accepted point
            history.clear()
            p, q = accepted[3]
            accepted = None
            continue
        delta = max(gap / (4.0 * best), np.finfo(float).eps)
        plain = ((1.0 - delta) * rows / np.sum(rows) + delta / m,
                 (1.0 - delta) * cols / np.sum(cols) + delta / n)
        point = np.concatenate((p, q))
        image = np.log(np.concatenate(plain))
        residual = image - np.log(point)
        if accepted is not None:
            history.append((residual - accepted[1], image - accepted[2]))
        accepted = (value, residual, image, plain)
        if history:
            # the fit in the Fisher-Rao metric, sum w (d log w)^2: weights
            # near the floor would otherwise dominate it
            d_residual, d_image = (np.column_stack(d) for d in zip(*history))
            metric = np.sqrt(point)
            mixed = image - d_image @ np.linalg.lstsq(d_residual * metric[:, None],
                                                      residual * metric, rcond=None)[0]
            p, q = _floored(mixed[:m], delta), _floored(mixed[m:], delta)
        else:
            p, q = plain
    else:
        raise Gamma2ConvergenceError(lower, upper)
    if lower > upper:
        if lower - upper > 1e-9 * max(1.0, upper):
            raise Gamma2ConvergenceError(lower, upper, "witness crossed the certified upper bound")
        upper = lower  # rounding only: the witness value stays exact
    return Gamma2Bounds(lower=lower, upper=upper, certificate=certificate, witness=witness)
