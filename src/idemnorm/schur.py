"""Two-sided Schur-multiplier (gamma2) norm bounds.

The Schur norm of a matrix A is sup ||A o X|| / ||X|| over nonzero X (entrywise
product, operator norms).  It equals the smallest c admitting Hermitian P, Q
with [[P, A], [A*, Q]] positive semidefinite and all diagonal entries <= c.
gamma2() exploits both sides: the upper bound is certified by such a (P, Q, c)
triple found by bisection with alternating projections, and the lower bound is
realized by an explicit witness pair (X, xi) through witness_lower_bound, so
every reported bracket can be re-verified independently of the solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

MAX_MATRIX_DIM = 64
MAX_TOL = 0.1

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


def symmetric_eigenvalues(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a Hermitian matrix."""
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    scale = max(1.0, float(np.max(np.abs(m))))
    if np.max(np.abs(m - m.conj().T)) > _HERMITIAN_RTOL * scale:
        raise ValueError("matrix is not Hermitian")
    w, v = np.linalg.eigh((m + m.conj().T) / 2)
    return w, v


def operator_norm(x) -> float:
    """Largest singular value, via the symmetric eigenproblem for X* X."""
    x = as_matrix(x)
    gram = x.conj().T @ x if x.shape[0] >= x.shape[1] else x @ x.conj().T
    w, _ = symmetric_eigenvalues(gram)
    return float(np.sqrt(max(0.0, float(w[-1]))))


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
    """||(A o X) xi|| / (||X||_op ||xi||): a guaranteed Schur-norm lower bound."""
    a = as_matrix(a)
    x = witness.matrix
    if a.shape != x.shape:
        raise ValueError(f"witness shape {x.shape} does not match matrix {a.shape}")
    numerator = float(np.linalg.norm((a * x) @ witness.vector))
    denominator = operator_norm(x) * float(np.linalg.norm(witness.vector))
    return numerator / denominator


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
    w, _ = symmetric_eigenvalues(block)
    return bool(w[0] >= -tol)


class Gamma2ConvergenceError(RuntimeError):
    """Raised when the bisection cannot close the bracket; carries the bounds."""

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


# -- alternating projections ---------------------------------------------------

def _project_psd(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh((m + m.conj().T) / 2)
    w = np.clip(w, 0.0, None)
    return (v * w) @ v.conj().T


def _project_affine(m: np.ndarray, a: np.ndarray, c: float) -> np.ndarray:
    rows = a.shape[0]
    out = (m + m.conj().T) / 2
    out[:rows, rows:] = a
    out[rows:, :rows] = a.conj().T
    np.fill_diagonal(out, c)
    return out


def _alternating_projections(a: np.ndarray, c: float, start: Optional[np.ndarray],
                             cap: int, feas_eps: float):
    """Returns (status, affine_iterate, iterations); status in feasible /
    infeasible / undecided.  The affine iterate always has exact A blocks and
    diagonal exactly c, so certificates derived from it are sound regardless
    of the status call."""
    size = a.shape[0] + a.shape[1]
    dtype = complex if np.iscomplexobj(a) else float
    if start is None:
        m = np.zeros((size, size), dtype=dtype)
    else:
        m = start.astype(dtype, copy=True)
    m = _project_affine(m, a, c)
    history: list[float] = []
    for k in range(cap):
        psd = _project_psd(m)
        m = _project_affine(psd, a, c)
        residual = float(np.linalg.norm(psd - m))
        if residual <= feas_eps:
            return "feasible", m, k + 1
        history.append(residual)
        if len(history) >= 60 and (k + 1) % 20 == 0:
            if history[-1] > 0.9995 * history[-50] and history[-1] > 50 * feas_eps:
                return "infeasible", m, k + 1
    return "undecided", m, cap


def _certified_upper(a: np.ndarray, affine_point: np.ndarray) -> tuple[float, Certificate]:
    rows = a.shape[0]
    return _certify_blocks(a, affine_point[:rows, :rows], affine_point[rows:, rows:])


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


# -- witness search --------------------------------------------------------------

def _witness_value(a: np.ndarray, x: np.ndarray, xi: np.ndarray) -> float:
    den = np.linalg.norm(x, 2) * np.linalg.norm(xi)
    if den == 0.0:
        return 0.0
    return float(np.linalg.norm((a * x) @ xi) / den)


def _entry_witness(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    i, j = np.unravel_index(int(np.argmax(np.abs(a))), a.shape)
    x = np.zeros_like(a)
    x[i, j] = 1.0
    xi = np.zeros(a.shape[1], dtype=complex)
    xi[j] = 1.0
    return x, xi


def _ascend_witness(a: np.ndarray, x0: np.ndarray, iters: int = 400):
    """Block-coordinate ascent on ||(A o X) xi|| / (||X|| ||xi||): alternate the
    optimal xi (top right singular vector of A o X) with the optimal op-norm-one
    X for fixed directions (polar factor of the weighted coupling matrix)."""
    norm_x0 = np.linalg.norm(x0, 2)
    if norm_x0 == 0.0:
        return 0.0, None, None
    x = x0 / norm_x0
    best_val, best_x, best_xi = 0.0, None, None
    for _ in range(iters):
        u, s, vh = np.linalg.svd(a * x, full_matrices=False)
        xi = vh[0].conj()
        eta = u[:, 0]
        coupling = np.outer(eta, xi.conj()) * a.conj()
        uk, _, vhk = np.linalg.svd(coupling, full_matrices=False)
        x_next = uk @ vhk
        val = _witness_value(a, x_next, xi)
        if val <= best_val + 1e-14:
            break
        best_val, best_x, best_xi = val, x_next, xi
        x = x_next
    return best_val, best_x, best_xi


def _gap_seed(a: np.ndarray, stalled: np.ndarray) -> Optional[np.ndarray]:
    """Turn the negative part of a stalled affine iterate (the separating
    direction between the PSD cone and the affine set) into a witness seed."""
    rows = a.shape[0]
    w, v = np.linalg.eigh((stalled + stalled.conj().T) / 2)
    neg = w < 0
    if not np.any(neg):
        return None
    basis = v[:, neg] * np.sqrt(-w[neg])
    r, c = basis[:rows], basis[rows:]
    rn = np.linalg.norm(r, axis=1)
    cn = np.linalg.norm(c, axis=1)
    rn = np.where(rn > 1e-14, rn, 1.0)
    cn = np.where(cn > 1e-14, cn, 1.0)
    return (r / rn[:, None]) @ (c / cn[:, None]).conj().T


def _best_witness(a: np.ndarray, seeds: Sequence[np.ndarray]) -> tuple[float, WitnessPair]:
    x, xi = _entry_witness(a)
    best = _witness_value(a, x, xi), x, xi
    for seed in seeds:
        val, xs, xis = _ascend_witness(a, seed)
        if xs is not None and val > best[0]:
            best = val, xs, xis
    val, xs, xis = best
    witness = WitnessPair(xs, xis)
    return witness_lower_bound(a, witness), witness


# -- block-diagonal fast path -----------------------------------------------------

def _support_components(a: np.ndarray) -> list[tuple[list[int], list[int]]]:
    """Connected components of the bipartite support graph, as (rows, cols)."""
    m, n = a.shape
    support = np.abs(a) > 0
    row_seen = [False] * m
    col_seen = [False] * n
    components = []
    for r0 in range(m):
        if row_seen[r0] or not support[r0].any():
            continue
        rows, cols = [], []
        stack = [("r", r0)]
        row_seen[r0] = True
        while stack:
            side, i = stack.pop()
            if side == "r":
                rows.append(i)
                for j in np.nonzero(support[i])[0]:
                    if not col_seen[j]:
                        col_seen[j] = True
                        stack.append(("c", int(j)))
            else:
                cols.append(i)
                for j in np.nonzero(support[:, i])[0]:
                    if not row_seen[j]:
                        row_seen[j] = True
                        stack.append(("r", int(j)))
        components.append((sorted(rows), sorted(cols)))
    return components


def _rank_one_exact(a: np.ndarray) -> Optional[Gamma2Bounds]:
    """Exact gamma2 when every support component is a rank-one block (this
    covers the zero matrix, rank-one matrices, and coset multiplier matrices)."""
    m, n = a.shape
    components = _support_components(a)
    p = np.zeros((m, m), dtype=a.dtype)
    q = np.zeros((n, n), dtype=a.dtype)
    value = 0.0
    for rows, cols in components:
        block = a[np.ix_(rows, cols)]
        u, s, vh = np.linalg.svd(block)
        if len(s) > 1 and s[1] > 1e-12 * s[0]:
            return None
        uvec = u[:, 0] * s[0]
        vvec = vh[0].conj()
        umax = float(np.max(np.abs(uvec)))
        vmax = float(np.max(np.abs(vvec)))
        if umax == 0.0 or vmax == 0.0:
            continue
        p[np.ix_(rows, rows)] = np.outer(uvec, uvec.conj()) * (vmax / umax)
        q[np.ix_(cols, cols)] = np.outer(vvec, vvec.conj()) * (umax / vmax)
        value = max(value, umax * vmax)
    x, xi = _entry_witness(a)  # nonzero even for the zero matrix (argmax entry)
    witness = WitnessPair(x, xi)
    lower = witness_lower_bound(a, witness)
    return Gamma2Bounds(lower=lower, upper=value,
                        certificate=Certificate(p=p, q=q, c=value), witness=witness)


# -- main entry --------------------------------------------------------------------

def gamma2(a, tol: float = 1e-3, *, max_dim: int = MAX_MATRIX_DIM,
           iteration_cap: int = 50_000) -> Gamma2Bounds:
    """Two-sided Schur-norm bounds with upper - lower <= max(tol, 1e-3).

    Upper bound: bisection on the certificate level c, testing PSD feasibility
    of the block completion by alternating projections between the PSD cone
    and the affine set with fixed off-diagonal blocks and diagonal c; the
    returned level is re-certified from the final iterate's eigenvalues, so it
    does not depend on the feasibility heuristic.  Lower bound: the best of a
    deterministic family of witness pairs (entry witness, polar and phase
    seeds, and the separating direction recovered from the last infeasible
    level), each polished by block-coordinate ascent.

    Raises ValueError for a tolerance outside [0, MAX_TOL), and
    Gamma2ConvergenceError (carrying the bracket) if the gap cannot be closed
    within the iteration budget.
    """
    a = as_matrix(a, max_dim=max_dim)
    tol = validate_tol(tol)
    target_gap = max(tol, 1e-3)
    fast = _rank_one_exact(a)
    if fast is not None:
        return fast

    scale = float(np.max(np.abs(a)))
    lo = scale
    op_norm = operator_norm(a)
    hi = op_norm
    # [[c I, A], [A*, c I]] is PSD at c = ||A||_op: always-valid fallback certificate
    m, n = a.shape
    fallback = np.zeros((m + n, m + n), dtype=a.dtype)
    fallback[:m, :m] = op_norm * np.eye(m)
    fallback[m:, m:] = op_norm * np.eye(n)
    fallback = _project_affine(fallback, a, op_norm)
    best_upper, best_cert = _certified_upper(a, fallback)
    feas_eps = max(tol * 1e-4, 1e-11) * max(1.0, scale)
    warm: Optional[np.ndarray] = None
    stalled: Optional[np.ndarray] = None
    while hi - lo > tol / 2 and hi - lo > 1e-12:
        c = (lo + hi) / 2
        status, point, _ = _alternating_projections(a, c, warm, iteration_cap, feas_eps)
        warm = point
        if status == "feasible":
            hi = c
            upper, cert = _certified_upper(a, point)
            if upper < best_upper:
                best_upper, best_cert = upper, cert
        else:
            lo = c
            stalled = point

    seeds: list[np.ndarray] = []
    u, _, vh = np.linalg.svd(a, full_matrices=False)
    polar = u @ vh
    seeds.append(polar)
    seeds.append(polar.conj())
    phase = np.where(np.abs(a) > 0, a / np.where(np.abs(a) > 0, np.abs(a), 1.0), 0.0)
    seeds.append(phase.conj())
    if stalled is not None:
        gap = _gap_seed(a, stalled)
        if gap is not None:
            seeds.append(gap)
    lower, witness = _best_witness(a, seeds)

    upper = best_upper
    if lower > upper:
        if lower - upper > 1e-9 * max(1.0, upper):
            raise Gamma2ConvergenceError(lower, upper, "witness crossed the certified upper bound")
        lower = upper  # float jitter only; keep the ordering exact
    if upper - lower > target_gap:
        # one polish round: try to certify just above the witness value
        for frac in (0.25, 0.5, 0.75):
            c = lower + (upper - lower) * frac
            status, point, _ = _alternating_projections(a, c, warm, 4 * iteration_cap, feas_eps)
            if status == "feasible":
                cand, cert = _certified_upper(a, point)
                if cand < upper:
                    upper, best_cert = cand, cert
                if upper - lower <= target_gap:
                    break
        if upper - lower > target_gap:
            raise Gamma2ConvergenceError(lower, upper)
    return Gamma2Bounds(lower=lower, upper=upper, certificate=best_cert, witness=witness)
