"""Correctness oracles for the benchmark's outputs.

They share no code path with the fast paths they judge: class counts come
from Burnside's lemma, norms of planted sets from the paper's closed forms,
and multiplier matrices are rebuilt here from the Cayley table.  An upper
certificate (P, Q, c) is checked here by one eigenvalue computation (idemnorm's
check_certificate refuses the 128x128 block of an order-64 group); a lower
witness is re-evaluated with idemnorm's witness_lower_bound, which evaluates
the given pair and never searches.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

COSET_BOUND = (1 + math.sqrt(2)) / 2
NORM_TOL = 1e-9
GAP_TOL = 1e-3
CERT_TOL = 1e-8


def element_order(factors: tuple[int, ...], coords: tuple[int, ...]) -> int:
    return math.lcm(*(f // math.gcd(c, f) for c, f in zip(coords, factors)))


def burnside_count(factors: tuple[int, ...]) -> int:
    """Translation classes of subsets of Z_f1 x ... x Z_fk:
    (1/n) sum_g 2^(n / ord g)."""
    n = math.prod(factors)
    total = sum(2 ** (n // element_order(factors, c))
                for c in itertools.product(*(range(f) for f in factors)))
    if total % n:
        raise ArithmeticError(f"Burnside sum {total} not divisible by {n}")
    return total // n


def closed_form_norm(kind: str, q: int | None) -> float:
    """The paper's norms: 1 for a coset, 2/(q sin(pi/2q)) for a union of two
    cosets with odd relative order q, 2/(q tan(pi/2q)) for even q."""
    if kind == "coset":
        return 1.0
    if q % 2:
        return 2 / (q * math.sin(math.pi / (2 * q)))
    return 2 / (q * math.tan(math.pi / (2 * q)))


def check_sweep(report: dict, factors: tuple[int, ...]) -> list[str]:
    n = math.prod(factors)
    failed = []
    if report["subset_total"] != 2 ** n:
        failed.append(f"subset_total: {report['subset_total']} != 2^{n}")
    if report["violations"]:
        failed.append(f"violations: {len(report['violations'])}")
    expected = burnside_count(factors)
    if len(report["records"]) != expected:
        failed.append(f"class_count: {len(report['records'])} != Burnside {expected}")
    return failed


def check_norm(payload: dict, subset: list[int], kind: str, q: int | None) -> list[str]:
    failed = []
    analysis = payload["analysis"]
    if payload["subset"] != subset:
        failed.append("subset_echo")
    if analysis["kind"] != kind:
        failed.append(f"kind: {analysis['kind']} != planted {kind}")
    if kind == "two_cosets" and analysis["q"] != q:
        failed.append(f"q: {analysis['q']} != planted {q}")
    norm = payload["bs_norm"]
    if kind == "other":
        if norm < COSET_BOUND - NORM_TOL:
            failed.append(f"non_coset_norm: {norm!r} < (1+sqrt2)/2")
    else:
        expected = closed_form_norm(kind, q)
        if abs(norm - expected) > NORM_TOL:
            failed.append(f"closed_form_norm: {norm!r} != {expected!r}")
    return failed


def multiplier_from_table(table, identity: int, mask: int) -> np.ndarray:
    """M[s, t] = 1 when s^-1 t lies in S, straight from the Cayley table."""
    n = len(table)
    inverse = [next(b for b in range(n) if table[a][b] == identity) for a in range(n)]
    return np.array([[float((mask >> table[inverse[s]][t]) & 1) for t in range(n)]
                     for s in range(n)])


def certificate_holds(matrix: np.ndarray, p, q, c: float) -> bool:
    """[[P, A], [A*, Q]] is positive semidefinite and the diagonals of P and
    Q are at most c, both within CERT_TOL: then the Schur norm of A is at most c."""
    p, q = np.asarray(p), np.asarray(q)
    if max(np.max(np.real(np.diag(p))), np.max(np.real(np.diag(q)))) > c + CERT_TOL:
        return False
    block = np.block([[p, matrix], [matrix.conj().T, q]])
    return bool(np.linalg.eigvalsh((block + block.conj().T) / 2)[0] >= -CERT_TOL)


def check_bracket(matrix: np.ndarray, bounds, expected: float | None = None) -> list[str]:
    """Re-verify a Gamma2Bounds against `matrix`: the certificate proves the
    upper end, the witness reproduces the lower end, the gap is closed, and
    a known norm (`expected`) lies inside."""
    from idemnorm.schur import witness_lower_bound

    failed = []
    lower, upper, cert = bounds.lower, bounds.upper, bounds.certificate
    if not certificate_holds(matrix, cert.p, cert.q, cert.c):
        failed.append("certificate")
    if cert.c > upper + NORM_TOL * max(1.0, upper):
        failed.append(f"certificate_level: {cert.c!r} > upper {upper!r}")
    witnessed = witness_lower_bound(matrix, bounds.witness)
    if abs(witnessed - lower) > NORM_TOL * max(1.0, lower):
        failed.append(f"witness: {witnessed!r} != lower {lower!r}")
    if upper - lower > GAP_TOL + 1e-12:
        failed.append(f"gap: {upper - lower!r} > {GAP_TOL}")
    if expected is not None and not lower - NORM_TOL <= expected <= upper + NORM_TOL:
        failed.append(f"bracket: [{lower!r}, {upper!r}] misses {expected!r}")
    return failed
