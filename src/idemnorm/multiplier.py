"""Multiplier matrices of subset indicators and their exact Schur norms,
plus the combinatorial detectors that explain large norms: the forbidden
3x3 pattern, the progression property, and the closure claim.

The multiplier matrix of S is M(s, t) = chi_S(s^-1 t); its Schur norm equals
the completely bounded multiplier norm of chi_S.  cb_norm computes it in
closed form from one SVD of M and returns it as a bracket of width ~1e-14
whose certificate and witness re-check independently, so the iterative
gamma2 solver is never run on a group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .groups import Group, _bits, _members, _products_in, validate_mask
# gamma2 is not called here; it stays importable as multiplier.gamma2, which
# perfbench's tracer test asserts is schur.gamma2
from .schur import Gamma2Bounds, WitnessPair, _certify_blocks, gamma2, witness_lower_bound  # noqa: F401

CB_ORDER_CAP = 64


def multiplier_matrix(group: Group, mask: int) -> np.ndarray:
    """The n-by-n zero-one matrix with entry (s, t) = chi_S(s^-1 t).

    Row s is the indicator of sS; the matrix is constant along left-translation
    diagonals by construction.
    """
    mask = validate_mask(group, mask)
    return _row_flags(group, mask).astype(float)


def _row_flags(group: Group, mask: int) -> np.ndarray:
    """The multiplier matrix as flags: [s, t] = (s^-1 t in S), gathered from
    the products s^-1 t (the coordinate difference t - s when abelian)."""
    everything = np.arange(group.order)
    return _products_in(group, _bits(mask, group.order), group._inverse, everything)


def cb_norm(group: Group, mask: int) -> Gamma2Bounds:
    """Exact completely bounded multiplier norm of chi_S (group order capped
    at 64), as a closed bracket with its certificate and witness.

    On a finite group cb multipliers coincide with the Fourier algebra
    (Bozejko-Fendler 1984, Eymard 1964), so the norm is ||M||_S1 / |G|, the
    nuclear norm of the multiplier matrix over the group order.  With one
    SVD M = U diag(s) V*:

      * upper: P = U diag(s) U* and Q = V diag(s) V* make [[P, M], [M*, Q]]
        PSD; M commutes with left translation, so both diagonals are constant
        and equal sum(s) / |G|;
      * lower: X = conj(U V*) is unitary and, with xi uniform,
        <xi, (M o X) xi> = tr(M V U*) / |G| = sum(s) / |G|.
    """
    mask = validate_mask(group, mask)
    if group.order > CB_ORDER_CAP:
        raise ValueError(f"cb_norm supports orders up to {CB_ORDER_CAP}, got {group.order}")
    matrix = multiplier_matrix(group, mask)
    u, s, vh = np.linalg.svd(matrix)
    # the diagonal blocks of the PSD completion [U; V] diag(s) [U; V]*,
    # re-certified against rounding by the solver's own eigenvalue shift
    upper, certificate = _certify_blocks(matrix, (u * s) @ u.conj().T, (vh.conj().T * s) @ vh)
    witness = WitnessPair((u @ vh).conj(), np.ones(group.order))
    lower = min(witness_lower_bound(matrix, witness), upper)
    return Gamma2Bounds(lower=lower, upper=upper, certificate=certificate, witness=witness)


def forbidden_pattern_search(group: Group, mask: int) -> Optional[tuple[tuple[int, int, int], tuple[int, int, int]]]:
    """First (in lexicographic order) row and column triples whose submatrix of
    the multiplier matrix equals the forbidden pattern exactly, or None.

    Rows are scanned ascending; for fixed rows the admissible columns for the
    three pattern columns are disjoint bitmask intersections, so the smallest
    member of each gives the lexicographically least column triple.
    """
    mask = validate_mask(group, mask)
    n = group.order
    if mask == 0:
        return None
    full = (1 << n) - 1
    packed = np.packbits(_row_flags(group, mask), axis=1, bitorder="little")
    row_masks = [int.from_bytes(row.tobytes(), "little") for row in packed]
    for r1 in range(n):
        m1 = row_masks[r1]
        if not m1:
            continue
        for r2 in range(n):
            if r2 == r1:
                continue
            m2 = row_masks[r2]
            c1_base = m1 & m2
            if not c1_base:
                continue
            for r3 in range(n):
                if r3 == r1 or r3 == r2:
                    continue
                m3 = row_masks[r3]
                col1 = c1_base & m3
                col2 = m1 & m2 & ~m3 & full
                col3 = m1 & m3 & ~m2 & full
                if col1 and col2 and col3:
                    c1 = (col1 & -col1).bit_length() - 1
                    c2 = (col2 & -col2).bit_length() - 1
                    c3 = (col3 & -col3).bit_length() - 1
                    return (r1, r2, r3), (c1, c2, c3)
    return None


@dataclass(frozen=True)
class ProgressionViolation:
    """s in S and st in S but st^n not in S (side "right"), or the mirrored
    left-sided statement; n is the smallest failing power."""

    side: str  # "right" | "left"
    s: int
    t: int
    n: int


def progression_check(group: Group, mask: int) -> list[ProgressionViolation]:
    """All violations of the progression property, sorted by (side, s, t).

    S has the property when s in S and st in S force the whole progression
    s t^n into S (and symmetrically on the left).  An empty list certifies
    the property; each violation reports the smallest failing exponent.  For
    abelian groups the two sides coincide and only "right" is emitted.
    """
    mask = validate_mask(group, mask)
    members = _members(mask)
    flags = _bits(mask, group.order)
    everything = np.arange(group.order)

    def in_s(powers: np.ndarray, side: str) -> np.ndarray:
        # [i, j]: s_i t_j^n (right) or t_j^n s_i (left) lies in S, where
        # powers[j] = t_j^n
        if side == "right":
            return _products_in(group, flags, members, powers)
        return _products_in(group, flags, powers, members).T

    violations = []  # sorted by side: "left" < "right"
    for side in ("right",) if group.is_abelian else ("left", "right"):
        # every pair (s, t) with st in S starts its progression; it drops out
        # at its first failure, or when t^n = e (n has reached the order of t)
        active = in_s(everything, side)
        failed_at = np.zeros(active.shape, dtype=np.int64)
        power, n = everything, 1
        while active.any():
            power, n = group.mul_array(power, everything), n + 1
            active &= power != group.identity
            failing = active & ~in_s(power, side)
            failed_at[failing] = n
            active &= ~failing
        violations += [ProgressionViolation(side=side, s=int(members[i]), t=int(t),
                                            n=int(failed_at[i, t]))
                       for i, t in zip(*np.nonzero(failed_at))]
    return violations


def closure_claim_check(group: Group, mask: int) -> list[tuple[int, int]]:
    """Pairs u <= v in S with both uv and vu outside S (requires e in S).

    An empty list is the closure claim; a violating pair for a set with the
    progression property forces the forbidden pattern at rows (e, u^-1, v^-1)
    and columns (e, u, v) of the multiplier matrix.
    """
    mask = validate_mask(group, mask)
    if not (mask >> group.identity) & 1:
        raise ValueError("closure claim requires the identity to belong to the subset")
    members = _members(mask)
    inside = _products_in(group, _bits(mask, group.order), members, members)  # [i, j]: uv in S
    pairs = np.nonzero(np.triu(~inside & ~inside.T))
    return [(int(members[i]), int(members[j])) for i, j in zip(*pairs)]
