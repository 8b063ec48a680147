"""Multiplier matrices of subset indicators and their exact Schur norms,
plus the combinatorial detectors that explain large norms: the forbidden
3x3 pattern, the progression property, and the closure claim.  The pattern
search is an array kernel over a stack of subsets (_pattern_searches), which
sweep._classify runs over a stack of classes; forbidden_pattern_search is a
batch of one.  The progression property (has_progression_property) is
one yes-or-no test over a block of products, s t and s t^2 for every s in
S and every t; no list of violations is built.

The multiplier matrix of S is M(s, t) = chi_S(s^-1 t); its Schur norm equals
the completely bounded multiplier norm of chi_S.  _cb_brackets computes it
in closed form, on every group and for a whole uint64 stack of masks at
once, from the block circulant form of M over the group's cyclic layout
(Group.cyclic_layout): one rfft, one batched SVD of the k-by-k blocks, one
batched eigenvalue check and one irfft, never a decomposition of M itself.
sweep._classify runs it over each slice of classes, and verify's amenable
cross check over a sweep's records.  cb_norm is its batch of one: a bracket
of width ~1e-14 whose certificate and witness, built from that call's
arrays, re-check independently, so the iterative gamma2 solver is never run
on a group.
"""

from __future__ import annotations

import functools
import math
from typing import Optional

import numpy as np

from .groups import (_BIT_INDEX, TRANSLATION_TABLE_MAX_ORDER, Group, _bits, _lowest_bits,
                     _members, _products_in, _row_masks, validate_mask)
# gamma2 is not called here; it stays importable as multiplier.gamma2, which
# perfbench's tracer test asserts is schur.gamma2
from .schur import (Certificate, Gamma2Bounds, WitnessPair, _completion_slack,  # noqa: F401
                    _hermitian, gamma2)

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
    """Exact completely bounded multiplier norm of chi_S, as a closed
    bracket with its certificate and witness: the batch of one of
    _cb_brackets, whose arrays give both, in element order.  A group above
    order CB_ORDER_CAP (64) raises ValueError before any work, which is
    the check cli.cmd_norm relies on to refuse such a group.

    The certificate is (P + slack I, Q + slack I) at the level of the upper
    end, and the witness is X with xi uniform.
    """
    mask = validate_mask(group, mask)
    if group.order > CB_ORDER_CAP:
        raise ValueError(f"cb_norm supports orders up to {CB_ORDER_CAP}, got {group.order}")
    lower, upper, circulants, slack = _cb_brackets(group, np.array([mask], dtype=np.uint64))
    # in element order, each its own array: the witness keeps x, and a view
    # of one stack would keep p and q alive with it
    p, q, x = (c[group.cyclic_layout.flat] for c in circulants[:, 0].reshape(3, -1))
    lower, upper, shift = float(lower[0]), float(upper[0]), slack[0] * np.eye(group.order)
    return Gamma2Bounds(lower, upper, Certificate(p + shift, q + shift, upper),
                        WitnessPair(x, np.ones(group.order)))


def _cb_brackets(group: Group, masks: np.ndarray) -> tuple[np.ndarray, ...]:
    """cb_norm's bracket for each of a uint64 stack of masks (B,), as
    (lower, upper, circulants, slack): the ends (B,), the real block
    circulants of P, Q and X (3, B, m, k, k), and the shortfall (B,) of the
    completions from PSD.  Each step is one array call over the stack, and
    a stack gives each mask what a batch of one gives it, bit for bit.

    On a finite group cb multipliers coincide with the Fourier algebra
    (Bozejko-Fendler 1984, Eymard 1964), so the norm is ||M||_S1 / |G|, the
    nuclear norm of the multiplier matrix over the group order.  M commutes
    with left translation, so in the group's cyclic layout (g^d h_i, g of
    order m, k = n / m cosets) it is block circulant with k-by-k blocks
    C_d[i, j] = chi_S(h_i^-1 g^d h_j).  The DFT along d makes it block
    diagonal: B_f = sum_d C_d w^(-df), and B_(m-f) = conj(B_f) because C_d
    is real, so rfft gives the floor(m/2) + 1 blocks that determine the
    rest.  With one batched SVD B_f = U_f diag(s_f) V_f*:

      * upper: sum(s_f) over the whole spectrum, over |G|.  The blocks
        P_f = U_f diag(s_f) U_f* and Q_f = V_f diag(s_f) V_f* complete
        every [[P_f, B_f], [B_f*, Q_f]] to a PSD matrix (re-certified against
        rounding by one batched eigenvalue check, the slack), and irfft
        turns them into the block circulants P and Q, whose diagonals are
        constant and equal that sum: the upper end is the largest diagonal
        entry, of the blocks at d = 0, plus the slack.  The slack is
        measured on the blocks, so P and Q are PSD up to the rounding of
        irfft, far inside check_certificate's tolerance;
      * lower: X = conj(U V*), the real block circulant with blocks
        U_f V_f*, has ||X|| <= 1, and with xi uniform
        <xi, (M o X) xi> = tr(M X^T) / |G| = the same sum, which bounds
        ||(M o X) xi|| / (||X|| ||xi||) from below.  (M o X) 1 repeats one
        k-vector m times and ||X|| is the largest singular value of its
        blocks, so no n-by-n matrix is decomposed.
    """
    gather = group.cyclic_layout.gather
    m, k, _ = gather.shape
    # C_d of each mask, in C order
    circulant = np.ascontiguousarray(masks[:, None, None, None] >> _BIT_INDEX[gather] & 1, float)
    blocks = np.fft.rfft(circulant, axis=1)  # B_f
    u, s, vh = np.linalg.svd(blocks)
    p = _hermitian((u * s[..., None, :]) @ u.conj().swapaxes(-1, -2))
    q = _hermitian((vh.conj().swapaxes(-1, -2) * s[..., None, :]) @ vh)
    slack = _completion_slack(p, blocks, q).max(axis=1)
    # the real block circulants with these blocks.  irfft keeps only the
    # real part of the self-conjugate blocks f = 0 and f = m/2: that is all
    # there is of them for B, P and Q (and the real part of a PSD completion
    # of a real block is one too), but U V* is free on the null space of
    # B_f, so ||X|| is taken from the blocks of the X returned
    circulants = np.fft.irfft(np.stack((p, q, u @ vh)), n=m, axis=2)
    # einsum sums in the order of the memory, and irfft lays a stack out
    # with the masks innermost: with both factors of (M o X) 1 in C order,
    # each mask's sum runs as a batch of one runs it, whatever the stack
    x_blocks = np.ascontiguousarray(circulants[2])
    x_norm = np.linalg.svd(np.fft.rfft(x_blocks, axis=1), compute_uv=False).max(axis=(1, 2))
    upper = circulants[:2, :, 0].diagonal(axis1=-2, axis2=-1).max(axis=(0, 2)) + slack
    rows = np.einsum("bdij,bdij->bi", circulant, x_blocks)
    # a vector's norm is one dot product, which a norm along an axis is not
    lower = np.minimum(np.array([np.linalg.norm(r) for r in rows]) / (x_norm * math.sqrt(k)), upper)
    return lower, upper, circulants, slack


@functools.cache
def _row_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The row pairs (r2, r3) with r2 < r3 < n, in row-major order: the
    upper triangle of an n-by-n array, as np.triu_indices(n, 1) gives it."""
    return np.triu_indices(n, 1)


def _pattern_searches(rows: np.ndarray) -> list[Optional[tuple[tuple[int, int, int],
                                                                tuple[int, int, int]]]]:
    """First forbidden-pattern hit for each of a stack of subsets, from the
    rows of their multiplier matrices as uint64 masks: rows (B, n), row s
    of set i the translate s S_i.  None where a set has no hit.

    M(g s, g t) = M(s, t), so any hit moves to one whose first row is
    element 0, and the first hit has r1 = 0.  Rows (0, r2, r3) carry the
    pattern exactly when the traces A = m0 & m2 and B = m0 & m3 give three
    nonempty column classes A & B, A - B and B - A, that is, when A and B
    properly overlap; the classes are disjoint, so the least member of each
    gives the least column triple.  S is therefore pattern-free exactly
    when its traces m0 & m form a laminar family (any two nested or
    disjoint).  A proper overlap is symmetric in A and B, and a trace never
    properly overlaps itself, so every hit has distinct rows and the first
    hit in row-major order has r2 < r3: the overlaps are tested on those
    n(n - 1)/2 pairs only (_row_pairs), one (B, n(n - 1)/2) array, and the
    first hit is the first pair in that order.  A group of one element has
    no pair, and no hit.
    """
    count, n = rows.shape
    if n < 2:
        return [None] * count
    traces = rows[:, :1] & rows
    pair2, pair3 = _row_pairs(n)
    first, second = traces[:, pair2], traces[:, pair3]
    both = first & second
    hits = (both != 0) & (first != both) & (second != both)
    k = hits.argmax(axis=1)
    r2, r3 = pair2[k], pair3[k]
    pick = np.arange(count)
    a, b = traces[pick, r2], traces[pick, r3]
    columns = _lowest_bits(np.stack((a & b, a & ~b, b & ~a)))
    return [((0, x2, x3), (c1, c2, c3)) if hit else None for hit, x2, x3, c1, c2, c3
            in zip(hits.any(axis=1).tolist(), r2.tolist(), r3.tolist(), *columns.tolist())]


def forbidden_pattern_search(group: Group, mask: int) -> Optional[tuple[tuple[int, int, int], tuple[int, int, int]]]:
    """First (in lexicographic order) row and column triples whose submatrix of
    the multiplier matrix equals the forbidden pattern exactly, or None
    (groups of order up to 64): _pattern_searches on a batch of one, whose
    rows are the packed rows s S of the multiplier matrix on every group
    (on an abelian group, row s is the translate S + s), so a one-shot
    search builds no translation table."""
    mask = validate_mask(group, mask)
    n = group.order
    if n > TRANSLATION_TABLE_MAX_ORDER:
        raise ValueError(f"pattern search supports orders up to "
                         f"{TRANSLATION_TABLE_MAX_ORDER}, got {n}")
    return _pattern_searches(_row_masks(_row_flags(group, mask))[None])[0]


def has_progression_property(group: Group, mask: int) -> bool:
    """Whether s in S and st in S force the whole progression s t^n into S,
    and t s in S forces t^n s into S.

    One block of products decides it: st in S must force s t^2 in S, for
    every s in S and every t.  That is necessary, and it is enough: if
    s t, ..., s t^n lie in S, then s' = s t^(n-1) is in S with s' t in S, so
    s' t^2 = s t^(n+1) is too.  The left side adds nothing: with
    u = s^-1 t s, t s = s u and t^n s = s u^n, and u runs over the group
    as t does."""
    mask = validate_mask(group, mask)
    members = _members(mask)
    flags = _bits(mask, group.order)
    everything = np.arange(group.order)
    squares = group.mul_array(everything, everything)
    # [i, t]: s_i t in S but s_i t^2 not in S
    return not (_products_in(group, flags, members, everything)
                & ~_products_in(group, flags, members, squares)).any()


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
