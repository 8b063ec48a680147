"""Witness triples certifying the 4/3 lower bound on abelian groups.

A witness is (u, v, w) with u, v in S, u+w in S, and both v+w and v-w outside
S.  Pairing mu against the fixed test function

    f(x) = (x,u) [2 + 2 (x,w) + (1/2)(x,-w)] + (x,v) [2 - (x,w) - (x,-w)]

gives an integral of modulus 6 or 13/2 while sup|f| = 9/2 identically, so any
witness forces bs_norm(S) >= 6/(9/2) = 4/3.  envelope_identities proves the
9/2 by integer identities; sup_norm_check samples it on a grid.

Everything here but those two takes abelian groups of order up to 64.  The
search and the integral are array kernels over a stack of subsets, one
row of uint64 translates t + S per subset (_find_witnesses and
_witness_integrals): sweep._classify runs them over a stack of classes, and
find_witness and witness_integral are batches of one.  The search and the
memberships read the translates of S from the group's translation table;
the numeric integral reads the characters from its character table, so the
two sides of the integral share no table and no group product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bs import mu_values
from .groups import Group, _lowest_bits, _translates, validate_mask

SUP_NORM_F = 4.5


@dataclass(frozen=True)
class WitnessTriple:
    u: int
    v: int
    w: int

    def to_dict(self) -> dict:
        return {"u": self.u, "v": self.v, "w": self.w}


def _bit(masks: np.ndarray, elements: np.ndarray) -> np.ndarray:
    """Bit elements[i] of masks[i] (uint64), as 0 or 1."""
    return (masks >> elements.astype(np.uint64)) & np.uint64(1)


def _find_witnesses(group: Group, masks: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """First witness in lexicographic (u, v, w) order for each of a stack of
    subsets: masks (B,) uint64 and their translates rows (B, n), with
    rows[i, t] = t + S_i.  Returns (B, 3) int64 rows (u, v, w), -1 where
    S_i has no witness.

    For each w the admissible u form A_w = S & (S - w) (u + w in S) and the
    admissible v form B_w = S minus ((S - w) | (S + w)) (v + w and v - w
    outside S), as (B, n) uint64 arrays.  The least u is the least element
    of the union of the A_w over the w with both sets nonempty, v is the
    least element of the B_w among those w with u in A_w, and w the first
    of them with v in B_w.

    Cosets never admit a witness, and neither does any union of two cosets
    observed in the bundled sweeps; sets outside those classes frequently do.
    """
    zero = np.uint64(0)
    s = masks[:, None]
    back = rows[:, group._inverse]  # [i, w] = S_i - w
    a = s & back
    b = s & ~(back | rows)
    usable = (a != 0) & (b != 0)
    out = np.full((len(masks), 3), -1, dtype=np.int64)
    found = usable.any(axis=1)
    if found.any():
        a, b, usable = a[found], b[found], usable[found]
        u = _lowest_bits(np.bitwise_or.reduce(np.where(usable, a, zero), axis=1))
        usable &= _bit(a, u[:, None]) != 0
        v = _lowest_bits(np.bitwise_or.reduce(np.where(usable, b, zero), axis=1))
        w = np.argmax(usable & (_bit(b, v[:, None]) != 0), axis=1)
        out[found] = np.stack((u, v, w), axis=1)
    return out


def find_witness(group: Group, mask: int) -> Optional[WitnessTriple]:
    """First witness in lexicographic (u, v, w) order, or None (abelian
    groups of order up to 64): _find_witnesses on a batch of one."""
    group._require_abelian()
    mask = validate_mask(group, mask)
    masks = np.array([mask], dtype=np.uint64)
    u, v, w = _find_witnesses(group, masks, _translates(group, masks))[0].tolist()
    return None if u < 0 else WitnessTriple(u=u, v=v, w=w)


def _witness_integrals(group: Group, masks: np.ndarray, rows: np.ndarray,
                       triples: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """The integral of each set's test function against its mu, for a stack
    of subsets (masks, rows as in _find_witnesses), their triples (W, 3)
    and mu rows (W, n); returns the membership formula of each, 6 or 13/2.

    (a) Membership formula: 2 chi(u) + 2 chi(u+w) + (1/2) chi(u-w) + 2 chi(v)
        - chi(v+w) - chi(v-w), read as the bits u and v of S, S - w and
        S + w (rows of the translation table); raises ValueError unless each
        triple is a witness for its set.
    (b) Numerically: sum_x f(x) mu(x), one einsum over the rows, with f
        built from the characters (x,u), (x,v), (x,w) of
        Group.character_table and never from group products, so that a
        wrong group law shows as a mismatch.
    The two must agree to 1e-10 on every row, or ArithmeticError is raised.
    """
    u, v, w = triples.T
    pick = np.arange(len(triples))
    sets = np.stack((masks, rows[pick, group._inverse[w]], rows[pick, w]))  # S, S - w, S + w
    # chi at u, u+w, u-w and at v, v+w, v-w
    at_u, at_v = _bit(sets, u) != 0, _bit(sets, v) != 0
    # u, v, u+w in S; v+w, v-w outside
    valid = at_u[0] & at_u[1] & at_v[0] & ~at_v[1] & ~at_v[2]
    if not valid.all():
        i = int(np.argmin(valid))
        raise ValueError(f"(u={u[i]}, v={v[i]}, w={w[i]}) is not a valid witness for this subset")
    # the weights are halves, so the membership sums are exact
    at_u, at_v = at_u.astype(float), at_v.astype(float)
    formula = 2 * at_u[0] + 2 * at_u[1] + 0.5 * at_u[2] + 2 * at_v[0] - at_v[1] - at_v[2]

    table = group.character_table
    cu, cv, cw = table[u], table[v], table[w]
    f = cu * (2 + 2 * cw + 0.5 * np.conj(cw)) + cv * (2 - cw - np.conj(cw))
    total = np.einsum("ij,ij->i", f, mu)
    wrong = np.abs(total - formula) > 1e-10
    if wrong.any():
        i = int(np.argmax(wrong))
        raise ArithmeticError(f"test-function integral mismatch: formula {formula[i]} "
                              f"vs numeric {complex(total[i])}")
    return formula


def witness_integral(group: Group, mask: int, triple: WitnessTriple) -> complex:
    """Integral of the test function against mu, computed two independent ways
    and checked against each other (abelian groups of order up to 64):
    _witness_integrals on a batch of one."""
    group._require_abelian()
    mask = validate_mask(group, mask)
    u, v, w = triple.u, triple.v, triple.w
    if not all(0 <= x < group.order for x in (u, v, w)):
        raise ValueError(f"(u={u}, v={v}, w={w}) has an element outside 0..{group.order - 1}")
    masks = np.array([mask], dtype=np.uint64)
    value = _witness_integrals(group, masks, _translates(group, masks),
                               np.array([[u, v, w]]), mu_values(group, mask)[None])
    return complex(value[0])


def witness_norm_bound(group: Group, mask: int, triple: WitnessTriple) -> float:
    """|integral| / (9/2); always >= 4/3 for a valid witness, and always a
    lower bound for bs_norm(S) (abelian groups of order up to 64)."""
    return abs(witness_integral(group, mask, triple)) / SUP_NORM_F


@dataclass(frozen=True)
class SupNormCheck:
    max_f: float
    max_identity_error: float


def sup_norm_check(points: int) -> SupNormCheck:
    """Grid verification that the test-function envelope is constant.

    On a uniform theta grid this checks (a) the algebraic identity
    sqrt(25/4 + 10 cos t + 4 cos^2 t) = 5/2 + 2 cos t (the radicand is a
    perfect square since 5/2 + 2 cos t >= 1/2 > 0), and (b) that
    |2 + 2 e^{it} + (1/2) e^{-it}| + |2 - e^{it} - e^{-it}| is identically 9/2.
    """
    if points < 3:
        raise ValueError("need at least 3 grid points")
    theta = np.linspace(0.0, 2 * np.pi, points, endpoint=False)
    cos_t = np.cos(theta)
    radicand = 25.0 / 4.0 + 10.0 * cos_t + 4.0 * cos_t ** 2
    identity_error = float(np.max(np.abs(np.sqrt(radicand) - (2.5 + 2.0 * cos_t))))
    z = np.exp(1j * theta)
    envelope = np.abs(2 + 2 * z + 0.5 * np.conj(z)) + np.abs(2 - z - np.conj(z))
    max_f = float(np.max(envelope))
    deviation = float(np.max(np.abs(envelope - SUP_NORM_F)))
    return SupNormCheck(max_f=max_f, max_identity_error=max(identity_error, deviation))


# The envelope of the test function as integer Laurent polynomials in
# z = e^{it}, whose conjugate is 1/z: coefficients of 1/z, 1, z.  Twice its
# u factor 2 + 2z + 1/(2z), its v factor 2 - z - 1/z, and their claimed
# moduli, twice |2 + 2z + 1/(2z)| = 5 + 4 cos t and |2 - z - 1/z| = 2 - 2 cos t
_ENVELOPE_PROOF = {
    "u_factor": np.array([1, 4, 4], dtype=np.int64),
    "v_factor": np.array([-1, 2, -1], dtype=np.int64),
    "u_modulus": np.array([2, 5, 2], dtype=np.int64),
    "v_modulus": np.array([-1, 2, -1], dtype=np.int64),
}


def envelope_identities() -> dict[str, bool]:
    """The four integer identities that prove the envelope of the test
    function constant, |2 + 2z + 1/(2z)| + |2 - z - 1/z| = 9/2 = SUP_NORM_F
    at every z = e^{it}, each with whether it holds.  With c = cos t, the
    coefficients (a, b, a) at 1/z, 1, z are b + 2 a c on the circle, and
    the conjugate of a Laurent polynomial there has its coefficients
    reversed.

      * u_square: 4 |2 + 2z + 1/(2z)|^2 = (5 + 4c)^2, that is
        (4 + 4z + 1/z)(4 + 4/z + z) = 25 + 40c + 16c^2;
      * v_square: |2 - z - 1/z|^2 = (2 - 2c)^2;
      * moduli_nonnegative: both moduli are real, with equal coefficients
        at 1/z and z, and never negative on the circle, b - 2|a| >= 0:
        5 + 4c >= 1 and 2 - 2c >= 0.  So each is the modulus whose square
        the identity above gives, and not its negative;
      * envelope: (5 + 4c)/2 + (2 - 2c) = 9/2 at every c.

    Every product is of small int64 polynomials, so no step rounds, and no
    grid is evaluated (sup_norm_check does that)."""
    u, v, mu, mv = (_ENVELOPE_PROOF[k] for k in ("u_factor", "v_factor", "u_modulus", "v_modulus"))
    return {
        "u_square": np.array_equal(np.convolve(u, u[::-1]), np.convolve(mu, mu)),
        "v_square": np.array_equal(np.convolve(v, v[::-1]), np.convolve(mv, mv)),
        "moduli_nonnegative": all(np.array_equal(m, m[::-1]) and m[1] >= 2 * abs(m[0])
                                  for m in (mu, mv)),
        "envelope": np.array_equal(mu + 2 * mv, [0, 2 * SUP_NORM_F, 0]),
    }
