"""Witness triples certifying the 4/3 lower bound on abelian groups.

A witness is (u, v, w) with u, v in S, u+w in S, and both v+w and v-w outside
S.  Pairing mu against the fixed test function

    f(x) = (x,u) [2 + 2 (x,w) + (1/2)(x,-w)] + (x,v) [2 - (x,w) - (x,-w)]

gives an integral of modulus 6 or 13/2 while sup|f| = 9/2 identically, so any
witness forces bs_norm(S) >= 6/(9/2) = 4/3.

Everything here but sup_norm_check takes abelian groups of order up to 64.
The search and the memberships read the translates of S from the group's
translation table; the numeric integral reads the characters from its
character table, so the two sides of witness_integral share no table and
no group product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bs import mu_values
from .groups import Group, _lowest, _translates, validate_mask

SUP_NORM_F = 4.5


@dataclass(frozen=True)
class WitnessTriple:
    u: int
    v: int
    w: int

    def to_dict(self) -> dict:
        return {"u": self.u, "v": self.v, "w": self.w}


def _memberships(group: Group, mask: int, u: int, v: int, w: int) -> list[int]:
    """chi_S at u, u+w, u-w, v, v+w, v-w (0 or 1), read as the bits u and v
    of S, S - w and S + w (translates of S, order up to 64); raises
    ValueError unless (u, v, w) is a witness for S."""
    group._require_abelian()
    mask = validate_mask(group, mask)
    if not all(0 <= x < group.order for x in (u, v, w)):
        raise ValueError(f"(u={u}, v={v}, w={w}) has an element outside 0..{group.order - 1}")
    back, ahead = _translates(group, mask)[[group.inv(w), w]].tolist()  # S - w, S + w
    chi = [mask >> u & 1, back >> u & 1, ahead >> u & 1,
           mask >> v & 1, back >> v & 1, ahead >> v & 1]
    # u, v, u+w in S; v+w, v-w outside
    if not (chi[0] and chi[1] and chi[3] and not chi[4] and not chi[5]):
        raise ValueError(f"(u={u}, v={v}, w={w}) is not a valid witness for this subset")
    return chi


def find_witness(group: Group, mask: int) -> Optional[WitnessTriple]:
    """First witness in lexicographic (u, v, w) order, or None (abelian
    groups of order up to 64).

    Read off the translates T[t] = t + S, taken once as Python ints: for
    each w the admissible u form A_w = S & T[-w] (u + w in S) and the
    admissible v form B_w = S minus (T[-w] | T[w]) (v + w and v - w outside
    S).  The least u is the least element of the union of the A_w over the
    w with both sets nonempty, v is the least element of the B_w among
    those w with u in A_w, and w the first of them with v in B_w.

    Cosets never admit a witness, and neither does any union of two cosets
    observed in the bundled sweeps; sets outside those classes frequently do.
    """
    group._require_abelian()
    mask = validate_mask(group, mask)
    translates = _translates(group, mask).tolist()
    candidates = []  # (A_w, B_w, w) with both sets nonempty, w ascending
    us = 0
    for w, w_inv in enumerate(group._inverse.tolist()):
        back = translates[w_inv]  # S - w
        a = mask & back
        if a:
            b = mask & ~(back | translates[w])
            if b:
                candidates.append((a, b, w))
                us |= a
    if not us:
        return None
    u = _lowest(us)
    candidates = [(b, w) for a, b, w in candidates if a >> u & 1]
    vs = 0
    for b, _ in candidates:
        vs |= b
    v = _lowest(vs)
    w = next(w for b, w in candidates if b >> v & 1)
    return WitnessTriple(u=u, v=v, w=w)


def witness_integral(group: Group, mask: int, triple: WitnessTriple) -> complex:
    """Integral of the test function against mu, computed two independent ways
    (abelian groups of order up to 64).

    (a) Membership formula: 2 chi(u) + 2 chi(u+w) + (1/2) chi(u-w) + 2 chi(v)
        - chi(v+w) - chi(v-w); for a valid witness this is 6 or 13/2 depending
        on whether u-w lies in S.  The memberships are bits of the translates
        of S (Group.translation_table).
    (b) Numerically: sum_x f(x) mu(x) over the whole group, with f built from
        the characters (x,u), (x,v), (x,w) of Group.character_table and never
        from group products, so that a wrong group law shows as a mismatch.
    The two paths must agree to 1e-10; disagreement raises ArithmeticError.
    """
    return _witness_integral(group, mask, triple, mu_values(group, mask))


def _witness_integral(group: Group, mask: int, triple: WitnessTriple, mu: np.ndarray) -> complex:
    """witness_integral with mu = mu_values(group, mask) already computed."""
    u, v, w = triple.u, triple.v, triple.w
    # the weights are halves, so the membership sum is exact
    in_u, in_uw, in_u_w, in_v, in_vw, in_v_w = _memberships(group, mask, u, v, w)
    formula = 2 * in_u + 2 * in_uw + 0.5 * in_u_w + 2 * in_v - in_vw - in_v_w

    table = group.character_table
    cu, cv, cw = table[u], table[v], table[w]
    f = cu * (2 + 2 * cw + 0.5 * np.conj(cw)) + cv * (2 - cw - np.conj(cw))
    total = complex(f @ mu)
    if abs(total - formula) > 1e-10:
        raise ArithmeticError(
            f"test-function integral mismatch: formula {formula} vs numeric {total}")
    return complex(formula)


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
