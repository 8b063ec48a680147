"""Witness triples certifying the 4/3 lower bound on abelian groups.

A witness is (u, v, w) with u, v in S, u+w in S, and both v+w and v-w outside
S.  Pairing mu against the fixed test function

    f(x) = (x,u) [2 + 2 (x,w) + (1/2)(x,-w)] + (x,v) [2 - (x,w) - (x,-w)]

gives an integral of modulus 6 or 13/2 while sup|f| = 9/2 identically, so any
witness forces bs_norm(S) >= 6/(9/2) = 4/3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bs import mu_values
from .groups import Group, _bits, _members, _products_in, character_values, validate_mask

SUP_NORM_F = 4.5


@dataclass(frozen=True)
class WitnessTriple:
    u: int
    v: int
    w: int

    def to_dict(self) -> dict:
        return {"u": self.u, "v": self.v, "w": self.w}


def make_witness(group: Group, mask: int, u: int, v: int, w: int) -> WitnessTriple:
    """Validated witness construction; raises if the membership pattern fails."""
    group._require_abelian()
    mask = validate_mask(group, mask)
    if not all(0 <= x < group.order for x in (u, v, w)):
        raise ValueError(f"(u={u}, v={v}, w={w}) has an element outside 0..{group.order - 1}")
    e, w_inv = group.identity, group.inv(w)
    # u, v, u+w in S; v+w, v-w outside
    has_u, has_v, has_uw, has_vw, has_vw_inv = _bits(mask, group.order)[
        group.mul_array([u, v, u, v, v], [e, e, w, w, w_inv])]
    if not (has_u and has_v and has_uw and not has_vw and not has_vw_inv):
        raise ValueError(f"(u={u}, v={v}, w={w}) is not a valid witness for this subset")
    return WitnessTriple(u=u, v=v, w=w)


def find_witness(group: Group, mask: int) -> Optional[WitnessTriple]:
    """First witness in lexicographic (u, v, w) order, or None.

    Cosets never admit one, and neither does any union of two cosets observed
    in the bundled sweeps; sets outside those classes frequently do.
    """
    group._require_abelian()
    mask = validate_mask(group, mask)
    members = _members(mask)
    flags = _bits(mask, group.order)
    # [i, w]: members[i] + w in S; [j, w]: members[j] + w and members[j] - w
    # both outside S
    shifted_in = _products_in(group, flags, members, np.arange(group.order))
    outside = ~shifted_in & ~_products_in(group, flags, members, group._inverse)
    for i, u in enumerate(members):
        hits = shifted_in[i] & outside
        if hits.any():
            j, w = np.unravel_index(np.argmax(hits), hits.shape)
            return WitnessTriple(u=int(u), v=int(members[j]), w=int(w))
    return None


def witness_integral(group: Group, mask: int, triple: WitnessTriple) -> complex:
    """Integral of the test function against mu, computed two independent ways.

    (a) Membership formula: 2 chi(u) + 2 chi(u+w) + (1/2) chi(u-w) + 2 chi(v)
        - chi(v+w) - chi(v-w); for a valid witness this is 6 or 13/2 depending
        on whether u-w lies in S.
    (b) Numerically: sum_x f(x) mu(x) over the whole group.
    The two paths must agree to 1e-10; disagreement raises ArithmeticError.
    """
    triple = make_witness(group, mask, triple.u, triple.v, triple.w)
    u, v, w = triple.u, triple.v, triple.w
    e, w_inv = group.identity, group.inv(w)
    # chi(u), chi(u+w), chi(u-w), chi(v), chi(v+w), chi(v-w): halves, summed exactly
    chi = _bits(mask, group.order)[group.mul_array([u, u, u, v, v, v],
                                                   [e, w, w_inv, e, w, w_inv])]
    formula = float(np.dot([2, 2, 0.5, 2, -1, -1], chi))

    mu = mu_values(group, mask)
    cu, cv, cw = character_values(group, np.array([u, v, w]))
    f = cu * (2 + 2 * cw + 0.5 * np.conj(cw)) + cv * (2 - cw - np.conj(cw))
    total = complex(f @ mu)
    if abs(total - formula) > 1e-10:
        raise ArithmeticError(
            f"test-function integral mismatch: formula {formula} vs numeric {total}")
    return complex(formula)


def witness_norm_bound(group: Group, mask: int, triple: WitnessTriple) -> float:
    """|integral| / (9/2); always >= 4/3 for a valid witness, and always a
    lower bound for bs_norm(S)."""
    return abs(witness_integral(group, mask, triple)) / SUP_NORM_F


@dataclass(frozen=True)
class SupNormCheck:
    max_f: float
    max_identity_error: float

    def to_dict(self) -> dict:
        return {"max_f": self.max_f, "max_identity_error": self.max_identity_error}


def sup_norm_check(grid_points: int) -> SupNormCheck:
    """Grid verification that the test-function envelope is constant.

    On a uniform theta grid this checks (a) the algebraic identity
    sqrt(25/4 + 10 cos t + 4 cos^2 t) = 5/2 + 2 cos t (the radicand is a
    perfect square since 5/2 + 2 cos t >= 1/2 > 0), and (b) that
    |2 + 2 e^{it} + (1/2) e^{-it}| + |2 - e^{it} - e^{-it}| is identically 9/2.
    """
    if grid_points < 3:
        raise ValueError("need at least 3 grid points")
    theta = np.linspace(0.0, 2 * np.pi, grid_points, endpoint=False)
    cos_t = np.cos(theta)
    radicand = 25.0 / 4.0 + 10.0 * cos_t + 4.0 * cos_t ** 2
    identity_error = float(np.max(np.abs(np.sqrt(radicand) - (2.5 + 2.0 * cos_t))))
    z = np.exp(1j * theta)
    envelope = np.abs(2 + 2 * z + 0.5 * np.conj(z)) + np.abs(2 - z - np.conj(z))
    max_f = float(np.max(envelope))
    deviation = float(np.max(np.abs(envelope - SUP_NORM_F)))
    return SupNormCheck(max_f=max_f, max_identity_error=max(identity_error, deviation))
