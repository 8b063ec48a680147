"""Norms of indicator functions on finite abelian groups via character sums.

The norm of the indicator chi_S, viewed through the self-dual pairing of a
finite abelian group, is the total variation of its inverse transform mu:
bs_norm(S) = sum_x |mu(x)| with mu(x) = (1/n) sum_{s in S} conj((x, s)).
Unions of two cosets have closed-form norms depending only on the relative
order q, and their mu is supported on an annihilator subgroup with an
explicit two-character density; both facts are implemented and checkable
here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .groups import (
    CosetAnalysis,
    Group,
    _bits,
    _block_rows,
    _mask,
    _members,
    _pairing_numerators,
    analyze_cosets,
    character_values,
    subset_size,
    validate_mask,
)


@dataclass(frozen=True)
class Thresholds:
    """The constants the classification theorems revolve around."""

    coset_bound: float            # (1 + sqrt 2)/2: below it only cosets occur
    two_coset_bound: float        # 4/3: below it only two-coset unions occur
    prior_coset_bound: float      # 2/sqrt(3): older, weaker coset threshold
    prior_two_coset_bound: float  # (sqrt(17) + 1)/4: older two-coset threshold
    pattern_norm: float           # 9/7: Schur norm of the forbidden 3x3 pattern
    pattern_witness_value: float  # sqrt(26)/4: explicit lower bound for it
    limit_q_inf: float            # 4/pi: limit of the two-coset norms


THRESHOLDS = Thresholds(
    coset_bound=(1 + math.sqrt(2)) / 2,
    two_coset_bound=4 / 3,
    prior_coset_bound=2 / math.sqrt(3),
    prior_two_coset_bound=(math.sqrt(17) + 1) / 4,
    pattern_norm=9 / 7,
    pattern_witness_value=math.sqrt(26) / 4,
    limit_q_inf=4 / math.pi,
)


def _indicator_tensor(group: Group, mask: int) -> np.ndarray:
    return _bits(mask, group.order).astype(float).reshape(group.factors)


def mu_values(group: Group, mask: int) -> np.ndarray:
    """Inverse transform of the indicator: mu(x) = (1/n) sum_{s in S} conj((x, s)),
    one FFT over the coordinate tensor."""
    group._require_abelian()
    mask = validate_mask(group, mask)
    spectrum = np.fft.fftn(_indicator_tensor(group, mask))
    return spectrum.reshape(-1) / group.order


def bs_norm(group: Group, mask: int) -> float:
    """Total variation sum_x |mu(x)|; 0 for the empty set, >= 1 otherwise."""
    mask = validate_mask(group, mask)
    if mask == 0:
        return 0.0
    return float(np.abs(mu_values(group, mask)).sum())


def two_coset_norm(q) -> float:
    """Closed-form norm of a union of two cosets with relative order q.

    Odd q: 2 / (q sin(pi/2q)); even q: 2 / (q tan(pi/2q)); q = inf: 4/pi.
    q = 2 gives 1, consistent with the two cosets merging into one.
    """
    if q == math.inf:
        return 4 / math.pi
    if q != int(q):
        raise ValueError(f"relative order must be an integer or inf, got {q}")
    q = int(q)
    if q < 2:
        raise ValueError(f"relative order must be >= 2 or inf, got {q}")
    if q % 2:
        return 2 / (q * math.sin(math.pi / (2 * q)))
    return 2 / (q * math.tan(math.pi / (2 * q)))


def predicted_norm(analysis: CosetAnalysis) -> Optional[float]:
    """Norm predicted from structure alone: 0, 1, the closed form, or None."""
    if analysis.kind == "empty":
        return 0.0
    if analysis.kind == "coset":
        return 1.0
    if analysis.kind == "two_cosets":
        return two_coset_norm(analysis.q)
    return None


def annihilator(group: Group, sub_mask: int) -> int:
    """Bitmask of {x : (x, s) = 1 for all s in the subgroup}: the x whose
    exact pairing numerator with every member is 0, a block of members at a
    time."""
    members = _members(validate_mask(group, sub_mask))
    flags = np.ones(group.order, dtype=bool)
    step = _block_rows(group, group.order)
    for lo in range(0, len(members), step):
        flags &= (_pairing_numerators(group, members[lo:lo + step]) == 0).all(axis=0)
    return _mask(flags)


@dataclass(frozen=True)
class MeasureFormResult:
    """Pointwise comparison of mu against the two-character density on the
    annihilator of the coset subgroup."""

    holds: bool
    subgroup: int          # bitmask of the annihilator H
    gamma1: int
    gamma2: int
    max_error: float


def verify_measure_form(group: Group, mask: int, tol: float = 1e-12) -> MeasureFormResult:
    """For S = (g1 + L) u (g2 + L), check pointwise that
    mu(x) = [conj((x, g1)) + conj((x, g2))] / |H| on H = annihilator(L), and 0 off H."""
    group._require_abelian()
    analysis = analyze_cosets(group, mask)
    if analysis.kind != "two_cosets":
        raise ValueError(f"subset is {analysis.kind}, not a union of two cosets")
    lam = analysis.subgroup
    g1, g2 = analysis.rep_a, analysis.rep_b
    ann = annihilator(group, lam)
    h_size = subset_size(ann)
    mu = mu_values(group, mask)
    chi1, chi2 = character_values(group, np.array([g1, g2]))
    expected = np.where(_bits(ann, group.order), (np.conj(chi1) + np.conj(chi2)) / h_size, 0)
    max_error = float(np.max(np.abs(mu - expected)))
    return MeasureFormResult(holds=max_error <= tol, subgroup=ann,
                             gamma1=g1, gamma2=g2, max_error=max_error)
