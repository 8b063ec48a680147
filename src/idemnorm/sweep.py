"""Exhaustive classification of subsets of a small group, up to translation.

For each canonical subset the sweep joins the structural analysis with the
computed norm (character sums on abelian groups, exact cb norms from the
multiplier matrix otherwise) and the structure-predicted norm, then asserts
the classification theorems at the requested tolerance:

  * a norm below (1+sqrt2)/2 only occurs for cosets, whose norm is 1;
  * on abelian groups a norm strictly inside (1, 4/3) only occurs for unions
    of two cosets, whose norm matches the closed form in the relative order.

Any counterexample is reported as a violation; subsets of kind "other" whose
norm sits at 4/3 are collected as extremal examples.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .bs import THRESHOLDS, bs_norm, mu_values, predicted_norm, two_coset_norm, verify_measure_form
from .groups import (
    CosetAnalysis,
    Group,
    analyze_cosets,
    is_subgroup,
    make_abelian_group,
    parse_group,
    subset_elements,
    subset_mask,
    translate_left,
)
from .multiplier import (
    cb_norm,
    closure_claim_check,
    forbidden_pattern_search,
    multiplier_matrix,
    progression_check,
)
from .schur import (
    check_certificate,
    forbidden_pattern,
    gamma2,
    orthogonal_witness,
    validate_tol,
    witness_lower_bound,
)
from .witness import (
    SUP_NORM_F,
    WitnessTriple,
    _witness_integral,
    find_witness,
    sup_norm_check,
    witness_integral,
)

SWEEP_ORDER_CAP = 24
DEFAULT_TOL_EXACT = 1e-9


def _translates(group: Group, mask: int) -> np.ndarray:
    """Every translate of S (uint64 bitmasks, one per translation), as an OR
    of the rows of the group's translation table that the bytes of S select."""
    table = group.translation_table
    out = table[0, mask & 255]
    for b in range(1, len(table)):
        out = out | table[b, (mask >> 8 * b) & 255]
    return out


def orbit(group: Group, mask: int) -> set[int]:
    """All translates of S: left translates for abelian groups, two-sided
    translates otherwise (norms are invariant under both)."""
    return set(_translates(group, mask).tolist())


def canonical_form(group: Group, mask: int) -> int:
    """Smallest bitmask in the translation orbit of S; idempotent."""
    return int(_translates(group, mask).min())


@dataclass(frozen=True)
class ClassificationRecord:
    subset: int
    orbit_size: int
    analysis: CosetAnalysis
    norm_lower: float
    norm_upper: float
    norm_exact: bool
    predicted: Optional[float]
    below_coset_bound: bool
    in_open_interval: bool
    extremal_other: bool
    witness: Optional[WitnessTriple]
    witness_bound: Optional[float]
    pattern: Optional[tuple[tuple[int, int, int], tuple[int, int, int]]]

    def to_dict(self) -> dict:
        return {
            "subset": subset_elements(self.subset),
            "orbit_size": self.orbit_size,
            "analysis": self.analysis.to_dict(),
            "norm_lower": self.norm_lower,
            "norm_upper": self.norm_upper,
            "norm_exact": self.norm_exact,
            "predicted": self.predicted,
            "below_coset_bound": self.below_coset_bound,
            "in_open_interval": self.in_open_interval,
            "extremal_other": self.extremal_other,
            "witness": None if self.witness is None else self.witness.to_dict(),
            "witness_bound": self.witness_bound,
            "pattern": None if self.pattern is None else
                       [list(self.pattern[0]), list(self.pattern[1])],
        }


def classify(group: Group, mask: int, tol: float = DEFAULT_TOL_EXACT) -> ClassificationRecord:
    """Full per-subset report: structure, norm, prediction, witness, pattern.

    The norm is the character sum on abelian groups and the cb norm
    otherwise; on abelian groups the two coincide (Bozejko-Fendler 1984),
    which the amenable_cross_check verify items confirm."""
    tol = validate_tol(tol)
    analysis = analyze_cosets(group, mask)
    witness = bound = None
    if group.is_abelian:
        # one transform serves the norm (bs_norm) and the witness integral
        mu = mu_values(group, mask)
        lower = upper = float(np.abs(mu).sum())
        exact = True
        witness = find_witness(group, mask)
        if witness is not None:
            bound = abs(_witness_integral(group, mask, witness, mu)) / SUP_NORM_F
    else:
        bounds = cb_norm(group, mask)
        lower, upper, exact = bounds.lower, bounds.upper, False
    predicted = predicted_norm(analysis)
    pattern = forbidden_pattern_search(group, mask)
    c1, c2 = THRESHOLDS.coset_bound, THRESHOLDS.two_coset_bound
    return ClassificationRecord(
        subset=mask,
        orbit_size=len(orbit(group, mask)),
        analysis=analysis,
        norm_lower=lower,
        norm_upper=upper,
        norm_exact=exact,
        predicted=predicted,
        below_coset_bound=upper < c1 - tol,
        in_open_interval=(lower > 1.0 + tol and upper < c2 - tol),
        extremal_other=(analysis.kind == "other"
                        and lower <= c2 + tol and upper >= c2 - tol),
        witness=witness,
        witness_bound=bound,
        pattern=pattern,
    )


@dataclass(frozen=True)
class SweepViolation:
    rule: str
    subset: int
    detail: str

    def to_dict(self) -> dict:
        return {"rule": self.rule, "subset": subset_elements(self.subset), "detail": self.detail}


@dataclass
class SweepReport:
    group_name: str
    order: int
    mode: str  # "character_sum" | "schur"
    tolerance: float
    records: list[ClassificationRecord]
    violations: list[SweepViolation]
    kind_totals: dict
    subset_total: int
    extremal: list[int]
    witness_presence: dict
    wall_time_s: Optional[float] = None

    def to_dict(self) -> dict:
        return {
            "group": self.group_name,
            "order": self.order,
            "mode": self.mode,
            "tolerance": self.tolerance,
            "records": [r.to_dict() for r in self.records],
            "violations": [v.to_dict() for v in self.violations],
            "kind_totals": self.kind_totals,
            "subset_total": self.subset_total,
            "extremal": [subset_elements(m) for m in self.extremal],
            "witness_presence": self.witness_presence,
        }

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["subset", "kind", "q", "norm_lower", "norm_upper",
                         "predicted", "orbit_size", "below_coset_bound",
                         "in_open_interval", "extremal_other"])
        for r in self.records:
            writer.writerow([
                " ".join(str(i) for i in subset_elements(r.subset)),
                r.analysis.kind,
                "" if r.analysis.q is None else r.analysis.q,
                repr(r.norm_lower),
                repr(r.norm_upper),
                "" if r.predicted is None else repr(r.predicted),
                r.orbit_size,
                int(r.below_coset_bound),
                int(r.in_open_interval),
                int(r.extremal_other),
            ])
        return buf.getvalue()


def _violations_for(group: Group, record: ClassificationRecord, tol: float) -> list[SweepViolation]:
    out = []
    kind = record.analysis.kind
    lower, upper = record.norm_lower, record.norm_upper
    c1, c2 = THRESHOLDS.coset_bound, THRESHOLDS.two_coset_bound
    subset = record.subset
    if kind not in ("coset", "empty") and lower <= c1 - tol:
        out.append(SweepViolation(
            rule="below_coset_threshold",
            subset=subset,
            detail=f"kind={kind} but norm lower bound {lower!r} <= {c1!r} - tol"))
    if group.is_abelian and kind != "two_cosets" and record.in_open_interval:
        out.append(SweepViolation(
            rule="open_interval_not_two_cosets",
            subset=subset,
            detail=f"kind={kind} with norm in ({1 + tol!r}, {c2 - tol!r})"))
    if record.predicted is not None:
        if lower - tol > record.predicted or upper + tol < record.predicted:
            out.append(SweepViolation(
                rule="predicted_norm_mismatch",
                subset=subset,
                detail=f"kind={kind}: bracket [{lower!r}, {upper!r}] "
                       f"misses predicted {record.predicted!r}"))
    return out


def sweep(group: Group, tol: float = DEFAULT_TOL_EXACT) -> SweepReport:
    """Classify every subset (one canonical representative per translation
    orbit, in increasing bitmask order) and check the classification
    theorems; see the module docstring for the violation rules."""
    tol = validate_tol(tol)
    if group.order > SWEEP_ORDER_CAP:
        raise ValueError(f"full sweep capped at order {SWEEP_ORDER_CAP}, group has {group.order}")
    started = time.perf_counter()
    records = [classify(group, mask, tol) for mask in range(1 << group.order)
               if canonical_form(group, mask) == mask]

    violations = []
    kind_totals: dict = {}
    witness_presence: dict = {}
    subset_total = 0
    extremal = []
    for record in records:
        kind = record.analysis.kind
        slot = kind_totals.setdefault(kind, {"classes": 0, "subsets": 0})
        slot["classes"] += 1
        slot["subsets"] += record.orbit_size
        subset_total += record.orbit_size
        label = f"two_cosets_q{record.analysis.q}" if kind == "two_cosets" else kind
        wslot = witness_presence.setdefault(label, {"classes": 0, "with_witness": 0})
        wslot["classes"] += 1
        if record.witness is not None:
            wslot["with_witness"] += 1
        violations.extend(_violations_for(group, record, tol))
        if record.extremal_other:
            extremal.append(record.subset)
    return SweepReport(
        group_name=group.name,
        order=group.order,
        mode="character_sum" if group.is_abelian else "schur",
        tolerance=tol,
        records=records,
        violations=violations,
        kind_totals=kind_totals,
        subset_total=subset_total,
        extremal=extremal,
        witness_presence=witness_presence,
        wall_time_s=time.perf_counter() - started,
    )


# -- one-shot verification ------------------------------------------------------

DEFAULT_GROUP_SPECS = ("Z3", "Z4", "Z5", "Z6", "Z7", "Z8", "Z9", "Z10",
                       "Z2xZ2xZ2", "Z2xZ4", "Z3xZ3", "S3", "D4", "Q8")

AMENABLE_CROSS_CHECK_MAX_ORDER = 6


@dataclass(frozen=True)
class VerificationItem:
    name: str
    passed: bool
    detail: str

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


@dataclass(frozen=True)
class VerificationSummary:
    items: tuple[VerificationItem, ...]
    passed: bool

    def to_dict(self) -> dict:
        return {"items": [i.to_dict() for i in self.items], "passed": self.passed}


def _item(name: str, passed: bool, detail: str) -> VerificationItem:
    return VerificationItem(name=name, passed=bool(passed), detail=detail)


def _proof_chain_item(group: Group, records: Sequence[ClassificationRecord]) -> VerificationItem:
    """The paper's route to the forbidden pattern, class by class: translate
    S to S' = a^-1 S (a its least element), so e lies in S'; when S' has the
    progression property, every closure violation (u, v) must put the exact
    pattern at rows (e, u^-1, v^-1) and columns (e, u, v) of the multiplier
    matrix of S', and the class record must have found a pattern."""
    e = group.identity
    target = forbidden_pattern()
    chains = 0
    failures = []
    for record in records:
        if record.subset == 0:
            continue
        a = (record.subset & -record.subset).bit_length() - 1
        moved = translate_left(group, group.inv(a), record.subset)
        if progression_check(group, moved):
            continue
        violations = closure_claim_check(group, moved)
        matrix = multiplier_matrix(group, moved) if violations else None
        for u, v in violations:
            chains += 1
            rows, cols = (e, group.inv(u), group.inv(v)), (e, u, v)
            if not (matrix[np.ix_(rows, cols)] == target).all() or record.pattern is None:
                failures.append(f"S={subset_elements(record.subset)}: (u, v) = ({u}, {v})")
    return _item(f"proof_chain_{group.name}", not failures,
                 f"{chains} chains checked: " + ("; ".join(failures) or
                 "progression property and a closure violation give the forbidden pattern"))


def run_verification(group_specs: Optional[Sequence[str]] = None,
                     tol: float = DEFAULT_TOL_EXACT) -> VerificationSummary:
    """Run every headline check: constants, the envelope identity, the pattern
    witness and its Schur norm, closed-form cross checks, the 4/pi limit,
    measure forms, amenable cross checks, the classification sweeps, and the
    proof chain to the forbidden pattern."""
    tol = validate_tol(tol)
    specs = DEFAULT_GROUP_SPECS if group_specs is None else tuple(group_specs)
    groups = [parse_group(s) for s in specs]
    items: list[VerificationItem] = []

    t = THRESHOLDS
    clauses = (
        ("1 < 2/sqrt3 < (1+sqrt2)/2 < sqrt26/4 < (sqrt17+1)/4 < 4/3",
         1.0 < t.prior_coset_bound < t.coset_bound < t.pattern_witness_value
         < t.prior_two_coset_bound < t.two_coset_bound),
        ("(1+sqrt2)/2 < 4/pi < sqrt26/4",
         t.coset_bound < t.limit_q_inf < t.pattern_witness_value),
        ("(sqrt17+1)/4 < 9/7 < 4/3",
         t.prior_two_coset_bound < t.pattern_norm < t.two_coset_bound),
    )
    items.append(_item("threshold_ordering", all(holds for _, holds in clauses),
                       "; ".join(text if holds else f"violated: {text}"
                                 for text, holds in clauses)))

    env = sup_norm_check(1_000_000)
    items.append(_item(
        "envelope_constant_9_2",
        abs(env.max_f - 4.5) <= 1e-12 and env.max_identity_error <= 1e-12,
        f"max_f={env.max_f!r} max_identity_error={env.max_identity_error!r}"))

    pattern = forbidden_pattern()
    fixed_value = witness_lower_bound(pattern, orthogonal_witness())
    items.append(_item(
        "pattern_fixed_witness",
        abs(fixed_value - t.pattern_witness_value) <= 1e-12
        and fixed_value > t.coset_bound,
        f"witness value {fixed_value!r} vs sqrt(26)/4 = {t.pattern_witness_value!r}"))

    bounds = gamma2(pattern, 1e-3)
    cert_ok = check_certificate(pattern, bounds.certificate.p, bounds.certificate.q,
                                bounds.certificate.c, tol=1e-8)
    items.append(_item(
        "pattern_schur_norm",
        bounds.lower >= t.pattern_norm - 1e-3 and bounds.upper <= t.pattern_norm + 1e-3
        and cert_ok,
        f"bracket [{bounds.lower!r}, {bounds.upper!r}] around 9/7, certificate ok={cert_ok}"))

    closed_form_ok = True
    details = []
    for q in range(3, 13):
        group = make_abelian_group([q])
        measured = bs_norm(group, subset_mask(group, [0, 1]))
        expected = two_coset_norm(q)
        if abs(measured - expected) > tol:
            closed_form_ok = False
            details.append(f"q={q}: {measured!r} vs {expected!r}")
    items.append(_item("two_coset_closed_form_q3_12", closed_form_ok,
                       "; ".join(details) or "character sums match the closed form"))

    limit_ok = abs(two_coset_norm(501) - t.limit_q_inf) <= 1e-4
    evens = [two_coset_norm(q) for q in range(2, 502, 2)]
    odds = [two_coset_norm(q) for q in range(3, 502, 2)]
    # even values increase towards 4/pi from below; odd values decrease towards
    # it from above (the largest, 4/3, sits at q=3)
    mono_ok = (all(a < b for a, b in zip(evens, evens[1:]))
               and all(a > b for a, b in zip(odds, odds[1:]))
               and evens[-1] < t.limit_q_inf < odds[-1])
    items.append(_item("two_coset_limit_4_over_pi", limit_ok and mono_ok,
                       f"|value(501) - 4/pi| = {abs(two_coset_norm(501) - t.limit_q_inf):.2e}, "
                       f"monotone approach from both sides: {mono_ok}"))

    for group in groups:
        report = sweep(group, tol=tol)
        items.append(_item(
            f"sweep_{group.name}",
            not report.violations and report.subset_total == (1 << group.order),
            f"{len(report.records)} classes, {len(report.violations)} violations"))

        if group.is_abelian:
            measure_ok = True
            measure_details = []
            witness_ok = True
            for record in report.records:
                if record.analysis.kind == "two_cosets":
                    result = verify_measure_form(group, record.subset)
                    if not result.holds:
                        measure_ok = False
                        measure_details.append(
                            f"S={subset_elements(record.subset)}: err={result.max_error:.2e}")
                if record.witness is not None:
                    integral = witness_integral(group, record.subset, record.witness)
                    if abs(integral - 6.0) > 1e-10 and abs(integral - 6.5) > 1e-10:
                        witness_ok = False
                    if record.witness_bound - 1e-9 > record.norm_lower:
                        witness_ok = False
            items.append(_item(f"measure_form_{group.name}", measure_ok,
                               "; ".join(measure_details) or
                               "two-coset mu matches the annihilator density"))
            items.append(_item(f"witness_integrals_{group.name}", witness_ok,
                               "integrals in {6, 13/2}; bounds below the norm"))

        pattern_ok = True
        pattern_details = []
        target = forbidden_pattern()
        for record in report.records:
            if record.pattern is not None:
                rows, cols = record.pattern
                matrix = multiplier_matrix(group, record.subset)
                exact = bool((matrix[np.ix_(rows, cols)] == target).all())
                if not exact:
                    pattern_ok = False
                    pattern_details.append(f"S={subset_elements(record.subset)}: inexact hit")
                if group.order <= 64:
                    cb = cb_norm(group, record.subset)
                    if cb.lower < t.pattern_norm - tol:
                        pattern_ok = False
                        pattern_details.append(
                            f"S={subset_elements(record.subset)}: lower {cb.lower!r} < 9/7 - tol")
        for sub in range(1 << group.order):
            if is_subgroup(group, sub) and forbidden_pattern_search(group, sub) is not None:
                pattern_ok = False
                pattern_details.append(f"subgroup {subset_elements(sub)} has a pattern hit")
        items.append(_item(f"pattern_soundness_{group.name}", pattern_ok,
                           "; ".join(pattern_details) or
                           "hits exact, bounded below by 9/7; subgroups clean"))
        items.append(_proof_chain_item(group, report.records))

        if group.is_abelian and group.order <= AMENABLE_CROSS_CHECK_MAX_ORDER:
            cross_ok = True
            cross_details = []
            for record in report.records:
                bounds = cb_norm(group, record.subset)
                value = bs_norm(group, record.subset)
                if not (bounds.lower - tol <= value <= bounds.upper + tol):
                    cross_ok = False
                    cross_details.append(
                        f"S={subset_elements(record.subset)}: {value!r} outside "
                        f"[{bounds.lower!r}, {bounds.upper!r}]")
            items.append(_item(f"amenable_cross_check_{group.name}", cross_ok,
                               "; ".join(cross_details) or
                               "character-sum norms inside the Schur brackets"))

    return VerificationSummary(items=tuple(items), passed=all(i.passed for i in items))
