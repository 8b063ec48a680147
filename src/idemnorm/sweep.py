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

A sweep works a block of 2^12 masks at a time, the masks that share their
bits from 12 up (class_blocks, a generator of each block's records).
_build_block holds the block's _Block: the canonical form of every mask in
it, and the finished record of each mask that is its own form, at the
sweep's tolerance (_classify: the array kernels of _class_layers over
slices of 128 masks, then _records).  The sweep then calls canonical_form
on every mask of the block in increasing order and classify on each mask
that is its own form, and each call is a lookup.  The report's summary is
one fold over those blocks (fold_sweep), which keeps no record: sweep()
collects them through its each_block, and the CLI's CSV and text reports
keep none.  A CSV report is CSV_HEADER and csv_lines' rows, one f-string a
record, from the two text helpers that the CLI's JSON records share:
groups.subset_text for the elements and float_text, a memo of
float.__repr__, for the floats.
Outside a sweep nothing builds a block: canonical_form of a mask that the
held block does not answer is the least of its own translates, one row,
and classify of one is a batch of one through _classify.

Every group takes the one stack: _class_layers reads the stabilizers off
the translate rows on abelian and Cayley groups alike, and the norm is the
character sum on the first and the cb bracket of multiplier._cb_brackets on
the second, so _records only names each analysis and builds its record.
No class calls analyze_cosets or cb_norm, and verify's amenable cross check
takes its brackets from _cb_brackets over the sweep's records too.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .bs import THRESHOLDS, bs_norm, measure_form_of, predicted_norm, two_coset_norm
from .groups import (
    CosetAnalysis,
    Group,
    _lowest,
    _name_by_stabilizer,
    _row_masks,
    _spectra,
    _translates,
    # not called here; it stays importable as sweep.analyze_cosets, which
    # perfbench's tracer test asserts is groups.analyze_cosets
    analyze_cosets,  # noqa: F401
    make_abelian_group,
    parse_group,
    subset_elements,
    subset_mask,
    subset_text,
    translate_left,
    validate_mask,
)
from .multiplier import (
    _cb_brackets,
    _pattern_searches,
    closure_claim_check,
    has_progression_property,
    multiplier_matrix,
)
from .schur import (
    forbidden_pattern,
    orthogonal_witness,
    pattern_norm_identities,
    validate_tol,
    witness_lower_bound,
)
from .witness import (
    SUP_NORM_F,
    WitnessTriple,
    _find_witnesses,
    _witness_integrals,
    envelope_identities,
)

SWEEP_ORDER_CAP = 24
DEFAULT_TOL_EXACT = 1e-9

# canonical forms and class records are built a block of 2^12 masks at a
# time: the masks that share their bits from 12 up
_BLOCK_BITS = 12
_BLOCK_LOW = (1 << _BLOCK_BITS) - 1
# the most masks that one _class_layers call stacks: 128 keeps the kernels'
# temporaries, which grow with the order, small beside a streamed sweep
_LAYER_SLICE = 128


@dataclass(frozen=True, slots=True)
class _Block:
    """The canonical forms of the masks (high << 12) | v of one group, for
    every v below 2^min(n, 12), and the class record of each of those
    masks that is its own form at the tolerance tol, keyed by mask.
    Nothing in a block changes after _build_block holds it, so a caller
    that reads _held once sees one consistent block even when another
    sweep holds a new one meanwhile."""

    group: Optional[Group]
    high: int
    tol: float
    forms: list[int]
    records: dict[int, "ClassificationRecord"]


# the one block kept: the last that a sweep built
_held = _Block(None, -1, DEFAULT_TOL_EXACT, [], {})


def canonical_form(group: Group, mask: int) -> int:
    """Smallest bitmask in the translation orbit of S, as a Python int;
    idempotent.  A lookup into the held _Block when S lies in it, as every
    mask of a sweep does; any other mask is the least of its own
    translates, one row, and builds nothing.  A mask that is not an int in
    0..2^n - 1 raises validate_mask's ValueError at no cost per lookup: a
    held block's high bits are in range, its forms stop at the mask 2^n - 1,
    and a mask that cannot be shifted (a float, a str, None) fails the
    shift."""
    block = _held
    try:
        if block.group is group and block.high == mask >> _BLOCK_BITS:
            return block.forms[mask & _BLOCK_LOW]
    except (IndexError, TypeError):
        validate_mask(group, mask)
        raise
    return int(_translates(group, validate_mask(group, mask)).min())


def _build_block(group: Group, high: int, tol: float) -> range:
    """Hold the _Block of the masks (high << 12) | v at tol, and return
    the range of those masks, which a sweep then asks.  A translate
    is an OR over bytes: each row of the lowest byte's translation table is
    ORed with the one row that translates the high part, then, for each
    value of bits 8..11 in turn, with that value's row of the second
    byte's table, and the row minima are the forms.  So the temporaries
    stay at 256 rows of translates whatever the group.  The masks equal to
    their forms are then classified as one _classify stack."""
    global _held
    base = high << _BLOCK_BITS
    table = group.translation_table
    low = table[0] | _translates(group, base)
    n = group.order
    if n <= 8:
        minima = low.min(axis=1)[:1 << n]
    else:
        minima = np.concatenate([(low | row).min(axis=1)
                                 for row in table[1, :1 << min(n - 8, _BLOCK_BITS - 8)]])
    masks = np.uint64(base) + np.arange(len(minima), dtype=np.uint64)
    canonical = masks[minima == masks]
    records = dict(zip(canonical.tolist(), _classify(group, canonical, tol)))
    _held = _Block(group, high, tol, minima.tolist(), records)
    return range(base, base + len(minima))


def _classify(group: Group, masks: np.ndarray, tol: float) -> list["ClassificationRecord"]:
    """classify's record of each of a uint64 stack of masks, in any order
    and canonical or not: _class_layers over slices of at most 128 masks,
    each with its rows from _translates, then _records at the tolerance."""
    layers: list[tuple] = []
    for lo in range(0, len(masks), _LAYER_SLICE):
        part = masks[lo:lo + _LAYER_SLICE]
        layers += _class_layers(group, part, _translates(group, part))
    return _records(group, masks.tolist(), layers, tol)


def _class_layers(group: Group, masks: np.ndarray, rows: np.ndarray) -> list[tuple]:
    """(orbit size, right stabilizer, stabilizer, norm lower, norm upper,
    witness, witness bound, pattern) for each of a stack of subsets, from
    their uint64 masks (B,) and translate rows (B, T), each layer one array
    kernel over the stack:

      * the translates equal to S, rows == masks[:, None]: the orbit size
        is T over their number (orbit-stabilizer).  On abelian groups they
        are the stabilizer, on both sides.  On Cayley groups, with
        translate t n + u the set t S u, the columns t = e are the right
        stabilizer R = {u : S u = S}, the columns u = e the left one
        {t : t S = S}, and the stabilizer is the two;
      * the norm: on abelian groups mu from groups._spectra and the
        character sum sum |mu|, exact, and on Cayley groups the cb bracket
        of multiplier._cb_brackets;
      * on abelian groups, the witness search (_find_witnesses) and, for
        the sets that have a witness, the integral checked two ways
        (_witness_integrals), whose bound is |integral| / (9/2).  The
        sets of the stack that share a triple (u, v, w) share one frozen
        WitnessTriple: the 1,166 witnesses of a Z14 sweep hold 49
        distinct triples in 143 objects, against 1,166 objects built one
        a set.  Cayley groups have no witness layer (None);
      * the pattern search (_pattern_searches) over the rows of the
        multiplier matrix: the translates on abelian groups, the left
        translates t S e among the two-sided ones otherwise."""
    count = len(masks)
    fixed = rows == masks[:, None]
    orbit_sizes = (rows.shape[1] // fixed.sum(axis=1)).tolist()
    witnesses: list[Optional[WitnessTriple]] = [None] * count
    bounds: list[Optional[float]] = [None] * count
    if not group.is_abelian:
        n, e = group.order, group.identity
        right = _row_masks(fixed[:, e * n:(e + 1) * n])
        lower, upper = _cb_brackets(group, masks)[:2]
        return list(zip(orbit_sizes, right.tolist(), (right & _row_masks(fixed[:, e::n])).tolist(),
                        lower.tolist(), upper.tolist(), witnesses, bounds,
                        _pattern_searches(rows[:, e::n])))
    mu = _spectra(group, masks) / group.order
    norms = np.abs(mu).sum(axis=1).tolist()
    stabilizers = _row_masks(fixed).tolist()
    triples = _find_witnesses(group, masks, rows)
    has = triples[:, 0] >= 0
    integrals = _witness_integrals(group, masks[has], rows[has], triples[has], mu[has])
    made: dict[tuple[int, int, int], WitnessTriple] = {}
    for i, triple, bound in zip(np.flatnonzero(has).tolist(), map(tuple, triples[has].tolist()),
                                (np.abs(integrals) / SUP_NORM_F).tolist()):
        witness = made.get(triple)
        if witness is None:
            witness = made[triple] = WitnessTriple(*triple)
        witnesses[i], bounds[i] = witness, bound
    return list(zip(orbit_sizes, stabilizers, stabilizers, norms, norms, witnesses, bounds,
                    _pattern_searches(rows)))


@dataclass(frozen=True, slots=True)
class ClassificationRecord:
    """One translation class of a sweep: its canonical subset, structure,
    norm bracket, prediction, flags, witness and pattern.  Slotted, since a
    sweep holds one per class (52,488 on Z20): 136 bytes a record, against
    232 with an instance dict."""

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
    which the amenable_cross_check verify items confirm.  S's record is
    read from the held _Block when it holds one for S at the same
    tolerance, as it does for every class of a sweep; any other S, one not
    canonical, of a block not held or at another tolerance, is a batch of
    one through _classify, which builds no block."""
    tol = validate_tol(tol)
    mask = validate_mask(group, mask)
    block = _held
    if (block.group is group and block.high == mask >> _BLOCK_BITS and block.tol == tol
            and (record := block.records.get(mask)) is not None):
        return record
    return _classify(group, np.array([mask], dtype=np.uint64), tol)[0]


def _records(group: Group, masks: Sequence[int], layers: Sequence[tuple],
             tol: float) -> list[ClassificationRecord]:
    """The ClassificationRecord of each of a batch of subsets from its
    _class_layers: the analysis named by _name_by_stabilizer from the
    right stabilizer R and the stabilizer, as analyze_cosets names it (on
    abelian groups R is the stabilizer), then predicted_norm and the three
    flags at the tolerance."""
    c1, c2 = THRESHOLDS.coset_bound, THRESHOLDS.two_coset_bound
    exact = group.is_abelian
    out = []
    for mask, layer in zip(masks, layers):
        orbit_size, right, stab, lower, upper, witness, bound, pattern = layer
        analysis = _name_by_stabilizer(group, mask, right, stab)
        # by position, in the field order of ClassificationRecord: a third
        # cheaper than by keyword, per class
        out.append(ClassificationRecord(
            mask, orbit_size, analysis, lower, upper, exact, predicted_norm(analysis),
            upper < c1 - tol,  # below_coset_bound
            lower > 1.0 + tol and upper < c2 - tol,  # in_open_interval
            analysis.kind == "other" and lower <= c2 + tol and upper >= c2 - tol,  # extremal_other
            witness, bound, pattern,
        ))
    return out


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
        return {**self.summary(), "records": [r.to_dict() for r in self.records]}

    def summary(self) -> dict:
        """to_dict without the records: every key but "records"."""
        return {
            "group": self.group_name,
            "order": self.order,
            "mode": self.mode,
            "tolerance": self.tolerance,
            "violations": [v.to_dict() for v in self.violations],
            "kind_totals": self.kind_totals,
            "subset_total": self.subset_total,
            "extremal": [subset_elements(m) for m in self.extremal],
            "witness_presence": self.witness_presence,
        }

    def to_csv(self) -> str:
        """The CSV report: CSV_HEADER, then one row a record (csv_lines)."""
        return CSV_HEADER + csv_lines(self.records)


# float.__repr__ of a float, for at most 2^12 distinct floats: a sweep's
# classes share their norms (Z20's 52,488 records hold 8,556 distinct
# floats, and nine in ten of its CSV floats are read from here)
_float_memo = functools.lru_cache(maxsize=1 << 12, typed=True)(float.__repr__)


def float_text(value: float) -> str:
    """float.__repr__ of a float: its CSV field and, when finite, its JSON
    number.  A float that is neither zero nor NaN is read from _float_memo:
    two such floats that compare equal have the same bits, so the same
    text.  0.0 == -0.0 and NaN equals nothing, so those are written each
    time."""
    return _float_memo(value) if value and value == value else float.__repr__(value)


# the first line of a sweep's CSV report, which to_csv and the CLI write
CSV_HEADER = ("subset,kind,q,norm_lower,norm_upper,predicted,orbit_size,"
              "below_coset_bound,in_open_interval,extremal_other\r\n")


def csv_lines(records: Iterable[ClassificationRecord]) -> str:
    """One CSV row for each record, byte for byte as csv.writer's default
    dialect writes it, each line ending in \r\n: no field of a sweep
    record holds a comma, a quote or a line break, so none is quoted.  The
    subset is its elements joined by blanks (subset_text), the floats are
    float_text's, None is an empty field and a flag is 0 or 1.  to_csv is
    CSV_HEADER and the rows of every record, and the CLI writes a sweep's
    rows a block at a time."""
    return "".join([
        f"{subset_text(r.subset, ' ')},{r.analysis.kind},"
        f"{'' if r.analysis.q is None else r.analysis.q},"
        f"{float_text(r.norm_lower)},{float_text(r.norm_upper)},"
        f"{'' if r.predicted is None else float_text(r.predicted)},{r.orbit_size},"
        f"{r.below_coset_bound:d},{r.in_open_interval:d},{r.extremal_other:d}\r\n"
        for r in records])


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


def class_blocks(group: Group, tol: float) -> Iterator[list[ClassificationRecord]]:
    """The records of a sweep of the group at tol, a block at a time: for
    each block of 2^12 masks in increasing order, the record of each mask
    of it that is its own canonical form, in increasing order.  The
    block's canonical_form and classify calls are lookups into the block
    that _build_block holds; a block is built only when it is asked for."""
    for high in range(max(1, (1 << group.order) >> _BLOCK_BITS)):
        yield [classify(group, mask, tol) for mask in _build_block(group, high, tol)
               if canonical_form(group, mask) == mask]


def fold_sweep(group: Group, tol: float = DEFAULT_TOL_EXACT,
               each_block: Optional[Callable[[list[ClassificationRecord]], object]] = None
               ) -> SweepReport:
    """Classify every subset (one canonical representative per translation
    orbit, in increasing bitmask order) and check the classification
    theorems; see the module docstring for the violation rules.  The
    summary (kind totals, witness presence, subset total, extremal
    classes, violations, wall time) is one fold over class_blocks, and
    each_block, when given, is called on each block's records once they
    are folded, so a caller can write or keep them as they come.  The
    report holds no record: the fold holds one block's records at a time,
    and the class count is the sum of the kind totals' classes."""
    tol = validate_tol(tol)
    if group.order > SWEEP_ORDER_CAP:
        raise ValueError(f"full sweep capped at order {SWEEP_ORDER_CAP}, group has {group.order}")
    started = time.perf_counter()
    violations = []
    # each slot is made once, on its kind's or label's first record
    kind_totals = defaultdict(lambda: {"classes": 0, "subsets": 0})
    witness_presence = defaultdict(lambda: {"classes": 0, "with_witness": 0})
    subset_total = 0
    extremal = []
    for block in class_blocks(group, tol):
        for record in block:
            kind = record.analysis.kind
            slot = kind_totals[kind]
            slot["classes"] += 1
            slot["subsets"] += record.orbit_size
            subset_total += record.orbit_size
            label = f"two_cosets_q{record.analysis.q}" if kind == "two_cosets" else kind
            wslot = witness_presence[label]
            wslot["classes"] += 1
            if record.witness is not None:
                wslot["with_witness"] += 1
            violations.extend(_violations_for(group, record, tol))
            if record.extremal_other:
                extremal.append(record.subset)
        if each_block is not None:
            each_block(block)
    return SweepReport(
        group_name=group.name,
        order=group.order,
        mode="character_sum" if group.is_abelian else "schur",
        tolerance=tol,
        records=[],
        violations=violations,
        kind_totals=dict(kind_totals),
        subset_total=subset_total,
        extremal=extremal,
        witness_presence=dict(witness_presence),
        wall_time_s=time.perf_counter() - started,
    )


def sweep(group: Group, tol: float = DEFAULT_TOL_EXACT) -> SweepReport:
    """Classify every subset of the group and check the classification
    theorems: fold_sweep's report, with every record, which its each_block
    collects."""
    records: list[ClassificationRecord] = []
    report = fold_sweep(group, tol, each_block=records.extend)
    report.records = records
    return report


# -- one-shot verification ------------------------------------------------------

DEFAULT_GROUP_SPECS = ("Z3", "Z4", "Z5", "Z6", "Z7", "Z8", "Z9", "Z10",
                       "Z2xZ2xZ2", "Z2xZ4", "Z3xZ3", "S3", "D4", "Q8")

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


def _verdict(name: str, failures: Sequence[str], passing: str) -> VerificationItem:
    """An item that passes exactly when it has no failures; its detail
    lists them, or else says what passed."""
    return _item(name, not failures, "; ".join(failures) or passing)


def _identities_item(name: str, claim: str, identities: dict[str, bool]) -> VerificationItem:
    """An item proved by integer identities, which passes exactly when all
    of them hold; its detail is the claim, then each identity's name with
    whether it holds."""
    return _item(name, all(identities.values()),
                 f"{claim}: " + "; ".join(
                     f"{key} {'holds' if holds else 'FAILS'}" for key, holds in identities.items()))


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
        a = _lowest(record.subset)
        moved = translate_left(group, group.inv(a), record.subset)
        if not has_progression_property(group, moved):
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
    proof chain to the forbidden pattern.  The envelope's 9/2 and the
    pattern's norm 9/7 are decided by integer identities alone
    (witness.envelope_identities and pattern_norm_identities): no grid is
    evaluated, no solver runs, and tol does not enter.  An item over many
    classes (_verdict) passes exactly when its list of failures is empty,
    and its detail then names each failing class.  The per-group items read each class from
    its sweep record and recompute nothing it holds: pattern soundness
    compares the recorded norm with 9/7 and finds the subgroups among the
    coset classes, and on abelian groups the amenable cross check compares
    the recorded character sum of every class with its cb bracket, from
    _cb_brackets over the records 128 at a time.  So each class's cb
    bracket is computed once on every group, in the sweep's stacks on a
    Cayley group and in the cross check on an abelian one."""
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

    items.append(_identities_item("envelope_constant_9_2",
                                  "exactly 9/2 by four integer identities", envelope_identities()))

    pattern = forbidden_pattern()
    fixed_value = witness_lower_bound(pattern, orthogonal_witness())
    items.append(_item(
        "pattern_fixed_witness",
        abs(fixed_value - t.pattern_witness_value) <= 1e-12
        and fixed_value > t.coset_bound,
        f"witness value {fixed_value!r} vs sqrt(26)/4 = {t.pattern_witness_value!r}"))

    items.append(_identities_item("pattern_schur_norm",
                                  "exactly 9/7 by four integer identities", pattern_norm_identities()))

    failures = []
    for q in range(3, 13):
        group = make_abelian_group([q])
        measured = bs_norm(group, subset_mask(group, [0, 1]))
        expected = two_coset_norm(q)
        if abs(measured - expected) > tol:
            failures.append(f"q={q}: {measured!r} vs {expected!r}")
    items.append(_verdict("two_coset_closed_form_q3_12", failures,
                          "character sums match the closed form"))

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
            measure_failures = []
            witness_failures = []
            for record in report.records:
                if record.analysis.kind == "two_cosets":
                    result = measure_form_of(group, record.subset, record.analysis)
                    if not result.holds:
                        measure_failures.append(
                            f"S={subset_elements(record.subset)}: err={result.max_error:.2e}")
                if record.witness is not None:
                    # classify took witness_bound from the two-way checked
                    # integral, so the integral is read back from it
                    bound, norm = record.witness_bound, record.norm_lower
                    integral = bound * SUP_NORM_F
                    if (min(abs(integral - 6.0), abs(integral - 6.5)) > 1e-10
                            or bound - 1e-9 > norm):
                        witness_failures.append(f"S={subset_elements(record.subset)}: integral "
                                                f"{integral!r}, bound {bound!r}, norm {norm!r}")
            items.append(_verdict(f"measure_form_{group.name}", measure_failures,
                                  "two-coset mu matches the annihilator density"))
            items.append(_verdict(f"witness_integrals_{group.name}", witness_failures,
                                  "integrals in {6, 13/2}; bounds below the norm"))

        failures = []
        target = forbidden_pattern()
        for record in report.records:
            if record.pattern is None:
                continue
            rows, cols = record.pattern
            matrix = multiplier_matrix(group, record.subset)
            problems = []
            if not (matrix[np.ix_(rows, cols)] == target).all():
                problems.append("inexact hit")
            # classify's norm: the cb bracket on a Cayley group, the
            # character sum (checked against the bracket below) otherwise
            if record.norm_lower < t.pattern_norm - tol:
                problems.append(f"lower {record.norm_lower!r} < 9/7 - tol")
            # every subgroup lies in a class analyze_cosets calls a coset,
            # and a hit survives translation
            if record.analysis.kind == "coset":
                problems.append("a coset class has a pattern hit")
            # the subset's name is built for a failure only: most records pass
            failures += [f"S={subset_elements(record.subset)}: {problem}" for problem in problems]
        items.append(_verdict(f"pattern_soundness_{group.name}", failures,
                              "hits exact, bounded below by 9/7; subgroups clean"))
        items.append(_proof_chain_item(group, report.records))

        if group.is_abelian:
            failures = []
            # classify's norm on an abelian group is the character sum
            for lo in range(0, len(report.records), _LAYER_SLICE):
                part = report.records[lo:lo + _LAYER_SLICE]
                lows, highs = _cb_brackets(group, np.array([r.subset for r in part], np.uint64))[:2]
                for record, low, high in zip(part, lows.tolist(), highs.tolist()):
                    if not (low - tol <= record.norm_lower <= high + tol):
                        failures.append(f"S={subset_elements(record.subset)}: "
                                        f"{record.norm_lower!r} outside [{low!r}, {high!r}]")
            items.append(_verdict(f"amenable_cross_check_{group.name}", failures,
                                  "character-sum norms inside the Schur brackets"))

    return VerificationSummary(items=tuple(items), passed=all(i.passed for i in items))
