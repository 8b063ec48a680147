"""Command-line front end.

Subcommands: norm (one subset), sweep (all subsets of a group), schur
(gamma2 bounds of a literal matrix), verify (the full check battery).
Exit codes: 0 success / verified, 1 violation or failed check, 2 usage or
parse error (an --out path that cannot be opened included: it is opened
before any work), 3 numerical failure (gamma2 did not converge, or an
exactness check raised ArithmeticError).  A run that exits 0 or 1 writes its
report; a run that fails writes none, so it leaves an existing --out file
unchanged and removes one it created.  An existing --out is truncated only
when it is a seekable file that holds something, so /dev/null or a pipe
takes the report as stdout does.  All output on stdout is
deterministic for fixed inputs and flags; timing and verify's PASS/FAIL
item lines go to stderr, so stdout holds only the report.

A report is written to its sink as it is made, and no whole report text
is held.  The sink rule: a --out file that the run created takes the
report directly, and stdout or an existing --out file take it through a
tempfile.SpooledTemporaryFile (at most _SPOOL_MEMORY bytes in memory, the
rest on disk), copied there only once the run has succeeded.  JSON
reports are the bytes of json.dumps(..., indent=2, sort_keys=True); a
sweep's is its summary's head, each class record written once
(_record_json, which renders each distinct analysis, pattern, witness and
float once, from bounded memos) a chunk of records at a time, and its
tail.  A sweep's CSV rows (sweep.csv_lines) are written a block at a time
as the sweep finds them, and the CSV and text sweeps keep no record.  The
JSON records and the CSV rows share one text layer: groups.subset_text
writes their element lists, and sweep.float_text's memo their floats
and every float scalar of a JSON report (_json_float).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import re
import shutil
import sys
import tempfile
from json.encoder import encode_basestring_ascii
from typing import Iterator, Optional, Sequence, TextIO

import numpy as np

from .bs import bs_norm, predicted_norm
from .groups import Group, analyze_cosets, parse_group, subset_elements, subset_mask, subset_text
from .multiplier import cb_norm
from .schur import (
    Gamma2ConvergenceError,
    forbidden_pattern,
    gamma2,
    orthogonal_witness,
    validate_tol,
    witness_lower_bound,
)
from .sweep import (
    DEFAULT_GROUP_SPECS,
    CSV_HEADER,
    DEFAULT_TOL_EXACT,
    ClassificationRecord,
    SweepReport,
    csv_lines,
    float_text,
    fold_sweep,
    run_verification,
    sweep,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

_TUPLE_RE = re.compile(r"\(([^()]*)\)")
# the whole tuple spec: tuples with a comma, and blanks, between each two
_TUPLE_LIST_RE = re.compile(r"\([^()]*\)(?:\s*,\s*\([^()]*\))*")
# a field start (the spec's, a tuple's or a comma) with only blanks to its end
_BLANK_FIELD_RE = re.compile(r"(?:^|[(,])\s*(?:[,)]|$)")


def parse_subset(group: Group, text: str) -> int:
    """Subset spec: comma-separated indices "0,1,3" or coordinate tuples
    "(0,1),(1,2)" for abelian groups (mixed-radix order of the factors).
    A blank field, as in "0,,1", "1," or "(0,,1)", is an error, and so are
    tuples with no comma between them, as in "(0,1)(1,1)", and a spec that
    int() would misread: "1_0" as 10, or a digit that is not ASCII."""
    text = text.strip()
    if not text:
        raise ValueError("empty subset spec")
    if not text.isascii() or "_" in text:
        raise ValueError(f"bad subset spec {text!r}: "
                         "fields must be ASCII integers without underscores")
    if "(" in text:
        if _BLANK_FIELD_RE.search(text):
            raise ValueError(f"empty field in subset spec {text!r}")
        if not group.is_abelian:
            raise ValueError("coordinate tuples only apply to abelian groups")
        if not _TUPLE_LIST_RE.fullmatch(text):
            raise ValueError(f"malformed tuple subset spec {text!r}")
        indices = []
        for chunk in _TUPLE_RE.findall(text):
            coords = [int(part) for part in chunk.split(",")]
            indices.append(group.index_of(coords))
        return subset_mask(group, indices)
    try:
        indices = [int(part) for part in text.split(",")]
    except ValueError as exc:
        # a blank field is one of the parts int() refuses
        if _BLANK_FIELD_RE.search(text):
            raise ValueError(f"empty field in subset spec {text!r}") from None
        raise ValueError(f"bad subset spec {text!r}: {exc}") from exc
    return subset_mask(group, indices)


def parse_tol(text: str) -> float:
    """argparse type for --tol: a finite tolerance in [0, 0.1), so a bad
    value stops the run with exit 2 before any work."""
    try:
        return validate_tol(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _render(payload: dict, fmt: str) -> str:
    """A report as JSON or as text, without a final newline.  JSON is
    rendered by _json_text, byte for byte as
    json.dumps(payload, indent=2, sort_keys=True) would for the value types
    reports hold, without the pure-Python encoder that json.dumps falls
    back to whenever it indents."""
    return _json_text(payload, "") if fmt == "json" else "\n".join(_text_lines(payload))


def _emit(payload: dict, args) -> None:
    """Write a report rendered whole by _render, and a newline, to the
    run's sink: args.out, which main sets.  Two writes, since joining the
    newline on would copy the report."""
    args.out.write(_render(payload, args.format))
    args.out.write("\n")


def _json_text(value, indent: str) -> str:
    """JSON of a report value, nested at the given indent, exactly as
    json.dumps(..., indent=2, sort_keys=True) writes it.  Reports hold only
    dicts with str keys, lists, str, int, float, bool and None, each of
    exactly that type, so one lookup on the exact type picks the writer.
    A list whose items all have one exact scalar type is written by that
    type's writer in one map, a list of floats by float.__repr__ unless it
    holds NaN or an infinity (_json_floats); the items of any other list
    or dict are written in place by that lookup, and only a list, a dict or
    a value that misses it recurses; anything else (a tuple, a numpy
    scalar, a subclass, a key that is not a str) raises TypeError.  NaN
    and the infinities are spelled as json spells them."""
    kind = type(value)
    write = _JSON_SCALARS.get(kind)
    if write is not None:
        return write(value)
    inner = indent + "  "
    separator = ",\n" + inner
    if kind is list:
        if not value:
            return "[]"
        kinds = set(map(type, value))
        if len(kinds) == 1 and (write := _JSON_SCALARS.get(kinds.pop())) is not None:
            # one exact scalar type, such as an element list or a matrix
            # row: its writer over the whole list in one map
            body = (_json_floats(value, separator) if write is _json_float
                    else separator.join(map(write, value)))
        else:
            body = separator.join([write(x) if (write := _JSON_SCALARS.get(type(x)))
                                   else _json_text(x, inner) for x in value])
        return f"[\n{inner}{body}\n{indent}]"
    if kind is dict:
        if not value:
            return "{}"
        body = separator.join([
            f"{encode_basestring_ascii(key)}: "
            f"{write(item) if (write := _JSON_SCALARS.get(type(item))) else _json_text(item, inner)}"
            for key, item in sorted(value.items())])
        return f"{{\n{inner}{body}\n{indent}}}"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


# json's spelling of the floats whose repr is not a JSON number
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(value: float) -> str:
    """A float as json writes it: sweep.float_text's text, read from its
    memo (which the CSV rows share), with NaN and the infinities spelled
    as json spells them."""
    text = float_text(value)
    return _NONFINITE.get(text, text)


def _json_floats(values: list, separator: str) -> str:
    """The floats of a list written as _json_float writes them, joined by
    the separator.  The repr of a finite float is its JSON number, and only
    the reprs nan, inf and -inf hold an n, so a body without an n is done."""
    body = separator.join(map(float.__repr__, values))
    return separator.join(map(_json_float, values)) if "n" in body else body


class _ScalarWriters(dict):
    """The JSON writer of each scalar type, keyed by the exact type; a type
    that misses (a tuple, a numpy scalar, a subclass) raises TypeError."""

    def __missing__(self, kind):
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


_JSON_SCALARS = _ScalarWriters({
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _json_float,
    bool: ("false", "true").__getitem__,
    type(None): lambda value: "null",
})

# The parts of a sweep record that _record_json reads from its memos, as
# _json_text(record.to_dict(), "    ") writes them nested in the record.
_ANALYSIS_LAYOUT = ('{\n        "kind": %s,\n        "q": %s,\n        "rep_a": %s,\n'
                    '        "rep_b": %s,\n        "subgroup": %s\n      }')
_PATTERN_LAYOUT = ('[\n        [\n          %s,\n          %s,\n          %s\n        ],\n'
                   '        [\n          %s,\n          %s,\n          %s\n        ]\n      ]')
_WITNESS_LAYOUT = '{\n        "u": %s,\n        "v": %s,\n        "w": %s\n      }'


def _json_elements(mask: int, indent: str) -> str:
    """The elements of a bitmask as a JSON list nested at the given indent,
    as _json_text writes subset_elements(mask), whose items are ints: the
    list's items are subset_text's, joined by the list's separator, inside
    its brackets.  The empty mask is "[]", and a negative one raises
    subset_text's ValueError."""
    inner = indent + "  "
    text = subset_text(mask, ",\n" + inner)
    return f"[\n{inner}{text}\n{indent}]" if text else "[]"


# the most distinct texts that each memo of _record_json keeps
_MEMO_SIZE = 1 << 12


def _int_texts(*values) -> tuple[str, ...]:
    """The JSON text of each of a record's int fields, None as null.  Any
    other type raises TypeError, and _record_json then hands the record to
    _json_text.  So the memos below keep only keys whose equal values
    have equal text (never 0.0 beside -0.0), and their typed=True keeps
    True, np.int64(1) or an IntEnum from being served the int 1's text."""
    for x in values:
        if x is not None and type(x) is not int:
            raise TypeError(f"a record int field holds a {type(x).__name__}")
    return tuple(["null" if x is None else int.__repr__(x) for x in values])


@functools.lru_cache(maxsize=_MEMO_SIZE, typed=True)
def _analysis_json(kind, q, rep_a, rep_b, subgroup) -> str:
    """A record's analysis from its five fields, as _json_text writes it
    nested in the record: a memo, since a sweep's classes share a few
    analyses (16 among Z14's 1,182).  kind must be a str, and the others
    ints or None (_int_texts)."""
    if type(kind) is not str:
        raise TypeError(f"a record kind holds a {type(kind).__name__}")
    q, rep_a, rep_b, subgroup_text = _int_texts(q, rep_a, rep_b, subgroup)
    if subgroup is not None:
        subgroup_text = _json_elements(subgroup, "        ")
    return _ANALYSIS_LAYOUT % (encode_basestring_ascii(kind), q, rep_a, rep_b, subgroup_text)


@functools.lru_cache(maxsize=_MEMO_SIZE, typed=True)
def _pattern_json(r1, r2, r3, c1, c2, c3) -> str:
    """A record's pattern from its row and column triples, each entry an
    int (_int_texts), as _json_text writes it nested in the record: a
    memo (275 distinct among Z14's 1,182 records)."""
    return _PATTERN_LAYOUT % _int_texts(r1, r2, r3, c1, c2, c3)


@functools.lru_cache(maxsize=_MEMO_SIZE, typed=True)
def _witness_json(u, v, w) -> str:
    """A record's witness triple from its three ints (_int_texts), as
    _json_text writes it nested in the record: a memo (49 distinct among
    Z14's 1,166 witnesses)."""
    return _WITNESS_LAYOUT % _int_texts(u, v, w)


def _record_json(record: ClassificationRecord) -> str:
    """A sweep record's JSON, byte for byte as
    _json_text(record.to_dict(), "    ") writes it, straight from the
    record's fields into one f-string: no dict, no sorting.  Each
    distinct value is rendered once: the analysis, the pattern and the
    witness come from typed memos of their fields, and norm_upper reuses
    norm_lower's text when the two fields hold the same float object; the
    floats (or None), the bools and the orbit size are written by their
    exact type's writer, so a float by _json_float, and the subset by
    _json_elements.  A field of a type that a sweep does not give it
    raises TypeError on the way, and the record is then written by
    _json_text itself, which writes it or raises TypeError as it would
    in the report."""
    write = _JSON_SCALARS
    analysis, pattern, witness = record.analysis, record.pattern, record.witness
    lower, upper = record.norm_lower, record.norm_upper
    below, extremal = record.below_coset_bound, record.extremal_other
    inside, exact, orbit = record.in_open_interval, record.norm_exact, record.orbit_size
    predicted, bound = record.predicted, record.witness_bound
    try:
        analysis_text = _analysis_json(analysis.kind, analysis.q, analysis.rep_a,
                                       analysis.rep_b, analysis.subgroup)
        lower_text = write[type(lower)](lower)
        upper_text = lower_text if upper is lower else write[type(upper)](upper)
        pattern_text = "null" if pattern is None else _pattern_json(*pattern[0], *pattern[1])
        witness_text = ("null" if witness is None
                        else _witness_json(witness.u, witness.v, witness.w))
        # one f-string, the keys in sorted order: a third of the cost of
        # a %-layout of the same thirteen values
        return (
            f'{{\n      "analysis": {analysis_text},\n'
            f'      "below_coset_bound": {write[type(below)](below)},\n'
            f'      "extremal_other": {write[type(extremal)](extremal)},\n'
            f'      "in_open_interval": {write[type(inside)](inside)},\n'
            f'      "norm_exact": {write[type(exact)](exact)},\n'
            f'      "norm_lower": {lower_text},\n'
            f'      "norm_upper": {upper_text},\n'
            f'      "orbit_size": {write[type(orbit)](orbit)},\n'
            f'      "pattern": {pattern_text},\n'
            f'      "predicted": {write[type(predicted)](predicted)},\n'
            f'      "subset": {_json_elements(record.subset, "      ")},\n'
            f'      "witness": {witness_text},\n'
            f'      "witness_bound": {write[type(bound)](bound)}\n'
            '    }'
        )
    except TypeError:
        return _json_text(record.to_dict(), "    ")


# records whose text _sweep_json joins into one chunk
_RECORD_CHUNK = 32


def _sweep_json(report: SweepReport) -> Iterator[str]:
    """A sweep's JSON report and its newline, a chunk at a time, byte for
    byte as json.dumps(report.to_dict(), indent=2, sort_keys=True) writes
    it.  The summary is rendered with no records and split at its
    "records" line (the only line that can start with that key at this
    indent: a JSON string escapes its newlines); between the halves each
    record is written once by _record_json, _RECORD_CHUNK records joined
    into one chunk, so at most one chunk of the records' text is held.  A
    sweep always holds the empty set's class, so "records" is never
    empty."""
    summary = _json_text({**report.summary(), "records": []}, "")
    head, _, tail = summary.partition('\n  "records": []')
    separator = ",\n    "
    records = report.records
    yield head + '\n  "records": [\n    '
    for lo in range(0, len(records), _RECORD_CHUNK):
        text = separator.join(map(_record_json, records[lo:lo + _RECORD_CHUNK]))
        yield text if lo == 0 else separator + text
    yield "\n  ]" + tail + "\n"


def _text_lines(payload: dict, prefix: str = "") -> list[str]:
    lines = []
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, dict):
            lines.append(f"{prefix}{key}:")
            lines.extend(_text_lines(value, prefix + "  "))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{prefix}{key}: [{len(value)} entries]")
        else:
            lines.append(f"{prefix}{key}: {value}")
    return lines


def cmd_norm(args) -> int:
    """The norm and structure of one subset, with cb_norm's bracket when
    asked (--cb) or on a Cayley group.  The bracket comes first, so a group
    above cb_norm's order cap is refused (exit 2) by cb_norm's own check,
    once the subset is parsed and before anything else is computed."""
    group = parse_group(args.group)
    mask = parse_subset(group, args.subset)
    bounds = cb_norm(group, mask) if args.cb or not group.is_abelian else None
    analysis = analyze_cosets(group, mask)
    payload: dict = {
        "group": group.name,
        "subset": subset_elements(mask),
        "analysis": analysis.to_dict(),
        "predicted": predicted_norm(analysis),
    }
    if group.is_abelian:
        payload["bs_norm"] = bs_norm(group, mask)
    if bounds is not None:
        payload["cb_lower"] = bounds.lower
        payload["cb_upper"] = bounds.upper
    _emit(payload, args)
    return EXIT_OK


def cmd_sweep(args) -> int:
    """Sweep a group and write its report to args.out as it is made.  JSON
    takes sweep()'s records, since its summary comes first, and writes
    them through _sweep_json a chunk at a time; CSV writes CSV_HEADER,
    then each block's rows (csv_lines) as fold_sweep folds them, and text
    the summary and the class count, as the line "records: [N entries]".
    The CSV and text sweeps keep no record."""
    group = parse_group(args.group)
    tol = DEFAULT_TOL_EXACT if args.tol is None else args.tol
    if args.format == "json":
        report = sweep(group, tol)
    elif args.format == "csv":
        args.out.write(CSV_HEADER)
        report = fold_sweep(group, tol, each_block=lambda block: args.out.write(csv_lines(block)))
    else:
        report = fold_sweep(group, tol)
    print(f"sweep of {group.name} took {report.wall_time_s:.2f}s", file=sys.stderr)
    if args.format == "json":
        for chunk in _sweep_json(report):
            args.out.write(chunk)
    elif args.format == "text":
        count = sum(slot["classes"] for slot in report.kind_totals.values())
        _emit({**report.summary(), "records": f"[{count} entries]"}, args)
    return EXIT_OK if not report.violations else EXIT_VIOLATION


def _numbers_only(value) -> bool:
    """Every entry of a JSON literal is a number: an int or a float, never a
    string or a bool, which np.array(..., dtype=float) would convert."""
    if type(value) is list:
        return all(map(_numbers_only, value))
    return type(value) in (int, float)


def cmd_schur(args) -> int:
    if args.f0:
        matrix = forbidden_pattern()
    else:
        try:
            literal = json.loads(args.matrix)
            if not _numbers_only(literal):
                raise ValueError("matrix entries must be JSON numbers")
            matrix = np.array(literal, dtype=float)
        except (ValueError, TypeError, OverflowError) as exc:
            print(f"bad matrix literal: {exc}", file=sys.stderr)
            return EXIT_USAGE
    if args.witness_only:
        if not args.f0:
            print("--witness-only applies to --f0", file=sys.stderr)
            return EXIT_USAGE
        value = witness_lower_bound(matrix, orthogonal_witness())
        _emit({"witness_lower_bound": value}, args)
        return EXIT_OK
    try:
        bounds = gamma2(matrix, tol=1e-3 if args.tol is None else args.tol)
    except Gamma2ConvergenceError as exc:
        print(f"solver did not converge: bracket [{exc.lower}, {exc.upper}]", file=sys.stderr)
        return EXIT_NUMERIC
    _emit(bounds.to_dict(), args)
    return EXIT_OK


def cmd_verify(args) -> int:
    # only a missing --groups takes the defaults; --groups "" names no group
    specs = None if args.groups is None else args.groups.split(",")
    if specs == [""]:
        specs = []
    summary = run_verification(
        group_specs=specs,
        tol=DEFAULT_TOL_EXACT if args.tol is None else args.tol,
    )
    for item in summary.items:
        marker = "PASS" if item.passed else "FAIL"
        print(f"{marker} {item.name}: {item.detail}", file=sys.stderr)
    _emit(summary.to_dict(), args)
    return EXIT_OK if summary.passed else EXIT_VIOLATION


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing keeps no state
    in it, so every call of main shares one."""
    parser = argparse.ArgumentParser(
        prog="idemnorm",
        description="Norms of subset indicator functions on finite groups, "
                    "with certificates and exhaustive theorem sweeps.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=("text", "json")):
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--out", help="write the report to this path instead of stdout")

    def tol_option(p):
        p.add_argument("--tol", type=parse_tol, default=None)

    p_norm = sub.add_parser("norm", help="norm and structure of one subset")
    p_norm.add_argument("-g", "--group", required=True)
    p_norm.add_argument("-s", "--subset", required=True)
    p_norm.add_argument("--cb", action="store_true",
                        help="also compute the exact cb multiplier norm")
    common(p_norm)
    p_norm.set_defaults(func=cmd_norm)

    p_sweep = sub.add_parser("sweep", help="classify every subset of a group")
    p_sweep.add_argument("-g", "--group", required=True)
    common(p_sweep, formats=("text", "json", "csv"))
    tol_option(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_schur = sub.add_parser("schur", help="gamma2 bounds of a matrix")
    schur_input = p_schur.add_mutually_exclusive_group(required=True)
    schur_input.add_argument("matrix", nargs="?", help="JSON array of rows")
    schur_input.add_argument("--f0", action="store_true",
                             help="use the forbidden 3x3 pattern")
    p_schur.add_argument("--witness-only", action="store_true",
                         help="print only the fixed-witness lower bound")
    common(p_schur)
    tol_option(p_schur)
    p_schur.set_defaults(func=cmd_schur)

    p_verify = sub.add_parser("verify", help="run the full verification battery")
    p_verify.add_argument("--groups", help="comma-separated group specs "
                                           f"(default: {','.join(DEFAULT_GROUP_SPECS)})")
    common(p_verify)
    tol_option(p_verify)
    p_verify.set_defaults(func=cmd_verify)
    return parser


# the most bytes of a report that a spool keeps in memory: a report of
# norm, schur or verify fits, and a sweep's moves to disk early, so a run on
# stdout peaks where the same run to a new --out file does
_SPOOL_MEMORY = 1 << 16


def _spooled(args, target: Optional[TextIO]) -> int:
    """Run the subcommand with a spool as its sink, and copy the report to
    the target (stdout when None, else an existing --out file) only once
    the run has succeeded: a run that fails writes nothing there.  The
    spool is a tempfile.SpooledTemporaryFile that keeps every byte (no
    newline is translated) and moves to disk once it holds more than
    _SPOOL_MEMORY bytes.  Sink writers call write only, never writelines,
    which would hold the whole iterable.  The target is truncated first
    only when it is a seekable file that holds something, so /dev/null and
    a pipe take the report too."""
    with tempfile.SpooledTemporaryFile(_SPOOL_MEMORY, "w+", encoding="utf-8",
                                       newline="") as spool:
        args.out = spool
        code = args.func(args)
        if code in (EXIT_OK, EXIT_VIOLATION):
            if target is None:
                target = sys.stdout
            elif target.seekable() and target.tell():
                target.truncate(0)
            spool.seek(0)
            shutil.copyfileobj(spool, target)
    return code


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    path, created, code = args.out, False, EXIT_USAGE
    target = None
    try:
        # --out is opened before any work, so that a path that cannot be
        # written stops the run at once.  A new file is created and takes
        # the report as it is written; an existing one is opened in append
        # mode and, like stdout, takes it from a spool once the run has
        # succeeded, so that a run that fails leaves its report as it was
        if path:
            try:
                target, created = open(path, "x"), True
            except FileExistsError:
                target = open(path, "a")
        with target or contextlib.nullcontext():
            if created:
                args.out = target
                code = args.func(args)
            else:
                code = _spooled(args, target)
        if path and code in (EXIT_OK, EXIT_VIOLATION):
            print(path)
    except (ValueError, OSError) as exc:
        code = EXIT_USAGE
        print(str(exc), file=sys.stderr)
    except ArithmeticError as exc:
        # an exactness check of the library failed: a numerical failure
        code = EXIT_NUMERIC
        print(str(exc), file=sys.stderr)
    finally:
        # every run that exits 0 or 1 has written its report, and no other
        # run has: a file this run created holds no report then
        if created and code not in (EXIT_OK, EXIT_VIOLATION):
            os.remove(path)
    return code


if __name__ == "__main__":
    sys.exit(main())
