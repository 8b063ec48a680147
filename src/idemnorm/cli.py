"""Command-line front end.

Subcommands: norm (one subset), sweep (all subsets of a group), schur
(gamma2 bounds of a literal matrix), verify (the full check battery).
Exit codes: 0 success / verified, 1 violation or failed check, 2 usage or
parse error, 3 numerical failure.  All output on stdout is deterministic for
fixed inputs and flags; timing goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Optional, Sequence

import numpy as np

from .bs import bs_norm, predicted_norm
from .groups import Group, analyze_cosets, parse_group, subset_elements, subset_mask
from .multiplier import cb_norm
from .schur import (
    Gamma2ConvergenceError,
    forbidden_pattern,
    gamma2,
    orthogonal_witness,
    validate_tol,
    witness_lower_bound,
)
from .sweep import DEFAULT_GROUP_SPECS, DEFAULT_TOL_EXACT, run_verification, sweep

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

_TUPLE_RE = re.compile(r"\(([^()]*)\)")


class CliError(Exception):
    pass


def parse_subset(group: Group, text: str) -> int:
    """Subset spec: comma-separated indices "0,1,3" or coordinate tuples
    "(0,1),(1,2)" for abelian groups (mixed-radix order of the factors)."""
    text = text.strip()
    if not text:
        raise CliError("empty subset spec")
    if "(" in text:
        if not group.is_abelian:
            raise CliError("coordinate tuples only apply to abelian groups")
        chunks = _TUPLE_RE.findall(text)
        if not chunks or _TUPLE_RE.sub("", text).strip(", \t"):
            raise CliError(f"malformed tuple subset spec {text!r}")
        indices = []
        for chunk in chunks:
            coords = [int(part) for part in chunk.split(",") if part.strip()]
            indices.append(group.index_of(coords))
        return subset_mask(group, indices)
    try:
        indices = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise CliError(f"bad subset spec {text!r}: {exc}") from exc
    return subset_mask(group, indices)


def parse_tol(text: str) -> float:
    """argparse type for --tol: a finite tolerance in [0, 0.1), so a bad
    value stops the run with exit 2 before any work."""
    try:
        return validate_tol(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _emit(payload: dict, fmt: str, out_path: Optional[str], csv_text: Optional[str] = None) -> None:
    if fmt == "json":
        rendered = json.dumps(payload, indent=2, sort_keys=True)
    elif fmt == "csv":
        rendered = csv_text.rstrip("\n")
    else:
        rendered = "\n".join(_text_lines(payload))
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(rendered + "\n")
        print(out_path)
    else:
        print(rendered)


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
    group = parse_group(args.group)
    mask = parse_subset(group, args.subset)
    analysis = analyze_cosets(group, mask)
    payload: dict = {
        "group": group.name,
        "subset": subset_elements(mask),
        "analysis": analysis.to_dict(),
        "predicted": predicted_norm(analysis),
    }
    if group.is_abelian:
        payload["bs_norm"] = bs_norm(group, mask)
    if args.cb or not group.is_abelian:
        bounds = cb_norm(group, mask)
        payload["cb_lower"] = bounds.lower
        payload["cb_upper"] = bounds.upper
    _emit(payload, args.format, args.out)
    return EXIT_OK


def cmd_sweep(args) -> int:
    group = parse_group(args.group)
    report = sweep(group, tol=DEFAULT_TOL_EXACT if args.tol is None else args.tol)
    print(f"sweep of {group.name} took {report.wall_time_s:.2f}s", file=sys.stderr)
    _emit(report.to_dict(), args.format, args.out, csv_text=report.to_csv())
    return EXIT_OK if not report.violations else EXIT_VIOLATION


def cmd_schur(args) -> int:
    if args.f0:
        matrix = forbidden_pattern()
    else:
        if args.matrix is None:
            print("provide a JSON matrix literal or --f0", file=sys.stderr)
            return EXIT_USAGE
        try:
            matrix = np.array(json.loads(args.matrix), dtype=float)
        except (ValueError, TypeError) as exc:
            print(f"bad matrix literal: {exc}", file=sys.stderr)
            return EXIT_USAGE
    if args.witness_only:
        if not args.f0:
            print("--witness-only applies to --f0", file=sys.stderr)
            return EXIT_USAGE
        value = witness_lower_bound(matrix, orthogonal_witness())
        _emit({"witness_lower_bound": value}, args.format, args.out)
        return EXIT_OK
    try:
        bounds = gamma2(matrix, tol=1e-3 if args.tol is None else args.tol)
    except Gamma2ConvergenceError as exc:
        print(f"solver did not converge: bracket [{exc.lower}, {exc.upper}]", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    _emit(bounds.to_dict(), args.format, args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    specs = args.groups.split(",") if args.groups else None
    if specs == [""]:
        specs = []
    summary = run_verification(
        group_specs=specs,
        tol=DEFAULT_TOL_EXACT if args.tol is None else args.tol,
    )
    for item in summary.items:
        marker = "PASS" if item.passed else "FAIL"
        print(f"{marker} {item.name}: {item.detail}")
    _emit(summary.to_dict(), args.format, args.out)
    return EXIT_OK if summary.passed else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
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
    p_schur.add_argument("matrix", nargs="?", help="JSON array of rows")
    p_schur.add_argument("--f0", action="store_true",
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


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
