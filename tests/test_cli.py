import csv
import dataclasses
import enum
import functools
import gc
import importlib
import json
import math
import os
import pathlib
import random
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from idemnorm import cli
from idemnorm.cli import _json_text, _record_json, build_parser, main
from idemnorm.groups import CosetAnalysis, Group, parse_group, subset_elements
from idemnorm.schur import Gamma2Bounds, WitnessPair, check_certificate, witness_lower_bound
from idemnorm.sweep import CSV_HEADER, SweepReport, csv_lines, sweep
from idemnorm.witness import WitnessTriple

from conftest import (ELEMENT_TEXT_MASKS, assert_same_text, dihedral_group,
                      oracle_analyze_cosets, oracle_csv_lines, oracle_mul, planted_subsets,
                      random_subgroup)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_norm_z4_pair(capsys):
    code, out, _ = run_cli(capsys, "norm", "-g", "Z4", "-s", "0,1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["analysis"]["kind"] == "two_cosets"
    assert payload["analysis"]["q"] == 4
    assert payload["bs_norm"] == pytest.approx(1.2071067812, abs=1e-9)
    assert payload["predicted"] == pytest.approx(payload["bs_norm"], abs=1e-9)


def test_norm_s3_coset_cb_bracket(capsys):
    code, out, _ = run_cli(capsys, "norm", "-g", "S3", "-s", "0", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["analysis"]["kind"] == "coset"
    assert payload["cb_lower"] == pytest.approx(1.0, abs=1e-6)
    assert payload["cb_upper"] == pytest.approx(1.0, abs=1e-6)


def test_norm_z6_013(capsys):
    code, out, _ = run_cli(capsys, "norm", "-g", "Z6", "-s", "0,1,3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["analysis"]["kind"] == "other"
    assert payload["bs_norm"] >= 4 / 3 - 1e-9


def test_norm_cb_flag_adds_bracket_on_abelian_group(capsys):
    code, out, _ = run_cli(capsys, "norm", "-g", "Z6", "-s", "0,1,3", "--format", "json")
    assert code == 0
    assert not any(key.startswith("cb_") for key in json.loads(out))
    code, out, _ = run_cli(capsys, "norm", "-g", "Z6", "-s", "0,1,3", "--cb",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["cb_lower"] - 1e-12 <= payload["bs_norm"] <= payload["cb_upper"] + 1e-12


def test_norm_tuple_subset(capsys):
    code, out, _ = run_cli(capsys, "norm", "-g", "Z2xZ4", "-s", "(0,0),(0,1)",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["subset"] == [0, 1]
    assert payload["analysis"]["kind"] == "two_cosets"
    # blanks around the comma between two tuples are allowed
    code, spaced, _ = run_cli(capsys, "norm", "-g", "Z2xZ4", "-s", " (0,0) , (0,1) ",
                              "--format", "json")
    assert code == 0 and spaced == out


@pytest.mark.parametrize("spec, subset, analysis", [
    # {r, r s} is the left coset r {e, s} of a non-normal subgroup, whose
    # two-sided stabilizer is {e}: the coset test reads the right stabilizer
    ("D4", "1,5", {"kind": "coset", "subgroup": [0, 4], "rep_a": 1, "rep_b": None, "q": None}),
    # {e, r} is two cosets of {e}, with q the order of r
    ("D4", "0,1", {"kind": "two_cosets", "subgroup": [0], "rep_a": 0, "rep_b": 1, "q": 4}),
    ("Q8", "0,1,2", {"kind": "other", "subgroup": [0], "rep_a": None, "rep_b": None, "q": None}),
    # at the order cap: a subgroup of Z64xZ64 given as tuples, and the
    # subgroup of Z2^12's first 1024 elements, which the length-2
    # butterflies and the autocorrelation find
    ("Z64xZ64", "(0,0),(0,32),(32,0),(32,32)",
     {"kind": "coset", "subgroup": [0, 32, 2048, 2080], "rep_a": 0, "rep_b": None, "q": None}),
    ("x".join(["Z2"] * 12), ",".join(map(str, range(1024))),
     {"kind": "coset", "subgroup": list(range(1024)), "rep_a": 0, "rep_b": None, "q": None}),
], ids=["D4-left-coset", "D4-two-cosets", "Q8-other", "Z64xZ64-cap", "Z2^12-cap"])
def test_norm_reports_the_analysis(spec, subset, analysis, capsys):
    code, out, _ = run_cli(capsys, "norm", "-g", spec, "-s", subset, "--format", "json")
    assert code == 0
    assert json.loads(out)["analysis"] == analysis


def test_norm_bad_group_exits_2(capsys):
    code, _, err = run_cli(capsys, "norm", "-g", "Zoo", "-s", "0")
    assert code == 2
    assert err


def test_norm_bad_subset_exits_2(capsys):
    code, _, _ = run_cli(capsys, "norm", "-g", "Z4", "-s", "0,9")
    assert code == 2
    code, _, _ = run_cli(capsys, "norm", "-g", "S3", "-s", "(0,1)")
    assert code == 2


@pytest.mark.parametrize("group", ["Z128", "dihedral-33"])
def test_norm_refuses_a_group_above_the_cb_cap_before_any_work(group, tmp_path, monkeypatch,
                                                               capsys):
    # --cb on an abelian group, and any Cayley group (here D33, order 66),
    # ask for cb_norm, which stops at order 64: the run exits 2 before the
    # coset analysis or the character-sum norm runs
    argv = ["norm", "-g", group, "-s", "0,1,5", "--cb"]
    order = 128
    if group == "dihedral-33":
        d33 = dihedral_group(33)
        order = d33.order
        path = tmp_path / "d33.json"
        path.write_text(json.dumps({"n": order, "identity": 0, "table": d33.table.tolist()}))
        argv = ["norm", "-g", str(path), "-s", "0,1,5"]
    calls = []

    def recording(name):
        return lambda *args, **kwargs: calls.append(name)

    monkeypatch.setattr(cli, "analyze_cosets", recording("analyze_cosets"))
    monkeypatch.setattr(cli, "bs_norm", recording("bs_norm"))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"cb_norm supports orders up to 64, got {order}\n"
    assert calls == []


@pytest.mark.parametrize("group, spec, message", [
    ("Z4", "", "empty subset spec"),
    ("Z4", "  ", "empty subset spec"),
    ("Z2xZ4", "(0,1),x", "malformed tuple subset spec '(0,1),x'"),
    ("Z2xZ4", "(0,1", "malformed tuple subset spec '(0,1'"),
    ("Z4", "0,a", "bad subset spec '0,a': invalid literal for int()"),
    ("S3", "(0,1)", "coordinate tuples only apply to abelian groups"),
    ("Z2xZ4", ",", "empty field in subset spec ','"),
    ("Z2xZ4", "0,,1", "empty field in subset spec '0,,1'"),
    ("Z2xZ4", "1,", "empty field in subset spec '1,'"),
    ("Z2xZ4", "(0,,1)", "empty field in subset spec '(0,,1)'"),
    ("Z2xZ4", "(0,1),,(1,1)", "empty field in subset spec '(0,1),,(1,1)'"),
    ("Z2xZ4", "(0,1)(1,1)", "malformed tuple subset spec '(0,1)(1,1)'"),
    ("Z2xZ4", "(0,1) (1,1)", "malformed tuple subset spec '(0,1) (1,1)'"),
    # int() reads "1_0" as 10 and "\u0663" (Arabic-Indic three) as 3
    ("Z16", "1_0,3", "bad subset spec '1_0,3'"),
    ("Z4xZ4", "(1_0,0),(\u0663,1)", "bad subset spec '(1_0,0),(\u0663,1)'"),
    ("Z4xZ4", "(1,0),(\u0663,1)", "bad subset spec '(1,0),(\u0663,1)'"),
    ("Z16", "\u0663", "bad subset spec '\u0663'"),
    # a blank field is named even where another field is bad too
    ("Z4", "a,,1", "empty field in subset spec 'a,,1'"),
    ("Z4", "x, ", "empty field in subset spec 'x,'"),
])
def test_bad_subset_spec_exits_2_with_one_line(capsys, group, spec, message):
    code, out, err = run_cli(capsys, "norm", "-g", group, "-s", spec)
    assert code == 2
    assert not out
    assert err.startswith(message) and err.count("\n") == 1


@pytest.mark.parametrize("group, spec, elements", [
    # a field is what int() reads in base 10: a sign, and blanks around it
    ("Z4", "+1", [1]),
    ("Z4", "-0", [0]),
    ("Z4", " 1 , 2 ", [1, 2]),
    ("Z4", "+0,+3", [0, 3]),
    ("Z2xZ4", "( +1 , 0 ), (0,-0)", [0, 4]),
])
def test_subset_spec_takes_what_int_reads(capsys, group, spec, elements):
    assert subset_elements(cli.parse_subset(parse_group(group), spec)) == elements
    code, out, _ = run_cli(capsys, "norm", "-g", group, "-s", spec, "--format", "json")
    assert code == 0 and json.loads(out)["subset"] == elements


def test_sweep_z6(capsys):
    code, out, err = run_cli(capsys, "sweep", "-g", "Z6", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["violations"] == []
    assert payload["subset_total"] == 64
    assert "wall_time_s" not in payload  # deterministic stdout; timing on stderr
    assert "took" in err


def _predict_a_quarter_off(monkeypatch):
    """Move every closed-form prediction of a sweep up by 0.25, so that a
    sweep of Z6 reports a mismatch for each predicted class and exits 1."""
    sweep_module = importlib.import_module("idemnorm.sweep")
    closed_form = sweep_module.predicted_norm

    def off_by_a_quarter(analysis):
        value = closed_form(analysis)
        return None if value is None else value + 0.25

    monkeypatch.setattr(sweep_module, "predicted_norm", off_by_a_quarter)


def test_sweep_reports_a_predicted_norm_mismatch(capsys, monkeypatch):
    _predict_a_quarter_off(monkeypatch)
    code, out, _ = run_cli(capsys, "sweep", "-g", "Z6", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    violations = payload["violations"]
    predicted = [r for r in payload["records"] if r["predicted"] is not None]
    assert len(violations) == len(predicted) > 0
    assert {v["rule"] for v in violations} == {"predicted_norm_mismatch"}
    # the first class is the empty set, whose norm is 0
    assert violations[0] == {"rule": "predicted_norm_mismatch", "subset": [],
                             "detail": "kind=empty: bracket [0.0, 0.0] misses predicted 0.25"}


def test_sweep_reports_a_two_coset_class_labelled_other(capsys, monkeypatch):
    # abelian classes are named from the stabilizer of their block
    sweep_module = importlib.import_module("idemnorm.sweep")
    name = sweep_module._name_by_stabilizer

    def relabel(group, mask, right, stab):
        analysis = name(group, mask, right, stab)
        if analysis.kind == "two_cosets":
            return CosetAnalysis(kind="other", subgroup=analysis.subgroup)
        return analysis

    monkeypatch.setattr(sweep_module, "_name_by_stabilizer", relabel)
    code, out, _ = run_cli(capsys, "sweep", "-g", "Z6", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert "two_cosets" not in payload["kind_totals"]
    flagged = [v for v in payload["violations"] if v["rule"] == "open_interval_not_two_cosets"]
    assert flagged
    for v in flagged:
        assert v["detail"].startswith("kind=other with norm in (")
        record = next(r for r in payload["records"] if r["subset"] == v["subset"])
        assert record["in_open_interval"] and record["analysis"]["kind"] == "other"


@pytest.mark.parametrize("fmt", ("json", "text"))
def test_sweep_builds_csv_only_when_asked(capsys, monkeypatch, fmt):
    def refuse(report):
        raise AssertionError("to_csv called for a non-CSV format")

    monkeypatch.setattr(SweepReport, "to_csv", refuse)
    code, out, _ = run_cli(capsys, "sweep", "-g", "Z4", "--format", fmt)
    assert code == 0
    assert "kind_totals" in out


def test_sweep_csv_builds_no_report_dict(capsys, monkeypatch):
    def refuse(report):
        raise AssertionError("to_dict called for the CSV format")

    monkeypatch.setattr(SweepReport, "to_dict", refuse)
    code, out, _ = run_cli(capsys, "sweep", "-g", "Z4", "--format", "csv")
    assert code == 0
    assert out.startswith("subset,kind,q")


def test_sweep_cap_exits_2(capsys):
    code, _, err = run_cli(capsys, "sweep", "-g", "Z64")
    assert code == 2
    assert "cap" in err


def test_sweep_csv_format(capsys):
    code, out, _ = run_cli(capsys, "sweep", "-g", "Z4", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("subset,kind,q")
    assert len(lines) == 7  # header + 6 canonical classes


def test_schur_f0(capsys):
    code, out, _ = run_cli(capsys, "schur", "--f0", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["lower"] <= 9 / 7 + 1e-9 <= payload["upper"] + 1e-9
    assert payload["upper"] - payload["lower"] <= 1e-3
    assert "certificate" in payload and "witness" in payload


def test_schur_passes_tolerance_through(capsys):
    code, out, _ = run_cli(capsys, "schur", "--f0", "--tol", "1e-9", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["upper"] - payload["lower"] <= 1e-9
    # --tol 0 asks for an exact bracket, which rounding leaves open on 9/7
    code, _, err = run_cli(capsys, "schur", "--f0", "--tol", "0")
    assert code == 3
    assert "bracket" in err


def test_schur_f0_witness_only(capsys):
    code, out, _ = run_cli(capsys, "schur", "--f0", "--witness-only", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["witness_lower_bound"] == pytest.approx(math.sqrt(26) / 4, abs=1e-12)


def test_schur_literal_matrix(capsys):
    code, out, _ = run_cli(capsys, "schur", "[[1]]", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["lower"] == pytest.approx(1.0, abs=1e-9)
    assert payload["upper"] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("literal", [
    pytest.param("[[1,", id="truncated"),
    # np.array(..., dtype=float) would read these as 1.0, 1.0, 1.0 and 1000.0
    pytest.param('[["1"]]', id="string"),
    pytest.param("[[true]]", id="bool"),
    pytest.param("[[1, false], [0, 1]]", id="bool-among-numbers"),
    pytest.param('[["1e3", 2], [3, 4]]', id="numeric-string"),
    # an integer beyond the float range, which np.array refuses with OverflowError
    pytest.param("[[" + "9" * 400 + "]]", id="integer-beyond-float"),
])
def test_schur_bad_literal_exits_2(literal, capsys):
    code, out, err = run_cli(capsys, "schur", literal)
    assert code == 2
    assert err and not out


def test_schur_literal_report_rechecks_on_its_own(capsys):
    # the JSON report read back through Gamma2Bounds.from_dict: the blocks
    # make a PSD completion at level c, the witness evaluates to the lower
    # end, and the bracket is within the default tolerance
    matrix = [[1, 1, 1, 1], [1, 0, 1, 0], [1, 1, 0, 0], [1, 0, 0, 0]]
    code, out, _ = run_cli(capsys, "schur", json.dumps(matrix), "--format", "json")
    assert code == 0
    bounds = Gamma2Bounds.from_dict(json.loads(out))
    cert = bounds.certificate
    assert check_certificate(matrix, cert.p, cert.q, cert.c)
    assert abs(witness_lower_bound(matrix, bounds.witness) - bounds.lower) <= 1e-12
    assert bounds.upper - bounds.lower <= 1e-3


def test_schur_oversized_exits_2(capsys):
    literal = json.dumps([[0] * 65] * 65)
    code, _, _ = run_cli(capsys, "schur", literal)
    assert code == 2


def test_schur_requires_input(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["schur"])
    assert exc.value.code == 2
    assert "one of the arguments matrix --f0 is required" in capsys.readouterr().err


def test_schur_takes_a_literal_or_f0_not_both(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["schur", "[[1,2],[3,4]]", "--f0"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert not captured.out and "not allowed with argument" in captured.err


def test_schur_witness_only_requires_f0(capsys):
    code, out, err = run_cli(capsys, "schur", "[[1]]", "--witness-only")
    assert code == 2
    assert not out
    assert err == "--witness-only applies to --f0\n"


def test_verify_single_group(capsys):
    code, out, err = run_cli(capsys, "verify", "--groups", "Z3", "--format", "json")
    assert code == 0
    assert "PASS sweep_Z3" in err
    payload = json.loads(out)
    assert payload["passed"] is True


def test_verify_with_an_empty_group_list_runs_no_sweep(capsys):
    code, out, err = run_cli(capsys, "verify", "--groups", "", "--format", "json")
    assert code == 0
    names = [item["name"] for item in json.loads(out)["items"]]
    assert "pattern_schur_norm" in names
    assert not any(name.startswith("sweep_") for name in names)
    assert "sweep_" not in err


def test_verify_boundary_at_zero_tolerance(capsys):
    code, _, err = run_cli(capsys, "verify", "--groups", "Z4", "--tol", "0")
    assert code == 1
    assert "FAIL" in err


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "sweep", "-g", "Z4", "--format", "json",
                           "--out", str(target))
    assert code == 0
    assert out.strip() == str(target)
    payload = json.loads(target.read_text())
    assert payload["violations"] == []


def test_out_file_replaces_a_longer_report(tmp_path, capsys):
    target = tmp_path / "report.json"
    target.write_text("x" * 100000)
    code, _, _ = run_cli(capsys, "norm", "-g", "Z4", "-s", "0", "--format", "json",
                         "--out", str(target))
    assert code == 0
    assert json.loads(target.read_text())["bs_norm"] == 1


@pytest.mark.parametrize("argv", [
    ("norm", "-g", "Z4", "-s", "0,2"),
    ("sweep", "-g", "Z6", "--format", "csv"),
    ("verify", "--groups", "Z3"),
])
def test_out_devnull_takes_the_report(argv, capsys):
    # a character device refuses truncate: an existing --out is truncated
    # only when it is a seekable file that holds something
    code, out, _ = run_cli(capsys, *argv, "--out", os.devnull)
    assert code == 0 and out == f"{os.devnull}\n"


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout on this platform")
def test_out_dev_stdout_into_a_pipe_takes_the_report():
    # a pipe is not seekable: the spool is copied in, and the path follows
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    run = subprocess.run([sys.executable, "-m", "idemnorm.cli", "sweep", "-g", "Z6",
                          "--format", "csv", "--out", "/dev/stdout"], capture_output=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert run.returncode == 0
    assert_same_text(run.stdout.decode(), sweep(parse_group("Z6")).to_csv() + "/dev/stdout\n")


def _traced_peak(argv):
    """The tracemalloc peak, in bytes, of one successful run of main, after
    a collection, so that no earlier run's cyclic garbage is freed inside
    it."""
    gc.collect()
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_stdout_sink_peaks_where_a_new_out_file_does(tmp_path, capsys, monkeypatch):
    # the spool keeps at most _SPOOL_MEMORY bytes of the report before it
    # moves to disk, so a sweep on stdout holds no more of its report than
    # one written straight to a new file
    argv = ["sweep", "-g", "Z16", "--format", "json"]
    _traced_peak(argv + ["--out", str(tmp_path / "warm.json")])  # fills the memos
    with open(os.devnull, "w") as devnull:
        monkeypatch.setattr(sys, "stdout", devnull)
        stdout_peak = _traced_peak(argv)
    monkeypatch.undo()
    file_peak = _traced_peak(argv + ["--out", str(tmp_path / "new.json")])
    assert stdout_peak - file_peak < 2 * cli._SPOOL_MEMORY


FAILED_RUNS = [
    (("norm", "-g", "BAD", "-s", "0"), 2),
    (("norm", "-g", "Z4", "-s", "0,9"), 2),
    (("sweep", "-g", "no-such-group.json"), 2),
    (("schur", "--f0", "--tol", "0"), 3),
]


@pytest.mark.parametrize("argv, code", FAILED_RUNS)
def test_failed_run_keeps_an_existing_out_file(tmp_path, capsys, argv, code):
    target = tmp_path / "report.json"
    target.write_text("old report\n")
    assert run_cli(capsys, *argv, "--format", "json", "--out", str(target))[0] == code
    assert target.read_text() == "old report\n"


@pytest.mark.parametrize("argv, code", FAILED_RUNS)
def test_failed_run_leaves_no_new_out_file(tmp_path, capsys, argv, code):
    target = tmp_path / "report.json"
    assert run_cli(capsys, *argv, "--format", "json", "--out", str(target))[0] == code
    assert list(tmp_path.iterdir()) == []


def test_violation_run_writes_its_report_to_a_new_out_file(tmp_path, capsys, monkeypatch):
    # exit 1 reports violations: the run wrote its report, which stays
    _predict_a_quarter_off(monkeypatch)
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "sweep", "-g", "Z6", "--format", "json", "--out", str(target))
    assert code == 1 and out == f"{target}\n"
    assert json.loads(target.read_text())["violations"]


@pytest.mark.parametrize("argv", [("norm", "-g", "Z4", "-s", "0"), ("sweep", "-g", "Z6")])
def test_out_path_that_cannot_be_opened_exits_2(tmp_path, capsys, argv):
    target = tmp_path / "missing" / "r.json"
    code, out, err = run_cli(capsys, *argv, "--format", "json", "--out", str(target))
    assert code == 2
    assert not out
    # the path is opened before any work: the error is the only line, and
    # sweep never reports its time
    assert "No such file or directory" in err and str(target) in err
    assert err.count("\n") == 1 and "took" not in err
    assert not target.parent.exists()


@pytest.mark.parametrize("spec", ["Z64", "Z8xZ8", "Z2xZ2xZ2xZ2xZ2xZ2"])
def test_norm_at_order_64_builds_no_translation_table(spec, monkeypatch, capsys):
    # a one-shot norm reads the abelian stabilizer off the autocorrelation;
    # inputs: a planted coset, unions of two cosets and a random set
    group = parse_group(spec)
    inputs = [mask for _, _, mask in planted_subsets(group, 7, coset_size=8, union_size=4,
                                                     random_size=21)]
    rng = random.Random(7)
    sub = random_subgroup(group, rng, 4)
    a, b = rng.sample([x for x in range(group.order) if x not in sub], 2)
    inputs.append(sum(1 << oracle_mul(group, r, h) for r in (a, b) for h in sub))

    def refuse(self):
        raise AssertionError("norm built a translation table")

    monkeypatch.setattr(Group, "translation_table", property(refuse))
    for mask in inputs:
        code, out, _ = run_cli(capsys, "norm", "-g", spec, "-s",
                               ",".join(map(str, subset_elements(mask))), "--format", "json")
        assert code == 0
        kind, subgroup, rep_a, rep_b, q = oracle_analyze_cosets(group, mask)
        assert json.loads(out)["analysis"] == {
            "kind": kind, "subgroup": None if subgroup is None else subset_elements(subgroup),
            "rep_a": rep_a, "rep_b": rep_b, "q": q}


@pytest.mark.parametrize("argv, code", [
    (("norm", "-g", "Z4", "-s", "0,1", "--format", "json"), 0),
    (("norm", "-g", "Z16", "-s", "1_0"), 2),
])
def test_module_entry_point_exits_with_the_code_of_main(argv, code):
    # python -m idemnorm.cli in a process of its own, as the package's
    # console script runs main: the exit code reaches the caller, stdout
    # holds one JSON document, and a refused spec is one line on stderr
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    run = subprocess.run([sys.executable, "-m", "idemnorm.cli", *argv], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert run.returncode == code
    if code == 0:
        assert json.loads(run.stdout)["analysis"]["kind"] == "two_cosets"
        assert run.stderr == ""
    else:
        assert run.stdout == ""
        assert run.stderr.startswith("bad subset spec '1_0'") and run.stderr.count("\n") == 1


def test_norm_text_format_mentions_kind(capsys):
    code, out, _ = run_cli(capsys, "norm", "-g", "Z4", "-s", "0,1")
    assert code == 0
    assert "two_cosets" in out


def test_group_from_cayley_file(tmp_path, capsys):
    from idemnorm import builtin_group

    s3 = builtin_group("S3")
    path = tmp_path / "group.json"
    path.write_text(json.dumps({
        "n": 6, "identity": 0,
        "table": [[oracle_mul(s3, a, b) for b in range(6)] for a in range(6)],
    }))
    code, out, _ = run_cli(capsys, "norm", "-g", str(path), "-s", "0,3,4",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["analysis"]["kind"] == "coset"
    assert payload["cb_lower"] == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("content", ['{"n": 3}', '{"table": 5}', '[1, 2]'])
def test_malformed_cayley_file_exits_2(tmp_path, capsys, content):
    path = tmp_path / "group.json"
    path.write_text(content)
    code, _, err = run_cli(capsys, "norm", "-g", str(path), "-s", "0")
    assert code == 2
    assert "table" in err or "object" in err


@pytest.mark.parametrize("content, message", [
    ({"table": [[0, 1]]}, "Cayley table must be square"),
    ({"table": []}, "Cayley table must be nonempty"),
    ({"identity": 2, "table": [[0, 1], [1, 0]]}, "identity index 2 out of range"),
    ({"n": 3, "table": [[0, 1], [1, 0]]}, "declared order 3 does not match table size 2"),
    ({"table": [[0, 1], [1, 1]]}, "element 1 has no two-sided inverse"),
])
def test_cayley_file_failing_an_axiom_exits_2(tmp_path, capsys, content, message):
    path = tmp_path / "group.json"
    path.write_text(json.dumps(content))
    code, out, err = run_cli(capsys, "norm", "-g", str(path), "-s", "0")
    assert code == 2
    assert not out
    assert err.startswith(message) and err.count("\n") == 1


def test_group_path_to_a_directory_exits_2(tmp_path, capsys):
    code, _, err = run_cli(capsys, "norm", "-g", str(tmp_path), "-s", "0")
    assert code == 2
    assert "cannot parse group spec" in err


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
@pytest.mark.parametrize("argv", [("sweep", "-g", "Z4"), ("verify", "--groups", "Z4"),
                                  ("schur", "--f0")])
def test_bad_tolerance_exits_2(capsys, argv, tol):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--tol", tol])
    assert exc.value.code == 2
    assert "tol" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [("sweep", "-g", "Z4"), ("verify", "--groups", "Z3")])
def test_workers_option_is_gone(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--workers", "2"])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [("norm", "-g", "Z4", "-s", "0,1"), ("schur", "--f0"),
                                  ("verify", "--groups", "Z3")])
def test_csv_format_only_on_sweep(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--format", "csv"])
    assert exc.value.code == 2
    assert "csv" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
def test_schur_badly_scaled_literal_exits_2(capsys):
    big = 1.7e308
    literal = json.dumps([[big, big, big], [big, big, 0], [big, 0, big]])
    code, out, err = run_cli(capsys, "schur", literal)
    assert code == 2
    assert not out
    assert "1.700e+308" in err and "2^1000" in err


def _code_and_stdout(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code
    return code, capsys.readouterr().out


def test_parser_is_built_once_and_keeps_no_state_between_calls(capsys):
    assert build_parser() is build_parser()
    calls = [("norm", "-g", "Z6", "-s", "0,2,4"),
             ("sweep", "-g", "Z4", "--workers", "1"),
             ("schur", "--f0"),
             ("sweep", "-g", "Z4", "--format", "csv"),
             ("norm", "-g", "Z6", "-s", "0,2,4")]
    shared = [_code_and_stdout(capsys, argv) for argv in calls]
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(_code_and_stdout(capsys, argv))
    assert shared == fresh
    assert [code for code, _ in shared] == [0, 2, 0, 0, 0]
    assert shared[0] == shared[4] and "kind: coset" in shared[0][1]


def _dumps(value):
    return json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("argv", [
    ["sweep", "-g", "Z6"],
    ["sweep", "-g", "D4"],
    ["norm", "-g", "Z32xZ32", "-s", "(0,0),(0,16),(16,0),(16,16),(1,3)"],
    ["schur", "--f0"],
    ["verify"],
    ["norm", "-g", "S3", "-s", "0,1"],
    ["norm", "-g", "Z6", "-s", "0,1,3", "--cb"],
    ["schur", "[[1,1],[1,-1]]"],
])
def test_json_reports_are_the_bytes_of_json_dumps(argv, monkeypatch, capsys):
    payloads = []
    render = cli._render

    def recording(payload, fmt):
        payloads.append(payload)
        return render(payload, fmt)

    monkeypatch.setattr(cli, "_render", recording)
    assert main(argv + ["--format", "json"]) == 0
    if argv[0] == "sweep":
        # a sweep's JSON is written a record at a time, never through _render
        assert payloads == []
        payload = sweep(parse_group(argv[2])).to_dict()
    else:
        [payload] = payloads
    assert_same_text(capsys.readouterr().out, _dumps(payload) + "\n")


# Z13, Z14, Z2xZ7 and Z16 sweep across 4096-mask blocks: 2, 4, 4 and 16 of
# them
SWEEP_JSON_GROUPS = ("Z6", "Z2xZ4", "Z12", "Z2xZ6", "Z13", "Z14", "Z2xZ7", "S3", "D4", "Q8",
                     "Z2xZ2xZ3", "Z16")


@functools.cache
def _sweep_of(spec):
    return sweep(parse_group(spec))


@pytest.mark.parametrize("spec", SWEEP_JSON_GROUPS)
def test_sweep_json_is_the_bytes_of_json_dumps_on_stdout_and_out(spec, tmp_path, capsys):
    expected = _dumps(_sweep_of(spec).to_dict()) + "\n"
    code, out, _ = run_cli(capsys, "sweep", "-g", spec, "--format", "json")
    assert code == 0
    assert_same_text(out, expected)
    target = tmp_path / "report.json"
    target.write_text("an older and longer report\n" * 1000)
    code, out, _ = run_cli(capsys, "sweep", "-g", spec, "--format", "json",
                           "--out", str(target))
    assert code == 0 and out == f"{target}\n"
    assert_same_text(target.read_text(), expected)


def _d8_table_file(directory):
    """D8 (order 16) as a Cayley table file, with r^i s^j at index i + 8 j
    and s r = r^-1 s."""
    path = directory / "d8.json"
    path.write_text(json.dumps({"table": [[(a + (b if a < 8 else -b)) % 8 + 8 * ((a >= 8) ^ (b >= 8))
                                           for b in range(16)] for a in range(16)]}))
    return path


def test_sweep_of_a_cayley_table_file(tmp_path, capsys):
    # D8 as a Cayley table file: the CSV written to --out holds the header
    # and one row for each of its 808 classes, whose orbit sizes partition
    # the 2^16 subsets, and the JSON is a fixed point of json.dumps
    path = _d8_table_file(tmp_path)
    target = tmp_path / "d8.csv"
    code, out, _ = run_cli(capsys, "sweep", "-g", str(path), "--format", "csv",
                           "--out", str(target))
    assert code == 0 and out == f"{target}\n"
    reader = csv.DictReader(target.read_text().splitlines())
    rows = list(reader)
    assert reader.fieldnames[:3] == ["subset", "kind", "q"]
    assert len(rows) == 808
    assert sum(int(row["orbit_size"]) for row in rows) == 1 << 16
    code, out, _ = run_cli(capsys, "sweep", "-g", str(path), "--format", "json")
    assert code == 0
    assert_same_text(out, _dumps(json.loads(out)) + "\n")


def _report_on_every_sink(capsys, tmp_path, argv):
    """The bytes that a successful run writes to stdout, to a new --out
    file and to an existing, longer --out file, which must be the same."""
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    new, old = tmp_path / "new.report", tmp_path / "old.report"
    old.write_text("an older and longer report\n" * 20000)
    for target in (new, old):
        code, out_line, _ = run_cli(capsys, *argv, "--out", str(target))
        assert code == 0 and out_line == f"{target}\n"
    assert_same_text(new.read_bytes(), out.encode())
    assert_same_text(old.read_bytes(), out.encode())
    return out


@pytest.mark.parametrize("spec", SWEEP_JSON_GROUPS)
def test_sweep_json_is_the_same_bytes_on_every_sink(spec, tmp_path, capsys):
    # a new --out file takes the report as it is written, while stdout and
    # an existing file take it from the spool
    out = _report_on_every_sink(capsys, tmp_path, ("sweep", "-g", spec, "--format", "json"))
    assert_same_text(out, _dumps(_sweep_of(spec).to_dict()) + "\n")


@pytest.mark.parametrize("spec", ("Z6", "Z2xZ4", "S3", "D4", "Z16", "D8 file"))
def test_sweep_csv_is_the_bytes_of_to_csv_on_every_sink(spec, tmp_path, capsys):
    # the CSV is written a block at a time as the sweep folds it (Z16 has
    # 16 blocks), and it is to_csv's text: \r\n line ends, and no newline
    # after the last row's
    group = _d8_table_file(tmp_path) if spec == "D8 file" else spec
    expected = sweep(parse_group(str(group))).to_csv()
    out = _report_on_every_sink(capsys, tmp_path, ("sweep", "-g", str(group), "--format", "csv"))
    assert_same_text(out, expected)
    assert out.endswith("0\r\n")


def test_sweep_json_reaches_a_new_out_file_before_its_last_record_is_written(tmp_path, capsys,
                                                                              monkeypatch):
    # each _record_json call notes the size of the file so far: the report
    # is written a chunk of records at a time, not once all are rendered
    target = tmp_path / "report.json"
    sizes = []
    record_json = cli._record_json

    def noting_the_size(record):
        sizes.append(target.stat().st_size)
        return record_json(record)

    monkeypatch.setattr(cli, "_record_json", noting_the_size)
    code, _, _ = run_cli(capsys, "sweep", "-g", "Z16", "--format", "json", "--out", str(target))
    assert code == 0 and len(sizes) == 4116
    assert 0 < sizes[-1] < target.stat().st_size


@pytest.mark.parametrize("fmt", ("csv", "text"))
def test_csv_and_text_sweeps_keep_no_record(fmt, capsys, monkeypatch):
    # the fold hands back no records, and the text report still counts them
    reports = []
    fold = cli.fold_sweep

    def keeping_the_report(*args, **kwargs):
        reports.append(fold(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(cli, "fold_sweep", keeping_the_report)
    code, out, _ = run_cli(capsys, "sweep", "-g", "Z13", "--format", fmt)
    assert code == 0
    [report] = reports
    assert report.records == [] and report.subset_total == 1 << 13
    expected = _sweep_of("Z13")
    assert report.summary() == expected.summary()
    if fmt == "csv":
        assert_same_text(out, expected.to_csv())
    else:
        assert "records: [632 entries]\n" in out


def test_text_sweep_hands_its_record_count_as_text(capsys, monkeypatch):
    # the text report names the class count and builds no list of that length
    payloads = []
    emit = cli._emit

    def noting_the_payload(payload, args):
        payloads.append(payload)
        emit(payload, args)

    monkeypatch.setattr(cli, "_emit", noting_the_payload)
    code, out, _ = run_cli(capsys, "sweep", "-g", "Z13", "--format", "text")
    assert code == 0 and "records: [632 entries]\n" in out
    [payload] = payloads
    assert payload["records"] == "[632 entries]"


@pytest.mark.parametrize("spec", ("Z6", "Z2xZ4", "Z16", "S3", "D4", "D8 file"))
def test_csv_rows_match_the_csv_writer_oracle_on_every_record(spec, tmp_path):
    group = parse_group(str(_d8_table_file(tmp_path) if spec == "D8 file" else spec))
    report = sweep(group)
    assert_same_text(csv_lines(report.records), oracle_csv_lines(report.records))
    assert_same_text(report.to_csv(), oracle_csv_lines(report.records, header=True))
    assert CSV_HEADER == oracle_csv_lines([], header=True)


def test_csv_rows_match_the_csv_writer_oracle_on_hand_made_records():
    # the fields a sweep of Z6 seldom or never gives: the empty set, a
    # two-coset q, no prediction, a norm of -0.0, NaN and the infinities
    records = sweep(parse_group("Z6")).records
    base = records[3]
    two_cosets = next(r for r in records if r.analysis.kind == "two_cosets")
    made = [
        dataclasses.replace(base, subset=0, analysis=CosetAnalysis("empty")),
        two_cosets,
        dataclasses.replace(two_cosets, analysis=dataclasses.replace(two_cosets.analysis, q=7)),
        dataclasses.replace(base, predicted=None),
        dataclasses.replace(base, norm_lower=-0.0, norm_upper=0.0, predicted=-0.0),
        dataclasses.replace(base, norm_lower=math.nan, norm_upper=math.inf,
                            predicted=-math.inf),
        dataclasses.replace(base, subset=(1 << 24) - 1, orbit_size=1, below_coset_bound=True,
                            in_open_interval=True, extremal_other=True),
    ]
    assert two_cosets.analysis.q is not None
    for record in made:
        assert csv_lines([record]) == oracle_csv_lines([record])
    assert csv_lines(made) == oracle_csv_lines(made)
    assert csv_lines([]) == ""


def _numpy_norm_on_the_fifth_class(monkeypatch):
    """Hand the sweep a fifth class record whose norm is a numpy float,
    which the JSON record writer refuses with a TypeError."""
    sweep_module = importlib.import_module("idemnorm.sweep")
    classify = sweep_module.classify
    calls = []

    def numpy_norm_on_the_fifth(group, mask, tol):
        record = classify(group, mask, tol)
        calls.append(mask)
        if len(calls) == 5:
            return dataclasses.replace(record, norm_lower=np.float64(record.norm_lower))
        return record

    monkeypatch.setattr(sweep_module, "classify", numpy_norm_on_the_fifth)


def test_record_writer_failing_partway_leaves_no_new_out_file(tmp_path, capsys, monkeypatch):
    # the summary's head is written to the new file before the records are
    _numpy_norm_on_the_fifth_class(monkeypatch)
    target = tmp_path / "report.json"
    with pytest.raises(TypeError, match="float64"):
        main(["sweep", "-g", "Z6", "--format", "json", "--out", str(target)])
    assert list(tmp_path.iterdir()) == []
    assert capsys.readouterr().out == ""


def test_record_writer_failing_partway_prints_nothing(capsys, monkeypatch):
    # stdout takes the report from the spool, once the run has succeeded
    _numpy_norm_on_the_fifth_class(monkeypatch)
    with pytest.raises(TypeError, match="float64"):
        main(["sweep", "-g", "Z6", "--format", "json"])
    assert capsys.readouterr().out == ""


def _refuse_the_witness_integrals_of_a_later_block(monkeypatch, sizes, target):
    """Make the first _witness_integrals call of a sweep on masks of its
    third 4096-mask block or later raise the ArithmeticError of a formula
    that disagrees with its numeric integral, noting the size of the
    target file at that call."""
    sweep_module = importlib.import_module("idemnorm.sweep")
    integrals = sweep_module._witness_integrals

    def refusing_a_later_block(group, masks, *args):
        if len(masks) and int(masks[0]) >> 12 >= 2:
            sizes.append(target.stat().st_size if target.exists() else None)
            raise ArithmeticError("test-function integral mismatch: formula 6.0 vs numeric 7.0")
        return integrals(group, masks, *args)

    monkeypatch.setattr(sweep_module, "_witness_integrals", refusing_a_later_block)


@pytest.mark.parametrize("sink", ("new", "existing", "stdout"))
def test_failed_exactness_check_in_a_csv_sweep_exits_3(sink, tmp_path, capsys, monkeypatch):
    # the CSV rows of Z16's first two blocks, 3,033 classes, were written
    # before the failure: a new --out file is removed, an existing one
    # kept, and stdout is empty
    target = tmp_path / "report.csv"
    if sink == "existing":
        target.write_text("old report\n")
    sizes = []
    _refuse_the_witness_integrals_of_a_later_block(monkeypatch, sizes, target)
    out_args = () if sink == "stdout" else ("--out", str(target))
    code, out, err = run_cli(capsys, "sweep", "-g", "Z16", "--format", "csv", *out_args)
    assert code == 3 and out == ""
    assert err == "test-function integral mismatch: formula 6.0 vs numeric 7.0\n"
    if sink == "new":
        assert sizes[0] > 0 and list(tmp_path.iterdir()) == []
    elif sink == "existing":
        assert target.read_text() == "old report\n"
    else:
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("out", (False, True))
def test_failed_exactness_check_in_norm_exits_3(out, tmp_path, capsys, monkeypatch):
    # the autocorrelation of the stabilizer moved off the integers by 0.3
    groups_module = importlib.import_module("idemnorm.groups")
    spectrum_of = groups_module._spectrum_of
    calls = []

    def shifted(group, values):
        calls.append(1)
        return spectrum_of(group, values) + (0.3 * group.order if len(calls) == 2 else 0)

    monkeypatch.setattr(groups_module, "_spectrum_of", shifted)
    target = tmp_path / "report.json"
    out_args = ("--out", str(target)) if out else ()
    code, stdout, err = run_cli(capsys, "norm", "-g", "Z2xZ2xZ2xZ2xZ2xZ2xZ2", "-s", "0,4,8",
                                *out_args)
    assert code == 3 and stdout == ""
    assert err.endswith("away from an integer\n") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def _as_report_item(record_dict):
    # a record as json.dumps writes it inside the report's "records" list
    text = _dumps({"records": [record_dict]})
    prefix, suffix = '{\n  "records": [\n    ', "\n  ]\n}"
    assert text.startswith(prefix) and text.endswith(suffix)
    return text[len(prefix):-len(suffix)]


@pytest.mark.parametrize("spec", SWEEP_JSON_GROUPS)
def test_record_writer_is_the_json_of_every_record(spec):
    for record in _sweep_of(spec).records:
        text = _record_json(record)
        assert text == _json_text(record.to_dict(), "    ")
        assert text == _as_report_item(record.to_dict())


def _a_record_with_every_field():
    records = _sweep_of("Z12").records
    return next(r for r in records if r.witness is not None and r.pattern is not None)


@pytest.mark.parametrize("changes", [
    {"norm_lower": math.nan, "norm_upper": math.inf, "predicted": -math.inf},
    {"witness_bound": math.nan, "predicted": None, "witness": None, "pattern": None},
    {"subset": 0, "analysis": CosetAnalysis(kind="empty")},
    {"orbit_size": 2 ** 70, "norm_lower": -0.0, "norm_upper": 5e-324, "predicted": 1e22},
    # ints beyond the table of 0..63, and a bool, which json spells as true
    {"pattern": ((0, 64, 2 ** 70), (-1, True, 63)), "witness": WitnessTriple(u=-5, v=64, w=1 << 65)},
    # the same float value in two objects, and a subset beyond 64 bits
    {"norm_lower": 1.25, "norm_upper": float("1.25"), "subset": (1 << 70) | (1 << 64) | 5},
])
def test_record_writer_spells_every_value_as_json_does(changes):
    record = dataclasses.replace(_a_record_with_every_field(), **changes)
    text = _record_json(record)
    assert text == _as_report_item(record.to_dict())
    assert text == _json_text(record.to_dict(), "    ")


class _Count(int):
    """An int subclass: json.dumps writes it, reports never hold one."""


@pytest.mark.parametrize("changes", [
    {"norm_lower": np.float64(1.5)},
    {"norm_upper": np.float64(math.nan)},
    {"orbit_size": np.int64(12)},
    {"orbit_size": _Count(12)},
    {"witness": WitnessTriple(u=_Count(1), v=2, w=3)},
    {"witness": WitnessTriple(u=1, v=2, w=np.int64(3))},
    {"witness_bound": np.float64(2.0)},
    {"pattern": ((0, 1, np.int64(2)), (0, 1, 2))},
    {"pattern": ((0, 1, 2), (0, (1,), 2))},
    {"norm_exact": np.bool_(True)},
    {"predicted": (1.0,)},
    {"analysis": CosetAnalysis(kind="coset", subgroup=1, rep_a=np.int64(0))},
], ids=range(12))
def test_record_writer_refuses_what_the_report_writer_refuses(changes):
    record = dataclasses.replace(_a_record_with_every_field(), **changes)
    with pytest.raises(TypeError):
        _json_text(record.to_dict(), "    ")
    with pytest.raises(TypeError):
        _record_json(record)


# an IntEnum member for each int a record of a small group holds, and a
# float subclass: json.dumps writes both, the report writer refuses them
_Element = enum.IntEnum("_Element", {f"E{i}": i for i in range(64)})


class _Norm(float):
    """A float subclass."""


def _same_value_other_type(value):
    """Values equal to an int or a float of a record, of other types."""
    if type(value) is int:
        others = [np.int64(value), _Element(value), float(value)]
        return others + [bool(value)] if value in (0, 1) else others
    return [np.float64(value), _Norm(value)]


def _retyped_records(record):
    """Records equal in value to this one, each with one int of its
    analysis, pattern or witness, or its floats, of another type."""
    analysis, pattern, witness = record.analysis, record.pattern, record.witness
    for field in ("q", "rep_a", "rep_b"):
        if getattr(analysis, field) is not None:
            for other in _same_value_other_type(getattr(analysis, field)):
                yield dataclasses.replace(
                    record, analysis=dataclasses.replace(analysis, **{field: other}))
    if pattern is not None:
        flat = [*pattern[0], *pattern[1]]
        for k, entry in enumerate(flat):
            for other in _same_value_other_type(entry):
                entries = flat[:k] + [other] + flat[k + 1:]
                yield dataclasses.replace(record, pattern=(tuple(entries[:3]), tuple(entries[3:])))
    if witness is not None:
        for field in ("u", "v", "w"):
            for other in _same_value_other_type(getattr(witness, field)):
                yield dataclasses.replace(
                    record, witness=dataclasses.replace(witness, **{field: other}))
    for other in _same_value_other_type(record.norm_lower):
        yield dataclasses.replace(record, norm_lower=other, norm_upper=other)
        yield dataclasses.replace(record, norm_upper=other)
    for field in ("predicted", "witness_bound"):
        if getattr(record, field) is not None:
            for other in _same_value_other_type(getattr(record, field)):
                yield dataclasses.replace(record, **{field: other})


def _assert_written_as_the_report_writer_writes(record):
    try:
        expected = _json_text(record.to_dict(), "    ")
    except TypeError:
        with pytest.raises(TypeError):
            _record_json(record)
    else:
        assert _record_json(record) == expected


def test_record_writer_memo_serves_no_text_to_an_equal_value_of_another_type():
    # the memos of the record writer are filled by valid records first, in
    # this process; records of equal value that hold another type must then
    # be written as _json_text writes them, or refused as it refuses them
    records = [r for spec in ("Z12", "Z2xZ6", "Z13") for r in _sweep_of(spec).records]
    for record in records:
        assert _record_json(record) == _json_text(record.to_dict(), "    ")
    kinds = {r.analysis.kind: r for r in records}
    full = _a_record_with_every_field()
    named = [r for r in records if r.analysis.kind in ("coset", "two_cosets", "empty")]
    retyped = [variant for record in named + [full] for variant in _retyped_records(record)]
    assert any(type(v.analysis.rep_a) is bool and v.analysis.rep_a for v in retyped)
    assert any(type(v.pattern[0][0]) is _Element for v in retyped if v.pattern is not None)
    for variant in retyped:
        _assert_written_as_the_report_writer_writes(variant)
    # -0.0 after 0.0, in a float field and in an int field, and NaN and the
    # infinities, each twice in a row
    empty = kinds["empty"]
    assert empty.norm_lower == 0.0 and empty.predicted == 0.0
    zeros = [
        dataclasses.replace(empty, norm_lower=0.0, norm_upper=0.0),
        dataclasses.replace(empty, norm_lower=-0.0, norm_upper=-0.0, predicted=-0.0),
        dataclasses.replace(full, witness_bound=0.0, analysis=dataclasses.replace(
            full.analysis, q=0.0), pattern=((0.0, 1, 2), (0, 1, 2))),
        dataclasses.replace(full, witness_bound=-0.0, analysis=dataclasses.replace(
            full.analysis, q=-0.0), pattern=((-0.0, 1, 2), (0, 1, 2))),
    ]
    special = [dataclasses.replace(full, norm_lower=value, norm_upper=upper,
                                   predicted=value, witness_bound=upper)
               for value, upper in ((math.nan, math.inf), (-math.inf, math.nan),
                                    (math.inf, -math.inf))]
    for record in zeros + special + special:
        _assert_written_as_the_report_writer_writes(record)
    assert '"norm_lower": -0.0' in _record_json(zeros[1])
    assert '"q": -0.0' in _record_json(zeros[3])


def test_record_writer_failing_partway_keeps_an_existing_out_file(tmp_path, capsys,
                                                                  monkeypatch):
    # the fifth class of the sweep holds a numpy norm, which the record
    # writer refuses after it has written four records
    sweep_module = importlib.import_module("idemnorm.sweep")
    classify = sweep_module.classify
    calls = []

    def numpy_norm_on_the_fifth(group, mask, tol):
        record = classify(group, mask, tol)
        calls.append(mask)
        if len(calls) == 5:
            return dataclasses.replace(record, norm_lower=np.float64(record.norm_lower))
        return record

    written = []
    record_json = cli._record_json

    def counting(record):
        text = record_json(record)
        written.append(text)
        return text

    monkeypatch.setattr(sweep_module, "classify", numpy_norm_on_the_fifth)
    monkeypatch.setattr(cli, "_record_json", counting)
    target = tmp_path / "report.json"
    target.write_bytes(b"old report\n")
    with pytest.raises(TypeError, match="float64"):
        main(["sweep", "-g", "Z6", "--format", "json", "--out", str(target)])
    assert len(written) == 4
    assert target.read_bytes() == b"old report\n"
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("spec", ("Z6", "D4"))
def test_sweep_text_report_reads_the_summary_and_the_record_count(spec, capsys):
    report = _sweep_of(spec)
    code, out, _ = run_cli(capsys, "sweep", "-g", spec)
    assert code == 0
    # the text report as it was rendered from the whole report dict
    assert out == cli._render(report.to_dict(), "text") + "\n"
    assert f"records: [{len(report.records)} entries]\n" in out


def test_json_writer_on_a_complex_witness():
    # a complex witness is stored as [re, im] pairs, three levels of lists
    phases = np.exp(2j * np.pi * np.arange(9).reshape(3, 3) / 7)
    payload = {"witness": WitnessPair(phases, np.ones(3)).to_dict()}
    assert len(payload["witness"]["matrix"][0][0]) == 2
    assert _json_text(payload, "") == _dumps(payload)


JSON_EDGE_CASES = [
    math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e22, 1.0, 0.1, 2 ** 70, -3,
    True, False, None, [True, 1, False, 0], [1, True], [1.0, 1], [1.5, math.nan],
    [math.inf, -math.inf], [-0.0, 5e-324, 1e22],
    [], {}, [[]], [{}], {"a": []}, {"a": {}}, [[], [[]], {"b": [{}]}],
    "plain", 'quote " and back\\slash', "tab\tnew\nline\x00\x1f\x7f",
    "caf\u00e9 \u2603 \U0001F600",
    {"z": 1, "a": {"y": [1, {"b": None, "a": [0.5]}]}, "m": "s"},
    {"\u00e9": "\u00fc", "\"": "\n"},
    "", {"": ""}, [2 ** 64, -(2 ** 63), 0], {"b": True, "a": 1, "c": 1.0, "d": None},
    "\u2028\u2029\ud800", [[[[1]]]], [1e-7, 1e16, 123456789.125, -2.5e-300],
    {"\x7f": 1, "\x00": 0}, {"B": 1, "a": 2, "_": 3, "10": 4, "9": 5},
    {"records": [{"analysis": {"kind": "coset", "q": None, "subgroup": [0, 2]},
                  "norm_exact": True, "norm_lower": 1.0000000000000002}], "violations": []},
]


@pytest.mark.parametrize("value", JSON_EDGE_CASES, ids=range(len(JSON_EDGE_CASES)))
def test_json_writer_matches_json_dumps(value):
    assert _json_text(value, "") == _dumps(value)
    nested = {"outer": [value, {"inner": value}]}
    assert _json_text(nested, "") == _dumps(nested)


# json.dumps writes these, but no report holds a tuple, a numpy scalar or a
# key that is not a str, so the report writer refuses them
@pytest.mark.parametrize("value", [
    (1, 2), [(1, (2.5, None))], {"t": ()},
    np.float64(1.5), [np.float64(2.0), 1.0], {"x": np.float64(math.nan)},
    {1: "int key", 3: 4}, {1.5: 1, -math.inf: 2, math.nan: 3}, {True: 1}, {None: 3},
])
def test_json_writer_refuses_types_reports_do_not_hold(value):
    with pytest.raises(TypeError):
        _json_text(value, "")


def test_json_writer_writes_every_scalar_inside_a_container():
    # scalars inside a list and as dict values are written in place, with
    # bool beside int and the empty containers, which recurse
    scalars = ["s", "", 3, -(2 ** 70), 0.5, -0.0, math.nan, math.inf, -math.inf,
               True, 1, False, 0, None]
    payload = {"list": scalars + [[], {}, [[]], [{}], [[], {}]],
               "dict": {f"k{i:02d}": x for i, x in enumerate(scalars)},
               "empty": {"list": [], "dict": {}}}
    assert _json_text(payload, "") == _dumps(payload)


@pytest.mark.parametrize("item", [(1, 2), np.float64(1.5), np.int64(3), _Count(3)],
                         ids=["tuple", "float64", "int64", "int-subclass"])
def test_json_writer_refuses_a_stray_type_inside_a_container(item):
    for value in ([1, item], {"a": 1, "b": item}, [[item]], {"a": {"b": item}}):
        with pytest.raises(TypeError):
            _json_text(value, "")


@pytest.mark.parametrize("value", [np.int64(3), [np.bool_(True)], {(1, 2): 3},
                                   {1: 2, "a": 3}, object(), {"s": {1, 2}}])
def test_json_writer_refuses_what_json_refuses(value):
    with pytest.raises(TypeError):
        _dumps(value)
    with pytest.raises(TypeError):
        _json_text(value, "")


# lists of one exact scalar type, which the writer maps in one pass, and
# the same items mixed, which it writes item by item
HOMOGENEOUS_LISTS = [
    [0, 1, -7, 2 ** 70, -(2 ** 63)],
    [0.5, -0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 1e22, 1.0000000000000002],
    ["", "plain", "caf\u00e9 \u2603 \U0001F600", 'q"b\\s', "\n\t\x00\x7f", "\u2028\ud800"],
    [True, False, True],
    [None, None],
    [[1.0, -0.0], [math.nan, 2.5]],
]
MIXED_LISTS = [
    [0, 0.0, "0", False, None],
    [1, True, 1.0],
    [math.nan, None, -0.0, 0],
    ["\u00e9", 3, [4.5, 6], {"k": -math.inf}],
    [[], {}, 1],
]


@pytest.mark.parametrize("value", HOMOGENEOUS_LISTS + MIXED_LISTS,
                         ids=range(len(HOMOGENEOUS_LISTS) + len(MIXED_LISTS)))
def test_json_writer_maps_lists_of_one_scalar_type_as_json_dumps_writes_them(value):
    for payload in (value, {"a": value, "b": [value, value]}, [[value]]):
        assert _json_text(payload, "") == _dumps(payload)


@pytest.mark.parametrize("items", [
    [np.int64(1), np.int64(2)],
    [_Element(1), _Element(2)],
    [_Norm(1.5), _Norm(-0.0)],
    [np.float64(1.5), np.float64(2.5)],
    [np.bool_(True), np.bool_(False)],
], ids=["int64", "IntEnum", "float-subclass", "float64", "bool_"])
def test_json_writer_refuses_a_list_of_one_unknown_type(items):
    for value in (items, {"a": items}, [items]):
        with pytest.raises(TypeError):
            _json_text(value, "")


@pytest.mark.parametrize("indent", ["", "      ", "        "])
def test_json_elements_pieces_the_bytes_together_as_json_text_writes_the_list(indent):
    for mask in ELEMENT_TEXT_MASKS:
        assert cli._json_elements(mask, indent) == _json_text(subset_elements(mask), indent)
    with pytest.raises(ValueError):
        cli._json_elements(-1, indent)
