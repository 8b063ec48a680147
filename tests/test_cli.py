import json
import math

import pytest

from idemnorm.cli import main

from conftest import oracle_mul


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


def test_norm_bad_group_exits_2(capsys):
    code, _, err = run_cli(capsys, "norm", "-g", "Zoo", "-s", "0")
    assert code == 2
    assert err


def test_norm_bad_subset_exits_2(capsys):
    code, _, _ = run_cli(capsys, "norm", "-g", "Z4", "-s", "0,9")
    assert code == 2
    code, _, _ = run_cli(capsys, "norm", "-g", "S3", "-s", "(0,1)")
    assert code == 2


def test_sweep_z6(capsys):
    code, out, err = run_cli(capsys, "sweep", "-g", "Z6", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["violations"] == []
    assert payload["subset_total"] == 64
    assert "wall_time_s" not in payload  # deterministic stdout; timing on stderr
    assert "took" in err


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


def test_schur_bad_literal_exits_2(capsys):
    code, _, err = run_cli(capsys, "schur", "[[1,")
    assert code == 2
    assert err


def test_schur_oversized_exits_2(capsys):
    literal = json.dumps([[0] * 65] * 65)
    code, _, _ = run_cli(capsys, "schur", literal)
    assert code == 2


def test_schur_requires_input(capsys):
    code, _, _ = run_cli(capsys, "schur")
    assert code == 2


def test_verify_single_group(capsys):
    code, out, _ = run_cli(capsys, "verify", "--groups", "Z3", "--format", "json")
    assert code == 0
    assert "PASS sweep_Z3" in out
    payload = json.loads(out[out.index("\n{") + 1:])
    assert payload["passed"] is True


def test_verify_boundary_at_zero_tolerance(capsys):
    code, out, _ = run_cli(capsys, "verify", "--groups", "Z4", "--tol", "0")
    assert code == 1
    assert "FAIL" in out


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "sweep", "-g", "Z4", "--format", "json",
                           "--out", str(target))
    assert code == 0
    assert out.strip() == str(target)
    payload = json.loads(target.read_text())
    assert payload["violations"] == []


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
