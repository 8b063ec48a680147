"""Count oracles for the benchmark's tracer: traced call counts must equal
numbers known without tracing."""

import importlib
import math
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from measure import KNOWN_FAILURES, judge, run_pass  # noqa: E402
from oracles import burnside_count  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import OK, Gamma2Literal, SweepAbelian, parse_factors  # noqa: E402


def test_tracer_rebinds_names_imported_elsewhere():
    import idemnorm

    # the package attribute `sweep` is the function, so fetch modules by name
    cli, groups, multiplier, schur, sweep = (
        importlib.import_module(f"idemnorm.{name}")
        for name in ("cli", "groups", "multiplier", "schur", "sweep"))
    original = sweep.analyze_cosets
    with Tracer():
        assert sweep.analyze_cosets is groups.analyze_cosets is idemnorm.analyze_cosets
        assert sweep.analyze_cosets is not original
        assert cli.gamma2 is schur.gamma2 is multiplier.gamma2
        assert cli.sweep is sweep.sweep is idemnorm.sweep
    assert sweep.analyze_cosets is original


def test_sweep_counts_match_subsets_and_burnside(tmp_path):
    pool = ("Z6", "Z2xZ3", "Z2xZ4", "Z8", "Z7")
    workload = SweepAbelian(str(tmp_path), pool)
    workload.setup()
    items = next(workload.rounds(seed=3))
    with Tracer() as tracer:
        records, _ = run_pass([items], 1, workload.deadline_s)
    assert judge(records) == [OK] * len(pool)

    totals = tracer.layer_totals()
    factors = [parse_factors(spec) for spec in pool]
    assert totals["cli.main"]["calls"] == len(pool)
    assert totals["sweep.canonical_form"]["calls"] == sum(2 ** math.prod(f) for f in factors)
    assert totals["sweep.classify"]["calls"] == sum(burnside_count(f) for f in factors)
    # self times partition the time of the outermost spans
    outer = sum(s.end - s.start for s in tracer.spans if s.parent < 0)
    assert math.isclose(sum(t["self_s"] for t in totals.values()), outer, rel_tol=1e-9)


def test_gamma2_calls_match_matrices_attempted(tmp_path):
    workload = Gamma2Literal(str(tmp_path))
    workload.setup()
    items = next(workload.rounds(seed=1))
    with Tracer() as tracer:
        records, _ = run_pass([items], 1, workload.deadline_s)
    assert len(records) == len(items)
    assert tracer.layer_totals()["schur.gamma2"]["calls"] == len(records)
    assert all(status == OK or status in KNOWN_FAILURES for status in judge(records))
