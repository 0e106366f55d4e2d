"""The statistics that tools/bench_record.py writes into a BENCH_*.json
entry."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
spec = importlib.util.spec_from_file_location("bench_record", TOOL)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)


def _run(**values):
    return {"metrics": {k: {"value": v} for k, v in values.items()}}


def test_summary_gives_median_and_quartiles():
    assert bench_record.summary([4.0, 1.0, 3.0, 2.0, 5.0]) == {
        "median": 3.0, "q1": 2.0, "q3": 4.0, "runs": 5}
    assert bench_record.summary([7.0]) == {
        "median": 7.0, "q1": 7.0, "q3": 7.0, "runs": 1}


def test_pairs_won_follows_each_metrics_direction():
    metrics = [{"name": "t", "better": "lower"},
               {"name": "r", "better": "higher"}]
    tree = [_run(t=1.0, r=1.0), _run(t=2.0, r=3.0), _run(t=3.0, r=2.0)]
    other = [_run(t=2.0, r=2.0), _run(t=2.0, r=2.0), _run(t=2.0, r=2.0)]
    # a tie counts for neither side
    assert bench_record.pairs_won(tree, other, metrics) == {"t": 1, "r": 1}


def _reproduced(wall, **cpu):
    return {"wall_s": wall,
            "stages": {stage: {"wall_s": 2.0 * t, "cpu_s": t}
                       for stage, t in cpu.items()}}


def test_reproduce_record_summarizes_wall_and_stage_cpu():
    runs = [_reproduced(4.0, gen_data=0.1, simulate=1.5),
            _reproduced(1.0, gen_data=0.3, simulate=1.2),
            _reproduced(2.0, gen_data=0.2, simulate=1.4),
            _reproduced(3.0, gen_data=0.4, simulate=1.3),
            _reproduced(5.0, gen_data=0.5, simulate=1.1)]
    record = bench_record.reproduce_record(runs)
    assert record["wall_s"] == {"median": 3.0, "q1": 2.0, "q3": 4.0,
                                "runs": 5}
    # the stages' CPU times, not their wall times
    assert sorted(record["stage_cpu_s"]) == ["gen_data", "simulate"]
    assert record["stage_cpu_s"]["gen_data"] == pytest.approx(
        {"median": 0.3, "q1": 0.2, "q3": 0.4, "runs": 5})
    assert record["stage_cpu_s"]["simulate"] == pytest.approx(
        {"median": 1.3, "q1": 1.2, "q3": 1.4, "runs": 5})
