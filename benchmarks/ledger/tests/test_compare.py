"""compare.py verdicts on synthetic result files."""

import json

import pytest

import compare
import metrics


def _result(values, failed=0, layer=None):
    declared = metrics.PER_LAYER if layer is not None else metrics.END_TO_END
    source = layer if layer is not None else values
    return {"correct": failed == 0, "attempted": 10, "failed": failed,
            "metrics": {m.name: {"value": source.get(m.name, 1.0),
                                 "unit": m.unit} for m in declared}}


def _report(per_run_values, failed=0, layer=None):
    runs = []
    for w in metrics.WORKLOADS:
        for i, values in enumerate(per_run_values):
            runs.append({"workload": w.name, "seed": i, "trace": 0,
                         "exit": 0, "result": _result(values, failed)})
        if layer is not None:
            runs.append({"workload": w.name, "seed": 0, "trace": 1,
                         "exit": 0, "result": _result({}, layer=layer)})
    return {"host": {"git_sha": "0" * 40}, "runs": runs}


BASE = {"setup_s": 2.0, "op_ms": 100.0, "footprint_mib": 4.0}


def _verdicts(a, b):
    return {(r["workload"], r["metric"]): r["verdict"]
            for r in compare.compare(a, b)}


def test_identical_files_are_all_same():
    rows = _verdicts(_report([BASE]), _report([BASE]))
    assert set(rows.values()) == {"same"}
    assert len(rows) == len(metrics.WORKLOADS) * (len(metrics.END_TO_END) + 1)


@pytest.mark.parametrize("metric, factor, expected", [
    ("op_ms", 1.20, "same"),        # inside the 25% bound
    ("op_ms", 1.30, "worse"),
    ("op_ms", 0.70, "better"),
    ("footprint_mib", 1.02, "worse"),
    ("footprint_mib", 1.005, "same"),
    ("footprint_mib", 0.90, "better"),
])
def test_bound_decides_better_same_worse(metric, factor, expected):
    changed = dict(BASE, **{metric: BASE[metric] * factor})
    rows = _verdicts(_report([BASE]), _report([changed]))
    assert rows[("vgg_gist", metric)] == expected


def test_spread_wider_than_the_bound_is_unresolved():
    noisy = [dict(BASE, op_ms=v) for v in (60.0, 90.0, 100.0, 130.0, 170.0)]
    shifted = [dict(BASE, op_ms=v * 1.5) for v in (60.0, 90.0, 100.0, 130.0,
                                                   170.0)]
    rows = _verdicts(_report(noisy), _report(shifted))
    assert rows[("plan_suite", "op_ms")] == "unresolved"
    # ... unless every run of B beats every run of A.
    fast = [dict(BASE, op_ms=v) for v in (20.0, 30.0, 35.0, 40.0, 50.0)]
    rows = _verdicts(_report(noisy), _report(fast))
    assert rows[("plan_suite", "op_ms")] == "better"


def test_spread_needs_four_runs():
    assert compare.spread([1.0, 2.0, 3.0]) is None
    assert compare.spread([1.0, 2.0, 3.0, 4.0]) == pytest.approx(2.5 / 2.5)


def test_more_failures_or_a_changed_exact_count_is_worse():
    rows = _verdicts(_report([BASE]), _report([BASE], failed=1))
    assert rows[("verify_fuzz", "failed")] == "worse"
    a = _report([BASE], layer={"memory.hybrid.decisions.gist": 279.0})
    b = _report([BASE], layer={"memory.hybrid.decisions.gist": 278.0})
    rows = _verdicts(a, b)
    assert rows[("plan_suite", "memory.hybrid.decisions.gist")] == "worse"
    assert set(_verdicts(a, a).values()) == {"same"}


def test_exit_status_and_table(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_report([BASE])))
    b.write_text(json.dumps(_report([dict(BASE, op_ms=140.0)])))
    assert compare.main([str(a), str(a)]) == 0
    assert compare.main([str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "ratios are B/A" in out and "worse" in out and "1.400" in out
    assert compare.main([str(a)]) == 2
