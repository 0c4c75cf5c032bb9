"""BENCHMARK.json obeys the driver's contract and matches metrics.py."""

import json
import re
from pathlib import Path

import metrics

REPO = Path(__file__).resolve().parents[3]
BENCHMARK = REPO / "BENCHMARK.json"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def _spec():
    return json.loads(BENCHMARK.read_text())


def test_file_is_what_metrics_declares():
    assert _spec() == metrics.benchmark_json()
    assert BENCHMARK.stat().st_size <= 64 * 1024


def test_top_level_keys_and_limits():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert isinstance(spec["run_seconds"], int)
    assert 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    # 4 + 22 runs per workload inside the driver's 3420 s: what is left
    # per run after the measuring itself must cover set-up and checks.
    runs = 4 + 22 * len(spec["workloads"])
    assert 3420 / runs - spec["run_seconds"] >= 15


def test_command_and_paths_stay_inside_the_benchmark():
    spec = _spec()
    assert spec["paths"] == ["benchmarks/ledger"]
    for path in spec["paths"]:
        assert PATH.match(path) and not path.startswith("/")
        assert ".." not in Path(path).parts
        assert (REPO / path).is_dir()
    assert 1 <= len(spec["command"]) <= 32
    for arg in spec["command"]:
        assert len(arg) <= 200 and not arg.startswith("/") and ".." not in arg
    script = spec["command"][-1]
    assert any(script.startswith(p + "/") for p in spec["paths"])
    assert (REPO / script).is_file()


def test_names_units_and_whys():
    spec = _spec()
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in spec[key]]
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names))
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"}
        assert 0 < len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 <= m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")


def test_setup_metric_has_the_largest_bound():
    e2e = {m["name"]: m for m in _spec()["end_to_end"]}
    assert e2e["setup_s"]["unit"] == "s"
    assert e2e["setup_s"]["better"] == "lower"
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())


def test_every_layer_metric_says_what_it_should_move_and_where():
    e2e = {m.name for m in metrics.END_TO_END}
    workloads = {w.name for w in metrics.WORKLOADS}
    for m in metrics.PER_LAYER:
        assert m.moves in e2e, m.name
        assert m.on and set(m.on) <= workloads, m.name
    declared = {m.name for m in metrics.PER_LAYER}
    assert set(metrics.EXACT_PER_LAYER) <= declared
    assert {f"{stage}_ms" for stage in metrics.PLAN_STAGES} <= declared


def test_op_counts_depend_on_seconds_only():
    for w in metrics.WORKLOADS:
        full = metrics.op_counts(w, metrics.RUN_SECONDS, smoke=False)
        assert full["timed"] == w.base_ops
        assert metrics.op_counts(w, 0.1, smoke=False)["timed"] == w.min_ops
        if w.name in metrics.TRAIN_WORKLOADS:
            assert w.min_ops >= 60
