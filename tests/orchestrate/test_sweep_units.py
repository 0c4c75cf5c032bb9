"""Sweep work units: enumeration contract, journal round-trips, CLI."""

import json

import pytest

from repro.cli import main
from repro.experiments import (
    SWEEP_DRIVERS,
    run_sweep,
    run_sweep_unit,
)
from repro.ioutil import read_jsonl
from repro.models import PAPER_SUITE

#: Small models that keep the static drivers fast in tests.
SMALL = ["tiny_cnn", "scaled_vgg"]

#: The training studies: they ignore ``models`` and each trains for
#: seconds, so tier-1 runs one 1-epoch unit of each, not the driver.
TRAINING = sorted(name for name, driver in SWEEP_DRIVERS.items()
                  if "epochs" in driver.enumerate_units(None, 64)[0].payload)


class TestEnumerationContract:
    @pytest.mark.parametrize("name", sorted(SWEEP_DRIVERS))
    def test_units_are_payload_complete(self, name):
        units = SWEEP_DRIVERS[name].enumerate_units(SMALL, 8)
        assert units, f"driver {name} enumerated no units"
        keys = [unit.key for unit in units]
        assert len(keys) == len(set(keys))
        for unit in units:
            assert unit.kind == "experiment"
            json.dumps(unit.payload)  # payload must be self-contained JSON
            assert unit.payload["driver"] == name

    def test_default_drivers_cover_paper_suite(self):
        """Every per-model static driver (one that follows ``models``)
        enumerates the paper suite when given none."""
        def models_of(name, models):
            return [unit.payload.get("model") for unit in
                    SWEEP_DRIVERS[name].enumerate_units(models, 64)]

        per_model = [name for name in SWEEP_DRIVERS
                     if models_of(name, SMALL) == SMALL]
        assert {"baseline_memory_breakdown", "figure3_stash_classes",
                "figure8_mfr", "figure9_overheads",
                "figure17_dynamic"} <= set(per_model)
        for name in per_model:
            assert models_of(name, None) == list(PAPER_SUITE), name

    def test_unknown_driver_rejected(self):
        with pytest.raises(KeyError, match="unknown sweep drivers"):
            run_sweep(["not_a_driver"])
        with pytest.raises(KeyError, match="unknown sweep driver"):
            run_sweep_unit({"driver": "not_a_driver"})


class TestJournalRoundTrip:
    def test_sweep_results_replay_byte_identical(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        drivers = ["figure8_mfr", "figure3_stash_classes"]
        live = run_sweep(drivers, models=SMALL, batch_size=8,
                         journal=str(journal))
        assert live["ok"]
        lines_after_live = len(list(read_jsonl(journal)))
        replayed = run_sweep(drivers, models=SMALL, batch_size=8,
                             journal=str(journal))
        assert (json.dumps(live, sort_keys=True)
                == json.dumps(replayed, sort_keys=True))
        # Nothing re-ran: the journal gained no records on replay.
        assert len(list(read_jsonl(journal))) == lines_after_live

    def test_edited_record_returns_the_true_row(self, tmp_path):
        """A Fig 8 record edited on disk is recomputed, never merged."""
        journal = tmp_path / "sweep.jsonl"
        live = run_sweep(["figure8_mfr"], models=["alexnet"], batch_size=8,
                         journal=str(journal))
        (record,) = read_jsonl(journal)
        record["result"]["mfr_full"] = 99.0
        journal.write_text(json.dumps(record) + "\n")
        resumed = run_sweep(["figure8_mfr"], models=["alexnet"],
                            batch_size=8, journal=str(journal))
        assert (json.dumps(resumed, sort_keys=True)
                == json.dumps(live, sort_keys=True))
        assert resumed["figures"]["figure8_mfr"][0]["mfr_full"] != 99.0

    # Fig 16's deep-ResNet units take ~20 s and ignore ``models``, as do
    # the training studies.
    @pytest.mark.parametrize("name", sorted(
        set(SWEEP_DRIVERS) - {"figure16_speedups"} - set(TRAINING)))
    def test_each_default_driver_unit_round_trips(self, name, tmp_path):
        journal = tmp_path / "unit.jsonl"
        out = run_sweep([name], models=["tiny_cnn"], batch_size=8,
                        journal=str(journal))
        assert out["ok"], out["failed_units"]
        again = run_sweep([name], models=["tiny_cnn"], batch_size=8,
                          journal=str(journal))
        assert (json.dumps(out["figures"], sort_keys=True)
                == json.dumps(again["figures"], sort_keys=True))


class TestSweepSemantics:
    def test_workers_do_not_change_bytes(self):
        kwargs = dict(models=SMALL, batch_size=8)
        serial = run_sweep(["figure3_stash_classes"], workers=1, **kwargs)
        parallel = run_sweep(["figure3_stash_classes"], workers=3, **kwargs)
        assert (json.dumps(serial, sort_keys=True)
                == json.dumps(parallel, sort_keys=True))

    def test_training_arm_unit_runs_from_payload_alone(self):
        """One 1-epoch unit of each training study, from its payload."""
        assert TRAINING == ["ablation_dpr_rounding", "figure12_accuracy",
                            "figure14_ssdc_series", "groupquant_width"]
        values = {}
        for name in TRAINING:
            unit = SWEEP_DRIVERS[name].enumerate_units(None, 64)[-1]
            values[name] = run_sweep_unit(dict(unit.payload, epochs=1))
        assert 0.0 <= values["ablation_dpr_rounding"] <= 1.0
        curve = values["figure12_accuracy"]
        assert isinstance(curve, list) and len(curve) == 1
        series = values["figure14_ssdc_series"]
        assert series and all(v > 0 for vs in series.values() for v in vs)
        row = values["groupquant_width"]
        assert sorted(row) == ["compression", "final_accuracy"]
        assert row["compression"] > 1.0


class TestSweepCli:
    def test_cli_writes_output_and_resumes(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.json"
        journal = tmp_path / "sweep.jsonl"
        argv = ["sweep", "--drivers", "figure8_mfr", "--models", "tiny_cnn",
                "--batch-size", "8", "--out", str(out_path),
                "--journal", str(journal), "--workers", "2"]
        assert main(argv) == 0
        data = json.loads(out_path.read_text())
        assert data["ok"] and data["figures"]["figure8_mfr"]
        lines = len(list(read_jsonl(journal)))
        assert main(argv) == 0  # resume: replay, rewrite, same bytes
        assert len(list(read_jsonl(journal))) == lines
        assert json.loads(out_path.read_text()) == data
        assert "figure8_mfr" in capsys.readouterr().out

    def test_cli_default_is_every_driver(self, tmp_path, monkeypatch):
        """No ``--drivers``: every driver, i.e. BENCH_figures.json."""
        import repro.experiments

        scheduled = []
        monkeypatch.setattr(repro.experiments, "run_units",
                            lambda units, **kwargs: scheduled.extend(units)
                            or {})
        out_path = tmp_path / "sweep.json"
        assert main(["sweep", "--out", str(out_path)]) == 1  # none ran
        data = json.loads(out_path.read_text())
        assert data["drivers"] == list(SWEEP_DRIVERS)
        assert len(scheduled) == len(data["failed_units"]) == 102

    def test_cli_prints_journal_hits(self, tmp_path, capsys):
        journal = tmp_path / "sweep.jsonl"
        argv = ["sweep", "--drivers", "figure8_mfr", "--models",
                ",".join(SMALL), "--batch-size", "8",
                "--out", str(tmp_path / "sweep.json"),
                "--journal", str(journal)]
        assert main(argv) == 0
        assert "journal hits: 0\n" in capsys.readouterr().out
        units = len(list(read_jsonl(journal)))
        assert units == len(SMALL)
        assert main(argv) == 0
        assert f"journal hits: {units}\n" in capsys.readouterr().out
