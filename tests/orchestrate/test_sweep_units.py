"""Sweep work units: enumeration contract, journal round-trips, CLI."""

import json

import pytest

from repro.cli import main
from repro.experiments import (
    DEFAULT_SWEEP_DRIVERS,
    FIGURE12_ARMS,
    SWEEP_DRIVERS,
    figure8_mfr,
    run_sweep,
    run_sweep_unit,
)
from repro.ioutil import read_jsonl
from repro.models import PAPER_SUITE

#: Small models that keep the static drivers fast in tests.
SMALL = ["tiny_cnn", "scaled_vgg"]


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
        for name in DEFAULT_SWEEP_DRIVERS:
            units = SWEEP_DRIVERS[name].enumerate_units(None, 64)
            assert len(units) == len(PAPER_SUITE)

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

    @pytest.mark.parametrize("name", sorted(DEFAULT_SWEEP_DRIVERS))
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
    def test_sweep_matches_direct_driver(self):
        swept = run_sweep(["figure8_mfr"], models=SMALL, batch_size=8)
        direct = figure8_mfr(SMALL, batch_size=8)
        assert (json.dumps(swept["figures"]["figure8_mfr"], sort_keys=True)
                == json.dumps(direct, sort_keys=True))

    def test_workers_do_not_change_bytes(self):
        kwargs = dict(models=SMALL, batch_size=8)
        serial = run_sweep(["figure3_stash_classes"], workers=1, **kwargs)
        parallel = run_sweep(["figure3_stash_classes"], workers=3, **kwargs)
        assert (json.dumps(serial, sort_keys=True)
                == json.dumps(parallel, sort_keys=True))

    def test_training_arm_unit_runs_from_payload_alone(self):
        curve = run_sweep_unit({"driver": "figure12_accuracy",
                                "arm": next(iter(FIGURE12_ARMS)),
                                "epochs": 1, "seed": 3})
        assert isinstance(curve, list) and len(curve) == 1


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
