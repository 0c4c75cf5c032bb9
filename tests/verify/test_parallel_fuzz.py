"""Parallel fuzzing: worker-count invariance, crash tolerance, resume."""

import json

import pytest

from repro.cli import main
from repro.ioutil import read_jsonl
from repro.verify import (
    fuzz_work_units,
    merge_fuzz_results,
    run_fuzz,
    run_fuzz_unit,
)


def _report_bytes(report):
    return json.dumps(report.to_json(), sort_keys=True)


class TestWorkerInvariance:
    """The aggregated ``FuzzReport`` serialises to byte-identical JSON
    for any worker count: the contract that makes parallel verification
    trustworthy."""

    def test_clean_batch_byte_identical(self):
        serial = run_fuzz(10, stop_on_first=False, workers=1)
        parallel = run_fuzz(10, stop_on_first=False, workers=4)
        assert serial.ok and parallel.ok
        assert _report_bytes(serial) == _report_bytes(parallel)

    def test_violating_batch_byte_identical_with_stop_on_first(self):
        from tests.verify.test_fuzzer import COUNTEREXAMPLE_SEED

        # A seed range straddling the known strict-mode counterexample:
        # both runs must stop at the same first failing seed, verify the
        # same count of earlier seeds, and minimize the same graph.
        kwargs = dict(start_seed=COUNTEREXAMPLE_SEED - 3, strict=True,
                      stop_on_first=True)
        serial = run_fuzz(8, workers=1, **kwargs)
        parallel = run_fuzz(8, workers=4, **kwargs)
        assert not serial.ok
        assert serial.violations[0].seed == COUNTEREXAMPLE_SEED
        assert serial.seeds_run == 4 and serial.graphs_verified == 3
        assert serial.minimized is not None
        assert _report_bytes(serial) == _report_bytes(parallel)


class TestCrashTolerance:
    def test_unit_failure_recorded_with_payload_batch_survives(
            self, monkeypatch):
        import repro.verify.runner as runner

        real = runner.verify_seed

        def sabotaged(seed, max_ops, strict=False, recurrent_shapes=False):
            if seed == 1:
                raise RuntimeError("injected verifier crash")
            return real(seed, max_ops, strict=strict,
                        recurrent_shapes=recurrent_shapes)

        monkeypatch.setattr(runner, "verify_seed", sabotaged)
        report = run_fuzz(3, stop_on_first=False, workers=1, retries=0)
        assert not report.ok
        assert report.seeds_run == 3 and report.graphs_verified == 2
        (failure,) = report.failed_units
        assert failure["payload"]["seed"] == 1
        assert failure["error"]["type"] == "RuntimeError"
        assert not report.violations

    def test_unit_failure_stops_batch_when_stop_on_first(self, monkeypatch):
        import repro.verify.runner as runner

        def always_broken(seed, max_ops, strict=False, recurrent_shapes=False):
            raise RuntimeError("injected verifier crash")

        monkeypatch.setattr(runner, "verify_seed", always_broken)
        report = run_fuzz(5, stop_on_first=True, workers=1, retries=0)
        assert report.seeds_run == 1
        assert len(report.failed_units) == 1
        assert report.minimized is None


class TestJournalResume:
    def test_completed_seeds_not_reverified(self, tmp_path, monkeypatch):
        import repro.verify.runner as runner

        journal = tmp_path / "fuzz.jsonl"
        calls = []
        real = runner.verify_seed

        def counting(seed, max_ops, strict=False, recurrent_shapes=False):
            calls.append(seed)
            return real(seed, max_ops, strict=strict,
                        recurrent_shapes=recurrent_shapes)

        monkeypatch.setattr(runner, "verify_seed", counting)
        first = run_fuzz(5, stop_on_first=False, journal=str(journal))
        assert calls == [0, 1, 2, 3, 4]
        assert len(list(read_jsonl(journal))) == 5
        resumed = run_fuzz(5, stop_on_first=False, journal=str(journal))
        assert calls == [0, 1, 2, 3, 4], "resume re-verified a seed"
        assert _report_bytes(first) == _report_bytes(resumed)

    def test_journal_keyed_on_fuzz_parameters(self, tmp_path):
        journal = tmp_path / "fuzz.jsonl"
        run_fuzz(2, stop_on_first=False, journal=str(journal))
        # Same seeds under different max_ops mean different graphs: the
        # journaled results must not be replayed.
        before = len(list(read_jsonl(journal)))
        run_fuzz(2, stop_on_first=False, max_ops=3, journal=str(journal))
        assert len(list(read_jsonl(journal))) == before + 2


class TestUnitPlumbing:
    def test_unit_executor_matches_verify_seed(self):
        (unit,) = fuzz_work_units([7], max_ops=6)
        value = run_fuzz_unit(unit.payload)
        assert value == {"seed": 7, "violations": []}

    def test_merge_ignores_results_beyond_first_stopper(self):
        from repro.orchestrate import UnitResult

        units = fuzz_work_units([0, 1, 2])
        violation = {"oracle": "plan-safety", "detail": "injected",
                     "seed": 1, "subject": "t"}
        results = {
            "seed:0": UnitResult("seed:0", "ok",
                                 {"seed": 0, "violations": []}),
            "seed:1": UnitResult("seed:1", "ok",
                                 {"seed": 1, "violations": [violation]}),
            "seed:2": UnitResult("seed:2", "ok",
                                 {"seed": 2, "violations": []}),
        }
        report = merge_fuzz_results(units, results, stop_on_first=True)
        assert report.seeds_run == 2 and report.graphs_verified == 1
        assert [v.seed for v in report.violations] == [1]


@pytest.mark.fuzz
class TestParallelCli:
    def test_fuzz_workers_flag(self, capsys):
        assert main(["fuzz", "--seeds", "4", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "graphs verified: 4" in out
