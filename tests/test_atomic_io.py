"""Crash-safety of on-disk artefacts: goldens, result exports, journals.

The regression scenario: a process dies (or the disk errors) midway
through writing a results/golden file.  Pre-fix, the results export and
``TraceDigest.save_golden`` wrote the destination in place, so the crash
left a corrupt file that poisoned later conformance checks.  These tests
simulate the half-written crash and assert the destination always holds
a complete, parseable artefact.
"""

import json
import os
import pathlib

import pytest

from repro.diagnostics.digest import StepDigest, TraceDigest, load_golden
from repro.ioutil import append_jsonl_line, atomic_write_text, read_jsonl


def _crashy_write_text(monkeypatch):
    """Make every Path.write_text write half its text, then die."""

    def half_write(self, data, *args, **kwargs):
        with open(self, "w") as handle:
            handle.write(data[: len(data) // 2])
        raise OSError("simulated crash mid-write")

    monkeypatch.setattr(pathlib.Path, "write_text", half_write)


def _tiny_digest(loss: float) -> TraceDigest:
    step = StepDigest(loss=loss, loss_hash="a" * 64, grads_hash="b" * 64,
                      stash_hash="c" * 64)
    return TraceDigest(model="tiny_cnn", policy="baseline", seed=0,
                       steps=[step])


class TestAtomicWriteText:
    def test_failure_leaves_previous_contents(self, tmp_path, monkeypatch):
        target = tmp_path / "out.json"
        atomic_write_text(target, '{"v": 1}')

        def broken_replace(src, dst):
            raise OSError("simulated crash before rename")

        monkeypatch.setattr(os, "replace", broken_replace)
        with pytest.raises(OSError):
            atomic_write_text(target, '{"v": 2}')
        assert json.loads(target.read_text()) == {"v": 1}
        # The aborted temp file was cleaned up.
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_creates_parent_directories(self, tmp_path):
        target = tmp_path / "a" / "b" / "out.txt"
        atomic_write_text(target, "x")
        assert target.read_text() == "x"


class TestJsonlAppend:
    def test_round_trip_and_truncated_tail(self, tmp_path):
        path = tmp_path / "log.jsonl"
        append_jsonl_line(path, {"i": 0})
        append_jsonl_line(path, {"i": 1})
        with open(path, "a") as handle:
            handle.write('{"i": 2, "trunc')  # crash mid-append
        assert list(read_jsonl(path)) == [{"i": 0}, {"i": 1}]

    def test_missing_file_reads_empty(self, tmp_path):
        assert list(read_jsonl(tmp_path / "absent.jsonl")) == []


class TestGoldenCrashSafety:
    def test_save_golden_never_leaves_partial_file(self, tmp_path,
                                                   monkeypatch):
        # Regression: an in-place write_text crash used to corrupt the
        # golden; now the previous golden must survive any crash.
        path = tmp_path / "golden.json"
        _tiny_digest(1.0).save_golden(path)
        _crashy_write_text(monkeypatch)
        try:
            _tiny_digest(2.0).save_golden(path)
        except OSError:
            pass
        golden = load_golden(path)  # parseable either way
        assert golden.steps[0].loss in (1.0, 2.0)

    def test_save_golden_still_writes(self, tmp_path):
        path = tmp_path / "golden.json"
        _tiny_digest(3.0).save_golden(path)
        assert load_golden(path).steps[0].loss == 3.0


class TestSweepOutCrashSafety:
    def test_sweep_out_never_leaves_partial_file(self, tmp_path,
                                                 monkeypatch):
        from repro.cli import main

        path = tmp_path / "results.json"
        argv = ["sweep", "--drivers", "figure8_mfr", "--models", "tiny_cnn",
                "--batch-size", "8", "--out", str(path)]
        assert main(argv) == 0
        first = json.loads(path.read_text())
        _crashy_write_text(monkeypatch)
        try:
            main(argv)
        except OSError:
            pass
        assert json.loads(path.read_text()) == first
