"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestCLI:
    def test_models_lists_suite(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        for name in ("alexnet", "vgg16", "inception"):
            assert name in out

    def test_summary(self, capsys):
        assert main(["summary", "tiny_cnn", "--batch-size", "4"]) == 0
        out = capsys.readouterr().out
        assert "conv1" in out
        assert "forward FLOPs" in out

    def test_mfr(self, capsys):
        assert main(["mfr", "tiny_cnn", "--batch-size", "8"]) == 0
        out = capsys.readouterr().out
        assert "MFR" in out
        assert "binarize" in out

    def test_mfr_dynamic_lossless(self, capsys):
        assert main(
            ["mfr", "tiny_cnn", "--batch-size", "8", "--config", "lossless",
             "--dynamic"]
        ) == 0
        assert "MFR" in capsys.readouterr().out

    def test_breakdown(self, capsys):
        assert main(["breakdown", "tiny_cnn", "--batch-size", "8"]) == 0
        out = capsys.readouterr().out
        assert "stashed_feature_maps" in out
        assert "relu_pool" in out

    def test_overhead(self, capsys):
        assert main(["overhead", "tiny_cnn", "--batch-size", "8"]) == 0
        out = capsys.readouterr().out
        assert "gist overhead" in out
        assert "vdnn overhead" in out

    def test_train_smoke(self, capsys):
        assert main(["train", "--policy", "gist-fp16", "--epochs", "1"]) == 0
        out = capsys.readouterr().out
        assert "epoch 1" in out

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            main(["summary", "lenet-9000"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])


class TestCLITimeline:
    def test_mfr_timeline(self, capsys):
        assert main(["mfr", "tiny_cnn", "--batch-size", "8",
                     "--timeline"]) == 0
        out = capsys.readouterr().out
        assert "baseline:" in out
        assert "gist:" in out


class TestCLITrace:
    def test_trace_prints_step_table(self, capsys):
        assert main(["trace", "--model", "tiny_cnn", "--steps", "2"]) == 0
        out = capsys.readouterr().out
        assert "loss" in out and "ratio" in out
        assert len([l for l in out.splitlines() if l.strip()]) >= 4

    def test_trace_with_invariants(self, capsys):
        assert main(["trace", "--model", "tiny_cnn", "--steps", "1",
                     "--check-invariants"]) == 0
        assert "invariants" in capsys.readouterr().out

    def test_trace_golden_round_trip(self, tmp_path, capsys):
        golden = str(tmp_path / "g.json")
        assert main(["trace", "--model", "tiny_cnn", "--steps", "2",
                     "--save-golden", golden]) == 0
        assert main(["trace", "--model", "tiny_cnn", "--steps", "2",
                     "--compare-golden", golden]) == 0
        assert "golden match" in capsys.readouterr().out

    def test_trace_golden_mismatch_exits_nonzero(self, tmp_path, capsys):
        golden = str(tmp_path / "g.json")
        assert main(["trace", "--model", "tiny_cnn", "--steps", "2",
                     "--policy", "gist-lossless",
                     "--save-golden", golden]) == 0
        assert main(["trace", "--model", "tiny_cnn", "--steps", "2",
                     "--policy", "gist-fp8",
                     "--compare-golden", golden]) == 1
        assert "MISMATCH" in capsys.readouterr().out

    def test_trace_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            main(["trace", "--policy", "gist-fp99"])


class TestCLIPlan:
    def test_plan_prints_decision_table(self, capsys):
        assert main(["plan", "scaled_vgg", "--batch-size", "8"]) == 0
        out = capsys.readouterr().out
        assert "decision" in out
        assert "baseline allocated" in out
        assert "plan allocated" in out
        assert "pure gist" in out and "pure swap" in out
        # GistPolicy executes the plan's table: nothing left to footnote.
        assert not any(ln.startswith("note:") for ln in out.splitlines())

    def test_plan_recompute_strategy_shows_chains(self, capsys):
        assert main(["plan", "scaled_vgg", "--batch-size", "8",
                     "--strategy", "recompute", "--budget", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "hybrid-recompute" in out
        assert "recompute <-" in out  # per-tensor source chains

    def test_plan_shared_concat_rows_name_their_terminal(self, capsys):
        assert main(["plan", "densenet", "--batch-size", "8"]) == 0
        out = capsys.readouterr().out
        assert any("shared_concat <- " in ln and "op(s))" in ln
                   for ln in out.splitlines())
        # The pure-arm footer is wide enough for its longest strategy.
        gist, shared = (next(ln for ln in out.splitlines()
                             if ln.startswith(f"  pure {arm} "))
                        for arm in ("gist", "shared_concat"))
        assert gist.index("MiB") == shared.index("MiB")

    def test_plan_lossy_config(self, capsys):
        assert main(["plan", "scaled_vgg", "--batch-size", "8",
                     "--config", "fp8"]) == 0
        out = capsys.readouterr().out
        assert "budget" in out

    def test_plan_rejects_unknown_strategy(self):
        with pytest.raises(SystemExit):
            main(["plan", "scaled_vgg", "--strategy", "telepathy"])


class TestCLIDisttrain:
    """``--compare-serial`` exits 1 unless the replica run is
    bit-identical to the same config on one replica."""

    def test_gist_lossless_replicas_match_serial(self, capsys):
        # `--policy gist` (the only non-default choice then offered) exited
        # 1: the replica unit only knew the name `gist-lossless`.
        assert main(["disttrain", "--replicas", "2", "--steps", "2",
                     "--policy", "gist-lossless", "--compare-serial"]) == 0
        assert "(bit-identical)" in capsys.readouterr().out


class TestCLIServe:
    @staticmethod
    def _spec_file(tmp_path, name="jobs.json", jobs=None):
        import json

        path = tmp_path / name
        path.write_text(json.dumps(jobs if jobs is not None else [
            {"kind": "plan", "model": "tiny_cnn", "batch_size": 4,
             "name": "plan-a"},
        ]))
        return str(path)

    def test_submit_then_serve_then_warm_resubmit(self, tmp_path, capsys):
        state = str(tmp_path / "state")
        spec = self._spec_file(tmp_path)
        assert main(["submit", spec, "--state", state]) == 0
        out = capsys.readouterr().out
        assert "submitted" in out and "kind=plan" in out

        assert main(["serve", "--state", state, "--max-polls", "1"]) == 0
        out = capsys.readouterr().out
        assert "source=computed" in out
        assert "scheduled: 1" in out

        # One-shot resubmission of the identical spec: pure journal hit.
        assert main(["serve", "--state", state, "--jobs", spec]) == 0
        out = capsys.readouterr().out
        assert "source=journal" in out
        assert "scheduled: 0" in out
        assert "journal hits: 1" in out

    def test_serve_oneshot_runs_batch(self, tmp_path, capsys):
        state = str(tmp_path / "state")
        spec = self._spec_file(tmp_path, jobs=[
            {"kind": "plan", "model": "tiny_cnn", "batch_size": 4},
            {"kind": "fuzz", "seeds": 1},
        ])
        assert main(["serve", "--state", state, "--jobs", spec]) == 0
        out = capsys.readouterr().out
        assert out.count("status=ok") == 2

    @pytest.mark.parametrize("argv", [
        ["submit", "{missing}", "--state", "{state}"],
        ["serve", "--state", "{state}", "--jobs", "{missing}"],
        ["submit", "{invalid}", "--state", "{state}"],
        ["serve", "--state", "{state}", "--jobs", "{invalid}"],
    ])
    def test_spec_errors_exit_2(self, tmp_path, capsys, argv):
        import json

        invalid = tmp_path / "bad.json"
        invalid.write_text(json.dumps([{"kind": "plan", "bogus": 1}]))
        fill = {"state": str(tmp_path / "state"),
                "missing": str(tmp_path / "nope.yaml"),
                "invalid": str(invalid)}
        assert main([arg.format(**fill) for arg in argv]) == 2
        assert "error:" in capsys.readouterr().err

    def test_failed_job_exits_1(self, tmp_path, capsys):
        # A queue entry that validates at submit time cannot fail later
        # by construction, so inject a malformed entry directly -- the
        # daemon must drain it, report it, and exit non-zero.
        import json

        state = tmp_path / "state"
        state.mkdir()
        with open(state / "queue.jsonl", "w") as fh:
            fh.write(json.dumps({
                "format": 1, "fingerprint": "f" * 64, "name": "bad",
                "job": {"format": 1, "kind": "plan",
                        "params": {"bogus": True}},
            }) + "\n")
        assert main(["serve", "--state", str(state),
                     "--max-polls", "1"]) == 1
        assert "status=invalid" in capsys.readouterr().out
