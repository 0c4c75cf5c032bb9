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
