"""Smoke tests: every example script runs to completion.

The training-heavy examples honour ``REPRO_FAST=1`` (fewer samples,
epochs and sweep points), so the whole directory can run here; the
analysis-only examples ignore the flag.  A parametrized sweep discovers
``examples/*.py`` dynamically — a new example is covered the day it
lands or this file fails to list it.
"""

import json
import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"
ALL_EXAMPLES = sorted(p.name for p in EXAMPLES.glob("*.py"))

#: Examples taking CLI arguments needed to keep the smoke run small.
EXTRA_ARGV = {
    "reproduce_paper.py": ["--batch-size", "8"],
}


def run_example(name: str, argv=None, monkeypatch=None):
    if monkeypatch is not None:
        monkeypatch.setattr(sys, "argv", [name] + (argv or []))
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")


class TestAllExamplesFastMode:
    def test_every_example_is_listed(self):
        assert ALL_EXAMPLES, "examples directory went missing"

    @pytest.mark.parametrize("name", ALL_EXAMPLES)
    def test_example_runs(self, name, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_FAST", "1")
        argv = list(EXTRA_ARGV.get(name, []))
        if name == "reproduce_paper.py":
            argv += ["--out", str(tmp_path / "out.json")]
        run_example(name, argv, monkeypatch)
        assert capsys.readouterr().out.strip()


class TestExampleOutput:
    def test_quickstart(self, capsys):
        run_example("quickstart.py")
        out = capsys.readouterr().out
        assert "memory footprint ratio" in out
        assert "binarize" in out

    def test_memory_breakdown(self, capsys):
        run_example("memory_breakdown.py")
        out = capsys.readouterr().out
        assert "VGG16 alone stashes" in out
        assert "ReLU-Pool" in out

    def test_reproduce_paper_small_batch(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_FAST", "1")  # no Fig 16: ~30 s at any batch
        out_file = tmp_path / "figures.json"
        run_example(
            "reproduce_paper.py",
            ["--batch-size", "8", "--out", str(out_file)],
            monkeypatch,
        )
        out = capsys.readouterr().out
        assert "averages" in out
        assert out_file.exists()

    def test_reproduce_paper_prints_every_checked_in_figure(self, capsys):
        """Every figure's table, from the checked-in sweep output."""
        data = json.loads((EXAMPLES.parent / "BENCH_figures.json")
                          .read_text())
        namespace = runpy.run_path(str(EXAMPLES / "reproduce_paper.py"))
        namespace["print_figures"](data["figures"], data["batch_size"])
        out = capsys.readouterr().out
        for title in ("Figure 1 ", "Figure 2 ", "Figure 3 ", "Table I ",
                      "Figure 8 ", "Figures 9 and 15", "Figure 10 ",
                      "Figure 11 ", "Figure 12 ", "Figure 13 ",
                      "Figure 14 ", "Figure 16 ", "Figure 17 ",
                      "allocator policy", "sparse format", "pool argmax",
                      "DPR FP8 rounding", "group-quantised",
                      "MFR vs minibatch",
                      "Section II-B ", "hybrid planner"):
            assert title in out, title

    def test_train_with_dpr_fast(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_FAST", "1")
        run_example("train_with_dpr.py")
        out = capsys.readouterr().out
        assert "uniform (forward-pass) FP8" in out
        assert "delayed (backward-only) FP8" in out

    def test_custom_encoding_fast(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_FAST", "1")
        run_example("custom_encoding.py")
        out = capsys.readouterr().out
        assert "stash compression" in out
        assert "Top-K" in out

    def test_fit_larger_networks_fast(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_FAST", "1")
        run_example("fit_larger_networks.py")
        out = capsys.readouterr().out
        assert "baseline batch" in out
        assert "deepest trainable" in out
