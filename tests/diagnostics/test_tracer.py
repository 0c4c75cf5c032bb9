"""StepTracer event streams, aggregates and reporting surfaces."""

import json

import numpy as np

from repro.diagnostics import (
    GOLDEN_MODELS,
    StepTracer,
    golden_batches,
)
from repro.models import build_model
from repro.train.executor import GraphExecutor
from repro.train.optimizer import SGD
from repro.train.trainer import Trainer
from repro.train import make_synthetic, policy_from_name


def _traced_run(policy_name="gist-lossless", steps=2):
    graph = build_model("tiny_cnn", **GOLDEN_MODELS["tiny_cnn"])
    tracer = StepTracer()
    executor = GraphExecutor(
        graph, policy_from_name(policy_name, graph), seed=0, tracer=tracer
    )
    for images, labels in golden_batches("tiny_cnn", steps):
        executor.forward(images, labels)
        executor.backward()
    return tracer


class TestStepRecords:
    def test_one_record_per_step_with_loss_and_times(self):
        tracer = _traced_run(steps=3)
        assert len(tracer.steps) == 3
        for i, rec in enumerate(tracer.steps):
            assert rec.index == i
            assert rec.loss is not None and np.isfinite(rec.loss)
            assert rec.forward_s > 0.0
            assert rec.backward_s > 0.0

    def test_gist_compression_bytes_by_encoding(self):
        tracer = _traced_run("gist-lossless", steps=1)
        rec = tracer.steps[0]
        # tiny_cnn has a ReLU-Pool pair (binarize) and a ReLU-Conv pair
        # (ssdc); identity covers the remaining stashes.
        assert "binarize" in rec.encoded_bytes
        assert "ssdc" in rec.encoded_bytes
        assert rec.total_encoded_bytes < rec.total_raw_bytes
        assert rec.compression_ratio > 1.0
        bin_raw = rec.raw_bytes["binarize"]
        assert rec.encoded_bytes["binarize"] <= bin_raw // 16

    def test_baseline_has_no_compression(self):
        rec = _traced_run("baseline", steps=1).steps[0]
        assert set(rec.encoded_bytes) == {"identity"}
        assert rec.compression_ratio == 1.0

    def test_events_cover_all_phases(self):
        tracer = _traced_run(steps=1)
        phases = {e.phase for e in tracer.events}
        assert phases == {"forward", "backward", "encode", "decode"}
        encodes = [e for e in tracer.events if e.phase == "encode"]
        assert all(e.raw_bytes > 0 and e.encoded_bytes > 0 for e in encodes)

    def test_keep_events_false_still_aggregates(self):
        graph = build_model("tiny_cnn", **GOLDEN_MODELS["tiny_cnn"])
        tracer = StepTracer(keep_events=False)
        executor = GraphExecutor(
            graph, policy_from_name("gist-lossless", graph),
            seed=0, tracer=tracer,
        )
        images, labels = golden_batches("tiny_cnn", 1)[0]
        executor.forward(images, labels)
        executor.backward()
        assert tracer.events == []
        assert tracer.steps[0].total_encoded_bytes > 0


class TestReporting:
    def test_summary_table_lists_every_step(self):
        tracer = _traced_run(steps=2)
        summary = tracer.summary()
        assert "loss" in summary and "ratio" in summary
        assert len(summary.splitlines()) == 2 + 2  # header + rule + steps

    def test_to_json_is_serialisable(self):
        tracer = _traced_run(steps=2)
        payload = json.loads(json.dumps(tracer.to_json()))
        assert len(payload) == 2
        assert payload[0]["loss"] == tracer.steps[0].loss
        assert payload[0]["encoded_bytes"] == tracer.steps[0].encoded_bytes

    def test_encoded_bytes_by_encoding_sums_steps(self):
        # Shapes are static, so a size-static encoding stashes the same
        # bytes every step: a run's total is steps x one step's entry.
        tracer = _traced_run("gist-lossless", steps=2)
        first, second = (rec.encoded_bytes for rec in tracer.steps)
        assert first["binarize"] == second["binarize"] > 0
        assert first.keys() == second.keys()


class TestTrainerIntegration:
    def test_trainer_accepts_tracer(self):
        graph = build_model("tiny_cnn", batch_size=16, num_classes=4,
                            image_size=8)
        train, test = make_synthetic(64, 4, 8, seed=1)
        tracer = StepTracer(keep_events=False)
        trainer = Trainer(graph, None, SGD(lr=0.01), seed=0, tracer=tracer)
        trainer.train(train, test, epochs=1)
        assert len(tracer.steps) == 64 // 16
