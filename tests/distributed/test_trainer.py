"""End-to-end data-parallel runs: replica invariance, journal, config."""

import numpy as np
import pytest

from repro.distributed import DistConfig, train_distributed
from repro.ioutil import read_jsonl

#: Pinned digest of _CONFIG at one replica; guards the whole pipeline
#: (sharding, RNG derivation, wire codecs, tree merge, SGD) against
#: silent drift.
_GOLDEN = "1a96c34b8fa2e410ea6caaabde9f6881fc9f00c5f3094332fae9b2ff822fb1a0"

_CONFIG = dict(model="tiny_cnn", batch_size=8, num_shards=4, steps=2,
               wire_codec="auto", seed=0, num_samples=32)


def _run(replicas=1, journal=None, **overrides):
    return train_distributed(
        DistConfig(replicas=replicas, **{**_CONFIG, **overrides}),
        journal=journal,
    )


def test_serial_run_matches_pinned_golden_digest():
    assert _run(replicas=1).digest() == _GOLDEN


def test_four_worker_replicas_are_bit_identical_to_serial():
    """The digest covers every per-step loss and every final parameter
    byte, so this is replicas-N == serial end to end through the real
    process pool."""
    assert _run(replicas=4).digest() == _GOLDEN


def test_elastic_replica_count_does_not_change_bits():
    # Three workers over four shards: one worker runs two shards.
    assert _run(replicas=3).digest() == _GOLDEN


def test_lossy_wire_codec_is_still_replica_invariant():
    serial = _run(replicas=1, wire_codec="dpr-fp8")
    parallel = _run(replicas=2, wire_codec="dpr-fp8")
    assert serial.digest() == parallel.digest()
    assert serial.digest() != _GOLDEN  # the rounding really happened


def test_gist_lossless_replicas_match_serial_and_baseline():
    serial = _run(replicas=1, num_shards=2, policy="gist-lossless")
    parallel = _run(replicas=2, num_shards=2, policy="gist-lossless")
    assert parallel.digest() == serial.digest()
    # Lossless stashes: the same bits as FP32 stashes on the same shards.
    assert serial.digest() == _run(replicas=1, num_shards=2).digest()


def test_loss_is_finite_and_wire_accounting_consistent():
    result = _run(replicas=1)
    assert all(np.isfinite(result.losses))
    assert result.total_wire_bytes > 0
    assert result.total_fp32_bytes >= result.total_wire_bytes
    assert result.wire_reduction >= 1.0
    for record in result.records:
        assert sum(record.shard_sizes) == _CONFIG["batch_size"]
        assert len(record.shard_losses) == _CONFIG["num_shards"]
        assert record.comm_s > 0.0


def test_result_serialises_to_json_summary():
    summary = _run(replicas=1).to_json()
    assert summary["digest"] == _GOLDEN
    assert len(summary["records"]) == _CONFIG["steps"]
    assert summary["total_fp32_bytes"] >= summary["total_wire_bytes"]


def test_journal_replay_reproduces_the_run(tmp_path):
    journal = tmp_path / "dist.jsonl"
    first = _run(replicas=2, journal=str(journal))
    assert first.digest() == _GOLDEN
    records = list(read_jsonl(journal))
    expected_units = _CONFIG["steps"] * _CONFIG["num_shards"]
    assert len(records) == expected_units

    # Same config, same journal: every unit replays, nothing re-runs,
    # and the result is still bit-identical.
    second = _run(replicas=2, journal=str(journal))
    assert second.digest() == _GOLDEN
    assert len(list(read_jsonl(journal))) == expected_units


def test_config_validation():
    with pytest.raises(ValueError, match="wire codec"):
        DistConfig(wire_codec="gzip")
    with pytest.raises(ValueError, match="replica policy.*gist-lossless"):
        DistConfig(policy="nope")
    with pytest.raises(ValueError, match="steps"):
        DistConfig(steps=0)
    with pytest.raises(ValueError, match="replicas"):
        DistConfig(replicas=0)
    with pytest.raises(ValueError, match="shards"):
        DistConfig(batch_size=2, num_shards=4)
