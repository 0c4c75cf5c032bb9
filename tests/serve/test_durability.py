"""Durability: SIGKILL the serve daemon mid-pass, resume, pin digests.

The acceptance gate for the service layer: a daemon killed mid-job must
resume from its run journal and produce results bit-identical to an
uninterrupted run, without re-executing jobs that already reached a
terminal journal record, and a further resubmission must be answered
entirely from the journal.
"""

import os
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from repro.ioutil import read_jsonl

_DRIVER = Path(__file__).with_name("_serve_driver.py")
_NUM_JOBS = 7  # 6 fuzz + 1 plan, must match the driver


def _spawn(state_dir):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, str(_DRIVER), str(state_dir)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
    )


def _jobs(output: bytes):
    """``{fingerprint: (source, digest)}`` from the driver's JOB lines."""
    jobs = {}
    for line in output.decode().splitlines():
        if line.startswith("JOB "):
            _, fingerprint, status, source, digest = line.split()
            assert status == "ok", line
            jobs[fingerprint] = (source, digest)
    return jobs


def _digests(output: bytes):
    """``{fingerprint: digest}`` from the driver's JOB lines."""
    return {fp: digest for fp, (_, digest) in _jobs(output).items()}


def test_sigkill_mid_pass_then_resume_is_bit_identical(tmp_path):
    # Reference: an uninterrupted cold run in its own state dir.
    cold = _spawn(tmp_path / "cold")
    out, _ = cold.communicate(timeout=300)
    assert cold.returncode == 0, out.decode()
    reference = _digests(out)
    assert len(reference) == _NUM_JOBS

    # Victim: kill the daemon once at least two jobs are journaled but
    # before the pass finishes (queue entries drop only at pass end).
    state = tmp_path / "state"
    journal = state / "journal.jsonl"
    victim = _spawn(state)
    try:
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            done = list(read_jsonl(journal)) if journal.exists() else []
            if len(done) >= 2:
                break
            if victim.poll() is not None:
                raise AssertionError(
                    f"driver finished before the kill:\n"
                    f"{victim.stdout.read().decode()}")
            time.sleep(0.02)
        else:
            raise AssertionError("driver never journaled two jobs")
        victim.send_signal(signal.SIGKILL)
    finally:
        victim.wait(timeout=30)

    journaled_before_kill = [record["key"] for record in read_jsonl(journal)]
    assert 2 <= len(journaled_before_kill) < _NUM_JOBS

    # Resume with identical arguments: completes, digests pinned.
    resumed = _spawn(state)
    out, _ = resumed.communicate(timeout=300)
    assert resumed.returncode == 0, out.decode()
    assert b"DONE" in out
    assert _digests(out) == reference

    # Jobs journaled before the kill were replayed, not re-executed:
    # replay appends no new record, so their counts stay at one; the
    # report labels them ``journal`` and schedules only the rest.
    runs = Counter(record["key"] for record in read_jsonl(journal))
    for key in journaled_before_kill:
        assert runs[key] == 1, f"journaled job {key} was re-run"
    sources = {fp: source for fp, (source, _) in _jobs(out).items()}
    assert sources == {
        fp: "journal" if f"job:{fp[:16]}" in journaled_before_kill
        else "computed" for fp in reference}
    scheduled = _NUM_JOBS - len(journaled_before_kill)
    assert f"SCHEDULED {scheduled}".encode() in out

    # Third submission of the same batch: pure journal, no pool work.
    warm = _spawn(state)
    out, _ = warm.communicate(timeout=300)
    assert warm.returncode == 0, out.decode()
    assert b"SCHEDULED 0" in out
    assert _digests(out) == reference
    assert {source for source, _ in _jobs(out).values()} == {"journal"}
    assert sorted(p.name for p in state.iterdir()) == [
        "journal.jsonl", "queue.jsonl"]
