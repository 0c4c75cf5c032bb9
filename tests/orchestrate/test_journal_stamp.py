"""Checked replay: a journal record comes back bit-exact or re-runs.

Every record carries a stamp over its fingerprint, status and result; a
record that still parses but no longer matches its stamp (an edited or
cut-short result, a result pasted under another unit's line, a record
of an older format) is never replayed, so its unit runs again.
"""

import json

import pytest

from repro.ioutil import read_jsonl
from repro.orchestrate import RunJournal, WorkUnit, register_kind, run_units
from repro.orchestrate.units import payload_fingerprint


def _count(payload):
    """Appends one line per execution, so a test can count re-runs."""
    with open(payload["effects"], "a") as fh:
        fh.write(payload["key"] + "\n")
    return {"key": payload["key"], "rows": [1, 2, 3]}


register_kind("t-stamped", _count)


def _units(tmp_path, n=2):
    effects = str(tmp_path / "effects.log")
    return [WorkUnit("t-stamped", f"k{i}", {"key": f"k{i}",
                                            "effects": effects})
            for i in range(n)]


def _runs(tmp_path):
    return (tmp_path / "effects.log").read_text().splitlines()


def _rewrite(journal, edit):
    """Apply ``edit(records)`` to the journal's parsed records in place."""
    records = list(read_jsonl(journal.path))
    edit(records)
    journal.path.write_text("".join(json.dumps(r, sort_keys=True) + "\n"
                                    for r in records))


@pytest.fixture
def journaled(tmp_path):
    """Two units run once into a fresh journal: ``(journal, units, live)``."""
    journal = RunJournal(tmp_path / "run.jsonl")
    units = _units(tmp_path)
    live = run_units(units, journal=journal)
    assert _runs(tmp_path) == ["k0", "k1"]
    return journal, units, live


@pytest.mark.parametrize("edit", [
    lambda result: result.update(key="forged"),
    lambda result: result["rows"].pop(),  # cut short, still parses
], ids=["changed", "truncated"])
def test_edited_result_is_rerun(tmp_path, journaled, edit):
    journal, units, live = journaled
    _rewrite(journal, lambda records: edit(records[0]["result"]))
    assert sorted(journal.completed(units)) == ["k1"]

    resumed = run_units(units, journal=journal)
    assert not resumed["k0"].cached and resumed["k1"].cached
    assert resumed["k0"].value == live["k0"].value
    assert _runs(tmp_path) == ["k0", "k1", "k0"]


def test_result_pasted_under_another_units_line_is_rerun(tmp_path,
                                                         journaled):
    journal, units, live = journaled

    def paste(records):
        # k1's result and its own stamp, filed under k0's line.
        records[0]["result"] = records[1]["result"]
        records[0]["stamp"] = records[1]["stamp"]

    _rewrite(journal, paste)
    resumed = run_units(units, journal=journal)
    assert not resumed["k0"].cached
    assert resumed["k0"].value == live["k0"].value == {
        "key": "k0", "rows": [1, 2, 3]}
    assert _runs(tmp_path) == ["k0", "k1", "k0"]


def test_format_1_record_is_not_replayed(tmp_path):
    """A record in the stamp-less format-1 layout re-runs its unit."""
    journal = RunJournal(tmp_path / "run.jsonl")
    (unit,) = _units(tmp_path, n=1)
    journal.path.write_text(json.dumps({
        "format": 1, "key": unit.key, "kind": unit.kind,
        "fingerprint": payload_fingerprint(unit), "status": "ok",
        "result": {"key": "stale", "rows": []}, "error": None,
        "attempts": 1, "elapsed_s": 0.0,
    }) + "\n")
    assert journal.completed([unit]) == {}
    result = run_units([unit], journal=journal)[unit.key]
    assert not result.cached
    assert result.value == {"key": "k0", "rows": [1, 2, 3]}
    assert _runs(tmp_path) == ["k0"]
