"""RunJournal.compact(): bounded growth, replay semantics preserved."""

import json

from repro.ioutil import read_jsonl
from repro.orchestrate import RunJournal, WorkUnit


def _unit(key, payload):
    return WorkUnit("sleep", key, payload)


def _fill(journal):
    """A journal with superseded, failed and multi-fingerprint records.

    Returns the units whose ``completed()`` view must be preserved:
    one key recorded twice under the same fingerprint (later wins), one
    key recorded under two different fingerprints (both callers must
    still replay), and one failed record.
    """
    a_old, a_new = _unit("a", {"v": 1}), _unit("a", {"v": 1})
    b_v1, b_v2 = _unit("b", {"v": 1}), _unit("b", {"v": 2})
    c = _unit("c", {"v": 1})
    journal.record(a_old, "ok", result="stale")
    journal.record(b_v1, "ok", result="b-as-v1")
    journal.record(a_new, "ok", result="fresh")
    journal.record(b_v2, "ok", result="b-as-v2")
    journal.record(c, "failed", error={"type": "Boom", "message": "x"})
    return [a_new, b_v1, b_v2, c]


class TestCompact:
    def test_drops_superseded_keeps_latest(self, tmp_path):
        journal = RunJournal(tmp_path / "run.jsonl")
        _fill(journal)
        kept, dropped = journal.compact()
        # (a, fp) superseded pair collapses; both b fingerprints stay.
        assert kept == 4
        assert dropped == 1
        records = list(read_jsonl(journal.path))
        assert len(records) == 4
        (a_record,) = [r for r in records if r["key"] == "a"]
        assert a_record["result"] == "fresh"

    def test_completed_byte_identical_across_compaction(self, tmp_path):
        journal = RunJournal(tmp_path / "run.jsonl")
        units = _fill(journal)
        def snapshot():
            views = {}
            for unit in units:
                label = (f"{unit.key}/"
                         f"{json.dumps(unit.payload, sort_keys=True)}")
                views[label] = journal.completed([unit])
            return json.dumps(views, sort_keys=True)

        before = snapshot()
        journal.compact()
        after = snapshot()
        assert before == after  # byte-for-byte
        # The failed unit's record stays, but never replays.
        assert "c" not in journal.completed(units)
        assert [r["status"] for r in read_jsonl(journal.path)
                if r["key"] == "c"] == ["failed"]

    def test_multi_fingerprint_key_preserved(self, tmp_path):
        # The regression compaction-by-key-alone would introduce: two
        # callers with different payloads for the same key must BOTH
        # still replay after compaction.
        journal = RunJournal(tmp_path / "run.jsonl")
        v1, v2 = _unit("k", {"n": 1}), _unit("k", {"n": 2})
        journal.record(v1, "ok", result="one")
        journal.record(v2, "ok", result="two")
        journal.compact()
        assert journal.completed([v1])["k"]["result"] == "one"
        assert journal.completed([v2])["k"]["result"] == "two"

    def test_malformed_and_foreign_lines_dropped(self, tmp_path):
        journal = RunJournal(tmp_path / "run.jsonl")
        journal.record(_unit("a", {"v": 1}), "ok", result=1)
        with open(journal.path, "a") as fh:
            fh.write(json.dumps({"format": 999, "key": "x"}) + "\n")
            fh.write(json.dumps({"format": 1, "key": "y",
                                 "status": "running"}) + "\n")
            fh.write(json.dumps({"format": 1, "key": 7,
                                 "status": "ok"}) + "\n")
        kept, dropped = journal.compact()
        assert (kept, dropped) == (1, 3)

    def test_record_whose_stamp_fails_dropped(self, tmp_path):
        journal = RunJournal(tmp_path / "run.jsonl")
        journal.record(_unit("a", {"v": 1}), "ok", result={"n": 1})
        journal.record(_unit("b", {"v": 1}), "ok", result={"n": 2})
        records = list(read_jsonl(journal.path))
        records[0]["result"]["n"] = 99  # still parses, stamp now fails
        journal.path.write_text("".join(json.dumps(r) + "\n"
                                        for r in records))
        assert journal.compact() == (1, 1)
        (kept,) = read_jsonl(journal.path)
        assert (kept["key"], kept["result"]) == ("b", {"n": 2})

    def test_missing_journal_is_noop(self, tmp_path):
        journal = RunJournal(tmp_path / "absent.jsonl")
        assert journal.compact() == (0, 0)
        assert not journal.path.exists()

    def test_idempotent(self, tmp_path):
        journal = RunJournal(tmp_path / "run.jsonl")
        _fill(journal)
        journal.compact()
        first = journal.path.read_bytes()
        kept, dropped = journal.compact()
        assert dropped == 0
        assert journal.path.read_bytes() == first
