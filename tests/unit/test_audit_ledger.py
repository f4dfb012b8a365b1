"""Audit ledger: framing, rotation, retention, exact-prefix recovery.

The crash-consistency half reuses the PR 7 kill-anywhere pattern from
``tests/integration/test_durability_recovery.py``: truncate the final
segment at *every* byte offset, and flip *every* byte of the final record,
asserting the reopened ledger holds an exact prefix of the appended events
and continues the sequence correctly.
"""

import os

import pytest

from repro.audit.ledger import AuditLedger, MemoryLedger
from repro.storage import framing


def _fill(ledger, count, start=0):
    for index in range(start, start + count):
        ledger.append({"kind": "export", "verdict": "allow", "n": index})


def _events(directory, **kwargs):
    ledger = AuditLedger(directory, **kwargs)
    try:
        return list(ledger.iter_events())
    finally:
        ledger.close()


class TestAppendAndIterate:
    def test_events_round_trip_in_order(self, tmp_path):
        directory = str(tmp_path / "audit")
        with AuditLedger(directory) as ledger:
            _fill(ledger, 10)
        events = _events(directory)
        assert [e["n"] for e in events] == list(range(10))
        assert [e["seq"] for e in events] == list(range(1, 11))

    def test_iter_events_since_seq(self, tmp_path):
        with AuditLedger(str(tmp_path)) as ledger:
            _fill(ledger, 10)
            tail = list(ledger.iter_events(since_seq=7))
        assert [e["seq"] for e in tail] == [8, 9, 10]

    def test_append_on_closed_ledger_raises(self, tmp_path):
        ledger = AuditLedger(str(tmp_path))
        ledger.close()
        with pytest.raises(RuntimeError):
            ledger.append({"kind": "export"})

    def test_seq_continues_after_reopen(self, tmp_path):
        directory = str(tmp_path)
        with AuditLedger(directory) as ledger:
            _fill(ledger, 5)
        with AuditLedger(directory) as ledger:
            assert ledger.next_seq == 6
            _fill(ledger, 2, start=5)
        assert [e["seq"] for e in _events(directory)] == [1, 2, 3, 4, 5, 6, 7]


class TestRotationAndRetention:
    def test_rotates_past_segment_bytes(self, tmp_path):
        directory = str(tmp_path)
        with AuditLedger(directory, segment_bytes=256) as ledger:
            _fill(ledger, 30)
            assert len(ledger.segment_ids()) > 1
        assert [e["n"] for e in _events(directory, segment_bytes=256)] \
            == list(range(30))

    def test_retention_purges_oldest_sealed_segments(self, tmp_path):
        directory = str(tmp_path)
        with AuditLedger(directory, segment_bytes=128,
                         retain_segments=2) as ledger:
            _fill(ledger, 200)
            ids = ledger.segment_ids()
            # active segment + at most retain_segments sealed ones
            assert len(ids) <= 3
            assert ledger.segments_purged > 0
        events = _events(directory, segment_bytes=128)
        # The survivors are the *newest* events, still contiguous.
        numbers = [e["n"] for e in events]
        assert numbers == list(range(numbers[0], 200))
        assert numbers[0] > 0

    def test_segment_files_use_audit_suffix(self, tmp_path):
        directory = str(tmp_path)
        with AuditLedger(directory) as ledger:
            _fill(ledger, 1)
        names = os.listdir(directory)
        assert names == ["seg-00000001.audit"]
        assert framing.parse_segment_id(names[0], ".audit") == 1


class TestKillAnywhereRecovery:
    """Truncate/corrupt every byte of the final record: the reopened ledger
    must hold an exact event prefix and never a torn or corrupt record."""

    EVENTS = 12

    def _seed(self, tmp_path):
        directory = str(tmp_path / "audit")
        with AuditLedger(directory) as ledger:
            _fill(ledger, self.EVENTS)
        path = os.path.join(directory, "seg-00000001.audit")
        with open(path, "rb") as handle:
            data = handle.read()
        # Offset where the final record's frame begins: decode all-but-one
        # byte — the torn tail ends exactly at the last full frame.
        _, final_start = framing.decode_records(data[:-1])
        return directory, path, data, final_start

    def test_truncate_at_every_offset_recovers_exact_prefix(self, tmp_path):
        directory, path, data, final_start = self._seed(tmp_path)
        for cut in range(final_start, len(data) + 1):
            with open(path, "wb") as handle:
                handle.write(data[:cut])
            events = _events(directory)
            expected = self.EVENTS if cut == len(data) else self.EVENTS - 1
            assert [e["n"] for e in events] == list(range(expected)), cut
            # Reopen truncated the tail: the file is clean again.
            with open(path, "rb") as handle:
                after = handle.read()
            _, valid = framing.decode_records(after)
            assert valid == len(after)
            with open(path, "wb") as handle:
                handle.write(data)

    def test_corrupt_every_byte_of_final_record_drops_only_it(self, tmp_path):
        directory, path, data, final_start = self._seed(tmp_path)
        for index in range(final_start, len(data)):
            mutated = bytearray(data)
            mutated[index] ^= 0xFF
            with open(path, "wb") as handle:
                handle.write(bytes(mutated))
            events = _events(directory)
            assert [e["n"] for e in events] == list(range(self.EVENTS - 1)), \
                index
            with open(path, "wb") as handle:
                handle.write(data)

    def test_sequence_continues_from_surviving_prefix(self, tmp_path):
        directory, path, data, final_start = self._seed(tmp_path)
        with open(path, "wb") as handle:
            handle.write(data[: len(data) - 3])
        with AuditLedger(directory) as ledger:
            assert ledger.next_seq == self.EVENTS  # lost event's seq reused
            ledger.append({"kind": "export", "n": self.EVENTS - 1})
        numbers = [e["n"] for e in _events(directory)]
        assert numbers == list(range(self.EVENTS))


class TestOpenReadsOnce:
    def test_open_decodes_the_active_segment_once(self, tmp_path, monkeypatch):
        directory = str(tmp_path)
        with AuditLedger(directory) as ledger:
            _fill(ledger, 5)
        decoded = []
        original = framing.decode_records

        def counting(data):
            decoded.append(len(data))
            return original(data)

        monkeypatch.setattr(framing, "decode_records", counting)
        with AuditLedger(directory) as ledger:
            assert ledger.next_seq == 6
        assert len(decoded) == 1

    def test_seq_comes_from_a_sealed_segment_when_the_active_is_empty(
            self, tmp_path):
        directory = str(tmp_path)
        with AuditLedger(directory, segment_bytes=200) as ledger:
            _fill(ledger, 6)
            sealed = ledger.segment_ids()[:-1]
        active = os.path.join(directory, framing.segment_name(
            max(sealed) + 1, ".audit"))
        with open(active, "wb"):
            pass  # the active segment lost every record
        with AuditLedger(directory, segment_bytes=200) as ledger:
            last = [e["seq"] for e in ledger.iter_events()][-1]
            assert ledger.next_seq == last + 1


class TestMemoryLedger:
    def test_round_trip_and_seq(self):
        ledger = MemoryLedger()
        _fill(ledger, 5)
        assert [e["seq"] for e in ledger.iter_events()] == [1, 2, 3, 4, 5]
        assert list(ledger.iter_events(since_seq=3)) == \
            [e for e in ledger.iter_events() if e["seq"] > 3]

    def test_bounded_retention(self):
        ledger = MemoryLedger(retain_events=10)
        _fill(ledger, 25)
        numbers = [e["n"] for e in ledger.iter_events()]
        assert numbers == list(range(15, 25))
