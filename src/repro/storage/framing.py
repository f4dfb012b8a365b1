"""Shared record framing for append-only logs.

Both the write-ahead log (:mod:`repro.storage.wal`) and the audit ledger
(:mod:`repro.audit.ledger`) store streams of records in segment files with
the same wire format — each record length-prefixed and checksummed::

    +----------------+----------------+----------------------+
    | length (4B BE) | crc32 (4B BE)  | payload (JSON, UTF-8) |
    +----------------+----------------+----------------------+

A reader accepts a record only if the full frame is present *and* the CRC
matches; anything else is a **torn tail** — the crash left a partial final
record — and decoding stops exactly there, yielding the committed prefix.
Openers truncate the torn tail before appending, so a log never contains
garbage between valid records.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import Any, Dict, List, Optional, Tuple

from ..core.exceptions import SerializationError

__all__ = [
    "HEADER",
    "MAX_RECORD_BYTES",
    "SEGMENT_PREFIX",
    "decode_records",
    "decode_value",
    "encode_record",
    "encode_value",
    "parse_segment_id",
    "segment_name",
]

HEADER = struct.Struct(">II")

#: Segment files are ``seg-<id>.<suffix>`` inside a log directory; the
#: suffix distinguishes the owning subsystem (``.wal`` for the write-ahead
#: log, ``.audit`` for the provenance ledger).
SEGMENT_PREFIX = "seg-"

#: Hard upper bound on one record's payload.  Enforced symmetrically: the
#: *writer* refuses to encode a larger record (:func:`encode_record` raises,
#: so an oversized record fails loudly at log time instead of being
#: acknowledged durable), and the *reader* treats a larger length prefix as
#: corruption.  Snapshot frames are exempt (``max_bytes=None``): they are
#: single trusted frames whose length is already bounded by the file size.
MAX_RECORD_BYTES = 64 * 1024 * 1024

#: Sentinel meaning "use the module's MAX_RECORD_BYTES at call time".
_DEFAULT_LIMIT = object()


def encode_value(value: Any) -> Any:
    """Encode one stored cell/file value to a JSON-able form.

    Table cells and file contents are plain Python data by the time they
    reach the log (policies travel separately, already serialized by
    :mod:`repro.core.serialization` into policy columns and xattrs), so the
    only non-JSON type to handle is ``bytes``.
    """
    if isinstance(value, bytes):
        return {"__bytes__": value.hex()}
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise SerializationError(f"cannot log value of type {type(value).__name__}")


def decode_value(value: Any) -> Any:
    if isinstance(value, dict) and "__bytes__" in value:
        return bytes.fromhex(value["__bytes__"])
    return value


def encode_record(record: Dict[str, Any], *, max_bytes=_DEFAULT_LIMIT) -> bytes:
    """One framed record: header (length + crc32) and JSON payload.

    Raises :class:`~repro.core.exceptions.SerializationError` when the
    payload exceeds ``max_bytes`` (default: :data:`MAX_RECORD_BYTES`): a
    frame over the limit would be *written* fine but rejected as a corrupt
    length prefix on replay, silently dropping it and every later record —
    so the writer must fail loudly instead.  ``max_bytes=None`` disables the
    check (snapshot frames, which get no reader-side limit either).
    """
    payload = _dumps(record).encode("utf-8")
    limit = MAX_RECORD_BYTES if max_bytes is _DEFAULT_LIMIT else max_bytes
    if limit is not None and len(payload) > limit:
        raise SerializationError(
            f"record payload is {len(payload)} bytes, over the {limit}-byte "
            "frame limit; refusing to write a record replay would reject as "
            "corrupt"
        )
    return HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def _dumps(value: Any) -> str:
    """The payload's JSON form: compact, keys sorted."""
    return json.dumps(value, separators=(",", ":"), sort_keys=True)


def decode_records(
    data: bytes, *, max_record_bytes=_DEFAULT_LIMIT
) -> Tuple[List[Dict[str, Any]], int]:
    """Decode every complete, valid record from ``data``.

    Returns ``(records, valid_length)`` where ``valid_length`` is the byte
    offset of the first invalid/torn frame (== ``len(data)`` when the whole
    buffer is clean).  Replay uses the records; segment openers use the
    offset to truncate the torn tail.  ``max_record_bytes`` must match what
    the writer enforced (``None`` for snapshot frames).
    """
    limit = (
        MAX_RECORD_BYTES if max_record_bytes is _DEFAULT_LIMIT else max_record_bytes
    )
    records: List[Dict[str, Any]] = []
    offset = 0
    total = len(data)
    while offset + HEADER.size <= total:
        length, crc = HEADER.unpack_from(data, offset)
        start = offset + HEADER.size
        if (limit is not None and length > limit) or start + length > total:
            break
        payload = data[start : start + length]
        if zlib.crc32(payload) != crc:
            break
        try:
            record = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            break
        if not isinstance(record, dict):
            break
        records.append(record)
        offset = start + length
    return records, offset


def segment_name(segment_id: int, suffix: str) -> str:
    return f"{SEGMENT_PREFIX}{segment_id:08d}{suffix}"


def parse_segment_id(name: str, suffix: str) -> Optional[int]:
    if not (name.startswith(SEGMENT_PREFIX) and name.endswith(suffix)):
        return None
    middle = name[len(SEGMENT_PREFIX) : -len(suffix)]
    try:
        return int(middle)
    except ValueError:
        return None
