"""How fast the host runs Python right now.

On a shared host the CPU time a fixed piece of Python work takes drifts
by up to 2x over minutes (the machine's other guests share its cores and
caches), and the program's CPU time drifts with it.  The benchmark
samples a fixed reference workload between requests, on the CPU the
server runs on, and divides the program's CPU time by the reference's,
which cancels the drift the two share.  ``REFERENCE_MS`` scales the
quotient back to milliseconds: a normalized millisecond is the CPU time
the program would take on a host where one reference run takes
``REFERENCE_MS``.
"""

from __future__ import annotations

import statistics
import time
from typing import List

#: Nominal CPU time of one reference run, in milliseconds.
REFERENCE_MS = 1.0

#: Rows of the reference's table: about 20 MB, more than the caches a
#: core has to itself, like the program's tables and object graph.
_ROW_COUNT = 40_000
#: Rows one reference run visits.
_VISITS = 600

_rows: List[dict] = []


def _table() -> List[dict]:
    if not _rows:
        _rows.extend(
            {
                "id": i,
                "name": "user%d@example.org" % i,
                "body": ("w%d <b>&</b> " % i) * 8,
            }
            for i in range(_ROW_COUNT)
        )
    return _rows


def _reference(rows: List[dict]) -> int:
    """Interpreter-bound work of the kinds the program does, spread over
    memory the way the program's is: row lookups at scattered places in
    a large table, string escaping and slicing, dict updates."""
    index: dict = {}
    parts = []
    at = 12345
    for _ in range(_VISITS):
        at = (at * 1103515245 + 12345) % _ROW_COUNT
        row = rows[at]
        index[row["name"]] = row["id"]
        parts.append(row["body"].replace("&", "&amp;").replace("<", "&lt;")[:40])
    return len("".join(parts)) + len(index)


def sample() -> float:
    """CPU seconds of one reference run on the calling thread."""
    rows = _table()
    start = time.thread_time()
    _reference(rows)
    return time.thread_time() - start


class Calibration:
    """Reference samples taken through a run."""

    def __init__(self):
        self.samples: List[float] = []

    def take(self, count: int = 1) -> None:
        for _ in range(count):
            self.samples.append(sample())

    @property
    def scale(self) -> float:
        """Factor from this run's CPU time to normalized CPU time."""
        return REFERENCE_MS / 1e3 / statistics.median(self.samples)
