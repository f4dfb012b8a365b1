"""Expected verdicts and the check that holds each response to one.

A verdict is computed by the input generator from the seeded population,
never from the program under test: the status, texts the body must
contain and texts it must never contain (an anonymous paper's author
e-mails, a hidden review's body, a private-forum body sent to a
non-member).  A response that leaks a never-contain text fails even when
its status is right, so weakening an assertion fails the benchmark
instead of speeding it up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

#: HTML metacharacter replacements of the board's escaper, restated here
#: so the oracle does not take the expected text from the code under test.
_HTML_ESCAPES = (
    ("&", "&amp;"),
    ("<", "&lt;"),
    (">", "&gt;"),
    ('"', "&quot;"),
    ("'", "&#x27;"),
)


def html_escaped(text: str) -> str:
    for char, entity in _HTML_ESCAPES:
        text = text.replace(char, entity)
    return text


@dataclass(frozen=True)
class Verdict:
    """What a correct response to one request looks like."""

    status: int
    contains: Tuple[str, ...] = ()
    never: Tuple[str, ...] = ()
    #: A denial by design (403, "Anonymous" or "hidden"): counted as a
    #: success when it comes back exactly as expected.
    denial: bool = False


def check(verdict: Verdict, status: int, body: bytes) -> Optional[str]:
    """``None`` when the response matches, else a one-line reason."""
    if status != verdict.status:
        return f"status {status}, expected {verdict.status}"
    text = body.decode("utf-8", errors="replace")
    for needle in verdict.never:
        if needle in text:
            return f"leaked {needle[:60]!r}"
    for needle in verdict.contains:
        if needle not in text:
            return f"missing {needle[:60]!r}"
    return None
