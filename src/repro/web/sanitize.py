"""Sanitization functions.

The paper's first SQL-injection / XSS strategy (Section 5.3) changes the
application's *existing* sanitization functions to attach a ``SQLSanitized``
or ``HTMLSanitized`` policy to the freshly sanitized data.  These are those
sanitizers: each performs the usual escaping and then marks every character
of the result.

Note that the ``UntrustedData`` policy is deliberately *not* removed: keeping
it lets an assertion distinguish data sanitized for SQL from data sanitized
for HTML (using the wrong sanitizer still trips the assertion).
"""

from __future__ import annotations

import json

from ..policies.untrusted import HTMLSanitized, JSONSanitized, SQLSanitized
from ..tracking.propagation import to_tainted_str
from ..tracking.tainted_str import TaintedStr

__all__ = ["sql_quote", "html_escape", "json_encode", "strip_tags"]


def _escape_chars(text: TaintedStr, replacements) -> TaintedStr:
    """Replace metacharacters, keeping each replacement's characters tagged
    with the policies of the character they were derived from (so an escaped
    ``'`` that came from user input is still ``UntrustedData``)."""
    from ..tracking.propagation import spread_policies
    pieces = []
    for char in text:
        replacement = replacements.get(str(char))
        if replacement is None:
            pieces.append(char)
        else:
            pieces.append(spread_policies(replacement, char.policies()))
    result = TaintedStr("")
    for piece in pieces:
        result = result + piece
    return result


def sql_quote(value) -> TaintedStr:
    """Escape a value for inclusion inside a single-quoted SQL literal and
    mark it ``SQLSanitized``.

    Works per run: each stretch between quotes is one slice, and each
    ``'`` is doubled by repeating its own one-character slice, so every
    character of the result keeps the policies of the one it came from.
    """
    text = to_tainted_str(value)
    if "'" in text:
        pieces = []
        index = 0
        for run in str(text).split("'")[:-1]:
            stop = index + len(run)
            quote = text[stop : stop + 1]
            pieces += (text[index:stop], quote, quote)
            index = stop + 1
        pieces.append(text[index:])
        text = TaintedStr("").join(pieces)
    return text.with_policy(SQLSanitized("sql_quote")) if text else text


_HTML_REPLACEMENTS = {
    "&": "&amp;",
    "<": "&lt;",
    ">": "&gt;",
    '"': "&quot;",
    "'": "&#x27;",
}


def html_escape(value) -> TaintedStr:
    """Escape HTML metacharacters and mark the result ``HTMLSanitized``."""
    text = to_tainted_str(value)
    text = _escape_chars(text, _HTML_REPLACEMENTS)
    if not text:
        return text
    return text.with_policy(HTMLSanitized("html_escape"))


def json_encode(value) -> TaintedStr:
    """Encode a value as a JSON string literal and mark it ``JSONSanitized``
    (Section 5.4: JSON output has the same structure-injection problem as
    SQL)."""
    text = to_tainted_str(value)
    encoded = TaintedStr(json.dumps(str(text)))
    # json.dumps goes through C code and drops the taint; re-attach the
    # original policies plus the sanitized marker so tracking continues.
    for policy in text.policies():
        encoded = encoded.with_policy(policy)
    return encoded.with_policy(JSONSanitized("json_encode"))


def strip_tags(value) -> TaintedStr:
    """Remove anything that looks like an HTML tag (a second-line sanitizer
    some of the forum code paths use before quoting message bodies)."""
    text = to_tainted_str(value)
    result = TaintedStr("")
    in_tag = False
    for char in text:
        if char == "<":
            in_tag = True
            continue
        if char == ">" and in_tag:
            in_tag = False
            continue
        if not in_tag:
            result = result + char
    return result
