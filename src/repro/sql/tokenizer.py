"""SQL tokenizer.

Tokenizes a (possibly tainted) SQL query string while preserving the
character-level policies of every token: each token keeps the
:class:`~repro.tracking.tainted_str.TaintedStr` slice it was read from, so
the SQL-injection filter can ask "does any character of the query's
*structure* carry ``UntrustedData``?" (the second strategy of Section 5.3),
and the persistence filter can recover the policies of string literals.
"""

from __future__ import annotations

import re
from typing import List

from ..core.exceptions import SQLError
from ..tracking.tainted_str import TaintedStr

KEYWORDS = frozenset("""
    select from where and or not insert into values update set delete create
    table drop if exists primary key null like in is order by asc desc limit
    offset integer int text real varchar char float distinct as count min max
    sum avg lower upper length unique default autoincrement index on explain
    using
""".split())

#: Token types.
KEYWORD = "KEYWORD"
IDENT = "IDENT"
STRING = "STRING"
NUMBER = "NUMBER"
OP = "OP"
PUNCT = "PUNCT"
PARAM = "PARAM"
EOF = "EOF"

#: One scanner for the whole dialect, matched at each position; the named
#: group that matched is the token kind.  ``\s``, ``\d`` and ``\w`` are the
#: Unicode classes of ``str.isspace``, ``str.isdecimal`` and ``str.isalnum``
#: (plus ``_``).  An unterminated literal or comment fails its own
#: alternative and falls through to ``unterminated``.
_SCANNER = re.compile(
    r"""
      (?P<skip>\s+ | --[^\n]* | /\*.*?\*/)
    | (?P<string>'[^']*(?:''[^']*)*')
    | (?P<number>\d+(?:\.\d*)? | \.\d+)
    | (?P<word>[^\W\d]\w*)
    | (?P<quoted>`[^`]*`?)
    | (?P<param>:\w*)
    | (?P<op><> | != | <= | >= | [=<>+-])
    | (?P<punct>[(),.;*])
    | (?P<unterminated>/\* | ')
    """,
    re.VERBOSE | re.DOTALL,
)


class Token:
    """One lexical token.

    ``text`` is the tainted source slice (including quotes for strings);
    ``value`` is the cooked value (unescaped string content, int/float for
    numbers, lower-cased text for keywords).
    """

    __slots__ = ("type", "value", "text", "start", "end")

    def __init__(self, type: str, value, text, start: int, end: int):
        self.type = type
        self.value = value
        self.text = text
        self.start = start
        self.end = end

    def matches(self, type: str, value=None) -> bool:
        if self.type != type:
            return False
        return value is None or self.value == value

    def __repr__(self) -> str:
        return f"Token({self.type}, {self.value!r})"


def tokenize(sql) -> List[Token]:
    """Tokenize ``sql`` into a list of tokens ending with an EOF token.

    One pass: every token's ``text`` is a single tainted slice of ``sql``,
    and a string literal's cooked value is one slice per run between
    ``''`` escapes, so both keep the policies of the characters they came
    from.
    """
    if not isinstance(sql, TaintedStr):
        sql = TaintedStr(sql)
    text = str(sql)
    length = len(text)
    match = _SCANNER.match
    tokens: List[Token] = []
    index = 0
    while index < length:
        found = match(text, index)
        if found is None:
            raise SQLError(f"unexpected character {text[index]!r} at position {index}")
        kind = found.lastgroup
        start, end = found.span()
        index = end
        if kind == "skip":
            continue
        word = text[start:end]
        if kind == "word":
            if not (word[0].isalpha() or word[0] == "_"):
                # ``\w`` also admits numeric characters that are not digits.
                raise SQLError(f"unexpected character {word[0]!r} at position {start}")
            lowered = word.lower()
            if lowered in KEYWORDS:
                token_type, value = KEYWORD, lowered
            else:
                token_type, value = IDENT, word
        elif kind == "string":
            token_type, value = STRING, _cook_string(sql, start, word)
        elif kind == "number":
            token_type, value = NUMBER, float(word) if "." in word else int(word)
        elif kind == "op":
            token_type, value = OP, "!=" if word == "<>" else word
        elif kind == "punct":
            token_type, value = PUNCT, word
        elif kind == "param":
            if end == start + 1:
                raise SQLError(f"expected parameter name after ':' at position {start}")
            token_type, value = PARAM, word[1:]
        elif kind == "quoted":
            # An unterminated backtick identifier runs to the end of the
            # text; its span still counts the missing closing backtick.
            token_type, value = IDENT, word[1:].rstrip("`")
            end = start + len(value) + 2
        elif word == "'":
            raise SQLError("unterminated string literal")
        else:
            raise SQLError("unterminated comment")
        tokens.append(Token(token_type, value, sql[start:end], start, end))
    tokens.append(Token(EOF, None, TaintedStr(""), length, length))
    return tokens


def _cook_string(sql: TaintedStr, start: int, literal: str) -> TaintedStr:
    """The value of the string literal ``literal`` found at ``start``: one
    tainted slice per run between ``''`` escapes, each run keeping the
    first quote of the escape that ends it."""
    runs = literal[1:-1].split("''")
    stop = start + len(literal) - 1
    if len(runs) == 1:
        return sql[start + 1 : stop]
    pieces = []
    run = start + 1
    for part in runs[:-1]:
        pieces.append(sql[run : run + len(part) + 1])
        run += len(part) + 2
    pieces.append(sql[run:stop])
    return TaintedStr("").join(pieces)
