"""SQL tokenizer.

:func:`scan` finds the ``(kind, start, end)`` span of every token in the
plain text of a query.  The spans are all the SQL-injection filter needs
to ask "does any character of the query's *structure* carry
``UntrustedData``?" (the second strategy of Section 5.3): it reads the
query's range map over the non-literal spans.  :func:`tokenize` scans a
query once and builds, on first use, tokens that keep the character-level
policies of the :class:`~repro.tracking.tainted_str.TaintedStr` slice each
was read from, so the persistence filter can recover the policies of
string literals.
"""

from __future__ import annotations

import re
from typing import Iterator, List, Optional, Tuple

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


def scan(text: str) -> List[Tuple[str, int, int]]:
    """One pass of the scanner over plain ``text``: the ``(kind, start,
    end)`` span of every token, whitespace and comments left out.

    ``kind`` is the scanner group that matched (``string``, ``number``,
    ``word``, ``quoted``, ``param``, ``op`` or ``punct``).  Raises the
    ``SQLError`` :func:`tokenize` reports for malformed text, at the same
    position.
    """
    length = len(text)
    match = _SCANNER.match
    spans: List[Tuple[str, int, int]] = []
    index = 0
    while index < length:
        found = match(text, index)
        if found is None:
            raise SQLError(f"unexpected character {text[index]!r} at position {index}")
        kind = found.lastgroup
        start, index = found.span()
        if kind == "skip":
            continue
        if kind == "word":
            if not (text[start].isalpha() or text[start] == "_"):
                # ``\w`` also admits numeric characters that are not digits.
                raise SQLError(
                    f"unexpected character {text[start]!r} at position {start}")
        elif kind == "param":
            if index == start + 1:
                raise SQLError(f"expected parameter name after ':' at position {start}")
        elif kind == "unterminated":
            if text[start] == "'":
                raise SQLError("unterminated string literal")
            raise SQLError("unterminated comment")
        spans.append((kind, start, index))
    return spans


class Tokens:
    """The tokens of one query, from one scan of its plain text.

    ``spans`` holds the scan (see :func:`scan`).  The :class:`Token`
    objects are built the first time one is read, so a caller that needs
    only the spans and the literals (a statement-template hit) builds none.
    """

    __slots__ = ("sql", "text", "spans", "_tokens")

    def __init__(self, sql):
        if not isinstance(sql, TaintedStr):
            sql = TaintedStr(sql)
        self.sql = sql
        self.text = str(sql)
        self.spans = scan(self.text)
        self._tokens: Optional[List[Token]] = None

    def as_list(self) -> List[Token]:
        """The tokens, ending with an EOF token."""
        if self._tokens is None:
            self._tokens = _build_tokens(self.sql, self.text, self.spans)
        return self._tokens

    def __getitem__(self, index):
        return self.as_list()[index]

    def __len__(self) -> int:
        return len(self.as_list())

    def __iter__(self) -> Iterator[Token]:
        return iter(self.as_list())


def tokenize(sql) -> Tokens:
    """Tokenize ``sql``: scan it now, build its tokens on first use.

    Every token's ``text`` is a single tainted slice of ``sql``, and a
    string literal's cooked value is one slice per run between ``''``
    escapes, so both keep the policies of the characters they came from.
    Malformed text raises ``SQLError`` here, before any token is read.
    """
    return Tokens(sql)


def _build_tokens(sql: TaintedStr, text: str,
                  spans: List[Tuple[str, int, int]]) -> List[Token]:
    tokens: List[Token] = []
    for kind, start, end in spans:
        word = text[start:end]
        if kind == "word":
            lowered = word.lower()
            if lowered in KEYWORDS:
                token_type, value = KEYWORD, lowered
            else:
                token_type, value = IDENT, word
        elif kind == "string":
            token_type, value = STRING, literal_value(sql, kind, start, word)
        elif kind == "number":
            token_type, value = NUMBER, literal_value(sql, kind, start, word)
        elif kind == "op":
            token_type, value = OP, "!=" if word == "<>" else word
        elif kind == "punct":
            token_type, value = PUNCT, word
        elif kind == "param":
            token_type, value = PARAM, word[1:]
        else:
            # A backtick identifier; an unterminated one runs to the end of
            # the text, and its span still counts the missing backtick.
            token_type, value = IDENT, word[1:].rstrip("`")
            end = start + len(value) + 2
        tokens.append(Token(token_type, value, sql[start:end], start, end))
    tokens.append(Token(EOF, None, TaintedStr(""), len(text), len(text)))
    return tokens


def literal_value(sql: TaintedStr, kind: str, start: int, literal: str):
    """The value of the ``string`` or ``number`` literal ``literal`` found at
    ``start`` of ``sql``: a number is a plain ``int`` or ``float``, a
    string keeps the policies of the characters it came from."""
    if kind == "string":
        return _cook_string(sql, start, literal)
    return float(literal) if "." in literal else int(literal)


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
