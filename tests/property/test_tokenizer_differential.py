"""Differential test: the one-pass SQL scanner against the per-character
tokenizer it replaced.

The oracle below is the earlier tokenizer, kept verbatim in logic: it walks
the query one character at a time and assembles string literals from
1-character tainted slices.  For SQL fragments with random taint ranges,
both must agree on every token's type, value, span, text and the range maps
of its text and value, and on whether ``SQLError`` is raised.
"""

from hypothesis import given, settings, strategies as st

from repro.core.exceptions import SQLError
from repro.core.policyset import PolicySet
from repro.policies import SQLSanitized, UntrustedData
from repro.sql.tokenizer import (EOF, IDENT, KEYWORD, KEYWORDS, NUMBER, OP,
                                 PARAM, PUNCT, STRING, Token, tokenize)
from repro.tracking.ranges import PolicyRange, RangeMap
from repro.tracking.tainted_str import TaintedStr

# -- the oracle: the per-character tokenizer ---------------------------------

_OPERATORS = ("<>", "!=", "<=", ">=", "=", "<", ">", "+", "-")
_PUNCTUATION = "(),.;*"


def oracle_tokenize(sql):
    if not isinstance(sql, TaintedStr):
        sql = TaintedStr(sql)
    tokens = []
    index = 0
    length = len(sql)
    text = str(sql)

    while index < length:
        char = text[index]

        if char.isspace():
            index += 1
            continue

        if text.startswith("--", index):
            newline = text.find("\n", index)
            index = length if newline < 0 else newline + 1
            continue

        if text.startswith("/*", index):
            end = text.find("*/", index + 2)
            if end < 0:
                raise SQLError("unterminated comment")
            index = end + 2
            continue

        if char == "'":
            token, index = _read_string(sql, text, index)
            tokens.append(token)
            continue

        if char.isdigit() or (
            char == "." and index + 1 < length and text[index + 1].isdigit()
        ):
            token, index = _read_number(sql, text, index)
            tokens.append(token)
            continue

        if char.isalpha() or char == "_" or char == "`":
            token, index = _read_word(sql, text, index)
            tokens.append(token)
            continue

        if char == ":":
            start = index
            index += 1
            while index < length and (text[index].isalnum() or text[index] == "_"):
                index += 1
            if index == start + 1:
                raise SQLError(
                    f"expected parameter name after ':' at position {start}")
            tokens.append(Token(PARAM, text[start + 1:index],
                                sql[start:index], start, index))
            continue

        matched_op = None
        for op in _OPERATORS:
            if text.startswith(op, index):
                matched_op = op
                break
        if matched_op:
            tokens.append(Token(OP, "!=" if matched_op == "<>" else matched_op,
                                sql[index:index + len(matched_op)],
                                index, index + len(matched_op)))
            index += len(matched_op)
            continue

        if char in _PUNCTUATION:
            tokens.append(Token(PUNCT, char, sql[index:index + 1],
                                index, index + 1))
            index += 1
            continue

        raise SQLError(f"unexpected character {char!r} at position {index}")

    tokens.append(Token(EOF, None, TaintedStr(""), length, length))
    return tokens


def _read_string(sql, text, index):
    start = index
    index += 1
    pieces = []
    while True:
        if index >= len(text):
            raise SQLError("unterminated string literal")
        char = text[index]
        if char == "'":
            if index + 1 < len(text) and text[index + 1] == "'":
                pieces.append(sql[index:index + 1])
                index += 2
                continue
            index += 1
            break
        pieces.append(sql[index:index + 1])
        index += 1
    value = TaintedStr("")
    for piece in pieces:
        value = value + piece
    return Token(STRING, value, sql[start:index], start, index), index


def _read_number(sql, text, index):
    start = index
    seen_dot = False
    while index < len(text) and (
        text[index].isdigit() or (text[index] == "." and not seen_dot)
    ):
        if text[index] == ".":
            seen_dot = True
        index += 1
    literal = text[start:index]
    value = float(literal) if seen_dot else int(literal)
    return Token(NUMBER, value, sql[start:index], start, index), index


def _read_word(sql, text, index):
    start = index
    quoted = text[index] == "`"
    if quoted:
        index += 1
        start = index
        while index < len(text) and text[index] != "`":
            index += 1
        word = text[start:index]
        end = index + 1
        return Token(IDENT, word, sql[start - 1:end], start - 1, end), end
    while index < len(text) and (text[index].isalnum() or text[index] == "_"):
        index += 1
    word = text[start:index]
    lowered = word.lower()
    if lowered in KEYWORDS:
        return Token(KEYWORD, lowered, sql[start:index], start, index), index
    return Token(IDENT, word, sql[start:index], start, index), index


# -- inputs ---------------------------------------------------------------------

#: Pieces that exercise every scanner branch: quotes and ``''`` escapes,
#: comments (closed and not), backtick identifiers, ``:params``, operators,
#: numbers, and non-ASCII text (letters, decimal and non-decimal digits,
#: other numerics, Unicode whitespace, a Kelvin sign that lower-cases to
#: ASCII ``k``).
FRAGMENTS = [
    "SELECT", "select", "FROM", "WHERE", "key", "name", "_x1", "t",
    " ", "  ", "\n", "\t", "'", "''", "'it''s'", "'abc'", "''''", "'a''",
    "--", "-- note\n", "/*", "*/", "/* c */", "/*/", "`", "`weird name`",
    ":", ":p", ":p_1", "<>", "!=", "<=", ">=", "=", "<", ">", "+", "-",
    "(", ")", ",", ".", ";", "*", "42", "3.14", ".5", "1.2.3", "7.",
    "é", "名前", "٣", "²", "½", "Ⅻ", " ", "Key", "İn", "@", "!",
    "/", "?",
]

POLICIES = [PolicySet.of(UntrustedData("a")), PolicySet.of(UntrustedData("b")),
            PolicySet.of(SQLSanitized())]


@st.composite
def tainted_sql(draw):
    text = "".join(draw(st.lists(
        st.one_of(st.sampled_from(FRAGMENTS), st.text(max_size=3)),
        max_size=24)))
    bound = len(text) + 2
    ranges = draw(st.lists(
        st.tuples(st.integers(0, bound), st.integers(0, bound),
                  st.sampled_from(POLICIES)),
        max_size=5))
    rangemap = RangeMap(len(text), [
        PolicyRange(min(a, b), max(a, b), pset) for a, b, pset in ranges])
    return TaintedStr(text, rangemap)


def _described(value):
    if isinstance(value, TaintedStr):
        return ("tainted", str(value), value.rangemap.ranges)
    return (type(value).__name__, value)


def _outcome(tokenizer, sql):
    try:
        tokens = tokenizer(sql)
    except SQLError as exc:
        return ("SQLError", str(exc))
    except ValueError:
        # The per-character loop let int()/float() reject non-decimal
        # digits such as "²"; the scanner reports them as SQLError.
        return ("SQLError", None)
    return [(t.type, _described(t.value), _described(t.text), t.start, t.end)
            for t in tokens]


def _assert_same(sql):
    expected = _outcome(oracle_tokenize, sql)
    actual = _outcome(tokenize, sql)
    if expected == ("SQLError", None):
        assert isinstance(actual, tuple) and actual[0] == "SQLError"
    else:
        assert actual == expected


class TestScannerMatchesPerCharacterTokenizer:
    @given(sql=tainted_sql())
    @settings(max_examples=400)
    def test_same_tokens_spans_taint_and_errors(self, sql):
        _assert_same(sql)

    @given(sql=tainted_sql())
    @settings(max_examples=100)
    def test_plain_str_input(self, sql):
        _assert_same(str(sql))

    def test_escapes_keep_each_runs_taint(self):
        sql = TaintedStr("'a''b'", RangeMap(6, [PolicyRange(2, 4, POLICIES[0])]))
        _assert_same(sql)
        value = tokenize(sql)[0].value
        assert str(value) == "a'b"
        assert value.rangemap.ranges == (PolicyRange(1, 2, POLICIES[0]),)
