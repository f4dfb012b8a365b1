"""Differential tests: shape-keyed statement templates against a cold
parse, and the span-based structure check against the token-based one.

``parse`` caches one template per statement shape and, on a hit, cooks only
the literals of the live query.  For statements with random literals and
random taint ranges, a warm ``parse`` must give the same AST as a cold
``Parser(sql).parse()``: the same node types and attributes, the same
``to_sql()``, and string literals with the same range maps.  Both must
also agree on whether ``SQLError`` is raised, and with which message.
"""

from hypothesis import given, settings, strategies as st

from test_tokenizer_differential import FRAGMENTS, POLICIES, tainted_sql

from repro.core.exceptions import InjectionViolation, SQLError
from repro.policies import UntrustedData
from repro.security.assertions import SQLGuardFilter
from repro.sql import nodes
from repro.sql.parser import Parser, parse
from repro.sql.tokenizer import NUMBER, STRING, scan, tokenize
from repro.tracking.ranges import PolicyRange, RangeMap
from repro.tracking.tainted_str import TaintedStr

#: The tokenizer's fragments plus the pieces whose literals the parser
#: consumes as values or nests: ``LIMIT``/``OFFSET`` counts, ``IN`` lists,
#: negative numbers and column types with a size.
SQL_FRAGMENTS = FRAGMENTS + [
    " LIMIT ", " OFFSET ", " IN ", " NOT IN ", "(1, 2)", "('a', -3)",
    "-1", "- 2", "-(4)", "-'x'", " VARCHAR(20) ", " DEFAULT ", "NULL",
]

_STRINGS = st.text(alphabet="ab' :é", max_size=6).map(
    lambda s: "'" + s.replace("'", "''") + "'")
_NUMBERS = st.one_of(
    st.integers(0, 999).map(str),
    st.sampled_from(["3.5", ".5", "7.", "0", "12"]))
_VALUES = st.one_of(
    _STRINGS, _NUMBERS, _NUMBERS.map(lambda n: "-" + n),
    _NUMBERS.map(lambda n: "-(" + n + ")"), st.just(":p"), st.just("NULL"),
    st.sampled_from(["a", "b", "t.a"]))


@st.composite
def _condition(draw):
    column = draw(st.sampled_from(["a", "b", "name"]))
    form = draw(st.integers(0, 4))
    if form == 0:
        op = draw(st.sampled_from(["=", "<>", "<", ">=", "!="]))
        return f"{column} {op} {draw(_VALUES)}"
    if form == 1:
        items = draw(st.lists(_VALUES, min_size=1, max_size=4))
        negated = draw(st.sampled_from(["", "NOT "]))
        return f"{column} {negated}IN ({', '.join(items)})"
    if form == 2:
        return f"{column} LIKE {draw(_STRINGS)}"
    if form == 3:
        return f"{column} IS NOT NULL"
    return f"NOT ({column} = {draw(_VALUES)})"


@st.composite
def _statement(draw):
    where = draw(st.lists(_condition(), min_size=1, max_size=3))
    where = draw(st.sampled_from([" AND ", " OR "])).join(where)
    kind = draw(st.integers(0, 5))
    if kind == 0:
        limit = ""
        if draw(st.booleans()):
            limit = f" LIMIT {draw(_NUMBERS)}"
            if draw(st.booleans()):
                limit += f" OFFSET {draw(_NUMBERS)}"
        items = ", ".join(draw(st.lists(_VALUES, min_size=1, max_size=3)))
        return f"SELECT {items} FROM t WHERE {where} ORDER BY a DESC{limit}"
    if kind == 1:
        return f"INSERT INTO t (a, b) VALUES ({draw(_VALUES)}, {draw(_VALUES)})"
    if kind == 2:
        return f"UPDATE t SET a = {draw(_VALUES)} WHERE {where}"
    if kind == 3:
        return f"DELETE FROM t WHERE {where}"
    if kind == 4:
        size = draw(st.integers(1, 99))
        return (f"CREATE TABLE t (a VARCHAR({size}) DEFAULT {draw(_VALUES)}, "
                f"b INT DEFAULT {draw(_VALUES)})")
    return f"EXPLAIN SELECT * FROM t WHERE {where}"


@st.composite
def _tainted(draw, text):
    bound = len(text) + 2
    ranges = draw(st.lists(
        st.tuples(st.integers(0, bound), st.integers(0, bound),
                  st.sampled_from(POLICIES)),
        max_size=5))
    return TaintedStr(text, RangeMap(len(text), [
        PolicyRange(min(a, b), max(a, b), pset) for a, b, pset in ranges]))


@st.composite
def _fragment_soup(draw):
    pieces = draw(st.lists(st.sampled_from(SQL_FRAGMENTS), max_size=12))
    return "SELECT a FROM t WHERE " + "".join(pieces)


def _described(value):
    if isinstance(value, nodes.Node):
        attributes = sorted(vars(value).items())
        return (type(value).__name__, str(value.to_sql()),
                tuple((name, _described(item)) for name, item in attributes))
    if isinstance(value, (list, tuple)):
        return tuple(_described(item) for item in value)
    if isinstance(value, TaintedStr):
        return ("tainted", str(value), value.rangemap.ranges)
    return (type(value).__name__, value)


def _outcome(parser, sql):
    try:
        return _described(parser(sql))
    except SQLError as exc:
        return ("SQLError", str(exc))


def _cold(sql):
    return Parser(sql).parse()


def _same_shape_variants(text):
    """``text`` with each literal swapped for another of its kind."""
    try:
        spans = scan(text)
    except SQLError:
        return []
    out, last = [], 0
    for kind, start, end in spans:
        if kind in ("string", "number"):
            out.append(text[last:start])
            out.append("'z''q'" if kind == "string" else "8")
            last = end
    return ["".join(out) + text[last:]]


class TestWarmParseMatchesColdParse:
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_same_shape_with_other_literals_and_taint(self, data):
        first = data.draw(_statement())
        second = data.draw(_statement())
        for text in [first, second] + _same_shape_variants(first):
            sql = data.draw(_tainted(text))
            parse(sql)  # warms the shape (or raises)
            assert _outcome(parse, sql) == _outcome(_cold, sql)
            again = data.draw(_tainted(text))
            assert _outcome(parse, again) == _outcome(_cold, again)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_fragments_with_limit_in_lists_and_negatives(self, data):
        text = data.draw(_fragment_soup())
        for variant in [text] + _same_shape_variants(text):
            for _ in range(2):
                sql = data.draw(_tainted(variant))
                assert _outcome(parse, sql) == _outcome(_cold, sql)

    @given(text=_statement())
    @settings(max_examples=100)
    def test_plain_str_input(self, text):
        parse(text)
        assert _outcome(parse, text) == _outcome(_cold, text)


def _token_structure_verdict(sql):
    """The structure check as it was: tokenize, then test each non-literal
    token's tainted text."""
    try:
        tokens = tokenize(sql)
    except SQLError as exc:
        return ("SQLError", str(exc))
    for token in tokens:
        if token.type not in (STRING, NUMBER) \
                and token.text.has_policy_type(UntrustedData):
            return ("InjectionViolation",
                    "user input reached SQL query structure near "
                    f"{str(token.text)[:40]!r}")
    return ("allowed",)


def _span_structure_verdict(sql):
    try:
        SQLGuardFilter("structure")._check_query(sql)
    except SQLError as exc:
        return ("SQLError", str(exc))
    except InjectionViolation as exc:
        return ("InjectionViolation", str(exc))
    return ("allowed",)


class TestStructureCheckMatchesTokenBasedCheck:
    @given(sql=tainted_sql())
    @settings(max_examples=400)
    def test_same_verdict_on_random_fragments(self, sql):
        assert _span_structure_verdict(sql) == _token_structure_verdict(sql)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_same_verdict_on_statements(self, data):
        sql = data.draw(_tainted(data.draw(_statement())))
        assert _span_structure_verdict(sql) == _token_structure_verdict(sql)
