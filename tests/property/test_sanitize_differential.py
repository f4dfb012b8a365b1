"""Differential test: the per-run ``sql_quote`` against the per-character
version it replaced.

The oracle below is the earlier sanitizer, kept in logic: it walks the
value one character at a time, replaces each ``'`` with ``''`` tagged with
that quote's policies, and joins the pieces.  For values with random
quotes and random taint ranges, both must produce the same text and the
same range map.
"""

from hypothesis import given, settings, strategies as st

from repro.core.policyset import PolicySet
from repro.policies import SQLSanitized, UntrustedData
from repro.tracking.propagation import spread_policies, to_tainted_str
from repro.tracking.ranges import PolicyRange, RangeMap
from repro.tracking.tainted_str import TaintedStr
from repro.web.sanitize import sql_quote

POLICIES = [PolicySet.of(UntrustedData("a")), PolicySet.of(UntrustedData("b")),
            PolicySet.of(SQLSanitized())]


def oracle_sql_quote(value):
    text = to_tainted_str(value)
    pieces = []
    for char in text:
        if str(char) == "'":
            pieces.append(spread_policies("''", char.policies()))
        else:
            pieces.append(char)
    escaped = TaintedStr("")
    for piece in pieces:
        escaped = escaped + piece
    return escaped.with_policy(SQLSanitized("sql_quote")) if escaped else escaped


@st.composite
def tainted_values(draw):
    text = draw(st.text(alphabet="ab'' é\\", max_size=16))
    bound = len(text) + 2
    ranges = draw(st.lists(
        st.tuples(st.integers(0, bound), st.integers(0, bound),
                  st.sampled_from(POLICIES)),
        max_size=5))
    return TaintedStr(text, RangeMap(len(text), [
        PolicyRange(min(a, b), max(a, b), pset) for a, b, pset in ranges]))


def _described(value):
    return (type(value).__name__, str(value), value.rangemap.ranges)


class TestPerRunSQLQuoteMatchesPerCharacter:
    @given(value=tainted_values())
    @settings(max_examples=400)
    def test_same_text_and_range_map(self, value):
        assert _described(sql_quote(value)) == _described(oracle_sql_quote(value))

    @given(value=st.one_of(st.text(alphabet="x'", max_size=8),
                           st.integers(-50, 50)))
    @settings(max_examples=100)
    def test_plain_values(self, value):
        assert _described(sql_quote(value)) == _described(oracle_sql_quote(value))

    def test_quote_keeps_its_own_policies(self):
        value = TaintedStr("a'b", RangeMap(3, [PolicyRange(1, 2, POLICIES[0])]))
        quoted = sql_quote(value)
        assert str(quoted) == "a''b"
        untrusted = [r for r in quoted.rangemap.ranges
                     if r.policies.has_type(UntrustedData)]
        assert [(r.start, r.stop) for r in untrusted] == [(1, 3)]
