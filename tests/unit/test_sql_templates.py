"""Shape-keyed statement templates and the scans that replaced tokenizing.

``parse`` keys a template on the statement's text with its literals cut
out; a hit cooks only the live query's literals.  These tests pin the
cache counters, the literals that must recur verbatim, the absence of
policy leaks between queries sharing a shape, concurrent use, and the
places that scan plain text instead of building tainted tokens: every
query is scanned once by ``tokenize``, and tokens are built only on a
template miss.
"""

import sys
import threading

import pytest

import repro.channels.sqlchan as sqlchan
import repro.sql.parser as parser_module
import repro.sql.tokenizer as tokenizer_module
from repro.channels.sqlchan import Database
from repro.core.exceptions import InjectionViolation, SQLError
from repro.core.policyset import PolicySet
from repro.policies import UntrustedData
from repro.security.assertions import SQLGuardFilter, mark_untrusted
from repro.sql.engine import Engine
from repro.sql.parser import (Parser, clear_parse_cache, parse,
                              parse_cache_info)
from repro.sql.planner import collect_params
from repro.tracking.propagation import concat
from repro.tracking.ranges import PolicyRange
from repro.tracking.tainted_str import TaintedStr

U = UntrustedData("form")


@pytest.fixture
def cold_cache():
    clear_parse_cache()
    yield
    clear_parse_cache()


class _Calls:
    def __init__(self):
        self.scans = []   # ``tokenize`` calls, wherever it is bound
        self.builds = []  # token lists built from a scan

    def clear(self):
        self.scans.clear()
        self.builds.clear()


@pytest.fixture
def tokenizer_calls(monkeypatch):
    calls = _Calls()
    tokenize, build = tokenizer_module.tokenize, tokenizer_module._build_tokens

    def counting_tokenize(sql):
        calls.scans.append(str(sql))
        return tokenize(sql)

    def counting_build(sql, text, spans):
        calls.builds.append(text)
        return build(sql, text, spans)

    for module in (tokenizer_module, parser_module, sqlchan):
        monkeypatch.setattr(module, "tokenize", counting_tokenize)
    monkeypatch.setattr(tokenizer_module, "_build_tokens", counting_build)
    return calls


def _same(a, b):
    return type(a) is type(b) and str(a.to_sql()) == str(b.to_sql())


class TestTemplateCache:
    def test_same_shape_hits_and_new_shape_misses(self, cold_cache):
        parse("SELECT a FROM t WHERE id = 1")
        parse("SELECT a FROM t WHERE id = 2")
        parse("SELECT a FROM t WHERE id = 'x'")
        parse("SELECT b FROM t WHERE id = 1")
        info = parse_cache_info()
        assert (info["hits"], info["misses"], info["size"]) == (1, 3, 3)
        assert info["maxsize"] == parser_module._TEMPLATE_CACHE_LIMIT

    def test_hit_scans_once_and_builds_no_token(self, cold_cache,
                                                tokenizer_calls):
        parse("SELECT a FROM t WHERE id = 1 AND name = 'x'")
        assert (len(tokenizer_calls.scans), len(tokenizer_calls.builds)) == (1, 1)
        statement = parse("SELECT a FROM t WHERE id = 7 AND name = 'it''s'")
        assert (len(tokenizer_calls.scans), len(tokenizer_calls.builds)) == (2, 1)
        assert str(statement.where.right.right.value) == "it's"
        assert statement.where.left.right.value == 7

    def test_cache_is_emptied_when_full(self, cold_cache, monkeypatch):
        monkeypatch.setattr(parser_module, "_TEMPLATE_CACHE_LIMIT", 2)
        for column in ("a", "b", "c"):
            parse(f"SELECT {column} FROM t")
        assert parse_cache_info()["size"] == 1

    @pytest.mark.parametrize("first, second", [
        ("SELECT a FROM t WHERE x = 1 LIMIT 5", "SELECT a FROM t WHERE x = 2 LIMIT 6"),
        ("SELECT a FROM t LIMIT 1 OFFSET 2", "SELECT a FROM t LIMIT 1 OFFSET 3"),
        ("SELECT -1 FROM t", "SELECT -2 FROM t"),
        ("SELECT a FROM t WHERE x = -(1)", "SELECT a FROM t WHERE x = -(2)"),
        ("CREATE TABLE t (a VARCHAR(20))", "CREATE TABLE t (a VARCHAR(30))"),
        ("CREATE TABLE t (a INT DEFAULT 1)", "CREATE TABLE t (a INT DEFAULT 2)"),
        ("CREATE TABLE t (a INT DEFAULT (1))", "CREATE TABLE t (a INT DEFAULT (2))"),
    ])
    def test_literals_consumed_as_values_must_recur(self, cold_cache,
                                                    first, second):
        parse(first)
        statement = parse(second)
        assert _same(statement, Parser(second).parse())
        assert parse_cache_info()["hits"] == 0
        parse(second)
        assert parse_cache_info()["hits"] == 1

    def test_same_consumed_literal_still_hits(self, cold_cache):
        parse("SELECT a FROM t WHERE x = 1 LIMIT 5")
        statement = parse("SELECT a FROM t WHERE x = 9 LIMIT 5")
        assert parse_cache_info()["hits"] == 1
        assert (statement.limit, statement.where.right.value) == (5, 9)

    def test_slots_never_collide_with_application_parameters(self, cold_cache):
        sql = "SELECT a FROM t WHERE x = :p AND y = 1 AND z IN ('a', :q)"
        parse(sql)
        statement = parse(sql.replace("1", "2"))
        assert collect_params(statement) == {"p", "q"}
        assert _same(statement, Parser(sql.replace("1", "2")).parse())


class TestConcurrentParsing:
    SHAPES = ("SELECT a FROM t WHERE id = {n} AND name = '{s}'",
              "UPDATE t SET name = '{s}' WHERE id = {n}",
              "DELETE FROM t WHERE name = '{s}' OR id = {n}")

    def test_threads_sharing_shapes_keep_their_own_literals(
            self, cold_cache, monkeypatch):
        # A limit below the shape count makes threads empty the cache
        # under each other as well.
        monkeypatch.setattr(parser_module, "_TEMPLATE_CACHE_LIMIT", 2)
        workers, rounds, failures = 8, 60, []

        def work(worker):
            policy = UntrustedData(f"w{worker}")
            for n in range(rounds):
                shape = self.SHAPES[(worker + n) % len(self.SHAPES)]
                head, tail = shape.split("{s}")
                sql = concat(head.format(n=worker * 1000 + n),
                             mark_untrusted(f"v{worker}-{n}", f"w{worker}"),
                             tail.format(n=worker * 1000 + n))
                statement = parse(sql)
                if not _same(statement, Parser(sql).parse()):
                    failures.append(str(sql))
                text = str(statement.to_sql())
                if f"v{worker}-{n}" not in text or \
                        set(statement.to_sql().policies()) != {policy}:
                    failures.append(text)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(w,))
                       for w in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        info = parse_cache_info()
        assert info["hits"] + info["misses"] == workers * rounds


class TestNoPolicyLeaksBetweenQueriesOfOneShape:
    def _query(self, value):
        return concat("SELECT a FROM t WHERE name = '", value, "'")

    @pytest.mark.parametrize("untrusted_first", [True, False])
    def test_each_literal_keeps_its_own_policies(self, cold_cache,
                                                 untrusted_first):
        clean = self._query("bob")
        tainted = self._query(mark_untrusted("eve", "form"))
        order = [tainted, clean] if untrusted_first else [clean, tainted]
        for sql in order * 2:
            value = parse(sql).where.right.value
            expected = Parser(sql).parse().where.right.value
            assert value.rangemap.ranges == expected.rangemap.ranges
            assert value.has_policy_type(UntrustedData) == (sql is tainted)
        assert parse_cache_info()["hits"] == 3

    def test_partially_tainted_literal_keeps_its_ranges(self, cold_cache):
        parse(self._query("plain"))
        value = concat("ab", mark_untrusted("cd", "form"), "e''f")
        literal = parse(self._query(value)).where.right.value
        assert str(literal) == "abcde'f"
        assert literal.rangemap.ranges == (PolicyRange(2, 4, PolicySet.of(U)),)


class TestPlainScansInsteadOfTokens:
    def test_colon_in_a_literal_is_not_tokenized_again(self, cold_cache,
                                                       tokenizer_calls):
        db = Database(Engine())
        db.execute_unchecked("CREATE TABLE posts (body TEXT)")
        tokenizer_calls.clear()
        db.query("INSERT INTO posts (body) VALUES ('see http://example.org')")
        # One scan in ``parse``, whose tokens the template miss reuses.
        assert (len(tokenizer_calls.scans), len(tokenizer_calls.builds)) == (1, 1)
        db.query("INSERT INTO posts (body) VALUES ('at 10:30 or :later')")
        assert (len(tokenizer_calls.scans), len(tokenizer_calls.builds)) == (2, 1)
        assert db.query("SELECT body FROM posts").rowcount == 2

    def test_parameters_are_found_by_the_scan(self):
        names = sqlchan._query_param_names(
            "SELECT a FROM t WHERE b = ':x' AND c = :y AND d = :z")
        assert names == frozenset({"y", "z"})

    def test_structure_guard_scans_without_tokenizing(self, cold_cache,
                                                      tokenizer_calls):
        db = Database(Engine())
        db.execute_unchecked("CREATE TABLE users (name TEXT)")
        db.add_filter(SQLGuardFilter("structure"))
        tokenizer_calls.clear()
        name = mark_untrusted("a:b", "form")
        db.query(concat("SELECT name FROM users WHERE name = '", name, "'"))
        db.query(concat("SELECT name FROM users WHERE name = '", name, "'"))
        # ``parse`` scans each query; the guard and the parameter lookup
        # read plain scans of their own and build nothing.
        assert (len(tokenizer_calls.scans), len(tokenizer_calls.builds)) == (2, 1)
        with pytest.raises(InjectionViolation, match="structure near 'OR'"):
            db.query(concat("SELECT name FROM users WHERE name = 'x' ",
                            mark_untrusted("OR", "form"), " 1 = 1"))

    def test_structure_guard_reports_malformed_sql_as_before(self):
        guard = SQLGuardFilter("structure")
        with pytest.raises(SQLError, match="unterminated string literal"):
            guard._check_query(TaintedStr("SELECT 'x"))
