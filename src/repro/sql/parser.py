"""Recursive-descent SQL parser.

Produces :mod:`repro.sql.nodes` AST from a token stream.  The supported
dialect covers what the paper's applications need: CREATE/DROP TABLE, INSERT,
SELECT (WHERE / ORDER BY / LIMIT / aggregates), UPDATE and DELETE, with the
usual comparison operators, ``AND``/``OR``/``NOT``, ``LIKE``, ``IN`` and
``IS [NOT] NULL``.

:func:`parse` caches one *template* per statement shape: the statement's
text with its string and number literals cut out.  Statements that differ
only in their literals (``... WHERE id = 1`` and ``... WHERE id = 2``) are
parsed once.  Every statement is scanned once; a hit builds no token, cooks
only its literals from the live query and binds them into the template's
slots, and a miss parses the tokens of that same scan.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

from ..core.exceptions import SQLError
from . import nodes
from .planner import bind_parameters, collect_params
from .tokenizer import (EOF, IDENT, KEYWORD, NUMBER, OP, PARAM, PUNCT, STRING,
                        Token, Tokens, literal_value, tokenize)

_TYPE_KEYWORDS = {"integer", "int", "text", "real", "float", "varchar", "char"}
_AGGREGATES = {"count", "min", "max", "sum", "avg"}
_FUNCTIONS = _AGGREGATES | {"lower", "upper", "length"}


class Parser:
    """Parses one SQL statement."""

    def __init__(self, sql, tokens: Optional[Tokens] = None):
        self.sql = sql
        if tokens is None:
            tokens = tokenize(sql)
        self.tokens: List[Token] = tokens.as_list()
        self.position = 0

    # -- token helpers ---------------------------------------------------------

    @property
    def current(self) -> Token:
        return self.tokens[self.position]

    def advance(self) -> Token:
        token = self.current
        if token.type != EOF:
            self.position += 1
        return token

    def check(self, type: str, value=None) -> bool:
        return self.current.matches(type, value)

    def accept(self, type: str, value=None) -> Optional[Token]:
        if self.check(type, value):
            return self.advance()
        return None

    def expect(self, type: str, value=None) -> Token:
        if not self.check(type, value):
            expected = value if value is not None else type
            raise SQLError(
                f"expected {expected!r}, found {self.current.value!r} in "
                f"query: {str(self.sql)[:200]}")
        return self.advance()

    def expect_ident(self) -> str:
        # Unreserved keywords may double as identifiers (e.g. a column named
        # "key"); accept either token type.
        if self.check(IDENT) or self.check(KEYWORD):
            return str(self.advance().value)
        raise SQLError(f"expected identifier, found {self.current.value!r}")

    # -- entry point -------------------------------------------------------------

    def parse(self) -> nodes.Statement:
        statement = self._statement()
        self.accept(PUNCT, ";")
        if not self.check(EOF):
            raise SQLError(
                f"unexpected trailing input near {self.current.value!r}")
        return statement

    def _statement(self) -> nodes.Statement:
        if self.accept(KEYWORD, "explain"):
            statement = self._statement()
            if isinstance(statement, nodes.Explain):
                raise SQLError("EXPLAIN cannot be nested")
            return nodes.Explain(statement)
        if self.check(KEYWORD, "create"):
            return self._create()
        if self.check(KEYWORD, "drop"):
            return self._drop()
        if self.check(KEYWORD, "insert"):
            return self._insert()
        if self.check(KEYWORD, "select"):
            return self._select()
        if self.check(KEYWORD, "update"):
            return self._update()
        if self.check(KEYWORD, "delete"):
            return self._delete()
        raise SQLError(f"unsupported statement: {str(self.sql)[:200]}")

    # -- statements ------------------------------------------------------------------

    def _create(self) -> nodes.Statement:
        self.expect(KEYWORD, "create")
        if self.accept(KEYWORD, "index"):
            return self._create_index()
        self.expect(KEYWORD, "table")
        if_not_exists = False
        if self.accept(KEYWORD, "if"):
            self.expect(KEYWORD, "not")
            self.expect(KEYWORD, "exists")
            if_not_exists = True
        table = self.expect_ident()
        self.expect(PUNCT, "(")
        columns = [self._column_def()]
        while self.accept(PUNCT, ","):
            columns.append(self._column_def())
        self.expect(PUNCT, ")")
        return nodes.CreateTable(table, columns, if_not_exists)

    def _column_def(self) -> nodes.ColumnDef:
        name = self.expect_ident()
        column_type = "TEXT"
        if self.current.type == KEYWORD and self.current.value in _TYPE_KEYWORDS:
            column_type = str(self.advance().value).upper()
            if self.accept(PUNCT, "("):
                self.expect(NUMBER)
                self.expect(PUNCT, ")")
        constraints: List[str] = []
        while True:
            if self.accept(KEYWORD, "primary"):
                self.expect(KEYWORD, "key")
                constraints.append("PRIMARY KEY")
            elif self.accept(KEYWORD, "not"):
                self.expect(KEYWORD, "null")
                constraints.append("NOT NULL")
            elif self.accept(KEYWORD, "unique"):
                constraints.append("UNIQUE")
            elif self.accept(KEYWORD, "autoincrement"):
                constraints.append("AUTOINCREMENT")
            elif self.accept(KEYWORD, "default"):
                literal = self._value(self._primary())
                constraints.append(f"DEFAULT {literal.to_sql()}")
            else:
                break
        return nodes.ColumnDef(name, column_type, constraints)

    def _create_index(self) -> nodes.CreateIndex:
        if_not_exists = False
        if self.accept(KEYWORD, "if"):
            self.expect(KEYWORD, "not")
            self.expect(KEYWORD, "exists")
            if_not_exists = True
        name = self.expect_ident()
        self.expect(KEYWORD, "on")
        table = self.expect_ident()
        self.expect(PUNCT, "(")
        column = self.expect_ident()
        self.expect(PUNCT, ")")
        kind = "sorted"
        if self.accept(KEYWORD, "using"):
            kind = self.expect_ident().lower()
        return nodes.CreateIndex(name, table, column, kind, if_not_exists)

    def _drop(self) -> nodes.Statement:
        self.expect(KEYWORD, "drop")
        if self.accept(KEYWORD, "index"):
            if_exists = False
            if self.accept(KEYWORD, "if"):
                self.expect(KEYWORD, "exists")
                if_exists = True
            return nodes.DropIndex(self.expect_ident(), if_exists)
        self.expect(KEYWORD, "table")
        if_exists = False
        if self.accept(KEYWORD, "if"):
            self.expect(KEYWORD, "exists")
            if_exists = True
        return nodes.DropTable(self.expect_ident(), if_exists)

    def _insert(self) -> nodes.Insert:
        self.expect(KEYWORD, "insert")
        self.expect(KEYWORD, "into")
        table = self.expect_ident()
        self.expect(PUNCT, "(")
        columns = [self.expect_ident()]
        while self.accept(PUNCT, ","):
            columns.append(self.expect_ident())
        self.expect(PUNCT, ")")
        self.expect(KEYWORD, "values")
        rows = [self._value_tuple(len(columns))]
        while self.accept(PUNCT, ","):
            rows.append(self._value_tuple(len(columns)))
        return nodes.Insert(table, columns, rows)

    def _value_tuple(self, expected_arity: int) -> List[nodes.Expr]:
        self.expect(PUNCT, "(")
        values = [self._expression()]
        while self.accept(PUNCT, ","):
            values.append(self._expression())
        self.expect(PUNCT, ")")
        if len(values) != expected_arity:
            raise SQLError(
                f"INSERT arity mismatch: {len(values)} values for "
                f"{expected_arity} columns")
        return values

    def _select(self) -> nodes.Select:
        self.expect(KEYWORD, "select")
        distinct = bool(self.accept(KEYWORD, "distinct"))
        items = [self._select_item()]
        while self.accept(PUNCT, ","):
            items.append(self._select_item())
        table = None
        if self.accept(KEYWORD, "from"):
            table = self.expect_ident()
        where = None
        if self.accept(KEYWORD, "where"):
            where = self._expression()
        order_by: List[nodes.OrderBy] = []
        if self.accept(KEYWORD, "order"):
            self.expect(KEYWORD, "by")
            order_by.append(self._ordering())
            while self.accept(PUNCT, ","):
                order_by.append(self._ordering())
        limit = offset = None
        if self.accept(KEYWORD, "limit"):
            limit = int(self.expect(NUMBER).value)
            if self.accept(KEYWORD, "offset"):
                offset = int(self.expect(NUMBER).value)
        return nodes.Select(items, table, where, order_by, limit, offset,
                            distinct)

    def _select_item(self) -> nodes.SelectItem:
        if self.accept(PUNCT, "*"):
            return nodes.SelectItem(nodes.Star())
        expr = self._expression()
        alias = None
        if self.accept(KEYWORD, "as"):
            alias = self.expect_ident()
        elif self.check(IDENT):
            alias = str(self.advance().value)
        return nodes.SelectItem(expr, alias)

    def _ordering(self) -> nodes.OrderBy:
        expr = self._expression()
        descending = False
        if self.accept(KEYWORD, "desc"):
            descending = True
        else:
            self.accept(KEYWORD, "asc")
        return nodes.OrderBy(expr, descending)

    def _update(self) -> nodes.Update:
        self.expect(KEYWORD, "update")
        table = self.expect_ident()
        self.expect(KEYWORD, "set")
        assignments: List[Tuple[str, nodes.Expr]] = [self._assignment()]
        while self.accept(PUNCT, ","):
            assignments.append(self._assignment())
        where = None
        if self.accept(KEYWORD, "where"):
            where = self._expression()
        return nodes.Update(table, assignments, where)

    def _assignment(self) -> Tuple[str, nodes.Expr]:
        column = self.expect_ident()
        self.expect(OP, "=")
        return column, self._expression()

    def _delete(self) -> nodes.Delete:
        self.expect(KEYWORD, "delete")
        self.expect(KEYWORD, "from")
        table = self.expect_ident()
        where = None
        if self.accept(KEYWORD, "where"):
            where = self._expression()
        return nodes.Delete(table, where)

    # -- expressions -----------------------------------------------------------------

    def _expression(self) -> nodes.Expr:
        return self._or_expr()

    def _or_expr(self) -> nodes.Expr:
        left = self._and_expr()
        while self.accept(KEYWORD, "or"):
            left = nodes.BinaryOp("or", left, self._and_expr())
        return left

    def _and_expr(self) -> nodes.Expr:
        left = self._not_expr()
        while self.accept(KEYWORD, "and"):
            left = nodes.BinaryOp("and", left, self._not_expr())
        return left

    def _not_expr(self) -> nodes.Expr:
        if self.accept(KEYWORD, "not"):
            return nodes.UnaryOp("not", self._not_expr())
        return self._comparison()

    def _comparison(self) -> nodes.Expr:
        left = self._primary()
        if self.current.type == OP:
            op = str(self.advance().value)
            return nodes.BinaryOp(op, left, self._primary())
        if self.accept(KEYWORD, "like"):
            return nodes.BinaryOp("like", left, self._primary())
        if self.check(KEYWORD, "not"):
            saved = self.position
            self.advance()
            if self.accept(KEYWORD, "like"):
                return nodes.UnaryOp(
                    "not", nodes.BinaryOp("like", left, self._primary()))
            if self.accept(KEYWORD, "in"):
                return self._in_list(left, negated=True)
            self.position = saved
            return left
        if self.accept(KEYWORD, "in"):
            return self._in_list(left, negated=False)
        if self.accept(KEYWORD, "is"):
            negated = bool(self.accept(KEYWORD, "not"))
            self.expect(KEYWORD, "null")
            return nodes.IsNull(left, negated)
        return left

    def _in_list(self, operand: nodes.Expr, negated: bool) -> nodes.Expr:
        self.expect(PUNCT, "(")
        items = [self._expression()]
        while self.accept(PUNCT, ","):
            items.append(self._expression())
        self.expect(PUNCT, ")")
        return nodes.InList(operand, items, negated)

    def _primary(self) -> nodes.Expr:
        if self.accept(PUNCT, "("):
            expr = self._expression()
            self.expect(PUNCT, ")")
            return expr
        if self.check(OP, "-") or self.check(OP, "+"):
            sign = str(self.advance().value)
            operand = self._primary()
            if sign == "+":
                return operand
            operand = self._value(operand)
            if isinstance(operand, nodes.Literal) \
                    and isinstance(operand.value, (int, float)):
                return nodes.Literal(-operand.value)
            raise SQLError("unary minus is only supported on numeric literals")
        if self.current.type in (STRING, NUMBER):
            return self._literal(self.advance())
        if self.accept(KEYWORD, "null"):
            return nodes.Literal(None)
        if self.check(PARAM):
            return nodes.Param(str(self.advance().value))
        if (self.current.type in (IDENT, KEYWORD)
                and str(self.current.value).lower() in _FUNCTIONS
                and self.tokens[self.position + 1].matches(PUNCT, "(")):
            name = str(self.advance().value)
            self.expect(PUNCT, "(")
            if self.accept(PUNCT, "*"):
                self.expect(PUNCT, ")")
                return nodes.FuncCall(name, [], star=True)
            args = [self._expression()]
            while self.accept(PUNCT, ","):
                args.append(self._expression())
            self.expect(PUNCT, ")")
            return nodes.FuncCall(name, args)
        if self.check(IDENT) or self.check(KEYWORD):
            name = self.expect_ident()
            if self.accept(PUNCT, "."):
                if self.accept(PUNCT, "*"):
                    return nodes.Star(name)
                return nodes.ColumnRef(self.expect_ident(), table=name)
            return nodes.ColumnRef(name)
        raise SQLError(
            f"unexpected token {self.current.value!r} in expression")

    # -- literals ----------------------------------------------------------------------

    def _literal(self, token: Token) -> nodes.Expr:
        """The node for a string or number literal in an expression."""
        return nodes.Literal(token.value)

    def _value(self, expr: nodes.Expr) -> nodes.Expr:
        """``expr`` about to be consumed as a value (folded or rendered)
        rather than kept in the tree."""
        return expr


class _TemplateParser(Parser):
    """Parses a statement into a template: every literal that becomes a
    :class:`~repro.sql.nodes.Literal` node becomes a ``Param`` slot instead.

    Slots are named ``#<n>`` for the statement's ``n``-th literal; the
    tokenizer cannot produce such a parameter name, so slots never collide
    with an application's ``:name``.  A literal the parser consumes as a
    value (a folded ``-1``, a column ``DEFAULT``) gives its slot back; so
    does one it never turns into a node (``LIMIT 10``, ``VARCHAR(20)``).
    """

    def __init__(self, tokens: Tokens, literals: List[Tuple[str, int, int]]):
        super().__init__(tokens.sql, tokens)
        self._ordinal = {start: n for n, (_, start, _) in enumerate(literals)}
        #: Slot name -> (literal ordinal, token).
        self.slots: Dict[str, Tuple[int, Token]] = {}

    def _literal(self, token: Token) -> nodes.Expr:
        ordinal = self._ordinal[token.start]
        name = f"#{ordinal}"
        self.slots[name] = (ordinal, token)
        return nodes.Param(name)

    def _value(self, expr: nodes.Expr) -> nodes.Expr:
        values = {name: self.slots.pop(name)[1].value
                  for name in collect_params(expr) if name in self.slots}
        return bind_parameters(expr, values)


class _Template:
    """One statement shape: the AST with a slot per literal, and the
    literals that must recur verbatim for the template to apply."""

    __slots__ = ("statement", "slots", "fixed")

    def __init__(self, statement: nodes.Statement,
                 slots: Tuple[Tuple[int, str], ...],
                 fixed: Tuple[Tuple[int, str], ...]):
        self.statement = statement
        #: ``(literal ordinal, slot name)`` per slot.
        self.slots = slots
        #: ``(literal ordinal, literal text)`` per literal consumed as a value.
        self.fixed = fixed


#: Bound on the template cache (emptied, not evicted, when full: an
#: application issues a handful of statement shapes).
_TEMPLATE_CACHE_LIMIT = 1024

#: Shape key -> template, shared by every thread.  Templates are never
#: mutated; the lock guards the counters and the fill-or-empty step.
_templates: Dict[tuple, _Template] = {}
_templates_lock = threading.Lock()
_hits = 0
_misses = 0


def parse(sql) -> nodes.Statement:
    """Parse one SQL statement into an AST.

    The statement's shape keys a cached template; on a hit only the
    literals are cooked from ``sql`` (so a string literal keeps the
    policies of this query's characters) and bound into the template's
    slots.  Keywords, identifiers and numbers carry no taint in the AST,
    so the template is the same for every taint of the same text.
    """
    global _hits, _misses
    tokens = tokenize(sql)
    text = tokens.text
    pieces: List[str] = []
    literals: List[Tuple[str, int, int]] = []
    last = 0
    for span in tokens.spans:
        kind, start, end = span
        if kind == "string" or kind == "number":
            pieces += (text[last:start], kind)
            literals.append(span)
            last = end
    pieces.append(text[last:])
    key = tuple(pieces)
    template = _templates.get(key)
    if template is not None and all(
            text[literals[n][1]:literals[n][2]] == fixed
            for n, fixed in template.fixed):
        with _templates_lock:
            _hits += 1
        sql = tokens.sql
        values = {}
        for ordinal, name in template.slots:
            kind, start, end = literals[ordinal]
            values[name] = literal_value(sql, kind, start, text[start:end])
        return bind_parameters(template.statement, values)
    parser = _TemplateParser(tokens, literals)
    statement = parser.parse()
    slots = tuple((ordinal, name) for name, (ordinal, _) in parser.slots.items())
    taken = {ordinal for ordinal, _ in slots}
    fixed = tuple((n, text[start:end])
                  for n, (_, start, end) in enumerate(literals)
                  if n not in taken)
    with _templates_lock:
        _misses += 1
        if len(_templates) >= _TEMPLATE_CACHE_LIMIT:
            _templates.clear()
        _templates[key] = _Template(statement, slots, fixed)
    return bind_parameters(statement, {
        name: token.value for name, (_, token) in parser.slots.items()})


def parse_cache_info() -> dict:
    """Hits/misses/size of the statement-template cache (for tests and
    benchmarks); a miss counts once its template is built."""
    with _templates_lock:
        return {"hits": _hits, "misses": _misses, "size": len(_templates),
                "maxsize": _TEMPLATE_CACHE_LIMIT}


def clear_parse_cache() -> None:
    """Drop every cached template (and reset the hit/miss counters)."""
    global _hits, _misses
    with _templates_lock:
        _templates.clear()
        _hits = 0
        _misses = 0
