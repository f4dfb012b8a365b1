"""SQL channel: policy persistence across the database.

The paper attaches a default filter object to the function that issues SQL
queries, and uses it to rewrite queries and results (Figure 4):

* ``CREATE TABLE`` gains one extra ``__policy_<col>`` column per data column;
* writes (``INSERT`` / ``UPDATE``) store the serialized policies of each cell
  value into the corresponding policy column;
* reads (``SELECT``) also fetch the policy columns and re-attach the
  de-serialized policies to each cell of the result.

``Database`` below is the application-facing handle.  Queries are issued as
(possibly tainted) SQL text; the query text itself flows through the
channel's filter chain as a guarded function call, which is where an
application-supplied SQL-injection filter interposes (Section 5.3).
"""

from __future__ import annotations
import contextlib
import json
import warnings
from typing import Any, Callable, Dict, FrozenSet, List, Optional
from ..core.context import FilterContext
from ..core.exceptions import SQLError
from ..core.filter import Filter, FilterChain
from ..core.registry import resolve_registry
from ..core.request_context import current_request
from ..core.serialization import (deserialize_policy, deserialize_policyset,
                                  deserialize_rangemap, serialize_policyset,
                                  serialize_rangemap)
from ..sql import nodes
from ..sql.engine import Engine, Result, Row
from ..sql.parser import parse
from ..sql.planner import bind_parameters, collect_params
# ``tokenize`` is no longer called here, but tracing tools reference it by
# this module's name.
from ..sql.tokenizer import scan, tokenize  # noqa: F401
from ..tracking.propagation import policies_of
from ..tracking.tainted_number import TaintedFloat, TaintedInt
from ..tracking.tainted_str import TaintedStr

#: Prefix of the hidden policy columns.
POLICY_COLUMN_PREFIX = "__policy_"

#: Valid policy enforcement modes: ``observe`` re-attaches policies to every
#: result cell and pays the export check per value (the paper's behaviour);
#: ``enforce`` additionally asks each policy for a plan-level verdict once
#: per distinct stored policy blob and skips attachment when the requesting
#: principal clears every policy — falling back to per-value checks whenever
#: a policy cannot decide ahead of export.
POLICY_MODES = ("observe", "enforce")

_DEFAULT_POLICY_MODE = "observe"


def get_default_policy_mode() -> str:
    """The mode newly-constructed :class:`Database` handles start in."""
    return _DEFAULT_POLICY_MODE


@contextlib.contextmanager
def default_policy_mode(mode: str):
    """Run a block with a different default mode for new ``Database``
    handles (used by the evaluation harnesses, whose scenarios build their
    own environments internally).  A plain process-wide default, not a
    context variable: the concurrent harnesses run one mode per pass and
    restore it around the whole run."""
    if mode not in POLICY_MODES:
        raise ValueError(f"unknown policy mode {mode!r} (use {POLICY_MODES})")
    global _DEFAULT_POLICY_MODE
    previous = _DEFAULT_POLICY_MODE
    _DEFAULT_POLICY_MODE = mode
    try:
        yield
    finally:
        _DEFAULT_POLICY_MODE = previous


#: Bound on the per-database deserialized-blob cache (cleared, not evicted,
#: when full: the blob population is small and repetitive in practice).
_BLOB_CACHE_LIMIT = 1024

_CACHE_MISS = object()


def policy_column(column: str) -> str:
    return POLICY_COLUMN_PREFIX + column


def is_policy_column(column: str) -> bool:
    return column.startswith(POLICY_COLUMN_PREFIX)


def serialize_cell_policies(value: Any) -> Optional[str]:
    """Serialize the policies of one cell value to a JSON string, or ``None``
    if the value carries no policy."""
    if isinstance(value, TaintedStr):
        if value.rangemap.is_empty():
            return None
        return json.dumps({"kind": "rangemap",
                           "map": _rangemap_record(value.rangemap)})
    if isinstance(value, (TaintedInt, TaintedFloat)):
        policies = value.policies()
        if not policies:
            return None
        return json.dumps({"kind": "policyset",
                           "policies": serialize_policyset(policies)})
    policies = policies_of(value)
    if not policies:
        return None
    return json.dumps({"kind": "policyset",
                       "policies": serialize_policyset(policies)})


def apply_cell_policies(value: Any, serialized: Optional[str], *,
                        tolerant: bool = False) -> Any:
    """Re-attach the policies stored in ``serialized`` to ``value``.

    ``tolerant=True`` (set on databases recovered by a tolerant durability
    open) loads policies whose class is unknown as deny-by-default
    :class:`~repro.core.serialization.UnknownPolicy` placeholders instead of
    raising, so one stale record cannot make a whole table unreadable."""
    if not serialized or value is None:
        return value
    record = json.loads(serialized)
    if record.get("kind") == "rangemap" and isinstance(value, str):
        rangemap = deserialize_rangemap(record["map"], tolerant=tolerant)
        if rangemap.length != len(value):
            rangemap = rangemap.spread(len(value)).with_length(len(value))
        return TaintedStr(str(value), rangemap)
    policies = deserialize_policyset(record.get("policies", []),
                                     tolerant=tolerant)
    if isinstance(value, str):
        result = TaintedStr(str(value))
        for policy in policies:
            result = result.with_policy(policy)
        return result
    if isinstance(value, int) and not isinstance(value, bool):
        return TaintedInt(value, policies)
    if isinstance(value, float):
        return TaintedFloat(value, policies)
    return value


def _rangemap_record(rangemap) -> dict:
    return serialize_rangemap(rangemap)


class Database:
    """A RESIN-aware database connection."""

    def __init__(self, engine: Optional[Engine] = None,
                 persist_policies: bool = True,
                 context: Optional[dict] = None, *,
                 registry=None, env=None):
        self.engine = engine if engine is not None else Engine()
        self.env = env
        ctx = FilterContext(type="sql")
        # Carried as an attribute (never printed in violation messages):
        # lets request-scoped helpers ignore requests bound for other
        # environments.
        ctx.env = env
        if context:
            ctx.update(context)
        self.registry = resolve_registry(registry, env)
        default = self.registry.make_default_filter("sql", ctx)
        self.filter = FilterChain([default], ctx)
        self.context = ctx
        self.persist_policies = persist_policies
        #: When True (set by a tolerant durability open), unknown policy
        #: classes in stored policy columns load as deny-by-default
        #: ``UnknownPolicy`` placeholders instead of failing the read.
        self.tolerant_policies = False
        #: ``observe`` or ``enforce`` — see :data:`POLICY_MODES`.
        self.policy_mode = _DEFAULT_POLICY_MODE
        # Deserialized-policy cache for enforce-mode clearance, keyed by the
        # stored blob string (deserialization is deterministic, so entries
        # never go stale).  Verdicts are NOT cached here — they depend on
        # the requesting context and are memoized per execution instead.
        self._blob_cache: Dict[str, Optional[List]] = {}

    def set_policy_mode(self, mode: str) -> None:
        """Switch this handle between ``observe`` and ``enforce``.

        Both modes produce identical export verdicts; ``enforce`` pays
        decidable policy checks once per query plan instead of once per
        result cell (see ``docs/API.md``)."""
        if mode not in POLICY_MODES:
            raise ValueError(
                f"unknown policy mode {mode!r} (use {POLICY_MODES})")
        self.policy_mode = mode

    # -- filter management ---------------------------------------------------------

    def add_filter(self, flt: Filter) -> None:
        """Stack an application filter (e.g. a SQL-injection assertion) on
        the query path.

        While a :class:`~repro.core.request_context.RequestContext` for this
        database's environment is active, the filter joins that request's
        *overlay*: it guards queries only for the duration of the request and
        pops automatically when the request ends.  Outside a request — or on
        a database the bound request's environment does not own — the filter
        joins the base chain and guards every query for the life of the
        connection (the pre-request-context behaviour — use this for
        deployment-time assertions).
        """
        rctx = self._request()
        if rctx is not None:
            rctx.add_db_filter(self, flt)
            return
        flt.context = self.context
        self.filter.append(flt)

    def _request(self):
        """The RequestContext owning this database, if one is bound.

        The environment check keeps requests from capturing (and then
        silently dropping) filters destined for some *other* environment's
        database."""
        rctx = current_request()
        if (rctx is not None and self.env is not None
                and rctx.env is self.env):
            return rctx
        return None

    def _effective_chain(self) -> FilterChain:
        """The base chain plus the current request's overlay (if any)."""
        rctx = self._request()
        overlay = rctx.db_filters(self) if rctx is not None else ()
        if not overlay:
            return self.filter
        return FilterChain(list(self.filter.filters) + list(overlay),
                           self.context)

    # -- query API -----------------------------------------------------------------------

    def query(self, sql, params: Optional[Dict[str, Any]] = None
              ) -> "PreparedQuery":
        """Prepare and (when fully bound) execute one SQL statement.

        Returns a :class:`PreparedQuery`.  A statement without unbound
        ``:name`` parameters executes immediately — the handle then behaves
        exactly like the :class:`~repro.sql.engine.Result` it wraps (rows,
        columns, ``scalar()``, iteration) — and additionally offers
        ``.explain()`` and ``.run(**params)`` for re-execution.  A statement
        with unbound parameters defers execution until ``.run()``.

        Every execution passes the *raw* query text through the channel's
        filter chain (the base filters, then the current request's overlay
        filters) as a guarded function call before parsing, so stacked
        filters see exactly what the application sent (including the
        character-level policies of any interpolated user input);
        parameters are bound after the chain, into the parsed statement.
        """
        return PreparedQuery(self, sql, params)

    def execute(self, sql) -> "PreparedQuery":
        """Deprecated alias for :meth:`query` (the pre-plan-API entry
        point).  Use ``db.query(sql)`` instead."""
        warnings.warn(
            "Database.execute() is deprecated; use Database.query(), which "
            "returns a prepared, re-runnable plan handle",
            DeprecationWarning, stacklevel=2)
        return self.query(sql)

    def execute_unchecked(self, sql) -> Result:
        """Execute a statement bypassing stacked filters (still persisting
        policies).  Intended for schema setup in tests and installers."""
        return self._execute(sql)

    def create_index(self, table: str, column: str, kind: str = "sorted",
                     name: Optional[str] = None) -> Result:
        """Declare a secondary index on ``table.column`` (schema setup —
        bypasses stacked filters, like :meth:`execute_unchecked`).  The
        definition is WAL-logged and snapshot-persisted on durable engines;
        the index itself is rebuilt from rows on recovery."""
        return self.engine.create_index(table, column, kind, name)

    def transaction(self, *tables: str):
        """Hold the locks of ``tables`` across a compound operation.

        Use this for application-level read-modify-write sequences that span
        several queries (check then update, move a row between tables, …):
        the named tables stay consistent for the whole block while queries
        against *other* tables proceed concurrently.  The locks are acquired
        in deterministic (sorted-name) order — the engine's lock-ordering
        rule — so overlapping transactions never deadlock.  Name every
        table the block touches: a query inside the block against a table
        that sorts before the held set would break the ordering, and the
        engine raises ``SQLError`` rather than risk a deadlock::

            with db.transaction("accounts", "audit_log"):
                balance = db.query("SELECT ... FROM accounts ...").scalar()
                db.query(f"UPDATE accounts SET ...")
                db.query(f"INSERT INTO audit_log ...")
        """
        return self.engine.locked(*tables)

    # -- execution with policy persistence ---------------------------------------------------

    def _execute(self, sql, params: Optional[Dict[str, Any]] = None) -> Result:
        statement = parse(sql) if isinstance(sql, str) else sql
        if params:
            statement = bind_parameters(statement, params)
        # Policy persistence is a read-modify-write sequence over the shared
        # engine (inspect schema, add policy columns, execute); hold the
        # locks of exactly the tables this statement touches across the
        # whole sequence, so concurrent requests see consistent schemas
        # while statements on independent tables run in parallel.  On a
        # durable engine the whole mutating sequence additionally runs
        # under the durability gate (taken before the table locks, the
        # required order), so the lazy ``add_column`` calls below stay
        # atomic with respect to checkpoints; the engine's nested gate
        # entries are reentrant and its nested commits defer to ours.
        mutates = not isinstance(statement, (nodes.Select, nodes.Explain))
        with self._durable_scope(mutates):
            with self.engine.locked(*self.engine.statement_tables(statement)):
                result = self._dispatch(statement)
        if mutates:
            sink = self.engine.durability
            if sink is not None:
                sink.commit()
        return result

    def _durable_scope(self, mutates: bool):
        sink = self.engine.durability
        if sink is None or not mutates:
            return contextlib.nullcontext()
        return sink.mutation()

    def _dispatch(self, statement) -> Result:
        if isinstance(statement, nodes.Explain):
            # Planned over the application's statement: the policy-column
            # augmentation is an execution detail and is elided from plans.
            return Result(["plan"],
                          [[line] for line in self._explain(statement.statement)])
        if not self.persist_policies:
            return self.engine.run(statement)
        if isinstance(statement, nodes.CreateTable):
            return self._create(statement)
        if isinstance(statement, nodes.Insert):
            return self._insert(statement)
        if isinstance(statement, nodes.Update):
            return self._update(statement)
        if isinstance(statement, nodes.Select):
            return self._select(statement)
        return self.engine.run(statement)

    def _explain(self, statement) -> List[str]:
        """Stable plan text: a ``PolicyMode`` header line, then the engine
        plan (one node per line, two-space indent per level)."""
        return ([f"PolicyMode {self.policy_mode}"]
                + self.engine.explain_lines(statement))

    def _create(self, stmt: nodes.CreateTable) -> Result:
        augmented_columns: List[nodes.ColumnDef] = []
        for column in stmt.columns:
            augmented_columns.append(column)
        for column in stmt.columns:
            if not is_policy_column(column.name):
                augmented_columns.append(
                    nodes.ColumnDef(policy_column(column.name), "TEXT"))
        return self.engine.run(nodes.CreateTable(
            stmt.table, augmented_columns, stmt.if_not_exists))

    def _insert(self, stmt: nodes.Insert) -> Result:
        columns = list(stmt.columns)
        new_rows: List[List[nodes.Expr]] = []
        policy_columns = [policy_column(c) for c in stmt.columns
                          if not is_policy_column(c)]
        for row in stmt.rows:
            new_row = list(row)
            for column, expr in zip(stmt.columns, row):
                if is_policy_column(column):
                    continue
                serialized = None
                if isinstance(expr, nodes.Literal):
                    serialized = serialize_cell_policies(expr.value)
                new_row.append(nodes.Literal(serialized))
            new_rows.append(new_row)
        table = self.engine.tables.get(stmt.table)
        if table is not None:
            for name in policy_columns:
                if not table.has_column(name):
                    table.add_column(nodes.ColumnDef(name, "TEXT"))
        return self.engine.run(
            nodes.Insert(stmt.table, columns + policy_columns, new_rows))

    def _update(self, stmt: nodes.Update) -> Result:
        assignments = list(stmt.assignments)
        for column, expr in stmt.assignments:
            if is_policy_column(column):
                continue
            serialized = None
            if isinstance(expr, nodes.Literal):
                serialized = serialize_cell_policies(expr.value)
            table = self.engine.tables.get(stmt.table)
            if table is not None and not table.has_column(policy_column(column)):
                table.add_column(nodes.ColumnDef(policy_column(column), "TEXT"))
            assignments.append((policy_column(column),
                                nodes.Literal(serialized)))
        return self.engine.run(
            nodes.Update(stmt.table, assignments, stmt.where))

    def _select(self, stmt: nodes.Select) -> Result:
        if stmt.table is None or stmt.table not in self.engine.tables:
            return self.engine.run(stmt)
        table = self.engine.tables[stmt.table]
        data_columns = [c for c in table.column_names if not is_policy_column(c)]

        items: List[nodes.SelectItem] = []
        annotate: List[tuple] = []  # (output_name, policy_output_name)
        for item in stmt.items:
            if isinstance(item.expr, nodes.Star):
                for name in data_columns:
                    items.append(nodes.SelectItem(nodes.ColumnRef(name)))
                    annotate.append((name, self._add_policy_item(
                        items, table, name)))
            else:
                items.append(item)
                if (isinstance(item.expr, nodes.ColumnRef)
                        and not is_policy_column(item.expr.name)
                        and table.has_column(policy_column(item.expr.name))):
                    annotate.append((item.output_name, self._add_policy_item(
                        items, table, item.expr.name, item.output_name)))

        augmented = nodes.Select(items, stmt.table, stmt.where, stmt.order_by,
                                 stmt.limit, stmt.offset, stmt.distinct)
        raw = self.engine.run(augmented)

        requested = [item.output_name for item in stmt.items
                     if not isinstance(item.expr, nodes.Star)]
        if any(isinstance(item.expr, nodes.Star) for item in stmt.items):
            requested = data_columns + [
                item.output_name for item in stmt.items
                if not isinstance(item.expr, nodes.Star)]

        cleared = self._plan_clearance()
        out_rows: List[Row] = []
        for row in raw.rows:
            values = {}
            for column in requested:
                values[column] = row[column] if column in row else None
            for data_name, policy_name in annotate:
                if policy_name and policy_name in row:
                    serialized = row[policy_name]
                    if cleared is not None and cleared(serialized):
                        # Enforce mode: every policy in this blob allowed the
                        # requesting principal at plan level — the value
                        # flows out plain, skipping per-cell attachment.
                        continue
                    values[data_name] = apply_cell_policies(
                        values.get(data_name), serialized,
                        tolerant=self.tolerant_policies)
            out_rows.append(Row(requested, [values[c] for c in requested]))
        return Result(requested, out_rows)

    # -- enforce-mode plan-level clearance -----------------------------------------------

    def _plan_clearance(self) -> Optional[Callable[[Optional[str]], bool]]:
        """In enforce mode, a per-execution predicate deciding — once per
        distinct stored policy blob — whether the requesting principal
        clears *every* policy in the blob via
        :meth:`~repro.core.policy.Policy.scan_predicate`.

        Returns ``None`` (observe behaviour) when the mode is ``observe``
        or when no request context is bound to this database's environment
        — without a requesting principal there is nothing to clear against.
        Any blob that fails to deserialize, or contains a policy answering
        ``False``/``None``, falls back to per-cell attachment, so verdicts
        are identical to observe mode by construction."""
        if self.policy_mode != "enforce":
            return None
        context = self._enforcement_context()
        if context is None:
            return None
        memo: Dict[str, bool] = {}

        def cleared(serialized: Optional[str]) -> bool:
            if not serialized:
                return False
            verdict = memo.get(serialized)
            if verdict is None:
                memo[serialized] = verdict = self._blob_cleared(
                    serialized, context)
            return verdict

        return cleared

    def _enforcement_context(self) -> Optional[FilterContext]:
        """The export context the current request would present at its HTTP
        boundary.  Clearance is scoped to the requesting principal: a value
        cleared here and then re-exported through a *different* channel in
        the same request is over-approximated as allowed (documented
        enforce-mode caveat; use observe mode for such flows)."""
        rctx = self._request()
        if rctx is None:
            return None
        http = getattr(rctx, "http", None)
        if http is not None and getattr(http, "context", None) is not None:
            return http.context
        context = FilterContext(type="http", user=rctx.user)
        if rctx.priv_chair:
            context["priv_chair"] = True
        for key, value in rctx.extra.items():
            context.setdefault(key, value)
        context.env = self.env
        return context

    def _blob_cleared(self, serialized: str, context: FilterContext) -> bool:
        policies = self._blob_cache.get(serialized, _CACHE_MISS)
        if policies is _CACHE_MISS:
            try:
                policies = self._blob_policies(json.loads(serialized))
            except Exception:
                policies = None
            if len(self._blob_cache) >= _BLOB_CACHE_LIMIT:
                self._blob_cache.clear()
            self._blob_cache[serialized] = policies
        if policies is None:
            self._record_scan(False, None, context)
            return False
        for policy in policies:
            if policy.scan_predicate(context) is not True:
                self._record_scan(False, policies, context)
                return False
        self._record_scan(True, policies, context)
        return True

    def _record_scan(self, cleared: bool, policies, context) -> None:
        """Audit one enforce-mode scan decision (per distinct blob — the
        per-execution memo in ``_plan_clearance`` already dedupes).  A
        not-cleared blob is not a violation: the plan falls back to the
        observe path for it, so the verdict is what the recorder reports."""
        from ..audit.recorder import recorder_for
        recorder = recorder_for(self.env)
        if recorder is not None:
            recorder.record("sql.scan",
                            verdict="allow" if cleared else "deny",
                            context=context, policies=policies,
                            channel="sql")

    def _blob_policies(self, record) -> Optional[List]:
        tolerant = self.tolerant_policies
        kind = record.get("kind")
        if kind == "rangemap":
            segments = record.get("map", {}).get("segments", [])
            return [deserialize_policy(item, tolerant=tolerant)
                    for _start, _stop, items in segments for item in items]
        if kind == "policyset":
            return list(deserialize_policyset(record.get("policies", []),
                                              tolerant=tolerant))
        return None

    def _add_policy_item(self, items: List[nodes.SelectItem], table,
                         column: str, alias_base: Optional[str] = None):
        name = policy_column(column)
        if not table.has_column(name):
            return None
        alias = policy_column(alias_base) if alias_base else name
        items.append(nodes.SelectItem(nodes.ColumnRef(name), alias))
        return alias


def _query_param_names(sql) -> FrozenSet[str]:
    """The ``:name`` parameters a query mentions.

    Cheap on the hot path: SQL text without a ``:`` has no parameters and
    is not scanned; text with one is scanned once as plain text (a ``:``
    inside a literal, such as a URL in a post body, builds no tokens).
    Text that fails to scan is reported as parameterless — the filter
    chain may rewrite it into valid SQL (the auto-sanitizing filter does),
    so errors are left to the execution path, which sees exactly what the
    chain produced."""
    if isinstance(sql, str):
        text = str(sql)
        if ":" not in text:
            return frozenset()
        try:
            return frozenset(text[start + 1:end]
                             for kind, start, end in scan(text)
                             if kind == "param")
        except SQLError:
            return frozenset()
    return frozenset(collect_params(sql))


class PreparedQuery:
    """The handle :meth:`Database.query` returns.

    Wraps one SQL statement plus its (possibly partial) parameter bindings.
    When every ``:name`` parameter is bound the statement executes eagerly
    at construction, so ``db.query(sql)`` keeps its pre-plan-API behaviour —
    the handle delegates the whole :class:`~repro.sql.engine.Result` API to
    the most recent execution.  On top of that it offers:

    * ``run(**params)`` — (re-)execute with additional bindings; each
      execution re-enters the channel's filter chain with the *original*
      query text, so injection filters and request overlays apply every
      time;
    * ``explain()`` — the plan as stable text (``PolicyMode`` header, then
      one node per line, two-space indent per level) without executing;
      unbound parameters appear as ``:name`` in plan predicates.
    """

    def __init__(self, db: Database, sql,
                 params: Optional[Dict[str, Any]] = None):
        self._db = db
        self._sql = sql
        self._params: Dict[str, Any] = dict(params) if params else {}
        self._names = _query_param_names(sql)
        self._result: Optional[Result] = None
        if not (self._names - set(self._params)):
            self._result = self._invoke(self._params)

    def _invoke(self, params: Dict[str, Any]) -> Result:
        kwargs = {"params": params} if params else {}
        return self._db._effective_chain().filter_func(
            self._db._execute, (self._sql,), kwargs)

    def run(self, **params: Any) -> "PreparedQuery":
        """(Re-)execute with ``params`` overlaid on the constructor's
        bindings; returns ``self`` for chaining."""
        merged = {**self._params, **params}
        missing = self._names - set(merged)
        if missing:
            raise SQLError("unbound parameter :"
                           + ", :".join(sorted(missing)))
        self._params = merged
        self._result = self._invoke(merged)
        return self

    def explain(self) -> str:
        """The statement's plan as stable text, without executing it."""
        statement = (parse(self._sql) if isinstance(self._sql, str)
                     else self._sql)
        if isinstance(statement, nodes.Explain):
            statement = statement.statement
        if self._params:
            statement = bind_parameters(statement, self._params)
        return "\n".join(self._db._explain(statement))

    # -- Result delegation ---------------------------------------------------------

    @property
    def result(self) -> Result:
        """The most recent execution's :class:`~repro.sql.engine.Result`."""
        if self._result is None:
            missing = sorted(self._names - set(self._params))
            raise SQLError(
                "prepared query has unbound parameters (:"
                + ", :".join(missing) + "); call .run(name=value, ...)")
        return self._result

    @property
    def columns(self):
        return self.result.columns

    @property
    def rows(self):
        return self.result.rows

    @property
    def rowcount(self):
        return self.result.rowcount

    def scalar(self):
        return self.result.scalar()

    def __iter__(self):
        return iter(self.result)

    def __len__(self):
        return len(self.result)

    def __bool__(self):
        return bool(self.result)

    def __repr__(self) -> str:
        state = ("unbound" if self._result is None
                 else f"{self.result.rowcount} rows")
        return f"PreparedQuery({str(self._sql)[:60]!r}, {state})"
