"""The layers the traced pass times, and the per-layer metrics.

``POINTS`` lists where the tracer wraps the program: ``(layer, span name,
wrapper kind, target)``.  ``METRICS`` lists every per-layer metric with
its unit, its better direction, and the end-to-end metric and workload it
should move — the prediction a change to that layer is held to.
"""

from __future__ import annotations

from typing import Dict

#: The program's modules, as named in the per-module metrics.
MODULES = (
    "server.http",
    "server.async_dispatcher",
    "web",
    "web.sanitize",
    "core.filter",
    "sql",
    "channels.sqlchan",
    "core.serialization",
    "tracking",
    "storage",
    "audit",
    "core.locking",
    "apps",
)

#: One wrap point per line: layer, span name, wrapper kind, target (see
#: ``Tracer.install`` for the target forms).
_POINTS_TABLE = """
server.http              http.request           root-async    repro.server.http.connection:HTTPConnection._serve_one
server.http              http.parse             parse         repro.server.http.parser:RequestParser.feed
server.http              http.parse             parse-result  repro.server.http.parser:RequestParser.next_request
server.http              http.parse             span          repro.server.http.server:HTTPServer.build_request
server.http              http.write             async         repro.server.http.connection:HTTPConnection._write_response
server.async_dispatcher  dispatch               async         repro.server.async_dispatcher:AsyncDispatcher.dispatch
web                      web.handle             span          repro.web.app:WebApplication.handle
web                      web.route              span          repro.web.routing:Router.match
web                      web.middleware         span          repro.web.app:WebApplication._request_phase
web                      web.middleware         span          repro.web.app:WebApplication._response_phase
web.sanitize             sanitize.sql_quote     chars         repro.web.sanitize:sql_quote
web.sanitize             sanitize.html_escape   chars         repro.web.sanitize:html_escape
core.filter              filter.sql_chain       span          repro.core.filter:FilterChain.filter_func
core.filter              filter.sql_chain       span          repro.core.filter:DefaultFilter.filter_func
core.filter              filter.export          span          subclasses:repro.core.filter:Filter.filter_write
core.filter              filter.check           span          subclasses:repro.core.policy:Policy.export_check
sql                      sql.tokenize           span          repro.sql.tokenizer:tokenize
sql                      sql.parse              span          repro.sql.parser:parse
sql                      sql.plan               span          repro.sql.planner:Planner.plan
sql                      sql.plan               span          repro.sql.planner:Planner.plan_select
sql                      sql.execute            span          repro.sql.executor:Executor.execute
sql                      sql.engine             span          repro.sql.engine:Engine.run
channels.sqlchan         sqlchan.query          span          repro.channels.sqlchan:Database.query
channels.sqlchan         sqlchan.execute        span          repro.channels.sqlchan:Database._execute
channels.sqlchan         sqlchan.cell_attach    span          repro.channels.sqlchan:apply_cell_policies
channels.sqlchan         sqlchan.cell_serialize span          repro.channels.sqlchan:serialize_cell_policies
core.serialization       serialization.decode   span          repro.core.serialization:deserialize_policy
core.serialization       serialization.decode   span          repro.core.serialization:deserialize_policyset
core.serialization       serialization.decode   span          repro.core.serialization:deserialize_rangemap
core.serialization       serialization.decode   span          repro.core.serialization:loads_policyset
core.serialization       serialization.decode   span          repro.core.serialization:loads_rangemap
core.serialization       serialization.encode   span          repro.core.serialization:serialize_policy
core.serialization       serialization.encode   span          repro.core.serialization:serialize_policyset
core.serialization       serialization.encode   span          repro.core.serialization:serialize_rangemap
tracking                 taint.getitem          count         repro.tracking.tainted_str:TaintedStr.__getitem__
tracking                 taint.rangemap_new     count         repro.tracking.ranges:RangeMap.__init__
tracking                 taint.rangemap_new     count         repro.tracking.ranges:RangeMap._deferred
tracking                 taint.rangemap_new     count         repro.tracking.ranges:RangeMap._trusted
tracking                 taint.merge            span          repro.tracking.merge:merge_policysets
tracking                 taint.flatten          span          repro.tracking.ranges:RangeMap._materialize
tracking                 taint.concat           span          repro.tracking.propagation:concat
storage                  wal.append             span          repro.storage.wal:WriteAheadLog.append
storage                  wal.commit             span          repro.storage.wal:WriteAheadLog.commit
storage                  durability.checkpoint  span          repro.storage.durability:Durability._checkpoint_exclusive
audit                    audit.record           span          repro.audit.recorder:AuditRecorder.record
core.locking             locking.table_wait     enter         repro.core.locking:OrderedLockRegistry.locked
core.locking             locking.gate_wait      enter         repro.core.locking:SharedExclusiveGate.shared
core.locking             locking.gate_wait      enter         repro.core.locking:SharedExclusiveGate.exclusive
apps                     apps.method            span          methods:repro.apps.hotcrp:HotCRP
apps                     apps.method            span          methods:repro.apps.phpbb:PhpBB
"""

#: ``(layer, span name, wrapper kind, target)`` tuples.
POINTS = tuple(tuple(line.split()) for line in _POINTS_TABLE.strip().splitlines())

#: Span name -> layer (route handlers are wrapped per application).
LAYER_OF: Dict[str, str] = {name: layer for layer, name, _, _ in POINTS}
LAYER_OF["apps.handler"] = "apps"

#: ``(metric, outer span, inner span)``: time from the outer span's start
#: to its inner child's start.
WAITS = (("dispatch.wait", "dispatch", "web.handle"),)

#: One per-layer metric per line: name, unit, better direction, then the
#: prediction — which end-to-end metric on which workload a change to the
#: layer should move.
_METRICS_TABLE = """
http.parse.us_per_req               us     lower   req_per_s, read_p50_ms on hotcrp-read; absent on paper-page
http.write.us_per_req               us     lower   read_p50_ms on both socket workloads
dispatch.wait.us_per_req            us     lower   read_p90_ms on both socket workloads
web.route.us_per_req                us     lower   read_p50_ms on hotcrp-read
web.middleware.us_per_req           us     lower   read_p50_ms on hotcrp-read (HotCRP's middleware issues 2 SQL queries)
web.handle.self_us_per_req          us     lower   read_p50_ms on hotcrp-read
sanitize.sql_quote.us_per_req       us     lower   write_p50_ms, req_per_s on phpbb-mix; little on paper-page
sanitize.html_escape.us_per_req     us     lower   read_p50_ms, req_per_s on phpbb-mix
sanitize.chars_per_req              count  lower   write_p50_ms on phpbb-mix
filter.sql_chain.us_per_query       us     lower   read_p50_ms on hotcrp-read and paper-page
filter.export.us_per_req            us     lower   read_p50_ms on hotcrp-read and paper-page
filter.export.checks_per_req        count  lower   read_p50_ms on hotcrp-read and paper-page
filter.denials_per_req              count  lower   none: denials are by design and must not change
sql.tokenize.us_per_query           us     lower   read_p50_ms on paper-page and hotcrp-read, write_p50_ms on phpbb-mix
sql.tokenize.calls_per_query        count  lower   read_p50_ms on paper-page (ideal 1.0)
sql.parse.us_per_query              us     lower   read_p50_ms on paper-page and hotcrp-read
sql.plan.us_per_query               us     lower   read_p50_ms on paper-page and hotcrp-read
sql.execute.us_per_query            us     lower   read_p50_ms on paper-page and hotcrp-read; /rss on phpbb-mix
sql.queries_per_req                 count  lower   read_p50_ms on every workload
sqlchan.query.self_us_per_query     us     lower   read_p50_ms and enforce_p50_ms on paper-page
sqlchan.cell_attach.us_per_req      us     lower   read_p50_ms and enforce_p50_ms on paper-page
sqlchan.cell_attach.calls_per_req   count  lower   enforce_p50_ms on paper-page
sqlchan.cell_serialize.us_per_write us     lower   write_p50_ms on phpbb-mix
serialization.decode.us_per_req     us     lower   read_p50_ms on hotcrp-read
taint.getitem.calls_per_req         count  lower   write_p50_ms on phpbb-mix (the per-character slicing signature)
taint.rangemap_new.calls_per_req    count  lower   read_p50_ms on paper-page
taint.merge.calls_per_req           count  lower   read_p50_ms on paper-page
taint.merge.hit_ratio               ratio  higher  read_p50_ms on paper-page (upper bound); less on hotcrp-read
wal.commit.us_per_write             us     lower   write_p50_ms and write_tail_ms on phpbb-mix
wal.records_per_sync                count  higher  write_p50_ms on phpbb-mix
wal.bytes_per_write                 bytes  lower   log_bytes_per_req on phpbb-mix
durability.checkpoints              count  lower   write_tail_ms on phpbb-mix; zero on hotcrp-read
durability.checkpoint.ms            ms     lower   write_tail_ms on phpbb-mix
recovery.ms                         ms     lower   setup_s on both socket workloads
audit.record.us_per_req             us     lower   read_p50_ms on hotcrp-read
audit.events_per_req                count  lower   log_bytes_per_req on hotcrp-read
audit.dropped_share                 ratio  lower   none: forensic completeness, must stay 0
audit.bytes_per_req                 bytes  lower   log_bytes_per_req on hotcrp-read
locking.table_wait.us_per_req       us     lower   read_p90_ms and write_tail_ms on phpbb-mix
locking.gate_wait.us_per_write      us     lower   write_tail_ms on phpbb-mix
apps.handler.self_us_per_req        us     lower   read_p50_ms on every workload
untraced.share                      ratio  lower   coverage: request time inside no traced layer
trace.overhead_x                    x      lower   none: untraced over traced req_per_s
"""

#: name -> (unit, better, prediction).
METRICS: Dict[str, tuple] = {}
for _line in _METRICS_TABLE.strip().splitlines():
    _name, _unit, _better, _moves = _line.split(None, 3)
    METRICS[_name] = (_unit, _better, _moves)
for _module in MODULES:
    METRICS[f"{_module}.self_us_per_req"] = ("us", "lower", "the module's own time")
    METRICS[f"{_module}.calls_per_req"] = ("count", "lower", "traced calls")


def _div(num: float, den: float) -> float:
    return num / den if den else 0.0


def derive(summary: dict, deltas: dict, info: dict) -> Dict[str, float]:
    """Per-layer metrics from a traced pass.

    ``summary`` is :meth:`Tracer.summary`; ``deltas`` are the program's own
    counters over the traced pass (WAL, audit, merge cache); ``info`` holds
    ``writes`` (acknowledged writes in the traced pass), ``recovery_ms``
    and the untraced and traced ``req_per_s``.
    """
    names, counts = summary["names"], summary["counts"]
    requests, writes = summary["requests"], info.get("writes", 0)
    empty = {"calls": 0, "self_s": 0.0, "incl_s": 0.0}

    def us(key: str, field: str = "incl_s") -> float:
        return names.get(key, empty)[field] * 1e6

    def calls(key: str) -> int:
        return names.get(key, empty)["calls"]

    def delta(key: str) -> float:
        return deltas.get(key, 0)

    queries = calls("sqlchan.execute")
    hits, misses = delta("merge_hits"), delta("merge_misses")
    events, dropped = delta("audit_events"), delta("audit_dropped")
    sqlchan_self = us("sqlchan.query", "self_s") + us("sqlchan.execute", "self_s")
    checkpoint_ms = us("durability.checkpoint") / 1e3
    out = {
        "http.parse.us_per_req": _div(us("http.parse"), requests),
        "http.write.us_per_req": _div(us("http.write"), requests),
        "dispatch.wait.us_per_req": _div(
            summary["waits_s"].get("dispatch.wait", 0.0) * 1e6, requests
        ),
        "web.route.us_per_req": _div(us("web.route"), requests),
        "web.middleware.us_per_req": _div(us("web.middleware"), requests),
        "web.handle.self_us_per_req": _div(us("web.handle", "self_s"), requests),
        "sanitize.sql_quote.us_per_req": _div(us("sanitize.sql_quote"), requests),
        "sanitize.html_escape.us_per_req": _div(us("sanitize.html_escape"), requests),
        "sanitize.chars_per_req": _div(summary["chars"], requests),
        "filter.sql_chain.us_per_query": _div(
            us("filter.sql_chain", "self_s"), queries
        ),
        "filter.export.us_per_req": _div(us("filter.export"), requests),
        "filter.export.checks_per_req": _div(calls("filter.check"), requests),
        "filter.denials_per_req": _div(counts.get("filter.check.raised", 0), requests),
        "sql.tokenize.us_per_query": _div(us("sql.tokenize"), queries),
        "sql.tokenize.calls_per_query": _div(calls("sql.tokenize"), queries),
        "sql.parse.us_per_query": _div(us("sql.parse", "self_s"), queries),
        "sql.plan.us_per_query": _div(us("sql.plan"), queries),
        "sql.execute.us_per_query": _div(us("sql.execute"), queries),
        "sql.queries_per_req": _div(queries, requests),
        "sqlchan.query.self_us_per_query": _div(sqlchan_self, queries),
        "sqlchan.cell_attach.us_per_req": _div(us("sqlchan.cell_attach"), requests),
        "sqlchan.cell_attach.calls_per_req": _div(
            calls("sqlchan.cell_attach"), requests
        ),
        "sqlchan.cell_serialize.us_per_write": _div(
            us("sqlchan.cell_serialize"), writes
        ),
        "serialization.decode.us_per_req": _div(us("serialization.decode"), requests),
        "taint.getitem.calls_per_req": _div(counts.get("taint.getitem", 0), requests),
        "taint.rangemap_new.calls_per_req": _div(
            counts.get("taint.rangemap_new", 0), requests
        ),
        "taint.merge.calls_per_req": _div(calls("taint.merge"), requests),
        "taint.merge.hit_ratio": _div(hits, hits + misses),
        "wal.commit.us_per_write": _div(us("wal.commit"), writes),
        "wal.records_per_sync": _div(delta("wal_records"), delta("wal_syncs")),
        "wal.bytes_per_write": _div(delta("wal_bytes"), writes),
        "durability.checkpoints": float(delta("checkpoints")),
        "durability.checkpoint.ms": _div(checkpoint_ms, calls("durability.checkpoint")),
        "recovery.ms": float(info.get("recovery_ms", 0.0)),
        "audit.record.us_per_req": _div(us("audit.record"), requests),
        "audit.events_per_req": _div(events, requests),
        "audit.dropped_share": _div(dropped, events + dropped),
        "audit.bytes_per_req": _div(delta("audit_bytes"), requests),
        "locking.table_wait.us_per_req": _div(us("locking.table_wait"), requests),
        "locking.gate_wait.us_per_write": _div(us("locking.gate_wait"), writes),
        "apps.handler.self_us_per_req": _div(us("apps.handler", "self_s"), requests),
        "untraced.share": _div(summary["untraced_s"], summary["request_s"]),
        "trace.overhead_x": _div(info["untraced_rps"], info["traced_rps"]),
    }
    for module in MODULES:
        layer = summary["layers"].get(module, {"calls": 0, "self_s": 0.0})
        out[f"{module}.self_us_per_req"] = _div(layer["self_s"] * 1e6, requests)
        out[f"{module}.calls_per_req"] = _div(layer["calls"], requests)
    return out


def doc_table() -> Dict[str, dict]:
    """The per-layer metric table, for the run's metadata file."""
    return {
        metric: {"unit": unit, "better": better, "should_move": moves}
        for metric, (unit, better, moves) in METRICS.items()
    }
