"""The program side of the benchmark, run in a child process.

Usage (``PYTHONPATH`` must name the repository's ``src`` and ``perfbench``
directories)::

    python -m resinbench.server seed   --app hotcrp|phpbb --store DIR --seed N
    python -m resinbench.server serve  --app hotcrp|phpbb --store DIR
    python -m resinbench.server verify --store DIR --acked FILE
    python -m resinbench.server pages  --seed N --seconds S --trace 0|1

Replies are single stdout lines ``@@ <json>``; ``serve`` then takes JSON
commands on stdin (``cpu``, ``counters``, ``trace-on``, ``trace-off``,
``stop``).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

from . import calibrate, layers, oracle, population
from .tracer import Tracer

_clock = time.perf_counter

#: Times recovery inside ``Resin.open`` (traced runs only).
RECOVERY_POINT = (
    "storage",
    "recovery",
    "span",
    "repro.storage.durability:Durability.recover",
)


def emit(payload: dict) -> None:
    sys.stdout.write("@@ " + json.dumps(payload) + "\n")
    sys.stdout.flush()


def peak_rss_mb() -> float:
    """Peak resident memory of this process image.  ``ru_maxrss`` would
    carry over the parent's peak from before ``exec``; ``VmHWM`` does not."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- seeding ---------------------------------------------------------------


def seed_hotcrp(env, seed: int, checkpoint) -> None:
    from repro.apps.hotcrp import HotCRP

    pop = population.hotcrp_population(seed)
    site = HotCRP(env)
    for pc in pop.pcs:
        site.register_user(pc, f"pw-{pc}", is_pc=True)
    site.register_user(pop.chair, "pw-chair", is_pc=True, priv_chair=True)
    for author in pop.authors:
        site.register_user(author, f"pw-{author}")
    for paper in pop.papers:
        site.submit_paper(
            paper.pid, paper.title, paper.abstract, list(paper.authors), paper.anonymous
        )
    checkpoint()
    # The reviews stay in the WAL tail, so a restart replays them.
    for paper in pop.papers:
        site.add_review(paper.pid, paper.referee, paper.review, paper.released)


def seed_phpbb(env, seed: int, checkpoint) -> None:
    from repro.apps.phpbb import PhpBB

    pop = population.phpbb_population(seed)
    board = PhpBB(env)
    # A deployed board indexes its message ids.  Without the index every
    # topic view scans the whole table, so reads would slow as a run's
    # posts pile up and a run's figures would depend on how many it made.
    env.db.create_index("messages", "msg_id")
    for forum in pop.forums:
        board.create_forum(forum.fid, forum.name, forum.members)
    tail = len(pop.posts) * 2 // 3
    for index, post in enumerate(pop.posts):
        if index == tail:
            checkpoint()
        board.post_message(
            post.msg_id, post.forum.fid, post.author, post.subject, post.body
        )


def cmd_seed(args) -> None:
    from repro.runtime_api import Resin

    resin = Resin.open(args.store, sync="none", audit=True)
    seeder = seed_hotcrp if args.app == "hotcrp" else seed_phpbb
    seeder(resin.env, args.seed, resin.durability.checkpoint)
    resin.audit.close()
    resin.durability.close()
    emit({"seeded": args.store})


# -- serving ---------------------------------------------------------------


def audit_bytes(directory: str) -> dict:
    """Size of every audit-ledger segment (appended bytes are the growth
    between two readings; a purged segment keeps its last size)."""
    if not os.path.isdir(directory):
        return {}
    return {
        name: os.path.getsize(os.path.join(directory, name))
        for name in os.listdir(directory)
    }


class Served:
    """One server process: the opened store, the app and the socket."""

    def __init__(self, app_name: str, store: str, trace_recovery: bool):
        from repro.runtime_api import Resin
        from repro.server.http import HTTPServer, ServerHandle

        self.store = store
        self.recovery_ms = 0.0
        if trace_recovery:
            tracer = Tracer()
            tracer.install([RECOVERY_POINT])
            self.t0, self.cpu0 = _clock(), time.process_time()
            try:
                self.resin = tracer.root("open", Resin.open, store, audit=True)
            finally:
                tracer.remove()
            recovery = tracer.summary({}, ())["names"]["recovery"]
            self.recovery_ms = recovery["incl_s"] * 1e3
        else:
            self.t0, self.cpu0 = _clock(), time.process_time()
            self.resin = Resin.open(store, audit=True)
        if app_name == "hotcrp":
            from repro.apps.hotcrp import HotCRP

            self.app = HotCRP(self.resin.env).web
        else:
            from repro.apps.phpbb import PhpBB

            self.app = PhpBB(self.resin.env).web
        server = HTTPServer(self.app, user_header="x-resin-user", resin=self.resin)
        self.handle = ServerHandle(server).start()
        self.tracer = None

    def counters(self) -> dict:
        from repro.tracking import merge_cache_info

        recorder = self.resin.audit
        recorder.flush()
        wal = self.resin.durability.wal
        merge = merge_cache_info()
        return {
            "wal_records": wal.records,
            "wal_syncs": wal.syncs,
            "wal_bytes": wal.bytes_written,
            "checkpoints": self.resin.durability.checkpoints,
            "audit_events": recorder.events_recorded,
            "audit_dropped": recorder.dropped_events,
            "audit_segments": audit_bytes(os.path.join(self.store, "audit")),
            "merge_hits": merge["hits"],
            "merge_misses": merge["misses"],
        }

    def trace_on(self) -> dict:
        self.tracer = Tracer()
        self.tracer.install(layers.POINTS)
        self.tracer.wrap_routes(self.app)
        return {"tracing": True, "missing": self.tracer.missing}

    def trace_off(self, spans_path: str) -> dict:
        tracer, self.tracer = self.tracer, None
        tracer.remove()
        write_spans(tracer, spans_path)
        return tracer.summary(layers.LAYER_OF, layers.WAITS)

    def stop(self) -> dict:
        self.handle.close()
        self.resin.audit.close()
        self.resin.durability.close()
        return {"stopped": True, "peak_rss_mb": peak_rss_mb()}


def write_spans(tracer: Tracer, path: str) -> None:
    """Spans are kept in memory during the pass and written out here."""
    if not path:
        return
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as out:
        for span in tracer.spans:
            if span[2] is not None:
                out.write(json.dumps(span) + "\n")


def cmd_serve(args) -> None:
    served = Served(args.app, args.store, args.trace_recovery)
    emit(
        {
            "port": served.handle.port,
            "t0": served.t0,
            "cpu0": served.cpu0,
            "recovery_ms": served.recovery_ms,
        }
    )
    for line in sys.stdin:
        command = json.loads(line)
        name = command["cmd"]
        if name == "cpu":
            emit({"cpu_s": time.process_time()})
        elif name == "counters":
            emit(served.counters())
        elif name == "trace-on":
            emit(served.trace_on())
        elif name == "trace-off":
            emit(served.trace_off(command.get("spans", "")))
        elif name == "stop":
            emit(served.stop())
            return
        else:
            emit({"error": f"unknown command {name!r}"})
    served.stop()


# -- durability check ------------------------------------------------------


def cmd_verify(args) -> None:
    """Reopen the store; every acknowledged post must be readable by a
    member, and a private one still denied to a non-member."""
    from repro.apps.phpbb import ForumMessagePolicy, PhpBB
    from repro.core.exceptions import PolicyViolation
    from repro.runtime_api import Resin

    with open(args.acked) as handle:
        acked = json.load(handle)
    resin = Resin.open(args.store, audit=False)
    board = PhpBB(resin.env)
    failures = []
    for post in acked:
        try:
            page = board.view_message(post["msg_id"], post["author"]).body()
        except Exception as exc:  # noqa: BLE001 - every failure is reported
            failures.append(f"post {post['msg_id']} unreadable: {exc}")
            continue
        if oracle.html_escaped(post["body"]) not in str(page):
            failures.append(f"post {post['msg_id']} body differs after reopen")
            continue
        if post["outsider"] is not None:
            try:
                board.printable_view(post["msg_id"], post["outsider"])
            except PolicyViolation as exc:
                if isinstance(getattr(exc, "policy", None), ForumMessagePolicy):
                    continue
            failures.append(f"post {post['msg_id']} lost its ForumMessagePolicy")
    resin.durability.close()
    emit({"checked": len(acked), "failed": len(failures), "reasons": failures[:5]})


# -- paper page (in process) ---------------------------------------------------


def build_sites(inputs: dict) -> dict:
    from repro.evaluation.hotcrp_perf import HotCRPPageWorkload

    common = dict(
        paper_id=inputs["paper_id"],
        pc_member=inputs["pc_member"],
        population=inputs["population"],
    )
    return {
        "unmodified": HotCRPPageWorkload(use_resin=False, **common),
        "resin": HotCRPPageWorkload(use_resin=True, **common),
        "resin-enforce": HotCRPPageWorkload(
            use_resin=True, policy_mode="enforce", **common
        ),
    }


def _page_pass(sites: dict, order, seconds: float, tracer=None, cal=None) -> dict:
    """Render pages round-robin over ``order`` for ``seconds``; every
    rotation's pages must be byte-identical and satisfy the verdict.  With
    ``cal``, the reference is sampled once per rotation."""
    times = {name: [] for name in order}
    cpu = {name: [] for name in order}
    attempted = failed = 0
    reasons = []
    begin = _clock()
    while _clock() < begin + seconds:
        pages = []
        for name in order:
            generate = sites[name].generate_page
            start, cpu_start = _clock(), time.thread_time()
            page = generate() if tracer is None else tracer.root("page", generate)
            times[name].append(_clock() - start)
            cpu[name].append(time.thread_time() - cpu_start)
            pages.append(page)
        attempted += 1
        if cal is not None:
            cal.take()
        reason = oracle.check(population.PAGE_VERDICT, 200, pages[0].encode("utf-8"))
        if reason is None and any(page != pages[0] for page in pages[1:]):
            reason = "sites rendered different pages"
        if reason is not None:
            failed += 1
            reasons.append(reason)
    return {
        "times": times,
        "cpu": cpu,
        "attempted": attempted,
        "failed": failed,
        "reasons": reasons[:5],
    }


def cmd_pages(args) -> None:
    from repro.tracking import merge_cache_info

    inputs = population.paper_page_inputs(args.seed)
    builds, build_cpu = [], []
    cal = calibrate.Calibration()
    for _ in range(3):
        cal.take(20)
        start, cpu_start = _clock(), time.process_time()
        sites = build_sites(inputs)
        builds.append(_clock() - start)
        build_cpu.append(time.process_time() - cpu_start)
    all_sites = ("unmodified", "resin", "resin-enforce")
    _page_pass(sites, all_sites, 1.0)  # warm caches and lazy set-up
    result = {
        "setup_s": statistics.median(build_cpu),
        "builds_s": builds,
        "builds_cpu_s": build_cpu,
    }
    if not args.trace:
        result.update(_page_pass(sites, all_sites, args.seconds, cal=cal))
        result["scale"] = cal.scale
        result["reference_ms"] = statistics.median(cal.samples) * 1e3
    else:
        half = args.seconds / 2.0
        untraced = _page_pass(sites, ("resin",), half)
        tracer = Tracer()
        tracer.install(layers.POINTS)
        before = merge_cache_info()
        traced = _page_pass(sites, ("resin",), half, tracer)
        after = merge_cache_info()
        tracer.remove()
        write_spans(tracer, args.spans)
        result.update(
            {
                "untraced": untraced,
                "traced": traced,
                "summary": tracer.summary(layers.LAYER_OF, layers.WAITS),
                "deltas": {
                    "merge_hits": after["hits"] - before["hits"],
                    "merge_misses": after["misses"] - before["misses"],
                },
            }
        )
    result["peak_rss_mb"] = peak_rss_mb()
    emit(result)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(prog="resinbench.server")
    sub = parser.add_subparsers(dest="cmd", required=True)
    seed = sub.add_parser("seed")
    seed.add_argument("--app", choices=("hotcrp", "phpbb"), required=True)
    seed.add_argument("--store", required=True)
    seed.add_argument("--seed", type=int, required=True)
    serve = sub.add_parser("serve")
    serve.add_argument("--app", choices=("hotcrp", "phpbb"), required=True)
    serve.add_argument("--store", required=True)
    serve.add_argument("--trace-recovery", action="store_true")
    verify = sub.add_parser("verify")
    verify.add_argument("--store", required=True)
    verify.add_argument("--acked", required=True)
    pages = sub.add_parser("pages")
    pages.add_argument("--seed", type=int, required=True)
    pages.add_argument("--seconds", type=float, required=True)
    pages.add_argument("--trace", type=int, default=0)
    pages.add_argument("--spans", default="")
    args = parser.parse_args(argv)
    commands = {
        "seed": cmd_seed,
        "serve": cmd_serve,
        "verify": cmd_verify,
        "pages": cmd_pages,
    }
    commands[args.cmd](args)


if __name__ == "__main__":
    main()
