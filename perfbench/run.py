"""The RESIN serving benchmark.

Run from the repository root::

    python3 perfbench/run.py --workload hotcrp-read --seed 1 --seconds 10 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``hotcrp-read`` — HotCRP paper and review pages over real sockets, on a
  durable store (``fsync`` WAL) with the audit ledger on;
* ``phpbb-mix`` — phpBB topic reads, RSS and form-encoded posts over
  sockets; every acknowledged post is checked after reopening the store;
* ``paper-page`` — the paper's Section 7.1 page, in process, on the
  unmodified, observe-mode and enforce-mode sites.  It reports the paper's
  ``overhead_x`` but is not listed in ``BENCHMARK.json``.  Its speed
  reference runs in the measured process, so its ``peak_rss_mb`` includes
  the reference's table (about 20 MB).

The socket workloads run the server in a child process and drive it from
this process with closed-loop keep-alive connections, one thread each.
``--trace 0`` measures the end-to-end metrics on unpatched code with one
connection, so that each request can be charged the server's CPU time;
``--trace 1`` runs an untraced and a traced half on two connections and
reports per-layer metrics.  Human-readable lines come first; the last
stdout line is one JSON object.  A run's full metadata is written under
``.perfbench/``.

The gated times are the server's CPU time, normalized to the speed of a
reference workload sampled through the same run.  On a shared host the
hypervisor takes a varying share of the machine (``host_steal_share``, 0
to a third), which moves every wall-clock figure by as much, and the
CPU time of fixed work itself drifts by up to 2x over minutes
(``reference_ms``).  The wall-clock figures (``req_per_s``,
``read_p50_ms`` ...) and the raw CPU time are printed and kept in the
metadata.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")

from resinbench import calibrate, client, layers, population, stats  # noqa: E402

#: Every workload the command runs; ``BENCHMARK.json`` gates the first two.
WORKLOADS = ("hotcrp-read", "phpbb-mix", "paper-page")

#: End-to-end metrics reported on every workload (``--trace 0``): server
#: CPU seconds from opening the store to the first correct response
#: (median of the restarts), server CPU per correct response over the
#: whole run, the mean and p90 of the server CPU of every correct read,
#: and the server's peak resident memory.  CPU times are normalized to
#: the reference speed (``resinbench/calibrate.py``).  The read median is
#: printed but not gated: phpBB read costs spread evenly over a tenfold
#: range, so with some 700 reads a run the median moves by about a tenth
#: from run to run by sampling alone, and the mean by a thirtieth.
END_TO_END = {
    "setup_s": "s",
    "cpu_ms_per_req": "ms",
    "read_cpu_mean_ms": "ms",
    "read_cpu_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Other end-to-end figures (wall clock unless named otherwise), printed
#: and kept in the metadata.
EXTRA_UNITS = {
    "read_cpu_p50_ms": "ms",
    "req_per_s": "1/s",
    "read_p50_ms": "ms",
    "read_p90_ms": "ms",
    "read_p99_ms": "ms",
    "write_p50_ms": "ms",
    "write_tail_ms": "ms",
    "feed_p50_ms": "ms",
    "unmodified_p50_ms": "ms",
    "enforce_p50_ms": "ms",
    "overhead_x": "x",
    "log_bytes_per_req": "bytes",
    "error_rate": "ratio",
    "denial_share": "ratio",
    "setup_wall_s": "s",
    "host_steal_share": "ratio",
    "raw_cpu_ms_per_req": "ms",
    "reference_ms": "ms",
}

#: Simulated browsers of the traced pass: one keep-alive connection and
#: one thread each.  The timed pass uses one, so that the server's CPU
#: time between a request and its response belongs to that request.
CONNECTIONS = 2
#: Server restarts per socket run; ``setup_s`` is their median.
RESTARTS = 5
#: Load before measuring, so caches fill and lazy set-up finishes.
WARMUP_S = 3.0
#: Reference samples taken before each restart.
SETUP_SAMPLES = 20

_clock = time.perf_counter


def child_env() -> dict:
    env = dict(os.environ)
    paths = [os.path.join(ROOT, "src"), HERE]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def spawn(*args: str) -> client.Child:
    argv = [sys.executable, "-m", "resinbench.server", *args]
    return client.Child(argv, child_env(), ROOT)


def pin_to_one_cpu() -> None:
    """Run this process and every child it starts on one CPU, so that the
    reference samples see the CPU the server runs on.  One closed-loop
    browser keeps the server and the client from running at once."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def host_steal_s() -> float:
    """CPU time the hypervisor gave to other guests, summed over CPUs."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def audit_appended(before: dict, after: dict) -> int:
    """Bytes appended to the audit ledger between two segment listings."""
    return sum(size - before.get(name, 0) for name, size in after.items())


def _ms(seconds: float) -> float:
    return seconds * 1e3


class Outcome:
    """What a run measured and how many of its checks failed."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.reasons: list = []
        self.metrics: dict = {}
        self.extras: dict = {}
        self.info: dict = {}

    def count(self, attempted: int, reasons, failed=None) -> None:
        """Add checked operations; ``failed`` defaults to one per reason
        (a child process reports only its first few reasons)."""
        self.attempted += attempted
        self.failed += len(reasons) if failed is None else failed
        self.reasons.extend(reasons)


def socket_run(args, outcome: Outcome) -> None:
    if args.workload == "hotcrp-read":
        app, pop = "hotcrp", population.hotcrp_population(args.seed)
        stream_cls, probe_req = population.HotCRPStream, population.hotcrp_probe(pop)
    else:
        app, pop = "phpbb", population.phpbb_population(args.seed)
        stream_cls, probe_req = population.PhpBBStream, population.phpbb_probe(pop)
    work = os.path.join(OUT, f"work-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    pristine = os.path.join(work, "pristine")
    server = None
    try:
        seeder = spawn(
            "seed", "--app", app, "--store", pristine, "--seed", str(args.seed)
        )
        try:
            seeder.reply(timeout=600)
        finally:
            seeder.close()
        restarts = 1 if args.trace else RESTARTS
        setup, setup_wall = [], []
        cal = calibrate.Calibration()
        for index in range(restarts):
            cal.take(SETUP_SAMPLES)
            store = os.path.join(work, f"store{index}")
            shutil.copytree(pristine, store)
            flags = ["--trace-recovery"] if args.trace else []
            server = spawn("serve", "--app", app, "--store", store, *flags)
            ready = server.reply(timeout=120)
            reason = client.probe(ready["port"], probe_req)
            setup_wall.append(_clock() - ready["t0"])
            setup.append(server.call("cpu")["cpu_s"] - ready["cpu0"])
            outcome.count(1, [f"probe: {reason}"] if reason else [])
            if index < restarts - 1:
                server.call("stop")
                server.close()
                server = None
                shutil.rmtree(store)
        port = ready["port"]
        browsers = CONNECTIONS if args.trace else 1
        streams = [stream_cls(pop, args.seed, conn) for conn in range(browsers)]
        if app == "phpbb":
            primer = population.phpbb_primer(pop)
            outcome.count(len(primer), client.replay(port, primer))
        warm = client.run_phase(port, streams, WARMUP_S)
        outcome.count(warm.attempted, warm.errors)
        if args.trace:
            half = args.seconds / 2.0
            untraced = client.run_phase(port, streams, half)
            outcome.count(untraced.attempted, untraced.errors)
            before = server.call("counters")
            server.call("trace-on")
            phase = client.run_phase(port, streams, half)
            spans = os.path.join(OUT, "traces", f"{args.workload}.spans.jsonl")
            summary = server.call("trace-off", spans=spans)
        else:
            before = server.call("counters")
            cpu = client.ServerCpu(server.proc.pid)
            steal = host_steal_s()
            try:
                phase = client.run_phase(port, streams, args.seconds, cpu, cal)
            finally:
                cpu.close()
            steal = host_steal_s() - steal
        outcome.count(phase.attempted, phase.errors)
        after = server.call("counters")
        final = server.call("stop")
        server.close()
        server = None
        if app == "phpbb":
            verify_posts(streams, pop, work, store, outcome)
    finally:
        if server is not None:
            server.kill()
        shutil.rmtree(work, ignore_errors=True)

    deltas = {
        key: after[key] - before[key]
        for key in after
        if isinstance(after[key], (int, float))
    }
    deltas["audit_bytes"] = audit_appended(
        before["audit_segments"], after["audit_segments"]
    )
    writes = phase.latencies("write")
    reads = stats.summarize(phase.latencies("read"))
    outcome.info.update(
        {
            "setup_runs_s": setup,
            "setup_runs_wall_s": setup_wall,
            "requests": phase.attempted,
            "read_samples": reads.get("n", 0),
            "read_p99_supported": reads.get("p99_supported", False),
            "write_samples": len(writes),
            "elapsed_s": phase.elapsed,
            "counter_deltas": deltas,
            "window_req_per_s": [len(w) for w in phase.windows()],
            "window_read_p50_ms": [
                _ms(statistics.median(w)) if w else None
                for w in phase.windows("read")
            ],
        }
    )
    if args.trace:
        info = {
            "writes": len(writes),
            "recovery_ms": ready["recovery_ms"],
            "untraced_rps": untraced.correct_per_s,
            "traced_rps": phase.correct_per_s,
        }
        outcome.metrics = layers.derive(summary, deltas, info)
        outcome.info["trace_missing"] = summary["missing"]
        return
    read_latencies = phase.latencies("read")
    read_cpu = phase.cpu_times("read")
    per_req_ms = _ms(phase.cpu_s) / max(phase.correct, 1)
    outcome.metrics = {
        "setup_s": statistics.median(setup) * cal.scale,
        "cpu_ms_per_req": per_req_ms * cal.scale,
        "read_cpu_mean_ms": _ms(statistics.fmean(read_cpu)) * cal.scale,
        "read_cpu_p90_ms": _ms(stats.percentile(read_cpu, 90.0)) * cal.scale,
        "peak_rss_mb": final["peak_rss_mb"],
    }
    outcome.extras["read_cpu_p50_ms"] = (
        _ms(statistics.median(read_cpu)) * cal.scale
    )
    outcome.extras["raw_cpu_ms_per_req"] = per_req_ms
    outcome.extras["reference_ms"] = _ms(statistics.median(cal.samples))
    outcome.info["reference_samples"] = len(cal.samples)
    outcome.info["cpu_ms_by_kind_halves"] = cpu_by_kind_halves(phase)
    outcome.extras["req_per_s"] = phase.correct_per_s
    outcome.extras["read_p50_ms"] = _ms(reads["p50"])
    outcome.extras["read_p90_ms"] = _ms(stats.percentile(read_latencies, 90.0))
    outcome.extras["read_p99_ms"] = _ms(stats.percentile(read_latencies, 99.0))
    feeds = phase.latencies("feed")
    if feeds:
        outcome.extras["feed_p50_ms"] = _ms(statistics.median(feeds))
    if writes:
        written = stats.summarize(writes)
        outcome.extras["write_p50_ms"] = _ms(written["p50"])
        if "tail" in written:
            # The highest percentile the sample supports (p95 for a few
            # hundred writes, p99 from a thousand).
            outcome.extras["write_tail_ms"] = _ms(written["tail"])
            outcome.info["write_tail_percentile"] = written["tail_p"]
    logged = deltas["wal_bytes"] + deltas["audit_bytes"]
    outcome.extras["log_bytes_per_req"] = logged / max(phase.attempted, 1)
    denials = sum(1 for s in phase.samples if s.denial)
    outcome.extras["denial_share"] = denials / max(phase.attempted, 1)
    outcome.extras["setup_wall_s"] = statistics.median(setup_wall)
    cpus = os.cpu_count() or 1
    outcome.extras["host_steal_share"] = steal / (cpus * phase.elapsed)


def cpu_by_kind_halves(phase) -> dict:
    """Mean server CPU (ms) per correct request of each kind, in the first
    and the second half of the run, to show drift as the store grows."""
    out = {}
    middle = phase.start + phase.elapsed / 2
    for kind in sorted({s.kind for s in phase.samples}):
        halves = ([], [])
        for s in phase.samples:
            if s.kind == kind and s.error is None:
                halves[s.done >= middle].append(_ms(s.cpu))
        out[kind] = [statistics.fmean(h) if h else None for h in halves]
    return out


def verify_posts(streams, pop, work: str, store: str, outcome: Outcome) -> None:
    """Post-run durability check: every acknowledged post must survive a
    reopen of the store, with its forum policy."""
    acked = []
    for stream in streams:
        for post in stream.acked:
            outsider = None
            if post.private:
                outsider = next(u for u in pop.users if u not in post.forum.members)
            acked.append(
                {
                    "msg_id": post.msg_id,
                    "author": post.author,
                    "body": post.body,
                    "outsider": outsider,
                }
            )
    path = os.path.join(work, "acked.json")
    with open(path, "w") as handle:
        json.dump(acked, handle)
    checker = spawn("verify", "--store", store, "--acked", path)
    try:
        result = checker.reply(timeout=300)
    finally:
        checker.close()
    outcome.count(result["checked"], result["reasons"], result["failed"])
    outcome.info["durable_posts_checked"] = result["checked"]


def pages_run(args, outcome: Outcome) -> None:
    spans = os.path.join(OUT, "traces", f"{args.workload}.spans.jsonl")
    argv = ["pages", "--seed", str(args.seed), "--seconds", str(args.seconds)]
    argv += ["--trace", str(args.trace), "--spans", spans]
    child = spawn(*argv)
    try:
        result = child.reply(timeout=args.seconds + 600)
    finally:
        child.close()
    outcome.info["setup_runs_s"] = result["builds_cpu_s"]
    if args.trace:
        for part in ("untraced", "traced"):
            checked = result[part]
            outcome.count(checked["attempted"], checked["reasons"], checked["failed"])
        untraced = result["untraced"]["times"]["resin"]
        traced = result["traced"]["times"]["resin"]
        info = {
            "untraced_rps": len(untraced) / sum(untraced),
            "traced_rps": len(traced) / sum(traced),
        }
        outcome.metrics = layers.derive(result["summary"], result["deltas"], info)
        outcome.info["trace_missing"] = result["summary"]["missing"]
        return
    outcome.count(result["attempted"], result["reasons"], result["failed"])
    times, cpu, scale = result["times"], result["cpu"], result["scale"]
    resin = stats.summarize(times["resin"])
    per_page_ms = _ms(statistics.fmean(cpu["resin"]))
    outcome.metrics = {
        "setup_s": result["setup_s"] * scale,
        "cpu_ms_per_req": per_page_ms * scale,
        "read_cpu_mean_ms": per_page_ms * scale,
        "read_cpu_p90_ms": _ms(stats.percentile(cpu["resin"], 90.0)) * scale,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    outcome.extras["read_cpu_p50_ms"] = _ms(statistics.median(cpu["resin"])) * scale
    outcome.extras["raw_cpu_ms_per_req"] = per_page_ms
    outcome.extras["reference_ms"] = result["reference_ms"]
    outcome.extras["req_per_s"] = len(times["resin"]) / sum(times["resin"])
    outcome.extras["read_p50_ms"] = _ms(resin["p50"])
    outcome.extras["read_p90_ms"] = _ms(stats.percentile(times["resin"], 90.0))
    outcome.extras["read_p99_ms"] = _ms(stats.percentile(times["resin"], 99.0))
    unmodified = statistics.median(times["unmodified"])
    outcome.extras["unmodified_p50_ms"] = _ms(unmodified)
    outcome.extras["enforce_p50_ms"] = _ms(statistics.median(times["resin-enforce"]))
    outcome.extras["overhead_x"] = resin["p50"] / unmodified
    outcome.extras["setup_wall_s"] = statistics.median(result["builds_s"])
    outcome.info["read_samples"] = resin["n"]
    outcome.info["read_p99_supported"] = resin["p99_supported"]


def report(args, outcome: Outcome, started: float) -> dict:
    failed = outcome.failed
    attempted = max(outcome.attempted, 1)
    if not args.trace:
        outcome.extras["error_rate"] = failed / attempted
    units = layers.METRICS if args.trace else END_TO_END
    metrics = {}
    for name, value in outcome.metrics.items():
        unit = units[name][0] if args.trace else units[name]
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name}: {value:.6g} {unit}")
    for name, value in outcome.extras.items():
        print(f"{name}: {value:.6g} {EXTRA_UNITS[name]}")
    for reason in outcome.reasons[:10]:
        print(f"FAILED: {reason}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    metadata = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "connections": CONNECTIONS if args.trace else 1,
        "flush_policy": "fsync" if args.workload != "paper-page" else None,
        "python": platform.python_version(),
        "wall_s": time.monotonic() - started,
        "result": result,
        "extras": {
            k: {"value": v, "unit": EXTRA_UNITS[k]} for k, v in outcome.extras.items()
        },
        "info": outcome.info,
        "failures": outcome.reasons[:50],
    }
    if args.trace:
        metadata["per_layer_doc"] = layers.doc_table()
    results = os.path.join(OUT, "results")
    os.makedirs(results, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results, name), "w") as handle:
        json.dump(metadata, handle, indent=1, sort_keys=True)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("error: the program's sources (src/repro) are missing", file=sys.stderr)
        return 2
    if not args.trace:
        pin_to_one_cpu()
    started = time.monotonic()
    outcome = Outcome()
    if args.workload == "paper-page":
        pages_run(args, outcome)
    else:
        socket_run(args, outcome)
    result = report(args, outcome, started)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
