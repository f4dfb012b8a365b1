"""Tests for the benchmark's own code: the response reader, the oracle,
the tail-percentile rule, the request mixes, the CPU clock and the
calibration, tracer install/restore and the metric lists.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import json
import os
import socket

import pytest

from resinbench import calibrate, client, layers, oracle, population, stats, wire
from resinbench.tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))


class _Trickle:
    """A socket stand-in that returns at most ``step`` bytes per recv."""

    def __init__(self, data: bytes, step: int = 1):
        self.data, self.step = data, step

    def recv(self, size):
        piece, self.data = self.data[: self.step], self.data[self.step :]
        return piece


_CL = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\nX-A: b\r\n\r\nhello"
_CHUNKED = (
    b"HTTP/1.1 403 Forbidden\r\nTransfer-Encoding: chunked\r\n\r\n"
    b"4;ext=1\r\nabcd\r\n3\r\nefg\r\n0\r\nTrailer: x\r\n\r\n"
)


@pytest.mark.parametrize("step", [1, 3, 1 << 16])
def test_reader_content_length_then_chunked_on_one_connection(step):
    reader = wire.ResponseReader(_Trickle(_CL + _CHUNKED + _CL, step))
    assert reader.read() == (200, {"content-length": "5", "x-a": "b"}, b"hello")
    status, headers, body = reader.read()
    assert (status, body) == (403, b"abcdefg")
    assert headers["transfer-encoding"] == "chunked"
    assert reader.read()[2] == b"hello"


def test_reader_over_a_real_socket_pair():
    left, right = socket.socketpair()
    try:
        left.sendall(_CHUNKED)
        assert wire.ResponseReader(right).read()[2] == b"abcdefg"
    finally:
        left.close()
        right.close()


def test_reader_rejects_truncation_and_bad_framing():
    with pytest.raises(wire.WireError):
        wire.ResponseReader(_Trickle(_CL[:-2], 4)).read()
    bad = _CHUNKED.replace(b"abcd\r\n", b"abcdXX")
    with pytest.raises(wire.WireError):
        wire.ResponseReader(_Trickle(bad, 7)).read()


def test_encode_request_form_body_round_trips():
    raw = wire.encode_request("POST", "/topic", "u@x", {"body": "a & <b> 'c'"})
    head, _, body = raw.partition(b"\r\n\r\n")
    assert b"X-Resin-User: u@x" in head
    assert b"Content-Length: %d" % len(body) in head
    from urllib.parse import parse_qsl

    assert dict(parse_qsl(body.decode())) == {"body": "a & <b> 'c'"}


def _anonymous_pc_view():
    pop = population.hotcrp_population(7)
    paper = next(p for p in pop.papers if p.anonymous)
    return paper, population._paper_verdict(pop, paper, pop.pcs[0])


def test_oracle_accepts_the_expected_page():
    paper, verdict = _anonymous_pc_view()
    canary = paper.abstract.split()[-1]
    page = f"<h1>{paper.title}</h1><p>{canary}</p>Authors: Anonymous".encode()
    assert oracle.check(verdict, 200, page) is None


def test_oracle_catches_a_leaked_canary():
    paper, verdict = _anonymous_pc_view()
    canary = paper.abstract.split()[-1]
    leaked = f"<h1>{paper.title}</h1><p>{canary}</p>Authors: {paper.authors[0]}"
    reason = oracle.check(verdict, 200, leaked.encode())
    assert reason is not None and reason.startswith("leaked")


def test_oracle_checks_status_and_required_text():
    verdict = oracle.Verdict(403, never=("secret",), denial=True)
    assert oracle.check(verdict, 200, b"") == "status 200, expected 403"
    assert oracle.check(verdict, 403, b"Forbidden") is None
    needs = oracle.Verdict(200, contains=("hidden",))
    assert oracle.check(needs, 200, b"shown").startswith("missing")


def test_oracle_escapes_like_the_board():
    assert oracle.html_escaped("<a href='x'>&\"") == (
        "&lt;a href=&#x27;x&#x27;&gt;&amp;&quot;"
    )


def test_streams_are_a_function_of_the_seed():
    pop = population.phpbb_population(3)
    first = population.PhpBBStream(pop, 3, 0)
    again = population.PhpBBStream(pop, 3, 0)
    other = population.PhpBBStream(pop, 4, 0)
    a = [(r.method, r.path, r.user) for r in (first.next() for _ in range(50))]
    b = [(r.method, r.path, r.user) for r in (again.next() for _ in range(50))]
    c = [(r.method, r.path, r.user) for r in (other.next() for _ in range(50))]
    assert a == b and a != c


def test_phpbb_reads_have_a_fixed_mix():
    pop = population.phpbb_population(5)
    stream = population.PhpBBStream(pop, 5, 0)
    requests = [stream.next() for _ in range(50 * 48)]
    reads = [r for r in requests if r.kind == "read"]
    assert len(reads) == 32 * 48
    assert sum(r.kind == "write" for r in requests) == 17 * 48
    # Nothing was acknowledged, so every read is of a seeded post, each
    # one before any is read twice.
    by_path = {f"/topic/{p.msg_id}": p for p in pop.posts}
    assert sorted(r.path for r in reads[:300]) == sorted(by_path)
    private = [r for r in reads if by_path[r.path].private]
    denied = [r for r in private if r.verdict.status == 403]
    assert abs(len(denied) / len(private) - 0.75) < 0.02


def test_phpbb_primer_reads_every_seeded_post_as_its_author():
    pop = population.phpbb_population(5)
    primer = population.phpbb_primer(pop)
    assert [r.path for r in primer] == [f"/topic/{p.msg_id}" for p in pop.posts]
    assert all(r.verdict.status == 200 for r in primer)


def test_server_cpu_reads_this_process():
    clock = client.ServerCpu(os.getpid())
    try:
        first = clock.read()
        sum(i * i for i in range(200_000))
        second = clock.read()
    finally:
        clock.close()
    assert 0 < first < second


def test_calibration_scale_is_nominal_over_the_median_sample():
    cal = calibrate.Calibration()
    cal.take(3)
    assert len(cal.samples) == 3 and all(s > 0 for s in cal.samples)
    cal.samples = [0.004, 0.001, 0.002]
    assert cal.scale == pytest.approx(calibrate.REFERENCE_MS / 2.0)


@pytest.mark.parametrize(
    "n, expected",
    [
        (99, None),
        (100, 90.0),
        (199, 90.0),
        (200, 95.0),
        (999, 95.0),
        (1000, 99.0),
        (9999, 99.0),
        (10000, 99.9),
    ],
)
def test_highest_percentile_with_ten_samples_beyond(n, expected):
    assert stats.highest_supported(n) == expected
    if expected is not None:
        assert stats.beyond(n, expected) >= stats.MIN_BEYOND


def test_percentile_is_nearest_rank_and_p99_support_is_flagged():
    values = list(range(1, 1001))
    assert stats.percentile(values, 50) == 500
    assert stats.percentile(values, 99) == 990
    assert stats.summarize(values)["p99_supported"]
    assert not stats.summarize(values[:999])["p99_supported"]


def _originals():
    import repro.channels.sqlchan as sqlchan
    import repro.sql.tokenizer as tokenizer
    from repro.tracking.ranges import RangeMap
    from repro.tracking.tainted_str import TaintedStr

    return {
        "tokenize": tokenizer.tokenize,
        "sqlchan.tokenize": sqlchan.tokenize,
        "sqlchan.parse": sqlchan.parse,
        "getitem": vars(TaintedStr)["__getitem__"],
        "rangemap_init": vars(RangeMap)["__init__"],
        "rangemap_deferred": vars(RangeMap)["_deferred"],
        "apply_cell_policies": sqlchan.apply_cell_policies,
    }


def test_tracer_installs_wrappers_and_restores_every_original():
    pytest.importorskip("repro")
    from repro.evaluation.hotcrp_perf import HotCRPPageWorkload

    workload = HotCRPPageWorkload(use_resin=True)
    expected_page = workload.generate_page()
    before = _originals()
    tracer = Tracer()
    tracer.install(layers.POINTS)
    try:
        during = _originals()
        assert during["tokenize"] is not before["tokenize"]
        # Name-bound copies are patched too, with the same wrapper.
        assert during["sqlchan.tokenize"] is during["tokenize"]
        assert during["sqlchan.parse"] is not before["sqlchan.parse"]
        assert during["getitem"] is not before["getitem"]
        assert during["rangemap_init"] is not before["rangemap_init"]
        assert isinstance(during["rangemap_deferred"], classmethod)
        assert during["rangemap_deferred"] is not before["rangemap_deferred"]
        page = tracer.root("page", workload.generate_page)
    finally:
        tracer.remove()
    assert page == expected_page
    assert tracer.missing == []
    assert _originals() == before
    summary = tracer.summary(layers.LAYER_OF, layers.WAITS)
    assert summary["requests"] == 1
    assert summary["names"]["sqlchan.execute"]["calls"] >= 1
    assert summary["names"]["sql.tokenize"]["calls"] >= 1
    layer_self = sum(v["self_s"] for v in summary["layers"].values())
    assert layer_self + summary["untraced_s"] == pytest.approx(summary["request_s"])
    assert summary["counts"]["taint.rangemap_new"] > 0
    # Removed wrappers record nothing more, and the program still runs.
    count = len(tracer.spans)
    assert workload.generate_page() == expected_page
    assert len(tracer.spans) == count


def test_tracer_restores_instance_attributes_and_counts_calls_in_requests():
    class Thing:
        def work(self, n):
            return n * 2

    thing = Thing()
    tracer = Tracer()
    tracer.patch(thing, "work", tracer.make("count", "thing.work", thing.work))
    assert tracer.root("request", thing.work, 3) == 6
    assert thing.work(4) == 8  # outside any request: not counted
    tracer.remove()
    assert "work" not in vars(thing)
    assert tracer.counts() == {"thing.work": 1}


def test_benchmark_json_matches_the_metric_lists():
    import run

    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    for metric in spec["end_to_end"]:
        assert metric["unit"] == run.END_TO_END[metric["name"]]
    assert [m["name"] for m in spec["per_layer"]] == list(layers.METRICS)
    for metric in spec["per_layer"]:
        unit, better, _ = layers.METRICS[metric["name"]]
        assert (metric["unit"], metric["better"]) == (unit, better)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS[:2])
