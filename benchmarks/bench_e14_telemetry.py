"""E14 — what the telemetry layer costs, and that it works end to end.

PR 6 threads tracing, histogram metrics and the structured event log
through every request path, so the obvious question is what that does to
throughput.  Two measured claims:

1. **Telemetry is affordable.**  The E9 repeated-delegatee workload runs
   through two identical fleets — one built with ``telemetry=False``
   (no tracer, no event log), one with telemetry on *and* a fresh
   :class:`TraceContext` injected into every call (the worst case: every
   request records its full span set, every audit line becomes an
   event).  Each measured run is a fresh cold-cache fleet — the same
   shape bench_e9 times — and the median of many paired on/off CPU-time
   ratios is asserted under 5% overhead and recorded in
   ``BENCH_E14.json``.

2. **The acceptance path.**  A real ``repro-pre serve --http``
   subprocess is driven through a mux client on its banner's URL; the
   trace id the client generated must come back in the
   ``X-Repro-Trace`` response echo AND be retrievable via
   ``GET /v1/trace/{id}`` with >= 4 named stage spans, and
   ``GET /v1/metrics?format=prometheus`` must serve exposition text.

TOY parameters: like E9-E13 this measures workload structure and
instrumentation cost, not key size.
"""

from __future__ import annotations

import gc
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import repro
from repro.bench.report import print_table, record_bench_snapshot
from repro.service.driver import build_setting, drive_requests
from repro.service.gateway import GrantRequest, ReEncryptionGateway
from repro.service.telemetry import TraceContext
from repro.service.wire import connect_gateway

N_REQUESTS = 120  # the E9 request count
SHARDS = 4
MEASURED_PAIRS = 16
MAX_OVERHEAD = 0.05


class _TracedGateway:
    """Injects a fresh root trace into every call — telemetry's worst case.

    The driver stays oblivious: everything it touches besides the two
    request entry points passes straight through to the real gateway.
    """

    def __init__(self, gateway: ReEncryptionGateway):
        self._gateway = gateway

    def reencrypt(self, request):
        return self._gateway.reencrypt(request, trace=TraceContext.generate())

    def reencrypt_batch(self, requests):
        return self._gateway.reencrypt_batch(requests, trace=TraceContext.generate())

    def __getattr__(self, name):
        return getattr(self._gateway, name)


def _fleet(setting, telemetry: bool) -> ReEncryptionGateway:
    """A fresh fleet holding the setting's keys, telemetry on or off."""
    gateway = ReEncryptionGateway(
        setting.backend, shard_count=SHARDS, telemetry=telemetry
    )
    for key in setting.gateway.list_keys():
        gateway.grant(GrantRequest(tenant="bench", proxy_key=key))
    return gateway


def _timed_run(setting, telemetry: bool):
    """One cold-cache E9 run (the bench_e9 measurement shape): fresh fleet,
    grants excluded from the timed window, misses pay real crypto.  GC is
    parked during the window — a collection landing in one side of a pair
    would otherwise dwarf the effect under measurement."""
    gateway = _fleet(setting, telemetry=telemetry)
    target = _TracedGateway(gateway) if telemetry else gateway
    gc.collect()
    gc.disable()
    try:
        # CPU time, not wall clock: the drive is single-threaded and
        # CPU-bound, and process_time is blind to scheduler preemption —
        # the noise source that otherwise dwarfs a few-percent effect on
        # a shared machine.
        start = time.process_time()
        drive_requests(
            setting,
            N_REQUESTS,
            seed="e14-stream",
            batch_size=0,
            verify_every=N_REQUESTS + 1,
            gateway=target,
        )
        elapsed = time.process_time() - start
    finally:
        gc.enable()
    spans = gateway.tracer.spans_recorded if telemetry else 0
    events = gateway.event_log.emitted if telemetry else 0
    gateway.close()
    return elapsed, spans, events


def test_e14_telemetry_overhead_under_five_percent():
    setting = build_setting(group_name="TOY", shard_count=SHARDS, seed="e14-run")
    ratios = []
    off_best = on_best = float("inf")
    spans = events = 0
    try:
        # Warm the code paths once (imports, bytecode, allocator) so the
        # first measured pair is not the compilation run.
        _timed_run(setting, telemetry=False)
        _timed_run(setting, telemetry=True)
        # Back-to-back pairs, each yielding one on/off ratio: pairing
        # cancels slow machine drift, the median rides out one-off
        # stalls that a best-of comparison across distant runs cannot.
        # Order alternates within pairs so monotone drift (turbo decay,
        # page-cache warmup) cannot systematically charge one side.
        for pair in range(MEASURED_PAIRS):
            if pair % 2 == 0:
                off_s = _timed_run(setting, telemetry=False)[0]
                on_s, spans, events = _timed_run(setting, telemetry=True)
            else:
                on_s, spans, events = _timed_run(setting, telemetry=True)
                off_s = _timed_run(setting, telemetry=False)[0]
            ratios.append(on_s / off_s)
            off_best = min(off_best, off_s)
            on_best = min(on_best, on_s)
    finally:
        setting.gateway.close()

    off_rps = N_REQUESTS / off_best
    on_rps = N_REQUESTS / on_best
    overhead = statistics.median(ratios) - 1.0
    print_table(
        "E14: telemetry cost on the E9 workload (%d requests, median of %d paired cold runs)"
        % (N_REQUESTS, MEASURED_PAIRS),
        ["fleet", "total ms", "req/s", "spans", "events"],
        [
            ["telemetry off", "%.1f" % (off_best * 1000), "%.0f" % off_rps, "-", "-"],
            [
                "telemetry on (traced)",
                "%.1f" % (on_best * 1000),
                "%.0f" % on_rps,
                str(spans),
                str(events),
            ],
            ["overhead", "%.1f%%" % (100 * overhead), "", "", ""],
        ],
    )
    assert spans > 0, "the traced run recorded no spans — nothing was measured"
    assert events > 0, "the traced run emitted no events — nothing was measured"
    assert overhead < MAX_OVERHEAD, (
        "telemetry overhead %.1f%% exceeds the %.0f%% budget (ratios: %s)"
        % (100 * overhead, 100 * MAX_OVERHEAD, ["%.3f" % r for r in ratios])
    )
    record_bench_snapshot(
        "E14",
        {
            "experiment": "E14",
            "title": "telemetry overhead on the E9 repeated-delegatee workload",
            "group": "TOY",
            "shards": SHARDS,
            "n_requests": N_REQUESTS,
            "measured_pairs": MEASURED_PAIRS,
            "throughput_rps": {
                "telemetry_off": round(off_rps, 1),
                "telemetry_on": round(on_rps, 1),
            },
            "overhead_fraction": round(overhead, 4),
            "overhead_budget": MAX_OVERHEAD,
            "spans_recorded": spans,
            "events_emitted": events,
        },
    )


# ------------------------------------------------- subprocess acceptance


def _spawn_server():
    """A real ``repro-pre serve --http`` process; returns (proc, url)."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    command = [
        sys.executable,
        "-m",
        "repro.cli",
        "serve",
        "--group",
        "TOY",
        "--shards",
        "2",
        "--http",
        "0",
    ]
    proc = subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env
    )
    line = proc.stdout.readline()
    if "listening on" not in line:
        proc.terminate()
        raise AssertionError("server did not come up: %r" % line)
    return proc, line.split()[3]


def test_e14_trace_round_trips_through_a_real_server_process():
    setting = build_setting(
        scheme_id="tipre/v1",
        group_name="TOY",
        shard_count=2,
        n_patients=2,
        n_delegatees=2,
        n_types=2,
        ciphertexts_per_pair=1,
        seed="e14-wire",
    )
    proc, url = _spawn_server()
    try:
        client = connect_gateway(url, setting.backend)  # the banner's mux:// URL
        for key in setting.gateway.list_keys():
            client.grant(GrantRequest(tenant="bench", proxy_key=key))
        verified = drive_requests(
            setting, 8, seed="e14-wire-stream", verify_every=1, gateway=client
        )
        assert verified > 0

        # The client's last generated trace id must have been echoed in
        # the response header and must retrieve the server-side spans.
        trace = client.last_trace
        assert trace is not None
        echo = TraceContext.from_header(client.last_trace_echo)
        assert echo is not None and echo.trace_id == trace.trace_id
        spans = client.fetch_trace(trace.trace_id)
        names = sorted({span.name for span in spans})
        assert len(spans) >= 4, "expected >= 4 spans, got %r" % names
        assert all(span.trace_id == trace.trace_id for span in spans)

        exposition = client.metrics_text()
        assert "# TYPE repro_gateway_served_total counter" in exposition
        assert "repro_gateway_latency_ms_bucket" in exposition
        client.close()

        print_table(
            "E14: trace retrieved from a serve --http subprocess",
            ["trace id", "spans", "names"],
            [[trace.trace_id[:16] + "...", str(len(spans)), ", ".join(names)]],
        )
    finally:
        proc.terminate()
        proc.wait(timeout=30)
        setting.gateway.close()
