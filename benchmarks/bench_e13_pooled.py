"""E13 — concurrent clients: pooled connections, multi-scheme hosting,
and the secured wire.

PR 5 gives :class:`~repro.service.wire.client.RemoteGateway` a bounded
keep-alive connection pool and lets one server process host several
scheme fleets.  PR 9 adds TLS + HMAC tenant authentication and
per-tenant policy; the new legs measure that the security layer
isolates and costs what it claims (recorded in ``BENCH_E13.json``).
Measured claims:

1. **Pooled beats single-connection under concurrent load.**  Eight
   client threads drive the same request stream through one shared
   client, pool of 1 (every thread serializes on a single socket) vs
   pool of 8.  The fleet models remote shards the way E10 does — each
   transformation charges a service round trip — and its shards
   declare that they forward, as a fleet router's remote shards do, so
   the server runs its calls on the worker pool.  The single connection's head-of-line
   blocking is then visible as wall clock: with one socket only one
   request is ever in flight, so shard latencies sum; with a pool they
   overlap across the server's pool threads.  The gain is asserted, and
   responses must stay bit-identical to the sequential reference (no
   cross-talk).

2. **One process, several scheme fleets.**  A real ``repro-pre serve
   --http --scheme tipre/v1 --scheme afgh/v1`` subprocess hosts two
   fleets; pooled clients drive both concurrently over the
   scheme-prefixed routes with full decrypt-and-compare verification.
   This is the CLI-to-wire acceptance path, measured per scheme.

3. **An abusive tenant cannot starve well-behaved ones.**  One flooder
   with a per-tenant rate limit hammers the gateway while three signed
   well-behaved clients run their workload.  The policy clock is frozen,
   so the flooder's burst never refills and it is throttled however
   fast the host runs it; the well-behaved clients keep 100% success
   with a p99 that holds against their uncontended baseline.

4. **TLS + HMAC costs under 15%.**  The same reencrypt stream (the E9
   workload, unbatched and batch=8) through a plaintext anonymous
   server vs an HTTPS server demanding signed requests, in alternating
   plaintext/secured pairs.  The median per-pair overhead is gated on
   the batched leg — per-round-trip security cost amortizes across
   batch items — and the unbatched per-request cost is recorded
   alongside it, each beside the best-of-3 figure of the same runs.

5. **One multiplexed socket overtakes a connection pool.**  The same
   warm stream from 1 to 512 client threads, through the pooled client
   over HTTP and through one mux connection.

6. **Batches flood one pool thread, and singles stay on the loop.**  A
   real ``serve`` process on SS256: a cached single read every 10 ms,
   alone and while 4 connections flood cold batches of 8.  Its p50, p90
   and p99 latency and the server's thread count are recorded; only zero
   failed requests and at most 2 server threads (the loop and one pool
   thread) are asserted, so the leg holds on any host.

7. **A small batch waits for the batch ahead of it.**  The same SS256
   server: a cold batch of 8 from one connection, alone and sent while
   a cold batch of 512 from another connection is being served, on the
   other shard, 5 trials.  Both batches' latencies are recorded; only
   zero failed requests is asserted.  One pool thread serves batches in
   arrival order, so the small one waits out the large one.

TOY parameters for legs 1-5: like E9-E12 they measure workload
structure and transport, not key size.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import repro
from repro.bench.report import print_table
from repro.core.proxy import ProxyService
from repro.serialization.containers import serialize_reencrypted
from repro.service.driver import (
    DELEGATEE_DOMAIN,
    build_setting,
    drive_requests,
    resolve_remote_group,
)
from repro.service.gateway import GrantRequest, ReEncryptionGateway, ReEncryptRequest
from repro.service.router import ShardRouter
from repro.service.wire import AsyncGatewayServer, MuxRemoteGateway, RemoteGateway

THREADS = 8
SHARDS = 16  # spreads the 8 per-thread route keys so shard locks rarely collide
REMOTE_RTT_S = 0.005  # modelled service latency of one remote shard call


@dataclass
class RemoteShardStub(ProxyService):
    """A proxy shard that charges a service round-trip per transformation.

    It stands for a shard in another process, so it says it forwards,
    as :class:`~repro.service.fleet.RemoteShard` does.
    """

    latency_s: float = 0.0
    forwards = True

    def reencrypt_with_key(self, ciphertext, key, trace=None):
        if self.latency_s:
            time.sleep(self.latency_s)
        return super().reencrypt_with_key(ciphertext, key)


def _setting():
    """8 (patient, type) route keys x 6 ciphertexts x 2 delegatees."""
    return build_setting(
        group_name="TOY",
        shard_count=2,
        n_patients=4,
        n_types=2,
        n_delegatees=2,
        ciphertexts_per_pair=6,
        seed="e13-pooled",
    )


def _thread_partitions(setting):
    """One distinct request list per thread, each on its own route key.

    Distinct ciphertexts keep the result cache cold (every request pays
    the modelled shard latency), and the per-thread route keys map to
    different shards, so pooled concurrency is limited by the transport —
    the thing under test — not by shard-lock collisions.
    """
    partitions = []
    for patient in setting.patients:
        for type_label in setting.types:
            requests = []
            for ciphertext, _message in setting.pool[(patient, type_label)]:
                for delegatee in setting.delegatees:
                    requests.append(
                        ReEncryptRequest(
                            tenant=patient,
                            ciphertext=ciphertext,
                            delegatee_domain=DELEGATEE_DOMAIN,
                            delegatee=delegatee,
                        )
                    )
            partitions.append(requests)
    assert len(partitions) == THREADS
    return partitions


def _latency_gateway(scheme, keys):
    def factory(name, table):
        return RemoteShardStub(scheme, name=name, table=table, latency_s=REMOTE_RTT_S)

    gateway = ReEncryptionGateway(scheme, shard_count=SHARDS, shard_factory=factory)
    for key in keys:
        gateway.grant(GrantRequest(tenant="bench", proxy_key=key))
    return gateway


def _drive_pool(url, group, partitions, expected, pool_size):
    """8 barrier-started threads through one shared client; wall clock."""
    client = RemoteGateway(url, group, pool_size=pool_size)
    mismatches = []
    errors = []
    lock = threading.Lock()
    start_line = threading.Barrier(THREADS + 1)
    finish_line = threading.Barrier(THREADS + 1)

    def worker(thread_id, requests):
        try:
            start_line.wait(timeout=60)
            for index, request in enumerate(requests):
                response = client.reencrypt(request)
                blob = serialize_reencrypted(group, response.ciphertext)
                if blob != expected[thread_id][index]:
                    with lock:
                        mismatches.append((thread_id, index))
            finish_line.wait(timeout=120)
        except BaseException as error:  # noqa: BLE001 - reported to the bench
            with lock:
                errors.append(error)

    threads = [
        threading.Thread(target=worker, args=(i, requests), daemon=True)
        for i, requests in enumerate(partitions)
    ]
    for thread in threads:
        thread.start()
    start_line.wait(timeout=60)
    start = time.perf_counter()
    finish_line.wait(timeout=120)
    elapsed_s = time.perf_counter() - start
    for thread in threads:
        thread.join(timeout=60)
    client.close()
    assert not errors, errors
    assert not mismatches, "cross-talk between pooled responses: %r" % mismatches
    assert client.peak_connections <= pool_size
    return elapsed_s, client.connections_opened, client.peak_connections


def test_e13_pooled_client_beats_single_connection_under_concurrency():
    setting = _setting()
    keys = setting.gateway.list_keys()
    group = setting.group
    partitions = _thread_partitions(setting)
    # The sequential in-process reference: what every schedule must return.
    expected = [
        [
            serialize_reencrypted(group, setting.gateway.reencrypt(request).ciphertext)
            for request in requests
        ]
        for requests in partitions
    ]
    n = sum(len(requests) for requests in partitions)

    rows = []
    timings = {}
    for pool_size in (1, THREADS):
        # A fresh fleet per configuration: cold caches, so every request
        # pays the modelled shard round trip in both runs.
        gateway = _latency_gateway(setting.backend, keys)
        # The stub's shards forward, so the server runs the gateway's
        # calls on its pool, where they overlap.
        assert gateway.forwards
        with AsyncGatewayServer(gateway) as server:
            elapsed_s, opened, peak = _drive_pool(
                server.http_url, group, partitions, expected, pool_size
            )
        gateway.close()
        timings[pool_size] = elapsed_s
        rows.append(
            [
                "pool=%d" % pool_size,
                "%.1f" % (elapsed_s * 1000),
                "%.0f" % (n / elapsed_s),
                str(opened),
                str(peak),
            ]
        )
    setting.gateway.close()

    single_s, pooled_s = timings[1], timings[THREADS]
    rows[1].append("%.2fx" % (single_s / pooled_s))
    rows[0].append("1.00x")
    print_table(
        "E13: %d threads x shared client, %d requests, %.0fms modelled shard RTT"
        % (THREADS, n, REMOTE_RTT_S * 1000),
        ["client", "total ms", "req/s", "dials", "peak conns", "gain"],
        rows,
    )

    # The acceptance anchor: a pool must beat head-of-line blocking on a
    # single socket once shard service time dominates.
    assert pooled_s < single_s, (
        "pooled client (%.1fms) did not beat the single connection (%.1fms)"
        % (pooled_s * 1000, single_s * 1000)
    )


# ------------------------------------------------- multi-scheme subprocess


def _spawn_server(scheme_ids=(), group="TOY"):
    """A real ``repro-pre serve --http`` process; returns (proc, host:port)."""
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
        group,
        "--shards",
        "2",
        "--http",
        "0",
    ]
    for scheme_id in scheme_ids:
        command += ["--scheme", scheme_id]
    proc = subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env
    )
    line = proc.stdout.readline()
    if "listening on mux://" not in line:
        proc.terminate()
        raise AssertionError("server did not come up: %r" % line)
    # The banner names the mux transport; the same port answers HTTP.
    return proc, line.split()[3][len("mux://"):]


def _drive_scheme_concurrently(setting, url, pool_size, n_requests):
    """Grant a fleet over the wire, then drive it from one pooled client."""
    client = RemoteGateway(url, setting.backend, pool_size=pool_size)
    for key in setting.gateway.list_keys():
        client.grant(GrantRequest(tenant="bench", proxy_key=key))
    start = time.perf_counter()
    verified = drive_requests(
        setting,
        n_requests,
        seed="e13-" + setting.backend.scheme_id,
        verify_every=4,
        gateway=client,
    )
    elapsed_s = time.perf_counter() - start
    client.close()
    return verified, elapsed_s


def test_e13_one_process_hosts_two_scheme_fleets():
    """A single CLI server process serves tipre and afgh side by side,
    driven concurrently, with end-to-end decrypt verification."""
    scheme_ids = ["tipre/v1", "afgh/v1"]
    settings = {}
    proc, address = _spawn_server(scheme_ids)
    url = "http://" + address
    try:
        # A multi-scheme server hosts each fleet on its own derived pairing
        # group (the single-group hosting fix); probe for the right one.
        settings = {
            scheme_id: build_setting(
                scheme_id=scheme_id,
                group_name="TOY",
                shard_count=2,
                n_patients=2,
                n_delegatees=2,
                n_types=2,
                ciphertexts_per_pair=2,
                seed="e13-multihost-" + scheme_id,
                group=resolve_remote_group(url, scheme_id, "TOY"),
            )
            for scheme_id in scheme_ids
        }
        probe = RemoteGateway(url, settings["tipre/v1"].backend)
        hosted = [doc["scheme"] for doc in probe.schemes_info()]
        probe.close()
        assert hosted == scheme_ids, "server does not host both fleets"

        results = {}
        failures = []

        def drive(scheme_id):
            try:
                results[scheme_id] = _drive_scheme_concurrently(
                    settings[scheme_id], url, pool_size=4, n_requests=48
                )
            except BaseException as error:  # noqa: BLE001 - reported below
                failures.append((scheme_id, error))

        threads = [
            threading.Thread(target=drive, args=(scheme_id,), daemon=True)
            for scheme_id in scheme_ids
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        assert not failures, failures

        rows = []
        for scheme_id in scheme_ids:
            verified, elapsed_s = results[scheme_id]
            assert verified > 0, "no plaintext verified for %s" % scheme_id
            rows.append(
                [scheme_id, "48", str(verified), "%.0f" % (48 / elapsed_s)]
            )
        print_table(
            "E13: one serve --http process, two scheme fleets driven concurrently",
            ["scheme", "requests", "verified", "req/s"],
            rows,
        )
    finally:
        proc.terminate()
        proc.wait(timeout=30)
        for setting in settings.values():
            setting.gateway.close()


# --------------------------------------------------- secured-wire legs (PR 9)

# Both security legs contribute to one BENCH_E13.json document; the
# snapshot is recorded once both have run (file order under pytest).
_SNAPSHOT: dict = {}

WELL_BEHAVED = ("clinic-a", "clinic-b", "clinic-c")
FLOODER = "flooder"
FLOODER_RATE = 40.0  # per-tenant cap the abuser keeps slamming into
REQUESTS_PER_CLIENT = 60
FLOODER_ATTEMPTS = 400
OVERHEAD_REQUESTS = 200
OVERHEAD_PAIRS = 15  # alternating plaintext/secured runs per shape
OVERHEAD_LIMIT = 1.15  # TLS + HMAC must stay within 15% of plaintext


def _percentile(samples, fraction):
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(len(ordered) * fraction))]


def _secured_setting(tmp_path, seed):
    """A granted TOY universe plus a credential store for the bench tenants."""
    from repro.service.auth import PolicyEngine, RequestVerifier, TenantCredentialStore

    setting = build_setting(
        group_name="TOY",
        shard_count=2,
        n_patients=4,
        n_types=2,
        n_delegatees=2,
        ciphertexts_per_pair=6,
        seed=seed,
    )
    store = TenantCredentialStore.initialize(tmp_path / "tenants.json")
    for tenant in WELL_BEHAVED:
        store.add(tenant, secret=tenant * 16)
    store.add(FLOODER, secret=FLOODER * 8, rate_per_s=FLOODER_RATE, burst=FLOODER_RATE)
    # A frozen policy clock: the flooder's burst never refills, so it is
    # throttled however many attempts per second the host lets it make.
    # Only the flooder's credential declares a rate, so no other tenant
    # reads this clock.
    setting.gateway.policy = PolicyEngine(store, clock=lambda: 0.0)
    return setting, store, RequestVerifier(store)


def _timed_worker(client, requests, latencies_ms, errors, lock):
    try:
        for request in requests:
            start = time.perf_counter()
            client.reencrypt(request)
            with lock:
                latencies_ms.append((time.perf_counter() - start) * 1000)
    except BaseException as error:  # noqa: BLE001 - reported to the bench
        with lock:
            errors.append(error)


def _client_stream(partition):
    """Cycle a partition's distinct requests up to the per-client count."""
    stream = []
    while len(stream) < REQUESTS_PER_CLIENT:
        stream.extend(partition[: REQUESTS_PER_CLIENT - len(stream)])
    return stream


def _drive_well_behaved(url, group, partitions, with_flooder):
    """3 signed clients x 60 requests; optionally one concurrent flooder.

    Returns (per-request latencies in ms, flooder ok count, flooder
    throttled count).  Every well-behaved request must succeed — errors
    propagate as assertions.
    """
    from repro.service.gateway import RateLimitedError as RateLimited

    latencies_ms: list[float] = []
    errors: list[BaseException] = []
    flooder_stats = {"ok": 0, "throttled": 0}
    lock = threading.Lock()
    stop = threading.Event()

    def flood():
        client = RemoteGateway(
            url, group, tenant=FLOODER, secret=FLOODER * 8, trace_requests=False
        )
        request = partitions[len(WELL_BEHAVED)][0]
        try:
            for _ in range(FLOODER_ATTEMPTS):
                if stop.is_set():
                    break
                try:
                    client.reencrypt(request)
                    flooder_stats["ok"] += 1
                except RateLimited:
                    flooder_stats["throttled"] += 1
        finally:
            client.close()

    clients = [
        RemoteGateway(url, group, tenant=tenant, secret=tenant * 16)
        for tenant in WELL_BEHAVED
    ]
    workers = [
        threading.Thread(
            target=_timed_worker,
            args=(client, _client_stream(partitions[i]), latencies_ms, errors, lock),
            daemon=True,
        )
        for i, client in enumerate(clients)
    ]
    flooder_thread = threading.Thread(target=flood, daemon=True) if with_flooder else None
    if flooder_thread is not None:
        flooder_thread.start()
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=300)
    stop.set()
    if flooder_thread is not None:
        flooder_thread.join(timeout=300)
    for client in clients:
        client.close()
    assert not errors, "well-behaved tenant failed under contention: %r" % errors
    assert len(latencies_ms) == len(WELL_BEHAVED) * REQUESTS_PER_CLIENT
    return latencies_ms, flooder_stats["ok"], flooder_stats["throttled"]


def test_e13_adversarial_tenant_cannot_starve_well_behaved(tmp_path):
    """Leg 3: signed multi-tenant load with one throttled abuser."""
    setting, store, verifier = _secured_setting(tmp_path, "e13-adversarial")
    partitions = _thread_partitions(setting)
    with AsyncGatewayServer(setting.gateway, setting.group, auth=verifier) as server:
        baseline_ms, _, _ = _drive_well_behaved(
            server.http_url, setting.group, partitions, with_flooder=False
        )
        contended_ms, flooder_ok, flooder_throttled = _drive_well_behaved(
            server.http_url, setting.group, partitions, with_flooder=True
        )
    snapshot = setting.gateway.metrics.snapshot()
    setting.gateway.close()

    baseline_p99 = _percentile(baseline_ms, 0.99)
    contended_p99 = _percentile(contended_ms, 0.99)
    print_table(
        "E13: adversarial tenant vs %d well-behaved signed clients" % len(WELL_BEHAVED),
        ["leg", "requests", "success", "p50 ms", "p99 ms"],
        [
            [
                "baseline",
                str(len(baseline_ms)),
                "100%",
                "%.1f" % _percentile(baseline_ms, 0.5),
                "%.1f" % baseline_p99,
            ],
            [
                "contended",
                str(len(contended_ms)),
                "100%",
                "%.1f" % _percentile(contended_ms, 0.5),
                "%.1f" % contended_p99,
            ],
            [
                "flooder",
                str(flooder_ok + flooder_throttled),
                "%d ok / %d throttled" % (flooder_ok, flooder_throttled),
                "-",
                "-",
            ],
        ],
    )

    # The abuser actually hit its per-tenant cap ...
    assert flooder_throttled > 0, "flooder was never rate limited"
    assert snapshot.rate_limited >= flooder_throttled
    # ... and the flooder's rejections are attributed to it, not to the
    # well-behaved tenants (authenticated attribution, not body-claimed).
    assert snapshot.tenant_outcomes.get((FLOODER, "rate-limited"), 0) > 0
    for tenant in WELL_BEHAVED:
        assert snapshot.tenant_outcomes.get((tenant, "rate-limited"), 0) == 0
    # Well-behaved p99 holds: a generous envelope (10x + scheduling
    # slack) that still fails on actual starvation, where the flooder's
    # unthrottled stream would multiply tail latency by orders of
    # magnitude.
    assert contended_p99 <= baseline_p99 * 10 + 50, (
        "well-behaved p99 degraded from %.1fms to %.1fms under flooding"
        % (baseline_p99, contended_p99)
    )

    _SNAPSHOT["adversarial_isolation"] = {
        "well_behaved_tenants": len(WELL_BEHAVED),
        "requests_per_client": REQUESTS_PER_CLIENT,
        "flooder_rate_per_s": FLOODER_RATE,
        "flooder_ok": flooder_ok,
        "flooder_throttled": flooder_throttled,
        "baseline_p50_ms": round(_percentile(baseline_ms, 0.5), 2),
        "baseline_p99_ms": round(baseline_p99, 2),
        "contended_p50_ms": round(_percentile(contended_ms, 0.5), 2),
        "contended_p99_ms": round(contended_p99, 2),
        "well_behaved_success_rate": 1.0,
    }
    _maybe_record()


OVERHEAD_BATCH = 8  # the E9 batched leg's size


def _sequential_elapsed(
    url, group, requests, batch_size=0, tenant=None, secret=None, tls_ca=None
):
    client = RemoteGateway(
        url, group, tenant=tenant, secret=secret, tls_ca=tls_ca, trace_requests=False
    )
    # Warm up outside the timed window: scheme negotiation, the dial and
    # (on https) the TLS handshake are per-connection costs the keep-alive
    # pool amortizes away; the leg measures steady-state per-request cost.
    client.scheme_info()
    start = time.perf_counter()
    if batch_size > 1:
        for offset in range(0, len(requests), batch_size):
            client.reencrypt_batch(requests[offset : offset + batch_size])
    else:
        for request in requests:
            client.reencrypt(request)
    elapsed_s = time.perf_counter() - start
    client.close()
    return elapsed_s


def test_e13_tls_hmac_overhead_within_budget(tmp_path):
    """Leg 4: the secured wire costs < 15% over plaintext (E9 shape)."""
    from repro.service.auth import RequestVerifier, TenantCredentialStore, server_context

    sys.path.insert(0, str(Path(repro.__file__).resolve().parents[2] / "tools"))
    try:
        import gen_dev_cert
    finally:
        sys.path.pop(0)
    cert_path, key_path = gen_dev_cert.generate(tmp_path / "tls")

    setting = _setting()
    requests = [
        request for partition in _thread_partitions(setting) for request in partition
    ][:OVERHEAD_REQUESTS]
    store = TenantCredentialStore.initialize(tmp_path / "tenants.json")
    store.add("bench", secret="c" * 64)

    keys = setting.gateway.list_keys()
    runs: dict[tuple[str, int], list[float]] = {}

    def fresh_gateway():
        # No modelled shard latency here: the leg measures the *relative*
        # cost of the security layer, so the plaintext side must not be
        # padded with sleeps that would dilute the overhead.
        gateway = ReEncryptionGateway(setting.backend, shard_count=2)
        for key in keys:
            gateway.grant(GrantRequest(tenant="bench", proxy_key=key))
        return gateway

    # Alternating pairs on fresh fleets: both configurations see
    # identical cache state, and a slow spell of the host lands on both
    # runs of a pair, so their ratio is read pair by pair.
    for _ in range(OVERHEAD_PAIRS):
        for batch_size in (0, OVERHEAD_BATCH):
            gateway = fresh_gateway()
            with AsyncGatewayServer(gateway) as server:
                runs.setdefault(("plain", batch_size), []).append(
                    _sequential_elapsed(
                        server.http_url, setting.group, requests, batch_size
                    )
                )
            gateway.close()

            gateway = fresh_gateway()
            server = AsyncGatewayServer(
                gateway,
                tls=server_context(str(cert_path), str(key_path)),
                auth=RequestVerifier(store),
            )
            with server:
                runs.setdefault(("secure", batch_size), []).append(
                    _sequential_elapsed(
                        server.http_url,
                        setting.group,
                        requests,
                        batch_size,
                        tenant="bench",
                        secret="c" * 64,
                        tls_ca=str(cert_path),
                    )
                )
            gateway.close()
    setting.gateway.close()

    rows = []
    overheads = {}
    for batch_size in (0, OVERHEAD_BATCH):
        plain, secure = runs[("plain", batch_size)], runs[("secure", batch_size)]
        median_overhead = statistics.median(s / p for p, s in zip(plain, secure)) - 1.0
        # The estimator this leg used before: best of the first 3 runs.
        best_of_3 = min(secure[:3]) / min(plain[:3]) - 1.0
        overheads[batch_size] = (median_overhead, best_of_3)
        shape = "unbatched" if batch_size == 0 else "batch=%d" % batch_size
        rows.append(
            [shape, "%.1f" % (statistics.median(plain) * 1000),
             "%.1f" % (statistics.median(secure) * 1000),
             "%+.1f%%" % (median_overhead * 100), "%+.1f%%" % (best_of_3 * 100)]
        )
    print_table(
        "E13: TLS + HMAC overhead, %d reencrypts (E9 workload), %d alternating pairs"
        % (len(requests), OVERHEAD_PAIRS),
        ["shape", "plaintext median ms", "secured median ms",
         "median pair overhead", "best-of-3 overhead"],
        rows,
    )

    # The budget is gated on the batched leg: per-round-trip security
    # cost (TLS records, one HMAC verify, replay bookkeeping) amortizes
    # across the batch items, which is how a throughput-sensitive
    # deployment runs.  The unbatched overhead is a fixed ~fraction of a
    # millisecond per round trip on TOY-sized requests; it is recorded,
    # and sanity-bounded rather than budget-gated.
    batched_overhead, batched_best_of_3 = overheads[OVERHEAD_BATCH]
    unbatched_overhead, unbatched_best_of_3 = overheads[0]
    _SNAPSHOT["tls_hmac_overhead"] = {
        "requests": len(requests),
        "pairs": OVERHEAD_PAIRS,
        "batch_size": OVERHEAD_BATCH,
        "batched_plaintext_median_ms": round(
            statistics.median(runs[("plain", OVERHEAD_BATCH)]) * 1000, 2
        ),
        "batched_secured_median_ms": round(
            statistics.median(runs[("secure", OVERHEAD_BATCH)]) * 1000, 2
        ),
        "batched_overhead_fraction": round(batched_overhead, 4),
        "batched_best_of_3_overhead_fraction": round(batched_best_of_3, 4),
        "unbatched_overhead_fraction": round(unbatched_overhead, 4),
        "unbatched_best_of_3_overhead_fraction": round(unbatched_best_of_3, 4),
        "budget_fraction": round(OVERHEAD_LIMIT - 1.0, 4),
    }
    # Recorded before the gate: a snapshot holds what was measured, and
    # the budget beside it says whether that passed.
    _maybe_record()
    assert batched_overhead <= OVERHEAD_LIMIT - 1.0, (
        "secured wire overhead %.1f%% exceeds the %.0f%% budget"
        % (batched_overhead * 100, (OVERHEAD_LIMIT - 1) * 100)
    )
    assert unbatched_overhead < 1.0, (
        "unbatched secured wire more than doubled cost: %+.1f%%"
        % (unbatched_overhead * 100)
    )


# --------------------------------------------- mux-vs-pool curve (PR 10)

CURVE_CLIENTS = (1, 8, 64, 512)
CURVE_REQUESTS = 1024
MUX_AHEAD_AT = 64  # the concurrency level where mux must pull ahead


def _curve_stream(setting):
    """1024 requests cycled over the 96 distinct granted routes."""
    base = [
        request for partition in _thread_partitions(setting) for request in partition
    ]
    stream = []
    while len(stream) < CURVE_REQUESTS:
        stream.extend(base[: CURVE_REQUESTS - len(stream)])
    return stream


def _drive_curve_clients(client, stream, n_clients):
    """Split the stream across n_clients barrier-started threads sharing
    one client object; returns the wall clock of the concurrent phase."""
    chunks = [stream[i::n_clients] for i in range(n_clients)]
    errors: list[BaseException] = []
    lock = threading.Lock()
    start_line = threading.Barrier(n_clients + 1)
    finish_line = threading.Barrier(n_clients + 1)

    def worker(requests):
        try:
            start_line.wait(timeout=120)
            for request in requests:
                client.reencrypt(request)
            finish_line.wait(timeout=600)
        except BaseException as error:  # noqa: BLE001 - reported to the bench
            with lock:
                errors.append(error)
            # Break both barriers so the run fails with the real error
            # instead of deadlocking the remaining workers.
            start_line.abort()
            finish_line.abort()

    threads = [
        threading.Thread(target=worker, args=(chunk,), daemon=True)
        for chunk in chunks
    ]
    for thread in threads:
        thread.start()
    try:
        start_line.wait(timeout=120)
        start = time.perf_counter()
        finish_line.wait(timeout=600)
    except threading.BrokenBarrierError:
        assert not errors, errors
        raise
    elapsed_s = time.perf_counter() - start
    for thread in threads:
        thread.join(timeout=60)
    assert not errors, errors
    return elapsed_s


def test_e13_mux_connection_curve():
    """Leg 5: connections-vs-throughput for the pooled client over the
    server's HTTP/1.1 transport and for the framed mux wire.

    The same warm-cache reencrypt stream is pushed by 1, 8, 64 and 512
    concurrent client threads.  The pooled client pays one socket per
    concurrent client; the mux client multiplexes every thread over a
    single framed connection.  At low concurrency the two are
    equivalent; once connection setup and per-connection reads dominate
    (>= 64 clients) the mux side must be ahead of the pool.  Both
    transports call the same request engine, so the columns differ only
    in transport.  Responses stay on warm gateway caches so the leg
    measures transport structure, not scheme math.
    """
    setting = _setting()
    group = setting.group
    stream = _curve_stream(setting)
    # Warm every distinct route once in-process: both transports then
    # serve pure cache hits out of the same gateway object.
    seen = set()
    for request in stream:
        key = id(request)
        if key not in seen:
            seen.add(key)
            setting.gateway.reencrypt(request)

    curve = {}
    rows = []
    for n_clients in CURVE_CLIENTS:
        with AsyncGatewayServer(setting.gateway, group) as server:
            pooled = RemoteGateway(
                server.http_url, group, pool_size=n_clients, trace_requests=False
            )
            http_s = _drive_curve_clients(pooled, stream, n_clients)
            dials = pooled.connections_opened
            pooled.close()

        with AsyncGatewayServer(setting.gateway, group, max_streams=1024) as server:
            mux = MuxRemoteGateway(server.url, group, trace_requests=False)
            mux_s = _drive_curve_clients(mux, stream, n_clients)
            peak_streams = mux.peak_streams
            assert mux.connections_opened == 1
            mux.close()

        curve[n_clients] = {
            "http_s": http_s,
            "mux_s": mux_s,
            "http_dials": dials,
            "mux_peak_streams": peak_streams,
        }
        rows.append(
            [
                str(n_clients),
                "%.0f" % (CURVE_REQUESTS / http_s),
                str(dials),
                "%.0f" % (CURVE_REQUESTS / mux_s),
                str(peak_streams),
                "%.2fx" % (http_s / mux_s),
            ]
        )
    setting.gateway.close()

    print_table(
        "E13: connections vs throughput, %d warm reencrypts per point"
        % CURVE_REQUESTS,
        ["clients", "pool req/s", "dials", "mux req/s", "peak streams", "mux gain"],
        rows,
    )

    _SNAPSHOT["mux_connection_curve"] = {
        "requests_per_point": CURVE_REQUESTS,
        "mux_ahead_at": MUX_AHEAD_AT,
        "points": {
            str(n_clients): {
                "aio_http_req_s": round(CURVE_REQUESTS / point["http_s"], 1),
                "mux_req_s": round(CURVE_REQUESTS / point["mux_s"], 1),
                "aio_http_dials": point["http_dials"],
                "mux_peak_streams": point["mux_peak_streams"],
                "mux_gain": round(point["http_s"] / point["mux_s"], 3),
            }
            for n_clients, point in curve.items()
        },
    }
    _maybe_record()

    # The acceptance anchor: one multiplexed socket overtakes the
    # connection pool once per-connection overhead dominates.
    for n_clients in CURVE_CLIENTS:
        if n_clients < MUX_AHEAD_AT:
            continue
        point = curve[n_clients]
        assert point["mux_s"] < point["http_s"], (
            "mux (%.1fms) behind the pool (%.1fms) at %d clients"
            % (point["mux_s"] * 1000, point["http_s"] * 1000, n_clients)
        )


# ------------------------------------------ batch flood on one pool thread

FLOOD_GROUP = "SS256"
FLOOD_CONNECTIONS = 4
FLOOD_BATCH = 8
# 4 patients x 3 types x 32 records x 3 doctors = 1,152 (record, doctor)
# pairs, more than the server's 1,024-entry result cache: batches that
# cycle through them miss it and pay their pairings.
FLOOD_RECORDS = 32
SINGLE_INTERVAL_S = 0.010
SINGLE_SAMPLES = 1000  # per phase: the p99 then has 10 samples beyond it
MAX_SERVER_THREADS = 2  # the event loop and one pool thread


def _server_threads(pid):
    return len(os.listdir("/proc/%d/task" % pid))


def _timed_singles(client, request, pid):
    """Read one cached pair every ``SINGLE_INTERVAL_S``, open loop.

    Returns (latencies in ms from each read's due time, the same reads'
    round trips from their send, failed reads, most threads the server
    held).  A read sent late is late by the wait of the reads before it.
    """
    from_due, round_trips, failed, threads = [], [], 0, 0
    start = time.perf_counter()
    for k in range(SINGLE_SAMPLES):
        due = start + k * SINGLE_INTERVAL_S
        pause = due - time.perf_counter()
        if pause > 0:
            time.sleep(pause)
        sent = time.perf_counter()
        try:
            hit = client.reencrypt(request).cache_hit
        except Exception:  # noqa: BLE001 - counted and asserted by the leg
            failed += 1
            continue
        done = time.perf_counter()
        from_due.append((done - due) * 1000)
        round_trips.append((done - sent) * 1000)
        failed += not hit  # the single is kept cached; a miss is a fault
        threads = max(threads, _server_threads(pid))
    return from_due, round_trips, failed, threads


def _flood(client, batches, stop, tally, answers, lock):
    """Send ``batches`` round and round until ``stop``; keep the first
    item of each batch's first answer in ``answers``."""
    position = 0
    while not stop.is_set():
        batch = batches[position % len(batches)]
        try:
            responses = client.reencrypt_batch([request for request, _message in batch])
        except Exception:  # noqa: BLE001 - counted and asserted by the leg
            with lock:
                tally["failed"] += 1
            continue
        if position < len(batches):
            answers.append((batch[0], responses[0]))
        position += 1
        with lock:
            tally["batches"] += 1


def test_e13_batch_flood_keeps_singles_on_the_loop():
    """Leg 6: singles against a batch flood, on one pool thread."""
    setting = build_setting(
        group_name=FLOOD_GROUP,
        shard_count=1,
        n_patients=4,
        n_types=3,
        n_delegatees=3,
        ciphertexts_per_pair=FLOOD_RECORDS,
        seed="e13-batch-flood",
    )
    # Batches of 8 records sharing one delegation, dealt to the flooders.
    batches = [
        [
            (ReEncryptRequest(patient, ciphertext, DELEGATEE_DOMAIN, delegatee), message)
            for ciphertext, message in entries[offset : offset + FLOOD_BATCH]
        ]
        for (patient, _type_label), entries in sorted(setting.pool.items())
        for delegatee in setting.delegatees
        for offset in range(0, len(entries), FLOOD_BATCH)
    ]
    single = batches[0][0][0]
    proc, address = _spawn_server(group=FLOOD_GROUP)
    clients = [
        MuxRemoteGateway("mux://" + address, setting.backend, trace_requests=False)
        for _ in range(FLOOD_CONNECTIONS + 1)
    ]
    tally = {"batches": 0, "failed": 0}
    answers: list = []
    lock = threading.Lock()
    stop = threading.Event()
    flooders = [
        threading.Thread(
            target=_flood,
            args=(clients[i], batches[i::FLOOD_CONNECTIONS], stop, tally, answers, lock),
            daemon=True,
        )
        for i in range(FLOOD_CONNECTIONS)
    ]
    try:
        for key in setting.gateway.list_keys():
            clients[0].grant(GrantRequest(tenant="bench", proxy_key=key))
        for client in clients:
            client.scheme_info()
        reader = clients[FLOOD_CONNECTIONS]
        reader.reencrypt(single)  # cached from here on
        alone = _timed_singles(reader, single, proc.pid)
        for flooder in flooders:
            flooder.start()
        deadline = time.monotonic() + 60
        while tally["batches"] < FLOOD_CONNECTIONS and time.monotonic() < deadline:
            time.sleep(0.01)
        flood = _timed_singles(reader, single, proc.pid)
        stop.set()
        for flooder in flooders:
            flooder.join(timeout=120)
        assert not any(flooder.is_alive() for flooder in flooders)
        threads = max(alone[3], flood[3], _server_threads(proc.pid))
        # Decrypted after the timed phases, so the checks cost them nothing.
        for (request, message), response in answers:
            if setting.backend.decrypt_reencrypted(
                response.ciphertext, setting.delegatee_domain, request.delegatee
            ) != message:
                tally["failed"] += 1
    finally:
        stop.set()
        for client in clients:
            client.close()
        proc.terminate()
        proc.wait(timeout=30)
        proc.stdout.close()
        setting.gateway.close()
    failed = alone[2] + flood[2] + tally["failed"]
    phases = {"alone": alone, "flood": flood}
    fractions = (0.5, 0.9, 0.99)
    print_table(
        "E13: %s cached single every %.0f ms, alone and against %d connections "
        "flooding batches of %d (%d batches); %d server threads, %d failed"
        % (FLOOD_GROUP, SINGLE_INTERVAL_S * 1000, FLOOD_CONNECTIONS, FLOOD_BATCH,
           tally["batches"], threads, failed),
        ["single reads", "samples", "p50 / p90 / p99 ms from due", "round trip ms"],
        [
            [phase, str(len(from_due))]
            + [" / ".join("%.2f" % _percentile(samples, f) for f in fractions)
               for samples in (from_due, round_trips)]
            for phase, (from_due, round_trips, _failed, _threads) in phases.items()
        ],
    )
    _SNAPSHOT["batch_flood"] = {
        "group": FLOOD_GROUP,
        "single_interval_ms": SINGLE_INTERVAL_S * 1000,
        "samples_per_phase": SINGLE_SAMPLES,
        "flood_connections": FLOOD_CONNECTIONS,
        "batch_size": FLOOD_BATCH,
        "flood_batches": tally["batches"],
        **{
            "%s_%sp%d_ms" % (phase, kind, round(f * 100)): round(_percentile(samples, f), 2)
            for phase, result in phases.items()
            for kind, samples in (("", result[0]), ("round_trip_", result[1]))
            for f in fractions
        },
        "server_threads": threads,
        "failed_requests": failed,
    }
    _maybe_record()
    assert failed == 0, "%d requests failed" % failed
    assert tally["batches"] > 0, "no batch overlapped the single reads"
    assert threads <= MAX_SERVER_THREADS, (
        "the server held %d threads; batches on one pool thread need %d"
        % (threads, MAX_SERVER_THREADS)
    )


# -------------------------------------------- a small batch behind a large one

LARGE_BATCH = 512
SMALL_BATCH = 8
BEHIND_TRIALS = 5


def _streams_in_flight(client):
    """The server's ``repro_wire_streams_in_flight`` gauge, this read included."""
    for line in client.metrics_text().splitlines():
        if line.startswith("repro_wire_streams_in_flight "):
            return int(float(line.split()[1]))
    raise AssertionError("no repro_wire_streams_in_flight gauge")


def test_e13_small_batch_behind_a_large_one():
    """Leg 7: a cold batch of 8 sent while a cold batch of 512 is served."""
    setting = build_setting(
        group_name=FLOOD_GROUP,
        shard_count=2,
        n_patients=2,
        n_types=1,
        n_delegatees=3,
        ciphertexts_per_pair=LARGE_BATCH + 1,  # the last one warms keys
        seed="e13-batch-behind",
    )
    large_patient, small_patient = setting.patients
    type_label = setting.types[0]
    # On different shards of the server's two, so no shard lock orders
    # the two batches: only the server's threads do.
    ring = ShardRouter(["shard-00", "shard-01"])
    assert ring.shard_for(setting.delegator_domain, large_patient, type_label) != (
        ring.shard_for(setting.delegator_domain, small_patient, type_label)
    )
    large_pool = setting.pool[(large_patient, type_label)]
    small_records = setting.pool[(small_patient, type_label)]
    small_pool = iter(small_records[:LARGE_BATCH])
    small_reader = setting.delegatees[0]

    def request(patient, ciphertext, delegatee):
        return ReEncryptRequest(patient, ciphertext, DELEGATEE_DOMAIN, delegatee)

    proc, address = _spawn_server(group=FLOOD_GROUP)
    large_client, small_client = (
        MuxRemoteGateway("mux://" + address, setting.backend, trace_requests=False)
        for _ in range(2)
    )
    alone_ms, behind_ms, large_ms, checks = [], [], [], []

    def small_batch(into):
        batch = [next(small_pool) for _ in range(SMALL_BATCH)]
        started = time.perf_counter()
        responses = small_client.reencrypt_batch(
            [request(small_patient, ciphertext, small_reader) for ciphertext, _ in batch]
        )
        into.append((time.perf_counter() - started) * 1000)
        checks.extend(
            (small_reader, message, response)
            for (_ciphertext, message), response in zip(batch, responses)
        )

    def large_batch(delegatee):
        started = time.perf_counter()
        responses = large_client.reencrypt_batch(
            [request(large_patient, ciphertext, delegatee)
             for ciphertext, _ in large_pool[:LARGE_BATCH]]
        )
        large_ms.append((time.perf_counter() - started) * 1000)
        checks.append((delegatee, large_pool[0][1], responses[0]))

    try:
        for key in setting.gateway.list_keys():
            large_client.grant(GrantRequest(tenant="bench", proxy_key=key))
        for delegatee in setting.delegatees:  # each key's first use, untimed
            large_client.reencrypt(request(large_patient, large_pool[-1][0], delegatee))
        small_client.reencrypt(request(small_patient, small_records[-1][0], small_reader))
        for trial in range(BEHIND_TRIALS):
            small_batch(alone_ms)
            # Three readers in turn: 3 x 512 pairs overflow the server's
            # 1,024-entry result cache, so every large batch is cold.
            sender = threading.Thread(
                target=large_batch,
                args=(setting.delegatees[trial % len(setting.delegatees)],),
            )
            sender.start()
            deadline = time.monotonic() + 30
            while _streams_in_flight(small_client) < 2:  # the large batch and this read
                assert time.monotonic() < deadline, "the large batch never arrived"
                time.sleep(0.002)
            small_batch(behind_ms)
            sender.join(timeout=120)
            assert not sender.is_alive()
        # Decrypted after the timed trials, so the checks cost them nothing.
        failed = sum(
            setting.backend.decrypt_reencrypted(
                response.ciphertext, setting.delegatee_domain, delegatee
            ) != message
            for delegatee, message, response in checks
        )
    finally:
        large_client.close()
        small_client.close()
        proc.terminate()
        proc.wait(timeout=30)
        proc.stdout.close()
        setting.gateway.close()
    print_table(
        "E13: %s cold batch of %d sent while a cold batch of %d is served "
        "(two connections, two shards), %d trials; %d failed"
        % (FLOOD_GROUP, SMALL_BATCH, LARGE_BATCH, BEHIND_TRIALS, failed),
        ["batch", "median ms", "max ms"],
        [
            [name, "%.1f" % statistics.median(samples), "%.1f" % max(samples)]
            for name, samples in (
                ("%d alone" % SMALL_BATCH, alone_ms),
                ("%d behind %d" % (SMALL_BATCH, LARGE_BATCH), behind_ms),
                ("%d" % LARGE_BATCH, large_ms),
            )
        ],
    )
    _SNAPSHOT["batch_behind_batch"] = {
        "group": FLOOD_GROUP,
        "small_batch": SMALL_BATCH,
        "large_batch": LARGE_BATCH,
        "trials": BEHIND_TRIALS,
        "small_alone_median_ms": round(statistics.median(alone_ms), 1),
        "small_behind_median_ms": round(statistics.median(behind_ms), 1),
        "small_behind_max_ms": round(max(behind_ms), 1),
        "large_median_ms": round(statistics.median(large_ms), 1),
        "failed_requests": failed,
    }
    _maybe_record()
    assert len(large_ms) == len(behind_ms) == BEHIND_TRIALS
    assert failed == 0, "%d answers did not decrypt" % failed


def _maybe_record():
    required = {
        "adversarial_isolation", "tls_hmac_overhead", "mux_connection_curve", "batch_flood",
        "batch_behind_batch",
    }
    if required <= set(_SNAPSHOT):
        from repro.bench.report import record_bench_snapshot

        record_bench_snapshot(
            "E13",
            {
                "experiment": "E13 secured wire: tenant isolation and TLS+HMAC cost",
                "group": "TOY",
                "threads": THREADS,
                **_SNAPSHOT,
            },
        )
