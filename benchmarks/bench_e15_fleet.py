"""E15 — the multi-process fleet against one server process.

A fleet is a router — a plain :class:`~repro.service.gateway.ReEncryptionGateway`
whose shards are :class:`~repro.service.fleet.RemoteShard` objects — over
N worker processes that run the transformations and hold no keys.
Three measured legs:

1. **Process sharding against its hop (TOY).**  The E9 repeated-delegatee
   workload, batched, runs through a 1-worker fleet and a 4-worker fleet:
   identical wire stack and router, the only variable is how many OS
   processes share the crypto work.  The router runs a batch's groups
   one after another, so a batch crosses at most one worker at a time.
   On a multi-core host the 4-worker fleet must win; on a single core
   the numbers are recorded but the speedup is not asserted.

2. **Cold reads on SS256: 2 workers on 2 cores against one process.**
   Four client threads read distinct ciphertexts (every read misses the
   cache and pays one pairing) from a ``serve --http`` process and from
   a ``serve --http --fleet 2`` router.  Reported whatever it reads;
   nothing is asserted but that every answer decrypts.

3. **Resize never stops traffic** (its own test, host-independent).
   While driver threads read through a 4-worker fleet, it grows to 6
   workers: the resize starts the processes and swaps the router's ring
   under every shard lock, and no key moves.  **Zero** requests fail and
   every key is still served; the longest a request waited is recorded.

Numbers land in ``BENCH_E15.json`` via ``tools/record_bench.py e15``.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import repro
from repro.bench.report import print_table, record_bench_snapshot
from repro.service.driver import DELEGATEE_DOMAIN, build_setting, drive_requests
from repro.service.fleet import FleetSupervisor, fleet_gateway
from repro.service.gateway import GrantRequest, ReEncryptRequest
from repro.service.wire import connect_gateway

N_REQUESTS = 96
BATCH_SIZE = 4
FLEET_WORKERS = 4
RESIZE_TO = 6
DRIVER_THREADS = 2
COLD_GROUP = "SS256"
COLD_WORKERS = 2
COLD_THREADS = 4
COLD_CIPHERTEXTS_PER_PAIR = 24

# What each leg measured, recorded together by whichever test runs last.
_RESULTS: dict = {}


def _record() -> None:
    record_bench_snapshot(
        "e15",
        {"experiment": "e15-process-fleet", "cores": len(os.sched_getaffinity(0)), **_RESULTS},
    )


def _setting(seed: str, group_name: str = "TOY", ciphertexts_per_pair: int = 2):
    """The E9 shape: 4 patients x 3 types x 3 delegatees."""
    return build_setting(
        group_name=group_name,
        shard_count=1,
        n_patients=4,
        n_delegatees=3,
        n_types=3,
        ciphertexts_per_pair=ciphertexts_per_pair,
        seed=seed,
    )


def _grant_all(setting, gateway) -> int:
    keys = setting.gateway.list_keys()
    for key in keys:
        gateway.grant(GrantRequest(tenant="bench", proxy_key=key))
    return len(keys)


def _fleet(workers: int, **options):
    supervisor = FleetSupervisor("tipre/v1", shard_count=workers, group_name="TOY")
    return supervisor, fleet_gateway(supervisor, telemetry=False, **options)


def _timed_fleet_run(workers: int, seed: str) -> tuple[int, float]:
    """Verified E9 workload through a fresh ``workers``-process fleet."""
    setting = _setting(seed)
    supervisor, gateway = _fleet(workers)
    try:
        _grant_all(setting, gateway)
        start = time.perf_counter()
        verified = drive_requests(
            setting,
            N_REQUESTS,
            seed=seed + "-requests",
            batch_size=BATCH_SIZE,
            verify_every=4,
            gateway=gateway,
        )
        elapsed_s = time.perf_counter() - start
        assert verified > 0, "nothing verified through the %d-worker fleet" % workers
        return verified, elapsed_s
    finally:
        gateway.close()
        supervisor.close()
        setting.gateway.close()


def test_e15_process_fleet_vs_single_process():
    cores = len(os.sched_getaffinity(0))
    single_verified, single_s = _timed_fleet_run(1, "e15-single")
    fleet_verified, fleet_s = _timed_fleet_run(FLEET_WORKERS, "e15-fleet")
    speedup = single_s / fleet_s if fleet_s else 0.0

    print_table(
        "E15: E9 workload, 1 worker process vs %d" % FLEET_WORKERS,
        ["workers", "requests", "verified", "elapsed ms", "req/s"],
        [
            ["1", str(N_REQUESTS), str(single_verified),
             "%.0f" % (single_s * 1000), "%.0f" % (N_REQUESTS / single_s)],
            [str(FLEET_WORKERS), str(N_REQUESTS), str(fleet_verified),
             "%.0f" % (fleet_s * 1000), "%.0f" % (N_REQUESTS / fleet_s)],
        ],
    )
    _RESULTS["workload"] = {
        "requests": N_REQUESTS,
        "batch_size": BATCH_SIZE,
        "single_process_ms": round(single_s * 1000, 1),
        "fleet_ms": round(fleet_s * 1000, 1),
        "fleet_workers": FLEET_WORKERS,
        "speedup": round(speedup, 3),
    }
    _record()

    # The parallelism claim needs parallel hardware; a single-core
    # container records the numbers without asserting the win.
    if cores >= 2:
        assert speedup > 1.0, (
            "%d worker processes (%.0fms) did not beat one (%.0fms) on %d cores"
            % (FLEET_WORKERS, fleet_s * 1000, single_s * 1000, cores)
        )


# ------------------------------------------------------ SS256 cold reads


def _serve(*flags: str) -> tuple[subprocess.Popen, str]:
    """A ``serve --http 0`` process on the cold-read group and its mux URL."""
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--http", "0", "--group", COLD_GROUP,
         *flags],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    line = process.stdout.readline()
    if "listening on" not in line:
        process.kill()
        process.wait()
        raise AssertionError("serve %s did not start: %r" % (" ".join(flags), line))
    return process, line.split()[line.split().index("on") + 1]


def _cold_reads(url: str, setting, reads) -> float:
    """``reads`` from ``COLD_THREADS`` threads over one mux link; wall clock."""
    client = connect_gateway(url, setting.group, trace_requests=False)
    for key in setting.gateway.list_keys():
        client.grant(GrantRequest(tenant="bench", proxy_key=key))
    answers: list = [None] * len(reads)
    errors: list = []

    def worker(offset: int) -> None:
        try:
            for position in range(offset, len(reads), COLD_THREADS):
                answers[position] = client.reencrypt(reads[position][0])
        except BaseException as error:  # noqa: BLE001 - reported below
            errors.append(error)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(COLD_THREADS)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed_s = time.perf_counter() - start
    client.close()
    assert not errors, errors[0]
    assert not any(answer.cache_hit for answer in answers), "a cold read hit the cache"
    for (request, message), answer in list(zip(reads, answers))[::16]:
        recovered = setting.backend.decrypt_reencrypted(
            answer.ciphertext, setting.delegatee_domain, request.delegatee
        )
        assert recovered == message
    return elapsed_s


def test_e15_ss256_cold_reads_two_workers_vs_one_process():
    setting = _setting("e15-cold", COLD_GROUP, COLD_CIPHERTEXTS_PER_PAIR)
    reads = [
        (
            ReEncryptRequest(
                tenant=patient,
                ciphertext=ciphertext,
                delegatee_domain=DELEGATEE_DOMAIN,
                delegatee=setting.delegatees[index % len(setting.delegatees)],
            ),
            message,
        )
        for (patient, _type_label), entries in sorted(setting.pool.items())
        for index, (ciphertext, message) in enumerate(entries)
    ]
    timings = {}
    try:
        for label, flags in (
            ("one process", ("--shards", str(COLD_WORKERS))),
            ("fleet", ("--fleet", str(COLD_WORKERS))),
        ):
            process, url = _serve(*flags)
            try:
                timings[label] = _cold_reads(url, setting, reads)
            finally:
                process.terminate()
                process.wait(timeout=30)
                process.stdout.close()
    finally:
        setting.gateway.close()
    speedup = timings["one process"] / timings["fleet"]
    print_table(
        "E15: %s cold reads, %d client threads, one process vs %d workers"
        % (COLD_GROUP, COLD_THREADS, COLD_WORKERS),
        ["server", "reads", "elapsed ms", "reads/s"],
        [
            [label, str(len(reads)), "%.0f" % (seconds * 1000), "%.0f" % (len(reads) / seconds)]
            for label, seconds in timings.items()
        ],
    )
    _RESULTS["ss256_cold_read"] = {
        "group": COLD_GROUP,
        "reads": len(reads),
        "client_threads": COLD_THREADS,
        "fleet_workers": COLD_WORKERS,
        "single_process_ms": round(timings["one process"] * 1000, 1),
        "fleet_ms": round(timings["fleet"] * 1000, 1),
        "speedup": round(speedup, 3),
    }
    _record()


# ------------------------------------------------------ resize under load


def test_e15_resize_under_load_fails_no_request():
    """Grow the fleet mid-traffic; zero failed requests, always asserted."""
    setting = _setting("e15-resize")
    # A one-entry result cache: reads cross to the workers, and wait on
    # the shard locks while the resize holds them all.
    supervisor, gateway = _fleet(FLEET_WORKERS, result_cache_size=1)
    try:
        granted = _grant_all(setting, gateway)
        pool_keys = sorted(setting.pool)
        failures: list[BaseException] = []
        served = [0]
        waits: list[float] = []
        stop = threading.Event()

        def hammer(offset: int) -> None:
            position = offset
            while not stop.is_set():
                (patient, type_label) = pool_keys[position % len(pool_keys)]
                delegatee = setting.delegatees[position % len(setting.delegatees)]
                ciphertext, message = setting.pool[(patient, type_label)][0]
                position += 1
                request = ReEncryptRequest(
                    tenant=patient,
                    ciphertext=ciphertext,
                    delegatee_domain=DELEGATEE_DOMAIN,
                    delegatee=delegatee,
                )
                try:
                    start = time.perf_counter()
                    response = gateway.reencrypt(request)
                    waits.append(time.perf_counter() - start)
                    recovered = setting.backend.decrypt_reencrypted(
                        response.ciphertext, setting.delegatee_domain, delegatee
                    )
                    assert recovered == message
                except BaseException as error:  # noqa: BLE001 - asserted below
                    failures.append(error)
                    return
                served[0] += 1

        threads = [
            threading.Thread(target=hammer, args=(offset,), daemon=True)
            for offset in range(DRIVER_THREADS)
        ]
        for thread in threads:
            thread.start()
        time.sleep(0.2)
        start = time.perf_counter()
        try:
            report = gateway.resize(RESIZE_TO)
        finally:
            resize_s = time.perf_counter() - start
            time.sleep(0.3)
            stop.set()
            for thread in threads:
                thread.join(timeout=60)

        assert not failures, "request failed during the resize: %r" % failures[0]
        assert served[0] > 0, "no traffic overlapped the resize"
        assert report.new_shard_count == RESIZE_TO
        assert gateway.key_count() == granted
        # Every key is still served, by whichever worker now owns it.
        for (patient, type_label) in pool_keys:
            for delegatee in setting.delegatees:
                ciphertext, message = setting.pool[(patient, type_label)][1]
                response = gateway.reencrypt(
                    ReEncryptRequest(patient, ciphertext, DELEGATEE_DOMAIN, delegatee)
                )
                recovered = setting.backend.decrypt_reencrypted(
                    response.ciphertext, setting.delegatee_domain, delegatee
                )
                assert recovered == message
        max_wait_ms = max(waits) * 1000

        print_table(
            "E15: resize %d -> %d under sustained load" % (FLEET_WORKERS, RESIZE_TO),
            ["keys", "moved", "resize ms", "requests", "longest wait ms", "failed"],
            [[str(granted), str(report.keys_moved), "%.0f" % (resize_s * 1000),
              str(served[0]), "%.0f" % max_wait_ms, "0"]],
        )
        _RESULTS["resize_under_load"] = {
            "from_workers": FLEET_WORKERS,
            "to_workers": RESIZE_TO,
            "keys": granted,
            "keys_moved": report.keys_moved,
            "resize_ms": round(resize_s * 1000, 1),
            "requests": served[0],
            "longest_wait_ms": round(max_wait_ms, 1),
            "failed_requests": 0,
        }
        _record()
    finally:
        gateway.close()
        supervisor.close()
        setting.gateway.close()
