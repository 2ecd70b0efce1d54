"""E15 — the multi-process shard fleet against one server process.

The fleet promotes the wire protocol to the shard boundary: N
independent ``repro-pre serve`` worker processes behind a
:class:`~repro.service.fleet.FleetGateway` routing tier.  Two measured
claims:

1. **Process sharding pays for its hop.**  The E9 repeated-delegatee
   workload (batched, so the routing tier fans each batch out across
   worker processes concurrently) runs against a 1-worker fleet and a
   4-worker fleet — identical wire stack, identical routing tier, the
   only variable is how many OS processes share the crypto work.  On a
   multi-core host the 4-worker fleet must win; on a single core the
   numbers are recorded but the speedup is not asserted (there is no
   parallelism to harvest).

2. **Resize never stops traffic.**  While driver threads hammer the
   4-worker fleet with verified re-encryptions, the fleet grows to 6
   workers — key migration streams over the wire between processes —
   and **zero** requests fail during the migration.  This is asserted
   unconditionally.

Numbers land in ``BENCH_E15.json`` via ``tools/record_bench.py e15``.

TOY parameters: like E9-E14 this measures workload structure (process
fan-out, migration overlap), not key size.
"""

from __future__ import annotations

import os
import threading
import time

from repro.bench.report import print_table, record_bench_snapshot
from repro.service.driver import DELEGATEE_DOMAIN, build_setting, drive_requests
from repro.service.fleet import FleetGateway, FleetSupervisor
from repro.service.gateway import GrantRequest, ReEncryptRequest

N_REQUESTS = 96
BATCH_SIZE = 4
FLEET_WORKERS = 4
RESIZE_TO = 6
DRIVER_THREADS = 2


def _setting(seed: str):
    """The E9 shape: 4 patients x 3 types x 3 delegatees, 2 ciphertexts."""
    return build_setting(
        group_name="TOY",
        shard_count=1,
        n_patients=4,
        n_delegatees=3,
        n_types=3,
        ciphertexts_per_pair=2,
        seed=seed,
    )


def _grant_all(setting, gateway) -> int:
    keys = setting.gateway.list_keys()
    for key in keys:
        gateway.grant(GrantRequest(tenant="bench", proxy_key=key))
    return len(keys)


def _timed_fleet_run(workers: int, tmp_path, seed: str) -> tuple[int, float]:
    """Verified E9 workload through a fresh ``workers``-process fleet."""
    setting = _setting(seed)
    supervisor = FleetSupervisor(
        "tipre/v1",
        shard_count=workers,
        state_root=tmp_path / ("state-%d" % workers),
        group_name="TOY",
    )
    gateway = FleetGateway(supervisor, telemetry=False)
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
        setting.gateway.close()


def test_e15_process_fleet_vs_single_process(tmp_path):
    cores = len(os.sched_getaffinity(0))
    single_verified, single_s = _timed_fleet_run(1, tmp_path, "e15-single")
    fleet_verified, fleet_s = _timed_fleet_run(FLEET_WORKERS, tmp_path, "e15-fleet")
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

    resize_document = _resize_under_load(tmp_path)

    record_bench_snapshot(
        "e15",
        {
            "experiment": "e15-process-fleet",
            "cores": cores,
            "workload": {
                "requests": N_REQUESTS,
                "batch_size": BATCH_SIZE,
                "single_process_ms": round(single_s * 1000, 1),
                "fleet_ms": round(fleet_s * 1000, 1),
                "fleet_workers": FLEET_WORKERS,
                "speedup": round(speedup, 3),
            },
            "resize_under_load": resize_document,
        },
    )

    # The parallelism claim needs parallel hardware; a single-core
    # container records the numbers without asserting the win.
    if cores >= 2:
        assert speedup > 1.0, (
            "%d worker processes (%.0fms) did not beat one (%.0fms) on %d cores"
            % (FLEET_WORKERS, fleet_s * 1000, single_s * 1000, cores)
        )


def _resize_under_load(tmp_path) -> dict:
    """Grow the fleet mid-traffic; zero failed requests, always asserted."""
    setting = _setting("e15-resize")
    supervisor = FleetSupervisor(
        "tipre/v1",
        shard_count=FLEET_WORKERS,
        state_root=tmp_path / "state-resize",
        group_name="TOY",
    )
    gateway = FleetGateway(supervisor, telemetry=False)
    try:
        granted = _grant_all(setting, gateway)
        pool_keys = sorted(setting.pool)
        failures: list[BaseException] = []
        served = [0]
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
                    response = gateway.reencrypt(request)
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
        start = time.perf_counter()
        try:
            report = gateway.resize(RESIZE_TO)
        finally:
            time.sleep(0.3)
            stop.set()
            for thread in threads:
                thread.join(timeout=60)
        resize_s = time.perf_counter() - start

        assert not failures, "request failed during the migration: %r" % failures[0]
        assert served[0] > 0, "no traffic overlapped the resize"
        assert report.new_shard_count == RESIZE_TO
        assert gateway.key_count() == granted

        print_table(
            "E15: rolling resize %d -> %d under sustained load"
            % (FLEET_WORKERS, RESIZE_TO),
            ["keys", "moved", "resize ms", "requests during", "failed"],
            [[str(granted), str(report.keys_moved), "%.0f" % (resize_s * 1000),
              str(served[0]), "0"]],
        )
        return {
            "from_workers": FLEET_WORKERS,
            "to_workers": RESIZE_TO,
            "keys": granted,
            "keys_moved": report.keys_moved,
            "resize_ms": round(resize_s * 1000, 1),
            "requests_during": served[0],
            "failed_requests": 0,
        }
    finally:
        gateway.close()
        setting.gateway.close()
