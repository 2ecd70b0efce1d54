"""Read latency beside a stream of batches, against a real ``serve --http``.

    PYTHONPATH=src python tools/mixed_load.py [--batch 64] [--rate 100] [--seconds 10]

Spawns an SS256 ``repro-pre serve --http 0`` process and pins it
and this client to one core (the last this process may use), as
``benchmarks/suite`` does.  It grants the delegations, primes a hot set
of re-encryptions in the server's result cache, then reads that hot set
at a fixed rate on one mux connection for ``--seconds``: first quiet,
then while a second connection streams cold batches of ``--batch``
records back to back.  A read's latency runs from its scheduled start,
so a read held up behind another counts its wait too.  It prints p50,
p90, p99 and max read latency for both phases, then one JSON line with
the same numbers.  Every read is checked against an expected result
computed here; a wrong one makes the exit code non-zero.

The batches cycle through more (delegation, record) pairs than the
server's 1024-entry result cache holds, so every batch item costs a
pairing.  This measures how fairly the server shares its one core
between a stream of small requests and a stream of heavy ones.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.core.api import TIPRE_SCHEME_ID, create_backend  # noqa: E402
from repro.math.drbg import HmacDrbg  # noqa: E402
from repro.pairing.group import PairingGroup  # noqa: E402
from repro.service.gateway import GrantRequest, ReEncryptRequest  # noqa: E402
from repro.service.wire.aio_client import MuxRemoteGateway  # noqa: E402

GROUP = "SS256"
TENANT = "mixed"
PATIENT_DOMAIN, READER_DOMAIN = "hospital", "clinic"
PATIENT, TYPE = "patient-0", "lab-results"
HOT_READER = "doctor-hot"
BATCH_READERS = tuple("doctor-%d" % index for index in range(6))
HOT_RECORDS = 16
# 6 readers x 200 records = 1200 pairs, more than the result cache holds.
COLD_RECORDS = 200


def percentiles(latencies_ms: list[float]) -> dict[str, float | None]:
    ordered = sorted(latencies_ms)
    if not ordered:
        return {"p50_ms": None, "p90_ms": None, "p99_ms": None, "max_ms": None}

    def at(q: float) -> float:
        return ordered[min(len(ordered) - 1, int(q * len(ordered)))]

    return {"p50_ms": at(0.50), "p90_ms": at(0.90), "p99_ms": at(0.99), "max_ms": ordered[-1]}


class Setting:
    """One patient's records, a hot reader and six batch readers."""

    def __init__(self, seed: str):
        self.backend = create_backend(TIPRE_SCHEME_ID, PairingGroup.shared(GROUP))
        rng = HmacDrbg("%s|parties" % seed)
        self.backend.setup(rng)
        self.backend.create_party(PATIENT_DOMAIN, PATIENT, rng)
        for reader in (HOT_READER,) + BATCH_READERS:
            self.backend.create_party(READER_DOMAIN, reader, rng)
        self.keys = [
            self.backend.rekey(PATIENT_DOMAIN, PATIENT, READER_DOMAIN, reader, TYPE, rng)
            for reader in (HOT_READER,) + BATCH_READERS
        ]
        ciphertexts = [
            self.backend.encrypt(
                PATIENT_DOMAIN, PATIENT, self.backend.sample_message(rng), TYPE, rng
            )
            for _ in range(max(HOT_RECORDS, COLD_RECORDS))
        ]
        self.hot = [
            ReEncryptRequest(TENANT, ciphertext, READER_DOMAIN, HOT_READER)
            for ciphertext in ciphertexts[:HOT_RECORDS]
        ]
        hot_key = self.keys[0]
        self.expected = [
            self.backend.reencrypt(request.ciphertext, hot_key) for request in self.hot
        ]
        self.cold = [
            ReEncryptRequest(TENANT, ciphertext, READER_DOMAIN, reader)
            for reader in BATCH_READERS
            for ciphertext in ciphertexts[:COLD_RECORDS]
        ]


def spawn_server() -> tuple[subprocess.Popen, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--http", "0",
         "--group", GROUP, "--shards", "4"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
    )
    ready, _, _ = select.select([process.stdout], [], [], 60.0)
    banner = process.stdout.readline() if ready else ""
    if not banner.startswith("gateway listening on "):
        stop_server(process)
        raise RuntimeError("server did not start (banner %r)" % banner)
    return process, banner.split()[3]


def stop_server(process: subprocess.Popen) -> None:
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=20.0)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
    process.stdout.close()


def read_phase(client, setting: Setting, rate: float, seconds: float) -> tuple[list, int]:
    """Open-loop reads of the hot set; (latencies in ms, wrong results)."""
    latencies, wrong = [], 0
    start = time.perf_counter()
    for index in range(int(rate * seconds)):
        due = start + index / rate
        pause = due - time.perf_counter()
        if pause > 0:
            time.sleep(pause)
        slot = index % len(setting.hot)
        response = client.reencrypt(setting.hot[slot])
        latencies.append((time.perf_counter() - due) * 1000)
        wrong += response.ciphertext != setting.expected[slot]
    return latencies, wrong


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--batch", type=int, default=64, help="records per batch")
    parser.add_argument("--rate", type=float, default=100.0, help="hot reads per second")
    parser.add_argument("--seconds", type=float, default=10.0, help="length of each phase")
    parser.add_argument("--seed", default="mixed-load")
    args = parser.parse_args(argv)
    if args.batch < 1 or args.rate <= 0 or args.seconds <= 0:
        parser.error("--batch, --rate and --seconds must be positive")

    cores = os.sched_getaffinity(0)
    # The server and every client thread inherit the one core.
    os.sched_setaffinity(0, {max(cores)})
    setting = Setting(args.seed)
    process, url = spawn_server()
    reads = MuxRemoteGateway(url, setting.backend)
    batches = MuxRemoteGateway(url, setting.backend)
    try:
        for key in setting.keys:
            reads.grant(GrantRequest(tenant=TENANT, proxy_key=key))
        for request in setting.hot:  # prime the result cache
            reads.reencrypt(request)
        quiet, wrong = read_phase(reads, setting, args.rate, args.seconds)

        stop = threading.Event()
        batch_count = [0]

        def stream() -> None:
            offset = 0
            while not stop.is_set():
                items = [
                    setting.cold[(offset + index) % len(setting.cold)]
                    for index in range(args.batch)
                ]
                offset += args.batch
                batches.reencrypt_batch(items)
                batch_count[0] += 1

        streamer = threading.Thread(target=stream, name="batches")
        streamer.start()
        try:
            loaded, loaded_wrong = read_phase(reads, setting, args.rate, args.seconds)
        finally:
            stop.set()
            streamer.join()
        wrong += loaded_wrong
    finally:
        reads.close()
        batches.close()
        stop_server(process)
        os.sched_setaffinity(0, cores)

    phases = {
        "quiet": {"reads": len(quiet), "batches": 0, **percentiles(quiet)},
        "batches": {"reads": len(loaded), "batches": batch_count[0], **percentiles(loaded)},
    }
    print("%-8s %6s %8s %8s %8s %8s %8s" % (
        "phase", "reads", "batches", "p50_ms", "p90_ms", "p99_ms", "max_ms"))
    for name, row in phases.items():
        print("%-8s %6d %8d %8.2f %8.2f %8.2f %8.2f" % (
            name, row["reads"], row["batches"],
            row["p50_ms"], row["p90_ms"], row["p99_ms"], row["max_ms"],
        ))
    print(json.dumps({"batch": args.batch, "rate": args.rate, "wrong": wrong, **phases}))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
