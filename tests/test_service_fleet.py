"""The multi-process fleet: a router gateway over worker processes.

The router is a plain :class:`ReEncryptionGateway` whose shards write
their transformations to worker loops on pipes
(:mod:`repro.service.fleet_worker`).  Layers of coverage:

* :class:`TestRouterOnThreads` — the router over worker loops on
  *threads*, behind the pipes a process has: keys, cache and admission
  stay at the router, a cache hit makes no worker call, the router
  decompresses nothing, a resize moves no key;
* :class:`TestWorkerLoop` — the worker alone: one decompression per
  key, bad bytes answered as ``invalid-request`` while it keeps serving;
* :class:`TestFailedCalls` — a worker that does not answer, or dies in
  the middle of a call: ``wire-transport``, and no later call reads a
  stale answer;
* :class:`TestWorkerLogFold` — the per-worker key logs an older fleet
  kept (``tests/data/legacy_fleet_state/``) fold into the router's one;
* :class:`TestFleetAdmission` — ``serve --fleet`` admits once, at the
  router: one bucket per tenant, the tenant policy enforced;
* :class:`TestFleetProcesses` / :class:`TestFleetResizeUnderLoad` /
  :class:`TestRevocationThroughTheFleet` — the real thing: supervised
  worker *processes*, including the kill -9 path (taxonomy error,
  background restart, zero keys lost), a resize under sustained traffic
  with zero failed requests, revocation holding across both, and
  workers that exit with a router killed by -9.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import http.client
import json
import os
import shutil
import signal
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.bench.counters import OperationCounter, count_operations
from repro.cli import main
from repro.core.proxy import ProxyKeyTable
from repro.service import fleet, fleet_worker
from repro.service.auth import TenantCredentialStore
from repro.service.driver import (
    DELEGATEE_DOMAIN,
    DELEGATOR_DOMAIN,
    build_setting,
    drive_requests,
)
from repro.service.fleet import (
    FleetSupervisor,
    RemoteShard,
    fleet_gateway,
    fold_worker_logs,
)
from repro.service.gateway import (
    DelegationNotFoundError,
    GrantRequest,
    InvalidRequestError,
    RateLimitedError,
    ReEncryptionGateway,
    ReEncryptRequest,
    RevokeRequest,
)
from repro.service.persistence import KEY_LOG, DurableProxyKeyTable
from repro.service.router import ShardRouter
from repro.service.wire import (
    AsyncGatewayServer,
    RemoteGateway,
    WireTransportError,
    connect_gateway,
)

LEGACY_FLEET_STATE = Path(__file__).parent / "data" / "legacy_fleet_state"


def _small_setting(seed: str, ciphertexts_per_pair: int = 1):
    return build_setting(
        group_name="TOY",
        shard_count=1,
        n_patients=2,
        n_delegatees=2,
        n_types=2,
        ciphertexts_per_pair=ciphertexts_per_pair,
        seed=seed,
    )


def _keys_of(setting) -> list:
    return setting.gateway.list_keys()


def _grant_all(setting, gateway) -> int:
    granted = 0
    for key in _keys_of(setting):
        gateway.grant(GrantRequest(tenant="fleet-test", proxy_key=key))
        granted += 1
    return granted


def _reencrypt_request(
    setting, pool_key, delegatee, tenant=None, which: int = 0
) -> tuple[ReEncryptRequest, object]:
    (patient, _type_label) = pool_key
    ciphertext, message = setting.pool[pool_key][which]
    request = ReEncryptRequest(
        tenant=tenant or patient,
        ciphertext=ciphertext,
        delegatee_domain=DELEGATEE_DOMAIN,
        delegatee=delegatee,
    )
    return request, message


def _verify(setting, request, response, message) -> None:
    recovered = setting.backend.decrypt_reencrypted(
        response.ciphertext, setting.delegatee_domain, request.delegatee
    )
    assert recovered == message, "fleet returned a wrong transformation"


def _revoke_request(key) -> RevokeRequest:
    return RevokeRequest("fleet-test", *ProxyKeyTable.index_of(key))


# ------------------------------------------------- worker loops on threads


class _ThreadWorker:
    """A fleet worker's loop on a thread, behind the two pipes a worker
    process has: what a supervisor in these tests starts in place of a
    process.  ``counter`` counts every operation the loop runs."""

    pid = 0

    def __init__(self, backend):
        call_out, call_in = os.pipe()
        answer_out, answer_in = os.pipe()
        self.stdin = open(call_in, "wb", buffering=0)
        self.stdout = open(answer_out, "rb", buffering=0)
        self._reader = open(call_out, "rb")
        self._writer = open(answer_in, "wb")
        self.returncode = None
        self.counter = OperationCounter()
        self.thread = threading.Thread(target=self._run, args=(backend,), daemon=True)
        self.thread.start()

    def _run(self, backend) -> None:
        with self.counter:
            try:
                fleet_worker.run(backend, self._reader, self._writer)
            except (OSError, ValueError):
                pass  # killed, or the router's end of a pipe closed
            finally:
                for pipe in (self._reader, self._writer):
                    with contextlib.suppress(OSError):
                        pipe.close()

    def kill(self) -> None:
        """Die as a process does: the router reads EOF from now on."""
        self.returncode = -9
        with contextlib.suppress(OSError):
            self._writer.close()

    terminate = kill

    def poll(self):
        if self.returncode is None and not self.thread.is_alive():
            self.returncode = 0
        return self.returncode

    def wait(self, timeout=None):
        if self.returncode is None:
            self.thread.join(timeout)
            if self.thread.is_alive():
                raise subprocess.TimeoutExpired("worker thread", timeout)
            self.returncode = 0
        return self.returncode


class _Malformed(_ThreadWorker):
    """A worker that is ready, then answers its first call with the raw
    bytes ``answer`` and closes its end, as a process that exits."""

    def __init__(self, backend, answer: bytes):
        self.answer = answer
        super().__init__(backend)

    def _run(self, backend) -> None:
        with contextlib.suppress(OSError, ValueError):
            self._writer.write(fleet_worker.pack_frame([fleet_worker.READY]))
            self._writer.flush()
            self._reader.read(fleet_worker.frame_length(self._reader.read(4)))
            self._writer.write(self.answer)
            self._writer.close()
            self._reader.read()  # until the router closes its end
        for pipe in (self._reader, self._writer):
            with contextlib.suppress(OSError):
                pipe.close()


def _thread_fleet(*names: str) -> FleetSupervisor:
    """A supervisor whose workers are loops on threads."""
    supervisor = FleetSupervisor("tipre/v1", group_name="TOY")
    supervisor._start = lambda _name: _ThreadWorker(supervisor.backend)
    supervisor.ensure_started(names)
    return supervisor


@pytest.fixture()
def thread_fleet():
    """Two worker loops on threads behind one router, no processes."""
    supervisor = _thread_fleet("shard-00", "shard-01")
    gateway = fleet_gateway(supervisor)
    try:
        yield gateway, supervisor
    finally:
        gateway.close()
        supervisor.close()


def _loop_of(supervisor, name: str) -> _ThreadWorker:
    return supervisor.worker(name).process


def _count_calls(monkeypatch) -> collections.Counter:
    """Count each shard's calls to its worker."""
    calls: collections.Counter = collections.Counter()
    original = RemoteShard.reencrypt_many_with_key

    def counted(shard, *args, **kwargs):
        calls[shard.name] += 1
        return original(shard, *args, **kwargs)

    monkeypatch.setattr(RemoteShard, "reencrypt_many_with_key", counted)
    return calls


class TestRouterOnThreads:
    def test_keys_stay_at_the_router_and_serve_end_to_end(self, thread_fleet):
        gateway, supervisor = thread_fleet
        setting = _small_setting("fleet-static")
        try:
            granted = _grant_all(setting, gateway)
            assert gateway.key_count() == granted
            assert gateway.forwards is True
            # Workers hold no keys: nothing reached them yet.
            assert all(
                _loop_of(supervisor, name).counter.total() == 0 for name in supervisor.names
            )
            # The identical seeded stream the in-process gateway serves,
            # with decrypt-and-compare verification, through the fleet.
            verified = drive_requests(
                setting, 16, seed="fleet-static-req", batch_size=4,
                verify_every=1, gateway=gateway,
            )
            assert verified == 16
        finally:
            setting.gateway.close()

    def test_revoke_is_one_router_write_and_ends_cached_reads(self, thread_fleet):
        gateway, _supervisor = thread_fleet
        setting = _small_setting("fleet-revoke")
        try:
            _grant_all(setting, gateway)
            key = _keys_of(setting)[0]
            request, _message = _reencrypt_request(
                setting, (key.delegator, key.type_label), key.delegatee
            )
            gateway.reencrypt(request)
            assert gateway.reencrypt(request).cache_hit is True
            first = gateway.revoke(_revoke_request(key))
            assert first.removed is True
            assert first.shard == gateway._route(
                key.delegator_domain, key.delegator, key.type_label
            )
            assert gateway.revoke(_revoke_request(key)).removed is False
            with pytest.raises(DelegationNotFoundError):
                gateway.reencrypt(request)
        finally:
            setting.gateway.close()

    def test_a_cache_hit_makes_no_worker_call(self, thread_fleet, monkeypatch):
        gateway, _supervisor = thread_fleet
        calls = _count_calls(monkeypatch)
        setting = _small_setting("fleet-hit")
        try:
            _grant_all(setting, gateway)
            key = _keys_of(setting)[0]
            request, message = _reencrypt_request(
                setting, (key.delegator, key.type_label), key.delegatee
            )
            miss = gateway.reencrypt(request)
            assert miss.cache_hit is False
            assert calls == {miss.shard: 1}
            for _ in range(3):
                hit = gateway.reencrypt(request)
                assert hit.cache_hit is True
                _verify(setting, request, hit, message)
            batch = gateway.reencrypt_batch([request, request])
            assert [response.cache_hit for response in batch] == [True, True]
            assert calls == {miss.shard: 1}
        finally:
            setting.gateway.close()

    def test_resize_down_retires_a_worker_and_moves_no_key(self, thread_fleet, monkeypatch):
        gateway, supervisor = thread_fleet
        setting = _small_setting("fleet-shrink")
        try:
            granted = _grant_all(setting, gateway)
            owned = gateway.shard_key_counts()
            report = gateway.resize(1)
            assert report.old_shard_count == 2
            assert report.new_shard_count == 1
            assert report.shards_removed == ("shard-01",)
            # The keys that changed owner, counted; none was sent anywhere.
            assert report.keys_moved == owned["shard-01"]
            assert gateway.shard_names == ["shard-00"]
            assert supervisor.names == ["shard-00"]
            assert gateway.key_count() == granted
            calls = _count_calls(monkeypatch)
            request, message = _reencrypt_request(
                setting, sorted(setting.pool)[0], setting.delegatees[0]
            )
            response = gateway.reencrypt(request)
            assert response.shard == "shard-00"
            assert calls == {"shard-00": 1}
            _verify(setting, request, response, message)
        finally:
            setting.gateway.close()

    def test_the_routers_snapshot_counts_every_request(self, thread_fleet):
        gateway, _supervisor = thread_fleet
        setting = _small_setting("fleet-metrics")
        try:
            granted = _grant_all(setting, gateway)
            requests = [
                _reencrypt_request(setting, pool_key, delegatee)[0]
                for pool_key in sorted(setting.pool)
                for delegatee in setting.delegatees
            ]
            gateway.reencrypt_batch(requests)
            for request in requests:
                gateway.reencrypt(request)
            snapshot = gateway.snapshot()
            assert set(snapshot.shard_requests) <= {"shard-00", "shard-01"}
            assert snapshot.served == granted + 2 * len(requests)
            assert sum(snapshot.shard_requests.values()) == snapshot.served
            assert snapshot.caches["result_cache"].hits == len(requests)
        finally:
            setting.gateway.close()

    def test_the_router_decompresses_nothing(self, thread_fleet, monkeypatch):
        """A miss costs exactly one G1 decompression, of the request's
        ``c1``, on the worker that transforms it; a hit costs none.  The
        router forwards the request's bytes and writes the worker's answer
        back as it is.  Nothing reads a response component inside a count."""
        gateway, supervisor = thread_fleet
        setting = _small_setting("fleet-decompress", ciphertexts_per_pair=2)
        # A counter counts the operations of its own context only, so each
        # side counts its own: every worker's loop, the router and the client.
        per_side: collections.Counter = collections.Counter()
        for op in ("reencrypt", "reencrypt_batch"):

            def counted(*args, _call=getattr(gateway, op), **kwargs):
                with count_operations() as counter:
                    try:
                        return _call(*args, **kwargs)
                    finally:
                        per_side["router"] += counter.get("g1_decompress")

            monkeypatch.setattr(gateway, op, counted)

        def worker_counts() -> dict[str, int]:
            return {
                name: _loop_of(supervisor, name).counter.get("g1_decompress")
                for name in supervisor.names
            }

        def decompressions(call):
            per_side.clear()
            before = worker_counts()
            with count_operations() as counter:
                response = call()
            per_side["client"] += counter.get("g1_decompress")
            for name, count in worker_counts().items():
                per_side[name] += count - before[name]
                # The router adds each answer's counts to its own request's:
                # what it decompressed itself is the rest.
                per_side["router"] -= count - before[name]
            # Unary plus drops the sides that counted zero.
            return response, sum(per_side.values()), +per_side

        routes = [
            (pool_key, delegatee)
            for pool_key in sorted(setting.pool)
            for delegatee in setting.delegatees
        ]
        pairs = [_reencrypt_request(setting, *route) for route in routes]
        requests = [request for request, _message in pairs]
        try:
            _grant_all(setting, gateway)
            # Each worker decodes a key once; do that outside the counts.
            gateway.reencrypt_batch(
                [_reencrypt_request(setting, *route, which=1)[0] for route in routes]
            )
            with AsyncGatewayServer(gateway) as server:
                client = RemoteGateway(server.http_url, setting.group)
                try:
                    single, batch = requests[0], requests[1:]
                    for expect_hit in (False, True):
                        response, total, by_side = decompressions(
                            lambda: client.reencrypt(single)
                        )
                        assert response.cache_hit is expect_hit
                        assert total == (0 if expect_hit else 1)
                        assert by_side == ({} if expect_hit else {response.shard: 1})
                    for expect_hit in (False, True):
                        responses, total, by_side = decompressions(
                            lambda: client.reencrypt_batch(batch)
                        )
                        assert [r.cache_hit for r in responses] == [expect_hit] * len(batch)
                        owners = collections.Counter(r.shard for r in responses)
                        assert len(owners) == 2  # the batch spans both workers
                        assert total == (0 if expect_hit else len(batch))
                        assert by_side == ({} if expect_hit else owners)
                    # Outside any count: the answers still decrypt.
                    for (request, message), served in zip(pairs, [response] + responses):
                        _verify(setting, request, served, message)
                finally:
                    client.close()
        finally:
            setting.gateway.close()

    def test_an_unreachable_worker_is_wire_transport(self, thread_fleet):
        gateway, _supervisor = thread_fleet
        setting = _small_setting("fleet-down")
        try:
            _grant_all(setting, gateway)
            request, _message = _reencrypt_request(
                setting, sorted(setting.pool)[0], setting.delegatees[0]
            )
            owner = gateway._route(DELEGATOR_DOMAIN, *sorted(setting.pool)[0])
            fleet = gateway.shard_named(owner).fleet
            fleet.retire([owner])  # its worker is gone; the route is not
            with pytest.raises(WireTransportError, match=owner):
                gateway.reencrypt(request)
            with pytest.raises(WireTransportError, match=owner):
                gateway.reencrypt_batch([request])
            outcomes = gateway.snapshot().outcomes
            assert outcomes[("reencrypt", "wire-transport")] == 1
            assert outcomes[("reencrypt-batch", "wire-transport")] == 1
        finally:
            setting.gateway.close()


# ------------------------------------------------------------- the worker


def _key_and_ciphertext(setting, which: int = 0) -> tuple[bytes, bytes, object, object]:
    """A granted key's bytes and one of its ciphertexts' bytes, and both."""
    key = _keys_of(setting)[0]
    ciphertext = setting.pool[(key.delegator, key.type_label)][which][0]
    backend = setting.backend
    return (
        backend.serialize_proxy_key(key), backend.ciphertext_bytes(ciphertext), key, ciphertext
    )


class TestWorkerLoop:
    def test_a_worker_decompresses_each_keys_point_once(self):
        setting = _small_setting("fleet-worker", ciphertexts_per_pair=3)
        backend = setting.backend
        supervisor = _thread_fleet("shard-00")
        worker = _loop_of(supervisor, "shard-00")
        key = _keys_of(setting)[0]
        with count_operations() as counter:
            backend.deserialize_proxy_key(backend.serialize_proxy_key(key))
        key_points = counter.get("g1_decompress")  # rk and the blind's point
        try:
            counts = []
            for which in range(3):
                key_bytes, ciphertext_bytes, key, ciphertext = _key_and_ciphertext(setting, which)
                # The counts the worker reports, counted in its own thread.
                status, worker_ms, ops, (answer,) = fleet._call(
                    worker, [key_bytes, ciphertext_bytes]
                )
                assert status == b"ok" and worker_ms > 0
                counts.append(ops["g1_decompress"])
                assert answer == backend.serialize_reencrypted(backend.reencrypt(ciphertext, key))
            # The key's points once, then one c1 per ciphertext.
            assert counts == [key_points + 1, 1, 1]
            assert worker.counter.get("g1_decompress") == key_points + 3
        finally:
            supervisor.close()
            setting.gateway.close()

    def test_bad_key_bytes_are_invalid_request(self):
        setting = _small_setting("fleet-worker-bad")
        supervisor = _thread_fleet("shard-00")
        worker = _loop_of(supervisor, "shard-00")
        key_bytes, ciphertext_bytes, key, ciphertext = _key_and_ciphertext(setting)
        group = setting.group
        canonical = group.serialize_g1(ciphertext.c1)
        off_curve_x = next(x for x in range(1, 1000) if group.params.curve.lift_x(x) is None)
        off_curve = b"\x00" + off_curve_x.to_bytes(len(canonical) - 1, "big")
        try:
            for parts, refusal in (
                ([b"\x00" * 8, ciphertext_bytes], b"proxy_key"),
                ([key_bytes, ciphertext_bytes.replace(canonical, off_curve)], b"not on the curve"),
            ):
                status, _ms, _ops, (message,) = fleet._call(worker, parts)
                assert status == b"invalid-request" and refusal in message
                # The worker keeps serving.
                status, _ms, _ops, (answer,) = fleet._call(worker, [key_bytes, ciphertext_bytes])
                assert answer == setting.backend.serialize_reencrypted(
                    setting.backend.reencrypt(ciphertext, key)
                )
            assert supervisor.alive("shard-00")
        finally:
            supervisor.close()
            setting.gateway.close()

    def test_what_a_worker_prints_stays_out_of_its_frames(self, monkeypatch):
        """A worker process whose transformation prints to stdout still
        answers in frames: what it prints goes to its stderr."""
        noisy = (
            "import sys\n"
            "from repro.service import fleet_worker\n"
            "transform = fleet_worker._transform\n"
            "def noisy(*args):\n"
            "    print('a stray line on stdout', flush=True)\n"
            "    return transform(*args)\n"
            "fleet_worker._transform = noisy\n"
            "fleet_worker.main(sys.argv[1:])\n"
        )

        def start(supervisor, name):
            return subprocess.Popen(
                [sys.executable, "-c", noisy, supervisor.scheme_id, supervisor.group_name, name],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                bufsize=0, env=fleet._repro_env(),
            )

        monkeypatch.setattr(FleetSupervisor, "_start", start)
        setting = _small_setting("fleet-noisy")
        supervisor = FleetSupervisor("tipre/v1", shard_count=1, group_name="TOY")
        gateway = fleet_gateway(supervisor)
        process = supervisor.worker("shard-00").process
        try:
            _grant_all(setting, gateway)
            request, message = _reencrypt_request(
                setting, sorted(setting.pool)[0], setting.delegatees[0]
            )
            _verify(setting, request, gateway.reencrypt(request), message)
        finally:
            gateway.close()
            supervisor.close()
            setting.gateway.close()
        assert b"a stray line on stdout" in process.stderr.read()
        process.stderr.close()

    def test_a_refusal_reaches_the_router_as_invalid_request(self, thread_fleet):
        gateway, supervisor = thread_fleet
        setting = _small_setting("fleet-worker-refusal")
        try:
            _grant_all(setting, gateway)
            request, message = _reencrypt_request(
                setting, sorted(setting.pool)[0], setting.delegatees[0]
            )
            ciphertext = request.ciphertext
            group, backend = setting.group, gateway.backend
            canonical = group.serialize_g1(ciphertext.c1)
            off_curve_x = next(x for x in range(1, 1000) if group.params.curve.lift_x(x) is None)
            tampered = backend.ciphertext_bytes(ciphertext).replace(
                canonical, b"\x00" + off_curve_x.to_bytes(len(canonical) - 1, "big")
            )
            # As the wire decodes it: checked, its square roots deferred.
            bad = ReEncryptRequest(
                request.tenant, backend.encoded_ciphertext(tampered),
                request.delegatee_domain, request.delegatee,
            )
            with pytest.raises(InvalidRequestError, match="not on the curve"):
                gateway.reencrypt(bad)
            with pytest.raises(InvalidRequestError, match="not on the curve"):
                gateway.reencrypt_batch([bad])
            assert gateway.snapshot().outcomes[("reencrypt", "invalid-request")] == 1
            _verify(setting, request, gateway.reencrypt(request), message)
            assert all(supervisor.alive(name) for name in supervisor.names)
        finally:
            setting.gateway.close()


# ----------------------------------------------------------- failed calls


def _wait_for_restart(supervisor, name: str, restarts: int) -> None:
    deadline = time.monotonic() + 60.0
    while not (supervisor.alive(name) and supervisor.worker(name).restarts > restarts):
        assert time.monotonic() < deadline, "the worker was not restarted"
        time.sleep(0.05)


class TestFailedCalls:
    """A call that fails kills its worker: the supervisor starts another,
    and no later call reads the answer the failed call was waiting for."""

    def test_a_late_answer_is_never_read(self, monkeypatch):
        """The worker holds its first call past the timeout, then answers
        it.  That answer goes to a pipe nobody reads: the next read on the
        shard decrypts to its own plaintext."""
        monkeypatch.setattr(fleet, "CALL_TIMEOUT", 0.5)
        setting = _small_setting("fleet-late", ciphertexts_per_pair=2)
        supervisor = _thread_fleet("shard-00")
        gateway = fleet_gateway(supervisor)
        held, release = threading.Event(), threading.Event()
        original = supervisor.backend.reencrypt_batch

        def hold_the_first_call(ciphertexts, key):
            if not held.is_set():
                held.set()
                release.wait(30)
            return original(ciphertexts, key)

        monkeypatch.setattr(supervisor.backend, "reencrypt_batch", hold_the_first_call)
        try:
            _grant_all(setting, gateway)
            route = sorted(setting.pool)[0]
            first, _first_message = _reencrypt_request(setting, route, setting.delegatees[0])
            second, second_message = _reencrypt_request(
                setting, route, setting.delegatees[0], which=1
            )
            held_loop = _loop_of(supervisor, "shard-00")
            start = time.monotonic()
            with pytest.raises(WireTransportError, match="no answer within 0.5s"):
                gateway.reencrypt(first)
            assert time.monotonic() - start < 5.0
            assert held_loop.poll() is not None  # killed
            release.set()  # the held loop answers now, into its old pipe
            held_loop.thread.join(10)
            assert not held_loop.thread.is_alive()
            _wait_for_restart(supervisor, "shard-00", 0)
            _verify(setting, second, gateway.reencrypt(second), second_message)
        finally:
            release.set()
            gateway.close()
            supervisor.close()
            setting.gateway.close()

    @pytest.mark.parametrize("failure", ["stopped", "killed mid-call"])
    def test_a_worker_process_that_does_not_answer(self, monkeypatch, failure):
        """A real worker stopped with SIGSTOP times out; one killed while a
        call waits fails at once.  Either way the call fails as
        ``wire-transport``, and the next read verifies on a new worker."""
        monkeypatch.setattr(fleet, "CALL_TIMEOUT", 2.0)
        setting = _small_setting("fleet-stop", ciphertexts_per_pair=2)
        supervisor = FleetSupervisor("tipre/v1", shard_count=1, group_name="TOY")
        gateway = fleet_gateway(supervisor)
        pid = supervisor.worker("shard-00").process.pid
        try:
            _grant_all(setting, gateway)
            route = sorted(setting.pool)[0]
            first, _message = _reencrypt_request(setting, route, setting.delegatees[0])
            second, second_message = _reencrypt_request(
                setting, route, setting.delegatees[0], which=1
            )
            os.kill(pid, signal.SIGSTOP)
            if failure == "killed mid-call":
                threading.Timer(0.3, os.kill, (pid, signal.SIGKILL)).start()
            start = time.monotonic()
            with pytest.raises(WireTransportError, match="shard-00"):
                gateway.reencrypt(first)
            elapsed = time.monotonic() - start
            assert elapsed < (2.0 if failure == "killed mid-call" else 5.0)
            _wait_for_restart(supervisor, "shard-00", 0)
            assert supervisor.worker("shard-00").process.pid != pid
            _verify(setting, second, gateway.reencrypt(second), second_message)
        finally:
            gateway.close()
            supervisor.close()
            setting.gateway.close()

    @pytest.mark.parametrize(
        "answer",
        [
            struct.pack(">I", 3) + b"abc",  # a part's length cut short
            struct.pack(">II", 6, 100) + b"ab",  # a part longer than its frame
            struct.pack(">I", fleet_worker.MAX_FRAME_BYTES + 1),  # too large
            struct.pack(">I", 10) + b"abc",  # then EOF
            fleet_worker.pack_frame([b"maybe", b"0.1"]),  # no such status
            fleet_worker.pack_frame([b"ok", b"fast"]),  # no crypto time
            fleet_worker.pack_frame([b"ok", b"0.1 pairing=one", b"x"]),  # no count
            fleet_worker.pack_frame([b"ok", b"0.1 pairing=1"]),  # no re-encryption
        ],
        ids=["cut", "overrun", "too-large", "eof", "status", "time", "count", "missing"],
    )
    def test_a_malformed_answer_is_wire_transport(self, answer):
        """A worker whose answer does not parse is killed: the call fails
        as ``wire-transport`` and the next read verifies on a new worker."""
        setting = _small_setting("fleet-malformed", ciphertexts_per_pair=2)
        supervisor = FleetSupervisor("tipre/v1", group_name="TOY")
        started: list = []

        def start(_name):
            factory = _ThreadWorker if started else functools.partial(_Malformed, answer=answer)
            started.append(factory(supervisor.backend))
            return started[-1]

        supervisor._start = start
        supervisor.ensure_started(["shard-00"])
        gateway = fleet_gateway(supervisor)
        try:
            _grant_all(setting, gateway)
            route = sorted(setting.pool)[0]
            first, _message = _reencrypt_request(setting, route, setting.delegatees[0])
            second, second_message = _reencrypt_request(
                setting, route, setting.delegatees[0], which=1
            )
            with pytest.raises(WireTransportError, match="shard-00"):
                gateway.reencrypt(first)
            assert started[0].poll() is not None
            _wait_for_restart(supervisor, "shard-00", 0)
            _verify(setting, second, gateway.reencrypt(second), second_message)
        finally:
            gateway.close()
            supervisor.close()
            setting.gateway.close()

    def test_a_worker_that_cannot_start_fails_the_fleet_before_its_banner(
        self, monkeypatch, capsys
    ):
        def exits(_supervisor, _name):
            return subprocess.Popen(
                [sys.executable, "-c", "import sys; sys.exit(3)"],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0,
            )

        monkeypatch.setattr(FleetSupervisor, "_start", exits)
        with pytest.raises(WireTransportError, match=r"shard-00 did not start \(exit status 3\)"):
            FleetSupervisor("tipre/v1", shard_count=1, group_name="TOY")
        assert main(["serve", "--http", "0", "--group", "TOY", "--fleet", "2"]) == 1
        captured = capsys.readouterr()
        assert "listening" not in captured.out
        assert "did not start" in captured.err


# ------------------------------------------------- the old per-worker layout


@pytest.fixture(scope="module")
def legacy_fleet():
    """The recorded per-worker state dir and the universe that wrote it."""
    expected = json.loads((LEGACY_FLEET_STATE / "expected.json").read_text())
    setting = build_setting(
        group_name=expected["group"], shard_count=1, seed=expected["seed"]
    )
    setting.gateway.close()
    return expected, setting


def _copy_worker_logs(state_dir: Path) -> None:
    names = sorted(
        str(path.relative_to(LEGACY_FLEET_STATE))
        for path in LEGACY_FLEET_STATE.glob("shard-*/" + KEY_LOG)
    )
    assert names == ["shard-%02d/keys.log" % i for i in range(3)]
    for name in names:
        (state_dir / name).parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(LEGACY_FLEET_STATE / name, state_dir / name)


def _assert_folded(state_dir: Path, expected: dict, setting) -> None:
    """One ``keys.log`` serving exactly the recorded delegations."""
    assert sorted(path.name for path in state_dir.iterdir()) == [KEY_LOG]
    gateway = ReEncryptionGateway(setting.backend, shard_count=2, state_dir=state_dir)
    try:
        keys = {tuple(index) for index in expected["keys"]}
        assert {ProxyKeyTable.index_of(key) for key in gateway.list_keys()} == keys
        assert len(keys) == 35
        for _domain, patient, _delegatee_domain, delegatee, type_label in sorted(keys):
            request, message = _reencrypt_request(setting, (patient, type_label), delegatee)
            _verify(setting, request, gateway.reencrypt(request), message)
        _domain, patient, _delegatee_domain, delegatee, type_label = expected["revoked"]
        request, _message = _reencrypt_request(setting, (patient, type_label), delegatee)
        with pytest.raises(DelegationNotFoundError):
            gateway.reencrypt(request)
    finally:
        gateway.close()


class _Stopped(Exception):
    """Stands for a process dying part way through the fold."""


class TestWorkerLogFold:
    def test_worker_logs_fold_into_the_routers_log(self, legacy_fleet, tmp_path):
        expected, setting = legacy_fleet
        state_dir = tmp_path / "state"
        _copy_worker_logs(state_dir)
        fold_worker_logs(state_dir, setting.backend)
        _assert_folded(state_dir, expected, setting)
        # A second fold finds nothing to do and changes nothing.
        before = (state_dir / KEY_LOG).read_bytes()
        fold_worker_logs(state_dir, setting.backend)
        assert (state_dir / KEY_LOG).read_bytes() == before

    def test_folding_the_same_logs_again_is_harmless(self, legacy_fleet, tmp_path):
        """The state a crash after a fold's installs and before its
        deletes leaves: the worker logs beside the folded ``keys.log``."""
        expected, setting = legacy_fleet
        state_dir = tmp_path / "state"
        _copy_worker_logs(state_dir)
        fold_worker_logs(state_dir, setting.backend)
        _copy_worker_logs(state_dir)
        fold_worker_logs(state_dir, setting.backend)
        _assert_folded(state_dir, expected, setting)

    @pytest.mark.parametrize("files_folded", range(4))
    def test_stopped_after_each_file(self, legacy_fleet, tmp_path, monkeypatch, files_folded):
        expected, setting = legacy_fleet
        state_dir = tmp_path / "state"
        _copy_worker_logs(state_dir)
        opened = []
        original_init = DurableProxyKeyTable.__init__

        def open_or_stop(table, path, *args, **kwargs):
            if Path(path).parent != state_dir:
                if len(opened) == files_folded:
                    raise _Stopped(Path(path).parent.name)
                opened.append(Path(path).parent.name)
            original_init(table, path, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(DurableProxyKeyTable, "__init__", open_or_stop)
            if files_folded < 3:
                with pytest.raises(_Stopped):
                    fold_worker_logs(state_dir, setting.backend)
            else:
                fold_worker_logs(state_dir, setting.backend)
        assert opened == ["shard-%02d" % i for i in range(files_folded)]
        assert sorted(path.parent.name for path in state_dir.glob("shard-*/*")) == [
            "shard-%02d" % i for i in range(files_folded, 3)
        ]
        fold_worker_logs(state_dir, setting.backend)
        _assert_folded(state_dir, expected, setting)


# --------------------------------------------------- serve --fleet processes


def _serve_fleet(*flags: str) -> tuple[subprocess.Popen, str]:
    """A ``serve --http 0 --group TOY`` router process and its banner."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    router = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--http", "0", "--group", "TOY",
         *flags],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    line = router.stdout.readline()
    if "fleet gateway listening on" not in line:
        _stop(router)
        pytest.fail("the fleet did not start: %r" % line)
    return router, line


def _stop(router: subprocess.Popen) -> None:
    router.send_signal(signal.SIGTERM)
    try:
        router.wait(timeout=30)
    except subprocess.TimeoutExpired:
        router.kill()
        router.wait()
    router.stdout.close()


def _fleet_workers(router_pid: int) -> dict[str, int]:
    """Shard name -> PID of each live fleet worker ``router_pid`` spawned."""
    workers = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % entry, "rb") as handle:
                fields = handle.read().rsplit(b")", 1)[1].split()
            with open("/proc/%s/cmdline" % entry, "rb") as handle:
                argv = [part.decode(errors="replace") for part in handle.read().split(b"\0")]
        except OSError:
            continue
        # fields[0] is the state, fields[1] the parent pid.  A worker's
        # arguments after its module are SCHEME GROUP NAME.
        module = "repro.service.fleet_worker"
        if fields[0] != b"Z" and int(fields[1]) == router_pid and module in argv:
            workers[argv[argv.index(module) + 3]] = int(entry)
    return workers


def _alive(pid: int) -> bool:
    try:
        with open("/proc/%d/stat" % pid, "rb") as handle:
            return handle.read().rsplit(b")", 1)[1].split()[0] != b"Z"
    except OSError:
        return False


def _admitted(client, requests) -> int:
    """How many of ``requests`` the gateway admits, sent one after another."""
    admitted = 0
    for request in requests:
        try:
            client.reencrypt(request)
            admitted += 1
        except RateLimitedError:
            pass
    return admitted


def _spanning_reads(setting, tenant: str, count: int = 16) -> list[ReEncryptRequest]:
    """``count`` reads signed as ``tenant``, alternating between the
    routes a two-shard ring gives each of its shards."""
    ring = ShardRouter(["shard-00", "shard-01"])
    by_shard: dict[str, list] = {"shard-00": [], "shard-01": []}
    for pool_key in sorted(setting.pool):
        for delegatee in setting.delegatees:
            owner = ring.shard_for(DELEGATOR_DOMAIN, *pool_key)
            by_shard[owner].append(_reencrypt_request(setting, pool_key, delegatee, tenant)[0])
    assert all(by_shard.values()), "the universe does not span both shards"
    reads = []
    for i in range(count):
        routes = by_shard["shard-%02d" % (i % 2)]
        reads.append(routes[i // 2 % len(routes)])
    return reads


class TestFleetAdmission:
    """Admission happens once, at the router: a tenant has one bucket
    however many workers there are, and the tenant policy holds."""

    RATE = "1.5"  # a burst of 3

    def test_a_tenants_burst_is_one_gateways_burst(self):
        setting = _small_setting("fleet-burst")
        reads = _spanning_reads(setting, "alice")
        reference = ReEncryptionGateway(
            setting.backend, shard_count=2, rate_per_s=float(self.RATE), clock=lambda: 0.0
        )
        router, line = _serve_fleet("--fleet", "2", "--rate", self.RATE)
        try:
            for gateway in (reference, connect_gateway(line.split()[4], setting.group)):
                # Each grant by a tenant of its own: no bucket runs dry.
                for i, key in enumerate(_keys_of(setting)):
                    gateway.grant(GrantRequest(tenant="granter-%d" % i, proxy_key=key))
            one_gateway = _admitted(reference, reads)
            assert one_gateway == 3
            assert _admitted(gateway, reads) == one_gateway
            gateway.close()
        finally:
            _stop(router)
            reference.close()
            setting.gateway.close()

    @pytest.fixture(scope="class")
    def signed_fleet(self, tmp_path_factory):
        """A fleet demanding signed requests: alice has a limit of her own
        (rate 1, burst 2), bob and carol the global ``--rate``, and the
        operator who grants a limit wide enough for every grant."""
        config = tmp_path_factory.mktemp("fleet-auth") / "tenants.json"
        store = TenantCredentialStore.initialize(config)
        store.add("ops", secret="o" * 64, roles=("admin",), rate_per_s=100.0, burst=100.0)
        store.add("alice", secret="a" * 64, rate_per_s=1.0, burst=2.0)
        store.add("bob", secret="b" * 64)
        store.add("carol", secret="c" * 64)
        setting = _small_setting("fleet-signed")
        router, line = _serve_fleet(
            "--fleet", "2", "--rate", self.RATE, "--tenant-config", str(config)
        )
        url = line.split()[4]
        try:
            admin = connect_gateway(url, setting.group, tenant="ops", secret="o" * 64)
            for key in _keys_of(setting):
                admin.grant(GrantRequest(tenant="ops", proxy_key=key))
            admin.close()

            def client_for(tenant: str):
                return connect_gateway(
                    url, setting.group, tenant=tenant, secret=tenant[0] * 64
                )

            yield setting, client_for
        finally:
            _stop(router)
            setting.gateway.close()

    def test_one_tenants_empty_bucket_leaves_another_admitted(self, signed_fleet):
        setting, client_for = signed_fleet
        admitted = {}
        for tenant in ("bob", "carol"):
            client = client_for(tenant)
            admitted[tenant] = _admitted(client, _spanning_reads(setting, tenant))
            client.close()
        assert admitted == {"bob": 3, "carol": 3}

    def test_a_tenants_own_rate_is_enforced(self, signed_fleet):
        setting, client_for = signed_fleet
        client = client_for("alice")
        assert _admitted(client, _spanning_reads(setting, "alice")) == 2
        client.close()


@pytest.fixture(scope="module")
def process_fleet(tmp_path_factory):
    """Three supervised worker processes behind a durable router, granted."""
    setting = _small_setting("fleet-proc", ciphertexts_per_pair=3)
    supervisor = FleetSupervisor("tipre/v1", shard_count=3, group_name="TOY")
    gateway = fleet_gateway(supervisor, state_dir=tmp_path_factory.mktemp("router-state"))
    try:
        granted = _grant_all(setting, gateway)
        yield {
            "setting": setting,
            "supervisor": supervisor,
            "gateway": gateway,
            "granted": granted,
        }
    finally:
        gateway.close()
        supervisor.close()
        setting.gateway.close()


class TestFleetProcesses:
    def test_reencrypt_verifies_end_to_end_across_processes(self, process_fleet):
        gateway = process_fleet["gateway"]
        setting = process_fleet["setting"]
        supervisor = process_fleet["supervisor"]
        for pool_key in sorted(setting.pool):
            for delegatee in setting.delegatees:
                request, message = _reencrypt_request(setting, pool_key, delegatee)
                response = gateway.reencrypt(request)
                _verify(setting, request, response, message)
                assert response.shard in supervisor.names
        # One batch over every route key, spread over the workers.
        batch = [
            _reencrypt_request(setting, pool_key, setting.delegatees[1])
            for pool_key in sorted(setting.pool)
        ]
        responses = gateway.reencrypt_batch([request for request, _ in batch])
        for (request, message), response in zip(batch, responses):
            _verify(setting, request, response, message)

    def test_the_router_counts_its_workers_work(self, process_fleet):
        """After N cold reads through the router, its
        ``repro_substrate_ops_total`` counts N pairings, every one run on
        a worker, and a traced read's ``shard-crypto`` span at the router
        carries its worker's crypto time and op counts."""
        gateway = process_fleet["gateway"]
        setting = process_fleet["setting"]
        reads = [
            _reencrypt_request(setting, pool_key, delegatee, which=1)
            for pool_key in sorted(setting.pool)
            for delegatee in setting.delegatees
        ]
        with AsyncGatewayServer(gateway) as server:
            client = RemoteGateway(server.http_url, gateway.backend)
            try:
                for request, message in reads:
                    response = client.reencrypt(request)
                    assert response.cache_hit is False
                    _verify(setting, request, response, message)
                spans = client.fetch_trace(client.last_trace.trace_id)
                exposition = client.metrics_text()
            finally:
                client.close()
        pairings = [
            float(line.rsplit(" ", 1)[1])
            for line in exposition.splitlines()
            if line.startswith("repro_substrate_ops_total{") and 'op="pairing"' in line
        ]
        assert pairings == [len(reads)]
        (crypto,) = [span.attribute_dict() for span in spans if span.name == "shard-crypto"]
        assert crypto["shard"] == response.shard
        assert float(crypto["worker_ms"]) > 0
        assert crypto["pairing"] == "1"
        assert int(crypto["g1_decompress"]) >= 1  # c1, and the key's points once

    def test_the_routers_metrics_count_every_request(self, process_fleet):
        gateway = process_fleet["gateway"]
        supervisor = process_fleet["supervisor"]
        snapshot = gateway.snapshot()
        assert set(snapshot.shard_requests) <= set(supervisor.names)
        assert snapshot.served >= process_fleet["granted"]
        assert sum(snapshot.shard_requests.values()) == snapshot.served

    def test_kill_dash_nine_surfaces_taxonomy_then_restart_loses_no_keys(
        self, process_fleet
    ):
        """SIGKILL one worker.  A batch crossing it fails with the
        wire-transport taxonomy error (bounded time, no hang), the
        supervisor restarts the worker in the background, and the
        restarted worker, empty, serves every key the router holds."""
        gateway = process_fleet["gateway"]
        setting = process_fleet["setting"]
        supervisor = process_fleet["supervisor"]
        keys_before = process_fleet["granted"]
        assert gateway.key_count() == keys_before

        # The victim owns the first pool route key, so the batch below
        # must cross it.  Fresh ciphertexts: no cache hit hides the kill.
        first_pool_key = sorted(setting.pool)[0]
        victim = gateway._route(DELEGATOR_DOMAIN, *first_pool_key)
        restarts_before = supervisor._workers[victim].restarts
        supervisor.kill(victim)

        batch = [
            _reencrypt_request(setting, pool_key, setting.delegatees[0], which=2)
            for pool_key in sorted(setting.pool)
        ]
        start = time.monotonic()
        with pytest.raises(WireTransportError) as excinfo:
            gateway.reencrypt_batch([request for request, _ in batch])
        assert time.monotonic() - start < 30.0, "a crash must not hang the router"
        assert victim in str(excinfo.value)

        # note_failure started a background restart; wait for it.
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if (
                supervisor.alive(victim)
                and supervisor._workers[victim].restarts > restarts_before
            ):
                break
            time.sleep(0.1)
        assert supervisor.alive(victim)

        # Zero keys lost: they never left the router's durable table.
        assert gateway.key_count() == keys_before
        responses = gateway.reencrypt_batch([request for request, _ in batch])
        assert victim in {response.shard for response in responses}
        for (request, message), response in zip(batch, responses):
            _verify(setting, request, response, message)


class TestFleetCli:
    def test_serve_fleet_folds_old_worker_logs_and_serves_the_wire(
        self, legacy_fleet, tmp_path
    ):
        """``serve --http 0 --fleet 2`` on a state dir an older fleet
        wrote: the worker logs fold into one ``keys.log`` at the router,
        the CLI spawns and supervises the workers, clients drive the
        router end to end, and SIGTERM takes every worker down with it."""
        expected, legacy = legacy_fleet
        state_dir = tmp_path / "state"
        _copy_worker_logs(state_dir)
        router, line = _serve_fleet("--fleet", "2", "--state-dir", str(state_dir))
        setting = _small_setting("fleet-cli")
        workers = {}
        try:
            assert "2 shard processes, 35 keys loaded" in line
            url = line.split()[4]
            assert url.startswith("mux://")
            assert sorted(path.name for path in state_dir.iterdir()) == [KEY_LOG]
            client = connect_gateway(url, setting.group)
            # A folded delegation serves.
            _domain, patient, _delegatee_domain, delegatee, type_label = expected["keys"][0]
            request, message = _reencrypt_request(legacy, (patient, type_label), delegatee)
            _verify(legacy, request, client.reencrypt(request), message)
            for key in _keys_of(setting):
                client.grant(GrantRequest(tenant="cli", proxy_key=key))
            request, message = _reencrypt_request(
                setting, sorted(setting.pool)[0], setting.delegatees[0]
            )
            response = client.reencrypt(request)
            _verify(setting, request, response, message)
            assert response.shard in ("shard-00", "shard-01")
            client.close()
            workers = _fleet_workers(router.pid)
            assert sorted(workers) == ["shard-00", "shard-01"]
        finally:
            _stop(router)
            setting.gateway.close()
        # SIGTERM on the router must take the workers down with it
        # (systemd/docker stop semantics): no orphaned processes.
        deadline = time.monotonic() + 30
        while any(_alive(pid) for pid in workers.values()):
            assert time.monotonic() < deadline, "orphaned fleet workers"
            time.sleep(0.2)
        # One durable log, at the router, with every grant in it (the two
        # universes share delegation names; a later grant replaces).
        table = DurableProxyKeyTable(state_dir / KEY_LOG, legacy.backend)
        try:
            granted = {ProxyKeyTable.index_of(key) for key in _keys_of(setting)}
            folded = {tuple(index) for index in expected["keys"]}
            assert {ProxyKeyTable.index_of(key) for key in table} == folded | granted
        finally:
            table.close()


    def test_workers_exit_when_their_router_is_killed(self):
        """``kill -9`` of the router: no signal reaches the workers, but
        their stdin ends, and each exits within 10 s."""
        router, _line = _serve_fleet("--fleet", "2")
        try:
            workers = _fleet_workers(router.pid)
            assert sorted(workers) == ["shard-00", "shard-01"]
            router.kill()
            router.wait()
        finally:
            _stop(router)
        deadline = time.monotonic() + 10
        while any(_alive(pid) for pid in workers.values()):
            assert time.monotonic() < deadline, "fleet workers outlived their router"
            time.sleep(0.1)


# -------------------------------------------------------- resize under traffic


class TestFleetResizeUnderLoad:
    def test_resize_with_zero_failed_requests(self):
        """Grow 2 -> 3 worker processes while reads keep flowing.  Every
        request issued during the resize must succeed and verify; no key
        moves, and the grown fleet serves every key."""
        setting = _small_setting("fleet-roll")
        supervisor = FleetSupervisor("tipre/v1", shard_count=2, group_name="TOY")
        # A one-entry result cache: nearly every read crosses to a worker.
        gateway = fleet_gateway(supervisor, result_cache_size=1)
        try:
            granted = _grant_all(setting, gateway)
            pool_keys = sorted(setting.pool)
            failures: list[BaseException] = []
            served = [0]
            stop = threading.Event()

            def hammer(offset: int) -> None:
                position = offset
                while not stop.is_set():
                    pool_key = pool_keys[position % len(pool_keys)]
                    delegatee = setting.delegatees[position % len(setting.delegatees)]
                    position += 1
                    request, message = _reencrypt_request(setting, pool_key, delegatee)
                    try:
                        response = gateway.reencrypt(request)
                        _verify(setting, request, response, message)
                    except BaseException as error:  # noqa: BLE001 - asserted below
                        failures.append(error)
                        return
                    served[0] += 1

            threads = [
                threading.Thread(target=hammer, args=(offset,), daemon=True)
                for offset in range(2)
            ]
            for thread in threads:
                thread.start()
            try:
                time.sleep(0.2)
                report = gateway.resize(3)
            finally:
                # Let traffic overlap the grown fleet briefly, then stop.
                time.sleep(0.3)
                stop.set()
                for thread in threads:
                    thread.join(timeout=30)
            assert not failures, failures[0]
            assert served[0] > 0, "no traffic overlapped the resize"
            assert report.new_shard_count == 3
            assert report.shards_added == ("shard-02",)
            assert gateway.shard_names == ["shard-00", "shard-01", "shard-02"]
            assert supervisor.names == gateway.shard_names
            assert gateway.key_count() == granted
            # Every delegation still verifies after the resize, from
            # whichever worker the grown ring owns it to.
            for pool_key in pool_keys:
                for delegatee in setting.delegatees:
                    request, message = _reencrypt_request(setting, pool_key, delegatee)
                    _verify(setting, request, gateway.reencrypt(request), message)
        finally:
            gateway.close()
            supervisor.close()
            setting.gateway.close()


# ------------------------------------------------ revocation through the fleet


def _until_reachable(call, deadline_s: float = 60.0):
    """``call()``, retried while the router answers ``wire-transport``
    (a killed worker restarting behind it)."""
    deadline = time.monotonic() + deadline_s
    while True:
        try:
            return call()
        except WireTransportError:
            if time.monotonic() > deadline:
                raise
            time.sleep(0.1)


class TestRevocationThroughTheFleet:
    """The paper's access-control promise, end to end through ``serve
    --fleet``: once a revoke is acknowledged no read transforms under
    the delegation again, whatever was cached before it, and whether a
    worker was killed with -9 or the fleet resized in between."""

    def test_revoke_ends_reads_across_a_kill_and_a_resize(self, tmp_path):
        router, line = _serve_fleet(
            "--fleet", "2", "--state-dir", str(tmp_path / "state")
        )
        setting = _small_setting("fleet-revocation", ciphertexts_per_pair=2)
        client = None
        try:
            client = connect_gateway(line.split()[4], setting.group)
            keys = _keys_of(setting)
            for key in keys:
                client.grant(GrantRequest(tenant="fleet-test", proxy_key=key))

            def kill_owner(shard: str) -> None:
                os.kill(_fleet_workers(router.pid)[shard], 9)

            def resize(_shard: str) -> None:
                assert client.resize(3).new_shard_count == 3

            for key, disrupt in zip(keys, (None, kill_owner, resize)):
                route = (key.delegator, key.type_label)
                request, message = _reencrypt_request(setting, route, key.delegatee)
                fresh, fresh_message = _reencrypt_request(
                    setting, route, key.delegatee, which=1
                )
                first = _until_reachable(lambda: client.reencrypt(request))
                _verify(setting, request, first, message)
                second = _until_reachable(lambda: client.reencrypt(request))
                assert second.cache_hit is True
                _verify(setting, request, second, message)
                if disrupt is not None:
                    disrupt(first.shard)
                    # The acknowledged grant survived the disruption, on a
                    # read no cache can answer.
                    served = _until_reachable(lambda: client.reencrypt(fresh))
                    _verify(setting, fresh, served, fresh_message)
                revoke = _revoke_request(key)
                assert _until_reachable(lambda: client.revoke(revoke)).removed is True
                for read in (request, fresh):
                    with pytest.raises(DelegationNotFoundError):
                        _until_reachable(lambda: client.reencrypt(read))
                if disrupt is kill_owner:
                    # The revocation is as durable as the grant was.
                    kill_owner(first.shard)
                    for read in (request, fresh):
                        with pytest.raises(DelegationNotFoundError):
                            _until_reachable(lambda: client.reencrypt(read))
            # Every delegation the test did not revoke still serves.
            for key in keys[3:]:
                request, message = _reencrypt_request(
                    setting, (key.delegator, key.type_label), key.delegatee
                )
                served = _until_reachable(lambda: client.reencrypt(request))
                _verify(setting, request, served, message)
        finally:
            if client is not None:
                client.close()
            _stop(router)
            setting.gateway.close()


# ------------------------------------------------------ idempotent wire replay


class TestIdempotentReplay:
    def test_revoke_replay_after_dropped_response_reports_the_first_outcome(
        self, monkeypatch
    ):
        """Regression: the connection dies *after* the server revoked but
        before the client read the response.  The retry replays under the
        same client request id; the server's idempotency window answers
        from the record instead of re-executing, so the client sees
        removed=True — not the removed=False a second execution returns.
        """
        setting = _small_setting("fleet-idem")
        key = _keys_of(setting)[0]
        before = setting.gateway.key_count()

        original_request = http.client.HTTPConnection.request
        original_getresponse = http.client.HTTPConnection.getresponse
        drops = []

        def recording_request(self, method, url, *args, **kwargs):
            self._wire_path = url
            return original_request(self, method, url, *args, **kwargs)

        def dropping_getresponse(self):
            response = original_getresponse(self)
            if not drops and getattr(self, "_wire_path", "").endswith("/revoke"):
                # The server has fully handled the request (the response
                # is on the wire); lose it on the way back, exactly once.
                drops.append(self._wire_path)
                response.read()
                response.close()
                raise ConnectionResetError("response lost mid-flight")
            return response

        monkeypatch.setattr(http.client.HTTPConnection, "request", recording_request)
        monkeypatch.setattr(
            http.client.HTTPConnection, "getresponse", dropping_getresponse
        )
        try:
            with AsyncGatewayServer(setting.gateway) as server:
                client = RemoteGateway(
                    server.http_url, setting.group, trace_requests=False
                )
                response = client.revoke(_revoke_request(key))
                client.close()
                assert drops, "the drop hook never fired"
                assert response.removed is True
                assert server.engine.dedup.hits == 1
                assert setting.gateway.key_count() == before - 1
        finally:
            setting.gateway.close()


# ------------------------------------------- crash-loop breaker (no processes)


class _DeadProcess:
    """A process handle that is already dead (``poll()`` -> exit code 1)."""

    pid = 4242
    stdin = stdout = None

    def poll(self):
        return 1

    def wait(self, timeout=None):
        return 1

    def terminate(self):
        pass

    def kill(self):
        pass


class TestCrashLoopBreaker:
    """A worker whose binary dies on every spawn must not fork-bomb the
    supervisor: respawns back off exponentially and the breaker opens at
    the crash-loop threshold.  Runs against a stubbed dead worker with an
    injected clock, so no real processes and no real sleeping."""

    def _supervisor(self, **overrides) -> FleetSupervisor:
        from repro.service.fleet import _Worker

        options = dict(
            backoff_base=0.5,
            backoff_max=4.0,
            crash_loop_threshold=5,
            crash_loop_window=60.0,
        )
        options.update(overrides)
        supervisor = FleetSupervisor(
            "tipre/v1", shard_count=0, group_name="TOY", **options
        )
        supervisor._workers["shard-00"] = _Worker(name="shard-00", process=_DeadProcess())
        return supervisor

    @staticmethod
    def _drain(supervisor: FleetSupervisor) -> None:
        deadline = time.monotonic() + 10
        while supervisor._reviving:
            assert time.monotonic() < deadline, "revive thread never finished"
            time.sleep(0.005)

    def _wire_up(self, supervisor: FleetSupervisor):
        """Deterministic clock, recorded sleeps, always-failing restarts."""
        now = [0.0]
        delays: list[float] = []
        attempts: list[str] = []
        supervisor._clock = lambda: now[0]

        def fake_sleep(seconds: float) -> None:
            delays.append(seconds)
            now[0] += seconds

        def failing_restart(name: str) -> None:
            attempts.append(name)
            raise WireTransportError("worker binary crashes on start")

        supervisor._sleep = fake_sleep
        supervisor.restart = failing_restart
        return now, delays, attempts

    def test_kill_loop_backs_off_then_opens_the_breaker(self):
        supervisor = self._supervisor()
        now, delays, attempts = self._wire_up(supervisor)
        try:
            for _ in range(4):
                assert supervisor.note_failure("shard-00") is True
                self._drain(supervisor)
                now[0] += 0.1
            # First respawn is immediate, the next three back off 2x each.
            assert delays == [0.5, 1.0, 2.0]
            assert attempts == ["shard-00"] * 4
            # The fifth failure inside the window opens the breaker: no
            # revival starts, the shard stays down.
            assert supervisor.note_failure("shard-00") is False
            self._drain(supervisor)
            assert supervisor.is_broken("shard-00")
            assert len(attempts) == 4
            events = supervisor.events.tail()
            kinds = [event["kind"] for event in events]
            assert "shard-crash-loop" in kinds
            assert [
                event["delay_s"]
                for event in events
                if event["kind"] == "shard-respawn-backoff"
            ] == [0.5, 1.0, 2.0]
            loop_event = next(e for e in events if e["kind"] == "shard-crash-loop")
            assert loop_event["failures"] == 5
            # Open breaker short-circuits every later failure report.
            assert supervisor.note_failure("shard-00") is False
            self._drain(supervisor)
            assert len(attempts) == 4
        finally:
            supervisor.close()

    def test_backoff_cap_and_window_expiry(self):
        supervisor = self._supervisor(backoff_max=1.0, crash_loop_threshold=9)
        now, delays, attempts = self._wire_up(supervisor)
        try:
            for _ in range(5):
                assert supervisor.note_failure("shard-00") is True
                self._drain(supervisor)
                now[0] += 0.1
            assert delays == [0.5, 1.0, 1.0, 1.0]  # capped at backoff_max
            # Failures older than the window age out: after a quiet spell
            # the next failure respawns immediately again.
            now[0] += supervisor.crash_loop_window + 1
            assert supervisor.note_failure("shard-00") is True
            self._drain(supervisor)
            assert delays == [0.5, 1.0, 1.0, 1.0]  # no new backoff sleep
        finally:
            supervisor.close()

    def test_reset_breaker_and_ensure_started_close_the_loop(self):
        from repro.service.fleet import _Worker

        supervisor = self._supervisor(crash_loop_threshold=2)
        now, delays, attempts = self._wire_up(supervisor)
        try:
            assert supervisor.note_failure("shard-00") is True
            self._drain(supervisor)
            assert supervisor.note_failure("shard-00") is False
            assert supervisor.is_broken("shard-00")
            # Operator intervention: the breaker closes and the failure
            # history is forgotten, so the next respawn is immediate.
            supervisor.reset_breaker("shard-00")
            assert not supervisor.is_broken("shard-00")
            assert supervisor.note_failure("shard-00") is True
            self._drain(supervisor)
            assert delays == []  # every attempt here was first-in-window
            assert len(attempts) == 2
            # ensure_started also clears the breaker for the names it spawns.
            supervisor._broken.add("shard-00")
            spawned: list[str] = []

            def fake_spawn(name: str) -> _Worker:
                spawned.append(name)
                return _Worker(name=name, process=_DeadProcess())

            supervisor._spawn = fake_spawn
            supervisor.ensure_started(["shard-00"])
            assert spawned == ["shard-00"]
            assert not supervisor.is_broken("shard-00")
        finally:
            supervisor.close()
