"""The multi-process shard fleet: routing tier over shard processes.

Three layers of coverage:

* :class:`TestFleetGatewayStatic` — the routing tier's semantics (owner
  placement, dual-tier error taxonomy, traffic-continuing resize,
  metrics merge) over *in-process* wire servers via :class:`StaticFleet`,
  so the logic is exercised without subprocess latency;
* :class:`TestIdempotentReplay` — the revoke/resize replay fix: a
  response dropped mid-flight is retried under the client's request id
  and answered from the server's idempotency window, never re-executed;
* :class:`TestFleetProcesses` / :class:`TestFleetResizeUnderLoad` — the
  real thing: a :class:`FleetSupervisor` fleet of ``repro-pre serve``
  worker *processes* with durable state dirs, including the kill -9
  crash path (taxonomy error, background restart, zero keys lost) and a
  rolling resize under sustained traffic with zero failed requests.
"""

from __future__ import annotations

import collections
import http.client
import os
import threading
import time

import pytest

from repro.bench.counters import count_operations
from repro.core.api import create_backend
from repro.core.proxy import ProxyKeyTable
from repro.pairing.group import PairingGroup
from repro.service.driver import (
    DELEGATEE_DOMAIN,
    DELEGATOR_DOMAIN,
    build_setting,
    drive_requests,
)
from repro.service.fleet import FleetGateway, FleetSupervisor, StaticFleet
from repro.service.gateway import (
    EntryMissingError,
    GrantRequest,
    InvalidRequestError,
    ReEncryptionGateway,
    ReEncryptRequest,
    RevokeRequest,
    StoreUnavailableError,
)
from repro.service.wire import (
    AsyncGatewayServer,
    RemoteGateway,
    WireTransportError,
    connect_gateway,
)


def _small_setting(seed: str):
    return build_setting(
        group_name="TOY",
        shard_count=1,
        n_patients=2,
        n_delegatees=2,
        n_types=2,
        ciphertexts_per_pair=1,
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


def _reencrypt_request(setting, pool_key, delegatee) -> tuple[ReEncryptRequest, object]:
    (patient, _type_label) = pool_key
    ciphertext, message = setting.pool[pool_key][0]
    request = ReEncryptRequest(
        tenant=patient,
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


# --------------------------------------------------- static (in-process) fleet


@pytest.fixture()
def static_fleet():
    """Two single-shard wire servers behind one FleetGateway, no processes."""
    backend = create_backend("tipre/v1", PairingGroup.shared("TOY"))
    inner = {
        name: ReEncryptionGateway(
            create_backend("tipre/v1", PairingGroup.shared("TOY")), shard_count=1
        )
        for name in ("shard-00", "shard-01")
    }
    servers = {
        name: AsyncGatewayServer(gateway).start() for name, gateway in inner.items()
    }
    fleet = StaticFleet(
        backend, {name: server.http_url for name, server in servers.items()}
    )
    gateway = FleetGateway(fleet)
    try:
        yield gateway, inner
    finally:
        gateway.close()
        for server in servers.values():
            server.close()
        for shard in inner.values():
            shard.close()


class TestFleetGatewayStatic:
    def test_grants_route_to_the_ring_owner_and_serve_end_to_end(self, static_fleet):
        gateway, inner = static_fleet
        setting = _small_setting("fleet-static")
        try:
            granted = _grant_all(setting, gateway)
            assert gateway.key_count() == granted
            # Every key landed exactly on the shard the ring owns it to.
            for name, shard in inner.items():
                for key in shard.shard_named("shard-00").table:
                    assert (
                        gateway._router.shard_for(
                            key.delegator_domain, key.delegator, key.type_label
                        )
                        == name
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

    def test_revoke_reaches_the_owning_shard(self, static_fleet):
        gateway, _inner = static_fleet
        setting = _small_setting("fleet-revoke")
        try:
            _grant_all(setting, gateway)
            key = _keys_of(setting)[0]
            index = ProxyKeyTable.index_of(key)
            request = RevokeRequest(
                tenant="fleet-test",
                delegator_domain=index[0],
                delegator=index[1],
                delegatee_domain=index[2],
                delegatee=index[3],
                type_label=index[4],
            )
            first = gateway.revoke(request)
            assert first.removed is True
            assert first.shard == gateway._router.shard_for(
                index[0], index[1], index[4]
            )
            assert gateway.revoke(request).removed is False
        finally:
            setting.gateway.close()

    def test_resize_down_migrates_keys_and_retires_the_shard(self, static_fleet):
        """The copy/swap/cleanup protocol over real wire calls: shrinking
        2 -> 1 re-homes every key and leaves no stale copy behind."""
        gateway, inner = static_fleet
        setting = _small_setting("fleet-shrink")
        try:
            granted = _grant_all(setting, gateway)
            migrating = len(list(inner["shard-01"].shard_named("shard-00").table))
            report = gateway.resize(1)
            assert report.old_shard_count == 2
            assert report.new_shard_count == 1
            assert report.shards_removed == ("shard-01",)
            assert report.keys_moved == migrating
            assert gateway.shard_names == ["shard-00"]
            # All keys now live on the surviving shard; the retired one
            # no longer serves (its endpoint left the fleet).
            assert len(list(inner["shard-00"].shard_named("shard-00").table)) == granted
            request, message = _reencrypt_request(
                setting, sorted(setting.pool)[0], setting.delegatees[0]
            )
            response = gateway.reencrypt(request)
            assert response.shard == "shard-00"
            _verify(setting, request, response, message)
        finally:
            setting.gateway.close()

    def test_static_fleet_cannot_grow(self, static_fleet):
        gateway, _inner = static_fleet
        with pytest.raises(InvalidRequestError, match="register their endpoints"):
            gateway.resize(3)

    def test_snapshot_merges_every_shard_plus_the_router(self, static_fleet):
        gateway, _inner = static_fleet
        setting = _small_setting("fleet-metrics")
        try:
            granted = _grant_all(setting, gateway)
            snapshot = gateway.snapshot()
            assert set(snapshot.shard_requests) == {"shard-00", "shard-01", "router"}
            assert snapshot.served == granted
            assert snapshot.shard_requests["shard-00"] + snapshot.shard_requests[
                "shard-01"
            ] == granted
        finally:
            setting.gateway.close()

    def test_router_adds_no_decompressions(self, static_fleet, monkeypatch):
        """A forwarded re-encryption costs one G1 decompression per missed
        item, on the shard that owns it, and none on a hit: the router
        forwards the request's bytes and writes the shard's answer back
        as it is.  Nothing reads a response component inside a count."""
        gateway, inner = static_fleet
        setting = _small_setting("fleet-decompress")
        # A counter counts the operations of its own context only, so each
        # side counts its own: every shard, the router and the client.
        per_side: collections.Counter = collections.Counter()
        for name, side in [*inner.items(), ("router", gateway)]:
            for op in ("reencrypt", "reencrypt_batch"):

                def counted(*args, _call=getattr(side, op), _name=name, **kwargs):
                    with count_operations() as counter:
                        try:
                            return _call(*args, **kwargs)
                        finally:
                            per_side[_name] += counter.get("g1_decompress")

                monkeypatch.setattr(side, op, counted)

        def decompressions(call):
            per_side.clear()
            with count_operations() as counter:
                response = call()
            per_side["client"] += counter.get("g1_decompress")
            # Unary plus drops the sides that counted zero.
            return response, sum(per_side.values()), +per_side

        pairs = [
            _reencrypt_request(setting, pool_key, delegatee)
            for pool_key in sorted(setting.pool)
            for delegatee in setting.delegatees
        ]
        requests = [request for request, _message in pairs]
        try:
            _grant_all(setting, gateway)
            with AsyncGatewayServer(gateway) as server:
                client = RemoteGateway(server.http_url, setting.group)
                try:
                    single, batch = requests[0], requests[1:]
                    for expect_hit in (False, True):
                        response, total, by_shard = decompressions(
                            lambda: client.reencrypt(single)
                        )
                        assert response.cache_hit is expect_hit
                        assert total == (0 if expect_hit else 1)
                        assert by_shard == ({} if expect_hit else {response.shard: 1})
                    for expect_hit in (False, True):
                        responses, total, by_shard = decompressions(
                            lambda: client.reencrypt_batch(batch)
                        )
                        assert [r.cache_hit for r in responses] == [expect_hit] * len(batch)
                        owners = collections.Counter(r.shard for r in responses)
                        assert len(owners) == 2  # the batch spans both shards
                        assert total == (0 if expect_hit else len(batch))
                        assert by_shard == ({} if expect_hit else owners)
                    # Outside any count: the answers still decrypt.
                    for (request, message), served in zip(pairs, [response] + responses):
                        _verify(setting, request, served, message)
                finally:
                    client.close()
        finally:
            setting.gateway.close()

    def test_fetch_serves_from_the_router_store(self, static_fleet):
        from repro.phr.store import EncryptedPhrStore
        from repro.service.gateway import FetchRequest

        _gateway, _inner = static_fleet
        store = EncryptedPhrStore()
        store.put("alice", "labs", "e1", b"blob")
        gateway = FleetGateway(_gateway.fleet, store=store)
        response = gateway.fetch(FetchRequest(tenant="t", patient="alice", entry_id="e1"))
        assert response.records[0].blob == b"blob"
        with pytest.raises(EntryMissingError):
            gateway.fetch(FetchRequest(tenant="t", patient="alice", entry_id="nope"))
        with pytest.raises(StoreUnavailableError):
            _gateway.fetch(FetchRequest(tenant="t", patient="alice", entry_id="e1"))


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
        index = ProxyKeyTable.index_of(key)
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
                response = client.revoke(
                    RevokeRequest(
                        tenant="fleet-test",
                        delegator_domain=index[0],
                        delegator=index[1],
                        delegatee_domain=index[2],
                        delegatee=index[3],
                        type_label=index[4],
                    )
                )
                client.close()
                assert drops, "the drop hook never fired"
                assert response.removed is True
                assert server.engine.dedup.hits == 1
                assert setting.gateway.key_count() == before - 1
        finally:
            setting.gateway.close()


# ------------------------------------------------------- real shard processes


@pytest.fixture(scope="module")
def process_fleet(tmp_path_factory):
    """Three supervised worker processes with durable state dirs, granted."""
    state_root = tmp_path_factory.mktemp("fleet-state")
    setting = _small_setting("fleet-proc")
    supervisor = FleetSupervisor(
        "tipre/v1", shard_count=3, state_root=state_root, group_name="TOY"
    )
    gateway = FleetGateway(supervisor)
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
        setting.gateway.close()


class TestFleetProcesses:
    def test_each_process_holds_exactly_its_ring_share(self, process_fleet):
        gateway = process_fleet["gateway"]
        supervisor = process_fleet["supervisor"]
        assert gateway.key_count() == process_fleet["granted"]
        for name in supervisor.names:
            for key in supervisor.client(name).list_keys():
                assert (
                    gateway._router.shard_for(
                        key.delegator_domain, key.delegator, key.type_label
                    )
                    == name
                )

    def test_reencrypt_verifies_end_to_end_across_processes(self, process_fleet):
        gateway = process_fleet["gateway"]
        setting = process_fleet["setting"]
        for pool_key in sorted(setting.pool):
            for delegatee in setting.delegatees:
                request, message = _reencrypt_request(setting, pool_key, delegatee)
                response = gateway.reencrypt(request)
                _verify(setting, request, response, message)
                assert response.shard in supervisor_names(gateway)
        # One batch spanning every route key fans out and reassembles in order.
        batch = [
            _reencrypt_request(setting, pool_key, setting.delegatees[0])
            for pool_key in sorted(setting.pool)
        ]
        responses = gateway.reencrypt_batch([request for request, _ in batch])
        for (request, message), response in zip(batch, responses):
            _verify(setting, request, response, message)

    def test_hosted_two_tier_trace_shows_router_and_shard_spans(self, process_fleet):
        """client -> routing server -> shard process, one trace id end to
        end: the merged waterfall holds the router's shard-call span *and*
        the shard process's own handler spans."""
        gateway = process_fleet["gateway"]
        setting = process_fleet["setting"]
        supervisor = process_fleet["supervisor"]
        with AsyncGatewayServer(gateway) as server:
            client = RemoteGateway(server.http_url, supervisor.backend)
            request, message = _reencrypt_request(
                setting, sorted(setting.pool)[0], setting.delegatees[0]
            )
            response = client.reencrypt(request)
            _verify(setting, request, response, message)
            trace = client.last_trace
            assert trace is not None
            spans = client.fetch_trace(trace.trace_id)
            names = [span.name for span in spans]
            # Routing tier: its own HTTP handler span plus the wire hop.
            assert "shard-call" in names
            # Both tiers handled the same trace: the op's http span appears
            # once per tier in the merged waterfall.
            assert names.count("http:reencrypt") >= 2
            client.close()

    def test_metrics_aggregate_across_the_processes(self, process_fleet):
        gateway = process_fleet["gateway"]
        supervisor = process_fleet["supervisor"]
        snapshot = gateway.snapshot()
        assert set(snapshot.shard_requests) == set(supervisor.names) | {"router"}
        per_shard_served = sum(
            snapshot.shard_requests[name] for name in supervisor.names
        )
        assert per_shard_served >= process_fleet["granted"]
        assert snapshot.served == per_shard_served

    def test_kill_dash_nine_surfaces_taxonomy_then_restart_loses_no_keys(
        self, process_fleet
    ):
        """Satellite 4: SIGKILL one worker mid-batch.  The routing tier
        answers with the wire-transport taxonomy error (bounded time, no
        hang), the supervisor revives the worker in the background from
        its durable state dir, and not one acknowledged grant is lost."""
        gateway = process_fleet["gateway"]
        setting = process_fleet["setting"]
        supervisor = process_fleet["supervisor"]
        keys_before = process_fleet["granted"]
        assert gateway.key_count() == keys_before

        # The victim owns the first pool route key, so the batch below
        # must cross it.
        first_pool_key = sorted(setting.pool)[0]
        victim = gateway._router.shard_for(
            DELEGATOR_DOMAIN, first_pool_key[0], first_pool_key[1]
        )
        restarts_before = supervisor._workers[victim].restarts
        supervisor.kill(victim)

        batch = [
            _reencrypt_request(setting, pool_key, setting.delegatees[0])[0]
            for pool_key in sorted(setting.pool)
        ]
        start = time.monotonic()
        with pytest.raises(WireTransportError) as excinfo:
            gateway.reencrypt_batch(batch)
        assert time.monotonic() - start < 30.0, "crash must not hang the tier"
        assert WireTransportError.code == "wire-transport"
        assert victim in str(excinfo.value)

        # note_failure kicked off a background revival; wait for it.
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if (
                supervisor.alive(victim)
                and supervisor._workers[victim].restarts > restarts_before
            ):
                break
            time.sleep(0.1)
        assert supervisor.alive(victim), supervisor.output_of(victim)[-5:]

        # Zero keys lost: the durable log flushed every acknowledged grant.
        assert gateway.key_count() == keys_before
        request, message = _reencrypt_request(
            setting, first_pool_key, setting.delegatees[0]
        )
        response = gateway.reencrypt(request)
        assert response.shard == victim
        _verify(setting, request, response, message)


def supervisor_names(gateway) -> list[str]:
    return gateway.fleet.names


class TestFleetCli:
    def test_serve_fleet_spawns_workers_and_serves_the_wire(self, tmp_path):
        """``serve --http 0 --fleet 2``: the CLI spawns and supervises the
        worker processes and clients drive the routing tier end to end."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--http", "0",
             "--fleet", "2", "--group", "TOY",
             "--state-dir", str(tmp_path / "state")],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
        )
        setting = _small_setting("fleet-cli")
        try:
            line = proc.stdout.readline()
            assert "fleet gateway listening on" in line, line
            assert "2 shard processes" in line
            url = line.split()[4]
            assert url.startswith("mux://")
            client = connect_gateway(url, setting.group)
            for key in _keys_of(setting):
                client.grant(GrantRequest(tenant="cli", proxy_key=key))
            request, message = _reencrypt_request(
                setting, sorted(setting.pool)[0], setting.delegatees[0]
            )
            response = client.reencrypt(request)
            _verify(setting, request, response, message)
            assert response.shard in ("shard-00", "shard-01")
            # Both worker state dirs exist and hold the durable logs.
            children = sorted(p.name for p in (tmp_path / "state").iterdir())
            assert children == ["shard-00", "shard-01"]
            client.close()
            workers = _worker_pids_for(str(tmp_path / "state"))
            assert len(workers) == 2, workers
        finally:
            proc.terminate()
            proc.wait(timeout=30)
            setting.gateway.close()
        # SIGTERM on the routing process must take the shard workers down
        # with it (systemd/docker stop semantics) — no orphaned processes.
        deadline = time.monotonic() + 30
        while _worker_pids_for(str(tmp_path / "state")):
            assert time.monotonic() < deadline, "orphaned fleet workers"
            time.sleep(0.2)


def _worker_pids_for(state_root: str) -> list[int]:
    """PIDs of live ``--shard`` worker processes rooted at *state_root*."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/%s/cmdline" % entry, "rb") as handle:
                cmdline = handle.read().split(b"\0")
        except OSError:
            continue
        argv = [part.decode(errors="replace") for part in cmdline if part]
        if "--shard" in argv and any(state_root in part for part in argv):
            pids.append(int(entry))
    return pids


# -------------------------------------------------------- resize under traffic


class TestFleetResizeUnderLoad:
    def test_rolling_resize_with_zero_failed_requests(self, tmp_path):
        """Grow 2 -> 3 shard processes while reads keep flowing.  Every
        request issued during the migration must succeed and verify; the
        new ring must own every key afterwards."""
        setting = _small_setting("fleet-roll")
        supervisor = FleetSupervisor(
            "tipre/v1", shard_count=2, state_root=tmp_path / "state", group_name="TOY"
        )
        gateway = FleetGateway(supervisor)
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
                report = gateway.resize(3)
            finally:
                # Let traffic overlap the post-swap state briefly, then stop.
                time.sleep(0.3)
                stop.set()
                for thread in threads:
                    thread.join(timeout=30)
            assert not failures, failures[0]
            assert served[0] > 0, "no traffic overlapped the resize"
            assert report.new_shard_count == 3
            assert report.shards_added == ("shard-02",)
            # The migration batches its grant stream: every re-homed key
            # travelled inside a chunked grant_batch call — at most one
            # per (old shard, new owner) pair here, since the chunk size
            # far exceeds the key count — never one wire call per key.
            stats = gateway.last_migration_stats
            assert stats is not None
            assert stats["grant_keys"] == report.keys_moved
            assert stats["grant_calls"] <= 2 * 2  # 2 old shards x 2 foreign owners
            if report.keys_moved > 4:
                assert stats["grant_calls"] < report.keys_moved
            assert stats["revoke_calls"] == report.keys_moved
            assert stats["export_calls"] == 4  # 2 sweeps x 2 old shards
            assert gateway.shard_names == ["shard-00", "shard-01", "shard-02"]
            # The fleet still holds exactly the granted keys, each on the
            # shard the new ring owns it to.
            assert gateway.key_count() == granted
            for name in supervisor.names:
                for key in supervisor.client(name).list_keys():
                    assert (
                        gateway._router.shard_for(
                            key.delegator_domain, key.delegator, key.type_label
                        )
                        == name
                    )
            # And traffic still verifies after the migration settled.
            request, message = _reencrypt_request(
                setting, pool_keys[0], setting.delegatees[0]
            )
            _verify(setting, request, gateway.reencrypt(request), message)
        finally:
            gateway.close()
            setting.gateway.close()

# ------------------------------------------- crash-loop breaker (no processes)


class _DeadProcess:
    """A process handle that is already dead (``poll()`` -> exit code 1)."""

    pid = 4242

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
        supervisor._workers["shard-00"] = _Worker(
            name="shard-00",
            url="http://127.0.0.1:1/",
            process=_DeadProcess(),
            state_dir=None,
        )
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
                return _Worker(
                    name=name,
                    url="http://127.0.0.1:1/",
                    process=_DeadProcess(),
                    state_dir=None,
                )

            supervisor._spawn = fake_spawn
            supervisor.ensure_started(["shard-00"])
            assert spawned == ["shard-00"]
            assert not supervisor.is_broken("shard-00")
        finally:
            supervisor.close()
