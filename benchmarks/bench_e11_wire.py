"""E11 — the wire: HTTP round-trip overhead, batching, restart recovery.

PR 2 made the shard fleet elastic and durable but still in-process; this
experiment measures what the paper's actual deployment shape — a proxy
*server* reached over a network — costs and guarantees:

1. **Round-trip overhead** — the same request stream driven in-process
   and through a live :class:`GatewayHttpServer` via
   :class:`RemoteGateway`.  Fidelity is asserted, not assumed: every wire
   response must serialize to the *same bytes* as the in-process one.

2. **Batching over the wire** — N single POSTs vs one batch POST.  The
   batch pays one HTTP round trip and one JSON envelope per N items, so
   this is where the wire's fixed costs are amortized.

3. **Kill/restart recovery** — grants arrive *over the wire* into a
   gateway on a durable ``--state-dir``; the server is killed (no
   graceful gateway close) and a fresh process on the same directory
   must serve every delegation again, zero lost keys — asserted.

TOY parameters: like E9/E10 this measures workload structure and
transport, not key size.
"""

from __future__ import annotations

import shutil
import tempfile
import time

from repro.bench.report import print_table
from repro.core.proxy import ProxyKeyTable
from repro.serialization.containers import serialize_reencrypted
from repro.service.driver import DELEGATEE_DOMAIN, build_setting
from repro.service.gateway import GrantRequest, ReEncryptionGateway, ReEncryptRequest
from repro.service.wire import GatewayHttpServer, RemoteGateway

SHARDS = 3


def _setting():
    """3 patients x 2 types x 2 delegatees: 12 delegations over 3 shards."""
    return build_setting(
        group_name="TOY",
        shard_count=SHARDS,
        n_patients=3,
        n_types=2,
        n_delegatees=2,
        ciphertexts_per_pair=2,
        seed="e11-wire",
    )


def _installed_keys(gateway):
    keys = []
    for name in gateway.shard_names:
        keys.extend(gateway.shard_named(name).table)
    return keys


def _request_stream(setting, repeat: int = 2):
    """Every delegation ``repeat`` times: misses first, then cache hits."""
    requests = []
    for _ in range(repeat):
        for (patient, _type_label), entries in sorted(setting.pool.items()):
            ciphertext, _message = entries[0]
            for delegatee in setting.delegatees:
                requests.append(
                    ReEncryptRequest(
                        tenant=patient,
                        ciphertext=ciphertext,
                        delegatee_domain=DELEGATEE_DOMAIN,
                        delegatee=delegatee,
                    )
                )
    return requests


def _fresh_gateway(scheme, keys):
    gateway = ReEncryptionGateway(scheme, shard_count=SHARDS)
    for key in keys:
        gateway.grant(GrantRequest(tenant="bench", proxy_key=key))
    return gateway


def test_e11_wire_roundtrip_overhead_and_byte_fidelity():
    setting = _setting()
    keys = _installed_keys(setting.gateway)
    requests = _request_stream(setting)
    group = setting.group

    # In-process reference: a fresh fleet, cold caches.
    local_gateway = _fresh_gateway(setting.backend, keys)
    start = time.perf_counter()
    local_responses = [local_gateway.reencrypt(request) for request in requests]
    local_s = time.perf_counter() - start
    local_gateway.close()

    # The same stream through a real HTTP server, also cold.
    wire_gateway = _fresh_gateway(setting.backend, keys)
    with GatewayHttpServer(wire_gateway, group) as server:
        client = RemoteGateway(server.url, group)
        start = time.perf_counter()
        wire_responses = [client.reencrypt(request) for request in requests]
        wire_s = time.perf_counter() - start
        connections_opened = client.connections_opened
    wire_gateway.close()
    setting.gateway.close()

    # The client must reuse one persistent keep-alive connection for the
    # whole stream (negotiation included), not dial per request.
    assert connections_opened == 1, (
        "expected 1 persistent connection for %d requests, opened %d"
        % (len(requests), connections_opened)
    )

    # The acceptance anchor: wire responses decode to the *same bytes*.
    for wire_response, local_response in zip(wire_responses, local_responses):
        assert serialize_reencrypted(group, wire_response.ciphertext) == (
            serialize_reencrypted(group, local_response.ciphertext)
        ), "wire transport changed a transformation"

    n = len(requests)
    print_table(
        "E11: wire round-trip overhead (%d requests, %d shards)" % (n, SHARDS),
        ["path", "total ms", "ms/request", "overhead", "connections"],
        [
            [
                "in-process",
                "%.1f" % (local_s * 1000),
                "%.2f" % (local_s * 1000 / n),
                "1.00x",
                "-",
            ],
            [
                "HTTP/JSON wire",
                "%.1f" % (wire_s * 1000),
                "%.2f" % (wire_s * 1000 / n),
                "%.2fx" % (wire_s / local_s),
                "%d (keep-alive, asserted)" % connections_opened,
            ],
        ],
    )


def test_e11_batched_beats_sequential_over_the_wire():
    setting = _setting()
    keys = _installed_keys(setting.gateway)
    # The persistent keep-alive client cut sequential overhead to a few
    # hundred microseconds per POST, so the batch's amortization margin
    # needs a longer stream — and a best-of-3 timing, so one scheduler
    # hiccup on a loaded runner cannot flip the comparison.
    requests = _request_stream(setting, repeat=8)
    group = setting.group
    n = len(requests)

    sequential_gateway = _fresh_gateway(setting.backend, keys)
    with GatewayHttpServer(sequential_gateway, group) as server:
        client = RemoteGateway(server.url, group)
        sequential_s = float("inf")
        for _round in range(3):
            start = time.perf_counter()
            sequential_responses = [client.reencrypt(request) for request in requests]
            sequential_s = min(sequential_s, time.perf_counter() - start)
    sequential_gateway.close()

    batched_gateway = _fresh_gateway(setting.backend, keys)
    with GatewayHttpServer(batched_gateway, group) as server:
        client = RemoteGateway(server.url, group)
        batched_s = float("inf")
        for _round in range(3):
            start = time.perf_counter()
            batched_responses = client.reencrypt_batch(requests)
            batched_s = min(batched_s, time.perf_counter() - start)
    batched_gateway.close()
    setting.gateway.close()

    assert [r.ciphertext for r in batched_responses] == [
        r.ciphertext for r in sequential_responses
    ]

    print_table(
        "E11: wire throughput, %d requests" % n,
        ["mode", "total ms", "req/s", "HTTP round trips"],
        [
            [
                "sequential POSTs",
                "%.1f" % (sequential_s * 1000),
                "%.0f" % (n / sequential_s),
                str(n),
            ],
            [
                "one batch POST",
                "%.1f" % (batched_s * 1000),
                "%.0f" % (n / batched_s),
                "1",
            ],
        ],
    )

    # One round trip and one envelope per batch must beat N of each.
    assert batched_s < sequential_s, (
        "batched wire execution (%.1fms) did not beat sequential (%.1fms)"
        % (batched_s * 1000, sequential_s * 1000)
    )


def test_e11_kill_restart_serves_every_delegation_from_state_dir():
    state_dir = tempfile.mkdtemp(prefix="e11-state-")
    try:
        setting = _setting()
        keys = _installed_keys(setting.gateway)
        group = setting.group

        # Process 1: a durable fleet; every grant arrives over the wire.
        gateway_1 = ReEncryptionGateway(
            setting.backend, shard_count=SHARDS, state_dir=state_dir
        )
        server_1 = GatewayHttpServer(gateway_1, group).start()
        client_1 = RemoteGateway(server_1.url, group)
        for key in keys:
            client_1.grant(GrantRequest(tenant="bench", proxy_key=key))
        installed = {ProxyKeyTable.index_of(key) for key in _installed_keys(gateway_1)}
        # "Kill": stop the HTTP server and drop the gateway without close();
        # the durable appends are already flushed — that is the guarantee.
        server_1.close()
        del gateway_1

        # Process 2: same state dir, fresh fleet, fresh server.
        start = time.perf_counter()
        gateway_2 = ReEncryptionGateway(
            setting.backend, shard_count=SHARDS, state_dir=state_dir
        )
        restart_ms = (time.perf_counter() - start) * 1000
        recovered = {ProxyKeyTable.index_of(key) for key in _installed_keys(gateway_2)}
        assert recovered == installed, "restart lost or invented delegations"

        verified = 0
        with GatewayHttpServer(gateway_2, group) as server_2:
            client_2 = RemoteGateway(server_2.url, group)
            for (patient, _type_label), entries in sorted(setting.pool.items()):
                ciphertext, message = entries[0]
                for delegatee in setting.delegatees:
                    response = client_2.reencrypt(
                        ReEncryptRequest(
                            tenant=patient,
                            ciphertext=ciphertext,
                            delegatee_domain=DELEGATEE_DOMAIN,
                            delegatee=delegatee,
                        )
                    )
                    recovered_message = setting.backend.decrypt_reencrypted(
                        response.ciphertext, setting.delegatee_domain, delegatee
                    )
                    assert recovered_message == message
                    verified += 1
        gateway_2.close()
        setting.gateway.close()

        print_table(
            "E11: HTTP server kill/restart on a durable state dir",
            ["metric", "value"],
            [
                ["delegations granted over the wire", str(len(installed))],
                ["delegations recovered after restart", str(len(recovered))],
                ["delegations lost", str(len(installed - recovered))],
                ["plaintexts verified over the wire", str(verified)],
                ["restart (reload state dir) ms", "%.1f" % restart_ms],
            ],
        )
        assert installed - recovered == set(), "zero lost keys is the contract"
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)
