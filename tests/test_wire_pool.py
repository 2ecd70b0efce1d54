"""The pooled RemoteGateway under concurrent fire: bounded, crosstalk-free.

The PR-4 client held one persistent connection, so concurrent callers
serialized on a socket; the pooled client checks connections out of a
bounded keep-alive pool instead.  Three contracts, each asserted here:

* **No cross-talk** — N threads hammering one server each get back
  exactly the transformation their own request maps to, byte-identical
  to driving the same requests sequentially (HTTP/1.1 framing on a
  shared connection pool must never interleave responses);
* **Boundedness** — the pool never holds more than ``pool_size`` live
  connections, however many threads contend (checkout blocks);
* **Reuse** — a sequential caller still rides a single dial, the E11
  guarantee the pool must not regress.

The concurrency shape (thread count, pool size, which requests each
thread replays) is property-based via Hypothesis, so the schedule space
gets explored rather than hand-picked.
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serialization.containers import serialize_reencrypted
from repro.service.driver import DELEGATEE_DOMAIN, build_setting
from repro.service.gateway import ReEncryptRequest
from repro.service.wire import AsyncGatewayServer, RemoteGateway


@pytest.fixture(scope="module")
def pool_server():
    """One live server over a seeded fleet, plus the expected responses.

    Expected bytes are computed by driving every request sequentially
    in-process — the reference any concurrent schedule must reproduce.
    """
    setting = build_setting(
        group_name="TOY",
        shard_count=2,
        n_patients=2,
        n_delegatees=2,
        n_types=2,
        ciphertexts_per_pair=1,
        seed="wire-pool",
    )
    requests = []
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
    expected = [
        serialize_reencrypted(setting.group, setting.gateway.reencrypt(r).ciphertext)
        for r in requests
    ]
    # Distinct expectations make cross-talk *observable*: a swapped
    # response can never masquerade as the right one.
    assert len(set(expected)) == len(expected)
    with AsyncGatewayServer(setting.gateway) as server:
        yield server, setting.group, requests, expected
    setting.gateway.close()


def _hammer(client, requests, expected, assignment):
    """Run one thread per index list; returns transport-level errors."""
    barrier = threading.Barrier(len(assignment))
    errors: list[BaseException] = []
    mismatches: list[tuple[int, int]] = []
    lock = threading.Lock()

    def worker(thread_id: int, indices: list[int]) -> None:
        try:
            barrier.wait(timeout=30)
            for index in indices:
                response = client.reencrypt(requests[index])
                blob = serialize_reencrypted(client.group, response.ciphertext)
                if blob != expected[index]:
                    with lock:
                        mismatches.append((thread_id, index))
        except BaseException as error:  # noqa: BLE001 - reported to the test
            with lock:
                errors.append(error)

    threads = [
        threading.Thread(target=worker, args=(i, indices), daemon=True)
        for i, indices in enumerate(assignment)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive(), "a pooled worker thread hung"
    return errors, mismatches


class TestPooledConcurrency:
    @settings(max_examples=12, deadline=None)
    @given(
        pool_size=st.integers(min_value=1, max_value=4),
        assignment=st.lists(
            st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=6),
            min_size=2,
            max_size=5,
        ),
    )
    def test_any_schedule_is_crosstalk_free_and_bounded(
        self, pool_server, pool_size, assignment
    ):
        """Property: for every (pool size, thread schedule), concurrent
        responses are byte-identical to the sequential reference and the
        pool bound holds."""
        server, group, requests, expected = pool_server
        client = RemoteGateway(server.http_url, group, pool_size=pool_size)
        try:
            errors, mismatches = _hammer(client, requests, expected, assignment)
            assert not errors, errors
            assert not mismatches, "cross-talk between pooled responses: %r" % mismatches
            assert client.peak_connections <= pool_size
            live = client.connections_opened - client.connections_closed
            assert live <= pool_size
        finally:
            client.close()

    def test_eight_threads_share_a_bounded_pool(self, pool_server):
        """The deterministic anchor: 8 threads, pool of 3, every thread
        replaying the full request set — bounded, correct, reused."""
        server, group, requests, expected = pool_server
        client = RemoteGateway(server.http_url, group, pool_size=3)
        try:
            assignment = [list(range(len(requests))) for _ in range(8)]
            errors, mismatches = _hammer(client, requests, expected, assignment)
            assert not errors, errors
            assert not mismatches
            assert client.peak_connections <= 3
            assert client.connections_opened - client.connections_closed <= 3
            # 8 threads x 8 requests over at most 3 connections: reuse is
            # the norm, not the exception.
            assert client.connections_opened <= 3
        finally:
            client.close()

    def test_sequential_caller_still_rides_one_dial(self, pool_server):
        server, group, requests, expected = pool_server
        client = RemoteGateway(server.http_url, group, pool_size=4)
        try:
            for index, request in enumerate(requests):
                response = client.reencrypt(request)
                assert serialize_reencrypted(group, response.ciphertext) == expected[index]
            assert client.connections_opened == 1
            assert client.peak_connections == 1
        finally:
            client.close()

    def test_batch_and_single_paths_share_the_pool(self, pool_server):
        server, group, requests, expected = pool_server
        client = RemoteGateway(server.http_url, group, pool_size=2)
        try:
            responses = client.reencrypt_batch(requests)
            for response, blob in zip(responses, expected):
                assert serialize_reencrypted(group, response.ciphertext) == blob
            assert client.peak_connections <= 2
        finally:
            client.close()

    def test_pool_size_must_be_positive(self, group):
        with pytest.raises(ValueError, match="pool_size"):
            RemoteGateway("http://127.0.0.1:9", group, pool_size=0)

    def test_close_drains_idle_connections(self, pool_server):
        server, group, requests, _expected = pool_server
        client = RemoteGateway(server.http_url, group, pool_size=2)
        client.reencrypt(requests[0])
        opened = client.connections_opened
        client.close()
        assert client.connections_closed == opened
        # The pool refills transparently on next use (old close semantics).
        client.reencrypt(requests[0])
        assert client.connections_opened == opened + 1
        client.close()
