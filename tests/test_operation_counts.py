"""Per-request operation counts: a counter sees its own context only.

:func:`repro.bench.counters.count_operations` keeps its counters in a
context variable, so a counter opened by one request counts that
request's pairings and decompressions and nobody else's, even while
other requests run on other threads.  Work handed to a pool thread under
:func:`contextvars.copy_context` counts toward the code that handed it
over.  The hammer test drives a live server with singles (answered on
its event loop) and batches (answered on its worker pool) at once, with
the interpreter switching threads every microsecond.
"""

from __future__ import annotations

import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from contextvars import copy_context

import pytest

from repro.bench.counters import count_operations, record_operation
from repro.service.driver import DELEGATEE_DOMAIN, build_setting
from repro.service.gateway import GrantRequest, ReEncryptionGateway, ReEncryptRequest
from repro.service.wire import AsyncGatewayServer, RemoteGateway


def _in_thread(action) -> None:
    thread = threading.Thread(target=action)
    thread.start()
    thread.join(timeout=30)
    assert not thread.is_alive()


class TestContextLocalCounters:
    def test_a_counter_does_not_count_another_threads_operations(self):
        with count_operations() as counter:
            _in_thread(lambda: record_operation("pairing"))
            record_operation("g1_mul")
        assert counter.as_dict() == {"g1_mul": 1}

    def test_a_copied_context_carries_the_counters_to_a_pool_thread(self):
        with ThreadPoolExecutor(max_workers=1) as pool, count_operations() as counter:
            pool.submit(copy_context().run, record_operation, "pairing", 3).result()
            pool.submit(record_operation, "pairing").result()
        assert counter.as_dict() == {"pairing": 3}

    def test_nested_counters_both_count_and_unwind(self):
        with count_operations() as outer:
            with count_operations() as inner:
                record_operation("pairing")
            record_operation("pairing")
        record_operation("pairing")
        assert (outer.get("pairing"), inner.get("pairing")) == (2, 1)


SINGLE_SENDERS, BATCH_SENDERS = 3, 3
SINGLES_EACH, BATCHES_EACH, BATCH_ITEMS = 6, 4, 4


@pytest.fixture()
def hammer_setting():
    # One delegation per request, so each request builds its own Miller
    # precomputation: 3 x 6 singles + 3 x 4 batches = 30 of 36 delegations.
    setting = build_setting(
        group_name="TOY",
        shard_count=2,
        n_patients=3,
        n_delegatees=4,
        n_types=3,
        ciphertexts_per_pair=BATCH_ITEMS,
        seed="operation-count-hammer",
    )
    yield setting
    setting.gateway.close()


class TestRequestCountsUnderConcurrency:
    def test_each_request_sees_exactly_its_own_counts(self, hammer_setting, monkeypatch):
        setting = hammer_setting
        gateway = ReEncryptionGateway(setting.backend, shard_count=2)
        for key in setting.gateway.list_keys():
            gateway.grant(GrantRequest(tenant="admin", proxy_key=key))
        seen: list[tuple[int, dict]] = []
        watched = ("pairing", "g1_decompress", "miller_precompute")
        for op in ("reencrypt", "reencrypt_batch"):

            def counted(request, trace=None, _call=getattr(gateway, op)):
                with count_operations() as counter:
                    response = _call(request, trace=trace)
                items = len(request) if isinstance(request, list) else 1
                seen.append((items, {kind: counter.get(kind) for kind in watched}))
                return response

            monkeypatch.setattr(gateway, op, counted)

        delegations = [
            [
                ReEncryptRequest(
                    tenant=patient,
                    ciphertext=ciphertext,
                    delegatee_domain=DELEGATEE_DOMAIN,
                    delegatee=delegatee,
                )
                for ciphertext, _message in entries
            ]
            for (patient, _type_label), entries in sorted(setting.pool.items())
            for delegatee in setting.delegatees
        ]
        singles = [items[0] for items in delegations[: SINGLE_SENDERS * SINGLES_EACH]]
        batches = delegations[len(singles) : len(singles) + BATCH_SENDERS * BATCHES_EACH]
        errors: list[BaseException] = []

        with AsyncGatewayServer(gateway, setting.group) as server:

            def send(calls) -> None:
                client = RemoteGateway(server.http_url, setting.group)
                try:
                    for call, argument in calls:
                        getattr(client, call)(argument)
                except BaseException as error:  # noqa: BLE001 - reported below
                    errors.append(error)
                finally:
                    client.close()

            senders = [
                [("reencrypt", request) for request in singles[n::SINGLE_SENDERS]]
                for n in range(SINGLE_SENDERS)
            ] + [
                [("reencrypt_batch", batch) for batch in batches[n::BATCH_SENDERS]]
                for n in range(BATCH_SENDERS)
            ]
            threads = [threading.Thread(target=send, args=(calls,)) for calls in senders]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
            finally:
                sys.setswitchinterval(interval)
        gateway.close()

        assert not errors, errors
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(items for items, _counts in seen) == [1] * len(singles) + [
            BATCH_ITEMS
        ] * len(batches)
        for items, counts in seen:
            assert counts == {"pairing": items, "g1_decompress": items, "miller_precompute": 1}
