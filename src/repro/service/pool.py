"""Per-shard mutual exclusion for the gateway's shards.

The gateway's consistency unit is the shard — the router assigns every
delegation to exactly one shard, and every write of its key (to the
gateway's one key table) or transformation under it holds that shard's
lock.  Operations on *different* shards commute while operations on the
*same* shard must serialize.  :class:`ShardPool` encodes precisely that:
one reentrant lock per shard, and a whole-fleet lock ordering for
structural changes (resize).

The pool runs nothing itself.  Gateway calls arrive concurrently from
the wire server's event loop and its worker pool (batches), and from
in-process callers' threads; each call takes the lock of the shard it
touches.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator, Sequence

__all__ = ["ShardPool"]


class ShardPool:
    """One reentrant lock per shard, plus a whole-fleet lock."""

    def __init__(self, shard_names: Sequence[str]):
        self._fleet_lock = threading.RLock()  # serializes lock_all holders
        self._locks: dict[str, threading.RLock] = {
            name: threading.RLock() for name in shard_names
        }

    def lock_object(self, shard_name: str) -> threading.RLock | None:
        """The raw lock for a shard, or None if the shard is gone (resized away)."""
        return self._locks.get(shard_name)

    @contextmanager
    def lock_all(self) -> Iterator[None]:
        """Hold *every* shard lock, acquired in sorted-name order.

        The single acquisition order makes fleet-wide operations (resize,
        durable close) deadlock-free against per-shard work.  Fleet
        operations additionally serialize on one admin lock: a second
        ``lock_all`` waiting behind a resize must snapshot the lock set
        *after* that resize's ``set_shards`` rewrote it, or it would hold
        the retired fleet's locks while the new shards go unguarded.
        """
        with self._fleet_lock:
            held = [self._locks[name] for name in sorted(self._locks)]
            for lock in held:
                lock.acquire()
            try:
                yield
            finally:
                for lock in reversed(held):
                    lock.release()

    def set_shards(self, shard_names: Sequence[str]) -> None:
        """Re-key the lock set after a resize (existing locks are kept).

        Callers must hold :meth:`lock_all` — the fleet cannot change shape
        while per-shard work is in flight.
        """
        self._locks = {
            name: self._locks.get(name, threading.RLock()) for name in shard_names
        }
