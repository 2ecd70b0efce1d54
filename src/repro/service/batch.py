"""Request batching: group same-delegation re-encryptions.

A clinical workload re-encrypts many ciphertexts for the same (delegator,
delegatee, type) triple in bursts — a doctor opening a patient's history
pulls every entry of a category at once.  Each transformation needs the
same proxy key, so a batch resolves the key **once per group** and
transforms the group's items together, instead of paying a routing hop
and table lookup per ciphertext.

The batcher only partitions: it never touches shards or caches, and it
runs no transformation.  The gateway groups a batch here, checks every
group's delegation through :meth:`ReEncryptBatcher.resolve_all`, then
transforms the groups itself, one after another in submission order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.ciphertexts import ProxyKey, TypedCiphertext

__all__ = ["BatchGroup", "ReEncryptBatcher", "BatchItemError"]

# (delegator_domain, delegator, delegatee_domain, delegatee, type_label)
GroupKey = tuple[str, str, str, str, str]


class BatchItemError(Exception):
    """Wraps a per-item failure with the position it occurred at."""

    def __init__(self, position: int, cause: Exception):
        super().__init__("batch item %d failed: %s" % (position, cause))
        self.position = position
        self.cause = cause


@dataclass(frozen=True)
class BatchGroup:
    """All items of one batch sharing a single delegation triple."""

    group_key: GroupKey
    positions: tuple[int, ...]
    ciphertexts: tuple[TypedCiphertext, ...]


class ReEncryptBatcher:
    """Groups (ciphertext, delegatee) pairs by delegation."""

    @staticmethod
    def group(
        items: Sequence[tuple[TypedCiphertext, str, str]],
    ) -> list[BatchGroup]:
        """Partition ``(ciphertext, delegatee_domain, delegatee)`` items.

        Returns groups in first-appearance order; each group remembers the
        original positions so results can be restored to submission order.
        """
        buckets: dict[GroupKey, list[int]] = {}
        for position, (ciphertext, delegatee_domain, delegatee) in enumerate(items):
            key = (
                ciphertext.domain,
                ciphertext.identity,
                delegatee_domain,
                delegatee,
                ciphertext.type_label,
            )
            buckets.setdefault(key, []).append(position)
        return [
            BatchGroup(
                group_key=key,
                positions=tuple(positions),
                ciphertexts=tuple(items[i][0] for i in positions),
            )
            for key, positions in buckets.items()
        ]

    @staticmethod
    def resolve_all(
        groups: Sequence[BatchGroup],
        resolve_key: Callable[[GroupKey], ProxyKey],
    ) -> dict[GroupKey, ProxyKey]:
        """Resolve every group's key before any transformation runs.

        A missing delegation (the realistic failure) aborts the batch
        with :class:`BatchItemError` carrying the group's first position,
        before side effects accumulate: the gateway checks a whole batch
        this way before it transforms any group.
        """
        keys: dict[GroupKey, ProxyKey] = {}
        for group in groups:
            try:
                keys[group.group_key] = resolve_key(group.group_key)
            except Exception as error:  # noqa: BLE001 - rewrapped with position
                raise BatchItemError(group.positions[0], error) from error
        return keys
