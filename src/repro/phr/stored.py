"""What a read from the PHR store returns, and the error for a missing entry.

The gateway's fetch path needs only these two of the store's names, so
they live apart from :mod:`repro.phr.store`, which re-exports them: a
re-encryption server that never attaches a store does not load the
store's code.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["StoredRecord", "EntryNotFoundError"]


class EntryNotFoundError(KeyError):
    """No stored ciphertext matches the requested entry."""


@dataclass(frozen=True)
class StoredRecord:
    """One opaque ciphertext plus its routing metadata."""

    patient: str
    category: str
    entry_id: str
    blob: bytes
