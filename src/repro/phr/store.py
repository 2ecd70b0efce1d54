"""Encrypted PHR storage.

The store is the paper's semi-trusted database: it holds only *serialized
ciphertext bytes* and routing metadata (patient, category, entry id).  It
never receives keys or plaintext objects — the type system here mirrors
the trust boundary, which is why the interface traffics in ``bytes``
rather than ciphertext dataclasses.

Two implementations share the interface: the in-memory
:class:`EncryptedPhrStore` (tests, benchmarks) and the durable
:class:`FilePhrStore` (one blob file per record plus a JSON index), which
a :class:`~repro.phr.actors.CategoryProxy` can use unchanged.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.phr.stored import EntryNotFoundError, StoredRecord

__all__ = [
    "StoredRecord",
    "EncryptedPhrStore",
    "FilePhrStore",
    "EntryNotFoundError",
    "StoreSchemeMismatchError",
    "StoreIndexError",
]


class StoreSchemeMismatchError(ValueError):
    """The on-disk store was sealed by a different scheme's backend.

    Ciphertext blobs are opaque bytes, so nothing else would catch a
    ``green/ateniese-fo`` fleet opening a ``tipre/v1`` store — the
    mismatch would surface only later, as undecodable garbage handed to
    a delegatee.  The index header stamps the sealing scheme so the
    open fails immediately and namedly instead.
    """


class StoreIndexError(ValueError):
    """The store's ``index.json`` is not an index this store can read.

    The message names the file and what is wrong with it.  Opening
    refuses before it writes anything, so the index is left byte for
    byte as it was found.
    """


@dataclass
class EncryptedPhrStore:
    """An in-memory ciphertext store keyed by (patient, entry_id)."""

    name: str = "phr-store"
    _records: dict[tuple[str, str], StoredRecord] = field(default_factory=dict)

    def put(self, patient: str, category: str, entry_id: str, blob: bytes) -> None:
        """Store (or overwrite) one ciphertext."""
        if not isinstance(blob, bytes):
            raise TypeError("the store accepts only serialized bytes")
        self._records[(patient, entry_id)] = StoredRecord(
            patient=patient, category=category, entry_id=entry_id, blob=blob
        )

    def get(self, patient: str, entry_id: str) -> StoredRecord:
        record = self._records.get((patient, entry_id))
        if record is None:
            raise EntryNotFoundError("no entry %r for patient %r" % (entry_id, patient))
        return record

    def delete(self, patient: str, entry_id: str) -> bool:
        return self._records.pop((patient, entry_id), None) is not None

    def entries_for(self, patient: str, category: str | None = None) -> list[StoredRecord]:
        """All records of a patient, optionally filtered by category."""
        return sorted(
            (
                record
                for record in self._records.values()
                if record.patient == patient
                and (category is None or record.category == category)
            ),
            key=lambda record: record.entry_id,
        )

    def patients(self) -> list[str]:
        return sorted({record.patient for record in self._records.values()})

    def record_count(self) -> int:
        return len(self._records)

    def size_bytes(self) -> int:
        """Total ciphertext bytes held (for the E3/E5 storage accounting)."""
        return sum(len(record.blob) for record in self._records.values())


class FilePhrStore:
    """A durable ciphertext store: one blob file per record + a JSON index.

    Layout under ``root``::

        index.json                   {"version": 3,
                                      "scheme": "tipre/v1" | None,
                                      "entries": {"patient|entry_id":
                                                  {"category": ..., "size": ...}}}
        blobs/<patient>/<entry_id>.bin

    The index is rewritten atomically-enough for a research store (write
    then rename).  Blob sizes live in the index so ``size_bytes`` never
    stats the filesystem, and an in-memory per-patient map makes
    ``entries_for`` read only the blobs it returns instead of scanning
    every index key.

    ``scheme_id`` seals the store to one scheme: blobs are opaque bytes,
    so without the stamp a store written by one backend would open
    cleanly under another and only fail much later, on deserialization.
    Passing a scheme id stamps new stores and verifies existing ones
    (raising :class:`StoreSchemeMismatchError` on a cross-scheme open);
    passing ``None`` adopts whatever the store already records.

    Older indexes migrate in place on open: version 1 (a flat
    ``{"patient|entry_id": "category"}`` map) stats each blob once;
    version 2 (no ``scheme`` field) adopts the opener's scheme id.  An
    index of any other shape, or one naming a version-1 blob that is
    gone, raises :class:`StoreIndexError` and is not rewritten.  The
    interface matches :class:`EncryptedPhrStore`, so proxies work with
    either backend.
    """

    INDEX_VERSION = 3

    def __init__(
        self,
        root: str | Path,
        name: str = "phr-file-store",
        scheme_id: str | None = None,
    ):
        self.name = name
        self.scheme_id = scheme_id
        self._root = Path(root)
        self._blob_dir = self._root / "blobs"
        self._index_path = self._root / "index.json"
        # key -> {"category": str, "size": int}
        self._index: dict[str, dict] = {}
        # patient -> {entry_id -> index key}; rebuilt on open, maintained on writes.
        self._by_patient: dict[str, dict[str, str]] = {}
        if self._index_path.exists():
            self._load_index()
        self._blob_dir.mkdir(parents=True, exist_ok=True)

    def _load_index(self) -> None:
        """Read ``index.json``, migrating an older version in place.

        Only an object without a ``version`` key is version 1.  An index
        that is no version this store reads, or whose entries are not
        what that version holds, raises :class:`StoreIndexError` before
        anything is written, so the file is left as it is.
        """
        try:
            raw = json.loads(self._index_path.read_bytes())
        except ValueError as error:  # torn JSON, or not UTF-8
            raise self._unreadable("it is not JSON (%s)" % error) from error
        if not isinstance(raw, dict):
            raise self._unreadable("it holds a JSON %s, not an object" % type(raw).__name__)
        if "version" not in raw:
            # Version-1 flat format: migrate, statting each blob exactly once.
            self._index = {key: self._v1_entry(key, category) for key, category in raw.items()}
            rewrite = True
        elif raw["version"] in (2, self.INDEX_VERSION):
            self._index = self._checked_entries(raw.get("entries"))
            # Version 2 had no scheme stamp: adopt the opener's scheme (or
            # stay unsealed) and rewrite in place.
            rewrite = raw["version"] == 2 or self._adopt_scheme(raw.get("scheme"))
        else:
            raise self._unreadable(
                "its version %r is not 2 or %d (a version-1 index has no version key)"
                % (raw["version"], self.INDEX_VERSION)
            )
        self._rebuild_patient_map()
        if rewrite:
            self._flush_index()

    def _unreadable(self, reason: str) -> StoreIndexError:
        return StoreIndexError("cannot open store index %s: %s" % (self._index_path, reason))

    def _check_key(self, key: str) -> None:
        if "|" not in key:
            raise self._unreadable("entry key %r is not 'patient|entry_id'" % key)

    def _v1_entry(self, key: str, category) -> dict:
        self._check_key(key)
        if not isinstance(category, str):
            raise self._unreadable("version-1 entry %r has no category string" % key)
        path = self._blob_path(*key.split("|", 1))
        try:
            size = path.stat().st_size
        except FileNotFoundError:
            raise self._unreadable("entry %r names a missing blob %s" % (key, path)) from None
        return {"category": category, "size": size}

    def _checked_entries(self, entries) -> dict[str, dict]:
        if not isinstance(entries, dict):
            raise self._unreadable('it has no "entries" object')
        for key, meta in entries.items():
            self._check_key(key)
            if not (
                isinstance(meta, dict)
                and isinstance(meta.get("category"), str)
                and type(meta.get("size")) is int
                and meta["size"] >= 0
            ):
                raise self._unreadable(
                    'entry %r is not {"category": <string>, "size": <count>}' % key
                )
        return entries

    def _adopt_scheme(self, stored) -> bool:
        """Check a version-3 stamp against the opener's scheme; True when
        an unsealed store opened by a declared backend must be sealed now."""
        if stored is None:
            return self.scheme_id is not None
        if not isinstance(stored, str):
            raise self._unreadable("its scheme %r is not a scheme id" % (stored,))
        if self.scheme_id is None:
            # Opener did not declare a scheme: adopt the stored one.
            self.scheme_id = stored
        elif stored != self.scheme_id:
            raise StoreSchemeMismatchError(
                "store %s was sealed by scheme %r; this backend speaks %r"
                % (self._root, stored, self.scheme_id)
            )
        return False

    def _rebuild_patient_map(self) -> None:
        self._by_patient = {}
        for key in self._index:
            patient, entry_id = key.split("|", 1)
            self._by_patient.setdefault(patient, {})[entry_id] = key

    @staticmethod
    def _index_key(patient: str, entry_id: str) -> str:
        if "|" in patient:
            raise ValueError("patient names must not contain '|'")
        return "%s|%s" % (patient, entry_id)

    def _blob_path(self, patient: str, entry_id: str) -> Path:
        # Entry ids come from our generator / callers; guard path traversal.
        safe_patient = patient.replace("/", "_").replace("..", "_")
        safe_entry = entry_id.replace("/", "_").replace("..", "_")
        return self._blob_dir / safe_patient / ("%s.bin" % safe_entry)

    def _flush_index(self) -> None:
        tmp = self._index_path.with_suffix(".json.tmp")
        tmp.write_text(
            json.dumps(
                {
                    "version": self.INDEX_VERSION,
                    "scheme": self.scheme_id,
                    "entries": self._index,
                },
                sort_keys=True,
            )
        )
        tmp.replace(self._index_path)

    def put(self, patient: str, category: str, entry_id: str, blob: bytes) -> None:
        if not isinstance(blob, bytes):
            raise TypeError("the store accepts only serialized bytes")
        key = self._index_key(patient, entry_id)
        path = self._blob_path(patient, entry_id)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(blob)
        self._index[key] = {"category": category, "size": len(blob)}
        self._by_patient.setdefault(patient, {})[entry_id] = key
        self._flush_index()

    def get(self, patient: str, entry_id: str) -> StoredRecord:
        meta = self._index.get(self._index_key(patient, entry_id))
        if meta is None:
            raise EntryNotFoundError("no entry %r for patient %r" % (entry_id, patient))
        blob = self._blob_path(patient, entry_id).read_bytes()
        return StoredRecord(
            patient=patient, category=meta["category"], entry_id=entry_id, blob=blob
        )

    def delete(self, patient: str, entry_id: str) -> bool:
        key = self._index_key(patient, entry_id)
        if key not in self._index:
            return False
        del self._index[key]
        patient_entries = self._by_patient.get(patient, {})
        patient_entries.pop(entry_id, None)
        if not patient_entries:
            self._by_patient.pop(patient, None)
        self._flush_index()
        self._blob_path(patient, entry_id).unlink(missing_ok=True)
        return True

    def entries_for(self, patient: str, category: str | None = None) -> list[StoredRecord]:
        records = []
        for entry_id, key in self._by_patient.get(patient, {}).items():
            if category is not None and self._index[key]["category"] != category:
                continue
            records.append(self.get(patient, entry_id))
        return sorted(records, key=lambda record: record.entry_id)

    def headers_for(
        self, patient: str, category: str | None = None
    ) -> list[tuple[str, str, int]]:
        """(entry_id, category, size) rows for a patient — no blob reads."""
        return sorted(
            (entry_id, self._index[key]["category"], self._index[key]["size"])
            for entry_id, key in self._by_patient.get(patient, {}).items()
            if category is None or self._index[key]["category"] == category
        )

    def patients(self) -> list[str]:
        return sorted(self._by_patient)

    def record_count(self) -> int:
        return len(self._index)

    def size_bytes(self) -> int:
        return sum(meta["size"] for meta in self._index.values())
