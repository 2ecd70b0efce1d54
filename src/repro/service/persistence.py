"""Durable proxy-key storage: an append log behind :class:`ProxyKeyTable`.

The paper's proxy is a *long-lived* semi-trusted server: delegators hand
it re-encryption keys once and expect them to keep working.  A gateway
that forgets every delegation on restart is therefore not a reproduction
of the deployment — this module gives the gateway a file-backed key table
that survives process death.

Design: a classic write-ahead append log with periodic compaction.

* Every effective table mutation (install / successful revoke) appends
  one JSON line carrying a CRC32 of its payload.  Installs embed the
  proxy key as the library's binary serialization (base64), so the log
  round-trips through :mod:`repro.serialization` and is portable across
  processes.
* The first line is a version header naming the format and the pairing
  group; opening a log written for a different group fails loudly
  instead of deserializing garbage points.
* Replay applies records in order.  A torn or corrupt *last line* — the
  only damage an append-crash can cause — is detected by parse/CRC
  failure; the file is truncated back to the last good record and the
  table opens with every preceding mutation intact.  A damaged record
  with more lines after it is other damage: dropping what follows could
  bring back a revoked delegation, so opening refuses
  (:class:`LogFormatError`) and leaves the file as it is.
* Compaction rewrites the log as one install per live key, via a
  temporary file and :func:`os.replace`, so a crash mid-compaction
  leaves either the old log or the new one — never a half file.  It
  triggers automatically once the log holds several times more records
  than live keys.

:class:`DurableProxyKeyTable` wires the store into
:class:`~repro.core.proxy.ProxyKeyTable` through the
:class:`~repro.core.proxy.KeyTableBackend` protocol, so every caller of
the plain table (shards, the gateway, tests) works unchanged on top of
the durable one.

A gateway's state dir holds one key log, ``keys.log``
(:func:`open_key_log`).  Gateways used to keep one log per in-process
shard, ``shard-NN.log``; opening a state dir folds those into
``keys.log``.  :func:`key_logs` names the files that are key logs, so
nothing else in the directory (an event log, say) is ever opened as one.
"""

from __future__ import annotations

import base64
import json
import os
import re
import threading
import zlib
from pathlib import Path

from repro.core.api import TIPRE_SCHEME_ID, PreBackend, resolve_backend
from repro.core.ciphertexts import ProxyKey
from repro.core.proxy import KeyIndex, ProxyKeyTable
from repro.pairing.group import PairingGroup

__all__ = [
    "AppendLogKeyStore",
    "DurableProxyKeyTable",
    "LogFormatError",
    "key_logs",
    "open_key_log",
    "scheme_state_subdir",
]

LOG_FORMAT = "repro-proxy-key-log"
LOG_VERSION = 1
KEY_LOG = "keys.log"
# The older layout's per-shard logs, named after the shards.
_SHARD_LOG = re.compile(r"shard-\d{2,}\.log")


def scheme_state_subdir(state_dir: str | Path, scheme_id: str) -> Path:
    """The per-scheme durable-state directory under a shared ``--state-dir``.

    A server hosting several scheme fleets gives each one an isolated
    key-table directory, so two schemes can never interleave logs (the
    log header's scheme stamp would refuse a mix anyway — this keeps the
    layout legible too).  Slashes in the wire-stable scheme id map to
    ``-`` on disk: ``tipre/v1`` -> ``<state_dir>/tipre-v1``.
    """
    return Path(state_dir) / scheme_id.replace("/", "-")


class LogFormatError(ValueError):
    """The log file's header is missing, unversioned or for another group,
    or a record before its last line is damaged."""


def _crc_of(payload: str) -> int:
    return zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF


class AppendLogKeyStore:
    """The file side of a durable key table (implements ``KeyTableBackend``).

    The store only ever *appends* during normal operation; reads happen
    once, at :meth:`replay`.  ``record_count`` tracks log growth so the
    owning table can decide when compaction pays for itself.
    """

    def __init__(
        self, path: str | Path, group: PairingGroup | PreBackend, fsync: bool = False
    ):
        self.path = Path(path)
        # ``group`` historically was a bare PairingGroup (implying the
        # paper's scheme); any PreBackend selects another scheme, whose
        # id is stamped into (and checked against) the log header.
        self.backend = resolve_backend(group)
        self.group = self.backend.group
        self.fsync = fsync
        self.record_count = 0
        self.recovered_bytes = 0  # torn tail dropped by the last replay
        self._file = None

    # ----------------------------------------------------------------- replay

    def replay(self) -> list[ProxyKey]:
        """Load the log (creating it if absent) and return the live keys.

        Applies installs and revokes in order.  A last line that fails
        to parse, fails its CRC or fails deserialization is a torn tail:
        it is truncated away and the preceding state is returned.  Such
        a record anywhere else raises :class:`LogFormatError` naming its
        line, and the file is left untouched.  A file that is empty, or whose
        header line itself is torn (no trailing newline — a crash during
        log creation), is re-initialized as a fresh log; a *complete*
        header that names the wrong format or group still fails loudly,
        so a foreign file is never silently overwritten.
        """
        if not self.path.exists() or self.path.stat().st_size == 0:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "w", encoding="utf-8") as handle:
                handle.write(self._header_line())
            self._open_for_append()
            return []

        live: dict[KeyIndex, ProxyKey] = {}
        records = 0
        with open(self.path, "rb") as handle:
            header = handle.readline()
            if not header.endswith(b"\n"):
                # Torn header write: the log died at creation; start over.
                self.recovered_bytes = len(header)
                with open(self.path, "w", encoding="utf-8") as fresh:
                    fresh.write(self._header_line())
                self._open_for_append()
                return []
            self._check_header(header)
            good_offset = handle.tell()
            for line_number, raw in enumerate(iter(handle.readline, b""), start=2):
                # A line without its newline is a torn append mid-write.
                if raw.endswith(b"\n") and self._apply(raw, live):
                    good_offset = handle.tell()
                    records += 1
                    continue
                if handle.read(1):
                    raise LogFormatError(
                        "%s: damaged record on line %d, with more records after it; "
                        "an append crash tears only the last line, so the log is "
                        "left as it is" % (self.path, line_number)
                    )
                break
        size = self.path.stat().st_size
        self.recovered_bytes = size - good_offset
        if self.recovered_bytes:
            with open(self.path, "rb+") as handle:
                handle.truncate(good_offset)
        self.record_count = records
        self._open_for_append()
        return list(live.values())

    def _apply(self, raw: bytes, live: dict[KeyIndex, ProxyKey]) -> bool:
        """Apply one record line to ``live``; False marks a damaged record."""
        try:
            record = json.loads(raw.decode("utf-8"))
            op = record["op"]
            if op == "install":
                payload = record["key"]
                if record["crc"] != _crc_of(payload):
                    return False
                key = self.backend.deserialize_proxy_key(base64.b64decode(payload))
                live[ProxyKeyTable.index_of(key)] = key
            elif op == "revoke":
                index = tuple(record["index"])
                if len(index) != 5 or record["crc"] != _crc_of("|".join(index)):
                    return False
                live.pop(index, None)
            else:
                return False
        except (ValueError, KeyError, TypeError):
            return False
        return True

    def _header_line(self) -> str:
        header = {
            "format": LOG_FORMAT,
            "version": LOG_VERSION,
            "group": self.group.params.name,
            "scheme": self.backend.scheme_id,
        }
        return json.dumps(header, sort_keys=True) + "\n"

    def _check_header(self, raw: bytes) -> None:
        try:
            header = json.loads(raw.decode("utf-8"))
        except ValueError as error:
            raise LogFormatError("unreadable log header in %s" % self.path) from error
        if header.get("format") != LOG_FORMAT or header.get("version") != LOG_VERSION:
            raise LogFormatError(
                "%s is not a version-%d %s file" % (self.path, LOG_VERSION, LOG_FORMAT)
            )
        if header.get("group") != self.group.params.name:
            raise LogFormatError(
                "log %s was written for group %r, not %r"
                % (self.path, header.get("group"), self.group.params.name)
            )
        # Logs from before the backend API carry no scheme field; they
        # were all written by the paper's scheme.
        scheme = header.get("scheme", TIPRE_SCHEME_ID)
        if scheme != self.backend.scheme_id:
            raise LogFormatError(
                "log %s was written under scheme %r, not %r"
                % (self.path, scheme, self.backend.scheme_id)
            )

    # ----------------------------------------------------------------- writes

    def _open_for_append(self) -> None:
        self._file = open(self.path, "a", encoding="utf-8")

    def _append(self, record: dict) -> None:
        if self._file is None:
            raise ValueError("store %s is closed" % self.path)
        self._file.write(json.dumps(record, sort_keys=True) + "\n")
        self._file.flush()
        if self.fsync:
            os.fsync(self._file.fileno())
        self.record_count += 1

    def on_install(self, key: ProxyKey) -> None:
        payload = base64.b64encode(self.backend.serialize_proxy_key(key)).decode("ascii")
        self._append({"op": "install", "key": payload, "crc": _crc_of(payload)})

    def on_revoke(self, index: KeyIndex) -> None:
        self._append(
            {"op": "revoke", "index": list(index), "crc": _crc_of("|".join(index))}
        )

    def rewrite(self, keys: list[ProxyKey]) -> None:
        """Compact: replace the log with one install per live key, atomically."""
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(self._header_line())
            for key in keys:
                payload = base64.b64encode(self.backend.serialize_proxy_key(key)).decode(
                    "ascii"
                )
                handle.write(
                    json.dumps(
                        {"op": "install", "key": payload, "crc": _crc_of(payload)},
                        sort_keys=True,
                    )
                    + "\n"
                )
            handle.flush()
            os.fsync(handle.fileno())
        if self._file is not None:
            self._file.close()
        os.replace(tmp, self.path)
        self.record_count = len(keys)
        self._open_for_append()

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    def delete(self) -> None:
        """Close and remove the log file (a folded per-shard log)."""
        self.close()
        self.path.unlink(missing_ok=True)


class DurableProxyKeyTable(ProxyKeyTable):
    """A :class:`ProxyKeyTable` whose state survives process death.

    Opening the table replays the append log at ``path``; every later
    install/revoke is logged before the call returns.  The table
    self-compacts when the log exceeds ``auto_compact_ratio`` times the
    live key count (and at least ``auto_compact_min`` records), so a
    grant/revoke-heavy workload cannot grow the file without bound.
    All mutations are serialized by an internal lock — shards may be
    driven from a thread pool.
    """

    def __init__(
        self,
        path: str | Path,
        group: PairingGroup | PreBackend,
        auto_compact_ratio: float = 4.0,
        auto_compact_min: int = 256,
        fsync: bool = False,
    ):
        if auto_compact_ratio < 1.0:
            raise ValueError("auto_compact_ratio must be >= 1")
        self._store = AppendLogKeyStore(path, group, fsync=fsync)
        super().__init__(backend=self._store)
        self._lock = threading.RLock()
        self.auto_compact_ratio = auto_compact_ratio
        self.auto_compact_min = auto_compact_min
        self.load(self._store.replay())

    @property
    def path(self) -> Path:
        return self._store.path

    @property
    def log_records(self) -> int:
        """Records currently in the log (grows until compaction)."""
        return self._store.record_count

    @property
    def recovered_bytes(self) -> int:
        """Bytes of torn tail dropped when the table was opened."""
        return self._store.recovered_bytes

    def install(self, key: ProxyKey) -> None:
        with self._lock:
            super().install(key)
            self._maybe_compact()

    def revoke(self, index: KeyIndex) -> bool:
        with self._lock:
            removed = super().revoke(index)
            if removed:
                self._maybe_compact()
            return removed

    def _maybe_compact(self) -> None:
        if self._store.record_count < self.auto_compact_min:
            return
        if self._store.record_count > self.auto_compact_ratio * max(1, len(self)):
            self.compact()

    def compact(self) -> None:
        """Shrink the log to exactly the live keys (crash-safe rewrite)."""
        with self._lock:
            self._store.rewrite(list(self))

    def close(self) -> None:
        with self._lock:
            self._store.close()

    def delete(self) -> None:
        """Close and remove the backing file (a folded per-shard log)."""
        with self._lock:
            self._store.delete()


def key_logs(state_dir: str | Path) -> list[Path]:
    """The key logs in ``state_dir``: ``keys.log`` and older ``shard-NN.log`` files."""
    return sorted(
        path
        for path in Path(state_dir).glob("*.log")
        if path.name == KEY_LOG or _SHARD_LOG.fullmatch(path.name)
    )


def open_key_log(
    state_dir: str | Path, group: PairingGroup | PreBackend, fsync: bool = False
) -> DurableProxyKeyTable:
    """Open ``<state_dir>/keys.log``, folding in the older per-shard logs.

    Each ``shard-NN.log`` is replayed, its live keys are installed into
    ``keys.log``, and then it is deleted.  Installing a key twice is
    idempotent, so the next open repairs a crash mid-fold.  No other
    file in the directory is opened.
    """
    table = DurableProxyKeyTable(Path(state_dir) / KEY_LOG, group, fsync=fsync)
    try:
        for path in key_logs(state_dir):
            if path.name != KEY_LOG:
                legacy = DurableProxyKeyTable(path, group)
                for key in list(legacy):
                    table.install(key)
                legacy.delete()
    except BaseException:
        table.close()
        raise
    return table
