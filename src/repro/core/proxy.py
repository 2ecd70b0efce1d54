"""The proxy actor: a semi-trusted re-encryption service.

The proxy of the paper holds re-encryption keys and transforms ciphertexts
on request.  It never sees a private key or a plaintext; its entire state
is the table of :class:`~repro.core.ciphertexts.ProxyKey` objects installed
by delegators.  The class enforces the scheme's fine-grained policy
mechanically: a transformation happens only when a key exists for exactly
the (delegator, delegatee, type) triple of the request.

The key table lives in its own class, :class:`ProxyKeyTable`, so that a
sharded deployment (:mod:`repro.service`) can share one table among many
proxy shards and back it with a durable log.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Protocol, runtime_checkable

from repro._intern import intern
from repro.core.api import PreBackend, resolve_backend
from repro.core.ciphertexts import ProxyKey, ReEncryptedCiphertext, TypedCiphertext
from repro.core.scheme import DelegationError, TypeAndIdentityPre

__all__ = [
    "ProxyService",
    "ProxyKeyTable",
    "KeyTableBackend",
    "NoProxyKeyError",
    "ReEncryptionLogEntry",
    "DEFAULT_MAX_LOG_ENTRIES",
]

# A long-running proxy must not grow memory without bound; the log keeps
# the most recent transformations and drops the oldest beyond this cap.
DEFAULT_MAX_LOG_ENTRIES = 10_000

KeyIndex = tuple[str, str, str, str, str]


class NoProxyKeyError(KeyError):
    """Raised when the proxy holds no key for the requested transformation."""


@runtime_checkable
class KeyTableBackend(Protocol):
    """Storage observing a :class:`ProxyKeyTable`'s mutations.

    A backend sees every *effective* mutation — installs always, revokes
    only when a key was actually removed — which is exactly the sequence a
    write-ahead log needs to reconstruct the table.  The in-memory table
    is always authoritative; the backend never answers reads.
    """

    def on_install(self, key: ProxyKey) -> None:
        """``key`` was installed (or replaced) in the table."""

    def on_revoke(self, index: KeyIndex) -> None:
        """The key at ``index`` was removed from the table."""


@dataclass(frozen=True, slots=True)
class ReEncryptionLogEntry:
    """One entry of the proxy's transformation log, as :attr:`ProxyService.log` reads it."""

    delegator: str
    delegatee: str
    type_label: str
    sequence: int


class ProxyKeyTable:
    """The pure key state of one proxy: (delegator, delegatee, type) -> key.

    A sharded gateway keeps one and shares it among its shards — it
    carries no scheme object and no log, only the table and its lookups.

    An optional :class:`KeyTableBackend` observes every effective mutation,
    which is how :class:`repro.service.persistence.DurableProxyKeyTable`
    mirrors the table into an append log without the table knowing about
    files.  :meth:`load` installs without notifying the backend — it is
    the bootstrap path a backend uses to replay its own history.
    """

    def __init__(self, backend: KeyTableBackend | None = None) -> None:
        self._keys: dict[KeyIndex, ProxyKey] = {}
        self._backend = backend

    @staticmethod
    def index_of(key: ProxyKey) -> KeyIndex:
        return (
            key.delegator_domain,
            key.delegator,
            key.delegatee_domain,
            key.delegatee,
            key.type_label,
        )

    @staticmethod
    def request_index(
        ciphertext: TypedCiphertext, delegatee_domain: str, delegatee: str
    ) -> KeyIndex:
        return (
            ciphertext.domain,
            ciphertext.identity,
            delegatee_domain,
            delegatee,
            ciphertext.type_label,
        )

    def install(self, key: ProxyKey) -> None:
        """Install (or replace) a re-encryption key."""
        self._keys[self.index_of(key)] = key
        if self._backend is not None:
            self._backend.on_install(key)

    def revoke(self, index: KeyIndex) -> bool:
        """Remove a key; returns False when no such key was installed."""
        removed = self._keys.pop(index, None) is not None
        if removed and self._backend is not None:
            self._backend.on_revoke(index)
        return removed

    def load(self, keys: Iterable[ProxyKey]) -> None:
        """Install ``keys`` without notifying the backend (replay/bootstrap)."""
        for key in keys:
            self._keys[self.index_of(key)] = key

    def get(self, index: KeyIndex) -> ProxyKey | None:
        return self._keys.get(index)

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, index: KeyIndex) -> bool:
        return index in self._keys

    def __iter__(self) -> Iterator[ProxyKey]:
        return iter(self._keys.values())

    def delegations_for(
        self, delegator: str, delegator_domain: str | None = None
    ) -> list[tuple[str, str]]:
        """All (delegatee, type) pairs served for one delegator identity.

        Identities are only unique *within* a KGC domain, so the domain is
        part of the question.  When ``delegator_domain`` is omitted and the
        name exists in exactly one domain the answer is still unambiguous;
        if the name appears in several domains the call refuses rather than
        silently merging unrelated identities.
        """
        domains = {
            key.delegator_domain for key in self._keys.values() if key.delegator == delegator
        }
        if delegator_domain is None:
            if len(domains) > 1:
                raise DelegationError(
                    "delegator %r exists in domains %s; pass delegator_domain"
                    % (delegator, sorted(domains))
                )
        elif delegator_domain not in domains:
            return []
        return sorted(
            (key.delegatee, key.type_label)
            for key in self._keys.values()
            if key.delegator == delegator
            and (delegator_domain is None or key.delegator_domain == delegator_domain)
        )


@dataclass
class ProxyService:
    """A re-encryption proxy holding keys for (delegator, delegatee, type) triples.

    ``scheme`` may be the paper's raw :class:`TypeAndIdentityPre` (the
    historical spelling) or any :class:`~repro.core.api.PreBackend` —
    the proxy itself is scheme-agnostic: it routes on envelope metadata
    and delegates the transformation to the backend.
    """

    scheme: TypeAndIdentityPre | PreBackend
    name: str = "proxy"
    max_log_entries: int = DEFAULT_MAX_LOG_ENTRIES
    table: ProxyKeyTable = field(default_factory=ProxyKeyTable)
    # (delegator, delegatee, type label) per transformation, one shared
    # tuple per delegation; the sequence is implied by ring position and
    # ``log`` builds the entries.
    _log: deque[tuple[str, str, str]] = field(init=False, repr=False, compare=False)
    _log_records: dict[tuple, tuple] = field(init=False, repr=False, compare=False)
    _log_lock: threading.Lock = field(init=False, repr=False, compare=False)
    _sequence: int = field(init=False, default=0)
    backend: PreBackend = field(init=False, repr=False)
    # True for a shard that sends its transformations to another process
    # (a fleet's RemoteShard): a gateway of such shards forwards request
    # bytes undecoded, and a wire server runs its calls on a worker pool.
    forwards = False

    def __post_init__(self) -> None:
        if self.max_log_entries < 1:
            raise ValueError("max_log_entries must be positive")
        self.backend = resolve_backend(self.scheme)
        self._log = deque(maxlen=self.max_log_entries)
        self._log_records = {}
        self._log_lock = threading.Lock()

    def install_key(self, key: ProxyKey) -> None:
        """Install (or replace) a re-encryption key."""
        self.table.install(key)

    def revoke_key(
        self,
        delegator_domain: str,
        delegator: str,
        delegatee_domain: str,
        delegatee: str,
        type_label: str,
    ) -> bool:
        """Remove a key; returns False when no such key was installed."""
        return self.table.revoke(
            (delegator_domain, delegator, delegatee_domain, delegatee, type_label)
        )

    def key_count(self) -> int:
        return len(self.table)

    def delegations_for(
        self, delegator: str, delegator_domain: str | None = None
    ) -> list[tuple[str, str]]:
        """All (delegatee, type) pairs this proxy can serve for a delegator."""
        return self.table.delegations_for(delegator, delegator_domain)

    def can_reencrypt(
        self, ciphertext: TypedCiphertext, delegatee_domain: str, delegatee: str
    ) -> bool:
        return self.table.request_index(ciphertext, delegatee_domain, delegatee) in self.table

    def get_key(
        self, ciphertext: TypedCiphertext, delegatee_domain: str, delegatee: str
    ) -> ProxyKey:
        """Look up the key that would transform ``ciphertext`` for a delegatee.

        Raises :class:`NoProxyKeyError` when no matching key is installed.
        """
        key = self.table.get(self.table.request_index(ciphertext, delegatee_domain, delegatee))
        if key is None:
            raise NoProxyKeyError(
                "no proxy key for delegator=%r delegatee=%r type=%r"
                % (ciphertext.identity, delegatee, ciphertext.type_label)
            )
        return key

    def reencrypt(
        self, ciphertext: TypedCiphertext, delegatee_domain: str, delegatee: str
    ) -> ReEncryptedCiphertext:
        """Transform ``ciphertext`` for the named delegatee.

        Raises :class:`NoProxyKeyError` when the delegator never delegated
        this ciphertext's type to that delegatee — the fine-grained control
        the paper's construction provides.
        """
        key = self.get_key(ciphertext, delegatee_domain, delegatee)
        return self.reencrypt_with_key(ciphertext, key)

    def reencrypt_with_key(
        self, ciphertext: TypedCiphertext, key: ProxyKey, trace=None
    ) -> ReEncryptedCiphertext:
        """Transform with an already-resolved key (a cached table lookup).

        The key must still match the ciphertext — the backend's
        transformation guard runs regardless, so a stale cache entry
        cannot cross the policy boundary.  ``trace`` is the trace context
        a forwarding shard sends on; this one ignores it.
        """
        result = self.backend.reencrypt(ciphertext, key)
        self._log_transformation(key)
        return result

    def reencrypt_many_with_key(
        self, ciphertexts: list[TypedCiphertext], key: ProxyKey, trace=None
    ) -> list[ReEncryptedCiphertext]:
        """Transform a batch sharing one resolved key (one log entry each).

        Routes through the backend's batched transformation so
        pairing-based schemes amortise the Miller precomputation for the
        re-encryption-key point across the whole group.  On failure no log
        entries are appended (the backend validates every guard before
        transforming).
        """
        results = self.backend.reencrypt_batch(ciphertexts, key)
        self._log_transformation(key, len(ciphertexts))
        return results

    def retire(self) -> None:
        """A resize removed this shard; one in this process holds nothing to release."""

    def _log_transformation(self, key: ProxyKey, count: int = 1) -> None:
        # The backend's guard matched the key to the ciphertext, so the
        # key's strings name the same delegation — and the bounded log
        # then shares one record per delegation instead of one per request.
        with self._log_lock:
            shared = intern(self._log_records, (key.delegator, key.delegatee, key.type_label))
            self._log.extend((shared,) * count)
            self._sequence += count

    @property
    def log(self) -> list[ReEncryptionLogEntry]:
        """The transformation log (copy; bounded to ``max_log_entries``)."""
        with self._log_lock:
            records = list(self._log)
            first = self._sequence - len(records)
        return [
            ReEncryptionLogEntry(*record, sequence=first + i)
            for i, record in enumerate(records)
        ]

    @property
    def transformations_total(self) -> int:
        """Lifetime transformation count (survives log truncation)."""
        return self._sequence
