"""A self-contained gateway workload: build, drive, verify, report.

``repro-pre serve`` and the service benchmarks all need the same thing —
a two-domain delegation setting, a shard fleet behind a gateway, and a
repeated-delegatee request stream — so it lives here once.  Every scheme
operation goes through a registered :class:`~repro.core.api.PreBackend`
(the paper's ``tipre/v1`` unless ``scheme_id`` says otherwise), so the
identical workload exercises the paper's scheme and every baseline
alike: :func:`run_demo` drives an in-process gateway, and
:func:`run_remote_demo` grants the same proxy keys to a remote gateway
and replays the same stream over the wire, both with the same
decrypt-and-compare verification.  Everything is seeded: two runs with
the same arguments produce the same grants, the same request sequence
and the same cache behaviour.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.api import TIPRE_SCHEME_ID, PreBackend, create_backend
from repro.math.drbg import HmacDrbg
from repro.pairing.group import PairingGroup
from repro.service.gateway import (
    GrantRequest,
    RateLimitedError,
    ReEncryptionGateway,
    ReEncryptRequest,
)
from repro.service.metrics import MetricsSnapshot

__all__ = [
    "DemoSetting",
    "DemoReport",
    "build_setting",
    "drive_requests",
    "resolve_remote_group",
    "run_demo",
    "run_remote_demo",
]

DELEGATOR_DOMAIN = "KGC1"
DELEGATEE_DOMAIN = "KGC2"


@dataclass
class DemoSetting:
    """A fully-granted delegation universe over one registered backend.

    The backend holds every party's key material (the client side of the
    deployment); the gateway holds only proxy keys — exactly the trust
    split of the paper's semi-trusted proxy, for any scheme.
    """

    backend: PreBackend
    gateway: ReEncryptionGateway
    patients: list[str]
    delegatees: list[str]
    types: list[str]
    delegator_domain: str
    delegatee_domain: str
    # (patient, type) -> list of (ciphertext, plaintext)
    pool: dict[tuple[str, str], list[tuple[object, object]]] = field(default_factory=dict)

    @property
    def group(self) -> PairingGroup:
        return self.backend.group


@dataclass(frozen=True)
class DemoReport:
    """What one driven workload did, ready for table rendering."""

    snapshot: MetricsSnapshot
    shard_count: int
    requests: int
    batch_size: int
    verified: int
    shard_keys: dict[str, int]
    state_dir: str | None = None
    scheme_id: str = TIPRE_SCHEME_ID
    # The last request's trace id on a remote drive (fetchable via
    # ``repro-pre trace`` / GET /v1/trace/{id}); None for in-process runs.
    trace_id: str | None = None

    def rows(self) -> list[list[str]]:
        rows = [
            ["scheme", self.scheme_id],
            # A remote drive cannot see the fleet size; 0 means unknown.
            ["shards", str(self.shard_count) if self.shard_count else "-"],
            ["state dir", self.state_dir or "in-memory"],
            ["batch size", str(self.batch_size) if self.batch_size > 1 else "unbatched"],
            ["plaintexts verified", str(self.verified)],
            # Remote drives cannot see per-shard tables; show "-" then.
            ["keys per shard", " ".join(str(n) for n in self.shard_keys.values()) or "-"],
        ]
        if self.trace_id is not None:
            rows.append(["sample trace id", self.trace_id])
        rows.extend(self.snapshot.rows())
        return rows


def build_setting(
    scheme_id: str = TIPRE_SCHEME_ID,
    group_name: str = "TOY",
    shard_count: int = 4,
    n_patients: int = 4,
    n_delegatees: int = 3,
    n_types: int = 3,
    ciphertexts_per_pair: int = 2,
    seed: str = "gateway-demo",
    rate_per_s: float | None = None,
    state_dir: str | None = None,
    group: PairingGroup | None = None,
) -> DemoSetting:
    """Stand up parties, grants and a ciphertext pool behind a gateway.

    Patients delegate typed records to readers; single-authority schemes
    keep both sides in one domain.  ``group`` overrides the
    ``group_name`` lookup — the remote driver passes the group a
    multi-scheme server actually hosts the scheme on (which may be a
    per-scheme derived group, not the shared base).
    """
    if group is None:
        group = PairingGroup.shared(group_name)
    backend = create_backend(scheme_id, group)
    rng = HmacDrbg(seed)
    backend.setup(rng)
    delegator_domain = DELEGATOR_DOMAIN
    delegatee_domain = (
        delegator_domain if backend.single_authority else DELEGATEE_DOMAIN
    )
    # The limiter is attached after the grant phase (below): the demo rate
    # limits the request stream, not its own setup.
    gateway = ReEncryptionGateway(backend, shard_count=shard_count, state_dir=state_dir)

    patients = ["patient-%02d" % i for i in range(n_patients)]
    delegatees = ["reader-%02d" % i for i in range(n_delegatees)]
    types = ["type-%d" % i for i in range(n_types)]
    for patient in patients:
        backend.create_party(delegator_domain, patient, rng)
    for delegatee in delegatees:
        backend.create_party(delegatee_domain, delegatee, rng)

    setting = DemoSetting(
        backend=backend,
        gateway=gateway,
        patients=patients,
        delegatees=delegatees,
        types=types,
        delegator_domain=delegator_domain,
        delegatee_domain=delegatee_domain,
    )
    for patient in patients:
        for type_label in types:
            for delegatee in delegatees:
                gateway.grant(
                    GrantRequest(
                        tenant=patient,
                        proxy_key=backend.rekey(
                            delegator_domain,
                            patient,
                            delegatee_domain,
                            delegatee,
                            type_label,
                            rng,
                        ),
                    )
                )
            entries = setting.pool.setdefault((patient, type_label), [])
            for _ in range(ciphertexts_per_pair):
                message = backend.sample_message(rng)
                entries.append(
                    (
                        backend.encrypt(
                            delegator_domain, patient, message, type_label, rng
                        ),
                        message,
                    )
                )
    if rate_per_s is not None:
        gateway.set_rate_limit(rate_per_s)
    return setting


def _grant_all_remote(local_gateway: ReEncryptionGateway, remote) -> None:
    """Install every locally-built proxy key on a remote gateway.

    The server may rate-limit grants (a bare remote process has no
    setup-phase grace) — wait out the bucket instead of aborting.
    """
    for key in local_gateway.list_keys():
        request = GrantRequest(tenant="driver", proxy_key=key)
        for _attempt in range(200):
            try:
                remote.grant(request)
                break
            except RateLimitedError:
                time.sleep(0.05)
        else:
            raise RateLimitedError(
                "remote gateway rate limit never admitted the grant phase"
            )


def drive_requests(
    setting: DemoSetting,
    n_requests: int,
    seed: str = "gateway-requests",
    batch_size: int = 0,
    verify_every: int = 8,
    gateway=None,
) -> int:
    """Replay a seeded repeated-delegatee stream; returns verified count.

    Every ``verify_every``-th response (and every response of the final
    partial batch) is decrypted through the backend with the delegatee's
    key and compared to the stored plaintext — the end-to-end check that
    caching and batching never change what the delegatee recovers.

    ``gateway`` overrides the setting's own gateway: pass a
    :class:`~repro.service.wire.client.RemoteGateway` speaking the same
    backend and the identical stream drives a remote process instead —
    same requests, same verification, which is exactly how the CLI's
    ``--connect`` mode and the E11 benchmark compare wire against
    in-process behaviour.  The RNG draw order is part of the workload's
    bit-stability contract — never reorder the four choices.
    """
    gateway = gateway if gateway is not None else setting.gateway
    rng = HmacDrbg(seed)
    verified = 0
    pending: list[tuple[ReEncryptRequest, object]] = []

    def verify(request: ReEncryptRequest, response, message) -> None:
        nonlocal verified
        recovered = setting.backend.decrypt_reencrypted(
            response.ciphertext, setting.delegatee_domain, request.delegatee
        )
        assert recovered == message, "gateway returned a wrong transformation"
        verified += 1

    for i in range(n_requests):
        patient = rng.choice(setting.patients)
        type_label = rng.choice(setting.types)
        delegatee = rng.choice(setting.delegatees)
        ciphertext, message = rng.choice(setting.pool[(patient, type_label)])
        request = ReEncryptRequest(
            tenant=patient,
            ciphertext=ciphertext,
            delegatee_domain=setting.delegatee_domain,
            delegatee=delegatee,
        )
        # A rate-limited request is a normal workload outcome: the gateway
        # already counted it; the stream moves on (a batch is dropped whole).
        if batch_size > 1:
            pending.append((request, message))
            if len(pending) >= batch_size:
                try:
                    responses = gateway.reencrypt_batch([r for r, _ in pending])
                except RateLimitedError:
                    responses = []
                for j, (response, (req, msg)) in enumerate(zip(responses, pending)):
                    if (i + j) % verify_every == 0:
                        verify(req, response, msg)
                pending.clear()
        else:
            try:
                response = gateway.reencrypt(request)
            except RateLimitedError:
                continue
            if i % verify_every == 0:
                verify(request, response, message)
    if pending:
        try:
            responses = gateway.reencrypt_batch([r for r, _ in pending])
        except RateLimitedError:
            responses = []
        for response, (req, msg) in zip(responses, pending):
            verify(req, response, msg)
    return verified


def run_demo(
    scheme_id: str = TIPRE_SCHEME_ID,
    group_name: str = "TOY",
    shard_count: int = 4,
    n_requests: int = 200,
    seed: str = "gateway-demo",
    batch_size: int = 0,
    rate_per_s: float | None = None,
    state_dir: str | None = None,
) -> DemoReport:
    """Build a setting, drive a request stream, return the rendered report.

    With ``state_dir`` the granted delegations land in the durable key
    log, so a second ``serve`` run against the same directory starts
    with every key already installed.
    """
    setting = build_setting(
        scheme_id=scheme_id,
        group_name=group_name,
        shard_count=shard_count,
        seed=seed,
        rate_per_s=rate_per_s,
        state_dir=state_dir,
    )
    try:
        verified = drive_requests(
            setting, n_requests, seed=seed + "-requests", batch_size=batch_size
        )
        return DemoReport(
            snapshot=setting.gateway.snapshot(),
            shard_count=shard_count,
            requests=n_requests,
            batch_size=batch_size,
            verified=verified,
            shard_keys=setting.gateway.shard_key_counts(),
            state_dir=state_dir,
            scheme_id=scheme_id,
        )
    finally:
        setting.gateway.close()


def resolve_remote_group(
    url: str,
    scheme_id: str,
    base_name: str = "TOY",
    timeout: float = 10.0,
    tls_ca: str | None = None,
) -> PairingGroup:
    """The pairing group a remote server hosts ``scheme_id`` on.

    A multi-scheme server runs every hosted scheme on its own derived
    group (``"<BASE>:<scheme>"``) rather than the shared base; a
    single-scheme server keeps the shared base.  This probe reads the
    server's ``/v1/schemes`` document and returns the matching local
    group, so a ``--connect`` client builds its delegation universe on
    the parameters the server will actually accept.  A server that does
    not host the scheme (or cannot be probed) yields the shared base —
    the client's normal negotiation then raises the canonical error.
    """
    from repro.service.wire.aio_client import connect_gateway
    from repro.service.wire.client import WireTransportError

    base = PairingGroup.shared(base_name)
    try:
        probe = connect_gateway(
            url,
            base,
            timeout=timeout,
            negotiate=False,
            trace_requests=False,
            tls_ca=tls_ca,
        )
        try:
            entries = probe.schemes_info()
        finally:
            probe.close()
    except WireTransportError:
        return base
    derived_name = "%s:%s" % (base_name.upper(), scheme_id)
    for entry in entries:
        if not isinstance(entry, dict) or entry.get("scheme") != scheme_id:
            continue
        hosted_group = entry.get("group")
        if hosted_group == base.params.name:
            return base
        if hosted_group == derived_name:
            return PairingGroup.for_scheme(base_name, scheme_id)
        break
    return base


def run_remote_demo(
    url: str,
    scheme_id: str = TIPRE_SCHEME_ID,
    group_name: str = "TOY",
    n_requests: int = 200,
    seed: str = "gateway-demo",
    batch_size: int = 0,
    pool_size: int = 1,
    tenant: str | None = None,
    secret: str | None = None,
    tls_ca: str | None = None,
    trace_requests: bool | float = True,
) -> DemoReport:
    """Drive a *remote* gateway over the wire with the same seeded workload.

    The delegation universe is built locally (all party secrets stay on
    this side), the scheme is negotiated with the server, every proxy
    key is granted over the wire, and then the request stream of
    :func:`run_demo` is replayed through a remote client — with the
    same decrypt-and-compare verification, which only passes if the
    remote process returns transformations the delegatee can open.  The
    server can be a bare ``repro-pre serve --http --scheme X`` process:
    it needs no prior state, only the same pairing group.
    """
    from repro.service.wire.aio_client import connect_gateway

    group = resolve_remote_group(url, scheme_id, group_name, tls_ca=tls_ca)
    setting = build_setting(
        scheme_id=scheme_id, group_name=group_name, seed=seed, group=group
    )
    try:
        with connect_gateway(
            url,
            setting.backend,
            pool_size=pool_size,
            tenant=tenant,
            secret=secret,
            tls_ca=tls_ca,
            trace_requests=trace_requests,
        ) as remote:
            _grant_all_remote(setting.gateway, remote)
            verified = drive_requests(
                setting,
                n_requests,
                seed=seed + "-requests",
                batch_size=batch_size,
                gateway=remote,
            )
            last_trace = getattr(remote, "last_trace", None)
            snapshot = remote.snapshot()
        return DemoReport(
            snapshot=snapshot,
            shard_count=0,
            requests=n_requests,
            batch_size=batch_size,
            verified=verified,
            shard_keys={},
            state_dir=None,
            scheme_id=scheme_id,
            trace_id=last_trace.trace_id if last_trace is not None else None,
        )
    finally:
        setting.gateway.close()
