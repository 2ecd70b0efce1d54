"""Command-line interface: the full delegation lifecycle over files.

Every artifact (params, keys, ciphertexts, proxy keys) lives on disk in
the library's JSON envelope format, so the CLI doubles as an
interoperability test of :mod:`repro.serialization`.  The seven
subcommands mirror the scheme's algorithms:

    setup      create a KGC domain (params + master key files)
    extract    issue a user private key
    encrypt    hybrid-encrypt a file under a type label
    decrypt    delegator-side decryption
    pextract   create a proxy re-encryption key
    preenc     proxy transformation
    redecrypt  delegatee-side decryption
    serve      drive the sharded re-encryption gateway and print metrics;
               with --http PORT it becomes a long-running HTTP/JSON
               gateway process, and with --connect URL it drives the
               same workload against such a process over the wire.
               --scheme NAME selects any registered PRE backend
               (tipre/v1, afgh/v1, green-ateniese/v1, ...) for all
               three modes; repeated --scheme flags make one --http
               process host several scheme fleets side by side, each
               under its scheme-id-prefixed routes.  --pool-size N
               gives a --connect client a bounded keep-alive
               connection pool for concurrent callers
    schemes    list every registered scheme backend and its capabilities
    tenants    manage the tenant credential file a --tenant-config server
               verifies signed requests against (init/add/rotate/revoke/list)
    trace      fetch a distributed trace from a --http gateway by id and
               render it as a per-span waterfall (server stages included)

Example round trip::

    repro-pre setup --group TOY --domain KGC1 --out kgc1
    repro-pre setup --group TOY --domain KGC2 --out kgc2
    repro-pre extract --kgc kgc1 --identity alice --out alice.key
    repro-pre extract --kgc kgc2 --identity bob --out bob.key
    repro-pre encrypt --params kgc1/params.json --key alice.key \
        --type labs --in report.txt --out report.ct
    repro-pre pextract --key alice.key --delegatee bob \
        --delegatee-params kgc2/params.json --type labs --out labs.rk
    repro-pre preenc --rk labs.rk --in report.ct --out report.re
    repro-pre redecrypt --key bob.key --in report.re --out report.out

The master-key file is written in the clear — this CLI is a research
demonstrator, not a key-management product.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

from repro.core.scheme import TypeAndIdentityPre
from repro.hybrid.kem import HybridPre
from repro.ibe.boneh_franklin import BonehFranklinIbe
from repro.ibe.keys import IbeMasterKey
from repro.math.drbg import HmacDrbg, system_random
from repro.pairing.group import PairingGroup
from repro.serialization.containers import (
    deserialize_hybrid,
    deserialize_hybrid_reencrypted,
    deserialize_params,
    deserialize_private_key,
    deserialize_proxy_key,
    from_json_envelope,
    serialize_hybrid,
    serialize_hybrid_reencrypted,
    serialize_params,
    serialize_private_key,
    serialize_proxy_key,
    to_json_envelope,
)

__all__ = ["main"]


def _rng(args):
    return HmacDrbg(args.seed) if args.seed else system_random()


def _write_envelope(group: PairingGroup, blob: bytes, path: Path) -> None:
    path.write_text(to_json_envelope(group, blob))


def _read_envelope(group: PairingGroup, path: Path) -> bytes:
    return from_json_envelope(group, path.read_text())


def _group_of(path: Path) -> PairingGroup:
    """Infer the pairing group from any envelope file."""
    envelope = json.loads(path.read_text())
    return PairingGroup.shared(envelope["group"])


def _cmd_setup(args) -> int:
    group = PairingGroup.shared(args.group)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    params, master = BonehFranklinIbe(group, args.domain).setup(_rng(args))
    _write_envelope(group, serialize_params(group, params), out / "params.json")
    (out / "master.json").write_text(
        json.dumps({"domain": master.domain, "group": group.params.name, "alpha": master.alpha})
    )
    print("created domain %r on %s in %s" % (args.domain, args.group, out))
    return 0


def _cmd_extract(args) -> int:
    kgc_dir = Path(args.kgc)
    master_data = json.loads((kgc_dir / "master.json").read_text())
    group = PairingGroup.shared(master_data["group"])
    master = IbeMasterKey(domain=master_data["domain"], alpha=master_data["alpha"])
    key = BonehFranklinIbe(group, master.domain).extract(master, args.identity)
    _write_envelope(group, serialize_private_key(group, key), Path(args.out))
    print("extracted key for %r in domain %r" % (args.identity, master.domain))
    return 0


def _cmd_encrypt(args) -> int:
    group = _group_of(Path(args.params))
    params = deserialize_params(group, _read_envelope(group, Path(args.params)))
    key = deserialize_private_key(group, _read_envelope(group, Path(args.key)))
    payload = Path(args.infile).read_bytes()
    ciphertext = HybridPre(group).encrypt(params, key, payload, args.type, _rng(args))
    _write_envelope(group, serialize_hybrid(group, ciphertext), Path(args.out))
    print("encrypted %d bytes under type %r" % (len(payload), args.type))
    return 0


def _cmd_decrypt(args) -> int:
    group = _group_of(Path(args.infile))
    key = deserialize_private_key(group, _read_envelope(group, Path(args.key)))
    ciphertext = deserialize_hybrid(group, _read_envelope(group, Path(args.infile)))
    payload = HybridPre(group).decrypt(ciphertext, key)
    Path(args.out).write_bytes(payload)
    print("decrypted %d bytes (type %r)" % (len(payload), ciphertext.type_label))
    return 0


def _cmd_pextract(args) -> int:
    group = _group_of(Path(args.key))
    key = deserialize_private_key(group, _read_envelope(group, Path(args.key)))
    delegatee_params = deserialize_params(
        group, _read_envelope(group, Path(args.delegatee_params))
    )
    proxy_key = TypeAndIdentityPre(group).pextract(
        key, args.delegatee, args.type, delegatee_params, _rng(args)
    )
    _write_envelope(group, serialize_proxy_key(group, proxy_key), Path(args.out))
    print(
        "proxy key: %s -> %s for type %r" % (key.identity, args.delegatee, args.type)
    )
    return 0


def _cmd_preenc(args) -> int:
    group = _group_of(Path(args.infile))
    proxy_key = deserialize_proxy_key(group, _read_envelope(group, Path(args.rk)))
    ciphertext = deserialize_hybrid(group, _read_envelope(group, Path(args.infile)))
    transformed = HybridPre(group).reencrypt(ciphertext, proxy_key)
    _write_envelope(group, serialize_hybrid_reencrypted(group, transformed), Path(args.out))
    print("re-encrypted for %r (type %r)" % (proxy_key.delegatee, proxy_key.type_label))
    return 0


def _cmd_redecrypt(args) -> int:
    group = _group_of(Path(args.infile))
    key = deserialize_private_key(group, _read_envelope(group, Path(args.key)))
    ciphertext = deserialize_hybrid_reencrypted(group, _read_envelope(group, Path(args.infile)))
    payload = HybridPre(group).decrypt_reencrypted(ciphertext, key)
    Path(args.out).write_bytes(payload)
    print("decrypted %d bytes as delegatee %r" % (len(payload), key.identity))
    return 0


def _cmd_schemes(args) -> int:
    """List every registered scheme backend with its capability flags."""
    from repro.bench.report import print_table
    from repro.core.api import CAPABILITY_NAMES, REGISTRY

    rows = []
    for scheme_id in REGISTRY.ids():
        backend_class = REGISTRY.backend_class(scheme_id)
        flags = backend_class.capabilities.as_dict()
        rows.append(
            [scheme_id, backend_class.display_name]
            + ["yes" if flags[name] else "-" for name in CAPABILITY_NAMES]
        )
    short = {
        "unidirectional": "unidir",
        "non_interactive": "non-int",
        "collusion_safe": "coll-safe",
        "identity_based": "id-based",
        "type_granular": "typed",
        "deterministic_reencrypt": "det-reenc",
    }
    print_table(
        "registered PRE scheme backends",
        ["scheme", "name"] + [short[name] for name in CAPABILITY_NAMES],
        rows,
    )
    return 0


def _render_trace(trace_id: str, spans) -> list[str]:
    """Render one trace as an indented waterfall, oldest span first.

    Client- and server-side spans of the same trace nest by parent id;
    a span whose parent is not in the retrieved set (the client's root,
    on a server-side-only retrieval) sits at depth zero.  The timeline
    bar is scaled to the whole trace window.
    """
    if not spans:
        return ["trace %s: no spans" % trace_id]
    by_id = {span.span_id: span for span in spans}

    def depth(span, hops: int = 0) -> int:
        parent = by_id.get(span.parent_id)
        # hops guards a malformed cyclic parent chain from looping forever.
        if parent is None or hops > len(spans):
            return 0
        return 1 + depth(parent, hops + 1)

    ordered = sorted(spans, key=lambda span: (span.start_ms, span.span_id))
    t0 = min(span.start_ms for span in ordered)
    window = max(span.start_ms + span.duration_ms for span in ordered) - t0
    bar_width = 28
    lines = ["trace %s (%d spans, %.2f ms)" % (trace_id, len(ordered), window)]
    for span in ordered:
        offset = span.start_ms - t0
        left = int(offset / window * bar_width) if window > 0 else 0
        length = max(1, int(span.duration_ms / window * bar_width)) if window > 0 else 1
        bar = " " * left + "#" * min(length, bar_width - left)
        attributes = " ".join("%s=%s" % pair for pair in span.attributes)
        lines.append(
            "  [%-*s] %8.2fms %8.2fms  %s%s%s%s"
            % (
                bar_width,
                bar,
                offset,
                span.duration_ms,
                "  " * depth(span),
                span.name,
                "" if span.status == "ok" else " !%s" % span.status,
                " (%s)" % attributes if attributes else "",
            )
        )
    return lines


def _cmd_trace(args) -> int:
    """Fetch one trace from a remote gateway and print its waterfall."""
    from repro.pairing.group import PairingGroup
    from repro.service.wire.client import RemoteGateway

    # The trace endpoint is scheme-neutral, so no negotiation: any group
    # context decodes the error taxonomy, which is all this client needs.
    remote = RemoteGateway(
        args.connect,
        PairingGroup.shared(args.group),
        negotiate=False,
        trace_requests=False,
    )
    try:
        spans = remote.fetch_trace(args.trace_id)
    finally:
        remote.close()
    for line in _render_trace(args.trace_id, spans):
        print(line)
    return 0


def _cmd_tenants(args) -> int:
    """Manage a gateway tenant credential file (see repro.service.auth)."""
    from repro.bench.report import print_table
    from repro.service.auth import TenantCredentialStore

    path = Path(args.config)
    if args.tenants_command == "init":
        TenantCredentialStore.initialize(path)
        print("created empty tenant config %s" % path)
        return 0
    store = TenantCredentialStore(path)
    if args.tenants_command == "add":
        credential = store.add(
            args.name,
            secret=args.secret,
            roles=tuple(args.role) if args.role else ("client",),
            rate_per_s=args.rate,
            burst=args.burst,
            max_batch=args.max_batch,
            quota=args.quota,
        )
        print(
            "added tenant %r (roles: %s)"
            % (credential.tenant, ", ".join(credential.roles))
        )
        if args.secret is None:
            # Printed exactly once: the file holds it, but the operator
            # needs it now to configure the client side.
            print("secret: %s" % credential.secret)
        return 0
    if args.tenants_command == "rotate":
        credential = store.rotate(args.name, secret=args.secret)
        print("rotated secret for tenant %r" % args.name)
        if args.secret is None:
            print("secret: %s" % credential.secret)
        return 0
    if args.tenants_command == "revoke":
        store.revoke(args.name)
        print("revoked tenant %r" % args.name)
        return 0
    rows = [
        [
            credential.tenant,
            ", ".join(credential.roles),
            "-" if credential.rate_per_s is None else "%g/s" % credential.rate_per_s,
            "-" if credential.max_batch is None else str(credential.max_batch),
            "-" if credential.quota is None else str(credential.quota),
        ]
        for credential in store.tenants()
    ]
    print_table(
        "tenants in %s" % path,
        ["tenant", "roles", "rate", "max-batch", "quota"],
        rows,
    )
    return 0


def _cmd_serve(args) -> int:
    from repro.bench.report import print_table
    from repro.core.api import TIPRE_SCHEME_ID, available_schemes

    if args.http is not None and args.connect is not None:
        print("error: --http and --connect are mutually exclusive", file=sys.stderr)
        return 2
    # Repeated --scheme flags are only meaningful for a multi-fleet HTTP
    # server; the demo and --connect modes drive exactly one scheme.
    scheme_ids = list(dict.fromkeys(args.scheme)) if args.scheme else [TIPRE_SCHEME_ID]
    for scheme_id in scheme_ids:
        if scheme_id not in available_schemes():
            print(
                "error: unknown scheme %r (run `repro-pre schemes`)" % scheme_id,
                file=sys.stderr,
            )
            return 2
    if len(scheme_ids) > 1 and args.http is None:
        print(
            "error: multiple --scheme values require --http (one process, "
            "several hosted fleets)",
            file=sys.stderr,
        )
        return 2
    args.scheme = scheme_ids[0]
    if args.fleet is not None:
        if args.http is None:
            print("error: --fleet requires --http", file=sys.stderr)
            return 2
        if len(scheme_ids) > 1:
            print(
                "error: --fleet hosts one scheme per routing process",
                file=sys.stderr,
            )
            return 2
        if args.fleet < 1:
            print("error: --fleet must be positive", file=sys.stderr)
            return 2
        return _serve_fleet(args)
    if args.http is not None:
        return _serve_http(args, scheme_ids)
    if args.connect is not None:
        ignored = [
            flag
            for flag, is_set in (
                # Literals mirror the parser defaults in _build_parser.
                ("--shards", args.shards != 4),
                ("--rate", args.rate is not None),
                ("--workers", args.workers != 0),
                ("--state-dir", args.state_dir is not None),
                ("--host", args.host != "127.0.0.1"),
                ("--event-log", args.event_log is not None),
                ("--tls-cert", args.tls_cert is not None),
                ("--tls-key", args.tls_key is not None),
                ("--tenant-config", args.tenant_config is not None),
            )
            if is_set
        ]
        if ignored:
            print(
                "note: %s configure the server process, not a --connect "
                "client; ignored" % ", ".join(ignored),
                file=sys.stderr,
            )
        if (args.auth_tenant is None) != (args.auth_secret is None):
            print(
                "error: --auth-tenant and --auth-secret must be given together",
                file=sys.stderr,
            )
            return 2
        from repro.service.driver import run_remote_demo

        report = run_remote_demo(
            args.connect,
            scheme_id=args.scheme,
            group_name=args.group,
            n_requests=args.requests,
            seed=args.seed or "gateway-demo",
            batch_size=args.batch,
            pool_size=args.pool_size,
            tenant=args.auth_tenant,
            secret=args.auth_secret,
            tls_ca=args.tls_ca,
            trace_requests=args.trace_sample,
        )
        print_table(
            "remote gateway %s: %d requests" % (args.connect, args.requests),
            ["metric", "value"],
            report.rows(),
        )
        return 0
    from repro.service.driver import run_demo

    report = run_demo(
        scheme_id=args.scheme,
        group_name=args.group,
        shard_count=args.shards,
        n_requests=args.requests,
        seed=args.seed or "gateway-demo",
        batch_size=args.batch,
        rate_per_s=args.rate,
        workers=args.workers,
        state_dir=args.state_dir,
    )
    print_table(
        "gateway: %d requests over %d shards" % (args.requests, args.shards),
        ["metric", "value"],
        report.rows(),
    )
    return 0


def _state_dirs_for(state_dir, scheme_ids: list[str]) -> list:
    """Resolve each hosted scheme's durable directory under ``--state-dir``.

    A single-scheme server keeps the historical layout (logs directly in
    the state dir); several schemes get isolated per-scheme
    subdirectories.  Two restart transitions are handled explicitly so a
    layout change can never silently hide previously granted keys:

    * single -> multi: if the root still holds single-scheme logs, refuse
      to start (the new per-scheme subdirectory would open empty while
      the old log sits unread);
    * multi -> single: if the root is empty but the scheme's own
      subdirectory holds logs, keep serving from the subdirectory.
    """
    from repro.service.persistence import scheme_state_subdir

    if state_dir is None:
        return [None] * len(scheme_ids)
    root = Path(state_dir)
    root_logs = sorted(root.glob("*.log")) if root.is_dir() else []
    if len(scheme_ids) == 1:
        subdir = scheme_state_subdir(root, scheme_ids[0])
        if not root_logs and subdir.is_dir() and any(subdir.glob("*.log")):
            return [subdir]
        return [root]
    if root_logs:
        raise ValueError(
            "state dir %s holds single-scheme logs at its root (%s, ...); move "
            "them into %s/ before hosting multiple schemes, or they would be "
            "silently ignored" % (root, root_logs[0].name, scheme_state_subdir(root, scheme_ids[0]).name)
        )
    return [scheme_state_subdir(root, scheme_id) for scheme_id in scheme_ids]


def _serve_http(args, scheme_ids: list[str]) -> int:
    """Run one or several bare gateway fleets behind HTTP until interrupted.

    The process starts with empty shard tables (or whatever a durable
    ``--state-dir`` holds): grants, re-encryptions and admin resizes all
    arrive over the wire, e.g. from ``repro-pre serve --connect``.  The
    server holds no party secrets for *any* scheme — it only ever sees
    proxy keys and ciphertexts, the paper's semi-trusted proxy trust
    model.  With several ``--scheme`` flags every fleet is isolated —
    its own shards, caches, metrics, and (under ``--state-dir``) its own
    per-scheme durable subdirectory — behind scheme-id-prefixed routes.
    """
    from repro.core.api import create_backend
    from repro.service.gateway import ReEncryptionGateway
    from repro.service.telemetry import EventLog, jsonl_sink

    server_class = _server_class(args.async_wire)
    tls, verifier, policy = _security_from_args(args)
    # One hosted scheme keeps the historical shared group (existing
    # clients negotiate against its name); several schemes each get a
    # deterministically derived group of the same size, so no two fleets
    # in one process ever share group parameters (or moduli).
    if len(scheme_ids) == 1:
        groups = {scheme_ids[0]: PairingGroup.shared(args.group)}
    else:
        groups = {
            scheme_id: PairingGroup.for_scheme(args.group, scheme_id)
            for scheme_id in scheme_ids
        }
    state_dirs = _state_dirs_for(args.state_dir, scheme_ids)
    # One event log shared by every fleet and the HTTP layer: with
    # --event-log PATH each event is also appended as one JSON line, so a
    # single stream tells the whole multi-scheme story in order.
    event_stream = None
    if args.event_log is not None:
        event_stream = Path(args.event_log).open("a", encoding="utf-8")
        event_log = EventLog(sink=jsonl_sink(event_stream))
    else:
        event_log = EventLog()
    gateways = []
    try:
        for scheme_id, state_dir in zip(scheme_ids, state_dirs):
            gateways.append(
                ReEncryptionGateway(
                    create_backend(scheme_id, groups[scheme_id]),
                    shard_count=args.shards,
                    rate_per_s=args.rate,
                    workers=args.workers,
                    state_dir=state_dir,
                    event_log=event_log,
                    policy=policy,
                )
            )
        server = server_class(
            gateways=gateways,
            host=args.host,
            port=args.http,
            event_log=event_log,
            tls=tls,
            auth=verifier,
            trace_sample=args.trace_sample,
        )
        if args.async_wire:
            # The asyncio server binds inside start(); the banner below
            # must print the real (possibly ephemeral) port.
            server.start()
    except BaseException:
        for gateway in gateways:
            gateway.close()
        if event_stream is not None:
            event_stream.close()
        raise
    shard_label = "shard %s, " % args.shard if args.shard else ""
    print(
        "gateway listening on %s (%sschemes %s, group %s, %d shards, %d keys loaded)"
        % (
            server.url,
            shard_label,
            "+".join(scheme_ids),
            args.group if len(scheme_ids) == 1 else "%s (per-scheme derived)" % args.group,
            args.shards,
            sum(gateway.key_count() for gateway in gateways),
        ),
        flush=True,
    )
    _install_sigterm_interrupt()
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
        for gateway in gateways:
            gateway.close()
        if event_stream is not None:
            event_stream.close()
    return 0


def _server_class(async_wire: bool):
    """The wire server class ``serve`` runs; the other one is not imported."""
    if async_wire:
        from repro.service.wire.aio_server import AsyncGatewayServer

        return AsyncGatewayServer
    from repro.service.wire.server import GatewayHttpServer

    return GatewayHttpServer


def _security_from_args(args):
    """TLS context, request verifier and policy engine from serve flags.

    All three are None when the corresponding flag is absent, so a bare
    ``serve --http`` stays the historical anonymous plaintext server
    (and imports none of the auth modules behind them).
    """
    tls = None
    if args.tls_cert is not None:
        from repro.service.auth.tls import server_context

        tls = server_context(args.tls_cert, args.tls_key)
    elif args.tls_key is not None:
        raise ValueError("--tls-key given without --tls-cert")
    verifier = None
    policy = None
    if args.tenant_config is not None:
        from repro.service.auth import PolicyEngine, RequestVerifier, TenantCredentialStore

        store = TenantCredentialStore(args.tenant_config)
        verifier = RequestVerifier(store)
        policy = PolicyEngine(store)
    return tls, verifier, policy


def _install_sigterm_interrupt() -> None:
    """Make SIGTERM run the same clean-shutdown path as Ctrl-C.

    The long-running serve loops release their resources (worker
    subprocesses, durable logs, event streams) in ``finally`` blocks
    reached via ``KeyboardInterrupt``; without this, ``kill``/systemd
    stop the routing process but orphan the fleet's shard workers.
    """

    def handler(signum, frame):
        raise KeyboardInterrupt

    try:
        signal.signal(signal.SIGTERM, handler)
    except ValueError:  # not in the main thread (embedded use)
        pass


def _serve_fleet(args) -> int:
    """Run the multi-process fleet: worker shards plus the routing tier.

    Spawns ``--fleet N`` single-shard worker processes (each a full
    ``serve --http 0 --shards 1`` gateway server, durable under
    ``--state-dir/<shard>/``), then serves a
    :class:`~repro.service.fleet.FleetGateway` routing tier over them on
    ``--http PORT``.  Clients connect to the routing tier exactly as
    they would to a single-process server; resizes migrate keys between
    worker processes without stopping traffic.
    """
    from repro.service.fleet import FleetGateway, FleetSupervisor
    from repro.service.telemetry import EventLog, jsonl_sink

    server_class = _server_class(args.async_wire)
    event_stream = None
    if args.event_log is not None:
        event_stream = Path(args.event_log).open("a", encoding="utf-8")
        event_log = EventLog(sink=jsonl_sink(event_stream))
    else:
        event_log = EventLog()
    supervisor = None
    gateway = None
    try:
        tls, verifier, _policy = _security_from_args(args)
        supervisor = FleetSupervisor(
            args.scheme,
            shard_count=args.fleet,
            state_root=args.state_dir,
            group_name=args.group,
            host=args.host,
            rate_per_s=args.rate,
            pool_size=max(args.pool_size, 2),
            event_log=event_log,
            # The worker links inherit the routing tier's security
            # posture: same cert for intra-fleet TLS, and per-worker
            # HMAC credentials whenever end clients must sign too.
            tls_cert=args.tls_cert,
            tls_key=args.tls_key,
            worker_auth=args.tenant_config is not None,
            # Async fleets dial their workers over mux links too: one
            # multiplexed socket per worker instead of a pool.
            async_workers=args.async_wire,
        )
        gateway = FleetGateway(supervisor, event_log=event_log)
        server = server_class(
            gateways=[gateway],
            host=args.host,
            port=args.http,
            event_log=event_log,
            tls=tls,
            auth=verifier,
            trace_sample=args.trace_sample,
        )
        if args.async_wire:
            server.start()
    except BaseException:
        if gateway is not None:
            gateway.close()
        elif supervisor is not None:
            supervisor.close()
        if event_stream is not None:
            event_stream.close()
        raise
    print(
        "fleet gateway listening on %s (scheme %s, group %s, %d shard processes)"
        % (server.url, args.scheme, args.group, args.fleet),
        flush=True,
    )
    _install_sigterm_interrupt()
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
        gateway.close()
        if event_stream is not None:
            event_stream.close()
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-pre",
        description="Type-and-identity-based proxy re-encryption over files.",
    )
    parser.add_argument("--seed", help="deterministic RNG seed (testing only)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("setup", help="create a KGC domain")
    p.add_argument("--group", default="SS256", help="parameter set (TOY/SS256/SS512/SS1024)")
    p.add_argument("--domain", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_setup)

    p = sub.add_parser("extract", help="issue a user private key")
    p.add_argument("--kgc", required=True, help="KGC directory from `setup`")
    p.add_argument("--identity", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("encrypt", help="hybrid-encrypt a file under a type")
    p.add_argument("--params", required=True)
    p.add_argument("--key", required=True, help="the delegator's own private key")
    p.add_argument("--type", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_encrypt)

    p = sub.add_parser("decrypt", help="delegator-side decryption")
    p.add_argument("--key", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_decrypt)

    p = sub.add_parser("pextract", help="create a proxy re-encryption key")
    p.add_argument("--key", required=True)
    p.add_argument("--delegatee", required=True)
    p.add_argument("--delegatee-params", required=True)
    p.add_argument("--type", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_pextract)

    p = sub.add_parser("preenc", help="proxy transformation")
    p.add_argument("--rk", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_preenc)

    p = sub.add_parser("redecrypt", help="delegatee-side decryption")
    p.add_argument("--key", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_redecrypt)

    p = sub.add_parser("schemes", help="list registered PRE scheme backends")
    p.set_defaults(func=_cmd_schemes)

    p = sub.add_parser("serve", help="drive the sharded gateway on a synthetic workload")
    p.add_argument("--group", default="TOY", help="parameter set (TOY/SS256/SS512/SS1024)")
    p.add_argument("--scheme", action="append", default=None,
                   help="registered scheme backend to serve (see `repro-pre "
                        "schemes`); default tipre/v1.  Repeat the flag with "
                        "--http to host several scheme fleets in one process, "
                        "each under /v1/<scheme>/... routes")
    p.add_argument("--shards", type=int, default=4)
    p.add_argument("--requests", type=int, default=200)
    p.add_argument("--batch", type=int, default=0, help="batch size (0/1 = unbatched)")
    p.add_argument("--rate", type=float, default=None, help="per-tenant requests/second cap")
    p.add_argument("--workers", type=int, default=0,
                   help="shard-pool threads (0 = sequential batch execution)")
    p.add_argument("--state-dir", default=None,
                   help="directory for durable per-shard key logs (survives restarts)")
    p.add_argument("--http", type=int, default=None, metavar="PORT",
                   help="serve the gateway over HTTP/JSON on PORT (0 = ephemeral) "
                        "instead of driving the synthetic workload")
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address for --http (default 127.0.0.1)")
    p.add_argument("--async", dest="async_wire", action="store_true",
                   help="with --http: serve on the asyncio event-loop stack "
                        "(mux framing + HTTP/1.1 on one port) instead of the "
                        "thread-per-connection server; prints a mux:// URL "
                        "that --connect auto-negotiates")
    p.add_argument("--connect", default=None, metavar="URL",
                   help="drive the synthetic workload against a remote "
                        "gateway, e.g. http://127.0.0.1:8080 (mux://host:port "
                        "selects the multiplexed framed transport of an "
                        "--async server)")
    p.add_argument("--pool-size", type=int, default=1,
                   help="keep-alive connection pool size for the --connect "
                        "client (default 1: the single persistent connection)")
    p.add_argument("--event-log", default=None, metavar="PATH",
                   help="with --http: append every structured event (audit, "
                        "http access, server errors) as one JSON line to PATH")
    p.add_argument("--fleet", type=int, default=None, metavar="N",
                   help="with --http: spawn N single-shard worker processes "
                        "and serve a routing gateway over them (multi-process "
                        "fleet mode); --state-dir gives each worker a durable "
                        "subdirectory")
    p.add_argument("--shard", default=None, metavar="NAME",
                   help="worker mode: label this process as fleet shard NAME "
                        "(set by the fleet supervisor; informational)")
    p.add_argument("--tls-cert", default=None, metavar="PEM",
                   help="with --http: terminate TLS with this certificate "
                        "(generate a dev cert with tools/gen_dev_cert.py)")
    p.add_argument("--tls-key", default=None, metavar="PEM",
                   help="private key for --tls-cert (omit when the cert file "
                        "bundles the key)")
    p.add_argument("--tls-ca", default=None, metavar="PEM",
                   help="with --connect: CA bundle that must have signed the "
                        "server certificate (pin the dev cert file itself)")
    p.add_argument("--tenant-config", default=None, metavar="PATH",
                   help="with --http: require HMAC-signed requests, verified "
                        "against this credential file (manage it with "
                        "`repro-pre tenants`); per-tenant rate/quota/role "
                        "policy from the same file is enforced")
    p.add_argument("--auth-tenant", default=None, metavar="NAME",
                   help="with --connect: sign requests as this tenant")
    p.add_argument("--auth-secret", default=None, metavar="HEX",
                   help="with --connect: the tenant's signing secret")
    p.add_argument("--trace-sample", type=float, default=1.0, metavar="FRACTION",
                   help="head-sample traces at this rate (server-side with "
                        "--http, client-side with --connect); metrics still "
                        "count every request (default 1.0)")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("tenants", help="manage a gateway tenant credential file")
    tsub = p.add_subparsers(dest="tenants_command", required=True)
    tp = tsub.add_parser("init", help="create an empty tenant config file")
    tp.add_argument("--config", required=True, metavar="PATH")
    tp.set_defaults(func=_cmd_tenants)
    tp = tsub.add_parser("add", help="register a tenant (prints the secret)")
    tp.add_argument("name")
    tp.add_argument("--config", required=True, metavar="PATH")
    tp.add_argument("--secret", default=None,
                    help="signing secret (generated when omitted)")
    tp.add_argument("--role", action="append", default=None,
                    help="role for the tenant (repeatable; default client)")
    tp.add_argument("--rate", type=float, default=None,
                    help="per-tenant requests/second cap")
    tp.add_argument("--burst", type=float, default=None,
                    help="token-bucket burst for --rate (default: the rate)")
    tp.add_argument("--max-batch", type=int, default=None, dest="max_batch",
                    help="largest accepted re-encryption batch")
    tp.add_argument("--quota", type=int, default=None,
                    help="lifetime request quota")
    tp.set_defaults(func=_cmd_tenants)
    tp = tsub.add_parser("rotate", help="replace a tenant's signing secret")
    tp.add_argument("name")
    tp.add_argument("--config", required=True, metavar="PATH")
    tp.add_argument("--secret", default=None)
    tp.set_defaults(func=_cmd_tenants)
    tp = tsub.add_parser("revoke", help="remove a tenant")
    tp.add_argument("name")
    tp.add_argument("--config", required=True, metavar="PATH")
    tp.set_defaults(func=_cmd_tenants)
    tp = tsub.add_parser("list", help="list tenants, roles and limits")
    tp.add_argument("--config", required=True, metavar="PATH")
    tp.set_defaults(func=_cmd_tenants)

    p = sub.add_parser("trace", help="fetch and render a gateway trace by id")
    p.add_argument("trace_id", help="32-hex trace id (the X-Repro-Trace prefix, "
                                    "or a driver report's sample trace id)")
    p.add_argument("--connect", required=True, metavar="URL",
                   help="the --http gateway to query, e.g. http://127.0.0.1:8080")
    p.add_argument("--group", default="TOY",
                   help="parameter set used to decode error bodies (default TOY)")
    p.set_defaults(func=_cmd_trace)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as error:
        print("error: %s" % error, file=sys.stderr)
        return 1
    except Exception as error:
        # Service-layer errors (GatewayError subclasses) land here; import
        # locally so the lifecycle commands never pay for the service layer.
        from repro.service.gateway import GatewayError

        if isinstance(error, GatewayError):
            print("error[%s]: %s" % (error.code, error), file=sys.stderr)
            return 1
        raise


if __name__ == "__main__":
    sys.exit(main())
