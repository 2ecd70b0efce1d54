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
               with --http PORT it becomes a long-running gateway
               process (HTTP/JSON and mux frames on one port), and
               with --connect URL it drives the
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

This module holds the parser, :func:`main` and ``serve``.  The other
commands live in :mod:`repro.cli_commands`, imported only when one of
them runs, so a gateway process never loads them.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

__all__ = ["main"]


def _command(name: str):
    """The handler of command ``name`` in :mod:`repro.cli_commands`.

    That module is imported only when the command runs, so a ``serve``
    process never loads the lifecycle commands or what they import.
    """

    def run(args) -> int:
        from repro import cli_commands

        return getattr(cli_commands, name)(args)

    return run


def _cmd_serve(args) -> int:
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
        from repro.bench.report import print_table
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
    from repro.bench.report import print_table
    from repro.service.driver import run_demo

    report = run_demo(
        scheme_id=args.scheme,
        group_name=args.group,
        shard_count=args.shards,
        n_requests=args.requests,
        seed=args.seed or "gateway-demo",
        batch_size=args.batch,
        rate_per_s=args.rate,
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

    A single-scheme server keeps the historical layout (key logs directly
    in the state dir); several schemes get isolated per-scheme
    subdirectories.  Two restart transitions are handled explicitly so a
    layout change can never silently hide previously granted keys:

    * single -> multi: if the root still holds single-scheme key logs,
      refuse to start (the new per-scheme subdirectory would open empty
      while the old log sits unread);
    * multi -> single: if the root holds no key log but the scheme's own
      subdirectory does, keep serving from the subdirectory.

    Other files (an event log, say) do not count.
    """
    from repro.service.persistence import key_logs, scheme_state_subdir

    if state_dir is None:
        return [None] * len(scheme_ids)
    root = Path(state_dir)
    root_logs = key_logs(root)
    if len(scheme_ids) == 1:
        subdir = scheme_state_subdir(root, scheme_ids[0])
        if not root_logs and key_logs(subdir):
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
    With ``--shard NAME`` the process is a fleet worker instead: a
    :class:`~repro.service.fleet.TransformWorker`, which holds no keys.
    """
    from repro.core.api import create_backend
    from repro.pairing.group import PairingGroup
    from repro.service.gateway import ReEncryptionGateway
    from repro.service.telemetry import EventLog, jsonl_sink
    from repro.service.wire.aio_server import AsyncGatewayServer

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
        if args.shard is not None:
            from repro.service.fleet import TransformWorker

            gateways.append(
                TransformWorker(create_backend(args.scheme, groups[args.scheme]), args.shard)
            )
        else:
            for scheme_id, state_dir in zip(scheme_ids, state_dirs):
                gateways.append(
                    ReEncryptionGateway(
                        create_backend(scheme_id, groups[scheme_id]),
                        shard_count=args.shards,
                        rate_per_s=args.rate,
                        state_dir=state_dir,
                        event_log=event_log,
                        policy=policy,
                    )
                )
        server = AsyncGatewayServer(
            gateways=gateways,
            host=args.host,
            port=args.http,
            event_log=event_log,
            tls=tls,
            auth=verifier,
            trace_sample=args.trace_sample,
        )
    except BaseException:
        for gateway in gateways:
            gateway.close()
        if event_stream is not None:
            event_stream.close()
        raise

    def announce() -> None:
        if args.shard is not None:
            print(
                "fleet worker %s listening on %s (scheme %s, group %s)"
                % (args.shard, server.url, args.scheme, args.group),
                flush=True,
            )
            return
        print(
            "gateway listening on %s (schemes %s, group %s, %d shards, %d keys loaded)"
            % (
                server.url,
                "+".join(scheme_ids),
                args.group if len(scheme_ids) == 1 else "%s (per-scheme derived)" % args.group,
                args.shards,
                sum(gateway.key_count() for gateway in gateways),
            ),
            flush=True,
        )

    try:
        _serve_until_stopped(server, announce)
    finally:
        server.close()
        for gateway in gateways:
            gateway.close()
        if event_stream is not None:
            event_stream.close()
    return 0


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


def _serve_until_stopped(server, announce) -> None:
    """Run ``server``'s event loop on this thread, printing the banner once
    it is bound, until SIGTERM or Ctrl-C; the caller's ``finally``
    releases what the server used.

    The loop stops between requests on either signal, so this returns
    and worker subprocesses, durable logs and event streams are closed:
    ``kill``/systemd never orphan a fleet's shard workers.
    """
    try:
        server.serve_forever(announce)
    except KeyboardInterrupt:  # Ctrl-C before the loop took the signal
        pass


def _serve_fleet(args) -> int:
    """Run the multi-process fleet: a router over worker processes.

    Spawns ``--fleet N`` worker processes (``serve --http 0 --shard
    NAME``, each holding no keys), then serves the router on ``--http
    PORT``: a :class:`~repro.service.gateway.ReEncryptionGateway` whose
    shards send their transformations to the workers.  The router owns
    the one durable key table (``--state-dir/keys.log``), the result
    cache, admission, ``--rate`` and the ``--tenant-config`` policy.
    Clients connect to it exactly as to a single-process server; a
    resize starts or stops workers, and no key moves.
    """
    from repro.service.fleet import FleetSupervisor, fleet_gateway, fold_worker_logs
    from repro.service.telemetry import EventLog, jsonl_sink
    from repro.service.wire.aio_server import AsyncGatewayServer

    event_stream = None
    if args.event_log is not None:
        event_stream = Path(args.event_log).open("a", encoding="utf-8")
        event_log = EventLog(sink=jsonl_sink(event_stream))
    else:
        event_log = EventLog()
    supervisor = None
    gateway = None
    try:
        tls, verifier, policy = _security_from_args(args)
        supervisor = FleetSupervisor(
            args.scheme,
            shard_count=args.fleet,
            group_name=args.group,
            host=args.host,
            event_log=event_log,
            # The worker links inherit the router's security posture:
            # same cert for intra-fleet TLS, and per-worker HMAC
            # credentials whenever end clients must sign too.
            tls_cert=args.tls_cert,
            tls_key=args.tls_key,
            worker_auth=args.tenant_config is not None,
        )
        state_dir = None
        if args.state_dir is not None:
            fold_worker_logs(args.state_dir, supervisor.backend)
            (state_dir,) = _state_dirs_for(args.state_dir, [args.scheme])
        gateway = fleet_gateway(
            supervisor,
            rate_per_s=args.rate,
            state_dir=state_dir,
            event_log=event_log,
            policy=policy,
        )
        server = AsyncGatewayServer(
            gateways=[gateway],
            host=args.host,
            port=args.http,
            event_log=event_log,
            tls=tls,
            auth=verifier,
            trace_sample=args.trace_sample,
        )
    except BaseException:
        if gateway is not None:
            gateway.close()
        if supervisor is not None:
            supervisor.close()
        if event_stream is not None:
            event_stream.close()
        raise

    def announce() -> None:
        print(
            "fleet gateway listening on %s (scheme %s, group %s, %d shard processes, "
            "%d keys loaded)"
            % (server.url, args.scheme, args.group, args.fleet, gateway.key_count()),
            flush=True,
        )

    try:
        _serve_until_stopped(server, announce)
    finally:
        server.close()
        gateway.close()
        supervisor.close()
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
    p.set_defaults(func=_command("setup"))

    p = sub.add_parser("extract", help="issue a user private key")
    p.add_argument("--kgc", required=True, help="KGC directory from `setup`")
    p.add_argument("--identity", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_command("extract"))

    p = sub.add_parser("encrypt", help="hybrid-encrypt a file under a type")
    p.add_argument("--params", required=True)
    p.add_argument("--key", required=True, help="the delegator's own private key")
    p.add_argument("--type", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_command("encrypt"))

    p = sub.add_parser("decrypt", help="delegator-side decryption")
    p.add_argument("--key", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_command("decrypt"))

    p = sub.add_parser("pextract", help="create a proxy re-encryption key")
    p.add_argument("--key", required=True)
    p.add_argument("--delegatee", required=True)
    p.add_argument("--delegatee-params", required=True)
    p.add_argument("--type", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_command("pextract"))

    p = sub.add_parser("preenc", help="proxy transformation")
    p.add_argument("--rk", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_command("preenc"))

    p = sub.add_parser("redecrypt", help="delegatee-side decryption")
    p.add_argument("--key", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_command("redecrypt"))

    p = sub.add_parser("schemes", help="list registered PRE scheme backends")
    p.set_defaults(func=_command("schemes"))

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
    p.add_argument("--state-dir", default=None,
                   help="directory for durable key logs (survives restarts)")
    p.add_argument("--http", type=int, default=None, metavar="PORT",
                   help="serve the gateway on PORT (0 = ephemeral) instead of "
                        "driving the synthetic workload: HTTP/JSON and mux "
                        "frames on one port; the banner prints a mux:// URL")
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address for --http (default 127.0.0.1)")
    p.add_argument("--async", dest="async_wire", action="store_true",
                   help="accepted and ignored: every --http server runs the "
                        "asyncio event-loop stack")
    p.add_argument("--connect", default=None, metavar="URL",
                   help="drive the synthetic workload against a remote "
                        "gateway, e.g. mux://127.0.0.1:8080 as a --http "
                        "server prints it (http://host:port selects the "
                        "pooled HTTP client instead)")
    p.add_argument("--pool-size", type=int, default=1,
                   help="keep-alive connection pool size for the --connect "
                        "client (default 1: the single persistent connection)")
    p.add_argument("--event-log", default=None, metavar="PATH",
                   help="with --http: append every structured event (audit, "
                        "http access, server errors) as one JSON line to PATH")
    p.add_argument("--fleet", type=int, default=None, metavar="N",
                   help="with --http: spawn N worker processes and serve a "
                        "router gateway over them (multi-process fleet mode): "
                        "the router keeps the keys (--state-dir), the cache, "
                        "admission, --rate and the tenant policy, and the "
                        "workers run the transformations, holding no keys")
    p.add_argument("--shard", default=None, metavar="NAME",
                   help="with --http: run as fleet worker NAME, answering only "
                        "a fleet router's transformations (set by the fleet "
                        "supervisor)")
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
    tp.set_defaults(func=_command("tenants"))
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
    tp.set_defaults(func=_command("tenants"))
    tp = tsub.add_parser("rotate", help="replace a tenant's signing secret")
    tp.add_argument("name")
    tp.add_argument("--config", required=True, metavar="PATH")
    tp.add_argument("--secret", default=None)
    tp.set_defaults(func=_command("tenants"))
    tp = tsub.add_parser("revoke", help="remove a tenant")
    tp.add_argument("name")
    tp.add_argument("--config", required=True, metavar="PATH")
    tp.set_defaults(func=_command("tenants"))
    tp = tsub.add_parser("list", help="list tenants, roles and limits")
    tp.add_argument("--config", required=True, metavar="PATH")
    tp.set_defaults(func=_command("tenants"))

    p = sub.add_parser("trace", help="fetch and render a gateway trace by id")
    p.add_argument("trace_id", help="32-hex trace id (the X-Repro-Trace prefix, "
                                    "or a driver report's sample trace id)")
    p.add_argument("--connect", required=True, metavar="URL",
                   help="the --http gateway to query, e.g. the mux://127.0.0.1:8080 "
                        "its banner prints, or http://127.0.0.1:8080")
    p.add_argument("--group", default="TOY",
                   help="parameter set used to decode error bodies (default TOY)")
    p.set_defaults(func=_command("trace"))
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
