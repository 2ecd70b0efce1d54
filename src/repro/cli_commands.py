"""Every ``repro-pre`` command but ``serve``: the paper's key and file
lifecycle (setup, extract, encrypt, decrypt, pextract, preenc,
redecrypt), ``schemes``, ``tenants`` and ``trace``.

:mod:`repro.cli` parses the command line and imports this module only
when one of these commands runs, so a ``serve`` process never compiles
them, nor the hybrid KEM and Boneh--Franklin code they call.  Each
function takes the parsed arguments and returns an exit code.
"""

from __future__ import annotations

import json
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

__all__ = [
    "setup",
    "extract",
    "encrypt",
    "decrypt",
    "pextract",
    "preenc",
    "redecrypt",
    "schemes",
    "tenants",
    "trace",
]


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


def setup(args) -> int:
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


def extract(args) -> int:
    kgc_dir = Path(args.kgc)
    master_data = json.loads((kgc_dir / "master.json").read_text())
    group = PairingGroup.shared(master_data["group"])
    master = IbeMasterKey(domain=master_data["domain"], alpha=master_data["alpha"])
    key = BonehFranklinIbe(group, master.domain).extract(master, args.identity)
    _write_envelope(group, serialize_private_key(group, key), Path(args.out))
    print("extracted key for %r in domain %r" % (args.identity, master.domain))
    return 0


def encrypt(args) -> int:
    group = _group_of(Path(args.params))
    params = deserialize_params(group, _read_envelope(group, Path(args.params)))
    key = deserialize_private_key(group, _read_envelope(group, Path(args.key)))
    payload = Path(args.infile).read_bytes()
    ciphertext = HybridPre(group).encrypt(params, key, payload, args.type, _rng(args))
    _write_envelope(group, serialize_hybrid(group, ciphertext), Path(args.out))
    print("encrypted %d bytes under type %r" % (len(payload), args.type))
    return 0


def decrypt(args) -> int:
    group = _group_of(Path(args.infile))
    key = deserialize_private_key(group, _read_envelope(group, Path(args.key)))
    ciphertext = deserialize_hybrid(group, _read_envelope(group, Path(args.infile)))
    payload = HybridPre(group).decrypt(ciphertext, key)
    Path(args.out).write_bytes(payload)
    print("decrypted %d bytes (type %r)" % (len(payload), ciphertext.type_label))
    return 0


def pextract(args) -> int:
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


def preenc(args) -> int:
    group = _group_of(Path(args.infile))
    proxy_key = deserialize_proxy_key(group, _read_envelope(group, Path(args.rk)))
    ciphertext = deserialize_hybrid(group, _read_envelope(group, Path(args.infile)))
    transformed = HybridPre(group).reencrypt(ciphertext, proxy_key)
    _write_envelope(group, serialize_hybrid_reencrypted(group, transformed), Path(args.out))
    print("re-encrypted for %r (type %r)" % (proxy_key.delegatee, proxy_key.type_label))
    return 0


def redecrypt(args) -> int:
    group = _group_of(Path(args.infile))
    key = deserialize_private_key(group, _read_envelope(group, Path(args.key)))
    ciphertext = deserialize_hybrid_reencrypted(group, _read_envelope(group, Path(args.infile)))
    payload = HybridPre(group).decrypt_reencrypted(ciphertext, key)
    Path(args.out).write_bytes(payload)
    print("decrypted %d bytes as delegatee %r" % (len(payload), key.identity))
    return 0


def schemes(args) -> int:
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


def trace(args) -> int:
    """Fetch one trace from a remote gateway and print its waterfall."""
    from repro.service.wire.aio_client import connect_gateway

    # The trace endpoint is scheme-neutral, so no negotiation: any group
    # context decodes the error taxonomy, which is all this client needs.
    remote = connect_gateway(
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


def tenants(args) -> int:
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
