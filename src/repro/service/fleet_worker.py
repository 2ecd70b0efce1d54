"""A fleet worker: a child process that runs transformations on a pipe.

A transformation is a pure function of (proxy key, ciphertext), so a
worker holds no key table and keeps nothing at rest: every call brings
its resolved key.  The router (:mod:`repro.service.fleet`) starts one
per shard as ``python -m repro.service.fleet_worker SCHEME GROUP NAME``.
It writes :data:`READY` once it can serve, then answers each call on
its stdin with one frame on its stdout, until its stdin ends: it exits
with its router.  Anything it prints goes to stderr.

A frame is a 4-byte big-endian length, then that many bytes of parts,
each a 4-byte length and its bytes.  A call's parts are the proxy key's
container bytes, then each ciphertext's.  An answer's parts are its
status (``ok`` or ``invalid-request``), the crypto time in ms and the
substrate op counts as one ASCII line (``0.912 g1_decompress=1
pairing=1``), then the re-encrypted containers in call order, or the
refusal's message.  No JSON, base64 or pickle: the containers are those
of :mod:`repro.serialization.containers`.  Bytes that do not decode, or
a key outside G1, answer ``invalid-request``, and the worker keeps
serving.  Decoded keys stay in an LRU keyed by their bytes, so a key's
points are decompressed once while it is in use.
"""

from __future__ import annotations

import os
import signal
import struct
import sys
import time
from typing import BinaryIO, Sequence

from repro.bench.counters import SUBSTRATE_OPS, OperationCounter
from repro.core.api import PreBackend, create_backend
from repro.pairing.group import PairingGroup
from repro.pairing.miller import PointOrderError
from repro.service.cache import LruCache

__all__ = ["INVALID", "READY", "frame_length", "pack_frame", "run", "unpack_frame"]

_LENGTH = struct.Struct(">I")
# The largest frame either end reads, as for the mux framing.
MAX_FRAME_BYTES = 64 * 1024 * 1024
READY = b"ready"
INVALID = b"invalid-request"
# Decoded proxy keys a worker keeps: as many as a gateway's result cache
# holds results, so a working set the router caches stays decoded too.
_KEY_CACHE_SIZE = 1024


def pack_frame(parts: Sequence[bytes]) -> bytes:
    body = b"".join(_LENGTH.pack(len(part)) + part for part in parts)
    return _LENGTH.pack(len(body)) + body


def frame_length(header: bytes) -> int:
    """The body length a frame's 4-byte header announces; ValueError if too large."""
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ValueError("a frame of %d bytes exceeds %d" % (length, MAX_FRAME_BYTES))
    return length


def unpack_frame(body: bytes) -> list[bytes]:
    """A frame body's parts; ValueError if they do not fill it exactly."""
    parts, at = [], 0
    while at < len(body):
        start = at + _LENGTH.size
        if start > len(body):
            raise ValueError("a part's length runs past its frame")
        at = start + _LENGTH.unpack_from(body, at)[0]
        if at > len(body):
            raise ValueError("a part runs past its frame")
        parts.append(body[start:at])
    return parts


def _transform(backend: PreBackend, keys: LruCache, parts: list[bytes]) -> tuple[bytes, list]:
    """One call's status and answer parts."""
    try:
        blob, *ciphertexts = parts  # ValueError if no key
        key = keys.get(blob)
        if key is None:
            try:
                key = backend.deserialize_proxy_key(blob)
            except ValueError as error:  # EncodingError included
                raise ValueError("field 'proxy_key': %s" % error) from error
            keys.put(blob, key)
        results = backend.reencrypt_batch(
            [backend.deserialize_ciphertext(ciphertext) for ciphertext in ciphertexts], key
        )
    except (ValueError, PointOrderError) as error:
        # Bytes that do not decode, a key outside G1 or one that does not
        # match the ciphertexts.
        return INVALID, [str(error).encode("utf-8")]
    return b"ok", [backend.serialize_reencrypted(result) for result in results]


def run(backend: PreBackend, reader: BinaryIO, writer: BinaryIO) -> None:
    """Write :data:`READY`, then answer each call on ``reader`` until it ends."""
    keys = LruCache(_KEY_CACHE_SIZE, name="key_cache")
    writer.write(pack_frame([READY]))
    writer.flush()
    while True:
        header = reader.read(_LENGTH.size)
        if len(header) < _LENGTH.size:
            return  # the router is gone
        length = frame_length(header)
        body = reader.read(length)
        if len(body) < length:
            return
        start = time.perf_counter()
        with OperationCounter() as counts:
            status, answer = _transform(backend, keys, unpack_frame(body))
        cost = ["%.3f" % ((time.perf_counter() - start) * 1000)] + [
            "%s=%d" % item for item in sorted(counts.counts.items()) if item[0] in SUBSTRATE_OPS
        ]
        writer.write(pack_frame([status, " ".join(cost).encode("ascii"), *answer]))
        writer.flush()


def main(argv: Sequence[str]) -> int:
    scheme_id, group_name, _name = argv  # the name shows which shard this is
    # The router stops its workers; Ctrl-C in a terminal reaches it.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    writer = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)  # what anything prints goes to stderr, never into a frame
    run(create_backend(scheme_id, PairingGroup.shared(group_name)), sys.stdin.buffer, writer)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
