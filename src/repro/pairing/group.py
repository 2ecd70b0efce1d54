"""A charm-crypto-style facade over the pairing substrate.

:class:`PairingGroup` bundles a parameter set with the operations every
pairing-based scheme needs — random sampling, hashing into G1 / Z_q,
scalar multiplication, GT exponentiation and the pairing itself — and
records each expensive operation with :mod:`repro.bench.counters` so that
benchmarks can report exact operation counts per scheme algorithm.

All schemes in :mod:`repro.ibe`, :mod:`repro.core` and
:mod:`repro.baselines` are written against this facade, never against the
raw curve classes.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Callable, Iterator

from repro.bench.counters import record_operation
from repro.ec.curve import Point
from repro.ec.params import get_params
from repro.ec.scalarmult import FixedBaseTable, wnaf_mul
from repro.ec.supersingular import SupersingularCurve
from repro.math.drbg import RandomSource, system_random
from repro.math.fields import Fp2Element
from repro.math.ntheory import bytes_to_int
from repro.pairing.miller import MillerPrecomp
from repro.pairing.tate import multi_tate_pairing, tate_pairing, tate_pairing_batch

__all__ = ["PairingGroup"]

# Bounds for the per-group Miller-precomputation cache: enough for every
# long-lived point a deployment pairs against (generator, KGC/party public
# keys, re-encryption-key points) without letting one-shot ciphertext
# points grow it without limit.
_PRECOMP_CACHE_SIZE = 128
_PRECOMP_SEEN_LIMIT = 4096
# Bound of a known_points map: a client files every point it encodes or
# decompresses, and a request's own points are needed only until its
# response is decoded.
_KNOWN_POINTS_LIMIT = 1024


def _file_point(points: dict, data: bytes, point: Point) -> None:
    if len(points) >= _KNOWN_POINTS_LIMIT and data not in points:
        points.clear()
    points[data] = point


class PairingGroup:
    """A symmetric prime-order pairing group ``e: G1 x G1 -> GT``."""

    _shared: dict[str, "PairingGroup"] = {}

    def __init__(self, params: SupersingularCurve | str):
        if isinstance(params, str):
            params = get_params(params)
        self.params = params
        self.order = params.q
        self.generator = params.generator
        # Miller-loop precomputations for repeatedly-paired points, the
        # pairing analogue of the fixed-base scalar table: keyed by affine
        # coordinates, LRU-bounded.  pair_batch's fixed point (a
        # re-encryption key) is built on first use; pair promotes a point
        # on its second sighting, so one-shot ciphertext points never
        # pollute the cache.  Executor threads pair concurrently, so one
        # lock guards both maps (an LRU touch is a get plus a move that an
        # eviction must not split); precomputations are built outside it.
        self._pair_precomps: OrderedDict[tuple[int, int], MillerPrecomp] = OrderedDict()
        self._pair_seen: dict[tuple[int, int], int] = {}
        self._precomp_lock = threading.Lock()
        # Per-thread decoding scope: deferred_square_roots / known_points.
        self._decoding = threading.local()

    @classmethod
    def shared(cls, name: str) -> "PairingGroup":
        """A process-wide cached instance (reuses the lazy GT generator)."""
        key = name.upper()
        if key not in cls._shared:
            cls._shared[key] = cls(key)
        return cls._shared[key]

    @classmethod
    def for_scheme(cls, base_name: str, scheme_id: str) -> "PairingGroup":
        """A per-scheme group: the size of ``base_name``, a distinct modulus.

        A multi-scheme server must not run every hosted scheme on one
        pairing group — shared group parameters couple schemes that the
        paper treats as independent deployments, and a cross-scheme
        element would deserialize cleanly instead of failing.  The
        derived parameters are *deterministic* (an HMAC-DRBG seeded from
        the base name and scheme id drives the prime search), so every
        process — server or client — independently computes the same
        group, and they are cached process-wide like :meth:`shared`.

        Named ``"<BASE>:<scheme-id>"`` so wire negotiation (which
        compares group names) distinguishes them from the shared base.
        """
        from repro.ec.params import generate_parameters
        from repro.math.drbg import HmacDrbg

        key = "%s:%s" % (base_name.upper(), scheme_id)
        if key not in cls._shared:
            base = get_params(base_name)
            rng = HmacDrbg("per-scheme-group|%s|%s" % (base_name.upper(), scheme_id))
            params = generate_parameters(
                base.q.bit_length(), base.p.bit_length(), rng=rng, name=key
            )
            cls._shared[key] = cls(params)
        return cls._shared[key]

    # ------------------------------------------------------------- sampling

    def random_scalar(self, rng: RandomSource | None = None) -> int:
        """Uniform element of Z_q^*."""
        rng = rng or system_random()
        return rng.rand_nonzero_below(self.order)

    def random_g1(self, rng: RandomSource | None = None) -> Point:
        """Uniform non-identity element of G1."""
        rng = rng or system_random()
        return self.g1_mul(self.generator, self.random_scalar(rng))

    def random_gt(self, rng: RandomSource | None = None) -> Fp2Element:
        """Uniform non-identity element of GT."""
        rng = rng or system_random()
        return self.gt_exp(self.gt_generator(), self.random_scalar(rng))

    # -------------------------------------------------------------- hashing

    def hash_to_g1(self, data: bytes | str) -> Point:
        """The random oracle H1: {0,1}* -> G1."""
        record_operation("hash_to_g1")
        return self.params.hash_to_group(data)

    def hash_to_scalar(self, data: bytes | str) -> int:
        """A random oracle {0,1}* -> Z_q^* (used as H2 in the paper).

        The digest is expanded 16 bytes past the modulus size so the
        modular reduction bias is negligible.
        """
        if isinstance(data, str):
            data = data.encode("utf-8")
        need = (self.order.bit_length() + 7) // 8 + 16
        digest = b""
        block = 0
        while len(digest) < need:
            digest += hashlib.sha256(b"repro-h2z" + block.to_bytes(2, "big") + data).digest()
            block += 1
        value = bytes_to_int(digest[:need]) % (self.order - 1)
        return value + 1

    def hash_gt_to_bytes(self, element: Fp2Element, length: int = 32) -> bytes:
        """A random oracle GT -> {0,1}^(8*length) (the BF H2 for XOR mode)."""
        seed = b"repro-gt" + self.serialize_gt(element)
        out = b""
        block = 0
        while len(out) < length:
            out += hashlib.sha256(seed + block.to_bytes(2, "big")).digest()
            block += 1
        return out[:length]

    # ----------------------------------------------------- group operations

    def g1_mul(self, point: Point, scalar: int) -> Point:
        """Scalar multiplication in G1 (recorded).

        Uses a precomputed fixed-base table for the group generator and
        wNAF for arbitrary points; both agree with the schoolbook ladder
        (property-tested in ``tests/test_scalarmult.py``).
        """
        record_operation("g1_mul")
        scalar %= self.order
        if point == self.generator:
            return self._generator_table().mul(scalar)
        return wnaf_mul(point, scalar)

    def _generator_table(self) -> FixedBaseTable:
        if not hasattr(self, "_gen_table"):
            self._gen_table = FixedBaseTable(self.generator, self.order.bit_length())
        return self._gen_table

    def g1_add(self, left: Point, right: Point) -> Point:
        return left + right

    def g1_neg(self, point: Point) -> Point:
        return -point

    def g1_identity(self) -> Point:
        return self.params.curve.infinity()

    def gt_generator(self) -> Fp2Element:
        """A fixed generator of GT: e(g, g)."""
        if not hasattr(self, "_gt_generator"):
            self._gt_generator = self.pair(self.generator, self.generator)
        return self._gt_generator

    def gt_exp(self, element: Fp2Element, exponent: int) -> Fp2Element:
        """Exponentiation in GT (recorded)."""
        record_operation("gt_exp")
        return element ** (exponent % self.order)

    def gt_mul(self, left: Fp2Element, right: Fp2Element) -> Fp2Element:
        return left * right

    def gt_div(self, left: Fp2Element, right: Fp2Element) -> Fp2Element:
        return left * right.inverse()

    def gt_inverse(self, element: Fp2Element) -> Fp2Element:
        return element.inverse()

    def gt_identity(self) -> Fp2Element:
        return self.params.gt_identity()

    # ------------------------------------------------ pairing + precomp cache

    @staticmethod
    def _point_key(point: Point) -> tuple[int, int]:
        return (int(point.x), int(point.y))

    def _cached_precomp(self, key: tuple[int, int]) -> MillerPrecomp | None:
        with self._precomp_lock:
            pre = self._pair_precomps.get(key)
            if pre is not None:
                self._pair_precomps.move_to_end(key)
            return pre

    def _store_precomp(self, key: tuple[int, int], pre: MillerPrecomp) -> None:
        with self._precomp_lock:
            self._pair_precomps[key] = pre
            self._pair_precomps.move_to_end(key)
            while len(self._pair_precomps) > _PRECOMP_CACHE_SIZE:
                self._pair_precomps.popitem(last=False)

    def _note_seen(self, key: tuple[int, int]) -> bool:
        """Count a cache miss; True once the point deserves a cached precomp."""
        with self._precomp_lock:
            if len(self._pair_seen) >= _PRECOMP_SEEN_LIMIT:
                self._pair_seen.clear()
            count = self._pair_seen.get(key, 0) + 1
            self._pair_seen[key] = count
            return count >= 2

    def precompute_pairing(self, point: Point) -> MillerPrecomp:
        """Build (or fetch) and cache the Miller precomputation for ``point``.

        :meth:`pair_batch` goes through here for its fixed point, so every
        re-encryption key is precomputed on first use; ordinary
        :meth:`pair` calls promote any point seen twice automatically.
        Raises :class:`~repro.pairing.miller.PointOrderError` when
        ``point`` is not of order q.
        """
        key = self._point_key(point)
        pre = self._cached_precomp(key)
        if pre is None:
            pre = MillerPrecomp(self.params, point)
            self._store_precomp(key, pre)
        return pre

    def pair(self, left: Point, right: Point) -> Fp2Element:
        """The symmetric pairing e: G1 x G1 -> GT (recorded inside).

        Either argument may hit the precomputation cache — the pairing is
        symmetric, so a cached right argument evaluates with the operands
        swapped.  A point paired for the second time is promoted into the
        cache; the first sighting stays ephemeral.
        """
        if left.is_infinity() or right.is_infinity():
            return tate_pairing(self.params, left, right)
        key_l = self._point_key(left)
        pre = self._cached_precomp(key_l)
        if pre is not None:
            return tate_pairing(self.params, left, right, precomp=pre)
        key_r = self._point_key(right)
        pre = self._cached_precomp(key_r)
        if pre is not None:
            return tate_pairing(self.params, right, left, precomp=pre)
        if self._note_seen(key_r):
            return tate_pairing(self.params, right, left, precomp=self.precompute_pairing(right))
        if self._note_seen(key_l):
            return tate_pairing(self.params, left, right, precomp=self.precompute_pairing(left))
        return tate_pairing(self.params, left, right)

    def pair_batch(self, fixed: Point, points: list[Point]) -> list[Fp2Element]:
        """``[e(fixed, Q) for Q in points]`` sharing one Miller precomputation.

        The workhorse behind batched re-encryption: every ciphertext in a
        delegation group pairs against the same re-encryption-key point, so
        the chain walk is paid once (and cached for the next batch) and the
        final exponentiations share one batch inversion.
        """
        if not points:
            return []
        if fixed.is_infinity():
            return tate_pairing_batch(self.params, fixed, points)
        return tate_pairing_batch(
            self.params, fixed, points, precomp=self.precompute_pairing(fixed)
        )

    def multi_pair(self, pairs: list[tuple[Point, Point]]) -> Fp2Element:
        """``prod_i e(P_i, Q_i)`` sharing one final exponentiation.

        Cached precomputations are used where available (on either side of
        a pair, via symmetry) but never built speculatively here.
        """
        arranged: list[tuple[Point, Point]] = []
        precomps: list[MillerPrecomp | None] = []
        for left, right in pairs:
            if not left.is_infinity() and not right.is_infinity():
                pre = self._cached_precomp(self._point_key(left))
                if pre is None:
                    swapped = self._cached_precomp(self._point_key(right))
                    if swapped is not None:
                        left, right, pre = right, left, swapped
            else:
                pre = None
            arranged.append((left, right))
            precomps.append(pre)
        return multi_tate_pairing(self.params, arranged, precomps=precomps)

    # -------------------------------------------------------- serialization

    def serialize_g1(self, point: Point) -> bytes:
        """Compressed encoding: x-coordinate plus a parity byte."""
        size = (self.params.p.bit_length() + 7) // 8
        if point.is_infinity():
            return b"\x02" + b"\x00" * size
        data = bytes([int(point.y) & 1]) + int(point.x).to_bytes(size, "big")
        points = getattr(self._decoding, "points", None)
        if points is not None:
            _file_point(points, data, point)
        return data

    def _g1_x(self, data: bytes) -> int | None:
        """The structural checks of a G1 encoding: its x, or None for the identity.

        Everything :meth:`deserialize_g1` rejects short of the square
        root: a wrong length or tag, an identity tag with a payload, an
        x-coordinate of p or more, an odd parity tag on a point whose y
        is 0 (x^3 + ax + b = 0, so only the even tag is canonical).
        """
        size = (self.params.p.bit_length() + 7) // 8
        if len(data) != size + 1:
            raise ValueError("bad G1 encoding length")
        if data[0] == 2:
            if any(data[1:]):
                raise ValueError("G1 identity encoding carries a payload")
            return None
        if data[0] not in (0, 1):
            raise ValueError("bad G1 encoding tag")
        p = self.params.p
        x = bytes_to_int(data[1:])
        if x >= p:
            raise ValueError("G1 x-coordinate is not reduced modulo p")
        curve = self.params.curve
        if data[0] == 1 and (x * x * x + int(curve.a) * x + int(curve.b)) % p == 0:
            raise ValueError("G1 parity tag is not canonical")
        return x

    def deserialize_g1(self, data: bytes) -> Point:
        """Inverse of :meth:`serialize_g1`; accepts only its canonical output.

        Raises :class:`ValueError` for any other encoding of a point (an
        x-coordinate of p or more, an identity tag with a payload, an odd
        parity tag on a point whose y is 0), so every decoded point
        re-serializes to the bytes it came from.  Decompressing a point
        costs a square root (one exponentiation mod p), recorded as
        ``g1_decompress``; :meth:`deferred_square_roots` and
        :meth:`known_points` are the two ways to skip it.
        """
        x = self._g1_x(data)
        if x is None:
            return self.g1_identity()
        scope = self._decoding
        if getattr(scope, "deferred", False):
            return None
        points = getattr(scope, "points", None)
        if points is not None:
            point = points.get(data)
            if point is not None:
                return point
        record_operation("g1_decompress")
        point = self.params.curve.lift_x(x, y_parity=data[0])
        if point is None:
            raise ValueError("x-coordinate is not on the curve")
        if points is not None:
            _file_point(points, data, point)
        return point

    @contextmanager
    def deferred_square_roots(self) -> Iterator[None]:
        """Check G1 encodings without decompressing them (this thread, this block).

        Inside the block :meth:`deserialize_g1` runs every structural
        check and returns ``None`` in place of a non-identity point, so
        walking an envelope with its decoder validates everything but
        the square roots.  The decoded shell is for reading strings off,
        never for arithmetic.
        """
        scope = self._decoding
        previous = getattr(scope, "deferred", False)
        scope.deferred = True
        try:
            yield
        finally:
            scope.deferred = previous

    @contextmanager
    def known_points(self, points: dict) -> Iterator[None]:
        """Share decoded points through ``points`` (this thread, this block).

        Inside the block :meth:`serialize_g1` files each point it encodes
        under its encoding, and :meth:`deserialize_g1` answers an
        encoding found there without a square root, filing each point it
        does decompress.  Sound because encodings are canonical: one
        encoding, one point.  ``points`` is bounded by emptying it when
        it fills up.
        """
        scope = self._decoding
        previous = getattr(scope, "points", None)
        scope.points = points
        try:
            yield
        finally:
            scope.points = previous

    def bind_known_points(self, decode: Callable) -> Callable:
        """``decode`` running under the calling thread's current :meth:`known_points`.

        For decoding later, on any thread, what was received inside a
        :meth:`known_points` block; without an active block ``decode``
        comes back as it is.
        """
        points = getattr(self._decoding, "points", None)
        if points is None:
            return decode

        def bound(blob: bytes):
            with self.known_points(points):
                return decode(blob)

        return bound

    def serialize_gt(self, element: Fp2Element) -> bytes:
        size = (self.params.p.bit_length() + 7) // 8
        # int() conversions keep this valid when the backend stores mpz.
        return int(element.a).to_bytes(size, "big") + int(element.b).to_bytes(size, "big")

    def deserialize_gt(self, data: bytes) -> Fp2Element:
        """Inverse of :meth:`serialize_gt`; coordinates must be below p."""
        size = (self.params.p.bit_length() + 7) // 8
        if len(data) != 2 * size:
            raise ValueError("bad GT encoding length")
        a, b = bytes_to_int(data[:size]), bytes_to_int(data[size:])
        if a >= self.params.p or b >= self.params.p:
            raise ValueError("GT coordinate is not reduced modulo p")
        return Fp2Element(self.params.ext_field, a, b)

    def g1_element_size(self) -> int:
        """Size in bytes of a serialized G1 element."""
        return (self.params.p.bit_length() + 7) // 8 + 1

    def gt_element_size(self) -> int:
        """Size in bytes of a serialized GT element."""
        return 2 * ((self.params.p.bit_length() + 7) // 8)

    def scalar_size(self) -> int:
        """Size in bytes of a serialized Z_q scalar."""
        return (self.order.bit_length() + 7) // 8

    def __repr__(self) -> str:
        return "PairingGroup(%s)" % self.params.name
