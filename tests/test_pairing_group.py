"""Tests for the PairingGroup facade and the operation counters."""

import sys
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.pairing.group as group_module
from repro.bench.counters import OperationCounter, count_operations, record_operation
from repro.math.drbg import HmacDrbg
from repro.pairing.group import PairingGroup


@pytest.fixture(scope="module")
def g():
    return PairingGroup("TOY")


class TestConstruction:
    def test_from_name_or_params(self, g):
        from repro.ec.params import get_params

        assert PairingGroup(get_params("TOY")).order == g.order

    def test_repr(self, g):
        assert "TOY" in repr(g)


class TestSampling:
    def test_random_scalar_nonzero(self, g):
        rng = HmacDrbg("s")
        for _ in range(30):
            assert 1 <= g.random_scalar(rng) < g.order

    def test_random_g1_in_subgroup(self, g):
        point = g.random_g1(HmacDrbg("p"))
        assert g.params.is_in_subgroup(point)

    def test_random_gt_in_subgroup(self, g):
        element = g.random_gt(HmacDrbg("t"))
        assert g.params.is_in_gt(element)

    def test_deterministic_with_seeded_rng(self, g):
        assert g.random_g1(HmacDrbg("d")) == g.random_g1(HmacDrbg("d"))


class TestHashing:
    def test_hash_to_scalar_range(self, g):
        for data in (b"", b"a", b"hello world", bytes(100)):
            assert 1 <= g.hash_to_scalar(data) < g.order

    def test_hash_to_scalar_deterministic(self, g):
        assert g.hash_to_scalar("x") == g.hash_to_scalar(b"x")

    def test_hash_to_scalar_distinct(self, g):
        values = {g.hash_to_scalar(bytes([i])) for i in range(50)}
        assert len(values) == 50

    def test_hash_to_g1(self, g):
        point = g.hash_to_g1(b"identity")
        assert g.params.is_in_subgroup(point)

    def test_hash_gt_to_bytes_length_and_determinism(self, g):
        element = g.random_gt(HmacDrbg("h"))
        for length in (1, 16, 32, 64, 100):
            pad = g.hash_gt_to_bytes(element, length)
            assert len(pad) == length
        assert g.hash_gt_to_bytes(element) == g.hash_gt_to_bytes(element)


class TestGroupOperations:
    def test_g1_mul_reduces_scalar(self, g):
        point = g.random_g1(HmacDrbg("m"))
        assert g.g1_mul(point, g.order + 3) == g.g1_mul(point, 3)

    def test_g1_identity(self, g):
        assert g.g1_identity().is_infinity()
        point = g.random_g1(HmacDrbg("m"))
        assert g.g1_add(point, g.g1_identity()) == point
        assert g.g1_add(point, g.g1_neg(point)).is_infinity()

    def test_gt_generator_cached_and_nontrivial(self, g):
        gen = g.gt_generator()
        assert gen is g.gt_generator()
        assert not gen.is_one()
        assert g.params.is_in_gt(gen)

    def test_gt_operations(self, g):
        rng = HmacDrbg("gt-ops")
        x, y = g.random_gt(rng), g.random_gt(rng)
        assert g.gt_div(g.gt_mul(x, y), y) == x
        assert g.gt_mul(x, g.gt_inverse(x)) == g.gt_identity()
        assert g.gt_exp(x, g.order + 2) == g.gt_exp(x, 2)

    @given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=1, max_value=10**6))
    def test_pair_bilinearity_via_facade(self, a, b):
        group = PairingGroup("TOY")
        lhs = group.pair(group.g1_mul(group.generator, a), group.g1_mul(group.generator, b))
        rhs = group.gt_exp(group.pair(group.generator, group.generator), a * b)
        assert lhs == rhs


class TestSerialization:
    def test_g1_round_trip(self, g):
        rng = HmacDrbg("ser")
        for _ in range(10):
            point = g.random_g1(rng)
            blob = g.serialize_g1(point)
            assert len(blob) == g.g1_element_size()
            assert g.deserialize_g1(blob) == point

    def test_g1_infinity_round_trip(self, g):
        blob = g.serialize_g1(g.g1_identity())
        assert g.deserialize_g1(blob).is_infinity()

    def test_g1_bad_length(self, g):
        with pytest.raises(ValueError):
            g.deserialize_g1(b"\x00" * 3)

    def test_g1_bad_tag(self, g):
        blob = bytearray(g.serialize_g1(g.generator))
        blob[0] = 9
        with pytest.raises(ValueError):
            g.deserialize_g1(bytes(blob))

    def test_g1_off_curve_x(self, g):
        size = g.g1_element_size() - 1
        # Find an x that is not on the curve.
        for x in range(2, 300):
            if g.params.curve.lift_x(g.params.base_field(x)) is None:
                blob = bytes([0]) + x.to_bytes(size, "big")
                with pytest.raises(ValueError):
                    g.deserialize_g1(blob)
                return
        pytest.fail("no off-curve x found")

    def test_gt_round_trip(self, g):
        element = g.random_gt(HmacDrbg("ser-gt"))
        blob = g.serialize_gt(element)
        assert len(blob) == g.gt_element_size()
        assert g.deserialize_gt(blob) == element

    def test_gt_bad_length(self, g):
        with pytest.raises(ValueError):
            g.deserialize_gt(b"\x01\x02")

    def test_scalar_size(self, g):
        assert g.scalar_size() == (g.order.bit_length() + 7) // 8


@pytest.mark.parametrize("name", ["TOY", "SS256", "SS512"])
class TestCanonicalDecoding:
    """Every accepted encoding is the one serialize_* writes."""

    def test_g1_x_plus_p_rejected(self, name):
        group = PairingGroup.shared(name)
        p, size = group.params.p, group.g1_element_size() - 1
        point = next(
            point
            for point in (group.hash_to_g1(b"canonical-%d" % i) for i in range(64))
            if int(point.x) + p < 256**size
        )
        blob = group.serialize_g1(point)
        assert group.deserialize_g1(blob) == point
        with pytest.raises(ValueError, match="not reduced"):
            group.deserialize_g1(blob[:1] + (int(point.x) + p).to_bytes(size, "big"))

    def test_g1_identity_with_payload_rejected(self, name):
        group = PairingGroup.shared(name)
        blob = group.serialize_g1(group.g1_identity())
        with pytest.raises(ValueError, match="payload"):
            group.deserialize_g1(blob[:-1] + b"\x01")

    def test_g1_odd_parity_on_zero_y_rejected(self, name):
        # y^2 = x^3 + x has y = 0 at x = 0, where only parity 0 is written.
        group = PairingGroup.shared(name)
        size = group.g1_element_size() - 1
        point = group.deserialize_g1(b"\x00" + b"\x00" * size)
        assert int(point.x) == int(point.y) == 0
        with pytest.raises(ValueError, match="not canonical"):
            group.deserialize_g1(b"\x01" + b"\x00" * size)

    def test_gt_coordinates_at_or_above_p_rejected(self, name):
        group = PairingGroup.shared(name)
        p, size = group.params.p, group.gt_element_size() // 2
        for a, b in ((p, 1), (1, p + 1)):
            with pytest.raises(ValueError, match="not reduced"):
                group.deserialize_gt(a.to_bytes(size, "big") + b.to_bytes(size, "big"))


class TestPrecompCacheThreads:
    def test_lookups_race_evictions_safely(self, monkeypatch):
        """Eight threads share a two-entry Miller-precomputation cache.

        A cache hit is a lookup plus an LRU touch; another thread's
        eviction landing between the two used to raise KeyError.
        """
        monkeypatch.setattr(group_module, "_PRECOMP_CACHE_SIZE", 2)
        # The cache is under test, not the Miller loop: a stand-in that
        # "precomputes" a point as itself is built at once, so lookups
        # and evictions interleave thousands of times per second.
        monkeypatch.setattr(group_module, "MillerPrecomp", lambda params, point: point)
        group = PairingGroup("TOY")
        points = [group.hash_to_g1(b"race-%d" % i) for i in range(12)]
        errors = []

        def worker(stride: int) -> None:
            try:
                for _ in range(3000):
                    for i in range(len(points)):
                        point = points[i * stride % len(points)]
                        assert group.precompute_pairing(point) == point
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(stride,)) for stride in range(1, 9)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(group._pair_precomps) <= 2


class TestCounters:
    def test_pairing_recorded(self, g):
        with count_operations() as counter:
            g.pair(g.generator, g.generator)
        assert counter.get("pairing") == 1

    def test_mul_and_exp_recorded(self, g):
        rng = HmacDrbg("c")
        with count_operations() as counter:
            point = g.g1_mul(g.generator, 5)
            g.gt_exp(g.gt_generator(), 3)
        assert counter.get("g1_mul") >= 1
        assert counter.get("gt_exp") >= 1
        assert counter.total() >= 2

    def test_nested_counters(self, g):
        with count_operations() as outer:
            g.g1_mul(g.generator, 2)
            with count_operations() as inner:
                g.g1_mul(g.generator, 3)
        assert inner.get("g1_mul") == 1
        assert outer.get("g1_mul") == 2

    def test_no_active_counter_is_noop(self):
        record_operation("anything")  # must not raise

    def test_counter_api(self):
        counter = OperationCounter()
        counter.record("x")
        counter.record("x", 4)
        assert counter.get("x") == 5
        assert counter.get("missing") == 0
        assert counter.as_dict() == {"x": 5}
        assert "x=5" in repr(counter)
