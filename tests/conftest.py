"""Shared fixtures: the TOY pairing group, seeded RNGs, KGC setups.

All unit tests run on the TOY parameter set (88-bit p) so the suite stays
fast; a handful of integration tests exercise SS256.  Hypothesis gets a
conservative profile because each example may perform pairings.
"""

from __future__ import annotations

import sys

import pytest
from hypothesis import HealthCheck, settings

from repro.core.scheme import TypeAndIdentityPre
from repro.ibe.kgc import KgcRegistry
from repro.math.drbg import HmacDrbg
from repro.pairing.group import PairingGroup

settings.register_profile(
    "repro",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
settings.load_profile("repro")


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: SS256 or subprocess work that takes seconds per test"
    )


@pytest.fixture(scope="session")
def group() -> PairingGroup:
    """The TOY pairing group (session-scoped: parameter parsing is cached)."""
    return PairingGroup("TOY")


@pytest.fixture()
def rng() -> HmacDrbg:
    """A fresh deterministic RNG per test."""
    return HmacDrbg("test-fixture-rng")


@pytest.fixture()
def two_kgcs(group, rng):
    """The paper's setting: KGC1 (delegator) and KGC2 (delegatee)."""
    registry = KgcRegistry(group, rng)
    return registry.create("KGC1"), registry.create("KGC2")


@pytest.fixture()
def pre_setting(group, rng, two_kgcs):
    """Scheme + alice (delegator at KGC1) + bob (delegatee at KGC2)."""
    kgc1, kgc2 = two_kgcs
    scheme = TypeAndIdentityPre(group)
    alice = kgc1.extract("alice")
    bob = kgc2.extract("bob")
    return scheme, kgc1, kgc2, alice, bob


@pytest.fixture()
def long_integer() -> str:
    """A JSON integer one digit longer than the interpreter converts to int."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter converts integers of any length")
    return "1" * (limit + 1)
