"""Cross-path substrate equivalence: every way this library computes a
scalar multiplication or a pairing must agree *bit-identically*.

The fast paths (Jacobian coordinates, Miller-loop precomputation, batch
final exponentiation, an optional gmpy2 bigint backend) are only
admissible because they are exact drop-ins for the affine / pure-python
reference code.  This suite pins that claim three ways:

* replaying ``tests/data/substrate_vectors.json`` — outputs recorded
  from the affine seed code *before* the substrate rewrite — through
  every current path, on every pinned parameter set;
* property checks on fresh DRBG-derived points comparing the paths
  against each other (including subgroup-order and near-order scalars);
* an optional gmpy2 leg (skipped when the library is not importable)
  re-running the vectors with freshly constructed curves whose field
  moduli are mpz-wrapped.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.ec.curve import Point
from repro.ec.jacobian import jac_scalar_mul
from repro.ec.params import available_parameter_sets, get_params
from repro.ec.scalarmult import FixedBaseTable, wnaf_mul, wnaf_mul_affine
from repro.ec.supersingular import SupersingularCurve
from repro.math import backend as int_backend
from repro.math.drbg import HmacDrbg
from repro.pairing.group import PairingGroup
from repro.pairing.miller import MillerPrecomp
from repro.pairing.tate import multi_tate_pairing, tate_pairing, tate_pairing_batch

from affine_pairing import tate_pairing_affine

VECTOR_FILE = Path(__file__).parent / "data" / "substrate_vectors.json"
VECTORS = json.loads(VECTOR_FILE.read_text())["vectors"]
PARAM_SETS = sorted(VECTORS)


def _coords(point: Point):
    """Canonical comparison form: (x, y) as plain ints, None at infinity."""
    if point.is_infinity():
        return None
    return (int(point.x), int(point.y))


def _gt(element):
    return (int(element.a), int(element.b))


def _fresh_params(name: str) -> SupersingularCurve:
    """A SupersingularCurve built *now* (not from the module cache), so
    its fields wrap their modulus with the currently active int backend."""
    from repro.ec.params import _PINNED_RAW

    p, q, h, gx, gy = _PINNED_RAW[name.upper()]
    return SupersingularCurve(name=name, p=p, q=q, h=h, generator_x=gx, generator_y=gy)


def _scalar_mul_paths(params, point: Point, scalar: int) -> dict:
    """Every scalar-multiplication implementation, keyed by name."""
    table = FixedBaseTable(point, params.q.bit_length())
    jac = jac_scalar_mul(
        int(point.x), int(point.y), scalar, int(params.curve.a.value), int(params.p)
    )
    return {
        "default": _coords(point * scalar),
        "schoolbook": _coords(point.mul_schoolbook(scalar)),
        "wnaf": _coords(wnaf_mul(point, scalar)),
        "wnaf_affine": _coords(wnaf_mul_affine(point, scalar)),
        "fixed_base": _coords(table.mul(scalar % params.q)),
        "jacobian_raw": (
            None if jac is None else (int(jac[0]), int(jac[1]))
        ),
    }


def _assert_all_equal(paths: dict, expected, context: str) -> None:
    for label, got in paths.items():
        assert got == expected, "%s: path %r disagrees (%r != %r)" % (
            context,
            label,
            got,
            expected,
        )


# ------------------------------------------------------------ golden vectors


@pytest.mark.parametrize("name", PARAM_SETS)
def test_vectors_cover_every_pinned_parameter_set(name):
    assert name in available_parameter_sets()


@pytest.mark.parametrize("name", PARAM_SETS)
def test_scalar_mul_vectors_on_every_path(name):
    params = get_params(name)
    for entry in VECTORS[name]["scalar_mul"]:
        point = params.curve.point(int(entry["x"]), int(entry["y"]))
        scalar = int(entry["scalar"])
        expected = (int(entry["rx"]), int(entry["ry"]))
        _assert_all_equal(
            _scalar_mul_paths(params, point, scalar),
            expected,
            "%s scalar_mul" % name,
        )


@pytest.mark.parametrize("name", PARAM_SETS)
def test_pairing_vectors_on_every_path(name):
    params = get_params(name)
    for entry in VECTORS[name]["pairing"]:
        p_point = params.curve.point(int(entry["px"]), int(entry["py"]))
        q_point = params.curve.point(int(entry["qx"]), int(entry["qy"]))
        expected = (int(entry["a"]), int(entry["b"]))
        precomp = MillerPrecomp(params, p_point)
        results = {
            "fast": _gt(tate_pairing(params, p_point, q_point)),
            "affine": _gt(tate_pairing_affine(params, p_point, q_point)),
            "precomp": _gt(tate_pairing(params, p_point, q_point, precomp=precomp)),
            # The pairing is exactly symmetric on these curves, which is
            # what lets the batch path fix either argument.
            "swapped": _gt(tate_pairing(params, q_point, p_point)),
            "batch": _gt(tate_pairing_batch(params, p_point, [q_point])[0]),
            "batch_swapped": _gt(tate_pairing_batch(params, q_point, [p_point])[0]),
        }
        _assert_all_equal(results, expected, "%s pairing" % name)


@pytest.mark.parametrize("name", PARAM_SETS)
def test_multi_pairing_vector(name):
    params = get_params(name)
    rng = HmacDrbg("substrate-golden-v1|" + name)
    points = [params.random_point(rng) for _ in range(3)]
    pairs = [(points[0], points[1]), (points[1], points[2]), (params.generator, points[0])]
    entry = VECTORS[name]["multi_pairing"]
    expected = (int(entry["a"]), int(entry["b"]))
    assert _gt(multi_tate_pairing(params, pairs)) == expected
    # The product of the individual pairings is the same GT element.
    product = params.gt_identity()
    for left, right in pairs:
        product = product * tate_pairing(params, left, right)
    assert _gt(product) == expected


@pytest.mark.parametrize("name", PARAM_SETS)
def test_group_layer_reproduces_the_vectors(name):
    """PairingGroup.pair / pair_batch (the cache layer) stay bit-exact —
    including on repeated calls, where the precomp cache serves hits."""
    group = PairingGroup(get_params(name))
    for entry in VECTORS[name]["pairing"]:
        p_point = group.params.curve.point(int(entry["px"]), int(entry["py"]))
        q_point = group.params.curve.point(int(entry["qx"]), int(entry["qy"]))
        expected = (int(entry["a"]), int(entry["b"]))
        for _ in range(3):  # cold, promoted, cached
            assert _gt(group.pair(p_point, q_point)) == expected
        assert [_gt(e) for e in group.pair_batch(p_point, [q_point, q_point])] == [
            expected,
            expected,
        ]


# -------------------------------------------------------- property checks


@pytest.mark.parametrize("name", PARAM_SETS)
def test_random_scalar_mults_agree_across_paths(name):
    params = get_params(name)
    rng = HmacDrbg("substrate-paths|" + name)
    scalars = [1, 2, 3, params.q - 1] + [
        params.random_scalar(rng) for _ in range(4)
    ]
    for trial in range(2):
        point = params.random_point(rng)
        for scalar in scalars:
            paths = _scalar_mul_paths(params, point, scalar)
            expected = paths.pop("schoolbook")  # the affine reference
            _assert_all_equal(
                paths, expected, "%s trial=%d scalar=%d" % (name, trial, scalar)
            )


@pytest.mark.parametrize("name", PARAM_SETS)
def test_order_scalar_lands_on_infinity_everywhere(name):
    params = get_params(name)
    rng = HmacDrbg("substrate-inf|" + name)
    point = params.random_point(rng)
    assert (point * params.q).is_infinity()
    assert point.mul_schoolbook(params.q).is_infinity()
    assert wnaf_mul(point, params.q).is_infinity()
    assert wnaf_mul_affine(point, params.q).is_infinity()
    assert (
        jac_scalar_mul(
            int(point.x),
            int(point.y),
            params.q,
            int(params.curve.a.value),
            int(params.p),
        )
        is None
    )


@pytest.mark.parametrize("name", PARAM_SETS)
def test_batch_pairing_matches_per_item_calls(name):
    params = get_params(name)
    rng = HmacDrbg("substrate-batch|" + name)
    fixed = params.random_point(rng)
    points = [params.random_point(rng) for _ in range(5)] + [params.curve.infinity()]
    batch = tate_pairing_batch(params, fixed, points)
    for point, combined in zip(points, batch):
        single = tate_pairing(params, fixed, point)
        assert _gt(single) == _gt(combined)


# ----------------------------------------------------------- gmpy2 backend


@pytest.fixture()
def gmpy2_backend():
    pytest.importorskip("gmpy2", reason="gmpy2 backend not installed")
    previous = int_backend.backend_name()
    int_backend.set_int_backend("gmpy2")
    try:
        yield
    finally:
        int_backend.set_int_backend(previous)


@pytest.mark.parametrize("name", PARAM_SETS)
def test_gmpy2_backend_reproduces_the_vectors(gmpy2_backend, name):
    """The mpz-wrapped field path is golden-pinned: same bits as python."""
    params = _fresh_params(name)  # fields must wrap p under the new backend
    assert int_backend.backend_name() == "gmpy2"
    for entry in VECTORS[name]["scalar_mul"]:
        point = params.curve.point(int(entry["x"]), int(entry["y"]))
        expected = (int(entry["rx"]), int(entry["ry"]))
        _assert_all_equal(
            _scalar_mul_paths(params, point, int(entry["scalar"])),
            expected,
            "%s gmpy2 scalar_mul" % name,
        )
    for entry in VECTORS[name]["pairing"]:
        p_point = params.curve.point(int(entry["px"]), int(entry["py"]))
        q_point = params.curve.point(int(entry["qx"]), int(entry["qy"]))
        expected = (int(entry["a"]), int(entry["b"]))
        assert _gt(tate_pairing(params, p_point, q_point)) == expected
        assert _gt(tate_pairing_affine(params, p_point, q_point)) == expected
        assert _gt(tate_pairing_batch(params, p_point, [q_point])[0]) == expected


def test_gmpy2_scheme_end_to_end_matches_golden_scenario(gmpy2_backend):
    """The full scheme over a gmpy2-backed group produces byte-identical
    wire artifacts to the pinned pure-python golden scenario."""
    import hashlib

    from repro.core.scheme import TypeAndIdentityPre
    from repro.ibe.kgc import KgcRegistry
    from repro.serialization.containers import (
        serialize_proxy_key,
        serialize_typed_ciphertext,
    )
    from test_golden_vectors import GOLDEN

    group = PairingGroup(_fresh_params("TOY"))
    rng = HmacDrbg("golden-v1")
    registry = KgcRegistry(group, rng)
    kgc1, _kgc2 = registry.create("KGC1"), registry.create("KGC2")
    scheme = TypeAndIdentityPre(group)
    alice = kgc1.extract("alice")
    message = group.random_gt(rng)
    ciphertext = scheme.encrypt(kgc1.params, alice, message, "labs", rng)
    blob = serialize_typed_ciphertext(group, ciphertext)
    assert hashlib.sha256(blob).hexdigest() == GOLDEN["ciphertext"]
    proxy_key = scheme.pextract(alice, "bob", "labs", _kgc2.params, rng)
    blob = serialize_proxy_key(group, proxy_key)
    assert hashlib.sha256(blob).hexdigest() == GOLDEN["proxy_key"]
