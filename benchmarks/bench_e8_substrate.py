"""E8 — substrate and extension ablations (beyond the paper's text).

Prices the engineering choices DESIGN.md calls out, so the headline
numbers in E1/E2 are explainable:

* **scalar multiplication**: schoolbook double-and-add vs wNAF vs the
  fixed-base window table used for the generator;
* **multi-pairing**: two independent pairings vs one shared final
  exponentiation (the BB1 decryption path);
* **threshold extraction**: single-KGC Extract vs t-of-n combination
  (the escrow mitigation the paper's threat model points to);
* **epoch-scoped grants**: the per-epoch ``Pextract`` cost that buys
  deletion-free expiry.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.bench.report import print_table, record_bench_snapshot
from repro.bench.timing import measure
from repro.core.epochs import EpochSchedule, TemporalPre
from repro.core.scheme import TypeAndIdentityPre
from repro.ec.scalarmult import FixedBaseTable, wnaf_mul
from repro.ibe.kgc import KgcRegistry
from repro.ibe.threshold import ThresholdKgc
from repro.math import backend as int_backend
from repro.math.drbg import HmacDrbg
from repro.pairing.group import PairingGroup
from repro.pairing.miller import MillerPrecomp
from repro.pairing.tate import multi_tate_pairing, tate_pairing, tate_pairing_batch

# The affine reference pairing the speedup gate times the default path
# against lives with the tests that pin the two paths to each other.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
try:
    from affine_pairing import tate_pairing_affine
finally:
    sys.path.pop(0)

GROUP_NAME = "SS256"


def test_e8_scalar_mult_ablation(benchmark):
    group = PairingGroup.shared(GROUP_NAME)
    rng = HmacDrbg("e8-mul")
    scalars = [group.random_scalar(rng) for _ in range(8)]
    base = group.params.random_point(rng)
    table = FixedBaseTable(group.generator, group.order.bit_length())

    schoolbook = measure(
        "schoolbook", lambda: [base.mul_schoolbook(s) for s in scalars], repeats=3
    )
    wnaf = measure("wnaf", lambda: [wnaf_mul(base, s) for s in scalars], repeats=3)
    fixed = measure("fixed-base", lambda: [table.mul(s) for s in scalars], repeats=3)
    print_table(
        "E8: scalar multiplication on %s (8 scalars, median ms)" % GROUP_NAME,
        ["method", "ms", "note"],
        [
            ["schoolbook double-and-add", "%.1f" % schoolbook.median_ms, "reference"],
            ["wNAF (w=4)", "%.1f" % wnaf.median_ms, "arbitrary points"],
            ["fixed-base window", "%.1f" % fixed.median_ms,
             "generator/public keys (table: %d pts)" % table.table_size()],
        ],
    )
    benchmark.group = "E8 scalar mult"
    benchmark.pedantic(lambda: table.mul(scalars[0]), rounds=5, iterations=1)


def test_e8_multi_pairing_ablation(benchmark):
    group = PairingGroup.shared(GROUP_NAME)
    rng = HmacDrbg("e8-pair")
    a, b = group.params.random_point(rng), group.params.random_point(rng)
    c, d = group.params.random_point(rng), group.params.random_point(rng)

    separate = measure(
        "separate",
        lambda: tate_pairing(group.params, a, b) * tate_pairing(group.params, c, d),
        repeats=3,
    )
    shared = measure(
        "shared",
        lambda: multi_tate_pairing(group.params, [(a, b), (c, d)]),
        repeats=3,
    )
    print_table(
        "E8: product of two pairings on %s (median ms)" % GROUP_NAME,
        ["method", "ms"],
        [
            ["two pairings, two final exps", "%.1f" % separate.median_ms],
            ["multi-pairing, one final exp", "%.1f" % shared.median_ms],
        ],
    )
    benchmark.group = "E8 pairings"
    benchmark.pedantic(
        lambda: multi_tate_pairing(group.params, [(a, b), (c, d)]), rounds=3, iterations=1
    )


@pytest.mark.parametrize("threshold,servers", [(1, 1), (2, 3), (3, 5)])
def test_e8_threshold_extraction(benchmark, threshold, servers):
    group = PairingGroup.shared("TOY")
    kgc = ThresholdKgc(group, "D", threshold, servers, HmacDrbg("e8-thr"))
    counter = [0]

    def extract():
        counter[0] += 1
        kgc.extract("user-%d" % counter[0])

    benchmark.group = "E8 threshold extract"
    benchmark.name = "%d-of-%d" % (threshold, servers)
    benchmark.pedantic(extract, rounds=5, iterations=1)


def test_e8_substrate_speedup_gate():
    """The substrate rewrite's contract, enforced: the fast paths are
    bit-identical to the affine/schoolbook reference AND actually fast.

    Gate: >=2x on scalar multiplication (Jacobian vs schoolbook affine),
    >=3x on the pairing (Miller precomp / batch vs the affine loop).
    Measured headroom is ~10x on both, so the gate only trips on a real
    regression, not on scheduler noise.
    """
    group = PairingGroup.shared(GROUP_NAME)
    params = group.params
    rng = HmacDrbg("e8-gate")
    scalars = [group.random_scalar(rng) for _ in range(4)]
    base = params.random_point(rng)
    fixed = params.random_point(rng)
    others = [params.random_point(rng) for _ in range(4)]
    precomp = MillerPrecomp(params, fixed)

    # -- correctness first: every fast path must reproduce the reference.
    for s in scalars:
        reference = base.mul_schoolbook(s)
        assert base * s == reference
        assert wnaf_mul(base, s) == reference
    for other in others:
        reference = tate_pairing_affine(params, fixed, other)
        assert tate_pairing(params, fixed, other) == reference
        assert tate_pairing(params, fixed, other, precomp=precomp) == reference
    batch = tate_pairing_batch(params, fixed, others)
    for other, combined in zip(others, batch):
        assert combined == tate_pairing_affine(params, fixed, other)

    # -- then speed.
    mul_ref = measure(
        "mul/schoolbook", lambda: [base.mul_schoolbook(s) for s in scalars], repeats=3
    )
    mul_jac = measure("mul/jacobian", lambda: [base * s for s in scalars], repeats=3)
    mul_wnaf = measure(
        "mul/wnaf", lambda: [wnaf_mul(base, s) for s in scalars], repeats=3
    )
    pair_ref = measure(
        "pair/affine",
        lambda: [tate_pairing_affine(params, fixed, o) for o in others],
        repeats=3,
    )
    pair_fast = measure(
        "pair/jacobian",
        lambda: [tate_pairing(params, fixed, o) for o in others],
        repeats=3,
    )
    pair_pre = measure(
        "pair/precomp",
        lambda: [tate_pairing(params, fixed, o, precomp=precomp) for o in others],
        repeats=3,
    )
    pair_batch = measure(
        "pair/batch", lambda: tate_pairing_batch(params, fixed, others), repeats=3
    )

    mul_speedup = mul_ref.median_ms / mul_jac.median_ms
    wnaf_speedup = mul_ref.median_ms / mul_wnaf.median_ms
    pair_speedup = pair_ref.median_ms / pair_fast.median_ms
    pre_speedup = pair_ref.median_ms / pair_pre.median_ms
    batch_speedup = pair_ref.median_ms / pair_batch.median_ms

    print_table(
        "E8 gate: substrate speedups on %s (backend=%s)"
        % (GROUP_NAME, int_backend.backend_name()),
        ["path", "median ms", "speedup vs reference"],
        [
            ["scalar mult: schoolbook (ref)", "%.2f" % mul_ref.median_ms, "1.0x"],
            ["scalar mult: jacobian", "%.2f" % mul_jac.median_ms, "%.1fx" % mul_speedup],
            ["scalar mult: wnaf", "%.2f" % mul_wnaf.median_ms, "%.1fx" % wnaf_speedup],
            ["pairing: affine (ref)", "%.2f" % pair_ref.median_ms, "1.0x"],
            ["pairing: jacobian", "%.2f" % pair_fast.median_ms, "%.1fx" % pair_speedup],
            ["pairing: precomp", "%.2f" % pair_pre.median_ms, "%.1fx" % pre_speedup],
            ["pairing: batch", "%.2f" % pair_batch.median_ms, "%.1fx" % batch_speedup],
        ],
    )

    record_bench_snapshot(
        "E8",
        {
            "experiment": "E8 substrate speedup gate",
            "group": GROUP_NAME,
            "int_backend": int_backend.backend_name(),
            "workload": {
                "scalar_mults": len(scalars),
                "pairings": len(others),
            },
            "median_ms": {
                "scalar_mult_schoolbook": round(mul_ref.median_ms, 3),
                "scalar_mult_jacobian": round(mul_jac.median_ms, 3),
                "scalar_mult_wnaf": round(mul_wnaf.median_ms, 3),
                "pairing_affine": round(pair_ref.median_ms, 3),
                "pairing_jacobian": round(pair_fast.median_ms, 3),
                "pairing_precomp": round(pair_pre.median_ms, 3),
                "pairing_batch": round(pair_batch.median_ms, 3),
            },
            "speedup_vs_reference": {
                "scalar_mult_jacobian": round(mul_speedup, 2),
                "scalar_mult_wnaf": round(wnaf_speedup, 2),
                "pairing_jacobian": round(pair_speedup, 2),
                "pairing_precomp": round(pre_speedup, 2),
                "pairing_batch": round(batch_speedup, 2),
            },
            "gate": {"scalar_mult_min": 2.0, "pairing_min": 3.0},
        },
    )

    assert mul_speedup >= 2.0, "Jacobian scalar mult regressed: %.2fx" % mul_speedup
    assert wnaf_speedup >= 2.0, "wNAF scalar mult regressed: %.2fx" % wnaf_speedup
    assert pair_speedup >= 3.0, "Jacobian pairing regressed: %.2fx" % pair_speedup
    assert pre_speedup >= 3.0, "precomp pairing regressed: %.2fx" % pre_speedup
    assert batch_speedup >= 3.0, "batch pairing regressed: %.2fx" % batch_speedup


def test_e8_epoch_grant_cost(benchmark):
    """The price of deletion-free expiry: one Pextract per epoch."""
    group = PairingGroup.shared("TOY")
    rng = HmacDrbg("e8-epoch")
    registry = KgcRegistry(group, rng)
    kgc1, kgc2 = registry.create("KGC1"), registry.create("KGC2")
    alice = kgc1.extract("alice")
    temporal = TemporalPre(TypeAndIdentityPre(group), EpochSchedule(86400))

    day = [0]

    def regrant():
        day[0] += 1
        temporal.grant(alice, "bob", "labs", day[0] * 86400, kgc2.params, rng)

    benchmark.group = "E8 epoch grants"
    benchmark.pedantic(regrant, rounds=5, iterations=1)
