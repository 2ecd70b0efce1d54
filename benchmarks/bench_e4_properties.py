"""E4 — the PRE property matrix, executed rather than asserted.

Reproduces the property discussion of Section 4.3 (and the comparison
table tradition of Ateniese et al.): for every implemented scheme, the
relevant attack or capability is *run* and its outcome reported.

Expected output: the paper's scheme shows uni-directional /
non-interactive / collusion-safe / type-granular; BBS demonstrably fails
bidirectionality and collusion; Dodis--Ivan fails collusion.
"""

from __future__ import annotations

from repro.bench.properties import property_table_rows
from repro.bench.report import print_table
from repro.core.api import PROPERTY_NAMES
from repro.math.drbg import HmacDrbg
from repro.pairing.group import PairingGroup
from repro.security.properties import (
    bbs_collusion_recovers_secret,
    bbs_is_bidirectional,
    dodis_ivan_collusion_recovers_secret,
    tipre_collusion_recovers_only_type_key,
    tipre_delegation_is_unidirectional,
    tipre_is_non_interactive,
    tipre_type_isolation_holds,
)

DEMONSTRATIONS = (
    ("BBS is bidirectional (attack succeeds)", bbs_is_bidirectional),
    ("BBS collusion recovers delegator secret", bbs_collusion_recovers_secret),
    ("Dodis-Ivan collusion recovers secret", dodis_ivan_collusion_recovers_secret),
    ("paper: collusion yields only the type key", tipre_collusion_recovers_only_type_key),
    ("paper: type isolation holds", tipre_type_isolation_holds),
    ("paper: delegation is non-interactive", tipre_is_non_interactive),
    ("paper: delegation is uni-directional", tipre_delegation_is_unidirectional),
)


def test_e4_property_matrix_report(benchmark):
    group = PairingGroup.shared("TOY")
    # The table is *generated* from the scheme registry's declared
    # capabilities — the same objects the production gateway serves — so
    # registering a backend adds its row everywhere at once.
    rows = property_table_rows()
    print_table(
        "E4: declared property matrix (generated from the scheme registry)",
        ["scheme", "name"] + list(PROPERTY_NAMES),
        rows,
    )
    rng = HmacDrbg("e4")
    rows = []
    for label, demonstration in DEMONSTRATIONS:
        outcome = demonstration(group, rng.fork(label))
        rows.append([label, "confirmed" if outcome else "FAILED"])
        assert outcome, label
    print_table("E4: executable demonstrations", ["demonstration", "outcome"], rows)

    benchmark.pedantic(
        lambda: tipre_type_isolation_holds(group, HmacDrbg("e4-bench")),
        rounds=3,
        iterations=1,
    )


def test_e4_isolation_demonstration_latency(benchmark):
    """Cost of one full isolation demonstration (setup + attack + check)."""
    group = PairingGroup.shared("TOY")
    counter = [0]

    def run():
        counter[0] += 1
        assert tipre_collusion_recovers_only_type_key(group, HmacDrbg("e4-%d" % counter[0]))

    benchmark.group = "E4 demonstrations"
    benchmark.pedantic(run, rounds=3, iterations=1)
