"""The repo benchmark: SS256 re-encryption through a real wire server.

    python3 benchmarks/suite/run.py --workload hot-read --seed 1 --seconds 12 --trace 0

Run from the repository root (``src`` is found next to this directory).
With ``--trace 0`` one invocation runs one workload as
``harness.TRIALS`` fresh-server trials, splitting ``--seconds`` of
measurement between them; with ``--trace 1`` it runs one trial whose
server and client record spans, and that trial gets all of
``--seconds``.  Every metric is printed by name and unit; the last
stdout line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` holding the end-to-end metrics of ``BENCHMARK.json``
(``--trace 0``) or its per-layer ones (``--trace 1``).  A result document
with every trial, the host stamp and the recorded, ungated numbers goes
to ``--out``.  Any wrong output makes the exit code non-zero.

Client and server run on one core (the last this process may use):
on the two-core reference VM a hand-off between cores wakes an idle
virtual CPU, and those wake-ups doubled the run-to-run spread.  Needs
Linux (``/proc`` for the server's CPU time and peak RSS).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
OPEN_SHARE = 0.6  # of an untraced trial's measured time; the rest is the closed loop
# A traced trial's measured time: open loop, closed loop, overhead phase.
TRACED_SHARES = (0.3, 0.2, 0.5)


def calibrate_ms() -> float:
    """A fixed stdlib-only loop: tells a slow host from a slow commit."""
    start = time.perf_counter()
    value, modulus = 1, (1 << 127) - 1
    for i in range(200_000):
        value = (value * 6364136223846793005 + i) % modulus
    return (time.perf_counter() - start) * 1000


def host_stamp(group: str) -> dict:
    from repro.core.api import TIPRE_SCHEME_ID
    from repro.math.backend import backend_name

    commit = None
    if (ROOT / ".git").exists():
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        )
        commit = completed.stdout.strip() or None
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "int_backend": backend_name(),
        "group": group,
        "scheme": TIPRE_SCHEME_ID,
        "commit": commit,
    }


def _parser(workloads) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", type=float, default=12.0, help="measured seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(SUITE / "out"),
                        help="directory for the result document and scratch state")
    return parser


def _show(value) -> str:
    return "null" if value is None else "%.4f" % value


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print("error: no source tree at %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import harness
    import tracing

    args = _parser(harness.WORKLOADS).parse_args(argv)
    # The overhead phase compares traced windows with untraced ones on both sides.
    least = 5 * harness.TOGGLE_S / TRACED_SHARES[2] if args.trace else 0.0
    if args.seconds <= least:
        print("error: need --seconds > %g" % least, file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    metric_set = declared["per_layer" if args.trace else "end_to_end"]
    workload = harness.WORKLOADS[args.workload]
    out = Path(args.out)
    scratch = out / ("scratch-%d" % os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    cores = os.sched_getaffinity(0)
    # Threads and processes started from here on inherit the one core.
    os.sched_setaffinity(0, {max(cores)})
    try:
        calib_start = calibrate_ms()
        universe_start = time.perf_counter()
        universe = harness.Universe(args.seed)
        universe.prepare(workload.pairs(args.seed))
        universe_s = time.perf_counter() - universe_start

        account = harness.Account()
        if args.trace:
            open_s, closed_s, overhead_s = (args.seconds * share for share in TRACED_SHARES)
            traced = harness.run_trial(
                universe, workload, args.seed, open_s, closed_s, account,
                scratch / "state-traced", overhead_s=overhead_s,
            )
            trials = [traced]
            values = tracing.layer_metrics(traced.server_spans, traced.client_spans, traced)
            values["generator.late_p99_ms"] = harness.percentile(traced.late_ms, 0.99)
            values["trace.overhead_frac"] = traced.overhead_frac
        else:
            per_trial = args.seconds / harness.TRIALS
            trials = [
                harness.run_trial(
                    universe, workload, args.seed,
                    per_trial * OPEN_SHARE, per_trial * (1 - OPEN_SHARE),
                    account, scratch / ("state-%d" % index),
                )
                for index in range(harness.TRIALS)
            ]
            values = {}
        calib_end = calibrate_ms()
    finally:
        os.sched_setaffinity(0, cores)
        shutil.rmtree(scratch, ignore_errors=True)
    recorded = harness.summarize(trials)
    values = {**recorded, **values}

    missing = [metric["name"] for metric in metric_set if metric["name"] not in values]
    if missing:
        raise RuntimeError("BENCHMARK.json declares metrics the run does not compute: %s"
                           % ", ".join(missing))
    metrics = {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in metric_set
    }
    document = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "trials": len(trials),
        "host": dict(host_stamp(harness.GROUP), calib_start_ms=calib_start,
                     calib_end_ms=calib_end),
        "harness": {"universe_s": universe_s},
        "metrics": metrics,
        "recorded": {name: value for name, value in recorded.items() if name not in metrics},
        "per_trial": [harness.summarize([trial]) for trial in trials],
        "attempted": account.attempted,
        "failed": account.failed,
        "outputs_nonidentical": account.nonidentical,
        "errors": account.errors,
        "unresolved_hooks": trials[0].unresolved_hooks,
    }
    results = out / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / ("%s-seed%s-trace%d.json" % (args.workload, args.seed, args.trace))).write_text(
        json.dumps(document, indent=1, sort_keys=True)
    )

    print("%s seed=%s group=%s trials=%d universe=%.2fs calib=%.1f/%.1fms" % (
        args.workload, args.seed, harness.GROUP, len(trials), universe_s, calib_start, calib_end))
    for name, metric in metrics.items():
        print("  %-32s %14s %s" % (name, _show(metric["value"]), metric["unit"]))
    print("  recorded, not gated:")
    for name, value in document["recorded"].items():
        print("  %-32s %14s" % (name, _show(value)))
    print("  attempted=%d failed=%d outputs_nonidentical=%d"
          % (account.attempted, account.failed, account.nonidentical))
    for error in account.errors:
        print("  error: %s" % error)
    correct = account.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": account.attempted,
        "failed": account.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
