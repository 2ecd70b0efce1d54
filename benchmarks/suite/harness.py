"""Universe, workloads, server processes and load phases of the repo benchmark.

The benchmark drives a real ``repro-pre serve --async`` process from one
client process over one :class:`MuxRemoteGateway` connection, with at
most :data:`LOAD_THREADS` load threads.  Everything it sends is built
here from the public ``PreBackend`` API and seeded by ``--seed``; every
response is compared against an expected transformation computed
in-process before the first trial.
"""

from __future__ import annotations

import itertools
import os
import random
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

from repro.core.api import TIPRE_SCHEME_ID, create_backend
from repro.math.drbg import HmacDrbg
from repro.pairing.group import PairingGroup
from repro.service.gateway import (
    GatewayError,
    GrantRequest,
    ReEncryptRequest,
    RevokeRequest,
)
from repro.service.metrics import MetricsSnapshot
from repro.service.wire.aio_client import MuxRemoteGateway

import tracing

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]

GROUP = "SS256"
TRIALS = 6  # fresh servers per untraced run; the gated numbers are medians over them
LOAD_THREADS = 2
TENANT = "bench"
PATIENT_DOMAIN = "hospital"
READER_DOMAIN = "clinic"
PATIENTS = tuple("patient-%d" % i for i in range(4))
TYPES = ("allergies", "medications", "lab-results")
READERS = tuple("doctor-%d" % i for i in range(3))
CHURN_READER = "doctor-churn"  # granted and revoked by grant-churn, never read
RECORDS_PER_TYPE = 58
BATCH_SIZE = 8
HOT_PER_DELEGATION = 2
WRITE_EVERY = 10  # grant-churn: one write per ten operations

# (patient, type, reader) and (patient, type, record index, reader)
DELEGATIONS = tuple((p, t, r) for p in PATIENTS for t in TYPES for r in READERS)
PAIRS = tuple((p, t, i, r) for p, t, r in DELEGATIONS for i in range(RECORDS_PER_TYPE))


# ------------------------------------------------------------------ universe


class Universe:
    """Parties, delegations, records and their expected transformations.

    Every record is encrypted under its own DRBG stream, so a workload
    that touches 72 pairs pays for 72 records, not for all 696, and the
    same seed yields the same bytes whatever order records are built in.
    """

    def __init__(self, seed: str):
        self.seed = seed
        self.backend = create_backend(TIPRE_SCHEME_ID, PairingGroup.shared(GROUP))
        rng = HmacDrbg("%s|parties" % seed)
        self.backend.setup(rng)
        for patient in PATIENTS:
            self.backend.create_party(PATIENT_DOMAIN, patient, rng)
        for reader in READERS + (CHURN_READER,):
            self.backend.create_party(READER_DOMAIN, reader, rng)
        self.keys = {
            (p, t, r): self.backend.rekey(
                PATIENT_DOMAIN, p, READER_DOMAIN, r, t,
                HmacDrbg("%s|rekey|%s|%s|%s" % (seed, p, t, r)),
            )
            for p in PATIENTS
            for t in TYPES
            for r in READERS + (CHURN_READER,)
        }
        self.records: dict[tuple, tuple] = {}
        self.expected: dict[tuple, object] = {}

    def record(self, patient: str, type_label: str, index: int) -> tuple:
        """``(message, ciphertext)`` of one PHR record, built on first use."""
        key = (patient, type_label, index)
        if key not in self.records:
            rng = HmacDrbg("%s|record|%s|%s|%d" % (self.seed, patient, type_label, index))
            message = self.backend.sample_message(rng)
            ciphertext = self.backend.encrypt(PATIENT_DOMAIN, patient, message, type_label, rng)
            self.records[key] = (message, ciphertext)
        return self.records[key]

    def request(self, pair: tuple) -> ReEncryptRequest:
        patient, type_label, index, reader = pair
        return ReEncryptRequest(
            TENANT, self.record(patient, type_label, index)[1], READER_DOMAIN, reader
        )

    def prepare(self, pairs) -> None:
        """Compute the expected transformation of every pair.

        One expected result per delegation is decrypted with the reader's
        key, so an oracle that is itself wrong stops the run here.
        """
        verified = set()
        for pair in pairs:
            if pair in self.expected:
                continue
            patient, type_label, index, reader = pair
            message, ciphertext = self.record(patient, type_label, index)
            expected = self.backend.reencrypt(ciphertext, self.keys[(patient, type_label, reader)])
            if (patient, type_label, reader) not in verified:
                if self.backend.decrypt_reencrypted(expected, READER_DOMAIN, reader) != message:
                    raise RuntimeError("expected result for %r does not decrypt" % (pair,))
                verified.add((patient, type_label, reader))
            self.expected[pair] = expected

    def judge(self, pair: tuple, result) -> str:
        """``identical``, ``nonidentical`` (right plaintext, other bytes) or ``wrong``."""
        if result == self.expected[pair]:
            return "identical"
        patient, type_label, index, reader = pair
        try:
            plaintext = self.backend.decrypt_reencrypted(result, READER_DOMAIN, reader)
        except Exception:  # noqa: BLE001 - any failure to decrypt is a wrong output
            return "wrong"
        expected_plaintext = self.record(patient, type_label, index)[0]
        return "nonidentical" if plaintext == expected_plaintext else "wrong"


# ----------------------------------------------------------------- workloads
#
# An operation is (kind, subject): ("read", pair), ("batch", pairs),
# ("grant", delegation) or ("churn", (patient, type)).


def _hot_pairs(seed: str) -> list[tuple]:
    rng = random.Random("%s|hot" % seed)
    return [
        (p, t, i, r)
        for p, t, r in DELEGATIONS
        for i in sorted(rng.sample(range(RECORDS_PER_TYPE), HOT_PER_DELEGATION))
    ]


def _hot_stream(seed: str, rng: random.Random) -> Iterator[tuple]:
    """Every hot pair once (priming the result cache), then uniform picks."""
    hot = _hot_pairs(seed)
    priming = list(hot)
    rng.shuffle(priming)
    for pair in priming:
        yield ("read", pair)
    while True:
        yield ("read", rng.choice(hot))


def hot_read(seed: str) -> Iterator[tuple]:
    return _hot_stream(seed, random.Random("%s|hot-read" % seed))


def cold_read(seed: str) -> Iterator[tuple]:
    """A cyclic scan of every pair: reuse distance 2088 > the LRU's 1024."""
    scan = list(PAIRS)
    random.Random("%s|cold-read" % seed).shuffle(scan)
    return (("read", pair) for pair in itertools.cycle(scan))


def batch_read(seed: str) -> Iterator[tuple]:
    """Round-robin over delegations, 8 records each, cycling each record list.

    Between two uses of one pair the other 35 delegations consume at
    least 7 * 35 * 8 = 1960 pairs, so the result cache never hits.
    """
    rng = random.Random("%s|batch-read" % seed)
    order = list(DELEGATIONS)
    rng.shuffle(order)
    cursors = {}
    for delegation in order:
        indices = list(range(RECORDS_PER_TYPE))
        rng.shuffle(indices)
        cursors[delegation] = itertools.cycle(indices)
    for p, t, r in itertools.cycle(order):
        cursor = cursors[(p, t, r)]
        yield ("batch", tuple((p, t, next(cursor), r) for _ in range(BATCH_SIZE)))


def grant_churn(seed: str) -> Iterator[tuple]:
    """Hot reads with every tenth operation a write, alternating two kinds."""
    rng = random.Random("%s|grant-churn" % seed)
    reads = _hot_stream(seed, rng)
    for _ in range(len(DELEGATIONS) * HOT_PER_DELEGATION):
        yield next(reads)
    for position in itertools.count():
        if position % WRITE_EVERY != WRITE_EVERY - 1:
            yield next(reads)
        elif (position // WRITE_EVERY) % 2 == 0:
            yield ("churn", (rng.choice(PATIENTS), rng.choice(TYPES)))
        else:
            yield ("grant", rng.choice(DELEGATIONS))


def _all_pairs(seed: str) -> list[tuple]:
    return list(PAIRS)


@dataclass(frozen=True)
class Workload:
    name: str
    stream: Callable[[str], Iterator[tuple]]
    rate: float  # open-loop operations (batch calls) per second
    warmup: int  # operations of the stream the warm-up consumes
    pairs: Callable[[str], list]  # the pairs the universe must prepare


# Warm-ups prime the hot set, then run it once more; a cold scan sees each
# delegation four times on average (two sightings build its Miller
# precomputation), a batch scan batches each delegation once.
_WARMUP = 2 * len(DELEGATIONS) * HOT_PER_DELEGATION

WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("hot-read", hot_read, 300.0, _WARMUP, _hot_pairs),
        Workload("cold-read", cold_read, 120.0, _WARMUP, _all_pairs),
        Workload("batch-read", batch_read, 20.0, len(DELEGATIONS), _all_pairs),
        Workload("grant-churn", grant_churn, 250.0, _WARMUP, _hot_pairs),
    )
}


# -------------------------------------------------------------- accounting


@dataclass
class Account:
    """Attempted, failed and non-identical operations across a whole run."""

    attempted: int = 0
    failed: int = 0
    nonidentical: int = 0
    errors: list = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def record(self, outcomes: list[str]) -> None:
        with self._lock:
            self.attempted += len(outcomes)
            self.failed += outcomes.count("wrong")
            self.nonidentical += outcomes.count("nonidentical")
            if "wrong" in outcomes and len(self.errors) < 10:
                self.errors.append("wrong output")

    def fail(self, count: int, error: Exception) -> None:
        with self._lock:
            self.attempted += count
            self.failed += count
            if len(self.errors) < 10:
                self.errors.append("%s: %s" % (type(error).__name__, error))


class Session:
    """One client connection's view of a workload: the op stream and its checks."""

    def __init__(self, client: MuxRemoteGateway, universe: Universe, stream, account: Account):
        self.client = client
        self.universe = universe
        self.account = account
        self.write_ms: list[float] = []
        self._stream = stream
        self._lock = threading.Lock()
        # One churn write at a time, so every revoke finds its key installed.
        self._churn_lock = threading.Lock()

    def next_op(self) -> tuple:
        with self._lock:
            return next(self._stream)

    def _timed_write(self, call, request):
        start = time.perf_counter()
        response = call(request)
        self.write_ms.append((time.perf_counter() - start) * 1000)
        return response

    def execute(self, op: tuple) -> int:
        """Run one operation; returns how many operations it counts for."""
        kind, subject = op
        size = {"batch": len(subject), "churn": 2}.get(kind, 1)
        client, universe = self.client, self.universe
        try:
            if kind == "read":
                response = client.reencrypt(universe.request(subject))
                outcomes = [universe.judge(subject, response.ciphertext)]
            elif kind == "batch":
                responses = client.reencrypt_batch([universe.request(pair) for pair in subject])
                outcomes = [
                    universe.judge(pair, response.ciphertext)
                    for pair, response in zip(subject, responses)
                ]
                outcomes += ["wrong"] * (size - len(responses))
            elif kind == "grant":
                self._timed_write(client.grant, GrantRequest(TENANT, universe.keys[subject]))
                outcomes = ["identical"]
            else:  # churn: revoke and re-grant a delegation no read uses
                patient, type_label = subject
                with self._churn_lock:
                    revoked = self._timed_write(
                        client.revoke,
                        RevokeRequest(
                            TENANT, PATIENT_DOMAIN, patient, READER_DOMAIN, CHURN_READER,
                            type_label,
                        ),
                    )
                    self._timed_write(
                        client.grant,
                        GrantRequest(TENANT, universe.keys[(patient, type_label, CHURN_READER)]),
                    )
                outcomes = ["identical" if revoked.removed else "wrong", "identical"]
        except GatewayError as error:  # refused or lost requests are failures
            self.account.fail(size, error)
            return size
        self.account.record(outcomes)
        return size


# ------------------------------------------------------------- load phases

# How often the traced trial's overhead phase takes the span hooks out or
# puts them back.
TOGGLE_S = 0.25


def _run_threads(target: Callable[[], None], tick: Callable[[], None] | None = None) -> None:
    """Run ``target`` on every load thread; re-raise the first crash.

    ``tick`` runs on the calling thread every :data:`TOGGLE_S` until the
    load threads finish.
    """
    crashes: list[BaseException] = []

    def guarded() -> None:
        try:
            target()
        except BaseException as error:  # noqa: BLE001 - re-raised in the caller
            crashes.append(error)

    threads = [
        threading.Thread(target=guarded, name="bench-load-%d" % i) for i in range(LOAD_THREADS)
    ]
    for thread in threads:
        thread.start()
    if tick is not None:
        due = time.perf_counter()
        while any(thread.is_alive() for thread in threads):
            due += TOGGLE_S
            time.sleep(max(0.0, due - time.perf_counter()))
            tick()
    for thread in threads:
        thread.join()
    if crashes:
        raise crashes[0]


def closed_loop(session: Session, seconds: float | None = None, ops: list | None = None,
                tick: Callable[[int], None] | None = None) -> int:
    """Each load thread sends its next operation when the last one returns.

    Runs ``ops`` to the end, or the workload stream for ``seconds``, and
    returns the operations completed.  ``tick(completed so far)`` runs
    every :data:`TOGGLE_S` meanwhile.
    """
    lock = threading.Lock()
    completed = [0]
    queue = iter(ops) if ops is not None else None
    deadline = time.perf_counter() + seconds if seconds is not None else None

    def stream() -> None:
        while True:
            if queue is not None:
                with lock:
                    op = next(queue, None)
                if op is None:
                    return
            elif time.perf_counter() >= deadline:
                return
            else:
                op = session.next_op()
            count = session.execute(op)
            with lock:
                completed[0] += count

    _run_threads(stream, None if tick is None else lambda: tick(completed[0]))
    return completed[0]


def open_loop(session: Session, rate: float, seconds: float):
    """Send operation k at ``start + k / rate`` whatever came back before.

    Latency runs from the due time, so a stall also delays (and is
    charged to) every operation queued behind it; ``late_ms`` is how far
    behind schedule each send left.  Returns (read latencies ms, send
    lateness ms, operations completed).
    """
    ops = [session.next_op() for _ in range(max(1, round(rate * seconds)))]
    latencies: list[float] = []
    lateness: list[float] = []
    completed = [0]
    lock = threading.Lock()
    index = itertools.count()
    start = time.perf_counter() + 0.005

    def stream() -> None:
        while True:
            with lock:
                k = next(index)
            if k >= len(ops):
                return
            due = start + k / rate
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            count = session.execute(ops[k])
            done = time.perf_counter()
            with lock:
                completed[0] += count
                lateness.append((sent - due) * 1000)
                if ops[k][0] in ("read", "batch"):
                    latencies.append((done - due) * 1000)

    _run_threads(stream)
    return latencies, lateness, completed[0]


def tracing_overhead(session: Session, server: "ServerProcess",
                     client_hooks: tracing.SpanRecorder, seconds: float) -> float:
    """1 − traced / untraced closed-loop throughput, within one server process.

    Every :data:`TOGGLE_S` the client's hooks and the server's (SIGUSR1 to
    ``traced_server.py``) come out or go back in, starting traced.  Each
    traced window is set against the mean of the untraced windows on
    either side, so a drift of the host's speed cancels, and the median
    ratio is reported.
    """
    marks = [(time.perf_counter(), 0)]

    def toggle(completed: int) -> None:
        marks.append((time.perf_counter(), completed))
        server.process.send_signal(signal.SIGUSR1)
        client_hooks.toggle(tracing.CLIENT_HOOKS)

    closed_loop(session, seconds=seconds, tick=toggle)
    rates = [(ops1 - ops0) / (t1 - t0) for (t0, ops0), (t1, ops1) in zip(marks, marks[1:])]
    # Even windows ran traced, odd ones untraced.
    ratios = [
        2 * rates[i] / (rates[i - 1] + rates[i + 1]) for i in range(2, len(rates) - 1, 2)
    ]
    return 1 - statistics.median(ratios)


# ----------------------------------------------------------- server process


class ServerProcess:
    """One ``repro-pre serve --http 0 --async`` process and its /proc counters."""

    def __init__(self, state_dir: Path, spans_path: Path | None = None):
        serve = [
            "serve", "--http", "0", "--async", "--group", GROUP,
            "--shards", "4", "--state-dir", str(state_dir),
        ]
        if spans_path is None:
            command = [sys.executable, "-m", "repro.cli", *serve]
        else:
            command = [
                sys.executable, str(SUITE / "traced_server.py"), "--spans", str(spans_path), *serve
            ]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
        )
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True
        )
        try:
            ready, _, _ = select.select([self.process.stdout], [], [], 60.0)
            banner = self.process.stdout.readline() if ready else ""
            if not banner.startswith("gateway listening on "):
                raise RuntimeError("server did not start (banner %r)" % banner)
        except BaseException:
            self.stop()
            raise
        self.url = banner.split()[3]

    def cpu_seconds(self) -> float:
        """CPU time the server's live threads have run, to the nanosecond.

        Summed from each thread's ``schedstat``: ``/proc/<pid>/stat``
        counts 10 ms ticks, too coarse for a phase of a second.  The
        server's threads (event loop, executor pool) live as long as it.
        """
        tasks = "/proc/%d/task" % self.process.pid
        total = 0
        for thread in os.listdir(tasks):
            try:
                with open("%s/%s/schedstat" % (tasks, thread)) as handle:
                    total += int(handle.read().split()[0])
            except FileNotFoundError:  # the thread exited after listdir
                continue
        return total / 1e9

    def peak_rss_mb(self) -> float:
        with open("/proc/%d/status" % self.process.pid) as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM in /proc/%d/status" % self.process.pid)

    def stop(self) -> None:
        """SIGTERM (the server's clean exit), SIGKILL if it hangs; always reaped."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=20.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


# --------------------------------------------------------------------- trial


def percentile(values: list[float], q: float) -> float | None:
    """Linear-interpolated ``q``-quantile (0..1) of a sample; ``None`` if empty."""
    if not values:
        return None
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


@dataclass
class Trial:
    """One fresh server: set-up, an open-loop phase, then a closed-loop phase."""

    setup_s: float
    latencies_ms: list[float]
    late_ms: list[float]
    throughput_ops_s: float  # closed loop
    server_cpu_ms_per_op: float  # closed loop
    open_window: tuple[float, float]
    measured_window: tuple[float, float]
    measured_ops: int
    rss_mb: float
    write_ms: list[float]  # grant and revoke calls of the measured phases
    before: MetricsSnapshot
    after: MetricsSnapshot
    # Traced trials only:
    overhead_frac: float | None = None
    server_spans: list = field(default_factory=list)
    client_spans: list = field(default_factory=list)
    unresolved_hooks: list = field(default_factory=list)


def summarize(trials: list[Trial]) -> dict[str, float | None]:
    """Every number of a set of trials: the gated metrics and the recorded ones.

    Latencies are percentiles of the pooled open-loop samples; the other
    numbers are medians over the trials.
    """
    latencies = [value for trial in trials for value in trial.latencies_ms]

    def median(name: str) -> float:
        return statistics.median(getattr(trial, name) for trial in trials)

    return {
        "setup_s": median("setup_s"),
        "server_rss_mb": median("rss_mb"),
        "latency_p50_ms": percentile(latencies, 0.50),
        "latency_p90_ms": percentile(latencies, 0.90),
        "latency_p99_ms": percentile(latencies, 0.99),
        "latency_samples": len(latencies),
        "throughput_ops_s": median("throughput_ops_s"),
        "server_cpu_ms_per_op": median("server_cpu_ms_per_op"),
        "write_p50_ms": percentile([value for trial in trials for value in trial.write_ms], 0.50),
        "late_p99_ms": percentile([value for trial in trials for value in trial.late_ms], 0.99),
        "server_reads": sum(
            trial.after.histograms["reencrypt"].count - trial.before.histograms["reencrypt"].count
            for trial in trials
        ),
    }


def run_trial(
    universe: Universe,
    workload: Workload,
    seed: str,
    open_s: float,
    closed_s: float,
    account: Account,
    state_dir: Path,
    overhead_s: float = 0.0,
) -> Trial:
    """Spawn a fresh server, grant, warm up, then time both load phases.

    With ``overhead_s`` the server and this client record spans, and an
    extra closed-loop phase that long measures what recording costs.
    """
    spans_path = state_dir.with_name(state_dir.name + "-spans.json") if overhead_s else None
    client_hooks = tracing.SpanRecorder().install(tracing.CLIENT_HOOKS) if overhead_s else None
    spawned = time.perf_counter()
    server = None
    client = None
    try:
        server = ServerProcess(state_dir, spans_path)
        client = MuxRemoteGateway(server.url, universe.backend)
        session = Session(client, universe, workload.stream(seed), account)
        closed_loop(session, ops=[("grant", delegation) for delegation in universe.keys])
        closed_loop(session, ops=[session.next_op() for _ in range(workload.warmup)])
        session.write_ms.clear()  # set-up grants are not the workload's writes
        before = client.snapshot()
        setup_s = time.perf_counter() - spawned
        open_start = time.perf_counter()
        latencies, late, open_ops = open_loop(session, workload.rate, open_s)
        open_end = time.perf_counter()
        cpu_start, closed_start = server.cpu_seconds(), time.perf_counter()
        closed_ops = closed_loop(session, seconds=closed_s)
        measured_end = time.perf_counter()
        cpu_ms = (server.cpu_seconds() - cpu_start) * 1000
        after = client.snapshot()
        overhead = (
            tracing_overhead(session, server, client_hooks, overhead_s) if overhead_s else None
        )
        rss = server.peak_rss_mb()
    finally:
        # Server first: its exit ends the client's blocked reader thread,
        # which client.close() would otherwise wait two seconds for.
        if server is not None:
            server.stop()
        if client is not None:
            client.close()
        if client_hooks is not None:
            client_hooks.uninstall()
    trial = Trial(
        setup_s=setup_s,
        latencies_ms=latencies,
        late_ms=late,
        throughput_ops_s=closed_ops / (measured_end - closed_start),
        server_cpu_ms_per_op=cpu_ms / closed_ops,
        open_window=(open_start, open_end),
        measured_window=(open_start, measured_end),
        measured_ops=open_ops + closed_ops,
        rss_mb=rss,
        write_ms=session.write_ms,
        before=before,
        after=after,
        overhead_frac=overhead,
    )
    if overhead_s:
        trial.server_spans, server_unresolved = tracing.load_spans(spans_path)
        trial.client_spans = client_hooks.spans
        trial.unresolved_hooks = server_unresolved + client_hooks.unresolved
    return trial
