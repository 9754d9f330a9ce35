#!/usr/bin/env python3
"""The repository benchmark: three workloads, end-to-end and per-layer.

Run from the repository root::

    python3 perfbench/run.py --workload paper_uniform --seed 1 --seconds 10 --trace 0

It drives the simulator in ``src/`` only through its public API
(``SimulationSession``, ``Workload.batches()``, ``PageMappedFTL.submit()``,
``crash()``/``recover()``), one process per run and no threads, and checks
every read against a dict oracle. The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: with
``--trace 0`` the metrics are the end-to-end metrics of ``BENCHMARK.json``,
with ``--trace 1`` the per-layer metrics of a separately traced run. The
lines before it print every metric by name and unit, the environment
manifest and a digest of the simulated outcome.

A run is three episodes, each a fresh session set-up followed by a fixed
amount of work: ``--seconds`` times the workload's reference rate (its
throughput on the reference machine) split over the episodes, so a run
measures about ``--seconds`` there and every simulated metric is a pure
function of the seed. The simulated metrics must repeat bit for bit
between the runs inside one process (untraced and traced, tapped and
untapped, an episode and its replay); if they do not, the run exits
non-zero without printing a result. See ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.util
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from array import array
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    # Measure the checkout's program, never an installed copy.
    sys.exit(f"perfbench: no src/repro under {ROOT}")
sys.path.insert(0, str(ROOT / "src"))

from repro import (IOPurpose, IOStats, LatencySketch,  # noqa: E402
                   Operation, OpKind, SimulationSession,
                   StreamingTraceWorkload, UniformRandomWrites, Workload,
                   simulation_configuration)
from repro.timing.sketch import SUB_BUCKET_BITS  # noqa: E402

from layers import NoTrace, Tracer  # noqa: E402

#: Host operations per ``submit()`` call.
BATCH_OPS = 512
#: Independent episodes per run, each on a freshly set-up session with its
#: own inputs; ``setup_s`` is the median of their set-ups.
EPISODES = 3
#: Timed replay of untapped workloads (see ``timed_replay``): batches
#: before the capture starts, batches captured, and crash+recover cycles.
PROBE_WARM = 32
PROBE_BATCHES = 32
PROBE_CRASHES = 40
#: Batch after which a replay's counters must match the main phase's.
PROBE_EVERY = 8
#: Reads per batch of the final whole-space verification.
VERIFY_BATCH = 4096
#: Reference-kernel samples interleaved with an untraced measured phase.
KERNEL_SAMPLES = 45
#: Loop steps of one reference-kernel sample.
KERNEL_STEPS = 12_000
#: Size of the array the reference kernel reads at random.
KERNEL_MEMORY_BYTES = 8 << 20
#: Mean wall time of one reference-kernel sample on the reference machine
#: (see NOTES.md); host-time metrics are reported at that machine's speed.
REFERENCE_KERNEL_S = 0.023

WRITE, READ, TRIM = OpKind.WRITE, OpKind.READ, OpKind.TRIM
#: Oracle value of a page whose state a raising batch left unknown.
UNKNOWN = object()
PURPOSES = ("user", "gc", "translation", "validity", "recovery")


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class HotColdMix(Workload):
    """73% writes, 20% reads, 7% trims; 80% of accesses hit 20% of the space.

    Every write carries a unique integer payload, so a read that returns
    another page's data (or a stale version) is told apart from a right one.
    """

    def __init__(self, logical_pages: int, seed: int) -> None:
        super().__init__(logical_pages, seed)
        self._version = 0

    def __iter__(self):
        rng = self._rng
        pages = self.logical_pages
        hot = pages // 5
        while True:
            if rng.random() < 0.8:
                logical = rng.randrange(hot)
            else:
                logical = hot + rng.randrange(pages - hot)
            draw = rng.random()
            if draw < 0.73:
                self._version += 1
                yield Operation(WRITE, logical, self._version)
            elif draw < 0.93:
                yield Operation(READ, logical)
            else:
                yield Operation(TRIM, logical)


def write_msr_trace(path: Path, logical_pages: int, seed: int,
                    lines: int) -> None:
    """MSR-Cambridge CSV: 80% reads, 80% of accesses to 20% of the space."""
    rng = random.Random(seed)
    hot = logical_pages // 5
    with open(path, "w") as handle:
        for index in range(lines):
            kind = "Read" if rng.random() < 0.8 else "Write"
            if rng.random() < 0.8:
                logical = rng.randrange(hot)
            else:
                logical = hot + rng.randrange(logical_pages - hot)
            handle.write(f"{128166372000000 + index},bench,0,{kind},"
                         f"{logical * 4096},4096,0\n")


@dataclass(frozen=True)
class Cell:
    """One workload: device, FTL, op source and crash cadence."""

    ftl: str
    blocks: int
    #: Reference throughput (host ops/s); sizes the measured phase.
    rate: int
    #: Run the timing and obs taps (``timing="slc"``, ``obs="full"``).
    taps: bool
    #: Batches between ``crash()``+``recover()``; 0 = never.
    crash_every: int
    #: ``(logical_pages, seed, trace_path) -> Workload``.
    source: Callable[[int, int, Path], Workload]
    #: Writes the trace files the source replays, if any.
    trace: bool = False

    def config(self):
        return simulation_configuration(num_blocks=self.blocks,
                                        pages_per_block=64, page_size=4096)


CELLS: Dict[str, Cell] = {
    "paper_uniform": Cell(
        "GeckoFTL(cache_capacity=1024)", 512, 50_000, False, 0,
        lambda pages, seed, path: UniformRandomWrites(pages, seed=seed)),
    "dftl_trace_readmix": Cell(
        "DFTL(cache_capacity=256)", 2048, 40_000, False, 0,
        lambda pages, seed, path: StreamingTraceWorkload(
            path, pages, format="msr"),
        trace=True),
    "gecko_timed_crash": Cell(
        "GeckoFTL(cache_capacity=512)", 256, 8_000, True, 5,
        lambda pages, seed, path: HotColdMix(pages, seed)),
}


def build_session(cell: Cell, taps: bool) -> SimulationSession:
    """Session build plus full warm-up fill: what ``setup_s`` times."""
    session = SimulationSession(cell.ftl, device=cell.config(),
                                timing="slc" if taps else None,
                                obs="full" if taps else None)
    session.warmup()
    return session


# ----------------------------------------------------------------------
# Oracle
# ----------------------------------------------------------------------
class Oracle:
    """Expected payload of every logical page, plus mismatch bookkeeping.

    A page never written in the measured phase holds its warm-up payload
    ``("init", page)``; a trimmed page reads back ``None``.

    Every mismatch counts as a failed operation. A mismatch is *explained*
    when it falls in the footprint of the known trim+recovery defect (see
    ``NOTES.md``): it comes after a crash in an episode that has issued
    trims. The same episodes with every trim turned into a read show no
    mismatch at all. Any other mismatch makes the run incorrect.
    """

    def __init__(self) -> None:
        self.values: Dict[int, Any] = {}
        self.trimmed = False
        self.crashes = 0
        self.mismatches: List[tuple] = []

    def expected(self, logical: int) -> Any:
        return self.values.get(logical, ("init", logical))

    def apply(self, batch: List[Operation], payloads: List[Any]) -> int:
        """Fold a submitted batch in; return how many reads mismatched."""
        values = self.values
        returned = iter(payloads)
        bad = 0
        for operation in batch:
            kind = operation.kind
            logical = operation.logical
            if kind is WRITE:
                values[logical] = operation.payload
            elif kind is READ:
                got = next(returned)
                expected = values.get(logical, ("init", logical))
                if got != expected and expected is not UNKNOWN:
                    bad += self.mismatch("read", logical, got)
            else:
                values[logical] = None
                self.trimmed = True
        return bad

    def raised(self, batch: List[Operation], error: Exception) -> int:
        """A submit that raised: every op of the batch counts as failed.

        How far the batch got is unknown, so the pages it wrote or trimmed
        are no longer checked.
        """
        for operation in batch:
            if operation.kind is not READ:
                self.values[operation.logical] = UNKNOWN
                self.trimmed |= operation.kind is TRIM
        return self.mismatch("raised", batch[0].logical, repr(error),
                             len(batch))

    def mismatch(self, where: str, logical: int, got: Any,
                 count: int = 1) -> int:
        explained = self.crashes > 0 and self.trimmed
        self.mismatches.append((where, logical, self.expected(logical), got,
                                explained))
        return count

    @property
    def unexplained(self) -> int:
        return sum(1 for entry in self.mismatches if not entry[-1])


def verify_all(session: SimulationSession, oracle: Oracle) -> int:
    """Read back the whole logical space; return the number of mismatches."""
    bad = 0
    pages = session.config.logical_pages
    for start in range(0, pages, VERIFY_BATCH):
        batch = [Operation(READ, logical)
                 for logical in range(start, min(start + VERIFY_BATCH, pages))]
        try:
            payloads = session.submit(batch, collect_payloads=True).payloads
        except Exception:
            abandon_request(session)
            payloads = [read_one(session, op.logical) for op in batch]
        for operation, got in zip(batch, payloads):
            expected = oracle.expected(operation.logical)
            if got != expected and expected is not UNKNOWN:
                bad += oracle.mismatch("final", operation.logical, got)
    return bad


def read_one(session: SimulationSession, logical: int) -> Any:
    """One read; a read that raises returns a description of the error."""
    try:
        return session.read(logical)
    except Exception as error:
        abandon_request(session)
        return f"raised {error!r}"


def abandon_request(session: SimulationSession) -> None:
    """Close the timing model's request an exception left open."""
    if session.timing is not None:
        session.timing.abort_request()


# ----------------------------------------------------------------------
# Measured phase
# ----------------------------------------------------------------------
def counters(session: SimulationSession) -> Dict[str, Any]:
    """Every simulated flash and host counter since the warm-up reset."""
    stats = session.stats
    return {"host_writes": stats.host_writes, "host_reads": stats.host_reads,
            "flash": stats.breakdown()}


@dataclass
class Phase:
    ops: int
    busy_s: float
    batch_ms: List[float]
    failed: int
    recovery_virtual_us: List[float]
    reports: list
    checkpoint: Optional[Dict[str, Any]]
    kernel_s: List[float]


class ReferenceKernel:
    """Fixed pure-Python work whose wall time tracks the machine's speed.

    Each step churns a small dict (interpreter speed) and reads one random
    word of an 8 MiB array (memory latency, which the large heaps of the
    trace workload depend on). It shares no code with the program. The
    array adds 8 MiB to the peak RSS of every untraced run.
    """

    def __init__(self) -> None:
        self.memory = array("q", bytes(KERNEL_MEMORY_BYTES))

    def __call__(self) -> float:
        rng = random.Random(7)
        randrange = rng.randrange
        memory = self.memory
        words = len(memory)
        table: Dict[int, tuple] = {}
        total = 0
        # The collector would walk the program's whole heap from inside the
        # kernel, timing the heap's size rather than the machine.
        gc.disable()
        try:
            start = perf_counter()
            for step in range(KERNEL_STEPS):
                key = randrange(4096)
                table[key] = (key, step)
                if len(table) > 2048:
                    del table[next(iter(table))]
                total += memory[randrange(words)]
            return perf_counter() - start
        finally:
            gc.enable()


def measure(session: SimulationSession, workload: Workload, ops: int,
            crash_every: int, oracle: Optional[Oracle], tracer,
            checkpoint_batch: int = 0,
            kernel: Optional[ReferenceKernel] = None,
            kernel_every: int = 0) -> Phase:
    """Drive ``ops`` host ops through ``submit()`` in a closed loop.

    ``busy_s`` is the wall time of the generator, ``submit()`` and
    ``crash()``+``recover()`` calls; the oracle's bookkeeping between them
    is excluded. ``checkpoint`` holds the counters right after batch
    ``checkpoint_batch`` (before any crash due then). With a ``kernel``,
    one timing of it precedes every ``kernel_every``-th batch, outside
    ``busy_s``.
    """
    next_batch = tracer.span("workloads.gen",
                             workload.batches(ops, BATCH_OPS).__next__)
    submit = tracer.span("ftl.submit", session.ftl.submit)

    def crash_recover():
        session.crash()
        return session.recover()
    crash_recover = tracer.span("recovery", crash_recover)

    timing = session.timing
    clock = perf_counter
    batch_ms: List[float] = []
    virtual_us: List[float] = []
    reports = []
    checkpoint = None
    busy = 0.0
    failed = 0
    batches = ops // BATCH_OPS
    kernel_s: List[float] = []
    gc.collect()
    for index in range(batches):
        if kernel is not None and index % kernel_every == 0:
            kernel_s.append(kernel())
        start = clock()
        batch = next_batch()
        generated = clock()
        try:
            result = submit(batch, collect_payloads=True)
        except Exception as error:
            result = error
        done = clock()
        busy += done - start
        batch_ms.append((done - generated) * 1e3)
        if isinstance(result, Exception):
            print(f"batch {index} raised {result!r}", file=sys.stderr)
            abandon_request(session)
            failed += (oracle.raised(batch, result) if oracle is not None
                       else len(batch))
        elif oracle is not None:
            failed += oracle.apply(batch, result.payloads)
        if index + 1 == checkpoint_batch:
            checkpoint = counters(session)
        if crash_every and (index + 1) % crash_every == 0:
            virtual_start = timing.now if timing is not None else None
            start = clock()
            reports.append(crash_recover())
            busy += clock() - start
            if oracle is not None:
                oracle.crashes += 1
            if timing is not None:
                virtual_us.append(timing.now - virtual_start)
    return Phase(ops=ops, busy_s=busy, batch_ms=batch_ms, failed=failed,
                 recovery_virtual_us=virtual_us,
                 reports=reports, checkpoint=checkpoint, kernel_s=kernel_s)


# ----------------------------------------------------------------------
# Simulated metrics
# ----------------------------------------------------------------------
def _bucket_lower_ns(bucket: int) -> int:
    """Smallest nanosecond value of a ``LatencySketch`` bucket index."""
    if bucket < 1 << SUB_BUCKET_BITS:
        return bucket
    exponent = (bucket >> SUB_BUCKET_BITS) + SUB_BUCKET_BITS - 1
    mantissa = bucket & ((1 << SUB_BUCKET_BITS) - 1)
    return (1 << exponent) | (mantissa << (exponent - SUB_BUCKET_BITS))


def sketch_quantile(sketch, q: float) -> float:
    """Rank-interpolated quantile of a ``LatencySketch``, in microseconds.

    The sketch's own quantile is its bucket's lower bound, which repeats
    exactly across seeds; interpolating the target rank linearly inside the
    bucket (as histogram quantiles usually are) keeps the ~3% bucket error
    but follows the distribution.
    """
    data = sketch.to_dict()
    target = q * data["count"]
    seen = 0
    for bucket in sorted(int(key) for key in data["buckets"]):
        count = data["buckets"][str(bucket)]
        if seen + count >= target:
            low = _bucket_lower_ns(bucket)
            high = _bucket_lower_ns(bucket + 1)
            value = (low + (high - low) * (target - seen) / count) / 1000.0
            return min(max(value, data["min_us"]), data["max_us"])
        seen += count
    return data["max_us"]


def simulated_outcome(session: SimulationSession,
                      phase: Phase) -> Dict[str, Any]:
    """Everything the determinism guard requires to repeat bit for bit."""
    snapshot = session.snapshot()
    outcome = {"counters": counters(session),
               "wa_total": snapshot.write_amplification,
               "ram_bytes": snapshot.ram_bytes,
               "recovery_virtual_us": phase.recovery_virtual_us}
    if session.timing is not None:
        outcome["latency"] = session.timing.sketch.to_dict()
        outcome["virtual_s"] = session.timing.virtual_seconds
    return outcome


def digest(outcome: Dict[str, Any]) -> str:
    encoded = json.dumps(outcome, sort_keys=True, default=str)
    return hashlib.sha256(encoded.encode()).hexdigest()[:16]


class DeterminismError(RuntimeError):
    """Simulated metrics differ between runs that must agree."""


def require_equal(what: str, first: Any, second: Any) -> None:
    if first != second:
        raise DeterminismError(
            f"determinism guard: {what} differ\n  {first}\n  {second}")


# ----------------------------------------------------------------------
# Episodes and runs
# ----------------------------------------------------------------------
@dataclass
class Episode:
    """One set-up plus measured phase, and what it left behind."""

    setup_s: float
    phase: Phase
    #: Counters of the measured phase (before the final verification).
    stats: IOStats
    #: ``simulated_outcome`` of the measured phase.
    outcome: Dict[str, Any]
    cache_hits: int
    cache_misses: int
    gecko_levels: int
    gecko_runs: int
    sketch: Optional[LatencySketch]
    requests: int
    obs_events: int
    obs_samples: int
    failed: int = 0
    attempted: int = 0


def episode_batches(cell: Cell, seconds: int) -> int:
    """Batches per episode: ``seconds`` of work at the reference rate."""
    # Untapped workloads replay the start of episode 0 (see timed_replay).
    floor = (cell.crash_every if cell.taps
             else PROBE_WARM + PROBE_BATCHES + PROBE_CRASHES)
    return max(floor,
               round(seconds * cell.rate / BATCH_OPS / EPISODES))


def run_episode(cell: Cell, seed: int, index: int, batches: int,
                workdir: Path, taps: bool, tracer,
                oracle: Optional[Oracle],
                kernel: Optional[ReferenceKernel] = None) -> Episode:
    """Set up a fresh session and drive episode ``index`` of the seed."""
    gc.collect()
    start = perf_counter()
    session = build_session(cell, taps)
    setup_s = perf_counter() - start
    pages = session.config.logical_pages
    workload = cell.source(pages, seed * 16 + index,
                           workdir / f"trace{index}.csv")
    ftl = session.ftl
    hits, misses = ftl.cache.hits, ftl.cache.misses
    tracer.instrument(ftl)
    phase = measure(session, workload, batches * BATCH_OPS, cell.crash_every,
                    oracle, tracer,
                    checkpoint_batch=cell.crash_every or PROBE_EVERY,
                    kernel=kernel,
                    kernel_every=max(1, batches * EPISODES
                                     // KERNEL_SAMPLES))
    tracer.uninstall()
    timing, obs = session.timing, session.obs
    gecko = getattr(ftl, "gecko", None)
    sketch = None
    if timing is not None:
        sketch = LatencySketch()
        sketch.merge(timing.sketch)
    episode = Episode(
        setup_s=setup_s, phase=phase, stats=session.stats.snapshot(),
        outcome=simulated_outcome(session, phase),
        cache_hits=ftl.cache.hits - hits,
        cache_misses=ftl.cache.misses - misses,
        gecko_levels=gecko.num_levels if gecko else 0,
        gecko_runs=gecko.num_runs if gecko else 0,
        sketch=sketch,
        requests=timing.requests if timing else 0,
        obs_events=obs.trace.seq if obs else 0,
        obs_samples=len(obs.metrics.rows) if obs else 0)
    if oracle is not None:
        episode.failed = phase.failed + verify_all(session, oracle)
        episode.attempted = phase.ops + pages
    return episode


def run_episodes(cell: Cell, seed: int, batches: int, workdir: Path,
                 taps: bool, tracer, oracles: Optional[List[Oracle]] = None,
                 kernel: Optional[ReferenceKernel] = None) -> List[Episode]:
    return [run_episode(cell, seed, index, batches, workdir, taps, tracer,
                        oracles[index] if oracles else None,
                        kernel)
            for index in range(EPISODES)]


def virtual_metrics(episodes: List[Episode]) -> Dict[str, float]:
    """Simulated QoS of tapped episodes: merged sketches, summed clocks."""
    sketch = LatencySketch()
    for episode in episodes:
        sketch.merge(episode.sketch)
    recovery_us = [value for episode in episodes
                   for value in episode.phase.recovery_virtual_us]
    return {
        "virt_mean_us": sketch.mean_us,
        "virt_p99_us": sketch_quantile(sketch, 0.99),
        "virt_ops_per_s": (sum(e.requests for e in episodes)
                           / sum(e.outcome["virtual_s"] for e in episodes)),
        "recovery_virt_ms": slow_half_mean(recovery_us) / 1000.0,
    }


def timed_replay(cell: Cell, seed: int, workdir: Path) -> tuple:
    """Simulated QoS of an untapped workload: episode 0 with the taps on.

    The capture is reset after ``PROBE_WARM`` batches (GC runs by then on
    paper_uniform), ``PROBE_BATCHES`` batches give the latency and
    throughput, and ``PROBE_CRASHES`` crash+recover cycles, one batch
    apart, give the recovery time. Returns the counters after batch
    ``PROBE_EVERY`` and the metrics.
    """
    session = build_session(cell, True)
    workload = cell.source(session.config.logical_pages, seed * 16,
                           workdir / "trace0.csv")
    head = measure(session, workload, PROBE_WARM * BATCH_OPS, 0, None,
                   NoTrace(), checkpoint_batch=PROBE_EVERY)
    timing = session.timing
    timing.reset_capture()
    measure(session, workload, PROBE_BATCHES * BATCH_OPS, 0, None, NoTrace())
    metrics = {"virt_mean_us": timing.sketch.mean_us,
               "virt_p99_us": sketch_quantile(timing.sketch, 0.99),
               "virt_ops_per_s": timing.throughput_ops_s}
    crashes = measure(session, workload, PROBE_CRASHES * BATCH_OPS, 1, None,
                      NoTrace())
    metrics["recovery_virt_ms"] = slow_half_mean(
        crashes.recovery_virtual_us) / 1000.0
    return head.checkpoint, metrics


def slow_half_mean(values: List[float]) -> float:
    """Mean of the values between the median and the 90th percentile.

    Recovery times are bimodal (on gecko_timed_crash about 2 ms and 3.5 ms),
    and the share of each mode moves from seed to seed, so a mean or median
    of all crashes follows the share rather than the cost. The slower half
    is the full recovery path; the slowest tenth holds rare outliers (one
    recovery in ~30 took 44 ms). Unlike a median, the mean does not repeat
    across seeds when recovery times are multiples of one flash latency.
    """
    ordered = sorted(values)
    start = len(ordered) // 2
    stop = max(start + 1, len(ordered) * 9 // 10)
    return statistics.fmean(ordered[start:stop])


def percentile(values: List[float], q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[
        int(q * 100) - 1]


def run_untraced(cell: Cell, seed: int, batches: int,
                 workdir: Path) -> tuple:
    """End-to-end metrics (``--trace 0``)."""
    oracles = [Oracle() for _ in range(EPISODES)]
    episodes = run_episodes(cell, seed, batches, workdir, cell.taps,
                            NoTrace(), oracles,
                            ReferenceKernel())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # Replay the start of episode 0 with the taps flipped: matching
    # counters prove both repeatability and that the timing and obs taps
    # leave the simulation unchanged. Untapped workloads take their
    # simulated QoS from this timed replay, and their recovery time from
    # the crash cycles that end it.
    checkpoint_batch = cell.crash_every or PROBE_EVERY
    if cell.taps:
        replayed = run_episode(cell, seed, 0, checkpoint_batch, workdir,
                               False, NoTrace(), None).phase.checkpoint
        virtual = virtual_metrics(episodes)
    else:
        replayed, virtual = timed_replay(cell, seed, workdir)
    require_equal("counters of episode 0 and its replay at batch "
                  f"{checkpoint_batch}", episodes[0].phase.checkpoint,
                  replayed)

    # Host times are scaled to the reference machine's speed: they are
    # divided by the slowdown the interleaved kernel samples saw.
    kernel_s = [value for e in episodes for value in e.phase.kernel_s]
    slowdown = statistics.fmean(kernel_s) / REFERENCE_KERNEL_S
    ops = sum(e.phase.ops for e in episodes)
    busy_s = sum(e.phase.busy_s for e in episodes)
    batch_ms = [value / slowdown for e in episodes
                for value in e.phase.batch_ms]
    setup_s = [e.setup_s / slowdown for e in episodes]
    host_writes = sum(e.stats.host_writes for e in episodes)
    failed = sum(e.failed for e in episodes)
    attempted = sum(e.attempted for e in episodes)
    metrics = {
        "host_ops_per_s": (ops / busy_s * slowdown, "1/s"),
        "setup_s": (statistics.median(setup_s), "s"),
        "batch_ms_p50": (statistics.median(batch_ms), "ms"),
        "batch_ms_p90": (percentile(batch_ms, 0.90), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "wa_total": (sum(e.outcome["wa_total"] * e.stats.host_writes
                         for e in episodes) / host_writes, "ratio"),
        "ram_bytes": (statistics.fmean(e.outcome["ram_bytes"]
                                       for e in episodes), "bytes"),
        "ok_op_frac": (1.0 - failed / attempted, "frac"),
        "virt_mean_us": (virtual["virt_mean_us"], "us"),
        "virt_p99_us": (virtual["virt_p99_us"], "us"),
        "virt_ops_per_s": (virtual["virt_ops_per_s"], "1/s"),
        "recovery_virt_ms": (virtual["recovery_virt_ms"], "ms"),
    }
    notes = [f"{EPISODES} episodes x {batches} batches of {BATCH_OPS} ops, "
             f"crashes {sum(len(e.phase.reports) for e in episodes)}, "
             f"machine slowdown {slowdown:.4f} (host times are divided by "
             f"it; raw {ops / busy_s:.1f} ops/s), setup_s samples at "
             "reference speed "
             + " ".join(f"{value:.4f}" for value in setup_s)]
    return (oracles, attempted, failed, metrics,
            [e.outcome for e in episodes], notes)


def run_traced(cell: Cell, seed: int, batches: int, workdir: Path) -> tuple:
    """Per-layer metrics (``--trace 1``): untraced, then traced, episodes."""
    plain = run_episodes(cell, seed, batches, workdir, cell.taps, NoTrace())
    outcomes = [e.outcome for e in plain]
    tracer = Tracer()
    oracles = [Oracle() for _ in range(EPISODES)]
    traced = run_episodes(cell, seed, batches, workdir, cell.taps, tracer,
                          oracles)
    require_equal("simulated outcomes of the untraced and traced runs",
                  outcomes, [e.outcome for e in traced])
    taps_host_s = 0.0
    plain_busy = sum(e.phase.busy_s for e in plain)
    if cell.taps:
        bare = run_episodes(cell, seed, batches, workdir, False, NoTrace())
        require_equal("flash counters with and without the timing/obs taps",
                      [o["counters"] for o in outcomes],
                      [e.outcome["counters"] for e in bare])
        taps_host_s = plain_busy - sum(e.phase.busy_s for e in bare)

    ops = sum(e.phase.ops for e in traced)
    traced_busy = sum(e.phase.busy_s for e in traced)
    stats = IOStats.merged(e.stats for e in traced)
    spans, own, calls = tracer.inclusive, tracer.exclusive, tracer.calls
    reports = [report for e in traced for report in e.phase.reports]
    crashes = max(len(reports), 1)
    hits = sum(e.cache_hits for e in traced)
    misses = sum(e.cache_misses for e in traced)
    victims = calls["gc.collect"]
    gc_pages = tracer.gc_migrated + tracer.gc_reclaimed
    flash_ios = (stats.page_reads + stats.page_writes + stats.block_erases
                 + stats.spare_reads
                 + sum(stats.spare_write_counts.values()))
    metrics = {
        "workloads.gen_s": (own["workloads.gen"], "s"),
        "workloads.ops_per_s": (ops / own["workloads.gen"], "1/s"),
        "ftl.submit_s": (spans["ftl.submit"], "s"),
        "ftl.submit_self_s": (own["ftl.submit"], "s"),
        "mapping_cache.hit_ratio": (hits / max(hits + misses, 1), "frac"),
        "mapping_cache.misses": (misses, "count"),
        "translation.sync_calls": (calls["translation.sync"], "count"),
        "translation.sync_s": (own["translation.sync"], "s"),
        "translation.lookup_s": (own["translation.lookup"], "s"),
        "gecko.flush_calls": (calls["gecko.flush"], "count"),
        "gecko.flush_s": (own["gecko.flush"], "s"),
        "gecko.query_s": (own["gecko.query"], "s"),
        "gecko.levels": (statistics.fmean(e.gecko_levels for e in traced),
                         "count"),
        "gecko.runs": (statistics.fmean(e.gecko_runs for e in traced),
                       "count"),
        "gc.victims": (victims, "count"),
        "gc.collect_s": (own["gc.collect"], "s"),
        "gc.victim_select_s": (own["gc.victim_select"], "s"),
        "gc.migrated_per_victim": (tracer.gc_migrated / max(victims, 1),
                                   "pages"),
        "gc.reclaim_ratio": (tracer.gc_reclaimed / max(gc_pages, 1), "frac"),
    }
    for purpose in PURPOSES:
        key = IOPurpose(purpose)
        metrics[f"flash.page_writes.{purpose}"] = (
            stats.page_write_counts[key], "count")
        metrics[f"flash.page_reads.{purpose}"] = (
            stats.page_read_counts[key], "count")
    metrics.update({
        "flash.erases": (stats.block_erases, "count"),
        "flash.spare_reads": (stats.spare_reads, "count"),
        "flash.host_us_per_io": (plain_busy * 1e6 / max(flash_ios, 1), "us"),
        "taps.host_s": (taps_host_s, "s"),
        "timing.requests": (sum(e.requests for e in traced), "count"),
        "obs.events": (sum(e.obs_events for e in traced), "count"),
        "obs.samples": (sum(e.obs_samples for e in traced), "count"),
        "recovery.host_s": (spans["recovery"] / crashes, "s"),
        "recovery.spare_reads": (
            sum(r.total_spare_reads for r in reports) / crashes, "count"),
        "recovery.page_reads": (
            sum(r.total_page_reads for r in reports) / crashes, "count"),
        "recovery.page_writes": (
            sum(r.total_page_writes for r in reports) / crashes, "count"),
        "trace.overhead_frac": (traced_busy / plain_busy - 1.0, "frac"),
        "trace.attributed_frac": (tracer.self_total() / traced_busy, "frac"),
    })
    notes = [f"{EPISODES} episodes x {batches} batches, untraced busy "
             f"{plain_busy:.4f} s, traced busy {traced_busy:.4f} s, "
             f"crashes {len(reports)}"]
    return (oracles, sum(e.attempted for e in traced),
            sum(e.failed for e in traced), metrics, outcomes, notes)


# ----------------------------------------------------------------------
# Environment manifest and entry point
# ----------------------------------------------------------------------
def _git(*args: str) -> Optional[str]:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> Dict[str, Any]:
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no") \
        if sha else None
    return {"git_sha": sha,
            "git_dirty": None if status is None else bool(status),
            "python": platform.python_version(),
            "cpu_model": _cpu_model(),
            "nproc": os.cpu_count(),
            "REPRO_NUMPY": os.environ.get("REPRO_NUMPY"),
            "numpy_importable": importlib.util.find_spec("numpy") is not None}


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """One benchmark run; returns the result object and its report lines."""
    cell = CELLS[workload]
    batches = episode_batches(cell, seconds)
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        if cell.trace:
            for index in range(EPISODES):
                write_msr_trace(workdir / f"trace{index}.csv",
                                cell.config().logical_pages,
                                seed * 16 + index, batches * BATCH_OPS)
        runner = run_traced if trace else run_untraced
        oracles, attempted, failed, metrics, outcomes, notes = runner(
            cell, seed, batches, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = [f"perfbench {workload} seed={seed} seconds={seconds} "
             f"trace={int(trace)}",
             "env " + json.dumps(environment(), sort_keys=True), *notes]
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:<28} {value:>18.6f} {unit}")
    unexplained = 0
    for index, oracle in enumerate(oracles):
        unexplained += oracle.unexplained
        for where, logical, expected, got, explained in oracle.mismatches:
            lines.append(f"  mismatch episode={index} {where} lpn={logical} "
                         f"expected={expected!r} got={got!r}"
                         + ("" if explained else " UNEXPLAINED"))
    lines.append(f"failed {failed} of {attempted} "
                 f"({unexplained} unexplained)")
    lines.append(f"sim_digest {digest(outcomes)}")
    result = {"correct": unexplained == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    return {"result": result, "lines": lines}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(CELLS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        outcome = run(args.workload, args.seed, args.seconds,
                      bool(args.trace))
    except DeterminismError as error:
        print(error, file=sys.stderr)
        return 3
    print("\n".join(outcome["lines"]))
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
