"""Named performance microbenchmarks with machine-readable BENCH records.

The simulator's usefulness at interesting device geometries is bounded by the
speed of its hot paths, so this module pins that speed down: a fixed set of
*named* microbenchmarks, each exercising one load-bearing path of the stack,
measured in operations per second and emitted as schema-versioned
``BENCH_<name>.json`` records that CI archives and compares across commits.

The twelve benchmarks:

``device_fill``
    Raw sequential page programming of every physical page of a device —
    the :class:`~repro.flash.device.FlashDevice` write path in isolation.
``gecko_update``
    GeckoFTL steady-state random updates on a pre-filled device — the full
    write path: submission queue, mapping cache, Logarithmic Gecko, GC.
``gecko_merge``
    Logarithmic Gecko invalidation records driving buffer flushes and
    cascading run merges (in-memory storage isolates the merge machinery).
``gecko_gc_query``
    GC queries for random victim blocks against a buffer plus multi-level
    runs — the directory-guided probe path a victim lookup takes.
``gecko_recovery``
    Repeated power-failure + GeckoRec cycles against a busy GeckoFTL — the
    whole crash-recovery path: RAM wipe, BID/GMD/run-directory spare scans,
    buffer and BVC reconstruction, bounded dirty-entry scan.
``dftl_cache_miss``
    Random reads against DFTL with a deliberately tiny mapping cache — a
    cache-miss storm hammering the translation-table lookup path.
``submit_batch``
    Large random-read batches against DFTL with a cache covering the whole
    translation table — every operation is a hit, so the measured work is
    the batch-vectorized ``PageMappedFTL.submit`` dispatch machinery itself
    (the counterpart of ``dftl_cache_miss``'s miss storm).
``device_array_fill``
    Sequentially program every physical page of every shard of a
    ``DeviceArray(n=4)`` through the block-run write path — the multi-device
    data plane's raw fill throughput, the N-shard analogue of
    ``device_fill``.
``sweep_cell``
    One end-to-end sweep cell through :func:`repro.engine.executor.
    execute_task` — build, warm up, run, snapshot — the unit of every
    experiment grid.
``latency_sweep``
    The same sweep cell with the ``repro.timing`` virtual clock enabled
    (``slc`` preset) — pins the cost of per-op timing capture and the
    latency-sketch summary on top of the untimed path.
``obs_overhead``
    ``device_fill`` again through a :class:`~repro.flash.device.
    TappedFlashDevice` with the full observability preset on — pins the
    cost of per-op event tracing plus metrics sampling, and the ratio
    against ``device_fill`` is the measured overhead of ``repro.obs``.
``store_append``
    Result-store append throughput: thousands of real ``sweep_cell`` rows
    (one executed task row, cloned with distinct keys) appended into a
    fresh :class:`~repro.engine.store.SqliteResultStore` — the batched
    WAL transaction path that replaced the JSONL sink's per-row ``fsync``
    on the SQLite store.

A record looks like::

    {
      "schema": 1,
      "name": "device_fill",
      "ops": 131072,
      "wall_seconds": 0.412,
      "ops_per_sec": 318135.9,
      "repeats": 3,
      "quick": false,
      "geometry": {"num_blocks": 2048, "pages_per_block": 64, ...},
      "git_sha": "5be780c...",
      "python": "3.11.7",
      "unix_time": 1753776000
    }

``wall_seconds`` is the best of ``repeats`` timed runs (each on a freshly
built simulation, so no run warms another's caches), and ``ops_per_sec`` is
``ops / wall_seconds``. :func:`compare_records` checks a new set of records
against a baseline set and flags any benchmark whose throughput dropped by
more than a tolerance fraction — that is what ``repro bench --compare`` and
the CI perf job run.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import (Any, Callable, Dict, List, Optional, Sequence, Tuple,
                    Union)

#: Bump when the BENCH record layout changes incompatibly.
BENCH_SCHEMA_VERSION = 1

#: File-name prefix of the per-benchmark JSON records.
RECORD_PREFIX = "BENCH_"


@dataclass(frozen=True)
class PreparedBench:
    """One benchmark instance, built and ready to be timed.

    ``thunk`` performs the measured work and returns the number of
    operations it executed; everything slow that should *not* be measured
    (device construction, warm-up fill) happens before the thunk is created.
    """

    thunk: Callable[[], int]
    ops: int
    geometry: Dict[str, Any]


#: A benchmark factory: ``quick`` selects the scaled-down variant.
BenchFactory = Callable[[bool], PreparedBench]


def _geometry_dict(config) -> Dict[str, Any]:
    return {
        "num_blocks": config.num_blocks,
        "pages_per_block": config.pages_per_block,
        "page_size": config.page_size,
        "logical_ratio": config.logical_ratio,
    }


# ----------------------------------------------------------------------
# Benchmark definitions
# ----------------------------------------------------------------------
def _bench_device_fill(quick: bool) -> PreparedBench:
    """Sequentially program every physical page of a raw device.

    Drives the device's canonical batch write hot path —
    ``write_pages_tagged``, the block-run entry the vectorized submit path
    and ``DeviceArray`` fills go through, programming each block as one run
    of bulk column stores. (On the pre-vectorization baseline the canonical
    path was per-page ``write_page_tagged``; the archived
    ``benchmarks/baselines/pre-vectorized/`` record was measured through
    it, and ``submit_batch`` still covers the per-op FTL loop.)
    """
    from array import array

    from ..flash.config import simulation_configuration
    from ..flash.device import FlashDevice

    config = (simulation_configuration(num_blocks=256, pages_per_block=32)
              if quick else
              simulation_configuration(num_blocks=2048, pages_per_block=64))
    device = FlashDevice(config)
    num_blocks = config.num_blocks
    pages_per_block = config.pages_per_block

    def thunk() -> int:
        write_run = device.write_pages_tagged
        logicals = array("q", range(pages_per_block))
        for block in range(num_blocks):
            write_run(block, logicals)
        return num_blocks * pages_per_block

    return PreparedBench(thunk=thunk, ops=config.physical_pages,
                         geometry=_geometry_dict(config))


def _bench_gecko_update(quick: bool) -> PreparedBench:
    """GeckoFTL steady-state uniform random updates on a full device."""
    from ..core.gecko_ftl import GeckoFTL
    from ..flash.config import simulation_configuration
    from ..flash.device import FlashDevice
    from ..ftl.operations import Operation, OpKind
    from ..workloads.base import fill_device

    config = simulation_configuration(num_blocks=128, pages_per_block=16,
                                      page_size=256)
    ftl = GeckoFTL(FlashDevice(config), cache_capacity=256)
    fill_device(ftl, payload_factory=lambda logical: None)
    operations = 5_000 if quick else 20_000
    logical_pages = config.logical_pages
    rng = random.Random(0xBEEF)
    batches = []
    for start in range(0, operations, 2048):
        stop = min(start + 2048, operations)
        batches.append([Operation(OpKind.WRITE, rng.randrange(logical_pages))
                        for _ in range(start, stop)])

    def thunk() -> int:
        submit = ftl.submit
        executed = 0
        for batch in batches:
            executed += submit(batch).submitted
        return executed

    return PreparedBench(thunk=thunk, ops=operations,
                         geometry=_geometry_dict(config))


def _bench_gecko_merge(quick: bool) -> PreparedBench:
    """Invalidation records driving buffer flushes and cascading merges."""
    from ..core.gecko_entry import EntryLayout
    from ..core.logarithmic_gecko import GeckoConfig, LogarithmicGecko

    layout = EntryLayout.recommended(pages_per_block=32, page_size=512)
    gecko = LogarithmicGecko(GeckoConfig(size_ratio=2, layout=layout))
    records = 15_000 if quick else 60_000
    rng = random.Random(0xFEED)
    updates = [(rng.randrange(4096), rng.randrange(32))
               for _ in range(records)]

    def thunk() -> int:
        record_invalid = gecko.record_invalid
        for block_id, offset in updates:
            record_invalid(block_id, offset)
        return len(updates)

    return PreparedBench(
        thunk=thunk, ops=records,
        geometry={"num_blocks": 4096, "pages_per_block": 32,
                  "page_size": 512, "storage": "in_memory"})


def _bench_gecko_gc_query(quick: bool) -> PreparedBench:
    """GC queries for random victim blocks against a multi-level Gecko.

    Setup (not timed) drives enough invalidations through the buffer to
    populate several levels of runs and leaves the buffer partially full, so
    each timed query probes the buffer *and* walks the run directories —
    the path a garbage-collection victim lookup takes.
    """
    from ..core.gecko_entry import EntryLayout
    from ..core.logarithmic_gecko import GeckoConfig, LogarithmicGecko

    layout = EntryLayout.recommended(pages_per_block=32, page_size=512)
    gecko = LogarithmicGecko(GeckoConfig(size_ratio=2, layout=layout))
    rng = random.Random(0xD1CE)
    for _ in range(20_000):
        gecko.record_invalid(rng.randrange(4096), rng.randrange(32))
    queries = 2_000 if quick else 8_000
    victims = [rng.randrange(4096) for _ in range(queries)]

    def thunk() -> int:
        gc_query = gecko.gc_query
        for block_id in victims:
            gc_query(block_id)
        return len(victims)

    return PreparedBench(
        thunk=thunk, ops=queries,
        geometry={"num_blocks": 4096, "pages_per_block": 32,
                  "page_size": 512, "storage": "in_memory",
                  "setup_records": 20_000})


def _bench_gecko_recovery(quick: bool) -> PreparedBench:
    """Power-failure + GeckoRec cycles on a GeckoFTL with real history.

    Setup (not timed) fills the device and applies random updates so the
    recovery has translation versions, multiple Gecko runs, and dirty cache
    entries to rebuild. Each timed cycle wipes the RAM state and runs the
    full recovery; repeated cycles are supported (recovery leaves the FTL
    operational), so one prepared instance yields several measured ops.
    """
    from ..core.gecko_ftl import GeckoFTL
    from ..core.recovery import GeckoRecovery
    from ..flash.config import simulation_configuration
    from ..flash.device import FlashDevice
    from ..ftl.operations import Operation, OpKind
    from ..workloads.base import fill_device

    config = simulation_configuration(num_blocks=128, pages_per_block=16,
                                      page_size=256)
    ftl = GeckoFTL(FlashDevice(config), cache_capacity=256)
    fill_device(ftl, payload_factory=lambda logical: None)
    rng = random.Random(0xFA11)
    updates = [Operation(OpKind.WRITE, rng.randrange(config.logical_pages))
               for _ in range(4000)]
    for start in range(0, len(updates), 2048):
        ftl.submit(updates[start:start + 2048])
    cycles = 8 if quick else 25

    def thunk() -> int:
        for _ in range(cycles):
            recovery = GeckoRecovery(ftl)
            recovery.simulate_power_failure()
            recovery.recover()
        return cycles

    return PreparedBench(
        thunk=thunk, ops=cycles,
        geometry={**_geometry_dict(config), "ftl": "GeckoFTL",
                  "cache_capacity": 256, "setup_updates": 4000})


def _bench_dftl_cache_miss(quick: bool) -> PreparedBench:
    """Random reads through a deliberately tiny DFTL mapping cache."""
    from ..flash.config import simulation_configuration
    from ..flash.device import FlashDevice
    from ..ftl.dftl import DFTL
    from ..ftl.operations import Operation, OpKind
    from ..workloads.base import fill_device

    config = simulation_configuration(num_blocks=128, pages_per_block=16,
                                      page_size=256)
    ftl = DFTL(FlashDevice(config), cache_capacity=64)
    fill_device(ftl, payload_factory=lambda logical: None)
    ftl.flush()
    operations = 2_000 if quick else 8_000
    logical_pages = config.logical_pages
    rng = random.Random(0xCAFE)
    batches = []
    for start in range(0, operations, 2048):
        stop = min(start + 2048, operations)
        batches.append([Operation(OpKind.READ, rng.randrange(logical_pages))
                        for _ in range(start, stop)])

    def thunk() -> int:
        submit = ftl.submit
        executed = 0
        for batch in batches:
            executed += submit(batch).submitted
        return executed

    return PreparedBench(thunk=thunk, ops=operations,
                         geometry=_geometry_dict(config))


def _bench_submit_batch(quick: bool) -> PreparedBench:
    """Read batches through a fully cache-resident DFTL: pure submit path.

    With ``cache_capacity == logical_pages`` every lookup hits, so no
    translation-page IO or GC noise enters the measurement — the throughput
    is the per-op cost of the batched submission machinery (batch walk,
    kind dispatch, mapping-cache probe, device read, accounting).
    """
    from ..flash.config import simulation_configuration
    from ..flash.device import FlashDevice
    from ..ftl.dftl import DFTL
    from ..ftl.operations import Operation, OpKind
    from ..workloads.base import fill_device

    config = simulation_configuration(num_blocks=128, pages_per_block=16,
                                      page_size=256)
    ftl = DFTL(FlashDevice(config), cache_capacity=config.logical_pages)
    fill_device(ftl, payload_factory=lambda logical: None)
    operations = 10_000 if quick else 40_000
    logical_pages = config.logical_pages
    rng = random.Random(0x5EED)
    batches = []
    for start in range(0, operations, 4096):
        stop = min(start + 4096, operations)
        batches.append([Operation(OpKind.READ, rng.randrange(logical_pages))
                        for _ in range(start, stop)])

    def thunk() -> int:
        submit = ftl.submit
        executed = 0
        for batch in batches:
            executed += submit(batch).submitted
        return executed

    return PreparedBench(
        thunk=thunk, ops=operations,
        geometry={**_geometry_dict(config), "ftl": "DFTL",
                  "cache_capacity": config.logical_pages,
                  "batch_ops": 4096})


def _bench_device_array_fill(quick: bool) -> PreparedBench:
    """Program every physical page of every shard of a 4-shard array.

    The N-shard analogue of ``device_fill``: each shard is filled through
    the same block-run write path, so the record pins the multi-device data
    plane's raw fill throughput (and the ratio against ``device_fill``
    exposes any per-shard dispatch overhead).
    """
    from array import array

    from ..flash.config import simulation_configuration
    from ..flash.device_array import DeviceArray

    config = (simulation_configuration(num_blocks=128, pages_per_block=32)
              if quick else
              simulation_configuration(num_blocks=1024, pages_per_block=64))
    shards = 4
    device_array = DeviceArray(config, shards)
    num_blocks = config.num_blocks
    pages_per_block = config.pages_per_block

    def thunk() -> int:
        logicals = array("q", range(pages_per_block))
        for shard in device_array.shards:
            write_run = shard.write_pages_tagged
            for block in range(num_blocks):
                write_run(block, logicals)
        return shards * num_blocks * pages_per_block

    return PreparedBench(
        thunk=thunk, ops=shards * config.physical_pages,
        geometry={**_geometry_dict(config), "array_shards": shards})


def _bench_sweep_cell(quick: bool) -> PreparedBench:
    """One end-to-end sweep cell: build, warm up, run, snapshot."""
    from ..engine.executor import execute_task
    from ..engine.plan import SweepTask, device_dict

    writes = 1_500 if quick else 6_000
    device = device_dict(num_blocks=96, pages_per_block=16, page_size=256)
    task = SweepTask(ftl="GeckoFTL", workload="UniformRandomWrites",
                     device=device, cache_capacity=128, seed=42,
                     write_operations=writes, interval_writes=1_000)

    def thunk() -> int:
        row = execute_task(task)
        return int(row["operations_executed"])

    return PreparedBench(
        thunk=thunk, ops=writes,
        geometry={**device, "ftl": "GeckoFTL", "cache_capacity": 128})


def _bench_latency_sweep(quick: bool) -> PreparedBench:
    """The sweep cell again, with the virtual-time latency model on.

    Identical task to ``sweep_cell`` plus ``timing="slc"``, so the ratio
    between the two records is the measured overhead of per-op timing
    capture (TappedFlashDevice clock tap + sketch recording).
    """
    from ..engine.executor import execute_task
    from ..engine.plan import SweepTask, device_dict

    writes = 1_500 if quick else 6_000
    device = device_dict(num_blocks=96, pages_per_block=16, page_size=256)
    task = SweepTask(ftl="GeckoFTL", workload="UniformRandomWrites",
                     device=device, cache_capacity=128, seed=42,
                     write_operations=writes, interval_writes=1_000,
                     timing="slc")

    def thunk() -> int:
        row = execute_task(task)
        if "p99_us" not in row:
            raise RuntimeError("timed sweep cell produced no latency columns")
        return int(row["operations_executed"])

    return PreparedBench(
        thunk=thunk, ops=writes,
        geometry={**device, "ftl": "GeckoFTL", "cache_capacity": 128,
                  "timing": "slc"})


def _bench_obs_overhead(quick: bool) -> PreparedBench:
    """``device_fill`` through a tapped device with full obs enabled.

    Identical geometry and write loop to ``device_fill``, but every page
    program flows through ``TappedFlashDevice.write_page_tagged`` into the
    observer tap — trace append plus the metrics sampling check — so the
    throughput gap between the two records is the per-op cost of the
    observability layer when *enabled*. (When disabled the tapped device is
    never constructed, so the cost is structurally zero; ``device_fill``
    itself guards that side.)
    """
    from ..flash.address import PhysicalAddress
    from ..flash.config import simulation_configuration
    from ..flash.device import TappedFlashDevice
    from ..obs import Observer, ObsSpec

    config = (simulation_configuration(num_blocks=256, pages_per_block=32)
              if quick else
              simulation_configuration(num_blocks=2048, pages_per_block=64))
    device = TappedFlashDevice(config, obs=Observer(ObsSpec.of("full")))
    num_blocks = config.num_blocks
    pages_per_block = config.pages_per_block

    def thunk() -> int:
        write = device.write_page_tagged
        for block in range(num_blocks):
            for page in range(pages_per_block):
                write(PhysicalAddress(block, page), None)
        return num_blocks * pages_per_block

    return PreparedBench(
        thunk=thunk, ops=config.physical_pages,
        geometry={**_geometry_dict(config), "obs": "full"})


def _bench_store_append(quick: bool) -> PreparedBench:
    """Append real sweep rows into a fresh SQLite result store.

    Setup (not timed) executes one tiny sweep cell and clones its row with
    distinct keys — realistic row width and nesting without paying for
    thousands of simulations. The thunk appends every row into a brand-new
    :class:`~repro.engine.store.SqliteResultStore` and closes it, so the
    measured work is the full persistence path: row splitting, batched
    INSERTs, WAL commits — the path whose batching replaced the JSONL
    per-row ``fsync``.
    """
    import tempfile

    from ..engine.executor import execute_task
    from ..engine.plan import SweepTask, device_dict
    from ..engine.store import SqliteResultStore

    device = device_dict(num_blocks=64, pages_per_block=8, page_size=256)
    task = SweepTask(ftl="GeckoFTL", workload="UniformRandomWrites",
                     device=device, cache_capacity=64, seed=42,
                     write_operations=400, interval_writes=200)
    template = execute_task(task)
    rows = 2_000 if quick else 10_000
    cloned = []
    for index in range(rows):
        row = dict(template)
        row["key"] = f"{index:016x}"
        row["seed"] = index
        cloned.append(row)
    scratch = tempfile.TemporaryDirectory(prefix="bench_store_append_")
    counter = iter(range(1_000_000))

    def thunk() -> int:
        path = Path(scratch.name) / f"rows{next(counter)}.sqlite"
        store = SqliteResultStore(path)
        try:
            for row in cloned:
                store.append(row)
        finally:
            store.close()
        # Keep the scratch directory alive until the last repeat's thunk
        # has run, then let refcounting clean it up with the bench.
        thunk.scratch = scratch
        return rows

    return PreparedBench(
        thunk=thunk, ops=rows,
        geometry={**device, "ftl": "GeckoFTL", "rows": rows,
                  "store": "sqlite"})


def _bench_trace_replay(quick: bool) -> PreparedBench:
    """Stream an MSR-format trace through GeckoFTL's submit path.

    Setup (not timed) synthesises a skewed MSR-Cambridge CSV trace on disk
    and fills the device; the thunk builds a fresh
    :class:`~repro.workloads.ingest.StreamingTraceWorkload` (so every repeat
    re-parses from line 1), wraps it and drives the requested op count
    through ``ftl.submit`` in batches. Measures the whole ingestion path —
    line parsing, byte-offset→LPN windowing, clip policy, batch chunking —
    on top of the simulator's hot loop.
    """
    import tempfile

    from ..core.gecko_ftl import GeckoFTL
    from ..flash.config import simulation_configuration
    from ..flash.device import FlashDevice
    from ..workloads.base import fill_device
    from ..workloads.ingest import StreamingTraceWorkload

    config = simulation_configuration(num_blocks=128, pages_per_block=16,
                                      page_size=256)
    ftl = GeckoFTL(FlashDevice(config), cache_capacity=256)
    fill_device(ftl, payload_factory=lambda logical: None)
    operations = 4_000 if quick else 16_000
    lpn_scale = 4096
    rng = random.Random(0x7ACE)
    scratch = tempfile.TemporaryDirectory(prefix="bench_trace_replay_")
    trace_path = Path(scratch.name) / "trace.csv"
    with trace_path.open("w") as handle:
        span = config.logical_pages * lpn_scale
        for index in range(2_000):
            kind = "Read" if rng.random() < 0.25 else "Write"
            offset = rng.randrange(span)
            size = rng.choice((4096, 8192, 16384))
            handle.write(f"{128166372000000 + index},src,0,{kind},"
                         f"{offset},{size},100\n")
    logical_pages = config.logical_pages

    def thunk() -> int:
        workload = StreamingTraceWorkload(
            trace_path, logical_pages, format="msr", lpn_scale=lpn_scale,
            oor="clip", wrap=True)
        submit = ftl.submit
        executed = 0
        for batch in workload.batches(operations, 512):
            executed += submit(batch).submitted
        # Keep the scratch directory alive until the last repeat's thunk
        # has run, then let refcounting clean it up with the bench.
        thunk.scratch = scratch
        return executed

    return PreparedBench(
        thunk=thunk, ops=operations,
        geometry={**_geometry_dict(config), "format": "msr",
                  "lpn_scale": lpn_scale, "trace_lines": 2_000})


#: The fixed set of named microbenchmarks, in reporting order.
BENCH_CASES: Dict[str, BenchFactory] = {
    "device_fill": _bench_device_fill,
    "gecko_update": _bench_gecko_update,
    "gecko_merge": _bench_gecko_merge,
    "gecko_gc_query": _bench_gecko_gc_query,
    "gecko_recovery": _bench_gecko_recovery,
    "dftl_cache_miss": _bench_dftl_cache_miss,
    "submit_batch": _bench_submit_batch,
    "device_array_fill": _bench_device_array_fill,
    "sweep_cell": _bench_sweep_cell,
    "latency_sweep": _bench_latency_sweep,
    "obs_overhead": _bench_obs_overhead,
    "store_append": _bench_store_append,
    "trace_replay": _bench_trace_replay,
}


def bench_names() -> List[str]:
    """Names of all registered microbenchmarks, in reporting order."""
    return list(BENCH_CASES)


# ----------------------------------------------------------------------
# Running
# ----------------------------------------------------------------------
def _git_sha() -> Optional[str]:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              cwd=Path(__file__).resolve().parent)
    except (OSError, subprocess.SubprocessError):
        return None
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else None


def run_benchmark(name: str, quick: bool = False,
                  repeats: int = 3) -> Dict[str, Any]:
    """Run one named benchmark and return its BENCH record.

    Each repeat builds a fresh simulation (setup excluded from timing) and
    times one execution of the work; the record keeps the best wall time,
    which is the standard way to suppress scheduler noise in
    throughput microbenchmarks.
    """
    if name not in BENCH_CASES:
        raise KeyError(f"unknown benchmark {name!r}; "
                       f"known: {', '.join(BENCH_CASES)}")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    factory = BENCH_CASES[name]
    best = None
    ops = 0
    geometry: Dict[str, Any] = {}
    for _ in range(repeats):
        prepared = factory(quick)
        started = time.perf_counter()
        executed = prepared.thunk()
        elapsed = time.perf_counter() - started
        if executed != prepared.ops:
            raise RuntimeError(
                f"benchmark {name!r} executed {executed} ops "
                f"but declared {prepared.ops}")
        ops = prepared.ops
        geometry = prepared.geometry
        if best is None or elapsed < best:
            best = elapsed
    assert best is not None
    return {
        "schema": BENCH_SCHEMA_VERSION,
        "name": name,
        "ops": ops,
        "wall_seconds": round(best, 6),
        "ops_per_sec": round(ops / best, 3) if best > 0 else 0.0,
        "repeats": repeats,
        "quick": quick,
        "geometry": geometry,
        "git_sha": _git_sha(),
        "python": ".".join(str(part) for part in sys.version_info[:3]),
        "unix_time": int(time.time()),
    }


def record_path(out_dir: Union[str, Path], name: str) -> Path:
    """Path of the ``BENCH_<name>.json`` record inside ``out_dir``."""
    return Path(out_dir) / f"{RECORD_PREFIX}{name}.json"


def write_record(record: Dict[str, Any], out_dir: Union[str, Path]) -> Path:
    """Write one record to ``<out_dir>/BENCH_<name>.json`` and return the path."""
    path = record_path(out_dir, record["name"])
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def run_benchmarks(names: Optional[Sequence[str]] = None,
                   quick: bool = False, repeats: int = 3,
                   out_dir: Union[str, Path, None] = None,
                   log: Optional[Callable[[str], None]] = None
                   ) -> List[Dict[str, Any]]:
    """Run ``names`` (default: all benchmarks), optionally writing records."""
    selected = list(names) if names else bench_names()
    unknown = [name for name in selected if name not in BENCH_CASES]
    if unknown:
        raise KeyError(f"unknown benchmark(s): {', '.join(unknown)}; "
                       f"known: {', '.join(BENCH_CASES)}")
    records = []
    for name in selected:
        if log is not None:
            log(f"benchmark {name} "
                f"({'quick' if quick else 'full'}, {repeats} repeat(s)) ...")
        record = run_benchmark(name, quick=quick, repeats=repeats)
        if out_dir is not None:
            write_record(record, out_dir)
        if log is not None:
            log(f"  {record['ops']} ops in {record['wall_seconds']:.3f}s "
                f"= {record['ops_per_sec']:,.0f} ops/s")
        records.append(record)
    return records


# ----------------------------------------------------------------------
# Comparing
# ----------------------------------------------------------------------
def load_records(path: Union[str, Path]) -> Dict[str, Dict[str, Any]]:
    """Load BENCH records from a file or a directory of ``BENCH_*.json``.

    Returns ``{benchmark_name: record}``. Rejects records from a future
    schema version instead of silently misreading them.
    """
    target = Path(path)
    if target.is_dir():
        files = sorted(target.glob(f"{RECORD_PREFIX}*.json"))
        if not files:
            raise FileNotFoundError(
                f"no {RECORD_PREFIX}*.json records in {target}")
    elif target.exists():
        files = [target]
    else:
        raise FileNotFoundError(f"{target} does not exist")
    records: Dict[str, Dict[str, Any]] = {}
    for file in files:
        with open(file, "r", encoding="utf-8") as handle:
            record = json.load(handle)
        if not isinstance(record, dict) or "name" not in record:
            raise ValueError(f"{file}: not a BENCH record (no 'name' field)")
        schema = record.get("schema", BENCH_SCHEMA_VERSION)
        if schema > BENCH_SCHEMA_VERSION:
            raise ValueError(
                f"{file}: record has schema version {schema} but this "
                f"build reads at most {BENCH_SCHEMA_VERSION}")
        records[record["name"]] = record
    return records


def compare_records(baseline: Dict[str, Dict[str, Any]],
                    current: Dict[str, Dict[str, Any]],
                    tolerance: float = 0.30
                    ) -> Tuple[List[Dict[str, Any]], List[str]]:
    """Compare two record sets; returns (report rows, regressed names).

    A benchmark regresses when its current throughput falls below
    ``baseline * (1 - tolerance)``. Benchmarks present on only one side are
    reported (status ``baseline-only`` / ``new``) but never counted as
    regressions — a new benchmark must not fail the comparison that
    introduces it. Comparing a ``--quick`` record against a full one is an
    error: the two run different op counts and geometries.
    """
    if not 0.0 <= tolerance < 1.0:
        raise ValueError("tolerance must be in [0, 1)")
    rows: List[Dict[str, Any]] = []
    regressions: List[str] = []
    for name in sorted(set(baseline) | set(current)):
        base = baseline.get(name)
        new = current.get(name)
        if base is not None and new is not None \
                and bool(base.get("quick")) != bool(new.get("quick")):
            raise ValueError(
                f"benchmark {name!r}: cannot compare a quick record against "
                f"a full one (baseline quick={bool(base.get('quick'))}, "
                f"current quick={bool(new.get('quick'))})")
        if base is None or new is None:
            rows.append({"benchmark": name,
                         "baseline_ops_s": base and base["ops_per_sec"],
                         "current_ops_s": new and new["ops_per_sec"],
                         "ratio": None,
                         "status": "new" if base is None else "baseline-only"})
            continue
        base_ops = float(base["ops_per_sec"])
        new_ops = float(new["ops_per_sec"])
        ratio = new_ops / base_ops if base_ops > 0 else float("inf")
        regressed = ratio < (1.0 - tolerance)
        if regressed:
            regressions.append(name)
        rows.append({"benchmark": name,
                     "baseline_ops_s": base_ops,
                     "current_ops_s": new_ops,
                     "ratio": round(ratio, 4),
                     "status": "REGRESSION" if regressed else "ok"})
    return rows, regressions


def speedup_summary(baseline: Dict[str, Dict[str, Any]],
                    current: Dict[str, Dict[str, Any]]) -> Dict[str, float]:
    """``{name: current/baseline throughput ratio}`` for shared benchmarks."""
    shared = set(baseline) & set(current)
    return {name: round(float(current[name]["ops_per_sec"])
                        / float(baseline[name]["ops_per_sec"]), 4)
            for name in sorted(shared)
            if float(baseline[name]["ops_per_sec"]) > 0}
