"""repro — a reproduction of GeckoFTL (SIGMOD 2016).

The package provides:

* :mod:`repro.api` — the public experiment API: the FTL registry
  (:func:`register_ftl`, :class:`FTLSpec`) and :class:`SimulationSession`,
  the single front door that owns device, FTL and runner;
* :mod:`repro.flash` — a simulated NAND flash device with IO accounting;
* :mod:`repro.ftl` — the shared page-mapped FTL machinery, the batched
  submission queue (:meth:`PageMappedFTL.submit`), and the competitor FTLs
  (DFTL, LazyFTL, µ-FTL, IB-FTL);
* :mod:`repro.core` — Logarithmic Gecko and GeckoFTL, the paper's contribution;
* :mod:`repro.workloads` — workload generators, the workload registry
  (:func:`register_workload`, :class:`WorkloadSpec`) and trace replay;
* :mod:`repro.engine` — declarative experiment sweeps: :class:`SweepPlan`
  grids, :class:`SweepExecutor` execution through pluggable backends
  (serial / process pool / key-ranged shards), and resumable
  :class:`ResultStore` persistence (JSONL :class:`ResultSink` or the
  queryable SQLite :class:`SqliteResultStore`);
* :mod:`repro.analysis` — the paper's analytical RAM, recovery-time and IO
  cost models (Figures 1 and 13, Table 1);
* :mod:`repro.timing` — the device timing model: per-op latency presets,
  channel/plane parallelism, a virtual clock with head-of-line blocking,
  and constant-memory p50/p99/p999 tail-latency sketches;
* :mod:`repro.obs` — opt-in observability: a bounded event trace, a
  windowed metrics timeline sampled every N host ops, and sweep progress
  telemetry — all structurally absent when disabled;
* :mod:`repro.bench` — the experiment harness used by the benchmark suite
  (now a thin layer over :mod:`repro.api`).

Quickstart::

    from repro import SimulationSession, UniformRandomWrites

    with SimulationSession("GeckoFTL(cache_capacity=2048)") as session:
        session.write(42, data="hello")
        assert session.read(42) == "hello"

        session.warmup()          # fill the logical space, reset the stats
        result = session.run(
            UniformRandomWrites(session.config.logical_pages, seed=7), 20_000)
        print(session.snapshot().row())   # WA breakdown + RAM footprint

        session.crash()           # pull the plug (GeckoFTL survives it)
        report = session.recover()
"""

from .api import (
    FTLSpec,
    SessionSnapshot,
    SimulationSession,
    ftl_names,
    register_ftl,
)
from .engine import (
    CrashPlan,
    ExecutionBackend,
    ResultSink,
    ResultStore,
    SqliteResultStore,
    SweepExecutor,
    SweepPlan,
    SweepTask,
    open_store,
    register_backend,
    run_sweep,
)
from .core import (
    EntryLayout,
    GeckoConfig,
    GeckoFTL,
    GeckoRecovery,
    InMemoryGeckoStorage,
    LogarithmicGecko,
    RecoveryReport,
)
from .flash import (
    DeviceConfig,
    FlashDevice,
    IOPurpose,
    IOStats,
    LatencyConfig,
    PhysicalAddress,
    TappedFlashDevice,
    paper_configuration,
    simulation_configuration,
)
# Imported after .api and .flash: the device-array module builds on both
# (its session subclass sits on the regular front door).
from .flash.device_array import DeviceArray, DeviceArraySession
from .ftl import DFTL, IBFTL, LazyFTL, MuFTL, PageMappedFTL, VictimPolicy
from .ftl.operations import BatchResult, Operation, OpKind
from .obs import (
    EventTrace,
    MetricsRecorder,
    ObsSpec,
    Observer,
    SweepProgress,
)
from .timing import (
    DEVICE_PRESETS,
    LatencySketch,
    TimingModel,
    TimingSpec,
)
from .workloads import (
    HotColdWrites,
    OpStream,
    StreamingTraceWorkload,
    TenantMix,
    TraceFormatError,
    WorkloadSpec,
    MixedReadWrite,
    SequentialWrites,
    TraceWorkload,
    UniformRandomWrites,
    Workload,
    WorkloadRunner,
    ZipfianWrites,
    fill_device,
    register_workload,
    workload_names,
)

__version__ = "1.5.0"

__all__ = [
    "BatchResult",
    "CrashPlan",
    "DEVICE_PRESETS",
    "DFTL",
    "DeviceArray",
    "DeviceArraySession",
    "DeviceConfig",
    "EntryLayout",
    "EventTrace",
    "ExecutionBackend",
    "FTLSpec",
    "FlashDevice",
    "GeckoConfig",
    "GeckoFTL",
    "GeckoRecovery",
    "HotColdWrites",
    "IBFTL",
    "IOPurpose",
    "IOStats",
    "InMemoryGeckoStorage",
    "LatencyConfig",
    "LatencySketch",
    "LazyFTL",
    "LogarithmicGecko",
    "MetricsRecorder",
    "MixedReadWrite",
    "MuFTL",
    "ObsSpec",
    "Observer",
    "OpKind",
    "OpStream",
    "Operation",
    "PageMappedFTL",
    "PhysicalAddress",
    "RecoveryReport",
    "ResultSink",
    "ResultStore",
    "SequentialWrites",
    "SessionSnapshot",
    "SimulationSession",
    "SqliteResultStore",
    "StreamingTraceWorkload",
    "SweepExecutor",
    "SweepPlan",
    "SweepProgress",
    "SweepTask",
    "TappedFlashDevice",
    "TenantMix",
    "TimingModel",
    "TimingSpec",
    "TraceFormatError",
    "TraceWorkload",
    "UniformRandomWrites",
    "VictimPolicy",
    "Workload",
    "WorkloadRunner",
    "WorkloadSpec",
    "ZipfianWrites",
    "fill_device",
    "ftl_names",
    "open_store",
    "paper_configuration",
    "register_backend",
    "register_ftl",
    "register_workload",
    "run_sweep",
    "simulation_configuration",
    "workload_names",
    "__version__",
]
