"""Multi-device data plane: N LPN-range-sharded flash devices as one unit.

The paper's experiments run one simulated SSD at a time; real deployments
stripe a host's logical space over several independent devices, each with
its own FTL, garbage collection, and IO ledger. :class:`DeviceArray` models
the data plane of that arrangement — N independent :class:`FlashDevice`
shards, each owning a contiguous LPN range — and
:class:`DeviceArraySession` puts a full per-shard FTL stack behind the
regular :class:`~repro.api.session.SimulationSession` front door:

* **Spec string**: ``array(n=4)`` (optionally with per-shard geometry
  overrides, e.g. ``array(n=4, num_blocks=96, pages_per_block=64)``). The
  string is accepted everywhere a device geometry is:
  ``SimulationSession("GeckoFTL", device="array(n=2)")``, a
  :class:`~repro.engine.plan.SweepPlan`'s ``devices`` axis, and sweep task
  dicts (where it normalizes to a geometry dict carrying an extra
  ``array_shards`` key).
* **Routing**: logical page ``L`` belongs to shard ``L // pages_per_shard``
  with shard-local address ``L % pages_per_shard`` — static range sharding,
  so a shard's trace is exactly the subsequence of host operations landing
  in its range.
* **Accounting**: every shard keeps its own :class:`IOStats`; the session
  reports the element-wise merge (:meth:`IOStats.merged`) plus per-shard
  breakdowns, so the merged counters match N independent sessions run on
  the same sharded trace *exactly*.

Crash/recovery scenarios and device timing models remain single-device
features; the array session rejects them eagerly with a clear error.
"""

from __future__ import annotations

import ast
from typing import Any, Callable, Dict, List, Optional

from .config import DeviceConfig, simulation_configuration
from .device import FlashDevice
from .stats import IOStats
from ..ftl.base import PageMappedFTL
from ..ftl.operations import BatchResult, Operation, OpKind

#: Geometry fields an array spec may override, mirrored from
#: :mod:`repro.engine.plan` (kept literal here so the flash layer does not
#: import the engine).
_SHARD_FIELDS = ("num_blocks", "pages_per_block", "page_size",
                 "logical_ratio")


def parse_array_spec(text: str) -> Dict[str, Any]:
    """Parse ``array(n=4, ...)`` into a device dict with ``array_shards``.

    The result carries the per-shard geometry fields (defaults from the
    scaled-down simulation geometry) plus ``array_shards``; it is the
    serializable form sweep tasks store.
    """
    spec = text.strip()
    if not (spec.startswith("array(") and spec.endswith(")")):
        raise ValueError(f"not an array spec: {text!r}; expected "
                         "'array(n=<shards>, ...)'")
    body = spec[len("array("):-1].strip()
    values: Dict[str, Any] = {}
    if body:
        for part in body.split(","):
            name, equals, value = part.partition("=")
            name = name.strip()
            if not equals or not name:
                raise ValueError(f"malformed array spec argument {part!r} "
                                 f"in {text!r}")
            try:
                values[name] = ast.literal_eval(value.strip())
            except (ValueError, SyntaxError) as error:
                raise ValueError(f"cannot parse array spec argument "
                                 f"{part.strip()!r} in {text!r}") from error
    shards = values.pop("n", values.pop("shards", None))
    if shards is None:
        raise ValueError(f"array spec {text!r} needs n=<shards>")
    shards = int(shards)
    if shards < 1:
        raise ValueError("array spec needs n >= 1")
    unknown = set(values) - set(_SHARD_FIELDS)
    if unknown:
        raise ValueError(f"unknown array spec field(s) {sorted(unknown)}; "
                         f"supported: n, {list(_SHARD_FIELDS)}")
    base = simulation_configuration()
    device = {name: values.get(name, getattr(base, name))
              for name in _SHARD_FIELDS}
    device["array_shards"] = shards
    return device


def format_array_spec(device: Dict[str, Any]) -> str:
    """Render a device dict carrying ``array_shards`` back to spec form."""
    shards = int(device["array_shards"])
    fields = ", ".join(f"{name}={device[name]}" for name in _SHARD_FIELDS
                       if name in device)
    return f"array(n={shards}{', ' + fields if fields else ''})"


class DeviceArray:
    """N independent flash devices striped over one logical space.

    Each shard is a full :class:`FlashDevice` with its own geometry (all
    shards share one :class:`DeviceConfig`), its own blocks, and its own
    :class:`IOStats` ledger. The array only owns the devices and the LPN
    routing arithmetic; FTL stacks on top belong to
    :class:`DeviceArraySession`.
    """

    def __init__(self, config: Optional[DeviceConfig] = None,
                 shards: int = 2) -> None:
        if shards < 1:
            raise ValueError("a device array needs at least one shard")
        self.config = config if config is not None \
            else simulation_configuration()
        self.shards: List[FlashDevice] = [FlashDevice(self.config)
                                          for _ in range(shards)]
        #: Contiguous LPN range size owned by each shard.
        self.pages_per_shard = self.config.logical_pages
        #: Total logical pages exposed by the array.
        self.logical_pages = self.pages_per_shard * shards

    def __len__(self) -> int:
        return len(self.shards)

    def shard_of(self, logical: int) -> int:
        """Index of the shard owning logical page ``logical``."""
        if not 0 <= logical < self.logical_pages:
            raise ValueError(f"logical page {logical} outside the array's "
                             f"space of {self.logical_pages} pages")
        return logical // self.pages_per_shard

    def local_address(self, logical: int) -> int:
        """Shard-local logical page of global page ``logical``."""
        return logical % self.pages_per_shard

    @property
    def stats(self) -> IOStats:
        """Merged IO counters across all shards (a fresh copy)."""
        return IOStats.merged(shard.stats for shard in self.shards)

    def shard_stats(self) -> List[IOStats]:
        """Independent copies of each shard's counters, in shard order."""
        return [shard.stats.snapshot() for shard in self.shards]

    def reset_stats(self) -> None:
        for shard in self.shards:
            shard.stats.reset()


class _ArrayConfigView:
    """Config facade: per-shard geometry with the array's total address space.

    Consumers read ``config.logical_pages`` to size workloads (must be the
    whole array) and ``config.delta`` / latency fields for reporting (ratios,
    identical on every shard); everything else passes through to the shard
    config.
    """

    def __init__(self, shard_config: DeviceConfig, shards: int) -> None:
        self._shard_config = shard_config
        self.array_shards = shards
        self.logical_pages = shard_config.logical_pages * shards

    def __getattr__(self, name: str) -> Any:
        return getattr(self._shard_config, name)

    def __repr__(self) -> str:
        return (f"_ArrayConfigView(shards={self.array_shards}, "
                f"shard={self._shard_config!r})")


def _normalize_array_device(device: Any) -> Dict[str, Any]:
    """Turn any accepted array description into the serializable dict form."""
    if isinstance(device, str):
        return parse_array_spec(device)
    if isinstance(device, dict):
        if "array_shards" not in device:
            raise ValueError("an array device dict needs 'array_shards'")
        base = simulation_configuration()
        values = {name: device.get(name, getattr(base, name))
                  for name in _SHARD_FIELDS}
        unknown = set(device) - set(_SHARD_FIELDS) - {"array_shards"}
        if unknown:
            raise ValueError(f"unknown array device field(s) "
                             f"{sorted(unknown)}")
        values["array_shards"] = int(device["array_shards"])
        return values
    raise TypeError(f"cannot interpret {device!r} as a device array; pass "
                    "an 'array(n=...)' spec string or a device dict with "
                    "'array_shards'")


# Imported late in the module so the session subclass can see it; the api
# layer itself never imports this module at import time (only lazily from
# SimulationSession.__new__ / from_task), so there is no cycle.
from ..api.session import (SessionSnapshot, SimulationSession,  # noqa: E402
                           write_amplification_breakdown)
from ..workloads.base import (IntervalMeasurement, RunResult,  # noqa: E402
                              Workload, fill_device)


class DeviceArraySession(SimulationSession):
    """A :class:`SimulationSession` whose data plane is a :class:`DeviceArray`.

    One full FTL stack (device, block manager, validity store, cache, GC)
    runs per shard; host operations are routed by LPN range and reporting
    merges the shard ledgers. Construct it directly, or let the front door
    route: ``SimulationSession("GeckoFTL", device="array(n=4)")`` returns an
    instance of this class.

    Single-device features are rejected eagerly: ``timing=`` and ``obs=``
    raise at construction (``obs=False`` means off, as on a single-device
    session), :meth:`crash`/:meth:`recover` raise when called.
    """

    def __init__(self,
                 ftl: Any = "GeckoFTL",
                 device: Any = None,
                 *,
                 interval_writes: int = 10_000,
                 ftl_kwargs: Optional[Dict[str, Any]] = None,
                 timing: Any = None,
                 obs: Any = None) -> None:
        from ..api.registry import FTLSpec
        if timing is not None:
            raise ValueError("device timing models are a single-device "
                             "feature; a DeviceArraySession does not accept "
                             "timing=")
        if obs is not None and obs is not False:
            raise ValueError("observability capture is a single-device "
                             "feature; a DeviceArraySession does not accept "
                             "obs=")
        if isinstance(ftl, PageMappedFTL):
            raise TypeError("a device array builds one FTL per shard from a "
                            "spec; pass a spec string, not a built FTL")
        if isinstance(device, DeviceArray):
            self.array = device
            shards = len(device.shards)
        else:
            described = _normalize_array_device(device)
            shards = described.pop("array_shards")
            self.array = DeviceArray(
                simulation_configuration(**described), shards)
        self.spec = FTLSpec.of(ftl)
        self.interval_writes = interval_writes
        #: One fully independent session per shard, in LPN-range order.
        self.sessions: List[SimulationSession] = [
            SimulationSession(str(self.spec), device=shard,
                              interval_writes=interval_writes,
                              ftl_kwargs=ftl_kwargs)
            for shard in self.array.shards]
        self.device = self.array
        self.config = _ArrayConfigView(self.array.config, shards)
        self.timing = None
        self.obs = None
        self.recovery_virtual_us = None
        self._recovery = None
        self._crashed = False
        self._closed = False

    @classmethod
    def from_task(cls, task) -> "DeviceArraySession":
        """Build the array session a sweep task with ``array_shards`` needs."""
        if getattr(task, "crash", None) is not None:
            raise ValueError("crash scenarios are a single-device feature; "
                             "remove the crash plan or the array device")
        return cls(task.ftl, device=dict(task.device),
                   interval_writes=task.interval_writes,
                   ftl_kwargs={"cache_capacity": task.cache_capacity},
                   timing=getattr(task, "timing", None))

    # ------------------------------------------------------------------
    # Shard access
    # ------------------------------------------------------------------
    @property
    def ftl(self):
        """Shard 0's FTL (all shards are configured identically)."""
        return self.sessions[0].ftl

    @ftl.setter
    def ftl(self, value) -> None:  # pragma: no cover - defensive
        raise AttributeError("a device array's FTLs are per shard; "
                             "use session.sessions[i].ftl")

    def shard_for(self, logical: int) -> SimulationSession:
        """The shard session owning global logical page ``logical``."""
        return self.sessions[self.array.shard_of(logical)]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def warmup(self, fraction: float = 1.0,
               payload_factory: Optional[Callable[[int], Any]] = None,
               reset_stats: bool = True) -> int:
        """Fill every shard's logical space (the factory sees local LPNs)."""
        self._check_not_crashed()
        pages = 0
        for session in self.sessions:
            pages += fill_device(session.ftl, fraction=fraction,
                                 payload_factory=payload_factory)
        if reset_stats:
            self.array.reset_stats()
        return pages

    def run(self, workload: Workload, operation_count: int,
            on_interval: Optional[Callable[..., None]] = None) -> RunResult:
        """Drive all shards with ``operation_count`` ops of ``workload``.

        Operations are routed by LPN range; each shard receives exactly the
        subsequence of the stream that lands in its range, in stream order,
        so per-shard behaviour (and hence the merged ledger) matches N
        independent sessions replaying the same sharded trace. Interval
        measurements are cut at the same global host-write counts as the
        single-device runner, over the merged counters.
        """
        self._check_not_crashed()
        pages_per_shard = self.array.pages_per_shard
        sessions = self.sessions
        run_start = self.stats
        interval_start = run_start
        intervals: List[IntervalMeasurement] = []
        executed = 0
        writes_in_interval = 0
        interval_writes = self.interval_writes
        write_kind = OpKind.WRITE
        new_operation = object.__new__
        operation_cls = Operation
        pending: List[List[Operation]] = [[] for _ in sessions]

        def flush() -> int:
            total = 0
            for index, batch in enumerate(pending):
                if batch:
                    total += sessions[index].ftl.submit(batch).submitted
                    pending[index] = []
            return total

        batches = getattr(workload, "batches", None)
        chunks = (batches(operation_count, 4096) if batches is not None
                  else Workload.batches(workload, operation_count, 4096))
        for chunk in chunks:
            for operation in chunk:
                logical = operation.logical
                shard = logical // pages_per_shard
                local = new_operation(operation_cls)
                local.kind = operation.kind
                local.logical = logical - shard * pages_per_shard
                local.payload = operation.payload
                local.tenant = operation.tenant
                pending[shard].append(local)
                if operation.kind is write_kind:
                    writes_in_interval += 1
                    if writes_in_interval >= interval_writes:
                        executed += flush()
                        measurement = IntervalMeasurement(
                            interval_index=len(intervals),
                            host_writes=writes_in_interval,
                            stats=self.stats.diff(interval_start))
                        intervals.append(measurement)
                        if on_interval is not None:
                            on_interval(measurement)
                        interval_start = self.stats
                        writes_in_interval = 0
        executed += flush()
        if writes_in_interval:
            intervals.append(IntervalMeasurement(
                interval_index=len(intervals),
                host_writes=writes_in_interval,
                stats=self.stats.diff(interval_start)))
        total = self.stats.diff(run_start)
        return RunResult(operations_executed=executed,
                         host_writes=total.host_writes,
                         host_reads=total.host_reads,
                         intervals=intervals,
                         final_stats=total)

    def snapshot(self) -> SessionSnapshot:
        """Merged measurements plus per-shard breakdowns."""
        stats = self.stats
        delta = self.config.delta
        description = dict(self.sessions[0].ftl.describe())
        description["array_shards"] = len(self.sessions)
        ram_breakdown: Dict[str, int] = {}
        shard_rows: List[Dict[str, Any]] = []
        for index, session in enumerate(self.sessions):
            for key, value in session.ftl.ram_breakdown().items():
                ram_breakdown[key] = ram_breakdown.get(key, 0) + value
            shard_stats = session.stats
            shard_rows.append({
                "shard": index,
                "host_writes": shard_stats.host_writes,
                "host_reads": shard_stats.host_reads,
                "page_reads": shard_stats.page_reads,
                "page_writes": shard_stats.page_writes,
                "block_erases": shard_stats.block_erases,
                "wa_total": round(
                    shard_stats.write_amplification(delta), 6),
            })
        return SessionSnapshot(
            ftl_description=description,
            stats=stats,
            write_amplification=stats.write_amplification(delta),
            wa_breakdown=write_amplification_breakdown(stats, delta),
            ram_breakdown=dict(sorted(ram_breakdown.items())),
            latency=None,
            shards=shard_rows)

    def ram_breakdown(self) -> Dict[str, int]:
        merged: Dict[str, int] = {}
        for session in self.sessions:
            for key, value in session.ftl.ram_breakdown().items():
                merged[key] = merged.get(key, 0) + value
        return dict(sorted(merged.items()))

    def close(self) -> None:
        if not self._closed and not self._crashed:
            self._closed = True
            for session in self.sessions:
                session.close()

    # ------------------------------------------------------------------
    # Host IO (routed by LPN range)
    # ------------------------------------------------------------------
    def submit(self, batch, collect_payloads: bool = False) -> BatchResult:
        """Split a batch across the shards and merge the results."""
        self._check_not_crashed()
        pages_per_shard = self.array.pages_per_shard
        per_shard: List[List[Operation]] = [[] for _ in self.sessions]
        origin: List[List[int]] = [[] for _ in self.sessions]
        new_operation = object.__new__
        operation_cls = Operation
        for position, operation in enumerate(batch):
            shard = operation.logical // pages_per_shard
            local = new_operation(operation_cls)
            local.kind = operation.kind
            local.logical = operation.logical - shard * pages_per_shard
            local.payload = operation.payload
            local.tenant = operation.tenant
            per_shard[shard].append(local)
            origin[shard].append(position)
        before = self.stats
        submitted = writes = reads = trims = 0
        payloads: Optional[List[Any]] = (
            [None] * sum(len(ops) for ops in per_shard)
            if collect_payloads else None)
        for index, operations in enumerate(per_shard):
            if not operations:
                continue
            result = self.sessions[index].ftl.submit(
                operations, collect_payloads=collect_payloads)
            submitted += result.submitted
            writes += result.host_writes
            reads += result.host_reads
            trims += result.host_trims
            if collect_payloads and result.payloads is not None:
                for position, payload in zip(origin[index], result.payloads):
                    payloads[position] = payload
        return BatchResult(submitted=submitted, host_writes=writes,
                           host_reads=reads, host_trims=trims,
                           stats_delta=self.stats.diff(before),
                           payloads=payloads)

    def write(self, logical: int, data: Any = None):
        self._check_not_crashed()
        return self.shard_for(logical).ftl.write(
            self.array.local_address(logical), data)

    def read(self, logical: int) -> Any:
        self._check_not_crashed()
        return self.shard_for(logical).ftl.read(
            self.array.local_address(logical))

    def trim(self, logical: int) -> None:
        self._check_not_crashed()
        self.shard_for(logical).ftl.trim(self.array.local_address(logical))

    # ------------------------------------------------------------------
    # Single-device features
    # ------------------------------------------------------------------
    def crash(self) -> None:
        raise NotImplementedError(
            "crash/recovery is a single-device feature; run it on a "
            "SimulationSession (or one shard's session)")

    def recover(self):
        raise NotImplementedError(
            "crash/recovery is a single-device feature; run it on a "
            "SimulationSession (or one shard's session)")
