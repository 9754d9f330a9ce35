"""The virtual clock: an analytic queue model over the tagged IO stream.

:class:`TimingModel` turns the purpose-tagged flash operations the device
already emits into per-request latencies without discrete-event simulation
(cf. wiscsee's simpy-based ``dftldes``): every operation is sequenced onto
one of ``channels x planes_per_channel`` independently busy *units* (round-
robin striped by physical block id), charged its per-kind service time, and
folded into a global virtual clock in microseconds.

Foreground vs background
------------------------
Operations recorded while a host request is open are split by purpose:

* **Foreground** (``USER``, ``TRANSLATION``, ``RECOVERY``, ``OTHER``) ops sit
  on the request's dependency chain: the request cannot complete before they
  do, so each one advances the request cursor (start = max(cursor, unit
  busy-until)).
* **Background** (``GC``, ``WEAR``, ``VALIDITY``) ops are controller
  housekeeping triggered by the request but not awaited by it: they dispatch
  at the current cursor and occupy their unit, but do not advance the
  cursor. They cost host latency only through *head-of-line blocking* — a
  later foreground op landing on a unit still busy with a GC erase inherits
  its remaining time. This is exactly the mechanism behind GC-induced tail
  spikes, and what GeckoFTL's incremental merges are designed to flatten.

Operations recorded with no request open (warm-up fill, shutdown flush,
recovery scans) sequence as foreground work and advance the clock directly,
so the clock never runs backwards across lifecycle phases.

Requests are closed-loop: a request arrives when the previous one completes
(arrival = current virtual time), so throughput is requests per virtual
second at queue depth 1 — the same methodology as the paper's latency cost
model, extended with parallelism and contention.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Union

from ..flash.stats import IOKind, IOPurpose
from .sketch import LatencySketch
from .spec import TimingSpec

#: Purposes modelled as asynchronous controller housekeeping (see module
#: docstring); every other purpose is on the host request's dependency chain.
BACKGROUND_PURPOSES = frozenset((IOPurpose.GC, IOPurpose.WEAR,
                                 IOPurpose.VALIDITY))


class TimingModel:
    """Sequences tagged flash ops onto device units under a virtual clock."""

    __slots__ = ("spec", "units", "now", "sketch", "kind_sketches",
                 "requests", "window_sketch", "current_tenant",
                 "tenant_sketches", "_busy", "_service", "_cursor",
                 "_arrival", "_depth", "_kind", "_capture_start",
                 "_background")

    def __init__(self, spec: Union[TimingSpec, str, Dict[str, Any], None]
                 = None) -> None:
        self.spec = TimingSpec.of(spec) if spec is not None else TimingSpec()
        self.units = self.spec.units
        #: Per-kind service time, bus transfer included where it applies.
        self._service: Dict[IOKind, float] = {
            IOKind.PAGE_READ:
                self.spec.page_read_us + self.spec.bus_transfer_us,
            IOKind.PAGE_WRITE:
                self.spec.page_write_us + self.spec.bus_transfer_us,
            IOKind.BLOCK_ERASE: self.spec.block_erase_us,
            IOKind.SPARE_READ: self.spec.spare_read_us,
            IOKind.SPARE_WRITE: self.spec.spare_write_us,
        }
        self._background = BACKGROUND_PURPOSES
        #: Completion time of each unit's last dispatched operation (us).
        self._busy = [0.0] * self.units
        #: Virtual time: completion of the last closed request / bare op.
        self.now = 0.0
        self._cursor = 0.0
        self._arrival = 0.0
        self._depth = 0
        self._kind: Optional[str] = None
        self.requests = 0
        self.sketch = LatencySketch()
        self.kind_sketches: Dict[str, LatencySketch] = {}
        #: Optional secondary sketch the metrics recorder installs to report
        #: per-window percentiles: every closed request is recorded into it
        #: *in addition to* the cumulative sketch, and the recorder resets it
        #: at each window boundary. ``None`` (the default) keeps the request
        #: path free of any window bookkeeping.
        self.window_sketch: Optional[LatencySketch] = None
        #: Tenant the workload runner is currently submitting for (``None``
        #: outside tenant-tagged runs); while set, closed requests are
        #: additionally recorded into that tenant's sketch.
        self.current_tenant: Optional[str] = None
        self.tenant_sketches: Dict[str, LatencySketch] = {}
        self._capture_start = 0.0

    # ------------------------------------------------------------------
    # Request boundaries (called by the FTL's host-facing paths)
    # ------------------------------------------------------------------
    def begin_request(self, kind: str = "op") -> None:
        """Open a host request; nested calls share the outermost request."""
        if self._depth == 0:
            self._arrival = self._cursor = self.now
            self._kind = kind
        self._depth += 1

    def end_request(self) -> None:
        """Close a host request, recording its latency when depth hits 0."""
        depth = self._depth - 1
        self._depth = depth
        if depth == 0:
            latency = self._cursor - self._arrival
            self.now = self._cursor
            self.requests += 1
            self.sketch.record(latency)
            window = self.window_sketch
            if window is not None:
                window.record(latency)
            kind = self._kind or "op"
            per_kind = self.kind_sketches.get(kind)
            if per_kind is None:
                per_kind = self.kind_sketches[kind] = LatencySketch()
            per_kind.record(latency)
            tenant = self.current_tenant
            if tenant is not None:
                per_tenant = self.tenant_sketches.get(tenant)
                if per_tenant is None:
                    per_tenant = self.tenant_sketches[tenant] = \
                        LatencySketch()
                per_tenant.record(latency)
        elif depth < 0:  # pragma: no cover - defensive
            self._depth = 0

    def abort_request(self) -> None:
        """Abandon an interrupted request without recording a sample.

        Work already dispatched (including the partial foreground chain)
        stays on the clock — a power failure does not un-spend device time —
        but no latency sample is recorded for the request that never
        completed. Used by the crash path; a no-op when no request is open.
        """
        if self._depth:
            self._depth = 0
            if self._cursor > self.now:
                self.now = self._cursor

    @property
    def in_request(self) -> bool:
        return self._depth > 0

    # ------------------------------------------------------------------
    # Operation recording (a device tap, called once per charged op)
    # ------------------------------------------------------------------
    def record(self, kind: IOKind, block_id: int,
               purpose: IOPurpose) -> None:
        """Sequence one flash operation onto its unit and charge its time."""
        busy = self._busy
        unit = block_id % self.units
        start = self._cursor
        queued = busy[unit]
        if queued > start:
            start = queued  # head-of-line blocking: inherit remaining time
        end = start + self._service[kind]
        busy[unit] = end
        if self._depth == 0:
            # Bare op (fill, flush, recovery): sequence it and move time on.
            self._cursor = end
            self.now = end
        elif purpose not in self._background:
            self._cursor = end

    # ------------------------------------------------------------------
    # Capture lifecycle and reporting
    # ------------------------------------------------------------------
    def reset_capture(self) -> None:
        """Drop collected samples; keep the clock and unit state (steady
        state survives, exactly like ``IOStats.reset`` keeps flash state)."""
        self.sketch = LatencySketch()
        self.kind_sketches = {}
        self.tenant_sketches = {}
        self.requests = 0
        if self.window_sketch is not None:
            self.window_sketch.reset()
        self._capture_start = self.now

    @property
    def virtual_seconds(self) -> float:
        """Virtual time elapsed since the last capture reset, in seconds."""
        return (self.now - self._capture_start) / 1e6

    @property
    def throughput_ops_s(self) -> float:
        """Closed-loop request throughput over the capture window."""
        elapsed = self.virtual_seconds
        return self.requests / elapsed if elapsed > 0 else 0.0

    def summary(self) -> Dict[str, Any]:
        """Full latency/throughput summary of the capture window."""
        result: Dict[str, Any] = {
            "requests": self.requests,
            "virtual_seconds": round(self.virtual_seconds, 6),
            "throughput_ops_s": round(self.throughput_ops_s, 3),
        }
        result.update(self.sketch.summary())
        result["kinds"] = {kind: self.kind_sketches[kind].summary()
                           for kind in sorted(self.kind_sketches)}
        if self.tenant_sketches:
            # Only tenant-tagged runs grow this section, so untagged
            # summaries keep their historical shape.
            result["tenants"] = {
                tenant: self.tenant_sketches[tenant].summary()
                for tenant in sorted(self.tenant_sketches)}
        return result

    def row_fields(self) -> Dict[str, float]:
        """The four latency columns sweep rows carry (all virtual-time)."""
        return {
            "throughput_ops_s": round(self.throughput_ops_s, 3),
            "p50_us": round(self.sketch.p50_us, 3),
            "p99_us": round(self.sketch.p99_us, 3),
            "p999_us": round(self.sketch.p999_us, 3),
        }
