"""The observer and the time-series metrics recorder.

:class:`Observer` is the one object every hook point talks to. The observed
device calls :meth:`Observer.on_flash_op` once per charged flash operation;
the FTL wires itself in at construction time (discovery, exactly like the
``timing`` attribute) so garbage collection, Logarithmic Gecko, the mapping
cache and crash/recovery report their lifecycle events without any of those
components importing this package: the garbage collector carries an ``obs``
attribute and the gecko an ``obs_hook`` callable, both ``None`` by default.

The observer owns up to two capture channels, per its
:class:`~repro.obs.spec.ObsSpec`:

* an :class:`~repro.obs.events.EventTrace` (the structured event log), and
* a :class:`MetricsRecorder` (windowed time series, one row every
  ``sample_every`` host operations).

Everything either channel exports is derived purely from deterministic
simulation state — IO counters, the virtual clock, structure sizes — never
from wall-clock time, so identical seeds export byte-identical files.
"""

from __future__ import annotations

import csv
import json
from typing import IO, Any, Dict, List, Optional, Union

from ..flash.stats import IOKind, IOPurpose, IOStats
from ..timing.sketch import LatencySketch
from .events import (
    CACHE_EVICT,
    CRASH,
    GC_END,
    GC_START,
    GECKO_FLUSH,
    GECKO_MERGE,
    RECOVERY_STEP,
    EventTrace,
)
from .spec import ObsSpec

#: The per-purpose windowed page-write columns a metrics row always carries.
_WRITE_PURPOSES = (IOPurpose.USER, IOPurpose.GC, IOPurpose.TRANSLATION,
                   IOPurpose.VALIDITY)

#: Metrics columns, in canonical export order.
BASE_COLUMNS = ("host_ops", "writes_w", "reads_w", "wa_w",
                "writes_user_w", "writes_gc_w", "writes_translation_w",
                "writes_validity_w", "flash_reads_w", "erases_w",
                "gc_w", "merges_w", "cache_hit_w",
                "free_blocks", "runs", "cache_entries")
TIMING_COLUMNS = ("p50_us_w", "p99_us_w", "p999_us_w")


class MetricsRecorder:
    """Windowed time-series sampler over deterministic simulation state.

    One row is appended every ``sample_every`` host operations. Each row
    describes the *window* since the previous row (suffix ``_w``) plus a few
    instantaneous gauges, so plotting the rows directly yields the paper-
    style timelines: write amplification over time, GC activity spikes,
    merge cadence, cache behaviour, free-space pressure.
    """

    __slots__ = ("sample_every", "rows", "_stats", "_timing", "_delta",
                 "_gc", "_gecko", "_cache", "_block_manager", "_last",
                 "_next_sample", "_gc_base", "_merge_base", "_hit_base",
                 "_miss_base")

    def __init__(self, sample_every: int = 1_000) -> None:
        if sample_every < 1:
            raise ValueError("sample_every must be positive")
        self.sample_every = sample_every
        self.rows: List[Dict[str, Any]] = []
        self._stats: Optional[IOStats] = None
        self._timing = None
        self._delta: float = 1.0
        self._gc = None
        self._gecko = None
        self._cache = None
        self._block_manager = None
        self._last: Optional[IOStats] = None
        self._next_sample = sample_every
        self._gc_base = 0
        self._merge_base = 0
        self._hit_base = 0
        self._miss_base = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def bind_device(self, device) -> None:
        """Adopt the device's ledger (and virtual clock, when present)."""
        self._stats = device.stats
        self._delta = getattr(device.config, "delta", 1.0) or 1.0
        timing = getattr(device, "timing", None)
        self._timing = timing
        if timing is not None and timing.window_sketch is None:
            # The model records every closed request into this secondary
            # sketch; we drain it at each window boundary (see sample()).
            timing.window_sketch = LatencySketch()
        self._rebaseline()

    def bind_ftl(self, ftl) -> None:
        """Adopt the FTL's structures as gauge/counter sources."""
        self._gc = ftl.garbage_collector
        self._gecko = getattr(ftl, "gecko", None)
        self._cache = ftl.cache
        self._block_manager = ftl.block_manager
        self._rebaseline_counters()

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def maybe_sample(self) -> None:
        """Append a row when the host-op threshold has been crossed."""
        stats = self._stats
        if stats is not None and \
                stats.host_writes + stats.host_reads >= self._next_sample:
            self.sample()

    def sample(self) -> Dict[str, Any]:
        """Close the current window and append its row unconditionally."""
        stats = self._stats
        if stats is None:
            raise RuntimeError("MetricsRecorder is not bound to a device")
        last = self._last if self._last is not None else IOStats()
        window = stats.diff(last)
        row: Dict[str, Any] = {
            "host_ops": stats.host_writes + stats.host_reads,
            "writes_w": window.host_writes,
            "reads_w": window.host_reads,
            "wa_w": round(window.write_amplification(self._delta), 4),
            "flash_reads_w": window.page_reads,
            "erases_w": window.block_erases,
        }
        write_counts = window.page_write_counts
        for purpose in _WRITE_PURPOSES:
            row[f"writes_{purpose.value}_w"] = write_counts[purpose]
        gc = self._gc
        row["gc_w"] = gc.collections - self._gc_base if gc is not None else 0
        gecko = self._gecko
        row["merges_w"] = (gecko.merge_operations - self._merge_base
                           if gecko is not None else 0)
        cache = self._cache
        if cache is not None:
            hits = cache.hits - self._hit_base
            lookups = hits + cache.misses - self._miss_base
            row["cache_hit_w"] = (round(hits / lookups, 4) if lookups else 0.0)
        else:
            row["cache_hit_w"] = 0.0
        block_manager = self._block_manager
        row["free_blocks"] = (block_manager.free_block_count
                              if block_manager is not None else 0)
        row["runs"] = len(gecko.runs) if gecko is not None else 0
        row["cache_entries"] = len(cache) if cache is not None else 0
        timing = self._timing
        if timing is not None:
            sketch = timing.window_sketch
            row["p50_us_w"] = round(sketch.p50_us, 3)
            row["p99_us_w"] = round(sketch.p99_us, 3)
            row["p999_us_w"] = round(sketch.p999_us, 3)
            sketch.reset()
        tenant_window = getattr(window, "tenant_counts", None)
        if tenant_window:
            # Tenant-tagged windows grow per-tenant columns; untagged rows
            # (and whole untagged captures) keep the historical schema.
            delta = self._delta
            for tenant in sorted(tenant_window):
                counts = tenant_window[tenant]
                host_writes = counts["host_writes"]
                row[f"writes_{tenant}_w"] = host_writes
                amplification = ((counts["page_writes"]
                                  + counts["page_reads"] / delta)
                                 / host_writes) if host_writes else 0.0
                row[f"wa_{tenant}_w"] = round(amplification, 4)
        self.rows.append(row)
        self._last = stats.snapshot()
        self._next_sample = (stats.host_writes + stats.host_reads
                             + self.sample_every)
        self._rebaseline_counters()
        return row

    # ------------------------------------------------------------------
    # Capture lifecycle
    # ------------------------------------------------------------------
    def _rebaseline_counters(self) -> None:
        if self._gc is not None:
            self._gc_base = self._gc.collections
        if self._gecko is not None:
            self._merge_base = self._gecko.merge_operations
        if self._cache is not None:
            self._hit_base = self._cache.hits
            self._miss_base = self._cache.misses

    def _rebaseline(self) -> None:
        stats = self._stats
        if stats is not None:
            self._last = stats.snapshot()
            self._next_sample = (stats.host_writes + stats.host_reads
                                 + self.sample_every)
        timing = self._timing
        if timing is not None and timing.window_sketch is not None:
            timing.window_sketch.reset()
        self._rebaseline_counters()

    def reset_capture(self) -> None:
        """Drop collected rows and restart the window at the present state."""
        self.rows = []
        self._rebaseline()

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    @property
    def columns(self) -> List[str]:
        """Canonical column order for CSV export.

        Tenant columns (``writes_<tenant>_w``, ``wa_<tenant>_w``) are
        appended, sorted, only when some captured row carries them, so
        untagged exports stay byte-identical to the historical schema.
        """
        result = list(BASE_COLUMNS)
        if self._timing is not None:
            result.extend(TIMING_COLUMNS)
        known = set(result)
        extras = sorted({key for row in self.rows
                         for key in row if key not in known})
        result.extend(extras)
        return result

    def export_csv(self, target: Union[str, IO[str]]) -> int:
        """Write the rows as CSV in canonical column order; returns rows."""
        if not hasattr(target, "write"):
            with open(target, "w", encoding="utf-8", newline="") as handle:
                return self.export_csv(handle)
        writer = csv.DictWriter(target, fieldnames=self.columns,
                                restval=0, lineterminator="\n")
        writer.writeheader()
        for row in self.rows:
            writer.writerow(row)
        return len(self.rows)

    def export_jsonl(self, target: Union[str, IO[str]]) -> int:
        """Write the rows as canonical (sorted-key) JSONL; returns rows."""
        if not hasattr(target, "write"):
            with open(target, "w", encoding="utf-8") as handle:
                return self.export_jsonl(handle)
        for row in self.rows:
            target.write(json.dumps(row, sort_keys=True,
                                    separators=(",", ":")) + "\n")
        return len(self.rows)


class Observer:
    """Central observability object: every hook point reports here."""

    __slots__ = ("spec", "trace", "metrics")

    def __init__(self, spec: Union[ObsSpec, str, Dict[str, Any], None]
                 = None) -> None:
        self.spec = ObsSpec.of(spec) if spec is not None else ObsSpec()
        self.trace: Optional[EventTrace] = (
            EventTrace(self.spec.trace_capacity) if self.spec.trace else None)
        self.metrics: Optional[MetricsRecorder] = (
            MetricsRecorder(self.spec.sample_every) if self.spec.metrics
            else None)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def bind_device(self, device) -> None:
        """Called by the tapped device when it adopts this observer."""
        if self.metrics is not None:
            self.metrics.bind_device(device)

    def attach_ftl(self, ftl) -> None:
        """Install the FTL-side hooks (GC, gecko, metrics gauges).

        Called from ``PageMappedFTL.__init__`` when the FTL discovers an
        ``obs`` attribute on its device — the same discovery idiom as
        ``timing``, so plain devices pay nothing.
        """
        ftl.garbage_collector.obs = self
        gecko = getattr(ftl, "gecko", None)
        if gecko is not None:
            gecko.obs_hook = self.on_gecko
        if self.metrics is not None:
            self.metrics.bind_ftl(ftl)

    # ------------------------------------------------------------------
    # Hook points
    # ------------------------------------------------------------------
    def on_flash_op(self, kind: IOKind, block: int,
                    purpose: IOPurpose) -> None:
        """One charged flash operation (the hot hook)."""
        trace = self.trace
        if trace is not None:
            trace.append_flash(kind, block, purpose)
        metrics = self.metrics
        if metrics is not None:
            metrics.maybe_sample()

    def on_gc_start(self, victim: int, victim_type: str) -> None:
        trace = self.trace
        if trace is not None:
            trace.append_label(GC_START, victim_type, a=victim)

    def on_gc_end(self, victim: int, migrated: int, reclaimed: int) -> None:
        trace = self.trace
        if trace is not None:
            trace.append(GC_END, victim, migrated, reclaimed)

    def on_gecko(self, event: str, value: int) -> None:
        """Gecko ``obs_hook`` target: ``("merge", runs)`` / ``("flush", n)``."""
        trace = self.trace
        if trace is not None:
            trace.append(GECKO_MERGE if event == "merge" else GECKO_FLUSH,
                         value)

    def on_cache_evict(self, logical: int, dirty: bool) -> None:
        trace = self.trace
        if trace is not None:
            trace.append(CACHE_EVICT, logical, 1 if dirty else 0)

    def on_recovery_step(self, step) -> None:
        """One measured recovery step (a ``RecoveryStep`` value object)."""
        trace = self.trace
        if trace is not None:
            trace.append_label(RECOVERY_STEP, step.name,
                               step.page_reads, step.page_writes)

    def on_crash(self) -> None:
        trace = self.trace
        if trace is not None:
            trace.append(CRASH)

    # ------------------------------------------------------------------
    # Capture lifecycle
    # ------------------------------------------------------------------
    def reset_capture(self) -> None:
        """Drop everything captured so far (warm-up ends here)."""
        if self.trace is not None:
            self.trace.reset()
        if self.metrics is not None:
            self.metrics.reset_capture()
