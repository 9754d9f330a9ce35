"""Opt-in observability for the simulator: tracing, metrics, telemetry.

The package follows the same zero-overhead-when-disabled discipline as
:mod:`repro.timing`: the plain :class:`~repro.flash.device.FlashDevice` and
the FTLs carry no hook checks — a simulation that wants observability
builds a :class:`~repro.flash.device.TappedFlashDevice` with an
:class:`Observer` as its ``obs=`` tap (or passes ``obs=`` to
:class:`~repro.api.session.SimulationSession`), and everything wires itself
in through the same discovery idiom the timing layer uses.

Three capture channels:

* :class:`EventTrace` — a bounded ring buffer of packed structured events
  (flash ops, GC cycles, gecko flushes/merges, cache evictions,
  crash/recovery steps) with canonical JSONL export;
* :class:`MetricsRecorder` — a windowed time series sampled every N host
  operations (windowed WA, per-purpose IO, GC/merge activity, cache hit
  ratio, free-space and run-count gauges, windowed latency percentiles
  when timing is on) with CSV/JSONL export;
* :class:`SweepProgress` — live progress over the sweep executor's
  ``on_task`` callback, strictly outside the canonical result rows.
"""

from .events import EventTrace, event_names
from .recorder import MetricsRecorder, Observer
from .spec import DEFAULT_SAMPLE_EVERY, DEFAULT_TRACE_CAPACITY, OBS_PRESETS, ObsSpec
from .telemetry import SweepProgress

__all__ = [
    "DEFAULT_SAMPLE_EVERY",
    "DEFAULT_TRACE_CAPACITY",
    "EventTrace",
    "MetricsRecorder",
    "OBS_PRESETS",
    "ObsSpec",
    "Observer",
    "SweepProgress",
    "event_names",
]
