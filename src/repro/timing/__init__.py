"""repro.timing — device timing model and tail-latency QoS reporting.

The write-amplification pipeline counts operations; this package gives them
*time*. It is an analytic virtual-time queue model layered on the existing
purpose-tagged IO stream (no discrete-event engine):

* :mod:`repro.timing.spec` — :class:`TimingSpec`: the per-op cost model
  (page read/program, erase, spare read/write, bus transfer) plus
  channel/plane geometry, with ``paper``/``slc``/``mlc`` presets and the
  same ``Name(key=value)`` shorthand the FTL/workload registries use;
* :mod:`repro.timing.model` — :class:`TimingModel`: the virtual clock that
  sequences every flash op onto its channel/plane unit, charges per-kind
  service time, and models head-of-line blocking (a host op queued behind
  an in-flight GC erase inherits its remaining time);
* :mod:`repro.timing.sketch` — :class:`LatencySketch`: a constant-memory,
  deterministically log-bucketed streaming histogram exposing
  p50/p99/p999, mean, max and ops/sec.

A :class:`~repro.flash.device.TappedFlashDevice` built with ``timing=``
feeds the clock: it calls :meth:`TimingModel.record` after every charged
flash operation. The plain :class:`~repro.flash.device.FlashDevice` has no
such tap, so simulations without timing keep the exact pre-existing fast
paths (strictly zero overhead when disabled).

Enable it through the session front door::

    from repro import SimulationSession, UniformRandomWrites

    with SimulationSession("GeckoFTL", timing="slc") as session:
        session.warmup()
        session.run(UniformRandomWrites(session.config.logical_pages), 20_000)
        print(session.latency_summary())   # p50/p99/p999, ops/sec, per-kind
"""

from .model import BACKGROUND_PURPOSES, TimingModel
from .sketch import LatencySketch
from .spec import DEVICE_PRESETS, TimingSpec

__all__ = [
    "BACKGROUND_PURPOSES",
    "DEVICE_PRESETS",
    "LatencySketch",
    "TimingModel",
    "TimingSpec",
]
