"""Tests for ``repro.obs``: tracing, metrics, telemetry, zero interference.

The interference tests are the load-bearing ones: the observability layer
must be *capture-only*. Enabling it may never change an ``IOStats``
breakdown, a timing sketch, or a sweep row — locked here against the same
seed-generated golden file as ``test_flash_equivalence`` (which the observed
device must keep matching byte-for-byte).
"""

from __future__ import annotations

import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import test_flash_equivalence as equivalence
from repro.api.session import SimulationSession
from repro.core.gecko_ftl import GeckoFTL
from repro.engine import SweepPlan, run_sweep
from repro.engine.results import canonical_row_bytes
from repro.flash.address import PhysicalAddress
from repro.flash.config import simulation_configuration
from repro.flash.device import FlashDevice, TappedFlashDevice
from repro.flash.stats import IOKind, IOPurpose, IOStats
from repro.ftl.dftl import DFTL
from repro.obs import (
    DEFAULT_SAMPLE_EVERY,
    DEFAULT_TRACE_CAPACITY,
    EventTrace,
    MetricsRecorder,
    ObsSpec,
    Observer,
    SweepProgress,
    event_names,
)
from repro.timing.model import TimingModel
from repro.timing.sketch import LatencySketch
from repro.workloads.registry import WorkloadSpec

GOLDEN_PATH = Path(__file__).parent / "data" / "equivalence_golden.json"


# ----------------------------------------------------------------------
# EventTrace
# ----------------------------------------------------------------------
class TestEventTrace:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            EventTrace(0)

    def test_ring_eviction_keeps_absolute_sequence(self):
        trace = EventTrace(capacity=4)
        for block in range(6):
            trace.append_flash(IOKind.PAGE_WRITE, block, IOPurpose.USER)
        assert len(trace) == 4
        assert trace.seq == 6
        assert trace.dropped == 2
        events = list(trace.events())
        # The two oldest records were evicted; sequence numbers are absolute.
        assert [event["seq"] for event in events] == [3, 4, 5, 6]
        assert [event["block"] for event in events] == [2, 3, 4, 5]

    def test_flash_event_decoding(self):
        trace = EventTrace()
        trace.append_flash(IOKind.BLOCK_ERASE, 17, IOPurpose.GC)
        (event,) = trace.events()
        assert event == {"seq": 1, "event": "block_erase", "block": 17,
                         "purpose": "gc"}

    def test_filter_by_kind_and_unknown_kind_raises(self):
        trace = EventTrace()
        trace.append_flash(IOKind.PAGE_WRITE, 1, IOPurpose.USER)
        trace.append_label(5, "user", a=9)          # gc_start
        trace.append(6, 9, 3, 5)                    # gc_end
        names = [event["event"] for event in trace.events(["gc_start",
                                                           "gc_end"])]
        assert names == ["gc_start", "gc_end"]
        with pytest.raises(ValueError, match="unknown event kind"):
            list(trace.events(["no_such_event"]))

    def test_label_interning_and_gc_decoding(self):
        trace = EventTrace()
        trace.append_label(5, "user", a=3)
        trace.append_label(5, "user", a=4)
        trace.append_label(5, "translation", a=5)
        assert len(trace._labels) == 2
        victims = [(event["block"], event["victim_type"])
                   for event in trace.events()]
        assert victims == [(3, "user"), (4, "user"), (5, "translation")]

    def test_reset_clears_everything(self):
        trace = EventTrace(capacity=2)
        for block in range(5):
            trace.append_flash(IOKind.PAGE_READ, block, IOPurpose.USER)
        trace.reset()
        assert len(trace) == 0
        assert trace.seq == 0
        assert trace.dropped == 0

    def test_export_jsonl_is_canonical(self):
        def build():
            trace = EventTrace()
            trace.append_flash(IOKind.PAGE_WRITE, 7, IOPurpose.GC)
            trace.append(11)                        # crash
            return trace

        first, second = io.StringIO(), io.StringIO()
        assert build().export_jsonl(first) == 2
        build().export_jsonl(second)
        assert first.getvalue() == second.getvalue()
        decoded = [json.loads(line)
                   for line in first.getvalue().splitlines()]
        assert decoded[1] == {"seq": 2, "event": "crash"}

    def test_summary_counts_by_name(self):
        trace = EventTrace()
        for _ in range(3):
            trace.append_flash(IOKind.PAGE_WRITE, 0, IOPurpose.USER)
        trace.append_flash(IOKind.SPARE_READ, 0, IOPurpose.RECOVERY)
        assert trace.summary() == {"page_write": 3, "spare_read": 1}

    def test_event_names_cover_flash_kinds_and_lifecycle(self):
        names = event_names()
        for kind in IOKind:
            assert kind.value in names
        for lifecycle in ("gc_start", "gc_end", "gecko_flush", "gecko_merge",
                          "cache_evict", "recovery_step", "crash"):
            assert lifecycle in names


# ----------------------------------------------------------------------
# ObsSpec
# ----------------------------------------------------------------------
class TestObsSpec:
    def test_presets(self):
        assert ObsSpec.preset("trace") == ObsSpec(trace=True, metrics=False)
        assert ObsSpec.preset("metrics") == ObsSpec(trace=False, metrics=True)
        assert ObsSpec.preset("full") == ObsSpec()

    def test_parse_with_overrides(self):
        spec = ObsSpec.parse("metrics(sample_every=250)")
        assert spec == ObsSpec(trace=False, metrics=True, sample_every=250)

    def test_of_coercions(self):
        assert ObsSpec.of(True) == ObsSpec()
        assert ObsSpec.of("full") == ObsSpec()
        assert ObsSpec.of({"preset": "trace", "trace_capacity": 128}) == \
            ObsSpec(trace=True, metrics=False, trace_capacity=128)
        spec = ObsSpec(metrics=False)
        assert ObsSpec.of(spec) is spec
        with pytest.raises(TypeError):
            ObsSpec.of(3.14)

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="unknown obs preset"):
            ObsSpec.preset("verbose")
        with pytest.raises(ValueError, match="neither tracing nor metrics"):
            ObsSpec(trace=False, metrics=False)
        with pytest.raises(ValueError, match="positive integer"):
            ObsSpec(sample_every=0)
        with pytest.raises(ValueError, match="positive integer"):
            ObsSpec(trace_capacity=True)
        with pytest.raises(ValueError, match="unknown obs field"):
            ObsSpec.from_dict({"cadence": 5})

    def test_str_roundtrips_presets(self):
        assert str(ObsSpec.preset("metrics")) == "metrics"
        assert str(ObsSpec()) == "full"
        assert "sample_every=250" in str(ObsSpec(sample_every=250))

    def test_defaults_exported(self):
        spec = ObsSpec()
        assert spec.trace_capacity == DEFAULT_TRACE_CAPACITY
        assert spec.sample_every == DEFAULT_SAMPLE_EVERY


# ----------------------------------------------------------------------
# Observed devices and the metrics recorder
# ----------------------------------------------------------------------
class TestObservedDevice:
    def test_every_charged_write_is_traced(self, tiny_config):
        observer = Observer(ObsSpec.preset("trace"))
        device = TappedFlashDevice(tiny_config, obs=observer)
        for page in range(8):
            device.write_page_tagged(PhysicalAddress(0, page), None)
        summary = observer.trace.summary()
        assert summary["page_write"] == device.stats.page_writes == 8
        traced = sum(summary.values())
        assert traced == observer.trace.seq

    def test_metrics_sampling_threshold(self, tiny_config):
        observer = Observer(ObsSpec(trace=False, metrics=True,
                                    sample_every=10))
        device = TappedFlashDevice(tiny_config, obs=observer)
        recorder = observer.metrics
        # Device-level page writes are not host ops, so no row appears...
        for page in range(8):
            device.write_page_tagged(PhysicalAddress(0, page), None)
        assert recorder.rows == []
        # ...until host operations cross the threshold.
        device.stats.record_host_write(10)
        observer.on_flash_op(IOKind.PAGE_WRITE, 0, IOPurpose.USER)
        assert len(recorder.rows) == 1
        row = recorder.rows[0]
        assert row["host_ops"] == 10
        assert row["writes_w"] == 10

    def test_unbound_recorder_rejects_sampling(self):
        recorder = MetricsRecorder()
        with pytest.raises(RuntimeError, match="not bound"):
            recorder.sample()
        recorder.maybe_sample()  # silently a no-op while unbound
        with pytest.raises(ValueError):
            MetricsRecorder(sample_every=0)

    def test_csv_and_jsonl_exports(self, tiny_config):
        observer = Observer(ObsSpec(trace=False, metrics=True,
                                    sample_every=5))
        device = TappedFlashDevice(tiny_config, obs=observer)
        device.stats.record_host_write(5)
        observer.metrics.sample()
        csv_out, jsonl_out = io.StringIO(), io.StringIO()
        assert observer.metrics.export_csv(csv_out) == 1
        assert observer.metrics.export_jsonl(jsonl_out) == 1
        header = csv_out.getvalue().splitlines()[0].split(",")
        assert header == list(observer.metrics.columns)
        assert "p50_us_w" not in header  # untimed device: no timing columns
        row = json.loads(jsonl_out.getvalue())
        assert row["writes_w"] == 5


# ----------------------------------------------------------------------
# Session integration
# ----------------------------------------------------------------------
class TestSessionObservability:
    def test_full_capture_records_gc_and_metrics(self):
        config = simulation_configuration(num_blocks=64, pages_per_block=8,
                                          page_size=256)
        with SimulationSession("GeckoFTL", device=config,
                               ftl_kwargs={"cache_capacity": 64},
                               obs="full(sample_every=500)") as session:
            session.warmup()
            workload = WorkloadSpec.of("UniformRandomWrites").build(
                session.config.logical_pages, seed=11)
            session.run(workload, 2_000)
            trace = session.obs.trace
            summary = trace.summary()
            assert summary["gc_start"] == summary["gc_end"] > 0
            assert summary["page_write"] > 0
            rows = session.obs.metrics.rows
            assert len(rows) >= 3
            host_ops = [row["host_ops"] for row in rows]
            assert host_ops == sorted(host_ops)
            # GC happened, so some window carries GC page writes.
            assert any(row["writes_gc_w"] > 0 for row in rows)

    def test_warmup_resets_capture(self):
        config = simulation_configuration(num_blocks=64, pages_per_block=8,
                                          page_size=256)
        with SimulationSession("GeckoFTL", device=config,
                               ftl_kwargs={"cache_capacity": 64},
                               obs="full") as session:
            session.warmup()
            # The warm-up fill writes every logical page, yet the capture
            # starts empty: measurement begins after the warm-up.
            assert len(session.obs.trace) == 0
            assert session.obs.trace.seq == 0
            assert session.obs.metrics.rows == []

    def test_ready_made_device_conflict(self, tiny_config):
        device = TappedFlashDevice(tiny_config,
                                   obs=Observer(ObsSpec.preset("trace")))
        with pytest.raises(ValueError, match="conflicts"):
            SimulationSession("GeckoFTL", device=device, obs="metrics",
                              ftl_kwargs={"cache_capacity": 64})

    def test_obs_false_means_taps_off(self, tiny_config):
        with SimulationSession("GeckoFTL", device=tiny_config, obs=False,
                               ftl_kwargs={"cache_capacity": 64}) as session:
            assert type(session.device) is FlashDevice
            assert session.obs is None
        with SimulationSession("GeckoFTL", device=tiny_config, obs=False,
                               timing="slc",
                               ftl_kwargs={"cache_capacity": 64}) as session:
            assert isinstance(session.device, TappedFlashDevice)
            assert session.device.obs is None
            assert session.obs is None

    def test_ready_made_observed_device_is_discovered(self, tiny_config):
        observer = Observer(ObsSpec.preset("trace"))
        device = TappedFlashDevice(tiny_config, obs=observer)
        with SimulationSession("GeckoFTL", device=device,
                               ftl_kwargs={"cache_capacity": 64}) as session:
            assert session.obs is observer
            session.write(3, data="x")
            assert len(observer.trace) > 0

    def test_crash_and_recovery_events(self):
        config = simulation_configuration(num_blocks=64, pages_per_block=8,
                                          page_size=256)
        with SimulationSession("GeckoFTL", device=config,
                               ftl_kwargs={"cache_capacity": 64},
                               obs="trace") as session:
            session.warmup()
            workload = WorkloadSpec.of("UniformRandomWrites").build(
                session.config.logical_pages, seed=5)
            session.run(workload, 800)
            session.crash()
            report = session.recover()
            crashes = list(session.obs.trace.events(["crash"]))
            assert len(crashes) == 1
            steps = list(session.obs.trace.events(["recovery_step"]))
            assert [event["step"] for event in steps] == \
                [step.name for step in report.steps]
            assert [event["page_reads"] for event in steps] == \
                [step.page_reads for step in report.steps]

    def test_timed_session_window_percentiles(self):
        config = simulation_configuration(num_blocks=64, pages_per_block=8,
                                          page_size=256)
        with SimulationSession("GeckoFTL", device=config,
                               ftl_kwargs={"cache_capacity": 64},
                               obs="metrics(sample_every=500)",
                               timing="slc") as session:
            session.warmup()
            workload = WorkloadSpec.of("UniformRandomWrites").build(
                session.config.logical_pages, seed=11)
            session.run(workload, 2_000)
            rows = session.obs.metrics.rows
            assert rows
            assert all("p99_us_w" in row for row in rows)
            assert any(row["p99_us_w"] > 0 for row in rows)
            assert "p999_us_w" in session.obs.metrics.columns


# ----------------------------------------------------------------------
# Determinism and zero interference
# ----------------------------------------------------------------------
def _observed_exports(seed):
    config = simulation_configuration(num_blocks=64, pages_per_block=8,
                                      page_size=256)
    with SimulationSession("GeckoFTL", device=config,
                           ftl_kwargs={"cache_capacity": 64},
                           obs="full(sample_every=400)") as session:
        session.warmup()
        workload = WorkloadSpec.of("UniformRandomWrites").build(
            session.config.logical_pages, seed=seed)
        session.run(workload, 1_500)
        trace_out, metrics_out = io.StringIO(), io.StringIO()
        session.obs.trace.export_jsonl(trace_out)
        session.obs.metrics.export_csv(metrics_out)
        return trace_out.getvalue(), metrics_out.getvalue()


class TestDeterminismAndInterference:
    def test_identical_seeds_export_identical_bytes(self):
        assert _observed_exports(23) == _observed_exports(23)
        first_trace, _ = _observed_exports(23)
        other_trace, _ = _observed_exports(24)
        assert first_trace != other_trace

    @pytest.mark.parametrize("taps", ["timing", "obs", "timing+obs"])
    def test_observed_stats_match_seed_golden(self, taps):
        """The tapped device reproduces the seed goldens byte-for-byte.

        Reuses the exact randomized trace and fingerprint recipe of
        ``test_flash_equivalence`` with a ``TappedFlashDevice`` substituted
        for ``FlashDevice`` — under each tap combination (``slc`` clock,
        full obs capture, both) — capture must not perturb a single counter.
        """
        golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        for ftl_class, key in ((GeckoFTL, "gecko"), (DFTL, "dftl")):
            config = simulation_configuration(num_blocks=64,
                                              pages_per_block=8,
                                              page_size=256)
            timing = TimingModel("slc") if "timing" in taps else None
            observer = (Observer(ObsSpec(sample_every=100))
                        if "obs" in taps else None)
            ftl = ftl_class(TappedFlashDevice(config, timing=timing,
                                              obs=observer),
                            cache_capacity=64)
            equivalence.fill_device(ftl)
            ftl.stats.reset()
            if timing is not None:
                timing.reset_capture()
            if observer is not None:
                observer.reset_capture()
            operations = equivalence._trace(config.logical_pages)
            submitted = 0
            for start in range(0, len(operations), equivalence.BATCH):
                submitted += ftl.submit(
                    operations[start:start + equivalence.BATCH]).submitted
            assert submitted == equivalence.TRACE_OPS
            stats = ftl.stats
            fingerprint = {
                "breakdown": stats.breakdown(),
                "host_writes": stats.host_writes,
                "host_reads": stats.host_reads,
                "write_amplification": round(
                    stats.write_amplification(config.delta), 10),
                "free_pages": ftl.device.free_page_count(),
                "written_pages": ftl.device.written_page_count(),
                "write_clock": ftl.device.write_clock,
            }
            assert fingerprint == golden[key], key
            # And the capture actually captured the run.
            if timing is not None:
                assert timing.requests == equivalence.TRACE_OPS
            if observer is not None:
                assert len(observer.trace) > 0
                assert len(observer.metrics.rows) > 0

    def test_obs_does_not_change_timing_or_snapshot(self):
        def run(obs):
            config = simulation_configuration(num_blocks=64,
                                              pages_per_block=8,
                                              page_size=256)
            with SimulationSession("GeckoFTL", device=config,
                                   ftl_kwargs={"cache_capacity": 64},
                                   obs=obs, timing="slc") as session:
                session.warmup()
                workload = WorkloadSpec.of("UniformRandomWrites").build(
                    session.config.logical_pages, seed=31)
                session.run(workload, 1_200)
                return (session.latency_summary(),
                        session.snapshot().row(),
                        session.device.timing.sketch.to_dict())

        plain = run(None)
        observed = run("full(sample_every=300)")
        assert plain == observed


# ----------------------------------------------------------------------
# IOStats.diff regression (the hardened window arithmetic metrics rely on)
# ----------------------------------------------------------------------
class TestIOStatsDiff:
    def test_diff_across_reset_clamps_to_zero(self):
        stats = IOStats()
        stats.record(IOKind.PAGE_WRITE, IOPurpose.USER, 7)
        stats.record_host_write(7)
        earlier = stats.snapshot()
        stats.reset()
        stats.record(IOKind.PAGE_WRITE, IOPurpose.USER, 2)
        window = stats.diff(earlier)
        assert window.page_write_counts[IOPurpose.USER] == 0
        assert window.page_writes == 0

    def test_diff_always_carries_every_purpose_key(self):
        stats = IOStats()
        stats.record(IOKind.PAGE_WRITE, IOPurpose.GC, 3)
        earlier = IOStats()
        # A hand-built (or legacy-deserialized) baseline missing keys must
        # not poison the window: every purpose stays indexable.
        earlier.page_write_counts.pop(IOPurpose.GC)
        earlier.page_write_counts.pop(IOPurpose.VALIDITY)
        window = stats.diff(earlier)
        for counts in (window.page_write_counts, window.page_read_counts,
                       window.block_erase_counts, window.spare_read_counts,
                       window.spare_write_counts):
            assert set(counts) == set(IOPurpose)
        assert window.page_write_counts[IOPurpose.GC] == 3
        assert window.write_amplification(1.0, host_writes=1) == 3.0

    def test_diff_of_nested_windows_composes(self):
        stats = IOStats()
        stats.record(IOKind.PAGE_WRITE, IOPurpose.USER, 5)
        first = stats.snapshot()
        stats.record(IOKind.PAGE_WRITE, IOPurpose.GC, 4)
        stats.record_host_write(2)
        window = stats.diff(first)
        # The window is a full IOStats: diffing it again keeps working.
        rewindow = window.diff(IOStats())
        assert rewindow.page_write_counts[IOPurpose.GC] == 4
        assert rewindow.host_writes == 2


# ----------------------------------------------------------------------
# Window sketches: merged windows == whole run (property)
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    samples=st.lists(
        st.floats(min_value=0.0, max_value=1e7, allow_nan=False,
                  allow_infinity=False),
        max_size=120),
    data=st.data(),
)
def test_window_sketches_merge_to_whole_run(samples, data):
    """Per-window sketches merged together equal the cumulative sketch.

    This is the invariant the metrics recorder leans on: draining a
    secondary window sketch at each sample boundary loses nothing relative
    to the run-wide sketch the timing model keeps.
    """
    boundaries = sorted(data.draw(
        st.lists(st.integers(min_value=0, max_value=len(samples)),
                 max_size=6)))
    whole = LatencySketch()
    merged = LatencySketch()
    window = LatencySketch()
    cuts = boundaries + [len(samples)]
    position = 0
    for cut in cuts:
        for value in samples[position:cut]:
            whole.record(value)
            window.record(value)
        merged.merge(window)
        window.reset()
        position = cut
    # Bucket tables, counts and extremes are integer/exact state, so the
    # merge reproduces them bit-for-bit; the running sum is float addition
    # in a different association order, hence approx.
    assert merged.count == whole.count
    assert merged.min_us == whole.min_us
    assert merged.max_us == whole.max_us
    assert merged.to_dict()["buckets"] == whole.to_dict()["buckets"]
    assert merged.sum_us == pytest.approx(whole.sum_us, rel=1e-12, abs=1e-9)
    for q in (0.0, 0.5, 0.9, 0.99, 0.999, 1.0):
        assert merged.quantile(q) == whole.quantile(q)


# ----------------------------------------------------------------------
# Sweep telemetry
# ----------------------------------------------------------------------
def _telemetry_plan():
    return SweepPlan(
        ftls=["GeckoFTL", "DFTL"], cache_capacities=[64],
        seeds=[1, 2], write_operations=400,
        devices=[{"num_blocks": 64, "pages_per_block": 8,
                  "page_size": 256}])


class TestSweepTelemetry:
    def test_progress_never_touches_canonical_rows(self):
        plan = _telemetry_plan()
        silent = run_sweep(plan)
        stream = io.StringIO()
        progress = SweepProgress(stream=stream)
        observed = run_sweep(plan, backend="pool(workers=2)",
                             on_task=progress)
        assert [canonical_row_bytes(row) for row in silent.rows] == \
            [canonical_row_bytes(row) for row in observed.rows]
        lines = stream.getvalue().splitlines()
        assert len(lines) == len(plan.tasks())
        assert lines[-1].startswith(f"[{len(lines)}/{len(lines)}]")
        assert "rows/s" in lines[0]

    def test_progress_resume_is_noop(self, tmp_path):
        plan = _telemetry_plan()
        sink = tmp_path / "rows.jsonl"
        first = run_sweep(plan, store=str(sink))
        assert first.executed == len(plan.tasks())
        stream = io.StringIO()
        progress = SweepProgress(stream=stream)
        resumed = run_sweep(plan, store=str(sink), resume=True,
                            on_task=progress)
        assert resumed.executed == 0
        assert resumed.skipped == len(plan.tasks())
        # Resumed rows replay through the callback with the wall time
        # persisted when they originally ran.
        assert progress.completed == len(plan.tasks())
        assert len(progress.task_walls) == len(plan.tasks())
        assert all(wall > 0.0 for wall in progress.task_walls)
        progress.finish()
        assert f"completed={len(plan.tasks())}/{len(plan.tasks())}" \
            in stream.getvalue()

    def test_note_failure_and_summary(self):
        stream = io.StringIO()
        progress = SweepProgress(stream=stream)
        progress.note_failure(RuntimeError("task 3 exploded"))
        assert "FAILED: task 3 exploded" in stream.getvalue()
        assert "failures=1" in progress.summary()
