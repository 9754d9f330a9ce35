"""Session-level timing tests: wiring, determinism, zero-overhead guard."""

import pytest

from repro import (FlashDevice, SimulationSession, TappedFlashDevice,
                   TimingModel, TimingSpec, UniformRandomWrites,
                   simulation_configuration)

TINY = dict(num_blocks=64, pages_per_block=8, page_size=256)


def tiny_config():
    return simulation_configuration(**TINY)


def run_timed(ftl="GeckoFTL", timing="slc", ops=1500, seed=7):
    with SimulationSession(ftl, device=tiny_config(), timing=timing,
                           ftl_kwargs={"cache_capacity": 48}) as session:
        session.warmup()
        session.run(UniformRandomWrites(session.config.logical_pages,
                                        seed=seed), ops)
        return session.latency_summary(), session.snapshot()


class TestZeroOverheadWhenDisabled:
    """Timing off must mean the *exact* pre-existing fast paths."""

    def test_plain_session_uses_plain_device(self):
        with SimulationSession("GeckoFTL", device=tiny_config()) as session:
            assert type(session.device) is FlashDevice
            assert session.timing is None
            assert session.ftl.timing is None
            assert getattr(session.device, "timing", None) is None

    def test_plain_device_has_no_timing_slot(self):
        # FlashDevice uses __slots__, so no per-instance shadowing is even
        # possible: a plain device physically cannot carry a timing hook.
        assert "timing" not in FlashDevice.__slots__
        with pytest.raises(AttributeError):
            FlashDevice(tiny_config()).timing = object()

    def test_timed_methods_are_overrides_not_patches(self):
        # The plain class's methods are untouched; the tapped subclass
        # carries its own. This is the structural zero-overhead guarantee.
        for name in ("read_page", "read_page_data", "read_page_record",
                     "write_page_tagged", "read_spare", "read_spare_logical",
                     "erase_block"):
            assert (getattr(FlashDevice, name)
                    is not getattr(TappedFlashDevice, name))
        # write_page and peek intentionally delegate / stay uncharged.
        assert "write_page" not in TappedFlashDevice.__dict__
        assert "peek" not in TappedFlashDevice.__dict__

    def test_plain_row_has_no_latency_columns(self):
        with SimulationSession("GeckoFTL", device=tiny_config()) as session:
            session.warmup()
            session.run(
                UniformRandomWrites(session.config.logical_pages, seed=1),
                300)
            assert session.latency_summary() is None
            row = session.snapshot().row()
            for column in ("throughput_ops_s", "p50_us", "p99_us",
                           "p999_us"):
                assert column not in row

    def test_timed_and_plain_sessions_do_identical_io(self):
        # The timed device observes the IO stream without altering it.
        def stats_of(timing):
            with SimulationSession(
                    "GeckoFTL", device=tiny_config(), timing=timing,
                    ftl_kwargs={"cache_capacity": 48}) as session:
                session.warmup()
                session.run(UniformRandomWrites(
                    session.config.logical_pages, seed=3), 800)
                return session.stats.snapshot().breakdown()

        assert stats_of(None) == stats_of("slc")


class TestSessionWiring:
    def test_timing_accepts_preset_spec_model(self):
        spec = TimingSpec.preset("mlc")
        for timing in ("mlc", spec, spec.to_dict(), TimingModel(spec)):
            with SimulationSession("DFTL", device=tiny_config(),
                                   timing=timing) as session:
                assert isinstance(session.device, TappedFlashDevice)
                assert session.timing.spec == spec
                assert session.ftl.timing is session.timing

    def test_ready_timed_device_is_adopted(self):
        device = TappedFlashDevice(tiny_config(), timing=TimingModel("slc"))
        with SimulationSession("DFTL", device=device) as session:
            assert session.timing is device.timing

    def test_plain_device_plus_timing_rejected(self):
        with pytest.raises(ValueError, match="timing="):
            SimulationSession("DFTL", device=FlashDevice(tiny_config()),
                              timing="slc")

    def test_latency_summary_shape(self):
        summary, snapshot = run_timed(ops=800)
        assert summary["requests"] == 800
        assert summary["throughput_ops_s"] > 0
        assert (summary["p50_us"] <= summary["p99_us"]
                <= summary["p999_us"] <= summary["max_us"])
        assert summary["kinds"]["write"]["count"] == 800
        row = snapshot.row()
        assert row["p99_us"] == summary["p99_us"]
        assert row["throughput_ops_s"] == summary["throughput_ops_s"]

    def test_warmup_resets_capture_but_not_clock(self):
        with SimulationSession("GeckoFTL", device=tiny_config(),
                               timing="paper") as session:
            session.warmup()
            assert session.timing.requests == 0
            assert session.timing.sketch.count == 0
            assert session.timing.now > 0.0  # fill time stays on the clock
            assert session.timing.virtual_seconds == 0.0

    def test_identical_seeds_produce_identical_sketches(self):
        one, _ = run_timed(seed=11)
        two, _ = run_timed(seed=11)
        other, _ = run_timed(seed=12)
        assert one == two
        assert one != other

    def test_mixed_workload_reports_per_kind_sketches(self):
        with SimulationSession("DFTL", device=tiny_config(),
                               timing="slc") as session:
            session.warmup()
            from repro import MixedReadWrite
            session.run(MixedReadWrite(
                UniformRandomWrites(session.config.logical_pages, seed=5),
                read_fraction=0.4, seed=5), 1000)
            summary = session.latency_summary()
            assert set(summary["kinds"]) >= {"read", "write"}
            counts = sum(k["count"] for k in summary["kinds"].values())
            assert counts == summary["requests"] == 1000


class TestCrashRecoveryTiming:
    def test_recovery_reports_virtual_time_without_clock_corruption(self):
        with SimulationSession("GeckoFTL", device=tiny_config(),
                               timing="paper",
                               ftl_kwargs={"cache_capacity": 48}) as session:
            session.warmup()
            session.run(UniformRandomWrites(
                session.config.logical_pages, seed=3), 600)
            requests_before = session.timing.requests
            clock_before = session.timing.now
            session.crash()
            assert not session.timing.in_request
            report = session.recover()
            assert report is not None
            assert session.recovery_virtual_us is not None
            assert session.recovery_virtual_us >= 0.0
            assert session.timing.now >= clock_before
            # The crash/recovery cycle records no phantom host requests.
            assert session.timing.requests == requests_before
            # And the session keeps working (clock strictly monotone).
            session.run(UniformRandomWrites(
                session.config.logical_pages, seed=4), 100)
            assert session.timing.requests == requests_before + 100

    def test_crash_is_deterministic_under_timing(self):
        def run():
            with SimulationSession("LazyFTL", device=tiny_config(),
                                   timing="slc",
                                   ftl_kwargs={"cache_capacity": 48}
                                   ) as session:
                session.warmup()
                session.run(UniformRandomWrites(
                    session.config.logical_pages, seed=9), 400)
                session.crash()
                session.recover()
                return (session.recovery_virtual_us, session.timing.now,
                        session.timing.sketch.to_dict())

        assert run() == run()
