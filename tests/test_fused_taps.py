"""Taps on the fused paths: one op path for plain and tapped devices.

The FTL's inlined submit write loop, translation synchronization and GC
migration loops, and Gecko's page storage run unchanged on a
:class:`TappedFlashDevice`; they call the device's taps themselves. These
tests pin the mechanism (no per-op primitive is called from a fused path,
yet every charged op reaches the taps), the construction-time rejection of
device classes the fused paths would bypass, and the timing request
cleanup when a host op raises. ``tests/test_tap_stream_golden.py`` pins
the exact tap stream.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro import Operation, OpKind, SimulationSession, simulation_configuration
from repro.core.gecko_ftl import GeckoFTL
from repro.core.storage import FlashGeckoStorage
from repro.flash.device import FlashDevice, TappedFlashDevice, device_taps
from repro.flash.errors import DeviceFullError
from repro.flash.stats import IOKind
from repro.ftl.block_manager import BlockManager
from repro.timing.model import TimingModel


def _config():
    return simulation_configuration(num_blocks=64, pages_per_block=8,
                                    page_size=256)


def _tapped_session():
    session = SimulationSession(
        "GeckoFTL(cache_capacity=32)", device=_config(), timing="slc",
        obs="full(trace_capacity=200000, sample_every=7)")
    session.warmup()
    return session


def _random_writes(pages, count, seed):
    rng = random.Random(seed)
    return [Operation(OpKind.WRITE, rng.randrange(pages), ("w", index))
            for index in range(count)]


class TestFusedPathsOnTappedDevice:
    def test_gc_batch_calls_no_per_op_primitive(self, monkeypatch):
        session = _tapped_session()
        calls = Counter()
        for owner, name in ((BlockManager, "allocate_page"),
                            (TappedFlashDevice, "write_page_tagged"),
                            (TappedFlashDevice, "read_page_record"),
                            (TappedFlashDevice, "read_spare_logical")):
            def counting(*args, _original=getattr(owner, name), _name=name,
                         **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(owner, name, counting)
        collector = session.ftl.garbage_collector
        collections = collector.collections
        merges = session.ftl.gecko.merge_operations
        batch = _random_writes(session.config.logical_pages, 1500, seed=5)
        delta = session.submit(batch).stats_delta
        # The batch ran GC migrations, synchronizations and Gecko merges...
        assert collector.collections > collections
        assert session.ftl.gecko.merge_operations > merges
        assert delta.page_writes > len(batch)
        # ...without leaving the fused paths once.
        assert calls == Counter()
        # Every charged op still reached both taps.
        counts = session.obs.trace.summary()
        assert sum(counts.get(kind.value, 0) for kind in IOKind) == (
            delta.page_reads + delta.page_writes + delta.spare_reads
            + delta.block_erases)
        assert session.timing.requests == len(batch)
        assert not session.timing.in_request

    def test_migrate_override_still_sees_every_page(self):
        class Counting(GeckoFTL):
            migrated = 0

            def _migrate_user_page(self, old_physical):
                Counting.migrated += 1
                super()._migrate_user_page(old_physical)

        def run(ftl_class):
            device = FlashDevice(_config())
            session = SimulationSession(ftl_class(device, cache_capacity=32),
                                        device=device)
            session.warmup()
            pages = session.config.logical_pages
            session.submit(_random_writes(pages, 1500, seed=9))
            return session.stats.breakdown()

        reference = run(GeckoFTL)
        breakdown = run(Counting)
        assert breakdown == reference
        assert Counting.migrated >= breakdown["gc"]["page_write"] > 0

    def test_plain_device_has_no_taps(self):
        assert device_taps(FlashDevice(_config())) == ()
        timing = TimingModel("slc")
        device = TappedFlashDevice(_config(), timing=timing)
        assert device_taps(device) == (timing.record,)


class TestUnsupportedOverrideRejected:
    def test_flash_device_subclass_overriding_a_primitive(self):
        class CountingDevice(FlashDevice):
            __slots__ = ()

            def write_page_tagged(self, *args, **kwargs):
                return super().write_page_tagged(*args, **kwargs)

        with pytest.raises(TypeError, match="write_page_tagged"):
            GeckoFTL(CountingDevice(_config()))
        with pytest.raises(TypeError, match="write_page_tagged"):
            SimulationSession("DFTL", device=CountingDevice(_config()))
        device = CountingDevice(_config())
        with pytest.raises(TypeError, match="write_page_tagged"):
            FlashGeckoStorage(device, BlockManager(device))

    def test_tapped_subclass_overriding_a_primitive(self):
        class Tapped(TappedFlashDevice):
            __slots__ = ()

            def read_spare_logical(self, *args, **kwargs):
                return super().read_spare_logical(*args, **kwargs)

        with pytest.raises(TypeError, match="read_spare_logical"):
            GeckoFTL(Tapped(_config(), timing=TimingModel("slc")))

    def test_subclass_without_overrides_is_accepted(self):
        class Plain(FlashDevice):
            __slots__ = ()

        ftl = GeckoFTL(Plain(_config()))
        ftl.write(3, "x")
        assert ftl.read(3) == "x"


class TestRaisingHostOpClosesRequest:
    def test_failed_warmup_leaves_no_request_open(self):
        session = SimulationSession(
            "GeckoFTL(cache_capacity=32)",
            device=simulation_configuration(num_blocks=16, pages_per_block=8,
                                            page_size=256),
            timing="slc")
        with pytest.raises(DeviceFullError):
            session.warmup()
        timing = session.timing
        assert not timing.in_request
        requests = timing.requests
        session.read(0)
        assert timing.requests == requests + 1

    @pytest.mark.parametrize("entry", ["submit", "write"])
    def test_next_write_records_a_sample(self, entry, monkeypatch):
        session = SimulationSession("GeckoFTL(cache_capacity=32)",
                                    device=_config(), timing="slc")
        session.warmup()
        ftl = session.ftl

        def fail(logical, new_physical):
            raise RuntimeError("injected")
        monkeypatch.setattr(ftl, "_update_mapping_on_write", fail)
        with pytest.raises(RuntimeError, match="injected"):
            if entry == "submit":
                session.submit([Operation(OpKind.WRITE, 1, "a")])
            else:
                session.write(1, "a")
        timing = session.timing
        assert not timing.in_request
        monkeypatch.undo()
        requests = timing.requests
        session.write(2, "b")
        assert timing.requests == requests + 1
        assert timing.kind_sketches["write"].count >= 1

    @pytest.mark.parametrize("entry", ["read", "trim"])
    def test_raising_read_or_trim_closes_request(self, entry, monkeypatch):
        session = SimulationSession("GeckoFTL(cache_capacity=32)",
                                    device=_config(), timing="slc")
        session.warmup()

        def fail(logical, purpose=None):
            raise RuntimeError("injected")
        monkeypatch.setattr(session.ftl.translation_table, "lookup", fail)
        with pytest.raises(RuntimeError, match="injected"):
            getattr(session, entry)(5)
        assert not session.timing.in_request
        monkeypatch.undo()
        requests = session.timing.requests
        getattr(session, entry)(5)
        assert session.timing.requests == requests + 1
