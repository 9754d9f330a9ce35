"""Tests for the multi-device data plane (repro.flash.device_array).

The load-bearing property: a ``DeviceArray(n=N)`` session's merged counters
must equal — exactly, counter for counter — what N independent
single-device sessions record when each replays the subsequence of the
host trace landing in its LPN range. Everything else (spec parsing, front
door routing, sweep rows) hangs off that contract.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    DeviceArray,
    DeviceArraySession,
    IOStats,
    SimulationSession,
    SweepPlan,
    UniformRandomWrites,
    run_sweep,
    simulation_configuration,
)
from repro.engine.plan import SweepTask, device_dict
from repro.flash.device_array import format_array_spec, parse_array_spec
from repro.ftl.operations import Operation, OpKind

#: Shard geometry small enough for property tests to iterate quickly.
TINY = dict(num_blocks=64, pages_per_block=8, page_size=256)

_STATS_SLOTS = ("page_read_counts", "page_write_counts",
                "block_erase_counts", "spare_read_counts",
                "spare_write_counts")


def tiny_config():
    return simulation_configuration(**TINY)


def assert_stats_equal(lhs: IOStats, rhs: IOStats) -> None:
    for slot in _STATS_SLOTS:
        assert getattr(lhs, slot) == getattr(rhs, slot), slot
    assert lhs.host_writes == rhs.host_writes
    assert lhs.host_reads == rhs.host_reads


class TestSpecParsing:
    def test_minimal_spec(self):
        device = parse_array_spec("array(n=4)")
        assert device["array_shards"] == 4
        base = simulation_configuration()
        assert device["num_blocks"] == base.num_blocks

    def test_spec_with_geometry_overrides(self):
        device = parse_array_spec(
            "array(n=2, num_blocks=96, pages_per_block=64)")
        assert device["array_shards"] == 2
        assert device["num_blocks"] == 96
        assert device["pages_per_block"] == 64

    def test_shards_alias(self):
        assert parse_array_spec("array(shards=3)")["array_shards"] == 3

    def test_round_trip_through_format(self):
        device = parse_array_spec("array(n=2, num_blocks=96)")
        assert parse_array_spec(format_array_spec(device)) == device

    @pytest.mark.parametrize("bad", [
        "array()",                      # no shard count
        "array(n=0)",                   # must be >= 1
        "array(n=2, bogus=1)",          # unknown field
        "array(n=2, num_blocks)",       # malformed argument
        "notanarray(n=2)",              # wrong prefix
    ])
    def test_malformed_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_array_spec(bad)


class TestDeviceArray:
    def test_address_routing(self):
        array = DeviceArray(tiny_config(), shards=4)
        pages = array.pages_per_shard
        assert array.logical_pages == 4 * pages
        assert array.shard_of(0) == 0
        assert array.shard_of(pages - 1) == 0
        assert array.shard_of(pages) == 1
        assert array.local_address(pages) == 0
        assert array.shard_of(4 * pages - 1) == 3
        with pytest.raises(ValueError):
            array.shard_of(4 * pages)
        with pytest.raises(ValueError):
            array.shard_of(-1)

    def test_needs_at_least_one_shard(self):
        with pytest.raises(ValueError):
            DeviceArray(tiny_config(), shards=0)

    def test_merged_stats_is_elementwise_sum(self):
        array = DeviceArray(tiny_config(), shards=2)
        from repro.flash.address import PhysicalAddress
        array.shards[0].write_page_tagged(PhysicalAddress(0, 0), 0)
        array.shards[1].write_page_tagged(PhysicalAddress(0, 0), 0)
        array.shards[1].write_page_tagged(PhysicalAddress(0, 1), 1)
        assert array.stats.page_writes == 3
        assert array.shard_stats()[0].page_writes == 1
        assert array.shard_stats()[1].page_writes == 2


class TestFrontDoorRouting:
    def test_spec_string_routes_to_array_session(self):
        with SimulationSession("GeckoFTL", device="array(n=2)") as session:
            assert isinstance(session, DeviceArraySession)
            assert len(session.sessions) == 2

    def test_device_dict_with_array_shards_routes(self):
        device = {**TINY, "array_shards": 2}
        with SimulationSession("GeckoFTL", device=device) as session:
            assert isinstance(session, DeviceArraySession)

    def test_ready_device_array_routes(self):
        array = DeviceArray(tiny_config(), shards=3)
        with SimulationSession("GeckoFTL", device=array) as session:
            assert isinstance(session, DeviceArraySession)
            assert session.array is array

    def test_plain_sessions_unaffected(self):
        with SimulationSession("GeckoFTL", device=tiny_config()) as session:
            assert type(session) is SimulationSession

    def test_bogus_string_still_type_error(self):
        with pytest.raises(TypeError):
            SimulationSession("GeckoFTL", device="not-a-device")

    def test_timing_rejected(self):
        with pytest.raises(ValueError, match="single-device"):
            SimulationSession("GeckoFTL", device="array(n=2)", timing="slc")

    def test_obs_rejected(self):
        with pytest.raises(ValueError, match="single-device"):
            SimulationSession("GeckoFTL", device="array(n=2)", obs="trace")

    def test_obs_false_means_off(self):
        with SimulationSession("GeckoFTL", device="array(n=2)",
                               obs=False) as session:
            assert isinstance(session, DeviceArraySession)
            assert session.obs is None

    def test_built_ftl_rejected(self):
        from repro import GeckoFTL, FlashDevice
        ftl = GeckoFTL(FlashDevice(tiny_config()), cache_capacity=32)
        with pytest.raises(TypeError, match="per shard"):
            SimulationSession(ftl, device="array(n=2)")

    def test_crash_and_recover_rejected(self):
        with SimulationSession("GeckoFTL", device="array(n=2)") as session:
            with pytest.raises(NotImplementedError):
                session.crash()
            with pytest.raises(NotImplementedError):
                session.recover()


def _sharded_replay(shards, operations, pages_per_shard, ftl="GeckoFTL",
                    cache=64):
    """N independent single-device sessions, each fed its LPN subsequence."""
    singles = [SimulationSession(ftl, device=tiny_config(),
                                 ftl_kwargs={"cache_capacity": cache})
               for _ in range(shards)]
    for session in singles:
        session.warmup()
    for index, session in enumerate(singles):
        subsequence = [
            Operation(op.kind, op.logical - index * pages_per_shard,
                      op.payload)
            for op in operations
            if op.logical // pages_per_shard == index]
        if subsequence:
            session.submit(subsequence)
    return singles


class TestMergedStatsEquivalence:
    """The ISSUE's acceptance property, as a hypothesis test over seeds."""

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_array_equals_independent_sessions(self, seed):
        shards = 4
        array_session = SimulationSession(
            "GeckoFTL", device=f"array(n={shards}, "
            f"num_blocks={TINY['num_blocks']}, "
            f"pages_per_block={TINY['pages_per_block']}, "
            f"page_size={TINY['page_size']})",
            ftl_kwargs={"cache_capacity": 64})
        array_session.warmup()
        workload = UniformRandomWrites(array_session.config.logical_pages,
                                       seed=seed)
        operations = list(workload.operations(600))
        singles = _sharded_replay(shards, operations,
                                  array_session.array.pages_per_shard)
        array_session.submit(operations)
        merged = IOStats.merged(session.stats for session in singles)
        assert_stats_equal(array_session.stats, merged)
        for shard_session, single in zip(array_session.sessions, singles):
            assert_stats_equal(shard_session.stats, single.stats)

    def test_run_matches_submit_accounting(self):
        with SimulationSession("GeckoFTL", device="array(n=2)",
                               interval_writes=500) as session:
            session.warmup()
            workload = UniformRandomWrites(session.config.logical_pages,
                                           seed=3)
            result = session.run(workload, 1200)
        assert result.operations_executed == 1200
        assert result.host_writes == 1200
        assert [m.host_writes for m in result.intervals] == [500, 500, 200]


class TestHostIO:
    def test_read_write_trim_route_across_shards(self):
        with SimulationSession("GeckoFTL", device="array(n=2)") as session:
            pages = session.array.pages_per_shard
            session.write(1, data="shard0")
            session.write(pages + 1, data="shard1")
            assert session.read(1) == "shard0"
            assert session.read(pages + 1) == "shard1"
            assert session.sessions[0].stats.host_writes == 1
            assert session.sessions[1].stats.host_writes == 1
            session.trim(pages + 1)
            assert session.read(pages + 1) is None

    def test_submit_collect_payloads_preserves_order(self):
        with SimulationSession("GeckoFTL", device="array(n=2)") as session:
            pages = session.array.pages_per_shard
            logicals = [pages + 5, 3, pages + 1, 7]
            session.submit([Operation(OpKind.WRITE, logical,
                                      f"v{logical}")
                            for logical in logicals])
            result = session.submit(
                [Operation(OpKind.READ, logical) for logical in logicals],
                collect_payloads=True)
            assert result.payloads == [f"v{logical}" for logical in logicals]

    def test_warmup_fills_every_shard(self):
        session = SimulationSession("GeckoFTL", device="array(n=3)")
        pages = session.warmup(reset_stats=False)
        assert pages == session.config.logical_pages
        for shard_session in session.sessions:
            assert shard_session.stats.host_writes \
                == session.array.pages_per_shard


class TestSnapshotAndRows:
    def test_snapshot_carries_shard_breakdowns(self):
        with SimulationSession("GeckoFTL", device="array(n=2)") as session:
            session.warmup()
            workload = UniformRandomWrites(session.config.logical_pages,
                                           seed=9)
            session.run(workload, 800)
            snapshot = session.snapshot()
        assert snapshot.shards is not None and len(snapshot.shards) == 2
        assert sum(shard["host_writes"] for shard in snapshot.shards) == 800
        assert snapshot.ftl_description["array_shards"] == 2
        row = snapshot.row()
        assert row["array_shards"] == 2
        assert row["shard_wa_max"] >= snapshot.write_amplification or \
            row["shard_wa_max"] == pytest.approx(
                snapshot.write_amplification, rel=0.05)

    def test_plain_snapshot_rows_unchanged(self):
        with SimulationSession("GeckoFTL", device=tiny_config()) as session:
            session.warmup()
            row = session.snapshot().row()
        assert "array_shards" not in row
        assert "shard_wa_max" not in row


class TestSweepIntegration:
    def test_device_dict_accepts_spec_string(self):
        device = device_dict("array(n=2, num_blocks=96)")
        assert device["array_shards"] == 2
        assert device["num_blocks"] == 96
        assert list(device)[-1] == "array_shards"

    def test_device_dict_single_device_shape_unchanged(self):
        assert "array_shards" not in device_dict(num_blocks=96)

    def test_task_routing_and_row_columns(self):
        task = SweepTask(ftl="GeckoFTL", workload="UniformRandomWrites",
                         device="array(n=2)", cache_capacity=64, seed=1,
                         write_operations=400, interval_writes=200)
        assert task.device["array_shards"] == 2
        from repro.engine.executor import execute_task
        row = execute_task(task)
        assert row["array_shards"] == 2
        assert len(row["shards"]) == 2
        assert sum(shard["host_writes"] for shard in row["shards"]) \
            == row["host_writes"]

    def test_rows_byte_identical_across_worker_counts(self):
        plan = SweepPlan(ftls=["GeckoFTL"],
                         workloads=["UniformRandomWrites"],
                         devices=["array(n=2)"], cache_capacities=[64],
                         seeds=[42], write_operations=400,
                         interval_writes=200)
        volatile = ("elapsed_s", "wall_seconds", "ops_per_sec", "worker_pid")

        def canonical(row):
            return json.dumps({key: value for key, value in row.items()
                               if key not in volatile}, sort_keys=True)

        serial = run_sweep(plan, backend="serial")
        pooled = run_sweep(plan, backend="pool(workers=2)")
        assert [canonical(row) for row in serial.rows] \
            == [canonical(row) for row in pooled.rows]

    def test_crash_plans_rejected_for_arrays(self):
        task = SweepTask(ftl="GeckoFTL", workload="UniformRandomWrites",
                         device="array(n=2)", cache_capacity=64, seed=1,
                         write_operations=400, interval_writes=200,
                         crash="after_ops=100")
        from repro.engine.executor import execute_task
        with pytest.raises(ValueError, match="single-device"):
            execute_task(task)
