"""Tests for power failure and the GeckoRec recovery algorithm (Appendix C)."""

import random

import pytest

from repro.core.gecko_ftl import GeckoFTL
from repro.core.recovery import GeckoRecovery
from repro.flash.address import PhysicalAddress
from repro.flash.config import simulation_configuration
from repro.flash.device import FlashDevice
from repro.workloads.base import fill_device


def build_ftl(num_blocks=96, pages_per_block=16, page_size=256,
              cache_capacity=96, **kwargs):
    config = simulation_configuration(num_blocks=num_blocks,
                                      pages_per_block=pages_per_block,
                                      page_size=page_size)
    return GeckoFTL(FlashDevice(config), cache_capacity=cache_capacity,
                    **kwargs)


def run_random_updates(ftl, shadow, count, seed):
    rng = random.Random(seed)
    for i in range(count):
        logical = rng.randrange(ftl.config.logical_pages)
        payload = ("rec", logical, i, seed)
        ftl.write(logical, payload)
        shadow[logical] = payload


@pytest.fixture
def crashed_ftl():
    """An FTL that has been running for a while and then lost power."""
    ftl = build_ftl()
    fill_device(ftl)
    shadow = {logical: ("init", logical) for logical in
              range(ftl.config.logical_pages)}
    run_random_updates(ftl, shadow, 4000, seed=17)
    recovery = GeckoRecovery(ftl)
    recovery.simulate_power_failure()
    return ftl, shadow, recovery


class TestPowerFailure:
    def test_power_failure_clears_ram_structures(self):
        ftl = build_ftl()
        fill_device(ftl, fraction=0.5)
        recovery = GeckoRecovery(ftl)
        recovery.simulate_power_failure()
        assert len(ftl.cache) == 0
        assert all(location is None for location in ftl.translation_table.gmd)
        assert ftl.gecko.num_runs == 0
        assert all(ftl.bvc.valid_count(block) == 0
                   for block in range(ftl.config.num_blocks))

    def test_flash_contents_survive(self):
        ftl = build_ftl()
        ftl.write(3, "persisted")
        address = PhysicalAddress.from_linear(ftl.cache.peek(3).physical,
                                              ftl.config.pages_per_block)
        GeckoRecovery(ftl).simulate_power_failure()
        assert ftl.device.peek(address).data == "persisted"


class TestGeckoRec:
    def test_all_data_is_readable_after_recovery(self, crashed_ftl):
        ftl, shadow, recovery = crashed_ftl
        recovery.recover()
        mismatches = [logical for logical, payload in shadow.items()
                      if ftl.read(logical) != payload]
        assert mismatches == []

    def test_report_contains_all_steps(self, crashed_ftl):
        ftl, _shadow, recovery = crashed_ftl
        report = recovery.recover()
        names = [step.name for step in report.steps]
        assert names == ["step1_bid", "step2_gmd", "step3_run_directories",
                         "step4_buffer", "step5_bvc", "step6_dirty_entries"]

    def test_step1_costs_one_spare_read_per_nonfree_block(self, crashed_ftl):
        ftl, _shadow, recovery = crashed_ftl
        report = recovery.recover()
        step1 = report.steps[0]
        assert step1.spare_reads <= ftl.config.num_blocks
        assert step1.page_reads == 0

    def test_dirty_entry_scan_is_bounded_by_two_c(self, crashed_ftl):
        ftl, _shadow, recovery = crashed_ftl
        report = recovery.recover()
        step6 = report.steps[-1]
        # Bounded by 2*C spare reads plus at most one block of slack
        # (the scan finishes the block it is in when the budget runs out).
        slack = ftl.config.pages_per_block
        assert step6.spare_reads <= 2 * ftl.cache.capacity + slack

    def test_recovered_entries_bounded_by_cache_capacity(self, crashed_ftl):
        ftl, _shadow, recovery = crashed_ftl
        report = recovery.recover()
        assert report.recovered_mapping_entries <= ftl.cache.capacity
        assert report.recovered_mapping_entries > 0

    def test_recovered_entries_are_flagged_uncertain(self, crashed_ftl):
        ftl, _shadow, recovery = crashed_ftl
        recovery.recover()
        for entry in ftl.cache.entries():
            assert entry.dirty and entry.uip and entry.uncertain

    def test_run_directories_are_recovered(self, crashed_ftl):
        ftl, _shadow, recovery = crashed_ftl
        report = recovery.recover()
        assert report.recovered_runs == ftl.gecko.num_runs
        assert ftl.gecko.num_runs >= 1

    def test_recovery_does_not_write_user_data(self, crashed_ftl):
        ftl, _shadow, recovery = crashed_ftl
        report = recovery.recover()
        total_writes = sum(step.page_writes for step in report.steps)
        assert total_writes == 0

    def test_total_duration_is_positive_and_additive(self, crashed_ftl):
        _ftl, _shadow, recovery = crashed_ftl
        report = recovery.recover()
        assert report.total_duration_us > 0
        assert report.total_duration_us == pytest.approx(
            sum(step.duration_us for step in report.steps))

    def test_as_rows_round_trips_steps(self, crashed_ftl):
        _ftl, _shadow, recovery = crashed_ftl
        report = recovery.recover()
        rows = report.as_rows()
        assert len(rows) == len(report.steps)
        assert rows[0][0] == "step1_bid"


class TestOperationAfterRecovery:
    def test_writes_and_reads_continue_correctly(self, crashed_ftl):
        ftl, shadow, recovery = crashed_ftl
        recovery.recover()
        run_random_updates(ftl, shadow, 3000, seed=31)
        mismatches = [logical for logical, payload in shadow.items()
                      if ftl.read(logical) != payload]
        assert mismatches == []

    def test_uncertain_flags_are_cleared_by_later_syncs(self, crashed_ftl):
        ftl, shadow, recovery = crashed_ftl
        recovery.recover()
        run_random_updates(ftl, shadow, 2000, seed=32)
        ftl.flush()
        assert all(not entry.uncertain for entry in ftl.cache.entries())

    def test_repeated_failures_preserve_data(self):
        ftl = build_ftl()
        fill_device(ftl)
        shadow = {logical: ("init", logical)
                  for logical in range(ftl.config.logical_pages)}
        for cycle in range(3):
            run_random_updates(ftl, shadow, 1500, seed=100 + cycle)
            recovery = GeckoRecovery(ftl)
            recovery.simulate_power_failure()
            recovery.recover()
            mismatches = [logical for logical, payload in shadow.items()
                          if ftl.read(logical) != payload]
            assert mismatches == [], f"data lost after crash cycle {cycle}"

    def test_failure_immediately_after_recovery(self):
        ftl = build_ftl()
        fill_device(ftl)
        shadow = {logical: ("init", logical)
                  for logical in range(ftl.config.logical_pages)}
        run_random_updates(ftl, shadow, 1000, seed=55)
        first = GeckoRecovery(ftl)
        first.simulate_power_failure()
        first.recover()
        second = GeckoRecovery(ftl)
        second.simulate_power_failure()
        second.recover()
        mismatches = [logical for logical, payload in shadow.items()
                      if ftl.read(logical) != payload]
        assert mismatches == []

    def test_failure_on_idle_device(self):
        ftl = build_ftl()
        recovery = GeckoRecovery(ftl)
        recovery.simulate_power_failure()
        report = recovery.recover()
        assert report.recovered_mapping_entries == 0
        assert ftl.read(0) is None
