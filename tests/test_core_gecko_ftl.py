"""Unit and behavioural tests for GeckoFTL."""

import pytest

from repro.core.gecko_ftl import GeckoFTL, GeckoValidityStore
from repro.flash.address import PhysicalAddress
from repro.flash.config import simulation_configuration
from repro.flash.device import FlashDevice
from repro.flash.stats import IOKind, IOPurpose
from repro.ftl.block_manager import BlockType
from repro.ftl.garbage_collector import VictimPolicy
from repro.workloads.base import fill_device
from repro.workloads.generators import UniformRandomWrites


@pytest.fixture
def ftl():
    config = simulation_configuration(num_blocks=96, pages_per_block=16,
                                      page_size=256)
    return GeckoFTL(FlashDevice(config), cache_capacity=128)


class TestBasicReadWrite:
    def test_read_of_never_written_page_is_none(self, ftl):
        assert ftl.read(17) is None

    def test_write_then_read(self, ftl):
        ftl.write(17, "payload")
        assert ftl.read(17) == "payload"

    def test_update_returns_newest_version(self, ftl):
        ftl.write(17, "v1")
        ftl.write(17, "v2")
        assert ftl.read(17) == "v2"

    def test_out_of_range_logical_rejected(self, ftl):
        with pytest.raises(ValueError):
            ftl.write(ftl.config.logical_pages, "x")
        with pytest.raises(ValueError):
            ftl.read(-1)

    def test_writes_land_on_user_blocks(self, ftl):
        address = ftl.write(3, "x")
        assert ftl.block_manager.block_type(address.block) is BlockType.USER

    def test_host_write_counted_once(self, ftl):
        ftl.write(1, "x")
        assert ftl.stats.host_writes == 1

    def test_trim_invalidates_mapping(self, ftl):
        ftl.write(9, "data")
        ftl.flush()
        ftl.trim(9)
        assert ftl.read(9) is None


class TestLazyInvalidIdentification:
    def test_write_miss_does_not_read_translation_table(self, ftl):
        fill_device(ftl)
        ftl.flush()
        # Force the mapping entry for page 0 out of the cache.
        ftl.cache.clear()
        reads_before = ftl.stats.total(IOKind.PAGE_READ, IOPurpose.TRANSLATION)
        ftl.write(0, "again")
        assert ftl.stats.total(IOKind.PAGE_READ,
                               IOPurpose.TRANSLATION) == reads_before

    def test_write_miss_sets_dirty_and_uip(self, ftl):
        ftl.cache.clear()
        ftl.write(5, "x")
        entry = ftl.cache.peek(5)
        assert entry.dirty and entry.uip

    def test_write_hit_reports_before_image_immediately(self, ftl):
        first = ftl.write(5, "x")
        updates_before = ftl.gecko.updates
        ftl.write(5, "y")
        assert ftl.gecko.updates == updates_before + 1
        assert first.page in ftl.gecko.gc_query(first.block)

    def test_uip_cleared_by_synchronization(self, ftl):
        ftl.write(5, "x")
        ftl.flush()
        ftl.cache.clear()
        ftl.write(5, "y")          # miss: dirty + UIP
        entry = ftl.cache.peek(5)
        assert entry.uip
        translation_page = ftl.cache.translation_page_of(5)
        ftl._synchronize_translation_page(translation_page)
        assert not entry.uip
        assert not entry.dirty

    def test_synchronization_identifies_flash_before_image(self, ftl):
        old_address = ftl.write(5, "x")
        ftl.flush()                 # flash now maps 5 -> old_address
        ftl.cache.clear()
        ftl.write(5, "y")           # miss: before-image unidentified
        assert old_address.page not in ftl.gecko.gc_query(old_address.block)
        ftl._synchronize_translation_page(ftl.cache.translation_page_of(5))
        assert old_address.page in ftl.gecko.gc_query(old_address.block)


class TestCheckpoints:
    def test_checkpoints_are_taken_periodically(self):
        config = simulation_configuration(num_blocks=96, pages_per_block=16,
                                          page_size=256)
        ftl = GeckoFTL(FlashDevice(config), cache_capacity=64,
                       checkpoint_period=50)
        fill_device(ftl, fraction=0.3)
        for i in range(200):
            ftl.write(i % 50, i)
        assert ftl.checkpoints_taken >= 3

    def test_checkpoint_synchronizes_lingering_dirty_entries(self):
        config = simulation_configuration(num_blocks=96, pages_per_block=16,
                                          page_size=256)
        ftl = GeckoFTL(FlashDevice(config), cache_capacity=256,
                       checkpoint_period=40)
        # Write one page, then keep writing others; the first page's dirty
        # entry lingers cold in the LRU queue until a checkpoint syncs it.
        ftl.write(700, "lingering")
        for i in range(120):
            ftl.write(i, i)
        entry = ftl.cache.peek(700)
        assert entry is not None
        assert not entry.dirty

    def test_checkpoint_period_defaults_to_cache_capacity(self, ftl):
        assert ftl.checkpoint_period == ftl.cache.capacity


class TestGarbageCollectionBehaviour:
    def test_gc_never_targets_metadata_blocks(self, ftl):
        fill_device(ftl)
        workload = UniformRandomWrites(ftl.config.logical_pages, seed=2)
        for operation in workload.operations(3000):
            ftl.write(operation.logical, operation.payload)
        assert ftl.garbage_collector.policy is VictimPolicy.METADATA_AWARE
        for candidate in ftl.garbage_collector._candidate_blocks():
            assert ftl.block_manager.block_type(candidate) is BlockType.USER

    def test_uip_pages_are_not_migrated(self, ftl):
        fill_device(ftl)
        # Rewrite a page so the old copy becomes a UIP, then force-collect
        # the block containing the old copy.
        ftl.flush()
        ftl.cache.clear()
        old_block = (ftl.translation_table.lookup(10)
                     // ftl.config.pages_per_block)
        ftl.write(10, "newer")      # miss: old copy is a UIP
        migrated_before = ftl.stats.total(IOKind.PAGE_WRITE, IOPurpose.GC)
        result = ftl.garbage_collector.collect_block(old_block)
        assert ftl.read(10) == "newer"
        assert result.victim_type is BlockType.USER

    def test_gc_preserves_all_data(self, ftl):
        fill_device(ftl)
        shadow = {}
        workload = UniformRandomWrites(ftl.config.logical_pages, seed=4)
        for operation in workload.operations(4000):
            ftl.write(operation.logical, operation.payload)
            shadow[operation.logical] = operation.payload
        for logical, payload in shadow.items():
            assert ftl.read(logical) == payload


class TestValidityStoreAdapter:
    def test_adapter_delegates_to_gecko(self, ftl):
        store = ftl.validity_store
        assert isinstance(store, GeckoValidityStore)
        store.mark_invalid(PhysicalAddress(3, 7))
        assert store.invalid_offsets(3) == {7}
        store.note_erase(3)
        assert store.invalid_offsets(3) == set()

    def test_ram_bytes_delegates(self, ftl):
        assert ftl.validity_store.ram_bytes() == ftl.gecko.ram_bytes()


class TestReporting:
    def test_describe_includes_gecko_tuning(self, ftl):
        summary = ftl.describe()
        assert summary["ftl"] == "GeckoFTL"
        assert summary["size_ratio"] == 2
        assert "partition_factor" in summary

    def test_ram_breakdown_has_expected_components(self, ftl):
        breakdown = ftl.ram_breakdown()
        assert {"gmd", "lru_cache", "validity", "bvc"} <= set(breakdown)

    def test_write_amplification_positive_after_workload(self, ftl):
        fill_device(ftl)
        workload = UniformRandomWrites(ftl.config.logical_pages, seed=6)
        for operation in workload.operations(1000):
            ftl.write(operation.logical, operation.payload)
        assert ftl.write_amplification() >= 1.0
