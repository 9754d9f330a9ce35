"""Unit tests for the flash-resident translation table and the GMD.

Mapping entries are linear physical page numbers
(``block * pages_per_block + page``); ``page(block, offset)`` spells one.
"""

import gc
from array import array
from types import SimpleNamespace

import pytest

from repro.bench.harness import build_ftl
from repro.flash.address import PhysicalAddress
from repro.flash.config import (MAPPING_ENTRY_BYTES, DeviceConfig,
                                simulation_configuration)
from repro.flash.device import FlashDevice
from repro.flash.stats import IOKind, IOPurpose
from repro.ftl.block_manager import BlockManager, BlockType
from repro.ftl.translation_table import (UNMAPPED, TranslationPageContent,
                                         TranslationTable)
from repro.workloads.base import fill_device
from repro.workloads.generators import UniformRandomWrites

PAGES_PER_BLOCK = 8


def page(block, offset):
    """Linear physical page number of ``(block, offset)``."""
    return PhysicalAddress(block, offset).to_linear(PAGES_PER_BLOCK)


@pytest.fixture
def setup():
    device = FlashDevice(simulation_configuration(
        num_blocks=32, pages_per_block=PAGES_PER_BLOCK, page_size=256))
    manager = BlockManager(device)
    table = TranslationTable(device, manager)
    return device, manager, table


class TestGeometry:
    def test_translation_page_of_follows_entries_per_page(self, setup):
        _device, _manager, table = setup
        entries = table.entries_per_page
        assert table.translation_page_of(0) == 0
        assert table.translation_page_of(entries - 1) == 0
        assert table.translation_page_of(entries) == 1

    def test_gmd_ram_bytes(self, setup):
        _device, _manager, table = setup
        assert table.gmd_ram_bytes == 4 * table.num_translation_pages


class TestReadsAndWrites:
    def test_lookup_before_any_write_is_none_and_free(self, setup):
        device, _manager, table = setup
        before = device.stats.page_reads
        assert table.lookup(5) is None
        assert device.stats.page_reads == before  # nothing to read yet

    def test_apply_updates_then_lookup(self, setup):
        _device, _manager, table = setup
        table.apply_updates(0, {3: page(7, 2)})
        assert table.lookup(3) == page(7, 2)

    def test_apply_updates_returns_old_and_new_content(self, setup):
        _device, _manager, table = setup
        table.apply_updates(0, {1: page(1, 1)})
        old, new = table.apply_updates(0, {1: page(2, 2)})
        assert old.entries[1] == page(1, 1)
        assert new.entries[1] == page(2, 2)
        assert table.lookup(1) == page(2, 2)

    def test_unmapped_slot_reads_minus_one(self, setup):
        _device, _manager, table = setup
        _old, new = table.apply_updates(0, {1: page(1, 1)})
        assert new.entries[2] == UNMAPPED == -1
        assert table.lookup(2) is None
        assert table.lookup(1) == page(1, 1)

    def test_lookup_batch_agrees_with_lookup(self, setup):
        _device, _manager, table = setup
        entries = table.entries_per_page
        table.apply_updates(0, {1: page(1, 1), 3: page(4, 0)})
        table.apply_updates(2, {2 * entries: page(5, 7)})
        logicals = [0, 1, 3, entries, 2 * entries, 2 * entries + 1, 1]
        batch = table.lookup_batch(logicals)
        assert batch == {logical: table.lookup(logical)
                         for logical in logicals}
        assert batch[3] == page(4, 0)
        assert batch[entries] is None

    def test_updates_are_out_of_place(self, setup):
        _device, manager, table = setup
        table.apply_updates(0, {1: page(1, 1)})
        first_location = table.location_of(0)
        table.apply_updates(0, {2: page(2, 2)})
        second_location = table.location_of(0)
        assert first_location != second_location
        assert manager.metadata_invalid_count(first_location.block) >= 1

    def test_old_entries_survive_partial_update(self, setup):
        _device, _manager, table = setup
        table.apply_updates(0, {1: page(1, 1)})
        table.apply_updates(0, {2: page(2, 2)})
        assert table.lookup(1) == page(1, 1)

    def test_translation_pages_live_on_translation_blocks(self, setup):
        _device, manager, table = setup
        table.apply_updates(0, {1: page(1, 1)})
        location = table.location_of(0)
        assert manager.block_type(location.block) is BlockType.TRANSLATION

    def test_io_is_charged_to_translation_purpose(self, setup):
        device, _manager, table = setup
        table.apply_updates(0, {1: page(1, 1)})
        table.lookup(1)
        assert device.stats.total(IOKind.PAGE_WRITE, IOPurpose.TRANSLATION) == 1
        assert device.stats.total(IOKind.PAGE_READ, IOPurpose.TRANSLATION) >= 1


class TestContent:
    def test_entries_are_a_flat_array_of_mapping_entries(self, setup):
        _device, _manager, table = setup
        content = table.read_translation_page(0)
        assert isinstance(content.entries, array)
        assert content.entries.itemsize == MAPPING_ENTRY_BYTES
        assert len(content.entries) == table.entries_per_page
        assert set(content.entries) == {UNMAPPED}

    def test_copy_is_independent_of_the_original(self, setup):
        _device, _manager, table = setup
        _old, original = table.apply_updates(0, {1: page(1, 1)})
        duplicate = original.copy()
        assert duplicate == original
        duplicate.entries[1] = page(3, 3)
        duplicate.entries[2] = page(3, 4)
        assert original.entries[1] == page(1, 1)
        assert original.entries[2] == UNMAPPED
        assert table.lookup(1) == page(1, 1)

    def test_read_translation_page_returns_a_private_copy(self, setup):
        _device, _manager, table = setup
        table.apply_updates(0, {1: page(1, 1)})
        content = table.read_translation_page(0)
        content.entries[1] = page(6, 6)
        assert table.lookup(1) == page(1, 1)

    def test_oversized_device_is_rejected(self):
        # Linear page numbers must fit a signed 4-byte entry. The table
        # checks the geometry before it touches the device, so a stand-in
        # carrying only the config is enough (no 2**31-page device is built).
        def table_on(num_blocks):
            config = DeviceConfig(num_blocks=num_blocks, pages_per_block=1,
                                  page_size=16384)
            return TranslationTable(SimpleNamespace(config=config), None)

        with pytest.raises(ValueError, match="physical pages"):
            table_on(1 << 31)
        largest = table_on((1 << 31) - 1)
        assert largest.entries_per_page == 16384 // MAPPING_ENTRY_BYTES


class TestTrim:
    def test_trim_clears_the_slot(self):
        config = simulation_configuration(num_blocks=32,
                                          pages_per_block=PAGES_PER_BLOCK,
                                          page_size=256)
        ftl = build_ftl("DFTL", FlashDevice(config), cache_capacity=16)
        ftl.write(5, "five")
        ftl.write(6, "six")
        ftl.flush()
        table = ftl.translation_table
        assert table.lookup(5) is not None
        ftl.trim(5)
        content = table.read_translation_page(table.translation_page_of(5))
        assert content.entries[5 % table.entries_per_page] == UNMAPPED
        assert table.lookup(5) is None
        assert table.lookup(6) is not None
        assert ftl.read(5) is None
        assert ftl.read(6) == "six"


def _stored_translation_pages(device):
    return [data for block in device.blocks for data in block._data.values()
            if isinstance(data, TranslationPageContent)]


@pytest.mark.parametrize("ftl_name", ["GeckoFTL", "DFTL"])
def test_stored_pages_are_packed_and_untracked(ftl_name):
    """The packed representation itself, checked without timing anything."""
    config = simulation_configuration(num_blocks=64,
                                      pages_per_block=PAGES_PER_BLOCK,
                                      page_size=256)
    ftl = build_ftl(ftl_name, FlashDevice(config), cache_capacity=32)
    fill_device(ftl)
    workload = UniformRandomWrites(config.logical_pages, seed=3)
    for batch in workload.batches(2000, 250):
        ftl.submit(batch)
    stored = _stored_translation_pages(ftl.device)
    assert stored
    for content in stored:
        assert type(content.entries) is array
        assert content.entries.itemsize == MAPPING_ENTRY_BYTES
        # The entries are a leaf for the cyclic collector: the array holds
        # raw ints, so the collector visits no object inside it (only its
        # type; ``array`` has been a GC heap type since CPython 3.10).
        assert all(isinstance(referent, type)
                   for referent in gc.get_referents(content.entries))
    cached = list(ftl.cache.entries())
    assert cached
    assert not any(isinstance(entry.physical, tuple) for entry in cached)
    assert all(type(entry.physical) is int for entry in cached)


class TestMigrationAndRecovery:
    def test_migrate_translation_page_updates_gmd(self, setup):
        _device, manager, table = setup
        table.apply_updates(0, {1: page(1, 1)})
        old_location = table.location_of(0)
        new_location = table.migrate_translation_page(old_location)
        assert table.location_of(0) == new_location
        assert new_location != old_location
        assert table.lookup(1) == page(1, 1)

    def test_reset_ram_state_drops_gmd(self, setup):
        _device, _manager, table = setup
        table.apply_updates(0, {1: page(1, 1)})
        table.reset_ram_state()
        assert table.location_of(0) is None

    def test_restore_gmd_roundtrip(self, setup):
        _device, _manager, table = setup
        table.apply_updates(0, {1: page(1, 1)})
        saved = list(table.gmd)
        table.reset_ram_state()
        table.restore_gmd(saved)
        assert table.lookup(1) == page(1, 1)

    def test_restore_gmd_rejects_wrong_length(self, setup):
        _device, _manager, table = setup
        with pytest.raises(ValueError):
            table.restore_gmd([None])
