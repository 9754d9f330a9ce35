"""Unit tests for the flash device, blocks, pages, and NAND constraints."""

import pytest

from repro.flash.address import PhysicalAddress
from repro.flash.block import FlashBlock
from repro.flash.config import simulation_configuration
from repro.flash.device import FlashDevice, TappedFlashDevice
from repro.flash.errors import (
    BlockWornOutError,
    InvalidAddressError,
    NonSequentialWriteError,
    ReadFreePageError,
    WriteToNonFreePageError,
)
from repro.flash.page import PageState, SpareArea
from repro.flash.stats import IOKind, IOPurpose
from repro.obs import Observer, ObsSpec


@pytest.fixture
def device():
    return FlashDevice(simulation_configuration(num_blocks=8,
                                                pages_per_block=4,
                                                page_size=256))


class TestAddressing:
    def test_linear_roundtrip(self):
        address = PhysicalAddress(3, 5)
        assert PhysicalAddress.from_linear(address.to_linear(16), 16) == address

    def test_linear_is_block_major(self):
        assert PhysicalAddress(2, 1).to_linear(8) == 17

    def test_str_is_compact(self):
        assert str(PhysicalAddress(1, 2)) == "P(1,2)"

    def test_out_of_range_block_rejected(self, device):
        with pytest.raises(InvalidAddressError):
            device.read_page(PhysicalAddress(100, 0))

    def test_out_of_range_page_rejected(self, device):
        with pytest.raises(InvalidAddressError):
            device.write_page(PhysicalAddress(0, 100), "x")


class TestWriteReadErase:
    def test_write_then_read_returns_data(self, device):
        address = PhysicalAddress(0, 0)
        device.write_page(address, "hello",
                          spare=SpareArea(logical_address=7))
        page = device.read_page(address)
        assert page.data == "hello"
        assert page.spare.logical_address == 7

    def test_read_of_free_page_is_an_error(self, device):
        with pytest.raises(ReadFreePageError):
            device.read_page(PhysicalAddress(0, 0))

    def test_overwrite_without_erase_is_an_error(self, device):
        address = PhysicalAddress(0, 0)
        device.write_page(address, "a")
        with pytest.raises(WriteToNonFreePageError):
            device.write_page(address, "b")

    def test_writes_must_be_sequential_within_block(self, device):
        with pytest.raises(NonSequentialWriteError):
            device.write_page(PhysicalAddress(0, 2), "skip")

    def test_erase_frees_all_pages(self, device):
        for offset in range(4):
            device.write_page(PhysicalAddress(1, offset), offset)
        device.erase_block(1)
        block = device.block(1)
        assert block.is_erased
        assert all(page.is_free for page in block.pages)

    def test_write_after_erase_is_allowed(self, device):
        address = PhysicalAddress(2, 0)
        device.write_page(address, "first")
        device.erase_block(2)
        device.write_page(address, "second")
        assert device.read_page(address).data == "second"

    def test_write_clock_monotonic_in_spare(self, device):
        spare_a = device.write_page(PhysicalAddress(0, 0), "a")
        spare_b = device.write_page(PhysicalAddress(0, 1), "b")
        assert spare_b.write_timestamp > spare_a.write_timestamp

    def test_spare_read_does_not_require_data_read(self, device):
        device.write_page(PhysicalAddress(0, 0), "a",
                          spare=SpareArea(logical_address=99))
        assert device.read_spare(PhysicalAddress(0, 0)).logical_address == 99

    def test_peek_charges_no_io(self, device):
        device.write_page(PhysicalAddress(0, 0), "a")
        before = device.stats.page_reads
        device.peek(PhysicalAddress(0, 0))
        assert device.stats.page_reads == before


class TestBlockLifetime:
    def test_block_wears_out(self):
        block = FlashBlock(block_id=0, pages_per_block=2, max_erase_count=3)
        for _ in range(3):
            block.erase()
        with pytest.raises(BlockWornOutError):
            block.erase()

    def test_remaining_lifetime_counts_down(self):
        block = FlashBlock(block_id=0, pages_per_block=2, max_erase_count=5)
        block.erase()
        block.erase()
        assert block.remaining_lifetime == 3

    def test_free_and_written_page_counts(self, device):
        device.write_page(PhysicalAddress(0, 0), "a")
        device.write_page(PhysicalAddress(0, 1), "b")
        block = device.block(0)
        assert block.written_pages == 2
        assert block.free_pages == 2

    def test_page_state_transitions(self, device):
        page = device.block(0).pages[0]
        assert page.state is PageState.FREE
        device.write_page(PhysicalAddress(0, 0), "a")
        assert page.state is PageState.WRITTEN


class TestFastPaths:
    """The tagged fast paths must charge and behave like the object API."""

    def test_write_page_tagged_stores_tags_and_charges(self, device):
        timestamp = device.write_page_tagged(
            PhysicalAddress(0, 0), data="payload", logical=11,
            block_type="user", payload={"k": 1}, purpose=IOPurpose.USER)
        assert timestamp == device.write_clock
        spare = device.peek(PhysicalAddress(0, 0)).spare
        assert spare.logical_address == 11
        assert spare.write_timestamp == timestamp
        assert spare.block_type == "user"
        assert spare.payload == {"k": 1}
        assert device.stats.total(IOKind.PAGE_WRITE, IOPurpose.USER) == 1

    def test_read_page_data_matches_read_page(self, device):
        device.write_page(PhysicalAddress(0, 0), "hello")
        assert device.read_page_data(PhysicalAddress(0, 0)) == "hello"
        assert device.stats.page_reads == 1

    def test_read_page_data_free_page_is_an_error(self, device):
        with pytest.raises(ReadFreePageError):
            device.read_page_data(PhysicalAddress(0, 0))

    def test_read_page_record_returns_data_and_logical(self, device):
        device.write_page_tagged(PhysicalAddress(1, 0), data="d", logical=42)
        assert device.read_page_record(PhysicalAddress(1, 0)) == ("d", 42)
        assert device.stats.page_reads == 1

    def test_read_spare_logical_charges_a_spare_read(self, device):
        device.write_page_tagged(PhysicalAddress(0, 0), logical=5)
        assert device.read_spare_logical(PhysicalAddress(0, 0)) == 5
        assert device.stats.spare_reads == 1

    def test_read_spare_logical_of_untagged_or_free_page(self, device):
        device.write_page(PhysicalAddress(0, 0), "x")
        assert device.read_spare_logical(PhysicalAddress(0, 0)) is None
        assert device.read_spare_logical(PhysicalAddress(0, 1)) is None

    def test_tagged_write_enforces_nand_constraints(self, device):
        device.write_page_tagged(PhysicalAddress(0, 0))
        with pytest.raises(WriteToNonFreePageError):
            device.write_page_tagged(PhysicalAddress(0, 0))
        with pytest.raises(NonSequentialWriteError):
            device.write_page_tagged(PhysicalAddress(0, 3))
        with pytest.raises(InvalidAddressError):
            device.write_page_tagged(PhysicalAddress(99, 0))


class _TapLog:
    """Stand-in clock and observer that log each tap call in one list."""

    def __init__(self, log, name):
        self.log, self.name = log, name

    def record(self, kind, block, purpose):
        self.log.append((self.name, kind, block, purpose))

    on_flash_op = record

    def bind_device(self, device):
        pass


def _block_columns(device, block_id):
    block = device.blocks[block_id]
    return (block.next_free_offset, list(block._state_words),
            list(block._logical), list(block._timestamp),
            bytes(block._type_code), dict(block._data), dict(block._payload))


class TestTappedDevice:
    """The tapped device feeds its taps without altering the IO stream."""

    @pytest.fixture
    def config(self):
        return simulation_configuration(num_blocks=8, pages_per_block=4,
                                        page_size=256)

    def test_every_primitive_taps_clock_then_observer(self, config):
        log = []
        device = TappedFlashDevice(config, timing=_TapLog(log, "timing"),
                                   obs=_TapLog(log, "obs"))
        address = PhysicalAddress(1, 0)
        device.write_page_tagged(address, "d", logical=3,
                                 purpose=IOPurpose.USER)
        device.read_page(address, IOPurpose.GC)
        device.read_page_data(address, IOPurpose.GC)
        device.read_page_record(address, IOPurpose.GC)
        device.read_spare(address, IOPurpose.RECOVERY)
        device.read_spare_logical(address, IOPurpose.RECOVERY)
        device.erase_block(1, IOPurpose.GC)
        kinds = [IOKind.PAGE_WRITE] + [IOKind.PAGE_READ] * 3 \
            + [IOKind.SPARE_READ] * 2 + [IOKind.BLOCK_ERASE]
        purposes = [IOPurpose.USER] + [IOPurpose.GC] * 3 \
            + [IOPurpose.RECOVERY] * 2 + [IOPurpose.GC]
        assert log == [(name, kind, 1, purpose)
                       for kind, purpose in zip(kinds, purposes)
                       for name in ("timing", "obs")]

    def test_failed_operation_is_not_tapped(self, config):
        log = []
        device = TappedFlashDevice(config, timing=_TapLog(log, "timing"))
        with pytest.raises(ReadFreePageError):
            device.read_page_data(PhysicalAddress(0, 0))
        assert log == []

    def test_batch_write_matches_plain_batch(self, config):
        log = []
        observer = Observer(ObsSpec.preset("trace"))
        tapped = TappedFlashDevice(config, timing=_TapLog(log, "timing"),
                                   obs=observer)
        plain = FlashDevice(config)
        for device in (plain, tapped):
            device.write_page_tagged(PhysicalAddress(2, 0), "first")
        run = dict(logicals=[-1, 7, 9], datas=["a", None, "c"],
                   block_type="user", purpose=IOPurpose.USER)
        assert tapped.write_pages_tagged(2, **run) \
            == plain.write_pages_tagged(2, **run) == 2
        assert tapped.stats.breakdown() == plain.stats.breakdown()
        assert tapped.write_clock == plain.write_clock == 4
        assert _block_columns(tapped, 2) == _block_columns(plain, 2)
        # One clock record and one traced flash event per page of the run.
        assert log == [("timing", IOKind.PAGE_WRITE, 2, IOPurpose.OTHER)] \
            + [("timing", IOKind.PAGE_WRITE, 2, IOPurpose.USER)] * 3
        assert observer.trace.summary()["page_write"] == 4

    def test_empty_batch_write_matches_plain_batch(self, config):
        log = []
        tapped = TappedFlashDevice(config, timing=_TapLog(log, "timing"))
        plain = FlashDevice(config)
        assert tapped.write_pages_tagged(0, []) \
            == plain.write_pages_tagged(0, []) == 1
        assert tapped.stats.breakdown() == plain.stats.breakdown()
        assert tapped.write_clock == plain.write_clock == 0
        assert log == []


def _snapshot_container_objects(snapshot) -> int:
    """Python objects making up a snapshot's structure.

    Counts the per-block column buffers and the entries of the sparse
    payload dictionaries — i.e. everything the snapshot allocates.
    """
    total = 1
    for block in snapshot.blocks:
        total += 1            # the per-block snapshot record
        total += 4            # state / logical / timestamp / type_code
        total += 2            # the two sparse dictionaries
        total += len(block.data) + len(block.payload)
    return total


class TestFlashSnapshot:
    def test_snapshot_restore_roundtrip(self, device):
        device.write_page(PhysicalAddress(0, 0), "keep",
                          spare=SpareArea(logical_address=3))
        snapshot = device.snapshot_flash_state()
        device.write_page(PhysicalAddress(0, 1), "later")
        device.erase_block(1)
        clock_at_snapshot = snapshot.write_clock
        device.restore_flash_state(snapshot)
        assert device.write_clock == clock_at_snapshot
        assert device.read_page(PhysicalAddress(0, 0)).data == "keep"
        assert device.peek(PhysicalAddress(0, 1)).is_free
        assert device.block(1).erase_count == 0

    def test_snapshot_is_independent_of_later_writes(self, device):
        snapshot = device.snapshot_flash_state()
        device.write_page(PhysicalAddress(0, 0), "after")
        assert snapshot.blocks[0].next_free_offset == 0

    def test_restore_rejects_other_geometry(self, device):
        other = FlashDevice(simulation_configuration(num_blocks=4,
                                                     pages_per_block=4,
                                                     page_size=256))
        with pytest.raises(ValueError):
            device.restore_flash_state(other.snapshot_flash_state())

    def test_restore_rejects_same_blocks_different_pages(self, device):
        # Same block count but a different pages-per-block must be rejected,
        # not silently resize the column buffers.
        other = FlashDevice(simulation_configuration(num_blocks=8,
                                                     pages_per_block=8,
                                                     page_size=256))
        with pytest.raises(ValueError):
            device.restore_flash_state(other.snapshot_flash_state())

    def test_snapshot_objects_scale_with_blocks_not_pages(self):
        """Regression: snapshotting is O(pages) byte copies, O(blocks) objects.

        The historical failure mode is a per-page object walk (deep copy of
        a ``FlashPage``/``SpareArea`` graph). Payload-free devices with 8x
        more pages per block must snapshot into the exact same number of
        Python objects.
        """
        counts = {}
        for pages_per_block in (8, 64):
            config = simulation_configuration(num_blocks=16,
                                              pages_per_block=pages_per_block,
                                              page_size=256)
            device = FlashDevice(config)
            for block in range(config.num_blocks):
                for page in range(pages_per_block):
                    device.write_page_tagged(PhysicalAddress(block, page),
                                             logical=page)
            counts[pages_per_block] = _snapshot_container_objects(
                device.snapshot_flash_state())
        assert counts[8] == counts[64]

    def test_power_failure_does_not_deep_copy_payload_objects(self, device):
        """Regression: the power-failure path must not clone page payloads.

        Flash holds object *references*; a power failure (an array-snapshot
        round trip) must preserve identity — a deep copy of the device would
        be O(pages x objects) and would break payload identity.
        """
        payload = {"big": list(range(8))}
        device.write_page(PhysicalAddress(0, 0), payload)
        device.simulate_power_failure()
        assert device.read_page(PhysicalAddress(0, 0)).data is payload


class TestAccounting:
    def test_reads_and_writes_are_counted(self, device):
        device.write_page(PhysicalAddress(0, 0), "a", purpose=IOPurpose.USER)
        device.read_page(PhysicalAddress(0, 0), purpose=IOPurpose.GC)
        device.read_spare(PhysicalAddress(0, 0), purpose=IOPurpose.RECOVERY)
        device.erase_block(0, purpose=IOPurpose.GC)
        stats = device.stats
        assert stats.total(IOKind.PAGE_WRITE, IOPurpose.USER) == 1
        assert stats.total(IOKind.PAGE_READ, IOPurpose.GC) == 1
        assert stats.total(IOKind.SPARE_READ, IOPurpose.RECOVERY) == 1
        assert stats.total(IOKind.BLOCK_ERASE, IOPurpose.GC) == 1

    def test_free_and_written_page_totals(self, device):
        device.write_page(PhysicalAddress(0, 0), "a")
        total = device.config.physical_pages
        assert device.written_page_count() == 1
        assert device.free_page_count() == total - 1

    def test_power_failure_preserves_flash_contents(self, device):
        device.write_page(PhysicalAddress(0, 0), "survives")
        device.simulate_power_failure()
        assert device.read_page(PhysicalAddress(0, 0)).data == "survives"
