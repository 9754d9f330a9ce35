"""The simulated NAND flash device.

``FlashDevice`` is the substrate every FTL in this repository runs against.
It enforces the NAND idiosyncrasies the paper lists in Section 2 — page-
granularity access, erase-before-write, sequential programming within a
block, bounded block lifetime — and it charges every operation to the
:class:`~repro.flash.stats.IOStats` ledger so experiments can measure
write-amplification and recovery cost exactly as the paper does.

The device knows nothing about logical addresses, validity, or garbage
collection; those are FTL concerns. It exposes raw page reads/writes,
spare-area reads, and block erases.

Hot-path design: page state lives in the blocks' flat columns (see
:mod:`repro.flash.block`), geometry bounds are precomputed integers, and IO
accounting is a single inline dictionary increment. Two API tiers sit on
top of the same columns:

* the historical object API (``read_page`` returning a :class:`FlashPage`
  view, ``write_page`` taking/returning :class:`SpareArea`), kept for tests,
  recovery code, and external callers;
* *tagged* fast paths (``write_page_tagged``, ``read_page_data``,
  ``read_page_record``, ``read_spare_logical``) that move the decomposed
  column values directly, skipping value-object materialization. The FTL
  read/write/GC hot loops use these.

:class:`TappedFlashDevice` is the one subclass: it feeds every charged
operation to the timing clock and/or the observer. The FTL's fused write,
synchronization and GC-migration loops and Gecko's page storage poke the
columns directly on plain and tapped devices alike; they fetch the tap
tuple once with :func:`device_taps` and call each tap at the point the
overrides would.
"""

from __future__ import annotations

from array import array
from typing import Any, Iterator, List, Optional, Tuple

from .address import PhysicalAddress
from .block import _TYPE_CODES, FlashBlock, _intern_block_type
from .config import DeviceConfig
from .errors import (
    InvalidAddressError,
    NonSequentialWriteError,
    ReadFreePageError,
    WriteToNonFreePageError,
)
from .page import FlashPage, SpareArea
from .stats import IOKind, IOPurpose, IOStats


class _BlockSnapshot:
    """Frozen column copies of one block (flash-durable state only)."""

    __slots__ = ("erase_count", "next_free_offset", "last_erase_timestamp",
                 "pages_per_block", "state", "logical", "timestamp",
                 "type_code", "data", "payload")

    def __init__(self, block: FlashBlock) -> None:
        self.erase_count = block.erase_count
        self.next_free_offset = block.next_free_offset
        self.last_erase_timestamp = block.last_erase_timestamp
        self.pages_per_block = block.pages_per_block
        # Flat buffer copies: O(bytes), no per-page Python objects. The
        # state column is the bit-packed word array.
        self.state = block._state_words[:]
        self.logical = block._logical[:]
        self.timestamp = block._timestamp[:]
        self.type_code = bytes(block._type_code)
        # Sparse payloads copy shallowly: flash keeps the object references,
        # it does not clone what they point at.
        self.data = dict(block._data)
        self.payload = dict(block._payload)

    def restore_into(self, block: FlashBlock) -> None:
        block.erase_count = self.erase_count
        block.next_free_offset = self.next_free_offset
        block.last_erase_timestamp = self.last_erase_timestamp
        block._state_words[:] = self.state
        block._logical[:] = self.logical
        block._timestamp[:] = self.timestamp
        block._type_code[:] = self.type_code
        block._data = dict(self.data)
        block._payload = dict(self.payload)


class FlashSnapshot:
    """Point-in-time copy of a device's flash-durable state.

    Capturing and restoring are both O(pages) *byte* copies over the flat
    columns plus a shallow copy of the sparse payload dictionaries — never a
    per-page object walk. ``simulate_power_failure`` round-trips through
    this path, and tests use it to assert flash durability.
    """

    __slots__ = ("write_clock", "blocks")

    def __init__(self, device: "FlashDevice") -> None:
        self.write_clock = device._write_clock
        self.blocks = [_BlockSnapshot(block) for block in device.blocks]


class FlashDevice:
    """A raw NAND flash device with ``K`` blocks of ``B`` pages each."""

    __slots__ = ("config", "stats", "blocks", "_write_clock",
                 "_num_blocks", "_pages_per_block")

    def __init__(self, config: DeviceConfig,
                 stats: Optional[IOStats] = None) -> None:
        self.config = config
        self.stats = stats if stats is not None else IOStats()
        self.blocks: List[FlashBlock] = [
            FlashBlock(block_id=i,
                       pages_per_block=config.pages_per_block,
                       max_erase_count=config.max_erase_count)
            for i in range(config.num_blocks)
        ]
        #: Monotonic sequence number stamped into every programmed page's
        #: spare area; recovery uses it to order writes.
        self._write_clock = 0
        # Geometry bounds as plain ints: the hot paths validate against
        # these instead of chasing the config dataclass on every operation.
        self._num_blocks = config.num_blocks
        self._pages_per_block = config.pages_per_block

    # ------------------------------------------------------------------
    # Address validation
    # ------------------------------------------------------------------
    def _check(self, address: PhysicalAddress) -> None:
        if not 0 <= address.block < self._num_blocks:
            raise InvalidAddressError(f"block {address.block} out of range")
        if not 0 <= address.page < self._pages_per_block:
            raise InvalidAddressError(f"page {address.page} out of range")

    def block(self, block_id: int) -> FlashBlock:
        """Return the block object for ``block_id``."""
        if not 0 <= block_id < self._num_blocks:
            raise InvalidAddressError(f"block {block_id} out of range")
        return self.blocks[block_id]

    # ------------------------------------------------------------------
    # Page operations
    # ------------------------------------------------------------------
    def read_page(self, address: PhysicalAddress,
                  purpose: IOPurpose = IOPurpose.OTHER) -> FlashPage:
        """Read one flash page (charged as a page read)."""
        block_id, offset = address
        if not (0 <= block_id < self._num_blocks
                and 0 <= offset < self._pages_per_block):
            self._check(address)
        block = self.blocks[block_id]
        # Sequential programming + whole-block erase make "written" exactly
        # "offset < next_free_offset" — cheaper than probing the bit words.
        if offset >= block.next_free_offset:
            raise ReadFreePageError(f"{address} has not been programmed")
        self.stats.page_read_counts[purpose] += 1
        return FlashPage(block, offset)

    def read_page_data(self, address: PhysicalAddress,
                       purpose: IOPurpose = IOPurpose.OTHER) -> Any:
        """Read one page and return only its payload (fast path).

        Charged exactly like :meth:`read_page`; skips the page-view object.
        """
        block_id, offset = address
        if not (0 <= block_id < self._num_blocks
                and 0 <= offset < self._pages_per_block):
            self._check(address)
        block = self.blocks[block_id]
        # Sequential programming + whole-block erase make "written" exactly
        # "offset < next_free_offset" — cheaper than probing the bit words.
        if offset >= block.next_free_offset:
            raise ReadFreePageError(f"{address} has not been programmed")
        self.stats.page_read_counts[purpose] += 1
        return block._data.get(offset)

    def read_page_record(self, address: PhysicalAddress,
                         purpose: IOPurpose = IOPurpose.OTHER
                         ) -> Tuple[Any, Optional[int]]:
        """Read one page; return ``(data, logical_address_tag)`` (fast path).

        One page read is charged — the logical tag rides along "for free"
        exactly as it does on real NAND, where the spare area is transferred
        with the page. The GC migration loop is the main consumer.
        """
        block_id, offset = address
        if not (0 <= block_id < self._num_blocks
                and 0 <= offset < self._pages_per_block):
            self._check(address)
        block = self.blocks[block_id]
        # Sequential programming + whole-block erase make "written" exactly
        # "offset < next_free_offset" — cheaper than probing the bit words.
        if offset >= block.next_free_offset:
            raise ReadFreePageError(f"{address} has not been programmed")
        self.stats.page_read_counts[purpose] += 1
        logical = block._logical[offset]
        return block._data.get(offset), logical if logical >= 0 else None

    def write_page(self, address: PhysicalAddress, data: Any,
                   spare: Optional[SpareArea] = None,
                   purpose: IOPurpose = IOPurpose.OTHER) -> SpareArea:
        """Program one flash page (charged as a page write).

        The device stamps the spare area with the global write clock before
        programming. Returns the spare area actually stored.
        """
        if spare is None:
            logical = None
            block_type = None
            payload = None
        else:
            logical = spare.logical_address
            block_type = spare.block_type
            payload = dict(spare.payload) if spare.payload else None
        timestamp = self.write_page_tagged(address, data, logical=logical,
                                           block_type=block_type,
                                           payload=payload, purpose=purpose)
        return SpareArea(logical_address=logical, write_timestamp=timestamp,
                         block_type=block_type,
                         erase_count=self.blocks[address.block].erase_count,
                         payload=payload if payload is not None else {})

    def write_page_tagged(self, address: PhysicalAddress, data: Any = None,
                          logical: Optional[int] = None,
                          block_type: Optional[str] = None,
                          payload: Optional[dict] = None,
                          purpose: IOPurpose = IOPurpose.OTHER) -> int:
        """Program one page from decomposed tag values (fast path).

        Identical semantics and accounting to :meth:`write_page`, minus the
        :class:`SpareArea` round trip: the logical tag, block-type tag and
        optional payload dictionary go straight into the block's columns
        (``payload`` is stored as given, not copied). Returns the write
        timestamp stamped into the page.

        The column stores are inlined rather than delegated to
        ``FlashBlock.program_tagged`` — this method sits under every flash
        write of every FTL, and the two skipped calls are measurable on the
        device-fill benchmark.
        """
        block_id, offset = address
        if not (0 <= block_id < self._num_blocks
                and 0 <= offset < self._pages_per_block):
            self._check(address)
        block = self.blocks[block_id]
        self._write_clock = timestamp = self._write_clock + 1
        if offset < block.next_free_offset:
            raise WriteToNonFreePageError(
                f"block {block_id} page {offset} is already programmed")
        if offset != block.next_free_offset:
            raise NonSequentialWriteError(
                f"block {block_id}: attempted to program page {offset} "
                f"but the next programmable page is {block.next_free_offset}")
        block._state_words[offset >> 6] |= 1 << (offset & 63)
        block._logical[offset] = logical if logical is not None else -1
        block._timestamp[offset] = timestamp
        type_code = _TYPE_CODES.get(block_type)
        block._type_code[offset] = (type_code if type_code is not None
                                    else _intern_block_type(block_type))
        if data is not None:
            block._data[offset] = data
        if payload:
            block._payload[offset] = payload
        block.next_free_offset = offset + 1
        self.stats.page_write_counts[purpose] += 1
        return timestamp

    def write_pages_tagged(self, block_id: int, logicals,
                           datas: Optional[List[Any]] = None,
                           block_type: Optional[str] = None,
                           purpose: IOPurpose = IOPurpose.OTHER) -> int:
        """Program a run of consecutive pages into one block (batch fast path).

        The batch analogue of :meth:`write_page_tagged`: the run starts at
        the block's next free page, every page carries the same block-type
        tag, and the write clock advances once per page exactly as it would
        under per-page programming. Accounting is identical — ``len(logicals)``
        page writes charged to ``purpose`` — and the column stores collapse
        into one slice assignment each. Returns the write timestamp of the
        *first* page of the run (page ``i`` holds ``returned + i``).
        """
        if not 0 <= block_id < self._num_blocks:
            raise InvalidAddressError(f"block {block_id} out of range")
        block = self.blocks[block_id]
        count = len(logicals)
        if not isinstance(logicals, array) or logicals.typecode != "q":
            logicals = array("q", logicals)
        start_clock = self._write_clock
        timestamps = array("q", range(start_clock + 1, start_clock + count + 1))
        type_code = _TYPE_CODES.get(block_type)
        if type_code is None:
            type_code = _intern_block_type(block_type)
        block.program_run_tagged(block.next_free_offset, logicals, timestamps,
                                 type_code, datas)
        self._write_clock = start_clock + count
        self.stats.page_write_counts[purpose] += count
        return start_clock + 1

    def read_spare(self, address: PhysicalAddress,
                   purpose: IOPurpose = IOPurpose.OTHER) -> SpareArea:
        """Read only a page's spare area (much cheaper than a page read)."""
        self._check(address)
        self.stats.spare_read_counts[purpose] += 1
        return self.blocks[address.block].materialize_spare(address.page)

    def read_spare_logical(self, address: PhysicalAddress,
                           purpose: IOPurpose = IOPurpose.OTHER
                           ) -> Optional[int]:
        """Read a spare area, returning only its logical tag (fast path).

        Charged exactly like :meth:`read_spare`; skips materializing the
        :class:`SpareArea`. Free pages return ``None``.
        """
        block_id, offset = address
        if not (0 <= block_id < self._num_blocks
                and 0 <= offset < self._pages_per_block):
            self._check(address)
        self.stats.spare_read_counts[purpose] += 1
        block = self.blocks[block_id]
        if offset >= block.next_free_offset:
            return None
        logical = block._logical[offset]
        return logical if logical >= 0 else None

    def peek(self, address: PhysicalAddress) -> FlashPage:
        """Inspect a page without charging any IO (for tests/assertions only)."""
        self._check(address)
        return FlashPage(self.blocks[address.block], address.page)

    # ------------------------------------------------------------------
    # Block operations
    # ------------------------------------------------------------------
    def erase_block(self, block_id: int,
                    purpose: IOPurpose = IOPurpose.OTHER) -> None:
        """Erase a block, freeing all of its pages (charged as an erase)."""
        block = self.block(block_id)
        self._write_clock += 1
        block.erase(timestamp=self._write_clock)
        self.stats.block_erase_counts[purpose] += 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def write_clock(self) -> int:
        """Current value of the global write sequence counter."""
        return self._write_clock

    def iter_blocks(self) -> Iterator[FlashBlock]:
        return iter(self.blocks)

    def free_page_count(self) -> int:
        """Total number of programmable pages across the device."""
        per_block = self._pages_per_block
        return sum(per_block - block.next_free_offset
                   for block in self.blocks)

    def written_page_count(self) -> int:
        """Total number of programmed pages across the device."""
        return sum(block.next_free_offset for block in self.blocks)

    # ------------------------------------------------------------------
    # Power failure and flash durability
    # ------------------------------------------------------------------
    def snapshot_flash_state(self) -> FlashSnapshot:
        """Capture the flash-durable state as flat column copies.

        O(pages) byte copies plus shallow copies of the sparse payload
        dictionaries — never a per-page object walk (the regression test in
        ``tests/test_flash_device.py`` pins this down).
        """
        return FlashSnapshot(self)

    def restore_flash_state(self, snapshot: FlashSnapshot) -> None:
        """Restore the device to ``snapshot`` (same geometry required)."""
        if len(snapshot.blocks) != self._num_blocks:
            raise ValueError(
                f"snapshot has {len(snapshot.blocks)} blocks but the device "
                f"has {self._num_blocks}")
        if snapshot.blocks and \
                snapshot.blocks[0].pages_per_block != self._pages_per_block:
            raise ValueError(
                f"snapshot blocks have {snapshot.blocks[0].pages_per_block} "
                f"pages but the device has {self._pages_per_block} per block")
        self._write_clock = snapshot.write_clock
        for block, frozen in zip(self.blocks, snapshot.blocks):
            frozen.restore_into(block)

    def simulate_power_failure(self) -> "FlashDevice":
        """Model a power failure.

        Flash contents survive a power failure; only RAM-resident FTL state
        is lost (FTLs implement that loss themselves). The device
        round-trips its durable state through the array-backed snapshot
        path — everything the columns capture survives, anything else is by
        construction volatile — and returns ``self`` for chaining.
        """
        self.restore_flash_state(self.snapshot_flash_state())
        return self


_PAGE_READ, _PAGE_WRITE = IOKind.PAGE_READ, IOKind.PAGE_WRITE
_SPARE_READ, _BLOCK_ERASE = IOKind.SPARE_READ, IOKind.BLOCK_ERASE


class TappedFlashDevice(FlashDevice):
    """A flash device whose every charged operation also feeds its taps.

    The taps are an optional virtual clock (a
    :class:`~repro.timing.model.TimingModel`, hooked by its ``record``) and
    an optional observer (an :class:`~repro.obs.recorder.Observer`, hooked
    by its ``on_flash_op``); both take ``(kind, block, purpose)``. They
    arrive ready-built — :class:`~repro.api.session.SimulationSession`
    turns specs into them. Each override runs the plain primitive, then
    every tap in order: the clock first, the observer last, so the metrics
    recorder sees an operation only after the clock has advanced and its
    windowed latency percentiles stay consistent with the window's ops.

    The device stays IO-trace identical to the plain one (same stats, same
    flash state, same exceptions) and merely watches the stream. The
    overrides serve the callers that are not fused (per-op ``write()``,
    trim, the translation table, recovery); the fused FTL loops take the
    same tap tuple from :func:`device_taps` and call it themselves. The
    plain :class:`FlashDevice` carries no tap slot at all.
    """

    __slots__ = ("timing", "obs", "_taps")

    def __init__(self, config: DeviceConfig,
                 stats: Optional[IOStats] = None, *,
                 timing: Any = None, obs: Any = None) -> None:
        super().__init__(config, stats)
        self.timing = timing
        self.obs = obs
        taps = []
        if timing is not None:
            taps.append(timing.record)
        if obs is not None:
            taps.append(obs.on_flash_op)
            obs.bind_device(self)
        self._taps = tuple(taps)

    def read_page(self, address: PhysicalAddress,
                  purpose: IOPurpose = IOPurpose.OTHER) -> FlashPage:
        page = FlashDevice.read_page(self, address, purpose)
        for tap in self._taps:
            tap(_PAGE_READ, address.block, purpose)
        return page

    def read_page_data(self, address: PhysicalAddress,
                       purpose: IOPurpose = IOPurpose.OTHER) -> Any:
        data = FlashDevice.read_page_data(self, address, purpose)
        for tap in self._taps:
            tap(_PAGE_READ, address.block, purpose)
        return data

    def read_page_record(self, address: PhysicalAddress,
                         purpose: IOPurpose = IOPurpose.OTHER
                         ) -> Tuple[Any, Optional[int]]:
        record = FlashDevice.read_page_record(self, address, purpose)
        for tap in self._taps:
            tap(_PAGE_READ, address.block, purpose)
        return record

    def write_page_tagged(self, address: PhysicalAddress, data: Any = None,
                          logical: Optional[int] = None,
                          block_type: Optional[str] = None,
                          payload: Optional[dict] = None,
                          purpose: IOPurpose = IOPurpose.OTHER) -> int:
        timestamp = FlashDevice.write_page_tagged(
            self, address, data, logical, block_type, payload, purpose)
        for tap in self._taps:
            tap(_PAGE_WRITE, address.block, purpose)
        return timestamp

    def write_pages_tagged(self, block_id: int, logicals,
                           datas: Optional[List[Any]] = None,
                           block_type: Optional[str] = None,
                           purpose: IOPurpose = IOPurpose.OTHER) -> int:
        """The batch path, programmed page by page so the taps see each."""
        block = self.block(block_id)
        first = self._write_clock + 1
        for index, logical in enumerate(logicals):
            self.write_page_tagged(
                PhysicalAddress(block_id, block.next_free_offset),
                datas[index] if datas is not None else None,
                logical=logical if logical >= 0 else None,
                block_type=block_type, purpose=purpose)
        return first

    def read_spare(self, address: PhysicalAddress,
                   purpose: IOPurpose = IOPurpose.OTHER) -> SpareArea:
        spare = FlashDevice.read_spare(self, address, purpose)
        for tap in self._taps:
            tap(_SPARE_READ, address.block, purpose)
        return spare

    def read_spare_logical(self, address: PhysicalAddress,
                           purpose: IOPurpose = IOPurpose.OTHER
                           ) -> Optional[int]:
        logical = FlashDevice.read_spare_logical(self, address, purpose)
        for tap in self._taps:
            tap(_SPARE_READ, address.block, purpose)
        return logical

    def erase_block(self, block_id: int,
                    purpose: IOPurpose = IOPurpose.OTHER) -> None:
        FlashDevice.erase_block(self, block_id, purpose)
        for tap in self._taps:
            tap(_BLOCK_ERASE, block_id, purpose)


def device_taps(device: FlashDevice) -> Tuple[Any, ...]:
    """The taps the fused FTL paths call per charged op; ``()`` if plain.

    The fused paths poke the device columns directly, bump the
    :class:`IOStats` counter, then call ``tap(kind, block, purpose)`` for
    each tap, which is exactly what :class:`TappedFlashDevice`'s overrides
    do. Any other override of a charged primitive would be skipped without
    a trace, so such a device class raises :class:`TypeError` here, once,
    when an FTL or Gecko storage is built on it.
    """
    cls = type(device)
    for name, override in vars(TappedFlashDevice).items():
        if callable(override) and name != "__init__" and getattr(cls, name) \
                not in (override, getattr(FlashDevice, name)):
            raise TypeError(
                f"{cls.__name__} overrides the charged primitive {name}(); "
                "the fused FTL paths would bypass it. Observe flash "
                "operations through TappedFlashDevice's taps instead")
    return getattr(device, "_taps", ())
