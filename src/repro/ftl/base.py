"""Shared skeleton of a page-associative FTL.

Every FTL the paper evaluates (DFTL, LazyFTL, µ-FTL, IB-FTL, GeckoFTL) uses
the same DFTL-style translation scheme: the full logical-to-physical table is
stored in flash across translation pages, a Global Mapping Directory in RAM
tracks where each translation page currently lives, and an LRU cache holds
recently used mapping entries. The FTLs differ in

1. how they store page-validity metadata (the validity store),
2. how they bound/recover dirty cached mapping entries, and
3. how garbage collection selects victims.

:class:`PageMappedFTL` implements everything that is common and exposes the
three variation points to subclasses. The default behaviour matches the
baseline FTLs: invalid pages are identified *eagerly* — a write that misses
the cache fetches the old mapping entry from flash so the superseded page can
be reported to the validity store immediately. GeckoFTL overrides this with
its lazy UIP-flag scheme (Section 4.1).
"""

from __future__ import annotations

from abc import abstractmethod
from typing import Any, Dict, List, Optional, Sequence

from ..flash.address import LogicalAddress, PhysicalAddress
from ..flash.block import _intern_block_type
from ..flash.config import DeviceConfig
from ..flash.device import FlashDevice, device_taps
from ..flash.errors import ReadFreePageError
from ..flash.stats import IOKind, IOPurpose, IOStats
from .block_manager import BlockManager, BlockType
from .bvc import BlockValidityCounter
from .garbage_collector import GarbageCollector, VictimPolicy
from .mapping_cache import CachedMapping, MappingCache
from .operations import BatchResult, Operation, OpKind
from .recovery import BatteryRecovery, FullScanRecovery, RecoveryAdapter
from .translation_table import UNMAPPED, TranslationTable
from .validity.base import ValidityStore
from .wear_leveling import WearLeveler

#: Block-type tag stamped into every user page's spare area.
_USER_TYPE = BlockType.USER.value

#: Its interned column code, resolved once at import for the inlined paths.
_USER_CODE = _intern_block_type(_USER_TYPE)

_PAGE_READ, _PAGE_WRITE = IOKind.PAGE_READ, IOKind.PAGE_WRITE


class PageMappedFTL:
    """Base class for all page-associative FTLs in this repository.

    The mapping layer — cache entries, translation pages, synchronization,
    trim, GC migration and recovery — addresses physical pages by their
    linear number ``block * pages_per_block + page`` (see
    :mod:`repro.ftl.translation_table`). A :class:`PhysicalAddress` is made
    only at the edges (``write()``'s return value, the flash primitives the
    fused paths do not inline, a validity store); the fused paths split the
    int with ``divmod`` instead.
    """

    #: Human-readable name used in benchmark reports.
    name = "page-mapped-ftl"
    #: Whether the device ships a battery/supercapacitor large enough to flush
    #: dirty mapping entries on power failure (DFTL and µ-FTL assume one).
    uses_battery = False

    def __init__(self,
                 device: FlashDevice,
                 cache_capacity: int = 1024,
                 victim_policy: VictimPolicy = VictimPolicy.GREEDY,
                 dirty_fraction_limit: Optional[float] = None,
                 free_block_threshold: int = 6,
                 gc_reserve_blocks: int = 4,
                 enable_wear_leveling: bool = False) -> None:
        #: The device's taps (clock, then observer; ``()`` on a plain
        #: device). The fused paths poke the device columns directly and
        #: call each tap right after bumping the IOStats counter, the same
        #: point at which TappedFlashDevice's overrides call them. Each tap
        #: loop sits behind ``if taps:``, which costs a plain run about a
        #: quarter of what iterating the empty tuple would.
        self._taps = device_taps(device)
        self.device = device
        self.config: DeviceConfig = device.config
        self.stats: IOStats = device.stats
        self._pages_per_block = self.config.pages_per_block
        # Accept the policy's string value too, so FTL spec strings (literal
        # kwargs only) can select it: "DFTL(victim_policy='metadata_aware')".
        victim_policy = VictimPolicy(victim_policy)

        self.block_manager = BlockManager(device,
                                          gc_reserve_blocks=gc_reserve_blocks)
        self.translation_table = TranslationTable(device, self.block_manager)
        self.cache = MappingCache(
            capacity=cache_capacity,
            entries_per_translation_page=self.config.mapping_entries_per_page)
        self.bvc = BlockValidityCounter(self.config.num_blocks,
                                        self.config.pages_per_block)
        self.validity_store: ValidityStore = self._create_validity_store()
        self.dirty_fraction_limit = dirty_fraction_limit
        self.garbage_collector = GarbageCollector(
            device=device,
            block_manager=self.block_manager,
            bvc=self.bvc,
            validity_store=self.validity_store,
            migrate_user_pages=self._migrate_user_pages,
            migrate_metadata_page=self._migrate_metadata_page,
            policy=victim_policy,
            free_block_threshold=free_block_threshold)
        self.wear_leveler: Optional[WearLeveler] = (
            WearLeveler(device) if enable_wear_leveling else None)
        # Discovered, not injected: only TappedFlashDevice carries a
        # ``timing`` slot, so FTLs on a plain device see None and every
        # timing branch below stays a single predictable ``is not None``
        # check.
        self.timing = getattr(device, "timing", None)
        # Same discovery idiom for the observability layer: only the tapped
        # device carries an ``obs`` slot. By this point every hooked
        # structure (garbage collector, validity store — hence GeckoFTL's
        # ``gecko`` — and the cache) exists, so the observer can wire itself
        # into all of them at once.
        obs = getattr(device, "obs", None)
        self.obs = obs
        if obs is not None:
            obs.attach_ftl(self)
        self._in_gc = False

    # ------------------------------------------------------------------
    # Variation points
    # ------------------------------------------------------------------
    @abstractmethod
    def _create_validity_store(self) -> ValidityStore:
        """Build this FTL's page-validity structure."""
        raise NotImplementedError

    def make_recovery(self) -> RecoveryAdapter:
        """Build the crash/recovery adapter for this FTL.

        Battery-backed FTLs flush at failure time
        (:class:`~repro.ftl.recovery.BatteryRecovery`); battery-less ones
        fall back to the full-device spare-area scan
        (:class:`~repro.ftl.recovery.FullScanRecovery`). GeckoFTL overrides
        this with GeckoRec. Every FTL in the registry therefore supports
        ``crash()`` + ``recover()`` through
        :class:`~repro.api.session.SimulationSession`.
        """
        if self.uses_battery:
            return BatteryRecovery(self)
        return FullScanRecovery(self)

    # ------------------------------------------------------------------
    # Host interface
    # ------------------------------------------------------------------
    def write(self, logical: LogicalAddress, data: Any = None) -> PhysicalAddress:
        """Serve an application write to ``logical``.

        The new version is written out of place to the active user block, the
        cached mapping entry is updated (creating one if needed), and garbage
        collection runs if the free-block pool has become too small.

        The write sequence here is mirrored by the inlined loop in
        :meth:`submit`; any change to it must be reflected there
        (``tests/test_submit_equivalence.py`` locks the equivalence).
        """
        self._check_logical(logical)
        timing = self.timing
        if timing is not None:
            # The request opens before GC so collection triggered by this
            # write loads the device at the request's arrival time — that is
            # precisely the head-of-line blocking behind GC tail spikes.
            timing.begin_request("write")
        try:
            self.stats.record_host_write()
            self._maybe_collect()
            new_address = self._program_user_page(logical, data,
                                                   IOPurpose.USER)
            self._update_mapping_on_write(
                logical,
                new_address[0] * self._pages_per_block + new_address[1])
            if self.wear_leveler is not None:
                self.wear_leveler.on_flash_write()
            self._after_write(logical)
            self._enforce_dirty_limit()
        except BaseException:
            self._abort_request()
            raise
        if timing is not None:
            timing.end_request()
        return new_address

    def read(self, logical: LogicalAddress) -> Any:
        """Serve an application read, returning the stored payload.

        Returns ``None`` for a logical page that has never been written.
        """
        self._check_logical(logical)
        timing = self.timing
        if timing is not None:
            timing.begin_request("read")
        try:
            self.stats.record_host_read()
            entry = self.cache.get(logical)
            if entry is None:
                physical = self.translation_table.lookup(
                    logical, purpose=IOPurpose.TRANSLATION)
                if physical is not None:
                    entry = CachedMapping(logical, physical, dirty=False,
                                          uip=False, in_flash=True)
                    self.cache.put(entry)
                    self._evict_if_over_capacity()
            value = None
            if entry is not None:
                # Inlined read_page_data: a mapped page is in range by
                # construction, so only the programmed check remains.
                block_id, offset = divmod(entry.physical,
                                          self._pages_per_block)
                block = self.device.blocks[block_id]
                if offset >= block.next_free_offset:
                    raise ReadFreePageError(
                        f"{PhysicalAddress(block_id, offset)} has not been "
                        "programmed")
                self.stats.page_read_counts[IOPurpose.USER] += 1
                if self._taps:
                    for tap in self._taps:
                        tap(_PAGE_READ, block_id, IOPurpose.USER)
                value = block._data.get(offset)
        except BaseException:
            self._abort_request()
            raise
        if timing is not None:
            timing.end_request()
        return value

    def trim(self, logical: LogicalAddress) -> None:
        """Discard a logical page (TRIM): its flash copy becomes invalid."""
        self._check_logical(logical)
        timing = self.timing
        if timing is not None:
            timing.begin_request("trim")
        try:
            entry = self.cache.remove(logical)
            physical = entry.physical if entry is not None else None
            if physical is None:
                physical = self.translation_table.lookup(
                    logical, purpose=IOPurpose.TRANSLATION)
            if physical is not None:
                block_id, offset = divmod(physical, self._pages_per_block)
                self.validity_store.mark_invalid(
                    PhysicalAddress(block_id, offset))
                self.bvc.decrement(block_id)
                # A mapping that only ever existed as a cached entry that was
                # never synchronized leaves nothing to remove from the
                # flash-resident translation page, so it charges no IO.
                if entry is None or entry.in_flash is not False:
                    table = self.translation_table
                    content = table.read_translation_page(
                        table.translation_page_of(logical),
                        purpose=IOPurpose.TRANSLATION)
                    slot = logical % table.entries_per_page
                    if content.entries[slot] >= 0:
                        content.entries[slot] = UNMAPPED
                        table.write_translation_page(
                            content, purpose=IOPurpose.TRANSLATION)
        except BaseException:
            self._abort_request()
            raise
        if timing is not None:
            timing.end_request()

    def _abort_request(self) -> None:
        """Close the request a raising host op leaves open.

        Without this every later request would nest into the dead one and
        record no latency sample. Work already dispatched stays on the
        clock (see :meth:`~repro.timing.model.TimingModel.abort_request`).
        """
        if self.timing is not None:
            self.timing.abort_request()

    def flush(self) -> None:
        """Synchronize every dirty cached mapping entry with flash.

        Models a clean shutdown (or, for battery-backed FTLs, what the battery
        pays for on power failure).
        """
        while True:
            dirty = [entry for entry in self.cache.entries() if entry.dirty]
            if not dirty:
                break
            translation_page = self.cache.translation_page_of(dirty[0].logical)
            self._synchronize_translation_page(translation_page)
        self.validity_store.flush()

    def submit(self, batch: Sequence[Operation],
               collect_payloads: bool = False) -> BatchResult:
        """Execute a batch of host operations through the submission queue.

        This is the batched host interface used by :class:`SimulationSession`,
        :class:`~repro.workloads.base.WorkloadRunner` and ``fill_device``. It
        executes the batch under one dispatch loop with the per-operation
        bookkeeping hoisted out of the hot path: the operation-kind dispatch
        happens once per op instead of once per host call, and the wear-level
        and dirty-limit hooks are resolved once per batch (they cannot change
        mid-batch) instead of being re-checked on every write.

        The batched path is IO-trace *equivalent* to issuing the same
        operations one at a time through :meth:`write`/:meth:`read`/
        :meth:`trim`: garbage collection and dirty-limit enforcement still
        observe exactly the state they would have seen per-op, so the
        resulting :class:`IOStats` (including the per-purpose
        write-amplification breakdown) are identical. The batch boundary is
        the seam where future relaxations (async completion, sharded
        submission queues) can plug in without touching the callers.

        Batch resolution happens in one pass over the submitted operations:
        consecutive operations of the same kind are grouped into *runs* by a
        single scan (bulk list slicing), so the kind dispatch is paid once
        per run instead of once per op. The write-run handler additionally
        inlines the whole program-and-map sequence — active-block cursor,
        packed state-word set, column stores, write clock, BVC bump and IO
        accounting are poked directly instead of through five method calls
        per page. Mapping updates keep their exact per-op interleaving with
        flash IO (cache evictions and translation synchronization happen at
        precisely the same points), which is what keeps the submit goldens
        bit-identical. On a :class:`~repro.flash.device.TappedFlashDevice`
        (timing, observability) the same loop opens and closes one timing
        request per write and calls the device's taps right after each
        program's counter bump, so the taps see the stream the per-op path
        would show them.
        """
        stats = self.stats
        before = stats.snapshot()
        writes = reads = trims = 0
        payloads: Optional[List[Any]] = [] if collect_payloads else None
        logical_pages = self.config.logical_pages
        update_mapping = self._update_mapping_on_write
        after_write = (self._after_write
                       if type(self)._after_write
                       is not PageMappedFTL._after_write else None)
        wear_leveler = self.wear_leveler
        enforce_dirty = (self._enforce_dirty_limit
                         if self.dirty_fraction_limit is not None else None)
        timing = self.timing
        taps = self._taps
        user_purpose = IOPurpose.USER
        write_kind, read_kind, trim_kind = OpKind.WRITE, OpKind.READ, OpKind.TRIM
        pages_per_block = self._pages_per_block
        device = self.device
        blocks = device.blocks
        block_manager = self.block_manager
        active_blocks = block_manager.active_blocks
        open_block = block_manager._open_new_active_block
        free_blocks = block_manager.free_blocks
        threshold = self.garbage_collector.free_block_threshold
        write_counts = stats.page_write_counts
        bvc_counts = self.bvc._counts
        user_code = _USER_CODE
        user_type = BlockType.USER
        operations = batch if isinstance(batch, list) else list(batch)
        total = len(operations)
        index = 0
        try:
            while index < total:
                kind = operations[index].kind
                if kind is write_kind:
                    run_end = index + 1
                    while (run_end < total
                           and operations[run_end].kind is write_kind):
                        run_end += 1
                    run = (operations if index == 0 and run_end == total
                           else operations[index:run_end])
                    for operation in run:
                        logical = operation.logical
                        if not 0 <= logical < logical_pages:
                            raise ValueError(
                                f"logical page {logical} outside the "
                                f"device's logical space of {logical_pages} "
                                f"pages")
                        if timing is not None:
                            timing.begin_request("write")
                        stats.host_writes += 1
                        if len(free_blocks) < threshold:
                            self._maybe_collect()
                        active_id = active_blocks[user_type]
                        if active_id is None:
                            active_id = open_block(user_type, False)
                        block = blocks[active_id]
                        offset = block.next_free_offset
                        if offset >= pages_per_block:
                            active_id = open_block(user_type, False)
                            block = blocks[active_id]
                            offset = block.next_free_offset
                        # Inlined write_page_tagged: the address is the
                        # active block's cursor by construction, so the
                        # bounds / free-page / sequential checks hold.
                        device._write_clock = timestamp = \
                            device._write_clock + 1
                        block._state_words[offset >> 6] |= 1 << (offset & 63)
                        block._logical[offset] = logical
                        block._timestamp[offset] = timestamp
                        block._type_code[offset] = user_code
                        data = operation.payload
                        if data is not None:
                            block._data[offset] = data
                        block.next_free_offset = offset + 1
                        write_counts[user_purpose] += 1
                        if taps:
                            for tap in taps:
                                tap(_PAGE_WRITE, active_id, user_purpose)
                        bvc_counts[active_id] += 1
                        update_mapping(logical,
                                       active_id * pages_per_block + offset)
                        if wear_leveler is not None:
                            wear_leveler.on_flash_write()
                        if after_write is not None:
                            after_write(logical)
                        if enforce_dirty is not None:
                            enforce_dirty()
                        if timing is not None:
                            timing.end_request()
                    writes += run_end - index
                    index = run_end
                elif kind is read_kind:
                    reads += 1
                    value = self.read(operations[index].logical)
                    if payloads is not None:
                        payloads.append(value)
                    index += 1
                elif kind is trim_kind:
                    trims += 1
                    self.trim(operations[index].logical)
                    index += 1
                else:  # pragma: no cover - defensive
                    raise ValueError(f"unknown operation kind {kind}")
        except BaseException:
            self._abort_request()
            raise
        return BatchResult(submitted=index, host_writes=writes,
                           host_reads=reads, host_trims=trims,
                           stats_delta=stats.diff(before), payloads=payloads)

    # ------------------------------------------------------------------
    # Write path internals
    # ------------------------------------------------------------------
    def _check_logical(self, logical: LogicalAddress) -> None:
        if not 0 <= logical < self.config.logical_pages:
            raise ValueError(
                f"logical page {logical} outside the device's logical space "
                f"of {self.config.logical_pages} pages")

    def _program_user_page(self, logical: LogicalAddress, data: Any,
                           purpose: IOPurpose) -> PhysicalAddress:
        address = self.block_manager.allocate_page(BlockType.USER)
        self.device.write_page_tagged(address, data, logical=logical,
                                      block_type=_USER_TYPE, purpose=purpose)
        self.bvc.increment(address.block)
        return address

    def _update_mapping_on_write(self, logical: LogicalAddress,
                                 new_physical: int) -> None:
        """Baseline (eager) mapping update to linear page ``new_physical``.

        On a cache hit the superseded physical page is known and reported to
        the validity store immediately. On a miss the baseline FTLs fetch the
        mapping entry from the flash-resident translation table so they can
        invalidate the before-image right away.
        """
        entry = self.cache.get(logical)
        if entry is not None:
            self._invalidate_user_page(entry.physical)
            entry.physical = new_physical
            self.cache.mark_dirty(logical, True)
            return
        old_physical = self.translation_table.lookup(
            logical, purpose=IOPurpose.TRANSLATION)
        if old_physical is not None:
            self._invalidate_user_page(old_physical)
        self.cache.put(CachedMapping(logical, new_physical, dirty=True,
                                     in_flash=old_physical is not None))
        self._evict_if_over_capacity()

    def _invalidate_user_page(self, physical: int) -> None:
        """Report a superseded user page to the validity store and the BVC."""
        block_id, offset = divmod(physical, self._pages_per_block)
        self.validity_store.mark_invalid(PhysicalAddress(block_id, offset))
        self.bvc.decrement(block_id)

    def _after_write(self, logical: LogicalAddress) -> None:
        """Hook for subclasses (GeckoFTL's checkpoints)."""

    # ------------------------------------------------------------------
    # Cache eviction and synchronization
    # ------------------------------------------------------------------
    def _evict_if_over_capacity(self) -> None:
        # While a garbage-collection operation is migrating pages, evictions
        # are deferred: an eviction-driven synchronization could invalidate
        # further pages of the very block being collected after its live set
        # was computed. The cache temporarily exceeds its capacity by at most
        # one block's worth of migrated entries and is trimmed right after
        # the collection finishes (see _maybe_collect).
        if self._in_gc:
            return
        cache = self.cache
        capacity = cache.capacity
        obs = self.obs
        entries = cache._entries
        by_translation_page = cache._by_translation_page
        entries_per_translation_page = cache.entries_per_translation_page
        pop_coldest = entries.popitem
        while cache._live_count > capacity:
            # Inlined ``cache.pop_lru`` (one eviction per over-capacity
            # insert on the steady-state write path): walk past expired
            # checkpoint symbols to the coldest real entry.
            victim = None
            while entries:
                key, victim = pop_coldest(False)
                if victim is None:
                    continue
                cache._live_count -= 1
                translation_page = key // entries_per_translation_page
                bucket = by_translation_page.get(translation_page)
                if bucket is not None:
                    bucket.discard(key)
                    if not bucket:
                        del by_translation_page[translation_page]
                if victim.dirty:
                    cache._dirty_count -= 1
                break
            if victim is None:
                break
            if obs is not None:
                obs.on_cache_evict(victim.logical, victim.dirty)
            if victim.dirty:
                self._synchronize_translation_page(
                    victim.logical // entries_per_translation_page,
                    extra_entry=victim)

    def _enforce_dirty_limit(self) -> None:
        """LazyFTL / IB-FTL: bound dirty entries to a fraction of the cache.

        Keeping few dirty entries bounds recovery time but also limits how
        much each translation-page rewrite can be amortized, which is exactly
        the contention GeckoFTL's recovery scheme removes.
        """
        if self.dirty_fraction_limit is None:
            return
        limit = max(1, int(self.cache.capacity * self.dirty_fraction_limit))
        while self.cache.dirty_count > limit:
            oldest_dirty = next(
                (entry for entry in self.cache.entries() if entry.dirty), None)
            if oldest_dirty is None:
                break
            translation_page = self.cache.translation_page_of(
                oldest_dirty.logical)
            self._synchronize_translation_page(translation_page)

    def _synchronize_translation_page(
            self, translation_page: int,
            extra_entry: Optional[CachedMapping] = None) -> None:
        """Fold all dirty cached entries of one translation page into flash.

        ``extra_entry`` is an entry that was just evicted from the cache (and
        therefore is no longer visible through it) but still must be written.
        """
        dirty_entries = self.cache.dirty_entries_on_translation_page(
            translation_page)
        if extra_entry is not None:
            dirty_entries = [extra_entry] + dirty_entries
        if not dirty_entries:
            return
        updates = {entry.logical: entry.physical for entry in dirty_entries}
        self.translation_table.apply_updates(translation_page, updates,
                                             purpose=IOPurpose.TRANSLATION)
        for entry in dirty_entries:
            entry.in_flash = True
            if entry.logical in self.cache:
                self.cache.mark_dirty(entry.logical, False)
            else:
                entry.dirty = False

    # ------------------------------------------------------------------
    # Garbage collection
    # ------------------------------------------------------------------
    def _maybe_collect(self) -> None:
        if self._in_gc:
            return
        if not self.garbage_collector.needs_collection():
            return
        self._in_gc = True
        try:
            self.garbage_collector.collect_until_safe()
        finally:
            self._in_gc = False
        self._evict_if_over_capacity()

    def _migrate_user_page(self, old_physical: int) -> None:
        """Move the live user page at linear page ``old_physical`` off a
        victim block.

        Migrations are treated like application writes: the new location is
        recorded as a dirty cached mapping entry and synchronized lazily.

        The read-allocate-program sequence is inlined (the same column
        pokes as the submit write loop, charged to the GC purpose, with the
        device's taps called after each counter bump): migrations run once
        per live page of every victim, which makes this the hottest call
        chain of the whole collector.
        """
        device = self.device
        taps = self._taps
        pages_per_block = self._pages_per_block
        block_id, offset = divmod(old_physical, pages_per_block)
        block = device.blocks[block_id]
        # Inlined read_page_record: GC only visits written offsets, so the
        # cursor check is the only validation needed.
        if offset >= block.next_free_offset:
            raise ReadFreePageError(
                f"{PhysicalAddress(block_id, offset)} has not been programmed")
        stats = device.stats
        stats.page_read_counts[IOPurpose.GC] += 1
        if taps:
            for tap in taps:
                tap(_PAGE_READ, block_id, IOPurpose.GC)
        tag = block._logical[offset]
        logical = tag if tag >= 0 else None
        data = block._data.get(offset)
        # Inlined allocate_page(USER, use_reserve=True) + program.
        manager = self.block_manager
        active_id = manager.active_blocks[BlockType.USER]
        if active_id is None \
                or device.blocks[active_id].next_free_offset \
                >= block.pages_per_block:
            active_id = manager._open_new_active_block(BlockType.USER, True)
        target = device.blocks[active_id]
        new_offset = target.next_free_offset
        device._write_clock = timestamp = device._write_clock + 1
        target._state_words[new_offset >> 6] |= 1 << (new_offset & 63)
        target._logical[new_offset] = tag
        target._timestamp[new_offset] = timestamp
        target._type_code[new_offset] = _USER_CODE
        if data is not None:
            target._data[new_offset] = data
        target.next_free_offset = new_offset + 1
        stats.page_write_counts[IOPurpose.GC] += 1
        if taps:
            for tap in taps:
                tap(_PAGE_WRITE, active_id, IOPurpose.GC)
        self.bvc._counts[active_id] += 1
        new_physical = active_id * pages_per_block + new_offset
        # Inlined cache update (get-hit refresh / put of an absent key):
        # migrations run under _in_gc, so evictions are deferred anyway.
        cache = self.cache
        entry = cache._entries.get(logical)
        if entry is not None:
            cache.hits += 1
            cache._entries.move_to_end(logical)
            entry.physical = new_physical
            if not entry.dirty:
                entry.dirty = True
                cache._dirty_count += 1
        else:
            cache.misses += 1
            cache._entries[logical] = CachedMapping(logical, new_physical,
                                                    dirty=True)
            cache._live_count += 1
            cache._dirty_count += 1
            translation_page = logical // cache.entries_per_translation_page
            bucket = cache._by_translation_page.get(translation_page)
            if bucket is None:
                cache._by_translation_page[translation_page] = {logical}
            else:
                bucket.add(logical)
            if cache._live_count > cache.capacity:
                self._evict_if_over_capacity()

    def _migrate_user_pages(self, victim: int, offsets: List[int]) -> None:
        """Migrate a victim's live user pages, ascending-offset order.

        The batch form exists so subclasses can hoist per-victim state out
        of the per-page loop; the base implementation just dispatches to
        :meth:`_migrate_user_page` per offset and is observably identical.
        """
        migrate = self._migrate_user_page
        first = victim * self._pages_per_block
        for offset in offsets:
            migrate(first + offset)

    def _migrate_metadata_page(self, address: PhysicalAddress,
                               block_type: BlockType) -> None:
        """Move a live metadata page off a victim block."""
        if block_type is BlockType.TRANSLATION:
            self.translation_table.migrate_translation_page(address)
            return
        migrate = getattr(self.validity_store, "migrate_page", None)
        if migrate is None:
            raise RuntimeError(
                f"{type(self.validity_store).__name__} owns validity blocks "
                "but does not support migrating them")
        migrate(address)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def ram_breakdown(self) -> Dict[str, int]:
        """Integrated-RAM footprint of this FTL's resident structures, in bytes."""
        breakdown = {
            "gmd": self.translation_table.gmd_ram_bytes,
            "lru_cache": self.cache.ram_bytes,
            "validity": self.validity_store.ram_bytes(),
            "bvc": self.bvc.ram_bytes,
        }
        if self.wear_leveler is not None:
            breakdown["wear_leveling"] = self.wear_leveler.stats.ram_bytes
        return breakdown

    def ram_bytes(self) -> int:
        """Total integrated-RAM requirement in bytes."""
        return sum(self.ram_breakdown().values())

    def write_amplification(self) -> float:
        """Write amplification accumulated so far, per the paper's definition."""
        return self.stats.write_amplification(self.config.delta)

    def describe(self) -> Dict[str, Any]:
        """Summary dictionary used by the benchmark harness."""
        return {
            "ftl": self.name,
            "cache_capacity": self.cache.capacity,
            "victim_policy": self.garbage_collector.policy.value,
            "dirty_fraction_limit": self.dirty_fraction_limit,
            "uses_battery": self.uses_battery,
            "ram_bytes": self.ram_bytes(),
        }
