"""LRU cache of logical-to-physical mapping entries.

State-of-the-art page-associative FTLs store the full translation table in
flash and cache recently used mapping entries in integrated RAM (DFTL's
scheme, which GeckoFTL adopts unchanged). Each cached entry carries flags:

``dirty``
    The cached physical address is newer than the one recorded in the
    flash-resident translation table; it must be synchronized before (or
    after, in GeckoFTL's deferred scheme) the entry can be dropped.
``uip`` (Unidentified Invalid Page, GeckoFTL only)
    A before-image of this logical page exists in flash that has not yet been
    reported to the page-validity store (Section 4.1).
``uncertain`` (GeckoFTL recovery only)
    The entry was recreated after a power failure, so its dirty/UIP flags are
    pessimistic guesses that must be verified during the next synchronization
    operation (Appendix C.3).
``in_flash``
    Whether the flash-resident translation page currently holds an entry for
    this logical page: ``True``/``False`` when known, ``None`` when unknown
    (GeckoFTL's lazy write path never looks). A ``False`` lets TRIM skip the
    translation-page read-modify-write for mappings that only ever lived in
    the cache.

The cache is keyed by logical page number and ordered by recency. The paper
notes the cache is "implemented as a tree to enable efficient range queries
for mapping entries on a particular translation page"; here we maintain an
explicit secondary index from translation-page id to the set of cached logical
pages, which serves the same purpose.

The cache also supports the checkpoint symbols used by GeckoFTL's recovery
scheme (Section 4.3): a checkpoint walks the LRU order from the cold end and
synchronizes dirty entries that have not been touched since the previous
checkpoint, which bounds the post-failure backwards scan to ``2 * C`` pages.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set

from ..flash.address import LogicalAddress


@dataclass(slots=True)
class CachedMapping:
    """One cached logical-to-physical mapping entry.

    ``physical`` is the linear physical page number
    (``block * pages_per_block + page``), the mapping layer's one physical
    address format (see :mod:`repro.ftl.translation_table`).

    Slotted: the FTL write path creates and mutates one of these per host
    write, so attribute storage stays flat instead of per-entry ``__dict__``.
    """

    logical: LogicalAddress
    physical: int
    dirty: bool = False
    uip: bool = False
    uncertain: bool = False
    in_flash: Optional[bool] = None


class MappingCache:
    """Bounded LRU cache of mapping entries with a translation-page index."""

    def __init__(self, capacity: int, entries_per_translation_page: int,
                 bytes_per_entry: int = 8) -> None:
        if capacity <= 0:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self.entries_per_translation_page = entries_per_translation_page
        self.bytes_per_entry = bytes_per_entry
        #: LRU order: oldest entry first. Values are CachedMapping objects,
        #: except checkpoint symbols which are stored under negative keys.
        self._entries: "OrderedDict[int, Optional[CachedMapping]]" = OrderedDict()
        self._by_translation_page: Dict[int, Set[LogicalAddress]] = {}
        self._dirty_count = 0
        #: Number of real entries (excludes checkpoint symbols), maintained
        #: incrementally so ``len(cache)`` — polled on every write by the
        #: eviction loop — is O(1) instead of a scan.
        self._live_count = 0
        self._checkpoint_serial = 0
        #: Monotonic lookup counters (same idiom as Logarithmic Gecko's
        #: ``updates``/``gc_queries``): maintained unconditionally so the
        #: observability layer can report windowed hit ratios without adding
        #: any hook to the lookup path. They count :meth:`get` calls only —
        #: :meth:`peek` is introspection, not a cache access.
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    def translation_page_of(self, logical: LogicalAddress) -> int:
        """Translation-page id that holds the mapping entry for ``logical``."""
        return logical // self.entries_per_translation_page

    def __len__(self) -> int:
        return self._live_count

    def __contains__(self, logical: LogicalAddress) -> bool:
        return logical in self._entries and self._entries[logical] is not None

    @property
    def dirty_count(self) -> int:
        """Number of dirty entries currently cached."""
        return self._dirty_count

    @property
    def ram_bytes(self) -> int:
        """RAM footprint of a full cache (capacity x bytes per entry)."""
        return self.capacity * self.bytes_per_entry

    @property
    def is_full(self) -> bool:
        return len(self) >= self.capacity

    def get(self, logical: LogicalAddress,
            touch: bool = True) -> Optional[CachedMapping]:
        """Return the cached entry for ``logical`` (refreshing recency)."""
        entry = self._entries.get(logical)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        if touch:
            self._entries.move_to_end(logical)
        return entry

    def peek(self, logical: LogicalAddress) -> Optional[CachedMapping]:
        """Return the cached entry without refreshing recency."""
        return self._entries.get(logical)

    def entries(self) -> Iterator[CachedMapping]:
        """Iterate over cached entries from least to most recently used."""
        return (entry for entry in self._entries.values() if entry is not None)

    def cached_logicals_on_translation_page(
            self, translation_page: int) -> List[LogicalAddress]:
        """Logical pages cached whose entries live on ``translation_page``."""
        return sorted(self._by_translation_page.get(translation_page, ()))

    def dirty_entries_on_translation_page(
            self, translation_page: int) -> List[CachedMapping]:
        """Dirty cached entries belonging to one translation page.

        This is the range query a synchronization operation performs so that
        one translation-page rewrite flushes every dirty entry it can.
        """
        result = []
        for logical in self.cached_logicals_on_translation_page(translation_page):
            entry = self._entries.get(logical)
            if entry is not None and entry.dirty:
                result.append(entry)
        return result

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def put(self, entry: CachedMapping) -> None:
        """Insert or replace the entry for ``entry.logical`` (most recent)."""
        existing = self._entries.get(entry.logical)
        if existing is None:
            # Logical keys are non-negative, so a ``None`` here can only mean
            # "absent" (checkpoint symbols live under negative keys).
            self._live_count += 1
        elif existing.dirty:
            self._dirty_count -= 1
        self._entries[entry.logical] = entry
        self._entries.move_to_end(entry.logical)
        self._by_translation_page.setdefault(
            self.translation_page_of(entry.logical), set()).add(entry.logical)
        if entry.dirty:
            self._dirty_count += 1

    def mark_dirty(self, logical: LogicalAddress, dirty: bool = True) -> None:
        """Flip the dirty flag of a cached entry, keeping the count exact."""
        entry = self._entries.get(logical)
        if entry is None:
            raise KeyError(f"logical page {logical} is not cached")
        if entry.dirty != dirty:
            self._dirty_count += 1 if dirty else -1
            entry.dirty = dirty

    def remove(self, logical: LogicalAddress) -> Optional[CachedMapping]:
        """Drop the entry for ``logical`` from the cache, if present."""
        entry = self._entries.pop(logical, None)
        if entry is None:
            return None
        self._live_count -= 1
        translation_page = self.translation_page_of(logical)
        bucket = self._by_translation_page.get(translation_page)
        if bucket is not None:
            bucket.discard(logical)
            if not bucket:
                del self._by_translation_page[translation_page]
        if entry.dirty:
            self._dirty_count -= 1
        return entry

    def pop_lru(self) -> Optional[CachedMapping]:
        """Remove and return the least recently used real entry.

        Checkpoint symbols encountered at the cold end are silently discarded:
        an expired symbol carries no information once the entries behind it
        have been evicted. The removal bookkeeping is inlined (one dict walk,
        no second key lookup through :meth:`remove`) because this runs once
        per eviction on the write path.
        """
        entries = self._entries
        while entries:
            key, entry = next(iter(entries.items()))
            entries.pop(key)
            if entry is None:
                continue
            self._live_count -= 1
            bucket = self._by_translation_page.get(
                key // self.entries_per_translation_page)
            if bucket is not None:
                bucket.discard(key)
                if not bucket:
                    del self._by_translation_page[
                        key // self.entries_per_translation_page]
            if entry.dirty:
                self._dirty_count -= 1
            return entry
        return None

    def clear(self) -> None:
        """Drop everything (models losing integrated RAM on power failure)."""
        self._entries.clear()
        self._by_translation_page.clear()
        self._dirty_count = 0
        self._live_count = 0

    # ------------------------------------------------------------------
    # Checkpoint support (GeckoFTL, Section 4.3)
    # ------------------------------------------------------------------
    def insert_checkpoint_symbol(self) -> int:
        """Insert a checkpoint marker at the most-recent end of the LRU queue.

        Returns the symbol's identifier. Symbols are stored under negative
        keys so they can never collide with logical page numbers.
        """
        self._checkpoint_serial += 1
        symbol_key = -self._checkpoint_serial
        self._entries[symbol_key] = None
        return symbol_key

    def entries_older_than_symbol(self, symbol_key: int) -> List[CachedMapping]:
        """Entries that have not been touched since ``symbol_key`` was inserted.

        Walks the LRU queue from the cold end up to the symbol. The caller
        (the checkpoint routine) synchronizes the dirty ones.
        """
        older: List[CachedMapping] = []
        for key, value in self._entries.items():
            if key == symbol_key:
                break
            if value is not None:
                older.append(value)
        return older

    def remove_checkpoint_symbol(self, symbol_key: int) -> None:
        """Remove a checkpoint symbol once its checkpoint has completed."""
        self._entries.pop(symbol_key, None)
