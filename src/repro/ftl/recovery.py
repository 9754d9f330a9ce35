"""Power-failure and recovery adapters for page-mapped FTLs.

Every FTL in the paper loses its integrated RAM on power failure; what
differs is how (and at what IO cost) the RAM-resident state comes back:

``GeckoRec`` (:class:`~repro.core.recovery.GeckoRecovery`)
    GeckoFTL's bounded recovery (Appendix C): O(blocks) spare reads to
    rebuild the directories plus an O(cache) backwards scan for the dirty
    mapping entries.
``BatteryRecovery``
    DFTL and µ-FTL assume a battery/supercapacitor that pays for flushing
    dirty state at failure time; at the next boot there is nothing left to
    rebuild. The "recovery" cost is the flush the battery performed.
``FullScanRecovery``
    LazyFTL, IB-FTL, and any other battery-less page-mapped FTL rebuild by
    scanning the spare area of *every written page* of the device — the
    O(device) baseline GeckoRec is designed to beat (Figure 13 middle).

All three implement the same two-phase protocol — ``simulate_power_failure``
wipes (or battery-flushes) the RAM state, ``recover`` rebuilds it — and all
return a :class:`RecoveryReport` whose per-step IO counts and simulated
durations are what the recovery sweeps, benchmarks and figures consume.

This module knows nothing about concrete FTL classes; FTLs choose their
adapter via :meth:`~repro.ftl.base.PageMappedFTL.make_recovery`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..flash.address import PhysicalAddress
from ..flash.stats import IOKind, IOPurpose, IOStats
from .block_manager import BlockType
from .translation_table import TranslationPageContent


@dataclass
class RecoveryStep:
    """IO cost and simulated duration of one recovery step."""

    name: str
    page_reads: int = 0
    page_writes: int = 0
    spare_reads: int = 0
    duration_us: float = 0.0


@dataclass
class RecoveryReport:
    """Outcome of a full recovery run (any adapter)."""

    steps: List[RecoveryStep] = field(default_factory=list)
    recovered_mapping_entries: int = 0
    recovered_runs: int = 0
    recovered_erase_records: int = 0
    recovered_invalidation_records: int = 0

    @property
    def total_duration_us(self) -> float:
        return sum(step.duration_us for step in self.steps)

    @property
    def total_spare_reads(self) -> int:
        return sum(step.spare_reads for step in self.steps)

    @property
    def total_page_reads(self) -> int:
        return sum(step.page_reads for step in self.steps)

    @property
    def total_page_writes(self) -> int:
        return sum(step.page_writes for step in self.steps)

    def as_rows(self) -> List[Tuple[str, int, int, int, float]]:
        """Rows (step, page reads, page writes, spare reads, duration)."""
        return [(step.name, step.page_reads, step.page_writes,
                 step.spare_reads, step.duration_us) for step in self.steps]

    def as_dict(self) -> Dict[str, Any]:
        """JSON-serializable summary used by recovery result rows.

        Durations are rounded so rows stay byte-identical across worker
        counts (the engine's determinism guarantee covers recovery rows).
        """
        return {
            "steps": [{"name": step.name,
                       "page_reads": step.page_reads,
                       "page_writes": step.page_writes,
                       "spare_reads": step.spare_reads,
                       "duration_us": round(step.duration_us, 6)}
                      for step in self.steps],
            "total_page_reads": self.total_page_reads,
            "total_page_writes": self.total_page_writes,
            "total_spare_reads": self.total_spare_reads,
            "total_duration_us": round(self.total_duration_us, 6),
            "recovered_mapping_entries": self.recovered_mapping_entries,
            "recovered_runs": self.recovered_runs,
            "recovered_erase_records": self.recovered_erase_records,
            "recovered_invalidation_records":
                self.recovered_invalidation_records,
        }


class RecoveryAdapter:
    """Base class of the crash/recovery adapters.

    Subclasses implement :meth:`simulate_power_failure` (what the failure
    destroys — or, for battery-backed FTLs, what the battery saves) and
    :meth:`recover` (how the RAM-resident state comes back, returning a
    :class:`RecoveryReport`). The shared helpers here measure per-step IO
    and perform the spare-area scans every scan-based recovery starts with.
    """

    def __init__(self, ftl) -> None:
        self.ftl = ftl
        self.device = ftl.device
        self.config = ftl.config

    # ------------------------------------------------------------------
    # Protocol
    # ------------------------------------------------------------------
    def simulate_power_failure(self) -> None:
        raise NotImplementedError

    def recover(self) -> RecoveryReport:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Shared power-failure wipe
    # ------------------------------------------------------------------
    def _wipe_ram_state(self) -> None:
        """Discard every RAM-resident FTL structure; flash survives.

        This is the common loss model: the mapping cache, the GMD, the
        validity store's volatile state, the BVC, the block manager's
        layout table, and the garbage collector's in-flight bookkeeping.
        Subclasses with extra RAM state (GeckoFTL's checkpoint counters)
        wipe it on top of this.
        """
        ftl = self.ftl
        ftl.cache.clear()
        ftl.translation_table.reset_ram_state()
        ftl.validity_store.reset_ram_state()
        ftl.bvc.reset()
        ftl.block_manager.rebuild_from_types({})
        ftl.garbage_collector.in_flight_victim = None

    # ------------------------------------------------------------------
    # Shared measurement helper
    # ------------------------------------------------------------------
    def _measure(self, report: RecoveryReport, name: str,
                 before: IOStats) -> RecoveryStep:
        diff = self.device.stats.diff(before)
        step = RecoveryStep(
            name=name,
            page_reads=diff.total(IOKind.PAGE_READ),
            page_writes=diff.total(IOKind.PAGE_WRITE),
            spare_reads=diff.total(IOKind.SPARE_READ),
            duration_us=diff.latency_us(self.config.latency))
        report.steps.append(step)
        obs = getattr(self.ftl, "obs", None)
        if obs is not None:
            obs.on_recovery_step(step)
        return step

    # ------------------------------------------------------------------
    # Shared scan steps (used by GeckoRec and the full-scan baselines)
    # ------------------------------------------------------------------
    def _scan_spares(self, bid: Dict[int, dict], block_type: BlockType):
        """Spare-read every written page of the BID's ``block_type`` blocks.

        Yields ``(address, spare)`` in ascending block/offset order; each
        yield is one charged RECOVERY spare read.
        """
        for block_id, info in bid.items():
            if info["type"] is not block_type:
                continue
            block = self.device.block(block_id)
            for offset in range(block.written_pages):
                address = PhysicalAddress(block_id, offset)
                yield address, self.device.read_spare(
                    address, purpose=IOPurpose.RECOVERY)

    def _build_bid(self, report: RecoveryReport,
                   name: str = "step1_bid") -> Dict[int, dict]:
        """Read one spare area per block to learn its type and age.

        Rebuilds the block manager's layout table from the recovered types
        and returns the temporary Blocks Information Directory.
        """
        before = self.device.stats.snapshot()
        bid: Dict[int, dict] = {}
        for block_id in range(self.config.num_blocks):
            block = self.device.block(block_id)
            if block.is_erased:
                bid[block_id] = {"type": BlockType.FREE, "timestamp": None}
                continue
            spare = self.device.read_spare(PhysicalAddress(block_id, 0),
                                           purpose=IOPurpose.RECOVERY)
            block_type = (BlockType(spare.block_type) if spare.block_type
                          else BlockType.USER)
            bid[block_id] = {"type": block_type,
                             "timestamp": spare.write_timestamp}
        block_types = {block_id: info["type"] for block_id, info in bid.items()}
        self.ftl.block_manager.rebuild_from_types(block_types)
        self._measure(report, name, before)
        return bid

    def _recover_gmd(self, report: RecoveryReport, bid: Dict[int, dict],
                     name: str = "step2_gmd"
                     ) -> Dict[int, List[Tuple[int, PhysicalAddress]]]:
        """Scan translation-block spare areas to find the newest versions.

        Installs the recovered GMD, reports superseded versions to the block
        manager, and returns every discovered version per translation page
        (newest last once sorted) for callers that diff versions.
        """
        before = self.device.stats.snapshot()
        newest: Dict[int, Tuple[int, PhysicalAddress]] = {}
        all_versions: Dict[int, List[Tuple[int, PhysicalAddress]]] = {}
        for address, spare in self._scan_spares(bid, BlockType.TRANSLATION):
            translation_page_id = spare.payload.get("translation_page_id")
            if translation_page_id is None:
                continue
            version = (spare.write_timestamp, address)
            all_versions.setdefault(translation_page_id, []).append(version)
            if (translation_page_id not in newest
                    or version[0] > newest[translation_page_id][0]):
                newest[translation_page_id] = version
        gmd: List[Optional[PhysicalAddress]] = (
            [None] * self.ftl.translation_table.num_translation_pages)
        for translation_page_id, (_ts, address) in newest.items():
            gmd[translation_page_id] = address
        self.ftl.translation_table.restore_gmd(gmd)
        # Older versions are invalid metadata pages; restore that bookkeeping
        # so fully-invalid translation blocks can be reclaimed.
        for translation_page_id, versions in all_versions.items():
            newest_address = newest[translation_page_id][1]
            for _ts, address in versions:
                if address != newest_address:
                    self.ftl.block_manager.invalidate_metadata_page(address)
        self._measure(report, name, before)
        return all_versions

    def _rebuild_bvc(self, report: RecoveryReport, bid: Dict[int, dict],
                     invalid_map_source, name: str) -> None:
        """Recompute per-block valid counts from an invalid-page map.

        ``invalid_map_source`` is either the ``{block_id: offsets}`` map
        itself or a callable producing it; callables run inside the
        measured window so any flash IO they perform (e.g. Logarithmic
        Gecko's bitmap reconstruction) is charged to this step.
        """
        before = self.device.stats.snapshot()
        invalid_map = (invalid_map_source() if callable(invalid_map_source)
                       else invalid_map_source)
        for block_id, info in bid.items():
            block = self.device.block(block_id)
            written = block.written_pages
            if info["type"] is BlockType.USER:
                invalid = len(invalid_map.get(block_id, ()))
                self.ftl.bvc.set_count(block_id, max(0, written - invalid))
            elif info["type"] in (BlockType.TRANSLATION, BlockType.VALIDITY):
                invalid = self.ftl.block_manager.metadata_invalid_count(
                    block_id)
                self.ftl.bvc.set_count(block_id, max(0, written - invalid))
            else:
                self.ftl.bvc.set_count(block_id, 0)
        self._measure(report, name, before)


class BatteryRecovery(RecoveryAdapter):
    """Battery-backed FTLs (DFTL, µ-FTL): the battery pays for a flush.

    At power-failure time the battery keeps the controller alive long enough
    to synchronize every dirty RAM structure with flash; the next boot then
    starts from a fully synchronized image with nothing to rebuild. The
    report carries one ``battery_flush`` step whose IO is what the battery
    paid for.
    """

    def __init__(self, ftl) -> None:
        super().__init__(ftl)
        self._report: Optional[RecoveryReport] = None

    def simulate_power_failure(self) -> None:
        before = self.device.stats.snapshot()
        # The battery keeps the controller alive: it first finishes an
        # in-flight garbage-collection erase a crash hook may have
        # interrupted (otherwise the un-erased victim's migrated-away copies
        # would look live to the preserved validity store), then pays for
        # the flush of every dirty RAM structure.
        self.ftl.garbage_collector.complete_interrupted()
        self.ftl.flush()
        # Integrated RAM is still lost once the battery runs out; the cache
        # restarts cold. Structures the flush persisted are reloaded at boot
        # at no modelled cost (they are small and sequential).
        self.ftl.cache.clear()
        report = RecoveryReport()
        self._measure(report, "battery_flush", before)
        self._report = report

    def recover(self) -> RecoveryReport:
        report = self._report if self._report is not None else RecoveryReport()
        self._report = None
        return report


class FullScanRecovery(RecoveryAdapter):
    """Battery-less baseline recovery: scan every written page's spare area.

    LazyFTL and IB-FTL (and any page-mapped FTL without a battery or a
    bounded recovery scheme) can only rebuild their volatile state from
    flash itself. Every programmed user page carries its logical address and
    write timestamp in the spare area, so a full scan finds, for every
    logical page, the newest physical copy — which is by construction the
    live one. The recovered state is authoritative: the flash-resident
    translation table is re-synchronized to the scan, the validity store is
    rebuilt from the scan's stale-copy map, and the BVC follows.

    Cost: O(written pages) spare reads plus the translation rewrites — the
    device-size-proportional recovery the paper's Figure 13 contrasts with
    GeckoRec's O(blocks + cache).

    Semantics note: like real scan-based recovery, TRIMmed logical pages
    whose stale flash copy still exists are resurrected by the scan (there
    is no durable trim record to consult).
    """

    def simulate_power_failure(self) -> None:
        """Discard every RAM-resident structure; flash contents survive.

        An interrupted collection's bookkeeping is RAM too; the un-erased
        victim is rediscovered (with its stale copies) by the scan.
        """
        self._wipe_ram_state()

    def recover(self) -> RecoveryReport:
        report = RecoveryReport()
        bid = self._build_bid(report)
        self._recover_gmd(report, bid)
        newest, invalid_by_block = self._step3_full_scan(report, bid)
        self._step4_translation_sync(report, newest)
        self._step5_validity_rebuild(report, bid, invalid_by_block)
        self._step6_rebuild_bvc(report, bid, invalid_by_block)
        return report

    # ------------------------------------------------------------------
    # Step implementations
    # ------------------------------------------------------------------
    def _step3_full_scan(self, report: RecoveryReport, bid: Dict[int, dict]
                         ) -> Tuple[Dict[int, Tuple[int, PhysicalAddress]],
                                    Dict[int, set]]:
        """Spare-scan every written user page: newest copy per logical.

        Returns ``(newest, invalid_by_block)`` where ``newest`` maps each
        logical page to ``(timestamp, address)`` of its most recent copy and
        ``invalid_by_block`` collects the offsets of superseded copies.
        """
        before = self.device.stats.snapshot()
        scanned: List[Tuple[int, int, PhysicalAddress]] = []
        newest: Dict[int, Tuple[int, PhysicalAddress]] = {}
        for address, spare in self._scan_spares(bid, BlockType.USER):
            logical = spare.logical_address
            if logical is None:
                continue
            scanned.append((spare.write_timestamp, logical, address))
            current = newest.get(logical)
            if current is None or spare.write_timestamp > current[0]:
                newest[logical] = (spare.write_timestamp, address)
        invalid_by_block: Dict[int, set] = {}
        for _timestamp, logical, address in scanned:
            if newest[logical][1] != address:
                invalid_by_block.setdefault(address.block,
                                            set()).add(address.page)
        self._measure(report, "step3_full_scan", before)
        return newest, invalid_by_block

    def _step4_translation_sync(
            self, report: RecoveryReport,
            newest: Dict[int, Tuple[int, PhysicalAddress]]) -> None:
        """Re-synchronize the flash translation table with the scan.

        The scan is authoritative: any translation page whose flash content
        disagrees with the scanned newest copies is rewritten (this is where
        mapping updates that sat dirty in the lost cache are repaired).
        """
        before = self.device.stats.snapshot()
        table = self.ftl.translation_table
        entries_per_page = table.entries_per_page
        pages_per_block = self.config.pages_per_block
        scanned_pages: Dict[int, TranslationPageContent] = {}
        for logical, (_timestamp, address) in newest.items():
            page_id = logical // entries_per_page
            scanned = scanned_pages.get(page_id)
            if scanned is None:
                scanned = scanned_pages[page_id] = TranslationPageContent(
                    page_id, table.unmapped_entries())
            scanned.entries[logical % entries_per_page] = (
                address.block * pages_per_block + address.page)
        repaired = 0
        for page_id in sorted(scanned_pages):
            scanned = scanned_pages[page_id]
            content = table.read_translation_page(
                page_id, purpose=IOPurpose.RECOVERY)
            if content.entries == scanned.entries:
                continue
            repaired += sum(1 for flash, found in zip(content.entries,
                                                      scanned.entries)
                            if flash != found)
            table.write_translation_page(scanned,
                                         purpose=IOPurpose.RECOVERY)
        report.recovered_mapping_entries = repaired
        self._measure(report, "step4_translation_sync", before)

    def _step5_validity_rebuild(self, report: RecoveryReport,
                                bid: Dict[int, dict],
                                invalid_by_block: Dict[int, set]) -> None:
        """Rebuild the validity store from the scan.

        Validity-block pages are spare-scanned here (their payload tags say
        which structure owns them); the store itself decides what to do with
        them — reload a directory, or discard the old log and re-insert.
        """
        before = self.device.stats.snapshot()
        metadata_pages: List[Tuple[int, PhysicalAddress, dict]] = [
            (spare.write_timestamp, address, dict(spare.payload))
            for address, spare in self._scan_spares(bid, BlockType.VALIDITY)]
        record_count = sum(len(offsets)
                           for offsets in invalid_by_block.values())
        self.ftl.validity_store.rebuild_after_crash(invalid_by_block,
                                                    metadata_pages)
        report.recovered_invalidation_records = record_count
        self._measure(report, "step5_validity_rebuild", before)

    def _step6_rebuild_bvc(self, report: RecoveryReport,
                           bid: Dict[int, dict],
                           invalid_by_block: Dict[int, set]) -> None:
        """Recompute the per-block valid counts; pure RAM, no IO."""
        self._rebuild_bvc(report, bid, invalid_by_block, "step6_bvc")
