"""GeckoRec: GeckoFTL's power-failure recovery algorithm (paper Appendix C).

Power failure wipes integrated RAM: the mapping cache (including its dirty
entries), the GMD, Logarithmic Gecko's buffer and run directories, the BVC and
the block manager's layout bookkeeping. Flash contents survive. GeckoRec
rebuilds the RAM-resident state in eight steps:

1.  Build a temporary Blocks Information Directory (BID) by reading the spare
    area of the first page of every block — one spare read per block gives
    each block's type and first-write timestamp.
2.  Rebuild the GMD by scanning the spare areas of all translation-block
    pages and keeping the newest version of every translation page.
3.  Rebuild Logarithmic Gecko's run directories by scanning the spare areas
    of all Gecko-block pages; the newest *complete* run's manifest (its
    postamble) identifies the set of valid runs.
4.  Rebuild Logarithmic Gecko's buffer: re-insert erase records for blocks
    erased since the last buffer flush, and re-insert invalidation records by
    diffing translation pages updated since the last flush against their
    previous versions.
5.  Rebuild the Block Validity Counter by scanning the valid runs and
    subtracting each block's invalid-page count from its programmed-page
    count.
6.  Recreate cached mapping entries for the most recently updated logical
    pages with a bounded backwards scan over recently written user blocks
    (at most ``2*C`` spare reads thanks to the runtime checkpoints).
7.  Mark every recreated entry dirty/UIP/uncertain; the pessimistic flags are
    corrected lazily during normal synchronization operations after recovery
    (Appendix C.3), so this step costs nothing during recovery itself.
8.  Discard the BID and resume normal operation.

The recovery object reports, per step, how many flash IOs were spent and the
simulated elapsed time under the configured latency model — this is what the
Figure 13 recovery comparison and the recovery benchmarks consume.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..flash.address import PhysicalAddress
from ..flash.stats import IOPurpose
from ..ftl.block_manager import BlockType
from ..ftl.mapping_cache import CachedMapping
from ..ftl.recovery import RecoveryAdapter, RecoveryReport, RecoveryStep
from .run import Run, RunPageInfo

__all__ = ["GeckoRecovery", "RecoveryReport", "RecoveryStep"]


class GeckoRecovery(RecoveryAdapter):
    """Executes power failure and GeckoRec against a
    :class:`~repro.core.gecko_ftl.GeckoFTL`.

    The generic scan steps (BID construction, GMD recovery) and the step
    measurement live in :class:`~repro.ftl.recovery.RecoveryAdapter`; this
    class adds the Gecko-specific steps (run directories, buffer, BVC, and
    the bounded dirty-entry scan).
    """

    # ------------------------------------------------------------------
    # Power failure
    # ------------------------------------------------------------------
    def simulate_power_failure(self) -> None:
        """Discard every RAM-resident structure; flash contents survive.

        The shared wipe covers the cache/GMD/validity/BVC/layout/GC state
        (the validity-store wrapper delegates to Logarithmic Gecko's own
        ``reset_ram_state``); GeckoFTL's checkpoint counters are the only
        extra RAM to lose. A collection interrupted by a crash hook simply
        never finished its erase — the mapping check in GeckoFTL's
        migration path keeps the un-erased victim's unrecorded stale
        copies from ever being migrated.
        """
        self._wipe_ram_state()
        self.ftl._previous_checkpoint_symbol = None
        self.ftl._cache_update_counter = 0

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def recover(self) -> RecoveryReport:
        """Run GeckoRec and return the per-step cost report."""
        report = RecoveryReport()
        bid = self._step1_build_bid(report)
        self._step2_recover_gmd(report, bid)
        self._step3_recover_run_directories(report, bid)
        self._step4_recover_buffer(report, bid)
        self._step5_rebuild_bvc(report, bid)
        self._step6_recover_dirty_entries(report, bid)
        # Step 7 (setting dirty/UIP/uncertain flags) is folded into step 6 —
        # the flags are set at entry creation and corrected lazily later.
        # Step 8: dispose of the BID; nothing to do beyond returning.
        return report

    # ------------------------------------------------------------------
    # Step implementations
    # ------------------------------------------------------------------
    def _step1_build_bid(self, report: RecoveryReport) -> Dict[int, dict]:
        """Read one spare area per block to learn its type and age."""
        return self._build_bid(report, name="step1_bid")

    def _step2_recover_gmd(self, report: RecoveryReport,
                           bid: Dict[int, dict]) -> None:
        """Scan translation-block spare areas to find the newest versions."""
        self._translation_versions = self._recover_gmd(report, bid,
                                                       name="step2_gmd")

    def _step3_recover_run_directories(self, report: RecoveryReport,
                                       bid: Dict[int, dict]) -> None:
        """Scan Gecko-block spare areas and rebuild the valid run set."""
        before = self.device.stats.snapshot()
        pages_by_run: Dict[int, Dict[int, dict]] = {}
        for address, spare in self._scan_spares(bid, BlockType.VALIDITY):
            run_id = spare.payload.get("gecko_run_id")
            if run_id is None:
                continue
            pages_by_run.setdefault(run_id, {})[
                spare.payload["gecko_sequence"]] = {
                    "address": address,
                    "level": spare.payload["gecko_level"],
                    "is_last": spare.payload["gecko_is_last"],
                    "creation": spare.payload["gecko_creation"],
                    "min_key": tuple(spare.payload["gecko_min_key"]),
                    "max_key": tuple(spare.payload["gecko_max_key"]),
                    "timestamp": spare.write_timestamp,
                }
        complete_runs = {}
        for run_id, pages in pages_by_run.items():
            sequences = sorted(pages)
            if not pages[sequences[-1]]["is_last"]:
                continue  # partially written run: discard
            if sequences != list(range(len(sequences))):
                continue
            complete_runs[run_id] = pages

        valid_ids: Set[int] = set()
        if complete_runs:
            newest_run_id = max(
                complete_runs,
                key=lambda rid: complete_runs[rid][max(complete_runs[rid])]["timestamp"])
            last_page = complete_runs[newest_run_id][
                max(complete_runs[newest_run_id])]
            # The payload is a packed column chunk; only its manifest is
            # needed, so the tagged fast path (identically charged) avoids
            # materializing a page view — and no per-entry objects exist to
            # materialize in the first place.
            payload = self.device.read_page_data(last_page["address"],
                                                 purpose=IOPurpose.RECOVERY)
            manifest = payload.manifest or (newest_run_id,)
            valid_ids = {run_id for run_id in manifest
                         if run_id in complete_runs}

        recovered_runs: List[Run] = []
        for run_id in valid_ids:
            pages = complete_runs[run_id]
            first = pages[0]
            run = Run(run_id=run_id, level=first["level"],
                      creation_timestamp=first["creation"])
            for sequence in sorted(pages):
                page = pages[sequence]
                run.pages.append(RunPageInfo(location=page["address"],
                                             min_key=page["min_key"],
                                             max_key=page["max_key"]))
            recovered_runs.append(run)
        self.ftl.gecko.restore_runs(recovered_runs)
        # Pages of obsolete or partial runs are invalid metadata.
        valid_locations = {page.location for run in recovered_runs
                           for page in run.pages}
        for run_id, pages in pages_by_run.items():
            for page in pages.values():
                if page["address"] not in valid_locations:
                    self.ftl.block_manager.invalidate_metadata_page(
                        page["address"])
        report.recovered_runs = len(recovered_runs)
        self._measure(report, "step3_run_directories", before)

    def _step4_recover_buffer(self, report: RecoveryReport,
                              bid: Dict[int, dict]) -> None:
        """Re-insert erase and invalidation records lost from the buffer."""
        before = self.device.stats.snapshot()
        gecko = self.ftl.gecko
        last_flush = self._last_flush_timestamp()

        # C.2.1 — blocks erased since the last flush: free blocks, plus blocks
        # whose first page was written after the last flush (erased then
        # reused).
        erase_records = 0
        for block_id, info in bid.items():
            recently_rewritten = (info["timestamp"] is not None
                                  and last_flush is not None
                                  and info["timestamp"] > last_flush)
            if info["type"] is BlockType.FREE or recently_rewritten:
                gecko.buffer.insert_erase(block_id)
                erase_records += 1

        # C.2.2 — pages invalidated since the last flush: diff translation
        # pages updated after the flush against their previous versions.
        invalidation_records = 0
        versions = getattr(self, "_translation_versions", {})
        pages_per_block = self.config.pages_per_block
        entries_per_page = self.ftl.translation_table.entries_per_page
        for translation_page_id, version_list in versions.items():
            ordered = sorted(version_list)
            newest_ts, newest_addr = ordered[-1]
            if last_flush is not None and newest_ts <= last_flush:
                continue
            if len(ordered) < 2:
                continue
            _prev_ts, prev_addr = ordered[-2]
            new_content = self.device.read_page_data(
                newest_addr, purpose=IOPurpose.RECOVERY)
            old_content = self.device.read_page_data(
                prev_addr, purpose=IOPurpose.RECOVERY)
            first_logical = translation_page_id * entries_per_page
            for slot, (old_physical, new_physical) in enumerate(
                    zip(old_content.entries, new_content.entries)):
                if old_physical < 0 or new_physical == old_physical:
                    continue
                old_address = PhysicalAddress(
                    *divmod(old_physical, pages_per_block))
                spare = self.device.read_spare(old_address,
                                               purpose=IOPurpose.RECOVERY)
                if spare.logical_address != first_logical + slot:
                    continue
                # The before-image this diff identified was written before
                # the translation-page version that referenced it. If the
                # occupant's timestamp is newer, the block was erased and
                # reused since — possibly by a fresh copy of the very same
                # logical page — so recording it invalid could kill live
                # data. Skipping is always safe: an unrecorded stale copy
                # is reclaimed by the mapping check in GeckoFTL's GC
                # migration path.
                if spare.write_timestamp is not None \
                        and spare.write_timestamp >= _prev_ts:
                    continue
                gecko.record_invalid(old_address.block, old_address.page)
                invalidation_records += 1
        report.recovered_erase_records = erase_records
        report.recovered_invalidation_records = invalidation_records
        self._measure(report, "step4_buffer", before)

    def _step5_rebuild_bvc(self, report: RecoveryReport,
                           bid: Dict[int, dict]) -> None:
        """Scan Logarithmic Gecko once and rebuild the per-block counters.

        The reconstruction's flash reads happen inside the measured window
        (the callable runs after the step's snapshot).
        """
        self._rebuild_bvc(report, bid, self.ftl.gecko.reconstruct_bitmaps,
                          "step5_bvc")

    def _step6_recover_dirty_entries(self, report: RecoveryReport,
                                     bid: Dict[int, dict]) -> None:
        """Backwards scan over recent user blocks recreating mapping entries.

        Thanks to the runtime checkpoints, every logical page dirty at failure
        time is among the most recently written ``2 * C`` user pages, so the
        scan is bounded and independent of device capacity.
        """
        before = self.device.stats.snapshot()
        capacity = self.ftl.cache.capacity
        scan_budget = 2 * capacity
        user_blocks = [
            (info["timestamp"], block_id) for block_id, info in bid.items()
            if info["type"] is BlockType.USER and info["timestamp"] is not None]
        user_blocks.sort(reverse=True)

        pages_per_block = self.config.pages_per_block
        seen: Set[int] = set()
        recovered = 0
        scanned = 0
        for _timestamp, block_id in user_blocks:
            if scanned >= scan_budget or recovered >= capacity:
                break
            block = self.device.block(block_id)
            ordered_pages = []
            for offset in range(block.written_pages):
                spare = self.device.read_spare(PhysicalAddress(block_id, offset),
                                               purpose=IOPurpose.RECOVERY)
                scanned += 1
                ordered_pages.append((spare.write_timestamp, offset, spare))
            for _ts, offset, spare in sorted(ordered_pages, reverse=True):
                logical = spare.logical_address
                if logical is None or logical in seen:
                    continue
                seen.add(logical)
                entry = CachedMapping(logical,
                                      block_id * pages_per_block + offset,
                                      dirty=True, uip=True, uncertain=True)
                self.ftl.cache.put(entry)
                recovered += 1
                if recovered >= capacity:
                    break
        report.recovered_mapping_entries = recovered
        self._measure(report, "step6_dirty_entries", before)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _last_flush_timestamp(self) -> Optional[int]:
        """Device write-clock value of the last buffer flush, if any.

        The most recently created valid run's pages carry the flush's write
        timestamps; the earliest page of that run is a safe lower bound.
        """
        runs = self.ftl.gecko.runs.all_runs()
        if not runs:
            return None
        newest = runs[0]
        timestamps = []
        for page in newest.pages:
            spare = self.device.peek(page.location).spare
            if spare.write_timestamp is not None:
                timestamps.append(spare.write_timestamp)
        return min(timestamps) if timestamps else None
