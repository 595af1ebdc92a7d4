//! Reclamation: GC, bad-block retirement, scrub — everything that moves
//! a live page or erases a block.
//!
//! Freeing a segment marks its pages dead. A block whose pages are all
//! dead is erased and recycled immediately, but a block mixing one
//! long-lived page with dead temp pages would otherwise be pinned
//! forever — the fragmentation that kills log-structured stores under
//! churn. The [`Volume::gc`] pass picks victims by **greedy
//! cost-benefit** (dead ratio weighted by wear headroom), migrates their
//! live pages to a separate cold-write frontier, and erases them. A
//! configurable free-block low-watermark
//! ([`FlashConfig::gc_low_watermark_blocks`]) triggers the same pass from
//! the allocator, so writers never see "volume full" while reclaimable
//! space exists. Free blocks are handed out least-worn-first (replacing
//! the seed's FIFO), keeping [`crate::Nand::wear_spread`] bounded.
//!
//! Writers and readers buffer exactly **one flash page** in device RAM,
//! charged against the query's [`RamScope`]; the GC's copy buffer is
//! charged the same way — the tiny-RAM discipline applies even to
//! reclamation.
//!
//! All three movers — GC migration, bad-block evacuation, scrub — go
//! through the one `relocate_page`, and every erase through the one
//! `recycle_block`.
//!
//! [`FlashConfig::gc_low_watermark_blocks`]: ghostdb_types::FlashConfig::gc_low_watermark_blocks

use ghostdb_ram::RamScope;
use ghostdb_types::{GhostError, Result};

use super::{AllocState, Volume, UNMAPPED};
use crate::nand::{BlockId, PageAddr};

/// Upper bound on victim blocks migrated per GC pass, bounding the
/// latency a single allocation can absorb.
const GC_MAX_VICTIMS_PER_PASS: usize = 8;

/// Scrub trigger: once a physical page has needed this many corrected
/// reads since it was programmed, the scrub pass rewrites it to a fresh
/// cell before it rots past the single-bit correction budget.
const SCRUB_THRESHOLD: u32 = 2;

/// Cumulative garbage-collection counters (also the per-pass report of
/// [`Volume::gc`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcStats {
    /// GC passes that found at least one victim.
    pub passes: u64,
    /// Victim blocks erased and returned to the free list.
    pub blocks_reclaimed: u64,
    /// Live pages copied out of victims.
    pub pages_migrated: u64,
    /// Dead pages recovered by erasing victims.
    pub pages_reclaimed: u64,
}

/// Reliability counters surfaced by [`Volume::reliability`] (and the
/// engine's `device_report()`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReliabilityStats {
    /// Page reads whose single-bit error the codeword repaired.
    pub corrected: u64,
    /// Page reads that failed past the correction budget.
    pub uncorrectable: u64,
    /// Blocks retired to the bad-block table.
    pub retired_blocks: usize,
    /// Retirement budget ([`FlashConfig::spare_blocks`]).
    ///
    /// [`FlashConfig::spare_blocks`]: ghostdb_types::FlashConfig::spare_blocks
    pub spare_blocks: usize,
    /// Pages the scrub pass has rewritten.
    pub scrubbed_pages: u64,
}

/// What one scrub pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Pages rewritten to fresh locations (corrected-read count at or
    /// past the threshold).
    pub pages_rewritten: u64,
    /// Pages at the threshold that could not move because the sealed
    /// image pins their physical address; the next seal unpins them.
    pub pages_skipped_sealed: u64,
}

impl AllocState {
    /// A block the GC may reclaim: fully allocated (it will never be
    /// written again), holding at least one dead page, not pinned by a
    /// write frontier, free of sealed pages (migrating those would
    /// invalidate the physical mappings the sealed image recorded), and
    /// not retired to the bad-block table (it cannot be erased). Shared
    /// by the pre-check and victim selection so the two cannot drift.
    fn victim_eligible(&self, b: usize, ppb: usize) -> bool {
        self.allocated[b] as usize == ppb
            && self.allocated[b] > self.live[b]
            && self.sealed_in_block[b] == 0
            && !self.bad[b]
            && !self.is_frontier(BlockId(b as u32), ppb)
    }

    fn retired_blocks(&self) -> usize {
        self.bad.iter().filter(|&&b| b).count()
    }
}

impl Volume {
    /// Retired blocks, ascending — what the durability layer persists.
    pub fn bad_blocks_snapshot(&self) -> Vec<u32> {
        let st = self.state.lock().expect("volume poisoned");
        st.bad
            .iter()
            .enumerate()
            .filter_map(|(b, &bad)| bad.then_some(b as u32))
            .collect()
    }

    /// Reliability counters: ECC corrections, uncorrectable failures,
    /// retired blocks against the spare budget, scrubbed pages.
    pub fn reliability(&self) -> ReliabilityStats {
        let st = self.state.lock().expect("volume poisoned");
        ReliabilityStats {
            corrected: st.corrected_total,
            uncorrectable: st.uncorrectable_total,
            retired_blocks: st.retired_blocks(),
            spare_blocks: self.nand.config().spare_blocks,
            scrubbed_pages: st.scrubbed_pages,
        }
    }

    /// Move `block` to the bad-block table: off the free list, out of
    /// both frontiers, never erased or allocated again. Its unsealed
    /// live pages are evacuated to the cold frontier — the defect is in
    /// programming/erasing, the stored copies are still readable.
    /// Sealed pages stay put (the sealed image pins their physical
    /// address) and stay readable; the next seal records their
    /// successors. Fails with the "worn out" diagnostic once
    /// retirements exceed the spare budget.
    pub(super) fn retire_block(&self, st: &mut AllocState, block: BlockId) -> Result<()> {
        if st.bad[block.index()] {
            return Ok(());
        }
        st.bad[block.index()] = true;
        if let Some(i) = st.free_blocks.iter().position(|&b| b == block) {
            st.free_blocks.swap_remove(i);
        }
        if matches!(st.current, Some((b, _)) if b == block) {
            st.current = None;
        }
        if matches!(st.gc_current, Some((b, _)) if b == block) {
            st.gc_current = None;
        }
        st.allocated[block.index()] = self.nand.config().pages_per_block as u32;
        let retired = st.retired_blocks();
        let budget = self.nand.config().spare_blocks;
        if retired > budget {
            return Err(GhostError::flash(format!(
                "flash part worn out: {retired} blocks retired, spare budget is {budget}"
            )));
        }
        // The copy transits the part's page register (copy-back), so
        // no query RAM scope is charged — and the buffer is this
        // call's own: a retirement can strike inside another block's
        // relocation, whose page image must survive it.
        let mut buf = vec![0u8; self.raw_page_size()];
        self.evacuate_block(st, block, &mut buf)
    }

    /// Move one mapped page to a fresh cell on the cold frontier:
    /// read → codeword check (repairing a flipped bit, so relocation
    /// doubles as error scrubbing) → regenerate the codeword → program
    /// → remap. The only place a live page changes physical address —
    /// GC migration, bad-block evacuation and scrub all come through
    /// here. Caller holds the state lock; `buf` is one raw page.
    fn relocate_page(&self, st: &mut AllocState, src: PageAddr, buf: &mut [u8]) -> Result<()> {
        let lpn = st.p2l[src.index()];
        self.nand.read_into(src, 0, buf)?;
        let verdict = self.nand.verify(buf);
        self.note_verdict(st, src, verdict)?;
        self.nand.reseal(buf);
        let dest = self.program_raw(st, true, buf)?;
        st.l2p[lpn as usize] = dest.0;
        st.p2l[dest.index()] = lpn;
        st.p2l[src.index()] = UNMAPPED;
        st.live[self.nand.block_of(src).index()] -= 1;
        Ok(())
    }

    /// Relocate every live page off `block` except the sealed ones,
    /// which the image pins in place (a GC victim holds none).
    fn evacuate_block(&self, st: &mut AllocState, block: BlockId, buf: &mut [u8]) -> Result<()> {
        let ppb = self.nand.config().pages_per_block;
        let first = block.index() * ppb;
        for idx in first..first + ppb {
            let lpn = st.p2l[idx];
            if lpn != UNMAPPED && !st.is_sealed(lpn) {
                self.relocate_page(st, PageAddr(idx as u32), buf)?;
            }
        }
        Ok(())
    }

    /// Erase a fully-dead block and publish it to the free list — the
    /// only erase the volume issues. An erase failure grows the block
    /// bad: it is retired instead of recycled (the data was dead or
    /// already copied out, so the error is swallowed) and `Ok(false)`
    /// says the block did not come back.
    pub(super) fn recycle_block(&self, st: &mut AllocState, block: BlockId) -> Result<bool> {
        // Erase before publishing to the free list, so a block is
        // never allocatable while still holding stale data.
        match self.nand.erase(block) {
            Ok(()) => {
                let ppb = self.nand.config().pages_per_block;
                let first = block.index() * ppb;
                st.allocated[block.index()] = 0;
                st.corrected_reads[first..first + ppb].fill(0);
                self.cache.invalidate_range(first, ppb);
                st.free_blocks.push(block);
                Ok(true)
            }
            Err(_) if self.nand.is_grown_bad(block) => self.retire_block(st, block).map(|()| false),
            Err(e) => Err(e),
        }
    }

    /// Pick the most profitable victim: greedy cost-benefit on dead
    /// ratio × wear headroom, so fragmented *and* lightly-worn blocks go
    /// first. Returns `None` when no block holds a reclaimable dead page.
    fn pick_victim(&self, st: &AllocState, wear: &[u32]) -> Option<BlockId> {
        let ppb = self.nand.config().pages_per_block;
        let max_wear = wear.iter().copied().max().unwrap_or(0);
        let mut best: Option<(f64, BlockId)> = None;
        for (b, &w) in wear.iter().enumerate() {
            if !st.victim_eligible(b, ppb) {
                continue;
            }
            let block = BlockId(b as u32);
            let dead = st.allocated[b] - st.live[b];
            let dead_ratio = dead as f64 / ppb as f64;
            let headroom = (max_wear - w + 1) as f64;
            let score = dead_ratio * headroom;
            if best.is_none_or(|(s, _)| score > s) {
                best = Some((score, block));
            }
        }
        best.map(|(_, b)| b)
    }

    /// True if a GC pass would find at least one victim (checked before
    /// charging the copy buffer, so a no-op pass costs no RAM).
    fn has_victim(&self) -> bool {
        let st = self.state.lock().expect("volume poisoned");
        let ppb = self.nand.config().pages_per_block;
        (0..self.nand.block_count()).any(|b| st.victim_eligible(b, ppb))
    }

    /// Migrate `victim`'s live pages to the cold frontier, then erase and
    /// recycle it. Caller holds the state lock; `buf` is one raw page.
    fn migrate_block(
        &self,
        st: &mut AllocState,
        victim: BlockId,
        buf: &mut [u8],
        report: &mut GcStats,
    ) -> Result<()> {
        let live = st.live[victim.index()];
        let dead = (st.allocated[victim.index()] - live) as u64;
        let evacuated = self.evacuate_block(st, victim, buf);
        // Counted from what actually moved, so an error partway through
        // cannot lose what this block already cost.
        let migrated = (live - st.live[victim.index()]) as u64;
        report.pages_migrated += migrated;
        st.gc.pages_migrated += migrated;
        evacuated?;
        debug_assert_eq!(st.live[victim.index()], 0, "victim fully migrated");
        // A victim that grew bad on erase is retired, not reclaimed:
        // the copies are safe, the block just does not come back.
        if self.recycle_block(st, victim)? {
            report.blocks_reclaimed += 1;
            report.pages_reclaimed += dead;
            st.gc.blocks_reclaimed += 1;
            st.gc.pages_reclaimed += dead;
        }
        Ok(())
    }

    /// Run one garbage-collection pass: up to `GC_MAX_VICTIMS_PER_PASS`
    /// (8) victim blocks are compacted and erased. The one-page copy
    /// buffer is charged to `scope`. Returns what this pass reclaimed
    /// (all zeros when nothing was fragmented).
    pub fn gc(&self, scope: &RamScope) -> Result<GcStats> {
        let mut report = GcStats::default();
        let scrub_pending = self.has_scrub_work();
        if !self.has_victim() && !scrub_pending {
            return Ok(report);
        }
        let pause_start = self.nand.clock().now();
        let _ram = scope.alloc(self.raw_page_size())?;
        let mut buf = vec![0u8; self.raw_page_size()];
        let mut st = self.state.lock().expect("volume poisoned");
        let mut outcome = Ok(());
        for _ in 0..GC_MAX_VICTIMS_PER_PASS {
            let wear = self.nand.wear_snapshot();
            let Some(victim) = self.pick_victim(&st, &wear) else {
                break;
            };
            if let Err(e) = self.migrate_block(&mut st, victim, &mut buf, &mut report) {
                // Keep what the pass already reclaimed on the books;
                // migrate_block updated the cumulative counters in step.
                outcome = Err(e);
                break;
            }
        }
        if outcome.is_ok() {
            // Piggyback the scrub: pages whose corrected-read count
            // crossed the threshold move to fresh cells while the copy
            // buffer is already paid for.
            outcome = self.scrub_locked(&mut st, &mut buf).map(|_| ());
        }
        if report.blocks_reclaimed > 0 || report.pages_migrated > 0 {
            report.passes = 1;
            st.gc.passes += 1;
        }
        drop(st);
        if let Some(m) = self.metrics.get() {
            m.gc_pause
                .observe(self.nand.clock().now().since(pause_start));
            m.gc_migrations.add(report.pages_migrated);
        }
        outcome.map(|()| report)
    }

    /// True if any mapped page's corrected-read count has crossed the
    /// scrub threshold (checked before charging the copy buffer).
    fn has_scrub_work(&self) -> bool {
        let st = self.state.lock().expect("volume poisoned");
        st.corrected_reads
            .iter()
            .enumerate()
            .any(|(p, &c)| c >= SCRUB_THRESHOLD && st.p2l[p] != UNMAPPED)
    }

    /// Rewrite every unsealed mapped page whose corrected-read count has
    /// crossed [`SCRUB_THRESHOLD`] to a fresh location before it rots
    /// past the single-bit budget. Sealed pages cannot move (the image
    /// pins them) and are skipped until the next seal. Caller holds the
    /// state lock; `buf` is one raw page.
    fn scrub_locked(&self, st: &mut AllocState, buf: &mut [u8]) -> Result<ScrubReport> {
        let mut report = ScrubReport::default();
        for idx in 0..st.corrected_reads.len() {
            if st.corrected_reads[idx] < SCRUB_THRESHOLD {
                continue;
            }
            let lpn = st.p2l[idx];
            if lpn == UNMAPPED {
                // Dead page; the counter dies with it.
                st.corrected_reads[idx] = 0;
                continue;
            }
            if st.is_sealed(lpn) {
                report.pages_skipped_sealed += 1;
                continue;
            }
            self.relocate_page(st, PageAddr(idx as u32), buf)?;
            st.corrected_reads[idx] = 0;
            st.scrubbed_pages += 1;
            report.pages_rewritten += 1;
        }
        Ok(report)
    }

    /// Run a standalone scrub pass (the GC piggybacks the same pass);
    /// the one-page copy buffer is charged to `scope`.
    pub fn scrub(&self, scope: &RamScope) -> Result<ScrubReport> {
        if !self.has_scrub_work() {
            return Ok(ScrubReport::default());
        }
        let pause_start = self.nand.clock().now();
        let _ram = scope.alloc(self.raw_page_size())?;
        let mut buf = vec![0u8; self.raw_page_size()];
        let mut st = self.state.lock().expect("volume poisoned");
        let report = self.scrub_locked(&mut st, &mut buf);
        drop(st);
        if let Some(m) = self.metrics.get() {
            m.scrub_pause
                .observe(self.nand.clock().now().since(pause_start));
        }
        report
    }

    /// Cumulative garbage-collection counters since volume creation.
    pub fn gc_stats(&self) -> GcStats {
        self.state.lock().expect("volume poisoned").gc
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{fragment, setup, setup_cfg};
    use super::*;
    use crate::nand::Nand;
    use ghostdb_ram::RamBudget;
    use ghostdb_types::{FlashConfig, SimClock};

    #[test]
    fn gc_reclaims_fragmented_blocks() {
        let (vol, scope) = setup(8); // 32 pages
        let (keeper, junk) = fragment(&vol, &scope, 4);
        vol.free(junk).unwrap();
        // Every touched block holds one live keeper page: nothing was
        // erasable opportunistically.
        assert_eq!(vol.usage().dead_pages, 12);
        assert_eq!(vol.nand().stats().block_erases, 0);

        let report = vol.gc(&scope).unwrap();
        assert!(report.blocks_reclaimed >= 3, "{report:?}");
        assert_eq!(report.pages_reclaimed, 12);
        assert_eq!(report.pages_migrated, 4);
        assert_eq!(vol.usage().dead_pages, 0);
        assert_eq!(vol.gc_stats().passes, 1);

        // The keeper's bytes are intact at their new physical homes.
        let mut r = vol.reader(&scope, &keeper).unwrap();
        let mut back = vec![0u8; keeper.len() as usize];
        r.read_exact(&mut back).unwrap();
        assert!(back.iter().all(|&b| b == 0x11));
    }

    #[test]
    fn gc_noop_without_fragmentation() {
        let (vol, scope) = setup(4);
        let mut w = vol.writer(&scope).unwrap();
        w.write(&vec![1u8; vol.page_size() * 4]).unwrap();
        let _seg = w.finish().unwrap();
        let report = vol.gc(&scope).unwrap();
        assert_eq!(report, GcStats::default());
        assert_eq!(vol.nand().stats().block_erases, 0);
    }

    #[test]
    fn allocation_triggers_gc_at_watermark() {
        // Watermark covers the whole part: the allocator must GC rather
        // than report "full" when fragmented space exists.
        let (vol, scope) = setup_cfg(8, 8);
        // Fragment 7 of the 8 blocks; one stays free so the GC can stage
        // migrations (the low-watermark trigger keeps real workloads from
        // ever reaching zero free blocks with fragmentation outstanding).
        let (keeper, junk) = fragment(&vol, &scope, 7);
        vol.free(junk).unwrap();
        assert_eq!(vol.usage().free_blocks, 1);
        // 21 dead pages are reclaimable; this write needs 4 fresh pages.
        let mut w = vol.writer(&scope).unwrap();
        w.write(&vec![0x33; vol.page_size() * 4]).unwrap();
        let seg = w.finish().unwrap();
        assert!(vol.gc_stats().blocks_reclaimed > 0);
        let mut r = vol.reader(&scope, &keeper).unwrap();
        let mut back = vec![0u8; keeper.len() as usize];
        r.read_exact(&mut back).unwrap();
        assert!(back.iter().all(|&b| b == 0x11));
        vol.free(seg).unwrap();
        vol.free(keeper).unwrap();
        assert_eq!(vol.usage().live_pages, 0);
    }

    #[test]
    fn gc_copy_buffer_is_charged() {
        let (vol, scope) = setup(8);
        let (_keeper, junk) = fragment(&vol, &scope, 4);
        vol.free(junk).unwrap();
        // A scope with no headroom cannot run the pass.
        let tiny = RamBudget::new(32);
        let starved = RamScope::new(&tiny);
        assert!(vol.gc(&starved).is_err());
        // A funded scope can.
        assert!(vol.gc(&scope).unwrap().blocks_reclaimed > 0);
    }

    #[test]
    fn program_failure_retires_block_and_write_succeeds() {
        let (vol, scope) = setup(16);
        let ps = vol.page_size();
        vol.nand().arm_program_failures(7, 0.15);
        let data: Vec<u8> = (0..ps * 12).map(|i| (i % 251) as u8).collect();
        let mut w = vol.writer(&scope).unwrap();
        w.write(&data).unwrap();
        let seg = w.finish().unwrap();
        vol.nand().disarm_block_failures();

        let rel = vol.reliability();
        assert!(rel.retired_blocks > 0, "seed produced no program failure");
        // Every byte is intact despite the mid-write retirements.
        let mut r = vol.reader(&scope, &seg).unwrap();
        let mut back = vec![0u8; data.len()];
        r.read_exact(&mut back).unwrap();
        assert_eq!(back, data);
        // Retired blocks never return to the free list.
        let badlist = vol.bad_blocks_snapshot();
        let st = vol.state.lock().unwrap();
        for &b in &badlist {
            assert!(!st.free_blocks.contains(&BlockId(b)));
        }
    }

    #[test]
    fn spare_exhaustion_is_a_clean_wearout_error() {
        let cfg = FlashConfig {
            page_size: 64,
            pages_per_block: 4,
            num_blocks: 8,
            gc_low_watermark_blocks: 0,
            spare_blocks: 1,
            ..FlashConfig::default_2007()
        };
        let vol = Volume::new(Nand::new(cfg, SimClock::new()));
        let budget = RamBudget::new(64 * 1024);
        let scope = RamScope::new(&budget);
        vol.nand().arm_program_failures(3, 1.0); // every program fails
        let mut w = vol.writer(&scope).unwrap();
        let err = w.write(&vec![0u8; vol.page_size()]).unwrap_err();
        assert!(err.to_string().contains("flash part worn out"), "{err}");
    }

    #[test]
    fn scrub_rewrites_pages_past_threshold() {
        let (vol, scope) = setup(8);
        let ps = vol.page_size();
        let data: Vec<u8> = (0..ps).map(|i| (i * 11) as u8).collect();
        let mut w = vol.writer(&scope).unwrap();
        w.write(&data).unwrap();
        let seg = w.finish().unwrap();
        let phys = vol.phys_of(seg.pages[0]).unwrap();
        // Two corrected reads (threshold = 2 in default_2007): the flip
        // stays in the stored page, so each fault re-corrects it.
        vol.nand().corrupt_page(phys, 5).unwrap();
        for _ in 0..2 {
            let mut r = vol.reader(&scope, &seg).unwrap();
            let mut sink = vec![0u8; ps];
            r.read_exact(&mut sink).unwrap();
        }
        assert_eq!(vol.reliability().corrected, 2);

        let report = vol.scrub(&scope).unwrap();
        assert_eq!(report.pages_rewritten, 1);
        assert_ne!(vol.phys_of(seg.pages[0]).unwrap(), phys, "page moved");
        assert_eq!(vol.reliability().scrubbed_pages, 1);
        // The rewritten copy reads back clean — no further corrections.
        let mut r = vol.reader(&scope, &seg).unwrap();
        let mut back = vec![0u8; ps];
        r.read_exact(&mut back).unwrap();
        assert_eq!(back, data);
        // Two workload corrections plus the scrub's own corrected read
        // of the rotted source; the fresh copy adds none.
        assert_eq!(vol.reliability().corrected, 3, "fresh copy is clean");
        // Nothing left to scrub.
        assert_eq!(vol.scrub(&scope).unwrap(), ScrubReport::default());
    }
}
