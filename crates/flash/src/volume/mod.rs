//! Log-structured segment store over raw NAND, with garbage collection.
//!
//! Because NAND precludes in-place writes, everything the device persists
//! — hidden columns, Subtree Key Tables, climbing-index postings, sort
//! runs, temp spills — is written as an append-only **segment**: a
//! sequence of pages programmed exactly once.
//!
//! # Logical pages and migration
//!
//! Segments do not record physical page addresses. Every allocated page
//! gets a stable **logical page number** that the volume's translation
//! table maps to its current physical location; [`SegmentReader`],
//! [`Volume::read_at`], and everything built on them resolve through the
//! table on each page fault. That indirection is what lets the garbage
//! collector *move* pages under live segments: the executor's temp
//! spills, the hidden column store, and the indexes all keep working
//! while their pages migrate.
//!
//! # One invariant per module
//!
//! Everything below shares one state lock ([`AllocState`] behind
//! `Volume::state`); each file owns one invariant over it:
//!
//! * this file — the state itself, the allocator and its wear-aware
//!   block choice, mount-time reconstruction;
//! * [`fault`] — logical→physical resolution and the optimistic
//!   re-check every page fault makes after its transfer;
//! * [`reclaim`] — the one place a live page moves (`relocate_page`)
//!   and the one erase (`recycle_block`): GC, bad-block retirement,
//!   scrub;
//! * [`ledger`] — who still holds a freed page: the seal generation,
//!   snapshot pins, and the one deferred-free set;
//! * [`cache`] — the page-cache mirror and its invalidation;
//! * [`segment`] — [`Segment`] handles, manifests, the writer and the
//!   reader.
//!
//! The page codeword format is not here at all: it lives in
//! [`crate::ecc`], behind [`Nand::seal`] and [`Nand::verify`].

mod cache;
mod fault;
mod ledger;
mod reclaim;
mod segment;

use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, Mutex, OnceLock};

use ghostdb_obs::{Counter, Histogram, Registry, TIME_BUCKETS_NS};
use ghostdb_ram::RamScope;
use ghostdb_types::{GhostError, Result};

use crate::nand::{BlockId, Nand, PageAddr, PageState};

use cache::PageCache;
pub use cache::PageCacheStats;
pub use reclaim::{GcStats, ReliabilityStats, ScrubReport};
pub use segment::{Segment, SegmentManifest, SegmentReader, SegmentWriter};

/// Stable logical page number; the translation table maps it to the
/// page's current physical address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Lpn(u32);

/// Sentinel for "no mapping" in both directions of the translation table.
const UNMAPPED: u32 = u32::MAX;

#[derive(Debug)]
struct AllocState {
    /// Unordered pool of erased blocks; allocation takes the least-worn.
    free_blocks: Vec<BlockId>,
    /// Block the user-write frontier is filling, and the next in-block
    /// page index.
    current: Option<(BlockId, usize)>,
    /// Separate frontier for GC-migrated (cold) pages, so long-lived data
    /// compacts together instead of re-mixing with hot temp writes.
    gc_current: Option<(BlockId, usize)>,
    /// Per-block count of live (allocated and not freed) pages.
    live: Vec<u32>,
    /// Per-block count of pages handed out since the last erase.
    allocated: Vec<u32>,
    /// Logical→physical page table (`UNMAPPED` = free slot).
    l2p: Vec<u32>,
    /// Recycled logical page numbers.
    free_lpns: Vec<u32>,
    /// Physical→logical reverse map (`UNMAPPED` = dead or unwritten).
    p2l: Vec<u32>,
    /// Cumulative GC counters.
    gc: GcStats,
    /// Per-LPN "referenced by the sealed on-flash image" flag (parallel
    /// to `l2p`, short tails read as unsealed). Sealed pages may be
    /// neither migrated (the image records their physical l2p mapping)
    /// nor freed (the image still reads them) until the next seal.
    sealed: Vec<bool>,
    /// Per-block count of sealed live pages — blocks holding any are
    /// exempt from GC victim selection.
    sealed_in_block: Vec<u32>,
    /// Per-LPN snapshot pin counts: every open read snapshot pins the
    /// pages its base segments can read. A pinned page may still
    /// *migrate* (the translation table keeps snapshot reads valid) but
    /// is never physically released.
    pins: HashMap<u32, u32>,
    /// The deferred-free ledger: LPNs that were freed while the sealed
    /// image or a snapshot still held them. They stay mapped and
    /// readable, and the one rule is: a page is physically released the
    /// moment it is **freed ∧ ¬sealed ∧ unpinned** — at the `free`
    /// itself when nothing holds it, otherwise by whichever of
    /// [`Volume::commit_seal`] / [`Volume::unpin_pages`] drops the last
    /// hold. Ordered, so releases (and the erases they trigger) happen
    /// in the same order on every run.
    deferred: BTreeSet<u32>,
    /// Per-block grown-bad retirement flags — the volume's bad-block
    /// table. Retired blocks are never allocated, never erased, never
    /// GC victims; their still-readable pages stay mapped until freed.
    bad: Vec<bool>,
    /// Per-physical-page count of corrected reads since the page was
    /// programmed — the scrub pass's trigger input.
    corrected_reads: Vec<u32>,
    /// Reads whose single-bit error the codeword repaired (cumulative).
    corrected_total: u64,
    /// Reads that failed past the correction budget (cumulative).
    uncorrectable_total: u64,
    /// Pages the scrub pass rewrote (cumulative).
    scrubbed_pages: u64,
}

/// Snapshot of space usage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VolumeUsage {
    /// Total erase blocks.
    pub total_blocks: usize,
    /// Blocks on the free list.
    pub free_blocks: usize,
    /// Live (reachable) pages.
    pub live_pages: u64,
    /// Dead pages awaiting reclamation (allocated, freed, not yet
    /// erased) — the GC's feedstock.
    pub dead_pages: u64,
}

/// Registry-backed flash instrumentation, attached by the engine:
/// GC and scrub pause histograms (simulated ns), migration and ECC
/// counters, page faults, and page-cache traffic. All counts and
/// durations — nothing here can carry a stored value.
#[derive(Debug)]
pub struct VolumeMetrics {
    gc_pause: Histogram,
    scrub_pause: Histogram,
    gc_migrations: Counter,
    ecc_corrected: Counter,
    ecc_uncorrectable: Counter,
    page_faults: Counter,
    cache_hits: Counter,
    cache_misses: Counter,
    cache_evictions: Counter,
}

impl VolumeMetrics {
    /// Register the volume's metrics in `registry`.
    pub fn new(registry: &Registry) -> Self {
        VolumeMetrics {
            gc_pause: registry.histogram("ghostdb_gc_pause_ns", TIME_BUCKETS_NS),
            scrub_pause: registry.histogram("ghostdb_scrub_pause_ns", TIME_BUCKETS_NS),
            gc_migrations: registry.counter("ghostdb_gc_migrations_total"),
            ecc_corrected: registry.counter("ghostdb_ecc_corrected_total"),
            ecc_uncorrectable: registry.counter("ghostdb_ecc_uncorrectable_total"),
            page_faults: registry.counter("ghostdb_flash_page_faults_total"),
            cache_hits: registry.counter("ghostdb_page_cache_hits_total"),
            cache_misses: registry.counter("ghostdb_page_cache_misses_total"),
            cache_evictions: registry.counter("ghostdb_page_cache_evictions_total"),
        }
    }
}

/// The device's segment store. Cheap to clone (shared state).
#[derive(Debug, Clone)]
pub struct Volume {
    nand: Nand,
    state: Arc<Mutex<AllocState>>,
    metrics: Arc<OnceLock<VolumeMetrics>>,
    cache: Arc<PageCache>,
}

impl AllocState {
    /// The state of a part with nothing mapped and no block on the free
    /// list yet: the constructors fill in what they know.
    fn blank(blocks: usize, pages: usize) -> Self {
        AllocState {
            free_blocks: Vec::new(),
            current: None,
            gc_current: None,
            live: vec![0; blocks],
            allocated: vec![0; blocks],
            l2p: Vec::new(),
            free_lpns: Vec::new(),
            p2l: vec![UNMAPPED; pages],
            gc: GcStats::default(),
            sealed: Vec::new(),
            sealed_in_block: vec![0; blocks],
            pins: HashMap::new(),
            deferred: BTreeSet::new(),
            bad: vec![false; blocks],
            corrected_reads: vec![0; pages],
            corrected_total: 0,
            uncorrectable_total: 0,
            scrubbed_pages: 0,
        }
    }

    /// Current physical address of a logical page, `None` once it has
    /// been released (or was never allocated).
    fn mapped(&self, lpn: u32) -> Option<PageAddr> {
        match self.l2p.get(lpn as usize) {
            Some(&p) if p != UNMAPPED => Some(PageAddr(p)),
            _ => None,
        }
    }

    fn is_frontier(&self, block: BlockId, ppb: usize) -> bool {
        let pins =
            |slot: Option<(BlockId, usize)>| matches!(slot, Some((b, n)) if b == block && n < ppb);
        pins(self.current) || pins(self.gc_current)
    }
}

impl Volume {
    /// Take ownership of a blank NAND part.
    pub fn new(nand: Nand) -> Self {
        Self::with_reserved(nand, 0)
    }

    /// Take ownership of a blank NAND part whose first `reserved` erase
    /// blocks belong to someone else (the durability layer's metadata
    /// slots and WAL region): the volume never allocates, erases, or
    /// garbage-collects them.
    pub fn with_reserved(nand: Nand, reserved: usize) -> Self {
        let blocks = nand.block_count();
        assert!(
            reserved < blocks,
            "reserved region ({reserved} blocks) swallows the whole part ({blocks} blocks)"
        );
        Volume {
            state: Arc::new(Mutex::new(AllocState {
                free_blocks: (reserved as u32..blocks as u32).map(BlockId).collect(),
                ..AllocState::blank(blocks, nand.page_count())
            })),
            nand,
            metrics: Arc::new(OnceLock::new()),
            cache: Arc::new(PageCache::disabled()),
        }
    }

    /// Reconstruct a volume from a **sealed translation table** on a
    /// part that already holds data — the mount path. `l2p[lpn]` is the
    /// physical page recorded by the sealed image (`u32::MAX` =
    /// unmapped). Per-block accounting is rebuilt conservatively:
    ///
    /// * a block with mapped pages is treated as fully allocated (its
    ///   erased tail pages — the interrupted frontier — are never
    ///   reused; the GC reclaims them with the block);
    /// * a block with no mapped page returns to the free list if fully
    ///   erased, otherwise it is all-dead feedstock for the GC (stale
    ///   data from writes the crash outran);
    /// * every mapped page is immediately **sealed** (the image that
    ///   described it is the one we just mounted).
    ///
    /// `bad_blocks` is the persisted bad-block table: those blocks are
    /// retired on arrival (never allocated, erased, or GC'd), though
    /// any still-readable sealed pages they hold stay mapped. Blocks
    /// that grew bad after the last seal simply re-fail on first use
    /// and re-retire — the table is a cache of discoveries, not the
    /// source of truth.
    pub fn mount(nand: Nand, reserved: usize, l2p: Vec<u32>, bad_blocks: &[u32]) -> Result<Self> {
        let blocks = nand.block_count();
        let pages = nand.page_count();
        let ppb = nand.config().pages_per_block;
        let mut st = AllocState::blank(blocks, pages);
        for &b in bad_blocks {
            if b as usize >= blocks {
                return Err(GhostError::corrupt(format!(
                    "persisted bad-block table entry {b} out of range ({blocks} blocks)"
                )));
            }
            // Entries inside the reserved region belong to the
            // durability layer's own remapping; the volume tracks only
            // its half of the part.
            if b as usize >= reserved {
                st.bad[b as usize] = true;
            }
        }
        for (lpn, &phys) in l2p.iter().enumerate() {
            if phys == UNMAPPED {
                st.free_lpns.push(lpn as u32);
                continue;
            }
            let p = PageAddr(phys);
            if p.index() >= pages || p.index() / ppb < reserved {
                return Err(GhostError::corrupt(format!(
                    "mounted l2p entry {lpn} points at invalid page {phys}"
                )));
            }
            if st.p2l[p.index()] != UNMAPPED {
                return Err(GhostError::corrupt(format!(
                    "mounted l2p maps page {phys} twice"
                )));
            }
            if nand.page_state(p)? != PageState::Programmed {
                return Err(GhostError::corrupt(format!(
                    "mounted l2p entry {lpn} points at erased page {phys}"
                )));
            }
            st.p2l[p.index()] = lpn as u32;
            let b = p.index() / ppb;
            st.live[b] += 1;
            st.sealed_in_block[b] += 1;
        }
        for b in reserved..blocks {
            if st.bad[b] {
                // Retired: never allocatable, never erased; treated as
                // fully allocated so accounting stays consistent.
                st.allocated[b] = ppb as u32;
                continue;
            }
            if st.live[b] > 0 {
                st.allocated[b] = ppb as u32;
                continue;
            }
            if nand.block_fully_erased(BlockId(b as u32)) {
                st.free_blocks.push(BlockId(b as u32));
            } else {
                // Stale programmed pages with no owner: all-dead, fully
                // allocated, so the GC erases the block when picked.
                st.allocated[b] = ppb as u32;
            }
        }
        st.sealed = l2p.iter().map(|&p| p != UNMAPPED).collect();
        st.l2p = l2p;
        Ok(Volume {
            state: Arc::new(Mutex::new(st)),
            nand,
            metrics: Arc::new(OnceLock::new()),
            cache: Arc::new(PageCache::disabled()),
        })
    }

    /// Attach registry-backed instrumentation. A no-op if metrics are
    /// already attached; clones of this volume share the attachment.
    pub fn attach_metrics(&self, metrics: VolumeMetrics) {
        let _ = self.metrics.set(metrics);
    }

    /// The underlying NAND part (for stats and config).
    pub fn nand(&self) -> &Nand {
        &self.nand
    }

    /// **Usable** page payload: the raw page minus the out-of-band
    /// codeword. Everything layered on the volume (segment sizing,
    /// manifests, readers) works in this unit.
    pub fn page_size(&self) -> usize {
        self.nand.payload_size()
    }

    /// Raw (physical) page size — the unit programs and page faults
    /// actually move.
    fn raw_page_size(&self) -> usize {
        self.nand.config().page_size
    }

    /// Pull the least-worn block off the free list (wear-aware
    /// destination selection; the seed used FIFO order here, which let
    /// erase counts skew under churn).
    fn open_block(&self, st: &mut AllocState) -> Result<BlockId> {
        let idx = self
            .nand
            .least_worn(&st.free_blocks)
            .ok_or_else(|| GhostError::flash("flash volume full: no free blocks"))?;
        Ok(st.free_blocks.swap_remove(idx))
    }

    /// Allocate one physical page on the requested write frontier.
    fn alloc_phys(&self, st: &mut AllocState, gc_frontier: bool) -> Result<PageAddr> {
        let ppb = self.nand.config().pages_per_block;
        let slot = if gc_frontier {
            st.gc_current
        } else {
            st.current
        };
        let (block, next) = match slot {
            Some((b, n)) if n < ppb => (b, n),
            _ => (self.open_block(st)?, 0),
        };
        let advanced = Some((block, next + 1));
        if gc_frontier {
            st.gc_current = advanced;
        } else {
            st.current = advanced;
        }
        st.allocated[block.index()] += 1;
        st.live[block.index()] += 1;
        Ok(PageAddr(block.0 * ppb as u32 + next as u32))
    }

    /// Bind a fresh logical page number to `phys`.
    fn map_lpn(&self, st: &mut AllocState, phys: PageAddr) -> Lpn {
        let lpn = match st.free_lpns.pop() {
            Some(n) => {
                st.l2p[n as usize] = phys.0;
                n
            }
            None => {
                st.l2p.push(phys.0);
                (st.l2p.len() - 1) as u32
            }
        };
        st.p2l[phys.index()] = lpn;
        Lpn(lpn)
    }

    /// Allocate a frontier page and program the sealed `raw` image into
    /// it, retiring grown-bad blocks as they are discovered: a program
    /// failure marks the in-flight page dead, retires the block
    /// (re-targeting via the l2p table and evacuating its other live
    /// pages), and retries on a fresh block. Caller holds the state
    /// lock.
    fn program_raw(&self, st: &mut AllocState, gc_frontier: bool, raw: &[u8]) -> Result<PageAddr> {
        loop {
            let phys = self.alloc_phys(st, gc_frontier)?;
            match self.nand.program(phys, raw) {
                Ok(()) => {
                    st.corrected_reads[phys.index()] = 0;
                    // A freshly programmed cell must never be served
                    // from a previous life's mirror entry.
                    self.cache.invalidate_range(phys.index(), 1);
                    return Ok(phys);
                }
                Err(e) => {
                    let block = self.nand.block_of(phys);
                    // The allocated page is lost either way: it counts
                    // dead (it was never mapped).
                    st.live[block.index()] -= 1;
                    if !self.nand.is_grown_bad(block) {
                        return Err(e); // power cut / protocol violation
                    }
                    self.retire_block(st, block)?;
                }
            }
        }
    }

    /// Allocate one page on the user frontier and program `data` into it
    /// (one critical section: the mapping is never visible while the
    /// page's contents are still unwritten), running a GC pass first when
    /// the free list is at or below the configured low-watermark.
    fn program_page(&self, scope: &RamScope, data: &[u8]) -> Result<Lpn> {
        let watermark = self.nand.config().gc_low_watermark_blocks;
        let ppb = self.nand.config().pages_per_block;
        let needs_gc = {
            let st = self.state.lock().expect("volume poisoned");
            let needs_block = !matches!(st.current, Some((_, n)) if n < ppb);
            watermark > 0 && needs_block && st.free_blocks.len() <= watermark
        };
        // Best-effort: a failed pass (e.g. no RAM for the copy buffer, or
        // free space too low to stage a migration) still lets the
        // allocation below use whatever free blocks remain; only if that
        // also fails is the GC failure the better diagnosis.
        let gc_err = if needs_gc { self.gc(scope).err() } else { None };
        let raw = self.nand.seal(data);
        let mut st = self.state.lock().expect("volume poisoned");
        match self.program_raw(&mut st, false, &raw) {
            Ok(phys) => Ok(self.map_lpn(&mut st, phys)),
            Err(e) => {
                let out_of_blocks =
                    matches!(&e, GhostError::Flash(m) if m.contains("no free blocks"));
                if out_of_blocks {
                    Err(gc_err.unwrap_or(e))
                } else {
                    Err(e)
                }
            }
        }
    }

    /// Current space usage.
    pub fn usage(&self) -> VolumeUsage {
        let st = self.state.lock().expect("volume poisoned");
        let live: u64 = st.live.iter().map(|&v| v as u64).sum();
        let allocated: u64 = st.allocated.iter().map(|&v| v as u64).sum();
        VolumeUsage {
            total_blocks: self.nand.block_count(),
            free_blocks: st.free_blocks.len(),
            live_pages: live,
            dead_pages: allocated - live,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ghostdb_ram::RamBudget;
    use ghostdb_types::{FlashConfig, SimClock};

    pub(super) fn setup_cfg(blocks: usize, watermark: usize) -> (Volume, RamScope) {
        let cfg = FlashConfig {
            page_size: 64,
            pages_per_block: 4,
            num_blocks: blocks,
            gc_low_watermark_blocks: watermark,
            ..FlashConfig::default_2007()
        };
        let vol = Volume::new(Nand::new(cfg, SimClock::new()));
        let budget = RamBudget::new(64 * 1024);
        let scope = RamScope::new(&budget);
        (vol, scope)
    }

    pub(super) fn setup(blocks: usize) -> (Volume, RamScope) {
        setup_cfg(blocks, 0)
    }

    #[test]
    fn usage_reports_live_pages() {
        let (vol, scope) = setup(4);
        let mut w = vol.writer(&scope).unwrap();
        w.write(&vec![0u8; vol.page_size() * 3]).unwrap();
        let seg = w.finish().unwrap();
        assert_eq!(vol.usage().live_pages, 3);
        vol.free(seg).unwrap();
        assert_eq!(vol.usage().live_pages, 0);
    }

    /// Interleave a long-lived segment's pages with a short-lived one's
    /// in the same blocks, free the short-lived one, and return the
    /// survivor: the classic fragmentation the GC exists to fix.
    pub(super) fn fragment(vol: &Volume, scope: &RamScope, blocks: usize) -> (Segment, Segment) {
        let ps = vol.page_size();
        let mut keeper = vol.writer(scope).unwrap();
        let mut junk = vol.writer(scope).unwrap();
        for _ in 0..blocks {
            keeper.write(&vec![0x11; ps]).unwrap(); // 1 page
            junk.write(&vec![0x22; ps * 3]).unwrap(); // 3 pages
        }
        (keeper.finish().unwrap(), junk.finish().unwrap())
    }

    #[test]
    fn attached_metrics_observe_faults_and_gc() {
        let registry = Registry::new();
        let (vol, scope) = setup(8);
        vol.clone().attach_metrics(VolumeMetrics::new(&registry));

        let (keeper, junk) = fragment(&vol, &scope, 4);
        vol.free(junk).unwrap();
        vol.gc(&scope).unwrap();
        let mut r = vol.reader(&scope, &keeper).unwrap();
        let mut back = vec![0u8; keeper.len() as usize];
        r.read_exact(&mut back).unwrap();

        let snap = registry.snapshot();
        assert_eq!(snap.counter("ghostdb_gc_migrations_total"), 4);
        assert!(snap.counter("ghostdb_flash_page_faults_total") > 0);
        assert_eq!(snap.counter("ghostdb_ecc_uncorrectable_total"), 0);
        match snap.get("ghostdb_gc_pause_ns") {
            Some(ghostdb_obs::MetricValue::Histogram(h)) => {
                assert_eq!(h.count, 1);
                assert!(h.sum > 0, "GC must consume simulated device time");
            }
            other => panic!("expected GC pause histogram, got {other:?}"),
        }
    }

    #[test]
    fn destination_selection_prefers_least_worn() {
        let (vol, scope) = setup(4);
        // Manually wear block 0 far beyond the rest.
        for _ in 0..5 {
            vol.nand().erase(BlockId(0)).unwrap();
        }
        let mut w = vol.writer(&scope).unwrap();
        w.write(&vec![7u8; vol.page_size()]).unwrap();
        let seg = w.finish().unwrap();
        // The first opened block must be one of the unworn ones.
        let st = vol.state.lock().unwrap();
        let phys = PageAddr(st.l2p[seg.pages[0].0 as usize]);
        drop(st);
        assert_ne!(vol.nand().block_of(phys), BlockId(0));
    }

    #[test]
    fn reserved_blocks_are_never_allocated() {
        let (vol, scope) = setup(4);
        let vol = Volume::with_reserved(vol.nand().clone(), 2);
        let ps = vol.page_size();
        let mut w = vol.writer(&scope).unwrap();
        w.write(&vec![9u8; ps * 8]).unwrap(); // both non-reserved blocks
        let seg = w.finish().unwrap();
        let st = vol.state.lock().unwrap();
        for &lpn in seg.pages.iter() {
            let phys = PageAddr(st.l2p[lpn.0 as usize]);
            assert!(phys.index() / 4 >= 2, "page {phys:?} in reserved block");
        }
        drop(st);
        // The part is "full" even though reserved blocks sit erased.
        let mut w = vol.writer(&scope).unwrap();
        assert!(w.write(&vec![1u8; ps]).is_err());
    }

    #[test]
    fn mount_restores_segments_and_accounting() {
        let (vol, scope) = setup(8);
        let data: Vec<u8> = (0..700u32).map(|i| (i % 251) as u8).collect();
        let mut w = vol.writer(&scope).unwrap();
        w.write(&data).unwrap();
        let seg = w.finish().unwrap();
        let manifest = seg.manifest();
        let l2p = vol.l2p_snapshot();
        let live_before = vol.usage().live_pages;

        // "Power cycle": a brand-new volume over the same part.
        let vol2 = Volume::mount(vol.nand().clone(), 0, l2p, &[]).unwrap();
        assert_eq!(vol2.usage().live_pages, live_before);
        let seg2 = vol2.restore_manifest(&manifest).unwrap();
        let mut r = vol2.reader(&scope, &seg2).unwrap();
        let mut back = vec![0u8; data.len()];
        r.read_exact(&mut back).unwrap();
        assert_eq!(back, data);
        // New writes land on erased blocks and read back fine.
        let ps = vol2.page_size();
        let mut w = vol2.writer(&scope).unwrap();
        w.write(&vec![0x5A; ps * 2]).unwrap();
        let extra = w.finish().unwrap();
        let mut r = vol2.reader(&scope, &extra).unwrap();
        let mut b2 = vec![0u8; ps * 2];
        r.read_exact(&mut b2).unwrap();
        assert!(b2.iter().all(|&b| b == 0x5A));
    }

    #[test]
    fn mount_rejects_corrupt_tables() {
        let (vol, scope) = setup(4);
        let mut w = vol.writer(&scope).unwrap();
        w.write(&vec![1u8; vol.page_size()]).unwrap();
        let _seg = w.finish().unwrap();
        let l2p = vol.l2p_snapshot();
        // Out-of-range physical page.
        let mut bad = l2p.clone();
        bad[0] = 9999;
        assert!(Volume::mount(vol.nand().clone(), 0, bad, &[]).is_err());
        // Two LPNs on one page.
        let mut bad = l2p.clone();
        bad.push(bad[0]);
        assert!(Volume::mount(vol.nand().clone(), 0, bad, &[]).is_err());
        // Mapping into the reserved region.
        assert!(Volume::mount(vol.nand().clone(), 1, l2p.clone(), &[]).is_err());
        // An out-of-range bad-block table entry.
        assert!(Volume::mount(vol.nand().clone(), 0, l2p, &[99]).is_err());
        // A manifest over unmapped pages is rejected too.
        let vol2 = Volume::mount(vol.nand().clone(), 0, vol.l2p_snapshot(), &[]).unwrap();
        let manifest = |lpns: Vec<u32>, len| SegmentManifest { lpns, len };
        assert!(vol2.restore_manifest(&manifest(vec![42], 64)).is_err());
        assert!(vol2.restore_manifest(&manifest(vec![0], 6400)).is_err());
    }

    #[test]
    fn mount_honors_persisted_bad_block_table() {
        let (vol, scope) = setup(8);
        let mut w = vol.writer(&scope).unwrap();
        w.write(&vec![0x66; vol.page_size()]).unwrap();
        let seg = w.finish().unwrap();
        let manifest = seg.manifest();
        let l2p = vol.l2p_snapshot();
        let vol2 = Volume::mount(vol.nand().clone(), 0, l2p, &[6, 7]).unwrap();
        assert_eq!(vol2.reliability().retired_blocks, 2);
        let st = vol2.state.lock().unwrap();
        assert!(!st.free_blocks.contains(&BlockId(6)));
        assert!(!st.free_blocks.contains(&BlockId(7)));
        drop(st);
        assert_eq!(vol2.bad_blocks_snapshot(), vec![6, 7]);
        // The mounted data is still readable.
        let seg2 = vol2.restore_manifest(&manifest).unwrap();
        let mut r = vol2.reader(&scope, &seg2).unwrap();
        let mut back = vec![0u8; vol2.page_size()];
        r.read_exact(&mut back).unwrap();
        assert!(back.iter().all(|&b| b == 0x66));
    }
}
