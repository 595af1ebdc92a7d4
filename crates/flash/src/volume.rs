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
//! # Garbage collection and wear
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
//! the seed's FIFO), keeping [`Nand::wear_spread`] bounded.
//!
//! Writers and readers buffer exactly **one flash page** in device RAM,
//! charged against the query's [`RamScope`]; the GC's copy buffer is
//! charged the same way — the tiny-RAM discipline applies even to
//! reclamation.
//!
//! # Page cache
//!
//! Page faults consult a shared, fixed-capacity **page-cache mirror**
//! of recently faulted NAND pages (clock/second-chance, keyed by
//! physical page, sized by
//! [`FlashConfig::page_cache_pages`](ghostdb_types::FlashConfig::page_cache_pages)).
//! A hit skips the NAND transfer, the ECC re-check, and their simulated
//! device time entirely. The mirror's bytes are charged to the device
//! [`RamBudget`] via [`Volume::configure_page_cache`], so the 64 KB
//! invariant binds; volumes start with the cache disabled until the
//! engine configures it. Entries are invalidated under the state lock
//! at the only two points where a physical page's bytes can change —
//! block erase and page program — and every mirror copy is re-checked
//! against the translation table exactly like a NAND transfer, so
//! snapshot readers sharing the mirror stay coherent across GC
//! migration, scrub rewrites, and bad-block evacuation.
//!
//! # Sealed images (durability)
//!
//! The durability layer (`ghostdb-persist`) periodically **seals** the
//! volume: it records the translation table ([`Volume::l2p_snapshot`])
//! and every live segment's LPN list in an on-flash image. Until the
//! next seal supersedes that image, the volume guarantees the recorded
//! mappings stay physically valid:
//!
//! * sealed pages are never **migrated** — blocks holding one are
//!   exempt from GC victim selection (the image stores *physical*
//!   addresses; moving a page would strand them);
//! * sealed pages are never **erased** — a [`Volume::free`] against one
//!   is deferred, and only [`Volume::commit_seal`] (called once the
//!   superseding image is durable) releases it.
//!
//! That pair of rules is what makes a power cut anywhere inside a delta
//! flush recoverable: the old image's pages are all still exactly where
//! it says they are.
//!
//! Open read snapshots hold pages the same way, by refcount instead of
//! seal generation ([`Volume::pin_pages`]): a pinned page may migrate
//! but is never erased. Both holds share one deferred-free ledger with
//! one rule — a page is physically released the moment it is **freed,
//! not sealed, and unpinned**.
//!
//! [`FlashConfig::gc_low_watermark_blocks`]: ghostdb_types::FlashConfig::gc_low_watermark_blocks

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use ghostdb_obs::{Counter, Histogram, Registry, TIME_BUCKETS_NS};
use ghostdb_ram::{RamBudget, RamGuard, RamScope, ScopedGuard};
use ghostdb_types::{GhostError, Result, Wire};

use crate::ecc::Verdict;
use crate::nand::{BlockId, Nand, PageAddr, PageState};

/// Stable logical page number; the translation table maps it to the
/// page's current physical address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Lpn(u32);

/// Sentinel for "no mapping" in both directions of the translation table.
const UNMAPPED: u32 = u32::MAX;

/// Upper bound on victim blocks migrated per GC pass, bounding the
/// latency a single allocation can absorb.
const GC_MAX_VICTIMS_PER_PASS: usize = 8;

/// Scrub trigger: once a physical page has needed this many corrected
/// reads since it was programmed, the scrub pass rewrites it to a fresh
/// cell before it rots past the single-bit correction budget.
const SCRUB_THRESHOLD: u32 = 2;

/// An immutable sequence of bytes stored on flash.
///
/// Cloning is cheap (the page list is shared); segments are freed
/// explicitly through [`Volume::free`]. The page list holds *logical*
/// page numbers, so the bytes stay readable even after the garbage
/// collector migrates them to different physical blocks.
#[derive(Debug, Clone)]
pub struct Segment {
    pages: Arc<Vec<Lpn>>,
    len_bytes: u64,
}

impl Segment {
    /// The segment's durable description (LPN list + length), for the
    /// durability layer's metadata segments. LPNs stay valid across GC
    /// migrations (the translation table tracks the moves), which is
    /// exactly what makes them the right currency for a sealed on-flash
    /// image.
    pub fn manifest(&self) -> SegmentManifest {
        SegmentManifest {
            lpns: self.pages.iter().map(|l| l.0).collect(),
            len: self.len_bytes,
        }
    }

    /// Logical length in bytes.
    pub fn len(&self) -> u64 {
        self.len_bytes
    }

    /// True if the segment holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.len_bytes == 0
    }

    /// Number of flash pages backing the segment.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }
}

/// Durable description of one segment: its logical page numbers plus its
/// byte length. This is what the sealed device image stores per segment;
/// [`Volume::restore_manifest`] turns it back into a live [`Segment`]
/// against the mounted translation table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentManifest {
    /// Logical page numbers, in segment order.
    pub lpns: Vec<u32>,
    /// Logical length in bytes.
    pub len: u64,
}

impl Wire for SegmentManifest {
    fn encode(&self, out: &mut Vec<u8>) {
        self.lpns.encode(out);
        self.len.encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self> {
        Ok(SegmentManifest {
            lpns: Vec::<u32>::decode(buf)?,
            len: u64::decode(buf)?,
        })
    }
}

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

    fn is_sealed(&self, lpn: u32) -> bool {
        self.sealed.get(lpn as usize).copied().unwrap_or(false)
    }

    /// Something still reads `lpn` at its recorded place: the sealed
    /// on-flash image, or an open snapshot.
    fn is_held(&self, lpn: u32) -> bool {
        self.is_sealed(lpn) || self.pins.contains_key(&lpn)
    }

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

/// Pin accounting surfaced by [`Volume::pin_stats`] (and the engine's
/// `device_report()` sessions section).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PinStats {
    /// Distinct logical pages pinned by open snapshots.
    pub snapshot_pinned: usize,
    /// Snapshot-pinned pages whose free is deferred until the last
    /// pin drops.
    pub snapshot_deferred: usize,
    /// Logical pages referenced by the sealed on-flash image.
    pub sealed_pinned: usize,
    /// Sealed pages whose free is deferred until the next
    /// [`Volume::commit_seal`].
    pub sealed_deferred: usize,
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

/// Page-cache accounting surfaced by [`Volume::page_cache_stats`] (and
/// the engine's `device_report()`). Counts and sizes only — the mirror
/// itself never leaves the device.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PageCacheStats {
    /// Mirror capacity in raw pages (`0` = cache disabled).
    pub capacity_pages: usize,
    /// Raw pages currently resident in the mirror.
    pub resident_pages: usize,
    /// Bytes charged to the device RAM budget for the mirror.
    pub charged_bytes: usize,
    /// Page faults served from the mirror: no NAND transfer, no ECC
    /// re-check, no simulated device time.
    pub hits: u64,
    /// Page faults that paid the full NAND transfer.
    pub misses: u64,
    /// Resident pages displaced by second-chance eviction.
    pub evictions: u64,
}

/// One clock-ring slot of the page-cache mirror.
#[derive(Debug)]
struct CacheSlot {
    /// Physical page mirrored here (`UNMAPPED` = slot empty).
    phys: u32,
    /// Second-chance bit: set on every hit, cleared as the clock hand
    /// sweeps past; only an unreferenced slot is evicted.
    referenced: bool,
    /// The raw page image (payload + codeword), exactly as verified.
    data: Vec<u8>,
}

#[derive(Debug, Default)]
struct PageCacheInner {
    /// Clock ring of mirrored pages (grows lazily up to capacity).
    slots: Vec<CacheSlot>,
    /// Physical page → slot index.
    map: HashMap<u32, usize>,
    /// Slot indexes emptied by invalidation, reused before eviction.
    free: Vec<usize>,
    /// Clock hand for second-chance eviction.
    hand: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
    /// The mirror's bytes, held against the device RAM budget.
    charge: Option<RamGuard>,
}

/// Shared device-RAM mirror of recently faulted NAND pages.
///
/// Keyed by **physical** page: the mirror holds the exact raw image a
/// verified fault produced, and stays valid as long as that physical
/// page's bytes cannot change — which the volume guarantees while the
/// page is mapped (reprogramming requires an erase, an erase requires
/// the whole block unmapped). The two events that break that guarantee,
/// [`Nand::erase`] and [`Nand::program`], run only under the state
/// lock, where the affected entries are invalidated; a faulting reader
/// re-checks the logical→physical mapping after copying from the
/// mirror, exactly like the NAND path re-checks after a transfer.
///
/// Only **clean** codewords are mirrored: a page whose read needed a
/// single-bit correction must keep re-correcting on every fault so its
/// per-page counter can reach the scrub threshold.
#[derive(Debug)]
struct PageCache {
    /// Capacity in pages; `0` = disabled. Read lock-free so the
    /// disabled fast path costs one atomic load.
    cap: AtomicUsize,
    inner: Mutex<PageCacheInner>,
}

impl PageCache {
    fn disabled() -> Self {
        PageCache {
            cap: AtomicUsize::new(0),
            inner: Mutex::new(PageCacheInner::default()),
        }
    }

    fn enabled(&self) -> bool {
        self.cap.load(Ordering::Relaxed) > 0
    }

    /// Swap in a new capacity and RAM charge, dropping the old mirror
    /// contents (traffic counters persist across reconfiguration).
    fn configure(&self, pages: usize, charge: Option<RamGuard>) {
        let mut inner = self.inner.lock().expect("page cache poisoned");
        self.cap.store(pages, Ordering::Relaxed);
        inner.slots.clear();
        inner.map.clear();
        inner.free.clear();
        inner.hand = 0;
        inner.charge = charge;
    }

    /// Copy the mirrored image of `phys` into `dst` (raw-page sized).
    /// Returns `false` on a miss; the caller must then fault from NAND.
    fn copy_page(&self, phys: u32, dst: &mut [u8]) -> bool {
        if !self.enabled() {
            return false;
        }
        let mut inner = self.inner.lock().expect("page cache poisoned");
        let Some(&slot) = inner.map.get(&phys) else {
            return false;
        };
        let s = &mut inner.slots[slot];
        s.referenced = true;
        dst.copy_from_slice(&s.data);
        true
    }

    /// Count one confirmed mirror hit (mapping re-checked by the caller).
    fn note_hit(&self) {
        if self.enabled() {
            self.inner.lock().expect("page cache poisoned").hits += 1;
        }
    }

    /// Count one fault that paid the NAND transfer.
    fn note_miss(&self) {
        if self.enabled() {
            self.inner.lock().expect("page cache poisoned").misses += 1;
        }
    }

    /// Mirror a verified raw page, reusing an empty slot, growing up to
    /// capacity, or second-chance evicting. Returns evictions (0 or 1).
    fn insert(&self, phys: u32, raw: &[u8]) -> u64 {
        let cap = self.cap.load(Ordering::Relaxed);
        if cap == 0 {
            return 0;
        }
        let mut inner = self.inner.lock().expect("page cache poisoned");
        if let Some(&slot) = inner.map.get(&phys) {
            // Already resident (two readers raced the same miss).
            let s = &mut inner.slots[slot];
            s.data.copy_from_slice(raw);
            s.referenced = true;
            return 0;
        }
        if let Some(slot) = inner.free.pop() {
            let s = &mut inner.slots[slot];
            s.phys = phys;
            s.referenced = true;
            s.data.copy_from_slice(raw);
            inner.map.insert(phys, slot);
            return 0;
        }
        if inner.slots.len() < cap {
            inner.slots.push(CacheSlot {
                phys,
                referenced: true,
                data: raw.to_vec(),
            });
            let slot = inner.slots.len() - 1;
            inner.map.insert(phys, slot);
            return 0;
        }
        // Clock sweep: every slot is occupied here (empties would be on
        // the free list), so the sweep terminates within two laps.
        loop {
            let hand = inner.hand;
            inner.hand = (hand + 1) % inner.slots.len();
            if inner.slots[hand].referenced {
                inner.slots[hand].referenced = false;
                continue;
            }
            let old = inner.slots[hand].phys;
            inner.map.remove(&old);
            let s = &mut inner.slots[hand];
            s.phys = phys;
            s.referenced = true;
            s.data.copy_from_slice(raw);
            inner.map.insert(phys, hand);
            inner.evictions += 1;
            return 1;
        }
    }

    /// Drop the mirror entries for a physical page range: the one page
    /// just programmed, or the block just erased. Caller holds the
    /// volume state lock; the state → cache lock order is the only
    /// nesting the volume ever uses.
    fn invalidate_range(&self, first: usize, count: usize) {
        if !self.enabled() {
            return;
        }
        let mut inner = self.inner.lock().expect("page cache poisoned");
        for phys in first..first + count {
            if let Some(slot) = inner.map.remove(&(phys as u32)) {
                inner.slots[slot].phys = UNMAPPED;
                inner.slots[slot].referenced = false;
                inner.free.push(slot);
            }
        }
    }

    fn stats(&self) -> PageCacheStats {
        let inner = self.inner.lock().expect("page cache poisoned");
        PageCacheStats {
            capacity_pages: self.cap.load(Ordering::Relaxed),
            resident_pages: inner.map.len(),
            charged_bytes: inner.charge.as_ref().map_or(0, |g| g.bytes()),
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
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
        let mut bad = vec![false; blocks];
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
                bad[b as usize] = true;
            }
        }
        let mut p2l = vec![UNMAPPED; pages];
        let mut live = vec![0u32; blocks];
        let mut sealed_in_block = vec![0u32; blocks];
        let mut free_lpns = Vec::new();
        for (lpn, &phys) in l2p.iter().enumerate() {
            if phys == UNMAPPED {
                free_lpns.push(lpn as u32);
                continue;
            }
            let p = PageAddr(phys);
            if p.index() >= pages || p.index() / ppb < reserved {
                return Err(GhostError::corrupt(format!(
                    "mounted l2p entry {lpn} points at invalid page {phys}"
                )));
            }
            if p2l[p.index()] != UNMAPPED {
                return Err(GhostError::corrupt(format!(
                    "mounted l2p maps page {phys} twice"
                )));
            }
            if nand.page_state(p)? != PageState::Programmed {
                return Err(GhostError::corrupt(format!(
                    "mounted l2p entry {lpn} points at erased page {phys}"
                )));
            }
            p2l[p.index()] = lpn as u32;
            let b = p.index() / ppb;
            live[b] += 1;
            sealed_in_block[b] += 1;
        }
        let mut free_blocks = Vec::new();
        let mut allocated = vec![0u32; blocks];
        for b in reserved..blocks {
            if bad[b] {
                // Retired: never allocatable, never erased; treated as
                // fully allocated so accounting stays consistent.
                allocated[b] = ppb as u32;
                continue;
            }
            if live[b] > 0 {
                allocated[b] = ppb as u32;
                continue;
            }
            let first = b * ppb;
            let fully_erased = (first..first + ppb)
                .all(|p| matches!(nand.page_state(PageAddr(p as u32)), Ok(PageState::Erased)));
            if fully_erased {
                free_blocks.push(BlockId(b as u32));
            } else {
                // Stale programmed pages with no owner: all-dead, fully
                // allocated, so the GC erases the block when picked.
                allocated[b] = ppb as u32;
            }
        }
        let sealed = l2p.iter().map(|&p| p != UNMAPPED).collect();
        Ok(Volume {
            state: Arc::new(Mutex::new(AllocState {
                free_blocks,
                live,
                allocated,
                l2p,
                free_lpns,
                p2l,
                sealed,
                sealed_in_block,
                bad,
                ..AllocState::blank(blocks, pages)
            })),
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

    /// Size the shared page-cache mirror to `pages` raw pages, charging
    /// the mirror's bytes to `budget` — the device RAM budget, so the
    /// secure chip's 64 KB invariant still binds. `pages = 0` disables
    /// the cache and releases any previous charge. Reconfiguring drops
    /// the mirrored contents (traffic counters persist). Returns the
    /// bytes charged.
    ///
    /// Volumes start with the cache disabled; the engine calls this
    /// once per open, with [`FlashConfig::page_cache_pages`]. Clones of
    /// this volume (including snapshot readers) share the one mirror.
    ///
    /// [`FlashConfig::page_cache_pages`]: ghostdb_types::FlashConfig::page_cache_pages
    pub fn configure_page_cache(&self, pages: usize, budget: &RamBudget) -> Result<usize> {
        // Release the previous charge before taking the new one, so a
        // reconfigure against the same budget never double-counts.
        self.cache.configure(0, None);
        if pages == 0 {
            return Ok(0);
        }
        let bytes = pages * self.raw_page_size();
        let guard = budget.alloc(bytes)?;
        self.cache.configure(pages, Some(guard));
        Ok(bytes)
    }

    /// Page-cache accounting: capacity, residency, the RAM charge, and
    /// hit/miss/eviction counters.
    pub fn page_cache_stats(&self) -> PageCacheStats {
        self.cache.stats()
    }

    /// The translation table as the durability layer seals it:
    /// `out[lpn]` = current physical page, with deferred-freed pages
    /// already masked out (the image being written no longer references
    /// them, even though they stay physically intact for the previous
    /// image or an open snapshot).
    pub fn l2p_snapshot(&self) -> Vec<u32> {
        let st = self.state.lock().expect("volume poisoned");
        let mut out = st.l2p.clone();
        for &lpn in &st.deferred {
            out[lpn as usize] = UNMAPPED;
        }
        out
    }

    /// Rebuild a [`Segment`] handle from its durable [`SegmentManifest`]
    /// (LPN list + byte length). Every LPN must be live in the
    /// translation table.
    pub fn restore_manifest(&self, m: &SegmentManifest) -> Result<Segment> {
        let ps = self.page_size() as u64;
        let pages = m.lpns.len() as u64;
        if m.len > pages * ps || pages > m.len.div_ceil(ps) {
            return Err(GhostError::corrupt(format!(
                "segment manifest length {} does not fit {pages} pages",
                m.len
            )));
        }
        let st = self.state.lock().expect("volume poisoned");
        if let Some(lpn) = m.lpns.iter().find(|&&lpn| st.mapped(lpn).is_none()) {
            return Err(GhostError::corrupt(format!(
                "segment manifest references unmapped logical page {lpn}"
            )));
        }
        Ok(Segment {
            pages: Arc::new(m.lpns.iter().map(|&l| Lpn(l)).collect()),
            len_bytes: m.len,
        })
    }

    /// Finish a seal. The superseding image is durable, so the old
    /// generation unseals: every deferred-freed page no snapshot pins
    /// is physically released (ascending, so the erases this triggers
    /// come in the same order on every run), and the live set — minus
    /// the deferred pages a snapshot still keeps readable, which the
    /// new image no longer references — becomes the new sealed
    /// generation.
    pub fn commit_seal(&self) -> Result<()> {
        let ppb = self.nand.config().pages_per_block;
        let mut st = self.state.lock().expect("volume poisoned");
        let freed: Vec<u32> = st.deferred.iter().copied().collect();
        for lpn in freed {
            if st.is_sealed(lpn) {
                let block = st.l2p[lpn as usize] as usize / ppb;
                st.sealed[lpn as usize] = false;
                st.sealed_in_block[block] -= 1;
            }
            self.settle_freed(&mut st, lpn)?;
        }
        let mut per_block = vec![0u32; self.nand.block_count()];
        let sealed = (0..st.l2p.len() as u32)
            .map(|lpn| {
                let phys = st.mapped(lpn).filter(|_| !st.deferred.contains(&lpn));
                if let Some(p) = phys {
                    per_block[p.index() / ppb] += 1;
                }
                phys.is_some()
            })
            .collect();
        st.sealed = sealed;
        st.sealed_in_block = per_block;
        Ok(())
    }

    /// Pin a set of logical pages on behalf of an open read snapshot:
    /// until [`unpin_pages`](Self::unpin_pages) drops the last pin,
    /// freeing any of them defers the physical release instead of
    /// erasing data the snapshot can still read. Pins nest (two
    /// snapshots over the same base pin each page twice) and do **not**
    /// block GC migration — the translation table keeps pinned reads
    /// valid across moves; only the final erase is held back.
    ///
    /// Every page must currently be mapped and not already
    /// logically freed.
    pub fn pin_pages(&self, lpns: &[u32]) -> Result<()> {
        let mut st = self.state.lock().expect("volume poisoned");
        for &lpn in lpns {
            if st.mapped(lpn).is_none() || st.deferred.contains(&lpn) {
                return Err(GhostError::flash(format!(
                    "snapshot pin of dead logical page {lpn}"
                )));
            }
        }
        for &lpn in lpns {
            *st.pins.entry(lpn).or_insert(0) += 1;
        }
        Ok(())
    }

    /// Drop one pin from each of `lpns` (the snapshot's drop path).
    /// Pages whose last pin drops *and* whose free was deferred are
    /// physically released here — unless the sealed image still holds
    /// them — the moment "no snapshot can read this" becomes true.
    pub fn unpin_pages(&self, lpns: &[u32]) -> Result<()> {
        let mut st = self.state.lock().expect("volume poisoned");
        for &lpn in lpns {
            let Some(count) = st.pins.get_mut(&lpn) else {
                return Err(GhostError::flash(format!(
                    "unpin of logical page {lpn} that holds no pin"
                )));
            };
            *count -= 1;
            if *count == 0 {
                st.pins.remove(&lpn);
                if st.deferred.contains(&lpn) {
                    self.settle_freed(&mut st, lpn)?;
                }
            }
        }
        Ok(())
    }

    /// Pin accounting for `device_report()`: distinct snapshot-pinned
    /// pages, pages pinned by the sealed on-flash image, and the
    /// deferred-free ledger split by who holds each page (the sealed
    /// image first: a page both sealed and pinned waits for the seal).
    pub fn pin_stats(&self) -> PinStats {
        let st = self.state.lock().expect("volume poisoned");
        let sealed_deferred = st.deferred.iter().filter(|&&l| st.is_sealed(l)).count();
        PinStats {
            snapshot_pinned: st.pins.len(),
            snapshot_deferred: st.deferred.len() - sealed_deferred,
            sealed_pinned: st.sealed.iter().filter(|&&s| s).count(),
            sealed_deferred,
        }
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

    /// Book the outcome of one codeword check ([`Nand::verify`]) of
    /// physical page `phys`: reliability counters, the per-page scrub
    /// trigger, and the clean error past the correction budget.
    fn note_verdict(&self, st: &mut AllocState, phys: PageAddr, verdict: Verdict) -> Result<()> {
        match verdict {
            Verdict::Clean => Ok(()),
            Verdict::Corrected => {
                st.corrected_total += 1;
                // A reader's page may have migrated since its transfer;
                // the scrub counter only tracks still-mapped cells.
                if st.p2l[phys.index()] != UNMAPPED {
                    st.corrected_reads[phys.index()] += 1;
                }
                if let Some(m) = self.metrics.get() {
                    m.ecc_corrected.inc();
                }
                Ok(())
            }
            Verdict::Uncorrectable => {
                st.uncorrectable_total += 1;
                if let Some(m) = self.metrics.get() {
                    m.ecc_uncorrectable.inc();
                }
                Err(GhostError::corrupt(format!(
                    "uncorrectable bit errors in flash page {} (past the single-bit ECC budget)",
                    phys.0
                )))
            }
        }
    }

    /// Fault one full raw page of a logical page through the codeword
    /// check, consulting the shared page-cache mirror first. `raw` must
    /// be raw-page sized; the caller must **not** hold the state lock.
    ///
    /// Concurrency: readers fault pages while the writer thread may be
    /// garbage-collecting, scrubbing, or flushing. The resolve → copy
    /// window is protected optimistically — after the transfer (from
    /// the mirror or from NAND) the mapping is re-checked, and the
    /// fault retried if the page migrated (or its block was erased and
    /// reprogrammed) in between. A physical page's bytes cannot change
    /// while its mapping holds: reprogramming requires an erase, and an
    /// erase requires every page of the block to be unmapped first —
    /// and both of those events invalidate the mirror under the same
    /// state lock, so a re-checked mirror copy is as good as a
    /// re-checked NAND transfer.
    fn fault_lpn(&self, lpn: Lpn, raw: &mut [u8]) -> Result<()> {
        if let Some(m) = self.metrics.get() {
            m.page_faults.inc();
        }
        loop {
            let phys = self.phys_of(lpn)?;
            if self.cache.copy_page(phys.0, raw) {
                if !self.still_at(lpn, phys) {
                    continue; // migrated mid-copy: retry at the new address
                }
                // Served from the mirror: no NAND transfer, no ECC
                // re-check (the image was verified clean on fill), no
                // simulated device time.
                self.cache.note_hit();
                if let Some(m) = self.metrics.get() {
                    m.cache_hits.inc();
                }
                return Ok(());
            }
            self.nand.read_into(phys, 0, raw)?;
            if !self.still_at(lpn, phys) {
                continue; // migrated mid-transfer: retry at the new address
            }
            // The codeword check — the CPU-heavy part of a read — runs
            // unlocked, so concurrent readers never serialize on it.
            let verdict = self.nand.verify(raw);
            let mut st = self.state.lock().expect("volume poisoned");
            if verdict != Verdict::Clean {
                // Never mirrored: a corrected page must keep
                // re-correcting on every fault so its per-page counter
                // can reach the scrub threshold.
                self.note_verdict(&mut st, phys, verdict)?;
            } else if st.mapped(lpn.0) == Some(phys) {
                // Mirror the verified image — under the state lock and
                // only while the mapping still holds, so the insert
                // cannot race an erase/program of the same physical
                // page (those invalidate under the same lock).
                let evicted = self.cache.insert(phys.0, raw);
                if evicted > 0 {
                    if let Some(m) = self.metrics.get() {
                        m.cache_evictions.add(evicted);
                    }
                }
            }
            drop(st);
            self.cache.note_miss();
            if self.cache.enabled() {
                if let Some(m) = self.metrics.get() {
                    m.cache_misses.inc();
                }
            }
            return Ok(());
        }
    }

    /// The optimistic re-check after a transfer: does `lpn` still live
    /// at `phys`?
    fn still_at(&self, lpn: Lpn, phys: PageAddr) -> bool {
        let st = self.state.lock().expect("volume poisoned");
        st.mapped(lpn.0) == Some(phys)
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

    /// Move `block` to the bad-block table: off the free list, out of
    /// both frontiers, never erased or allocated again. Its unsealed
    /// live pages are evacuated to the cold frontier — the defect is in
    /// programming/erasing, the stored copies are still readable.
    /// Sealed pages stay put (the sealed image pins their physical
    /// address) and stay readable; the next seal records their
    /// successors. Fails with the "worn out" diagnostic once
    /// retirements exceed the spare budget.
    fn retire_block(&self, st: &mut AllocState, block: BlockId) -> Result<()> {
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
    fn recycle_block(&self, st: &mut AllocState, block: BlockId) -> Result<bool> {
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

    /// Current physical address of a logical page.
    fn phys_of(&self, lpn: Lpn) -> Result<PageAddr> {
        let st = self.state.lock().expect("volume poisoned");
        st.mapped(lpn.0)
            .ok_or_else(|| GhostError::flash(format!("read through freed logical page {}", lpn.0)))
    }

    /// Free one logical page. If the sealed on-flash image or an open
    /// snapshot still holds it the release is **deferred**: the page
    /// stays physically intact until the last hold drops — the
    /// mechanism that keeps a crash mid-flush mountable from the
    /// previous image, and a snapshot readable across a flush.
    fn free_page(&self, lpn: Lpn) -> Result<()> {
        let mut st = self.state.lock().expect("volume poisoned");
        if st.deferred.contains(&lpn.0) {
            return Err(GhostError::flash(format!(
                "double free of (deferred) logical page {}",
                lpn.0
            )));
        }
        self.settle_freed(&mut st, lpn.0)
    }

    /// The ledger's one rule, applied to a page that has been freed:
    /// park it in `deferred` while the sealed image or a snapshot holds
    /// it; otherwise release it physically — unmap, recycle the LPN,
    /// and erase the block once it is fully allocated and fully dead.
    fn settle_freed(&self, st: &mut AllocState, lpn: u32) -> Result<()> {
        let Some(phys) = st.mapped(lpn) else {
            return Err(GhostError::flash(format!(
                "double free of logical page {lpn}"
            )));
        };
        if st.is_held(lpn) {
            st.deferred.insert(lpn);
            return Ok(());
        }
        st.deferred.remove(&lpn);
        let ppb = self.nand.config().pages_per_block;
        let block = self.nand.block_of(phys);
        st.l2p[lpn as usize] = UNMAPPED;
        st.free_lpns.push(lpn);
        st.p2l[phys.index()] = UNMAPPED;
        st.live[block.index()] -= 1;
        // A full block will never be written again, so it is safe to
        // recycle; only a block still accepting allocations (either
        // frontier) is pinned. Retired blocks are never erased —
        // their dead pages are simply lost capacity.
        let erase = st.live[block.index()] == 0
            && st.allocated[block.index()] as usize == ppb
            && !st.bad[block.index()]
            && !st.is_frontier(block, ppb);
        if erase {
            self.recycle_block(st, block)?;
        }
        Ok(())
    }

    /// Release a segment's pages, erasing and recycling fully dead blocks.
    pub fn free(&self, segment: Segment) -> Result<()> {
        for &p in segment.pages.iter() {
            self.free_page(p)?;
        }
        Ok(())
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

    /// Begin writing a new segment; the one-page write buffer is charged
    /// to `scope`. The scope is retained: if an allocation inside
    /// [`SegmentWriter::write`] trips the GC low-watermark, the pass
    /// charges its copy buffer here too.
    pub fn writer(&self, scope: &RamScope) -> Result<SegmentWriter> {
        let guard = scope.alloc(self.raw_page_size())?;
        Ok(SegmentWriter {
            volume: self.clone(),
            scope: scope.clone(),
            buf: Vec::with_capacity(self.page_size()),
            pages: Vec::new(),
            written: 0,
            _ram: guard,
        })
    }

    /// Open a segment for buffered sequential reading; the one-page read
    /// buffer is charged to `scope`.
    pub fn reader(&self, scope: &RamScope, segment: &Segment) -> Result<SegmentReader> {
        let guard = scope.alloc(self.raw_page_size())?;
        Ok(SegmentReader {
            volume: self.clone(),
            segment: segment.clone(),
            pos: 0,
            buf: vec![0; self.raw_page_size()],
            buf_page: usize::MAX,
            _ram: guard,
        })
    }

    /// Random read of `buf.len()` bytes at byte `offset` into a segment.
    ///
    /// Costs one page fault per page touched. The caller provides (and
    /// has paid for) the destination buffer.
    pub fn read_at(&self, segment: &Segment, offset: u64, buf: &mut [u8]) -> Result<()> {
        if offset + buf.len() as u64 > segment.len_bytes {
            return Err(GhostError::flash(format!(
                "read_at beyond segment end: offset {offset} + {} > {}",
                buf.len(),
                segment.len_bytes
            )));
        }
        let ps = self.page_size() as u64;
        let mut done = 0usize;
        let mut reg = vec![0u8; self.raw_page_size()];
        while done < buf.len() {
            let pos = offset + done as u64;
            let page_idx = (pos / ps) as usize;
            let in_page = (pos % ps) as usize;
            let chunk = ((ps as usize) - in_page).min(buf.len() - done);
            // The whole codeword must be faulted so the ECC check can
            // run — a random read costs a full-page transfer, not just
            // the window — unless the page-cache mirror already holds
            // the verified image, in which case the fault costs nothing
            // but a host copy.
            self.fault_lpn(segment.pages[page_idx], &mut reg)?;
            buf[done..done + chunk].copy_from_slice(&reg[in_page..in_page + chunk]);
            done += chunk;
        }
        Ok(())
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

/// Append-only writer producing a [`Segment`].
#[derive(Debug)]
pub struct SegmentWriter {
    volume: Volume,
    scope: RamScope,
    buf: Vec<u8>,
    pages: Vec<Lpn>,
    written: u64,
    _ram: ScopedGuard,
}

impl SegmentWriter {
    /// Append bytes to the segment.
    pub fn write(&mut self, mut bytes: &[u8]) -> Result<()> {
        let ps = self.volume.page_size();
        while !bytes.is_empty() {
            let room = ps - self.buf.len();
            let take = room.min(bytes.len());
            self.buf.extend_from_slice(&bytes[..take]);
            bytes = &bytes[take..];
            self.written += take as u64;
            if self.buf.len() == ps {
                self.flush_page()?;
            }
        }
        Ok(())
    }

    fn flush_page(&mut self) -> Result<()> {
        let lpn = self.volume.program_page(&self.scope, &self.buf)?;
        self.pages.push(lpn);
        self.buf.clear();
        Ok(())
    }

    /// Bytes written so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Flush the final partial page and return the finished segment.
    pub fn finish(mut self) -> Result<Segment> {
        if !self.buf.is_empty() {
            self.flush_page()?;
        }
        Ok(Segment {
            pages: Arc::new(std::mem::take(&mut self.pages)),
            len_bytes: self.written,
        })
    }
}

impl Drop for SegmentWriter {
    fn drop(&mut self) {
        // Abandoned writer: return any allocated pages to the volume.
        for &p in &self.pages {
            let _ = self.volume.free_page(p);
        }
    }
}

/// Buffered sequential reader over a [`Segment`].
#[derive(Debug)]
pub struct SegmentReader {
    volume: Volume,
    segment: Segment,
    pos: u64,
    buf: Vec<u8>,
    /// Index (within the segment) of the page currently buffered.
    buf_page: usize,
    _ram: ScopedGuard,
}

impl SegmentReader {
    /// Current byte position.
    pub fn position(&self) -> u64 {
        self.pos
    }

    /// Total segment length in bytes.
    pub fn len(&self) -> u64 {
        self.segment.len_bytes
    }

    /// True if the underlying segment holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.segment.len_bytes == 0
    }

    /// True if the cursor is at the end.
    pub fn is_at_end(&self) -> bool {
        self.pos >= self.segment.len_bytes
    }

    /// Reposition the cursor.
    pub fn seek(&mut self, pos: u64) -> Result<()> {
        if pos > self.segment.len_bytes {
            return Err(GhostError::flash("seek beyond segment end"));
        }
        self.pos = pos;
        Ok(())
    }

    /// Read up to `buf.len()` bytes; returns 0 at end of segment.
    pub fn read(&mut self, buf: &mut [u8]) -> Result<usize> {
        let remaining = (self.segment.len_bytes - self.pos) as usize;
        let want = buf.len().min(remaining);
        let ps = self.volume.page_size();
        let mut done = 0;
        while done < want {
            let page_idx = (self.pos / ps as u64) as usize;
            if page_idx != self.buf_page {
                // Fault in the page (full-page read: sequential scans
                // consume whole pages, and the ECC check needs the whole
                // codeword anyway). Resolved through the translation
                // table, so a concurrent GC migration is invisible here.
                self.volume
                    .fault_lpn(self.segment.pages[page_idx], &mut self.buf)?;
                self.buf_page = page_idx;
            }
            let in_page = (self.pos % ps as u64) as usize;
            let chunk = (ps - in_page).min(want - done);
            buf[done..done + chunk].copy_from_slice(&self.buf[in_page..in_page + chunk]);
            done += chunk;
            self.pos += chunk as u64;
        }
        Ok(done)
    }

    /// Read exactly `buf.len()` bytes or fail.
    pub fn read_exact(&mut self, buf: &mut [u8]) -> Result<()> {
        let n = self.read(buf)?;
        if n != buf.len() {
            return Err(GhostError::flash(format!(
                "unexpected end of segment: wanted {}, got {n}",
                buf.len()
            )));
        }
        Ok(())
    }

    /// Bulk-read `count` packed little-endian `u32` row ids into
    /// `block`: one chunked read per staging buffer instead of one
    /// 4-byte read per id. Shared by the posting-list and flash-temp
    /// block streams.
    pub fn read_ids_into(
        &mut self,
        count: usize,
        block: &mut ghostdb_types::IdBlock,
    ) -> Result<()> {
        let mut raw = [0u8; 256];
        let mut left = count;
        while left > 0 {
            let chunk = left.min(raw.len() / 4);
            self.read_exact(&mut raw[..chunk * 4])?;
            for c in raw[..chunk * 4].chunks_exact(4) {
                block.push(ghostdb_types::RowId(u32::from_le_bytes(
                    c.try_into().expect("4B"),
                )));
            }
            left -= chunk;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ghostdb_ram::RamBudget;
    use ghostdb_types::{FlashConfig, SimClock};

    fn setup_cfg(blocks: usize, watermark: usize) -> (Volume, RamScope) {
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

    fn setup(blocks: usize) -> (Volume, RamScope) {
        setup_cfg(blocks, 0)
    }

    #[test]
    fn write_read_roundtrip_multi_page() {
        let (vol, scope) = setup(8);
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let mut w = vol.writer(&scope).unwrap();
        w.write(&data).unwrap();
        let seg = w.finish().unwrap();
        assert_eq!(seg.len(), 1000);
        assert_eq!(seg.page_count(), 1000usize.div_ceil(vol.page_size()));

        let mut r = vol.reader(&scope, &seg).unwrap();
        let mut back = vec![0u8; 1000];
        r.read_exact(&mut back).unwrap();
        assert_eq!(back, data);
        assert_eq!(r.read(&mut [0u8; 10]).unwrap(), 0, "EOF returns 0");
    }

    #[test]
    fn chunked_writes_equal_bulk_write() {
        let (vol, scope) = setup(8);
        let data: Vec<u8> = (0..500).map(|i| (i * 7 % 256) as u8).collect();
        let mut w = vol.writer(&scope).unwrap();
        for chunk in data.chunks(13) {
            w.write(chunk).unwrap();
        }
        let seg = w.finish().unwrap();
        let mut r = vol.reader(&scope, &seg).unwrap();
        let mut back = vec![0u8; 500];
        r.read_exact(&mut back).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn random_read_at() {
        let (vol, scope) = setup(8);
        let data: Vec<u8> = (0..640).map(|i| (i % 256) as u8).collect();
        let mut w = vol.writer(&scope).unwrap();
        w.write(&data).unwrap();
        let seg = w.finish().unwrap();

        let mut buf = [0u8; 10];
        let edge = vol.page_size() - 4;
        vol.read_at(&seg, edge as u64, &mut buf).unwrap(); // spans a page boundary
        assert_eq!(&buf[..], &data[edge..edge + 10]);
        assert!(vol.read_at(&seg, 635, &mut buf).is_err());
    }

    #[test]
    fn seek_and_reread() {
        let (vol, scope) = setup(8);
        let data: Vec<u8> = (0..200).map(|i| i as u8).collect();
        let mut w = vol.writer(&scope).unwrap();
        w.write(&data).unwrap();
        let seg = w.finish().unwrap();

        let mut r = vol.reader(&scope, &seg).unwrap();
        r.seek(100).unwrap();
        let mut buf = [0u8; 4];
        r.read_exact(&mut buf).unwrap();
        assert_eq!(buf, [100, 101, 102, 103]);
        r.seek(0).unwrap();
        r.read_exact(&mut buf).unwrap();
        assert_eq!(buf, [0, 1, 2, 3]);
    }

    #[test]
    fn free_recycles_blocks() {
        let (vol, scope) = setup(4); // 16 pages total
        let ps = vol.page_size();
        let mut segs = Vec::new();
        for _ in 0..4 {
            let mut w = vol.writer(&scope).unwrap();
            w.write(&vec![0xAB; ps * 4]).unwrap(); // exactly one block
            segs.push(w.finish().unwrap());
        }
        // Volume is now full.
        let mut w = vol.writer(&scope).unwrap();
        assert!(w.write(&vec![0u8; ps]).is_err());
        drop(w);
        // Free two segments; their blocks are erased and reusable.
        vol.free(segs.pop().unwrap()).unwrap();
        vol.free(segs.pop().unwrap()).unwrap();
        let mut w = vol.writer(&scope).unwrap();
        w.write(&vec![0xCD; ps * 6]).unwrap();
        let seg = w.finish().unwrap();
        assert_eq!(seg.page_count(), 6);
        assert!(vol.nand().stats().block_erases >= 2);
    }

    #[test]
    fn abandoned_writer_releases_pages() {
        let (vol, scope) = setup(2); // 8 pages
        let ps = vol.page_size();
        {
            let mut w = vol.writer(&scope).unwrap();
            w.write(&vec![1u8; ps * 8]).unwrap(); // all pages
                                                  // dropped without finish()
        }
        // A block becomes erasable once its pages are returned.
        let mut w = vol.writer(&scope).unwrap();
        w.write(&vec![2u8; ps * 4]).unwrap();
        w.finish().unwrap();
    }

    #[test]
    fn reader_buffers_are_charged_to_scope() {
        let (vol, _) = setup(4);
        let tiny = RamBudget::new(32); // smaller than one 64-byte page
        let scope = RamScope::new(&tiny);
        assert!(vol.writer(&scope).is_err());
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

    #[test]
    fn empty_segment() {
        let (vol, scope) = setup(4);
        let w = vol.writer(&scope).unwrap();
        let seg = w.finish().unwrap();
        assert!(seg.is_empty());
        assert_eq!(seg.page_count(), 0);
        let mut r = vol.reader(&scope, &seg).unwrap();
        assert_eq!(r.read(&mut [0u8; 8]).unwrap(), 0);
    }

    /// Interleave a long-lived segment's pages with a short-lived one's
    /// in the same blocks, free the short-lived one, and return the
    /// survivor: the classic fragmentation the GC exists to fix.
    fn fragment(vol: &Volume, scope: &RamScope, blocks: usize) -> (Segment, Segment) {
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
    fn double_free_detected_after_migration() {
        let (vol, scope) = setup(8);
        let (keeper, junk) = fragment(&vol, &scope, 4);
        vol.free(junk.clone()).unwrap();
        vol.gc(&scope).unwrap();
        // The junk pages were freed before the GC moved things around;
        // freeing them again must still be caught.
        let err = vol.free(junk).unwrap_err();
        assert!(err.to_string().contains("double free"), "{err}");
        vol.free(keeper).unwrap();
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
    fn sealed_pages_defer_frees_and_block_gc() {
        let (vol, scope) = setup(8);
        let (keeper, junk) = fragment(&vol, &scope, 4);
        // Seal the current state: every live page is pinned.
        vol.commit_seal().unwrap();
        vol.free(junk.clone()).unwrap();
        assert_eq!(vol.pin_stats().sealed_deferred, 12, "sealed frees defer");
        // Double free of a deferred segment is still caught.
        let err = vol.free(junk).unwrap_err();
        assert!(err.to_string().contains("double free"), "{err}");
        // The GC may not touch blocks holding sealed pages, and the
        // deferred pages never become opportunistic-erase fodder.
        assert_eq!(vol.gc(&scope).unwrap(), GcStats::default());
        assert_eq!(vol.nand().stats().block_erases, 0);
        // The snapshot the *next* image records excludes the deferred
        // pages (it no longer references them)...
        let snap = vol.l2p_snapshot();
        let mapped = snap.iter().filter(|&&p| p != UNMAPPED).count();
        assert_eq!(mapped, 4, "only the keeper's pages stay in the image");
        // ...and committing the seal releases them for real: the GC can
        // now compact the fragmented blocks.
        vol.commit_seal().unwrap();
        assert_eq!(vol.pin_stats().sealed_deferred, 0);
        // Fresh (post-commit) state has the keeper sealed again; its
        // blocks are exempt, but all-dead blocks reclaim fine.
        let mut r = vol.reader(&scope, &keeper).unwrap();
        let mut back = vec![0u8; keeper.len() as usize];
        r.read_exact(&mut back).unwrap();
        assert!(back.iter().all(|&b| b == 0x11), "keeper intact");
    }

    #[test]
    fn snapshot_pins_defer_frees_until_last_unpin() {
        let (vol, scope) = setup(8);
        let (keeper, junk) = fragment(&vol, &scope, 4);
        let lpns = junk.manifest().lpns;
        // Two snapshots pin the junk segment.
        vol.pin_pages(&lpns).unwrap();
        vol.pin_pages(&lpns).unwrap();
        vol.free(junk.clone()).unwrap();
        let pins = vol.pin_stats();
        assert_eq!(pins.snapshot_pinned, 12);
        assert_eq!(pins.snapshot_deferred, 12, "pinned frees defer");
        // Double free of a pin-deferred segment is still caught.
        let err = vol.free(junk.clone()).unwrap_err();
        assert!(err.to_string().contains("double free"), "{err}");
        // The pinned pages stay readable: the l2p still maps them, and
        // GC may migrate but never erase them.
        vol.gc(&scope).unwrap();
        let mut r = vol.reader(&scope, &junk).unwrap();
        let mut back = vec![0u8; junk.len() as usize];
        r.read_exact(&mut back).unwrap();
        assert!(back.iter().all(|&b| b == 0x22), "pinned data intact");
        // First unpin: still one snapshot open, nothing released.
        vol.unpin_pages(&lpns).unwrap();
        assert_eq!(vol.pin_stats().snapshot_deferred, 12);
        // Last unpin: the deferred pages die for real and become GC
        // feedstock.
        vol.unpin_pages(&lpns).unwrap();
        let pins = vol.pin_stats();
        assert_eq!(pins.snapshot_pinned, 0);
        assert_eq!(pins.snapshot_deferred, 0);
        assert_eq!(vol.usage().dead_pages, 12);
        assert!(vol.gc(&scope).unwrap().blocks_reclaimed >= 3);
        // The keeper never lost a byte through all of it.
        let mut r = vol.reader(&scope, &keeper).unwrap();
        let mut back = vec![0u8; keeper.len() as usize];
        r.read_exact(&mut back).unwrap();
        assert!(back.iter().all(|&b| b == 0x11));
        // Unpinning without a pin is an error, and pinning a dead page
        // is refused.
        assert!(vol.unpin_pages(&lpns).is_err());
        assert!(vol.pin_pages(&lpns).is_err());
    }

    #[test]
    fn seal_and_pin_compose() {
        let (vol, scope) = setup(8);
        let (_keeper, junk) = fragment(&vol, &scope, 4);
        let lpns = junk.manifest().lpns;
        // Page is sealed *and* snapshot-pinned, then freed: the free
        // defers on the seal first.
        vol.commit_seal().unwrap();
        vol.pin_pages(&lpns).unwrap();
        vol.free(junk.clone()).unwrap();
        assert_eq!(vol.pin_stats().sealed_deferred, 12);
        assert_eq!(vol.pin_stats().snapshot_deferred, 0);
        // Committing the superseding seal hands the still-pinned pages
        // to the pin ledger instead of erasing under the snapshot.
        vol.commit_seal().unwrap();
        assert_eq!(vol.pin_stats().sealed_deferred, 0);
        let pins = vol.pin_stats();
        assert_eq!(pins.snapshot_deferred, 12);
        assert_eq!(
            pins.sealed_pinned, 4,
            "dead-but-pinned pages are not resealed"
        );
        let mut r = vol.reader(&scope, &junk).unwrap();
        let mut back = vec![0u8; junk.len() as usize];
        r.read_exact(&mut back).unwrap();
        assert!(back.iter().all(|&b| b == 0x22), "still readable");
        // The snapshot drops: now the pages die.
        vol.unpin_pages(&lpns).unwrap();
        assert_eq!(vol.pin_stats().snapshot_deferred, 0);
        assert!(vol.usage().dead_pages >= 12 || vol.usage().free_blocks > 0);
    }

    /// The reference the merged ledger is checked against: per segment
    /// (every op here acts on whole segments, so a segment's pages share
    /// one state), the three facts the rule is stated in.
    #[derive(Default)]
    struct LedgerModel {
        /// Every segment ever written, with its fill byte.
        segs: Vec<(Segment, u8)>,
        /// Freed, not yet physically released.
        freed: BTreeSet<usize>,
        /// Referenced by the image of the last `commit_seal`.
        sealed: BTreeSet<usize>,
        /// Open snapshot pins (count per segment).
        pins: HashMap<usize, u32>,
        /// Physically released: unmapped, LPNs recyclable.
        released: BTreeSet<usize>,
        /// Released *and* an LPN since reused by a newer segment — the
        /// old handle now aliases someone else's page, so it is never
        /// touched again.
        stale: BTreeSet<usize>,
    }

    impl LedgerModel {
        fn held(&self, i: usize) -> bool {
            self.sealed.contains(&i) || self.pins.contains_key(&i)
        }

        /// The rule: released exactly when freed ∧ ¬sealed ∧ unpinned.
        fn settle(&mut self) {
            for i in self.freed.clone() {
                if !self.held(i) {
                    self.freed.remove(&i);
                    self.released.insert(i);
                }
            }
        }

        fn pages(&self, of: impl Fn(usize) -> bool) -> usize {
            (0..self.segs.len())
                .filter(|&i| !self.released.contains(&i) && of(i))
                .map(|i| self.segs[i].0.page_count())
                .sum()
        }

        /// Everything the volume must agree with after any operation.
        fn check(&self, vol: &Volume, scope: &RamScope) {
            for (i, (seg, tag)) in self.segs.iter().enumerate() {
                let mut back = vec![0u8; seg.len() as usize];
                let read = vol
                    .reader(scope, seg)
                    .and_then(|mut r| r.read_exact(&mut back));
                if !self.released.contains(&i) {
                    read.unwrap_or_else(|e| panic!("segment {i} must stay readable: {e}"));
                    assert!(back.iter().all(|b| b == tag), "segment {i} bytes");
                } else if !self.stale.contains(&i) {
                    assert!(read.is_err(), "released segment {i} still reads");
                }
            }
            assert_eq!(
                vol.pin_stats(),
                PinStats {
                    snapshot_pinned: self.pages(|i| self.pins.contains_key(&i)),
                    snapshot_deferred: self
                        .pages(|i| self.freed.contains(&i) && !self.sealed.contains(&i)),
                    sealed_pinned: self.pages(|i| self.sealed.contains(&i)),
                    sealed_deferred: self
                        .pages(|i| self.freed.contains(&i) && self.sealed.contains(&i)),
                }
            );
            // Physically released exactly when nothing holds the page:
            // the mapped set is the unfreed plus the deferred, and what
            // the part has programmed beyond it is dead.
            let usage = vol.usage();
            assert_eq!(usage.live_pages as usize, self.pages(|_| true));
            let programmed = (0..vol.nand().page_count())
                .filter(|&p| {
                    vol.nand().page_state(PageAddr(p as u32)).unwrap() == PageState::Programmed
                })
                .count();
            assert_eq!(usage.dead_pages as usize, programmed - self.pages(|_| true));
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig { cases: 48, ..Default::default() })]

        /// Random interleavings of write / free / pin / unpin /
        /// `commit_seal` / gc on a tiny part, against [`LedgerModel`].
        #[test]
        fn ledger_matches_the_three_set_model(
            ops in proptest::collection::vec(proptest::any::<u32>(), 1..80),
        ) {
            let (vol, scope) = setup_cfg(16, 2);
            let ps = vol.page_size();
            let mut m = LedgerModel::default();
            // Open snapshots: the segment each pinned, and its LPNs.
            let mut snapshots: Vec<(usize, Vec<u32>)> = Vec::new();
            for op in ops {
                let pick = (op / 8) as usize;
                match op % 8 {
                    // Write 1–3 pages (weighted up so there is something
                    // to free and pin); the part is kept under half full.
                    0..=2 if m.pages(|_| true) <= 28 => {
                        let tag = m.segs.len() as u8;
                        let mut w = vol.writer(&scope).unwrap();
                        let wrote = w.write(&vec![tag; ps * (1 + pick % 3)]);
                        match wrote.and_then(|()| w.finish()) {
                            Ok(seg) => {
                                let lpns = seg.manifest().lpns;
                                for i in m.released.clone() {
                                    let old = m.segs[i].0.manifest().lpns;
                                    if old.iter().any(|l| lpns.contains(l)) {
                                        m.stale.insert(i);
                                    }
                                }
                                m.segs.push((seg, tag));
                            }
                            // Sealed blocks are GC-exempt, so a run of
                            // seals can fragment the part full.
                            Err(e) => assert!(e.to_string().contains("full"), "{e}"),
                        }
                    }
                    3 | 4 if !m.segs.is_empty() => {
                        let i = pick % m.segs.len();
                        if m.stale.contains(&i) {
                            continue;
                        }
                        let res = vol.free(m.segs[i].0.clone());
                        if m.freed.contains(&i) || m.released.contains(&i) {
                            let err = res.expect_err("a second free always errors");
                            assert!(err.to_string().contains("double free"), "{err}");
                        } else {
                            res.unwrap();
                            m.freed.insert(i);
                        }
                    }
                    5 if !m.segs.is_empty() => {
                        let i = pick % m.segs.len();
                        if m.stale.contains(&i) {
                            continue;
                        }
                        let lpns = m.segs[i].0.manifest().lpns;
                        let res = vol.pin_pages(&lpns);
                        if m.freed.contains(&i) || m.released.contains(&i) {
                            assert!(res.is_err(), "pin of a freed segment");
                        } else {
                            res.unwrap();
                            *m.pins.entry(i).or_insert(0) += 1;
                            snapshots.push((i, lpns));
                        }
                    }
                    6 if !snapshots.is_empty() => {
                        let (i, lpns) = snapshots.swap_remove(pick % snapshots.len());
                        vol.unpin_pages(&lpns).unwrap();
                        let count = m.pins.get_mut(&i).unwrap();
                        *count -= 1;
                        if *count == 0 {
                            m.pins.remove(&i);
                        }
                    }
                    7 if pick.is_multiple_of(2) => {
                        vol.commit_seal().unwrap();
                        // The old generation unseals, frees settle, and
                        // what stays mapped and unfreed is sealed anew.
                        m.sealed.clear();
                        m.settle();
                        m.sealed = (0..m.segs.len())
                            .filter(|i| !m.released.contains(i) && !m.freed.contains(i))
                            .collect();
                    }
                    7 => {
                        if let Err(e) = vol.gc(&scope) {
                            assert!(e.to_string().contains("full"), "{e}");
                        }
                    }
                    _ => continue,
                }
                m.settle();
                m.check(&vol, &scope);
            }
            // Quiescence: every snapshot drops, two seals commit.
            for (_, lpns) in snapshots {
                vol.unpin_pages(&lpns).unwrap();
            }
            m.pins.clear();
            for _ in 0..2 {
                vol.commit_seal().unwrap();
                m.sealed.clear();
                m.settle();
            }
            m.sealed = (0..m.segs.len()).filter(|i| !m.released.contains(i)).collect();
            assert!(m.freed.is_empty());
            m.check(&vol, &scope);
            let pins = vol.pin_stats();
            assert_eq!(
                (pins.snapshot_pinned, pins.snapshot_deferred, pins.sealed_deferred),
                (0, 0, 0)
            );
        }
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
    fn single_bit_rot_is_corrected_on_read() {
        let (vol, scope) = setup(4);
        let ps = vol.page_size();
        let data: Vec<u8> = (0..ps).map(|i| (i * 3) as u8).collect();
        let mut w = vol.writer(&scope).unwrap();
        w.write(&data).unwrap();
        let seg = w.finish().unwrap();
        let phys = vol.phys_of(seg.pages[0]).unwrap();
        vol.nand().corrupt_page(phys, 137).unwrap();

        let mut r = vol.reader(&scope, &seg).unwrap();
        let mut back = vec![0u8; ps];
        r.read_exact(&mut back).unwrap();
        assert_eq!(back, data, "flip repaired before the data was served");
        let rel = vol.reliability();
        assert_eq!(rel.corrected, 1);
        assert_eq!(rel.uncorrectable, 0);

        // The repair serves clean data but the stored copy still rots:
        // a random read_at faults the same codeword through the page
        // register and corrects it again.
        let mut probe = [0u8; 4];
        vol.read_at(&seg, 8, &mut probe).unwrap();
        assert_eq!(&probe, &data[8..12]);
        assert_eq!(vol.reliability().corrected, 2);
    }

    #[test]
    fn multi_bit_rot_is_a_clean_corrupt_error() {
        let (vol, scope) = setup(4);
        let ps = vol.page_size();
        let mut w = vol.writer(&scope).unwrap();
        w.write(&vec![0x42; ps]).unwrap();
        let seg = w.finish().unwrap();
        let phys = vol.phys_of(seg.pages[0]).unwrap();
        vol.nand().corrupt_page(phys, 3).unwrap();
        vol.nand().corrupt_page(phys, 77).unwrap();

        let mut r = vol.reader(&scope, &seg).unwrap();
        let mut sink = vec![0u8; ps];
        let err = r.read_exact(&mut sink).unwrap_err();
        assert!(err.to_string().contains("uncorrectable"), "{err}");
        assert_eq!(vol.reliability().uncorrectable, 1);
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

    /// A volume with the page-cache mirror configured to `pages`,
    /// charged to its own 64 KiB budget.
    fn setup_cached(blocks: usize, pages: usize) -> (Volume, RamScope, RamBudget) {
        let (vol, scope) = setup(blocks);
        let budget = RamBudget::new(64 * 1024);
        vol.configure_page_cache(pages, &budget).unwrap();
        (vol, scope, budget)
    }

    #[test]
    fn cache_is_disabled_until_configured_and_charges_ram() {
        let (vol, scope) = setup(8);
        assert_eq!(vol.page_cache_stats().capacity_pages, 0);
        let mut w = vol.writer(&scope).unwrap();
        w.write(&[7u8; 40]).unwrap();
        let seg = w.finish().unwrap();
        let mut buf = [0u8; 8];
        vol.read_at(&seg, 0, &mut buf).unwrap();
        let s = vol.page_cache_stats();
        assert_eq!((s.hits, s.misses, s.resident_pages), (0, 0, 0));

        let budget = RamBudget::new(64 * 1024);
        let raw = vol.nand().config().page_size;
        let charged = vol.configure_page_cache(8, &budget).unwrap();
        assert_eq!(charged, 8 * raw);
        assert_eq!(budget.used(), 8 * raw, "mirror bytes held on the budget");
        assert_eq!(vol.page_cache_stats().charged_bytes, 8 * raw);
        vol.configure_page_cache(0, &budget).unwrap();
        assert_eq!(budget.used(), 0, "disabling releases the charge");
        // A charge the budget cannot hold is a clean failure.
        let tiny = RamBudget::new(raw - 1);
        assert!(vol.configure_page_cache(1, &tiny).is_err());
    }

    #[test]
    fn cache_hits_skip_the_nand_and_the_clock() {
        let (vol, scope, _budget) = setup_cached(8, 4);
        let mut w = vol.writer(&scope).unwrap();
        w.write(&(0..56u8).collect::<Vec<u8>>()).unwrap();
        let seg = w.finish().unwrap();

        let mut buf = [0u8; 8];
        vol.read_at(&seg, 4, &mut buf).unwrap(); // cold: pays the NAND transfer
        assert_eq!(&buf[..], &[4, 5, 6, 7, 8, 9, 10, 11]);
        let reads_before = vol.nand().stats().page_reads;
        let t0 = vol.nand().clock().now();
        vol.read_at(&seg, 4, &mut buf).unwrap(); // warm: served from the mirror
        assert_eq!(&buf[..], &[4, 5, 6, 7, 8, 9, 10, 11]);
        assert_eq!(
            vol.nand().stats().page_reads,
            reads_before,
            "a mirror hit must not touch the NAND"
        );
        assert_eq!(
            vol.nand().clock().now().since(t0),
            0,
            "a mirror hit costs no simulated device time"
        );
        let s = vol.page_cache_stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn clock_eviction_caps_residency() {
        let (vol, scope, _budget) = setup_cached(8, 2);
        let ps = vol.page_size();
        let mut w = vol.writer(&scope).unwrap();
        w.write(&vec![0xAB; 3 * ps]).unwrap();
        let seg = w.finish().unwrap();
        let mut r = vol.reader(&scope, &seg).unwrap();
        let mut back = vec![0u8; 3 * ps];
        r.read_exact(&mut back).unwrap(); // faults pages 0, 1, 2
        let s = vol.page_cache_stats();
        assert_eq!(s.resident_pages, 2, "capacity bounds residency");
        assert_eq!(s.evictions, 1, "third fill displaced one page");
        assert_eq!(s.misses, 3);
    }

    #[test]
    fn erase_invalidates_the_mirror() {
        let (vol, scope, _budget) = setup_cached(8, 4);
        let ps = vol.page_size();
        let mut w = vol.writer(&scope).unwrap();
        w.write(&vec![0x11; 4 * ps]).unwrap(); // fills one erase block
        let seg = w.finish().unwrap();
        let mut r = vol.reader(&scope, &seg).unwrap();
        let mut back = vec![0u8; 4 * ps];
        r.read_exact(&mut back).unwrap();
        assert_eq!(vol.page_cache_stats().resident_pages, 4);

        vol.free(seg).unwrap(); // fully dead block: erased and recycled
        assert_eq!(
            vol.page_cache_stats().resident_pages,
            0,
            "an erase must drop every mirrored page of the block"
        );
        // Reuse of the same physical pages serves the new bytes.
        let mut w = vol.writer(&scope).unwrap();
        w.write(&vec![0x22; 4 * ps]).unwrap();
        let seg2 = w.finish().unwrap();
        let mut r = vol.reader(&scope, &seg2).unwrap();
        r.read_exact(&mut back).unwrap();
        assert!(back.iter().all(|&b| b == 0x22));
    }

    #[test]
    fn gc_migration_keeps_a_warm_mirror_coherent() {
        let (vol, scope, _budget) = setup_cached(8, 4);
        let ps = vol.page_size();
        let mut w = vol.writer(&scope).unwrap();
        w.write(&vec![0x33; 2 * ps]).unwrap();
        let doomed = w.finish().unwrap();
        let mut w = vol.writer(&scope).unwrap();
        w.write(&vec![0x44; 2 * ps]).unwrap();
        let live = w.finish().unwrap(); // same block as `doomed`: 4/4 allocated

        // Warm the mirror with the survivor's pages at their old address.
        let mut back = vec![0u8; 2 * ps];
        let mut r = vol.reader(&scope, &live).unwrap();
        r.read_exact(&mut back).unwrap();

        vol.free(doomed).unwrap();
        let gc = vol.gc(&scope).unwrap();
        assert_eq!(gc.pages_migrated, 2, "survivors moved to the cold frontier");
        assert_eq!(
            vol.page_cache_stats().resident_pages,
            0,
            "the victim erase dropped the stale entries"
        );
        let mut r = vol.reader(&scope, &live).unwrap();
        r.read_exact(&mut back).unwrap();
        assert!(
            back.iter().all(|&b| b == 0x44),
            "post-migration reads agree"
        );
    }

    #[test]
    fn corrected_pages_are_never_mirrored() {
        let (vol, scope, _budget) = setup_cached(8, 4);
        let mut w = vol.writer(&scope).unwrap();
        w.write(&[0x0F; 40]).unwrap();
        let seg = w.finish().unwrap();
        let phys = vol.l2p_snapshot()[seg.manifest().lpns[0] as usize];
        vol.nand().corrupt_page(PageAddr(phys), 13).unwrap();

        let mut buf = [0u8; 8];
        vol.read_at(&seg, 0, &mut buf).unwrap();
        vol.read_at(&seg, 0, &mut buf).unwrap();
        assert_eq!(buf, [0x0F; 8], "both reads repaired the flipped bit");
        assert_eq!(
            vol.reliability().corrected,
            2,
            "a rotted page re-corrects on every fault — it is never served \
             from the mirror, so the scrub trigger still advances"
        );
        let s = vol.page_cache_stats();
        assert_eq!((s.hits, s.resident_pages), (0, 0));
        // The scrub pass can therefore still find and rewrite it.
        let report = vol.scrub(&scope).unwrap();
        assert_eq!(report.pages_rewritten, 1);
    }
}
