//! The page-cache mirror.
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

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use ghostdb_ram::{RamBudget, RamGuard};
use ghostdb_types::Result;

use super::{Volume, UNMAPPED};

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
/// [`Nand::erase`](crate::Nand::erase) and
/// [`Nand::program`](crate::Nand::program), run only under the state
/// lock, where the affected entries are invalidated; a faulting reader
/// re-checks the logical→physical mapping after copying from the
/// mirror, exactly like the NAND path re-checks after a transfer.
///
/// Only **clean** codewords are mirrored: a page whose read needed a
/// single-bit correction must keep re-correcting on every fault so its
/// per-page counter can reach the scrub threshold.
#[derive(Debug)]
pub(super) struct PageCache {
    /// Capacity in pages; `0` = disabled. Read lock-free so the
    /// disabled fast path costs one atomic load.
    cap: AtomicUsize,
    inner: Mutex<PageCacheInner>,
}

impl PageCache {
    pub(super) fn disabled() -> Self {
        PageCache {
            cap: AtomicUsize::new(0),
            inner: Mutex::new(PageCacheInner::default()),
        }
    }

    pub(super) fn enabled(&self) -> bool {
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
    pub(super) fn copy_page(&self, phys: u32, dst: &mut [u8]) -> bool {
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
    pub(super) fn note_hit(&self) {
        if self.enabled() {
            self.inner.lock().expect("page cache poisoned").hits += 1;
        }
    }

    /// Count one fault that paid the NAND transfer.
    pub(super) fn note_miss(&self) {
        if self.enabled() {
            self.inner.lock().expect("page cache poisoned").misses += 1;
        }
    }

    /// Mirror a verified raw page, reusing an empty slot, growing up to
    /// capacity, or second-chance evicting. Returns evictions (0 or 1).
    pub(super) fn insert(&self, phys: u32, raw: &[u8]) -> u64 {
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
    pub(super) fn invalidate_range(&self, first: usize, count: usize) {
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

impl Volume {
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
}

#[cfg(test)]
mod tests {
    use super::super::tests::setup;
    use super::*;
    use crate::nand::PageAddr;
    use ghostdb_ram::RamScope;

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
