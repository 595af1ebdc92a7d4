//! The deferred-free ledger: the seal generation, snapshot pins, and the
//! one set of pages that were freed while something still held them.
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

use ghostdb_types::{GhostError, Result};

use super::{AllocState, Lpn, Segment, Volume, UNMAPPED};

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

impl AllocState {
    pub(super) fn is_sealed(&self, lpn: u32) -> bool {
        self.sealed.get(lpn as usize).copied().unwrap_or(false)
    }

    /// Something still reads `lpn` at its recorded place: the sealed
    /// on-flash image, or an open snapshot.
    fn is_held(&self, lpn: u32) -> bool {
        self.is_sealed(lpn) || self.pins.contains_key(&lpn)
    }
}

impl Volume {
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

    /// Free one logical page. If the sealed on-flash image or an open
    /// snapshot still holds it the release is **deferred**: the page
    /// stays physically intact until the last hold drops — the
    /// mechanism that keeps a crash mid-flush mountable from the
    /// previous image, and a snapshot readable across a flush.
    pub(super) fn free_page(&self, lpn: Lpn) -> Result<()> {
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
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeSet, HashMap};

    use super::super::tests::{fragment, setup, setup_cfg};
    use super::super::GcStats;
    use super::*;
    use crate::nand::{PageAddr, PageState};
    use ghostdb_ram::RamScope;

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

        /// `commit_seal`: the old generation unseals, frees settle, and
        /// what stays mapped and unfreed is sealed anew.
        fn commit_seal(&mut self) {
            self.sealed.clear();
            self.settle();
            self.sealed = (0..self.segs.len())
                .filter(|i| !self.released.contains(i) && !self.freed.contains(i))
                .collect();
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
                        m.commit_seal();
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
                m.commit_seal();
            }
            assert!(m.freed.is_empty());
            m.check(&vol, &scope);
            let pins = vol.pin_stats();
            assert_eq!(
                (pins.snapshot_pinned, pins.snapshot_deferred, pins.sealed_deferred),
                (0, 0, 0)
            );
        }
    }
}
