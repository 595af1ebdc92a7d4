//! The read path: logical→physical resolution and the optimistic
//! page fault.
//!
//! A reader never holds the state lock across a transfer. It resolves
//! the logical page, copies the raw page (from the mirror or from NAND),
//! then **re-checks the mapping** and retries if GC, scrub or a
//! retirement moved the page meanwhile — so reclamation never blocks
//! readers. This module owns that resolve → transfer → re-check
//! sequence and the bookkeeping of what the codeword check found.

use ghostdb_types::{GhostError, Result};

use super::{AllocState, Lpn, Segment, Volume, UNMAPPED};
use crate::ecc::Verdict;
use crate::nand::PageAddr;

impl Volume {
    /// Book the outcome of one codeword check ([`crate::Nand::verify`]) of
    /// physical page `phys`: reliability counters, the per-page scrub
    /// trigger, and the clean error past the correction budget.
    pub(super) fn note_verdict(
        &self,
        st: &mut AllocState,
        phys: PageAddr,
        verdict: Verdict,
    ) -> Result<()> {
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
    pub(super) fn fault_lpn(&self, lpn: Lpn, raw: &mut [u8]) -> Result<()> {
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

    /// Current physical address of a logical page.
    pub(super) fn phys_of(&self, lpn: Lpn) -> Result<PageAddr> {
        let st = self.state.lock().expect("volume poisoned");
        st.mapped(lpn.0)
            .ok_or_else(|| GhostError::flash(format!("read through freed logical page {}", lpn.0)))
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
}

#[cfg(test)]
mod tests {
    use super::super::tests::setup;

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
}
