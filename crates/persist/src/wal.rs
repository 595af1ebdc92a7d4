//! The flash-resident write-ahead log.
//!
//! One record per `insert_rows` batch, appended *before* the batch
//! mutates any RAM state, so replay-after-power-loss is batch-atomic:
//! a record either decodes completely (whole batch re-applied) or its
//! tail is torn (whole batch dropped — it never committed).
//!
//! Layout: records are packed into self-describing pages inside the
//! reserved WAL blocks. Every record starts on a fresh page (the resync
//! points replay needs after a torn tail); large records continue onto
//! following pages. Page header:
//!
//! ```text
//! magic (4) | epoch (8) | seq (4) | used (4) | start (1) | crc (4)
//! ```
//!
//! `seq` is the page's position in the region (self-describing), `used`
//! the payload bytes carried, `start` whether a record begins at payload
//! offset 0, and `crc` covers epoch..payload. Pages of an earlier epoch
//! than the mounted image's are stale leftovers of an interrupted
//! truncation and are ignored; a page of a later epoch means the
//! mounted image is not the newest one sealed
//! ([`WalOpen::superseded_by`]). Records carry their own length, sequence
//! number, and CRC on top, so a record spanning pages is only replayed
//! if every page of it survived — and a record that *rotted away* in
//! the middle of the log ends replay at the last good record (the
//! sequence gap proves later records depend on lost state).
//!
//! Reliability: each WAL page also carries the volume's out-of-band
//! codeword ([`Nand::seal`] / [`Nand::verify`]), repairing single-bit
//! rot on replay; worse rot makes the page parse as torn.
//! WAL blocks that grow bad during an append are skipped — the record
//! retries past the bad block, and replay resyncs over the partial
//! pages the failed attempt left behind.

use ghostdb_flash::{ecc::Verdict, BlockId, Nand, PageAddr, PageState};
use ghostdb_types::{GhostError, Result};

use crate::crc::crc32;

/// WAL page magic ("GWAL").
const MAGIC: u32 = 0x4757_414C;

/// Per-page header size.
const PAGE_HEADER: usize = 25;

/// Per-record header size (len + record seq + crc).
const REC_HEADER: usize = 12;

/// Append cursor over the reserved WAL region.
#[derive(Debug)]
pub struct Wal {
    nand: Nand,
    first_block: usize,
    blocks: usize,
    epoch: u64,
    /// Next page index within the region.
    next_page: usize,
    /// Payload bytes appended since the last truncation.
    appended_bytes: u64,
    /// Records appended since the last truncation.
    records: u64,
}

/// Result of [`Wal::open`]: the cursor plus the batch records to replay.
#[derive(Debug)]
pub struct WalOpen {
    /// The append cursor, positioned after everything on flash.
    pub wal: Wal,
    /// Fully-committed records of the mounted epoch, in append order.
    pub records: Vec<Vec<u8>>,
    /// True when replay stopped early: a record in the middle of the
    /// log was lost (rotted past the ECC budget, or its pages torn) and
    /// everything after it was discarded as dependent on lost state.
    /// The caller must re-seal so the stale tail dies with its epoch.
    pub truncated: bool,
    /// The latest epoch of any intact page logged under a *later* epoch
    /// than the mounted one. A log restarts under an epoch only once
    /// that epoch's image is durable, so such a page proves the mounted
    /// image was superseded.
    pub superseded_by: Option<u64>,
}

impl Wal {
    fn region_pages(&self) -> usize {
        self.blocks * self.nand.config().pages_per_block
    }

    fn page_addr(&self, idx: usize) -> PageAddr {
        PageAddr((self.first_block * self.nand.config().pages_per_block + idx) as u32)
    }

    /// Record-stream bytes per WAL page.
    fn per_page(&self) -> usize {
        self.nand.payload_size() - PAGE_HEADER
    }

    /// A fresh cursor at the head of the region (used right after a
    /// truncation sealed the region erased).
    pub fn new(nand: Nand, epoch: u64) -> Wal {
        let cfg = nand.config();
        Wal {
            first_block: crate::wal_first_block(cfg),
            blocks: cfg.wal_blocks,
            nand,
            epoch,
            next_page: 0,
            appended_bytes: 0,
            records: 0,
        }
    }

    /// Scan the region after a mount: collect the committed records of
    /// `epoch` (in order, resyncing at record-start pages past any torn
    /// tail) and position the cursor after the last *programmed* page —
    /// torn or stale pages can never be reprogrammed without an erase,
    /// so they are skipped, not reused.
    ///
    /// Replay ends at the last good record: a sequence gap (a committed
    /// record lost to rot) discards everything after it and reports
    /// [`WalOpen::truncated`].
    pub fn open(nand: Nand, epoch: u64) -> Result<WalOpen> {
        let mut wal = Wal::new(nand, epoch);
        let ps = wal.nand.config().page_size;
        let mut records: Vec<Vec<u8>> = Vec::new();
        let mut pending: Vec<u8> = Vec::new();
        let mut in_record = false;
        let mut halted = false;
        let mut last_programmed: Option<usize> = None;
        let mut superseded_by: Option<u64> = None;
        let mut bytes = 0u64;
        for idx in 0..wal.region_pages() {
            let addr = wal.page_addr(idx);
            if wal.nand.page_state(addr)? != PageState::Programmed {
                continue;
            }
            last_programmed = Some(idx);
            if halted {
                continue;
            }
            let mut page = vec![0u8; ps];
            wal.nand.read_into(addr, 0, &mut page)?;
            let parsed = if wal.nand.verify(&mut page) == Verdict::Uncorrectable {
                None // rotted past the codeword's budget: treat as torn
            } else {
                parse_page(&page[..wal.nand.payload_size()], idx as u32)
            };
            if let Some((page_epoch, ..)) = parsed.filter(|&(e, ..)| e > epoch) {
                superseded_by = superseded_by.max(Some(page_epoch));
            }
            let Some((_, start, payload)) = parsed.filter(|&(e, ..)| e == epoch) else {
                // Torn or stale page: any record running through it died.
                in_record = false;
                pending.clear();
                continue;
            };
            if start {
                // Resync point: drop a partial predecessor.
                pending.clear();
                in_record = true;
            }
            if !in_record {
                continue;
            }
            pending.extend_from_slice(payload);
            // Drain every complete record in the pending stream (one
            // append = one record, but stay defensive about the shape).
            if pending.len() >= REC_HEADER {
                let len = u32::from_le_bytes(pending[..4].try_into().expect("4B")) as usize;
                let rec_seq = u32::from_le_bytes(pending[4..8].try_into().expect("4B"));
                let crc = u32::from_le_bytes(pending[8..12].try_into().expect("4B"));
                if pending.len() >= REC_HEADER + len {
                    let body = pending[REC_HEADER..REC_HEADER + len].to_vec();
                    if crc32(&body) == crc {
                        if rec_seq as usize == records.len() {
                            bytes += body.len() as u64;
                            records.push(body);
                        } else {
                            // A committed predecessor rotted away; this
                            // record (and everything after) depends on
                            // lost state. End replay here.
                            halted = true;
                        }
                    }
                    pending.clear();
                    in_record = false;
                }
            }
        }
        wal.next_page = last_programmed.map(|p| p + 1).unwrap_or(0);
        wal.records = records.len() as u64;
        wal.appended_bytes = bytes;
        Ok(WalOpen {
            wal,
            records,
            truncated: halted,
            superseded_by,
        })
    }

    /// Would a record of `payload_len` bytes fit in the remaining
    /// region? Callers check this *before* committing RAM state, so
    /// "full WAL" is handled by flushing (which truncates) rather than
    /// by dissecting an append error after the fact.
    pub fn fits(&self, payload_len: usize) -> bool {
        let pages_needed = (REC_HEADER + payload_len).div_ceil(self.per_page());
        self.next_page + pages_needed <= self.region_pages()
    }

    /// Append one record (the encoded insert batch). Errors — without
    /// writing anything the replay path would trust — when the region
    /// cannot hold it (see [`fits`](Self::fits)); the caller's answer
    /// to a full WAL is a delta flush, which re-seals and truncates.
    ///
    /// A WAL block that grows bad mid-append is skipped and the whole
    /// record retried past it (replay resyncs over the abandoned
    /// partial pages); the cursor only ever moves forward, so the retry
    /// loop terminates at the region-full error in the worst case.
    pub fn append(&mut self, payload: &[u8]) -> Result<()> {
        let cfg = self.nand.config().clone();
        let per_page = self.per_page();
        let total = REC_HEADER + payload.len();
        let mut stream = Vec::with_capacity(total);
        (payload.len() as u32).encode_into(&mut stream);
        (self.records as u32).encode_into(&mut stream);
        crc32(payload).encode_into(&mut stream);
        stream.extend_from_slice(payload);
        'attempt: loop {
            if !self.fits(payload.len()) {
                return Err(GhostError::flash(format!(
                    "WAL region full ({} of {} pages used); flush the deltas to truncate it",
                    self.next_page,
                    self.region_pages()
                )));
            }
            for (i, chunk) in stream.chunks(per_page).enumerate() {
                let idx = self.next_page;
                let rel_block = idx / cfg.pages_per_block;
                let block = BlockId((self.first_block + rel_block) as u32);
                let skip_block = |wal: &mut Wal| {
                    wal.next_page = (rel_block + 1) * cfg.pages_per_block;
                };
                if self.nand.is_grown_bad(block) {
                    skip_block(self);
                    continue 'attempt;
                }
                if idx.is_multiple_of(cfg.pages_per_block) {
                    // Entering a block: erase it if a stale page lingers
                    // from before an interrupted truncation.
                    let first = (self.first_block + rel_block) * cfg.pages_per_block;
                    let dirty = (first..first + cfg.pages_per_block).any(|p| {
                        !matches!(
                            self.nand.page_state(PageAddr(p as u32)),
                            Ok(PageState::Erased)
                        )
                    });
                    if dirty {
                        match self.nand.erase(block) {
                            Ok(()) => {}
                            Err(_) if self.nand.is_grown_bad(block) => {
                                skip_block(self);
                                continue 'attempt;
                            }
                            Err(e) => return Err(e),
                        }
                    }
                }
                let mut page = Vec::with_capacity(PAGE_HEADER + chunk.len());
                MAGIC.encode_into(&mut page);
                self.epoch.encode_into(&mut page);
                (idx as u32).encode_into(&mut page);
                (chunk.len() as u32).encode_into(&mut page);
                page.push((i == 0) as u8);
                let crc = crc32(&[&page[4..], chunk].concat());
                crc.encode_into(&mut page);
                page.extend_from_slice(chunk);
                match self
                    .nand
                    .program(self.page_addr(idx), &self.nand.seal(&page))
                {
                    Ok(()) => self.next_page += 1,
                    Err(_) if self.nand.is_grown_bad(block) => {
                        skip_block(self);
                        continue 'attempt;
                    }
                    Err(e) => return Err(e),
                }
            }
            self.appended_bytes += payload.len() as u64;
            self.records += 1;
            return Ok(());
        }
    }

    /// Restart the log under `new_epoch` and erase every dirty block
    /// (called after the epoch's image is durable). The cursor state
    /// resets *before* the erases so a failure mid-erase leaves a
    /// coherent log: replay ignores the stale-epoch pages, and the next
    /// [`append`](Self::append) erases its block on entry anyway. A
    /// block that grows bad here is simply left behind — appends skip
    /// grown-bad blocks.
    pub fn truncate(&mut self, new_epoch: u64) -> Result<()> {
        self.epoch = new_epoch;
        self.next_page = 0;
        self.appended_bytes = 0;
        self.records = 0;
        let cfg = self.nand.config().clone();
        for b in self.first_block..self.first_block + self.blocks {
            let block = BlockId(b as u32);
            if self.nand.is_grown_bad(block) {
                continue;
            }
            let first = b * cfg.pages_per_block;
            let dirty = (first..first + cfg.pages_per_block).any(|p| {
                !matches!(
                    self.nand.page_state(PageAddr(p as u32)),
                    Ok(PageState::Erased)
                )
            });
            if dirty {
                match self.nand.erase(block) {
                    Ok(()) => {}
                    Err(_) if self.nand.is_grown_bad(block) => continue,
                    Err(e) => return Err(e),
                }
            }
        }
        Ok(())
    }

    /// Payload bytes appended since the last truncation.
    pub fn bytes(&self) -> u64 {
        self.appended_bytes
    }

    /// Records appended since the last truncation.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The epoch this log extends.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

/// Little-endian encode helper (avoids pulling `Wire` into scope for
/// plain integers).
trait EncodeInto {
    fn encode_into(&self, out: &mut Vec<u8>);
}

macro_rules! encode_into {
    ($($t:ty),*) => {$(
        impl EncodeInto for $t {
            fn encode_into(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
        }
    )*};
}

encode_into!(u32, u64);

/// Validate one page against its own position; returns `(epoch,
/// starts_record, payload)` for intact pages. `page` excludes the
/// codeword tail (already verified by the caller).
fn parse_page(page: &[u8], seq: u32) -> Option<(u64, bool, &[u8])> {
    if page.len() < PAGE_HEADER {
        return None;
    }
    let magic = u32::from_le_bytes(page[..4].try_into().expect("4B"));
    let page_epoch = u64::from_le_bytes(page[4..12].try_into().expect("8B"));
    let page_seq = u32::from_le_bytes(page[12..16].try_into().expect("4B"));
    let used = u32::from_le_bytes(page[16..20].try_into().expect("4B")) as usize;
    let start = page[20];
    let crc = u32::from_le_bytes(page[21..25].try_into().expect("4B"));
    if magic != MAGIC || page_seq != seq || start > 1 {
        return None;
    }
    if used > page.len() - PAGE_HEADER {
        return None;
    }
    let payload = &page[PAGE_HEADER..PAGE_HEADER + used];
    let mut covered = page[4..21].to_vec();
    covered.extend_from_slice(payload);
    if crc32(&covered) != crc {
        return None;
    }
    Some((page_epoch, start == 1, payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ghostdb_types::{FlashConfig, SimClock};

    fn nand() -> Nand {
        let cfg = FlashConfig {
            page_size: 64,
            pages_per_block: 4,
            num_blocks: 32,
            meta_slot_blocks: 2,
            wal_blocks: 4,
            ..FlashConfig::default_2007()
        };
        Nand::new(cfg, SimClock::new())
    }

    #[test]
    fn append_then_open_replays_in_order() {
        let n = nand();
        let mut wal = Wal::new(n.clone(), 7);
        wal.append(b"alpha").unwrap();
        wal.append(&[0xAB; 200]).unwrap(); // spans pages
        wal.append(b"omega").unwrap();
        assert_eq!(wal.records(), 3);

        let opened = Wal::open(n, 7).unwrap();
        assert_eq!(opened.records.len(), 3);
        assert_eq!(opened.records[0], b"alpha");
        assert_eq!(opened.records[1], [0xAB; 200]);
        assert_eq!(opened.records[2], b"omega");
        assert_eq!(opened.wal.bytes(), 5 + 200 + 5);
        assert!(!opened.truncated);
    }

    #[test]
    fn torn_tail_drops_only_the_interrupted_batch() {
        let n = nand();
        let mut wal = Wal::new(n.clone(), 1);
        wal.append(b"committed").unwrap();
        // Cut power on the second page of a two-page record.
        n.arm_power_cut(1, true);
        assert!(wal.append(&[7u8; 90]).is_err());
        n.disarm_power_cut();

        let opened = Wal::open(n.clone(), 1).unwrap();
        assert_eq!(opened.records.len(), 1);
        assert_eq!(opened.records[0], b"committed");
        // Appends after recovery land past the torn page and replay.
        let mut wal = opened.wal;
        wal.append(b"after-crash").unwrap();
        let reopened = Wal::open(n, 1).unwrap();
        assert_eq!(reopened.records.len(), 2);
        assert_eq!(reopened.records[1], b"after-crash");
    }

    #[test]
    fn truncate_filters_by_epoch_even_half_done() {
        let n = nand();
        let mut wal = Wal::new(n.clone(), 1);
        wal.append(b"old-epoch").unwrap();
        // Interrupt the truncation after it erased nothing.
        n.arm_power_cut(0, false);
        assert!(wal.truncate(2).is_err());
        n.disarm_power_cut();
        // The stale epoch-1 pages are ignored under epoch 2...
        let opened = Wal::open(n.clone(), 2).unwrap();
        assert!(opened.records.is_empty());
        // ...and new epoch-2 appends (which erase on demand) replay.
        let mut wal = opened.wal;
        wal.append(b"new-epoch").unwrap();
        let reopened = Wal::open(n, 2).unwrap();
        assert_eq!(reopened.records, vec![b"new-epoch".to_vec()]);
        assert_eq!(reopened.superseded_by, None, "older pages are stale");
    }

    #[test]
    fn a_later_epoch_page_reports_the_mounted_one_superseded() {
        let n = nand();
        let mut wal = Wal::new(n.clone(), 4);
        wal.append(b"after-seal-4").unwrap();
        // Opened under an older image's epoch: nothing replays, and the
        // log says which epoch superseded it.
        let opened = Wal::open(n, 3).unwrap();
        assert!(opened.records.is_empty());
        assert_eq!(opened.superseded_by, Some(4));
    }

    #[test]
    fn full_region_is_a_clean_error() {
        let n = nand();
        let mut wal = Wal::new(n, 3);
        // 16 pages of 31 B payload capacity each (64 B page minus the
        // 25 B header and the 8 B codeword tail).
        for _ in 0..16 {
            wal.append(b"x").unwrap();
        }
        let err = wal.append(b"overflow").unwrap_err();
        assert!(err.to_string().contains("WAL region full"), "{err}");
        // Truncation recovers the space.
        wal.truncate(4).unwrap();
        wal.append(b"fits again").unwrap();
    }

    #[test]
    fn single_bit_rot_in_a_wal_page_is_repaired_on_replay() {
        let n = nand();
        let mut wal = Wal::new(n.clone(), 9);
        wal.append(b"precious bytes").unwrap();
        // Flip one stored bit in the record's page.
        let first = crate::wal_first_block(n.config()) * n.config().pages_per_block;
        n.corrupt_page(PageAddr(first as u32), 61).unwrap();

        let opened = Wal::open(n, 9).unwrap();
        assert_eq!(opened.records, vec![b"precious bytes".to_vec()]);
        assert!(!opened.truncated);
    }

    #[test]
    fn rotted_record_mid_log_ends_replay_at_last_good_record() {
        let n = nand();
        let mut wal = Wal::new(n.clone(), 5);
        wal.append(b"first").unwrap();
        wal.append(b"second").unwrap();
        wal.append(b"third").unwrap();
        // Rot the *second* record's page past the single-bit budget.
        let first = crate::wal_first_block(n.config()) * n.config().pages_per_block;
        n.corrupt_page(PageAddr((first + 1) as u32), 200).unwrap();
        n.corrupt_page(PageAddr((first + 1) as u32), 311).unwrap();

        let opened = Wal::open(n, 5).unwrap();
        // "third" committed, but it depends on state that included
        // "second" — replay must stop at the last good record.
        assert_eq!(opened.records, vec![b"first".to_vec()]);
        assert!(opened.truncated);
    }

    #[test]
    fn grown_bad_wal_block_is_skipped_and_the_record_lands() {
        let n = nand();
        let mut wal = Wal::new(n.clone(), 11);
        wal.append(b"before").unwrap();
        // Every program attempt fails until disarmed: the current block
        // grows bad and the append must relocate past it.
        n.arm_program_failures(99, 1.0);
        let err = wal.append(b"doomed-while-armed").unwrap_err();
        assert!(
            err.to_string().contains("WAL region full"),
            "exhausting every block must surface the clean full error, got: {err}"
        );
        n.disarm_block_failures();

        // Now grow exactly ONE block bad (a single armed erase) and
        // check the append relocates past it while the bad block's
        // already-programmed pages stay readable.
        let n2 = nand();
        let mut wal2 = Wal::new(n2.clone(), 11);
        wal2.append(b"before").unwrap();
        let wb = crate::wal_first_block(n2.config()) as u32;
        n2.arm_erase_failures(42, 1.0);
        assert!(n2.erase(BlockId(wb)).is_err());
        n2.disarm_block_failures();
        assert!(n2.is_grown_bad(BlockId(wb)));

        wal2.append(b"after-the-bad-block").unwrap();
        let opened = Wal::open(n2, 11).unwrap();
        assert_eq!(
            opened.records,
            vec![b"before".to_vec(), b"after-the-bad-block".to_vec()]
        );
        assert!(!opened.truncated);
    }
}
