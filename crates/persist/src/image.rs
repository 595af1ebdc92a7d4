//! The sealed device image: superblock header + Wire-encoded metadata
//! body, ping-ponged between the two reserved slots.
//!
//! Reliability: every metadata page carries the same out-of-band
//! codeword the volume uses ([`Nand::seal`] / [`Nand::verify`]), so a
//! single flipped bit anywhere in a slot is repaired on read; anything worse
//! makes the slot parse as invalid and the mount falls back to the
//! older epoch. Slot blocks that grow bad are dropped from the slot —
//! the header's block map records which blocks actually hold the image,
//! so a dying metadata block relocates the seal instead of bricking the
//! key.

use ghostdb_catalog::{Schema, SchemaStats};
use ghostdb_flash::{ecc::Verdict, BlockId, Nand, PageAddr, PageState};
use ghostdb_index::IndexSetManifest;
use ghostdb_storage::{HiddenManifest, VisibleStore};
use ghostdb_types::{decode_all, GhostError, LiveSet, Result, Wire};

use crate::crc::crc32;

/// Superblock magic ("GHSB").
const MAGIC: u32 = 0x4748_5342;

/// On-flash image format version. Version 2 added the per-table
/// tombstone sets (and, in the same release, the WAL's record-kind
/// tag); version 3 added per-page ECC codewords, the header's
/// bad-block-aware slot map, and the persisted volume bad-block table.
/// Older images are rejected cleanly rather than misdecoded.
pub const IMAGE_VERSION: u32 = 3;

/// Fixed size of the superblock header at the head of a slot: magic +
/// version (4+4), epoch (8), body length (8), body CRC (4), five
/// geometry echoes (20), slot block map (4), header CRC (4).
const HEADER_BYTES: usize = 56;

/// Everything a mount needs, beyond the NAND itself. The tree schema is
/// *not* stored — `TreeSchema::analyze` re-derives it from the schema,
/// so the two can never disagree.
#[derive(Debug, Clone)]
pub struct DeviceImage {
    /// The bound schema.
    pub schema: Schema,
    /// Catalog statistics (histograms included).
    pub stats: SchemaStats,
    /// Hidden-column segment manifests.
    pub hidden: HiddenManifest,
    /// Climbing-index directories and SKT layouts.
    pub indexes: IndexSetManifest,
    /// Snapshot of the PC's visible store (public data; co-located on
    /// the key so the whole system remounts from the NAND alone).
    pub visible: VisibleStore,
    /// Per-table tombstone sets over the sealed segments' row spaces.
    /// A seal flushes first — and a flush compacts — so these are
    /// all-live in practice; the format carries them so the image is
    /// self-describing about liveness rather than assuming it.
    pub tombstones: Vec<LiveSet>,
    /// The volume's logical→physical translation table at seal time.
    pub l2p: Vec<u32>,
    /// Grown-bad blocks at seal time (the whole part, reserved region
    /// included) — the mount retires them before the first write.
    pub bad_blocks: Vec<u32>,
}

impl Wire for DeviceImage {
    fn encode(&self, out: &mut Vec<u8>) {
        self.schema.encode(out);
        self.stats.encode(out);
        self.hidden.encode(out);
        self.indexes.encode(out);
        self.visible.encode(out);
        self.tombstones.encode(out);
        self.l2p.encode(out);
        self.bad_blocks.encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self> {
        Ok(DeviceImage {
            schema: Schema::decode(buf)?,
            stats: SchemaStats::decode(buf)?,
            hidden: HiddenManifest::decode(buf)?,
            indexes: IndexSetManifest::decode(buf)?,
            visible: VisibleStore::decode(buf)?,
            tombstones: Vec::<LiveSet>::decode(buf)?,
            l2p: Vec::<u32>::decode(buf)?,
            bad_blocks: Vec::<u32>::decode(buf)?,
        })
    }
}

impl DeviceImage {
    /// Number of metadata segments the image references (hidden-column
    /// segments plus index segments) — reported by `device_report`.
    pub fn metadata_segment_count(&self) -> usize {
        let hidden: usize = self
            .hidden
            .tables
            .iter()
            .flat_map(|t| t.columns.iter())
            .filter_map(|c| c.as_ref())
            .map(|c| match c {
                ghostdb_storage::ColumnManifest::Fixed { .. } => 1,
                ghostdb_storage::ColumnManifest::Dict { .. } => 3,
            })
            .sum();
        hidden + self.indexes.segment_count()
    }
}

/// Read a full page through the codeword check: single-bit rot is
/// repaired, worse returns `Ok(None)` (the caller treats the page as
/// invalid and falls back to the older slot).
fn read_meta_page(nand: &Nand, addr: PageAddr) -> Result<Option<Vec<u8>>> {
    let mut raw = vec![0u8; nand.config().page_size];
    nand.read_into(addr, 0, &mut raw)?;
    if nand.verify(&mut raw) == Verdict::Uncorrectable {
        return Ok(None);
    }
    raw.truncate(nand.payload_size());
    Ok(Some(raw))
}

fn header_bytes(nand: &Nand, epoch: u64, body: &[u8], block_map: u32) -> Vec<u8> {
    let cfg = nand.config();
    let mut h = Vec::with_capacity(HEADER_BYTES);
    MAGIC.encode(&mut h);
    IMAGE_VERSION.encode(&mut h);
    epoch.encode(&mut h);
    (body.len() as u64).encode(&mut h);
    crc32(body).encode(&mut h);
    (cfg.page_size as u32).encode(&mut h);
    (cfg.pages_per_block as u32).encode(&mut h);
    (cfg.num_blocks as u32).encode(&mut h);
    (cfg.meta_slot_blocks as u32).encode(&mut h);
    (cfg.wal_blocks as u32).encode(&mut h);
    block_map.encode(&mut h);
    crc32(&h).encode(&mut h);
    debug_assert_eq!(h.len(), HEADER_BYTES);
    h
}

/// The slot-relative pages holding an image whose header maps
/// `block_map`: the used blocks' pages in ascending order (the header
/// occupies the first, the body the rest).
fn mapped_pages(
    cfg: &ghostdb_types::FlashConfig,
    first_block: usize,
    block_map: u32,
) -> Vec<PageAddr> {
    let ppb = cfg.pages_per_block;
    (0..cfg.meta_slot_blocks)
        .filter(|rel| block_map & (1 << rel) != 0)
        .flat_map(|rel| {
            let first = (first_block + rel) * ppb;
            (first..first + ppb).map(|p| PageAddr(p as u32))
        })
        .collect()
}

/// Write `image` as epoch `epoch` into slot `epoch % 2`: erase the
/// slot's usable blocks, program the superblock header page, then the
/// body pages. The other slot — holding the previous epoch — is
/// untouched, so a power cut anywhere in here leaves a mountable part.
///
/// Blocks that fail to erase or program grow bad and are dropped from
/// the slot: the attempt restarts on the remaining good blocks (the
/// header's block map records the survivors), failing cleanly only when
/// the slot cannot hold the image any more. Returns the image size in
/// bytes (header + body).
pub fn write_image(nand: &Nand, epoch: u64, image: &DeviceImage) -> Result<u64> {
    let cfg = nand.config().clone();
    let slots = cfg.meta_slot_blocks;
    if slots == 0 {
        return Err(GhostError::flash(
            "durability disabled: FlashConfig::meta_slot_blocks is 0",
        ));
    }
    if slots > 32 {
        return Err(GhostError::flash(
            "FlashConfig::meta_slot_blocks exceeds the 32-block slot map",
        ));
    }
    let per_page = nand.payload_size();
    if HEADER_BYTES > per_page {
        return Err(GhostError::flash(
            "metadata page payload too small for the superblock header",
        ));
    }
    let body = image.to_bytes();
    let body_pages = body.len().div_ceil(per_page);
    let needed = body_pages + 1;
    let first_block = (epoch % 2) as usize * slots;
    // Each retry is caused by a block growing bad mid-program, and the
    // slot only has `slots` blocks to lose — the loop is bounded.
    for _attempt in 0..=slots {
        // Erase the slot's usable blocks; a failed erase grows the
        // block bad and removes it from the usable set.
        let mut good: Vec<usize> = Vec::new();
        for b in first_block..first_block + slots {
            let block = BlockId(b as u32);
            if nand.is_grown_bad(block) {
                continue;
            }
            match nand.erase(block) {
                Ok(()) => good.push(b),
                Err(_) if nand.is_grown_bad(block) => continue,
                Err(e) => return Err(e),
            }
        }
        if needed > good.len() * cfg.pages_per_block {
            return Err(GhostError::flash(format!(
                "device image ({} B, {needed} pages with header) exceeds the usable \
                 metadata slot ({} good blocks of {slots}); raise \
                 FlashConfig::meta_slot_blocks",
                body.len(),
                good.len()
            )));
        }
        let used = needed.div_ceil(cfg.pages_per_block);
        let mut block_map = 0u32;
        for &b in &good[..used] {
            block_map |= 1 << (b - first_block);
        }
        let pages = mapped_pages(&cfg, first_block, block_map);
        let header = header_bytes(nand, epoch, &body, block_map);
        let mut grew_bad = false;
        for (i, chunk) in std::iter::once(&header[..])
            .chain(body.chunks(per_page))
            .enumerate()
        {
            match nand.program(pages[i], &nand.seal(chunk)) {
                Ok(()) => {}
                Err(_) if nand.is_grown_bad(nand.block_of(pages[i])) => {
                    grew_bad = true;
                    break;
                }
                Err(e) => return Err(e),
            }
        }
        if !grew_bad {
            return Ok((HEADER_BYTES + body.len()) as u64);
        }
    }
    Err(GhostError::flash(
        "metadata slot worn out: blocks kept growing bad during the seal",
    ))
}

/// Parse one slot: `Ok(Some((epoch, body)))` when a header and its body
/// check out against this part's geometry.
///
/// Every block's first page is probed for a header — a block that grew
/// bad during a past seal can strand a stale-but-intact header next to
/// the live one — and the highest-epoch candidate whose body validates
/// wins. Single-bit rot anywhere is repaired by the page codewords;
/// anything worse invalidates that candidate only.
fn read_slot(nand: &Nand, slot: usize) -> Result<Option<(u64, Vec<u8>)>> {
    let cfg = nand.config().clone();
    let slots = cfg.meta_slot_blocks;
    let per_page = nand.payload_size();
    let first_block = slot * slots;
    // (epoch, body_len, body_crc, block_map)
    let mut candidates: Vec<(u64, usize, u32, u32)> = Vec::new();
    for b in first_block..first_block + slots {
        let haddr = PageAddr((b * cfg.pages_per_block) as u32);
        if nand.page_state(haddr)? != PageState::Programmed {
            continue;
        }
        let Some(page) = read_meta_page(nand, haddr)? else {
            continue;
        };
        if page.len() < HEADER_BYTES {
            continue;
        }
        let h = &page[..HEADER_BYTES];
        let stored_crc = u32::from_le_bytes(h[HEADER_BYTES - 4..].try_into().expect("4B"));
        if crc32(&h[..HEADER_BYTES - 4]) != stored_crc {
            continue;
        }
        let mut cur = h;
        let magic = u32::decode(&mut cur)?;
        let version = u32::decode(&mut cur)?;
        let epoch = u64::decode(&mut cur)?;
        let body_len = u64::decode(&mut cur)? as usize;
        let body_crc = u32::decode(&mut cur)?;
        let geo = [
            u32::decode(&mut cur)? as usize,
            u32::decode(&mut cur)? as usize,
            u32::decode(&mut cur)? as usize,
            u32::decode(&mut cur)? as usize,
            u32::decode(&mut cur)? as usize,
        ];
        let block_map = u32::decode(&mut cur)?;
        if magic != MAGIC || version != IMAGE_VERSION {
            continue;
        }
        if geo
            != [
                cfg.page_size,
                cfg.pages_per_block,
                cfg.num_blocks,
                cfg.meta_slot_blocks,
                cfg.wal_blocks,
            ]
        {
            return Err(GhostError::corrupt(
                "sealed image geometry does not match this part's configuration",
            ));
        }
        // The header must sit in the first mapped block, and the map
        // must stay inside the slot.
        let rel = (b - first_block) as u32;
        let beyond_slot = block_map.checked_shr(slots as u32).unwrap_or(0);
        if block_map == 0 || block_map.trailing_zeros() != rel || beyond_slot != 0 {
            continue;
        }
        let capacity = (block_map.count_ones() as usize * cfg.pages_per_block - 1) * per_page;
        if body_len > capacity {
            continue;
        }
        candidates.push((epoch, body_len, body_crc, block_map));
    }
    candidates.sort_by_key(|&(e, ..)| e);
    while let Some((epoch, body_len, body_crc, block_map)) = candidates.pop() {
        let pages = mapped_pages(&cfg, first_block, block_map);
        let mut body = vec![0u8; body_len];
        let mut off = 0usize;
        let mut seq = 1usize; // pages[0] is the header
        let mut valid = true;
        while off < body_len {
            let take = per_page.min(body_len - off);
            match read_meta_page(nand, pages[seq])? {
                Some(page) => body[off..off + take].copy_from_slice(&page[..take]),
                None => {
                    valid = false;
                    break;
                }
            }
            off += take;
            seq += 1;
        }
        if valid && crc32(&body) == body_crc {
            return Ok(Some((epoch, body)));
        }
    }
    Ok(None)
}

/// A successfully read sealed image.
#[derive(Debug)]
pub struct LoadedImage {
    /// The image's epoch (monotonic per seal).
    pub epoch: u64,
    /// On-flash size of the image (header + body), bytes.
    pub bytes: u64,
    /// The decoded metadata.
    pub image: DeviceImage,
}

/// Read the newest valid sealed image: both slots are parsed, CRCs
/// checked, and the higher epoch wins. `Ok(None)` when the part carries
/// no valid image (blank key, or both slots torn).
pub fn read_latest_image(nand: &Nand) -> Result<Option<LoadedImage>> {
    let mut candidates: Vec<(u64, Vec<u8>)> = Vec::new();
    for slot in 0..2 {
        if let Some(c) = read_slot(nand, slot)? {
            candidates.push(c);
        }
    }
    candidates.sort_by_key(|(e, _)| *e);
    while let Some((epoch, body)) = candidates.pop() {
        match decode_all::<DeviceImage>(&body) {
            Ok(image) => {
                return Ok(Some(LoadedImage {
                    epoch,
                    bytes: (HEADER_BYTES + body.len()) as u64,
                    image,
                }))
            }
            // A CRC-valid body that fails structural decode means a
            // format bug, not bitrot — but the older slot may still
            // mount, so fall through rather than hard-failing.
            Err(_) => continue,
        }
    }
    Ok(None)
}
