//! Out-of-band page codeword: CRC-32 detection plus single-bit
//! correction (SECDED-style parity).
//!
//! Every programmed page reserves its last 8 bytes for a
//! codeword over the data region (everything before the tail, with
//! unwritten bytes at the erased `0xFF` pattern):
//!
//! * bytes 0–3 — CRC-32 of the data region (little-endian);
//! * bytes 4–7 — check word: bit 31 is the overall parity of the data
//!   bits, bits 0–30 the **position syndrome** (XOR of the bit position
//!   of every set data bit).
//!
//! Flipping one data bit at position `q` changes the syndrome by
//! exactly `q` and flips the overall parity — which locates the flip.
//! The CRC arbitrates every decision: a correction is only accepted if
//! the repaired data matches the stored CRC, so a mislocated repair
//! (multi-bit rot) can never be served as clean data. Rot in the tail
//! itself is tolerated: if the data region matches either its CRC or
//! its check word, the data is served (the codeword, not the payload,
//! rotted).
//!
//! The budget is therefore **one flipped bit per page** (anywhere,
//! payload or tail) between programs. Anything past that is reported
//! uncorrectable — detected, never silently corrected.
//!
//! # The page format has one owner
//!
//! Payload, erased-pattern padding, codeword tail, and the simulated
//! cost of computing or checking it are spelled out once, in the
//! [`Nand`] methods at the bottom of this module
//! ([`payload_size`](Nand::payload_size), [`seal`](Nand::seal),
//! [`verify`](Nand::verify)). The volume and the durability layer's
//! metadata and WAL pages all go through them, so nobody else knows
//! where the tail sits or how long it is.

use crate::nand::Nand;

/// Codeword size appended to every page.
const TAIL_BYTES: usize = 8;

/// Outcome of verifying one page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Data matched its CRC as read.
    Clean,
    /// One bit error was located and repaired (or the codeword itself
    /// had rotted while the data was intact).
    Corrected,
    /// More errors than the single-bit budget; data must not be served.
    Uncorrectable,
}

/// CRC-32 (IEEE, reflected) slicing-by-16 tables, built at compile
/// time. Table 0 is the classic byte-at-a-time table; table `k`
/// advances a byte through `k` further zero bytes, so sixteen bytes
/// fold in one step whose table lookups are independent — the verify
/// pass runs several times faster than the serial form, which matters
/// because every ECC-protected page read pays one CRC pass.
const SLICES: usize = 16;
const CRC_TABLES: [[u32; 256]; SLICES] = {
    let mut tables = [[0u32; 256]; SLICES];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut t = 1;
    while t < SLICES {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
};

/// Per-byte-value (XOR of set-bit indices, popcount parity), built at
/// compile time so the syndrome costs one table lookup per byte.
const BIT_LUT: [(u8, u8); 256] = {
    let mut lut = [(0u8, 0u8); 256];
    let mut v = 0;
    while v < 256 {
        let mut xor = 0u8;
        let mut par = 0u8;
        let mut bit = 0;
        while bit < 8 {
            if v & (1 << bit) != 0 {
                xor ^= bit as u8;
                par ^= 1;
            }
            bit += 1;
        }
        lut[v] = (xor, par);
        v += 1;
    }
    lut
};

/// CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(SLICES);
    for c in chunks.by_ref() {
        let mut folded = 0u32;
        for (w, word) in c.chunks_exact(4).enumerate() {
            let mut v = u32::from_le_bytes(word.try_into().expect("4B"));
            if w == 0 {
                v ^= crc;
            }
            let base = SLICES - 1 - w * 4;
            folded ^= CRC_TABLES[base][(v & 0xFF) as usize]
                ^ CRC_TABLES[base - 1][((v >> 8) & 0xFF) as usize]
                ^ CRC_TABLES[base - 2][((v >> 16) & 0xFF) as usize]
                ^ CRC_TABLES[base - 3][(v >> 24) as usize];
        }
        crc = folded;
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// (position syndrome, overall parity) of `data`. Bit positions are
/// `byte_index * 8 + bit_index`; XORing the positions of all set bits
/// means a single flip at `q` perturbs the syndrome by exactly `q`.
///
/// Computed 64 bits at a time: within a word, bit `k` of the local
/// syndrome is the parity of the set bits whose index has bit `k` set
/// (one masked popcount per index bit), and the word's base position —
/// a multiple of 64, so disjoint from the local bits — folds in once
/// per odd-popcount word. `seal_page` runs this on every programmed
/// page, so it sits on the write path's critical loop.
fn codeword(data: &[u8]) -> (u32, u32) {
    // MASKS[k]: bits of a u64 whose index has bit k set.
    const MASKS: [u64; 6] = [
        0xAAAA_AAAA_AAAA_AAAA,
        0xCCCC_CCCC_CCCC_CCCC,
        0xF0F0_F0F0_F0F0_F0F0,
        0xFF00_FF00_FF00_FF00,
        0xFFFF_0000_FFFF_0000,
        0xFFFF_FFFF_0000_0000,
    ];
    let mut syn = 0u32;
    let mut par = 0u32;
    let mut base = 0u32;
    let mut chunks = data.chunks_exact(8);
    for c in chunks.by_ref() {
        let w = u64::from_le_bytes(c.try_into().expect("8B"));
        let mut local = 0u32;
        for (k, m) in MASKS.iter().enumerate() {
            local |= ((w & m).count_ones() & 1) << k;
        }
        let p = w.count_ones() & 1;
        syn ^= local ^ (base & 0u32.wrapping_sub(p));
        par ^= p;
        base += 64;
    }
    for &b in chunks.remainder() {
        let (xor, p) = BIT_LUT[b as usize];
        if p != 0 {
            syn ^= base;
            par ^= 1;
        }
        syn ^= xor as u32;
        base += 8;
    }
    (syn & 0x7FFF_FFFF, par)
}

/// Compute and store the codeword for `buf`'s data region into its
/// tail. `buf` is a full raw page; the caller has already padded the
/// unwritten data bytes with the erased `0xFF` pattern.
fn seal_page(buf: &mut [u8]) {
    let n = buf.len() - TAIL_BYTES;
    let crc = crc32(&buf[..n]);
    let (syn, par) = codeword(&buf[..n]);
    let word = (par << 31) | syn;
    buf[n..n + 4].copy_from_slice(&crc.to_le_bytes());
    buf[n + 4..n + 8].copy_from_slice(&word.to_le_bytes());
}

/// Verify `buf`'s data region against its tail, repairing a single bit
/// flip in place when one is located.
fn verify_page(buf: &mut [u8]) -> Verdict {
    let n = buf.len() - TAIL_BYTES;
    let stored_crc = u32::from_le_bytes(buf[n..n + 4].try_into().expect("4B"));
    if crc32(&buf[..n]) == stored_crc {
        return Verdict::Clean;
    }
    let word = u32::from_le_bytes(buf[n + 4..n + 8].try_into().expect("4B"));
    let (stored_syn, stored_par) = (word & 0x7FFF_FFFF, word >> 31);
    let (syn, par) = codeword(&buf[..n]);
    if par != stored_par {
        // Odd number of flips — locate and repair, CRC arbitrates.
        let q = (syn ^ stored_syn) as usize;
        if q < n * 8 {
            buf[q >> 3] ^= 1 << (q & 7);
            if crc32(&buf[..n]) == stored_crc {
                return Verdict::Corrected;
            }
            buf[q >> 3] ^= 1 << (q & 7);
        }
        return Verdict::Uncorrectable;
    }
    if syn == stored_syn {
        // Data is consistent with its check word; the stored CRC itself
        // rotted. Serve the data.
        return Verdict::Corrected;
    }
    Verdict::Uncorrectable
}

impl Nand {
    /// **Usable** bytes per page: the raw page minus the codeword tail.
    pub fn payload_size(&self) -> usize {
        self.config().page_size - TAIL_BYTES
    }

    /// Build the raw page image for `payload` (at most
    /// [`payload_size`](Self::payload_size) bytes): the payload,
    /// erased-pattern padding, and the codeword tail. Charges the
    /// encode cost to the simulated clock.
    pub fn seal(&self, payload: &[u8]) -> Vec<u8> {
        debug_assert!(payload.len() <= self.payload_size());
        let mut raw = Vec::with_capacity(self.config().page_size);
        raw.extend_from_slice(payload);
        raw.resize(self.payload_size(), 0xFF);
        raw.resize(self.config().page_size, 0);
        self.reseal(&mut raw);
        raw
    }

    /// Regenerate the codeword of a raw page about to be programmed
    /// somewhere else, so a rotted-but-tolerated tail is not propagated
    /// to the new copy. Charges the encode cost.
    pub(crate) fn reseal(&self, raw: &mut [u8]) {
        seal_page(raw);
        self.clock().advance(self.config().ecc_cost_ns(raw.len()));
    }

    /// Check a raw page as read against its codeword, repairing a
    /// single flipped bit in place; on any verdict but
    /// [`Verdict::Uncorrectable`] the first
    /// [`payload_size`](Self::payload_size) bytes are good to serve.
    /// Charges the check cost.
    pub fn verify(&self, raw: &mut [u8]) -> Verdict {
        self.clock().advance(self.config().ecc_cost_ns(raw.len()));
        verify_page(raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(fill: impl Fn(usize) -> u8) -> Vec<u8> {
        let mut buf: Vec<u8> = (0..64 - TAIL_BYTES).map(fill).collect();
        buf.resize(64, 0);
        seal_page(&mut buf);
        buf
    }

    #[test]
    fn sliced_crc_matches_the_serial_form() {
        // The check vector every CRC-32 (IEEE, reflected) agrees on.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        // Every length through several 8-byte folds, against the
        // byte-at-a-time recurrence.
        for len in 0..64 {
            let data: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let mut serial = 0xFFFF_FFFFu32;
            for &b in &data {
                serial = (serial >> 8) ^ CRC_TABLES[0][((serial ^ b as u32) & 0xFF) as usize];
            }
            assert_eq!(crc32(&data), !serial, "len {len}");
        }
    }

    #[test]
    fn folded_codeword_matches_the_per_byte_form() {
        for len in 0..40 {
            let data: Vec<u8> = (0..len).map(|i| (i * 73 + 29) as u8).collect();
            let (mut syn, mut par) = (0u32, 0u32);
            for (i, &b) in data.iter().enumerate() {
                for bit in 0..8 {
                    if b & (1 << bit) != 0 {
                        syn ^= (i as u32) * 8 + bit;
                        par ^= 1;
                    }
                }
            }
            assert_eq!(codeword(&data), (syn & 0x7FFF_FFFF, par), "len {len}");
        }
    }

    #[test]
    fn clean_page_verifies_clean() {
        let mut buf = page(|i| (i * 7) as u8);
        assert_eq!(verify_page(&mut buf), Verdict::Clean);
    }

    #[test]
    fn every_single_data_bit_flip_is_corrected() {
        let reference = page(|i| (i * 13 + 5) as u8);
        let n = reference.len() - TAIL_BYTES;
        for bit in 0..n * 8 {
            let mut buf = reference.clone();
            buf[bit >> 3] ^= 1 << (bit & 7);
            assert_eq!(verify_page(&mut buf), Verdict::Corrected, "bit {bit}");
            assert_eq!(buf, reference, "bit {bit} not repaired in place");
        }
    }

    #[test]
    fn every_single_tail_bit_flip_is_tolerated() {
        let reference = page(|i| (i * 31 + 2) as u8);
        let n = reference.len() - TAIL_BYTES;
        for bit in n * 8..reference.len() * 8 {
            let mut buf = reference.clone();
            buf[bit >> 3] ^= 1 << (bit & 7);
            let verdict = verify_page(&mut buf);
            assert_ne!(verdict, Verdict::Uncorrectable, "tail bit {bit}");
            assert_eq!(&buf[..n], &reference[..n], "data changed, tail bit {bit}");
        }
    }

    #[test]
    fn double_flips_are_detected_not_miscorrected() {
        let reference = page(|i| (i % 251) as u8);
        let n = reference.len() - TAIL_BYTES;
        for (a, b) in [(0, 1), (3, 97), (10, 200), (5, n * 8 - 1)] {
            let mut buf = reference.clone();
            buf[a >> 3] ^= 1 << (a & 7);
            buf[b >> 3] ^= 1 << (b & 7);
            assert_eq!(
                verify_page(&mut buf),
                Verdict::Uncorrectable,
                "bits {a},{b}"
            );
        }
    }

    #[test]
    fn flip_at_position_zero_is_located() {
        // Position 0 perturbs the syndrome by 0 — the parity bit alone
        // must still drive the repair.
        let reference = page(|i| (i + 1) as u8);
        let mut buf = reference.clone();
        buf[0] ^= 1;
        assert_eq!(verify_page(&mut buf), Verdict::Corrected);
        assert_eq!(buf, reference);
    }
}
