//! Page-granular search over sorted runs on flash.
//!
//! A **sorted run** is a segment of fixed-width records packed back to
//! back from byte 0, each beginning with a little-endian key, the keys
//! strictly ascending: a climbing index's directory (8-byte order keys),
//! a flash temp of row ids (4-byte keys). Every lookup of a key in such a
//! run goes through [`RunCursor::lower_bound`].
//!
//! A NAND read costs a whole page however few bytes are wanted, so the
//! search is planned in pages, not records:
//!
//! * each step reads one page, picked by **interpolating** the probe
//!   between the two keys known to bracket it. The run's first and last
//!   keys, held by the run's owner ([`SortedRun::first`],
//!   [`SortedRun::last`]), seed the bracket, so on close-to-uniform keys
//!   (order keys, dictionary ranks, row ids) the first read is usually
//!   the page the key is on;
//! * a page read narrows the bracket by every key that page holds — free,
//!   the page is already in the cursor's buffer — and once the probe falls
//!   between two of them the rest of the search runs in the buffer;
//! * whenever an interpolation step fails to halve the bracket, the next
//!   step bisects it, so skewed keys cost at most about `2·⌈log2 pages⌉`
//!   reads;
//! * the page the cursor already holds is consulted first, for nothing, so
//!   probes that arrive in key order often read no page at all.
//!
//! A record may straddle a page boundary (a 32-byte directory entry in a
//! 2040-byte page): its key is known from the page it starts on, and
//! [`RunCursor::record`] assembles its bytes from both pages, leaving the
//! later one buffered.

use ghostdb_ram::{RamScope, ScopedGuard};
use ghostdb_types::Result;

use crate::{Segment, Volume};

/// A sorted run of fixed-width records on flash and what its owner knows
/// about it without reading it.
#[derive(Debug, Clone, Copy)]
pub struct SortedRun<'a> {
    /// The volume the run lives on.
    pub volume: &'a Volume,
    /// The run's segment: exactly `count · width` bytes.
    pub segment: &'a Segment,
    /// Bytes per record.
    pub width: usize,
    /// Bytes of the little-endian key at the start of each record (1–8).
    pub key_bytes: usize,
    /// Records in the run.
    pub count: u64,
    /// Key of the first record (ignored when the run is empty).
    pub first: u64,
    /// Key of the last record (ignored when the run is empty).
    pub last: u64,
}

/// A one-page read cursor over a [`SortedRun`]: the page buffer is
/// charged to the device RAM scope for the cursor's life.
#[derive(Debug)]
pub struct RunCursor<'a> {
    run: SortedRun<'a>,
    buf: Vec<u8>,
    /// Run page held in `buf`.
    page: Option<u64>,
    /// A record that straddles pages, assembled from both (host copy of
    /// bytes that were in `buf`).
    straddle: Vec<u8>,
    _ram: ScopedGuard,
}

impl<'a> RunCursor<'a> {
    /// Open a cursor, charging one page to `scope`.
    pub fn new(scope: &RamScope, run: SortedRun<'a>) -> Result<RunCursor<'a>> {
        let page = run.volume.page_size();
        let ram = scope.alloc(page)?;
        Ok(RunCursor {
            run,
            buf: vec![0u8; page],
            page: None,
            straddle: Vec::new(),
            _ram: ram,
        })
    }

    /// Records in the run.
    pub fn len(&self) -> u64 {
        self.run.count
    }

    /// True when the run holds no record.
    pub fn is_empty(&self) -> bool {
        self.run.count == 0
    }

    fn page_size(&self) -> u64 {
        self.buf.len() as u64
    }

    /// Make run page `page` the buffered one (a NAND read unless it
    /// already is).
    fn load(&mut self, page: u64) -> Result<()> {
        if self.page != Some(page) {
            let start = page * self.page_size();
            let len = self.page_size().min(self.run.segment.len() - start) as usize;
            self.page = None;
            self.run
                .volume
                .read_at(self.run.segment, start, &mut self.buf[..len])?;
            self.page = Some(page);
        }
        Ok(())
    }

    /// The bytes of record `idx`. A record inside one page is a slice of
    /// the buffer (that page is read first unless buffered); a record
    /// across a page boundary is copied out of each page in turn, and the
    /// last of them stays buffered.
    pub fn record(&mut self, idx: u64) -> Result<&[u8]> {
        let w = self.run.width;
        let ps = self.page_size();
        let start = idx * w as u64;
        let page = start / ps;
        if (start + w as u64 - 1) / ps == page {
            self.load(page)?;
            let off = (start - page * ps) as usize;
            return Ok(&self.buf[off..off + w]);
        }
        self.straddle.resize(w, 0);
        let mut done = 0usize;
        while done < w {
            let pos = start + done as u64;
            self.load(pos / ps)?;
            let off = (pos % ps) as usize;
            let chunk = (ps as usize - off).min(w - done);
            self.straddle[done..done + chunk].copy_from_slice(&self.buf[off..off + chunk]);
            done += chunk;
        }
        Ok(&self.straddle)
    }

    /// Key of record `idx`, which must start on the buffered page with
    /// its key bytes inside it.
    fn buffered_key(&self, idx: u64) -> u64 {
        let page = self.page.expect("a page is buffered");
        let off = (idx * self.run.width as u64 - page * self.page_size()) as usize;
        le_key(&self.buf[off..], self.run.key_bytes)
    }

    /// The records in `lo..hi` whose key bytes lie on run page `page`, as
    /// an inclusive range; `None` when there are none.
    fn keys_on(&self, page: u64, lo: u64, hi: u64) -> Option<(u64, u64)> {
        let w = self.run.width as u64;
        let kb = self.run.key_bytes as u64;
        let start = page * self.page_size();
        let end = (start + self.page_size()).min(self.run.count * w);
        if end < start + kb {
            return None;
        }
        let a = start.div_ceil(w).max(lo);
        let b = ((end - kb) / w + 1).min(hi);
        (a < b).then_some((a, b - 1))
    }

    /// The first position whose key is `>= probe`, with that key (`None`
    /// past the end of the run).
    pub fn lower_bound(&mut self, probe: u64) -> Result<(u64, Option<u64>)> {
        let SortedRun {
            count, first, last, ..
        } = self.run;
        if count == 0 || probe > last {
            return Ok((count, None));
        }
        if probe <= first {
            return Ok((0, Some(first)));
        }
        if probe == last {
            return Ok((count - 1, Some(last)));
        }
        // The answer lies in lo..=hi, with klo = key(lo - 1) < probe <
        // khi = key(hi): first < probe < last puts it in 1..=count - 1.
        let (mut lo, mut hi, mut klo, mut khi) = (1, count - 1, first, last);
        let mut free = self.page;
        let mut bisect = false;
        while lo < hi {
            let size = hi - lo;
            // Keys known at positions a..=b after this step.
            let (a, b, ka, kb) = match free.take() {
                // The buffered page costs nothing; skip it if it holds no
                // key inside the bracket.
                Some(page) => match self.keys_on(page, lo, hi) {
                    Some((a, b)) => (a, b, self.buffered_key(a), self.buffered_key(b)),
                    None => continue,
                },
                None => {
                    let target = if bisect {
                        lo + size / 2
                    } else {
                        interpolate(lo, hi, klo, khi, probe)
                    };
                    let page = target * self.run.width as u64 / self.page_size();
                    match self.keys_on(page, lo, hi) {
                        Some((a, b)) => {
                            self.load(page)?;
                            (a, b, self.buffered_key(a), self.buffered_key(b))
                        }
                        None => {
                            // The target's key itself crosses a page
                            // boundary: read that one record.
                            let key_bytes = self.run.key_bytes;
                            let k = le_key(self.record(target)?, key_bytes);
                            (target, target, k, k)
                        }
                    }
                }
            };
            if probe < ka {
                hi = a;
                khi = ka;
            } else if probe == ka {
                return Ok((a, Some(ka)));
            } else if probe > kb {
                lo = b + 1;
                klo = kb;
            } else {
                // ka < probe <= kb, so a < b and the answer is in
                // a + 1..=b, all of it in the buffer.
                let (mut l, mut h) = (a + 1, b);
                while l < h {
                    let m = l + (h - l) / 2;
                    if self.buffered_key(m) < probe {
                        l = m + 1;
                    } else {
                        h = m;
                    }
                }
                return Ok((l, Some(self.buffered_key(l))));
            }
            bisect = !bisect && hi - lo > size / 2;
        }
        Ok((hi, Some(khi)))
    }
}

/// The little-endian key in the first `key_bytes` of `bytes`.
fn le_key(bytes: &[u8], key_bytes: usize) -> u64 {
    let mut k = [0u8; 8];
    k[..key_bytes].copy_from_slice(&bytes[..key_bytes]);
    u64::from_le_bytes(k)
}

/// Interpolated position of `probe` between `key(lo - 1) = klo` and
/// `key(hi) = khi`, clamped into `lo..hi`.
fn interpolate(lo: u64, hi: u64, klo: u64, khi: u64, probe: u64) -> u64 {
    let span = (hi - lo + 1) as u128;
    let guess = (lo - 1) as u128 + (probe - klo) as u128 * span / (khi - klo) as u128;
    (guess as u64).clamp(lo, hi - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Nand;
    use ghostdb_ram::RamBudget;
    use ghostdb_types::{FlashConfig, SimClock};

    /// A 2 KiB-page part (2040 usable bytes) with the page cache off, so
    /// every page fault is a NAND read.
    fn setup() -> (Volume, RamScope) {
        let cfg = FlashConfig {
            num_blocks: 64,
            ..FlashConfig::default_2007()
        };
        (
            Volume::new(Nand::new(cfg, SimClock::new())),
            RamScope::new(&RamBudget::new(64 * 1024)),
        )
    }

    /// Key sets the directories and temps meet, and the ones that defeat
    /// interpolation: strictly ascending, `n` keys below `max`.
    fn key_set(shape: u64, n: u64, seed: u64, max: u64) -> Vec<u64> {
        let mut rng = seed | 1;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut keys: Vec<u64> = match shape {
            // Uniform over a range ~100 keys wide per record.
            0 => (0..n).map(|_| next() % (n * 100)).collect(),
            // A handful of dense clusters far apart.
            1 => {
                let bases: Vec<u64> = (0..4).map(|_| next() % (max / 2)).collect();
                (0..n).map(|i| bases[(i % 4) as usize] + i).collect()
            }
            // Exponentially spaced: interpolation lands near the start.
            2 => {
                let scale = ((max / 4) as f64).ln() / n as f64;
                (0..n)
                    .map(|i| (i as f64 * scale).exp() as u64 + i)
                    .collect()
            }
            // Dense, plus one key at the far end of the key space.
            _ => (0..n - 1).map(|i| i * 3).chain([max - 1]).collect(),
        };
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    /// Write `keys` as a run of `width`-byte records: the key, then the
    /// record's position repeated as filler.
    fn write_run(vol: &Volume, scope: &RamScope, keys: &[u64], width: usize, kb: usize) -> Segment {
        let mut w = vol.writer(scope).unwrap();
        for (i, &k) in keys.iter().enumerate() {
            let mut rec = vec![i as u8; width];
            rec[..kb].copy_from_slice(&k.to_le_bytes()[..kb]);
            w.write(&rec).unwrap();
        }
        w.finish().unwrap()
    }

    fn run<'a>(vol: &'a Volume, seg: &'a Segment, keys: &[u64], width: usize) -> SortedRun<'a> {
        SortedRun {
            volume: vol,
            segment: seg,
            width,
            key_bytes: if width == 4 { 4 } else { 8 },
            count: keys.len() as u64,
            first: keys.first().copied().unwrap_or(0),
            last: keys.last().copied().unwrap_or(0),
        }
    }

    /// The entry-by-entry binary search the directory and the temps used
    /// before: one `read_at` per step.
    fn binary_lower_bound(r: &SortedRun<'_>, probe: u64) -> u64 {
        let (mut lo, mut hi) = (0u64, r.count);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let mut k = [0u8; 8];
            r.volume
                .read_at(r.segment, mid * r.width as u64, &mut k[..r.key_bytes])
                .unwrap();
            if u64::from_le_bytes(k) < probe {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    fn reads(vol: &Volume) -> u64 {
        vol.nand().stats().page_reads
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig { cases: 32, ..Default::default() })]

        /// Same answer as the binary search on every key shape and on
        /// 4-byte id records and 16/24/32/40-byte directory entries (1–4
        /// climb levels; 16 and 32 straddle 2040-byte pages), whether the
        /// cursor is fresh or already holds a page.
        #[test]
        fn matches_the_binary_search(
            shape in 0u64..4,
            n in 1u64..3000,
            width in proptest::sample::select(vec![4usize, 16, 24, 32, 40]),
            seed in proptest::any::<u64>(),
        ) {
            let (vol, scope) = setup();
            let kb = if width == 4 { 4 } else { 8 };
            let max = if kb == 4 { u32::MAX as u64 } else { u64::MAX };
            let keys = key_set(shape, n, seed, max);
            let seg = write_run(&vol, &scope, &keys, width, kb);
            let r = run(&vol, &seg, &keys, width);
            let mut warm = RunCursor::new(&scope, r).unwrap();
            let mut probes = vec![0, max];
            for i in 0..24u64 {
                let k = keys[((seed >> 8).wrapping_add(i * 7919) % keys.len() as u64) as usize];
                probes.extend([k, k.saturating_sub(1), k.saturating_add(1).min(max)]);
            }
            for probe in probes {
                let want = binary_lower_bound(&r, probe);
                let want_key = keys.get(want as usize).copied();
                let mut fresh = RunCursor::new(&scope, r).unwrap();
                proptest::prop_assert_eq!(fresh.lower_bound(probe).unwrap(), (want, want_key));
                proptest::prop_assert_eq!(warm.lower_bound(probe).unwrap(), (want, want_key));
                if want < keys.len() as u64 {
                    let rec = warm.record(want).unwrap().to_vec();
                    proptest::prop_assert_eq!(&rec[..kb], &want_key.unwrap().to_le_bytes()[..kb]);
                    proptest::prop_assert!(rec[kb..].iter().all(|&b| b == want as u8));
                }
            }
        }
    }

    /// On evenly spaced keys — a dictionary-rank directory — the first
    /// interpolated page is the one the key is on: at most 2 NAND reads
    /// find the key and fetch its whole record, straddling or not.
    #[test]
    fn dense_uniform_keys_read_the_page_the_key_is_on() {
        for width in [16usize, 24, 32, 40] {
            let (vol, scope) = setup();
            let keys: Vec<u64> = (0..20_000u64).map(|i| i * 7).collect();
            let seg = write_run(&vol, &scope, &keys, width, 8);
            let r = run(&vol, &seg, &keys, width);
            for (i, &k) in keys.iter().enumerate().step_by(37) {
                let before = reads(&vol);
                let mut cur = RunCursor::new(&scope, r).unwrap();
                assert_eq!(cur.lower_bound(k).unwrap(), (i as u64, Some(k)));
                cur.record(i as u64).unwrap();
                let n = reads(&vol) - before;
                assert!(n <= 2, "width {width}, key {k}: {n} reads");
            }
        }
    }

    /// Keys that defeat interpolation still cost no more than about twice
    /// a page-granular binary search: at most `2·⌈log2 pages⌉ + 1` reads.
    #[test]
    fn adversarial_keys_stay_within_twice_the_binary_search() {
        for shape in 1..4 {
            for width in [4usize, 16, 24, 32, 40] {
                let (vol, scope) = setup();
                let kb = if width == 4 { 4 } else { 8 };
                let max = if kb == 4 { u32::MAX as u64 } else { u64::MAX };
                let keys = key_set(shape, 20_000, 0x5eed, max);
                let seg = write_run(&vol, &scope, &keys, width, kb);
                let pages = seg.page_count() as u64;
                let bound = 2 * (u64::BITS - (pages - 1).leading_zeros()) as u64 + 1;
                let r = run(&vol, &seg, &keys, width);
                let mut worst = 0;
                for i in (0..keys.len()).step_by(211) {
                    for probe in [keys[i], keys[i] + 1] {
                        let before = reads(&vol);
                        let mut cur = RunCursor::new(&scope, r).unwrap();
                        let got = cur.lower_bound(probe).unwrap();
                        worst = worst.max(reads(&vol) - before);
                        assert_eq!(got.0, keys.partition_point(|&k| k < probe) as u64);
                    }
                }
                assert!(
                    worst <= bound,
                    "shape {shape}, width {width}: {worst} reads > {bound} ({pages} pages)"
                );
            }
        }
    }
}
