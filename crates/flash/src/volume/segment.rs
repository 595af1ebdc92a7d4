//! Segments: the handle, its durable manifest, and the append-only
//! writer and buffered reader that move bytes through one device-RAM
//! page each.

use std::sync::Arc;

use ghostdb_ram::{RamScope, ScopedGuard};
use ghostdb_types::{GhostError, Result, Wire};

use super::{Lpn, Volume};

/// An immutable sequence of bytes stored on flash.
///
/// Cloning is cheap (the page list is shared); segments are freed
/// explicitly through [`Volume::free`]. The page list holds *logical*
/// page numbers, so the bytes stay readable even after the garbage
/// collector migrates them to different physical blocks.
#[derive(Debug, Clone)]
pub struct Segment {
    pub(super) pages: Arc<Vec<Lpn>>,
    pub(super) len_bytes: u64,
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

impl Volume {
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
}

#[cfg(test)]
mod tests {
    use super::super::tests::setup;
    use ghostdb_ram::{RamBudget, RamScope};

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
    fn empty_segment() {
        let (vol, scope) = setup(4);
        let w = vol.writer(&scope).unwrap();
        let seg = w.finish().unwrap();
        assert!(seg.is_empty());
        assert_eq!(seg.page_count(), 0);
        let mut r = vol.reader(&scope, &seg).unwrap();
        assert_eq!(r.read(&mut [0u8; 8]).unwrap(), 0);
    }
}
