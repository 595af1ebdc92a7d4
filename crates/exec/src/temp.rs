//! Flash-temp tables of fetched visible columns.
//!
//! Before streaming candidate rows, the executor fetches each visible
//! column it needs **once** from the PC — requesting specific row ids
//! would reveal which rows qualified, so the whole (predicate-filtered)
//! column crosses the bus and lands in a fixed-width flash segment sorted
//! by row id. Per candidate row the projection then costs one
//! page-granular search of [`ghostdb_flash::search`] — usually the one
//! page the id is on, often none when probes arrive in id order — and zero
//! device RAM beyond one page buffer.
//!
//! The same structure doubles as the **exact verifier** behind Bloom
//! post-filters: a Bloom positive is confirmed by probing the temp (a
//! miss drops the row), so Bloom false positives never reach results.
//!
//! Temps are the volume's churn workload: built per query, freed when
//! the query ends, and frequently sharing erase blocks with long-lived
//! dataset segments. Their probers and scans address pages through the
//! volume's logical→physical translation table, so the flash garbage
//! collector can compact a temp's blocks *while a prober is open* —
//! nothing here may cache physical page locations.

use ghostdb_flash::search::{RunCursor, SortedRun};
use ghostdb_flash::{Segment, SegmentReader, Volume};
use ghostdb_ram::RamScope;
use ghostdb_types::{DataType, GhostError, IdBlock, IdStream, Result, RowId, Value, BLOCK_CAP};

use crate::pc::PairStream;

/// Fixed-width encoded `(row id, value)` records on flash, sorted by id.
#[derive(Debug)]
pub struct VisibleTemp {
    volume: Volume,
    segment: Segment,
    ty: DataType,
    /// Bytes per record: 4 (id) + value width.
    width: usize,
    count: u64,
    /// First and last stored ids (they seed the probe search).
    id_span: (u64, u64),
}

fn value_width(ty: DataType) -> usize {
    match ty {
        DataType::Integer | DataType::Date => 8,
        // 2-byte length prefix + capacity bytes.
        DataType::Char(n) => 2 + n as usize,
    }
}

fn encode_value(ty: DataType, v: &Value, out: &mut [u8]) -> Result<()> {
    match (ty, v) {
        (DataType::Integer, Value::Int(_)) | (DataType::Date, Value::Date(_)) => {
            let key = v.order_key().expect("numeric");
            out[..8].copy_from_slice(&key.to_le_bytes());
            Ok(())
        }
        (DataType::Char(cap), Value::Text(s)) => {
            if s.len() > cap as usize {
                return Err(GhostError::value("string exceeds column capacity"));
            }
            out[..2].copy_from_slice(&(s.len() as u16).to_le_bytes());
            out[2..2 + s.len()].copy_from_slice(s.as_bytes());
            out[2 + s.len()..].fill(0);
            Ok(())
        }
        _ => Err(GhostError::value("value/type mismatch in temp encode")),
    }
}

fn decode_value(ty: DataType, buf: &[u8]) -> Result<Value> {
    match ty {
        DataType::Integer | DataType::Date => {
            let key = u64::from_le_bytes(buf[..8].try_into().expect("8B"));
            Value::from_order_key(ty, key)
        }
        DataType::Char(_) => {
            let len = u16::from_le_bytes(buf[..2].try_into().expect("2B")) as usize;
            if 2 + len > buf.len() {
                return Err(GhostError::corrupt("temp string length out of range"));
            }
            String::from_utf8(buf[2..2 + len].to_vec())
                .map(Value::Text)
                .map_err(|_| GhostError::corrupt("non-utf8 temp string"))
        }
    }
}

impl VisibleTemp {
    /// Drain `pairs` (ascending by id) into a temp segment. The optional
    /// `on_id` callback sees every id as it lands — the Bloom build hooks
    /// in here so the single bus transfer feeds both structures.
    pub fn build(
        volume: &Volume,
        scope: &RamScope,
        ty: DataType,
        pairs: &mut dyn PairStream,
        mut on_id: Option<&mut dyn FnMut(RowId)>,
    ) -> Result<VisibleTemp> {
        let width = 4 + value_width(ty);
        let mut w = volume.writer(scope)?;
        let mut rec = vec![0u8; width];
        let mut count = 0u64;
        let mut span = IdSpan::default();
        while let Some((id, v)) = pairs.next_pair()? {
            if !span.push(id) {
                return Err(GhostError::bus(
                    "PC sent column pairs out of order".to_string(),
                ));
            }
            rec[..4].copy_from_slice(&id.0.to_le_bytes());
            encode_value(ty, &v, &mut rec[4..])?;
            w.write(&rec)?;
            if let Some(f) = on_id.as_deref_mut() {
                f(id);
            }
            count += 1;
        }
        Ok(VisibleTemp {
            volume: volume.clone(),
            segment: w.finish()?,
            ty,
            width,
            count,
            id_span: span.bounds(),
        })
    }

    /// Records stored.
    pub fn len(&self) -> u64 {
        self.count
    }

    /// True if no records are stored.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Flash bytes held.
    pub fn flash_bytes(&self) -> u64 {
        self.segment.len()
    }

    /// Open a sequential scan over the stored ids only (batched
    /// verification; value bytes are skipped inside the page buffer).
    pub fn id_scan(&self, scope: &RamScope) -> Result<TempIdScan> {
        let reader = self.volume.reader(scope, &self.segment)?;
        Ok(TempIdScan {
            reader,
            record_width: self.width,
            remaining: self.count,
        })
    }

    /// Open a probing cursor (one page of RAM).
    pub fn prober(&self, scope: &RamScope) -> Result<TempProber<'_>> {
        Ok(TempProber {
            cur: id_cursor(
                scope,
                &self.volume,
                &self.segment,
                self.width,
                self.count,
                self.id_span,
            )?,
            ty: self.ty,
            probes: 0,
        })
    }

    /// Release the flash space.
    pub fn free(self) -> Result<()> {
        self.volume.free(self.segment)
    }
}

/// An id-only flash temp: 4-byte records, ascending.
///
/// This is the exact-verification side of a Bloom post-filter when the
/// predicate column itself is not projected: the device asks the PC only
/// for the matching *ids* (`EvalPredicate`), never the values — a 3–6×
/// smaller transfer than fetching `(id, value)` pairs.
#[derive(Debug)]
pub struct IdTemp {
    volume: Volume,
    segment: Segment,
    count: u64,
    /// First and last stored ids (they seed the membership search).
    id_span: (u64, u64),
}

impl IdTemp {
    /// Drain an ascending id stream into a temp; `on_id` sees each id
    /// (Bloom build hook).
    pub fn build(
        volume: &Volume,
        scope: &RamScope,
        ids: &mut dyn IdStream,
        mut on_id: Option<&mut dyn FnMut(RowId)>,
    ) -> Result<IdTemp> {
        let mut w = volume.writer(scope)?;
        let mut count = 0u64;
        let mut span = IdSpan::default();
        let mut block = IdBlock::new();
        loop {
            ids.next_block(&mut block)?;
            if block.is_empty() {
                break;
            }
            for &id in block.as_slice() {
                if !span.push(id) {
                    return Err(GhostError::bus("PC sent ids out of order".to_string()));
                }
                w.write(&id.0.to_le_bytes())?;
                if let Some(f) = on_id.as_deref_mut() {
                    f(id);
                }
            }
            count += block.len() as u64;
        }
        Ok(IdTemp {
            volume: volume.clone(),
            segment: w.finish()?,
            count,
            id_span: span.bounds(),
        })
    }

    /// Ids stored.
    pub fn len(&self) -> u64 {
        self.count
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Open a membership prober (one page of RAM).
    pub fn prober(&self, scope: &RamScope) -> Result<IdProber<'_>> {
        Ok(IdProber {
            cur: id_cursor(
                scope,
                &self.volume,
                &self.segment,
                4,
                self.count,
                self.id_span,
            )?,
        })
    }

    /// Open a sequential scan over the stored ids (batched verification).
    pub fn scan(&self, scope: &RamScope) -> Result<TempIdScan> {
        let reader = self.volume.reader(scope, &self.segment)?;
        Ok(TempIdScan {
            reader,
            record_width: 4,
            remaining: self.count,
        })
    }

    /// Release the flash space.
    pub fn free(self) -> Result<()> {
        self.volume.free(self.segment)
    }
}

/// Sequential id scan over an [`IdTemp`] or the id prefix of a
/// [`VisibleTemp`]'s records. Implements [`IdStream`], so batched
/// verification can pull whole blocks of stored ids per virtual call.
#[derive(Debug)]
pub struct TempIdScan {
    reader: SegmentReader,
    record_width: usize,
    remaining: u64,
}

impl IdStream for TempIdScan {
    /// Next stored id (ascending), or `None` at the end.
    fn next_id(&mut self) -> Result<Option<RowId>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        self.remaining -= 1;
        let mut rec = [0u8; 4];
        if self.record_width == 4 {
            self.reader.read_exact(&mut rec)?;
        } else {
            // Read the id then skip the value bytes (the reader is
            // buffered, so the skip is a cheap in-buffer seek).
            self.reader.read_exact(&mut rec)?;
            let pos = self.reader.position();
            self.reader.seek(pos + (self.record_width - 4) as u64)?;
        }
        Ok(Some(RowId(u32::from_le_bytes(rec))))
    }

    fn next_block(&mut self, block: &mut IdBlock) -> Result<()> {
        block.clear();
        if self.record_width != 4 {
            // Wide records interleave value bytes; the per-id skip path
            // already stays inside the page buffer.
            while !block.is_full() {
                match self.next_id()? {
                    Some(id) => block.push(id),
                    None => break,
                }
            }
            return Ok(());
        }
        // Packed 4-byte ids: chunked reads straight out of the segment.
        let take = self.remaining.min(BLOCK_CAP as u64) as usize;
        self.reader.read_ids_into(take, block)?;
        self.remaining -= take as u64;
        Ok(())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining as usize, Some(self.remaining as usize))
    }
}

/// Ascending ids as they arrive at a temp build: rejects a repeat or a
/// step back, and remembers the first and last.
#[derive(Debug, Default)]
struct IdSpan(Option<(RowId, RowId)>);

impl IdSpan {
    /// Record `id`; `false` if it does not ascend.
    fn push(&mut self, id: RowId) -> bool {
        match &mut self.0 {
            None => self.0 = Some((id, id)),
            Some((_, last)) if id <= *last => return false,
            Some((_, last)) => *last = id,
        }
        true
    }

    fn bounds(&self) -> (u64, u64) {
        self.0.map_or((0, 0), |(a, b)| (a.0 as u64, b.0 as u64))
    }
}

/// A one-page cursor over a temp's records, keyed by their leading id.
fn id_cursor<'a>(
    scope: &RamScope,
    volume: &'a Volume,
    segment: &'a Segment,
    width: usize,
    count: u64,
    (first, last): (u64, u64),
) -> Result<RunCursor<'a>> {
    RunCursor::new(
        scope,
        SortedRun {
            volume,
            segment,
            width,
            key_bytes: 4,
            count,
            first,
            last,
        },
    )
}

/// Membership prober over an [`IdTemp`].
#[derive(Debug)]
pub struct IdProber<'a> {
    cur: RunCursor<'a>,
}

impl IdProber<'_> {
    /// Is `id` stored?
    pub fn contains(&mut self, id: RowId) -> Result<bool> {
        Ok(self.cur.lower_bound(id.0 as u64)?.1 == Some(id.0 as u64))
    }
}

/// Prober over a [`VisibleTemp`]: id → value.
#[derive(Debug)]
pub struct TempProber<'a> {
    cur: RunCursor<'a>,
    ty: DataType,
    probes: u64,
}

impl TempProber<'_> {
    /// The value stored for `id`, or `None` if absent.
    pub fn probe(&mut self, id: RowId) -> Result<Option<Value>> {
        self.probes += 1;
        let (pos, key) = self.cur.lower_bound(id.0 as u64)?;
        if key != Some(id.0 as u64) {
            return Ok(None);
        }
        let rec = self.cur.record(pos)?;
        Ok(Some(decode_value(self.ty, &rec[4..])?))
    }

    /// Membership-only probe.
    pub fn contains(&mut self, id: RowId) -> Result<bool> {
        Ok(self.probe(id)?.is_some())
    }

    /// The row id stored at record position `idx` (sequential replay,
    /// e.g. rebuilding a Bloom filter from an already-fetched temp).
    pub fn record_id(&mut self, idx: u64) -> Result<RowId> {
        if idx >= self.cur.len() {
            return Err(GhostError::exec("temp record index out of range"));
        }
        let rec = self.cur.record(idx)?;
        Ok(RowId(u32::from_le_bytes(rec[..4].try_into().expect("4B"))))
    }

    /// Probes issued so far.
    pub fn probes(&self) -> u64 {
        self.probes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pc::VecPairStream;
    use ghostdb_flash::Nand;
    use ghostdb_ram::RamBudget;
    use ghostdb_types::{Date, FlashConfig, SimClock};

    fn setup() -> (Volume, RamScope) {
        let cfg = FlashConfig {
            page_size: 128,
            pages_per_block: 8,
            num_blocks: 128,
            ..FlashConfig::default_2007()
        };
        (
            Volume::new(Nand::new(cfg, SimClock::new())),
            RamScope::new(&RamBudget::new(64 * 1024)),
        )
    }

    #[test]
    fn int_column_probe() {
        let (vol, scope) = setup();
        let pairs: Vec<(RowId, Value)> = (0..50u32)
            .filter(|i| i % 3 == 0)
            .map(|i| (RowId(i), Value::Int(i as i64 * 10)))
            .collect();
        let mut stream = VecPairStream::new(pairs);
        let temp = VisibleTemp::build(&vol, &scope, DataType::Integer, &mut stream, None).unwrap();
        assert_eq!(temp.len(), 17);
        let mut p = temp.prober(&scope).unwrap();
        assert_eq!(p.probe(RowId(9)).unwrap(), Some(Value::Int(90)));
        assert_eq!(p.probe(RowId(10)).unwrap(), None);
        assert_eq!(p.probe(RowId(0)).unwrap(), Some(Value::Int(0)));
        assert_eq!(p.probe(RowId(48)).unwrap(), Some(Value::Int(480)));
        assert_eq!(p.probe(RowId(49)).unwrap(), None);
    }

    #[test]
    fn text_column_roundtrip_with_padding() {
        let (vol, scope) = setup();
        let pairs = vec![
            (RowId(2), Value::Text("ab".into())),
            (RowId(5), Value::Text("".into())),
            (RowId(9), Value::Text("0123456789".into())),
        ];
        let mut stream = VecPairStream::new(pairs);
        let temp = VisibleTemp::build(&vol, &scope, DataType::Char(10), &mut stream, None).unwrap();
        let mut p = temp.prober(&scope).unwrap();
        assert_eq!(p.probe(RowId(2)).unwrap(), Some(Value::Text("ab".into())));
        assert_eq!(p.probe(RowId(5)).unwrap(), Some(Value::Text("".into())));
        assert_eq!(
            p.probe(RowId(9)).unwrap(),
            Some(Value::Text("0123456789".into()))
        );
    }

    #[test]
    fn date_column_roundtrip() {
        let (vol, scope) = setup();
        let pairs = vec![(RowId(1), Value::Date(Date(13_456)))];
        let mut stream = VecPairStream::new(pairs);
        let temp = VisibleTemp::build(&vol, &scope, DataType::Date, &mut stream, None).unwrap();
        let mut p = temp.prober(&scope).unwrap();
        assert_eq!(p.probe(RowId(1)).unwrap(), Some(Value::Date(Date(13_456))));
    }

    #[test]
    fn on_id_hook_sees_every_id() {
        let (vol, scope) = setup();
        let pairs: Vec<(RowId, Value)> =
            (0..10u32).map(|i| (RowId(i * 2), Value::Int(0))).collect();
        let mut stream = VecPairStream::new(pairs);
        let mut seen = Vec::new();
        let mut hook = |id: RowId| seen.push(id.0);
        VisibleTemp::build(
            &vol,
            &scope,
            DataType::Integer,
            &mut stream,
            Some(&mut hook),
        )
        .unwrap();
        assert_eq!(seen, (0..10).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn out_of_order_input_rejected() {
        let (vol, scope) = setup();
        struct Bad(usize);
        impl PairStream for Bad {
            fn next_pair(&mut self) -> Result<Option<(RowId, Value)>> {
                self.0 += 1;
                Ok(match self.0 {
                    1 => Some((RowId(5), Value::Int(0))),
                    2 => Some((RowId(3), Value::Int(0))),
                    _ => None,
                })
            }
        }
        let err =
            VisibleTemp::build(&vol, &scope, DataType::Integer, &mut Bad(0), None).unwrap_err();
        assert!(err.to_string().contains("out of order"));
    }

    #[test]
    fn empty_temp_probes_none() {
        let (vol, scope) = setup();
        let mut stream = VecPairStream::new(vec![]);
        let temp = VisibleTemp::build(&vol, &scope, DataType::Integer, &mut stream, None).unwrap();
        assert!(temp.is_empty());
        let mut p = temp.prober(&scope).unwrap();
        assert_eq!(p.probe(RowId(0)).unwrap(), None);
    }

    #[test]
    fn free_releases_flash() {
        let (vol, scope) = setup();
        let pairs: Vec<(RowId, Value)> = (0..100u32).map(|i| (RowId(i), Value::Int(1))).collect();
        let mut stream = VecPairStream::new(pairs);
        let temp = VisibleTemp::build(&vol, &scope, DataType::Integer, &mut stream, None).unwrap();
        assert!(vol.usage().live_pages > 0);
        temp.free().unwrap();
        assert_eq!(vol.usage().live_pages, 0);
    }
}
