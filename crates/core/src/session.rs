//! Snapshot read sessions: the pin guard and the session registry
//! around a forked [`ReadState`].
//!
//! What a snapshot can *do* lives in [`ReadState`]; what it *copies*
//! lives in `ReadState::fork`. This file holds what makes a fork safe
//! to keep while the writer moves on. Because [`GhostDb::snapshot`]
//! borrows `&self`, the borrow checker itself quiesces capture: no
//! writer method (`&mut self`) can overlap it, so capture needs no
//! locks. Once captured, the snapshot races only with *future* writer
//! work — and every shared structure it still touches (the volume's
//! translation table, the NAND part, the bus trace, the clock) is
//! internally synchronized.
//!
//! # What pins what
//!
//! A snapshot's base segments must outlive it even if the writer
//! flushes (rebuilding columns and indexes frees the old segments) or
//! the GC compacts blocks. Capture therefore **pins** every base LPN
//! in the volume ([`Volume::pin_pages`]): pinned pages may still
//! migrate — the translation table keeps reads valid across moves —
//! but a free against them is deferred until the last pin drops, the
//! same deferred-free discipline the sealed image uses. Dropping the
//! snapshot unpins and releases anything the writer freed in the
//! meantime.
//!
//! # Sessions
//!
//! Each snapshot is one read session with its own device RAM slice and
//! its own bus endpoint over the shared (spied) link — concurrent
//! sessions model independent secure-device sessions, per the paper's
//! session-per-query trust model. A [`Snapshot`] is `Send + Sync`; give
//! each reader thread its own so RAM-budget contention between sessions
//! cannot produce spurious out-of-RAM failures.
//!
//! [`Volume::pin_pages`]: ghostdb_flash::Volume::pin_pages

use std::collections::HashMap;
use std::ops::Deref;
use std::sync::{Arc, Mutex};

use ghostdb_types::Result;

use crate::{GhostDb, ReadState};

/// Registry of open snapshot sessions, shared between the writer (for
/// `device_report()`) and every snapshot (which deregisters itself on
/// drop).
#[derive(Debug)]
pub struct SessionRegistry {
    inner: Mutex<RegistryInner>,
}

#[derive(Debug)]
struct RegistryInner {
    next_id: u64,
    /// Open sessions: id → (capture epoch, pinned page count).
    open: HashMap<u64, (u64, usize)>,
}

impl SessionRegistry {
    pub(crate) fn new() -> Arc<SessionRegistry> {
        Arc::new(SessionRegistry {
            inner: Mutex::new(RegistryInner {
                next_id: 1,
                open: HashMap::new(),
            }),
        })
    }

    fn register(&self, epoch: u64, pinned_pages: usize) -> u64 {
        let mut inner = self.inner.lock().expect("session registry poisoned");
        let id = inner.next_id;
        inner.next_id += 1;
        inner.open.insert(id, (epoch, pinned_pages));
        id
    }

    fn deregister(&self, id: u64) {
        let mut inner = self.inner.lock().expect("session registry poisoned");
        inner.open.remove(&id);
    }

    /// Number of snapshots currently open.
    pub fn open_snapshots(&self) -> usize {
        self.inner
            .lock()
            .expect("session registry poisoned")
            .open
            .len()
    }

    /// One-line summary for `device_report()`: open session count plus
    /// the epoch range they span.
    pub(crate) fn describe(&self) -> String {
        let inner = self.inner.lock().expect("session registry poisoned");
        if inner.open.is_empty() {
            return "no open snapshots".to_string();
        }
        let lo = inner.open.values().map(|&(e, _)| e).min().unwrap_or(0);
        let hi = inner.open.values().map(|&(e, _)| e).max().unwrap_or(0);
        let pages: usize = inner.open.values().map(|&(_, p)| p).sum();
        format!(
            "{} open snapshot(s) spanning epochs {lo}..={hi}, {pages} page pin(s) held",
            inner.open.len()
        )
    }
}

/// An immutable, epoch-stamped view of the database: a forked
/// [`ReadState`] plus the pin guard that keeps its base pages alive.
///
/// A snapshot sees exactly the state committed at its capture epoch —
/// concurrent inserts, deletes, updates, and even flushes by the
/// writer never show through (snapshot isolation). It is `Send + Sync`
/// and carries its own device RAM slice; hand one to each reader
/// thread and run [`query`](ReadState::query) freely — the whole read
/// surface comes from [`ReadState`] through `Deref`. Dropping it
/// unpins its base segments, letting a flush that outpaced it finally
/// retire them.
pub struct Snapshot {
    read: ReadState,
    epoch: u64,
    /// Base LPNs pinned in the volume until drop.
    pinned: Vec<u32>,
    session_id: u64,
    registry: Arc<SessionRegistry>,
}

impl Deref for Snapshot {
    type Target = ReadState;

    fn deref(&self) -> &ReadState {
        &self.read
    }
}

impl Snapshot {
    /// Capture the current state of `db` (see [`GhostDb::snapshot`]).
    pub(crate) fn capture(db: &GhostDb) -> Result<Snapshot> {
        // `&db` here and `&mut db` in every writer method: the borrow
        // checker is the capture lock.
        let mut pinned = Vec::new();
        db.hidden.collect_lpns(&mut pinned);
        db.indexes.collect_lpns(&mut pinned);
        pinned.sort_unstable();
        pinned.dedup();
        db.volume.pin_pages(&pinned)?;
        Ok(Snapshot {
            read: db.fork(),
            epoch: db.epoch(),
            session_id: db.sessions.register(db.epoch(), pinned.len()),
            pinned,
            registry: db.sessions.clone(),
        })
    }

    /// The commit epoch this snapshot captured. Every query answers
    /// against exactly this state.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Base pages this snapshot pins in the volume (observability; the
    /// leak check in `tests/concurrency.rs` watches these drain).
    pub fn pinned_pages(&self) -> usize {
        self.pinned.len()
    }
}

impl Drop for Snapshot {
    fn drop(&mut self) {
        // Releases any segment the writer freed while this snapshot
        // held it; errors cannot surface from a destructor, and the
        // pin set was validated at capture.
        let _ = self.volume.unpin_pages(&self.pinned);
        self.registry.deregister(self.session_id);
    }
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("epoch", &self.epoch)
            .field("pinned_pages", &self.pinned.len())
            .field("session_id", &self.session_id)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole point of a snapshot is crossing threads: it must be
    /// `Send` (handed to a reader thread) and `Sync` (shared by
    /// reference inside one). A compile-time assertion, not a runtime
    /// check — if a non-thread-safe field ever sneaks in, this stops
    /// building.
    #[test]
    fn snapshot_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Snapshot>();
        assert_send_sync::<SessionRegistry>();
    }
}
