//! Raw NAND array: pages, blocks, erase-before-program discipline.
//!
//! The part is materialized lazily, one erase block at a time. A block
//! that holds no buffer reads as all `0xFF`, exactly as an erased block
//! does. The first byte that lands in a block — a program, torn or
//! failed program, [`Nand::corrupt_page`] or a rot flip — allocates it
//! as erased, and a successful erase drops the buffer again, so host
//! memory tracks the blocks that hold data rather than the part's size.
//! This is host-side bookkeeping only: page states, wear, the fault
//! injectors, [`FlashStats`] and every clock charge are the same as on
//! a fully allocated array.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use ghostdb_types::{FlashConfig, GhostError, Result, SimClock};

/// Global page index within the flash part.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageAddr(pub u32);

impl PageAddr {
    /// Index form, for vector addressing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Erase-block index within the flash part.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

impl BlockId {
    /// Index form, for vector addressing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Lifecycle state of one page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageState {
    /// Erased and ready to be programmed.
    Erased,
    /// Programmed with live data.
    Programmed,
}

/// Operation counters; all monotonically increasing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlashStats {
    /// Number of page-read commands issued.
    pub page_reads: u64,
    /// Bytes actually transferred out of page registers.
    pub bytes_read: u64,
    /// Number of page-program commands issued.
    pub page_programs: u64,
    /// Bytes programmed.
    pub bytes_programmed: u64,
    /// Number of block erases.
    pub block_erases: u64,
}

impl FlashStats {
    /// Pointwise difference against an earlier snapshot. Saturating, so
    /// a swapped or stale snapshot pair reports zeros instead of
    /// panicking on u64 underflow.
    pub fn since(&self, earlier: &FlashStats) -> FlashStats {
        FlashStats {
            page_reads: self.page_reads.saturating_sub(earlier.page_reads),
            bytes_read: self.bytes_read.saturating_sub(earlier.bytes_read),
            page_programs: self.page_programs.saturating_sub(earlier.page_programs),
            bytes_programmed: self
                .bytes_programmed
                .saturating_sub(earlier.bytes_programmed),
            block_erases: self.block_erases.saturating_sub(earlier.block_erases),
        }
    }
}

#[derive(Debug, Default)]
struct AtomicStats {
    page_reads: AtomicU64,
    bytes_read: AtomicU64,
    page_programs: AtomicU64,
    bytes_programmed: AtomicU64,
    block_erases: AtomicU64,
}

struct NandState {
    /// One page-major buffer per erase block; `None` reads as all `0xFF`.
    /// Invariant: a block without a buffer has every byte erased.
    blocks: Vec<Option<Box<[u8]>>>,
    /// Per-page state.
    pages: Vec<PageState>,
    /// Per-block erase count (wear).
    wear: Vec<u32>,
    /// Armed power-cut fault (crash-injection harness).
    power_cut: Option<PowerCut>,
    /// Armed retention/read-disturb bit-rot fault.
    bit_rot: Option<BitRot>,
    /// Armed per-program grown-bad-block fault.
    program_fail: Option<FaultArm>,
    /// Armed per-erase grown-bad-block fault.
    erase_fail: Option<FaultArm>,
    /// Per-block grown-bad flags. Persistent: once a block trips a
    /// program/erase failure it stays bad across disarms (a physical
    /// defect, not an armed hook). Reads keep working.
    grown_bad: Vec<bool>,
    /// Per-block read counters driving the read-disturb model; reset
    /// when bit rot is armed.
    block_reads: Vec<u32>,
    /// Per-page count of rot flips injected since the page was last
    /// programmed/erased. The injector bounds itself at one flip per
    /// page per program cycle — the SECDED correction budget — so an
    /// armed fault is always recoverable; tests exceed the budget
    /// explicitly with [`Nand::corrupt_page`].
    rot_flips: Vec<u8>,
    /// Total rot flips injected (observability for fault tests).
    flips_injected: u64,
}

impl NandState {
    /// The bytes of page `idx`, materializing its block as erased first.
    fn page_mut(&mut self, cfg: &FlashConfig, idx: usize) -> &mut [u8] {
        let ppb = cfg.pages_per_block;
        let block = self.blocks[idx / ppb]
            .get_or_insert_with(|| vec![0xFF; ppb * cfg.page_size].into_boxed_slice());
        let base = (idx % ppb) * cfg.page_size;
        &mut block[base..base + cfg.page_size]
    }
}

/// Deterministic splitmix64 step — the seedable fault model's PRNG.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Map a PRNG draw onto [0, 1).
fn unit_f64(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Armed retention + read-disturb fault: each read of a programmed page
/// flips one stored bit with probability `flip_prob`, and every
/// `disturb_every`-th read of a block flips one stored bit in a random
/// programmed page of that block.
#[derive(Debug, Clone, Copy)]
struct BitRot {
    rng: u64,
    flip_prob: f64,
    disturb_every: u32,
}

/// Armed grown-bad-block fault: each program (or erase) trips with
/// probability `prob`, permanently marking the block bad.
#[derive(Debug, Clone, Copy)]
struct FaultArm {
    rng: u64,
    prob: f64,
}

/// Fault-injection state: "the user yanks the key" after a set number of
/// state-changing operations (programs + erases).
#[derive(Debug, Clone, Copy)]
struct PowerCut {
    /// Programs/erases still allowed before the cut.
    remaining_ops: u64,
    /// When the cut lands on a program, commit only the first half of
    /// the page (a torn write) instead of failing cleanly before any
    /// byte is committed; when it lands on an erase, leave the block
    /// half-erased. Models the worst-case interrupted operation.
    torn: bool,
    /// The cut has happened; every further program/erase fails.
    tripped: bool,
}

/// Message carried by every error after the simulated power cut; crash
/// tests (and callers deciding whether a failure is injected or real)
/// match on it.
pub const POWER_CUT_MSG: &str = "simulated power cut";

/// Message carried by a program that tripped the armed grown-bad fault.
pub const PROGRAM_FAIL_MSG: &str = "simulated program failure: block grown bad";

/// Message carried by an erase that tripped the armed grown-bad fault.
pub const ERASE_FAIL_MSG: &str = "simulated erase failure: block grown bad";

/// The simulated NAND part. Cheap to clone (shared state).
#[derive(Clone)]
pub struct Nand {
    cfg: FlashConfig,
    clock: SimClock,
    state: Arc<Mutex<NandState>>,
    stats: Arc<AtomicStats>,
}

impl std::fmt::Debug for Nand {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Nand")
            .field("pages", &self.page_count())
            .field("page_size", &self.cfg.page_size)
            .finish()
    }
}

impl Nand {
    /// Create a blank (fully erased) part with the given geometry, wired
    /// to `clock` for cost accounting.
    pub fn new(cfg: FlashConfig, clock: SimClock) -> Self {
        let pages = cfg.num_blocks * cfg.pages_per_block;
        Nand {
            state: Arc::new(Mutex::new(NandState {
                blocks: vec![None; cfg.num_blocks],
                pages: vec![PageState::Erased; pages],
                wear: vec![0; cfg.num_blocks],
                power_cut: None,
                bit_rot: None,
                program_fail: None,
                erase_fail: None,
                grown_bad: vec![false; cfg.num_blocks],
                block_reads: vec![0; cfg.num_blocks],
                rot_flips: vec![0; pages],
                flips_injected: 0,
            })),
            stats: Arc::new(AtomicStats::default()),
            cfg,
            clock,
        }
    }

    /// The geometry/timing configuration.
    pub fn config(&self) -> &FlashConfig {
        &self.cfg
    }

    /// The clock this part advances.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Total pages in the part.
    pub fn page_count(&self) -> usize {
        self.cfg.num_blocks * self.cfg.pages_per_block
    }

    /// Total erase blocks in the part.
    pub fn block_count(&self) -> usize {
        self.cfg.num_blocks
    }

    /// Block containing `page`.
    pub fn block_of(&self, page: PageAddr) -> BlockId {
        BlockId(page.0 / self.cfg.pages_per_block as u32)
    }

    fn check_page(&self, page: PageAddr) -> Result<()> {
        if page.index() >= self.page_count() {
            return Err(GhostError::flash(format!(
                "page {page:?} out of range (part has {} pages)",
                self.page_count()
            )));
        }
        Ok(())
    }

    /// Read `buf.len()` bytes starting at `offset` within `page`.
    ///
    /// Charges the partial-read cost (latency + per-byte), so reading a
    /// single word is much cheaper than a full page — the asymmetry the
    /// paper calls out.
    pub fn read_into(&self, page: PageAddr, offset: usize, buf: &mut [u8]) -> Result<()> {
        self.check_page(page)?;
        if offset + buf.len() > self.cfg.page_size {
            return Err(GhostError::flash(format!(
                "read beyond page: offset {offset} + len {} > page size {}",
                buf.len(),
                self.cfg.page_size
            )));
        }
        let mut state = self.state.lock().expect("nand poisoned");
        if state.bit_rot.is_some() {
            self.inject_rot(&mut state, page);
        }
        let ppb = self.cfg.pages_per_block;
        match &state.blocks[page.index() / ppb] {
            Some(block) => {
                let base = (page.index() % ppb) * self.cfg.page_size + offset;
                buf.copy_from_slice(&block[base..base + buf.len()]);
            }
            None => buf.fill(0xFF),
        }
        drop(state);
        self.stats.page_reads.fetch_add(1, Ordering::Relaxed);
        self.stats
            .bytes_read
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        self.clock.advance(self.cfg.read_cost_ns(buf.len()));
        Ok(())
    }

    /// Arm the power-cut hook: the next `after_ops` state-changing
    /// operations (programs and erases) succeed, the one after that is
    /// the cut — failing cleanly, or (with `torn`) committing only half
    /// of the interrupted page/block first — and every subsequent
    /// program/erase fails with [`POWER_CUT_MSG`]. Reads keep working so
    /// post-mortem inspection is possible; call
    /// [`disarm_power_cut`](Self::disarm_power_cut) to "plug the key
    /// back in" before mounting.
    pub fn arm_power_cut(&self, after_ops: u64, torn: bool) {
        self.state.lock().expect("nand poisoned").power_cut = Some(PowerCut {
            remaining_ops: after_ops,
            torn,
            tripped: false,
        });
    }

    /// Restore power: clears the armed/tripped fault.
    pub fn disarm_power_cut(&self) {
        self.state.lock().expect("nand poisoned").power_cut = None;
    }

    /// True once the armed cut has fired (the crash harness uses this to
    /// tell an injected failure from a workload that ran to completion).
    pub fn power_cut_tripped(&self) -> bool {
        self.state
            .lock()
            .expect("nand poisoned")
            .power_cut
            .map(|pc| pc.tripped)
            .unwrap_or(false)
    }

    /// Arm the bit-rot fault: every read of a programmed page flips one
    /// stored bit of that page with probability `flip_prob`, and every
    /// `disturb_every`-th read of a block flips one stored bit in a
    /// random programmed page of the block (read disturb; `0` disables
    /// the disturb component). Flips are **persistent** — they corrupt
    /// the stored array, not the returned copy — and deterministic for
    /// a given seed and operation sequence. The injector never puts a
    /// second flip into a page that still carries an unrepaired one, so
    /// armed rot always stays within the volume's single-bit correction
    /// budget; use [`corrupt_page`](Self::corrupt_page) to exceed it.
    pub fn arm_bit_rot(&self, seed: u64, flip_prob: f64, disturb_every: u32) {
        let mut state = self.state.lock().expect("nand poisoned");
        state.block_reads.fill(0);
        state.bit_rot = Some(BitRot {
            rng: seed ^ 0xB17_F11B5,
            flip_prob,
            disturb_every,
        });
    }

    /// Disarm the bit-rot fault. Flips already injected stay in the
    /// array (they are physical), but no new ones land.
    pub fn disarm_bit_rot(&self) {
        self.state.lock().expect("nand poisoned").bit_rot = None;
    }

    /// Rot flips injected so far (fault-test observability).
    pub fn flips_injected(&self) -> u64 {
        self.state.lock().expect("nand poisoned").flips_injected
    }

    /// Arm the program-failure fault: each page program trips with
    /// probability `prob`, committing garbage (half the page), marking
    /// the page programmed, permanently marking the block **grown bad**
    /// — all later programs/erases of it fail; reads keep working —
    /// and failing with [`PROGRAM_FAIL_MSG`].
    pub fn arm_program_failures(&self, seed: u64, prob: f64) {
        self.state.lock().expect("nand poisoned").program_fail = Some(FaultArm {
            rng: seed ^ 0x9806_FA11,
            prob,
        });
    }

    /// Arm the erase-failure fault: each block erase trips with
    /// probability `prob`, leaving the block's pages dirty, counting
    /// the wear (the erase pulse started), permanently marking the
    /// block grown bad, and failing with [`ERASE_FAIL_MSG`].
    pub fn arm_erase_failures(&self, seed: u64, prob: f64) {
        self.state.lock().expect("nand poisoned").erase_fail = Some(FaultArm {
            rng: seed ^ 0xE6A5_EFA1,
            prob,
        });
    }

    /// Disarm the program/erase failure hooks. Blocks already grown bad
    /// stay bad — the defect is physical, not simulated.
    pub fn disarm_block_failures(&self) {
        let mut state = self.state.lock().expect("nand poisoned");
        state.program_fail = None;
        state.erase_fail = None;
    }

    /// True once `block` has grown bad (failed a program or erase).
    pub fn is_grown_bad(&self, block: BlockId) -> bool {
        let state = self.state.lock().expect("nand poisoned");
        state.grown_bad.get(block.index()).copied().unwrap_or(false)
    }

    /// Every grown-bad block id, ascending.
    pub fn grown_bad_blocks(&self) -> Vec<u32> {
        let state = self.state.lock().expect("nand poisoned");
        state
            .grown_bad
            .iter()
            .enumerate()
            .filter_map(|(b, &bad)| bad.then_some(b as u32))
            .collect()
    }

    /// Deterministically flip one stored bit of `page` (bit index
    /// within the page). Unlike the armed fault, this injection is not
    /// bounded by the correction budget — it is how tests rot a page
    /// past repair. The flip counts as the page's unrepaired one, so an
    /// armed rot injector adds none on top of it.
    pub fn corrupt_page(&self, page: PageAddr, bit: u32) -> Result<()> {
        self.check_page(page)?;
        if bit as usize >= self.cfg.page_size * 8 {
            return Err(GhostError::flash("corrupt_page: bit out of range"));
        }
        let mut state = self.state.lock().expect("nand poisoned");
        state.page_mut(&self.cfg, page.index())[bit as usize >> 3] ^= 1 << (bit & 7);
        let flips = &mut state.rot_flips[page.index()];
        *flips = flips.saturating_add(1);
        Ok(())
    }

    /// Apply the armed bit-rot model to one read of `page`.
    fn inject_rot(&self, state: &mut NandState, page: PageAddr) {
        let ppb = self.cfg.pages_per_block;
        let block = page.index() / ppb;
        let Some(mut rot) = state.bit_rot else { return };
        // Retention component: the page being read, with probability.
        if rot.flip_prob > 0.0
            && state.pages[page.index()] == PageState::Programmed
            && unit_f64(splitmix64(&mut rot.rng)) < rot.flip_prob
        {
            let bit = splitmix64(&mut rot.rng) % (self.cfg.page_size as u64 * 8);
            Self::flip_within_budget(state, &self.cfg, page.index(), bit as usize);
        }
        // Read-disturb component: a random programmed neighbor in the
        // block, every `disturb_every` reads.
        state.block_reads[block] += 1;
        if rot.disturb_every > 0 && state.block_reads[block].is_multiple_of(rot.disturb_every) {
            let first = block * ppb;
            let candidates: Vec<usize> = (first..first + ppb)
                .filter(|&p| state.pages[p] == PageState::Programmed && state.rot_flips[p] == 0)
                .collect();
            if !candidates.is_empty() {
                let victim =
                    candidates[(splitmix64(&mut rot.rng) % candidates.len() as u64) as usize];
                let bit = splitmix64(&mut rot.rng) % (self.cfg.page_size as u64 * 8);
                Self::flip_within_budget(state, &self.cfg, victim, bit as usize);
            }
        }
        state.bit_rot = Some(rot);
    }

    /// Flip `bit` of page `idx` unless the page already carries an
    /// unrepaired flip (the one-flip-per-program-cycle budget).
    fn flip_within_budget(state: &mut NandState, cfg: &FlashConfig, idx: usize, bit: usize) {
        if state.rot_flips[idx] >= 1 {
            return;
        }
        state.page_mut(cfg, idx)[bit >> 3] ^= 1 << (bit & 7);
        state.rot_flips[idx] += 1;
        state.flips_injected += 1;
    }

    /// Consume one op against the armed fault. `Ok(true)` = proceed,
    /// `Ok(false)` = this op is the cut and should tear, `Err` = fail
    /// cleanly (cut without tearing, or already dead).
    fn power_gate(state: &mut NandState) -> Result<bool> {
        let Some(pc) = &mut state.power_cut else {
            return Ok(true);
        };
        if pc.tripped {
            return Err(GhostError::flash(POWER_CUT_MSG));
        }
        if pc.remaining_ops == 0 {
            pc.tripped = true;
            if pc.torn {
                return Ok(false);
            }
            return Err(GhostError::flash(POWER_CUT_MSG));
        }
        pc.remaining_ops -= 1;
        Ok(true)
    }

    /// Program a full page. The page must be erased; programming a
    /// programmed page is a protocol violation (writes in place are
    /// precluded on NAND).
    pub fn program(&self, page: PageAddr, data: &[u8]) -> Result<()> {
        self.check_page(page)?;
        if data.len() > self.cfg.page_size {
            return Err(GhostError::flash(format!(
                "program of {} bytes exceeds page size {}",
                data.len(),
                self.cfg.page_size
            )));
        }
        let mut state = self.state.lock().expect("nand poisoned");
        if state.pages[page.index()] != PageState::Erased {
            return Err(GhostError::flash(format!(
                "program of non-erased page {page:?} (no in-place writes)"
            )));
        }
        let block = page.index() / self.cfg.pages_per_block;
        if state.grown_bad[block] {
            return Err(GhostError::flash(format!(
                "program failed: block {block} is grown bad"
            )));
        }
        if !Self::power_gate(&mut state)? {
            // Torn write: half the page commits, then the lights go out.
            let half = data.len() / 2;
            state.page_mut(&self.cfg, page.index())[..half].copy_from_slice(&data[..half]);
            state.pages[page.index()] = PageState::Programmed;
            return Err(GhostError::flash(POWER_CUT_MSG));
        }
        if let Some(mut arm) = state.program_fail {
            let trip = arm.prob > 0.0 && unit_f64(splitmix64(&mut arm.rng)) < arm.prob;
            state.program_fail = Some(arm);
            if trip {
                // The program pulse dies partway: half the page commits,
                // the page counts as programmed (it cannot be reused
                // without an erase), and the block is grown bad for good.
                let half = data.len() / 2;
                state.page_mut(&self.cfg, page.index())[..half].copy_from_slice(&data[..half]);
                state.pages[page.index()] = PageState::Programmed;
                state.grown_bad[block] = true;
                return Err(GhostError::flash(PROGRAM_FAIL_MSG));
            }
        }
        state.page_mut(&self.cfg, page.index())[..data.len()].copy_from_slice(data);
        // Remaining bytes keep their erased 0xFF pattern.
        state.pages[page.index()] = PageState::Programmed;
        state.rot_flips[page.index()] = 0;
        drop(state);
        self.stats.page_programs.fetch_add(1, Ordering::Relaxed);
        self.stats
            .bytes_programmed
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        self.clock.advance(self.cfg.program_cost_ns(data.len()));
        Ok(())
    }

    /// Erase a whole block, resetting its pages to `0xFF`/erased and
    /// incrementing its wear counter.
    pub fn erase(&self, block: BlockId) -> Result<()> {
        if block.index() >= self.cfg.num_blocks {
            return Err(GhostError::flash(format!(
                "block {block:?} out of range ({} blocks)",
                self.cfg.num_blocks
            )));
        }
        let mut state = self.state.lock().expect("nand poisoned");
        let first = block.index() * self.cfg.pages_per_block;
        if state.grown_bad[block.index()] {
            return Err(GhostError::flash(format!(
                "erase failed: block {} is grown bad",
                block.0
            )));
        }
        if !Self::power_gate(&mut state)? {
            // Torn erase: half the block's pages reset, then power dies.
            let half = self.cfg.pages_per_block / 2;
            for p in first..first + half {
                state.pages[p] = PageState::Erased;
                state.rot_flips[p] = 0;
            }
            if let Some(buf) = &mut state.blocks[block.index()] {
                buf[..half * self.cfg.page_size].fill(0xFF);
            }
            state.wear[block.index()] += 1;
            return Err(GhostError::flash(POWER_CUT_MSG));
        }
        if let Some(mut arm) = state.erase_fail {
            let trip = arm.prob > 0.0 && unit_f64(splitmix64(&mut arm.rng)) < arm.prob;
            state.erase_fail = Some(arm);
            if trip {
                // The erase pulse fails: pages keep their stale data,
                // the wear counts (the pulse started), and the block is
                // grown bad for good.
                state.wear[block.index()] += 1;
                state.grown_bad[block.index()] = true;
                return Err(GhostError::flash(ERASE_FAIL_MSG));
            }
        }
        for p in first..first + self.cfg.pages_per_block {
            state.pages[p] = PageState::Erased;
            state.rot_flips[p] = 0;
        }
        state.blocks[block.index()] = None;
        state.wear[block.index()] += 1;
        drop(state);
        self.stats.block_erases.fetch_add(1, Ordering::Relaxed);
        self.clock.advance(self.cfg.erase_block_ns);
        Ok(())
    }

    /// State of one page.
    pub fn page_state(&self, page: PageAddr) -> Result<PageState> {
        self.check_page(page)?;
        Ok(self.state.lock().expect("nand poisoned").pages[page.index()])
    }

    /// True when every page of `block` is erased (page states, not
    /// buffer presence: a torn erase can leave an erased page in a
    /// materialized block). One lock for the whole block, for the
    /// volume's mount-time free-block scan. `false` out of range.
    pub(crate) fn block_fully_erased(&self, block: BlockId) -> bool {
        if block.index() >= self.cfg.num_blocks {
            return false;
        }
        let first = block.index() * self.cfg.pages_per_block;
        self.state.lock().expect("nand poisoned").pages[first..first + self.cfg.pages_per_block]
            .iter()
            .all(|&p| p == PageState::Erased)
    }

    /// Erase blocks currently holding a host buffer.
    #[cfg(test)]
    pub(crate) fn resident_blocks(&self) -> usize {
        let state = self.state.lock().expect("nand poisoned");
        state.blocks.iter().filter(|b| b.is_some()).count()
    }

    /// Erase count of one block.
    pub fn wear(&self, block: BlockId) -> Result<u32> {
        if block.index() >= self.cfg.num_blocks {
            return Err(GhostError::flash("wear: block out of range"));
        }
        Ok(self.state.lock().expect("nand poisoned").wear[block.index()])
    }

    /// Erase counts of every block, indexed by [`BlockId`] — the input to
    /// the volume's wear-aware victim selection.
    pub fn wear_snapshot(&self) -> Vec<u32> {
        self.state.lock().expect("nand poisoned").wear.clone()
    }

    /// Index into `candidates` of the least-worn block (ties broken by
    /// lowest block id, keeping selection deterministic), or `None` when
    /// `candidates` is empty. One lock, no allocation — this sits on the
    /// volume's block-open hot path.
    pub fn least_worn(&self, candidates: &[BlockId]) -> Option<usize> {
        let state = self.state.lock().expect("nand poisoned");
        candidates
            .iter()
            .enumerate()
            .min_by_key(|(_, b)| (state.wear[b.index()], b.0))
            .map(|(i, _)| i)
    }

    /// Spread between the most- and least-worn block (wear-leveling
    /// quality metric).
    pub fn wear_spread(&self) -> (u32, u32) {
        let state = self.state.lock().expect("nand poisoned");
        let min = state.wear.iter().copied().min().unwrap_or(0);
        let max = state.wear.iter().copied().max().unwrap_or(0);
        (min, max)
    }

    /// Snapshot of the operation counters.
    pub fn stats(&self) -> FlashStats {
        FlashStats {
            page_reads: self.stats.page_reads.load(Ordering::Relaxed),
            bytes_read: self.stats.bytes_read.load(Ordering::Relaxed),
            page_programs: self.stats.page_programs.load(Ordering::Relaxed),
            bytes_programmed: self.stats.bytes_programmed.load(Ordering::Relaxed),
            block_erases: self.stats.block_erases.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Nand {
        let cfg = FlashConfig {
            page_size: 64,
            pages_per_block: 4,
            num_blocks: 8,
            ..FlashConfig::default_2007()
        };
        Nand::new(cfg, SimClock::new())
    }

    #[test]
    fn program_then_read_roundtrips() {
        let nand = small();
        let data: Vec<u8> = (0..64).collect();
        nand.program(PageAddr(5), &data).unwrap();
        let mut buf = vec![0u8; 64];
        nand.read_into(PageAddr(5), 0, &mut buf).unwrap();
        assert_eq!(buf, data);
    }

    #[test]
    fn partial_read_offsets() {
        let nand = small();
        let data: Vec<u8> = (0..64).collect();
        nand.program(PageAddr(0), &data).unwrap();
        let mut buf = vec![0u8; 4];
        nand.read_into(PageAddr(0), 10, &mut buf).unwrap();
        assert_eq!(buf, &[10, 11, 12, 13]);
        assert!(nand.read_into(PageAddr(0), 62, &mut buf).is_err());
    }

    #[test]
    fn no_in_place_writes() {
        let nand = small();
        nand.program(PageAddr(3), &[1; 64]).unwrap();
        let err = nand.program(PageAddr(3), &[2; 64]).unwrap_err();
        assert!(err.to_string().contains("non-erased"));
    }

    #[test]
    fn erase_enables_reprogram_and_wears() {
        let nand = small();
        nand.program(PageAddr(3), &[1; 64]).unwrap();
        nand.erase(BlockId(0)).unwrap();
        assert_eq!(nand.page_state(PageAddr(3)).unwrap(), PageState::Erased);
        assert_eq!(nand.wear(BlockId(0)).unwrap(), 1);
        nand.program(PageAddr(3), &[2; 64]).unwrap();
        let mut buf = [0u8; 1];
        nand.read_into(PageAddr(3), 0, &mut buf).unwrap();
        assert_eq!(buf[0], 2);
    }

    #[test]
    fn erased_pages_read_ff() {
        let nand = small();
        let mut buf = [0u8; 8];
        nand.read_into(PageAddr(31), 0, &mut buf).unwrap();
        assert_eq!(buf, [0xFF; 8]);
    }

    #[test]
    fn out_of_range_is_error() {
        let nand = small();
        assert!(nand.program(PageAddr(32), &[0; 64]).is_err());
        assert!(nand.erase(BlockId(8)).is_err());
        let mut buf = [0u8; 1];
        assert!(nand.read_into(PageAddr(32), 0, &mut buf).is_err());
    }

    #[test]
    fn costs_advance_clock_asymmetrically() {
        let nand = small();
        let t0 = nand.clock().now();
        let mut buf = vec![0u8; 64];
        nand.read_into(PageAddr(0), 0, &mut buf).unwrap();
        let read_ns = nand.clock().now().since(t0);
        let t1 = nand.clock().now();
        nand.program(PageAddr(0), &[0; 64]).unwrap();
        let prog_ns = nand.clock().now().since(t1);
        assert!(
            prog_ns >= 3 * read_ns,
            "program {prog_ns} not ≥3x read {read_ns}"
        );
    }

    #[test]
    fn stats_count_operations() {
        let nand = small();
        nand.program(PageAddr(0), &[0; 64]).unwrap();
        let mut buf = [0u8; 16];
        nand.read_into(PageAddr(0), 0, &mut buf).unwrap();
        nand.read_into(PageAddr(0), 16, &mut buf).unwrap();
        nand.erase(BlockId(0)).unwrap();
        let s = nand.stats();
        assert_eq!(s.page_programs, 1);
        assert_eq!(s.page_reads, 2);
        assert_eq!(s.bytes_read, 32);
        assert_eq!(s.bytes_programmed, 64);
        assert_eq!(s.block_erases, 1);
    }

    #[test]
    fn stats_since_diffs() {
        let nand = small();
        nand.program(PageAddr(0), &[0; 64]).unwrap();
        let snap = nand.stats();
        nand.program(PageAddr(1), &[0; 64]).unwrap();
        let d = nand.stats().since(&snap);
        assert_eq!(d.page_programs, 1);
        assert_eq!(d.page_reads, 0);
    }

    #[test]
    fn power_cut_clean_kills_ops_after_budget() {
        let nand = small();
        nand.arm_power_cut(1, false);
        nand.program(PageAddr(0), &[1; 64]).unwrap(); // the budgeted op
        let err = nand.program(PageAddr(1), &[2; 64]).unwrap_err();
        assert!(err.to_string().contains(POWER_CUT_MSG), "{err}");
        assert!(nand.power_cut_tripped());
        // A clean cut commits nothing, and the device stays dead.
        assert_eq!(nand.page_state(PageAddr(1)).unwrap(), PageState::Erased);
        assert!(nand.erase(BlockId(1)).is_err());
        // Reads survive (post-mortem inspection), power restores fully.
        let mut buf = [0u8; 1];
        nand.read_into(PageAddr(0), 0, &mut buf).unwrap();
        nand.disarm_power_cut();
        nand.program(PageAddr(1), &[2; 64]).unwrap();
    }

    #[test]
    fn torn_program_commits_half_the_page() {
        let nand = small();
        nand.arm_power_cut(0, true);
        assert!(nand.program(PageAddr(0), &[7; 64]).is_err());
        nand.disarm_power_cut();
        // Half the bytes landed; the page counts as programmed (so it
        // cannot be silently reused without an erase).
        assert_eq!(nand.page_state(PageAddr(0)).unwrap(), PageState::Programmed);
        let mut buf = [0u8; 64];
        nand.read_into(PageAddr(0), 0, &mut buf).unwrap();
        assert_eq!(&buf[..32], &[7; 32]);
        assert_eq!(&buf[32..], &[0xFF; 32]);
    }

    #[test]
    fn torn_erase_resets_half_the_block() {
        let nand = small();
        for p in 0..4 {
            nand.program(PageAddr(p), &[3; 64]).unwrap();
        }
        nand.arm_power_cut(0, true);
        assert!(nand.erase(BlockId(0)).is_err());
        nand.disarm_power_cut();
        assert_eq!(nand.page_state(PageAddr(0)).unwrap(), PageState::Erased);
        assert_eq!(nand.page_state(PageAddr(1)).unwrap(), PageState::Erased);
        assert_eq!(nand.page_state(PageAddr(2)).unwrap(), PageState::Programmed);
        assert_eq!(nand.page_state(PageAddr(3)).unwrap(), PageState::Programmed);
        assert_eq!(nand.wear(BlockId(0)).unwrap(), 1, "wear counts the start");
    }

    #[test]
    fn short_program_pads_with_erased_pattern() {
        let nand = small();
        nand.program(PageAddr(0), &[7; 10]).unwrap();
        let mut buf = [0u8; 12];
        nand.read_into(PageAddr(0), 4, &mut buf).unwrap();
        assert_eq!(&buf[..6], &[7; 6]);
        assert_eq!(&buf[6..], &[0xFF; 6]);
    }

    #[test]
    fn stats_since_saturates_on_swapped_snapshots() {
        let nand = small();
        nand.program(PageAddr(0), &[0; 64]).unwrap();
        let later = nand.stats();
        nand.program(PageAddr(1), &[0; 64]).unwrap();
        let newer = nand.stats();
        // Arguments swapped: must report zeros, not panic.
        let d = later.since(&newer);
        assert_eq!(d.page_programs, 0);
        assert_eq!(d.bytes_programmed, 0);
    }

    #[test]
    fn bit_rot_flips_persistently_and_deterministically() {
        let run = |seed: u64| -> (u64, Vec<u8>) {
            let nand = small();
            let data: Vec<u8> = (0..64).collect();
            for p in 0..8 {
                nand.program(PageAddr(p), &data).unwrap();
            }
            nand.arm_bit_rot(seed, 0.5, 0);
            let mut buf = vec![0u8; 64];
            for _ in 0..8 {
                for p in 0..8 {
                    nand.read_into(PageAddr(p), 0, &mut buf).unwrap();
                }
            }
            nand.disarm_bit_rot();
            nand.read_into(PageAddr(0), 0, &mut buf).unwrap();
            (nand.flips_injected(), buf)
        };
        let (flips_a, page_a) = run(7);
        let (flips_b, page_b) = run(7);
        assert!(flips_a > 0, "no rot injected at 50% per read");
        assert_eq!(flips_a, flips_b, "fault model must be deterministic");
        assert_eq!(page_a, page_b);
        // Budget: at most one flip per page survives in the array.
        assert!(flips_a <= 8, "{flips_a} flips exceed one per page");
    }

    #[test]
    fn read_disturb_rots_neighbors() {
        let nand = small();
        for p in 0..4 {
            nand.program(PageAddr(p), &[0xA5; 64]).unwrap();
        }
        nand.arm_bit_rot(3, 0.0, 4); // disturb only, every 4th read
        let mut buf = vec![0u8; 64];
        for _ in 0..16 {
            nand.read_into(PageAddr(0), 0, &mut buf).unwrap();
        }
        assert!(nand.flips_injected() > 0, "disturb never fired");
    }

    #[test]
    fn program_failure_grows_block_bad() {
        let nand = small();
        nand.arm_program_failures(11, 1.0);
        let err = nand.program(PageAddr(4), &[1; 64]).unwrap_err();
        assert!(err.to_string().contains(PROGRAM_FAIL_MSG), "{err}");
        assert!(nand.is_grown_bad(BlockId(1)));
        assert_eq!(nand.grown_bad_blocks(), vec![1]);
        // The failed page holds garbage but counts as programmed.
        assert_eq!(nand.page_state(PageAddr(4)).unwrap(), PageState::Programmed);
        // Disarm does not heal the defect: programs and erases of the
        // bad block still fail, other blocks work, reads keep working.
        nand.disarm_block_failures();
        assert!(nand.program(PageAddr(5), &[1; 64]).is_err());
        assert!(nand.erase(BlockId(1)).is_err());
        nand.program(PageAddr(0), &[2; 64]).unwrap();
        let mut buf = [0u8; 4];
        nand.read_into(PageAddr(4), 0, &mut buf).unwrap();
    }

    #[test]
    fn erase_failure_grows_block_bad_and_keeps_data() {
        let nand = small();
        nand.program(PageAddr(0), &[9; 64]).unwrap();
        nand.arm_erase_failures(5, 1.0);
        let err = nand.erase(BlockId(0)).unwrap_err();
        assert!(err.to_string().contains(ERASE_FAIL_MSG), "{err}");
        nand.disarm_block_failures();
        assert!(nand.is_grown_bad(BlockId(0)));
        assert_eq!(nand.wear(BlockId(0)).unwrap(), 1, "failed pulse wears");
        // Stale data is still readable.
        let mut buf = [0u8; 1];
        nand.read_into(PageAddr(0), 0, &mut buf).unwrap();
        assert_eq!(buf[0], 9);
    }

    /// A hand-corrupted page already carries its one unrepaired flip:
    /// armed rot reading it — retention or disturb — adds no second one.
    #[test]
    fn armed_rot_spares_a_hand_corrupted_page() {
        let nand = small();
        nand.program(PageAddr(0), &[0u8; 64]).unwrap();
        nand.corrupt_page(PageAddr(0), 10).unwrap();
        nand.arm_bit_rot(1, 1.0, 1);
        let mut buf = [0u8; 64];
        for _ in 0..32 {
            nand.read_into(PageAddr(0), 0, &mut buf).unwrap();
        }
        assert_eq!(nand.flips_injected(), 0);
        let mut want = [0u8; 64];
        want[1] = 0x04;
        assert_eq!(buf, want);
    }

    #[test]
    fn corrupt_page_flips_the_exact_bit() {
        let nand = small();
        nand.program(PageAddr(0), &[0u8; 64]).unwrap();
        nand.corrupt_page(PageAddr(0), 10).unwrap(); // byte 1, bit 2
        let mut buf = [0u8; 2];
        nand.read_into(PageAddr(0), 0, &mut buf).unwrap();
        assert_eq!(buf, [0x00, 0x04]);
        assert!(nand.corrupt_page(PageAddr(0), 64 * 8).is_err());
    }

    #[test]
    fn a_fresh_part_allocates_no_block() {
        // 64 back-to-back default parts (64 GiB if filled eagerly) each
        // hold no block buffer.
        for _ in 0..64 {
            let nand = Nand::new(FlashConfig::default_2007(), SimClock::new());
            assert_eq!(nand.resident_blocks(), 0);
        }
        let nand = Nand::new(FlashConfig::default_2007(), SimClock::new());
        let mut buf = vec![0u8; 2048];
        nand.read_into(PageAddr(nand.page_count() as u32 - 1), 0, &mut buf)
            .unwrap();
        assert_eq!(buf, vec![0xFF; 2048]);
        assert_eq!(nand.resident_blocks(), 0, "a read materializes nothing");
        assert_eq!(nand.stats().page_reads, 1, "and is still charged");
    }

    #[test]
    fn program_materializes_one_block_and_erase_releases_it() {
        let nand = small();
        nand.program(PageAddr(5), &[1; 64]).unwrap();
        nand.program(PageAddr(6), &[2; 64]).unwrap();
        assert_eq!(nand.resident_blocks(), 1);
        let mut buf = [0u8; 64];
        nand.read_into(PageAddr(4), 0, &mut buf).unwrap();
        assert_eq!(buf, [0xFF; 64], "the rest of the block reads erased");
        nand.erase(BlockId(1)).unwrap();
        assert_eq!(nand.resident_blocks(), 0);
        nand.read_into(PageAddr(5), 0, &mut buf).unwrap();
        assert_eq!(buf, [0xFF; 64]);
        assert_eq!(nand.wear(BlockId(1)).unwrap(), 1);
    }

    #[test]
    fn faults_on_never_programmed_blocks_behave_as_on_erased_bytes() {
        // Torn program: half the page lands in a freshly erased block.
        let nand = small();
        nand.arm_power_cut(0, true);
        assert!(nand.program(PageAddr(9), &[7; 64]).is_err());
        nand.disarm_power_cut();
        assert_eq!(nand.resident_blocks(), 1);
        let mut buf = [0u8; 64];
        nand.read_into(PageAddr(9), 0, &mut buf).unwrap();
        assert_eq!((&buf[..32], &buf[32..]), (&[7; 32][..], &[0xFF; 32][..]));

        // Torn erase of a block that never held data: pages reset,
        // wear counts, nothing is allocated.
        nand.arm_power_cut(0, true);
        assert!(nand.erase(BlockId(5)).is_err());
        nand.disarm_power_cut();
        assert_eq!(nand.resident_blocks(), 1);
        assert_eq!(nand.wear(BlockId(5)).unwrap(), 1);

        // Program failure: half the page lands, the block grows bad.
        nand.arm_program_failures(1, 1.0);
        assert!(nand.program(PageAddr(12), &[3; 64]).is_err());
        nand.disarm_block_failures();
        assert!(nand.is_grown_bad(BlockId(3)));
        assert_eq!(nand.resident_blocks(), 2);
        nand.read_into(PageAddr(12), 0, &mut buf).unwrap();
        assert_eq!((&buf[..32], &buf[32..]), (&[3; 32][..], &[0xFF; 32][..]));

        // corrupt_page flips a bit of the erased pattern.
        nand.corrupt_page(PageAddr(16), 10).unwrap();
        assert_eq!(nand.resident_blocks(), 3);
        nand.read_into(PageAddr(16), 0, &mut buf[..2]).unwrap();
        assert_eq!(buf[..2], [0xFF, 0xFB]);

        // Retention and disturb only rot programmed pages: reads of a
        // never-programmed block under the harshest rot stay clean.
        nand.arm_bit_rot(5, 1.0, 1);
        for _ in 0..16 {
            nand.read_into(PageAddr(28), 0, &mut buf).unwrap();
            assert_eq!(buf, [0xFF; 64]);
        }
        assert_eq!(nand.flips_injected(), 0);
        assert_eq!(nand.resident_blocks(), 3);
    }

    #[test]
    fn block_fully_erased_reads_page_states() {
        let nand = small();
        assert!(nand.block_fully_erased(BlockId(0)));
        nand.program(PageAddr(1), &[1; 64]).unwrap();
        assert!(!nand.block_fully_erased(BlockId(0)));
        assert!(nand.block_fully_erased(BlockId(1)));
        // A torn erase resets the programmed page in a block that keeps
        // its buffer: page states decide, not buffer presence.
        nand.arm_power_cut(0, true);
        assert!(nand.erase(BlockId(0)).is_err());
        nand.disarm_power_cut();
        assert_eq!(nand.resident_blocks(), 1);
        assert!(nand.block_fully_erased(BlockId(0)));
        assert!(!nand.block_fully_erased(BlockId(8)), "out of range");
    }
}
