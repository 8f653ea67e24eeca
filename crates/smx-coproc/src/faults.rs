//! Deterministic fault injection and tile-level recovery.
//!
//! The fault model covers the three hardware failure modes of the SMX-2D
//! datapath that matter for the border-only storage scheme (DESIGN.md,
//! "Fault model & recovery semantics"):
//!
//! * **Border corruption** — a tile's output border is damaged in the
//!   worker SRAM before it is consumed by the next tile.
//! * **Worker stall** — an SMX-worker hangs mid-tile and never signals
//!   completion; the watchdog fires at a cycle deadline.
//! * **L2 bit flip** — a single bit flips on the shared L2 port while a
//!   border crosses it (block compute writes, traceback reads).
//!
//! Detection is mechanical, not oracular: every border that crosses the
//! SRAM/L2 path carries a [Fletcher-style checksum](border_checksum)
//! computed at the engine output port and re-verified after the transfer.
//! The injected corruptions always change at least one byte, so a
//! mismatch is guaranteed — silent corruption is impossible by
//! construction, which is what makes the recovery invariant (recovered
//! output is byte-identical to the fault-free run) hold at any fault
//! rate.
//!
//! Faults are drawn from a seeded counter-based hash over
//! `(seed, epoch, tile, attempt)`, so a given plan replays identically
//! regardless of scheduling — the property the `fault_storm` bench and
//! the recovery property tests rely on.

use std::fmt;

use crate::engine::SmxEngine;
use crate::kernel::MAX_VL;
use smx_align_core::{AlignError, Alignment, Cigar, Op};

/// The failure modes the plan can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A tile output border damaged in worker SRAM (byte smashed).
    BorderCorrupt,
    /// A worker hangs; the watchdog fires at the cycle deadline.
    WorkerStall,
    /// A single bit flips on the shared L2 port during a transfer.
    L2BitFlip,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FaultKind::BorderCorrupt => "border-corrupt",
            FaultKind::WorkerStall => "worker-stall",
            FaultKind::L2BitFlip => "l2-bit-flip",
        })
    }
}

/// How a detected fault was resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryAction {
    /// The tile was reissued after a backoff.
    Retried,
    /// Retries were exhausted; the core recomputed the tile in software.
    FellBack,
    /// Retries were exhausted and the policy forbids the software path;
    /// the error escalates to the orchestrator.
    Exhausted,
}

impl fmt::Display for RecoveryAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RecoveryAction::Retried => "retried",
            RecoveryAction::FellBack => "fell-back",
            RecoveryAction::Exhausted => "exhausted",
        })
    }
}

/// A cycle-stamped fault record for post-mortem analysis and the detailed
/// simulator's event log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Logical device cycle at which the fault was detected.
    pub cycle: u64,
    /// Epoch (block or traceback pass) the fault occurred in.
    pub epoch: u64,
    /// Tile row in the block's tile grid.
    pub ti: usize,
    /// Tile column in the block's tile grid.
    pub tj: usize,
    /// Zero-based attempt at which the fault fired.
    pub attempt: u32,
    /// The injected failure mode.
    pub kind: FaultKind,
    /// How recovery responded.
    pub action: RecoveryAction,
}

/// Shapes of *silent* readout corruption: damage applied to a finished
/// alignment as it crosses the result path back to the host, after every
/// border checksum and the device's internal re-verification have
/// passed. The device cannot detect these by construction — only an
/// independent host-side audit ([`Alignment::verify`]) can.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SilentKind {
    /// The reported score is skewed by a small nonzero delta while the
    /// CIGAR stays intact (score/CIGAR disagreement).
    ScoreSkew,
    /// One CIGAR run's operation is flipped (`=`↔`X`, `I`↔`D`), so the
    /// operations disagree with the actual symbols or consumption.
    OpFlip,
    /// One CIGAR run's length is inflated, so the path walks off the end
    /// of the query/reference (malformed run length).
    RunOverrun,
}

impl fmt::Display for SilentKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SilentKind::ScoreSkew => "score-skew",
            SilentKind::OpFlip => "op-flip",
            SilentKind::RunOverrun => "run-overrun",
        })
    }
}

/// A seeded, deterministic plan of which tile computations fault.
///
/// Draws are pure functions of `(seed, epoch, ti, tj, attempt)`: the same
/// plan replayed over the same work produces the same faults, independent
/// of scheduling or wall-clock. A fault that fires at attempt `k` persists
/// into attempt `k + 1` with probability [`persistence`](Self::persistence)
/// (transient faults clear on retry; stuck-at faults survive until the
/// software fallback takes over).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    rate: f64,
    persistence: f64,
    silent_rate: f64,
}

/// Salt distinguishing the fault-site draw from derived draws.
const SALT_SITE: u64 = 0x5157_u64;
/// Salt for the corruption-placement draw.
const SALT_CORRUPT: u64 = 0xC0FF_u64;
/// Salt for the fault-kind draw.
const SALT_KIND: u64 = 0x4B49_u64;
/// Salt for the silent readout-corruption draw.
const SALT_SILENT: u64 = 0x51E7_u64;

impl FaultPlan {
    /// A plan injecting faults at `rate` per tile transfer, seeded by
    /// `seed`. `rate` is clamped to `[0, 1]`; persistence defaults to
    /// 0.25 (three quarters of faults are transient).
    #[must_use]
    pub fn new(seed: u64, rate: f64) -> FaultPlan {
        FaultPlan { seed, rate: rate.clamp(0.0, 1.0), persistence: 0.25, silent_rate: 0.0 }
    }

    /// A plan that never faults (the fault-free baseline).
    #[must_use]
    pub fn none() -> FaultPlan {
        FaultPlan::new(0, 0.0)
    }

    /// Overrides the persistence probability (clamped to `[0, 1]`).
    #[must_use]
    pub fn with_persistence(mut self, persistence: f64) -> FaultPlan {
        self.persistence = persistence.clamp(0.0, 1.0);
        self
    }

    /// Enables silent readout corruption at `rate` per completed device
    /// alignment (clamped to `[0, 1]`). Unlike the detectable tile
    /// faults, these bypass every checksum — only a host-side audit
    /// catches them.
    #[must_use]
    pub fn with_silent_rate(mut self, rate: f64) -> FaultPlan {
        self.silent_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Re-seeds the plan, keeping every rate. Pool construction derives
    /// each device's plan from the template this way so the N simulated
    /// devices fault independently but reproducibly.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> FaultPlan {
        self.seed = seed;
        self
    }

    /// The plan's seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Per-tile-transfer fault probability.
    #[must_use]
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Probability a fired fault persists into the next attempt.
    #[must_use]
    pub fn persistence(&self) -> f64 {
        self.persistence
    }

    /// Per-alignment silent readout-corruption probability.
    #[must_use]
    pub fn silent_rate(&self) -> f64 {
        self.silent_rate
    }

    fn hash(&self, epoch: u64, ti: usize, tj: usize, salt: u64) -> u64 {
        // SplitMix64 finalization over the mixed coordinates; each input
        // is folded in through its own round so nearby sites decorrelate.
        let mut x = self.seed;
        for v in [epoch, ti as u64, tj as u64, salt] {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15).wrapping_add(v);
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^= x >> 31;
        }
        x
    }

    fn unit(h: u64) -> f64 {
        // 53 uniform bits into [0, 1).
        (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Whether (and how) the tile transfer `(epoch, ti, tj)` faults on
    /// `attempt`. Attempt 0 fires at [`rate`](Self::rate); attempt `k > 0`
    /// fires only if every earlier attempt fired and each persistence draw
    /// succeeded.
    #[must_use]
    pub fn draw(&self, epoch: u64, ti: usize, tj: usize, attempt: u32) -> Option<FaultKind> {
        if self.rate <= 0.0 {
            return None;
        }
        let site = self.hash(epoch, ti, tj, SALT_SITE);
        if Self::unit(site) >= self.rate {
            return None;
        }
        for a in 1..=attempt {
            let h = self.hash(epoch, ti, tj, SALT_SITE ^ (u64::from(a) << 16));
            if Self::unit(h) >= self.persistence {
                return None;
            }
        }
        let kind = self.hash(epoch, ti, tj, SALT_KIND);
        Some(match kind % 3 {
            0 => FaultKind::BorderCorrupt,
            1 => FaultKind::WorkerStall,
            _ => FaultKind::L2BitFlip,
        })
    }

    /// Whether (and how) the `readout`-th result readout is silently
    /// corrupted. Draws are pure functions of `(seed, readout)`.
    #[must_use]
    pub fn draw_silent(&self, readout: u64) -> Option<SilentKind> {
        if self.silent_rate <= 0.0 {
            return None;
        }
        let site = self.hash(readout, 0, 0, SALT_SILENT);
        if Self::unit(site) >= self.silent_rate {
            return None;
        }
        let kind = self.hash(readout, 1, 0, SALT_SILENT ^ SALT_KIND);
        Some(match kind % 3 {
            0 => SilentKind::ScoreSkew,
            1 => SilentKind::OpFlip,
            _ => SilentKind::RunOverrun,
        })
    }
}

/// Applies `kind`'s corruption to a finished alignment, placed by hash
/// `h`. Every shape is guaranteed to change the alignment in a way a
/// full [`Alignment::verify`] re-check catches: a nonzero score delta, a
/// run whose operation disagrees with the symbols or consumption, or a
/// run that overruns a sequence.
fn corrupt_alignment(aln: &mut Alignment, kind: SilentKind, h: u64) {
    let runs = aln.cigar.runs().to_vec();
    if runs.is_empty() || kind == SilentKind::ScoreSkew {
        // An empty CIGAR leaves only the score to damage.
        let delta = 1 + ((h >> 8) as i32 & 0x7);
        aln.score =
            if h & 1 == 0 { aln.score.wrapping_add(delta) } else { aln.score.wrapping_sub(delta) };
        return;
    }
    let target = (h as usize) % runs.len();
    let mut rebuilt = Cigar::new();
    for (i, &(op, n)) in runs.iter().enumerate() {
        if i != target {
            rebuilt.push_run(op, n);
            continue;
        }
        match kind {
            SilentKind::OpFlip => {
                let flipped = match op {
                    Op::Match => Op::Mismatch,
                    Op::Mismatch => Op::Match,
                    Op::Insert => Op::Delete,
                    Op::Delete => Op::Insert,
                };
                rebuilt.push_run(flipped, n);
            }
            SilentKind::RunOverrun => {
                rebuilt.push_run(op, n.saturating_add(1 + ((h >> 16) as u32 & 0x3)));
            }
            SilentKind::ScoreSkew => unreachable!("handled above"),
        }
    }
    aln.cigar = rebuilt;
}

/// Tile-level recovery policy: how hard the device tries before degrading.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Retries per tile before falling back (0 disables retry).
    pub max_retries: u32,
    /// Cycles of backoff added before each retry.
    pub backoff_cycles: u64,
    /// Watchdog deadline for a single tile computation, in cycles.
    pub watchdog_cycles: u64,
    /// Whether exhausted tiles are recomputed on the core's software path
    /// (`false` escalates [`AlignError::RecoveryExhausted`] instead).
    pub software_fallback: bool,
}

impl Default for RecoveryPolicy {
    fn default() -> RecoveryPolicy {
        RecoveryPolicy {
            max_retries: 2,
            backoff_cycles: 16,
            watchdog_cycles: 4096,
            software_fallback: true,
        }
    }
}

impl RecoveryPolicy {
    /// A policy that never retries and never falls back: every fault
    /// escalates. Useful for testing the fail-closed batch path.
    #[must_use]
    pub fn strict() -> RecoveryPolicy {
        RecoveryPolicy {
            max_retries: 0,
            backoff_cycles: 0,
            watchdog_cycles: 4096,
            software_fallback: false,
        }
    }
}

/// Counters accumulated by fault detection and recovery.
///
/// When `max_retries >= 1` the counters obey
/// `fallbacks <= retries <= faults_injected`: every fallback is preceded
/// by at least one retry of the same tile, and every retry is provoked by
/// a distinct fault firing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Tile computations requested (fault-free and faulty alike).
    pub tiles_computed: u64,
    /// Fault firings injected by the plan.
    pub faults_injected: u64,
    /// Faults caught by the checksum or watchdog (always equals
    /// `faults_injected`: detection has no escape path).
    pub faults_detected: u64,
    /// Tile reissues after a detected fault.
    pub retries: u64,
    /// Tiles recomputed on the core's software path.
    pub fallbacks: u64,
    /// Cycles spent on watchdog waits, backoff, and wasted attempts.
    pub cycles_lost: u64,
    /// Silent readout corruptions injected past the checksums. These are
    /// *not* counted in `faults_injected`/`faults_detected`: the device
    /// cannot detect them, only the service layer's audit can.
    pub silent_corruptions: u64,
}

impl RecoveryStats {
    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &RecoveryStats) {
        self.tiles_computed += other.tiles_computed;
        self.faults_injected += other.faults_injected;
        self.faults_detected += other.faults_detected;
        self.retries += other.retries;
        self.fallbacks += other.fallbacks;
        self.cycles_lost += other.cycles_lost;
        self.silent_corruptions += other.silent_corruptions;
    }

    /// The counter invariants that hold under any policy with
    /// `max_retries >= 1` (see the type-level docs).
    #[must_use]
    pub fn invariants_hold(&self) -> bool {
        self.faults_detected == self.faults_injected
            && self.fallbacks <= self.retries
            && self.retries <= self.faults_injected
    }
}

/// Fletcher-style checksum over tile border bytes, computed at the engine
/// output port and verified after the SRAM/L2 transfer.
///
/// A single smashed byte or flipped bit always changes the checksum (the
/// per-byte delta is in `±255`, never `0 mod 65521`), so the injected
/// corruptions of [`FaultKind`] are detected with certainty.
#[must_use]
pub fn border_checksum(dv: &[u8], dh: &[u8]) -> u32 {
    let mut s1: u32 = 1;
    let mut s2: u32 = 0;
    for &b in dv.iter().chain(dh.iter()) {
        s1 = (s1 + u32::from(b)) % 65521;
        s2 = (s2 + s1) % 65521;
    }
    (s2 << 16) | s1
}

/// Applies `kind`'s corruption to a border pair, placed by hash `h`.
/// `WorkerStall` does not corrupt data (the tile never completes).
fn corrupt_borders(dv: &mut [u8], dh: &mut [u8], kind: FaultKind, h: u64) {
    let total = dv.len() + dh.len();
    if total == 0 {
        return;
    }
    let idx = (h as usize) % total;
    let byte = if idx < dv.len() { &mut dv[idx] } else { &mut dh[idx - dv.len()] };
    match kind {
        // Smash the byte by a nonzero delta in 1..=8.
        FaultKind::BorderCorrupt => *byte = byte.wrapping_add(1 + ((h >> 32) as u8 & 0x7)),
        FaultKind::L2BitFlip => *byte ^= 1 << ((h >> 32) & 7),
        FaultKind::WorkerStall => {}
    }
}

/// Upper bound on retained fault events; beyond it only counters grow.
const MAX_EVENTS: usize = 4096;

/// Live fault-injection state threaded through block compute and
/// traceback: the plan, the recovery policy, accumulated statistics, the
/// cycle-stamped event log, and a logical cycle counter.
#[derive(Debug, Clone)]
pub struct FaultSession {
    plan: FaultPlan,
    policy: RecoveryPolicy,
    stats: RecoveryStats,
    events: Vec<FaultEvent>,
    events_dropped: u64,
    cycle: u64,
    epoch: u64,
    readouts: u64,
}

impl FaultSession {
    /// A session running `plan` under `policy`.
    #[must_use]
    pub fn new(plan: FaultPlan, policy: RecoveryPolicy) -> FaultSession {
        FaultSession {
            plan,
            policy,
            stats: RecoveryStats::default(),
            events: Vec::new(),
            events_dropped: 0,
            cycle: 0,
            epoch: 0,
            readouts: 0,
        }
    }

    /// The plan being injected.
    #[must_use]
    pub fn plan(&self) -> FaultPlan {
        self.plan
    }

    /// The active recovery policy.
    #[must_use]
    pub fn policy(&self) -> RecoveryPolicy {
        self.policy
    }

    /// Accumulated counters.
    #[must_use]
    pub fn stats(&self) -> RecoveryStats {
        self.stats
    }

    /// The retained fault events (oldest first, capped).
    #[must_use]
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Events dropped past the retention cap.
    #[must_use]
    pub fn events_dropped(&self) -> u64 {
        self.events_dropped
    }

    /// Drains the retained event log.
    pub fn take_events(&mut self) -> Vec<FaultEvent> {
        std::mem::take(&mut self.events)
    }

    /// The logical device cycle.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Starts a new epoch (one block computation or traceback pass) so
    /// repeated work over the same tile grid sees fresh draws.
    pub fn begin_epoch(&mut self) -> u64 {
        self.epoch += 1;
        self.epoch
    }

    /// Runs one finished device alignment through the (possibly faulty)
    /// result readout path. When the plan's silent rate fires, the
    /// alignment is corrupted *after* all device-side verification — no
    /// checksum sees it — and the shape of the damage is returned so
    /// harnesses can assert on it. The corruption counter is the only
    /// device-side trace; detection is entirely the auditor's job.
    pub fn corrupt_readout(&mut self, aln: &mut Alignment) -> Option<SilentKind> {
        self.readouts += 1;
        let kind = self.plan.draw_silent(self.readouts)?;
        let h = self.plan.hash(self.readouts, 2, 0, SALT_SILENT ^ SALT_CORRUPT);
        corrupt_alignment(aln, kind, h);
        self.stats.silent_corruptions += 1;
        Some(kind)
    }

    fn push_event(&mut self, event: FaultEvent) {
        if self.events.len() < MAX_EVENTS {
            self.events.push(event);
        } else {
            self.events_dropped += 1;
        }
    }

    /// Latency charged for one tile issue + drain (engine fill plus one
    /// antidiagonal sweep).
    fn tile_latency(engine: &SmxEngine) -> u64 {
        u64::from(engine.pipeline_depth()) + engine.tile_dim() as u64
    }

    /// Runs one tile computation under the fault plan: compute, checksum
    /// at the engine output, transfer (where corruption strikes), verify,
    /// and retry or fall back per the policy. Like
    /// [`SmxEngine::compute_tile`], `dv`/`dh` enter as the left/top input
    /// borders and leave as the right/bottom outputs; every attempt
    /// restarts from a copy of the inputs.
    ///
    /// # Errors
    ///
    /// Propagates engine errors; returns [`AlignError::RecoveryExhausted`]
    /// when retries run out and the policy forbids the software fallback.
    #[allow(clippy::too_many_arguments)] // mirrors SmxEngine::compute_tile plus the fault site
    pub fn run_tile(
        &mut self,
        engine: &SmxEngine,
        q_seg: &[u8],
        r_seg: &[u8],
        dv: &mut [u8],
        dh: &mut [u8],
        epoch: u64,
        ti: usize,
        tj: usize,
    ) -> Result<(), AlignError> {
        let (rows, cols) = (dv.len(), dh.len());
        engine.check_tile(q_seg, r_seg, rows, cols)?;
        let (mut dv_in, mut dh_in) = ([0u8; MAX_VL], [0u8; MAX_VL]);
        dv_in[..rows].copy_from_slice(dv);
        dh_in[..cols].copy_from_slice(dh);
        let compute = |dv: &mut [u8], dh: &mut [u8]| {
            dv.copy_from_slice(&dv_in[..rows]);
            dh.copy_from_slice(&dh_in[..cols]);
            engine.compute_tile(q_seg, r_seg, dv, dh)
        };
        self.stats.tiles_computed += 1;
        let latency = Self::tile_latency(engine);
        let mut attempt: u32 = 0;
        loop {
            let kind = match self.plan.draw(epoch, ti, tj, attempt) {
                None => {
                    // Fault-free attempt: the transfer is clean.
                    compute(dv, dh)?;
                    self.cycle += latency;
                    return Ok(());
                }
                Some(kind) => kind,
            };
            self.stats.faults_injected += 1;
            match kind {
                FaultKind::WorkerStall => {
                    // The worker hangs; the watchdog fires at the deadline.
                    self.cycle += self.policy.watchdog_cycles;
                    self.stats.cycles_lost += self.policy.watchdog_cycles;
                }
                FaultKind::BorderCorrupt | FaultKind::L2BitFlip => {
                    compute(dv, dh)?;
                    let source = border_checksum(dv, dh);
                    let h = self.plan.hash(epoch, ti, tj, SALT_CORRUPT ^ u64::from(attempt));
                    corrupt_borders(dv, dh, kind, h);
                    let received = border_checksum(dv, dh);
                    if received == source {
                        // Unreachable with the corruptions above; a passing
                        // checksum on corrupted data would be silent
                        // corruption, which must never be swallowed.
                        return Err(AlignError::Internal(format!(
                            "corrupted tile ({ti}, {tj}) passed its checksum"
                        )));
                    }
                    self.cycle += latency;
                    self.stats.cycles_lost += latency;
                }
            }
            self.stats.faults_detected += 1;
            attempt = self.resolve(kind, epoch, ti, tj, attempt, |s| {
                // Core-side software recompute of the same tile: bit-exact
                // by construction (the functional engine is the reference).
                s.stats.fallbacks += 1;
            })?;
            if attempt == u32::MAX {
                return compute(dv, dh);
            }
        }
    }

    /// Re-reads a stored tile input border through the (possibly faulty)
    /// L2 port into `dv`/`dh`, verifying it against the checksum recorded
    /// when the worker stored it. The fallback path re-fetches through the
    /// core's coherent load path, which bypasses the L2 fault site.
    ///
    /// # Errors
    ///
    /// Returns [`AlignError::RecoveryExhausted`] when retries run out and
    /// the policy forbids the fallback path.
    ///
    /// # Panics
    ///
    /// Panics if `dv`/`dh` differ in length from `stored_dv`/`stored_dh`.
    #[allow(clippy::too_many_arguments)] // the fault site plus the stored and fetched borders
    pub fn fetch_input(
        &mut self,
        epoch: u64,
        ti: usize,
        tj: usize,
        stored_dv: &[u8],
        stored_dh: &[u8],
        dv: &mut [u8],
        dh: &mut [u8],
    ) -> Result<(), AlignError> {
        let source = border_checksum(stored_dv, stored_dh);
        let mut attempt: u32 = 0;
        loop {
            dv.copy_from_slice(stored_dv);
            dh.copy_from_slice(stored_dh);
            let kind = match self.plan.draw(epoch, ti, tj, attempt) {
                None => {
                    self.cycle += 1;
                    return Ok(());
                }
                Some(kind) => kind,
            };
            self.stats.faults_injected += 1;
            match kind {
                FaultKind::WorkerStall => {
                    // Stalled port arbiter: the read never completes.
                    self.cycle += self.policy.watchdog_cycles;
                    self.stats.cycles_lost += self.policy.watchdog_cycles;
                }
                FaultKind::BorderCorrupt | FaultKind::L2BitFlip => {
                    let h = self.plan.hash(epoch, ti, tj, SALT_CORRUPT ^ u64::from(attempt));
                    corrupt_borders(dv, dh, kind, h);
                    if border_checksum(dv, dh) == source {
                        return Err(AlignError::Internal(format!(
                            "corrupted border read ({ti}, {tj}) passed its checksum"
                        )));
                    }
                    self.cycle += 1;
                    self.stats.cycles_lost += 1;
                }
            }
            self.stats.faults_detected += 1;
            attempt = self.resolve(kind, epoch, ti, tj, attempt, |s| {
                s.stats.fallbacks += 1;
            })?;
            if attempt == u32::MAX {
                dv.copy_from_slice(stored_dv);
                dh.copy_from_slice(stored_dh);
                return Ok(());
            }
        }
    }

    /// Shared retry/fallback resolution. Returns the next attempt number,
    /// `u32::MAX` to signal "take the fallback path now", or the
    /// escalation error.
    fn resolve(
        &mut self,
        kind: FaultKind,
        epoch: u64,
        ti: usize,
        tj: usize,
        attempt: u32,
        on_fallback: impl FnOnce(&mut FaultSession),
    ) -> Result<u32, AlignError> {
        if attempt < self.policy.max_retries {
            self.stats.retries += 1;
            self.cycle += self.policy.backoff_cycles;
            self.stats.cycles_lost += self.policy.backoff_cycles;
            self.push_event(FaultEvent {
                cycle: self.cycle,
                epoch,
                ti,
                tj,
                attempt,
                kind,
                action: RecoveryAction::Retried,
            });
            return Ok(attempt + 1);
        }
        if self.policy.software_fallback {
            on_fallback(self);
            self.push_event(FaultEvent {
                cycle: self.cycle,
                epoch,
                ti,
                tj,
                attempt,
                kind,
                action: RecoveryAction::FellBack,
            });
            return Ok(u32::MAX);
        }
        self.push_event(FaultEvent {
            cycle: self.cycle,
            epoch,
            ti,
            tj,
            attempt,
            kind,
            action: RecoveryAction::Exhausted,
        });
        Err(AlignError::RecoveryExhausted { ti, tj, retries: attempt })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smx_align_core::AlignmentConfig;

    #[test]
    fn draws_are_deterministic() {
        let plan = FaultPlan::new(42, 0.1);
        for epoch in 0..4 {
            for ti in 0..8 {
                for tj in 0..8 {
                    for attempt in 0..3 {
                        assert_eq!(
                            plan.draw(epoch, ti, tj, attempt),
                            plan.draw(epoch, ti, tj, attempt)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn zero_rate_never_fires() {
        let plan = FaultPlan::none();
        for ti in 0..32 {
            assert_eq!(plan.draw(1, ti, ti, 0), None);
        }
    }

    #[test]
    fn rate_one_always_fires() {
        let plan = FaultPlan::new(7, 1.0);
        for ti in 0..32 {
            assert!(plan.draw(1, ti, 0, 0).is_some());
        }
    }

    #[test]
    fn empirical_rate_tracks_nominal() {
        let plan = FaultPlan::new(9, 0.05);
        let fired = (0..20_000).filter(|&i| plan.draw(0, i, 0, 0).is_some()).count();
        // 5% of 20k = 1000; allow generous sampling slack.
        assert!((700..1300).contains(&fired), "fired {fired}");
    }

    #[test]
    fn persistence_gates_later_attempts() {
        // A fault can only persist where attempt 0 fired.
        let plan = FaultPlan::new(3, 0.2).with_persistence(0.5);
        for i in 0..2000 {
            if plan.draw(0, i, 0, 1).is_some() {
                assert!(plan.draw(0, i, 0, 0).is_some(), "site {i}");
            }
        }
        // Zero persistence: nothing survives to attempt 1.
        let transient = FaultPlan::new(3, 0.5).with_persistence(0.0);
        for i in 0..2000 {
            assert_eq!(transient.draw(0, i, 0, 1), None);
        }
    }

    #[test]
    fn checksum_detects_single_byte_and_bit_damage() {
        let dv: Vec<u8> = (0..32).collect();
        let dh: Vec<u8> = (100..150).collect();
        let clean = border_checksum(&dv, &dh);
        for idx in 0..dv.len() + dh.len() {
            let (mut cdv, mut cdh) = (dv.clone(), dh.clone());
            let h = (idx as u64) | (1u64 << 32);
            corrupt_borders(&mut cdv, &mut cdh, FaultKind::BorderCorrupt, h);
            assert_ne!(border_checksum(&cdv, &cdh), clean, "byte smash at {idx}");
            let (mut fdv, mut fdh) = (dv.clone(), dh.clone());
            corrupt_borders(&mut fdv, &mut fdh, FaultKind::L2BitFlip, h);
            assert_ne!(border_checksum(&fdv, &fdh), clean, "bit flip at {idx}");
        }
    }

    #[test]
    fn run_tile_recovers_bit_exact_output() {
        let cfg = AlignmentConfig::DnaGap;
        let engine = SmxEngine::new(cfg.element_width(), &cfg.scoring()).unwrap();
        let q: Vec<u8> = (0..16).map(|i| (i % 4) as u8).collect();
        let r: Vec<u8> = (0..16).map(|i| (i % 3) as u8).collect();
        let (mut clean_dv, mut clean_dh) = ([0u8; 16], [0u8; 16]);
        engine.compute_tile(&q, &r, &mut clean_dv, &mut clean_dh).unwrap();
        // Force the fault to fire every attempt so the fallback engages.
        let plan = FaultPlan::new(11, 1.0).with_persistence(1.0);
        let mut session = FaultSession::new(plan, RecoveryPolicy::default());
        let (mut dv, mut dh) = ([0u8; 16], [0u8; 16]);
        session.run_tile(&engine, &q, &r, &mut dv, &mut dh, 1, 0, 0).unwrap();
        assert_eq!((dv, dh), (clean_dv, clean_dh));
        let stats = session.stats();
        assert_eq!(stats.fallbacks, 1);
        assert_eq!(stats.retries, u64::from(RecoveryPolicy::default().max_retries));
        assert!(stats.invariants_hold(), "{stats:?}");
        assert!(!session.events().is_empty());
        assert!(session.cycle() > 0);
    }

    #[test]
    fn strict_policy_escalates() {
        let cfg = AlignmentConfig::DnaGap;
        let engine = SmxEngine::new(cfg.element_width(), &cfg.scoring()).unwrap();
        let q = vec![0u8; 8];
        let plan = FaultPlan::new(5, 1.0).with_persistence(1.0);
        let mut session = FaultSession::new(plan, RecoveryPolicy::strict());
        let err = session.run_tile(&engine, &q, &q, &mut [0; 8], &mut [0; 8], 1, 2, 3).unwrap_err();
        assert!(matches!(err, AlignError::RecoveryExhausted { ti: 2, tj: 3, .. }));
        assert!(err.is_recoverable_fault());
    }

    #[test]
    fn fetch_input_recovers_stored_borders() {
        let (stored_dv, stored_dh) = ([1u8, 2, 3, 4], [5u8, 6, 7]);
        let plan = FaultPlan::new(21, 1.0).with_persistence(1.0);
        let mut session = FaultSession::new(plan, RecoveryPolicy::default());
        let (mut dv, mut dh) = ([0u8; 4], [0u8; 3]);
        session.fetch_input(1, 0, 0, &stored_dv, &stored_dh, &mut dv, &mut dh).unwrap();
        assert_eq!((dv, dh), (stored_dv, stored_dh));
        assert!(session.stats().invariants_hold());
    }

    #[test]
    fn transient_fault_clears_on_retry() {
        let cfg = AlignmentConfig::DnaGap;
        let engine = SmxEngine::new(cfg.element_width(), &cfg.scoring()).unwrap();
        let q = vec![0u8; 8];
        let (mut clean_dv, mut clean_dh) = ([0u8; 8], [0u8; 8]);
        engine.compute_tile(&q, &q, &mut clean_dv, &mut clean_dh).unwrap();
        // Fires on attempt 0, never persists: one retry suffices.
        let plan = FaultPlan::new(13, 1.0).with_persistence(0.0);
        let mut session = FaultSession::new(plan, RecoveryPolicy::default());
        let (mut dv, mut dh) = ([0u8; 8], [0u8; 8]);
        session.run_tile(&engine, &q, &q, &mut dv, &mut dh, 1, 0, 0).unwrap();
        assert_eq!((dv, dh), (clean_dv, clean_dh));
        let stats = session.stats();
        assert_eq!(stats.retries, 1);
        assert_eq!(stats.fallbacks, 0);
    }

    #[test]
    fn silent_draws_are_deterministic_and_gated_by_rate() {
        let plan = FaultPlan::new(17, 0.0).with_silent_rate(0.3);
        for readout in 0..256 {
            assert_eq!(plan.draw_silent(readout), plan.draw_silent(readout));
        }
        let off = FaultPlan::new(17, 0.5);
        assert!((0..256).all(|r| off.draw_silent(r).is_none()), "default silent rate is 0");
        let always = FaultPlan::new(17, 0.0).with_silent_rate(1.0);
        assert!((1..64).all(|r| always.draw_silent(r).is_some()));
    }

    #[test]
    fn with_seed_changes_draws_but_keeps_rates() {
        let a = FaultPlan::new(1, 0.3).with_persistence(0.7).with_silent_rate(0.2);
        let b = a.with_seed(2);
        assert_eq!(b.seed(), 2);
        assert_eq!(b.rate(), a.rate());
        assert_eq!(b.persistence(), a.persistence());
        assert_eq!(b.silent_rate(), a.silent_rate());
        let differs = (0..512).any(|t| a.draw(0, t, 0, 0) != b.draw(0, t, 0, 0));
        assert!(differs, "reseeding must decorrelate the fault sites");
    }

    #[test]
    fn every_silent_corruption_shape_is_caught_by_a_full_audit() {
        use smx_align_core::ScoringScheme;
        let scheme = ScoringScheme::edit();
        let q = vec![0u8, 1, 2, 3, 0, 1];
        let r = vec![0u8, 1, 2, 0, 0, 1];
        let clean = smx_align_core::dp::align_codes(&q, &r, &scheme);
        clean.verify(&q, &r, &scheme).unwrap();
        for kind in [SilentKind::ScoreSkew, SilentKind::OpFlip, SilentKind::RunOverrun] {
            for h in 0..64u64 {
                let mut aln = clean.clone();
                corrupt_alignment(&mut aln, kind, h);
                assert_ne!(
                    (aln.score, aln.cigar.to_string()),
                    (clean.score, clean.cigar.to_string()),
                    "{kind} h={h} must change the alignment"
                );
                assert!(
                    aln.verify(&q, &r, &scheme).is_err(),
                    "{kind} h={h} must fail re-verification"
                );
            }
        }
    }

    #[test]
    fn corrupt_readout_counts_but_stays_invisible_to_detection_counters() {
        let plan = FaultPlan::new(5, 0.0).with_silent_rate(1.0);
        let mut session = FaultSession::new(plan, RecoveryPolicy::default());
        let mut aln = Alignment { score: 3, cigar: Cigar::parse("3=").unwrap() };
        let clean = aln.clone();
        assert!(session.corrupt_readout(&mut aln).is_some());
        assert_ne!((aln.score, aln.cigar.to_string()), (clean.score, clean.cigar.to_string()));
        let stats = session.stats();
        assert_eq!(stats.silent_corruptions, 1);
        assert_eq!(stats.faults_injected, 0, "silent faults bypass detection");
        assert_eq!(stats.faults_detected, 0);
        assert!(stats.invariants_hold());
        assert!(session.events().is_empty(), "the device cannot log what it cannot see");
    }

    #[test]
    fn event_log_is_capped() {
        let mut session = FaultSession::new(FaultPlan::none(), RecoveryPolicy::default());
        for i in 0..(MAX_EVENTS + 10) {
            session.push_event(FaultEvent {
                cycle: i as u64,
                epoch: 0,
                ti: 0,
                tj: 0,
                attempt: 0,
                kind: FaultKind::L2BitFlip,
                action: RecoveryAction::Retried,
            });
        }
        assert_eq!(session.events().len(), MAX_EVENTS);
        assert_eq!(session.events_dropped(), 10);
        assert_eq!(session.take_events().len(), MAX_EVENTS);
        assert!(session.events().is_empty());
    }
}
