//! Multi-device pool with result auditing, health scoring, quarantine,
//! and canary requalification (DESIGN.md §6).
//!
//! The service layer of PR 2 supervised exactly one [`SmxDevice`]. This
//! module generalizes it to a pool of N simulated devices, each with its
//! own independently seeded fault plan and its own circuit breaker, and
//! adds the two defenses a lone breaker cannot provide:
//!
//! * **A result scoreboard** — every device-produced alignment can be
//!   re-verified on the host ([`Alignment::verify`]: CIGAR
//!   well-formedness, operation/symbol agreement, score recomputation)
//!   at a configurable sampling rate. The audit is the only defense
//!   against *silent* readout corruption, which by construction passes
//!   every device-side checksum.
//! * **Health quarantine** — each device carries an EWMA health score
//!   over fault/integrity/deadline events. A device whose score crosses
//!   the quarantine threshold is removed from dispatch and periodically
//!   re-probed with canary pairs (known-answer alignments); only a
//!   streak of clean canaries readmits it.
//!
//! The pool decides *where* a pair runs, never *what* it computes: every
//! path (any device, with or without recovery, or the software baseline)
//! produces byte-identical alignments, so routing, quarantine, and
//! hedging are invisible in the output.

use std::sync::Mutex;
use std::time::Duration;

use smx_algos::simd::{self, Baseline, SimdWorkspace};
use smx_align_core::{AlignError, Alignment, ScoringScheme, Sequence};

use crate::orchestrator::SmxDevice;
use crate::service::{Breaker, BreakerConfig, BreakerSnapshot, Route};

/// Result-audit (scoreboard) tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AuditConfig {
    /// Fraction of device-produced alignments audited, in `[0, 1]`.
    /// `1.0` audits everything (full scoreboard).
    pub rate: f64,
    /// Seed for the per-pair sampling hash, so which pairs are audited
    /// is a pure function of `(seed, pair index)` — independent of
    /// scheduling, reproducible across runs.
    pub seed: u64,
}

impl AuditConfig {
    /// Audit every device-produced alignment.
    #[must_use]
    pub fn full() -> AuditConfig {
        AuditConfig { rate: 1.0, seed: 0 }
    }

    /// Whether pair `index` is sampled for audit.
    #[must_use]
    pub(crate) fn samples(&self, index: usize) -> bool {
        if self.rate >= 1.0 {
            return true;
        }
        if self.rate <= 0.0 {
            return false;
        }
        // SplitMix64 finalization over (seed, index).
        let mut x = self.seed.wrapping_add(0x9E37_79B9_7F4A_7C15).wrapping_add(index as u64);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        ((x >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < self.rate
    }
}

/// Health-scoring and quarantine tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuarantineConfig {
    /// EWMA smoothing factor in `(0, 1]`: the weight of the newest
    /// pair's outcome in the health score.
    pub alpha: f64,
    /// Health score (EWMA of the failure indicator, in `[0, 1]`) at
    /// which a device is quarantined.
    pub threshold: f64,
    /// Minimum device pairs observed before quarantine may trigger.
    pub min_samples: u64,
    /// Pool dispatches between canary probes of a quarantined device.
    pub canary_period: u64,
    /// Consecutive clean canaries required for readmission.
    pub canary_probes: u64,
}

impl Default for QuarantineConfig {
    fn default() -> QuarantineConfig {
        QuarantineConfig {
            alpha: 0.25,
            threshold: 0.5,
            min_samples: 8,
            canary_period: 16,
            canary_probes: 2,
        }
    }
}

/// When a pair is considered "stuck" and hedged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HedgeTrigger {
    /// Hedge any pair still running after this fixed budget.
    After(Duration),
    /// Hedge past an observed latency quantile: once `min_samples`
    /// primary completions have been recorded, the threshold is the p95
    /// completion latency times `multiplier`. Before that, no hedging.
    P95 {
        /// Completions required before the quantile is trusted.
        min_samples: usize,
        /// Safety factor applied to the observed p95.
        multiplier: f64,
    },
}

/// Hedged-execution tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HedgeConfig {
    /// The latency trigger past which a pair is hedged.
    pub trigger: HedgeTrigger,
}

impl HedgeConfig {
    /// Hedge after a fixed per-pair budget.
    #[must_use]
    pub fn after(budget: Duration) -> HedgeConfig {
        HedgeConfig { trigger: HedgeTrigger::After(budget) }
    }

    /// Hedge past 2× the observed p95 completion latency (engages after
    /// 32 completions).
    #[must_use]
    pub fn p95() -> HedgeConfig {
        HedgeConfig { trigger: HedgeTrigger::P95 { min_samples: 32, multiplier: 2.0 } }
    }
}

/// Per-device counters and final state, reported in `ServiceStats`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeviceStats {
    /// Pairs that ran on this device (primary attempts and probes).
    pub pairs: u64,
    /// Pairs during which the device injected at least one detectable
    /// fault, or that failed with a recoverable device fault.
    pub faulted_pairs: u64,
    /// Audit failures attributed to this device (primary and retry
    /// attempts counted separately).
    pub integrity_violations: u64,
    /// Pairs on this device that hit a deadline or hedge trigger.
    pub deadline_events: u64,
    /// Times this device was quarantined.
    pub quarantines: u64,
    /// Times this device was readmitted after clean canaries.
    pub readmissions: u64,
    /// Canary probes run against this device while quarantined.
    pub canary_runs: u64,
    /// Canary probes that failed (fault, error, or wrong answer).
    pub canary_failures: u64,
    /// Final EWMA health score (0 = healthy, 1 = every recent pair bad).
    pub health: f64,
    /// Whether the device ended the batch quarantined.
    pub quarantined: bool,
    /// Final state of this device's breaker, when one was configured.
    pub breaker: Option<BreakerSnapshot>,
}

/// Where the pool routed one pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Dispatch {
    /// A device was selected; `route` is its breaker's verdict (device,
    /// half-open probe, or software while the breaker is open).
    Device {
        /// Pool index of the selected device.
        id: usize,
        /// The selected device's breaker route for this pair.
        route: Route,
    },
    /// Every device is quarantined: the pair runs on the software
    /// baseline unconditionally.
    Software,
}

/// Everything that happened to one pair on its device, fed back into the
/// breaker, the health score, and the counters in one lock acquisition.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct OutcomeEvents {
    /// The device injected a detectable fault or failed with a
    /// recoverable device fault.
    pub faulted: bool,
    /// Audit failures during this pair (0, 1, or 2 with the retry).
    pub integrity: u32,
    /// The pair hit its deadline or hedge trigger on this device.
    pub deadline: bool,
    /// Audits run for this pair.
    pub audits: u32,
    /// The pair was recomputed on the software baseline after the audit
    /// retry also failed.
    pub recomputed: bool,
    /// A hedge backup was launched for this pair.
    pub hedge_launched: bool,
    /// The hedge backup produced the pair's result.
    pub hedge_won: bool,
}

/// Pool-level counters not attributable to a single device.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct PoolCounters {
    pub audits_run: u64,
    pub integrity_recomputed: u64,
    pub hedges_launched: u64,
    pub hedges_won: u64,
}

/// The routing/health state machine, separated from the devices so it is
/// unit-testable with scripted outcomes. All methods take `&mut self`;
/// [`DevicePool`] serializes access behind one mutex.
#[derive(Debug)]
pub(crate) struct PoolHealth {
    slots: Vec<Slot>,
    breaker_cfg: Option<BreakerConfig>,
    quarantine: Option<QuarantineConfig>,
    rr: usize,
    dispatches: u64,
    counters: PoolCounters,
    latencies: Vec<Duration>,
    lat_next: usize,
}

#[derive(Debug)]
struct Slot {
    breaker: Option<Breaker>,
    health: f64,
    samples: u64,
    quarantined: bool,
    canary_streak: u64,
    next_canary_at: u64,
    stats: DeviceStats,
}

/// Completion latencies retained for the p95 hedge trigger.
const LATENCY_WINDOW: usize = 128;

impl PoolHealth {
    pub(crate) fn new(
        devices: usize,
        breaker_cfg: Option<BreakerConfig>,
        quarantine: Option<QuarantineConfig>,
    ) -> PoolHealth {
        let slots = (0..devices)
            .map(|_| Slot {
                breaker: breaker_cfg.map(Breaker::new),
                health: 0.0,
                samples: 0,
                quarantined: false,
                canary_streak: 0,
                next_canary_at: 0,
                stats: DeviceStats::default(),
            })
            .collect();
        PoolHealth {
            slots,
            breaker_cfg,
            quarantine,
            rr: 0,
            dispatches: 0,
            counters: PoolCounters::default(),
            latencies: Vec::new(),
            lat_next: 0,
        }
    }

    /// Picks the next pair's device round-robin over non-quarantined
    /// devices, and lets its breaker choose the route.
    pub(crate) fn dispatch(&mut self) -> Dispatch {
        self.dispatches += 1;
        let n = self.slots.len();
        for k in 0..n {
            let id = (self.rr + k) % n;
            // LINT: allow(panic) id = (rr + k) % slots.len() is always in bounds
            if self.slots[id].quarantined {
                continue;
            }
            self.rr = (id + 1) % n;
            // LINT: allow(panic) id = (rr + k) % slots.len() is always in bounds
            let route = match &mut self.slots[id].breaker {
                Some(b) => b.route(),
                None => Route::Device,
            };
            return Dispatch::Device { id, route };
        }
        Dispatch::Software
    }

    /// Feeds one pair's outcome back: breaker window, EWMA health,
    /// per-device and pool counters, and the quarantine decision.
    pub(crate) fn record(&mut self, id: usize, route: Route, ev: OutcomeEvents) {
        self.counters.audits_run += u64::from(ev.audits);
        self.counters.integrity_recomputed += u64::from(ev.recomputed);
        self.counters.hedges_launched += u64::from(ev.hedge_launched);
        self.counters.hedges_won += u64::from(ev.hedge_won);
        if route == Route::Software {
            // The pair never touched the device; its outcome says
            // nothing about device health.
            return;
        }
        let q = self.quarantine;
        // LINT: allow(panic) id comes from Dispatch::Device, produced by dispatch() from slots indices
        let slot = &mut self.slots[id];
        slot.stats.pairs += 1;
        if ev.faulted {
            slot.stats.faulted_pairs += 1;
        }
        slot.stats.integrity_violations += u64::from(ev.integrity);
        if ev.deadline {
            slot.stats.deadline_events += 1;
        }
        if let Some(b) = &mut slot.breaker {
            // Integrity violations are device sickness; deadlines are
            // not (breaking on overload would mask it as device failure,
            // the documented invariant from PR 2).
            b.record(route, ev.faulted || ev.integrity > 0);
        }
        let q = match q {
            Some(q) => q,
            None => return,
        };
        let bad = ev.faulted || ev.integrity > 0 || ev.deadline;
        slot.health = q.alpha * f64::from(u8::from(bad)) + (1.0 - q.alpha) * slot.health;
        slot.samples += 1;
        if !slot.quarantined && slot.samples >= q.min_samples && slot.health >= q.threshold {
            slot.quarantined = true;
            slot.stats.quarantines += 1;
            slot.canary_streak = 0;
            slot.next_canary_at = self.dispatches + q.canary_period;
        }
    }

    /// Claims a quarantined device that is due for a canary probe,
    /// advancing its next-probe clock so concurrent workers cannot claim
    /// it twice. Returns `(device, canary rotation index)`.
    pub(crate) fn claim_canary(&mut self) -> Option<(usize, u64)> {
        let q = self.quarantine?;
        let now = self.dispatches;
        for (id, slot) in self.slots.iter_mut().enumerate() {
            if slot.quarantined && now >= slot.next_canary_at {
                slot.next_canary_at = now + q.canary_period;
                let rotation = slot.stats.canary_runs;
                slot.stats.canary_runs += 1;
                return Some((id, rotation));
            }
        }
        None
    }

    /// Feeds back one canary verdict; a streak of clean canaries
    /// readmits the device with fresh health and a fresh breaker.
    pub(crate) fn record_canary(&mut self, id: usize, passed: bool) {
        let q = match self.quarantine {
            Some(q) => q,
            None => return,
        };
        let breaker_cfg = self.breaker_cfg;
        // LINT: allow(panic) id comes from claim_canary's enumerate over slots
        let slot = &mut self.slots[id];
        if !passed {
            slot.stats.canary_failures += 1;
            slot.canary_streak = 0;
            return;
        }
        slot.canary_streak += 1;
        if slot.canary_streak >= q.canary_probes {
            slot.quarantined = false;
            slot.health = 0.0;
            slot.samples = 0;
            slot.stats.readmissions += 1;
            // A stale pre-quarantine fault window must not instantly
            // re-trip the breaker on readmission.
            slot.breaker = breaker_cfg.map(Breaker::new);
        }
    }

    /// Records one successful primary completion latency (the p95 hedge
    /// trigger's sample stream).
    pub(crate) fn record_latency(&mut self, latency: Duration) {
        if self.latencies.len() < LATENCY_WINDOW {
            self.latencies.push(latency);
        } else {
            // LINT: allow(panic) lat_next < LATENCY_WINDOW == latencies.len() once the window is full
            self.latencies[self.lat_next] = latency;
            self.lat_next = (self.lat_next + 1) % LATENCY_WINDOW;
        }
    }

    /// The current hedge budget, if the trigger is armed.
    pub(crate) fn hedge_threshold(&self, cfg: &HedgeConfig) -> Option<Duration> {
        match cfg.trigger {
            HedgeTrigger::After(budget) => Some(budget),
            HedgeTrigger::P95 { min_samples, multiplier } => {
                if self.latencies.len() < min_samples.max(1) {
                    return None;
                }
                let mut sorted = self.latencies.clone();
                sorted.sort_unstable();
                let idx = (sorted.len() * 95 / 100).min(sorted.len() - 1);
                // LINT: allow(panic) idx = min(len*95/100, len-1) and len >= 1 is checked above
                Some(sorted[idx].mul_f64(multiplier))
            }
        }
    }

    /// Whether device `id` is currently quarantined.
    #[cfg(test)]
    pub(crate) fn is_quarantined(&self, id: usize) -> bool {
        self.slots[id].quarantined
    }

    /// Per-device stats and pool counters so far: the live view the
    /// server's `/stats` reads and the final one a batch reports.
    pub(crate) fn snapshot(&self) -> (Vec<DeviceStats>, PoolCounters) {
        let stats = self
            .slots
            .iter()
            .map(|slot| DeviceStats {
                health: slot.health,
                quarantined: slot.quarantined,
                breaker: slot
                    .breaker
                    .as_ref()
                    .map(|b| BreakerSnapshot { state: b.state(), transitions: b.transitions() }),
                ..slot.stats.clone()
            })
            .collect();
        (stats, self.counters)
    }
}

/// A known-answer canary pair: the two sequences plus the golden
/// alignment the device must reproduce byte-identically.
#[derive(Debug, Clone)]
struct Canary {
    query: Sequence,
    reference: Sequence,
    golden: Alignment,
}

/// The supervised device pool: N independently seeded devices behind
/// per-device mutexes, the routing/health state machine behind one more,
/// and the canary set computed once on the software baseline.
#[derive(Debug)]
pub(crate) struct DevicePool {
    devices: Vec<Mutex<SmxDevice>>,
    health: Mutex<PoolHealth>,
    canaries: Vec<Canary>,
    scheme: ScoringScheme,
    /// Baseline kernel the audit's score pass runs on (inherited from the
    /// template device, like everything else pool-wide).
    baseline: Baseline,
    /// The template with fault injection disabled: the trusted host path
    /// every worker clones for its software baseline.
    software: SmxDevice,
    /// Shared audit workspace; audits that would contend on it fall back
    /// to a fresh local workspace instead of serializing workers.
    simd_ws: Mutex<SimdWorkspace>,
}

/// Lengths of the generated canary pairs (distinct, so a device sick in
/// only one tile-grid shape cannot pass every probe).
const CANARY_LENS: [usize; 2] = [40, 56];

impl DevicePool {
    /// Builds a pool of `devices` clones of `template` for one shard of
    /// a partitioned fleet: this pool's slot `i` is *global* device
    /// `device_base + i`. Global device 0 keeps the template's fault plan
    /// verbatim (a pool of one reproduces the single-device service
    /// exactly); every other global device gets the same plan re-seeded
    /// as a pure function of its global index, so it faults
    /// independently but reproducibly, and a fleet of N shards faults
    /// device-for-device identically to one pool over the same devices.
    pub(crate) fn new_with_device_base(
        template: &SmxDevice,
        devices: usize,
        device_base: usize,
        breaker_cfg: Option<BreakerConfig>,
        quarantine: Option<QuarantineConfig>,
    ) -> Result<DevicePool, AlignError> {
        let fault_setup = template.fault_plan().zip(template.fault_policy());
        let pool_devices = (0..devices)
            .map(|i| {
                let mut dev = template.clone();
                if let Some((plan, policy)) = fault_setup {
                    let global = device_base + i;
                    if global > 0 {
                        let derived = plan
                            .seed()
                            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(global as u64));
                        dev.enable_fault_injection(plan.with_seed(derived), policy);
                    }
                }
                Mutex::new(dev)
            })
            .collect();
        let config = template.config();
        let scheme = config.scoring();
        let mut baseline = template.clone();
        baseline.disable_fault_injection();
        let card = config.alphabet().cardinality() as u32;
        let canaries = CANARY_LENS
            .iter()
            .map(|&len| {
                let seq = |stride: u32, off: u32| {
                    let codes: Vec<u8> = (0..len as u32)
                        .map(|i| ((i * stride + off + (i >> 3)) % card) as u8)
                        .collect();
                    Sequence::from_codes(config.alphabet(), codes)
                };
                let query = seq(7, 1)?;
                let reference = seq(5, 2)?;
                let golden = baseline.align_software(&query, &reference)?;
                Ok(Canary { query, reference, golden })
            })
            .collect::<Result<Vec<Canary>, AlignError>>()?;
        Ok(DevicePool {
            devices: pool_devices,
            health: Mutex::new(PoolHealth::new(devices, breaker_cfg, quarantine)),
            canaries,
            scheme,
            baseline: template.baseline(),
            software: baseline,
            simd_ws: Mutex::new(SimdWorkspace::new()),
        })
    }

    /// The routing/health state machine (one lock for all of it), with
    /// poison surfaced as a typed error: the dispatch path must fail a
    /// pair typed rather than panic the worker that inherited the
    /// poison (a panicking worker here would cascade — every other
    /// worker shares this lock).
    pub(crate) fn health(&self) -> Result<std::sync::MutexGuard<'_, PoolHealth>, AlignError> {
        self.health.lock().map_err(|_| AlignError::Internal("pool health lock poisoned".into()))
    }

    /// The health lock for feedback writers (outcome/latency records):
    /// these must not be lost to poison — the state is per-field counter
    /// updates, safe to keep using after a holder panicked — so the
    /// poison flag is stripped instead of propagated.
    fn health_feedback(&self) -> std::sync::MutexGuard<'_, PoolHealth> {
        self.health.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Exclusive access to device `id`, typed: an out-of-range id or a
    /// poisoned device mutex (a worker panicked mid-alignment on that
    /// device) is an internal error on this pair, never a panic.
    pub(crate) fn device(
        &self,
        id: usize,
    ) -> Result<std::sync::MutexGuard<'_, SmxDevice>, AlignError> {
        self.devices
            .get(id)
            .ok_or_else(|| AlignError::Internal(format!("device id {id} out of range")))?
            .lock()
            .map_err(|_| AlignError::Internal(format!("device {id} lock poisoned")))
    }

    /// One routing decision, with the health guard confined to this
    /// call. Callers must NOT hold the returned guard across the pair —
    /// this wrapper exists because a `match pool.health().dispatch()`
    /// scrutinee would keep the pool-wide health lock alive through
    /// every match arm (Rust's temporary-lifetime rule), serializing
    /// all workers behind one pair's DP.
    pub(crate) fn dispatch_pair(&self) -> Result<Dispatch, AlignError> {
        Ok(self.health()?.dispatch())
    }

    /// Feeds one pair's outcome back into breaker/health/quarantine.
    pub(crate) fn record_outcome(&self, id: usize, route: Route, ev: OutcomeEvents) {
        self.health_feedback().record(id, route, ev);
    }

    /// Records one successful primary completion latency.
    pub(crate) fn record_latency(&self, latency: Duration) {
        self.health_feedback().record_latency(latency);
    }

    /// The current hedge budget, if armed (`None` also when the health
    /// state is unreadable — a missing hedge is strictly less wrong
    /// than a panicked worker).
    pub(crate) fn hedge_threshold(&self, cfg: &HedgeConfig) -> Option<Duration> {
        self.health().ok()?.hedge_threshold(cfg)
    }

    /// Audits one device-produced alignment on the host, in two phases:
    ///
    /// 1. **Consistency** — CIGAR well-formedness, operation/symbol
    ///    agreement against the actual sequences, and score recomputation
    ///    ([`Alignment::verify`]). Catches corrupted results.
    /// 2. **Optimality** — the streaming score kernel independently
    ///    recomputes the *optimal* score (no matrix, no traceback) and
    ///    compares it to the claimed one. Catches valid-but-suboptimal
    ///    results, which phase 1 by construction cannot: a consistent
    ///    CIGAR that scores itself correctly can still be the wrong path.
    ///
    /// Only on a mismatch does the caller escalate to a full CIGAR
    /// recompute (the service's audit-recovery ladder) — the two-phase
    /// contract that keeps the common all-clean case cheap.
    ///
    /// # Errors
    ///
    /// Any inconsistency surfaces as the typed
    /// [`AlignError::IntegrityViolation`] naming the device — never a
    /// panic, whatever shape the corruption took.
    pub(crate) fn audit(
        &self,
        device: usize,
        alignment: &Alignment,
        query: &Sequence,
        reference: &Sequence,
    ) -> Result<(), AlignError> {
        alignment
            .verify(query.codes(), reference.codes(), &self.scheme)
            .map_err(|e| AlignError::IntegrityViolation { device, detail: e.to_string() })?;
        let optimal = match self.simd_ws.try_lock() {
            Ok(mut ws) => {
                simd::score_profile(
                    query.codes(),
                    reference.codes(),
                    &self.scheme,
                    self.baseline,
                    &mut ws,
                )
                .score
            }
            Err(_) => {
                simd::score_profile(
                    query.codes(),
                    reference.codes(),
                    &self.scheme,
                    self.baseline,
                    &mut SimdWorkspace::new(),
                )
                .score
            }
        };
        if optimal != alignment.score {
            return Err(AlignError::IntegrityViolation {
                device,
                detail: format!(
                    "alignment is consistent but suboptimal: claimed score {}, optimal {optimal}",
                    alignment.score
                ),
            });
        }
        Ok(())
    }

    /// Runs every due canary probe (there may be none). Called by
    /// workers between pairs, so quarantined devices keep getting
    /// re-probed as long as the batch makes progress.
    pub(crate) fn run_due_canaries(&self) {
        loop {
            // NB: claim under its own statement so the health guard is
            // dropped before the probe runs (a `while let` scrutinee
            // guard would live across the body and self-deadlock).
            let due = self.health_feedback().claim_canary();
            let Some((id, rotation)) = due else { return };
            // LINT: allow(panic) index is reduced mod canaries.len(), and canaries is non-empty by construction
            let canary = &self.canaries[(rotation as usize) % self.canaries.len()];
            let passed = self.run_canary(id, canary);
            self.health_feedback().record_canary(id, passed);
        }
    }

    /// One canary probe: the device must align the known pair with no
    /// injected fault (detectable or silent) and reproduce the golden
    /// answer byte-identically.
    fn run_canary(&self, id: usize, canary: &Canary) -> bool {
        // Failpoint `pool.canary` (lane = device id): the probe itself
        // fails — a schedule can hold a device in quarantine past its
        // cooldown and then release it, exercising readmission timing.
        if smx_failpoint::hit_lane("pool.canary", id as u32).is_some() {
            return false;
        }
        // An unreachable device (poisoned by a panicked worker) cannot
        // pass a probe; it simply stays quarantined.
        let Ok(mut dev) = self.device(id) else { return false };
        let before = dev.recovery_stats();
        let result = dev.align(&canary.query, &canary.reference);
        let after = dev.recovery_stats();
        let clean_run = after.faults_injected == before.faults_injected
            && after.silent_corruptions == before.silent_corruptions;
        match result {
            Ok(a) => clean_run && a == canary.golden,
            Err(_) => false,
        }
    }

    /// A worker-local software baseline: a fault-free clone of the
    /// template, so audits never apply to it and its results are correct
    /// by construction.
    pub(crate) fn software_device(&self) -> SmxDevice {
        self.software.clone()
    }

    /// Per-device stats and pool counters so far.
    pub(crate) fn snapshot(&self) -> (Vec<DeviceStats>, PoolCounters) {
        self.health_feedback().snapshot()
    }

    /// Tile-level recovery counters merged across every device.
    pub(crate) fn recovery(&self) -> smx_coproc::faults::RecoveryStats {
        let mut recovery = smx_coproc::faults::RecoveryStats::default();
        for dev in &self.devices {
            // Reading counters only: poison left by a panicked worker
            // must not hide the stats of the others.
            let dev = dev.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            recovery.merge(&dev.recovery_stats());
        }
        recovery
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::BreakerState;
    use smx_align_core::{AlignmentConfig, Cigar, Op};

    /// Every plausible-but-wrong result shape the silent fault model can
    /// produce — a skewed score, a flipped operation (CIGAR/sequence
    /// disagreement), and an inflated run length that walks off the
    /// reference end — must surface from the audit as the typed
    /// [`AlignError::IntegrityViolation`], never as a panic.
    #[test]
    fn every_corruption_shape_surfaces_as_integrity_violation() {
        let config = AlignmentConfig::DnaGap;
        let mut dev = SmxDevice::new(config, 2).unwrap();
        let pool = DevicePool::new_with_device_base(&dev, 1, 0, None, None).unwrap();
        let card = config.alphabet().cardinality() as u32;
        let seq = |stride: u32, off: u32| {
            let codes: Vec<u8> = (0..48u32).map(|i| ((i * stride + off) % card) as u8).collect();
            Sequence::from_codes(config.alphabet(), codes).unwrap()
        };
        let (q, r) = (seq(7, 1), seq(5, 2));
        let good = dev.align(&q, &r).unwrap();
        pool.audit(3, &good, &q, &r).expect("honest result passes");

        // Score skew: CIGAR no longer re-scores to the claimed score.
        let mut skewed = good.clone();
        skewed.score = skewed.score.wrapping_add(1);
        // Op flip: first run's label disagrees with the symbols (or the
        // gap direction desynchronizes consumption).
        let mut flipped = good.clone();
        let mut flipped_cigar = Cigar::new();
        for (k, &(op, n)) in good.cigar.runs().iter().enumerate() {
            let op = if k == 0 {
                match op {
                    Op::Match => Op::Mismatch,
                    Op::Mismatch => Op::Match,
                    Op::Insert => Op::Delete,
                    Op::Delete => Op::Insert,
                }
            } else {
                op
            };
            flipped_cigar.push_run(op, n);
        }
        flipped.cigar = flipped_cigar;
        // Run overrun: the last run is inflated, so the walk runs off
        // the end of the sequences.
        let mut overrun = good.clone();
        let mut overrun_cigar = Cigar::new();
        let runs = good.cigar.runs();
        for (k, &(op, n)) in runs.iter().enumerate() {
            let n = if k + 1 == runs.len() { n.saturating_add(4) } else { n };
            overrun_cigar.push_run(op, n);
        }
        overrun.cigar = overrun_cigar;

        for (label, bad) in [("score-skew", skewed), ("op-flip", flipped), ("run-overrun", overrun)]
        {
            match pool.audit(3, &bad, &q, &r) {
                Err(AlignError::IntegrityViolation { device: 3, detail }) => {
                    assert!(!detail.is_empty(), "{label}: detail must describe the defect");
                }
                other => panic!("{label}: expected IntegrityViolation, got {other:?}"),
            }
        }
    }

    /// A *consistent* wrong answer — well-formed CIGAR, correct
    /// self-score, but a suboptimal path — passes the phase-1 walk by
    /// construction; only the streaming kernel's independent
    /// optimal-score pass (phase 2) can catch it.
    #[test]
    fn suboptimal_but_consistent_result_fails_the_score_audit() {
        let config = AlignmentConfig::DnaGap;
        let dev = SmxDevice::new(config, 2).unwrap();
        let pool = DevicePool::new_with_device_base(&dev, 1, 0, None, None).unwrap();
        let scheme = config.scoring();
        let codes: Vec<u8> = (0..32u32).map(|i| (i % 4) as u8).collect();
        let q = Sequence::from_codes(config.alphabet(), codes.clone()).unwrap();
        let r = Sequence::from_codes(config.alphabet(), codes).unwrap();
        // Insert the whole query, then delete the whole reference:
        // perfectly self-consistent, wildly suboptimal for identical
        // sequences.
        let mut cigar = Cigar::new();
        cigar.push_run(Op::Insert, 32);
        cigar.push_run(Op::Delete, 32);
        let score = 32 * (scheme.gap_insert() + scheme.gap_delete());
        let sneaky = Alignment { score, cigar };
        sneaky.verify(q.codes(), r.codes(), &scheme).expect("the phase-1 walk cannot catch this");
        match pool.audit(0, &sneaky, &q, &r) {
            Err(AlignError::IntegrityViolation { device: 0, detail }) => {
                assert!(detail.contains("suboptimal"), "{detail}");
            }
            other => panic!("expected IntegrityViolation, got {other:?}"),
        }
    }

    fn quarantine_cfg() -> QuarantineConfig {
        QuarantineConfig {
            alpha: 0.5,
            threshold: 0.5,
            min_samples: 2,
            canary_period: 4,
            canary_probes: 2,
        }
    }

    fn bad() -> OutcomeEvents {
        OutcomeEvents { faulted: true, ..OutcomeEvents::default() }
    }

    #[test]
    fn round_robin_skips_quarantined_devices() {
        let mut h = PoolHealth::new(3, None, Some(quarantine_cfg()));
        // Sicken device 1 until it quarantines.
        for _ in 0..4 {
            h.record(1, Route::Device, bad());
        }
        assert!(h.is_quarantined(1));
        let mut seen = Vec::new();
        for _ in 0..4 {
            match h.dispatch() {
                Dispatch::Device { id, route } => {
                    assert_eq!(route, Route::Device);
                    seen.push(id);
                }
                Dispatch::Software => panic!("healthy devices remain"),
            }
        }
        assert!(!seen.contains(&1), "{seen:?}");
        assert_eq!(seen, vec![0, 2, 0, 2], "round-robin over the healthy pair");
    }

    #[test]
    fn all_quarantined_routes_to_software() {
        let mut h = PoolHealth::new(2, None, Some(quarantine_cfg()));
        for id in 0..2 {
            for _ in 0..4 {
                h.record(id, Route::Device, bad());
            }
        }
        assert_eq!(h.dispatch(), Dispatch::Software);
    }

    #[test]
    fn clean_outcomes_decay_health_below_threshold() {
        let mut h = PoolHealth::new(1, None, Some(quarantine_cfg()));
        // One bad pair then a run of clean ones: EWMA decays, no
        // quarantine at min_samples.
        h.record(0, Route::Device, bad());
        for _ in 0..6 {
            h.record(0, Route::Device, OutcomeEvents::default());
        }
        assert!(!h.is_quarantined(0));
        let (stats, _) = h.snapshot();
        assert!(stats[0].health < 0.05, "health {:.4}", stats[0].health);
    }

    #[test]
    fn canary_streak_readmits_and_resets_breaker() {
        let cfg = quarantine_cfg();
        let breaker = BreakerConfig { window: 4, min_samples: 2, ..BreakerConfig::default() };
        let mut h = PoolHealth::new(2, Some(breaker), Some(cfg));
        for _ in 0..4 {
            h.record(0, Route::Device, bad());
        }
        assert!(h.is_quarantined(0));
        // Not due yet: the canary clock is measured in dispatches.
        assert_eq!(h.claim_canary(), None);
        for _ in 0..cfg.canary_period {
            h.dispatch();
        }
        let (id, rotation) = h.claim_canary().expect("canary due");
        assert_eq!((id, rotation), (0, 0));
        // Claiming again immediately is a no-op (clock advanced).
        assert_eq!(h.claim_canary(), None);
        // A failed canary resets the streak.
        h.record_canary(0, false);
        for _ in 0..cfg.canary_period {
            h.dispatch();
        }
        let due = h.claim_canary().unwrap().0;
        h.record_canary(due, true);
        assert!(h.is_quarantined(0), "one clean canary is not enough");
        for _ in 0..cfg.canary_period {
            h.dispatch();
        }
        let due = h.claim_canary().unwrap().0;
        h.record_canary(due, true);
        assert!(!h.is_quarantined(0), "streak of {} readmits", cfg.canary_probes);
        let (stats, _) = h.snapshot();
        assert_eq!(stats[0].quarantines, 1);
        assert_eq!(stats[0].readmissions, 1);
        assert_eq!(stats[0].canary_runs, 3);
        assert_eq!(stats[0].canary_failures, 1);
        assert_eq!(stats[0].health, 0.0, "readmission resets health");
        let snap = stats[0].breaker.expect("breaker configured");
        assert_eq!(snap.state, BreakerState::Closed, "readmission resets the breaker");
    }

    #[test]
    fn software_outcomes_do_not_touch_device_health() {
        let mut h = PoolHealth::new(1, None, Some(quarantine_cfg()));
        for _ in 0..16 {
            h.record(0, Route::Software, bad());
        }
        assert!(!h.is_quarantined(0));
        let (stats, _) = h.snapshot();
        assert_eq!(stats[0].pairs, 0);
        assert_eq!(stats[0].health, 0.0);
    }

    #[test]
    fn deadline_events_feed_health_but_not_the_breaker() {
        let breaker = BreakerConfig { window: 4, min_samples: 2, ..BreakerConfig::default() };
        let mut h = PoolHealth::new(1, Some(breaker), Some(quarantine_cfg()));
        let deadline_only = OutcomeEvents { deadline: true, ..OutcomeEvents::default() };
        for _ in 0..4 {
            h.record(0, Route::Device, deadline_only);
        }
        assert!(h.is_quarantined(0), "deadline storms quarantine the device");
        let (stats, _) = h.snapshot();
        let snap = stats[0].breaker.expect("breaker configured");
        assert_eq!(snap.state, BreakerState::Closed, "deadlines never trip the breaker");
        assert_eq!(stats[0].deadline_events, 4);
    }

    #[test]
    fn audit_sampling_is_deterministic_and_tracks_rate() {
        let audit = AuditConfig { rate: 0.25, seed: 9 };
        let first: Vec<bool> = (0..4000).map(|i| audit.samples(i)).collect();
        let second: Vec<bool> = (0..4000).map(|i| audit.samples(i)).collect();
        assert_eq!(first, second);
        let hits = first.iter().filter(|&&b| b).count();
        assert!((700..1300).contains(&hits), "hits {hits}");
        assert!((0..100).all(|i| AuditConfig::full().samples(i)));
        assert!((0..100).all(|i| !AuditConfig { rate: 0.0, seed: 0 }.samples(i)));
    }

    #[test]
    fn p95_hedge_trigger_arms_after_min_samples() {
        let mut h = PoolHealth::new(1, None, None);
        let cfg = HedgeConfig { trigger: HedgeTrigger::P95 { min_samples: 10, multiplier: 2.0 } };
        assert_eq!(h.hedge_threshold(&cfg), None, "unarmed before min_samples");
        for ms in 1..=10u64 {
            h.record_latency(Duration::from_millis(ms));
        }
        let thr = h.hedge_threshold(&cfg).expect("armed");
        // p95 of 1..=10 ms is the highest retained sample (10 ms) x2.
        assert_eq!(thr, Duration::from_millis(20));
        let fixed = HedgeConfig::after(Duration::from_millis(7));
        assert_eq!(h.hedge_threshold(&fixed), Some(Duration::from_millis(7)));
    }
}
