//! Multi-device pool with result auditing and one per-device health
//! state machine (DESIGN.md §6).
//!
//! The service layer of PR 2 supervised exactly one [`SmxDevice`]. This
//! module generalizes it to a pool of N simulated devices, each with its
//! own independently seeded fault plan, and adds the defenses a lone
//! device cannot provide:
//!
//! * **A result scoreboard** — every device-produced alignment can be
//!   re-verified on the host ([`Alignment::verify`]: CIGAR
//!   well-formedness, operation/symbol agreement, score recomputation)
//!   at a configurable sampling rate. The audit is the only defense
//!   against *silent* readout corruption, which by construction passes
//!   every device-side checksum.
//! * **One health ladder per device** — a single state machine decides
//!   every routing verdict. Its circuit-breaker rungs (closed, open,
//!   half-open) watch a sliding window of fault verdicts and send pairs
//!   to the software baseline while the device cools down. Above them,
//!   an EWMA health score over fault/integrity/deadline events
//!   quarantines the device from any rung; it is then periodically
//!   re-probed with canary pairs (known-answer alignments), and only a
//!   streak of clean canaries readmits it, reset to closed.
//!
//! The pool decides *where* a pair runs, never *what* it computes: every
//! path (any device, with or without recovery, or the software baseline)
//! produces byte-identical alignments, so routing, quarantine, and
//! hedging are invisible in the output.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Duration;

use smx_algos::simd::{self, Baseline, SimdWorkspace};
use smx_align_core::{AlignError, Alignment, Alphabet, ScoringScheme, Sequence};
use smx_coproc::control::CancelToken;

use crate::orchestrator::{align_in_software, SmxDevice};
use crate::service::{BreakerConfig, BreakerSnapshot, BreakerState, BreakerTransitions};

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

/// Per-device counters and final state: one `device N:` line of the
/// `ServiceStats` tally, in batch and server mode alike.
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
    /// Final state of this device's breaker, when one was configured
    /// (for a quarantined device, its state when it was quarantined).
    pub breaker: Option<BreakerSnapshot>,
}

/// One `key=value` line; `breaker=none` (and zero transitions) when no
/// breaker was configured. Quarantine and canary counts are summed on
/// the tally's `pool:` line instead.
impl std::fmt::Display for DeviceStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.breaker.map_or_else(|| "none".to_string(), |b| b.state.to_string());
        let t = self.breaker.map(|b| b.transitions).unwrap_or_default();
        write!(
            f,
            "pairs={} faulted={} integrity_violations={} deadline_events={} health={:.3} \
             quarantined={} breaker={state} opened={} half_opened={} closed={}",
            self.pairs,
            self.faulted_pairs,
            self.integrity_violations,
            self.deadline_events,
            self.health,
            self.quarantined,
            t.opened,
            t.half_opened,
            t.closed
        )
    }
}

/// Where the pool routed one pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Route {
    /// The normal path on the device at this pool index: its breaker is
    /// closed (or absent).
    Device(usize),
    /// A half-open probe on device `id`. `epoch` is the device's
    /// half-open count when the probe was granted; a verdict carrying
    /// any other epoch is stale and ignored.
    Probe { id: usize, epoch: u64 },
    /// The software baseline: the selected device is cooling down (or
    /// out of probe slots), or every device is quarantined.
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
    /// Device attempts whose unrecoverable fault was recomputed on the
    /// software path (0, 1, or 2 with the audit retry).
    pub degraded: u32,
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
    pub software_alignments: u64,
    pub hedges_launched: u64,
    pub hedges_won: u64,
}

/// The routing/health state machine, separated from the devices so it is
/// unit-testable with scripted outcomes. All methods take `&mut self`;
/// [`DevicePool`] serializes access behind one mutex.
#[derive(Debug)]
pub(crate) struct PoolHealth {
    slots: Vec<Slot>,
    breaker: Option<BreakerConfig>,
    quarantine: Option<QuarantineConfig>,
    rr: usize,
    dispatches: u64,
    counters: PoolCounters,
    latencies: Vec<Duration>,
    lat_next: usize,
}

/// One device's rung on the health ladder (DESIGN.md §6.2). The first
/// three are the circuit breaker; `Quarantined` is entered from any of
/// them and left only by a clean canary streak, which resets the slot.
#[derive(Debug, Default)]
enum State {
    /// Pairs run on the device; verdicts feed the breaker window.
    #[default]
    Closed,
    /// Pairs run on software until `cooldown_left` more have been served.
    Open { cooldown_left: u64 },
    /// `granted` probes went to the device; `clean` came back clean.
    HalfOpen { granted: u64, clean: u64 },
    /// Out of rotation behind canary probes. `breaker` is the breaker
    /// state at the moment of quarantine, which the snapshot reports.
    Quarantined { streak: u64, next_canary_at: u64, breaker: BreakerState },
}

/// One device's health: its ladder state, the breaker window, the EWMA
/// score, and its counters. Readmission resets everything but `stats`.
#[derive(Debug, Default)]
struct Slot {
    state: State,
    /// The last `window` fault verdicts seen while closed (a bounded ring).
    window: VecDeque<bool>,
    faulted_in_window: usize,
    transitions: BreakerTransitions,
    health: f64,
    samples: u64,
    stats: DeviceStats,
}

impl Slot {
    /// The breaker's view of the ladder (frozen while quarantined).
    fn breaker_state(&self) -> BreakerState {
        match self.state {
            State::Closed => BreakerState::Closed,
            State::Open { .. } => BreakerState::Open,
            State::HalfOpen { .. } => BreakerState::HalfOpen,
            State::Quarantined { breaker, .. } => breaker,
        }
    }

    /// Where device `id`'s next pair runs, advancing the cooldown and
    /// probe accounting. Cooldown is counted in pairs served, not wall
    /// time, so the machine is exactly reproducible in tests.
    fn route(&mut self, id: usize, cfg: &BreakerConfig) -> Route {
        match &mut self.state {
            State::Closed => Route::Device(id),
            State::Open { cooldown_left } if *cooldown_left > 0 => {
                *cooldown_left -= 1;
                Route::Software
            }
            State::Open { .. } => {
                self.state = State::HalfOpen { granted: 1, clean: 0 };
                self.transitions.half_opened += 1;
                Route::Probe { id, epoch: self.transitions.half_opened }
            }
            State::HalfOpen { granted, .. } if *granted < cfg.probes => {
                *granted += 1;
                Route::Probe { id, epoch: self.transitions.half_opened }
            }
            // Probes are in flight; keep the rest of the traffic safe
            // until they deliver a verdict. (Dispatch never routes a
            // quarantined slot.)
            State::HalfOpen { .. } | State::Quarantined { .. } => Route::Software,
        }
    }

    /// Feeds one device verdict to the breaker rungs. `probe` is the
    /// epoch of a half-open probe, `None` for a normal device pair.
    fn feed(&mut self, cfg: &BreakerConfig, probe: Option<u64>, faulted: bool) {
        match (&mut self.state, probe) {
            (State::Closed, None) => {
                if self.window.len() == cfg.window && self.window.pop_front() == Some(true) {
                    self.faulted_in_window -= 1;
                }
                self.window.push_back(faulted);
                self.faulted_in_window += usize::from(faulted);
                if self.window.len() >= cfg.min_samples
                    && self.faulted_in_window as f64 >= cfg.threshold * self.window.len() as f64
                {
                    self.trip(cfg);
                }
            }
            // Only a probe of the current half-open decides it; one from
            // before a re-trip (or an earlier half-open) is stale.
            (State::HalfOpen { clean, .. }, Some(epoch))
                if epoch == self.transitions.half_opened =>
            {
                if faulted {
                    self.trip(cfg);
                } else {
                    *clean += 1;
                    if *clean >= cfg.probes {
                        self.state = State::Closed;
                        self.transitions.closed += 1;
                        self.window.clear();
                        self.faulted_in_window = 0;
                    }
                }
            }
            _ => {}
        }
    }

    fn trip(&mut self, cfg: &BreakerConfig) {
        self.state = State::Open { cooldown_left: cfg.cooldown_pairs };
        self.transitions.opened += 1;
    }
}

/// Completion latencies retained for the p95 hedge trigger.
const LATENCY_WINDOW: usize = 128;

impl PoolHealth {
    pub(crate) fn new(
        devices: usize,
        breaker: Option<BreakerConfig>,
        quarantine: Option<QuarantineConfig>,
    ) -> PoolHealth {
        PoolHealth {
            slots: (0..devices).map(|_| Slot::default()).collect(),
            breaker,
            quarantine,
            rr: 0,
            dispatches: 0,
            counters: PoolCounters::default(),
            latencies: Vec::new(),
            lat_next: 0,
        }
    }

    /// Picks the next pair's device round-robin over non-quarantined
    /// devices, and lets its breaker rungs choose the route.
    pub(crate) fn dispatch(&mut self) -> Route {
        self.dispatches += 1;
        let n = self.slots.len();
        for k in 0..n {
            let id = (self.rr + k) % n;
            let Some(slot) = self.slots.get_mut(id) else { break };
            if matches!(slot.state, State::Quarantined { .. }) {
                continue;
            }
            self.rr = (id + 1) % n;
            return match &self.breaker {
                Some(cfg) => slot.route(id, cfg),
                None => Route::Device(id),
            };
        }
        Route::Software
    }

    /// Feeds one pair's outcome back: breaker window, EWMA health,
    /// per-device and pool counters, and the quarantine decision.
    pub(crate) fn record(&mut self, route: Route, ev: OutcomeEvents) {
        self.counters.audits_run += u64::from(ev.audits);
        self.counters.integrity_recomputed += u64::from(ev.recomputed);
        self.counters.software_alignments += u64::from(ev.degraded);
        self.counters.hedges_launched += u64::from(ev.hedge_launched);
        self.counters.hedges_won += u64::from(ev.hedge_won);
        let (id, probe) = match route {
            Route::Device(id) => (id, None),
            Route::Probe { id, epoch } => (id, Some(epoch)),
            // The pair never touched a device; its outcome says nothing
            // about device health.
            Route::Software => return,
        };
        let Some(slot) = self.slots.get_mut(id) else { return };
        slot.stats.pairs += 1;
        if ev.faulted {
            slot.stats.faulted_pairs += 1;
        }
        slot.stats.integrity_violations += u64::from(ev.integrity);
        if ev.deadline {
            slot.stats.deadline_events += 1;
        }
        if let Some(cfg) = &self.breaker {
            // Integrity violations are device sickness; deadlines are
            // not (breaking on overload would mask it as device failure,
            // the documented invariant from PR 2).
            slot.feed(cfg, probe, ev.faulted || ev.integrity > 0);
        }
        let q = match self.quarantine {
            Some(q) => q,
            None => return,
        };
        let bad = ev.faulted || ev.integrity > 0 || ev.deadline;
        slot.health = q.alpha * f64::from(u8::from(bad)) + (1.0 - q.alpha) * slot.health;
        slot.samples += 1;
        if !matches!(slot.state, State::Quarantined { .. })
            && slot.samples >= q.min_samples
            && slot.health >= q.threshold
        {
            slot.state = State::Quarantined {
                streak: 0,
                next_canary_at: self.dispatches + q.canary_period,
                breaker: slot.breaker_state(),
            };
            slot.stats.quarantines += 1;
        }
    }

    /// Claims a quarantined device that is due for a canary probe,
    /// advancing its next-probe clock so concurrent workers cannot claim
    /// it twice. Returns `(device, canary rotation index, epoch)`; the
    /// epoch (the device's quarantine count) ties the verdict to this
    /// quarantine.
    pub(crate) fn claim_canary(&mut self) -> Option<(usize, u64, u64)> {
        let q = self.quarantine?;
        let now = self.dispatches;
        self.slots.iter_mut().enumerate().find_map(|(id, slot)| match &mut slot.state {
            State::Quarantined { next_canary_at, .. } if now >= *next_canary_at => {
                *next_canary_at = now + q.canary_period;
                slot.stats.canary_runs += 1;
                Some((id, slot.stats.canary_runs - 1, slot.stats.quarantines))
            }
            _ => None,
        })
    }

    /// Feeds back one canary verdict; a streak of clean canaries
    /// readmits the device, reset to a fresh closed slot. A verdict
    /// counts only in the quarantine it was claimed in (`epoch`): one
    /// arriving after a readmission or a later re-quarantine is stale.
    pub(crate) fn record_canary(&mut self, id: usize, epoch: u64, passed: bool) {
        let Some(q) = self.quarantine else { return };
        let Some(slot) = self.slots.get_mut(id) else { return };
        slot.stats.canary_failures += u64::from(!passed);
        let State::Quarantined { streak, .. } = &mut slot.state else { return };
        if slot.stats.quarantines != epoch {
            return;
        }
        *streak = if passed { *streak + 1 } else { 0 };
        if *streak >= q.canary_probes {
            // Fresh health, samples, and breaker: a stale pre-quarantine
            // fault window must not instantly re-trip it on readmission.
            let stats = std::mem::take(&mut slot.stats);
            *slot = Slot {
                stats: DeviceStats { readmissions: stats.readmissions + 1, ..stats },
                ..Slot::default()
            };
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
        matches!(self.slots[id].state, State::Quarantined { .. })
    }

    /// Per-device stats and pool counters so far: the live view the
    /// server's `/stats` reads and the final one a batch reports.
    pub(crate) fn snapshot(&self) -> (Vec<DeviceStats>, PoolCounters) {
        let stats = self
            .slots
            .iter()
            .map(|slot| DeviceStats {
                health: slot.health,
                quarantined: matches!(slot.state, State::Quarantined { .. }),
                breaker: self.breaker.map(|_| BreakerSnapshot {
                    state: slot.breaker_state(),
                    transitions: slot.transitions,
                }),
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
    /// The devices' scheme and alphabet: what the audit and the software
    /// path compute under.
    pub(crate) scheme: ScoringScheme,
    pub(crate) alphabet: Alphabet,
}

thread_local! {
    /// Each worker thread's audit workspace: the audit's score kernel
    /// runs in the buffers of the thread that calls it, never in shared
    /// ones.
    static AUDIT_WS: RefCell<SimdWorkspace> = RefCell::new(SimdWorkspace::new());
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
        breaker: Option<BreakerConfig>,
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
        let (scheme, alphabet) = (config.scoring(), config.alphabet());
        let card = config.alphabet().cardinality() as u32;
        let canaries = CANARY_LENS
            .iter()
            .map(|&len| {
                let seq = |stride: u32, off: u32| {
                    let codes: Vec<u8> = (0..len as u32)
                        .map(|i| ((i * stride + off + (i >> 3)) % card) as u8)
                        .collect();
                    Sequence::from_codes(alphabet, codes)
                };
                let query = seq(7, 1)?;
                let reference = seq(5, 2)?;
                let golden = align_in_software(
                    (&query, &reference),
                    &scheme,
                    alphabet,
                    &CancelToken::new(),
                )?;
                Ok(Canary { query, reference, golden })
            })
            .collect::<Result<Vec<Canary>, AlignError>>()?;
        Ok(DevicePool {
            devices: pool_devices,
            health: Mutex::new(PoolHealth::new(devices, breaker, quarantine)),
            canaries,
            scheme,
            alphabet,
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
    pub(crate) fn dispatch_pair(&self) -> Result<Route, AlignError> {
        Ok(self.health()?.dispatch())
    }

    /// Feeds one pair's outcome back into the health state machine.
    pub(crate) fn record_outcome(&self, route: Route, ev: OutcomeEvents) {
        self.health_feedback().record(route, ev);
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
    /// contract that keeps the common all-clean case cheap. The kernel
    /// runs in the calling worker's own workspace ([`AUDIT_WS`]), so
    /// audits on different workers never contend and a worker's audits
    /// stop allocating once its buffers fit the workload.
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
        let (q, r) = (query.codes(), reference.codes());
        alignment
            .verify(q, r, &self.scheme)
            .map_err(|e| AlignError::IntegrityViolation { device, detail: e.to_string() })?;
        let optimal = AUDIT_WS
            .with(|ws| simd::score(q, r, &self.scheme, Baseline::Auto, &mut ws.borrow_mut()));
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
            let Some((id, rotation, epoch)) = due else { return };
            // LINT: allow(panic) index is reduced mod canaries.len(), and canaries is non-empty by construction
            let canary = &self.canaries[(rotation as usize) % self.canaries.len()];
            let passed = self.run_canary(id, canary);
            self.health_feedback().record_canary(id, epoch, passed);
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

    /// Counts allocations per thread, so each audit worker's tally is
    /// its own.
    struct Counting;

    thread_local! {
        static ALLOCS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    // SAFETY: every call forwards unchanged to the system allocator; the
    // thread-local tally is a const-initialized `Cell` that never
    // allocates.
    unsafe impl std::alloc::GlobalAlloc for Counting {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract,
        // which `System.alloc` shares.
        unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
            let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
            std::alloc::System.alloc(layout)
        }

        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
            std::alloc::System.dealloc(ptr, layout);
        }
    }

    #[global_allocator]
    static GLOBAL: Counting = Counting;

    /// Two workers audit 64 honest protein pairs on one pool: once a
    /// worker's first pair (its longest) has sized its own workspace,
    /// none of its audits allocates — no shared workspace to lose a race
    /// for, no spare one to build.
    #[test]
    fn each_worker_audits_in_its_own_workspace_without_allocating() {
        let config = AlignmentConfig::Protein;
        let dev = SmxDevice::new(config, 2).unwrap();
        let pool = DevicePool::new_with_device_base(&dev, 1, 0, None, None).unwrap();
        let pairs: Vec<(Sequence, Sequence, Alignment)> =
            smx_datagen::Dataset::uniprot_like(64, 11)
                .pairs
                .into_iter()
                .map(|p| {
                    let golden = smx_align_core::dp::align_codes(
                        p.query.codes(),
                        p.reference.codes(),
                        &pool.scheme,
                    );
                    (p.query, p.reference, golden)
                })
                .collect();
        let counts: Vec<Vec<usize>> = std::thread::scope(|scope| {
            let workers: Vec<_> = pairs
                .chunks(32)
                .map(|share| {
                    let pool = &pool;
                    scope.spawn(move || {
                        let mut order: Vec<_> = share.iter().collect();
                        order.sort_by_key(|(q, r, _)| std::cmp::Reverse(q.len() + r.len()));
                        order
                            .into_iter()
                            .map(|(q, r, golden)| {
                                let before = ALLOCS.with(std::cell::Cell::get);
                                pool.audit(0, golden, q, r).expect("honest result passes");
                                ALLOCS.with(std::cell::Cell::get) - before
                            })
                            .collect()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert_eq!(counts.len(), 2);
        for (worker, count) in counts.iter().enumerate() {
            assert_eq!(count.len(), 32);
            assert!(count[0] > 0, "worker {worker}: the first audit sizes the workspace");
            assert!(count[1..].iter().all(|&c| c == 0), "worker {worker} allocated: {count:?}");
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
            h.record(Route::Device(1), bad());
        }
        assert!(h.is_quarantined(1));
        let mut seen = Vec::new();
        for _ in 0..4 {
            match h.dispatch() {
                Route::Device(id) => seen.push(id),
                other => panic!("healthy devices remain on the device path: {other:?}"),
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
                h.record(Route::Device(id), bad());
            }
        }
        assert_eq!(h.dispatch(), Route::Software);
    }

    #[test]
    fn clean_outcomes_decay_health_below_threshold() {
        let mut h = PoolHealth::new(1, None, Some(quarantine_cfg()));
        // One bad pair then a run of clean ones: EWMA decays, no
        // quarantine at min_samples.
        h.record(Route::Device(0), bad());
        for _ in 0..6 {
            h.record(Route::Device(0), OutcomeEvents::default());
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
            h.record(Route::Device(0), bad());
        }
        assert!(h.is_quarantined(0));
        // Not due yet: the canary clock is measured in dispatches.
        assert_eq!(h.claim_canary(), None);
        for _ in 0..cfg.canary_period {
            h.dispatch();
        }
        let (id, rotation, epoch) = h.claim_canary().expect("canary due");
        assert_eq!((id, rotation, epoch), (0, 0, 1));
        // Claiming again immediately is a no-op (clock advanced).
        assert_eq!(h.claim_canary(), None);
        // A failed canary resets the streak.
        h.record_canary(0, epoch, false);
        for _ in 0..cfg.canary_period {
            h.dispatch();
        }
        let (due, _, epoch) = h.claim_canary().unwrap();
        h.record_canary(due, epoch, true);
        assert!(h.is_quarantined(0), "one clean canary is not enough");
        for _ in 0..cfg.canary_period {
            h.dispatch();
        }
        let (due, _, epoch) = h.claim_canary().unwrap();
        h.record_canary(due, epoch, true);
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

    /// A canary verdict counts only in the quarantine it was claimed in.
    /// Three canaries are claimed during one quarantine; the first two
    /// readmit the device, whose breaker then trips on live traffic. The
    /// third, late pass must not readmit it a second time, close its
    /// breaker, or wipe its health.
    #[test]
    fn stale_canary_verdict_after_readmission_is_ignored() {
        let cfg = QuarantineConfig { min_samples: 8, ..quarantine_cfg() };
        let breaker = BreakerConfig { window: 4, min_samples: 2, ..BreakerConfig::default() };
        let mut h = PoolHealth::new(1, Some(breaker), Some(cfg));
        for _ in 0..8 {
            h.record(Route::Device(0), bad());
        }
        assert!(h.is_quarantined(0));
        let mut claims = Vec::new();
        for _ in 0..3 {
            for _ in 0..cfg.canary_period {
                h.dispatch();
            }
            claims.push(h.claim_canary().expect("canary due"));
        }
        for &(id, _, epoch) in &claims[..2] {
            h.record_canary(id, epoch, true);
        }
        assert!(!h.is_quarantined(0), "two clean canaries readmit");
        for _ in 0..2 {
            h.record(Route::Device(0), bad());
        }
        let (live, _) = h.snapshot();
        assert_eq!(live[0].breaker.expect("breaker configured").state, BreakerState::Open);
        assert_eq!((live[0].readmissions, live[0].health), (1, 0.75));

        let (id, _, epoch) = claims[2];
        h.record_canary(id, epoch, true);
        let (after, _) = h.snapshot();
        assert_eq!(after, live, "the stale pass changed nothing");
    }

    /// A half-open probe verdict counts only in the half-open it was
    /// granted in: a clean probe left over from before a re-trip must not
    /// help close the next half-open.
    #[test]
    fn stale_probe_verdict_from_an_earlier_half_open_is_ignored() {
        let breaker = BreakerConfig {
            window: 4,
            min_samples: 2,
            threshold: 0.5,
            cooldown_pairs: 1,
            probes: 2,
        };
        let mut h = PoolHealth::new(1, Some(breaker), None);
        for _ in 0..2 {
            assert_eq!(h.dispatch(), Route::Device(0));
            h.record(Route::Device(0), bad());
        }
        assert_eq!(h.dispatch(), Route::Software, "cooldown");
        let p1 = h.dispatch();
        let p2 = h.dispatch();
        assert_eq!((p1, p2), (Route::Probe { id: 0, epoch: 1 }, Route::Probe { id: 0, epoch: 1 }));
        h.record(p2, bad());
        assert_eq!(h.dispatch(), Route::Software, "cooldown after the re-trip");
        let p3 = h.dispatch();
        assert_eq!(p3, Route::Probe { id: 0, epoch: 2 });
        h.record(p1, OutcomeEvents::default());
        h.record(p3, OutcomeEvents::default());
        let snap = h.snapshot().0[0].breaker.expect("breaker configured");
        assert_eq!(snap.state, BreakerState::HalfOpen, "one fresh clean probe of two");
        assert_eq!(snap.transitions, BreakerTransitions { opened: 2, half_opened: 2, closed: 0 });
    }

    #[test]
    fn software_outcomes_do_not_touch_device_health() {
        let mut h = PoolHealth::new(1, None, Some(quarantine_cfg()));
        for _ in 0..16 {
            h.record(Route::Software, bad());
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
            h.record(Route::Device(0), deadline_only);
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
