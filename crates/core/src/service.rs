//! Resilient batch-alignment service layer (DESIGN.md §5).
//!
//! [`BatchExecutor`] runs a batch of pairs as one in-process shard of
//! the executor core (`crate::shard`, the same core the server's
//! fleet runs): a pool of [`SmxDevice`] workers fed from a bounded work
//! queue with backpressure, where submitters either block until a slot
//! frees or shed the pair, per the [`AdmissionPolicy`]. Each pair runs under a cooperative
//! cancellation token with an optional wall-clock deadline, checked at
//! tile boundaries inside the coprocessor.
//!
//! Since PR 3 the executor supervises a whole *pool* of devices
//! ([`crate::pool`], DESIGN.md §6): each pool slot has its own seeded
//! fault plan and one health state machine. Its circuit-breaker rungs
//! track the fault rate over a sliding window of device outcomes and,
//! on a trip, route whole pairs to the software baseline until
//! half-open probes show the device is healthy again; above them, an
//! EWMA health score quarantines the device behind canary re-probes.
//! On top of routing, the service defends result *content* with a
//! scoreboard — device alignments are re-verified on the host at a
//! configurable audit rate, and a failed audit
//! ([`AlignError::IntegrityViolation`]) triggers one device retry
//! and then a software recompute — and defends *latency* with hedged
//! execution: a pair stuck past the hedge trigger is cancelled on the
//! device and re-run on the software baseline with its remaining budget.
//!
//! Every routing decision preserves the workspace's byte-identity
//! invariant: the device path (with tile-level recovery), the degraded
//! path, and the software baseline all share the global traceback
//! tie-break, so a batch run under any fault pattern, pool width, or
//! breaker state produces exactly the alignments of a fault-free
//! sequential run. The service layer only decides *where* a pair is
//! computed, never *what* it computes. Auditing and hedging therefore
//! cannot change the output either — only which counters tick.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::Duration;

use smx_align_core::{AlignError, Alignment, Sequence};
use smx_coproc::control::CancelToken;
use smx_coproc::faults::RecoveryStats;

use crate::orchestrator::{BatchFailure, SmxDevice};
use crate::pool::{AuditConfig, DevicePool, DeviceStats, HedgeConfig, QuarantineConfig, Route};
use crate::shard::{self, Done, Front, Job, Phase, Plan, RetryConfig, Shard};

/// What a submitter does when the work queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionPolicy {
    /// Block until a queue slot frees (lossless backpressure).
    #[default]
    Block,
    /// Record the pair as [`PairOutcome::Shed`] and move on (load
    /// shedding for latency-sensitive callers).
    Shed,
}

/// Circuit-breaker tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerConfig {
    /// Sliding-window length, in device-pair outcomes.
    pub window: usize,
    /// Minimum outcomes in the window before the breaker may trip.
    pub min_samples: usize,
    /// Faulted fraction of the window at which the breaker opens.
    pub threshold: f64,
    /// Pairs served on the software path while open, before probing.
    pub cooldown_pairs: u64,
    /// Consecutive clean device probes required to close again.
    pub probes: u64,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig { window: 32, min_samples: 8, threshold: 0.5, cooldown_pairs: 16, probes: 4 }
    }
}

/// Breaker state (the classic three-state machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Pairs run on the device; outcomes feed the sliding window.
    Closed,
    /// Pairs run on the software baseline for the cooldown.
    Open,
    /// A limited number of probe pairs run on the device; the rest stay
    /// on software until the probes deliver a verdict.
    HalfOpen,
}

impl std::fmt::Display for BreakerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        })
    }
}

/// Counts of breaker state transitions over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BreakerTransitions {
    /// Closed/HalfOpen → Open trips.
    pub opened: u64,
    /// Open → HalfOpen transitions (cooldown expired, probing started).
    pub half_opened: u64,
    /// HalfOpen → Closed recoveries.
    pub closed: u64,
}

/// Breaker state and transition counters at the end of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerSnapshot {
    /// State when the batch finished.
    pub state: BreakerState,
    /// Transition counts over the batch.
    pub transitions: BreakerTransitions,
}

/// Executor tuning.
#[derive(Debug, Clone)]
pub struct ExecutorConfig {
    /// Worker threads (each with its own device clone). `1` runs the
    /// batch inline on the calling thread, deterministically.
    pub jobs: usize,
    /// Bounded work-queue capacity (backpressure point).
    pub queue_cap: usize,
    /// Full-queue behaviour.
    pub admission: AdmissionPolicy,
    /// Per-pair wall-clock deadline, enforced at tile boundaries.
    pub deadline: Option<Duration>,
    /// Circuit breaker over the coprocessor fault rate; `None` disables
    /// breaking (every pair takes the device path). The breaker rungs
    /// of every device's health state machine run with this tuning,
    /// each over its own fault window.
    pub breaker: Option<BreakerConfig>,
    /// Simulated devices in the pool. `0` (the default) sizes the pool
    /// to `jobs`, preserving the PR-2 device-per-worker model. Device 0
    /// keeps the template's fault plan verbatim; higher slots get the
    /// same plan re-seeded so they fault independently.
    pub devices: usize,
    /// Result scoreboard: re-verify device alignments on the host at
    /// this sampling config. `None` disables auditing.
    pub audit: Option<AuditConfig>,
    /// Hedged execution for latency-tail pairs. `None` disables hedging.
    pub hedge: Option<HedgeConfig>,
    /// Per-device health scoring and quarantine. `None` disables
    /// quarantine (devices stay in rotation however sick).
    pub quarantine: Option<QuarantineConfig>,
    /// Fail closed instead of recomputing a pair in software: a device
    /// fault that tile-level recovery could not absorb returns its typed
    /// error, and an audit retry that also fails (or errors) returns
    /// [`AlignError::IntegrityViolation`]. Lets strict pipelines surface
    /// device sickness and corruption as distinct, typed failures.
    pub fail_closed: bool,
}

impl Default for ExecutorConfig {
    fn default() -> ExecutorConfig {
        ExecutorConfig {
            jobs: 1,
            queue_cap: 64,
            admission: AdmissionPolicy::Block,
            deadline: None,
            breaker: None,
            devices: 0,
            audit: None,
            hedge: None,
            quarantine: None,
            fail_closed: false,
        }
    }
}

impl ExecutorConfig {
    /// The one definition of a legal executor configuration, shared by
    /// [`BatchExecutor::new`] and [`crate::server::Server::bind`] so
    /// batch and serve reject the same configs with the same text.
    ///
    /// # Errors
    ///
    /// The first invalid setting, as [`AlignError::Internal`].
    pub(crate) fn validate(&self) -> Result<(), AlignError> {
        if self.jobs == 0 {
            return Err(AlignError::Internal("executor needs at least one job".into()));
        }
        if self.queue_cap == 0 {
            return Err(AlignError::Internal("queue capacity must be at least 1".into()));
        }
        if let Some(b) = &self.breaker {
            if !(b.threshold > 0.0 && b.threshold <= 1.0) {
                return Err(AlignError::Internal(format!(
                    "breaker threshold {} outside (0, 1]",
                    b.threshold
                )));
            }
            if b.min_samples == 0 || b.window < b.min_samples {
                return Err(AlignError::Internal(format!(
                    "breaker window {} must be >= min_samples {} >= 1",
                    b.window, b.min_samples
                )));
            }
            if b.probes == 0 {
                return Err(AlignError::Internal("breaker needs at least one probe".into()));
            }
        }
        if let Some(a) = &self.audit {
            if !(a.rate.is_finite() && (0.0..=1.0).contains(&a.rate)) {
                return Err(AlignError::Internal(format!("audit rate {} outside [0, 1]", a.rate)));
            }
        }
        if let Some(q) = &self.quarantine {
            if !(q.alpha > 0.0 && q.alpha <= 1.0 && q.threshold > 0.0 && q.threshold <= 1.0) {
                return Err(AlignError::Internal(format!(
                    "quarantine alpha {} and threshold {} must lie in (0, 1]",
                    q.alpha, q.threshold
                )));
            }
            if q.canary_period == 0 || q.canary_probes == 0 {
                return Err(AlignError::Internal(
                    "quarantine needs a nonzero canary period and probe count".into(),
                ));
            }
        }
        if let Some(h) = &self.hedge {
            if let crate::pool::HedgeTrigger::P95 { multiplier, .. } = h.trigger {
                if !(multiplier.is_finite() && multiplier > 0.0) {
                    return Err(AlignError::Internal(format!(
                        "hedge p95 multiplier {multiplier} must be positive"
                    )));
                }
            }
        }
        Ok(())
    }
}

/// How one executor configuration splits into N independent shards —
/// the fault-domain partition of the executor core (DESIGN.md §12). The
/// batch executor runs a plan of one shard; the server fronts N.
///
/// Each shard owns a disjoint slice of the worker threads and the device
/// pool, so a wedged worker, poisoned lock, or sick device is contained
/// to its shard instead of stalling the fleet. The split is computed
/// once, up front, and checked like [`ExecutorConfig::validate`] checks
/// the executor itself: a plan that would leave a shard with no worker
/// or no device is a configuration error, not a runtime surprise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// Worker threads per shard, indexed by shard id.
    pub jobs: Vec<usize>,
    /// Devices per shard, indexed by shard id. Device ids are global:
    /// shard `s` owns the contiguous slice starting at
    /// `device_base[s]`, so fault-plan reseeding stays a pure function
    /// of the global device index whatever the shard count.
    pub devices: Vec<usize>,
    /// First global device index of each shard's slice.
    pub device_base: Vec<usize>,
}

impl ShardPlan {
    /// Splits `cfg` into `shards` fault domains, spreading workers and
    /// devices as evenly as possible (earlier shards take the
    /// remainder). `cfg.devices == 0` sizes the pool to `cfg.jobs`
    /// first, exactly as the unsharded executor does.
    ///
    /// # Errors
    ///
    /// [`AlignError::Internal`] when `shards` is zero, or exceeds the
    /// worker or device count (a shard with no worker could never drain
    /// its queue; a shard with no device could never serve its slice).
    pub fn split(cfg: &ExecutorConfig, shards: usize) -> Result<ShardPlan, AlignError> {
        let total_jobs = cfg.jobs;
        let total_devices = if cfg.devices == 0 { cfg.jobs } else { cfg.devices };
        if shards == 0 {
            return Err(AlignError::Internal("shards must be at least 1".into()));
        }
        if shards > total_jobs {
            return Err(AlignError::Internal(format!(
                "{shards} shards need at least {shards} worker jobs, got {total_jobs}"
            )));
        }
        if shards > total_devices {
            return Err(AlignError::Internal(format!(
                "{shards} shards need at least {shards} devices, got {total_devices}"
            )));
        }
        let spread = |total: usize| -> Vec<usize> {
            (0..shards).map(|s| total / shards + usize::from(s < total % shards)).collect()
        };
        let devices = spread(total_devices);
        let mut device_base = Vec::with_capacity(shards);
        let mut base = 0;
        for &n in &devices {
            device_base.push(base);
            base += n;
        }
        Ok(ShardPlan { jobs: spread(total_jobs), devices, device_base })
    }

    /// Number of shards in the plan.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.jobs.len()
    }
}

/// One pair's outcome in a service batch.
#[derive(Debug, Clone, PartialEq)]
pub enum PairOutcome {
    /// The pair aligned (on whichever path the breaker chose).
    Aligned(Alignment),
    /// The pair failed with a typed error.
    Failed(AlignError),
    /// The pair was shed by the admission policy and never ran.
    Shed,
}

/// The one outcome tally, for a batch run and for a server alike: pairs
/// are booked by [`ServiceStats::record`], device pools folded in by
/// [`ServiceStats::add_pool`], and the `Display` impl is the one text
/// format (the CLI footers and the server's `STATS` reply).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServiceStats {
    /// Pairs that aligned in this run (resumed pairs excluded).
    pub completed: u64,
    /// Pairs that failed with an error.
    pub failed: u64,
    /// Pairs shed at admission (batch).
    pub shed: u64,
    /// Pairs satisfied from a resume manifest without running.
    pub resumed: u64,
    /// Pairs admitted to a work queue (server).
    pub admitted: u64,
    /// Typed rejections of every flavor (server).
    pub rejected: u64,
    /// Failures caused by an expired per-pair deadline.
    pub deadline_exceeded: u64,
    /// Failures caused by batch cancellation.
    pub cancelled: u64,
    /// Pairs executed on the device path (incl. probes).
    pub device_pairs: u64,
    /// Pairs the breaker routed to the software baseline.
    pub software_pairs: u64,
    /// Device pairs that ran as half-open probes.
    pub probe_pairs: u64,
    /// Pairs during which the device injected at least one fault.
    pub faulted_pairs: u64,
    /// Pairs served on the software baseline because brownout degraded
    /// their priority class (server).
    pub degraded_software: u64,
    /// Retry attempts spent on recoverable faults (server).
    pub retries: u64,
    /// High-water mark of the bounded work queue.
    pub max_queue_depth: usize,
    /// Host-side result audits run (scoreboard checks).
    pub audits_run: u64,
    /// Audits that failed — device results caught being plausible but
    /// wrong (summed over devices; primary and retry attempts counted
    /// separately).
    pub integrity_violations: u64,
    /// Pairs recomputed on the software baseline after the device retry
    /// also failed its audit.
    pub integrity_recomputed: u64,
    /// Device attempts recomputed on the software path after a fault
    /// tile-level recovery could not absorb.
    pub software_alignments: u64,
    /// Hedge backups launched for latency-tail pairs.
    pub hedges_launched: u64,
    /// Hedge backups that produced the pair's result.
    pub hedges_won: u64,
    /// Device quarantine events across the pool.
    pub quarantines: u64,
    /// Devices readmitted after a clean canary streak.
    pub readmissions: u64,
    /// Canary probes run against quarantined devices.
    pub canary_runs: u64,
    /// Canary probes that failed.
    pub canary_failures: u64,
    /// Breaker state and transitions for device 0 (when a breaker was
    /// configured) — the single-device view; see `per_device` for the
    /// rest of the pool.
    pub breaker: Option<BreakerSnapshot>,
    /// Per-device counters and final health/breaker state, indexed by
    /// pool slot.
    pub per_device: Vec<DeviceStats>,
    /// Tile-level recovery counters aggregated across the device pool.
    pub recovery: RecoveryStats,
}

impl ServiceStats {
    /// Books one finished pair: its route, retries and outcome. The only
    /// place a pair becomes counters — the batch collector and the
    /// server's writer (at ack) both call it.
    pub(crate) fn record(&mut self, done: &Done) {
        self.retries += u64::from(done.retries);
        if done.software {
            self.degraded_software += 1;
            self.software_pairs += 1;
        }
        if let Some(meta) = done.meta {
            match meta.route {
                Route::Device(_) => self.device_pairs += 1,
                Route::Probe { .. } => {
                    self.device_pairs += 1;
                    self.probe_pairs += 1;
                }
                Route::Software => self.software_pairs += 1,
            }
            self.faulted_pairs += u64::from(meta.faulted);
        }
        match &done.result {
            Ok(_) => self.completed += 1,
            Err(e) => {
                self.failed += 1;
                match e {
                    AlignError::DeadlineExceeded { .. } => self.deadline_exceeded += 1,
                    AlignError::Cancelled => self.cancelled += 1,
                    _ => {}
                }
            }
        }
    }

    /// Folds one device pool into the tally: per-device stats, the pool
    /// counters, and tile recovery. A batch folds its one pool, a server
    /// each shard's.
    pub(crate) fn add_pool(&mut self, pool: &DevicePool) {
        let (per_device, counters) = pool.snapshot();
        self.recovery.merge(&pool.recovery());
        self.audits_run += counters.audits_run;
        self.integrity_recomputed += counters.integrity_recomputed;
        self.software_alignments += counters.software_alignments;
        self.hedges_launched += counters.hedges_launched;
        self.hedges_won += counters.hedges_won;
        for d in &per_device {
            self.integrity_violations += d.integrity_violations;
            self.quarantines += d.quarantines;
            self.readmissions += d.readmissions;
            self.canary_runs += d.canary_runs;
            self.canary_failures += d.canary_failures;
        }
        self.breaker = self.breaker.or_else(|| per_device.first().and_then(|d| d.breaker));
        self.per_device.extend(per_device);
    }
}

/// `key=value` lines under fixed heads, every head always printed, then
/// one `device N:` line per pool device. The destructuring is
/// exhaustive, so a field added to the tally cannot miss the renderer.
impl std::fmt::Display for ServiceStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ServiceStats {
            completed,
            failed,
            shed,
            resumed,
            admitted,
            rejected,
            deadline_exceeded,
            cancelled,
            device_pairs,
            software_pairs,
            probe_pairs,
            faulted_pairs,
            degraded_software,
            retries,
            max_queue_depth,
            audits_run,
            integrity_violations,
            integrity_recomputed,
            software_alignments,
            hedges_launched,
            hedges_won,
            quarantines,
            readmissions,
            canary_runs,
            canary_failures,
            // Device 0's breaker; its `device 0:` line prints it.
            breaker: _,
            per_device,
            recovery,
        } = self;
        let RecoveryStats {
            tiles_computed: _,
            faults_injected,
            faults_detected,
            retries: tile_retries,
            fallbacks,
            cycles_lost,
            silent_corruptions,
        } = recovery;
        let devices = per_device.len();
        writeln!(
            f,
            "pairs: completed={completed} failed={failed} resumed={resumed} shed={shed} \
             admitted={admitted} rejected={rejected} max_queue_depth={max_queue_depth}\n\
             failures: deadline_exceeded={deadline_exceeded} cancelled={cancelled}\n\
             routing: device_pairs={device_pairs} software_pairs={software_pairs} \
             probe_pairs={probe_pairs} faulted_pairs={faulted_pairs} \
             degraded_software={degraded_software} retries={retries}\n\
             defenses: audits_run={audits_run} integrity_violations={integrity_violations} \
             integrity_recomputed={integrity_recomputed} hedges_launched={hedges_launched} \
             hedges_won={hedges_won}\n\
             pool: devices={devices} quarantines={quarantines} readmissions={readmissions} \
             canary_runs={canary_runs} canary_failures={canary_failures}\n\
             faults: injected={faults_injected} detected={faults_detected} \
             retries={tile_retries} fallbacks={fallbacks} \
             software_alignments={software_alignments} \
             silent_corruptions={silent_corruptions} cycles_lost={cycles_lost}"
        )?;
        for (id, d) in per_device.iter().enumerate() {
            writeln!(f, "device {id}: {d}")?;
        }
        Ok(())
    }
}

/// Outcome of [`BatchExecutor::run`]: per-pair outcomes positionally
/// aligned with the input, plus the run's counters.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceBatchReport {
    /// One entry per input pair.
    pub outcomes: Vec<PairOutcome>,
    /// Structured counters for the run.
    pub stats: ServiceStats,
}

impl ServiceBatchReport {
    /// The alignment for pair `index`, when it succeeded.
    #[must_use]
    pub fn alignment(&self, index: usize) -> Option<&Alignment> {
        match self.outcomes.get(index) {
            Some(PairOutcome::Aligned(a)) => Some(a),
            _ => None,
        }
    }

    /// Whether every pair aligned.
    #[must_use]
    pub fn all_succeeded(&self) -> bool {
        self.outcomes.iter().all(|o| matches!(o, PairOutcome::Aligned(_)))
    }

    /// Per-pair failures in input order (shed pairs are not failures).
    #[must_use]
    pub fn failures(&self) -> Vec<BatchFailure> {
        self.outcomes
            .iter()
            .enumerate()
            .filter_map(|(index, o)| match o {
                PairOutcome::Failed(error) => Some(BatchFailure { index, error: error.clone() }),
                _ => None,
            })
            .collect()
    }

    /// One-line-per-failure summary for logs and the CLI, with the
    /// aggregate cause breakdown (deadlines and cancellations called out
    /// so operators can tell overload from bad input).
    #[must_use]
    pub fn failure_summary(&self) -> String {
        use std::fmt::Write as _;
        let mut s = format!(
            "{}/{} pairs aligned, {} failed, {} shed",
            self.stats.completed + self.stats.resumed,
            self.outcomes.len(),
            self.stats.failed,
            self.stats.shed,
        );
        if self.stats.deadline_exceeded + self.stats.cancelled > 0 {
            let _ = write!(
                s,
                " ({} deadline-exceeded, {} cancelled)",
                self.stats.deadline_exceeded, self.stats.cancelled
            );
        }
        for f in self.failures() {
            let _ = write!(s, "\n  pair {}: {}", f.index, f.error);
        }
        s
    }
}

/// Completion hook: called with `(pair index, alignment)` for every
/// newly computed result, in completion order.
pub type ResultHook<'a> = &'a mut dyn FnMut(usize, &Alignment);

/// Per-run knobs that are not executor configuration: a batch-wide
/// cancellation token, a resume manifest, and a completion callback.
#[derive(Default)]
pub struct RunOptions<'a> {
    /// Batch-wide cancellation token; per-pair deadline tokens are
    /// forked from it, so cancelling it aborts every in-flight and
    /// queued pair at the next tile boundary.
    pub cancel: Option<CancelToken>,
    /// Previously completed pairs (index → alignment, e.g. from a
    /// checkpoint manifest); they are re-emitted verbatim without
    /// running.
    pub resume: Option<&'a HashMap<usize, Alignment>>,
    /// Called on the collector thread for every *newly computed*
    /// alignment, in completion order — the checkpoint writer's hook.
    pub on_result: Option<ResultHook<'a>>,
}

/// The resilient batch-alignment service: a worker pool over device
/// clones with backpressure, deadlines, and a circuit breaker.
///
/// The executor owns a fully configured template device (fault
/// injection and tile recovery policy); each pool device clones it, so
/// per-device fault sessions are independent but identically planned.
/// Whether a pair the device could not compute is recomputed in
/// software is the executor's own [`ExecutorConfig::fail_closed`].
#[derive(Debug, Clone)]
pub struct BatchExecutor {
    device: SmxDevice,
    cfg: ExecutorConfig,
}

impl BatchExecutor {
    /// Builds an executor over `device` with `cfg`. Only validates and
    /// stores: the shard, its device pool, and its workers are built per
    /// run.
    ///
    /// # Errors
    ///
    /// Any configuration [`ExecutorConfig::validate`] rejects.
    pub fn new(device: SmxDevice, cfg: ExecutorConfig) -> Result<BatchExecutor, AlignError> {
        cfg.validate()?;
        Ok(BatchExecutor { device, cfg })
    }

    /// The executor configuration.
    #[must_use]
    pub fn config(&self) -> &ExecutorConfig {
        &self.cfg
    }

    /// Runs `pairs` with default options.
    #[must_use]
    pub fn run(&self, pairs: &[(Sequence, Sequence)]) -> ServiceBatchReport {
        self.run_with(pairs, RunOptions::default())
    }

    /// Runs `pairs` under `opts`.
    #[must_use]
    pub fn run_with(
        &self,
        pairs: &[(Sequence, Sequence)],
        mut opts: RunOptions<'_>,
    ) -> ServiceBatchReport {
        let n = pairs.len();
        let mut outcomes: Vec<Option<PairOutcome>> = vec![None; n];
        let mut stats = ServiceStats::default();

        if let Some(manifest) = opts.resume {
            for (&index, alignment) in manifest {
                if index < n && outcomes[index].is_none() {
                    outcomes[index] = Some(PairOutcome::Aligned(alignment.clone()));
                    stats.resumed += 1;
                }
            }
        }
        let todo: Vec<usize> = (0..n).filter(|&i| outcomes[i].is_none()).collect();

        // One in-process shard per run — no socket, no supervisor, and
        // no retries: a batch reports a faulted pair as failed.
        let token = opts.cancel.clone().unwrap_or_default();
        let no_retry = RetryConfig { attempts: 0, ..RetryConfig::default() };
        let built = ShardPlan::split(&self.cfg, 1)
            .and_then(|plan| Shard::build(&plan, &self.device, &self.cfg, no_retry, &token));
        let missing = match built {
            // A one-shard plan: the loop body runs once.
            Ok(shards) => {
                for shard in shards {
                    self.drive(shard, pairs, &todo, &mut outcomes, &mut stats, &mut opts);
                }
                AlignError::Internal("pair lost by a worker".into())
            }
            // Pool construction failing (canary golden could not be
            // computed) fails the whole batch closed with the typed error
            // rather than panicking.
            Err(e) => e,
        };
        for &index in &todo {
            if outcomes[index].is_none() {
                settle(&mut stats, &mut outcomes, &mut None, index, Done::failed(missing.clone()));
            }
        }
        // Every slot is filled by now: resumed, shed, settled, or failed.
        let outcomes = outcomes.into_iter().flatten().collect();
        ServiceBatchReport { outcomes, stats }
    }

    /// Feeds `todo` through `shard`, booking completions on the caller's
    /// thread: inline in input order for `jobs == 1`, else via workers.
    fn drive(
        &self,
        shard: Shard<usize>,
        pairs: &[(Sequence, Sequence)],
        todo: &[usize],
        outcomes: &mut [Option<PairOutcome>],
        stats: &mut ServiceStats,
        opts: &mut RunOptions<'_>,
    ) {
        let (tx, rx) = mpsc::channel();
        let draining = AtomicBool::new(false);
        let front = BatchFront { pairs, draining: &draining, done: tx };
        if shard.jobs == 1 {
            // Inline path: input order on the caller's thread, no queue,
            // no shedding.
            for &index in todo {
                shard::run_job(&front, &shard, index);
                for (index, done) in rx.try_iter() {
                    settle(stats, outcomes, &mut opts.on_result, index, done);
                }
            }
        } else {
            std::thread::scope(|scope| {
                let workers: Vec<_> = (0..shard.jobs)
                    .map(|_| {
                        let front = BatchFront { done: front.done.clone(), ..front };
                        let shard = &shard;
                        scope.spawn(move || shard::worker_loop(&front, shard, 0))
                    })
                    .collect();
                // The workers hold the only senders left, so the collector
                // below ends when the last of them exits.
                drop(front);
                let block = self.cfg.admission == AdmissionPolicy::Block;
                for &index in todo {
                    if shard.queue.push(index, block).is_err() {
                        outcomes[index] = Some(PairOutcome::Shed);
                        stats.shed += 1;
                    }
                }
                draining.store(true, Ordering::SeqCst);
                shard.queue.wake_all();
                for (index, done) in rx {
                    settle(stats, outcomes, &mut opts.on_result, index, done);
                }
                // Join explicitly: the scope's implicit join returns once
                // the closures finish, while the OS threads may still be
                // exiting and holding their malloc arenas, so back-to-back
                // runs would race new arenas into existence (peak RSS).
                // A worker panic propagates, as the implicit join would.
                for worker in workers {
                    if let Err(panic) = worker.join() {
                        std::panic::resume_unwind(panic);
                    }
                }
            });
            stats.max_queue_depth = shard.queue.max_depth();
        }

        stats.add_pool(&shard.pool);
    }
}

/// A batch job is the pair's input index, never a copy of its sequences.
impl Job for usize {}

/// The batch side of its shard: audits sample by input index, and
/// completions flow back over a channel to the caller's thread.
struct BatchFront<'a> {
    pairs: &'a [(Sequence, Sequence)],
    draining: &'a AtomicBool,
    done: mpsc::Sender<(usize, Done)>,
}

impl Front for BatchFront<'_> {
    type Job = usize;

    fn pair<'a>(&'a self, index: &'a usize) -> (&'a Sequence, &'a Sequence) {
        // LINT: allow(panic) every queued index comes from 0..pairs.len()
        let (q, r) = &self.pairs[*index];
        (q, r)
    }

    fn phase(&self) -> Phase {
        if self.draining.load(Ordering::SeqCst) {
            Phase::Draining
        } else {
            Phase::Running
        }
    }

    fn plan(&self, index: &usize) -> Plan {
        Plan { audit_key: *index, software: false, extras: true }
    }

    fn complete(&self, index: usize, done: Done) {
        let _ = self.done.send((index, done));
    }
}

/// Books one completion: counters, the result hook, and the outcome slot.
fn settle(
    stats: &mut ServiceStats,
    outcomes: &mut [Option<PairOutcome>],
    on_result: &mut Option<ResultHook<'_>>,
    index: usize,
    done: Done,
) {
    stats.record(&done);
    if let (Ok(a), Some(cb)) = (&done.result, on_result.as_mut()) {
        cb(index, a);
    }
    if let Some(slot) = outcomes.get_mut(index) {
        *slot = Some(match done.result {
            Ok(a) => PairOutcome::Aligned(a),
            Err(e) => PairOutcome::Failed(e),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{OutcomeEvents, PoolHealth};
    use crate::testkit::{assert_all_aligned, assert_byte_identical, expect_aligned};
    use smx_align_core::AlignmentConfig;
    use smx_coproc::faults::{FaultPlan, RecoveryPolicy};

    fn pairs(config: AlignmentConfig, count: usize, len: usize) -> Vec<(Sequence, Sequence)> {
        let card = config.alphabet().cardinality() as u32;
        (0..count as u32)
            .map(|p| {
                let seq = |stride: u32, off: u32| {
                    let codes: Vec<u8> = (0..len as u32)
                        .map(|i| ((i * stride + off + p * 3 + (i >> 4)) % card) as u8)
                        .collect();
                    Sequence::from_codes(config.alphabet(), codes).unwrap()
                };
                (seq(7, 1), seq(5, p))
            })
            .collect()
    }

    fn clean_baseline(config: AlignmentConfig, batch: &[(Sequence, Sequence)]) -> Vec<Alignment> {
        let mut dev = SmxDevice::new(config, 2).unwrap();
        batch.iter().map(|(q, r)| dev.align(q, r).unwrap()).collect()
    }

    #[test]
    fn pool_matches_sequential_baseline() {
        let config = AlignmentConfig::DnaGap;
        let batch = pairs(config, 16, 70);
        let golden = clean_baseline(config, &batch);
        let dev = SmxDevice::new(config, 2).unwrap();
        let exec = BatchExecutor::new(
            dev,
            ExecutorConfig { jobs: 4, queue_cap: 4, ..ExecutorConfig::default() },
        )
        .unwrap();
        let report = exec.run(&batch);
        assert!(report.all_succeeded());
        assert_byte_identical(&report, &golden);
        assert_eq!(report.stats.completed, 16);
        assert_eq!(report.stats.device_pairs, 16);
        assert!(report.stats.max_queue_depth <= 4);
    }

    /// A pair whose device attempt fails unrecoverably is recomputed in
    /// software under the pair's own token, so its deadline still holds.
    /// On a 3 kbp DnaGap pair the device reaches its first fault in about
    /// 2 ms in a debug build (0.3 ms optimised) and the software DP takes
    /// about 100 ms optimised: a 20 ms deadline lands in between.
    #[test]
    fn degraded_pair_fails_typed_at_its_deadline() {
        let config = AlignmentConfig::DnaGap;
        let batch = pairs(config, 1, 3000);
        let mut dev = SmxDevice::new(config, 2).unwrap();
        dev.enable_fault_injection(
            FaultPlan::new(7, 1.0).with_persistence(1.0),
            RecoveryPolicy::strict(),
        );
        let cfg = ExecutorConfig {
            jobs: 1,
            deadline: Some(Duration::from_millis(20)),
            ..ExecutorConfig::default()
        };
        let report = BatchExecutor::new(dev, cfg).unwrap().run(&batch);
        let failures = report.failures();
        assert!(
            matches!(
                failures.as_slice(),
                [BatchFailure { index: 0, error: AlignError::DeadlineExceeded { .. } }]
            ),
            "{}",
            report.failure_summary()
        );
        assert_eq!(report.stats.deadline_exceeded, 1);
        assert_eq!(report.stats.software_alignments, 1);
    }

    #[test]
    fn fault_storm_through_pool_is_byte_identical_to_clean_run() {
        let config = AlignmentConfig::DnaGap;
        let batch = pairs(config, 20, 80);
        let golden = clean_baseline(config, &batch);
        let mut dev = SmxDevice::new(config, 2).unwrap();
        dev.enable_fault_injection(FaultPlan::new(42, 0.3), RecoveryPolicy::default());
        let exec = BatchExecutor::new(
            dev,
            ExecutorConfig {
                jobs: 4,
                queue_cap: 8,
                breaker: Some(BreakerConfig::default()),
                ..ExecutorConfig::default()
            },
        )
        .unwrap();
        let report = exec.run(&batch);
        assert!(report.all_succeeded(), "{}", report.failure_summary());
        assert_byte_identical(&report, &golden);
        assert!(report.stats.recovery.invariants_hold());
        assert!(report.stats.recovery.faults_injected > 0);
    }

    #[test]
    fn breaker_opens_under_sustained_faults_and_outputs_stay_identical() {
        let config = AlignmentConfig::DnaGap;
        let batch = pairs(config, 40, 60);
        let golden = clean_baseline(config, &batch);
        let mut dev = SmxDevice::new(config, 2).unwrap();
        // Every device pair faults somewhere: the breaker must trip.
        dev.enable_fault_injection(FaultPlan::new(7, 1.0), RecoveryPolicy::default());
        let exec = BatchExecutor::new(
            dev,
            ExecutorConfig {
                jobs: 1, // deterministic transition sequence
                breaker: Some(BreakerConfig {
                    window: 8,
                    min_samples: 4,
                    threshold: 0.5,
                    cooldown_pairs: 4,
                    probes: 2,
                }),
                ..ExecutorConfig::default()
            },
        )
        .unwrap();
        let report = exec.run(&batch);
        assert!(report.all_succeeded(), "{}", report.failure_summary());
        assert_byte_identical(&report, &golden);
        let snap = report.stats.breaker.expect("breaker configured");
        assert!(snap.transitions.opened >= 2, "{snap:?}");
        assert!(snap.transitions.half_opened >= 1, "{snap:?}");
        assert_eq!(snap.transitions.closed, 0, "faults never stop: {snap:?}");
        assert!(report.stats.software_pairs > 0);
        assert!(report.stats.probe_pairs > 0);
    }

    /// A one-device health machine with only the breaker rungs on: the
    /// harness the breaker tests drive through `dispatch`/`record`.
    fn breaker_only(cfg: BreakerConfig) -> PoolHealth {
        PoolHealth::new(1, Some(cfg), None)
    }

    fn breaker_of(h: &PoolHealth) -> BreakerSnapshot {
        h.snapshot().0[0].breaker.expect("breaker configured")
    }

    fn verdict(faulted: bool) -> OutcomeEvents {
        OutcomeEvents { faulted, ..OutcomeEvents::default() }
    }

    #[test]
    fn breaker_state_machine_transitions() {
        let mut h = breaker_only(BreakerConfig {
            window: 4,
            min_samples: 2,
            threshold: 0.5,
            cooldown_pairs: 2,
            probes: 2,
        });
        assert_eq!(breaker_of(&h).state, BreakerState::Closed);
        // Two faulted device pairs trip it.
        assert_eq!(h.dispatch(), Route::Device(0));
        h.record(Route::Device(0), verdict(true));
        assert_eq!(h.dispatch(), Route::Device(0));
        h.record(Route::Device(0), verdict(true));
        assert_eq!(breaker_of(&h).state, BreakerState::Open);
        assert_eq!(breaker_of(&h).transitions.opened, 1);
        // Cooldown: two software pairs.
        assert_eq!(h.dispatch(), Route::Software);
        assert_eq!(h.dispatch(), Route::Software);
        // Then half-open probes.
        let probe = Route::Probe { id: 0, epoch: 1 };
        assert_eq!(h.dispatch(), probe);
        assert_eq!(breaker_of(&h).state, BreakerState::HalfOpen);
        assert_eq!(h.dispatch(), probe);
        // Probe budget exhausted: traffic stays on software.
        assert_eq!(h.dispatch(), Route::Software);
        // Clean probes close it and clear the window.
        h.record(probe, verdict(false));
        h.record(probe, verdict(false));
        assert_eq!(breaker_of(&h).state, BreakerState::Closed);
        assert_eq!(breaker_of(&h).transitions.closed, 1);
        // A faulted probe after a re-trip is stale and ignored.
        h.record(Route::Device(0), verdict(true));
        h.record(Route::Device(0), verdict(true));
        assert_eq!(breaker_of(&h).state, BreakerState::Open);
        let opened = breaker_of(&h).transitions.opened;
        h.record(probe, verdict(true));
        assert_eq!(breaker_of(&h).transitions.opened, opened);
    }

    #[test]
    fn faulted_probe_reopens_breaker() {
        let mut h = breaker_only(BreakerConfig {
            window: 2,
            min_samples: 2,
            threshold: 0.5,
            cooldown_pairs: 0,
            probes: 1,
        });
        h.record(Route::Device(0), verdict(true));
        h.record(Route::Device(0), verdict(true));
        assert_eq!(breaker_of(&h).state, BreakerState::Open);
        // Zero cooldown: next route is immediately a probe.
        let probe = h.dispatch();
        assert_eq!(probe, Route::Probe { id: 0, epoch: 1 });
        h.record(probe, verdict(true));
        assert_eq!(breaker_of(&h).state, BreakerState::Open);
        assert_eq!(breaker_of(&h).transitions.opened, 2);
    }

    #[test]
    fn zero_deadline_fails_every_pair_with_typed_error() {
        let config = AlignmentConfig::DnaEdit;
        let batch = pairs(config, 6, 50);
        let dev = SmxDevice::new(config, 2).unwrap();
        let exec = BatchExecutor::new(
            dev,
            ExecutorConfig { jobs: 2, deadline: Some(Duration::ZERO), ..ExecutorConfig::default() },
        )
        .unwrap();
        let report = exec.run(&batch);
        assert_eq!(report.stats.deadline_exceeded, 6);
        assert_eq!(report.stats.failed, 6);
        assert!(report
            .outcomes
            .iter()
            .all(|o| matches!(o, PairOutcome::Failed(AlignError::DeadlineExceeded { .. }))));
        assert!(report.failure_summary().contains("6 deadline-exceeded"));
    }

    #[test]
    fn cancelled_batch_token_aborts_all_pairs() {
        let config = AlignmentConfig::DnaEdit;
        let batch = pairs(config, 5, 50);
        let dev = SmxDevice::new(config, 2).unwrap();
        let exec = BatchExecutor::new(dev, ExecutorConfig { jobs: 2, ..ExecutorConfig::default() })
            .unwrap();
        let token = CancelToken::new();
        token.cancel();
        let report =
            exec.run_with(&batch, RunOptions { cancel: Some(token), ..RunOptions::default() });
        assert_eq!(report.stats.cancelled, 5);
        assert!(report
            .outcomes
            .iter()
            .all(|o| matches!(o, PairOutcome::Failed(AlignError::Cancelled))));
    }

    #[test]
    fn shed_policy_preserves_accounting_invariants() {
        let config = AlignmentConfig::DnaEdit;
        let batch = pairs(config, 24, 60);
        let dev = SmxDevice::new(config, 2).unwrap();
        let exec = BatchExecutor::new(
            dev,
            ExecutorConfig {
                jobs: 2,
                queue_cap: 1,
                admission: AdmissionPolicy::Shed,
                ..ExecutorConfig::default()
            },
        )
        .unwrap();
        let report = exec.run(&batch);
        let s = &report.stats;
        assert_eq!(s.completed + s.failed + s.shed, 24);
        assert_eq!(
            report.outcomes.iter().filter(|o| matches!(o, PairOutcome::Shed)).count() as u64,
            s.shed
        );
        // Whatever did run is byte-identical to the sequential baseline.
        let golden = clean_baseline(config, &batch);
        for (i, g) in golden.iter().enumerate() {
            if let Some(a) = report.alignment(i) {
                assert_eq!(a.score, g.score);
                assert_eq!(a.cigar.to_string(), g.cigar.to_string());
            }
        }
    }

    #[test]
    fn resume_skips_completed_pairs_and_reemits_them_verbatim() {
        let config = AlignmentConfig::DnaGap;
        let batch = pairs(config, 10, 60);
        let dev = SmxDevice::new(config, 2).unwrap();
        let exec = BatchExecutor::new(dev, ExecutorConfig { jobs: 2, ..ExecutorConfig::default() })
            .unwrap();
        let full = exec.run(&batch);
        assert!(full.all_succeeded());
        // Pretend a crash happened after the even-indexed pairs.
        let manifest: HashMap<usize, Alignment> =
            (0..10).step_by(2).map(|i| (i, expect_aligned(&full, i).clone())).collect();
        let mut computed = Vec::new();
        let report = exec.run_with(
            &batch,
            RunOptions {
                resume: Some(&manifest),
                on_result: Some(&mut |i, _a: &Alignment| computed.push(i)),
                ..RunOptions::default()
            },
        );
        assert!(report.all_succeeded());
        assert_eq!(report.stats.resumed, 5);
        computed.sort_unstable();
        assert_eq!(computed, vec![1, 3, 5, 7, 9], "only missing pairs recompute");
        assert_eq!(report.outcomes, full.outcomes, "byte-identical to the full run");
    }

    /// `completed` counts pairs aligned in this run, as the server's
    /// tally does; resumed pairs are counted apart, and the summary's
    /// `N/M pairs aligned` adds them back.
    #[test]
    fn resumed_pairs_are_not_completed_in_this_run() {
        let config = AlignmentConfig::DnaEdit;
        let batch = pairs(config, 6, 40);
        let exec =
            BatchExecutor::new(SmxDevice::new(config, 2).unwrap(), ExecutorConfig::default())
                .unwrap();
        let full = exec.run(&batch);
        let manifest: HashMap<usize, Alignment> =
            [0, 4].into_iter().map(|i| (i, expect_aligned(&full, i).clone())).collect();
        let report =
            exec.run_with(&batch, RunOptions { resume: Some(&manifest), ..RunOptions::default() });
        let s = &report.stats;
        assert_eq!((s.completed, s.resumed, s.failed, s.shed), (4, 2, 0, 0));
        assert!(report.failure_summary().starts_with("6/6 pairs aligned"));
    }

    /// Batch and serve share one validation: every invalid config is
    /// rejected by both front ends, with the same error text.
    #[test]
    fn executor_config_validation() {
        use crate::server::{Server, ServerConfig};
        let config = AlignmentConfig::DnaEdit;
        let dev = SmxDevice::new(config, 1).unwrap();
        let invalid = [
            ExecutorConfig { jobs: 0, ..ExecutorConfig::default() },
            ExecutorConfig { queue_cap: 0, ..ExecutorConfig::default() },
            ExecutorConfig {
                breaker: Some(BreakerConfig { threshold: 1.5, ..BreakerConfig::default() }),
                ..ExecutorConfig::default()
            },
            ExecutorConfig {
                breaker: Some(BreakerConfig { probes: 0, ..BreakerConfig::default() }),
                ..ExecutorConfig::default()
            },
        ];
        for exec in invalid {
            let batch = BatchExecutor::new(dev.clone(), exec.clone()).unwrap_err();
            let serve = ServerConfig { exec, ..ServerConfig::default() };
            match Server::bind(dev.clone(), serve, "127.0.0.1:0") {
                Err(e) => assert_eq!(e.to_string(), batch.to_string()),
                Ok(h) => {
                    h.drain();
                    panic!("Server::bind accepted a config BatchExecutor rejects: {batch}");
                }
            }
        }
    }

    #[test]
    fn poisoned_pair_fails_closed_in_pool() {
        let config = AlignmentConfig::DnaGap;
        let mut batch = pairs(config, 6, 50);
        let poisoned = Sequence::from_text(smx_align_core::Alphabet::Protein, "WYVAC").unwrap();
        batch[3] = (poisoned, batch[3].1.clone());
        // Inline (jobs 1) and worker-pool (jobs 3) runs fail the same pair
        // closed while recovered faults keep the rest aligned.
        for jobs in [1, 3] {
            let mut dev = SmxDevice::new(config, 2).unwrap();
            dev.enable_fault_injection(FaultPlan::new(1, 1e-2), RecoveryPolicy::default());
            let exec =
                BatchExecutor::new(dev, ExecutorConfig { jobs, ..ExecutorConfig::default() })
                    .unwrap();
            let report = exec.run(&batch);
            assert_eq!(report.stats.failed, 1, "jobs {jobs}");
            assert_eq!(report.stats.completed, 5, "jobs {jobs}");
            assert!(!report.all_succeeded(), "jobs {jobs}");
            assert!(
                matches!(report.outcomes[3], PairOutcome::Failed(AlignError::AlphabetMismatch)),
                "jobs {jobs}"
            );
            let failures = report.failures();
            assert_eq!(failures.len(), 1, "jobs {jobs}");
            assert_eq!(failures[0].index, 3, "jobs {jobs}");
            let summary = report.failure_summary();
            assert!(summary.starts_with("5/6 pairs aligned"), "jobs {jobs}: {summary}");
            assert!(summary.contains("pair 3:"), "jobs {jobs}: {summary}");
        }
    }

    /// The PR-3 acceptance scenario: a fault plan that *silently*
    /// corrupts device readouts (past every checksum), full auditing,
    /// and a batch that must still come out byte-identical to the
    /// fault-free baseline with the violations caught and counted.
    #[test]
    fn full_audit_catches_silent_corruption_and_restores_byte_identity() {
        let config = AlignmentConfig::DnaGap;
        let batch = pairs(config, 12, 60);
        let golden = clean_baseline(config, &batch);
        let mut dev = SmxDevice::new(config, 2).unwrap();
        dev.enable_fault_injection(
            FaultPlan::new(11, 0.0).with_silent_rate(1.0),
            RecoveryPolicy::default(),
        );
        let exec = BatchExecutor::new(
            dev,
            ExecutorConfig {
                jobs: 1,
                audit: Some(AuditConfig::full()),
                ..ExecutorConfig::default()
            },
        )
        .unwrap();
        let report = exec.run(&batch);
        assert_all_aligned(&report);
        assert_byte_identical(&report, &golden);
        let s = &report.stats;
        // Every readout is corrupt: the primary audit fails, the device
        // retry fails its audit too, and the software recompute restores
        // the correct answer for every pair.
        assert_eq!(s.audits_run, 24);
        assert_eq!(s.integrity_violations, 24);
        assert_eq!(s.integrity_recomputed, 12);
        assert_eq!(s.recovery.silent_corruptions, 24);
        assert_eq!(s.per_device.len(), 1);
        assert_eq!(s.per_device[0].integrity_violations, 24);
    }

    /// Without the scoreboard, silent corruption sails through: the
    /// batch "succeeds" with wrong content. This is the control run that
    /// proves the audit is the defense, not the device's own checks.
    #[test]
    fn unaudited_silent_corruption_passes_through_undetected() {
        let config = AlignmentConfig::DnaGap;
        let batch = pairs(config, 8, 60);
        let golden = clean_baseline(config, &batch);
        let mut dev = SmxDevice::new(config, 2).unwrap();
        dev.enable_fault_injection(
            FaultPlan::new(11, 0.0).with_silent_rate(1.0),
            RecoveryPolicy::default(),
        );
        let exec = BatchExecutor::new(dev, ExecutorConfig::default()).unwrap();
        let report = exec.run(&batch);
        assert_all_aligned(&report);
        assert_eq!(report.stats.audits_run, 0);
        assert_eq!(report.stats.integrity_violations, 0);
        assert!(report.stats.recovery.silent_corruptions > 0);
        let diverged =
            golden.iter().enumerate().filter(|(i, g)| expect_aligned(&report, *i) != *g).count();
        assert!(diverged > 0, "corruption reached the output unchallenged");
    }

    /// Sampled auditing is deterministic per pair index: sampled pairs
    /// are guaranteed clean, unsampled ones may carry corruption.
    #[test]
    fn sampled_audit_cleans_exactly_the_sampled_pairs() {
        let config = AlignmentConfig::DnaGap;
        let batch = pairs(config, 20, 60);
        let golden = clean_baseline(config, &batch);
        let audit = AuditConfig { rate: 0.5, seed: 3 };
        let mut dev = SmxDevice::new(config, 2).unwrap();
        dev.enable_fault_injection(
            FaultPlan::new(11, 0.0).with_silent_rate(1.0),
            RecoveryPolicy::default(),
        );
        let exec = BatchExecutor::new(
            dev,
            ExecutorConfig { jobs: 2, audit: Some(audit), ..ExecutorConfig::default() },
        )
        .unwrap();
        let report = exec.run(&batch);
        assert_all_aligned(&report);
        let sampled: Vec<usize> = (0..batch.len()).filter(|&i| audit.samples(i)).collect();
        assert!(!sampled.is_empty() && sampled.len() < batch.len(), "{sampled:?}");
        for &i in &sampled {
            assert_eq!(expect_aligned(&report, i), &golden[i], "audited pair {i}");
        }
        assert!(report.stats.integrity_violations >= sampled.len() as u64);
    }

    /// A hedge trigger of zero makes every device leg "stuck"
    /// immediately: the backup on the software baseline must win every
    /// pair, byte-identically, with no deadline failures surfaced.
    #[test]
    fn hedge_backup_completes_stuck_pairs_on_the_baseline() {
        let config = AlignmentConfig::DnaGap;
        let batch = pairs(config, 6, 50);
        let golden = clean_baseline(config, &batch);
        let dev = SmxDevice::new(config, 2).unwrap();
        let exec = BatchExecutor::new(
            dev,
            ExecutorConfig {
                jobs: 2,
                hedge: Some(HedgeConfig::after(Duration::ZERO)),
                ..ExecutorConfig::default()
            },
        )
        .unwrap();
        let report = exec.run(&batch);
        assert_all_aligned(&report);
        assert_byte_identical(&report, &golden);
        assert_eq!(report.stats.hedges_launched, 6);
        assert_eq!(report.stats.hedges_won, 6);
        assert_eq!(report.stats.deadline_exceeded, 0);
    }

    /// When the real deadline is at or below the hedge trigger, the
    /// hedge must not fire: the pair fails with the typed deadline
    /// error exactly as it would without hedging.
    #[test]
    fn hedge_never_overrides_the_real_deadline() {
        let config = AlignmentConfig::DnaEdit;
        let batch = pairs(config, 4, 50);
        let dev = SmxDevice::new(config, 2).unwrap();
        let exec = BatchExecutor::new(
            dev,
            ExecutorConfig {
                jobs: 1,
                deadline: Some(Duration::ZERO),
                hedge: Some(HedgeConfig::after(Duration::ZERO)),
                ..ExecutorConfig::default()
            },
        )
        .unwrap();
        let report = exec.run(&batch);
        assert_eq!(report.stats.deadline_exceeded, 4);
        assert_eq!(report.stats.hedges_launched, 0);
        assert!(report
            .outcomes
            .iter()
            .all(|o| matches!(o, PairOutcome::Failed(AlignError::DeadlineExceeded { .. }))));
    }

    /// A persistently faulting pool is quarantined device by device;
    /// traffic degrades to the software baseline, canary probes keep
    /// failing (the fault plan never heals), and the output stays
    /// byte-identical throughout.
    #[test]
    fn sick_pool_quarantines_and_degrades_to_software() {
        let config = AlignmentConfig::DnaGap;
        let batch = pairs(config, 40, 60);
        let golden = clean_baseline(config, &batch);
        let mut dev = SmxDevice::new(config, 2).unwrap();
        dev.enable_fault_injection(FaultPlan::new(7, 1.0), RecoveryPolicy::default());
        let exec = BatchExecutor::new(
            dev,
            ExecutorConfig {
                jobs: 1,
                devices: 2,
                quarantine: Some(QuarantineConfig {
                    alpha: 0.5,
                    threshold: 0.5,
                    min_samples: 2,
                    canary_period: 4,
                    canary_probes: 2,
                }),
                ..ExecutorConfig::default()
            },
        )
        .unwrap();
        let report = exec.run(&batch);
        assert_all_aligned(&report);
        assert_byte_identical(&report, &golden);
        let s = &report.stats;
        assert_eq!(s.quarantines, 2, "both devices fault on every pair");
        assert_eq!(s.readmissions, 0);
        assert!(s.canary_runs > 0, "quarantined devices keep getting probed");
        assert_eq!(s.canary_failures, s.canary_runs, "the plan never heals");
        assert!(s.software_pairs > 0, "traffic degraded to the baseline");
        assert_eq!(s.per_device.len(), 2);
        assert!(s.per_device.iter().all(|d| d.quarantined));
    }

    /// PR-2 documented invariant, previously untested: a deadline
    /// failure during a half-open probe must not trip the breaker —
    /// deadlines say "overloaded", not "sick".
    #[test]
    fn deadline_failure_during_half_open_probe_does_not_trip_breaker() {
        let mut h = breaker_only(BreakerConfig {
            window: 4,
            min_samples: 2,
            threshold: 0.5,
            cooldown_pairs: 0,
            probes: 2,
        });
        h.record(Route::Device(0), verdict(true));
        h.record(Route::Device(0), verdict(true));
        assert_eq!(breaker_of(&h).state, BreakerState::Open);
        let probe = h.dispatch();
        assert_eq!(probe, Route::Probe { id: 0, epoch: 1 });
        assert_eq!(breaker_of(&h).state, BreakerState::HalfOpen);
        // The probe pair times out: run_pair classifies deadline errors
        // as not-faulted, so the verdict reaching the breaker is clean.
        h.record(probe, OutcomeEvents { deadline: true, ..OutcomeEvents::default() });
        assert_eq!(breaker_of(&h).state, BreakerState::HalfOpen, "no trip, no premature close");
        assert_eq!(
            breaker_of(&h).transitions.opened,
            1,
            "the deadline did not re-open the breaker"
        );
    }

    /// Executor-level companion: a deadline storm with a breaker
    /// configured leaves the breaker closed.
    #[test]
    fn deadline_storm_does_not_trip_the_breaker() {
        let config = AlignmentConfig::DnaEdit;
        let batch = pairs(config, 12, 50);
        let dev = SmxDevice::new(config, 2).unwrap();
        let exec = BatchExecutor::new(
            dev,
            ExecutorConfig {
                jobs: 1,
                deadline: Some(Duration::ZERO),
                breaker: Some(BreakerConfig {
                    window: 4,
                    min_samples: 2,
                    threshold: 0.5,
                    cooldown_pairs: 2,
                    probes: 1,
                }),
                ..ExecutorConfig::default()
            },
        )
        .unwrap();
        let report = exec.run(&batch);
        assert_eq!(report.stats.deadline_exceeded, 12);
        let snap = report.stats.breaker.expect("breaker configured");
        assert_eq!(snap.state, BreakerState::Closed);
        assert_eq!(snap.transitions.opened, 0);
    }

    #[test]
    fn pool_config_validation() {
        let config = AlignmentConfig::DnaEdit;
        let dev = SmxDevice::new(config, 1).unwrap();
        assert!(BatchExecutor::new(
            dev.clone(),
            ExecutorConfig {
                audit: Some(AuditConfig { rate: 1.5, seed: 0 }),
                ..ExecutorConfig::default()
            }
        )
        .is_err());
        assert!(BatchExecutor::new(
            dev.clone(),
            ExecutorConfig {
                quarantine: Some(QuarantineConfig { alpha: 0.0, ..QuarantineConfig::default() }),
                ..ExecutorConfig::default()
            }
        )
        .is_err());
        assert!(BatchExecutor::new(
            dev.clone(),
            ExecutorConfig {
                quarantine: Some(QuarantineConfig {
                    canary_probes: 0,
                    ..QuarantineConfig::default()
                }),
                ..ExecutorConfig::default()
            }
        )
        .is_err());
        assert!(BatchExecutor::new(
            dev,
            ExecutorConfig {
                hedge: Some(HedgeConfig {
                    trigger: crate::pool::HedgeTrigger::P95 { min_samples: 8, multiplier: 0.0 },
                }),
                ..ExecutorConfig::default()
            }
        )
        .is_err());
    }

    /// Multi-device pools spread clean traffic round-robin and report
    /// per-device accounting that sums to the batch totals.
    #[test]
    fn multi_device_pool_spreads_traffic_and_accounts_per_device() {
        let config = AlignmentConfig::DnaGap;
        let batch = pairs(config, 12, 60);
        let golden = clean_baseline(config, &batch);
        let dev = SmxDevice::new(config, 2).unwrap();
        let exec = BatchExecutor::new(
            dev,
            ExecutorConfig { jobs: 1, devices: 3, ..ExecutorConfig::default() },
        )
        .unwrap();
        let report = exec.run(&batch);
        assert_all_aligned(&report);
        assert_byte_identical(&report, &golden);
        let s = &report.stats;
        assert_eq!(s.per_device.len(), 3);
        assert_eq!(s.per_device.iter().map(|d| d.pairs).sum::<u64>(), 12);
        assert!(
            s.per_device.iter().all(|d| d.pairs == 4),
            "round-robin spreads evenly: {:?}",
            s.per_device
        );
    }

    /// A half-open probe in flight and a queue shed against a full queue
    /// are independent events: the shed neither consumes the probe slot
    /// nor feeds the breaker, and the clean probe still closes it. The
    /// interleaving is pinned step by step with [`Gate`], not left to
    /// the scheduler.
    #[test]
    fn half_open_probe_races_queue_shed_deterministically() {
        use crate::testkit::Gate;
        let mut health = breaker_only(BreakerConfig {
            window: 4,
            min_samples: 2,
            threshold: 0.5,
            cooldown_pairs: 1,
            probes: 1,
        });
        // Trip the breaker with two faulted device pairs, then burn the
        // one-pair cooldown so the next route is the half-open probe.
        for _ in 0..2 {
            assert_eq!(health.dispatch(), Route::Device(0));
            health.record(Route::Device(0), verdict(true));
        }
        assert_eq!(breaker_of(&health).state, BreakerState::Open);
        assert_eq!(health.dispatch(), Route::Software);

        let queue = crate::shard::ShardQueue::new(1);
        let gate = Gate::new();
        let health = std::sync::Mutex::new(health);
        std::thread::scope(|scope| {
            let worker = scope.spawn(|| {
                gate.wait_for(1); // the queue is full
                let index = queue.try_pop().expect("job 0 is queued");
                assert_eq!(index, 0);
                let route = health.lock().unwrap().dispatch();
                assert_eq!(
                    route,
                    Route::Probe { id: 0, epoch: 1 },
                    "cooldown expired: this pair is the probe"
                );
                gate.arrive(2); // probe in flight
                gate.wait_for(3); // ...while the submitter sheds
                health.lock().unwrap().record(route, verdict(false));
                gate.arrive(4);
            });
            assert!(queue.push(0, false).is_ok());
            gate.arrive(1);
            gate.wait_for(2);
            // The probe is in flight. Refill the freed seat, then shed
            // against the full queue while the breaker is mid-probe.
            assert!(queue.push(1, false).is_ok());
            assert!(
                queue.push(2, false).is_err(),
                "the full queue sheds while the probe is in flight"
            );
            assert_eq!(breaker_of(&health.lock().unwrap()).state, BreakerState::HalfOpen);
            gate.arrive(3);
            gate.wait_for(4);
            worker.join().unwrap();
        });
        // The shed fed nothing into the breaker; the clean probe verdict
        // alone decided, and it closed.
        let breaker = breaker_of(&health.into_inner().unwrap());
        assert_eq!(breaker.state, BreakerState::Closed);
        assert_eq!(
            breaker.transitions,
            BreakerTransitions { opened: 1, half_opened: 1, closed: 1 }
        );
    }

    /// When the hedge backup *also* exceeds the real deadline, the pair
    /// fails typed (`DeadlineExceeded`), the launch is counted, and no
    /// hedge win is claimed.
    #[test]
    fn hedge_backup_exceeding_deadline_fails_typed_with_no_win() {
        let config = AlignmentConfig::DnaGap;
        let batch = pairs(config, 3, 2000);
        let dev = SmxDevice::new(config, 2).unwrap();
        let exec = BatchExecutor::new(
            dev,
            ExecutorConfig {
                jobs: 1,
                // A zero hedge trigger forces the primary to hand over
                // immediately; 2 ms cannot cover a 2000x2000 DP block on
                // the backup either.
                deadline: Some(Duration::from_millis(2)),
                hedge: Some(HedgeConfig {
                    trigger: crate::pool::HedgeTrigger::After(Duration::ZERO),
                }),
                ..ExecutorConfig::default()
            },
        )
        .unwrap();
        let report = exec.run(&batch);
        let s = &report.stats;
        assert_eq!(s.hedges_launched, 3, "every primary hit the trigger");
        assert_eq!(s.hedges_won, 0, "an expired backup is not a win");
        assert_eq!(s.deadline_exceeded, 3);
        assert_eq!(s.completed, 0);
        for (i, outcome) in report.outcomes.iter().enumerate() {
            assert!(
                matches!(outcome, PairOutcome::Failed(AlignError::DeadlineExceeded { .. })),
                "pair {i}: expected a typed deadline failure, got {outcome:?}"
            );
        }
    }

    #[test]
    fn shard_plan_spreads_evenly_with_earlier_shards_taking_the_remainder() {
        let cfg = ExecutorConfig { jobs: 5, devices: 7, ..ExecutorConfig::default() };
        let plan = ShardPlan::split(&cfg, 3).unwrap();
        assert_eq!(plan.shards(), 3);
        assert_eq!(plan.jobs, vec![2, 2, 1]);
        assert_eq!(plan.devices, vec![3, 2, 2]);
        assert_eq!(plan.device_base, vec![0, 3, 5], "bases are a running prefix sum");
        assert_eq!(plan.jobs.iter().sum::<usize>(), cfg.jobs, "no worker lost or invented");
        assert_eq!(plan.devices.iter().sum::<usize>(), cfg.devices);
    }

    #[test]
    fn shard_plan_sizes_a_zero_device_pool_to_jobs() {
        // `devices == 0` means device-per-worker, exactly as the
        // unsharded executor sizes its pool.
        let cfg = ExecutorConfig { jobs: 4, ..ExecutorConfig::default() };
        let plan = ShardPlan::split(&cfg, 4).unwrap();
        assert_eq!(plan.jobs, vec![1; 4]);
        assert_eq!(plan.devices, vec![1; 4]);
        assert_eq!(plan.device_base, vec![0, 1, 2, 3]);
    }

    #[test]
    fn shard_plan_rejects_empty_or_starved_shards() {
        let cfg = ExecutorConfig { jobs: 4, ..ExecutorConfig::default() };
        assert!(ShardPlan::split(&cfg, 0).is_err(), "zero shards is a config error");
        assert!(ShardPlan::split(&cfg, 5).is_err(), "a shard with no worker cannot drain");
        let starved = ExecutorConfig { jobs: 8, devices: 2, ..ExecutorConfig::default() };
        assert!(ShardPlan::split(&starved, 3).is_err(), "a shard with no device cannot serve");
        assert!(ShardPlan::split(&starved, 2).is_ok());
    }

    /// The breaker and the quarantine ladder together, pinned end to
    /// end: one deterministic two-device batch (fault_storm's
    /// breaker and quarantine tuning) in which every arc fires — trip, half-open, close,
    /// quarantine, and canary readmission — with the exact routing
    /// counters and per-device reports recorded before the two
    /// mechanisms were merged into one state machine.
    #[test]
    fn combined_breaker_quarantine_ladder_is_pinned() {
        let config = AlignmentConfig::DnaGap;
        let batch = pairs(config, 64, 60);
        let golden = clean_baseline(config, &batch);
        let mut dev = SmxDevice::new(config, 2).unwrap();
        dev.enable_fault_injection(FaultPlan::new(6, 0.02), RecoveryPolicy::default());
        let exec = BatchExecutor::new(
            dev,
            ExecutorConfig {
                jobs: 1,
                devices: 2,
                breaker: Some(BreakerConfig {
                    window: 8,
                    min_samples: 4,
                    threshold: 0.25,
                    cooldown_pairs: 8,
                    probes: 2,
                }),
                quarantine: Some(QuarantineConfig {
                    alpha: 0.25,
                    threshold: 0.5,
                    min_samples: 4,
                    canary_period: 8,
                    canary_probes: 2,
                }),
                ..ExecutorConfig::default()
            },
        )
        .unwrap();
        let report = exec.run(&batch);
        assert_all_aligned(&report);
        assert_byte_identical(&report, &golden);
        let s = &report.stats;
        assert_eq!(
            (s.completed, s.device_pairs, s.software_pairs, s.probe_pairs, s.faulted_pairs),
            (64, 20, 44, 5, 10)
        );
        assert_eq!((s.quarantines, s.readmissions, s.canary_runs, s.canary_failures), (2, 1, 8, 5));
        let breaker = |state, opened, half_opened, closed| {
            Some(BreakerSnapshot {
                state,
                transitions: BreakerTransitions { opened, half_opened, closed },
            })
        };
        let expected = vec![
            // Tripped, probed, and closed again, then quarantined from
            // Closed; still quarantined at the end.
            DeviceStats {
                pairs: 12,
                faulted_pairs: 5,
                quarantines: 1,
                canary_runs: 2,
                canary_failures: 1,
                health: 0.502_093_315_124_511_7,
                quarantined: true,
                breaker: breaker(BreakerState::Closed, 3, 3, 1),
                ..DeviceStats::default()
            },
            // Quarantined, readmitted by a clean canary streak (which
            // reset its breaker), and tripped again afterwards.
            DeviceStats {
                pairs: 8,
                faulted_pairs: 5,
                quarantines: 1,
                readmissions: 1,
                canary_runs: 6,
                canary_failures: 4,
                health: 0.292_968_75,
                quarantined: false,
                breaker: breaker(BreakerState::Open, 1, 0, 0),
                ..DeviceStats::default()
            },
        ];
        assert_eq!(s.per_device, expected);
        assert_eq!(s.breaker, expected[0].breaker, "the single-device view is device 0");
    }
}
