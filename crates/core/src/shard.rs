//! The executor core (DESIGN.md §5.1, §12). A [`Shard`] is a bounded
//! priority queue, a device pool, and worker threads; it knows nothing
//! of tenants, sessions, or sockets. Its caller implements [`Front`]:
//! the batch executor runs one in-process shard, the server a supervised
//! fleet. The front end plans each pair at dequeue and takes every
//! completion; the shard owns the rest — deadline at dequeue, dispatch
//! through the pool ([`Shard::run_pair`]), and the bounded retry.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use smx_align_core::{AlignError, Alignment, Sequence};
use smx_coproc::control::CancelToken;

use crate::orchestrator::{align_in_software, SmxDevice};
use crate::pool::{DevicePool, OutcomeEvents, Route};
use crate::service::{ExecutorConfig, ShardPlan};

/// Bounded retry budget for recoverable device faults. Retries go back
/// through the normal dispatch seam, so the breaker and quarantine see
/// every attempt — the budget bounds persistence, it does not bypass
/// the defenses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryConfig {
    /// Extra attempts after the first (0 disables retrying).
    pub attempts: u32,
    /// Base backoff between attempts; attempt `k` sleeps `k * backoff`,
    /// clipped to the pair's remaining deadline.
    pub backoff: Duration,
}

impl Default for RetryConfig {
    fn default() -> RetryConfig {
        RetryConfig { attempts: 2, backoff: Duration::from_millis(2) }
    }
}

/// An idle worker's queue wait between heartbeats.
const IDLE_WAIT: Duration = Duration::from_millis(20);

/// Re-locks a mutex whose critical sections are single field writes or
/// pushes (queues, counters, tenant tables, handle lists): a panicked
/// holder cannot leave them inconsistent, so poison is stripped.
pub(crate) fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One queued pair, as the core sees it.
pub(crate) trait Job: Send {
    /// Strict-priority class: 0 is served first, 2 last.
    fn class(&self) -> usize {
        0
    }
    /// Absolute deadline fixed at admission, with its budget in ms.
    /// `None` keeps the executor's per-pair deadline.
    fn deadline(&self) -> Option<(Instant, u64)> {
        None
    }
}

/// Where the front end stands in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    /// Workers serve their queue (and steal when idle).
    Running,
    /// Workers flush everything they can reach, then exit.
    Draining,
    /// Workers exit at once (a simulated crash).
    Stopped,
}

/// Per-pair decisions the front end makes at dequeue.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Plan {
    /// Audit-sampling key.
    pub(crate) audit_key: usize,
    /// Skip the pool and run on the software baseline.
    pub(crate) software: bool,
    /// Whether audit sampling and hedging apply.
    pub(crate) extras: bool,
}

/// Where a pair ran and whether its device faulted.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PairMeta {
    pub(crate) route: Route,
    pub(crate) faulted: bool,
}

/// One finished pair, handed back to the front end.
#[derive(Debug)]
pub(crate) struct Done {
    pub(crate) result: Result<Alignment, AlignError>,
    /// The last pool dispatch; `None` when the pair never reached it.
    pub(crate) meta: Option<PairMeta>,
    /// Retry attempts spent.
    pub(crate) retries: u32,
    /// The plan sent the pair straight to the software baseline.
    pub(crate) software: bool,
}

impl Done {
    /// A pair that failed before it reached the pool.
    pub(crate) fn failed(error: AlignError) -> Done {
        Done { result: Err(error), meta: None, retries: 0, software: false }
    }
}

/// What a shard needs from the caller in front of it.
pub(crate) trait Front {
    /// The queued work item.
    type Job: Job;
    /// The `(query, reference)` pair `job` aligns.
    fn pair<'a>(&'a self, job: &'a Self::Job) -> (&'a Sequence, &'a Sequence);
    /// The caller's lifecycle phase, read once per worker iteration.
    fn phase(&self) -> Phase;
    /// The policy for a pair about to run.
    fn plan(&self, job: &Self::Job) -> Plan;
    /// Work for `thief` once its own queue runs dry (`sweep`: draining).
    fn steal(&self, _thief: &Shard<Self::Job>, _sweep: bool) -> Option<Self::Job> {
        None
    }
    /// Takes one finished pair.
    fn complete(&self, job: Self::Job, done: Done);
}

/// Three-class strict-priority bounded queue with depth accounting.
pub(crate) struct ShardQueue<J> {
    pub(crate) cap: usize,
    inner: Mutex<QueueInner<J>>,
    ready: Condvar,
    space: Condvar,
}

struct QueueInner<J> {
    classes: [VecDeque<J>; 3],
    len: usize,
    max_depth: usize,
}

impl<J: Job> QueueInner<J> {
    fn push(&mut self, job: J) {
        // LINT: allow(panic) Job::class() returns 0..3 and classes has exactly 3 entries
        self.classes[job.class()].push_back(job);
        self.len += 1;
        self.max_depth = self.max_depth.max(self.len);
    }

    fn pop(&mut self) -> Option<J> {
        let job = self.classes.iter_mut().find_map(VecDeque::pop_front)?;
        self.len -= 1;
        Some(job)
    }
}

impl<J: Job> ShardQueue<J> {
    pub(crate) fn new(cap: usize) -> ShardQueue<J> {
        ShardQueue {
            cap,
            inner: Mutex::new(QueueInner {
                classes: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
                len: 0,
                max_depth: 0,
            }),
            ready: Condvar::new(),
            space: Condvar::new(),
        }
    }

    /// Enqueues `job`. A full queue hands it back — or, with `block`,
    /// waits for a slot (lossless backpressure).
    pub(crate) fn push(&self, job: J, block: bool) -> Result<(), J> {
        let mut inner = relock(&self.inner);
        while inner.len >= self.cap {
            if !block {
                return Err(job);
            }
            inner = self.space.wait(inner).unwrap_or_else(PoisonError::into_inner);
        }
        inner.push(job);
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Highest-priority job right now, without waiting (the steal and
    /// drain entry point).
    pub(crate) fn try_pop(&self) -> Option<J> {
        self.pop_within(Duration::ZERO)
    }

    /// Highest-priority job, waiting up to `timeout` for one to arrive.
    /// Bounded so the worker loop keeps beating its heartbeat.
    pub(crate) fn pop_within(&self, timeout: Duration) -> Option<J> {
        let mut inner = relock(&self.inner);
        if inner.len == 0 {
            inner =
                self.ready.wait_timeout(inner, timeout).unwrap_or_else(PoisonError::into_inner).0;
        }
        let job = inner.pop()?;
        drop(inner);
        self.space.notify_one();
        Some(job)
    }

    pub(crate) fn depth(&self) -> usize {
        relock(&self.inner).len
    }

    pub(crate) fn max_depth(&self) -> usize {
        relock(&self.inner).max_depth
    }

    pub(crate) fn wake_all(&self) {
        self.ready.notify_all();
    }
}

/// One executor shard: a device-pool slice behind its own bounded queue,
/// plus the progress counters a supervisor samples (atomics, so a wedged
/// shard cannot stall anyone sampling it).
pub(crate) struct Shard<J> {
    /// Shard id (the failpoint lane and the server's home-shard index).
    pub(crate) id: usize,
    pub(crate) queue: ShardQueue<J>,
    pub(crate) pool: DevicePool,
    /// Worker threads this shard runs.
    pub(crate) jobs: usize,
    cfg: ExecutorConfig,
    retry: RetryConfig,
    /// Caller-wide token: cancelling it aborts every pair at the next
    /// tile boundary.
    token: CancelToken,
    /// Bumped on restart: a worker whose spawn generation is stale
    /// exits instead of rejoining a shard that moved on without it.
    pub(crate) generation: AtomicU64,
    /// Bumped every worker iteration, idle ones included (the queue wait
    /// wakes every [`IDLE_WAIT`]): a frozen heartbeat signals a wedge.
    pub(crate) heartbeat: AtomicU64,
    /// Pairs this shard's workers finished (own or stolen).
    pub(crate) completed: AtomicU64,
}

impl<J: Job> Shard<J> {
    /// Builds every shard of `plan` over clones of `template`, each with
    /// an equal slice (at least one slot) of `cfg.queue_cap`.
    pub(crate) fn build(
        plan: &ShardPlan,
        template: &SmxDevice,
        cfg: &ExecutorConfig,
        retry: RetryConfig,
        token: &CancelToken,
    ) -> Result<Vec<Shard<J>>, AlignError> {
        let cap = cfg.queue_cap.div_ceil(plan.shards()).max(1);
        plan.jobs
            .iter()
            .zip(plan.devices.iter().zip(&plan.device_base))
            .enumerate()
            .map(|(id, (&jobs, (&devices, &base)))| {
                Ok(Shard {
                    id,
                    queue: ShardQueue::new(cap),
                    pool: DevicePool::new_with_device_base(
                        template,
                        devices,
                        base,
                        cfg.breaker,
                        cfg.quarantine,
                    )?,
                    jobs,
                    cfg: cfg.clone(),
                    retry,
                    token: token.clone(),
                    generation: AtomicU64::new(0),
                    heartbeat: AtomicU64::new(0),
                    completed: AtomicU64::new(0),
                })
            })
            .collect()
    }
}

/// One shard worker: beats the heartbeat and serves its queue (or
/// stolen work) until the front end stops or drains, or a restart
/// retires its generation.
pub(crate) fn worker_loop<F: Front>(front: &F, shard: &Shard<F::Job>, generation: u64) {
    loop {
        if shard.generation.load(Ordering::SeqCst) != generation {
            return;
        }
        match front.phase() {
            Phase::Stopped => return,
            Phase::Draining => {
                // Flush everything reachable — own queue first, then a
                // sweep of the front end's other work — and exit.
                while let Some(job) = shard.queue.try_pop().or_else(|| front.steal(shard, true)) {
                    run_job(front, shard, job);
                }
                return;
            }
            Phase::Running => {}
        }
        // Failpoint `shard.heartbeat` (lane = shard id): an injected
        // error swallows this beat — the worker idles without touching
        // its queue or heartbeat, which is exactly what a wedged worker
        // looks like to a supervisor. `delay` wedges by sleeping here
        // (inside the registry), `kill` dies mid-beat for crash tests.
        if smx_failpoint::hit_lane("shard.heartbeat", shard.id as u32).is_some() {
            std::thread::sleep(Duration::from_millis(5));
            continue;
        }
        shard.heartbeat.fetch_add(1, Ordering::SeqCst);
        if let Some(job) = shard.queue.pop_within(IDLE_WAIT).or_else(|| front.steal(shard, false)) {
            run_job(front, shard, job);
        }
    }
}

/// Runs one dequeued pair and hands the outcome to the front end: the
/// inline (`jobs == 1`) batch, every worker, and the drain sweep.
pub(crate) fn run_job<F: Front>(front: &F, shard: &Shard<F::Job>, job: F::Job) {
    let done = serve(front, shard, &job);
    front.complete(job, done);
    shard.completed.fetch_add(1, Ordering::SeqCst);
}

/// Deadline at dequeue, the front end's plan, dispatch through the pool,
/// and the bounded retry budget on top.
fn serve<F: Front>(front: &F, shard: &Shard<F::Job>, job: &F::Job) -> Done {
    let deadline = job.deadline();
    // A pair that expired while queued must not burn device time.
    if let Some((at, budget_ms)) = deadline {
        if Instant::now() >= at {
            return Done::failed(AlignError::DeadlineExceeded { budget_ms });
        }
    }
    let plan = front.plan(job);
    let (q, r) = front.pair(job);
    let mut retries = 0u32;
    let mut meta = None;
    let result = loop {
        let remaining = deadline
            .map(|(at, _)| at.saturating_duration_since(Instant::now()))
            .or(shard.cfg.deadline);
        let attempt = if plan.software {
            shard.attempt_on_software(q, r, &budgeted(&shard.token, remaining))
        } else {
            let (result, m) = shard.run_pair((q, r), &plan, remaining);
            meta = Some(m);
            result
        };
        let retryable = attempt.as_ref().err().is_some_and(AlignError::is_recoverable_fault);
        let expired = deadline.is_some_and(|(at, _)| Instant::now() >= at);
        if retryable
            && retries < shard.retry.attempts
            && !expired
            && front.phase() != Phase::Stopped
        {
            let backoff = shard.retry.backoff * (retries + 1);
            if let Some((at, budget_ms)) = deadline {
                // Clip against the *remaining* deadline at this attempt,
                // not just the first: if the backoff would sleep to (or
                // past) the deadline, the retry is doomed before it
                // starts — fail typed now instead of napping into a
                // guaranteed deadline failure.
                if backoff >= at.saturating_duration_since(Instant::now()) {
                    break Err(AlignError::DeadlineExceeded { budget_ms });
                }
            }
            retries += 1;
            std::thread::sleep(backoff);
            continue;
        }
        break attempt;
    };
    Done { result, meta, retries, software: plan.software }
}

impl<J> Shard<J> {
    /// Runs one pair through the pool: canary duty, dispatch, the primary
    /// attempt under `min(deadline, hedge trigger)`, the hedge backup, the
    /// audit retry-then-recompute ladder, and the health feedback — in
    /// that order. Whatever path wins, the alignment is byte-identical.
    fn run_pair(
        &self,
        (q, r): (&Sequence, &Sequence),
        plan: &Plan,
        deadline: Option<Duration>,
    ) -> (Result<Alignment, AlignError>, PairMeta) {
        let pool = &self.pool;
        // Quarantined devices are re-probed opportunistically by whichever
        // worker passes by next, so requalification needs no extra thread.
        pool.run_due_canaries();
        // `dispatch_pair` confines the pool-wide health guard to the pool
        // call, so no arm below — not even a full baseline DP — runs with
        // it held.
        let (id, route) = match pool.dispatch_pair() {
            Ok(route @ (Route::Device(id) | Route::Probe { id, .. })) => (id, route),
            // The whole pool is quarantined, or this device's breaker is
            // open (its cooldown already advanced): serve from the baseline.
            Ok(Route::Software) => {
                let result = self.attempt_on_software(q, r, &budgeted(&self.token, deadline));
                return (result, PairMeta { route: Route::Software, faulted: false });
            }
            Err(e) => return (Err(e), PairMeta { route: Route::Software, faulted: false }),
        };

        let start = Instant::now();
        let hedge = self.cfg.hedge.filter(|_| plan.extras);
        let hedge_after = hedge.and_then(|h| pool.hedge_threshold(&h));
        // The hedge trigger is implemented by capping the primary attempt's
        // token budget: a primary that would run past the trigger cancels
        // itself at the next tile boundary, and the backup takes over with
        // the remainder of the real deadline (DESIGN.md §6).
        let hedge_armed = hedge_after.is_some_and(|h| deadline.is_none_or(|d| h < d));
        let primary_budget = match (deadline, hedge_after) {
            (Some(d), Some(h)) => Some(d.min(h)),
            (d, h) => d.or(h),
        };
        let mut ev = OutcomeEvents::default();
        let mut result =
            self.attempt_on_device(id, q, r, &budgeted(&self.token, primary_budget), &mut ev);

        if matches!(result, Err(AlignError::DeadlineExceeded { .. })) {
            ev.deadline = true;
            let remaining = deadline.map(|d| d.saturating_sub(start.elapsed()));
            if hedge_armed && remaining != Some(Duration::ZERO) {
                // The primary hit the hedge trigger, not the real deadline:
                // launch the backup on the always-healthy baseline with the
                // remaining budget. Byte-identity makes the winner
                // indistinguishable in the output.
                ev.hedge_launched = true;
                let backup = self.attempt_on_software(q, r, &budgeted(&self.token, remaining));
                ev.hedge_won = backup.is_ok();
                result = backup;
            }
        } else if result.is_ok() {
            pool.record_latency(start.elapsed());
        }

        if plan.extras && self.cfg.audit.as_ref().is_some_and(|a| a.samples(plan.audit_key)) {
            if let Ok(a) = &result {
                if !ev.hedge_won {
                    ev.audits += 1;
                    if pool.audit(id, a, q, r).is_err() {
                        ev.integrity += 1;
                        result = self.audit_recovery(id, (q, r), deadline, start, &mut ev);
                    }
                }
            }
        }

        pool.record_outcome(route, ev);
        (result, PairMeta { route, faulted: ev.faulted })
    }

    /// The scoreboard's recovery ladder after a failed audit: retry once
    /// on the same device (re-auditing the retry), then recompute on the
    /// software baseline. The corrupt alignment is never returned.
    fn audit_recovery(
        &self,
        id: usize,
        (q, r): (&Sequence, &Sequence),
        deadline: Option<Duration>,
        start: Instant,
        ev: &mut OutcomeEvents,
    ) -> Result<Alignment, AlignError> {
        let left = || budgeted(&self.token, deadline.map(|d| d.saturating_sub(start.elapsed())));
        let fail_closed = self.cfg.fail_closed;
        match self.attempt_on_device(id, q, r, &left(), ev) {
            Ok(a) => {
                ev.audits += 1;
                match self.pool.audit(id, &a, q, r) {
                    Ok(()) => return Ok(a),
                    Err(e) => {
                        ev.integrity += 1;
                        if fail_closed {
                            return Err(e);
                        }
                    }
                }
            }
            Err(e) if fail_closed => return Err(e),
            Err(_) => {}
        }
        ev.recomputed = true;
        self.attempt_on_software(q, r, &left())
    }

    /// One attempt on pool device `id` under `token`, booking into `ev`
    /// whether it faulted for breaker/health purposes: the device
    /// injected at least one detectable fault while it ran, or it failed
    /// with a recoverable device fault. Deadline and cancellation
    /// failures are *not* faults — breaking on them would mask overload
    /// as device sickness. A recoverable fault is then recomputed on the
    /// software path under the same token, with the device released
    /// first, unless the executor fails closed.
    fn attempt_on_device(
        &self,
        id: usize,
        q: &Sequence,
        r: &Sequence,
        token: &CancelToken,
        ev: &mut OutcomeEvents,
    ) -> Result<Alignment, AlignError> {
        // The device mutex is poisoned (another worker panicked inside
        // align): fail this pair typed. Not a fault — breaking the
        // breaker on a poisoned lock would misread a process-level bug
        // as device sickness.
        let mut dev = self.pool.device(id)?;
        // Failpoint `pool.dispatch` (lane = device id): the dispatch path
        // to this device fails before work starts. Surfaced as a
        // recoverable TileCorrupted fault so the breaker, EWMA health, and
        // quarantine ladder all react exactly as they would to real device
        // sickness — which is what chaos schedules poison a device with.
        if smx_failpoint::hit_lane("pool.dispatch", id as u32).is_some() {
            ev.faulted = true;
            return Err(AlignError::TileCorrupted { ti: 0, tj: 0 });
        }
        dev.set_cancel_token(Some(token.clone()));
        let before = dev.recovery_stats().faults_injected;
        // LINT: allow(lock-order) the device guard must stay held across its own DP by design: the mutex IS the device's execution slot
        let result = dev.align(q, r);
        let injected = dev.recovery_stats().faults_injected > before;
        dev.set_cancel_token(None);
        drop(dev);
        let device_fault = result.as_ref().err().is_some_and(AlignError::is_recoverable_fault);
        ev.faulted |= injected || device_fault;
        if device_fault && !self.cfg.fail_closed {
            ev.degraded += 1;
            return self.attempt_on_software(q, r, token);
        }
        result
    }

    /// One attempt on the software path under `token`.
    fn attempt_on_software(
        &self,
        q: &Sequence,
        r: &Sequence,
        token: &CancelToken,
    ) -> Result<Alignment, AlignError> {
        align_in_software((q, r), &self.pool.scheme, self.pool.alphabet, token)
    }
}

/// `token` forked with `budget` as its deadline, or a plain clone when
/// there is no budget.
fn budgeted(token: &CancelToken, budget: Option<Duration>) -> CancelToken {
    budget.map_or_else(|| token.clone(), |b| token.fork_with_deadline(b))
}
