//! Hardened alignment-as-a-service front door (DESIGN.md §8).
//!
//! [`Server`] turns the batch-oriented resilience stack — device pool,
//! per-device breakers, audit scoreboard, hedging, quarantine — into a
//! long-running framed-TCP service. It runs the batch executor's own
//! executor core (`crate::shard`), so every defense is the same code;
//! the server adds the concerns that only exist once the work arrives
//! over a socket from parties that do not coordinate:
//!
//! * **Admission control** — per-tenant token buckets and priority
//!   classes in front of the bounded work queue. Every refusal is a
//!   typed `REJECT` with a retry-after hint; a client never hangs
//!   without an answer.
//! * **Deadline propagation** — the client's per-pair deadline is fixed
//!   at admission as an absolute instant, re-checked at dequeue (a pair
//!   that expired while queued never touches a device), and forked into
//!   the [`CancelToken`] the coprocessor checks at tile boundaries.
//! * **Brownout** — overload degrades service in a ladder rather than
//!   collapsing it: first audit sampling and hedging are shed, then
//!   low-priority pairs run on the SIMD software baseline directly, and
//!   only near saturation is low-priority work refused outright.
//! * **Graceful drain** — on drain the listener closes, in-flight pairs
//!   flush through their checkpoint manifests (one fsync per batch of
//!   records), every session gets a `DONE` summary, and the caller
//!   receives per-tenant counts.
//! * **Crash consistency** — a `RESULT` is written only *after* the
//!   pair's manifest record is durable, so `kill -9` at any instant
//!   leaves no pair acked-but-lost: resuming the session replays every
//!   acked pair byte-identically and recomputes nothing else.
//!
//! The byte-identity invariant carries over verbatim: admission,
//! brownout, retries, and routing decide *where* and *whether* a pair
//! runs — never *what* it computes.

mod fleet;
pub mod proto;
pub mod session;
pub mod tenant;
mod writer;

use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use smx_align_core::{AlignError, Alignment, Alphabet, Sequence};
use smx_coproc::control::CancelToken;
use smx_io::checkpoint::{BatchOutcome, CheckpointWriter, SyncFile};

use crate::orchestrator::SmxDevice;
use crate::service::{self, ExecutorConfig, ServiceStats};
use crate::shard::{self, relock, Done, Front, Phase, Plan, Shard};

use fleet::{home_shard, Fleet, ShardState, Step};
use proto::{read_frame, write_frame, FailKind, ProtoError, RejectReason, Request, Response};
use session::{Session, SessionStore};
use tenant::{BrownoutConfig, BrownoutLevel, Priority, TenantCounters, TenantPolicy, TenantTable};
use writer::{Action, Event, Writer};

pub use crate::shard::RetryConfig;
pub use fleet::{ShardSnapshot, SupervisorConfig};

/// Server tuning on top of the executor configuration it fronts.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The resilience stack: jobs, queue capacity, breaker, audit,
    /// hedging, quarantine, and the *default* per-pair deadline (used
    /// when a session's `HELLO` carries deadline 0).
    pub exec: ExecutorConfig,
    /// Token-bucket policy handed to every tenant.
    pub policy: TenantPolicy,
    /// Brownout ladder thresholds over queue occupancy.
    pub brownout: BrownoutConfig,
    /// Bounded retry/backoff budget for recoverable faults.
    pub retry: RetryConfig,
    /// Maximum simultaneous connections; excess connects get a typed
    /// `ERR` and are closed.
    pub max_conns: usize,
    /// Per-connection in-flight cap: a slow reader that lets this many
    /// pairs pile up gets `REJECT overloaded` instead of unbounded
    /// server-side buffering.
    pub max_outstanding: usize,
    /// Directory for per-session checkpoint manifests (`None` = all
    /// sessions ephemeral).
    pub checkpoint_dir: Option<PathBuf>,
    /// Resume manifests left by a previous process (the post-crash
    /// restart path). Without it, a fresh process truncates them.
    pub resume_sessions: bool,
    /// Independent executor shards the fleet splits into. Each shard
    /// owns a disjoint slice of the worker threads and device pool and
    /// its own bounded queue, so one wedged shard is a capacity dip,
    /// not an outage. `1` reproduces the single-executor server.
    pub shards: usize,
    /// Wedge-detection and containment budget for the supervisor.
    pub supervisor: SupervisorConfig,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            exec: ExecutorConfig::default(),
            policy: TenantPolicy::default(),
            brownout: BrownoutConfig::default(),
            retry: RetryConfig::default(),
            max_conns: 64,
            max_outstanding: 256,
            checkpoint_dir: None,
            resume_sessions: false,
            shards: 1,
            supervisor: SupervisorConfig::default(),
        }
    }
}

/// Per-tenant counts handed back when the server drains.
#[derive(Debug, Clone)]
pub struct DrainReport {
    /// Tenants in name order with their final counters.
    pub per_tenant: Vec<(String, TenantCounters)>,
    /// The global tally at drain, every shard's pool folded in.
    pub totals: ServiceStats,
    /// Per-shard counters at drain, in shard-id order.
    pub per_shard: Vec<ShardSnapshot>,
}

const STATE_RUNNING: u8 = 0;
const STATE_DRAINING: u8 = 1;
const STATE_CRASHED: u8 = 2;

/// One admitted pair flowing to the workers.
struct Job {
    id: usize,
    priority: Priority,
    query: Sequence,
    reference: Sequence,
    /// Absolute deadline fixed at admission, plus the original budget in
    /// ms (for the typed error when it expires in the queue).
    deadline: Option<(Instant, u64)>,
    /// The connection's writer, which records the result and acks it.
    reply: mpsc::Sender<Event>,
}

impl shard::Job for Job {
    fn class(&self) -> usize {
        self.priority.class()
    }

    fn deadline(&self) -> Option<(Instant, u64)> {
        self.deadline
    }
}

/// State shared by the accept loop, workers, supervisor, and
/// connection threads.
struct Shared {
    cfg: ServerConfig,
    alphabet: Alphabet,
    shards: Vec<Shard<Job>>,
    /// Worker handles with their shard id, joined at wind-down. A
    /// retired generation exits on its own once whatever wedged it
    /// releases.
    workers: Mutex<Vec<(usize, JoinHandle<()>)>>,
    /// Every shard-lifecycle and routing decision. Held only for a
    /// decision and what it drives at once (a dispatch's non-blocking
    /// queue pushes, a restart's worker spawn), never across a queue
    /// wait, a pair, a sleep or a join.
    fleet: Mutex<Fleet>,
    state: AtomicU8,
    /// Batch-wide token: cancelled on crash so in-flight pairs abort at
    /// the next tile boundary instead of finishing into the void.
    token: CancelToken,
    tenants: Mutex<TenantTable>,
    sessions: Mutex<SessionStore>,
    /// The global tally, booked at ack by the connection writers.
    counters: Mutex<ServiceStats>,
    /// Monotone pair sequence for deterministic audit sampling.
    pair_seq: AtomicUsize,
    conns: AtomicUsize,
    conn_threads: Mutex<Vec<JoinHandle<()>>>,
    /// Worst brownout level observed, as its rank (for `/stats`).
    brownout_peak: AtomicUsize,
}

impl Shared {
    fn state(&self) -> u8 {
        self.state.load(Ordering::SeqCst)
    }

    /// Queue occupancy over *live* capacity: a quarantined shard's
    /// queue slots no longer exist as far as admission is concerned,
    /// so losing a shard makes the survivors brown out earlier instead
    /// of the fleet pretending it still has the dead capacity.
    fn live_occupancy(&self) -> (usize, usize) {
        let fleet = self.fleet();
        self.shards
            .iter()
            .filter(|s| fleet.counts_capacity(s.id))
            .fold((0, 0), |(depth, cap), s| (depth + s.queue.depth(), cap + s.queue.cap))
    }

    fn fleet(&self) -> MutexGuard<'_, Fleet> {
        relock(&self.fleet)
    }

    /// Every shard's snapshot, in shard-id order.
    fn snapshots(&self) -> Vec<ShardSnapshot> {
        let fleet = self.fleet();
        let snap = |s: &Shard<Job>| ShardSnapshot {
            completed: s.completed.load(Ordering::SeqCst),
            queue_depth: s.queue.depth(),
            max_queue_depth: s.queue.max_depth(),
            ..fleet.snapshot(s.id)
        };
        self.shards.iter().map(snap).collect()
    }

    fn brownout(&self) -> BrownoutLevel {
        let (depth, cap) = self.live_occupancy();
        let level = BrownoutLevel::from_occupancy(&self.cfg.brownout, depth, cap);
        self.brownout_peak.fetch_max(level.rank(), Ordering::Relaxed);
        level
    }

    /// The `/stats` text: lifecycle, queue and brownout, the global
    /// tally, then one line per shard and per tenant — everything an
    /// operator needs to see which rung of the degradation ladder the
    /// service is standing on.
    fn stats_text(&self) -> String {
        use std::fmt::Write as _;
        let state = match self.state() {
            STATE_RUNNING => "running",
            STATE_DRAINING => "draining",
            _ => "crashed",
        };
        let level = self.brownout();
        let peak = self.brownout_peak.load(Ordering::Relaxed);
        let (depth, cap) = self.live_occupancy();
        let totals = self.totals();
        let mut s = String::new();
        let _ = writeln!(s, "state: {state}");
        let _ = writeln!(s, "connections: {}", self.conns.load(Ordering::SeqCst));
        let _ = writeln!(s, "queue_depth: {depth}/{cap} (max {})", totals.max_queue_depth);
        let _ = writeln!(s, "brownout: {level} (peak rank {peak})");
        let _ = write!(s, "{totals}");
        for shard in self.snapshots() {
            let _ = writeln!(s, "{shard}");
        }
        for (name, t) in relock(&self.tenants).sorted() {
            let _ = writeln!(s, "tenant {name}: priority={} {}", t.priority, t.counters);
        }
        s
    }

    /// The global tally with every shard's pool and queue high-water
    /// mark folded in: what `STATS` and the drain report print.
    fn totals(&self) -> ServiceStats {
        let mut totals = relock(&self.counters).clone();
        for shard in &self.shards {
            totals.add_pool(&shard.pool);
            totals.max_queue_depth = totals.max_queue_depth.max(shard.queue.max_depth());
        }
        totals
    }

    /// Books one event into the global tally and the tenant's counters
    /// together, so they agree by construction. Takes `tenants` before
    /// `counters`, the order lint.toml declares.
    fn book(
        &self,
        tenant: &str,
        global: impl FnOnce(&mut ServiceStats),
        local: impl FnOnce(&mut TenantCounters),
    ) {
        let mut tenants = relock(&self.tenants);
        global(&mut relock(&self.counters));
        if let Some(counters) = tenants.counters_mut(tenant) {
            local(counters);
        }
    }

    /// The session store, with poison surfaced as a typed error.
    ///
    /// Unlike the counter/registry locks (see [`relock`]), the session
    /// store backs the crash-consistency guarantee: a holder that
    /// panicked mid-`open`/`release` may have left an `active` entry or
    /// a manifest writer half-registered, and silently recovering could
    /// hand two connections the same session manifest. Callers turn
    /// this error into an `ERR` frame and tear the connection down.
    fn sessions(&self) -> Result<std::sync::MutexGuard<'_, SessionStore>, AlignError> {
        self.sessions.lock().map_err(|_| AlignError::Internal("session store lock poisoned".into()))
    }
}

/// The front-door server factory.
pub struct Server;

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts the accept loop
    /// and `cfg.exec.jobs` worker threads over a pool built from
    /// `device`.
    ///
    /// # Errors
    ///
    /// Invalid executor configuration ([`ExecutorConfig::validate`], as
    /// in batch), an impossible shard plan, pool construction failures,
    /// and bind failures, all as typed [`AlignError`]s.
    pub fn bind(
        device: SmxDevice,
        cfg: ServerConfig,
        addr: &str,
    ) -> Result<ServerHandle, AlignError> {
        cfg.exec.validate()?;
        let plan = service::ShardPlan::split(&cfg.exec, cfg.shards)?;
        let token = CancelToken::new();
        let shards = Shard::build(&plan, &device, &cfg.exec, cfg.retry, &token)?;
        let io = |at: String| move |e: std::io::Error| AlignError::Internal(format!("{at}: {e}"));
        let listener = TcpListener::bind(addr).map_err(io(format!("bind {addr}")))?;
        let local = listener.local_addr().map_err(io("local addr".into()))?;
        listener.set_nonblocking(true).map_err(io("nonblocking listener".into()))?;
        if let Some(dir) = &cfg.checkpoint_dir {
            std::fs::create_dir_all(dir).map_err(io("checkpoint dir".into()))?;
        }
        let sessions = SessionStore::new(cfg.checkpoint_dir.clone(), cfg.resume_sessions);
        let shared = Arc::new(Shared {
            alphabet: device.config().alphabet(),
            fleet: Mutex::new(Fleet::new(shards.len(), cfg.supervisor)),
            shards,
            workers: Mutex::new(Vec::new()),
            state: AtomicU8::new(STATE_RUNNING),
            token,
            tenants: Mutex::new(TenantTable::new(cfg.policy)),
            sessions: Mutex::new(sessions),
            counters: Mutex::new(ServiceStats::default()),
            pair_seq: AtomicUsize::new(0),
            conns: AtomicUsize::new(0),
            conn_threads: Mutex::new(Vec::new()),
            brownout_peak: AtomicUsize::new(0),
            cfg,
        });

        for s in 0..shared.shards.len() {
            spawn_shard_workers(&shared, s, 0);
        }
        let supervisor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || supervisor_loop(&shared))
        };
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&listener, &shared))
        };
        Ok(ServerHandle { shared, addr: local, accept: Some(accept), supervisor: Some(supervisor) })
    }
}

/// Spawns one generation of workers for shard `s`.
fn spawn_shard_workers(shared: &Arc<Shared>, s: usize, generation: u64) {
    let Some(shard) = shared.shards.get(s) else { return };
    let handles: Vec<(usize, JoinHandle<()>)> = (0..shard.jobs)
        .map(|_| {
            let shared = Arc::clone(shared);
            let worker = std::thread::spawn(move || {
                if let Some(shard) = shared.shards.get(s) {
                    shard::worker_loop(&*shared, shard, generation);
                }
            });
            (s, worker)
        })
        .collect();
    relock(&shared.workers).extend(handles);
}

/// A running server: its address, live stats, and the two ways down —
/// graceful [`ServerHandle::drain`] or simulated [`ServerHandle::crash`].
pub struct ServerHandle {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    supervisor: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (with the OS-assigned port when bound to `:0`).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The `/stats` text, identical to what a `STATS` frame returns.
    #[must_use]
    pub fn stats_text(&self) -> String {
        self.shared.stats_text()
    }

    /// Live per-shard counters, in shard-id order (the storm
    /// harnesses' view of failovers while the server runs).
    #[must_use]
    pub fn shard_snapshots(&self) -> Vec<ShardSnapshot> {
        self.shared.snapshots()
    }

    /// Graceful drain: stop accepting, flush every in-flight and queued
    /// pair through its durable manifest, `DONE` every session, and
    /// report per-tenant counts.
    pub fn drain(mut self) -> DrainReport {
        self.wind_down(STATE_DRAINING);
        let shared = &self.shared;
        let per_tenant = relock(&shared.tenants)
            .sorted()
            .into_iter()
            .map(|(name, t)| (name.to_string(), t.counters))
            .collect();
        let totals = shared.totals();
        let per_shard = shared.snapshots();
        DrainReport { per_tenant, totals, per_shard }
    }

    /// Simulated `kill -9` for in-process crash testing: no flush, no
    /// `DONE`, no further acks — connections just die. Acked pairs are
    /// already durable (the ack ordering guarantees it), so a restart
    /// over the same checkpoint directory with resume enabled replays
    /// exactly the acked set.
    pub fn crash(mut self) {
        self.shared.token.cancel();
        self.wind_down(STATE_CRASHED);
    }

    fn wind_down(&mut self, state: u8) {
        self.shared.state.store(state, Ordering::SeqCst);
        for shard in &self.shared.shards {
            shard.queue.wake_all();
        }
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        if let Some(supervisor) = self.supervisor.take() {
            let _ = supervisor.join();
        }
        // Taken first, so no worker is joined with the registry held.
        let workers = std::mem::take(&mut *relock(&self.shared.workers));
        for (_, worker) in workers {
            let _ = worker.join();
        }
        // Belt-and-braces drain sweep: if a restart/quarantine race left
        // a job queued anywhere after every worker exited, flush it on
        // the software baseline rather than strand its client. Crash
        // skips this — a dead process flushes nothing.
        if state == STATE_DRAINING {
            for shard in &self.shared.shards {
                while let Some(job) = shard.queue.try_pop() {
                    shard::run_job(&*self.shared, shard, job);
                }
            }
        }
        // Connection threads exit on their own once they observe the
        // state flip (bounded by their read/recv timeouts).
        loop {
            let handles: Vec<JoinHandle<()>> =
                std::mem::take(&mut *relock(&self.shared.conn_threads));
            if handles.is_empty() {
                break;
            }
            for h in handles {
                let _ = h.join();
            }
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    while shared.state() == STATE_RUNNING {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nonblocking(false);
                if shared.conns.load(Ordering::SeqCst) >= shared.cfg.max_conns {
                    refuse(&stream, "connection capacity reached; retry later".into());
                    continue;
                }
                // Reap the connections that ended first: an exited thread
                // keeps its stack and malloc arena until it is joined, so
                // a long-lived server would otherwise grow with every
                // connection it ever accepted.
                let ended: Vec<JoinHandle<()>> = {
                    let mut threads = relock(&shared.conn_threads);
                    let (ended, live) =
                        std::mem::take(&mut *threads).into_iter().partition(|h| h.is_finished());
                    *threads = live;
                    ended
                };
                for h in ended {
                    let _ = h.join();
                }
                shared.conns.fetch_add(1, Ordering::SeqCst);
                let shared2 = Arc::clone(shared);
                let handle = std::thread::spawn(move || {
                    conn_loop(stream, &shared2);
                    shared2.conns.fetch_sub(1, Ordering::SeqCst);
                });
                relock(&shared.conn_threads).push(handle);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// The server's side of every shard: brownout and dequeue-sequence audit
/// sampling at dequeue, stealing between shards, and completions handed
/// to the connection's writer.
impl Front for Shared {
    type Job = Job;

    fn pair<'a>(&'a self, job: &'a Job) -> (&'a Sequence, &'a Sequence) {
        (&job.query, &job.reference)
    }

    fn phase(&self) -> Phase {
        match self.state() {
            STATE_RUNNING => Phase::Running,
            STATE_DRAINING => Phase::Draining,
            _ => Phase::Stopped,
        }
    }

    fn plan(&self, job: &Job) -> Plan {
        let level = self.brownout();
        Plan {
            audit_key: self.pair_seq.fetch_add(1, Ordering::SeqCst),
            software: level >= BrownoutLevel::DegradingLow && job.priority == Priority::Low,
            // Shed the server's own luxuries before touching anyone's
            // traffic: audits and hedges cost device/host time.
            extras: level < BrownoutLevel::SheddingExtras,
        }
    }

    /// Steals the highest-priority queued job from the sibling the
    /// fleet picks. `sweep` (the drain path) takes from shards in any
    /// state: flushing beats affinity.
    fn steal(&self, thief: &Shard<Job>, sweep: bool) -> Option<Job> {
        let depths: Vec<usize> = self.shards.iter().map(|s| s.queue.depth()).collect();
        let victim = self.fleet().steal_victim(thief.id, sweep, &depths)?;
        let job = self.shards.get(victim)?.queue.try_pop()?;
        self.fleet().stolen(victim, thief.id);
        Some(job)
    }

    fn complete(&self, job: Job, done: Done) {
        finish(&job, done);
    }
}

/// The supervisor: samples every shard's `(heartbeat, completed)`
/// progress each `interval`, lets the fleet walk its containment
/// ladder, and runs the restarts it asks for — the chaos storm's
/// stagnation criterion applied in-process. Exits when the server
/// leaves the running state; restarts never race a drain.
fn supervisor_loop(shared: &Arc<Shared>) {
    while shared.state() == STATE_RUNNING {
        std::thread::sleep(shared.cfg.supervisor.interval);
        for (s, shard) in shared.shards.iter().enumerate() {
            let beat =
                (shard.heartbeat.load(Ordering::SeqCst), shard.completed.load(Ordering::SeqCst));
            let step = shared.fleet().sample(s, beat, Instant::now());
            if step == Step::Restart {
                restart_shard(shared, s);
            }
        }
    }
}

/// Rung 2 of the ladder: drain-and-restart shard `s` in place —
/// requeue-before-restart (queued pairs move to live siblings *before*
/// the old workers are retired, so a kill at any point loses nothing
/// that was acked), retire the wedged worker generation, respawn. Rung
/// 3: once the restart budget is spent, quarantine the shard for good
/// and re-advertise the lost capacity to admission.
fn restart_shard(shared: &Arc<Shared>, s: usize) {
    let Some(shard) = shared.shards.get(s) else { return };
    shared.fleet().begin_restart(s);
    // Requeue-before-restart: every queued pair finds a live home (or
    // comes straight back to this queue for the fresh generation).
    redistribute_queue(shared, s);

    // Failpoint `shard.restart` (lane = shard id): `error` fails this
    // restart attempt — the shard falls back to degraded, without
    // workers, and the next stagnation round retries, marching toward
    // quarantine; `kill` dies between requeue and respawn (the window
    // requeue-before-restart exists to make safe).
    let restart_failed = smx_failpoint::hit_lane("shard.restart", s as u32).is_some();

    // Retire the wedged generation: whatever finally un-wedges those
    // workers, the generation check sends them straight to exit.
    let generation = shard.generation.fetch_add(1, Ordering::SeqCst) + 1;
    relock(&shared.workers).retain(|(_, h)| !h.is_finished());

    let mut fleet = shared.fleet();
    let state = fleet.restart_verdict(s, restart_failed, Instant::now());
    if state == ShardState::Live {
        // Spawned under the fleet guard: no dispatcher sees the shard
        // live before its fresh generation exists.
        spawn_shard_workers(shared, s, generation);
    }
    drop(fleet);
    if state == ShardState::Quarantined {
        // Anything the redistribute had to leave on this queue can
        // never be served here again: fail it typed so the client can
        // resubmit (it lands on a live shard next time).
        while let Some(job) = shard.queue.try_pop() {
            let error = format!("shard {s} quarantined; resubmit the pair");
            finish(&job, Done::failed(AlignError::Internal(error)));
        }
    }
}

/// Moves every queued pair off shard `s` onto the fleet's requeue
/// targets: live siblings first, then `s`'s own (just-emptied) queue.
fn redistribute_queue(shared: &Shared, s: usize) {
    let Some(source) = shared.shards.get(s) else { return };
    let targets = shared.fleet().requeue_targets(s);
    let jobs: Vec<Job> = std::iter::from_fn(|| source.queue.try_pop()).collect();
    'jobs: for mut job in jobs {
        for shard in targets.iter().filter_map(|&t| shared.shards.get(t)) {
            match shard.queue.push(job, false) {
                Ok(()) => continue 'jobs,
                Err(back) => job = back,
            }
        }
        // Not even the shard's own, just-emptied queue took it back.
        let error = format!("shard {s} restart could not requeue the pair; resubmit");
        finish(&job, Done::failed(AlignError::Internal(error)));
    }
}

/// Hands a finished pair to the connection's writer, which records it
/// durably, books it, and acks it.
fn finish(job: &Job, done: Done) {
    // A send failure means the connection is gone; the pair's outcome is
    // simply unacked (and therefore recomputable on resume).
    let _ = job.reply.send(Event::Result(job.id, done));
}

/// Writes one `ERR` frame to a connection the server will not serve.
fn refuse(stream: &TcpStream, detail: String) {
    let _ = write_frame(&mut BufWriter::new(stream), &Response::Err(detail).encode());
}

/// Whether a frame read only hit the socket's read timeout, which
/// bounds every wait so the reader keeps watching the server's state.
fn timed_out(e: &ProtoError) -> bool {
    use std::io::ErrorKind::{TimedOut, WouldBlock};
    matches!(e, ProtoError::Io(e) if matches!(e.kind(), WouldBlock | TimedOut))
}

/// One connection's admission context, fixed at `HELLO`.
struct Conn {
    /// The connection's writer: every frame and completion goes here.
    tx: mpsc::Sender<Event>,
    tenant: String,
    priority: Priority,
    /// The deadline each pair gets: the HELLO's, or the server default.
    deadline: Option<Duration>,
    /// Pairs already durable in the session manifest: replayed, not rerun.
    resume_ids: std::collections::HashSet<usize>,
    /// Pairs admitted and not yet acked, shared with the writer.
    outstanding: Arc<AtomicUsize>,
}

/// Per-connection reader: the protocol state machine and the admission
/// ladder. All socket *writes* go through the writer thread so frames
/// never interleave.
fn conn_loop(stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);

    // Phase 1: HELLO. Tolerate read timeouts while waiting, but give up
    // if the server stops running.
    let hello = loop {
        match read_frame(&mut reader) {
            Ok(Some(payload)) => break payload,
            Err(e) if timed_out(&e) && shared.state() == STATE_RUNNING => {}
            Ok(None) | Err(_) => return,
        }
    };
    let Ok(Request::Hello { session: session_id, tenant, priority, deadline_ms }) =
        Request::parse(&hello)
    else {
        refuse(&write_half, "expected HELLO as the first frame".into());
        return;
    };
    let opened = {
        let mut warn = |warning: session::ResumeWarning| {
            eprintln!("# resume: session {session_id}: {warning}");
        };
        // The open result is hoisted out of the match so the store
        // guard dies at this statement — an Err arm that wrote to the
        // socket while still holding the lock would stall every other
        // connection's open/release behind one slow client.
        shared
            .sessions()
            .map_err(|e| e.to_string())
            .and_then(|mut s| s.open(&session_id, &mut warn).map_err(|e| e.to_string()))
    };
    let session = match opened {
        Ok(s) => s,
        Err(detail) => {
            refuse(&write_half, detail);
            return;
        }
    };
    let resume_ids: std::collections::HashSet<usize> = session.completed.keys().copied().collect();
    let resumed = resume_ids.len() as u64;
    relock(&shared.tenants).entry(&tenant, priority);

    let outstanding = Arc::new(AtomicUsize::new(0));
    let (tx, rx) = mpsc::channel::<Event>();
    let writer = {
        let shared = Arc::clone(shared);
        let tenant = tenant.clone();
        let outstanding = Arc::clone(&outstanding);
        let _ = write_half.set_write_timeout(Some(Duration::from_secs(5)));
        std::thread::spawn(move || {
            writer_loop(write_half, rx, session, &shared, &tenant, &outstanding)
        })
    };
    let _ = tx.send(Event::Frame(Response::Ok { session: session_id.clone(), resumed }));
    let deadline = if deadline_ms == 0 {
        shared.cfg.exec.deadline
    } else {
        Some(Duration::from_millis(deadline_ms))
    };
    let conn = Conn { tx, tenant, priority, deadline, resume_ids, outstanding };

    // Phase 2: the request loop, until BYE, a hangup, a protocol error,
    // a drain or a crash.
    loop {
        let payload = match read_frame(&mut reader) {
            Ok(Some(p)) => p,
            Ok(None) => break, // client hung up without BYE
            Err(e) if timed_out(&e) && shared.state() == STATE_RUNNING => continue,
            // Draining (the writer flushes and sends `DONE`) or crashed
            // (it vanishes without one).
            Err(e) if timed_out(&e) => break,
            Err(e) => {
                let _ = conn.tx.send(Event::Frame(Response::Err(e.to_string())));
                break;
            }
        };
        match Request::parse(&payload) {
            Ok(Request::Pair { id, query, reference }) => {
                admit(shared, &conn, id, &query, &reference);
            }
            Ok(Request::Stats) => {
                let _ = conn.tx.send(Event::Frame(Response::Stats(shared.stats_text())));
            }
            Ok(Request::Bye) => break,
            Ok(Request::Hello { .. }) => {
                let _ = conn.tx.send(Event::Frame(Response::Err(
                    "HELLO is only valid as the first frame".into(),
                )));
                break;
            }
            Err(e) => {
                let _ = conn.tx.send(Event::Frame(Response::Err(e.to_string())));
                break;
            }
        }
    }
    // The writer's input closes once this sender and every admitted
    // pair's are gone: it then sends `DONE`, unless the server crashed.
    drop(conn);
    let _ = writer.join();
    // A poisoned store here has nothing left worth tearing down — the
    // connection is already ending; just skip the release.
    if let Ok(mut s) = shared.sessions() {
        s.release(&session_id);
    }
}

/// The admission ladder, in order: drain, replay, rate limit, slow-reader
/// cap, brownout refusal, queue capacity. Every exit is a typed frame.
fn admit(shared: &Shared, conn: &Conn, id: usize, query: &str, reference: &str) {
    let Conn { tx, tenant, priority, deadline, resume_ids, outstanding } = conn;
    let reject = |reason: RejectReason, retry_after_ms: u64| {
        shared.book(tenant, |c| c.rejected += 1, |t| t.reject(reason));
        let _ = tx.send(Event::Frame(Response::Reject { id, reason, retry_after_ms }));
    };
    if shared.state() != STATE_RUNNING {
        reject(RejectReason::Draining, 1000);
        return;
    }
    if resume_ids.contains(&id) {
        // Already durable from a previous run of this session: replay
        // without consuming any admission budget.
        let _ = tx.send(Event::Replay(id));
        return;
    }
    let wait = {
        let mut tenants = relock(&shared.tenants);
        tenants.entry(tenant, *priority).bucket.try_take(Instant::now())
    };
    if let Err(wait) = wait {
        reject(RejectReason::RateLimit, wait.as_millis().max(1) as u64);
        return;
    }
    if outstanding.load(Ordering::SeqCst) >= shared.cfg.max_outstanding {
        reject(RejectReason::Overloaded, 50);
        return;
    }
    let level = shared.brownout();
    if level >= BrownoutLevel::RefusingLow && *priority == Priority::Low {
        reject(RejectReason::Brownout, 200);
        return;
    }
    let (q, r) = match (
        Sequence::from_text(shared.alphabet, query),
        Sequence::from_text(shared.alphabet, reference),
    ) {
        (Ok(q), Ok(r)) => (q, r),
        (Err(e), _) | (_, Err(e)) => {
            // A malformed sequence is the client's own failure, typed,
            // without burning a queue slot.
            let _ = tx.send(Event::Frame(Response::Fail {
                id,
                kind: FailKind::Error,
                detail: e.to_string(),
            }));
            return;
        }
    };
    let job = Job {
        id,
        priority: *priority,
        query: q,
        reference: r,
        deadline: deadline.map(|d| (Instant::now() + d, d.as_millis() as u64)),
        reply: tx.clone(),
    };
    // Count the pair as outstanding *before* it becomes visible to the
    // workers: a fast completion must never decrement past zero.
    outstanding.fetch_add(1, Ordering::SeqCst);
    let home = home_shard(tenant, id, shared.shards.len());
    // Failpoint `shard.dispatch` (lane = home shard): an injected error
    // fails the home-shard route, forcing the spill path — the same
    // thing a just-degraded home looks like to the dispatcher.
    let home_down = smx_failpoint::hit_lane("shard.dispatch", home as u32).is_some();
    let mut job = Some(job);
    let target = shared.fleet().dispatch(home, home_down, |t| {
        let (Some(shard), Some(j)) = (shared.shards.get(t), job.take()) else { return false };
        shard.queue.push(j, false).map_err(|back| job = Some(back)).is_ok()
    });
    if target.is_some() {
        shared.book(tenant, |c| c.admitted += 1, |t| t.admitted += 1);
        return;
    }
    // Every live shard was full (or none is live): typed backpressure.
    outstanding.fetch_sub(1, Ordering::SeqCst);
    reject(RejectReason::QueueFull, 25);
}

/// Per-connection writer: the only thread that touches this socket's
/// write half, and the owner of the session manifest. It carries out
/// what the session's [`Writer`] decides — commits (one `write` per
/// record, one fsync per batch), books, frame sends — and blocks for
/// input only while the machine waits for it, then takes everything
/// already queued: the results that arrive during one fsync form the
/// next batch.
fn writer_loop(
    stream: TcpStream,
    rx: mpsc::Receiver<Event>,
    session: Session,
    shared: &Shared,
    tenant: &str,
    outstanding: &AtomicUsize,
) {
    let Session { completed, mut manifest, .. } = session;
    let mut writer = Writer::new(manifest.is_some(), completed);
    let mut out = BufWriter::new(stream);
    loop {
        if shared.state() == STATE_CRASHED {
            writer.on(Event::Crash);
        }
        let Some(action) = writer.next() else {
            match rx.recv_timeout(Duration::from_millis(50)) {
                Ok(first) => {
                    for event in std::iter::once(first).chain(rx.try_iter()) {
                        if matches!(event, Event::Result(..)) {
                            outstanding.fetch_sub(1, Ordering::SeqCst);
                        }
                        writer.on(event);
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => writer.on(Event::Bye),
            }
            continue;
        };
        let outcome = match action {
            Action::Commit(records) => commit(manifest.as_mut(), records),
            Action::Book(pairs) => {
                shared.book(tenant, |c| c.absorb(&pairs), |t| t.add(&pairs));
                Vec::new()
            }
            Action::Send(frames) => vec![Event::Sent(send(&mut out, &frames))],
            Action::Close { kill } => {
                if kill {
                    // A dead socket, an injected torn write or the ack
                    // failpoint must close the *socket*, not just this
                    // clone: the reader holds another, and the peer
                    // should see a hard drop, as from a process death.
                    let _ = out.get_ref().shutdown(std::net::Shutdown::Both);
                }
                return;
            }
        };
        for event in outcome {
            writer.on(event);
        }
    }
}

/// Appends one batch to the session manifest: one `Written` per record,
/// in order, then the batch's `Synced`.
fn commit(
    manifest: Option<&mut CheckpointWriter<SyncFile>>,
    records: Vec<(usize, &Alignment)>,
) -> Vec<Event> {
    let Some(manifest) = manifest else {
        // Only a durable session commits; never ack without a record.
        let refuse = |_| Event::Written(Err("session has no manifest".into()));
        return records.iter().map(refuse).chain([Event::Synced(Ok(()))]).collect();
    };
    let BatchOutcome { writes, sync } = manifest.record_batch(records);
    let written = writes.into_iter().map(|w| Event::Written(w.map_err(|e| e.to_string())));
    written.chain([Event::Synced(sync.map_err(|e| e.to_string()))]).collect()
}

/// Writes `frames` in order, each flushed as it goes, so a death before
/// one ack leaves every earlier ack of its batch on the wire; whether
/// they all went out.
fn send(out: &mut BufWriter<TcpStream>, frames: &[Response]) -> bool {
    frames.iter().all(|frame| {
        // Failpoint `session.ack`: die between the fsynced record and
        // the RESULT frame — the recorded-but-unacked window. Dropping
        // the connection here must never lose the pair: resume replays
        // it (at-least-once), which is exactly what chaos_storm asserts.
        let acked = matches!(frame, Response::Result { resumed: false, .. });
        !(acked && smx_failpoint::hit("session.ack").is_some())
            && write_frame(out, &frame.encode()).is_ok()
    })
}

/// A minimal blocking client for the framed protocol — shared by the
/// server's own tests and the workspace and CLI integration tests, so
/// every consumer speaks through the same encoder.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to `addr`.
    ///
    /// # Errors
    ///
    /// Connection failures as `std::io::Error`.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream })
    }

    /// Sends one request frame.
    ///
    /// # Errors
    ///
    /// Framing/socket errors as [`ProtoError`].
    pub fn send(&mut self, req: &Request) -> Result<(), ProtoError> {
        write_frame(&mut self.stream, &req.encode())
    }

    /// Receives one response frame (`None` on clean EOF).
    ///
    /// # Errors
    ///
    /// Framing/socket errors as [`ProtoError`].
    pub fn recv(&mut self) -> Result<Option<Response>, ProtoError> {
        match read_frame(&mut self.stream)? {
            Some(payload) => Response::parse(&payload).map(Some),
            None => Ok(None),
        }
    }

    /// Sets the socket read timeout (for storm clients that must not
    /// block forever on a crashed server).
    ///
    /// # Errors
    ///
    /// Socket option failures as `std::io::Error`.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smx_align_core::AlignmentConfig;
    use std::collections::HashMap;

    fn server(cfg: ServerConfig) -> ServerHandle {
        let dev = SmxDevice::new(AlignmentConfig::DnaEdit, 4).unwrap();
        Server::bind(dev, cfg, "127.0.0.1:0").unwrap()
    }

    fn hello(c: &mut Client, session: &str, tenant: &str, pri: Priority, dl: u64) -> u64 {
        c.send(&Request::Hello {
            session: session.into(),
            tenant: tenant.into(),
            priority: pri,
            deadline_ms: dl,
        })
        .unwrap();
        match c.recv().unwrap().unwrap() {
            Response::Ok { resumed, .. } => resumed,
            other => panic!("expected OK, got {other:?}"),
        }
    }

    /// A normal-priority connection of tenant `t` with no deadline and
    /// nothing to resume, answering on `tx`.
    fn test_conn(tx: &mpsc::Sender<Event>) -> Conn {
        Conn {
            tx: tx.clone(),
            tenant: "t".into(),
            priority: Priority::Normal,
            deadline: None,
            resume_ids: std::collections::HashSet::new(),
            outstanding: Arc::new(AtomicUsize::new(0)),
        }
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("smx-server-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn roundtrip_is_byte_identical_to_the_software_baseline() {
        let h = server(ServerConfig {
            exec: ExecutorConfig { jobs: 2, ..ExecutorConfig::default() },
            ..ServerConfig::default()
        });
        let mut c = Client::connect(h.addr()).unwrap();
        assert_eq!(hello(&mut c, "-", "acme", Priority::Normal, 0), 0);
        let pairs = [("GATTACAGATTACA", "GATTACACATTACA"), ("ACGTACGT", "ACGTACGA")];
        for (i, (q, r)) in pairs.iter().enumerate() {
            c.send(&Request::Pair { id: i, query: (*q).into(), reference: (*r).into() }).unwrap();
        }
        let mut got = HashMap::new();
        for _ in 0..pairs.len() {
            match c.recv().unwrap().unwrap() {
                Response::Result { id, score, cigar, resumed } => {
                    assert!(!resumed);
                    got.insert(id, (score, cigar));
                }
                other => panic!("expected RESULT, got {other:?}"),
            }
        }
        let mut dev = SmxDevice::new(AlignmentConfig::DnaEdit, 4).unwrap();
        for (i, (q, r)) in pairs.iter().enumerate() {
            let golden = dev
                .align(
                    &Sequence::from_text(Alphabet::Dna2, q).unwrap(),
                    &Sequence::from_text(Alphabet::Dna2, r).unwrap(),
                )
                .unwrap();
            assert_eq!(got[&i], (golden.score, golden.cigar.to_string()), "pair {i}");
        }
        c.send(&Request::Bye).unwrap();
        match c.recv().unwrap().unwrap() {
            Response::Done { completed, failed, rejected, resumed } => {
                assert_eq!((completed, failed, rejected, resumed), (2, 0, 0, 0));
            }
            other => panic!("expected DONE, got {other:?}"),
        }
        let report = h.drain();
        assert_eq!(report.totals.completed, 2);
        assert_eq!(report.per_tenant.len(), 1);
        assert_eq!(report.per_tenant[0].0, "acme");
        assert_eq!(report.per_tenant[0].1.completed, 2);
    }

    #[test]
    fn ended_connection_threads_are_reaped() {
        let h = server(ServerConfig::default());
        for k in 0..6 {
            let mut c = Client::connect(h.addr()).unwrap();
            hello(&mut c, "-", "acme", Priority::Normal, 0);
            c.send(&Request::Bye).unwrap();
            assert!(matches!(c.recv().unwrap().unwrap(), Response::Done { .. }), "conn {k}");
            drop(c);
            let t0 = Instant::now();
            while h.shared.conns.load(Ordering::SeqCst) > 0 {
                assert!(t0.elapsed() < Duration::from_secs(10), "conn {k} never ended");
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        // Each accept joins the connections that ended before it, so only
        // the last connection and the one before it can still be registered.
        let registered = relock(&h.shared.conn_threads).len();
        assert!(registered <= 2, "{registered} connection threads still registered");
        h.drain();
    }

    /// Both front ends drive one executor core: the same seeded pairs
    /// through `BatchExecutor::run` and through a one-shard server with
    /// the same executor config come back byte-identical, each side
    /// audits exactly the pairs it completed, and the two tallies agree.
    #[test]
    fn batch_and_server_drive_one_core() {
        use crate::pool::AuditConfig;
        use crate::service::BatchExecutor;
        use smx_datagen::{Dataset, ErrorProfile};
        let config = AlignmentConfig::DnaEdit;
        let data = Dataset::synthetic(config, 120, 16, ErrorProfile::moderate(), 5);
        let pairs: Vec<(Sequence, Sequence)> =
            data.pairs.iter().map(|p| (p.query.clone(), p.reference.clone())).collect();
        let exec = ExecutorConfig {
            jobs: 2,
            audit: Some(AuditConfig::full()),
            ..ExecutorConfig::default()
        };
        let dev = SmxDevice::new(config, 4).unwrap();
        let batch = BatchExecutor::new(dev.clone(), exec.clone()).unwrap().run(&pairs);
        assert!(batch.all_succeeded(), "{}", batch.failure_summary());
        assert_eq!(batch.stats.audits_run, batch.stats.completed);

        let serve = ServerConfig { exec, shards: 1, ..ServerConfig::default() };
        let h = Server::bind(dev, serve, "127.0.0.1:0").unwrap();
        let mut c = Client::connect(h.addr()).unwrap();
        hello(&mut c, "-", "t", Priority::Normal, 0);
        for (i, (q, r)) in pairs.iter().enumerate() {
            c.send(&Request::Pair { id: i, query: q.to_text(), reference: r.to_text() }).unwrap();
        }
        let mut got = HashMap::new();
        for _ in 0..pairs.len() {
            match c.recv().unwrap().unwrap() {
                Response::Result { id, score, cigar, .. } => {
                    got.insert(id, (score, cigar));
                }
                other => panic!("expected RESULT, got {other:?}"),
            }
        }
        for i in 0..pairs.len() {
            let a = batch.alignment(i).unwrap();
            assert_eq!(got[&i], (a.score, a.cigar.to_string()), "pair {i}");
        }
        let report = h.drain();
        assert_eq!(report.totals.completed, pairs.len() as u64);
        assert_eq!(report.totals.audits_run, report.totals.completed);
        let tally = |s: &ServiceStats| {
            (
                s.completed,
                s.failed,
                s.device_pairs,
                s.software_pairs,
                s.audits_run,
                s.integrity_violations,
                s.hedges_launched,
            )
        };
        assert_eq!(tally(&batch.stats), tally(&report.totals), "batch and server tallies differ");
    }

    #[test]
    fn exhausted_token_bucket_rejects_with_retry_hint() {
        let h = server(ServerConfig {
            policy: TenantPolicy { rate: 0.001, burst: 1.0 },
            ..ServerConfig::default()
        });
        let mut c = Client::connect(h.addr()).unwrap();
        hello(&mut c, "-", "hot", Priority::Normal, 0);
        c.send(&Request::Pair { id: 0, query: "ACGT".into(), reference: "ACGT".into() }).unwrap();
        c.send(&Request::Pair { id: 1, query: "ACGT".into(), reference: "ACGT".into() }).unwrap();
        let mut rejected = None;
        for _ in 0..2 {
            match c.recv().unwrap().unwrap() {
                Response::Result { id, .. } => assert_eq!(id, 0),
                Response::Reject { id, reason, retry_after_ms } => {
                    assert_eq!(id, 1);
                    assert_eq!(reason, RejectReason::RateLimit);
                    assert!(retry_after_ms > 0, "hint must be actionable");
                    rejected = Some(retry_after_ms);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(rejected.is_some());
        let report = h.drain();
        assert_eq!(report.per_tenant[0].1.rejected_rate, 1);
    }

    #[test]
    fn brownout_refuses_low_priority_but_serves_high() {
        // Thresholds at zero put the server permanently at the deepest
        // brownout rung: low is refused, high still runs (degraded
        // extras, but served).
        let h = server(ServerConfig {
            brownout: BrownoutConfig {
                shed_extras_at: 0.0,
                degrade_low_at: 0.0,
                refuse_low_at: 0.0,
            },
            ..ServerConfig::default()
        });
        let mut low = Client::connect(h.addr()).unwrap();
        hello(&mut low, "-", "batch", Priority::Low, 0);
        low.send(&Request::Pair { id: 0, query: "ACGT".into(), reference: "ACGT".into() }).unwrap();
        match low.recv().unwrap().unwrap() {
            Response::Reject { reason, .. } => assert_eq!(reason, RejectReason::Brownout),
            other => panic!("expected brownout reject, got {other:?}"),
        }
        let mut high = Client::connect(h.addr()).unwrap();
        hello(&mut high, "-", "urgent", Priority::High, 0);
        high.send(&Request::Pair { id: 0, query: "ACGT".into(), reference: "ACGT".into() })
            .unwrap();
        assert!(matches!(high.recv().unwrap().unwrap(), Response::Result { .. }));
        let stats = h.stats_text();
        assert!(stats.contains("brownout: refusing-low"), "{stats}");
        let report = h.drain();
        assert_eq!(report.per_tenant[0].1.rejected_brownout, 1, "{report:?}");
    }

    #[test]
    fn per_pair_deadline_fails_typed_not_hanging() {
        let h = server(ServerConfig::default());
        let mut c = Client::connect(h.addr()).unwrap();
        hello(&mut c, "-", "t", Priority::Normal, 1);
        // A pair large enough that 1 ms cannot possibly cover it.
        let q: String = "ACGTTGCA".repeat(800);
        let r: String = "ACGATGCA".repeat(800);
        c.send(&Request::Pair { id: 0, query: q, reference: r }).unwrap();
        match c.recv().unwrap().unwrap() {
            Response::Fail { id, kind, .. } => {
                assert_eq!(id, 0);
                assert_eq!(kind, FailKind::Deadline);
            }
            other => panic!("expected deadline FAIL, got {other:?}"),
        }
        let report = h.drain();
        assert_eq!(report.totals.deadline_exceeded, 1);
        assert_eq!(report.per_tenant[0].1.deadline_exceeded, 1);
    }

    #[test]
    fn stats_frame_reports_the_ladder() {
        let h = server(ServerConfig::default());
        let mut c = Client::connect(h.addr()).unwrap();
        hello(&mut c, "-", "obs", Priority::Normal, 0);
        c.send(&Request::Stats).unwrap();
        match c.recv().unwrap().unwrap() {
            Response::Stats(text) => {
                for key in
                    ["state: running", "queue_depth:", "brownout:", "device 0:", "tenant obs:"]
                {
                    assert!(text.contains(key), "missing {key:?} in:\n{text}");
                }
            }
            other => panic!("expected STATS, got {other:?}"),
        }
        h.drain();
    }

    #[test]
    fn crash_then_resume_replays_exactly_the_acked_pairs() {
        let dir = temp_dir("crash-resume");
        let mk = |resume: bool| {
            server(ServerConfig {
                checkpoint_dir: Some(dir.clone()),
                resume_sessions: resume,
                ..ServerConfig::default()
            })
        };
        let h = mk(false);
        let addr = h.addr();
        let mut c = Client::connect(addr).unwrap();
        assert_eq!(hello(&mut c, "s1", "acme", Priority::Normal, 0), 0);
        let pairs: Vec<(String, String)> = (0..6)
            .map(|i| {
                (
                    format!("GATTACA{}", "ACGT".repeat(i + 1)),
                    format!("GATTACA{}", "AGGT".repeat(i + 1)),
                )
            })
            .collect();
        for (i, (q, r)) in pairs.iter().enumerate() {
            c.send(&Request::Pair { id: i, query: q.clone(), reference: r.clone() }).unwrap();
        }
        // Collect a few acks, then crash mid-stream.
        let mut acked = HashMap::new();
        for _ in 0..3 {
            if let Response::Result { id, score, cigar, .. } = c.recv().unwrap().unwrap() {
                acked.insert(id, (score, cigar));
            }
        }
        h.crash();
        // Restart over the same manifests, resume, resubmit everything.
        let h2 = mk(true);
        let mut c2 = Client::connect(h2.addr()).unwrap();
        let resumed = hello(&mut c2, "s1", "acme", Priority::Normal, 0);
        assert!(
            resumed >= acked.len() as u64,
            "every ack must be durable: {resumed} acked={}",
            acked.len()
        );
        for (i, (q, r)) in pairs.iter().enumerate() {
            c2.send(&Request::Pair { id: i, query: q.clone(), reference: r.clone() }).unwrap();
        }
        let mut results = HashMap::new();
        let mut replayed = 0u64;
        for _ in 0..pairs.len() {
            match c2.recv().unwrap().unwrap() {
                Response::Result { id, score, cigar, resumed } => {
                    if resumed {
                        replayed += 1;
                    }
                    results.insert(id, (score, cigar));
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(replayed, resumed, "manifest pairs replay without recompute");
        // Replayed results are byte-identical to the pre-crash acks.
        for (id, pre) in &acked {
            assert_eq!(&results[id], pre, "pair {id} must survive the crash");
        }
        h2.drain();
    }

    #[test]
    fn drain_sends_done_to_connected_sessions() {
        let h = server(ServerConfig::default());
        let mut c = Client::connect(h.addr()).unwrap();
        hello(&mut c, "-", "t", Priority::Normal, 0);
        let drainer = std::thread::spawn(move || h.drain());
        // The reader notices the drain on its next timeout and flushes.
        match c.recv().unwrap() {
            Some(Response::Done { .. }) => {}
            other => panic!("expected DONE on drain, got {other:?}"),
        }
        let report = drainer.join().unwrap();
        assert_eq!(report.totals.failed, 0);
    }

    #[test]
    fn pairs_submitted_while_draining_are_rejected_typed() {
        // Submitting against a draining server cannot be raced reliably
        // from outside, so drive the admission ladder directly.
        let h = server(ServerConfig::default());
        let shared = Arc::clone(&h.shared);
        let (tx, rx) = mpsc::channel();
        shared.state.store(STATE_DRAINING, Ordering::SeqCst);
        shared.tenants.lock().unwrap().entry("t", Priority::Normal);
        admit(&shared, &test_conn(&tx), 7, "ACGT", "ACGT");
        match rx.recv().unwrap() {
            Event::Frame(Response::Reject { id, reason, .. }) => {
                assert_eq!((id, reason), (7, RejectReason::Draining));
            }
            _ => panic!("expected a draining reject"),
        }
        shared.state.store(STATE_RUNNING, Ordering::SeqCst);
        h.drain();
    }

    #[test]
    fn home_shard_is_deterministic_and_spreads_the_fleet() {
        for n in 1..6 {
            for id in 0..64 {
                let home = home_shard("acme", id, n);
                assert!(home < n);
                assert_eq!(home, home_shard("acme", id, n), "pure function of (tenant, id)");
            }
        }
        // 64 ids across two tenants must reach every shard of a 4-shard
        // fleet — a constant hash would pile the whole fleet on one.
        let mut hit = [false; 4];
        for id in 0..64 {
            hit[home_shard("acme", id, 4)] = true;
            hit[home_shard("globex", id, 4)] = true;
        }
        assert!(hit.iter().all(|&h| h), "ids must spread across shards: {hit:?}");
    }

    #[test]
    fn sharded_roundtrip_is_byte_identical_and_books_per_shard() {
        let h = server(ServerConfig {
            exec: ExecutorConfig { jobs: 3, ..ExecutorConfig::default() },
            shards: 3,
            ..ServerConfig::default()
        });
        let mut c = Client::connect(h.addr()).unwrap();
        hello(&mut c, "-", "acme", Priority::Normal, 0);
        let pairs: Vec<(String, String)> = (0..12)
            .map(|i| {
                (
                    format!("GATTACA{}", "ACGT".repeat(i % 4 + 1)),
                    format!("GATTACA{}", "AGGT".repeat(i % 4 + 1)),
                )
            })
            .collect();
        for (i, (q, r)) in pairs.iter().enumerate() {
            c.send(&Request::Pair { id: i, query: q.clone(), reference: r.clone() }).unwrap();
        }
        let mut got = HashMap::new();
        for _ in 0..pairs.len() {
            match c.recv().unwrap().unwrap() {
                Response::Result { id, score, cigar, .. } => {
                    got.insert(id, (score, cigar));
                }
                other => panic!("expected RESULT, got {other:?}"),
            }
        }
        // Byte-identity across shards: every pair matches the software
        // golden model no matter which shard served it.
        let mut dev = SmxDevice::new(AlignmentConfig::DnaEdit, 4).unwrap();
        for (i, (q, r)) in pairs.iter().enumerate() {
            let golden = dev
                .align(
                    &Sequence::from_text(Alphabet::Dna2, q).unwrap(),
                    &Sequence::from_text(Alphabet::Dna2, r).unwrap(),
                )
                .unwrap();
            assert_eq!(got[&i], (golden.score, golden.cigar.to_string()), "pair {i}");
        }
        let snaps = h.shard_snapshots();
        assert_eq!(snaps.len(), 3);
        let dispatched: u64 = snaps.iter().map(|s| s.dispatched).sum();
        assert_eq!(dispatched, pairs.len() as u64, "every pair books on exactly one shard");
        assert!(snaps.iter().all(|s| s.state == "live"), "{snaps:?}");
        let report = h.drain();
        assert_eq!(report.totals.completed, pairs.len() as u64);
        assert_eq!(report.per_shard.len(), 3);
        let completed: u64 = report.per_shard.iter().map(|s| s.completed).sum();
        assert_eq!(completed, pairs.len() as u64);
    }

    #[test]
    fn degraded_shard_gets_no_dispatch_but_siblings_steal_its_queue() {
        let h = server(ServerConfig {
            exec: ExecutorConfig { jobs: 2, ..ExecutorConfig::default() },
            shards: 2,
            // Park the supervisor ladder: this test drives the degraded
            // rung by hand and must not race a real restart.
            supervisor: SupervisorConfig {
                stale_intervals: u32::MAX,
                ..SupervisorConfig::default()
            },
            ..ServerConfig::default()
        });
        let shared = Arc::clone(&h.shared);
        shared.fleet().force(0, ShardState::Degraded);
        // A pair whose home is the degraded shard spills to its sibling.
        let id = (0..64).find(|&id| home_shard("t", id, 2) == 0).unwrap();
        shared.tenants.lock().unwrap().entry("t", Priority::Normal);
        let (tx, rx) = mpsc::channel();
        admit(&shared, &test_conn(&tx), id, "GATTACAGATTACA", "GATTACACATTACA");
        match rx.recv_timeout(Duration::from_secs(10)).unwrap() {
            Event::Result(done_id, completion) => {
                assert_eq!(done_id, id);
                assert!(completion.result.is_ok(), "{:?}", completion.result);
            }
            _ => panic!("expected the spilled pair to complete"),
        }
        let snaps = shared.snapshots();
        assert_eq!(snaps[0].dispatched, 0, "no new dispatch");
        assert_eq!(snaps[1].dispatched, 1, "sibling serves it");
        // Steal-only rung: a pair already queued on the degraded shard
        // is still drained by the sibling's workers. Retire shard 0's
        // worker generation first (the realistic shape — a degraded
        // shard is degraded *because* its workers stopped moving), so
        // only a steal can serve the queued pair.
        shared.shards[0].generation.fetch_add(1, Ordering::SeqCst);
        shared.shards[0].queue.wake_all();
        let (retired, rest): (Vec<_>, Vec<_>) =
            std::mem::take(&mut *relock(&shared.workers)).into_iter().partition(|(s, _)| *s == 0);
        *relock(&shared.workers) = rest;
        for (_, handle) in retired {
            handle.join().unwrap();
        }
        let (tx, rx) = mpsc::channel();
        let job = Job {
            id: 99,
            priority: Priority::Normal,
            query: Sequence::from_text(Alphabet::Dna2, "ACGTACGT").unwrap(),
            reference: Sequence::from_text(Alphabet::Dna2, "ACGTACGA").unwrap(),
            deadline: None,
            reply: tx,
        };
        shared.shards[0].queue.push(job, false).unwrap_or_else(|_| panic!("queue has room"));
        match rx.recv_timeout(Duration::from_secs(10)).unwrap() {
            Event::Result(_, completion) => assert!(completion.result.is_ok()),
            _ => panic!("expected the stolen pair to complete"),
        }
        let snaps = shared.snapshots();
        assert!(snaps[0].stolen_from >= 1);
        assert!(snaps[1].stolen_by >= 1);
        shared.fleet().force(0, ShardState::Live);
        h.drain();
    }

    /// Stops every shard worker so a test can manipulate the queues
    /// without the fleet racing it, leaving the handle still drainable.
    fn park_workers(shared: &Arc<Shared>) {
        shared.state.store(STATE_CRASHED, Ordering::SeqCst);
        for shard in &shared.shards {
            shard.queue.wake_all();
        }
        let workers = std::mem::take(&mut *relock(&shared.workers));
        for (_, handle) in workers {
            handle.join().unwrap();
        }
    }

    fn parked_job(id: usize, tx: &mpsc::Sender<Event>) -> Job {
        Job {
            id,
            priority: Priority::Normal,
            query: Sequence::from_text(Alphabet::Dna2, "ACGT").unwrap(),
            reference: Sequence::from_text(Alphabet::Dna2, "ACGA").unwrap(),
            deadline: None,
            reply: tx.clone(),
        }
    }

    #[test]
    fn steal_races_restart_requeue_without_loss_or_duplication() {
        use crate::testkit::Gate;
        let h = server(ServerConfig {
            exec: ExecutorConfig { jobs: 2, ..ExecutorConfig::default() },
            shards: 2,
            ..ServerConfig::default()
        });
        let shared = Arc::clone(&h.shared);
        park_workers(&shared);
        let (tx, _rx) = mpsc::channel();
        const K: usize = 24;
        for id in 0..K {
            shared.shards[0]
                .queue
                .push(parked_job(id, &tx), false)
                .unwrap_or_else(|_| panic!("job {id} must fit the shard queue"));
        }
        // Race the restart's requeue sweep against a sibling stealing
        // from the same queue: every pair must end up in exactly one
        // place — stolen, moved to the sibling, or back on shard 0.
        let gate = Arc::new(Gate::new());
        let restarter = {
            let shared = Arc::clone(&shared);
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                gate.wait_for(1);
                redistribute_queue(&shared, 0);
            })
        };
        let mut stolen = Vec::new();
        gate.arrive(1);
        while !restarter.is_finished() {
            if let Some(job) = shared.steal(&shared.shards[1], false) {
                stolen.push(job.id);
            }
        }
        restarter.join().unwrap();
        while let Some(job) = shared.steal(&shared.shards[1], false) {
            stolen.push(job.id);
        }
        let mut seen = stolen;
        for shard in &shared.shards {
            while let Some(job) = shard.queue.try_pop() {
                seen.push(job.id);
            }
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..K).collect::<Vec<_>>(), "no pair lost, none duplicated");
        h.crash();
    }

    #[test]
    fn exhausted_restart_budget_quarantines_and_fails_leftovers_typed() {
        let h = server(ServerConfig {
            exec: ExecutorConfig { jobs: 2, ..ExecutorConfig::default() },
            shards: 2,
            ..ServerConfig::default()
        });
        let shared = Arc::clone(&h.shared);
        park_workers(&shared);
        // No live sibling: the requeue sweep has nowhere to move the
        // jobs, so they come back to shard 0 and meet the quarantine.
        shared.fleet().force(1, ShardState::Degraded);
        let (tx, rx) = mpsc::channel();
        for id in 0..3 {
            shared.shards[0]
                .queue
                .push(parked_job(id, &tx), false)
                .unwrap_or_else(|_| panic!("job {id} must fit the shard queue"));
        }
        // Burn the whole restart budget, so the next restart quarantines.
        for _ in 0..shared.cfg.supervisor.max_restarts {
            shared.fleet().begin_restart(0);
        }
        restart_shard(&shared, 0);
        assert_eq!(shared.fleet().state(0), ShardState::Quarantined);
        assert_eq!(shared.shards[0].queue.depth(), 0, "nothing may rot on a dead queue");
        for _ in 0..3 {
            match rx.recv_timeout(Duration::from_secs(5)).unwrap() {
                Event::Result(_, completion) => match completion.result {
                    Err(AlignError::Internal(msg)) => {
                        assert!(msg.contains("quarantined"), "typed for resubmission: {msg}");
                    }
                    other => panic!("expected a typed quarantine failure, got {other:?}"),
                },
                _ => panic!("expected a completion"),
            }
        }
        // The lost capacity is re-advertised: occupancy (and therefore
        // brownout) is computed over live shards only.
        shared.fleet().force(1, ShardState::Live);
        let (_, live_cap) = shared.live_occupancy();
        let total_cap: usize = shared.shards.iter().map(|s| s.queue.cap).sum();
        assert_eq!(live_cap, shared.shards[1].queue.cap, "only live capacity counts");
        assert!(live_cap < total_cap, "quarantined capacity must not dilute occupancy");
        // Dispatch routes around the quarantined home shard.
        shared.state.store(STATE_RUNNING, Ordering::SeqCst);
        shared.tenants.lock().unwrap().entry("t", Priority::Normal);
        let id = (0..64).find(|&id| home_shard("t", id, 2) == 0).unwrap();
        let (tx, _rx2) = mpsc::channel();
        admit(&shared, &test_conn(&tx), id, "ACGT", "ACGT");
        let snaps = shared.snapshots();
        assert_eq!(snaps[0].dispatched, 0);
        assert_eq!(snaps[1].dispatched, 1);
        h.crash();
    }

    #[test]
    fn late_retry_backoff_fails_fast_instead_of_napping_past_the_deadline() {
        use smx_coproc::faults::{FaultPlan, RecoveryPolicy};
        let mut dev = SmxDevice::new(AlignmentConfig::DnaEdit, 4).unwrap();
        // Persistent faults + strict recovery + a fail-closed executor:
        // every device attempt escalates a recoverable RecoveryExhausted,
        // so the server-side retry loop is what's under test.
        dev.enable_fault_injection(
            FaultPlan::new(7, 1.0).with_persistence(1.0),
            RecoveryPolicy::strict(),
        );
        let h = Server::bind(
            dev,
            ServerConfig {
                exec: ExecutorConfig { fail_closed: true, ..ExecutorConfig::default() },
                // A backoff that can never fit a 300 ms deadline: the
                // old behaviour napped the full remaining budget before
                // discovering the retry was doomed.
                retry: RetryConfig { attempts: 4, backoff: Duration::from_millis(400) },
                ..ServerConfig::default()
            },
            "127.0.0.1:0",
        )
        .unwrap();
        let mut c = Client::connect(h.addr()).unwrap();
        hello(&mut c, "-", "t", Priority::Normal, 300);
        let t0 = Instant::now();
        let q = "GATTACA".repeat(16);
        let r = "GATTACC".repeat(16);
        c.send(&Request::Pair { id: 0, query: q, reference: r }).unwrap();
        match c.recv().unwrap().unwrap() {
            Response::Fail { id, kind, .. } => {
                assert_eq!(id, 0);
                assert_eq!(kind, FailKind::Deadline, "typed as a deadline, not a device fault");
            }
            other => panic!("expected a deadline FAIL, got {other:?}"),
        }
        let elapsed = t0.elapsed();
        assert!(
            elapsed < Duration::from_millis(250),
            "the doomed retry must fail fast, not sleep out the deadline: {elapsed:?}"
        );
        let report = h.drain();
        assert_eq!(report.totals.deadline_exceeded, 1);
    }
}
