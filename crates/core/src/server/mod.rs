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
//!   flush through their (fsync-per-record) checkpoint manifests, every
//!   session gets a `DONE` summary, and the caller receives per-tenant
//!   counts.
//! * **Crash consistency** — a `RESULT` is written only *after* the
//!   pair's manifest record is durable, so `kill -9` at any instant
//!   leaves no pair acked-but-lost: resuming the session replays every
//!   acked pair byte-identically and recomputes nothing else.
//!
//! The byte-identity invariant carries over verbatim: admission,
//! brownout, retries, and routing decide *where* and *whether* a pair
//! runs — never *what* it computes.

pub mod proto;
pub mod session;
pub mod tenant;

use std::io::{BufReader, BufWriter, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use smx_align_core::{AlignError, Alphabet, Sequence};
use smx_coproc::control::CancelToken;

use crate::orchestrator::SmxDevice;
use crate::service::{self, ExecutorConfig, ServiceStats};
use crate::shard::{self, relock, Done, Front, Phase, Plan, Shard};

use proto::{read_frame, write_frame, FailKind, ProtoError, RejectReason, Request, Response};
use session::{Session, SessionStore};
use tenant::{BrownoutConfig, BrownoutLevel, Priority, TenantCounters, TenantPolicy, TenantTable};

pub use crate::shard::RetryConfig;

/// The supervisor's wedge-detection and containment budget.
///
/// A shard is *stagnant* when neither its heartbeat nor its
/// completion counter moved across `stale_intervals` consecutive
/// samples — the chaos storm's "no progress" watchdog criterion,
/// made unconditional because a healthy worker beats even while
/// idle (an idle wedged shard would otherwise black-hole every
/// pair later dispatched to it). The
/// containment ladder is: mark degraded (steal-only, no new
/// dispatch) → drain-and-restart in place → permanent quarantine
/// once `max_restarts` in-place restarts have been burned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Time between supervisor samples of every shard's progress.
    pub interval: Duration,
    /// Consecutive no-progress samples before the ladder advances a
    /// rung. The product `interval * stale_intervals` is the shard's
    /// heartbeat budget and must exceed the worst-case single-pair
    /// latency, or a shard busy with one huge pair reads as wedged.
    pub stale_intervals: u32,
    /// In-place restarts granted before the shard is quarantined for
    /// the life of the process.
    pub max_restarts: u32,
}

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig {
            interval: Duration::from_millis(50),
            stale_intervals: 8,
            max_restarts: 2,
        }
    }
}

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
    /// Whether idle workers steal queued pairs from overloaded or
    /// degraded sibling shards.
    pub steal: bool,
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
            steal: true,
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

/// One shard's observable state: the supervisor's view, exported to
/// `STATS`, the drain report, and the storm harnesses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSnapshot {
    /// Shard id (also the dispatcher's home-shard index).
    pub id: usize,
    /// Lifecycle state: `live`, `degraded`, `restarting`, `quarantined`.
    pub state: &'static str,
    /// Pairs dispatched to this shard as its home.
    pub dispatched: u64,
    /// Pairs completed by this shard's workers (own or stolen).
    pub completed: u64,
    /// Queued pairs other shards stole from this one.
    pub stolen_from: u64,
    /// Queued pairs this shard's workers stole from siblings.
    pub stolen_by: u64,
    /// In-place restarts the supervisor executed on this shard.
    pub restarts: u64,
    /// Completed wedge→live failovers (restart or self-heal).
    pub failovers: u64,
    /// Duration of the most recent failover, in milliseconds.
    pub last_failover_ms: u64,
    /// Current queue depth.
    pub queue_depth: usize,
    /// Queue high-water mark.
    pub max_queue_depth: usize,
}

impl std::fmt::Display for ShardSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "shard {}: state={} dispatched={} completed={} stolen_from={} stolen_by={} \
             restarts={} failovers={} last_failover_ms={} queue_depth={} max_queue_depth={}",
            self.id,
            self.state,
            self.dispatched,
            self.completed,
            self.stolen_from,
            self.stolen_by,
            self.restarts,
            self.failovers,
            self.last_failover_ms,
            self.queue_depth,
            self.max_queue_depth
        )
    }
}

const STATE_RUNNING: u8 = 0;
const STATE_DRAINING: u8 = 1;
const STATE_CRASHED: u8 = 2;

const SHARD_LIVE: u8 = 0;
const SHARD_DEGRADED: u8 = 1;
const SHARD_RESTARTING: u8 = 2;
const SHARD_QUARANTINED: u8 = 3;

fn shard_state_name(state: u8) -> &'static str {
    match state {
        SHARD_LIVE => "live",
        SHARD_DEGRADED => "degraded",
        SHARD_RESTARTING => "restarting",
        _ => "quarantined",
    }
}

/// One admitted pair flowing to the workers.
struct Job {
    id: usize,
    priority: Priority,
    query: Sequence,
    reference: Sequence,
    /// Absolute deadline fixed at admission, plus the original budget in
    /// ms (for the typed error when it expires in the queue).
    deadline: Option<(Instant, u64)>,
    reply: mpsc::Sender<WriterMsg>,
}

/// Everything the per-connection writer thread serializes to the socket.
enum WriterMsg {
    /// A pre-built response (OK / REJECT / STATS / ERR / FAIL-at-admission).
    Frame(Response),
    /// Replay pair `id` from the session manifest (already durable).
    Replay(usize),
    /// Pair `id` finished: record durably, then ack.
    Done(usize, Done),
    /// Flush outstanding pairs, send `DONE`, and hang up.
    Bye,
}

impl shard::Job for Job {
    fn class(&self) -> usize {
        self.priority.class()
    }

    fn deadline(&self) -> Option<(Instant, u64)> {
        self.deadline
    }
}

/// One member of the fleet: an executor-core shard plus the atomics only
/// the supervised server tracks about it.
struct FleetShard {
    core: Shard<Job>,
    /// Lifecycle: `SHARD_LIVE` → `SHARD_DEGRADED` → `SHARD_RESTARTING`
    /// → back to live, or `SHARD_QUARANTINED` once the restart budget
    /// is spent.
    state: AtomicU8,
    dispatched: AtomicU64,
    stolen_from: AtomicU64,
    stolen_by: AtomicU64,
    restarts: AtomicU64,
    failovers: AtomicU64,
    last_failover_ms: AtomicU64,
    /// Worker handles of every live generation, joined at wind-down. A
    /// retired generation exits on its own once whatever wedged it
    /// releases.
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl FleetShard {
    fn new(core: Shard<Job>) -> FleetShard {
        FleetShard {
            core,
            state: AtomicU8::new(SHARD_LIVE),
            dispatched: AtomicU64::new(0),
            stolen_from: AtomicU64::new(0),
            stolen_by: AtomicU64::new(0),
            restarts: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            last_failover_ms: AtomicU64::new(0),
            workers: Mutex::new(Vec::new()),
        }
    }

    fn snapshot(&self) -> ShardSnapshot {
        ShardSnapshot {
            id: self.core.id,
            state: shard_state_name(self.state.load(Ordering::SeqCst)),
            dispatched: self.dispatched.load(Ordering::SeqCst),
            completed: self.core.completed.load(Ordering::SeqCst),
            stolen_from: self.stolen_from.load(Ordering::SeqCst),
            stolen_by: self.stolen_by.load(Ordering::SeqCst),
            restarts: self.restarts.load(Ordering::SeqCst),
            failovers: self.failovers.load(Ordering::SeqCst),
            last_failover_ms: self.last_failover_ms.load(Ordering::SeqCst),
            queue_depth: self.core.queue.depth(),
            max_queue_depth: self.core.queue.max_depth(),
        }
    }
}

/// The dispatcher's home-shard hash: FNV-1a over `(tenant, pair id)`,
/// a pure function so a tenant's pairs land on a stable shard and any
/// replayed run dispatches identically.
fn home_shard(tenant: &str, id: usize, shards: usize) -> usize {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in tenant.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    for b in (id as u64).to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    (h % shards.max(1) as u64) as usize
}

/// State shared by the accept loop, workers, supervisor, and
/// connection threads.
struct Shared {
    cfg: ServerConfig,
    alphabet: Alphabet,
    shards: Vec<FleetShard>,
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
        let mut depth = 0;
        let mut cap = 0;
        for s in &self.shards {
            if s.state.load(Ordering::SeqCst) != SHARD_QUARANTINED {
                depth += s.core.queue.depth();
                cap += s.core.queue.cap;
            }
        }
        (depth, cap)
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
        for shard in &self.shards {
            let _ = writeln!(s, "{}", shard.snapshot());
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
            totals.add_pool(&shard.core.pool);
            totals.max_queue_depth = totals.max_queue_depth.max(shard.core.queue.max_depth());
        }
        totals
    }

    /// Books one event into the global tally, the tenant's counters and,
    /// for an acked pair, the session's `DONE` counts together, so they
    /// agree by construction. Takes `tenants` before `counters`, the
    /// order lint.toml declares.
    fn book(
        &self,
        tenant: &str,
        session: Option<&mut TenantCounters>,
        global: impl FnOnce(&mut ServiceStats),
        local: impl Fn(&mut TenantCounters),
    ) {
        let mut tenants = relock(&self.tenants);
        global(&mut relock(&self.counters));
        tenants.counters_mut(tenant).into_iter().chain(session).for_each(local);
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

fn fail_kind(e: &AlignError) -> FailKind {
    match e {
        AlignError::DeadlineExceeded { .. } => FailKind::Deadline,
        AlignError::Cancelled => FailKind::Cancelled,
        AlignError::IntegrityViolation { .. } => FailKind::Integrity,
        _ => FailKind::Error,
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
        let shards = Shard::build(&plan, &device, &cfg.exec, cfg.retry, &token)?
            .into_iter()
            .map(FleetShard::new)
            .collect();
        let listener = TcpListener::bind(addr)
            .map_err(|e| AlignError::Internal(format!("bind {addr}: {e}")))?;
        let local =
            listener.local_addr().map_err(|e| AlignError::Internal(format!("local addr: {e}")))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| AlignError::Internal(format!("nonblocking listener: {e}")))?;
        if let Some(dir) = &cfg.checkpoint_dir {
            std::fs::create_dir_all(dir)
                .map_err(|e| AlignError::Internal(format!("checkpoint dir: {e}")))?;
        }
        let sessions = SessionStore::new(cfg.checkpoint_dir.clone(), cfg.resume_sessions);
        let policy = cfg.policy;
        let shared = Arc::new(Shared {
            alphabet: device.config().alphabet(),
            shards,
            state: AtomicU8::new(STATE_RUNNING),
            token,
            tenants: Mutex::new(TenantTable::new(policy)),
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

/// Spawns one generation of workers for shard `s`. Each worker gets
/// its own fault-disabled software device clone (the degraded/brownout
/// path must never fault).
fn spawn_shard_workers(shared: &Arc<Shared>, s: usize, generation: u64) {
    let Some(shard) = shared.shards.get(s) else { return };
    let handles: Vec<JoinHandle<()>> = (0..shard.core.jobs)
        .map(|_| {
            let shared = Arc::clone(shared);
            let mut sw = shard.core.pool.software_device();
            std::thread::spawn(move || {
                if let Some(shard) = shared.shards.get(s) {
                    shard::worker_loop(&*shared, &shard.core, generation, &mut sw);
                }
            })
        })
        .collect();
    relock(&shard.workers).extend(handles);
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
        self.shared.shards.iter().map(FleetShard::snapshot).collect()
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
        let per_shard = shared.shards.iter().map(FleetShard::snapshot).collect();
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
            shard.core.queue.wake_all();
        }
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        if let Some(supervisor) = self.supervisor.take() {
            let _ = supervisor.join();
        }
        for shard in &self.shared.shards {
            for w in std::mem::take(&mut *relock(&shard.workers)) {
                let _ = w.join();
            }
        }
        // Belt-and-braces drain sweep: if a restart/quarantine race left
        // a job queued anywhere after every worker exited, flush it on
        // the software baseline rather than strand its client. Crash
        // skips this — a dead process flushes nothing.
        if state == STATE_DRAINING {
            for shard in &self.shared.shards {
                let mut sw = shard.core.pool.software_device();
                while let Some(job) = shard.core.queue.try_pop() {
                    shard::run_job(&*self.shared, &shard.core, job, &mut sw);
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
                    let mut w = BufWriter::new(&stream);
                    let _ = write_frame(
                        &mut w,
                        &Response::Err("connection capacity reached; retry later".into()).encode(),
                    );
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

    /// Steals the highest-priority queued job from the deepest sibling
    /// queue. `sweep` (the drain path) steals even with stealing off and
    /// from shards in any state: flushing beats affinity.
    fn steal(&self, thief: &Shard<Job>, sweep: bool) -> Option<Job> {
        if !sweep && !self.cfg.steal {
            return None;
        }
        let mut victim: Option<(&FleetShard, usize)> = None;
        for shard in &self.shards {
            let quarantined = shard.state.load(Ordering::SeqCst) == SHARD_QUARANTINED;
            if shard.core.id == thief.id || (!sweep && quarantined) {
                continue;
            }
            let depth = shard.core.queue.depth();
            if depth > 0 && victim.is_none_or(|(_, best)| depth > best) {
                victim = Some((shard, depth));
            }
        }
        let (victim, _) = victim?;
        let job = victim.core.queue.try_pop()?;
        victim.stolen_from.fetch_add(1, Ordering::SeqCst);
        if let Some(thief) = self.shards.get(thief.id) {
            thief.stolen_by.fetch_add(1, Ordering::SeqCst);
        }
        Some(job)
    }

    fn complete(&self, job: Job, done: Done) {
        finish(&job, done);
    }
}

/// The supervisor: samples every shard's `(heartbeat, completed)`
/// progress each `interval` and walks the containment ladder on any
/// shard whose sample freezes — the chaos storm's stagnation
/// criterion applied in-process. Exits when the server leaves the
/// running state; restarts never race a drain.
fn supervisor_loop(shared: &Arc<Shared>) {
    /// Per-shard stagnation tracker, private to the supervisor.
    #[derive(Clone)]
    struct Watch {
        last: (u64, u64),
        stale: u32,
        wedged_since: Option<Instant>,
    }
    let cfg = shared.cfg.supervisor;
    let mut watch = vec![
        Watch { last: (u64::MAX, u64::MAX), stale: 0, wedged_since: None };
        shared.shards.len()
    ];
    while shared.state() == STATE_RUNNING {
        std::thread::sleep(cfg.interval);
        for (s, (shard, w)) in shared.shards.iter().zip(watch.iter_mut()).enumerate() {
            let state = shard.state.load(Ordering::SeqCst);
            if state == SHARD_QUARANTINED || state == SHARD_RESTARTING {
                continue;
            }
            let beat = (
                shard.core.heartbeat.load(Ordering::SeqCst),
                shard.core.completed.load(Ordering::SeqCst),
            );
            // A healthy worker beats on every loop iteration — even an
            // idle one wakes from its bounded queue wait (20 ms) and
            // beats again — so a frozen (heartbeat, completed) sample is
            // stagnation *regardless* of queue depth. Gating on pending
            // work would let an idle wedged shard sit live forever,
            // silently black-holing every pair later dispatched to it.
            // The stale window (`interval` x `stale_intervals`, 400 ms
            // by default) must comfortably exceed the 20 ms queue wait,
            // or healthy idle shards read as frozen between beats.
            if beat == w.last {
                w.stale += 1;
            } else {
                w.stale = 0;
                if state == SHARD_DEGRADED && beat != w.last {
                    // The wedge cleared on its own (a transient stall):
                    // lift the degradation without burning a restart.
                    shard.state.store(SHARD_LIVE, Ordering::SeqCst);
                    record_failover(shard, &mut w.wedged_since);
                }
            }
            w.last = beat;
            if w.stale >= cfg.stale_intervals {
                w.stale = 0;
                match state {
                    SHARD_LIVE => {
                        // Rung 1: steal-only. Dispatch routes around the
                        // shard; siblings drain its queue.
                        shard.state.store(SHARD_DEGRADED, Ordering::SeqCst);
                        w.wedged_since = Some(Instant::now());
                    }
                    SHARD_DEGRADED => restart_shard(shared, s, &mut w.wedged_since),
                    _ => {}
                }
            }
        }
    }
}

fn record_failover(shard: &FleetShard, wedged_since: &mut Option<Instant>) {
    if let Some(t) = wedged_since.take() {
        shard.failovers.fetch_add(1, Ordering::SeqCst);
        shard
            .last_failover_ms
            .store(t.elapsed().as_millis().min(u128::from(u64::MAX)) as u64, Ordering::SeqCst);
    }
}

/// Rung 2 of the ladder: drain-and-restart shard `s` in place —
/// requeue-before-restart (queued pairs move to live siblings *before*
/// the old workers are retired, so a kill at any point loses nothing
/// that was acked), retire the wedged worker generation, respawn. Rung
/// 3: once the restart budget is spent, quarantine the shard for good
/// and re-advertise the lost capacity to admission.
fn restart_shard(shared: &Arc<Shared>, s: usize, wedged_since: &mut Option<Instant>) {
    let Some(shard) = shared.shards.get(s) else { return };
    shard.state.store(SHARD_RESTARTING, Ordering::SeqCst);
    let restarts = shard.restarts.fetch_add(1, Ordering::SeqCst) + 1;

    // Requeue-before-restart: every queued pair finds a live home (or
    // comes straight back to this queue for the fresh generation).
    redistribute_queue(shared, s);

    // Failpoint `shard.restart` (lane = shard id): `error` fails this
    // restart attempt — the shard falls back to degraded and the next
    // stagnation round retries, marching toward quarantine; `kill`
    // dies between requeue and respawn (the window requeue-before-
    // restart exists to make safe).
    let restart_failed = smx_failpoint::hit_lane("shard.restart", s as u32).is_some();

    // Retire the wedged generation: whatever finally un-wedges those
    // workers, the generation check sends them straight to exit.
    shard.core.generation.fetch_add(1, Ordering::SeqCst);
    relock(&shard.workers).retain(|h| !h.is_finished());

    if restart_failed || restarts > u64::from(shared.cfg.supervisor.max_restarts) {
        if restarts > u64::from(shared.cfg.supervisor.max_restarts) {
            shard.state.store(SHARD_QUARANTINED, Ordering::SeqCst);
            // Anything the redistribute had to leave on this queue can
            // never be served here again: fail it typed so the client
            // can resubmit (it lands on a live shard next time).
            while let Some(job) = shard.core.queue.try_pop() {
                let error = format!("shard {s} quarantined; resubmit the pair");
                finish(&job, Done::failed(AlignError::Internal(error)));
            }
        } else {
            shard.state.store(SHARD_DEGRADED, Ordering::SeqCst);
        }
        return;
    }
    let generation = shard.core.generation.load(Ordering::SeqCst);
    spawn_shard_workers(shared, s, generation);
    shard.state.store(SHARD_LIVE, Ordering::SeqCst);
    record_failover(shard, wedged_since);
}

/// Moves every queued pair off shard `s` onto live siblings, spilling
/// back onto `s`'s own (just-emptied) queue when no sibling has room.
fn redistribute_queue(shared: &Shared, s: usize) {
    let Some(source) = shared.shards.get(s) else { return };
    let mut jobs = Vec::new();
    while let Some(job) = source.core.queue.try_pop() {
        jobs.push(job);
    }
    'jobs: for mut job in jobs {
        for (t, shard) in shared.shards.iter().enumerate() {
            if t == s || shard.state.load(Ordering::SeqCst) != SHARD_LIVE {
                continue;
            }
            match shard.core.queue.push(job, false) {
                Ok(()) => continue 'jobs,
                Err(back) => job = back,
            }
        }
        // No live sibling had room: back onto our own queue, which we
        // just emptied, so this cannot fail for more jobs than fit.
        if let Err(job) = source.core.queue.push(job, false) {
            let error = format!("shard {s} restart could not requeue the pair; resubmit");
            finish(&job, Done::failed(AlignError::Internal(error)));
        }
    }
}

/// Hands a finished pair to the connection's writer, which records it
/// durably, books it, and acks it.
fn finish(job: &Job, done: Done) {
    // A send failure means the connection is gone; the pair's outcome is
    // simply unacked (and therefore recomputable on resume).
    let _ = job.reply.send(WriterMsg::Done(job.id, done));
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
            Ok(None) => return,
            Err(ProtoError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if shared.state() != STATE_RUNNING {
                    return;
                }
            }
            Err(_) => return,
        }
    };
    let (session_id, tenant, priority, deadline_ms) = match Request::parse(&hello) {
        Ok(Request::Hello { session, tenant, priority, deadline_ms }) => {
            (session, tenant, priority, deadline_ms)
        }
        Ok(_) | Err(_) => {
            let mut w = BufWriter::new(write_half);
            let _ = write_frame(
                &mut w,
                &Response::Err("expected HELLO as the first frame".into()).encode(),
            );
            return;
        }
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
            let mut w = BufWriter::new(write_half);
            let _ = write_frame(&mut w, &Response::Err(detail).encode());
            return;
        }
    };
    let resume_ids: std::collections::HashSet<usize> = session.completed.keys().copied().collect();
    let resumed_count = resume_ids.len() as u64;
    relock(&shared.tenants).entry(&tenant, priority);

    let outstanding = Arc::new(AtomicUsize::new(0));
    let (tx, rx) = mpsc::channel::<WriterMsg>();
    let writer = {
        let shared = Arc::clone(shared);
        let tenant = tenant.clone();
        let outstanding = Arc::clone(&outstanding);
        let _ = write_half.set_write_timeout(Some(Duration::from_secs(5)));
        std::thread::spawn(move || {
            writer_loop(write_half, rx, session, &shared, &tenant, &outstanding)
        })
    };
    let _ = tx.send(WriterMsg::Frame(Response::Ok {
        session: session_id.clone(),
        resumed: resumed_count,
    }));

    // The deadline each PAIR gets: the HELLO's, or the server default.
    let deadline = if deadline_ms == 0 {
        shared.cfg.exec.deadline
    } else {
        Some(Duration::from_millis(deadline_ms))
    };

    // Phase 2: the request loop.
    loop {
        let payload = match read_frame(&mut reader) {
            Ok(Some(p)) => p,
            Ok(None) => break, // client hung up without BYE
            Err(ProtoError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                match shared.state() {
                    STATE_RUNNING => continue,
                    STATE_DRAINING => break, // flush + DONE below
                    _ => {
                        // Crashed: vanish without a goodbye.
                        drop(tx);
                        let _ = writer.join();
                        if let Ok(mut s) = shared.sessions() {
                            s.release(&session_id);
                        }
                        return;
                    }
                }
            }
            Err(e) => {
                let _ = tx.send(WriterMsg::Frame(Response::Err(e.to_string())));
                break;
            }
        };
        match Request::parse(&payload) {
            Ok(Request::Pair { id, query, reference }) => {
                admit(
                    shared,
                    &tx,
                    &tenant,
                    priority,
                    deadline,
                    id,
                    &query,
                    &reference,
                    &resume_ids,
                    &outstanding,
                );
            }
            Ok(Request::Stats) => {
                let _ = tx.send(WriterMsg::Frame(Response::Stats(shared.stats_text())));
            }
            Ok(Request::Bye) => break,
            Ok(Request::Hello { .. }) => {
                let _ = tx.send(WriterMsg::Frame(Response::Err(
                    "HELLO is only valid as the first frame".into(),
                )));
                break;
            }
            Err(e) => {
                let _ = tx.send(WriterMsg::Frame(Response::Err(e.to_string())));
                break;
            }
        }
    }
    let _ = tx.send(WriterMsg::Bye);
    drop(tx);
    let _ = writer.join();
    // A poisoned store here has nothing left worth tearing down — the
    // connection is already ending; just skip the release.
    if let Ok(mut s) = shared.sessions() {
        s.release(&session_id);
    }
}

/// The admission ladder, in order: drain, replay, rate limit, slow-reader
/// cap, brownout refusal, queue capacity. Every exit is a typed frame.
#[allow(clippy::too_many_arguments)]
fn admit(
    shared: &Shared,
    tx: &mpsc::Sender<WriterMsg>,
    tenant: &str,
    priority: Priority,
    deadline: Option<Duration>,
    id: usize,
    query: &str,
    reference: &str,
    resume_ids: &std::collections::HashSet<usize>,
    outstanding: &Arc<AtomicUsize>,
) {
    let reject = |reason: RejectReason, retry_after_ms: u64| {
        shared.book(tenant, None, |c| c.rejected += 1, |t| t.reject(reason));
        let _ = tx.send(WriterMsg::Frame(Response::Reject { id, reason, retry_after_ms }));
    };
    if shared.state() != STATE_RUNNING {
        reject(RejectReason::Draining, 1000);
        return;
    }
    if resume_ids.contains(&id) {
        // Already durable from a previous run of this session: replay
        // without consuming any admission budget.
        let _ = tx.send(WriterMsg::Replay(id));
        return;
    }
    let wait = {
        let mut tenants = relock(&shared.tenants);
        tenants.entry(tenant, priority).bucket.try_take(Instant::now())
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
    if level >= BrownoutLevel::RefusingLow && priority == Priority::Low {
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
            let _ = tx.send(WriterMsg::Frame(Response::Fail {
                id,
                kind: FailKind::Error,
                detail: e.to_string(),
            }));
            return;
        }
    };
    let job = Job {
        id,
        priority,
        query: q,
        reference: r,
        deadline: deadline.map(|d| (Instant::now() + d, d.as_millis() as u64)),
        reply: tx.clone(),
    };
    // Count the pair as outstanding *before* it becomes visible to the
    // workers: a fast completion must never decrement past zero.
    outstanding.fetch_add(1, Ordering::SeqCst);
    let n = shared.shards.len();
    let home = home_shard(tenant, id, n);
    // Failpoint `shard.dispatch` (lane = home shard): an injected error
    // fails the home-shard route, forcing the spill path — the same
    // thing a just-degraded home looks like to the dispatcher.
    let home_down = smx_failpoint::hit_lane("shard.dispatch", home as u32).is_some();
    let mut job = Some(job);
    for offset in 0..n {
        let t = (home + offset) % n;
        if offset == 0 && home_down {
            continue;
        }
        let Some(shard) = shared.shards.get(t) else { continue };
        if shard.state.load(Ordering::SeqCst) != SHARD_LIVE {
            continue;
        }
        // LINT: allow(panic) job is refilled on every Err(back) below, so it is Some here
        match shard.core.queue.push(job.take().unwrap(), false) {
            Ok(()) => {
                shard.dispatched.fetch_add(1, Ordering::SeqCst);
                shared.book(tenant, None, |c| c.admitted += 1, |t| t.admitted += 1);
                return;
            }
            Err(back) => job = Some(back),
        }
    }
    // Every live shard was full (or none is live): typed backpressure.
    outstanding.fetch_sub(1, Ordering::SeqCst);
    reject(RejectReason::QueueFull, 25);
}

/// Per-connection writer: the only thread that touches this socket's
/// write half, and the owner of the session manifest. The crash-safety
/// ordering lives here: `record` (write + flush + fsync), *then* the
/// `RESULT` frame.
fn writer_loop(
    stream: TcpStream,
    rx: mpsc::Receiver<WriterMsg>,
    mut session: Session,
    shared: &Shared,
    tenant: &str,
    outstanding: &AtomicUsize,
) {
    let mut out = BufWriter::new(stream);
    // Abandoning the connection mid-stream (dead socket, injected torn
    // write, ack failpoint) must close the *socket*, not just this
    // clone: the reader thread holds another clone, and the peer should
    // observe a hard drop — the same thing a process death looks like.
    let kill_socket = |out: &BufWriter<TcpStream>| {
        let _ = out.get_ref().shutdown(std::net::Shutdown::Both);
    };
    // This session's share of the tally: its `DONE` counts.
    let mut local = TenantCounters::default();
    let mut byeing = false;
    loop {
        if shared.state() == STATE_CRASHED {
            return; // no further acks, exactly like a dead process
        }
        if byeing && outstanding.load(Ordering::SeqCst) == 0 {
            let done = Response::Done {
                completed: local.completed,
                failed: local.failed,
                rejected: local.rejected(),
                resumed: local.resumed,
            };
            let _ = write_frame(&mut out, &done.encode());
            let _ = out.flush();
            return;
        }
        let msg = match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(m) => m,
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => {
                // Every sender (reader + all in-flight jobs) is gone.
                byeing = true;
                continue;
            }
        };
        match msg {
            WriterMsg::Frame(resp) => {
                if let Response::Reject { reason, .. } = resp {
                    local.reject(reason);
                }
                if write_frame(&mut out, &resp.encode()).is_err() {
                    // Dead socket (peer gone, or an injected torn
                    // write): stop acking. Anything recorded but not
                    // framed is replayed on resume.
                    kill_socket(&out);
                    return;
                }
            }
            WriterMsg::Replay(id) => {
                if let Some(a) = session.completed.get(&id) {
                    let frame = Response::Result {
                        id,
                        score: a.score,
                        cigar: a.cigar.to_string(),
                        resumed: true,
                    };
                    shared.book(tenant, Some(&mut local), |c| c.resumed += 1, |t| t.resumed += 1);
                    if write_frame(&mut out, &frame.encode()).is_err() {
                        kill_socket(&out);
                        return;
                    }
                }
            }
            WriterMsg::Done(id, mut done) => {
                outstanding.fetch_sub(1, Ordering::SeqCst);
                let frame = match &done.result {
                    Ok(a) => match session.record(id, a) {
                        Ok(()) => Response::Result {
                            id,
                            score: a.score,
                            cigar: a.cigar.to_string(),
                            resumed: false,
                        },
                        // The manifest write failed: the pair is NOT
                        // acked (the client must treat it as lost), so it
                        // is booked as failed too.
                        Err(e) => Response::Fail {
                            id,
                            kind: FailKind::Error,
                            detail: format!("checkpoint write failed: {e}"),
                        },
                    },
                    Err(e) => Response::Fail { id, kind: fail_kind(e), detail: e.to_string() },
                };
                if let Response::Fail { detail, .. } = &frame {
                    if done.result.is_ok() {
                        done.result = Err(AlignError::Internal(detail.clone()));
                    }
                }
                // Booked once, at ack: the global tally, the tenant and
                // this session's `DONE` counts all take the pair as
                // `record` classifies it.
                let mut pair = ServiceStats::default();
                pair.record(&done);
                shared.book(tenant, Some(&mut local), |c| c.record(&done), |t| t.add(&pair));
                let acked = matches!(frame, Response::Result { .. });
                // Failpoint `session.ack`: die between the fsynced record
                // and the RESULT frame — the recorded-but-unacked window.
                // Dropping the connection here must never lose the pair:
                // resume replays it (at-least-once), which is exactly what
                // chaos_storm asserts.
                if acked && smx_failpoint::hit("session.ack").is_some() {
                    kill_socket(&out);
                    return;
                }
                if write_frame(&mut out, &frame.encode()).is_err() && acked {
                    // Recorded but the ack never reached the wire: same
                    // recoverable window as above.
                    kill_socket(&out);
                    return;
                }
            }
            WriterMsg::Bye => byeing = true,
        }
    }
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
        admit(
            &shared,
            &tx,
            "t",
            Priority::Normal,
            None,
            7,
            "ACGT",
            "ACGT",
            &std::collections::HashSet::new(),
            &Arc::new(AtomicUsize::new(0)),
        );
        match rx.recv().unwrap() {
            WriterMsg::Frame(Response::Reject { id, reason, .. }) => {
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
        shared.shards[0].state.store(SHARD_DEGRADED, Ordering::SeqCst);
        // A pair whose home is the degraded shard spills to its sibling.
        let id = (0..64).find(|&id| home_shard("t", id, 2) == 0).unwrap();
        shared.tenants.lock().unwrap().entry("t", Priority::Normal);
        let (tx, rx) = mpsc::channel();
        admit(
            &shared,
            &tx,
            "t",
            Priority::Normal,
            None,
            id,
            "GATTACAGATTACA",
            "GATTACACATTACA",
            &std::collections::HashSet::new(),
            &Arc::new(AtomicUsize::new(0)),
        );
        match rx.recv_timeout(Duration::from_secs(10)).unwrap() {
            WriterMsg::Done(done_id, completion) => {
                assert_eq!(done_id, id);
                assert!(completion.result.is_ok(), "{:?}", completion.result);
            }
            _ => panic!("expected the spilled pair to complete"),
        }
        assert_eq!(shared.shards[0].dispatched.load(Ordering::SeqCst), 0, "no new dispatch");
        assert_eq!(shared.shards[1].dispatched.load(Ordering::SeqCst), 1, "sibling serves it");
        // Steal-only rung: a pair already queued on the degraded shard
        // is still drained by the sibling's workers. Retire shard 0's
        // worker generation first (the realistic shape — a degraded
        // shard is degraded *because* its workers stopped moving), so
        // only a steal can serve the queued pair.
        shared.shards[0].core.generation.fetch_add(1, Ordering::SeqCst);
        shared.shards[0].core.queue.wake_all();
        for handle in std::mem::take(&mut *relock(&shared.shards[0].workers)) {
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
        shared.shards[0].core.queue.push(job, false).unwrap_or_else(|_| panic!("queue has room"));
        match rx.recv_timeout(Duration::from_secs(10)).unwrap() {
            WriterMsg::Done(_, completion) => assert!(completion.result.is_ok()),
            _ => panic!("expected the stolen pair to complete"),
        }
        assert!(shared.shards[0].stolen_from.load(Ordering::SeqCst) >= 1);
        assert!(shared.shards[1].stolen_by.load(Ordering::SeqCst) >= 1);
        shared.shards[0].state.store(SHARD_LIVE, Ordering::SeqCst);
        h.drain();
    }

    /// Stops every shard worker so a test can manipulate the queues
    /// without the fleet racing it, leaving the handle still drainable.
    fn park_workers(shared: &Arc<Shared>) {
        shared.state.store(STATE_CRASHED, Ordering::SeqCst);
        for shard in &shared.shards {
            shard.core.queue.wake_all();
        }
        for shard in &shared.shards {
            for handle in std::mem::take(&mut *relock(&shard.workers)) {
                handle.join().unwrap();
            }
        }
    }

    fn parked_job(id: usize, tx: &mpsc::Sender<WriterMsg>) -> Job {
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
                .core
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
            if let Some(job) = shared.steal(&shared.shards[1].core, false) {
                stolen.push(job.id);
            }
        }
        restarter.join().unwrap();
        while let Some(job) = shared.steal(&shared.shards[1].core, false) {
            stolen.push(job.id);
        }
        let mut seen = stolen;
        for shard in &shared.shards {
            while let Some(job) = shard.core.queue.try_pop() {
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
        shared.shards[1].state.store(SHARD_DEGRADED, Ordering::SeqCst);
        let (tx, rx) = mpsc::channel();
        for id in 0..3 {
            shared.shards[0]
                .core
                .queue
                .push(parked_job(id, &tx), false)
                .unwrap_or_else(|_| panic!("job {id} must fit the shard queue"));
        }
        let max = u64::from(shared.cfg.supervisor.max_restarts);
        shared.shards[0].restarts.store(max, Ordering::SeqCst);
        restart_shard(&shared, 0, &mut None);
        assert_eq!(shared.shards[0].state.load(Ordering::SeqCst), SHARD_QUARANTINED);
        assert_eq!(shared.shards[0].core.queue.depth(), 0, "nothing may rot on a dead queue");
        for _ in 0..3 {
            match rx.recv_timeout(Duration::from_secs(5)).unwrap() {
                WriterMsg::Done(_, completion) => match completion.result {
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
        shared.shards[1].state.store(SHARD_LIVE, Ordering::SeqCst);
        let (_, live_cap) = shared.live_occupancy();
        let total_cap: usize = shared.shards.iter().map(|s| s.core.queue.cap).sum();
        assert_eq!(live_cap, shared.shards[1].core.queue.cap, "only live capacity counts");
        assert!(live_cap < total_cap, "quarantined capacity must not dilute occupancy");
        // Dispatch routes around the quarantined home shard.
        shared.state.store(STATE_RUNNING, Ordering::SeqCst);
        shared.tenants.lock().unwrap().entry("t", Priority::Normal);
        let id = (0..64).find(|&id| home_shard("t", id, 2) == 0).unwrap();
        let (tx, _rx2) = mpsc::channel();
        admit(
            &shared,
            &tx,
            "t",
            Priority::Normal,
            None,
            id,
            "ACGT",
            "ACGT",
            &std::collections::HashSet::new(),
            &Arc::new(AtomicUsize::new(0)),
        );
        assert_eq!(shared.shards[0].dispatched.load(Ordering::SeqCst), 0);
        assert_eq!(shared.shards[1].dispatched.load(Ordering::SeqCst), 1);
        h.crash();
    }

    #[test]
    fn late_retry_backoff_fails_fast_instead_of_napping_past_the_deadline() {
        use smx_coproc::faults::{FaultPlan, RecoveryPolicy};
        let mut dev = SmxDevice::new(AlignmentConfig::DnaEdit, 4).unwrap();
        // Persistent faults + strict recovery + no degradation: every
        // device attempt escalates a recoverable RecoveryExhausted, so
        // the server-side retry loop is what's under test.
        dev.enable_fault_injection(
            FaultPlan::new(7, 1.0).with_persistence(1.0),
            RecoveryPolicy::strict(),
        );
        dev.set_graceful_degradation(false);
        let h = Server::bind(
            dev,
            ServerConfig {
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
