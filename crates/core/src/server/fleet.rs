//! The shard fleet as one thread-free machine (DESIGN.md §12).
//!
//! [`Fleet`] owns every lifecycle and routing decision the supervised
//! server makes about its shards: which shard a pair is dispatched to,
//! which sibling an idle worker steals from, where a restarting shard's
//! queue is requeued, when the supervisor's ladder degrades, restarts or
//! heals a shard, what a restart attempt leaves behind, and whose
//! capacity admission counts. It holds no lock, reads no clock and
//! spawns nothing. The server's threads pass in facts — the home shard,
//! failpoint verdicts, queue depths, push results, progress samples and
//! `now` — and carry out the decisions: queue moves, worker spawns and
//! retirement, typed failures. Because the machine is plain data, a unit
//! test can explore every interleaving of those events (see `tests`).

use std::time::{Duration, Instant};

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

/// One shard's observable state: the supervisor's view, exported to
/// `STATS`, the drain report, and the storm harnesses.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardSnapshot {
    /// Shard id (also the dispatcher's home-shard index).
    pub id: usize,
    /// Lifecycle state: `live`, `degraded`, `restarting`, `quarantined`.
    pub state: &'static str,
    /// Pairs dispatched to this shard, from its own home or spilled.
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
        let ShardSnapshot { id, state, dispatched, completed, stolen_from, stolen_by, .. } = self;
        let ShardSnapshot { restarts, failovers, last_failover_ms, .. } = self;
        let ShardSnapshot { queue_depth, max_queue_depth, .. } = self;
        write!(
            f,
            "shard {id}: state={state} dispatched={dispatched} completed={completed} \
             stolen_from={stolen_from} stolen_by={stolen_by} restarts={restarts} \
             failovers={failovers} last_failover_ms={last_failover_ms} \
             queue_depth={queue_depth} max_queue_depth={max_queue_depth}"
        )
    }
}

/// The dispatcher's home-shard hash: FNV-1a over `(tenant, pair id)`,
/// a pure function so a tenant's pairs land on a stable shard and any
/// replayed run dispatches identically.
pub(crate) fn home_shard(tenant: &str, id: usize, shards: usize) -> usize {
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

/// A shard's rung on the containment ladder.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub(crate) enum ShardState {
    /// Takes dispatch; its workers serve their queue and steal.
    #[default]
    Live,
    /// Steal-only: dispatch routes around it while siblings drain it.
    Degraded,
    /// Mid-restart: its queue is requeued and its workers replaced.
    Restarting,
    /// Out for the life of the process; its capacity no longer counts.
    Quarantined,
}

impl ShardState {
    fn name(self) -> &'static str {
        match self {
            ShardState::Live => "live",
            ShardState::Degraded => "degraded",
            ShardState::Restarting => "restarting",
            ShardState::Quarantined => "quarantined",
        }
    }
}

/// Where one progress sample moved the ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    /// No rung changed.
    Steady,
    /// A live shard froze for a full stale window: it is now degraded.
    Degrade,
    /// A degraded shard with workers moved again: it is live again.
    Heal,
    /// A degraded shard stayed frozen: the caller must restart it.
    Restart,
}

/// One shard's books: lifecycle, counters and the supervisor's watch.
#[derive(Debug, Clone, Default)]
struct Book {
    state: ShardState,
    /// Whether the current worker generation has no workers: a restart
    /// retired it and failed to spawn the next one.
    unstaffed: bool,
    dispatched: u64,
    stolen_from: u64,
    stolen_by: u64,
    restarts: u64,
    failovers: u64,
    last_failover_ms: u64,
    /// The last `(heartbeat, completed)` sample, once there is one.
    last: Option<(u64, u64)>,
    /// Consecutive samples equal to `last`.
    stale: u32,
    /// When the shard was degraded, until a failover is booked.
    wedged_since: Option<Instant>,
}

impl Book {
    fn book_failover(&mut self, now: Instant) {
        if let Some(t) = self.wedged_since.take() {
            self.failovers += 1;
            let ms = now.saturating_duration_since(t).as_millis();
            self.last_failover_ms = u64::try_from(ms).unwrap_or(u64::MAX);
        }
    }
}

/// Every shard's lifecycle and counters, and the decisions over them.
#[derive(Debug, Clone)]
pub(crate) struct Fleet {
    books: Vec<Book>,
    cfg: SupervisorConfig,
}

impl Fleet {
    /// `shards` live shards, each with a freshly spawned generation.
    pub(crate) fn new(shards: usize, cfg: SupervisorConfig) -> Fleet {
        Fleet { books: vec![Book::default(); shards], cfg }
    }

    /// Shard `s`'s rung; a shard that does not exist takes nothing.
    pub(crate) fn state(&self, s: usize) -> ShardState {
        self.books.get(s).map_or(ShardState::Quarantined, |b| b.state)
    }

    /// Whether shard `s`'s queue slots count toward admission's
    /// occupancy: every shard's but a quarantined one's, so losing a
    /// shard makes the survivors brown out earlier.
    pub(crate) fn counts_capacity(&self, s: usize) -> bool {
        self.state(s) != ShardState::Quarantined
    }

    /// Dispatches one pair: offers it to the live shards in ring order
    /// from `home` — skipping `home` itself when the `shard.dispatch`
    /// failpoint fired — until `push` reports that a shard's queue took
    /// it. Returns that shard, booked as dispatched, or `None` when no
    /// live shard had room.
    pub(crate) fn dispatch(
        &mut self,
        home: usize,
        home_down: bool,
        mut push: impl FnMut(usize) -> bool,
    ) -> Option<usize> {
        let n = self.books.len();
        let t = (usize::from(home_down)..n)
            .map(|offset| (home + offset) % n)
            .filter(|&t| self.state(t) == ShardState::Live)
            .find(|&t| push(t))?;
        if let Some(book) = self.books.get_mut(t) {
            book.dispatched += 1;
        }
        Some(t)
    }

    /// The sibling an idle `thief` steals from: the deepest non-empty
    /// queue (the lowest id on a tie), skipping quarantined shards
    /// unless this is a drain `sweep`, which takes from any state.
    /// `depths` holds every shard's queue depth, in shard order.
    pub(crate) fn steal_victim(
        &self,
        thief: usize,
        sweep: bool,
        depths: &[usize],
    ) -> Option<usize> {
        self.books
            .iter()
            .zip(depths)
            .enumerate()
            .filter(|&(s, (book, &depth))| {
                s != thief && depth > 0 && (sweep || book.state != ShardState::Quarantined)
            })
            .min_by_key(|&(_, (_, &depth))| std::cmp::Reverse(depth))
            .map(|(s, _)| s)
    }

    /// Books one pair `thief` took from `victim`'s queue.
    pub(crate) fn stolen(&mut self, victim: usize, thief: usize) {
        if let Some(book) = self.books.get_mut(victim) {
            book.stolen_from += 1;
        }
        if let Some(book) = self.books.get_mut(thief) {
            book.stolen_by += 1;
        }
    }

    /// Where shard `s`'s queued pairs go before it restarts, in the
    /// order to try: its live siblings by id, then its own queue (just
    /// emptied, so it has room for every pair it held).
    pub(crate) fn requeue_targets(&self, s: usize) -> Vec<usize> {
        (0..self.books.len())
            .filter(|&t| t != s && self.state(t) == ShardState::Live)
            .chain(std::iter::once(s))
            .collect()
    }

    /// Feeds the supervisor's `(heartbeat, completed)` sample of shard
    /// `s` and walks its ladder.
    ///
    /// A healthy worker beats on every loop iteration — even an idle
    /// one wakes from its bounded queue wait (20 ms) and beats again —
    /// so a frozen sample is stagnation *regardless* of queue depth.
    /// Gating on pending work would let an idle wedged shard sit live
    /// forever, silently black-holing every pair later dispatched to
    /// it. The stale window (`interval` × `stale_intervals`, 400 ms by
    /// default) must comfortably exceed the 20 ms queue wait, or
    /// healthy idle shards read as frozen between beats.
    ///
    /// A moving sample heals a degraded shard only while its current
    /// generation has workers: after a failed restart it has none, and
    /// a retired worker that beats once more on its way out must not
    /// make the shard look live.
    pub(crate) fn sample(&mut self, s: usize, beat: (u64, u64), now: Instant) -> Step {
        let stale_intervals = self.cfg.stale_intervals;
        let Some(book) = self.books.get_mut(s) else { return Step::Steady };
        let state = book.state;
        if matches!(state, ShardState::Restarting | ShardState::Quarantined) {
            return Step::Steady;
        }
        let moved = book.last.replace(beat) != Some(beat);
        book.stale = if moved { 0 } else { book.stale + 1 };
        let mut step = Step::Steady;
        if moved && state == ShardState::Degraded && !book.unstaffed {
            // The wedge cleared on its own (a transient stall): lift the
            // degradation without burning a restart.
            book.state = ShardState::Live;
            book.book_failover(now);
            step = Step::Heal;
        }
        if book.stale >= stale_intervals {
            book.stale = 0;
            if state == ShardState::Live {
                book.state = ShardState::Degraded;
                book.wedged_since = Some(now);
                step = Step::Degrade;
            } else {
                step = Step::Restart;
            }
        }
        step
    }

    /// Opens a restart of shard `s`: no dispatch reaches it until
    /// [`Fleet::restart_verdict`], and one restart is charged.
    pub(crate) fn begin_restart(&mut self, s: usize) {
        if let Some(book) = self.books.get_mut(s) {
            book.state = ShardState::Restarting;
            book.restarts += 1;
        }
    }

    /// Closes a restart of shard `s` whose old generation the caller
    /// has retired; `failed` is the `shard.restart` failpoint's verdict.
    /// Returns the shard's new rung, which tells the caller what to do:
    ///
    /// * `Live` — spawn the fresh generation (the failover is booked);
    /// * `Degraded` — the attempt failed: no workers, steal-only, and
    ///   the next stale window tries again;
    /// * `Quarantined` — the budget is spent: fail its leftovers typed.
    pub(crate) fn restart_verdict(&mut self, s: usize, failed: bool, now: Instant) -> ShardState {
        let max_restarts = u64::from(self.cfg.max_restarts);
        let Some(book) = self.books.get_mut(s) else { return ShardState::Quarantined };
        book.state = if book.restarts > max_restarts {
            ShardState::Quarantined
        } else if failed {
            ShardState::Degraded
        } else {
            ShardState::Live
        };
        book.unstaffed = book.state != ShardState::Live;
        if !book.unstaffed {
            book.book_failover(now);
        }
        book.state
    }

    /// Shard `s`'s lifecycle and counters; the caller fills in what the
    /// shard itself counts (`completed` and the queue depths).
    pub(crate) fn snapshot(&self, s: usize) -> ShardSnapshot {
        let b = self.books.get(s).cloned().unwrap_or_default();
        ShardSnapshot {
            id: s,
            state: self.state(s).name(),
            dispatched: b.dispatched,
            stolen_from: b.stolen_from,
            stolen_by: b.stolen_by,
            restarts: b.restarts,
            failovers: b.failovers,
            last_failover_ms: b.last_failover_ms,
            ..ShardSnapshot::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::collections::{HashSet, VecDeque};
    use std::hash::{Hash, Hasher};

    impl Fleet {
        /// Puts shard `s` on `state` by hand, for tests that stage one
        /// rung without walking the ladder to it.
        pub(crate) fn force(&mut self, s: usize, state: ShardState) {
            if let Some(book) = self.books.get_mut(s) {
                book.state = state;
            }
        }
    }

    const INTERVAL_MS: u64 = 20;

    fn supervisor(stale_intervals: u32, max_restarts: u32) -> SupervisorConfig {
        SupervisorConfig {
            interval: Duration::from_millis(INTERVAL_MS),
            stale_intervals,
            max_restarts,
        }
    }

    #[test]
    fn dispatch_steal_and_requeue_follow_the_ring_and_the_deepest_queue() {
        let mut fleet = Fleet::new(4, supervisor(1, 1));
        fleet.force(2, ShardState::Degraded);
        fleet.force(3, ShardState::Quarantined);
        let mut offered = Vec::new();
        let took = fleet.dispatch(1, false, |t| {
            offered.push(t);
            false
        });
        assert_eq!((took, offered), (None, vec![1, 0]), "live shards in ring order from home");
        let mut offered = Vec::new();
        let took = fleet.dispatch(1, true, |t| {
            offered.push(t);
            true
        });
        assert_eq!((took, offered), (Some(0), vec![0]), "a failed home route spills");
        assert_eq!(fleet.snapshot(0).dispatched, 1, "booked on the shard that took it");
        assert_eq!(fleet.snapshot(1).dispatched, 0);

        // Deepest non-quarantined sibling, lowest id on a tie; a drain
        // sweep also takes from the quarantined shard.
        assert_eq!(fleet.steal_victim(0, false, &[9, 2, 2, 7]), Some(1));
        assert_eq!(fleet.steal_victim(0, true, &[9, 2, 2, 7]), Some(3));
        assert_eq!(fleet.steal_victim(1, false, &[0, 5, 0, 9]), None);
        fleet.stolen(2, 0);
        assert_eq!((fleet.snapshot(2).stolen_from, fleet.snapshot(0).stolen_by), (1, 1));

        assert_eq!(fleet.requeue_targets(2), vec![0, 1, 2], "live siblings, then itself");
        assert!(fleet.counts_capacity(2) && !fleet.counts_capacity(3));
    }

    #[test]
    fn a_staffed_degraded_shard_heals_and_books_one_failover() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut fleet = Fleet::new(1, supervisor(2, 1));
        assert_eq!(fleet.sample(0, (0, 0), at(0)), Step::Steady);
        assert_eq!(fleet.sample(0, (0, 0), at(20)), Step::Steady);
        assert_eq!(fleet.sample(0, (0, 0), at(40)), Step::Degrade);
        assert_eq!(fleet.sample(0, (1, 0), at(70)), Step::Heal);
        let snap = fleet.snapshot(0);
        assert_eq!((snap.state, snap.restarts, snap.failovers), ("live", 0, 1));
        assert_eq!(snap.last_failover_ms, 30);
    }

    /// The failed-restart-then-late-beat order: a restart fails after
    /// retiring the generation, then a retired worker beats once on its
    /// way out. That beat must not heal a shard with no workers, and
    /// the one real recovery books one failover.
    #[test]
    fn a_late_beat_after_a_failed_restart_does_not_heal_the_shard() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut fleet = Fleet::new(2, supervisor(1, 2));
        assert_eq!(fleet.sample(0, (0, 0), at(0)), Step::Steady);
        assert_eq!(fleet.sample(0, (0, 0), at(20)), Step::Degrade);
        assert_eq!(fleet.sample(0, (0, 0), at(40)), Step::Restart);
        fleet.begin_restart(0);
        assert_eq!(fleet.restart_verdict(0, true, at(45)), ShardState::Degraded);
        assert_eq!(fleet.sample(0, (1, 0), at(60)), Step::Steady, "late beat");
        let snap = fleet.snapshot(0);
        assert_eq!((snap.state, snap.restarts, snap.failovers), ("degraded", 1, 0));
        assert!(fleet.dispatch(0, false, |_| true) == Some(1), "no dispatch to shard 0");
        assert_eq!(fleet.sample(0, (1, 0), at(80)), Step::Restart);
        fleet.begin_restart(0);
        assert_eq!(fleet.restart_verdict(0, false, at(85)), ShardState::Live);
        let snap = fleet.snapshot(0);
        assert_eq!((snap.state, snap.restarts, snap.failovers), ("live", 2, 1));
        assert_eq!(snap.last_failover_ms, 65, "measured from the first degrade");
    }

    /// How a pair ended.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum End {
        Completed,
        /// Rejected typed at admission: no live shard had room.
        Rejected,
        /// Failed typed, with a resubmit hint, on a quarantined shard.
        Quarantined,
    }

    /// Where the supervisor thread stands in a restart of one shard.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum Restart {
        Idle,
        /// Begun: the shard's queue is about to be taken.
        Take(usize),
        /// Its pairs are in the supervisor's hand, pushed one at a time.
        Requeue(usize),
        Verdict(usize),
    }

    /// One event the server's threads can make happen next.
    #[derive(Debug, Clone, Copy)]
    enum Event {
        /// A connection admits the next pair (`home_down`: the
        /// `shard.dispatch` failpoint fired).
        Admit { home_down: bool },
        /// A worker of the shard's current generation serves its queue.
        Serve(usize),
        /// An idle worker of the shard steals from the fleet's victim.
        Steal(usize),
        /// The supervisor samples a shard; `moved` adds one beat.
        Sample { s: usize, moved: bool },
        /// The restarting shard's queue is taken in one sweep.
        Take,
        /// One taken pair moves to the first requeue target with room.
        Requeue,
        /// The old generation is retired and the restart succeeds or fails.
        Verdict { failed: bool },
        /// Graceful drain: worker flush and sweep, then the final sweep.
        Drain,
    }

    struct Setup {
        caps: Vec<usize>,
        pairs: usize,
        max_restarts: u32,
        max_samples: u32,
        t0: Instant,
    }

    /// The fleet plus every effect the server carries out around it:
    /// queues, worker generations, progress counters and pair outcomes.
    #[derive(Debug, Clone)]
    struct World {
        fleet: Fleet,
        queues: Vec<VecDeque<usize>>,
        admitted: usize,
        ends: Vec<Option<End>>,
        /// Pairs a restart took off its shard and has not requeued yet.
        moving: VecDeque<usize>,
        /// Whether each shard's current generation has workers.
        staffed: Vec<bool>,
        /// Whether a retired generation of the shard can still beat once.
        late: Vec<bool>,
        /// Each shard's progress: beats plus completions.
        progress: Vec<u64>,
        samples: u32,
        restart: Restart,
        drained: bool,
    }

    impl World {
        fn new(setup: &Setup) -> World {
            let n = setup.caps.len();
            let mut fleet = Fleet::new(n, supervisor(1, setup.max_restarts));
            for s in 0..n {
                // Prime the watch, so every budgeted sample can move a rung.
                fleet.sample(s, (0, 0), setup.t0);
            }
            World {
                fleet,
                queues: vec![VecDeque::new(); n],
                admitted: 0,
                ends: vec![None; setup.pairs],
                moving: VecDeque::new(),
                staffed: vec![true; n],
                late: vec![false; n],
                progress: vec![0; n],
                samples: 0,
                restart: Restart::Idle,
                drained: false,
            }
        }

        fn depths(&self) -> Vec<usize> {
            self.queues.iter().map(VecDeque::len).collect()
        }

        fn now(&self, setup: &Setup) -> Instant {
            setup.t0 + Duration::from_millis(INTERVAL_MS * u64::from(self.samples + 1))
        }

        fn events(&self, setup: &Setup) -> Vec<Event> {
            if self.drained {
                return Vec::new();
            }
            let mut events = Vec::new();
            match self.restart {
                Restart::Take(_) => events.push(Event::Take),
                Restart::Requeue(_) => events.push(Event::Requeue),
                Restart::Verdict(_) => {
                    events.push(Event::Verdict { failed: false });
                    events.push(Event::Verdict { failed: true });
                }
                Restart::Idle => {
                    for s in 0..self.queues.len() {
                        if self.samples < setup.max_samples {
                            events.push(Event::Sample { s, moved: false });
                            if self.staffed[s] || self.late[s] {
                                events.push(Event::Sample { s, moved: true });
                            }
                        }
                    }
                    // The drain joins the supervisor first, so it never
                    // cuts a restart short.
                    events.push(Event::Drain);
                }
            }
            if self.admitted < setup.pairs {
                events.push(Event::Admit { home_down: false });
                events.push(Event::Admit { home_down: true });
            }
            let depths = self.depths();
            for s in 0..self.queues.len() {
                if self.staffed[s] && !self.queues[s].is_empty() {
                    events.push(Event::Serve(s));
                }
                if self.staffed[s] && self.fleet.steal_victim(s, false, &depths).is_some() {
                    events.push(Event::Steal(s));
                }
            }
            events
        }

        fn end(&mut self, id: usize, end: End) {
            assert_eq!(self.ends[id], None, "pair {id} ended twice: {self:?}");
            self.ends[id] = Some(end);
        }

        fn steal(&mut self, thief: usize, sweep: bool) -> bool {
            let Some(victim) = self.fleet.steal_victim(thief, sweep, &self.depths()) else {
                return false;
            };
            let id = self.queues[victim].pop_front().expect("the victim had a queued pair");
            self.fleet.stolen(victim, thief);
            self.progress[thief] += 1;
            self.end(id, End::Completed);
            true
        }

        fn apply(&mut self, event: Event, setup: &Setup) {
            let n = self.queues.len();
            match event {
                Event::Admit { home_down } => {
                    let id = self.admitted;
                    self.admitted += 1;
                    let states: Vec<ShardState> = (0..n).map(|s| self.fleet.state(s)).collect();
                    let queues = &mut self.queues;
                    let took = self.fleet.dispatch(id % n, home_down, |t| {
                        assert_eq!(states[t], ShardState::Live, "pair {id} offered to shard {t}");
                        let room = queues[t].len() < setup.caps[t];
                        if room {
                            queues[t].push_back(id);
                        }
                        room
                    });
                    if took.is_none() {
                        self.end(id, End::Rejected);
                    }
                }
                Event::Serve(s) => {
                    let id = self.queues[s].pop_front().expect("serve needs a queued pair");
                    self.progress[s] += 1;
                    self.end(id, End::Completed);
                }
                Event::Steal(thief) => assert!(self.steal(thief, false)),
                Event::Sample { s, moved } => {
                    if moved {
                        // Without workers, only the retired generation's
                        // one late beat can move the sample.
                        self.late[s] &= self.staffed[s];
                        self.progress[s] += 1;
                    }
                    self.samples += 1;
                    let now = self.now(setup);
                    if self.fleet.sample(s, (self.progress[s], 0), now) == Step::Restart {
                        self.fleet.begin_restart(s);
                        self.restart = Restart::Take(s);
                    }
                }
                Event::Take => {
                    let Restart::Take(s) = self.restart else { unreachable!() };
                    self.moving = std::mem::take(&mut self.queues[s]);
                    let next = if self.moving.is_empty() {
                        Restart::Verdict(s)
                    } else {
                        Restart::Requeue(s)
                    };
                    self.restart = next;
                }
                Event::Requeue => {
                    let Restart::Requeue(s) = self.restart else { unreachable!() };
                    let id = self.moving.pop_front().expect("a taken pair to requeue");
                    let t = *self
                        .fleet
                        .requeue_targets(s)
                        .iter()
                        .find(|&&t| self.queues[t].len() < setup.caps[t])
                        .expect("the restarting shard's own queue has room");
                    assert!(t == s || self.fleet.state(t) == ShardState::Live);
                    self.queues[t].push_back(id);
                    if self.moving.is_empty() {
                        self.restart = Restart::Verdict(s);
                    }
                }
                Event::Verdict { failed } => {
                    let Restart::Verdict(s) = self.restart else { unreachable!() };
                    self.late[s] |= self.staffed[s];
                    self.staffed[s] = false;
                    let now = self.now(setup);
                    match self.fleet.restart_verdict(s, failed, now) {
                        ShardState::Live => self.staffed[s] = true,
                        ShardState::Quarantined => {
                            for id in std::mem::take(&mut self.queues[s]) {
                                self.end(id, End::Quarantined);
                            }
                        }
                        ShardState::Degraded | ShardState::Restarting => {}
                    }
                    self.restart = Restart::Idle;
                }
                Event::Drain => {
                    for s in 0..n {
                        if self.staffed[s] {
                            while let Some(id) = self.queues[s].pop_front() {
                                self.end(id, End::Completed);
                            }
                            while self.steal(s, true) {}
                        }
                    }
                    for s in 0..n {
                        for id in std::mem::take(&mut self.queues[s]) {
                            self.end(id, End::Completed);
                        }
                    }
                    self.drained = true;
                }
            }
        }

        /// Every admitted pair is queued once or ended once, and no
        /// shard is live without workers of its current generation.
        fn check(&self) {
            for s in 0..self.queues.len() {
                if self.fleet.state(s) == ShardState::Live {
                    assert!(self.staffed[s], "shard {s} is live without workers: {self:?}");
                }
            }
            let mut seen = vec![0u32; self.admitted];
            for id in self.queues.iter().flatten().chain(&self.moving) {
                seen[*id] += 1;
            }
            for (id, end) in self.ends.iter().enumerate() {
                if end.is_some() {
                    seen[id] += 1;
                }
            }
            assert!(seen.iter().all(|&c| c == 1), "a pair was lost or duplicated: {self:?}");
            if self.drained {
                assert!(self.queues.iter().all(VecDeque::is_empty));
            }
        }
    }

    /// What decides a world's future: everything but the counters and
    /// instants that only feed snapshots. Progress matters only as
    /// "moved since the last sample".
    fn key(w: &World) -> u64 {
        let mut h = DefaultHasher::new();
        (&w.queues, w.admitted, &w.ends, &w.moving, &w.staffed, &w.late, w.samples).hash(&mut h);
        (w.restart, w.drained).hash(&mut h);
        for (book, &progress) in w.fleet.books.iter().zip(&w.progress) {
            let frozen = book.last == Some((progress, 0));
            (book.state, book.unstaffed, book.restarts, book.stale, frozen).hash(&mut h);
            book.wedged_since.is_some().hash(&mut h);
        }
        h.finish()
    }

    /// Depth-first over every order of the events from the initial
    /// world; returns (distinct states, drained leaves).
    fn explore(setup: &Setup) -> (usize, usize) {
        let root = World::new(setup);
        let mut seen = HashSet::from([key(&root)]);
        let mut stack = vec![root];
        let mut drained = 0;
        while let Some(world) = stack.pop() {
            for event in world.events(setup) {
                let mut next = world.clone();
                next.apply(event, setup);
                next.check();
                if seen.insert(key(&next)) {
                    drained += usize::from(next.drained);
                    stack.push(next);
                }
            }
        }
        (seen.len(), drained)
    }

    /// Every interleaving of admit, serve, steal, frozen and moving
    /// samples, restart requeues (pair by pair, racing the steals),
    /// restarts that succeed or fail, quarantine and drain, on two
    /// shards with one- and two-slot queues and four pairs: no pair
    /// is lost or duplicated, each ends once (completed, rejected at
    /// admission or failed on quarantine), dispatch only offers pairs to
    /// live shards, and no shard is live without workers.
    #[test]
    fn every_interleaving_keeps_each_pair_once_and_live_shards_staffed() {
        let t0 = Instant::now();
        for (caps, max_restarts) in [(vec![1, 1], 1), (vec![2, 1], 1), (vec![1, 2], 0)] {
            let setup = Setup { caps, pairs: 4, max_restarts, max_samples: 4, t0 };
            let (states, drained) = explore(&setup);
            assert!(states > 1000 && drained > 100, "{:?}: {states} {drained}", setup.caps);
        }
    }

    /// Seeded random orders over fleets too large to enumerate.
    #[test]
    fn random_orders_on_larger_fleets_keep_the_same_invariants() {
        let t0 = Instant::now();
        let mut rng: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = move |bound: usize| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng % bound as u64) as usize
        };
        for walk in 0..300 {
            let shards = 2 + walk % 3;
            let setup = Setup {
                caps: (0..shards).map(|s| 1 + (walk + s) % 3).collect(),
                pairs: 12,
                max_restarts: (walk % 3) as u32,
                max_samples: 24,
                t0,
            };
            let mut world = World::new(&setup);
            loop {
                let events = world.events(&setup);
                let Some(&event) = events.get(next(events.len().max(1))) else { break };
                world.apply(event, &setup);
                world.check();
            }
            assert!(world.drained, "walk {walk} never drained");
        }
    }
}
