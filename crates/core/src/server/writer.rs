//! The session writer as one thread-free machine (DESIGN.md §8.4).
//!
//! [`Writer`] owns every decision a connection's writer thread makes:
//! which completions form a checkpoint batch, what each pair's frame is
//! once its record's fate is known, when frames go out, what is booked,
//! and when the session ends with `DONE`. It holds no lock, reads no
//! clock, does no I/O and spawns nothing. The thread feeds it [`Event`]s
//! — input from the connection and the workers, and the outcome of each
//! action it carried out — and carries out the [`Action`]s it returns,
//! one at a time. Because the machine is plain data, a unit test walks
//! every order of those events (see `tests`).
//!
//! **Group commit.** The results queued when the writer is ready form
//! one batch. Each record is its own `write`, the batch takes one sync,
//! and then the batch's frames go out in arrival order.
//! A lone result is a batch of one and syncs at once: there is no timer
//! and no batch size. Per pair the contract is the one-record contract:
//! a failed write FAILs only its own pair, a failed sync FAILs every pair
//! of its batch, and no `RESULT` leaves before its record is durable.

// LINT: allow(determinism) keyed access only; the replay map is never iterated
use std::collections::HashMap;

use smx_align_core::{AlignError, Alignment};

use super::proto::{FailKind, Response};
use super::tenant::TenantCounters;
use crate::service::ServiceStats;
use crate::shard::Done;

/// Something that happened, fed to [`Writer::on`]. The first three also
/// travel the connection's channel, from the reader and the workers.
#[derive(Debug)]
pub(crate) enum Event {
    /// A worker finished pair `id`.
    Result(usize, Done),
    /// The client resubmitted a pair the session manifest already holds.
    Replay(usize),
    /// A pre-built frame to pass through (OK, REJECT, STATS, ERR, or a
    /// FAIL at admission).
    Frame(Response),
    /// The next record of the commit in flight was written, or failed
    /// and was rolled back alone.
    Written(Result<(), String>),
    /// The commit's sync landed, or failed and rolled its batch back.
    Synced(Result<(), String>),
    /// The frames in flight went out (`true`), or the socket is dead.
    Sent(bool),
    /// The input is closed: the reader is gone and so is every admitted
    /// pair's worker, so no result is still to come.
    Bye,
    /// The server crashed: nothing more leaves, as in a dead process.
    Crash,
}

/// What the thread must carry out next.
#[derive(Debug)]
pub(crate) enum Action<'a> {
    /// Append these records, each its own write, then sync once if any
    /// landed; answer with one [`Event::Written`] per record, in order,
    /// then [`Event::Synced`].
    Commit(Vec<(usize, &'a Alignment)>),
    /// Fold these pair counts into the global tally and the tenant's
    /// counters (the session's own `DONE` counts already took them).
    Book(Box<ServiceStats>),
    /// Write these frames in order; answer with [`Event::Sent`].
    Send(Vec<Response>),
    /// End the connection; `kill` shuts the socket down hard, so the
    /// peer sees what a process death looks like.
    Close { kill: bool },
}

/// Where one pair of a batch stands with the manifest.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Record {
    /// Nothing to record: the pair failed, or the session is ephemeral.
    Unneeded,
    /// In the commit in flight, not answered yet.
    Pending,
    /// Written; durable once the batch's sync lands.
    Written,
    /// The write or the batch's sync failed: the pair is not acked.
    Failed(String),
}

#[derive(Debug, Clone)]
struct Entry {
    id: usize,
    done: Done,
    record: Record,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Stage {
    /// Nothing in flight: [`Writer::next`] decides what to do.
    Ready,
    /// A commit is out: waiting for its `Written`s, then its `Synced`.
    Committing,
    /// Frames are out: waiting for `Sent`.
    Sending,
    /// `DONE` is out: the session ends once it is sent.
    Ending,
    /// The connection must end.
    Closing { kill: bool },
    /// Ended: every further event is ignored.
    Closed,
}

/// One connection's writer: its batches, frames and `DONE` counts.
#[derive(Debug, Clone)]
pub(crate) struct Writer {
    /// Whether completions are recorded in a manifest before their ack.
    durable: bool,
    /// Pairs completed in an earlier run of the session, for replay.
    // LINT: allow(determinism) keyed access only; the map is never iterated
    replay: HashMap<usize, Alignment>,
    /// Results waiting for the next batch, in arrival order.
    queued: Vec<(usize, Done)>,
    /// The batch in flight, in arrival order.
    batch: Vec<Entry>,
    /// Frames ready to go out, in order.
    outbox: Vec<Response>,
    /// Pair counts decided and not yet booked.
    unbooked: ServiceStats,
    /// This session's share of the tally: its `DONE` counts.
    local: TenantCounters,
    stage: Stage,
    bye: bool,
}

fn fail_kind(e: &AlignError) -> FailKind {
    match e {
        AlignError::DeadlineExceeded { .. } => FailKind::Deadline,
        AlignError::Cancelled => FailKind::Cancelled,
        AlignError::IntegrityViolation { .. } => FailKind::Integrity,
        _ => FailKind::Error,
    }
}

fn result_frame(id: usize, a: &Alignment, resumed: bool) -> Response {
    Response::Result { id, score: a.score, cigar: a.cigar.to_string(), resumed }
}

impl Writer {
    /// A writer for a session that is `durable` (has a manifest), with
    /// the pairs its manifest already held.
    // LINT: allow(determinism) keyed access only; the map is never iterated
    pub(crate) fn new(durable: bool, replay: HashMap<usize, Alignment>) -> Writer {
        Writer {
            durable,
            replay,
            queued: Vec::new(),
            batch: Vec::new(),
            outbox: Vec::new(),
            unbooked: ServiceStats::default(),
            local: TenantCounters::default(),
            stage: Stage::Ready,
            bye: false,
        }
    }

    /// Takes one event. Input waits for the writer to be ready; the
    /// outcome of the action in flight moves it on. After a crash or a
    /// dead socket every event is ignored.
    pub(crate) fn on(&mut self, event: Event) {
        if matches!(self.stage, Stage::Closing { .. } | Stage::Closed) {
            return;
        }
        match event {
            Event::Result(id, done) => self.queued.push((id, done)),
            Event::Replay(id) => {
                if let Some(a) = self.replay.get(&id) {
                    self.outbox.push(result_frame(id, a, true));
                    self.unbooked.resumed += 1;
                }
            }
            Event::Frame(frame) => {
                if let Response::Reject { reason, .. } = frame {
                    self.local.reject(reason);
                }
                self.outbox.push(frame);
            }
            Event::Written(verdict) if self.stage == Stage::Committing => {
                if let Some(e) = self.batch.iter_mut().find(|e| e.record == Record::Pending) {
                    e.record = verdict.map_or_else(Record::Failed, |()| Record::Written);
                }
            }
            Event::Synced(verdict)
                if self.stage == Stage::Committing
                    && self.batch.iter().all(|e| e.record != Record::Pending) =>
            {
                let landed = self.batch.iter().filter(|e| e.record == Record::Written).count();
                match verdict {
                    Ok(()) => {
                        let landed = landed as u64;
                        self.unbooked.syncs += u64::from(landed > 0);
                        self.unbooked.synced_records += landed;
                    }
                    Err(detail) => {
                        for e in self.batch.iter_mut().filter(|e| e.record == Record::Written) {
                            e.record = Record::Failed(detail.clone());
                        }
                    }
                }
                self.settle();
                self.stage = Stage::Ready;
            }
            Event::Sent(ok) => {
                self.stage = match self.stage {
                    Stage::Sending if ok => Stage::Ready,
                    Stage::Sending => Stage::Closing { kill: true },
                    Stage::Ending => Stage::Closing { kill: false },
                    stage => stage,
                }
            }
            Event::Bye => self.bye = true,
            Event::Crash => self.stage = Stage::Closing { kill: false },
            // An answer to nothing in flight.
            Event::Written(_) | Event::Synced(_) => {}
        }
    }

    /// The next action, or `None` while the writer waits — for the
    /// outcome of the action in flight, or for input.
    ///
    /// When ready it books what is decided, sends the outbox, then
    /// commits every queued result as one batch, and once the input is
    /// closed and nothing is left, sends `DONE`.
    pub(crate) fn next(&mut self) -> Option<Action<'_>> {
        match self.stage {
            Stage::Ready => {}
            Stage::Closing { kill } => {
                self.stage = Stage::Closed;
                return Some(Action::Close { kill });
            }
            _ => return None,
        }
        if self.unbooked != ServiceStats::default() {
            let delta = std::mem::take(&mut self.unbooked);
            self.local.add(&delta);
            return Some(Action::Book(Box::new(delta)));
        }
        if !self.outbox.is_empty() {
            self.stage = Stage::Sending;
            return Some(Action::Send(std::mem::take(&mut self.outbox)));
        }
        if !self.queued.is_empty() {
            let durable = self.durable;
            self.batch.extend(self.queued.drain(..).map(|(id, done)| {
                let record =
                    if durable && done.result.is_ok() { Record::Pending } else { Record::Unneeded };
                Entry { id, done, record }
            }));
            if !self.batch.iter().any(|e| e.record == Record::Pending) {
                self.settle();
                return self.next();
            }
            self.stage = Stage::Committing;
            let records = self
                .batch
                .iter()
                .filter_map(|e| Some((e.id, e.done.result.as_ref().ok()?)))
                .collect();
            return Some(Action::Commit(records));
        }
        if self.bye {
            self.stage = Stage::Ending;
            let TenantCounters { completed, failed, resumed, .. } = self.local;
            let rejected = self.local.rejected();
            return Some(Action::Send(vec![Response::Done {
                completed,
                failed,
                rejected,
                resumed,
            }]));
        }
        None
    }

    /// Turns the finished batch into frames, in arrival order, and
    /// books each pair as its frame classifies it: a pair whose record
    /// failed is a FAIL, booked failed.
    fn settle(&mut self) {
        for Entry { id, mut done, record } in self.batch.drain(..) {
            let frame = match (&done.result, record) {
                (Ok(_), Record::Failed(e)) => {
                    let detail = format!("checkpoint write failed: {e}");
                    done.result = Err(AlignError::Internal(detail.clone()));
                    Response::Fail { id, kind: FailKind::Error, detail }
                }
                (Ok(a), _) => result_frame(id, a, false),
                (Err(e), _) => Response::Fail { id, kind: fail_kind(e), detail: e.to_string() },
            };
            self.unbooked.record(&done);
            self.outbox.push(frame);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::proto::RejectReason;
    use smx_align_core::Cigar;
    use std::collections::hash_map::DefaultHasher;
    use std::collections::{BTreeMap, HashSet};
    use std::hash::{Hash, Hasher};

    /// The alignment pair `id` computes: distinct for every id.
    fn aln(id: usize) -> Alignment {
        Alignment { score: id as i32 + 1, cigar: Cigar::parse(&format!("{}=1X", id + 2)).unwrap() }
    }

    fn done(id: usize, ok: bool) -> Done {
        let result = if ok { Ok(aln(id)) } else { Err(AlignError::Cancelled) };
        Done { result, meta: None, retries: 0, software: false }
    }

    /// One input the connection can deliver.
    #[derive(Debug, Clone, Copy)]
    enum Input {
        /// A worker finished pair `id`: aligned (`ok`) or failed.
        Result { id: usize, ok: bool },
        /// The client resubmitted pair `id`, recorded by an earlier run.
        Replay(usize),
        /// Admission rejected pair `id`.
        Reject(usize),
    }

    struct Script {
        durable: bool,
        inputs: Vec<Input>,
        /// Pairs an earlier run of the session recorded.
        resumed: Vec<usize>,
        /// How many record writes, and how many syncs, may fail.
        write_faults: u32,
        sync_faults: u32,
    }

    /// One step the world can take next.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        /// Script input `k` arrives.
        Deliver(usize),
        Written(bool),
        Synced(bool),
        Sent(bool),
        Bye,
        Crash,
    }

    /// What the writer waits on.
    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    enum Wait {
        Input,
        /// The commit in flight and how many of its records are answered.
        Commit(Vec<(usize, String)>, usize),
        Send,
    }

    /// The writer plus everything its thread touches: the manifest (a
    /// durable part and whole records past the durable mark), the
    /// socket's frames, the global tally and the fault budgets.
    #[derive(Debug, Clone)]
    struct World {
        writer: Writer,
        /// Script inputs not delivered yet, as a bit mask.
        pending: u32,
        bye: bool,
        wait: Wait,
        durable: BTreeMap<usize, Alignment>,
        unsynced: Vec<(usize, Alignment)>,
        frames: Vec<Response>,
        booked: ServiceStats,
        /// Syncs that made at least one record durable.
        syncs: u64,
        write_faults: u32,
        sync_faults: u32,
        crashed: bool,
        /// Set once the writer closed: whether it killed the socket.
        closed: Option<bool>,
    }

    impl World {
        fn new(script: &Script) -> World {
            let durable: BTreeMap<usize, Alignment> =
                script.resumed.iter().map(|&id| (id, aln(id))).collect();
            let replay = durable.iter().map(|(&id, a)| (id, a.clone())).collect();
            World {
                writer: Writer::new(script.durable, replay),
                pending: (1 << script.inputs.len()) - 1,
                bye: false,
                wait: Wait::Input,
                durable,
                unsynced: Vec::new(),
                frames: Vec::new(),
                booked: ServiceStats::default(),
                syncs: 0,
                write_faults: script.write_faults,
                sync_faults: script.sync_faults,
                crashed: false,
                closed: None,
            }
        }

        fn over(&self) -> bool {
            self.crashed || self.closed.is_some()
        }

        fn steps(&self, script: &Script) -> Vec<Step> {
            if self.over() {
                return Vec::new();
            }
            let mut steps = vec![Step::Crash];
            match &self.wait {
                Wait::Input => {}
                Wait::Commit(records, answered) if *answered < records.len() => {
                    steps.push(Step::Written(true));
                    if self.write_faults > 0 {
                        steps.push(Step::Written(false));
                    }
                }
                Wait::Commit(..) => {
                    steps.push(Step::Synced(true));
                    if self.sync_faults > 0 && !self.unsynced.is_empty() {
                        steps.push(Step::Synced(false));
                    }
                }
                Wait::Send => steps.extend([Step::Sent(true), Step::Sent(false)]),
            }
            for k in 0..script.inputs.len() {
                if self.pending & (1 << k) != 0 {
                    steps.push(Step::Deliver(k));
                }
            }
            if self.pending == 0 && !self.bye {
                steps.push(Step::Bye);
            }
            steps
        }

        fn apply(&mut self, step: Step, script: &Script) {
            let event = match step {
                Step::Deliver(k) => {
                    self.pending &= !(1 << k);
                    match script.inputs[k] {
                        Input::Result { id, ok } => Event::Result(id, done(id, ok)),
                        Input::Replay(id) => Event::Replay(id),
                        Input::Reject(id) => Event::Frame(Response::Reject {
                            id,
                            reason: RejectReason::QueueFull,
                            retry_after_ms: 25,
                        }),
                    }
                }
                Step::Written(ok) => {
                    let Wait::Commit(records, answered) = &mut self.wait else { unreachable!() };
                    let (id, _) = records[*answered];
                    *answered += 1;
                    if ok {
                        self.unsynced.push((id, aln(id)));
                        Event::Written(Ok(()))
                    } else {
                        self.write_faults -= 1;
                        Event::Written(Err("injected write fault".into()))
                    }
                }
                Step::Synced(ok) => {
                    self.wait = Wait::Input;
                    if ok {
                        self.syncs += u64::from(!self.unsynced.is_empty());
                        self.durable.extend(self.unsynced.drain(..));
                        Event::Synced(Ok(()))
                    } else {
                        self.sync_faults -= 1;
                        self.unsynced.clear();
                        Event::Synced(Err("injected sync fault".into()))
                    }
                }
                Step::Sent(ok) => {
                    self.wait = Wait::Input;
                    Event::Sent(ok)
                }
                Step::Bye => {
                    self.bye = true;
                    Event::Bye
                }
                Step::Crash => {
                    self.crashed = true;
                    Event::Crash
                }
            };
            self.writer.on(event);
            self.drive(script);
        }

        /// Carries out actions until the writer waits, as its thread does.
        fn drive(&mut self, script: &Script) {
            while let Some(action) = self.writer.next() {
                let io = matches!(action, Action::Commit(_) | Action::Send(_));
                assert!(!io || self.wait == Wait::Input, "one action at a time: {self:?}");
                match action {
                    Action::Commit(records) => {
                        let records = records
                            .into_iter()
                            .map(|(id, a)| {
                                assert_eq!(a, &aln(id), "pair {id} records what it computed");
                                (id, a.cigar.to_string())
                            })
                            .collect();
                        self.wait = Wait::Commit(records, 0);
                        return;
                    }
                    Action::Book(pairs) => self.booked.absorb(&pairs),
                    Action::Send(frames) => {
                        self.check_send(&frames, script);
                        self.frames.extend(frames);
                        self.wait = Wait::Send;
                        return;
                    }
                    Action::Close { kill } => {
                        self.closed = Some(kill);
                        return;
                    }
                }
            }
        }

        /// No frame follows `DONE`, every frame acks the pair's own
        /// alignment, and no `RESULT` leaves before its record is durable.
        fn check_send(&self, frames: &[Response], script: &Script) {
            assert!(!frames.is_empty());
            let done = |f: &Response| matches!(f, Response::Done { .. });
            assert!(!self.frames.iter().any(done), "a frame after DONE: {self:?}");
            for frame in frames {
                let Response::Result { id, score, cigar, resumed } = frame else { continue };
                let acked = Some((*score, cigar.clone()));
                assert_eq!(acked, Some((aln(*id).score, aln(*id).cigar.to_string())));
                assert_eq!(*resumed, script.resumed.contains(id), "pair {id}");
                if script.durable {
                    let record = self.durable.get(id).map(|a| (a.score, a.cigar.to_string()));
                    assert_eq!(record, acked, "RESULT {id} before its record is durable: {self:?}");
                }
            }
        }

        fn results(&self) -> impl Iterator<Item = (usize, &Response)> {
            self.frames.iter().filter_map(|f| match f {
                Response::Result { id, .. } | Response::Fail { id, .. } => Some((*id, f)),
                _ => None,
            })
        }

        fn check(&self, script: &Script) {
            let fresh = self.durable.len() - script.resumed.len();
            assert_eq!(self.booked.synced_records, fresh as u64, "{self:?}");
            assert_eq!(self.booked.syncs, self.syncs, "{self:?}");
            if script.durable && self.over() {
                self.check_resume();
            }
            if !self.crashed && self.closed == Some(false) {
                self.check_done(script);
            }
        }

        /// Every acked pair is in the durable manifest, and a resumed
        /// session replays each byte-identically.
        fn check_resume(&self) {
            let acked: Vec<(usize, i32, String)> = self
                .frames
                .iter()
                .filter_map(|f| match f {
                    Response::Result { id, score, cigar, .. } => Some((*id, *score, cigar.clone())),
                    _ => None,
                })
                .collect();
            let mut resumed = Writer::new(true, self.durable.clone().into_iter().collect());
            for &(id, ..) in &acked {
                let record = self.durable.get(&id);
                assert!(record.is_some(), "acked pair {id} lost: {self:?}");
                resumed.on(Event::Replay(id));
            }
            let mut replayed = Vec::new();
            while let Some(action) = resumed.next() {
                match action {
                    Action::Send(frames) => {
                        replayed.extend(frames);
                        resumed.on(Event::Sent(true));
                    }
                    Action::Book(pairs) => assert_eq!(pairs.resumed, acked.len() as u64),
                    other => panic!("a replay only books and sends: {other:?}"),
                }
            }
            let want: Vec<Response> = acked
                .into_iter()
                .map(|(id, score, cigar)| Response::Result { id, score, cigar, resumed: true })
                .collect();
            assert_eq!(replayed, want, "resume replays every acked pair byte-identically");
        }

        /// Without a crash: one RESULT or FAIL per pair before `DONE`,
        /// whose counts match the frames and the global tally.
        fn check_done(&self, script: &Script) {
            let Some(Response::Done { completed, failed, rejected, resumed }) = self.frames.last()
            else {
                panic!("the session ended without DONE: {self:?}");
            };
            let mut answered: BTreeMap<usize, u32> = BTreeMap::new();
            let (mut results, mut fails) = (0, 0);
            for (id, frame) in self.results() {
                match frame {
                    Response::Result { resumed: true, .. } => continue,
                    Response::Result { .. } => results += 1,
                    _ => fails += 1,
                }
                *answered.entry(id).or_default() += 1;
            }
            let mut replays = 0;
            for input in &script.inputs {
                match *input {
                    Input::Result { id, ok } => {
                        assert_eq!(answered.get(&id), Some(&1), "pair {id}: {self:?}");
                        if !ok {
                            let fail = self.results().any(|(i, f)| {
                                i == id
                                    && matches!(f, Response::Fail { kind: FailKind::Cancelled, .. })
                            });
                            assert!(fail, "a failed pair FAILs typed: {self:?}");
                        }
                    }
                    Input::Replay(_) => replays += 1,
                    Input::Reject(_) => {}
                }
            }
            let rejects = self.frames.iter().filter(|f| matches!(f, Response::Reject { .. }));
            assert_eq!((*completed, *failed, *resumed), (results, fails, replays), "{self:?}");
            assert_eq!(*rejected, rejects.count() as u64);
            let booked = (self.booked.completed, self.booked.failed, self.booked.resumed);
            assert_eq!(booked, (results, fails, replays), "the global tally agrees");
            if script.durable {
                let fresh = self.durable.len() - script.resumed.len();
                assert_eq!(fresh as u64, results, "durable exactly when acked: {self:?}");
            }
        }
    }

    /// What decides a world's future and its checks; frame order only
    /// matters as "which frames went out".
    fn key(w: &World) -> u64 {
        let mut h = DefaultHasher::new();
        let mut frames: Vec<String> = w.frames.iter().map(Response::encode).collect();
        frames.sort_unstable();
        let mut outbox: Vec<String> = w.writer.outbox.iter().map(Response::encode).collect();
        outbox.sort_unstable();
        let queued: Vec<(usize, bool)> =
            w.writer.queued.iter().map(|(id, d)| (*id, d.result.is_ok())).collect();
        let batch: Vec<(usize, &Record)> =
            w.writer.batch.iter().map(|e| (e.id, &e.record)).collect();
        (frames, outbox, queued, batch, w.writer.stage, w.writer.bye).hash(&mut h);
        format!("{:?} {:?} {:?}", w.writer.unbooked, w.writer.local, w.booked).hash(&mut h);
        let unsynced: Vec<usize> = w.unsynced.iter().map(|r| r.0).collect();
        (w.pending, w.bye, &w.wait, w.durable.keys().collect::<Vec<_>>(), unsynced).hash(&mut h);
        (w.syncs, w.write_faults, w.sync_faults, w.crashed, w.closed).hash(&mut h);
        h.finish()
    }

    /// Depth-first over every order of the script's steps, checking
    /// after each one; returns (distinct states, steps that ended the
    /// session with `DONE`, steps that crashed it).
    fn explore(script: &Script) -> (usize, usize, usize) {
        let mut root = World::new(script);
        root.drive(script);
        let mut seen = HashSet::from([key(&root)]);
        let mut stack = vec![root];
        let (mut finished, mut crashed) = (0, 0);
        while let Some(world) = stack.pop() {
            for step in world.steps(script) {
                let mut next = world.clone();
                next.apply(step, script);
                next.check(script);
                finished += usize::from(!next.crashed && next.closed == Some(false));
                crashed += usize::from(next.crashed);
                if seen.insert(key(&next)) {
                    stack.push(next);
                }
            }
        }
        (seen.len(), finished, crashed)
    }

    fn results(ids: &[(usize, bool)]) -> Vec<Input> {
        ids.iter().map(|&(id, ok)| Input::Result { id, ok }).collect()
    }

    /// Every order of results, a replay, a rejection and the input's
    /// close, against every write and sync outcome the fault budget
    /// allows, dead sockets and a crash at every step: no RESULT before
    /// its record is durable; after a crash or a dead socket every acked
    /// pair is durable and replays byte-identically; without one, every
    /// pair gets one RESULT or FAIL before `DONE` and the counts agree.
    #[test]
    fn every_event_order_keeps_acks_durable_and_counts_exact() {
        let scripts = [
            Script {
                durable: true,
                inputs: [
                    results(&[(0, true), (1, true), (2, false), (3, true)]),
                    vec![Input::Replay(7)],
                ]
                .concat(),
                resumed: vec![7],
                write_faults: 2,
                sync_faults: 1,
            },
            Script {
                durable: true,
                inputs: [results(&[(0, true), (1, true), (2, true)]), vec![Input::Reject(5)]]
                    .concat(),
                resumed: vec![],
                write_faults: 1,
                sync_faults: 2,
            },
            Script {
                durable: false,
                inputs: [results(&[(0, true), (1, false), (2, true)]), vec![Input::Reject(4)]]
                    .concat(),
                resumed: vec![],
                write_faults: 0,
                sync_faults: 0,
            },
        ];
        for script in &scripts {
            let (states, finished, crashed) = explore(script);
            let coverage = states > 300 && finished > 0 && crashed > 100;
            assert!(coverage, "{:?}: {states} {finished} {crashed}", script.inputs);
        }
    }

    /// Group commit: results queued together take one commit and one
    /// sync, and their frames leave together, in arrival order; a lone
    /// result commits at once.
    #[test]
    fn queued_results_share_one_sync_and_one_send() {
        let script = Script {
            durable: true,
            inputs: results(&[(0, true), (1, true), (2, true)]),
            resumed: vec![],
            write_faults: 0,
            sync_faults: 0,
        };
        let mut w = World::new(&script);
        w.apply(Step::Deliver(0), &script);
        assert_eq!(w.wait, Wait::Commit(vec![(0, aln(0).cigar.to_string())], 0), "at once");
        w.apply(Step::Deliver(2), &script);
        w.apply(Step::Deliver(1), &script);
        for step in [Step::Written(true), Step::Synced(true), Step::Sent(true)] {
            w.apply(step, &script);
        }
        let ids = |w: &Wait| match w {
            Wait::Commit(records, _) => records.iter().map(|r| r.0).collect::<Vec<_>>(),
            _ => Vec::new(),
        };
        assert_eq!(ids(&w.wait), [2, 1], "the two queued results form one batch");
        for step in [Step::Written(true), Step::Written(true), Step::Synced(true)] {
            w.apply(step, &script);
        }
        assert_eq!(w.wait, Wait::Send);
        let acked: Vec<usize> = w.results().map(|(id, _)| id).collect();
        assert_eq!(acked, [0, 2, 1]);
        assert_eq!((w.booked.syncs, w.booked.synced_records), (2, 3));
        assert_eq!(w.booked.records_per_sync(), 1.5);
    }

    /// Seeded random orders over scripts too large to enumerate.
    #[test]
    fn random_orders_on_larger_scripts_keep_the_same_invariants() {
        let mut rng: u64 = 0x2545_F491_4F6C_DD1D;
        let mut next = move |bound: usize| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng % bound as u64) as usize
        };
        for walk in 0..400 {
            let pairs = 6 + walk % 6;
            let mut inputs: Vec<Input> =
                (0..pairs).map(|id| Input::Result { id, ok: (id + walk) % 5 != 0 }).collect();
            inputs.extend([Input::Replay(40), Input::Replay(41), Input::Reject(42)]);
            let script = Script {
                durable: walk % 4 != 0,
                inputs,
                resumed: vec![40, 41],
                write_faults: (walk % 3) as u32,
                sync_faults: (walk % 2) as u32,
            };
            let mut world = World::new(&script);
            world.drive(&script);
            loop {
                // Crashes and dead sockets end a walk: keep them rare.
                let steps: Vec<Step> = world
                    .steps(&script)
                    .into_iter()
                    .filter(|s| match s {
                        Step::Crash | Step::Sent(false) => next(40) == 0,
                        _ => true,
                    })
                    .collect();
                let Some(&step) = steps.get(next(steps.len().max(1))) else { break };
                world.apply(step, &script);
                world.check(&script);
            }
            assert!(world.over(), "walk {walk} never ended");
        }
    }
}
