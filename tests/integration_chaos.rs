//! Failpoint-driven chaos regression tests: the deterministic, seconds-
//! scale versions of what `chaos_storm` exercises at scale. Compiled
//! only with the `failpoints` feature (`cargo test --features
//! failpoints`); without it this file is empty and the default test run
//! is unaffected.
//!
//! The failpoint registry is process-global, so every test here takes
//! [`registry_lock`] for its whole body and clears the registry before
//! releasing it — tests in this binary serialize, tests in other
//! binaries are other processes.
#![cfg(feature = "failpoints")]

use smx::failpoint::{self, Action, FailSchedule};
use smx::prelude::*;
use smx::server::proto::{read_frame, write_frame, ProtoError};
use smx::service::{BatchExecutor, BreakerConfig, ExecutorConfig};
use std::sync::{Mutex, MutexGuard, PoisonError};

static REGISTRY: Mutex<()> = Mutex::new(());

/// Exclusive access to the process-global failpoint registry, cleared on
/// drop so a failing test cannot leak its schedule into the next one.
fn registry_lock() -> impl Drop {
    struct Guard(#[allow(dead_code)] MutexGuard<'static, ()>);
    impl Drop for Guard {
        fn drop(&mut self) {
            failpoint::clear();
        }
    }
    Guard(REGISTRY.lock().unwrap_or_else(PoisonError::into_inner))
}

fn dna(text: &str) -> Sequence {
    Sequence::from_text(Alphabet::Dna2, text).unwrap()
}

/// The `proto.write_frame` Partial injection leaves a torn frame on the
/// wire (header + half payload), returns a typed I/O error to the
/// sender, and the receiving side reports the tear as a typed
/// `UnexpectedEof` — the full sender-dies-mid-frame story, both ends
/// typed, no hang.
#[test]
fn torn_write_frame_is_typed_on_both_ends() {
    let _guard = registry_lock();
    failpoint::install(FailSchedule::new(1).rule(
        "proto.write_frame",
        None,
        Action::Partial,
        1.0,
        Some(1),
    ));

    let mut wire = Vec::new();
    match write_frame(&mut wire, "RESULT\t7\tok") {
        Err(ProtoError::Io(_)) => {}
        other => panic!("torn write reported {other:?}"),
    }
    assert!(
        !wire.is_empty() && wire.len() < 4 + "RESULT\t7\tok".len(),
        "partial injection should leave a strict prefix on the wire, got {} bytes",
        wire.len()
    );

    match read_frame(&mut wire.as_slice()) {
        Err(ProtoError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof),
        other => panic!("torn frame read back as {other:?}"),
    }

    // The schedule's one-hit limit is spent: the very next frame flows
    // clean over the same (now reset) wire — faults always stop.
    let mut wire = Vec::new();
    write_frame(&mut wire, "RESULT\t7\tok").unwrap();
    assert_eq!(read_frame(&mut wire.as_slice()).unwrap().as_deref(), Some("RESULT\t7\tok"));
}

/// Quarantine liveness: a schedule poisons one pool lane so every
/// dispatch on it fails for a bounded burst. The breaker must quarantine
/// the lane, the canary ladder must readmit it once the faults stop, and
/// a bounded number of retry rounds must reach a clean pass — the lane
/// never stays dead and the batch never wedges.
#[test]
fn poisoned_lane_is_quarantined_then_canary_readmitted() {
    let _guard = registry_lock();
    failpoint::install(FailSchedule::new(7).rule(
        "pool.dispatch",
        Some(1),
        Action::Error,
        1.0,
        Some(12),
    ));

    let exec = BatchExecutor::new(
        SmxDevice::new(AlignmentConfig::DnaEdit, 2).unwrap(),
        ExecutorConfig {
            jobs: 2,
            queue_cap: 256,
            devices: 3,
            breaker: Some(BreakerConfig::default()),
            quarantine: Some(QuarantineConfig::default()),
            ..ExecutorConfig::default()
        },
    )
    .unwrap();

    let pairs: Vec<(Sequence, Sequence)> = (0..120)
        .map(|i| {
            let q = format!("ACGT{}AC", ["A", "C", "G", "T"][i % 4].repeat(8));
            let r = q.replace("GT", "GG");
            (dna(&q), dna(&r))
        })
        .collect();

    let mut readmissions = 0;
    let mut quarantines = 0;
    let mut pending = pairs;
    let mut rounds = 0;
    loop {
        rounds += 1;
        assert!(rounds <= 6, "batch never reached a clean pass over the healed pool");
        let report = exec.run(&pending);
        readmissions += report.stats.readmissions;
        quarantines += report.stats.quarantines;
        let failed: Vec<(Sequence, Sequence)> =
            report.failures().iter().map(|f| pending[f.index].clone()).collect();
        if failed.is_empty() {
            break;
        }
        pending = failed;
    }
    assert!(quarantines >= 1, "a lane failing 12 straight dispatches was never quarantined");
    assert!(
        readmissions >= 1,
        "the poisoned lane was never canary-readmitted after its faults stopped"
    );
}

/// While `pool.canary` is forced to fail, the quarantined lane must stay
/// out (no premature readmission on a failing canary); once the canary
/// faults stop, readmission follows.
#[test]
fn failing_canaries_block_readmission_until_they_heal() {
    let _guard = registry_lock();
    failpoint::install(
        FailSchedule::new(9).rule("pool.dispatch", Some(1), Action::Error, 1.0, Some(10)).rule(
            "pool.canary",
            Some(1),
            Action::Error,
            1.0,
            Some(4),
        ),
    );

    let exec = BatchExecutor::new(
        SmxDevice::new(AlignmentConfig::DnaEdit, 2).unwrap(),
        ExecutorConfig {
            jobs: 2,
            queue_cap: 256,
            devices: 3,
            breaker: Some(BreakerConfig::default()),
            quarantine: Some(QuarantineConfig::default()),
            ..ExecutorConfig::default()
        },
    )
    .unwrap();

    let pairs: Vec<(Sequence, Sequence)> = (0..150)
        .map(|i| {
            let q = format!("TTGCA{}T", ["A", "C", "G", "T"][i % 4].repeat(6));
            let r = q.replace("CA", "CC");
            (dna(&q), dna(&r))
        })
        .collect();

    let mut canary_failures = 0;
    let mut readmissions = 0;
    let mut pending = pairs;
    for _ in 0..6 {
        let report = exec.run(&pending);
        canary_failures += report.stats.canary_failures;
        readmissions += report.stats.readmissions;
        let failed: Vec<(Sequence, Sequence)> =
            report.failures().iter().map(|f| pending[f.index].clone()).collect();
        if failed.is_empty() && readmissions >= 1 {
            break;
        }
        if !failed.is_empty() {
            pending = failed;
        }
    }
    assert!(
        canary_failures >= 1,
        "the canary failpoint never fired — readmission was not canary-gated"
    );
    assert!(readmissions >= 1, "lane was never readmitted after canary faults stopped");
}

/// Feature sanity: an installed empty schedule injects nothing, and a
/// cleared registry leaves every site a no-op.
#[test]
fn empty_or_cleared_schedule_injects_nothing() {
    let _guard = registry_lock();
    failpoint::install(FailSchedule::new(3));
    let mut wire = Vec::new();
    write_frame(&mut wire, "HELLO").unwrap();
    assert_eq!(read_frame(&mut wire.as_slice()).unwrap().as_deref(), Some("HELLO"));

    failpoint::clear();
    let mut wire = Vec::new();
    write_frame(&mut wire, "BYE").unwrap();
    assert_eq!(read_frame(&mut wire.as_slice()).unwrap().as_deref(), Some("BYE"));
}

// ---------------------------------------------------------------------------
// Supervised shard fleet: wedge detection and the containment ladder.
// ---------------------------------------------------------------------------

use smx::server::proto::{Request, Response};
use smx::server::tenant::Priority;
use smx::{Client, Server, ServerConfig, SupervisorConfig};
use std::collections::HashMap;
use std::time::Duration;

/// Bounds every test client's connect, reads and writes.
const TIMEOUT: Duration = Duration::from_secs(30);

fn shard_server(supervisor: SupervisorConfig) -> smx::ServerHandle {
    let dev = SmxDevice::new(AlignmentConfig::DnaEdit, 4).unwrap();
    Server::bind(
        dev,
        ServerConfig {
            exec: ExecutorConfig { jobs: 2, ..ExecutorConfig::default() },
            shards: 2,
            supervisor,
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .unwrap()
}

fn chaos_pairs(n: usize) -> Vec<(String, String)> {
    (0..n)
        .map(|i| {
            (
                format!("GATTACA{}", "ACGT".repeat(i % 5 + 1)),
                format!("GATTACA{}", "AGGT".repeat(i % 5 + 1)),
            )
        })
        .collect()
}

fn golden_for(pairs: &[(String, String)]) -> Vec<(i32, String)> {
    let mut dev = SmxDevice::new(AlignmentConfig::DnaEdit, 4).unwrap();
    pairs
        .iter()
        .map(|(q, r)| {
            let a = dev.align(&dna(q), &dna(r)).unwrap();
            (a.score, a.cigar.to_string())
        })
        .collect()
}

/// A transient wedge (`shard.heartbeat` swallowed for a bounded burst)
/// must be detected by the supervisor and answered with an in-place
/// restart; once the wedge clears, the shard returns to live, and every
/// pair — including those queued on the wedged shard — completes
/// byte-identically. Zero acked-but-lost, no global stall.
#[test]
fn transient_wedge_is_restarted_and_the_shard_returns_to_live() {
    let _guard = registry_lock();
    // Each swallowed beat costs the wedged worker ~5 ms: 200 hits wedge
    // shard 0 for ~1 s, far beyond the ~40 ms detection budget below.
    failpoint::install(FailSchedule::new(5).rule(
        "shard.heartbeat",
        Some(0),
        Action::Error,
        1.0,
        Some(200),
    ));
    let h = shard_server(SupervisorConfig {
        interval: Duration::from_millis(5),
        // 5 ms x 8 = 40 ms stale window: stagnation is judged on the
        // frozen heartbeat alone, so the window must exceed the 20 ms
        // idle queue wait or a healthy idle shard reads as wedged.
        stale_intervals: 8,
        // A huge budget: the wedge re-wedges each fresh generation until
        // the hit limit runs dry, and that must never reach quarantine.
        max_restarts: 10_000,
    });
    let mut c = Client::connect(h.addr(), TIMEOUT).unwrap();
    c.hello("-", "acme", Priority::Normal, 0).unwrap();
    let pairs = chaos_pairs(24);
    let golden = golden_for(&pairs);
    for (i, (q, r)) in pairs.iter().enumerate() {
        c.send(&Request::Pair { id: i, query: q.clone(), reference: r.clone() }).unwrap();
    }
    let mut got = HashMap::new();
    for _ in 0..pairs.len() {
        match c.recv().unwrap().unwrap() {
            Response::Result { id, score, cigar, .. } => {
                got.insert(id, (score, cigar));
            }
            other => panic!("a wedged shard must not fail pairs, got {other:?}"),
        }
    }
    for (i, (score, cigar)) in golden.iter().enumerate() {
        assert_eq!(got[&i], (*score, cigar.clone()), "pair {i} must stay byte-identical");
    }
    // Let the supervisor observe the healed generation and lift the
    // degradation (it needs one fresh progress sample).
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let snaps = h.shard_snapshots();
        let wedged = &snaps[0];
        if wedged.state == "live" && wedged.restarts >= 1 {
            assert!(wedged.failovers >= 1, "recovery must be booked as a failover: {snaps:?}");
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "shard 0 never returned to live with a restart on the books: {snaps:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let report = h.drain();
    assert_eq!(report.totals.completed, pairs.len() as u64);
    assert_eq!(report.totals.failed, 0);
}

/// A permanent wedge must walk the full containment ladder — degraded,
/// restarted `max_restarts` times, then quarantined — while the healthy
/// shard keeps serving the whole fleet's traffic. Pairs stranded on the
/// quarantined queue fail typed with a resubmission hint, and the
/// resubmitted pairs complete byte-identically on the survivor.
#[test]
fn permanent_wedge_is_quarantined_and_the_fleet_keeps_serving() {
    let _guard = registry_lock();
    // No hit limit: the wedge never heals, so every respawned
    // generation re-wedges until the restart budget is spent.
    failpoint::install(FailSchedule::new(9).rule(
        "shard.heartbeat",
        Some(0),
        Action::Error,
        1.0,
        None,
    ));
    let h = shard_server(SupervisorConfig {
        interval: Duration::from_millis(5),
        // Same 40 ms window as the transient test: wide enough that the
        // healthy shard's idle beats (every <= 20 ms) never read stale.
        stale_intervals: 8,
        max_restarts: 1,
    });
    let mut c = Client::connect(h.addr(), TIMEOUT).unwrap();
    c.hello("-", "acme", Priority::Normal, 0).unwrap();
    let pairs = chaos_pairs(24);
    let golden = golden_for(&pairs);
    for (i, (q, r)) in pairs.iter().enumerate() {
        c.send(&Request::Pair { id: i, query: q.clone(), reference: r.clone() }).unwrap();
    }
    // Every pair resolves: RESULT, or a typed quarantine failure that
    // succeeds on resubmission (the survivor shard serves it).
    let mut got = HashMap::new();
    let mut outstanding = pairs.len();
    while outstanding > 0 {
        match c.recv().unwrap().unwrap() {
            Response::Result { id, score, cigar, .. } => {
                got.insert(id, (score, cigar));
                outstanding -= 1;
            }
            Response::Fail { id, detail, .. } => {
                assert!(
                    detail.contains("quarantined"),
                    "only the quarantine may fail pairs here: {detail}"
                );
                let (q, r) = &pairs[id];
                c.send(&Request::Pair { id, query: q.clone(), reference: r.clone() }).unwrap();
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }
    for (i, (score, cigar)) in golden.iter().enumerate() {
        assert_eq!(got[&i], (*score, cigar.clone()), "pair {i} must stay byte-identical");
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let snaps = h.shard_snapshots();
        if snaps[0].state == "quarantined" {
            assert!(
                snaps[0].restarts >= 2,
                "the budget (1) must be spent before quarantine: {snaps:?}"
            );
            assert_eq!(snaps[1].state, "live", "the survivor must stay live: {snaps:?}");
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "shard 0 never reached quarantine: {snaps:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    // The fleet still serves new traffic after losing a shard.
    let extra_base = pairs.len();
    for (i, (q, r)) in pairs.iter().enumerate() {
        c.send(&Request::Pair { id: extra_base + i, query: q.clone(), reference: r.clone() })
            .unwrap();
    }
    for _ in 0..pairs.len() {
        match c.recv().unwrap().unwrap() {
            Response::Result { id, score, cigar, .. } => {
                let (g_score, g_cigar) = &golden[id - extra_base];
                assert_eq!(
                    (score, cigar),
                    (*g_score, g_cigar.clone()),
                    "post-quarantine pair {id}"
                );
            }
            other => panic!("the survivor must serve new pairs, got {other:?}"),
        }
    }
    let report = h.drain();
    assert_eq!(report.per_shard.len(), 2);
    assert_eq!(report.per_shard[0].state, "quarantined");
}

/// A restart that fails after retiring the wedged generation leaves the
/// shard without workers. A retired worker that beats once more on its
/// way out (here: one held 250 ms in the `shard.heartbeat` delay) must
/// not make that shard look live: it stays degraded until a restart
/// really respawns it, and that one recovery books one failover.
#[test]
fn failed_restart_is_not_healed_by_a_retired_workers_late_beat() {
    let _guard = registry_lock();
    failpoint::install(
        FailSchedule::new(11)
            .rule("shard.heartbeat", Some(0), Action::Delay(250), 1.0, Some(1))
            .rule("shard.restart", Some(0), Action::Error, 1.0, Some(1)),
    );
    let h = shard_server(SupervisorConfig {
        interval: Duration::from_millis(20),
        stale_intervals: 4,
        max_restarts: 2,
    });
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let mut failed_restart_seen = false;
    loop {
        let snaps = h.shard_snapshots();
        let wedged = &snaps[0];
        assert!(
            !(wedged.state == "live" && wedged.restarts == 1),
            "the failed restart left shard 0 live without workers: {snaps:?}"
        );
        failed_restart_seen |= wedged.state == "degraded" && wedged.restarts == 1;
        if wedged.state == "live" && wedged.restarts >= 2 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "shard 0 never came back from the failed restart: {snaps:?}"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(failed_restart_seen, "shard 0 never sat degraded after its failed restart");
    // The respawned generation serves byte-identically.
    let mut c = Client::connect(h.addr(), TIMEOUT).unwrap();
    c.hello("-", "acme", Priority::Normal, 0).unwrap();
    let pairs = chaos_pairs(8);
    let golden = golden_for(&pairs);
    for (i, (q, r)) in pairs.iter().enumerate() {
        c.send(&Request::Pair { id: i, query: q.clone(), reference: r.clone() }).unwrap();
    }
    for _ in 0..pairs.len() {
        match c.recv().unwrap().unwrap() {
            Response::Result { id, score, cigar, .. } => {
                assert_eq!((score, cigar), golden[id].clone(), "pair {id}");
            }
            other => panic!("expected RESULT, got {other:?}"),
        }
    }
    let report = h.drain();
    let wedged = &report.per_shard[0];
    assert_eq!((wedged.state, wedged.restarts), ("live", 2), "{report:?}");
    assert_eq!(wedged.failovers, 1, "one real recovery, one failover: {report:?}");
}

/// The `shard.dispatch` failpoint fails the home-shard route of the
/// first pairs homed on shard 0. Those pairs spill to the sibling: their
/// RESULTs stay byte-identical, they are booked on the sibling's
/// `dispatched`, and nothing is rejected.
#[test]
fn failed_home_dispatch_spills_to_the_sibling_byte_identically() {
    let _guard = registry_lock();
    const SPILLED: u64 = 4;
    failpoint::install(FailSchedule::new(13).rule(
        "shard.dispatch",
        Some(0),
        Action::Error,
        1.0,
        Some(SPILLED),
    ));
    let h = shard_server(SupervisorConfig::default());
    let mut c = Client::connect(h.addr(), TIMEOUT).unwrap();
    c.hello("-", "acme", Priority::Normal, 0).unwrap();
    let pairs = chaos_pairs(24);
    let golden = golden_for(&pairs);
    for (i, (q, r)) in pairs.iter().enumerate() {
        c.send(&Request::Pair { id: i, query: q.clone(), reference: r.clone() }).unwrap();
    }
    for _ in 0..pairs.len() {
        match c.recv().unwrap().unwrap() {
            Response::Result { id, score, cigar, .. } => {
                assert_eq!(
                    (score, cigar),
                    golden[id].clone(),
                    "pair {id} must stay byte-identical"
                );
            }
            other => panic!("a spilled pair must be served, got {other:?}"),
        }
    }
    let homed = [failpoint::hits("shard.dispatch", 0), failpoint::hits("shard.dispatch", 1)];
    assert_eq!(homed[0] + homed[1], pairs.len() as u64, "one dispatch per pair");
    assert!(homed[0] > SPILLED, "some shard-0 pairs must spill and some stay: {homed:?}");
    let snaps = h.shard_snapshots();
    assert_eq!(snaps[0].dispatched, homed[0] - SPILLED, "{snaps:?}");
    assert_eq!(snaps[1].dispatched, homed[1] + SPILLED, "spills land on the sibling: {snaps:?}");
    let report = h.drain();
    assert_eq!((report.totals.completed, report.totals.rejected), (pairs.len() as u64, 0));
}

/// A pair whose checkpoint record fails is never acked, and it is booked
/// as failed everywhere: the drain totals, the tenant counters, the
/// session's `DONE` frame and the client's RESULT/FAIL frames all agree.
#[test]
fn failed_checkpoint_write_books_the_pair_failed_everywhere() {
    let _guard = registry_lock();
    let dir = std::env::temp_dir().join(format!("smx-chaos-ckpt-books-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    const ARMED: u64 = 3;
    failpoint::install(FailSchedule::new(3).rule(
        "ckpt.write",
        None,
        Action::Error,
        1.0,
        Some(ARMED),
    ));
    let dev = SmxDevice::new(AlignmentConfig::DnaEdit, 4).unwrap();
    let h = Server::bind(
        dev,
        ServerConfig {
            exec: ExecutorConfig { jobs: 2, ..ExecutorConfig::default() },
            checkpoint_dir: Some(dir.clone()),
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .unwrap();
    let mut c = Client::connect(h.addr(), TIMEOUT).unwrap();
    c.hello("books", "acme", Priority::Normal, 0).unwrap();
    let pairs = chaos_pairs(12);
    for (i, (q, r)) in pairs.iter().enumerate() {
        c.send(&Request::Pair { id: i, query: q.clone(), reference: r.clone() }).unwrap();
    }
    let (mut results, mut fails) = (0u64, 0u64);
    for _ in 0..pairs.len() {
        match c.recv().unwrap().unwrap() {
            Response::Result { .. } => results += 1,
            Response::Fail { detail, .. } => {
                assert!(detail.contains("checkpoint write failed"), "unexpected FAIL: {detail}");
                fails += 1;
            }
            other => panic!("expected RESULT or FAIL, got {other:?}"),
        }
    }
    assert_eq!(fails, ARMED, "every armed checkpoint write must fail its pair");
    match c.bye(|frame| panic!("expected DONE, got {frame:?}")).unwrap() {
        Response::Done { completed, failed, .. } => {
            assert_eq!((completed, failed), (results, fails), "DONE vs client frames");
        }
        other => panic!("expected DONE, got {other:?}"),
    }
    let report = h.drain();
    let tenants = report
        .per_tenant
        .iter()
        .fold((0, 0), |(done, failed), (_, t)| (done + t.completed, failed + t.failed));
    assert_eq!(
        (report.totals.completed, report.totals.failed),
        tenants,
        "drain totals vs tenant counters: {:?}",
        report.totals
    );
    assert_eq!(tenants, (results, fails), "tenant counters vs client frames");
    let _ = std::fs::remove_dir_all(&dir);
}
