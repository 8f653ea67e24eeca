//! **Chaos storm: seeded failpoint schedules against the full stack.**
//!
//! Peer of `server_storm`/`fault_storm`, but the faults live in the
//! *host* paths instead of the simulated device: checkpoint write/fsync,
//! the framed-TCP codec, pool dispatch, the session ack (see DESIGN.md
//! §10). Each run installs one seeded [`FailSchedule`], drives the full
//! serve→align→checkpoint→resume lifecycle through a reconnecting
//! client, and asserts the standing invariants:
//!
//! * every `RESULT` ever acked is byte-identical to a fault-free
//!   reference run of the same workload;
//! * zero acked-but-lost pairs across a mid-run crash (`kill -9`
//!   simulated in-process, and for real via a spawned `smx-cli serve`
//!   child killed by a pinned `kill=` failpoint);
//! * no deadlock — every run finishes under a watchdog;
//! * breaker/quarantine liveness — a device poisoned by the schedule is
//!   canary-readmitted once its faults stop;
//! * shard failover — `shard.heartbeat` wedge schedules against a
//!   2-shard fleet must be detected by the supervisor within its stale
//!   window and contained (restart or quarantine) while the surviving
//!   shard keeps acking byte-identical RESULTs with bounded
//!   time-to-ack; `kill=shard.heartbeat` schedules crash a real
//!   `smx-cli serve --shards 2` child and assert zero acked-but-lost
//!   across the resume.
//!
//! A failing seed is greedily shrunk (drop one injection at a time) to a
//! minimal schedule and reported with a one-line replay command; replay
//! it with `--replay '<schedule>'`. Writes `BENCH_chaos.json`. Quick
//! mode (`SMX_BENCH_QUICK=1`) shrinks the seed count for CI.
//!
//! Requires `--features failpoints`; without it this binary is a stub
//! that explains how to rebuild (a fault-free "chaos" run would pass
//! vacuously).

#[cfg(not(feature = "failpoints"))]
fn main() {
    eprintln!(
        "chaos_storm needs armed failpoints; rebuild with\n  cargo run --release -p smx-bench \
         --features failpoints --bin chaos_storm"
    );
    std::process::exit(2);
}

#[cfg(feature = "failpoints")]
fn main() {
    armed::main()
}

#[cfg(feature = "failpoints")]
mod armed {
    use std::collections::{HashMap, HashSet};
    use std::io::Write as _;
    use std::time::Duration;

    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use smx::failpoint::{self, Action, FailSchedule};
    use smx::prelude::*;
    use smx::server::proto::{ProtoError, Request, Response};
    use smx::server::tenant::{Priority, TenantPolicy};
    use smx::service::ServiceStats;
    use smx::{
        Client, RetryConfig, Server, ServerConfig, ServerHandle, ShardSnapshot, SmxDevice,
        SupervisorConfig,
    };
    use smx_bench::{header, make_pair, percentile, quick_mode, scaled, storm_device};

    const CONFIG: AlignmentConfig = AlignmentConfig::DnaEdit;
    const PAIR_LEN: usize = 64;
    /// Rounds of submit→read a schedule run may take before the harness
    /// declares it stuck (every schedule's rules are hit-limited, so a
    /// healthy stack always converges long before this).
    const MAX_ROUNDS: usize = 60;

    /// Exits with a message instead of panicking: the harness is held to
    /// the same panic-freedom lint zone as the code it attacks.
    fn must<T, E: std::fmt::Display>(r: Result<T, E>, what: &str) -> T {
        match r {
            Ok(v) => v,
            Err(e) => {
                eprintln!("chaos_storm: {what}: {e}");
                std::process::exit(1);
            }
        }
    }

    fn must_some<T>(o: Option<T>, what: &str) -> T {
        match o {
            Some(v) => v,
            None => {
                eprintln!("chaos_storm: {what}");
                std::process::exit(1);
            }
        }
    }

    /// Aborts the whole harness if a run outlives `secs` — the
    /// no-deadlock invariant. Dropping the guard disarms it.
    struct Watchdog {
        _tx: std::sync::mpsc::Sender<()>,
    }

    fn watchdog(label: String, secs: u64) -> Watchdog {
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        std::thread::spawn(move || {
            if rx.recv_timeout(Duration::from_secs(secs))
                == Err(std::sync::mpsc::RecvTimeoutError::Timeout)
            {
                eprintln!("chaos_storm: WATCHDOG: {label} still running after {secs}s — deadlock");
                std::process::exit(1);
            }
        });
        Watchdog { _tx: tx }
    }

    fn chaos_server(dir: &std::path::Path, resume: bool) -> ServerHandle {
        let cfg = ServerConfig {
            exec: ExecutorConfig {
                jobs: 2,
                // Must exceed the full-mode workload (48 pairs all
                // submitted in one round): a QueueFull reject would be
                // legitimate backpressure, and the harness treats every
                // reject as a violation.
                queue_cap: 128,
                breaker: Some(BreakerConfig::default()),
                quarantine: Some(QuarantineConfig::default()),
                ..ExecutorConfig::default()
            },
            // Admission generosity: every reject in a chaos run should
            // come from an injected fault path, not the token bucket.
            policy: TenantPolicy { rate: 1e6, burst: 1e6 },
            retry: RetryConfig::default(),
            checkpoint_dir: Some(dir.to_path_buf()),
            resume_sessions: resume,
            ..ServerConfig::default()
        };
        must(Server::bind(must(storm_device(CONFIG), "device"), cfg, "127.0.0.1:0"), "bind")
    }

    /// The shared workload every schedule runs, and its fault-free
    /// golden outcome (computed on a clean device, no fault plan).
    fn build_workload(pairs: usize) -> (Vec<Request>, Vec<(i32, String)>) {
        let mut rng = StdRng::seed_from_u64(7);
        let workload: Vec<Request> =
            (0..pairs).map(|id| make_pair(&mut rng, id, PAIR_LEN)).collect();
        let mut clean = must(SmxDevice::new(CONFIG, 2), "reference device");
        let mut reference = Vec::with_capacity(pairs);
        for req in &workload {
            let Request::Pair { query, reference: r, .. } = req else { continue };
            let q = must(Sequence::from_text(Alphabet::Dna2, query), "query seq");
            let r = must(Sequence::from_text(Alphabet::Dna2, r), "reference seq");
            let a = must(clean.align(&q, &r), "reference align");
            reference.push((a.score, a.cigar.to_string()));
        }
        (workload, reference)
    }

    /// Deterministic seed → schedule: 2–4 hit-limited rules drawn from
    /// the site menu. Every rule carries a limit, so faults always stop
    /// and a correct stack always converges.
    fn schedule_for(seed: u64) -> FailSchedule {
        let mut x = seed;
        let mut next = move || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        const MENU: [(&str, Action); 8] = [
            ("ckpt.fsync", Action::Error),
            ("ckpt.write", Action::Partial),
            ("proto.write_frame", Action::Partial),
            ("proto.write_frame", Action::Error),
            ("proto.read_frame", Action::Partial),
            ("session.ack", Action::Error),
            ("pool.dispatch", Action::Error),
            ("proto.write_frame", Action::Delay(3)),
        ];
        let mut s = FailSchedule::new(seed);
        let count = 2 + (next() % 3) as usize;
        let mut picked: Vec<usize> = Vec::new();
        while picked.len() < count {
            let i = (next() % MENU.len() as u64) as usize;
            if picked.contains(&i) {
                continue;
            }
            picked.push(i);
            let (site, action) = must_some(MENU.get(i).copied(), "menu index");
            let rate = 0.02 + (next() % 12) as f64 * 0.01;
            let limit = 8 + next() % 25;
            s = s.rule(site, None, action, rate, Some(limit));
        }
        s
    }

    /// One client round: opens `session`, submits `pairs`, sends BYE and
    /// hands each reply to `each` as it arrives, until DONE or the
    /// connection ends. The open retries: the HELLO exchange itself runs
    /// through the proto failpoints, and a just-dropped predecessor
    /// connection may still hold the session busy for a beat. A failed
    /// submit ends the submission, not the round: the pairs already sent
    /// still get their replies. Short timeouts make an injected dead
    /// connection end the round, never hang it. Returns whether a
    /// session opened.
    fn round<'a>(
        addr: std::net::SocketAddr,
        session: &str,
        pairs: impl IntoIterator<Item = &'a Request>,
        each: impl FnMut(Response),
    ) -> bool {
        let timeout = Duration::from_secs(2);
        let open = || -> Result<Client, ProtoError> {
            let mut client = Client::connect(addr, timeout)?;
            client.hello(session, "chaos", Priority::Normal, 0)?;
            Ok(client)
        };
        let opened = (0..40)
            .find_map(|_| open().map_err(|_| std::thread::sleep(Duration::from_millis(25))).ok());
        let Some(mut client) = opened else { return false };
        for req in pairs {
            if client.send(req).is_err() {
                break;
            }
        }
        // A round that ends on a connection error is a chaos outcome:
        // its unacked pairs stay pending for the next round.
        let _ = client.bye(each);
        true
    }

    struct RunSummary {
        rounds: usize,
        crashed: bool,
    }

    /// Drives the whole workload through a server living under
    /// `schedule` until every pair is acked, reconnecting through
    /// injected connection deaths; `crash_mid` kills the server
    /// in-process after the first acks and restarts it with resume.
    ///
    /// Returns `Err(violation)` when a standing invariant breaks.
    fn run_schedule(
        schedule: &FailSchedule,
        crash_mid: bool,
        workload: &[Request],
        reference: &[(i32, String)],
        tag: &str,
    ) -> Result<RunSummary, String> {
        let dir = std::env::temp_dir().join(format!("smx-chaos-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        if let Err(e) = std::fs::create_dir_all(&dir) {
            return Err(format!("harness: mkdir {}: {e}", dir.display()));
        }
        failpoint::install(schedule.clone());
        let finish = |r: Result<RunSummary, String>| {
            failpoint::clear();
            let _ = std::fs::remove_dir_all(&dir);
            r
        };

        let mut handle = Some(chaos_server(&dir, false));
        let mut addr = must_some(handle.as_ref(), "live handle").addr();
        // Byte-identity is checked against `reference` on every RESULT,
        // so re-acks are transitively identical too.
        let mut acked: HashSet<usize> = HashSet::new();
        let mut acked_before_crash: HashSet<usize> = HashSet::new();
        let mut crashed = false;
        let mut resubmit_all = false;
        let mut rounds = 0usize;

        // Wedge detection is stagnation-based: with limited schedules the
        // faults eventually stop firing, so a healthy server acks *some*
        // pending pair every few rounds. Consecutive ack-less rounds mean
        // the server can no longer make progress (e.g. a permanently
        // unopenable session); bail fast so the shrinker stays cheap.
        const STALE_ROUNDS: usize = 8;
        let mut stale = 0usize;
        while acked.len() < workload.len() {
            rounds += 1;
            if stale >= STALE_ROUNDS || rounds > MAX_ROUNDS {
                return finish(Err(format!(
                    "no progress: {}/{} pairs acked after {rounds} rounds \
                     ({stale} consecutive rounds without a new ack)",
                    acked.len(),
                    workload.len()
                )));
            }
            let acked_at_round_start = acked.len();
            if crash_mid && !crashed && !acked.is_empty() {
                // Simulated kill -9: cancel in-flight work, drop every
                // socket, restart over the same checkpoint dir. All
                // previously acked pairs must now replay from the
                // manifest — recomputing one means its fsynced record
                // was lost.
                crashed = true;
                acked_before_crash = acked.clone();
                if let Some(h) = handle.take() {
                    h.crash();
                }
                handle = Some(chaos_server(&dir, true));
                addr = must_some(handle.as_ref(), "live handle").addr();
                resubmit_all = true;
            }
            // A crash run must actually crash with acks at stake: hold
            // back half the workload until the kill has fired, so the run
            // can never complete in a single pre-crash round.
            let cap = if crash_mid && !crashed { workload.len() / 2 } else { workload.len() };
            let pending: Vec<&Request> = workload
                .iter()
                .filter(|req| {
                    resubmit_all || !matches!(req, Request::Pair { id, .. } if acked.contains(id))
                })
                .take(cap)
                .collect();
            // The first violation ends the run once the round is read.
            let mut violation = None;
            let opened = round(addr, "chaos", pending, |frame| match frame {
                _ if violation.is_some() => {}
                Response::Result { id, score, cigar, resumed } => {
                    violation = match reference.get(id) {
                        None => Some(format!("RESULT for unknown pair {id}")),
                        Some((want_score, want_cigar))
                            if score != *want_score || cigar != *want_cigar =>
                        {
                            Some(format!(
                                "pair {id} diverged from fault-free reference: got \
                                 {score}/{cigar}, want {want_score}/{want_cigar}"
                            ))
                        }
                        Some(_) if crashed && !resumed && acked_before_crash.contains(&id) => {
                            Some(format!(
                                "acked-but-lost: pair {id} was acked before the crash but \
                                 recomputed (not replayed) after resume"
                            ))
                        }
                        Some(_) => {
                            acked.insert(id);
                            None
                        }
                    };
                }
                Response::Reject { id, reason, .. } => {
                    violation = Some(format!(
                        "unexpected REJECT for pair {id} ({reason:?}) under a generous \
                         admission policy"
                    ));
                }
                // Typed FAILs are legitimate chaos outcomes (e.g.
                // "checkpoint write failed"); the pair stays pending and
                // is resubmitted next round.
                _ => {}
            });
            if let Some(v) = violation {
                return finish(Err(v));
            }
            if !opened {
                continue;
            }
            resubmit_all = false;
            stale = if acked.len() > acked_at_round_start { 0 } else { stale + 1 };
        }
        if let Some(h) = handle.take() {
            h.drain();
        }
        finish(Ok(RunSummary { rounds, crashed }))
    }

    /// Greedy schedule shrink: repeatedly drop the first single rule or
    /// kill whose removal still reproduces the failure, to a local
    /// minimum. `failing` returns true when the candidate still fails.
    fn shrink(
        schedule: &FailSchedule,
        failing: &mut dyn FnMut(&FailSchedule) -> bool,
    ) -> FailSchedule {
        let mut cur = schedule.clone();
        loop {
            let mut improved = false;
            for i in 0..cur.rules.len() {
                let mut cand = cur.clone();
                cand.rules.remove(i);
                if failing(&cand) {
                    cur = cand;
                    improved = true;
                    break;
                }
            }
            if improved {
                continue;
            }
            for i in 0..cur.kills.len() {
                let mut cand = cur.clone();
                cand.kills.remove(i);
                if failing(&cand) {
                    cur = cand;
                    improved = true;
                    break;
                }
            }
            if !improved {
                return cur;
            }
        }
    }

    fn replay_command(schedule: &FailSchedule) -> String {
        format!(
            "cargo run --release -p smx-bench --features failpoints --bin chaos_storm -- \
             --replay '{schedule}'"
        )
    }

    /// The shrinker must find the exact minimal failing core, not just
    /// some smaller schedule — proven here against a synthetic predicate
    /// before any real shrink is trusted.
    fn shrink_self_test() {
        let fat = FailSchedule::new(1)
            .rule("ckpt.fsync", None, Action::Error, 0.5, Some(10))
            .rule("proto.write_frame", None, Action::Partial, 0.5, Some(10))
            .rule("pool.dispatch", Some(1), Action::Error, 0.5, Some(10))
            .kill_at("session.ack", None, 3)
            .kill_at("ckpt.write", None, 9);
        let mut evals = 0usize;
        let mut failing = |s: &FailSchedule| {
            evals += 1;
            s.rules.iter().any(|r| r.site == "proto.write_frame")
                && s.kills.iter().any(|k| k.site == "session.ack")
        };
        let min = shrink(&fat, &mut failing);
        assert_eq!(min.rules.len(), 1, "shrunk to one rule: {min}");
        assert_eq!(min.kills.len(), 1, "shrunk to one kill: {min}");
        assert!(
            min.rules.iter().any(|r| r.site == "proto.write_frame")
                && min.kills.iter().any(|k| k.site == "session.ack"),
            "shrink kept the failing core: {min}"
        );
        println!("shrinker self-test: 5 injections -> minimal 2-injection core ({evals} evals)");
    }

    /// Breaker/quarantine liveness under a schedule-driven poison: lane
    /// 1 of the pool fails every dispatch for a bounded burst, then
    /// heals; the quarantine ladder must readmit it through canaries.
    fn quarantine_liveness_phase(quick: bool) -> ServiceStats {
        let _wd = watchdog("quarantine liveness phase".to_string(), 120);
        failpoint::install(FailSchedule::new(5).rule(
            "pool.dispatch",
            Some(1),
            Action::Error,
            1.0,
            Some(30),
        ));
        let exec = must(
            BatchExecutor::new(
                must(storm_device(CONFIG), "device"),
                ExecutorConfig {
                    jobs: 2,
                    queue_cap: 32,
                    devices: 3,
                    breaker: Some(BreakerConfig::default()),
                    quarantine: Some(QuarantineConfig::default()),
                    ..ExecutorConfig::default()
                },
            ),
            "executor",
        );
        let count = if quick { 300 } else { 600 };
        let mut rng = StdRng::seed_from_u64(11);
        let pairs: Vec<(Sequence, Sequence)> = (0..count)
            .map(|id| {
                let Request::Pair { query, reference, .. } = make_pair(&mut rng, id, PAIR_LEN)
                else {
                    return must(Err::<(Sequence, Sequence), &str>("not a pair"), "workload");
                };
                (
                    must(Sequence::from_text(Alphabet::Dna2, &query), "q"),
                    must(Sequence::from_text(Alphabet::Dna2, &reference), "r"),
                )
            })
            .collect();
        // A device fault fails that pair in the batch report by design
        // (the server layer retries via client resubmission), so drive
        // the executor the same way: re-run failed pairs in rounds. The
        // liveness claim is that the faults stop (hit limit 30), the
        // quarantined lane is canary-readmitted, and a bounded number of
        // retry rounds reaches a clean pass.
        let mut readmissions = 0u64;
        let mut pending: Vec<(Sequence, Sequence)> = pairs;
        let mut rounds = 0usize;
        let mut stats = loop {
            rounds += 1;
            let report = exec.run(&pending);
            readmissions += report.stats.readmissions;
            let failed: Vec<(Sequence, Sequence)> =
                report.failures().iter().map(|f| pending[f.index].clone()).collect();
            if failed.is_empty() {
                break report.stats;
            }
            assert!(
                rounds < 6,
                "poisoned-lane batch never reached a clean pass: {} pair(s) still failing \
                 after {rounds} rounds ({:?})",
                failed.len(),
                report.stats
            );
            pending = failed;
        };
        stats.readmissions = readmissions;
        failpoint::clear();
        assert!(
            stats.readmissions >= 1,
            "device poisoned by the schedule was never canary-readmitted after its faults \
             stopped: {stats:?}"
        );
        println!(
            "quarantine liveness: lane 1 poisoned for 30 dispatches over {count} pairs -> \
             {} readmission(s), all pairs completed in {rounds} round(s)",
            stats.readmissions
        );
        stats
    }

    /// Sharded fleet for the shard phases: two fault domains of two
    /// workers each over a split device pool, a fast supervisor (5 ms
    /// samples, 40 ms stale window — judged on the frozen heartbeat
    /// alone, so the window must exceed the 20 ms idle queue wait), and
    /// the same generous admission as the schedule runs.
    fn shard_server(supervisor: SupervisorConfig) -> ServerHandle {
        let cfg = ServerConfig {
            exec: ExecutorConfig {
                jobs: 4,
                queue_cap: 128,
                breaker: Some(BreakerConfig::default()),
                quarantine: Some(QuarantineConfig::default()),
                ..ExecutorConfig::default()
            },
            policy: TenantPolicy { rate: 1e6, burst: 1e6 },
            retry: RetryConfig::default(),
            shards: 2,
            supervisor,
            ..ServerConfig::default()
        };
        must(Server::bind(must(storm_device(CONFIG), "device"), cfg, "127.0.0.1:0"), "bind sharded")
    }

    fn fast_supervisor(max_restarts: u32) -> SupervisorConfig {
        SupervisorConfig { interval: Duration::from_millis(5), stale_intervals: 8, max_restarts }
    }

    /// Drives `workload` through a sharded server until every pair is
    /// acked, resubmitting typed FAILs (a quarantined shard's stranded
    /// pairs fail with a resubmission hint), and returns the sorted
    /// time-to-ack distribution in milliseconds measured from the first
    /// round — the "no global stall" metric.
    fn drive_sharded(
        addr: std::net::SocketAddr,
        session: &str,
        workload: &[Request],
        reference: &[(i32, String)],
        tag: &str,
    ) -> Vec<f64> {
        let mut acked: HashSet<usize> = HashSet::new();
        let mut lat_ms: Vec<f64> = Vec::new();
        let t0 = std::time::Instant::now();
        let mut rounds = 0usize;
        while acked.len() < workload.len() {
            rounds += 1;
            assert!(
                rounds <= MAX_ROUNDS,
                "{tag}: no progress — {}/{} pairs acked after {rounds} rounds",
                acked.len(),
                workload.len()
            );
            let pending: Vec<&Request> = workload
                .iter()
                .filter(|req| !matches!(req, Request::Pair { id, .. } if acked.contains(id)))
                .collect();
            // Stranded-on-a-dead-shard pairs fail typed and are
            // resubmitted next round; anything else mid-failover stays
            // pending the same way.
            round(addr, session, pending, |frame| {
                if let Response::Result { id, score, cigar, .. } = frame {
                    check_reference(id, score, &cigar, reference, tag);
                    if acked.insert(id) {
                        lat_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                    }
                }
            });
        }
        lat_ms.sort_by(f64::total_cmp);
        lat_ms
    }

    /// Aggregates the shard phases report into `BENCH_chaos.json`.
    struct ShardPhaseStats {
        wedge_runs: usize,
        failovers: u64,
        failover_ms_max: u64,
        time_to_ack_p99_ms: f64,
        wedge_per_shard: Vec<ShardSnapshot>,
        quarantine_per_shard: Vec<ShardSnapshot>,
    }

    /// In-process shard-failover runs: seeded `shard.heartbeat` wedges
    /// pin shard 0 (every swallowed beat costs its worker ~5 ms) while
    /// the whole workload is in flight. The supervisor must detect the
    /// frozen heartbeat within its stale window and restart the shard —
    /// booking a failover with its duration — while the surviving shard
    /// and work stealing keep every pair moving: byte-identical RESULTs
    /// and a bounded time-to-ack p99, no global stall.
    fn shard_wedge_phase(
        seeds: &[u64],
        workload: &[Request],
        reference: &[(i32, String)],
    ) -> ShardPhaseStats {
        let mut stats = ShardPhaseStats {
            wedge_runs: seeds.len(),
            failovers: 0,
            failover_ms_max: 0,
            time_to_ack_p99_ms: 0.0,
            wedge_per_shard: Vec::new(),
            quarantine_per_shard: Vec::new(),
        };
        for &seed in seeds {
            let _wd = watchdog(format!("shard wedge seed {seed}"), 120);
            // The hit limit sets the wedge length: 120-200 swallowed
            // beats pin shard 0 for 0.6-1.0 s, far beyond the 40 ms
            // detection window.
            let limit = 120 + seed % 80;
            failpoint::install(FailSchedule::new(seed).rule(
                "shard.heartbeat",
                Some(0),
                Action::Error,
                1.0,
                Some(limit),
            ));
            let handle = shard_server(fast_supervisor(10_000));
            let lat_ms = drive_sharded(
                handle.addr(),
                "wedge",
                workload,
                reference,
                &format!("shard wedge seed {seed}"),
            );
            let p99 = percentile(&lat_ms, 0.99);
            assert!(
                p99 < 5_000.0,
                "shard wedge seed {seed}: fleet stalled — time-to-ack p99 {p99:.0} ms"
            );
            // The supervisor must have walked the ladder and brought the
            // shard home: live again with a restart and failover booked.
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            loop {
                let snaps = handle.shard_snapshots();
                let wedged = must_some(snaps.first(), "shard snapshot").clone();
                if wedged.state == "live" && wedged.restarts >= 1 {
                    assert!(
                        wedged.failovers >= 1,
                        "recovery must be booked as a failover: {snaps:?}"
                    );
                    stats.failovers += wedged.failovers;
                    stats.failover_ms_max = stats.failover_ms_max.max(wedged.last_failover_ms);
                    break;
                }
                assert!(
                    std::time::Instant::now() < deadline,
                    "shard wedge seed {seed}: shard 0 never failed over: {snaps:?}"
                );
                std::thread::sleep(Duration::from_millis(10));
            }
            let report = handle.drain();
            assert_eq!(
                report.totals.failed, 0,
                "a transient wedge must not fail pairs (seed {seed}): {:?}",
                report.totals
            );
            stats.wedge_per_shard = report.per_shard;
            stats.time_to_ack_p99_ms = stats.time_to_ack_p99_ms.max(p99);
            failpoint::clear();
            println!(
                "shard wedge seed {seed}: {limit} swallowed beats contained in {} failover(s) \
                 (last {} ms), {} pairs byte-identical, time-to-ack p99 {p99:.0} ms",
                stats.failovers,
                stats.failover_ms_max,
                workload.len()
            );
        }
        stats
    }

    /// Permanent-wedge containment: an unlimited `shard.heartbeat`
    /// schedule never lets shard 0 heal, so the ladder must end in
    /// quarantine — restart budget spent, capacity re-advertised — while
    /// the surviving shard serves the entire workload byte-identically,
    /// both during the march and after the quarantine settles.
    fn shard_quarantine_run(
        workload: &[Request],
        reference: &[(i32, String)],
    ) -> Vec<ShardSnapshot> {
        let _wd = watchdog("shard quarantine run".to_string(), 120);
        failpoint::install(FailSchedule::new(9).rule(
            "shard.heartbeat",
            Some(0),
            Action::Error,
            1.0,
            None,
        ));
        let handle = shard_server(fast_supervisor(1));
        let addr = handle.addr();
        drive_sharded(addr, "qwedge", workload, reference, "shard quarantine (during march)");
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let snaps = handle.shard_snapshots();
            let wedged = must_some(snaps.first(), "shard snapshot").clone();
            if wedged.state == "quarantined" {
                let survivor = must_some(snaps.get(1), "survivor snapshot");
                assert_eq!(
                    survivor.state, "live",
                    "the healthy shard must ride out the quarantine: {snaps:?}"
                );
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "shard 0 never reached quarantine: {snaps:?}"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        // Post-quarantine the fleet runs on the survivor alone: the same
        // workload must still come back byte-identical.
        drive_sharded(addr, "qwedge2", workload, reference, "shard quarantine (after)");
        let report = handle.drain();
        let gone = must_some(report.per_shard.first(), "per-shard drain");
        assert_eq!(gone.state, "quarantined", "drain must report the quarantine: {report:?}");
        failpoint::clear();
        println!(
            "shard quarantine: permanent wedge contained after {} restart(s), survivor served \
             {} pairs post-quarantine",
            gone.restarts,
            workload.len()
        );
        report.per_shard
    }

    /// Real-process kill runs: spawn `smx-cli serve` (with `extra` args,
    /// e.g. `--shards 2`) under a pinned `kill=<site>:<hit>` schedule in
    /// `SMX_FAILPOINTS`, watch it die mid-serve, restart with
    /// `--resume-sessions`, and assert every pre-kill ack replays
    /// byte-identically (`resumed=true`). The hit count is drawn from
    /// `hit_base + seed % hit_span`: ack-paced sites (`session.ack`) use
    /// single-digit hits, while free-running sites (`shard.heartbeat`
    /// beats on every worker loop) need a few hundred so the first
    /// workload round lands acks before the process dies.
    ///
    /// Returns the number of kill runs executed, or a violation when the
    /// phase cannot run: no failpoint-armed CLI binary next to this
    /// harness (CI builds it first). A skipped kill phase proves nothing,
    /// so it must not pass.
    fn kill_process_phase(
        seeds: &[u64],
        workload: &[Request],
        reference: &[(i32, String)],
        site: &str,
        hit_base: u64,
        hit_span: u64,
        extra: &[&str],
    ) -> Result<usize, String> {
        const BUILD: &str = "cargo build --release -p smx-cli -p smx-bench --features \
                             smx-cli/failpoints,smx-bench/failpoints";
        failpoint::clear(); // only the child gets injections
        let Some(cli) = std::env::current_exe()
            .ok()
            .and_then(|p| p.parent().map(|d| d.join("smx-cli")))
            .filter(|p| p.exists())
        else {
            return Err(format!(
                "kill phase ({site}) skipped: no smx-cli next to this harness; run `{BUILD}` first"
            ));
        };
        for &seed in seeds {
            let hit = hit_base + seed % hit_span;
            let schedule = FailSchedule::new(seed).kill_at(site, None, hit);
            let _wd = watchdog(format!("kill run {site} seed {seed}"), 120);
            let dir =
                std::env::temp_dir().join(format!("smx-chaos-kill-{}-{seed}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            must(std::fs::create_dir_all(&dir), "mkdir kill dir");

            let (mut child, addr, banner) = spawn_serve(&cli, &dir, Some(&schedule), extra);
            if !banner.contains("# failpoints:") {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!(
                    "kill phase ({site}) skipped: the child never confirmed its schedule (got \
                     {banner:?}), so smx-cli has no armed failpoints; run `{BUILD}` first"
                ));
            }
            // Drive rounds until the pinned kill fells the child. Later
            // rounds replay completed pairs from the manifest (no worker
            // involved), so a free-running site accrues hits on idle
            // beats alone — bound the wait by wall clock, not rounds.
            let mut acked: HashSet<usize> = HashSet::new();
            let kill_deadline = std::time::Instant::now() + Duration::from_secs(60);
            loop {
                assert!(
                    std::time::Instant::now() < kill_deadline,
                    "child outlived kill={site}:{hit} for 60 s (seed {seed})"
                );
                round(addr, "kchaos", workload, |frame| {
                    if let Response::Result { id, score, cigar, .. } = frame {
                        check_reference(id, score, &cigar, reference, "pre-kill");
                        acked.insert(id);
                    }
                });
                if must(child.try_wait(), "poll killed child").is_some() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(25));
            }
            let status = must(child.wait(), "wait killed child");
            assert!(
                !status.success(),
                "child exited cleanly despite kill={site}:{hit} (status {status})"
            );
            assert!(!acked.is_empty(), "no pair was acked before the pinned kill={site}:{hit}");

            // Restart without injections; every pre-kill ack must come
            // back replayed from the manifest, byte-identical.
            let (mut child, addr, _) = spawn_serve(&cli, &dir, None, extra);
            let mut replayed: HashMap<usize, bool> = HashMap::new();
            let mut rounds = 0usize;
            while replayed.len() < workload.len() && rounds < MAX_ROUNDS {
                rounds += 1;
                round(addr, "kchaos", workload, |frame| {
                    if let Response::Result { id, score, cigar, resumed } = frame {
                        check_reference(id, score, &cigar, reference, "post-kill");
                        replayed.insert(id, resumed);
                    }
                });
            }
            let mut lost = 0usize;
            for id in &acked {
                match replayed.get(id) {
                    Some(true) => {}
                    _ => lost += 1,
                }
            }
            assert_eq!(
                lost, 0,
                "{lost} acked pair(s) were not replayed from the manifest after the kill \
                 (seed {seed}); replay: SMX_FAILPOINTS='{schedule}' smx-cli serve ..."
            );
            assert_eq!(replayed.len(), workload.len(), "resume run did not finish (seed {seed})");
            let _ = child.kill();
            let _ = child.wait();
            let _ = std::fs::remove_dir_all(&dir);
            println!(
                "kill run seed {seed}: killed at {site} hit {hit} with {} acks, all \
                 replayed byte-identically after resume, 0 acked-but-lost",
                acked.len()
            );
        }
        Ok(seeds.len())
    }

    fn check_reference(
        id: usize,
        score: i32,
        cigar: &str,
        reference: &[(i32, String)],
        when: &str,
    ) {
        let (want_score, want_cigar) = must_some(reference.get(id), "reference index");
        assert!(
            score == *want_score && cigar == want_cigar,
            "{when}: pair {id} diverged: got {score}/{cigar}, want {want_score}/{want_cigar}"
        );
    }

    /// Spawns `smx-cli serve` over `dir`, optionally with a schedule in
    /// the environment; returns the child, its bound address, and
    /// whatever stderr banner lines arrived before "listening".
    fn spawn_serve(
        cli: &std::path::Path,
        dir: &std::path::Path,
        schedule: Option<&FailSchedule>,
        extra: &[&str],
    ) -> (std::process::Child, std::net::SocketAddr, String) {
        let mut cmd = std::process::Command::new(cli);
        cmd.args([
            "serve",
            "--config",
            "dna-edit",
            "--port",
            "0",
            "--jobs",
            "2",
            "--checkpoint-dir",
        ])
        .arg(dir)
        .args(extra)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped());
        match schedule {
            Some(s) => {
                cmd.env(failpoint::ENV_VAR, s.to_string());
            }
            None => {
                cmd.arg("--resume-sessions");
                cmd.env_remove(failpoint::ENV_VAR);
            }
        }
        let mut child = must(cmd.spawn(), "spawn smx-cli serve");
        let stderr = must_some(child.stderr.take(), "child stderr");
        let banner_rx = {
            let (tx, rx) = std::sync::mpsc::channel::<String>();
            std::thread::spawn(move || {
                use std::io::BufRead as _;
                let mut banner = String::new();
                for line in std::io::BufReader::new(stderr).lines() {
                    let Ok(line) = line else { break };
                    if line.starts_with("# failpoints:") {
                        banner = line.clone();
                    }
                    let _ = tx.send(banner.clone());
                }
            });
            rx
        };
        let stdout = must_some(child.stdout.take(), "child stdout");
        let mut addr: Option<std::net::SocketAddr> = None;
        {
            use std::io::BufRead as _;
            for line in std::io::BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if let Some(rest) = line.strip_prefix("listening on ") {
                    addr = rest.trim().parse().ok();
                    break;
                }
            }
        }
        let addr = must_some(
            addr,
            "child never printed its address (a feature-off smx-cli refuses SMX_FAILPOINTS; \
             rebuild it with --features smx-cli/failpoints)",
        );
        // Give the stderr thread a beat to surface the banner.
        let mut banner = String::new();
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while std::time::Instant::now() < deadline {
            match banner_rx.try_recv() {
                Ok(b) if !b.is_empty() => {
                    banner = b;
                    break;
                }
                _ if schedule.is_none() => break,
                _ => std::thread::sleep(Duration::from_millis(20)),
            }
        }
        (child, addr, banner)
    }

    pub fn main() {
        let args: Vec<String> = std::env::args().collect();
        let quick = quick_mode();
        let pairs = scaled(48, 24);
        let (workload, reference) = build_workload(pairs);

        // Replay mode: one schedule, straight from a failure report.
        if args.get(1).map(String::as_str) == Some("--replay") {
            let text = must_some(args.get(2), "--replay needs a schedule string");
            let schedule = must(FailSchedule::parse(text), "parse replay schedule");
            let crash_mid = schedule.seed % 4 == 3;
            let _wd = watchdog(format!("replay {schedule}"), 120);
            match run_schedule(&schedule, crash_mid, &workload, &reference, "replay") {
                Ok(s) => {
                    println!(
                        "replay {schedule}: PASS ({} rounds, crashed={})",
                        s.rounds, s.crashed
                    );
                }
                Err(v) => {
                    eprintln!("replay {schedule}: VIOLATION: {v}");
                    std::process::exit(1);
                }
            }
            return;
        }

        let seed_base: u64 =
            std::env::var("SMX_CHAOS_SEED").ok().and_then(|v| v.parse().ok()).unwrap_or(42);
        let seeds = scaled(32, 8);
        let kill_seeds: Vec<u64> =
            (0..scaled(4, 2) as u64).map(|i| seed_base ^ 0xdead ^ i).collect();
        let shard_seeds: Vec<u64> =
            (0..scaled(3, 2) as u64).map(|i| seed_base ^ 0x5a5a ^ i).collect();
        let shard_kill_seeds: Vec<u64> =
            (0..scaled(2, 1) as u64).map(|i| seed_base ^ 0xbeef ^ i).collect();

        header(&format!(
            "chaos storm: {CONFIG}, {pairs} pairs/run, {seeds} seeded schedules (base \
             {seed_base}), device faults on underneath"
        ));
        println!("replay any seed with: SMX_CHAOS_SEED={seed_base} ... or a single schedule via");
        println!("  {}", replay_command(&schedule_for(seed_base)));

        shrink_self_test();

        let mut violations: Vec<(FailSchedule, String)> = Vec::new();
        let mut crash_runs = 0usize;
        let mut total_rounds = 0usize;
        for i in 0..seeds as u64 {
            let seed = seed_base.wrapping_add(i);
            let schedule = schedule_for(seed);
            let crash_mid = seed % 4 == 3;
            // The per-seed watchdog is scoped to the single run; the
            // shrinker below re-runs many candidates (each failing one
            // takes STALE_ROUNDS of read-timeouts) and gets its own,
            // longer watchdog.
            let outcome = {
                let _wd = watchdog(format!("seed {seed} ({schedule})"), 120);
                run_schedule(&schedule, crash_mid, &workload, &reference, &format!("s{seed}"))
            };
            match outcome {
                Ok(s) => {
                    total_rounds += s.rounds;
                    crash_runs += usize::from(s.crashed);
                    println!(
                        "seed {seed}: ok in {} round(s){} [{schedule}]",
                        s.rounds,
                        if s.crashed { ", crash+resume" } else { "" }
                    );
                }
                Err(v) => {
                    eprintln!("seed {seed}: VIOLATION: {v}");
                    eprintln!("  shrinking {schedule} ...");
                    let _wd = watchdog(format!("shrink seed {seed}"), 600);
                    let minimal = shrink(&schedule, &mut |cand| {
                        run_schedule(cand, crash_mid, &workload, &reference, "shrink").is_err()
                    });
                    eprintln!("  minimal repro: {minimal}");
                    eprintln!("  replay: {}", replay_command(&minimal));
                    violations.push((minimal, v));
                }
            }
        }

        let qstats = quarantine_liveness_phase(quick);
        // Phases that could not run: each one counts as a violation.
        let mut skipped: Vec<String> = Vec::new();
        let mut ran = |phase: Result<usize, String>| {
            phase.unwrap_or_else(|v| {
                eprintln!("VIOLATION: {v}");
                skipped.push(v);
                0
            })
        };
        let kill_runs =
            ran(kill_process_phase(&kill_seeds, &workload, &reference, "session.ack", 3, 5, &[]));
        let mut shard_stats = shard_wedge_phase(&shard_seeds, &workload, &reference);
        shard_stats.quarantine_per_shard = shard_quarantine_run(&workload, &reference);
        // Free-running site: hits accrue ~50/s per shard on idle beats
        // alone, so 150-250 lands the kill a few seconds in — after the
        // first workload round has acked, well before the 60 s bound.
        let shard_kill_runs = ran(kill_process_phase(
            &shard_kill_seeds,
            &workload,
            &reference,
            "shard.heartbeat",
            150,
            100,
            // Each shard needs its own device slice (the CLI defaults to
            // a single-device pool).
            &["--shards", "2", "--devices", "2"],
        ));
        let violation_count = violations.len() + skipped.len();

        println!(
            "chaos storm: {seeds} schedules ({crash_runs} with crash+resume, {total_rounds} \
             total rounds), {kill_runs} process-kill runs, {} shard wedge runs \
             ({} failover(s), worst {} ms) + 1 quarantine run, {shard_kill_runs} sharded \
             kill runs, {} violation(s)",
            shard_stats.wedge_runs,
            shard_stats.failovers,
            shard_stats.failover_ms_max,
            violation_count
        );

        let mut json = String::from("{\n  \"bench\": \"chaos_storm\",\n");
        json.push_str(&format!("  \"quick\": {quick},\n"));
        json.push_str(&format!("  \"seed_base\": {seed_base},\n"));
        json.push_str(&format!("  \"pairs_per_run\": {pairs},\n"));
        json.push_str(&format!("  \"schedule_runs\": {seeds},\n"));
        json.push_str(&format!("  \"crash_resume_runs\": {crash_runs},\n"));
        json.push_str(&format!("  \"process_kill_runs\": {kill_runs},\n"));
        json.push_str(&format!("  \"total_client_rounds\": {total_rounds},\n"));
        json.push_str(&format!("  \"quarantine_readmissions\": {},\n", qstats.readmissions));
        json.push_str(&format!("  \"shard_wedge_runs\": {},\n", shard_stats.wedge_runs));
        json.push_str(&format!("  \"shard_failovers\": {},\n", shard_stats.failovers));
        json.push_str(&format!("  \"shard_failover_ms_max\": {},\n", shard_stats.failover_ms_max));
        json.push_str(&format!(
            "  \"shard_time_to_ack_p99_ms\": {:.3},\n",
            shard_stats.time_to_ack_p99_ms
        ));
        json.push_str(&format!("  \"shard_kill_runs\": {shard_kill_runs},\n"));
        for (key, snaps) in [
            ("shard_wedge_per_shard", &shard_stats.wedge_per_shard),
            ("shard_quarantine_per_shard", &shard_stats.quarantine_per_shard),
        ] {
            json.push_str(&format!("  \"{key}\": [\n"));
            for (i, s) in snaps.iter().enumerate() {
                json.push_str(&format!(
                    "    {{\"shard\": {}, \"state\": \"{}\", \"dispatched\": {}, \
                     \"completed\": {}, \"stolen_from\": {}, \"stolen_by\": {}, \
                     \"restarts\": {}, \"failovers\": {}, \"last_failover_ms\": {}}}{}\n",
                    s.id,
                    s.state,
                    s.dispatched,
                    s.completed,
                    s.stolen_from,
                    s.stolen_by,
                    s.restarts,
                    s.failovers,
                    s.last_failover_ms,
                    if i + 1 < snaps.len() { "," } else { "" }
                ));
            }
            json.push_str("  ],\n");
        }
        json.push_str(&format!("  \"violations\": {violation_count}\n}}\n"));
        let mut f = must(std::fs::File::create("BENCH_chaos.json"), "create BENCH_chaos.json");
        must(f.write_all(json.as_bytes()), "write BENCH_chaos.json");
        println!("wrote BENCH_chaos.json");

        if violation_count > 0 {
            for (minimal, v) in &violations {
                eprintln!("FAILED: {v}\n  minimal: {minimal}\n  {}", replay_command(minimal));
            }
            for v in &skipped {
                eprintln!("FAILED: {v}");
            }
            std::process::exit(1);
        }
    }
}
