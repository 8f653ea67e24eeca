//! **Server storm: open-loop load against the framed-TCP front door.**
//!
//! Drives `smx::server` over loopback with Poisson arrivals at a sweep
//! of offered loads, with fault injection on and two adversaries in the
//! mix: a *hot tenant* (low priority, offering ~2x the whole sweep's top
//! load) and a *slow client* (submits a burst, then stops reading).
//! Every submitted pair must come back with a terminal frame — RESULT,
//! typed REJECT, or typed FAIL — so a hang shows up as a harness
//! timeout, not a silent gap. Reports p50/p99/p999 latency vs offered
//! load, flags the saturation knee, and finishes with a crash/resume
//! pass asserting zero acked-but-lost pairs across a simulated kill -9.
//!
//! Writes `BENCH_server.json` with the latency table. Quick mode
//! (`SMX_BENCH_QUICK=1`) shrinks the sweep for CI.
//!
//! With `--shards N` the whole sweep runs twice — once against the
//! single-executor baseline, once against an N-shard supervised fleet —
//! asserting the fleet's saturation knee is no worse than the
//! baseline's (when either sweep reaches one; otherwise it says the
//! comparison did not run) and recording per-shard counters alongside
//! both latency tables in `BENCH_server.json`.

use std::collections::HashMap;
use std::io::Write as _;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smx::prelude::*;
use smx::server::proto::{Request, Response};
use smx::server::tenant::{Priority, TenantPolicy};
use smx::{Client, RetryConfig, Server, ServerConfig, ServerHandle};
use smx_bench::{header, make_pair, percentile, quick_mode, row, storm_device};

const CONFIG: AlignmentConfig = AlignmentConfig::DnaEdit;
const PAIR_LEN: usize = 64;
/// Bounds every connect, read and write of a storm session.
const SESSION_TIMEOUT: Duration = Duration::from_secs(30);

fn storm_server(
    checkpoint: Option<std::path::PathBuf>,
    resume: bool,
    shards: usize,
) -> ServerHandle {
    let cfg = ServerConfig {
        exec: ExecutorConfig {
            jobs: 4,
            queue_cap: 64,
            audit: Some(AuditConfig { rate: 0.05, seed: 9 }),
            breaker: Some(BreakerConfig::default()),
            ..ExecutorConfig::default()
        },
        // A bucket small enough that the hot tenant's 2x flood drains it
        // at the top of the sweep.
        policy: TenantPolicy { rate: 800.0, burst: 200.0 },
        retry: RetryConfig::default(),
        checkpoint_dir: checkpoint,
        resume_sessions: resume,
        // The 4 workers split into `shards` fault domains (stealing on,
        // default supervisor); shards=1 is the single-executor baseline.
        shards,
        ..ServerConfig::default()
    };
    Server::bind(storm_device(CONFIG).expect("device"), cfg, "127.0.0.1:0").expect("bind")
}

/// Connects to `addr` and opens `session` as `tenant` at `prio`.
fn open(addr: std::net::SocketAddr, session: &str, tenant: &str, prio: Priority) -> Client {
    let mut client = Client::connect(addr, SESSION_TIMEOUT).expect("connect");
    client.hello(session, tenant, prio, 0).expect("open session");
    client
}

/// Terminal outcomes one tenant connection observed, with latencies for
/// the completed pairs.
#[derive(Debug, Default)]
struct TenantOutcome {
    latencies_ms: Vec<f64>,
    completed: usize,
    rejected: usize,
    failed: usize,
}

/// Reads `count` terminal frames off `client` (any other frame is a
/// harness failure); `latency_ms` gives each RESULT's latency, if timed.
fn collect(
    client: &mut Client,
    count: usize,
    mut latency_ms: impl FnMut(usize) -> Option<f64>,
) -> TenantOutcome {
    let mut o = TenantOutcome::default();
    for _ in 0..count {
        match client.recv().expect("storm read").expect("storm frame") {
            Response::Result { id, .. } => {
                o.latencies_ms.extend(latency_ms(id));
                o.completed += 1;
            }
            Response::Reject { .. } => o.rejected += 1,
            Response::Fail { .. } => o.failed += 1,
            other => panic!("unexpected frame {other:?}"),
        }
    }
    o
}

/// Open-loop Poisson submission of `count` pairs at `rate` pairs/sec;
/// a reader thread timestamps terminal frames as they arrive.
fn drive_tenant(
    addr: std::net::SocketAddr,
    tenant: &str,
    prio: Priority,
    rate: f64,
    count: usize,
    seed: u64,
) -> TenantOutcome {
    let mut client = open(addr, "-", tenant, prio);
    let sent: Mutex<HashMap<usize, Instant>> = Mutex::new(HashMap::new());
    let mut out = TenantOutcome::default();

    std::thread::scope(|scope| {
        let sent = &sent;
        let reader = scope.spawn({
            let mut rd = client.try_clone().expect("clone reader");
            move || {
                collect(&mut rd, count, |id| {
                    Some(sent.lock().unwrap()[&id].elapsed().as_secs_f64() * 1e3)
                })
            }
        });

        let mut rng = StdRng::seed_from_u64(seed);
        for id in 0..count {
            let req = make_pair(&mut rng, id, PAIR_LEN);
            sent.lock().unwrap().insert(id, Instant::now());
            client.send(&req).expect("storm write");
            // Exponential inter-arrival: open loop, no waiting on acks.
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            let gap = -u.ln() / rate;
            std::thread::sleep(Duration::from_secs_f64(gap.min(0.05)));
        }
        out = reader.join().expect("reader thread");
    });

    client.bye(|frame| panic!("unexpected frame {frame:?}")).expect("storm bye");
    out
}

/// The slow-client adversary: bursts pairs, then refuses to read for a
/// while. The per-connection outstanding cap must answer the overflow
/// with typed REJECT overloaded frames — never an unbounded buffer or a
/// hang.
fn drive_slow_client(addr: std::net::SocketAddr, count: usize) -> TenantOutcome {
    let mut client = open(addr, "-", "sloth", Priority::Normal);
    let mut rng = StdRng::seed_from_u64(0xfeed);
    for id in 0..count {
        client.send(&make_pair(&mut rng, id, PAIR_LEN)).expect("slow write");
    }
    // The adversarial pause: responses pile up server-side.
    std::thread::sleep(Duration::from_millis(300));
    let out = collect(&mut client, count, |_| None);
    client.bye(|frame| panic!("unexpected frame {frame:?}")).expect("slow bye");
    out
}

struct LoadPoint {
    offered: f64,
    p50: f64,
    p99: f64,
    p999: f64,
    hi_p99: f64,
    completed: usize,
    rejected: usize,
    failed: usize,
    hot_shaped: usize,
}

fn run_load(addr: std::net::SocketAddr, offered: f64, seconds: f64) -> LoadPoint {
    // Tenant mix: 25% high, 50% normal on the offered load; the hot
    // tenant (low priority) floods at 2x the *whole* offered load.
    let hi_count = (offered * 0.25 * seconds) as usize;
    let norm_count = (offered * 0.5 * seconds) as usize;
    let hot_count = (offered * 2.0 * seconds) as usize;

    let (hi, norm, hot) = std::thread::scope(|scope| {
        let hi = scope
            .spawn(move || drive_tenant(addr, "hi", Priority::High, offered * 0.25, hi_count, 1));
        let norm = scope.spawn(move || {
            drive_tenant(addr, "norm", Priority::Normal, offered * 0.5, norm_count, 2)
        });
        let hot = scope
            .spawn(move || drive_tenant(addr, "hot", Priority::Low, offered * 2.0, hot_count, 3));
        (hi.join().unwrap(), norm.join().unwrap(), hot.join().unwrap())
    });

    let mut all: Vec<f64> = Vec::new();
    all.extend(&hi.latencies_ms);
    all.extend(&norm.latencies_ms);
    all.extend(&hot.latencies_ms);
    all.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mut hi_lat = hi.latencies_ms.clone();
    hi_lat.sort_by(|a, b| a.partial_cmp(b).unwrap());

    LoadPoint {
        offered,
        p50: percentile(&all, 0.50),
        p99: percentile(&all, 0.99),
        p999: percentile(&all, 0.999),
        hi_p99: percentile(&hi_lat, 0.99),
        completed: hi.completed + norm.completed + hot.completed,
        rejected: hi.rejected + norm.rejected + hot.rejected,
        failed: hi.failed + norm.failed + hot.failed,
        hot_shaped: hot.rejected,
    }
}

/// Crash/resume pass: a simulated kill -9 mid-stream must lose nothing
/// the client saw acked, and the restart must replay those pairs
/// byte-identically.
fn crash_resume_pass() {
    let dir = std::env::temp_dir().join(format!("smx-server-storm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");

    let handle = storm_server(Some(dir.clone()), false, 1);
    let addr = handle.addr();
    let mut client = open(addr, "storm", "crash", Priority::Normal);
    let mut rng = StdRng::seed_from_u64(77);
    const PAIRS: usize = 32;
    const ACKS: usize = 10;
    let reqs: Vec<Request> = (0..PAIRS).map(|id| make_pair(&mut rng, id, PAIR_LEN)).collect();
    for req in &reqs {
        client.send(req).expect("crash write");
    }
    let mut acked: HashMap<usize, (i32, String)> = HashMap::new();
    while acked.len() < ACKS {
        let frame = client.recv().expect("crash read").expect("crash frame");
        if let Response::Result { id, score, cigar, .. } = frame {
            acked.insert(id, (score, cigar));
        }
    }
    handle.crash();

    let handle = storm_server(Some(dir.clone()), true, 1);
    let mut client = open(handle.addr(), "storm", "crash", Priority::Normal);
    for req in &reqs {
        client.send(req).expect("resume write");
    }
    let mut replayed: HashMap<usize, (i32, String, bool)> = HashMap::new();
    while replayed.len() < PAIRS {
        let frame = client.recv().expect("resume read").expect("resume frame");
        if let Response::Result { id, score, cigar, resumed } = frame {
            replayed.insert(id, (score, cigar, resumed));
        }
    }
    let mut lost = 0usize;
    for (id, (score, cigar)) in &acked {
        let (rs, rc, was_resumed) = &replayed[id];
        assert_eq!(
            (rs, rc.as_str()),
            (&score.clone(), cigar.as_str()),
            "pair {id} not byte-identical across crash"
        );
        if !was_resumed {
            lost += 1;
        }
    }
    assert_eq!(lost, 0, "{lost} acked pairs were recomputed instead of replayed");
    handle.drain();
    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "crash/resume: {ACKS} acked before kill -9, all replayed byte-identically, \
         0 acked-but-lost"
    );
}

/// One full sweep against a fresh server with `shards` fault domains.
/// The slow-client adversary runs only when `slow_pairs > 0` (the
/// baseline sweep), so the sharded comparison sees the same tenant mix
/// minus the one adversary whose rejects are capacity-independent.
struct SweepOutcome {
    points: Vec<LoadPoint>,
    knee: Option<f64>,
    per_shard: Vec<smx::ShardSnapshot>,
}

fn run_sweep(shards: usize, loads: &[f64], seconds: f64, slow_pairs: usize) -> SweepOutcome {
    let widths = [9, 8, 8, 8, 8, 10, 9, 7, 11];
    row(
        &[
            &"offered/s",
            &"p50ms",
            &"p99ms",
            &"p999ms",
            &"hi-p99",
            &"completed",
            &"rejected",
            &"failed",
            &"hot-shaped",
        ],
        &widths,
    );

    let handle = storm_server(None, false, shards);
    let addr = handle.addr();
    let slow =
        (slow_pairs > 0).then(|| std::thread::spawn(move || drive_slow_client(addr, slow_pairs)));

    let mut points: Vec<LoadPoint> = Vec::new();
    for &offered in loads {
        let p = run_load(addr, offered, seconds);
        row(
            &[
                &format!("{offered:.0}"),
                &format!("{:.2}", p.p50),
                &format!("{:.2}", p.p99),
                &format!("{:.2}", p.p999),
                &format!("{:.2}", p.hi_p99),
                &p.completed,
                &p.rejected,
                &p.failed,
                &p.hot_shaped,
            ],
            &widths,
        );
        points.push(p);
    }

    if let Some(slow) = slow {
        let slow_out = slow.join().expect("slow client");
        assert_eq!(
            slow_out.completed + slow_out.rejected + slow_out.failed,
            slow_pairs,
            "slow client must see a terminal frame per pair"
        );
        println!(
            "slow client: {slow_pairs} pairs burst then a read stall -> {} completed, {} typed \
             rejects, {} failed (no hangs)",
            slow_out.completed, slow_out.rejected, slow_out.failed
        );
    }

    // The hot tenant must actually be shaped at the top load: either the
    // bucket ran dry (rate-limit rejects) or brownout stepped in.
    let top = points.last().expect("at least one load point");
    assert!(
        top.hot_shaped > 0 || top.rejected > 0,
        "hot tenant was never shaped at {} pairs/s offered (shards={shards})",
        top.offered
    );
    // The high-priority class must stay usable while the hot tenant
    // floods: bounded p99, never starved.
    assert!(
        top.hi_p99.is_nan() || top.hi_p99 < 5_000.0,
        "high-priority p99 blew past 5 s (shards={shards}): {:.1} ms",
        top.hi_p99
    );

    // Saturation knee: first load whose overall p99 exceeds 4x the p99
    // at the lightest load of this same sweep.
    let base_p99 = points[0].p99.max(0.5);
    let knee = points.iter().find(|p| p.p99 > 4.0 * base_p99).map(|p| p.offered);
    match knee {
        Some(k) => println!("saturation knee: p99 exceeds 4x baseline at ~{k:.0} pairs/s offered"),
        None => println!("saturation knee: not reached within this sweep"),
    }

    let stats = handle.stats_text();
    println!("--- final /stats (shards={shards}) ---\n{stats}");
    let report = handle.drain();
    SweepOutcome { points, knee, per_shard: report.per_shard }
}

fn points_json(json: &mut String, points: &[LoadPoint]) {
    for (i, p) in points.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"offered_pairs_per_s\": {:.0}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \
             \"p999_ms\": {:.3}, \"high_priority_p99_ms\": {:.3}, \"completed\": {}, \
             \"rejected\": {}, \"failed\": {}}}{}\n",
            p.offered,
            p.p50,
            p.p99,
            p.p999,
            p.hi_p99,
            p.completed,
            p.rejected,
            p.failed,
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
}

fn knee_json(json: &mut String, key: &str, knee: Option<f64>) {
    match knee {
        Some(k) => json.push_str(&format!("  \"{key}\": {k:.0},\n")),
        None => json.push_str(&format!("  \"{key}\": null,\n")),
    }
}

fn main() {
    let quick = quick_mode();
    let seconds = if quick { 1.5 } else { 4.0 };
    let loads: &[f64] = if quick { &[150.0, 600.0] } else { &[150.0, 600.0, 1500.0, 4000.0] };
    let shard_arg: Option<usize> = {
        let args: Vec<String> = std::env::args().collect();
        args.iter()
            .position(|a| a == "--shards")
            .and_then(|i| args.get(i + 1))
            .map(|v| v.parse().expect("--shards takes a shard count"))
    };

    header(&format!(
        "server storm: {CONFIG}, {PAIR_LEN} bp pairs, fault injection on, \
         hot tenant at 2x offered, {seconds} s per point"
    ));

    if shard_arg.is_some() {
        println!("--- single-executor baseline (shards=1) ---");
    }
    let base = run_sweep(1, loads, seconds, 24);
    let fleet = shard_arg.map(|n| {
        println!("--- supervised fleet (shards={n}) ---");
        run_sweep(n, loads, seconds, 0)
    });

    if let Some(fleet) = &fleet {
        // The fleet must not saturate earlier than the single executor:
        // an unreached knee counts as "beyond the sweep", so with neither
        // knee reached there is nothing to compare.
        if base.knee.is_none() && fleet.knee.is_none() {
            println!("knee comparison: did not run (neither sweep reached its knee)");
        } else {
            let base_knee = base.knee.unwrap_or(f64::INFINITY);
            let fleet_knee = fleet.knee.unwrap_or(f64::INFINITY);
            assert!(
                fleet_knee >= base_knee,
                "sharding moved the saturation knee earlier: fleet {fleet_knee} vs baseline \
                 {base_knee} pairs/s"
            );
            println!("knee comparison: fleet {fleet_knee} >= baseline {base_knee} pairs/s");
        }
        for s in &fleet.per_shard {
            println!("{s}");
        }
    }

    crash_resume_pass();

    let mut json = String::from("{\n  \"bench\": \"server_storm\",\n");
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str(&format!("  \"pair_len\": {PAIR_LEN},\n  \"seconds_per_point\": {seconds},\n"));
    json.push_str("  \"loads\": [\n");
    points_json(&mut json, &base.points);
    json.push_str("  ],\n");
    knee_json(&mut json, "knee_pairs_per_s", base.knee);
    match &fleet {
        Some(fleet) => {
            json.push_str(&format!("  \"shards\": {},\n", shard_arg.unwrap_or(1)));
            json.push_str("  \"sharded_loads\": [\n");
            points_json(&mut json, &fleet.points);
            json.push_str("  ],\n");
            knee_json(&mut json, "sharded_knee_pairs_per_s", fleet.knee);
            json.push_str("  \"per_shard\": [\n");
            for (i, s) in fleet.per_shard.iter().enumerate() {
                json.push_str(&format!(
                    "    {{\"shard\": {}, \"state\": \"{}\", \"dispatched\": {}, \
                     \"completed\": {}, \"stolen_from\": {}, \"stolen_by\": {}, \
                     \"restarts\": {}, \"failovers\": {}, \"last_failover_ms\": {}, \
                     \"max_queue_depth\": {}}}{}\n",
                    s.id,
                    s.state,
                    s.dispatched,
                    s.completed,
                    s.stolen_from,
                    s.stolen_by,
                    s.restarts,
                    s.failovers,
                    s.last_failover_ms,
                    s.max_queue_depth,
                    if i + 1 < fleet.per_shard.len() { "," } else { "" }
                ));
            }
            json.push_str("  ],\n");
        }
        None => json.push_str("  \"shards\": 1,\n"),
    }
    json.push_str("  \"crash_resume\": \"pass\"\n");
    json.push_str("}\n");
    let mut f = std::fs::File::create("BENCH_server.json").expect("create BENCH_server.json");
    f.write_all(json.as_bytes()).expect("write BENCH_server.json");
    println!("wrote BENCH_server.json");
}
