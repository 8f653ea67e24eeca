//! The `serve-durable-short` workload: an in-process `Server` with
//! durable sessions, driven over loopback first open-loop (Poisson at a
//! fixed offered rate) and then closed-loop (a fixed window in flight).
//! Every RESULT's score and CIGAR are checked against the golden DP.
//!
//! Also hosts the probes of the traced pass that need a server or a
//! checkpoint file (`io`, `proto`, `server` layers), shared by every
//! workload.

use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use smx::align::{Alignment, AlignmentConfig, Cigar};
use smx::server::proto::{read_frame, write_frame, Request, Response};
use smx::server::tenant::Priority;
use smx::{DrainReport, ExecutorConfig, Server, ServerConfig, ServerHandle, SmxDevice};

use crate::layers::{self, ComputeProbe, Tracer};
use crate::stats::{median, peak_rss_mb, percentile, quiet, windowed, Marks, SplitMix64};
use crate::{Inputs, Report, Workload, COPROC_WORKERS, JOBS};

/// Open-loop offered rate, pairs/s. On the reference host (2 cores,
/// shared) the closed-loop phase measures a durable capacity of about
/// 3000 pairs/s, and about 2000 when neighbours load the host. At half
/// of either, queueing amplified the host's swings into 5x latency
/// changes between runs; a quarter of the lower figure keeps the
/// latency figures about the server's own per-pair path.
pub const OFFERED_RATE: f64 = 500.0;

/// Open-loop latency percentiles are taken per window of this many
/// seconds of the schedule; the metric is the median window.
const LATENCY_WINDOW_S: f64 = 1.0;

/// Closed-loop pairs in flight: enough to keep both workers and the
/// checkpoint writer busy, far below the queue capacity.
pub const WINDOW: usize = 8;

/// Queue and per-connection caps sized so that a scheduler stall on a
/// shared host delays pairs instead of refusing them: admission control
/// is not what this workload measures.
const QUEUE_CAP: usize = 1024;
const MAX_OUTSTANDING: usize = 4096;

const SETUP_REPS: usize = 15;
/// Closed-loop pairs per session before the connection rotates.
const SESSION_PAIRS: usize = 4096;
/// Untimed closed-loop seconds before the measured phases.
const WARMUP_S: f64 = 0.3;
/// Closed-loop throughput is taken per bucket of this many seconds; the
/// metric is the median bucket.
const BUCKET_S: f64 = 0.5;
const READ_TIMEOUT: Duration = Duration::from_secs(10);
/// A generator this late at p99 did not offer the intended load.
const LAG_LIMIT_MS: f64 = 50.0;
/// A backlog rising faster than this share of the offered rate over the
/// schedule's second half means the server did not keep up.
const BACKLOG_SLOPE_LIMIT: f64 = 0.05;
/// `CheckpointWriter::record` calls in the traced pass's io probe.
const IO_RECORDS: usize = 500;

fn server_config(dir: &Path) -> ServerConfig {
    ServerConfig {
        exec: ExecutorConfig { jobs: JOBS, queue_cap: QUEUE_CAP, ..ExecutorConfig::default() },
        max_outstanding: MAX_OUTSTANDING,
        checkpoint_dir: Some(dir.to_path_buf()),
        ..ServerConfig::default()
    }
}

/// A durable server for `config`, checkpointing under `dir`.
fn bind(config: AlignmentConfig, dir: &Path) -> Result<ServerHandle, String> {
    let device = SmxDevice::new(config, COPROC_WORKERS).map_err(|e| e.to_string())?;
    Server::bind(device, server_config(dir), "127.0.0.1:0").map_err(|e| e.to_string())
}

/// One connection with an open durable session, split into halves so
/// a reader thread can run beside the sender.
struct Conn {
    wr: TcpStream,
    rd: TcpStream,
}

impl Conn {
    fn open(addr: SocketAddr, session: &str) -> Result<Conn, String> {
        let wr = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        wr.set_nodelay(true).map_err(|e| e.to_string())?;
        let rd = wr.try_clone().map_err(|e| e.to_string())?;
        rd.set_read_timeout(Some(READ_TIMEOUT)).map_err(|e| e.to_string())?;
        let mut conn = Conn { wr, rd };
        conn.send(&Request::Hello {
            session: session.to_string(),
            tenant: "bench".into(),
            priority: Priority::Normal,
            deadline_ms: 0,
        })?;
        match conn.recv()? {
            Response::Ok { .. } => Ok(conn),
            other => Err(format!("HELLO answered {other:?}")),
        }
    }

    fn send(&mut self, req: &Request) -> Result<(), String> {
        write_frame(&mut self.wr, &req.encode()).map_err(|e| format!("send: {e}"))
    }

    fn recv(&mut self) -> Result<Response, String> {
        recv(&mut self.rd)
    }

    /// Ends the session and waits for its `DONE`.
    fn bye(mut self) -> Result<(), String> {
        self.send(&Request::Bye)?;
        loop {
            if let Response::Done { .. } = self.recv()? {
                return Ok(());
            }
        }
    }
}

fn recv(rd: &mut TcpStream) -> Result<Response, String> {
    match read_frame(rd) {
        Ok(Some(payload)) => Response::parse(&payload).map_err(|e| format!("parse: {e}")),
        Ok(None) => Err("server closed the connection".into()),
        Err(e) => Err(format!("recv: {e}")),
    }
}

fn pair_request(inputs: &Inputs, id: usize) -> Request {
    let (q, r) = &inputs.texts[id % inputs.texts.len()];
    Request::Pair { id, query: q.clone(), reference: r.clone() }
}

/// Terminal frames one phase saw, classified.
#[derive(Default)]
struct Tally {
    verified: u64,
    cells: u64,
    wrong: u64,
    rejected: u64,
    failed: u64,
    terminal: usize,
}

impl Tally {
    /// Classifies one frame; returns whether it was a verified RESULT.
    fn add(&mut self, inputs: &Inputs, resp: &Response) -> Result<bool, String> {
        self.terminal += 1;
        match resp {
            Response::Result { id, score, cigar, .. } => {
                let i = id % inputs.pairs.len();
                let ok = Cigar::parse(cigar)
                    .is_ok_and(|cigar| inputs.check(i, &Alignment { score: *score, cigar }));
                if ok {
                    self.verified += 1;
                    self.cells += inputs.cells[i];
                } else {
                    self.wrong += 1;
                }
                Ok(ok)
            }
            Response::Reject { .. } => {
                self.rejected += 1;
                Ok(false)
            }
            Response::Fail { .. } => {
                self.failed += 1;
                Ok(false)
            }
            other => Err(format!("unexpected frame {other:?}")),
        }
    }

    fn charge(&self, report: &mut Report, sent: usize) {
        report.attempted += sent as u64;
        report.wrong += self.wrong;
        report.failed +=
            self.wrong + self.rejected + self.failed + sent.saturating_sub(self.terminal) as u64;
    }
}

struct OpenLoop {
    tally: Tally,
    sent: usize,
    /// `(window, latency ms)` of every verified RESULT in the windows
    /// the hypervisor disturbed least.
    latencies_ms: Vec<(usize, f64)>,
    /// Latency windows kept, of all.
    windows: (usize, usize),
    lag_ms: Vec<f64>,
    backlog_end: usize,
    backlog_slope: f64,
}

/// Poisson arrivals at `rate` for `secs`, one connection: this thread
/// sends on schedule, a reader thread timestamps every terminal frame.
/// Latency runs from each pair's due time, so a late generator or a
/// stalled server both show in it.
fn open_loop(
    addr: SocketAddr,
    inputs: &Inputs,
    rate: f64,
    secs: f64,
    seed: u64,
) -> Result<OpenLoop, String> {
    let mut rng = SplitMix64::new(seed);
    let mut due = Vec::new();
    let mut at = rng.exp_gap(rate);
    while at < secs {
        due.push(Duration::from_secs_f64(at));
        at += rng.exp_gap(rate);
    }
    let count = due.len();
    let mut conn = Conn::open(addr, "open-loop")?;
    let mut rd = conn.rd.try_clone().map_err(|e| e.to_string())?;
    let received = AtomicUsize::new(0);
    let start = Instant::now();
    let mut lag_ms = Vec::with_capacity(count);
    let mut backlog = Vec::with_capacity(count);
    let mut marks = Marks::new(LATENCY_WINDOW_S);

    let (reader, sent) = std::thread::scope(|s| {
        let (due, received) = (&due, &received);
        let reader = s.spawn(move || -> Result<(Tally, Vec<(usize, f64)>), String> {
            let mut tally = Tally::default();
            let mut latencies = Vec::with_capacity(due.len());
            while tally.terminal < due.len() {
                let resp = match recv(&mut rd) {
                    Ok(r) => r,
                    Err(e) => {
                        eprintln!(
                            "open loop: stopped reading after {} frames: {e}",
                            tally.terminal
                        );
                        break;
                    }
                };
                let now = start.elapsed();
                let latency = match &resp {
                    Response::Result { id, .. } => due.get(*id).map(|d| {
                        let window = (d.as_secs_f64() / LATENCY_WINDOW_S) as usize;
                        (window, now.saturating_sub(*d).as_secs_f64() * 1e3)
                    }),
                    _ => None,
                };
                if tally.add(inputs, &resp)? {
                    latencies.extend(latency);
                }
                received.fetch_add(1, Ordering::Relaxed);
            }
            Ok((tally, latencies))
        });
        let mut sent = 0usize;
        for (id, d) in due.iter().enumerate() {
            marks.tick(d.as_secs_f64());
            let now = start.elapsed();
            if *d > now {
                std::thread::sleep(*d - now);
            }
            lag_ms.push(start.elapsed().saturating_sub(*d).as_secs_f64() * 1e3);
            if conn.send(&pair_request(inputs, id)).is_err() {
                break;
            }
            sent += 1;
            backlog.push((d.as_secs_f64(), sent.saturating_sub(received.load(Ordering::Relaxed))));
        }
        (reader.join().expect("open-loop reader panicked"), sent)
    });
    let (tally, latencies_ms) = reader?;
    let windows = marks.intervals((secs / LATENCY_WINDOW_S).ceil() as usize);
    let keep = quiet(&windows.iter().map(|w| w.steal).collect::<Vec<_>>());
    let latencies_ms =
        latencies_ms.into_iter().filter(|&(w, _)| keep.get(w).copied().unwrap_or(false)).collect();
    conn.bye()?;

    // Least-squares slope of the backlog over the schedule's second half.
    let tail = backlog.get(backlog.len() / 2..).unwrap_or(&[]);
    let n = tail.len().max(1) as f64;
    let (mt, mb) = tail.iter().fold((0.0, 0.0), |(t, b), &(x, y)| (t + x / n, b + y as f64 / n));
    let (mut num, mut den) = (0.0, 0.0);
    for &(x, y) in tail {
        num += (x - mt) * (y as f64 - mb);
        den += (x - mt) * (x - mt);
    }
    Ok(OpenLoop {
        tally,
        sent,
        latencies_ms,
        windows: (keep.iter().filter(|&&k| k).count(), keep.len()),
        lag_ms,
        backlog_end: backlog.last().map_or(0, |&(_, b)| b),
        backlog_slope: if den > 0.0 { num / den } else { 0.0 },
    })
}

struct ClosedLoop {
    tally: Tally,
    sent: usize,
    wall: f64,
    /// Median over buckets of verified cells per CPU second.
    gcups_per_cpu: f64,
    /// Wall-clock medians over the kept buckets.
    pairs_per_s: f64,
    gcups: f64,
    /// p10 and p90 of the kept bucket rates.
    spread: (f64, f64),
    /// Buckets kept, of all, and the median steal share over all.
    buckets: (usize, usize),
    steal: f64,
}

/// Keeps `WINDOW` pairs in flight for `secs`, and measures per
/// `BUCKET_S` bucket: verified cells per CPU second of the process, and
/// (over the buckets the hypervisor disturbed least) verified RESULTs
/// per second of the time it left this guest. The connection ends its
/// session and opens the next one every `SESSION_PAIRS` pairs,
/// so the server's per-session state, and with it the peak RSS, does not
/// grow with the measured throughput.
fn closed_loop(
    addr: SocketAddr,
    inputs: &Inputs,
    session: &str,
    secs: f64,
) -> Result<ClosedLoop, String> {
    let buckets = ((secs / BUCKET_S).floor() as usize).max(1);
    let (mut pairs, mut cells) = (vec![0u64; buckets], vec![0u64; buckets]);
    let mut tally = Tally::default();
    let mut conn = Conn::open(addr, &format!("{session}-0"))?;
    let (mut sessions, mut next, mut on_session, mut in_flight) = (1, 0usize, 0usize, 0usize);
    let mut marks = Marks::new(BUCKET_S);
    let start = Instant::now();
    loop {
        while start.elapsed().as_secs_f64() < secs
            && in_flight < WINDOW
            && on_session < SESSION_PAIRS
        {
            conn.send(&pair_request(inputs, next))?;
            next += 1;
            on_session += 1;
            in_flight += 1;
        }
        if in_flight == 0 {
            if start.elapsed().as_secs_f64() >= secs {
                break;
            }
            conn.bye()?;
            conn = Conn::open(addr, &format!("{session}-{sessions}"))?;
            sessions += 1;
            on_session = 0;
            continue;
        }
        let resp = conn.recv()?;
        in_flight -= 1;
        let at = start.elapsed().as_secs_f64();
        marks.tick(at);
        let bucket = (at / BUCKET_S) as usize;
        let before = tally.cells;
        if tally.add(inputs, &resp)? && bucket < buckets {
            pairs[bucket] += 1;
            cells[bucket] += tally.cells - before;
        }
    }
    let wall = start.elapsed().as_secs_f64();
    conn.bye()?;
    let host = marks.intervals(buckets);
    let steal: Vec<f64> = host.iter().map(|h| h.steal).collect();
    let per_cpu: Vec<f64> =
        cells.iter().zip(&host).map(|(&c, h)| c as f64 / h.cpu_s.max(1e-3) / 1e9).collect();
    let keep = quiet(&steal);
    let rate = |v: &[u64]| -> Vec<f64> {
        v.iter()
            .zip(&steal)
            .zip(&keep)
            .filter(|(_, &k)| k)
            .map(|((&x, &s), _)| x as f64 / (BUCKET_S * (1.0 - s)))
            .collect()
    };
    let (rates, cell_rates) = (rate(&pairs), rate(&cells));
    Ok(ClosedLoop {
        tally,
        sent: next,
        wall,
        gcups_per_cpu: median(&per_cpu),
        pairs_per_s: median(&rates),
        gcups: median(&cell_rates) / 1e9,
        spread: (percentile(&rates, 0.1), percentile(&rates, 0.9)),
        buckets: (rates.len(), buckets),
        steal: median(&steal),
    })
}

fn put_server_counters(drained: &DrainReport, report: &mut Report) {
    let t = &drained.totals;
    report.put("server.rejected", t.rejected as f64);
    report.put("server.retries", t.retries as f64);
    report.put("server.software_pairs", t.software_pairs as f64);
    report.put("server.max_queue_depth", t.max_queue_depth as f64);
}

pub fn run(
    w: &Workload,
    inputs: &Inputs,
    seed: u64,
    seconds: f64,
    trace: bool,
    scratch: &Path,
) -> Result<Report, String> {
    let mut report = Report::default();
    let ckpt = scratch.join("ckpt");

    // Set-up: device construction and bind until HELLO is answered OK.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        let handle = bind(inputs.config, &ckpt)?;
        let conn = Conn::open(handle.addr(), &format!("setup-{rep}"))?;
        setups.push(t.elapsed().as_secs_f64());
        conn.bye()?;
        handle.drain();
    }

    let handle = bind(inputs.config, &ckpt)?;
    let addr = handle.addr();
    let warm = closed_loop(addr, inputs, "warm-up", WARMUP_S)?;
    report.note(format!("warm-up: {} pairs", warm.sent));

    let open = open_loop(addr, inputs, OFFERED_RATE, seconds / 2.0, seed)?;
    let closed = closed_loop(addr, inputs, "closed-loop", seconds / 2.0)?;
    open.tally.charge(&mut report, open.sent);
    closed.tally.charge(&mut report, closed.sent);

    let lag_p99 = percentile(&open.lag_ms, 0.99);
    report.note(format!(
        "open loop: offered {OFFERED_RATE}/s for {:.1} s, {} sent, {} latency samples in {} of {} windows kept, generator lag p99 {lag_p99:.3} ms, backlog at end {} (slope {:.1}/s)",
        seconds / 2.0,
        open.sent,
        open.latencies_ms.len(),
        open.windows.0,
        open.windows.1,
        open.backlog_end,
        open.backlog_slope
    ));
    report.note(format!(
        "closed loop: window {WINDOW}, {} sent in {:.2} s, {} of {} buckets kept (host steal median {:.1}%), kept rates p10 {:.0} p50 {:.0} p90 {:.0} /s",
        closed.sent,
        closed.wall,
        closed.buckets.0,
        closed.buckets.1,
        100.0 * closed.steal,
        closed.spread.0,
        closed.pairs_per_s,
        closed.spread.1
    ));
    let invalid = if lag_p99 > LAG_LIMIT_MS {
        Some(format!("generator lag p99 {lag_p99:.1} ms > {LAG_LIMIT_MS} ms"))
    } else if open.backlog_slope > BACKLOG_SLOPE_LIMIT * OFFERED_RATE {
        Some(format!("backlog still growing at {:.0} pairs/s at the end", open.backlog_slope))
    } else {
        None
    };
    let sent = (open.sent + closed.sent) as f64;
    report.put("gcups_per_cpu", closed.gcups_per_cpu);
    report.put("verified_share", (open.tally.verified + closed.tally.verified) as f64 / sent);
    report.put("setup_s", median(&setups));
    report.put("peak_rss_mb", peak_rss_mb());
    report.put("wall.gcups", closed.gcups);
    report.put("wall.capacity_pairs_per_s", closed.pairs_per_s);
    if let Some(why) = invalid {
        // The generator did not offer the intended load: the latency of
        // this run describes the host, not the server.
        report.note(format!("open loop INVALID, latency not recorded: {why}"));
        report.na("wall.latency_p50_ms");
        report.na("wall.latency_p95_ms");
    } else {
        report.put("wall.latency_p50_ms", windowed(&open.latencies_ms, 0.5));
        report.put("wall.latency_p95_ms", windowed(&open.latencies_ms, 0.95));
    }
    report.put("host.steal_share", closed.steal);
    if !trace {
        handle.drain();
        return Ok(report);
    }

    let mut tr = Tracer::new();
    let probe = layers::compute_probe(&mut tr, w, inputs, &mut report)?;
    report.wrong += probe.wrong;
    report.failed += probe.wrong;
    report.na("service.audits_run");
    report.na("service.software_pairs");
    report.na("service.max_queue_depth");
    report.put(
        "service.worker_busy_share",
        probe.align_ns_per_cell * closed.tally.cells as f64 / 1e9 / (closed.wall * JOBS as f64),
    );
    report.put("loadgen.lag_p99_ms", lag_p99);
    report.put("loadgen.backlog_end", open.backlog_end as f64);
    layer_probes(&mut tr, w, inputs, &probe, scratch, Some(addr), &mut report)?;
    put_server_counters(&handle.drain(), &mut report);
    Ok(report)
}

/// The io, proto and server probes of the traced pass, then the span
/// dump. Without a running server (`batch-*`), binds a durable one for
/// the round trips and reports its drain counters.
pub fn layer_probes(
    tr: &mut Tracer,
    w: &Workload,
    inputs: &Inputs,
    probe: &ComputeProbe,
    scratch: &Path,
    server: Option<SocketAddr>,
    report: &mut Report,
) -> Result<(), String> {
    let ckpt_p50 = layers::io_probe(tr, &probe.alignments, IO_RECORDS, scratch, report)?;
    let (encode, parse) = layers::proto_probe(tr, inputs, &probe.alignments, report);

    let own = match server {
        Some(_) => None,
        None => Some(bind(inputs.config, &scratch.join("rtt-ckpt"))?),
    };
    let addr = server.or(own.as_ref().map(ServerHandle::addr)).ok_or("no server")?;
    let mut conn = Conn::open(addr, "rtt-probe")?;
    let rounds = w.probe_pairs * w.probe_reps;
    for k in 0..rounds {
        let i = probe.alignments[k % probe.alignments.len()].0;
        let (q, r) = &inputs.texts[i];
        // Distinct ids: a repeated id would be replayed, not aligned.
        let id = k * inputs.pairs.len() + i;
        let span = tr.open("server.rtt", i, None);
        let req = Request::Pair { id, query: q.clone(), reference: r.clone() };
        conn.send(&req)?;
        let resp = conn.recv()?;
        tr.close(span);
        let mut tally = Tally::default();
        tally.add(inputs, &resp)?;
        tally.charge(report, 1);
    }
    conn.bye()?;
    if let Some(handle) = own {
        put_server_counters(&handle.drain(), report);
    }
    let rtt = median(&tr.per_call_us("server.rtt"));
    report.put("server.rtt_unloaded_us", rtt);
    report.put("server.self_us", rtt - probe.align_us - ckpt_p50 - encode - parse);
    report.note(format!(
        "round trip {rtt:.1} us = align {:.1} + checkpoint record {ckpt_p50:.1} ({:.1}%) + proto {:.1} + server self {:.1}",
        probe.align_us,
        100.0 * ckpt_p50 / rtt,
        encode + parse,
        rtt - probe.align_us - ckpt_p50 - encode - parse
    ));

    let path = crate::spans_path(w);
    tr.write(&path).map_err(|e| format!("write {}: {e}", path.display()))
}
