//! `perfbench`: the repository's benchmark.
//!
//! One command runs one seeded workload (or `all` of them) against the
//! public API of `smx`, checks every output against the golden DP, and
//! prints each end-to-end metric by name with its unit. With `--trace 1`
//! it also runs a traced pass that times the calls into each layer's
//! public functions from outside the program and prints the per-layer
//! breakdown instead. The last line of standard output is always one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload batch-long-dna --seed 1 --seconds 10 --trace 0
//! ```

mod batch;
mod layers;
mod serve;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use smx::algos::simd::{self, Baseline};
use smx::align::{AlignmentConfig, Sequence};
use smx::datagen::{Dataset, ErrorProfile};

/// Default `--seed` when none is given.
const DEFAULT_SEED: u64 = 1;

/// SMX-workers per simulated coprocessor (the paper's default, §7).
pub const COPROC_WORKERS: usize = 4;

/// Worker jobs in every workload: the core count of the reference host.
pub const JOBS: usize = 2;

/// The end-to-end metrics every untraced run prints, in order.
pub const E2E_METRICS: &[(&str, &str)] = &[
    ("gcups_per_cpu", "GCUPS"),
    ("verified_share", "share"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Wall-clock end-to-end figures. Every run prints them, but on a
/// shared host they move with the hypervisor's steal by more than any
/// bound a regression gate could use, so the JSON carries them only in
/// the traced run, with the per-layer metrics.
pub const WALL_METRICS: &[(&str, &str)] = &[
    ("wall.gcups", "GCUPS"),
    ("wall.capacity_pairs_per_s", "1/s"),
    ("wall.latency_p50_ms", "ms"),
    ("wall.latency_p95_ms", "ms"),
    ("host.steal_share", "share"),
];

/// The per-layer metrics every traced run prints, in order, grouped by
/// module. A workload that does not cross a layer reports 0 there and
/// marks the row `n/a`.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("isa.pack_us", "us"),
    ("coproc.block_us", "us"),
    ("coproc.block_gcups", "GCUPS"),
    ("coproc.traceback_us", "us"),
    ("coproc.recompute_share", "share"),
    ("orchestrator.align_us", "us"),
    ("orchestrator.verify_us", "us"),
    ("orchestrator.self_us", "us"),
    ("orchestrator.unattributed_share", "share"),
    ("orchestrator.vs_software", "x"),
    ("simd.score_us", "us"),
    ("simd.gcups", "GCUPS"),
    ("pool.audit_us", "us"),
    ("service.audits_run", "count"),
    ("service.software_pairs", "count"),
    ("service.max_queue_depth", "count"),
    ("service.worker_busy_share", "share"),
    ("io.checkpoint_record_p50_us", "us"),
    ("io.checkpoint_record_p99_us", "us"),
    ("proto.encode_us", "us"),
    ("proto.parse_us", "us"),
    ("server.rtt_unloaded_us", "us"),
    ("server.self_us", "us"),
    ("server.rejected", "count"),
    ("server.retries", "count"),
    ("server.software_pairs", "count"),
    ("server.max_queue_depth", "count"),
    ("loadgen.lag_p99_ms", "ms"),
    ("loadgen.backlog_end", "count"),
    ("align_core.sw_align_us", "us"),
    ("sim.predicted_gcups", "GCUPS"),
    ("sim.measured_over_predicted", "x"),
    ("trace.overhead_us", "us"),
    ("trace.overhead_share", "share"),
];

/// What each workload drives.
#[derive(Clone, Copy)]
pub enum Kind {
    /// `BatchExecutor::run` rounds over a fixed pool of pairs.
    Batch { audit: bool },
    /// An in-process durable server: open-loop then closed-loop phase.
    Serve,
}

/// One benchmark workload: its inputs and what drives them. The reasons
/// for each are in `perfbench/README.md` and `BENCHMARK.json`.
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    pub config: AlignmentConfig,
    /// Human-readable shape, printed with every run.
    pub shape: &'static str,
    /// The seeded pairs (all of them run in every batch round).
    pub dataset: fn(u64) -> Dataset,
    /// Pairs the traced pass probes, and how often it repeats them.
    pub probe_pairs: usize,
    pub probe_reps: usize,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "batch-long-dna",
        kind: Kind::Batch { audit: false },
        config: AlignmentConfig::DnaGap,
        shape: "BatchExecutor jobs=2 audit=off breaker=off; 24 pairs DnaGap 2000 bp ErrorProfile::ont()",
        dataset: |seed| {
            Dataset::synthetic(AlignmentConfig::DnaGap, 2000, 24, ErrorProfile::ont(), seed)
        },
        probe_pairs: 6,
        probe_reps: 2,
    },
    Workload {
        name: "batch-protein-audited",
        kind: Kind::Batch { audit: true },
        config: AlignmentConfig::Protein,
        shape: "BatchExecutor jobs=2 audit=1.0 breaker=default; 512 pairs Dataset::uniprot_like (~350 aa, EW=6)",
        dataset: |seed| Dataset::uniprot_like(512, seed),
        probe_pairs: 96,
        probe_reps: 2,
    },
    Workload {
        name: "serve-durable-short",
        kind: Kind::Serve,
        config: AlignmentConfig::DnaEdit,
        shape: "Server jobs=2 audit=off checkpoint=on queue_cap=1024, durable sessions; 2048 pairs DnaEdit 150 bp ErrorProfile::moderate(); open loop 500/s, then closed loop window 8",
        dataset: |seed| {
            Dataset::synthetic(AlignmentConfig::DnaEdit, 150, 2048, ErrorProfile::moderate(), seed)
        },
        probe_pairs: 256,
        probe_reps: 2,
    },
];

/// The seeded inputs of one workload, with the golden scores computed
/// before any timing starts.
pub struct Inputs {
    pub config: AlignmentConfig,
    pub pairs: Vec<(Sequence, Sequence)>,
    pub texts: Vec<(String, String)>,
    pub golden: Vec<i32>,
    pub cells: Vec<u64>,
}

impl Inputs {
    fn generate(w: &Workload, seed: u64) -> Inputs {
        let pairs: Vec<(Sequence, Sequence)> =
            (w.dataset)(seed).pairs.into_iter().map(|p| (p.query, p.reference)).collect();
        let texts = pairs.iter().map(|(q, r)| (q.to_text(), r.to_text())).collect();
        let cells = pairs.iter().map(|(q, r)| q.len() as u64 * r.len() as u64).collect();
        let golden = golden_scores(&pairs, w.config);
        Inputs { config: w.config, pairs, texts, golden, cells }
    }

    /// Whether `(score, cigar)` is a valid optimal alignment of pair `i`:
    /// the CIGAR re-scores to `score` against the pair's sequences, and
    /// `score` equals the golden DP score.
    pub fn check(&self, i: usize, alignment: &smx::align::Alignment) -> bool {
        let Some((q, r)) = self.pairs.get(i) else { return false };
        alignment.score == self.golden[i]
            && alignment.verify(q.codes(), r.codes(), &self.config.scoring()).is_ok()
    }
}

/// Golden scores from `dp::score_only`, split over the worker jobs.
fn golden_scores(pairs: &[(Sequence, Sequence)], config: AlignmentConfig) -> Vec<i32> {
    let scheme = config.scoring();
    let chunk = pairs.len().div_ceil(JOBS).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = pairs
            .chunks(chunk)
            .map(|part| {
                let scheme = &scheme;
                s.spawn(move || {
                    part.iter()
                        .map(|(q, r)| smx::align::dp::score_only(q.codes(), r.codes(), scheme))
                        .collect::<Vec<i32>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("golden DP thread panicked")).collect()
    })
}

/// One named measurement.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    /// `false` when the workload does not cross this layer (value 0).
    pub applies: bool,
}

/// Everything one workload run reports.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    /// Pairs that did not finish correctly: failed, shed, rejected,
    /// missing, or wrong.
    pub failed: u64,
    /// Completed pairs whose output did not verify.
    pub wrong: u64,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
}

impl Report {
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.push(Metric { name, value, applies: true });
    }

    pub fn na(&mut self, name: &'static str) {
        self.metrics.push(Metric { name, value: 0.0, applies: false });
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: DEFAULT_SEED, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| format!("bad --seconds {value}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 120.0) {
                    return Err(format!("--seconds {value} outside (0, 120]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// Host facts that change the numbers: results from hosts that differ
/// in any of them must not be compared silently.
fn host_line(config: AlignmentConfig, len: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = simd::selected_kernel(Baseline::Auto, &config.scoring(), len, len).name();
    let forced = std::env::var("SMX_FORCE_SCALAR").unwrap_or_else(|_| "unset".into());
    format!("# host: nproc={nproc} simd_kernel={kernel} SMX_FORCE_SCALAR={forced}")
}

/// Scratch directory for checkpoints and span dumps, inside the
/// checkout the benchmark runs from.
fn out_dir() -> PathBuf {
    PathBuf::from("perfbench").join("out")
}

/// Where the traced pass writes its spans.
pub fn spans_path(w: &Workload) -> PathBuf {
    out_dir().join(format!("{}.spans.jsonl", w.name))
}

fn run_workload(w: &Workload, args: &Args) -> Result<Report, String> {
    let t = std::time::Instant::now();
    let inputs = Inputs::generate(w, args.seed);
    let mean_len = inputs.pairs.iter().map(|(q, _)| q.len()).sum::<usize>() / inputs.pairs.len();
    println!(
        "# workload {} seed={} seconds={} trace={}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("# shape: {}", w.shape);
    println!("{}", host_line(w.config, mean_len));
    println!(
        "# inputs: {} pairs, {} cells, golden DP in {:.2} s (outside every metric)",
        inputs.pairs.len(),
        inputs.cells.iter().sum::<u64>(),
        t.elapsed().as_secs_f64()
    );
    let scratch = out_dir().join(format!("run-{}-{}", w.name, std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("create {}: {e}", scratch.display()))?;
    let result = match w.kind {
        Kind::Batch { audit } => batch::run(w, audit, &inputs, args.seconds, args.trace, &scratch),
        Kind::Serve => serve::run(w, &inputs, args.seed, args.seconds, args.trace, &scratch),
    };
    let _ = std::fs::remove_dir_all(&scratch);
    let mut report = result?;
    if args.trace {
        report.note(format!("spans written to {}", spans_path(w).display()));
    }
    Ok(report)
}

/// Prints the human-readable rows for `wanted` metrics, a `[module]`
/// header before each new module when `grouped`, and returns the JSON
/// `metrics` members.
fn render(report: &Report, wanted: &[(&str, &str)], grouped: bool, prefix: &str) -> Vec<String> {
    let mut json = Vec::new();
    let mut group = "";
    for &(name, unit) in wanted {
        let module = name.split('.').next().unwrap_or(name);
        if grouped && module != group {
            println!("[{module}]");
            group = module;
        }
        let (value, applies) = match report.get(name) {
            Some(m) if m.value.is_finite() => (m.value, m.applies),
            _ => (0.0, false),
        };
        let mark = if applies { "" } else { "  (n/a: not reached or not valid in this run)" };
        println!("  {name:<34} {value:>14.6} {unit}{mark}");
        json.push(format!("\"{prefix}{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
    }
    json
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1]",
                WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>().join("|")
            );
            return ExitCode::from(2);
        }
    };
    let selected: Vec<&Workload> = if args.workload == "all" {
        WORKLOADS.iter().collect()
    } else {
        match WORKLOADS.iter().find(|w| w.name == args.workload) {
            Some(w) => vec![w],
            None => {
                eprintln!("perfbench: unknown workload {}", args.workload);
                return ExitCode::from(2);
            }
        }
    };
    let (mut attempted, mut failed, mut wrong) = (0u64, 0u64, 0u64);
    let mut json = Vec::new();
    for w in &selected {
        let report = match run_workload(w, &args) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("perfbench: {}: {e}", w.name);
                return ExitCode::from(1);
            }
        };
        for line in &report.notes {
            println!("# {line}");
        }
        let prefix = if selected.len() > 1 { format!("{}/", w.name) } else { String::new() };
        if args.trace {
            json.extend(render(&report, LAYER_METRICS, true, &prefix));
            json.extend(render(&report, WALL_METRICS, true, &prefix));
        } else {
            json.extend(render(&report, E2E_METRICS, false, &prefix));
            println!("[wall clock, printed but not gated]");
            render(&report, WALL_METRICS, false, &prefix);
        }
        attempted += report.attempted;
        failed += report.failed;
        wrong += report.wrong;
    }
    let correct = wrong == 0 && attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        json.join(", ")
    );
    if wrong > 0 {
        eprintln!("perfbench: {wrong} outputs did not match the golden DP");
        return ExitCode::from(3);
    }
    ExitCode::SUCCESS
}
