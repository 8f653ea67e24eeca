//! `smx-cli` subcommand implementations.

use crate::args::Args;
use smx::prelude::*;
use smx_io::fasta;
use smx_io::pairs::pair_positional;
use std::fs::File;

/// Generic failure (bad arguments, I/O, any untyped batch failure).
pub const EXIT_GENERIC: i32 = 2;
/// `--strict` batch ended with pairs shed at admission.
pub const EXIT_SHED: i32 = 3;
/// `--strict` batch ended with pairs past their deadline.
pub const EXIT_DEADLINE: i32 = 4;
/// `--strict` batch ended with a fail-closed integrity violation.
pub const EXIT_INTEGRITY: i32 = 5;
/// `serve` was forced down by a second SIGTERM/SIGINT mid-drain: the
/// process exited immediately, abandoning in-flight pairs (their records
/// are still crash-consistent and replay on resume).
pub const EXIT_FORCED: i32 = 6;
/// `serve` drained cleanly but at least one executor shard ended the
/// run permanently quarantined (its restart budget was spent): the
/// service ran degraded and a supervisor should schedule a replacement.
pub const EXIT_QUARANTINE: i32 = 7;

/// A command failure carrying its process exit code, so scripted callers
/// can branch on *why* a strict batch failed without parsing stderr.
#[derive(Debug)]
pub struct CliError {
    /// Process exit code (see the `EXIT_*` constants).
    pub code: i32,
    /// Human-readable message printed to stderr.
    pub message: String,
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} (exit code {})", self.message, self.code)
    }
}

impl From<String> for CliError {
    fn from(message: String) -> CliError {
        CliError { code: EXIT_GENERIC, message }
    }
}

impl From<&str> for CliError {
    fn from(message: &str) -> CliError {
        CliError { code: EXIT_GENERIC, message: message.to_string() }
    }
}

/// The switches the CLI knows: `--key`, no value.
pub const SWITCHES: &[&str] = &[
    "score-only",
    "pretty",
    "help",
    "strict",
    "no-degrade",
    "shed",
    "breaker",
    "quarantine",
    "resume-sessions",
];

/// The options the CLI knows: `--key value`.
pub const OPTIONS: &[&str] = &[
    "addr",
    "algorithm",
    "audit-rate",
    "audit-seed",
    "backoff",
    "band",
    "blocks",
    "breaker-cooldown",
    "breaker-probes",
    "breaker-threshold",
    "breaker-window",
    "brownout-degrade",
    "brownout-refuse",
    "brownout-shed",
    "burst",
    "checkpoint",
    "checkpoint-dir",
    "config",
    "count",
    "deadline-ms",
    "devices",
    "engine",
    "fault-rate",
    "fault-seed",
    "hedge-after-ms",
    "jobs",
    "len",
    "max-conns",
    "max-outstanding",
    "max-retries",
    "name",
    "out",
    "overlap",
    "parse",
    "port",
    "profile",
    "quarantine-alpha",
    "quarantine-period",
    "quarantine-probes",
    "quarantine-threshold",
    "queue-cap",
    "rate",
    "resume",
    "retry-attempts",
    "retry-backoff-ms",
    "seed",
    "shards",
    "silent-rate",
    "supervisor-interval-ms",
    "supervisor-max-restarts",
    "supervisor-stale",
    "sv",
    "watchdog",
    "window",
    "workers",
    "xdrop",
];

/// Top-level usage text.
pub const USAGE: &str = "\
smx-cli: SMX heterogeneous sequence alignment (reproduction)

commands:
  align    --config <cfg> [--algorithm <algo>] [--engine <eng>] [--band N]
           [--window N --overlap N] [--xdrop F] [--workers N] [--score-only]
           [--pretty]
           [--fault-rate F] [--fault-seed N] [--max-retries N] [--backoff N]
           [--watchdog N] [--strict] [--no-degrade]
           [--jobs N] [--queue-cap N] [--shed] [--deadline-ms N]
           [--checkpoint <manifest>] [--resume <manifest>]
           [--breaker] [--breaker-window N] [--breaker-threshold F]
           [--breaker-cooldown N] [--breaker-probes N]
           [--devices N] [--silent-rate F]
           [--audit-rate F] [--audit-seed N] [--hedge-after-ms N]
           [--quarantine] [--quarantine-threshold F] [--quarantine-alpha F]
           [--quarantine-period N] [--quarantine-probes N]
           <query.fa|fastq> <reference.fa|fastq>
  serve    [--addr HOST:PORT | --port N] --config <cfg> [--workers N]
           [--jobs N] [--queue-cap N] [--deadline-ms N] [--devices N]
           [--fault-rate F] [--silent-rate F] [--audit-rate F]
           [--hedge-after-ms N] [--breaker ...] [--quarantine ...]
           [--rate F] [--burst F] [--max-conns N] [--max-outstanding N]
           [--retry-attempts N] [--retry-backoff-ms N]
           [--brownout-shed F] [--brownout-degrade F] [--brownout-refuse F]
           [--checkpoint-dir DIR] [--resume-sessions]
           [--shards N] [--supervisor-interval-ms N]
           [--supervisor-stale N] [--supervisor-max-restarts N]
  datagen  --config <cfg> --len N --count N [--profile perfect|moderate|hifi|ont]
           [--sv N] [--seed N] --out <pairs.fa>
  simulate --config <cfg> --len N [--blocks N] [--workers N]
  matrix   --name blosum50|blosum62|pam250 [--out <file>] | --parse <file>
  info

configs:    dna-edit | dna-gap | protein | ascii
algorithms: full | banded | adaptive | xdrop | hirschberg | window
engines:    software | simd | dpx | gmx | smx-1d | smx-2d | smx | gact

fault injection (align): --fault-rate > 0 runs the batch through the
batch executor (one job, in input order, unless --jobs says otherwise)
on a functional SMX device with a seeded deterministic fault plan;
faulty tiles are retried (--max-retries, --backoff cycles) and then
recomputed in software unless --strict; a pair whose device attempt
still fails is recomputed whole on the software path. --no-degrade
makes the executor fail closed instead: such a pair fails with its
structured device error, and so does a pair whose audit retry also
fails (integrity violation). A failed pair prints `failed: <error>`; stderr
carries the service footer — `# pairs:`, `# failures:`, `# routing:`,
`# defenses:`, `# pool:`, `# faults:` and one `# device N:` line per
device, the format `serve` prints at drain. --strict also exits
non-zero when any pair in a batch fails.

batch service (align): --jobs N runs the batch on N worker threads that
share the --devices pool (default 1 device), fed from a bounded queue
(--queue-cap); a full queue blocks the submitter unless --shed drops
the pair. --deadline-ms bounds each pair's wall-clock time, enforced at
tile boundaries. --breaker (tuned by
--breaker-window/-threshold/-cooldown/-probes) trips the pool to the
software baseline when the device fault rate spikes, probing its way
back. --checkpoint appends completed pairs to a crash-safe manifest;
--resume skips pairs already recorded there, byte-identically.

integrity + fleet health (align): --devices N spreads the batch over a
pool of N simulated devices, each with its own reseeded fault plan,
breaker, and EWMA health score. --silent-rate F makes a fraction of
device results silently corrupt (no checksum trips) — only the audit
catches those. --audit-rate F re-verifies that fraction of device
alignments against the scoring scheme; a failed audit is retried once
on-device, then recomputed in software, so output stays byte-identical.
--quarantine (tuned by --quarantine-threshold/-alpha/-period/-probes)
sidelines chronically unhealthy devices and readmits them only after
consecutive clean known-answer canaries. --hedge-after-ms N re-runs a
pair on the software baseline when the device attempt exceeds N ms.

server (serve): runs the batch-service stack as a long-lived framed-TCP
front door (4-byte big-endian length prefix + tab-separated text). Each
connection opens with HELLO <tenant> <priority> <session> <deadline-ms>;
pairs are admitted through a per-tenant token bucket into a three-class
strict-priority queue; the bucket is off unless --rate F (pairs/s) is
given, and --burst F defaults to the rate. Overload walks a brownout
ladder (--brownout-shed/-degrade/-refuse occupancy thresholds): shed
audit/hedge extras, degrade low-priority tenants to the software
baseline, then refuse low-priority work with a typed REJECT carrying a
retry-after hint. --checkpoint-dir makes sessions crash-consistent:
results are acked only after an fsynced manifest record, so kill -9 plus
a --resume-sessions restart replays exactly the acked pairs,
byte-identically. SIGTERM drains gracefully: stop accepting, flush
in-flight pairs, report per-tenant counts. Send a STATS frame (or read
the drain report) for per-tenant admission/shed/deadline counters.

sharded fleet (serve): --shards N splits the executor into N
independent fault domains, each with a disjoint slice of the worker
threads and device pool behind its own bounded queue. A dispatcher
hashes (tenant, pair) to a home shard and overflows to the next live
shard in ring order; idle workers steal from the deepest sibling queue
that is not quarantined. A supervisor samples per-shard heartbeats
every --supervisor-interval-ms and walks a containment ladder on any
shard whose heartbeat and completion counters both freeze for
--supervisor-stale consecutive samples (a healthy worker beats even
while idle): degrade (steal-only) -> drain-and-restart in place
(queued pairs requeued to live shards first) -> permanent quarantine
after --supervisor-max-restarts restarts, with the lost capacity
re-advertised to admission and brownout.

exit codes: see the README table. 0 success; 2 generic error. Under
--strict, typed codes rank the worst failure in the batch: 3 pairs
shed at admission, 4 deadline exceeded, 5 integrity violation (most
severe wins, i.e. numeric max). serve exits 6 when a second
SIGTERM/SIGINT arrives mid-drain (the drain is abandoned; acked pairs
stay durable), and 7 after a clean drain that ends with at least one
shard permanently quarantined.
";

fn parse_config(name: &str) -> Result<AlignmentConfig, String> {
    AlignmentConfig::ALL
        .into_iter()
        .find(|c| c.name() == name)
        .ok_or_else(|| format!("unknown config {name:?} (try dna-edit, dna-gap, protein, ascii)"))
}

fn parse_engine(name: &str) -> Result<EngineKind, String> {
    [
        EngineKind::Software,
        EngineKind::Simd,
        EngineKind::Dpx,
        EngineKind::Gmx,
        EngineKind::Smx1d,
        EngineKind::Smx2d,
        EngineKind::Smx,
        EngineKind::Gact,
    ]
    .into_iter()
    .find(|e| e.name() == name)
    .ok_or_else(|| format!("unknown engine {name:?}"))
}

fn parse_algorithm(args: &Args) -> Result<Algorithm, String> {
    let band = args.get_num("band", 64usize).map_err(|e| e.to_string())?;
    let window = args.get_num("window", 320usize).map_err(|e| e.to_string())?;
    let overlap = args.get_num("overlap", 128usize).map_err(|e| e.to_string())?;
    let xdrop = args.get_num("xdrop", 0.08f64).map_err(|e| e.to_string())?;
    match args.get_or("algorithm", "full") {
        "full" => Ok(Algorithm::Full),
        "banded" => Ok(Algorithm::Banded { band }),
        "adaptive" => Ok(Algorithm::AdaptiveBanded { width: 2 * band + 1 }),
        "xdrop" => Ok(Algorithm::Xdrop { band, fraction: xdrop }),
        "hirschberg" => Ok(Algorithm::Hirschberg),
        "window" => Ok(Algorithm::Window { w: window, o: overlap }),
        other => Err(format!("unknown algorithm {other:?}")),
    }
}

/// Loads records from a FASTA or FASTQ file (by extension).
fn load_records(path: &str) -> Result<Vec<fasta::Record>, String> {
    let file = File::open(path).map_err(|e| format!("{path}: {e}"))?;
    if path.ends_with(".fastq") || path.ends_with(".fq") {
        let records = smx_io::fastq::parse(file).map_err(|e| e.to_string())?;
        Ok(records.into_iter().map(smx_io::fastq::FastqRecord::into_fasta).collect())
    } else {
        fasta::parse(file).map_err(|e| e.to_string())
    }
}

/// `smx-cli align`: align FASTA/FASTQ files record-by-record.
pub fn align(args: &Args) -> Result<(), CliError> {
    let [_, query_path, ref_path] = args.positional.as_slice() else {
        return Err("align needs <query.fa> <reference.fa>".into());
    };
    let config = parse_config(args.get_or("config", "dna-edit"))?;
    let engine = parse_engine(args.get_or("engine", "smx"))?;
    let algorithm = parse_algorithm(args)?;
    let workers = args.get_num("workers", 4usize).map_err(|e| e.to_string())?;
    let score_only = args.switch("score-only");

    let queries = load_records(query_path)?;
    let references = load_records(ref_path)?;
    let named =
        pair_positional(&queries, &references, config.alphabet()).map_err(|e| e.to_string())?;
    if named.is_empty() {
        return Err("no record pairs to align".into());
    }

    let fault_rate = args.get_num("fault-rate", 0.0f64).map_err(|e| e.to_string())?;
    if service_requested(args) || fault_rate > 0.0 {
        return align_service(args, &named, config, workers, fault_rate);
    }

    let mut aligner = SmxAligner::new(config);
    aligner.algorithm(algorithm).engine(engine).workers(workers).score_only(score_only);
    let pairs: Vec<SeqPair> = named
        .iter()
        .map(|p| SeqPair { query: p.query.clone(), reference: p.reference.clone() })
        .collect();
    let report = aligner.run_batch(&pairs).map_err(|e| e.to_string())?;

    let pretty = args.switch("pretty");
    for (p, o) in named.iter().zip(&report.outcomes) {
        match (&o.score, &o.alignment) {
            (Some(s), Some(a)) => {
                println!("{}\t{}\tscore={s}\tcigar={}", p.query_id, p.reference_id, a.cigar);
                if pretty {
                    match smx::align::pretty::render(&a.cigar, &p.query, &p.reference, 60) {
                        Ok(text) => print!("{text}"),
                        Err(e) => eprintln!("# render failed: {e}"),
                    }
                }
            }
            (Some(s), None) => println!("{}\t{}\tscore={s}", p.query_id, p.reference_id),
            (None, _) => println!("{}\t{}\tdropped", p.query_id, p.reference_id),
        }
    }
    eprintln!(
        "# engine={engine} cycles={:.0} ({:.3} GCUPS at 1 GHz, {} pairs)",
        report.timing.cycles,
        report.gcups(),
        pairs.len()
    );
    Ok(())
}

/// Whether any batch-service flag was given, routing `align` through the
/// [`BatchExecutor`] instead of the plain [`SmxAligner`] path.
fn service_requested(args: &Args) -> bool {
    args.get("jobs").is_some()
        || args.get("queue-cap").is_some()
        || args.get("deadline-ms").is_some()
        || args.get("checkpoint").is_some()
        || args.get("resume").is_some()
        || args.switch("shed")
        || args.switch("breaker")
        || args.get("breaker-window").is_some()
        || args.get("breaker-threshold").is_some()
        || args.get("breaker-cooldown").is_some()
        || args.get("breaker-probes").is_some()
        || args.get("devices").is_some()
        || args.get("silent-rate").is_some()
        || args.get("audit-rate").is_some()
        || args.get("audit-seed").is_some()
        || args.get("hedge-after-ms").is_some()
        || quarantine_requested(args)
}

/// Whether any quarantine flag was given, enabling health scoring and
/// canary-gated readmission in the device pool.
fn quarantine_requested(args: &Args) -> bool {
    args.switch("quarantine")
        || args.get("quarantine-threshold").is_some()
        || args.get("quarantine-alpha").is_some()
        || args.get("quarantine-period").is_some()
        || args.get("quarantine-probes").is_some()
}

/// The tile-recovery policy for a fault-injected device.
fn recovery_policy(args: &Args) -> Result<RecoveryPolicy, String> {
    Ok(RecoveryPolicy {
        max_retries: args.get_num("max-retries", 2u32).map_err(|e| e.to_string())?,
        backoff_cycles: args.get_num("backoff", 16u64).map_err(|e| e.to_string())?,
        watchdog_cycles: args.get_num("watchdog", 4096u64).map_err(|e| e.to_string())?,
        software_fallback: !args.switch("strict"),
    })
}

/// Builds the (possibly fault-injected) template device shared by the
/// batch-service path and the server.
fn service_device(
    args: &Args,
    config: AlignmentConfig,
    workers: usize,
    fault_rate: f64,
) -> Result<SmxDevice, String> {
    let silent_rate = args.get_num("silent-rate", 0.0f64).map_err(|e| e.to_string())?;
    let mut dev = SmxDevice::new(config, workers).map_err(|e| e.to_string())?;
    if fault_rate > 0.0 || silent_rate > 0.0 {
        let seed = args.get_num("fault-seed", 42u64).map_err(|e| e.to_string())?;
        let plan = FaultPlan::new(seed, fault_rate).with_silent_rate(silent_rate);
        dev.enable_fault_injection(plan, recovery_policy(args)?);
    }
    Ok(dev)
}

/// Parses the executor flags shared by `align --jobs ...` and `serve`.
fn executor_config(args: &Args) -> Result<ExecutorConfig, String> {
    use std::time::Duration;

    let jobs = args.get_num("jobs", 1usize).map_err(|e| e.to_string())?;
    let queue_cap = args.get_num("queue-cap", 64usize).map_err(|e| e.to_string())?;
    let deadline_ms = args.get_num("deadline-ms", 0u64).map_err(|e| e.to_string())?;

    let breaker_requested = args.switch("breaker")
        || args.get("breaker-window").is_some()
        || args.get("breaker-threshold").is_some()
        || args.get("breaker-cooldown").is_some()
        || args.get("breaker-probes").is_some();
    let defaults = BreakerConfig::default();
    let breaker = breaker_requested
        .then(|| -> Result<BreakerConfig, String> {
            let window =
                args.get_num("breaker-window", defaults.window).map_err(|e| e.to_string())?;
            Ok(BreakerConfig {
                window,
                min_samples: defaults.min_samples.min(window),
                threshold: args
                    .get_num("breaker-threshold", defaults.threshold)
                    .map_err(|e| e.to_string())?,
                cooldown_pairs: args
                    .get_num("breaker-cooldown", defaults.cooldown_pairs)
                    .map_err(|e| e.to_string())?,
                probes: args
                    .get_num("breaker-probes", defaults.probes)
                    .map_err(|e| e.to_string())?,
            })
        })
        .transpose()?;

    let devices = args.get_num("devices", 1usize).map_err(|e| e.to_string())?;
    let audit_rate = args.get_num("audit-rate", 0.0f64).map_err(|e| e.to_string())?;
    let audit_seed = args.get_num("audit-seed", 0u64).map_err(|e| e.to_string())?;
    let audit = (audit_rate > 0.0).then_some(AuditConfig { rate: audit_rate, seed: audit_seed });
    let hedge_after_ms = args.get_num("hedge-after-ms", 0u64).map_err(|e| e.to_string())?;
    let hedge =
        (hedge_after_ms > 0).then(|| HedgeConfig::after(Duration::from_millis(hedge_after_ms)));
    let qd = QuarantineConfig::default();
    let quarantine = quarantine_requested(args)
        .then(|| -> Result<QuarantineConfig, String> {
            Ok(QuarantineConfig {
                alpha: args.get_num("quarantine-alpha", qd.alpha).map_err(|e| e.to_string())?,
                threshold: args
                    .get_num("quarantine-threshold", qd.threshold)
                    .map_err(|e| e.to_string())?,
                min_samples: qd.min_samples,
                canary_period: args
                    .get_num("quarantine-period", qd.canary_period)
                    .map_err(|e| e.to_string())?,
                canary_probes: args
                    .get_num("quarantine-probes", qd.canary_probes)
                    .map_err(|e| e.to_string())?,
            })
        })
        .transpose()?;

    Ok(ExecutorConfig {
        jobs,
        queue_cap,
        admission: if args.switch("shed") { AdmissionPolicy::Shed } else { AdmissionPolicy::Block },
        deadline: (deadline_ms > 0).then(|| Duration::from_millis(deadline_ms)),
        breaker,
        devices,
        audit,
        hedge,
        quarantine,
        // --no-degrade: a pair the device could not compute fails with
        // its typed device error, and a failed audit retry with a typed
        // IntegrityViolation (exit code 5 under --strict), instead of a
        // software recompute.
        fail_closed: args.switch("no-degrade"),
    })
}

/// The `--strict` exit code for a batch that ended with failures, by
/// severity: integrity violation ≻ deadline exceeded ≻ shed ≻ generic.
fn strict_exit_code<'a, I: Iterator<Item = StrictFailure<'a>>>(failures: I) -> i32 {
    let mut code = EXIT_GENERIC;
    for f in failures {
        let c = match f {
            StrictFailure::Error(smx::align::AlignError::IntegrityViolation { .. }) => {
                EXIT_INTEGRITY
            }
            StrictFailure::Error(smx::align::AlignError::DeadlineExceeded { .. }) => EXIT_DEADLINE,
            StrictFailure::Shed => EXIT_SHED,
            StrictFailure::Error(_) => EXIT_GENERIC,
        };
        code = code.max(c);
    }
    code
}

/// One strict-mode failure for exit-code ranking.
enum StrictFailure<'a> {
    /// A pair failed with this typed error.
    Error(&'a smx::align::AlignError),
    /// A pair was shed at admission.
    Shed,
}

/// Batch-service path for `align`, taken for every fault-injected run
/// too: worker pool, backpressure, deadlines, circuit breaker, fault
/// recovery, and crash-safe checkpoint/resume.
fn align_service(
    args: &Args,
    named: &[smx_io::pairs::NamedPair],
    config: AlignmentConfig,
    workers: usize,
    fault_rate: f64,
) -> Result<(), CliError> {
    use smx::service::{PairOutcome, RunOptions};
    use smx_io::checkpoint::{CheckpointWriter, Manifest};
    use std::path::Path;

    let dev = service_device(args, config, workers, fault_rate)?;
    let cfg = executor_config(args)?;
    let exec = BatchExecutor::new(dev, cfg).map_err(|e| e.to_string())?;

    let resume_map = match args.get("resume") {
        Some(path) => {
            let manifest = Manifest::load(Path::new(path)).map_err(|e| e.to_string())?;
            if let Some(offset) = manifest.torn_offset {
                eprintln!(
                    "# resume: discarded a torn final line in {path} at byte offset {offset}"
                );
            }
            eprintln!("# resume: {} pairs already completed in {path}", manifest.completed.len());
            Some(manifest.completed)
        }
        None => None,
    };
    let mut writer = match args.get("checkpoint") {
        // Resuming into the same manifest: append, keeping prior records.
        Some(path) if args.get("resume") == Some(path) => {
            Some(CheckpointWriter::append(Path::new(path)).map_err(|e| e.to_string())?)
        }
        Some(path) => Some(CheckpointWriter::create(Path::new(path)).map_err(|e| e.to_string())?),
        None => None,
    };
    let mut checkpoint_err: Option<String> = None;
    // Each `record` is a one-record batch: one sync per durable record.
    let mut synced = 0u64;
    let mut on_result = |index: usize, alignment: &Alignment| {
        if let Some(w) = writer.as_mut() {
            match w.record(index, alignment) {
                Ok(()) => synced += 1,
                Err(e) => {
                    checkpoint_err.get_or_insert_with(|| e.to_string());
                }
            }
        }
    };

    let pairs: Vec<(Sequence, Sequence)> =
        named.iter().map(|p| (p.query.clone(), p.reference.clone())).collect();
    let mut report = exec.run_with(
        &pairs,
        RunOptions { resume: resume_map.as_ref(), on_result: Some(&mut on_result), cancel: None },
    );
    (report.stats.syncs, report.stats.synced_records) = (synced, synced);

    for (p, outcome) in named.iter().zip(&report.outcomes) {
        match outcome {
            PairOutcome::Aligned(a) => {
                println!("{}\t{}\tscore={}\tcigar={}", p.query_id, p.reference_id, a.score, a.cigar)
            }
            PairOutcome::Failed(e) => {
                println!("{}\t{}\tfailed: {e}", p.query_id, p.reference_id)
            }
            PairOutcome::Shed => println!("{}\t{}\tshed", p.query_id, p.reference_id),
        }
    }
    if let Some(e) = checkpoint_err {
        return Err(format!("checkpoint write failed: {e}").into());
    }

    let s = &report.stats;
    footer(s);
    if !report.all_succeeded() {
        eprintln!("{}", report.failure_summary());
        if args.switch("strict") {
            let code = strict_exit_code(report.outcomes.iter().filter_map(|o| match o {
                PairOutcome::Failed(e) => Some(StrictFailure::Error(e)),
                PairOutcome::Shed => Some(StrictFailure::Shed),
                PairOutcome::Aligned(_) => None,
            }));
            return Err(CliError {
                code,
                message: format!(
                    "batch completed with {} failed and {} shed pairs under --strict",
                    s.failed, s.shed
                ),
            });
        }
    }
    Ok(())
}

/// Prints a tally's `Display` text to stderr, one `# `-prefixed footer
/// line per line: the batch and drain footers share its format.
fn footer(tally: &impl std::fmt::Display) {
    for line in tally.to_string().lines() {
        eprintln!("# {line}");
    }
}

/// Minimal signal latch for graceful drain: a raw `signal(2)` handler
/// (no external crates) that flips an atomic the serve loop polls.
#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicUsize, Ordering};

    static RECEIVED: AtomicUsize = AtomicUsize::new(0);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        RECEIVED.fetch_add(1, Ordering::SeqCst);
    }

    /// Installs the drain handler for SIGTERM and SIGINT.
    pub fn install() {
        // SAFETY: signal(2) with a valid signum and a handler that only
        // touches an AtomicUsize (async-signal-safe); the extern declaration
        // matches the libc prototype.
        unsafe {
            signal(SIGTERM, on_signal);
            signal(SIGINT, on_signal);
        }
    }

    /// True once a drain signal has arrived.
    pub fn pending() -> bool {
        RECEIVED.load(Ordering::SeqCst) > 0
    }

    /// How many drain signals have arrived; the second one escalates a
    /// graceful drain into a forced exit.
    pub fn count() -> usize {
        RECEIVED.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod sig {
    /// Non-unix stub: never signalled; the server runs until killed.
    pub fn install() {}
    pub fn pending() -> bool {
        false
    }
    pub fn count() -> usize {
        0
    }
}

/// `smx-cli serve`: long-running framed-TCP alignment front door over the
/// batch-service stack, with admission control, brownout, and graceful
/// drain on SIGTERM/SIGINT.
pub fn serve(args: &Args) -> Result<(), CliError> {
    use smx::server::tenant::{BrownoutConfig, TenantPolicy};
    use smx::{RetryConfig, Server, ServerConfig, SupervisorConfig};
    use std::time::Duration;

    let config = parse_config(args.get_or("config", "dna-edit"))?;
    let workers = args.get_num("workers", 4usize).map_err(|e| e.to_string())?;
    let fault_rate = args.get_num("fault-rate", 0.0f64).map_err(|e| e.to_string())?;
    let dev = service_device(args, config, workers, fault_rate)?;
    let exec = executor_config(args)?;

    // The bucket is off (infinite rate) unless --rate is given; --burst
    // then defaults to one second's worth of the rate.
    let rate = args.get_num("rate", TenantPolicy::default().rate).map_err(|e| e.to_string())?;
    let burst = args.get_num("burst", rate).map_err(|e| e.to_string())?;
    let bd = BrownoutConfig::default();
    let rd = RetryConfig::default();
    let sd = SupervisorConfig::default();
    let cfg = ServerConfig {
        exec,
        policy: TenantPolicy { rate, burst },
        brownout: BrownoutConfig {
            shed_extras_at: args
                .get_num("brownout-shed", bd.shed_extras_at)
                .map_err(|e| e.to_string())?,
            degrade_low_at: args
                .get_num("brownout-degrade", bd.degrade_low_at)
                .map_err(|e| e.to_string())?,
            refuse_low_at: args
                .get_num("brownout-refuse", bd.refuse_low_at)
                .map_err(|e| e.to_string())?,
        },
        retry: RetryConfig {
            attempts: args.get_num("retry-attempts", rd.attempts).map_err(|e| e.to_string())?,
            backoff: Duration::from_millis(
                args.get_num("retry-backoff-ms", 2u64).map_err(|e| e.to_string())?,
            ),
        },
        max_conns: args.get_num("max-conns", 64usize).map_err(|e| e.to_string())?,
        max_outstanding: args.get_num("max-outstanding", 256usize).map_err(|e| e.to_string())?,
        checkpoint_dir: args.get("checkpoint-dir").map(std::path::PathBuf::from),
        resume_sessions: args.switch("resume-sessions"),
        shards: args.get_num("shards", 1usize).map_err(|e| e.to_string())?,
        supervisor: SupervisorConfig {
            interval: Duration::from_millis(
                args.get_num("supervisor-interval-ms", 50u64).map_err(|e| e.to_string())?,
            ),
            stale_intervals: args
                .get_num("supervisor-stale", sd.stale_intervals)
                .map_err(|e| e.to_string())?,
            max_restarts: args
                .get_num("supervisor-max-restarts", sd.max_restarts)
                .map_err(|e| e.to_string())?,
        },
    };

    let addr = match args.get("addr") {
        Some(a) => a.to_string(),
        None => format!("127.0.0.1:{}", args.get_or("port", "0")),
    };
    // Chaos harnesses drive a spawned server through SMX_FAILPOINTS; a
    // binary built without the feature refuses the schedule instead of
    // silently running fault-free (which would pass the harness
    // vacuously). The banner confirms to the parent what was installed.
    match smx::failpoint::install_from_env() {
        Ok(Some(schedule)) => eprintln!("# failpoints: {schedule}"),
        Ok(None) => {}
        Err(e) => return Err(CliError { code: EXIT_GENERIC, message: e.to_string() }),
    }
    let handle = Server::bind(dev, cfg, &addr).map_err(|e| e.to_string())?;
    // The storm harness and tests parse this line for the bound port, so
    // flush it before settling into the signal loop.
    println!("listening on {}", handle.addr());
    use std::io::Write as _;
    std::io::stdout().flush().ok();

    sig::install();
    while !sig::pending() {
        std::thread::sleep(Duration::from_millis(25));
    }

    eprintln!("# drain: signal received; refusing new work and flushing in-flight pairs");
    // Drain on a helper thread so a *second* signal can force the exit:
    // a supervisor whose first SIGTERM hangs on slow in-flight pairs
    // escalates, and gets a distinct typed exit code instead of a
    // process stuck past its kill grace period. Forced exit abandons
    // in-flight pairs, but every acked pair is already fsynced, so the
    // session replays them on resume exactly as after kill -9.
    let signals_at_drain = sig::count();
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = done_tx.send(handle.drain());
    });
    let report = loop {
        match done_rx.recv_timeout(Duration::from_millis(10)) {
            Ok(report) => break report,
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                if sig::count() > signals_at_drain {
                    eprintln!("# drain: second signal; forcing immediate exit");
                    std::io::stderr().flush().ok();
                    std::process::exit(EXIT_FORCED);
                }
            }
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                return Err("drain thread died before reporting".into());
            }
        }
    };
    for (tenant, c) in &report.per_tenant {
        eprintln!("# drain: tenant={tenant} {c}");
    }
    eprintln!("# drain: totals");
    footer(&report.totals);
    for s in &report.per_shard {
        eprintln!("# drain: {s}");
    }
    let quarantined = report.per_shard.iter().filter(|s| s.state == "quarantined").count();
    if quarantined > 0 {
        // The drain itself was clean (every acked pair is durable), but
        // the fleet ended the run short a shard for good: surface it as
        // a typed exit so a process supervisor schedules a replacement.
        return Err(CliError {
            code: EXIT_QUARANTINE,
            message: format!("drained with {quarantined} shard(s) permanently quarantined"),
        });
    }
    Ok(())
}

/// `smx-cli datagen`: write an interleaved pair FASTA.
pub fn datagen(args: &Args) -> Result<(), CliError> {
    let config = parse_config(args.get_or("config", "dna-edit"))?;
    let len = args.get_num("len", 1000usize).map_err(|e| e.to_string())?;
    let count = args.get_num("count", 4usize).map_err(|e| e.to_string())?;
    let seed = args.get_num("seed", 42u64).map_err(|e| e.to_string())?;
    let sv = args.get_num("sv", 0usize).map_err(|e| e.to_string())?;
    let out_path = args.get("out").ok_or("datagen needs --out <file>")?;
    let profile = match args.get_or("profile", "moderate") {
        "perfect" => smx::datagen::ErrorProfile::perfect(),
        "moderate" => smx::datagen::ErrorProfile::moderate(),
        "hifi" => smx::datagen::ErrorProfile::pacbio_hifi(),
        "ont" => smx::datagen::ErrorProfile::ont(),
        other => return Err(format!("unknown profile {other:?}").into()),
    };
    let ds = if sv > 0 {
        Dataset::ont_sv_like(config, len, sv, count, seed)
    } else {
        Dataset::synthetic(config, len, count, profile, seed)
    };
    let mut records = Vec::with_capacity(2 * count);
    for (i, p) in ds.pairs.iter().enumerate() {
        records.push(fasta::Record::new(&format!("q{i}"), &p.query.to_text()));
        records.push(fasta::Record::new(&format!("r{i}"), &p.reference.to_text()));
    }
    let file = File::create(out_path).map_err(|e| format!("{out_path}: {e}"))?;
    fasta::write(file, &records).map_err(|e| e.to_string())?;
    println!("wrote {} records ({count} pairs, {config}) to {out_path}", records.len());
    Ok(())
}

/// `smx-cli simulate`: coprocessor utilization for a block workload.
pub fn simulate(args: &Args) -> Result<(), CliError> {
    use smx::sim::coproc::{BlockShape, CoprocSim, CoprocTimingConfig};
    let config = parse_config(args.get_or("config", "dna-edit"))?;
    let len = args.get_num("len", 1000usize).map_err(|e| e.to_string())?;
    let blocks = args.get_num("blocks", 8usize).map_err(|e| e.to_string())?;
    let workers = args.get_num("workers", 4usize).map_err(|e| e.to_string())?;
    let ew = config.element_width();
    let sim = CoprocSim::new(CoprocTimingConfig::for_ew(ew, workers));
    let r = sim.simulate_uniform(BlockShape::from_dims(len, len, ew, false), blocks);
    println!("config {config} (EW {ew}), {blocks} blocks of {len}x{len}, {workers} workers");
    println!("  cycles            : {}", r.cycles);
    println!("  tiles             : {}", r.tiles);
    println!("  engine utilization: {:.1}%", r.utilization * 100.0);
    println!("  L2 port busy      : {:.1}%", r.port_utilization * 100.0);
    println!(
        "  throughput        : {:.1} GCUPS at 1 GHz",
        (len * len * blocks) as f64 / r.cycles as f64
    );
    Ok(())
}

/// `smx-cli matrix`: print, export, or validate substitution matrices.
pub fn matrix(args: &Args) -> Result<(), CliError> {
    use smx::align::SubstMatrix;
    if let Some(path) = args.get("parse") {
        let file = File::open(path).map_err(|e| format!("{path}: {e}"))?;
        let m = smx_io::matrix::parse(file).map_err(|e| e.to_string())?;
        println!(
            "parsed matrix: scores in [{}, {}], symmetric, usable for protein alignment",
            m.min_score(),
            m.max_score()
        );
        return Ok(());
    }
    let name = args.get_or("name", "blosum50");
    let m = match name {
        "blosum50" => SubstMatrix::blosum50(),
        "blosum62" => SubstMatrix::blosum62(),
        "pam250" => SubstMatrix::pam250(),
        other => return Err(format!("unknown matrix {other:?}").into()),
    };
    match args.get("out") {
        Some(path) => {
            let file = File::create(path).map_err(|e| format!("{path}: {e}"))?;
            smx_io::matrix::write(file, &m).map_err(|e| e.to_string())?;
            println!("wrote {name} to {path}");
        }
        None => {
            smx_io::matrix::write(std::io::stdout().lock(), &m).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// `smx-cli info`: configuration and physical-design summary.
pub fn info() -> Result<(), CliError> {
    use smx::physical::area::AreaModel;
    let model = AreaModel::new();
    println!("SMX configurations:");
    for c in AlignmentConfig::ALL {
        let ew = c.element_width();
        println!(
            "  {:<9} EW={}  VL={:<3} peak {:>4} GCUPS  pipeline {} cycles",
            c.name(),
            ew,
            ew.vl(),
            ew.vl() * ew.vl(),
            ew.engine_pipeline_depth()
        );
    }
    println!();
    println!("physical design (22nm model):");
    println!(
        "  SMX-1D {:.4} mm^2, SMX-2D {:.4} mm^2, total {:.4} mm^2",
        model.smx1d_area(),
        model.smx2d_area(),
        model.total_area()
    );
    println!("  power {:.3} mW at 20% activity", model.power_mw(0.2));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_and_engine_parsing() {
        assert_eq!(parse_config("protein").unwrap(), AlignmentConfig::Protein);
        assert!(parse_config("dna").is_err());
        assert_eq!(parse_engine("smx-1d").unwrap(), EngineKind::Smx1d);
        assert!(parse_engine("tpu").is_err());
    }

    #[test]
    fn algorithm_parsing_with_params() {
        let a = Args::parse(
            ["--algorithm", "banded", "--band", "32"].iter().map(|s| s.to_string()),
            SWITCHES,
            OPTIONS,
        )
        .unwrap();
        assert_eq!(parse_algorithm(&a).unwrap(), Algorithm::Banded { band: 32 });
        let w = Args::parse(
            ["--algorithm", "window", "--window", "64", "--overlap", "16"]
                .iter()
                .map(|s| s.to_string()),
            SWITCHES,
            OPTIONS,
        )
        .unwrap();
        assert_eq!(parse_algorithm(&w).unwrap(), Algorithm::Window { w: 64, o: 16 });
    }

    #[test]
    fn datagen_then_align_roundtrip() {
        let dir = std::env::temp_dir().join("smx-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let pairs_path = dir.join("pairs.fa");
        let out = pairs_path.to_str().unwrap().to_string();
        let gen_args = Args::parse(
            ["datagen", "--config", "dna-edit", "--len", "120", "--count", "2", "--out", &out]
                .iter()
                .map(|s| s.to_string()),
            SWITCHES,
            OPTIONS,
        )
        .unwrap();
        datagen(&gen_args).unwrap();

        // Split interleaved pairs into two files for align.
        let recs = fasta::parse(File::open(&pairs_path).unwrap()).unwrap();
        assert_eq!(recs.len(), 4);
        let qs: Vec<_> = recs.iter().step_by(2).cloned().collect();
        let rs: Vec<_> = recs.iter().skip(1).step_by(2).cloned().collect();
        let qp = dir.join("q.fa");
        let rp = dir.join("r.fa");
        fasta::write(File::create(&qp).unwrap(), &qs).unwrap();
        fasta::write(File::create(&rp).unwrap(), &rs).unwrap();

        let align_args = Args::parse(
            [
                "align",
                "--config",
                "dna-edit",
                "--algorithm",
                "hirschberg",
                qp.to_str().unwrap(),
                rp.to_str().unwrap(),
            ]
            .iter()
            .map(|s| s.to_string()),
            SWITCHES,
            OPTIONS,
        )
        .unwrap();
        align(&align_args).unwrap();
    }

    #[test]
    fn align_with_fault_injection_recovers() {
        let dir = std::env::temp_dir().join("smx-cli-faults");
        std::fs::create_dir_all(&dir).unwrap();
        let qp = dir.join("q.fa");
        let rp = dir.join("r.fa");
        std::fs::write(&qp, ">q0\nGATTACAGATTACAGATTACAGATTACA\n").unwrap();
        std::fs::write(&rp, ">r0\nGATTACACATTACAGATTACAGATTACA\n").unwrap();
        let a = Args::parse(
            [
                "align",
                "--config",
                "dna-edit",
                "--fault-rate",
                "0.05",
                "--fault-seed",
                "7",
                qp.to_str().unwrap(),
                rp.to_str().unwrap(),
            ]
            .iter()
            .map(|s| s.to_string()),
            SWITCHES,
            OPTIONS,
        )
        .unwrap();
        align(&a).unwrap();
        // Strict + no-degrade with a certain fault fails the pair closed
        // and — under --strict — the whole command exits non-zero.
        let b = Args::parse(
            [
                "align",
                "--config",
                "dna-edit",
                "--fault-rate",
                "1.0",
                "--max-retries",
                "0",
                "--strict",
                "--no-degrade",
                qp.to_str().unwrap(),
                rp.to_str().unwrap(),
            ]
            .iter()
            .map(|s| s.to_string()),
            SWITCHES,
            OPTIONS,
        )
        .unwrap();
        let err = align(&b).unwrap_err();
        assert!(err.message.contains("--strict"), "{err}");
        // Without --strict the same storm completes with failures noted.
        let c = Args::parse(
            [
                "align",
                "--config",
                "dna-edit",
                "--fault-rate",
                "1.0",
                "--max-retries",
                "0",
                "--no-degrade",
                qp.to_str().unwrap(),
                rp.to_str().unwrap(),
            ]
            .iter()
            .map(|s| s.to_string()),
            SWITCHES,
            OPTIONS,
        )
        .unwrap();
        align(&c).unwrap();
    }

    #[test]
    fn align_service_pool_with_checkpoint_and_resume() {
        let dir = std::env::temp_dir().join("smx-cli-service");
        std::fs::create_dir_all(&dir).unwrap();
        let qp = dir.join("q.fa");
        let rp = dir.join("r.fa");
        let mut qs = String::new();
        let mut rs = String::new();
        for i in 0..6 {
            qs.push_str(&format!(">q{i}\nGATTACAGATTACAGATTACAGATTACA\n"));
            rs.push_str(&format!(">r{i}\nGATTACACATTACAGATTACAGATTAC{}\n", ["A", "T"][i % 2]));
        }
        std::fs::write(&qp, qs).unwrap();
        std::fs::write(&rp, rs).unwrap();
        let manifest = dir.join("ckpt.tsv");
        let _ = std::fs::remove_file(&manifest);
        let run = |extra: &[&str]| {
            let mut argv = vec![
                "align",
                "--config",
                "dna-edit",
                "--jobs",
                "2",
                "--fault-rate",
                "0.01",
                "--breaker",
            ];
            argv.extend_from_slice(extra);
            argv.push(qp.to_str().unwrap());
            argv.push(rp.to_str().unwrap());
            let a = Args::parse(argv.iter().map(|s| s.to_string()), SWITCHES, OPTIONS).unwrap();
            align(&a)
        };
        let m = manifest.to_str().unwrap();
        run(&["--checkpoint", m]).unwrap();
        // The manifest now holds all six pairs; resuming from it must
        // recompute nothing and still succeed.
        let loaded = smx_io::checkpoint::Manifest::load(&manifest).unwrap();
        assert_eq!(loaded.completed.len(), 6);
        run(&["--resume", m, "--checkpoint", m]).unwrap();
    }

    #[test]
    fn align_service_audit_recovers_silent_corruption_under_strict() {
        let dir = std::env::temp_dir().join("smx-cli-audit");
        std::fs::create_dir_all(&dir).unwrap();
        let qp = dir.join("q.fa");
        let rp = dir.join("r.fa");
        let mut qs = String::new();
        let mut rs = String::new();
        for i in 0..4 {
            qs.push_str(&format!(">q{i}\nGATTACAGATTACAGATTACAGATTACA\n"));
            rs.push_str(&format!(">r{i}\nGATTACACATTACAGATTACAGATTAC{}\n", ["A", "T"][i % 2]));
        }
        std::fs::write(&qp, qs).unwrap();
        std::fs::write(&rp, rs).unwrap();
        // Every device result is silently corrupted; a full audit must
        // catch each one and recover, so --strict still succeeds.
        let a = Args::parse(
            [
                "align",
                "--config",
                "dna-edit",
                "--devices",
                "2",
                "--silent-rate",
                "1.0",
                "--audit-rate",
                "1.0",
                "--hedge-after-ms",
                "5000",
                "--quarantine",
                "--strict",
                qp.to_str().unwrap(),
                rp.to_str().unwrap(),
            ]
            .iter()
            .map(|s| s.to_string()),
            SWITCHES,
            OPTIONS,
        )
        .unwrap();
        align(&a).unwrap();
    }

    #[test]
    fn align_service_strict_deadline_fails_command() {
        let dir = std::env::temp_dir().join("smx-cli-deadline");
        std::fs::create_dir_all(&dir).unwrap();
        let qp = dir.join("q.fa");
        let rp = dir.join("r.fa");
        std::fs::write(&qp, ">q0\nGATTACAGATTACAGATTACAGATTACA\n").unwrap();
        std::fs::write(&rp, ">r0\nGATTACACATTACAGATTACAGATTACA\n").unwrap();
        // A deadline that can never be met: the token is forked already
        // expired, so every pair fails with DeadlineExceeded. (1 ms can
        // flake; the executor's own zero-deadline test pins exactness.)
        let a = Args::parse(
            [
                "align",
                "--config",
                "dna-edit",
                "--jobs",
                "1",
                "--deadline-ms",
                "0",
                "--strict",
                qp.to_str().unwrap(),
                rp.to_str().unwrap(),
            ]
            .iter()
            .map(|s| s.to_string()),
            SWITCHES,
            OPTIONS,
        )
        .unwrap();
        // deadline-ms 0 disables the deadline; the run must succeed.
        align(&a).unwrap();
    }

    #[test]
    fn align_accepts_fastq_queries() {
        let dir = std::env::temp_dir().join("smx-cli-fastq");
        std::fs::create_dir_all(&dir).unwrap();
        let qp = dir.join("q.fastq");
        let rp = dir.join("r.fa");
        std::fs::write(&qp, "@q0\nACGTACGT\n+\nIIIIIIII\n").unwrap();
        std::fs::write(&rp, ">r0\nACGAACGT\n").unwrap();
        let a = Args::parse(
            ["align", "--config", "dna-edit", qp.to_str().unwrap(), rp.to_str().unwrap()]
                .iter()
                .map(|s| s.to_string()),
            SWITCHES,
            OPTIONS,
        )
        .unwrap();
        align(&a).unwrap();
    }

    #[test]
    fn simulate_and_info_run() {
        let a = Args::parse(
            ["simulate", "--config", "dna-gap", "--len", "500"].iter().map(|s| s.to_string()),
            SWITCHES,
            OPTIONS,
        )
        .unwrap();
        simulate(&a).unwrap();
        info().unwrap();
    }
}
