//! The `batch-*` workloads: rounds of `BatchExecutor::run` over the
//! whole seeded pool until the run's time is spent.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use smx::align::Alignment;
use smx::service::RunOptions;
use smx::{AuditConfig, BatchExecutor, BreakerConfig, ExecutorConfig, PairOutcome, SmxDevice};

use crate::layers::{self, Tracer};
use crate::stats::{median, peak_rss_mb, percentile, quiet, windowed, Interval, Sample};
use crate::{serve, Inputs, Report, Workload, COPROC_WORKERS, JOBS};

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 200;

/// Fewest measured rounds, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;

/// One measured round: its verified work, wall time, host steal and
/// process CPU time, and each verified pair's time to result.
#[derive(Default)]
struct Round {
    pairs: u64,
    cells: u64,
    secs: f64,
    host: Interval,
    done_ms: Vec<f64>,
}

fn executor_config(audit: bool) -> ExecutorConfig {
    ExecutorConfig {
        jobs: JOBS,
        audit: audit.then(AuditConfig::full),
        breaker: audit.then(BreakerConfig::default),
        ..ExecutorConfig::default()
    }
}

pub fn run(
    w: &Workload,
    audit: bool,
    inputs: &Inputs,
    seconds: f64,
    trace: bool,
    scratch: &Path,
) -> Result<Report, String> {
    let err = |e: smx::align::AlignError| e.to_string();
    let mut report = Report::default();

    // Set-up: device construction until the executor can take a batch.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut exec = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let device = SmxDevice::new(inputs.config, COPROC_WORKERS).map_err(err)?;
        let built = BatchExecutor::new(device, executor_config(audit)).map_err(err)?;
        setups.push(t.elapsed().as_secs_f64());
        exec = Some(black_box(built));
    }
    let exec = exec.ok_or("no executor built")?;

    // One untimed round lets lazy set-up and caches settle.
    black_box(exec.run(&inputs.pairs[..JOBS.min(inputs.pairs.len())]));

    let mut rounds: Vec<Round> = Vec::new();
    let (mut verified, mut verified_cells, mut wall) = (0u64, 0u64, 0.0f64);
    let (mut audits, mut software, mut max_depth) = (0u64, 0u64, 0usize);
    let started = Instant::now();
    while rounds.len() < MIN_ROUNDS || started.elapsed().as_secs_f64() < seconds {
        let n = inputs.pairs.len();
        let mut done_ms = vec![0.0f64; n];
        let sample = Sample::now();
        let t0 = Instant::now();
        let mut hook = |i: usize, _: &Alignment| {
            if let Some(d) = done_ms.get_mut(i) {
                *d = t0.elapsed().as_secs_f64() * 1e3;
            }
        };
        let out = exec.run_with(
            &inputs.pairs,
            RunOptions { on_result: Some(&mut hook), ..RunOptions::default() },
        );
        let mut round = Round {
            secs: t0.elapsed().as_secs_f64(),
            host: Sample::now().since(&sample),
            ..Round::default()
        };
        for (i, outcome) in out.outcomes.iter().enumerate() {
            report.attempted += 1;
            match outcome {
                PairOutcome::Aligned(a) if inputs.check(i, a) => {
                    round.pairs += 1;
                    round.cells += inputs.cells[i];
                    round.done_ms.push(done_ms[i]);
                }
                PairOutcome::Aligned(_) => {
                    report.wrong += 1;
                    report.failed += 1;
                }
                PairOutcome::Failed(_) | PairOutcome::Shed => report.failed += 1,
            }
        }
        verified += round.pairs;
        verified_cells += round.cells;
        wall += round.secs;
        audits += out.stats.audits_run;
        software += out.stats.software_pairs;
        max_depth = max_depth.max(out.stats.max_queue_depth);
        rounds.push(round);
    }

    // The gated throughput is per CPU second of the process, which the
    // hypervisor's steal does not inflate. The wall-clock figures come
    // from the rounds it disturbed least (see `stats::quiet`), each over
    // the time it left this guest.
    let per_cpu: Vec<f64> =
        rounds.iter().map(|r| r.cells as f64 / r.host.cpu_s.max(1e-3) / 1e9).collect();
    let steal: Vec<f64> = rounds.iter().map(|r| r.host.steal).collect();
    let kept: Vec<&Round> =
        rounds.iter().zip(quiet(&steal)).filter_map(|(r, keep)| keep.then_some(r)).collect();
    let live = |r: &Round| r.secs * (1.0 - r.host.steal);
    let gcups: Vec<f64> = kept.iter().map(|r| r.cells as f64 / live(r) / 1e9).collect();
    let pps: Vec<f64> = kept.iter().map(|r| r.pairs as f64 / live(r)).collect();
    let latencies: Vec<(usize, f64)> = kept
        .iter()
        .enumerate()
        .flat_map(|(k, r)| r.done_ms.iter().map(move |&d| (k, d * (1.0 - r.host.steal))))
        .collect();
    report.note(format!(
        "{} rounds of {} pairs in {:.2} s, {} verified; per-CPU GCUPS p10 {:.4} p50 {:.4} p90 {:.4}; {} rounds kept for wall-clock figures (host steal median {:.1}%)",
        rounds.len(),
        inputs.pairs.len(),
        wall,
        verified,
        percentile(&per_cpu, 0.1),
        median(&per_cpu),
        percentile(&per_cpu, 0.9),
        kept.len(),
        100.0 * median(&steal),
    ));
    report.put("gcups_per_cpu", median(&per_cpu));
    report.put("verified_share", verified as f64 / report.attempted.max(1) as f64);
    report.put("setup_s", median(&setups));
    report.put("peak_rss_mb", peak_rss_mb());
    report.put("wall.gcups", median(&gcups));
    report.put("wall.capacity_pairs_per_s", median(&pps));
    report.put("wall.latency_p50_ms", windowed(&latencies, 0.5));
    report.put("wall.latency_p95_ms", windowed(&latencies, 0.95));
    report.put("host.steal_share", median(&steal));
    if !trace {
        return Ok(report);
    }

    let mut tr = Tracer::new();
    let probe = layers::compute_probe(&mut tr, w, inputs, &mut report)?;
    report.wrong += probe.wrong;
    report.failed += probe.wrong;
    report.put("service.audits_run", audits as f64);
    report.put("service.software_pairs", software as f64);
    report.put("service.max_queue_depth", max_depth as f64);
    report.put(
        "service.worker_busy_share",
        probe.align_ns_per_cell * verified_cells as f64 / 1e9 / (wall * JOBS as f64),
    );
    if audit {
        report.note(format!(
            "check: service.audits_run {audits} {} completed pairs {verified}",
            if audits == verified { "==" } else { "!=" }
        ));
    }
    report.na("loadgen.lag_p99_ms");
    report.na("loadgen.backlog_end");
    serve::layer_probes(&mut tr, w, inputs, &probe, scratch, None, &mut report)?;
    Ok(report)
}
