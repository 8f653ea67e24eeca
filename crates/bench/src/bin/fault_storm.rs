//! **Fault storm: every batch fault scenario in one table of sections.**
//! Each section runs seeded fault plans over a [`Storm`] (a seeded
//! DnaGap dataset plus its fault-free sequential reference) and asserts
//! byte identity, score *and* CIGAR, against that reference: faults and
//! the defences against them may change *where* a pair computes, never
//! *what* it computes.
//!
//! * **device sweep**: `SmxDevice` alone across fault rates, its
//!   recovery counters beside the `CoprocSim` slowdown, identity at
//!   every rate, and a replay-determinism check at 1e-2;
//! * **breaker**: [`BatchExecutor`] under detectable fault storms with
//!   the circuit breaker off vs on;
//! * **admission**: a bounded queue, blocking backpressure vs shedding;
//! * **integrity**: results also silently corrupted at the fault rate,
//!   the single-device breaker-only service (whose escapes are counted)
//!   vs the audited pool with quarantine and hedging;
//! * **hedge**: hedge triggers on an audited two-device pool.
//!
//! Every plan is seeded, so the device sweep reprints the same table.
//! Quick mode (`SMX_BENCH_QUICK=1`) shrinks the storms for CI.

use std::time::{Duration, Instant};

use smx::algos::simd::{self, SimdWorkspace};
use smx::datagen::ErrorProfile;
use smx::prelude::*;
use smx::service::ServiceStats;
use smx::sim::{BlockShape, CoprocSim, CoprocTimingConfig, FaultTiming};
use smx::testkit::assert_byte_identical;
use smx_bench::{header, pct, ratio, row, scaled, time};

const CONFIG: AlignmentConfig = AlignmentConfig::DnaGap;
/// Seed of every fault plan (the datasets draw from seed 7).
const SEED: u64 = 42;
const JOBS: usize = 4;
const BREAKER: BreakerConfig =
    BreakerConfig { window: 8, min_samples: 4, threshold: 0.25, cooldown_pairs: 8, probes: 2 };
const QUARANTINE: QuarantineConfig = QuarantineConfig {
    alpha: 0.25,
    threshold: 0.5,
    min_samples: 4,
    canary_period: 8,
    canary_probes: 2,
};

/// A seeded DnaGap dataset and its fault-free sequential reference: the
/// byte-identity baseline of every run over it.
struct Storm {
    len: usize,
    pairs: Vec<(Sequence, Sequence)>,
    clean: Vec<Alignment>,
}

impl Storm {
    /// `count` pairs of `len` bp. Before any storm relies on them, the
    /// scalar and SIMD score kernels (the audit's fast path) must both
    /// reproduce the reference score of every pair.
    fn new(len: usize, count: usize) -> Storm {
        let ds = Dataset::synthetic(CONFIG, len, count, ErrorProfile::moderate(), 7);
        let pairs: Vec<(Sequence, Sequence)> =
            ds.pairs.into_iter().map(|p| (p.query, p.reference)).collect();
        let mut dev = SmxDevice::new(CONFIG, 4).expect("device");
        let clean: Vec<Alignment> =
            pairs.iter().map(|(q, r)| dev.align(q, r).expect("clean align")).collect();

        let scheme = CONFIG.scoring();
        let mut ws = SimdWorkspace::new();
        let [scalar_s, simd_s] = [Baseline::Scalar, Baseline::Simd].map(|baseline| {
            time(1, || {
                for ((q, r), g) in pairs.iter().zip(&clean) {
                    let p = simd::score_profile(q.codes(), r.codes(), &scheme, baseline, &mut ws);
                    assert_eq!(p.score, g.score, "{baseline} kernel diverged from the clean run");
                }
            })
        });
        println!(
            "\n{count} pairs x {len} bp: score kernels byte-identical to the clean run; {} {} \
             over scalar",
            simd::selected_kernel(Baseline::Simd, &scheme, len, len).name(),
            ratio(scalar_s, simd_s),
        );
        Storm { len, pairs, clean }
    }

    /// The storm cut to its first `count` pairs: the pairs a `count`-pair
    /// storm draws, since the generator is sequential.
    fn first(&self, count: usize) -> Storm {
        Storm {
            len: self.len,
            pairs: self.pairs[..count].to_vec(),
            clean: self.clean[..count].to_vec(),
        }
    }

    fn count(&self) -> usize {
        self.pairs.len()
    }
}

fn same(a: &Alignment, g: &Alignment) -> bool {
    a.score == g.score && a.cigar.to_string() == g.cigar.to_string()
}

/// One batch-service run over `storm`, the device injecting detectable
/// faults at rate `detectable` and silently corrupting results at rate
/// `silent`. Returns (elapsed seconds, final stats, completed results
/// that differ from the reference).
///
/// An audited or corruption-free run must reproduce the reference, and
/// when it sheds nothing that is asserted here. An unaudited stack has
/// no defence against silent corruption: there the escapes are counted
/// and reported, which is the point of the comparison.
fn run_point(
    storm: &Storm,
    detectable: f64,
    silent: f64,
    cfg: ExecutorConfig,
) -> (f64, ServiceStats, usize) {
    let must_match = cfg.audit.is_some() || silent == 0.0;
    let mut dev = SmxDevice::new(CONFIG, 4).expect("device");
    if detectable > 0.0 || silent > 0.0 {
        let plan = FaultPlan::new(SEED, detectable).with_silent_rate(silent);
        dev.enable_fault_injection(plan, RecoveryPolicy::default());
    }
    let exec = BatchExecutor::new(dev, cfg).expect("executor");
    let t0 = Instant::now();
    let report = exec.run(&storm.pairs);
    let secs = t0.elapsed().as_secs_f64();
    if must_match && report.stats.shed == 0 {
        assert_byte_identical(&report, &storm.clean);
    }
    let escaped = (0..storm.count())
        .filter(|&k| report.alignment(k).is_some_and(|a| !same(a, &storm.clean[k])))
        .count();
    (secs, report.stats, escaped)
}

/// The device alone across fault rates: tile-level recovery counters
/// next to the cycle-level slowdown from the coprocessor simulator.
fn device_sweep(storm: &Storm) {
    let ew = CONFIG.element_width();
    let policy = RecoveryPolicy::default();
    let shapes: Vec<BlockShape> = storm
        .pairs
        .iter()
        .map(|(q, r)| BlockShape::from_dims(q.len(), r.len(), ew, true))
        .collect();
    let sim = CoprocSim::new(CoprocTimingConfig::for_ew(ew, 4));
    let clean_cycles = sim.simulate(&shapes).cycles;
    // One pass at `rate`: recovery counters, fault events, simulated
    // makespan, and whether every alignment matched the reference.
    let run = |rate: f64| {
        let plan = FaultPlan::new(SEED, rate);
        let mut dev = SmxDevice::new(CONFIG, 4).expect("device");
        dev.enable_fault_injection(plan, policy);
        let diverged = storm
            .pairs
            .iter()
            .zip(&storm.clean)
            .filter(|((q, r), g)| !same(&dev.align(q, r).expect("recovered align"), g))
            .count();
        let stats = dev.recovery_stats();
        assert!(stats.invariants_hold(), "counter invariants violated: {stats:?}");
        let events = dev.take_fault_events().len();
        let cycles =
            sim.simulate_with_faults(&shapes, &FaultTiming::for_ew(ew, plan, policy)).0.cycles;
        (stats, events, cycles, diverged == 0)
    };

    header(&format!(
        "device sweep: {CONFIG}, {} pairs x {} bp, seed {SEED}, \
         policy: {} retries / {}-cycle backoff / {}-cycle watchdog",
        storm.count(),
        storm.len,
        policy.max_retries,
        policy.backoff_cycles,
        policy.watchdog_cycles
    ));
    let widths = [8, 8, 8, 9, 9, 11, 12, 9, 9];
    row(
        &[
            &"rate",
            &"faults",
            &"retries",
            &"fallback",
            &"cyc-lost",
            &"sim-cycles",
            &"slowdown",
            &"events",
            &"output",
        ],
        &widths,
    );
    let mut last = None;
    for rate in [0.0, 1e-4, 1e-3, 1e-2] {
        let point = run(rate);
        let (stats, events, cycles, identical) = point;
        row(
            &[
                &format!("{rate:.0e}"),
                &stats.faults_injected,
                &stats.retries,
                &stats.fallbacks,
                &stats.cycles_lost,
                &cycles,
                &format!("{:.4}x", cycles as f64 / clean_cycles as f64),
                &events,
                &(if identical { "identical" } else { "DIVERGED" }),
            ],
            &widths,
        );
        assert!(identical, "rate {rate:.0e}: recovered output diverged from the fault-free run");
        last = Some(point);
    }

    // Replaying the highest rate must reproduce the same counters, the
    // same events and the same simulated makespan.
    let (stats, _, cycles, _) = last.expect("the sweep ran");
    assert_eq!(last, Some(run(1e-2)), "sweep is not deterministic");
    println!(
        "\ndeterminism: replay at 1e-2 reproduced {} faults / {cycles} cycles; \
         fault share of makespan {}",
        stats.faults_injected,
        pct((cycles - clean_cycles) as f64 / cycles as f64)
    );
}

/// The batch service under detectable fault storms, breaker off vs on.
fn breaker_section(storm: &Storm) {
    let count = storm.count();
    header(&format!(
        "breaker off vs on: {CONFIG}, {count} pairs x {} bp, {JOBS} jobs, seed {SEED}",
        storm.len
    ));
    let widths = [6, 8, 8, 9, 8, 9, 7, 7, 7, 10];
    row(
        &[
            &"rate",
            &"breaker",
            &"ms",
            &"pairs/s",
            &"faulted",
            &"software",
            &"probes",
            &"opened",
            &"closed",
            &"output",
        ],
        &widths,
    );
    let mut gains: Vec<(f64, f64)> = Vec::new();
    for rate in [0.0, 0.05, 0.1, 0.3] {
        let mut elapsed = [0.0f64; 2];
        for (i, breaker) in [None, Some(BREAKER)].into_iter().enumerate() {
            let cfg =
                ExecutorConfig { jobs: JOBS, queue_cap: 16, breaker, ..ExecutorConfig::default() };
            let (dt, s, _) = run_point(storm, rate, 0.0, cfg);
            elapsed[i] = dt;
            let (opened, closed) =
                s.breaker.map_or((0, 0), |b| (b.transitions.opened, b.transitions.closed));
            if breaker.is_some() && rate > 0.0 {
                assert!(
                    opened >= 1,
                    "rate {rate}: {} faulted pairs never tripped a breaker",
                    s.faulted_pairs
                );
            }
            row(
                &[
                    &format!("{rate:.2}"),
                    &(if breaker.is_some() { "on" } else { "off" }),
                    &format!("{:.1}", dt * 1e3),
                    &format!("{:.0}", count as f64 / dt.max(1e-9)),
                    &s.faulted_pairs,
                    &s.software_pairs,
                    &s.probe_pairs,
                    &opened,
                    &closed,
                    &"identical",
                ],
                &widths,
            );
        }
        if rate > 0.0 {
            gains.push((rate, elapsed[0] / elapsed[1].max(1e-9)));
        }
    }
    for (rate, gain) in &gains {
        println!("breaker speedup at rate {rate:.2}: {gain:.2}x");
    }
}

/// Bounded-queue admission: blocking backpressure vs load shedding.
fn admission_section(storm: &Storm) {
    header(&format!(
        "bounded-queue admission: blocking backpressure vs shedding, {} pairs",
        storm.count()
    ));
    let widths = [8, 10, 10, 10, 7, 10];
    row(&[&"queue", &"policy", &"completed", &"shed", &"depth", &"output"], &widths);
    for (cap, admission, policy) in [
        (16, AdmissionPolicy::Block, "block"),
        (2, AdmissionPolicy::Block, "block"),
        (2, AdmissionPolicy::Shed, "shed"),
    ] {
        let cfg =
            ExecutorConfig { jobs: JOBS, queue_cap: cap, admission, ..ExecutorConfig::default() };
        let (_, s, escaped) = run_point(storm, 0.0, 0.0, cfg);
        assert_eq!(s.completed + s.shed, storm.count() as u64, "accounting must close");
        assert_eq!(escaped, 0, "a pair that ran diverged from the reference");
        row(&[&cap, &policy, &s.completed, &s.shed, &s.max_queue_depth, &"identical"], &widths);
    }
}

/// Silent-corruption storms: the single-device breaker-only service vs
/// the audited multi-device pool with quarantine and hedging.
fn integrity_section(storm: &Storm) {
    let count = storm.count();
    header(&format!(
        "integrity storm: {CONFIG}, {count} pairs x {} bp, {JOBS} jobs, seed {SEED}, \
         full audit, silent-rate = fault-rate",
        storm.len
    ));
    let widths = [6, 8, 9, 8, 9, 7, 11, 11, 6, 8, 7, 10];
    row(
        &[
            &"rate",
            &"devices",
            &"stack",
            &"ms",
            &"pairs/s",
            &"audits",
            &"violations",
            &"recomputed",
            &"quar",
            &"canary",
            &"hedges",
            &"escaped",
        ],
        &widths,
    );
    let stacks = [
        ("breaker", 1usize, None, None, None),
        (
            "pool",
            4usize,
            Some(AuditConfig::full()),
            Some(QUARANTINE),
            Some(HedgeConfig::after(Duration::from_millis(250))),
        ),
    ];
    let mut compare: Vec<(f64, f64, f64)> = Vec::new();
    let mut total_escaped = [0usize; 2];
    for rate in [0.0, 0.05, 0.15] {
        let mut elapsed = [0.0f64; 2];
        for (i, (stack, devices, audit, quarantine, hedge)) in stacks.into_iter().enumerate() {
            let cfg = ExecutorConfig {
                jobs: JOBS,
                queue_cap: 16,
                breaker: Some(BREAKER),
                devices,
                audit,
                quarantine,
                hedge,
                ..ExecutorConfig::default()
            };
            let (dt, s, escaped) = run_point(storm, rate, rate, cfg);
            elapsed[i] = dt;
            total_escaped[i] += escaped;
            row(
                &[
                    &format!("{rate:.2}"),
                    &devices,
                    &stack,
                    &format!("{:.1}", dt * 1e3),
                    &format!("{:.0}", count as f64 / dt.max(1e-9)),
                    &s.audits_run,
                    &s.integrity_violations,
                    &s.integrity_recomputed,
                    &s.quarantines,
                    &s.canary_runs,
                    &s.hedges_launched,
                    &escaped,
                ],
                &widths,
            );
            // Whenever the device corrupted a result silently, a defence
            // must have caught one: the audit on a pair, or a failed
            // canary on a quarantined device's probe. The byte-identity
            // assert in `run_point` already proved recovery.
            if audit.is_some() && s.recovery.silent_corruptions > 0 {
                assert!(
                    s.integrity_violations + s.canary_failures > 0,
                    "rate {rate}: {} silent corruptions escaped the audit and the canaries",
                    s.recovery.silent_corruptions
                );
            }
        }
        compare.push((rate, elapsed[0], elapsed[1]));
    }

    println!();
    for (rate, breaker_s, pool_s) in &compare {
        println!(
            "pool+quarantine+hedge vs single-device breaker at rate {rate:.2}: \
             {:.2}x throughput",
            breaker_s / pool_s.max(1e-9)
        );
    }
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    if cores < 2 {
        println!(
            "(host has {cores} core; the pool's parallel dispatch over {JOBS} jobs cannot show \
             wall-clock gains here; compare the escaped-corruption column instead)"
        );
    }
    println!(
        "corrupted results in final output: breaker-only {} / audited pool {}",
        total_escaped[0], total_escaped[1]
    );
}

/// Hedge triggers on an audited two-device pool at rate 0.10. A zero
/// trigger hedges every pair that reaches a device, and the software
/// backup wins each hedge; pairs the breaker or quarantine already
/// routes to the software baseline have no device leg to hedge.
fn hedge_section(storm: &Storm) {
    let count = storm.count();
    header("hedged execution: devices=2, rate 0.10, full audit");
    let widths = [12, 8, 9, 9, 7, 10];
    row(&[&"hedge", &"ms", &"pairs/s", &"launched", &"won", &"output"], &widths);
    for (tag, hedge) in [
        ("off", None),
        ("after-250ms", Some(HedgeConfig::after(Duration::from_millis(250)))),
        ("p95", Some(HedgeConfig::p95())),
        ("after-0ms", Some(HedgeConfig::after(Duration::ZERO))),
    ] {
        let cfg = ExecutorConfig {
            jobs: JOBS,
            queue_cap: 16,
            breaker: Some(BREAKER),
            devices: 2,
            audit: Some(AuditConfig::full()),
            quarantine: Some(QUARANTINE),
            hedge,
            ..ExecutorConfig::default()
        };
        let (dt, s, _) = run_point(storm, 0.10, 0.10, cfg);
        row(
            &[
                &tag,
                &format!("{:.1}", dt * 1e3),
                &format!("{:.0}", count as f64 / dt.max(1e-9)),
                &s.hedges_launched,
                &s.hedges_won,
                &"identical",
            ],
            &widths,
        );
        if tag == "after-0ms" {
            assert!(s.hedges_launched > 0, "a zero trigger never hedged");
            assert_eq!(
                (s.hedges_launched, s.device_pairs + s.software_pairs),
                (s.device_pairs, count as u64),
                "a zero trigger hedges every pair that reaches a device"
            );
            assert_eq!(s.hedges_won, s.hedges_launched, "the backup wins every zero-trigger hedge");
        }
    }
}

fn main() {
    device_sweep(&Storm::new(scaled(2000, 400), scaled(8, 4)));

    let service = Storm::new(scaled(1200, 200), scaled(48, 32));
    breaker_section(&service);
    admission_section(&service.first(scaled(48, 12)));

    let integrity = Storm::new(scaled(1000, 160), scaled(40, 12));
    integrity_section(&integrity);
    hedge_section(&integrity);

    println!(
        "\nverification: every audited or corruption-free run byte-identical to the fault-free \
         sequential run"
    );
}
