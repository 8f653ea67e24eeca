//! **SIMD streaming-kernel benchmark: full DP vs the streaming score
//! kernels on storm-shaped traffic.** Uses the same `Dataset::synthetic`
//! pairs that feed the service/integrity storms, across the DNA-edit,
//! DNA-gap, and protein configurations. Before any timing, every pair is
//! checked byte-identical across kernels: the scalar, SIMD, and auto
//! [`ScoreProfile`]s must be equal to each other, to the golden DP score,
//! to the golden last-row best, and to the golden CIGAR's operation
//! counts. Then three engines are timed on the identical inputs:
//!
//! * `full-dp` — [`dp::align_codes`] (O(mn) matrix + traceback), the
//!   recompute the streaming score pass lets the audit path avoid;
//! * `scalar`  — the allocation-free streaming row kernel;
//! * `simd`    — the vectorized anti-diagonal kernel (AVX2 when the CPU
//!   has it, portable-autovectorized otherwise).
//!
//! The tentpole target is a >=8x speedup for the SIMD pass over `full-dp`
//! (the path it replaces in the scoreboard audit); scalar-vs-simd is
//! reported alongside. Quick mode (`SMX_BENCH_QUICK=1`) shrinks the
//! workload for CI.

use std::hint::black_box;

use smx::algos::simd::{self, Baseline, ScoreProfile, SimdWorkspace};
use smx::align::dp;
use smx::datagen::{Dataset, ErrorProfile};
use smx::prelude::*;
use smx_bench::{header, ratio, row, scaled, time};

fn main() {
    let len = scaled(1024, 160);
    let count = scaled(48, 10);
    let reps = scaled(3, 1);
    let seed = 7u64;

    header(&format!(
        "simd streaming score kernel: {count} pairs x {len} bp per config, {reps} reps, seed {seed}"
    ));
    println!(
        "kernels selected: auto={} simd={} (force_scalar={})",
        simd::selected_kernel(Baseline::Auto, &AlignmentConfig::DnaEdit.scoring(), len, len).name(),
        simd::selected_kernel(Baseline::Simd, &AlignmentConfig::DnaEdit.scoring(), len, len).name(),
        simd::force_scalar(),
    );
    let widths = [9, 8, 13, 9, 8, 11, 10, 10];
    row(
        &[&"config", &"engine", &"kernel", &"ms", &"gcups", &"vs full-dp", &"vs scalar", &"output"],
        &widths,
    );

    // Protein runs once on each side of the i16 lane bound (BLOSUM50:
    // m + n <= 1090), so both widths pass the identity gate in either
    // mode.
    let protein = [(AlignmentConfig::Protein, scaled(400, 160)), (AlignmentConfig::Protein, 640)];
    let runs = [(AlignmentConfig::DnaEdit, len), (AlignmentConfig::DnaGap, len)];
    let mut speedups: Vec<(AlignmentConfig, f64, f64)> = Vec::new();
    let mut widths_taken = std::collections::BTreeSet::new();
    for (config, len) in runs.into_iter().chain(protein) {
        let scheme = config.scoring();
        let ds = Dataset::synthetic(config, len, count, ErrorProfile::moderate(), seed);
        let pairs: Vec<(&[u8], &[u8])> =
            ds.pairs.iter().map(|p| (p.query.codes(), p.reference.codes())).collect();
        let cells: u64 = pairs.iter().map(|(q, r)| q.len() as u64 * r.len() as u64).sum();

        // Byte-identity gate: all three baselines must produce the same
        // profile, matching the golden DP on every component. A harness
        // that times diverging kernels measures nothing.
        let mut ws = SimdWorkspace::new();
        for (k, (q, r)) in pairs.iter().enumerate() {
            let golden = dp::align_codes(q, r, &scheme);
            let scalar = simd::score_profile(q, r, &scheme, Baseline::Scalar, &mut ws);
            let vector = simd::score_profile(q, r, &scheme, Baseline::Simd, &mut ws);
            let auto = simd::score_profile(q, r, &scheme, Baseline::Auto, &mut ws);
            assert_eq!(scalar, vector, "{config} pair {k}: scalar vs simd profile diverged");
            assert_eq!(scalar, auto, "{config} pair {k}: scalar vs auto profile diverged");
            assert_eq!(scalar.score, golden.score, "{config} pair {k}: global score diverged");
            let score = simd::score(q, r, &scheme, Baseline::Simd, &mut ws);
            assert_eq!(score, golden.score, "{config} pair {k}: score-only kernel diverged");
            let (best, end) = dp::last_row_best(&dp::last_row(q, r, &scheme));
            assert_eq!(
                (scalar.best_score, scalar.best_end),
                (best, end),
                "{config} pair {k}: last-row best diverged"
            );
            let stats = golden.cigar.stats();
            assert_eq!(
                (scalar.matches, scalar.mismatches, scalar.gap_inserts, scalar.gap_deletes),
                (stats.matches, stats.mismatches, stats.insertions, stats.deletions),
                "{config} pair {k}: operation counts diverged"
            );
        }

        let t_full = time(reps, || {
            let mut acc = 0i64;
            for (q, r) in &pairs {
                acc += i64::from(dp::align_codes(q, r, &scheme).score);
            }
            black_box(acc)
        });
        let t_scalar = time(reps, || {
            let mut acc = 0i64;
            for (q, r) in &pairs {
                acc +=
                    i64::from(simd::score_profile(q, r, &scheme, Baseline::Scalar, &mut ws).score);
            }
            black_box(acc)
        });
        let t_simd = time(reps, || {
            let mut acc = 0i64;
            for (q, r) in &pairs {
                acc += i64::from(simd::score_profile(q, r, &scheme, Baseline::Simd, &mut ws).score);
            }
            black_box(acc)
        });

        let kernel = simd::selected_kernel(Baseline::Simd, &scheme, len, len).name();
        let kernels: std::collections::BTreeSet<&str> = pairs
            .iter()
            .map(|(q, r)| simd::selected_kernel(Baseline::Simd, &scheme, q.len(), r.len()).name())
            .collect();
        println!("{config} {len}: kernels taken {kernels:?}");
        if config == AlignmentConfig::Protein {
            widths_taken.extend(kernels.iter().filter_map(|k| k.rsplit('-').next()));
        }
        for (engine, kname, t) in [
            ("full-dp", "matrix+tb", t_full),
            ("scalar", "scalar", t_scalar),
            ("simd", kernel, t_simd),
        ] {
            let gcups = cells as f64 / t.max(1e-12) / 1e9;
            let vs_full = ratio(t_full, t);
            let vs_scalar = ratio(t_scalar, t);
            row(
                &[
                    &config,
                    &engine,
                    &kname,
                    &format!("{:.1}", t * 1e3),
                    &format!("{gcups:.2}"),
                    &vs_full,
                    &vs_scalar,
                    &"identical",
                ],
                &widths,
            );
        }
        speedups.push((config, t_full / t_simd.max(1e-12), t_scalar / t_simd.max(1e-12)));
    }

    assert_eq!(
        widths_taken.into_iter().collect::<Vec<_>>(),
        ["i16", "i32"],
        "the protein runs must take both lane widths"
    );
    header("summary (target: simd >= 8x over full-dp, the audit recompute it replaces)");
    for (config, vs_full, vs_scalar) in &speedups {
        let verdict = if *vs_full >= 8.0 { "meets 8x target" } else { "below 8x target" };
        println!(
            "{config}: simd {vs_full:.1}x over full-dp ({vs_scalar:.1}x over scalar) — {verdict}"
        );
    }
    println!("\nall kernel profiles byte-identical to the golden DP on every pair");
    // Keep the type in the public signature exercised so doc moves get caught.
    let _: ScoreProfile = ScoreProfile::default();
}
