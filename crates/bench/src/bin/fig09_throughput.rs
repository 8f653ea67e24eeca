//! **Figure 9**: throughput (DP-blocks per second at 1 GHz) of the SIMD
//! baseline, SMX-1D, SMX-2D, and heterogeneous SMX when aligning blocks
//! of 100×100, 1K×1K, and 10K×10K for the four configurations, in both
//! score-only and full-alignment modes.
//!
//! Paper anchors: score-mode peak speedups over SIMD of ~1465x (DNA-edit),
//! ~379x (DNA-gap), ~778x (protein), ~96x (ASCII); alignment mode ~404x /
//! 299x / 696x / 98x; SMX-1D alone 6-23x.

use smx::algos::timing::{estimate, BatchWork};
use smx::datagen::ErrorProfile;
use smx::prelude::*;
use smx_bench::{header, row, scaled};

fn main() {
    let sizes: Vec<(usize, usize)> = vec![(100, 16), (1000, 8), (scaled(10_000, 2_000), 4)];
    let engines = [EngineKind::Simd, EngineKind::Smx1d, EngineKind::Smx2d, EngineKind::Smx];
    for score_only in [true, false] {
        header(&format!(
            "Figure 9 ({}): DP-blocks/s at 1 GHz",
            if score_only { "Score" } else { "Alignment" }
        ));
        row(
            &[&"config", &"size", &"simd", &"smx-1d", &"smx-2d", &"smx", &"smx/simd"],
            &[9, 7, 12, 12, 12, 12, 9],
        );
        for config in AlignmentConfig::ALL {
            for &(len, count) in &sizes {
                let ds = Dataset::synthetic(
                    config,
                    len,
                    count,
                    ErrorProfile::moderate(),
                    90 + len as u64,
                );
                // One functional pass; per-engine timing from the shared
                // work profile.
                let mut aligner = SmxAligner::new(config);
                aligner.algorithm(Algorithm::Full).score_only(score_only);
                let rep = aligner.run_batch(&ds.pairs).unwrap();
                let work = BatchWork::from_outcomes(config, score_only, &rep.outcomes);
                let cycles: Vec<f64> =
                    engines.iter().map(|&e| estimate(e, &work, 4).cycles / count as f64).collect();
                let bps = |c: f64| format!("{:.3e}", 1e9 / c);
                row(
                    &[
                        &config.name(),
                        &format!("{len}"),
                        &bps(cycles[0]),
                        &bps(cycles[1]),
                        &bps(cycles[2]),
                        &bps(cycles[3]),
                        &format!("{:.0}x", cycles[0] / cycles[3]),
                    ],
                    &[9, 7, 12, 12, 12, 12, 9],
                );
            }
        }
    }
    println!();
    println!("paper shape: SMX-1D gives one order of magnitude over SIMD; SMX-2D/SMX");
    println!("give two-to-three orders for large blocks, with the DNA-edit (EW=2)");
    println!("configuration highest and ASCII (EW=8) lowest; for small blocks and");
    println!("full alignments SMX beats SMX-2D thanks to the SMX-1D traceback.");
}
