//! **Supplementary sweep: band width vs recall vs work.** The knob behind
//! Fig. 2's banded point and Fig. 14's (X) column: how wide must the band
//! be on ONT-profile reads, and what does each increment cost on SMX?
//! Also contrasts static and adaptive banding along the whole sweep.

use smx::align::dp;
use smx::prelude::*;
use smx_bench::{header, pct, row, scaled};

fn main() {
    let len = scaled(4000, 1200);
    let config = AlignmentConfig::DnaEdit;
    let ds = Dataset::synthetic(config, len, 6, smx::datagen::ErrorProfile::ont(), 555);
    let scheme = config.scoring();
    let optimal: Vec<i32> = ds
        .pairs
        .iter()
        .map(|p| dp::score_only(p.query.codes(), p.reference.codes(), &scheme))
        .collect();

    header(&format!(
        "Band sweep on ONT-profile reads (~{len} bp, {} pairs, edit model)",
        ds.pairs.len()
    ));
    row(&[&"kind", &"band", &"recall", &"cells (M)", &"smx cycles"], &[10, 7, 8, 11, 12]);
    for band in [8usize, 16, 32, 64, 128, 256, 512] {
        for (kind, algo) in [
            ("static", Algorithm::Banded { band }),
            ("adaptive", Algorithm::AdaptiveBanded { width: 2 * band + 1 }),
        ] {
            let rep = SmxAligner::new(config)
                .algorithm(algo)
                .engine(EngineKind::Smx)
                .run_batch(&ds.pairs)
                .unwrap();
            let recall = rep.recall(&optimal);
            row(
                &[
                    &kind,
                    &band,
                    &pct(recall),
                    &format!("{:.1}", rep.work.cells as f64 / 1e6),
                    &format!("{:.0}", rep.timing.cycles),
                ],
                &[10, 7, 8, 11, 12],
            );
        }
    }
    println!();
    println!("recall saturates once the band covers the indel random walk of the");
    println!("error process; every extra diagonal past that point is pure cost —");
    println!("the flexibility SMX preserves by leaving band policy to software.");
}
