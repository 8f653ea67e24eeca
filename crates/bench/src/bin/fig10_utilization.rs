//! **Figure 10**: SMX-engine utilization versus SMX-worker count (1–8)
//! for the four configurations and three block sizes, score-only mode.
//!
//! Paper anchors: one worker reaches 30–45% on large blocks; four workers
//! ≈90%; beyond four the gain is marginal; 100×100 blocks stay low due to
//! communication overhead. The shared L2 port stays ≤25% busy.

use smx::align::{AlignmentConfig, ElementWidth};
use smx::sim::coproc::{BlockShape, CoprocSim, CoprocTimingConfig};
use smx_bench::{header, pct, row, scaled};

fn main() {
    let sizes = [100usize, 1000, scaled(10_000, 4000)];
    header("Figure 10: SMX-engine utilization by worker count (score-only)");
    row(
        &[&"config", &"block", &"w=1", &"w=2", &"w=3", &"w=4", &"w=6", &"w=8", &"L2@4"],
        &[9, 7, 7, 7, 7, 7, 7, 7, 7],
    );
    for config in AlignmentConfig::ALL {
        let ew: ElementWidth = config.element_width();
        for &len in &sizes {
            let shape = BlockShape::from_dims(len, len, ew, false);
            let mut utils = Vec::new();
            let mut port4 = 0.0;
            for workers in [1usize, 2, 3, 4, 6, 8] {
                let sim = CoprocSim::new(CoprocTimingConfig::for_ew(ew, workers));
                // Enough blocks to keep every worker fed.
                let r = sim.simulate_uniform(shape, workers * 4);
                utils.push(r.utilization);
                if workers == 4 {
                    port4 = r.port_utilization;
                }
            }
            row(
                &[
                    &config.name(),
                    &format!("{len}"),
                    &pct(utils[0]),
                    &pct(utils[1]),
                    &pct(utils[2]),
                    &pct(utils[3]),
                    &pct(utils[4]),
                    &pct(utils[5]),
                    &pct(port4),
                ],
                &[9, 7, 7, 7, 7, 7, 7, 7, 7],
            );
        }
    }
    println!();
    println!("paper shape: ~30-45% at one worker on large blocks, ~90% at four,");
    println!("marginal beyond four; small blocks much lower; L2 port ≤25%.");
}
