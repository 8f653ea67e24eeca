//! Shared helpers for the SMX benchmark harness.
//!
//! Each binary in `src/bin` regenerates one table or figure from the
//! paper's evaluation (see DESIGN.md §3 for the experiment index). Run
//! them with `cargo run -p smx-bench --release --bin <name>`.

use std::fmt::Display;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::Rng;
use smx::align::{AlignError, AlignmentConfig};
use smx::coproc::faults::{FaultPlan, RecoveryPolicy};
use smx::server::proto::Request;
use smx::SmxDevice;

/// Prints a section header.
pub fn header(title: &str) {
    println!();
    println!("=== {title} ===");
}

/// Prints one row of a fixed-width table.
pub fn row(cells: &[&dyn Display], widths: &[usize]) {
    let mut line = String::new();
    for (c, w) in cells.iter().zip(widths) {
        line.push_str(&format!("{:>width$}  ", c, width = w));
    }
    println!("{}", line.trim_end());
}

/// Formats a ratio as `Nx`.
#[must_use]
pub fn ratio(a: f64, b: f64) -> String {
    format!("{:.1}x", a / b.max(1e-12))
}

/// Formats a fraction as a percentage.
#[must_use]
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Whether the harness should run in quick mode (smaller instances),
/// controlled by the `SMX_BENCH_QUICK` environment variable.
#[must_use]
pub fn quick_mode() -> bool {
    std::env::var("SMX_BENCH_QUICK").is_ok_and(|v| v != "0")
}

/// Scales an instance size down in quick mode.
#[must_use]
pub fn scaled(full: usize, quick: usize) -> usize {
    if quick_mode() {
        quick
    } else {
        full
    }
}

/// Nearest-rank percentile `p` (in `[0, 1]`) of an ascending-sorted
/// slice; `NaN` when the slice is empty. Bounds-safe: never panics.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted.get(idx).copied().unwrap_or(f64::NAN)
}

/// Best-of-`reps` wall time, in seconds, of one call to `pass`.
pub fn time<T>(reps: usize, mut pass: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        std::hint::black_box(pass());
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// One storm `PAIR` request: `len` random DNA bases as the query, and a
/// reference equal to it except for one base set to `T`.
pub fn make_pair(rng: &mut StdRng, id: usize, len: usize) -> Request {
    const BASES: [char; 4] = ['A', 'C', 'G', 'T'];
    let query: String = (0..len).map(|_| BASES[rng.gen_range(0..4usize)]).collect();
    let mut reference = query.clone();
    let i = rng.gen_range(0..len);
    reference.replace_range(i..=i, "T");
    Request::Pair { id, query, reference }
}

/// The storms' device: `config` with two coprocessor workers and
/// device-level fault injection left on (seed 42, rate 5e-4), so
/// transient tile faults ride through recovery underneath every storm.
///
/// # Errors
///
/// Device construction failures.
pub fn storm_device(config: AlignmentConfig) -> Result<SmxDevice, AlignError> {
    let mut dev = SmxDevice::new(config, 2)?;
    dev.enable_fault_injection(FaultPlan::new(42, 5e-4), RecoveryPolicy::default());
    Ok(dev)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_formats() {
        assert_eq!(ratio(10.0, 4.0), "2.5x");
        assert_eq!(ratio(1.0, 0.0), format!("{:.1}x", 1.0 / 1e-12));
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.125), "12.5%");
        assert_eq!(pct(1.0), "100.0%");
    }

    #[test]
    fn scaled_honours_quick_mode() {
        // Quick mode is driven by the environment; in a test process the
        // variable is normally unset, so `scaled` returns the full size.
        if std::env::var("SMX_BENCH_QUICK").is_err() {
            assert_eq!(scaled(1000, 10), 1000);
        }
    }

    #[test]
    fn percentile_is_nearest_rank_and_bounds_safe() {
        let sorted = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&sorted, 0.5), 3.0);
        assert_eq!(percentile(&sorted, 1.0), 5.0);
        assert!(percentile(&sorted, 2.0).is_nan(), "out of range is NaN, not a panic");
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn make_pair_differs_in_at_most_one_base() {
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(7);
        let Request::Pair { id, query, reference } = make_pair(&mut rng, 3, 64) else {
            panic!("make_pair builds a PAIR request");
        };
        assert_eq!((id, query.len(), reference.len()), (3, 64, 64));
        let diffs = query.chars().zip(reference.chars()).filter(|(a, b)| a != b).count();
        assert!(diffs <= 1, "{diffs} differing bases");
    }

    #[test]
    fn time_runs_each_rep_and_at_least_once() {
        let mut calls = 0;
        let secs = time(3, || calls += 1);
        assert_eq!(calls, 3);
        assert!(secs.is_finite() && secs >= 0.0);
        let mut once = 0;
        time(0, || once += 1);
        assert_eq!(once, 1, "zero reps still runs once");
    }
}
