//! The one process-wide kernel switch: every crate with a vectorised
//! kernel (the host SIMD baseline, the SMX-2D tile kernel) consults
//! [`force_scalar`] before taking its vector path, and [`avx2_available`]
//! to pick its widest instantiation.

use std::sync::OnceLock;

/// Whether `SMX_FORCE_SCALAR` (any value but `0`) takes every vectorised
/// kernel off its x86 vector path (checked once per process): the host
/// SIMD baseline runs its scalar twin, and the SMX-2D tile kernel runs
/// its one lane sweep on portable lanes in plain Rust.
#[must_use]
pub fn force_scalar() -> bool {
    static FORCED: OnceLock<bool> = OnceLock::new();
    *FORCED.get_or_init(|| std::env::var("SMX_FORCE_SCALAR").is_ok_and(|v| v != "0"))
}

/// Whether the host runs AVX2 (checked once per process).
#[must_use]
pub fn avx2_available() -> bool {
    static AVX2: OnceLock<bool> = OnceLock::new();
    *AVX2.get_or_init(|| {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        {
            std::is_x86_feature_detected!("avx2")
        }
        #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
        {
            false
        }
    })
}
