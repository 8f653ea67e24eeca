//! # smx-coproc
//!
//! Functional model of the **SMX-2D coprocessor** (paper §5): the
//! SMX-engine (a 2D systolic array computing one VL×VL DP-tile per cycle),
//! the SMX-workers that partition DP-blocks into supertiles and tiles and
//! manage border storage, and the block-level API the core offloads to.
//!
//! This crate is purely *functional* — it produces bit-exact DP results,
//! border stores, and memory-traffic statistics. Cycle-level timing of the
//! same structures (pipeline occupancy, worker contention, the shared L2
//! port) lives in `smx-sim`.
//!
//! ## Example
//!
//! ```
//! use smx_align_core::AlignmentConfig;
//! use smx_coproc::{BlockMode, SmxCoprocessor};
//!
//! # fn main() -> Result<(), smx_align_core::AlignError> {
//! let cfg = AlignmentConfig::DnaEdit;
//! let coproc = SmxCoprocessor::new(cfg.element_width(), &cfg.scoring(), 4)?;
//! let q = vec![0u8; 100];
//! let r = vec![0u8; 100];
//! let out = coproc.compute_block(&q, &r, None, BlockMode::ScoreOnly)?;
//! assert_eq!(out.score, 0); // perfect match under the edit model
//! # Ok(())
//! # }
//! ```

pub mod affine;
pub mod block;
pub mod control;
pub mod coproc;
pub mod engine;
pub mod faults;
mod kernel;
pub mod traceback;
pub mod worker;

/// Test hook: pins a thread to one lane-kernel instantiation so tests
/// can hold each against the same inputs. Not part of the API.
#[doc(hidden)]
pub mod lane_kernels {
    pub use crate::kernel::{pinned, supported, LaneKernel};
}

pub use block::{BlockMode, BlockOutput, TileBorderStore};
pub use control::CancelToken;
pub use coproc::SmxCoprocessor;
pub use engine::SmxEngine;
pub use faults::{FaultEvent, FaultKind, FaultPlan, FaultSession, RecoveryPolicy, RecoveryStats};
pub use worker::TransferStats;
