//! # SMX — heterogeneous sequence-alignment acceleration
//!
//! A from-scratch reproduction of *SMX: Heterogeneous Architecture for
//! Universal Sequence Alignment Acceleration* (MICRO 2025): the SMX-1D
//! ISA extension, the SMX-2D coprocessor, the heterogeneous orchestration
//! between a general-purpose core and both accelerators, and the full
//! evaluation substrate (cycle-level simulator, software baselines,
//! datasets, physical-design model).
//!
//! ## Quick start
//!
//! ```
//! use smx::prelude::*;
//!
//! # fn main() -> Result<(), smx::align::AlignError> {
//! // Functional heterogeneous device: pack on the core, offload the
//! // DP-block to SMX-2D, trace back with SMX-1D tile recomputation.
//! let mut dev = SmxDevice::new(AlignmentConfig::DnaEdit, 4)?;
//! let q = Sequence::from_text(Alphabet::Dna2, "GATTACAGATTACA")?;
//! let r = Sequence::from_text(Alphabet::Dna2, "GATTACACATTACA")?;
//! let aln = dev.align(&q, &r)?;
//! assert_eq!(aln.score, -1); // one substitution under the edit model
//!
//! // Performance estimation through the cycle-level models.
//! let report = SmxAligner::new(AlignmentConfig::DnaEdit)
//!     .algorithm(Algorithm::Full)
//!     .engine(EngineKind::Smx)
//!     .run_pair(&q, &r)?;
//! assert!(report.timing.cycles > 0.0);
//! # Ok(())
//! # }
//! ```
//!
//! ## Crate map
//!
//! * [`align`] — alphabets, scoring, golden-model DP, CIGARs.
//! * [`diffenc`] — differential encoding and the bit-exact SMX-PE.
//! * [`isa`] — the SMX-1D instruction set and kernels.
//! * [`coproc`] — the SMX-2D engine/workers/border-store model.
//! * [`sim`] — cycle-level timing (CPU loop model + coprocessor sim).
//! * [`algos`] — full/banded/X-drop/Hirschberg/window + SotA baselines.
//! * [`datagen`] — synthetic datasets (PacBio/ONT/UniProt stand-ins).
//! * [`physical`] — area, power, and peak-GCUPS models.
//! * [`service`] — resilient batch executor: worker pool, deadlines,
//!   breaker, checkpoint/resume.
//! * [`pool`] — multi-device pool: audits, quarantine, hedging.
//! * [`server`] — framed-TCP front door: tenant QoS, brownout ladder,
//!   graceful drain, crash-consistent sessions.
//! * [`failpoint`] — deterministic chaos: seeded failpoint schedules
//!   over the host-side sites (no-op unless built with `failpoints`).

pub use smx_algos as algos;
pub use smx_align_core as align;
pub use smx_coproc as coproc;
pub use smx_datagen as datagen;
pub use smx_diffenc as diffenc;
pub use smx_failpoint as failpoint;
pub use smx_isa as isa;
pub use smx_physical as physical;
pub use smx_sim as sim;

pub mod aligner;
pub mod orchestrator;
pub mod pool;
pub mod server;
pub mod service;
pub(crate) mod shard;
pub mod testkit;

pub use aligner::{Algorithm, BatchReport, PairReport, SmxAligner};
pub use orchestrator::{AffineDevice, BatchFailure, SmxDevice};
pub use pool::{AuditConfig, DeviceStats, HedgeConfig, HedgeTrigger, QuarantineConfig};
pub use server::{
    Client, DrainReport, RetryConfig, Server, ServerConfig, ServerHandle, ShardSnapshot,
    SupervisorConfig,
};
pub use service::{
    AdmissionPolicy, BatchExecutor, BreakerConfig, BreakerSnapshot, BreakerState,
    BreakerTransitions, ExecutorConfig, PairOutcome, RunOptions, ServiceBatchReport, ServiceStats,
    ShardPlan,
};
pub use smx_algos::simd::Baseline;

/// Commonly used items in one import.
pub mod prelude {
    pub use crate::aligner::{Algorithm, SmxAligner};
    pub use crate::orchestrator::SmxDevice;
    pub use crate::pool::{AuditConfig, HedgeConfig, QuarantineConfig};
    pub use crate::service::{AdmissionPolicy, BatchExecutor, BreakerConfig, ExecutorConfig};
    pub use smx_algos::simd::Baseline;
    pub use smx_algos::EngineKind;
    pub use smx_align_core::{
        Alignment, AlignmentConfig, Alphabet, Cigar, ElementWidth, ScoringScheme, Sequence,
    };
    pub use smx_coproc::control::CancelToken;
    pub use smx_coproc::faults::{FaultPlan, RecoveryPolicy, RecoveryStats};
    pub use smx_datagen::{Dataset, SeqPair};
}
