//! # smx-align-core
//!
//! Foundation crate for the SMX reproduction: alphabets, sequences, scoring
//! schemes (edit / linear-gap / substitution-matrix), golden-model dynamic
//! programming (full Needleman–Wunsch with traceback and a linear-memory
//! score-only variant), and alignment (CIGAR) representation.
//!
//! Every accelerated engine in the workspace — the SMX-1D ISA model, the
//! SMX-2D coprocessor model, and the software baselines — is validated
//! against the reference implementations in this crate.
//!
//! ## Example
//!
//! ```
//! use smx_align_core::{Alphabet, Sequence, ScoringScheme, dp};
//!
//! # fn main() -> Result<(), smx_align_core::AlignError> {
//! let q = Sequence::from_text(Alphabet::Dna4, "GATTACA")?;
//! let r = Sequence::from_text(Alphabet::Dna4, "GACTATA")?;
//! let scheme = ScoringScheme::edit();
//! let aln = dp::align(&q, &r, &scheme)?;
//! assert_eq!(aln.score, -2); // edit distance 2, expressed as maximal score
//! # Ok(())
//! # }
//! ```

pub mod alphabet;
pub mod cigar;
pub mod config;
pub mod dispatch;
pub mod dp;
pub mod dp_affine;
pub mod dp_local;
pub mod dp_semiglobal;
pub mod error;
pub mod pretty;
pub mod scoring;
pub mod sequence;
pub mod submat;

pub use alphabet::Alphabet;
pub use cigar::{Alignment, Cigar, Op};
pub use config::{AlignmentConfig, ElementWidth};
pub use error::AlignError;
pub use scoring::ScoringScheme;
pub use sequence::Sequence;
pub use submat::SubstMatrix;
