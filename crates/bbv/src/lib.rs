//! Basic Block Vectors (paper Section 2.2).
//!
//! A Basic Block Vector is a per-interval histogram of basic-block
//! executions, each count weighted by the block's instruction size, so
//! "basic blocks containing more instructions will have more weight".
//! Normalized BBVs are fingerprints of an interval's code usage;
//! SimPoint clusters them to find phases.
//!
//! This crate provides:
//!
//! * [`BbvBuilder`] — accumulates one interval's vector,
//! * [`IntervalBbvCollector`] — a trace observer cutting execution into
//!   fixed-length intervals or at explicit (marker-derived) boundaries
//!   and collecting one BBV per interval,
//! * [`project`] — SimPoint's random linear projection to a low
//!   dimension (15 in the paper), and
//! * [`manhattan`] / [`euclidean`] — the distances used for clustering
//!   and for picking representatives,
//! * [`OnlineClassifier`] — the signature-table classifier of the
//!   paper's hardware prior work, and
//! * [`CodeSignatureCollector`] — procedure/loop code-signature vectors
//!   (the structure study the paper cites in Section 2.3).
//!
//! # Examples
//!
//! ```
//! use spm_bbv::{project, BbvBuilder};
//! use spm_ir::BlockId;
//!
//! let mut builder = BbvBuilder::new(2);
//! builder.note_block(BlockId(0), 10);
//! builder.note_block(BlockId(1), 20);
//! builder.note_block(BlockId(1), 20);
//! let bbv = builder.take();
//! // counts * sizes = [10, 40], normalized to sum 1.
//! assert_eq!(bbv, vec![0.2, 0.8]);
//!
//! let projected = project(&[bbv], 3, 42);
//! assert_eq!(projected[0].len(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod collector;
mod online;
mod projection;
mod signature;
mod vector;

pub use collector::{Boundaries, IntervalBbv, IntervalBbvCollector};
pub use online::OnlineClassifier;
pub use projection::{euclidean, manhattan, project};
pub use signature::{CodeSignatureCollector, IntervalSignature, SignatureKind};
pub use vector::BbvBuilder;
