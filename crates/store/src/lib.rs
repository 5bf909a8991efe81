//! # spm-store
//!
//! A versioned, block-based container format (`spmstk01`) for spm
//! trace event streams — the one on-disk form of a recorded trace
//! (`spm record`/`spm pack` write it, `spm replay` and the analyses
//! read it).
//!
//! A trace kept as a single checksummed payload would be compact, but
//! one flipped bit would lose the whole tail, decoding would be
//! inherently serial, and any replay would start at byte zero. The
//! store encodes events with the `spm_sim::record` codec (tag byte +
//! LEB128 varints, delta-encoded instruction counts) but cuts the
//! stream into fixed-budget blocks
//! (~256 KiB pre-compression by default), each framed with its own
//! FNV-1a-64 checksum, first event sequence number, and instruction
//! watermarks, plus a footer index over all blocks. That buys:
//!
//! - **Streaming ingest** with bounded memory — [`StoreWriter`] is a
//!   `TraceObserver`, holding one block plus the index.
//! - **One read path** — [`StoreReader`] parses one byte slice (the
//!   memory-mapped file, or the file read whole where mapping is
//!   unavailable), so every block is a bounds-checked zero-copy slice.
//! - **O(log B) random access** — [`StoreReader::replay_from_seq`] and
//!   [`StoreReader::replay_from_icount`] binary-search the index.
//! - **Parallel decode** — blocks are self-contained, so
//!   [`StoreReader::par_replay`] fans decoding over `spm-par` while
//!   delivering events to observers strictly in order.
//! - **Localized corruption** — a damaged block is skipped with a
//!   structured `store/skipped-block` warning; every other block still
//!   replays (the graceful-degradation contract of the wider pipeline).
//!
//! The byte-level layout is specified in [`format`] (and in prose in
//! DESIGN.md §11).

// `deny` rather than `forbid`: the one documented exception is the
// read-only mmap binding in `mmap.rs`, which opts back in at module
// scope with SAFETY comments on every block. Everything else still
// refuses unsafe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod compress;
pub mod format;
pub mod io;
mod mmap;
mod reader;
mod writer;

pub use format::{Compression, SyncPolicy};
pub use io::{Clock, FaultPlan, FaultyIo, FileIo, RetryPolicy, StoreIo, SystemClock};
pub use reader::{decode_block, SkippedBlock, StoreInfo, StoreReader, StoreReplayReport};
pub use writer::{CommitMark, FinishOutcome, StoreSummary, StoreWriter};

use spm_sim::record::DecodeError;
use std::fmt;

/// Errors from store ingest or replay.
///
/// Per-block corruption during replay is *not* an error — it degrades
/// to a skip recorded in the [`StoreReplayReport`]. `Corrupt` means the
/// container itself was unusable (bad magic, unsupported version, or an
/// unrecoverable structure problem).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The underlying file or sink failed.
    Io {
        /// The operating-system error text.
        message: String,
    },
    /// The container (or, where attributed, one block) is structurally
    /// unreadable.
    Corrupt {
        /// The block the corruption was attributed to, if any.
        block: Option<u64>,
        /// The underlying decode failure.
        error: DecodeError,
    },
    /// A transient I/O failure persisted through the bounded retry
    /// budget (see [`io::RetryPolicy`]).
    Exhausted {
        /// Attempts made (first try plus retries).
        attempts: u32,
        /// The operation and the last error it produced.
        message: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { message } => write!(f, "store I/O error: {message}"),
            StoreError::Corrupt {
                block: Some(block),
                error,
            } => write!(f, "store block {block} corrupt: {error}"),
            StoreError::Corrupt { block: None, error } => {
                write!(f, "store corrupt: {error}")
            }
            StoreError::Exhausted { attempts, message } => {
                write!(
                    f,
                    "store I/O retries exhausted after {attempts} attempts: {message}"
                )
            }
        }
    }
}

impl std::error::Error for StoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_error_display_names_the_block() {
        let e = StoreError::Corrupt {
            block: Some(3),
            error: DecodeError::BadMagic,
        };
        assert!(e.to_string().contains("block 3"));
        let e = StoreError::Io {
            message: "boom".into(),
        };
        assert!(e.to_string().contains("boom"));
        let e = StoreError::Exhausted {
            attempts: 4,
            message: "sync: interrupted".into(),
        };
        assert!(e.to_string().contains("4 attempts"));
    }
}
