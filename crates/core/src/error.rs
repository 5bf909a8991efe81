//! The shared error taxonomy of the marker pipeline.
//!
//! Every fallible stage has its own error enum ([`ProfileError`] here,
//! [`ParseError`](crate::text::ParseError) for the text formats,
//! [`DslError`](spm_ir::DslError) for workload files,
//! [`RunError`](spm_sim::RunError) for execution,
//! [`DecodeError`](spm_sim::record::DecodeError) for recorded traces),
//! and [`SpmError`] is the umbrella the CLI and other drivers use: one
//! variant per stage, each carrying enough structured context (path,
//! workload, byte offset, event index) to localize the failure, and a
//! stable [`exit code`](SpmError::exit_code) per variant.

use crate::text::ParseError;
use spm_ir::DslError;
use spm_sim::record::DecodeError;
use spm_sim::RunError;
use std::fmt;

/// Errors from building the call-loop graph out of a trace.
///
/// A complete engine run never produces these; they arise when the
/// event stream was corrupted (a truncated or bit-flipped trace file, a
/// faulty instrumentation layer dropping returns or duplicating loop
/// back-edges).
///
/// `at_event` indexes the full stream as the profiler counts it: events
/// delivered plus events a filtering producer reported
/// [withheld](spm_sim::TraceObserver::withheld). A producer reports a
/// batch's withheld events before the batch, so on a filtered stream an
/// error inside a batch names an index past the offending event by the
/// events withheld between it and the batch's last event (the index of
/// the batch's last event at most). The engine, the one producer that
/// filters, never emits a stream the profiler faults on; store replay
/// and serve deliver the full stream, where the index is exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfileError {
    /// The trace ended with call/loop frames still open (e.g. a `Call`
    /// whose `Return` was lost).
    UnbalancedStack {
        /// Frames still open when the trace ended.
        depth: usize,
        /// Index of the last event delivered to the profiler.
        at_event: u64,
    },
    /// A close event arrived that does not match the innermost open
    /// frame (e.g. a `Return` while a loop iteration is open, or a
    /// `Return`/`LoopExit` with no frame open at all).
    MismatchedFrame {
        /// What the event tried to close.
        closing: FrameLabel,
        /// What the innermost open frame actually was, if any.
        found: Option<FrameLabel>,
        /// Index of the offending event (0-based).
        at_event: u64,
    },
}

/// Frame kinds named in [`ProfileError::MismatchedFrame`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameLabel {
    /// A procedure activation (head edge).
    ProcHead,
    /// A procedure body.
    ProcBody,
    /// A loop entry-to-exit span.
    LoopHead,
    /// One loop iteration.
    LoopBody,
}

impl fmt::Display for FrameLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FrameLabel::ProcHead => "procedure activation",
            FrameLabel::ProcBody => "procedure body",
            FrameLabel::LoopHead => "loop entry",
            FrameLabel::LoopBody => "loop iteration",
        };
        f.write_str(s)
    }
}

impl fmt::Display for ProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfileError::UnbalancedStack { depth, at_event } => write!(
                f,
                "unbalanced trace: {depth} frame(s) still open after event {at_event}"
            ),
            ProfileError::MismatchedFrame {
                closing,
                found: Some(found),
                at_event,
            } => write!(
                f,
                "corrupted trace: event {at_event} closes a {closing} but a {found} is open"
            ),
            ProfileError::MismatchedFrame {
                closing,
                found: None,
                at_event,
            } => write!(
                f,
                "corrupted trace: event {at_event} closes a {closing} but no frame is open"
            ),
        }
    }
}

impl std::error::Error for ProfileError {}

/// The pipeline-wide error: one variant per stage.
///
/// Constructed by drivers (the CLI, tests, examples) that string stages
/// together; each stage's own API returns its specific error type.
#[derive(Debug, Clone, PartialEq)]
pub enum SpmError {
    /// A file could not be read or written.
    Io {
        /// The path involved.
        path: String,
        /// The OS error message.
        message: String,
    },
    /// A workload file in the text DSL failed to parse.
    Workload {
        /// The file (or workload name) being parsed.
        source: String,
        /// The parse failure, with line context.
        error: DslError,
    },
    /// A graph or marker file failed to parse.
    Parse {
        /// The file being parsed.
        source: String,
        /// The parse failure, with line context.
        error: ParseError,
    },
    /// The execution engine rejected the program or input.
    Run(RunError),
    /// The call-loop profiler saw a corrupted event stream.
    Profile(ProfileError),
    /// A recorded trace failed to decode.
    Trace {
        /// The trace file (or a label for in-memory bytes).
        source: String,
        /// The decode failure, with byte offset where applicable.
        error: DecodeError,
    },
    /// A downstream analysis stage (clustering, figure computation)
    /// failed on otherwise well-formed inputs.
    Analysis {
        /// The stage that failed (e.g. `simpoint/kmeans`).
        stage: String,
        /// The stage's own error message.
        message: String,
    },
    /// A gated performance comparison (`spm report --baseline
    /// --candidate`) found a stage slower than the noise-aware
    /// threshold allows.
    Regression {
        /// The worst regressed stage (full span path).
        stage: String,
        /// Human-readable verdict summary (ratios, medians, count).
        message: String,
    },
    /// A transient I/O failure persisted through the bounded retry
    /// budget (store ingest retry/backoff, DESIGN.md §12). Distinct
    /// from `Io`: the operation was retried and *might* succeed if the
    /// whole run is repeated, so scripts can dispatch on it.
    Exhausted {
        /// The path or resource being written.
        path: String,
        /// Attempts made (first try plus retries).
        attempts: u32,
        /// The operation and the last error it produced.
        message: String,
    },
}

impl SpmError {
    /// The process exit code for this error class. Stable, documented
    /// in the README: scripts can dispatch on it.
    ///
    /// * 2 — usage errors (reserved for the CLI's argument layer)
    /// * 3 — I/O failures
    /// * 4 — workload DSL parse failures
    /// * 5 — graph/marker file parse failures
    /// * 6 — execution (engine) failures
    /// * 7 — profiler failures (corrupted event stream)
    /// * 8 — trace decode failures (corrupted record file)
    /// * 9 — analysis failures (clustering, figure computation)
    /// * 10 — performance regressions (gated `spm report` comparisons)
    /// * 11 — transient I/O errors that outlasted the retry budget
    pub fn exit_code(&self) -> u8 {
        match self {
            SpmError::Io { .. } => 3,
            SpmError::Workload { .. } => 4,
            SpmError::Parse { .. } => 5,
            SpmError::Run(_) => 6,
            SpmError::Profile(_) => 7,
            SpmError::Trace { .. } => 8,
            SpmError::Analysis { .. } => 9,
            SpmError::Regression { .. } => 10,
            SpmError::Exhausted { .. } => 11,
        }
    }

    /// Short machine-readable class name (used in warning/error lines).
    pub fn class(&self) -> &'static str {
        match self {
            SpmError::Io { .. } => "io",
            SpmError::Workload { .. } => "workload-parse",
            SpmError::Parse { .. } => "file-parse",
            SpmError::Run(_) => "run",
            SpmError::Profile(_) => "profile",
            SpmError::Trace { .. } => "trace-decode",
            SpmError::Analysis { .. } => "analysis",
            SpmError::Regression { .. } => "regression",
            SpmError::Exhausted { .. } => "exhausted",
        }
    }
}

impl fmt::Display for SpmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpmError::Io { path, message } => write!(f, "{path}: {message}"),
            SpmError::Workload { source, error } => write!(f, "{source}: {error}"),
            SpmError::Parse { source, error } => write!(f, "{source}: {error}"),
            SpmError::Run(e) => e.fmt(f),
            SpmError::Profile(e) => e.fmt(f),
            SpmError::Trace { source, error } => write!(f, "{source}: {error}"),
            SpmError::Analysis { stage, message } => write!(f, "{stage}: {message}"),
            SpmError::Regression { stage, message } => write!(f, "{stage}: {message}"),
            SpmError::Exhausted {
                path,
                attempts,
                message,
            } => write!(
                f,
                "{path}: I/O retries exhausted after {attempts} attempts: {message}"
            ),
        }
    }
}

impl std::error::Error for SpmError {}

impl From<RunError> for SpmError {
    fn from(e: RunError) -> Self {
        SpmError::Run(e)
    }
}

impl From<ProfileError> for SpmError {
    fn from(e: ProfileError) -> Self {
        SpmError::Profile(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_are_distinct_and_nonzero() {
        let samples = [
            SpmError::Io {
                path: "x".into(),
                message: "m".into(),
            },
            SpmError::Workload {
                source: "w".into(),
                error: DslError {
                    line: 1,
                    message: "m".into(),
                },
            },
            SpmError::Parse {
                source: "p".into(),
                error: ParseError {
                    line: 1,
                    message: "m".into(),
                },
            },
            SpmError::Run(RunError::RegionTooLarge {
                name: "r".into(),
                bytes: 1,
            }),
            SpmError::Profile(ProfileError::UnbalancedStack {
                depth: 1,
                at_event: 0,
            }),
            SpmError::Trace {
                source: "t".into(),
                error: DecodeError::BadMagic,
            },
            SpmError::Analysis {
                stage: "simpoint/kmeans".into(),
                message: "m".into(),
            },
            SpmError::Regression {
                stage: "cli/select/sim/run".into(),
                message: "3.0x over baseline".into(),
            },
            SpmError::Exhausted {
                path: "out.spmstore".into(),
                attempts: 4,
                message: "sync: interrupted".into(),
            },
        ];
        let mut codes: Vec<u8> = samples.iter().map(SpmError::exit_code).collect();
        assert!(
            codes.iter().all(|&c| c > 1),
            "codes 0/1 are reserved: {codes:?}"
        );
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), samples.len(), "exit codes must be distinct");
        // And every class renders.
        for e in &samples {
            assert!(!e.to_string().is_empty());
            assert!(!e.class().is_empty());
        }
    }

    #[test]
    fn profile_errors_render_context() {
        let e = ProfileError::UnbalancedStack {
            depth: 3,
            at_event: 41,
        };
        assert!(e.to_string().contains("3 frame(s)"));
        assert!(e.to_string().contains("event 41"));
        let e = ProfileError::MismatchedFrame {
            closing: FrameLabel::ProcBody,
            found: Some(FrameLabel::LoopBody),
            at_event: 7,
        };
        let text = e.to_string();
        assert!(text.contains("procedure body") && text.contains("loop iteration"));
    }
}
