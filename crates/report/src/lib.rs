//! `spm-report` — the analysis layer that reads the observability
//! streams back: where `spm-obs` makes every pipeline stage *emit*
//! structured spans and metrics, this crate *consumes* them.
//!
//! Three consumers share one ingested representation ([`Run`]):
//!
//! * **Flame view** ([`flame`]) — the flat span stream reassembled into
//!   a hierarchical stage tree with total/self time and invocation
//!   counts per stage, rendered to the terminal and to a fully
//!   self-contained HTML file ([`html`], no external assets).
//! * **Phase dashboard** ([`dashboard`]) — the phase-quality metrics of
//!   the CGO'06 pipeline summarized per run: VLI-length histograms,
//!   per-phase CoV of interval lengths (the paper's homogeneity lens),
//!   the CoV-threshold inputs (`avg_cov`/`std_cov`/`cov_floor`),
//!   limit-variant cut/merge counts, throughput gauges, and warnings.
//! * **Cross-run diff** ([`diff`]) — noise-aware regression verdicts
//!   between a baseline and a candidate stream: per-stage median-of-N
//!   wall-clock, a relative threshold, and an absolute floor that
//!   keeps microsecond-scale spans from flapping the gate. A gated
//!   regression surfaces as [`SpmError::Regression`](spm_core::SpmError)
//!   (exit code 10) so CI can fail the build.
//!
//! The crate is zero-dependency beyond the workspace: ingestion reuses
//! the `spm-obs` JSONL parser/validator (the executable schema), so a
//! stream that loads here is exactly a stream the emitting side
//! considers valid — including the rejection of non-finite metrics.
//!
//! [`statflame`] renders the statistical-profiler side of a stream:
//! sampled folded stacks become their own flame view (exact, rebuilt
//! from the `;`-separated frames) next to the span flame, and
//! [`statflame::folded_lines`] exports either as flamegraph input.
//!
//! [`bench`](mod@bench) additionally validates the one bench artifact,
//! `results/BENCH_report.json`, that `all_figures` writes.
//!
//! # Example
//!
//! ```
//! use spm_report::{diff_runs, gate, load_str, DiffConfig};
//!
//! let base = r#"{"v":1,"kind":"span","name":"sim/run","dur_us":10000,"fields":{}}"#;
//! let cand = r#"{"v":1,"kind":"span","name":"sim/run","dur_us":30000,"fields":{}}"#;
//! let base = load_str("base", base).unwrap();
//! let cand = load_str("cand", cand).unwrap();
//! let cfg = DiffConfig::default();
//! let diffs = diff_runs(&base, &cand, &cfg);
//! assert!(gate(&diffs, &cfg).is_err(), "3x slowdown must gate");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod bench;
pub mod dashboard;
pub mod diff;
pub mod flame;
pub mod html;
pub mod ingest;
pub mod statflame;

pub use diff::{
    diff_indexes, diff_runs, gate, DiffConfig, StageDiff, StageIndex, StageStats, Verdict,
};
pub use flame::FlameNode;
pub use ingest::{load_file, load_str, Field, Payload, ReportEvent, Run};
pub use statflame::StatNode;
