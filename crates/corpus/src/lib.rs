//! `spm-corpus` — a content-addressed corpus of phase-marker runs, and
//! the fleet-wide queries the paper's stability claim needs.
//!
//! `spm report` compares exactly two runs. The corpus generalizes that:
//! every run of the pipeline — the packed `spmstk01` container, the
//! `spm-obs` metrics/spans/profile streams, the selected-marker file,
//! the phase partition, the `BENCH_report.json` of a figure-suite run —
//! is ingested **once** into an on-disk content-addressed layout and
//! queried **offline**, any number of times, without re-running any
//! analysis.
//!
//! # Layout
//!
//! ```text
//! <dir>/
//!   CORPUS            one-line format marker ("spm-corpus v1")
//!   objects/<16hex>   artifact blobs, named by their content key
//!   runs/<16hex>.json one manifest per ingested run (spm-corpus/run/v1)
//! ```
//!
//! Every artifact is stored under its FNV-1a-64 content key — for a
//! store container the key folds the per-block payload checksums the
//! container already carries ([`spm_store::StoreReader::content_key`],
//! the same key `spm info` prints), for everything else the key is the
//! hash of the file bytes. Identical outputs land on identical keys, so
//! re-ingesting an unchanged run writes **zero** new objects and the
//! corpus grows with the amount of *distinct* work, not the number of
//! ingests. A run's identity is itself content-derived (workload, input,
//! seed, label, and the artifact keys), so the whole `add` of an
//! unchanged run is a byte-for-byte no-op.
//!
//! # Queries
//!
//! * [`query::stability`] — which marker edges survive across every
//!   ingested input/seed of a workload, with a per-marker survival
//!   fraction. This is the paper's cross-input stability claim made
//!   measurable at fleet scale.
//! * [`query::trajectory`] — per-figure median wall-clock across
//!   every ingested `BENCH_report.json`. A report describes one suite
//!   invocation; the corpus is the one history. Reports carry no
//!   throughput: per-layer costs come from `perfbench` traces, which
//!   ingest as `--metrics` artifacts like any spm-obs stream.
//! * [`query::regressions`] — the `spm report` noise-aware gate
//!   (median-of-N, relative threshold, absolute floor) applied across
//!   **all** same-workload run pairs, each run indexed once
//!   ([`spm_report::StageIndex`]), worst pairs first.
//!
//! [`html::render`] renders all three as a single self-contained HTML
//! dashboard (inline style, no scripts, no external assets — the same
//! discipline as the flame HTML).
//!
//! Everything is deterministic: ingest and queries fan out over the
//! `spm-par` order-preserving pool, so output bytes are identical at
//! any `--jobs` count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod html;
pub mod ingest;
pub mod manifest;
pub mod query;

mod corpus;

pub use corpus::Corpus;
pub use ingest::{add, AddOutcome, RunSpec};
pub use manifest::{key_hex, Artifact, ArtifactKind, RunManifest, RUN_SCHEMA};

/// The first line of the `CORPUS` marker file: identifies a directory
/// as a corpus and versions its layout.
pub const CORPUS_MARKER: &str = "spm-corpus v1";
