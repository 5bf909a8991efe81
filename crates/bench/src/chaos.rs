//! Crash-kill chaos harness for the store's durability contract
//! (DESIGN.md §12).
//!
//! For each committed workload file the harness records its event
//! stream once, then replays that stream into a [`StoreWriter`] backed
//! by the deterministic [`FaultyIo`] failpoint disk, killing the disk
//! at a sweep of I/O operations. Each torn image is reopened and the
//! durability invariant is asserted:
//!
//! 1. **No committed block lost** — recovery yields at least the
//!    events the writer's [`CommitMark`] had made durable.
//! 2. **No partial event surfaced** — the recovered stream is exactly
//!    a prefix of the clean stream (event-for-event equality).
//! 3. **Byte-identical analysis** — at sampled crash points, marker
//!    selection over the recovered store renders the same marker file
//!    as selection over the clean stream truncated to the same prefix.
//!
//! A transient-fault run per workload additionally checks that the
//! bounded retry policy absorbs flaky I/O without losing anything.
//! Everything is seeded; a failing crash point replays exactly.
//! `src/bin/chaos_matrix.rs` sweeps the matrix in CI and writes a
//! machine-readable fault report.

use spm_core::text::write_markers;
use spm_core::{select_markers, CallLoopProfiler, SelectConfig, SpmError};
use spm_ir::parse_workload;
use spm_sim::{run, TraceEvent, TraceObserver};
use spm_store::io::{Clock, FaultPlan, FaultyIo, RetryPolicy};
use spm_store::{CommitMark, StoreReader, StoreWriter, SyncPolicy};
use std::path::PathBuf;

/// Schema tag of the chaos fault report.
pub const CHAOS_SCHEMA: &str = "spm-bench/chaos/v1";

/// The committed workload files the matrix sweeps.
pub const WORKLOAD_FILES: [&str; 4] = ["art.spm", "example.spm", "gzip.spm", "streamjoin.spm"];

/// Block budget for chaos stores: small enough that every workload
/// spans many blocks (many commit points), large enough to stay fast.
pub const CHAOS_BLOCK_BUDGET: usize = 2048;

/// The repo's `workloads/` directory, resolved from the crate root so
/// the harness runs from any working directory.
pub fn workloads_dir() -> PathBuf {
    let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    dir.pop();
    dir.pop();
    dir.join("workloads")
}

/// A no-sleep clock: chaos sweeps inject transients by the thousand,
/// and real backoff would dominate the run time.
#[derive(Debug)]
struct NoSleep;

impl Clock for NoSleep {
    fn sleep(&self, _duration: std::time::Duration) {}
}

/// One simulated kill and what recovery made of it.
#[derive(Debug, Clone)]
pub struct CrashPoint {
    /// The I/O operation the disk died at (0-based).
    pub op: u64,
    /// The writer's durable watermark when it died.
    pub committed: CommitMark,
    /// Events the reopened store recovered (0 if even the header was
    /// lost — legal only while nothing was committed).
    pub recovered_events: u64,
    /// Blocks the reopened store recovered.
    pub recovered_blocks: u64,
    /// Whether marker selection was compared against the clean
    /// truncated reference at this point.
    pub markers_checked: bool,
    /// The first invariant violation, if any.
    pub violation: Option<String>,
}

/// The chaos sweep of one workload.
#[derive(Debug, Clone)]
pub struct WorkloadChaos {
    /// Workload file name (e.g. `gzip.spm`).
    pub workload: String,
    /// Events in the clean stream.
    pub clean_events: u64,
    /// I/O operations a clean pack performs (the sweep domain).
    pub clean_ops: u64,
    /// Crash points simulated (sampled over `0..clean_ops`).
    pub crash_points: Vec<CrashPoint>,
    /// Retries absorbed by the transient-fault run.
    pub transient_retries: u64,
    /// Violation from the transient-fault run, if any.
    pub transient_violation: Option<String>,
}

impl WorkloadChaos {
    /// All violations at this workload's crash points.
    pub fn violations(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .crash_points
            .iter()
            .filter_map(|p| {
                p.violation
                    .as_ref()
                    .map(|v| format!("{} op {}: {v}", self.workload, p.op))
            })
            .collect();
        if let Some(v) = &self.transient_violation {
            out.push(format!("{} transient run: {v}", self.workload));
        }
        out
    }
}

/// Loads a workload file and records its clean event stream (first
/// declared input).
fn record_stream(file: &str) -> Result<Vec<(u64, TraceEvent)>, SpmError> {
    let path = workloads_dir().join(file);
    let text = std::fs::read_to_string(&path).map_err(|e| SpmError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    })?;
    let parsed = parse_workload(&text).map_err(|error| SpmError::Workload {
        source: file.to_string(),
        error,
    })?;
    let input = parsed
        .inputs
        .first()
        .cloned()
        .ok_or_else(|| SpmError::Workload {
            source: file.to_string(),
            error: spm_ir::DslError {
                line: 0,
                message: "no input blocks".into(),
            },
        })?;
    let mut flat = Vec::new();
    run(&parsed.program, &input, &mut [&mut flat]).map_err(SpmError::Run)?;
    Ok(flat)
}

/// Replays a recorded stream into a writer backed by `plan`, returning
/// the finish result, the commit watermark, and the disk.
fn pack_through(
    events: &[(u64, TraceEvent)],
    plan: FaultPlan,
) -> (
    Result<spm_store::StoreSummary, spm_store::StoreError>,
    CommitMark,
    FaultyIo,
) {
    let mut writer = StoreWriter::with_block_budget(FaultyIo::new(plan), CHAOS_BLOCK_BUDGET)
        .sync_policy(SyncPolicy::Block)
        .retry_policy(RetryPolicy {
            max_retries: 3,
            base_delay: std::time::Duration::ZERO,
        })
        .clock(Box::new(NoSleep));
    writer.on_batch(events);
    let outcome = writer.finish_with_sink();
    (outcome.result, outcome.committed, outcome.sink)
}

/// Renders the marker file selected from an event stream (lenient
/// profiling: truncated prefixes have frames still open).
fn markers_of(events: &[(u64, TraceEvent)]) -> Result<String, SpmError> {
    let mut profiler = CallLoopProfiler::lenient();
    profiler.on_batch(events);
    let graph = profiler.into_graph().map_err(SpmError::Profile)?;
    let outcome = select_markers(&graph, &SelectConfig::new(crate::ILOWER));
    Ok(write_markers(&outcome.markers))
}

/// Events recovered from a torn image: `(events, blocks, stream)`.
type Recovered = (u64, u64, Vec<(u64, TraceEvent)>);

/// Opens a torn image and replays everything it recovered.
fn recover(torn: &[u8]) -> Option<Recovered> {
    let mut reader = StoreReader::from_bytes(torn.to_vec()).ok()?;
    let mut got = Vec::new();
    let report = reader.replay(&mut [&mut got]).ok()?;
    if !report.is_clean() {
        // A recovered index only lists checksum-verified blocks, so a
        // skip here is itself an invariant violation; surface it as
        // "recovered fewer events than the info claimed".
        return Some((report.events, report.blocks, got));
    }
    Some((reader.info().events, reader.info().blocks, got))
}

/// Checks one torn image against the durability invariant.
fn check_crash_point(
    clean: &[(u64, TraceEvent)],
    clean_markers_cache: &mut std::collections::HashMap<usize, String>,
    op: u64,
    committed: CommitMark,
    torn: &FaultyIo,
    check_markers: bool,
) -> CrashPoint {
    let mut point = CrashPoint {
        op,
        committed,
        recovered_events: 0,
        recovered_blocks: 0,
        markers_checked: false,
        violation: None,
    };
    let recovered = recover(torn.bytes());
    let (events, blocks, stream) = match recovered {
        Some(r) => r,
        None => {
            // Unopenable (header never survived): legal only while
            // nothing was committed.
            if committed.events > 0 {
                point.violation = Some(format!(
                    "store unopenable but {} events were committed",
                    committed.events
                ));
            }
            return point;
        }
    };
    point.recovered_events = events;
    point.recovered_blocks = blocks;
    // Invariant 1: no committed block lost.
    if events < committed.events {
        point.violation = Some(format!(
            "recovered {events} events but {} were committed",
            committed.events
        ));
        return point;
    }
    if stream.len() as u64 != events {
        point.violation = Some(format!(
            "replay delivered {} events but recovery reported {events}",
            stream.len()
        ));
        return point;
    }
    // Invariant 2: the recovered stream is exactly a clean prefix (no
    // partial or altered event survives).
    if stream.len() > clean.len() || stream[..] != clean[..stream.len()] {
        point.violation = Some(format!(
            "recovered stream of {} events is not a prefix of the clean stream",
            stream.len()
        ));
        return point;
    }
    // Invariant 3 (sampled): byte-identical analysis output versus the
    // clean stream truncated to the same prefix.
    if check_markers {
        point.markers_checked = true;
        let reference = match clean_markers_cache.entry(stream.len()) {
            std::collections::hash_map::Entry::Occupied(e) => e.get().clone(),
            std::collections::hash_map::Entry::Vacant(e) => {
                match markers_of(&clean[..stream.len()]) {
                    Ok(text) => e.insert(text).clone(),
                    Err(err) => {
                        point.violation = Some(format!("clean reference profiling failed: {err}"));
                        return point;
                    }
                }
            }
        };
        match markers_of(&stream) {
            Ok(text) if text == reference => {}
            Ok(_) => {
                point.violation =
                    Some("marker selection diverged from the clean truncated reference".into());
            }
            Err(err) => {
                point.violation = Some(format!("profiling the recovered stream failed: {err}"));
            }
        }
    }
    point
}

/// Sweeps crash kills over one workload: at most `max_points` evenly
/// spaced operations (the tail always included), marker equality
/// checked at up to 8 of them.
pub fn run_workload(file: &str, seed: u64, max_points: usize) -> Result<WorkloadChaos, SpmError> {
    let clean = record_stream(file)?;
    // Fault-free pass through the same disk counts the sweep domain.
    let (clean_result, _, clean_disk) = pack_through(&clean, FaultPlan::new(seed));
    let summary = clean_result.map_err(|e| crate::analysis_error("chaos/clean-pack", e))?;
    if summary.events != clean.len() as u64 {
        return Err(crate::analysis_error(
            "chaos/clean-pack",
            format!("packed {} of {} events", summary.events, clean.len()),
        ));
    }
    let clean_ops = clean_disk.ops();
    let max_points = max_points.max(1);
    let stride = (clean_ops as usize).div_ceil(max_points).max(1) as u64;
    let mut ops: Vec<u64> = (0..clean_ops).step_by(stride as usize).collect();
    if ops.last() != Some(&(clean_ops - 1)) {
        ops.push(clean_ops - 1); // the kill during the final footer sync
    }
    let marker_every = ops.len().div_ceil(8).max(1);

    let mut crash_points = Vec::with_capacity(ops.len());
    let mut reference_cache = std::collections::HashMap::new();
    for (i, &op) in ops.iter().enumerate() {
        let plan = FaultPlan::new(seed ^ (op.wrapping_mul(0x9e37_79b9))).crash_at_op(op);
        let (result, committed, disk) = pack_through(&clean, plan);
        if result.is_ok() {
            crash_points.push(CrashPoint {
                op,
                committed,
                recovered_events: 0,
                recovered_blocks: 0,
                markers_checked: false,
                violation: Some("pack succeeded despite a scheduled kill".into()),
            });
            continue;
        }
        crash_points.push(check_crash_point(
            &clean,
            &mut reference_cache,
            op,
            committed,
            &disk,
            i % marker_every == 0,
        ));
    }

    // Transient-fault run: flaky but never dead; retries must absorb
    // every injected error and the container must be whole.
    let (result, _, disk) = pack_through(&clean, FaultPlan::new(seed).transient_one_in(8));
    let mut transient_retries = 0;
    let transient_violation = match result {
        Ok(summary) => {
            transient_retries = summary.retries;
            if summary.retries < disk.injected_transients() {
                Some(format!(
                    "absorbed {} retries but {} transients were injected",
                    summary.retries,
                    disk.injected_transients()
                ))
            } else if summary.events != clean.len() as u64 {
                Some(format!(
                    "transient run packed {} of {} events",
                    summary.events,
                    clean.len()
                ))
            } else {
                None
            }
        }
        Err(e) => Some(format!("transient run failed: {e}")),
    };

    Ok(WorkloadChaos {
        workload: file.to_string(),
        clean_events: clean.len() as u64,
        clean_ops,
        crash_points,
        transient_retries,
        transient_violation,
    })
}

/// Sweeps the full matrix over the committed workloads.
pub fn run_matrix(seed: u64, max_points: usize) -> Result<Vec<WorkloadChaos>, SpmError> {
    WORKLOAD_FILES
        .iter()
        .map(|file| run_workload(file, seed, max_points))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A compact sweep over one workload: every sampled kill must
    /// satisfy the durability invariant, and the transient run must
    /// absorb its faults.
    #[test]
    fn example_workload_survives_the_crash_sweep() {
        let chaos = run_workload("example.spm", 0xc4a5, 12).unwrap();
        assert!(chaos.clean_ops > 10, "sweep needs many commit points");
        assert!(chaos.crash_points.len() >= 12);
        assert_eq!(chaos.violations(), Vec::<String>::new());
        // The sweep must include kills that lose uncommitted data
        // (recovered < clean) and kills with nothing committed yet.
        assert!(chaos
            .crash_points
            .iter()
            .any(|p| p.recovered_events < chaos.clean_events));
        assert!(chaos.crash_points.iter().any(|p| p.committed.events == 0));
        assert!(chaos.crash_points.iter().any(|p| p.markers_checked));
        assert!(chaos.transient_retries > 0, "transients must be injected");
    }

    /// Same seed, same torn images, same verdicts.
    #[test]
    fn sweep_is_deterministic() {
        let a = run_workload("example.spm", 7, 6).unwrap();
        let b = run_workload("example.spm", 7, 6).unwrap();
        let key = |c: &WorkloadChaos| {
            c.crash_points
                .iter()
                .map(|p| (p.op, p.recovered_events, p.committed.events))
                .collect::<Vec<_>>()
        };
        assert_eq!(key(&a), key(&b));
    }
}
