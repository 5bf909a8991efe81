//! Incremental marker selection: feed trace events in batches, re-run
//! the two-pass selection on each batch boundary, and report the marker
//! set as *deltas* with a convergence criterion.
//!
//! This is the online counterpart of the batch pipeline (profile the
//! whole trace, then [`select_markers`] once). It works because both
//! halves of the batch pipeline are already incremental at heart:
//!
//! * [`CallLoopGraph`](crate::CallLoopGraph) is built by [`CallLoopProfiler`] one event at a
//!   time — there is no end-of-trace fixup; edge statistics (count,
//!   mean, max, variance) are folded in per traversal.
//! * [`select_markers`] is a pure function of the graph: re-running it
//!   over the graph-so-far costs O(edges) and needs no state from
//!   previous runs.
//!
//! Consequently, after the final batch the incremental marker set is
//! **identical** to what batch selection computes over the whole trace
//! (the equivalence is pinned by property tests and a CLI e2e gate).
//!
//! The profiler runs in [lenient](CallLoopProfiler::lenient) mode:
//! a long-running session may lose blocks (skipped on decode, dropped
//! by backpressure) and must degrade — counted in
//! [`SelectionDelta::tolerated_events`] — rather than poison. On clean
//! streams lenient profiling matches strict profiling exactly.

use crate::marker::{Marker, MarkerSet};
use crate::profile::CallLoopProfiler;
use crate::select::{select_markers, SelectConfig, SelectionOutcome};
use spm_sim::TraceEvent;

/// Default number of consecutive unchanged updates after which the
/// marker set is declared converged.
pub const DEFAULT_CONVERGE_UPDATES: u64 = 3;

/// What one [`IncrementalSelector::update`] changed: the marker-set
/// delta, the convergence verdict, and the session-degradation
/// counters.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectionDelta {
    /// 1-based index of this update.
    pub update: u64,
    /// Markers present now that were absent before this update, with
    /// their ids in the new set (`id + 1` is the phase id the marker
    /// starts; see [`crate::PRELUDE_PHASE`]).
    pub added: Vec<(usize, Marker)>,
    /// Markers present before this update that are gone now.
    pub removed: Vec<Marker>,
    /// Size of the marker set after this update.
    pub markers: usize,
    /// Consecutive updates (including this one) whose marker set was
    /// identical to the previous one. Reset to 0 by any change.
    pub stable_updates: u64,
    /// Whether `stable_updates` has reached the configured threshold.
    pub converged: bool,
    /// Events consumed so far (all updates).
    pub events: u64,
    /// Instruction-count watermark of the last event seen.
    pub icount: u64,
    /// Structural mismatches tolerated so far by the lenient profiler
    /// (lost opens/closes from skipped blocks). 0 on a clean stream.
    pub tolerated_events: u64,
    /// Frames currently open on the profiler's shadow stack: the live
    /// nesting depth mid-stream; persistent growth signals lost closes.
    pub dangling_frames: u64,
}

/// Online marker selection over a stream of event batches.
///
/// ```
/// use spm_core::{IncrementalSelector, SelectConfig};
/// use spm_ir::{Input, ProgramBuilder, Trip};
/// use spm_sim::{run, TraceEvent};
///
/// let mut b = ProgramBuilder::new("toy");
/// b.proc("main", |p| {
///     p.loop_(Trip::Fixed(50), |outer| {
///         outer.call("work");
///     });
/// });
/// b.proc("work", |p| {
///     p.loop_(Trip::Fixed(100), |body| {
///         body.block(100).done();
///     });
/// });
/// let program = b.build("main").unwrap();
///
/// // Collect the trace, then feed it in two halves.
/// let mut tape: Vec<(u64, TraceEvent)> = Vec::new();
/// run(&program, &Input::new("ref", 1), &mut [&mut tape]).unwrap();
///
/// let mut sel = IncrementalSelector::new(SelectConfig::new(5_000), 2);
/// let mid = tape.len() / 2;
/// let first = sel.update(&tape[..mid]);
/// let last = sel.update(&tape[mid..]);
/// assert_eq!(last.update, 2);
/// assert!(!sel.markers().is_empty());
/// # let _ = first;
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalSelector {
    profiler: CallLoopProfiler,
    config: SelectConfig,
    markers: MarkerSet,
    updates: u64,
    stable_updates: u64,
    converge_after: u64,
    icount: u64,
}

impl IncrementalSelector {
    /// Creates a selector. The marker set counts as converged once it
    /// has survived `converge_after` consecutive updates unchanged
    /// (0 is treated as [`DEFAULT_CONVERGE_UPDATES`]).
    pub fn new(config: SelectConfig, converge_after: u64) -> Self {
        Self {
            profiler: CallLoopProfiler::lenient(),
            config,
            markers: MarkerSet::new(),
            updates: 0,
            stable_updates: 0,
            converge_after: if converge_after == 0 {
                DEFAULT_CONVERGE_UPDATES
            } else {
                converge_after
            },
            icount: 0,
        }
    }

    /// Feeds one batch of `(icount, event)` pairs and re-runs the
    /// two-pass selection on the graph so far, returning what changed.
    ///
    /// An empty batch still counts as an update (a block boundary with
    /// no graph-shaping events is a legitimate stability observation).
    pub fn update(&mut self, batch: &[(u64, TraceEvent)]) -> SelectionDelta {
        use spm_sim::TraceObserver;
        self.profiler.on_batch(batch);
        if let Some(&(icount, _)) = batch.last() {
            self.icount = self.icount.max(icount);
        }
        self.updates += 1;
        let outcome = select_markers(self.profiler.graph(), &self.config);
        let delta = self.diff(&outcome.markers);
        self.markers = outcome.markers;
        delta
    }

    /// Diffs `new` against the current set and folds the stability
    /// counters forward.
    fn diff(&mut self, new: &MarkerSet) -> SelectionDelta {
        let added: Vec<(usize, Marker)> = new
            .iter()
            .filter(|(_, m)| !contains(&self.markers, *m))
            .collect();
        let removed: Vec<Marker> = self
            .markers
            .iter()
            .map(|(_, m)| m)
            .filter(|m| !contains(new, *m))
            .collect();
        if added.is_empty() && removed.is_empty() && self.updates > 1 {
            self.stable_updates += 1;
        } else {
            self.stable_updates = 0;
        }
        SelectionDelta {
            update: self.updates,
            added,
            removed,
            markers: new.len(),
            stable_updates: self.stable_updates,
            converged: self.stable_updates >= self.converge_after,
            events: self.profiler.events(),
            icount: self.icount,
            tolerated_events: self.profiler.tolerated(),
            dangling_frames: self.profiler.dangling_frames() as u64,
        }
    }

    /// The marker set as of the last update.
    pub fn markers(&self) -> &MarkerSet {
        &self.markers
    }

    /// Re-runs selection on the graph so far and returns the full
    /// outcome (thresholds, per-edge decisions) without counting an
    /// update.
    pub fn outcome(&self) -> SelectionOutcome {
        select_markers(self.profiler.graph(), &self.config)
    }

    /// The graph built so far.
    pub fn graph(&self) -> &crate::graph::CallLoopGraph {
        self.profiler.graph()
    }

    /// Updates performed so far.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Events consumed so far.
    pub fn events(&self) -> u64 {
        self.profiler.events()
    }

    /// Instruction-count watermark of the last event seen.
    pub fn icount(&self) -> u64 {
        self.icount
    }

    /// Whether the marker set has been stable for the configured number
    /// of updates.
    pub fn converged(&self) -> bool {
        self.stable_updates >= self.converge_after
    }

    /// Consecutive unchanged updates as of the last update.
    pub fn stable_updates(&self) -> u64 {
        self.stable_updates
    }

    /// Structural mismatches tolerated so far (see
    /// [`CallLoopProfiler::tolerated`]).
    pub fn tolerated_events(&self) -> u64 {
        self.profiler.tolerated()
    }

    /// Frames currently open on the profiler's shadow stack.
    pub fn dangling_frames(&self) -> usize {
        self.profiler.dangling_frames()
    }

    /// Rough live memory footprint of the session's analysis state, in
    /// bytes: the graph's node/edge tables plus the shadow stack. Used
    /// by the serving layer to enforce per-session budgets; it is an
    /// estimate (hash-map overhead is approximated), not an allocator
    /// measurement.
    pub fn mem_estimate(&self) -> u64 {
        let graph = self.profiler.graph();
        // Nodes and edges live in Vecs plus two lookup maps; ~2x the
        // payload covers map overhead without claiming precision.
        let nodes = graph.nodes().len() as u64 * 2 * size_of_u64::<crate::graph::Node>();
        let edges = graph.edges().len() as u64 * 2 * size_of_u64::<crate::graph::Edge>();
        let stack = self.profiler.dangling_frames() as u64 * 40;
        let markers = self.markers.len() as u64 * 2 * size_of_u64::<Marker>();
        nodes + edges + stack + markers
    }
}

fn size_of_u64<T>() -> u64 {
    std::mem::size_of::<T>() as u64
}

/// Whether `set` contains exactly `marker` (same edge, or same loop
/// group with the same group size).
fn contains(set: &MarkerSet, marker: Marker) -> bool {
    match marker {
        Marker::Edge { from, to } => set.edge_marker(from, to).is_some(),
        Marker::LoopGroup { loop_id, group } => {
            set.group_marker(loop_id).is_some_and(|(g, _)| g == group)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::text::write_markers;
    use spm_ir::{Input, ProgramBuilder, Trip};
    use spm_sim::{run, TraceObserver};

    fn phased_trace() -> Vec<(u64, TraceEvent)> {
        let mut b = ProgramBuilder::new("t");
        b.proc("main", |p| {
            p.loop_(Trip::Fixed(40), |outer| {
                outer.call("work");
            });
        });
        b.proc("work", |p| {
            p.loop_(Trip::Fixed(60), |body| {
                body.block(120).done();
            });
        });
        let program = b.build("main").unwrap();
        let mut tape = Vec::new();
        run(&program, &Input::new("ref", 7), &mut [&mut tape]).unwrap();
        tape
    }

    #[test]
    fn final_set_matches_batch_selection() {
        let events = phased_trace();
        let config = SelectConfig::new(5_000);

        let mut batch = CallLoopProfiler::new();
        batch.on_batch(&events);
        let expected = select_markers(&batch.into_graph().unwrap(), &config);

        for chunk in [1usize, 7, 64, events.len()] {
            let mut sel = IncrementalSelector::new(config, 2);
            for part in events.chunks(chunk) {
                sel.update(part);
            }
            assert_eq!(
                write_markers(sel.markers()),
                write_markers(&expected.markers),
                "chunk size {chunk}"
            );
        }
    }

    #[test]
    fn deltas_compose_to_the_final_set() {
        let events = phased_trace();
        let mut sel = IncrementalSelector::new(SelectConfig::new(5_000), 2);
        let mut live: Vec<Marker> = Vec::new();
        for part in events.chunks(97) {
            let delta = sel.update(part);
            for m in &delta.removed {
                let at = live.iter().position(|x| x == m).expect("removed exists");
                live.remove(at);
            }
            for (_, m) in &delta.added {
                assert!(!live.contains(m), "added marker was already live");
                live.push(*m);
            }
            assert_eq!(live.len(), delta.markers);
        }
        let final_set: Vec<Marker> = sel.markers().iter().map(|(_, m)| m).collect();
        live.sort_by_key(|m| format!("{m}"));
        let mut expected = final_set.clone();
        expected.sort_by_key(|m| format!("{m}"));
        assert_eq!(live, expected);
    }

    #[test]
    fn convergence_requires_consecutive_stability() {
        let events = phased_trace();
        let mut sel = IncrementalSelector::new(SelectConfig::new(5_000), 3);
        let mut converged_at = None;
        for (i, part) in events.chunks(200).enumerate() {
            let delta = sel.update(part);
            if delta.converged && converged_at.is_none() {
                converged_at = Some(i);
                assert!(delta.stable_updates >= 3);
            }
        }
        // A regular trace converges mid-stream. The *final* chunk may
        // still change the set (the outermost call edges only record
        // their traversal at the program's last Return), so convergence
        // is a mid-stream signal, not an end-of-trace invariant.
        assert!(
            converged_at.is_some(),
            "a regular trace must converge before end-of-stream"
        );
    }

    #[test]
    fn empty_updates_count_toward_stability() {
        let events = phased_trace();
        let mut sel = IncrementalSelector::new(SelectConfig::new(5_000), 2);
        sel.update(&events);
        let d1 = sel.update(&[]);
        let d2 = sel.update(&[]);
        assert_eq!(d1.stable_updates, 1);
        assert!(d2.converged);
    }

    #[test]
    fn degradation_counters_surface_mid_stream() {
        use spm_ir::ProcId;
        let mut sel = IncrementalSelector::new(SelectConfig::new(10), 2);
        // A close without its open (lost block) and an open without its
        // close.
        let d = sel.update(&[
            (5, TraceEvent::Return { proc: ProcId(9) }),
            (6, TraceEvent::Call { proc: ProcId(1) }),
        ]);
        // The spurious Return drops both of its closes (body + head).
        assert_eq!(d.tolerated_events, 2, "spurious return tolerated");
        assert_eq!(d.dangling_frames, 2, "open call = head+body frames");
        assert!(sel.mem_estimate() > 0);
    }
}
