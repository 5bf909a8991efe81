//! Software phase markers, the runtime that detects them, and
//! variable-length interval (VLI) partitioning.

use crate::graph::NodeKey;
use crate::profile::{CallStack, Walker};
use spm_ir::LoopId;
use spm_sim::{FastMap, Reads, TraceEvent, TraceObserver};
use std::fmt;

/// One software phase marker: a point in the binary that, when executed,
/// signals the start of an interval of repeating behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Marker {
    /// A call-loop graph edge: fires when the target head/body is
    /// activated from exactly this context (a specific call site, loop
    /// entry, or loop iteration).
    Edge {
        /// Context node of the traversal.
        from: NodeKey,
        /// Activated head or body node.
        to: NodeKey,
    },
    /// A merged-iteration marker (paper Section 5.2): fires every
    /// `group`-th iteration of the loop, counting from each entry.
    LoopGroup {
        /// The loop.
        loop_id: LoopId,
        /// Number of consecutive iterations per interval.
        group: u64,
    },
}

impl fmt::Display for Marker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Marker::Edge { from, to } => write!(f, "{from}->{to}"),
            Marker::LoopGroup { loop_id, group } => write!(f, "{loop_id}x{group}"),
        }
    }
}

/// An ordered set of markers; the position of a marker is its id, and an
/// interval's **phase id** is the id of the marker that started it plus
/// one (phase [`PRELUDE_PHASE`] is execution before the first firing).
#[derive(Debug, Clone, Default)]
pub struct MarkerSet {
    markers: Vec<Marker>,
    edge_index: FastMap<(NodeKey, NodeKey), usize>,
    group_index: FastMap<LoopId, (u64, usize)>,
}

impl MarkerSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a marker, returning its id; adding an identical marker again
    /// returns the existing id.
    pub fn insert(&mut self, marker: Marker) -> usize {
        match marker {
            Marker::Edge { from, to } => {
                if let Some(&id) = self.edge_index.get(&(from, to)) {
                    return id;
                }
                let id = self.markers.len();
                self.markers.push(marker);
                self.edge_index.insert((from, to), id);
                id
            }
            Marker::LoopGroup { loop_id, group } => {
                if let Some(&(g, id)) = self.group_index.get(&loop_id) {
                    if g == group {
                        return id;
                    }
                }
                let id = self.markers.len();
                self.markers.push(marker);
                self.group_index.insert(loop_id, (group, id));
                id
            }
        }
    }

    /// The markers, in id order.
    pub fn markers(&self) -> &[Marker] {
        &self.markers
    }

    /// Number of markers.
    pub fn len(&self) -> usize {
        self.markers.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.markers.is_empty()
    }

    /// Looks up an edge marker.
    pub fn edge_marker(&self, from: NodeKey, to: NodeKey) -> Option<usize> {
        self.edge_index.get(&(from, to)).copied()
    }

    /// Looks up the merged-iteration marker of a loop.
    pub fn group_marker(&self, loop_id: LoopId) -> Option<(u64, usize)> {
        self.group_index.get(&loop_id).copied()
    }

    /// Iterates over `(id, marker)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, Marker)> + '_ {
        self.markers.iter().copied().enumerate()
    }
}

impl FromIterator<Marker> for MarkerSet {
    fn from_iter<I: IntoIterator<Item = Marker>>(iter: I) -> Self {
        let mut set = MarkerSet::new();
        for m in iter {
            set.insert(m);
        }
        set
    }
}

/// One marker execution observed at runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MarkerFiring {
    /// Instruction count at which the marker fired.
    pub icount: u64,
    /// Id of the marker within its [`MarkerSet`].
    pub marker: usize,
}

/// Trace observer that detects marker executions during a run.
///
/// This is the software-only runtime the paper envisions: the marker set
/// corresponds to instrumentation inserted at call sites and loop
/// branches, and firing requires no hardware support. The runtime tracks
/// only the current call/loop context, on the same shadow-stack walk as
/// the [`CallLoopProfiler`](crate::CallLoopProfiler) (a close that does
/// not match the innermost frame is dropped), so markers fire in the
/// contexts the profiler records their edges in, and detecting markers
/// is O(1) per control-flow event. A loop iteration, the most frequent
/// of them, finds its markers in a per-loop table built once in
/// [`new`](Self::new), with no hashing.
///
/// It acts on call-loop events only and says so through
/// [`TraceObserver::reads`] ([`Reads::NONE`]), so `spm_sim::run` hands
/// a run whose observers read nothing more only those events.
#[derive(Debug, Clone)]
pub struct MarkerRuntime<'m> {
    markers: &'m MarkerSet,
    /// The markers an iteration of each loop can fire, by loop id, up to
    /// the largest marked loop id below [`DENSE_LOOPS`]: loops past it
    /// and below that bound have none, and larger ids look theirs up in
    /// the set.
    loops: Vec<LoopMarkers>,
    stack: CallStack<NodeKey>,
    firings: Vec<MarkerFiring>,
}

/// Bound on [`MarkerRuntime`]'s per-loop table. Programs number loops
/// densely from 0, so this covers every loop of a program with up to
/// this many loops while a stray huge id cannot size the table.
const DENSE_LOOPS: usize = 1 << 12;

/// The markers that can fire on an iteration of one loop.
#[derive(Debug, Clone, Copy)]
struct LoopMarkers {
    /// The loop's `head -> body` edge marker.
    edge: Option<usize>,
    /// The loop's `LoopGroup` marker, with its group size.
    group: Option<(u64, usize)>,
}

impl LoopMarkers {
    const NONE: Self = Self {
        edge: None,
        group: None,
    };

    fn of(markers: &MarkerSet, loop_id: LoopId) -> Self {
        Self {
            edge: markers.edge_marker(NodeKey::LoopHead(loop_id), NodeKey::LoopBody(loop_id)),
            group: markers.group_marker(loop_id),
        }
    }
}

impl<'m> MarkerRuntime<'m> {
    /// Creates a runtime detecting the given marker set.
    pub fn new(markers: &'m MarkerSet) -> Self {
        let len = markers
            .iter()
            .filter_map(|(_, marker)| match marker {
                Marker::Edge {
                    from: NodeKey::LoopHead(head),
                    to: NodeKey::LoopBody(body),
                } if head == body => Some(body.index()),
                Marker::LoopGroup { loop_id, .. } => Some(loop_id.index()),
                _ => None,
            })
            .filter(|&index| index < DENSE_LOOPS)
            .max()
            .map_or(0, |index| index + 1);
        let loops = (0..len)
            .map(|index| LoopMarkers::of(markers, LoopId(index as u32)))
            .collect();
        Self {
            markers,
            loops,
            stack: Vec::new(),
            firings: Vec::new(),
        }
    }

    /// The firings observed so far, in execution order.
    pub fn firings(&self) -> Vec<MarkerFiring> {
        self.firings.clone()
    }

    /// Consumes the runtime, returning the firings.
    pub fn into_firings(self) -> Vec<MarkerFiring> {
        self.firings
    }
}

impl Walker for MarkerRuntime<'_> {
    type Node = NodeKey;

    fn stack(&mut self) -> &mut CallStack<NodeKey> {
        &mut self.stack
    }

    fn root(&self) -> NodeKey {
        NodeKey::Root
    }

    fn node(&mut self, key: NodeKey) -> NodeKey {
        key
    }

    fn key(&self, node: NodeKey) -> NodeKey {
        node
    }

    fn enter(&mut self, from: NodeKey, to: NodeKey, icount: u64) {
        if let Some(marker) = self.markers.edge_marker(from, to) {
            self.firings.push(MarkerFiring { icount, marker });
        }
    }

    #[inline]
    fn iterate(&mut self, loop_id: LoopId, index: u64, icount: u64) {
        let loop_markers = match self.loops.get(loop_id.index()) {
            Some(&loop_markers) => loop_markers,
            None if loop_id.index() < DENSE_LOOPS => LoopMarkers::NONE,
            None => LoopMarkers::of(self.markers, loop_id),
        };
        if let Some(marker) = loop_markers.edge {
            self.firings.push(MarkerFiring { icount, marker });
        }
        if let Some((group, marker)) = loop_markers.group {
            if index.is_multiple_of(group.max(1)) {
                self.firings.push(MarkerFiring { icount, marker });
            }
        }
    }
}

impl TraceObserver for MarkerRuntime<'_> {
    fn on_batch(&mut self, batch: &[(u64, TraceEvent)]) {
        for (icount, event) in batch {
            self.walk(*icount, event);
        }
    }

    /// Markers are call-loop edges: the runtime acts on call-loop
    /// events only.
    fn reads(&self) -> Reads {
        Reads::NONE
    }
}

/// Phase id of execution before the first marker firing.
pub const PRELUDE_PHASE: usize = 0;

/// One variable-length interval of execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Vli {
    /// First instruction of the interval.
    pub begin: u64,
    /// One past the last instruction.
    pub end: u64,
    /// Phase id: [`PRELUDE_PHASE`] before the first firing, otherwise
    /// `marker_id + 1` of the marker that started the interval.
    pub phase: usize,
}

impl Vli {
    /// Instructions in the interval.
    pub fn len(&self) -> u64 {
        self.end - self.begin
    }

    /// Whether the interval is empty.
    pub fn is_empty(&self) -> bool {
        self.end == self.begin
    }
}

/// Splits an execution of `total_instrs` instructions into variable
/// length intervals at marker firings.
///
/// Every firing starts a new interval whose phase id is derived from the
/// firing marker; firings at the same instruction count (or at 0 /
/// `total_instrs`) produce no empty intervals — the *first* marker to
/// fire at a boundary names the phase.
///
/// # Examples
///
/// ```
/// use spm_core::{partition, MarkerFiring, PRELUDE_PHASE};
///
/// let firings = vec![
///     MarkerFiring { icount: 100, marker: 0 },
///     MarkerFiring { icount: 250, marker: 1 },
///     MarkerFiring { icount: 250, marker: 0 }, // same boundary: ignored
/// ];
/// let vlis = partition(&firings, 400);
/// assert_eq!(vlis.len(), 3);
/// assert_eq!(vlis[0].phase, PRELUDE_PHASE);
/// assert_eq!((vlis[1].begin, vlis[1].end, vlis[1].phase), (100, 250, 1));
/// assert_eq!((vlis[2].begin, vlis[2].end, vlis[2].phase), (250, 400, 2));
/// ```
pub fn partition(firings: &[MarkerFiring], total_instrs: u64) -> Vec<Vli> {
    let mut vlis = Vec::new();
    let mut begin = 0u64;
    let mut phase = PRELUDE_PHASE;
    // Whether a firing has already named the phase starting at `begin`
    // (the first marker to fire at a boundary wins).
    let mut boundary_named = false;
    for firing in firings {
        let at = firing.icount.min(total_instrs);
        debug_assert!(at >= begin, "firings must be in execution order");
        if at > begin {
            vlis.push(Vli {
                begin,
                end: at,
                phase,
            });
            begin = at;
            phase = firing.marker + 1;
            boundary_named = true;
        } else if !boundary_named {
            phase = firing.marker + 1;
            boundary_named = true;
        }
    }
    if begin < total_instrs {
        vlis.push(Vli {
            begin,
            end: total_instrs,
            phase,
        });
    }
    vlis
}

/// Why [`partition_with_fallback`] abandoned variable-length intervals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackReason {
    /// Selection produced no markers at all (e.g. `ilower` larger than
    /// every edge's average, or an empty graph).
    NoMarkers,
    /// Markers exist but none fired during this run (the profiled input
    /// exercised code the measured input never reached).
    NoFirings,
    /// Selection flagged its CoV statistics as degenerate
    /// ([`SelectionOutcome::degenerate_cov`](crate::SelectionOutcome)):
    /// the marker set is untrustworthy.
    DegenerateCov,
}

impl fmt::Display for FallbackReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FallbackReason::NoMarkers => "no-markers",
            FallbackReason::NoFirings => "no-firings",
            FallbackReason::DegenerateCov => "degenerate-cov",
        };
        f.write_str(s)
    }
}

/// Record of a fixed-length-interval fallback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FliFallback {
    /// Why VLI partitioning was abandoned.
    pub reason: FallbackReason,
    /// The fixed interval length used, in instructions.
    pub interval: u64,
}

/// Result of [`partition_with_fallback`]: the intervals, plus a record
/// of the fallback if one was taken.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionOutcome {
    /// The intervals tiling the execution.
    pub vlis: Vec<Vli>,
    /// `Some` when the intervals are fixed-length rather than
    /// marker-delimited.
    pub fallback: Option<FliFallback>,
}

/// Tiles `total_instrs` instructions with fixed-length intervals of
/// `interval` instructions (the last one partial). Every interval gets
/// [`PRELUDE_PHASE`]: fixed-length intervals carry no phase information.
///
/// `interval == 0` is treated as 1 so the tiling always terminates.
pub fn fixed_length_intervals(total_instrs: u64, interval: u64) -> Vec<Vli> {
    let interval = interval.max(1);
    let mut vlis = Vec::new();
    let mut begin = 0u64;
    while begin < total_instrs {
        let end = begin.saturating_add(interval).min(total_instrs);
        vlis.push(Vli {
            begin,
            end,
            phase: PRELUDE_PHASE,
        });
        begin = end;
    }
    vlis
}

/// [`partition`], hardened: degrades to fixed-length intervals at
/// `ilower` when the marker pipeline produced nothing usable, instead
/// of returning one giant unclassified interval.
///
/// The fallback triggers when (in priority order) selection flagged its
/// CoV statistics as degenerate (`degenerate_cov`), the marker set is
/// empty, or no marker fired during a non-empty execution. The returned
/// [`PartitionOutcome::fallback`] says which, so drivers can emit a
/// machine-readable warning.
pub fn partition_with_fallback(
    markers: &MarkerSet,
    firings: &[MarkerFiring],
    total_instrs: u64,
    ilower: u64,
    degenerate_cov: bool,
) -> PartitionOutcome {
    let reason = if degenerate_cov {
        Some(FallbackReason::DegenerateCov)
    } else if markers.is_empty() {
        Some(FallbackReason::NoMarkers)
    } else if firings.is_empty() && total_instrs > 0 {
        Some(FallbackReason::NoFirings)
    } else {
        None
    };
    let outcome = match reason {
        Some(reason) => PartitionOutcome {
            vlis: fixed_length_intervals(total_instrs, ilower),
            fallback: Some(FliFallback {
                reason,
                interval: ilower.max(1),
            }),
        },
        None => PartitionOutcome {
            vlis: partition(firings, total_instrs),
            fallback: None,
        },
    };
    if spm_obs::enabled() {
        let mut lengths = spm_stats::LogHistogram::new();
        for vli in &outcome.vlis {
            lengths.record(vli.len());
        }
        spm_obs::histogram("partition/vli_lengths", &lengths);
        spm_obs::counter("partition/intervals", outcome.vlis.len() as u64);
        spm_obs::counter("partition/phases", phase_count(&outcome.vlis) as u64);
        // Per-phase homogeneity of interval lengths (the paper's
        // quality lens, consumed by `spm report`): one gauge per phase.
        // Lengths are positive so the mean cannot vanish, but guard
        // non-finite anyway — the JSONL schema rejects NaN/Inf.
        let mut phases: Vec<usize> = outcome.vlis.iter().map(|v| v.phase).collect();
        phases.sort_unstable();
        phases.dedup();
        for phase in phases {
            let mut stats = spm_stats::Running::new();
            for vli in outcome.vlis.iter().filter(|v| v.phase == phase) {
                stats.push(vli.len() as f64);
            }
            let cov = if stats.count() < 2 { 0.0 } else { stats.cov() };
            if cov.is_finite() {
                spm_obs::gauge_with(
                    "partition/phase_len_cov",
                    cov,
                    &[("phase", phase.into()), ("intervals", stats.count().into())],
                );
            }
        }
    }
    outcome
}

/// Number of distinct phase ids among the intervals.
pub fn phase_count(vlis: &[Vli]) -> usize {
    let mut ids: Vec<usize> = vlis.iter().map(|v| v.phase).collect();
    ids.sort_unstable();
    ids.dedup();
    ids.len()
}

/// Average interval length in instructions (`0.0` when empty).
pub fn avg_interval_len(vlis: &[Vli]) -> f64 {
    if vlis.is_empty() {
        0.0
    } else {
        vlis.iter().map(Vli::len).sum::<u64>() as f64 / vlis.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CallLoopProfiler;
    use spm_ir::ProcId;

    #[test]
    fn marker_set_dedups() {
        let mut set = MarkerSet::new();
        let a = set.insert(Marker::Edge {
            from: NodeKey::Root,
            to: NodeKey::ProcHead(ProcId(0)),
        });
        let b = set.insert(Marker::Edge {
            from: NodeKey::Root,
            to: NodeKey::ProcHead(ProcId(0)),
        });
        assert_eq!(a, b);
        assert_eq!(set.len(), 1);
        let c = set.insert(Marker::LoopGroup {
            loop_id: LoopId(0),
            group: 4,
        });
        assert_eq!(c, 1);
        assert_eq!(set.group_marker(LoopId(0)), Some((4, 1)));
    }

    #[test]
    fn partition_empty_firings_single_interval() {
        let vlis = partition(&[], 1000);
        assert_eq!(
            vlis,
            vec![Vli {
                begin: 0,
                end: 1000,
                phase: PRELUDE_PHASE
            }]
        );
        assert_eq!(phase_count(&vlis), 1);
        assert_eq!(avg_interval_len(&vlis), 1000.0);
    }

    #[test]
    fn partition_basic() {
        let firings = vec![
            MarkerFiring {
                icount: 10,
                marker: 3,
            },
            MarkerFiring {
                icount: 30,
                marker: 3,
            },
            MarkerFiring {
                icount: 70,
                marker: 5,
            },
        ];
        let vlis = partition(&firings, 100);
        assert_eq!(
            vlis,
            vec![
                Vli {
                    begin: 0,
                    end: 10,
                    phase: PRELUDE_PHASE
                },
                Vli {
                    begin: 10,
                    end: 30,
                    phase: 4
                },
                Vli {
                    begin: 30,
                    end: 70,
                    phase: 4
                },
                Vli {
                    begin: 70,
                    end: 100,
                    phase: 6
                },
            ]
        );
        assert_eq!(phase_count(&vlis), 3);
    }

    #[test]
    fn partition_firing_at_zero_names_first_phase() {
        let firings = vec![MarkerFiring {
            icount: 0,
            marker: 1,
        }];
        let vlis = partition(&firings, 50);
        assert_eq!(
            vlis,
            vec![Vli {
                begin: 0,
                end: 50,
                phase: 2
            }]
        );
    }

    #[test]
    fn partition_firing_at_end_is_dropped() {
        let firings = vec![MarkerFiring {
            icount: 100,
            marker: 0,
        }];
        let vlis = partition(&firings, 100);
        assert_eq!(vlis.len(), 1);
        assert_eq!(vlis[0].end, 100);
    }

    #[test]
    fn partition_covers_execution_exactly() {
        let firings: Vec<MarkerFiring> = (1..20)
            .map(|i| MarkerFiring {
                icount: i * 37 % 500,
                marker: i as usize % 3,
            })
            .collect();
        let mut sorted = firings.clone();
        sorted.sort_by_key(|f| f.icount);
        let vlis = partition(&sorted, 500);
        assert_eq!(vlis.first().unwrap().begin, 0);
        assert_eq!(vlis.last().unwrap().end, 500);
        for pair in vlis.windows(2) {
            assert_eq!(pair[0].end, pair[1].begin, "intervals must tile");
            assert!(!pair[0].is_empty());
        }
    }

    #[test]
    fn fixed_length_intervals_tile_exactly() {
        let vlis = fixed_length_intervals(2_500, 1_000);
        assert_eq!(
            vlis,
            vec![
                Vli {
                    begin: 0,
                    end: 1000,
                    phase: PRELUDE_PHASE
                },
                Vli {
                    begin: 1000,
                    end: 2000,
                    phase: PRELUDE_PHASE
                },
                Vli {
                    begin: 2000,
                    end: 2500,
                    phase: PRELUDE_PHASE
                },
            ]
        );
        assert!(fixed_length_intervals(0, 1_000).is_empty());
        // Zero interval must not loop forever.
        assert_eq!(fixed_length_intervals(3, 0).len(), 3);
    }

    #[test]
    fn fallback_on_empty_marker_set() {
        let markers = MarkerSet::new();
        let out = partition_with_fallback(&markers, &[], 5_000, 2_000, false);
        assert_eq!(
            out.fallback,
            Some(FliFallback {
                reason: FallbackReason::NoMarkers,
                interval: 2_000
            })
        );
        assert_eq!(out.vlis.len(), 3);
        assert_eq!(out.vlis.last().unwrap().end, 5_000);
    }

    #[test]
    fn fallback_on_no_firings() {
        let mut markers = MarkerSet::new();
        markers.insert(Marker::Edge {
            from: NodeKey::Root,
            to: NodeKey::ProcHead(ProcId(0)),
        });
        let out = partition_with_fallback(&markers, &[], 5_000, 2_000, false);
        assert_eq!(out.fallback.unwrap().reason, FallbackReason::NoFirings);
        // But an empty execution is not a fallback: there is nothing to
        // partition either way.
        let out = partition_with_fallback(&markers, &[], 0, 2_000, false);
        assert_eq!(out.fallback, None);
        assert!(out.vlis.is_empty());
    }

    #[test]
    fn fallback_on_degenerate_cov_overrides_firings() {
        let mut markers = MarkerSet::new();
        markers.insert(Marker::Edge {
            from: NodeKey::Root,
            to: NodeKey::ProcHead(ProcId(0)),
        });
        let firings = vec![MarkerFiring {
            icount: 100,
            marker: 0,
        }];
        let out = partition_with_fallback(&markers, &firings, 1_000, 300, true);
        assert_eq!(out.fallback.unwrap().reason, FallbackReason::DegenerateCov);
        assert!(out.vlis.iter().all(|v| v.phase == PRELUDE_PHASE));
    }

    #[test]
    fn no_fallback_when_markers_fire() {
        let mut markers = MarkerSet::new();
        markers.insert(Marker::Edge {
            from: NodeKey::Root,
            to: NodeKey::ProcHead(ProcId(0)),
        });
        let firings = vec![MarkerFiring {
            icount: 100,
            marker: 0,
        }];
        let out = partition_with_fallback(&markers, &firings, 1_000, 300, false);
        assert_eq!(out.fallback, None);
        assert_eq!(out.vlis, partition(&firings, 1_000));
    }

    #[test]
    fn fallback_reasons_render() {
        for r in [
            FallbackReason::NoMarkers,
            FallbackReason::NoFirings,
            FallbackReason::DegenerateCov,
        ] {
            assert!(!r.to_string().is_empty());
            assert!(!r.to_string().contains(' '), "machine-readable token");
        }
    }

    #[test]
    fn marker_display() {
        let m = Marker::Edge {
            from: NodeKey::LoopBody(LoopId(1)),
            to: NodeKey::ProcHead(ProcId(2)),
        };
        assert_eq!(m.to_string(), "L1.body->p2.head");
        assert_eq!(
            Marker::LoopGroup {
                loop_id: LoopId(3),
                group: 8
            }
            .to_string(),
            "L3x8"
        );
    }

    use crate::test_streams::{event_stream, IDS};
    use proptest::prelude::*;

    /// Oracle: the runtime's shadow-stack walk, with every marker found
    /// by a linear scan of `markers()` instead of the set's indexes. A
    /// close that does not match the innermost frame is dropped.
    fn oracle_firings(set: &MarkerSet, events: &[(u64, TraceEvent)]) -> Vec<MarkerFiring> {
        let edge = |from: NodeKey, to: NodeKey| {
            set.markers()
                .iter()
                .position(|m| *m == Marker::Edge { from, to })
        };
        // A later `LoopGroup` for the same loop replaces the earlier one.
        let group = |loop_id: LoopId| {
            let mut markers = set.markers().iter().enumerate().rev();
            markers.find_map(|(id, m)| match *m {
                Marker::LoopGroup { loop_id: l, group } if l == loop_id => Some((group, id)),
                _ => None,
            })
        };
        // Frames: (kind, context key while inside, iteration index).
        // A call's head and body frames open and close together, so one
        // frame stands for both.
        #[derive(PartialEq)]
        enum Open {
            Proc,
            Loop,
            Iteration,
        }
        let mut stack: Vec<(Open, NodeKey, u64)> = Vec::new();
        let mut firings = Vec::new();
        let mut fire = |icount, marker: Option<usize>| {
            if let Some(marker) = marker {
                firings.push(MarkerFiring { icount, marker });
            }
        };
        let top_is = |stack: &Vec<(Open, NodeKey, u64)>, kind: Open| {
            stack.last().is_some_and(|frame| frame.0 == kind)
        };
        for &(icount, event) in events {
            let ctx = stack.last().map_or(NodeKey::Root, |f| f.1);
            match event {
                TraceEvent::Call { proc } => {
                    fire(icount, edge(ctx, NodeKey::ProcHead(proc)));
                    fire(
                        icount,
                        edge(NodeKey::ProcHead(proc), NodeKey::ProcBody(proc)),
                    );
                    stack.push((Open::Proc, NodeKey::ProcBody(proc), 0));
                }
                TraceEvent::LoopEnter { loop_id } => {
                    fire(icount, edge(ctx, NodeKey::LoopHead(loop_id)));
                    stack.push((Open::Loop, NodeKey::LoopHead(loop_id), 0));
                }
                TraceEvent::LoopIter { loop_id } => {
                    let body = NodeKey::LoopBody(loop_id);
                    let index = match stack.last_mut() {
                        Some((Open::Iteration, key, iter)) if *key == body => {
                            *iter += 1;
                            *iter
                        }
                        _ => {
                            if top_is(&stack, Open::Iteration) {
                                stack.pop();
                            }
                            stack.push((Open::Iteration, body, 0));
                            0
                        }
                    };
                    fire(icount, edge(NodeKey::LoopHead(loop_id), body));
                    if let Some((g, id)) = group(loop_id) {
                        if index % g.max(1) == 0 {
                            fire(icount, Some(id));
                        }
                    }
                }
                TraceEvent::Return { .. } if top_is(&stack, Open::Proc) => {
                    stack.pop();
                }
                TraceEvent::LoopExit { .. } => {
                    if top_is(&stack, Open::Iteration) {
                        stack.pop();
                    }
                    if top_is(&stack, Open::Loop) {
                        stack.pop();
                    }
                }
                _ => {}
            }
        }
        firings
    }

    /// Markers biased toward edges the stream can traverse: `kind`
    /// picks the edge shape, `ctx` the context key of an entry edge.
    fn marker_set(specs: &[(u8, usize, u8, u64)]) -> MarkerSet {
        specs
            .iter()
            .map(|&(kind, id, ctx, group)| {
                let id = IDS[id];
                let from = match ctx % 4 {
                    0 => NodeKey::Root,
                    1 => NodeKey::ProcBody(ProcId(id.wrapping_add(1))),
                    2 => NodeKey::LoopHead(LoopId(id)),
                    _ => NodeKey::LoopBody(LoopId(id.wrapping_sub(1))),
                };
                let (p, l) = (ProcId(id), LoopId(id));
                match kind {
                    0 => Marker::Edge {
                        from,
                        to: NodeKey::ProcHead(p),
                    },
                    1 => Marker::Edge {
                        from: NodeKey::ProcHead(p),
                        to: NodeKey::ProcBody(p),
                    },
                    2 => Marker::Edge {
                        from,
                        to: NodeKey::LoopHead(l),
                    },
                    3 => Marker::Edge {
                        from: NodeKey::LoopHead(l),
                        to: NodeKey::LoopBody(l),
                    },
                    _ => Marker::LoopGroup { loop_id: l, group },
                }
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The hashed lookups fire exactly the markers a linear scan
        /// finds, in the same order, whatever the batch cuts.
        #[test]
        fn runtime_firings_match_linear_scan_oracle(
            ops in proptest::collection::vec((0u8..5, 0usize..IDS.len()), 0..400),
            specs in proptest::collection::vec(
                (0u8..5, 0usize..IDS.len(), 0u8..4, 0u64..5),
                0..24,
            ),
            cut in 1usize..64,
        ) {
            let events = event_stream(&ops);
            let set = marker_set(&specs);
            let mut runtime = MarkerRuntime::new(&set);
            for batch in events.chunks(cut) {
                runtime.on_batch(batch);
            }
            prop_assert_eq!(runtime.into_firings(), oracle_firings(&set, &events));
        }

        /// The runtime fires the same markers on a stream and on its
        /// call-loop subsequence (what `spm_sim::run` delivers to it),
        /// whether the loop's markers sit in its dense table or, for
        /// huge loop ids, are looked up in the set; on damaged streams
        /// too, where the oracle drops unmatched closes as the walk does.
        #[test]
        fn runtime_fires_alike_on_the_call_loop_subsequence(
            ops in proptest::collection::vec((0u8..8, 0usize..IDS.len()), 0..400),
            specs in proptest::collection::vec(
                (0u8..5, 0usize..IDS.len(), 0u8..4, 0u64..5),
                0..24,
            ),
            cut in 1usize..64,
        ) {
            let events = event_stream(&ops);
            let control: Vec<(u64, TraceEvent)> =
                events.iter().copied().filter(|(_, e)| Reads::NONE.admits(e)).collect();
            let set = marker_set(&specs);
            let mut full = MarkerRuntime::new(&set);
            for batch in events.chunks(cut) {
                full.on_batch(batch);
            }
            let mut sub = MarkerRuntime::new(&set);
            for batch in control.chunks(cut) {
                sub.on_batch(batch);
            }
            let full = full.into_firings();
            prop_assert_eq!(&full, &sub.into_firings());
            prop_assert_eq!(full, oracle_firings(&set, &events));
        }

        /// With every edge of the lenient profiler's graph as a marker,
        /// the runtime fires each edge at least as often as the graph
        /// counts it (an edge still open at the end is entered but never
        /// left), and exactly as often on a well-nested stream, however
        /// the stream is damaged.
        #[test]
        fn runtime_fires_every_edge_the_lenient_profiler_records(
            ops in proptest::collection::vec((0u8..8, 0usize..IDS.len()), 0..400),
            cut in 1usize..64,
        ) {
            let events = event_stream(&ops);
            let mut profiler = CallLoopProfiler::lenient();
            profiler.on_batch(&events);
            let graph = profiler.into_graph().unwrap();
            let key = |id: crate::NodeId| graph.node(id).key;
            let set: MarkerSet = graph
                .edges()
                .iter()
                .map(|e| Marker::Edge { from: key(e.from), to: key(e.to) })
                .collect();
            let mut runtime = MarkerRuntime::new(&set);
            for batch in events.chunks(cut) {
                runtime.on_batch(batch);
            }
            let mut fired = vec![0u64; set.len()];
            for firing in runtime.into_firings() {
                fired[firing.marker] += 1;
            }
            let well_nested = ops.iter().all(|&(op, _)| op < 5);
            for (edge, &fired) in graph.edges().iter().zip(&fired) {
                prop_assert!(fired >= edge.count(), "{fired} < {}", edge.count());
                if well_nested {
                    prop_assert_eq!(fired, edge.count());
                }
            }
        }
    }

    /// After a lost `LoopExit`, the `Return` that follows does not match
    /// the innermost frame: the profiler drops it and keeps the loop as
    /// the context, so the runtime fires the call edge from the loop,
    /// the one the graph holds, not the one from the caller's body.
    #[test]
    fn runtime_follows_the_lenient_profiler_past_an_unmatched_close() {
        let (p0, p1, l0) = (ProcId(0), ProcId(1), LoopId(0));
        let events = [
            (0, TraceEvent::Call { proc: p0 }),
            (1, TraceEvent::LoopEnter { loop_id: l0 }),
            (2, TraceEvent::Return { proc: p0 }),
            (3, TraceEvent::Call { proc: p1 }),
            (4, TraceEvent::Return { proc: p1 }),
        ];
        let mut profiler = CallLoopProfiler::lenient();
        profiler.on_batch(&events);
        let graph = profiler.into_graph().unwrap();
        let node = |key| graph.node_by_key(key).unwrap();
        let (loop_head, p1_head) = (node(NodeKey::LoopHead(l0)), node(NodeKey::ProcHead(p1)));
        assert_eq!(graph.edge_between(loop_head, p1_head).unwrap().count(), 1);

        let from_loop = Marker::Edge {
            from: NodeKey::LoopHead(l0),
            to: NodeKey::ProcHead(p1),
        };
        let from_caller = Marker::Edge {
            from: NodeKey::ProcBody(p0),
            to: NodeKey::ProcHead(p1),
        };
        let set: MarkerSet = [from_loop, from_caller].into_iter().collect();
        let mut runtime = MarkerRuntime::new(&set);
        runtime.on_batch(&events);
        assert_eq!(
            runtime.into_firings(),
            vec![MarkerFiring {
                icount: 3,
                marker: 0
            }]
        );
    }
}
