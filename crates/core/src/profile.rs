//! Building the call-loop graph from an execution trace (the paper's
//! ATOM profiling run), and the call-loop context walk it shares with
//! the marker runtime.
//!
//! A marker is a graph edge named by the context it is entered from, so
//! the profiler that builds the graph and the [`MarkerRuntime`] that
//! fires markers must agree on every context. Both implement the
//! crate-private `Walker` trait, whose one `walk` method decides which
//! edges each control event enters and leaves, on one shadow stack of
//! frames. A close that does not match the innermost frame (a lost
//! open, e.g. in a store replay with skipped blocks) is dropped and the
//! stack kept as-is, for both observers; only the profiler reports it
//! (poison when strict, count when lenient).
//!
//! [`MarkerRuntime`]: crate::MarkerRuntime

use crate::error::{FrameLabel, ProfileError};
use crate::graph::{CallLoopGraph, EdgeId, NodeId, NodeKey};
use spm_ir::LoopId;
use spm_sim::{Reads, TraceEvent, TraceObserver};

/// One open frame of the shadow stack: a traversal of `from -> to`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Frame<N> {
    label: FrameLabel,
    from: N,
    to: N,
    /// Instruction count when the edge was entered.
    start: u64,
    /// Iteration index within the current loop entry (`LoopBody`
    /// frames; 0 otherwise).
    iter: u64,
}

/// The shadow stack, innermost frame last.
pub(crate) type CallStack<N> = Vec<Frame<N>>;

/// An observer of the call-loop context walk. `Node` is how it names
/// graph nodes; the hooks default to doing nothing.
pub(crate) trait Walker {
    type Node: Copy + PartialEq;

    fn stack(&mut self) -> &mut CallStack<Self::Node>;

    /// The context outside every frame.
    fn root(&self) -> Self::Node;

    fn node(&mut self, key: NodeKey) -> Self::Node;

    /// The key of a node [`node`](Self::node) returned.
    fn key(&self, node: Self::Node) -> NodeKey;

    /// The edge `from -> to` is entered at `icount`; not called for
    /// `head -> body` of a loop (see [`iterate`](Self::iterate)).
    fn enter(&mut self, _from: Self::Node, _to: Self::Node, _icount: u64) {}

    /// Iteration `index` (from 0) of the current entry of `loop_id`
    /// starts at `icount`: its `head -> body` edge is entered.
    fn iterate(&mut self, _loop_id: LoopId, _index: u64, _icount: u64) {}

    /// `frame` is closed by its matching event at `icount`.
    fn leave(&mut self, _frame: Frame<Self::Node>, _icount: u64) {}

    /// A close of `closing` found `found` innermost instead; the close
    /// was dropped and the stack kept.
    fn unmatched(&mut self, _closing: FrameLabel, _found: Option<FrameLabel>) {}

    /// Moves the context by one event: the only place that decides
    /// which edges a control event enters and leaves.
    ///
    /// * `Call p` (from context `c`): enters `c -> head(p)` and
    ///   `head(p) -> body(p)`, both left at the matching `Return`;
    /// * `LoopEnter l` (from context `c`): enters `c -> head(l)`, left
    ///   at `LoopExit`;
    /// * `LoopIter l`: enters `head(l) -> body(l)` (reported by
    ///   [`iterate`](Self::iterate)), left at the next iteration or at
    ///   `LoopExit`.
    #[inline]
    fn walk(&mut self, icount: u64, event: &TraceEvent) {
        match *event {
            TraceEvent::Call { proc } => {
                let ctx = self.context();
                let head = self.node(NodeKey::ProcHead(proc));
                let body = self.node(NodeKey::ProcBody(proc));
                self.open(FrameLabel::ProcHead, ctx, head, icount);
                self.open(FrameLabel::ProcBody, head, body, icount);
            }
            TraceEvent::Return { .. } => {
                self.close(FrameLabel::ProcBody, icount);
                self.close(FrameLabel::ProcHead, icount);
            }
            TraceEvent::LoopEnter { loop_id } => {
                let ctx = self.context();
                let head = self.node(NodeKey::LoopHead(loop_id));
                self.open(FrameLabel::LoopHead, ctx, head, icount);
            }
            TraceEvent::LoopIter { loop_id } => {
                let body = NodeKey::LoopBody(loop_id);
                // The next iteration of the innermost loop leaves and
                // re-enters `head -> body` in its frame, found by key:
                // no node lookup, pop or push for the most frequent
                // control event.
                let top = self.stack().last().copied();
                let index = match top {
                    Some(last)
                        if last.label == FrameLabel::LoopBody && self.key(last.to) == body =>
                    {
                        if let Some(top) = self.stack().last_mut() {
                            top.start = icount;
                            top.iter += 1;
                        }
                        self.leave(last, icount);
                        last.iter + 1
                    }
                    _ => {
                        let head = self.node(NodeKey::LoopHead(loop_id));
                        let body = self.node(body);
                        self.close_iteration(icount);
                        self.push(FrameLabel::LoopBody, head, body, icount);
                        0
                    }
                };
                self.iterate(loop_id, index, icount);
            }
            TraceEvent::LoopExit { .. } => {
                self.close_iteration(icount);
                self.close(FrameLabel::LoopHead, icount);
            }
            _ => {}
        }
    }

    #[inline]
    fn context(&mut self) -> Self::Node {
        let top = self.stack().last().map(|frame| frame.to);
        top.unwrap_or_else(|| self.root())
    }

    #[inline]
    fn push(&mut self, label: FrameLabel, from: Self::Node, to: Self::Node, icount: u64) {
        self.stack().push(Frame {
            label,
            from,
            to,
            start: icount,
            iter: 0,
        });
    }

    #[inline]
    fn open(&mut self, label: FrameLabel, from: Self::Node, to: Self::Node, icount: u64) {
        self.push(label, from, to, icount);
        self.enter(from, to, icount);
    }

    /// Closes the innermost frame if it is a `label` frame; otherwise
    /// drops the close and keeps the stack.
    #[inline]
    fn close(&mut self, label: FrameLabel, icount: u64) {
        match self.stack().last().copied() {
            Some(frame) if frame.label == label => {
                self.stack().pop();
                self.leave(frame, icount);
            }
            found => self.unmatched(label, found.map(|f| f.label)),
        }
    }

    /// Closes the innermost frame if it is a loop iteration.
    #[inline]
    fn close_iteration(&mut self, icount: u64) {
        if self.stack().last().map(|frame| frame.label) == Some(FrameLabel::LoopBody) {
            self.close(FrameLabel::LoopBody, icount);
        }
    }
}

/// Trace observer that constructs the [`CallLoopGraph`] of one execution.
///
/// Walks the call-loop context shared with the marker runtime (see the
/// [module docs](self)) and records
/// one traversal of each edge when it is left, annotated with the
/// hierarchical instruction count elapsed since it was entered. A loop
/// iteration or a return closes a `head -> body` edge whose id is cached
/// per body node, so neither hashes a node or an edge.
///
/// It reads no data event kind ([`Reads::NONE`]), so `spm_sim::run`
/// hands a run whose observers read nothing more only the call-loop
/// events. It still accepts the full stream (store replay, serve), and
/// [`events`](Self::events) counts the full stream either way: events
/// a producer withheld are added as it reports them.
///
/// See the crate-level example for usage.
#[derive(Debug, Clone)]
pub struct CallLoopProfiler {
    graph: CallLoopGraph,
    stack: CallStack<NodeId>,
    /// The `head -> body` edge into each body node, by node index, once
    /// its first close has created it. A body node has no other
    /// incoming edge, and ids are still assigned at first close.
    body_edges: Vec<Option<EdgeId>>,
    /// Events of the full stream so far, delivered or withheld (for
    /// error context).
    events: u64,
    /// First corruption observed. The [`TraceObserver`] interface has
    /// no error channel, so a corrupted event stream poisons the
    /// profiler: subsequent events are still consumed safely, and the
    /// error surfaces from [`into_graph`](Self::into_graph).
    fault: Option<ProfileError>,
    /// In lenient mode, structural damage is tolerated (counted in
    /// `tolerated`) instead of poisoning the profiler.
    lenient: bool,
    /// Mismatched closes dropped and frames left dangling (lenient
    /// mode only).
    tolerated: u64,
}

impl Default for CallLoopProfiler {
    fn default() -> Self {
        Self::new()
    }
}

impl CallLoopProfiler {
    /// Creates a profiler with an empty graph (root node only).
    pub fn new() -> Self {
        Self {
            graph: CallLoopGraph::new(),
            stack: Vec::new(),
            body_edges: Vec::new(),
            events: 0,
            fault: None,
            lenient: false,
            tolerated: 0,
        }
    }

    /// Creates a profiler that tolerates a structurally damaged event
    /// stream — e.g. one replayed from a store with skipped blocks,
    /// where close events may arrive without their opens (and vice
    /// versa). Mismatched closes are dropped and frames left open at
    /// the end are discarded, both counted in
    /// [`tolerated`](Self::tolerated) instead of poisoning the graph.
    pub fn lenient() -> Self {
        Self {
            lenient: true,
            ..Self::new()
        }
    }

    /// Structural mismatches tolerated so far (always 0 in strict
    /// mode, which poisons instead).
    pub fn tolerated(&self) -> u64 {
        self.tolerated
    }

    /// Frames currently open on the shadow stack. Mid-run this is the
    /// live nesting depth; at end-of-trace a nonzero value means closes
    /// were lost (lenient mode discards these frames in
    /// [`into_graph`](Self::into_graph), strict mode errors). Exposed so
    /// long-running sessions can report per-session degradation while
    /// the profiler is still live, not only at end-of-trace.
    pub fn dangling_frames(&self) -> usize {
        self.stack.len()
    }

    /// Events of the full stream so far: those delivered plus those a
    /// filtering producer reported [withheld](TraceObserver::withheld).
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Finishes profiling and returns the graph.
    ///
    /// # Errors
    ///
    /// Returns a [`ProfileError`] if the event stream was corrupted —
    /// a close event that did not match the innermost open frame
    /// (first corruption wins), or frames left open at the end of the
    /// trace. A complete engine run never produces either.
    pub fn into_graph(mut self) -> Result<CallLoopGraph, ProfileError> {
        if let Some(fault) = self.fault {
            return Err(fault);
        }
        if !self.stack.is_empty() {
            if !self.lenient {
                return Err(ProfileError::UnbalancedStack {
                    depth: self.stack.len(),
                    at_event: self.events.saturating_sub(1),
                });
            }
            // Lenient: frames still open at end-of-trace (their closes
            // were lost) are discarded without recording traversals.
            self.tolerated += self.stack.len() as u64;
            self.stack.clear();
        }
        if self.tolerated > 0 && spm_obs::enabled() {
            spm_obs::counter("graph/tolerated_events", self.tolerated);
        }
        if spm_obs::enabled() {
            let graph = &self.graph;
            spm_obs::counter("graph/nodes", graph.nodes().len() as u64);
            spm_obs::counter_with(
                "graph/edges",
                graph.edges().len() as u64,
                &[("profile_events", self.events.into())],
            );
            let mut out_degree = spm_stats::LogHistogram::new();
            for node in graph.nodes() {
                out_degree.record(graph.out_edges(node.id).len() as u64);
            }
            spm_obs::histogram("graph/out_degree", &out_degree);
        }
        Ok(self.graph)
    }

    /// The first corruption observed, if any (available mid-run).
    pub fn fault(&self) -> Option<ProfileError> {
        self.fault
    }

    /// The graph built so far (useful mid-run in tests).
    pub fn graph(&self) -> &CallLoopGraph {
        &self.graph
    }
}

impl Walker for CallLoopProfiler {
    type Node = NodeId;

    fn stack(&mut self) -> &mut CallStack<NodeId> {
        &mut self.stack
    }

    fn root(&self) -> NodeId {
        self.graph.root()
    }

    fn node(&mut self, key: NodeKey) -> NodeId {
        self.graph.intern(key)
    }

    #[inline]
    fn key(&self, node: NodeId) -> NodeKey {
        self.graph.node(node).key
    }

    #[inline]
    fn leave(&mut self, frame: Frame<NodeId>, icount: u64) {
        let edge = match frame.label {
            FrameLabel::LoopBody | FrameLabel::ProcBody => {
                let slot = frame.to.index();
                match self.body_edges.get(slot) {
                    Some(&Some(edge)) => edge,
                    _ => {
                        let edge = self.graph.intern_edge(frame.from, frame.to);
                        if self.body_edges.len() <= slot {
                            self.body_edges.resize(slot + 1, None);
                        }
                        self.body_edges[slot] = Some(edge);
                        edge
                    }
                }
            }
            FrameLabel::LoopHead | FrameLabel::ProcHead => {
                self.graph.intern_edge(frame.from, frame.to)
            }
        };
        self.graph
            .record_edge(edge, icount.saturating_sub(frame.start));
    }

    fn unmatched(&mut self, closing: FrameLabel, found: Option<FrameLabel>) {
        if self.lenient {
            // The matching open was lost (skipped block).
            self.tolerated += 1;
        } else if self.fault.is_none() {
            self.fault = Some(ProfileError::MismatchedFrame {
                closing,
                found,
                at_event: self.events.saturating_sub(1),
            });
        }
    }
}

impl TraceObserver for CallLoopProfiler {
    fn on_batch(&mut self, batch: &[(u64, TraceEvent)]) {
        for (icount, event) in batch {
            self.events += 1;
            self.walk(*icount, event);
        }
    }

    /// The graph is built from call-loop events alone.
    fn reads(&self) -> Reads {
        Reads::NONE
    }

    fn withheld(&mut self, events: u64) {
        self.events += events;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spm_ir::{Input, LoopId, ProcId, Program, ProgramBuilder, Trip};
    use spm_sim::run;

    fn profile(program: &Program, input: &Input) -> CallLoopGraph {
        let mut profiler = CallLoopProfiler::new();
        run(program, input, &mut [&mut profiler]).unwrap();
        profiler.into_graph().unwrap()
    }

    /// The paper's Figure 1/2 structure: foo with a loop calling X or Y,
    /// then X after the loop; X calls Z.
    fn figure1_program() -> Program {
        let mut b = ProgramBuilder::new("fig1");
        b.proc("main", |p| {
            p.call("foo");
        });
        b.proc("foo", |p| {
            p.loop_(Trip::Fixed(50), |body| {
                body.if_prob(0.7, |t| t.call("x"), |e| e.call("y"));
            });
            p.call("x");
        });
        b.proc("x", |p| {
            p.block(30).done();
            p.call("z");
        });
        b.proc("y", |p| {
            p.block(70).done();
        });
        b.proc("z", |p| {
            p.block(50).done();
        });
        b.build("main").unwrap()
    }

    #[test]
    fn figure1_graph_shape() {
        let program = figure1_program();
        let graph = profile(&program, &Input::new("t", 42));
        let id = |name: &str| program.proc_by_name(name).unwrap().id;

        let foo_body = graph.node_by_key(NodeKey::ProcBody(id("foo"))).unwrap();
        let loop_head = graph.node_by_key(NodeKey::LoopHead(LoopId(0))).unwrap();
        let loop_body = graph.node_by_key(NodeKey::LoopBody(LoopId(0))).unwrap();
        let x_head = graph.node_by_key(NodeKey::ProcHead(id("x"))).unwrap();
        let x_body = graph.node_by_key(NodeKey::ProcBody(id("x"))).unwrap();
        let z_head = graph.node_by_key(NodeKey::ProcHead(id("z"))).unwrap();

        // foo body -> loop head: entered once.
        let e = graph.edge_between(foo_body, loop_head).unwrap();
        assert_eq!(e.count(), 1);

        // loop head -> loop body: 50 iterations.
        let e = graph.edge_between(loop_head, loop_body).unwrap();
        assert_eq!(e.count(), 50);

        // Calls to x come from both the loop body and foo's body.
        let from_loop = graph.edge_between(loop_body, x_head).unwrap();
        let from_foo = graph.edge_between(foo_body, x_head).unwrap();
        assert_eq!(from_foo.count(), 1);
        assert!(from_loop.count() > 10);

        // x body -> z head aggregates all x activations.
        let e = graph.edge_between(x_body, z_head).unwrap();
        assert_eq!(e.count(), from_loop.count() + from_foo.count());
    }

    #[test]
    fn hierarchical_counts_include_callees() {
        // main calls f once; f runs a block then calls g (block of 100).
        let mut b = ProgramBuilder::new("t");
        b.proc("main", |p| p.call("f"));
        b.proc("f", |p| {
            p.block(10).done();
            p.call("g");
        });
        b.proc("g", |p| p.block(100).done());
        let program = b.build("main").unwrap();
        let graph = profile(&program, &Input::new("t", 1));
        let id = |name: &str| program.proc_by_name(name).unwrap().id;

        let root = graph.root();
        let f_head = graph.node_by_key(NodeKey::ProcHead(id("f"))).unwrap();
        let e = graph.edge_between(root, f_head).unwrap();
        assert_eq!(e.avg(), 110.0, "call edge must count callee instructions");

        let f_body = graph.node_by_key(NodeKey::ProcBody(id("f"))).unwrap();
        let g_head = graph.node_by_key(NodeKey::ProcHead(id("g"))).unwrap();
        let e = graph.edge_between(f_body, g_head).unwrap();
        assert_eq!(e.avg(), 100.0);
    }

    #[test]
    fn loop_head_vs_body_counts() {
        // Loop entered 4 times with 10 iterations of a 7-instruction block.
        let mut b = ProgramBuilder::new("t");
        b.proc("main", |p| {
            p.loop_(Trip::Fixed(4), |outer| {
                outer.loop_(Trip::Fixed(10), |inner| {
                    inner.block(7).done();
                });
            });
        });
        let program = b.build("main").unwrap();
        let graph = profile(&program, &Input::new("t", 1));

        let outer_body = graph.node_by_key(NodeKey::LoopBody(LoopId(0))).unwrap();
        let inner_head = graph.node_by_key(NodeKey::LoopHead(LoopId(1))).unwrap();
        let inner_body = graph.node_by_key(NodeKey::LoopBody(LoopId(1))).unwrap();

        let entry = graph.edge_between(outer_body, inner_head).unwrap();
        assert_eq!(entry.count(), 4);
        assert_eq!(entry.avg(), 70.0, "entry-to-exit counts the whole nest");
        assert_eq!(entry.cov(), 0.0, "perfectly regular loop");

        let iter = graph.edge_between(inner_head, inner_body).unwrap();
        assert_eq!(iter.count(), 40);
        assert_eq!(iter.avg(), 7.0, "per-iteration count");
    }

    #[test]
    fn recursion_distinguishes_head_and_body() {
        // A procedure that recurses a fixed number of times via a
        // periodic branch would be complex; instead use direct recursion
        // guarded by probability 1 until the depth limit truncates it.
        let mut b = ProgramBuilder::new("t");
        b.proc("main", |p| p.call("rec"));
        b.proc("rec", |p| {
            p.block(10).done();
            p.if_periodic(4, 1, |_| {}, |e| e.call("rec"));
        });
        let program = b.build("main").unwrap();
        let graph = profile(&program, &Input::new("t", 1));
        let rec = program.proc_by_name("rec").unwrap().id;

        let head = graph.node_by_key(NodeKey::ProcHead(rec)).unwrap();
        let body = graph.node_by_key(NodeKey::ProcBody(rec)).unwrap();
        // The recursive call edge body -> head exists.
        let rec_edge = graph.edge_between(body, head).unwrap();
        assert!(rec_edge.count() >= 1);
        // head -> body aggregates every activation (outer + recursive).
        let hb = graph.edge_between(head, body).unwrap();
        let root_edge = graph.edge_between(graph.root(), head).unwrap();
        assert_eq!(hb.count(), root_edge.count() + rec_edge.count());
        // The outermost activation contains the recursive ones.
        assert!(root_edge.avg() > rec_edge.avg());
    }

    #[test]
    fn zero_trip_loops_record_zero_length_entry() {
        let mut b = ProgramBuilder::new("t");
        b.proc("main", |p| {
            p.loop_(Trip::Fixed(0), |body| {
                body.block(1).done();
            });
            p.block(5).done();
        });
        let program = b.build("main").unwrap();
        let graph = profile(&program, &Input::new("t", 1));
        let head = graph.node_by_key(NodeKey::LoopHead(LoopId(0))).unwrap();
        let e = graph.edge_between(graph.root(), head).unwrap();
        assert_eq!(e.count(), 1);
        assert_eq!(e.avg(), 0.0);
        assert!(graph.node_by_key(NodeKey::LoopBody(LoopId(0))).is_none());
    }

    #[test]
    fn variable_work_shows_up_as_cov() {
        // A loop whose per-iteration work alternates between 10 and 1000
        // instructions has high body CoV, but entry-to-exit is stable.
        let mut b = ProgramBuilder::new("t");
        b.proc("main", |p| {
            p.loop_(Trip::Fixed(10), |outer| {
                outer.loop_(Trip::Fixed(20), |inner| {
                    inner.if_periodic(2, 0, |t| t.block(1000).done(), |e| e.block(10).done());
                });
            });
        });
        let program = b.build("main").unwrap();
        let graph = profile(&program, &Input::new("t", 1));
        let inner_head = graph.node_by_key(NodeKey::LoopHead(LoopId(1))).unwrap();
        let inner_body = graph.node_by_key(NodeKey::LoopBody(LoopId(1))).unwrap();
        let outer_body = graph.node_by_key(NodeKey::LoopBody(LoopId(0))).unwrap();

        let iter = graph.edge_between(inner_head, inner_body).unwrap();
        assert!(
            iter.cov() > 0.5,
            "alternating work must show high CoV, got {}",
            iter.cov()
        );

        let entry = graph.edge_between(outer_body, inner_head).unwrap();
        assert_eq!(entry.cov(), 0.0, "entry-to-exit totals are identical");
    }

    #[test]
    fn unbalanced_trace_is_a_typed_error() {
        let mut profiler = CallLoopProfiler::new();
        profiler.on_event(0, &TraceEvent::Call { proc: ProcId(0) });
        // A call opens two frames (head + body), both left open.
        assert_eq!(
            profiler.into_graph().unwrap_err(),
            ProfileError::UnbalancedStack {
                depth: 2,
                at_event: 0
            }
        );
    }

    #[test]
    fn spurious_return_is_a_typed_error() {
        let mut profiler = CallLoopProfiler::new();
        profiler.on_event(0, &TraceEvent::Return { proc: ProcId(0) });
        let err = profiler.into_graph().unwrap_err();
        assert!(
            matches!(
                err,
                ProfileError::MismatchedFrame {
                    found: None,
                    at_event: 0,
                    ..
                }
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn mismatched_close_is_a_typed_error_not_a_panic() {
        // A Return arriving while a loop iteration is the innermost
        // frame: the stream is corrupted (dropped LoopExit).
        let mut profiler = CallLoopProfiler::new();
        profiler.on_event(0, &TraceEvent::Call { proc: ProcId(0) });
        profiler.on_event(5, &TraceEvent::LoopEnter { loop_id: LoopId(0) });
        profiler.on_event(5, &TraceEvent::LoopIter { loop_id: LoopId(0) });
        profiler.on_event(9, &TraceEvent::Return { proc: ProcId(0) });
        let err = profiler.into_graph().unwrap_err();
        assert!(
            matches!(
                err,
                ProfileError::MismatchedFrame {
                    closing: crate::error::FrameLabel::ProcBody,
                    found: Some(crate::error::FrameLabel::LoopBody),
                    at_event: 3,
                }
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn lenient_mode_tolerates_lost_opens_and_closes() {
        // Simulates a replay that lost a block: the Return for an
        // unseen Call arrives first (lost open), and a Call's Return is
        // never seen (lost close).
        let mut profiler = CallLoopProfiler::lenient();
        profiler.on_event(3, &TraceEvent::Return { proc: ProcId(7) });
        profiler.on_event(4, &TraceEvent::Call { proc: ProcId(0) });
        profiler.on_event(9, &TraceEvent::Return { proc: ProcId(0) });
        profiler.on_event(10, &TraceEvent::Call { proc: ProcId(1) });
        assert!(profiler.fault().is_none(), "lenient mode never poisons");
        // Dropped: body+head closes for the spurious Return (counted
        // once), plus the two frames ProcId(1) left open.
        let graph = profiler.into_graph().unwrap();
        // The completed call recorded its traversals.
        let head = graph.node_by_key(NodeKey::ProcHead(ProcId(0))).unwrap();
        let e = graph.edge_between(graph.root(), head).unwrap();
        assert_eq!(e.count(), 1);
        assert_eq!(e.avg(), 5.0);
    }

    #[test]
    fn lenient_mode_matches_strict_on_clean_traces() {
        let program = figure1_program();
        let input = Input::new("t", 42);
        let mut strict = CallLoopProfiler::new();
        let mut lenient = CallLoopProfiler::lenient();
        run(&program, &input, &mut [&mut strict]).unwrap();
        run(&program, &input, &mut [&mut lenient]).unwrap();
        assert_eq!(lenient.tolerated(), 0);
        let strict = strict.into_graph().unwrap();
        let lenient = lenient.into_graph().unwrap();
        assert_eq!(strict.nodes().len(), lenient.nodes().len());
        assert_eq!(strict.edges().len(), lenient.edges().len());
    }

    /// The profiler as it was before body edges were cached: it
    /// re-interns both loop nodes on every `LoopIter` and looks up every
    /// edge it closes. The reference the caching profiler must match.
    #[derive(Default)]
    struct HashProfiler {
        graph: CallLoopGraph,
        stack: Vec<Frame<NodeId>>,
        events: u64,
        fault: Option<ProfileError>,
        lenient: bool,
        tolerated: u64,
    }

    impl HashProfiler {
        fn new(lenient: bool) -> Self {
            Self {
                graph: CallLoopGraph::new(),
                lenient,
                ..Self::default()
            }
        }

        fn push(&mut self, label: FrameLabel, from: NodeId, to: NodeId, start: u64) {
            self.stack.push(Frame {
                label,
                from,
                to,
                start,
                iter: 0,
            });
        }

        fn close(&mut self, label: FrameLabel, icount: u64) {
            match self.stack.last().copied() {
                Some(frame) if frame.label == label => {
                    self.stack.pop();
                    let instrs = icount.saturating_sub(frame.start);
                    self.graph.record_traversal(frame.from, frame.to, instrs);
                }
                _ if self.lenient => self.tolerated += 1,
                found => {
                    self.fault.get_or_insert(ProfileError::MismatchedFrame {
                        closing: label,
                        found: found.map(|f| f.label),
                        at_event: self.events - 1,
                    });
                }
            }
        }

        fn close_iteration(&mut self, icount: u64) {
            if self.stack.last().map(|f| f.label) == Some(FrameLabel::LoopBody) {
                self.close(FrameLabel::LoopBody, icount);
            }
        }

        fn step(&mut self, icount: u64, event: &TraceEvent) {
            self.events += 1;
            let root = self.graph.root();
            let ctx = self.stack.last().map_or(root, |f| f.to);
            match *event {
                TraceEvent::Call { proc } => {
                    let head = self.graph.intern(NodeKey::ProcHead(proc));
                    let body = self.graph.intern(NodeKey::ProcBody(proc));
                    self.push(FrameLabel::ProcHead, ctx, head, icount);
                    self.push(FrameLabel::ProcBody, head, body, icount);
                }
                TraceEvent::Return { .. } => {
                    self.close(FrameLabel::ProcBody, icount);
                    self.close(FrameLabel::ProcHead, icount);
                }
                TraceEvent::LoopEnter { loop_id } => {
                    let head = self.graph.intern(NodeKey::LoopHead(loop_id));
                    self.push(FrameLabel::LoopHead, ctx, head, icount);
                }
                TraceEvent::LoopIter { loop_id } => {
                    let head = self.graph.intern(NodeKey::LoopHead(loop_id));
                    let body = self.graph.intern(NodeKey::LoopBody(loop_id));
                    match self.stack.last_mut() {
                        Some(top) if top.label == FrameLabel::LoopBody && top.to == body => {
                            let instrs = icount.saturating_sub(top.start);
                            top.start = icount;
                            self.graph.record_traversal(head, body, instrs);
                        }
                        _ => {
                            self.close_iteration(icount);
                            self.push(FrameLabel::LoopBody, head, body, icount);
                        }
                    }
                }
                TraceEvent::LoopExit { .. } => {
                    self.close_iteration(icount);
                    self.close(FrameLabel::LoopHead, icount);
                }
                _ => {}
            }
        }

        fn into_graph(mut self) -> Result<CallLoopGraph, ProfileError> {
            if let Some(fault) = self.fault {
                return Err(fault);
            }
            if !self.stack.is_empty() && !self.lenient {
                return Err(ProfileError::UnbalancedStack {
                    depth: self.stack.len(),
                    at_event: self.events.saturating_sub(1),
                });
            }
            self.stack.clear();
            Ok(self.graph)
        }
    }

    /// An edge's id, ends and stats (count, then the floats' bits).
    type EdgeParts = (u32, u32, u32, [u64; 5]);

    /// Node ids and keys, and edge ids, ends and stats to the bit.
    fn graph_parts(graph: &CallLoopGraph) -> (Vec<Node>, Vec<EdgeParts>) {
        let edges = graph
            .edges()
            .iter()
            .map(|e| {
                let (count, a, b, c, d) = e.stats.into_parts();
                let bits = [count, a.to_bits(), b.to_bits(), c.to_bits(), d.to_bits()];
                (e.id.0, e.from.0, e.to.0, bits)
            })
            .collect();
        (graph.nodes().to_vec(), edges)
    }

    use crate::graph::Node;
    use crate::test_streams::{event_stream, IDS};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The profiler that caches `head -> body` edges and finds the
        /// innermost iteration by key builds the same graph as the
        /// one that looks everything up, with the same ids, stats,
        /// damage counts and faults, strict and lenient, however the
        /// stream is cut or damaged.
        #[test]
        fn caching_profiler_matches_the_hash_per_event_profiler(
            ops in proptest::collection::vec((0u8..8, 0usize..IDS.len()), 0..400),
            cut in 1usize..64,
            lenient in any::<bool>(),
        ) {
            let events = event_stream(&ops);
            let mut profiler = if lenient {
                CallLoopProfiler::lenient()
            } else {
                CallLoopProfiler::new()
            };
            let mut reference = HashProfiler::new(lenient);
            for batch in events.chunks(cut) {
                profiler.on_batch(batch);
                for (icount, event) in batch {
                    reference.step(*icount, event);
                }
                prop_assert_eq!(profiler.fault(), reference.fault);
                prop_assert_eq!(profiler.tolerated(), reference.tolerated);
                prop_assert_eq!(profiler.dangling_frames(), reference.stack.len());
                prop_assert_eq!(profiler.events(), reference.events);
            }
            prop_assert_eq!(graph_parts(profiler.graph()), graph_parts(&reference.graph));
            match (profiler.into_graph(), reference.into_graph()) {
                (Ok(graph), Ok(expected)) => {
                    prop_assert_eq!(graph_parts(&graph), graph_parts(&expected));
                }
                (graph, expected) => prop_assert_eq!(graph.err(), expected.err()),
            }
        }
    }

    #[test]
    fn first_corruption_wins_and_poisons() {
        let mut profiler = CallLoopProfiler::new();
        profiler.on_event(0, &TraceEvent::Return { proc: ProcId(0) });
        let first = profiler.fault().unwrap();
        profiler.on_event(1, &TraceEvent::LoopExit { loop_id: LoopId(9) });
        assert_eq!(
            profiler.fault(),
            Some(first),
            "later faults do not overwrite"
        );
        assert_eq!(profiler.into_graph().unwrap_err(), first);
    }
}
