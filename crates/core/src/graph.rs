//! The hierarchical call-loop graph (paper Section 4).
//!
//! A call graph extended with nodes for loops. Every procedure and loop
//! is represented by a **head** node and a **body** node:
//!
//! * a loop's head tracks the hierarchical instruction count from loop
//!   entry to exit, its body tracks each iteration;
//! * a procedure's head tracks each call-site activation, its body tracks
//!   activations aggregated over all call sites (identical information
//!   for non-recursive procedures, as in the paper).
//!
//! Every edge carries the traversal count `C`, the average `A`, the
//! maximum, and the standard deviation (reported as CoV) of the
//! hierarchical dynamic instruction count per traversal — exactly the
//! annotations of the paper's Figure 2.

use spm_ir::{LoopId, ProcId, Program, SourceId};
use spm_sim::FastMap;
use spm_stats::Running;
use std::fmt;

/// Identifies a node of one [`CallLoopGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Dense index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifies an edge of one [`CallLoopGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// Dense index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The program-level identity of a call-loop graph node.
///
/// `NodeKey`s are stable across runs of the same binary (they reference
/// dense [`ProcId`]/[`LoopId`]s), which is what lets markers selected on
/// a `train` input detect phases on a `ref` input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NodeKey {
    /// The virtual context in which the entry procedure's own statements
    /// execute.
    Root,
    /// Procedure activation boundary (call-to-return, per call site when
    /// used as an edge target).
    ProcHead(ProcId),
    /// Procedure activation, aggregated over call sites.
    ProcBody(ProcId),
    /// Loop entry-to-exit boundary.
    LoopHead(LoopId),
    /// One loop iteration.
    LoopBody(LoopId),
}

impl NodeKey {
    /// Whether the key denotes a loop node.
    pub fn is_loop(&self) -> bool {
        matches!(self, NodeKey::LoopHead(_) | NodeKey::LoopBody(_))
    }

    /// Whether the key denotes a procedure node.
    pub fn is_proc(&self) -> bool {
        matches!(self, NodeKey::ProcHead(_) | NodeKey::ProcBody(_))
    }

    /// The stable source location of the underlying procedure or loop
    /// (`None` for [`NodeKey::Root`]). Head and body map to the same
    /// source, like the paper's line-number mapping.
    pub fn source(&self, program: &Program) -> Option<(SourceRole, SourceId)> {
        match self {
            NodeKey::Root => None,
            NodeKey::ProcHead(p) => Some((SourceRole::ProcHead, program.proc(*p).source)),
            NodeKey::ProcBody(p) => Some((SourceRole::ProcBody, program.proc(*p).source)),
            NodeKey::LoopHead(l) => Some((SourceRole::LoopHead, program.loop_sources()[l.index()])),
            NodeKey::LoopBody(l) => Some((SourceRole::LoopBody, program.loop_sources()[l.index()])),
        }
    }
}

impl fmt::Display for NodeKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeKey::Root => write!(f, "root"),
            NodeKey::ProcHead(p) => write!(f, "{p}.head"),
            NodeKey::ProcBody(p) => write!(f, "{p}.body"),
            NodeKey::LoopHead(l) => write!(f, "{l}.head"),
            NodeKey::LoopBody(l) => write!(f, "{l}.body"),
        }
    }
}

/// Which role a node plays relative to its source construct; used when
/// mapping markers across binaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SourceRole {
    /// Head node of a procedure.
    ProcHead,
    /// Body node of a procedure.
    ProcBody,
    /// Head node of a loop.
    LoopHead,
    /// Body node of a loop.
    LoopBody,
}

/// One node of the call-loop graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    /// Dense id.
    pub id: NodeId,
    /// Program-level identity.
    pub key: NodeKey,
}

/// One annotated edge of the call-loop graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Edge {
    /// Dense id.
    pub id: EdgeId,
    /// Source node (the context the traversal happens in).
    pub from: NodeId,
    /// Target node (the head or body being activated).
    pub to: NodeId,
    /// Hierarchical instruction count per traversal: count (`C`),
    /// mean (`A`), max, and CoV, as in the paper's Figure 2.
    pub stats: Running,
}

impl Edge {
    /// Traversal count `C`.
    pub fn count(&self) -> u64 {
        self.stats.count()
    }

    /// Average hierarchical instruction count `A`.
    pub fn avg(&self) -> f64 {
        self.stats.mean()
    }

    /// Maximum hierarchical instruction count on a single traversal.
    pub fn max(&self) -> f64 {
        self.stats.max()
    }

    /// CoV of the hierarchical instruction count.
    pub fn cov(&self) -> f64 {
        self.stats.cov()
    }
}

/// The hierarchical call-loop graph.
///
/// Built by [`CallLoopProfiler`](crate::CallLoopProfiler); consumed by
/// [`select_markers`](crate::select_markers).
#[derive(Debug, Clone, Default)]
pub struct CallLoopGraph {
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    node_index: FastMap<NodeKey, NodeId>,
    edge_index: FastMap<(NodeId, NodeId), EdgeId>,
    out_edges: Vec<Vec<EdgeId>>,
    in_edges: Vec<Vec<EdgeId>>,
}

impl CallLoopGraph {
    /// Creates an empty graph containing only the root node.
    pub fn new() -> Self {
        let mut g = Self::default();
        g.intern(NodeKey::Root);
        g
    }

    /// The root (virtual entry context) node.
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// All nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// All edges.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Looks up a node by id.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Looks up an edge by id.
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.index()]
    }

    /// The node for a key, if it was ever observed.
    pub fn node_by_key(&self, key: NodeKey) -> Option<NodeId> {
        self.node_index.get(&key).copied()
    }

    /// The edge between two nodes, if it was ever traversed.
    pub fn edge_between(&self, from: NodeId, to: NodeId) -> Option<&Edge> {
        self.edge_index
            .get(&(from, to))
            .map(|&e| &self.edges[e.index()])
    }

    /// Outgoing edges of a node.
    pub fn out_edges(&self, node: NodeId) -> &[EdgeId] {
        &self.out_edges[node.index()]
    }

    /// Incoming edges of a node.
    pub fn in_edges(&self, node: NodeId) -> &[EdgeId] {
        &self.in_edges[node.index()]
    }

    /// Interns a node for the key, creating it on first use.
    pub fn intern(&mut self, key: NodeKey) -> NodeId {
        if let Some(&id) = self.node_index.get(&key) {
            return id;
        }
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node { id, key });
        self.node_index.insert(key, id);
        self.out_edges.push(Vec::new());
        self.in_edges.push(Vec::new());
        id
    }

    /// Records one traversal of the edge `from -> to` with the given
    /// hierarchical instruction count, creating the edge on first use.
    pub fn record_traversal(&mut self, from: NodeId, to: NodeId, hier_instrs: u64) {
        let edge_id = self.intern_edge(from, to);
        self.record_edge(edge_id, hier_instrs);
    }

    /// Records one traversal of an existing edge.
    #[inline]
    pub(crate) fn record_edge(&mut self, edge: EdgeId, hier_instrs: u64) {
        self.edges[edge.index()].stats.push(hier_instrs as f64);
    }

    /// Merges pre-accumulated statistics into the edge `from -> to`,
    /// creating it if needed. Used when building filtered graph copies
    /// (e.g. the cross-binary edge intersection).
    pub fn merge_edge_stats(&mut self, from: NodeId, to: NodeId, stats: &Running) {
        let edge_id = self.intern_edge(from, to);
        self.edges[edge_id.index()].stats.merge(stats);
    }

    /// The edge `from -> to`, created (with no traversals) on first use.
    pub(crate) fn intern_edge(&mut self, from: NodeId, to: NodeId) -> EdgeId {
        match self.edge_index.get(&(from, to)) {
            Some(&e) => e,
            None => {
                let id = EdgeId(self.edges.len() as u32);
                self.edges.push(Edge {
                    id,
                    from,
                    to,
                    stats: Running::new(),
                });
                self.edge_index.insert((from, to), id);
                self.out_edges[from.index()].push(id);
                self.in_edges[to.index()].push(id);
                id
            }
        }
    }

    /// Estimates the maximum call-loop depth of every node from the root
    /// (paper pass 1): a modified depth-first search that re-traverses a
    /// node when a longer path to it is found but never revisits a node
    /// on the current path, so it terminates on cyclic (recursive)
    /// graphs.
    pub fn estimate_max_depth(&self) -> Vec<u32> {
        if self.nodes.is_empty() {
            return Vec::new();
        }
        let mut depth = vec![0u32; self.nodes.len()];
        let mut on_path = vec![false; self.nodes.len()];
        // Explicit stack of (node, next-out-edge-cursor) frames to avoid
        // host-stack overflow on deep graphs.
        let root = self.root();
        let mut stack: Vec<(NodeId, usize)> = vec![(root, 0)];
        on_path[root.index()] = true;
        while let Some(top) = stack.len().checked_sub(1) {
            let (node, cursor) = stack[top];
            let outs = &self.out_edges[node.index()];
            if cursor >= outs.len() {
                on_path[node.index()] = false;
                stack.pop();
                continue;
            }
            stack[top].1 += 1;
            let next = self.edges[outs[cursor].index()].to;
            if on_path[next.index()] {
                continue;
            }
            let cand = depth[node.index()] + 1;
            if cand > depth[next.index()] {
                depth[next.index()] = cand;
                on_path[next.index()] = true;
                stack.push((next, 0));
            }
        }
        depth
    }

    /// Nodes ordered for the selection passes: decreasing estimated max
    /// depth (children before parents), ties broken by increasing
    /// out-degree (leaves first), then by id for determinism.
    pub fn selection_order(&self) -> Vec<NodeId> {
        let depth = self.estimate_max_depth();
        let mut order: Vec<NodeId> = self.nodes.iter().map(|n| n.id).collect();
        order.sort_by_key(|n| {
            (
                std::cmp::Reverse(depth[n.index()]),
                self.out_edges[n.index()].len(),
                n.index(),
            )
        });
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key_proc(i: u32) -> NodeKey {
        NodeKey::ProcHead(ProcId(i))
    }

    #[test]
    fn intern_is_idempotent() {
        let mut g = CallLoopGraph::new();
        let a = g.intern(key_proc(0));
        let b = g.intern(key_proc(0));
        assert_eq!(a, b);
        assert_eq!(g.nodes().len(), 2); // root + one
    }

    #[test]
    fn record_traversal_accumulates() {
        let mut g = CallLoopGraph::new();
        let a = g.intern(key_proc(0));
        let root = g.root();
        g.record_traversal(root, a, 100);
        g.record_traversal(root, a, 300);
        let e = g.edge_between(root, a).unwrap();
        assert_eq!(e.count(), 2);
        assert_eq!(e.avg(), 200.0);
        assert_eq!(e.max(), 300.0);
        assert!(e.cov() > 0.0);
        assert_eq!(g.out_edges(root).len(), 1);
        assert_eq!(g.in_edges(a).len(), 1);
    }

    #[test]
    fn depth_on_chain() {
        // root -> a -> b -> c
        let mut g = CallLoopGraph::new();
        let a = g.intern(key_proc(0));
        let b = g.intern(key_proc(1));
        let c = g.intern(key_proc(2));
        let root = g.root();
        g.record_traversal(root, a, 1);
        g.record_traversal(a, b, 1);
        g.record_traversal(b, c, 1);
        let d = g.estimate_max_depth();
        assert_eq!(d[root.index()], 0);
        assert_eq!(d[a.index()], 1);
        assert_eq!(d[b.index()], 2);
        assert_eq!(d[c.index()], 3);
    }

    #[test]
    fn depth_takes_longest_path() {
        // root -> a -> c and root -> b -> a: a reachable at depth 1 and 2.
        let mut g = CallLoopGraph::new();
        let a = g.intern(key_proc(0));
        let b = g.intern(key_proc(1));
        let c = g.intern(key_proc(2));
        let root = g.root();
        g.record_traversal(root, a, 1);
        g.record_traversal(a, c, 1);
        g.record_traversal(root, b, 1);
        g.record_traversal(b, a, 1);
        let d = g.estimate_max_depth();
        assert_eq!(d[a.index()], 2);
        assert_eq!(d[c.index()], 3);
    }

    #[test]
    fn depth_terminates_on_cycles() {
        // Mutual recursion: a -> b -> a.
        let mut g = CallLoopGraph::new();
        let a = g.intern(key_proc(0));
        let b = g.intern(key_proc(1));
        let root = g.root();
        g.record_traversal(root, a, 1);
        g.record_traversal(a, b, 1);
        g.record_traversal(b, a, 1);
        let d = g.estimate_max_depth();
        assert_eq!(d[a.index()], 1);
        assert_eq!(d[b.index()], 2);
    }

    #[test]
    fn selection_order_children_first() {
        let mut g = CallLoopGraph::new();
        let a = g.intern(key_proc(0));
        let b = g.intern(key_proc(1));
        let root = g.root();
        g.record_traversal(root, a, 1);
        g.record_traversal(a, b, 1);
        let order = g.selection_order();
        let pos = |n: NodeId| order.iter().position(|&x| x == n).unwrap();
        assert!(pos(b) < pos(a), "deeper node processed first");
        assert!(pos(a) < pos(root));
    }

    #[test]
    fn node_key_display_and_predicates() {
        assert_eq!(NodeKey::Root.to_string(), "root");
        assert_eq!(NodeKey::ProcHead(ProcId(1)).to_string(), "p1.head");
        assert_eq!(NodeKey::LoopBody(LoopId(2)).to_string(), "L2.body");
        assert!(NodeKey::LoopHead(LoopId(0)).is_loop());
        assert!(!NodeKey::LoopHead(LoopId(0)).is_proc());
        assert!(NodeKey::ProcBody(ProcId(0)).is_proc());
        assert!(!NodeKey::Root.is_loop() && !NodeKey::Root.is_proc());
    }
}
