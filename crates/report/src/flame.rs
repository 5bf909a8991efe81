//! Reassembling the flat span stream into a hierarchical stage tree
//! ("flame" view) with total/self time aggregation.
//!
//! Span names are full paths (`cli/select/sim/run`), but a stage name
//! may itself contain `/` (`sim/run` is one stage), so path *segments*
//! cannot be recovered by splitting. Instead, a node's parent is the
//! longest *observed* path that prefixes it: `cli/select/sim/run`
//! hangs under `cli/select` when `cli/select` appears in the stream,
//! and becomes a root otherwise (e.g. spans emitted on worker threads,
//! whose stacks start fresh). Multiple occurrences of one path
//! aggregate: `total_us` sums, `count` counts, and `self_us` is total
//! minus the children's totals (clamped at zero — concurrent children
//! can overlap their parent).

use crate::ingest::Run;
pub use spm_obs::summary::fmt_duration;
use std::collections::BTreeMap;

/// One aggregated stage in the flame tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlameNode {
    /// Full span path (`cli/select/sim/run`).
    pub path: String,
    /// Path relative to the parent node (`sim/run`), or the full path
    /// for roots.
    pub name: String,
    /// Summed wall-clock across occurrences, microseconds.
    pub total_us: u64,
    /// `total_us` minus the children's totals (clamped at zero).
    pub self_us: u64,
    /// Number of occurrences.
    pub count: u64,
    /// Child stages, widest first.
    pub children: Vec<FlameNode>,
}

/// Builds the flame forest (roots widest first) from a run's spans.
pub fn build(run: &Run) -> Vec<FlameNode> {
    // Aggregate by full path.
    let mut agg: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for (path, dur_us) in run.spans() {
        let entry = agg.entry(path).or_insert((0, 0));
        entry.0 += dur_us;
        entry.1 += 1;
    }
    let paths: Vec<&str> = agg.keys().copied().collect();

    // Parent = the longest observed proper prefix ending at a `/`.
    let parent_of = |path: &str| -> Option<&str> {
        paths
            .iter()
            .filter(|&&q| {
                q.len() < path.len()
                    && path.starts_with(q)
                    && path.as_bytes().get(q.len()) == Some(&b'/')
            })
            .max_by_key(|q| q.len())
            .copied()
    };

    let mut children_of: BTreeMap<Option<&str>, Vec<&str>> = BTreeMap::new();
    for &path in &paths {
        children_of.entry(parent_of(path)).or_default().push(path);
    }

    fn make(
        path: &str,
        parent: Option<&str>,
        agg: &BTreeMap<&str, (u64, u64)>,
        children_of: &BTreeMap<Option<&str>, Vec<&str>>,
    ) -> FlameNode {
        let (total_us, count) = agg.get(path).copied().unwrap_or((0, 0));
        let mut children: Vec<FlameNode> = children_of
            .get(&Some(path))
            .into_iter()
            .flatten()
            .map(|child| make(child, Some(path), agg, children_of))
            .collect();
        children.sort_by(|a, b| b.total_us.cmp(&a.total_us).then(a.path.cmp(&b.path)));
        let child_total: u64 = children.iter().map(|c| c.total_us).sum();
        let name = match parent {
            Some(p) => path[p.len() + 1..].to_string(),
            None => path.to_string(),
        };
        FlameNode {
            path: path.to_string(),
            name,
            total_us,
            self_us: total_us.saturating_sub(child_total),
            count,
            children,
        }
    }

    let mut roots: Vec<FlameNode> = children_of
        .get(&None)
        .into_iter()
        .flatten()
        .map(|path| make(path, None, &agg, &children_of))
        .collect();
    roots.sort_by(|a, b| b.total_us.cmp(&a.total_us).then(a.path.cmp(&b.path)));
    roots
}

/// Renders the forest as an indented terminal tree: per stage the
/// total, self time, invocation count, and a bar scaled to the widest
/// root.
pub fn render(roots: &[FlameNode]) -> String {
    let grand: u64 = roots.iter().map(|r| r.total_us).sum();
    let stages = count_nodes(roots);
    let mut out = format!(
        "flame: {} over {stages} stage(s)\n",
        fmt_duration(grand.max(1))
    );
    let width = roots
        .iter()
        .map(max_label_width)
        .max()
        .unwrap_or(0)
        .max("stage".len());
    out.push_str(&format!(
        "  {:<width$}  {:>9}  {:>9}  {:>5}\n",
        "stage", "total", "self", "calls"
    ));
    for root in roots {
        render_node(root, 0, grand.max(1), width, &mut out);
    }
    out
}

/// Renders one run: a `== label ==` header plus the flame tree.
pub fn render_run(run: &Run) -> String {
    format!("== {} ==\n{}", run.label, render(&build(run)))
}

fn count_nodes(nodes: &[FlameNode]) -> usize {
    nodes.iter().map(|n| 1 + count_nodes(&n.children)).sum()
}

fn max_label_width(node: &FlameNode) -> usize {
    fn walk(node: &FlameNode, depth: usize) -> usize {
        let own = depth * 2 + node.name.len();
        node.children
            .iter()
            .map(|c| walk(c, depth + 1))
            .max()
            .unwrap_or(0)
            .max(own)
    }
    walk(node, 0)
}

fn render_node(node: &FlameNode, depth: usize, grand: u64, width: usize, out: &mut String) {
    let indent = "  ".repeat(depth);
    let label = format!("{indent}{}", node.name);
    let bar_len = ((node.total_us.saturating_mul(24)) / grand).min(24) as usize;
    let bar = "#".repeat(bar_len.max(1));
    out.push_str(&format!(
        "  {label:<width$}  {:>9}  {:>9}  {:>5}  {bar}\n",
        fmt_duration(node.total_us),
        fmt_duration(node.self_us),
        node.count,
    ));
    for child in &node.children {
        render_node(child, depth + 1, grand, width, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::load_str;

    fn span_line(name: &str, dur_us: u64) -> String {
        format!(
            "{{\"v\":1,\"kind\":\"span\",\"name\":\"{name}\",\"dur_us\":{dur_us},\"fields\":{{}}}}"
        )
    }

    fn run_of(lines: &[String]) -> Run {
        load_str("t", &lines.join("\n")).unwrap()
    }

    #[test]
    fn builds_tree_with_slashed_stage_names() {
        // `cli/select` is ONE stage whose name contains a slash;
        // `cli/select/sim/run` nests under it, `sim/run` alone roots.
        let run = run_of(&[
            span_line("cli/select/sim/run", 300),
            span_line("cli/select/core/select", 100),
            span_line("cli/select", 1000),
            span_line("sim/run", 50),
        ]);
        let roots = build(&run);
        assert_eq!(roots.len(), 2);
        assert_eq!(roots[0].path, "cli/select");
        assert_eq!(roots[0].total_us, 1000);
        assert_eq!(roots[0].self_us, 600, "1000 - (300 + 100)");
        let child_names: Vec<&str> = roots[0].children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(child_names, vec!["sim/run", "core/select"], "widest first");
        assert_eq!(roots[1].path, "sim/run");
        assert_eq!(roots[1].name, "sim/run");
    }

    #[test]
    fn aggregates_repeated_paths() {
        let run = run_of(&[
            span_line("a", 100),
            span_line("a", 300),
            span_line("a/b", 60),
            span_line("a/b", 40),
        ]);
        let roots = build(&run);
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].total_us, 400);
        assert_eq!(roots[0].count, 2);
        assert_eq!(roots[0].children[0].total_us, 100);
        assert_eq!(roots[0].children[0].count, 2);
        assert_eq!(roots[0].self_us, 300);
    }

    #[test]
    fn overlapping_children_clamp_self_time() {
        // Parallel children can sum past the parent (worker overlap).
        let run = run_of(&[
            span_line("p", 100),
            span_line("p/x", 80),
            span_line("p/y", 90),
        ]);
        let roots = build(&run);
        assert_eq!(roots[0].self_us, 0, "clamped, not underflowed");
    }

    #[test]
    fn prefix_without_separator_is_not_a_parent() {
        let run = run_of(&[span_line("se", 10), span_line("select", 20)]);
        let roots = build(&run);
        assert_eq!(roots.len(), 2, "`se` must not absorb `select`");
    }

    #[test]
    fn render_shows_durations_and_bars() {
        let run = run_of(&[
            span_line("cli/select", 2_000_000),
            span_line("cli/select/sim/run", 1_500_000),
        ]);
        let text = render(&build(&run));
        assert!(text.contains("cli/select"), "{text}");
        assert!(text.contains("2.00s"), "{text}");
        assert!(text.contains("1.50s"), "{text}");
        assert!(text.contains('#'), "{text}");
        assert!(text.contains("stage(s)"), "{text}");
    }

    #[test]
    fn empty_run_renders_header() {
        let run = load_str("t", "").unwrap();
        let text = render(&build(&run));
        assert!(text.contains("0 stage(s)"), "{text}");
    }
}
