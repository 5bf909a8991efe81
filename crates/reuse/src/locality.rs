//! The locality-phase baseline: reuse-distance signal collection,
//! boundary detection, regularity testing, and data-reuse marker
//! selection (Shen et al., reproduced per the paper's Section 6.1).

use crate::haar::detect_boundaries;
use crate::sequitur::Sequitur;
use crate::tracker::ReuseTracker;
use spm_core::MarkerFiring;
use spm_ir::BlockId;
use spm_sim::{FastMap, Reads, TraceEvent, TraceObserver};
use std::collections::HashMap;

/// Parameters of the locality-phase analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalityConfig {
    /// Data accesses per signal window.
    pub window_accesses: usize,
    /// Minimum fraction of a block's executions that must coincide with
    /// boundaries for the block to qualify as a marker.
    pub min_precision: f64,
    /// Minimum fraction of boundaries a marker block must cover.
    pub min_recall: f64,
    /// Matching tolerance around a boundary, in instructions.
    pub tolerance_instrs: u64,
    /// Maximum Sequitur compression ratio of the phase-segment sequence
    /// for the program to count as "having structure"; irregular
    /// programs (the paper's gcc/vortex) exceed it and get no markers.
    pub max_regularity_ratio: f64,
    /// Quantization levels for segment signal values.
    pub quant_levels: usize,
}

impl Default for LocalityConfig {
    fn default() -> Self {
        Self {
            window_accesses: 512,
            min_precision: 0.6,
            min_recall: 0.3,
            tolerance_instrs: 4_096,
            max_regularity_ratio: 0.75,
            quant_levels: 4,
        }
    }
}

/// Trace observer producing (a) the windowed reuse-distance signal and
/// (b) the log of basic-block executions, from one profiling run.
#[derive(Debug, Clone)]
pub struct ReuseSignalCollector {
    tracker: ReuseTracker,
    window_accesses: usize,
    acc: f64,
    in_window: usize,
    window_start: u64,
    last_icount: u64,
    /// `(start icount, mean log2(1 + distance))` per window.
    windows: Vec<(u64, f64)>,
    /// `(block start icount, block)` per execution.
    block_execs: Vec<(u64, BlockId)>,
}

impl ReuseSignalCollector {
    /// Creates a collector with the given window size in accesses.
    pub fn new(window_accesses: usize) -> Self {
        Self {
            tracker: ReuseTracker::new(64),
            window_accesses: window_accesses.max(1),
            acc: 0.0,
            in_window: 0,
            window_start: 0,
            last_icount: 0,
            windows: Vec::new(),
            block_execs: Vec::new(),
        }
    }

    /// The windowed signal collected so far.
    pub fn windows(&self) -> &[(u64, f64)] {
        &self.windows
    }

    /// The block-execution log.
    pub fn block_execs(&self) -> &[(u64, BlockId)] {
        &self.block_execs
    }

    fn close_window(&mut self) {
        if self.in_window > 0 {
            self.windows
                .push((self.window_start, self.acc / self.in_window as f64));
        }
        self.acc = 0.0;
        self.in_window = 0;
        self.window_start = self.last_icount;
    }

    fn step(&mut self, icount: u64, event: &TraceEvent) {
        match *event {
            TraceEvent::MemAccess { addr, .. } => {
                let value = match self.tracker.access(addr) {
                    Some(d) => ((1 + d) as f64).log2(),
                    // Cold miss: treat as the current footprint (an
                    // effectively infinite distance).
                    None => ((1 + self.tracker.distinct_lines()) as f64).log2(),
                };
                self.acc += value;
                self.in_window += 1;
                if self.in_window >= self.window_accesses {
                    self.close_window();
                }
            }
            TraceEvent::BlockExec { block, instrs, .. } => {
                self.last_icount = icount;
                self.block_execs.push((icount - u64::from(instrs), block));
            }
            TraceEvent::Finish => self.close_window(),
            _ => {}
        }
    }
}

impl TraceObserver for ReuseSignalCollector {
    fn on_batch(&mut self, batch: &[(u64, TraceEvent)]) {
        for (icount, event) in batch {
            self.step(*icount, event);
        }
    }

    fn reads(&self) -> Reads {
        Reads::BLOCKS | Reads::MEM
    }
}

/// Result of the locality-phase analysis.
#[derive(Debug, Clone)]
pub struct LocalityAnalysis {
    /// Detected phase-boundary instruction counts.
    pub boundaries: Vec<u64>,
    /// Selected data-reuse marker blocks (empty when the program shows
    /// no exploitable locality structure).
    pub markers: Vec<BlockId>,
    /// Sequitur compression ratio of the quantized phase-segment
    /// sequence (lower = more regular).
    pub regularity: f64,
    /// Whether the analysis found exploitable repeating structure.
    pub found_structure: bool,
}

impl LocalityAnalysis {
    /// Runs the full baseline analysis on a collected profile.
    ///
    /// # Examples
    ///
    /// ```
    /// use spm_reuse::{LocalityAnalysis, LocalityConfig, ReuseSignalCollector};
    ///
    /// // An empty profile has no structure to find.
    /// let collector = ReuseSignalCollector::new(512);
    /// let analysis = LocalityAnalysis::analyze(&collector, &LocalityConfig::default());
    /// assert!(!analysis.found_structure);
    /// ```
    pub fn analyze(collector: &ReuseSignalCollector, config: &LocalityConfig) -> Self {
        let signal: Vec<f64> = collector.windows.iter().map(|w| w.1).collect();
        let boundary_windows = detect_boundaries(&signal);
        let boundaries: Vec<u64> = boundary_windows
            .iter()
            .map(|&w| collector.windows[w].0)
            .collect();

        // Regularity: quantize the signal level of each boundary-to-
        // boundary segment and compress the symbol sequence with
        // Sequitur, as Shen et al. compress the filtered trace.
        let regularity = segment_regularity(&signal, &boundary_windows, config.quant_levels);
        let found_structure = !boundaries.is_empty() && regularity <= config.max_regularity_ratio;
        if !found_structure {
            return Self {
                boundaries,
                markers: Vec::new(),
                regularity,
                found_structure,
            };
        }

        let markers = select_marker_blocks(collector, &boundaries, config);
        let found_structure = !markers.is_empty();
        Self {
            boundaries,
            markers,
            regularity,
            found_structure,
        }
    }
}

/// Quantizes each boundary-to-boundary segment into a symbol combining
/// its signal level and its (coarse) length, and returns the Sequitur
/// compression ratio of the symbol sequence. Regular programs produce
/// repeating symbol patterns that compress; programs with erratic
/// working sets or phase lengths do not (Shen et al.'s regular
/// expressions over phase patterns play the same role).
fn segment_regularity(signal: &[f64], boundary_windows: &[usize], levels: usize) -> f64 {
    if signal.is_empty() {
        return 1.0;
    }
    let mut segments: Vec<(f64, usize)> = Vec::new();
    let mut start = 0usize;
    for &b in boundary_windows
        .iter()
        .chain(std::iter::once(&signal.len()))
    {
        if b > start {
            let mean: f64 = signal[start..b].iter().sum::<f64>() / (b - start) as f64;
            segments.push((mean, b - start));
            start = b;
        }
    }
    let (lo, hi) = segments
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &(x, _)| {
            (lo.min(x), hi.max(x))
        });
    let span = (hi - lo).max(1e-9);
    let levels = levels.max(2) as f64;
    let mut lens: Vec<usize> = segments.iter().map(|&(_, l)| l).collect();
    lens.sort_unstable();
    let median_len = lens[lens.len() / 2].max(1) as f64;

    let mut seq = Sequitur::new();
    for &(mean, len) in &segments {
        let level = (((mean - lo) / span) * (levels - 1.0)).round() as u32;
        let ratio = len as f64 / median_len;
        let len_bucket: u32 = if ratio < 0.6 {
            0
        } else if ratio < 1.5 {
            1
        } else if ratio < 2.5 {
            2
        } else {
            3
        };
        seq.push(level * 4 + len_bucket);
    }
    let n = seq.len();
    seq.finish().compression_ratio(n)
}

/// Selects blocks whose executions coincide with the boundaries, by
/// precision and recall, greedily until all boundaries are covered.
fn select_marker_blocks(
    collector: &ReuseSignalCollector,
    boundaries: &[u64],
    config: &LocalityConfig,
) -> Vec<BlockId> {
    #[derive(Default, Clone)]
    struct BlockScore {
        total: u64,
        matched: u64,
        covered: Vec<bool>,
    }
    // A marker must pin a boundary down to well below the typical phase
    // length, else every frequently executing block trivially "matches";
    // cap the tolerance at a quarter of the median segment length. But
    // a boundary's position is only known to signal-window granularity,
    // so allow at least two windows of slack.
    let mut window_spans: Vec<u64> = collector
        .windows
        .windows(2)
        .map(|w| w[1].0 - w[0].0)
        .collect();
    window_spans.sort_unstable();
    let window_slack = window_spans
        .get(window_spans.len() / 2)
        .map_or(0, |&m| 2 * m);
    let mut seg_lens: Vec<u64> = boundaries.windows(2).map(|w| w[1] - w[0]).collect();
    seg_lens.sort_unstable();
    let tol = match seg_lens.get(seg_lens.len() / 2) {
        Some(&median) => config.tolerance_instrs.max(window_slack).min(median / 4),
        None => config.tolerance_instrs,
    };
    let mut scores: HashMap<BlockId, BlockScore> = HashMap::new();
    for &(at, block) in &collector.block_execs {
        let score = scores.entry(block).or_insert_with(|| BlockScore {
            total: 0,
            matched: 0,
            covered: vec![false; boundaries.len()],
        });
        score.total += 1;
        // Nearest boundary by binary search.
        let idx = boundaries.partition_point(|&b| b < at.saturating_sub(tol));
        let mut hit = false;
        for (i, &b) in boundaries.iter().enumerate().skip(idx) {
            if b > at + tol {
                break;
            }
            score.covered[i] = true;
            hit = true;
        }
        if hit {
            score.matched += 1;
        }
    }

    let mut candidates: Vec<(BlockId, f64, f64)> = scores
        .iter()
        .filter_map(|(&block, s)| {
            let precision = s.matched as f64 / s.total as f64;
            let recall =
                s.covered.iter().filter(|&&c| c).count() as f64 / boundaries.len().max(1) as f64;
            (precision >= config.min_precision && recall >= config.min_recall)
                .then_some((block, recall, precision))
        })
        .collect();
    candidates.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal))
            .then(a.0.cmp(&b.0))
    });

    let mut chosen = Vec::new();
    let mut covered = vec![false; boundaries.len()];
    for (block, _, _) in candidates {
        if covered.iter().all(|&c| c) {
            break;
        }
        let gain = scores[&block]
            .covered
            .iter()
            .zip(&covered)
            .any(|(&blk, &already)| blk && !already);
        if gain {
            for (dst, &src) in covered.iter_mut().zip(&scores[&block].covered) {
                *dst |= src;
            }
            chosen.push(block);
        }
    }
    chosen.sort_unstable();
    chosen
}

/// Runtime detector for data-reuse markers: fires whenever one of the
/// marker blocks begins executing. Firing ids index into the marker
/// list, so the output plugs directly into
/// [`spm_core::partition`].
#[derive(Debug, Clone)]
pub struct ReuseMarkerRuntime {
    index: FastMap<BlockId, usize>,
    firings: Vec<MarkerFiring>,
}

impl ReuseMarkerRuntime {
    /// Creates a runtime for the given marker blocks.
    pub fn new(markers: &[BlockId]) -> Self {
        Self {
            index: markers.iter().enumerate().map(|(i, &b)| (b, i)).collect(),
            firings: Vec::new(),
        }
    }

    /// Firings observed so far.
    pub fn firings(&self) -> &[MarkerFiring] {
        &self.firings
    }

    /// Consumes the runtime, returning the firings.
    pub fn into_firings(self) -> Vec<MarkerFiring> {
        self.firings
    }

    fn step(&mut self, icount: u64, event: &TraceEvent) {
        if let TraceEvent::BlockExec { block, instrs, .. } = *event {
            if let Some(&marker) = self.index.get(&block) {
                self.firings.push(MarkerFiring {
                    icount: icount - u64::from(instrs),
                    marker,
                });
            }
        }
    }
}

impl TraceObserver for ReuseMarkerRuntime {
    fn on_batch(&mut self, batch: &[(u64, TraceEvent)]) {
        for (icount, event) in batch {
            self.step(*icount, event);
        }
    }

    fn reads(&self) -> Reads {
        Reads::BLOCKS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spm_core::partition;
    use spm_ir::{Input, Program, ProgramBuilder, Trip};
    use spm_sim::run;

    /// Alternating small/large working sets with a distinct block at the
    /// start of each phase: an ideal target for the baseline.
    fn regular_program() -> Program {
        let mut b = ProgramBuilder::new("regular");
        let small = b.region_bytes("small", 1 << 12);
        let big = b.region_bytes("big", 1 << 20);
        b.proc("main", |p| {
            p.loop_(Trip::Fixed(12), |outer| {
                outer.call("small_phase");
                outer.call("big_phase");
            });
        });
        b.proc("small_phase", |p| {
            p.block(20).done(); // phase-entry block: executes once per phase
            p.loop_(Trip::Fixed(400), |body| {
                body.block(30).seq_read(small, 4).done();
            });
        });
        b.proc("big_phase", |p| {
            p.block(20).done();
            p.loop_(Trip::Fixed(400), |body| {
                body.block(30).rand_read(big, 4).done();
            });
        });
        b.build("main").unwrap()
    }

    /// Irregular program: random working-set sizes and random phase
    /// order, like the paper's gcc.
    fn irregular_program() -> Program {
        let mut b = ProgramBuilder::new("irregular");
        let r1 = b.region_bytes("a", 1 << 18);
        let r2 = b.region_bytes("b", 1 << 14);
        b.proc("main", |p| {
            p.loop_(Trip::Fixed(150), |outer| {
                outer.if_prob(
                    0.5,
                    |t| {
                        t.loop_(Trip::Uniform { lo: 5, hi: 400 }, |body| {
                            body.block(17).rand_read(r1, 3).done();
                        });
                    },
                    |e| {
                        e.loop_(Trip::Uniform { lo: 5, hi: 300 }, |body| {
                            body.block(23).rand_read(r2, 5).done();
                        });
                    },
                );
            });
        });
        b.build("main").unwrap()
    }

    fn collect(program: &Program) -> ReuseSignalCollector {
        let mut c = ReuseSignalCollector::new(256);
        run(program, &Input::new("t", 3), &mut [&mut c]).unwrap();
        c
    }

    #[test]
    fn signal_windows_cover_execution() {
        let program = regular_program();
        let c = collect(&program);
        assert!(c.windows().len() > 10);
        // Window start icounts are non-decreasing.
        assert!(c.windows().windows(2).all(|w| w[0].0 <= w[1].0));
        assert!(!c.block_execs().is_empty());
    }

    #[test]
    fn regular_program_yields_markers() {
        let program = regular_program();
        let c = collect(&program);
        let analysis = LocalityAnalysis::analyze(&c, &LocalityConfig::default());
        assert!(
            analysis.found_structure,
            "regular program must show structure"
        );
        assert!(!analysis.boundaries.is_empty());
        assert!(!analysis.markers.is_empty());
        assert!(
            analysis.regularity < 0.8,
            "alternating phases compress, ratio = {}",
            analysis.regularity
        );
    }

    #[test]
    fn markers_partition_execution_into_phases() {
        let program = regular_program();
        let c = collect(&program);
        let analysis = LocalityAnalysis::analyze(&c, &LocalityConfig::default());
        let mut rt = ReuseMarkerRuntime::new(&analysis.markers);
        let summary = run(&program, &Input::new("t", 3), &mut [&mut rt]).unwrap();
        let vlis = partition(rt.firings(), summary.instrs);
        assert!(
            vlis.len() >= 12,
            "one interval per phase change, got {}",
            vlis.len()
        );
        // Roughly two phases alternate (plus the prelude).
        let phases: std::collections::HashSet<usize> = vlis.iter().map(|v| v.phase).collect();
        assert!(phases.len() <= analysis.markers.len() + 1);
    }

    #[test]
    fn irregular_program_finds_no_stable_markers() {
        let program = irregular_program();
        let c = collect(&program);
        let analysis = LocalityAnalysis::analyze(&c, &LocalityConfig::default());
        // The paper: Shen et al. "found it difficult to find structure in
        // more complex programs". Either no structure is declared, or no
        // block passes the precision/recall bar.
        assert!(
            !analysis.found_structure || analysis.markers.is_empty(),
            "irregular program should defeat the baseline: regularity={}, markers={:?}",
            analysis.regularity,
            analysis.markers
        );
    }

    #[test]
    fn empty_profile_is_handled() {
        let c = ReuseSignalCollector::new(128);
        let analysis = LocalityAnalysis::analyze(&c, &LocalityConfig::default());
        assert!(!analysis.found_structure);
        assert!(analysis.markers.is_empty());
        assert!(analysis.boundaries.is_empty());
    }
}
