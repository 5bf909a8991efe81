//! Collecting one BBV per execution interval.

use crate::vector::BbvBuilder;
use spm_sim::{Reads, TraceEvent, TraceObserver};

/// How execution is cut into intervals.
#[derive(Debug, Clone)]
pub enum Boundaries {
    /// Fixed-length intervals of (at least) this many instructions;
    /// interval ends snap outward to basic-block boundaries, as when
    /// instrumentation counts instructions.
    Fixed(u64),
    /// Explicit boundaries: `(icount, phase)` pairs in increasing icount
    /// order — the variable-length intervals induced by marker firings
    /// (`icount` = interval begin, `phase` = phase id of the interval
    /// starting there). An implicit interval with phase
    /// `prelude_phase` precedes the first boundary.
    Explicit {
        /// `(begin icount, phase id)` per marker-started interval.
        cuts: Vec<(u64, usize)>,
        /// Phase id of execution before the first cut.
        prelude_phase: usize,
    },
}

/// One collected interval: its instruction range, phase id (0 for all
/// fixed-length intervals), and basic block vector.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalBbv {
    /// First instruction of the interval.
    pub begin: u64,
    /// One past the last instruction.
    pub end: u64,
    /// Phase id (meaningful for explicit boundaries only).
    pub phase: usize,
    /// Normalized, instruction-weighted basic block vector.
    pub bbv: Vec<f64>,
}

impl IntervalBbv {
    /// Instructions in the interval.
    pub fn len(&self) -> u64 {
        self.end - self.begin
    }

    /// Whether the interval is empty.
    pub fn is_empty(&self) -> bool {
        self.end == self.begin
    }
}

/// Trace observer that cuts execution into intervals and collects one
/// BBV per interval. It reads [`Reads::BLOCKS`]: a BBV counts blocks,
/// and the cuts fall at block starts and at `Finish`.
///
/// # Examples
///
/// ```
/// use spm_bbv::{Boundaries, IntervalBbvCollector};
/// use spm_ir::{Input, ProgramBuilder, Trip};
/// use spm_sim::run;
///
/// let mut b = ProgramBuilder::new("t");
/// b.proc("main", |p| {
///     p.loop_(Trip::Fixed(100), |body| {
///         body.block(10).done();
///     });
/// });
/// let program = b.build("main").unwrap();
/// let mut collector = IntervalBbvCollector::new(&program, Boundaries::Fixed(250));
/// run(&program, &Input::new("x", 1), &mut [&mut collector]).unwrap();
/// let intervals = collector.into_intervals();
/// assert_eq!(intervals.len(), 4); // 1000 instructions / 250
/// ```
#[derive(Debug, Clone)]
pub struct IntervalBbvCollector {
    builder: BbvBuilder,
    boundaries: Boundaries,
    /// Index of the next explicit cut.
    next_cut: usize,
    begin: u64,
    phase: usize,
    last_icount: u64,
    intervals: Vec<IntervalBbv>,
    finished: bool,
}

impl IntervalBbvCollector {
    /// Creates a collector as wide as the program's block table.
    pub fn new(program: &spm_ir::Program, boundaries: Boundaries) -> Self {
        Self::for_trace(program.block_sizes().len(), boundaries)
    }

    /// Creates a collector for a trace replayed without its program:
    /// block sizes are learned from the events themselves. `dims` is
    /// the static block-id space if known (e.g. an `spmstk01` footer's
    /// `block_dims`, when nonzero); blocks beyond it grow the vectors,
    /// and [`into_intervals`](Self::into_intervals) pads earlier
    /// intervals to the final width.
    pub fn for_trace(dims: usize, boundaries: Boundaries) -> Self {
        let phase = match &boundaries {
            Boundaries::Fixed(_) => 0,
            Boundaries::Explicit { prelude_phase, .. } => *prelude_phase,
        };
        Self {
            builder: BbvBuilder::new(dims),
            boundaries,
            next_cut: 0,
            begin: 0,
            phase,
            last_icount: 0,
            intervals: Vec::new(),
            finished: false,
        }
    }

    /// The intervals collected so far.
    pub fn intervals(&self) -> &[IntervalBbv] {
        &self.intervals
    }

    /// Consumes the collector, returning all intervals, each padded to
    /// the final dimension count (a no-op unless a trace-mode run grew
    /// the block-id space mid-trace).
    pub fn into_intervals(mut self) -> Vec<IntervalBbv> {
        let dims = self.builder.dims();
        for iv in &mut self.intervals {
            iv.bbv.resize(dims, 0.0);
        }
        self.intervals
    }

    fn cut(&mut self, at: u64, next_phase: usize) {
        if at > self.begin {
            self.intervals.push(IntervalBbv {
                begin: self.begin,
                end: at,
                phase: self.phase,
                bbv: self.builder.take(),
            });
            self.begin = at;
        }
        self.phase = next_phase;
    }

    fn explicit_cut(&self, idx: usize) -> Option<(u64, usize)> {
        match &self.boundaries {
            Boundaries::Explicit { cuts, .. } => cuts.get(idx).copied(),
            Boundaries::Fixed(_) => None,
        }
    }

    /// Applies any boundaries at or before `block_start` (the icount at
    /// which the upcoming block begins).
    fn apply_boundaries(&mut self, block_start: u64) {
        if let Boundaries::Fixed(len) = self.boundaries {
            let len = len.max(1);
            if block_start >= self.begin + len {
                self.cut(block_start, 0);
            }
            return;
        }
        while let Some((at, phase)) = self.explicit_cut(self.next_cut) {
            if at > block_start {
                break;
            }
            self.next_cut += 1;
            let at = at.max(self.begin);
            // Zero-length cut: first marker at a boundary wins (for
            // icount 0, that is the very first cut).
            if at > self.begin || (self.intervals.is_empty() && at == 0 && self.next_cut == 1) {
                self.cut(at, phase);
            }
        }
    }

    /// Processes one event; shared by the per-event and batch observer
    /// entry points so the batch loop runs with static dispatch.
    #[inline]
    fn step(&mut self, icount: u64, event: &TraceEvent) {
        match *event {
            TraceEvent::BlockExec { block, instrs, .. } => {
                let block_start = icount - u64::from(instrs);
                self.apply_boundaries(block_start);
                self.builder.note_block(block, instrs);
                self.last_icount = icount;
            }
            TraceEvent::Finish if !self.finished => {
                self.finished = true;
                self.apply_boundaries(icount);
                let phase = self.phase;
                self.cut(icount.max(self.last_icount), phase);
            }
            _ => {}
        }
    }
}

impl TraceObserver for IntervalBbvCollector {
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
    use spm_ir::{Input, Program, ProgramBuilder, Trip};
    use spm_sim::run;

    fn loop_program(iters: u64, block: u32) -> Program {
        let mut b = ProgramBuilder::new("t");
        b.proc("main", |p| {
            p.loop_(Trip::Fixed(iters), |body| {
                body.block(block).done();
            });
        });
        b.build("main").unwrap()
    }

    #[test]
    fn fixed_intervals_tile_execution() {
        let program = loop_program(100, 10);
        let mut c = IntervalBbvCollector::new(&program, Boundaries::Fixed(300));
        run(&program, &Input::new("x", 1), &mut [&mut c]).unwrap();
        let ivs = c.into_intervals();
        assert_eq!(ivs.first().unwrap().begin, 0);
        assert_eq!(ivs.last().unwrap().end, 1000);
        for w in ivs.windows(2) {
            assert_eq!(w[0].end, w[1].begin);
        }
        // 300 is a multiple of 10, so intervals are exactly 300 except the
        // last (100).
        assert_eq!(ivs.len(), 4);
        assert_eq!(ivs[0].len(), 300);
        assert_eq!(ivs[3].len(), 100);
    }

    #[test]
    fn fixed_interval_snaps_to_block_boundary() {
        let program = loop_program(10, 70);
        let mut c = IntervalBbvCollector::new(&program, Boundaries::Fixed(100));
        run(&program, &Input::new("x", 1), &mut [&mut c]).unwrap();
        let ivs = c.into_intervals();
        // Blocks are 70 instructions: cuts happen at 140, 280, ...
        assert!(ivs.iter().all(|iv| iv.begin % 70 == 0 && iv.end % 70 == 0));
        assert!(ivs.iter().all(|iv| iv.len() >= 100 || iv.end == 700));
    }

    #[test]
    fn bbv_reflects_code_executed() {
        // Two distinct blocks in two halves of execution.
        let mut b = ProgramBuilder::new("t");
        b.proc("main", |p| {
            p.loop_(Trip::Fixed(50), |body| {
                body.block(10).done();
            });
            p.loop_(Trip::Fixed(50), |body| {
                body.block(10).done();
            });
        });
        let program = b.build("main").unwrap();
        let mut c = IntervalBbvCollector::new(&program, Boundaries::Fixed(500));
        run(&program, &Input::new("x", 1), &mut [&mut c]).unwrap();
        let ivs = c.into_intervals();
        assert_eq!(ivs.len(), 2);
        assert_eq!(ivs[0].bbv, vec![1.0, 0.0]);
        assert_eq!(ivs[1].bbv, vec![0.0, 1.0]);
    }

    #[test]
    fn explicit_boundaries_cut_at_marker_positions() {
        let program = loop_program(100, 10);
        let cuts = vec![(300, 7), (600, 9)];
        let mut c = IntervalBbvCollector::new(
            &program,
            Boundaries::Explicit {
                cuts,
                prelude_phase: 0,
            },
        );
        run(&program, &Input::new("x", 1), &mut [&mut c]).unwrap();
        let ivs = c.into_intervals();
        assert_eq!(ivs.len(), 3);
        assert_eq!((ivs[0].begin, ivs[0].end, ivs[0].phase), (0, 300, 0));
        assert_eq!((ivs[1].begin, ivs[1].end, ivs[1].phase), (300, 600, 7));
        assert_eq!((ivs[2].begin, ivs[2].end, ivs[2].phase), (600, 1000, 9));
    }

    #[test]
    fn explicit_boundary_at_zero_replaces_prelude() {
        let program = loop_program(10, 10);
        let mut c = IntervalBbvCollector::new(
            &program,
            Boundaries::Explicit {
                cuts: vec![(0, 3)],
                prelude_phase: 0,
            },
        );
        run(&program, &Input::new("x", 1), &mut [&mut c]).unwrap();
        let ivs = c.into_intervals();
        assert_eq!(ivs.len(), 1);
        assert_eq!(ivs[0].phase, 3);
    }

    #[test]
    fn duplicate_explicit_cuts_keep_first_phase() {
        let program = loop_program(10, 10);
        let mut c = IntervalBbvCollector::new(
            &program,
            Boundaries::Explicit {
                cuts: vec![(50, 1), (50, 2)],
                prelude_phase: 0,
            },
        );
        run(&program, &Input::new("x", 1), &mut [&mut c]).unwrap();
        let ivs = c.into_intervals();
        assert_eq!(ivs.len(), 2);
        assert_eq!(
            ivs[1].phase, 1,
            "first marker at the boundary names the phase"
        );
    }

    #[test]
    fn trace_mode_with_unknown_dims_pads_to_final_width() {
        // Two blocks executed in different intervals; dims start at 0
        // and grow as blocks appear, so the first interval's vector is
        // produced narrow and padded by into_intervals.
        let mut b = ProgramBuilder::new("t");
        b.proc("main", |p| {
            p.loop_(Trip::Fixed(50), |body| {
                body.block(10).done();
            });
            p.loop_(Trip::Fixed(50), |body| {
                body.block(10).done();
            });
        });
        let program = b.build("main").unwrap();
        let mut c = IntervalBbvCollector::for_trace(0, Boundaries::Fixed(500));
        run(&program, &Input::new("x", 1), &mut [&mut c]).unwrap();
        let ivs = c.into_intervals();
        assert_eq!(ivs.len(), 2);
        assert_eq!(ivs[0].bbv, vec![1.0, 0.0]);
        assert_eq!(ivs[1].bbv, vec![0.0, 1.0]);
    }

    #[test]
    fn empty_execution_produces_no_intervals() {
        let mut b = ProgramBuilder::new("t");
        b.proc("main", |_| {});
        let program = b.build("main").unwrap();
        let mut c = IntervalBbvCollector::new(&program, Boundaries::Fixed(100));
        run(&program, &Input::new("x", 1), &mut [&mut c]).unwrap();
        assert!(c.into_intervals().is_empty());
    }
}
