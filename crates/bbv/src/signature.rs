//! Code signature vectors (the paper's Section 2.3, after Lau et al.,
//! "Structures for phase classification").
//!
//! An alternative interval fingerprint to the BBV: instead of basic
//! blocks, each dimension counts a *control structure* — procedure
//! calls, returns, and loop back-edges. The cited study found that
//! tracking procedures alone produces more intra-phase variation than
//! tracking procedures **and loops**, which is precisely why the
//! call-loop graph includes loop nodes; this module lets that
//! comparison be reproduced.

use spm_ir::Program;
use spm_sim::{Reads, TraceEvent, TraceObserver};

/// Which control structures contribute dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SignatureKind {
    /// Procedure calls and returns only (the Huang et al. style).
    ProceduresOnly,
    /// Calls, returns, and loop back-edges (the recommended structure).
    ProceduresAndLoops,
}

/// One interval's code signature.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalSignature {
    /// First instruction of the interval.
    pub begin: u64,
    /// One past the last instruction.
    pub end: u64,
    /// Normalized signature vector (sums to 1 unless empty).
    pub vector: Vec<f64>,
}

/// Trace observer collecting one code-signature vector per fixed-length
/// interval.
///
/// Vector layout: `[calls(proc 0..P), returns(proc 0..P),
/// loop-iterations(loop 0..L)]`, with the loop block absent under
/// [`SignatureKind::ProceduresOnly`]. Vectors are L1-normalized like
/// BBVs.
///
/// # Examples
///
/// ```
/// use spm_bbv::{CodeSignatureCollector, SignatureKind};
/// use spm_ir::{Input, ProgramBuilder, Trip};
/// use spm_sim::run;
///
/// let mut b = ProgramBuilder::new("t");
/// b.proc("main", |p| {
///     p.loop_(Trip::Fixed(100), |body| {
///         body.call("work");
///     });
/// });
/// b.proc("work", |p| {
///     p.block(50).done();
/// });
/// let program = b.build("main").unwrap();
/// let mut c = CodeSignatureCollector::new(&program, 2_500, SignatureKind::ProceduresAndLoops);
/// run(&program, &Input::new("x", 1), &mut [&mut c]).unwrap();
/// let sigs = c.into_intervals();
/// assert_eq!(sigs.len(), 2); // 5000 instructions / 2500
/// ```
#[derive(Debug, Clone)]
pub struct CodeSignatureCollector {
    kind: SignatureKind,
    procs: usize,
    loops: usize,
    interval: u64,
    counts: Vec<u64>,
    begin: u64,
    last_icount: u64,
    intervals: Vec<IntervalSignature>,
    finished: bool,
}

impl CodeSignatureCollector {
    /// Creates a collector cutting fixed-length intervals of
    /// (at least) `interval` instructions.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn new(program: &Program, interval: u64, kind: SignatureKind) -> Self {
        assert!(interval > 0, "interval must be positive");
        let procs = program.procs().len();
        let loops = match kind {
            SignatureKind::ProceduresOnly => 0,
            SignatureKind::ProceduresAndLoops => program.loop_count(),
        };
        Self {
            kind,
            procs,
            loops,
            interval,
            counts: vec![0; 2 * procs + loops],
            begin: 0,
            last_icount: 0,
            intervals: Vec::new(),
            finished: false,
        }
    }

    /// Dimensionality of the signatures.
    pub fn dims(&self) -> usize {
        debug_assert_eq!(self.counts.len(), 2 * self.procs + self.loops);
        self.counts.len()
    }

    /// The collected intervals.
    pub fn into_intervals(self) -> Vec<IntervalSignature> {
        self.intervals
    }

    fn cut(&mut self, at: u64) {
        if at <= self.begin {
            return;
        }
        let total: u64 = self.counts.iter().sum();
        let vector = self
            .counts
            .iter()
            .map(|&c| {
                if total == 0 {
                    0.0
                } else {
                    c as f64 / total as f64
                }
            })
            .collect();
        self.intervals.push(IntervalSignature {
            begin: self.begin,
            end: at,
            vector,
        });
        self.counts.fill(0);
        self.begin = at;
    }

    fn bump(&mut self, index: usize) {
        self.counts[index] += 1;
    }

    fn step(&mut self, icount: u64, event: &TraceEvent) {
        match *event {
            TraceEvent::BlockExec { instrs, .. } => {
                let block_start = icount - u64::from(instrs);
                if block_start >= self.begin + self.interval {
                    self.cut(block_start);
                }
                self.last_icount = icount;
            }
            TraceEvent::Call { proc } => self.bump(proc.index()),
            TraceEvent::Return { proc } => self.bump(self.procs + proc.index()),
            TraceEvent::LoopIter { loop_id } if self.kind == SignatureKind::ProceduresAndLoops => {
                self.bump(2 * self.procs + loop_id.index());
            }
            TraceEvent::Finish if !self.finished => {
                self.finished = true;
                self.cut(icount.max(self.last_icount));
            }
            _ => {}
        }
    }
}

impl TraceObserver for CodeSignatureCollector {
    fn on_batch(&mut self, batch: &[(u64, TraceEvent)]) {
        for (icount, event) in batch {
            self.step(*icount, event);
        }
    }

    /// Signatures count calls, returns and iterations; blocks place the
    /// interval cuts.
    fn reads(&self) -> Reads {
        Reads::BLOCKS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spm_ir::{Input, ProgramBuilder, Trip};
    use spm_sim::run;

    /// Two phases that execute the *same* procedure but different inner
    /// loops: procedure-only signatures cannot tell them apart, loop
    /// signatures can — the motivating observation for the call-loop
    /// graph.
    fn loop_phased_program() -> Program {
        let mut b = ProgramBuilder::new("t");
        b.proc("main", |p| {
            p.loop_(Trip::Fixed(10), |outer| {
                outer.call("work");
            });
        });
        b.proc("work", |p| {
            // Phase A: many short iterations of loop 1.
            p.loop_(Trip::Fixed(500), |body| {
                body.block(10).done();
            });
            // Phase B: few long iterations of loop 2.
            p.loop_(Trip::Fixed(50), |body| {
                body.block(100).done();
            });
        });
        b.build("main").unwrap()
    }

    fn collect(kind: SignatureKind) -> Vec<IntervalSignature> {
        let program = loop_phased_program();
        let mut c = CodeSignatureCollector::new(&program, 5_000, kind);
        run(&program, &Input::new("x", 1), &mut [&mut c]).unwrap();
        c.into_intervals()
    }

    fn spread(sigs: &[IntervalSignature]) -> f64 {
        // Mean pairwise Manhattan distance between consecutive vectors.
        sigs.windows(2)
            .map(|w| crate::manhattan(&w[0].vector, &w[1].vector))
            .sum::<f64>()
            / (sigs.len() - 1) as f64
    }

    #[test]
    fn loops_add_discriminating_dimensions() {
        let procs_only = collect(SignatureKind::ProceduresOnly);
        let with_loops = collect(SignatureKind::ProceduresAndLoops);
        assert_eq!(procs_only.len(), with_loops.len());
        // The phases alternate within `work`, so consecutive intervals
        // differ strongly under loop signatures but look identical under
        // procedure-only signatures.
        assert!(
            spread(&with_loops) > spread(&procs_only) + 0.1,
            "loops {} vs procs {}",
            spread(&with_loops),
            spread(&procs_only)
        );
    }

    #[test]
    fn signatures_are_normalized_and_tile() {
        let sigs = collect(SignatureKind::ProceduresAndLoops);
        assert!(sigs.len() > 5);
        for w in sigs.windows(2) {
            assert_eq!(w[0].end, w[1].begin);
        }
        for sig in &sigs {
            let sum: f64 = sig.vector.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9 || sum == 0.0);
        }
    }

    #[test]
    fn dimensionality_matches_kind() {
        let program = loop_phased_program();
        let procs = CodeSignatureCollector::new(&program, 1000, SignatureKind::ProceduresOnly);
        let both = CodeSignatureCollector::new(&program, 1000, SignatureKind::ProceduresAndLoops);
        assert_eq!(procs.dims(), 4); // 2 procs x (call, return)
        assert_eq!(both.dims(), 4 + 3); // + 3 loops
    }

    #[test]
    #[should_panic(expected = "interval must be positive")]
    fn zero_interval_panics() {
        let program = loop_phased_program();
        let _ = CodeSignatureCollector::new(&program, 0, SignatureKind::ProceduresOnly);
    }
}
