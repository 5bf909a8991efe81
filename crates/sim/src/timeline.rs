//! Granule-resolution metrics timeline: per-interval CPI and miss rates
//! for *any* interval partitioning after a single execution.
//!
//! The paper computes per-interval CPI both for fixed-length intervals
//! (10M instructions) and for the marker-defined variable-length
//! intervals. Instead of re-simulating per partitioning, [`Timeline`]
//! snapshots the cumulative machine state (cycles, DL1 misses, accesses)
//! every `granule` instructions; any `[begin, end)` instruction range is
//! then answered by interpolating between snapshots. With a granule well
//! below the minimum interval size (the experiments use 1/10th or less),
//! the interpolation error is negligible.

use crate::events::{TraceEvent, TraceObserver};
use crate::timing::{TimingConfig, TimingModel};
use std::ops::Range;

/// Cumulative machine state at one snapshot boundary.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TimelineSample {
    /// Instructions executed.
    pub instrs: u64,
    /// Cycles elapsed.
    pub cycles: f64,
    /// DL1 misses.
    pub misses: u64,
    /// DL1 accesses.
    pub accesses: u64,
    /// Conditional branches resolved.
    pub branches: u64,
    /// Branch mispredicts.
    pub mispredicts: u64,
}

/// Interpolated cumulative values at an arbitrary instruction count.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct Cum {
    cycles: f64,
    misses: f64,
    accesses: f64,
    branches: f64,
    mispredicts: f64,
}

/// Observer recording a [`TimingModel`]'s cumulative state every
/// `granule` instructions.
///
/// See the crate-level example for usage.
#[derive(Debug, Clone)]
pub struct Timeline {
    granule: u64,
    timing: TimingModel,
    samples: Vec<TimelineSample>,
    next_boundary: u64,
    finished: bool,
}

impl Timeline {
    /// Creates a timeline over a [`TimingModel`] with the given
    /// configuration.
    ///
    /// # Panics
    ///
    /// Panics if `granule` is zero.
    pub fn new(granule: u64, config: TimingConfig) -> Self {
        assert!(granule > 0, "granule must be positive");
        Self {
            granule,
            timing: TimingModel::new(config),
            samples: vec![TimelineSample::default()],
            next_boundary: granule,
            finished: false,
        }
    }

    /// Creates a timeline with the default machine configuration.
    pub fn with_defaults(granule: u64) -> Self {
        Self::new(granule, TimingConfig::default())
    }

    /// The snapshot granule in instructions.
    pub fn granule(&self) -> u64 {
        self.granule
    }

    /// Total instructions observed.
    pub fn total_instrs(&self) -> u64 {
        self.timing.instrs()
    }

    /// The underlying cumulative snapshots (first entry is all-zero).
    pub fn samples(&self) -> &[TimelineSample] {
        &self.samples
    }

    /// Whole-run CPI.
    pub fn overall_cpi(&self) -> f64 {
        self.timing.cpi()
    }

    /// Cumulative state at instruction `x`, interpolated linearly between
    /// the surrounding snapshots and clamped to the observed range.
    fn cumulative(&self, x: u64) -> Cum {
        let x = x.min(self.timing.instrs());
        // First snapshot with instrs > x; samples are non-decreasing in
        // instrs and start at 0, so idx >= 1 when any instrs exist.
        let idx = self.samples.partition_point(|s| s.instrs <= x);
        let lo = self.samples[idx.saturating_sub(1)];
        let hi = match self.samples.get(idx) {
            Some(&hi) => hi,
            None => {
                // Beyond the last snapshot: interpolate toward live totals.
                TimelineSample {
                    instrs: self.timing.instrs(),
                    cycles: self.timing.cycles(),
                    misses: self.timing.dl1_misses(),
                    accesses: self.timing.dl1_accesses(),
                    branches: self.timing.branches(),
                    mispredicts: self.timing.mispredicts(),
                }
            }
        };
        let span = hi.instrs.saturating_sub(lo.instrs);
        let frac = if span == 0 {
            0.0
        } else {
            (x - lo.instrs) as f64 / span as f64
        };
        let lerp = |a: f64, b: f64| a + frac * (b - a);
        Cum {
            cycles: lerp(lo.cycles, hi.cycles),
            misses: lerp(lo.misses as f64, hi.misses as f64),
            accesses: lerp(lo.accesses as f64, hi.accesses as f64),
            branches: lerp(lo.branches as f64, hi.branches as f64),
            mispredicts: lerp(lo.mispredicts as f64, hi.mispredicts as f64),
        }
    }

    /// CPI over the instruction range (`0.0` for an empty range).
    pub fn cpi(&self, range: Range<u64>) -> f64 {
        if range.end <= range.start {
            return 0.0;
        }
        let (c0, c1) = (self.cumulative(range.start), self.cumulative(range.end));
        (c1.cycles - c0.cycles) / (range.end - range.start) as f64
    }

    /// DL1 miss rate over the instruction range (`0.0` when the range
    /// contains no accesses).
    pub fn miss_rate(&self, range: Range<u64>) -> f64 {
        if range.end <= range.start {
            return 0.0;
        }
        let (c0, c1) = (self.cumulative(range.start), self.cumulative(range.end));
        let accesses = c1.accesses - c0.accesses;
        if accesses <= 0.0 {
            0.0
        } else {
            (c1.misses - c0.misses) / accesses
        }
    }

    /// DL1 misses over the instruction range.
    pub fn misses(&self, range: Range<u64>) -> f64 {
        let (c0, c1) = (
            self.cumulative(range.start),
            self.cumulative(range.end.max(range.start)),
        );
        c1.misses - c0.misses
    }

    /// DL1 accesses over the instruction range.
    pub fn accesses(&self, range: Range<u64>) -> f64 {
        let (c0, c1) = (
            self.cumulative(range.start),
            self.cumulative(range.end.max(range.start)),
        );
        c1.accesses - c0.accesses
    }

    /// Branch misprediction rate over the instruction range (`0.0` when
    /// the range contains no branches) — the paper's third behaviour
    /// metric alongside CPI and cache miss rate.
    pub fn mispredict_rate(&self, range: Range<u64>) -> f64 {
        if range.end <= range.start {
            return 0.0;
        }
        let (c0, c1) = (self.cumulative(range.start), self.cumulative(range.end));
        let branches = c1.branches - c0.branches;
        if branches <= 0.0 {
            0.0
        } else {
            (c1.mispredicts - c0.mispredicts) / branches
        }
    }

    fn snapshot(&mut self) {
        self.samples.push(TimelineSample {
            instrs: self.timing.instrs(),
            cycles: self.timing.cycles(),
            misses: self.timing.dl1_misses(),
            accesses: self.timing.dl1_accesses(),
            branches: self.timing.branches(),
            mispredicts: self.timing.mispredicts(),
        });
    }

    fn step(&mut self, event: &TraceEvent) {
        // Snapshot lazily, *before* the next block starts, so that all
        // memory/branch events belonging to the block that crossed the
        // boundary are attributed to the snapshot.
        if matches!(event, TraceEvent::BlockExec { .. })
            && self.timing.instrs() >= self.next_boundary
        {
            self.snapshot();
            self.next_boundary = (self.timing.instrs() / self.granule + 1) * self.granule;
        }
        self.timing.step(event);
        if matches!(event, TraceEvent::Finish) && !self.finished {
            self.finished = true;
            self.snapshot();
        }
    }
}

impl TraceObserver for Timeline {
    fn on_batch(&mut self, batch: &[(u64, TraceEvent)]) {
        for (_, event) in batch {
            self.step(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spm_ir::{Input, ProgramBuilder, Trip};

    fn run_two_phase() -> (Timeline, u64) {
        // Phase A: compute-bound (base CPI 0.8, tiny working set).
        // Phase B: memory-bound (random reads over 1MB).
        let mut b = ProgramBuilder::new("t");
        let small = b.region_bytes("small", 1 << 10);
        let big = b.region_bytes("big", 1 << 20);
        b.proc("main", |p| {
            p.loop_(Trip::Fixed(500), |body| {
                body.block(100).base_cpi(0.8).seq_read(small, 2).done();
            });
            p.loop_(Trip::Fixed(500), |body| {
                body.block(100).base_cpi(1.0).rand_read(big, 8).done();
            });
        });
        let program = b.build("main").unwrap();
        let mut timeline = Timeline::with_defaults(500);
        let summary = crate::run(&program, &Input::new("x", 11), &mut [&mut timeline]).unwrap();
        (timeline, summary.instrs)
    }

    #[test]
    fn phases_have_distinct_cpi_and_miss_rate() {
        let (timeline, total) = run_two_phase();
        assert_eq!(total, 100_000);
        let a_cpi = timeline.cpi(0..50_000);
        let b_cpi = timeline.cpi(50_000..100_000);
        assert!(
            a_cpi < b_cpi,
            "memory phase must be slower: {a_cpi} vs {b_cpi}"
        );
        let a_miss = timeline.miss_rate(0..50_000);
        let b_miss = timeline.miss_rate(50_000..100_000);
        assert!(b_miss > a_miss + 0.1, "miss rates: {a_miss} vs {b_miss}");
    }

    #[test]
    fn ranges_partition_exactly() {
        let (timeline, total) = run_two_phase();
        // Sum of misses over a partition equals total misses.
        let m1 = timeline.misses(0..30_000);
        let m2 = timeline.misses(30_000..81_000);
        let m3 = timeline.misses(81_000..total);
        let whole = timeline.misses(0..total);
        assert!((m1 + m2 + m3 - whole).abs() < 1e-6);
        // Weighted CPI over halves equals overall CPI.
        let c = timeline.cpi(0..total);
        let ch = (timeline.cpi(0..50_000) + timeline.cpi(50_000..total)) / 2.0;
        assert!((c - ch).abs() < 1e-9);
        assert!((c - timeline.overall_cpi()).abs() < 1e-9);
    }

    #[test]
    fn empty_and_reversed_ranges_are_zero() {
        let (timeline, _) = run_two_phase();
        assert_eq!(timeline.cpi(10..10), 0.0);
        #[allow(clippy::reversed_empty_ranges)]
        {
            assert_eq!(timeline.cpi(20..10), 0.0);
            assert_eq!(timeline.miss_rate(20..10), 0.0);
        }
    }

    #[test]
    fn queries_beyond_end_clamp() {
        let (timeline, total) = run_two_phase();
        let whole = timeline.misses(0..total);
        let clamped = timeline.misses(0..total * 2);
        assert!((whole - clamped).abs() < 1e-6);
    }

    #[test]
    fn mispredict_rate_tracks_branches() {
        // A biased branch inside the loop: mostly predicted after
        // warmup, so the late-execution mispredict rate is below the
        // early one.
        let mut b = ProgramBuilder::new("t");
        b.proc("main", |p| {
            p.loop_(Trip::Fixed(1000), |body| {
                body.if_prob(0.95, |t| t.block(50).done(), |e| e.block(50).done());
            });
        });
        let program = b.build("main").unwrap();
        let mut timeline = Timeline::with_defaults(500);
        let total = crate::run(&program, &Input::new("x", 3), &mut [&mut timeline])
            .unwrap()
            .instrs;
        let whole = timeline.mispredict_rate(0..total);
        assert!(whole > 0.0 && whole < 0.3, "rate {whole}");
        let late = timeline.mispredict_rate(total / 2..total);
        assert!(late <= whole * 1.5 + 0.01);
        assert_eq!(timeline.mispredict_rate(5..5), 0.0);
    }

    #[test]
    #[should_panic(expected = "granule must be positive")]
    fn zero_granule_panics() {
        let _ = Timeline::with_defaults(0);
    }
}
