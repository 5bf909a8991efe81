//! Shared simulation passes: profiling, metric timelines, and the
//! parallel cache-bank timeline used by the reconfiguration experiment.

use crate::GRANULE;
use spm_cache::{reconfigurable_configs, CacheBank};
use spm_core::{CallLoopGraph, CallLoopProfiler, SpmError};
use spm_ir::{Input, Program};
use spm_sim::{run, Reads, Timeline, TraceEvent, TraceObserver};

/// Profiles one execution into a call-loop graph.
///
/// # Errors
///
/// Propagates engine ([`SpmError::Run`]) and profiler
/// ([`SpmError::Profile`]) failures.
pub fn profile(program: &Program, input: &Input) -> Result<CallLoopGraph, SpmError> {
    let mut profiler = CallLoopProfiler::new();
    run(program, input, &mut [&mut profiler])?;
    Ok(profiler.into_graph()?)
}

/// Runs with a metrics timeline; returns the timeline and the total
/// instruction count.
///
/// # Errors
///
/// Propagates engine failures as [`SpmError::Run`].
pub fn timeline(program: &Program, input: &Input) -> Result<(Timeline, u64), SpmError> {
    let mut t = Timeline::new(GRANULE);
    let summary = run(program, input, &mut [&mut t])?;
    Ok((t, summary.instrs))
}

/// Per-granule miss/access counts for every reconfigurable cache
/// configuration, from a single pass: the offline equivalent of the
/// paper's Cheetah runs, queryable for any interval partitioning.
#[derive(Debug, Clone)]
pub struct BankTimeline {
    granule: u64,
    bank: CacheBank,
    /// Cumulative misses per config at each granule boundary.
    miss_snaps: Vec<Vec<u64>>,
    /// Cumulative accesses at each granule boundary.
    access_snaps: Vec<u64>,
    instrs: u64,
    next_boundary: u64,
    finished: bool,
}

impl BankTimeline {
    /// Creates a bank timeline over the paper's 8 configurations.
    pub fn new(granule: u64) -> Self {
        let bank = CacheBank::new(reconfigurable_configs());
        let n = bank.len();
        Self {
            granule: granule.max(1),
            bank,
            miss_snaps: vec![vec![0; n]],
            access_snaps: vec![0],
            instrs: 0,
            next_boundary: granule.max(1),
            finished: false,
        }
    }

    /// Number of configurations.
    pub fn configs(&self) -> Vec<spm_cache::CacheConfig> {
        self.bank.configs()
    }

    /// Total instructions observed.
    pub fn total_instrs(&self) -> u64 {
        self.instrs
    }

    fn snapshot(&mut self) {
        self.miss_snaps.push(self.bank.misses());
        self.access_snaps.push(self.bank.accesses());
    }

    fn index_of(&self, icount: u64) -> usize {
        (icount.div_ceil(self.granule) as usize).min(self.miss_snaps.len() - 1)
    }

    /// Misses per configuration in `[begin, end)`, snapped to granules.
    pub fn misses(&self, begin: u64, end: u64) -> Vec<u64> {
        let (b, e) = (self.index_of(begin), self.index_of(end));
        self.miss_snaps[e]
            .iter()
            .zip(&self.miss_snaps[b])
            .map(|(hi, lo)| hi - lo)
            .collect()
    }

    /// Accesses in `[begin, end)`, snapped to granules.
    pub fn accesses(&self, begin: u64, end: u64) -> u64 {
        let (b, e) = (self.index_of(begin), self.index_of(end));
        self.access_snaps[e] - self.access_snaps[b]
    }

    fn step(&mut self, event: &TraceEvent) {
        match *event {
            TraceEvent::BlockExec { instrs, .. } => {
                if self.instrs >= self.next_boundary {
                    self.snapshot();
                    self.next_boundary = (self.instrs / self.granule + 1) * self.granule;
                }
                self.instrs += u64::from(instrs);
            }
            TraceEvent::MemAccess { addr, write } => {
                self.bank.access(addr, write);
            }
            TraceEvent::Finish if !self.finished => {
                self.finished = true;
                self.snapshot();
            }
            _ => {}
        }
    }
}

impl TraceObserver for BankTimeline {
    fn on_batch(&mut self, batch: &[(u64, TraceEvent)]) {
        for (_, event) in batch {
            self.step(event);
        }
    }

    fn reads(&self) -> Reads {
        Reads::BLOCKS | Reads::MEM
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spm_core::MarkerRuntime;
    use spm_ir::{ProgramBuilder, Trip};

    fn toy() -> (Program, Input) {
        let mut b = ProgramBuilder::new("t");
        let r = b.region_bytes("d", 1 << 16);
        b.proc("main", |p| {
            p.loop_(Trip::Fixed(100), |outer| {
                outer.call("work");
            });
        });
        b.proc("work", |p| {
            p.loop_(Trip::Fixed(20), |body| {
                body.block(50).rand_read(r, 2).done();
            });
        });
        (b.build("main").unwrap(), Input::new("x", 1))
    }

    #[test]
    fn profile_and_detect_roundtrip() {
        let (program, input) = toy();
        let graph = profile(&program, &input).unwrap();
        assert!(!graph.edges().is_empty());
        let outcome = spm_core::select_markers(&graph, &spm_core::SelectConfig::new(500));
        let mut runtime = MarkerRuntime::new(&outcome.markers);
        let total = run(&program, &input, &mut [&mut runtime]).unwrap().instrs;
        assert_eq!(total, 100_000);
        assert!(!runtime.into_firings().is_empty());
    }

    #[test]
    fn bank_timeline_intervals_sum() {
        let (program, input) = toy();
        let mut bank = BankTimeline::new(500);
        run(&program, &input, &mut [&mut bank]).unwrap();
        let whole = bank.misses(0, 100_000);
        let a = bank.misses(0, 50_000);
        let b = bank.misses(50_000, 100_000);
        for i in 0..whole.len() {
            assert_eq!(whole[i], a[i] + b[i], "config {i}");
        }
        assert_eq!(bank.accesses(0, 100_000), 100 * 20 * 2);
        // Monotone in config size.
        assert!(whole.windows(2).all(|w| w[0] >= w[1]));
    }

    /// Reads the full stream and drops it.
    struct Rider;

    impl TraceObserver for Rider {
        fn on_batch(&mut self, _: &[(u64, TraceEvent)]) {}
    }

    #[test]
    fn bank_timeline_matches_a_full_stream_rider_on_every_ref_run() {
        // Alone, the timeline is handed blocks and accesses only.
        for w in spm_workloads::suite() {
            let mut alone = BankTimeline::new(GRANULE);
            run(&w.program, &w.ref_input, &mut [&mut alone]).unwrap();
            let mut ridden = BankTimeline::new(GRANULE);
            run(&w.program, &w.ref_input, &mut [&mut ridden, &mut Rider]).unwrap();
            assert!(alone.access_snaps.len() > 1, "{}", w.name);
            assert_eq!(alone.miss_snaps, ridden.miss_snaps, "{}", w.name);
            assert_eq!(alone.access_snaps, ridden.access_snaps, "{}", w.name);
            assert_eq!(alone.instrs, ridden.instrs, "{}", w.name);
        }
    }

    #[test]
    fn bank_timeline_boundaries_snap() {
        let (program, input) = toy();
        let mut bank = BankTimeline::new(500);
        run(&program, &input, &mut [&mut bank]).unwrap();
        // Unaligned query snaps to the containing granules and still
        // partitions exactly.
        let a = bank.accesses(0, 33_333);
        let b = bank.accesses(33_333, 100_000);
        assert_eq!(a + b, 4000);
    }
}
