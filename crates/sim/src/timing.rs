//! The baseline machine model: an in-order core with a DL1 cache and a
//! 2-bit branch predictor.
//!
//! The paper (like its prior work) measures per-interval CPI and DL1 miss
//! rate on a detailed simulator; phase analysis only consumes those
//! per-interval *signals*, so a transparent analytic model suffices:
//!
//! ```text
//! cycles = sum(block.instrs * block.base_cpi)
//!        + dl1_misses * MISS_PENALTY
//!        + branch_mispredicts * MISPREDICT_PENALTY
//! ```

use crate::events::{TraceEvent, TraceObserver};
use spm_cache::{Cache, CacheConfig};

/// The baseline DL1: 64KB, 512 sets, 2 ways, 64B blocks.
const DL1: CacheConfig = CacheConfig::new(512, 2, 64);

/// Cycles charged per DL1 miss.
const MISS_PENALTY: f64 = 20.0;

/// Cycles charged per branch mispredict.
const MISPREDICT_PENALTY: f64 = 8.0;

/// Observer that accumulates cycles, DL1 misses, and branch mispredicts
/// over the trace.
///
/// # Examples
///
/// ```
/// use spm_ir::{Input, ProgramBuilder, Trip};
/// use spm_sim::{run, TimingModel};
///
/// let mut b = ProgramBuilder::new("t");
/// let r = b.region_bytes("d", 1 << 20);
/// b.proc("main", |p| {
///     p.loop_(Trip::Fixed(500), |body| {
///         body.block(100).rand_read(r, 4).done();
///     });
/// });
/// let program = b.build("main").unwrap();
/// let mut timing = TimingModel::default();
/// run(&program, &Input::new("x", 1), &mut [&mut timing]).unwrap();
/// assert!(timing.cpi() > 1.0, "random misses must raise CPI above base");
/// ```
#[derive(Debug, Clone)]
pub struct TimingModel {
    dl1: Cache,
    /// One 2-bit saturating counter per branch id (grown on demand).
    predictor: Vec<u8>,
    cycles: f64,
    instrs: u64,
    mispredicts: u64,
    branches: u64,
}

impl TimingModel {
    /// Creates the baseline machine, cold.
    pub fn new() -> Self {
        Self {
            dl1: Cache::new(DL1),
            predictor: Vec::new(),
            cycles: 0.0,
            instrs: 0,
            mispredicts: 0,
            branches: 0,
        }
    }

    /// Total cycles so far.
    pub fn cycles(&self) -> f64 {
        self.cycles
    }

    /// Total instructions so far.
    pub fn instrs(&self) -> u64 {
        self.instrs
    }

    /// Cycles per instruction so far (`0.0` before any instruction).
    pub fn cpi(&self) -> f64 {
        if self.instrs == 0 {
            0.0
        } else {
            self.cycles / self.instrs as f64
        }
    }

    /// DL1 accesses so far.
    pub fn dl1_accesses(&self) -> u64 {
        self.dl1.accesses()
    }

    /// DL1 misses so far.
    pub fn dl1_misses(&self) -> u64 {
        self.dl1.misses()
    }

    /// DL1 miss rate so far.
    pub fn dl1_miss_rate(&self) -> f64 {
        self.dl1.miss_rate()
    }

    /// Branch mispredicts so far.
    pub fn mispredicts(&self) -> u64 {
        self.mispredicts
    }

    /// Branches observed so far.
    pub fn branches(&self) -> u64 {
        self.branches
    }

    /// 2-bit saturating counter prediction + update; returns whether the
    /// prediction was correct.
    fn predict_and_update(&mut self, branch: usize, taken: bool) -> bool {
        if self.predictor.len() <= branch {
            // Counters start weakly not-taken (1).
            self.predictor.resize(branch + 1, 1);
        }
        let counter = &mut self.predictor[branch];
        let predicted_taken = *counter >= 2;
        if taken {
            *counter = (*counter + 1).min(3);
        } else {
            *counter = counter.saturating_sub(1);
        }
        predicted_taken == taken
    }

    /// Charges one event's cycles.
    pub(crate) fn step(&mut self, event: &TraceEvent) {
        match *event {
            TraceEvent::BlockExec {
                instrs, base_cpi, ..
            } => {
                self.instrs += instrs as u64;
                self.cycles += instrs as f64 * base_cpi;
            }
            TraceEvent::MemAccess { addr, write } if !self.dl1.access(addr, write) => {
                self.cycles += MISS_PENALTY;
            }
            TraceEvent::Branch { branch, taken } => {
                self.branches += 1;
                if !self.predict_and_update(branch.index(), taken) {
                    self.mispredicts += 1;
                    self.cycles += MISPREDICT_PENALTY;
                }
            }
            _ => {}
        }
    }
}

impl Default for TimingModel {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceObserver for TimingModel {
    fn on_batch(&mut self, batch: &[(u64, TraceEvent)]) {
        for (_, event) in batch {
            self.step(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spm_ir::BranchId;

    #[test]
    fn pure_compute_cpi_equals_base_cpi() {
        let mut t = TimingModel::default();
        for _ in 0..10 {
            t.on_event(
                0,
                &TraceEvent::BlockExec {
                    block: spm_ir::BlockId(0),
                    instrs: 100,
                    base_cpi: 1.5,
                },
            );
        }
        assert_eq!(t.instrs(), 1000);
        assert!((t.cpi() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn misses_add_penalty() {
        let mut t = TimingModel::default();
        t.on_event(
            0,
            &TraceEvent::BlockExec {
                block: spm_ir::BlockId(0),
                instrs: 100,
                base_cpi: 1.0,
            },
        );
        // Two accesses to distinct far-apart lines: both miss.
        t.on_event(
            0,
            &TraceEvent::MemAccess {
                addr: 0,
                write: false,
            },
        );
        t.on_event(
            0,
            &TraceEvent::MemAccess {
                addr: 1 << 24,
                write: false,
            },
        );
        assert_eq!(t.dl1_misses(), 2);
        assert!((t.cycles() - (100.0 + 40.0)).abs() < 1e-12);
    }

    #[test]
    fn predictor_learns_biased_branch() {
        let mut t = TimingModel::default();
        let br = BranchId(0);
        for _ in 0..100 {
            t.on_event(
                0,
                &TraceEvent::Branch {
                    branch: br,
                    taken: true,
                },
            );
        }
        // First one or two may mispredict while the counter saturates.
        assert!(t.mispredicts() <= 2, "mispredicts = {}", t.mispredicts());
        assert_eq!(t.branches(), 100);
    }

    #[test]
    fn predictor_struggles_on_alternating_branch() {
        let mut t = TimingModel::default();
        let br = BranchId(3);
        for i in 0..100 {
            t.on_event(
                0,
                &TraceEvent::Branch {
                    branch: br,
                    taken: i % 2 == 0,
                },
            );
        }
        assert!(t.mispredicts() >= 40, "alternating should mispredict often");
    }

    #[test]
    fn cpi_zero_before_any_instruction() {
        let t = TimingModel::default();
        assert_eq!(t.cpi(), 0.0);
        assert_eq!(t.dl1_miss_rate(), 0.0);
    }
}
