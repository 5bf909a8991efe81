//! The baseline machine model: an in-order core with a DL1 cache and a
//! 2-bit branch predictor.
//!
//! The paper (like its prior work) measures per-interval CPI and DL1 miss
//! rate on a detailed simulator; phase analysis only consumes those
//! per-interval *signals*, so a transparent analytic model suffices:
//!
//! ```text
//! cycles = sum(block.instrs * block.base_cpi)
//!        + dl1_misses_hitting_l2 * miss_penalty
//!        + l2_misses * l2_miss_penalty        (if an L2 is configured)
//!        + branch_mispredicts * mispredict_penalty
//! ```

use crate::events::{TraceEvent, TraceObserver};
use spm_cache::{Cache, CacheConfig};

/// Parameters of the baseline machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingConfig {
    /// DL1 geometry (default 64KB: 512 sets, 2 ways, 64B blocks).
    pub dl1: CacheConfig,
    /// Optional IL1 geometry; `None` folds instruction fetch into the
    /// base CPI (the default, matching the paper's data-side focus).
    pub il1: Option<CacheConfig>,
    /// Optional unified L2 behind the DL1; `None` charges every DL1
    /// miss the full memory penalty (the default).
    pub l2: Option<CacheConfig>,
    /// Cycles charged per DL1 miss.
    pub miss_penalty: f64,
    /// Cycles charged per IL1 miss.
    pub il1_miss_penalty: f64,
    /// Cycles charged per L2 miss (on top of the DL1 miss penalty).
    pub l2_miss_penalty: f64,
    /// Cycles charged per branch mispredict.
    pub mispredict_penalty: f64,
}

impl Default for TimingConfig {
    fn default() -> Self {
        Self {
            dl1: CacheConfig::new(512, 2, 64),
            il1: None,
            l2: None,
            miss_penalty: 20.0,
            il1_miss_penalty: 10.0,
            l2_miss_penalty: 150.0,
            mispredict_penalty: 8.0,
        }
    }
}

impl TimingConfig {
    /// Enables an instruction cache (default geometry 32KB: 256 sets,
    /// 2 ways, 64B lines), builder-style.
    #[must_use]
    pub fn with_il1(mut self) -> Self {
        self.il1 = Some(CacheConfig::new(256, 2, 64));
        self
    }

    /// Enables a unified L2 (default geometry 1MB: 2048 sets, 8 ways,
    /// 64B lines), builder-style: DL1 misses that hit in L2 pay
    /// `miss_penalty`, L2 misses additionally pay `l2_miss_penalty`.
    #[must_use]
    pub fn with_l2(mut self) -> Self {
        self.l2 = Some(CacheConfig::new(2048, 8, 64));
        self
    }
}

/// Bytes per instruction assumed when synthesizing fetch addresses, and
/// the stride separating blocks in the synthetic code layout.
const BYTES_PER_INSTR: u64 = 4;

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
    config: TimingConfig,
    dl1: Cache,
    il1: Option<Cache>,
    l2: Option<Cache>,
    /// Synthetic code layout: byte address of each block (grown on
    /// demand, blocks laid out contiguously in id order).
    block_pc: Vec<u64>,
    next_pc: u64,
    /// One 2-bit saturating counter per branch id (grown on demand).
    predictor: Vec<u8>,
    cycles: f64,
    instrs: u64,
    mispredicts: u64,
    branches: u64,
}

impl TimingModel {
    /// Creates a model with the given parameters.
    pub fn new(config: TimingConfig) -> Self {
        Self {
            config,
            dl1: Cache::new(config.dl1),
            il1: config.il1.map(Cache::new),
            l2: config.l2.map(Cache::new),
            block_pc: Vec::new(),
            next_pc: 0,
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

    /// L2 misses so far (0 when no L2 is configured).
    pub fn l2_misses(&self) -> u64 {
        self.l2.as_ref().map_or(0, Cache::misses)
    }

    /// L2 miss rate over L2 accesses, i.e. DL1 misses (0.0 when no L2
    /// is configured).
    pub fn l2_miss_rate(&self) -> f64 {
        self.l2.as_ref().map_or(0.0, Cache::miss_rate)
    }

    /// IL1 misses so far (0 when no instruction cache is configured).
    pub fn il1_misses(&self) -> u64 {
        self.il1.as_ref().map_or(0, Cache::misses)
    }

    /// IL1 miss rate (0.0 when no instruction cache is configured).
    pub fn il1_miss_rate(&self) -> f64 {
        self.il1.as_ref().map_or(0.0, Cache::miss_rate)
    }

    /// Assigns (once) and returns the synthetic byte address of a
    /// block; blocks are laid out contiguously in first-execution
    /// order, like code laid out by a compiler.
    fn block_addr(&mut self, block: usize, instrs: u32) -> u64 {
        if self.block_pc.len() <= block {
            self.block_pc.resize(block + 1, u64::MAX);
        }
        if self.block_pc[block] == u64::MAX {
            self.block_pc[block] = self.next_pc;
            self.next_pc += u64::from(instrs) * BYTES_PER_INSTR;
        }
        self.block_pc[block]
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
                block,
                instrs,
                base_cpi,
            } => {
                self.instrs += instrs as u64;
                self.cycles += instrs as f64 * base_cpi;
                if let Some(il1_config) = self.config.il1 {
                    let base = self.block_addr(block.index(), instrs);
                    let bytes = u64::from(instrs) * BYTES_PER_INSTR;
                    // A zero line size (corrupted config) must not hang
                    // the walk below.
                    let line = u64::from(il1_config.block_bytes).max(1);
                    if let Some(il1) = self.il1.as_mut() {
                        let mut addr = base;
                        while addr < base + bytes {
                            if !il1.access(addr, false) {
                                self.cycles += self.config.il1_miss_penalty;
                            }
                            addr += line;
                        }
                    }
                }
            }
            TraceEvent::MemAccess { addr, write } if !self.dl1.access(addr, write) => {
                self.cycles += self.config.miss_penalty;
                if let Some(l2) = self.l2.as_mut() {
                    if !l2.access(addr, write) {
                        self.cycles += self.config.l2_miss_penalty;
                    }
                }
            }
            TraceEvent::Branch { branch, taken } => {
                self.branches += 1;
                if !self.predict_and_update(branch.index(), taken) {
                    self.mispredicts += 1;
                    self.cycles += self.config.mispredict_penalty;
                }
            }
            _ => {}
        }
    }
}

impl Default for TimingModel {
    fn default() -> Self {
        Self::new(TimingConfig::default())
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
    fn il1_warm_code_stops_missing() {
        let mut t = TimingModel::new(TimingConfig::default().with_il1());
        // One 100-instruction block executed repeatedly: misses only on
        // the first pass (100 * 4 bytes = 7 lines).
        for _ in 0..50 {
            t.on_event(
                0,
                &TraceEvent::BlockExec {
                    block: spm_ir::BlockId(0),
                    instrs: 100,
                    base_cpi: 1.0,
                },
            );
        }
        assert_eq!(t.il1_misses(), 7, "only cold fetch misses");
        assert!(t.il1_miss_rate() < 0.03);
        // Cycles = instructions + 7 * il1 penalty.
        assert!((t.cycles() - (5000.0 + 70.0)).abs() < 1e-9);
    }

    #[test]
    fn il1_thrashes_on_giant_footprint() {
        // More distinct blocks than the 32KB IL1 holds, each executed
        // round-robin: every fetch misses after eviction.
        let mut t = TimingModel::new(TimingConfig::default().with_il1());
        let blocks = 1200u32; // 1200 blocks x 64 instrs x 4B = 300KB
        for _ in 0..3 {
            for b in 0..blocks {
                t.on_event(
                    0,
                    &TraceEvent::BlockExec {
                        block: spm_ir::BlockId(b),
                        instrs: 64,
                        base_cpi: 1.0,
                    },
                );
            }
        }
        assert!(t.il1_miss_rate() > 0.9, "rate {}", t.il1_miss_rate());
    }

    #[test]
    fn l2_absorbs_medium_working_sets() {
        // A 512KB working set thrashes the 64KB DL1 but fits the 1MB L2:
        // with the L2 on, misses cost far fewer cycles.
        let addrs: Vec<u64> = (0..8192u64).map(|i| i * 64).collect();
        let run_with = |config: TimingConfig| {
            let mut t = TimingModel::new(config);
            for _ in 0..4 {
                for &a in &addrs {
                    t.on_event(
                        0,
                        &TraceEvent::MemAccess {
                            addr: a,
                            write: false,
                        },
                    );
                }
            }
            t
        };
        let without = run_with(TimingConfig::default());
        let with = run_with(TimingConfig::default().with_l2());
        assert_eq!(without.dl1_misses(), with.dl1_misses());
        assert!(with.l2_misses() > 0, "cold L2 misses exist");
        assert!(
            with.l2_misses() < with.dl1_misses() / 2,
            "warm L2 absorbs repeats: {} vs {}",
            with.l2_misses(),
            with.dl1_misses()
        );
        // Cost ordering: without an L2 every DL1 miss is cheap-flat; with
        // an L2, only cold misses pay the big penalty.
        assert!(
            with.cycles() > without.cycles(),
            "L2 config charges memory misses more"
        );
    }

    #[test]
    fn l2_disabled_by_default() {
        let mut t = TimingModel::default();
        t.on_event(
            0,
            &TraceEvent::MemAccess {
                addr: 0,
                write: false,
            },
        );
        assert_eq!(t.l2_misses(), 0);
        assert_eq!(t.l2_miss_rate(), 0.0);
    }

    #[test]
    fn il1_disabled_by_default() {
        let mut t = TimingModel::default();
        t.on_event(
            0,
            &TraceEvent::BlockExec {
                block: spm_ir::BlockId(0),
                instrs: 100,
                base_cpi: 1.0,
            },
        );
        assert_eq!(t.il1_misses(), 0);
        assert_eq!(t.il1_miss_rate(), 0.0);
        assert!(
            (t.cycles() - 100.0).abs() < 1e-12,
            "no fetch penalty when off"
        );
    }

    #[test]
    fn cpi_zero_before_any_instruction() {
        let t = TimingModel::default();
        assert_eq!(t.cpi(), 0.0);
        assert_eq!(t.dl1_miss_rate(), 0.0);
    }
}
