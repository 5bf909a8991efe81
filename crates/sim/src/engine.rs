//! The interpreter: walks a program's statement tree and emits the trace
//! event stream.

use crate::events::{Reads, TraceEvent, TraceObserver};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use spm_ir::{AccessPattern, Block, Cond, Input, MemRef, Program, Stmt, Trip};
use std::fmt;

/// Maximum procedure-call nesting depth. Calls beyond this depth are
/// skipped (and counted in [`RunSummary::truncated_calls`]) so that
/// randomized recursive workloads cannot blow the host stack.
pub const MAX_CALL_DEPTH: usize = 200;

/// Region base addresses are spaced this far apart; a region larger than
/// this is rejected.
const REGION_SPACING: u64 = 1 << 28;

/// Events buffered between hand-offs to the observers. At 32 bytes an
/// event the arena is 32 KiB — small next to any analysis' own state,
/// yet long enough that delivery costs one virtual call per observer
/// per thousand events.
const ARENA_EVENTS: usize = 1024;

/// Aggregate counts for one execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunSummary {
    /// Total instructions executed (sum of block sizes).
    pub instrs: u64,
    /// Basic blocks executed.
    pub blocks: u64,
    /// Data accesses issued.
    pub mem_accesses: u64,
    /// Procedure calls executed.
    pub calls: u64,
    /// Loop iterations executed.
    pub loop_iters: u64,
    /// Calls skipped because [`MAX_CALL_DEPTH`] was reached.
    pub truncated_calls: u64,
}

/// Errors detected before or during execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// A region resolved to a size larger than the address spacing.
    RegionTooLarge {
        /// Region name.
        name: String,
        /// Resolved size in bytes.
        bytes: u64,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::RegionTooLarge { name, bytes } => {
                write!(f, "region `{name}` resolves to {bytes} bytes, larger than the supported {REGION_SPACING}")
            }
        }
    }
}

impl std::error::Error for RunError {}

/// Executes `program` under `input`, streaming every [`TraceEvent`] to
/// all `observers` in order, and returns aggregate counts.
///
/// Events collect in one reusable arena of private, fixed capacity; each
/// time it fills, and once after [`TraceEvent::Finish`], the arena is
/// handed to every observer's [`on_batch`](TraceObserver::on_batch) —
/// the same delivery `spm-store` replay and the serve analyzer use.
///
/// Only the data event kinds some observer [reads](TraceObserver::reads)
/// are built: every observer gets the full stream filtered to the union
/// of their sets (call-loop events and `Finish` always), with the same
/// icounts, and before each batch learns through
/// [`withheld`](TraceObserver::withheld) how many events it was not
/// handed. Every block, access and branch still executes, so random
/// draws, the returned [`RunSummary`] and the `sim/run` span's `events`
/// count are those of the full run; the span's `delivered` field counts
/// the events the observers were handed. When no observer reads
/// `MemAccess`, sequential and pointer-chase addresses are not computed
/// (their cursors are seen only through addresses, so they stay put);
/// random and hotspot addresses are drawn and dropped, to keep the RNG
/// in step.
///
/// Execution is fully deterministic: the same program and input (same
/// seed) produce the identical event stream on every run — the property
/// the two-pass analyses (profile, then re-run with markers) rely on.
///
/// # Errors
///
/// Returns [`RunError::RegionTooLarge`] if a data region resolves to more
/// than 256MB under this input.
///
/// # Examples
///
/// ```
/// use spm_ir::{Input, ProgramBuilder, Trip};
/// use spm_sim::{run, TraceEvent};
///
/// let mut b = ProgramBuilder::new("t");
/// b.proc("main", |p| {
///     p.loop_(Trip::Fixed(3), |body| {
///         body.block(10).done();
///     });
/// });
/// let program = b.build("main").unwrap();
/// let mut iters = 0u32;
/// let mut count_iters = |_: u64, ev: &TraceEvent| {
///     if matches!(ev, TraceEvent::LoopIter { .. }) {
///         iters += 1;
///     }
/// };
/// let summary = run(&program, &Input::new("x", 1), &mut [&mut count_iters]).unwrap();
/// assert_eq!(summary.instrs, 30);
/// drop(count_iters);
/// assert_eq!(iters, 3);
/// ```
pub fn run(
    program: &Program,
    input: &Input,
    observers: &mut [&mut dyn TraceObserver],
) -> Result<RunSummary, RunError> {
    let mut span = spm_obs::span("sim/run");
    let mut engine = Engine::new(program, input, observers)?;
    engine.exec_stmts(&program.proc(program.entry()).body, 0);
    engine.emit(TraceEvent::Finish);
    engine.flush();
    if span.is_live() {
        span.field("program", program.name());
        span.field("instrs", engine.summary.instrs);
        let events = engine.delivered + engine.withheld_total;
        span.field("events", events);
        span.field("delivered", engine.delivered);
        let secs = span.elapsed().as_secs_f64();
        if secs > 0.0 {
            spm_obs::gauge("sim/events_per_sec", events as f64 / secs);
        }
    }
    Ok(engine.summary)
}

struct Engine<'p, 'o, 'a> {
    program: &'p Program,
    input: &'p Input,
    observers: &'o mut [&'a mut dyn TraceObserver],
    /// The data event kinds some observer reads; the others are
    /// counted but never built.
    reads: Reads,
    /// Events not yet delivered, in order (at most [`ARENA_EVENTS`]).
    arena: Vec<(u64, TraceEvent)>,
    rng: SmallRng,
    icount: u64,
    region_base: Vec<u64>,
    region_size: Vec<u64>,
    /// Flattened per-(block, memref) cursor state for sequential and
    /// pointer-chase patterns.
    cursors: Vec<u64>,
    /// Offset of each block's first cursor in `cursors`.
    cursor_base: Vec<u32>,
    /// Execution counters for periodic branches.
    branch_execs: Vec<u64>,
    /// Events of the full stream withheld since the last batch.
    withheld: u64,
    /// Events withheld over the run (observability only).
    withheld_total: u64,
    /// Events handed to the observers so far (observability only).
    delivered: u64,
    summary: RunSummary,
}

impl<'p, 'o, 'a> Engine<'p, 'o, 'a> {
    fn new(
        program: &'p Program,
        input: &'p Input,
        observers: &'o mut [&'a mut dyn TraceObserver],
    ) -> Result<Self, RunError> {
        let mut region_base = Vec::with_capacity(program.regions().len());
        let mut region_size = Vec::with_capacity(program.regions().len());
        for (i, region) in program.regions().iter().enumerate() {
            let bytes = region.size.resolve(input);
            if bytes > REGION_SPACING {
                return Err(RunError::RegionTooLarge {
                    name: region.name.clone(),
                    bytes,
                });
            }
            region_base.push((i as u64 + 1) * REGION_SPACING);
            region_size.push(bytes);
        }

        // Count memory references per block to lay out cursor state.
        let mut mem_counts = vec![0u32; program.block_count()];
        fn count_mem(stmts: &[Stmt], counts: &mut [u32]) {
            for stmt in stmts {
                match stmt {
                    Stmt::Block(b) => counts[b.id.index()] = b.mem.len() as u32,
                    Stmt::Loop(l) => count_mem(&l.body, counts),
                    Stmt::If(i) => {
                        count_mem(&i.then_body, counts);
                        count_mem(&i.else_body, counts);
                    }
                    Stmt::Call(_) => {}
                }
            }
        }
        for proc in program.procs() {
            count_mem(&proc.body, &mut mem_counts);
        }
        let mut cursor_base = Vec::with_capacity(mem_counts.len());
        let mut total = 0u32;
        for count in &mem_counts {
            cursor_base.push(total);
            total += count;
        }

        let reads = observers
            .iter()
            .fold(Reads::NONE, |set, obs| set | obs.reads());
        Ok(Self {
            program,
            input,
            observers,
            reads,
            arena: Vec::with_capacity(ARENA_EVENTS),
            rng: SmallRng::seed_from_u64(input.seed() ^ 0x5eed_cafe_f00d_u64),
            icount: 0,
            region_base,
            region_size,
            cursors: vec![0; total as usize],
            cursor_base,
            branch_execs: vec![0; program.branch_count()],
            withheld: 0,
            withheld_total: 0,
            delivered: 0,
            summary: RunSummary::default(),
        })
    }

    /// Buffers `event` for delivery.
    #[inline]
    fn emit(&mut self, event: TraceEvent) {
        self.arena.push((self.icount, event));
        if self.arena.len() == ARENA_EVENTS {
            self.flush();
        }
    }

    /// Hands the buffered events to every observer, after the count of
    /// events withheld since the last batch, and empties the arena;
    /// never delivers an empty batch.
    fn flush(&mut self) {
        if self.arena.is_empty() {
            return;
        }
        let withheld = std::mem::take(&mut self.withheld);
        self.withheld_total += withheld;
        self.delivered += self.arena.len() as u64;
        for obs in self.observers.iter_mut() {
            if withheld > 0 {
                obs.withheld(withheld);
            }
            obs.on_batch(&self.arena);
        }
        self.arena.clear();
    }

    fn exec_stmts(&mut self, stmts: &'p [Stmt], depth: usize) {
        for stmt in stmts {
            match stmt {
                Stmt::Block(block) => self.exec_block(block),
                Stmt::Loop(l) => {
                    let trip = self.draw_trip(&l.trip);
                    self.emit(TraceEvent::LoopEnter { loop_id: l.id });
                    for _ in 0..trip {
                        self.summary.loop_iters += 1;
                        self.emit(TraceEvent::LoopIter { loop_id: l.id });
                        self.exec_stmts(&l.body, depth);
                    }
                    self.emit(TraceEvent::LoopExit { loop_id: l.id });
                }
                Stmt::Call(call) => {
                    if depth >= MAX_CALL_DEPTH {
                        self.summary.truncated_calls += 1;
                        continue;
                    }
                    self.summary.calls += 1;
                    self.emit(TraceEvent::Call { proc: call.target });
                    let callee = self.program.proc(call.target);
                    self.exec_stmts(&callee.body, depth + 1);
                    self.emit(TraceEvent::Return { proc: call.target });
                }
                Stmt::If(i) => {
                    let taken = self.eval_cond(&i.cond, i.id.index());
                    if self.reads.contains(Reads::BRANCHES) {
                        self.emit(TraceEvent::Branch {
                            branch: i.id,
                            taken,
                        });
                    } else {
                        self.withheld += 1;
                    }
                    let body = if taken { &i.then_body } else { &i.else_body };
                    self.exec_stmts(body, depth);
                }
            }
        }
    }

    fn exec_block(&mut self, block: &Block) {
        self.icount += block.instrs as u64;
        self.summary.instrs += block.instrs as u64;
        self.summary.blocks += 1;
        let reads = self.reads;
        if reads.contains(Reads::BLOCKS) {
            self.emit(TraceEvent::BlockExec {
                block: block.id,
                instrs: block.instrs,
                base_cpi: block.base_cpi,
            });
        } else {
            self.withheld += 1;
        }
        let cursor_base = self.cursor_base[block.id.index()] as usize;
        for (j, mem) in block.mem.iter().enumerate() {
            self.summary.mem_accesses += u64::from(mem.count);
            if !reads.contains(Reads::MEM) {
                self.withheld += u64::from(mem.count);
                self.skip_addrs(mem, cursor_base + j);
                continue;
            }
            for _ in 0..mem.count {
                let addr = self.next_addr(mem.region.index(), mem.pattern, cursor_base + j);
                self.emit(TraceEvent::MemAccess {
                    addr,
                    write: mem.write,
                });
            }
        }
    }

    /// Draws from the RNG what `mem.count` accesses of `mem` draw,
    /// without building the events nobody reads. Sequential and
    /// pointer-chase cursors are seen only through addresses, so they
    /// stay put.
    fn skip_addrs(&mut self, mem: &MemRef, cursor_idx: usize) {
        match mem.pattern {
            AccessPattern::Sequential { .. } | AccessPattern::PointerChase => {}
            AccessPattern::Random | AccessPattern::Hotspot { .. } => {
                for _ in 0..mem.count {
                    self.next_addr(mem.region.index(), mem.pattern, cursor_idx);
                }
            }
        }
    }

    fn next_addr(&mut self, region: usize, pattern: AccessPattern, cursor_idx: usize) -> u64 {
        let base = self.region_base[region];
        let size = self.region_size[region];
        let offset = match pattern {
            AccessPattern::Sequential { stride } => {
                let cur = self.cursors[cursor_idx];
                self.cursors[cursor_idx] = cur.wrapping_add(stride as u64);
                cur % size
            }
            AccessPattern::Random => self.rng.gen_range(0..size),
            AccessPattern::PointerChase => {
                let slots = (size / 8).max(1);
                let cur = self.cursors[cursor_idx];
                let next = cur
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                self.cursors[cursor_idx] = next;
                (next % slots) * 8
            }
            AccessPattern::Hotspot { hot_pct } => {
                let hot = (size * u64::from(hot_pct.clamp(1, 100)) / 100).max(8);
                if self.rng.gen_ratio(9, 10) {
                    self.rng.gen_range(0..hot)
                } else {
                    self.rng.gen_range(0..size)
                }
            }
        };
        base + (offset & !7)
    }

    fn draw_trip(&mut self, trip: &Trip) -> u64 {
        match trip {
            Trip::Fixed(n) => *n,
            Trip::Param(p) => self.input.param(p).unwrap_or(0),
            Trip::ParamScaled { param, div } => {
                self.input.param(param).unwrap_or(0) / (*div).max(1)
            }
            Trip::Uniform { lo, hi } => {
                if lo >= hi {
                    *lo
                } else {
                    self.rng.gen_range(*lo..=*hi)
                }
            }
            Trip::Jitter { mean, pct } => {
                // Widened then saturating: a mean near u64::MAX
                // (hand-edited workload file) must clamp, not overflow.
                let wide = u128::from(*mean) * u128::from(*pct) / 100;
                let d = u64::try_from(wide).unwrap_or(u64::MAX);
                if d == 0 {
                    *mean
                } else {
                    self.rng
                        .gen_range(mean.saturating_sub(d)..=mean.saturating_add(d))
                }
            }
        }
    }

    fn eval_cond(&mut self, cond: &Cond, branch_idx: usize) -> bool {
        match cond {
            Cond::Prob(p) => self.rng.gen::<f64>() < *p,
            Cond::Periodic { period, offset } => {
                let count = self.branch_execs[branch_idx];
                self.branch_execs[branch_idx] += 1;
                let period = (*period).max(1);
                count % period == offset % period
            }
            Cond::ParamAtLeast { param, threshold } => {
                self.input.param(param).unwrap_or(0) >= *threshold
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spm_ir::ProgramBuilder;

    fn simple_program() -> Program {
        let mut b = ProgramBuilder::new("t");
        let r = b.region_bytes("d", 1 << 12);
        b.proc("main", |p| {
            p.block(10).done();
            p.loop_(Trip::Fixed(2), |body| {
                body.block(20).seq_read(r, 3).done();
                body.call("leaf");
            });
        });
        b.proc("leaf", |p| {
            p.block(5).done();
        });
        b.build("main").unwrap()
    }

    #[test]
    fn event_stream_structure() {
        let program = simple_program();
        let mut rec: Vec<(u64, TraceEvent)> = Vec::new();
        let summary = run(&program, &Input::new("x", 3), &mut [&mut rec]).unwrap();
        assert_eq!(summary.instrs, 10 + 2 * (20 + 5));
        assert_eq!(summary.blocks, 1 + 2 * 2);
        assert_eq!(summary.mem_accesses, 6);
        assert_eq!(summary.calls, 2);
        assert_eq!(summary.loop_iters, 2);

        let kinds: Vec<&'static str> = rec
            .iter()
            .map(|(_, e)| match e {
                TraceEvent::BlockExec { .. } => "block",
                TraceEvent::MemAccess { .. } => "mem",
                TraceEvent::Branch { .. } => "branch",
                TraceEvent::Call { .. } => "call",
                TraceEvent::Return { .. } => "ret",
                TraceEvent::LoopEnter { .. } => "enter",
                TraceEvent::LoopIter { .. } => "iter",
                TraceEvent::LoopExit { .. } => "exit",
                TraceEvent::Finish => "finish",
            })
            .collect();
        assert_eq!(
            kinds,
            vec![
                "block", "enter", "iter", "block", "mem", "mem", "mem", "call", "block", "ret",
                "iter", "block", "mem", "mem", "mem", "call", "block", "ret", "exit", "finish",
            ]
        );
    }

    #[test]
    fn icount_is_monotone_and_final() {
        let program = simple_program();
        let mut rec: Vec<(u64, TraceEvent)> = Vec::new();
        let summary = run(&program, &Input::new("x", 3), &mut [&mut rec]).unwrap();
        let mut prev = 0;
        for (icount, _) in &rec {
            assert!(*icount >= prev);
            prev = *icount;
        }
        assert_eq!(rec.last().unwrap().0, summary.instrs);
    }

    #[test]
    fn execution_is_deterministic() {
        let program = simple_program();
        let input = Input::new("x", 99);
        let mut a: Vec<(u64, TraceEvent)> = Vec::new();
        let mut b: Vec<(u64, TraceEvent)> = Vec::new();
        run(&program, &input, &mut [&mut a]).unwrap();
        run(&program, &input, &mut [&mut b]).unwrap();
        assert_eq!(a, b);
    }

    /// Records the sizes of the batches it is handed, and the stream.
    #[derive(Default)]
    struct Batches {
        sizes: Vec<usize>,
        events: Vec<(u64, TraceEvent)>,
    }

    impl TraceObserver for Batches {
        fn on_batch(&mut self, batch: &[(u64, TraceEvent)]) {
            self.sizes.push(batch.len());
            self.events.extend_from_slice(batch);
        }
    }

    #[test]
    fn arena_batches_reach_every_observer_alike() {
        // 400 iterations of block + 4 accesses + call/block/return: about
        // 3,200 events, several arenas' worth, ending mid-arena.
        let mut b = ProgramBuilder::new("t");
        let r = b.region_bytes("d", 1 << 12);
        b.proc("main", |p| {
            p.loop_(Trip::Fixed(400), |body| {
                body.block(3).rand_read(r, 4).done();
                body.call("leaf");
            });
        });
        b.proc("leaf", |p| p.block(2).done());
        let program = b.build("main").unwrap();

        let mut batches = Batches::default();
        let mut seen: Vec<(u64, TraceEvent)> = Vec::new();
        let summary = {
            let mut closure = |icount: u64, ev: &TraceEvent| seen.push((icount, *ev));
            run(
                &program,
                &Input::new("x", 4),
                &mut [&mut batches, &mut closure],
            )
            .unwrap()
        };

        // LoopEnter/LoopExit, one LoopIter per iteration, Call + Return
        // per call, one event per block and access, and Finish.
        let implied =
            summary.blocks + summary.mem_accesses + summary.loop_iters + 2 * summary.calls + 2 + 1;
        assert!(implied as usize > 3 * ARENA_EVENTS);
        assert_eq!(batches.events.len() as u64, implied);
        assert_eq!(batches.events, seen, "observers saw different streams");
        assert!(batches.events.windows(2).all(|w| w[0].0 <= w[1].0));
        let finishes: Vec<usize> = (0..seen.len())
            .filter(|&i| seen[i].1 == TraceEvent::Finish)
            .collect();
        assert_eq!(finishes, vec![seen.len() - 1], "Finish last, exactly once");
        assert_eq!(seen.last().unwrap().0, summary.instrs);
        assert!(batches.sizes.len() > 1);
        assert!(batches.sizes.iter().all(|&n| n > 0 && n <= ARENA_EVENTS));
    }

    /// Records what it is handed and the events withheld; reads the
    /// kinds in `reads`.
    struct KindTape {
        reads: Reads,
        events: Vec<(u64, TraceEvent)>,
        withheld: u64,
    }

    impl KindTape {
        fn new(reads: Reads) -> Self {
            Self {
                reads,
                events: Vec::new(),
                withheld: 0,
            }
        }
    }

    impl TraceObserver for KindTape {
        fn on_batch(&mut self, batch: &[(u64, TraceEvent)]) {
            self.events.extend_from_slice(batch);
        }

        fn reads(&self) -> Reads {
            self.reads
        }

        fn withheld(&mut self, events: u64) {
            self.withheld += events;
        }
    }

    #[test]
    fn observers_get_the_union_of_the_kinds_they_read() {
        // Random accesses and branches draw from the RNG, so skipped
        // data events must still be executed for the streams to agree.
        let mut b = ProgramBuilder::new("t");
        let r = b.region_bytes("d", 1 << 12);
        b.proc("main", |p| {
            p.loop_(Trip::Uniform { lo: 1000, hi: 1500 }, |body| {
                body.block(3).rand_read(r, 4).seq_read(r, 2).done();
                body.if_prob(0.5, |t| t.call("leaf"), |e| e.block(1).done());
            });
        });
        b.proc("leaf", |p| p.block(2).hot_read(r, 3, 10).done());
        let program = b.build("main").unwrap();
        let input = Input::new("x", 11);

        let mut full: Vec<(u64, TraceEvent)> = Vec::new();
        let full_summary = run(&program, &input, &mut [&mut full]).unwrap();
        let kinds = [Reads::NONE, Reads::BLOCKS, Reads::MEM, Reads::BRANCHES];
        for (a, b) in kinds.into_iter().flat_map(|a| kinds.map(|b| (a, b))) {
            let (mut first, mut second) = (KindTape::new(a), KindTape::new(b));
            let summary = run(&program, &input, &mut [&mut first, &mut second]).unwrap();
            assert_eq!(summary, full_summary);
            let expected: Vec<(u64, TraceEvent)> = full
                .iter()
                .copied()
                .filter(|(_, e)| (a | b).admits(e))
                .collect();
            assert!(expected.len() > ARENA_EVENTS);
            for tape in [first, second] {
                assert_eq!(tape.events, expected, "{a:?} next to {b:?}");
                assert_eq!(tape.withheld, (full.len() - expected.len()) as u64);
            }
        }

        // One observer that reads every kind gets every observer the
        // full stream, and nothing is withheld.
        let mut mixed = KindTape::new(Reads::NONE);
        let mut tape: Vec<(u64, TraceEvent)> = Vec::new();
        run(&program, &input, &mut [&mut mixed, &mut tape]).unwrap();
        assert_eq!(tape, full);
        assert_eq!(mixed.events, full);
        assert_eq!(mixed.withheld, 0);
    }

    #[test]
    fn withheld_counts_precede_the_batch_they_belong_to() {
        // The count reported before a batch, plus the batch, covers the
        // full stream up to the batch's last event.
        struct Positions {
            seen: u64,
            ends: Vec<(u64, (u64, TraceEvent))>,
        }
        impl TraceObserver for Positions {
            fn on_batch(&mut self, batch: &[(u64, TraceEvent)]) {
                self.seen += batch.len() as u64;
                self.ends.push((self.seen, *batch.last().unwrap()));
            }
            fn reads(&self) -> Reads {
                Reads::NONE
            }
            fn withheld(&mut self, events: u64) {
                self.seen += events;
            }
        }
        let mut b = ProgramBuilder::new("t");
        let r = b.region_bytes("d", 1 << 12);
        b.proc("main", |p| {
            p.loop_(Trip::Fixed(3000), |body| {
                body.block(3).rand_read(r, 2).done();
                body.call("leaf");
            });
        });
        b.proc("leaf", |p| p.block(2).done());
        let program = b.build("main").unwrap();
        let input = Input::new("x", 2);
        let mut full: Vec<(u64, TraceEvent)> = Vec::new();
        run(&program, &input, &mut [&mut full]).unwrap();
        let mut positions = Positions {
            seen: 0,
            ends: Vec::new(),
        };
        run(&program, &input, &mut [&mut positions]).unwrap();
        assert!(positions.ends.len() > 1);
        for (seen, last) in positions.ends {
            // The batch's last event is the `seen`-th of the full stream.
            assert_eq!(full[seen as usize - 1], last);
        }
        assert_eq!(positions.seen, full.len() as u64);
    }

    #[test]
    fn different_seeds_differ_for_random_trips() {
        let mut b = ProgramBuilder::new("t");
        b.proc("main", |p| {
            p.loop_(Trip::Uniform { lo: 1, hi: 1000 }, |body| {
                body.block(1).done();
            });
        });
        let program = b.build("main").unwrap();
        let s1 = run(&program, &Input::new("a", 1), &mut []).unwrap();
        let s2 = run(&program, &Input::new("b", 2), &mut []).unwrap();
        assert_ne!(s1.instrs, s2.instrs);
    }

    #[test]
    fn params_drive_trip_counts() {
        let mut b = ProgramBuilder::new("t");
        b.proc("main", |p| {
            p.loop_(Trip::Param("n".into()), |body| {
                body.block(7).done();
            });
        });
        let program = b.build("main").unwrap();
        let s = run(&program, &Input::new("x", 1).with("n", 13), &mut []).unwrap();
        assert_eq!(s.instrs, 91);
        let s0 = run(&program, &Input::new("x", 1), &mut []).unwrap();
        assert_eq!(s0.instrs, 0, "missing param means zero iterations");
    }

    #[test]
    fn param_scaled_trips_divide() {
        let mut b = ProgramBuilder::new("t");
        b.proc("main", |p| {
            p.loop_(
                Trip::ParamScaled {
                    param: "n".into(),
                    div: 4,
                },
                |body| {
                    body.block(10).done();
                },
            );
        });
        let program = b.build("main").unwrap();
        let s = run(&program, &Input::new("x", 1).with("n", 100), &mut []).unwrap();
        assert_eq!(s.instrs, 250);
        // Divisor zero is clamped to 1.
        let mut b = ProgramBuilder::new("t");
        b.proc("main", |p| {
            p.loop_(
                Trip::ParamScaled {
                    param: "n".into(),
                    div: 0,
                },
                |body| {
                    body.block(1).done();
                },
            );
        });
        let program = b.build("main").unwrap();
        let s = run(&program, &Input::new("x", 1).with("n", 7), &mut []).unwrap();
        assert_eq!(s.instrs, 7);
    }

    #[test]
    fn jitter_trips_stay_within_bounds() {
        let mut b = ProgramBuilder::new("t");
        b.proc("main", |p| {
            p.loop_(Trip::Fixed(200), |outer| {
                outer.loop_(Trip::Jitter { mean: 100, pct: 10 }, |body| {
                    body.block(1).done();
                });
            });
        });
        let program = b.build("main").unwrap();
        let mut iters_per_entry = Vec::new();
        let mut current = 0u64;
        {
            let mut obs = |_: u64, ev: &TraceEvent| match ev {
                TraceEvent::LoopIter { loop_id } if loop_id.0 == 1 => current += 1,
                TraceEvent::LoopExit { loop_id } if loop_id.0 == 1 => {
                    iters_per_entry.push(current);
                    current = 0;
                }
                _ => {}
            };
            run(&program, &Input::new("x", 77), &mut [&mut obs]).unwrap();
        }
        assert_eq!(iters_per_entry.len(), 200);
        assert!(iters_per_entry.iter().all(|&n| (90..=110).contains(&n)));
        // The jitter actually varies.
        assert!(iters_per_entry.iter().any(|&n| n != iters_per_entry[0]));
    }

    #[test]
    fn recursion_is_truncated_at_depth_limit() {
        let mut b = ProgramBuilder::new("t");
        b.proc("rec", |p| {
            p.block(1).done();
            p.call("rec"); // unconditional infinite recursion
        });
        let program = b.build("rec").unwrap();
        let s = run(&program, &Input::new("x", 1), &mut []).unwrap();
        assert_eq!(s.truncated_calls, 1);
        assert_eq!(s.instrs, (MAX_CALL_DEPTH as u64) + 1);
    }

    #[test]
    fn oversized_region_is_rejected() {
        let mut b = ProgramBuilder::new("t");
        let _ = b.region_bytes("huge", 1 << 29);
        b.proc("main", |p| p.block(1).done());
        let program = b.build("main").unwrap();
        let err = run(&program, &Input::new("x", 1), &mut []).unwrap_err();
        assert!(matches!(err, RunError::RegionTooLarge { .. }));
        assert!(err.to_string().contains("huge"));
    }

    #[test]
    fn periodic_branch_fires_on_schedule() {
        let mut b = ProgramBuilder::new("t");
        b.proc("main", |p| {
            p.loop_(Trip::Fixed(6), |body| {
                body.if_periodic(3, 0, |t| t.block(100).done(), |e| e.block(1).done());
            });
        });
        let program = b.build("main").unwrap();
        let s = run(&program, &Input::new("x", 1), &mut []).unwrap();
        // Taken on iterations 0 and 3: 2*100 + 4*1.
        assert_eq!(s.instrs, 204);
    }

    #[test]
    fn memory_addresses_stay_in_region() {
        let mut b = ProgramBuilder::new("t");
        let r = b.region_bytes("d", 4096);
        b.proc("main", |p| {
            p.block(1)
                .seq_read(r, 10)
                .rand_read(r, 10)
                .chase_read(r, 10)
                .hot_read(r, 10, 10)
                .done();
        });
        let program = b.build("main").unwrap();
        let mut addrs = Vec::new();
        {
            let mut collect = |_: u64, ev: &TraceEvent| {
                if let TraceEvent::MemAccess { addr, .. } = ev {
                    addrs.push(*addr);
                }
            };
            run(&program, &Input::new("x", 5), &mut [&mut collect]).unwrap();
        }
        assert_eq!(addrs.len(), 40);
        let base = REGION_SPACING;
        for addr in addrs {
            assert!(
                addr >= base && addr < base + 4096,
                "addr {addr:#x} outside region"
            );
            assert_eq!(addr % 8, 0, "addresses are 8-byte aligned");
        }
    }

    #[test]
    fn distinct_regions_do_not_overlap() {
        let mut b = ProgramBuilder::new("t");
        let r1 = b.region_bytes("a", 4096);
        let r2 = b.region_bytes("b", 4096);
        b.proc("main", |p| {
            p.block(1).rand_read(r1, 20).done();
            p.block(1).rand_read(r2, 20).done();
        });
        let program = b.build("main").unwrap();
        let mut first = Vec::new();
        let mut second = Vec::new();
        let mut current_block = 0u32;
        {
            let mut collect = |_: u64, ev: &TraceEvent| match ev {
                TraceEvent::BlockExec { block, .. } => current_block = block.0,
                TraceEvent::MemAccess { addr, .. } => {
                    if current_block == 0 {
                        first.push(*addr);
                    } else {
                        second.push(*addr);
                    }
                }
                _ => {}
            };
            run(&program, &Input::new("x", 5), &mut [&mut collect]).unwrap();
        }
        let max1 = *first.iter().max().unwrap();
        let min2 = *second.iter().min().unwrap();
        assert!(max1 < min2, "regions must not interleave");
    }
}
