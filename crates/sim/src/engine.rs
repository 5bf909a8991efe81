//! The interpreter: walks a program's statement tree and emits the trace
//! event stream.

use crate::events::{Reads, TraceEvent, TraceObserver};
use rand::distributions::{Distribution, Uniform};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use spm_ir::{AccessPattern, Block, Cond, Input, Program, Stmt, Trip};
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
/// handed. The returned [`RunSummary`], every RNG word and the `sim/run`
/// span's `events` count are those of the full run; the span's
/// `delivered` field counts the events the observers were handed.
///
/// The program is lowered once per run, against this input's region
/// sizes. Each block gets its total access count and the list of its
/// memrefs that draw from the RNG (random and hotspot patterns), each
/// with a resolved [`Uniform`] sampler. When no observer reads
/// `MemAccess`, a block therefore costs one add for its accesses plus
/// its draws, and a draw whose address nobody reads costs only the
/// sampler's accept test; sequential and pointer-chase cursors are seen
/// only through addresses, so they stay put. When no observer reads
/// `BlockExec` or `MemAccess` either, a loop whose body holds only
/// blocks runs an iteration as its `LoopIter`, the body's summed
/// instructions, blocks and accesses, and its concatenated draws, with
/// no walk of the body.
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
    /// Every memref of the program, lowered, flattened in block order.
    mems: Vec<Access>,
    /// Cursor state of each entry of `mems`, for sequential and
    /// pointer-chase patterns.
    cursors: Vec<u64>,
    /// Each block, lowered, indexed by block id.
    blocks: Vec<BlockPlan>,
    /// Each loop whose body holds only blocks, summed for one
    /// iteration, indexed by loop id; all `None` when some observer
    /// reads `BlockExec` or `MemAccess`.
    bodies: Vec<Option<Body>>,
    /// The draws of every block, then those of every lowered body,
    /// which [`DrawSpan`]s index.
    draws: Vec<Draw>,
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
        let mut regions = Vec::with_capacity(program.regions().len());
        for (i, region) in program.regions().iter().enumerate() {
            let bytes = region.size.resolve(input);
            if bytes > REGION_SPACING {
                return Err(RunError::RegionTooLarge {
                    name: region.name.clone(),
                    bytes,
                });
            }
            regions.push(((i as u64 + 1) * REGION_SPACING, bytes));
        }
        let reads = observers
            .iter()
            .fold(Reads::NONE, |set, obs| set | obs.reads());
        let mut lowering = Lowering {
            regions,
            step_bodies: !reads.contains(Reads::BLOCKS) && !reads.contains(Reads::MEM),
            mems: Vec::new(),
            blocks: vec![BlockPlan::default(); program.block_count()],
            bodies: vec![None; program.loop_count()],
            draws: Vec::new(),
        };
        for proc in program.procs() {
            lowering.stmts(&proc.body);
        }
        Ok(Self {
            program,
            input,
            observers,
            reads,
            arena: Vec::with_capacity(ARENA_EVENTS),
            rng: SmallRng::seed_from_u64(input.seed() ^ 0x5eed_cafe_f00d_u64),
            icount: 0,
            cursors: vec![0; lowering.mems.len()],
            mems: lowering.mems,
            blocks: lowering.blocks,
            bodies: lowering.bodies,
            draws: lowering.draws,
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
                    if let Some(body) = self.bodies[l.id.index()] {
                        for _ in 0..trip {
                            self.summary.loop_iters += 1;
                            self.emit(TraceEvent::LoopIter { loop_id: l.id });
                            self.step_body(body);
                        }
                    } else {
                        for _ in 0..trip {
                            self.summary.loop_iters += 1;
                            self.emit(TraceEvent::LoopIter { loop_id: l.id });
                            self.exec_stmts(&l.body, depth);
                        }
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
        let plan = self.blocks[block.id.index()];
        self.icount += block.instrs as u64;
        self.summary.instrs += block.instrs as u64;
        self.summary.blocks += 1;
        self.summary.mem_accesses += plan.accesses;
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
        if !reads.contains(Reads::MEM) {
            self.withheld += plan.accesses;
            self.skip_draws(plan.draws);
            return;
        }
        for (j, mem) in block.mem.iter().enumerate() {
            let slot = plan.first_mem as usize + j;
            for _ in 0..mem.count {
                let addr = self.next_addr(slot);
                self.emit(TraceEvent::MemAccess {
                    addr,
                    write: mem.write,
                });
            }
        }
    }

    /// One iteration of a lowered loop body, whose events nobody reads.
    #[inline]
    fn step_body(&mut self, body: Body) {
        self.icount += body.instrs;
        self.summary.instrs += body.instrs;
        self.summary.blocks += body.blocks;
        self.summary.mem_accesses += body.accesses;
        self.withheld += body.blocks + body.accesses;
        self.skip_draws(body.draws);
    }

    /// Makes the RNG draws of `span` and drops the addresses.
    #[inline]
    fn skip_draws(&mut self, span: DrawSpan) {
        for draw in &self.draws[span.start as usize..span.end as usize] {
            for _ in 0..draw.count {
                draw.sampler.offset(&mut self.rng);
            }
        }
    }

    /// The next address of the memref in `mems[slot]`.
    fn next_addr(&mut self, slot: usize) -> u64 {
        let Access { base, size, gen } = self.mems[slot];
        let offset = match gen {
            AddrGen::Sequential { stride } => {
                let cur = self.cursors[slot];
                self.cursors[slot] = cur.wrapping_add(stride);
                cur % size
            }
            AddrGen::PointerChase => {
                let slots = (size / 8).max(1);
                let cur = self.cursors[slot];
                let next = cur
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                self.cursors[slot] = next;
                (next % slots) * 8
            }
            AddrGen::Draw(sampler) => sampler.offset(&mut self.rng),
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

/// How one memref's accesses pick their addresses.
#[derive(Debug, Clone, Copy)]
enum AddrGen {
    /// Walks the cursor by the stride, wrapping at the region's end.
    Sequential { stride: u64 },
    /// A fixed permutation walk over the region's 8-byte slots.
    PointerChase,
    /// Draws from the RNG.
    Draw(Sampler),
}

/// The RNG draws of one random or hotspot access, resolved against the
/// region's size.
#[derive(Debug, Clone, Copy)]
enum Sampler {
    /// Uniform over the region.
    Random(Uniform<u64>),
    /// Nine in ten from the hot prefix, the rest over the whole region.
    Hotspot {
        hot: Uniform<u64>,
        all: Uniform<u64>,
    },
}

impl Sampler {
    /// One access's offset into its region. Where the caller drops it,
    /// only the samplers' accept tests are left.
    #[inline]
    fn offset(&self, rng: &mut SmallRng) -> u64 {
        match self {
            Sampler::Random(all) => all.sample(rng),
            Sampler::Hotspot { hot, all } => {
                if rng.gen_ratio(9, 10) {
                    hot.sample(rng)
                } else {
                    all.sample(rng)
                }
            }
        }
    }
}

/// A memref lowered against this run's region sizes.
#[derive(Debug, Clone, Copy)]
struct Access {
    /// The region's base address and size in bytes.
    base: u64,
    size: u64,
    gen: AddrGen,
}

/// The draws one execution of a drawing memref makes.
#[derive(Debug, Clone, Copy)]
struct Draw {
    sampler: Sampler,
    count: u32,
}

/// The entries `start..end` of [`Engine::draws`].
#[derive(Debug, Clone, Copy, Default)]
struct DrawSpan {
    start: u32,
    end: u32,
}

/// A block lowered for this run.
#[derive(Debug, Clone, Copy, Default)]
struct BlockPlan {
    /// Accesses one execution makes.
    accesses: u64,
    /// Its first memref's index in [`Engine::mems`].
    first_mem: u32,
    /// Its memrefs that draw, in order.
    draws: DrawSpan,
}

/// A loop body of blocks only, summed over one iteration.
#[derive(Debug, Clone, Copy, Default)]
struct Body {
    instrs: u64,
    blocks: u64,
    accesses: u64,
    /// Its blocks' draws, concatenated in order.
    draws: DrawSpan,
}

/// The lowering pass behind [`Engine::new`]: one walk over every
/// procedure body.
struct Lowering {
    /// Each region's base address and size under this input.
    regions: Vec<(u64, u64)>,
    /// Whether to lower straight-line loop bodies (nobody reads their
    /// blocks or accesses).
    step_bodies: bool,
    mems: Vec<Access>,
    blocks: Vec<BlockPlan>,
    bodies: Vec<Option<Body>>,
    draws: Vec<Draw>,
}

impl Lowering {
    fn stmts(&mut self, stmts: &[Stmt]) {
        for stmt in stmts {
            match stmt {
                Stmt::Block(block) => self.block(block),
                Stmt::Loop(l) => {
                    self.stmts(&l.body);
                    if self.step_bodies {
                        self.bodies[l.id.index()] = self.body(&l.body);
                    }
                }
                Stmt::If(i) => {
                    self.stmts(&i.then_body);
                    self.stmts(&i.else_body);
                }
                Stmt::Call(_) => {}
            }
        }
    }

    fn block(&mut self, block: &Block) {
        let first_mem = self.mems.len() as u32;
        let start = self.draws.len() as u32;
        let mut accesses = 0;
        for mem in &block.mem {
            let (base, size) = self.regions[mem.region.index()];
            let gen = match mem.pattern {
                AccessPattern::Sequential { stride } => AddrGen::Sequential {
                    stride: u64::from(stride),
                },
                AccessPattern::PointerChase => AddrGen::PointerChase,
                AccessPattern::Random => AddrGen::Draw(Sampler::Random(Uniform::new(0, size))),
                AccessPattern::Hotspot { hot_pct } => {
                    let hot = (size * u64::from(hot_pct.clamp(1, 100)) / 100).max(8);
                    AddrGen::Draw(Sampler::Hotspot {
                        hot: Uniform::new(0, hot),
                        all: Uniform::new(0, size),
                    })
                }
            };
            if let (AddrGen::Draw(sampler), 1..) = (gen, mem.count) {
                self.draws.push(Draw {
                    sampler,
                    count: mem.count,
                });
            }
            self.mems.push(Access { base, size, gen });
            accesses += u64::from(mem.count);
        }
        self.blocks[block.id.index()] = BlockPlan {
            accesses,
            first_mem,
            draws: DrawSpan {
                start,
                end: self.draws.len() as u32,
            },
        };
    }

    /// Sums a loop body whose statements are all blocks, already
    /// lowered; `None` for any other body.
    fn body(&mut self, body: &[Stmt]) -> Option<Body> {
        let start = self.draws.len() as u32;
        let mut sum = Body::default();
        for stmt in body {
            let Stmt::Block(block) = stmt else {
                self.draws.truncate(start as usize);
                return None;
            };
            let plan = self.blocks[block.id.index()];
            sum.instrs += u64::from(block.instrs);
            sum.blocks += 1;
            sum.accesses += plan.accesses;
            self.draws
                .extend_from_within(plan.draws.start as usize..plan.draws.end as usize);
        }
        sum.draws = DrawSpan {
            start,
            end: self.draws.len() as u32,
        };
        Some(sum)
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

    /// Records what it is handed, the events withheld and where each
    /// batch ends in the full stream; reads the kinds in `reads`.
    struct KindTape {
        reads: Reads,
        events: Vec<(u64, TraceEvent)>,
        withheld: u64,
        /// Full-stream events covered after each batch, with the
        /// batch's last event.
        ends: Vec<(u64, (u64, TraceEvent))>,
    }

    impl KindTape {
        fn new(reads: Reads) -> Self {
            Self {
                reads,
                events: Vec::new(),
                withheld: 0,
                ends: Vec::new(),
            }
        }

        /// Checks every batch end against the full stream: the count
        /// reported before a batch, plus the batch, covers the full
        /// stream up to the batch's last event.
        fn check_ends(&self, full: &[(u64, TraceEvent)]) {
            assert!(self.ends.len() > 1);
            for &(seen, last) in &self.ends {
                assert_eq!(full[seen as usize - 1], last, "{:?}", self.reads);
            }
            assert_eq!(self.events.len() as u64 + self.withheld, full.len() as u64);
        }
    }

    impl TraceObserver for KindTape {
        fn on_batch(&mut self, batch: &[(u64, TraceEvent)]) {
            self.events.extend_from_slice(batch);
            let seen = self.events.len() as u64 + self.withheld;
            self.ends.push((seen, *batch.last().unwrap()));
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
        let mut tape = KindTape::new(Reads::NONE);
        run(&program, &input, &mut [&mut tape]).unwrap();
        tape.check_ends(&full);
    }

    #[test]
    fn lowered_loop_bodies_match_the_walked_run() {
        // Loop 1 has a body of three blocks mixing every access pattern;
        // the branch and the trip draws after it show any drift in its
        // draws. Loop 2's body holds a branch and a call, so it is
        // walked even when nobody reads blocks.
        let mut b = ProgramBuilder::new("t");
        let odd = b.region_bytes("odd", 3000);
        let pow = b.region_bytes("pow", 1 << 12);
        b.proc("main", |p| {
            p.loop_(Trip::Fixed(8), |outer| {
                outer.loop_(Trip::Uniform { lo: 100, hi: 300 }, |body| {
                    body.block(3).seq_read(odd, 2).rand_read(odd, 3).done();
                    body.block(5).hot_read(pow, 2, 10).chase_read(odd, 1).done();
                    body.block(2)
                        .rand_write(pow, 1)
                        .stride_read(odd, 2, 24)
                        .hot_read(odd, 1, 30)
                        .done();
                });
                outer.if_prob(0.5, |t| t.block(7).done(), |e| e.call("leaf"));
                outer.loop_(Trip::Uniform { lo: 20, hi: 60 }, |walked| {
                    walked.block(4).rand_read(odd, 1).done();
                    walked.if_prob(
                        0.3,
                        |t| t.block(2).hot_read(odd, 1, 50).done(),
                        |e| e.call("leaf"),
                    );
                });
            });
        });
        b.proc("leaf", |p| p.block(2).rand_read(pow, 2).done());
        let program = b.build("main").unwrap();
        let input = Input::new("x", 21);

        // Only a run that reads neither blocks nor accesses steps loop 1
        // whole; loop 0 (nested loops) and loop 2 are walked.
        for (reads, stepped) in [(Reads::BRANCHES, true), (Reads::BLOCKS, false)] {
            let mut tape = KindTape::new(reads);
            let mut observers: [&mut dyn TraceObserver; 1] = [&mut tape];
            let engine = Engine::new(&program, &input, &mut observers).unwrap();
            let lowered: Vec<bool> = engine.bodies.iter().map(Option::is_some).collect();
            assert_eq!(lowered, [false, stepped, false], "{reads:?}");
        }

        let mut full: Vec<(u64, TraceEvent)> = Vec::new();
        let full_summary = run(&program, &input, &mut [&mut full]).unwrap();
        let kinds = [Reads::BLOCKS, Reads::MEM, Reads::BRANCHES];
        for bits in 0..8 {
            let reads = (0..3)
                .filter(|i| bits >> i & 1 == 1)
                .fold(Reads::NONE, |set, i| set | kinds[i]);
            let mut tape = KindTape::new(reads);
            let summary = run(&program, &input, &mut [&mut tape]).unwrap();
            assert_eq!(summary, full_summary, "{reads:?}");
            let expected: Vec<(u64, TraceEvent)> = full
                .iter()
                .copied()
                .filter(|(_, e)| reads.admits(e))
                .collect();
            assert!(expected.len() > ARENA_EVENTS, "{reads:?}");
            assert!(tape.events == expected, "{reads:?}: streams differ");
            tape.check_ends(&full);
        }
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
