//! Property-based fuzzing of the execution substrate: random programs
//! (bounded loops, nested conditionals, cross-procedure calls, every
//! access pattern) must uphold the engine/profiler/recorder invariants.

use proptest::prelude::*;
use spm::core::{partition_with_fallback, select_markers, CallLoopProfiler, SelectConfig};
use spm::ir::{parse_workload, write_workload, Input, Program, ProgramBuilder, Trip};
use spm::sim::{run, TraceCorruptor, TraceEvent, TraceObserver};
use spm_store::{StoreReader, StoreWriter};

/// A generatable statement tree (kept separate from the IR so proptest
/// can shrink it).
#[derive(Debug, Clone)]
enum Spec {
    Block {
        instrs: u32,
        pattern: u8,
        count: u8,
    },
    Loop {
        trip: u8,
        n: u16,
        body: Vec<Spec>,
    },
    /// Call to procedure `main_index + 1 + target` (always forward, so
    /// generated programs cannot recurse unboundedly).
    Call {
        target: u8,
    },
    If {
        prob: u8,
        then_body: Vec<Spec>,
        else_body: Vec<Spec>,
    },
}

fn spec_strategy(depth: u32) -> impl Strategy<Value = Spec> {
    let leaf = prop_oneof![
        (1u32..80, 0u8..4, 0u8..4).prop_map(|(instrs, pattern, count)| Spec::Block {
            instrs,
            pattern,
            count
        }),
        (0u8..3).prop_map(|target| Spec::Call { target }),
    ];
    leaf.prop_recursive(depth, 24, 4, |inner| {
        prop_oneof![
            (
                0u8..4,
                0u16..7,
                proptest::collection::vec(inner.clone(), 1..4)
            )
                .prop_map(|(trip, n, body)| Spec::Loop { trip, n, body }),
            (
                0u8..=100,
                proptest::collection::vec(inner.clone(), 0..3),
                proptest::collection::vec(inner, 0..3),
            )
                .prop_map(|(prob, then_body, else_body)| Spec::If {
                    prob,
                    then_body,
                    else_body
                }),
        ]
    })
}

fn program_strategy() -> impl Strategy<Value = Vec<Vec<Spec>>> {
    // 1 main + up to 3 callee procedures, each a list of statements.
    proptest::collection::vec(proptest::collection::vec(spec_strategy(3), 1..5), 1..4)
}

fn emit(
    body: &mut spm::ir::BodyBuilder<'_>,
    spec: &[Spec],
    proc_idx: usize,
    nprocs: usize,
    region: spm::ir::RegionId,
) {
    for stmt in spec {
        match stmt {
            Spec::Block {
                instrs,
                pattern,
                count,
            } => {
                let blk = body.block(*instrs);
                let blk = match pattern % 4 {
                    0 => blk.seq_read(region, u32::from(*count)),
                    1 => blk.rand_read(region, u32::from(*count)),
                    2 => blk.chase_read(region, u32::from(*count)),
                    _ => blk.hot_read(region, u32::from(*count), 30),
                };
                blk.done();
            }
            Spec::Loop {
                trip,
                n,
                body: inner,
            } => {
                let trip = match trip % 4 {
                    0 => Trip::Fixed(u64::from(*n)),
                    1 => Trip::Uniform {
                        lo: 0,
                        hi: u64::from(*n),
                    },
                    2 => Trip::Jitter {
                        mean: u64::from(*n).max(1),
                        pct: 20,
                    },
                    _ => Trip::Param("n".into()),
                };
                body.loop_(trip, |b| emit(b, inner, proc_idx, nprocs, region));
            }
            Spec::Call { target } => {
                // Forward calls only; drop calls past the last procedure.
                let callee = proc_idx + 1 + usize::from(*target);
                if callee < nprocs {
                    body.call(&format!("p{callee}"));
                }
            }
            Spec::If {
                prob,
                then_body,
                else_body,
            } => {
                body.if_prob(
                    f64::from(*prob) / 100.0,
                    |t| emit(t, then_body, proc_idx, nprocs, region),
                    |e| emit(e, else_body, proc_idx, nprocs, region),
                );
            }
        }
    }
}

fn build(specs: &[Vec<Spec>]) -> Program {
    let mut b = ProgramBuilder::new("fuzz");
    let region = b.region_bytes("mem", 1 << 16);
    let nprocs = specs.len();
    for (i, spec) in specs.iter().enumerate() {
        let name = if i == 0 {
            "main".to_string()
        } else {
            format!("p{i}")
        };
        b.proc(&name, |body| emit(body, spec, i, nprocs, region));
    }
    // Guarantee every procedure is "defined" even if never called.
    b.build("main").expect("generated programs are well-formed")
}

/// Minimal structural checker shared by the properties.
#[derive(Default)]
struct Checker {
    depth: i64,
    last: u64,
    instrs: u64,
    finished: bool,
}

impl Checker {
    fn step(&mut self, icount: u64, event: &TraceEvent) {
        assert!(icount >= self.last);
        assert!(!self.finished);
        self.last = icount;
        match event {
            TraceEvent::Call { .. } | TraceEvent::LoopEnter { .. } => self.depth += 1,
            TraceEvent::Return { .. } | TraceEvent::LoopExit { .. } => {
                self.depth -= 1;
                assert!(self.depth >= 0, "more closes than opens");
            }
            TraceEvent::BlockExec { instrs, .. } => self.instrs += u64::from(*instrs),
            TraceEvent::Finish => {
                assert_eq!(self.depth, 0, "unbalanced at finish");
                self.finished = true;
            }
            _ => {}
        }
    }
}

impl TraceObserver for Checker {
    fn on_batch(&mut self, batch: &[(u64, TraceEvent)]) {
        for (icount, event) in batch {
            self.step(*icount, event);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_programs_uphold_invariants(
        specs in program_strategy(),
        seed in 0u64..1000,
        n in 0u64..10,
    ) {
        let program = build(&specs);
        let input = Input::new("fuzz", seed).with("n", n);

        // Structural invariants + instruction accounting.
        let mut checker = Checker::default();
        let summary = run(&program, &input, &mut [&mut checker]).unwrap();
        prop_assert!(checker.finished);
        prop_assert_eq!(checker.instrs, summary.instrs);
        prop_assert_eq!(checker.last, summary.instrs);

        // Determinism.
        let again = run(&program, &input, &mut []).unwrap();
        prop_assert_eq!(summary, again);
    }

    #[test]
    fn random_programs_profile_and_replay(
        specs in program_strategy(),
        seed in 0u64..1000,
    ) {
        let program = build(&specs);
        let input = Input::new("fuzz", seed).with("n", 3);

        // Profile + record in one pass; the profiler must never panic
        // and the stored trace must replay into an identical profile.
        let mut profiler = CallLoopProfiler::new();
        let mut store = Vec::new();
        let mut writer = StoreWriter::with_block_budget(&mut store, 512);
        run(&program, &input, &mut [&mut profiler, &mut writer]).unwrap();
        writer.finish().unwrap();
        let live = profiler.into_graph().unwrap();

        let mut replayed_profiler = CallLoopProfiler::new();
        let report = StoreReader::from_bytes(store)
            .unwrap()
            .replay(&mut [&mut replayed_profiler])
            .unwrap();
        prop_assert!(report.is_clean());
        let replayed = replayed_profiler.into_graph().unwrap();

        prop_assert_eq!(live.edges().len(), replayed.edges().len());
        for edge in live.edges() {
            let from = live.node(edge.from).key;
            let to = live.node(edge.to).key;
            let rf = replayed.node_by_key(from).expect("node survives replay");
            let rt = replayed.node_by_key(to).expect("node survives replay");
            let redge = replayed.edge_between(rf, rt).expect("edge survives replay");
            prop_assert_eq!(redge.count(), edge.count());
            prop_assert_eq!(redge.avg(), edge.avg());
        }

        // Marker selection must be total on any profiled graph.
        let outcome = select_markers(&live, &SelectConfig::new(100));
        prop_assert_eq!(outcome.decisions.len(), live.edges().len());
        let limited = select_markers(&live, &SelectConfig::with_limit(100, 10_000));
        prop_assert!(limited.markers.len() <= live.edges().len() + program.loop_count());
    }

    #[test]
    fn corrupted_stores_yield_typed_errors(
        specs in program_strategy(),
        seed in 0u64..1000,
        corrupt_seed in 0u64..10_000,
        flips in 1usize..8,
    ) {
        let program = build(&specs);
        let input = Input::new("fuzz", seed).with("n", 3);
        let mut store = Vec::new();
        let mut writer = StoreWriter::with_block_budget(&mut store, 512);
        run(&program, &input, &mut [&mut writer]).unwrap();
        writer.finish().unwrap();

        // Damage anywhere, header and footer included: opening and
        // replaying stay total — every outcome is a typed, renderable
        // error, or a replay that skips (and reports) damaged blocks.
        let c = TraceCorruptor::new(corrupt_seed);
        for damaged in [c.truncate(&store, 0), c.bit_flip(&store, 0, flips)] {
            let replayed = StoreReader::from_bytes(damaged)
                .and_then(|mut reader| reader.replay(&mut []));
            match replayed {
                Ok(report) => {
                    for skip in &report.skipped {
                        prop_assert!(!skip.error.to_string().is_empty());
                    }
                }
                Err(e) => prop_assert!(!e.to_string().is_empty()),
            }
        }
    }

    #[test]
    fn mutated_workload_sources_never_panic(
        specs in program_strategy(),
        muts in proptest::collection::vec((0usize..8192, 0u8..=255u8), 1..8),
        seed in 0u64..100,
    ) {
        // Round-trip a generated program through the text DSL, damage
        // the source, and push whatever still parses through the whole
        // pipeline: parse -> run -> profile -> select -> partition.
        // Typed errors and fixed-length fallbacks are fine; panics are
        // not.
        let program = build(&specs);
        let input = Input::new("fuzz", seed).with("n", 2);
        let mut src = write_workload(&program, &[input]).into_bytes();
        for (at, byte) in muts {
            let i = at % src.len();
            src[i] = byte;
        }
        if let Ok(text) = String::from_utf8(src) {
            if let Ok(parsed) = parse_workload(&text) {
                for input in parsed.inputs {
                    let mut profiler = CallLoopProfiler::new();
                    if run(&parsed.program, &input, &mut [&mut profiler]).is_err() {
                        continue;
                    }
                    if let Ok(graph) = profiler.into_graph() {
                        let outcome = select_markers(&graph, &SelectConfig::new(1_000));
                        let vlis = partition_with_fallback(
                            &outcome.markers,
                            &[],
                            10_000,
                            1_000,
                            outcome.degenerate_cov,
                        );
                        prop_assert!(vlis.fallback.is_some());
                    }
                }
            }
        }
    }
}
