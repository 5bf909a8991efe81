//! Per-kind delivery in `spm_sim::run`: every observer names the data
//! kinds it reads (`TraceObserver::reads`), and the engine hands the
//! observers exactly the full stream filtered to the union of those
//! kinds, call-loop events and `Finish` always, with the same icounts,
//! the same `RunSummary`, and a `withheld` count that makes up the
//! rest. Checked for all 8 sets of kinds on every built-in workload and
//! every committed workload file, for both inputs; a profiler, which
//! reads no kind, must count the full stream and build the same graph
//! on every filtered run. Every observer that narrows its set must give
//! the same output alone as next to a full-stream reader.

use spm::bbv::{Boundaries, CodeSignatureCollector, IntervalBbvCollector, SignatureKind};
use spm::core::{select_markers, CallLoopGraph, CallLoopProfiler, MarkerRuntime, SelectConfig};
use spm::ir::{parse_workload, BlockId, Input, Program};
use spm::reuse::{ReuseMarkerRuntime, ReuseSignalCollector};
use spm::sim::{run, Reads, RunSummary, TraceEvent, TraceObserver};
use spm::workloads::{build, suite};
use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher;
use std::path::PathBuf;

/// The 8 sets of data kinds, in bit order: `NONE` first, `ALL` last.
fn subsets() -> Vec<Reads> {
    let kinds = [Reads::BLOCKS, Reads::MEM, Reads::BRANCHES];
    (0..8)
        .map(|bits| {
            (0..3)
                .filter(|i| bits >> i & 1 == 1)
                .fold(Reads::NONE, |set, i| set | kinds[i])
        })
        .collect()
}

/// Length and hash of a stream, so that streams of millions of events
/// compare without being held.
#[derive(Debug, Clone)]
struct Digest {
    events: u64,
    hash: DefaultHasher,
}

impl Default for Digest {
    fn default() -> Self {
        Self {
            events: 0,
            hash: DefaultHasher::new(),
        }
    }
}

impl Digest {
    fn add(&mut self, icount: u64, event: &TraceEvent) {
        let words = match *event {
            TraceEvent::BlockExec {
                block,
                instrs,
                base_cpi,
            } => [
                0,
                u64::from(block.0) | u64::from(instrs) << 32,
                base_cpi.to_bits(),
            ],
            TraceEvent::MemAccess { addr, write } => [1, addr, u64::from(write)],
            TraceEvent::Branch { branch, taken } => [2, u64::from(branch.0), u64::from(taken)],
            TraceEvent::Call { proc } => [3, u64::from(proc.0), 0],
            TraceEvent::Return { proc } => [4, u64::from(proc.0), 0],
            TraceEvent::LoopEnter { loop_id } => [5, u64::from(loop_id.0), 0],
            TraceEvent::LoopIter { loop_id } => [6, u64::from(loop_id.0), 0],
            TraceEvent::LoopExit { loop_id } => [7, u64::from(loop_id.0), 0],
            TraceEvent::Finish => [8, 0, 0],
        };
        self.events += 1;
        self.hash.write_u64(icount);
        for word in words {
            self.hash.write_u64(word);
        }
    }

    fn hash(&self) -> u64 {
        self.hash.finish()
    }
}

/// Reads the full stream and digests it filtered to each of the 8 sets.
struct FilteredDigests(Vec<(Reads, Digest)>);

impl TraceObserver for FilteredDigests {
    fn on_batch(&mut self, batch: &[(u64, TraceEvent)]) {
        for (icount, event) in batch {
            for (reads, digest) in &mut self.0 {
                if reads.admits(event) {
                    digest.add(*icount, event);
                }
            }
        }
    }
}

/// Digests what it is handed and counts what it is told was withheld;
/// reads the kinds in `reads`.
struct Delivered {
    reads: Reads,
    digest: Digest,
    withheld: u64,
}

impl TraceObserver for Delivered {
    fn on_batch(&mut self, batch: &[(u64, TraceEvent)]) {
        for (icount, event) in batch {
            self.digest.add(*icount, event);
        }
    }

    fn reads(&self) -> Reads {
        self.reads
    }

    fn withheld(&mut self, events: u64) {
        self.withheld += events;
    }
}

/// An edge's ends and stats (count, then the floats' bits).
type EdgeParts = (u32, u32, u64, [u64; 4]);

/// Node keys in id order, and edge ends and stats to the bit.
fn graph_parts(graph: &CallLoopGraph) -> (Vec<String>, Vec<EdgeParts>) {
    let nodes = graph
        .nodes()
        .iter()
        .map(|n| format!("{:?}", n.key))
        .collect();
    let edges = graph
        .edges()
        .iter()
        .map(|e| {
            let (count, mean, m2, min, max) = e.stats.into_parts();
            let floats = [mean, m2, min, max].map(f64::to_bits);
            (e.from.0, e.to.0, count, floats)
        })
        .collect();
    (nodes, edges)
}

fn assert_per_kind_delivery(label: &str, program: &Program, input: &Input) {
    let sets = subsets();
    let mut full = FilteredDigests(sets.iter().map(|&r| (r, Digest::default())).collect());
    let mut full_profiler = CallLoopProfiler::new();
    let full_summary: RunSummary =
        run(program, input, &mut [&mut full, &mut full_profiler]).unwrap();
    let events = full.0[7].1.events;
    assert_eq!(
        full_profiler.events(),
        events,
        "{label}: full-stream profiler"
    );
    let full_graph = graph_parts(&full_profiler.into_graph().unwrap());

    for (reads, expected) in full.0 {
        let mut delivered = Delivered {
            reads,
            digest: Digest::default(),
            withheld: 0,
        };
        let mut profiler = CallLoopProfiler::new();
        let summary = run(program, input, &mut [&mut delivered, &mut profiler]).unwrap();
        let label = format!("{label} {reads:?}");
        assert_eq!(summary, full_summary, "{label}: run summaries differ");
        assert_eq!(
            (delivered.digest.events, delivered.digest.hash()),
            (expected.events, expected.hash()),
            "{label}: delivered stream vs the full stream filtered"
        );
        assert_eq!(
            delivered.withheld + delivered.digest.events,
            events,
            "{label}"
        );
        assert_eq!(profiler.events(), events, "{label}: profiler events");
        let graph = profiler.into_graph().unwrap();
        assert!(graph_parts(&graph) == full_graph, "{label}: graphs differ");
    }
}

#[test]
fn every_builtin_workload_delivers_its_call_loop_subsequence() {
    for w in suite() {
        for input in [&w.train_input, &w.ref_input] {
            let label = format!("{} {}", w.name, input.name());
            assert_per_kind_delivery(&label, &w.program, input);
        }
    }
}

fn workload_files() -> Vec<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("workloads");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "spm"))
        .collect();
    files.sort();
    assert!(files.len() >= 4, "committed workload suite shrank");
    files
}

#[test]
fn every_workload_file_delivers_its_call_loop_subsequence() {
    for file in workload_files() {
        let parsed = parse_workload(&std::fs::read_to_string(&file).unwrap()).unwrap();
        for name in ["train", "ref"] {
            let input = parsed
                .input(name)
                .unwrap_or_else(|| panic!("{}: no {name} input", file.display()));
            let label = format!("{} {name}", file.display());
            assert_per_kind_delivery(&label, &parsed.program, input);
        }
    }
}

/// Records what it is handed; reads call-loop events only.
#[derive(Default)]
struct CallLoopTape(Vec<(u64, TraceEvent)>);

impl TraceObserver for CallLoopTape {
    fn on_batch(&mut self, batch: &[(u64, TraceEvent)]) {
        self.0.extend_from_slice(batch);
    }

    fn reads(&self) -> Reads {
        Reads::NONE
    }
}

#[test]
fn a_data_reader_gets_every_observer_the_full_stream() {
    let w = build("gzip").unwrap();
    let mut profiler = CallLoopProfiler::new();
    run(&w.program, &w.train_input, &mut [&mut profiler]).unwrap();
    let graph = profiler.into_graph().unwrap();
    let markers = select_markers(&graph, &SelectConfig::new(10_000)).markers;
    assert!(!markers.is_empty());

    let mut full: Vec<(u64, TraceEvent)> = Vec::new();
    let full_summary = run(&w.program, &w.train_input, &mut [&mut full]).unwrap();

    // A marker runtime next to a tape: both see the full stream, and the
    // runtime fires as it does alone on the call-loop path.
    let mut alone = MarkerRuntime::new(&markers);
    run(&w.program, &w.train_input, &mut [&mut alone]).unwrap();
    let mut runtime = MarkerRuntime::new(&markers);
    let mut tape: Vec<(u64, TraceEvent)> = Vec::new();
    let mut control = CallLoopTape::default();
    let summary = run(
        &w.program,
        &w.train_input,
        &mut [&mut runtime, &mut tape, &mut control],
    )
    .unwrap();
    assert_eq!(summary, full_summary);
    assert!(tape == full, "the tape missed events");
    assert!(
        control.0 == full,
        "the call-loop observer was not handed the full stream"
    );
    let firings = runtime.into_firings();
    assert!(!firings.is_empty());
    assert_eq!(firings, alone.into_firings());
}

/// Reads the full stream and counts it.
#[derive(Default)]
struct Rider(u64);

impl TraceObserver for Rider {
    fn on_batch(&mut self, batch: &[(u64, TraceEvent)]) {
        self.0 += batch.len() as u64;
    }
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// An interval's range, phase and vector, floats as bits.
type Interval = (u64, u64, usize, Vec<u64>);

/// The output of every narrowed observer of the root crate's libraries
/// over one run, floats as bits.
#[derive(Debug, PartialEq, Eq)]
struct Outputs {
    bbvs: Vec<Vec<Interval>>,
    signatures: Vec<Vec<(u64, u64, Vec<u64>)>>,
    reuse_windows: Vec<(u64, u64)>,
    reuse_blocks: Vec<(u64, BlockId)>,
    reuse_firings: Vec<(u64, usize)>,
}

/// Runs every narrowed observer over `input`, each group of observers
/// that read the same kinds in its own run (so each is handed only what
/// it reads), or all of them next to a full-stream rider.
fn narrowed_outputs(program: &Program, input: &Input, rider: bool) -> Outputs {
    let fixed = || IntervalBbvCollector::new(program, Boundaries::Fixed(100_000));
    let cuts: Vec<(u64, usize)> = (1..40).map(|i| (i * 250_000, i as usize % 3)).collect();
    let explicit = || {
        IntervalBbvCollector::new(
            program,
            Boundaries::Explicit {
                cuts: cuts.clone(),
                prelude_phase: 0,
            },
        )
    };
    let signature = |kind| CodeSignatureCollector::new(program, 100_000, kind);
    let marker_blocks: Vec<BlockId> = (0..program.block_count() as u32)
        .step_by(3)
        .map(BlockId)
        .collect();

    let (mut bbv_fixed, mut bbv_explicit) = (fixed(), explicit());
    let mut by_procs = signature(SignatureKind::ProceduresOnly);
    let mut by_loops = signature(SignatureKind::ProceduresAndLoops);
    let mut reuse_runtime = ReuseMarkerRuntime::new(&marker_blocks);
    let mut reuse = ReuseSignalCollector::new(4096);
    let mut full = Rider::default();
    let summary = {
        let mut blocks: Vec<&mut dyn TraceObserver> = vec![
            &mut bbv_fixed,
            &mut bbv_explicit,
            &mut by_procs,
            &mut by_loops,
            &mut reuse_runtime,
        ];
        for obs in &blocks {
            assert_eq!(obs.reads(), Reads::BLOCKS);
        }
        assert_eq!(reuse.reads(), Reads::BLOCKS | Reads::MEM);
        if rider {
            blocks.push(&mut reuse);
            blocks.push(&mut full);
            run(program, input, &mut blocks).unwrap()
        } else {
            let summary = run(program, input, &mut blocks).unwrap();
            assert_eq!(run(program, input, &mut [&mut reuse]).unwrap(), summary);
            summary
        }
    };
    if rider {
        let mut count = Rider::default();
        run(program, input, &mut [&mut count]).unwrap();
        assert_eq!(full.0, count.0, "the rider reads the full stream");
    }
    assert!(summary.instrs > 0);

    let bbvs = [bbv_fixed, bbv_explicit]
        .map(|c| {
            c.into_intervals()
                .into_iter()
                .map(|iv| (iv.begin, iv.end, iv.phase, bits(&iv.bbv)))
                .collect()
        })
        .to_vec();
    let signatures = [by_procs, by_loops]
        .map(|c| {
            c.into_intervals()
                .into_iter()
                .map(|s| (s.begin, s.end, bits(&s.vector)))
                .collect()
        })
        .to_vec();
    Outputs {
        bbvs,
        signatures,
        reuse_windows: reuse
            .windows()
            .iter()
            .map(|&(at, v)| (at, v.to_bits()))
            .collect(),
        reuse_blocks: reuse.block_execs().to_vec(),
        reuse_firings: reuse_runtime
            .into_firings()
            .into_iter()
            .map(|f| (f.icount, f.marker))
            .collect(),
    }
}

#[test]
fn narrowed_observers_match_a_full_stream_rider_on_every_ref_run() {
    for w in suite() {
        let narrowed = narrowed_outputs(&w.program, &w.ref_input, false);
        let ridden = narrowed_outputs(&w.program, &w.ref_input, true);
        assert!(!narrowed.bbvs[0].is_empty(), "{}: no intervals", w.name);
        assert!(narrowed == ridden, "{}: outputs differ", w.name);
    }
}
