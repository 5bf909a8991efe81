//! Invariants of the trace/event substrate, checked across the whole
//! workload suite: balanced nesting, monotone instruction counts,
//! agreement between independent accountings of the same execution.

use spm::bbv::{Boundaries, IntervalBbvCollector, OnlineClassifier};
use spm::core::{partition, select_markers, CallLoopProfiler, MarkerRuntime, SelectConfig};
use spm::ir::{BlockId, LoopId, ProcId};
use spm::sim::{run, TraceEvent, TraceObserver};
use spm::workloads::suite;

/// Observer asserting structural well-formedness of the event stream.
#[derive(Default)]
struct NestingChecker {
    stack: Vec<(&'static str, u32)>,
    last_icount: u64,
    events: u64,
    finished: bool,
    /// Block ids seen, for the dense-id check.
    max_block: u32,
    in_iteration: Vec<bool>,
}

impl NestingChecker {
    fn step(&mut self, icount: u64, event: &TraceEvent) {
        assert!(icount >= self.last_icount, "icount must be monotone");
        assert!(!self.finished, "no events after Finish");
        self.last_icount = icount;
        self.events += 1;
        match *event {
            TraceEvent::Call { proc } => {
                self.stack.push(("proc", proc.0));
            }
            TraceEvent::Return { proc } => {
                assert_eq!(
                    self.stack.pop(),
                    Some(("proc", proc.0)),
                    "unbalanced return"
                );
            }
            TraceEvent::LoopEnter { loop_id } => {
                self.stack.push(("loop", loop_id.0));
                self.in_iteration.push(false);
            }
            TraceEvent::LoopIter { loop_id } => {
                assert_eq!(
                    self.stack.last(),
                    Some(&("loop", loop_id.0)),
                    "iteration outside its loop"
                );
                *self.in_iteration.last_mut().expect("loop open") = true;
            }
            TraceEvent::LoopExit { loop_id } => {
                assert_eq!(
                    self.stack.pop(),
                    Some(("loop", loop_id.0)),
                    "unbalanced exit"
                );
                self.in_iteration.pop();
            }
            TraceEvent::BlockExec { block, instrs, .. } => {
                assert!(instrs > 0, "empty blocks are not emitted");
                self.max_block = self.max_block.max(block.0);
            }
            TraceEvent::MemAccess { addr, .. } => {
                assert!(addr >= 1 << 28, "addresses live in region space");
            }
            TraceEvent::Branch { .. } => {}
            TraceEvent::Finish => {
                assert!(self.stack.is_empty(), "events still open at Finish");
                self.finished = true;
            }
        }
    }
}

impl TraceObserver for NestingChecker {
    fn on_batch(&mut self, batch: &[(u64, TraceEvent)]) {
        for (icount, event) in batch {
            self.step(*icount, event);
        }
    }
}

#[test]
fn event_streams_are_well_formed_for_every_workload() {
    for w in suite() {
        let mut checker = NestingChecker::default();
        let summary = run(&w.program, &w.train_input, &mut [&mut checker]).unwrap();
        assert!(checker.finished, "{}: missing Finish", w.name);
        assert_eq!(checker.last_icount, summary.instrs, "{}", w.name);
        assert!(
            (checker.max_block as usize) < w.program.block_count(),
            "{}: block ids must be dense",
            w.name
        );
        let _ = (ProcId(0), LoopId(0), BlockId(0));
    }
}

#[test]
fn bbv_collector_accounts_every_instruction() {
    for w in suite().into_iter().take(6) {
        let mut collector = IntervalBbvCollector::new(&w.program, Boundaries::Fixed(10_000));
        let summary = run(&w.program, &w.train_input, &mut [&mut collector]).unwrap();
        let intervals = collector.into_intervals();
        let covered: u64 = intervals.iter().map(|iv| iv.len()).sum();
        assert_eq!(
            covered, summary.instrs,
            "{}: intervals must tile execution",
            w.name
        );
        for iv in &intervals {
            let sum: f64 = iv.bbv.iter().sum();
            assert!(
                (sum - 1.0).abs() < 1e-9,
                "{}: BBV must be normalized",
                w.name
            );
        }
    }
}

#[test]
fn collector_with_explicit_cuts_matches_partition() {
    // The two independent interval constructions — `partition` over
    // firings and the BBV collector over explicit cuts — must agree on
    // every boundary and phase id.
    for name in ["gzip", "mgrid", "vortex"] {
        let w = spm::workloads::build(name).unwrap();
        let mut profiler = CallLoopProfiler::new();
        run(&w.program, &w.ref_input, &mut [&mut profiler]).unwrap();
        let markers =
            select_markers(&profiler.into_graph().unwrap(), &SelectConfig::new(10_000)).markers;
        let mut runtime = MarkerRuntime::new(&markers);
        let total = run(&w.program, &w.ref_input, &mut [&mut runtime])
            .unwrap()
            .instrs;
        let vlis = partition(&runtime.firings(), total);

        let cuts: Vec<(u64, usize)> = vlis.iter().skip(1).map(|v| (v.begin, v.phase)).collect();
        let mut collector = IntervalBbvCollector::new(
            &w.program,
            Boundaries::Explicit {
                cuts,
                prelude_phase: vlis[0].phase,
            },
        );
        run(&w.program, &w.ref_input, &mut [&mut collector]).unwrap();
        let intervals = collector.into_intervals();

        assert_eq!(intervals.len(), vlis.len(), "{name}");
        for (iv, vli) in intervals.iter().zip(&vlis) {
            assert_eq!(
                (iv.begin, iv.end, iv.phase),
                (vli.begin, vli.end, vli.phase),
                "{name}"
            );
        }
    }
}

#[test]
fn online_classifier_agrees_with_marker_phases_on_regular_program() {
    // On a clean two-phase program, the online signature classifier
    // discovers the same phase structure the markers define.
    let w = spm::workloads::build("art").unwrap();
    let mut profiler = CallLoopProfiler::new();
    run(&w.program, &w.ref_input, &mut [&mut profiler]).unwrap();
    let markers =
        select_markers(&profiler.into_graph().unwrap(), &SelectConfig::new(10_000)).markers;
    let mut runtime = MarkerRuntime::new(&markers);
    let total = run(&w.program, &w.ref_input, &mut [&mut runtime])
        .unwrap()
        .instrs;
    let vlis = partition(&runtime.firings(), total);
    let cuts: Vec<(u64, usize)> = vlis.iter().skip(1).map(|v| (v.begin, v.phase)).collect();
    let mut collector = IntervalBbvCollector::new(
        &w.program,
        Boundaries::Explicit {
            cuts,
            prelude_phase: vlis[0].phase,
        },
    );
    run(&w.program, &w.ref_input, &mut [&mut collector]).unwrap();
    let intervals = collector.into_intervals();

    let mut online = OnlineClassifier::new(0.5, 32);
    let online_ids: Vec<usize> = intervals
        .iter()
        .map(|iv| online.classify(&iv.bbv))
        .collect();

    // Same marker phase -> same online phase (ignoring tiny intervals,
    // whose vectors are dominated by a single block).
    use std::collections::HashMap;
    let mut mapping: HashMap<usize, usize> = HashMap::new();
    for (iv, &online_id) in intervals.iter().zip(&online_ids) {
        if iv.len() < 1_000 {
            continue;
        }
        let prev = mapping.insert(iv.phase, online_id);
        if let Some(prev) = prev {
            assert_eq!(
                prev, online_id,
                "marker phase {} mapped to two online phases",
                iv.phase
            );
        }
    }
    assert!(mapping.len() >= 2, "art has at least two major phases");
}
