//! Cross-crate integration tests: the full profile → select → detect →
//! partition → evaluate pipeline, exercised through the umbrella crate.

use spm::bbv::{Boundaries, IntervalBbvCollector};
use spm::core::{partition, select_markers, CallLoopProfiler, MarkerRuntime, SelectConfig};
use spm::ir::{Input, Program};
use spm::sim::{run, Timeline, TraceObserver};
use spm::simpoint::{estimate, pick_simpoints, relative_error, SimPointConfig};
use spm::workloads::build;

fn profile(program: &Program, input: &Input) -> spm::core::CallLoopGraph {
    let mut profiler = CallLoopProfiler::new();
    run(program, input, &mut [&mut profiler]).expect("workload runs");
    profiler.into_graph().unwrap()
}

#[test]
fn whole_pipeline_is_deterministic() {
    let w = build("gzip").unwrap();
    let run_once = || {
        let graph = profile(&w.program, &w.train_input);
        let markers = select_markers(&graph, &SelectConfig::new(10_000)).markers;
        let mut runtime = MarkerRuntime::new(&markers);
        let total = run(&w.program, &w.ref_input, &mut [&mut runtime])
            .unwrap()
            .instrs;
        (markers.len(), runtime.into_firings(), total)
    };
    let (m1, f1, t1) = run_once();
    let (m2, f2, t2) = run_once();
    assert_eq!(m1, m2);
    assert_eq!(f1, f2);
    assert_eq!(t1, t2);
}

#[test]
fn markers_selected_on_train_partition_ref() {
    // The paper's cross-input property: markers chosen on the small
    // train input detect the same phase structure on the larger ref
    // input — same phase ids, proportionally more intervals.
    let w = build("art").unwrap();
    let graph_train = profile(&w.program, &w.train_input);
    let markers = select_markers(&graph_train, &SelectConfig::new(10_000)).markers;
    assert!(!markers.is_empty());

    let firings_for = |input: &Input| {
        let mut runtime = MarkerRuntime::new(&markers);
        let total = run(&w.program, input, &mut [&mut runtime]).unwrap().instrs;
        (partition(&runtime.firings(), total), total)
    };
    let (train_vlis, train_total) = firings_for(&w.train_input);
    let (ref_vlis, ref_total) = firings_for(&w.ref_input);

    let phases = |vlis: &[spm::core::Vli]| {
        let mut p: Vec<usize> = vlis.iter().map(|v| v.phase).collect();
        p.sort_unstable();
        p.dedup();
        p
    };
    assert_eq!(
        phases(&train_vlis),
        phases(&ref_vlis),
        "the same phases appear on both inputs"
    );
    // Interval counts scale roughly with execution length (art's epochs).
    let ratio = ref_vlis.len() as f64 / train_vlis.len() as f64;
    let len_ratio = ref_total as f64 / train_total as f64;
    assert!(
        (ratio / len_ratio - 1.0).abs() < 0.25,
        "interval counts should scale with input size: {ratio} vs {len_ratio}"
    );
}

#[test]
fn vli_simpoints_estimate_cpi() {
    // End-to-end SimPoint-with-markers: the weighted estimate from a
    // handful of simulation points reproduces whole-program CPI.
    let w = build("mgrid").unwrap();
    let graph = profile(&w.program, &w.ref_input);
    let markers = select_markers(&graph, &SelectConfig::with_limit(10_000, 200_000)).markers;
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
            prelude_phase: spm::core::PRELUDE_PHASE,
        },
    );
    let mut timeline = Timeline::new(1_000);
    {
        let mut observers: Vec<&mut dyn TraceObserver> = vec![&mut collector, &mut timeline];
        run(&w.program, &w.ref_input, &mut observers).unwrap();
    }
    let intervals = collector.into_intervals();
    assert!(intervals.len() > 10);

    let vectors: Vec<Vec<f64>> = intervals.iter().map(|iv| iv.bbv.clone()).collect();
    let weights: Vec<f64> = intervals.iter().map(|iv| iv.len() as f64).collect();
    let sp = pick_simpoints(&vectors, &weights, &SimPointConfig::new(15, 15, 99)).unwrap();
    let cpis: Vec<f64> = intervals
        .iter()
        .map(|iv| timeline.cpi(iv.begin..iv.end))
        .collect();
    let err = relative_error(estimate(&cpis, &sp), timeline.overall_cpi());
    assert!(err < 0.05, "CPI error {err} too high for a regular program");
    // Simulating only the representatives is far cheaper than full
    // simulation.
    let simulated: f64 = sp.clusters.iter().map(|c| weights[c.representative]).sum();
    assert!(
        simulated < 0.2 * total as f64,
        "simulated {simulated} of {total}"
    );
}

#[test]
fn marker_firings_match_graph_edge_counts() {
    // A marker placed on an edge must fire exactly as many times as the
    // profiler counted traversals of that edge, when run on the same
    // input.
    let w = build("swim").unwrap();
    let graph = profile(&w.program, &w.ref_input);
    let outcome = select_markers(&graph, &SelectConfig::new(10_000));

    let mut runtime = MarkerRuntime::new(&outcome.markers);
    run(&w.program, &w.ref_input, &mut [&mut runtime]).unwrap();
    let firings = runtime.into_firings();

    for (id, marker) in outcome.markers.iter() {
        let fired = firings.iter().filter(|f| f.marker == id).count() as u64;
        if let spm::core::Marker::Edge { from, to } = marker {
            let from = graph.node_by_key(from).expect("selected node exists");
            let to = graph.node_by_key(to).expect("selected node exists");
            let edge = graph.edge_between(from, to).expect("selected edge exists");
            assert_eq!(fired, edge.count(), "marker {marker} firing count");
        }
    }
}

#[test]
fn every_workload_yields_markers() {
    // The paper's core claim: code-structure analysis finds phase
    // markers in *every* program examined, including the irregular ones
    // that defeat data-driven approaches.
    for w in spm::workloads::suite() {
        let graph = profile(&w.program, &w.ref_input);
        let outcome = select_markers(&graph, &SelectConfig::new(10_000));
        assert!(
            !outcome.markers.is_empty(),
            "{}: no markers selected (candidates: {})",
            w.name,
            outcome.candidate_edges
        );
        let mut runtime = MarkerRuntime::new(&outcome.markers);
        let total = run(&w.program, &w.ref_input, &mut [&mut runtime])
            .unwrap()
            .instrs;
        let vlis = partition(&runtime.firings(), total);
        assert!(vlis.len() >= 2, "{}: markers never fired", w.name);
    }
}

#[test]
fn dsl_export_preserves_behaviour_for_every_workload() {
    // write_workload(parse_workload(...)) round trip at suite scale:
    // the exported DSL reparses into a program whose execution summary
    // matches the original on the train input exactly.
    for w in spm::workloads::suite() {
        let text = spm::ir::write_workload(&w.program, std::slice::from_ref(&w.train_input));
        let reparsed = spm::ir::parse_workload(&text)
            .unwrap_or_else(|e| panic!("{}: exported DSL must parse: {e}", w.name));
        assert_eq!(
            reparsed.program.block_sizes(),
            w.program.block_sizes(),
            "{}",
            w.name
        );
        let original = run(&w.program, &w.train_input, &mut []).unwrap();
        let round_tripped = run(&reparsed.program, &w.train_input, &mut []).unwrap();
        assert_eq!(
            original, round_tripped,
            "{}: behaviour must survive export",
            w.name
        );
    }
}
