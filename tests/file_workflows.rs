//! Cross-session, file-based workflows: everything a deployment would
//! persist (graphs, marker sets, traces, workload sources) round-trips
//! through its text/byte format and keeps working.

use spm::core::text::{parse_graph, parse_markers, write_graph, write_markers};
use spm::core::{partition, select_markers, CallLoopProfiler, MarkerRuntime, SelectConfig};
use spm::sim::{run, TraceObserver};
use spm::workloads::build;
use spm_store::{StoreReader, StoreWriter};

/// Replays a whole trace store into `observer`.
fn replay(store: &[u8], observer: &mut dyn TraceObserver) {
    let report = StoreReader::from_bytes(store.to_vec())
        .unwrap()
        .replay(&mut [observer])
        .unwrap();
    assert!(report.is_clean());
}

/// Profile once, persist the graph, select offline, persist the
/// markers, detect online: the paper's deployment story, through files.
#[test]
fn profile_to_disk_select_offline_detect_online() {
    let w = build("mcf").unwrap();

    // Session 1: profile and persist the graph.
    let mut profiler = CallLoopProfiler::new();
    run(&w.program, &w.train_input, &mut [&mut profiler]).unwrap();
    let graph_text = write_graph(&profiler.into_graph().unwrap());

    // Session 2: load the graph, experiment with two configurations,
    // persist the chosen markers.
    let graph = parse_graph(&graph_text).expect("persisted graph parses");
    let coarse = select_markers(&graph, &SelectConfig::new(50_000));
    let fine = select_markers(&graph, &SelectConfig::new(10_000));
    assert!(fine.markers.len() >= coarse.markers.len());
    let marker_text = write_markers(&fine.markers);

    // Session 3: load the markers and detect on the ref input.
    let markers = parse_markers(&marker_text).expect("persisted markers parse");
    let mut runtime = MarkerRuntime::new(&markers);
    let total = run(&w.program, &w.ref_input, &mut [&mut runtime])
        .unwrap()
        .instrs;
    let vlis = partition(&runtime.firings(), total);
    assert!(vlis.len() > 10, "markers must fire after two round-trips");

    // The file round-trip must not have changed the selection: markers
    // selected directly partition identically.
    let mut direct = MarkerRuntime::new(&fine.markers);
    run(&w.program, &w.ref_input, &mut [&mut direct]).unwrap();
    assert_eq!(direct.firings(), runtime.firings());
}

/// Record a trace store once, then run *both* the profiler and marker
/// detection from the stored bytes — no program needed.
#[test]
fn analyses_from_recorded_trace_match_live() {
    let w = build("tomcatv").unwrap();

    // Live: profile + record in one pass.
    let mut profiler = CallLoopProfiler::new();
    let mut trace = Vec::new();
    let mut writer = StoreWriter::new(&mut trace);
    run(&w.program, &w.ref_input, &mut [&mut profiler, &mut writer]).unwrap();
    writer.finish().unwrap();
    let live_graph = profiler.into_graph().unwrap();

    // Offline: select markers from a replayed profile, then detect them
    // in a second replay.
    let mut replayed_profiler = CallLoopProfiler::new();
    replay(&trace, &mut replayed_profiler);
    let offline_graph = replayed_profiler.into_graph().unwrap();
    let live_sel = select_markers(&live_graph, &SelectConfig::new(10_000));
    let offline_sel = select_markers(&offline_graph, &SelectConfig::new(10_000));
    assert_eq!(live_sel.markers.len(), offline_sel.markers.len());

    let mut runtime = MarkerRuntime::new(&offline_sel.markers);
    replay(&trace, &mut runtime);
    assert!(!runtime.firings().is_empty(), "markers fire during replay");

    // And the same markers fired at the same points as a live run.
    let mut live_runtime = MarkerRuntime::new(&live_sel.markers);
    run(&w.program, &w.ref_input, &mut [&mut live_runtime]).unwrap();
    assert_eq!(live_runtime.firings().len(), runtime.firings().len());
}

/// The DOT export stays in sync with the graph and markers it renders.
#[test]
fn dot_export_mentions_every_selected_marker_edge() {
    use spm::core::text::graph_to_dot;
    let w = build("gzip").unwrap();
    let mut profiler = CallLoopProfiler::new();
    run(&w.program, &w.train_input, &mut [&mut profiler]).unwrap();
    let graph = profiler.into_graph().unwrap();
    let outcome = select_markers(&graph, &SelectConfig::new(10_000));
    let dot = graph_to_dot(&graph, Some(&outcome.markers));
    let highlighted = dot.lines().filter(|l| l.contains("color=red")).count();
    let edge_markers = outcome
        .markers
        .iter()
        .filter(|(_, m)| matches!(m, spm::core::Marker::Edge { .. }))
        .count();
    assert_eq!(highlighted, edge_markers, "one red edge per edge marker");
    // Every graph edge appears exactly once.
    assert_eq!(
        dot.matches(" -> ").count(),
        graph.edges().len(),
        "DOT must render all edges"
    );
}
