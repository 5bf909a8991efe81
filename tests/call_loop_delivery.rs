//! Call-loop-only delivery in `spm_sim::run`: when every observer opts
//! out of data events, the engine must hand over exactly the call-loop
//! subsequence of the full stream, with the same icounts and the same
//! `RunSummary`, on every built-in workload and every committed
//! workload file, for both inputs. One observer that reads data events
//! gets every observer the full stream.

use spm::core::{select_markers, CallLoopProfiler, MarkerRuntime, SelectConfig};
use spm::ir::{parse_workload, Input, Program};
use spm::sim::{run, RunSummary, TraceEvent, TraceObserver};
use spm::workloads::{build, suite};
use std::path::PathBuf;

/// Records what it is handed; reads call-loop events only.
#[derive(Default)]
struct CallLoopTape(Vec<(u64, TraceEvent)>);

impl TraceObserver for CallLoopTape {
    fn on_batch(&mut self, batch: &[(u64, TraceEvent)]) {
        self.0.extend_from_slice(batch);
    }

    fn reads_data(&self) -> bool {
        false
    }
}

/// Reads the full stream and keeps its call-loop events, so the full
/// run's subsequence is built without holding the whole trace.
#[derive(Default)]
struct FilteredTape(Vec<(u64, TraceEvent)>);

impl TraceObserver for FilteredTape {
    fn on_batch(&mut self, batch: &[(u64, TraceEvent)]) {
        self.0
            .extend(batch.iter().filter(|(_, event)| !event.is_data()));
    }
}

fn assert_call_loop_delivery(label: &str, program: &Program, input: &Input) {
    let mut full = FilteredTape::default();
    let full_summary: RunSummary = run(program, input, &mut [&mut full]).unwrap();
    let mut control = CallLoopTape::default();
    let summary = run(program, input, &mut [&mut control]).unwrap();
    assert_eq!(summary, full_summary, "{label}: run summaries differ");
    assert!(
        control.0 == full.0,
        "{label}: {} delivered events vs {} call-loop events in the full stream",
        control.0.len(),
        full.0.len()
    );
    assert_eq!(control.0.last().map(|e| e.1), Some(TraceEvent::Finish));
}

#[test]
fn every_builtin_workload_delivers_its_call_loop_subsequence() {
    for w in suite() {
        for input in [&w.train_input, &w.ref_input] {
            let label = format!("{} {}", w.name, input.name());
            assert_call_loop_delivery(&label, &w.program, input);
        }
    }
}

#[test]
fn every_workload_file_delivers_its_call_loop_subsequence() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("workloads");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "spm"))
        .collect();
    files.sort();
    assert!(files.len() >= 4, "committed workload suite shrank");
    for file in files {
        let parsed = parse_workload(&std::fs::read_to_string(&file).unwrap()).unwrap();
        for name in ["train", "ref"] {
            let input = parsed
                .input(name)
                .unwrap_or_else(|| panic!("{}: no {name} input", file.display()));
            let label = format!("{} {name}", file.display());
            assert_call_loop_delivery(&label, &parsed.program, input);
        }
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
