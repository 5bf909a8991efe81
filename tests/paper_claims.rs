//! Integration tests pinning the paper's qualitative claims, one test
//! per claim, across crates.

use spm::core::{partition, select_markers, CallLoopProfiler, MarkerRuntime, SelectConfig};
use spm::ir::{compile, CompileConfig, Input, Program};
use spm::reuse::{LocalityAnalysis, ReuseSignalCollector};
use spm::sim::{run, Timeline, TraceObserver};
use spm::stats::{phase_cov, PhaseSample};
use spm::workloads::build;

fn profile(program: &Program, input: &Input) -> spm::core::CallLoopGraph {
    let mut profiler = CallLoopProfiler::new();
    run(program, input, &mut [&mut profiler]).expect("runs");
    profiler.into_graph().unwrap()
}

fn locality(program: &Program, input: &Input) -> LocalityAnalysis {
    let mut collector = ReuseSignalCollector::new(512);
    run(program, input, &mut [&mut collector]).expect("runs");
    LocalityAnalysis::analyze(&collector)
}

/// "We show that our approach can find phase behavior in all programs we
/// examine including gcc and vortex" — while the reuse-distance approach
/// "found it difficult to find structure in more complex programs".
#[test]
fn spm_succeeds_where_reuse_distance_fails() {
    for name in ["gcc", "vortex"] {
        let w = build(name).unwrap();
        let reuse = locality(&w.program, &w.train_input);
        assert!(
            reuse.markers.is_empty(),
            "{name}: the reuse baseline should fail (got {:?})",
            reuse.markers
        );
        let markers = select_markers(
            &profile(&w.program, &w.ref_input),
            &SelectConfig::new(10_000),
        )
        .markers;
        assert!(!markers.is_empty(), "{name}: SPM must still find markers");
        let mut rt = MarkerRuntime::new(&markers);
        let total = run(&w.program, &w.ref_input, &mut [&mut rt])
            .unwrap()
            .instrs;
        assert!(
            rt.firings().len() > 3,
            "{name}: markers must fire repeatedly"
        );
        let _ = total;
    }
}

/// The reuse baseline *does* find markers on the regular programs it was
/// designed for (the paper's applu/compress/mesh/swim/tomcatv).
#[test]
fn reuse_distance_handles_regular_programs() {
    for name in spm::workloads::CACHE_SUITE {
        let w = build(name).unwrap();
        let analysis = locality(&w.program, &w.train_input);
        assert!(
            analysis.found_structure && !analysis.markers.is_empty(),
            "{name}: baseline should find structure (regularity {:.3})",
            analysis.regularity
        );
    }
}

/// "In all cases, the average behavior variation within each phase is
/// much lower than the program's overall behavior variability."
#[test]
fn per_phase_cov_beats_whole_program_everywhere() {
    for w in spm::workloads::behavior_suite() {
        let markers = select_markers(
            &profile(&w.program, &w.ref_input),
            &SelectConfig::new(10_000),
        )
        .markers;
        let mut rt = MarkerRuntime::new(&markers);
        let mut tl = Timeline::new(1_000);
        let total = {
            let mut obs: Vec<&mut dyn TraceObserver> = vec![&mut rt, &mut tl];
            run(&w.program, &w.ref_input, &mut obs).unwrap().instrs
        };
        let vlis = partition(&rt.firings(), total);
        let samples: Vec<PhaseSample> = vlis
            .iter()
            .map(|v| PhaseSample {
                phase: v.phase,
                value: tl.cpi(v.begin..v.end),
                weight: v.len() as f64,
            })
            .collect();
        let per_phase = phase_cov(&samples);
        let whole: Vec<(f64, f64)> = vlis
            .iter()
            .map(|v| (tl.cpi(v.begin..v.end), v.len() as f64))
            .collect();
        let whole_cov = spm::stats::whole_program_cov(&whole);
        assert!(
            per_phase < whole_cov || whole_cov < 0.01,
            "{}: per-phase {per_phase} !< whole {whole_cov}",
            w.name
        );
    }
}

/// Section 6.2.1: a jointly selected marker set produces identical
/// marker traces on unoptimized and peak-optimized compilations.
#[test]
fn cross_compilation_traces_are_identical() {
    use spm::core::crossbin::{select_cross_binary, traces_match};
    for name in ["gzip", "mcf", "galgel"] {
        let w = build(name).unwrap();
        let bin_a = compile(&w.program, &CompileConfig::unoptimized());
        let bin_b = compile(&w.program, &CompileConfig::optimized());
        let cross = select_cross_binary(
            &profile(&bin_a, &w.ref_input),
            &bin_a,
            &profile(&bin_b, &w.ref_input),
            &bin_b,
            &SelectConfig::new(10_000),
        );
        assert!(
            !cross.markers_a.is_empty(),
            "{name}: joint selection found nothing"
        );
        let mut rt_a = MarkerRuntime::new(&cross.markers_a);
        run(&bin_a, &w.ref_input, &mut [&mut rt_a]).unwrap();
        let mut rt_b = MarkerRuntime::new(&cross.markers_b);
        run(&bin_b, &w.ref_input, &mut [&mut rt_b]).unwrap();
        assert!(
            traces_match(&rt_a.firings(), &rt_b.firings()),
            "{name}: traces diverged ({} vs {} firings)",
            rt_a.firings().len(),
            rt_b.firings().len()
        );
        assert!(!rt_a.firings().is_empty(), "{name}: markers never fired");
    }
}

/// Markers are portable across inputs: the paper's cross-train results
/// match self-train on regular programs.
#[test]
fn cross_train_equals_self_train_on_regular_programs() {
    for name in ["swim", "mgrid", "applu"] {
        let w = build(name).unwrap();
        let self_markers = select_markers(
            &profile(&w.program, &w.ref_input),
            &SelectConfig::new(10_000),
        )
        .markers;
        let cross_markers = select_markers(
            &profile(&w.program, &w.train_input),
            &SelectConfig::new(10_000),
        )
        .markers;
        let count = |markers: &spm::core::MarkerSet| {
            let mut rt = MarkerRuntime::new(markers);
            let total = run(&w.program, &w.ref_input, &mut [&mut rt])
                .unwrap()
                .instrs;
            partition(&rt.firings(), total).len()
        };
        let (self_n, cross_n) = (count(&self_markers), count(&cross_markers));
        let ratio = self_n.max(cross_n) as f64 / self_n.min(cross_n).max(1) as f64;
        assert!(
            ratio < 1.5,
            "{name}: cross/self interval counts diverge: {cross_n} vs {self_n}"
        );
    }
}
