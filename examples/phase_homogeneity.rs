//! Phase homogeneity: shows that marker-defined phases have far lower
//! CPI variation than the program as a whole (the paper's Figure 9 for
//! one benchmark).
//!
//! ```text
//! cargo run --release --example phase_homogeneity [workload]
//! ```

use spm::core::{partition, select_markers, CallLoopProfiler, MarkerRuntime, SelectConfig};
use spm::sim::{run, Timeline, TraceObserver};
use spm::stats::{phase_cov, PhaseSample};
use spm::workloads::build;

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "mgrid".to_string());
    let workload = build(&name).unwrap_or_else(|| {
        eprintln!(
            "unknown workload `{name}`; try one of {:?}",
            spm::workloads::ALL_NAMES
        );
        std::process::exit(1);
    });

    // Profile and select markers on the ref input.
    let mut profiler = CallLoopProfiler::new();
    run(&workload.program, &workload.ref_input, &mut [&mut profiler]).expect("runs");
    let markers =
        select_markers(&profiler.into_graph().unwrap(), &SelectConfig::new(10_000)).markers;

    // One pass: detect markers and record the metric timeline.
    let mut runtime = MarkerRuntime::new(&markers);
    let mut timeline = Timeline::new(1_000);
    let total = {
        let mut observers: Vec<&mut dyn TraceObserver> = vec![&mut runtime, &mut timeline];
        run(&workload.program, &workload.ref_input, &mut observers)
            .expect("runs")
            .instrs
    };
    let vlis = partition(&runtime.firings(), total);

    // Per-phase CoV of CPI, weighted by instructions.
    let samples: Vec<PhaseSample> = vlis
        .iter()
        .map(|v| PhaseSample {
            phase: v.phase,
            value: timeline.cpi(v.begin..v.end),
            weight: v.len() as f64,
        })
        .collect();
    let per_phase = phase_cov(&samples);

    // Whole-program CoV over fixed 10K-instruction intervals.
    let mut whole = Vec::new();
    let mut at = 0;
    while at < total {
        let end = (at + 10_000).min(total);
        whole.push((timeline.cpi(at..end), (end - at) as f64));
        at = end;
    }
    let whole_cov = spm::stats::whole_program_cov(&whole);

    println!("workload: {name}");
    println!("  overall CPI:            {:.3}", timeline.overall_cpi());
    println!("  markers selected:       {}", markers.len());
    println!(
        "  intervals / phases:     {} / {}",
        vlis.len(),
        spm::core::marker::phase_count(&vlis)
    );
    println!("  CoV of CPI per phase:   {:.2}%", per_phase * 100.0);
    println!("  whole-program CoV:      {:.2}%", whole_cov * 100.0);
    println!(
        "  -> phases are {:.0}x more homogeneous",
        whole_cov / per_phase.max(1e-9)
    );
}
