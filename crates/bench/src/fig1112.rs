//! Figures 11 and 12: simulation time (instructions simulated) and CPI
//! error for fixed-length SimPoint at three interval sizes vs
//! marker-driven variable-length intervals at three coverage filters.

use crate::approaches::Metric;
use crate::passes::profile;
use crate::{ANALYSIS_SEED, GRANULE, LIMIT_MAX, LIMIT_MIN, PROJECTION_DIMS};
use spm_bbv::{Boundaries, IntervalBbv, IntervalBbvCollector};
use spm_core::{partition, MarkerRuntime, SelectConfig, SpmError, PRELUDE_PHASE};
use spm_sim::{run, Timeline, TraceObserver};
use spm_simpoint::{
    estimate, filter_top, pick_simpoints, relative_error, simulated_weight, SimPointConfig,
    SimPoints,
};
use spm_workloads::{behavior_suite, Workload};

/// The three fixed interval sizes (paper: 1M / 10M / 100M, scaled) with
/// their `k_max` (paper: 300 / 30 / 10, capped for tractability).
pub const FIXED_CONFIGS: [(&str, u64, usize); 3] = [
    ("SP_1K", 1_000, 50),
    ("SP_10K", 10_000, 30),
    ("SP_100K", 100_000, 10),
];

/// `k_max` for the VLI clustering.
pub const VLI_KMAX: usize = 30;

/// One benchmark's row for Figures 11 and 12.
#[derive(Debug)]
pub struct SimPointRow {
    /// Benchmark name.
    pub name: &'static str,
    /// `(config name, instructions simulated, CPI relative error)`.
    pub entries: Vec<(&'static str, f64, f64)>,
}

fn evaluate(
    intervals: &[IntervalBbv],
    timeline: &Timeline,
    sp: &SimPoints,
    truth: f64,
) -> (f64, f64) {
    let cpis: Vec<f64> = intervals
        .iter()
        .map(|iv| Metric::Cpi.eval(timeline, iv.begin, iv.end))
        .collect();
    let weights: Vec<f64> = intervals.iter().map(|iv| iv.len() as f64).collect();
    let est = estimate(&cpis, sp);
    (simulated_weight(&weights, sp), relative_error(est, truth))
}

/// Runs the SimPoint experiment for one workload.
///
/// # Errors
///
/// Propagates engine/profiler failures; clustering failures map to
/// [`SpmError::Analysis`].
pub fn simpoint_row(workload: &Workload) -> Result<SimPointRow, SpmError> {
    let program = &workload.program;

    // Limit-variant markers for the VLIs, selected on ref: the paper
    // notes these markers are input-specific and only advocates them
    // for SimPoint.
    let graph_ref = profile(program, &workload.ref_input)?;
    let markers =
        spm_core::select_markers(&graph_ref, &SelectConfig::with_limit(LIMIT_MIN, LIMIT_MAX))
            .markers;
    let mut runtime = MarkerRuntime::new(&markers);
    let total = run(program, &workload.ref_input, &mut [&mut runtime])?.instrs;
    let vlis = partition(&runtime.into_firings(), total);

    // Second ref pass: three fixed collectors + the VLI collector + the
    // metric timeline, all at once.
    let mut fixed: Vec<IntervalBbvCollector> = FIXED_CONFIGS
        .iter()
        .map(|&(_, size, _)| IntervalBbvCollector::new(program, Boundaries::Fixed(size)))
        .collect();
    let cuts: Vec<(u64, usize)> = vlis.iter().skip(1).map(|v| (v.begin, v.phase)).collect();
    let mut vli_collector = IntervalBbvCollector::new(
        program,
        Boundaries::Explicit {
            cuts,
            prelude_phase: PRELUDE_PHASE,
        },
    );
    let mut timeline = Timeline::new(GRANULE);
    {
        let mut observers: Vec<&mut dyn TraceObserver> = fixed
            .iter_mut()
            .map(|c| c as &mut dyn TraceObserver)
            .collect();
        observers.push(&mut vli_collector);
        observers.push(&mut timeline);
        run(program, &workload.ref_input, &mut observers)?;
    }
    let truth = timeline.overall_cpi();

    let mut entries = Vec::new();
    for ((name, _, kmax), collector) in FIXED_CONFIGS.iter().zip(fixed) {
        let intervals = collector.into_intervals();
        let vectors: Vec<Vec<f64>> = intervals.iter().map(|iv| iv.bbv.clone()).collect();
        let weights: Vec<f64> = intervals.iter().map(|iv| iv.len() as f64).collect();
        let sp = pick_simpoints(
            &vectors,
            &weights,
            &SimPointConfig::new(*kmax, PROJECTION_DIMS, ANALYSIS_SEED),
        )
        .map_err(|e| crate::analysis_error("fig1112/simpoint-fixed", e))?;
        let (instrs, err) = evaluate(&intervals, &timeline, &sp, truth);
        entries.push((*name, instrs, err));
    }

    let vli_intervals = vli_collector.into_intervals();
    let vectors: Vec<Vec<f64>> = vli_intervals.iter().map(|iv| iv.bbv.clone()).collect();
    let weights: Vec<f64> = vli_intervals.iter().map(|iv| iv.len() as f64).collect();
    let sp_full = pick_simpoints(
        &vectors,
        &weights,
        &SimPointConfig::new(VLI_KMAX, PROJECTION_DIMS, ANALYSIS_SEED),
    )
    .map_err(|e| crate::analysis_error("fig1112/simpoint-vli", e))?;
    for (name, fraction) in [("VLI_95%", 0.95), ("VLI_99%", 0.99), ("VLI_100%", 1.0)] {
        let sp = filter_top(&sp_full, fraction);
        let (instrs, err) = evaluate(&vli_intervals, &timeline, &sp, truth);
        entries.push((name, instrs, err));
    }

    Ok(SimPointRow {
        name: workload.name,
        entries,
    })
}

/// Computes rows for the whole behaviour suite. Workloads fan out
/// across the worker pool; rows stay in suite order.
///
/// # Errors
///
/// Propagates the first failing workload's error (by suite order).
pub fn compute_suite() -> Result<Vec<SimPointRow>, SpmError> {
    spm_par::try_par_map(&behavior_suite(), simpoint_row)
}

/// Figure 11: simulated instructions per configuration.
pub fn figure11(rows: &[SimPointRow]) -> String {
    render(rows, "Figure 11: simulated instructions (thousands)", |e| {
        format!("{:.1}", e.1 / 1e3)
    })
}

/// Figure 12: CPI relative error per configuration.
pub fn figure12(rows: &[SimPointRow]) -> String {
    render(rows, "Figure 12: CPI relative error", |e| {
        format!("{:.2}%", e.2 * 100.0)
    })
}

fn render(
    rows: &[SimPointRow],
    title: &str,
    cell: impl Fn(&(&'static str, f64, f64)) -> String,
) -> String {
    let mut header = vec!["bench"];
    header.extend(rows[0].entries.iter().map(|e| e.0));
    let mut t = crate::table::Table::new(title, &header);
    for row in rows {
        let mut cells = vec![row.name.to_string()];
        cells.extend(row.entries.iter().map(&cell));
        t.row(cells);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use spm_workloads::build;

    #[test]
    fn simpoint_row_shapes() {
        let w = build("art").unwrap();
        let row = simpoint_row(&w).unwrap();
        assert_eq!(row.entries.len(), 6);
        let by: std::collections::HashMap<&str, (f64, f64)> =
            row.entries.iter().map(|&(n, i, e)| (n, (i, e))).collect();
        // Smaller fixed intervals need fewer simulated instructions...
        assert!(by["SP_1K"].0 < by["SP_100K"].0);
        // ...and errors are small for a regular program.
        for (name, (instrs, err)) in &by {
            assert!(*instrs > 0.0, "{name}");
            assert!(*err < 0.25, "{name}: error {err}");
        }
        // Filters trade simulation time monotonically.
        assert!(by["VLI_95%"].0 <= by["VLI_99%"].0);
        assert!(by["VLI_99%"].0 <= by["VLI_100%"].0);
    }
}
