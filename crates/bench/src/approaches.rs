//! The six phase-classification approaches compared in Figures 7–9, and
//! the shared per-workload computation.

use crate::passes::profile;
use crate::{
    ANALYSIS_SEED, BBV_FIXED, GRANULE, ILOWER, KMAX, LIMIT_MAX, LIMIT_MIN, PROJECTION_DIMS,
};
use spm_bbv::{Boundaries, IntervalBbvCollector};
use spm_core::{partition, MarkerRuntime, SelectConfig, SpmError, Vli};
use spm_sim::{run, Timeline, TraceObserver};
use spm_simpoint::{pick_simpoints, SimPointConfig};
use spm_stats::{phase_cov, PhaseSample};
use spm_workloads::Workload;

/// Names of the six approaches, in the paper's bar order.
pub const APPROACHES: [&str; 6] = [
    "BBV",
    "procs-cross",
    "procs-self",
    "nolimit-cross",
    "nolimit-self",
    "limit",
];

/// One classification of a workload's execution into phases.
#[derive(Debug, Clone)]
pub struct PhaseRun {
    /// The intervals with phase ids.
    pub intervals: Vec<Vli>,
    /// Number of distinct phase ids.
    pub num_phases: usize,
    /// Average interval length in instructions.
    pub avg_len: f64,
}

impl PhaseRun {
    fn from_vlis(intervals: Vec<Vli>) -> Self {
        let num_phases = spm_core::marker::phase_count(&intervals);
        let avg_len = spm_core::marker::avg_interval_len(&intervals);
        Self {
            intervals,
            num_phases,
            avg_len,
        }
    }

    /// The paper's per-phase CoV of a metric, instruction-weighted.
    pub fn cov_of(&self, timeline: &Timeline, metric: Metric) -> f64 {
        let samples: Vec<PhaseSample> = self
            .intervals
            .iter()
            .map(|v| PhaseSample {
                phase: v.phase,
                value: metric.eval(timeline, v.begin, v.end),
                weight: v.len() as f64,
            })
            .collect();
        phase_cov(&samples)
    }
}

/// Which per-interval metric to evaluate (the paper's "e.g., IPC,
/// cache miss rates, branch miss rates").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Cycles per instruction.
    Cpi,
    /// DL1 miss rate.
    MissRate,
    /// Branch misprediction rate.
    MispredictRate,
}

impl Metric {
    /// Evaluates the metric over an instruction range.
    pub fn eval(&self, timeline: &Timeline, begin: u64, end: u64) -> f64 {
        match self {
            Metric::Cpi => timeline.cpi(begin..end),
            Metric::MissRate => timeline.miss_rate(begin..end),
            Metric::MispredictRate => timeline.mispredict_rate(begin..end),
        }
    }
}

/// Everything Figures 7/8/9 need for one workload.
#[derive(Debug)]
pub struct BehaviorData {
    /// Workload name.
    pub name: &'static str,
    /// Metric timeline of the `ref` execution.
    pub timeline: Timeline,
    /// Total `ref` instructions.
    pub total: u64,
    /// `(approach name, classification)` in [`APPROACHES`] order.
    pub runs: Vec<(&'static str, PhaseRun)>,
}

impl BehaviorData {
    /// Whole-program CoV of a metric using fixed intervals of the given
    /// size (the paper's "whole program" reference bars).
    pub fn whole_program_cov(&self, interval: u64, metric: Metric) -> f64 {
        let mut samples = Vec::new();
        let mut begin = 0;
        while begin < self.total {
            let end = (begin + interval).min(self.total);
            samples.push(PhaseSample {
                phase: 0,
                value: metric.eval(&self.timeline, begin, end),
                weight: (end - begin) as f64,
            });
            begin = end;
        }
        phase_cov(&samples)
    }
}

/// Runs the full Figures 7–9 pipeline for one workload: profile train
/// and ref, select the five marker configurations, detect all marker
/// sets plus the fixed-length BBVs and the metric timeline in one `ref`
/// pass, and classify.
///
/// # Errors
///
/// Propagates engine/profiler failures; clustering failures map to
/// [`SpmError::Analysis`].
pub fn behavior_data(workload: &Workload) -> Result<BehaviorData, SpmError> {
    let program = &workload.program;
    let graph_train = profile(program, &workload.train_input)?;
    let graph_ref = profile(program, &workload.ref_input)?;

    let procs = SelectConfig::new(ILOWER).procedures_only();
    let nolimit = SelectConfig::new(ILOWER);
    let limit = SelectConfig::with_limit(LIMIT_MIN, LIMIT_MAX);
    let sets = [
        spm_core::select_markers(&graph_train, &procs).markers,
        spm_core::select_markers(&graph_ref, &procs).markers,
        spm_core::select_markers(&graph_train, &nolimit).markers,
        spm_core::select_markers(&graph_ref, &nolimit).markers,
        spm_core::select_markers(&graph_ref, &limit).markers,
    ];

    // One ref pass: five marker runtimes + timeline + fixed BBVs.
    let mut runtimes: Vec<MarkerRuntime> = sets.iter().map(MarkerRuntime::new).collect();
    let mut timeline = Timeline::new(GRANULE);
    let mut bbv = IntervalBbvCollector::new(program, Boundaries::Fixed(BBV_FIXED));
    let total = {
        let mut observers: Vec<&mut dyn TraceObserver> = runtimes
            .iter_mut()
            .map(|r| r as &mut dyn TraceObserver)
            .collect();
        observers.push(&mut timeline);
        observers.push(&mut bbv);
        run(program, &workload.ref_input, &mut observers)?.instrs
    };

    // BBV / SimPoint classification of the fixed intervals.
    let fixed = bbv.into_intervals();
    let vectors: Vec<Vec<f64>> = fixed.iter().map(|iv| iv.bbv.clone()).collect();
    let weights: Vec<f64> = fixed.iter().map(|iv| iv.len() as f64).collect();
    let sp = pick_simpoints(
        &vectors,
        &weights,
        &SimPointConfig::new(KMAX, PROJECTION_DIMS, ANALYSIS_SEED),
    )
    .map_err(|e| crate::analysis_error("fig789/simpoint", e))?;
    let bbv_run = PhaseRun::from_vlis(
        fixed
            .iter()
            .zip(&sp.assignments)
            .map(|(iv, &phase)| Vli {
                begin: iv.begin,
                end: iv.end,
                phase,
            })
            .collect(),
    );

    let mut runs = vec![("BBV", bbv_run)];
    for (name, runtime) in APPROACHES[1..].iter().zip(runtimes) {
        runs.push((
            name,
            PhaseRun::from_vlis(partition(&runtime.into_firings(), total)),
        ));
    }

    Ok(BehaviorData {
        name: workload.name,
        timeline,
        total,
        runs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spm_workloads::build;

    #[test]
    fn gzip_behavior_pipeline() {
        let w = build("gzip").unwrap();
        let data = behavior_data(&w).unwrap();
        assert_eq!(data.runs.len(), 6);
        let by_name: std::collections::HashMap<&str, &PhaseRun> =
            data.runs.iter().map(|(n, r)| (*n, r)).collect();

        // Procedures-only marks fewer, larger intervals than procs+loops.
        let procs = by_name["procs-self"];
        let full = by_name["nolimit-self"];
        assert!(
            procs.avg_len >= full.avg_len,
            "{} < {}",
            procs.avg_len,
            full.avg_len
        );

        // Every run tiles the execution.
        for (name, run) in &data.runs {
            assert_eq!(run.intervals.first().unwrap().begin, 0, "{name}");
            assert_eq!(run.intervals.last().unwrap().end, data.total, "{name}");
            assert!(run.num_phases >= 1, "{name}");
        }

        // Phase classifications beat whole-program variability on CPI.
        let whole = data.whole_program_cov(BBV_FIXED, Metric::Cpi);
        let marked = full.cov_of(&data.timeline, Metric::Cpi);
        assert!(
            marked < whole,
            "markers must reduce CoV: {marked} vs whole {whole}"
        );

        // The limit variant respects the max interval size (with slack
        // for the prelude and block-boundary snapping).
        let limit = by_name["limit"];
        for iv in &limit.intervals {
            assert!(
                iv.len() <= crate::LIMIT_MAX + crate::GRANULE,
                "interval of {} exceeds the limit",
                iv.len()
            );
        }
    }
}
