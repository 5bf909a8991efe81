//! Figure 10: average adaptive data-cache size under six phase
//! classifications, with no allowed increase in miss rate.

use crate::passes::{profile, BankTimeline};
use crate::{ANALYSIS_SEED, GRANULE, ILOWER, KMAX, PROJECTION_DIMS};
use spm_bbv::{Boundaries, IntervalBbvCollector};
use spm_cache::adaptive::{run_adaptive, AdaptiveOutcome, IntervalRecord, Tolerance};
use spm_core::{partition, MarkerRuntime, SelectConfig, SpmError, Vli};
use spm_reuse::{LocalityAnalysis, ReuseMarkerRuntime, ReuseSignalCollector};
use spm_sim::{run, TraceObserver};
use spm_simpoint::{pick_simpoints, SimPointConfig};
use spm_workloads::{Workload, CACHE_SUITE};

/// Fixed interval size for the idealized BBV/SimPoint comparison. The
/// paper's fixed intervals (10M instructions) were comparable to or
/// larger than these benchmarks' natural phase lengths, which is what
/// put the fixed intervals "out of sync with the phase behavior"; the
/// equivalent at our scale is 100K against phases of 40K-200K.
pub const FIG10_BBV_FIXED: u64 = 100_000;

/// Tolerated miss increase when choosing a smaller configuration: 2%
/// relative plus 5 percentage points of miss rate, absorbing the
/// phase-transition refills that are magnified at reproduction scale
/// (see [`Tolerance`]).
pub const MISS_TOLERANCE: Tolerance = Tolerance {
    relative: 0.02,
    absolute_rate: 0.05,
};

/// Results of the reconfiguration experiment for one benchmark.
#[derive(Debug)]
pub struct CacheRow {
    /// Benchmark name.
    pub name: &'static str,
    /// Average cache size in KB per approach:
    /// BBV, SPM-self, procs-cross, reuse-distance (None when the
    /// baseline finds no structure), SPM-cross.
    pub bbv: AdaptiveOutcome,
    /// SPM markers selected on ref.
    pub spm_self: AdaptiveOutcome,
    /// Procedures-only markers selected on train.
    pub procs_cross: AdaptiveOutcome,
    /// Shen et al. reuse-distance markers (trained on train input).
    pub reuse: Option<AdaptiveOutcome>,
    /// SPM markers selected on train.
    pub spm_cross: AdaptiveOutcome,
}

/// Builds the per-interval records (instrs, accesses, per-config
/// misses) for one classification from the bank timeline.
fn records(bank: &BankTimeline, intervals: &[Vli]) -> Vec<IntervalRecord> {
    intervals
        .iter()
        .map(|v| IntervalRecord {
            phase: v.phase,
            instrs: v.len(),
            accesses: bank.accesses(v.begin, v.end),
            misses: bank.misses(v.begin, v.end),
        })
        .collect()
}

/// Runs the Figure 10 experiment for one workload.
///
/// # Errors
///
/// Propagates engine/profiler failures; clustering failures map to
/// [`SpmError::Analysis`].
pub fn cache_row(workload: &Workload) -> Result<CacheRow, SpmError> {
    let program = &workload.program;
    let configs = spm_cache::reconfigurable_configs();

    // Marker selections.
    let graph_train = profile(program, &workload.train_input)?;
    let graph_ref = profile(program, &workload.ref_input)?;
    let nolimit = SelectConfig::new(ILOWER);
    let spm_self_set = spm_core::select_markers(&graph_ref, &nolimit).markers;
    let spm_cross_set = spm_core::select_markers(&graph_train, &nolimit).markers;
    let procs_cross_set =
        spm_core::select_markers(&graph_train, &nolimit.procedures_only()).markers;

    // Reuse-distance baseline, trained on the train input.
    let mut collector = ReuseSignalCollector::new(512);
    run(program, &workload.train_input, &mut [&mut collector])?;
    let locality = LocalityAnalysis::analyze(&collector);

    // One ref pass: cache bank + all marker runtimes + fixed BBVs.
    let mut bank = BankTimeline::new(GRANULE);
    let mut rt_self = MarkerRuntime::new(&spm_self_set);
    let mut rt_cross = MarkerRuntime::new(&spm_cross_set);
    let mut rt_procs = MarkerRuntime::new(&procs_cross_set);
    let mut rt_reuse = ReuseMarkerRuntime::new(&locality.markers);
    let mut bbv = IntervalBbvCollector::new(program, Boundaries::Fixed(FIG10_BBV_FIXED));
    let total = {
        let mut observers: Vec<&mut dyn TraceObserver> = vec![
            &mut bank,
            &mut rt_self,
            &mut rt_cross,
            &mut rt_procs,
            &mut rt_reuse,
            &mut bbv,
        ];
        run(program, &workload.ref_input, &mut observers)?.instrs
    };

    // BBV (idealized SimPoint) classification.
    let fixed = bbv.into_intervals();
    let vectors: Vec<Vec<f64>> = fixed.iter().map(|iv| iv.bbv.clone()).collect();
    let weights: Vec<f64> = fixed.iter().map(|iv| iv.len() as f64).collect();
    let sp = pick_simpoints(
        &vectors,
        &weights,
        &SimPointConfig::new(KMAX, PROJECTION_DIMS, ANALYSIS_SEED),
    )
    .map_err(|e| crate::analysis_error("fig10/simpoint", e))?;
    let bbv_intervals: Vec<Vli> = fixed
        .iter()
        .zip(&sp.assignments)
        .map(|(iv, &phase)| Vli {
            begin: iv.begin,
            end: iv.end,
            phase,
        })
        .collect();

    let adaptive = |intervals: &[Vli]| -> AdaptiveOutcome {
        run_adaptive(&configs, &records(&bank, intervals), MISS_TOLERANCE)
    };

    Ok(CacheRow {
        name: workload.name,
        bbv: adaptive(&bbv_intervals),
        spm_self: adaptive(&partition(&rt_self.into_firings(), total)),
        procs_cross: adaptive(&partition(&rt_procs.into_firings(), total)),
        reuse: if locality.markers.is_empty() {
            None
        } else {
            Some(adaptive(&partition(&rt_reuse.into_firings(), total)))
        },
        spm_cross: adaptive(&partition(&rt_cross.into_firings(), total)),
    })
}

/// Runs the experiment over the Figure 10 suite plus the gcc/vortex
/// sidebar and renders the table. Workloads fan out across the worker
/// pool; rows stay in suite order.
///
/// # Errors
///
/// Propagates the first failing workload's error (by suite order).
pub fn figure10() -> Result<String, SpmError> {
    let mut t = crate::table::Table::new(
        "Figure 10: average cache size (KB), no allowed miss-rate increase",
        &[
            "bench",
            "BBV",
            "SPM-Self",
            "Procs-Cross",
            "ReuseDist",
            "SPM-Cross",
            "BestFixed",
        ],
    );
    let mut names: Vec<&str> = CACHE_SUITE.to_vec();
    names.extend(["gcc", "vortex"]); // the paper's sidebar programs
    let mut sums = [0.0f64; 6];
    let mut reuse_count = 0usize;
    let rows = spm_par::try_par_map(&names, |name| cache_row(&crate::workload(name)?))?;
    for row in rows {
        let cells = [
            row.bbv.avg_size_kb,
            row.spm_self.avg_size_kb,
            row.procs_cross.avg_size_kb,
            row.reuse.as_ref().map_or(f64::NAN, |r| r.avg_size_kb),
            row.spm_cross.avg_size_kb,
            row.bbv.best_fixed_kb,
        ];
        for (i, &c) in cells.iter().enumerate() {
            if !c.is_nan() {
                sums[i] += c;
                if i == 3 {
                    reuse_count += 1;
                }
            }
        }
        t.row(vec![
            row.name.to_string(),
            format!("{:.1}", cells[0]),
            format!("{:.1}", cells[1]),
            format!("{:.1}", cells[2]),
            if cells[3].is_nan() {
                "n/a".into()
            } else {
                format!("{:.1}", cells[3])
            },
            format!("{:.1}", cells[4]),
            format!("{:.1}", cells[5]),
        ]);
    }
    let n = names.len() as f64;
    t.row(vec![
        "avg".into(),
        format!("{:.1}", sums[0] / n),
        format!("{:.1}", sums[1] / n),
        format!("{:.1}", sums[2] / n),
        if reuse_count == 0 {
            "n/a".into()
        } else {
            format!("{:.1}", sums[3] / reuse_count as f64)
        },
        format!("{:.1}", sums[4] / n),
        format!("{:.1}", sums[5] / n),
    ]);
    Ok(t.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_reconfiguration_beats_best_fixed() {
        let w = spm_workloads::build("mesh").unwrap();
        let row = cache_row(&w).unwrap();
        // SPM adaptive average size must undercut the best fixed size
        // (the point of Figure 10), without a large miss increase.
        assert!(
            row.spm_self.avg_size_kb < row.spm_self.best_fixed_kb,
            "{} !< {}",
            row.spm_self.avg_size_kb,
            row.spm_self.best_fixed_kb
        );
        // The policy's guarantee: the adaptive miss rate stays within
        // the configured tolerance of the best fixed configuration's.
        assert!(
            row.spm_self.miss_rate()
                <= row.spm_self.best_fixed_miss_rate() + MISS_TOLERANCE.absolute_rate,
            "adaptive miss rate {} vs fixed {}",
            row.spm_self.miss_rate(),
            row.spm_self.best_fixed_miss_rate()
        );
    }

    #[test]
    fn swim_cross_matches_self() {
        // The paper: "selecting markers from the train input is as
        // effective as selecting markers from the ref input" on these
        // regular programs.
        let w = spm_workloads::build("swim").unwrap();
        let row = cache_row(&w).unwrap();
        let diff = (row.spm_self.avg_size_kb - row.spm_cross.avg_size_kb).abs();
        assert!(
            diff < 32.0,
            "self {} vs cross {}",
            row.spm_self.avg_size_kb,
            row.spm_cross.avg_size_kb
        );
    }

    #[test]
    fn gcc_defeats_reuse_but_not_spm() {
        let w = spm_workloads::build("gcc").unwrap();
        let row = cache_row(&w).unwrap();
        assert!(row.reuse.is_none(), "reuse baseline should fail on gcc");
        // SPM still produces a classification (any average size is fine,
        // it must simply exist and respect the miss constraint loosely).
        assert!(row.spm_self.avg_size_kb > 0.0);
    }
}
