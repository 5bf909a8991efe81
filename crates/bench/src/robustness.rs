//! Seed-robustness of the headline results.
//!
//! The workloads draw data-dependent trip counts and access patterns
//! from a seeded RNG; a reproduction claim is only credible if the
//! figure shapes survive a seed change. This harness re-runs the
//! Figure 9 computation (per-phase CoV of CPI with no-limit self
//! markers vs whole-program CoV) under several alternative input seeds
//! and reports the spread.

use crate::passes::profile;
use crate::table::{pct, Table};
use crate::{GRANULE, ILOWER};
use spm_core::{partition, select_markers, MarkerRuntime, SelectConfig, SpmError};
use spm_ir::Input;
use spm_sim::{run, Timeline, TraceObserver};
use spm_stats::{phase_cov, PhaseSample, Running};

/// Per-seed outcome of the Figure 9 computation for one workload.
#[derive(Debug, Clone, Copy)]
pub struct SeedOutcome {
    /// RNG seed used for the ref input.
    pub seed: u64,
    /// Markers selected.
    pub markers: usize,
    /// Per-phase CoV of CPI.
    pub marker_cov: f64,
    /// Whole-program CoV of CPI over the same intervals.
    pub whole_cov: f64,
}

/// Runs one workload under an alternative ref seed.
///
/// # Errors
///
/// Propagates workload-build, engine, and profiler failures.
pub fn seed_outcome(name: &str, seed: u64) -> Result<SeedOutcome, SpmError> {
    let w = crate::workload(name)?;
    // Same parameters, different seed.
    let mut input = Input::new("ref", seed);
    for (key, value) in w.ref_input.params() {
        input = input.with(key, value);
    }

    let graph = profile(&w.program, &input)?;
    let markers = select_markers(&graph, &SelectConfig::new(ILOWER)).markers;
    let mut runtime = MarkerRuntime::new(&markers);
    let mut timeline = Timeline::new(GRANULE);
    let total = {
        let mut observers: Vec<&mut dyn TraceObserver> = vec![&mut runtime, &mut timeline];
        run(&w.program, &input, &mut observers)?.instrs
    };
    let vlis = partition(&runtime.firings(), total);
    let samples: Vec<PhaseSample> = vlis
        .iter()
        .map(|v| PhaseSample {
            phase: v.phase,
            value: timeline.cpi(v.begin..v.end),
            weight: v.len() as f64,
        })
        .collect();
    let whole: Vec<(f64, f64)> = samples.iter().map(|s| (s.value, s.weight)).collect();
    Ok(SeedOutcome {
        seed,
        markers: markers.len(),
        marker_cov: phase_cov(&samples),
        whole_cov: spm_stats::whole_program_cov(&whole),
    })
}

/// The seeds used by the robustness sweep (the suite's own seeds are
/// different, so every run here is "unseen").
pub const SEEDS: [u64; 5] = [101, 202, 303, 404, 505];

/// Renders the robustness table for a few representative workloads.
/// Every `(workload, seed)` pair fans out across the worker pool; rows
/// stay in workload order.
///
/// # Errors
///
/// Propagates the first failing pair's error (by workload-major order).
pub fn robustness_table() -> Result<String, SpmError> {
    let mut t = Table::new(
        "Robustness: Fig. 9 shape across 5 unseen input seeds (CoV of CPI over the same VLIs, classified vs unclassified)",
        &["bench", "marker CoV (mean±sd)", "whole CoV (mean±sd)", "min ratio"],
    );
    let names = ["gzip", "gcc", "mcf", "swim", "vpr"];
    let pairs: Vec<(&str, u64)> = names
        .iter()
        .flat_map(|&name| SEEDS.iter().map(move |&seed| (name, seed)))
        .collect();
    let all = spm_par::try_par_map(&pairs, |&(name, seed)| seed_outcome(name, seed))?;
    for (i, name) in names.iter().enumerate() {
        let outcomes = &all[i * SEEDS.len()..(i + 1) * SEEDS.len()];
        let mut marker = Running::new();
        let mut whole = Running::new();
        let mut min_ratio = f64::INFINITY;
        for o in outcomes {
            marker.push(o.marker_cov);
            whole.push(o.whole_cov);
            min_ratio = min_ratio.min(o.whole_cov / o.marker_cov.max(1e-9));
        }
        t.row(vec![
            name.to_string(),
            format!(
                "{} ± {}",
                pct(marker.mean()),
                pct(marker.population_stddev())
            ),
            format!("{} ± {}", pct(whole.mean()), pct(whole.population_stddev())),
            format!("{min_ratio:.1}x"),
        ]);
    }
    Ok(t.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_survives_unseen_seeds() {
        // The paper's core claim must hold on seeds the workloads were
        // never tuned on: markers exist and beat whole-program CoV.
        for name in ["gzip", "gcc"] {
            for &seed in &SEEDS[..2] {
                let o = seed_outcome(name, seed).unwrap();
                assert!(o.markers > 0, "{name}/{seed}: no markers");
                assert!(
                    o.marker_cov < o.whole_cov,
                    "{name}/{seed}: {} !< {}",
                    o.marker_cov,
                    o.whole_cov
                );
            }
        }
    }
}
