//! Ablation studies for the reproduction's documented design choices
//! (DESIGN.md §7): the CoV-threshold floor, the `ilower` granularity
//! knob, the locality baseline's window size, and SimPoint's BIC
//! fraction.

use crate::approaches::Metric;
use crate::passes::{profile, timeline};
use crate::table::Table;
use spm_core::{partition, select_markers, MarkerRuntime, SelectConfig, SpmError};
use spm_reuse::{LocalityAnalysis, ReuseSignalCollector};
use spm_sim::run;
use spm_stats::{phase_cov, PhaseSample};

/// Sweeps the CoV-threshold floor: markers selected, phases detected,
/// and per-phase CoV of CPI for one regular and one irregular program.
/// Floors fan out across the worker pool; rows stay in sweep order.
///
/// # Errors
///
/// Propagates the first failing floor's error (by sweep order).
pub fn ablate_cov_floor() -> Result<String, SpmError> {
    let floors = [0.0, 0.01, 0.02, 0.05, 0.10, 0.20];
    let mut t = Table::new(
        "Ablation: SelectConfig::cov_floor (markers / phases / CoV CPI)",
        &["floor", "gzip", "", "", "bzip2", "", ""],
    );
    let rows = spm_par::try_par_map(&floors, |&floor| -> Result<Vec<String>, SpmError> {
        let mut row = vec![format!("{floor:.2}")];
        for name in ["gzip", "bzip2"] {
            let w = crate::workload(name)?;
            let graph = profile(&w.program, &w.ref_input)?;
            let config = SelectConfig {
                cov_floor: floor,
                ..SelectConfig::new(10_000)
            };
            let markers = select_markers(&graph, &config).markers;
            let mut rt = MarkerRuntime::new(&markers);
            let total = run(&w.program, &w.ref_input, &mut [&mut rt])?.instrs;
            let vlis = partition(&rt.firings(), total);
            let (tl, _) = timeline(&w.program, &w.ref_input)?;
            let samples: Vec<PhaseSample> = vlis
                .iter()
                .map(|v| PhaseSample {
                    phase: v.phase,
                    value: Metric::Cpi.eval(&tl, v.begin, v.end),
                    weight: v.len() as f64,
                })
                .collect();
            row.push(markers.len().to_string());
            row.push(spm_core::marker::phase_count(&vlis).to_string());
            row.push(format!("{:.2}%", phase_cov(&samples) * 100.0));
        }
        Ok(row)
    })?;
    for row in rows {
        t.row(row);
    }
    Ok(t.render())
}

/// Sweeps `ilower`: the average interval size and phase count scale
/// with the requested granularity (the paper's "large or small scale
/// behaviors" knob). The profile is shared; the per-value marker runs
/// fan out across the worker pool.
///
/// # Errors
///
/// Propagates the first failing value's error (by sweep order).
pub fn ablate_ilower() -> Result<String, SpmError> {
    let values = [1_000u64, 5_000, 10_000, 50_000, 100_000];
    let mut t = Table::new(
        "Ablation: ilower (gzip; avg interval / intervals / phases)",
        &["ilower", "avg_len", "intervals", "phases"],
    );
    let w = crate::workload("gzip")?;
    let graph = profile(&w.program, &w.ref_input)?;
    let rows = spm_par::try_par_map(&values, |&ilower| -> Result<Vec<String>, SpmError> {
        let markers = select_markers(&graph, &SelectConfig::new(ilower)).markers;
        let mut rt = MarkerRuntime::new(&markers);
        let total = run(&w.program, &w.ref_input, &mut [&mut rt])?.instrs;
        let vlis = partition(&rt.firings(), total);
        Ok(vec![
            ilower.to_string(),
            format!("{:.0}", spm_core::marker::avg_interval_len(&vlis)),
            vlis.len().to_string(),
            spm_core::marker::phase_count(&vlis).to_string(),
        ])
    })?;
    for row in rows {
        t.row(row);
    }
    Ok(t.render())
}

/// Sweeps the locality baseline's signal window: too coarse a window
/// blurs boundaries, too fine a window drowns them in noise. Windows
/// fan out across the worker pool; rows stay in sweep order.
///
/// # Errors
///
/// Propagates the first failing window's error (by sweep order).
pub fn ablate_locality_window() -> Result<String, SpmError> {
    let windows = [128usize, 256, 512, 1024, 2048];
    let mut t = Table::new(
        "Ablation: reuse-signal window (markers found per program)",
        &["window", "applu", "mesh", "swim", "tomcatv", "gcc"],
    );
    let rows = spm_par::try_par_map(&windows, |&window| -> Result<Vec<String>, SpmError> {
        let mut row = vec![window.to_string()];
        for name in ["applu", "mesh", "swim", "tomcatv", "gcc"] {
            let w = crate::workload(name)?;
            let mut collector = ReuseSignalCollector::new(window);
            run(&w.program, &w.train_input, &mut [&mut collector])?;
            let analysis = LocalityAnalysis::analyze(&collector);
            row.push(analysis.markers.len().to_string());
        }
        Ok(row)
    })?;
    for row in rows {
        t.row(row);
    }
    Ok(t.render())
}

/// Renders all ablations.
///
/// # Errors
///
/// Propagates the first failing sweep's error.
pub fn all() -> Result<String, SpmError> {
    let mut out = ablate_cov_floor()?;
    out.push('\n');
    out.push_str(&ablate_ilower()?);
    out.push('\n');
    out.push_str(&ablate_locality_window()?);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spm_workloads::build;

    #[test]
    fn ilower_controls_granularity() {
        let table = ablate_ilower().unwrap();
        // Parse the avg_len column and check it is non-decreasing.
        let lens: Vec<f64> = table
            .lines()
            .skip(3)
            .filter_map(|l| {
                let fields: Vec<&str> = l.split_whitespace().collect();
                fields.get(1)?.parse().ok()
            })
            .collect();
        assert!(lens.len() >= 4, "table rows: {table}");
        assert!(
            lens.windows(2).all(|w| w[0] <= w[1] * 1.001),
            "avg interval length should grow with ilower: {lens:?}"
        );
    }

    #[test]
    fn zero_floor_starves_jittered_programs() {
        // The motivating failure for cov_floor: when every candidate
        // CoV sits in a tight band (gzip's 2-3% jitter), the average-CoV
        // base threshold rejects the half of the band above the mean,
        // including ideal markers like the deflate call.
        let w = build("gzip").unwrap();
        let graph = profile(&w.program, &w.ref_input).unwrap();
        let strict = SelectConfig {
            cov_floor: 0.0,
            ..SelectConfig::new(10_000)
        };
        let with_floor = SelectConfig::new(10_000);
        let n_strict = select_markers(&graph, &strict).markers.len();
        let n_floor = select_markers(&graph, &with_floor).markers.len();
        assert!(
            n_floor > n_strict,
            "floor should recover markers: {n_floor} !> {n_strict}"
        );
    }
}
