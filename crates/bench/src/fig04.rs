//! Figure 4 and Section 6.2.1: cross-binary phase markers.
//!
//! Figure 4 maps markers selected on one binary ("Alpha") onto a second
//! compilation of the same source ("x86") through source locations and
//! shows they detect the same high-level patterns. Section 6.2.1
//! verifies that a jointly selected marker set produces **identical
//! marker traces** on unoptimized and peak-optimized builds.

use crate::passes::profile;
use crate::workload;
use crate::{GRANULE, ILOWER};
use spm_core::crossbin::{select_cross_binary, traces_match};
use spm_core::{MarkerRuntime, SelectConfig, SpmError};
use spm_ir::{compile, CompileConfig};
use spm_sim::{run, Timeline, TraceObserver};
use spm_workloads::suite;

/// Result of the cross-ISA experiment for one workload.
#[derive(Debug)]
pub struct CrossIsa {
    /// Markers selected (joint over both binaries).
    pub num_markers: usize,
    /// Firings on binary A / binary B.
    pub firings: (usize, usize),
    /// Whether the two marker traces are identical sequences.
    pub traces_identical: bool,
    /// `(icount, miss rate)` samples of binary B with no analysis ever
    /// run on it, plus the mapped marker firing positions.
    pub b_samples: Vec<(u64, f64)>,
    /// Marker firing icounts on binary B.
    pub b_firings: Vec<u64>,
}

/// Runs the Figure 4 experiment: select markers on binary A (compiled
/// with `config_a`), map them through source locations to binary B
/// (`config_b`), and measure binary B's miss-rate series with the
/// mapped markers.
///
/// # Errors
///
/// Propagates workload-build, engine, and profiler failures.
pub fn cross_isa(
    name: &str,
    config_a: &CompileConfig,
    config_b: &CompileConfig,
) -> Result<CrossIsa, SpmError> {
    let w = workload(name)?;
    let bin_a = compile(&w.program, config_a);
    let bin_b = compile(&w.program, config_b);

    let graph_a = profile(&bin_a, &w.ref_input)?;
    let graph_b = profile(&bin_b, &w.ref_input)?;
    let cross = select_cross_binary(
        &graph_a,
        &bin_a,
        &graph_b,
        &bin_b,
        &SelectConfig::new(ILOWER),
    );

    let mut rt_a = MarkerRuntime::new(&cross.markers_a);
    run(&bin_a, &w.ref_input, &mut [&mut rt_a])?;

    let mut rt_b = MarkerRuntime::new(&cross.markers_b);
    let mut tl = Timeline::new(GRANULE);
    let total_b = {
        let mut observers: Vec<&mut dyn TraceObserver> = vec![&mut rt_b, &mut tl];
        run(&bin_b, &w.ref_input, &mut observers)?.instrs
    };

    let mut b_samples = Vec::new();
    let step = (total_b / 100).max(GRANULE);
    let mut at = 0;
    while at < total_b {
        let end = (at + step).min(total_b);
        b_samples.push((at, tl.miss_rate(at..end)));
        at = end;
    }

    let fa = rt_a.into_firings();
    let fb = rt_b.into_firings();
    Ok(CrossIsa {
        num_markers: cross.markers_a.len(),
        traces_identical: traces_match(&fa, &fb),
        b_firings: fb.iter().map(|f| f.icount).collect(),
        firings: (fa.len(), fb.len()),
        b_samples,
    })
}

/// Section 6.2.1: the cross-compilation trace check over every
/// workload, between unoptimized and peak-optimized builds. Workloads
/// fan out across the worker pool; rows stay in suite order.
///
/// # Errors
///
/// Propagates the first failing workload's error (by suite order).
pub fn trace_check_all() -> Result<Vec<(&'static str, usize, bool)>, SpmError> {
    spm_par::try_par_map(&suite(), |w| {
        let bin_a = compile(&w.program, &CompileConfig::unoptimized());
        let bin_b = compile(&w.program, &CompileConfig::optimized());
        let graph_a = profile(&bin_a, &w.ref_input)?;
        let graph_b = profile(&bin_b, &w.ref_input)?;
        let cross = select_cross_binary(
            &graph_a,
            &bin_a,
            &graph_b,
            &bin_b,
            &SelectConfig::new(ILOWER),
        );
        let mut rt_a = MarkerRuntime::new(&cross.markers_a);
        run(&bin_a, &w.ref_input, &mut [&mut rt_a])?;
        let mut rt_b = MarkerRuntime::new(&cross.markers_b);
        run(&bin_b, &w.ref_input, &mut [&mut rt_b])?;
        Ok((
            w.name,
            cross.markers_a.len(),
            traces_match(&rt_a.firings(), &rt_b.firings()),
        ))
    })
}

/// Renders Figure 4 plus the Section 6.2.1 table.
///
/// # Errors
///
/// Propagates any workload's pipeline failure.
pub fn figure04() -> Result<String, SpmError> {
    let isa = cross_isa(
        "gzip",
        &CompileConfig::baseline(),
        &CompileConfig::alt_isa(),
    )?;
    let mut out =
        String::from("# Figure 4: gzip markers selected on the baseline ISA, mapped to alt-isa\n");
    out.push_str(&format!(
        "# {} markers; firings A={} B={}; traces identical: {}\n",
        isa.num_markers, isa.firings.0, isa.firings.1, isa.traces_identical
    ));
    out.push_str("icount\tdl1_miss\n");
    for (i, miss) in &isa.b_samples {
        out.push_str(&format!("{i}\t{miss:.4}\n"));
    }
    out.push_str("# marker firings on alt-isa binary (first 40)\n");
    for i in isa.b_firings.iter().take(40) {
        out.push_str(&format!("{i}\t*\n"));
    }

    let mut t = crate::table::Table::new(
        "Section 6.2.1: cross-compilation (O0 vs peak) marker-trace identity",
        &["bench", "markers", "traces identical"],
    );
    for (name, markers, ok) in trace_check_all()? {
        t.row(vec![name.to_string(), markers.to_string(), ok.to_string()]);
    }
    out.push('\n');
    out.push_str(&t.render());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gzip_cross_isa_traces_match() {
        let isa = cross_isa(
            "gzip",
            &CompileConfig::baseline(),
            &CompileConfig::alt_isa(),
        )
        .unwrap();
        assert!(isa.num_markers > 0, "joint selection must find markers");
        assert!(isa.traces_identical, "A and B must fire identically");
        assert_eq!(isa.firings.0, isa.firings.1);
        // Binary B still shows the two-phase miss-rate pattern.
        let rates: Vec<f64> = isa.b_samples.iter().map(|s| s.1).collect();
        let max = rates.iter().cloned().fold(0.0, f64::max);
        let min = rates.iter().cloned().fold(1.0, f64::min);
        assert!(max - min > 0.1, "phases must be visible on binary B");
    }

    #[test]
    fn swim_o0_vs_peak_traces_match() {
        let w = spm_workloads::build("swim").unwrap();
        let bin_a = compile(&w.program, &CompileConfig::unoptimized());
        let bin_b = compile(&w.program, &CompileConfig::optimized());
        let graph_a = profile(&bin_a, &w.ref_input).unwrap();
        let graph_b = profile(&bin_b, &w.ref_input).unwrap();
        let cross = select_cross_binary(
            &graph_a,
            &bin_a,
            &graph_b,
            &bin_b,
            &SelectConfig::new(ILOWER),
        );
        assert!(!cross.markers_a.is_empty());
        let mut rt_a = MarkerRuntime::new(&cross.markers_a);
        run(&bin_a, &w.ref_input, &mut [&mut rt_a]).unwrap();
        let mut rt_b = MarkerRuntime::new(&cross.markers_b);
        run(&bin_b, &w.ref_input, &mut [&mut rt_b]).unwrap();
        assert!(traces_match(&rt_a.firings(), &rt_b.firings()));
        assert!(!rt_a.firings().is_empty());
    }
}
