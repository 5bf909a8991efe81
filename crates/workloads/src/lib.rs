//! Synthetic SPEC-like workloads for the phase-marker evaluation.
//!
//! The paper evaluates on a SPEC CPU2000 subset (plus the five programs
//! of Shen et al.'s cache-reconfiguration study). SPEC binaries and
//! inputs are unavailable here, so each program is rebuilt as a
//! [`spm_ir`] workload with the same **qualitative phase structure**:
//! which loops dominate, how working sets change over time, how regular
//! the trip counts are, and whether phase behaviour is loop- or
//! procedure-shaped. Every workload comes with a `train` and a `ref`
//! input (different sizes and seeds), enabling the paper's cross-input
//! experiments.
//!
//! Two named suites mirror the paper's two benchmark sets:
//!
//! * [`BEHAVIOR_SUITE`] — the 11 programs of Figures 7–9/11/12
//!   (art, bzip2, galgel, gcc, gzip, lucas, mcf, mgrid, perlbmk,
//!   vortex, vpr);
//! * [`CACHE_SUITE`] — the 5 programs of Figure 10
//!   (applu, compress, mesh, swim, tomcatv).
//!
//! # Examples
//!
//! ```
//! use spm_workloads::{build, suite};
//!
//! let all = suite();
//! assert_eq!(all.len(), 16);
//! let gzip = build("gzip").expect("gzip exists");
//! assert!(gzip.ref_input.param("chunks") > gzip.train_input.param("chunks"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod programs;

use spm_ir::{Input, Program};

/// One benchmark: its source program and its two inputs.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Benchmark name (SPEC-style, e.g. `"gzip"`).
    pub name: &'static str,
    /// The source program (lower with [`spm_ir::compile`] for the
    /// cross-binary experiments; the builder output doubles as the
    /// baseline binary).
    pub program: Program,
    /// The smaller profiling input (the paper's *train*).
    pub train_input: Input,
    /// The evaluation input (the paper's *ref*).
    pub ref_input: Input,
}

/// The 11 programs of the paper's behaviour figures (7, 8, 9, 11, 12).
pub const BEHAVIOR_SUITE: [&str; 11] = [
    "art", "bzip2", "galgel", "gcc", "gzip", "lucas", "mcf", "mgrid", "perlbmk", "vortex", "vpr",
];

/// The 5 programs of the cache-reconfiguration comparison (Figure 10).
pub const CACHE_SUITE: [&str; 5] = ["applu", "compress", "mesh", "swim", "tomcatv"];

/// Builds one workload by name.
pub fn build(name: &str) -> Option<Workload> {
    let (program, train_input, ref_input) = match name {
        "applu" => programs::applu(),
        "art" => programs::art(),
        "bzip2" => programs::bzip2(),
        "compress" => programs::compress(),
        "galgel" => programs::galgel(),
        "gcc" => programs::gcc(),
        "gzip" => programs::gzip(),
        "lucas" => programs::lucas(),
        "mcf" => programs::mcf(),
        "mesh" => programs::mesh(),
        "mgrid" => programs::mgrid(),
        "perlbmk" => programs::perlbmk(),
        "swim" => programs::swim(),
        "tomcatv" => programs::tomcatv(),
        "vortex" => programs::vortex(),
        "vpr" => programs::vpr(),
        _ => return None,
    };
    let name = ALL_NAMES.iter().find(|&&n| n == name)?;
    Some(Workload {
        name,
        program,
        train_input,
        ref_input,
    })
}

/// All 16 workload names.
pub const ALL_NAMES: [&str; 16] = [
    "applu", "art", "bzip2", "compress", "galgel", "gcc", "gzip", "lucas", "mcf", "mesh", "mgrid",
    "perlbmk", "swim", "tomcatv", "vortex", "vpr",
];

/// Builds every workload.
pub fn suite() -> Vec<Workload> {
    ALL_NAMES
        .iter()
        .map(|n| build(n).expect("known name"))
        .collect()
}

/// Builds the behaviour suite (Figures 7–9, 11, 12).
pub fn behavior_suite() -> Vec<Workload> {
    BEHAVIOR_SUITE
        .iter()
        .map(|n| build(n).expect("known name"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use spm_sim::run;

    #[test]
    fn unknown_name_is_none() {
        assert!(build("quake").is_none());
    }

    #[test]
    fn suites_are_subsets_of_all() {
        for n in BEHAVIOR_SUITE.iter().chain(CACHE_SUITE.iter()) {
            assert!(ALL_NAMES.contains(n), "{n} missing from ALL_NAMES");
        }
    }

    #[test]
    fn every_workload_runs_on_both_inputs() {
        for w in suite() {
            for input in [&w.train_input, &w.ref_input] {
                let summary = run(&w.program, input, &mut [])
                    .unwrap_or_else(|e| panic!("{} failed on {}: {e}", w.name, input.name()));
                assert!(
                    summary.instrs > 100_000,
                    "{} on {} too small: {} instrs",
                    w.name,
                    input.name(),
                    summary.instrs
                );
                assert!(
                    summary.instrs < 200_000_000,
                    "{} on {} too large: {} instrs",
                    w.name,
                    input.name(),
                    summary.instrs
                );
                assert!(
                    summary.mem_accesses > 0,
                    "{} issues no memory accesses",
                    w.name
                );
            }
        }
    }

    #[test]
    fn ref_is_larger_than_train() {
        for w in suite() {
            let t = run(&w.program, &w.train_input, &mut []).unwrap();
            let r = run(&w.program, &w.ref_input, &mut []).unwrap();
            assert!(
                r.instrs > t.instrs * 2,
                "{}: ref ({}) should be much larger than train ({})",
                w.name,
                r.instrs,
                t.instrs
            );
        }
    }

    #[test]
    fn workloads_are_deterministic() {
        for w in suite().into_iter().take(4) {
            let a = run(&w.program, &w.ref_input, &mut []).unwrap();
            let b = run(&w.program, &w.ref_input, &mut []).unwrap();
            assert_eq!(a, b, "{} must be deterministic", w.name);
        }
    }
}
