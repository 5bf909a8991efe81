//! Validation of the one bench artifact, `results/BENCH_report.json`
//! (schema `spm-bench/report/v9`), which `all_figures` writes.
//!
//! A report describes one invocation of the figure suite:
//!
//! - `host_parallelism`, `jobs`, `repeats` — where and how it ran;
//! - `runs` — one `{jobs, total_us}` entry per suite run, the
//!   `--compare-serial` run (at `--jobs 1`) first, so the serial vs
//!   parallel speedup is recoverable from the report alone;
//! - `profile` — the statistical profiler's suite totals (DESIGN.md
//!   §13): sampling rate, samples, allocations, heap peak;
//! - `figures` — per figure the median/min/total wall-clock across the
//!   repeats and its own `profile` (samples, allocs/bytes attributed
//!   to its span, peak RSS at its close).
//!
//! Throughput is not kept here either: `perfbench` is the one ledger
//! for per-layer throughput, with its spread checked over ten seeds.
//!
//! History across builds is not kept here: `spm corpus add` ingests
//! each report and `spm corpus query trajectory` trends them. Like the
//! JSONL stream schema, the validator is the *executable* schema: CI
//! runs it against the committed file, the writer checks its own
//! output with it, and the corpus rejects any report that fails it.

use spm_obs::jsonl::{parse, Json};

/// Schema identifier of the bench report artifact.
pub const BENCH_REPORT_SCHEMA: &str = "spm-bench/report/v9";

fn finite_num(doc: &Json, key: &str) -> Result<f64, String> {
    match doc.get(key) {
        Some(Json::Num(n)) if n.is_finite() => Ok(*n),
        Some(Json::Num(_)) => Err(format!("`{key}` is not finite")),
        Some(_) => Err(format!("`{key}` is not a number")),
        None => Err(format!("missing `{key}`")),
    }
}

fn positive_int(doc: &Json, key: &str) -> Result<u64, String> {
    let n = finite_num(doc, key)?;
    if n >= 1.0 && n.fract() == 0.0 {
        Ok(n as u64)
    } else {
        Err(format!("`{key}` must be a positive integer, got {n}"))
    }
}

fn nonneg_int(doc: &Json, key: &str) -> Result<u64, String> {
    let n = finite_num(doc, key)?;
    if n >= 0.0 && n.fract() == 0.0 {
        Ok(n as u64)
    } else {
        Err(format!("`{key}` must be a non-negative integer, got {n}"))
    }
}

/// Validates a `profile` object. Suite-level and per-figure profiles
/// share the integer-field convention; only the key set differs.
fn check_profile(doc: &Json, keys: &[&str], at: impl Fn(String) -> String) -> Result<(), String> {
    let profile = match doc.get("profile") {
        Some(obj @ Json::Obj(_)) => obj,
        Some(_) => return Err(at("`profile` is not an object".into())),
        None => return Err(at("missing `profile` object".into())),
    };
    for key in keys {
        nonneg_int(profile, key).map_err(|m| at(format!("profile: {m}")))?;
    }
    Ok(())
}

/// Validates a [`BENCH_REPORT_SCHEMA`] document.
///
/// # Errors
///
/// A human-readable description of the first violation: wrong schema
/// tag, missing or mistyped keys, non-finite numbers, empty run or
/// figure lists, or per-figure stats that contradict each other
/// (`min > median` or `median > total`).
pub fn validate_bench_report(text: &str) -> Result<(), String> {
    let doc = parse(text)?;
    match doc.get("schema").and_then(Json::as_str) {
        Some(BENCH_REPORT_SCHEMA) => {}
        Some(other) => {
            return Err(format!(
                "schema is `{other}`, expected `{BENCH_REPORT_SCHEMA}`"
            ))
        }
        None => return Err("missing `schema`".into()),
    }
    positive_int(&doc, "host_parallelism")?;
    positive_int(&doc, "jobs")?;
    let repeats = positive_int(&doc, "repeats")?;

    let Some(Json::Arr(runs)) = doc.get("runs") else {
        return Err("missing `runs` array".into());
    };
    if runs.is_empty() {
        return Err("`runs` is empty".into());
    }
    for (i, run) in runs.iter().enumerate() {
        let at = |message: String| format!("runs[{i}]: {message}");
        positive_int(run, "jobs").map_err(&at)?;
        nonneg_int(run, "total_us").map_err(at)?;
    }

    check_profile(
        &doc,
        &[
            "sample_hz",
            "samples",
            "allocs",
            "alloc_bytes",
            "heap_peak_bytes",
        ],
        |m| m,
    )?;

    let Some(Json::Arr(figures)) = doc.get("figures") else {
        return Err("missing `figures` array".into());
    };
    if figures.is_empty() {
        return Err("`figures` is empty".into());
    }
    for (i, fig) in figures.iter().enumerate() {
        let at = |message: String| format!("figures[{i}]: {message}");
        let name = fig
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| at("missing `name`".into()))?;
        if name.is_empty() {
            return Err(at("`name` is empty".into()));
        }
        let reps = positive_int(fig, "repeats").map_err(&at)?;
        if reps != repeats {
            return Err(at(format!(
                "`repeats` is {reps}, suite-level says {repeats}"
            )));
        }
        let median_us = finite_num(fig, "median_us").map_err(&at)?;
        let min_us = finite_num(fig, "min_us").map_err(&at)?;
        let total_us = finite_num(fig, "total_us").map_err(&at)?;
        if min_us < 0.0 {
            return Err(at(format!("`min_us` is negative ({min_us})")));
        }
        if min_us > median_us {
            return Err(at(format!("min_us {min_us} > median_us {median_us}")));
        }
        if median_us > total_us {
            return Err(at(format!("median_us {median_us} > total_us {total_us}")));
        }
        check_profile(
            fig,
            &["samples", "allocs", "alloc_bytes", "peak_rss_kb"],
            at,
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> String {
        format!(
            r#"{{
  "schema": "{BENCH_REPORT_SCHEMA}",
  "host_parallelism": 4,
  "jobs": 4,
  "repeats": 2,
  "runs": [
    {{"jobs": 1, "total_us": 9000000}},
    {{"jobs": 4, "total_us": 3100000}},
    {{"jobs": 4, "total_us": 3000000}}
  ],
  "profile": {{"sample_hz": 7, "samples": 420, "allocs": 120000, "alloc_bytes": 90000000, "heap_peak_bytes": 30000000}},
  "figures": [
    {{"name": "fig03", "repeats": 2, "median_us": 60000, "min_us": 55000, "total_us": 125000, "profile": {{"samples": 4, "allocs": 900, "alloc_bytes": 500000, "peak_rss_kb": 40000}}}},
    {{"name": "fig04", "repeats": 2, "median_us": 1500000, "min_us": 1400000, "total_us": 2900000, "profile": {{"samples": 110, "allocs": 52000, "alloc_bytes": 41000000, "peak_rss_kb": 52000}}}}
  ]
}}"#
        )
    }

    #[test]
    fn valid_report_passes() {
        validate_bench_report(&sample()).unwrap();
    }

    #[test]
    fn wrong_schema_tag_fails() {
        let text = sample().replace("report/v9", "timings/v2");
        let err = validate_bench_report(&text).unwrap_err();
        assert!(err.contains("timings/v2"), "{err}");
        // The previous major version is rejected too: a stale committed
        // artifact must fail, not slide through.
        let text = sample().replace("report/v9", "report/v8");
        let err = validate_bench_report(&text).unwrap_err();
        assert!(err.contains("spm-bench/report/v8"), "{err}");
    }

    #[test]
    fn missing_profile_sections_fail() {
        // The suite-level profile is mandatory.
        let start = sample().find("  \"profile\"").unwrap();
        let mut text = sample();
        let end = text.find("  \"figures\"").unwrap();
        text.replace_range(start..end, "");
        let err = validate_bench_report(&text).unwrap_err();
        assert!(err.contains("profile"), "{err}");

        // So is every figure's.
        let text = sample().replace(
            ", \"profile\": {\"samples\": 4, \"allocs\": 900, \"alloc_bytes\": 500000, \"peak_rss_kb\": 40000}",
            "",
        );
        let err = validate_bench_report(&text).unwrap_err();
        assert!(err.contains("figures[0]"), "{err}");
        assert!(err.contains("profile"), "{err}");

        // And profile integers must be non-negative integers.
        let text = sample().replace("\"samples\": 420", "\"samples\": -1");
        let err = validate_bench_report(&text).unwrap_err();
        assert!(err.contains("non-negative"), "{err}");
        let text = sample().replace("\"peak_rss_kb\": 40000", "\"peak_rss_kb\": 1.5");
        let err = validate_bench_report(&text).unwrap_err();
        assert!(err.contains("figures[0]"), "{err}");
    }

    #[test]
    fn missing_runs_fails() {
        let start = sample().find("  \"runs\"").unwrap();
        let mut text = sample();
        let end = text.find("  \"profile\"").unwrap();
        text.replace_range(start..end, "");
        let err = validate_bench_report(&text).unwrap_err();
        assert!(err.contains("missing `runs`"), "{err}");
    }

    #[test]
    fn empty_runs_fails() {
        let mut text = sample();
        let start = text.find("\"runs\": [").unwrap() + "\"runs\": ".len();
        let end = start + text[start..].find("],").unwrap();
        text.replace_range(start..=end, "[]");
        let err = validate_bench_report(&text).unwrap_err();
        assert!(err.contains("`runs` is empty"), "{err}");
    }

    #[test]
    fn zero_job_run_fails_with_location() {
        let text = sample().replace("{\"jobs\": 1, ", "{\"jobs\": 0, ");
        let err = validate_bench_report(&text).unwrap_err();
        assert!(err.contains("runs[0]"), "{err}");
        assert!(err.contains("`jobs` must be a positive integer"), "{err}");
    }

    #[test]
    fn missing_keys_fail_with_location() {
        let text = sample().replace("\"min_us\": 55000, ", "");
        let err = validate_bench_report(&text).unwrap_err();
        assert!(err.contains("figures[0]"), "{err}");
        assert!(err.contains("min_us"), "{err}");
    }

    #[test]
    fn inconsistent_stats_fail() {
        let text = sample().replace("\"min_us\": 55000", "\"min_us\": 65000");
        let err = validate_bench_report(&text).unwrap_err();
        assert!(err.contains("min_us 65000 > median_us 60000"), "{err}");
    }

    #[test]
    fn repeat_count_mismatch_fails() {
        let text = sample().replace(
            "\"name\": \"fig04\", \"repeats\": 2",
            "\"name\": \"fig04\", \"repeats\": 3",
        );
        let err = validate_bench_report(&text).unwrap_err();
        assert!(err.contains("suite-level says 2"), "{err}");
    }

    #[test]
    fn non_finite_numbers_fail() {
        let text = sample().replace("\"median_us\": 60000", "\"median_us\": 1e999");
        let err = validate_bench_report(&text).unwrap_err();
        assert!(err.contains("not finite"), "{err}");
    }

    #[test]
    fn empty_figures_fail() {
        let mut text = sample();
        let start = text.find("\"figures\": [").unwrap() + "\"figures\": ".len();
        let end = text.rfind(']').unwrap();
        text.replace_range(start..=end, "[]");
        let err = validate_bench_report(&text).unwrap_err();
        assert!(err.contains("empty"), "{err}");
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(validate_bench_report("not json").is_err());
        assert!(validate_bench_report("[]").is_err());
    }
}
