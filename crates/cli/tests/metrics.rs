//! Golden schema test for the observability surface: runs `select` and
//! `partition` over every workload file in `workloads/`, asserting that
//! every `--metrics` line validates against the spm-obs event schema
//! and that the documented per-stage events are present.

use spm_ir::parse_workload;
use spm_obs::jsonl::{validate_line, Json};
use spm_sim::{run, Reads, TraceEvent, TraceObserver};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn spm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_spm"))
        .args(args)
        .output()
        .expect("spm binary runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("spm-metrics-test-{}-{name}", std::process::id()));
    p
}

/// Every `.spm` file shipped in `workloads/`; the golden set must stay
/// at four or more so the schema test exercises distinct programs.
fn workload_files() -> Vec<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../workloads");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("workloads/ directory exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "spm"))
        .collect();
    files.sort();
    assert!(
        files.len() >= 4,
        "expected at least 4 workload files, found {}",
        files.len()
    );
    files
}

/// Runs a subcommand with `--metrics`, returning the validated events.
fn metrics_of(cmd: &str, workload: &str, extra: &[&str], tag: &str) -> Vec<Json> {
    let path = tmp(tag);
    let path_str = path.to_str().expect("utf-8 temp path");
    let mut args = vec![cmd, workload, "--metrics", path_str];
    args.extend_from_slice(extra);
    let out = spm(&args);
    assert!(out.status.success(), "{cmd} failed: {}", stderr(&out));
    let text = std::fs::read_to_string(&path).expect("metrics file written");
    let _ = std::fs::remove_file(&path);
    assert!(!text.is_empty(), "metrics file empty for {cmd} {workload}");
    text.lines()
        .map(|line| {
            validate_line(line).unwrap_or_else(|e| panic!("invalid event line `{line}`: {e}"))
        })
        .collect()
}

fn names(events: &[Json]) -> Vec<String> {
    events
        .iter()
        .filter_map(|e| e.get("name").and_then(Json::as_str))
        .map(str::to_string)
        .collect()
}

fn find<'a>(events: &'a [Json], name: &str) -> &'a Json {
    events
        .iter()
        .find(|e| e.get("name").and_then(Json::as_str) == Some(name))
        .unwrap_or_else(|| panic!("no event named {name}"))
}

#[test]
fn every_workload_emits_schema_valid_select_metrics() {
    for (i, file) in workload_files().iter().enumerate() {
        let file = file.to_str().expect("utf-8 path");
        let events = metrics_of("select", file, &[], &format!("sel{i}"));
        let names = names(&events);
        for required in [
            "cli/select",
            "cli/select/ir/parse",
            "cli/select/sim/run",
            "cli/select/core/select",
            "sim/events_per_sec",
            "graph/nodes",
            "graph/edges",
            "graph/out_degree",
            "select/pass1_pruned_edges",
            "select/candidates",
            "select/cov_threshold",
            "select/markers",
        ] {
            assert!(
                names.iter().any(|n| n == required),
                "{file}: missing event {required}; got {names:?}"
            );
        }
        // The derived threshold must carry its statistical inputs.
        let threshold = find(&events, "select/cov_threshold");
        let fields = threshold.get("fields").expect("fields object");
        for input in ["avg_cov", "std_cov", "max_avg", "cov_floor"] {
            assert!(
                fields.get(input).is_some(),
                "{file}: cov_threshold missing input {input}"
            );
        }
        assert!(
            threshold.get("value").and_then(Json::as_num).is_some(),
            "{file}: cov_threshold has no numeric value"
        );
        // Span durations are non-negative integers by schema; the
        // command-level span must be the last event (outermost drop).
        let last = names.last().expect("nonempty");
        assert_eq!(last, "cli/select", "{file}: outer span not last");
    }
}

#[test]
fn every_workload_emits_schema_valid_partition_metrics() {
    for (i, file) in workload_files().iter().enumerate() {
        let file = file.to_str().expect("utf-8 path");
        let events = metrics_of("partition", file, &[], &format!("part{i}"));
        let names = names(&events);
        for required in [
            "cli/partition",
            "cli/partition/sim/run",
            "partition/vli_lengths",
            "partition/intervals",
            "partition/phases",
            "select/markers",
        ] {
            assert!(
                names.iter().any(|n| n == required),
                "{file}: missing event {required}; got {names:?}"
            );
        }
        // The VLI histogram's bucket counts must sum to its count.
        let hist = find(&events, "partition/vli_lengths");
        let count = hist
            .get("count")
            .and_then(Json::as_num)
            .expect("hist count") as u64;
        let buckets = match hist.get("buckets") {
            Some(Json::Arr(b)) => b,
            other => panic!("{file}: hist buckets not an array: {other:?}"),
        };
        let total: u64 = buckets
            .iter()
            .map(|b| match b {
                Json::Arr(triple) => triple[2].as_num().expect("bucket count") as u64,
                other => panic!("bucket not a triple: {other:?}"),
            })
            .sum();
        assert_eq!(
            total, count,
            "{file}: histogram buckets disagree with count"
        );
        assert!(count > 0, "{file}: partition produced no intervals");
        // The profiling run (a profiler alone, on `train`) is handed
        // the call-loop events only; the marked run carries a timing
        // timeline, which reads every kind, so it gets the full stream.
        let runs = sim_runs(&events, "cli/partition/sim/run");
        let (train, reference) = (kinds(file, "train"), kinds(file, "ref"));
        assert_eq!(
            runs,
            vec![
                (train.events as f64, train.call_loop as f64),
                (reference.events as f64, reference.events as f64),
            ],
            "{file}: (events, delivered) of the profiling and marked runs"
        );
    }
}

/// Events of one run by kind, counted in-process over the full stream.
#[derive(Default)]
struct Kinds {
    events: u64,
    blocks: u64,
    call_loop: u64,
}

impl TraceObserver for Kinds {
    fn on_batch(&mut self, batch: &[(u64, TraceEvent)]) {
        for (_, event) in batch {
            self.events += 1;
            match Reads::of(event) {
                Reads::NONE => self.call_loop += 1,
                Reads::BLOCKS => self.blocks += 1,
                _ => {}
            }
        }
    }
}

/// Counts the events of a workload file's `input` run by kind.
fn kinds(file: &str, input: &str) -> Kinds {
    let parsed = parse_workload(&std::fs::read_to_string(Path::new(file)).expect("workload"))
        .expect("workload parses");
    let mut kinds = Kinds::default();
    let input = parsed.input(input).expect("input exists");
    run(&parsed.program, input, &mut [&mut kinds]).expect("workload runs");
    kinds
}

#[test]
fn live_simpoint_runs_are_handed_blocks_and_call_loop_events() {
    for (i, file) in workload_files().iter().enumerate() {
        let file = file.to_str().expect("utf-8 path");
        let events = metrics_of("simpoint", file, &[], &format!("simpoint{i}"));
        // The BBV collector reads blocks only.
        let runs = sim_runs(&events, "cli/simpoint/sim/run");
        let reference = kinds(file, "ref");
        assert_eq!(
            runs,
            vec![(
                reference.events as f64,
                (reference.blocks + reference.call_loop) as f64
            )],
            "{file}: (events, delivered) of the BBV run"
        );
    }
}

/// `(events, delivered)` of every span named `name`.
fn sim_runs(events: &[Json], name: &str) -> Vec<(f64, f64)> {
    events
        .iter()
        .filter(|e| e.get("name").and_then(Json::as_str) == Some(name))
        .map(|e| {
            let fields = e.get("fields").expect("fields object");
            let num = |key| fields.get(key).and_then(Json::as_num).expect(key);
            (num("events"), num("delivered"))
        })
        .collect()
}

#[test]
fn marker_only_runs_are_handed_call_loop_events() {
    for (i, file) in workload_files().iter().enumerate() {
        let file = file.to_str().expect("utf-8 path");
        let events = metrics_of("structure", file, &[], &format!("struct{i}"));
        // The profiling run, a profiler alone, and the marked run, a
        // marker runtime alone, are handed only the call-loop events.
        let runs = sim_runs(&events, "cli/structure/sim/run");
        assert_eq!(runs.len(), 2, "{file}: profiling and marked runs");
        assert!(
            runs[0].1 > 0.0 && runs[0].1 < runs[0].0,
            "{file}: profiling run {runs:?}"
        );
        assert!(
            runs[1].1 > 0.0 && runs[1].1 < runs[1].0,
            "{file}: marked run {runs:?}"
        );
        // `partition` marks the same `ref` run with a timeline beside
        // the runtime: the full stream has the same length.
        let full = metrics_of("partition", file, &[], &format!("struct-part{i}"));
        let full = sim_runs(&full, "cli/partition/sim/run");
        assert_eq!(
            full[1].0, runs[1].0,
            "{file}: events of the full and marked runs"
        );
    }
}

#[test]
fn spans_file_contains_only_spans() {
    let path = tmp("spans-only");
    let path_str = path.to_str().expect("utf-8 temp path");
    let workload = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../workloads/streamjoin.spm");
    let out = spm(&[
        "select",
        workload.to_str().expect("utf-8 path"),
        "--spans",
        path_str,
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = std::fs::read_to_string(&path).expect("spans file written");
    let _ = std::fs::remove_file(&path);
    let mut span_count = 0;
    for line in text.lines() {
        let event = validate_line(line).expect("valid event");
        assert_eq!(
            event.get("kind").and_then(Json::as_str),
            Some("span"),
            "non-span event in --spans file: {line}"
        );
        span_count += 1;
    }
    assert!(span_count >= 3, "expected nested spans, got {span_count}");
}

#[test]
fn verbose_prints_stage_summary() {
    let out = spm(&["select", "gzip", "-v"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("-- stage summary --"), "{err}");
    assert!(err.contains("sim/run"), "{err}");
    assert!(err.contains("core/select"), "{err}");
    // Summary lines are all comments: safe to interleave with marker
    // files on stderr-captured pipelines.
    for line in err.lines().filter(|l| !l.is_empty()) {
        assert!(
            line.starts_with('#') || line.starts_with("warning:"),
            "{line}"
        );
    }
}

#[test]
fn fallback_warning_is_deduped_and_structured() {
    let path = tmp("fallback");
    let path_str = path.to_str().expect("utf-8 temp path");
    // An absurd ilower guarantees zero markers -> fixed-length fallback.
    let out = spm(&[
        "partition",
        "gzip",
        "--ilower",
        "999999999999",
        "--metrics",
        path_str,
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let err = stderr(&out);
    assert_eq!(
        err.matches("warning: fallback=fixed-length").count(),
        1,
        "stderr warning not deduped: {err}"
    );
    let text = std::fs::read_to_string(&path).expect("metrics file written");
    let _ = std::fs::remove_file(&path);
    let warnings: Vec<Json> = text
        .lines()
        .map(|l| validate_line(l).expect("valid event"))
        .filter(|e| e.get("kind").and_then(Json::as_str) == Some("warning"))
        .collect();
    assert_eq!(warnings.len(), 1, "expected exactly one warning event");
    let w = &warnings[0];
    assert_eq!(
        w.get("name").and_then(Json::as_str),
        Some("fallback/fixed-length")
    );
    let fields = w.get("fields").expect("fields");
    assert_eq!(
        fields.get("reason").and_then(Json::as_str),
        Some("no-markers")
    );
}
