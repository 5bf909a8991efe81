//! End-to-end tests of the `spm` binary: every subcommand, file
//! round-trips, and error reporting.

use std::path::PathBuf;
use std::process::{Command, Output};

fn spm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_spm"))
        .args(args)
        .output()
        .expect("spm binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("spm-cli-test-{}-{name}", std::process::id()));
    p
}

#[test]
fn help_lists_subcommands() {
    let out = spm(&["help"]);
    assert!(out.status.success());
    for sub in [
        "profile",
        "select",
        "partition",
        "predict",
        "structure",
        "record",
        "replay",
    ] {
        assert!(stdout(&out).contains(sub), "help missing {sub}");
    }
    assert!(
        stdout(&out)
            .contains("spm profile <workload> [--input train|ref] [--dot] [--markers FILE]\n"),
        "help must give the full profile usage"
    );
}

#[test]
fn unknown_subcommand_fails_with_message() {
    let out = spm(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("frobnicate"));
}

#[test]
fn unknown_workload_lists_alternatives() {
    let out = spm(&["select", "quake"]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("gzip"),
        "should list available workloads"
    );
}

#[test]
fn select_then_partition_via_marker_file() {
    let markers = tmp("markers.txt");
    let out = spm(&["select", "mgrid"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.starts_with("markers v1"), "{text}");
    std::fs::write(&markers, &text).unwrap();

    let out = spm(&["partition", "mgrid", "--markers", markers.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines[0].starts_with("begin\tend\tphase"));
    assert!(lines.len() > 10, "expected many intervals");
    // Every data row has 5 tab-separated fields.
    for line in &lines[1..] {
        assert_eq!(line.split('\t').count(), 5, "bad row: {line}");
    }
    std::fs::remove_file(markers).ok();
}

#[test]
fn profile_dot_is_graphviz() {
    let out = spm(&["profile", "swim", "--input", "train", "--dot"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.starts_with("digraph callloop {"));
    assert!(text.contains("CoV="));
}

#[test]
fn record_then_replay_round_trips() {
    let trace = tmp("trace.bin");
    let out = spm(&[
        "record",
        "art",
        "--input",
        "train",
        "--out",
        trace.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let out = spm(&["replay", trace.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("instructions:  1330250"), "{text}");
    std::fs::remove_file(trace).ok();
}

#[test]
fn replay_rejects_garbage() {
    let junk = tmp("junk.bin");
    std::fs::write(&junk, b"not a trace").unwrap();
    let out = spm(&["replay", junk.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("magic"), "{}", stderr(&out));
    std::fs::remove_file(junk).ok();
}

#[test]
fn predict_reports_accuracies() {
    let out = spm(&["predict", "swim", "--order", "2"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("markov(2) accuracy"));
    assert!(text.contains("last-phase accuracy"));
}

#[test]
fn structure_finds_mgrid_vcycle() {
    let out = spm(&["structure", "mgrid"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("super-phases"), "{}", stdout(&out));
}

#[test]
fn dsl_workload_file_works_everywhere() {
    let file = tmp("toy.spm");
    std::fs::write(
        &file,
        r#"
program toy
region data bytes 65536
input train seed 1 { rounds 6 }
input ref seed 2 { rounds 30 }
proc main {
  loop param rounds {
    call a
    call b
  }
}
proc a { loop fixed 800 { block 40 { read data seq 2 } } }
proc b { loop fixed 500 { block 30 cpi 0.8 { read data rand 1 } } }
"#,
    )
    .unwrap();
    let path = file.to_str().unwrap();

    let out = spm(&["partition", path]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).lines().count() > 30, "{}", stdout(&out));

    let out = spm(&["predict", path]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        stdout(&out).contains("markov(1) accuracy:   100.0%"),
        "{}",
        stdout(&out)
    );

    std::fs::remove_file(file).ok();
}

#[test]
fn dsl_parse_errors_point_at_lines() {
    let file = tmp("broken.spm");
    std::fs::write(&file, "program x\nproc main {\n  explode 1\n}\n").unwrap();
    let out = spm(&["select", file.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("line 3"), "{}", stderr(&out));
    std::fs::remove_file(file).ok();
}

#[test]
fn missing_out_flag_for_record() {
    let out = spm(&["record", "art"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--out"));
}

#[test]
fn explain_shows_per_edge_decisions() {
    let out = spm(&["explain", "gzip"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("decision"));
    assert!(text.contains("marked"));
    assert!(text.contains("below ilower"));
}

#[test]
fn timeseries_plot_renders_sparklines() {
    let out = spm(&["timeseries", "gzip", "--plot"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("cpi"));
    assert!(text.contains("dl1_miss"));
    assert!(text.contains("markers"));
    assert!(text.contains('▁') || text.contains('█'), "{text}");
}

#[test]
fn timeseries_tsv_has_marker_column() {
    let out = spm(&["timeseries", "art", "--step", "50000"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.starts_with("icount\tcpi\tdl1_miss\tmarker"));
    assert!(text
        .lines()
        .skip(1)
        .any(|l| l.split('\t').nth(3).is_some_and(|m| !m.is_empty())));
}

#[test]
fn param_overrides_change_execution_length() {
    let short = spm(&["partition", "gzip", "--param", "chunks=10"]);
    assert!(short.status.success(), "{}", stderr(&short));
    let full = spm(&["partition", "gzip"]);
    let rows = |o: &Output| stdout(o).lines().count();
    assert!(
        rows(&short) < rows(&full) / 4,
        "{} vs {}",
        rows(&short),
        rows(&full)
    );

    let bad = spm(&["partition", "gzip", "--param", "chunks"]);
    assert!(!bad.status.success());
    assert!(stderr(&bad).contains("key=value"));
}

#[test]
fn profile_reports_recursion() {
    let out = spm(&["profile", "gcc", "--input", "train"]);
    assert!(out.status.success());
    assert!(stderr(&out).contains("recursive cycle"), "{}", stderr(&out));
}

#[test]
fn export_round_trips_through_partition() {
    // Export a built-in workload as DSL, then partition the exported
    // file: behaviour must match the built-in exactly.
    let file = tmp("exported.spm");
    let out = spm(&["export", "mgrid"]);
    assert!(out.status.success(), "{}", stderr(&out));
    std::fs::write(&file, stdout(&out)).unwrap();

    let builtin = spm(&["partition", "mgrid"]);
    let exported = spm(&["partition", file.to_str().unwrap()]);
    assert!(exported.status.success(), "{}", stderr(&exported));
    assert_eq!(stdout(&builtin), stdout(&exported), "identical partitions");
    std::fs::remove_file(file).ok();
}

#[test]
fn list_survives_closed_stdout() {
    use std::process::Stdio;
    // Spawn `spm list` with a pipe we close immediately: the process
    // must exit with the conventional SIGPIPE status, not a panic
    // backtrace on stderr.
    let mut child = Command::new(env!("CARGO_BIN_EXE_spm"))
        .arg("list")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawns");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("finishes");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn exit_codes_dispatch_by_failure_class() {
    // 2 = usage: unknown subcommand, with the usage text on stderr and
    // nothing on stdout (pipelines stay clean).
    let out = spm(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("USAGE"), "{}", stderr(&out));
    assert!(stdout(&out).is_empty(), "usage must not go to stdout");

    // 2 = usage: unknown flag (not silently swallowed as a value flag).
    let out = spm(&["select", "gzip", "--frobnicate", "3"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("frobnicate"), "{}", stderr(&out));
    assert!(stdout(&out).is_empty());

    // 2 = usage: unknown workload name.
    let out = spm(&["select", "quake"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));

    // 3 = I/O: missing file.
    let out = spm(&["replay", "/no/such/trace.bin"]);
    assert_eq!(out.status.code(), Some(3), "{}", stderr(&out));
    assert!(stderr(&out).contains("error[io]"), "{}", stderr(&out));

    // 4 = workload DSL parse failure.
    let file = tmp("exitcode-broken.spm");
    std::fs::write(&file, "program x\nproc main {\n  explode 1\n}\n").unwrap();
    let out = spm(&["select", file.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(4), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("error[workload-parse]"),
        "{}",
        stderr(&out)
    );
    std::fs::remove_file(&file).ok();

    // 5 = marker file parse failure.
    let file = tmp("exitcode-bad-markers.txt");
    std::fs::write(&file, "not a marker file\n").unwrap();
    let out = spm(&["partition", "gzip", "--markers", file.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(5), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("error[file-parse]"),
        "{}",
        stderr(&out)
    );
    std::fs::remove_file(&file).ok();

    // 8 = trace decode failure.
    let file = tmp("exitcode-junk.bin");
    std::fs::write(&file, b"definitely not a trace store").unwrap();
    let out = spm(&["replay", file.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(8), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("error[trace-decode]"),
        "{}",
        stderr(&out)
    );
    std::fs::remove_file(&file).ok();
}

#[test]
fn replay_recovers_committed_prefix_of_truncated_store() {
    let trace = tmp("prefix-trace.spmstk");
    let out = spm(&[
        "record",
        "art",
        "--input",
        "train",
        "--out",
        trace.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));

    // Chop bytes off the tail: the footer is gone, so the reader
    // rebuilds the index from the block frames, warns, and replays
    // every committed block — the same contract as `select --store`.
    let bytes = std::fs::read(&trace).unwrap();
    std::fs::write(&trace, &bytes[..bytes.len() - 7]).unwrap();
    let out = spm(&["replay", trace.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("warning: store=recovered"), "{err}");
    assert!(
        stdout(&out).contains("instructions:  1330250"),
        "{}",
        stdout(&out)
    );
    std::fs::remove_file(&trace).ok();
}
