//! The committed bench report must validate against the executable
//! schema — the same check CI runs, so a hand-edited or stale artifact
//! fails before it merges.

use spm_obs::jsonl::{parse, Json};
use spm_report::bench::{validate_bench_report, BENCH_REPORT_SCHEMA};
use std::path::PathBuf;

fn committed_report() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results/BENCH_report.json");
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing committed artifact {}: {e}", path.display()))
}

#[test]
fn committed_bench_report_validates() {
    let text = committed_report();
    validate_bench_report(&text)
        .unwrap_or_else(|e| panic!("results/BENCH_report.json fails {BENCH_REPORT_SCHEMA}: {e}"));
    assert!(text.contains(BENCH_REPORT_SCHEMA));
}

#[test]
fn committed_bench_report_has_exactly_the_v9_sections() {
    // History lives in the corpus (`spm corpus query trajectory`) and
    // throughput in `perfbench`: no `trajectory`, `events_per_sec` or
    // `ingest` section may linger in the committed artifact.
    let Ok(Json::Obj(members)) = parse(&committed_report()) else {
        panic!("results/BENCH_report.json is not a JSON object");
    };
    let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "schema",
            "host_parallelism",
            "jobs",
            "repeats",
            "runs",
            "profile",
            "figures"
        ]
    );
}

#[test]
fn committed_bench_report_covers_the_full_suite() {
    // The figure list is the fixed suite; a shrinking artifact means a
    // figure silently dropped out of the timed run.
    let text = committed_report();
    for figure in [
        "fig03",
        "fig04",
        "fig05_fig06",
        "fig789_compute",
        "fig10",
        "fig1112_compute",
        "ablations",
        "supp_classifiers",
        "robustness",
        "ingest",
    ] {
        assert!(
            text.contains(&format!("\"name\": \"{figure}\"")),
            "missing {figure}"
        );
    }
}
