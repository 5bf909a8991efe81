//! The committed bench report must validate against the executable
//! schema — the same check CI runs, so a hand-edited or stale artifact
//! fails before it merges.

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
fn committed_bench_report_carries_no_history_or_retired_decoders() {
    // History lives in the corpus (`spm corpus query trajectory`), the
    // flat trace decoder no longer exists, and neither does the
    // per-event `store` row (every producer delivers batches).
    let text = committed_report();
    assert!(
        !text.contains("\"trajectory\""),
        "stale in-report trajectory"
    );
    assert!(
        !text.contains("\"name\": \"flat\""),
        "stale flat decoder row"
    );
    assert!(
        !text.contains("\"name\": \"store\","),
        "stale per-event store decoder row"
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
