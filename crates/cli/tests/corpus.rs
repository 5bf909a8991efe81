//! End-to-end corpus workflow over the committed workload files:
//! generate marker/partition/metrics artifacts for 4 workloads x 2
//! inputs, ingest all 8 runs, and assert that `corpus add`, every
//! `corpus query`, the dashboard HTML, and the corpus directory itself
//! are byte-identical at `--jobs 1` and `--jobs 4` — and that
//! re-ingesting an unchanged run is a reported no-op.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn spm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_spm"))
        .args(args)
        .output()
        .expect("spm binary runs")
}

fn ok(args: &[&str]) -> String {
    let out = spm(args);
    assert!(
        out.status.success(),
        "spm {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("spm-cli-corpus-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }

    fn join(&self, name: &str) -> String {
        self.0.join(name).to_str().expect("utf-8 path").to_string()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The committed workload files, as `(name, path)`.
fn workloads() -> Vec<(String, String)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../workloads");
    let mut files: Vec<(String, String)> = std::fs::read_dir(&dir)
        .expect("workloads/ directory exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "spm"))
        .map(|p| {
            let name = p
                .file_stem()
                .and_then(|s| s.to_str())
                .expect("utf-8 stem")
                .to_string();
            (name, p.to_str().expect("utf-8 path").to_string())
        })
        .collect();
    files.sort();
    assert!(files.len() >= 4, "need at least 4 committed workloads");
    files
}

/// Every file under `dir` with its contents — for byte-level
/// comparisons of whole corpus trees.
fn tree(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    fn walk(root: &Path, dir: &Path, out: &mut BTreeMap<String, Vec<u8>>) {
        for entry in std::fs::read_dir(dir).expect("read_dir") {
            let path = entry.expect("entry").path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                let rel = path
                    .strip_prefix(root)
                    .expect("under root")
                    .to_str()
                    .expect("utf-8 path")
                    .to_string();
                out.insert(rel, std::fs::read(&path).expect("read"));
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(dir, dir, &mut out);
    out
}

/// One run's generated artifact files.
struct RunArtifacts {
    workload: String,
    input: &'static str,
    seed: u64,
    markers: String,
    partition: String,
    metrics: String,
}

/// Runs select/partition once per workload x input, capturing markers,
/// partition table, and the select run's metrics stream.
fn generate(work: &TempDir) -> Vec<RunArtifacts> {
    let mut runs = Vec::new();
    for (name, file) in workloads() {
        for (seed, input) in [(1u64, "train"), (2u64, "ref")] {
            let markers_path = work.join(&format!("{name}-{input}.markers"));
            let metrics_path = work.join(&format!("{name}-{input}.jsonl"));
            let markers = ok(&[
                "select",
                &file,
                "--input",
                input,
                "--metrics",
                &metrics_path,
            ]);
            assert!(markers.starts_with("markers v1"), "{markers}");
            std::fs::write(&markers_path, &markers).expect("write markers");
            let partition_path = work.join(&format!("{name}-{input}.partition"));
            let partition = ok(&[
                "partition",
                &file,
                "--input",
                input,
                "--markers",
                &markers_path,
            ]);
            assert!(partition.starts_with("begin\tend\tphase"), "{partition}");
            std::fs::write(&partition_path, &partition).expect("write partition");
            runs.push(RunArtifacts {
                workload: name.clone(),
                input,
                seed,
                markers: markers_path,
                partition: partition_path,
                metrics: metrics_path,
            });
        }
    }
    runs
}

/// Ingests every run into a fresh corpus at the given worker count,
/// returning the concatenated `corpus add` output.
fn ingest(dir: &str, runs: &[RunArtifacts], jobs: &str) -> String {
    let mut out = String::new();
    for run in runs {
        out.push_str(&ok(&[
            "corpus",
            "add",
            "--dir",
            dir,
            "--workload",
            &run.workload,
            "--input",
            run.input,
            "--seed",
            &run.seed.to_string(),
            "--markers",
            &run.markers,
            "--partition",
            &run.partition,
            "--metrics",
            &run.metrics,
            "--jobs",
            jobs,
        ]));
    }
    out
}

#[test]
fn corpus_add_query_html_are_byte_identical_at_jobs_1_and_4() {
    let work = TempDir::new("work");
    let runs = generate(&work);
    assert_eq!(runs.len(), 8, "4 workloads x 2 inputs");

    let dir1 = work.join("corpus-j1");
    let dir4 = work.join("corpus-j4");
    let add1 = ingest(&dir1, &runs, "1");
    let add4 = ingest(&dir4, &runs, "4");
    assert_eq!(add1, add4, "corpus add output depends on worker count");
    assert_eq!(
        tree(Path::new(&dir1)),
        tree(Path::new(&dir4)),
        "corpus trees differ between --jobs 1 and --jobs 4"
    );

    for query in [
        &["corpus", "query", "stability"][..],
        &["corpus", "query", "trajectory"],
        &["corpus", "query", "regressions", "--threshold", "1000000"],
    ] {
        let q1 = ok(&[query, &["--dir", &dir1, "--jobs", "1"]].concat());
        let q4 = ok(&[query, &["--dir", &dir4, "--jobs", "4"]].concat());
        assert_eq!(q1, q4, "{query:?} output depends on worker count");
    }

    // Stability sees all 8 runs; every workload keeps at least one
    // marker across both inputs or reports the disagreement.
    let stability = ok(&["corpus", "query", "stability", "--dir", &dir1]);
    assert!(
        stability.contains("8 run(s) with markers across 4 workload(s)"),
        "{stability}"
    );
    for (name, _) in workloads() {
        assert!(
            stability.contains(&format!("workload {name}:")),
            "{stability}"
        );
    }

    // No bench report ingested: the trajectory renders empty, not an error.
    let trajectory = ok(&["corpus", "query", "trajectory", "--dir", &dir1]);
    assert!(trajectory.contains("0 bench report(s)"), "{trajectory}");

    // An absurd threshold keeps the sweep green; the pair count is the
    // 2-runs-per-workload cross product.
    let regressions = ok(&[
        "corpus",
        "query",
        "regressions",
        "--dir",
        &dir1,
        "--threshold",
        "1000000",
        "--gate",
    ]);
    assert!(
        regressions.contains("8 run(s) with metrics, 4 pair(s)"),
        "{regressions}"
    );
    assert!(regressions.contains("verdict: PASS"), "{regressions}");

    // Re-ingesting an unchanged run is a reported, byte-level no-op.
    let before = tree(Path::new(&dir1));
    let again = ingest(&dir1, &runs[..1], "4");
    assert!(again.contains("(deduplicated: unchanged run)"), "{again}");
    assert!(again.contains("bytes-written=0"), "{again}");
    assert_eq!(tree(Path::new(&dir1)), before, "dedup add changed bytes");

    // The dashboard is byte-identical across worker counts and fully
    // self-contained: inline style only, no scripts or external assets.
    let html1 = work.join("dash-j1.html");
    let html4 = work.join("dash-j4.html");
    ok(&[
        "corpus", "html", "--dir", &dir1, "--out", &html1, "--jobs", "1",
    ]);
    ok(&[
        "corpus", "html", "--dir", &dir4, "--out", &html4, "--jobs", "4",
    ]);
    let page = std::fs::read_to_string(&html1).expect("dashboard written");
    assert_eq!(
        page,
        std::fs::read_to_string(&html4).expect("dashboard written"),
        "dashboard depends on worker count"
    );
    assert!(page.starts_with("<!DOCTYPE html>"), "{page}");
    assert!(page.contains("<style>"));
    for forbidden in ["http://", "https://", "<script", "<link", "@import", "src="] {
        assert!(
            !page.contains(forbidden),
            "external reference `{forbidden}`"
        );
    }
    assert_eq!(
        page.matches("<table>").count(),
        page.matches("</table>").count(),
        "unbalanced tables"
    );
    for (name, _) in workloads() {
        assert!(
            page.contains(&name),
            "workload {name} missing from dashboard"
        );
    }
}

#[test]
fn store_artifacts_key_matches_spm_info() {
    let work = TempDir::new("store");
    let (name, file) = workloads().remove(0);
    let store = work.join(&format!("{name}.spmstk"));
    ok(&["pack", &file, "--input", "train", "--out", &store]);

    // `spm info` surfaces the container's content key...
    let info = ok(&["info", &store]);
    let key = info
        .lines()
        .find_map(|l| l.trim().strip_prefix("key="))
        .unwrap_or_else(|| panic!("no key= line in:\n{info}"))
        .to_string();
    assert_eq!(key.len(), 16, "{key}");

    // ...and the corpus files the blob under exactly that key.
    let dir = work.join("corpus");
    let added = ok(&[
        "corpus",
        "add",
        "--dir",
        &dir,
        "--workload",
        &name,
        "--input",
        "train",
        "--store",
        &store,
    ]);
    assert!(!added.contains("deduplicated"), "{added}");
    let object = Path::new(&dir).join("objects").join(&key);
    assert!(object.exists(), "objects/{key} missing after add:\n{added}");
    assert_eq!(
        std::fs::read(&object).expect("object readable"),
        std::fs::read(&store).expect("store readable"),
        "stored blob must be the container bytes"
    );
}

/// A hand-written `spm-bench/report/v9` document whose `fig03` median
/// is `fig03_median_us`.
fn bench_report(fig03_median_us: u64) -> String {
    format!(
        r#"{{
  "schema": "spm-bench/report/v9",
  "host_parallelism": 2,
  "jobs": 2,
  "repeats": 1,
  "runs": [
    {{"jobs": 1, "total_us": 9000000}},
    {{"jobs": 2, "total_us": 5000000}}
  ],
  "profile": {{"sample_hz": 7, "samples": 35, "allocs": 1000, "alloc_bytes": 900000, "heap_peak_bytes": 500000}},
  "figures": [
    {{"name": "fig03", "repeats": 1, "median_us": {fig03_median_us}, "min_us": {fig03_median_us}, "total_us": {fig03_median_us}, "profile": {{"samples": 2, "allocs": 10, "alloc_bytes": 900, "peak_rss_kb": 4000}}}}
  ]
}}
"#
    )
}

fn add_bench_report(dir: &str, path: &str) -> Output {
    spm(&[
        "corpus",
        "add",
        "--dir",
        dir,
        "--workload",
        "bench-suite",
        "--bench-report",
        path,
    ])
}

#[test]
fn corpus_trajectory_trends_ingested_bench_reports() {
    let work = TempDir::new("bench-trajectory");
    let dir = work.join("corpus");
    for (name, median_us) in [("first.json", 60000), ("second.json", 72000)] {
        let path = work.join(name);
        std::fs::write(&path, bench_report(median_us)).expect("write report");
        let out = add_bench_report(&dir, &path);
        assert!(
            out.status.success(),
            "corpus add {name}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let trajectory = ok(&["corpus", "query", "trajectory", "--dir", &dir]);
    assert!(
        trajectory.contains("2 bench report(s) (seq 1 2)"),
        "{trajectory}"
    );
    assert!(
        trajectory.contains("figure fig03: median_us 60000 72000\n"),
        "{trajectory}"
    );
    // Figure rows are the whole trajectory: throughput is trended in
    // `perfbench`, not here.
    assert_eq!(trajectory.lines().count(), 2, "{trajectory}");

    // A v8 report, with its n=1 throughput sections, is refused by name.
    let stale = bench_report(60000)
        .replace("report/v9", "report/v8")
        .replace(
            "  \"figures\"",
            "  \"events_per_sec\": {\"median\": 25000000, \"n\": 40},\n  \"figures\"",
        );
    let path = work.join("stale.json");
    std::fs::write(&path, stale).expect("write report");
    let out = add_bench_report(&dir, &path);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(9), "a v8 report must be rejected");
    assert!(
        stderr.starts_with("error[analysis]"),
        "typed error: {stderr}"
    );
    assert!(stderr.contains("spm-bench/report/v8"), "{stderr}");
    assert!(stderr.contains("spm-bench/report/v9"), "{stderr}");
}

#[test]
fn corpus_usage_errors_exit_2() {
    for args in [
        &["corpus"][..],
        &["corpus", "frobnicate"],
        &["corpus", "add", "--dir", "/nonexistent"],
        &["corpus", "query", "nonsense", "--dir", "/nonexistent"],
        &["corpus", "html", "--dir", "/nonexistent"],
        &["corpus", "add", "--workload", "x"],
    ] {
        let out = spm(args);
        assert_eq!(
            out.status.code(),
            Some(2),
            "spm {args:?}: expected usage exit, got {:?}\n{}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
