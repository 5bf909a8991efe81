//! Regenerates every figure, writing one file per figure under
//! `results/` (used to populate EXPERIMENTS.md), plus the one bench
//! artifact `results/BENCH_report.json` (`spm-bench/report/v9`, the
//! schema `spm_report::bench::validate_bench_report` checks): the wall
//! time of every suite run, per-figure median/min/total across
//! `--repeat` runs, and the statistical-profiler summary of the first
//! timed run (suite-level sampling and allocation totals plus
//! per-figure samples, heap traffic, and peak RSS). Throughput per
//! layer is not measured here: `perfbench` is the one ledger for it.
//!
//! Flags:
//!
//! - `--jobs N` — worker count for the per-workload fan-out inside each
//!   figure (default: host parallelism).
//! - `--repeat N` — timed repetitions of the suite at `--jobs N`
//!   (default 1); the report takes per-figure medians across them.
//! - `--compare-serial` — additionally run the whole suite at
//!   `--jobs 1` first, assert every figure's text is byte-identical to
//!   the parallel run, and record that run in the report's `runs`.
//! - `--sample-hz N` — span-stack sampling rate of the always-on
//!   profiler (default 97, deliberately low so the per-figure sample
//!   counts stay cheap to collect; 0 keeps allocation/OS accounting
//!   without a sampler thread).
//! - `--profile FILE` — additionally write the first timed run's full
//!   event stream (spans, samples, prof counters) to FILE as
//!   schema-v2 JSONL for `spm report`.
//! - `--corpus DIR` — after writing the report, ingest this suite run
//!   into the content-addressed corpus at DIR (the bench report, plus
//!   the `--profile` stream when one was written); `spm corpus query
//!   trajectory/regressions` trends the suite across builds.

use std::fs;
use std::sync::Arc;

/// The counting allocator backs the per-figure allocation accounting;
/// pass-through until `spm_obs::prof::enable` flips accounting on.
#[global_allocator]
static GLOBAL: spm_prof::CountingAllocator = spm_prof::CountingAllocator;

/// Runs one figure computation under a `bench/<name>` span.
fn timed<T>(name: &str, f: impl FnOnce() -> T) -> T {
    let _span = spm_obs::span(name);
    f()
}

/// Computes every figure in the fixed suite order, each under its own
/// `bench/<name>` span. Figures run sequentially; the worker pool serves
/// the per-workload fan-out inside each figure.
fn compute_figures() -> Vec<(&'static str, String)> {
    use spm_bench::exit_on_error as ok;
    let mut out = Vec::new();
    out.push((
        "fig03",
        timed("bench/fig03", || {
            spm_bench::fig03::render(&ok(spm_bench::fig03::time_series("gzip", 100_000)))
        }),
    ));
    out.push((
        "fig04",
        timed("bench/fig04", || ok(spm_bench::fig04::figure04())),
    ));
    out.push((
        "fig05_fig06",
        timed("bench/fig05_fig06", || {
            ok(spm_bench::fig056::figures_05_06("bzip2"))
        }),
    ));
    let data = timed("bench/fig789_compute", || {
        ok(spm_bench::fig789::compute_suite())
    });
    out.push((
        "fig07",
        timed("bench/fig07", || spm_bench::fig789::figure07(&data)),
    ));
    out.push((
        "fig08",
        timed("bench/fig08", || spm_bench::fig789::figure08(&data)),
    ));
    out.push((
        "fig09",
        timed("bench/fig09", || spm_bench::fig789::figure09(&data)),
    ));
    out.push((
        "fig09_missrate",
        timed("bench/fig09_missrate", || {
            spm_bench::fig789::figure09_missrate(&data)
        }),
    ));
    out.push((
        "fig10",
        timed("bench/fig10", || ok(spm_bench::fig10::figure10())),
    ));
    let rows = timed("bench/fig1112_compute", || {
        ok(spm_bench::fig1112::compute_suite())
    });
    out.push((
        "fig11",
        timed("bench/fig11", || spm_bench::fig1112::figure11(&rows)),
    ));
    out.push((
        "fig12",
        timed("bench/fig12", || spm_bench::fig1112::figure12(&rows)),
    ));
    out.push((
        "ablations",
        timed("bench/ablations", || ok(spm_bench::ablation::all())),
    ));
    out.push((
        "supp_classifiers",
        timed("bench/supp_classifiers", || {
            ok(spm_bench::classifiers::classifier_table())
        }),
    ));
    out.push((
        "robustness",
        timed("bench/robustness", || {
            ok(spm_bench::robustness::robustness_table())
        }),
    ));
    out.push((
        "ingest",
        timed("bench/ingest", || ok(spm_bench::ingest::figure())),
    ));
    out
}

/// One suite run's wall-clock record: its `runs` entry in the report
/// and the per-figure spans the medians aggregate.
struct RunTiming {
    jobs: usize,
    total_us: u64,
    figures: Vec<(String, u64)>,
}

/// One figure's slice of the profiler output: sampler hits whose folded
/// stack roots in the figure's span, heap traffic attributed to the
/// span, and the process peak RSS at its close.
#[derive(Default, Clone)]
struct FigProfile {
    samples: u64,
    allocs: u64,
    alloc_bytes: u64,
    peak_rss_kb: u64,
}

/// The profiler's view of one suite run: session totals plus the
/// per-figure attribution harvested from the event stream.
#[derive(Default)]
struct SuiteProfile {
    sample_hz: u64,
    samples: u64,
    allocs: u64,
    alloc_bytes: u64,
    heap_peak_bytes: u64,
    figures: Vec<(String, FigProfile)>,
}

/// An unsigned field off an event, defaulting to 0 when absent.
fn field_u64(event: &spm_obs::Event, key: &str) -> u64 {
    event
        .fields
        .iter()
        .find(|(k, _)| k == key)
        .map_or(0, |(_, v)| match v {
            spm_obs::Value::U64(n) => *n,
            spm_obs::Value::F64(n) if n.is_finite() && *n >= 0.0 => *n as u64,
            _ => 0,
        })
}

/// A string field off an event.
fn field_str<'a>(event: &'a spm_obs::Event, key: &str) -> Option<&'a str> {
    event.fields.iter().find_map(|(k, v)| match v {
        spm_obs::Value::Str(s) if k == key => Some(s.as_str()),
        _ => None,
    })
}

/// Runs the whole suite once at the given worker count under the
/// always-on profiler, capturing the top-level `bench/<figure>` spans
/// (nested pipeline spans would swamp the artifact; worker-thread spans
/// carry no `bench/` prefix) and the profiler's per-figure attribution
/// for the report. With a `profile` path the run's full event stream is
/// additionally written as schema-v2 JSONL.
fn run_once(
    jobs: usize,
    sample_hz: u32,
    profile: Option<&str>,
) -> (Vec<(&'static str, String)>, RunTiming, SuiteProfile) {
    spm_par::set_default_jobs(jobs);
    let sink = Arc::new(spm_obs::MemorySink::new());
    match profile {
        None => spm_obs::install(sink.clone()),
        Some(path) => {
            let jsonl = spm_obs::JsonlSink::create(std::path::Path::new(path))
                .unwrap_or_else(|e| io_exit(&format!("create {path}"), &e));
            spm_obs::install(Arc::new(spm_obs::Fanout::new(vec![
                sink.clone(),
                Arc::new(jsonl),
            ])));
        }
    }
    spm_obs::prof::enable(sample_hz);
    let figures = compute_figures();
    // Finish before uninstall so the profiler's sample/counter events
    // land in this run's sinks.
    let summary = spm_obs::prof::finish();
    spm_obs::uninstall();

    let mut total_us = 0;
    let mut spans = Vec::new();
    let mut fig_profiles: Vec<(String, FigProfile)> = Vec::new();
    let mut sampled: Vec<(String, u64)> = Vec::new();
    let mut peak_rss: Vec<(String, u64)> = Vec::new();
    for event in sink.events() {
        match event.kind {
            spm_obs::EventKind::Span { dur_us }
                if event.name.starts_with("bench/") && event.name.matches('/').count() == 1 =>
            {
                total_us += dur_us;
                spans.push((event.name["bench/".len()..].to_string(), dur_us));
                fig_profiles.push((
                    event.name.clone(),
                    FigProfile {
                        allocs: field_u64(&event, "allocs"),
                        alloc_bytes: field_u64(&event, "alloc_bytes"),
                        ..FigProfile::default()
                    },
                ));
            }
            spm_obs::EventKind::Sample { count } => {
                if let Some(stack) = field_str(&event, "stack") {
                    sampled.push((stack.to_string(), count));
                }
            }
            spm_obs::EventKind::Gauge { .. } if event.name == "prof/os" => {
                if let Some(stage) = field_str(&event, "stage") {
                    peak_rss.push((stage.to_string(), field_u64(&event, "peak_rss_kb")));
                }
            }
            _ => {}
        }
    }
    // Attribute sampler hits and RSS peaks to their figure: a folded
    // stack belongs to `bench/<name>` when that span is its root frame.
    for (name, prof) in &mut fig_profiles {
        let root = name.as_str();
        prof.samples = sampled
            .iter()
            .filter(|(stack, _)| {
                stack == root || (stack.starts_with(root) && stack.as_bytes()[root.len()] == b';')
            })
            .map(|(_, count)| count)
            .sum();
        prof.peak_rss_kb = peak_rss
            .iter()
            .filter(|(stage, _)| stage == root)
            .map(|(_, kb)| *kb)
            .max()
            .unwrap_or(0);
    }
    let suite_profile = SuiteProfile {
        sample_hz: u64::from(summary.sample_hz),
        samples: summary.samples,
        allocs: summary.allocs,
        alloc_bytes: summary.alloc_bytes,
        heap_peak_bytes: summary.heap_peak_bytes,
        figures: fig_profiles
            .into_iter()
            .map(|(name, prof)| (name["bench/".len()..].to_string(), prof))
            .collect(),
    };
    (
        figures,
        RunTiming {
            jobs,
            total_us,
            figures: spans,
        },
        suite_profile,
    )
}

/// Per-figure aggregate across the `--repeat` suite runs.
struct FigureStat {
    name: String,
    median_us: u64,
    min_us: u64,
    total_us: u64,
}

/// Lower-middle median of a sorted sample set.
fn median_u64(sorted: &[u64]) -> u64 {
    sorted[(sorted.len() - 1) / 2]
}

/// Aggregates the repeats' per-figure durations, keeping the figure
/// order of the first run (the suite order is fixed, so every repeat
/// observes the same names).
fn figure_stats(samples: &[RunTiming]) -> Vec<FigureStat> {
    let Some(first) = samples.first() else {
        return Vec::new();
    };
    first
        .figures
        .iter()
        .map(|(name, _)| {
            let mut durs: Vec<u64> = samples
                .iter()
                .flat_map(|run| &run.figures)
                .filter(|(n, _)| n == name)
                .map(|(_, dur_us)| *dur_us)
                .collect();
            durs.sort_unstable();
            FigureStat {
                name: name.clone(),
                median_us: median_u64(&durs),
                min_us: durs[0],
                total_us: durs.iter().sum(),
            }
        })
        .collect()
}

/// Renders the `runs` section: one `{jobs, total_us}` entry per suite
/// run, the `--compare-serial` run first.
fn runs_json(runs: &[RunTiming]) -> String {
    let mut out = String::from("  \"runs\": [\n");
    for (i, run) in runs.iter().enumerate() {
        let comma = if i + 1 == runs.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"jobs\": {}, \"total_us\": {}}}{comma}\n",
            run.jobs, run.total_us
        ));
    }
    out.push_str("  ],\n");
    out
}

/// Renders the `spm-bench/report/v9` artifact (the schema
/// `spm_report::bench::validate_bench_report` checks).
fn report_json(
    host_parallelism: usize,
    jobs: usize,
    repeats: usize,
    runs: &[RunTiming],
    stats: &[FigureStat],
    profile: &SuiteProfile,
) -> String {
    let mut out = format!(
        "{{\n  \"schema\": \"{}\",\n  \"host_parallelism\": {host_parallelism},\n  \
\"jobs\": {jobs},\n  \"repeats\": {repeats},\n{}",
        spm_report::bench::BENCH_REPORT_SCHEMA,
        runs_json(runs),
    );
    out.push_str(&format!(
        "  \"profile\": {{\"sample_hz\": {}, \"samples\": {}, \"allocs\": {}, \
\"alloc_bytes\": {}, \"heap_peak_bytes\": {}}},\n",
        profile.sample_hz,
        profile.samples,
        profile.allocs,
        profile.alloc_bytes,
        profile.heap_peak_bytes
    ));
    out.push_str("  \"figures\": [\n");
    let empty = FigProfile::default();
    for (i, s) in stats.iter().enumerate() {
        let comma = if i + 1 == stats.len() { "" } else { "," };
        // Per-figure profiler attribution from the first timed run; a
        // figure the profiler never saw reports zeros, not absence.
        let p = profile
            .figures
            .iter()
            .find(|(name, _)| *name == s.name)
            .map_or(&empty, |(_, p)| p);
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"repeats\": {repeats}, \"median_us\": {}, \
\"min_us\": {}, \"total_us\": {}, \"profile\": {{\"samples\": {}, \"allocs\": {}, \
\"alloc_bytes\": {}, \"peak_rss_kb\": {}}}}}{comma}\n",
            s.name,
            s.median_us,
            s.min_us,
            s.total_us,
            p.samples,
            p.allocs,
            p.alloc_bytes,
            p.peak_rss_kb
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn usage(message: &str) -> ! {
    eprintln!("error[usage]: {message}");
    eprintln!(
        "usage: all_figures [--jobs N] [--repeat N] [--compare-serial] \
[--sample-hz N] [--profile FILE] [--corpus DIR]"
    );
    std::process::exit(2)
}

fn io_exit(what: &str, error: &std::io::Error) -> ! {
    eprintln!("error[io]: {what}: {error}");
    std::process::exit(3)
}

/// Default sampling rate: low enough that the sampler never distorts
/// the timed figures, high enough that multi-second figures land
/// samples. A prime, so it cannot lock onto periodic work.
const DEFAULT_SAMPLE_HZ: u32 = 97;

fn main() {
    let mut jobs = spm_par::available_parallelism();
    let mut repeat = 1usize;
    let mut compare_serial = false;
    let mut sample_hz = DEFAULT_SAMPLE_HZ;
    let mut profile_path: Option<String> = None;
    let mut corpus_dir: Option<String> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--jobs" => {
                i += 1;
                jobs = match args.get(i).map(|v| v.parse()) {
                    Some(Ok(n)) if n >= 1 => n,
                    _ => usage("--jobs needs a positive integer"),
                };
            }
            "--repeat" => {
                i += 1;
                repeat = match args.get(i).map(|v| v.parse()) {
                    Some(Ok(n)) if n >= 1 => n,
                    _ => usage("--repeat needs a positive integer"),
                };
            }
            "--compare-serial" => compare_serial = true,
            "--sample-hz" => {
                i += 1;
                sample_hz = match args.get(i).map(|v| v.parse()) {
                    Some(Ok(n)) => n,
                    _ => usage("--sample-hz needs a non-negative integer"),
                };
            }
            "--profile" => {
                i += 1;
                profile_path = match args.get(i) {
                    Some(path) => Some(path.clone()),
                    None => usage("--profile needs a file path"),
                };
            }
            "--corpus" => {
                i += 1;
                corpus_dir = match args.get(i) {
                    Some(dir) => Some(dir.clone()),
                    None => usage("--corpus needs a directory"),
                };
            }
            other => usage(&format!("unknown argument `{other}`")),
        }
        i += 1;
    }

    let mut runs = Vec::new();
    let serial_figures = if compare_serial {
        let (figures, timing, _) = run_once(1, sample_hz, None);
        runs.push(timing);
        Some(figures)
    } else {
        None
    };
    // The report aggregates over the `--repeat` runs at `--jobs N`;
    // the serial comparison run (if any) stays out of its medians. The
    // profiler summary (and the `--profile` stream) comes from the
    // first timed run alone, so repeats never mix attributions.
    let repeats_start = runs.len();
    let mut figures = Vec::new();
    let mut suite_profile = SuiteProfile::default();
    for rep in 0..repeat {
        let profile = (rep == 0).then_some(profile_path.as_deref()).flatten();
        let (figs, timing, prof) = run_once(jobs, sample_hz, profile);
        runs.push(timing);
        if rep > 0 {
            continue;
        }
        suite_profile = prof;
        if let Some(serial) = &serial_figures {
            for ((name, serial_text), (_, parallel_text)) in serial.iter().zip(&figs) {
                if serial_text != parallel_text {
                    eprintln!(
                        "error[analysis]: figure `{name}` differs between --jobs 1 and --jobs {jobs}"
                    );
                    std::process::exit(9);
                }
            }
            println!(
                "compare-serial: all {} figures byte-identical at --jobs 1 vs --jobs {jobs}",
                figs.len()
            );
        }
        figures = figs;
    }

    if let Err(e) = fs::create_dir_all("results") {
        io_exit("create results dir", &e);
    }
    for (name, text) in &figures {
        if let Err(e) = fs::write(format!("results/{name}.txt"), text) {
            io_exit(&format!("write results/{name}.txt"), &e);
        }
        println!("=== {name} ===");
        print!("{text}");
        println!();
    }

    let stats = figure_stats(&runs[repeats_start..]);
    let report = report_json(
        spm_par::available_parallelism(),
        jobs,
        repeat,
        &runs,
        &stats,
        &suite_profile,
    );
    if let Err(message) = spm_report::bench::validate_bench_report(&report) {
        eprintln!("error[analysis]: generated bench report fails its own schema: {message}");
        std::process::exit(9);
    }
    if let Err(e) = fs::write("results/BENCH_report.json", &report) {
        io_exit("write results/BENCH_report.json", &e);
    }
    println!("=== timings ===");
    for run in &runs {
        println!(
            "jobs={}: {:.1}s over {} figures",
            run.jobs,
            run.total_us as f64 / 1e6,
            run.figures.len()
        );
    }
    if let (true, [serial, parallel, ..]) = (compare_serial, &runs[..]) {
        println!(
            "speedup at --jobs {}: {:.2}x",
            parallel.jobs,
            serial.total_us as f64 / parallel.total_us.max(1) as f64
        );
    }
    println!(
        "wrote results/BENCH_report.json ({} figures, {repeat} repeat(s))",
        stats.len()
    );
    println!(
        "profile: {} samples @ {} Hz, {} allocs / {} bytes, heap peak {} bytes",
        suite_profile.samples,
        suite_profile.sample_hz,
        suite_profile.allocs,
        suite_profile.alloc_bytes,
        suite_profile.heap_peak_bytes
    );
    if let Some(path) = &profile_path {
        println!("wrote {path}");
    }
    if let Some(dir) = &corpus_dir {
        let mut artifacts = vec![(
            spm_corpus::ArtifactKind::BenchReport,
            std::path::PathBuf::from("results/BENCH_report.json"),
        )];
        if let Some(path) = &profile_path {
            artifacts.push((spm_corpus::ArtifactKind::Metrics, path.into()));
        }
        let spec = spm_corpus::RunSpec {
            workload: "bench-suite".to_string(),
            input: "-".to_string(),
            seed: 0,
            label: "all_figures".to_string(),
            artifacts,
        };
        match spm_corpus::add(std::path::Path::new(dir), &spec) {
            Ok(outcome) => print!("{}", spm_corpus::ingest::render_outcome(&spec, &outcome)),
            Err(e) => {
                eprintln!("error[{}]: corpus ingest: {e}", e.class());
                std::process::exit(e.exit_code().into());
            }
        }
    }
}
