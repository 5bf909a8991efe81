//! `spm` — command-line driver for the software-phase-marker pipeline.
//!
//! `spm help` prints the usage of every subcommand and flag (`HELP`
//! below, the one usage list).
//!
//! `profile` prints the call-loop graph (text format, or Graphviz with
//! `--dot`); `select` prints a marker file; `partition` re-runs the
//! program with markers (from `--markers` or selected on the spot) and
//! prints one line per variable-length interval with CPI and DL1 miss
//! rate; `simpoint` classifies fixed-length intervals with BBV
//! clustering and prints the chosen simulation points; `predict` trains
//! the Markov phase predictor on the partition and reports accuracy.
//! Workloads are the built-in synthetic suite.
//!
//! # Trace stores
//!
//! `pack` (or its alias `record`) runs a workload once and writes its
//! event stream into a block-based `spmstk01` container, the one
//! on-disk trace format; `info` prints its index summary and `replay`
//! drives the timing model from it. `select`, `partition`, `simpoint`
//! and `send` accept a store anywhere a workload is accepted — via
//! `--store FILE` or a `.spmstk` file (detected by extension or magic)
//! — and one resolver ([`trace::Trace`]) feeds either source to the same
//! analysis code, decoding a store one block at a time. A corrupted block
//! degrades to a structured `store/skipped-block` warning instead of
//! failing the run. The commands that need the program itself take
//! workloads only, and give a store a usage error.
//!
//! # Run corpus
//!
//! `corpus add` ingests a run's artifacts (store container, JSONL
//! streams, marker file, partition table, bench report) into a
//! content-addressed corpus directory: every blob is validated against
//! its layer's schema and filed under its content key, so re-ingesting
//! an unchanged run writes zero bytes. `corpus query` answers offline
//! fleet-wide questions — marker stability across inputs/seeds,
//! per-figure perf trajectories over every ingested bench report, and
//! noise-aware cross-run regressions (`--gate` exits 10) — and
//! `corpus html` renders all three as one self-contained dashboard.
//!
//! # Streaming marker service
//!
//! `serve` runs the long-lived streaming service (`spm-serve`): many
//! concurrent trace sessions over one socket, each running incremental
//! call-loop analysis with marker deltas pushed back online, bounded
//! queues with `BUSY` backpressure, per-session memory budgets, and —
//! with `--serve-dir` — a crash-safe journal so sessions resume across
//! client disconnects *and* server restarts. `send` is the client and
//! load generator: it streams workloads (or `.spmstk` stores) to a
//! server and prints the final marker set, byte-identical to the batch
//! `spm select` output for the same selection flags. A finished
//! session's journal and marker file ingest into the run corpus via
//! `corpus add --from-session`.
//!
//! # Parallelism
//!
//! `select`, `partition`, and `simpoint` accept several workloads and
//! fan them out across a worker pool (`--jobs N`, default: host
//! parallelism). Output order and bytes are independent of the worker
//! count: per-workload stdout/stderr are buffered and emitted in
//! argument order, prefixed with `# workload: NAME` when more than one
//! workload was given. Span events from workers carry a `thread` field
//! with the worker id.
//!
//! # Exit codes
//!
//! Every failure class maps to a stable nonzero exit code so scripts
//! can dispatch on it: `2` usage, and [`SpmError::exit_code`] for the
//! pipeline stages (`3` I/O, `4` workload DSL parse, `5` graph/marker
//! file parse, `6` execution, `7` profiler, `8` trace decode,
//! `9` analysis/clustering, `10` gated performance regression, `11`
//! transient I/O errors that outlasted the store retry budget). A
//! closed stdout pipe exits with the conventional SIGPIPE status `141`.
//! Usage errors print the usage text to *stderr*, keeping stdout clean
//! for pipelines. When marker partitioning degrades to fixed-length
//! intervals, a machine-readable `warning: fallback=fixed-length
//! reason=... interval=... workload=...` line goes to stderr.
//!
//! # Observability
//!
//! Every subcommand accepts `--metrics FILE` (all pipeline events as
//! JSONL, schema documented in `spm-obs`), `--spans FILE` (span events
//! only), and `-v`/`--verbose` (per-stage timing summary on stderr
//! after the command finishes). Degradation warnings are routed through
//! the same structured stream as `warning` events, deduplicated per
//! run and keyed by workload in batch runs.
//!
//! `--profile FILE` turns on the statistical profiler for any
//! subcommand: a sampler thread (`--sample-hz`, default 99 Hz, 0
//! disables sampling) walks the live span stacks into folded-stack
//! `sample` events, the counting allocator attributes heap traffic to
//! the enclosing span, and `/proc/self` deltas (CPU time, peak RSS,
//! I/O bytes) are captured around top-level stages. Everything lands in
//! FILE as schema-v2 JSONL next to the ordinary span events, so
//! `spm report` renders it without extra flags — including a
//! statistical flame view next to the span flame, and `--folded OUT`
//! exports the stacks for external flamegraph tools.
//!
//! `spm report` closes the loop: it reads the `--metrics`/`--spans`
//! JSONL files back (schema-validated) and renders a hierarchical
//! flame view, a phase-quality dashboard, an optional self-contained
//! HTML report, and — with `--baseline`/`--candidate` — a noise-aware
//! cross-run regression verdict that exits `10` on failure.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod args;
mod plot;
mod serve_cli;
mod trace;

use args::{parse, ArgError, ParsedArgs};
use spm_core::predict::{DurationPredictor, MarkovPredictor, PhasePredictor};
use spm_core::text::{graph_to_dot, write_graph, write_markers};
use spm_core::{
    partition_with_fallback, select_markers, MarkerFiring, MarkerRuntime, SelectConfig, SpmError,
    Vli,
};
use spm_sim::{run, Timeline, TraceObserver};
use spm_store::StoreWriter;
use std::process::ExitCode;
use trace::{open_store, read_markers, store_error, store_replay, MarkerSource, Trace};

/// What a subcommand can fail with: a usage mistake (exit 2, usage text
/// on stderr) or a typed pipeline error (its own exit code).
#[derive(Debug)]
enum CliError {
    Usage(String),
    Pipeline(SpmError),
}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Usage(e.to_string())
    }
}

impl From<SpmError> for CliError {
    fn from(e: SpmError) -> Self {
        CliError::Pipeline(e)
    }
}

/// Exit code for usage errors (bad flags, unknown subcommands, missing
/// arguments). Pipeline errors use [`SpmError::exit_code`] (3..=11).
const USAGE_EXIT: u8 = 2;

/// The counting allocator is always installed; it stays pass-through
/// (one relaxed atomic load per allocation) until `--profile` enables
/// accounting.
#[global_allocator]
static GLOBAL: spm_prof::CountingAllocator = spm_prof::CountingAllocator;

fn main() -> ExitCode {
    // Piping into `head` closes stdout early; exit quietly with the
    // conventional SIGPIPE status instead of panicking mid-print.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let broken_pipe = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|s| s.contains("Broken pipe"));
        if broken_pipe {
            std::process::exit(141);
        }
        default_hook(info);
    }));

    let parsed = match parse(std::env::args().skip(1)) {
        Ok(p) => p,
        Err(e) => return usage_failure(&e.to_string()),
    };
    if let Some(value) = parsed.flags.get("jobs") {
        match value.parse::<usize>() {
            Ok(jobs) if jobs >= 1 => spm_par::set_default_jobs(jobs),
            _ => {
                return usage_failure(&format!(
                    "flag --jobs: cannot parse `{value}` (need an integer >= 1)"
                ))
            }
        }
    }
    let verbose_sink = match setup_obs(&parsed) {
        Ok(sink) => sink,
        Err(CliError::Usage(message)) => return usage_failure(&message),
        Err(CliError::Pipeline(e)) => {
            eprintln!("error[{}]: {e}", e.class());
            return ExitCode::from(e.exit_code());
        }
    };
    let result = {
        // The command span must close before `prof::finish()` so its
        // allocation fields and root OS deltas make it into the stream.
        let _span = spm_obs::span(&format!("cli/{}", parsed.command));
        match parsed.command.as_str() {
            "list" => cmd_list(),
            "profile" => cmd_profile(&parsed),
            "select" => run_batch(&parsed, select_one),
            "partition" => run_batch(&parsed, partition_one),
            "simpoint" => run_batch(&parsed, simpoint_one),
            "predict" => cmd_predict(&parsed),
            "structure" => cmd_structure(&parsed),
            "explain" => cmd_explain(&parsed),
            "export" => cmd_export(&parsed),
            "timeseries" => cmd_timeseries(&parsed),
            "pack" | "record" => cmd_pack(&parsed),
            "replay" => cmd_replay(&parsed),
            "info" => cmd_info(&parsed),
            "report" => cmd_report(&parsed),
            "corpus" => cmd_corpus(&parsed),
            "serve" => serve_cli::cmd_serve(&parsed),
            "send" => serve_cli::cmd_send(&parsed),
            "help" | "--help" => {
                print!("{HELP}");
                Ok(())
            }
            other => Err(CliError::Usage(format!(
                "unknown subcommand `{other}` (try `spm help`)"
            ))),
        }
    };
    spm_obs::prof::finish();
    spm_obs::flush();
    if let Some(sink) = verbose_sink {
        eprint!("{}", spm_obs::summary::render(&sink.events()));
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(message)) => usage_failure(&message),
        Err(CliError::Pipeline(e)) => {
            eprintln!("error[{}]: {e}", e.class());
            ExitCode::from(e.exit_code())
        }
    }
}

/// Installs the event recorder requested by `--metrics`, `--spans`,
/// `-v`/`--verbose`, and `--profile`. Returns the in-memory sink
/// backing the verbose summary, when one was requested. With none of
/// the flags the recorder stays uninstalled and instrumentation is
/// zero-cost. `--profile` additionally starts the statistical profiler
/// (sampler thread plus allocation/OS accounting) at `--sample-hz`.
fn setup_obs(parsed: &ParsedArgs) -> Result<Option<std::sync::Arc<spm_obs::MemorySink>>, CliError> {
    let mut sinks: Vec<std::sync::Arc<dyn spm_obs::Recorder>> = Vec::new();
    let open = |path: &str, spans_only: bool| -> Result<spm_obs::JsonlSink, CliError> {
        let path = std::path::Path::new(path);
        let make = if spans_only {
            spm_obs::JsonlSink::create_spans_only
        } else {
            spm_obs::JsonlSink::create
        };
        make(path).map_err(|e| {
            CliError::Pipeline(SpmError::Io {
                path: path.display().to_string(),
                message: e.to_string(),
            })
        })
    };
    // `corpus add` reuses `--metrics` as an *input* artifact path;
    // opening it as an output sink here would truncate the very stream
    // being ingested. File sinks stay off for the corpus subcommand
    // (it only reads); `--verbose` below still works.
    let file_sinks = parsed.command != "corpus";
    if let Some(path) = parsed.flags.get("metrics").filter(|_| file_sinks) {
        sinks.push(std::sync::Arc::new(open(path, false)?));
    }
    if let Some(path) = parsed.flags.get("spans").filter(|_| file_sinks) {
        sinks.push(std::sync::Arc::new(open(path, true)?));
    }
    let mut profile_hz = None;
    if let Some(path) = parsed.flags.get("profile").filter(|_| file_sinks) {
        sinks.push(std::sync::Arc::new(open(path, false)?));
        let hz = parsed.u64_flag("sample-hz", 99)?;
        let hz = u32::try_from(hz).map_err(|_| {
            CliError::Usage(format!(
                "flag --sample-hz: `{hz}` is out of range (max 4294967295)"
            ))
        })?;
        profile_hz = Some(hz);
    }
    let mut verbose_sink = None;
    if parsed.has("verbose") {
        let sink = std::sync::Arc::new(spm_obs::MemorySink::new());
        sinks.push(sink.clone());
        verbose_sink = Some(sink);
    }
    match sinks.len() {
        0 => {}
        1 => spm_obs::install(sinks.remove(0)),
        _ => spm_obs::install(std::sync::Arc::new(spm_obs::Fanout::new(sinks))),
    }
    // Start the profiler only after the recorder is live so its final
    // events have somewhere to land.
    if let Some(hz) = profile_hz {
        spm_obs::prof::enable(hz);
    }
    Ok(verbose_sink)
}

/// Reports a usage error: message plus the usage text, all on stderr so
/// stdout stays clean for pipelines.
fn usage_failure(message: &str) -> ExitCode {
    eprintln!("error: {message}");
    eprint!("{HELP}");
    ExitCode::from(USAGE_EXIT)
}

const HELP: &str = "\
spm - software phase markers (CGO'06 reproduction)

USAGE:
  spm list
  spm profile <workload> [--input train|ref] [--dot] [--markers FILE]
  spm select  <workload>... [--input train|ref] [--ilower N] [--limit N] [--procs-only]
  spm partition <workload>... [--markers FILE] [--input train|ref] [--ilower N]
  spm simpoint <workload>... [--input train|ref] [--interval N] [--kmax K]
  spm predict <workload> [--order K] [--ilower N]
  spm structure <workload> [--ilower N]
  spm explain <workload> [--input train|ref] [--ilower N] [--limit N]
  spm export <workload>
  spm timeseries <workload> [--input train|ref] [--step N] [--plot]
  spm pack <workload> --out FILE.spmstk [--block-size N]
           [--sync none|block|close] [--compress] [--input train|ref]
  spm record <workload> --out FILE.spmstk ...   (another name for pack)
  spm replay <file.spmstk>
  spm info <file.spmstk>
  spm report <metrics.jsonl>... [--html FILE] [--folded FILE]
  spm report --baseline A.jsonl --candidate B.jsonl [--threshold PCT]
             [--min-us N] [--html FILE]
  spm corpus add --dir DIR --workload NAME [--input NAME] [--seed N]
             [--label TEXT] [--store FILE] [--metrics FILE]
             [--markers FILE] [--partition FILE] [--bench-report FILE]
  spm corpus add --dir DIR --from-session NAME --serve-dir DIR
  spm corpus query stability|trajectory|regressions --dir DIR
             [--top N] [--threshold PCT] [--min-us N] [--gate]
  spm corpus html --dir DIR --out FILE [--top N] [--threshold PCT]
             [--min-us N]
  spm serve [--listen ADDR] [--health ADDR|none] [--serve-dir DIR]
             [--budget BYTES] [--queue N] [--converge N] [--expect N]
             [--ilower N] [--limit N] [--procs-only]
  spm send <workload|file.spmstk>... --connect ADDR [--session NAME]
             [--sessions N] [--block-size N] [--input train|ref] [--jobs N]

FLAGS:
  --out FILE          where `pack`/`record` writes the trace store
  --store FILE        run select/partition/simpoint off an spmstk01 store
                      instead of executing the workload; .spmstk files
                      given positionally are detected automatically
  --block-size N      `pack`: pre-compression block budget in bytes
                      (default 262144)
  --sync MODE         `pack`: durability policy recorded in the header
                      (none | block | close; default block syncs every
                      flushed block so a crash loses at most the block
                      in flight)
  --compress          `pack`: LZ-compress each block payload (recorded
                      in the header; replay decompresses transparently,
                      composing with recovery)
  --input train|ref   which input to run (default: ref; select defaults to train)
  --ilower N          minimum average interval size in instructions (default 10000)
  --limit N           enable the max-interval-size (SimPoint) variant
  --procs-only        consider procedure edges only
  --dot               emit the call-loop graph as Graphviz DOT
  --markers FILE      read markers from FILE instead of selecting them
                      (`profile --dot`: highlight them in the graph)
  --order K           Markov predictor history length (default 1)
  --step N            sample stride for timeseries (default 10000)
  --plot              render timeseries as terminal sparklines
  --param k=v[,k=v]   override input parameters
  --interval N        fixed BBV interval size for simpoint (default 10000)
  --kmax K            maximum clusters for simpoint (default 10)
  --jobs N            worker threads for batch select/partition/simpoint
                      runs (default: host parallelism); output bytes are
                      identical at any worker count

CORPUS FLAGS:
  --dir DIR           the corpus directory (created by the first `add`)
  --workload NAME     the run's workload coordinate for `corpus add`
  --seed N            the run's input seed coordinate (default 0)
  --label TEXT        display label (default `workload/input#seed`)
  --store FILE        ingest an spmstk01 container (keyed by content)
  --metrics FILE      ingest a metrics/spans/profile JSONL stream
  --markers FILE      ingest a selected-marker file (`markers v1`)
  --partition FILE    ingest a phase-partition table
  --bench-report FILE ingest a results/BENCH_report.json
  --top N             show the worst N regressions / series (default 20)
  --gate              `query regressions`: exit 10 when any same-workload
                      run pair regresses beyond the threshold
  (the artifact flags double as observability flags elsewhere; for
   `corpus` they always name input files and are never truncated)

SERVE FLAGS:
  --listen ADDR       wire-protocol listen address (default 127.0.0.1:0;
                      the bound address is printed as the first stdout
                      line: `serve: listening on HOST:PORT`)
  --health ADDR|none  health endpoint address (default 127.0.0.1:0,
                      printed as `serve: health on HOST:PORT`; `none`
                      disables it); GET returns the current per-session
                      gauges as schema-valid spm-obs JSONL
  --serve-dir DIR     journal accepted blocks to DIR as crash-safe
                      spmstk01 generations; sessions then resume across
                      server restarts, and finished sessions leave
                      `<name>.markers` next to the journal
  --budget BYTES      per-session memory budget (default 67108864);
                      overflow with a non-empty queue is BUSY
                      backpressure, with an empty queue a typed fatal
                      BUDGET_EXCEEDED
  --queue N           bounded per-session queue capacity in blocks
                      (default 8)
  --converge N        consecutive unchanged updates before the online
                      set counts as converged
  --expect N          stop serving (and exit) once N sessions completed
  --connect ADDR      `send`: the server address printed by `serve`
  --session NAME      `send`: session name (default: workload stem)
  --sessions N        `send`: stream N replica sessions per workload
                      (suffix -1..-N), the serve-bench load shape
  --from-session NAME `corpus add`: ingest a finished session's journal
                      generations and marker file from --serve-dir

REPORT FLAGS:
  --baseline FILE     baseline metrics/spans stream for the diff mode
  --candidate FILE    candidate stream compared against --baseline
  --threshold PCT     allowed relative slowdown per stage in percent
                      (default 25): a stage regresses when its median
                      exceeds the baseline median by more than PCT%
  --min-us N          noise floor in microseconds (default 1000): stages
                      whose medians sit below it are never gated
  --html FILE         also write a self-contained HTML report
  --folded FILE       export folded stacks (`path;path count` lines) for
                      external flamegraph tools: profiler samples when
                      present, span self-times otherwise

OBSERVABILITY (any subcommand):
  --metrics FILE      write all pipeline events (spans, counters, gauges,
                      histograms, warnings) to FILE as JSON Lines
  --spans FILE        write span (timing) events only to FILE
  --profile FILE      statistical profiler: sampled span stacks, per-stage
                      allocation counts, and OS resource deltas (CPU, peak
                      RSS, I/O) written to FILE as JSON Lines (schema v2)
  --sample-hz N       sampling frequency for --profile in Hz (default 99;
                      0 keeps allocation/OS accounting without a sampler)
  -v, --verbose       print a per-stage timing summary to stderr

EXIT CODES:
  0 ok, 2 usage, 3 I/O, 4 workload parse, 5 graph/marker parse,
  6 execution, 7 profiler (corrupt event stream), 8 trace decode,
  9 analysis (clustering), 10 performance regression (report gate),
  11 transient I/O errors that outlasted the store retry budget
";

fn select_config(parsed: &ParsedArgs) -> Result<SelectConfig, ArgError> {
    let ilower = parsed.u64_flag("ilower", 10_000)?;
    let mut config = match parsed.u64_flag("limit", 0)? {
        0 => SelectConfig::new(ilower),
        limit => SelectConfig::with_limit(ilower, limit),
    };
    if parsed.has("procs-only") {
        config = config.procedures_only();
    }
    Ok(config)
}

/// One marked pass over a trace: its markers, where they fired, and the
/// instruction total.
struct MarkedRun {
    source: MarkerSource,
    firings: Vec<MarkerFiring>,
    total: u64,
}

/// Resolves the markers (`--markers FILE` or selection, see
/// [`Trace::markers`]) and delivers the trace to a [`MarkerRuntime`],
/// with `timeline` riding the same pass when a command reports timing.
fn marked_run(
    trace: &mut Trace,
    parsed: &ParsedArgs,
    timeline: Option<&mut Timeline>,
    err: &mut String,
) -> Result<MarkedRun, CliError> {
    let source = trace.markers(parsed, err)?;
    let mut runtime = MarkerRuntime::new(&source.markers);
    let total = {
        let mut observers: Vec<&mut dyn TraceObserver> = vec![&mut runtime];
        observers.extend(timeline.map(|t| t as &mut dyn TraceObserver));
        trace.feed(&mut observers, err)?
    };
    let firings = runtime.into_firings();
    Ok(MarkedRun {
        source,
        firings,
        total,
    })
}

impl MarkedRun {
    /// Partitions at `--ilower` with graceful degradation, announcing
    /// any fixed-length fallback in a machine-readable form appended to
    /// `err`. The `workload` field keys the dedupe per workload, so a
    /// batch run warns once per degraded workload regardless of the
    /// worker count.
    fn partition(
        &self,
        parsed: &ParsedArgs,
        workload_name: &str,
        err: &mut String,
    ) -> Result<Vec<Vli>, CliError> {
        let outcome = partition_with_fallback(
            &self.source.markers,
            &self.firings,
            self.total,
            parsed.u64_flag("ilower", 10_000)?,
            self.source.degenerate_cov,
        );
        if let Some(fb) = &outcome.fallback {
            // The structured event carries the same facts as the stderr
            // line; its dedupe return keeps both channels in sync.
            if spm_obs::warning(
                "fallback/fixed-length",
                &[
                    ("reason", fb.reason.to_string().into()),
                    ("interval", fb.interval.into()),
                    ("workload", workload_name.to_string().into()),
                ],
            ) {
                err.push_str(&format!(
                    "warning: fallback=fixed-length reason={} interval={} workload={}\n",
                    fb.reason, fb.interval, workload_name
                ));
            }
        }
        Ok(outcome.vlis)
    }
}

/// Buffered stdout/stderr of one batch unit, printed in argument order.
struct CommandOutput {
    out: String,
    err: String,
}

/// Runs a per-workload command over every positional argument, and a
/// `--store FILE` value after them, under `# workload: NAME` headers
/// (see [`run_units`]).
fn run_batch(
    parsed: &ParsedArgs,
    one: impl Fn(&ParsedArgs, &str) -> Result<CommandOutput, CliError> + Sync,
) -> Result<(), CliError> {
    let mut parsed = parsed.clone();
    if let Some(path) = parsed.flags.remove("store") {
        parsed.positional.push(path);
    }
    if parsed.positional.is_empty() {
        return Err(ArgError::MissingPositional("workload").into());
    }
    run_units(
        "workload",
        &parsed.positional,
        |name| name,
        |name| one(&parsed, name),
    )
}

/// Runs `one` over every unit, fanning out across the worker pool
/// (`--jobs`). Buffered outputs are emitted in unit order — bytes are
/// identical at any worker count — each under a `# LABEL: KEY` header
/// when there is more than one unit.
fn run_units<T: Sync>(
    label: &str,
    units: &[T],
    key: impl Fn(&T) -> &str,
    one: impl Fn(&T) -> Result<CommandOutput, CliError> + Sync,
) -> Result<(), CliError> {
    let outputs = spm_par::try_par_map(units, one)?;
    let many = units.len() > 1;
    for (unit, output) in units.iter().zip(outputs) {
        if many {
            println!("# {label}: {}", key(unit));
        }
        print!("{}", output.out);
        eprint!("{}", output.err);
    }
    Ok(())
}

fn cmd_list() -> Result<(), CliError> {
    println!(
        "{:<10} {:>14} {:>14} {:>14}",
        "workload", "train instrs", "ref instrs", "est ref"
    );
    for w in spm_workloads::suite() {
        let t = run(&w.program, &w.train_input, &mut []).map_err(SpmError::Run)?;
        let r = run(&w.program, &w.ref_input, &mut []).map_err(SpmError::Run)?;
        let est = spm_ir::estimate_work(&w.program, &w.ref_input);
        println!(
            "{:<10} {:>14} {:>14} {:>14.0}",
            w.name, t.instrs, r.instrs, est.instrs
        );
    }
    Ok(())
}

fn cmd_profile(parsed: &ParsedArgs) -> Result<(), CliError> {
    let graph = Trace::workload(parsed, "ref")?.graph(&mut String::new())?;
    if parsed.has("dot") {
        let markers = parsed
            .flags
            .get("markers")
            .map(|path| read_markers(path))
            .transpose()?;
        print!("{}", graph_to_dot(&graph, markers.as_ref()));
    } else {
        print!("{}", write_graph(&graph));
    }
    let summary = spm_core::summarize(&graph);
    eprintln!(
        "# {} nodes, {} edges, {} procs, {} loops, depth {}, {} traversals",
        summary.nodes,
        summary.edges,
        summary.procs,
        summary.loops,
        summary.max_depth,
        summary.total_traversals
    );
    for cycle in &summary.recursive_cycles {
        let names: Vec<String> = cycle.iter().map(|k| k.to_string()).collect();
        eprintln!("# recursive cycle: {}", names.join(" -> "));
    }
    Ok(())
}

fn select_one(parsed: &ParsedArgs, name: &str) -> Result<CommandOutput, CliError> {
    let mut err = String::new();
    let graph = Trace::open(name, parsed, "train", &mut err)?.graph(&mut err)?;
    let outcome = select_markers(&graph, &select_config(parsed)?);
    err.push_str(&format!(
        "# {} markers from {} candidates (avg CoV {:.2}%, threshold spread {:.2}%)\n",
        outcome.markers.len(),
        outcome.candidate_edges,
        outcome.avg_cov * 100.0,
        outcome.std_cov * 100.0
    ));
    if outcome.degenerate_cov
        && spm_obs::warning(
            "select/degenerate-cov",
            &[("workload", name.to_string().into())],
        )
    {
        err.push_str("warning: degenerate-cov: no candidate edge has a finite CoV\n");
    }
    Ok(CommandOutput {
        out: write_markers(&outcome.markers),
        err,
    })
}

/// `partition` of one workload or store: markers from `--markers FILE`
/// or selected on the spot (see [`Trace::markers`]), then one marked
/// pass with the timing timeline.
fn partition_one(parsed: &ParsedArgs, name: &str) -> Result<CommandOutput, CliError> {
    let mut err = String::new();
    let mut trace = Trace::open(name, parsed, "ref", &mut err)?;
    let mut timeline = Timeline::with_defaults(1_000);
    let vlis = marked_run(&mut trace, parsed, Some(&mut timeline), &mut err)?
        .partition(parsed, name, &mut err)?;
    Ok(render_partition(&vlis, &timeline, err))
}

/// Renders the partition table (stdout) and its summary (stderr).
fn render_partition(vlis: &[Vli], timeline: &Timeline, mut err: String) -> CommandOutput {
    let mut out = String::from("begin\tend\tphase\tcpi\tdl1_miss\n");
    for v in vlis {
        out.push_str(&format!(
            "{}\t{}\t{}\t{:.4}\t{:.4}\n",
            v.begin,
            v.end,
            v.phase,
            timeline.cpi(v.begin..v.end),
            timeline.miss_rate(v.begin..v.end)
        ));
    }
    err.push_str(&format!(
        "# {} intervals, {} phases, avg length {:.0} instrs\n",
        vlis.len(),
        spm_core::marker::phase_count(vlis),
        spm_core::marker::avg_interval_len(vlis)
    ));
    let mut lengths = spm_stats::LogHistogram::new();
    lengths.extend(vlis.iter().map(|v| v.len()));
    err.push_str(&format!(
        "# interval length distribution:\n{}",
        indent(&lengths.render())
    ));
    CommandOutput { out, err }
}

/// Seed for the CLI's BBV clustering (the bench suite's analysis seed,
/// so `spm simpoint` agrees with the committed figures).
const SIMPOINT_SEED: u64 = 0x5051_2006;

fn simpoint_one(parsed: &ParsedArgs, name: &str) -> Result<CommandOutput, CliError> {
    let interval = parsed.u64_flag("interval", 10_000)?.max(1);
    let kmax = (parsed.u64_flag("kmax", 10)?.max(1)) as usize;
    let mut err = String::new();
    let mut trace = Trace::open(name, parsed, "ref", &mut err)?;
    // Block sizes are learned from the events, so a store needs no
    // program; a footer that predates the program grows the width.
    let mut collector = spm_bbv::IntervalBbvCollector::for_trace(
        trace.block_dims(),
        spm_bbv::Boundaries::Fixed(interval),
    );
    trace.feed(&mut [&mut collector], &mut err)?;
    let intervals = collector.into_intervals();
    let vectors: Vec<Vec<f64>> = intervals.iter().map(|iv| iv.bbv.clone()).collect();
    let weights: Vec<f64> = intervals.iter().map(|iv| iv.len() as f64).collect();
    let dims = 15.min(vectors.first().map_or(1, Vec::len).max(1));
    let sp = spm_simpoint::pick_simpoints(
        &vectors,
        &weights,
        &spm_simpoint::SimPointConfig::new(kmax, dims, SIMPOINT_SEED),
    )
    .map_err(|e| SpmError::Analysis {
        stage: "cli/simpoint".to_string(),
        message: e.to_string(),
    })?;
    let mut out = String::from("cluster\trepresentative\tbegin\tend\tweight\n");
    for (cluster, info) in sp.clusters.iter().enumerate() {
        let iv = &intervals[info.representative];
        out.push_str(&format!(
            "{cluster}\t{}\t{}\t{}\t{:.4}\n",
            info.representative, iv.begin, iv.end, info.weight
        ));
    }
    err.push_str(&format!(
        "# {} intervals of {} instrs -> k={} phases (coverage {:.2})\n",
        intervals.len(),
        interval,
        sp.k,
        sp.coverage()
    ));
    Ok(CommandOutput { out, err })
}

fn indent(text: &str) -> String {
    text.lines().map(|l| format!("#   {l}\n")).collect()
}

/// The partition behind `predict` and `structure`: the workload's
/// `--input` (default `ref`) marked and partitioned, with any fallback
/// warning printed to stderr.
fn workload_partition(parsed: &ParsedArgs) -> Result<(Trace, Vec<Vli>), CliError> {
    let mut trace = Trace::workload(parsed, "ref")?;
    let mut warn = String::new();
    let vlis = marked_run(&mut trace, parsed, None, &mut warn)?.partition(
        parsed,
        parsed.positional("workload")?,
        &mut warn,
    )?;
    eprint!("{warn}");
    Ok((trace, vlis))
}

fn cmd_predict(parsed: &ParsedArgs) -> Result<(), CliError> {
    let (trace, vlis) = workload_partition(parsed)?;
    let order = parsed.u64_flag("order", 1)? as usize;
    let mut markov = MarkovPredictor::new(order);
    let mut last = spm_core::predict::LastPhasePredictor::new();
    let mut durations = DurationPredictor::new();
    for v in &vlis {
        markov.observe(v.phase);
        last.observe(v.phase);
        durations.observe(v.phase, v.len());
    }
    println!(
        "workload: {} ({} intervals)",
        trace.program_name(),
        vlis.len()
    );
    println!("  last-phase accuracy:  {:.1}%", last.accuracy() * 100.0);
    println!(
        "  markov({order}) accuracy:   {:.1}% ({} table entries)",
        markov.accuracy() * 100.0,
        markov.table_size()
    );
    let mut phases: Vec<usize> = vlis.iter().map(|v| v.phase).collect();
    phases.sort_unstable();
    phases.dedup();
    for phase in phases {
        if let (Some(mean), Some(cov)) = (durations.predict(phase), durations.confidence_cov(phase))
        {
            println!(
                "  phase {phase}: expected {mean:.0} instrs (CoV {:.1}%)",
                cov * 100.0
            );
        }
    }
    Ok(())
}

fn cmd_structure(parsed: &ParsedArgs) -> Result<(), CliError> {
    let (trace, vlis) = workload_partition(parsed)?;
    let hierarchy = spm_reuse::phase_hierarchy(&vlis);
    println!(
        "workload: {} ({} intervals, compression {:.2})",
        trace.program_name(),
        vlis.len(),
        hierarchy.compression_ratio
    );
    if !hierarchy.is_hierarchical() {
        println!("  no repeating super-phase structure found");
        return Ok(());
    }
    println!(
        "  {} super-phases, max depth {}:",
        hierarchy.super_phases.len(),
        hierarchy.max_depth()
    );
    for sp in hierarchy.super_phases.iter().take(10) {
        let phases: Vec<String> = sp.phases.iter().map(|p| p.to_string()).collect();
        println!(
            "    [{}] x{} (depth {})",
            phases.join(" "),
            sp.uses,
            sp.depth
        );
    }
    Ok(())
}

/// Replays a trace store through the timing model and prints its
/// summary. A damaged store degrades like it does for every analysis
/// command: a rebuilt index or skipped blocks warn on stderr
/// (`store=recovered`, `store=degraded`) and the intact part replays.
fn cmd_replay(parsed: &ParsedArgs) -> Result<(), CliError> {
    let path = parsed.positional("storefile")?;
    let mut err = String::new();
    let mut reader = open_store(path, &mut err)?;
    let mut timing = spm_sim::TimingModel::default();
    let report = store_replay(&mut reader, &mut [&mut timing], path, &mut err)?;
    println!("trace: {path}");
    println!("  events:        {}", report.events);
    println!("  instructions:  {}", timing.instrs());
    println!("  CPI:           {:.4}", timing.cpi());
    println!("  DL1 miss rate: {:.4}", timing.dl1_miss_rate());
    println!(
        "  mispredicts:   {} / {} branches",
        timing.mispredicts(),
        timing.branches()
    );
    eprint!("{err}");
    Ok(())
}

/// Runs the pack source — a workload, built-in or DSL file — through
/// the writer.
fn pack_feed<S: spm_store::StoreIo>(
    writer: &mut StoreWriter<S>,
    trace: &mut Trace,
) -> Result<(), CliError> {
    writer.set_block_dims(trace.block_dims() as u32);
    trace.feed(&mut [&mut *writer], &mut String::new())?;
    Ok(())
}

fn pack_summary_line(out: &str, summary: &spm_store::StoreSummary) -> String {
    let mut line = format!(
        "packed {} events ({} instructions) into {out}: {} blocks, {} bytes, sync={}",
        summary.events,
        summary.total_icount,
        summary.blocks,
        summary.file_bytes,
        summary.sync_policy
    );
    if summary.retries > 0 {
        line.push_str(&format!(", io retries={}", summary.retries));
    }
    line
}

fn cmd_pack(parsed: &ParsedArgs) -> Result<(), CliError> {
    parsed.positional("workload")?;
    let out = parsed
        .flags
        .get("out")
        .ok_or_else(|| CliError::Usage(format!("{} requires --out FILE", parsed.command)))?
        .clone();
    let budget =
        parsed.u64_flag("block-size", spm_store::format::DEFAULT_BLOCK_BUDGET as u64)? as usize;
    let sync = match parsed.flags.get("sync") {
        Some(text) => spm_store::SyncPolicy::parse(text).ok_or_else(|| {
            CliError::Usage(format!("--sync must be none|block|close, got '{text}'"))
        })?,
        None => spm_store::SyncPolicy::Block,
    };
    let compression = if parsed.flags.contains_key("compress") {
        spm_store::Compression::Lz
    } else {
        spm_store::Compression::None
    };
    // Resolve the workload before `--out` is touched, so a bad name or
    // input leaves an existing file there as it was.
    let mut trace = Trace::workload(parsed, "ref")?;

    // Failpoint hook (DESIGN.md §12): SPM_PACK_FAULT routes the pack
    // through the deterministic FaultyIo disk so crash-recovery tests
    // exercise the real CLI end to end. The surviving (possibly torn)
    // image is written to --out, exactly what a killed process leaves.
    if let Ok(spec) = std::env::var("SPM_PACK_FAULT") {
        return pack_through_failpoint(&mut trace, &out, budget, sync, compression, &spec);
    }

    let sink = spm_store::FileIo::create(std::path::Path::new(&out)).map_err(|e| SpmError::Io {
        path: out.clone(),
        message: e.to_string(),
    })?;
    let mut writer = StoreWriter::with_block_budget(sink, budget)
        .sync_policy(sync)
        .compression(compression);
    pack_feed(&mut writer, &mut trace)?;
    let summary = writer.finish().map_err(|e| store_error(&out, e))?;
    eprintln!("{}", pack_summary_line(&out, &summary));
    Ok(())
}

/// `cmd_pack` through a [`spm_store::FaultyIo`] failpoint disk.
fn pack_through_failpoint(
    trace: &mut Trace,
    out: &str,
    budget: usize,
    sync: spm_store::SyncPolicy,
    compression: spm_store::Compression,
    spec: &str,
) -> Result<(), CliError> {
    let plan = spm_store::FaultPlan::parse(spec)
        .map_err(|m| CliError::Usage(format!("SPM_PACK_FAULT: {m}")))?;
    let mut writer = StoreWriter::with_block_budget(spm_store::FaultyIo::new(plan), budget)
        .sync_policy(sync)
        .compression(compression);
    let feed = pack_feed(&mut writer, trace);
    let outcome = writer.finish_with_sink();
    // Persist whatever survived — torn tail included — so downstream
    // commands open the same bytes a real crash would leave.
    std::fs::write(out, outcome.sink.bytes()).map_err(|e| SpmError::Io {
        path: out.to_string(),
        message: e.to_string(),
    })?;
    feed?;
    match outcome.result {
        Ok(summary) => {
            eprintln!("{}", pack_summary_line(out, &summary));
            Ok(())
        }
        Err(e) => {
            eprintln!(
                "pack died after committing {} blocks / {} events (icount {}); surviving image written to {out}",
                outcome.committed.blocks, outcome.committed.events, outcome.committed.icount
            );
            Err(store_error(out, e))
        }
    }
}

fn cmd_info(parsed: &ParsedArgs) -> Result<(), CliError> {
    let path = parsed.positional("storefile")?;
    let mut err = String::new();
    let reader = open_store(path, &mut err)?;
    let info = *reader.info();
    let key = reader.content_key().map_err(|e| store_error(path, e))?;
    println!("store: {path}");
    println!("  format:        spmstk01");
    // The container's content key: the identity `spm corpus` files the
    // blob under, printed as a greppable `key=<hex>` token so corpus
    // entries are externally verifiable against the source container.
    println!("  key={key:016x}");
    println!("  blocks:        {}", info.blocks);
    println!("  events:        {}", info.events);
    println!("  instructions:  {}", info.total_icount);
    println!("  block budget:  {} bytes", info.block_budget);
    println!("  block dims:    {}", info.block_dims);
    println!("  payload:       {} bytes", info.payload_bytes);
    println!("  file:          {} bytes", info.file_bytes);
    println!("  compression:   {}", info.compression);
    println!("  sync policy:   {}", info.sync_policy);
    println!(
        "  durability:    {}",
        if info.recovered_index {
            "recovered-on-open"
        } else {
            "clean"
        }
    );
    println!(
        "  committed:     seq {} / icount {}",
        info.events, info.total_icount
    );
    if info.recovered_index {
        println!(
            "  torn tail:     {} bytes discarded",
            info.recovered_tail_bytes
        );
        eprintln!("warning: footer unreadable; index rebuilt from block frames");
    }
    eprint!("{err}");
    Ok(())
}

fn cmd_explain(parsed: &ParsedArgs) -> Result<(), CliError> {
    let graph = Trace::workload(parsed, "train")?.graph(&mut String::new())?;
    let config = select_config(parsed)?;
    let outcome = select_markers(&graph, &config);
    println!(
        "{:<24} {:>10} {:>12} {:>12} {:>8}  decision",
        "edge", "C", "A", "max", "CoV"
    );
    // Largest edges first: the ones that matter for marking.
    let mut edges: Vec<_> = graph.edges().iter().collect();
    edges.sort_by(|a, b| {
        b.avg()
            .partial_cmp(&a.avg())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    for edge in edges {
        let name = format!("{}->{}", graph.node(edge.from).key, graph.node(edge.to).key);
        println!(
            "{:<24} {:>10} {:>12.0} {:>12.0} {:>7.2}%  {}",
            name,
            edge.count(),
            edge.avg(),
            edge.max(),
            edge.cov() * 100.0,
            outcome.decisions[edge.id.index()]
        );
    }
    eprintln!(
        "# {} markers; base CoV threshold {:.2}% (+{:.2}% spread)",
        outcome.markers.len(),
        outcome.avg_cov.max(config.cov_floor) * 100.0,
        outcome.std_cov * 100.0
    );
    Ok(())
}

fn cmd_timeseries(parsed: &ParsedArgs) -> Result<(), CliError> {
    let mut trace = Trace::workload(parsed, "ref")?;
    let step = parsed.u64_flag("step", 10_000)?.max(1);
    let mut timeline = Timeline::with_defaults(1_000);
    let MarkedRun { firings, total, .. } =
        marked_run(&mut trace, parsed, Some(&mut timeline), &mut String::new())?;
    let mut samples = Vec::new();
    let mut per_sample_marker = Vec::new();
    let mut next_firing = 0usize;
    let mut at = 0u64;
    while at < total {
        let end = (at + step).min(total);
        // The first marker firing within this sample window, if any.
        let mut marker = String::new();
        while next_firing < firings.len() && firings[next_firing].icount < end {
            if marker.is_empty() {
                marker = format!("m{}", firings[next_firing].marker);
            }
            next_firing += 1;
        }
        samples.push((at, timeline.cpi(at..end), timeline.miss_rate(at..end)));
        per_sample_marker.push(marker);
        at = end;
    }

    if parsed.has("plot") {
        let width = 100.min(samples.len().max(10));
        let cpi: Vec<f64> = samples.iter().map(|s| s.1).collect();
        let miss: Vec<f64> = samples.iter().map(|s| s.2).collect();
        print!(
            "{}",
            plot::chart(&[("cpi", &cpi[..]), ("dl1_miss", &miss[..])], width)
        );
        let marker_positions: Vec<usize> = per_sample_marker
            .iter()
            .enumerate()
            .filter(|(_, m)| !m.is_empty())
            .map(|(i, _)| i)
            .collect();
        let label_width = "dl1_miss".len();
        println!(
            "{:>label_width$} {}",
            "markers",
            plot::tick_row(&marker_positions, samples.len(), width)
        );
        return Ok(());
    }

    println!("icount\tcpi\tdl1_miss\tmarker");
    for ((at, cpi, miss), marker) in samples.iter().zip(&per_sample_marker) {
        println!("{at}\t{cpi:.4}\t{miss:.4}\t{marker}");
    }
    Ok(())
}

/// Writes a report file (HTML, folded stacks), routing failures through
/// the I/O taxonomy.
fn write_file(path: &str, text: &str) -> Result<(), CliError> {
    std::fs::write(path, text).map_err(|e| {
        CliError::Pipeline(SpmError::Io {
            path: path.to_string(),
            message: e.to_string(),
        })
    })?;
    eprintln!("# wrote {path}");
    Ok(())
}

/// Writes the folded-stack export for `spm report --folded OUT`: one
/// `path;path count` line per stack, sampled stacks when the streams
/// were profiled, span self-times otherwise — the input format of
/// external flamegraph tooling.
fn write_folded(path: &str, runs: &[spm_report::Run]) -> Result<(), CliError> {
    let mut text = String::new();
    for run in runs {
        for line in spm_report::statflame::folded_lines(run) {
            text.push_str(&line);
            text.push('\n');
        }
    }
    write_file(path, &text)
}

/// `spm report`: analyze metrics/spans streams written by `--metrics`
/// or `--spans`. Plain mode renders a phase-quality dashboard plus a
/// flame view per file (and the statistical flame when the stream holds
/// profiler samples); `--baseline`/`--candidate` mode renders a
/// noise-aware cross-run comparison and exits 10 when a stage regressed
/// beyond the threshold.
fn cmd_report(parsed: &ParsedArgs) -> Result<(), CliError> {
    let cfg = diff_config(parsed)?;
    match (parsed.flags.get("baseline"), parsed.flags.get("candidate")) {
        (Some(base_path), Some(cand_path)) => {
            if !parsed.positional.is_empty() {
                return Err(CliError::Usage(
                    "report takes either positional files or --baseline/--candidate, not both"
                        .into(),
                ));
            }
            let base = spm_report::load_file(base_path)?;
            let cand = spm_report::load_file(cand_path)?;
            let diffs = spm_report::diff_runs(&base, &cand, &cfg);
            print!("{}", spm_report::diff::render(&base, &cand, &diffs, &cfg));
            if let Some(path) = parsed.flags.get("html") {
                write_file(
                    path,
                    &spm_report::html::render_diff(&base, &cand, &diffs, &cfg),
                )?;
            }
            spm_report::gate(&diffs, &cfg)?;
            Ok(())
        }
        (None, None) => {
            if parsed.positional.is_empty() {
                return Err(ArgError::MissingPositional("metrics.jsonl").into());
            }
            let mut runs = Vec::new();
            for path in &parsed.positional {
                runs.push(spm_report::load_file(path)?);
            }
            for run in &runs {
                print!("{}", spm_report::dashboard::render(run));
                print!(
                    "{}",
                    spm_report::flame::render(&spm_report::flame::build(run))
                );
                if let Some(stat) = spm_report::statflame::render_run(run) {
                    print!("{stat}");
                }
            }
            if let Some(path) = parsed.flags.get("html") {
                write_file(path, &spm_report::html::render_runs(&runs))?;
            }
            if let Some(path) = parsed.flags.get("folded") {
                write_folded(path, &runs)?;
            }
            Ok(())
        }
        _ => Err(CliError::Usage(
            "--baseline and --candidate must be given together".into(),
        )),
    }
}

fn cmd_export(parsed: &ParsedArgs) -> Result<(), CliError> {
    let w = trace::target(trace::workload_name(parsed)?)?;
    print!("{}", spm_ir::write_workload(&w.program, &w.inputs));
    Ok(())
}

/// The `--dir` flag every corpus action requires.
fn corpus_dir(parsed: &ParsedArgs) -> Result<std::path::PathBuf, CliError> {
    parsed
        .flags
        .get("dir")
        .map(std::path::PathBuf::from)
        .ok_or_else(|| CliError::Usage("corpus needs --dir DIR".into()))
}

/// The regression knobs, shared by `spm report`, `corpus query
/// regressions` and `corpus html`.
fn diff_config(parsed: &ParsedArgs) -> Result<spm_report::DiffConfig, CliError> {
    Ok(spm_report::DiffConfig {
        threshold: parsed.f64_flag("threshold", 25.0)? / 100.0,
        min_us: parsed.u64_flag("min-us", 1_000)?,
    })
}

fn cmd_corpus(parsed: &ParsedArgs) -> Result<(), CliError> {
    use spm_corpus::ArtifactKind;
    let action = parsed.positional("add|query|html")?;
    match action {
        "add" => {
            let dir = corpus_dir(parsed)?;
            let workload = match (
                parsed.flags.get("workload"),
                parsed.flags.get("from-session"),
            ) {
                (Some(w), _) => w.clone(),
                // A serve session's name doubles as the workload
                // coordinate unless overridden.
                (None, Some(session)) => session.clone(),
                (None, None) => {
                    return Err(CliError::Usage("corpus add needs --workload NAME".into()))
                }
            };
            let input = parsed.str_flag("input", "-");
            let seed = parsed.u64_flag("seed", 0)?;
            let mut artifacts = Vec::new();
            for (kind, flag) in [
                (ArtifactKind::Store, "store"),
                (ArtifactKind::Metrics, "metrics"),
                (ArtifactKind::Markers, "markers"),
                (ArtifactKind::Partition, "partition"),
                (ArtifactKind::BenchReport, "bench-report"),
            ] {
                if let Some(path) = parsed.flags.get(flag) {
                    artifacts.push((kind, std::path::PathBuf::from(path)));
                }
            }
            // `--from-session NAME --serve-dir DIR`: ingest what a
            // finished serve session left on disk — every journal
            // generation (the accepted, committed trace) plus the
            // final marker file when the session was finalized.
            if let Some(session) = parsed.flags.get("from-session") {
                let serve_dir = parsed.flags.get("serve-dir").ok_or_else(|| {
                    CliError::Usage("corpus add --from-session needs --serve-dir DIR".into())
                })?;
                let serve_dir = std::path::Path::new(serve_dir);
                let journals = spm_serve::session::journal_generations(serve_dir, session);
                if journals.is_empty() {
                    return Err(CliError::Usage(format!(
                        "no journal generations for session `{session}` under {}",
                        serve_dir.display()
                    )));
                }
                for journal in journals {
                    artifacts.push((ArtifactKind::Store, journal));
                }
                let markers = serve_dir.join(format!("{session}.markers"));
                if markers.is_file() {
                    artifacts.push((ArtifactKind::Markers, markers));
                }
            }
            if artifacts.is_empty() {
                return Err(CliError::Usage(
                    "corpus add needs at least one artifact (--store/--metrics/--markers/\
                     --partition/--bench-report/--from-session)"
                        .into(),
                ));
            }
            let spec = spm_corpus::RunSpec {
                workload: workload.clone(),
                input: input.clone(),
                seed,
                label: parsed.str_flag("label", &format!("{workload}/{input}#{seed}")),
                artifacts,
            };
            let outcome = spm_corpus::add(&dir, &spec)?;
            print!("{}", spm_corpus::ingest::render_outcome(&spec, &outcome));
            Ok(())
        }
        "query" => {
            let what = parsed
                .positional
                .get(1)
                .map(String::as_str)
                .ok_or_else(|| {
                    CliError::Usage(
                        "corpus query needs a kind: stability | trajectory | regressions".into(),
                    )
                })?;
            if !matches!(what, "stability" | "trajectory" | "regressions") {
                return Err(CliError::Usage(format!(
                    "unknown corpus query `{what}` (stability | trajectory | regressions)"
                )));
            }
            let corpus = spm_corpus::Corpus::load(&corpus_dir(parsed)?)?;
            match what {
                "stability" => {
                    let groups = spm_corpus::query::stability(&corpus)?;
                    print!("{}", spm_corpus::query::render_stability(&groups));
                    Ok(())
                }
                "trajectory" => {
                    let points = spm_corpus::query::trajectory(&corpus)?;
                    print!("{}", spm_corpus::query::render_trajectory(&points));
                    Ok(())
                }
                _ => {
                    let cfg = diff_config(parsed)?;
                    let top = parsed.u64_flag("top", 20)? as usize;
                    let report = spm_corpus::query::regressions(&corpus, &cfg)?;
                    print!(
                        "{}",
                        spm_corpus::query::render_regressions(&report, &cfg, top)
                    );
                    if parsed.has("gate") {
                        spm_corpus::query::gate(&report)?;
                    }
                    Ok(())
                }
            }
        }
        "html" => {
            let out = parsed
                .flags
                .get("out")
                .ok_or_else(|| CliError::Usage("corpus html needs --out FILE".into()))?;
            let corpus = spm_corpus::Corpus::load(&corpus_dir(parsed)?)?;
            let cfg = diff_config(parsed)?;
            let top = parsed.u64_flag("top", 20)? as usize;
            let stability = spm_corpus::query::stability(&corpus)?;
            let trajectory = spm_corpus::query::trajectory(&corpus)?;
            let regressions = spm_corpus::query::regressions(&corpus, &cfg)?;
            write_file(
                out,
                &spm_corpus::html::render(
                    &corpus,
                    &stability,
                    &trajectory,
                    &regressions,
                    &cfg,
                    top,
                ),
            )
        }
        other => Err(CliError::Usage(format!(
            "unknown corpus action `{other}` (add | query | html)"
        ))),
    }
}
