//! Where a command's events come from: a workload run on one input, or
//! a packed `spmstk01` store. [`Trace::open`] resolves a positional name
//! once; every analysis after that reads the one event stream, whichever
//! source it is. Commands that need the program itself resolve through
//! [`workload_name`], which gives a store a usage error.

use crate::args::ParsedArgs;
use crate::{select_config, CliError};
use spm_core::text::parse_markers;
use spm_core::{select_markers, CallLoopGraph, CallLoopProfiler, MarkerSet, SpmError};
use spm_ir::{parse_workload, DslError, Input, Program};
use spm_sim::{run, TraceObserver};
use spm_store::{StoreError, StoreReader};
use spm_workloads::{build, ALL_NAMES};

/// A resolved workload: a built-in one, or a workload file in the text
/// DSL (any positional argument naming a readable file).
pub struct Target {
    pub program: Program,
    pub inputs: Vec<Input>,
}

/// The event source behind one positional name.
pub enum Trace {
    /// A workload run on one input.
    Live { target: Target, input: Input },
    /// A store, opened (and its index recovered, if torn) once.
    Store { path: String, reader: StoreReader },
}

impl Trace {
    /// Resolves `name`: an `spmstk01` store, or else a workload run on
    /// `--input` (default `default_input`). Opening a torn store appends
    /// its `store=recovered` warning to `err`.
    pub fn open(
        name: &str,
        parsed: &ParsedArgs,
        default_input: &str,
        err: &mut String,
    ) -> Result<Self, CliError> {
        if is_store_file(name) {
            return Ok(Trace::Store {
                path: name.to_string(),
                reader: open_store(name, err)?,
            });
        }
        let target = target(name)?;
        let input = input_of(&target, parsed, default_input)?;
        Ok(Trace::Live { target, input })
    }

    /// Resolves the one positional workload of a command that runs the
    /// program itself (see [`workload_name`]).
    pub fn workload(parsed: &ParsedArgs, default_input: &str) -> Result<Self, CliError> {
        Self::open(
            workload_name(parsed)?,
            parsed,
            default_input,
            &mut String::new(),
        )
    }

    /// The program's own name for a live run; the path for a store.
    pub fn program_name(&self) -> &str {
        match self {
            Trace::Live { target, .. } => target.program.name(),
            Trace::Store { path, .. } => path,
        }
    }

    /// The static block-id space: the program's block count, or the
    /// width a store's footer recorded.
    pub fn block_dims(&self) -> usize {
        match self {
            Trace::Live { target, .. } => target.program.block_sizes().len(),
            Trace::Store { reader, .. } => reader.info().block_dims as usize,
        }
    }

    /// Delivers the whole event stream to `observers` and returns the
    /// total instruction count. A store replay degrades corrupt blocks
    /// to one deduped `store=degraded` warning line appended to `err`.
    pub fn feed(
        &mut self,
        observers: &mut [&mut dyn TraceObserver],
        err: &mut String,
    ) -> Result<u64, CliError> {
        match self {
            Trace::Live { target, input } => Ok(run(&target.program, input, observers)
                .map_err(SpmError::Run)?
                .instrs),
            Trace::Store { path, reader } => {
                store_replay(reader, observers, path, err)?;
                Ok(reader.info().total_icount)
            }
        }
    }

    /// Profiles the call-loop graph. A live run is strict; a store is
    /// lenient, since a replay that skipped blocks has lost opens and
    /// closes, which must degrade (counted, warned) rather than poison
    /// the graph.
    pub fn graph(&mut self, err: &mut String) -> Result<CallLoopGraph, CliError> {
        let mut profiler = match self {
            Trace::Live { .. } => CallLoopProfiler::new(),
            Trace::Store { .. } => CallLoopProfiler::lenient(),
        };
        self.feed(&mut [&mut profiler], err)?;
        Ok(profiler.into_graph().map_err(SpmError::Profile)?)
    }

    /// Markers for the partitioning commands: `--markers FILE`, or else
    /// selected on the live workload's `train` input (its first input
    /// when it has none by that name), or on the store itself (a store
    /// holds one run, so it doubles as the profile).
    pub fn markers(
        &mut self,
        parsed: &ParsedArgs,
        err: &mut String,
    ) -> Result<MarkerSource, CliError> {
        if let Some(path) = parsed.flags.get("markers") {
            return Ok(MarkerSource {
                markers: read_markers(path)?,
                degenerate_cov: false,
            });
        }
        let graph = match self {
            Trace::Live { target, .. } => {
                let train = target
                    .inputs
                    .iter()
                    .find(|i| i.name() == "train")
                    .or_else(|| target.inputs.first())
                    .ok_or_else(|| CliError::Usage("workload has no inputs".into()))?;
                let mut profiler = CallLoopProfiler::new();
                run(&target.program, train, &mut [&mut profiler]).map_err(SpmError::Run)?;
                profiler.into_graph().map_err(SpmError::Profile)?
            }
            Trace::Store { .. } => self.graph(err)?,
        };
        let outcome = select_markers(&graph, &select_config(parsed)?);
        Ok(MarkerSource {
            markers: outcome.markers,
            degenerate_cov: outcome.degenerate_cov,
        })
    }
}

/// Markers for the partitioning commands, plus whether selection saw
/// only degenerate (non-finite) CoV — which forces the fixed-length
/// fallback. Markers loaded from a file are trusted as-is.
pub struct MarkerSource {
    pub markers: MarkerSet,
    pub degenerate_cov: bool,
}

/// Reads a `markers v1` file.
pub fn read_markers(path: &str) -> Result<MarkerSet, CliError> {
    let text = std::fs::read_to_string(path).map_err(|e| SpmError::Io {
        path: path.to_string(),
        message: e.to_string(),
    })?;
    Ok(parse_markers(&text).map_err(|e| SpmError::Parse {
        source: path.to_string(),
        error: e,
    })?)
}

/// The one positional workload of a command that needs the program
/// itself. A store is a usage error naming the commands that read one.
pub fn workload_name(parsed: &ParsedArgs) -> Result<&str, CliError> {
    let name = parsed.positional("workload")?;
    if is_store_file(name) {
        return Err(CliError::Usage(format!(
            "`{name}` is a trace store; `{}` takes a workload (stores are read by \
             select, partition, simpoint, replay, info and send)",
            parsed.command
        )));
    }
    Ok(name)
}

/// Loads a workload by name: a DSL file, or else a built-in.
pub fn target(name: &str) -> Result<Target, CliError> {
    if std::path::Path::new(name).is_file() {
        let src = std::fs::read_to_string(name).map_err(|e| SpmError::Io {
            path: name.to_string(),
            message: e.to_string(),
        })?;
        let parsed_file = parse_workload(&src).map_err(|e| SpmError::Workload {
            source: name.to_string(),
            error: e,
        })?;
        if parsed_file.inputs.is_empty() {
            return Err(SpmError::Workload {
                source: name.to_string(),
                error: DslError {
                    line: 0,
                    message: "the workload file declares no `input` blocks".into(),
                },
            }
            .into());
        }
        return Ok(Target {
            program: parsed_file.program,
            inputs: parsed_file.inputs,
        });
    }
    let w = build(name).ok_or_else(|| {
        CliError::Usage(format!(
            "unknown workload `{name}` (and no such file); available: {}",
            ALL_NAMES.join(", ")
        ))
    })?;
    Ok(Target {
        program: w.program,
        inputs: vec![w.train_input, w.ref_input],
    })
}

/// The input named by `--input` (default `default`), with any
/// `--param key=value,...` overrides applied.
fn input_of(w: &Target, parsed: &ParsedArgs, default: &str) -> Result<Input, CliError> {
    let wanted = parsed.str_flag("input", default);
    // Fall back to the first declared input when the conventional name
    // is absent (single-input workload files).
    let base = w
        .inputs
        .iter()
        .find(|i| i.name() == wanted)
        .or_else(|| w.inputs.first().filter(|_| !parsed.has("input")))
        .ok_or_else(|| {
            let names: Vec<&str> = w.inputs.iter().map(|i| i.name()).collect();
            CliError::Usage(format!(
                "no input named `{wanted}`; declared inputs: {}",
                names.join(", ")
            ))
        })?;
    let mut input = base.clone();
    if let Some(spec) = parsed.flags.get("param") {
        for pair in spec.split(',') {
            let (key, value) = pair.split_once('=').ok_or_else(|| {
                CliError::Usage(format!("--param expects key=value, got `{pair}`"))
            })?;
            let value: u64 = value
                .parse()
                .map_err(|_| CliError::Usage(format!("--param {key}: bad value `{value}`")))?;
            input = input.with(key, value);
        }
    }
    Ok(input)
}

/// Whether `name` is an `spmstk01` store file: by extension, or by
/// sniffing the magic when the file exists.
fn is_store_file(name: &str) -> bool {
    let path = std::path::Path::new(name);
    if !path.is_file() {
        return false;
    }
    if path.extension().is_some_and(|e| e == "spmstk") {
        return true;
    }
    let mut magic = [0u8; 6];
    std::fs::File::open(path)
        .and_then(|mut f| std::io::Read::read_exact(&mut f, &mut magic))
        .map(|()| &magic == spm_store::format::MAGIC_PREFIX)
        .unwrap_or(false)
}

/// Maps a store failure into the pipeline taxonomy: I/O keeps exit 3,
/// structural corruption joins the trace-decode class (exit 8), and
/// an exhausted retry budget gets its own class (exit 11).
pub fn store_error(path: &str, e: StoreError) -> CliError {
    match e {
        StoreError::Io { message } => SpmError::Io {
            path: path.to_string(),
            message,
        },
        StoreError::Corrupt { error, .. } => SpmError::Trace {
            source: path.to_string(),
            error,
        },
        StoreError::Exhausted { attempts, message } => SpmError::Exhausted {
            path: path.to_string(),
            attempts,
            message,
        },
    }
    .into()
}

/// Opens a store, surfacing crash recovery: when the footer or index
/// was unreadable and the reader rebuilt the index by walking block
/// frames, a deduped `store/recovered` warning with the recovered
/// watermarks goes to the structured stream, and one machine-readable
/// line is appended to `err` (so batch workers warn once, byte-stable
/// at any `--jobs`).
pub fn open_store(path: &str, err: &mut String) -> Result<StoreReader, CliError> {
    let reader = StoreReader::open(std::path::Path::new(path)).map_err(|e| store_error(path, e))?;
    let info = *reader.info();
    if info.recovered_index
        && spm_obs::warning(
            "store/recovered",
            &[
                ("store", path.to_string().into()),
                ("blocks", info.blocks.into()),
                ("events", info.events.into()),
                ("icount", info.total_icount.into()),
                ("tail_bytes", info.recovered_tail_bytes.into()),
            ],
        )
    {
        err.push_str(&format!(
            "warning: store=recovered blocks={} events={} icount={} tail_bytes={} store={}\n",
            info.blocks, info.events, info.total_icount, info.recovered_tail_bytes, path
        ));
    }
    Ok(reader)
}

/// Replays a store into the observers, degrading corrupt blocks to a
/// single deduped warning line appended to `err`.
pub fn store_replay(
    reader: &mut StoreReader,
    observers: &mut [&mut dyn TraceObserver],
    name: &str,
    err: &mut String,
) -> Result<spm_store::StoreReplayReport, CliError> {
    let report = reader.replay(observers).map_err(|e| store_error(name, e))?;
    if !report.is_clean() {
        // Per-block facts already went out as `store/skipped-block`
        // events; this summary keys the stderr line and is deduped per
        // store, so batch workers warn once regardless of jobs.
        if spm_obs::warning(
            "store/degraded",
            &[
                ("store", name.to_string().into()),
                ("skipped_blocks", (report.skipped.len() as u64).into()),
                ("skipped_events", report.skipped_events().into()),
            ],
        ) {
            err.push_str(&format!(
                "warning: store=degraded skipped_blocks={} skipped_events={} store={}\n",
                report.skipped.len(),
                report.skipped_events(),
                name
            ));
        }
    }
    Ok(report)
}
