//! `spm serve` / `spm send` — the streaming marker service and its
//! client-side load generator.
//!
//! `serve` runs the long-lived server: many concurrent trace sessions
//! over one socket, each with its own incremental call-loop analysis,
//! bounded queue, memory budget, and (with `--serve-dir`) crash-safe
//! journal. The listen and health addresses are printed to stdout
//! first thing (and flushed), so scripts binding port 0 can discover
//! the real endpoints by reading two lines.
//!
//! `send` streams one or more workloads (or `.spmstk` stores) to a
//! running server, one session per unit, riding out `BUSY`
//! backpressure and reconnecting through transport faults. A single
//! unit prints the server's final marker set raw on stdout — byte-
//! comparable with `spm select` — and multiple units are buffered and
//! emitted in argument order under `# session: NAME` headers, exactly
//! like the batch subcommands.

use crate::args::{ArgError, ParsedArgs};
use crate::trace::Trace;
use crate::{run_units, select_config, CliError, CommandOutput};
use spm_core::SpmError;
use spm_serve::{send_events, SendConfig, ServeError, Server, ServerConfig, SessionConfig};
use spm_sim::TraceEvent;

/// Maps a serving-layer failure into the pipeline taxonomy: transport
/// and filesystem failures keep their I/O identity (exit 3), local
/// wire-protocol violations and server-side rejections join the
/// analysis class (exit 9) with the server's stable error code in the
/// stage path.
fn serve_error(e: ServeError) -> CliError {
    match e {
        ServeError::Io { context, message } => SpmError::Io {
            path: context,
            message,
        },
        ServeError::Proto(p) => SpmError::Analysis {
            stage: "serve/wire".to_string(),
            message: p.to_string(),
        },
        ServeError::Rejected { code, detail } => SpmError::Analysis {
            stage: format!("serve/rejected/{code}"),
            message: detail,
        },
    }
    .into()
}

/// Per-session knobs shared by `serve` (the flags mirror `spm select`
/// for the selection parameters, so the online set is comparable to
/// the batch set by construction).
fn session_config(parsed: &ParsedArgs) -> Result<SessionConfig, CliError> {
    let defaults = SessionConfig::default();
    Ok(SessionConfig {
        select: select_config(parsed)?,
        converge_after: parsed.u64_flag("converge", defaults.converge_after)?,
        mem_budget: parsed.u64_flag("budget", defaults.mem_budget)?,
        queue_capacity: parsed.u64_flag("queue", defaults.queue_capacity as u64)? as usize,
        dir: parsed.flags.get("serve-dir").map(std::path::PathBuf::from),
        analysis_delay_ms: defaults.analysis_delay_ms,
    })
}

/// `spm serve`: bind, announce the endpoints, serve until `--expect N`
/// sessions completed (or forever). A session that failed server-side
/// fails the run with the analysis exit code once the server stops.
pub fn cmd_serve(parsed: &ParsedArgs) -> Result<(), CliError> {
    let health = parsed.str_flag("health", "127.0.0.1:0");
    let config = ServerConfig {
        addr: parsed.str_flag("listen", "127.0.0.1:0"),
        health_addr: (health != "none").then_some(health),
        session: session_config(parsed)?,
        expect: parsed
            .flags
            .contains_key("expect")
            .then(|| parsed.u64_flag("expect", 0))
            .transpose()?,
    };
    let server = Server::start(config).map_err(serve_error)?;
    // Announced on stdout and flushed immediately: with port 0 these
    // two lines are the only way a caller learns the real endpoints.
    println!("serve: listening on {}", server.addr());
    if let Some(addr) = server.health_addr() {
        println!("serve: health on {addr}");
    }
    use std::io::Write;
    let _ = std::io::stdout().flush();
    server.wait();
    let report = server.stop();
    eprintln!(
        "# serve: {} sessions ({} done, {} failed), {} busy rejections, {} protocol errors",
        report.sessions, report.done, report.failed, report.busy_rejections, report.protocol_errors
    );
    if report.failed > 0 {
        return Err(SpmError::Analysis {
            stage: "serve/session".to_string(),
            message: format!("{} session(s) failed server-side", report.failed),
        }
        .into());
    }
    Ok(())
}

/// The default session name of a send unit: the workload name's file
/// stem (`workloads/gzip.spm` -> `gzip`).
fn session_name_of(name: &str) -> String {
    std::path::Path::new(name)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or(name)
        .to_string()
}

fn send_one(
    parsed: &ParsedArgs,
    addr: &str,
    session: &str,
    name: &str,
) -> Result<CommandOutput, CliError> {
    let mut err = String::new();
    // The unit's whole event stream: a workload run (default input
    // `train`, matching `spm select`) or a store replay.
    let mut events: Vec<(u64, TraceEvent)> = Vec::new();
    Trace::open(name, parsed, "train", &mut err)?.feed(&mut [&mut events], &mut err)?;
    let mut config = SendConfig::new(addr, session);
    config.block_budget = parsed.u64_flag("block-size", config.block_budget as u64)? as usize;
    let outcome = send_events(&config, &events).map_err(serve_error)?;
    let done = &outcome.done;
    err.push_str(&format!(
        "# session {session}: {} blocks / {} events accepted, {} updates, \
         converged at update {}, {} deltas\n",
        done.blocks,
        done.events,
        done.updates,
        done.converged_at,
        outcome.deltas.len()
    ));
    if outcome.resumed || outcome.skipped_events > 0 {
        err.push_str(&format!(
            "# session {session}: resumed from the server's watermark ({} events skipped)\n",
            outcome.skipped_events
        ));
    }
    if outcome.busy_retries > 0 || outcome.reconnects > 0 {
        err.push_str(&format!(
            "# session {session}: {} busy retries, {} reconnects\n",
            outcome.busy_retries, outcome.reconnects
        ));
    }
    if done.tolerated_events > 0 || done.dangling_frames > 0 {
        err.push_str(&format!(
            "# session {session}: {} tolerated events, {} dangling frames\n",
            done.tolerated_events, done.dangling_frames
        ));
    }
    Ok(CommandOutput {
        out: done.markers_text.clone(),
        err,
    })
}

/// `spm send`: stream every positional workload (times `--sessions N`
/// replicas) to the server at `--connect`, fanning units across the
/// worker pool. Output bytes are identical at any `--jobs`.
pub fn cmd_send(parsed: &ParsedArgs) -> Result<(), CliError> {
    let addr = parsed
        .flags
        .get("connect")
        .ok_or_else(|| CliError::Usage("send requires --connect ADDR".into()))?
        .clone();
    if parsed.positional.is_empty() {
        return Err(ArgError::MissingPositional("workload").into());
    }
    let replicas = parsed.u64_flag("sessions", 1)?.max(1);
    if parsed.flags.contains_key("session") && parsed.positional.len() > 1 {
        return Err(CliError::Usage(
            "--session names one session; with several workloads the names \
             derive from the workload stems"
                .into(),
        ));
    }
    // One unit per (workload, replica): the session name is the
    // workload stem (or `--session`), suffixed `-R` when replicated.
    let mut units: Vec<(String, String)> = Vec::new();
    for name in &parsed.positional {
        let base = parsed.str_flag("session", &session_name_of(name));
        for r in 1..=replicas {
            let session = if replicas == 1 {
                base.clone()
            } else {
                format!("{base}-{r}")
            };
            units.push((session, name.clone()));
        }
    }
    run_units(
        "session",
        &units,
        |(session, _)| session,
        |(session, name)| send_one(parsed, &addr, session, name),
    )
}
