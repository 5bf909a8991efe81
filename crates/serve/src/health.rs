//! The health endpoint: plain HTTP/1.0 `GET` answering with the
//! server's live gauges as JSONL — one `spm-obs` schema event per
//! line, so the same validators, reporters, and dashboards that read
//! `--metrics` files read the health feed unchanged.
//!
//! Lines emitted per scrape:
//!
//! * `serve/sessions`, `serve/done`, `serve/failed`,
//!   `serve/busy-rejections`, `serve/protocol-errors` — server-wide
//!   counters.
//! * `serve/session/<gauge>` with a `session` field — one line per
//!   gauge per registered session ([`SessionStats::snapshot`]).
//! * `prof/os/<gauge>` — the process-wide OS snapshot (CPU time, RSS,
//!   I/O) when the platform exposes it.
//!
//! [`SessionStats::snapshot`]: crate::session::SessionStats::snapshot

use crate::server::{lock, write_http_ok, Shared};
use spm_obs::{Event, EventKind};
use std::io::Read;
use std::net::TcpListener;
use std::sync::atomic::Ordering;
use std::time::Duration;

/// Renders the full health body: every line is a schema-valid JSONL
/// event.
pub(crate) fn render(shared: &Shared) -> String {
    let mut out = String::new();
    let mut push = |event: Event| {
        out.push_str(&spm_obs::jsonl::encode(&event));
        out.push('\n');
    };
    let report = shared.report();
    for (name, value) in [
        ("serve/sessions", report.sessions),
        ("serve/done", report.done),
        ("serve/failed", report.failed),
        ("serve/busy-rejections", report.busy_rejections),
        ("serve/protocol-errors", report.protocol_errors),
    ] {
        push(Event::new(name, EventKind::Counter { value }));
    }
    let sessions: Vec<(String, Vec<(&'static str, u64)>)> = lock(&shared.registry)
        .iter()
        .map(|(name, handle)| (name.clone(), handle.stats().snapshot()))
        .collect();
    for (session, gauges) in sessions {
        for (gauge, value) in gauges {
            push(
                Event::new(
                    format!("serve/session/{gauge}"),
                    EventKind::Gauge {
                        value: value as f64,
                    },
                )
                .with("session", session.as_str()),
            );
        }
    }
    if let Some(os) = spm_obs::prof::OsSnapshot::capture() {
        for (name, value) in [
            ("prof/os/utime_us", os.utime_us),
            ("prof/os/stime_us", os.stime_us),
            ("prof/os/rss_kb", os.rss_kb),
            ("prof/os/peak_rss_kb", os.peak_rss_kb),
            ("prof/os/read_bytes", os.read_bytes),
            ("prof/os/write_bytes", os.write_bytes),
        ] {
            push(Event::new(
                name,
                EventKind::Gauge {
                    value: value as f64,
                },
            ));
        }
    }
    out
}

/// Accepts health scrapes until shutdown. Each request is answered
/// with the current gauges and closed. The request is read (one
/// buffer's worth, waiting at most 200 ms) and never parsed: any bytes,
/// or none, get the same answer, whatever the method or path.
pub(crate) fn health_loop(shared: &Shared, listener: &TcpListener) {
    loop {
        if shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
        match listener.accept() {
            Ok((mut stream, _peer)) => {
                let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
                let mut request = [0u8; 1024];
                let _ = stream.read(&mut request);
                let body = render(shared);
                write_http_ok(&mut stream, "application/jsonl", &body);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}
