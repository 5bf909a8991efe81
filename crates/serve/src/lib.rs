//! `spm-serve` — the streaming marker service: many concurrent trace
//! sessions over a socket, each running **incremental** call-loop
//! analysis, with journaling, backpressure, and a JSONL health
//! endpoint. Zero dependencies beyond the workspace: std
//! `TcpListener`/`TcpStream` plus long-lived threads from `spm-par`.
//!
//! # Architecture
//!
//! ```text
//! spm send ──HELLO/BLOCK*/FIN──▶ connection thread ──bounded queue──▶ analyzer thread
//!          ◀─WELCOME/ACK/BUSY/──                                      │ IncrementalSelector
//!            DELTA*/DONE/ERR                                          │ StoreWriter journal
//!                                                                     ▼
//! curl :health ◀── health thread ── per-session gauges (spm-obs JSONL schema)
//! ```
//!
//! * [`proto`] — the `spmsrv01` wire format: framed messages whose
//!   `BLOCK` payloads are spmstk01 block frames (the store's own
//!   checksummed framing), decoded by the store's own block decoder;
//!   the journal re-encodes the decoded events through its own writer.
//! * [`session`] — per-session state: the incremental selector, the
//!   crash-safe journal (generation files under the serve dir), and
//!   the gauges the analyzer publishes into the session's mailbox,
//!   where the health endpoint reads them.
//! * [`server`] — accept loop, session registry (sessions survive
//!   client disconnects and server restarts), one lock-guarded mailbox
//!   per session between its connection and analyzer threads (bounded
//!   queue with typed `BUSY` pushback, memory budget, deltas, outcome).
//! * [`health`] — plain HTTP/1.0 `GET` serving current gauges as
//!   JSONL, every line valid under the `spm-obs` schema.
//! * [`client`] — the `spm send` side: chunk an event stream into wire
//!   blocks, stream them with busy-retry and reconnect-resume, collect
//!   deltas and the final marker set.
//!
//! # Failure taxonomy
//!
//! Everything that can go wrong is a typed [`ServeError`]: transport
//! failures keep their I/O identity, local protocol violations carry a
//! [`proto::ProtoError`], and a server-side rejection arrives as
//! [`ServeError::Rejected`] with the server's stable error code — one
//! session's malformed input never poisons another session (pinned by
//! the wire-protocol fault tests).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod client;
pub mod health;
pub mod proto;
pub mod server;
pub mod session;

pub use client::{send_events, SendConfig, SendFaultPlan, SendOutcome};
pub use proto::{ErrCode, Message, ProtoError, WireBlock};
pub use server::{ServeReport, Server, ServerConfig};
pub use session::{SessionConfig, SessionStats};

use std::fmt;

/// Everything the serving layer can fail with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// A socket or filesystem operation failed.
    Io {
        /// What was being done (`connect`, `read`, `bind`, a path...).
        context: String,
        /// The OS error text.
        message: String,
    },
    /// The peer violated the wire protocol (detected locally).
    Proto(proto::ProtoError),
    /// The server rejected the session or a message with a typed `ERR`.
    Rejected {
        /// Stable error code.
        code: proto::ErrCode,
        /// Human-readable detail.
        detail: String,
    },
}

impl ServeError {
    pub(crate) fn io(context: &str, e: &std::io::Error) -> Self {
        ServeError::Io {
            context: context.to_string(),
            message: e.to_string(),
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io { context, message } => write!(f, "{context}: {message}"),
            ServeError::Proto(e) => write!(f, "protocol: {e}"),
            ServeError::Rejected { code, detail } => {
                write!(f, "rejected by server [{code}]: {detail}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<proto::ProtoError> for ServeError {
    fn from(e: proto::ProtoError) -> Self {
        ServeError::Proto(e)
    }
}
