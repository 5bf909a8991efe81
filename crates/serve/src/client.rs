//! The client side: chunk an event stream into wire blocks and stream
//! them to a server, riding out `BUSY` backpressure and — via the
//! reconnect budget — mid-session disconnects, resuming from the
//! server's accepted-events watermark.
//!
//! The send loop doubles as the serve-bench load generator, so it
//! also records timing-free load facts: busy retries, reconnects,
//! skipped (already-accepted) events, and every `DELTA` received.

use crate::proto::{self, DeltaMsg, DoneMsg, Message};
use crate::ServeError;
use spm_sim::TraceEvent;
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

/// Default per-block pre-encoding budget in bytes (matches the store
/// writer's default block granularity closely enough for streaming).
pub const DEFAULT_BLOCK_BUDGET: usize = 64 * 1024;

/// Give up after this many consecutive `BUSY` replies for one block.
const BUSY_RETRY_LIMIT: u64 = 500;

/// Reconnect at most this many times after a transport failure.
const RECONNECT_LIMIT: u64 = 4;

/// Deliberate fault injection for resume tests: the client drops its
/// TCP connection at a chosen point and exercises the reconnect path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SendFaultPlan {
    /// Drop the connection (once) after this many acknowledged blocks.
    pub drop_after_blocks: Option<u64>,
    /// Write `FIN`, then drop the connection (once) before reading the
    /// reply — the server may have finalized by the time we reconnect,
    /// and both paths must still end in the same `DONE`.
    pub drop_after_fin: bool,
}

/// Client configuration.
#[derive(Debug, Clone)]
pub struct SendConfig {
    /// Server address (`host:port`).
    pub addr: String,
    /// Session name (keys server-side state and journal files).
    pub session: String,
    /// Pre-encoding block budget in bytes (floored at 64, as in
    /// [`spm_store::StoreWriter::with_block_budget`]).
    pub block_budget: usize,
    /// Backoff between `BUSY` retries.
    pub busy_backoff: Duration,
    /// Fault injection (tests only; default injects nothing).
    pub fault: SendFaultPlan,
}

impl SendConfig {
    /// A default-tuned config for `addr` and `session`.
    pub fn new(addr: &str, session: &str) -> Self {
        Self {
            addr: addr.to_string(),
            session: session.to_string(),
            block_budget: DEFAULT_BLOCK_BUDGET,
            busy_backoff: Duration::from_millis(20),
            fault: SendFaultPlan::default(),
        }
    }
}

/// What a completed send reports.
#[derive(Debug, Clone)]
pub struct SendOutcome {
    /// Blocks acknowledged by the server this run.
    pub blocks_sent: u64,
    /// Events newly accepted by the server this run.
    pub events_sent: u64,
    /// Events skipped because the server had already accepted them
    /// (resumed session).
    pub skipped_events: u64,
    /// `BUSY` replies absorbed.
    pub busy_retries: u64,
    /// Reconnects performed.
    pub reconnects: u64,
    /// Whether the first `WELCOME` reported an existing session.
    pub resumed: bool,
    /// Every incremental delta the server streamed.
    pub deltas: Vec<DeltaMsg>,
    /// The final session summary.
    pub done: DoneMsg,
}

/// One live connection with its welcome facts.
struct Conn {
    stream: TcpStream,
    watermark: u64,
    resumed: bool,
}

fn connect(config: &SendConfig) -> Result<Conn, ServeError> {
    let stream = TcpStream::connect(&config.addr)
        .map_err(|e| ServeError::io(&format!("connect {}", config.addr), &e))?;
    let _ = stream.set_nodelay(true);
    let mut writer = &stream;
    proto::write_message(
        &mut writer,
        &Message::Hello {
            name: config.session.clone(),
        },
    )?;
    let mut reader = &stream;
    match proto::read_message(&mut reader)? {
        Message::Welcome {
            events, resumed, ..
        } => Ok(Conn {
            stream,
            watermark: events,
            resumed,
        }),
        Message::Err { code, detail } => Err(ServeError::Rejected { code, detail }),
        other => Err(proto::ProtoError::BadFrame {
            detail: format!("expected WELCOME, got {other:?}"),
        }
        .into()),
    }
}

/// Reads server replies for one request until a terminal reply
/// arrives, collecting interleaved deltas.
enum Reply {
    Ack { events: u64 },
    Busy,
    Done(DoneMsg),
}

fn read_reply(conn: &mut Conn, deltas: &mut Vec<DeltaMsg>) -> Result<Reply, ServeError> {
    loop {
        let mut reader = &conn.stream;
        match proto::read_message(&mut reader)? {
            Message::Delta(d) => deltas.push(d),
            Message::Ack { events } => return Ok(Reply::Ack { events }),
            Message::Busy { .. } => return Ok(Reply::Busy),
            Message::Done(done) => return Ok(Reply::Done(done)),
            Message::Err { code, detail } => return Err(ServeError::Rejected { code, detail }),
            other => {
                return Err(proto::ProtoError::BadFrame {
                    detail: format!("unexpected server message {other:?}"),
                }
                .into())
            }
        }
    }
}

/// Whether a failure is worth a reconnect (transport died) rather
/// than terminal (the server said no).
fn reconnectable(e: &ServeError) -> bool {
    matches!(
        e,
        ServeError::Io { .. } | ServeError::Proto(proto::ProtoError::Truncated)
    )
}

/// Streams `events` to the server as session `config.session` and
/// returns the collected outcome once the server finalizes.
///
/// # Errors
///
/// [`ServeError::Rejected`] when the server rejects the session or a
/// block, [`ServeError::Io`] when the transport fails beyond the
/// reconnect budget, [`ServeError::Proto`] when the server breaks the
/// protocol.
pub fn send_events(
    config: &SendConfig,
    events: &[(u64, TraceEvent)],
) -> Result<SendOutcome, ServeError> {
    // Each BLOCK frame is encoded once, under the block checksum the
    // chunking store writer already computed; BUSY retries and resends
    // after a reconnect write the same bytes again.
    let blocks: Vec<_> = proto::chunk_events(events, config.block_budget)
        .into_iter()
        .map(|block| (block.meta, proto::encode_message(&Message::Block(block))))
        .collect();
    let mut outcome = SendOutcome {
        blocks_sent: 0,
        events_sent: 0,
        skipped_events: 0,
        busy_retries: 0,
        reconnects: 0,
        resumed: false,
        deltas: Vec::new(),
        done: DoneMsg {
            blocks: 0,
            events: 0,
            icount: 0,
            updates: 0,
            converged_at: 0,
            tolerated_events: 0,
            dangling_frames: 0,
            markers_text: String::new(),
        },
    };
    let mut conn = connect(config)?;
    outcome.resumed = conn.resumed;
    let mut fault = config.fault;

    let mut at = 0usize;
    'blocks: while at < blocks.len() {
        let (meta, frame) = &blocks[at];
        // Skip blocks the server already holds (resume after
        // reconnect or across restarts).
        if meta.end_seq() <= conn.watermark {
            outcome.skipped_events += u64::from(meta.events);
            at += 1;
            continue;
        }
        if let Some(after) = fault.drop_after_blocks {
            if outcome.blocks_sent >= after {
                // Injected fault: cut the TCP connection mid-session
                // and take the reconnect path like a real network
                // failure would force.
                fault.drop_after_blocks = None;
                let _ = conn.stream.shutdown(std::net::Shutdown::Both);
                outcome.reconnects += 1;
                conn = connect(config)?;
                continue 'blocks;
            }
        }
        let mut busy = 0u64;
        loop {
            let sent = send_frame(&mut conn, frame, &mut outcome.deltas);
            match sent {
                Ok(Reply::Ack { events: watermark }) => {
                    let fresh = watermark.saturating_sub(conn.watermark);
                    conn.watermark = watermark;
                    if fresh > 0 {
                        outcome.blocks_sent += 1;
                        outcome.events_sent += fresh;
                    } else {
                        outcome.skipped_events += u64::from(meta.events);
                    }
                    at += 1;
                    break;
                }
                Ok(Reply::Busy) => {
                    busy += 1;
                    outcome.busy_retries += 1;
                    if busy > BUSY_RETRY_LIMIT {
                        return Err(ServeError::Rejected {
                            code: proto::ErrCode::Internal,
                            detail: format!("server still busy after {busy} retries for one block"),
                        });
                    }
                    std::thread::sleep(config.busy_backoff);
                }
                Ok(Reply::Done(_)) => {
                    return Err(proto::ProtoError::BadFrame {
                        detail: "server sent DONE before FIN".to_string(),
                    }
                    .into())
                }
                Err(e) if reconnectable(&e) && outcome.reconnects < RECONNECT_LIMIT => {
                    outcome.reconnects += 1;
                    conn = connect(config)?;
                    continue 'blocks;
                }
                Err(e) => return Err(e),
            }
        }
    }

    // Finalize: FIN, then drain deltas until DONE. A reconnect here
    // re-HELLOs and re-FINs; if the server finalized in the meantime
    // it replays the stored DONE instead of rejecting.
    loop {
        if fault.drop_after_fin {
            fault.drop_after_fin = false;
            let mut writer = &conn.stream;
            let _ = proto::write_message(&mut writer, &Message::Fin);
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
            outcome.reconnects += 1;
            conn = connect(config)?;
            continue;
        }
        let mut writer = &conn.stream;
        let finished = proto::write_message(&mut writer, &Message::Fin)
            .and_then(|()| read_reply(&mut conn, &mut outcome.deltas));
        match finished {
            Ok(Reply::Done(done)) => {
                outcome.done = done;
                return Ok(outcome);
            }
            Ok(Reply::Busy) | Ok(Reply::Ack { .. }) => {
                return Err(proto::ProtoError::BadFrame {
                    detail: "expected DONE after FIN".to_string(),
                }
                .into())
            }
            Err(e) if reconnectable(&e) && outcome.reconnects < RECONNECT_LIMIT => {
                outcome.reconnects += 1;
                conn = connect(config)?;
            }
            Err(e) => return Err(e),
        }
    }
}

/// Writes one encoded frame and reads the server's reply to it.
fn send_frame(
    conn: &mut Conn,
    frame: &[u8],
    deltas: &mut Vec<DeltaMsg>,
) -> Result<Reply, ServeError> {
    {
        let mut writer = &conn.stream;
        writer
            .write_all(frame)
            .map_err(|e| ServeError::io("write", &e))?;
        writer.flush().map_err(|e| ServeError::io("flush", &e))?;
    }
    read_reply(conn, deltas)
}
