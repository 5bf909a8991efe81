//! The serving loop: accept connections, route each to its session,
//! run analyzers, enforce backpressure and budgets.
//!
//! # Threading
//!
//! One accept thread, one optional health thread, and per session a
//! pair of threads with a bounded queue between them:
//!
//! * the **connection thread** owns the socket. It decodes and fully
//!   verifies every frame *before* enqueueing, so protocol violations
//!   are synchronous typed `ERR` replies; it is the only writer on the
//!   socket (deltas are drained from the session outbox before each
//!   reply), and it enforces the queue capacity (`BUSY`) and the
//!   memory budget (`BUSY` while draining can help, fatal
//!   `BudgetExceeded` when it cannot).
//! * the **analyzer thread** drains the queue, journals each batch,
//!   runs the incremental selection update, and publishes stats and
//!   deltas. It holds the session core lock only while analyzing, so
//!   the connection thread always stays responsive.
//!
//! Sessions outlive connections: a disconnect leaves the analyzer and
//! its state in the registry, and the next `HELLO` with the same name
//! reattaches and resumes from the accepted-events watermark. That
//! includes a session that already finalized — the reattached
//! connection acks duplicate blocks and answers `FIN` by replaying
//! the stored `DONE`, so losing the connection between the server's
//! finalize and the client's `DONE` read is recoverable, not fatal.

use crate::proto::{self, DeltaMsg, DoneMsg, ErrCode, Message, WireBlock};
use crate::session::{state, BlockFit, SessionConfig, SessionCore, SessionStats};
use crate::ServeError;
use spm_sim::TraceEvent;
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// How long blocked waits poll for shutdown.
const POLL: Duration = Duration::from_millis(50);

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address for the wire protocol (`127.0.0.1:0` picks a
    /// free port; read it back from [`Server::addr`]).
    pub addr: String,
    /// Health endpoint listen address; `None` disables it.
    pub health_addr: Option<String>,
    /// Per-session configuration (budget, queue, journal dir...).
    pub session: SessionConfig,
    /// Stop serving once this many sessions completed (`DONE` or
    /// failed). `None` serves until [`Server::shutdown`].
    pub expect: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            health_addr: None,
            session: SessionConfig::default(),
            expect: None,
        }
    }
}

/// What a finished server reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeReport {
    /// Sessions opened.
    pub sessions: u64,
    /// Sessions finalized by `FIN`.
    pub done: u64,
    /// Sessions failed server-side.
    pub failed: u64,
    /// `BUSY` replies sent across all sessions.
    pub busy_rejections: u64,
    /// Protocol violations rejected (connections, not sessions).
    pub protocol_errors: u64,
}

/// Locks a mutex, riding through poisoning: a panicked holder left
/// consistent-enough state for the typed error paths to report on, and
/// the workspace denies `unwrap`.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// The bounded handoff between connection and analyzer threads.
#[derive(Default)]
struct Queue {
    items: VecDeque<Vec<(u64, TraceEvent)>>,
    bytes: u64,
    /// `FIN` received: finalize once drained.
    fin: bool,
    /// The session failed fatally: analyzer exits without finalizing.
    aborted: bool,
    /// The analyzer has exited (after finalize or failure).
    finished: bool,
}

/// One registered session: stats, analyzer state, queue, outbox.
pub(crate) struct SessionHandle {
    pub(crate) stats: SessionStats,
    core: Mutex<SessionCore>,
    queue: Mutex<Queue>,
    /// Wakes the analyzer (new work, fin, abort).
    work: Condvar,
    /// Wakes the connection thread (analyzer finished).
    idle: Condvar,
    /// Deltas published by the analyzer, drained by the connection
    /// thread before each reply.
    outbox: Mutex<Vec<DeltaMsg>>,
    done: Mutex<Option<DoneMsg>>,
    failure: Mutex<Option<ServeError>>,
    /// Accepted-events watermark (duplicate/gap checks without taking
    /// the core lock, which the analyzer may hold for a while).
    accepted_events: AtomicU64,
    accepted_icount: AtomicU64,
    /// At most one connection drives a session at a time.
    attached: AtomicBool,
}

impl SessionHandle {
    fn fail(&self, shared: &Shared, error: ServeError) {
        let mut failure = lock(&self.failure);
        if failure.is_none() {
            *failure = Some(error);
            self.stats.state.store(state::FAILED, Ordering::Relaxed);
            shared.failed.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// State shared by every thread of one server.
pub(crate) struct Shared {
    pub(crate) config: ServerConfig,
    pub(crate) registry: Mutex<HashMap<String, Arc<SessionHandle>>>,
    /// Names whose `SessionCore::open` (possibly a long journal
    /// replay) is in flight: the reservation keeps the registry lock
    /// free during the replay, so one session's recovery never stalls
    /// other attaches or the health endpoint. Lock order: `opening`
    /// before `registry`, never both across a slow operation.
    opening: Mutex<HashSet<String>>,
    pub(crate) shutdown: AtomicBool,
    pub(crate) sessions: AtomicU64,
    pub(crate) done: AtomicU64,
    pub(crate) failed: AtomicU64,
    pub(crate) proto_errors: AtomicU64,
    conn_seq: AtomicU64,
}

impl Shared {
    pub(crate) fn completed(&self) -> u64 {
        self.done.load(Ordering::Relaxed) + self.failed.load(Ordering::Relaxed)
    }

    /// Point-in-time totals for the health endpoint and final report.
    pub(crate) fn report(&self) -> ServeReport {
        let busy = lock(&self.registry)
            .values()
            .map(|h| h.stats.busy_rejections.load(Ordering::Relaxed))
            .sum();
        ServeReport {
            sessions: self.sessions.load(Ordering::Relaxed),
            done: self.done.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            busy_rejections: busy,
            protocol_errors: self.proto_errors.load(Ordering::Relaxed),
        }
    }

    /// Looks up or creates the named session and marks it attached.
    ///
    /// A session that already finalized (`DONE`) reattaches normally:
    /// the connection then acks everything below the watermark and
    /// answers `FIN` with the stored `DONE`, so a client that lost its
    /// connection mid-finalize can still collect the summary. Only
    /// `FAILED` sessions reject reattachment.
    fn attach(
        self: &Arc<Self>,
        name: &str,
    ) -> Result<(Arc<SessionHandle>, bool), (ErrCode, String)> {
        {
            let mut opening = lock(&self.opening);
            let registry = lock(&self.registry);
            if let Some(handle) = registry.get(name) {
                if handle.attached.swap(true, Ordering::AcqRel) {
                    return Err((
                        ErrCode::Internal,
                        format!("session `{name}` already has a live connection"),
                    ));
                }
                let session_state = handle.stats.state.load(Ordering::Relaxed);
                if session_state == state::FAILED {
                    handle.attached.store(false, Ordering::Release);
                    return Err((ErrCode::SessionFailed, format!("session `{name}` failed")));
                }
                return Ok((handle.clone(), true));
            }
            drop(registry);
            if !opening.insert(name.to_string()) {
                // Another connection is opening this name (possibly a
                // long journal replay). Report the same transient
                // condition the HELLO retry loop already rides out.
                return Err((
                    ErrCode::Internal,
                    format!("session `{name}` already has a live connection"),
                ));
            }
        }
        // Slow path — journal replay can take a while — runs with no
        // lock held; the `opening` reservation keeps the name ours.
        let result = self.open_session(name);
        lock(&self.opening).remove(name);
        result
    }

    /// Opens, registers, and starts the analyzer of a new (or resumed-
    /// from-journal) session. The caller holds the `opening`
    /// reservation for `name`; no lock is held across the open itself.
    fn open_session(
        self: &Arc<Self>,
        name: &str,
    ) -> Result<(Arc<SessionHandle>, bool), (ErrCode, String)> {
        let (core, resumed) =
            SessionCore::open(name, &self.config.session).map_err(|e| match e {
                ServeError::Proto(p) => (p.code(), p.to_string()),
                other => (ErrCode::Internal, other.to_string()),
            })?;
        let handle = Arc::new(SessionHandle {
            stats: SessionStats::default(),
            accepted_events: AtomicU64::new(core.accepted_events),
            accepted_icount: AtomicU64::new(core.accepted_icount),
            core: Mutex::new(core),
            queue: Mutex::new(Queue::default()),
            work: Condvar::new(),
            idle: Condvar::new(),
            outbox: Mutex::new(Vec::new()),
            done: Mutex::new(None),
            failure: Mutex::new(None),
            attached: AtomicBool::new(true),
        });
        lock(&handle.core).publish(&handle.stats);
        let spawned = spm_par::spawn_labeled("serve-analyze", name, {
            let shared = self.clone();
            let handle = handle.clone();
            move || analyzer_loop(&shared, &handle)
        });
        if let Err(e) = spawned {
            return Err((
                ErrCode::Internal,
                format!("cannot spawn analyzer thread: {e}"),
            ));
        }
        lock(&self.registry).insert(name.to_string(), handle.clone());
        self.sessions.fetch_add(1, Ordering::Relaxed);
        Ok((handle, resumed))
    }
}

/// Drains the session queue, analyzing one batch per iteration;
/// finalizes on `FIN`, exits on abort or server shutdown.
fn analyzer_loop(shared: &Shared, handle: &SessionHandle) {
    loop {
        let batch = {
            let mut queue = lock(&handle.queue);
            loop {
                if queue.aborted {
                    queue.finished = true;
                    handle.idle.notify_all();
                    return;
                }
                if let Some(batch) = queue.items.pop_front() {
                    queue.bytes = queue.bytes.saturating_sub(batch_bytes(&batch));
                    handle
                        .stats
                        .queue_len
                        .store(queue.items.len() as u64, Ordering::Relaxed);
                    handle
                        .stats
                        .queued_bytes
                        .store(queue.bytes, Ordering::Relaxed);
                    break Some(batch);
                }
                if queue.fin {
                    break None;
                }
                if shared.shutdown.load(Ordering::Relaxed) {
                    queue.finished = true;
                    handle.idle.notify_all();
                    return;
                }
                queue = match handle.work.wait_timeout(queue, POLL) {
                    Ok((guard, _)) => guard,
                    Err(poisoned) => poisoned.into_inner().0,
                };
            }
        };
        match batch {
            Some(batch) => {
                let mut core = lock(&handle.core);
                match core.analyze(&batch) {
                    Ok(()) => {
                        let deltas: Vec<DeltaMsg> = core
                            .outbox
                            .drain(..)
                            .map(|d| DeltaMsg::from_delta(&d))
                            .collect();
                        core.publish(&handle.stats);
                        drop(core);
                        lock(&handle.outbox).extend(deltas);
                    }
                    Err(e) => {
                        drop(core);
                        handle.fail(shared, e);
                        let mut queue = lock(&handle.queue);
                        queue.finished = true;
                        handle.idle.notify_all();
                        return;
                    }
                }
                handle.idle.notify_all();
            }
            None => {
                let mut core = lock(&handle.core);
                let finished = core.finish();
                core.publish(&handle.stats);
                drop(core);
                match finished {
                    Ok(done) => {
                        handle.stats.state.store(state::DONE, Ordering::Relaxed);
                        *lock(&handle.done) = Some(done);
                        shared.done.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(e) => handle.fail(shared, e),
                }
                let mut queue = lock(&handle.queue);
                queue.finished = true;
                handle.idle.notify_all();
                return;
            }
        }
    }
}

/// Bytes a queued batch holds: its capacity, which exceeds its length
/// only for a block trimmed at the watermark.
fn batch_bytes(batch: &Vec<(u64, TraceEvent)>) -> u64 {
    (batch.capacity() * std::mem::size_of::<(u64, TraceEvent)>()) as u64
}

/// `Read` adaptor that turns read timeouts into shutdown polls: the
/// stream has a short read timeout, and each timeout checks the
/// server's shutdown flag (reporting EOF once set) before retrying —
/// so connection threads never block past shutdown, yet frames are
/// reassembled exactly as from a blocking stream.
struct PollRead<'a> {
    stream: &'a TcpStream,
    shutdown: &'a AtomicBool,
}

impl Read for PollRead<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        loop {
            if self.shutdown.load(Ordering::Relaxed) {
                return Ok(0);
            }
            match (&mut self.stream).read(buf) {
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    continue;
                }
                other => return other,
            }
        }
    }
}

/// Best-effort reply: the peer may already be gone, and a failed write
/// of an error reply must not mask the error being reported.
fn reply(stream: &TcpStream, msg: &Message) {
    let _ = proto::write_message(&mut { stream }, msg);
}

/// Drains pending deltas to the client (called before every reply so
/// deltas always precede the `ACK`/`DONE` they belong with).
fn flush_deltas(stream: &TcpStream, handle: &SessionHandle) {
    let deltas: Vec<DeltaMsg> = lock(&handle.outbox).drain(..).collect();
    for delta in deltas {
        reply(stream, &Message::Delta(delta));
    }
}

/// Outcome of handling one client message.
enum Flow {
    /// Keep reading.
    Continue,
    /// Close this connection (session state decides survivability).
    Close,
}

fn handle_block(
    shared: &Shared,
    handle: &SessionHandle,
    stream: &TcpStream,
    block: &WireBlock,
) -> Flow {
    if let Some(failure) = lock(&handle.failure).clone() {
        flush_deltas(stream, handle);
        reply(
            stream,
            &Message::Err {
                code: ErrCode::SessionFailed,
                detail: failure.to_string(),
            },
        );
        return Flow::Close;
    }
    let accepted = handle.accepted_events.load(Ordering::Acquire);
    let skip = match BlockFit::of(&block.meta, accepted) {
        BlockFit::Duplicate => {
            // A resend from before the watermark (reconnect): already
            // analyzed and journaled, ack it silently.
            flush_deltas(stream, handle);
            reply(stream, &Message::Ack { events: accepted });
            return Flow::Continue;
        }
        BlockFit::Gap => {
            shared.proto_errors.fetch_add(1, Ordering::Relaxed);
            flush_deltas(stream, handle);
            reply(
                stream,
                &Message::Err {
                    code: ErrCode::SequenceGap,
                    detail: format!(
                        "block starts at event {}, watermark is {accepted}",
                        block.meta.first_seq
                    ),
                },
            );
            return Flow::Close;
        }
        BlockFit::Fresh { skip } => skip,
    };
    let mut fresh = match block.decode_events() {
        Ok(events) => events,
        Err(e) => {
            shared.proto_errors.fetch_add(1, Ordering::Relaxed);
            flush_deltas(stream, handle);
            reply(
                stream,
                &Message::Err {
                    code: e.code(),
                    detail: e.to_string(),
                },
            );
            return Flow::Close;
        }
    };
    // Drop the sub-watermark prefix of a straddling block (a no-op for
    // any other); the decoded events move into the queue uncopied.
    fresh.drain(..skip.min(fresh.len()));
    let incoming = batch_bytes(&fresh);
    let mut queue = lock(&handle.queue);
    if queue.finished {
        drop(queue);
        flush_deltas(stream, handle);
        let detail = if lock(&handle.done).is_some() {
            "session already finalized; new blocks rejected"
        } else {
            "session analyzer has exited"
        };
        reply(
            stream,
            &Message::Err {
                code: ErrCode::SessionFailed,
                detail: detail.to_string(),
            },
        );
        return Flow::Close;
    }
    let capacity = shared.config.session.queue_capacity.max(1);
    let queued = queue.items.len();
    if queued >= capacity {
        drop(queue);
        handle.stats.busy_rejections.fetch_add(1, Ordering::Relaxed);
        flush_deltas(stream, handle);
        reply(
            stream,
            &Message::Busy {
                queued: queued as u64,
                capacity: capacity as u64,
            },
        );
        return Flow::Continue;
    }
    // The analyzer publishes its state estimate as its own gauge, so
    // this check never subtracts two gauges written at different
    // instants (a stale pair could turn transient backpressure into
    // the fatal path below); `queue.bytes` is read under the queue
    // lock held here.
    let analysis = handle.stats.analysis_bytes.load(Ordering::Relaxed);
    if analysis + queue.bytes + incoming > shared.config.session.mem_budget {
        if queued > 0 {
            // Draining the queue may shrink usage below budget: this
            // is backpressure, not failure.
            drop(queue);
            handle.stats.busy_rejections.fetch_add(1, Ordering::Relaxed);
            flush_deltas(stream, handle);
            reply(
                stream,
                &Message::Busy {
                    queued: queued as u64,
                    capacity: capacity as u64,
                },
            );
            return Flow::Continue;
        }
        // Queue empty and still over budget: no amount of waiting
        // helps. Fail the session.
        queue.aborted = true;
        drop(queue);
        handle.work.notify_all();
        let detail = format!(
            "accepting {incoming} bytes would exceed the {}-byte session budget",
            shared.config.session.mem_budget
        );
        handle.fail(
            shared,
            ServeError::Rejected {
                code: ErrCode::BudgetExceeded,
                detail: detail.clone(),
            },
        );
        flush_deltas(stream, handle);
        reply(
            stream,
            &Message::Err {
                code: ErrCode::BudgetExceeded,
                detail,
            },
        );
        return Flow::Close;
    }
    queue.bytes += incoming;
    queue.items.push_back(fresh);
    handle
        .stats
        .queue_len
        .store(queue.items.len() as u64, Ordering::Relaxed);
    handle
        .stats
        .queued_bytes
        .store(queue.bytes, Ordering::Relaxed);
    drop(queue);
    let new_watermark = block.meta.end_seq();
    handle
        .accepted_events
        .store(new_watermark, Ordering::Release);
    handle
        .accepted_icount
        .store(block.meta.end_icount, Ordering::Release);
    handle.work.notify_all();
    flush_deltas(stream, handle);
    reply(
        stream,
        &Message::Ack {
            events: new_watermark,
        },
    );
    Flow::Continue
}

/// Handles `FIN`: waits (with shutdown polling) for the analyzer to
/// drain and finalize, then streams remaining deltas and `DONE`.
fn handle_fin(shared: &Shared, handle: &SessionHandle, stream: &TcpStream) -> Flow {
    {
        let mut queue = lock(&handle.queue);
        queue.fin = true;
    }
    handle.work.notify_all();
    loop {
        if let Some(failure) = lock(&handle.failure).clone() {
            flush_deltas(stream, handle);
            reply(
                stream,
                &Message::Err {
                    code: match &failure {
                        ServeError::Rejected { code, .. } => *code,
                        _ => ErrCode::SessionFailed,
                    },
                    detail: failure.to_string(),
                },
            );
            return Flow::Close;
        }
        if let Some(done) = lock(&handle.done).clone() {
            flush_deltas(stream, handle);
            reply(stream, &Message::Done(done));
            return Flow::Close;
        }
        if shared.shutdown.load(Ordering::Relaxed) {
            return Flow::Close;
        }
        let queue = lock(&handle.queue);
        if queue.finished {
            // Analyzer exited without a done or failure record: only
            // possible on shutdown; fall through to the checks above.
            drop(queue);
            std::thread::yield_now();
            continue;
        }
        let waited = match handle.idle.wait_timeout(queue, POLL) {
            Ok((guard, _)) => guard,
            Err(poisoned) => poisoned.into_inner().0,
        };
        drop(waited);
    }
}

/// Drives one client connection from `HELLO` to close.
fn connection_loop(shared: &Arc<Shared>, stream: &TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL));
    let mut reader = PollRead {
        stream,
        shutdown: &shared.shutdown,
    };
    let name = match proto::read_message(&mut reader) {
        Ok(Message::Hello { name }) => name,
        Ok(other) => {
            shared.proto_errors.fetch_add(1, Ordering::Relaxed);
            reply(
                stream,
                &Message::Err {
                    code: ErrCode::BadFrame,
                    detail: format!("expected HELLO, got {other:?}"),
                },
            );
            return;
        }
        Err(ServeError::Proto(e)) => {
            shared.proto_errors.fetch_add(1, Ordering::Relaxed);
            reply(
                stream,
                &Message::Err {
                    code: e.code(),
                    detail: e.to_string(),
                },
            );
            return;
        }
        Err(_) => return,
    };
    // A reconnecting client can race the old connection thread's EOF
    // handling; give the stale attachment a moment to clear before
    // rejecting the HELLO.
    let mut attached = shared.attach(&name);
    for _ in 0..100 {
        match &attached {
            Err((ErrCode::Internal, detail))
                if detail.contains("live connection")
                    && !shared.shutdown.load(Ordering::Relaxed) =>
            {
                std::thread::sleep(Duration::from_millis(10));
                attached = shared.attach(&name);
            }
            _ => break,
        }
    }
    let (handle, resumed) = match attached {
        Ok(attached) => attached,
        Err((code, detail)) => {
            reply(stream, &Message::Err { code, detail });
            return;
        }
    };
    reply(
        stream,
        &Message::Welcome {
            events: handle.accepted_events.load(Ordering::Acquire),
            icount: handle.accepted_icount.load(Ordering::Acquire),
            resumed,
        },
    );
    loop {
        let flow = match proto::read_message(&mut reader) {
            Ok(Message::Block(block)) => handle_block(shared, &handle, stream, &block),
            Ok(Message::Fin) => handle_fin(shared, &handle, stream),
            Ok(other) => {
                shared.proto_errors.fetch_add(1, Ordering::Relaxed);
                reply(
                    stream,
                    &Message::Err {
                        code: ErrCode::BadFrame,
                        detail: format!("unexpected message {other:?}"),
                    },
                );
                Flow::Close
            }
            Err(ServeError::Proto(e)) => {
                shared.proto_errors.fetch_add(1, Ordering::Relaxed);
                reply(
                    stream,
                    &Message::Err {
                        code: e.code(),
                        detail: e.to_string(),
                    },
                );
                Flow::Close
            }
            // Disconnect (or shutdown): the session survives for a
            // later reattach.
            Err(_) => Flow::Close,
        };
        if matches!(flow, Flow::Close) {
            break;
        }
    }
    handle.attached.store(false, Ordering::Release);
}

/// A running server: accept loop, optional health endpoint, and the
/// shared session registry.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    health_addr: Option<SocketAddr>,
    accept: Option<std::thread::JoinHandle<()>>,
    health: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds the listeners and starts serving.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when an address cannot be bound or a service
    /// thread cannot be spawned.
    pub fn start(config: ServerConfig) -> Result<Self, ServeError> {
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| ServeError::io(&format!("bind {}", config.addr), &e))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| ServeError::io("set_nonblocking", &e))?;
        let addr = listener
            .local_addr()
            .map_err(|e| ServeError::io("local_addr", &e))?;
        let health_listener = match &config.health_addr {
            Some(health_addr) => {
                let l = TcpListener::bind(health_addr)
                    .map_err(|e| ServeError::io(&format!("bind {health_addr}"), &e))?;
                l.set_nonblocking(true)
                    .map_err(|e| ServeError::io("set_nonblocking", &e))?;
                Some(l)
            }
            None => None,
        };
        let health_addr = match &health_listener {
            Some(l) => Some(
                l.local_addr()
                    .map_err(|e| ServeError::io("local_addr", &e))?,
            ),
            None => None,
        };
        let shared = Arc::new(Shared {
            config,
            registry: Mutex::new(HashMap::new()),
            opening: Mutex::new(HashSet::new()),
            shutdown: AtomicBool::new(false),
            sessions: AtomicU64::new(0),
            done: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            proto_errors: AtomicU64::new(0),
            conn_seq: AtomicU64::new(0),
        });
        let accept = spm_par::spawn_labeled("serve-accept", "accept", {
            let shared = shared.clone();
            move || accept_loop(&shared, &listener)
        })
        .map_err(|e| ServeError::Io {
            context: "spawn accept thread".to_string(),
            message: e.to_string(),
        })?;
        let health = match health_listener {
            Some(listener) => Some(
                spm_par::spawn_labeled("serve-health", "health", {
                    let shared = shared.clone();
                    move || crate::health::health_loop(&shared, &listener)
                })
                .map_err(|e| ServeError::Io {
                    context: "spawn health thread".to_string(),
                    message: e.to_string(),
                })?,
            ),
            None => None,
        };
        Ok(Self {
            shared,
            addr,
            health_addr,
            accept: Some(accept),
            health: Some(health).flatten(),
        })
    }

    /// The bound wire-protocol address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound health-endpoint address, when enabled.
    pub fn health_addr(&self) -> Option<SocketAddr> {
        self.health_addr
    }

    /// Requests shutdown: the accept loop exits, blocked reads wind
    /// down at the next poll tick.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
    }

    /// A point-in-time snapshot of the named session's gauges, when
    /// the session exists (tests assert budgets through this).
    pub fn session_stats(&self, name: &str) -> Option<SessionStats> {
        lock(&self.shared.registry)
            .get(name)
            .map(|h| snapshot_stats(&h.stats))
    }

    /// Blocks until `expect` sessions completed (when configured) or
    /// shutdown is requested.
    pub fn wait(&self) {
        let expect = self.shared.config.expect;
        loop {
            if self.shared.shutdown.load(Ordering::Relaxed) {
                return;
            }
            if let Some(n) = expect {
                if self.shared.completed() >= n {
                    return;
                }
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// Shuts down, joins the service threads, and reports totals.
    pub fn stop(mut self) -> ServeReport {
        self.shutdown();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        if let Some(health) = self.health.take() {
            let _ = health.join();
        }
        self.shared.report()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        if let Some(health) = self.health.take() {
            let _ = health.join();
        }
    }
}

/// Copies the atomic gauges into a fresh stats block (a stable
/// snapshot for assertions).
fn snapshot_stats(stats: &SessionStats) -> SessionStats {
    let out = SessionStats::default();
    for (name, value) in stats.snapshot() {
        let field = match name {
            "state" => &out.state,
            "blocks" => &out.blocks,
            "events" => &out.events,
            "icount" => &out.icount,
            "updates" => &out.updates,
            "markers" => &out.markers,
            "stable_updates" => &out.stable_updates,
            "converged" => &out.converged,
            "tolerated_events" => &out.tolerated_events,
            "dangling_frames" => &out.dangling_frames,
            "mem_bytes" => &out.mem_bytes,
            "analysis_bytes" => &out.analysis_bytes,
            "queued_bytes" => &out.queued_bytes,
            "queue_len" => &out.queue_len,
            "busy_rejections" => &out.busy_rejections,
            "journal_events" => &out.journal_events,
            _ => continue,
        };
        field.store(value, Ordering::Relaxed);
    }
    out
}

/// Accepts connections until shutdown, spawning one detached
/// connection thread each.
fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    loop {
        if shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                let id = shared.conn_seq.fetch_add(1, Ordering::Relaxed);
                let spawned = spm_par::spawn_labeled("serve-conn", &format!("conn-{id}"), {
                    let shared = shared.clone();
                    move || connection_loop(&shared, &stream)
                });
                if spawned.is_err() {
                    // Thread spawn failed (resource exhaustion): drop
                    // the connection; the client will retry.
                    shared.proto_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Serves a minimal HTTP/1.0 response on `stream` with `body`.
pub(crate) fn write_http_ok(stream: &mut TcpStream, content_type: &str, body: &str) {
    let response = format!(
        "HTTP/1.0 200 OK\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(response.as_bytes());
}
