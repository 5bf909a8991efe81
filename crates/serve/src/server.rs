//! The serving loop: accept connections, route each to its session,
//! run analyzers, enforce backpressure and budgets.
//!
//! # Threading
//!
//! One accept thread, one optional health thread, and per session a
//! pair of threads that share one mailbox: a mutex-guarded record of
//! the bounded queue, the accepted-events watermark, pending deltas,
//! the `FIN` request, the session's outcome and the analyzer's last
//! published gauges, with one condvar for every wake-up.
//!
//! * the **connection thread** owns the socket. It decodes and fully
//!   verifies every frame *before* enqueueing, so protocol violations
//!   are synchronous typed `ERR` replies; it is the only writer on the
//!   socket (deltas are drained from the mailbox before each reply),
//!   and it enforces the queue capacity (`BUSY`) and the memory budget
//!   (`BUSY` while draining can help, fatal `BudgetExceeded` when it
//!   cannot), checking both under the mailbox lock.
//! * the **analyzer thread** owns the [`SessionCore`]: it pops a batch,
//!   journals it, runs the incremental selection update with no lock
//!   held, and publishes the deltas and gauges under one mailbox lock
//!   per block, so the connection thread always stays responsive.
//!
//! The health thread reads each session's gauges from its mailbox;
//! the lifecycle and queue gauges are derived there, not stored.
//!
//! Sessions outlive connections: a disconnect leaves the analyzer and
//! its state in the registry, and the next `HELLO` with the same name
//! reattaches and resumes from the accepted-events watermark. That
//! includes a session that already finalized — the reattached
//! connection acks duplicate blocks and answers `FIN` by replaying
//! the stored `DONE`, so losing the connection between the server's
//! finalize and the client's `DONE` read is recoverable, not fatal.

use crate::proto::{self, DeltaMsg, DoneMsg, ErrCode, Message, WireBlock};
use crate::session::{state, BlockFit, SessionConfig, SessionCore, SessionStats, Watermark};
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
    /// Stop serving once this many sessions completed: finalized or
    /// failed, with the `DONE` or `ERR` that says so written to the
    /// client. `None` serves until [`Server::shutdown`].
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
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// How a session's analyzer ended.
enum Outcome {
    /// Finalized by `FIN`; the summary is replayed to every later `FIN`.
    Done(DoneMsg),
    /// Failed server-side; later blocks, `FIN`s and `HELLO`s are refused.
    Failed(ServeError),
    /// The analyzer left on server shutdown.
    Shutdown,
}

/// Everything the connection and analyzer threads of one session hand
/// each other, behind one lock.
#[derive(Default)]
struct Mailbox {
    /// Accepted blocks awaiting analysis, and the bytes they hold.
    queue: VecDeque<Vec<(u64, TraceEvent)>>,
    queued_bytes: u64,
    /// The accepted-events watermark.
    accepted: Watermark,
    /// Deltas published by the analyzer, drained by the connection
    /// thread before each reply.
    deltas: Vec<DeltaMsg>,
    /// `FIN` received: finalize once the queue drains.
    fin: bool,
    /// Set once, by whichever thread ends the session.
    outcome: Option<Outcome>,
    /// Counted toward `expect`: the outcome is reported or nobody is
    /// attached to report it to.
    reported: bool,
    /// The analyzer's last published gauges, plus the `BUSY` count.
    figures: SessionStats,
}

/// One registered session.
pub(crate) struct SessionHandle {
    mailbox: Mutex<Mailbox>,
    /// Wakes the analyzer (new work, `FIN`, failure) and a connection
    /// waiting on `FIN` (outcome set).
    wake: Condvar,
    /// At most one connection drives a session at a time.
    attached: AtomicBool,
}

impl SessionHandle {
    /// Records how the session ended (the first outcome wins) and wakes
    /// both threads.
    fn settle(&self, shared: &Shared, mailbox: &mut Mailbox, outcome: Outcome) {
        if mailbox.outcome.is_none() {
            let counter = match outcome {
                Outcome::Done(_) => Some(&shared.done),
                Outcome::Failed(_) => Some(&shared.failed),
                Outcome::Shutdown => None,
            };
            if let Some(counter) = counter {
                counter.fetch_add(1, Ordering::Relaxed);
            }
            mailbox.outcome = Some(outcome);
            if !self.attached.load(Ordering::Acquire) {
                Self::count_reported(shared, mailbox);
            }
        }
        self.wake.notify_all();
    }

    /// Counts the session toward [`ServerConfig::expect`] once no client
    /// can still be owed a reply about its `Done` or `Failed` outcome:
    /// the `DONE` or `ERR` saying so was just written, or the session has
    /// no connection to write one. A server that stops on `expect` thus
    /// never ends before its last `DONE` is on the wire, and a session
    /// that fails with nobody attached still counts.
    fn reported(&self, shared: &Shared) {
        Self::count_reported(shared, &mut lock(&self.mailbox));
    }

    /// Releases the session for the next connection; an outcome nobody
    /// reported is now owed to no one.
    fn detach(&self, shared: &Shared) {
        self.attached.store(false, Ordering::Release);
        self.reported(shared);
    }

    fn count_reported(shared: &Shared, mailbox: &mut Mailbox) {
        let ended = matches!(mailbox.outcome, Some(Outcome::Done(_) | Outcome::Failed(_)));
        if ended && !mailbox.reported {
            mailbox.reported = true;
            shared.reported.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Waits for a wake-up or the next shutdown poll.
    fn wait<'a>(&self, mailbox: MutexGuard<'a, Mailbox>) -> MutexGuard<'a, Mailbox> {
        match self.wake.wait_timeout(mailbox, POLL) {
            Ok((guard, _)) => guard,
            Err(poisoned) => poisoned.into_inner().0,
        }
    }

    /// The session's gauges, with the lifecycle and queue gauges
    /// derived from the mailbox they describe.
    pub(crate) fn stats(&self) -> SessionStats {
        let mailbox = lock(&self.mailbox);
        SessionStats {
            state: match mailbox.outcome {
                Some(Outcome::Done(_)) => state::DONE,
                Some(Outcome::Failed(_)) => state::FAILED,
                Some(Outcome::Shutdown) | None => state::LIVE,
            },
            queue_len: mailbox.queue.len() as u64,
            queued_bytes: mailbox.queued_bytes,
            mem_bytes: mailbox.queued_bytes + mailbox.figures.analysis_bytes,
            ..mailbox.figures
        }
    }
}

/// Why a `HELLO` could not attach to its session.
enum AttachError {
    /// Another connection drives the session or is opening it: a
    /// transient condition the `HELLO` retry rides out.
    Attached,
    /// Any other refusal, sent to the client as this `ERR`.
    Rejected(ErrCode, String),
}

/// State shared by every thread of one server.
pub(crate) struct Shared {
    pub(crate) config: ServerConfig,
    pub(crate) registry: Mutex<HashMap<String, Arc<SessionHandle>>>,
    /// Names whose `SessionCore::open` (possibly a long journal
    /// replay) is in flight: the reservation keeps the registry lock
    /// free during the replay, so one session's recovery never stalls
    /// other attaches or the health endpoint. Lock order: `opening`
    /// before `registry` before a session's mailbox, never across a
    /// slow operation.
    opening: Mutex<HashSet<String>>,
    pub(crate) shutdown: AtomicBool,
    pub(crate) sessions: AtomicU64,
    pub(crate) done: AtomicU64,
    pub(crate) failed: AtomicU64,
    /// Sessions whose outcome reached the client as `DONE` or `ERR`.
    reported: AtomicU64,
    pub(crate) proto_errors: AtomicU64,
    conn_seq: AtomicU64,
}

impl Shared {
    /// Point-in-time totals for the health endpoint and final report.
    pub(crate) fn report(&self) -> ServeReport {
        let busy = lock(&self.registry)
            .values()
            .map(|h| lock(&h.mailbox).figures.busy_rejections)
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
    fn attach(self: &Arc<Self>, name: &str) -> Result<(Arc<SessionHandle>, bool), AttachError> {
        {
            let mut opening = lock(&self.opening);
            let registry = lock(&self.registry);
            if let Some(handle) = registry.get(name) {
                if handle.attached.swap(true, Ordering::AcqRel) {
                    return Err(AttachError::Attached);
                }
                if matches!(lock(&handle.mailbox).outcome, Some(Outcome::Failed(_))) {
                    handle.detach(self);
                    return Err(AttachError::Rejected(
                        ErrCode::SessionFailed,
                        format!("session `{name}` failed"),
                    ));
                }
                return Ok((handle.clone(), true));
            }
            drop(registry);
            if !opening.insert(name.to_string()) {
                // Another connection is opening this name (possibly a
                // long journal replay): as transient as a live one.
                return Err(AttachError::Attached);
            }
        }
        // Slow path — journal replay can take a while — runs with no
        // lock held; the `opening` reservation keeps the name ours.
        let result = self.open_session(name);
        lock(&self.opening).remove(name);
        result.map_err(|(code, detail)| AttachError::Rejected(code, detail))
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
        let mut figures = SessionStats::default();
        core.publish(&mut figures);
        let handle = Arc::new(SessionHandle {
            mailbox: Mutex::new(Mailbox {
                accepted: resumed.unwrap_or_default(),
                figures,
                ..Mailbox::default()
            }),
            wake: Condvar::new(),
            attached: AtomicBool::new(true),
        });
        let spawned = spm_par::spawn_labeled("serve-analyze", name, {
            let shared = self.clone();
            let handle = handle.clone();
            move || analyzer_loop(&shared, &handle, core)
        });
        if let Err(e) = spawned {
            return Err((
                ErrCode::Internal,
                format!("cannot spawn analyzer thread: {e}"),
            ));
        }
        lock(&self.registry).insert(name.to_string(), handle.clone());
        self.sessions.fetch_add(1, Ordering::Relaxed);
        Ok((handle, resumed.is_some()))
    }
}

/// Drains the session queue, analyzing one batch per iteration;
/// finalizes on `FIN`, exits once the session has an outcome or on
/// server shutdown. The analyzer alone owns the session core, and takes
/// the mailbox lock once per block: to publish what the last block
/// produced and to pop the next.
fn analyzer_loop(shared: &Shared, handle: &SessionHandle, mut core: SessionCore) {
    let mut mailbox = lock(&handle.mailbox);
    while mailbox.outcome.is_none() {
        if let Some(batch) = mailbox.queue.pop_front() {
            mailbox.queued_bytes -= batch_bytes(&batch);
            drop(mailbox);
            let analyzed = core.analyze(&batch);
            let deltas: Vec<DeltaMsg> = core
                .outbox
                .drain(..)
                .map(|d| DeltaMsg::from_delta(&d))
                .collect();
            mailbox = lock(&handle.mailbox);
            mailbox.deltas.extend(deltas);
            core.publish(&mut mailbox.figures);
            if let Err(e) = analyzed {
                handle.settle(shared, &mut mailbox, Outcome::Failed(e));
            }
        } else if mailbox.fin {
            drop(mailbox);
            let outcome = match core.finish() {
                Ok(done) => Outcome::Done(done),
                Err(e) => Outcome::Failed(e),
            };
            mailbox = lock(&handle.mailbox);
            core.publish(&mut mailbox.figures);
            handle.settle(shared, &mut mailbox, outcome);
        } else if shared.shutdown.load(Ordering::Relaxed) {
            handle.settle(shared, &mut mailbox, Outcome::Shutdown);
        } else {
            mailbox = handle.wait(mailbox);
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
    let deltas = std::mem::take(&mut lock(&handle.mailbox).deltas);
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
    let (msg, flow) = match admit(shared, handle, block) {
        Ok(msg) => (msg, Flow::Continue),
        Err(msg) => (msg, Flow::Close),
    };
    flush_deltas(stream, handle);
    reply(stream, &msg);
    if matches!(flow, Flow::Close) {
        handle.reported(shared);
    }
    flow
}

/// Decides a block's reply: `Ok` keeps the connection (`ACK`, `BUSY`),
/// `Err` closes it. The block is decoded outside the mailbox lock; the
/// watermark is read before and written after, which is safe because
/// only the attached connection moves it.
fn admit(shared: &Shared, handle: &SessionHandle, block: &WireBlock) -> Result<Message, Message> {
    let session_failed = |detail: String| Message::Err {
        code: ErrCode::SessionFailed,
        detail,
    };
    let skip = {
        let mailbox = lock(&handle.mailbox);
        if let Some(Outcome::Failed(failure)) = &mailbox.outcome {
            return Err(session_failed(failure.to_string()));
        }
        let accepted = mailbox.accepted.events;
        match BlockFit::of(&block.meta, accepted) {
            // A resend from before the watermark (reconnect): already
            // analyzed and journaled, ack it silently.
            BlockFit::Duplicate => return Ok(Message::Ack { events: accepted }),
            BlockFit::Gap => {
                shared.proto_errors.fetch_add(1, Ordering::Relaxed);
                return Err(Message::Err {
                    code: ErrCode::SequenceGap,
                    detail: format!(
                        "block starts at event {}, watermark is {accepted}",
                        block.meta.first_seq
                    ),
                });
            }
            BlockFit::Fresh { skip } => skip,
        }
    };
    let mut fresh = block.decode_events().map_err(|e| {
        shared.proto_errors.fetch_add(1, Ordering::Relaxed);
        Message::Err {
            code: e.code(),
            detail: e.to_string(),
        }
    })?;
    // Drop the sub-watermark prefix of a straddling block (a no-op for
    // any other); the decoded events move into the queue uncopied.
    fresh.drain(..skip.min(fresh.len()));
    let incoming = batch_bytes(&fresh);
    let mut mailbox = lock(&handle.mailbox);
    match mailbox.outcome {
        Some(Outcome::Done(_)) => {
            return Err(session_failed(
                "session already finalized; new blocks rejected".into(),
            ))
        }
        Some(_) => return Err(session_failed("session analyzer has exited".into())),
        None => {}
    }
    let capacity = shared.config.session.queue_capacity.max(1);
    let queued = mailbox.queue.len();
    let busy = Message::Busy {
        queued: queued as u64,
        capacity: capacity as u64,
    };
    if queued >= capacity {
        mailbox.figures.busy_rejections += 1;
        return Ok(busy);
    }
    // The analyzer's state estimate and the queued bytes are read under
    // the one lock that also guards the queue.
    let budget = shared.config.session.mem_budget;
    if mailbox.figures.analysis_bytes + mailbox.queued_bytes + incoming > budget {
        if queued > 0 {
            // Draining the queue may shrink usage below budget: this
            // is backpressure, not failure.
            mailbox.figures.busy_rejections += 1;
            return Ok(busy);
        }
        // Queue empty and still over budget: no amount of waiting
        // helps. Fail the session.
        let detail =
            format!("accepting {incoming} bytes would exceed the {budget}-byte session budget");
        let failure = ServeError::Rejected {
            code: ErrCode::BudgetExceeded,
            detail: detail.clone(),
        };
        handle.settle(shared, &mut mailbox, Outcome::Failed(failure));
        return Err(Message::Err {
            code: ErrCode::BudgetExceeded,
            detail,
        });
    }
    mailbox.queued_bytes += incoming;
    mailbox.queue.push_back(fresh);
    mailbox.accepted = Watermark {
        events: block.meta.end_seq(),
        icount: block.meta.end_icount,
    };
    handle.wake.notify_all();
    Ok(Message::Ack {
        events: mailbox.accepted.events,
    })
}

/// Handles `FIN`: waits (with shutdown polling) for the analyzer to
/// drain and finalize, then streams remaining deltas and `DONE`.
fn handle_fin(shared: &Shared, handle: &SessionHandle, stream: &TcpStream) -> Flow {
    let mut mailbox = lock(&handle.mailbox);
    mailbox.fin = true;
    handle.wake.notify_all();
    let msg = loop {
        match &mailbox.outcome {
            Some(Outcome::Done(done)) => break Message::Done(done.clone()),
            Some(Outcome::Failed(failure)) => {
                break Message::Err {
                    code: match failure {
                        ServeError::Rejected { code, .. } => *code,
                        _ => ErrCode::SessionFailed,
                    },
                    detail: failure.to_string(),
                }
            }
            Some(Outcome::Shutdown) => return Flow::Close,
            None if shared.shutdown.load(Ordering::Relaxed) => return Flow::Close,
            None => mailbox = handle.wait(mailbox),
        }
    };
    drop(mailbox);
    flush_deltas(stream, handle);
    reply(stream, &msg);
    handle.reported(shared);
    Flow::Close
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
        if !matches!(attached, Err(AttachError::Attached))
            || shared.shutdown.load(Ordering::Relaxed)
        {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
        attached = shared.attach(&name);
    }
    let (handle, resumed) = match attached {
        Ok(attached) => attached,
        Err(refusal) => {
            let (code, detail) = match refusal {
                AttachError::Attached => (
                    ErrCode::Internal,
                    format!("session `{name}` already has a live connection"),
                ),
                AttachError::Rejected(code, detail) => (code, detail),
            };
            reply(stream, &Message::Err { code, detail });
            return;
        }
    };
    let accepted = lock(&handle.mailbox).accepted;
    reply(
        stream,
        &Message::Welcome {
            events: accepted.events,
            icount: accepted.icount,
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
    handle.detach(shared);
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
            reported: AtomicU64::new(0),
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
            health,
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
        lock(&self.shared.registry).get(name).map(|h| h.stats())
    }

    /// Blocks until `expect` sessions completed (when configured) or
    /// shutdown is requested. A session counts once the `DONE` or
    /// `ERR` reporting its outcome has been written, so what follows
    /// (even the process exiting) cannot cut that reply off.
    pub fn wait(&self) {
        let expect = self.shared.config.expect;
        loop {
            if self.shared.shutdown.load(Ordering::Relaxed) {
                return;
            }
            if let Some(n) = expect {
                if self.shared.reported.load(Ordering::Relaxed) >= n {
                    return;
                }
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// Shuts down, joins the service threads, and reports totals.
    pub fn stop(mut self) -> ServeReport {
        self.join();
        self.shared.report()
    }

    /// Requests shutdown and joins the accept and health threads.
    fn join(&mut self) {
        self.shutdown();
        for thread in [self.accept.take(), self.health.take()]
            .into_iter()
            .flatten()
        {
            let _ = thread.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.join();
    }
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

#[cfg(test)]
mod tests {
    use super::*;

    /// An outcome no connection can report still counts toward
    /// `expect`: at once when it settles with nobody attached, and when
    /// its connection detaches otherwise.
    #[test]
    fn unreported_outcomes_count_once_nobody_is_attached() {
        let server = Server::start(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            health_addr: None,
            session: SessionConfig::default(),
            expect: Some(2),
        })
        .unwrap();
        let shared = &server.shared;
        let failure = || ServeError::Rejected {
            code: ErrCode::Internal,
            detail: "test".to_string(),
        };
        let reported = || shared.reported.load(Ordering::Relaxed);

        let Ok((detached, _)) = shared.attach("detached") else {
            panic!("cannot attach `detached`");
        };
        detached.attached.store(false, Ordering::Release);
        detached.settle(
            shared,
            &mut lock(&detached.mailbox),
            Outcome::Failed(failure()),
        );
        assert_eq!(reported(), 1);

        let Ok((attached, _)) = shared.attach("attached") else {
            panic!("cannot attach `attached`");
        };
        attached.settle(
            shared,
            &mut lock(&attached.mailbox),
            Outcome::Failed(failure()),
        );
        assert_eq!(reported(), 1, "its connection may still write the ERR");
        attached.detach(shared);
        attached.detach(shared);
        assert_eq!(reported(), 2);
        server.wait();
        let report = server.stop();
        assert_eq!(report.failed, 2);
    }
}
