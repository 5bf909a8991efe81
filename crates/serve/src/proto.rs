//! The `spmsrv01` wire protocol.
//!
//! Every message is one frame:
//!
//! ```text
//! [tag u8][payload_len u32 LE][payload][fnv1a64(payload) u64 LE]
//! ```
//!
//! `BLOCK` payloads are a 40-byte spmstk01 block frame
//! ([`BlockMeta::encode_frame`], which embeds its own payload checksum)
//! followed by the uncompressed event bytes — the store's framing *is*
//! the wire framing, so the server re-verifies the block with the exact
//! code path the store reader uses, and a wire block round-trips into
//! the journal byte-compatibly.
//!
//! All integers are little-endian. Frames are bounded by
//! [`MAX_PAYLOAD`]; a declared length beyond it is rejected before any
//! allocation. Every violation is a typed [`ProtoError`] — the decoder
//! never panics on hostile input.

use spm_core::Marker;
use spm_sim::TraceEvent;
use spm_store::format::{fnv1a64, BlockMeta, FRAME_LEN};
use spm_store::Compression;
use std::fmt;
use std::io::{Read, Write};

use crate::ServeError;

/// Wire magic + version: the `HELLO` payload must start with this.
pub const WIRE_MAGIC: &[u8; 8] = b"spmsrv01";
/// Magic prefix shared by every protocol version.
pub const WIRE_MAGIC_PREFIX: &[u8; 6] = b"spmsrv";
/// Upper bound on any frame payload (16 MiB): rejects hostile lengths
/// before allocating.
pub const MAX_PAYLOAD: usize = 16 * 1024 * 1024;
/// Upper bound on a session name.
pub const MAX_NAME: usize = 256;

/// Validates a session name for use as a registry key and journal
/// file stem: 1..=[`MAX_NAME`] bytes of `[A-Za-z0-9._-]`, not
/// starting with a dot. The name is joined into the serve directory
/// as `<name>.g<N>.spmstk` / `<name>.markers`, so anything looser
/// would let a remote `HELLO` smuggle path separators (or `.`/`..`)
/// into server-side paths.
///
/// # Errors
///
/// [`ProtoError::BadFrame`] naming the first offending byte.
pub fn validate_session_name(name: &str) -> Result<(), ProtoError> {
    if name.is_empty() || name.len() > MAX_NAME {
        return Err(ProtoError::BadFrame {
            detail: format!(
                "session name must be 1..={MAX_NAME} bytes, got {}",
                name.len()
            ),
        });
    }
    if name.starts_with('.') {
        return Err(ProtoError::BadFrame {
            detail: "session name must not start with `.`".to_string(),
        });
    }
    if let Some(bad) = name
        .chars()
        .find(|c| !c.is_ascii_alphanumeric() && !matches!(c, '.' | '_' | '-'))
    {
        return Err(ProtoError::BadFrame {
            detail: format!(
                "session name contains `{}`; allowed: [A-Za-z0-9._-]",
                bad.escape_default()
            ),
        });
    }
    Ok(())
}

/// Message tags.
mod tag {
    pub const HELLO: u8 = 0x01;
    pub const WELCOME: u8 = 0x02;
    pub const BLOCK: u8 = 0x03;
    pub const ACK: u8 = 0x04;
    pub const BUSY: u8 = 0x05;
    pub const DELTA: u8 = 0x06;
    pub const FIN: u8 = 0x07;
    pub const DONE: u8 = 0x08;
    pub const ERR: u8 = 0x09;
}

/// Stable error codes carried by `ERR` messages (and surfaced as
/// [`crate::ServeError::Rejected`] on the client).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrCode {
    /// `HELLO` did not start with the `spmsrv` magic.
    BadMagic,
    /// The magic matched but the version digits are unknown.
    UnsupportedVersion,
    /// A frame or block failed structural validation.
    BadFrame,
    /// A declared checksum did not match the payload.
    ChecksumMismatch,
    /// A block's first sequence number skipped past the watermark.
    SequenceGap,
    /// Accepting the message would exceed the session memory budget.
    BudgetExceeded,
    /// The session failed server-side (journal I/O, internal error).
    SessionFailed,
    /// Anything else.
    Internal,
}

impl ErrCode {
    fn to_byte(self) -> u8 {
        match self {
            ErrCode::BadMagic => 1,
            ErrCode::UnsupportedVersion => 2,
            ErrCode::BadFrame => 3,
            ErrCode::ChecksumMismatch => 4,
            ErrCode::SequenceGap => 5,
            ErrCode::BudgetExceeded => 6,
            ErrCode::SessionFailed => 7,
            ErrCode::Internal => 8,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        Some(match b {
            1 => ErrCode::BadMagic,
            2 => ErrCode::UnsupportedVersion,
            3 => ErrCode::BadFrame,
            4 => ErrCode::ChecksumMismatch,
            5 => ErrCode::SequenceGap,
            6 => ErrCode::BudgetExceeded,
            7 => ErrCode::SessionFailed,
            8 => ErrCode::Internal,
            _ => return None,
        })
    }
}

impl fmt::Display for ErrCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The Debug name doubles as the stable, greppable token.
        write!(f, "{self:?}")
    }
}

/// A local protocol violation, detected while decoding a peer's bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// `HELLO` did not start with `spmsrv`.
    BadMagic,
    /// `spmsrv` matched but the version digits are unknown.
    UnsupportedVersion {
        /// The two version bytes found.
        found: [u8; 2],
    },
    /// The stream ended inside a frame.
    Truncated,
    /// An unknown message tag.
    BadTag {
        /// The tag byte.
        tag: u8,
    },
    /// A declared payload length exceeds [`MAX_PAYLOAD`].
    TooLarge {
        /// Declared length.
        len: u64,
    },
    /// The frame checksum did not match its payload.
    ChecksumMismatch {
        /// Checksum declared in the frame.
        declared: u64,
        /// Checksum of the received payload.
        actual: u64,
    },
    /// A message payload failed structural validation.
    BadFrame {
        /// What was wrong.
        detail: String,
    },
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::BadMagic => write!(f, "HELLO does not start with `spmsrv`"),
            ProtoError::UnsupportedVersion { found } => write!(
                f,
                "unsupported protocol version `{}{}` (expected `01`)",
                found[0] as char, found[1] as char
            ),
            ProtoError::Truncated => write!(f, "stream ended inside a frame"),
            ProtoError::BadTag { tag } => write!(f, "unknown message tag 0x{tag:02x}"),
            ProtoError::TooLarge { len } => {
                write!(f, "declared payload of {len} bytes exceeds {MAX_PAYLOAD}")
            }
            ProtoError::ChecksumMismatch { declared, actual } => write!(
                f,
                "frame checksum mismatch: declared {declared:016x}, got {actual:016x}"
            ),
            ProtoError::BadFrame { detail } => write!(f, "bad frame: {detail}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl ProtoError {
    /// The stable code a server reports this violation under.
    pub fn code(&self) -> ErrCode {
        match self {
            ProtoError::BadMagic => ErrCode::BadMagic,
            ProtoError::UnsupportedVersion { .. } => ErrCode::UnsupportedVersion,
            ProtoError::ChecksumMismatch { .. } => ErrCode::ChecksumMismatch,
            _ => ErrCode::BadFrame,
        }
    }
}

/// One spmstk01 block as carried on the wire: the frame metadata plus
/// the *encoded* (uncompressed) event payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireBlock {
    /// Block metadata (`offset` is meaningless on the wire and held 0).
    pub meta: BlockMeta,
    /// Encoded event bytes (the store's delta-varint payload encoding).
    pub payload: Vec<u8>,
}

impl WireBlock {
    /// Decodes the payload into `(icount, event)` pairs with the store
    /// reader's own block decoder ([`spm_store::decode_block`]): deltas
    /// accumulate from `meta.start_icount`, and the event count and end
    /// icount are cross-checked against the frame.
    ///
    /// # Errors
    ///
    /// [`ProtoError::BadFrame`] when the payload does not decode or
    /// does not match the frame's declared counts.
    pub fn decode_events(&self) -> Result<Vec<(u64, TraceEvent)>, ProtoError> {
        spm_store::decode_block(&self.payload, self.meta, Compression::None).map_err(|e| {
            ProtoError::BadFrame {
                detail: e.to_string(),
            }
        })
    }
}

/// Per-update facts carried by `DELTA` messages: the numbers from
/// [`spm_core::SelectionDelta`] plus the added/removed markers in the
/// marker text format (added markers carry their new id; `id + 1` is
/// the phase id that marker starts).
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaMsg {
    /// 1-based update (block) index.
    pub update: u64,
    /// Marker-set size after the update.
    pub markers: u64,
    /// Consecutive unchanged updates.
    pub stable_updates: u64,
    /// Whether the set has been stable for the configured window.
    pub converged: bool,
    /// Events consumed so far.
    pub events: u64,
    /// Instruction-count watermark.
    pub icount: u64,
    /// Tolerated structural mismatches so far.
    pub tolerated_events: u64,
    /// Frames currently open on the shadow stack.
    pub dangling_frames: u64,
    /// Added markers as `(id, text)`.
    pub added: Vec<(u64, String)>,
    /// Removed markers (text form).
    pub removed: Vec<String>,
}

impl DeltaMsg {
    /// Builds the wire form of a core delta.
    pub fn from_delta(d: &spm_core::SelectionDelta) -> Self {
        let render = |m: &Marker| m.to_string();
        DeltaMsg {
            update: d.update,
            markers: d.markers as u64,
            stable_updates: d.stable_updates,
            converged: d.converged,
            events: d.events,
            icount: d.icount,
            tolerated_events: d.tolerated_events,
            dangling_frames: d.dangling_frames,
            added: d
                .added
                .iter()
                .map(|(id, m)| (*id as u64, render(m)))
                .collect(),
            removed: d.removed.iter().map(render).collect(),
        }
    }
}

/// End-of-session summary carried by `DONE`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DoneMsg {
    /// Blocks accepted.
    pub blocks: u64,
    /// Events analyzed.
    pub events: u64,
    /// Final instruction-count watermark.
    pub icount: u64,
    /// Selection updates run.
    pub updates: u64,
    /// Update index at which the set first converged (0 = never).
    pub converged_at: u64,
    /// Tolerated structural mismatches.
    pub tolerated_events: u64,
    /// Frames dangling at end-of-session.
    pub dangling_frames: u64,
    /// The final marker set, rendered as a `markers v1` file.
    pub markers_text: String,
}

/// A protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Client → server: open (or reattach to) the named session.
    Hello {
        /// Session name (keys the registry and the journal files).
        name: String,
    },
    /// Server → client: session accepted; resume after the watermark.
    Welcome {
        /// Events already accepted for this session.
        events: u64,
        /// Instruction-count watermark of the accepted stream.
        icount: u64,
        /// Whether an existing session (live or journaled) was resumed.
        resumed: bool,
    },
    /// Client → server: one spmstk01 block of trace events.
    Block(WireBlock),
    /// Server → client: the block was accepted; `events` is the new
    /// accepted-event watermark.
    Ack {
        /// Accepted-event watermark after this block.
        events: u64,
    },
    /// Server → client: the session queue (or memory budget) is full —
    /// back off and resend the same block. Never fatal.
    Busy {
        /// Blocks currently queued.
        queued: u64,
        /// Queue capacity in blocks.
        capacity: u64,
    },
    /// Server → client: one incremental selection update.
    Delta(DeltaMsg),
    /// Client → server: end of stream; finalize and report.
    Fin,
    /// Server → client: session finalized.
    Done(DoneMsg),
    /// Server → client: typed rejection. Fatal for the session.
    Err {
        /// Stable error code.
        code: ErrCode,
        /// Human-readable detail.
        detail: String,
    },
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    push_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        let end = self.at.checked_add(n).ok_or(ProtoError::Truncated)?;
        if end > self.bytes.len() {
            return Err(ProtoError::Truncated);
        }
        let slice = &self.bytes[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        let raw = self.take(8)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(raw);
        Ok(u64::from_le_bytes(b))
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    fn string(&mut self, what: &str) -> Result<String, ProtoError> {
        let len = self.u64()?;
        if len > MAX_PAYLOAD as u64 {
            return Err(ProtoError::TooLarge { len });
        }
        let raw = self.take(len as usize)?;
        String::from_utf8(raw.to_vec()).map_err(|_| ProtoError::BadFrame {
            detail: format!("{what} is not UTF-8"),
        })
    }

    fn finish(self) -> Result<(), ProtoError> {
        if self.at != self.bytes.len() {
            return Err(ProtoError::BadFrame {
                detail: format!(
                    "{} trailing bytes after the message body",
                    self.bytes.len() - self.at
                ),
            });
        }
        Ok(())
    }
}

impl Message {
    fn tag(&self) -> u8 {
        match self {
            Message::Hello { .. } => tag::HELLO,
            Message::Welcome { .. } => tag::WELCOME,
            Message::Block(_) => tag::BLOCK,
            Message::Ack { .. } => tag::ACK,
            Message::Busy { .. } => tag::BUSY,
            Message::Delta(_) => tag::DELTA,
            Message::Fin => tag::FIN,
            Message::Done(_) => tag::DONE,
            Message::Err { .. } => tag::ERR,
        }
    }

    /// Serializes the message payload (without the outer frame).
    fn encode_payload(&self, out: &mut Vec<u8>) {
        match self {
            Message::Hello { name } => {
                out.extend_from_slice(WIRE_MAGIC);
                push_str(out, name);
            }
            Message::Welcome {
                events,
                icount,
                resumed,
            } => {
                push_u64(out, *events);
                push_u64(out, *icount);
                out.push(u8::from(*resumed));
            }
            Message::Block(block) => {
                block.meta.encode_frame(fnv1a64(&block.payload), out);
                out.extend_from_slice(&block.payload);
            }
            Message::Ack { events } => push_u64(out, *events),
            Message::Busy { queued, capacity } => {
                push_u64(out, *queued);
                push_u64(out, *capacity);
            }
            Message::Delta(d) => {
                push_u64(out, d.update);
                push_u64(out, d.markers);
                push_u64(out, d.stable_updates);
                out.push(u8::from(d.converged));
                push_u64(out, d.events);
                push_u64(out, d.icount);
                push_u64(out, d.tolerated_events);
                push_u64(out, d.dangling_frames);
                push_u64(out, d.added.len() as u64);
                for (id, text) in &d.added {
                    push_u64(out, *id);
                    push_str(out, text);
                }
                push_u64(out, d.removed.len() as u64);
                for text in &d.removed {
                    push_str(out, text);
                }
            }
            Message::Fin => {}
            Message::Done(d) => {
                push_u64(out, d.blocks);
                push_u64(out, d.events);
                push_u64(out, d.icount);
                push_u64(out, d.updates);
                push_u64(out, d.converged_at);
                push_u64(out, d.tolerated_events);
                push_u64(out, d.dangling_frames);
                push_str(out, &d.markers_text);
            }
            Message::Err { code, detail } => {
                out.push(code.to_byte());
                push_str(out, detail);
            }
        }
    }

    /// Parses a payload for `tag`.
    fn decode_payload(tag_byte: u8, payload: &[u8]) -> Result<Message, ProtoError> {
        let mut c = Cursor::new(payload);
        let msg = match tag_byte {
            tag::HELLO => {
                let magic = c.take(WIRE_MAGIC.len())?;
                if &magic[..WIRE_MAGIC_PREFIX.len()] != WIRE_MAGIC_PREFIX {
                    return Err(ProtoError::BadMagic);
                }
                if magic != WIRE_MAGIC {
                    return Err(ProtoError::UnsupportedVersion {
                        found: [magic[6], magic[7]],
                    });
                }
                let name = c.string("session name")?;
                validate_session_name(&name)?;
                Message::Hello { name }
            }
            tag::WELCOME => Message::Welcome {
                events: c.u64()?,
                icount: c.u64()?,
                resumed: c.u8()? != 0,
            },
            tag::BLOCK => {
                let frame = c.take(FRAME_LEN)?;
                let (meta, declared) =
                    BlockMeta::decode_frame(frame, 0).map_err(|e| ProtoError::BadFrame {
                        detail: e.to_string(),
                    })?;
                let payload = c.take(meta.payload_len as usize)?.to_vec();
                let actual = fnv1a64(&payload);
                if actual != declared {
                    return Err(ProtoError::ChecksumMismatch { declared, actual });
                }
                Message::Block(WireBlock { meta, payload })
            }
            tag::ACK => Message::Ack { events: c.u64()? },
            tag::BUSY => Message::Busy {
                queued: c.u64()?,
                capacity: c.u64()?,
            },
            tag::DELTA => {
                let update = c.u64()?;
                let markers = c.u64()?;
                let stable_updates = c.u64()?;
                let converged = c.u8()? != 0;
                let events = c.u64()?;
                let icount = c.u64()?;
                let tolerated_events = c.u64()?;
                let dangling_frames = c.u64()?;
                let n_added = c.u64()?;
                let mut added = Vec::new();
                for _ in 0..n_added {
                    let id = c.u64()?;
                    added.push((id, c.string("marker")?));
                }
                let n_removed = c.u64()?;
                let mut removed = Vec::new();
                for _ in 0..n_removed {
                    removed.push(c.string("marker")?);
                }
                Message::Delta(DeltaMsg {
                    update,
                    markers,
                    stable_updates,
                    converged,
                    events,
                    icount,
                    tolerated_events,
                    dangling_frames,
                    added,
                    removed,
                })
            }
            tag::FIN => Message::Fin,
            tag::DONE => Message::Done(DoneMsg {
                blocks: c.u64()?,
                events: c.u64()?,
                icount: c.u64()?,
                updates: c.u64()?,
                converged_at: c.u64()?,
                tolerated_events: c.u64()?,
                dangling_frames: c.u64()?,
                markers_text: c.string("marker text")?,
            }),
            tag::ERR => {
                let code_byte = c.u8()?;
                let code = ErrCode::from_byte(code_byte).ok_or(ProtoError::BadFrame {
                    detail: format!("unknown error code {code_byte}"),
                })?;
                Message::Err {
                    code,
                    detail: c.string("error detail")?,
                }
            }
            other => return Err(ProtoError::BadTag { tag: other }),
        };
        c.finish()?;
        Ok(msg)
    }
}

/// Serializes one message into its wire frame.
pub fn encode_message(msg: &Message) -> Vec<u8> {
    let mut payload = Vec::new();
    msg.encode_payload(&mut payload);
    let mut out = Vec::with_capacity(payload.len() + 13);
    out.push(msg.tag());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&payload);
    out.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
    out
}

/// Writes one message to `w` (buffered callers should flush after the
/// last message of a turn).
///
/// # Errors
///
/// [`ServeError::Io`] when the transport fails.
pub fn write_message<W: Write>(w: &mut W, msg: &Message) -> Result<(), ServeError> {
    w.write_all(&encode_message(msg))
        .map_err(|e| ServeError::io("write", &e))
}

/// Reads one message from `r`.
///
/// A clean close at a frame boundary is reported as an I/O error with
/// context `read/eof`, so callers can distinguish "peer went away"
/// (reconnectable) from a malformed frame (fatal).
///
/// # Errors
///
/// [`ServeError::Io`] on transport failure, [`ServeError::Proto`] when
/// the bytes violate the protocol.
pub fn read_message<R: Read>(r: &mut R) -> Result<Message, ServeError> {
    let mut header = [0u8; 5];
    let mut got = 0usize;
    while got < header.len() {
        match r.read(&mut header[got..]) {
            Ok(0) => {
                if got == 0 {
                    return Err(ServeError::Io {
                        context: "read/eof".into(),
                        message: "connection closed".into(),
                    });
                }
                return Err(ProtoError::Truncated.into());
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ServeError::io("read", &e)),
        }
    }
    let tag_byte = header[0];
    let len = u32::from_le_bytes([header[1], header[2], header[3], header[4]]) as usize;
    if len > MAX_PAYLOAD {
        return Err(ProtoError::TooLarge { len: len as u64 }.into());
    }
    let mut payload = vec![0u8; len];
    read_exact(r, &mut payload)?;
    let mut checksum = [0u8; 8];
    read_exact(r, &mut checksum)?;
    let declared = u64::from_le_bytes(checksum);
    let actual = fnv1a64(&payload);
    if declared != actual {
        return Err(ProtoError::ChecksumMismatch { declared, actual }.into());
    }
    Ok(Message::decode_payload(tag_byte, &payload)?)
}

fn read_exact<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<(), ServeError> {
    let mut got = 0usize;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => return Err(ProtoError::Truncated.into()),
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ServeError::io("read", &e)),
        }
    }
    Ok(())
}

/// Chunks an in-memory event stream into wire blocks of at most
/// `budget` encoded bytes, mirroring the store writer's per-block
/// delta-base reset (each block's deltas accumulate from its
/// `start_icount`, which equals the previous block's `end_icount`).
pub fn chunk_events(events: &[(u64, TraceEvent)], budget: usize) -> Vec<WireBlock> {
    let budget = budget.max(1);
    let mut blocks = Vec::new();
    let mut payload = Vec::new();
    let mut block_events = 0u32;
    let mut first_seq = 0u64;
    let mut start_icount = 0u64;
    let mut last_icount = 0u64;
    let mut seq = 0u64;
    for (icount, event) in events {
        let delta = icount.saturating_sub(last_icount);
        last_icount = last_icount.max(*icount);
        spm_sim::record::encode_event(&mut payload, delta, event);
        block_events += 1;
        seq += 1;
        if payload.len() >= budget {
            blocks.push(WireBlock {
                meta: BlockMeta {
                    offset: 0,
                    first_seq,
                    start_icount,
                    end_icount: last_icount,
                    events: block_events,
                    payload_len: payload.len() as u32,
                },
                payload: std::mem::take(&mut payload),
            });
            block_events = 0;
            first_seq = seq;
            start_icount = last_icount;
        }
    }
    if block_events > 0 {
        blocks.push(WireBlock {
            meta: BlockMeta {
                offset: 0,
                first_seq,
                start_icount,
                end_icount: last_icount,
                events: block_events,
                payload_len: payload.len() as u32,
            },
            payload,
        });
    }
    blocks
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use spm_ir::ProcId;

    fn events() -> Vec<(u64, TraceEvent)> {
        (0..200u64)
            .flat_map(|i| {
                [
                    (i * 10, TraceEvent::Call { proc: ProcId(3) }),
                    (i * 10 + 7, TraceEvent::Return { proc: ProcId(3) }),
                ]
            })
            .collect()
    }

    #[test]
    fn all_messages_round_trip() {
        let block = chunk_events(&events(), 64).remove(0);
        let msgs = vec![
            Message::Hello {
                name: "sess-1".into(),
            },
            Message::Welcome {
                events: 7,
                icount: 99,
                resumed: true,
            },
            Message::Block(block),
            Message::Ack { events: 12 },
            Message::Busy {
                queued: 8,
                capacity: 8,
            },
            Message::Delta(DeltaMsg {
                update: 3,
                markers: 2,
                stable_updates: 1,
                converged: false,
                events: 400,
                icount: 1990,
                tolerated_events: 0,
                dangling_frames: 2,
                added: vec![(0, "P3h->P3b".into())],
                removed: vec!["L0x4".into()],
            }),
            Message::Fin,
            Message::Done(DoneMsg {
                blocks: 5,
                events: 400,
                icount: 1990,
                updates: 5,
                converged_at: 3,
                tolerated_events: 0,
                dangling_frames: 0,
                markers_text: "markers v1\n".into(),
            }),
            Message::Err {
                code: ErrCode::SequenceGap,
                detail: "expected 3, got 9".into(),
            },
        ];
        for msg in msgs {
            let bytes = encode_message(&msg);
            let back = read_message(&mut &bytes[..]).unwrap();
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn chunked_blocks_cover_the_stream_and_decode_back() {
        let evs = events();
        for budget in [16usize, 64, 1024, 1 << 20] {
            let blocks = chunk_events(&evs, budget);
            let mut seq = 0u64;
            let mut all = Vec::new();
            for b in &blocks {
                assert_eq!(b.meta.first_seq, seq);
                seq = b.meta.end_seq();
                all.extend(b.decode_events().unwrap());
            }
            assert_eq!(all, evs, "budget {budget}");
        }
    }

    #[test]
    fn corrupted_block_payload_is_a_checksum_mismatch() {
        let block = chunk_events(&events(), 1 << 20).remove(0);
        let mut bytes = encode_message(&Message::Block(block));
        // Flip one payload byte past the store frame header; both the
        // outer message checksum and (if patched) the inner store-frame
        // checksum protect it. Patch the outer checksum to isolate the
        // inner one.
        let victim = 5 + FRAME_LEN + 3;
        bytes[victim] ^= 0x40;
        let payload_len = u32::from_le_bytes([bytes[1], bytes[2], bytes[3], bytes[4]]) as usize;
        let fixed = fnv1a64(&bytes[5..5 + payload_len]);
        let at = 5 + payload_len;
        bytes[at..at + 8].copy_from_slice(&fixed.to_le_bytes());
        match read_message(&mut &bytes[..]) {
            Err(ServeError::Proto(ProtoError::ChecksumMismatch { .. })) => {}
            other => panic!("expected inner checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn truncated_frame_is_typed() {
        let bytes = encode_message(&Message::Hello { name: "x".into() });
        for cut in 1..bytes.len() {
            let err = read_message(&mut &bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    ServeError::Proto(ProtoError::Truncated) | ServeError::Io { .. }
                ),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn hostile_session_names_are_rejected_at_decode() {
        for bad in [
            "../escape",
            "a/b",
            "a\\b",
            ".hidden",
            "..",
            "has space",
            "nul\u{0}",
        ] {
            let bytes = encode_message(&Message::Hello { name: bad.into() });
            match read_message(&mut &bytes[..]) {
                Err(ServeError::Proto(ProtoError::BadFrame { .. })) => {}
                other => panic!("name {bad:?}: expected BadFrame, got {other:?}"),
            }
        }
        for good in ["w", "gzip-2", "a.b_c-9", "x..y"] {
            let bytes = encode_message(&Message::Hello { name: good.into() });
            assert!(read_message(&mut &bytes[..]).is_ok(), "{good} must pass");
        }
    }

    #[test]
    fn wrong_version_hello_is_typed() {
        let mut payload = Vec::new();
        payload.extend_from_slice(b"spmsrv99");
        push_str(&mut payload, "s");
        let bytes = framed(tag::HELLO, &payload);
        match read_message(&mut &bytes[..]) {
            Err(ServeError::Proto(ProtoError::UnsupportedVersion { found })) => {
                assert_eq!(&found, b"99");
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut bytes = vec![tag::FIN];
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        match read_message(&mut &bytes[..]) {
            Err(ServeError::Proto(ProtoError::TooLarge { .. })) => {}
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    /// Frames `payload` under `tag` with a valid length and checksum, so
    /// decoding reaches the per-message payload parser.
    fn framed(tag_byte: u8, payload: &[u8]) -> Vec<u8> {
        let mut bytes = vec![tag_byte];
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(payload);
        bytes.extend_from_slice(&fnv1a64(payload).to_le_bytes());
        bytes
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arbitrary bytes, raw or under a valid frame header and
        /// checksum, decode to a message or a typed error.
        #[test]
        fn arbitrary_bytes_decode_or_fail_typed(
            bytes in vec(any::<u8>(), 0..96),
            tag_byte in 0u8..12,
        ) {
            for input in [bytes.clone(), framed(tag_byte, &bytes)] {
                match read_message(&mut &input[..]) {
                    Ok(_) | Err(ServeError::Proto(_)) | Err(ServeError::Io { .. }) => {}
                    Err(other) => prop_assert!(false, "untyped decode failure: {other:?}"),
                }
            }
        }

        /// Any block header over any payload — arbitrary bytes or a
        /// genuine encoded block — that passes the frame checksums
        /// decodes to exactly the declared events or fails `BadFrame`.
        #[test]
        fn arbitrary_block_meta_decodes_or_is_a_bad_frame(
            declared in any::<u32>(),
            start_icount in any::<u64>(),
            end_icount in any::<u64>(),
            junk in vec(any::<u8>(), 0..64),
            genuine in any::<bool>(),
        ) {
            let payload = if genuine {
                chunk_events(&events(), 1 << 20).remove(0).payload
            } else {
                junk
            };
            let meta = BlockMeta {
                offset: 0,
                first_seq: 0,
                start_icount,
                end_icount,
                events: declared,
                payload_len: payload.len() as u32,
            };
            let bytes = encode_message(&Message::Block(WireBlock { meta, payload }));
            let Ok(Message::Block(block)) = read_message(&mut &bytes[..]) else {
                return Err(TestCaseError("a checksummed BLOCK must frame-decode".into()));
            };
            match block.decode_events() {
                Ok(decoded) => prop_assert_eq!(decoded.len() as u64, u64::from(declared)),
                Err(ProtoError::BadFrame { .. }) => {}
                Err(other) => prop_assert!(false, "expected BadFrame, got {other:?}"),
            }
        }
    }
}
