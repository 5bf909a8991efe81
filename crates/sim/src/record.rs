//! The trace event codec.
//!
//! ATOM-style workflows separate *instrumentation* from *analysis*: one
//! expensive instrumented run produces a trace, then any number of
//! analyses replay it. This module is the byte encoding of that trace's
//! event stream — one tag byte per event followed by LEB128 varints,
//! with instruction counts delta-encoded — shared by every container
//! and wire format that carries events: the `spm-store` block container
//! (`spmstk01`, the on-disk trace) and the `spm-serve` wire protocol,
//! whose block frames are store payloads.
//!
//! [`encode_event`] and [`decode_event`] are exact inverses, so a
//! replayed stream reproduces byte-for-byte the observations the live
//! run made. [`decode_events`] decodes a whole buffer (one store block)
//! the same way, faster: it reads most events from a fixed 32-byte
//! window without per-byte branches and hands everything else to
//! [`decode_event`], the checked reference. Decoding is total: malformed
//! bytes yield a typed [`DecodeError`] naming the failure and its byte
//! offset, never a panic. Integrity checks (checksums, lengths,
//! recovery) belong to the container, which reports its failures
//! through the same [`DecodeError`].
//!
//! # Examples
//!
//! ```
//! use spm_ir::{Input, ProgramBuilder, Trip};
//! use spm_sim::record::{decode_events, encode_event};
//! use spm_sim::{run, TraceEvent};
//!
//! let mut b = ProgramBuilder::new("t");
//! b.proc("main", |p| {
//!     p.loop_(Trip::Fixed(10), |body| {
//!         body.block(50).done();
//!     });
//! });
//! let program = b.build("main").unwrap();
//! let mut live: Vec<(u64, TraceEvent)> = Vec::new();
//! run(&program, &Input::new("x", 1), &mut [&mut live]).unwrap();
//!
//! // Encode with delta-coded instruction counts...
//! let mut bytes = Vec::new();
//! let mut last = 0;
//! for (icount, event) in &live {
//!     encode_event(&mut bytes, icount - last, event);
//!     last = *icount;
//! }
//!
//! // ...and decode the identical stream back.
//! let mut replayed = Vec::new();
//! let end = decode_events(&bytes, 0, &mut replayed).unwrap();
//! assert_eq!(replayed, live);
//! assert_eq!(end, last);
//! ```

use crate::events::TraceEvent;
use spm_ir::{BlockId, BranchId, LoopId, ProcId};
use std::fmt;

/// Event tag bytes (stable encoding).
mod tag {
    pub const BLOCK: u8 = 1;
    pub const MEM_READ: u8 = 2;
    pub const MEM_WRITE: u8 = 3;
    pub const BRANCH_TAKEN: u8 = 4;
    pub const BRANCH_NOT: u8 = 5;
    pub const CALL: u8 = 6;
    pub const RETURN: u8 = 7;
    pub const LOOP_ENTER: u8 = 8;
    pub const LOOP_ITER: u8 = 9;
    pub const LOOP_EXIT: u8 = 10;
    pub const FINISH: u8 = 11;
}

/// Appends a LEB128 varint to `out` (the integer encoding of the event
/// codec, also used by the `spm-store` block container's own fields).
pub fn push_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads a LEB128 varint at `*pos`, advancing it; inverse of
/// [`push_varint`].
///
/// Only canonical (minimal-length) encodings are accepted: a multi-byte
/// encoding ending in a zero byte carries no information in its last
/// group and is rejected as [`DecodeError::NonCanonical`], and a tenth
/// byte with any bit above the 64th set is an [`DecodeError::Overflow`]
/// rather than a silent truncation. This makes `encode(decode(x))`
/// byte-identical for every accepted input. The one- and two-byte
/// shapes — deltas and interned ids, the overwhelming majority of trace
/// varints — decode without entering the loop.
pub fn read_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, DecodeError> {
    let at = *pos;
    if let Some(&b0) = bytes.get(at) {
        if b0 & 0x80 == 0 {
            *pos = at + 1;
            return Ok(u64::from(b0));
        }
        if let Some(&b1) = bytes.get(at + 1) {
            if b1 & 0x80 == 0 {
                *pos = at + 2;
                if b1 == 0 {
                    return Err(DecodeError::NonCanonical { offset: at + 1 });
                }
                return Ok(u64::from(b0 & 0x7f) | (u64::from(b1) << 7));
            }
        }
    }
    read_varint_scalar(bytes, pos)
}

/// The byte-at-a-time reference decoder: the checked tail of
/// [`read_varint`], and the specification its fast cases are
/// differential-tested against.
fn read_varint_scalar(bytes: &[u8], pos: &mut usize) -> Result<u64, DecodeError> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let at = *pos;
        let &byte = bytes.get(at).ok_or(DecodeError::Truncated { offset: at })?;
        *pos += 1;
        if shift >= 64 {
            return Err(DecodeError::Overflow { offset: at });
        }
        let group = byte & 0x7f;
        if shift == 63 && group > 1 {
            // The 10th byte may only contribute the 64th bit.
            return Err(DecodeError::Overflow { offset: at });
        }
        value |= u64::from(group) << shift;
        if byte & 0x80 == 0 {
            if group == 0 && shift != 0 {
                return Err(DecodeError::NonCanonical { offset: at });
            }
            return Ok(value);
        }
        shift += 7;
    }
}

/// Errors while decoding a recorded trace: malformed event bytes from
/// the codec, and container-level integrity failures from `spm-store`.
/// Offsets are byte positions within the decoded buffer, so reports
/// localize the corruption.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The byte stream ended inside an event (or inside a container
    /// structure).
    Truncated {
        /// Byte offset where the stream ended.
        offset: usize,
    },
    /// A varint exceeded 64 bits, or an accumulated instruction count
    /// overflowed.
    Overflow {
        /// Byte offset of the offending encoding.
        offset: usize,
    },
    /// A varint used more bytes than its value needs (a zero-padded,
    /// over-long encoding). The canonical encoder never emits these, so
    /// accepting them would break `encode(decode(x))` byte-identity.
    NonCanonical {
        /// Byte offset of the redundant final byte.
        offset: usize,
    },
    /// An unknown event tag was found.
    BadTag {
        /// The tag byte.
        tag: u8,
        /// Byte offset of the tag.
        offset: usize,
    },
    /// The file did not begin with the `spmstk` store magic bytes.
    BadMagic,
    /// The store magic matched but the version digits are unknown.
    UnsupportedVersion {
        /// The two version bytes found after the magic prefix.
        version: [u8; 2],
    },
    /// A declared length does not match the bytes present (a truncated
    /// or padded block, index, or compressed payload).
    LengthMismatch {
        /// Length the container declares.
        declared: u64,
        /// Bytes actually present.
        actual: u64,
    },
    /// A block or index checksum does not match the one its frame or
    /// footer declares (bit corruption).
    ChecksumMismatch {
        /// Checksum the container declares.
        expected: u64,
        /// Checksum of the bytes as read.
        actual: u64,
    },
    /// A block payload decoded cleanly but to a different number of
    /// events than its frame declares.
    EventCountMismatch {
        /// Event count the container declares.
        declared: u64,
        /// Events actually decoded.
        actual: u64,
    },
    /// A block payload decoded cleanly but ended at a different
    /// instruction count than its frame's end watermark declares.
    IcountMismatch {
        /// End instruction count the container declares.
        declared: u64,
        /// Instruction count after the last decoded event.
        actual: u64,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated { offset } => {
                write!(f, "trace truncated mid-event at byte {offset}")
            }
            DecodeError::Overflow { offset } => {
                write!(f, "varint overflows 64 bits at byte {offset}")
            }
            DecodeError::NonCanonical { offset } => {
                write!(f, "non-canonical (over-long) varint ends at byte {offset}")
            }
            DecodeError::BadTag { tag, offset } => {
                write!(f, "unknown event tag {tag} at byte {offset}")
            }
            DecodeError::BadMagic => write!(f, "not an spmstk01 trace store (bad magic)"),
            DecodeError::UnsupportedVersion { version } => write!(
                f,
                "unsupported store version `spmstk{}{}` (this build reads spmstk01)",
                version[0] as char, version[1] as char
            ),
            DecodeError::LengthMismatch { declared, actual } => write!(
                f,
                "length mismatch: container declares {declared} bytes, found {actual}"
            ),
            DecodeError::ChecksumMismatch { expected, actual } => write!(
                f,
                "checksum mismatch: container declares {expected:#018x}, computed {actual:#018x}"
            ),
            DecodeError::EventCountMismatch { declared, actual } => write!(
                f,
                "event count mismatch: container declares {declared} events, decoded {actual}"
            ),
            DecodeError::IcountMismatch { declared, actual } => write!(
                f,
                "instruction count mismatch: container declares end icount {declared}, decoded {actual}"
            ),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Appends one event (tag byte + varint-encoded payload, instruction
/// count delta-encoded as `delta`) to `out`.
///
/// This is *the* event encoding: the `spm-store` block writer and the
/// `spm-serve` wire client both call it, so a store block payload and a
/// served block carry identical bytes. Inverse of [`decode_event`].
pub fn encode_event(out: &mut Vec<u8>, delta: u64, event: &TraceEvent) {
    match *event {
        TraceEvent::BlockExec {
            block,
            instrs,
            base_cpi,
        } => {
            out.push(tag::BLOCK);
            push_varint(out, delta);
            push_varint(out, u64::from(block.0));
            push_varint(out, u64::from(instrs));
            out.extend_from_slice(&base_cpi.to_le_bytes());
        }
        TraceEvent::MemAccess { addr, write } => {
            out.push(if write { tag::MEM_WRITE } else { tag::MEM_READ });
            push_varint(out, delta);
            push_varint(out, addr);
        }
        TraceEvent::Branch { branch, taken } => {
            out.push(if taken {
                tag::BRANCH_TAKEN
            } else {
                tag::BRANCH_NOT
            });
            push_varint(out, delta);
            push_varint(out, u64::from(branch.0));
        }
        TraceEvent::Call { proc } => {
            out.push(tag::CALL);
            push_varint(out, delta);
            push_varint(out, u64::from(proc.0));
        }
        TraceEvent::Return { proc } => {
            out.push(tag::RETURN);
            push_varint(out, delta);
            push_varint(out, u64::from(proc.0));
        }
        TraceEvent::LoopEnter { loop_id } => {
            out.push(tag::LOOP_ENTER);
            push_varint(out, delta);
            push_varint(out, u64::from(loop_id.0));
        }
        TraceEvent::LoopIter { loop_id } => {
            out.push(tag::LOOP_ITER);
            push_varint(out, delta);
            push_varint(out, u64::from(loop_id.0));
        }
        TraceEvent::LoopExit { loop_id } => {
            out.push(tag::LOOP_EXIT);
            push_varint(out, delta);
            push_varint(out, u64::from(loop_id.0));
        }
        TraceEvent::Finish => {
            out.push(tag::FINISH);
            push_varint(out, delta);
        }
    }
}

fn read_id(bytes: &[u8], pos: &mut usize) -> Result<u32, DecodeError> {
    let at = *pos;
    let v = read_varint(bytes, pos)?;
    u32::try_from(v).map_err(|_| DecodeError::Overflow { offset: at })
}

/// Decodes one event at `*pos`, advancing `*pos` past it. Returns the
/// instruction-count delta and the event; inverse of [`encode_event`].
pub fn decode_event(bytes: &[u8], pos: &mut usize) -> Result<(u64, TraceEvent), DecodeError> {
    let tag_at = *pos;
    let &tag_byte = bytes
        .get(tag_at)
        .ok_or(DecodeError::Truncated { offset: tag_at })?;
    *pos += 1;
    let delta = read_varint(bytes, pos)?;
    let event = match tag_byte {
        tag::BLOCK => {
            let block = BlockId(read_id(bytes, pos)?);
            let instrs = read_id(bytes, pos)?;
            let slice = bytes.get(*pos..*pos + 8).ok_or(DecodeError::Truncated {
                offset: bytes.len(),
            })?;
            let mut raw = [0u8; 8];
            raw.copy_from_slice(slice);
            *pos += 8;
            TraceEvent::BlockExec {
                block,
                instrs,
                base_cpi: f64::from_le_bytes(raw),
            }
        }
        tag::MEM_READ => TraceEvent::MemAccess {
            addr: read_varint(bytes, pos)?,
            write: false,
        },
        tag::MEM_WRITE => TraceEvent::MemAccess {
            addr: read_varint(bytes, pos)?,
            write: true,
        },
        tag::BRANCH_TAKEN => TraceEvent::Branch {
            branch: BranchId(read_id(bytes, pos)?),
            taken: true,
        },
        tag::BRANCH_NOT => TraceEvent::Branch {
            branch: BranchId(read_id(bytes, pos)?),
            taken: false,
        },
        tag::CALL => TraceEvent::Call {
            proc: ProcId(read_id(bytes, pos)?),
        },
        tag::RETURN => TraceEvent::Return {
            proc: ProcId(read_id(bytes, pos)?),
        },
        tag::LOOP_ENTER => TraceEvent::LoopEnter {
            loop_id: LoopId(read_id(bytes, pos)?),
        },
        tag::LOOP_ITER => TraceEvent::LoopIter {
            loop_id: LoopId(read_id(bytes, pos)?),
        },
        tag::LOOP_EXIT => TraceEvent::LoopExit {
            loop_id: LoopId(read_id(bytes, pos)?),
        },
        tag::FINISH => TraceEvent::Finish,
        other => {
            return Err(DecodeError::BadTag {
                tag: other,
                offset: tag_at,
            })
        }
    };
    Ok((delta, event))
}

/// Bytes the block decoder's fast path reads per event. The longest
/// event it accepts is a `BlockExec` with an 8-byte delta, two 5-byte
/// ids and the 8-byte CPI (27 bytes), so every 8-byte word it loads —
/// a varint or the CPI — lies inside the window.
const WINDOW: usize = 32;

/// Reads the varint at `at` in `window` as one 8-byte little-endian
/// word: the stop byte is the lowest one with its continuation bit
/// clear (`trailing_zeros`), and the 7-bit groups fold together in
/// three mask/shift steps. Returns the value and its byte length, or
/// `None` for what only the checked decoder may judge: an encoding
/// longer than 8 bytes, or a non-canonical one (a multi-byte encoding
/// whose last byte is zero).
///
/// A one-byte varint — nearly every delta and interned id — returns
/// before the fold. That test is one branch per varint, never per
/// byte, and each call site's outcome repeats with the trace's loop
/// structure, so it predicts well; it halves the decode time of a
/// typical trace, whose events are mostly a one-byte delta and a
/// multi-byte address.
#[inline(always)]
fn window_varint(window: &[u8; WINDOW], at: usize) -> Option<(u64, usize)> {
    let word = u64::from_le_bytes(*window.get(at..)?.first_chunk::<8>()?);
    if word & 0x80 == 0 {
        return Some((word & 0x7f, 1));
    }
    let stops = !word & 0x8080_8080_8080_8080;
    let len = (stops.trailing_zeros() as usize + 1) / 8;
    // The varint's bytes, through the stop byte, without their
    // continuation bits: group k sits at bits 8k..8k+7.
    let groups = word & (stops ^ stops.wrapping_sub(1)) & 0x7f7f_7f7f_7f7f_7f7f;
    // Declined: no stop byte in the word, or a multi-byte encoding
    // whose stop byte is zero.
    if (stops == 0) | (groups >> (8 * (len - 1)) == 0) {
        return None;
    }
    let x = (groups & 0x007f_007f_007f_007f) | ((groups & 0x7f00_7f00_7f00_7f00) >> 1);
    let x = (x & 0x0000_3fff_0000_3fff) | ((x & 0x3fff_0000_3fff_0000) >> 2);
    let x = (x & 0x0000_0000_0fff_ffff) | ((x & 0x0fff_ffff_0000_0000) >> 4);
    Some((x, len))
}

/// [`window_varint`] for an interned id; `None` above `u32::MAX`.
#[inline(always)]
fn window_id(window: &[u8; WINDOW], at: usize) -> Option<(u32, usize)> {
    let (value, len) = window_varint(window, at)?;
    Some((u32::try_from(value).ok()?, len))
}

/// Decodes the event opening `window`: its delta, the event, and its
/// byte length. `None` declines the event (an unknown tag, or a varint
/// [`window_varint`] declines, or an id above `u32::MAX`), and the
/// caller decodes it with [`decode_event`] instead — so this path never
/// decides an error, and what it accepts is exactly what
/// [`decode_event`] returns for the same bytes.
#[inline(always)]
fn decode_window(window: &[u8; WINDOW]) -> Option<(u64, TraceEvent, usize)> {
    let tag_byte = window[0];
    let (delta, len) = window_varint(window, 1)?;
    let at = 1 + len;
    let (event, end) = match tag_byte {
        tag::BLOCK => {
            let (block, len) = window_id(window, at)?;
            let (instrs, len2) = window_id(window, at + len)?;
            let cpi_at = at + len + len2;
            let cpi = *window.get(cpi_at..)?.first_chunk::<8>()?;
            let event = TraceEvent::BlockExec {
                block: BlockId(block),
                instrs,
                base_cpi: f64::from_le_bytes(cpi),
            };
            (event, cpi_at + 8)
        }
        tag::MEM_READ | tag::MEM_WRITE => {
            let (addr, len) = window_varint(window, at)?;
            let write = tag_byte == tag::MEM_WRITE;
            (TraceEvent::MemAccess { addr, write }, at + len)
        }
        tag::BRANCH_TAKEN..=tag::LOOP_EXIT => {
            let (id, len) = window_id(window, at)?;
            let event = match tag_byte {
                tag::BRANCH_TAKEN => TraceEvent::Branch {
                    branch: BranchId(id),
                    taken: true,
                },
                tag::BRANCH_NOT => TraceEvent::Branch {
                    branch: BranchId(id),
                    taken: false,
                },
                tag::CALL => TraceEvent::Call { proc: ProcId(id) },
                tag::RETURN => TraceEvent::Return { proc: ProcId(id) },
                tag::LOOP_ENTER => TraceEvent::LoopEnter {
                    loop_id: LoopId(id),
                },
                tag::LOOP_ITER => TraceEvent::LoopIter {
                    loop_id: LoopId(id),
                },
                _ => TraceEvent::LoopExit {
                    loop_id: LoopId(id),
                },
            };
            (event, at + len)
        }
        tag::FINISH => (TraceEvent::Finish, at),
        _ => return None,
    };
    Some((delta, event, end))
}

/// Decodes every event in `bytes`, appending `(icount, event)` pairs to
/// `out` with instruction counts accumulated from `start_icount`, and
/// returns the instruction count after the last event. This is the
/// block decoder of every container that carries events.
///
/// While at least 32 bytes remain, each event is read from a fixed
/// window with no per-byte branches; the last bytes of the buffer, and
/// any event the window declines (see `decode_window`), go through
/// [`decode_event`] from the same position. The result — every value,
/// and on malformed input the error variant and its offset — is
/// exactly that of calling [`decode_event`] in a loop, where an
/// instruction count that overflows `u64` is a
/// [`DecodeError::Overflow`] at the event's tag byte. On error, `out`
/// keeps the events decoded before it.
///
/// # Errors
///
/// The first [`DecodeError`] in `bytes`.
pub fn decode_events(
    bytes: &[u8],
    start_icount: u64,
    out: &mut Vec<(u64, TraceEvent)>,
) -> Result<u64, DecodeError> {
    let mut pos = 0usize;
    let mut icount = start_icount;
    while pos < bytes.len() {
        let at = pos;
        let windowed = bytes
            .get(at..)
            .and_then(<[u8]>::first_chunk::<WINDOW>)
            .and_then(decode_window);
        let (delta, event) = match windowed {
            Some((delta, event, len)) => {
                pos = at + len;
                (delta, event)
            }
            None => {
                // A separate cursor, so `pos` itself never has its
                // address taken and stays in a register.
                let mut next = at;
                let decoded = decode_event(bytes, &mut next)?;
                pos = next;
                decoded
            }
        };
        icount = icount
            .checked_add(delta)
            .ok_or(DecodeError::Overflow { offset: at })?;
        out.push((icount, event));
    }
    Ok(icount)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run;
    use proptest::prelude::*;
    use spm_ir::{Input, ProgramBuilder, Trip};

    fn sample_program() -> spm_ir::Program {
        let mut b = ProgramBuilder::new("t");
        let r = b.region_bytes("d", 1 << 14);
        b.proc("main", |p| {
            p.loop_(Trip::Fixed(20), |outer| {
                outer.block(30).rand_read(r, 2).seq_write(r, 1).done();
                outer.if_prob(0.5, |t| t.call("f"), |_| {});
            });
        });
        b.proc("f", |p| p.block(7).done());
        b.build("main").unwrap()
    }

    fn live_events(seed: u64) -> Vec<(u64, TraceEvent)> {
        let mut tape = Vec::new();
        run(&sample_program(), &Input::new("x", seed), &mut [&mut tape]).unwrap();
        tape
    }

    /// Encodes a stream with delta-coded instruction counts, the way a
    /// store block holding the whole stream would.
    fn encode_all(events: &[(u64, TraceEvent)]) -> Vec<u8> {
        let mut out = Vec::new();
        let mut last = 0;
        for (icount, event) in events {
            encode_event(&mut out, icount - last, event);
            last = *icount;
        }
        out
    }

    /// Decodes a whole buffer back into `(icount, event)` pairs.
    fn decode_all(bytes: &[u8]) -> Result<Vec<(u64, TraceEvent)>, DecodeError> {
        let mut out = Vec::new();
        decode_events(bytes, 0, &mut out)?;
        Ok(out)
    }

    /// The specification of [`decode_events`]: [`decode_event`] called
    /// in a loop. Returns the events decoded and, after them, the end
    /// instruction count or the first error.
    fn decode_reference(
        bytes: &[u8],
        start_icount: u64,
    ) -> (Vec<(u64, TraceEvent)>, Result<u64, DecodeError>) {
        let mut pos = 0;
        let mut icount = start_icount;
        let mut out = Vec::new();
        while pos < bytes.len() {
            let at = pos;
            let step = decode_event(bytes, &mut pos).and_then(|(delta, event)| {
                let next = icount
                    .checked_add(delta)
                    .ok_or(DecodeError::Overflow { offset: at })?;
                Ok((next, event))
            });
            match step {
                Ok((next, event)) => {
                    icount = next;
                    out.push((icount, event));
                }
                Err(e) => return (out, Err(e)),
            }
        }
        (out, Ok(icount))
    }

    /// [`decode_events`] in the shape of [`decode_reference`].
    fn decode_fast(
        bytes: &[u8],
        start_icount: u64,
    ) -> (Vec<(u64, TraceEvent)>, Result<u64, DecodeError>) {
        let mut out = Vec::new();
        let end = decode_events(bytes, start_icount, &mut out);
        (out, end)
    }

    /// Random bytes biased toward what the window decoder must judge:
    /// valid and just-invalid tags, continuation bytes, zero (the
    /// non-canonical last byte) and `0x7f`/`0x0f` (ids just under and
    /// over `u32::MAX` in five bytes).
    fn codec_bytes() -> impl Strategy<Value = Vec<u8>> {
        // Repeated arms weight tags and continuation bytes double.
        let byte = prop_oneof![
            0u8..=12,
            0u8..=12,
            0x80u8..=0xff,
            0x80u8..=0xff,
            Just(0x80u8),
            Just(0u8),
            Just(0x0fu8),
            Just(0x7fu8),
            any::<u8>(),
        ];
        proptest::collection::vec(byte, 0..=200)
    }

    #[test]
    fn codec_reproduces_live_events_exactly() {
        let live = live_events(77);
        assert_eq!(decode_all(&encode_all(&live)), Ok(live));
    }

    #[test]
    fn encoding_is_compact() {
        let live = live_events(1);
        let per_event = encode_all(&live).len() as f64 / live.len() as f64;
        assert!(per_event < 8.0, "{per_event} bytes/event is too fat");
    }

    #[test]
    fn decode_errors_carry_offsets() {
        let mut pos = 0;
        assert_eq!(
            decode_event(&[99, 0], &mut pos),
            Err(DecodeError::BadTag { tag: 99, offset: 0 })
        );
        assert_eq!(
            decode_all(&[tag::BLOCK, 0]),
            Err(DecodeError::Truncated { offset: 2 })
        );
        // Varint overflow: the 10th continuation byte carries bits past
        // 2^64, caught on that byte rather than one later.
        let mut over = vec![tag::FINISH];
        over.extend([0xff; 10]);
        over.push(0x01);
        assert_eq!(decode_all(&over), Err(DecodeError::Overflow { offset: 10 }));
        // Non-canonical: a zero-padded (over-long) delta encoding.
        assert_eq!(
            decode_all(&[tag::FINISH, 0x80, 0x00]),
            Err(DecodeError::NonCanonical { offset: 2 })
        );
        // Errors are located past a valid prefix, not from zero.
        let mut tail = encode_all(&live_events(2));
        let len = tail.len();
        tail.extend([42, 0]); // unknown tag, delta 0
        assert_eq!(
            decode_all(&tail),
            Err(DecodeError::BadTag {
                tag: 42,
                offset: len
            })
        );
    }

    #[test]
    fn varint_boundary_encodings() {
        // u64::MAX is the longest canonical varint: nine 0xff bytes and
        // a final 0x01 contributing only the 64th bit.
        let mut bytes = Vec::new();
        push_varint(&mut bytes, u64::MAX);
        assert_eq!(bytes, [[0xff; 9].as_slice(), &[0x01]].concat());
        let mut pos = 0;
        assert_eq!(read_varint(&bytes, &mut pos), Ok(u64::MAX));
        assert_eq!(pos, 10);
        // A 10th byte with any higher bit set overflows.
        let over = [[0xff; 9].as_slice(), &[0x02]].concat();
        let mut pos = 0;
        assert_eq!(
            read_varint(&over, &mut pos),
            Err(DecodeError::Overflow { offset: 9 })
        );
        // Over-long encodings of small values are rejected at the
        // redundant final byte, at every length.
        for len in 2..=10usize {
            let mut padded = vec![0x81u8]; // canonical alone would be [0x01]
            padded.extend(vec![0x80u8; len - 2]);
            padded.push(0x00);
            let mut pos = 0;
            assert_eq!(
                read_varint(&padded, &mut pos),
                Err(DecodeError::NonCanonical { offset: len - 1 }),
                "length {len}"
            );
        }
    }

    #[test]
    fn empty_buffer_decodes_zero_events() {
        assert_eq!(decode_all(&[]), Ok(Vec::new()));
        assert_eq!(decode_events(&[], 42, &mut Vec::new()), Ok(42));
    }

    #[test]
    fn window_decodes_every_event_of_a_live_stream() {
        // Not a correctness requirement — declined events decode through
        // the reference — but the fast path must actually carry the
        // stream: every event with a full window behind it is taken.
        let bytes = encode_all(&live_events(5));
        let (mut pos, mut windowed) = (0, 0);
        while let Some(window) = bytes.get(pos..).and_then(<[u8]>::first_chunk::<WINDOW>) {
            let mut next = pos;
            let expected = decode_event(&bytes, &mut next).unwrap();
            let (delta, event, len) = decode_window(window).expect("window declined");
            assert_eq!((delta, event), expected, "at byte {pos}");
            assert_eq!(pos + len, next, "at byte {pos}");
            pos = next;
            windowed += 1;
        }
        assert!(windowed > 100, "{windowed} events");
    }

    #[test]
    fn window_declines_what_only_the_reference_may_judge() {
        fn window(bytes: &[u8]) -> [u8; WINDOW] {
            let mut w = [0u8; WINDOW];
            w[..bytes.len()].copy_from_slice(bytes);
            w
        }
        // A 9-byte delta, a non-canonical delta, an id of 2^32, an
        // unknown tag: each is declined, never decided.
        let nine = [[tag::FINISH].as_slice(), &[0x81; 8], &[0x01]].concat();
        assert_eq!(decode_window(&window(&nine)), None);
        assert_eq!(decode_window(&window(&[tag::FINISH, 0x80, 0x00])), None);
        let big_id = [tag::CALL, 0, 0x80, 0x80, 0x80, 0x80, 0x10];
        assert_eq!(decode_window(&window(&big_id)), None);
        assert_eq!(decode_window(&window(&[12, 0])), None);
        // ...while the largest id and an 8-byte delta are accepted.
        let max_id = [
            [tag::CALL].as_slice(),
            &[0xff; 7],
            &[0x7f],
            &[0xff; 4],
            &[0x0f],
        ]
        .concat();
        assert_eq!(
            decode_window(&window(&max_id)),
            Some((
                (1 << 56) - 1,
                TraceEvent::Call {
                    proc: ProcId(u32::MAX)
                },
                14
            ))
        );
    }

    proptest! {
        #[test]
        fn varints_round_trip(values in proptest::collection::vec(any::<u64>(), 0..50)) {
            let mut bytes = Vec::new();
            for &v in &values {
                push_varint(&mut bytes, v);
            }
            let mut pos = 0;
            for &v in &values {
                prop_assert_eq!(read_varint(&bytes, &mut pos), Ok(v));
            }
            prop_assert_eq!(pos, bytes.len());
        }

        #[test]
        fn fast_varint_matches_scalar_reference(bytes in proptest::collection::vec(any::<u8>(), 0..24)) {
            // The unrolled fast cases must agree with the byte-at-a-time
            // reference decoder on every input: same value and same
            // final position on success, same error (variant AND offset)
            // on malformed prefixes.
            let mut fast_pos = 0;
            let mut slow_pos = 0;
            let fast = read_varint(&bytes, &mut fast_pos);
            let slow = read_varint_scalar(&bytes, &mut slow_pos);
            prop_assert_eq!(fast, slow);
            if fast.is_ok() {
                prop_assert_eq!(fast_pos, slow_pos);
            }
        }

        #[test]
        fn decoded_varints_reencode_byte_identically(bytes in proptest::collection::vec(any::<u8>(), 0..24)) {
            // Canonical-only decoding makes encode(decode(x)) the
            // identity on accepted prefixes.
            let mut pos = 0;
            if let Ok(value) = read_varint(&bytes, &mut pos) {
                let mut reencoded = Vec::new();
                push_varint(&mut reencoded, value);
                prop_assert_eq!(&reencoded[..], &bytes[..pos]);
            }
        }

        #[test]
        fn codec_round_trips_for_random_seeds(seed in 0u64..500) {
            let live = live_events(seed);
            prop_assert_eq!(decode_all(&encode_all(&live)), Ok(live));
        }

        #[test]
        fn truncating_anywhere_never_panics(seed in 0u64..30, cut_frac in 0.0f64..1.0) {
            let live = live_events(seed);
            let bytes = encode_all(&live);
            let cut = ((bytes.len() as f64 * cut_frac) as usize).min(bytes.len());
            // A typed error inside the cut, or a clean decode of a
            // prefix of the true stream (the cut fell between events).
            match decode_all(&bytes[..cut]) {
                Ok(prefix) => prop_assert_eq!(&prefix[..], &live[..prefix.len()]),
                Err(e) => prop_assert!(
                    matches!(e, DecodeError::Truncated { offset } if offset <= cut),
                    "unexpected {e:?}"
                ),
            }
        }
    }

    proptest! {
        // Cheap cases, and the random-bytes one needs many to reach the
        // window's rare declines (9-byte varints, 5-byte ids over
        // `u32::MAX`) past a valid prefix.
        #![proptest_config(ProptestConfig::with_cases(1024))]

        #[test]
        fn block_decoder_matches_per_event_loop_on_cut_streams(
            seed in 0u64..200,
            cut_frac in 0.0f64..1.0,
            start in prop_oneof![Just(0u64), any::<u64>(), (u64::MAX - 4096)..=u64::MAX],
        ) {
            // Every value, the end icount, and on a cut mid-event the
            // error variant and offset, exactly as the reference loop.
            let bytes = encode_all(&live_events(seed));
            let cut = ((bytes.len() as f64 * cut_frac) as usize).min(bytes.len());
            prop_assert_eq!(decode_fast(&bytes[..cut], start), decode_reference(&bytes[..cut], start));
        }

        #[test]
        fn block_decoder_matches_per_event_loop_on_random_bytes(
            bytes in codec_bytes(),
            start in prop_oneof![Just(0u64), any::<u64>(), (u64::MAX - 4096)..=u64::MAX],
        ) {
            prop_assert_eq!(decode_fast(&bytes, start), decode_reference(&bytes, start));
        }
    }
}
