//! Replay: [`StoreReader`] opens an `spmstk01` container, verifies its
//! index, and replays events to observers in order, block by block.
//!
//! The reader parses one byte slice. [`StoreReader::open`] memory-maps
//! the file ([`crate::mmap`]), so block payloads are verified and
//! decoded directly from the page cache as zero-copy slices; only where
//! the platform or the kernel declines the mapping is the file read
//! whole instead. [`StoreReader::from_bytes`] parses bytes already in
//! memory. Every structure read — header, footer, index, recovery walk,
//! content key, replay — goes through the same bounds-checked block
//! accessor, so hostile bytes produce typed errors, never panics.

use crate::format::{
    fnv1a64, fnv1a64x4, BlockMeta, Compression, Footer, SyncPolicy, COMPRESSION_OFFSET, FOOTER_LEN,
    FRAME_LEN, HEADER_LEN, INDEX_ENTRY_LEN, MAGIC, MAGIC_PREFIX, SYNC_POLICY_OFFSET,
};
use crate::mmap::Mmap;
use crate::StoreError;
use spm_sim::record::{decode_events, DecodeError};
use spm_sim::{TraceEvent, TraceObserver};
use std::path::Path;

/// Blocks verified together by replay: their payload checksums run as
/// the interleaved lanes of one [`fnv1a64x4`] pass.
const LANES: usize = 4;

/// Container-level facts from the header and footer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreInfo {
    /// Blocks in the container.
    pub blocks: u64,
    /// Total events.
    pub events: u64,
    /// Instruction count after the last event.
    pub total_icount: u64,
    /// Writer's block budget in bytes.
    pub block_budget: u32,
    /// Static block-id space of the traced program (0 = unknown).
    pub block_dims: u32,
    /// Encoded payload bytes across all blocks.
    pub payload_bytes: u64,
    /// Container size in bytes.
    pub file_bytes: u64,
    /// Whether the index was rebuilt by walking block frames because
    /// the footer or index was unreadable (a truncated file).
    pub recovered_index: bool,
    /// The sync policy the writer recorded in the header (how much a
    /// crash was allowed to lose; files from older writers read as
    /// [`SyncPolicy::None`], which is what those writers did).
    pub sync_policy: SyncPolicy,
    /// Bytes past the last recovered block that recovery discarded
    /// (the torn tail). 0 for clean opens.
    pub recovered_tail_bytes: u64,
    /// The per-block payload codec recorded in the header (files from
    /// older writers read as [`Compression::None`], which is what those
    /// writers produced).
    pub compression: Compression,
}

/// One skipped block in a [`StoreReplayReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SkippedBlock {
    /// Index of the block in the container (0-based).
    pub block: u64,
    /// Events lost with it (from the verified index).
    pub events: u64,
    /// Why the block was undecodable.
    pub error: DecodeError,
}

/// `ReplayReport`-style summary of a (possibly degraded) store replay.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StoreReplayReport {
    /// Events decoded and delivered.
    pub events: u64,
    /// Blocks decoded and delivered.
    pub blocks: u64,
    /// Blocks skipped because their checksum or decode failed
    /// (delivery continued at the next block).
    pub skipped: Vec<SkippedBlock>,
}

impl StoreReplayReport {
    /// Whether every block was delivered.
    pub fn is_clean(&self) -> bool {
        self.skipped.is_empty()
    }

    /// Events lost in skipped blocks.
    pub fn skipped_events(&self) -> u64 {
        self.skipped.iter().map(|s| s.events).sum()
    }
}

/// Reads an `spmstk01` container held as one byte slice: a read-only
/// file mapping, or the whole file read into memory where mapping is
/// unavailable. The index is parsed once; payloads are verified and
/// decoded straight out of the slice, one block at a time.
#[derive(Debug)]
pub struct StoreReader {
    bytes: Bytes,
    index: Vec<BlockMeta>,
    info: StoreInfo,
}

/// The container's bytes.
#[derive(Debug)]
enum Bytes {
    Mapped(Mmap),
    Owned(Vec<u8>),
}

impl std::ops::Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match self {
            Bytes::Mapped(map) => map.as_slice(),
            Bytes::Owned(bytes) => bytes,
        }
    }
}

impl StoreReader {
    /// Opens a container file. The file is memory-mapped, so replay
    /// decodes payloads as zero-copy slices; where the platform or the
    /// kernel declines the mapping it is read whole instead, with
    /// identical results.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the file cannot be read, or
    /// [`StoreError::Corrupt`] if it is not a readable `spmstk01`
    /// container (see [`StoreReader::from_bytes`] for the recovery the
    /// reader attempts first).
    pub fn open(path: &Path) -> Result<Self, StoreError> {
        let io_err = |e: std::io::Error| StoreError::Io {
            message: e.to_string(),
        };
        let file = std::fs::File::open(path).map_err(io_err)?;
        let len = file.metadata().map(|m| m.len()).unwrap_or(0);
        let bytes = match Mmap::map(&file, len) {
            Some(map) => Bytes::Mapped(map),
            None => Bytes::Owned(std::fs::read(path).map_err(io_err)?),
        };
        Self::parse(bytes)
    }

    /// Opens a container held in memory, reading the header, footer,
    /// and index (verified against its checksum).
    ///
    /// A truncated or footer-corrupted container is not fatal: the
    /// reader falls back to walking block frames from the top and
    /// rebuilds the index from every frame that chains consistently, so
    /// the decodable prefix stays reachable ([`StoreInfo::recovered_index`]
    /// reports this).
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] if the head magic is wrong (not a store
    /// at all), the header is short, or the version or codec byte is
    /// unsupported.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, StoreError> {
        Self::parse(Bytes::Owned(bytes))
    }

    fn parse(bytes: Bytes) -> Result<Self, StoreError> {
        let corrupt = |error: DecodeError| StoreError::Corrupt { block: None, error };
        let data: &[u8] = &bytes;
        let file_bytes = data.len() as u64;
        let header = &data[..data.len().min(HEADER_LEN)];
        // Sniff the magic before the length, so a short file of some
        // other kind reads as "not a store" rather than a truncated one.
        let sniffed = header.len().min(MAGIC_PREFIX.len());
        if header[..sniffed] != MAGIC_PREFIX[..sniffed] {
            return Err(corrupt(DecodeError::BadMagic));
        }
        if header.len() < HEADER_LEN {
            return Err(corrupt(DecodeError::Truncated {
                offset: header.len(),
            }));
        }
        if &header[..8] != MAGIC {
            return Err(corrupt(DecodeError::UnsupportedVersion {
                version: [header[6], header[7]],
            }));
        }
        let block_budget = crate::format::read_u32_le(header, 8).map_err(corrupt)?;
        let sync_policy = SyncPolicy::from_header_byte(header[SYNC_POLICY_OFFSET]);
        // Unlike the sync byte (which only describes how the file was
        // written), an unknown codec byte cannot be defaulted: decoding
        // payloads under the wrong codec would yield garbage, so the
        // container is rejected as corrupt.
        let compression = Compression::from_header_byte(header[COMPRESSION_OFFSET]).ok_or(
            corrupt(DecodeError::BadTag {
                tag: header[COMPRESSION_OFFSET],
                offset: COMPRESSION_OFFSET,
            }),
        )?;

        let (index, events, total_icount, block_dims, recovered_tail) = match footer_index(data) {
            Ok((footer, index)) => (
                index,
                footer.total_events,
                footer.total_icount,
                footer.block_dims,
                None,
            ),
            Err(error) => {
                // Footer/index unreadable: rebuild what we can by
                // walking frames, and say so through the structured
                // stream (once per process and failure shape).
                spm_obs::warning(
                    "store/recovered-index",
                    &[("reason", error.to_string().into())],
                );
                let index = walk_frames(data);
                let last = index.last().copied();
                let committed_end = last.map_or(HEADER_LEN as u64, |m| {
                    m.offset + FRAME_LEN as u64 + u64::from(m.payload_len)
                });
                (
                    index,
                    last.map_or(0, |m| m.end_seq()),
                    last.map_or(0, |m| m.end_icount),
                    0,
                    Some(file_bytes.saturating_sub(committed_end)),
                )
            }
        };
        let info = StoreInfo {
            blocks: index.len() as u64,
            events,
            total_icount,
            block_budget,
            block_dims,
            payload_bytes: index.iter().map(|m| u64::from(m.payload_len)).sum(),
            file_bytes,
            recovered_index: recovered_tail.is_some(),
            sync_policy,
            recovered_tail_bytes: recovered_tail.unwrap_or(0),
            compression,
        };
        Ok(Self { bytes, index, info })
    }

    /// Container-level facts.
    pub fn info(&self) -> &StoreInfo {
        &self.info
    }

    /// The verified (or rebuilt) block index.
    pub fn index(&self) -> &[BlockMeta] {
        &self.index
    }

    /// The container's content key: FNV-1a-64 folded over the header,
    /// every block's frame bytes and payload checksum (recomputed over
    /// the stored bytes — for an intact container these are exactly the
    /// checksums the frames and footer already declare), and the
    /// committed totals. `spm info` prints it as `key=<16 hex digits>`,
    /// and `spm corpus` names ingested containers by it.
    ///
    /// The key identifies the *committed content*: two byte-identical
    /// containers key identically, any change to a block payload or
    /// frame produces a new key, and a container whose redundant
    /// footer/index was torn off keys the same as the clean prefix it
    /// recovers to.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] if an indexed block lies outside the
    /// container.
    pub fn content_key(&self) -> Result<u64, StoreError> {
        let data: &[u8] = &self.bytes;
        let mut acc: Vec<u8> =
            Vec::with_capacity(HEADER_LEN + self.index.len() * (FRAME_LEN + 8) + 16);
        // `parse` rejected anything shorter than a header.
        acc.extend_from_slice(&data[..HEADER_LEN]);
        for (block, meta) in self.index.iter().enumerate() {
            let (frame, payload) =
                block_bytes(data, *meta).map_err(|error| StoreError::Corrupt {
                    block: Some(block as u64),
                    error,
                })?;
            acc.extend_from_slice(frame);
            acc.extend_from_slice(&fnv1a64(payload).to_le_bytes());
        }
        acc.extend_from_slice(&self.info.events.to_le_bytes());
        acc.extend_from_slice(&self.info.total_icount.to_le_bytes());
        Ok(fnv1a64(&acc))
    }

    /// Replays every event to the observers in order, one block at a
    /// time (peak decode memory: one block's events). Undecodable
    /// blocks are skipped with a structured `store/skipped-block`
    /// warning; delivery resumes at the next block, whose metadata
    /// restores the sequence and instruction watermarks.
    ///
    /// # Errors
    ///
    /// None in practice: the container is already in memory, and
    /// corruption degrades to skips reported in the
    /// [`StoreReplayReport`].
    pub fn replay(
        &mut self,
        observers: &mut [&mut dyn TraceObserver],
    ) -> Result<StoreReplayReport, StoreError> {
        let mut span = spm_obs::span("store/replay");
        let mut report = StoreReplayReport::default();
        let compression = self.info.compression;
        let data: &[u8] = &self.bytes;
        // Blocks are verified `LANES` at a time, then each is decoded
        // and delivered in order; a block that fails its own check is
        // skipped alone. One arena is reused across every block:
        // decode allocates once for the whole replay, and delivery is
        // one `on_batch` call per observer per block.
        let mut arena: Vec<(u64, TraceEvent)> = Vec::new();
        for (group, metas) in (0u64..).step_by(LANES).zip(self.index.chunks(LANES)) {
            let verified = verified_payloads(data, metas);
            for ((block, &meta), payload) in (group..).zip(metas).zip(verified) {
                match payload
                    .and_then(|payload| decode_block_into(payload, meta, compression, &mut arena))
                {
                    Ok(()) => {
                        for obs in observers.iter_mut() {
                            obs.on_batch(&arena);
                        }
                        report.events += arena.len() as u64;
                        report.blocks += 1;
                    }
                    Err(error) => skip_block(&mut report, block, meta, error),
                }
            }
        }
        if span.is_live() {
            span.field("blocks", report.blocks);
            span.field("events", report.events);
            span.field("skipped_blocks", report.skipped.len() as u64);
            let secs = span.elapsed().as_secs_f64();
            if secs > 0.0 {
                spm_obs::gauge("store/replay_events_per_sec", report.events as f64 / secs);
            }
        }
        if !report.skipped.is_empty() {
            spm_obs::counter("store/skipped_blocks", report.skipped.len() as u64);
            spm_obs::counter("store/skipped_events", report.skipped_events());
        }
        Ok(report)
    }
}

/// Reads and verifies the footer and index. Every offset and length
/// the footer declares is untrusted (the footer has no checksum of its
/// own), so the arithmetic is checked: a footer that does not describe
/// exactly the bytes before it is a typed error, never a panic.
fn footer_index(data: &[u8]) -> Result<(Footer, Vec<BlockMeta>), StoreError> {
    let corrupt = |error: DecodeError| StoreError::Corrupt { block: None, error };
    let file_bytes = data.len() as u64;
    if data.len() < HEADER_LEN + FOOTER_LEN {
        return Err(corrupt(DecodeError::Truncated { offset: data.len() }));
    }
    let footer_at = data.len() - FOOTER_LEN;
    let footer = Footer::decode(&data[footer_at..]).map_err(corrupt)?;
    let index_bytes = footer
        .block_count
        .checked_mul(INDEX_ENTRY_LEN as u64)
        .and_then(|len| footer.index_offset.checked_add(len))
        .filter(|&end| footer.index_offset >= HEADER_LEN as u64 && end == footer_at as u64)
        .map(|_| &data[footer.index_offset as usize..footer_at])
        .ok_or_else(|| {
            corrupt(DecodeError::LengthMismatch {
                declared: footer.block_count,
                actual: file_bytes,
            })
        })?;
    let actual = fnv1a64(index_bytes);
    if actual != footer.index_checksum {
        return Err(corrupt(DecodeError::ChecksumMismatch {
            expected: footer.index_checksum,
            actual,
        }));
    }
    let index = index_bytes
        .chunks_exact(INDEX_ENTRY_LEN)
        .map(|entry| BlockMeta::decode_index_entry(entry, 0))
        .collect::<Result<Vec<_>, _>>()
        .map_err(corrupt)?;
    Ok((footer, index))
}

/// Fallback for containers without a readable footer: walk block
/// frames from the top, keeping every frame that chains consistently
/// (monotonic sequence numbers and watermarks) *and* whose payload
/// passes its checksum, and stop at the first frame that does not.
///
/// The checksum requirement is what makes recovery safe on a torn
/// tail: a partially written block never joins the rebuilt index, so a
/// recovered store surfaces no partial events and its reported totals
/// count only blocks replay will actually deliver.
fn walk_frames(data: &[u8]) -> Vec<BlockMeta> {
    let mut index = Vec::new();
    let mut offset = HEADER_LEN;
    let mut next_seq = 0u64;
    let mut next_icount = 0u64;
    while let Some(frame) = data.get(offset..offset + FRAME_LEN) {
        let Ok((meta, _)) = BlockMeta::decode_frame(frame, offset as u64) else {
            break;
        };
        let chains = meta.first_seq == next_seq
            && meta.start_icount == next_icount
            && meta.end_icount >= meta.start_icount
            && meta.events > 0;
        if !chains || verified_payload(data, meta).is_err() {
            break;
        }
        next_seq = meta.end_seq();
        next_icount = meta.end_icount;
        index.push(meta);
        offset += FRAME_LEN + meta.payload_len as usize;
    }
    index
}

/// The bounds-checked view of one block: its frame header and its
/// stored payload, as slices of the container.
fn block_bytes(data: &[u8], meta: BlockMeta) -> Result<(&[u8], &[u8]), DecodeError> {
    let start = usize::try_from(meta.offset).unwrap_or(usize::MAX);
    let at = start
        .checked_add(FRAME_LEN)
        .filter(|&at| at <= data.len())
        .ok_or(DecodeError::Truncated { offset: start })?;
    let end = at
        .checked_add(meta.payload_len as usize)
        .filter(|&end| end <= data.len())
        .ok_or(DecodeError::Truncated { offset: at })?;
    Ok((&data[start..at], &data[at..end]))
}

/// Verifies one block against the container — the frame header must
/// match `meta` and the payload its checksum — and returns the payload
/// as a zero-copy slice: the one-block case of [`verified_payloads`].
fn verified_payload(data: &[u8], meta: BlockMeta) -> Result<&[u8], DecodeError> {
    let [verified, ..] = verified_payloads(data, &[meta]);
    verified
}

/// Verifies up to [`LANES`] blocks, returning one result per meta in
/// order (lanes past `metas.len()` hold an empty `Ok`). Each frame is
/// checked against its meta first; the payloads that pass are then
/// hashed together as the lanes of one [`fnv1a64x4`] pass, and each
/// is held to its own frame's checksum, so one bad block fails alone.
fn verified_payloads<'a>(
    data: &'a [u8],
    metas: &[BlockMeta],
) -> [Result<&'a [u8], DecodeError>; LANES] {
    debug_assert!(metas.len() <= LANES);
    let mut verified: [Result<&[u8], DecodeError>; LANES] = [Ok(&[]); LANES];
    let mut declared = [0u64; LANES];
    for ((slot, checksum), &meta) in verified.iter_mut().zip(&mut declared).zip(metas) {
        *slot = framed_payload(data, meta).map(|(payload, frame_checksum)| {
            *checksum = frame_checksum;
            payload
        });
    }
    let actual = fnv1a64x4(verified.map(|lane| lane.unwrap_or_default()));
    for ((slot, expected), actual) in verified
        .iter_mut()
        .zip(declared)
        .zip(actual)
        .take(metas.len())
    {
        if slot.is_ok() && actual != expected {
            *slot = Err(DecodeError::ChecksumMismatch { expected, actual });
        }
    }
    verified
}

/// One block's payload and the checksum its frame declares, once the
/// frame header is in bounds and agrees with `meta`.
fn framed_payload(data: &[u8], meta: BlockMeta) -> Result<(&[u8], u64), DecodeError> {
    let (frame, payload) = block_bytes(data, meta)?;
    let (frame_meta, declared) = BlockMeta::decode_frame(frame, meta.offset)?;
    if frame_meta != meta {
        // The frame header disagrees with the verified index: the
        // frame bytes are damaged.
        return Err(DecodeError::LengthMismatch {
            declared: u64::from(frame_meta.payload_len),
            actual: u64::from(meta.payload_len),
        });
    }
    Ok((payload, declared))
}

/// Decodes one verified (stored) payload into `events` — decompressing
/// first under [`Compression::Lz`] — checking the block's declared
/// event count and end watermark. `events` is cleared first, so a
/// caller can reuse one arena across blocks.
fn decode_block_into(
    payload: &[u8],
    meta: BlockMeta,
    compression: Compression,
    events: &mut Vec<(u64, TraceEvent)>,
) -> Result<(), DecodeError> {
    let _span = spm_obs::span("store/decode_block");
    events.clear();
    let storage;
    let payload = match compression {
        Compression::None => payload,
        Compression::Lz => {
            storage = crate::compress::decompress(payload)?;
            &storage
        }
    };
    // The declared count sizes the arena, but a damaged (unchecksummed)
    // frame may declare billions: every event takes at least two bytes
    // (tag + delta), so the payload itself bounds the reservation.
    events.reserve((meta.events as usize).min(payload.len() / 2));
    let icount = decode_events(payload, meta.start_icount, events)?;
    if events.len() as u64 != u64::from(meta.events) {
        return Err(DecodeError::EventCountMismatch {
            declared: u64::from(meta.events),
            actual: events.len() as u64,
        });
    }
    if icount != meta.end_icount {
        return Err(DecodeError::IcountMismatch {
            declared: meta.end_icount,
            actual: icount,
        });
    }
    Ok(())
}

/// Decodes one block payload into an owned event list: the decoder for
/// spmstk01 blocks carried outside a container (the serve wire
/// protocol). The payload must already have passed its checksum; the
/// declared event count and end icount are cross-checked, and an
/// untrusted `meta.events` never sizes an allocation beyond what the
/// payload can hold.
///
/// # Errors
///
/// A typed [`DecodeError`] when the payload does not decode, does not
/// decompress under `compression`, or disagrees with `meta`.
pub fn decode_block(
    payload: &[u8],
    meta: BlockMeta,
    compression: Compression,
) -> Result<Vec<(u64, TraceEvent)>, DecodeError> {
    let mut events = Vec::new();
    decode_block_into(payload, meta, compression, &mut events)?;
    Ok(events)
}

/// Records a skipped block in the report and the structured stream.
fn skip_block(report: &mut StoreReplayReport, block: u64, meta: BlockMeta, error: DecodeError) {
    spm_obs::warning(
        "store/skipped-block",
        &[
            ("block", block.into()),
            ("events", u64::from(meta.events).into()),
            ("reason", error.to_string().into()),
        ],
    );
    report.skipped.push(SkippedBlock {
        block,
        events: u64::from(meta.events),
        error,
    });
}
