//! Random access and replay: [`StoreReader`] opens an `spmstk01`
//! container, verifies its index, and replays events to observers —
//! sequentially or with parallel block decode — never holding more than
//! a bounded window of blocks (plus the index) in memory.
//!
//! When the container is a real file on a unix platform, `open` also
//! memory-maps it ([`crate::mmap`]): block payloads are then verified
//! and decoded directly from the page cache as zero-copy slices, with
//! no per-block seek/read/allocate cycle. The mapping is strictly an
//! optimization — any source (and any platform without `mmap`) takes
//! the buffered-read path with identical results.

use crate::format::{
    fnv1a64, BlockMeta, Compression, Footer, SyncPolicy, COMPRESSION_OFFSET, FOOTER_LEN, FRAME_LEN,
    HEADER_LEN, INDEX_ENTRY_LEN, MAGIC, MAGIC_PREFIX, SYNC_POLICY_OFFSET,
};
use crate::mmap::Mmap;
use crate::StoreError;
use spm_sim::record::{decode_event, DecodeError};
use spm_sim::{TraceEvent, TraceObserver};
use std::io::{Read, Seek, SeekFrom};

/// Below this many blocks, `par_replay` decodes inline on the calling
/// thread: worker handoff would cost more than the decode itself.
const PAR_REPLAY_MIN_BLOCKS: usize = 4;

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

/// Reads an `spmstk01` container with bounded memory: the index is
/// resident; payloads are read one block (sequential replay) or one
/// decode batch (parallel replay) at a time.
#[derive(Debug)]
pub struct StoreReader<R: Read + Seek> {
    source: R,
    index: Vec<BlockMeta>,
    info: StoreInfo,
    /// Read-only map of the whole container when the source is a real
    /// file and the platform supports it; `None` falls back to seeking
    /// and reading through `source`.
    mapped: Option<Mmap>,
}

impl StoreReader<std::io::BufReader<std::fs::File>> {
    /// Opens a container file, memory-mapping it when the platform
    /// allows so replay decodes payloads as zero-copy slices (buffered
    /// reads otherwise — the results are identical).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the file cannot be read, or
    /// [`StoreError::Corrupt`] if it is not a readable `spmstk01`
    /// container (see [`StoreReader::new`] for the recovery the reader
    /// attempts first).
    pub fn open(path: &std::path::Path) -> Result<Self, StoreError> {
        let file = std::fs::File::open(path).map_err(|e| StoreError::Io {
            message: e.to_string(),
        })?;
        let len = file.metadata().map(|m| m.len()).unwrap_or(0);
        let mapped = Mmap::map(&file, len);
        let mut reader = Self::new(std::io::BufReader::new(file))?;
        reader.mapped = mapped;
        Ok(reader)
    }
}

impl<R: Read + Seek> StoreReader<R> {
    /// Opens a container from any seekable byte source, reading the
    /// header, footer, and index (verified against its checksum).
    ///
    /// A truncated or footer-corrupted file is not fatal: the reader
    /// falls back to walking block frames from the top and rebuilds the
    /// index from every frame that chains consistently, so the
    /// decodable prefix stays reachable ([`StoreInfo::recovered_index`]
    /// reports this).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on read failures; [`StoreError::Corrupt`] if
    /// the head magic is wrong (not a store at all) or the version is
    /// unsupported.
    pub fn new(mut source: R) -> Result<Self, StoreError> {
        let io_err = |e: std::io::Error| StoreError::Io {
            message: e.to_string(),
        };
        let file_bytes = source.seek(SeekFrom::End(0)).map_err(io_err)?;
        source.seek(SeekFrom::Start(0)).map_err(io_err)?;
        let mut header = [0u8; HEADER_LEN];
        let present = file_bytes.min(HEADER_LEN as u64) as usize;
        source.read_exact(&mut header[..present]).map_err(io_err)?;
        // Sniff the magic before the length, so a short file of some
        // other kind reads as "not a store" rather than a truncated one.
        let sniffed = present.min(MAGIC_PREFIX.len());
        if header[..sniffed] != MAGIC_PREFIX[..sniffed] {
            return Err(StoreError::Corrupt {
                block: None,
                error: DecodeError::BadMagic,
            });
        }
        if present < HEADER_LEN {
            return Err(StoreError::Corrupt {
                block: None,
                error: DecodeError::Truncated { offset: present },
            });
        }
        if &header[..8] != MAGIC {
            return Err(StoreError::Corrupt {
                block: None,
                error: DecodeError::UnsupportedVersion {
                    version: [header[6], header[7]],
                },
            });
        }
        let block_budget = crate::format::read_u32_le(&header, 8)
            .map_err(|error| StoreError::Corrupt { block: None, error })?;
        let sync_policy = SyncPolicy::from_header_byte(header[SYNC_POLICY_OFFSET]);
        // Unlike the sync byte (which only describes how the file was
        // written), an unknown codec byte cannot be defaulted: decoding
        // payloads under the wrong codec would yield garbage, so the
        // container is rejected as corrupt.
        let compression = Compression::from_header_byte(header[COMPRESSION_OFFSET]).ok_or(
            StoreError::Corrupt {
                block: None,
                error: DecodeError::BadTag {
                    tag: header[COMPRESSION_OFFSET],
                    offset: COMPRESSION_OFFSET,
                },
            },
        )?;

        match Self::read_footer_index(&mut source, file_bytes) {
            Ok((footer, index)) => {
                let payload_bytes = index.iter().map(|m| u64::from(m.payload_len)).sum();
                Ok(Self {
                    source,
                    index,
                    info: StoreInfo {
                        blocks: footer.block_count,
                        events: footer.total_events,
                        total_icount: footer.total_icount,
                        block_budget,
                        block_dims: footer.block_dims,
                        payload_bytes,
                        file_bytes,
                        recovered_index: false,
                        sync_policy,
                        recovered_tail_bytes: 0,
                        compression,
                    },
                    mapped: None,
                })
            }
            Err(error) => {
                // Footer/index unreadable: rebuild what we can by
                // walking frames, and say so through the structured
                // stream (once per process and failure shape).
                spm_obs::warning(
                    "store/recovered-index",
                    &[("reason", error.to_string().into())],
                );
                let index = Self::walk_frames(&mut source, file_bytes)?;
                let payload_bytes = index.iter().map(|m| u64::from(m.payload_len)).sum();
                let events = index.last().map_or(0, |m| m.end_seq());
                let total_icount = index.last().map_or(0, |m| m.end_icount);
                let blocks = index.len() as u64;
                let committed_end = index.last().map_or(HEADER_LEN as u64, |m| {
                    m.offset + FRAME_LEN as u64 + u64::from(m.payload_len)
                });
                Ok(Self {
                    source,
                    index,
                    info: StoreInfo {
                        blocks,
                        events,
                        total_icount,
                        block_budget,
                        block_dims: 0,
                        payload_bytes,
                        file_bytes,
                        recovered_index: true,
                        sync_policy,
                        recovered_tail_bytes: file_bytes.saturating_sub(committed_end),
                        compression,
                    },
                    mapped: None,
                })
            }
        }
    }

    /// Reads and verifies the footer and index.
    fn read_footer_index(
        source: &mut R,
        file_bytes: u64,
    ) -> Result<(Footer, Vec<BlockMeta>), StoreError> {
        let io_err = |e: std::io::Error| StoreError::Io {
            message: e.to_string(),
        };
        let corrupt = |error: DecodeError| StoreError::Corrupt { block: None, error };
        if file_bytes < (HEADER_LEN + FOOTER_LEN) as u64 {
            return Err(corrupt(DecodeError::Truncated {
                offset: file_bytes as usize,
            }));
        }
        source
            .seek(SeekFrom::Start(file_bytes - FOOTER_LEN as u64))
            .map_err(io_err)?;
        let mut raw = [0u8; FOOTER_LEN];
        source.read_exact(&mut raw).map_err(io_err)?;
        let footer = Footer::decode(&raw).map_err(corrupt)?;
        let index_len = footer
            .block_count
            .checked_mul(INDEX_ENTRY_LEN as u64)
            .filter(|len| {
                footer.index_offset >= HEADER_LEN as u64
                    && footer.index_offset + len + FOOTER_LEN as u64 == file_bytes
            })
            .ok_or_else(|| {
                corrupt(DecodeError::LengthMismatch {
                    declared: footer.block_count,
                    actual: file_bytes,
                })
            })?;
        source
            .seek(SeekFrom::Start(footer.index_offset))
            .map_err(io_err)?;
        let mut index_bytes = vec![0u8; index_len as usize];
        source.read_exact(&mut index_bytes).map_err(io_err)?;
        let actual = fnv1a64(&index_bytes);
        if actual != footer.index_checksum {
            return Err(corrupt(DecodeError::ChecksumMismatch {
                expected: footer.index_checksum,
                actual,
            }));
        }
        let index = (0..footer.block_count as usize)
            .map(|i| BlockMeta::decode_index_entry(&index_bytes, i * INDEX_ENTRY_LEN))
            .collect::<Result<Vec<_>, _>>()
            .map_err(corrupt)?;
        Ok((footer, index))
    }

    /// Fallback for files without a readable footer: walk block frames
    /// from the top, keeping every frame that chains consistently
    /// (monotonic sequence numbers and watermarks) *and* whose payload
    /// passes its checksum, and stop at the first frame that does not.
    ///
    /// The checksum requirement is what makes recovery safe on a torn
    /// tail: a partially written block never joins the rebuilt index,
    /// so a recovered store surfaces no partial events and its reported
    /// totals count only blocks replay will actually deliver.
    fn walk_frames(source: &mut R, file_bytes: u64) -> Result<Vec<BlockMeta>, StoreError> {
        let io_err = |e: std::io::Error| StoreError::Io {
            message: e.to_string(),
        };
        let mut index = Vec::new();
        let mut offset = HEADER_LEN as u64;
        let mut next_seq = 0u64;
        let mut next_icount = 0u64;
        while offset + FRAME_LEN as u64 <= file_bytes {
            source.seek(SeekFrom::Start(offset)).map_err(io_err)?;
            let mut raw = [0u8; FRAME_LEN];
            source.read_exact(&mut raw).map_err(io_err)?;
            let Ok((meta, declared)) = BlockMeta::decode_frame(&raw, offset) else {
                break;
            };
            let end = offset + FRAME_LEN as u64 + u64::from(meta.payload_len);
            let chains = meta.first_seq == next_seq
                && meta.start_icount == next_icount
                && meta.end_icount >= meta.start_icount
                && meta.events > 0
                && end <= file_bytes;
            if !chains {
                break;
            }
            let mut payload = vec![0u8; meta.payload_len as usize];
            source.read_exact(&mut payload).map_err(io_err)?;
            if fnv1a64(&payload) != declared {
                break;
            }
            next_seq = meta.end_seq();
            next_icount = meta.end_icount;
            index.push(meta);
            offset = end;
        }
        Ok(index)
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
    /// [`StoreError::Io`] if the source cannot be re-read, or
    /// [`StoreError::Corrupt`] if an indexed block lies outside the
    /// file.
    pub fn content_key(&mut self) -> Result<u64, StoreError> {
        let io_err = |e: std::io::Error| StoreError::Io {
            message: e.to_string(),
        };
        let truncated = |block: usize, offset: u64| StoreError::Corrupt {
            block: Some(block as u64),
            error: DecodeError::Truncated {
                offset: offset as usize,
            },
        };
        let mut acc: Vec<u8> =
            Vec::with_capacity(HEADER_LEN + self.index.len() * (FRAME_LEN + 8) + 16);
        if let Some(map) = &self.mapped {
            let data = map.as_slice();
            let header = data.get(..HEADER_LEN).ok_or_else(|| truncated(0, 0))?;
            acc.extend_from_slice(header);
            for (block, meta) in self.index.iter().enumerate() {
                let start = meta.offset as usize;
                let end = start
                    .checked_add(FRAME_LEN + meta.payload_len as usize)
                    .filter(|&end| end <= data.len())
                    .ok_or_else(|| truncated(block, meta.offset))?;
                acc.extend_from_slice(&data[start..start + FRAME_LEN]);
                let payload = &data[start + FRAME_LEN..end];
                acc.extend_from_slice(&fnv1a64(payload).to_le_bytes());
            }
        } else {
            self.source.seek(SeekFrom::Start(0)).map_err(io_err)?;
            let mut header = [0u8; HEADER_LEN];
            self.source.read_exact(&mut header).map_err(io_err)?;
            acc.extend_from_slice(&header);
            let mut payload = Vec::new();
            for block in 0..self.index.len() {
                let meta = self.index[block];
                self.source
                    .seek(SeekFrom::Start(meta.offset))
                    .map_err(io_err)?;
                let mut frame = [0u8; FRAME_LEN];
                self.source
                    .read_exact(&mut frame)
                    .map_err(|_| truncated(block, meta.offset))?;
                payload.clear();
                payload.resize(meta.payload_len as usize, 0);
                self.source
                    .read_exact(&mut payload)
                    .map_err(|_| truncated(block, meta.offset))?;
                acc.extend_from_slice(&frame);
                acc.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
            }
        }
        acc.extend_from_slice(&self.info.events.to_le_bytes());
        acc.extend_from_slice(&self.info.total_icount.to_le_bytes());
        Ok(fnv1a64(&acc))
    }

    /// The block containing event sequence number `seq`, by binary
    /// search — the O(log B) seek of the footer index.
    pub fn block_for_seq(&self, seq: u64) -> Option<usize> {
        if seq >= self.index.last()?.end_seq() {
            return None;
        }
        Some(self.index.partition_point(|m| m.end_seq() <= seq))
    }

    /// The first block whose events reach past dynamic instruction
    /// offset `icount`, by binary search.
    pub fn block_for_icount(&self, icount: u64) -> Option<usize> {
        if icount >= self.index.last()?.end_icount {
            return None;
        }
        Some(self.index.partition_point(|m| m.end_icount <= icount))
    }

    /// Reads one block's payload (without decoding) into `payload`
    /// (cleared first, so sequential replay reuses one buffer for the
    /// whole scan), verifying its frame header against the index and
    /// its payload checksum.
    fn read_block_into(&mut self, block: usize, payload: &mut Vec<u8>) -> Result<(), DecodeError> {
        let meta = self.index[block];
        let io_trunc = |_| DecodeError::Truncated {
            offset: meta.offset as usize,
        };
        self.source
            .seek(SeekFrom::Start(meta.offset))
            .map_err(io_trunc)?;
        let mut raw = [0u8; FRAME_LEN];
        self.source.read_exact(&mut raw).map_err(io_trunc)?;
        let (frame_meta, declared) = BlockMeta::decode_frame(&raw, meta.offset)?;
        if frame_meta != meta {
            // The frame header disagrees with the verified index: the
            // frame bytes are damaged.
            return Err(DecodeError::LengthMismatch {
                declared: u64::from(frame_meta.payload_len),
                actual: u64::from(meta.payload_len),
            });
        }
        payload.clear();
        payload.resize(meta.payload_len as usize, 0);
        self.source.read_exact(payload).map_err(io_trunc)?;
        let actual = fnv1a64(payload);
        if actual != declared {
            return Err(DecodeError::ChecksumMismatch {
                expected: declared,
                actual,
            });
        }
        Ok(())
    }

    /// Owned-allocation variant of [`read_block_into`](Self::read_block_into)
    /// for the parallel path, where each block needs its own buffer.
    fn read_block(&mut self, block: usize) -> Result<Vec<u8>, DecodeError> {
        let mut payload = Vec::new();
        self.read_block_into(block, &mut payload)?;
        Ok(payload)
    }

    /// Replays every event to the observers in order, one block at a
    /// time (peak trace memory: one block payload plus its decoded
    /// events). Undecodable blocks are skipped with a structured
    /// `store/skipped-block` warning; delivery resumes at the next
    /// block, whose metadata restores the sequence and instruction
    /// watermarks.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] only; corruption degrades to skips, reported
    /// in the [`StoreReplayReport`].
    pub fn replay(
        &mut self,
        observers: &mut [&mut dyn TraceObserver],
    ) -> Result<StoreReplayReport, StoreError> {
        self.replay_blocks(0, 0, observers)
    }

    /// Replays all events with sequence number `>= seq`: seeks to the
    /// containing block (O(log B)), then streams to the end. Sequence
    /// numbers past the end deliver nothing.
    pub fn replay_from_seq(
        &mut self,
        seq: u64,
        observers: &mut [&mut dyn TraceObserver],
    ) -> Result<StoreReplayReport, StoreError> {
        match self.block_for_seq(seq) {
            Some(block) => self.replay_blocks(block, seq, observers),
            None => Ok(StoreReplayReport::default()),
        }
    }

    /// Replays every event from the first block whose events reach past
    /// dynamic instruction offset `icount` (block-granular: the block's
    /// earlier events are delivered too, so observers see consistent
    /// per-block state).
    pub fn replay_from_icount(
        &mut self,
        icount: u64,
        observers: &mut [&mut dyn TraceObserver],
    ) -> Result<StoreReplayReport, StoreError> {
        match self.block_for_icount(icount) {
            Some(block) => self.replay_blocks(block, 0, observers),
            None => Ok(StoreReplayReport::default()),
        }
    }

    fn replay_blocks(
        &mut self,
        first_block: usize,
        min_seq: u64,
        observers: &mut [&mut dyn TraceObserver],
    ) -> Result<StoreReplayReport, StoreError> {
        let mut span = spm_obs::span("store/replay");
        let mut report = StoreReplayReport::default();
        let compression = self.info.compression;
        // One arena reused across every block: decode allocates once
        // for the whole replay, and delivery is one `on_batch` call
        // per observer per block.
        let mut arena: Vec<(u64, TraceEvent)> = Vec::new();
        if let Some(map) = &self.mapped {
            // Zero-copy path: payloads are verified and decoded
            // straight out of the mapping, with no seek/read cycle.
            let data = map.as_slice();
            for block in first_block..self.index.len() {
                let meta = self.index[block];
                let decoded = mapped_block(data, meta)
                    .and_then(|payload| decode_block_into(payload, meta, compression, &mut arena))
                    .map(|()| arena.as_slice());
                deliver_decoded(&mut report, block as u64, meta, decoded, min_seq, observers);
            }
        } else {
            let mut scratch: Vec<u8> = Vec::new();
            for block in first_block..self.index.len() {
                let meta = self.index[block];
                let decoded = self
                    .read_block_into(block, &mut scratch)
                    .and_then(|()| decode_block_into(&scratch, meta, compression, &mut arena))
                    .map(|()| arena.as_slice());
                deliver_decoded(&mut report, block as u64, meta, decoded, min_seq, observers);
            }
        }
        finish_replay_span(&mut span, &report);
        Ok(report)
    }

    /// Like [`replay`](Self::replay), but fans block decoding out over
    /// the `spm-par` worker pool in bounded batches while delivering
    /// events to the observers strictly in order. Peak trace memory is
    /// O(batch × block size); output is byte-identical to the
    /// sequential path at any worker count.
    ///
    /// When fanning out cannot pay for itself — a single-core host, or
    /// fewer blocks than the handoff is worth — the decode runs inline
    /// on the calling thread instead; the `store/par_replay` span
    /// records which mode ran in its `mode` field.
    pub fn par_replay(
        &mut self,
        observers: &mut [&mut dyn TraceObserver],
    ) -> Result<StoreReplayReport, StoreError> {
        let mut span = spm_obs::span("store/par_replay");
        let jobs = spm_par::default_jobs().max(1);
        if jobs == 1
            || spm_par::available_parallelism() == 1
            || self.index.len() < PAR_REPLAY_MIN_BLOCKS
        {
            span.field("mode", "serial");
            // The serial path opens (and closes) its own `store/replay`
            // span; the outer span is left without replay counters so
            // nothing is double-counted.
            return self.replay_blocks(0, 0, observers);
        }
        span.field("mode", "parallel");
        let batch = jobs * 2;
        let compression = self.info.compression;
        let mut report = StoreReplayReport::default();
        let mut block = 0usize;
        if let Some(map) = &self.mapped {
            // Zero-copy parallel path: workers verify and decode
            // payload slices of the shared mapping directly — the
            // serial I/O stage disappears entirely.
            let data = map.as_slice();
            while block < self.index.len() {
                let upper = (block + batch).min(self.index.len());
                let metas = &self.index[block..upper];
                let decoded = spm_par::par_map(metas, |meta| {
                    mapped_block(data, *meta)
                        .and_then(|payload| decode_block(payload, *meta, compression))
                });
                for ((b, meta), events) in (block..upper).zip(metas).zip(decoded) {
                    let events = events.as_deref().map_err(|e| *e);
                    deliver_decoded(&mut report, b as u64, *meta, events, 0, observers);
                }
                block = upper;
            }
        } else {
            while block < self.index.len() {
                let upper = (block + batch).min(self.index.len());
                // Serial I/O: read the batch's payloads (checksum-verified).
                let mut payloads: Vec<(u64, BlockMeta, Result<Vec<u8>, DecodeError>)> = Vec::new();
                for b in block..upper {
                    let meta = self.index[b];
                    payloads.push((b as u64, meta, self.read_block(b)));
                }
                // Parallel decode: each block decodes independently thanks
                // to its per-block delta base and sequence watermark.
                let decoded = spm_par::par_map(&payloads, |(_, meta, payload)| match payload {
                    Ok(payload) => decode_block(payload, *meta, compression),
                    Err(error) => Err(*error),
                });
                // In-order delivery.
                for ((b, meta, _), events) in payloads.iter().zip(decoded) {
                    let events = events.as_deref().map_err(|e| *e);
                    deliver_decoded(&mut report, *b, *meta, events, 0, observers);
                }
                block = upper;
            }
        }
        finish_replay_span(&mut span, &report);
        Ok(report)
    }
}

/// Verifies one block directly against the file mapping — the frame
/// header must match the verified index entry and the payload its
/// checksum — and returns the payload as a zero-copy slice.
fn mapped_block(data: &[u8], meta: BlockMeta) -> Result<&[u8], DecodeError> {
    let start = meta.offset as usize;
    let frame = data
        .get(start..start.saturating_add(FRAME_LEN))
        .ok_or(DecodeError::Truncated { offset: start })?;
    let (frame_meta, declared) = BlockMeta::decode_frame(frame, meta.offset)?;
    if frame_meta != meta {
        // The frame header disagrees with the verified index: the
        // frame bytes are damaged.
        return Err(DecodeError::LengthMismatch {
            declared: u64::from(frame_meta.payload_len),
            actual: u64::from(meta.payload_len),
        });
    }
    let at = start + FRAME_LEN;
    let payload = data
        .get(at..at.saturating_add(meta.payload_len as usize))
        .ok_or(DecodeError::Truncated { offset: at })?;
    let actual = fnv1a64(payload);
    if actual != declared {
        return Err(DecodeError::ChecksumMismatch {
            expected: declared,
            actual,
        });
    }
    Ok(payload)
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
    let mut pos = 0usize;
    let mut icount = meta.start_icount;
    while pos < payload.len() {
        let at = pos;
        let (delta, event) = decode_event(payload, &mut pos)?;
        icount = icount
            .checked_add(delta)
            .ok_or(DecodeError::Overflow { offset: at })?;
        events.push((icount, event));
    }
    if events.len() as u64 != u64::from(meta.events) {
        return Err(DecodeError::EventCountMismatch {
            declared: u64::from(meta.events),
            actual: events.len() as u64,
        });
    }
    if icount != meta.end_icount {
        return Err(DecodeError::EventCountMismatch {
            declared: meta.end_icount,
            actual: icount,
        });
    }
    Ok(())
}

/// Decodes one block payload into an owned event list: the parallel
/// replay path's per-worker decode, and the decoder for any other
/// carrier of spmstk01 blocks (the serve wire protocol). The payload
/// must already have passed its checksum; the declared event count and
/// end icount are cross-checked, and an untrusted `meta.events` never
/// sizes an allocation beyond what the payload can hold.
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

/// Delivers one decoded block as a batch (skipping events with
/// sequence number below `min_seq`), or records the skip if decoding
/// failed. Every replay path ends here: the sequential ones pass their
/// reused arena, the parallel one each worker's owned block with
/// `min_seq = 0`.
fn deliver_decoded(
    report: &mut StoreReplayReport,
    block: u64,
    meta: BlockMeta,
    decoded: Result<&[(u64, TraceEvent)], DecodeError>,
    min_seq: u64,
    observers: &mut [&mut dyn TraceObserver],
) {
    match decoded {
        Ok(arena) => {
            let skip = min_seq
                .saturating_sub(meta.first_seq)
                .min(arena.len() as u64) as usize;
            let batch = &arena[skip..];
            for obs in observers.iter_mut() {
                obs.on_batch(batch);
            }
            report.events += batch.len() as u64;
            report.blocks += 1;
        }
        Err(error) => skip_block(report, block, meta, error),
    }
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

fn finish_replay_span(span: &mut spm_obs::Span, report: &StoreReplayReport) {
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
}
