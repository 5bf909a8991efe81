//! Streaming ingest: [`StoreWriter`] encodes an event stream into
//! `spmstk01` blocks as it arrives, holding only the current block (plus
//! the growing index) in memory.
//!
//! All bytes leave through the [`StoreIo`] seam, transient sink errors
//! are absorbed by a bounded retry/backoff policy, and under
//! [`SyncPolicy::Block`] each flushed block is made durable before the
//! next begins — the commit protocol DESIGN.md §12 specifies. The
//! writer's [`CommitMark`] names exactly how much of the stream is
//! guaranteed to survive a crash at any instant.

use crate::format::{
    fnv1a64, BlockMeta, Compression, Footer, SyncPolicy, DEFAULT_BLOCK_BUDGET, HEADER_LEN, MAGIC,
};
use crate::io::{with_retries, Clock, RetryPolicy, StoreIo, SystemClock};
use crate::StoreError;
use spm_sim::record::encode_event;
use spm_sim::{TraceEvent, TraceObserver};

/// What [`StoreWriter::finish`] reports about the finished container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreSummary {
    /// Blocks written.
    pub blocks: u64,
    /// Events written.
    pub events: u64,
    /// Instruction count after the last event.
    pub total_icount: u64,
    /// Encoded payload bytes (excluding framing, index, footer).
    pub payload_bytes: u64,
    /// Total container size in bytes.
    pub file_bytes: u64,
    /// The sync policy the container was written under.
    pub sync_policy: SyncPolicy,
    /// Transient I/O errors absorbed by retrying.
    pub retries: u64,
}

/// How much of the stream is durably committed: everything up to
/// (excluding nothing of) `blocks` blocks / `events` events /
/// instruction count `icount` survives a crash.
///
/// Advanced only after a successful durability barrier: per block
/// under [`SyncPolicy::Block`], only at `finish` under
/// [`SyncPolicy::Close`], never under [`SyncPolicy::None`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CommitMark {
    /// Durable whole blocks.
    pub blocks: u64,
    /// Durable events (sequence numbers `0..events`).
    pub events: u64,
    /// Instruction watermark after the last durable event.
    pub icount: u64,
}

/// What [`StoreWriter::finish_with_sink`] hands back: the finish
/// result, the final commit watermark, and the sink itself — so a
/// failpoint harness can inspect the torn image after a simulated
/// crash, and the CLI can report watermarks on failure.
#[derive(Debug)]
pub struct FinishOutcome<S> {
    /// The summary, or the first error the writer hit.
    pub result: Result<StoreSummary, StoreError>,
    /// The durable watermark at the end (on success under any policy
    /// this covers the whole stream; after a fault, what survived).
    pub committed: CommitMark,
    /// The sink the container was written into.
    pub sink: S,
}

/// A [`TraceObserver`] that streams the event stream into an
/// `spmstk01` container with bounded memory.
///
/// Events are encoded into the current block buffer; once the buffer
/// reaches the block budget it is framed, checksummed, and written to
/// the sink through the [`StoreIo`] seam. [`finish`](Self::finish)
/// flushes the final partial block and appends the index and footer.
/// The observer interface has no error channel, so a sink failure
/// poisons the writer ([`fault`] returns it mid-run) and surfaces from
/// `finish` — mirroring `CallLoopProfiler`'s contract. Transient sink
/// errors are retried with bounded backoff first; only exhaustion or a
/// permanent error poisons.
///
/// [`fault`]: Self::fault
#[derive(Debug)]
pub struct StoreWriter<S: StoreIo> {
    sink: S,
    budget: usize,
    /// Encoded payload of the block being filled.
    block: Vec<u8>,
    block_events: u32,
    /// Sequence number of the current block's first event.
    first_seq: u64,
    /// Instruction watermark before the current block's first event.
    start_icount: u64,
    /// Instruction watermark after the last event seen.
    last_icount: u64,
    /// Total events seen.
    seq: u64,
    /// Bytes written to the sink so far (= offset of the next write).
    written: u64,
    index: Vec<BlockMeta>,
    block_dims: u32,
    header_written: bool,
    sync_policy: SyncPolicy,
    compression: Compression,
    retry: RetryPolicy,
    clock: Box<dyn Clock + Send>,
    committed: CommitMark,
    retries: u64,
    fault: Option<StoreError>,
}

impl<S: StoreIo> StoreWriter<S> {
    /// Creates a writer with the default ~256 KiB block budget. The
    /// header is written lazily on the first event (or at `finish`), so
    /// construction cannot fail.
    pub fn new(sink: S) -> Self {
        Self::with_block_budget(sink, DEFAULT_BLOCK_BUDGET)
    }

    /// Creates a writer with an explicit pre-compression block budget
    /// in bytes (clamped to at least 64: a block always holds at least
    /// one event, and pathological budgets would write one frame per
    /// event).
    pub fn with_block_budget(sink: S, budget: usize) -> Self {
        Self {
            sink,
            budget: budget.max(64),
            block: Vec::with_capacity(budget.clamp(64, DEFAULT_BLOCK_BUDGET) + 64),
            block_events: 0,
            first_seq: 0,
            start_icount: 0,
            last_icount: 0,
            seq: 0,
            written: 0,
            index: Vec::new(),
            block_dims: 0,
            header_written: false,
            sync_policy: SyncPolicy::default(),
            compression: Compression::default(),
            retry: RetryPolicy::default(),
            clock: Box::new(SystemClock),
            committed: CommitMark::default(),
            retries: 0,
            fault: None,
        }
    }

    /// Selects when durability barriers are issued (default:
    /// [`SyncPolicy::Block`]). Must be set before the first event —
    /// the policy is recorded in the header.
    pub fn sync_policy(mut self, policy: SyncPolicy) -> Self {
        self.sync_policy = policy;
        self
    }

    /// Selects per-block payload compression (default:
    /// [`Compression::None`]). Must be set before the first event —
    /// the codec is recorded in the header and applies to every block.
    /// The block budget stays a *pre*-compression bound, so blocks keep
    /// their event capacity and on-disk frames simply shrink.
    pub fn compression(mut self, compression: Compression) -> Self {
        self.compression = compression;
        self
    }

    /// Replaces the transient-error retry policy (default: 3 retries,
    /// 1 ms exponential backoff).
    pub fn retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Routes retry backoff sleeps through `clock` (tests inject a
    /// recording clock so backoff is asserted, not waited out).
    pub fn clock(mut self, clock: Box<dyn Clock + Send>) -> Self {
        self.clock = clock;
        self
    }

    /// Declares the static block-id space of the traced program
    /// (`Program::block_sizes().len()`), recorded in the footer so BBV
    /// analyses can size vectors without the program. 0 means unknown.
    pub fn set_block_dims(&mut self, dims: u32) {
        self.block_dims = dims;
    }

    /// Events written so far.
    pub fn events(&self) -> u64 {
        self.seq
    }

    /// Blocks flushed so far (excluding the one being filled).
    pub fn blocks(&self) -> u64 {
        self.index.len() as u64
    }

    /// The blocks flushed so far, in order. Each entry's `offset`
    /// locates its frame in the bytes written to the sink.
    pub fn index(&self) -> &[BlockMeta] {
        &self.index
    }

    /// The durable watermark right now: what a crash at this instant
    /// is guaranteed to preserve.
    pub fn committed(&self) -> CommitMark {
        self.committed
    }

    /// Transient I/O errors absorbed by retrying so far.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// The first sink error, if the writer is poisoned (available
    /// mid-run; [`finish`](Self::finish) returns it too).
    pub fn fault(&self) -> Option<&StoreError> {
        self.fault.as_ref()
    }

    fn write_all(&mut self, bytes: &[u8]) {
        if self.fault.is_some() {
            return;
        }
        let mut remaining = bytes;
        while !remaining.is_empty() {
            let wrote = with_retries(
                &self.retry,
                self.clock.as_ref(),
                "write",
                &mut self.retries,
                || self.sink.write(remaining),
            );
            match wrote {
                Ok(0) => {
                    self.fault = Some(StoreError::Io {
                        message: "sink accepted 0 bytes".into(),
                    });
                    return;
                }
                Ok(n) => {
                    self.written += n as u64;
                    remaining = &remaining[n.min(remaining.len())..];
                }
                Err(e) => {
                    self.fault = Some(e);
                    return;
                }
            }
        }
    }

    /// Issues a durability barrier, advancing the commit watermark to
    /// cover everything written so far.
    fn commit(&mut self) {
        if self.fault.is_some() {
            return;
        }
        let synced = with_retries(
            &self.retry,
            self.clock.as_ref(),
            "sync",
            &mut self.retries,
            || self.sink.sync(),
        );
        match synced {
            Ok(()) => {
                self.committed = CommitMark {
                    blocks: self.index.len() as u64,
                    events: self.index.last().map_or(0, |m| m.end_seq()),
                    icount: self.index.last().map_or(0, |m| m.end_icount),
                };
            }
            Err(e) => self.fault = Some(e),
        }
    }

    fn ensure_header(&mut self) {
        if self.header_written {
            return;
        }
        self.header_written = true;
        let mut header = Vec::with_capacity(HEADER_LEN);
        header.extend_from_slice(MAGIC);
        header.extend_from_slice(&(self.budget as u32).to_le_bytes());
        header.push(self.sync_policy.header_byte());
        header.push(self.compression.header_byte());
        header.extend_from_slice(&[0u8; 2]);
        self.write_all(&header);
    }

    /// Frames and writes the current block, if it holds any events;
    /// under [`SyncPolicy::Block`] the block is then committed.
    fn flush_block(&mut self) {
        if self.block_events == 0 {
            return;
        }
        let mut span = spm_obs::span("store/encode_block");
        self.ensure_header();
        // Take the raw buffer so writing through `&mut self` does not
        // alias it; the larger buffer is reclaimed below.
        let raw = std::mem::take(&mut self.block);
        let (stored, reuse_raw) = match self.compression {
            Compression::None => (raw, None),
            Compression::Lz => (crate::compress::compress(&raw), Some(raw)),
        };
        // The frame describes the *stored* bytes: payload_len and the
        // checksum both cover what is on disk, so torn-write recovery
        // and the replay checksum work without decompressing.
        let meta = BlockMeta {
            offset: self.written,
            first_seq: self.first_seq,
            start_icount: self.start_icount,
            end_icount: self.last_icount,
            events: self.block_events,
            payload_len: stored.len() as u32,
        };
        let mut frame = Vec::with_capacity(crate::format::FRAME_LEN);
        meta.encode_frame(fnv1a64(&stored), &mut frame);
        self.write_all(&frame);
        self.write_all(&stored);
        if span.is_live() {
            span.field("bytes", stored.len() as u64);
            span.field("events", u64::from(self.block_events));
        }
        self.block = reuse_raw.unwrap_or(stored);
        self.block.clear();
        self.index.push(meta);
        self.block_events = 0;
        self.first_seq = self.seq;
        self.start_icount = self.last_icount;
        if self.sync_policy == SyncPolicy::Block {
            self.commit();
        }
    }

    /// Flushes the block currently being filled (if any) and, under
    /// [`SyncPolicy::Block`], commits it — a streaming checkpoint for
    /// callers whose durability unit is smaller than the block budget
    /// (e.g. a server journaling each accepted network block). A
    /// no-op when no events are buffered.
    pub fn checkpoint(&mut self) {
        self.flush_block();
    }

    /// Flushes the final block, writes the index and footer, issues
    /// the policy's final durability barrier, and returns the summary.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if any write failed permanently (now or
    /// earlier during recording; first failure wins), or
    /// [`StoreError::Exhausted`] if transient failures outlasted the
    /// retry budget.
    pub fn finish(self) -> Result<StoreSummary, StoreError> {
        self.finish_with_sink().result
    }

    /// Like [`finish`](Self::finish), but also hands back the sink and
    /// the final [`CommitMark`] — the failpoint harness inspects the
    /// torn image after a simulated crash, and the CLI reports the
    /// durable watermark when ingest dies partway.
    pub fn finish_with_sink(mut self) -> FinishOutcome<S> {
        self.flush_block();
        self.ensure_header();
        let index_offset = self.written;
        let mut index_bytes = Vec::with_capacity(self.index.len() * crate::format::INDEX_ENTRY_LEN);
        for meta in &self.index {
            meta.encode_index_entry(&mut index_bytes);
        }
        self.write_all(&index_bytes);
        let footer = Footer {
            index_offset,
            block_count: self.index.len() as u64,
            total_events: self.seq,
            total_icount: self.last_icount,
            index_checksum: fnv1a64(&index_bytes),
            block_dims: self.block_dims,
        };
        let mut footer_bytes = Vec::with_capacity(crate::format::FOOTER_LEN);
        footer.encode(&mut footer_bytes);
        self.write_all(&footer_bytes);
        match self.sync_policy {
            // Even `none` pushes buffered bytes out (no durability).
            SyncPolicy::None => {
                if self.fault.is_none() {
                    let flushed = with_retries(
                        &self.retry,
                        self.clock.as_ref(),
                        "flush",
                        &mut self.retries,
                        || self.sink.flush(),
                    );
                    if let Err(e) = flushed {
                        self.fault = Some(e);
                    }
                }
            }
            SyncPolicy::Block | SyncPolicy::Close => self.commit(),
        }
        if let Some(fault) = self.fault.take() {
            return FinishOutcome {
                result: Err(fault),
                committed: self.committed,
                sink: self.sink,
            };
        }
        // The whole container is on disk (and, unless `none`, durable):
        // the commit watermark covers the full stream.
        self.committed = CommitMark {
            blocks: self.index.len() as u64,
            events: self.seq,
            icount: self.last_icount,
        };
        let payload_bytes = self.index.iter().map(|m| u64::from(m.payload_len)).sum();
        if spm_obs::enabled() {
            spm_obs::counter("store/blocks", self.index.len() as u64);
            spm_obs::counter("store/bytes", self.written);
            spm_obs::counter("store/events", self.seq);
            if self.retries > 0 {
                spm_obs::counter("store/io-retries", self.retries);
            }
        }
        FinishOutcome {
            result: Ok(StoreSummary {
                blocks: self.index.len() as u64,
                events: self.seq,
                total_icount: self.last_icount,
                payload_bytes,
                file_bytes: self.written,
                sync_policy: self.sync_policy,
                retries: self.retries,
            }),
            committed: self.committed,
            sink: self.sink,
        }
    }

    fn step(&mut self, icount: u64, event: &TraceEvent) {
        let delta = icount.saturating_sub(self.last_icount);
        self.last_icount = self.last_icount.max(icount);
        encode_event(&mut self.block, delta, event);
        self.block_events += 1;
        self.seq += 1;
        // Flush on budget; u32 framing also caps events per block.
        if self.block.len() >= self.budget || self.block_events == u32::MAX {
            self.flush_block();
        }
    }
}

impl<S: StoreIo> TraceObserver for StoreWriter<S> {
    fn on_batch(&mut self, batch: &[(u64, TraceEvent)]) {
        for (icount, event) in batch {
            self.step(*icount, event);
        }
    }
}
