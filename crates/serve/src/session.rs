//! Per-session state: the incremental selector, the crash-safe
//! journal, and the gauges the analyzer publishes.
//!
//! A session is keyed by name and outlives any single connection: the
//! analyzer state stays live across client disconnects, and — when the
//! server journals to a directory — across server restarts too, by
//! replaying the journaled generations back into a fresh selector.
//!
//! # Journal generations
//!
//! Each (re)incarnation of a session appends to its own container
//! `<name>.g<N>.spmstk` under the serve directory: spmstk01 files are
//! finalized by a footer, so a restarted server must not append to an
//! old file — it replays every existing generation (the store reader's
//! recovery path handles a torn last file) and opens generation
//! `max + 1` for new blocks. `FIN` finishes the current generation and
//! writes `<name>.markers` next to it, which is exactly what
//! `spm corpus add --from-session` ingests.

use crate::proto::DoneMsg;
use crate::ServeError;
use spm_core::text::write_markers;
use spm_core::{IncrementalSelector, SelectConfig, SelectionDelta};
use spm_sim::{TraceEvent, TraceObserver};
use spm_store::format::BlockMeta;
use spm_store::{FileIo, StoreReader, StoreWriter, SyncPolicy};
use std::path::{Path, PathBuf};

/// Where a block falls against a session's accepted-event watermark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockFit {
    /// Entirely below the watermark: a resend after reconnect, acked
    /// without analysis.
    Duplicate,
    /// Starts past the watermark: the server must reject it, since the
    /// journal would silently lose the missing events.
    Gap,
    /// Reaches past the watermark from at or below it; its first `skip`
    /// events were already accepted (nonzero when the client re-chunked
    /// after a resume and the block straddles the watermark).
    Fresh {
        /// Already-accepted events at the head of the block.
        skip: usize,
    },
}

impl BlockFit {
    /// Classifies a block with metadata `meta` against `accepted`, the
    /// count of events the session has accepted.
    pub fn of(meta: &BlockMeta, accepted: u64) -> Self {
        if meta.end_seq() <= accepted {
            BlockFit::Duplicate
        } else if meta.first_seq > accepted {
            BlockFit::Gap
        } else {
            BlockFit::Fresh {
                skip: (accepted - meta.first_seq) as usize,
            }
        }
    }
}

/// Shared per-session configuration.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Marker-selection parameters (same knobs as `spm select`).
    pub select: SelectConfig,
    /// Consecutive unchanged updates required for convergence.
    pub converge_after: u64,
    /// Per-session memory budget in bytes (queued events + analysis
    /// state). Exceeding it with an empty queue is fatal; with a
    /// non-empty queue it is backpressure.
    pub mem_budget: u64,
    /// Bounded queue capacity, in blocks.
    pub queue_capacity: usize,
    /// Journal directory; `None` disables journaling (sessions then
    /// survive reconnects but not server restarts).
    pub dir: Option<PathBuf>,
    /// Test hook: artificial per-update analysis delay in milliseconds,
    /// to make backpressure deterministic in tests. 0 in production.
    pub analysis_delay_ms: u64,
}

impl Default for SessionConfig {
    fn default() -> Self {
        Self {
            select: SelectConfig::new(10_000),
            converge_after: spm_core::DEFAULT_CONVERGE_UPDATES,
            mem_budget: 64 * 1024 * 1024,
            queue_capacity: 8,
            dir: None,
            analysis_delay_ms: 0,
        }
    }
}

/// Session lifecycle, published in [`SessionStats::state`].
pub mod state {
    /// Accepting blocks.
    pub const LIVE: u64 = 0;
    /// Finalized by `FIN`.
    pub const DONE: u64 = 1;
    /// Failed server-side (journal I/O, fatal protocol error).
    pub const FAILED: u64 = 2;
}

/// A point-in-time snapshot of one session's gauges, taken under the
/// session's mailbox lock.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SessionStats {
    /// Lifecycle: see [`state`].
    pub state: u64,
    /// Blocks analyzed.
    pub blocks: u64,
    /// Events analyzed.
    pub events: u64,
    /// Instruction-count watermark of the analyzed stream.
    pub icount: u64,
    /// Selection updates run.
    pub updates: u64,
    /// Current marker-set size.
    pub markers: u64,
    /// Consecutive unchanged updates.
    pub stable_updates: u64,
    /// 1 once the set has converged (may fall back to 0 if it moves).
    pub converged: u64,
    /// Tolerated structural mismatches (lenient profiler).
    pub tolerated_events: u64,
    /// Frames currently open on the shadow stack.
    pub dangling_frames: u64,
    /// Estimated live memory: queued bytes + analysis state.
    pub mem_bytes: u64,
    /// Analysis-state estimate alone (selector memory, no queue).
    pub analysis_bytes: u64,
    /// Bytes currently queued (decoded events awaiting analysis).
    pub queued_bytes: u64,
    /// Blocks currently queued.
    pub queue_len: u64,
    /// `BUSY` responses sent to this session's client.
    pub busy_rejections: u64,
    /// Events durably journaled so far (0 without a journal dir).
    pub journal_events: u64,
}

impl SessionStats {
    /// Every gauge the health endpoint publishes, as `(name, value)`
    /// pairs.
    pub fn snapshot(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("state", self.state),
            ("blocks", self.blocks),
            ("events", self.events),
            ("icount", self.icount),
            ("updates", self.updates),
            ("markers", self.markers),
            ("stable_updates", self.stable_updates),
            ("converged", self.converged),
            ("tolerated_events", self.tolerated_events),
            ("dangling_frames", self.dangling_frames),
            ("mem_bytes", self.mem_bytes),
            ("analysis_bytes", self.analysis_bytes),
            ("queued_bytes", self.queued_bytes),
            ("queue_len", self.queue_len),
            ("busy_rejections", self.busy_rejections),
            ("journal_events", self.journal_events),
        ]
    }
}

/// How far into its stream a session has accepted events: the point a
/// reconnecting client resumes from.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Watermark {
    /// Events accepted.
    pub events: u64,
    /// Instruction count at the last accepted event.
    pub icount: u64,
}

/// The analyzer-side state of one session, owned by its analyzer
/// thread.
pub struct SessionCore {
    /// Session name (registry key, journal file stem).
    pub name: String,
    config: SessionConfig,
    selector: IncrementalSelector,
    journal: Option<StoreWriter<FileIo>>,
    journal_path: Option<PathBuf>,
    blocks: u64,
    converged_at: u64,
    /// Deltas of the blocks analyzed since the caller last drained it.
    pub outbox: Vec<SelectionDelta>,
}

/// The committed journal generations for session `name` under `dir`,
/// oldest first. These are the on-disk artifacts `spm corpus add
/// --from-session` ingests (together with `<name>.markers` once the
/// session finalized); an unrestarted session has exactly one.
pub fn journal_generations(dir: &Path, name: &str) -> Vec<PathBuf> {
    generations(dir, name).0
}

/// The journal generation files for `name` under `dir`, in generation
/// order, plus the next free generation number.
fn generations(dir: &Path, name: &str) -> (Vec<PathBuf>, u32) {
    let mut found: Vec<(u32, PathBuf)> = Vec::new();
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let file = entry.file_name();
            let Some(file) = file.to_str() else { continue };
            let Some(rest) = file.strip_prefix(name) else {
                continue;
            };
            let Some(gen_text) = rest
                .strip_prefix(".g")
                .and_then(|r| r.strip_suffix(".spmstk"))
            else {
                continue;
            };
            if let Ok(generation) = gen_text.parse::<u32>() {
                found.push((generation, entry.path()));
            }
        }
    }
    found.sort();
    let next = found.last().map_or(1, |(g, _)| g + 1);
    (found.into_iter().map(|(_, p)| p).collect(), next)
}

impl SessionCore {
    /// Opens (or resumes) the named session. With a journal directory,
    /// existing generations are replayed into the fresh selector — a
    /// torn last generation (server crash) recovers its committed
    /// prefix through the store reader's frame-walking recovery.
    ///
    /// Returns the core plus, when journaled state was resumed, the
    /// watermark it reached.
    ///
    /// # Errors
    ///
    /// [`ServeError::Proto`] when the name is not a valid session name
    /// (it becomes a journal file stem, so path characters are
    /// rejected here even if a caller skipped the wire-level check);
    /// [`ServeError::Io`] when the journal cannot be created or an
    /// existing generation cannot be read at all.
    pub fn open(
        name: &str,
        config: &SessionConfig,
    ) -> Result<(Self, Option<Watermark>), ServeError> {
        crate::proto::validate_session_name(name).map_err(ServeError::Proto)?;
        let mut selector = IncrementalSelector::new(config.select, config.converge_after);
        let mut blocks = 0u64;
        let mut resumed: Option<Watermark> = None;
        let mut journal_path = None;
        let journal = if let Some(dir) = &config.dir {
            std::fs::create_dir_all(dir)
                .map_err(|e| ServeError::io(&dir.display().to_string(), &e))?;
            let (existing, next) = generations(dir, name);
            for path in &existing {
                let replayed = replay_generation(path, &mut selector)?;
                let watermark = resumed.get_or_insert_with(Watermark::default);
                watermark.events += replayed.events;
                watermark.icount = watermark.icount.max(replayed.icount);
                blocks += replayed.blocks;
            }
            let path = dir.join(format!("{name}.g{next}.spmstk"));
            let sink = FileIo::create(&path)
                .map_err(|e| ServeError::io(&path.display().to_string(), &e))?;
            journal_path = Some(path);
            Some(
                StoreWriter::new(sink)
                    .sync_policy(SyncPolicy::Block)
                    .compression(spm_store::Compression::None),
            )
        } else {
            None
        };
        let mut core = Self {
            name: name.to_string(),
            config: config.clone(),
            selector,
            journal,
            journal_path,
            blocks,
            converged_at: 0,
            outbox: Vec::new(),
        };
        if resumed.is_some() {
            // Replay fed the selector block-by-block; fold the replayed
            // stream into one settled update so the watermark and
            // marker set are current before new blocks arrive.
            core.converged_at = if core.selector.converged() {
                core.selector.updates()
            } else {
                0
            };
        }
        Ok((core, resumed))
    }

    /// Analyzes one decoded block: journal it, update the selector,
    /// record convergence, and push the delta onto [`Self::outbox`].
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the journal write fails.
    pub fn analyze(&mut self, events: &[(u64, TraceEvent)]) -> Result<(), ServeError> {
        if self.config.analysis_delay_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(
                self.config.analysis_delay_ms,
            ));
        }
        if let Some(journal) = &mut self.journal {
            journal.on_batch(events);
            // One journal block per accepted batch: the commit
            // watermark advances with every block the client was
            // acked, which is what reconnect-resume promises.
            journal.checkpoint();
            if let Some(e) = journal.fault() {
                return Err(ServeError::Io {
                    context: format!("journal/{}", self.name),
                    message: e.to_string(),
                });
            }
        }
        let delta = self.selector.update(events);
        self.blocks += 1;
        // Record the FIRST convergence: the final chunk of a trace can
        // still move the set (outermost call edges record traversal at
        // the program's last Return), so convergence is a mid-stream
        // signal and `converged_at` keeps the earliest observation.
        if delta.converged && self.converged_at == 0 {
            self.converged_at = delta.update;
        }
        self.outbox.push(delta);
        Ok(())
    }

    /// Writes the selector and journal gauges into `stats` (called by
    /// the analyzer after each block, and at finish); the server fills
    /// in the queue, lifecycle and `BUSY` gauges itself.
    pub(crate) fn publish(&self, stats: &mut SessionStats) {
        let s = &self.selector;
        stats.blocks = self.blocks;
        stats.events = s.events();
        stats.icount = s.icount();
        stats.updates = s.updates();
        stats.markers = s.markers().len() as u64;
        stats.stable_updates = s.stable_updates();
        stats.converged = u64::from(s.converged());
        stats.tolerated_events = s.tolerated_events();
        stats.dangling_frames = s.dangling_frames() as u64;
        if let Some(journal) = &self.journal {
            stats.journal_events = journal.committed().events;
        }
        stats.analysis_bytes = s.mem_estimate();
    }

    /// Finalizes the session: flush + footer the journal generation,
    /// write `<name>.markers` beside it, and build the `DONE` summary.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the journal or marker file cannot be
    /// written.
    pub fn finish(&mut self) -> Result<DoneMsg, ServeError> {
        let markers_text = write_markers(self.selector.markers());
        if let Some(journal) = self.journal.take() {
            journal.finish().map_err(|e| ServeError::Io {
                context: format!("journal/{}", self.name),
                message: e.to_string(),
            })?;
        }
        if let Some(dir) = &self.config.dir {
            let path = dir.join(format!("{}.markers", self.name));
            std::fs::write(&path, &markers_text)
                .map_err(|e| ServeError::io(&path.display().to_string(), &e))?;
        }
        Ok(DoneMsg {
            blocks: self.blocks,
            events: self.selector.events(),
            icount: self.selector.icount(),
            updates: self.selector.updates(),
            converged_at: self.converged_at,
            tolerated_events: self.selector.tolerated_events(),
            dangling_frames: self.selector.dangling_frames() as u64,
            markers_text,
        })
    }

    /// The path of the journal generation currently being written.
    pub fn journal_path(&self) -> Option<&Path> {
        self.journal_path.as_deref()
    }

    /// The current marker set rendered as a `markers v1` file.
    pub fn markers_text(&self) -> String {
        write_markers(self.selector.markers())
    }
}

struct Replayed {
    events: u64,
    icount: u64,
    blocks: u64,
}

/// Replays one journal generation into the selector, one update per
/// stored block (matching the updates the original session ran). A
/// file with no committed blocks contributes nothing.
fn replay_generation(
    path: &Path,
    selector: &mut IncrementalSelector,
) -> Result<Replayed, ServeError> {
    struct PerBlock<'a> {
        selector: &'a mut IncrementalSelector,
        events: u64,
        icount: u64,
    }
    impl TraceObserver for PerBlock<'_> {
        fn on_batch(&mut self, batch: &[(u64, TraceEvent)]) {
            self.selector.update(batch);
            self.events += batch.len() as u64;
            if let Some(&(icount, _)) = batch.last() {
                self.icount = self.icount.max(icount);
            }
        }
    }

    let mut reader = match StoreReader::open(path) {
        Ok(r) => r,
        Err(spm_store::StoreError::Corrupt { .. }) => {
            // A generation with not even a readable header (e.g. the
            // server died before the first commit) holds zero events.
            return Ok(Replayed {
                events: 0,
                icount: 0,
                blocks: 0,
            });
        }
        Err(e) => {
            return Err(ServeError::Io {
                context: path.display().to_string(),
                message: e.to_string(),
            })
        }
    };
    let blocks = reader.info().blocks;
    let mut per_block = PerBlock {
        selector,
        events: 0,
        icount: 0,
    };
    {
        let mut observers: Vec<&mut dyn TraceObserver> = vec![&mut per_block];
        reader.replay(&mut observers).map_err(|e| ServeError::Io {
            context: path.display().to_string(),
            message: e.to_string(),
        })?;
    }
    Ok(Replayed {
        events: per_block.events,
        icount: per_block.icount,
        blocks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::chunk_events;
    use spm_ir::{Input, ProgramBuilder, Trip};
    use spm_sim::run;

    fn trace() -> Vec<(u64, TraceEvent)> {
        let mut b = ProgramBuilder::new("t");
        b.proc("main", |p| {
            p.loop_(Trip::Fixed(30), |outer| {
                outer.call("work");
            });
        });
        b.proc("work", |p| {
            p.loop_(Trip::Fixed(40), |inner| {
                inner.block(50).done();
            });
        });
        let program = b.build("main").unwrap();
        let mut tape = Vec::new();
        run(&program, &Input::new("t", 3), &mut [&mut tape]).unwrap();
        tape
    }

    fn feed(core: &mut SessionCore, events: &[(u64, TraceEvent)], budget: usize) {
        for block in chunk_events(events, budget) {
            let decoded = block.decode_events().unwrap();
            core.analyze(&decoded).unwrap();
        }
    }

    #[test]
    fn journal_generations_resume_across_reopen() {
        let dir = std::env::temp_dir().join(format!("spm-serve-session-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = SessionConfig {
            select: SelectConfig::new(2_000),
            dir: Some(dir.clone()),
            ..SessionConfig::default()
        };
        let events = trace();
        let mid = events.len() / 2;

        // First incarnation: half the stream, then FIN-less drop
        // (finish the journal as a clean shutdown would).
        let (mut first, resumed) = SessionCore::open("sess", &config).unwrap();
        assert_eq!(resumed, None);
        feed(&mut first, &events[..mid], 512);
        let watermark = mid as u64;
        first.finish().unwrap();

        // Second incarnation resumes from the journal.
        let (mut second, resumed) = SessionCore::open("sess", &config).unwrap();
        assert_eq!(
            resumed,
            Some(Watermark {
                events: watermark,
                icount: events[mid - 1].0,
            })
        );

        // Feed the rest; the final set matches a batch run.
        let rest = chunk_events(&events, 512)
            .into_iter()
            .filter(|b| b.meta.end_seq() > watermark)
            .collect::<Vec<_>>();
        let mut trimmed = 0;
        let mut accepted = watermark;
        for block in rest {
            let BlockFit::Fresh { skip } = BlockFit::of(&block.meta, accepted) else {
                panic!("the rest resumes at the watermark without a gap");
            };
            let decoded = block.decode_events().unwrap();
            accepted = block.meta.end_seq();
            second.analyze(&decoded[skip..]).unwrap();
            trimmed += skip;
        }
        assert!(
            trimmed > 0,
            "the first resent block straddles the watermark"
        );
        let mut batch = IncrementalSelector::new(SelectConfig::new(2_000), 3);
        batch.update(&events);
        assert_eq!(second.markers_text(), write_markers(batch.markers()));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn traversal_session_names_cannot_open() {
        let dir = std::env::temp_dir().join(format!("spm-serve-names-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = SessionConfig {
            dir: Some(dir.clone()),
            ..SessionConfig::default()
        };
        for bad in ["../evil", "a/b", ".hidden", "a\\b"] {
            match SessionCore::open(bad, &config) {
                Err(ServeError::Proto(_)) => {}
                Err(other) => panic!("name {bad:?}: expected Proto rejection, got {other}"),
                Ok(_) => panic!("name {bad:?}: open must fail"),
            }
        }
        assert!(
            !dir.exists(),
            "a rejected name must not even create the serve dir"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_and_gap_detection() {
        let config = SessionConfig::default();
        let (mut core, _) = SessionCore::open("s", &config).unwrap();
        let events = trace();
        let blocks = chunk_events(&events, 1024);
        let fit = |i: usize, accepted: u64| BlockFit::of(&blocks[i].meta, accepted);
        assert_eq!(fit(0, 0), BlockFit::Fresh { skip: 0 });
        assert_eq!(fit(1, 0), BlockFit::Gap, "skipping block 0 is a gap");
        let decoded = blocks[0].decode_events().unwrap();
        let accepted = blocks[0].meta.end_seq();
        core.analyze(&decoded).unwrap();
        assert_eq!(
            fit(0, accepted),
            BlockFit::Duplicate,
            "resent block 0 is a dup"
        );
        assert_eq!(fit(1, accepted), BlockFit::Fresh { skip: 0 });
        // A block re-chunked across the watermark keeps only its tail.
        let straddling = BlockMeta {
            first_seq: accepted - 5,
            events: 10,
            ..blocks[1].meta
        };
        assert_eq!(
            BlockFit::of(&straddling, accepted),
            BlockFit::Fresh { skip: 5 }
        );
    }
}
