//! Deduplicated, validating ingest: `corpus add`.
//!
//! Every artifact is schema-validated on the way in — a corpus never
//! holds a blob its own queries cannot read:
//!
//! * store containers must open as `spmstk01` (their content key is
//!   [`spm_store::StoreReader::content_key`]);
//! * metrics/spans/profile streams must pass the `spm-obs` line
//!   validator (the same executable schema `spm report` ingests by);
//! * marker files must parse as `markers v1`;
//! * partitions must carry the `begin\tend\tphase` table header;
//! * bench reports must validate against
//!   [`spm_report::bench::BENCH_REPORT_SCHEMA`].
//!
//! Objects and manifests are written via a temp-file + rename pair, so
//! a crashed `add` never leaves a half-written object under its final
//! name, and re-running the `add` completes it.

use crate::corpus::corpus_err;
use crate::manifest::{key_hex, Artifact, ArtifactKind, RunManifest};
use spm_core::SpmError;
use spm_store::format::fnv1a64;
use spm_store::{StoreError, StoreReader};
use std::path::{Path, PathBuf};

/// What to ingest: one run's coordinates plus its artifact files.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Workload the run belongs to.
    pub workload: String,
    /// Input name (`-` when not applicable).
    pub input: String,
    /// Input seed.
    pub seed: u64,
    /// Display label (defaults to `workload/input#seed` in the CLI).
    pub label: String,
    /// Artifact files, at most one per kind.
    pub artifacts: Vec<(ArtifactKind, PathBuf)>,
}

/// What an [`add`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddOutcome {
    /// Content-derived run identity.
    pub run_id: u64,
    /// The run's ingest sequence number (existing one when
    /// deduplicated).
    pub seq: u64,
    /// Whether the identical run was already in the corpus (the whole
    /// add was a no-op: zero bytes written).
    pub deduplicated: bool,
    /// Artifact blobs newly written.
    pub new_objects: usize,
    /// Artifact blobs that were already present under their key.
    pub dedup_objects: usize,
    /// Blob bytes written (0 for a fully deduplicated run).
    pub bytes_written: u64,
}

fn io_err(path: &Path, e: &std::io::Error) -> SpmError {
    SpmError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    }
}

fn store_err(path: &Path, e: StoreError) -> SpmError {
    match e {
        StoreError::Io { message } => SpmError::Io {
            path: path.display().to_string(),
            message,
        },
        StoreError::Corrupt { error, .. } => SpmError::Trace {
            source: path.display().to_string(),
            error,
        },
        StoreError::Exhausted { attempts, message } => SpmError::Exhausted {
            path: path.display().to_string(),
            attempts,
            message,
        },
    }
}

/// Reads, validates, and content-keys one artifact file.
fn keyed_artifact(kind: ArtifactKind, path: &Path) -> Result<(Artifact, Vec<u8>), SpmError> {
    let bytes = std::fs::read(path).map_err(|e| io_err(path, &e))?;
    let text = || {
        std::str::from_utf8(&bytes)
            .map_err(|_| corpus_err(path, format!("{kind} artifact is not UTF-8 text")))
    };
    let object = match kind {
        ArtifactKind::Store => {
            let reader = StoreReader::open(path).map_err(|e| store_err(path, e))?;
            reader.content_key().map_err(|e| store_err(path, e))?
        }
        ArtifactKind::Metrics => {
            spm_report::load_str(&path.display().to_string(), text()?)?;
            fnv1a64(&bytes)
        }
        ArtifactKind::Markers => {
            spm_core::text::parse_markers(text()?).map_err(|error| SpmError::Parse {
                source: path.display().to_string(),
                error,
            })?;
            fnv1a64(&bytes)
        }
        ArtifactKind::Partition => {
            let header_ok = text()?
                .lines()
                .next()
                .is_some_and(|l| l.starts_with("begin\tend\tphase"));
            if !header_ok {
                return Err(corpus_err(
                    path,
                    "partition artifact is missing the `begin\tend\tphase` header".into(),
                ));
            }
            fnv1a64(&bytes)
        }
        ArtifactKind::BenchReport => {
            spm_report::bench::validate_bench_report(text()?)
                .map_err(|m| corpus_err(path, format!("bench report: {m}")))?;
            fnv1a64(&bytes)
        }
    };
    Ok((
        Artifact {
            kind,
            object,
            bytes: bytes.len() as u64,
        },
        bytes,
    ))
}

/// Creates the corpus layout if `dir` is not one yet, and rejects a
/// directory that is marked as something else.
fn ensure_layout(dir: &Path) -> Result<(), SpmError> {
    let objects = dir.join("objects");
    let runs = dir.join("runs");
    std::fs::create_dir_all(&objects).map_err(|e| io_err(&objects, &e))?;
    std::fs::create_dir_all(&runs).map_err(|e| io_err(&runs, &e))?;
    let marker_path = dir.join("CORPUS");
    match std::fs::read_to_string(&marker_path) {
        Ok(marker) if marker.trim_end() == crate::CORPUS_MARKER => Ok(()),
        Ok(marker) => Err(corpus_err(
            &marker_path,
            format!("not a corpus (marker is `{}`)", marker.trim_end()),
        )),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => write_atomic(
            &marker_path,
            format!("{}\n", crate::CORPUS_MARKER).as_bytes(),
        ),
        Err(e) => Err(io_err(&marker_path, &e)),
    }
}

/// Writes `bytes` to `path` through a sibling temp file + rename, so a
/// crash mid-write never leaves a torn file under the final name.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), SpmError> {
    let file_name = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("object");
    let tmp = path.with_file_name(format!(".tmp-{file_name}"));
    std::fs::write(&tmp, bytes).map_err(|e| io_err(&tmp, &e))?;
    std::fs::rename(&tmp, path).map_err(|e| io_err(path, &e))
}

/// The next free ingest sequence number: max over existing manifests,
/// plus one (1-based).
fn next_seq(runs_dir: &Path) -> Result<u64, SpmError> {
    let mut max = 0u64;
    let entries = std::fs::read_dir(runs_dir).map_err(|e| io_err(runs_dir, &e))?;
    for entry in entries {
        let entry = entry.map_err(|e| io_err(runs_dir, &e))?;
        let path = entry.path();
        if path.extension().is_none_or(|e| e != "json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).map_err(|e| io_err(&path, &e))?;
        let manifest = RunManifest::parse(&text).map_err(|m| corpus_err(&path, m))?;
        max = max.max(manifest.seq);
    }
    Ok(max + 1)
}

/// Ingests one run into the corpus at `dir`, creating the corpus on
/// first use. Artifact validation and keying fan out over the worker
/// pool; the outcome is identical at any worker count.
///
/// Identical artifact bytes deduplicate to the same object, and an
/// identical run (same coordinates, same artifact keys) deduplicates to
/// the same manifest — re-ingesting an unchanged run writes zero bytes.
///
/// # Errors
///
/// [`SpmError::Io`] on filesystem failures, the artifact's own error
/// class when validation fails (trace decode for containers, parse for
/// markers, analysis for the rest), and [`SpmError::Analysis`] for
/// malformed specs (no artifacts, duplicate kinds).
pub fn add(dir: &Path, spec: &RunSpec) -> Result<AddOutcome, SpmError> {
    if spec.artifacts.is_empty() {
        return Err(corpus_err(dir, "a run needs at least one artifact".into()));
    }
    ensure_layout(dir)?;
    let keyed = spm_par::try_par_map(&spec.artifacts, |(kind, path)| keyed_artifact(*kind, path))?;
    let mut keyed: Vec<(Artifact, Vec<u8>)> = keyed;
    keyed.sort_by_key(|(a, _)| a.kind);
    if keyed.windows(2).any(|w| w[0].0.kind == w[1].0.kind) {
        return Err(corpus_err(dir, "duplicate artifact kind in one run".into()));
    }
    let artifacts: Vec<Artifact> = keyed.iter().map(|(a, _)| *a).collect();
    let run_id = RunManifest::identity(
        &spec.workload,
        &spec.input,
        spec.seed,
        &spec.label,
        &artifacts,
    );

    let runs_dir = dir.join("runs");
    let manifest_path = runs_dir.join(format!("{}.json", key_hex(run_id)));
    if manifest_path.exists() {
        // The identical run is already ingested: the whole add is a
        // no-op. Keep its original sequence number.
        let text =
            std::fs::read_to_string(&manifest_path).map_err(|e| io_err(&manifest_path, &e))?;
        let existing = RunManifest::parse(&text).map_err(|m| corpus_err(&manifest_path, m))?;
        return Ok(AddOutcome {
            run_id,
            seq: existing.seq,
            deduplicated: true,
            new_objects: 0,
            dedup_objects: artifacts.len(),
            bytes_written: 0,
        });
    }

    let mut new_objects = 0;
    let mut dedup_objects = 0;
    let mut bytes_written = 0u64;
    for (artifact, bytes) in &keyed {
        let object_path = dir.join("objects").join(key_hex(artifact.object));
        if object_path.exists() {
            dedup_objects += 1;
        } else {
            write_atomic(&object_path, bytes)?;
            new_objects += 1;
            bytes_written += bytes.len() as u64;
        }
    }
    let manifest = RunManifest {
        run_id,
        seq: next_seq(&runs_dir)?,
        workload: spec.workload.clone(),
        input: spec.input.clone(),
        seed: spec.seed,
        label: spec.label.clone(),
        artifacts,
    };
    write_atomic(&manifest_path, manifest.encode().as_bytes())?;
    Ok(AddOutcome {
        run_id,
        seq: manifest.seq,
        deduplicated: false,
        new_objects,
        dedup_objects,
        bytes_written,
    })
}

/// Renders an [`AddOutcome`] as the one-line summary `corpus add`
/// prints (stable, machine-greppable).
pub fn render_outcome(spec: &RunSpec, outcome: &AddOutcome) -> String {
    format!(
        "corpus add: run={} seq={} workload={} input={} seed={} artifacts={} \
         new-objects={} dedup-objects={} bytes-written={}{}\n",
        key_hex(outcome.run_id),
        outcome.seq,
        spec.workload,
        spec.input,
        spec.seed,
        spec.artifacts.len(),
        outcome.new_objects,
        outcome.dedup_objects,
        outcome.bytes_written,
        if outcome.deduplicated {
            " (deduplicated: unchanged run)"
        } else {
            ""
        },
    )
}
