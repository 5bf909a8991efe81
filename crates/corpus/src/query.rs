//! Fleet-wide queries over a loaded [`Corpus`]: marker stability,
//! perf trajectories, and cross-run regressions. All three read only
//! ingested objects — no analysis is re-run — and render byte-identical
//! output at any worker count.

use crate::corpus::{corpus_err, Corpus};
use crate::manifest::{ArtifactKind, RunManifest};
use spm_core::SpmError;
use spm_obs::jsonl::{parse, Json};
use spm_report::diff::{diff_indexes, StageIndex};
use spm_report::flame::fmt_duration;
use spm_report::{DiffConfig, Verdict};
use std::collections::BTreeMap;

// ---------------------------------------------------------- stability

/// One marker's survival across a workload's ingested runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MarkerSurvival {
    /// The marker line as selected (`edge <from> <to>` or
    /// `group <loop> <n>`).
    pub marker: String,
    /// In how many of the workload's runs it was selected.
    pub survived: usize,
}

/// Marker stability of one workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadStability {
    /// The workload.
    pub workload: String,
    /// Ingested runs of this workload that carry a marker file.
    pub runs: usize,
    /// Every marker ever selected for this workload, most stable first
    /// (descending survival, then marker text).
    pub markers: Vec<MarkerSurvival>,
}

impl WorkloadStability {
    /// Survival fraction of one marker: `survived / runs`.
    pub fn fraction(&self, m: &MarkerSurvival) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            m.survived as f64 / self.runs as f64
        }
    }
}

/// The marker lines of one marker file, header/comments dropped.
fn marker_lines(text: &str) -> Vec<String> {
    text.lines()
        .skip(1) // `markers v1` header (validated at ingest)
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect()
}

/// Which marker edges survive across every ingested input/seed of each
/// workload. Grouped by workload, sorted by workload name.
///
/// # Errors
///
/// [`SpmError::Io`]/[`SpmError::Analysis`] when a marker object is
/// missing or unreadable.
pub fn stability(corpus: &Corpus) -> Result<Vec<WorkloadStability>, SpmError> {
    let with_markers: Vec<&RunManifest> = corpus
        .runs()
        .iter()
        .filter(|r| r.artifact(ArtifactKind::Markers).is_some())
        .collect();
    let loaded = spm_par::try_par_map(&with_markers, |run| {
        let artifact = run
            .artifact(ArtifactKind::Markers)
            .ok_or_else(|| corpus_err(corpus.dir(), "marker artifact vanished".into()))?;
        let text = corpus.read_object_text(artifact.object)?;
        Ok::<_, SpmError>((run.workload.clone(), marker_lines(&text)))
    })?;
    let mut groups: BTreeMap<String, (usize, BTreeMap<String, usize>)> = BTreeMap::new();
    for (workload, lines) in loaded {
        let (runs, counts) = groups.entry(workload).or_default();
        *runs += 1;
        let mut distinct = lines;
        distinct.sort();
        distinct.dedup();
        for line in distinct {
            *counts.entry(line).or_default() += 1;
        }
    }
    Ok(groups
        .into_iter()
        .map(|(workload, (runs, counts))| {
            let mut markers: Vec<MarkerSurvival> = counts
                .into_iter()
                .map(|(marker, survived)| MarkerSurvival { marker, survived })
                .collect();
            markers.sort_by(|a, b| b.survived.cmp(&a.survived).then(a.marker.cmp(&b.marker)));
            WorkloadStability {
                workload,
                runs,
                markers,
            }
        })
        .collect())
}

/// Renders the stability query as a terminal table.
pub fn render_stability(groups: &[WorkloadStability]) -> String {
    let runs: usize = groups.iter().map(|g| g.runs).sum();
    let mut out = format!(
        "corpus stability: {runs} run(s) with markers across {} workload(s)\n",
        groups.len()
    );
    for g in groups {
        out.push_str(&format!(
            "workload {}: {} run(s), {} distinct marker(s)\n",
            g.workload,
            g.runs,
            g.markers.len()
        ));
        for m in &g.markers {
            out.push_str(&format!(
                "  {:.2}  {}/{}  {}\n",
                g.fraction(m),
                m.survived,
                g.runs,
                m.marker
            ));
        }
    }
    out
}

// --------------------------------------------------------- trajectory

/// One ingested bench report, decomposed for trending.
#[derive(Debug, Clone, PartialEq)]
pub struct TrajectoryPoint {
    /// The ingest sequence number of the run that carried the report.
    pub seq: u64,
    /// The run's label.
    pub label: String,
    /// Per-figure median wall-clock, microseconds (`figures[].median_us`).
    pub figures: Vec<(String, f64)>,
}

/// The `figures[]` entries of a bench report as `(name, median_us)`.
fn figure_medians(doc: &Json) -> Result<Vec<(String, f64)>, String> {
    let Some(Json::Arr(entries)) = doc.get("figures") else {
        return Err("missing `figures` array".into());
    };
    entries
        .iter()
        .map(|e| {
            let name = e
                .get("name")
                .and_then(Json::as_str)
                .ok_or("figures: entry without `name`")?;
            let median = e
                .get("median_us")
                .and_then(Json::as_num)
                .ok_or("figures: missing `median_us`")?;
            Ok((name.to_string(), median))
        })
        .collect()
}

/// Per-figure history over **every** ingested `BENCH_report.json`,
/// oldest first. Each report describes one suite invocation, so this is
/// the suite's only history.
///
/// # Errors
///
/// [`SpmError::Io`]/[`SpmError::Analysis`] when a report object is
/// missing or (despite ingest validation) unreadable.
pub fn trajectory(corpus: &Corpus) -> Result<Vec<TrajectoryPoint>, SpmError> {
    let with_report: Vec<&RunManifest> = corpus
        .runs()
        .iter()
        .filter(|r| r.artifact(ArtifactKind::BenchReport).is_some())
        .collect();
    spm_par::try_par_map(&with_report, |run| {
        let artifact = run
            .artifact(ArtifactKind::BenchReport)
            .ok_or_else(|| corpus_err(corpus.dir(), "bench-report artifact vanished".into()))?;
        let text = corpus.read_object_text(artifact.object)?;
        let object = corpus.object_path(artifact.object);
        let doc = parse(&text).map_err(|m| corpus_err(&object, m))?;
        let figures = figure_medians(&doc).map_err(|m| corpus_err(&object, m))?;
        Ok(TrajectoryPoint {
            seq: run.seq,
            label: run.label.clone(),
            figures,
        })
    })
}

/// All figure names across a set of points, in first-seen order of the
/// oldest report that mentions them, deduplicated.
pub(crate) fn figure_names(points: &[TrajectoryPoint]) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for point in points {
        for (name, _) in &point.figures {
            if !names.contains(name) {
                names.push(name.clone());
            }
        }
    }
    names
}

/// One figure's median in every point that reports it, oldest first.
pub(crate) fn figure_series<'a>(
    points: &'a [TrajectoryPoint],
    name: &'a str,
) -> impl Iterator<Item = Option<f64>> + 'a {
    points.iter().map(move |p| {
        p.figures
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, median)| *median)
    })
}

/// Renders the trajectory query: one row per figure, values ordered
/// oldest ingest first.
pub fn render_trajectory(points: &[TrajectoryPoint]) -> String {
    let seqs: Vec<String> = points.iter().map(|p| p.seq.to_string()).collect();
    let mut out = format!(
        "corpus trajectory: {} bench report(s) (seq {})\n",
        points.len(),
        if seqs.is_empty() {
            "-".to_string()
        } else {
            seqs.join(" ")
        }
    );
    for name in figure_names(points) {
        let row: Vec<String> = figure_series(points, &name)
            .map(|v| v.map_or_else(|| "-".to_string(), |v| format!("{v:.0}")))
            .collect();
        out.push_str(&format!("figure {name}: median_us {}\n", row.join(" ")));
    }
    out
}

// -------------------------------------------------------- regressions

/// One regressed stage of one same-workload run pair.
#[derive(Debug, Clone, PartialEq)]
pub struct RegressionFinding {
    /// The workload both runs belong to.
    pub workload: String,
    /// Baseline (earlier) run's ingest sequence number.
    pub baseline_seq: u64,
    /// Candidate (later) run's ingest sequence number.
    pub candidate_seq: u64,
    /// The regressed stage (full span path).
    pub stage: String,
    /// `candidate_median / baseline_median`.
    pub ratio: f64,
    /// Baseline stage median, microseconds.
    pub baseline_median_us: u64,
    /// Candidate stage median, microseconds.
    pub candidate_median_us: u64,
}

/// The cross-run regression sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct RegressionReport {
    /// Runs that carry a metrics stream.
    pub runs: usize,
    /// Same-workload (baseline, candidate) pairs compared.
    pub pairs: usize,
    /// Every regressed pair-stage, worst first (descending ratio, then
    /// stage, then pair).
    pub findings: Vec<RegressionFinding>,
}

/// The `spm report` gate applied across **all** same-workload run
/// pairs: each run's metrics stream is indexed once
/// ([`StageIndex::build`]), then every earlier-vs-later pair within a
/// workload is compared under the same median/threshold/floor
/// semantics as `spm report --baseline/--candidate`.
///
/// # Errors
///
/// [`SpmError::Io`]/[`SpmError::Analysis`] when a metrics object is
/// missing or fails to re-validate.
pub fn regressions(corpus: &Corpus, cfg: &DiffConfig) -> Result<RegressionReport, SpmError> {
    let with_metrics: Vec<&RunManifest> = corpus
        .runs()
        .iter()
        .filter(|r| r.artifact(ArtifactKind::Metrics).is_some())
        .collect();
    // Index every run exactly once, in parallel; pairs below reuse the
    // indexes, so the sweep is O(runs) ingests + O(pairs) table merges
    // instead of O(pairs) full re-parses.
    let indexed: Vec<(String, u64, StageIndex)> = spm_par::try_par_map(&with_metrics, |run| {
        let artifact = run
            .artifact(ArtifactKind::Metrics)
            .ok_or_else(|| corpus_err(corpus.dir(), "metrics artifact vanished".into()))?;
        let text = corpus.read_object_text(artifact.object)?;
        let loaded = spm_report::load_str(&format!("seq{}", run.seq), &text)?;
        Ok::<_, SpmError>((run.workload.clone(), run.seq, StageIndex::build(&loaded)))
    })?;
    let mut by_workload: BTreeMap<&str, Vec<&(String, u64, StageIndex)>> = BTreeMap::new();
    for entry in &indexed {
        by_workload.entry(&entry.0).or_default().push(entry);
    }
    let mut pairs = 0;
    let mut findings = Vec::new();
    for (workload, runs) in &by_workload {
        for (i, baseline) in runs.iter().enumerate() {
            for candidate in &runs[i + 1..] {
                pairs += 1;
                for diff in diff_indexes(&baseline.2, &candidate.2, cfg) {
                    if diff.verdict != Verdict::Regressed {
                        continue;
                    }
                    let (Some(b), Some(c)) = (diff.baseline, diff.candidate) else {
                        continue;
                    };
                    findings.push(RegressionFinding {
                        workload: workload.to_string(),
                        baseline_seq: baseline.1,
                        candidate_seq: candidate.1,
                        stage: diff.path,
                        ratio: diff.ratio.unwrap_or(f64::INFINITY),
                        baseline_median_us: b.median_us,
                        candidate_median_us: c.median_us,
                    });
                }
            }
        }
    }
    findings.sort_by(|a, b| {
        b.ratio
            .partial_cmp(&a.ratio)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.stage.cmp(&b.stage))
            .then_with(|| {
                (&a.workload, a.baseline_seq, a.candidate_seq).cmp(&(
                    &b.workload,
                    b.baseline_seq,
                    b.candidate_seq,
                ))
            })
    });
    Ok(RegressionReport {
        runs: with_metrics.len(),
        pairs,
        findings,
    })
}

/// Renders the regression sweep, worst `top` findings shown.
pub fn render_regressions(report: &RegressionReport, cfg: &DiffConfig, top: usize) -> String {
    let mut out = format!(
        "corpus regressions: {} run(s) with metrics, {} pair(s), threshold={:.0}% floor={}\n",
        report.runs,
        report.pairs,
        cfg.threshold * 100.0,
        fmt_duration(cfg.min_us),
    );
    for f in report.findings.iter().take(top) {
        out.push_str(&format!(
            "  {:.2}x  {} seq {}->{}  {}  {} -> {}\n",
            f.ratio,
            f.workload,
            f.baseline_seq,
            f.candidate_seq,
            f.stage,
            fmt_duration(f.baseline_median_us),
            fmt_duration(f.candidate_median_us),
        ));
    }
    if report.findings.len() > top {
        out.push_str(&format!(
            "  ... {} more (showing top {top})\n",
            report.findings.len() - top
        ));
    }
    out.push_str(&format!(
        "verdict: {}\n",
        if report.findings.is_empty() {
            "PASS".to_string()
        } else {
            format!("FAIL ({} regressed pair-stage(s))", report.findings.len())
        }
    ));
    out
}

/// Turns a failing sweep into [`SpmError::Regression`] (exit code 10),
/// naming the worst pair-stage — the corpus counterpart of
/// [`spm_report::gate`].
///
/// # Errors
///
/// [`SpmError::Regression`] when any pair-stage regressed.
pub fn gate(report: &RegressionReport) -> Result<(), SpmError> {
    let Some(worst) = report.findings.first() else {
        return Ok(());
    };
    Err(SpmError::Regression {
        stage: worst.stage.clone(),
        message: format!(
            "{} seq {}->{}: median {} -> {} ({:.2}x); {} regressed pair-stage(s) across {} pair(s)",
            worst.workload,
            worst.baseline_seq,
            worst.candidate_seq,
            fmt_duration(worst.baseline_median_us),
            fmt_duration(worst.candidate_median_us),
            worst.ratio,
            report.findings.len(),
            report.pairs,
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(seq: u64, figures: &[(&str, f64)]) -> TrajectoryPoint {
        TrajectoryPoint {
            seq,
            label: format!("p{seq}"),
            figures: figures.iter().map(|(n, v)| (n.to_string(), *v)).collect(),
        }
    }

    #[test]
    fn trajectory_rows_align_and_pad_missing_points() {
        let points = [
            point(1, &[("a", 10.0)]),
            point(2, &[("a", 12.0), ("b", 5.0)]),
        ];
        let text = render_trajectory(&points);
        assert!(text.contains("2 bench report(s) (seq 1 2)"), "{text}");
        assert!(text.contains("figure a: median_us 10 12"), "{text}");
        assert!(text.contains("figure b: median_us - 5"), "{text}");
        // Figure rows are the whole trajectory: nothing else is trended.
        assert_eq!(text.lines().count(), 3, "{text}");
    }

    #[test]
    fn empty_trajectory_renders_header_only() {
        let text = render_trajectory(&[]);
        assert!(text.contains("0 bench report(s)"), "{text}");
    }

    #[test]
    fn stability_fractions_render_two_decimals() {
        let groups = [WorkloadStability {
            workload: "gzip".into(),
            runs: 3,
            markers: vec![
                MarkerSurvival {
                    marker: "edge a b".into(),
                    survived: 3,
                },
                MarkerSurvival {
                    marker: "edge c d".into(),
                    survived: 1,
                },
            ],
        }];
        let text = render_stability(&groups);
        assert!(text.contains("1.00  3/3  edge a b"), "{text}");
        assert!(text.contains("0.33  1/3  edge c d"), "{text}");
    }

    #[test]
    fn gate_names_the_worst_pair() {
        let report = RegressionReport {
            runs: 4,
            pairs: 2,
            findings: vec![RegressionFinding {
                workload: "gzip".into(),
                baseline_seq: 1,
                candidate_seq: 3,
                stage: "sim/run".into(),
                ratio: 3.0,
                baseline_median_us: 10_000,
                candidate_median_us: 30_000,
            }],
        };
        let err = gate(&report).unwrap_err();
        let SpmError::Regression { stage, message } = &err else {
            panic!("wrong class: {err}");
        };
        assert_eq!(stage, "sim/run");
        assert!(message.contains("seq 1->3"), "{message}");
        assert_eq!(err.exit_code(), 10);
        assert!(gate(&RegressionReport {
            runs: 0,
            pairs: 0,
            findings: vec![]
        })
        .is_ok());
    }

    #[test]
    fn marker_lines_drop_header_comments_and_blanks() {
        let lines = marker_lines("markers v1\n\n# c\nedge a b\ngroup L1 4\n");
        assert_eq!(
            lines,
            vec!["edge a b".to_string(), "group L1 4".to_string()]
        );
    }
}
