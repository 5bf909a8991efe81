//! Single-file HTML dashboard over the corpus queries.
//!
//! Same discipline as the report flame HTML: one inline `<style>`
//! block, no scripts, no fonts, no external assets of any kind — the
//! file can be archived as a CI artifact and opened offline. Trajectory
//! series render as unicode sparklines (block glyphs normalized per
//! series), so the "chart" is plain text too.

use crate::query::{
    figure_names, figure_series, RegressionReport, TrajectoryPoint, WorkloadStability,
};
use crate::Corpus;
use spm_report::html::escape;
use spm_report::{flame::fmt_duration, DiffConfig};

const STYLE: &str = "\
body { font-family: monospace; background: #1c1c28; color: #e8e8f0; margin: 2em; }\n\
h1, h2 { color: #8ab4f8; font-weight: normal; }\n\
table { border-collapse: collapse; margin: 0.5em 0 1.5em; }\n\
th, td { text-align: left; padding: 2px 12px 2px 0; }\n\
th { color: #9a9ab0; font-weight: normal; border-bottom: 1px solid #3a3a50; }\n\
.meta { color: #9a9ab0; }\n\
.good { color: #7ac87a; }\n\
.bad { color: #e07a5f; }\n\
.spark { color: #3c7ab4; letter-spacing: 1px; }\n\
.bar { display: inline-block; background: #3c7ab4; height: 0.7em; }\n";

/// Renders a numeric series as a unicode sparkline, normalized to the
/// series' own min..max (a flat series renders mid-height).
pub fn sparkline(values: &[f64]) -> String {
    const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &v in values {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    values
        .iter()
        .map(|&v| {
            let t = if hi > lo { (v - lo) / (hi - lo) } else { 0.5 };
            GLYPHS[((t * 7.0).round() as usize).min(7)]
        })
        .collect()
}

fn stability_section(groups: &[WorkloadStability], out: &mut String) {
    let runs: usize = groups.iter().map(|g| g.runs).sum();
    out.push_str(&format!(
        "<h2>marker stability <span class=\"meta\">({runs} run(s), {} workload(s))</span></h2>\n",
        groups.len()
    ));
    for g in groups {
        out.push_str(&format!(
            "<h2>{} <span class=\"meta\">{} run(s), {} marker(s)</span></h2>\n",
            escape(&g.workload),
            g.runs,
            g.markers.len()
        ));
        out.push_str("<table>\n<tr><th>survival</th><th>runs</th><th></th><th>marker</th></tr>\n");
        for m in &g.markers {
            let fraction = g.fraction(m);
            let class = if fraction >= 1.0 { "good" } else { "bad" };
            out.push_str(&format!(
                "<tr><td class=\"{class}\">{:.2}</td><td>{}/{}</td>\
                 <td><span class=\"bar\" style=\"width:{:.0}px\"></span></td>\
                 <td>{}</td></tr>\n",
                fraction,
                m.survived,
                g.runs,
                fraction * 80.0,
                escape(&m.marker),
            ));
        }
        out.push_str("</table>\n");
    }
}

fn trajectory_section(points: &[TrajectoryPoint], out: &mut String) {
    out.push_str(&format!(
        "<h2>perf trajectory <span class=\"meta\">({} ingested bench report(s))</span></h2>\n",
        points.len()
    ));
    if points.is_empty() {
        out.push_str("<p class=\"meta\">no bench reports ingested</p>\n");
        return;
    }
    out.push_str(
        "<table>\n<tr><th>series</th><th>trend (oldest→latest)</th><th>latest</th><th></th></tr>\n",
    );
    for name in figure_names(points) {
        let series: Vec<f64> = figure_series(points, &name).flatten().collect();
        let latest = series.last().copied().unwrap_or(0.0);
        out.push_str(&format!(
            "<tr><td>{}</td><td class=\"spark\">{}</td><td>{latest:.0}</td><td class=\"meta\">us median</td></tr>\n",
            escape(&name),
            sparkline(&series),
        ));
    }
    out.push_str("</table>\n");
}

fn regressions_section(report: &RegressionReport, cfg: &DiffConfig, top: usize, out: &mut String) {
    out.push_str(&format!(
        "<h2>cross-run regressions <span class=\"meta\">({} run(s), {} pair(s), \
         threshold {:.0}%, floor {})</span></h2>\n",
        report.runs,
        report.pairs,
        cfg.threshold * 100.0,
        fmt_duration(cfg.min_us),
    ));
    if report.findings.is_empty() {
        out.push_str("<p class=\"good\">PASS — no pair-stage beyond the noise threshold</p>\n");
        return;
    }
    out.push_str(&format!(
        "<p class=\"bad\">FAIL — {} regressed pair-stage(s)</p>\n",
        report.findings.len()
    ));
    out.push_str(
        "<table>\n<tr><th>ratio</th><th>workload</th><th>pair</th><th>stage</th>\
         <th>baseline</th><th>candidate</th></tr>\n",
    );
    for f in report.findings.iter().take(top) {
        out.push_str(&format!(
            "<tr><td class=\"bad\">{:.2}x</td><td>{}</td><td>seq {}→{}</td>\
             <td>{}</td><td>{}</td><td>{}</td></tr>\n",
            f.ratio,
            escape(&f.workload),
            f.baseline_seq,
            f.candidate_seq,
            escape(&f.stage),
            fmt_duration(f.baseline_median_us),
            fmt_duration(f.candidate_median_us),
        ));
    }
    out.push_str("</table>\n");
    if report.findings.len() > top {
        out.push_str(&format!(
            "<p class=\"meta\">... {} more (showing top {top})</p>\n",
            report.findings.len() - top
        ));
    }
}

/// Renders the corpus dashboard: summary, stability tables, trajectory
/// sparklines, and the regression list, as one self-contained page.
pub fn render(
    corpus: &Corpus,
    stability: &[WorkloadStability],
    trajectory: &[TrajectoryPoint],
    regressions: &RegressionReport,
    cfg: &DiffConfig,
    top: usize,
) -> String {
    let mut body = String::new();
    let objects: u64 = {
        let mut keys: Vec<u64> = corpus
            .runs()
            .iter()
            .flat_map(|r| r.artifacts.iter().map(|a| a.object))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        keys.len() as u64
    };
    // No corpus path in the page: the dashboard must be byte-identical
    // wherever the corpus lives (CI artifact diffs, --jobs identity).
    body.push_str(&format!(
        "<p class=\"meta\">{} run(s), {objects} distinct object(s)</p>\n",
        corpus.runs().len(),
    ));
    stability_section(stability, &mut body);
    trajectory_section(trajectory, &mut body);
    regressions_section(regressions, cfg, top, &mut body);
    format!(
        "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n\
         <title>spm corpus</title>\n<style>\n{STYLE}</style>\n</head>\n<body>\n\
         <h1>spm corpus</h1>\n{body}</body>\n</html>\n"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparkline_normalizes_per_series() {
        assert_eq!(sparkline(&[0.0, 1.0]), "▁█");
        assert_eq!(sparkline(&[5.0, 5.0, 5.0]), "▅▅▅");
        assert_eq!(sparkline(&[]), "");
        let s = sparkline(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.chars().count(), 4);
        assert!(s.starts_with('▁') && s.ends_with('█'), "{s}");
    }
}
