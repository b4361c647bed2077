//! `hopper report`: render telemetry series into a self-contained
//! HTML/SVG page.
//!
//! The input is the JSON-lines format written by
//! [`TelemetrySeries::to_jsonl`](crate::TelemetrySeries::to_jsonl) —
//! the repo's own flat, stable contract, so the parser here is a few
//! string scans rather than a JSON library (the crate has no external
//! dependencies). The output embeds everything inline: no scripts, no
//! stylesheets fetched over the network, no image URLs — CI asserts the
//! page contains no `http(s)://` reference at all.
//!
//! One run renders as a column of per-metric panels; two runs (A/B)
//! overlay as two colored polylines per panel, which is how
//! fault-storm or policy regressions are eyeballed nightly.

/// One window of chart-ready data (derived JCT stats, no sketch).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WindowRow {
    /// Window index.
    pub index: u64,
    /// Busy slots at the window-end boundary.
    pub busy: u64,
    /// Queue depth at the window-end boundary.
    pub queue: u64,
    /// Live jobs at the window-end boundary.
    pub live: u64,
    /// Completions inside the window.
    pub completed: u64,
    /// Original launches inside the window.
    pub orig: u64,
    /// Speculative launches inside the window.
    pub spec: u64,
    /// Speculative wins inside the window.
    pub spec_won: u64,
    /// Kills inside the window.
    pub killed: u64,
    /// Messages inside the window.
    pub msgs: u64,
    /// Events inside the window.
    pub events: u64,
    /// Jobs in the window's JCT digest.
    pub jct_count: u64,
    /// Mean JCT (ms) of jobs completing in the window.
    pub jct_mean_ms: f64,
    /// p50 JCT (ms) of jobs completing in the window.
    pub jct_p50_ms: f64,
    /// p99 JCT (ms) of jobs completing in the window.
    pub jct_p99_ms: f64,
    /// Max JCT (ms) of jobs completing in the window.
    pub jct_max_ms: u64,
}

/// A parsed (or converted) series ready for rendering.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesData {
    /// Run label (spec render or file stem).
    pub label: String,
    /// Seed of the run.
    pub seed: u64,
    /// Window width (simulation ms).
    pub window_ms: u64,
    /// Slot capacity (for the utilization panel).
    pub total_slots: u64,
    /// Chart rows in window order.
    pub rows: Vec<WindowRow>,
}

/// Extract the raw text of `"key":<value>` from one JSONL line, up to
/// the next `,` or `}` (values in our format never contain either).
fn raw_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

fn u64_field(line: &str, key: &str) -> Result<u64, String> {
    raw_field(line, key)
        .ok_or_else(|| format!("missing field `{key}`"))?
        .parse()
        .map_err(|e| format!("bad u64 `{key}`: {e}"))
}

fn f64_field(line: &str, key: &str) -> Result<f64, String> {
    raw_field(line, key)
        .ok_or_else(|| format!("missing field `{key}`"))?
        .parse()
        .map_err(|e| format!("bad f64 `{key}`: {e}"))
}

fn str_field(line: &str, key: &str) -> Result<String, String> {
    let raw = raw_field(line, key).ok_or_else(|| format!("missing field `{key}`"))?;
    Some(raw)
        .filter(|r| r.len() >= 2 && r.starts_with('"') && r.ends_with('"'))
        .map(|r| r[1..r.len() - 1].to_string())
        .ok_or_else(|| format!("field `{key}` is not a string"))
}

/// Parse one telemetry JSONL document (as written by
/// [`TelemetrySeries::to_jsonl`](crate::TelemetrySeries::to_jsonl))
/// into chart-ready data. Errors name the offending line.
pub fn parse_jsonl(text: &str) -> Result<SeriesData, String> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let meta = lines.next().ok_or("empty telemetry file")?;
    if raw_field(meta, "meta") != Some("true") {
        return Err("first line is not a telemetry meta line".into());
    }
    let mut data = SeriesData {
        label: str_field(meta, "label")?,
        seed: u64_field(meta, "seed")?,
        window_ms: u64_field(meta, "window_ms")?,
        total_slots: u64_field(meta, "total_slots")?,
        rows: Vec::new(),
    };
    let declared = u64_field(meta, "windows")?;
    for (i, line) in lines.enumerate() {
        let row = (|| -> Result<WindowRow, String> {
            Ok(WindowRow {
                index: u64_field(line, "w")?,
                busy: u64_field(line, "busy")?,
                queue: u64_field(line, "queue")?,
                live: u64_field(line, "live")?,
                completed: u64_field(line, "completed")?,
                orig: u64_field(line, "orig")?,
                spec: u64_field(line, "spec")?,
                spec_won: u64_field(line, "spec_won")?,
                killed: u64_field(line, "killed")?,
                msgs: u64_field(line, "msgs")?,
                events: u64_field(line, "events")?,
                jct_count: u64_field(line, "jct_count")?,
                jct_mean_ms: f64_field(line, "jct_mean_ms")?,
                jct_p50_ms: f64_field(line, "jct_p50_ms")?,
                jct_p99_ms: f64_field(line, "jct_p99_ms")?,
                jct_max_ms: u64_field(line, "jct_max_ms")?,
            })
        })()
        .map_err(|e| format!("window line {}: {e}", i + 2))?;
        data.rows.push(row);
    }
    if data.rows.len() as u64 != declared {
        return Err(format!(
            "meta declares {declared} windows, found {}",
            data.rows.len()
        ));
    }
    Ok(data)
}

/// Line colors for run A and run B.
const COLORS: [&str; 2] = ["#1f77b4", "#d62728"];
const PANEL_W: f64 = 720.0;
const PANEL_H: f64 = 110.0;
const PAD_L: f64 = 64.0;
const PAD_R: f64 = 12.0;
const GAP: f64 = 34.0;

/// One polyline: the per-window values of a single metric for one run.
fn polyline(values: &[f64], max: f64, y0: f64, color: &str) -> String {
    if values.is_empty() {
        return String::new();
    }
    let span = PANEL_W - PAD_L - PAD_R;
    let xstep = span / (values.len().max(2) - 1) as f64;
    let scale = if max > 0.0 {
        (PANEL_H - 8.0) / max
    } else {
        0.0
    };
    let pts: Vec<String> = values
        .iter()
        .enumerate()
        .map(|(i, v)| {
            format!(
                "{:.1},{:.1}",
                PAD_L + i as f64 * xstep,
                y0 + PANEL_H - 4.0 - v * scale
            )
        })
        .collect();
    format!(
        "<polyline fill=\"none\" stroke=\"{}\" stroke-width=\"1.5\" points=\"{}\"/>\n",
        color,
        pts.join(" ")
    )
}

fn fmt_max(max: f64) -> String {
    if max >= 100.0 || max == max.trunc() {
        format!("{max:.0}")
    } else {
        format!("{max:.2}")
    }
}

/// How a panel extracts its y-value from one window of one run.
type PanelValue = fn(&WindowRow, &SeriesData) -> f64;

/// Render the full multi-panel SVG (standalone: it carries its own
/// `xmlns` and white background, so it can be committed as an image).
pub fn render_svg(runs: &[SeriesData]) -> String {
    let panels: [(&str, PanelValue); 8] = [
        ("utilization (%)", |w, s| {
            if s.total_slots == 0 {
                0.0
            } else {
                100.0 * w.busy as f64 / s.total_slots as f64
            }
        }),
        ("queue depth", |w, _| w.queue as f64),
        ("live jobs", |w, _| w.live as f64),
        ("completions / window", |w, _| w.completed as f64),
        ("speculative launches / window", |w, _| w.spec as f64),
        ("kills / window", |w, _| w.killed as f64),
        ("messages / window", |w, _| w.msgs as f64),
        ("JCT p99 (ms)", |w, _| w.jct_p99_ms),
    ];
    let total_h = 28.0 + panels.len() as f64 * (PANEL_H + GAP);
    let mut svg = format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{PANEL_W:.0}\" height=\"{total_h:.0}\" font-family=\"monospace\" font-size=\"11\">\n<rect width=\"100%\" height=\"100%\" fill=\"white\"/>\n"
    );
    for (i, run) in runs.iter().take(2).enumerate() {
        svg.push_str(&format!(
            "<text x=\"{:.0}\" y=\"16\" fill=\"{}\">&#9632; {} (seed {})</text>\n",
            PAD_L + i as f64 * 360.0,
            COLORS[i],
            escape(&run.label),
            run.seed
        ));
    }
    for (p, (title, metric)) in panels.iter().enumerate() {
        let y0 = 28.0 + p as f64 * (PANEL_H + GAP);
        let series: Vec<Vec<f64>> = runs
            .iter()
            .take(2)
            .map(|run| run.rows.iter().map(|w| metric(w, run)).collect())
            .collect();
        let max = series
            .iter()
            .flatten()
            .copied()
            .fold(0.0f64, f64::max)
            .max(1e-9);
        svg.push_str(&format!(
            "<text x=\"{PAD_L:.0}\" y=\"{:.1}\" fill=\"#333\">{title}</text>\n",
            y0 + 10.0
        ));
        svg.push_str(&format!(
            "<text x=\"{:.1}\" y=\"{:.1}\" fill=\"#888\" text-anchor=\"end\">{}</text>\n",
            PAD_L - 6.0,
            y0 + 18.0,
            fmt_max(max)
        ));
        svg.push_str(&format!(
            "<line x1=\"{PAD_L:.0}\" y1=\"{:.1}\" x2=\"{:.1}\" y2=\"{:.1}\" stroke=\"#ccc\"/>\n",
            y0 + PANEL_H - 4.0,
            PANEL_W - PAD_R,
            y0 + PANEL_H - 4.0
        ));
        for (i, vals) in series.iter().enumerate() {
            svg.push_str(&polyline(vals, max, y0, COLORS[i]));
        }
    }
    svg.push_str("</svg>\n");
    svg
}

fn escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

/// Render one run (or an A/B pair) into a fully self-contained HTML
/// page: inline CSS, inline SVG, zero external references. The SVG
/// `xmlns` (optional inside HTML5) is stripped so the page contains no
/// URL-shaped string at all — CI greps for exactly that.
pub fn render_html(runs: &[SeriesData]) -> String {
    let svg = render_svg(runs).replacen(" xmlns=\"http://www.w3.org/2000/svg\"", "", 1);
    let mut rows = String::new();
    for (i, run) in runs.iter().take(2).enumerate() {
        let completed: u64 = run.rows.iter().map(|w| w.completed).sum();
        let events: u64 = run.rows.iter().map(|w| w.events).sum();
        let msgs: u64 = run.rows.iter().map(|w| w.msgs).sum();
        let kills: u64 = run.rows.iter().map(|w| w.killed).sum();
        rows.push_str(&format!(
            "<tr><td style=\"color:{}\">&#9632;</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>\n",
            COLORS[i],
            escape(&run.label),
            run.seed,
            run.rows.len(),
            completed,
            events,
            msgs,
            kills
        ));
    }
    format!(
        "<!doctype html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">\n<title>hopper report</title>\n<style>body{{font-family:monospace;margin:24px;color:#222}}table{{border-collapse:collapse;margin-bottom:16px}}td,th{{border:1px solid #ccc;padding:4px 10px;text-align:right}}th{{background:#f4f4f4}}</style>\n</head><body>\n<h1>hopper report</h1>\n<table><tr><th></th><th>run</th><th>seed</th><th>windows</th><th>completed</th><th>events</th><th>messages</th><th>kills</th></tr>\n{rows}</table>\n{svg}</body></html>\n"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{SeriesCollector, TelemetrySeries, TelemetrySnapshot};

    /// Quantize to the 3-decimal precision of the JSONL contract, so
    /// in-memory and file-round-tripped chart data compare equal.
    fn q3(x: f64) -> f64 {
        format!("{x:.3}").parse().expect("fixed-format float")
    }

    impl SeriesData {
        /// Flatten an in-memory series without a JSONL round-trip. Float
        /// fields are quantized to the JSONL contract's 3 decimals.
        fn from_series(series: &TelemetrySeries, label: &str, seed: u64) -> SeriesData {
            SeriesData {
                label: label.to_string(),
                seed,
                window_ms: series.window_ms,
                total_slots: series.total_slots,
                rows: series
                    .windows
                    .iter()
                    .map(|w| WindowRow {
                        index: w.index,
                        busy: w.busy_slots,
                        queue: w.queue_depth,
                        live: w.live_jobs,
                        completed: w.completed,
                        orig: w.orig_launched,
                        spec: w.spec_launched,
                        spec_won: w.spec_won,
                        killed: w.killed,
                        msgs: w.messages,
                        events: w.events,
                        jct_count: w.jct.count(),
                        jct_mean_ms: q3(w.jct.mean_ms()),
                        jct_p50_ms: q3(w.jct.quantile_ms(0.5)),
                        jct_p99_ms: q3(w.jct.quantile_ms(0.99)),
                        jct_max_ms: w.jct.max_ms(),
                    })
                    .collect(),
            }
        }
    }

    fn sample(seed: u64) -> SeriesData {
        let mut c = SeriesCollector::new(100, 50);
        for i in 1..=5u64 {
            let t = i * 100;
            if c.boundary_due(t) {
                c.close_to(
                    t,
                    TelemetrySnapshot {
                        busy_slots: 10 + i,
                        queue_depth: i,
                        live_jobs: 3,
                        completed: i,
                        events: i * 4,
                        ..TelemetrySnapshot::default()
                    },
                );
            }
            c.observe_jct(i * 37);
        }
        let series = c
            .finish(TelemetrySnapshot {
                completed: 6,
                events: 24,
                ..TelemetrySnapshot::default()
            })
            .unwrap();
        SeriesData::from_series(&series, "policy=hopper engine=central", seed)
    }

    #[test]
    fn jsonl_roundtrips_through_the_parser() {
        let mut c = SeriesCollector::new(100, 50);
        c.observe_jct(123);
        let series = c
            .finish(TelemetrySnapshot {
                busy_slots: 9,
                completed: 1,
                events: 7,
                ..TelemetrySnapshot::default()
            })
            .unwrap();
        let text = series.to_jsonl("label=x", 42);
        let parsed = parse_jsonl(&text).unwrap();
        assert_eq!(parsed, SeriesData::from_series(&series, "label=x", 42));
    }

    #[test]
    fn parser_errors_name_the_line() {
        let err = parse_jsonl("{\"meta\":true,\"label\":\"x\",\"seed\":0,\"window_ms\":10,\"total_slots\":5,\"windows\":1}\n{\"w\":0}\n")
            .unwrap_err();
        assert!(err.contains("window line 2"), "{err}");
    }

    #[test]
    fn html_is_self_contained() {
        let html = render_html(&[sample(1), sample(2)]);
        assert!(html.contains("<svg"));
        assert!(html.contains("polyline"));
        // Self-containment: no URL-shaped string anywhere (the SVG
        // xmlns is stripped when embedding in HTML5).
        assert!(!html.contains("http://") && !html.contains("https://"));
        assert!(!html.contains("<script") && !html.contains("<link"));
    }
}
