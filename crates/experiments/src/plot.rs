//! A small dependency-free SVG line-chart renderer.
//!
//! The Rust scientific-plotting ecosystem is thin, and the paper's results
//! are figures; this module turns the experiment series into
//! self-contained SVG files (`target/experiments/*.svg`) with axes, ticks
//! and a legend — enough to *see* Fig. 4b/4c/5a-style curves without
//! external tooling. CSV artifacts remain the machine-readable source.

use std::fmt::Write as _;

/// One named line on a chart.
#[derive(Clone, Debug, PartialEq)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// `(x, y)` points in data coordinates.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates a series.
    pub fn new(label: impl Into<String>, points: Vec<(f64, f64)>) -> Self {
        Series {
            label: label.into(),
            points,
        }
    }
}

/// A line chart with axes, tick labels and a legend.
///
/// # Example
///
/// ```
/// use coop_experiments::plot::{LineChart, Series};
/// let chart = LineChart::new("demo", "x", "y")
///     .with_series(Series::new("a", vec![(0.0, 0.0), (1.0, 1.0)]));
/// let svg = chart.to_svg();
/// assert!(svg.starts_with("<svg"));
/// assert!(svg.contains("polyline"));
/// ```
#[derive(Clone, Debug)]
pub struct LineChart {
    title: String,
    x_label: String,
    y_label: String,
    series: Vec<Series>,
    width: u32,
    height: u32,
}

/// A colorblind-friendly six-line palette (one color per algorithm).
const PALETTE: [&str; 6] = [
    "#4477aa", "#ee6677", "#228833", "#ccbb44", "#66ccee", "#aa3377",
];

const MARGIN_LEFT: f64 = 64.0;
const MARGIN_RIGHT: f64 = 150.0;
const MARGIN_TOP: f64 = 36.0;
const MARGIN_BOTTOM: f64 = 48.0;

impl LineChart {
    /// Creates an empty chart.
    pub fn new(
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        LineChart {
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
            width: 720,
            height: 420,
        }
    }

    /// Adds a series (builder style).
    pub fn with_series(mut self, series: Series) -> Self {
        self.series.push(series);
        self
    }

    /// Adds a series in place.
    pub fn push_series(&mut self, series: Series) -> &mut Self {
        self.series.push(series);
        self
    }

    /// Number of series.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// Returns true if the chart has no series.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    fn bounds(&self) -> Option<(f64, f64, f64, f64)> {
        let mut pts = self
            .series
            .iter()
            .flat_map(|s| s.points.iter())
            .filter(|p| p.0.is_finite() && p.1.is_finite())
            .peekable();
        pts.peek()?;
        let mut min_x = f64::INFINITY;
        let mut max_x = f64::NEG_INFINITY;
        let mut min_y = f64::INFINITY;
        let mut max_y = f64::NEG_INFINITY;
        for &(x, y) in pts {
            min_x = min_x.min(x);
            max_x = max_x.max(x);
            min_y = min_y.min(y);
            max_y = max_y.max(y);
        }
        // Avoid degenerate ranges.
        if (max_x - min_x).abs() < f64::EPSILON {
            max_x = min_x + 1.0;
        }
        if (max_y - min_y).abs() < f64::EPSILON {
            max_y = min_y + 1.0;
        }
        Some((min_x, max_x, min_y, max_y))
    }

    /// Renders the chart as a standalone SVG document. Charts with no
    /// finite points render an empty frame with the title.
    pub fn to_svg(&self) -> String {
        let w = self.width as f64;
        let h = self.height as f64;
        let plot_w = w - MARGIN_LEFT - MARGIN_RIGHT;
        let plot_h = h - MARGIN_TOP - MARGIN_BOTTOM;
        let mut svg = String::new();
        let _ = write!(
            svg,
            r#"<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" viewBox="0 0 {w} {h}" font-family="sans-serif">"#
        );
        let _ = write!(
            svg,
            r#"<rect width="{w}" height="{h}" fill="white"/><text x="{tx}" y="22" font-size="14" text-anchor="middle">{title}</text>"#,
            tx = MARGIN_LEFT + plot_w / 2.0,
            title = escape(&self.title),
        );
        // Frame.
        let _ = write!(
            svg,
            r##"<rect x="{x}" y="{y}" width="{pw}" height="{ph}" fill="none" stroke="#888"/>"##,
            x = MARGIN_LEFT,
            y = MARGIN_TOP,
            pw = plot_w,
            ph = plot_h,
        );
        if let Some((min_x, max_x, min_y, max_y)) = self.bounds() {
            let sx = |x: f64| MARGIN_LEFT + (x - min_x) / (max_x - min_x) * plot_w;
            let sy = |y: f64| MARGIN_TOP + plot_h - (y - min_y) / (max_y - min_y) * plot_h;
            // Ticks: 5 per axis.
            for i in 0..=4 {
                let fx = min_x + (max_x - min_x) * i as f64 / 4.0;
                let fy = min_y + (max_y - min_y) * i as f64 / 4.0;
                let _ = write!(
                    svg,
                    r##"<line x1="{x}" y1="{y0}" x2="{x}" y2="{y1}" stroke="#ddd"/><text x="{x}" y="{ty}" font-size="10" text-anchor="middle">{label}</text>"##,
                    x = sx(fx),
                    y0 = MARGIN_TOP,
                    y1 = MARGIN_TOP + plot_h,
                    ty = MARGIN_TOP + plot_h + 16.0,
                    label = tick(fx),
                );
                let _ = write!(
                    svg,
                    r##"<line x1="{x0}" y1="{y}" x2="{x1}" y2="{y}" stroke="#ddd"/><text x="{tx}" y="{y}" font-size="10" text-anchor="end" dominant-baseline="middle">{label}</text>"##,
                    x0 = MARGIN_LEFT,
                    x1 = MARGIN_LEFT + plot_w,
                    y = sy(fy),
                    tx = MARGIN_LEFT - 6.0,
                    label = tick(fy),
                );
            }
            // Series.
            for (i, s) in self.series.iter().enumerate() {
                let color = PALETTE[i % PALETTE.len()];
                let pts: String = s
                    .points
                    .iter()
                    .filter(|p| p.0.is_finite() && p.1.is_finite())
                    .map(|&(x, y)| format!("{:.2},{:.2}", sx(x), sy(y)))
                    .collect::<Vec<_>>()
                    .join(" ");
                if !pts.is_empty() {
                    let _ = write!(
                        svg,
                        r#"<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.8"/>"#
                    );
                }
                // Legend entry.
                let ly = MARGIN_TOP + 14.0 * i as f64 + 8.0;
                let _ = write!(
                    svg,
                    r#"<line x1="{x0}" y1="{ly}" x2="{x1}" y2="{ly}" stroke="{color}" stroke-width="2"/><text x="{tx}" y="{ly}" font-size="11" dominant-baseline="middle">{label}</text>"#,
                    x0 = w - MARGIN_RIGHT + 8.0,
                    x1 = w - MARGIN_RIGHT + 28.0,
                    tx = w - MARGIN_RIGHT + 34.0,
                    label = escape(&s.label),
                );
            }
        }
        // Axis labels.
        let _ = write!(
            svg,
            r#"<text x="{x}" y="{y}" font-size="12" text-anchor="middle">{label}</text>"#,
            x = MARGIN_LEFT + plot_w / 2.0,
            y = h - 10.0,
            label = escape(&self.x_label),
        );
        let _ = write!(
            svg,
            r#"<text x="14" y="{y}" font-size="12" text-anchor="middle" transform="rotate(-90 14 {y})">{label}</text>"#,
            y = MARGIN_TOP + plot_h / 2.0,
            label = escape(&self.y_label),
        );
        svg.push_str("</svg>");
        svg
    }
}

fn escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

fn tick(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1000.0 {
        format!("{:.0}", v)
    } else if v.abs() >= 10.0 {
        format!("{:.1}", v)
    } else {
        format!("{:.2}", v)
    }
}

impl crate::OutputDir {
    /// Writes a chart as `{name}.svg`.
    ///
    /// # Errors
    ///
    /// Returns any I/O error.
    pub fn svg(&self, name: &str, chart: &LineChart) -> std::io::Result<std::path::PathBuf> {
        let path = self.path().join(format!("{name}.svg"));
        coop_telemetry::write_atomic_str(&path, &chart.to_svg())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> LineChart {
        LineChart::new("t", "x", "y")
            .with_series(Series::new("a", vec![(0.0, 0.0), (10.0, 5.0)]))
            .with_series(Series::new("b", vec![(0.0, 5.0), (10.0, 0.0)]))
    }

    #[test]
    fn svg_is_well_formed_enough() {
        let svg = demo().to_svg();
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>"));
        assert_eq!(svg.matches("<polyline").count(), 2);
        // Legend labels present.
        assert!(svg.contains(">a</text>"));
        assert!(svg.contains(">b</text>"));
    }

    #[test]
    fn empty_chart_renders_frame_only() {
        let svg = LineChart::new("empty", "x", "y").to_svg();
        assert!(svg.contains("<rect"));
        assert!(!svg.contains("<polyline"));
    }

    #[test]
    fn nan_points_are_dropped() {
        let chart = LineChart::new("t", "x", "y").with_series(Series::new(
            "a",
            vec![(0.0, f64::NAN), (1.0, 1.0), (2.0, 2.0)],
        ));
        let svg = chart.to_svg();
        assert!(svg.contains("<polyline"));
        assert!(!svg.contains("NaN"));
    }

    #[test]
    fn degenerate_ranges_do_not_divide_by_zero() {
        let chart = LineChart::new("t", "x", "y")
            .with_series(Series::new("a", vec![(1.0, 2.0), (1.0, 2.0)]));
        let svg = chart.to_svg();
        assert!(svg.contains("<polyline"));
        assert!(!svg.contains("inf"));
    }

    #[test]
    fn labels_are_escaped() {
        let svg = LineChart::new("a < b & c", "x", "y").to_svg();
        assert!(svg.contains("a &lt; b &amp; c"));
    }

    #[test]
    fn svg_writes_to_disk() {
        let dir = std::env::temp_dir().join(format!("coop-svg-{}", std::process::id()));
        let out = crate::OutputDir::new(dir);
        let path = out.svg("demo", &demo()).unwrap();
        let text = std::fs::read_to_string(path).unwrap();
        assert!(text.contains("</svg>"));
    }
}
