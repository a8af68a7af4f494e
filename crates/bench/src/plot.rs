//! Minimal self-contained SVG line charts, enough to regenerate the paper's
//! figures (log-scale latency/throughput curves and the YCSB bar-ish chart)
//! without any plotting dependency.

use std::fmt::Write as _;

/// One plotted series.
#[derive(Clone, Debug)]
pub struct Series {
    /// Legend label.
    pub name: String,
    /// `(x, y)` samples in data coordinates; non-positive values are skipped
    /// on log axes.
    pub points: Vec<(f64, f64)>,
}

/// Axis scale.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Linear axis with ~5 ticks.
    Linear,
    /// Log10 axis with decade ticks.
    Log,
}

const W: f64 = 820.0;
const H: f64 = 520.0;
const ML: f64 = 70.0; // left margin
const MR: f64 = 180.0; // room for the legend
const MT: f64 = 46.0;
const MB: f64 = 60.0;

const PALETTE: [&str; 8] = [
    "#d62728", // red (acuerdo, like the paper)
    "#1f77b4", // blue
    "#2ca02c", // green
    "#ff7f0e", // orange
    "#9467bd", // purple
    "#8c564b", // brown
    "#17becf", // cyan
    "#7f7f7f", // grey
];

struct Axis {
    scale: Scale,
    min: f64,
    max: f64,
}

impl Axis {
    fn fit(scale: Scale, values: impl Iterator<Item = f64>) -> Axis {
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for v in values {
            if scale == Scale::Log && v <= 0.0 {
                continue;
            }
            min = min.min(v);
            max = max.max(v);
        }
        if !min.is_finite() || !max.is_finite() {
            min = 0.0;
            max = 1.0;
        }
        match scale {
            Scale::Log => Axis {
                scale,
                min: 10f64.powf(min.log10().floor()),
                max: 10f64.powf(max.log10().ceil()),
            },
            Scale::Linear => Axis {
                scale,
                min: 0.0f64.min(min),
                max: max * 1.05 + f64::EPSILON,
            },
        }
    }

    fn frac(&self, v: f64) -> Option<f64> {
        match self.scale {
            Scale::Log => {
                if v <= 0.0 {
                    return None;
                }
                Some((v.log10() - self.min.log10()) / (self.max.log10() - self.min.log10()))
            }
            Scale::Linear => Some((v - self.min) / (self.max - self.min)),
        }
    }

    fn ticks(&self) -> Vec<f64> {
        match self.scale {
            Scale::Log => {
                let lo = self.min.log10().round() as i32;
                let hi = self.max.log10().round() as i32;
                (lo..=hi).map(|e| 10f64.powi(e)).collect()
            }
            Scale::Linear => {
                let n = 5;
                (0..=n)
                    .map(|i| self.min + (self.max - self.min) * i as f64 / n as f64)
                    .collect()
            }
        }
    }
}

fn fmt_tick(v: f64) -> String {
    if v == 0.0 {
        return "0".into();
    }
    let a = v.abs();
    if a >= 1e6 {
        format!("{:.0}M", v / 1e6)
    } else if a >= 1e3 {
        format!("{:.0}k", v / 1e3)
    } else if a >= 10.0 {
        format!("{v:.0}")
    } else if a >= 1.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.2}")
    }
}

/// Render a line chart as an SVG document.
///
/// Empty series (or series whose points all fall off a log axis) are kept in
/// the legend but draw nothing.
pub fn line_chart(
    title: &str,
    xlabel: &str,
    ylabel: &str,
    xscale: Scale,
    yscale: Scale,
    series: &[Series],
) -> String {
    let xs = Axis::fit(
        xscale,
        series.iter().flat_map(|s| s.points.iter().map(|p| p.0)),
    );
    let ys = Axis::fit(
        yscale,
        series.iter().flat_map(|s| s.points.iter().map(|p| p.1)),
    );
    let px = |fx: f64| ML + fx * (W - ML - MR);
    let py = |fy: f64| H - MB - fy * (H - MT - MB);

    let mut out = String::new();
    let _ = writeln!(
        out,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" viewBox="0 0 {W} {H}" font-family="sans-serif">"#
    );
    let _ = writeln!(out, r#"<rect width="{W}" height="{H}" fill="white"/>"#);
    let _ = writeln!(
        out,
        r#"<text x="{}" y="24" font-size="17" text-anchor="middle" font-weight="bold">{}</text>"#,
        (W - MR + ML) / 2.0,
        title
    );

    // Grid + ticks.
    for t in xs.ticks() {
        if let Some(f) = xs.frac(t) {
            let x = px(f);
            let _ = writeln!(
                out,
                r##"<line x1="{x:.1}" y1="{}" x2="{x:.1}" y2="{}" stroke="#e5e5e5"/>"##,
                MT,
                H - MB
            );
            let _ = writeln!(
                out,
                r#"<text x="{x:.1}" y="{}" font-size="12" text-anchor="middle">{}</text>"#,
                H - MB + 18.0,
                fmt_tick(t)
            );
        }
    }
    for t in ys.ticks() {
        if let Some(f) = ys.frac(t) {
            let y = py(f);
            let _ = writeln!(
                out,
                r##"<line x1="{}" y1="{y:.1}" x2="{}" y2="{y:.1}" stroke="#e5e5e5"/>"##,
                ML,
                W - MR
            );
            let _ = writeln!(
                out,
                r#"<text x="{}" y="{:.1}" font-size="12" text-anchor="end">{}</text>"#,
                ML - 6.0,
                y + 4.0,
                fmt_tick(t)
            );
        }
    }
    // Axes.
    let _ = writeln!(
        out,
        r#"<line x1="{ML}" y1="{}" x2="{}" y2="{}" stroke="black"/>"#,
        H - MB,
        W - MR,
        H - MB
    );
    let _ = writeln!(
        out,
        r#"<line x1="{ML}" y1="{MT}" x2="{ML}" y2="{}" stroke="black"/>"#,
        H - MB
    );
    let _ = writeln!(
        out,
        r#"<text x="{}" y="{}" font-size="14" text-anchor="middle">{}</text>"#,
        (W - MR + ML) / 2.0,
        H - 14.0,
        xlabel
    );
    let _ = writeln!(
        out,
        r#"<text x="20" y="{}" font-size="14" text-anchor="middle" transform="rotate(-90 20 {})">{}</text>"#,
        (H - MB + MT) / 2.0,
        (H - MB + MT) / 2.0,
        ylabel
    );

    // Series.
    for (i, s) in series.iter().enumerate() {
        let color = PALETTE[i % PALETTE.len()];
        let pts: Vec<(f64, f64)> = s
            .points
            .iter()
            .filter_map(|&(x, y)| Some((px(xs.frac(x)?), py(ys.frac(y)?))))
            .collect();
        if pts.len() > 1 {
            let path_d: String = pts
                .iter()
                .enumerate()
                .map(|(j, (x, y))| format!("{}{x:.1},{y:.1} ", if j == 0 { "M" } else { "L" }))
                .collect();
            let _ = writeln!(
                out,
                r#"<path d="{path_d}" fill="none" stroke="{color}" stroke-width="2"/>"#
            );
        }
        for (x, y) in &pts {
            let _ = writeln!(
                out,
                r#"<circle cx="{x:.1}" cy="{y:.1}" r="3" fill="{color}"/>"#
            );
        }
        // Legend.
        let ly = MT + 8.0 + i as f64 * 20.0;
        let lx = W - MR + 14.0;
        let _ = writeln!(
            out,
            r#"<line x1="{lx}" y1="{ly}" x2="{}" y2="{ly}" stroke="{color}" stroke-width="3"/>"#,
            lx + 22.0
        );
        let _ = writeln!(
            out,
            r#"<text x="{}" y="{}" font-size="13">{}</text>"#,
            lx + 28.0,
            ly + 4.0,
            s.name
        );
    }
    let _ = writeln!(out, "</svg>");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_axis_fits_decades() {
        let a = Axis::fit(Scale::Log, [12.0, 900.0].into_iter());
        assert_eq!(a.min, 10.0);
        assert_eq!(a.max, 1000.0);
        assert_eq!(a.ticks(), vec![10.0, 100.0, 1000.0]);
        assert!(a.frac(10.0).unwrap().abs() < 1e-12);
        assert!((a.frac(1000.0).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn log_axis_skips_nonpositive() {
        let a = Axis::fit(Scale::Log, [0.0, -5.0, 100.0].into_iter());
        assert_eq!(a.min, 100.0);
        assert!(a.frac(0.0).is_none());
    }

    #[test]
    fn linear_axis_includes_zero() {
        let a = Axis::fit(Scale::Linear, [2.0, 8.0].into_iter());
        assert_eq!(a.min, 0.0);
        assert!(a.max >= 8.0);
        assert_eq!(a.ticks().len(), 6);
    }

    #[test]
    fn tick_formatting() {
        assert_eq!(fmt_tick(0.0), "0");
        assert_eq!(fmt_tick(1_500_000.0), "2M");
        assert_eq!(fmt_tick(3_000.0), "3k");
        assert_eq!(fmt_tick(42.0), "42");
        assert_eq!(fmt_tick(1.5), "1.5");
        assert_eq!(fmt_tick(0.25), "0.25");
    }

    #[test]
    fn chart_renders_valid_svg() {
        let series = vec![
            Series {
                name: "a".into(),
                points: vec![(0.1, 10.0), (1.0, 100.0), (2.0, 50.0)],
            },
            Series {
                name: "empty".into(),
                points: vec![],
            },
        ];
        let svg = line_chart("test", "x", "y (log)", Scale::Linear, Scale::Log, &series);
        assert!(svg.starts_with("<svg"));
        assert!(svg.contains("</svg>"));
        assert!(svg.contains("polyline") || svg.contains("<path"));
        assert!(svg.contains(">a<"));
    }
}
