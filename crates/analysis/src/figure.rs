//! ASCII figures (scatter/line plots) for terminal reports.
//!
//! The paper's "figures" are reproduced as plain-text plots printed by the
//! experiment binaries and embedded in EXPERIMENTS.md: complexity versus
//! fault exponent (the Theorem 3 transition), probes versus distance
//! (Theorem 4), probes versus graph size on log axes (Theorems 10/11), and
//! the giant-fraction and connectivity threshold curves.

/// Axis scaling of a figure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Plot the raw values.
    Linear,
    /// Plot `log10` of the values (non-positive values are dropped).
    Log,
}

/// One named data series.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Label shown in the legend (the first character doubles as the
    /// plotting glyph).
    pub label: String,
    /// The `(x, y)` points of the series.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates a named series.
    pub fn new(label: impl Into<String>, points: Vec<(f64, f64)>) -> Self {
        Series {
            label: label.into(),
            points,
        }
    }
}

/// A text-rendered scatter plot with one glyph per series.
#[derive(Debug, Clone)]
pub struct AsciiFigure {
    title: String,
    width: usize,
    height: usize,
    x_scale: Scale,
    y_scale: Scale,
    series: Vec<Series>,
}

impl AsciiFigure {
    /// Creates an empty figure with the given title and a default 64×20
    /// canvas with linear axes.
    pub fn new(title: impl Into<String>) -> Self {
        AsciiFigure {
            title: title.into(),
            width: 64,
            height: 20,
            x_scale: Scale::Linear,
            y_scale: Scale::Linear,
            series: Vec::new(),
        }
    }

    /// Sets the canvas size (columns × rows of the plotting area).
    ///
    /// # Panics
    ///
    /// Panics if either dimension is smaller than 2.
    #[must_use]
    pub fn with_size(mut self, width: usize, height: usize) -> Self {
        assert!(width >= 2 && height >= 2, "canvas must be at least 2x2");
        self.width = width;
        self.height = height;
        self
    }

    /// Sets the axis scales.
    #[must_use]
    pub fn with_scales(mut self, x_scale: Scale, y_scale: Scale) -> Self {
        self.x_scale = x_scale;
        self.y_scale = y_scale;
        self
    }

    /// Adds a data series.
    #[must_use]
    pub fn with_series(mut self, series: Series) -> Self {
        self.series.push(series);
        self
    }

    fn transform(scale: Scale, v: f64) -> Option<f64> {
        match scale {
            Scale::Linear => Some(v),
            Scale::Log => {
                if v > 0.0 {
                    Some(v.log10())
                } else {
                    None
                }
            }
        }
    }

    /// Renders the figure as multi-line text (title, canvas, axis ranges,
    /// legend). Returns a short placeholder if there are no plottable points.
    pub fn render(&self) -> String {
        let mut transformed: Vec<(usize, Vec<(f64, f64)>)> = Vec::new();
        for (index, series) in self.series.iter().enumerate() {
            let pts: Vec<(f64, f64)> = series
                .points
                .iter()
                .filter_map(|(x, y)| {
                    Some((
                        Self::transform(self.x_scale, *x)?,
                        Self::transform(self.y_scale, *y)?,
                    ))
                })
                .filter(|(x, y)| x.is_finite() && y.is_finite())
                .collect();
            transformed.push((index, pts));
        }
        let all: Vec<(f64, f64)> = transformed
            .iter()
            .flat_map(|(_, pts)| pts.iter().copied())
            .collect();
        if all.is_empty() {
            return format!("{}\n(no plottable points)\n", self.title);
        }
        let (mut min_x, mut max_x) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut min_y, mut max_y) = (f64::INFINITY, f64::NEG_INFINITY);
        for (x, y) in &all {
            min_x = min_x.min(*x);
            max_x = max_x.max(*x);
            min_y = min_y.min(*y);
            max_y = max_y.max(*y);
        }
        if (max_x - min_x).abs() < f64::EPSILON {
            max_x = min_x + 1.0;
        }
        if (max_y - min_y).abs() < f64::EPSILON {
            max_y = min_y + 1.0;
        }
        let mut canvas = vec![vec![' '; self.width]; self.height];
        for (series_index, pts) in &transformed {
            let glyph = self.series[*series_index]
                .label
                .chars()
                .next()
                .unwrap_or('*');
            for (x, y) in pts {
                let col =
                    ((x - min_x) / (max_x - min_x) * (self.width - 1) as f64).round() as usize;
                let row =
                    ((y - min_y) / (max_y - min_y) * (self.height - 1) as f64).round() as usize;
                let row = self.height - 1 - row; // y grows upwards
                canvas[row][col] = glyph;
            }
        }
        let mut out = String::new();
        out.push_str(&self.title);
        out.push('\n');
        for row in canvas {
            out.push('|');
            out.push_str(&row.into_iter().collect::<String>());
            out.push('\n');
        }
        out.push('+');
        out.push_str(&"-".repeat(self.width));
        out.push('\n');
        let scale_name = |s: Scale| match s {
            Scale::Linear => "linear",
            Scale::Log => "log10",
        };
        out.push_str(&format!(
            "x: [{min_x:.3}, {max_x:.3}] ({})   y: [{min_y:.3}, {max_y:.3}] ({})\n",
            scale_name(self.x_scale),
            scale_name(self.y_scale)
        ));
        for series in &self.series {
            let glyph = series.label.chars().next().unwrap_or('*');
            out.push_str(&format!("  {glyph} = {}\n", series.label));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_points_within_canvas() {
        let fig = AsciiFigure::new("test figure")
            .with_size(40, 10)
            .with_series(Series::new(
                "alpha",
                (0..20).map(|i| (i as f64, (i * i) as f64)).collect(),
            ));
        let text = fig.render();
        assert!(text.starts_with("test figure\n"));
        assert!(text.contains('a')); // glyph of "alpha"
        assert!(text.contains("x: [0.000, 19.000]"));
        let canvas_lines: Vec<&str> = text.lines().filter(|l| l.starts_with('|')).collect();
        assert_eq!(canvas_lines.len(), 10);
        for line in canvas_lines {
            assert!(line.len() <= 41);
        }
    }

    #[test]
    fn log_scale_drops_non_positive_values() {
        let fig = AsciiFigure::new("log plot")
            .with_scales(Scale::Log, Scale::Log)
            .with_series(Series::new(
                "s",
                vec![(0.0, 1.0), (10.0, 100.0), (100.0, 10000.0)],
            ));
        let text = fig.render();
        assert!(text.contains("log10"));
        assert!(text.contains("x: [1.000, 2.000]"));
    }

    #[test]
    fn empty_figure_has_placeholder() {
        let fig = AsciiFigure::new("empty");
        assert!(fig.render().contains("no plottable points"));
        let fig2 = AsciiFigure::new("only bad points")
            .with_scales(Scale::Log, Scale::Log)
            .with_series(Series::new("s", vec![(-1.0, -2.0)]));
        assert!(fig2.render().contains("no plottable points"));
    }

    #[test]
    fn multiple_series_use_distinct_glyphs() {
        let fig = AsciiFigure::new("two series")
            .with_series(Series::new("local", vec![(0.0, 0.0), (1.0, 10.0)]))
            .with_series(Series::new("oracle", vec![(0.0, 5.0), (1.0, 6.0)]));
        let text = fig.render();
        assert!(text.contains('l'));
        assert!(text.contains('o'));
        assert!(text.contains("l = local"));
        assert!(text.contains("o = oracle"));
    }

    #[test]
    fn degenerate_single_point() {
        let fig = AsciiFigure::new("single").with_series(Series::new("s", vec![(3.0, 4.0)]));
        let text = fig.render();
        assert!(text.contains('s'));
    }

    #[test]
    #[should_panic(expected = "canvas")]
    fn tiny_canvas_rejected() {
        let _ = AsciiFigure::new("x").with_size(1, 1);
    }
}
