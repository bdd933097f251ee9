//! Plain-text result tables.
//!
//! The experiment binaries report every reproduced result as a table (plus,
//! where a trend matters, an ASCII figure). Tables render as aligned
//! monospace text for the terminal, as CSV for downstream plotting, and as
//! Markdown for EXPERIMENTS.md.

use std::fmt;

/// A simple rectangular table of strings with a header row.
///
/// # Examples
///
/// ```
/// use faultnet_analysis::table::Table;
///
/// let mut table = Table::new(["n", "probes"]);
/// table.push_row(["10", "124"]);
/// table.push_row(["20", "251"]);
/// assert_eq!(table.num_rows(), 2);
/// assert!(table.to_text().contains("probes"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    title: Option<String>,
}

impl Table {
    /// Creates an empty table with the given column headers.
    pub fn new<I, S>(headers: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
            title: None,
        }
    }

    /// Sets a title printed above the table.
    #[must_use]
    pub fn with_title(mut self, title: impl Into<String>) -> Self {
        self.title = Some(title.into());
        self
    }

    /// The table title, if any.
    pub fn title(&self) -> Option<&str> {
        self.title.as_deref()
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.headers.len()
    }

    /// Number of data rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Appends a row of cells.
    ///
    /// # Panics
    ///
    /// Panics if the number of cells differs from the number of columns.
    pub fn push_row<I, S>(&mut self, cells: I)
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row has {} cells but the table has {} columns",
            row.len(),
            self.headers.len()
        );
        self.rows.push(row);
    }

    /// The header row.
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// The data rows.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Renders the table as aligned monospace text.
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (cell, width) in row.iter().zip(widths.iter_mut()) {
                *width = (*width).max(cell.len());
            }
        }
        let mut out = String::new();
        if let Some(title) = &self.title {
            out.push_str(title);
            out.push('\n');
        }
        let render_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, (cell, width)) in cells.iter().zip(widths).enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{cell:>width$}"));
            }
            line
        };
        out.push_str(&render_row(&self.headers, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Renders the table as GitHub-flavoured Markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        if let Some(title) = &self.title {
            out.push_str(&format!("**{title}**\n\n"));
        }
        out.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        out.push_str(&format!("|{}\n", " --- |".repeat(self.headers.len())));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_text())
    }
}

/// Formats a float with a sensible number of significant digits for tables.
pub fn fmt_float(value: f64) -> String {
    if value.is_nan() {
        "-".to_string()
    } else if value == 0.0 {
        "0".to_string()
    } else if value.abs() >= 1000.0 || value.abs() < 0.01 {
        format!("{value:.3e}")
    } else {
        format!("{value:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new(["p", "mean probes", "success"]).with_title("demo");
        t.push_row(["0.3", "120.5", "0.92"]);
        t.push_row(["0.6", "48.1", "1.00"]);
        t
    }

    #[test]
    fn text_rendering_is_aligned() {
        let t = sample();
        let text = t.to_text();
        assert!(text.starts_with("demo\n"));
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5); // title, header, rule, 2 rows
        assert!(lines[1].contains("mean probes"));
        assert!(lines[2].starts_with('-'));
        // All data lines have equal length (alignment).
        assert_eq!(lines[1].len(), lines[3].len());
        assert_eq!(lines[3].len(), lines[4].len());
        assert_eq!(t.to_string(), text);
    }

    #[test]
    fn markdown_rendering() {
        let md = sample().to_markdown();
        assert!(md.contains("**demo**"));
        assert!(md.contains("| p | mean probes | success |"));
        assert!(md.contains("| --- | --- | --- |"));
        assert!(md.contains("| 0.6 | 48.1 | 1.00 |"));
    }

    #[test]
    fn accessors() {
        let t = sample();
        assert_eq!(t.num_columns(), 3);
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.title(), Some("demo"));
        assert_eq!(t.headers()[0], "p");
        assert_eq!(t.rows()[1][1], "48.1");
    }

    #[test]
    #[should_panic(expected = "columns")]
    fn mismatched_row_length_panics() {
        let mut t = Table::new(["a", "b"]);
        t.push_row(["only one"]);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_float(f64::NAN), "-");
        assert_eq!(fmt_float(0.0), "0");
        assert_eq!(fmt_float(1.23456), "1.235");
        assert!(fmt_float(123456.0).contains('e'));
        assert!(fmt_float(0.0001).contains('e'));
    }
}
