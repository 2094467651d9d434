//! Plain-text rendering of tables, series and CDFs for the reproduction
//! harness (`repro` prints the paper's tables and figures through these).
//!
//! Every renderable piece — a [`TextTable`], a [`CdfFigure`], a
//! [`SeriesFigure`] — implements the [`Rendered`] trait, and a
//! [`FigureBuilder`] composes pieces into one figure string. The live
//! passes and the query-layer plans share this single rendering path,
//! which is what makes their outputs byte-comparable.

use std::fmt::Write as _;

use remnant_sim::stats::{Ecdf, Series};

/// A piece of a figure that renders to stable plain text.
///
/// # Example
///
/// ```
/// use remnant_core::report::{Rendered, SeriesFigure};
/// use remnant_sim::stats::Series;
///
/// let mut s = Series::new("JOIN");
/// s.push(1.0, 100.0);
/// assert!(SeriesFigure::new(&s).rendered().contains("JOIN"));
/// ```
pub trait Rendered {
    /// Appends this piece's text to `out`.
    fn render_into(&self, out: &mut String);

    /// This piece's text as an owned string.
    fn rendered(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }
}

/// A simple aligned text table.
///
/// # Example
///
/// ```
/// use remnant_core::report::TextTable;
///
/// let mut table = TextTable::new(["Provider", "Hidden", "Verified"]);
/// table.row(["Cloudflare", "3504", "24.8%"]);
/// let rendered = table.to_string();
/// assert!(rendered.contains("Cloudflare"));
/// assert!(rendered.lines().count() >= 3);
/// ```
#[derive(Clone, Debug, Default)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given headers.
    pub fn new<S: Into<String>>(headers: impl IntoIterator<Item = S>) -> Self {
        TextTable {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (short rows are padded with empty cells).
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) -> &mut Self {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        row.resize(self.headers.len(), String::new());
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl std::fmt::Display for TextTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let render_row = |f: &mut std::fmt::Formatter<'_>, cells: &[String]| {
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    f.write_str("  ")?;
                }
                write!(f, "{cell:<width$}", width = widths[i])?;
            }
            writeln!(f)
        };
        render_row(f, &self.headers)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            render_row(f, row)?;
        }
        Ok(())
    }
}

impl Rendered for TextTable {
    fn render_into(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }
}

/// An empirical CDF sampled at integer day marks `1..=max_days`.
#[derive(Clone, Copy, Debug)]
pub struct CdfFigure<'a> {
    label: &'a str,
    cdf: &'a Ecdf,
    max_days: u64,
}

impl<'a> CdfFigure<'a> {
    /// A CDF figure labeled `label`, sampled at days `1..=max_days`.
    pub fn new(label: &'a str, cdf: &'a Ecdf, max_days: u64) -> Self {
        CdfFigure {
            label,
            cdf,
            max_days,
        }
    }
}

impl Rendered for CdfFigure<'_> {
    fn render_into(&self, out: &mut String) {
        let _ = writeln!(out, "CDF: {} ({} samples)", self.label, self.cdf.len());
        for day in 1..=self.max_days {
            let fraction = self.cdf.fraction_le(day as f64);
            let bar = "#".repeat((fraction * 40.0).round() as usize);
            let _ = writeln!(out, "  <= {day:>2}d  {:>6}  {bar}", percent(fraction));
        }
    }
}

/// An (x, y) series as `x: y` lines with a bar proportional to the
/// series maximum.
#[derive(Clone, Copy, Debug)]
pub struct SeriesFigure<'a> {
    series: &'a Series,
}

impl<'a> SeriesFigure<'a> {
    /// A figure for `series`.
    pub fn new(series: &'a Series) -> Self {
        SeriesFigure { series }
    }
}

impl Rendered for SeriesFigure<'_> {
    fn render_into(&self, out: &mut String) {
        let max = self.series.max_y().unwrap_or(0.0).max(1.0);
        let _ = writeln!(
            out,
            "Series: {} (mean {:.1})",
            self.series.label(),
            self.series.mean_y().unwrap_or(0.0)
        );
        for (x, y) in self.series.points() {
            let bar = "#".repeat(((y / max) * 40.0).round() as usize);
            let _ = writeln!(out, "  {x:>5.0}  {y:>8.1}  {bar}");
        }
    }
}

/// Composes [`Rendered`] pieces and free-form lines into one figure.
///
/// # Example
///
/// ```
/// use remnant_core::report::{FigureBuilder, TextTable};
///
/// let mut table = TextTable::new(["Provider", "Sites"]);
/// table.row(["Cloudflare", "412"]);
/// let figure = FigureBuilder::new()
///     .line("FIG 2: DPS adoption breakdown")
///     .table(&table)
///     .finish();
/// assert!(figure.starts_with("FIG 2"));
/// assert!(figure.contains("Cloudflare"));
/// ```
#[derive(Clone, Debug, Default)]
pub struct FigureBuilder {
    out: String,
}

impl FigureBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        FigureBuilder::default()
    }

    /// Appends one line (a trailing newline is added).
    pub fn line(mut self, line: impl std::fmt::Display) -> Self {
        let _ = writeln!(self.out, "{line}");
        self
    }

    /// Appends raw text as-is (no newline added).
    pub fn text(mut self, text: impl AsRef<str>) -> Self {
        self.out.push_str(text.as_ref());
        self
    }

    /// Appends any [`Rendered`] piece.
    pub fn piece(mut self, piece: &impl Rendered) -> Self {
        piece.render_into(&mut self.out);
        self
    }

    /// Appends a [`TextTable`].
    pub fn table(self, table: &TextTable) -> Self {
        self.piece(table)
    }

    /// Appends a [`CdfFigure`] for `cdf`.
    pub fn cdf(self, label: &str, cdf: &Ecdf, max_days: u64) -> Self {
        self.piece(&CdfFigure::new(label, cdf, max_days))
    }

    /// Appends a [`SeriesFigure`] for `series`.
    pub fn series(self, series: &Series) -> Self {
        self.piece(&SeriesFigure::new(series))
    }

    /// Appends an empty line.
    pub fn blank(mut self) -> Self {
        self.out.push('\n');
        self
    }

    /// The assembled figure.
    pub fn finish(self) -> String {
        self.out
    }
}

/// Formats a fraction as `12.3%`.
pub fn percent(fraction: f64) -> String {
    format!("{:.1}%", fraction * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment_and_padding() {
        let mut t = TextTable::new(["A", "LongHeader"]);
        t.row(["xxxx"]); // short row padded
        t.row(["y", "z"]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("LongHeader"));
        assert!(lines[1].starts_with('-'));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        assert_eq!(t.rendered(), s, "Rendered matches Display");
    }

    #[test]
    fn percent_formatting() {
        assert_eq!(percent(0.248), "24.8%");
        assert_eq!(percent(0.0), "0.0%");
        assert_eq!(percent(1.0), "100.0%");
    }

    #[test]
    fn cdf_rendering_is_monotone() {
        let cdf: Ecdf = [1.0, 2.0, 6.0].into_iter().collect();
        let out = CdfFigure::new("pauses", &cdf, 7).rendered();
        assert!(out.contains("3 samples"));
        assert_eq!(out.lines().count(), 8);
    }

    #[test]
    fn series_rendering() {
        let mut s = Series::new("JOIN");
        s.push(1.0, 100.0);
        s.push(2.0, 200.0);
        let out = SeriesFigure::new(&s).rendered();
        assert!(out.contains("JOIN"));
        assert!(out.contains("mean 150.0"));
    }

    #[test]
    fn empty_series_renders() {
        let out = SeriesFigure::new(&Series::new("empty")).rendered();
        assert!(out.contains("empty"));
    }

    #[test]
    fn figure_builder_composes_pieces() {
        let mut table = TextTable::new(["K", "V"]);
        table.row(["a", "1"]);
        let cdf: Ecdf = [1.0].into_iter().collect();
        let mut series = Series::new("S");
        series.push(0.0, 2.0);
        let figure = FigureBuilder::new()
            .line("TITLE")
            .table(&table)
            .blank()
            .cdf("c", &cdf, 2)
            .series(&series)
            .text("tail")
            .finish();
        assert!(figure.starts_with("TITLE\n"));
        assert!(figure.contains(&table.rendered()));
        assert!(figure.contains("CDF: c"));
        assert!(figure.contains("Series: S"));
        assert!(figure.ends_with("tail"));
    }
}
