//! Aligned plain-text table rendering for the benchmark binaries.
//!
//! The paper's evaluation is presented as three tables; the `table1/2/3`
//! binaries format their reproduced counterparts with this helper so the
//! output can be diffed and pasted into `EXPERIMENTS.md` directly.

use std::fmt;

/// A simple fixed-column text table.
///
/// # Examples
///
/// ```
/// use pg_util::Table;
/// let mut t = Table::new(&["Dataset", "Error (%)"]);
/// t.row(vec!["Atax".into(), "11.18".into()]);
/// let s = t.to_string();
/// assert!(s.contains("Atax"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "table row width mismatch");
        self.rows.push(cells);
    }

    /// Convenience: formats a float with `prec` decimals.
    pub fn fmt_f(v: f64, prec: usize) -> String {
        format!("{v:.prec$}")
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if no rows have been added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ncol = self.header.len();
        let mut width = vec![0usize; ncol];
        for (i, h) in self.header.iter().enumerate() {
            width[i] = h.len();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                width[i] = width[i].max(c.len());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:width$}", c, width = width[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        writeln!(f, "{}", fmt_row(&self.header))?;
        writeln!(
            f,
            "{}",
            "-".repeat(width.iter().sum::<usize>() + 2 * (ncol - 1))
        )?;
        for row in &self.rows {
            writeln!(f, "{}", fmt_row(row))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(&["A", "Bee"]);
        t.row(vec!["xx".into(), "1".into()]);
        let s = t.to_string();
        assert!(s.contains("A   Bee"));
        assert!(s.contains("xx  1"));
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    fn fmt_f_precision() {
        assert_eq!(Table::fmt_f(1.23456, 2), "1.23");
    }

    #[test]
    #[should_panic]
    fn row_width_mismatch_panics() {
        Table::new(&["A"]).row(vec!["1".into(), "2".into()]);
    }
}
