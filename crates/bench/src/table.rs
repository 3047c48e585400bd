//! Minimal markdown table builder for the experiment reports.

use std::fmt::Write as _;

/// A titled markdown table.
#[derive(Debug, Clone)]
pub struct Table {
    /// Experiment id, e.g. "E1 (Table 1)".
    pub id: String,
    /// One-line caption describing what the table shows.
    pub caption: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A new table with the given id, caption and column headers.
    pub fn new(id: &str, caption: &str, headers: &[&str]) -> Self {
        Self {
            id: id.to_string(),
            caption: caption.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; must match the header count.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The data rows (tests read cells back through this).
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Renders the table as GitHub-flavored markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "### {} — {}\n", self.id, self.caption);
        let _ = writeln!(out, "| {} |", self.headers.join(" | "));
        let _ = writeln!(
            out,
            "|{}|",
            self.headers
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        );
        for r in &self.rows {
            let _ = writeln!(out, "| {} |", r.join(" | "));
        }
        out
    }
}

/// Formats a float with 4 significant decimals, or "—" for non-finite.
pub fn fnum(x: f64) -> String {
    if !x.is_finite() {
        "—".to_string()
    } else if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 1000.0 {
        format!("{x:.0}")
    } else {
        format!("{x:.4}")
    }
}

/// Formats a ratio like `1.23×`, or "—" if the denominator is degenerate.
pub fn ratio(num: f64, den: f64) -> String {
    if den <= 0.0 || !num.is_finite() || !den.is_finite() {
        "—".to_string()
    } else {
        format!("{:.3}×", num / den)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_markdown() {
        let mut t = Table::new("E0", "demo", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        let md = t.to_markdown();
        assert!(md.contains("### E0 — demo"));
        assert!(md.contains("| a | b |"));
        assert!(md.contains("| 1 | 2 |"));
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn rejects_ragged_rows() {
        let mut t = Table::new("E0", "demo", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn number_formats() {
        assert_eq!(fnum(f64::INFINITY), "—");
        assert_eq!(fnum(0.0), "0");
        assert_eq!(fnum(1234.5), "1234"); // round-half-to-even
        assert_eq!(fnum(0.12345), "0.1235");
        assert_eq!(ratio(2.0, 1.0), "2.000×");
        assert_eq!(ratio(1.0, 0.0), "—");
    }
}
