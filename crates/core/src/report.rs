//! Plain-text table and CSV emitters for the experiment binaries.
//!
//! Experiments print both a human-readable aligned table (the shape of the
//! paper's tables) and machine-readable CSV, so either can be quoted. No
//! serialization framework is needed for this.

use std::fmt::Write as _;

/// A simple column-aligned text table.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Starts a table with the given column headers.
    pub fn new<S: Into<String>>(headers: impl IntoIterator<Item = S>) -> TextTable {
        TextTable {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; short rows are padded with empty cells.
    pub fn push_row<S: Into<String>>(&mut self, row: impl IntoIterator<Item = S>) {
        let mut cells: Vec<String> = row.into_iter().map(Into::into).collect();
        cells.resize(self.headers.len(), String::new());
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders with aligned columns, a header rule, and two-space gutters.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let emit = |cells: &[String], out: &mut String| {
            for (i, cell) in cells.iter().enumerate().take(cols) {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{cell:<width$}", width = widths[i]);
            }
            // Trim the trailing pad of the final column.
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        emit(&self.headers, &mut out);
        let rule: usize = widths.iter().sum::<usize>() + 2 * cols.saturating_sub(1);
        out.push_str(&"-".repeat(rule));
        out.push('\n');
        for row in &self.rows {
            emit(row, &mut out);
        }
        out
    }

    /// Renders as CSV (RFC-4180 quoting via [`csv_escape`]).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let emit_row = |cells: &[String], out: &mut String| {
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&csv_escape(cell));
            }
            out.push('\n');
        };
        emit_row(&self.headers, &mut out);
        for row in &self.rows {
            emit_row(row, &mut out);
        }
        out
    }
}

/// RFC-4180 escaping for one CSV cell: cells containing a comma, quote,
/// or line break (LF **or** CR) are wrapped in quotes with inner quotes
/// doubled; all others pass through unchanged. Every CSV emitter in the
/// workspace must route cells through this — factorization-class cells
/// like `{1,3,28}` would otherwise split into three columns.
pub fn csv_escape(cell: &str) -> std::borrow::Cow<'_, str> {
    if cell.contains([',', '"', '\n', '\r']) {
        std::borrow::Cow::Owned(format!("\"{}\"", cell.replace('"', "\"\"")))
    } else {
        std::borrow::Cow::Borrowed(cell)
    }
}

/// Formats a count with thousands separators (`223059` → `"223,059"`),
/// matching the paper's number style.
pub fn with_commas(n: u128) -> String {
    let digits = n.to_string();
    let mut out = String::with_capacity(digits.len() + digits.len() / 3);
    let offset = digits.len() % 3;
    for (i, c) in digits.chars().enumerate() {
        if i > 0 && (i + 3 - offset).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let mut t = TextTable::new(["HD", "from", "to"]);
        t.push_row(["6", "1", "16360"]);
        t.push_row(["4", "16361", "114663"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("HD"));
        assert!(lines[1].chars().all(|c| c == '-'));
        assert!(lines[3].contains("114663"));
        assert!(!t.is_empty());
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn pads_short_rows() {
        let mut t = TextTable::new(["a", "b", "c"]);
        t.push_row(["1"]);
        assert!(t.render().contains('1'));
        assert_eq!(t.to_csv().lines().nth(1), Some("1,,"));
    }

    #[test]
    fn csv_quotes_special_cells() {
        let mut t = TextTable::new(["name", "value"]);
        t.push_row(["has,comma", "has\"quote"]);
        let csv = t.to_csv();
        assert!(csv.contains("\"has,comma\""));
        assert!(csv.contains("\"has\"\"quote\""));
    }

    #[test]
    fn csv_escape_covers_rfc4180() {
        assert_eq!(csv_escape("plain"), "plain");
        assert_eq!(csv_escape(""), "");
        assert_eq!(csv_escape("a,b"), "\"a,b\"");
        assert_eq!(csv_escape("a\"b"), "\"a\"\"b\"");
        assert_eq!(csv_escape("a\nb"), "\"a\nb\"");
        // CR alone must also trigger quoting (previously missed).
        assert_eq!(csv_escape("a\rb"), "\"a\rb\"");
        // The survey leaderboard's class-signature cells.
        assert_eq!(csv_escape("{1,3,28}"), "\"{1,3,28}\"");
    }

    #[test]
    fn csv_class_signature_stays_one_cell() {
        // A leaderboard-shaped row: the factorization class contains
        // commas and must come back as a single quoted field.
        let mut t = TextTable::new(["poly", "class", "hd"]);
        t.push_row(["0xBA0DC66B", "{1,3,28}", "6"]);
        let line = t.to_csv().lines().nth(1).unwrap().to_string();
        assert_eq!(line, "0xBA0DC66B,\"{1,3,28}\",6");
        // Naive comma-splitting outside quotes yields exactly 3 fields.
        let mut fields = 0;
        let mut in_quotes = false;
        for c in line.chars() {
            match c {
                '"' => in_quotes = !in_quotes,
                ',' if !in_quotes => fields += 1,
                _ => {}
            }
        }
        assert_eq!(fields + 1, 3);
    }

    #[test]
    fn comma_formatting() {
        assert_eq!(with_commas(0), "0");
        assert_eq!(with_commas(999), "999");
        assert_eq!(with_commas(1000), "1,000");
        assert_eq!(with_commas(223_059), "223,059");
        assert_eq!(with_commas(1_073_774_592), "1,073,774,592");
    }
}
