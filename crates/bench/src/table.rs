//! Plain-text table rendering and CSV output for the harness binaries.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// Renders rows as an aligned plain-text table with a header rule.
///
/// # Example
///
/// ```
/// use sma_bench::table::render_table;
///
/// let t = render_table(
///     &["name", "value"],
///     &[vec!["a".into(), "1".into()], vec!["bb".into(), "22".into()]],
/// );
/// assert!(t.contains("name"));
/// assert!(t.lines().count() >= 4);
/// ```
#[must_use]
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    for (i, h) in headers.iter().enumerate() {
        let _ = write!(out, "{:<width$}  ", h, width = widths[i]);
    }
    out.push('\n');
    for (i, _) in headers.iter().enumerate() {
        let _ = write!(out, "{}  ", "-".repeat(widths[i]));
    }
    out.push('\n');
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            let _ = write!(out, "{:<width$}  ", cell, width = widths[i]);
        }
        out.push('\n');
    }
    out
}

/// Writes rows as CSV under `results/<name>.csv`, creating the directory.
///
/// # Errors
///
/// Propagates filesystem errors.
pub(crate) fn write_csv(name: &str, headers: &[&str], rows: &[Vec<String>]) -> io::Result<()> {
    let dir = Path::new("results");
    fs::create_dir_all(dir)?;
    let mut out = String::new();
    out.push_str(&headers.join(","));
    out.push('\n');
    for row in rows {
        out.push_str(&row.join(","));
        out.push('\n');
    }
    fs::write(dir.join(format!("{name}.csv")), out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = render_table(&["a", "long-header"], &[vec!["xxxx".into(), "1".into()]]);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("long-header"));
        assert!(lines[1].starts_with("----"));
    }

    #[test]
    fn empty_rows_render_header_only() {
        let t = render_table(&["x"], &[]);
        assert_eq!(t.lines().count(), 2);
    }
}
