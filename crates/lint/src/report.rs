//! Findings, severities, and the human/JSON report renderers.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// How a finding is treated by the gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Not reported at all.
    Allow,
    /// Reported, never fails the gate.
    Warn,
    /// Fails `sma-lint --deny`.
    Deny,
}

impl Severity {
    /// Lower-case label used in reports and `lint.toml`.
    #[must_use]
    pub(crate) fn label(self) -> &'static str {
        match self {
            Severity::Allow => "allow",
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        }
    }
}

/// One rule violation that survived suppression.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule id (kebab-case, as configured in `lint.toml`).
    pub rule: &'static str,
    /// Effective severity after configuration.
    pub severity: Severity,
    /// Workspace-relative file path (forward slashes).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// What went wrong and what to use instead.
    pub message: String,
    /// The offending source line, trimmed.
    pub excerpt: String,
}

/// A finding silenced by a justified inline suppression (kept in the
/// report so reviewers can audit every exemption).
#[derive(Debug, Clone)]
pub struct SuppressedFinding {
    /// Rule id that fired.
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line of the suppressed finding.
    pub line: u32,
    /// The suppression's justification text.
    pub justification: String,
}

/// Everything one lint run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Findings that survived suppression, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Findings silenced by justified suppressions.
    pub suppressed: Vec<SuppressedFinding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// The workspace's public surface, one sorted line per `pub` item.
    pub surface: Vec<String>,
}

impl Report {
    /// Number of deny-severity findings (the gate's failure count).
    #[must_use]
    pub fn deny_count(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Deny)
            .count()
    }

    /// Number of warn-severity findings.
    #[must_use]
    pub(crate) fn warn_count(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Warn)
            .count()
    }

    /// Renders the human-readable report (one `file:line` block per
    /// finding plus a summary line).
    #[must_use]
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let _ = writeln!(
                out,
                "{}[{}] {}:{}: {}\n    {}",
                f.severity.label(),
                f.rule,
                f.file,
                f.line,
                f.message,
                f.excerpt
            );
        }
        let _ = writeln!(
            out,
            "sma-lint: {} file(s) scanned, {} deny, {} warn, {} suppressed (justified)",
            self.files_scanned,
            self.deny_count(),
            self.warn_count(),
            self.suppressed.len()
        );
        out
    }

    /// Renders the machine-readable report (hand-rolled JSON: the
    /// workspace has no serialisation dependency).
    #[must_use]
    pub(crate) fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(
            out,
            "  \"files_scanned\": {},\n  \"deny\": {},\n  \"warn\": {},\n  \"findings\": [",
            self.files_scanned,
            self.deny_count(),
            self.warn_count()
        );
        for (i, f) in self.findings.iter().enumerate() {
            let comma = if i + 1 == self.findings.len() {
                ""
            } else {
                ","
            };
            let _ = writeln!(
                out,
                "    {{\"rule\": \"{}\", \"severity\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"}}{comma}",
                f.rule,
                f.severity.label(),
                escape(&f.file),
                f.line,
                escape(&f.message)
            );
        }
        out.push_str("  ],\n  \"suppressed\": [\n");
        for (i, s) in self.suppressed.iter().enumerate() {
            let comma = if i + 1 == self.suppressed.len() {
                ""
            } else {
                ","
            };
            let _ = writeln!(
                out,
                "    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"justification\": \"{}\"}}{comma}",
                s.rule,
                escape(&s.file),
                s.line,
                escape(&s.justification)
            );
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes the public surface to `path`, one item per line.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_surface(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let mut text = self.surface.join("\n");
        text.push('\n');
        std::fs::write(path, text)
    }

    /// Writes the JSON report to `path`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_json(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

/// Minimal JSON string escaping.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report {
            findings: vec![Finding {
                rule: "wallclock",
                severity: Severity::Deny,
                file: "crates/x/src/lib.rs".into(),
                line: 3,
                message: "wall clock in \"model\" code".into(),
                excerpt: "let t = Instant::now();".into(),
            }],
            suppressed: vec![SuppressedFinding {
                rule: "float-eq",
                file: "crates/y/src/lib.rs".into(),
                line: 9,
                justification: "exact-zero divide guard".into(),
            }],
            files_scanned: 2,
            surface: Vec::new(),
        }
    }

    #[test]
    fn human_report_carries_file_line_spans() {
        let text = sample().render_human();
        assert!(text.contains("deny[wallclock] crates/x/src/lib.rs:3:"));
        assert!(text.contains("1 deny, 0 warn, 1 suppressed"));
    }

    #[test]
    fn json_report_is_balanced_and_escaped() {
        let json = sample().to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\\\"model\\\""));
        assert!(json.contains("\"deny\": 1"));
        assert!(json.contains("\"justification\": \"exact-zero divide guard\""));
    }
}
