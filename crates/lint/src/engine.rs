//! Workspace walking, rule dispatch, and suppression resolution.
//!
//! [`lint_workspace`] discovers every member crate from the root
//! `Cargo.toml`, scans each crate's `src/` tree (sorted traversal —
//! the report itself must be deterministic), and funnels every file
//! through [`lint_source`] and, outside `crates/shims/`, through
//! `surface_lines` for the public-surface file. Integration-test,
//! example and bench trees are not model code and are not scanned;
//! `#[cfg(test)]` items inside `src/` are skipped per rule via the
//! lexer's test ranges.

use crate::config::Config;
use crate::lexer::{lex, Suppression};
use crate::report::{Finding, Report, Severity, SuppressedFinding};
use crate::rules::{RULES, SUPPRESSION_RULE, UNUSED_SUPPRESSION_RULE};
use crate::surface::surface_lines;
use std::io;
use std::path::{Path, PathBuf};

/// One workspace member: package name and its `src/` directory.
#[derive(Debug, Clone)]
pub(crate) struct CrateSrc {
    /// Package name from the member's `Cargo.toml`.
    pub name: String,
    /// The member's `src/` directory, relative to the workspace root.
    pub src_dir: PathBuf,
}

/// Lints every member crate under `root` against `config`.
///
/// # Errors
///
/// Propagates filesystem errors (unreadable `Cargo.toml` or sources).
pub fn lint_workspace(root: &Path, config: &Config) -> io::Result<Report> {
    let mut report = Report::default();
    for member in discover_members(root)? {
        let mut files = Vec::new();
        collect_rs_files(&root.join(&member.src_dir), &mut files)?;
        for path in files {
            let source = std::fs::read_to_string(&path)?;
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            let (findings, suppressed) = lint_source(&member.name, &rel, &source, config);
            report.findings.extend(findings);
            report.suppressed.extend(suppressed);
            report.files_scanned += 1;
            if !member.src_dir.starts_with("crates/shims") {
                let file = path
                    .strip_prefix(root.join(&member.src_dir))
                    .unwrap_or(&path)
                    .to_string_lossy()
                    .replace('\\', "/");
                report
                    .surface
                    .extend(surface_lines(&member.name, &file, &lex(&source)));
            }
        }
    }
    report.surface.sort();
    report.surface.dedup();
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    report
        .suppressed
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(report)
}

/// Lints one source file, returning the surviving findings and the
/// justified suppressions that fired.
///
/// This is the unit the fixture tests drive: `crate_name` picks the
/// `lint.toml` severity column, `rel_path` is used for display and for
/// the per-rule sanctioned-file check (`Config::is_sanctioned`).
#[must_use]
pub fn lint_source(
    crate_name: &str,
    rel_path: &str,
    source: &str,
    config: &Config,
) -> (Vec<Finding>, Vec<SuppressedFinding>) {
    let lexed = lex(source);
    let lines: Vec<&str> = source.lines().collect();
    let excerpt = |line: u32| {
        lines
            .get(line.saturating_sub(1) as usize)
            .map_or(String::new(), |l| l.trim().to_string())
    };
    let file_name = Path::new(rel_path)
        .file_name()
        .map_or(String::new(), |n| n.to_string_lossy().into_owned());

    let mut findings = Vec::new();
    let mut suppressed = Vec::new();
    let mut used = vec![false; lexed.suppressions.len()];

    for rule in RULES {
        let severity = config.severity(crate_name, rule.id);
        if severity == Severity::Allow {
            continue;
        }
        if config.is_sanctioned(rule.id, rel_path, &file_name) {
            continue;
        }
        for raw in (rule.check)(&lexed.toks) {
            if !rule.applies_in_tests && lexed.in_test_code(raw.line) {
                continue;
            }
            match find_suppression(&lexed.suppressions, rule.id, raw.line) {
                Some(index) => {
                    used[index] = true;
                    let s = &lexed.suppressions[index];
                    if s.justification.is_empty() {
                        // Blanket suppression: the original finding
                        // stands AND the suppression itself is a
                        // deny-severity finding.
                        findings.push(Finding {
                            rule: SUPPRESSION_RULE,
                            severity: Severity::Deny,
                            file: rel_path.to_string(),
                            line: s.comment_line,
                            message: format!(
                                "suppression of `{}` carries no justification; write `// sma-lint: allow({}) — <reason>`",
                                rule.id, rule.id
                            ),
                            excerpt: excerpt(s.comment_line),
                        });
                        findings.push(finding_from(rule.id, severity, rel_path, &raw, &excerpt));
                    } else {
                        suppressed.push(SuppressedFinding {
                            rule: rule.id,
                            file: rel_path.to_string(),
                            line: raw.line,
                            justification: s.justification.clone(),
                        });
                    }
                }
                None => findings.push(finding_from(rule.id, severity, rel_path, &raw, &excerpt)),
            }
        }
    }

    // Meta pass over the suppressions themselves: malformed markers are
    // deny; justified markers that silenced nothing are warn (stale
    // exemptions rot the policy).
    for (index, s) in lexed.suppressions.iter().enumerate() {
        if lexed.in_test_code(s.comment_line) {
            continue;
        }
        if s.rules.is_empty() {
            findings.push(Finding {
                rule: SUPPRESSION_RULE,
                severity: Severity::Deny,
                file: rel_path.to_string(),
                line: s.comment_line,
                message:
                    "malformed sma-lint marker; expected `// sma-lint: allow(<rule>) — <reason>`"
                        .into(),
                excerpt: excerpt(s.comment_line),
            });
        } else if !used[index] {
            let unknown: Vec<&String> = s
                .rules
                .iter()
                .filter(|r| !RULES.iter().any(|known| &known.id == r))
                .collect();
            let message = if unknown.is_empty() {
                format!(
                    "suppression of `{}` on line {} silenced nothing; remove it",
                    s.rules.join(", "),
                    s.covers_line
                )
            } else {
                format!(
                    "suppression names unknown rule(s) {}; see docs/DETERMINISM.md for the registry",
                    unknown
                        .iter()
                        .map(|r| format!("`{r}`"))
                        .collect::<Vec<_>>()
                        .join(", ")
                )
            };
            findings.push(Finding {
                rule: UNUSED_SUPPRESSION_RULE,
                severity: if unknown.is_empty() {
                    Severity::Warn
                } else {
                    Severity::Deny
                },
                file: rel_path.to_string(),
                line: s.comment_line,
                message,
                excerpt: excerpt(s.comment_line),
            });
        }
    }

    (findings, suppressed)
}

fn finding_from(
    rule: &'static str,
    severity: Severity,
    rel_path: &str,
    raw: &crate::rules::RawFinding,
    excerpt: &impl Fn(u32) -> String,
) -> Finding {
    Finding {
        rule,
        severity,
        file: rel_path.to_string(),
        line: raw.line,
        message: raw.message.clone(),
        excerpt: excerpt(raw.line),
    }
}

/// Index of the suppression covering `line` for `rule_id`, if any.
fn find_suppression(suppressions: &[Suppression], rule_id: &str, line: u32) -> Option<usize> {
    suppressions
        .iter()
        .position(|s| s.covers_line == line && s.rules.iter().any(|r| r == rule_id))
}

/// Parses the root `Cargo.toml` for `members = [...]` plus the root
/// package itself, and resolves each member's package name.
fn discover_members(root: &Path) -> io::Result<Vec<CrateSrc>> {
    let manifest = std::fs::read_to_string(root.join("Cargo.toml"))?;
    let mut members = Vec::new();
    if let Some(name) = package_name(&manifest) {
        members.push(CrateSrc {
            name,
            src_dir: PathBuf::from("src"),
        });
    }
    for dir in member_dirs(&manifest) {
        let member_manifest = std::fs::read_to_string(root.join(&dir).join("Cargo.toml"))?;
        let Some(name) = package_name(&member_manifest) else {
            continue;
        };
        members.push(CrateSrc {
            name,
            src_dir: PathBuf::from(dir).join("src"),
        });
    }
    Ok(members)
}

/// The `[package] name` of one manifest.
fn package_name(manifest: &str) -> Option<String> {
    let mut in_package = false;
    for line in manifest.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
            continue;
        }
        if in_package {
            if let Some(value) = line.strip_prefix("name") {
                let value = value.trim_start().strip_prefix('=')?.trim();
                return Some(value.trim_matches('"').to_string());
            }
        }
    }
    None
}

/// The quoted entries of the workspace `members = [...]` array.
fn member_dirs(manifest: &str) -> Vec<String> {
    let Some(start) = manifest.find("members") else {
        return Vec::new();
    };
    let Some(open) = manifest[start..].find('[') else {
        return Vec::new();
    };
    let Some(close) = manifest[start + open..].find(']') else {
        return Vec::new();
    };
    manifest[start + open + 1..start + open + close]
        .split(',')
        .map(|s| s.trim().trim_matches('"').to_string())
        .filter(|s| !s.is_empty())
        .collect()
}

/// Recursively collects `.rs` files, sorted by name at every level so
/// the report order is machine-independent.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .collect::<io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn justified_suppression_moves_finding_to_the_suppressed_list() {
        let config = Config::default();
        let src = "fn f() {\n    let t = Instant::now(); // sma-lint: allow(wallclock) — harness timing, not model time\n}\n";
        let (findings, suppressed) = lint_source("sma-core", "x.rs", src, &config);
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(suppressed.len(), 1);
        assert_eq!(suppressed[0].rule, "wallclock");
        assert!(suppressed[0].justification.contains("harness timing"));
    }

    #[test]
    fn blanket_suppression_is_deny_and_does_not_suppress() {
        let config = Config::default();
        let src = "fn f() {\n    let t = Instant::now(); // sma-lint: allow(wallclock)\n}\n";
        let (findings, suppressed) = lint_source("sma-core", "x.rs", src, &config);
        assert!(suppressed.is_empty());
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings
            .iter()
            .any(|f| f.rule == "suppression-justification"));
        assert!(findings.iter().any(|f| f.rule == "wallclock"));
    }

    #[test]
    fn unused_suppression_warns_and_unknown_rule_denies() {
        let config = Config::default();
        let src = "// sma-lint: allow(wallclock) — stale\nfn f() { let x = 1; }\n";
        let (findings, _) = lint_source("sma-core", "x.rs", src, &config);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "unused-suppression");
        assert_eq!(findings[0].severity, Severity::Warn);

        let src = "// sma-lint: allow(no-such-rule) — typo\nfn f() { let x = 1; }\n";
        let (findings, _) = lint_source("sma-core", "x.rs", src, &config);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].severity, Severity::Deny);
    }

    #[test]
    fn test_code_is_skipped_for_scoped_rules_but_not_unsafe() {
        let config = Config::default();
        let src = "#[cfg(test)]\nmod tests {\n    use std::time::Instant;\n    fn f() { unsafe { } }\n}\n";
        let (findings, _) = lint_source("sma-core", "x.rs", src, &config);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "unsafe-code");
    }

    #[test]
    fn env_read_sanctioned_file_is_exempt() {
        let mut config = Config::default();
        config
            .sanctioned
            .insert("env-read".into(), vec!["knobs.rs".into()]);
        let src = "pub fn threads() -> usize { std::env::var(\"SMA_T\").ok().and_then(|v| v.parse().ok()).unwrap_or(1) }";
        let (findings, _) = lint_source("sma-bench", "crates/bench/src/knobs.rs", src, &config);
        assert!(
            findings.iter().all(|f| f.rule != "env-read"),
            "{findings:?}"
        );
        let (findings, _) = lint_source("sma-bench", "crates/bench/src/sweep.rs", src, &config);
        assert!(findings.iter().any(|f| f.rule == "env-read"));
    }

    #[test]
    fn sanctioned_file_is_exempt_from_that_rule_only() {
        let mut config = Config::default();
        config.sanctioned.insert(
            "wallclock".into(),
            vec!["crates/runtime/src/serve/live.rs".into()],
        );
        let src = "fn f() { let t = Instant::now(); let m: HashMap<u32, u32> = HashMap::new(); }";
        let (findings, _) = lint_source(
            "sma-runtime",
            "crates/runtime/src/serve/live.rs",
            src,
            &config,
        );
        // The wall-clock read is sanctioned for this one file...
        assert!(
            findings.iter().all(|f| f.rule != "wallclock"),
            "{findings:?}"
        );
        // ...but the hash-collection finding still stands.
        assert!(findings.iter().any(|f| f.rule == "hash-collection"));
        // And the same source anywhere else keeps the wallclock finding.
        let (findings, _) = lint_source(
            "sma-runtime",
            "crates/runtime/src/serve/engine.rs",
            src,
            &config,
        );
        assert!(findings.iter().any(|f| f.rule == "wallclock"));
    }

    #[test]
    fn member_parsing_reads_names_and_dirs() {
        let manifest = "[workspace]\nmembers = [\n  \"crates/a\",\n  \"crates/b\",\n]\n[package]\nname = \"root\"\n";
        assert_eq!(member_dirs(manifest), ["crates/a", "crates/b"]);
        assert_eq!(package_name(manifest).as_deref(), Some("root"));
    }
}
